import math
from functools import reduce

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from duadic import cyclotomic
from duadic.cyclotomic import (
    CyclotomicCoset,
    DefiningSet,
    WeightClassSpec,
    check_r,
    coset,
    defining_set,
    rotations,
)

from _oracles import complement_spec, from_indices, from_leaders, leaders_of_z_n, members


def test_coset_examples():
    c = coset(1, 7)
    assert c.elements == (1, 2, 4) and c.leader == 1 and c.size == 3
    c = coset(0, 7)
    assert c.elements == (0,) and c.size == 1
    c = coset(5, 31)
    assert set(c.elements) == {5, 10, 20, 9, 18} and c.size == 5
    assert c.leader == 5


def test_coset_size_divides_m():
    for m in (3, 5, 9):
        n = (1 << m) - 1
        for s in range(n):
            assert m % coset(s, n).size == 0


def test_coset_representative_range():
    with pytest.raises(ValueError):
        coset(7, 7)


def test_coset_rejects_even_modulus():
    with pytest.raises(ValueError, match="even"):
        coset(1, 4)  # doubling mod 4 never returns to 1


def test_defining_set_examples():
    t0 = defining_set(WeightClassSpec(r=2, m=3, S=(0,)))
    assert members(t0) == [3, 5, 6]
    t1 = defining_set(WeightClassSpec(r=2, m=3, S=(1,)))
    assert members(t1) == [1, 2, 4]
    assert 0 not in t0 and 0 not in t1


@pytest.mark.parametrize("m", range(2, 13))
def test_weight_class_bitmaps_follow_the_w2_definition(m):
    # W_c = {1 <= j <= n-1 : w_2(j) = c mod r}, with r > m too, where the classes of weights above m are empty
    n = (1 << m) - 1
    for r in (2, 4, 6, 8, 10, 16, 40):
        expected = [0] * r
        for j in range(1, n):
            expected[j.bit_count() % r] |= 1 << j
        assert cyclotomic._weight_class_bitmaps(m, r) == tuple(expected)


@pytest.mark.parametrize("m", [3, 5, 7, 9, 11, 13])
@pytest.mark.parametrize("r", [2, 4, 8])
def test_partition_and_closure(m, r):
    spec = WeightClassSpec(r=r, m=m, S=tuple(range(r // 2)))
    comp = complement_spec(spec)
    t1, t2 = defining_set(spec), defining_set(comp)
    n = spec.n
    assert t1.bits & t2.bits == 0
    assert (t1 | t2).bits == ((1 << n) - 1) ^ 1  # everything except 0
    assert t1.size + t2.size == n - 1
    assert t1.is_closed_under_doubling() and t2.is_closed_under_doubling()


@pytest.mark.parametrize("m", [3, 5, 7, 9, 11, 13, 15, 17])
def test_weight_negation_duality_exhaustive(m):
    # w_2(i) = m - w_2(n - i) for all 1 <= i <= n-1
    n = (1 << m) - 1
    i = np.arange(1, n, dtype=np.uint32)
    w = np.bitwise_count(i)
    w_neg = np.bitwise_count(np.uint32(n) - i)
    assert (w == m - w_neg).all()


@pytest.mark.parametrize("m", [3, 5, 7, 9, 11, 13, 15, 17])
def test_doubling_preserves_weight_exhaustive(m):
    n = (1 << m) - 1
    j = np.arange(1, n, dtype=np.int64)
    assert (np.bitwise_count(j) == np.bitwise_count((2 * j) % n)).all()


def test_complement_spec_examples():
    for r, m, s, comp in [(8, 9, (0, 2, 3, 4), (1, 5, 6, 7)), (2, 3, (0,), (1,)), (4, 7, (1, 3), (0, 2))]:
        spec = WeightClassSpec(r=r, m=m, S=s)
        assert spec.complement == complement_spec(spec).S == comp


def test_spec_validation():
    with pytest.raises(ValueError):
        WeightClassSpec(r=2, m=4, S=(1,))  # even m
    with pytest.raises(ValueError):
        WeightClassSpec(r=4, m=5, S=(1,))  # |S| != r/2
    with pytest.raises(ValueError):
        WeightClassSpec(r=3, m=5, S=(1,))  # odd r
    with pytest.raises(ValueError):
        WeightClassSpec(r=4, m=5, S=(1, 1))  # duplicates
    with pytest.raises(ValueError):
        WeightClassSpec(r=4, m=5, S=(1, 4))  # out of range
    with pytest.raises(ValueError):
        WeightClassSpec(r=2, m=25, S=(1,))  # beyond desk scale
    # unchecked relaxes parity and size, but S stays a proper subset
    s = WeightClassSpec(r=4, m=4, S=(0, 1, 2), unchecked=True)
    assert s.t == 0
    assert WeightClassSpec(r=4, m=5, S=(1,), unchecked=True).S == (1,)
    with pytest.raises(ValueError):
        WeightClassSpec(r=2, m=5, S=(0, 1), unchecked=True)


@pytest.mark.parametrize(
    ("fields", "message"),
    [
        ({"r": 2.0, "m": 3, "S": (1,)}, "r must be a positive even integer, got 2.0"),
        ({"r": 4, "m": 5.0, "S": (0, 1)}, "m must be an integer, got 5.0"),
        ({"r": 2, "m": 3, "S": (1.0,)}, r"S=\(1.0,\) must contain residues in Z_2"),
        ({"r": 4, "m": 4, "S": (0, 1.5), "unchecked": True}, r"S=\(0, 1.5\) must contain residues in Z_4"),
        ({"r": "2", "m": 3, "S": (1,)}, "r must be a positive even integer, got 2"),
    ],
)
def test_spec_rejects_non_integer_fields(fields, message):
    # caught here, not as a TypeError later in `defining_set` or `n`
    with pytest.raises(ValueError, match=message):
        WeightClassSpec(**fields)


@pytest.mark.parametrize("r", [2.0, 4.5, "4", None])
def test_check_r_rejects_a_non_integer(r):
    with pytest.raises(ValueError, match="r must be a positive even integer"):
        check_r(r)


def test_spec_normalizes_order():
    assert WeightClassSpec(r=8, m=9, S=(4, 0, 3, 2)).S == (0, 2, 3, 4)


def test_defining_set_bitmap_roundtrips():
    t = defining_set(WeightClassSpec(r=2, m=5, S=(1,)))
    leaders = t.coset_leaders()
    assert leaders == [1, 7, 11]
    assert from_leaders(t.n, leaders) == t


def test_negated_is_involution():
    t = defining_set(WeightClassSpec(r=4, m=7, S=(1, 2)))
    assert t.negated().negated() == t
    # negation maps odd-like sets onto the complement side for duadic specs
    assert 0 not in t.negated()


def test_from_indices_bounds():
    with pytest.raises(ValueError):
        from_indices(7, [7])
    with pytest.raises(ValueError, match=r"2\^m - 1"):
        from_indices(5, [1, 2, 3, 4])  # one coset mod 5, which coset_leaders would split
    assert from_indices(7, []).size == 0


@pytest.mark.parametrize("n", [0, 1, 5, 6, 9, (1 << 21) - 1])
def test_defining_set_needs_n_of_the_form_2_to_the_m_minus_1(n):
    with pytest.raises(ValueError, match=r"2\^m - 1"):
        DefiningSet(n=n, bits=0)


def test_union_needs_one_z_n():
    assert (DefiningSet(7, 0b10) | DefiningSet(7, 0b100)).bits == 0b110
    with pytest.raises(ValueError, match="different Z_n"):
        DefiningSet(7, 0b10) | DefiningSet(15, 0b10)


def test_with_without_zero():
    t = defining_set(WeightClassSpec(r=2, m=3, S=(1,)))
    assert 0 in t.with_zero()
    assert DefiningSet(t.n, t.with_zero().bits & ~1) == t
    assert t.with_zero().size == t.size + 1


def test_membership_and_size():
    t = defining_set(WeightClassSpec(r=2, m=3, S=(0,)))
    assert 3 in t and 5 in t and 6 in t and 1 not in t
    assert t.size == 3


def test_coset_type_shape():
    c = coset(9, 511)
    assert isinstance(c, CyclotomicCoset)
    assert c.elements == tuple(sorted(c.elements))
    assert c.leader == min(c.elements)


def _scalar_coset_leaders(t):
    """Reference: walk each orbit from its first member in the set."""
    seen = np.zeros(t.n, dtype=bool)
    leaders = []
    for s in members(t):
        if seen[s]:
            continue
        leaders.append(s)
        x = s
        while not seen[x]:
            seen[x] = True
            x = 2 * x % t.n
    return leaders


@st.composite
def _subsets(draw, max_m, closed):
    m = draw(st.integers(2, max_m))
    n = (1 << m) - 1
    members = draw(st.lists(st.integers(0, n - 1), max_size=n))
    if closed:
        members = [e for s in members for e in coset(s, n).elements]
    return from_indices(n, members)


@settings(max_examples=100, deadline=None)
@given(_subsets(11, closed=True))
def test_coset_leaders_match_orbit_walk(t):
    assert t.coset_leaders() == _scalar_coset_leaders(t)


@settings(max_examples=100, deadline=None)
@given(_subsets(11, closed=False))
def test_coset_leaders_of_any_set_are_its_members_that_lead_their_orbit(t):
    # the contract outside doubling-closed sets: the set's members that are leaders of Z_n
    assert t.coset_leaders() == [s for s in members(t) if coset(s, t.n).leader == s]


@settings(max_examples=50, deadline=None)
@given(st.integers(2, 20).flatmap(
    lambda m: st.tuples(st.just(m), st.lists(st.integers(0, (1 << m) - 2), min_size=1, max_size=50))))
def test_rotation_minimum_is_the_coset_leader(m_residues):
    m, residues = m_residues
    n = (1 << m) - 1
    orbit_min = reduce(np.minimum, rotations(np.array(residues, dtype=np.int32), m))
    assert orbit_min.tolist() == [coset(s, n).leader for s in residues]


@pytest.mark.parametrize("m", range(2, 21))
def test_fixed_points_of_the_rotation_minimum_are_the_leaders_of_z_n(m):
    leaders = cyclotomic.leaders_of_z_n(m)
    assert leaders.dtype == np.int32 and not leaders.flags.writeable
    assert leaders.tolist() == leaders_of_z_n(m)
    assert DefiningSet.full((1 << m) - 1).coset_leaders() == leaders.tolist()


def _binary_necklaces(m):
    """N(m) = (1/m) sum_{d | m} phi(d) 2^(m/d), the binary necklaces of length m."""
    phi = [sum(math.gcd(k, d) == 1 for k in range(1, d + 1)) for d in range(m + 1)]
    return sum(phi[d] << (m // d) for d in range(1, m + 1) if m % d == 0) // m


@pytest.mark.parametrize("m", range(2, 21))
def test_leaders_of_z_n_count_the_binary_necklaces(m):
    # the cosets of Z_n are the necklaces of m bits but the all-ones one, which is n = 0 mod n
    assert len(cyclotomic.leaders_of_z_n(m)) == _binary_necklaces(m) - 1
