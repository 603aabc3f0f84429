import random
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from duadic import gf2poly
from duadic.code import dual, from_defining_set
from duadic.cyclotomic import CyclotomicCoset, DefiningSet, WeightClassSpec, coset, defining_set
from duadic.gf2m import field
from duadic.gf2poly import (
    check_poly,
    degree,
    divmod_,
    from_hex,
    generator_poly,
    minimal_poly,
    mod,
    mul,
    pretty,
    reciprocal,
    to_hex,
    x_pow_plus_one,
)

from _oracles import class_polys_direct, eval_at_powers, evaluate, field_mul, from_indices, from_leaders


def test_mul_basics():
    x_plus_1 = 0b11
    assert mul(x_plus_1, x_plus_1) == 0b101  # (x+1)^2 = x^2 + 1
    assert mul(0b1011, 1) == 0b1011
    assert mul(0, 0b1011) == 0


def test_mod_example():
    assert mod(x_pow_plus_one(7), 0b1011) == 0  # x^3+x+1 divides x^7 - 1


def test_divmod_property_randomized():
    rng = random.Random(2)
    for _ in range(300):
        a = rng.getrandbits(60)
        b = rng.getrandbits(20) | 1 << 19
        q, r = divmod_(a, b)
        assert mul(q, b) ^ r == a
        assert degree(r) < degree(b)


def test_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        divmod_(0b101, 0)


def test_degree_of_zero_is_minus_infinity():
    assert degree(0) == float("-inf")
    assert degree(1) == 0
    assert degree(0b1000) == 3


def test_reciprocal():
    assert reciprocal(0xB) == 0xD  # x^3+x+1 <-> x^3+x^2+1
    rng = random.Random(3)
    for _ in range(100):
        p = rng.getrandbits(30) | 1  # p(0) = 1
        assert reciprocal(reciprocal(p)) == p


def test_minimal_poly_m3():
    assert minimal_poly(coset(0, 7)) == 0b11  # x + 1
    assert minimal_poly(coset(1, 7)) == 0xB
    assert minimal_poly(coset(3, 7)) == 0xD


def test_minimal_poly_rejects_broken_coset():
    fake = CyclotomicCoset(n=7, leader=1, elements=(1, 2))  # not doubling-closed
    with pytest.raises(ValueError):
        minimal_poly(fake)


@pytest.mark.parametrize("n", [5, 9, 21])
def test_minimal_poly_rejects_a_length_that_is_not_two_to_the_m_minus_one(n):
    # n fixes the field GF(2^m) only when n = 2^m - 1
    with pytest.raises(ValueError, match="not 2\\^m - 1"):
        minimal_poly(coset(1, n))


def test_minimal_poly_degree_and_roots():
    f = field(9)
    cs = coset(5, f.n)
    p = minimal_poly(cs)
    assert degree(p) == cs.size
    for i in cs.elements:
        assert evaluate(f, p, int(f.antilog_table[i])) == 0


def _is_irreducible(p):
    # trial division over GF(2) up to half the degree
    d = degree(p)
    for q in range(2, 1 << (d // 2 + 1)):
        if degree(q) >= 1 and mod(p, q) == 0:
            return False
    return True


@pytest.mark.parametrize("m", [3, 5, 7, 9, 11])
def test_minimal_poly_irreducible(m):
    f = field(m)
    rng = random.Random(m)
    reps = rng.sample(range(1, f.n), 5)
    for s in reps:
        assert _is_irreducible(minimal_poly(coset(s, f.n)))


def test_generator_poly_examples():
    t = defining_set(WeightClassSpec(r=2, m=3, S=(1,)))
    assert generator_poly(t) == 0xB
    assert generator_poly(DefiningSet(7, 0)) == 1

    t5 = defining_set(WeightClassSpec(r=2, m=5, S=(1,)))
    g5 = generator_poly(t5)
    assert degree(g5) == t5.size == 15
    assert g5 == 0xDD5D  # frozen from an independent table-free expansion
    assert mod(x_pow_plus_one(31), g5) == 0


def test_check_poly():
    h = check_poly(0xB, 7)
    assert h == 0b10111  # x^4 + x^2 + x + 1
    assert mul(0xB, h) == x_pow_plus_one(7)
    with pytest.raises(ValueError):
        check_poly(0b111, 7)  # x^2+x+1 does not divide x^7+1


@pytest.mark.parametrize("m", [3, 5, 7, 9, 11])
def test_generator_times_check_is_xn_plus_one(m):
    f = field(m)
    rng = random.Random(10 + m)
    for _ in range(5):
        r = rng.choice([2, 4, 6, 8])
        s = tuple(sorted(rng.sample(range(r), r // 2)))
        t = defining_set(WeightClassSpec(r=r, m=m, S=s))
        g = generator_poly(t)
        assert mul(g, check_poly(g, f.n)) == x_pow_plus_one(f.n)


@pytest.mark.parametrize("m", [3, 5, 7, 9])
def test_root_set_faithfulness(m):
    # g(alpha^i) = 0 exactly for i in T, checked at every point of Z_n
    f = field(m)
    rng = random.Random(20 + m)
    r = rng.choice([2, 4, 8])
    s = tuple(sorted(rng.sample(range(r), r // 2)))
    t = defining_set(WeightClassSpec(r=r, m=m, S=s))
    g = generator_poly(t)
    values = eval_at_powers(f, g)
    roots = np.flatnonzero(values == 0)
    assert sorted(roots.tolist()) == sorted(t.indices().tolist())


def test_eval_at_powers_matches_scalar():
    f = field(5)
    rng = random.Random(4)
    p = rng.getrandbits(12)
    vec = eval_at_powers(f, p)
    for e in range(f.n):
        assert int(vec[e]) == evaluate(f, p, int(f.antilog_table[e]))


def test_hex_and_pretty():
    assert to_hex(0xB) == "0xB"
    assert from_hex("0xB") == 11
    assert pretty(0xB) == "x^3 + x + 1"
    assert pretty(0) == "0"
    assert pretty(1) == "1"
    assert pretty(0b110) == "x^2 + x"


def _shift_xor(a, b):
    """Reference product: xor of b shifted by every set bit of a."""
    r = 0
    for i in range(a.bit_length()):
        if (a >> i) & 1:
            r ^= b << i
    return r


def _scalar_minimal_poly(fld, elements):
    """Reference coset product prod (x - alpha^i), one field operation at a time."""
    coeffs = [1]
    for i in elements:
        root = int(fld.antilog_table[i])
        nxt = [0] * (len(coeffs) + 1)
        for j, c in enumerate(coeffs):
            nxt[j + 1] ^= c
            nxt[j] ^= field_mul(fld, root, c)
        coeffs = nxt
    assert all(c in (0, 1) for c in coeffs)
    return sum(c << j for j, c in enumerate(coeffs))


@st.composite
def _polys(draw, max_bits, min_bits=0):
    """A polynomial of exactly `bits` bits for a drawn bits; 0 and 1 included."""
    bits = draw(st.integers(min_bits, max_bits))
    return draw(st.integers(1 << (bits - 1), (1 << bits) - 1)) if bits else 0


@settings(max_examples=60, deadline=None)
@given(_polys(3 * gf2poly.FFT_MIN_BITS), _polys(3 * gf2poly.FFT_MIN_BITS))
def test_mul_matches_shift_xor_across_the_fft_threshold(a, b):
    assert mul(a, b) == _shift_xor(a, b) == mul(b, a)


@settings(max_examples=30, deadline=None)
@given(_polys(gf2poly.FFT_MIN_BITS + 64, min_bits=gf2poly.FFT_MIN_BITS), _polys(8 * gf2poly.FFT_MIN_BITS))
def test_mul_matches_shift_xor_for_unequal_lengths(a, b):
    assert mul(a, b) == _shift_xor(a, b) == mul(b, a)


@settings(max_examples=60, deadline=None)
@given(_polys(600), _polys(600))
def test_fft_and_split_paths_match_shift_xor(a, b):
    # thresholds shrunk so that small operands take the FFT and split paths
    with mock.patch.object(gf2poly, "FFT_MIN_BITS", 8), mock.patch.object(gf2poly, "FFT_MAX_BITS", 256):
        assert mul(a, b) == _shift_xor(a, b)
    if a and b:
        assert gf2poly._mul_fft(a, b) == _shift_xor(a, b)


def test_fft_rounding_guard_raises_on_a_perturbed_transform(monkeypatch):
    real_irfft = np.fft.irfft

    def perturbed(spectrum, n):
        out = real_irfft(spectrum, n)
        out[len(out) // 3] += 0.4
        return out

    rng = random.Random(5)
    a, b = rng.getrandbits(2000) | 1 << 1999, rng.getrandbits(3000) | 1 << 2999
    expected = mul(a, b)
    monkeypatch.setattr(np.fft, "irfft", perturbed)
    with pytest.raises(ArithmeticError, match="precision"):
        mul(a, b)
    monkeypatch.setattr(np.fft, "irfft", real_irfft)
    assert mul(a, b) == expected


@pytest.mark.parametrize("m", range(2, 14))
def test_minimal_poly_table_matches_scalar_expansion(m):
    # even m has self-paired cosets (C = -C)
    f = field(m)
    cosets = [coset(s, f.n) for s in DefiningSet.full(f.n).coset_leaders()]
    with mock.patch.object(gf2poly, "_expand_roots", wraps=gf2poly._expand_roots) as expand:
        table = gf2poly._minimal_poly_table.__wrapped__(m)
    for cs in cosets:
        expected = _scalar_minimal_poly(f, cs.elements)
        assert minimal_poly(cs) == expected
        assert all(table[e] == expected for e in cs.elements)
    # a coset is expanded unless it is the negation of one with a smaller leader
    expanded = sum(cs.leader <= f.n - max(cs.elements) for cs in cosets)
    assert sum(len(call.args[1]) for call in expand.call_args_list) == expanded


@pytest.mark.parametrize("m", range(8, 13))
def test_chunked_minimal_poly_table_matches_scalar_expansion(m):
    # the table is expanded in chunks of equal-size cosets, one `_expand_roots`
    # call per size, and each chunk also fills the entries of the negated cosets
    f = field(m)
    cosets = [coset(s, f.n) for s in DefiningSet.full(f.n).coset_leaders()]
    expected = np.empty(f.n, dtype=np.uint32)
    for cs in cosets:
        expected[list(cs.elements)] = _scalar_minimal_poly(f, cs.elements)
    with mock.patch.object(gf2poly, "_expand_roots", wraps=gf2poly._expand_roots) as expand:
        table = gf2poly._minimal_poly_table.__wrapped__(m)
    assert table.tolist() == expected.tolist()
    chunks = [call.args[1] for call in expand.call_args_list]
    sizes = [chunk.shape[1] for chunk in chunks]
    assert sorted(sizes) == sorted({cs.size for cs in cosets})
    # the rows of a chunk are whole cosets, each expanded once, one of each pair {C, -C}
    rows = [frozenset(row) for chunk in chunks for row in chunk.tolist()]
    kept = {frozenset(cs.elements) for cs in cosets if cs.leader <= f.n - max(cs.elements)}
    assert len(rows) == len(set(rows)) and set(rows) == kept


def test_minimal_poly_table_is_kept_once_per_m():
    # the table depends on m alone, so the codes of one m share it
    gf2poly._minimal_poly_table.cache_clear()
    T = from_leaders(511, [1, 3, 5])
    codes = [from_defining_set(T) for _ in range(3)]
    assert len({c.g for c in codes}) == 1
    assert gf2poly._minimal_poly_table.cache_info().currsize == 1


@pytest.mark.parametrize("r", range(2, 17, 2))
def test_class_polys_build_one_class_of_each_negation_pair(r):
    # m = 2..13 covers self-paired classes (2c = m mod r, even m) and empty ones (r > m)
    for m in range(2, 14):
        with mock.patch.object(gf2poly, "generator_poly", wraps=gf2poly.generator_poly) as built:
            found = gf2poly.class_polys(m, r)
        assert (found.m, found.r, found.polys) == (m, r, class_polys_direct(m, r))
        assert built.call_count == len({min(c, (m - c) % r) for c in range(r)})


def test_expand_roots_keeps_zero_coefficients_zero():
    # (x + 1)^2 = x^2 + 1 has a zero coefficient, which the third factor must scale to zero
    rows = np.array([[0, 0, 0], [1, 2, 4]], dtype=np.int32)
    assert gf2poly._expand_roots(field(3), rows).tolist() == [0b1111, 0xB]


@pytest.mark.parametrize("elements", [(1, 2, 4, 3, 6, 5), (1, 2, 4, 1), (1, 2, 8), (8, 9, 11), (0, 0), ()])
def test_minimal_poly_rejects_non_orbits(elements):
    # a union of two cosets, a repeated member, members outside Z_7, a repeated zero, nothing
    fake = CyclotomicCoset(n=7, leader=min(elements, default=0), elements=elements)
    with pytest.raises(ValueError):
        minimal_poly(fake)


@st.composite
def _specs(draw, max_m):
    m = draw(st.integers(2, max_m))
    r = draw(st.sampled_from([2, 4, 6, 8, 16]))
    s = draw(st.lists(st.integers(0, r - 1), min_size=1, max_size=r - 1, unique=True))
    return WeightClassSpec(r=r, m=m, S=tuple(sorted(s)), unchecked=True)


@settings(max_examples=40, deadline=None)
@given(_specs(13))
def test_generator_times_complement_generator_is_xn_plus_one(spec):
    f = field(spec.m)
    t = defining_set(spec)
    g = generator_poly(t)
    h = generator_poly(t.complement())
    assert degree(g) == t.size
    assert mul(g, h) == x_pow_plus_one(f.n)
    assert h == check_poly(g, f.n)


@settings(max_examples=20, deadline=None)
@given(_specs(11))
def test_dual_generator_is_reciprocal_of_division_quotient(spec):
    c = from_defining_set(defining_set(spec))
    assert dual(c).g == reciprocal(check_poly(c.g, c.n))


@settings(max_examples=40, deadline=None)
@given(_specs(13))
def test_dual_defining_set_is_complement_of_negation(spec):
    c = from_defining_set(defining_set(spec))
    expected = set(range(c.n)) - {(-j) % c.n for j in c.T.indices()}
    d = dual(c)
    assert set(d.T.indices()) == expected
    assert d.g == generator_poly(from_indices(c.n, sorted(expected)))


def test_dual_rejects_a_generator_that_is_not_the_product():
    c = from_defining_set(defining_set(WeightClassSpec(r=2, m=5, S=(1,))))
    with pytest.raises(AssertionError, match="x\\^n \\+ 1"):
        dual(replace(c, g=c.g ^ 0b10))
