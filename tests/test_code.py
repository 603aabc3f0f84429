import dataclasses
import random
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from duadic import cli, gf2poly
from duadic.code import (
    CyclicCode,
    dual,
    extend,
    from_class_polys,
    from_defining_set,
    is_doubly_even,
    is_self_dual,
)
from duadic.cyclotomic import DefiningSet, WeightClassSpec, defining_set
from duadic.gf2m import field
from duadic.gf2poly import ClassPolys, class_polys, product
from duadic.pairs import enumerate_catalog

from _oracles import (
    eval_at_powers,
    from_indices,
    from_leaders,
    generator_rows,
    is_even_weight_subcode,
    matrix_product_is_zero,
    members,
    mod,
    rank,
    row_reduce,
)


def _code(r, m, S):
    return from_defining_set(defining_set(WeightClassSpec(r=r, m=m, S=S)))


def _all_codewords(c):
    rows = generator_rows(c)
    words = [0]
    for row in rows:
        words += [w ^ row for w in words]
    return words


def test_from_defining_set_examples():
    c = _code(2, 3, (0,))
    assert (c.n, c.k) == (7, 4) and c.g == 0xD
    full = from_defining_set(DefiningSet(7, 0))
    assert (full.n, full.k) == (7, 7) and full.g == 1
    c31 = _code(2, 5, (1,))
    assert (c31.n, c31.k) == (31, 16)


def test_from_defining_set_requires_closure():
    with pytest.raises(ValueError):
        from_defining_set(from_indices(7, [1, 2]))


def test_a_code_holds_only_g_h_and_its_defining_set():
    assert [f.name for f in dataclasses.fields(CyclicCode)] == ["g", "h", "T"]
    c = _code(2, 5, (1,))
    assert (c.n, c.k) == (31, 16)
    assert gf2poly.mul(c.g, c.h) == gf2poly.x_pow_plus_one(c.n)


def test_generator_rows_are_codewords_of_rank_k():
    c = _code(2, 5, (1,))
    rows = generator_rows(c)
    assert len(rows) == c.k
    assert rank(rows) == c.k
    assert all(c.contains(row) for row in rows)


def test_dual_example():
    c = _code(2, 3, (1,))  # T = {1,2,4}
    d = dual(c)
    assert (d.n, d.k) == (7, 3)
    assert members(d.T) == [0, 1, 2, 4]
    assert dual(d).T == c.T
    assert matrix_product_is_zero(generator_rows(c), generator_rows(d))
    assert rank(generator_rows(c)) + rank(generator_rows(d)) == c.n


@st.composite
def _unchecked_specs(draw):
    m = draw(st.integers(2, 13))
    r = draw(st.sampled_from(range(2, 17, 2)))
    s = draw(st.lists(st.integers(0, r - 1), max_size=r - 1, unique=True))
    return WeightClassSpec(r=r, m=m, S=tuple(s), unchecked=True)


@settings(max_examples=60, deadline=None)
@given(_unchecked_specs())
def test_class_route_matches_the_generic_route(spec):
    c = from_class_polys(spec, class_polys(spec.m, spec.r))
    generic = from_defining_set(defining_set(spec))
    assert c == generic  # g, h and T
    assert c.k == spec.n - c.T.size
    assert dual(c) == dual(generic)
    assert dual(dual(c)) == c


def test_class_route_check_polynomial_is_verified():
    spec = WeightClassSpec(r=8, m=9, S=(0, 2, 3, 4))
    c = from_class_polys(spec, class_polys(spec.m, spec.r))
    with pytest.raises(AssertionError, match="x\\^n \\+ 1"):
        dual(replace(c, h=c.h ^ 0b10))


def test_class_route_generator_degree_guard_trips_on_a_wrong_class_polynomial(monkeypatch):
    # P_1 times x: g = x P_1 has one degree more than |T|
    spec = WeightClassSpec(r=2, m=7, S=(1,))
    polys = class_polys(spec.m, spec.r)
    wrong = ClassPolys(spec.m, (polys.polys[0], polys.polys[1] << 1))
    message = "generator degree disagrees with the defining set"
    with pytest.raises(AssertionError, match=message):
        from_class_polys(spec, wrong)
    monkeypatch.setattr(gf2poly, "class_polys", lambda m, r: wrong)
    with pytest.raises(AssertionError, match=message):
        cli.main(["construct", "-r", "2", "-m", "7", "-S", "1"])  # raises out of main: the process exits 1


def test_dual_generator_degree_guard_trips_on_a_defining_set_of_another_size(monkeypatch):
    # g * h is still x^n + 1, so only the degree guard can fire: T u {0} has one residue more
    spec = WeightClassSpec(r=2, m=7, S=(1,))
    c = from_class_polys(spec, class_polys(spec.m, spec.r))
    message = "dual generator degree disagrees with dual defining set"
    with pytest.raises(AssertionError, match=message):
        dual(replace(c, T=c.T.with_zero()))
    real = cli.from_class_polys

    def widened(*args):
        code = real(*args)
        return replace(code, T=code.T.with_zero())

    monkeypatch.setattr(cli, "from_class_polys", widened)
    for argv in (["construct"], ["mindist", "--code", "dual"]):
        with pytest.raises(AssertionError, match=message):
            cli.main([*argv, "-r", "2", "-m", "7", "-S", "1"])  # raises out of main: the process exits 1


@pytest.mark.parametrize("m,r", [(11, 8), (9, 4), (9, 16), (7, 8)])
def test_class_route_rejects_a_set_built_for_another_m_or_r(m, r):
    spec = WeightClassSpec(r=8, m=9, S=(0, 2, 3, 4))
    with pytest.raises(ValueError, match=f"class polynomials of m={m}, r={r} do not belong to m=9, r=8"):
        from_class_polys(spec, class_polys(m, r))


@pytest.mark.parametrize("r,m", [(16, 9), *((8, m) for m in range(3, 12, 2))])
def test_catalog_specs_from_one_shared_class_set_equal_specs_built_alone(r, m, monkeypatch):
    shared = class_polys(m, r)
    specs = [WeightClassSpec(r=r, m=m, S=s) for s in enumerate_catalog(r, m % r)]
    products = []
    mul = gf2poly.mul
    monkeypatch.setattr(gf2poly, "mul", lambda a, b: products.append(1) or mul(a, b))
    codes = [from_class_polys(spec, shared) for spec in specs]
    shared_products = len(products)
    alone = [from_class_polys(spec, ClassPolys(m, shared.polys)) for spec in specs]
    assert 2 * shared_products <= len(products) - shared_products
    monkeypatch.undo()
    for spec, c, c_alone in zip(specs, codes, alone):
        assert c == c_alone
        assert c.g == product([shared.polys[i] for i in spec.S])
        assert c.h == product([0b11] + [p for i, p in enumerate(shared.polys) if i not in spec.S])


@pytest.mark.parametrize("m", [3, 5, 7, 9, 11])
def test_dual_of_duadic_has_zero_joined(m):
    for r in (2, 4, 8):
        for s in enumerate_catalog(r, m % r):
            c = _code(r, m, s)
            d = dual(c)
            assert d.T == c.T.with_zero()
            assert matrix_product_is_zero(generator_rows(c), generator_rows(d))


def test_dual_is_even_weight_subcode_small():
    for m, r in ((3, 2), (5, 2), (5, 4)):
        for s in enumerate_catalog(r, m % r):
            c = _code(r, m, s)
            d = dual(c)
            assert is_even_weight_subcode(d, c)
            even_words = {w for w in _all_codewords(c) if w.bit_count() % 2 == 0}
            assert even_words == set(_all_codewords(d))


def test_even_weight_subcode_rejects_non_subcode():
    c1 = _code(2, 3, (1,))
    c0 = _code(2, 3, (0,))
    assert not is_even_weight_subcode(c0, c1)  # same dimension, not contained
    assert not is_even_weight_subcode(dual(c1), c0)


def test_extend_examples():
    c = _code(2, 3, (1,))
    e = extend(c)
    assert (e.n, e.k) == (8, 4)
    weights = sorted(w.bit_count() for w in _all_codewords_ext(e))
    assert weights[1] == 4  # [7,4,3] extends to [8,4,4]
    assert e.contains(0)
    c31 = _code(2, 5, (1,))
    e31 = extend(c31)
    assert (e31.n, e31.k) == (32, 16)
    assert min(w.bit_count() for w in _all_codewords_ext(e31) if w) == 8


@pytest.mark.parametrize("m, r, s", [(3, 2, (1,)), (5, 2, (0,)), (9, 8, (0, 2, 3, 4))])
def test_extended_membership_rejects_an_odd_overall_weight(m, r, s):
    # the base part of each word is a codeword; only the parity coordinate tells them apart
    e = extend(_code(r, m, s))
    for word in (e.base.g, e.base.g ^ (e.base.g << 1), e.base.g << (e.base.n - e.base.g.bit_length())):
        parity = word.bit_count() & 1
        assert e.contains(word | parity << e.base.n)
        assert not e.contains(word | (parity ^ 1) << e.base.n)


def _all_codewords_ext(e):
    rows = generator_rows(e)
    words = [0]
    for row in rows:
        words += [w ^ row for w in words]
    return words


def test_extended_rows_have_even_weight():
    e = extend(_code(8, 9, (0, 2, 3, 4)))
    assert all(row.bit_count() % 2 == 0 for row in generator_rows(e))


def test_self_dual_examples():
    assert is_self_dual(extend(_code(2, 3, (1,))))
    assert is_self_dual(extend(_code(2, 5, (1,))))
    full = from_defining_set(DefiningSet(7, 0))
    assert not is_self_dual(extend(full))  # [8,7]: dimension rules it out


@pytest.mark.parametrize("m", range(2, 8))
def test_self_orthogonality_shortcut_matches_matrix_product(m):
    # random unions of cosets, with and without 0, at several densities so
    # that T u -T covers Z_n \ {0} in some and misses in others; at odd m
    # also the catalog specs; and the duals of all of them
    rng = random.Random(m)
    n = (1 << m) - 1
    leaders = DefiningSet.full(n).coset_leaders()
    codes = []
    for density in (0.5, 0.75, 0.9) * 8:
        chosen = [s for s in leaders if rng.random() < density]
        codes.append(from_defining_set(from_leaders(n, chosen)))
    if m % 2:
        codes += [_code(r, m, s) for r in (2, 4, 8) for s in enumerate_catalog(r, m % r)]
    codes += [dual(c) for c in codes]
    from duadic.code import _self_orthogonal

    seen = set()
    for c in codes:
        e = extend(c)
        rows = generator_rows(e)
        expected = matrix_product_is_zero(rows, rows)
        assert _self_orthogonal(e) == expected, c.T.coset_leaders()
        seen.add((expected, 0 in c.T))
    assert seen == {(True, True), (True, False), (False, True), (False, False)}


@pytest.mark.parametrize("m", [3, 5])
def test_doubly_even_certificate_matches_enumeration(m):
    for r in (2, 4, 8):
        for s in enumerate_catalog(r, m % r):
            e = extend(_code(r, m, s))
            enumerated = all(w.bit_count() % 4 == 0 for w in _all_codewords_ext(e))
            assert is_doubly_even(e) == enumerated, (r, s)


def test_membership_routes_agree():
    # word in code <=> word(x) = 0 mod g(x) <=> word(alpha^i) = 0 for i in T
    rng = random.Random(9)
    for m, r, s in ((3, 2, (1,)), (5, 2, (1,)), (7, 4, (1, 3)), (9, 8, (0, 2, 3, 4))):
        c = _code(r, m, s)
        exps = members(c.T)
        words = [rng.getrandbits(c.n) for _ in range(20)]
        words += [_encode(c, rng.getrandbits(c.k)) for _ in range(10)]
        for w in words:
            by_poly = c.contains(w)
            by_roots = bool((eval_at_powers(field(m), w, exps) == 0).all())
            assert by_poly == by_roots


def _class_code(r, m, S):
    spec = WeightClassSpec(r=r, m=m, S=S, unchecked=True)
    return from_class_polys(spec, class_polys(m, r))


def _membership_words(c, rng):
    """g itself (when k > 0), random codewords u*g, random words, words with
    bit n - 1 set, and codewords with one bit flipped."""
    n = c.n
    codewords = [c.g] if c.k else []
    codewords += [gf2poly.mul(rng.getrandbits(c.k), c.g) for _ in range(4)]
    words = [rng.getrandbits(n) for _ in range(4)] + [rng.getrandbits(n - 1) | 1 << (n - 1) for _ in range(4)]
    return codewords + words + [w ^ 1 << rng.randrange(n) for w in codewords]


def _assert_membership_is_long_division(c, rng):
    words = _membership_words(c, rng)
    assert [c.contains(w) for w in words] == [mod(w, c.g) == 0 for w in words]
    e = extend(c)
    ext_words = [w | parity << c.n for w in words for parity in (0, 1)]
    expected = [mod(w & ~(1 << c.n), c.g) == 0 and w.bit_count() % 2 == 0 for w in ext_words]
    assert [e.contains(w) for w in ext_words] == expected
    for code in (c, e):
        with pytest.raises(ValueError):
            code.contains(1 << code.n)


@pytest.mark.parametrize("m", range(2, 14))
def test_membership_matches_long_division(m):
    # contains reads the quotient off c*h and checks q*g; the oracle divides by g
    rng = random.Random(m)
    for r, S in ((2, (1,)), (4, (1, 2))):
        primal = _class_code(r, m, S)
        for c in (primal, dual(primal)):
            _assert_membership_is_long_division(c, rng)


@pytest.mark.parametrize("edge", ["zero code", "empty T"])
def test_membership_matches_long_division_at_k_0_and_k_n(edge):
    c = dual(_class_code(2, 2, (0,))) if edge == "zero code" else _class_code(8, 3, (5,))
    assert c.k == (0 if edge == "zero code" else c.n)
    _assert_membership_is_long_division(c, random.Random(0))


def _encode(c, message):
    word = 0
    rows = generator_rows(c)
    for i in range(c.k):
        if (message >> i) & 1:
            word ^= rows[i]
    return word


def test_row_reduce_systematic():
    c = _code(2, 5, (1,))
    rows, pivots = row_reduce(generator_rows(c))
    assert len(rows) == len(pivots) == c.k
    assert rank(rows) == c.k
    assert all(c.contains(row) for row in rows)
    # pivots are unique leading bits
    tops = [row.bit_length() for row in rows]
    assert len(set(tops)) == len(tops)
