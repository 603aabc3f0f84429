import random
import tracemalloc
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from duadic import cyclotomic, gf2m, gf2poly
from duadic.code import dual, from_defining_set
from duadic.cyclotomic import CyclotomicCoset, DefiningSet, WeightClassSpec, coset, defining_set
from duadic.gf2m import field
from duadic.gf2poly import (
    check_poly,
    degree,
    from_hex,
    generator_poly,
    minimal_poly,
    mul,
    pretty,
    reciprocal,
    to_hex,
    x_pow_plus_one,
)

from _oracles import (
    antilog,
    class_polys_direct,
    divmod_,
    eval_at_powers,
    evaluate,
    expand_roots,
    field_mul,
    from_indices,
    from_leaders,
    members,
    minimal_poly_table,
    mod,
    weight_classes,
)


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
        assert evaluate(f, p, int(antilog(f)[i])) == 0


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
    with pytest.raises(ValueError):
        check_poly(0, 7)


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
    assert roots.tolist() == members(t)


def test_eval_at_powers_matches_scalar():
    f = field(5)
    rng = random.Random(4)
    p = rng.getrandbits(12)
    vec = eval_at_powers(f, p)
    for e in range(f.n):
        assert int(vec[e]) == evaluate(f, p, int(antilog(f)[e]))


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
    for i, bit in enumerate(reversed(bin(a)[2:])):
        if bit == "1":
            r ^= b << i
    return r


def _scalar_minimal_poly(fld, elements):
    """Reference coset product prod (x - alpha^i), one field operation at a time."""
    coeffs = [1]
    for i in elements:
        root = int(antilog(fld)[i])
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


# with FFT_MAX_BITS = 256, pairs of 100..600 bits take the Karatsuba split, a longer and a
# shorter operand with b1 = 0 among them, and pairs of 256 bits or more split again
_split_operands = st.one_of(_polys(600), _polys(256, min_bits=100))


@settings(max_examples=60, deadline=None)
@given(_split_operands, _split_operands)
def test_fft_and_split_paths_match_shift_xor(a, b):
    # thresholds shrunk so that small operands take the FFT path and the one split rule:
    # both operands cut at half the longer one, into three products
    with mock.patch.object(gf2poly, "FFT_MIN_BITS", 8), mock.patch.object(gf2poly, "FFT_MAX_BITS", 256):
        assert mul(a, b) == _shift_xor(a, b)
    if a and b:
        assert gf2poly._mul_fft(a, b) == _shift_xor(a, b)


def _sparse(bits, rng):
    """A polynomial of exactly `bits` bits with 40 random terms, so shift-xor by it stays cheap."""
    return sum(1 << rng.randrange(bits) for _ in range(40)) | 1 << (bits - 1)


def test_a_product_of_fft_max_bits_takes_one_transform():
    rng = random.Random(7)
    shapes = [
        # a product of exactly FFT_MAX_BITS bits fits one transform
        (gf2poly.FFT_MAX_BITS + 1 - 2000, 2000, 1),
        # the top product of the m = 19 class product tree: its three products of about 2^17 bits
        # split again, into products of up to 2^16 + 126 bits that the FFT_MIN_BITS slack keeps
        # in one transform each (19 transforms with no slack)
        (131329, 130816, 9),
        # g * h at m = 19: three products of three of three
        (262145, 262144, 27),
        # a shorter operand with no high half: b1 = 0, so a1 * b1 is 0 by shift-xor and the
        # split costs two products, each split twice more
        (400000, 3000, 8),
    ]
    for la, lb, transforms in shapes:
        # the bit below the cut gives the low half of the sparse operand its full length, as in a dense one
        a, b = _sparse(la, rng) | 1 << (max(la, lb) // 2 - 1), rng.getrandbits(lb) | 1 << (lb - 1)
        with mock.patch.object(gf2poly, "_mul_fft", wraps=gf2poly._mul_fft) as fft:
            product = mul(a, b)
        assert fft.call_count == transforms
        assert all(x.bit_length() + y.bit_length() - 1 <= gf2poly.FFT_MAX_BITS for (x, y), _ in fft.call_args_list)
        assert product == _shift_xor(a, b) == mul(b, a)


def _traced(fn, *args):
    """fn(*args), and the peak bytes that tracemalloc sees allocated while it runs and the bytes
    still held when it returns, each above what was held before."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        out = fn(*args)
        held, peak = tracemalloc.get_traced_memory()
        return out, peak - before, held - before
    finally:
        tracemalloc.stop()


def test_a_split_product_peaks_near_one_transform():
    # 2 * FFT_MAX_BITS bits: three transforms of FFT_MAX_BITS = 2^16 + 1024 bits, one at a
    # time, whose float64 buffers hold 0.54 MB each. It traced 1.44 MB, and 1.56-1.58 MB as the
    # first transforms of that length in a process; the bound leaves 0.22 MB above that. The
    # same shape at 2^17, with a rounding that kept a float64 and two integer copies, traced
    # 3.38 MB
    rng = random.Random(3)
    half = gf2poly.FFT_MAX_BITS
    a, b = rng.getrandbits(half) | 1 << (half - 1), rng.getrandbits(half + 1) | 1 << half
    assert _traced(mul, a, b)[1] < 1.8e6


@pytest.mark.parametrize(
    ("build", "bound"),
    [(cyclotomic.leaders_of_z_n, 0.8), (gf2poly._minimal_poly_table, 2.3)],
    ids=["leaders_of_z_n", "_minimal_poly_table"],
)
def test_field_setup_peaks_below_a_few_times_the_antilog_table(build, bound):
    # in multiples of 4n bytes, one int32 array over Z_n, at m = 16: the leader scan, a block
    # of SETUP_BLOCK odd residues at a time, peaks at 0.72 (2.0 over all of them at once), and
    # the table build, which fills and frees the antilog table before it allocates the table,
    # at 2.04-2.10 (3.0 with a 2m-row power matrix, the antilog table held before the trace);
    # each bound is about a tenth above the measured peak
    m = 16
    field(m), cyclotomic.leaders_of_z_n(m)  # the table's inputs, held before the trace
    assert _traced(build.__wrapped__, m)[1] < bound * 4 * ((1 << m) - 1)


def test_minimal_poly_table_holds_no_antilog_table_after_the_build():
    # from a cold start, what the build leaves held is the table, the leader array that
    # `leaders_of_z_n` caches and the field instance: no n-entry antilog table outlives it
    m = 16
    gf2m.field.cache_clear()
    cyclotomic.leaders_of_z_n.cache_clear()
    table, _, held = _traced(gf2poly._minimal_poly_table.__wrapped__, m)
    assert held <= table.nbytes + cyclotomic.leaders_of_z_n(m).nbytes + 4096


@pytest.mark.parametrize(
    ("build", "per_leader"),
    [(cyclotomic.leaders_of_z_n, 4), (gf2poly._minimal_poly_table, 80)],
    ids=["leaders_of_z_n", "_minimal_poly_table"],
)
def test_field_setup_peak_grows_with_its_output(build, per_leader):
    # from m = 14 to m = 18 the peak grows by the output's growth plus per_leader bytes per
    # added coset leader, and by nothing that grows with n itself. The leader scan's blocks
    # are full from m = 14 on; its concatenation holds one int32 copy of the leaders next to
    # the output (measured: 3.5 bytes a leader over the output's growth, against 113 for one
    # scan over all odd residues). The table build fills the antilog table (4n bytes) and frees
    # it before it allocates the table (4n bytes), so one n-entry array is held at a time; the
    # rest is Berlekamp-Massey state over the leaders (measured: 61.7 bytes a leader, against
    # 134.7 for a 2m-row power matrix next to the antilog table)
    for m in (14, 18):
        field(m), cyclotomic.leaders_of_z_n(m)
    (small, small_peak, _), (large, large_peak, _) = (_traced(build.__wrapped__, m) for m in (14, 18))
    added_leaders = len(cyclotomic.leaders_of_z_n(18)) - len(cyclotomic.leaders_of_z_n(14))
    assert large_peak - small_peak <= large.nbytes - small.nbytes + per_leader * added_leaders


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
    # even m has self-paired cosets (C = -C) and cosets of subfields
    f = field(m)
    cosets = [coset(s, f.n) for s in DefiningSet.full(f.n).coset_leaders()]
    real, streamed = gf2poly._berlekamp_massey, []

    def recording(rows, width):
        # the rows as Berlekamp-Massey consumes them, copied, since each is made for one step
        seen = []
        streamed.append(seen)
        return real((seen.append(row.copy()) or row for row in rows), width)

    with mock.patch.object(gf2poly, "_berlekamp_massey", recording):
        table = gf2poly._minimal_poly_table.__wrapped__(m)
    for cs in cosets:
        expected = _scalar_minimal_poly(f, cs.elements)
        assert minimal_poly(cs) == expected
        assert table[cs.leader] == expected
    # each polynomial is kept once, at its coset's leader
    assert np.count_nonzero(table) == len(cosets)
    # one pass over bit 0 of alpha^(e k), k < 2m, streamed a row per k, for the leader e of
    # each coset unless it is the negation of one with a smaller leader; below m = 14 one
    # block of SETUP_BLOCK leaders holds them all
    kept = [cs.leader for cs in cosets if cs.leader <= f.n - max(cs.elements)]
    assert len(streamed) == 1
    assert np.array_equal(np.array(streamed[0]), antilog(f)[np.outer(np.arange(2 * m), kept) % f.n] & 1)


@pytest.mark.parametrize("m", range(8, 13))
def test_chunked_minimal_poly_table_matches_scalar_expansion(m):
    # the reference for the table at every m, which expands the cosets of one size
    # together, against the expansion one field operation at a time
    f = field(m)
    cosets = [coset(s, f.n) for s in DefiningSet.full(f.n).coset_leaders()]
    expected = np.empty(f.n, dtype=np.uint32)
    for cs in cosets:
        expected[list(cs.elements)] = _scalar_minimal_poly(f, cs.elements)
    assert minimal_poly_table(m).tolist() == expected.tolist()


@pytest.mark.parametrize("m", range(2, 21))
def test_minimal_poly_table_matches_the_root_expansion(m):
    # at every leader against prod (x - alpha^i) over its coset, expanded in GF(2^m)[x]; 0 elsewhere
    table, leaders = gf2poly._minimal_poly_table.__wrapped__(m), cyclotomic.leaders_of_z_n(m)
    assert np.array_equal(table[leaders], minimal_poly_table(m)[leaders])
    table[leaders] = 0
    assert not table.any()


@pytest.mark.parametrize("m", [3, 8, 9])
def test_minimal_poly_reads_a_coset_listed_in_any_order(m):
    # the table holds each polynomial at the least member alone, wherever a coset lists it
    f = field(m)
    oracle = minimal_poly_table(m)
    for s in DefiningSet.full(f.n).coset_leaders():
        orbit = coset(s, f.n).elements
        for elements in (orbit[::-1], orbit[1:] + orbit[:1]):
            unsorted = CyclotomicCoset(n=f.n, leader=elements[0], elements=elements)
            assert minimal_poly(unsorted) == oracle[s]


def _linear_complexity(seq):
    """The least L for which some c_1..c_L give s_k = sum_i c_i s_(k-i) for every k >= L, by trial."""
    for order in range(len(seq) + 1):
        for conn in range(1, 2 << order, 2):
            if all(sum((conn >> i & 1) * seq[k - i] for i in range(order + 1)) % 2 == 0 for k in range(order, len(seq))):
                return order
    raise AssertionError("unreachable: order len(seq) fits every sequence")


@settings(max_examples=60, deadline=None)
@given(st.lists(st.lists(st.integers(0, 1), min_size=10, max_size=10), min_size=1, max_size=6))
def test_berlekamp_massey_finds_a_shortest_recurrence(seqs):
    conns = gf2poly._berlekamp_massey(np.array(seqs, dtype=np.uint32).T, len(seqs)).tolist()
    for seq, conn in zip(seqs, conns):
        order = _linear_complexity(seq)
        assert conn & 1 and conn.bit_length() - 1 <= order
        assert all(sum((conn >> i & 1) * seq[k - i] for i in range(order + 1)) % 2 == 0 for k in range(order, len(seq)))


@pytest.mark.parametrize("fault", ["zero", "coefficient"])
def test_minimal_poly_table_certificate_trips_on_a_perturbed_connection_polynomial(monkeypatch, fault):
    # a zero row has every point as a root, so only the degree test trips on it;
    # a flipped x^1 coefficient keeps the degree, so only the root test trips on it
    real = gf2poly._berlekamp_massey

    def perturbed(rows, width):
        conn = real(rows, width)
        row = len(conn) // 2
        conn[row] = 0 if fault == "zero" else conn[row] ^ 0b10
        return conn

    monkeypatch.setattr(gf2poly, "_berlekamp_massey", perturbed)
    with pytest.raises(AssertionError, match="not a minimal polynomial"):
        gf2poly._minimal_poly_table.__wrapped__(9)


def test_minimal_poly_table_is_kept_once_per_m():
    # the table depends on m alone, so the codes of one m share it
    # and reads the leader array of Z_n that `coset_leaders` reads
    T = from_leaders(511, [1, 3, 5])
    gf2poly._minimal_poly_table.cache_clear()
    cyclotomic.leaders_of_z_n.cache_clear()
    codes = [from_defining_set(T) for _ in range(3)]
    assert len({c.g for c in codes}) == 1
    assert gf2poly._minimal_poly_table.cache_info().currsize == 1
    leaders = cyclotomic.leaders_of_z_n.cache_info()
    assert (leaders.misses, leaders.currsize) == (1, 1)


@pytest.mark.parametrize("r", range(2, 17, 2))
def test_class_polys_build_one_class_of_each_negation_pair(r):
    # m = 2..13 covers self-paired classes (2c = m mod r, even m) and empty ones (r > m)
    for m in range(2, 14):
        with mock.patch.object(gf2poly, "_leaders_product", wraps=gf2poly._leaders_product) as built:
            found = gf2poly.class_polys(m, r)
        assert (found.m, found.r, found.polys) == (m, r, class_polys_direct(m, r))
        # the leaders masked by weight are those of W_c, for c the smaller of each pair {c, (m - c) mod r}
        classes = weight_classes(m, r)
        expected = [(classes[c].coset_leaders(), (1 << m) - 1) for c in range(r) if c <= (m - c) % r]
        assert [call.args for call in built.call_args_list] == expected


def test_expand_roots_keeps_zero_coefficients_zero():
    # (x + 1)^2 = x^2 + 1 has a zero coefficient, which the third factor must scale to zero
    rows = np.array([[0, 0, 0], [1, 2, 4]], dtype=np.int32)
    assert expand_roots(field(3), rows).tolist() == [0b1111, 0xB]


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
    expected = set(range(c.n)) - {(-j) % c.n for j in members(c.T)}
    d = dual(c)
    assert set(members(d.T)) == expected
    assert d.g == generator_poly(from_indices(c.n, sorted(expected)))


def test_dual_rejects_a_generator_that_is_not_the_product():
    c = from_defining_set(defining_set(WeightClassSpec(r=2, m=5, S=(1,))))
    with pytest.raises(AssertionError, match="x\\^n \\+ 1"):
        dual(replace(c, g=c.g ^ 0b10))
