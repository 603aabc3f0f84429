import math
from dataclasses import dataclass
from itertools import combinations
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from duadic import mindist
from duadic.code import dual, extend, from_defining_set, row_reduce
from duadic.cyclotomic import DefiningSet, WeightClassSpec, defining_set
from duadic.mindist import (
    CertifiedBound,
    bounded_min_distance,
    exact_min_distance,
    weight_distribution,
)
from duadic.pairs import complement_spec, enumerate_catalog

from _oracles import rank


def _code(r, m, S, unchecked=False):
    return from_defining_set(defining_set(WeightClassSpec(r=r, m=m, S=S, unchecked=unchecked)))


def _gray_scan(rows, n):
    """Reference: one row-xor per codeword over the messages in Gray-code
    order. Returns the minimum nonzero weight, the first codeword of that
    weight, the minimum odd weight (None if none) and the weight counts."""
    counts = [1] + [0] * n
    best_w = best_word = best_odd = None
    word = 0
    for i in range(1, 1 << len(rows)):
        word ^= rows[(i & -i).bit_length() - 1]
        w = word.bit_count()
        counts[w] += 1
        if best_w is None or w < best_w:
            best_w, best_word = w, word
        if w & 1 and (best_odd is None or w < best_odd):
            best_odd = w
    return best_w, best_word, best_odd, counts


@dataclass(frozen=True)
class _Rows:
    """A linear code given only by its generator rows."""

    n: int
    rows: tuple

    @property
    def k(self):
        return len(self.rows)

    def generator_rows(self):
        return list(self.rows)


@st.composite
def _generator_matrices(draw):
    k = draw(st.integers(1, 12))
    n = draw(st.integers(k, 64))
    rows = tuple(draw(st.lists(st.integers(0, (1 << n) - 1), min_size=k, max_size=k)))
    assume(rank(rows) == k)
    return _Rows(n, rows)


@settings(max_examples=150, deadline=None)
@given(_generator_matrices(), st.integers(1, 13), st.integers(1, 17))
def test_transform_matches_gray_scan(c, low_bits, block_bits):
    # small constants split k <= 12 into several blocks, and into b = 0 high bits when low_bits >= k
    d, witness, min_odd, counts = _gray_scan(c.rows, c.n)
    with mock.patch.object(mindist, "LOW_BITS", low_bits), mock.patch.object(mindist, "BLOCK_BITS", block_bits):
        found = exact_min_distance(c)
        wd = weight_distribution(c)
    assert (found.lower, found.upper, found.witness, found.min_odd_weight) == (d, d, witness, min_odd)
    assert list(wd.counts) == counts


def test_transform_matches_gray_scan_at_default_constants():
    c = _code(2, 5, (1,))  # k = 16: 2^4 transform rows of 2^12 messages each
    d, witness, min_odd, counts = _gray_scan(tuple(c.generator_rows()), c.n)
    found = exact_min_distance(c)
    assert (found.lower, found.witness, found.min_odd_weight) == (d, witness, min_odd)
    assert list(weight_distribution(c).counts) == counts


def _results(c, low_bits, block_bits):
    with mock.patch.object(mindist, "LOW_BITS", low_bits), mock.patch.object(mindist, "BLOCK_BITS", block_bits):
        blocks = sum(1 for _ in mindist._weight_blocks(c))
        found = exact_min_distance(c)
        return blocks, (found.lower, found.witness, found.min_odd_weight), weight_distribution(c)


def test_partitioned_scan_matches_single_pass():
    c = _code(2, 5, (1,))  # k = 16
    blocks, whole, wd_whole = _results(c, 16, 20)
    assert blocks == 1
    for low_bits, block_bits in [(12, 13), (8, 10), (4, 5), (1, 1)]:
        blocks, split, wd_split = _results(c, low_bits, block_bits)
        assert blocks > 1
        assert split == whole
        assert wd_split == wd_whole


def test_worker_pool_determinism():
    # the result is the same on repeated calls and for every division of the
    # message space into (LOW_BITS, BLOCK_BITS) transform blocks
    c = _code(2, 4 + 1, (1,))
    first = _results(c, mindist.LOW_BITS, mindist.BLOCK_BITS)[1:]
    assert _results(c, mindist.LOW_BITS, mindist.BLOCK_BITS)[1:] == first
    for low_bits in (3, 7, 12, 16):
        for block_bits in (low_bits, low_bits + 2, 18):
            assert _results(c, low_bits, block_bits)[1:] == first


# witness_low: the low 64 bits of the first minimum-weight codeword in Gray-code order
@pytest.mark.parametrize("code, d, min_odd, witness_low", [
    ("primal", 979, 979, 0x69A99AC1722FD865), ("extended", 980, None, 0xA3ECE5605D8548A1)], ids=["primal", "extended"])
def test_k23_distances(code, d, min_odd, witness_low):
    c = _code(12, 11, (0, 2, 3, 4, 5, 6, 7, 8, 9, 11), unchecked=True)
    if code == "extended":
        c = extend(c)
    assert c.k == 23
    found = exact_min_distance(c)
    assert (found.lower, found.upper, found.min_odd_weight) == (d, d, min_odd)
    assert c.contains(found.witness) and found.witness.bit_count() == d
    assert found.witness & ((1 << 64) - 1) == witness_low  # 128 blocks at the default constants
    wd = weight_distribution(c)
    assert sum(wd.counts) == 1 << 23 and wd.counts[0] == 1
    assert min(w for w in range(1, c.n + 1) if wd.counts[w]) == d


@st.composite
def _small_k_specs(draw, max_k, max_m=13):
    """Unchecked weight-class specs with m <= max_m whose code has k <= max_k:
    S leaves out only residues whose weight classes hold few exponents."""
    m = draw(st.integers(2, max_m))
    r = draw(st.sampled_from([2, 4, 6, 8, 16]))
    size = [sum(math.comb(m, w) for w in range(1, m) if w % r == c) for c in range(r)]
    small = [c for c in range(r) if size[c] < max_k]
    assume(small)
    left_out = draw(st.lists(st.sampled_from(small), min_size=1, unique=True))
    assume(1 + sum(size[c] for c in left_out) <= max_k)  # k = 1 + the exponents outside T
    s = tuple(c for c in range(r) if c not in left_out)
    return WeightClassSpec(r=r, m=m, S=s, unchecked=True)


def _spec_code(spec, extended):
    c = from_defining_set(defining_set(spec))
    return extend(c) if extended else c


@settings(max_examples=40, deadline=None)
@given(_small_k_specs(max_k=16), st.booleans())
def test_exact_witness_is_a_codeword(spec, extended):
    c = _spec_code(spec, extended)
    found = exact_min_distance(c)
    assert c.contains(found.witness) and found.witness.bit_count() == found.lower


@settings(max_examples=30, deadline=None)
@given(_small_k_specs(max_k=128), st.booleans(), st.integers(0, 3), st.integers(0, 2**32))
def test_bounded_witness_is_a_codeword(spec, extended, effort, seed):
    c = _spec_code(spec, extended)
    found = bounded_min_distance(c, effort=effort, seed=seed)
    assert c.contains(found.witness) and found.witness.bit_count() == found.upper
    assert found.lower <= found.upper


def _light_messages_reference(reduced):
    """Reference: the lightest combination of at most 3 rows by Python
    big-int xors, the first lightest in the order rows, pairs, triples."""
    best = None
    best_w = None
    for row in reduced:
        w = row.bit_count()
        if best_w is None or w < best_w:
            best, best_w = row, w
    for a, b in combinations(reduced, 2):
        word = a ^ b
        w = word.bit_count()
        if w < best_w:
            best, best_w = word, w
    for a, b, cc in combinations(reduced, 3):
        word = a ^ b ^ cc
        w = word.bit_count()
        if w < best_w:
            best, best_w = word, w
    return best


@st.composite
def _row_lists(draw):
    """At most 48 rows of n <= 200 bits. Planted rows, pairs and triples xor
    to distinct words of one weight <= 3, so combinations of every stage tie
    for the lightest; zero rows and repeated rows are mixed in."""
    n = draw(st.integers(1, 200))
    word = st.integers(0, (1 << n) - 1)
    weight = draw(st.integers(1, min(3, n)))
    light = st.sets(st.integers(0, n - 1), min_size=weight, max_size=weight).map(lambda bits: sum(1 << b for b in bits))
    rows = draw(st.lists(word, max_size=30))
    for size in draw(st.lists(st.integers(1, 3), max_size=5)):
        x, y, e = draw(word), draw(word), draw(light)
        rows += [[e], [x, x ^ e], [x, y, x ^ y ^ e]][size - 1]
    rows += draw(st.lists(st.one_of(st.just(0), st.sampled_from(rows or [0])), max_size=3))
    return draw(st.permutations(rows))


@settings(max_examples=150, deadline=None)
@given(_row_lists(), st.integers(1, 64) | st.just(1 << 13))
def test_light_messages_match_reference(rows, block_words):
    with mock.patch.object(mindist, "PAIR_BLOCK_WORDS", block_words):
        assert mindist._light_messages_best(rows) == _light_messages_reference(rows)


@pytest.mark.parametrize("r, m, S", [(2, 3, (1,)), (2, 5, (1,)), (2, 7, (1,))])
def test_light_messages_match_reference_on_search_trials(r, m, S):
    c = _code(r, m, S)
    rng = np.random.default_rng(5)
    for _ in range(3):
        perm = rng.permutation(c.n)
        permuted = [sum(((row >> int(p)) & 1) << j for j, p in enumerate(perm)) for row in c.generator_rows()]
        reduced, _ = row_reduce(permuted)
        assert mindist._light_messages_best(reduced) == _light_messages_reference(reduced)


# (lower, upper, witness) as found by the Python-loop scan
_M9_WITNESS = int(
    "4c000000040124024000801804110006810246820802022888810303281000120192504c42010800500008a200e840e109000a000010042"
    "000000110802722f0", 16)


@pytest.mark.parametrize("r, m, S, extended, effort, seed, lower, upper, witness", [
    (2, 7, (1,), False, 20, 7, 9, 19, 0x1C021004000810430600002015804000),
    (2, 7, (1,), False, 200, 1, 9, 19, 0x4000810430600002015804000380420),
    (8, 9, (0, 2, 3, 4), False, 1, 1, 19, 91, _M9_WITNESS),
    (2, 7, (1,), True, 5, 3, 10, 20, 0x8060000E22801188000502000050108),
], ids=["m7-effort20-seed7", "m7-effort200-seed1", "m9-effort1-seed1", "m7-extended-effort5-seed3"])
def test_bounded_search_golden(r, m, S, extended, effort, seed, lower, upper, witness):
    c = _code(r, m, S)
    if extended:
        c = extend(c)
    found = bounded_min_distance(c, effort=effort, seed=seed)
    assert (found.lower, found.upper, found.witness) == (lower, upper, witness)
    assert c.contains(witness) and witness.bit_count() == upper


def test_exact_examples():
    assert exact_min_distance(_code(2, 3, (1,))).lower == 3
    found = exact_min_distance(_code(2, 5, (1,)))
    assert found.lower == found.upper == 7 and found.exact
    assert found.min_odd_weight == 7
    assert found.witness.bit_count() == 7
    rep = from_defining_set(DefiningSet(7, (1 << 7) - 2))
    assert exact_min_distance(rep).lower == 7  # two-codeword repetition code


def test_exact_budget_and_zero_code():
    with pytest.raises(ValueError, match="budget"):
        exact_min_distance(_code(2, 7, (1,)))  # k = 64
    zero = from_defining_set(DefiningSet.full(7))
    with pytest.raises(ValueError, match="zero code"):
        exact_min_distance(zero)


def test_exact_witness_is_codeword():
    c = _code(4, 5, (0, 3))
    found = exact_min_distance(c)
    assert c.contains(found.witness)


def test_acceptance_triplet_m5():
    c = _code(2, 5, (1,))
    assert exact_min_distance(c).lower == 7
    d = dual(c)
    assert (d.n, d.k) == (31, 15)
    assert exact_min_distance(d).lower == 8
    e = extend(c)
    assert (e.n, e.k) == (32, 16)
    found = exact_min_distance(e)
    assert found.lower == 8
    assert found.min_odd_weight is None  # extension kills odd weights


def _is_even(wd):
    return not any(wd.counts[1::2])


def test_weight_distribution_examples():
    e = extend(_code(2, 3, (1,)))
    wd = weight_distribution(e)
    assert wd.counts == (1, 0, 0, 0, 14, 0, 0, 0, 1)
    assert wd.is_doubly_even and _is_even(wd)

    full = from_defining_set(DefiningSet(7, 0))
    wd = weight_distribution(full)
    assert wd.counts == tuple(math.comb(7, w) for w in range(8))
    assert not _is_even(wd)

    d = dual(_code(2, 5, (1,)))  # even-like [31,15]
    wd = weight_distribution(d)
    assert _is_even(wd)
    assert sum(wd.counts) == 1 << 15 and wd.counts[0] == 1


def test_distribution_consistency_with_exact():
    c = _code(4, 5, (1, 3))
    wd = weight_distribution(c)
    found = exact_min_distance(c)
    assert wd.counts[0] == 1
    assert min(w for w in range(1, 32) if wd.counts[w]) == found.lower
    odd = [w for w in range(1, 32, 2) if wd.counts[w]]
    assert (min(odd) if odd else None) == found.min_odd_weight


@pytest.mark.parametrize("m", [3, 5])
def test_duadic_pair_has_equal_distance(m):
    for r in (2, 4, 8):
        for s in enumerate_catalog(r, m % r):
            spec = WeightClassSpec(r=r, m=m, S=s)
            d1 = exact_min_distance(_code(r, m, s)).lower
            d2 = exact_min_distance(_code(r, m, complement_spec(spec).S)).lower
            assert d1 == d2, (r, m, s)


def test_dual_distance_is_min_even_weight():
    c = _code(2, 5, (1,))
    d = dual(c)
    wd = weight_distribution(c)
    min_even = min(w for w in range(2, 32, 2) if wd.counts[w])
    assert exact_min_distance(d).lower == min_even
    assert exact_min_distance(d).lower >= exact_min_distance(c).lower


def test_bounded_effort_zero_reports_generator_weight():
    c = _code(2, 7, (1,))
    found = bounded_min_distance(c, effort=0)
    assert found.method == "bch+information-set"
    assert found.lower == 9  # certified: m = 3 (mod 4)
    assert found.upper == c.g.bit_count()
    assert found.witness == c.g


def test_bounded_search_is_deterministic_and_sound():
    c = _code(2, 7, (1,))
    a = bounded_min_distance(c, effort=20, seed=7)
    b = bounded_min_distance(c, effort=20, seed=7)
    assert (a.lower, a.upper, a.witness) == (b.lower, b.upper, b.witness)
    assert a.lower == 9 and a.upper >= a.lower
    assert c.contains(a.witness)
    assert a.seed == 7 and a.effort == 20
    better = bounded_min_distance(c, effort=40, seed=1)
    assert better.upper <= c.g.bit_count()


def test_bounded_search_memory_admission():
    c = _code(2, 7, (1,))  # rows plus bool matrix: 64 * 16 + 64 * 127 = 9152 bytes
    with mock.patch.object(mindist, "ISD_MEMORY_BUDGET", 9151):
        with pytest.raises(ValueError, match="budget"):
            bounded_min_distance(c, effort=1)
        assert bounded_min_distance(c, effort=0).upper == c.g.bit_count()
    with mock.patch.object(mindist, "ISD_MEMORY_BUDGET", 9152):
        assert bounded_min_distance(c, effort=1).upper < c.g.bit_count()


def test_bounded_negative_effort_is_refused_before_any_work():
    c = _code(2, 7, (1,))
    with mock.patch.object(mindist, "ISD_MEMORY_BUDGET", 0), \
            mock.patch.object(type(c), "generator_row", side_effect=AssertionError("a generator row was read")):
        for effort in (-1, -3):
            with pytest.raises(ValueError, match=f"effort must be a non-negative integer, got {effort}"):
                bounded_min_distance(c, effort=effort)


def test_bounded_on_extended_rounds_lower_to_even():
    e = extend(_code(2, 7, (1,)))
    found = bounded_min_distance(e, effort=5, seed=3)
    assert found.lower == 10  # 9 rounded up: extended weights are even
    assert e.contains(found.witness)


def test_bounded_agrees_with_exact_at_small_k():
    for r, m, s in ((2, 5, (1,)), (4, 5, (0, 3)), (8, 9, (0, 2, 3, 4))):
        c = _code(r, m, s)
        if c.k > 24:
            continue
        exact = exact_min_distance(c).lower
        boxed = bounded_min_distance(c, effort=30, seed=0)
        assert boxed.lower <= exact <= boxed.upper


def test_certified_bound_validation():
    with pytest.raises(ValueError):
        CertifiedBound(lower=3, upper=2, exact=False, witness=0b11, method="x")
    with pytest.raises(ValueError):
        CertifiedBound(lower=1, upper=2, exact=False, witness=0b111, method="x")
