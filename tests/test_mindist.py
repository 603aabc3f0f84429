import math
from dataclasses import dataclass
from functools import reduce
from itertools import combinations, islice
from operator import xor
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from duadic import cli, mindist
from duadic._bits import from_bool, to_bool
from duadic.bounds import BchCertificate
from duadic.code import dual, extend, from_defining_set
from duadic.cyclotomic import DefiningSet, WeightClassSpec, defining_set
from duadic.mindist import (
    CertifiedBound,
    bounded_min_distance,
    exact_min_distance,
    weight_distribution,
)
from duadic.pairs import enumerate_catalog

from _oracles import complement_spec, generator_rows, rank, row_reduce


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

    def generator_row(self, i):
        return self.rows[i]


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
    d, witness, min_odd, counts = _gray_scan(tuple(generator_rows(c)), c.n)
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


@pytest.mark.parametrize("low_bits, block_bits, max_low_bits, width", [
    (12, 16, 20, 13),  # the constants: n > 2^LOW_BITS, so a row takes the 13 bits of n
    (4, 6, 20, 13),
    (16, 20, 20, 14),  # a = k, one transform row
    (12, 16, 12, 12),  # the cap holds a below the bits of n
    (4, 8, 6, 6),
])
def test_transform_width_follows_n(low_bits, block_bits, max_low_bits, width):
    c = _code(12, 13, tuple(range(1, 12)), unchecked=True)  # [8191, 14]: W_0 is the 13 words of weight 12
    assert (c.n, c.k) == (8191, 14)
    d, witness, min_odd, counts = _gray_scan(tuple(generator_rows(c)), c.n)
    with mock.patch.object(mindist, "MAX_LOW_BITS", max_low_bits), \
            mock.patch.object(mindist, "_wht", wraps=mindist._wht) as wht:
        blocks, found, wd = _results(c, low_bits, block_bits)
    assert {call.args[0].shape[1] * call.args[0].shape[2] for call in wht.call_args_list} == {1 << width}
    assert 3 * blocks == wht.call_count  # counted, then exact_min_distance and weight_distribution
    assert found == (d, witness, min_odd) and list(wd.counts) == counts


@pytest.mark.parametrize("r, m, S, shape", [
    (12, 11, (0, 2, 3, 4, 5, 6, 7, 8, 9, 11), (16, 64, 64)),  # the k = 23 distance code, [2047, 23]
    (16, 17, tuple(range(1, 16)), (1, 512, 256)),  # the [131071, 18] golden code: one row of 2^17 entries
    (2, 5, (1,), (16, 64, 64)),  # [31, 16]
])
def test_blocks_hold_at_most_block_bits_signs_or_one_row(r, m, S, shape):
    c = _code(r, m, S, unchecked=True)
    with mock.patch.object(mindist, "_wht", wraps=mindist._wht) as wht:
        blocks = sum(1 for _ in mindist._weight_blocks(c))
    shapes = {call.args[0].shape for call in wht.call_args_list}
    assert shapes == {shape} and wht.call_count == blocks
    rows, width = shape[0], shape[1] * shape[2]
    # the n column signs of a row fit in its 2^a entries, so a block also holds at most 2^BLOCK_BITS of them
    assert c.n <= width and (rows * width <= 1 << mindist.BLOCK_BITS or rows == 1)


def test_determinism_across_transform_blockings():
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


@pytest.mark.parametrize("extended, dtype, d", [(False, np.int16, 8191), (True, np.int32, 8192)], ids=["n16383", "n16384"])
def test_transform_dtype_boundary(extended, dtype, d):
    # S = Z_40 \ {1} at m = 14 leaves only the weight-1 class W_1 and 0 out of T: k = 15. The transform
    # runs in int16 while 2n < 2^15, so n = 16383 is the last length in int16 and n = 16384 the first in int32.
    c = _code(40, 14, tuple(x for x in range(40) if x != 1), unchecked=True)
    c = extend(c) if extended else c
    assert c.k == 15
    assert {weights.dtype for _, weights in mindist._weight_blocks(c)} == {np.dtype(dtype)}
    best_w, best_word, best_odd, counts = _gray_scan(tuple(generator_rows(c)), c.n)
    found = exact_min_distance(c)
    assert (found.lower, found.witness, found.min_odd_weight) == (best_w, best_word, best_odd)
    assert best_w == d
    assert list(weight_distribution(c).counts) == counts


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


def _packed(rows, bits):
    """Rows of at most `bits` bits as the search's (W, k) uint64 array, row i in column i."""
    words = max(1, -(-bits // 64))
    packed = np.frombuffer(b"".join(row.to_bytes(8 * words, "little") for row in rows), dtype="<u8")
    return np.ascontiguousarray(packed.reshape(len(rows), words).T)


def _scan_reduced(reduced):
    """The library scan on rows in reduced echelon form, given their bits off
    the pivots (each row's leading bit); the xor of the chosen rows."""
    pivots = {row.bit_length() - 1 for row in reduced}
    rest = [j for j in range(max(pivots)) if j not in pivots]
    parts = [sum(((row >> j) & 1) << s for s, j in enumerate(rest)) for row in reduced]
    return reduce(xor, (reduced[i] for i in mindist._light_messages_best(_packed(parts, len(rest)))))


@st.composite
def _systematic_rows(draw):
    """At most 32 rows [e_i | R_i]: row i has its own pivot bit n_r + i above
    a part R_i of n_r <= 150 bits. Planted combinations of p = 1, 2 or 3
    rows xor to a part of weight total - p, so light combinations of
    different stages tie on full weight (p pivot bits plus the part); zero
    and repeated parts come from planted weights of 0."""
    k = draw(st.integers(1, 32))
    n_r = draw(st.integers(1, 150))
    parts = draw(st.lists(st.integers(0, (1 << n_r) - 1), min_size=k, max_size=k))
    total = draw(st.integers(1, 4))
    for combo in draw(st.lists(st.sets(st.integers(0, k - 1), min_size=1, max_size=3), max_size=4)):
        *others, last = sorted(combo)
        weight = min(max(total - len(combo), 0), n_r)
        light = draw(st.sets(st.integers(0, n_r - 1), min_size=weight, max_size=weight))
        parts[last] = reduce(xor, (parts[i] for i in others), sum(1 << b for b in light))
    return [part | 1 << (n_r + i) for i, part in enumerate(parts)]


@settings(max_examples=150, deadline=None)
@given(_systematic_rows(), st.integers(1, 64) | st.just(1 << 13))
def test_light_messages_match_reference(rows, block_words):
    # the scan reads only the parts below the pivots, and counts one pivot bit per row taken
    with mock.patch.object(mindist, "PAIR_BLOCK_WORDS", block_words):
        assert _scan_reduced(rows) == _light_messages_reference(rows)


@pytest.mark.parametrize("r, m, S", [(2, 3, (1,)), (2, 5, (1,)), (2, 7, (1,))])
def test_light_messages_match_reference_on_search_trials(r, m, S):
    c = _code(r, m, S)
    for perm in islice(mindist._permutations(5, c.n), 3):
        permuted = [sum(((row >> int(p)) & 1) << j for j, p in enumerate(perm)) for row in generator_rows(c)]
        reduced, _ = row_reduce(permuted)
        assert _scan_reduced(reduced) == _light_messages_reference(reduced)


def _reference_search(c, seed, efforts, scan):
    """The per-trial search on Python-int rows: per trial the next
    permutation of the search's own seeded stream, `row_reduce` and `scan`
    over the reduced rows, a strictly lighter word replacing the best, and
    a stop once the best reaches the lower bound. Returns, for each effort, the
    (upper, witness, trials scanned) the search of that effort ends with."""
    lower = bounded_min_distance(c, effort=0).lower
    best = c.generator_row(0)
    states = [(best.bit_count(), best, 0)]
    stream = mindist._permutations(seed, c.n)
    for trial in range(1, max(efforts) + 1):
        if best.bit_count() <= lower:
            break
        perm = next(stream)
        bits = np.stack([to_bool(row, c.n)[perm] for row in generator_rows(c)])
        found = scan(row_reduce(from_bool(row) for row in bits)[0])
        word = from_bool(to_bool(found, c.n)[np.argsort(perm)])
        if word.bit_count() < best.bit_count():
            best = word
        states.append((best.bit_count(), best, trial))
    return {effort: states[min(effort, len(states) - 1)] for effort in efforts}


def _search_trials(c, effort, seed):
    calls = []
    scan = mindist._light_messages_best

    def counted(*args):
        calls.append(1)
        return scan(*args)

    with mock.patch.object(mindist, "_light_messages_best", counted):
        found = bounded_min_distance(c, effort=effort, seed=seed)
    return found.upper, found.witness, len(calls)


# B is the number of trials row-reduced together at the default PAIR_BLOCK_WORDS; every case takes the
# efforts B - 1, B and B + 1. At k >= 64 the library scan on the oracle's reduced rows, which the tests
# above hold to the Python-loop reference, stands in for that loop: it takes about 15 ms a trial at k = 64.
@pytest.mark.parametrize("r, m, S, extended, seeds, efforts, scan", [
    (2, 3, (1,), False, (1, 2), (1, 1169, 1170, 1171), _light_messages_reference),
    (2, 5, (1,), False, (1, 2, 3), (1, 263, 264, 265), _light_messages_reference),
    (4, 5, (0, 3), False, (3,), (1, 263, 264, 265), _light_messages_reference),
    (2, 7, (1,), False, (1, 2), (1, 63, 64, 65, 200), _scan_reduced),
    (2, 7, (1,), True, (3,), (1, 63, 64, 65, 200), _scan_reduced),
    (4, 6, (1, 2), True, (0, 1), (1, 2, 127, 128, 129), _light_messages_reference),
    (8, 9, (0, 2, 3, 4), False, (1, 2), (1, 3, 4, 5), _scan_reduced),
], ids=["m3", "m5", "m5-r4", "m7", "m7-extended", "m6-extended", "m9"])
def test_batched_search_equals_the_per_trial_reference(r, m, S, extended, seeds, efforts, scan):
    c = _code(r, m, S, unchecked=m % 2 == 0)
    c = extend(c) if extended else c
    batch = max(1, mindist.PAIR_BLOCK_WORDS // (c.n * -(-c.k // 64)))
    assert {batch - 1, batch, batch + 1} <= set(efforts)
    for seed in seeds:
        expected = _reference_search(c, seed, efforts, scan)
        for effort in efforts:
            assert _search_trials(c, effort, seed) == expected[effort], (seed, effort)


# (lower, upper, witness) as found by the Python-loop scan
_M9_WITNESS = int(
    "4289100804000300008018340d00440110080200020c40c51810080850a0104c"
    "8021000a00000408c00504020cc1300c8d0040050019200901502080800a4080", 16)
# row-reduced in three batches of 4, 4 and 2 trials
_M9_EFFORT10_WITNESS = int(
    "410000008040400200218035000540040248140080c1d00244c0500020104000"
    "145800880a20804c0004000000502e05108801c0110040a1002409182a828008", 16)


@pytest.mark.parametrize("r, m, S, extended, effort, seed, lower, upper, witness", [
    (2, 7, (1,), False, 20, 7, 9, 19, 0x400401010200081C2A0000000400687),
    (2, 7, (1,), False, 200, 1, 9, 19, 0x4200020081000851044200484420C00),
    (8, 9, (0, 2, 3, 4), False, 1, 1, 19, 91, _M9_WITNESS),
    (8, 9, (0, 2, 3, 4), False, 10, 1, 19, 87, _M9_EFFORT10_WITNESS),
    (2, 7, (1,), True, 5, 3, 10, 20, 0x260010AA101800900880020820A),
], ids=["m7-effort20-seed7", "m7-effort200-seed1", "m9-effort1-seed1", "m9-effort10-seed1", "m7-extended-effort5-seed3"])
def test_bounded_search_golden(r, m, S, extended, effort, seed, lower, upper, witness):
    c = _code(r, m, S)
    if extended:
        c = extend(c)
    found = bounded_min_distance(c, effort=effort, seed=seed)
    assert (found.lower, found.upper, found.witness) == (lower, upper, witness)
    assert c.contains(witness) and witness.bit_count() == upper


def test_batched_search_stops_inside_a_batch():
    # [64, 36], 128 trials per batch: seed 2 reaches the BCH bound 8 at the second trial and scans no third
    c = extend(_code(4, 6, (1, 2), unchecked=True))
    assert bounded_min_distance(c, effort=0).lower == 8
    for effort in (2, 3, 128, 129):
        upper, witness, trials = _search_trials(c, effort, 2)
        assert (upper, trials) == (8, 2) and c.contains(witness)
    assert _search_trials(c, 1, 2)[0] > 8


def test_permutations_are_one_seeded_stream():
    # the stable argsort of the little-endian 64-bit words of random.Random(seed).getrandbits(64 n)
    for seed, first in [(1, [2, 3, 7, 6, 5, 8, 0, 4, 1, 9]), (2**70 + 3, [3, 8, 6, 5, 0, 7, 4, 9, 2, 1])]:
        assert next(mindist._permutations(seed, 10)).tolist() == first
    assert next(mindist._permutations(np.int64(1), 10)).tolist() == [2, 3, 7, 6, 5, 8, 0, 4, 1, 9]
    for n in (1, 7, 127, 2048):
        perms = [p.tolist() for p in islice(mindist._permutations(3, n), 4)]
        assert all(sorted(p) == list(range(n)) for p in perms)
        assert [p.tolist() for p in islice(mindist._permutations(3, n), 4)] == perms
    assert len({tuple(next(mindist._permutations(seed, 127)).tolist()) for seed in range(20)}) == 20


@pytest.mark.parametrize("seed", [-1, 1.5, 1.0, "1", None])
def test_search_refuses_a_seed_that_is_not_a_non_negative_integer(seed):
    # random.Random would take |seed| or hash the value
    with pytest.raises(ValueError, match="seed must be a non-negative integer"):
        bounded_min_distance(_code(2, 7, (1,)), effort=1, seed=seed)


def test_search_reaches_weight_19_at_m7_at_every_seed():
    c = _code(2, 7, (1,))  # [127, 64]
    assert max(bounded_min_distance(c, effort=16, seed=seed).upper for seed in range(20)) <= 19


@pytest.mark.parametrize("r, m", [(2, 3), (2, 5), (4, 3), (4, 5)])
def test_one_trial_reaches_the_transform_distance(r, m):
    # every catalog code and its extension, k = 4 or 16, at seeds 0-19
    for s in enumerate_catalog(r, m % r):
        for c in (_code(r, m, s), extend(_code(r, m, s))):
            d = exact_min_distance(c).lower
            assert {bounded_min_distance(c, effort=1, seed=seed).upper for seed in range(20)} == {d}, (s, c.n)


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
    # 8-byte words: rows 64 * 2, columns 127 and a batch of 64 permuted copies of them, redundancy rows 64
    c = _code(2, 7, (1,))
    assert 8 * (64 * 2 + (1 + 64) * 127 + 64) == 67576
    with mock.patch.object(mindist, "ISD_MEMORY_BUDGET", 67575):
        with pytest.raises(ValueError, match="budget"):
            bounded_min_distance(c, effort=1)
        assert bounded_min_distance(c, effort=0).upper == c.g.bit_count()
    with mock.patch.object(mindist, "ISD_MEMORY_BUDGET", 67576):
        assert bounded_min_distance(c, effort=1).upper < c.g.bit_count()


def test_bounded_negative_effort_is_refused_before_any_work():
    c = _code(2, 7, (1,))
    with mock.patch.object(mindist, "ISD_MEMORY_BUDGET", 0), \
            mock.patch.object(type(c), "generator_row", side_effect=AssertionError("a generator row was read")):
        for effort in (-1, -3):
            with pytest.raises(ValueError, match=f"effort must be a non-negative integer, got {effort}"):
                bounded_min_distance(c, effort=effort)


@pytest.mark.parametrize("effort", [1.5, 2.0, "3", None])
def test_bounded_non_integer_effort_is_refused_before_any_work(effort):
    # refused up front, not as a TypeError inside the trial loop's range
    c = _code(2, 7, (1,))
    with mock.patch.object(type(c), "generator_row", side_effect=AssertionError("a generator row was read")):
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
        CertifiedBound(lower=3, upper=2, witness=0b11, method="x")
    with pytest.raises(ValueError):
        CertifiedBound(lower=1, upper=2, witness=0b111, method="x")
    # exactness is read off the interval, never stored beside it
    assert not CertifiedBound(lower=2, upper=3, witness=0b111, method="x").exact
    assert CertifiedBound(lower=3, upper=3, witness=0b111, method="x").exact


_MINDIST_ARGV = ["mindist", "-r", "2", "-m", "7", "-S", "1", "--seed", "1"]  # [127, 64]: searched, not enumerated


def test_witness_membership_guard_trips_on_a_permuted_support(monkeypatch):
    # each trial's support is read through a permutation rotated by one, so the word it
    # builds is not a codeword, while its weight is the true word's and beats wt(g)
    real = mindist._reduced_trials

    def rotated(*args):
        for perm, pivots, rest, parts in real(*args):
            yield np.roll(perm, 1), pivots, rest, parts

    monkeypatch.setattr(mindist, "_reduced_trials", rotated)
    message = "information-set witness failed codeword verification"
    with pytest.raises(AssertionError, match=message):
        bounded_min_distance(_code(2, 7, (1,)), effort=3, seed=1)
    with pytest.raises(AssertionError, match=message):
        cli.main([*_MINDIST_ARGV, "--effort", "3"])  # raises out of main: the process exits 1


def test_below_bch_guard_trips_on_a_certificate_above_the_generator_weight(monkeypatch):
    # at effort 0 the witness is g itself; a certificate claiming d >= wt(g) + 1 contradicts it
    c = _code(2, 7, (1,))
    real = mindist.best_certificate

    def overclaimed(*args):
        cert = real(*args)
        return BchCertificate(v=cert.v, start=cert.start, run_length=cert.run_length, d_lower=c.g.bit_count() + 1,
                              gamma_exponent=cert.gamma_exponent)

    monkeypatch.setattr(mindist, "best_certificate", overclaimed)
    message = "found a codeword below the BCH lower bound"
    with pytest.raises(AssertionError, match=message):
        bounded_min_distance(c, effort=0)
    with pytest.raises(AssertionError, match=message):
        cli.main([*_MINDIST_ARGV, "--effort", "0"])  # raises out of main: the process exits 1
