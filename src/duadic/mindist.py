"""Exact and bounded minimum-distance computation.

Exact distances and weight distributions come from a Walsh-Hadamard
transform of the generator columns over the whole message space (O(k 2^k)
additions), budgeted at k <= 24. Above the budget, a BCH certificate
supplies the lower bound and a seeded information-set search (Lee-Brickell,
messages of weight <= 3, bit-packed numpy rows) supplies the upper bound.
"""

from dataclasses import dataclass
from functools import reduce
from operator import xor

from ._bits import to_bool
from ._numpy import np
from .bounds import best_certificate
from .code import ExtendedCode, row_reduce

ENUM_BUDGET_K = 24
LOW_BITS = 12  # message bits per transform row
BLOCK_BITS = 16  # at most 2^16 messages per block
PAIR_BLOCK_WORDS = 1 << 13  # uint64 words (64 KB) per block of row pairs in the search
ISD_MEMORY_BUDGET = 1 << 30  # bytes: generator rows plus their k x n bool matrix


@dataclass(frozen=True)
class CertifiedBound:
    """Minimum-distance interval [lower, upper] with its evidence.

    witness is a verified codeword of weight upper; exact means the interval
    collapsed. min_odd_weight is reported by full enumeration only (None when
    the code has no odd-weight codeword).
    """

    lower: int
    upper: int
    exact: bool
    witness: int
    method: str
    min_odd_weight: int | None = None
    seed: int | None = None
    effort: int | None = None

    def __post_init__(self):
        if not 1 <= self.lower <= self.upper:
            raise ValueError(f"invalid bound interval [{self.lower}, {self.upper}]")
        if self.witness.bit_count() != self.upper:
            raise ValueError("witness weight does not match the upper bound")

    def to_json(self):
        return {
            "lower": self.lower,
            "upper": self.upper,
            "exact": self.exact,
            "method": self.method,
            "witness_hex": f"{self.witness:#x}",
            "min_odd_weight": self.min_odd_weight,
            "seed": self.seed,
            "effort": self.effort,
        }


@dataclass(frozen=True)
class WeightDistribution:
    """Counts A_w of codewords of each weight w = 0..n."""

    n: int
    k: int
    counts: tuple

    @property
    def is_doubly_even(self):
        return all(c == 0 for w, c in enumerate(self.counts) if w % 4)


def _encode(rows, message):
    word = 0
    while message:
        low = message & -message
        word ^= rows[low.bit_length() - 1]
        message ^= low
    return word


def _wht(v):
    """Walsh-Hadamard transform of v (rows, A, B) over its last two axes.
    Butterflies run along the middle axis, then again after a transposing
    copy, so every pass streams contiguous runs of at least A or B entries."""
    for _ in range(2):
        rows, size, inner = v.shape
        h = 1
        while h < size:
            pairs = v.reshape(rows, size // (2 * h), 2, h * inner)
            u, w = pairs[:, :, 0], pairs[:, :, 1]
            u += w
            w *= -2
            w += u  # (u + w, u - w)
            h *= 2
        v = np.ascontiguousarray(v.transpose(0, 2, 1))
    return v


def _weight_blocks(c):
    """Yield (first message, weights of the next messages in order) over all
    2^k messages: wt(mG) = (n - sum_j (-1)^<m, col_j>) / 2 over the columns.

    Messages m = (m_h << a) | l and columns split into a = min(k, LOW_BITS)
    low bits and k - a high bits. Row m_h of a block gets V[l'] = sum over the
    columns with low part l' of (-1)^popcount(m_h & high part), and the
    transform of V gives the column sum for every l.
    """
    n, k = c.n, c.k
    if k < 1:
        raise ValueError("the zero code has no nonzero codeword")
    if k > ENUM_BUDGET_K:
        raise ValueError(f"k={k} exceeds the 2^{ENUM_BUDGET_K} enumeration budget; use bounded_min_distance")
    a = min(k, LOW_BITS)
    cols = sum(to_bool(row, n).astype(np.int64) << i for i, row in enumerate(c.generator_rows()))
    lo, hi = cols & ((1 << a) - 1), cols >> a
    # a power of two of rows, so at most 2^BLOCK_BITS signs unless one row has more
    rows = 1 << max(0, min(k - a, BLOCK_BITS - a, ((1 << BLOCK_BITS) // n).bit_length() - 1))
    index = ((np.arange(rows)[:, None] << a) | lo).ravel()
    for first in range(0, 1 << (k - a), rows):
        m_h = np.arange(first, first + rows)[:, None]
        v = np.zeros(rows << a, dtype=np.int32)
        np.add.at(v, index, 1 - 2 * (np.bitwise_count(m_h & hi) & 1).astype(np.int32).ravel())
        v = _wht(v.reshape(rows, 1 << (a - a // 2), 1 << (a // 2)))
        yield first << a, (n - v.reshape(-1)) >> 1


def exact_min_distance(c):
    """Exact minimum distance by a transform over the full message space
    (k <= 24). The witness is the first minimum-weight codeword in Gray-code
    order: among the lightest messages, the one of smallest Gray rank."""
    counts = np.zeros(c.n + 1, dtype=np.int64)
    best = (c.n + 1, 0)  # (weight, Gray rank), heavier than any codeword
    for first, weights in _weight_blocks(c):
        counts += np.bincount(weights, minlength=c.n + 1)
        if first == 0:
            weights[0] = c.n + 1  # message 0
        w = int(weights.min())
        if w <= best[0]:
            rank = first + np.flatnonzero(weights == w)
            for shift in (1, 2, 4, 8, 16):  # inverse Gray code: prefix xor of the k <= 24 bits
                rank ^= rank >> shift
            best = min(best, (w, int(rank.min())))
    d, rank = best
    return CertifiedBound(
        lower=d, upper=d, exact=True, witness=_encode(c.generator_rows(), rank ^ (rank >> 1)),
        method="enumeration", min_odd_weight=next((w for w in range(1, c.n + 1, 2) if counts[w]), None),
    )


def weight_distribution(c):
    """Full weight distribution by a transform over the message space (k <= 24)."""
    counts = sum(np.bincount(weights, minlength=c.n + 1) for _, weights in _weight_blocks(c))
    return WeightDistribution(n=c.n, k=c.k, counts=tuple(int(x) for x in counts))


def _permuted_rows(mat, perm):
    """The rows of mat[:, perm] as ints, permuting about 1 MB of mat at a time."""
    step = max(1, (1 << 20) // mat.shape[1])
    return [int.from_bytes(row.tobytes(), "little")
            for first in range(0, len(mat), step)
            for row in np.packbits(mat[first:first + step, perm], axis=1, bitorder="little")]


def _unpermute(word, perm):
    out = 0
    while word:
        low = word & -word
        out |= 1 << int(perm[low.bit_length() - 1])
        word ^= low
    return out


def bounded_min_distance(c, effort, seed=0, v_candidates=None):
    """BCH lower bound plus a randomized information-set upper bound.

    Each of the `effort` trials permutes the columns, row-reduces to a
    systematic form, and scans all codewords built from messages of weight
    at most 3. Deterministic for a fixed seed; effort 0 reports the first
    generator row itself as the upper witness and reads no other row.
    Raises ValueError for a negative effort, and before allocating when the
    k x n search matrix and its rows would exceed ISD_MEMORY_BUDGET bytes.
    """
    if effort < 0:
        raise ValueError(f"effort must be a non-negative integer, got {effort}")
    n, k = c.n, c.k
    need = k * ((n + 7) // 8) + k * n
    if effort and need > ISD_MEMORY_BUDGET:
        raise ValueError(f"information-set search on a [{n},{k}] code needs about {need >> 20} MiB, "
                         f"over the {ISD_MEMORY_BUDGET >> 20} MiB budget; effort 0 needs only one row")
    base = c.base if isinstance(c, ExtendedCode) else c
    cert = best_certificate(base.T, v_candidates)
    lower = cert.d_lower
    if isinstance(c, ExtendedCode):
        lower += lower & 1  # extended weights are even

    best_word = c.generator_row(0)
    best_w = best_word.bit_count()
    if effort:
        mat = np.empty((k, n), dtype=bool)
        for i in range(k):
            mat[i] = to_bool(c.generator_row(i), n)
    rng = np.random.default_rng(seed)
    for _ in range(effort):
        if best_w <= lower:
            break
        perm = rng.permutation(n)
        reduced, _ = row_reduce(_permuted_rows(mat, perm))
        found = _light_messages_best(reduced)
        if found is not None and found.bit_count() < best_w:
            best_word = _unpermute(found, perm)
            best_w = best_word.bit_count()
    if not c.contains(best_word):
        raise AssertionError("information-set witness failed codeword verification")
    if best_w < lower:
        raise AssertionError("found a codeword below the BCH lower bound")
    return CertifiedBound(
        lower=lower, upper=best_w, exact=lower == best_w,
        witness=best_word, method="bch+information-set", seed=seed, effort=effort,
    )


def _light_messages_best(reduced):
    """Lightest combination of at most 3 reduced rows: the first lightest
    word in the order rows, pairs, triples, each in combinations order.

    Rows are packed word-major into a (W, k) uint64 array. A block is a
    range of pair positions in combinations order, at most PAIR_BLOCK_WORDS
    words (or one pair); each pair (j, l) is read off its position and the
    block is one gather-xor of rows j and l. For each i, the triples
    (i, j, l) with j > i are a suffix of the block and take one xor against
    row i. The best candidate is the minimum (weight, stage, combination),
    stage 1/2/3 for rows/pairs/triples.
    """
    k = len(reduced)
    if not k:
        return None
    words = max(1, -(-max(row.bit_length() for row in reduced) // 64))
    rows = np.frombuffer(b"".join(row.to_bytes(8 * words, "little") for row in reduced), dtype="<u8")
    rows = np.ascontiguousarray(rows.reshape(k, words).T)
    size = max(1, PAIR_BLOCK_WORDS // words)
    pairs, triples = np.empty((words, size), dtype=rows.dtype), np.empty((words, size), dtype=rows.dtype)
    counts = np.empty((words, max(size, k)), dtype=np.uint8)
    weights = np.empty(max(size, k), dtype=np.min_scalar_type(64 * words))

    def lightest(block):
        """(weight, index) of the first lightest column of block."""
        cols = block.shape[1]
        np.bitwise_count(block, out=counts[:, :cols])
        np.add.reduce(counts[:, :cols], axis=0, out=weights[:cols])
        p = int(weights[:cols].argmin())
        return int(weights[p]), p

    w, i = lightest(rows)
    best = (w, 1, (i,))
    run_start = np.cumsum([0, *range(k - 1, 0, -1)])  # position of pair (j, j + 1)
    total = int(run_start[-1])
    for first in range(0, total, size):
        q = np.arange(first, min(first + size, total))
        j = np.searchsorted(run_start, q, "right") - 1
        l = q - run_start[j] + j + 1
        block = pairs[:, :len(q)]
        np.take(rows, j, axis=1, out=block)
        np.bitwise_xor(block, np.take(rows, l, axis=1, out=triples[:, :len(q)]), out=block)
        w, p = lightest(block)
        best = min(best, (w, 2, (int(j[p]), int(l[p]))))
        for i, s in enumerate(np.searchsorted(j, np.arange(j[-1]), "right").tolist()):  # the pairs with j > i
            out = triples[:, s:len(q)]
            np.bitwise_xor(block[:, s:], rows[:, i:i + 1], out=out)
            w, p = lightest(out)
            if w <= best[0]:
                best = min(best, (w, 3, (i, int(j[s + p]), int(l[s + p]))))
    return reduce(xor, (reduced[i] for i in best[2]))
