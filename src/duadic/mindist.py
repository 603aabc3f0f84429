"""Exact and bounded minimum-distance computation.

Exact distances and weight distributions come from a Walsh-Hadamard
transform of the generator columns over the whole message space (O(k 2^k)
additions), budgeted at k <= 24. Above the budget, a BCH certificate
supplies the lower bound and a seeded information-set search supplies the
upper bound.
"""

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from ._bits import from_bool, to_bool
from .bounds import best_certificate
from .code import ExtendedCode, row_reduce

ENUM_BUDGET_K = 24
LOW_BITS = 12  # message bits per transform row
BLOCK_BITS = 16  # at most 2^16 messages per block


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
    def is_even(self):
        return all(c == 0 for w, c in enumerate(self.counts) if w % 2)

    @property
    def is_doubly_even(self):
        return all(c == 0 for w, c in enumerate(self.counts) if w % 4)

    def to_json(self):
        return {"n": self.n, "k": self.k, "counts": list(self.counts),
                "even": self.is_even, "doubly_even": self.is_doubly_even}


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


def _permute_columns(rows, perm, n):
    mat = np.vstack([to_bool(row, n) for row in rows])
    mat = mat[:, perm]
    return [from_bool(mat[i]) for i in range(mat.shape[0])]


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
    at most 3. Deterministic for a fixed seed; effort 0 reports the
    generator row itself as the upper witness.
    """
    base = c.base if isinstance(c, ExtendedCode) else c
    cert = best_certificate(base.T, v_candidates)
    lower = cert.d_lower
    if isinstance(c, ExtendedCode):
        lower += lower & 1  # extended weights are even

    rows = c.generator_rows()
    n, k = c.n, c.k
    best_word = rows[0]
    best_w = best_word.bit_count()
    rng = np.random.default_rng(seed)
    for _ in range(effort):
        if best_w <= lower:
            break
        perm = rng.permutation(n)
        reduced, _ = row_reduce(_permute_columns(rows, perm, n))
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
    """Lightest combination of at most 3 reduced rows, deterministic order."""
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
