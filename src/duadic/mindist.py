"""Exact and bounded minimum-distance computation.

Exact distances and weight distributions come from Gray-code enumeration of
the full message space (one row-xor per codeword), budgeted at k <= 24.
Above the budget, a BCH certificate supplies the lower bound and a seeded
information-set search supplies the upper bound.
"""

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from ._bits import from_bool, to_bool
from .bounds import best_certificate
from .code import ExtendedCode, row_reduce

ENUM_BUDGET_K = 24


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


def _scan_range(rows, lo, hi):
    """Min weight (with first message index and witness) and min odd weight
    over the Gray-ordered messages lo..hi-1; message 0 is skipped."""
    cur = _encode(rows, lo ^ (lo >> 1))
    best_w = best_i = None
    best_word = 0
    best_odd = None
    for i in range(lo, hi):
        if i != lo:
            cur ^= rows[(i & -i).bit_length() - 1]
        if i == 0:
            continue
        w = cur.bit_count()
        if best_w is None or w < best_w:
            best_w, best_i, best_word = w, i, cur
        if w & 1 and (best_odd is None or w < best_odd):
            best_odd = w
    return best_w, best_i, best_word, best_odd


def _count_range(rows, lo, hi, n):
    counts = [0] * (n + 1)
    cur = _encode(rows, lo ^ (lo >> 1))
    for i in range(lo, hi):
        if i != lo:
            cur ^= rows[(i & -i).bit_length() - 1]
        counts[cur.bit_count()] += 1
    return counts


def _partitions(total, parts):
    step = -(-total // parts)
    return [(lo, min(lo + step, total)) for lo in range(0, total, step)]


def _run_partitioned(fn, rows, total, workers, extra=()):
    parts = _partitions(total, max(1, workers))
    args = [(rows, lo, hi, *extra) for lo, hi in parts]
    if workers > 1 and len(parts) > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(fn, *zip(*args)))
    return [fn(*a) for a in args]


def _check_budget(c):
    if c.k < 1:
        raise ValueError("the zero code has no nonzero codeword")
    if c.k > ENUM_BUDGET_K:
        raise ValueError(
            f"k={c.k} exceeds the 2^{ENUM_BUDGET_K} enumeration budget; use bounded_min_distance"
        )


def exact_min_distance(c, workers=1):
    """Exact minimum distance by full message-space enumeration (k <= 24),
    split over `workers` processes."""
    _check_budget(c)
    rows = tuple(c.generator_rows())
    results = _run_partitioned(_scan_range, rows, 1 << c.k, workers)
    best_w, best_i, best_word = None, None, 0
    best_odd = None
    for w, i, word, odd in results:
        if w is not None and (best_w is None or (w, i) < (best_w, best_i)):
            best_w, best_i, best_word = w, i, word
        if odd is not None and (best_odd is None or odd < best_odd):
            best_odd = odd
    return CertifiedBound(
        lower=best_w, upper=best_w, exact=True, witness=best_word,
        method="enumeration", min_odd_weight=best_odd,
    )


def weight_distribution(c, workers=1):
    """Full weight distribution by enumeration (k <= 24), split over `workers` processes."""
    _check_budget(c)
    rows = tuple(c.generator_rows())
    results = _run_partitioned(_count_range, rows, 1 << c.k, workers, extra=(c.n,))
    counts = [sum(col) for col in zip(*results)]
    return WeightDistribution(n=c.n, k=c.k, counts=tuple(counts))


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
