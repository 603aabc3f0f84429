"""BCH-bound certification for defining sets, direct verification of the
run-membership lemmas L3-L6, and the square-root floor on the minimum
odd weight of an odd-like duadic pair.

BCH runs are found on the defining set's int bitmap by shifted ANDs. A
lemma window {a*v mod n : 1 <= a <= B} depends only on (n, r, v, B), so it
is scanned point by point from w_2 once, into the set of its residues
w_2(j) mod r; each (spec, lemma, side) is then one subset test against the
side's half-set. This module needs no numpy.

This module is the one source of the lemma hypotheses (excluded t, r > 2
for L3, the anchor residues of S and S'): `lemma_hypothesis_gap` states them
and names the first that fails, `check_lemma_hypotheses` words it in the
error it raises, and the theorem classifier in `pairs` asks the gap alone.
"""

import math
from dataclasses import dataclass
from functools import lru_cache

LEMMA_IDS = ("L3", "L4", "L5", "L6")
SIDES = ("S", "S'")


class HypothesisError(ValueError):
    """A lemma was invoked on a spec outside its stated hypotheses."""


@dataclass(frozen=True)
class BchCertificate:
    """A maximal arithmetic progression {start + i*v} inside a defining set.

    run_length consecutive AP terms in T certify minimum distance at least
    run_length + 1. gamma_exponent is the inverse of v mod n: relabeling
    roots by alpha^gamma_exponent turns the run into consecutive exponents.
    """

    v: int
    start: int
    run_length: int
    d_lower: int
    gamma_exponent: int

    def to_json(self):
        return {
            "v": self.v,
            "l": self.start,
            "run_length": self.run_length,
            "d_lower": self.d_lower,
            "gamma_exponent": self.gamma_exponent,
        }


def max_ap_run(T, v):
    """Longest arithmetic progression with difference v contained in T.

    v must be a unit mod n. The runs are read off the n-bit bitmap of T by
    rotation, with rot(X, s) the bitmap whose bit j is bit j + s mod n of X:
    R_0 = T and R_{i+1} = R_i & rot(R_i, 2^i * v), so bit j of R_i is set
    when the 2^i AP terms from j all lie in T. The longest run L is
    assembled from the R_i greedily, highest power first, and the bits
    left set are the starts of the runs of length L. Among them the
    smallest start l is reported. Every step is one big-int operation,
    O(log n) of them per call.
    """
    n = T.n
    if math.gcd(v % n, n) != 1:
        raise ValueError(f"v={v} is not a unit mod {n}")
    v %= n
    vinv = pow(v, -1, n)
    full = (1 << n) - 1
    if T.bits == full:
        return BchCertificate(v=v, start=0, run_length=n, d_lower=n + 1, gamma_exponent=vinv)

    def rot(x, s):
        s %= n
        return (x >> s | x << (n - s)) & full

    # 2^i >= n terms would cover Z_n, so below the full set some R_i is empty
    runs = [T.bits]
    while runs[-1]:
        runs.append(runs[-1] & rot(runs[-1], v << (len(runs) - 1)))
    starts, run = full, 0
    for i in reversed(range(len(runs) - 1)):
        longer = starts & rot(runs[i], run * v)
        if longer:
            starts, run = longer, run + (1 << i)
    if run == 0:
        return BchCertificate(v=v, start=0, run_length=0, d_lower=1, gamma_exponent=vinv)
    start = (starts & -starts).bit_length() - 1
    return BchCertificate(v=v, start=start, run_length=run, d_lower=run + 1, gamma_exponent=vinv)


def default_v_candidates(n):
    """The differences 2^((m-1)/2) - 1 and 2^((m+1)/2) - 1 for n = 2^m - 1 that
    are units mod n; when neither is (m = 6, 10, 14, 18), the difference 1 of
    the plain consecutive-root BCH bound."""
    m = n.bit_length()
    cands = {(1 << ((m - 1) // 2)) - 1, (1 << ((m + 1) // 2)) - 1}
    return sorted(v for v in cands if v and math.gcd(v, n) == 1) or [1]


def best_certificate(T, v_candidates=None):
    """Best BCH certificate over the candidate differences (longest run wins,
    ties broken toward the earlier candidate); a full sweep passes every
    unit mod n as a candidate."""
    n = T.n
    if v_candidates is not None:
        candidates = sorted(set(v % n for v in v_candidates))
    else:
        candidates = default_v_candidates(n)
    if not candidates:
        raise ValueError("no candidate differences to scan")
    best = None
    for v in candidates:
        cert = max_ap_run(T, v)
        if best is None or cert.run_length > best.run_length:
            best = cert
    return best


# Run-membership rules, one per lemma. Each rule fixes which residues must
# sit in S and in S' = Z_r \ S, and which difference v carries a guaranteed
# window {a*v : 1 <= a <= B} into the defining set of each side.
_EXCLUDED_T = {"L3": 3, "L4": 1, "L5": 3, "L6": 1}


@lru_cache(maxsize=256)
def _anchor_sets(which, r, t):
    """The residues that lemma `which` requires in S and in S', as frozensets."""
    lo = ((t - 1) // 2) % r
    near = ((t + r - 1) // 2) % r
    far = ((t + r + 1) // 2) % r
    third = (t - 1) % r if which in ("L3", "L5") else 1 % r
    if which in ("L3", "L4"):
        s_req = frozenset((lo, near, third))
        comp_req = frozenset((((t + 1) // 2) % r, far))
    else:
        s_req = frozenset((lo, far, third))
        comp_req = frozenset((((t + 1) // 2) % r, near))
    return s_req, comp_req


def lemma_window(which, m, r, side):
    """(v, B) such that the lemma guarantees {a*v : 1 <= a <= B} inside the
    defining set of the given side ("S" or "S'")."""
    half = 1 << ((m - 1) // 2)
    small, big = half - 1, 2 * half - 1
    t = m % r
    first_branch = m % (2 * r) == t  # m = t mod 2r, else m = t + r mod 2r
    if which == "L3":
        b, s_gets_small = half + 2, True
    elif which == "L4":
        b, s_gets_small = half, True
    elif which == "L5":
        b, s_gets_small = (half + 2, True) if first_branch else (half, False)
    elif which == "L6":
        b, s_gets_small = (half, True) if first_branch else (half + 2, False)
    else:
        raise ValueError(f"unknown lemma {which!r}")
    if side not in SIDES:
        raise ValueError(f"side must be one of {SIDES}")
    v = (small if s_gets_small else big) if side == "S" else (big if s_gets_small else small)
    return v, b


def lemma_hypothesis_gap(which, r, t, S):
    """The first failed hypothesis of lemma `which` for the half-set S at
    t = m mod r, or None when all hold: "t" (t is excluded), "r" (r <= 2
    for L3), "S" (an anchor of S is missing from S) or "S'" (an anchor of
    S' lies in S)."""
    if t == _EXCLUDED_T[which]:
        return "t"
    if which == "L3" and r <= 2:
        return "r"
    s_req, comp_req = _anchor_sets(which, r, t)
    if not s_req.issubset(S):
        return "S"
    if not comp_req.isdisjoint(S):
        return "S'"
    return None


def check_lemma_hypotheses(spec, which):
    """Raise HypothesisError naming the first failed condition, if any."""
    if which not in LEMMA_IDS:
        raise ValueError(f"unknown lemma {which!r}")
    if spec.unchecked:
        raise HypothesisError("lemmas require a checked spec (odd m, |S| = r/2)")
    r, t, s = spec.r, spec.t, spec.S
    gap = lemma_hypothesis_gap(which, r, t, s)
    if gap is None:
        return
    s_req, comp_req = _anchor_sets(which, r, t)
    if gap == "t":
        message = f"{which} requires t != {_EXCLUDED_T[which]}; spec has t = m mod r = {t}"
    elif gap == "r":
        message = "L3 requires r > 2"
    elif gap == "S":
        message = f"{which} requires S to contain {sorted(s_req)}; missing {sorted(s_req.difference(s))}"
    else:
        message = f"{which} requires S' to contain {sorted(comp_req)}; missing {sorted(comp_req.intersection(s))}"
    raise HypothesisError(message)


@lru_cache(maxsize=256)
def _window_residues(n, r, v, b):
    """Whether the window {a*v mod n : 1 <= a <= b} holds 0, and the
    frozenset of w_2(j) mod r over its points."""
    points = [a * v % n for a in range(1, b + 1)]
    return 0 in points, frozenset(j.bit_count() % r for j in points)


def verify_lemma_membership(spec, which, side="S"):
    """Directly test the lemma's conclusion {a*v : 1 <= a <= B} <= T(side).

    Hypotheses are checked first (HypothesisError otherwise); the return
    value is the truth of the membership claim itself. A point j = a*v mod
    n lies in T exactly when j != 0 and w_2(j) mod r lies in the side's
    half-set, so the window is in T when it misses 0 and its residues,
    computed once per (n, r, v, B), lie in S (side "S") or all avoid S
    (side "S'", whose half-set is Z_r \\ S).
    """
    check_lemma_hypotheses(spec, which)
    v, b = lemma_window(which, spec.m, spec.r, side)
    holds_zero, residues = _window_residues(spec.n, spec.r, v, b)
    if holds_zero:
        return False
    return residues.issubset(spec.S) if side == "S" else residues.isdisjoint(spec.S)


def sqrt_bounds(n):
    """The least odd d0 with d0^2 - d0 + 1 >= n: the square-root floor on
    the minimum odd weight of an odd-like duadic pair of length n whose
    splitting multiplier is -1."""
    if n < 3 or n % 2 == 0:
        raise ValueError(f"length must be odd and >= 3, got {n}")
    d0 = 1
    while d0 * d0 - d0 + 1 < n:
        d0 += 2
    return d0
