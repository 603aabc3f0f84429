"""The duadic test of weight-class specs, the theorem classifier that maps
a spec to its certified bound family (T4, T7, T8, T9), and the catalog of
every duadic S for a given (r, t).

A family applies when its lemma's hypotheses hold for S or for S'; those
hypotheses are stated once, in `bounds.lemma_hypothesis_gap`.
"""

from dataclasses import asdict, dataclass
from itertools import product

from .bounds import lemma_hypothesis_gap, lemma_window
from .cyclotomic import check_r

CATALOG_R_MAX = 16

# Theorem id -> the lemma whose run window certifies its bound, in precedence order.
THEOREM_LEMMA = {"T4": "L3", "T7": "L4", "T8": "L5", "T9": "L6"}

# Known duadic half-sets for r = 8, one representative per complement pair,
# keyed by t = m mod 8. Used as a regression cross-check by the catalog
# command: enumeration must reproduce every one of them.
R8_REFERENCE_SETS = {
    1: ((0, 2, 3, 4), (0, 2, 3, 5), (0, 2, 4, 6), (0, 2, 5, 6),
        (0, 3, 4, 7), (0, 3, 5, 7), (0, 4, 6, 7), (0, 5, 6, 7)),
    3: ((0, 1, 4, 5), (0, 1, 4, 6), (0, 1, 5, 7), (0, 1, 6, 7),
        (0, 2, 4, 5), (0, 2, 5, 7), (0, 2, 6, 7), (0, 2, 4, 6)),
    5: ((0, 1, 2, 6), (0, 1, 2, 7), (0, 1, 3, 6), (0, 1, 3, 7),
        (0, 2, 4, 7), (0, 3, 4, 6), (0, 2, 4, 6), (0, 3, 4, 7)),
    7: ((0, 1, 2, 3), (0, 1, 2, 4), (0, 1, 3, 5), (0, 2, 3, 6),
        (0, 3, 5, 6), (0, 4, 5, 6), (0, 1, 4, 5), (0, 2, 4, 6)),
}


@dataclass(frozen=True)
class TheoremVerdict:
    """Predicted lower bounds for a classified spec.

    theorem is the first matching family in precedence order T4, T7, T8, T9
    ("none" when no hypothesis matches); best_d_lower is the strongest
    primal bound over all matching families. v and run_length describe the
    guaranteed progression certifying d_lower for this spec's own code.
    """

    theorem: str
    residue_case: int | None
    d_lower: int | None
    d_dual_lower: int | None
    d_ext_lower: int | None
    v: int | None
    run_length: int | None
    best_d_lower: int | None

    def to_json(self):
        return asdict(self)


_NO_VERDICT = TheoremVerdict("none", None, None, None, None, None, None, None)


def is_duadic(spec):
    """True when Z_r \\ S = (t - S) mod r with t = m mod r.

    This is the m-uniform duadic condition: it forces the two weight-class
    sets to split Z_n \\ {0} under the multiplier -1 for every odd m = t
    (mod r). For r < m it is equivalent to the Z_n-level splitting check;
    for r >= m a spec can also split Z_n accidentally through weight
    classes that are empty at that small m, and such specs carry no
    m-uniform certificate, so they are reported as non-duadic here.
    """
    # |S| = r/2 and no c in S has its reflection t - c in S
    r, t, s = spec.r, spec.t, spec.S
    return 2 * len(s) == r and all((t - c) % r not in s for c in s)


def classify(spec):
    """Match the spec against the bound families in order T4, T7, T8, T9.

    Each family requires three anchor residues inside S (or, symmetrically,
    inside S'); the matched side decides which of the two differences
    2^((m-1)/2)-1 and 2^((m+1)/2)-1 carries the certified run for this
    spec's own code. Unchecked and non-duadic specs get the "none" verdict.
    """
    if spec.unchecked or not is_duadic(spec):
        return _NO_VERDICT
    r, m, t = spec.r, spec.m, spec.t
    s = frozenset(spec.S)
    comp = frozenset(range(r)) - s
    matches = []  # (theorem, lemma, v, run) per matching family
    for theorem, lemma in THEOREM_LEMMA.items():
        if lemma_hypothesis_gap(lemma, r, t, s) is None:
            side = "S"
        elif lemma_hypothesis_gap(lemma, r, t, comp) is None:
            side = "S'"
        else:
            continue
        matches.append((theorem, lemma, *lemma_window(lemma, m, r, side)))
    if not matches:
        return _NO_VERDICT
    theorem, lemma, v, run = matches[0]
    # extended codes here are doubly-even, so the primal bound rounds up
    # to a multiple of 4; this is half + 4 for every m >= 5.
    return TheoremVerdict(
        theorem=theorem,
        residue_case=m % (2 * r) if lemma in ("L5", "L6") else None,
        d_lower=run + 1,
        d_dual_lower=run + 2,
        d_ext_lower=-(-(run + 1) // 4) * 4,
        v=v,
        run_length=run,
        best_d_lower=max(found[3] for found in matches) + 1,
    )


def enumerate_catalog(r, t):
    """All S half-sets of Z_r that are duadic for m = t mod r, in
    lexicographic order; both S and its complement appear.

    For odd t the reflection c -> (t - c) mod r pairs up Z_r with no fixed
    point, and S is duadic exactly when it takes one residue of each pair,
    so the 2^(r/2) sets are generated directly."""
    check_r(r)
    if r > CATALOG_R_MAX:
        raise ValueError(f"exhaustive catalog is capped at r <= {CATALOG_R_MAX}")
    if t % 2 == 0 or not 0 <= t < r:
        raise ValueError(f"t must be an odd residue in Z_{r}, got {t}")
    pairs = [(c, (t - c) % r) for c in range(r) if c < (t - c) % r]
    return sorted(tuple(sorted(picks)) for picks in product(*pairs))
