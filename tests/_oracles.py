"""Slow, obviously correct references that the tests check the library against."""

import math
from functools import lru_cache

import numpy as np

from duadic import cyclotomic
from duadic.bounds import BchCertificate, check_lemma_hypotheses, lemma_window
from duadic.cyclotomic import DefiningSet, WeightClassSpec, coset, defining_set
from duadic.gf2m import field
from duadic.gf2poly import generator_poly, mod
from duadic.pairs import _NO_VERDICT, THEOREM_LEMMA, TheoremVerdict


def complement_spec(spec):
    """The spec for S' = Z_r \\ S (the other half of a would-be splitting)."""
    comp = tuple(sorted(set(range(spec.r)) - set(spec.S)))
    return WeightClassSpec(r=spec.r, m=spec.m, S=comp, unchecked=spec.unchecked)


def generator_rows(c):
    """The k generator matrix rows of a code, as Python ints."""
    return [c.generator_row(i) for i in range(c.k)]


def row_reduce(rows):
    """Reduced row echelon form over GF(2) with leftmost (highest-bit)
    pivots, on Python-int rows: the reference the information-set search's
    batched elimination is checked against.

    Returns (reduced nonzero rows, pivot bit positions), deterministic.
    """
    rows = list(rows)
    pivots = []
    reduced = []
    while rows:
        piv_row = max(rows)  # the numerically largest row has the highest leading bit
        if piv_row == 0:
            break
        rows.remove(piv_row)
        p = piv_row.bit_length() - 1
        rows = [row ^ piv_row if (row >> p) & 1 else row for row in rows]
        reduced = [row ^ piv_row if (row >> p) & 1 else row for row in reduced]
        reduced.append(piv_row)
        pivots.append(p)
    return reduced, pivots


def rank(rows):
    return len(row_reduce(rows)[0])


def matrix_product_is_zero(rows_a, rows_b):
    """Explicit A * B^T = 0 over GF(2); the small-scale oracle for the
    defining-set self-orthogonality test."""
    return all((ra & rb).bit_count() % 2 == 0 for ra in rows_a for rb in rows_b)


def weight_classes(m, r):
    """The classes W_c = {1 <= j <= n-1 : w_2(j) = c mod r} as DefiningSets, c in Z_r."""
    n = (1 << m) - 1
    return [from_indices(n, [j for j in range(1, n) if j.bit_count() % r == c]) for c in range(r)]


def class_polys_direct(m, r):
    """Every class polynomial P_c, c in Z_r, of field(m) as the product of
    the minimal polynomials of its own cosets, without the pairing of W_c
    with -W_c."""
    return tuple(generator_poly(w) for w in weight_classes(m, r))


@lru_cache(maxsize=None)
def log_table(fld):
    """log[a] = e with alpha^e = a for each nonzero field element a, and
    log[0] = -1: the inverse of the field's antilog table, as int32."""
    log = np.full(fld.n + 1, -1, dtype=np.int32)
    log[fld.antilog_table] = np.arange(fld.n, dtype=np.int32)
    return log


def field_mul(fld, a, b):
    """The product of field elements a and b, read off the log and antilog tables."""
    if a == 0 or b == 0:
        return 0
    log = log_table(fld)
    return int(fld.antilog_table[(int(log[a]) + int(log[b])) % fld.n])


def expand_roots(fld, exps):
    """Bitmasks of prod_k (x - alpha^exps[:, k]) for each row of int32
    exponents, expanded in GF(2^m)[x] with numpy one root at a time; each
    product must lie in GF(2)[x]."""
    antilog, log, n = fld.antilog_table, log_table(fld), fld.n
    rows, size = exps.shape
    coeffs = np.zeros((rows, size + 1), dtype=np.uint32)
    coeffs[:, 0] = 1
    for j in range(size):
        low = coeffs[:, : j + 1].copy()
        scaled = antilog[(log[low] + exps[:, j : j + 1]) % n]
        scaled[low == 0] = 0
        coeffs[:, : j + 1] = scaled
        coeffs[:, 1 : j + 2] ^= low
    if coeffs.max() > 1:
        raise AssertionError(f"a coset product left GF(2) in GF(2^{fld.m})")
    return np.bitwise_or.reduce(coeffs << np.arange(size + 1, dtype=np.uint32), axis=1)


def minimal_poly_table(m):
    """The minimal polynomial of alpha^j for every j in Z_n, as uint32
    bitmasks, by `expand_roots` over the orbit rows of all cosets of one
    size at a time."""
    fld, n = field(m), (1 << m) - 1
    leaders = cyclotomic.leaders_of_z_n(m)
    orbits = np.stack(list(cyclotomic.rotations(leaders, m)), axis=1)
    sizes = m // (orbits == orbits[:, :1]).sum(axis=1)
    table = np.zeros(n, dtype=np.uint32)
    for size in set(sizes.tolist()):
        exps = orbits[sizes == size, :size]
        polys = expand_roots(fld, exps)
        for k in range(size):
            table[exps[:, k]] = polys
    return table


def evaluate(fld, p, x):
    """Horner evaluation of p at the field element x."""
    acc = 0
    for d in range(p.bit_length() - 1, -1, -1):
        acc = field_mul(fld, acc, x) ^ ((p >> d) & 1)
    return acc


def from_indices(n, indices):
    """The subset of Z_n holding exactly the given residues."""
    members = set(indices)
    if any(not 0 <= j < n for j in members):
        raise ValueError("index outside Z_n")
    return DefiningSet(n=n, bits=sum(1 << j for j in members))


def members(T):
    """The residues of the defining set T, ascending."""
    return np.flatnonzero(T.bool_array()).tolist()


def from_leaders(n, leaders):
    """The defining set made of the cosets of the given leaders, the inverse
    of `DefiningSet.coset_leaders`."""
    return from_indices(n, [j for s in leaders for j in coset(s, n).elements])


def leaders_of_z_n(m):
    """The coset leaders of Z_n, n = 2^m - 1, ascending, by walking each
    orbit under doubling from its smallest residue."""
    n = (1 << m) - 1
    seen = bytearray(n)
    leaders = []
    for s in range(n):
        if seen[s]:
            continue
        leaders.append(s)
        x = s
        while not seen[x]:
            seen[x] = 1
            x = 2 * x % n
    return leaders


def antilog_table(m, modulus):
    """alpha^e for e in Z_n, n = 2^m - 1, one power at a time: alpha = x
    multiplied in and reduced by the degree-m modulus."""
    table = []
    x = 1
    for _ in range((1 << m) - 1):
        table.append(x)
        x <<= 1
        if x >> m:
            x ^= modulus
    return np.array(table, dtype=np.uint32)


def units(n):
    """Every unit mod n: the candidate differences of a full BCH sweep."""
    return [v for v in range(1, n) if math.gcd(v, n) == 1]


def is_even_weight_subcode(sub, sup):
    """sub is contained in sup with codimension 1 and only even-weight rows."""
    if sub.n != sup.n or sub.k != sup.k - 1:
        return False
    if mod(sub.g, sup.g) != 0:
        return False
    return sub.g.bit_count() % 2 == 0


def eval_at_powers(fld, p, exponents=None):
    """Evaluate p at alpha^e for each exponent e, vectorized over all points.

    Returns a uint32 array of field elements; exponents defaults to all of Z_n.
    """
    n = fld.n
    if exponents is None:
        exponents = np.arange(n, dtype=np.int64)
    else:
        exponents = np.asarray(exponents, dtype=np.int64) % n
    antilog = fld.antilog_table
    log = log_table(fld)
    acc = np.zeros(len(exponents), dtype=np.uint32)
    for d in range(p.bit_length() - 1, -1, -1):
        nz = acc != 0
        acc[nz] = antilog[(log[acc[nz]].astype(np.int64) + exponents[nz]) % n]
        if (p >> d) & 1:
            acc ^= 1
    return acc


def lemma_membership(spec, which, side="S"):
    """The lemma's conclusion {a*v : 1 <= a <= B} <= T(side), read off the
    n-bit bitmap of the side's defining set; hypotheses as in the library."""
    check_lemma_hypotheses(spec, which)
    v, b = lemma_window(which, spec.m, spec.r, side)
    target = spec if side == "S" else complement_spec(spec)
    arr = defining_set(target).bool_array()
    points = (np.arange(1, b + 1, dtype=np.int64) * v) % spec.n
    return bool(arr[points].all())


def max_ap_run(T, v):
    """Longest AP with unit difference v in T, by one circular run search
    over T's bool array gathered in AP order: the AP {l + i*v} sits in T
    exactly when the run {l*v^-1 + i} sits in v^-1 * T. Among maximal runs
    the one with the smallest start l is reported."""
    n = T.n
    if math.gcd(v % n, n) != 1:
        raise ValueError(f"v={v} is not a unit mod {n}")
    v %= n
    vinv = pow(v, -1, n)
    u = T.bool_array()[(np.arange(n, dtype=np.int64) * v) % n]
    zero_pos = np.flatnonzero(~u)
    if zero_pos.size == 0:
        return BchCertificate(v=v, start=0, run_length=n, d_lower=n + 1, gamma_exponent=vinv)
    gaps = (np.roll(zero_pos, -1) - zero_pos - 1) % n
    run = int(gaps.max())
    if run == 0:
        return BchCertificate(v=v, start=0, run_length=0, d_lower=1, gamma_exponent=vinv)
    run_starts = (zero_pos[gaps == run] + 1) % n
    start = int(((run_starts * v) % n).min())
    return BchCertificate(v=v, start=start, run_length=run, d_lower=run + 1, gamma_exponent=vinv)


# An independent statement of the lemma hypotheses, and the theorem
# classifier with its hypothesis tests written inline. The library states
# the hypotheses once, in `bounds.lemma_hypothesis_gap`; the tests
# check it and `pairs.classify` against these.
_EXCLUDED_T = {"L3": 3, "L4": 1, "L5": 3, "L6": 1}


def _anchor_sets(which, r, t):
    lo = ((t - 1) // 2) % r
    near = ((t + r - 1) // 2) % r
    far = ((t + r + 1) // 2) % r
    third = (t - 1) % r if which in ("L3", "L5") else 1 % r
    if which in ("L3", "L4"):
        s_req = {lo, near, third}
        comp_req = {((t + 1) // 2) % r, far}
    else:
        s_req = {lo, far, third}
        comp_req = {((t + 1) // 2) % r, near}
    return s_req, comp_req


def lemma_hypothesis_message(spec, which):
    """The message `check_lemma_hypotheses` raises for a checked spec, or None."""
    t = spec.t
    if t == _EXCLUDED_T[which]:
        return f"{which} requires t != {_EXCLUDED_T[which]}; spec has t = m mod r = {t}"
    if which == "L3" and spec.r <= 2:
        return "L3 requires r > 2"
    s_req, comp_req = _anchor_sets(which, spec.r, t)
    s_set = set(spec.S)
    missing = sorted(s_req - s_set)
    if missing:
        return f"{which} requires S to contain {sorted(s_req)}; missing {missing}"
    comp = set(range(spec.r)) - s_set
    missing = sorted(comp_req - comp)
    if missing:
        return f"{which} requires S' to contain {sorted(comp_req)}; missing {missing}"
    return None


def classify(spec):
    """The theorem classifier with its hypothesis tests written inline: a
    family matches on side S when its anchors lie in S, and on side S'
    when their reflections t - x do."""
    r, m, t = spec.r, spec.m, spec.t
    s_set = set(spec.S)
    if spec.unchecked or 2 * len(s_set) != r or any((t - c) % r in s_set for c in s_set):
        return _NO_VERDICT
    matches = []
    for theorem, lemma in THEOREM_LEMMA.items():
        if t == _EXCLUDED_T[lemma]:
            continue
        if lemma == "L3" and r <= 2:
            continue
        s_req, _ = _anchor_sets(lemma, r, t)
        if s_req <= s_set:
            side = "S"
        elif {(t - x) % r for x in s_req} <= s_set:
            side = "S'"
        else:
            continue
        v, run = lemma_window(lemma, m, r, side)
        matches.append(
            TheoremVerdict(
                theorem=theorem,
                residue_case=m % (2 * r) if lemma in ("L5", "L6") else None,
                d_lower=run + 1,
                d_dual_lower=run + 2,
                d_ext_lower=-(-(run + 1) // 4) * 4,
                v=v,
                run_length=run,
                best_d_lower=None,
            )
        )
    if not matches:
        return _NO_VERDICT
    first = matches[0]
    return TheoremVerdict(
        theorem=first.theorem,
        residue_case=first.residue_case,
        d_lower=first.d_lower,
        d_dual_lower=first.d_dual_lower,
        d_ext_lower=first.d_ext_lower,
        v=first.v,
        run_length=first.run_length,
        best_d_lower=max(found.d_lower for found in matches),
    )
