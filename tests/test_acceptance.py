"""Acceptance suite: one test per criterion, each printing a pass/fail line
and asserting its stated wall-clock budget. Run with -s to see the lines.
"""

import random
import time
from contextlib import contextmanager

import numpy as np

from duadic.bounds import HypothesisError, best_certificate, max_ap_run, verify_lemma_membership
from duadic.code import (
    dual,
    extend,
    from_defining_set,
    is_doubly_even,
    is_self_dual,
)
from duadic.cyclotomic import WeightClassSpec, defining_set
from duadic.gf2m import field
from duadic.gf2poly import check_poly, generator_poly, mul, x_pow_plus_one
from duadic.mindist import exact_min_distance, weight_distribution
from duadic.pairs import R8_REFERENCE_SETS, classify, enumerate_catalog

from _oracles import complement_spec, eval_at_powers, generator_rows, is_even_weight_subcode, matrix_product_is_zero, members

ALL_R = (2, 4, 6, 8)
ODD_M_17 = tuple(range(3, 18, 2))


@contextmanager
def criterion(name, budget_s):
    start = time.perf_counter()
    try:
        yield
    except Exception:
        print(f"ACCEPTANCE {name}: FAIL after {time.perf_counter() - start:.2f}s")
        raise
    elapsed = time.perf_counter() - start
    line = f"ACCEPTANCE {name}: PASS in {elapsed:.2f}s (budget {budget_s}s)"
    print(line)
    assert elapsed < budget_s, line


def _catalog_specs(m, rs=ALL_R):
    for r in rs:
        for s in enumerate_catalog(r, m % r):
            yield WeightClassSpec(r=r, m=m, S=s)


def test_c1_duadic_splitting_structure():
    with criterion("1 duadic splitting m=3..17", 10):
        for m in ODD_M_17:
            for spec in _catalog_specs(m):
                t1, t2 = defining_set(spec), defining_set(complement_spec(spec))
                assert t1.bits & t2.bits == 0
                assert (t1 | t2).bits == ((1 << t1.n) - 1) ^ 1
                assert t1.negated() == t2


def test_c2_catalog_reproduces_reference_lists():
    with criterion("2 catalog for r=8", 1):
        for t in (1, 3, 5, 7):
            cat = enumerate_catalog(8, t)
            # computed by brute force over all 70 half-sets; regression value
            assert len(cat) == 16
            for ref in R8_REFERENCE_SETS[t]:
                assert ref in cat
        print("  catalog counts: 16 per odd residue class (8 reference + 8 complements)")


def test_c3_lemma_verification():
    with criterion("3 lemmas L3-L6 across catalog", 30):
        checked = 0
        for m in ODD_M_17:
            for spec in _catalog_specs(m):
                for which in ("L3", "L4", "L5", "L6"):
                    for side in ("S", "S'"):
                        try:
                            ok = verify_lemma_membership(spec, which, side)
                        except HypothesisError:
                            continue
                        assert ok, (spec, which, side)
                        checked += 1
        assert checked > 0
        print(f"  applicable lemma cells verified: {checked}")


def test_c4_bch_certificates_match_predictions():
    with criterion("4 BCH certificates >= theorem bounds", 30):
        classified = 0
        for m in ODD_M_17:
            for spec in _catalog_specs(m):
                verdict = classify(spec)
                if verdict.theorem == "none":
                    continue
                classified += 1
                t = defining_set(spec)
                cert = best_certificate(t)
                assert cert.d_lower >= verdict.d_lower, (spec, verdict, cert)
                assert max_ap_run(t, verdict.v).run_length >= verdict.run_length
        assert classified > 0
        # spot values fixed by the published bounds
        assert classify(WeightClassSpec(r=8, m=9, S=(0, 2, 3, 4))).d_lower == 19
        assert classify(WeightClassSpec(r=8, m=11, S=(0, 1, 5, 7))).d_lower == 33
        print(f"  classified specs certified: {classified}")


def test_c5_exact_distances_m5():
    c = from_defining_set(defining_set(WeightClassSpec(r=2, m=5, S=(1,))))
    with criterion("5a exact d of [31,16]", 5):
        found = exact_min_distance(c)
        assert found.exact and found.lower == 7
        assert found.lower >= 7  # published lower bound is one-sided
    with criterion("5b exact d of even-like dual [31,15]", 5):
        d = dual(c)
        assert (d.n, d.k) == (31, 15)
        found = exact_min_distance(d)
        assert found.exact and found.lower == 8
        assert found.lower >= 8
    with criterion("5c exact d of extended [32,16]", 5):
        e = extend(c)
        assert (e.n, e.k) == (32, 16)
        found = exact_min_distance(e)
        assert found.exact and found.lower == 8
        assert found.lower >= 8


def test_c6_self_dual_doubly_even_extensions():
    with criterion("6 self-dual doubly-even extensions", 60):
        for m in (3, 5, 7, 9):
            for spec in _catalog_specs(m):
                c = from_defining_set(defining_set(spec))
                e = extend(c)
                assert 2 * e.k == e.n
                assert is_self_dual(e), spec
                assert is_doubly_even(e), spec
                if m <= 5:
                    wd = weight_distribution(e)
                    assert wd.is_doubly_even, spec
        # the lag-based G*G^T shortcut agrees with the explicit product
        for m in (3, 5):
            spec = WeightClassSpec(r=8, m=m, S=enumerate_catalog(8, m % 8)[0])
            rows = generator_rows(extend(from_defining_set(defining_set(spec))))
            assert matrix_product_is_zero(rows, rows)


def test_c7_dual_defining_set_and_even_subcode():
    with criterion("7 dual defining sets", 60):
        for m in (3, 5, 7, 9, 11):
            for spec in _catalog_specs(m):
                c = from_defining_set(defining_set(spec))
                d = dual(c)
                assert d.T == c.T.with_zero(), spec
                assert is_even_weight_subcode(d, c), spec
                if m <= 5:
                    words = [0]
                    for row in generator_rows(c):
                        words += [w ^ row for w in words]
                    even = {w for w in words if w.bit_count() % 2 == 0}
                    dual_words = [0]
                    for row in generator_rows(d):
                        dual_words += [w ^ row for w in dual_words]
                    assert even == set(dual_words), spec


def test_c8_algebra_oracles():
    with criterion("8 algebra oracles", 60):
        rng = random.Random(88)
        for _ in range(200):
            m = rng.choice((3, 5, 7, 9, 11, 13))
            r = rng.choice(ALL_R)
            s = tuple(sorted(rng.sample(range(r), r // 2)))
            fld = field(m)
            t = defining_set(WeightClassSpec(r=r, m=m, S=s))
            g = generator_poly(t)
            assert mul(g, check_poly(g, fld.n)) == x_pow_plus_one(fld.n)
        for m in (3, 5, 7, 9, 11):
            fld = field(m)
            spec = WeightClassSpec(r=4, m=m, S=(0, 1))
            t = defining_set(spec)
            g = generator_poly(t)
            zeros = np.flatnonzero(eval_at_powers(fld, g) == 0)
            assert zeros.tolist() == members(t)
        for m in ODD_M_17:
            n = (1 << m) - 1
            j = np.arange(1, n, dtype=np.int64)
            assert (np.bitwise_count(j) == np.bitwise_count((2 * j) % n)).all()
            for spec in _catalog_specs(m, rs=(2, 8)):
                assert defining_set(spec).is_closed_under_doubling()


def test_c9_large_instance_smoke():
    with criterion("9 full pipeline [511,256]", 10):
        spec = WeightClassSpec(r=8, m=9, S=(0, 2, 3, 4))
        t = defining_set(spec)
        c = from_defining_set(t)
        assert (c.n, c.k) == (511, 256)
        verdict = classify(spec)
        cert = best_certificate(t)
        assert verdict.d_lower == 19 and cert.d_lower >= 19
        e = extend(c)
        assert (e.n, e.k) == (512, 256)
        assert is_self_dual(e) and is_doubly_even(e)
