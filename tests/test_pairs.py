from itertools import combinations

import pytest

from duadic.bounds import LEMMA_IDS, HypothesisError, check_lemma_hypotheses
from duadic.code import dual, extend, from_class_polys
from duadic.cyclotomic import WeightClassSpec, defining_set
from duadic.gf2poly import class_polys
from duadic.mindist import bounded_min_distance
from duadic.pairs import (
    R8_REFERENCE_SETS,
    classify,
    enumerate_catalog,
    is_duadic,
)

import _oracles

# Expected classification of the r=8 reference sets, with the published
# lower-bound offsets for both residue classes of m mod 16 (offset o means
# d >= 2^((m-1)/2) + o; first entry is the m = t (mod 16) branch).
R8_EXPECTED = {
    1: {
        (0, 2, 3, 4): ("T4", 3, 3), (0, 4, 6, 7): ("T4", 3, 3),
        (0, 2, 4, 6): ("T4", 3, 3), (0, 3, 4, 7): ("T4", 3, 3),
        (0, 2, 3, 5): ("T8", 3, 1), (0, 2, 5, 6): ("T8", 3, 1),
        (0, 3, 5, 7): ("T8", 3, 1), (0, 5, 6, 7): ("T8", 3, 1),
    },
    3: {
        (0, 1, 4, 6): ("T9", 1, 3), (0, 1, 6, 7): ("T9", 1, 3),
        (0, 2, 4, 5): ("T9", 1, 3), (0, 2, 5, 7): ("T9", 1, 3),
        (0, 1, 5, 7): ("T7", 1, 1), (0, 2, 6, 7): ("T7", 1, 1),
        (0, 1, 4, 5): ("T7", 1, 1), (0, 2, 4, 6): ("T7", 1, 1),
    },
    5: {
        (0, 1, 2, 6): ("T7", 1, 1), (0, 3, 4, 7): ("T7", 1, 1),
        (0, 1, 3, 7): ("T4", 3, 3), (0, 2, 4, 6): ("T4", 3, 3),
        (0, 1, 2, 7): ("T9", 1, 3), (0, 3, 4, 6): ("T9", 1, 3),
        (0, 1, 3, 6): ("T8", 3, 1), (0, 2, 4, 7): ("T8", 3, 1),
    },
    7: {
        (0, 1, 2, 3): ("T9", 1, 3), (0, 1, 3, 5): ("T9", 1, 3),
        (0, 1, 2, 4): ("T4", 3, 3), (0, 1, 4, 5): ("T4", 3, 3),
        (0, 4, 5, 6): ("T7", 1, 1), (0, 2, 4, 6): ("T7", 1, 1),
        (0, 2, 3, 6): ("T8", 3, 1), (0, 3, 5, 6): ("T8", 3, 1),
    },
}
# m values hitting the two residue branches of m mod 16 for each t
R8_BRANCH_M = {1: (17, 9), 3: (3, 11), 5: (5, 13), 7: (7, 15)}


def test_is_duadic_examples():
    assert is_duadic(WeightClassSpec(r=8, m=9, S=(0, 2, 3, 4)))
    assert not is_duadic(WeightClassSpec(r=8, m=9, S=(0, 1, 2, 3)))
    for m in (3, 5, 9, 13):
        assert is_duadic(WeightClassSpec(r=2, m=m, S=(1,)))


@pytest.mark.parametrize("m", [3, 5, 7, 9, 11, 13, 15, 17])
def test_splitting_bitmaps(m):
    # T1 and T2 partition Z_n minus 0 and are swapped by negation, so each
    # holds (n - 1) / 2 residues: [n, (n + 1) / 2] odd-like codes, and
    # [n, (n - 1) / 2] even-like ones once 0 joins both sides
    for r in (2, 4, 6, 8):
        for s in enumerate_catalog(r, m % r):
            spec = WeightClassSpec(r=r, m=m, S=s)
            t1, t2 = defining_set(spec), defining_set(_oracles.complement_spec(spec))
            n = t1.n
            assert t1.size == t2.size == (n - 1) // 2
            assert t1.bits & t2.bits == 0
            assert (t1 | t2).bits == ((1 << n) - 1) ^ 1
            assert t1.negated() == t2
            assert t2.negated() == t1
            assert t1.with_zero().size == t2.with_zero().size == (n + 1) // 2


def test_classify_spec_examples():
    v = classify(WeightClassSpec(r=8, m=9, S=(0, 2, 3, 4)))
    assert v.theorem == "T4" and v.d_lower == 19 and v.d_dual_lower == 20
    assert v.run_length == 18 and v.v == 15

    v = classify(WeightClassSpec(r=8, m=9, S=(0, 2, 3, 5)))
    assert v.theorem == "T8" and v.residue_case == 9 and v.d_lower == 17

    v = classify(WeightClassSpec(r=8, m=17, S=(0, 2, 3, 5)))
    assert v.theorem == "T8" and v.residue_case == 1 and v.d_lower == 259

    v = classify(WeightClassSpec(r=8, m=11, S=(0, 1, 5, 7)))
    assert v.theorem == "T7" and v.d_lower == 33


def test_classify_matches_published_r8_families():
    for t, expected in R8_EXPECTED.items():
        for s, (theorem, off_t, off_tr) in expected.items():
            for m, off in zip(R8_BRANCH_M[t], (off_t, off_tr)):
                verdict = classify(WeightClassSpec(r=8, m=m, S=s))
                half = 1 << ((m - 1) // 2)
                assert verdict.theorem == theorem, (t, s, m)
                assert verdict.d_lower == half + off, (t, s, m)
                assert verdict.d_dual_lower == half + off + 1, (t, s, m)
                if m >= 5:
                    assert verdict.d_ext_lower == half + 4, (t, s, m)


def test_classify_symmetry_under_complement():
    for t in (1, 3, 5, 7):
        for m in R8_BRANCH_M[t]:
            for s in enumerate_catalog(8, t):
                spec = WeightClassSpec(r=8, m=m, S=s)
                a, b = classify(spec), classify(_oracles.complement_spec(spec))
                assert (a.theorem, a.d_lower, a.d_dual_lower, a.d_ext_lower) == (
                    b.theorem, b.d_lower, b.d_dual_lower, b.d_ext_lower)


def test_classify_bound_shape():
    # certified bounds are always 2^((m-1)/2) + {1,3} primal, one more dual
    for m in (5, 7, 9, 11, 13):
        half = 1 << ((m - 1) // 2)
        for r in (2, 4, 6, 8):
            for s in enumerate_catalog(r, m % r):
                v = classify(WeightClassSpec(r=r, m=m, S=s))
                if v.theorem == "none":
                    continue
                assert v.d_lower in (half + 1, half + 3)
                assert v.d_dual_lower == v.d_lower + 1
                assert v.d_ext_lower == half + 4
                assert v.best_d_lower >= v.d_lower


def test_predictions_hold_against_exact_enumeration():
    # every predicted bound (primal, dual, extended) is met by the true
    # minimum distances wherever full enumeration is affordable
    from duadic.code import dual, extend, from_defining_set
    from duadic.mindist import exact_min_distance

    for m in (3, 5):
        for r in (2, 4, 6, 8):
            for s in enumerate_catalog(r, m % r):
                spec = WeightClassSpec(r=r, m=m, S=s)
                verdict = classify(spec)
                assert verdict.theorem != "none", (m, r, s)
                c = from_defining_set(defining_set(spec))
                assert exact_min_distance(c).lower >= verdict.d_lower
                assert exact_min_distance(dual(c)).lower >= verdict.d_dual_lower
                assert exact_min_distance(extend(c)).lower >= verdict.d_ext_lower


def test_classify_r2_uses_case_split_family():
    # r=2 falls outside T4 (which needs r > 2) but lands in T8 cleanly
    v = classify(WeightClassSpec(r=2, m=5, S=(1,)))
    assert v.theorem == "T8" and v.d_lower == 7
    v = classify(WeightClassSpec(r=2, m=7, S=(1,)))
    assert v.theorem == "T8" and v.d_lower == 9


def test_classify_unchecked_and_non_duadic_give_none():
    assert classify(WeightClassSpec(r=4, m=5, S=(0, 1))).theorem == "none"
    assert classify(WeightClassSpec(r=4, m=4, S=(0, 1), unchecked=True)).theorem == "none"


def _hypothesis_specs():
    """Every catalog spec with r <= 16 and odd m <= 19, and every checked
    half-set, duadic or not, for r in {4, 6, 8} and m in {3, 5, 7, 9}."""
    for r in range(2, 17, 2):
        for m in range(3, 20, 2):
            for s in enumerate_catalog(r, m % r):
                yield WeightClassSpec(r=r, m=m, S=s)
    for r in (4, 6, 8):
        for m in (3, 5, 7, 9):
            for s in combinations(range(r), r // 2):
                yield WeightClassSpec(r=r, m=m, S=s)


def test_classify_matches_the_inline_reference():
    specs = list(_hypothesis_specs())
    assert len(specs) == 510 * 9 + 96 * 4
    for spec in specs:
        assert classify(spec) == _oracles.classify(spec), spec


def test_lemma_hypotheses_match_the_inline_reference():
    for spec in _hypothesis_specs():
        for which in LEMMA_IDS:
            try:
                check_lemma_hypotheses(spec, which)
                message = None
            except HypothesisError as exc:
                message = str(exc)
            assert message == _oracles.lemma_hypothesis_message(spec, which), (spec, which)


def test_enumerate_catalog_counts():
    assert enumerate_catalog(2, 1) == [(0,), (1,)]
    for t in (1, 3):
        assert len(enumerate_catalog(4, t)) == 4
    for t in (1, 3, 5):
        assert len(enumerate_catalog(6, t)) == 8
    for t in (1, 3, 5, 7):
        cat = enumerate_catalog(8, t)
        assert len(cat) == 16  # computed by brute force; regression value
        assert cat == sorted(cat)
        for ref in R8_REFERENCE_SETS[t]:
            assert ref in cat


def test_enumerate_catalog_contains_both_halves():
    for t in (1, 3, 5, 7):
        cat = set(enumerate_catalog(8, t))
        for s in list(cat):
            comp = tuple(c for c in range(8) if c not in s)
            assert comp in cat


def test_enumerate_catalog_guards():
    with pytest.raises(ValueError):
        enumerate_catalog(18, 1)
    with pytest.raises(ValueError):
        enumerate_catalog(8, 2)
    with pytest.raises(ValueError):
        enumerate_catalog(7, 1)
    with pytest.raises(ValueError):
        enumerate_catalog(8, 9)


def test_catalog_members_are_duadic_and_nothing_else():
    from itertools import combinations

    for t in (1, 3, 5, 7):
        cat = set(enumerate_catalog(8, t))
        for s in combinations(range(8), 4):
            spec = WeightClassSpec(r=8, m=t if t >= 3 else t + 8, S=s)
            assert (s in cat) == is_duadic(spec)


@pytest.mark.parametrize("r", range(2, 17, 2))
def test_catalog_matches_the_filter_over_all_half_sets(r):
    from itertools import combinations

    for t in range(1, r, 2):
        brute = [s for s in combinations(range(r), r // 2) if all((t - c) % r not in s for c in s)]
        assert enumerate_catalog(r, t) == brute
        assert len(brute) == 1 << (r // 2)


def test_reflection_test_vs_bitmap_negation():
    # The O(r) reflection test always implies the Z_n splitting, and is
    # equivalent to it once every weight class is inhabited (r < m). At
    # r >= m some specs split Z_n through empty classes and stay uncertified.
    from itertools import combinations

    for m in (5, 9):
        for r in (4, 8):
            for s in combinations(range(r), r // 2):
                spec = WeightClassSpec(r=r, m=m, S=s)
                t1 = defining_set(spec)
                t2 = defining_set(_oracles.complement_spec(spec))
                bitmap_split = t1.negated() == t2
                if is_duadic(spec):
                    assert bitmap_split
                if r < m:
                    assert is_duadic(spec) == bitmap_split


@pytest.mark.parametrize("r", [2, 4, 8, 16])
def test_theorem_bounds_stay_at_or_below_verified_witnesses(r):
    # the first four catalog specs at m = 7 (r = 2 has two), each classified: the predicted
    # primal, dual and extended bounds against seeded search witnesses that are codewords;
    # the tightest is r = 4: bound 11, witness 15
    polys = class_polys(7, r)
    for s in enumerate_catalog(r, 7 % r)[:4]:
        spec = WeightClassSpec(r=r, m=7, S=s)
        verdict = classify(spec)
        assert verdict.theorem != "none"
        c = from_class_polys(spec, polys)
        for bound, code in ((verdict.d_lower, c), (verdict.d_dual_lower, dual(c)), (verdict.d_ext_lower, extend(c))):
            found = bounded_min_distance(code, effort=10, seed=1)
            assert code.contains(found.witness) and found.witness.bit_count() == found.upper
            assert bound <= found.upper, (s, code.n, code.k)
