import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import _oracles
from duadic import bounds
from duadic.bounds import (
    LEMMA_IDS,
    SIDES,
    HypothesisError,
    best_certificate,
    default_v_candidates,
    lemma_window,
    max_ap_run,
    sqrt_bounds,
    verify_lemma_membership,
)
from duadic.code import from_defining_set
from duadic.cyclotomic import DefiningSet, WeightClassSpec, defining_set
from duadic.mindist import exact_min_distance
from duadic.pairs import classify, enumerate_catalog


def _T(r, m, S):
    return defining_set(WeightClassSpec(r=r, m=m, S=S))


def test_max_ap_run_basic_example():
    cert = max_ap_run(_T(2, 3, (1,)), 1)
    assert cert.run_length == 2 and cert.start == 1 and cert.d_lower == 3
    assert cert.gamma_exponent == 1


def test_max_ap_run_repetition_set():
    t = DefiningSet(7, (1 << 7) - 2)
    for v in (1, 2, 3):
        cert = max_ap_run(t, v)
        assert cert.run_length == 6 and cert.d_lower == 7


def test_max_ap_run_degenerate_sets():
    assert max_ap_run(DefiningSet(7, 0), 1).run_length == 0
    assert max_ap_run(DefiningSet(7, 0), 1).d_lower == 1
    full = max_ap_run(DefiningSet.full(7), 1)
    assert full.run_length == 7 and full.d_lower == 8


def test_max_ap_run_rejects_non_units():
    with pytest.raises(ValueError):
        max_ap_run(_T(2, 4 + 1, (1,)), 0)
    t15 = defining_set(WeightClassSpec(r=2, m=4, S=(1,), unchecked=True))
    with pytest.raises(ValueError):
        max_ap_run(t15, 3)  # gcd(3, 15) = 3


# Frozen runs from an independent per-start probe over every l in Z_n.
FROZEN_RUNS = [
    (2, 7, (1,), 7, 8, 7),
    (2, 7, (1,), 15, 8, 7),
    (8, 9, (0, 2, 3, 4), 15, 18, 15),
    (8, 9, (0, 2, 3, 4), 31, 18, 464),
    (2, 5, (1,), 3, 6, 13),
    (2, 5, (1,), 7, 6, 7),
    (8, 11, (0, 1, 5, 7), 31, 32, 31),
    (8, 11, (0, 1, 5, 7), 63, 32, 31),
]


@pytest.mark.parametrize("r,m,S,v,run,start", FROZEN_RUNS)
def test_max_ap_run_frozen_oracle_values(r, m, S, v, run, start):
    cert = max_ap_run(_T(r, m, S), v)
    assert cert.run_length == run
    assert cert.start == start


def test_even_like_dual_run_extends_through_zero():
    t = _T(8, 9, (0, 2, 3, 4)).with_zero()
    cert = max_ap_run(t, 15)
    assert cert.run_length == 19 and cert.start == 0 and cert.d_lower == 20


def test_certificate_membership_and_maximality():
    rng = random.Random(5)
    for _ in range(40):
        m = rng.choice([3, 5, 7, 9])
        r = rng.choice([2, 4, 8])
        s = tuple(sorted(rng.sample(range(r), r // 2)))
        t = _T(r, m, s)
        n = t.n
        units = [v for v in range(1, n) if math.gcd(v, n) == 1]
        v = rng.choice(units)
        cert = max_ap_run(t, v)
        for i in range(cert.run_length):
            assert (cert.start + i * v) % n in t
        if 0 < cert.run_length < n:
            assert (cert.start - v) % n not in t
            assert (cert.start + cert.run_length * v) % n not in t
        assert (v * cert.gamma_exponent) % n == 1


def test_default_candidates():
    assert default_v_candidates(31) == [3, 7]
    assert default_v_candidates(511) == [15, 31]
    assert default_v_candidates(7) == [1, 3]
    # m = 6, 10: neither difference is a unit, so the plain BCH difference 1 is used
    assert default_v_candidates(63) == default_v_candidates(1023) == [1]


def test_best_certificate_default_and_explicit():
    t = _T(8, 9, (0, 2, 3, 4))
    assert best_certificate(t).d_lower == 19
    assert best_certificate(t, v_candidates=[31]).v == 31
    with pytest.raises(ValueError):
        best_certificate(t, v_candidates=[73])  # gcd(73, 511) = 73


def test_best_certificate_exhaustive():
    t = _T(2, 5, (1,))
    default = best_certificate(t)
    swept = best_certificate(t, _oracles.units(t.n))
    assert swept.run_length >= default.run_length


def test_exhaustive_sweep_never_beats_exact_distance():
    t = _T(2, 5, (1,))
    found = exact_min_distance(from_defining_set(t))
    assert best_certificate(t, _oracles.units(t.n)).d_lower <= found.lower


def test_lemma_window_values():
    assert lemma_window("L3", 9, 8, "S") == (15, 18)
    assert lemma_window("L3", 9, 8, "S'") == (31, 18)
    assert lemma_window("L4", 9, 8, "S") == (15, 16)
    # L5 splits on m mod 2r
    assert lemma_window("L5", 5, 2, "S") == (3, 6)    # m = t (mod 4)
    assert lemma_window("L5", 5, 2, "S'") == (7, 6)
    assert lemma_window("L5", 7, 2, "S") == (15, 8)   # m = t + r (mod 4)
    assert lemma_window("L5", 7, 2, "S'") == (7, 8)
    assert lemma_window("L6", 11, 8, "S") == (63, 34)  # t=3, m = t+r (mod 16)
    assert lemma_window("L6", 19, 8, "S") == (511, 512)  # t=3, m = t (mod 16)


def test_verify_lemma_membership_l3():
    spec = WeightClassSpec(r=8, m=9, S=(0, 2, 3, 4))
    assert verify_lemma_membership(spec, "L3", "S") is True
    assert verify_lemma_membership(spec, "L3", "S'") is True


def test_verify_lemma_membership_l4_valid_case():
    spec = WeightClassSpec(r=4, m=7, S=(1, 3))
    assert verify_lemma_membership(spec, "L4", "S") is True
    assert verify_lemma_membership(spec, "L4", "S'") is True


def test_lemma_hypothesis_violations_are_named():
    # t = 1 sits outside L4 regardless of S
    spec = WeightClassSpec(r=4, m=5, S=(1, 3))
    with pytest.raises(HypothesisError, match="t != 1"):
        verify_lemma_membership(spec, "L4", "S")
    # r = 2 sits outside L3
    with pytest.raises(HypothesisError, match="r > 2"):
        verify_lemma_membership(WeightClassSpec(r=2, m=5, S=(1,)), "L3", "S")
    # anchor residues missing from S
    with pytest.raises(HypothesisError, match="missing"):
        verify_lemma_membership(WeightClassSpec(r=8, m=9, S=(0, 2, 5, 6)), "L3", "S")
    with pytest.raises(ValueError, match="unknown lemma"):
        verify_lemma_membership(spec, "L7", "S")
    with pytest.raises(HypothesisError, match="checked"):
        verify_lemma_membership(WeightClassSpec(r=4, m=4, S=(0, 1), unchecked=True), "L4", "S")


def _lemma_outcome(check, spec, which, side):
    try:
        return check(spec, which, side)
    except HypothesisError as exc:
        return f"HypothesisError: {exc}"


# every catalog spec with even r <= 16 and odd m <= 13, and r = 16 up to m = 19
LEMMA_REFERENCE_CASES = [(r, m) for r in range(2, 17, 2) for m in range(3, 14, 2)] + [(16, 15), (16, 17), (16, 19)]


@pytest.mark.parametrize("r,m", LEMMA_REFERENCE_CASES)
def test_lemma_membership_matches_bitmap_reference(r, m):
    for s in enumerate_catalog(r, m % r):
        spec = WeightClassSpec(r=r, m=m, S=s)
        for which in LEMMA_IDS:
            for side in SIDES:
                expected = _lemma_outcome(_oracles.lemma_membership, spec, which, side)
                assert _lemma_outcome(verify_lemma_membership, spec, which, side) == expected, (spec, which, side)


def test_lemma_window_through_zero_is_outside_T(monkeypatch):
    # lemma windows never reach 0 (v is a unit and B < n), but were one to,
    # 0 is outside T even though w_2(0) = 0 lies in the class 0 of S
    spec = WeightClassSpec(r=8, m=9, S=(0, 2, 3, 4))

    def window(which, m, r, side):
        return spec.n, 1

    monkeypatch.setattr(bounds, "lemma_window", window)
    monkeypatch.setattr(_oracles, "lemma_window", window)
    assert verify_lemma_membership(spec, "L3", "S") is _oracles.lemma_membership(spec, "L3", "S") is False


def test_lemma_engine_agreement():
    # wherever a lemma applies, the maximal run with the same v covers its window
    for m in (5, 7, 9, 11):
        for r in (2, 4, 8):
            for s in enumerate_catalog(r, m % r):
                spec = WeightClassSpec(r=r, m=m, S=s)
                for which in ("L3", "L4", "L5", "L6"):
                    for side in ("S", "S'"):
                        try:
                            ok = verify_lemma_membership(spec, which, side)
                        except HypothesisError:
                            continue
                        assert ok, (m, r, s, which, side)
                        v, b = lemma_window(which, m, r, side)
                        target = spec if side == "S" else _oracles.complement_spec(spec)
                        assert max_ap_run(defining_set(target), v).run_length >= b


def test_classifier_certificate_soundness_small():
    for m in (5, 7, 9):
        for r in (2, 4, 8):
            for s in enumerate_catalog(r, m % r):
                spec = WeightClassSpec(r=r, m=m, S=s)
                verdict = classify(spec)
                if verdict.theorem == "none":
                    continue
                t = defining_set(spec)
                assert max_ap_run(t, verdict.v).run_length >= verdict.run_length
                assert best_certificate(t).d_lower >= verdict.d_lower


def test_dual_certificate_reaches_predicted_bound():
    # the zero exponent extends the guaranteed run by one term, so the dual
    # (even-like) defining set certifies one more than the primal bound
    for m in (3, 5, 7, 9, 11, 13):
        for r in (2, 4, 6, 8):
            for s in enumerate_catalog(r, m % r):
                spec = WeightClassSpec(r=r, m=m, S=s)
                verdict = classify(spec)
                if verdict.theorem == "none":
                    continue
                cert = best_certificate(defining_set(spec).with_zero())
                assert cert.d_lower >= verdict.d_dual_lower, (m, r, s)


def test_bounded_full_space_code():
    import duadic as D

    full = D.from_defining_set(DefiningSet(7, 0))
    found = D.bounded_min_distance(full, effort=0)
    assert found.lower == found.upper == 1 and found.exact


def test_coprime_differences():
    for m in range(3, 20, 2):
        n = (1 << m) - 1
        small = (1 << ((m - 1) // 2)) - 1
        big = (1 << ((m + 1) // 2)) - 1
        # both routes: direct integer gcd, and the two-power identity
        assert math.gcd(small, n) == 1
        assert math.gcd(big, n) == 1
        assert (1 << math.gcd((m - 1) // 2, m)) - 1 == 1
        assert (1 << math.gcd((m + 1) // 2, m)) - 1 == 1


def test_sqrt_bounds_values():
    assert sqrt_bounds(7) == 3
    assert sqrt_bounds(31) == 7  # 5^2 - 5 + 1 = 21 < 31 <= 43 = 7^2 - 7 + 1
    for n in (3, 7, 31, 127, 511, 2047, (1 << 20) - 1):
        d0 = sqrt_bounds(n)
        assert d0 % 2 == 1 and d0 * d0 - d0 + 1 >= n and (d0 - 2) ** 2 - (d0 - 2) + 1 < n
    with pytest.raises(ValueError):
        sqrt_bounds(1)
    with pytest.raises(ValueError):
        sqrt_bounds(8)


def test_min_odd_weight_meets_sqrt_equality_at_m3():
    # n = 7: the bound d0^2 - d0 + 1 >= n is met with equality by d0 = 3
    c = from_defining_set(_T(2, 3, (1,)))
    found = exact_min_distance(c)
    assert found.min_odd_weight == 3
    assert 3 * 3 - 3 + 1 == 7
    assert sqrt_bounds(7) == found.min_odd_weight


@settings(max_examples=100, deadline=None)
@given(st.integers(2, 13), st.sampled_from([2, 4, 6, 8, 16]), st.data())
def test_ap_run_is_invariant_on_the_orbit_of_v(m, r, data):
    # T is closed under doubling, so 2 * AP(v) is an AP(2v) in T; an AP read
    # backwards is an AP(-v). The longest run is therefore the same for v, 2v, -v.
    s = data.draw(st.lists(st.integers(0, r - 1), min_size=1, max_size=r - 1, unique=True))
    t = defining_set(WeightClassSpec(r=r, m=m, S=tuple(s), unchecked=True))
    n = t.n
    v = data.draw(st.integers(1, n - 1).filter(lambda v: math.gcd(v, n) == 1))
    run = max_ap_run(t, v).run_length
    assert max_ap_run(t, 2 * v % n).run_length == run
    assert max_ap_run(t, -v % n).run_length == run


@st.composite
def _ap_sets(draw):
    """A subset of Z_n, m <= 11: empty, full, a weight-class defining set,
    uniformly random, or full but for a few holes (long runs)."""
    m = draw(st.integers(2, 11))
    n = (1 << m) - 1
    full = (1 << n) - 1
    kind = draw(st.sampled_from(["empty", "full", "class", "random", "holes"]))
    if kind == "class":
        r = draw(st.sampled_from([2, 4, 6, 8, 16]))
        s = draw(st.lists(st.integers(0, r - 1), max_size=r - 1, unique=True))
        return defining_set(WeightClassSpec(r=r, m=m, S=tuple(s), unchecked=True))
    if kind == "random":
        return DefiningSet(n=n, bits=draw(st.integers(0, full)))
    if kind == "holes":
        holes = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=4))
        return DefiningSet(n=n, bits=full & ~sum(1 << h for h in set(holes)))
    return DefiningSet.full(n) if kind == "full" else DefiningSet(n, 0)


@settings(max_examples=60, deadline=None)
@given(_ap_sets())
def test_max_ap_run_matches_the_gather_reference_for_every_unit(t):
    n = t.n
    for v in range(1, n + 1):
        if math.gcd(v, n) == 1:
            assert max_ap_run(t, v) == _oracles.max_ap_run(t, v), v
