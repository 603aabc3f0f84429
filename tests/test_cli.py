import csv
import hashlib
import io
import json
import os
import subprocess
import sys
import time
import tracemalloc
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import duadic
from duadic import bounds, cli, gf2poly
from duadic.bounds import best_certificate, max_ap_run
from duadic.cli import _catalog_rows, main
from duadic.code import CyclicCode, dual, extend, from_defining_set
from duadic.cyclotomic import WeightClassSpec, defining_set
from duadic.mindist import exact_min_distance
from duadic.pairs import classify

from _oracles import from_leaders


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv, "--format", "json")
    return code, json.loads(out), err


def test_construct_r2_m5(capsys):
    code, payload, _ = run_json(capsys, "construct", "-r", "2", "-m", "5", "-S", "1")
    assert code == 0
    rep = payload["report"]
    assert rep["field"] == {"m": 5, "modulus_hex": "0x25"}
    assert (rep["n"], rep["k"]) == (31, 16)
    assert rep["duadic"] is True
    assert rep["theorem"]["d_lower"] == 7
    assert rep["bch"]["d_lower"] == 7
    assert rep["dual"]["k"] == 15
    assert rep["dual"]["bch"]["d_lower"] == 8
    assert rep["extended"] == {"n": 32, "k": 16, "self_dual": True, "doubly_even": True}
    rebuilt = from_leaders(rep["n"], rep["defining_set_leaders"])
    assert rebuilt.size == 15


def test_construct_json_round_trips_generators_and_leaders(capsys):
    code, payload, _ = run_json(capsys, "construct", "-r", "2", "-m", "5", "-S", "1")
    assert code == 0
    rep = payload["report"]
    c = from_defining_set(defining_set(WeightClassSpec(r=2, m=5, S=(1,))))
    assert int(rep["generator_hex"], 16) == c.g
    assert int(rep["dual"]["generator_hex"], 16) == dual(c).g
    assert from_leaders(rep["n"], rep["defining_set_leaders"]) == c.T
    assert from_leaders(rep["n"], rep["dual"]["defining_set_leaders"]) == c.T.with_zero()


def test_bch_falls_back_to_difference_one(capsys):
    # at m = 6 and m = 10 neither 2^((m-1)/2) - 1 nor 2^((m+1)/2) - 1 is a unit mod n
    code, payload, err = run_json(capsys, "construct", "-r", "4", "-m", "6", "-S", "0,1", "--unchecked")
    assert code == 0, err
    bch = payload["report"]["bch"]
    T = defining_set(WeightClassSpec(r=4, m=6, S=(0, 1), unchecked=True))
    assert bch["v"] == 1 and bch["d_lower"] == bch["run_length"] + 1 > 1
    assert all((bch["l"] + i) % T.n in T for i in range(bch["run_length"]))
    code, payload, err = run_json(capsys, "mindist", "-r", "4", "-m", "10", "-S", "0,1", "--unchecked")
    assert code == 0, err
    T = defining_set(WeightClassSpec(r=4, m=10, S=(0, 1), unchecked=True))
    assert payload["bound"]["lower"] == max_ap_run(T, 1).d_lower <= payload["bound"]["upper"]


def test_construct_r8_m9(capsys):
    code, payload, _ = run_json(capsys, "construct", "-r", "8", "-m", "9", "-S", "0,2,3,4")
    assert code == 0
    rep = payload["report"]
    assert (rep["n"], rep["k"]) == (511, 256)
    assert rep["theorem"]["theorem"] == "T4"
    assert rep["theorem"]["d_lower"] == 19
    assert rep["bch"]["d_lower"] == 19


def test_construct_non_duadic_exits_zero(capsys):
    code, payload, _ = run_json(capsys, "construct", "-r", "4", "-m", "5", "-S", "0,1", "--unchecked")
    assert code == 0
    assert payload["report"]["duadic"] is False
    assert payload["report"]["theorem"]["theorem"] == "none"
    # same spec without --unchecked is also fine: |S| = r/2 and m odd
    code, payload, _ = run_json(capsys, "construct", "-r", "4", "-m", "5", "-S", "0,1")
    assert code == 0 and payload["report"]["duadic"] is False


def test_construct_usage_errors(capsys):
    code, _, err = run_cli(capsys, "construct", "-r", "4", "-m", "5", "-S", "3,2")
    assert code == 2 and "strictly increasing" in err
    code, _, err = run_cli(capsys, "construct", "-r", "4", "-m", "5", "-S", "1,1")
    assert code == 2
    code, _, err = run_cli(capsys, "construct", "-r", "4", "-m", "6", "-S", "0,1")
    assert code == 2 and "odd" in err
    code, _, err = run_cli(capsys, "construct", "-r", "4", "-m", "5", "-S", "0,7")
    assert code == 2


def test_catalog_r8(capsys):
    code, payload, _ = run_json(capsys, "catalog", "-r", "8", "-t", "3")
    assert code == 0
    assert payload["count"] == 16
    sets = payload["sets"]
    for ref in ("0,1,4,5", "0,1,4,6", "0,1,5,7", "0,1,6,7",
                "0,2,4,5", "0,2,5,7", "0,2,6,7", "0,2,4,6"):
        assert ref in sets
    row = next(r for r in payload["rows"] if r["S"] == "0,1,5,7")
    assert row["theorem"] == "T7" and row["d_offset_case_t"] == 1
    row = next(r for r in payload["rows"] if r["S"] == "0,1,4,6")
    assert row["theorem"] == "T9"
    assert (row["d_offset_case_t"], row["d_offset_case_t_plus_r"]) == (1, 3)
    assert any("reference sets" in note for note in payload["notes"])


def test_catalog_offsets_match_the_theorem_table():
    # theorem -> (offset for m = t, offset for m = t + r (mod 2r)) in d >= 2^((m-1)/2) + offset
    reference = {"T4": (3, 3), "T7": (1, 1), "T8": (3, 1), "T9": (1, 3)}
    seen = set()
    for r in range(2, 17, 2):
        for t in range(1, r, 2):
            for row in _catalog_rows(r, t):
                offs = reference.get(row["theorem"])
                expected = (offs[0], offs[1], offs[0] + 1, offs[1] + 1, 4) if offs else (None,) * 5
                assert (row["d_offset_case_t"], row["d_offset_case_t_plus_r"], row["d_dual_offset_case_t"],
                        row["d_dual_offset_case_t_plus_r"], row["d_ext_offset"]) == expected, (r, t, row)
                seen.add(row["theorem"])
    assert seen == set(reference)


def test_catalog_offsets_agree_with_the_classifier_from_m5(capsys):
    # each offset column is the classifier's bound minus 2^((m-1)/2), at every odd m in 5..19 of the row's class
    for r in range(2, 17, 2):
        for t in range(1, r, 2):
            code, payload, _ = run_json(capsys, "catalog", "-r", str(r), "-t", str(t))
            assert code == 0
            ms = [m for m in range(5, 20, 2) if m % r == t]
            assert ms, (r, t)
            for m in ms:
                case = "t" if m % (2 * r) == t else "t_plus_r"
                half = 1 << ((m - 1) // 2)
                for row in payload["rows"]:
                    verdict = classify(WeightClassSpec(r=r, m=m, S=tuple(int(c) for c in row["S"].split(","))))
                    offsets = (row[f"d_offset_case_{case}"], row[f"d_dual_offset_case_{case}"], row["d_ext_offset"])
                    bounds = (verdict.d_lower, verdict.d_dual_lower, verdict.d_ext_lower)
                    assert row["theorem"] == verdict.theorem, (r, t, m, row)
                    assert offsets == tuple(d and d - half for d in bounds), (r, t, m, row)
    # at m = 3 the extended offset fails: the row claims d_ext >= 2 + 4, the extension is [8, 4, 4]
    assert classify(WeightClassSpec(r=2, m=3, S=(1,))).d_ext_lower == 4
    assert _catalog_rows(2, 1)[1]["d_ext_offset"] == 4
    code, payload, _ = run_json(capsys, "mindist", "-r", "2", "-m", "3", "-S", "1", "--code", "extended")
    assert code == 0 and (payload["n"], payload["k"]) == (8, 4)
    assert (payload["bound"]["lower"], payload["bound"]["upper"]) == (4, 4)


def test_catalog_r2(capsys):
    code, payload, _ = run_json(capsys, "catalog", "-r", "2", "-t", "1")
    assert code == 0 and payload["sets"] == ["0", "1"]


def test_catalog_guards(capsys):
    code, _, err = run_cli(capsys, "catalog", "-r", "8", "-t", "2")
    assert code == 2 and "odd" in err
    code, _, err = run_cli(capsys, "catalog", "-r", "18", "-t", "1")
    assert code == 2 and "capped" in err


def test_table_r2(capsys):
    code, payload, _ = run_json(capsys, "table", "-r", "2", "-S", "1", "-m", "3,5")
    assert code == 0
    rows = payload["rows"]
    assert [(r["n"], r["k"], r["exact_d"]) for r in rows] == [(7, 4, 3), (31, 16, 7)]
    assert [(r["ext_n"], r["ext_k"], r["ext_exact_d"]) for r in rows] == [(8, 4, 4), (32, 16, 8)]
    assert all(r["self_dual"] and r["doubly_even"] for r in rows)
    assert rows[1]["dual_exact_d"] == 8


def test_table_ext_exact_d_matches_the_extended_code(capsys):
    parities = set()
    for r, s, ms in [(2, "0", "4"), (4, "0,1", "3,5"), (2, "1", "3,5")]:
        code, payload, _ = run_json(capsys, "table", "-r", str(r), "-S", s, "-m", ms, "--unchecked")
        assert code == 0
        for row in payload["rows"]:
            spec = WeightClassSpec(r=r, m=row["m"], S=tuple(map(int, s.split(","))), unchecked=True)
            c = from_defining_set(defining_set(spec))
            assert row["ext_exact_d"] == exact_min_distance(extend(c)).lower, row
            parities.add(row["exact_d"] % 2)
    assert parities == {0, 1}


def test_table_certified_bounds_r8(capsys):
    code, payload, _ = run_json(capsys, "table", "-r", "8", "-S", "0,2,3,4", "-m", "9,17")
    assert code == 0
    rows = payload["rows"]
    assert [r["certified_d_lower"] for r in rows] == [19, 259]
    assert [r["predicted_d_lower"] for r in rows] == [19, 259]
    assert rows[0]["exact_d"] is None  # k = 256 is over the enumeration budget
    assert all(r["self_dual"] and r["doubly_even"] for r in rows)


def test_table_empty_m_list(capsys):
    code, payload, _ = run_json(capsys, "table", "-r", "2", "-S", "1", "-m", "")
    assert code == 0 and payload["rows"] == []


def test_table_all_catalog(capsys):
    code, payload, _ = run_json(capsys, "table", "-r", "4", "-S", "all", "-m", "5")
    assert code == 0
    assert len(payload["rows"]) == 4
    assert all(r["duadic"] for r in payload["rows"])


def test_table_row_error_inline(capsys):
    # an m far out of range must not be raised to 2^m - 1 on its way to the error
    code, payload, _ = run_json(capsys, "table", "-r", "2", "-S", "1", "-m", "4,-3,100000000000,5")
    assert code == 0
    rows = payload["rows"]
    assert rows[0]["error"] and "odd" in rows[0]["error"]
    assert rows[1]["error"] == "m=-3 outside supported range 2..20"
    assert rows[2]["error"] == "m=100000000000 outside supported range 2..20"
    assert rows[3]["error"] is None and rows[3]["exact_d"] == 7
    code, payload, _ = run_json(capsys, "table", "-r", "2", "-S", "all", "-m", "-3")
    assert code == 0 and {row["error"] for row in payload["rows"]} == {"m=-3 outside supported range 2..20"}
    # --v is checked only against an m that has rows to build
    code, payload, _ = run_json(capsys, "table", "-r", "2", "-S", "1", "-m", "1,5", "--v", "1")
    assert code == 0 and payload["rows"][0]["error"] == "m=1 outside supported range 2..20"
    assert payload["rows"][1]["error"] is None


def test_table_checks_every_v_before_any_row(capsys, monkeypatch):
    # 7 divides 511, so the m = 9 check fails; the m = 5 row must not be analysed first
    def analyze(*args):
        raise AssertionError("a row was analysed before every --v was checked")

    monkeypatch.setattr(cli, "_analyze", analyze)
    code, out, err = run_cli(capsys, "table", "-r", "2", "-S", "1", "-m", "5,9", "--v", "7")
    assert (code, out) == (2, "") and "7 is not a unit mod 511" in err


def test_table_invariant_failure_is_not_an_error_cell(capsys, monkeypatch):
    def broken_dual(code):
        raise AssertionError("generator times check polynomial is not x^n + 1")

    monkeypatch.setattr(cli, "dual", broken_dual)
    with pytest.raises(AssertionError, match="check polynomial"):
        main(["table", "-r", "2", "-S", "1", "-m", "3,5", "--format", "json"])
    assert capsys.readouterr().out == ""


def _count_class_products(monkeypatch):
    """The list that each product of one class's leaves, `gf2poly._class_poly`, appends its leaves to."""
    calls = []
    class_poly = gf2poly._class_poly

    def counted(q_leaves, r_leaves):
        calls.append((q_leaves, r_leaves))
        return class_poly(q_leaves, r_leaves)

    monkeypatch.setattr(gf2poly, "_class_poly", counted)
    return calls


def test_table_builds_each_class_polynomial_once(capsys, monkeypatch):
    calls = _count_class_products(monkeypatch)
    code, payload, _ = run_json(capsys, "table", "-r", "16", "-S", "all", "-m", "9")
    assert code == 0 and len(payload["rows"]) == 256
    assert all(row["error"] is None for row in payload["rows"])
    # one per pair {c, (9 - c) mod 16}, shared by all 256 rows; P_{(9-c) mod 16} is the reciprocal of P_c
    assert len(calls) == 8
    calls.clear()
    code, payload, _ = run_json(capsys, "table", "-r", "4", "-S", "0,1", "-m", "10", "--unchecked")
    assert code == 0 and payload["rows"][0]["error"] is None
    assert len(calls) == 3  # classes 1 and 3 pair with themselves, 0 with 2


def test_mindist_builds_from_the_class_polynomials(capsys, monkeypatch):
    calls = _count_class_products(monkeypatch)
    code, payload, _ = run_json(capsys, "mindist", "-r", "2", "-m", "9", "-S", "1", "--code", "dual")
    assert code == 0 and (payload["n"], payload["k"]) == (511, 255)
    # one per class pair {0, 1}: the dual's check polynomial comes from the same classes
    assert len(calls) == 1


# sha256 of stdout, recorded from the plain per-spec products, the gathered
# BCH run scans and the polynomial self-orthogonality products that the
# memoised class-subset products, bitmap rotations and the defining-set
# test replaced; the catalog, verify-lemmas, mindist and `--v` table digests
# were recorded before the table worker pool was removed, and the even-m and
# empty-class digests before class polynomials were paired under negation.
# The output may not change by a byte.
GOLDEN_DIGESTS = [
    ("table -r 8 -S all -m 3,5,7,9", "json", "aaa11b57a1d5ad574a018588c0a3ac6cec106dd3063f239251872e72c9d28f46"),
    ("table -r 8 -S all -m 3,5,7,9", "csv", "d6bd4f30c75d3ee3cc04cdbc1e1754dbdc8aaee6946874d4a00799a2cc04cf60"),
    ("table -r 16 -S all -m 9", "json", "454a4a529ef6c8d7e04d031280223c15613366e70350f4b8280cf44477c0c028"),
    ("table -r 16 -S all -m 9", "csv", "83b3be85019eee0f0d40d9edf2e81b2a8722fa806173ec737e5dfefe49aa2196"),
    ("construct -r 8 -m 9 -S 0,2,3,4", "json", "8448e39cb9f27f77c9b0b507068fbb7d56781bde323b7d2d2f51e3c84a8eed6b"),
    ("construct -r 8 -m 9 -S 0,2,3,4", "csv", "b0d2c77fda49ac88a5bbcbb36a6f2a01cf15310a246c9ff0b31c71563d37571c"),
    ("catalog -r 8 -t 3", "json", "c912085f5175dcadf20553176c104c25033f1fe904a6ae4f73360bb7483fe1f8"),
    ("verify-lemmas -r 8 -m 9,11", "json", "42837b9ea2f4f8dd48dc8b3827514c588708deb847a468df7e35528e04b97dbd"),
    ("mindist -r 2 -m 5 -S 1 --code dual", "json", "654f0a00051bc7f7bbd01b4b2f794a7e032e1d44e0f71bb9a12133006209db30"),
    ("mindist -r 2 -m 13 -S 1", "json", "22cbf78578c853491b88fa9b62f3ad2e3f50c6051d0800b3f984c0e93cec52ad"),
    ("mindist -r 2 -m 13 -S 1", "csv", "8874f22c21955f6a3b323caf25455209cf22280930aee0f11fa08a35d4caaf29"),
    ("table -r 8 -S all -m 3,5 --v 3", "json", "1f6d2ab24c8ffe6264d2c1c1b277642795f6dee439156a41ac050e3f6a3d950f"),
    # even m, where some classes pair with themselves, and r > m, where some classes are empty
    ("construct -r 4 -m 10 -S 0,1 --unchecked", "json", "618d8a5aa4bba62ace43ddb8bee76cfb7a5f090976d7431bf2e753dcd6bf1d30"),
    ("table -r 4 -S 0,1 -m 6,8,10 --unchecked", "json", "d470266bfab2f5c196b59441e515b0f4c4190fd109f612b9f1aa7aea07816b6e"),
    ("construct -r 16 -m 6 -S 1,2,3 --unchecked", "json", "1ab33f85b1601d2aef4ba22f6c08b7ef58db40fbfea7289233898ec4bc720e14"),
    # a field above m = 13: even m with self-paired classes, 14601 cosets
    ("construct -r 4 -m 18 -S 0,1 --unchecked", "json", "69fb9c9e4e8ad44b5eedba991c17358a07bc3f8d940cd775a11e02544379bba7"),
    # mindist's dual and extended codes, recorded while mindist built them coset by coset
    ("mindist -r 8 -m 9 -S 0,2,3,4 --code dual", "json", "be3f2fc92f9633e6971e6e3c4dbe46454c7d2122609bade382184dfed5924a17"),
    ("mindist -r 8 -m 9 -S 0,2,3,4 --code extended", "json", "f9340c2e6a1fae606c1f58b6e8c6edcaf87886f6bbb5035c0e6ee17f72297c6c"),
    ("mindist -r 16 -m 6 -S 1,2,3 --unchecked --code dual", "json", "de972cee2e7eff1b8470c04dae74874d5f6fb55de43d020051cfa8fc564706af"),
    ("mindist -r 4 -m 10 -S 0,1 --unchecked --code dual", "json", "3c852611f7090eab44e7abe8c4a2c4fe37d35c528fb72197fa5aa14396036686"),
    # 6144 rows, recorded while the JSON document was written in several row batches
    ("verify-lemmas -r 16 -m 9,11,13", "json", "5b0ceb181d2924d2bd204eeacb695f949482cb8da76d42806db92869f5230aae"),
    ("verify-lemmas -r 16 -m 9,11,13", "csv", "cc80eea0ac94afa4b34487410956c1c4473b2cd505392b599214568ef6c3b4d5"),
    # the 256-row catalog that each survey op of the benchmark builds, every row classified
    ("catalog -r 16 -t 7", "json", "d655a42fe6a18ef872b91e82b9ee77c2717986676f5c9fd7065623d9f706303f"),
    ("catalog -r 16 -t 7", "csv", "31ff663f767f69d73e6e7e7e5e41775dea8afd132da29c53843db8da6926d195"),
    # the k = 23 transform of the benchmark's distance workload, recorded while it read n-bit generator rows
    ("mindist -r 12 -m 11 -S 0,2,3,4,5,6,7,8,9,11 --unchecked", "json",
     "bc54d162bc01800b9584ebdd67610b39ccb8047ee2ac347e41fee623f5a46e34"),
    ("mindist -r 12 -m 11 -S 0,2,3,4,5,6,7,8,9,11 --unchecked --code extended", "json",
     "307dee42db8c78b62b434c73c4be62d9e1cd639a062d732aadc43662f411ad0b"),
    # a long code with small k, [131071, 18], recorded while the transform took 12 low message bits at every n
    ("mindist -r 16 -m 17 -S 1,2,3,4,5,6,7,8,9,10,11,12,13,14,15 --unchecked", "json",
     "1fa6dbc757277f04d517e13ffbe3a75a0c81df3301222c00ea7f555cad13368a"),
]


@pytest.mark.parametrize("command,fmt,digest", GOLDEN_DIGESTS)
def test_output_matches_the_recorded_digest(capsys, command, fmt, digest):
    code, out, err = run_cli(capsys, *command.split(), "--format", fmt)
    assert code == 0, err
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_zero_dual_gets_no_distance_bound(capsys):
    # S = {0} at m = 2 leaves T empty: C is all of GF(2)^3 and its dual the zero code
    code, payload, _ = run_json(capsys, "table", "-r", "2", "-S", "0", "-m", "2", "--unchecked")
    assert code == 0
    row = payload["rows"][0]
    assert (row["k"], row["exact_d"], row["ext_exact_d"], row["dual_k"]) == (3, 1, 2, 0)
    assert row["dual_certified_d_lower"] is None and row["dual_exact_d"] is None
    assert row["error"] == "dual: the zero code has no nonzero codeword"
    code, payload, _ = run_json(capsys, "construct", "-r", "2", "-S", "0", "-m", "2", "--unchecked")
    assert code == 0 and payload["report"]["dual"]["k"] == 0 and payload["report"]["dual"]["bch"] is None
    code, out, _ = run_cli(capsys, "construct", "-r", "2", "-S", "0", "-m", "2", "--unchecked", "--format", "csv")
    assert code == 0 and next(csv.DictReader(io.StringIO(out)))["dual_certified_d_lower"] == ""
    code, out, _ = run_cli(capsys, "construct", "-r", "2", "-S", "0", "-m", "2", "--unchecked")
    assert code == 0 and "dual       [3,0] zero code" in out
    code, out, err = run_cli(capsys, "mindist", "-r", "2", "-S", "0", "-m", "2", "--unchecked", "--code", "dual")
    assert (code, out, err) == (2, "", "error: the zero code has no nonzero codeword\n")


def test_verify_lemmas(capsys):
    code, payload, _ = run_json(capsys, "verify-lemmas", "-r", "8", "-m", "9,11")
    assert code == 0 and payload["failures"] == 0
    statuses = {row["status"] for row in payload["rows"]}
    assert statuses == {"pass", "skip"}
    passed = [r for r in payload["rows"] if r["status"] == "pass"]
    assert passed, "at least some lemma cells must apply"
    l3 = [r for r in passed if r["lemma"] == "L3" and r["m"] == 9 and r["side"] == "S"]
    assert all(r["v"] == 15 and r["window"] == 18 for r in l3)
    code, _, err = run_cli(capsys, "verify-lemmas", "-r", "8", "-m", "4")
    assert code == 2


def test_verify_lemmas_words_one_hypothesis_error_per_skipped_lemma(capsys, monkeypatch):
    worded = []

    class CountedHypothesisError(bounds.HypothesisError):
        def __init__(self, message):
            worded.append(message)
            super().__init__(message)

    monkeypatch.setattr(bounds, "HypothesisError", CountedHypothesisError)
    code, payload, _ = run_json(capsys, "verify-lemmas", "-r", "8", "-m", "9,11")
    assert code == 0
    skipped = [row for row in payload["rows"] if row["status"] == "skip"]
    by_lemma = {}
    for row in skipped:
        by_lemma.setdefault((row["m"], row["S"], row["lemma"]), []).append(row["detail"])
    # both sides of a skipped (spec, lemma) share one message
    assert by_lemma and all(len(details) == 2 and len(set(details)) == 1 for details in by_lemma.values())
    assert len(worded) == len(by_lemma)


def test_mindist_exact_and_dual(capsys):
    code, payload, _ = run_json(capsys, "mindist", "-r", "2", "-m", "5", "-S", "1")
    assert code == 0
    assert payload["bound"]["lower"] == 7 and payload["bound"]["exact"]
    code, payload, _ = run_json(capsys, "mindist", "-r", "2", "-m", "5", "-S", "1", "--code", "dual")
    assert payload["bound"]["lower"] == 8
    code, payload, _ = run_json(capsys, "mindist", "-r", "2", "-m", "5", "-S", "1", "--code", "extended")
    assert payload["bound"]["lower"] == 8 and payload["n"] == 32


def test_mindist_bounded_above_budget(capsys):
    code, payload, _ = run_json(
        capsys, "mindist", "-r", "2", "-m", "7", "-S", "1", "--effort", "5", "--seed", "11")
    assert code == 0
    bound = payload["bound"]
    assert bound["method"] == "bch+information-set"
    assert bound["lower"] == 9 and bound["upper"] >= 9
    assert bound["seed"] == 11 and bound["effort"] == 5


def _count_generator_rows(monkeypatch):
    """Record the index of every generator row the code is asked for."""
    read = []
    generator_row = CyclicCode.generator_row

    def counted(self, i):
        read.append(i)
        return generator_row(self, i)

    monkeypatch.setattr(CyclicCode, "generator_row", counted)
    return read


def test_mindist_search_over_the_memory_budget_is_refused(capsys, monkeypatch):
    # [131071, 65536]: the search's packed rows, columns and reduced rows would take about 3.5 GiB
    read = _count_generator_rows(monkeypatch)
    code, out, err = run_cli(capsys, "mindist", "-r", "2", "-m", "17", "-S", "1", "--effort", "1")
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "budget" in err
    assert read == []


def test_mindist_effort_zero_reads_one_generator_row(capsys, monkeypatch):
    c = from_defining_set(defining_set(WeightClassSpec(r=2, m=17, S=(1,))))
    read = _count_generator_rows(monkeypatch)
    code, payload, _ = run_json(capsys, "mindist", "-r", "2", "-m", "17", "-S", "1", "--effort", "0")
    assert code == 0 and read == [0]
    bound = payload["bound"]
    assert (bound["lower"], bound["upper"]) == (best_certificate(c.T).d_lower, c.g.bit_count())
    assert bound["witness_hex"] == f"{c.g:#x}"


def test_json_output_is_deterministic(capsys):
    _, out1, _ = run_cli(capsys, "construct", "-r", "8", "-m", "9", "-S", "0,2,3,4", "--format", "json")
    _, out2, _ = run_cli(capsys, "construct", "-r", "8", "-m", "9", "-S", "0,2,3,4", "--format", "json")
    assert out1 == out2
    _, o1, _ = run_cli(capsys, "mindist", "-r", "2", "-m", "7", "-S", "1",
                       "--effort", "3", "--seed", "5", "--format", "json")
    _, o2, _ = run_cli(capsys, "mindist", "-r", "2", "-m", "7", "-S", "1",
                       "--effort", "3", "--seed", "5", "--format", "json")
    assert o1 == o2


def test_csv_output(capsys):
    code, out, _ = run_cli(capsys, "table", "-r", "2", "-S", "1", "-m", "3,5", "--format", "csv")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0][:5] == ["r", "m", "S", "n", "k"]
    assert len(rows) == 3
    assert rows[1][3] == "7" and rows[2][3] == "31"


def test_construct_and_table_csv_agree_on_shared_columns(capsys):
    spec = ("-r", "8", "-m", "9", "-S", "0,2,3,4")
    rows = {}
    for command in ("construct", "table"):
        code, out, _ = run_cli(capsys, command, *spec, "--format", "csv")
        assert code == 0
        (rows[command],) = csv.DictReader(io.StringIO(out))
    shared = set(cli.CONSTRUCT_COLUMNS) & set(cli.TABLE_COLUMNS)
    assert len(shared) == 17
    assert {col: rows["construct"][col] for col in shared} == {col: rows["table"][col] for col in shared}
    assert rows["table"]["certified_d_lower"] == "19" and rows["table"]["theorem"] == "T4"


def test_out_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out, _ = run_cli(capsys, "construct", "-r", "2", "-m", "3", "-S", "1",
                           "--format", "json", "--out", str(target))
    assert code == 0 and out == ""
    payload = json.loads(target.read_text())
    assert payload["report"]["n"] == 7


_LEMMAS_1_5_MB = ("verify-lemmas", "-r", "16", "-m", "9,11,13", "--format", "json")


def test_1_5_mb_json_stdout_equals_out_file(tmp_path, capsys):
    target = tmp_path / "lemmas.json"
    code, out, _ = run_cli(capsys, *_LEMMAS_1_5_MB)
    assert code == 0 and len(out) > 1_000_000
    code, empty, _ = run_cli(capsys, *_LEMMAS_1_5_MB, "--out", str(target))
    assert code == 0 and empty == ""
    assert target.read_bytes() == out.encode()


class _DiscardingSink:
    """A stdout stand-in that keeps only the number of characters written to it."""

    def __init__(self):
        self.chars = 0

    def write(self, text):
        self.chars += len(text)


def test_json_output_peaks_below_three_times_its_size(monkeypatch):
    args = cli.build_parser().parse_args(["verify-lemmas", "-r", "16", "-m", "9,11,13,15,17,19", "--format", "json"])
    _, payload, rows, columns, text = args.handler(args)
    assert len(rows) == 12288
    sink = _DiscardingSink()
    monkeypatch.setattr(sys, "stdout", sink)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        cli._emit(args, payload, rows, columns, text)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    # at most two copies of the text at once; holding every chunk and the joined document, as json.dumps(indent=2) does, is about 6.9x
    assert peak < 3 * sink.chars


# strings that look like row joints, escaped newlines, U+2028 and non-ASCII text
_JSON_CHARS = ["}", ",", "{", "[", "]", '"', "\\", "\n", " ", "\u2028", "\u00e9", "\u6f22", "\U0001f600"]
_JSON_TEXT = st.one_of(
    st.text(st.sampled_from(_JSON_CHARS), max_size=6),
    st.sampled_from(["},", "},\n      {", "},\n    {", "{}", "\n  "]),
    st.text(max_size=4),
)
_JSON_SCALARS = st.one_of(
    st.none(), st.booleans(), _JSON_TEXT,
    st.integers(min_value=-(1 << 80), max_value=1 << 80),
    st.sampled_from([-0.0, 0.0, 1e300, -1e-300, 0.1]), st.floats(allow_nan=False),
)
# flat dicts with differing key sets (some empty), as in a command's rows
_JSON_ROWS = st.lists(st.dictionaries(_JSON_TEXT, _JSON_SCALARS, max_size=4), max_size=7)
_JSON_DOCUMENTS = st.recursive(
    st.one_of(_JSON_SCALARS, _JSON_ROWS),
    lambda inner: st.one_of(st.lists(inner, max_size=4), st.dictionaries(_JSON_TEXT, inner, max_size=4)),
    max_leaves=24,
)


@settings(max_examples=400, deadline=None)
@given(document=_JSON_DOCUMENTS)
# a row list whose strings look like the joint of two rows, and a row with other keys
@example(document={"rows": [{"S": "0,1", "detail": "},\n    {", "v": i} for i in range(7)] + [{"other": None}], "r": 2})
def test_json_batches_equal_indented_dumps(document):
    assert "".join(cli._json_parts(document)) == json.dumps(document, sort_keys=True, indent=2)


def test_json_batches_of_a_row_list_span_several_batches():
    # rows and scalars that look like the joints and separators, over many JSON_BATCH_ITEMS slices
    rows = [{"S": "0,1", "detail": "},\n    {", "v": i} for i in range(3 * 1024 + 1)] + [{"other": None}]
    scalars = ["},\n    {", ",\n  ", *range(3 * cli.JSON_BATCH_ITEMS), None, True, 0.5]
    document = {"rows": rows, "r": 2, "scalars": scalars}
    with mock.patch.object(cli.json, "dumps", wraps=json.dumps) as dumps:
        text = "".join(cli._json_parts(document))
    assert text == json.dumps(document, sort_keys=True, indent=2)
    # every item goes through the C encoder once, at most JSON_BATCH_ITEMS of them per call
    slices = [call.args[0] for call in dumps.call_args_list if isinstance(call.args[0], list)]
    assert max(map(len, slices)) == cli.JSON_BATCH_ITEMS
    assert sum(map(len, slices)) == len(rows) + len(scalars)


def test_long_json_lists_peak_below_three_times_their_text():
    # 800 rows of 25 fields and 20000 leaders, as in the table and construct reports: a C-encoder
    # call holds every small string it makes, 5.1x the text here when each list was one call
    rows = [{f"field_{j:02}": i * j for j in range(25)} for i in range(800)]
    document = {"rows": rows, "defining_set_leaders": list(range(100000, 120000))}
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        chars = sum(map(len, cli._json_parts(document)))
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak < 3 * chars


def test_custom_v_candidates(capsys):
    code, payload, _ = run_json(capsys, "construct", "-r", "8", "-m", "9", "-S", "0,2,3,4",
                                "--v", "31")
    assert code == 0 and payload["report"]["bch"]["v"] == 31
    code, _, err = run_cli(capsys, "construct", "-r", "8", "-m", "9", "-S", "0,2,3,4", "--v", "xy")
    assert code == 2
    code, _, err = run_cli(capsys, "construct", "-r", "8", "-m", "9", "-S", "0,2,3,4", "--v", "73")
    assert code == 2 and "unit" in err
    code, _, err = run_cli(capsys, "construct", "-r", "8", "-m", "9", "-S", "0,2,3,4", "--v", "")
    assert code == 2 and "at least one" in err


def test_no_command_prints_help(capsys):
    code, out, _ = run_cli(capsys)
    assert code == 2 and "construct" in out


@pytest.mark.parametrize("argv", [
    ("table", "-r", "4", "-S", "all", "-m", "5,7"),
    ("mindist", "-r", "2", "-m", "5", "-S", "1"),
], ids=["table", "mindist"])
def test_output_ignores_the_retired_threads_variable(capsys, monkeypatch, argv):
    # DUADIC_THREADS once chose a worker pool for table rows; no value of it
    # changes the output or the exit code now
    monkeypatch.delenv("DUADIC_THREADS", raising=False)
    unset = run_cli(capsys, *argv, "--format", "json")
    assert unset[0] == 0 and unset[2] == ""
    for text in ("abc", "3"):
        monkeypatch.setenv("DUADIC_THREADS", text)
        assert run_cli(capsys, *argv, "--format", "json") == unset


def test_text_format_default(capsys):
    code, out, _ = run_cli(capsys, "construct", "-r", "2", "-m", "5", "-S", "1")
    assert code == 0
    assert "[31,16]" in out and "duadic     yes" in out
    g = from_defining_set(defining_set(WeightClassSpec(r=2, m=5, S=(1,)))).g
    assert f"generator  degree 15, {gf2poly.to_hex(g)}  ({gf2poly.pretty(g)})\n" in out


def test_negative_seed_is_a_usage_error(capsys):
    code, out, err = run_cli(capsys, "mindist", "-r", "2", "-m", "7", "-S", "1", "--effort", "1", "--seed", "-1")
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "--seed" in err


def test_unwritable_out_is_a_usage_error(tmp_path, capsys):
    target = tmp_path / "missing" / "x.json"
    code, out, err = run_cli(capsys, "construct", "-r", "2", "-m", "3", "-S", "1", "--out", str(target))
    assert code == 2 and out == ""
    assert err.startswith("error: ") and str(target) in err
    assert not target.exists()


def test_negative_effort_is_a_usage_error(capsys):
    code, out, err = run_cli(capsys, "mindist", "-r", "2", "-m", "7", "-S", "1", "--effort", "-3")
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "--effort" in err


@pytest.mark.parametrize("argv,message", [
    (("verify-lemmas", "-r", "16", "-m", "21"), "m=21 outside supported range 2..20"),
    (("verify-lemmas", "-r", "16", "-m", "1"), "m=1 outside supported range 2..20"),
    (("verify-lemmas", "-r", "16", "-m", "-3"), "m=-3 outside supported range 2..20"),
    (("verify-lemmas", "-r", "16", "-m", "9,21"), "m=21 outside supported range 2..20"),
    (("verify-lemmas", "-r", "0", "-m", "9"), "r must be a positive even integer, got 0"),
    (("table", "-r", "0", "-S", "all", "-m", "9"), "r must be a positive even integer, got 0"),
    (("table", "-r", "3", "-S", "0", "-m", "9"), "r must be a positive even integer, got 3"),
    (("verify-lemmas", "-r", "3", "-m", ""), "r must be a positive even integer, got 3"),
    # r is checked before -S, whose residues must lie in Z_r
    (("construct", "-r", "0", "-m", "3", "-S", "0"), "r must be a positive even integer, got 0"),
    (("construct", "-r", "-2", "-m", "3", "-S", "x"), "r must be a positive even integer, got -2"),
    (("mindist", "-r", "3", "-m", "9", "-S", "0"), "r must be a positive even integer, got 3"),
    (("mindist", "-r", "42", "-m", "9", "-S", "0", "--unchecked"), "r must be at most 40, got 42"),
    (("table", "-r", "42", "-S", "all", "-m", "9"), "r must be at most 40, got 42"),
    (("catalog", "-r", "42", "-t", "1"), "r must be at most 40, got 42"),
])
def test_bad_r_or_m_is_a_usage_error(capsys, argv, message):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert err == f"error: {message}\n"


@pytest.mark.parametrize("argv", [
    ("construct", "-r", "100000000", "-m", "3", "-S", "0", "--unchecked"),
    ("table", "-r", "100000000", "-S", "0", "-m", "3", "--unchecked"),
    ("mindist", "-r", "100000000", "-m", "3", "-S", "0", "--unchecked"),
])
def test_huge_r_is_refused_before_any_class_is_built(capsys, argv):
    # spec setup is O(r); above 2 * M_MAX = 40 every further class is empty
    start = time.perf_counter()
    code, out, err = run_cli(capsys, *argv)
    assert time.perf_counter() - start < 1.0
    assert (code, out, err) == (2, "", "error: r must be at most 40, got 100000000\n")


def _run_fresh(script, *args):
    """stdout of script, given args, run by a fresh interpreter that imports duadic from this source tree."""
    src = os.path.dirname(os.path.dirname(duadic.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    return subprocess.run([sys.executable, "-c", script, *args], env=env, capture_output=True, text=True,
                          check=True).stdout


_CATALOG_AND_LEMMAS_WITHOUT_NUMPY = """
import contextlib, io, json, sys
from duadic.cli import main

def run(*argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(list(argv))
    return code, out.getvalue()

assert run("catalog", "-r", "16", "-t", "3")[0] == 0
assert run("verify-lemmas", "-r", "16", "-m", "9,19")[0] == 0
loaded = sorted(name for name in sys.modules if name.startswith("numpy."))
print(json.dumps({"numpy_modules": loaded, "construct": run("construct", "-r", "8", "-m", "9", "-S", "0,2,3,4")}))
"""


def test_catalog_and_verify_lemmas_never_load_numpy(capsys):
    found = json.loads(_run_fresh(_CATALOG_AND_LEMMAS_WITHOUT_NUMPY))
    assert found["numpy_modules"] == []
    # numpy loads on first use in the same process, and construct's output is unchanged
    code, out, _ = run_cli(capsys, "construct", "-r", "8", "-m", "9", "-S", "0,2,3,4")
    assert found["construct"] == [code, out]


_MINDIST_RANDOM_MODULE = """
import contextlib, io, json, sys
from duadic.cli import main

loaded = []
for effort in ("0", "1"):
    with contextlib.redirect_stdout(io.StringIO()):
        code = main(["mindist", "-r", "2", "-m", "9", "-S", "1", "--effort", effort])
    loaded.append([code, "numpy" in sys.modules, "numpy.random" in sys.modules])
print(json.dumps(loaded))
"""


def test_mindist_never_imports_numpy_random():
    # the search draws its permutations from the standard library's random, with or without a trial
    assert json.loads(_run_fresh(_MINDIST_RANDOM_MODULE)) == [[0, True, False], [0, True, False]]


_BLAS_THREADS = """
import contextlib, io, json, os, sys
user = sys.argv[1] if len(sys.argv) > 1 else None
os.environ.pop("OPENBLAS_NUM_THREADS", None)
if user:
    os.environ["OPENBLAS_NUM_THREADS"] = user
from duadic.cli import main

imported = os.environ.get("OPENBLAS_NUM_THREADS")
with contextlib.redirect_stdout(io.StringIO()):
    code = main(["construct", "-r", "8", "-m", "9", "-S", "0,2,3,4"])
print(json.dumps([code, "numpy" in sys.modules, imported, os.environ.get("OPENBLAS_NUM_THREADS"),
                  len(os.listdir("/proc/self/task"))]))
"""


@pytest.mark.skipif(sys.platform != "linux", reason="counts the threads in /proc/self/task")
def test_cli_starts_no_blas_worker_and_keeps_a_user_setting():
    # no command calls BLAS, so main caps OpenBLAS at the calling thread before numpy loads; importing duadic sets
    # nothing, and a value the user set is kept
    assert json.loads(_run_fresh(_BLAS_THREADS)) == [0, True, None, "1", 1]
    assert json.loads(_run_fresh(_BLAS_THREADS, "2"))[:4] == [0, True, "2", "2"]


_NUMPY_MA_MODULE = """
import contextlib, io, json, sys
from duadic.cli import main

loaded = []
for argv in (["construct", "-r", "8", "-m", "9", "-S", "0,2,3,4"], ["table", "-r", "8", "-S", "all", "-m", "3,5,7"],
             ["mindist", "-r", "2", "-m", "7", "-S", "1", "--effort", "2"]):
    with contextlib.redirect_stdout(io.StringIO()):
        code = main(argv)
    loaded.append([code, "numpy" in sys.modules, "numpy.ma" in sys.modules])
print(json.dumps(loaded))
"""


def test_numpy_commands_never_import_numpy_ma():
    # np.unique imports numpy.ma on first use; the minimal polynomial table does without it
    assert json.loads(_run_fresh(_NUMPY_MA_MODULE)) == [[0, True, False]] * 3


_IMPORT_CHAIN = """
import json, sys
chain = ("dataclasses", "inspect", "ast", "dis", "tokenize")
loaded = []
for module in ("duadic", "duadic.cli"):
    __import__(module)
    loaded.append([name for name in chain if name in sys.modules])
print(json.dumps(loaded))
"""


def test_import_loads_no_dataclasses_chain():
    # every command starts a fresh interpreter; dataclasses and the inspect, ast and dis it imports cost each about
    # 11 ms, so the value types are built without them
    assert json.loads(_run_fresh(_IMPORT_CHAIN)) == [[], []]
