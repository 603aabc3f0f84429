"""Tests of the benchmark's own logic: span self time, per-layer
aggregation, error counting and output checks.

    python3 -m pytest perfbench -q
"""

import json
import subprocess
import sys
import time
from itertools import count
from pathlib import Path

from checks import check_output, digest, load_reference, spec_key
from harness import PassResult, ProcResult, child_env, judge, run_pass, run_process
from run import END_TO_END, ROOT
from tracing import PER_LAYER, Tracer, layer_values, self_times
from workloads import WORKLOADS, Op, ops_for


def _span(name, start, end, parent=-1, op=0):
    return [name, start, end, parent, op]


def test_self_time_subtracts_direct_children_only():
    spans = [
        _span("cli.op", 0, 100),
        _span("code.dual", 10, 40, parent=0),
        _span("gf2poly.check_poly", 20, 30, parent=1),
        _span("gf2poly.mul", 50, 60, parent=0),
    ]
    assert self_times(spans) == [60, 20, 10, 10]


def test_self_time_clips_children_and_merges_overlaps():
    spans = [
        _span("a", 0, 100),
        _span("b", 10, 50, parent=0),
        _span("c", 40, 70, parent=0),  # overlaps b by 10
        _span("d", 90, 130, parent=0),  # runs past the parent's end
    ]
    assert self_times(spans)[0] == 100 - (60 + 10)


def test_tracer_records_parents_ops_and_counters():
    tracer = Tracer(clock=count(0, 10).__next__)
    leaf = tracer.wrap("gf2poly.mul", lambda a, b: a ^ b)
    inner = tracer.count(leaf, lambda counters, a, b: counters.__setitem__("bits", counters["bits"] + a + b))
    outer = tracer.wrap("code.dual", lambda: inner(1, 2) + inner(4, 8))
    tracer.op_id = 3
    assert outer() == 15
    names_parents_ops = [(s[0], s[3], s[4]) for s in tracer.spans]
    assert names_parents_ops == [("code.dual", -1, 3), ("gf2poly.mul", 0, 3), ("gf2poly.mul", 0, 3)]
    assert tracer.counters["bits"] == 15
    assert all(end > start for _, start, end, _, _ in tracer.spans)


def test_layer_values_aggregate_self_time_calls_and_counters():
    ms = 1_000_000
    spans = [
        _span("cli.op", 0, 100 * ms),
        _span("code.from_defining_set", 0, 80 * ms, parent=0),
        _span("gf2poly.mul", 10 * ms, 40 * ms, parent=1),
        _span("gf2poly.mul", 50 * ms, 60 * ms, parent=1),
        _span("mindist.exact", 80 * ms, 90 * ms, parent=0),
    ]
    counters = {"mindist.codewords_enumerated": 1000, "mindist.isd_trials": 0, "cli.output_bytes": 7}
    counters = {**{name: 0 for name, _ in PER_LAYER}, **counters}
    values = layer_values(spans, counters)
    assert set(values) == {name for name, _ in PER_LAYER} - {"trace.overhead_s"}
    assert values["gf2poly.mul_calls"] == 2
    assert abs(values["gf2poly.mul_s"] - 0.040) < 1e-12
    assert abs(values["code.from_defining_set_s"] - 0.040) < 1e-12
    assert abs(values["cli.op_s"] - 0.100) < 1e-12
    assert abs(values["cli.self_s"] - 0.010) < 1e-12
    assert abs(values["mindist.gray_ns_per_codeword"] - 10_000.0) < 1e-6
    assert values["mindist.isd_s_per_trial"] == 0.0
    assert abs(values["gf2poly.layer_self_s"] + values["code.layer_self_s"] + values["mindist.layer_self_s"]
               + values["cli.self_s"] - values["cli.op_s"]) < 1e-12


def test_install_wraps_every_target_and_keeps_output():
    script = """
import io, json, contextlib
from tracing import Tracer, install, layer_values
import duadic.cli
def run():
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        duadic.cli.main(["construct", "-r", "2", "-m", "5", "-S", "1", "--format", "json"])
    return buf.getvalue()
plain = run()
tracer = Tracer()
missing = install(tracer)
traced = run()
values = layer_values(tracer.spans, tracer.counters)
print(json.dumps({"missing": missing, "same": plain == traced, "names": sorted({s[0] for s in tracer.spans}),
                  "values": values}))
"""
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, timeout=60,
                          env=child_env(ROOT), cwd=Path(__file__).parent)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    assert out["missing"] == [] and out["same"]
    assert {"cli.op", "gf2m.field", "cyclotomic.defining_set", "gf2poly.minimal_poly", "gf2poly.mul",
            "code.dual", "code.self_orthogonality", "bounds.best_certificate", "pairs.classify"} <= set(out["names"])
    values = out["values"]
    assert values["code.self_orthogonality_calls"] == 2
    assert values["cyclotomic.cosets"] == values["gf2poly.minimal_poly_calls"] > 0
    assert values["bounds.ap_runs_scanned"] > 0


OK_JSON = b'{"command": "catalog"}\n'
SMALL_ISD = Op(("mindist", "-r", "2", "-m", "3", "-S", "1", "--effort", "5", "--seed", "9"), isd_spec=(2, 3, "1"))
REFERENCE = {"digests": {"catalog -r 16 -t 1": digest(OK_JSON)}, "generators": {spec_key((2, 3, "1")): "0xb"}}


def _isd_output(lower=3, upper=3, witness=0xB, k=4, seed=9):
    return json.dumps({
        "command": "mindist", "code": "primal", "n": 7, "k": k,
        "spec": {"r": 2, "m": 3, "S": [1]},
        "bound": {"lower": lower, "upper": upper, "witness_hex": hex(witness), "seed": seed, "effort": 5},
    }).encode()


def test_digest_check():
    op = Op(("catalog", "-r", "16", "-t", "1"))
    assert check_output(op, OK_JSON, REFERENCE) == (None, None)
    assert check_output(op, OK_JSON + b" ", REFERENCE)[0] == "output differs from the reference digest"
    assert check_output(Op(("catalog", "-r", "16", "-t", "3")), OK_JSON, REFERENCE)[0] is not None
    assert check_output(op, b"Traceback", REFERENCE)[0] == "stdout is not JSON"


def test_isd_structural_check():
    assert check_output(SMALL_ISD, _isd_output(), REFERENCE) == (None, 0)
    assert check_output(SMALL_ISD, _isd_output(lower=2, upper=4, witness=0b11101), REFERENCE) == (None, 2)
    assert check_output(SMALL_ISD, _isd_output(witness=0b111), REFERENCE)[0] == "witness is not a codeword"
    assert "witness weight" in check_output(SMALL_ISD, _isd_output(upper=4), REFERENCE)[0]
    assert "invalid interval" in check_output(SMALL_ISD, _isd_output(lower=5, upper=3), REFERENCE)[0]
    assert "does not match" in check_output(SMALL_ISD, _isd_output(k=3), REFERENCE)[0]
    assert "not echoed" in check_output(SMALL_ISD, _isd_output(seed=8), REFERENCE)[0]
    assert check_output(SMALL_ISD, b'{"command": "mindist"}', REFERENCE)[0].startswith("malformed")


def _proc(stdout=b"", returncode=0, timed_out=False, wall_s=1.0, rss_kb=100):
    return ProcResult(wall_s, rss_kb, returncode, stdout, b"Traceback\nMemoryError", timed_out)


def test_error_counting_over_a_pass():
    catalog = Op(("catalog", "-r", "16", "-t", "1"))
    outcomes = {
        0: _proc(OK_JSON),
        1: _proc(returncode=1),
        2: _proc(timed_out=True, returncode=-9),
        3: _proc(OK_JSON.replace(b"catalog", b"table")),
        4: _proc(_isd_output(lower=2, upper=4, witness=0b11101), rss_kb=900),
    }
    ops = [catalog] * 4 + [SMALL_ISD]
    calls = iter(range(len(ops)))
    result = run_pass(ops, REFERENCE, deadline=time.monotonic() + 60, run=lambda op, timeout: outcomes[next(calls)])
    assert (result.attempted, result.failed) == (5, 3)
    assert result.interval_width == 2 and result.peak_rss_kb == 900 and result.wall_s == 5.0
    assert result.op_wall_s == [1.0] * 5
    assert judge(catalog, outcomes[1], REFERENCE)[0] == "exit 1 MemoryError"
    assert judge(catalog, outcomes[2], REFERENCE)[0].startswith("timed out")


def test_ops_after_the_deadline_fail_without_running():
    def never(op, timeout):
        raise AssertionError("ran an op after the deadline")

    result = run_pass([SMALL_ISD] * 3, REFERENCE, deadline=time.monotonic() - 1, run=never)
    assert (result.attempted, result.failed, result.op_wall_s) == (3, 3, [0.0] * 3)
    record = PassResult()
    record.record(SMALL_ISD, None, 4)
    assert (record.attempted, record.failed, record.interval_width) == (1, 0, 4)


def test_run_process_enforces_timeout_and_memory_cap():
    env = child_env(ROOT)
    slow = run_process([sys.executable, "-c", "import time; time.sleep(30)"], env=env, timeout=0.5)
    assert slow.timed_out and slow.returncode != 0 and slow.wall_s < 10
    hog = run_process([sys.executable, "-c", "bytearray(1 << 31)"], env=env, timeout=30, memory_bytes=1 << 30)
    assert hog.returncode != 0 and b"MemoryError" in hog.stderr and not hog.timed_out
    fine = run_process([sys.executable, "-c", "print('ok')"], env=env, timeout=30)
    assert (fine.returncode, fine.stdout, fine.timed_out) == (0, b"ok\n", False) and fine.rss_kb > 0


def test_reference_covers_every_op():
    reference = load_reference()
    for workload in WORKLOADS:
        for op in ops_for(workload, seed=5):
            if op.isd_spec is None:
                assert op.key in reference["digests"]
            else:
                assert spec_key(op.isd_spec) in reference["generators"]


def test_benchmark_json_matches_the_harness():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(PER_LAYER)
