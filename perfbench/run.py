"""Benchmark of the `duadic` CLI; run from the root of a checkout.

    python3 perfbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

--trace 0 runs closed-loop passes over the workload's ops, each op a fresh
subprocess, until the next pass would end after S seconds, and reports the
end-to-end metrics. --trace 1 runs in-process passes, each in a fresh
interpreter, alternating untraced and traced, and reports the per-layer
metrics. Every op's output is checked. The last stdout line is
{"correct", "attempted", "failed", "metrics"}; the line before it records
the environment and per-pass detail, also written to .bench_out/.
`--workload all` runs every workload in turn and prints a table of every
metric by name and unit before a combined last line.
"""

import argparse
import importlib.metadata
import json
import os
import platform
import sys
import time
from pathlib import Path

from checks import load_reference
from harness import OP_TIMEOUT_S, child_env, duadic_cmd, median, run_pass, run_process
from tracing import PER_LAYER
from workloads import WORKLOADS, ops_for

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".bench_out"

# (name, unit), in the order BENCHMARK.json lists them.
END_TO_END = (
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ok_rate", "ratio"),
    ("interval_width", "weight"),
)

RUN_DEADLINE_S = 150  # no op starts later than this into a run
SETUP_PROBES_PER_PASS = 2
MIN_SETUP_PROBES = 7


class SetupError(RuntimeError):
    pass


def _setup_probe(env):
    """Wall seconds of a fresh interpreter that only imports duadic.cli."""
    proc = run_process([sys.executable, "-c", "import duadic.cli"], env=env, timeout=OP_TIMEOUT_S)
    if proc.returncode != 0:
        raise SetupError(f"import duadic.cli failed: {proc.stderr.decode(errors='replace').strip()}")
    return proc.wall_s


def end_to_end_run(ops, seconds, env, reference):
    start = time.monotonic()
    deadline = start + RUN_DEADLINE_S
    _setup_probe(env)  # untimed: writes the bytecode cache
    setup, passes = [], []

    def spawn(op, timeout):
        return run_process(duadic_cmd(op), env=env, timeout=timeout)

    while True:
        setup += [_setup_probe(env) for _ in range(SETUP_PROBES_PER_PASS)]
        passes.append(run_pass(ops, reference, deadline=deadline, run=spawn))
        now = time.monotonic()
        if now - start + passes[-1].wall_s > seconds or now + passes[-1].wall_s > deadline:
            break
    while len(setup) < MIN_SETUP_PROBES:
        setup.append(_setup_probe(env))
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    values = {
        # each op's median over the passes, summed: a load burst in one pass moves one op's sample only
        "wall_s": sum(median(samples) for samples in zip(*(p.op_wall_s for p in passes))),
        "setup_s": median(setup),
        "peak_rss_mb": median([p.peak_rss_kb for p in passes]) / 1024,
        "ok_rate": (attempted - failed) / attempted,
        "interval_width": median([p.interval_width for p in passes]),
    }
    detail = {
        "pass_wall_s": [p.wall_s for p in passes],
        "setup_s": setup,
        "failures": [f for p in passes for f in p.failures],
    }
    return attempted, failed, {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}, detail


def _worker_pass(workload, seed, traced, env, deadline):
    cmd = [sys.executable, str(HERE / "trace_worker.py"), "--workload", workload, "--seed", str(seed)]
    if traced:
        cmd += ["--spans", str(OUT_DIR / f"spans-{workload}.tsv.gz")]
    proc = run_process(cmd, env=env, timeout=max(deadline - time.monotonic(), 1.0))
    try:
        report = json.loads(proc.stdout.decode().strip().splitlines()[-1])
    except (IndexError, ValueError):
        report = None
    if proc.returncode != 0 or report is None:
        n_ops = len(ops_for(workload, seed))
        reason = "timed out" if proc.timed_out else f"exit {proc.returncode}"
        tail = proc.stderr.decode(errors="replace").strip().splitlines()[-1:]
        report = {"pass_s": proc.wall_s, "attempted": n_ops, "failed": n_ops,
                  "failures": [f"worker {reason} {' '.join(tail)}".rstrip()], "missing_hooks": [], "values": None}
    return report


def trace_run(workload, seed, seconds, env):
    """Pairs of fresh-interpreter passes, untraced and traced, in alternating order."""
    start = time.monotonic()
    deadline = start + RUN_DEADLINE_S
    pairs = []
    while True:
        pair_start = time.monotonic()
        order = (0, 1) if len(pairs) % 2 == 0 else (1, 0)
        pairs.append({traced: _worker_pass(workload, seed, traced, env, deadline) for traced in order})
        now = time.monotonic()
        pair_s = now - pair_start
        if now - start + pair_s > seconds or now + pair_s > deadline:
            break
    reports = [r for pair in pairs for r in pair.values()]
    attempted = sum(r["attempted"] for r in reports)
    failed = sum(r["failed"] for r in reports)
    traced = [pair[1]["values"] for pair in pairs if pair[1]["values"] is not None]
    values = {name: median([v[name] for v in traced]) for name, _ in PER_LAYER if name != "trace.overhead_s"}
    values["trace.overhead_s"] = median([pair[1]["pass_s"] - pair[0]["pass_s"] for pair in pairs])
    detail = {
        "untraced_pass_s": [pair[0]["pass_s"] for pair in pairs],
        "traced_pass_s": [pair[1]["pass_s"] for pair in pairs],
        "missing_hooks": sorted({h for r in reports for h in r["missing_hooks"]}),
        "failures": [f for r in reports for f in r["failures"]],
    }
    return attempted, failed, {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER}, detail


def environment(args, workload):
    try:
        numpy_version = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy_version = None
    return {
        "workload": workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "python": platform.python_version(), "numpy": numpy_version,
        "nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(), "machine": platform.machine(),
        # Ops run with DUADIC_THREADS unset: the process-pool path is deliberately not measured.
        "DUADIC_THREADS": None, "DUADIC_THREADS_inherited": os.environ.get("DUADIC_THREADS"),
    }


def run_workload(workload, args, env):
    """(record, result) of one run; the record is also written to .bench_out/."""
    if args.trace:
        attempted, failed, metrics, detail = trace_run(workload, args.seed, args.seconds, env)
    else:
        ops = ops_for(workload, args.seed)
        attempted, failed, metrics, detail = end_to_end_run(ops, args.seconds, env, load_reference())
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    record = {"environment": environment(args, workload), "detail": detail}
    path = OUT_DIR / f"result-{workload}-trace{args.trace}.json"
    path.write_text(json.dumps({**record, "result": result}, indent=2) + "\n", encoding="utf-8")
    return record, result


def main(argv=None):
    parser = argparse.ArgumentParser(description="Benchmark of the duadic CLI.")
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "duadic" / "cli.py").is_file():
        print(f"error: no duadic sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    env = child_env(ROOT)
    OUT_DIR.mkdir(exist_ok=True)
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    runs = {}
    try:
        for workload in workloads:
            runs[workload] = run_workload(workload, args, env)
            print(json.dumps(runs[workload][0]), flush=True)
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if len(runs) == 1:
        print(json.dumps(runs[args.workload][1]))
        return 0
    # all workloads: a table, then one result whose metric names carry the workload
    metrics = {}
    for workload, (_, result) in runs.items():
        for name, metric in result["metrics"].items():
            print(f"{workload:16} {name:32} {metric['value']:>16.6g} {metric['unit']}")
            metrics[f"{workload}/{name}"] = metric
    results = [result for _, result in runs.values()]
    print(json.dumps({
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
