"""One in-process pass over a workload, in a fresh interpreter.

    python3 perfbench/trace_worker.py --workload NAME --seed N [--spans FILE]

Each op calls duadic.cli.main with `--format json` and captured stdout,
which is checked like a subprocess op's. With --spans the pass is traced:
the module entry points are wrapped first (tracing.py) and the spans are
written to FILE after the pass. Prints one JSON object: the pass time, op
counts, failures and, when traced, the per-layer values.
"""

import argparse
import contextlib
import io
import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from checks import check_output, load_reference  # noqa: E402
from harness import PassResult  # noqa: E402
from tracing import Tracer, install, layer_values, write_spans  # noqa: E402
from workloads import ops_for  # noqa: E402


def run_in_process(main, op):
    """(seconds, exit code, stdout bytes) of main(argv) with captured stdout."""
    buf = io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(buf):
            code = main([*op.argv, "--format", "json"])
    except SystemExit as exc:
        code = exc.code
    return time.perf_counter() - start, code, buf.getvalue().encode()


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--spans", default=None, help="trace the pass and write its spans here")
    args = parser.parse_args(argv)

    import duadic.cli

    tracer = Tracer() if args.spans else None
    missing = install(tracer) if tracer else []
    reference = load_reference()
    result = PassResult()
    for index, op in enumerate(ops_for(args.workload, args.seed)):
        if tracer:
            tracer.op_id = index
        try:
            seconds, code, stdout = run_in_process(duadic.cli.main, op)
        except Exception as exc:  # noqa: BLE001 - a crashing op is a failed op
            result.record(op, f"raised {exc!r}", None)
            continue
        result.wall_s += seconds
        if tracer:
            tracer.counters["cli.output_bytes"] += len(stdout)
        if code not in (0, None):
            result.record(op, f"exit {code}", None)
        else:
            result.record(op, *check_output(op, stdout, reference))
    report = {
        "pass_s": result.wall_s, "attempted": result.attempted, "failed": result.failed,
        "failures": result.failures, "missing_hooks": missing,
        "values": layer_values(tracer.spans, tracer.counters) if tracer else None,
    }
    if tracer:
        write_spans(tracer.spans, args.spans)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
