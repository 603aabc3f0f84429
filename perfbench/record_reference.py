"""Write reference.json from the program in this checkout.

    python3 perfbench/record_reference.py

Records the sha256 of the JSON output of every byte-deterministic op of
every workload, and the generator polynomial of every spec an ISD op
searches. Run it only at a commit whose outputs are the accepted ones; the
checks in checks.py compare every later run against this file.
"""

import json
import sys

from checks import REFERENCE_PATH, digest, spec_key
from harness import OP_TIMEOUT_S, child_env, duadic_cmd, run_process
from run import ROOT
from workloads import WORKLOADS, Op, ops_for


def _stdout(op, env):
    proc = run_process(duadic_cmd(op), env=env, timeout=OP_TIMEOUT_S)
    if proc.returncode != 0:
        raise SystemExit(f"{op.key}: exit {proc.returncode}\n{proc.stderr.decode(errors='replace')}")
    return proc.stdout


def main():
    env = child_env(ROOT)
    digests, generators = {}, {}
    for workload in WORKLOADS:
        for op in ops_for(workload, seed=0):
            if op.isd_spec is None:
                digests[op.key] = digest(_stdout(op, env))
            elif spec_key(op.isd_spec) not in generators:
                r, m, s = op.isd_spec
                report = json.loads(_stdout(Op(("construct", "-r", str(r), "-m", str(m), "-S", s)), env))
                generators[spec_key(op.isd_spec)] = report["report"]["generator_hex"]
    REFERENCE_PATH.write_text(
        json.dumps({"digests": digests, "generators": generators}, indent=1, sort_keys=True) + "\n",
        encoding="utf-8",
    )
    print(f"wrote {len(digests)} digests and {len(generators)} generators to {REFERENCE_PATH}", file=sys.stderr)


if __name__ == "__main__":
    main()
