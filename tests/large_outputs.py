"""Digests and measures of the package's largest outputs.

Run from anywhere: python tests/large_outputs.py

First the script prints the start-up that every command pays: the median
wall time and peak RSS of STARTUP_RUNS fresh `import duadic.cli`
processes, and the number of modules that import adds. Then each op in
OPS runs as one `python -m duadic.cli` process on this checkout's src.
The script prints the op's wall time, peak RSS and minor page faults,
and checks the sha256 of its stdout where OPS gives one:

- m = 20, the largest field (52487 cosets), is pinned nowhere else:
  `construct` and mindist's dual code. At r = 2 both classes are their
  own negation partners; `construct -r 4 -m 20 -S 0,1` builds a
  self-paired class next to a partner pair, whose second class is the
  reciprocal of the first. `construct` at m = 19 runs next to them; the
  benchmark's construct-large workload reports its peak.
- one Lee-Brickell trial on the [2047, 1024] code covers the batched
  elimination and the scan over the 1023-bit redundancy parts at the
  largest k the search is run at. Its m = 11 digest also pins the seeded
  permutation stream on every Python that runs the script.
- the 2.96 MB lemma document is the largest JSON any benchmark op writes,
  encoded in one pass. `table -r 16 -S all -m 9,11,13` is the survey op
  that peaks highest, so each run shows whether the document stays below.

Then, in process at m = 20, `from_defining_set`, which builds g and h
coset by coset through the split FFT products, must equal the class
route, and `contains` must accept a seeded codeword u*g and reject it
with bit n - 1 flipped.

The measures are printed, not bounded, because runner speed and memory
vary; the fault count repeats closely from run to run on one machine.
Exit status: 0 when every process exits 0, every digest matches and the
m = 20 checks hold; 1 otherwise. pytest does not collect this file (its
name does not start with test_).
"""

import hashlib
import os
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
sys.path.insert(0, str(SRC))

from duadic import WeightClassSpec, defining_set, from_defining_set  # noqa: E402
from duadic.code import from_class_polys  # noqa: E402
from duadic.gf2poly import class_polys, mul  # noqa: E402

OPS = [
    ("construct -r 2 -m 20 -S 1 --unchecked", "ea3b3408da1f25d18c03d73927a972eea8dcf13a5ede9608fbc7dad287c6c665"),
    ("construct -r 4 -m 20 -S 0,1 --unchecked", "0c7b82b8b6b5903b8a8db2bb1329309c2a7f6d079a0181fb595cc70a8125dd7e"),
    ("construct -r 2 -m 19 -S 1", None),
    ("mindist -r 2 -m 20 -S 1 --unchecked --code dual", "f383939f346736bca5cb95e69f3a3516546db78dba8748acc9245678d0352a6a"),
    ("mindist -r 2 -m 11 -S 1 --effort 1 --seed 1", "b5d36dc4cec1c3430432f03249586a3eacb59a488ac92fad4c7bf0023806ec32"),
    ("verify-lemmas -r 16 -m 9,11,13,15,17,19", "140a852bd2e3d09f0e169808dec0aa1cba402177d2a6ab7d53bc858e1c9d2b57"),
    ("table -r 16 -S all -m 9,11,13", None),
]
STARTUP_RUNS = 5
STARTUP = "import sys; before = len(sys.modules); import duadic.cli; print(len(sys.modules) - before)"


def spawn(argv):
    """Exit code, stdout, wall seconds, peak RSS in MB and minor page faults
    of one process on this checkout's src."""
    start = time.perf_counter()
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, env=dict(os.environ, PYTHONPATH=str(SRC)))
    with proc.stdout:
        out = proc.stdout.read()
    _, status, usage = os.wait4(proc.pid, 0)  # this child's own rusage
    proc.returncode = os.waitstatus_to_exitcode(status)  # reaped here, so Popen does not wait for it again
    return proc.returncode, out, time.perf_counter() - start, usage.ru_maxrss / 1024, usage.ru_minflt  # kB on Linux


def run(command):
    """Exit code, stdout sha256, wall seconds, peak RSS in MB and minor page
    faults of one duadic.cli process writing JSON."""
    code, out, wall, peak_mb, faults = spawn([sys.executable, "-m", "duadic.cli", *command.split(), "--format", "json"])
    return code, hashlib.sha256(out).hexdigest(), wall, peak_mb, faults


def startup_failures():
    """Print the median wall time and peak RSS of fresh `import duadic.cli`
    processes and the modules the import adds; the runs that fail."""
    codes, outs, walls, peaks, _ = zip(*(spawn([sys.executable, "-c", STARTUP]) for _ in range(STARTUP_RUNS)))
    print(f"import duadic.cli: {statistics.median(walls) * 1e3:.0f} ms wall, {statistics.median(peaks):.1f} MB peak RSS "
          f"(medians of {STARTUP_RUNS} fresh processes), {outs[-1].decode().strip()} modules added")
    return [f"import duadic.cli: exit {code}" for code in codes if code]


def m20_failures():
    """The m = 20 class-route and membership checks that fail, printing the seconds of each membership test."""
    spec = WeightClassSpec(r=2, m=20, S=(1,), unchecked=True)
    c = from_class_polys(spec, class_polys(20, 2))
    same = from_defining_set(defining_set(spec)) == c
    print(f"m = 20 from_defining_set equals the class route (g, h, T): {same}")
    failed = [] if same else ["m = 20: from_defining_set disagrees with the class route"]
    word = mul(random.Random(20).getrandbits(c.k), c.g)
    for label, w, expected in (("codeword u*g", word, True), ("u*g with bit n - 1 flipped", word ^ 1 << (c.n - 1), False)):
        start = time.perf_counter()
        found = c.contains(w)
        print(f"m = 20 membership of the {label}: {found}, {time.perf_counter() - start:.3f} s")
        if found is not expected:
            failed.append(f"m = 20: contains is wrong on the {label}")
    return failed


def main():
    failed = startup_failures()
    for command, expected in OPS:
        code, digest, wall, peak_mb, faults = run(command)
        print(f"{command}: {wall:.2f} s wall, {peak_mb:.1f} MB peak RSS, {faults} minor faults, sha256 {digest[:16]}")
        if code:
            failed.append(f"{command}: exit {code}")
        elif expected not in (None, digest):
            failed.append(f"{command}: sha256 {digest}, expected {expected}")
    failed += m20_failures()
    print("\n".join(failed) or "every large output matches")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
