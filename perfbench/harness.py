"""Closed-loop subprocess runner: one client, one op at a time.

Each op is a fresh `python -m duadic.cli ... --format json` process with
DUADIC_THREADS unset, a wall-time timeout and an RLIMIT_AS cap set only in
that child. Its wall time includes interpreter start; its peak RSS comes
from the child's own rusage (os.wait4).
"""

import os
import resource
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field

from checks import check_output

OP_TIMEOUT_S = 60.0
OP_MEMORY_BYTES = 3 << 30


@dataclass
class ProcResult:
    wall_s: float
    rss_kb: int
    returncode: int
    stdout: bytes
    stderr: bytes
    timed_out: bool


def child_env(root):
    env = dict(os.environ)
    env.pop("DUADIC_THREADS", None)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _limit_memory(limit):
    def apply():
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    return apply


def _drain(stream, sink):
    sink.append(stream.read())
    stream.close()


def run_process(cmd, *, env, timeout, memory_bytes=OP_MEMORY_BYTES):
    """Run cmd to completion and return its wall time, rusage peak and output.

    The child is killed when `timeout` seconds pass; memory_bytes caps its
    address space. Output is drained by threads so os.wait4 can reap the
    child and keep its own rusage.
    """
    start = time.perf_counter()
    proc = subprocess.Popen(
        cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
        preexec_fn=_limit_memory(memory_bytes),
    )
    timed_out = threading.Event()

    def kill():
        timed_out.set()
        proc.kill()

    timer = threading.Timer(max(timeout, 0.0), kill)
    out, err = [], []
    readers = [threading.Thread(target=_drain, args=(proc.stdout, out)),
               threading.Thread(target=_drain, args=(proc.stderr, err))]
    for t in readers:
        t.start()
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:  # e.g. KeyboardInterrupt: leave no child behind
        proc.kill()
        proc.wait()
        raise
    finally:
        timer.cancel()
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    for t in readers:
        t.join()
    return ProcResult(wall, usage.ru_maxrss, proc.returncode, out[0], err[0], timed_out.is_set())


def duadic_cmd(op):
    return [sys.executable, "-m", "duadic.cli", *op.argv, "--format", "json"]


@dataclass
class PassResult:
    wall_s: float = 0.0
    op_wall_s: list = field(default_factory=list)  # per op, in order; 0.0 when not started
    peak_rss_kb: int = 0
    attempted: int = 0
    failed: int = 0
    interval_width: int = 0
    failures: list = field(default_factory=list)

    def record(self, op, error, width):
        """Count one attempted op; error is None when it passed every check."""
        self.attempted += 1
        if error is not None:
            self.failed += 1
            self.failures.append(f"{op.key}: {error}")
        if width is not None:
            self.interval_width += width


def judge(op, proc, reference):
    """(error or None, interval width or None) for one finished op."""
    if proc.timed_out:
        return f"timed out after {proc.wall_s:.1f} s", None
    if proc.returncode != 0:
        tail = proc.stderr.decode(errors="replace").strip().splitlines()[-1:]
        return f"exit {proc.returncode} {' '.join(tail)}".rstrip(), None
    return check_output(op, proc.stdout, reference)


def run_pass(ops, reference, *, deadline, run):
    """Run every op once, in order, through `run(op, timeout) -> ProcResult`;
    ops not started by `deadline` (a time.monotonic value) fail."""
    result = PassResult()
    for op in ops:
        remaining = deadline - time.monotonic()
        if remaining <= 0:
            result.op_wall_s.append(0.0)
            result.record(op, "not started before the run deadline", None)
            continue
        proc = run(op, min(OP_TIMEOUT_S, remaining))
        result.wall_s += proc.wall_s
        result.op_wall_s.append(proc.wall_s)
        result.peak_rss_kb = max(result.peak_rss_kb, proc.rss_kb)
        result.record(op, *judge(op, proc, reference))
    return result


def median(values):
    return statistics.median(values) if values else 0.0
