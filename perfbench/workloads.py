"""The benchmark's workloads: fixed lists of `duadic` CLI invocations.

Every op runs with `--format json`. Specs are fixed, so the output of every
op is reproducible; the run seed only picks the `--seed` values passed to
the information-set-search (ISD) ops. ISD ops carry the spec of the code
they search, so their output can be checked structurally (see checks.py)
instead of byte for byte.
"""

from dataclasses import dataclass

WORKLOADS = ("construct-large", "survey", "distance")


@dataclass(frozen=True)
class Op:
    """One CLI invocation (arguments after the program name, without --format).

    isd_spec is (r, m, S) for a seeded search over the primal code of that
    spec, None for an op whose output is byte-deterministic.
    """

    argv: tuple
    isd_spec: tuple | None = None

    @property
    def key(self):
        return " ".join(self.argv)


def _isd(r, m, s, effort, seed):
    argv = ("mindist", "-r", str(r), "-m", str(m), "-S", s, "--effort", str(effort), "--seed", str(seed))
    return Op(argv, isd_spec=(r, m, s))


def _op(text):
    return Op(tuple(text.split()))


def ops_for(workload, seed):
    """The ops of one pass over `workload`, in order, for run seed `seed`."""
    if workload == "construct-large":
        return [
            _op("construct -r 2 -m 17 -S 1"),
            _op("construct -r 8 -m 17 -S 0,2,3,4"),
            _op("construct -r 2 -m 19 -S 1"),
            # effort 0: the interval is [BCH bound, weight of g], seed-independent
            _isd(2, 13, "1", 0, seed),
        ]
    if workload == "survey":
        return [
            *(_op(f"catalog -r 16 -t {t}") for t in range(1, 16, 2)),
            _op("verify-lemmas -r 16 -m 9,11,13,15,17,19"),
            _op("table -r 8 -S all -m 3,5,7,9,11,13"),
            _op("table -r 16 -S all -m 9,11,13"),
            _isd(8, 13, "0,1,2,7", 0, seed),
        ]
    if workload == "distance":
        return [
            _op("mindist -r 12 -m 11 -S 0,2,3,4,5,6,7,8,9,11 --unchecked"),
            _op("mindist -r 12 -m 11 -S 0,2,3,4,5,6,7,8,9,11 --unchecked --code extended"),
            _op("mindist -r 2 -m 5 -S 1 --code dual"),
            _isd(2, 7, "1", 200, seed),
            *(_isd(8, 9, "0,2,3,4", 1, seed + i) for i in range(4)),
        ]
    raise ValueError(f"unknown workload {workload!r}")

