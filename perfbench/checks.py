"""Output checks for one op, against references recorded at the seed commit.

A byte-deterministic op passes when the sha256 of its stdout equals the
recorded digest. An ISD op passes when its JSON describes the searched
code, its witness is a codeword of weight `upper` (checked here against the
recorded generator polynomial), and 1 <= lower <= upper. ISD ops skip the
byte check so that a different search can still pass.
"""

import hashlib
import json
from pathlib import Path

REFERENCE_PATH = Path(__file__).with_name("reference.json")


def load_reference(path=REFERENCE_PATH):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def spec_key(spec):
    r, m, s = spec
    return f"r={r} m={m} S={s}"


def digest(data):
    return hashlib.sha256(data).hexdigest()


def poly_mod(a, b):
    """Remainder of a by b in GF(2)[x], both as int bitvectors."""
    db = b.bit_length()
    while a.bit_length() >= db:
        a ^= b << (a.bit_length() - db)
    return a


def _argv_value(argv, flag):
    return int(argv[argv.index(flag) + 1])


def _check_isd(op, out, generator):
    r, m, s = op.isd_spec
    n = (1 << m) - 1
    spec, bound = out["spec"], out["bound"]
    if (spec["r"], spec["m"], ",".join(map(str, spec["S"]))) != (r, m, s) or out["code"] != "primal":
        return "output describes another code"
    if (out["n"], out["k"]) != (n, n - (generator.bit_length() - 1)):
        return f"[n, k] = [{out['n']}, {out['k']}] does not match the generator"
    if (bound["seed"], bound["effort"]) != (_argv_value(op.argv, "--seed"), _argv_value(op.argv, "--effort")):
        return "seed or effort not echoed"
    lower, upper = bound["lower"], bound["upper"]
    witness = int(bound["witness_hex"], 16)
    if not 1 <= lower <= upper:
        return f"invalid interval [{lower}, {upper}]"
    if witness.bit_count() != upper:
        return f"witness weight {witness.bit_count()} != upper {upper}"
    if witness >> n or poly_mod(witness, generator):
        return "witness is not a codeword"
    return None


def check_output(op, stdout, reference):
    """(error or None, interval width or None) for one op's stdout bytes.

    The width is upper - lower of a mindist result; None for other commands.
    """
    try:
        out = json.loads(stdout)
    except ValueError:
        return "stdout is not JSON", None
    try:
        width = out["bound"]["upper"] - out["bound"]["lower"] if out.get("command") == "mindist" else None
        if op.isd_spec is None:
            want = reference["digests"].get(op.key)
            if want is None:
                return "no reference digest for this op", width
            return (None if digest(stdout) == want else "output differs from the reference digest"), width
        generator = reference["generators"].get(spec_key(op.isd_spec))
        if generator is None:
            return "no reference generator for this spec", width
        return _check_isd(op, out, int(generator, 16)), width
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        return f"malformed output: {exc!r}", None
