"""Mutation check of the package's guards and certificate formulas.

Run from anywhere: python tests/mutants.py

Each mutant in MUTANTS replaces one piece of text, which must occur exactly
once, in one module of src/duadic. For each mutant the script copies src and
tests into a temporary directory, applies the mutant to the copy, runs the
mutant's test file there with `pytest -x`, and prints one row of a kill
table. A mutant is killed when its test run fails. The unmutated copy is run
first against every listed test file, and must pass.

Exit status: 0 when every mutant is killed or listed as equivalent, 1 when
one survives, 2 when the unmutated copy fails or a run ends in an error
other than a failed test. pytest does not collect this file (its name does
not start with test_).
"""

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent


class Mutant(NamedTuple):
    name: str
    module: str  # file under src/duadic
    old: str  # text that occurs exactly once in the module
    new: str
    tests: str  # file under tests/ run against the mutant
    equivalent: str = ""  # why no test can tell the mutant apart, if none can


MUTANTS = [
    Mutant(
        "ExtendedCode.contains parity test",
        "code.py",
        "return self.base.contains(base_part) and word.bit_count() % 2 == 0",
        "return self.base.contains(base_part)",
        "test_code.py",
    ),
    Mutant(
        "CyclicCode.contains: quotient check",
        "code.py",
        "return gf2poly.mul(q, self.g) == word",
        "return True",
        "test_code.py",
    ),
    Mutant(
        "CyclicCode.contains: h replaced by g in the quotient",
        "code.py",
        "q = gf2poly.mul(word >> (self.n - self.k), self.h) >> self.k",
        "q = gf2poly.mul(word >> (self.n - self.k), self.g) >> self.k",
        "test_code.py",
    ),
    Mutant(
        "dual: g*h = x^n + 1 check",
        "code.py",
        "if gf2poly.mul(code.g, code.h) != gf2poly.x_pow_plus_one(code.n):",
        "if False:",
        "test_code.py",
    ),
    Mutant(
        "from_class_polys: generator degree guard",
        "code.py",
        "if gf2poly.degree(g) != T.size:",
        "if False:",
        "test_code.py",
    ),
    Mutant(
        "dual: generator degree guard",
        "code.py",
        "if gf2poly.degree(g_dual) != T_dual.size:",
        "if False:",
        "test_code.py",
    ),
    Mutant(
        "bounded_min_distance: integer effort guard",
        "mindist.py",
        "if not isinstance(effort, numbers.Integral) or effort < 0:",
        "if effort < 0:",
        "test_mindist.py",
    ),
    Mutant(
        "search: witness membership guard",
        "mindist.py",
        "if not c.contains(best_word):",
        "if False:",
        "test_mindist.py",
    ),
    Mutant(
        "search: below-BCH guard",
        "mindist.py",
        "if best_w < lower:",
        "if False:",
        "test_mindist.py",
    ),
    Mutant(
        "CertifiedBound: lower <= upper",
        "mindist.py",
        "if not 1 <= self.lower <= self.upper:",
        "if not 1 <= self.lower:",
        "test_mindist.py",
    ),
    Mutant(
        "check_r: integer guard",
        "cyclotomic.py",
        "if not isinstance(r, numbers.Integral) or r < 2 or r % 2:",
        "if r < 2 or r % 2:",
        "test_cyclotomic.py",
    ),
    Mutant(
        "WeightClassSpec: integer m guard",
        "cyclotomic.py",
        "if not isinstance(self.m, numbers.Integral):",
        "if False:",
        "test_cyclotomic.py",
    ),
    Mutant(
        "WeightClassSpec: integer S guard",
        "cyclotomic.py",
        "if any(not isinstance(c, numbers.Integral) or not 0 <= c < self.r for c in s):",
        "if any(not 0 <= c < self.r for c in s):",
        "test_cyclotomic.py",
    ),
    Mutant(
        "max_ap_run: d_lower = run + 1",
        "bounds.py",
        "d_lower=run + 1, gamma_exponent=vinv)",
        "d_lower=run, gamma_exponent=vinv)",
        "test_bounds.py",
    ),
    Mutant(
        "minimal-polynomial table: degree certificate",
        "gf2poly.py",
        "if np.any(polys >> sizes != 1) or root.any():",
        "if root.any():",
        "test_gf2poly.py",
    ),
    Mutant(
        "minimal-polynomial table: root certificate",
        "gf2poly.py",
        "if np.any(polys >> sizes != 1) or root.any():",
        "if np.any(polys >> sizes != 1):",
        "test_gf2poly.py",
    ),
    Mutant(
        "minimal_poly: orbit check",
        "gf2poly.py",
        "if len(cs.elements) != p.bit_length() - 1 or {2 * e % n for e in members} != members:",
        "if len(cs.elements) != p.bit_length() - 1:",
        "test_gf2poly.py",
    ),
    Mutant(
        "minimal_poly: reciprocal read dropped",
        "gf2poly.py",
        "or reciprocal(table.item((n - max(members)) % n))",
        "or table.item((n - max(members)) % n)",
        "test_gf2poly.py",
    ),
    Mutant(
        "class_polys: self-negated factor R dropped",
        "gf2poly.py",
        "mul(reciprocal(q[partner]), product(r_leaves[c]))",
        "reciprocal(q[partner])",
        "test_gf2poly.py",
    ),
    Mutant(
        "class_polys: partner reversal dropped",
        "gf2poly.py",
        "polys[partner] = reciprocal(polys[c])",
        "polys[partner] = polys[c]",
        "test_gf2poly.py",
    ),
    Mutant(
        "class_polys: table release dropped",
        "gf2poly.py",
        "_minimal_poly_table.cache_clear()",
        "pass",
        "test_gf2poly.py",
    ),
    Mutant(
        "mul: FFT rounding guard",
        "gf2poly.py",
        "if not worst < ROUNDING_TOLERANCE:",
        "if False:",
        "test_gf2poly.py",
    ),
    Mutant(
        "frozen value types: __setattr__ raises",
        "_frozen.py",
        'raise AttributeError(f"cannot assign to field {name!r}")',
        "object.__setattr__(self, name, value)",
        "test_frozen.py",
    ),
]


def _copy(dest):
    """Copy src, tests and pyproject.toml (pytest's settings) into dest."""
    skip = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
    for tree in ("src", "tests"):
        shutil.copytree(ROOT / tree, dest / tree, ignore=skip)
    shutil.copy2(ROOT / "pyproject.toml", dest / "pyproject.toml")


def _env(copy):
    return dict(os.environ, PYTHONPATH=str(copy / "src"))


def _pytest(copy, tests):
    """pytest's exit code for one test file of the copy: 0 passed, 1 a test failed."""
    argv = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", f"tests/{tests}"]
    return subprocess.run(argv, cwd=copy, env=_env(copy), stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL).returncode


def _apply(copy, mutant):
    path = copy / "src" / "duadic" / mutant.module
    text = path.read_text()
    count = text.count(mutant.old)
    if count != 1:
        raise SystemExit(f"mutant {mutant.name!r}: its text occurs {count} times in {mutant.module}, not once")
    path.write_text(text.replace(mutant.old, mutant.new))


def main():
    with tempfile.TemporaryDirectory(prefix="duadic-mutants-") as tmp:
        base = Path(tmp) / "base"
        _copy(base)
        probe = [sys.executable, "-c", "import duadic; print(duadic.__file__)"]
        loaded = subprocess.run(probe, cwd=base, env=_env(base), capture_output=True, text=True).stdout.strip()
        if not loaded.startswith(str(base)):
            print(f"the copy's duadic is not the one imported ({loaded}); no mutant run would test it")
            return 2
        for tests in sorted({m.tests for m in MUTANTS}):
            if _pytest(base, tests) != 0:
                print(f"tests/{tests} fails on the unmutated source; no kill would mean anything")
                return 2
        rows, status = [], 0
        for i, mutant in enumerate(MUTANTS):
            copy = Path(tmp) / f"mutant-{i}"
            _copy(copy)
            _apply(copy, mutant)
            start = time.perf_counter()
            code = _pytest(copy, mutant.tests)
            seconds = time.perf_counter() - start
            shutil.rmtree(copy)
            if code == 1:
                verdict = "killed"
            elif code != 0:
                verdict, status = f"error (pytest exit {code})", 2
            elif mutant.equivalent:
                verdict = f"equivalent: {mutant.equivalent}"
            else:
                verdict, status = "SURVIVED", max(status, 1)
            rows.append((mutant.name, mutant.module, mutant.tests, f"{seconds:.1f} s", verdict))
    header = ("mutant", "module", "tests", "time", "result")
    widths = [max(len(row[k]) for row in [header, *rows]) for k in range(len(header))]
    for row in [header, tuple("-" * w for w in widths), *rows]:
        print(" | ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip())
    return status


if __name__ == "__main__":
    sys.exit(main())
