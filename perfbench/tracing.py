"""Spans and counters recorded around the public entry points of each
`duadic` module, from outside the program.

A span is [name, start_ns, end_ns, parent index or -1, op id]; spans stay in
memory and are written out once, after the pass. A span's self time is its
duration minus the part of it its direct children cover; per-layer metrics
sum self times, calls and counters over a pass.
"""

import functools
import gzip
import importlib
import math
import sys
import time
from collections import defaultdict

# Modules whose summed self time is reported as <layer>.layer_self_s; the
# cli module's is cli.self_s, the self time of cli.main.
LAYERS = ("gf2m", "cyclotomic", "gf2poly", "code", "bounds", "pairs", "mindist")


class Tracer:
    def __init__(self, clock=time.perf_counter_ns):
        self.clock = clock
        self.spans = []
        self.counters = defaultdict(int)
        self.op_id = -1
        self._stack = []

    def wrap(self, name, fn):
        """fn, recording one span named `name` per call."""
        spans, stack, clock = self.spans, self._stack, self.clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            record = [name, clock(), 0, stack[-1] if stack else -1, self.op_id]
            stack.append(len(spans))
            spans.append(record)
            try:
                return fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()

        return traced

    def count(self, fn, hook):
        """fn, calling hook(counters, *args, **kwargs) before each call."""
        counters = self.counters

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            hook(counters, *args, **kwargs)
            return fn(*args, **kwargs)

        return counted


def _calls(name):
    def hook(counters, *args, **kwargs):
        counters[name] += 1

    return hook


def _mul_operand_bits(counters, a, b):
    counters["gf2poly.mul_operand_bits"] += a.bit_length() + b.bit_length()


def _catalog_candidates(counters, r, t):
    counters["pairs.catalog_candidates"] += math.comb(r, r // 2)


def _generator_rows_bytes(counters, c, *args, **kwargs):
    key = "mindist.generator_rows_bytes"
    counters[key] = max(counters[key], c.k * ((c.n + 7) // 8))


def _enumerated(counters, c, *args, **kwargs):
    counters["mindist.codewords_enumerated"] += 1 << c.k
    _generator_rows_bytes(counters, c)


# (module, attribute, span name or None for a counter only, counter hook or None)
TARGETS = (
    ("gf2m", "field", "gf2m.field", None),
    ("cyclotomic", "defining_set", "cyclotomic.defining_set", None),
    ("cyclotomic", "DefiningSet.coset_leaders", "cyclotomic.coset_leaders", None),
    ("cyclotomic", "coset", None, _calls("cyclotomic.cosets")),
    ("gf2poly", "minimal_poly", "gf2poly.minimal_poly", None),
    ("gf2poly", "generator_poly", "gf2poly.generator_poly", None),
    ("gf2poly", "mul", "gf2poly.mul", _mul_operand_bits),
    ("gf2poly", "check_poly", "gf2poly.check_poly", None),
    ("code", "from_defining_set", "code.from_defining_set", None),
    ("code", "dual", "code.dual", None),
    ("code", "_self_orthogonal", "code.self_orthogonality", None),
    ("bounds", "best_certificate", "bounds.best_certificate", None),
    ("bounds", "max_ap_run", None, _calls("bounds.ap_runs_scanned")),
    ("bounds", "verify_lemma_membership", "bounds.verify_lemma", None),
    ("pairs", "enumerate_catalog", "pairs.enumerate_catalog", _catalog_candidates),
    ("pairs", "classify", "pairs.classify", None),
    ("mindist", "exact_min_distance", "mindist.exact", _enumerated),
    ("mindist", "bounded_min_distance", "mindist.isd", _generator_rows_bytes),
    ("mindist", "_light_messages_best", None, _calls("mindist.isd_trials")),
    ("cli", "main", "cli.op", None),
)


def install(tracer):
    """Wrap every target and rebind every name that refers to it in the
    loaded duadic modules. Returns the targets that do not exist."""
    importlib.import_module("duadic.cli")
    modules = [mod for name, mod in sys.modules.items() if name == "duadic" or name.startswith("duadic.")]
    missing = []
    for mod_name, attr, span, hook in TARGETS:
        owner_path, _, name = attr.rpartition(".")
        owner = importlib.import_module(f"duadic.{mod_name}")
        if owner_path:
            owner = getattr(owner, owner_path)
        original = getattr(owner, name, None)
        if original is None:
            missing.append(f"{mod_name}.{attr}")
            continue
        wrapped = tracer.count(original, hook) if hook else original
        wrapped = tracer.wrap(span, wrapped) if span else wrapped
        if owner_path:  # a method: callers look it up on the class
            setattr(owner, name, wrapped)
            continue
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapped)
    return missing


def self_times(spans):
    """Per span: duration minus the union of its direct children's intervals."""
    children = defaultdict(list)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            children[parent].append((start, end))
    out = []
    for index, (_, start, end, _, _) in enumerate(spans):
        covered, reach = 0, start
        for child_start, child_end in sorted(children.get(index, ())):
            lo, hi = max(child_start, reach), min(child_end, end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(end - start - covered)
    return out


def summarize(spans):
    """Span name -> [calls, total ns, self ns]."""
    totals = defaultdict(lambda: [0, 0, 0])
    for (name, start, end, _, _), own in zip(spans, self_times(spans)):
        entry = totals[name]
        entry[0] += 1
        entry[1] += end - start
        entry[2] += own
    return totals


# Per-layer metrics (name, unit), in the order BENCHMARK.json lists them.
PER_LAYER = (
    ("gf2m.field_s", "s"),
    ("cyclotomic.defining_set_s", "s"),
    ("cyclotomic.coset_leaders_s", "s"),
    ("cyclotomic.cosets", "count"),
    ("gf2poly.minimal_poly_s", "s"),
    ("gf2poly.minimal_poly_calls", "count"),
    ("gf2poly.mul_s", "s"),
    ("gf2poly.mul_calls", "count"),
    ("gf2poly.mul_operand_bits", "bits"),
    ("gf2poly.check_poly_s", "s"),
    ("code.from_defining_set_s", "s"),
    ("code.dual_s", "s"),
    ("code.self_orthogonality_s", "s"),
    ("code.self_orthogonality_calls", "count"),
    ("bounds.best_certificate_s", "s"),
    ("bounds.ap_runs_scanned", "count"),
    ("bounds.verify_lemma_s", "s"),
    ("pairs.enumerate_catalog_s", "s"),
    ("pairs.catalog_candidates", "count"),
    ("pairs.classify_s", "s"),
    ("mindist.exact_s", "s"),
    ("mindist.codewords_enumerated", "count"),
    ("mindist.gray_ns_per_codeword", "ns"),
    ("mindist.isd_s", "s"),
    ("mindist.isd_trials", "count"),
    ("mindist.isd_s_per_trial", "s"),
    ("mindist.generator_rows_bytes", "bytes"),
    ("cli.op_s", "s"),
    ("cli.self_s", "s"),
    ("cli.output_bytes", "bytes"),
    *((f"{layer}.layer_self_s", "s") for layer in LAYERS),
    ("trace.overhead_s", "s"),
)


def layer_values(spans, counters):
    """Per-layer metric values of one traced pass (all but trace.overhead_s)."""
    totals = summarize(spans)

    def self_s(name):
        return totals[name][2] * 1e-9 if name in totals else 0.0

    def calls(name):
        return totals[name][0] if name in totals else 0

    values = {f"{layer}.layer_self_s": 0.0 for layer in LAYERS}
    for name, (_, _, own) in totals.items():
        layer = name.split(".")[0]
        if layer in LAYERS:
            values[f"{layer}.layer_self_s"] += own * 1e-9
    exact_s, isd_s = self_s("mindist.exact"), self_s("mindist.isd")
    enumerated, trials = counters["mindist.codewords_enumerated"], counters["mindist.isd_trials"]
    values.update({
        "gf2m.field_s": self_s("gf2m.field"),
        "cyclotomic.defining_set_s": self_s("cyclotomic.defining_set"),
        "cyclotomic.coset_leaders_s": self_s("cyclotomic.coset_leaders"),
        "cyclotomic.cosets": counters["cyclotomic.cosets"],
        "gf2poly.minimal_poly_s": self_s("gf2poly.minimal_poly"),
        "gf2poly.minimal_poly_calls": calls("gf2poly.minimal_poly"),
        "gf2poly.mul_s": self_s("gf2poly.mul"),
        "gf2poly.mul_calls": calls("gf2poly.mul"),
        "gf2poly.mul_operand_bits": counters["gf2poly.mul_operand_bits"],
        "gf2poly.check_poly_s": self_s("gf2poly.check_poly"),
        "code.from_defining_set_s": self_s("code.from_defining_set"),
        "code.dual_s": self_s("code.dual"),
        "code.self_orthogonality_s": self_s("code.self_orthogonality"),
        "code.self_orthogonality_calls": calls("code.self_orthogonality"),
        "bounds.best_certificate_s": self_s("bounds.best_certificate"),
        "bounds.ap_runs_scanned": counters["bounds.ap_runs_scanned"],
        "bounds.verify_lemma_s": self_s("bounds.verify_lemma"),
        "pairs.enumerate_catalog_s": self_s("pairs.enumerate_catalog"),
        "pairs.catalog_candidates": counters["pairs.catalog_candidates"],
        "pairs.classify_s": self_s("pairs.classify"),
        "mindist.exact_s": exact_s,
        "mindist.codewords_enumerated": enumerated,
        "mindist.gray_ns_per_codeword": exact_s * 1e9 / enumerated if enumerated else 0.0,
        "mindist.isd_s": isd_s,
        "mindist.isd_trials": trials,
        "mindist.isd_s_per_trial": isd_s / trials if trials else 0.0,
        "mindist.generator_rows_bytes": counters["mindist.generator_rows_bytes"],
        "cli.op_s": totals["cli.op"][1] * 1e-9 if "cli.op" in totals else 0.0,
        "cli.self_s": self_s("cli.op"),
        "cli.output_bytes": counters["cli.output_bytes"],
    })
    return values


def write_spans(spans, path):
    """All spans as gzipped tab-separated lines, one per span."""
    with gzip.open(path, "wt", encoding="utf-8") as fh:
        fh.write("id\tparent\top\tname\tstart_ns\tend_ns\n")
        for index, (name, start, end, parent, op) in enumerate(spans):
            fh.write(f"{index}\t{parent}\t{op}\t{name}\t{start}\t{end}\n")
