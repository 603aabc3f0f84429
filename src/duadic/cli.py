"""Command-line front end.

Commands: construct, catalog, table, verify-lemmas, mindist. Output formats:
text (default), json (byte-deterministic for a fixed config: sorted keys),
csv (a flattened projection of the json rows).
"""

import argparse
import csv
import io
import json
import math
import os
import sys
from collections import namedtuple
from itertools import chain

from . import gf2poly
from .bounds import LEMMA_IDS, SIDES, HypothesisError, best_certificate, lemma_window, verify_lemma_membership
from .code import dual, extend, from_class_polys, is_doubly_even, is_self_dual
from .cyclotomic import WeightClassSpec, check_r
from .gf2m import field
from .mindist import ENUM_BUDGET_K, bounded_min_distance, exact_min_distance
from .pairs import R8_REFERENCE_SETS, THEOREM_LEMMA, classify, enumerate_catalog, is_duadic

CONSTRUCT_COLUMNS = [
    "r", "m", "S", "t", "unchecked", "n", "k", "duadic", "theorem", "residue_case",
    "predicted_d_lower", "predicted_d_dual_lower", "predicted_d_ext_lower",
    "certified_d_lower", "bch_v", "bch_l", "bch_run_length",
    "dual_k", "dual_certified_d_lower", "ext_n", "ext_k", "self_dual", "doubly_even",
    "generator_hex",
]
CATALOG_COLUMNS = [
    "r", "t", "S", "S_complement", "theorem",
    "d_offset_case_t", "d_offset_case_t_plus_r",
    "d_dual_offset_case_t", "d_dual_offset_case_t_plus_r", "d_ext_offset",
]
TABLE_COLUMNS = [
    "r", "m", "S", "n", "k", "duadic", "theorem", "residue_case",
    "predicted_d_lower", "certified_d_lower", "exact_d", "min_odd_weight",
    "dual_k", "dual_certified_d_lower", "dual_exact_d",
    "ext_n", "ext_k", "predicted_d_ext_lower", "ext_exact_d",
    "self_dual", "doubly_even", "error",
]
LEMMA_COLUMNS = ["r", "m", "S", "lemma", "side", "status", "v", "window", "detail"]
MINDIST_COLUMNS = [
    "r", "m", "S", "code", "n", "k", "method", "lower", "upper", "exact",
    "min_odd_weight", "seed", "effort", "witness_hex",
]

_EPILOG = """\
csv columns per command:
  construct:     %s
  catalog:       %s
  table:         %s
  verify-lemmas: %s
  mindist:       %s

catalog offset columns report d >= 2^((m-1)/2) + offset for the two residue
classes of m mod 2r (m = t and m = t + r); dual offsets are analogous and
extended codes carry offset 4 whenever a theorem applies. The offsets hold
for m >= 5: at m = 3 the extended code is [8, 4, 4].
""" % tuple(", ".join(c) for c in (CONSTRUCT_COLUMNS, CATALOG_COLUMNS, TABLE_COLUMNS, LEMMA_COLUMNS, MINDIST_COLUMNS))


class UsageError(ValueError):
    pass


def _parse_residues(text, r):
    try:
        vals = [int(p) for p in text.split(",")]
    except ValueError:
        raise UsageError(f"-S expects comma-separated integers, got {text!r}") from None
    if any(not 0 <= v < r for v in vals):
        raise UsageError(f"-S residues must lie in 0..{r - 1}, got {text!r}")
    if any(b <= a for a, b in zip(vals, vals[1:])):
        raise UsageError(f"-S residues must be strictly increasing, got {text!r}")
    return tuple(vals)


def _parse_int_list(text, flag):
    if text.strip() == "":
        return []
    try:
        return [int(p) for p in text.split(",")]
    except ValueError:
        raise UsageError(f"{flag} expects comma-separated integers, got {text!r}") from None


def _usage(fn, *args):
    """fn(*args), with a ValueError it raises turned into a UsageError."""
    try:
        return fn(*args)
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def _make_spec(r, m, s_text, unchecked):
    _usage(check_r, r)  # first: the -S range check needs a valid r
    return _usage(WeightClassSpec, r, m, _parse_residues(s_text, r), unchecked)


def _parse_v_candidates(text, n):
    if text is None:
        return None
    if n < 3:
        raise UsageError("--v needs a code length of at least 3")
    vs = _parse_int_list(text, "--v")
    if not vs:
        raise UsageError("--v needs at least one candidate difference")
    for v in vs:
        if math.gcd(v % n, n) != 1:
            raise UsageError(f"--v candidate {v} is not a unit mod {n}")
    return vs


def _fmt_seq(seq):
    return ",".join(str(x) for x in seq)


def _spec_json(spec):
    return {
        "r": spec.r,
        "m": spec.m,
        "S": list(spec.S),
        "S_complement": list(spec.complement),
        "t": spec.t,
        "unchecked": spec.unchecked,
    }


# Every fact that construct and table report about one spec.
_Analysis = namedtuple("_Analysis", "code verdict cert dual dual_cert ext duadic self_dual doubly_even")


def _analyze(spec, v_candidates, polys):
    """Build the code of a spec from the class polynomials `polys` of its
    (m, r) and derive all its reported facts, once."""
    c = from_class_polys(spec, polys)
    verdict = classify(spec)
    cert = best_certificate(c.T, v_candidates)
    d = dual(c)
    dual_cert = best_certificate(d.T, v_candidates) if d.k else None  # the zero code has no distance to bound
    e = extend(c)
    return _Analysis(c, verdict, cert, d, dual_cert, e, is_duadic(spec), is_self_dual(e), is_doubly_even(e))


def _construct_report(spec, a):
    c, d, e, fld = a.code, a.dual, a.ext, field(spec.m)
    return {
        "spec": _spec_json(spec),
        "field": {"m": fld.m, "modulus_hex": gf2poly.to_hex(fld.modulus)},
        "n": c.n,
        "k": c.k,
        "generator_hex": gf2poly.to_hex(c.g),
        "generator_degree": c.n - c.k,
        "defining_set_leaders": c.T.coset_leaders(),
        "duadic": a.duadic,
        "theorem": a.verdict.to_json(),
        "bch": a.cert.to_json(),
        "dual": {
            "n": d.n,
            "k": d.k,
            "generator_hex": gf2poly.to_hex(d.g),
            "defining_set_leaders": d.T.coset_leaders(),
            "bch": a.dual_cert.to_json() if a.dual_cert else None,
        },
        "extended": {"n": e.n, "k": e.k, "self_dual": a.self_dual, "doubly_even": a.doubly_even},
    }


def _analysis_row(spec, a):
    """The flat columns of one analysed spec, shared by construct and table."""
    c, d, e, verdict = a.code, a.dual, a.ext, a.verdict
    return {
        "r": spec.r, "m": spec.m, "S": _fmt_seq(spec.S), "t": spec.t,
        "unchecked": spec.unchecked, "n": c.n, "k": c.k, "duadic": a.duadic,
        "theorem": verdict.theorem, "residue_case": verdict.residue_case,
        "predicted_d_lower": verdict.d_lower,
        "predicted_d_dual_lower": verdict.d_dual_lower,
        "predicted_d_ext_lower": verdict.d_ext_lower,
        "certified_d_lower": a.cert.d_lower, "bch_v": a.cert.v, "bch_l": a.cert.start,
        "bch_run_length": a.cert.run_length,
        "dual_k": d.k, "dual_certified_d_lower": a.dual_cert.d_lower if a.dual_cert else None,
        "ext_n": e.n, "ext_k": e.k, "self_dual": a.self_dual, "doubly_even": a.doubly_even,
    }


def _construct_text(report):
    spec = report["spec"]
    verdict = report["theorem"]
    cert = report["bch"]
    lines = [
        f"spec       r={spec['r']} m={spec['m']} S={_fmt_seq(spec['S'])} "
        f"(t={spec['t']}, S'={_fmt_seq(spec['S_complement'])})",
        f"code       [{report['n']},{report['k']}] cyclic over GF(2^{spec['m']})",
    ]
    gen = f"generator  degree {report['generator_degree']}, {report['generator_hex']}"
    if report["generator_degree"] <= 24:
        gen += f"  ({gf2poly.pretty(gf2poly.from_hex(report['generator_hex']))})"
    lines.append(gen)
    lines.append(f"duadic     {'yes (odd-like splitting, multiplier -1)' if report['duadic'] else 'no'}")
    if verdict["theorem"] == "none":
        lines.append("theorem    none")
    else:
        case = f", case m={verdict['residue_case']} (mod {2 * spec['r']})" if verdict["residue_case"] is not None else ""
        lines.append(
            f"theorem    {verdict['theorem']}{case}: d >= {verdict['d_lower']}, "
            f"dual d >= {verdict['d_dual_lower']}, extended d >= {verdict['d_ext_lower']}"
        )
    lines.append(f"bch        v={cert['v']} l={cert['l']} run={cert['run_length']} => d >= {cert['d_lower']}")
    dc = report["dual"]["bch"]
    dual_bound = f"bch v={dc['v']} run={dc['run_length']} => d >= {dc['d_lower']}" if dc else "zero code"
    lines.append(f"dual       [{report['dual']['n']},{report['dual']['k']}] {dual_bound}")
    ext = report["extended"]
    lines.append(
        f"extended   [{ext['n']},{ext['k']}] self_dual={_yn(ext['self_dual'])} doubly_even={_yn(ext['doubly_even'])}"
    )
    return "\n".join(lines)


def _yn(b):
    return "yes" if b else "no"


def cmd_construct(args):
    spec = _make_spec(args.r, args.m, args.S, args.unchecked)
    v_candidates = _parse_v_candidates(args.v, spec.n)
    a = _analyze(spec, v_candidates, gf2poly.class_polys(spec.m, spec.r))
    report = _construct_report(spec, a)
    row = {**_analysis_row(spec, a), "generator_hex": report["generator_hex"]}
    payload = {"command": "construct", "report": report}
    return 0, payload, [row], CONSTRUCT_COLUMNS, lambda: _construct_text(report)


def _catalog_rows(r, t):
    rows = []
    m_probe = t if t >= 3 else t + r  # smallest valid odd m with m = t mod r
    for s in enumerate_catalog(r, t):
        spec = WeightClassSpec(r=r, m=m_probe, S=s)
        verdict = classify(spec)
        lemma = THEOREM_LEMMA.get(verdict.theorem)
        # the theorem's bound d >= run + 1 = 2^((m-1)/2) + offset, for m = t and m = t + r (mod 2r)
        offs = lemma and [lemma_window(lemma, m, r, "S")[1] + 1 - (1 << ((m - 1) // 2)) for m in (t, t + r)]
        rows.append({
            "r": r, "t": t, "S": _fmt_seq(s), "S_complement": _fmt_seq(spec.complement),
            "theorem": verdict.theorem,
            "d_offset_case_t": offs[0] if offs else None,
            "d_offset_case_t_plus_r": offs[1] if offs else None,
            "d_dual_offset_case_t": offs[0] + 1 if offs else None,
            "d_dual_offset_case_t_plus_r": offs[1] + 1 if offs else None,
            "d_ext_offset": 4 if offs else None,
        })
    return rows


def cmd_catalog(args):
    rows = _usage(_catalog_rows, args.r, args.t)
    exit_code = 0
    notes = []
    if args.r == 8:
        found = {row["S"] for row in rows}
        missing = [s for s in R8_REFERENCE_SETS[args.t] if _fmt_seq(s) not in found]
        if missing:
            exit_code = 1
            notes.append(f"reference sets missing from enumeration: {missing}")
        else:
            notes.append("all 8 reference sets for r=8 are present")
    payload = {
        "command": "catalog",
        "r": args.r,
        "t": args.t,
        "count": len(rows),
        "sets": [row["S"] for row in rows],
        "rows": rows,
        "notes": notes,
    }

    def text():
        lines = [_render_table(CATALOG_COLUMNS, rows), f"count: {len(rows)}"]
        return "\n".join(lines + [f"note: {note}" for note in notes])

    return exit_code, payload, rows, CATALOG_COLUMNS, text


def _table_row(r, m, s, error, spec, polys, v_candidates):
    """One table row; error says why the row has no spec, else None."""
    base = {col: None for col in TABLE_COLUMNS}
    base.update({"r": r, "m": m, "S": _fmt_seq(s), "error": error})
    if error is not None:
        return base
    a = _analyze(spec, v_candidates, polys)
    base.update((col, val) for col, val in _analysis_row(spec, a).items() if col in base)
    if a.code.k <= ENUM_BUDGET_K:  # k >= 1: T never holds 0
        found = exact_min_distance(a.code)
        base["exact_d"] = found.lower
        base["min_odd_weight"] = found.min_odd_weight
        base["ext_exact_d"] = found.lower + (found.lower & 1)  # a parity bit makes odd weights even
    if a.dual.k <= ENUM_BUDGET_K:
        try:
            base["dual_exact_d"] = exact_min_distance(a.dual).lower
        except ValueError as exc:  # the zero code is reported inline
            base["error"] = f"dual: {exc}"
    return base


def _table_specs(r, m, s_text, unchecked):
    """(S, spec, error) for each table row at one m; spec is None when error says why."""
    if s_text.strip().lower() == "all":
        try:
            sets = enumerate_catalog(r, m % r)
        except ValueError as exc:
            return [((), None, str(exc))]
    else:
        sets = [_parse_residues(s_text, r)]
    out = []
    for s in sets:
        try:
            out.append((s, WeightClassSpec(r=r, m=m, S=s, unchecked=unchecked), None))
        except ValueError as exc:  # invalid specs are reported inline
            out.append((s, None, str(exc)))
    return out


def cmd_table(args):
    m_list = _parse_int_list(args.m, "-m")
    _usage(check_r, args.r)  # a bad r fails every row, and m % r needs r != 0
    r = args.r
    per_m = []  # every --v is checked before any row is computed
    for m in m_list:
        specs = _table_specs(r, m, args.S, args.unchecked)
        # only an m with a valid spec has an n to check --v against and rows
        # to build; its class polynomials are built once and shared by its rows
        valid = [spec for _, spec, _ in specs if spec is not None]
        v_candidates = _parse_v_candidates(args.v, valid[0].n) if valid else None
        polys = gf2poly.class_polys(m, r) if valid else None
        per_m.append((m, specs, polys, v_candidates))
    rows = [_table_row(r, m, s, error, spec, polys, v) for m, specs, polys, v in per_m for s, spec, error in specs]
    payload = {"command": "table", "r": r, "S": args.S, "m_list": m_list, "rows": rows}
    return 0, payload, rows, TABLE_COLUMNS, lambda: _render_table(TABLE_COLUMNS, rows)


def cmd_verify_lemmas(args):
    m_list = _parse_int_list(args.m, "-m")
    _usage(check_r, args.r)  # a bad r is an error even without m values, and m % r needs r != 0
    specs = []  # every m is validated before any lemma is checked
    for m in m_list:
        if m % 2 == 0:
            raise UsageError(f"-m values must be odd, got {m}")
        try:
            specs.extend(WeightClassSpec(r=args.r, m=m, S=s) for s in enumerate_catalog(args.r, m % args.r))
        except ValueError as exc:
            raise UsageError(str(exc)) from None
    # a lemma's window (v, B) depends on its m and side alone, not on S
    windows = {(lemma, m, side): lemma_window(lemma, m, args.r, side)
               for lemma in LEMMA_IDS for m in m_list for side in SIDES}
    rows = []
    for spec in specs:
        s_text = _fmt_seq(spec.S)
        for lemma in LEMMA_IDS:
            try:  # the hypotheses do not depend on the side: a failed one skips both with one message
                oks, detail = [verify_lemma_membership(spec, lemma, side) for side in SIDES], None
            except HypothesisError as exc:
                oks, detail = [None] * len(SIDES), str(exc)
            for side, ok in zip(SIDES, oks):
                v, window = (None, None) if ok is None else windows[lemma, spec.m, side]
                status = "skip" if ok is None else "pass" if ok else "fail"
                rows.append({"r": spec.r, "m": spec.m, "S": s_text, "lemma": lemma, "side": side,
                             "status": status, "v": v, "window": window, "detail": detail})
    failures = sum(row["status"] == "fail" for row in rows)
    payload = {
        "command": "verify-lemmas", "r": args.r, "m_list": m_list,
        "rows": rows, "failures": failures,
    }

    def text():
        checked = sum(1 for row in rows if row["status"] != "skip")
        summary = f"checked: {checked}, failures: {failures}, skipped: {len(rows) - checked}"
        return _render_table(LEMMA_COLUMNS, rows) + "\n" + summary

    return (1 if failures else 0), payload, rows, LEMMA_COLUMNS, text


def cmd_mindist(args):
    if args.seed < 0:
        raise UsageError(f"--seed must be a non-negative integer, got {args.seed}")
    if args.effort < 0:
        raise UsageError(f"--effort must be a non-negative integer, got {args.effort}")
    spec = _make_spec(args.r, args.m, args.S, args.unchecked)
    v_candidates = _parse_v_candidates(args.v, spec.n)
    c = from_class_polys(spec, gf2poly.class_polys(spec.m, spec.r))
    if args.code == "dual":
        c = dual(c)
    elif args.code == "extended":
        c = extend(c)
    # the zero code, or a search over its memory budget, is a usage error
    if c.k <= ENUM_BUDGET_K:
        bound = _usage(exact_min_distance, c)
    else:
        bound = _usage(bounded_min_distance, c, args.effort, args.seed, v_candidates)
    payload = {
        "command": "mindist",
        "spec": _spec_json(spec),
        "code": args.code,
        "n": c.n,
        "k": c.k,
        "bound": bound.to_json(),
    }
    row = {"r": spec.r, "m": spec.m, "S": _fmt_seq(spec.S), "code": args.code, "n": c.n, "k": c.k, **bound.to_json()}
    text = (
        f"[{c.n},{c.k}] {args.code}: d in [{bound.lower}, {bound.upper}]"
        f"{' (exact)' if bound.exact else ''} via {bound.method}"
    )
    if bound.min_odd_weight is not None:
        text += f", min odd weight {bound.min_odd_weight}"
    return 0, payload, [row], MINDIST_COLUMNS, lambda: text


def _render_table(columns, rows):
    def cell(v):
        return "" if v is None else str(v)

    widths = [max(len(col), *(len(cell(row.get(col))) for row in rows)) if rows else len(col) for col in columns]
    lines = ["  ".join(col.ljust(w) for col, w in zip(columns, widths)).rstrip()]
    for row in rows:
        lines.append("  ".join(cell(row.get(col)).ljust(w) for col, w in zip(columns, widths)).rstrip())
    return "\n".join(lines)


_CONTAINERS = (dict, list, tuple)

# Items of a list that one call of json's C encoder writes. The encoder
# holds every small string it makes until the call returns, so a long list
# is encoded a slice at a time.
JSON_BATCH_ITEMS = 64


def _is_flat(values):
    """True when no value is a container (checked once per value type)."""
    return not any(issubclass(kind, _CONTAINERS) for kind in set(map(type, values)))


def _is_row_list(obj):
    """True for a list of non-empty dicts of scalars, such as a command's rows."""
    return all(isinstance(row, dict) and row for row in obj) and _is_flat(chain.from_iterable(map(dict.values, obj)))


def _json_leaf(obj, pad):
    """The indented text of a scalar, an empty container or a dict of
    scalars whose opening brace sits at indentation pad: json's C encoder,
    with the item separator that indent=2 puts between members at pad + 2
    spaces."""
    inner = pad + "  "
    text = json.dumps(obj, sort_keys=True, separators=(",\n" + inner, ": "))
    if not isinstance(obj, _CONTAINERS) or not obj:
        return text
    return f"{text[0]}\n{inner}{text[1:-1]}\n{pad}{text[-1]}"


def _json_slices(items, sep):
    """Yield the text of items, JSON_BATCH_ITEMS at a time, as json's C
    encoder writes each slice with the separator sep, without its brackets."""
    for start in range(0, len(items), JSON_BATCH_ITEMS):
        yield json.dumps(items[start : start + JSON_BATCH_ITEMS], sort_keys=True, separators=(sep, ": "))[1:-1]


def _json_parts(obj, pad=""):
    """The text of `json.dumps(obj, sort_keys=True, indent=2)`, its first
    line at indentation pad, as a list of parts: indent=2 would need json's
    pure-Python encoder, so json's C encoder writes every container of
    scalars. Dict keys are str, as in every payload. A list of scalars or
    of flat rows takes one C-encoder call per JSON_BATCH_ITEMS items. In a
    call the encoder joins two rows by "}," + newline + the members'
    indentation + "{"; JSON text holds no raw newline inside a string, and
    members are scalars, so that text occurs only between two rows, where
    indent=2 closes one row and opens the next on lines of their own."""
    if isinstance(obj, dict) and not _is_flat(obj.values()):
        members, brackets = [(f"{json.dumps(key)}: ", obj[key]) for key in sorted(obj)], "{}"
    elif isinstance(obj, (list, tuple)) and not _is_flat(obj):
        if _is_row_list(obj):
            item, member = pad + "  ", pad + "    "
            joint = f"\n{item}}},\n{item}{{\n{member}"
            parts = [f"[\n{item}{{\n{member}"]
            for text in _json_slices(obj, ",\n" + member):
                parts += [text[1:-1].replace("},\n" + member + "{", joint), joint]
            parts[-1] = f"\n{item}}}\n{pad}]"
            return parts
        members, brackets = [("", value) for value in obj], "[]"
    elif isinstance(obj, (list, tuple)) and obj:
        inner = pad + "  "
        parts = [f"[\n{inner}"]
        for text in _json_slices(obj, ",\n" + inner):
            parts += [text, ",\n" + inner]
        parts[-1] = f"\n{pad}]"
        return parts
    else:
        return [_json_leaf(obj, pad)]
    inner = pad + "  "
    parts, sep = [], brackets[0] + "\n"
    for prefix, value in members:
        parts.append(sep + inner + prefix)
        parts += _json_parts(value, inner)
        sep = ",\n"
    parts.append(f"\n{pad}{brackets[1]}")
    return parts


def _csv_body(columns, rows):
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    for row in rows:
        writer.writerow(["" if row.get(c) is None else row.get(c) for c in columns])
    return buf.getvalue()


def _emit(args, payload, rows, columns, text):
    """Write one command's result in the requested format, to stdout or to
    --out, in one write of the whole document, so --out never holds a
    partial document. text is a callable, so the text rendering runs only
    for --format text."""
    if args.format == "json":
        document = "".join(_json_parts(payload) + ["\n"])
    elif args.format == "csv":
        document = _csv_body(columns, rows)
    else:
        document = text() + "\n"
    if not args.out:
        sys.stdout.write(document)
        return
    try:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(document)
    except OSError as exc:
        raise UsageError(f"cannot write --out {args.out}: {exc.strerror or exc}") from None


def _add_common(sub):
    sub.add_argument("--format", choices=("text", "json", "csv"), default="text")
    sub.add_argument("--out", default=None, help="write output to a file instead of stdout")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="duadic",
        description="Binary duadic codes from 2-weight residue classes: "
        "construction, BCH certification, duals, extensions, distances.",
        epilog=_EPILOG,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command")

    p = sub.add_parser("construct", help="build one code and report its structure")
    p.add_argument("-r", type=int, required=True)
    p.add_argument("-m", type=int, required=True)
    p.add_argument("-S", required=True, help="comma-separated residues, strictly increasing")
    p.add_argument("--v", default=None, help="comma-separated BCH difference candidates")
    p.add_argument("--unchecked", action="store_true", help="allow even m or |S| != r/2")
    _add_common(p)
    p.set_defaults(handler=cmd_construct)

    p = sub.add_parser("catalog", help="enumerate all duadic S for (r, t)")
    p.add_argument("-r", type=int, required=True)
    p.add_argument("-t", type=int, required=True)
    _add_common(p)
    p.set_defaults(handler=cmd_catalog)

    p = sub.add_parser("table", help="parameter table across a list of m")
    p.add_argument("-r", type=int, required=True)
    p.add_argument("-S", required=True, help="residues or 'all' for the whole catalog per m")
    p.add_argument("-m", required=True, help="comma-separated list of m values")
    p.add_argument("--v", default=None)
    p.add_argument("--unchecked", action="store_true")
    _add_common(p)
    p.set_defaults(handler=cmd_table)

    p = sub.add_parser("verify-lemmas", help="run-membership checks for L3-L6 over the catalog")
    p.add_argument("-r", type=int, required=True)
    p.add_argument("-m", required=True, help="comma-separated list of odd m values")
    _add_common(p)
    p.set_defaults(handler=cmd_verify_lemmas)

    p = sub.add_parser("mindist", help="exact (k <= 24) or certified/searched distance bounds")
    p.add_argument("-r", type=int, required=True)
    p.add_argument("-m", type=int, required=True)
    p.add_argument("-S", required=True)
    p.add_argument("--code", choices=("primal", "dual", "extended"), default="primal")
    p.add_argument("--effort", type=int, default=0, help="information-set trials above the enumeration budget")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--v", default=None)
    p.add_argument("--unchecked", action="store_true")
    _add_common(p)
    p.set_defaults(handler=cmd_mindist)

    return parser


def main(argv=None):
    # numpy loads on first use, and no command calls BLAS: OpenBLAS then starts no worker thread to spin idle
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    parser = build_parser()
    args = parser.parse_args(argv)
    if not getattr(args, "handler", None):
        parser.print_help()
        return 2
    try:
        exit_code, payload, rows, columns, text = args.handler(args)
        _emit(args, payload, rows, columns, text)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return exit_code


if __name__ == "__main__":
    sys.exit(main())
