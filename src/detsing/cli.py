"""Command-line workbench over the variety and index layers.

Commands: analyze, verify, euler, index, groebner.  Input is a JSON model
file (schema below); output is a deterministic report, as text or with
--json as machine-readable JSON.

Exit codes: 0 success (report, identity verified, or value solved),
1 identity violated, 2 input error, 3 unsupported input or resource limit.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from fractions import Fraction
from pathlib import Path

from .detvar import (AFFINE, ESSENTIAL_SINGULAR, OUTSIDE, PROJECTIVE,
                     SMOOTH_STRATUM, AmbientSpace, DeterminantalModel,
                     ProjectivePoint, chart_matrix, classify,
                     is_point_on_variety, lower_locus_generators,
                     lower_stratum_points, point_label)
from .grobner import (DEFAULT_SPAIR_BUDGET, GREVLEX, Ideal,
                      ResourceLimitExceeded, buchberger, ideal_dimension,
                      quotient_dimension)
from .indexcalc import (ROLE_SMOOTH_FORM_POINT, ROLE_VARIETY_SINGULARITY,
                        SOLVED, VERIFIED, IndexLedger, LedgerEntry,
                        LedgerError, SingularPointRecord, cstar_fixed_points,
                        defect, defect_known, global_identity)
from .polyalg import ParseError, PolyMatrix, minors, parse_polynomial
from .topo import UnsupportedDimensionError

EXIT_OK = 0
EXIT_VIOLATED = 1
EXIT_INPUT = 2
EXIT_UNSUPPORTED = 3


class InputError(Exception):
    """Bad input file, flag value, or point reference; exit code 2."""


class UnsupportedError(Exception):
    """Structurally valid input outside the supported scope; exit code 3."""


def _fail(message):
    raise InputError(message)


def _require_keys(obj, required, optional, where):
    if not isinstance(obj, dict):
        _fail(f"{where} must be a JSON object")
    unknown = set(obj) - required - optional
    if unknown:
        _fail(f"{where} has unknown keys: {', '.join(sorted(unknown))}")
    missing = required - set(obj)
    if missing:
        _fail(f"{where} is missing keys: {', '.join(sorted(missing))}")


def _as_int(value, where):
    if isinstance(value, bool) or not isinstance(value, int):
        _fail(f"{where} must be an integer")
    return value


def _as_bool(value, where):
    if not isinstance(value, bool):
        _fail(f"{where} must be a boolean")
    return value


def _as_str(value, where):
    if not isinstance(value, str):
        _fail(f"{where} must be a string")
    return value


def _as_polynomial(value, variables, where):
    try:
        return parse_polynomial(_as_str(value, where), variables)
    except ParseError as e:
        _fail(f"{where}: {e}")


def _parse_point(text, model, where):
    """Parse a point string to the model's native point type."""
    text = _as_str(text, where)
    if model.ambient.kind == PROJECTIVE:
        try:
            pt = ProjectivePoint.parse(text)
        except ValueError as e:
            _fail(f"{where}: {e}")
        if len(pt.coords) != len(model.variables):
            _fail(f"{where}: expected {len(model.variables)} coordinates")
        return pt
    s = text.strip()
    if not (s.startswith("(") and s.endswith(")")):
        _fail(f"{where}: affine points look like (a, b), got {text!r}")
    parts = s[1:-1].split(",")
    try:
        vals = tuple(Fraction(p.strip()) for p in parts)
    except (ValueError, ZeroDivisionError):
        _fail(f"{where}: coordinates must be rational numbers")
    if len(vals) != len(model.variables):
        _fail(f"{where}: expected {len(model.variables)} coordinates")
    return vals


class WorkbenchInput:
    """Validated model file: the model plus form, invariants, and knowns."""

    def __init__(self, path, model, weights, singularities, form_kind,
                 form_coefficients, chi_x, known_indices):
        self.path = path
        self.name = Path(path).name
        self.model = model
        self.weights = weights
        self.singularities = singularities
        self.form_kind = form_kind
        self.form_coefficients = form_coefficients
        self.chi_x = chi_x
        self.known_indices = known_indices


# optional singularity record fields with their checks, in checking order
_RECORD_FIELDS = {"n": _as_int, "p": _as_int, "t": _as_int, "d": _as_int,
                  "mu": _as_int, "chi_smoothing": _as_int,
                  "chi_lower_stratum": _as_int, "smoothable": _as_bool}


def load_input(path):
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as e:
        _fail(f"cannot read {path}: {e.strerror or e}")
    try:
        data = json.loads(text)
    except json.JSONDecodeError as e:
        _fail(f"{path} is not valid JSON: {e}")
    _require_keys(data,
                  {"schema_version", "variables", "matrix", "t", "ambient",
                   "singularities"},
                  {"weights", "form", "known"}, "input")
    if _as_int(data["schema_version"], "schema_version") != 1:
        _fail("schema_version must be 1")

    variables = data["variables"]
    if (not isinstance(variables, list) or not variables
            or not all(isinstance(v, str) for v in variables)):
        _fail("variables must be a nonempty list of strings")
    if len(set(variables)) != len(variables):
        _fail("variable names must be distinct")

    grid = data["matrix"]
    if (not isinstance(grid, list) or not grid
            or not all(isinstance(row, list) and row for row in grid)):
        _fail("matrix must be a nonempty grid of polynomial strings")
    rows = [[_as_polynomial(cell, variables, f"matrix[{i}][{j}]")
             for j, cell in enumerate(row)]
            for i, row in enumerate(grid)]
    if len({len(r) for r in rows}) != 1:
        _fail("matrix rows must have equal length")
    if not any(e for row in rows for e in row):
        _fail("matrix must have a nonzero entry")

    t = _as_int(data["t"], "t")
    ambient = data["ambient"]
    _require_keys(ambient, {"kind", "dim"}, set(), "ambient")
    kind = _as_str(ambient["kind"], "ambient.kind")
    if kind not in (PROJECTIVE, AFFINE):
        _fail('ambient.kind must be "projective" or "affine"')
    dim = _as_int(ambient["dim"], "ambient.dim")
    try:
        model = DeterminantalModel(PolyMatrix(rows), t, AmbientSpace(kind, dim))
    except ValueError as e:
        _fail(str(e))

    weights = None
    if "weights" in data:
        w = data["weights"]
        if not isinstance(w, list) or len(w) != len(variables):
            _fail("weights must list one integer per variable")
        weights = tuple(_as_int(x, f"weights[{i}]") for i, x in enumerate(w))

    raw_sing = data["singularities"]
    if not isinstance(raw_sing, list):
        _fail("singularities must be a list")
    singularities = []
    seen = set()
    for k, entry in enumerate(raw_sing):
        where = f"singularities[{k}]"
        _require_keys(entry, {"point"}, _RECORD_FIELDS.keys(), where)
        parsed = _parse_point(entry["point"], model, f"{where}.point")
        label = point_label(parsed)
        if label in seen:
            _fail(f"{where}: duplicate singular point {label}")
        seen.add(label)
        fields = {key: check(entry[key], f"{where}.{key}")
                  for key, check in _RECORD_FIELDS.items() if key in entry}
        singularities.append({"label": label, "parsed": parsed,
                              "fields": fields})

    form_kind = None
    form_coefficients = None
    if "form" in data:
        form = data["form"]
        _require_keys(form, {"kind"}, {"coefficients"}, "form")
        form_kind = _as_str(form["kind"], "form.kind")
        if form_kind == "cstar":
            if "coefficients" in form:
                _fail("a cstar form takes its data from weights, not coefficients")
            if weights is None:
                _fail("a cstar form requires the weights field")
        elif form_kind == "explicit":
            if "coefficients" not in form:
                _fail("an explicit form requires coefficients")
            if kind == PROJECTIVE:
                _fail("explicit forms are supported in affine mode only")
            coeffs = form["coefficients"]
            if not isinstance(coeffs, list) or len(coeffs) != len(variables):
                _fail("form.coefficients must list one polynomial per variable")
            form_coefficients = tuple(
                _as_polynomial(c, variables, f"form.coefficients[{i}]")
                for i, c in enumerate(coeffs))
        else:
            _fail('form.kind must be "cstar" or "explicit"')

    chi_x = None
    known_indices = {}
    if "known" in data:
        known = data["known"]
        _require_keys(known, set(), {"chi_X", "indices"}, "known")
        if "chi_X" in known:
            chi_x = _as_int(known["chi_X"], "known.chi_X")
        indices = known.get("indices", {})
        if not isinstance(indices, dict):
            _fail("known.indices must be a JSON object")
        for key, value in indices.items():
            parsed = _parse_point(key, model, f"known.indices[{key!r}]")
            label = point_label(parsed)
            if label in known_indices:
                _fail(f"known.indices names {label} twice")
            known_indices[label] = (parsed,
                                    _as_int(value, f"known.indices[{key!r}]"))

    return WorkbenchInput(path, model, weights, singularities, form_kind,
                          form_coefficients, chi_x, known_indices)


def _classification_block(c):
    return {
        "empty": c.empty,
        "codimension": c.codimension,
        "dimension": c.dimension,
        "determinantal": c.determinantal,
        "isolated_singularity": c.isolated_singularity,
        "smoothable": c.smoothable,
        "singular_locus_dimension": c.singular_locus_dimension,
        "singular_points": [point_label(p) for p in c.singular_points],
        "singular_points_exact": c.singular_points_exact,
        "local_supported": c.local_supported,
        "notes": list(c.notes),
    }


def _assemble_ledger(inp, classification):
    """Records and ledger entries from the input file and the form."""
    model = inp.model
    records = []
    for s in inp.singularities:
        location = is_point_on_variety(model, s["parsed"])
        if location.kind == OUTSIDE:
            _fail(f"singular point {s['label']} is not on the variety")
        if location.kind == SMOOTH_STRATUM:
            _fail(f"{s['label']} lies in the smooth stratum, "
                  "not the singular locus")
        fields = s["fields"]
        try:
            records.append(SingularPointRecord(
                point=s["label"],
                n=fields.get("n", model.n),
                p=fields.get("p", model.p),
                t=fields.get("t", model.t),
                d=fields.get("d", classification.dimension),
                smoothable=fields.get("smoothable", classification.smoothable),
                mu=fields.get("mu"),
                chi_smoothing=fields.get("chi_smoothing"),
                chi_lower_stratum=fields.get("chi_lower_stratum")))
        except LedgerError as e:
            _fail(str(e))
    if classification.singular_points_exact:
        computed = sorted(point_label(p)
                          for p in classification.singular_points)
        listed = sorted(r.point for r in records)
        if computed != listed:
            _fail("the singularities list does not match the computed "
                  f"singular points (listed {listed}, computed {computed})")

    entries = []
    consumed = set()
    for record in records:
        known = inp.known_indices.get(record.point)
        consumed.add(record.point)
        entries.append(LedgerEntry(record.point, ROLE_VARIETY_SINGULARITY,
                                   known[1] if known else None))
    if inp.form_kind == "cstar":
        record_points = {r.point for r in records}
        try:
            fixed = cstar_fixed_points(model, inp.weights,
                                       classification.rank_basis)
        except ValueError as e:
            _fail(str(e))
        for pt, location in fixed:
            label = str(pt)
            if location.kind == ESSENTIAL_SINGULAR:
                if label not in record_points:
                    _fail(f"fixed point {label} is an essential singular "
                          "point but is missing from the singularities list")
                continue
            # index 1: distinct weights make a smooth fixed point a simple zero
            known = inp.known_indices.get(label)
            if known is not None and known[1] != 1:
                _fail(f"known index {known[1]} at the smooth fixed point "
                      f"{label} conflicts with the computed index 1")
            consumed.add(label)
            entries.append(LedgerEntry(label, ROLE_SMOOTH_FORM_POINT, 1))
    for label, (parsed, value) in inp.known_indices.items():
        if label in consumed:
            continue
        location = is_point_on_variety(model, parsed)
        if location.kind != SMOOTH_STRATUM:
            _fail(f"known index point {label} must lie in the smooth stratum")
        entries.append(LedgerEntry(label, ROLE_SMOOTH_FORM_POINT, value))
    return records, entries


def _ledger_context(inp, budget):
    if inp.model.ambient.kind != PROJECTIVE:
        raise UnsupportedError(
            "the global identity applies to projective varieties only")
    classification = classify(inp.model, budget)
    records, entries = _assemble_ledger(inp, classification)
    return classification, records, entries


def _ledger_block(records, entries, chi_x):
    return {
        "chi_X": chi_x,
        "entries": [{"point": e.point, "role": e.role, "index": e.index}
                    for e in entries],
        "defects": [{"point": r.point,
                     "defect": defect(r) if defect_known(r) else None}
                    for r in records],
    }


def _identity_block(result):
    return {"status": result.status, "lhs": result.lhs, "rhs": result.rhs,
            "name": result.name, "value": result.value}


def _ledger_report(args, inp, classification, records, entries, identity):
    """The report shared by verify, euler and index."""
    return {
        "command": args.command,
        "input": inp.name,
        "classification": _classification_block(classification),
        "ledger": _ledger_block(records, entries, inp.chi_x),
        "identity": identity,
        "timing_ms": None,
    }


def cmd_analyze(inp, args):
    classification = classify(inp.model, args.spair_budget)
    report = {
        "command": "analyze",
        "input": inp.name,
        "classification": _classification_block(classification),
        "timing_ms": None,
    }
    code = EXIT_OK if classification.local_supported else EXIT_UNSUPPORTED
    return report, code


def cmd_verify(inp, args):
    classification, records, entries = _ledger_context(inp, args.spair_budget)
    result = global_identity(IndexLedger(entries, inp.chi_x), records)
    if result.status == SOLVED:
        raise UnsupportedError(
            f"verification needs a fully determined ledger; {result.name} "
            "is unknown (use euler or index to solve for it)")
    report = _ledger_report(args, inp, classification, records, entries,
                            _identity_block(result))
    return report, EXIT_OK if result.status == VERIFIED else EXIT_VIOLATED


def cmd_euler(inp, args):
    if inp.chi_x is not None:
        _fail("euler solves for chi_X, but known.chi_X is already present")
    classification, records, entries = _ledger_context(inp, args.spair_budget)
    result = global_identity(IndexLedger(entries, None), records)
    report = _ledger_report(args, inp, classification, records, entries,
                            _identity_block(result))
    return report, EXIT_OK


def cmd_index(inp, args):
    target = point_label(_parse_point(args.at, inp.model, "--at"))
    classification, records, entries = _ledger_context(inp, args.spair_budget)
    by_point = {e.point: e for e in entries}
    if target not in by_point:
        _fail(f"point {target} is not in the ledger")
    entry = by_point[target]
    if entry.role == ROLE_SMOOTH_FORM_POINT:
        result_block = {"status": SOLVED, "lhs": None, "rhs": None,
                        "name": f"index@{target}", "value": entry.index}
    else:
        if entry.index is not None:
            _fail(f"the index at {target} is already given as {entry.index}")
        result = global_identity(IndexLedger(entries, inp.chi_x), records)
        result_block = _identity_block(result)
    report = _ledger_report(args, inp, classification, records, entries,
                            result_block)
    return report, EXIT_OK


def cmd_groebner(inp, args):
    model = inp.model
    points, _, _ = lower_stratum_points(model, args.spair_budget)
    chart_point = points[0] if points else None
    if args.ideal in ("minors", "lower"):
        matrix = (chart_matrix(model, chart_point)
                  if chart_point is not None else model.matrix)
        if args.ideal == "minors":
            gens = minors(matrix, model.t)
        else:
            gens = lower_locus_generators(matrix, model.t)
        ideal = Ideal(matrix.variables, gens)
    else:
        if inp.form_kind != "explicit":
            _fail("--ideal form needs an explicit form with coefficients")
        ideal = Ideal(model.variables, inp.form_coefficients)
    basis = buchberger(ideal, GREVLEX, args.spair_budget)
    dimension = ideal_dimension(basis)
    quotient = quotient_dimension(basis)
    report = {
        "command": "groebner",
        "input": inp.name,
        "groebner": {
            "ideal": args.ideal,
            "chart_point": (point_label(chart_point)
                            if chart_point is not None else None),
            "variables": list(ideal.variables),
            "basis": [str(p) for p in basis.polynomials],
            "dimension": dimension,
            "quotient_dimension": quotient if quotient is not None else "infinite",
        },
        "timing_ms": None,
    }
    return report, EXIT_OK


def _scalar(value):
    if value is None:
        return "none"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, list) and not value:
        return "(none)"
    return str(value)


def _render(value, indent=0):
    pad = "  " * indent
    lines = []
    if isinstance(value, dict):
        for key, item in value.items():
            if isinstance(item, (dict, list)) and item:
                lines.append(f"{pad}{key}:")
                lines.extend(_render(item, indent + 1))
            else:
                lines.append(f"{pad}{key}: {_scalar(item)}")
    elif isinstance(value, list):
        for item in value:
            if isinstance(item, (dict, list)):
                lines.append(f"{pad}-")
                lines.extend(_render(item, indent + 1))
            else:
                lines.append(f"{pad}- {_scalar(item)}")
    else:
        lines.append(f"{pad}{_scalar(value)}")
    return lines


def _emit(report, as_json):
    if as_json:
        print(json.dumps(report, indent=2))
    else:
        print("\n".join(_render(report)))


_COMMANDS = {
    "analyze": cmd_analyze,
    "verify": cmd_verify,
    "euler": cmd_euler,
    "index": cmd_index,
    "groebner": cmd_groebner,
}


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="detsing",
        description="Workbench for determinantal varieties with isolated "
                    "singularities and their index identities.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("input", help="model file (JSON)")
        sp.add_argument("--json", action="store_true",
                        help="emit the report as JSON")
        sp.add_argument("--spair-budget", type=int,
                        default=DEFAULT_SPAIR_BUDGET, metavar="N",
                        help="abort basis computations after N S-pairs")
        sp.add_argument("--timing", action="store_true",
                        help="include wall time in the report")

    common(sub.add_parser("analyze", help="classify the variety and its germs"))
    common(sub.add_parser("verify", help="check the global index identity"))
    common(sub.add_parser("euler", help="solve the identity for chi(X)"))
    index = sub.add_parser("index", help="solve the identity for one index")
    common(index)
    index.add_argument("--at", required=True, metavar="POINT",
                       help="point whose index to solve for")
    groebner = sub.add_parser("groebner", help="print a reduced basis")
    common(groebner)
    groebner.add_argument("--ideal", required=True,
                          choices=["minors", "lower", "form"],
                          help="which ideal to present")
    return parser


_PARSER = _build_parser()


def main(argv=None):
    args = _PARSER.parse_args(argv)
    started = time.perf_counter()
    try:
        if args.spair_budget < 1:
            _fail("--spair-budget must be a positive integer")
        inp = load_input(args.input)
        report, code = _COMMANDS[args.command](inp, args)
    except InputError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INPUT
    except (UnsupportedError, LedgerError, UnsupportedDimensionError) as e:
        print(f"unsupported: {e}", file=sys.stderr)
        return EXIT_UNSUPPORTED
    except ResourceLimitExceeded as e:
        print(f"resource limit: {e}", file=sys.stderr)
        return EXIT_UNSUPPORTED
    if args.timing:
        report["timing_ms"] = int((time.perf_counter() - started) * 1000)
    _emit(report, args.json)
    return code


def main_script():
    raise SystemExit(main())


if __name__ == "__main__":
    main_script()
