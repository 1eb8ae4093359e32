"""Command-line workbench over the variety and index layers.

Commands: analyze, verify, euler, index, groebner.  Input is a JSON model
file (schema in README.md, "Input schema"); output is a deterministic
report, as text or with --json as machine-readable JSON.

Exit codes: 0 success (report, identity verified, or value solved),
1 identity violated, 2 input error, 3 unsupported input or resource limit,
4 internal error.
"""

import argparse
import json
import sys
import time
from pathlib import Path

from .detvar import (AFFINE, ESSENTIAL_SINGULAR, OUTSIDE, PROJECTIVE,
                     SMOOTH_STRATUM, AmbientSpace, DeterminantalModel,
                     chart_matrix, classify, is_point_on_variety,
                     lower_locus_generators, lower_stratum_points,
                     parse_point, point_label)
from .grobner import (DEFAULT_SPAIR_BUDGET, Ideal, ResourceLimitExceeded,
                      buchberger, ideal_dimension, quotient_dimension)
from .indexcalc import (SOLVED, VERIFIED, IdentityResult, LedgerError,
                        SingularPointRecord, cstar_fixed_points,
                        global_identity, known_defect)
from .polyalg import PolyMatrix, is_variable_name, minors, parse_polynomial

EXIT_OK = 0
EXIT_VIOLATED = 1
EXIT_INPUT = 2
EXIT_UNSUPPORTED = 3
EXIT_INTERNAL = 4

# the roles of the ledger's entries in a report
ROLE_VARIETY_SINGULARITY = "variety_singularity"
ROLE_SMOOTH_FORM_POINT = "form_singularity_smooth_point"


class InputError(Exception):
    """Bad input file, flag value, or point reference; exit code 2."""


# the JSON type of each kind of value a model takes, as messages name it
_KINDS = {int: "an integer", bool: "a boolean", str: "a string",
          list: "a list", dict: "a JSON object"}


def _typed(value, kind, where):
    # `type(...) is` keeps a JSON true from passing as an integer
    if type(value) is not kind:
        raise InputError(f"{where} must be {_KINDS[kind]}")
    return value


def _require_keys(obj, required, optional, where):
    _typed(obj, dict, where)
    unknown = set(obj) - required - optional
    if unknown:
        raise InputError(f"{where} has unknown keys: {', '.join(sorted(unknown))}")
    missing = required - set(obj)
    if missing:
        raise InputError(f"{where} is missing keys: {', '.join(sorted(missing))}")
    return obj


def _per_variable(value, variables, where, noun):
    if type(value) is not list or len(value) != len(variables):
        raise InputError(f"{where} must list one {noun} per variable")
    return value


def _parsed(parse, text, where, *context):
    """parse(text, *context), naming `where` in the message of a bad text."""
    try:
        return parse(_typed(text, str, where), *context)
    except ValueError as e:
        raise InputError(f"{where}: {e}")


class WorkbenchInput:
    """Validated model file: the model plus form, invariants, and knowns.

    `singularities` maps a point's label to (point, its record fields) and
    `known_indices` a point's label to (point, index).
    """

    def __init__(self, path, model, weights, singularities, form_kind,
                 form_coefficients, chi_x, known_indices):
        self.name = Path(path).name
        self.model = model
        self.weights = weights
        self.singularities = singularities
        self.form_kind = form_kind
        self.form_coefficients = form_coefficients
        self.chi_x = chi_x
        self.known_indices = known_indices


# the optional singularity record fields with their JSON types, in checking
# order
_RECORD_FIELDS = {"n": int, "p": int, "t": int, "d": int, "mu": int,
                  "chi_smoothing": int, "chi_lower_stratum": int,
                  "smoothable": bool}


def load_input(path):
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as e:
        raise InputError(f"cannot read {path}: {e.strerror or e}")
    except UnicodeDecodeError as e:
        raise InputError(f"{path} is not UTF-8 text: {e.reason} at byte {e.start}")
    try:
        data = json.loads(text)
    except (ValueError, RecursionError) as e:
        # ValueError: a JSONDecodeError, or an integer past the interpreter's
        # limit on digits in int(str); RecursionError: arrays or objects
        # nested past the recursion limit
        raise InputError(f"{path} is not valid JSON: {e}")
    _require_keys(data,
                  {"schema_version", "variables", "matrix", "t", "ambient",
                   "singularities"},
                  {"weights", "form", "known"}, "input")
    if _typed(data["schema_version"], int, "schema_version") != 1:
        raise InputError("schema_version must be 1")

    variables = data["variables"]
    if (not isinstance(variables, list) or not variables
            or not all(isinstance(v, str) for v in variables)):
        raise InputError("variables must be a nonempty list of strings")
    for i, v in enumerate(variables):
        if not is_variable_name(v):
            raise InputError(f"variables[{i}]: {v!r} is not a variable name: "
                             "a letter or '_', then letters, digits or '_'")
    if len(set(variables)) != len(variables):
        raise InputError("variable names must be distinct")

    grid = data["matrix"]
    if (not isinstance(grid, list) or not grid
            or not all(isinstance(row, list) and row for row in grid)):
        raise InputError("matrix must be a nonempty grid of polynomial strings")
    # equal cell strings share one parse and one Polynomial; a bad cell is
    # never stored, so it fails at its first position
    parsed = {}
    rows = []
    for i, row in enumerate(grid):
        rows.append([])
        for j, cell in enumerate(row):
            if type(cell) is not str or cell not in parsed:
                parsed[cell] = _parsed(parse_polynomial, cell,
                                       f"matrix[{i}][{j}]", variables)
            rows[i].append(parsed[cell])
    if not any(e for row in rows for e in row):
        raise InputError("matrix must have a nonzero entry")

    t = _typed(data["t"], int, "t")
    ambient = _require_keys(data["ambient"], {"kind", "dim"}, set(), "ambient")
    kind = _typed(ambient["kind"], str, "ambient.kind")
    if kind not in (PROJECTIVE, AFFINE):
        raise InputError('ambient.kind must be "projective" or "affine"')
    dim = _typed(ambient["dim"], int, "ambient.dim")
    try:
        model = DeterminantalModel(PolyMatrix(rows), t, AmbientSpace(kind, dim))
    except ValueError as e:
        raise InputError(str(e))

    weights = None
    if "weights" in data:
        w = _per_variable(data["weights"], variables, "weights", "integer")
        weights = tuple(_typed(x, int, f"weights[{i}]") for i, x in enumerate(w))

    singularities = {}
    for k, entry in enumerate(_typed(data["singularities"], list,
                                     "singularities")):
        where = f"singularities[{k}]"
        _require_keys(entry, {"point"}, _RECORD_FIELDS.keys(), where)
        point = _parsed(parse_point, entry["point"], f"{where}.point", model)
        label = point_label(point)
        if label in singularities:
            raise InputError(f"{where}: duplicate singular point {label}")
        singularities[label] = point, {
            key: _typed(entry[key], json_type, f"{where}.{key}")
            for key, json_type in _RECORD_FIELDS.items() if key in entry}

    form_kind = form_coefficients = None
    if "form" in data:
        form = _require_keys(data["form"], {"kind"}, {"coefficients"}, "form")
        form_kind = _typed(form["kind"], str, "form.kind")
        if form_kind == "cstar":
            if "coefficients" in form:
                raise InputError("a cstar form takes its data from weights, not coefficients")
            if weights is None:
                raise InputError("a cstar form requires the weights field")
        elif form_kind == "explicit":
            if "coefficients" not in form:
                raise InputError("an explicit form requires coefficients")
            if kind == PROJECTIVE:
                raise InputError("explicit forms are supported in affine mode only")
            coeffs = _per_variable(form["coefficients"], variables,
                                   "form.coefficients", "polynomial")
            form_coefficients = tuple(
                _parsed(parse_polynomial, c, f"form.coefficients[{i}]", variables)
                for i, c in enumerate(coeffs))
        else:
            raise InputError('form.kind must be "cstar" or "explicit"')

    known = _require_keys(data.get("known", {}), set(), {"chi_X", "indices"},
                          "known")
    chi_x = (_typed(known["chi_X"], int, "known.chi_X")
             if "chi_X" in known else None)
    known_indices = {}
    for key, value in _typed(known.get("indices", {}), dict,
                             "known.indices").items():
        where = f"known.indices[{key!r}]"
        point = _parsed(parse_point, key, where, model)
        label = point_label(point)
        if label in known_indices:
            raise InputError(f"known.indices names {label} twice")
        known_indices[label] = point, _typed(value, int, where)

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
        "singular_points": list(c.point_labels),
        "singular_points_exact": c.singular_points_exact,
        "local_supported": c.local_supported,
        "notes": list(c.notes),
    }


def _assemble_ledger(inp, classification):
    """(records, smooth) from the input file and the form.

    `records` are the singular points in input order, each with its known
    index or None; `smooth` maps each zero of the form in the smooth stratum
    to its index: the torus fixed points first, then the other known
    indices.
    """
    model = inp.model
    defaults = {"n": model.n, "p": model.p, "t": model.t,
                "d": classification.dimension,
                "smoothable": classification.smoothable}
    records = []
    for label, (point, fields) in inp.singularities.items():
        location = is_point_on_variety(model, point)
        if location.kind == OUTSIDE:
            raise InputError(f"singular point {label} is not on the variety")
        if location.kind == SMOOTH_STRATUM:
            raise InputError(f"{label} lies in the smooth stratum, "
                             "not the singular locus")
        index = inp.known_indices.get(label, (None, None))[1]
        try:
            records.append(SingularPointRecord(label, **(defaults | fields),
                                               index=index))
        except LedgerError as e:
            raise InputError(str(e))
    if classification.singular_points_exact:
        computed = sorted(classification.point_labels)
        listed = sorted(inp.singularities)
        if computed != listed:
            raise InputError("the singularities list does not match the computed "
                             f"singular points (listed {listed}, computed {computed})")

    smooth = {}
    if inp.form_kind == "cstar":
        try:
            fixed = cstar_fixed_points(model, inp.weights)
        except ValueError as e:
            raise InputError(str(e))
        for pt, location in fixed:
            label = point_label(pt)
            if location.kind == ESSENTIAL_SINGULAR:
                if label not in inp.singularities:
                    raise InputError(f"fixed point {label} is an essential singular "
                                     "point but is missing from the singularities list")
                continue
            # index 1: distinct weights make a smooth fixed point a simple zero
            known = inp.known_indices.get(label)
            if known is not None and known[1] != 1:
                raise InputError(f"known index {known[1]} at the smooth fixed point "
                                 f"{label} conflicts with the computed index 1")
            smooth[label] = 1
    for label, (parsed, value) in inp.known_indices.items():
        if label in inp.singularities or label in smooth:
            continue
        location = is_point_on_variety(model, parsed)
        if location.kind != SMOOTH_STRATUM:
            raise InputError(f"known index point {label} must lie in the smooth stratum")
        smooth[label] = value
    return records, smooth


def _identity_block(result):
    return {"status": result.status, "lhs": result.lhs, "rhs": result.rhs,
            "name": result.name, "value": result.value}


def _ledger(inp, args):
    """(body, records, smooth) shared by verify, euler and index.

    The body holds the classification and ledger blocks; each command adds
    its identity block.  The ledger's entries are the records, then the
    smooth zeros, each with its role and index.
    """
    if inp.model.ambient.kind != PROJECTIVE:
        raise LedgerError(
            "the global identity applies to projective varieties only")
    classification = classify(inp.model, args.spair_budget)
    records, smooth = _assemble_ledger(inp, classification)
    body = {
        "classification": _classification_block(classification),
        "ledger": {
            "chi_X": inp.chi_x,
            "entries": [
                *({"point": r.point, "role": ROLE_VARIETY_SINGULARITY,
                   "index": r.index} for r in records),
                *({"point": label, "role": ROLE_SMOOTH_FORM_POINT,
                   "index": index} for label, index in smooth.items())],
            "defects": [{"point": r.point, "defect": known_defect(r)}
                        for r in records],
        },
    }
    return body, records, smooth


def cmd_analyze(inp, args):
    classification = classify(inp.model, args.spair_budget)
    body = {"classification": _classification_block(classification)}
    return body, EXIT_OK if classification.local_supported else EXIT_UNSUPPORTED


def cmd_verify(inp, args):
    body, records, smooth = _ledger(inp, args)
    result = global_identity(records, smooth, inp.chi_x)
    if result.status == SOLVED:
        raise LedgerError(
            f"verification needs a fully determined ledger; {result.name} "
            "is unknown (use euler or index to solve for it)")
    body["identity"] = _identity_block(result)
    return body, EXIT_OK if result.status == VERIFIED else EXIT_VIOLATED


def cmd_euler(inp, args):
    if inp.chi_x is not None:
        raise InputError("euler solves for chi_X, but known.chi_X is already present")
    body, records, smooth = _ledger(inp, args)
    result = global_identity(records, smooth, None)
    body["identity"] = _identity_block(result)
    return body, EXIT_OK


def cmd_index(inp, args):
    target = point_label(_parsed(parse_point, args.at, "--at", inp.model))
    body, records, smooth = _ledger(inp, args)
    record = next((r for r in records if r.point == target), None)
    if target in smooth:
        result = IdentityResult(SOLVED, name=f"index@{target}",
                                value=smooth[target])
    elif record is None:
        raise InputError(f"point {target} is not in the ledger")
    elif record.index is not None:
        raise InputError(f"the index at {target} is already given as {record.index}")
    else:
        result = global_identity(records, smooth, inp.chi_x)
    body["identity"] = _identity_block(result)
    return body, EXIT_OK


def cmd_groebner(inp, args):
    model = inp.model
    chart_point = None
    if args.ideal == "form":
        # the form's coefficients are global polynomials: no chart is used
        if inp.form_kind != "explicit":
            raise InputError("--ideal form needs an explicit form with coefficients")
        ideal = Ideal(model.variables, inp.form_coefficients)
    else:
        points, _, _, gb_low = lower_stratum_points(model, args.spair_budget)
        chart_point = points[0] if points else None
        matrix = (chart_matrix(model, chart_point)
                  if chart_point is not None else model.matrix)
        if args.ideal == "minors":
            gens = minors(matrix, model.t)
        else:
            gens = lower_locus_generators(matrix, model.t)
        ideal = Ideal(matrix.variables, gens)
    if args.ideal == "lower" and chart_point is None and gb_low is not None:
        # the uncharted lower ideal is the one lower_stratum_points reduced,
        # unless it only certified its dimension
        basis = gb_low
    else:
        basis = buchberger(ideal, spair_budget=args.spair_budget)
    dimension = ideal_dimension(basis)
    quotient = quotient_dimension(basis)
    body = {"groebner": {
        "ideal": args.ideal,
        "chart_point": (point_label(chart_point)
                        if chart_point is not None else None),
        "variables": list(ideal.variables),
        "basis": [str(p) for p in basis.polynomials],
        "dimension": dimension,
        "quotient_dimension": quotient if quotient is not None else "infinite",
    }}
    return body, EXIT_OK


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
    """The text lines of a report dict or list, indented by `indent`.

    A dict item is headed `key:` and a list item `-`.  An item nests under
    its head when it is a non-empty dict or list, or any dict or list in a
    list; any other item follows its head on the same line.
    """
    pad = "  " * indent
    pairs = value.items() if isinstance(value, dict) else ((None, v) for v in value)
    lines = []
    for key, item in pairs:
        head = f"{pad}-" if key is None else f"{pad}{key}:"
        if isinstance(item, (dict, list)) and (item or key is None):
            lines.append(head)
            lines.extend(_render(item, indent + 1))
        else:
            lines.append(f"{head} {_scalar(item)}")
    return lines


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
            raise InputError("--spair-budget must be a positive integer")
        inp = load_input(args.input)
        body, code = _COMMANDS[args.command](inp, args)
    except InputError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INPUT
    except LedgerError as e:
        print(f"unsupported: {e}", file=sys.stderr)
        return EXIT_UNSUPPORTED
    except ResourceLimitExceeded as e:
        print(f"resource limit: {e}", file=sys.stderr)
        return EXIT_UNSUPPORTED
    except Exception as e:
        # a fault of the program, never of the input: no traceback, and an
        # exit code that no verdict uses
        print(f"internal error: {type(e).__name__}: {e}", file=sys.stderr)
        return EXIT_INTERNAL
    timing_ms = (int((time.perf_counter() - started) * 1000)
                 if args.timing else None)
    report = {"command": args.command, "input": inp.name, **body,
              "timing_ms": timing_ms}
    print(json.dumps(report, indent=2) if args.json else "\n".join(_render(report)))
    return code


def main_script():
    raise SystemExit(main())


if __name__ == "__main__":
    main_script()
