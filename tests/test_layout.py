"""Source-layout rules for the library package."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import detsing

SOURCES = sorted(Path(detsing.__file__).parent.glob("*.py"))


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_library_has_no_assert_statements(path):
    # asserts vanish under `python -O`; checks that matter raise, cross-checks
    # live in the tests
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree)
             if isinstance(node, ast.Assert)]
    assert lines == [], f"{path.name} has assert statements on lines {lines}"


# modules whose arithmetic is exact: every quotient goes through
# `_linalg.div`, since `/` on two ints gives a float
EXACT_MODULES = ("_linalg.py", "polyalg.py", "grobner.py", "detvar.py")


def _true_divisions(node, module):
    if (module == "_linalg.py" and isinstance(node, ast.FunctionDef)
            and node.name == "div"):
        return
    if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div):
        yield node.lineno
    for child in ast.iter_child_nodes(node):
        yield from _true_divisions(child, module)


@pytest.mark.parametrize("name", EXACT_MODULES)
def test_exact_modules_divide_only_through_div(name):
    path = Path(detsing.__file__).parent / name
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    lines = list(_true_divisions(tree, name))
    assert lines == [], f"{name} divides with '/' outside div on lines {lines}"


def test_grobner_has_one_reduction_route():
    # Buchberger, normal_form and autoreduction divide on packed monomials;
    # importing the tuple product or divisibility helpers would open a
    # second reduction route on exponent tuples
    path = Path(detsing.__file__).parent / "grobner.py"
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update(alias.asname or alias.name for alias in node.names)
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    assert not names & {"_mono_mul", "_mono_divides"}


def test_coefficients_are_made_exact_in_one_place():
    # `polyalg._polynomial` is the one site that stores integral Fractions
    # as ints: a term-map helper, a second `type(sum(...))` test or a
    # per-term type check in `unpack` would split that rule again
    helpers, sum_tests = [], []
    for path in SOURCES:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.FunctionDef) and node.name == "_exact_terms":
                helpers.append((path.name, node.lineno))
            elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                  and node.func.id == "type" and node.args
                  and isinstance(node.args[0], ast.Call)
                  and isinstance(node.args[0].func, ast.Name)
                  and node.args[0].func.id == "sum"):
                sum_tests.append((path.name, node.lineno))
    assert helpers == []
    assert [name for name, _ in sum_tests] == ["polyalg.py"], sum_tests
    path = Path(detsing.__file__).parent / "grobner.py"
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    (unpack,) = [node for node in ast.walk(tree)
                 if isinstance(node, ast.FunctionDef) and node.name == "unpack"]
    assert _calls(unpack, "type") == _calls(unpack, "exact") == []
    assert _calls(unpack, "_polynomial")


def test_grobner_has_one_monomial_order():
    # every basis is grevlex; an eliminant is read from it by normal forms,
    # so no second order, order object or "lex" order kind comes back
    path = Path(detsing.__file__).parent / "grobner.py"
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.ClassDef, ast.FunctionDef)):
            names.add(node.name)
        elif isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.Constant) and node.value == "lex":
            names.add(repr(node.value))
    assert not names & {"MonomialOrder", "LEX", "GREVLEX", "'lex'"}


def test_only_buchberger_widens():
    # normal forms and eliminants size their fields once from degree bounds;
    # only Buchberger's degrees are unbounded in advance, so `_buchberger`
    # alone builds a wider packing, inside its pair loop, and goes on
    path = Path(detsing.__file__).parent / "grobner.py"
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    widening = {node.name for node in tree.body if isinstance(node, ast.FunctionDef)
                for loop in ast.walk(node) if isinstance(loop, (ast.For, ast.While))
                if _calls(loop, "_Packing")}
    assert widening == {"_buchberger"}
    ceilings = [node.lineno for node in ast.walk(tree)
                if isinstance(node, ast.Attribute) and node.attr == "ceiling"]
    assert ceilings == [], f"grobner.py names an attribute ceiling on lines {ceilings}"


def _function(name, module):
    path = Path(detsing.__file__).parent / module
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    (node,) = [node for node in tree.body
               if isinstance(node, ast.FunctionDef) and node.name == name]
    return node


def _calls(node, name):
    return [sub.lineno for sub in ast.walk(node)
            if isinstance(sub, ast.Call) and isinstance(sub.func, ast.Name)
            and sub.func.id == name]


def test_chart_frames_are_built_on_a_memo_miss():
    # a chart's dehomogenized entries and their own variables depend on the
    # chart index alone, so `chart_ideal` builds them under the `if` of a
    # memo miss and stores them, not once per point
    chart = _function("chart_ideal", "detvar.py")
    calls = _calls(chart, "_chart_frame")
    misses = [node for node in ast.walk(chart) if isinstance(node, ast.If)
              and any(_calls(stmt, "_chart_frame") for stmt in node.body)]
    assert calls, "chart_ideal does not call _chart_frame"
    assert [line for node in misses for stmt in node.body
            for line in _calls(stmt, "_chart_frame")] == calls
    stores = [target for node in misses for stmt in node.body
              if isinstance(stmt, ast.Assign) for target in stmt.targets]
    assert any(isinstance(target, ast.Subscript) for target in stores), \
        "the frame built on a miss is not stored in the memo"


def _rebinding_sums(node):
    """Lines of `x = ... x + y ...`, `x = ... x - y ...` and `x += y` under `node`."""
    for sub in ast.walk(node):
        if (isinstance(sub, ast.AugAssign) and isinstance(sub.op, (ast.Add, ast.Sub))
                and isinstance(sub.target, ast.Name)):
            yield sub.lineno
        elif isinstance(sub, ast.Assign):
            names = {t.id for t in sub.targets if isinstance(t, ast.Name)}
            if any(isinstance(op, ast.BinOp) and isinstance(op.op, (ast.Add, ast.Sub))
                   and {getattr(op.left, "id", None), getattr(op.right, "id", None)} & names
                   for op in ast.walk(sub.value)):
                yield sub.lineno


def test_determinants_sum_into_one_term_dict():
    # each signed product of a cofactor expansion adds its terms into one
    # dict; a running Polynomial total copies every term it has at each sum
    det = _function("_det_cofactor", "polyalg.py")
    seeds = [node.lineno for node in ast.walk(det)
             if isinstance(node, ast.Attribute) and node.attr in ("zero", "constant")]
    chains = list(_rebinding_sums(det))
    assert seeds == [], f"_det_cofactor seeds a Polynomial total on lines {seeds}"
    assert chains == [], f"_det_cofactor rebinds a running sum on lines {chains}"


def _imported_modules(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name
        elif isinstance(node, ast.ImportFrom) and not node.level:
            yield node.lineno, node.module


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_library_does_not_import_dataclasses(path):
    # `dataclasses` pulls in inspect, ast and dis, and each decorated class
    # execs generated methods: together a third of the CLI's start-up
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    lines = [line for line, module in _imported_modules(tree)
             if module.split(".")[0] == "dataclasses"]
    assert lines == [], f"{path.name} imports dataclasses on lines {lines}"


def test_cli_import_leaves_heavy_modules_unloaded():
    # every `detsing` process pays for what `import detsing.cli` loads
    src = Path(detsing.__file__).parent.parent
    probe = ("import sys, detsing.cli; "
             "print(' '.join(m for m in ('dataclasses', 'inspect', 'ast', 'dis')"
             " if m in sys.modules))")
    env = dict(os.environ, PYTHONPATH=str(src))
    done = subprocess.run([sys.executable, "-c", probe], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == []


CONTAINERS = (ast.Dict, ast.List, ast.Set, ast.DictComp, ast.ListComp,
              ast.SetComp)


def _is_container(node):
    return isinstance(node, CONTAINERS) or (
        isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
        and node.func.id in ("dict", "list", "set"))


def _is_context_var(node):
    func = node.func if isinstance(node, ast.Call) else None
    return (isinstance(func, ast.Name) and func.id == "ContextVar"
            or isinstance(func, ast.Attribute) and func.attr == "ContextVar")


def _holds_memo(node):
    # `a, b = set(), {}` binds a container as much as `b = {}` does
    if isinstance(node, ast.Tuple):
        return any(_holds_memo(element) for element in node.elts)
    return _is_container(node) or _is_context_var(node)


def _per_call_memo_faults(name, tables=()):
    """Lines of `name` that hold a memo past one call.

    Returns (module-level containers or context variables other than the
    named `tables`, uses of lru_cache or cache).
    """
    path = Path(detsing.__file__).parent / name
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    containers = [node.lineno for node in tree.body
                  if isinstance(node, (ast.Assign, ast.AnnAssign))
                  and node.value is not None and _holds_memo(node.value)
                  and not _assigned_names(node) <= set(tables)]
    caches = [node.lineno for node in ast.walk(tree)
              if isinstance(node, ast.Name) and node.id in ("lru_cache", "cache")
              or isinstance(node, ast.Attribute) and node.attr in ("lru_cache", "cache")
              or isinstance(node, ast.ImportFrom) and node.module == "functools"
              and {a.name for a in node.names} & {"lru_cache", "cache"}]
    return containers, caches


def _assigned_names(node):
    # None stands for a target that is not a plain name, which no table has
    targets = node.targets if isinstance(node, ast.Assign) else [node.target]
    return {t.id if isinstance(t, ast.Name) else None for t in targets}


def test_detvar_memos_live_inside_one_call():
    # the chart shifts and the weight gate memoize per call; a module-level
    # container, context variable or lru_cache would carry them from one
    # model to the next, or hide them from the signatures
    containers, caches = _per_call_memo_faults("detvar.py")
    assert containers == [], f"module-level containers on lines {containers}"
    assert caches == [], f"function caches on lines {caches}"


def test_point_solver_has_one_route():
    # `_solve_zero_dimensional` is one plain recursion: a split basis is
    # solved as a product and any other substitutes each root; a nested
    # solver, a table of solved subsystems or a second substitution (a
    # scaled one on raw terms) would open another route to the same points
    path = Path(detsing.__file__).parent / "detvar.py"
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    solver = next(node for node in tree.body if isinstance(node, ast.FunctionDef)
                  and node.name == "_solve_zero_dimensional")
    nested = [node.lineno for node in ast.walk(solver) if node is not solver
              and isinstance(node, (ast.FunctionDef, ast.Lambda))]
    # a dict display passed to `eliminate` is an assignment, not a table
    tables = [node.lineno for node in ast.walk(solver)
              if isinstance(node, (ast.Assign, ast.AnnAssign, ast.NamedExpr))
              and (isinstance(node.value, (ast.Dict, ast.Set, ast.DictComp,
                                           ast.SetComp))
                   or isinstance(node.value, ast.Call)
                   and isinstance(node.value.func, ast.Name)
                   and node.value.func.id in {"dict", "set", "defaultdict"})]
    names = {node.attr if isinstance(node, ast.Attribute) else node.id
             for node in ast.walk(solver)
             if isinstance(node, (ast.Attribute, ast.Name))}
    assert nested == [], f"nested functions on lines {nested}"
    assert tables == [], f"containers on lines {tables}"
    assert "eliminate" in names
    assert not {n for n in names if n == "_raw" or n.startswith("_substitute")}


def test_polyalg_memos_live_inside_one_call():
    # the products of the minors are memoized per call or per caller's dict;
    # `_OPERATORS`, the tokenizer's fixed character set, is the one table
    containers, caches = _per_call_memo_faults("polyalg.py", ("_OPERATORS",))
    assert containers == [], f"module-level containers on lines {containers}"
    assert caches == [], f"function caches on lines {caches}"


def test_grobner_memos_live_inside_one_call():
    # a packing, the pair queue and the partial basis are built per basis
    # call, and a widening repacks them within that call
    containers, caches = _per_call_memo_faults("grobner.py")
    assert containers == [], f"module-level containers on lines {containers}"
    assert caches == [], f"function caches on lines {caches}"


def test_cli_leaves_point_syntax_to_detvar():
    # `detvar.parse_point` owns both point grammars; the CLI adds only the
    # location of a bad point to its message
    path = Path(detsing.__file__).parent / "cli.py"
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    lines = [line for line, module in _imported_modules(tree)
             if module in ("re", "fractions")]
    assert lines == [], f"cli.py imports re or fractions on lines {lines}"


def test_cli_leaves_the_variable_name_rule_to_polyalg():
    # `polyalg.is_variable_name` reads a name as the entry tokenizer does;
    # the CLI makes no character test of its own
    path = Path(detsing.__file__).parent / "cli.py"
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree)
             if isinstance(node, ast.Attribute)
             and node.attr in ("isalpha", "isalnum")]
    assert lines == [], f"cli.py tests name characters on lines {lines}"


def _envelope_writes(node, keys):
    """Lines of `node` that write one of `keys` into a dict."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Dict):
            found = [k for k in sub.keys
                     if isinstance(k, ast.Constant) and k.value in keys]
        elif isinstance(sub, ast.Subscript) and isinstance(sub.ctx, ast.Store):
            found = [sub.slice] if (isinstance(sub.slice, ast.Constant)
                                    and sub.slice.value in keys) else []
        else:
            continue
        yield from (k.lineno for k in found)


def test_cli_writes_the_report_envelope_in_main_only():
    # each command returns its own blocks and `main` wraps them in command,
    # input and timing_ms, so every report has one envelope
    path = Path(detsing.__file__).parent / "cli.py"
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    keys = {"command", "input", "timing_ms"}
    writes = {True: [], False: []}
    for node in tree.body:
        is_main = isinstance(node, ast.FunctionDef) and node.name == "main"
        writes[is_main].extend(_envelope_writes(node, keys))
    outside = writes[False]
    assert outside == [], f"cli.py writes the envelope outside main on lines {outside}"
    assert len(writes[True]) == len(keys)
