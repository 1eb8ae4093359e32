"""Statements of `src/detsing` that no test runs.

    python3 tools/line_sweep.py

Run from any directory; it takes no options.  Runs `pytest tests`
in-process under `sys.settrace` and `threading.settrace`, then prints
`module:line: source` for every statement of `src/detsing` that never
ran, and their count.  Docstrings, `def` and `class` lines and imports
are not counted as statements.  Code that only child processes run (the
`if __name__ == "__main__":` block of a module) is listed too, since the
sweep traces this process alone.  A statement spread over several lines
counts as run when any of its own lines ran; for a compound statement,
such as `if` or `for`, only the lines of its header are its own.  A
function stops being traced line by line once each of its statements has
run; the sweep still takes about three times as long as the suite alone,
most of it the cost of having any tracer at all.  Exits with
pytest's exit code.
"""

import ast
import sys
import threading
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "detsing"
NOT_STATEMENTS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef,
                  ast.Import, ast.ImportFrom, ast.Global, ast.Nonlocal)


def _is_docstring(node):
    return (isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)
            and isinstance(node.value.value, str))


def statements(source):
    """{line: first line of the statement it belongs to} over `source`."""
    owner = {}
    for node in ast.walk(ast.parse(source)):
        documented = isinstance(node, (ast.Module, ast.ClassDef,
                                       ast.FunctionDef, ast.AsyncFunctionDef))
        for field in ("body", "orelse", "finalbody", "handlers"):
            block = getattr(node, field, None)
            if not isinstance(block, list):
                continue
            for i, stmt in enumerate(block):
                if isinstance(stmt, ast.ExceptHandler):
                    # `except E:` tests its types on its own line
                    owner[stmt.lineno] = stmt.lineno
                    continue
                if isinstance(stmt, NOT_STATEMENTS) or (
                        documented and i == 0 and field == "body"
                        and _is_docstring(stmt)):
                    continue
                end = stmt.end_lineno
                inner = getattr(stmt, "body", None)
                if isinstance(inner, list) and inner:
                    end = max(stmt.lineno, inner[0].lineno - 1)
                for line in range(stmt.lineno, end + 1):
                    owner[line] = stmt.lineno
    return owner


def sweep(owners, run):
    """Call `run`, with no arguments, under the tracer.

    `owners` maps each traced file's path to its `statements`, and `run`
    returns an exit code.  Returns that code and {path: first lines of the
    statements that ran}.  The package's `src` directory is put on
    `sys.path` first; `run` imports the package itself, so that its
    module-level statements run under the tracer.
    """
    ran = {path: set() for path in owners}
    # {id(code): its statements not yet run}, empty for code outside the
    # traced files; `codes` keeps each code alive, so no id is reused
    pending, codes = {}, []

    def call(frame, event, arg):
        code = frame.f_code
        todo = pending.get(id(code))
        if todo is None:
            codes.append(code)
            owner = owners.get(code.co_filename, {})
            todo = pending[id(code)] = {owner[line] for _, _, line
                                        in code.co_lines() if line in owner}
        if not todo:
            return None
        owner = owners[code.co_filename]
        hit = ran[code.co_filename]

        def local(frame, event, arg):
            first = owner.get(frame.f_lineno)
            if first is not None:
                hit.add(first)
                todo.discard(first)
                if not todo:
                    # returning None would keep `local` as the frame's tracer
                    frame.f_trace = None
                    return None
            return local

        return local

    sys.path.insert(0, str(ROOT / "src"))
    threading.settrace(call)
    sys.settrace(call)
    try:
        code = run()
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return int(code), ran


def run_tests():
    """`pytest tests`, in this process; pytest's exit code."""
    return pytest.main(["-q", "-p", "no:cacheprovider", str(ROOT / "tests")])


def main(run=run_tests):
    """Print each statement that `run` leaves unrun, then their count.

    Returns the exit code of `run` (see `sweep`).
    """
    paths = sorted(PACKAGE.glob("*.py"))
    sources = {str(path): path.read_text(encoding="utf-8") for path in paths}
    owners = {path: statements(source) for path, source in sources.items()}
    code, ran = sweep(owners, run)
    missed = 0
    for path in paths:
        lines = sources[str(path)].splitlines()
        for first in sorted(set(owners[str(path)].values()) - ran[str(path)]):
            missed += 1
            print(f"{path.stem}:{first}: {lines[first - 1].strip()}")
    print(f"{missed} statement{'' if missed == 1 else 's'} never ran")
    return code


if __name__ == "__main__":
    sys.exit(main())
