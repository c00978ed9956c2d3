"""Never-run-statement gate (Python 3.12+): run the tier-1 suite in process
with a `sys.monitoring` LINE callback, then list every statement of
`src/goodcones` whose first line never ran.

    PYTHONPATH=src python tests/never_run.py [pytest arguments]

The callback records the first LINE event of each line and returns
DISABLE, so each line costs one event.  Docstrings, `def`, `class` and
`global` statements are not counted (a `global` has no bytecode; a `def`
or `class` line runs when its module is imported).  The gate fails when
pytest fails, when a statement that never ran is missing from ALLOWED,
and when an entry of ALLOWED matches no statement that never ran.  It
needs the whole suite: a subset leaves statements unrun."""

import ast
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "goodcones"

# (file, enclosing def or class, statement text, reason): an entry excuses
# the statements of that text in that scope.  A statement's text is the
# first line of its `ast.unparse`, so a compound statement is keyed by its
# header; the scope is the dotted name of the enclosing defs and classes,
# "" at module level.
ALLOWED = (
    (
        "cli.py",
        "main",
        "os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())",
        "a closed stdout is tested in a subprocess (tests/test_cli.py), "
        "which the in-process trace does not see",
    ),
    ("cli.py", "main", "code = 1", "the closed-stdout branch of main, as above"),
    ("cli.py", "", "main()", "runs only as `python -m goodcones.cli`, in a subprocess"),
    (
        "surgery.py",
        "_blowdown_candidates",
        "return",
        "no input of the suite exhausts the blow-down candidates",
    ),
    (
        "surgery.py",
        "_prime_construction",
        "return None",
        "four exits have this text; the suite runs the 3-face and z0 = 0 exits, but "
        "no input of it reaches the no-drift-pair exit (z0 != 0 and every drift of "
        "the scan shares a factor with z0) or runs the prime loop to its end "
        "without an admissible normal",
    ),
    (
        "surgery.py",
        "_planned",
        "raise PlanningError(f'no blow-down normal reduces the run at face {f} "
        "within box {BLOWDOWN_BOX}')",
        "no input of the suite exhausts the blow-down box",
    ),
)
DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def statements(path: Path):
    """(first line, scope, text) of each counted statement of the module at
    `path`, with scope and text as in ALLOWED."""
    tree = ast.parse(path.read_text())
    docstrings = {
        id(node.body[0])
        for node in ast.walk(tree)
        if isinstance(node, (ast.Module, *DEFS)) and ast.get_docstring(node) is not None
    }

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, DEFS):
                yield from visit(child, f"{scope}.{child.name}" if scope else child.name)
                continue
            if isinstance(child, ast.stmt) and not isinstance(child, ast.Global):
                if id(child) not in docstrings:
                    yield child.lineno, scope, ast.unparse(child).splitlines()[0]
            yield from visit(child, scope)

    return visit(tree, "")


def never_run(ran):
    """(file, line, scope, text) of each counted statement whose first line
    is not in `ran`, a set of (path, line)."""
    return sorted(
        (path.name, line, scope, text)
        for path in PACKAGE.glob("*.py")
        for line, scope, text in statements(path)
        if (str(path), line) not in ran
    )


def run_traced(args) -> tuple:
    """(pytest exit code, set of (path, line) that ran in the package)."""
    import pytest

    monitoring = sys.monitoring
    tool = monitoring.COVERAGE_ID
    ran = set()
    # co_filename as imported, to the resolved path of a package module or None
    resolved = {}

    def on_line(code, line):
        name = code.co_filename
        if name not in resolved:
            path = Path(name).resolve()
            resolved[name] = str(path) if path.parent == PACKAGE else None
        if resolved[name] is not None:
            ran.add((resolved[name], line))
        return monitoring.DISABLE

    monitoring.use_tool_id(tool, "never-run")
    monitoring.register_callback(tool, monitoring.events.LINE, on_line)
    monitoring.set_events(tool, monitoring.events.LINE)
    try:
        code = pytest.main(args)
    finally:
        monitoring.set_events(tool, 0)
        monitoring.register_callback(tool, monitoring.events.LINE, None)
        monitoring.free_tool_id(tool)
    return code, ran


def main(argv) -> int:
    if sys.version_info < (3, 12):
        print("never_run.py needs sys.monitoring (Python 3.12+)", file=sys.stderr)
        return 2
    code, ran = run_traced(argv)
    found = never_run(ran)
    allowed = {entry[:3] for entry in ALLOWED}
    unlisted = [s for s in found if (s[0], s[2], s[3]) not in allowed]
    stale = sorted(allowed - {(name, scope, text) for name, _, scope, text in found})
    print(f"never-run statements: {len(found)}, outside the allowlist: {len(unlisted)}")
    for name, line, scope, text in unlisted:
        print(f"  never ran: {name}:{line} ({scope or 'module'}): {text}")
    for name, scope, text in stale:
        print(f"  allowlisted but ran or gone: {name} ({scope or 'module'}): {text}")
    return int(code) or int(bool(unlisted or stale))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
