"""Every module-level import in the package and the test suite is used.

A stdlib `ast` scan: a name bound by a top-level `import` or `from ...
import` must be read somewhere in the same module.  The package
`__init__.py` is exempt, since its imports are re-exports listed in
`__all__`, as is `from __future__ import annotations`."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
EXEMPT = {ROOT / "src" / "goodcones" / "__init__.py"}
MODULES = sorted(
    p
    for d in (ROOT / "src" / "goodcones", ROOT / "tests")
    for p in d.glob("*.py")
    if p not in EXEMPT
)


def unused_imports(source: str):
    tree = ast.parse(source)
    imported = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unused_module_imports(path):
    assert unused_imports(path.read_text()) == []


def test_scan_flags_unused_and_accepts_used():
    src = "from __future__ import annotations\nimport os\nimport math\nx = math.pi\n"
    assert unused_imports(src) == [(2, "os")]
