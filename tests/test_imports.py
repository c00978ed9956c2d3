"""Every module-level import in the package and the test suite is used, and
every module-level function or class of the package is referenced.

A stdlib `ast` scan: a name bound by a top-level `import` or `from ...
import` must be read somewhere in the same module.  The package
`__init__.py` is exempt, since its imports are re-exports listed in
`__all__`, as is `from __future__ import annotations`.  A top-level `def`
or `class` of the package must be read (as a name or an attribute)
somewhere in the package or the test suite outside its own definition;
a re-export in `__init__.py` does not count.  So must every method or
property of a top-level class whose name is not a dunder: outside its own
definition, in its own module, or in another."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
EXEMPT = {ROOT / "src" / "goodcones" / "__init__.py"}
PACKAGE = ROOT / "src" / "goodcones"
MODULES = sorted(
    p
    for d in (PACKAGE, ROOT / "tests")
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


def _names_read(node):
    return {
        n.id if isinstance(n, ast.Name) else n.attr
        for n in ast.walk(node)
        if isinstance(n, (ast.Name, ast.Attribute))
    }


def _is_dunder(name):
    return name.startswith("__") and name.endswith("__")


def unreferenced_definitions(package, others):
    """(module, name) of each top-level def/class in the `package` sources,
    and (module, "Class.name") of each non-dunder method or property of a
    top-level class there, that no code reads outside its own definition;
    `others` are further sources whose reads count.  Both map a module name
    to its source."""
    trees = {m: ast.parse(src) for m, src in {**others, **package}.items()}
    # Names read by each top-level statement, and by each whole module.
    per_stmt = {m: [_names_read(n) for n in t.body] for m, t in trees.items()}
    whole = {m: set().union(*stmts) for m, stmts in per_stmt.items()}
    found = []
    for m in package:
        elsewhere = set().union(*(w for o, w in whole.items() if o != m))
        for pos, node in enumerate(trees[m].body):
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            outside = elsewhere.union(
                *(names for j, names in enumerate(per_stmt[m]) if j != pos)
            )
            if node.name not in outside:
                found.append((m, node.name))
            if not isinstance(node, ast.ClassDef):
                continue
            for k, member in enumerate(node.body):
                if not isinstance(member, ast.FunctionDef) or _is_dunder(member.name):
                    continue
                # the rest of the class, and the member's own decorators
                # (@x.setter reads x)
                in_class = outside.union(
                    *(_names_read(other) for j, other in enumerate(node.body) if j != k),
                    *(_names_read(dec) for dec in member.decorator_list),
                )
                if member.name not in in_class:
                    found.append((m, f"{node.name}.{member.name}"))
    return found


def test_no_unreferenced_package_definitions():
    sources = {str(p.relative_to(ROOT)): p.read_text() for p in MODULES}
    package = {m: s for m, s in sources.items() if m.startswith("src")}
    others = {m: s for m, s in sources.items() if m not in package}
    assert unreferenced_definitions(package, others) == []


def test_definition_scan_flags_unreferenced():
    package = {
        "a": "def used():\n    pass\n\ndef lonely():\n    return lonely()\n",
        "b": "class Kept:\n    pass\n\nx = Kept\n",
        "c": (
            "class Host:\n"
            "    def __init__(self):\n        self.helper()\n\n"
            "    def helper(self):\n        pass\n\n"
            "    @property\n    def size(self):\n        return 1\n\n"
            "    def planted(self):\n        return self.planted()\n"
        ),
    }
    others = {"t": "import a, c\na.used()\nc.Host().size\n"}
    assert unreferenced_definitions(package, others) == [
        ("a", "lonely"),
        ("c", "Host.planted"),
    ]


def modules_with_global(sources):
    """Names of the modules, among `sources` (name to source), that have a
    `global` statement."""
    return sorted(
        m for m, src in sources.items()
        if any(isinstance(n, ast.Global) for n in ast.walk(ast.parse(src)))
    )


def test_module_state_is_only_the_reeb_slot():
    """Module-level state holds only facts of a (cone, R) pair, the slot of
    `reeb.py`; a fact of one object is kept on that object."""
    sources = {p.name: p.read_text() for p in PACKAGE.glob("*.py")}
    assert set(modules_with_global(sources)) <= {"reeb.py"}


def test_global_scan_flags_global_statements():
    sources = {
        "a": "x = 1\n\ndef f():\n    global x\n    x = 2\n",
        "b": "x = 1\n\ndef g():\n    y = x\n    return y\n",
        "c": "class C:\n    def m(self):\n        global z\n",
    }
    assert modules_with_global(sources) == ["a", "c"]
