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
definition, in its own module, or in another.  So must every top-level
function of the test suite, where a parameter of its name (a fixture's
use) counts as a read; tests (`test_*`) and pytest hooks (`pytest_*`) are
exempt.  No module of the package imports `dataclasses`, at any level: the
records derive from `exactnum.Record`."""

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


def _names_read_or_requested(node):
    """The names `node` reads, and its parameter names, which request a
    pytest fixture of that name."""
    return _names_read(node) | {n.arg for n in ast.walk(node) if isinstance(n, ast.arg)}


def _top_level_statements(sources, read):
    """(module, statement, names) for each top-level statement of each
    module of `sources` (name to source), where names are those that `read`
    finds in every other top-level statement of every module."""
    trees = {m: ast.parse(src) for m, src in sources.items()}
    # Names read by each top-level statement, and by each whole module.
    per_stmt = {m: [read(n) for n in t.body] for m, t in trees.items()}
    whole = {m: set().union(*stmts) for m, stmts in per_stmt.items()}
    for m, tree in trees.items():
        elsewhere = set().union(*(w for o, w in whole.items() if o != m))
        for pos, node in enumerate(tree.body):
            yield m, node, elsewhere.union(
                *(names for j, names in enumerate(per_stmt[m]) if j != pos)
            )


def unreferenced_definitions(package, others):
    """(module, name) of each top-level def/class in the `package` sources,
    and (module, "Class.name") of each non-dunder method or property of a
    top-level class there, that no code reads outside its own definition;
    `others` are further sources whose reads count.  Both map a module name
    to its source."""
    found = []
    for m, node, outside in _top_level_statements({**others, **package}, _names_read):
        if m in package and isinstance(node, (ast.FunctionDef, ast.ClassDef)):
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


def unreferenced_test_helpers(tests, others):
    """(module, name) of each top-level function of the `tests` sources that
    no code reads outside its own definition, nor requests as a fixture by
    a parameter of that name; tests (`test_*`) and pytest hooks
    (`pytest_*`) are exempt.  `others` are further sources whose reads
    count.  Both map a module name to its source."""
    return [
        (m, node.name)
        for m, node, outside in _top_level_statements(
            {**others, **tests}, _names_read_or_requested
        )
        if m in tests
        and isinstance(node, ast.FunctionDef)
        and not node.name.startswith(("test_", "pytest_"))
        and node.name not in outside
    ]


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


def test_no_unreferenced_test_helpers():
    sources = {str(p.relative_to(ROOT)): p.read_text() for p in MODULES}
    tests = {m: s for m, s in sources.items() if m.startswith("tests")}
    others = {m: s for m, s in sources.items() if m not in tests}
    assert unreferenced_test_helpers(tests, others) == []


def test_helper_scan_flags_unreferenced_and_accepts_fixtures():
    tests = {
        "t": (
            "import pytest\n\n"
            "def pytest_configure(config):\n    pass\n\n"
            "@pytest.fixture\ndef parser():\n    return 1\n\n"
            "def oracle(x):\n    return oracle(x)\n\n"
            "def helper():\n    return 2\n\n"
            "def test_one(parser):\n    assert helper() == 2\n"
        ),
        "u": "def shared():\n    pass\n",
    }
    others = {"a": "from u import shared\nshared()\n"}
    assert unreferenced_test_helpers(tests, others) == [("t", "oracle")]


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


def modules_importing(sources, module):
    """Names of the modules, among `sources` (name to source), that import
    `module` or a submodule of it by an absolute `import` or `from ...
    import` anywhere in the module."""

    def names(node):
        if isinstance(node, ast.Import):
            return [alias.name for alias in node.names]
        if isinstance(node, ast.ImportFrom) and node.level == 0:
            return [node.module]
        return []

    return sorted(
        m for m, src in sources.items()
        if any(
            name == module or name.startswith(f"{module}.")
            for node in ast.walk(ast.parse(src))
            for name in names(node)
        )
    )


def test_no_package_module_imports_dataclasses():
    sources = {p.name: p.read_text() for p in PACKAGE.glob("*.py")}
    assert modules_importing(sources, "dataclasses") == []


def test_import_scan_flags_dataclasses_imports():
    sources = {
        "a": "import dataclasses\n",
        "b": "from dataclasses import dataclass\n",
        "c": "def f():\n    import os, dataclasses as dc\n    return dc\n",
        "d": "import dataclasses_json\nfrom .dataclasses import x\nfrom os import dataclasses\n",
    }
    assert modules_importing(sources, "dataclasses") == ["a", "b", "c"]
