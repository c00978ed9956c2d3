"""The import budget of one CLI call, counted, not timed.  In a fresh
interpreter started without `site` (`-S`, so that nothing but the call
imports), `cli.run([cmd, doc])` may load only the `goodcones` modules that
its subcommand uses and only the heavy stdlib modules listed for it.  No
subcommand, and no public name of the package, loads `dataclasses` or
`inspect`."""

import ast
import json
import subprocess
import sys
from pathlib import Path

import pytest

import goodcones
from goodcones.construct import example_family
from goodcones.serial import Document, document_to_json

SRC = Path(__file__).resolve().parent.parent / "src"
HEAVY = ("hashlib", "heapq", "random", "json", "argparse", "dataclasses", "inspect")
# Loading a document and parsing argv.
LOAD = {"cli", "serial", "cone", "reeb", "exactnum"}
BASE = {"json", "argparse"}
# subcommand: (further argv, goodcones modules, heavy stdlib modules)
BUDGET = {
    "validate": ([], LOAD, BASE),
    "profile": ([], LOAD, BASE),
    "euler-check": ([], LOAD | {"euler"}, BASE),
    "graph": ([], LOAD | {"graph", "construct"}, BASE | {"random"}),
    "plan": (["--keep", "0,4,5"], LOAD | {"surgery"}, BASE | {"hashlib", "heapq"}),
}

PACKAGE_CHILD = """
import sys

sys.path.insert(0, sys.argv[1])
import goodcones

before = sorted(sys.modules)
from goodcones import validate

print(repr((before, sorted(sys.modules))))
"""

PUBLIC_CHILD = """
import sys

sys.path.insert(0, sys.argv[1])
import goodcones

for name in goodcones.__all__:
    getattr(goodcones, name)
print(repr(sorted(sys.modules)))
"""

CHILD = """
import io, sys
from contextlib import redirect_stdout

sys.path.insert(0, sys.argv[1])
from goodcones import cli

with redirect_stdout(io.StringIO()):
    code = cli.run(sys.argv[2:])
print(repr((code, sorted(sys.modules))))
"""


@pytest.fixture(scope="module")
def document(tmp_path_factory):
    path = tmp_path_factory.mktemp("budget") / "example-3.json"
    cone, reeb = example_family(3)
    path.write_text(json.dumps(document_to_json(Document(cone, reeb))))
    return str(path)


def package_modules(modules):
    return {m[len("goodcones."):] for m in modules if m.startswith("goodcones.")}


def run_child(child, *argv):
    """The value that `child` prints, run in a fresh interpreter."""
    out = subprocess.run(
        [sys.executable, "-S", "-c", child, str(SRC), *argv],
        capture_output=True,
        text=True,
        check=True,
    ).stdout
    return ast.literal_eval(out)


@pytest.mark.parametrize("command", sorted(BUDGET))
def test_a_cli_call_imports_only_what_its_subcommand_uses(document, command):
    extra, modules, heavy = BUDGET[command]
    code, loaded = run_child(CHILD, command, document, *extra)
    assert code == 0
    assert package_modules(loaded) <= modules
    assert {m for m in HEAVY if m in loaded} <= heavy


def test_the_budget_sees_the_graph_imports(document):
    """The child sees what the call loads: `graph` loads the graph module
    and `random`."""
    code, loaded = run_child(CHILD, "graph", document)
    assert code == 0
    assert "goodcones.graph" in loaded and "random" in loaded


def test_no_public_name_imports_dataclasses_or_inspect():
    """Every name of `__all__`, resolved in one interpreter, loads every
    module that defines a public name and neither `dataclasses` nor
    `inspect`."""
    loaded = run_child(PUBLIC_CHILD)
    modules = {"cone", "construct", "euler", "exactnum", "graph", "reeb", "surgery"}
    assert package_modules(loaded) >= modules
    assert "dataclasses" not in loaded and "inspect" not in loaded


def test_the_package_imports_a_public_name_on_first_use():
    """`import goodcones` loads no module; `from goodcones import validate`
    loads the module that defines it and what that imports."""
    before, after = run_child(PACKAGE_CHILD)
    assert package_modules(before) == set()
    assert package_modules(after) == {"cone", "exactnum"}


def test_the_package_resolves_and_keeps_each_public_name():
    """Each name of `__all__`, a public name or a module, resolves on the
    package and is kept there; any other name is an AttributeError."""
    assert len(set(goodcones.__all__)) == len(goodcones.__all__)
    for name in goodcones.__all__:
        value = getattr(goodcones, name)
        assert vars(goodcones)[name] is value
    assert goodcones.__getattr__("graph") is sys.modules["goodcones.graph"]
    assert goodcones.validate is sys.modules["goodcones.cone"].validate
    with pytest.raises(AttributeError, match="no attribute 'missing'"):
        goodcones.missing
