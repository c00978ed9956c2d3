"""Every subcommand that `test_golden.py` does not pin, and `graph` on a
document with two regular extremes, prints exactly
`json.dumps(obj, indent=2)` and a newline on stdout: ASCII with \\u
escapes, keys in the order they were built.  The catalog's stored
documents may carry any JSON metadata (floats, NaN, non-ASCII text,
nested empty containers), and `catalog get` prints it back the same way."""

import json

import pytest

from goodcones.cli import run
from goodcones.cone import GoodCone
from goodcones.construct import example_family
from goodcones.reeb import reeb_from_vectors
from goodcones.serial import Document, document_to_json

METADATA = {
    "name": "caf\xe9 中 \U0001f600 \x01\t\"q\"",
    "weights": [1.5, -0.0, 1e300, 2.5e-10, float("nan"), float("inf"), float("-inf")],
    "nested": {"a": [], "b": {}, "c": [[], {}, [{}]], "d": None, "e": True, "f": 0.1},
    "big": 2**70 + 3,
}


def write(path, obj) -> str:
    path.write_text(json.dumps(obj))
    return str(path)


@pytest.fixture
def files(tmp_path):
    cone, reeb = example_family(2)
    doc = document_to_json(Document(cone=cone, reeb=reeb, metadata=METADATA))
    # both extremes regular vertices, as in `test_golden.py`
    regular = Document(
        cone=GoodCone(((1, -2, 0), (4, -7, 2), (0, 0, 1), (-1, -3, 7), (0, -1, 1))),
        reeb=reeb_from_vectors((7, -30, 30), (13, -34, 24), 5),
    )
    return {
        "doc": write(tmp_path / "ex2.json", doc),
        "regular": write(tmp_path / "regular.json", document_to_json(regular)),
        "bad": write(tmp_path / "bad.json", {"normals": [[1, 0, 0], [0, 1, 0], [1, 1, 0]]}),
        "chain": write(tmp_path / "chain.json", {"normals": doc["cone"]["normals"][:-1]}),
        "store": str(tmp_path / "store"),
    }


def assert_json_dumps_indent_2(capsys, argv, code):
    assert run(argv) == code
    out, err = capsys.readouterr()
    assert err == ""
    assert out == json.dumps(json.loads(out), indent=2) + "\n"
    return json.loads(out)


CASES = {
    "construct-example": (["construct", "--family", "example", "--k", "5"], 0),
    "construct-obstructed": (
        ["construct", "--family", "obstructed", "--k", "3", "--seed", "5", "--d", "7"],
        0,
    ),
    "validate-good": (["validate", "{doc}"], 0),
    "validate-not-good": (["validate", "{bad}"], 1),
    "invariants": (["invariants", "{doc}", "--face", "1"], 0),
    "rank": (["rank", "{doc}"], 0),
    "graph-regular-extremes": (["graph", "{regular}"], 0),
    "blowup": (["blowup", "{doc}", "--t", "1,0,0"], 0),
    "blowdown": (["blowdown", "{doc}", "--face", "3"], 0),
    "blowdown-rejected": (["blowdown", "{doc}", "--face", "1"], 1),
    "close": (["close", "{chain}"], 0),
    "toric-check-found": (["toric-check", "--vmin", "1,2", "--vmax", "2,1"], 0),
    "toric-check-not-found": (["toric-check", "--vmin", "3,1", "--vmax", "1,3"], 1),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_subcommand_prints_json_dumps_indent_2(capsys, files, case):
    argv, code = CASES[case]
    out = assert_json_dumps_indent_2(capsys, [a.format(**files) for a in argv], code)
    if case == "blowdown-rejected":
        assert set(out) == {"error", "failures"}


def test_catalog_prints_json_dumps_indent_2(capsys, files):
    store = ["--store", files["store"]]
    added = assert_json_dumps_indent_2(capsys, ["catalog", "add", files["doc"], *store], 0)
    listed = assert_json_dumps_indent_2(capsys, ["catalog", "list", *store], 0)
    assert listed == [{"hash": added["hash"], "name": METADATA["name"]}]
    got = assert_json_dumps_indent_2(capsys, ["catalog", "get", added["hash"], *store], 0)
    # The store writes its files with sorted keys; NaN is compared as text.
    assert json.dumps(got["metadata"], sort_keys=True) == json.dumps(METADATA, sort_keys=True)
