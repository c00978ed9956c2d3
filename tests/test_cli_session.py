"""The CLI in one process: `run` builds its parser once and reuses it, so a
sequence of calls must print what each call prints alone.  Also the exit
codes of bad input: malformed documents, bad `construct` options and
unusable paths exit 2 with a one-line JSON error and no traceback, and
`catalog` takes its options before or after the positional argument."""

import argparse
import json
import os
import random
import re
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

from goodcones import cli, exactnum
from goodcones.construct import example_family, obstructed_family
from goodcones.reeb import ReebVector
from goodcones.serial import Document, DocumentError, document_from_json, document_to_json

from conftest import random_sl3, sl3_image
from malformed_documents import malformed_documents

SRC = str(Path(__file__).resolve().parents[1] / "src")


@pytest.fixture
def fresh_parser():
    cli._parser.cache_clear()
    yield
    cli._parser.cache_clear()


def write_doc(tmp_path, name, cone, reeb):
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(document_to_json(Document(cone=cone, reeb=reeb))))
    return str(path)


def call(capsys, argv):
    code = cli.run(argv)
    out, err = capsys.readouterr()
    return code, out, err


def alone(capsys, argv):
    """The call as the first `run` of a process: with a newly built parser."""
    cli._parser.cache_clear()
    return call(capsys, argv)


@pytest.fixture
def ex6(tmp_path):
    return write_doc(tmp_path, "ex6", *example_family(6))


def assert_sequence_matches_alone(capsys, argvs):
    """Each call of the sequence prints what it prints alone; returns the
    sequence's (code, out, err) triples."""
    expected = {}
    for argv in argvs:
        if tuple(argv) not in expected:
            expected[tuple(argv)] = alone(capsys, argv)
    cli._parser.cache_clear()
    got = [call(capsys, argv) for argv in argvs]
    assert got == [expected[tuple(argv)] for argv in argvs]
    return got


def test_euler_check_with_then_without_ybar(capsys, fresh_parser, ex6):
    with_ybar = ["euler-check", ex6, "--ybar", "3,-1,-3"]
    without = ["euler-check", ex6]
    assert alone(capsys, with_ybar)[1] != alone(capsys, without)[1]
    assert_sequence_matches_alone(capsys, [with_ybar, without, with_ybar, without])


def test_construct_with_then_without_seed(capsys, fresh_parser):
    seeded = ["construct", "--family", "obstructed", "--k", "3", "--seed", "5"]
    default = ["construct", "--family", "obstructed", "--k", "3"]
    assert alone(capsys, seeded)[1] != alone(capsys, default)[1]
    assert_sequence_matches_alone(capsys, [seeded, default, seeded])


def test_usage_and_domain_errors_then_good_calls(capsys, fresh_parser, ex6, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"normals": [[1, 0, 0], [0, 1, 0], [1, 1, 0]]}))
    ex2 = write_doc(tmp_path, "ex2", *example_family(2))
    concave = tmp_path / "concave.json"
    concave.write_text(json.dumps({"normals": [[1, 0, 0], [1, 1, 0], [0, 1, 0]]}))
    argvs = [
        ["invariants", ex6, "--face", "x"],
        ["invariants", ex6, "--face", "1"],
        ["no-such-command"],
        ["graph", ex6],
        ["validate", str(bad)],
        ["validate", ex6],
        ["construct", "--family", "example", "--k", "0"],
        ["construct", "--family", "example", "--k", "2"],
        ["euler-check", ex2, "--ybar", "1,0,0"],  # off the Lie(G) plane
        ["euler-check", ex6, "--ybar", "3,-1,-3"],  # not transverse
        ["plan", ex6, "--keep", "0,2,4,5,6,7"],  # removed 1, 3, 8: PlanningError
        ["catalog", "get", "0" * 64, "--store", str(tmp_path / "store")],  # CatalogError
        ["close", str(concave)],  # not convex: ChainError, a usage error
    ]
    got = assert_sequence_matches_alone(capsys, argvs)
    assert [code for code, _, _ in got] == [2, 0, 2, 0, 1, 0, 2, 0, 1, 1, 1, 1, 2]
    for code, out, err in got[-5:]:
        assert out == "" and "Traceback" not in err
        assert len(err.splitlines()) == 1 and set(json.loads(err)) == {"error"}


@pytest.mark.parametrize(
    "name,pair", [("example-64", example_family(64)), ("obstructed-16", obstructed_family(16))]
)
def test_each_command_twenty_times_matches_alone(capsys, fresh_parser, tmp_path, name, pair):
    path = write_doc(tmp_path, name, *pair)
    argvs = [[command, path] for command in ("validate", "profile", "euler-check", "graph")]
    got = assert_sequence_matches_alone(capsys, [argv for argv in argvs for _ in range(20)])
    assert {code for code, _, _ in got} == {0}


def test_parser_is_built_once_across_calls(capsys, fresh_parser, monkeypatch, ex6):
    built = []
    real = cli.build_parser

    def counting():
        built.append(1)
        return real()

    monkeypatch.setattr(cli, "build_parser", counting)
    for argv in (["validate", ex6], ["profile", ex6], ["rank", ex6], ["nope"]) * 5:
        call(capsys, argv)
    assert len(built) == 1


def test_import_does_not_build_the_parser():
    code = "import goodcones.cli as c; assert c._parser.cache_info().currsize == 0"
    subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": SRC}, check=True)


# ---------------------------------------------------------------------------
# Malformed documents.
# ---------------------------------------------------------------------------

MALFORMED = malformed_documents()


def assert_json_usage_error(code, out, err):
    assert code == 2
    assert out == ""
    assert "Traceback" not in err
    lines = err.strip().splitlines()
    assert len(lines) == 1 and set(json.loads(lines[0])) == {"error"}


@pytest.mark.parametrize("name", sorted(MALFORMED))
def test_malformed_document_raises_document_error(name):
    with pytest.raises(DocumentError):
        document_from_json(MALFORMED[name])


@pytest.mark.parametrize("name", sorted(MALFORMED))
@pytest.mark.parametrize("command", ["validate", "profile", "graph"])
def test_malformed_document_exits_2(capsys, tmp_path, name, command):
    path = tmp_path / "m.json"
    path.write_text(json.dumps(MALFORMED[name]))
    assert_json_usage_error(*call(capsys, [command, str(path)]))


def test_malformed_document_exits_2_in_a_subprocess(tmp_path):
    path = tmp_path / "m.json"
    path.write_text(json.dumps(MALFORMED["p-entry-zero-denominator"]))
    proc = subprocess.run(
        [sys.executable, "-m", "goodcones.cli", "profile", str(path)],
        env={**os.environ, "PYTHONPATH": SRC},
        capture_output=True,
        text=True,
    )
    assert_json_usage_error(proc.returncode, proc.stdout, proc.stderr)


def test_non_integer_normals_are_not_truncated():
    doc = {"normals": [[1, 0, 1], [1, 1, 1], [1, 2, 3.0]]}
    with pytest.raises(DocumentError):
        document_from_json(doc)


def test_unreadable_document_exits_2(capsys, tmp_path):
    assert_json_usage_error(*call(capsys, ["validate", str(tmp_path)]))
    binary = tmp_path / "b.json"
    binary.write_bytes(b"\xff\xfe\x00")
    assert_json_usage_error(*call(capsys, ["validate", str(binary)]))


# ---------------------------------------------------------------------------
# construct options.
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("family", ["example", "obstructed"])
@pytest.mark.parametrize("k", [0, 1, -2])
def test_construct_rejects_small_k(capsys, family, k):
    assert_json_usage_error(*call(capsys, ["construct", "--family", family, "--k", str(k)]))


@pytest.mark.parametrize("d", [4, 0, 1, 9, -3])
def test_construct_rejects_non_square_free_d(capsys, d):
    argv = ["construct", "--family", "example", "--k", "2", "--d", str(d)]
    assert_json_usage_error(*call(capsys, argv))


@pytest.mark.parametrize("d", [4, 0, 1, 9, -3])
def test_reeb_vector_rejects_non_square_free_d(d):
    with pytest.raises(ValueError, match=f"discriminant must be square-free >= 2, got {d}"):
        ReebVector((1, 0, 1), (1, 3, 7), d)


@pytest.mark.parametrize("d", [2**63, 2**63 + 1])
def test_construct_rejects_d_beyond_2_63(capsys, d):
    argv = ["construct", "--family", "example", "--k", "2", "--d", str(d)]
    code, out, err = call(capsys, argv)
    assert_json_usage_error(code, out, err)
    assert json.loads(err)["error"] == f"--d must be below 2**63, got {d}"


def test_documents_and_reeb_vectors_reject_d_beyond_2_63(capsys, tmp_path):
    d = 2**63 + 1
    message = f"discriminant must be below 2**63, got {d}"
    with pytest.raises(ValueError, match=re.escape(message)):
        ReebVector((1, 0, 1), (1, 3, 7), d)
    path = tmp_path / "big-d.json"
    path.write_text(json.dumps(MALFORMED["d-beyond-2-63"]))
    for argv in (["graph", str(path)], ["render", str(path), "--out", str(tmp_path / "x.svg")]):
        code, out, err = call(capsys, argv)
        assert_json_usage_error(code, out, err)
        assert json.loads(err)["error"] == message


def test_large_square_free_d_is_decided_once(capsys, tmp_path, monkeypatch):
    """With d = 10**12 + 39, trial division to sqrt(d) for every QuadNumber
    took seconds per command; now square-freeness is decided once per d, and
    each command, the first included, ends within 2 s."""
    d = 10**12 + 39
    path = write_doc(tmp_path, "ex6-big-d", *example_family(6, d=d))
    calls = []
    decide = exactnum._is_square_free
    monkeypatch.setattr(exactnum, "_is_square_free", lambda x: calls.append(x) or decide(x))
    exactnum._discriminant_fault.cache_clear()
    try:
        svg = str(tmp_path / "ex6.svg")
        for argv in (["graph", path], ["render", path, "--out", svg], ["graph", path]):
            start = time.perf_counter()
            code, out, err = call(capsys, argv)
            assert code == 0 and err == "", (argv, err)
            assert time.perf_counter() - start < 2, argv
    finally:
        exactnum._discriminant_fault.cache_clear()
    assert calls == [d]


def test_construct_accepts_square_free_d(capsys):
    code, out, _ = call(capsys, ["construct", "--family", "example", "--k", "2", "--d", "6"])
    assert code == 0 and json.loads(out)["reeb"]["d"] == 6


# ---------------------------------------------------------------------------
# Paths and the catalog.
# ---------------------------------------------------------------------------


def test_render_to_missing_directory_exits_2(capsys, ex6, tmp_path):
    out = str(tmp_path / "missing" / "x.svg")
    assert_json_usage_error(*call(capsys, ["render", ex6, "--out", out]))


def test_catalog_store_that_is_a_file_exits_2(capsys, ex6, tmp_path):
    store = tmp_path / "store"
    store.write_text("")
    assert_json_usage_error(*call(capsys, ["catalog", "add", ex6, "--store", str(store)]))


def test_catalog_accepts_options_in_either_position(capsys, tmp_path):
    doc = write_doc(tmp_path, "obs", *obstructed_family(3, seed=5))
    store = str(tmp_path / "store")
    code, out, _ = call(capsys, ["catalog", "add", "--store", store, doc])
    assert code == 0
    digest = json.loads(out)["hash"]
    code, again, _ = call(capsys, ["catalog", "add", doc, "--store", store])
    assert code == 0 and json.loads(again)["hash"] == digest
    code, listing, _ = call(capsys, ["catalog", "list", "--store", store])
    assert code == 0 and [e["hash"] for e in json.loads(listing)] == [digest]
    before = call(capsys, ["catalog", "get", "--store", store, digest])
    after = call(capsys, ["catalog", "get", digest, "--store", store])
    assert before == after and before[0] == 0
    assert json.loads(before[1])["cone"] == json.loads(Path(doc).read_text())["cone"]


@pytest.mark.parametrize("argv", [["catalog"], ["catalog", "add", "--store", "s"],
                                  ["catalog", "get", "--store", "s"], ["catalog", "list"]])
def test_catalog_usage_errors_exit_2(capsys, argv):
    assert call(capsys, argv)[0] == 2


# ---------------------------------------------------------------------------
# Argument parsing: one parser per call, the same usage messages.
# ---------------------------------------------------------------------------


def parsed_directly(capsys, argv):
    """(exit code, stdout, stderr) of `build_parser().parse_args(argv)`, with
    the exit code that `run` gives a SystemExit; the namespace if it parses."""
    try:
        args = cli.build_parser().parse_args(argv)
    except SystemExit as exc:
        out, err = capsys.readouterr()
        return 2 if exc.code not in (0, None) else 0, out, err
    return args


USAGE_ARGVS = [
    [],
    ["-h"],
    ["--help"],
    ["-h", "validate"],
    ["validate", "-h"],
    ["catalog", "add", "--help"],
    ["no-such-command"],
    ["-x", "validate", "f.json"],
    ["validate", "f.json", "extra"],
    ["validate", "f.json", "--face", "1"],
    ["catalog", "list", "--store", "s", "extra"],
    ["validate"],
    ["invariants", "f.json"],
    ["blowup", "f.json", "--t"],
    ["invariants", "f.json", "--face", "x"],
    ["construct", "--family", "example", "--k", "two"],
    ["construct", "--family", "example", "--k", "2.5"],
    ["construct", "--family", "nope", "--k", "2"],
    ["catalog"],
    ["catalog", "nope"],
    ["catalog", "get", "--store", "s"],
]


@pytest.mark.parametrize("argv", USAGE_ARGVS, ids=" ".join)
def test_usage_errors_match_the_top_level_parser(capsys, fresh_parser, argv):
    expected = parsed_directly(capsys, argv)
    assert isinstance(expected, tuple), "not a usage error"
    assert call(capsys, argv) == expected


PARSED_ARGVS = [
    ["validate", "f.json"],
    ["validate", "--", "f.json"],
    ["invariants", "--face", "2", "f.json"],
    ["invariants", "f.json", "--face=-1"],
    ["euler-check", "f.json", "--ybar", "1,2,3"],
    ["euler-check", "f.json", "--ybar=-1,2,3"],
    ["construct", "--family", "obstructed", "--k", "3"],
    ["construct", "--family", "example", "--k", "8", "--seed", "3", "--d", "5"],
    ["plan", "f.json", "--keep", "0,1"],
    ["toric-check", "--vmin", "1,0", "--vmax", "0,1"],
    ["catalog", "add", "--store", "s", "f.json"],
    ["catalog", "get", "abc", "--store", "s"],
    ["catalog", "list", "--store", "s"],
]


@pytest.mark.parametrize("argv", PARSED_ARGVS, ids=" ".join)
def test_parsed_arguments_match_the_top_level_parser(capsys, fresh_parser, argv):
    expected = parsed_directly(capsys, argv)
    assert not isinstance(expected, tuple), "a usage error"
    assert vars(cli._parse(argv)) == vars(expected)


def test_a_cli_call_keeps_to_its_compute_once_budget(capsys, monkeypatch, tmp_path):
    """One `run(["profile", doc])` parses argv once, on the subcommand's
    parser alone, and its `document_from_json` builds one Fraction per
    Reeb entry, in `parse_frac`, which the ReebVector keeps."""
    rnd = random.Random(14)
    cone, reeb = sl3_image(random_sl3(rnd), *example_family(16))
    third = ReebVector(tuple(x / 3 for x in reeb.p), tuple(x / 7 for x in reeb.q), 3)
    paths = [write_doc(tmp_path, "image", cone, reeb), write_doc(tmp_path, "thirds", cone, third)]
    assert "/" in Path(paths[1]).read_text()

    parsers = []
    parse_known_args = argparse.ArgumentParser.parse_known_args

    def counting_parse(self, *args, **kwargs):
        parsers.append(self)
        return parse_known_args(self, *args, **kwargs)

    built = []
    new = Fraction.__new__

    def counting_new(cls, *args, **kwargs):
        value = new(cls, *args, **kwargs)
        built.append(value)
        return value

    decoded = []
    decode = cli.document_from_json

    def counting_decode(obj):
        start = len(built)
        doc = decode(obj)
        decoded.append((doc, built[start:]))
        return doc

    monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args", counting_parse)
    monkeypatch.setattr(Fraction, "__new__", counting_new)
    monkeypatch.setattr(cli, "document_from_json", counting_decode)
    commands = cli._parser()[1]
    for path in paths:
        parsers.clear()
        decoded.clear()
        assert cli.run(["profile", path]) == 0
        assert parsers == [commands["profile"]]
        ((doc, fractions),) = decoded
        assert [id(x) for x in fractions] == [id(x) for x in doc.reeb.p + doc.reeb.q]
    capsys.readouterr()
