import importlib
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import goodcones
import goodcones.cli as cli_module
from goodcones.cli import run
from goodcones.exactnum import DomainError
from goodcones.reeb import reeb_from_vectors
from goodcones.serial import Document, document_from_json, document_to_json
from goodcones.construct import example_family


@pytest.fixture
def doc_path(tmp_path):
    cone, reeb = example_family(2)
    doc = Document(cone=cone, reeb=reeb, metadata={"name": "example-k2"})
    path = tmp_path / "ex2.json"
    path.write_text(json.dumps(document_to_json(doc)))
    return str(path)


def run_json(capsys, argv):
    code = run(argv)
    out = capsys.readouterr().out
    return code, json.loads(out) if out.strip() else None


def test_validate_good(capsys, doc_path):
    code, out = run_json(capsys, ["validate", doc_path])
    assert code == 0 and out["is_good"] is True


def test_validate_bad_cone_exits_1(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"normals": [[1, 0, 0], [0, 1, 0], [1, 1, 0]]}))
    code, out = run_json(capsys, ["validate", str(path)])
    assert code == 1 and out["is_good"] is False


def test_invariants(capsys, doc_path):
    code, out = run_json(capsys, ["invariants", doc_path, "--face", "1"])
    assert code == 0
    assert out["b"] == 2 and out["f"] == 0 and out["blowdown"] is False


def test_rank_and_profile(capsys, doc_path):
    code, out = run_json(capsys, ["rank", doc_path])
    assert code == 0 and out["rank"] == 2 and out["admissible"] is True
    code, out = run_json(capsys, ["profile", doc_path])
    assert code == 0
    assert out["v0"] == [1, 2, -1]
    assert out["k"] == [0, 2, 2, 0, 1]
    assert out["flats"] == [0, 3]


def test_graph_and_euler(capsys, doc_path):
    code, out = run_json(capsys, ["graph", doc_path])
    assert code == 0 and out["nontrivial_chains"] == 1
    code, out = run_json(capsys, ["euler-check", doc_path])
    assert code == 0 and out["ok"] is True
    assert out["lhs"] == out["rhs"] == "1/2"


def test_blowdown_obstruction_exit1(capsys, doc_path):
    code = run(["blowdown", doc_path, "--face", "1"])
    captured = capsys.readouterr()
    assert code == 1
    body = json.loads(captured.out)
    assert any(f["kind"] == "delzant-pair" for f in body["failures"])


def test_blowup_and_plan(capsys, tmp_path):
    simp = tmp_path / "simp.json"
    simp.write_text(json.dumps({"normals": [[1, 0, 0], [0, 1, 0], [0, 0, 1]]}))
    code, out = run_json(capsys, ["blowup", str(simp), "--t=-1,1,1"])
    assert code == 0 and out["kind"] == "orbit-blowup"

    cone, reeb = example_family(3)
    from goodcones.serial import Document, document_to_json

    fam = tmp_path / "fam3.json"
    fam.write_text(json.dumps(document_to_json(Document(cone=cone, reeb=reeb))))
    code, out = run_json(capsys, ["plan", str(fam), "--keep", "0,4,5"])
    assert code == 0
    assert len(out["steps"]) == 4
    assert len(out["final"]["normals"]) == 4


def test_plan_box_option_is_gone(capsys, doc_path):
    code = run(["plan", doc_path, "--keep", "0,3,4", "--box", "8"])
    capsys.readouterr()
    assert code == 2


def test_non_good_document_exits_1(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"normals": [[1, 0, 0], [0, 1, 0], [1, 1, 0]]}))
    code = run(["invariants", str(bad), "--face", "1"])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert "not good" in json.loads(captured.err)["error"]
    # a bare non-good cone is reported as non-good, not as missing a reeb
    code = run(["profile", str(bad)])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""


@pytest.mark.parametrize(
    "option",
    [
        ["plan", "--keep", "a,b"],
        ["plan", "--keep", "0,,4"],
        ["blowup", "--t=1,x,1"],
        ["blowup", "--t", "1,0"],
        ["euler-check", "--ybar", "1,2,1.5"],
    ],
)
def test_malformed_integer_option_exits_2(capsys, doc_path, option):
    code = run([option[0], doc_path, *option[1:]])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert "comma-separated integers" in json.loads(captured.err)["error"]


def test_close_without_normals_exits_2(capsys, tmp_path):
    path = tmp_path / "cone.json"
    path.write_text(json.dumps({"cone": 1}))
    code = run(["close", str(path)])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert "normals" in json.loads(captured.err)["error"]


@pytest.mark.parametrize(
    "chain, message",
    [
        ({"normals": 5}, "list of integer triples"),
        ([[1, 0], [0, 1, 0]], "list of integer triples"),
        ([["a", 0, 1], [0, 1, 0], [0, 0, 1]], "list of integer triples"),
        ([[1, 0, 0], [0, 0, 1], [0, 1, 0]], "not positively convex"),
        ([[1, 0, 0]], "need at least two chain normals"),
    ],
    ids=[
        "normals-not-a-list",
        "normal-of-length-2",
        "non-integer-entry",
        "not-convex",
        "one-normal",
    ],
)
def test_close_malformed_chain_exits_2(capsys, tmp_path, chain, message):
    path = tmp_path / "chain.json"
    path.write_text(json.dumps(chain))
    code = run(["close", str(path)])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert message in json.loads(captured.err)["error"]


def test_close_non_good_closure_exits_1(capsys, tmp_path):
    path = tmp_path / "chain.json"
    chain = [[13, 0, 2], [2, 13, 2], [-13, 3, 2], [-5, -12, 3]]
    path.write_text(json.dumps({"normals": chain}))
    code = run(["close", str(path)])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == "" and "Traceback" not in captured.err
    assert len(captured.err.splitlines()) == 1
    assert "delzant-pair" in json.loads(captured.err)["error"]


def test_close_a_chain_the_drift_search_gave_up_on(capsys, tmp_path):
    # Cut from the good 4-face cone that the blow-down plan keeping faces 0,
    # 17 and 18 of example_family(16) reaches; (1, 0, 1) closes it.
    path = tmp_path / "chain.json"
    chain = [[1864592969467, 346291621978, 2396528159766], [1, 17, 273], [1, 1, 18]]
    path.write_text(json.dumps({"normals": chain}))
    code, out = run_json(capsys, ["close", str(path)])
    assert code == 0 and out["cone"]["normals"][:3] == chain
    closed = tmp_path / "closed.json"
    closed.write_text(json.dumps(out["cone"]))
    code, out = run_json(capsys, ["validate", str(closed)])
    assert code == 0 and out["is_good"] is True


def test_close_a_chain_no_good_cone_closes_exits_1(capsys, tmp_path):
    # The chain winds twice; its interior normal (0, 0, 1) equals the last.
    path = tmp_path / "chain.json"
    chain = [[1, 0, -1], [2, 1, -1], [0, 0, 1], [4, -1, -2], [1, 0, -1], [2, 1, -1], [0, 0, 1]]
    path.write_text(json.dumps({"normals": chain}))
    code = run(["close", str(path)])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == "" and "Traceback" not in captured.err
    assert len(captured.err.splitlines()) == 1
    assert json.loads(captured.err)["error"] == (
        "no good cone closes the chain: interior normal m = (0, 0, 1) has "
        "det3(first, m, last) = 0 <= 0"
    )


@pytest.mark.parametrize("k", [2, 64])
def test_closed_stdout_exits_quietly(tmp_path, k):
    """A reader that closes the pipe first (`goodcones ... | head`) gets no
    traceback: the write fails with EPIPE and `main` exits 1.  At k = 2 the
    output fits the stdout buffer and fails at `main`'s flush; at k = 64 it
    is larger than the buffer and fails inside the subcommand's write."""
    cone, reeb = example_family(k)
    doc_path = tmp_path / "doc.json"
    doc_path.write_text(json.dumps(document_to_json(Document(cone=cone, reeb=reeb))))
    read_end, write_end = os.pipe()
    os.close(read_end)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    env.pop("PYTHONUNBUFFERED", None)  # keep stdout block-buffered
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "goodcones.cli", "euler-check", str(doc_path)],
            stdout=write_end,
            stderr=subprocess.PIPE,
            env=env,
            timeout=60,
        )
    finally:
        os.close(write_end)
    assert proc.returncode == 1
    assert proc.stderr == b""


def test_main_exits_with_the_code_of_run(capsys, monkeypatch, doc_path):
    """`main` in process: it runs the subcommand sys.argv names, flushes
    stdout and exits with the code of `run`."""
    monkeypatch.setattr(sys, "argv", ["goodcones", "validate", doc_path])
    with pytest.raises(SystemExit) as exc:
        cli_module.main()
    assert exc.value.code == 0
    assert json.loads(capsys.readouterr().out)["is_good"] is True


def test_construct_and_close(capsys, tmp_path):
    code, out = run_json(capsys, ["construct", "--family", "example", "--k", "2"])
    assert code == 0
    assert out["cone"]["normals"][0] == [1, 0, 1]
    code, out = run_json(capsys, ["construct", "--family", "obstructed", "--k", "3", "--seed", "5"])
    assert code == 0 and len(out["cone"]["normals"]) == 6

    chain = tmp_path / "chain.json"
    chain.write_text(json.dumps({"normals": [[0, 1, 0], [-1, 1, 1], [0, 0, 1]]}))
    code, out = run_json(capsys, ["close", str(chain)])
    assert code == 0 and len(out["cone"]["normals"]) == 4


def test_toric_check(capsys):
    code, out = run_json(capsys, ["toric-check", "--vmin", "1,0", "--vmax", "0,1"])
    assert code == 0 and out["v"] == [1, 1]
    code, out = run_json(capsys, ["toric-check", "--vmin", "1,0", "--vmax", "-1,0"])
    assert code == 2  # parallel rays are a usage error
    # det(v_min, v_max) = 3 and (v_min + v_max) / 3 is not integral
    code, out = run_json(capsys, ["toric-check", "--vmin", "1,0", "--vmax", "1,3"])
    assert code == 1 and out == {"found": False}
    code, _ = run_json(capsys, ["toric-check", "--vmin", "1,0", "--vmax", "1,3", "--box", "8"])
    assert code == 2  # the search bound is gone

def test_render_deterministic(tmp_path, doc_path, capsys):
    out1 = tmp_path / "a.svg"
    out2 = tmp_path / "b.svg"
    assert run(["render", doc_path, "--out", str(out1)]) == 0
    assert run(["render", doc_path, "--out", str(out2)]) == 0
    capsys.readouterr()
    assert out1.read_bytes() == out2.read_bytes()
    body = out1.read_text()
    assert body.startswith("<svg") and body.count("<line") == 5
    assert "(flat)" in body


def test_render_requires_reeb(tmp_path, capsys):
    path = tmp_path / "bare.json"
    path.write_text(json.dumps({"normals": [[1, 0, 0], [0, 1, 0], [0, 0, 1]]}))
    code = run(["render", str(path), "--out", str(tmp_path / "x.svg")])
    capsys.readouterr()
    assert code == 2


def test_render_inadmissible_message(tmp_path, capsys):
    cone, reeb = example_family(2)
    flipped = reeb_from_vectors([-x for x in reeb.p], [-x for x in reeb.q], reeb.d)
    path = tmp_path / "flipped.json"
    path.write_text(json.dumps(document_to_json(Document(cone=cone, reeb=flipped))))
    code = run(["render", str(path), "--out", str(tmp_path / "x.svg")])
    err = json.loads(capsys.readouterr().err)
    assert code == 1
    assert err == {"error": "reeb vector is not admissible for this cone"}


def test_catalog_roundtrip(tmp_path, doc_path, capsys):
    store = str(tmp_path / "store")
    code, out = run_json(capsys, ["catalog", "add", doc_path, "--store", store])
    assert code == 0
    digest = out["hash"]
    code, listing = run_json(capsys, ["catalog", "list", "--store", store])
    assert code == 0 and listing[0]["hash"] == digest
    code, got = run_json(capsys, ["catalog", "get", digest, "--store", store])
    assert code == 0
    with open(doc_path) as fh:
        original = json.load(fh)
    assert got["cone"] == original["cone"]
    # adding the identical document is idempotent
    code, out = run_json(capsys, ["catalog", "add", doc_path, "--store", store])
    assert code == 0 and out["hash"] == digest


def test_catalog_rejects_invalid(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"normals": [[1, 0, 0], [0, 1, 0], [1, 1, 0]]}))
    code = run(["catalog", "add", str(bad), "--store", str(tmp_path / "s")])
    capsys.readouterr()
    assert code == 1


def add_named(tmp_path, capsys, store, name, k=2):
    """Add example_family(k) with metadata name `name`; return its hash."""
    cone, reeb = example_family(k)
    path = tmp_path / f"doc-{k}.json"
    path.write_text(json.dumps(document_to_json(Document(cone, reeb, {"name": name}))))
    code, out = run_json(capsys, ["catalog", "add", str(path), "--store", str(store)])
    assert code == 0
    return out["hash"]


def test_catalog_keeps_any_metadata_name(tmp_path, capsys):
    """Each name is read from its stored document, whatever its JSON type,
    and a later add, list or get still works."""
    store = tmp_path / "store"
    digest = add_named(tmp_path, capsys, store, 5)
    other = add_named(tmp_path, capsys, store, "second", k=3)
    code, listing = run_json(capsys, ["catalog", "list", "--store", str(store)])
    assert code == 0
    assert listing == sorted([{"hash": digest, "name": 5}, {"hash": other, "name": "second"}],
                             key=lambda e: e["hash"])
    code, got = run_json(capsys, ["catalog", "get", digest, "--store", str(store)])
    assert code == 0 and got["metadata"] == {"name": 5}
    assert add_named(tmp_path, capsys, store, 5) == digest


def test_catalog_store_is_its_document_files(tmp_path, capsys):
    store = tmp_path / "store"
    code, out = run_json(capsys, ["catalog", "list", "--store", str(store)])
    assert code == 0 and out == [] and not store.exists()
    digest = add_named(tmp_path, capsys, store, "a")
    other = add_named(tmp_path, capsys, store, "b", k=3)
    assert sorted(os.listdir(store)) == sorted([f"{digest}.json", f"{other}.json"])
    stored = json.loads((store / f"{digest}.json").read_text())
    assert (store / f"{digest}.json").read_text() == json.dumps(stored, sort_keys=True, indent=1)


def test_interrupted_catalog_add_leaves_no_document(tmp_path, doc_path, capsys, monkeypatch):
    store = tmp_path / "store"

    def cut_short(obj, fh, **kwargs):
        fh.write('{"cone": ')
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(json, "dump", cut_short)
    code = run(["catalog", "add", doc_path, "--store", str(store)])
    assert code == 2 and "Traceback" not in capsys.readouterr().err
    assert os.listdir(store) == []
    monkeypatch.undo()
    code, out = run_json(capsys, ["catalog", "add", doc_path, "--store", str(store)])
    assert code == 0 and os.listdir(store) == [f"{out['hash']}.json"]


def test_catalog_get_reads_only_hashes(tmp_path, capsys, monkeypatch):
    """A name that is not 64 lowercase hex digits is no hash, even when a
    file of that name exists in or next to the store, and nothing is read."""
    store = tmp_path / "store"
    digest = add_named(tmp_path, capsys, store, "a")
    text = (store / f"{digest}.json").read_text()
    (tmp_path / "x.json").write_text(text)
    (store / f"{digest.upper()}.json").write_text(text)
    (store / f"{digest[:63]}.json").write_text(text)
    monkeypatch.setattr(cli_module, "_load_json", lambda path: pytest.fail(f"read {path}"))
    for name in ("../x", digest.upper(), digest[:63], digest + "0", "", f"{digest}\n"):
        code = run(["catalog", "get", name, "--store", str(store)])
        out, err = capsys.readouterr()
        assert code == 1 and out == ""
        assert json.loads(err) == {"error": f"no document with hash {name}"}


OLDER_INDEXES = {
    "valid": None,  # the index an older version wrote
    "not-json": "{bad",
    "not-an-object": "[1,2]",
    "entry-not-an-object": '{"x": 1}',
}


@pytest.mark.parametrize("name", sorted(OLDER_INDEXES))
def test_older_store_index_and_lock_are_ignored(tmp_path, capsys, name):
    """A store written by an older version holds index.json and index.lock
    beside its documents; they are read by nothing, whatever they hold."""
    store = tmp_path / "store"
    digests = {add_named(tmp_path, capsys, store, "a"): "a",
               add_named(tmp_path, capsys, store, "b", k=3): "b"}
    index = OLDER_INDEXES[name] or json.dumps(
        {h: {"name": n, "file": f"{h}.json"} for h, n in digests.items()}, sort_keys=True, indent=1
    )
    (store / "index.json").write_text(index)
    (store / "index.lock").write_text("")
    code, listing = run_json(capsys, ["catalog", "list", "--store", str(store)])
    assert code == 0
    assert listing == [{"hash": h, "name": digests[h]} for h in sorted(digests)]
    for digest in digests:
        code, got = run_json(capsys, ["catalog", "get", digest, "--store", str(store)])
        assert code == 0 and got["metadata"] == {"name": digests[digest]}
    new = add_named(tmp_path, capsys, store, "c", k=4)
    code, listing = run_json(capsys, ["catalog", "list", "--store", str(store)])
    assert code == 0 and new in [e["hash"] for e in listing]
    assert (store / "index.json").read_text() == index


def test_corrupt_stored_document_exits_2(tmp_path, doc_path, capsys):
    store = str(tmp_path / "store")
    code, out = run_json(capsys, ["catalog", "add", doc_path, "--store", store])
    digest = out["hash"]
    with open(os.path.join(store, f"{digest}.json"), "w") as fh:
        fh.write("{bad")
    for argv in (["get", digest], ["add", doc_path], ["list"]):
        code = run(["catalog", *argv, "--store", store])
        out, err = capsys.readouterr()
        assert code == 2 and out == "" and "Traceback" not in err
        assert "malformed JSON" in json.loads(err)["error"]
    with open(os.path.join(store, f"{digest}.json"), "w") as fh:
        fh.write("[1, 2]")
    code = run(["catalog", "list", "--store", store])
    out, err = capsys.readouterr()
    assert code == 2 and out == "" and "Traceback" not in err


def run_error(capsys, argv):
    """(exit code, message) of a call that must print only a JSON error."""
    code = run(argv)
    captured = capsys.readouterr()
    assert captured.out == ""
    return code, json.loads(captured.err)["error"]


# The exception classes of the package that are not domain errors, and why.
NOT_DOMAIN_ERRORS = {
    "goodcones.cli.UsageError": "exit 2: a malformed argument or an unusable path",
    "goodcones.serial.DocumentError": "exit 2: a malformed document",
    "goodcones.construct.ChainError": "`close` re-raises it as a UsageError, exit 2",
    "goodcones.cli.CatalogError": "exit 1, caught by name: a store's content, not mathematics",
}


def package_exceptions():
    """Every exception class defined in a module of the package, by its
    dotted name, with each module imported."""
    found = {}
    for info in pkgutil.iter_modules(goodcones.__path__):
        module = importlib.import_module(f"goodcones.{info.name}")
        for value in vars(module).values():
            if (
                isinstance(value, type)
                and issubclass(value, BaseException)
                and value.__module__ == module.__name__
            ):
                found[f"{module.__name__}.{value.__qualname__}"] = value
    return found


def test_every_package_exception_is_a_domain_error_or_listed():
    """The class of an exception decides its exit code: a DomainError exits
    1, and the classes of NOT_DOMAIN_ERRORS are caught by name."""
    found = package_exceptions()
    outside = {name for name, cls in found.items() if not issubclass(cls, DomainError)}
    assert outside == set(NOT_DOMAIN_ERRORS)
    for cls in found.values():
        if issubclass(cls, DomainError):
            assert cls("message").report is None, cls


def test_a_new_domain_error_exits_1(capsys, monkeypatch, doc_path):
    class Planted(DomainError):
        pass

    def fail(cone, i):
        raise Planted("planted")

    monkeypatch.setattr(cli_module, "face_invariants", fail)
    assert run_error(capsys, ["invariants", doc_path, "--face", "1"]) == (1, "planted")


def test_missing_input_file_exits_2(capsys, tmp_path):
    path = str(tmp_path / "absent.json")
    assert run_error(capsys, ["validate", path]) == (2, f"no such file: {path}")


def test_catalog_add_over_a_tampered_document_exits_1(tmp_path, doc_path, capsys):
    store = str(tmp_path / "store")
    code, out = run_json(capsys, ["catalog", "add", doc_path, "--store", store])
    digest = out["hash"]
    stored = os.path.join(store, f"{digest}.json")
    with open(stored) as fh:
        obj = json.load(fh)
    obj["metadata"]["name"] = "tampered"
    with open(stored, "w") as fh:
        json.dump(obj, fh)
    assert run_error(capsys, ["catalog", "add", doc_path, "--store", store]) == (
        1,
        f"hash collision with differing content: {digest}",
    )


def test_integer_reeb_entries_and_null_metadata_are_read(capsys, tmp_path):
    """JSON integers are read as the entries "1", "0", ... of R, and a null
    "metadata" as none."""
    cone, reeb = example_family(2)
    doc = document_to_json(Document(cone=cone, reeb=reeb))
    read = dict(doc, metadata=None)
    read["reeb"] = {"p": [1, 0, 1], "q": [1, 3, 7], "d": 2}
    path = tmp_path / "ints.json"
    path.write_text(json.dumps(read))
    assert document_to_json(document_from_json(read)) == doc
    assert run_json(capsys, ["rank", str(path)]) == (0, {"rank": 2, "admissible": True})


def test_malformed_json_exit2(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text('{"normals": [[1,0,0],')
    code = run(["validate", str(path)])
    err = capsys.readouterr().err
    assert code == 2
    assert "line" in err and "column" in err


def test_deeply_nested_json_exit2(tmp_path, capsys):
    """JSON nested deeper than the decoder can recurse is malformed input:
    one line of JSON error and exit 2, not a RecursionError traceback."""
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000 + "]" * 100_000)
    code = run(["rank", str(path)])
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert json.loads(err) == {"error": f"malformed JSON in {path}: nested too deeply"}


def test_serialization_roundtrip(doc_path):
    with open(doc_path) as fh:
        original = json.load(fh)
    doc = document_from_json(original)
    assert document_to_json(doc) == original
