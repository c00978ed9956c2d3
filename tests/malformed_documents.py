"""Malformed documents: JSON values that `serial.document_from_json` must
reject with DocumentError, so that every subcommand reading them exits 2
with a one-line JSON error.  Each is one edit of a good `example_family(2)`
document.  Shared by the tier-1 tests and the CI smoke step."""

import copy

from goodcones.construct import example_family
from goodcones.serial import Document, document_to_json


def good_document() -> dict:
    cone, reeb = example_family(2)
    return document_to_json(Document(cone=cone, reeb=reeb, metadata={"name": "example-2"}))


def _edited(edit) -> dict:
    doc = copy.deepcopy(good_document())
    edit(doc)
    return doc


def _set_entry(doc, value):
    doc["cone"]["normals"][0][0] = value


def malformed_documents() -> dict:
    """Name -> malformed JSON value."""
    return {
        "p-entry-not-a-number": _edited(lambda d: d["reeb"].update(p=["x", 0, 0])),
        "p-entry-zero-denominator": _edited(lambda d: d["reeb"].update(p=["1/0", 0, 0])),
        "p-entry-float": _edited(lambda d: d["reeb"].update(p=[0.5, 0, 0])),
        "p-two-entries": _edited(lambda d: d["reeb"].update(p=[1, 0])),
        "q-missing": _edited(lambda d: d["reeb"].pop("q")),
        "reeb-not-an-object": _edited(lambda d: d.update(reeb="p+q")),
        "d-not-an-integer": _edited(lambda d: d["reeb"].update(d="two")),
        "d-not-square-free": _edited(lambda d: d["reeb"].update(d=4)),
        "d-one": _edited(lambda d: d["reeb"].update(d=1)),
        "d-beyond-2-63": _edited(lambda d: d["reeb"].update(d=2**63 + 1)),
        "d-boolean": _edited(lambda d: d["reeb"].update(d=True)),
        "top-level-list": [good_document()],
        "top-level-number": 7,
        "cone-missing": _edited(lambda d: d.pop("cone")),
        "cone-not-an-object": _edited(lambda d: d.update(cone=[[1, 0, 0]])),
        "normals-not-a-list": {"normals": "[[1,0,0]]"},
        "normal-entry-string": _edited(lambda d: _set_entry(d, "a")),
        "normal-entry-float": _edited(lambda d: _set_entry(d, 1.5)),
        "normal-entry-boolean": _edited(lambda d: _set_entry(d, True)),
        "normal-two-entries": _edited(lambda d: d["cone"]["normals"][0].pop()),
        "metadata-not-an-object": _edited(lambda d: d.update(metadata=["example"])),
        # Falsy values other than null are malformed, not absent.
        "reeb-empty-object": _edited(lambda d: d.update(reeb={})),
        "reeb-zero": _edited(lambda d: d.update(reeb=0)),
        "reeb-false": _edited(lambda d: d.update(reeb=False)),
        "reeb-empty-string": _edited(lambda d: d.update(reeb="")),
        "reeb-empty-list": _edited(lambda d: d.update(reeb=[])),
        "metadata-zero": _edited(lambda d: d.update(metadata=0)),
        "metadata-false": _edited(lambda d: d.update(metadata=False)),
        "metadata-empty-string": _edited(lambda d: d.update(metadata="")),
        "metadata-empty-list": _edited(lambda d: d.update(metadata=[])),
    }
