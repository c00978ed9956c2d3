"""Each public entry of the Reeb, Euler and graph layers, and the CLI's SVG
renderer, validates its cone exactly once and hands what it computed to
unchecked helpers."""

import os

import pytest

import goodcones.cone
from goodcones.cli import render_svg
from goodcones.construct import example_family
from goodcones.euler import build_identity_data, verify_global_identity
from goodcones.graph import extract_graph
from goodcones.reeb import (
    arc_decomposition,
    choose_transverse_circle,
    closure_identity_residual,
    is_admissible,
    isotropy_profile,
    moment_polygon,
    width_of_flat_face,
)
from goodcones.serial import Document

CONE, REEB = example_family(3)
YBAR = choose_transverse_circle(CONE, REEB)

ENTRIES = {
    "isotropy_profile": lambda: isotropy_profile(CONE, REEB),
    "is_admissible": lambda: is_admissible(CONE, REEB),
    "moment_polygon": lambda: moment_polygon(CONE, REEB),
    "choose_transverse_circle": lambda: choose_transverse_circle(CONE, REEB),
    "arc_decomposition": lambda: arc_decomposition(CONE, REEB),
    "width_of_flat_face": lambda: width_of_flat_face(CONE, REEB, YBAR, 0),
    "closure_identity_residual": lambda: closure_identity_residual(CONE, REEB, YBAR),
    "extract_graph": lambda: extract_graph(CONE, REEB),
    "build_identity_data": lambda: build_identity_data(CONE, REEB),
    "verify_global_identity": lambda: verify_global_identity(CONE, REEB),
    "render_svg": lambda: render_svg(Document(cone=CONE, reeb=REEB), os.devnull),
}


@pytest.mark.parametrize("name", sorted(ENTRIES))
def test_public_entry_validates_once(monkeypatch, name):
    calls = []
    original = goodcones.cone.validate

    def counting(cone):
        calls.append(cone)
        return original(cone)

    monkeypatch.setattr(goodcones.cone, "validate", counting)
    ENTRIES[name]()
    assert len(calls) == 1
