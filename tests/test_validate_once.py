"""Each public entry of the Reeb, Euler, graph and surgery layers, the
CLI's SVG renderer and the CLI commands that read a document validate the
cone exactly once on a pair that no call has seen, and hand what they
computed to unchecked helpers.  The Reeb-layer entries share the one-pair
slot of `goodcones.reeb`: a repeated call on the same two objects
validates 0 times, and a call on another pair evicts the slot, so A, B, A
validates 3 times.  A surgery that succeeds checks its result with the
O(k) goodness predicate `_is_good`, without `validate`.  No good cone
reaches the O(k^2) report."""

import json
import os

import pytest

import goodcones.cli
import goodcones.cone
import goodcones.serial
import goodcones.surgery
from goodcones.cli import render_svg, run
from goodcones.cone import GoodCone, require_valid, validate
from goodcones.construct import example_family, obstructed_family
from goodcones.euler import build_identity_data, verify_global_identity
from goodcones.graph import extract_graph
from goodcones.reeb import (
    ReebVector,
    arc_decomposition,
    choose_transverse_circle,
    closure_identity_residual,
    is_admissible,
    isotropy_profile,
    moment_polygon,
    width_of_flat_face,
)
from goodcones.serial import Document, document_to_json
from goodcones.surgery import (
    CutSpec,
    blowdown_delete,
    cut,
    find_blowdown_normal,
    plan_blowdown_sequence,
    replace_range,
    replay,
)

from conftest import orbit_cut_normal

CONE, REEB = example_family(3)
YBAR = choose_transverse_circle(CONE, REEB)
# An orbit cut at vertex 2 inserts (2, 5, 9) at position 3; the plan keeps
# faces 0, 4, 5 and reduces the chain 1..3 in four steps.
ORBIT_CUT = CutSpec((2, 5, 9))
BLOWN_UP = cut(CONE, ORBIT_CUT).cone
PLAN = plan_blowdown_sequence(CONE, [0, 4, 5])


def fresh_pair():
    """Copies of CONE and REEB, equal to them but new objects."""
    return GoodCone(CONE.normals), ReebVector(REEB.p, REEB.q, REEB.d)


# The entries that read the (cone, R) slot.
READ_ENTRIES = {
    "isotropy_profile": lambda c, r: isotropy_profile(c, r),
    "is_admissible": lambda c, r: is_admissible(c, r),
    "moment_polygon": lambda c, r: moment_polygon(c, r),
    "choose_transverse_circle": lambda c, r: choose_transverse_circle(c, r),
    "arc_decomposition": lambda c, r: arc_decomposition(c, r),
    "width_of_flat_face": lambda c, r: width_of_flat_face(c, r, YBAR, 0),
    "closure_identity_residual": lambda c, r: closure_identity_residual(c, r, YBAR),
    "extract_graph": lambda c, r: extract_graph(c, r),
    "build_identity_data": lambda c, r: build_identity_data(c, r),
    "verify_global_identity": lambda c, r: verify_global_identity(c, r),
    "render_svg": lambda c, r: render_svg(Document(cone=c, reeb=r), os.devnull),
}
ENTRIES = {
    **READ_ENTRIES,
    "cut": lambda c, r: cut(c, ORBIT_CUT),
    "blowdown_delete": lambda c, r: blowdown_delete(BLOWN_UP, 3),
    "replace_range": lambda c, r: replace_range(c, [1], (3, 2, 4)),
    "find_blowdown_normal": lambda c, r: find_blowdown_normal(c, 1),
    "plan_blowdown_sequence": lambda c, r: plan_blowdown_sequence(c, [0, 4, 5]),
    "replay": lambda c, r: replay(PLAN, c),
}


CLI_COMMANDS = {
    "profile": [],
    "graph": [],
    "euler-check": [],
    "render": ["--out", os.devnull],
    # The planner hands back the final cone; `plan` does not replay it.
    "plan": ["--keep", "0,4,5"],
}


def count_validate(monkeypatch):
    """Count `validate` calls through every module that binds it."""
    calls = []
    original = goodcones.cone.validate

    def counting(cone):
        calls.append(cone)
        return original(cone)

    for module in (goodcones.cone, goodcones.cli, goodcones.serial, goodcones.surgery):
        if hasattr(module, "validate"):
            monkeypatch.setattr(module, "validate", counting)
    return calls


@pytest.mark.parametrize("name", sorted(ENTRIES))
def test_public_entry_validates_once(monkeypatch, name):
    calls = count_validate(monkeypatch)
    ENTRIES[name](*fresh_pair())
    assert len(calls) == 1


@pytest.mark.parametrize("name", sorted(READ_ENTRIES))
def test_repeated_call_on_the_same_pair_validates_zero_times(monkeypatch, name):
    pair = fresh_pair()
    first = READ_ENTRIES[name](*pair)
    calls = count_validate(monkeypatch)
    assert READ_ENTRIES[name](*pair) == first
    assert calls == []


@pytest.mark.parametrize("name", sorted(READ_ENTRIES))
def test_alternating_pairs_validate_on_every_switch(monkeypatch, name):
    a, b = fresh_pair(), fresh_pair()
    calls = count_validate(monkeypatch)
    order = (a, b, a)
    for pair in order:
        READ_ENTRIES[name](*pair)
    assert len(calls) == 3
    assert all(cone is pair[0] for cone, pair in zip(calls, order))


@pytest.mark.parametrize("command", sorted(CLI_COMMANDS))
def test_cli_command_validates_once(monkeypatch, tmp_path, capsys, command):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(document_to_json(Document(cone=CONE, reeb=REEB))))
    calls = count_validate(monkeypatch)
    assert run([command, str(path), *CLI_COMMANDS[command]]) == 0
    capsys.readouterr()
    assert len(calls) == 1


def test_good_cones_never_reach_the_quadratic_report(monkeypatch):
    def quadratic_report(normals):
        raise AssertionError(f"O(k^2) report built for {len(normals)} normals")

    monkeypatch.setattr(goodcones.cone, "_report", quadratic_report)
    for cone, _ in (example_family(4096), obstructed_family(96)):
        assert validate(cone).is_good
        require_valid(cone)
    cone, _ = example_family(64)
    k = len(cone)
    for v in (0, 31, k - 1):
        blown = cut(cone, CutSpec(orbit_cut_normal(cone, v, 1, 1)))
        assert blown.kind == "orbit-blowup"
        assert blowdown_delete(blown.cone, v + 1) == cone
        assert replace_range(blown.cone, [v, v + 1], cone.normal(v)) == cone
    plan_blowdown_sequence(cone, [0, k - 2, k - 1])
