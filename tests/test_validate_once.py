"""A cone object is validated at most once: a good cone keeps its verdict.
Each public entry of the Reeb, Euler, graph and surgery layers, the CLI's
SVG renderer and the CLI commands that read a document validate a cone
that no call has seen exactly once, and a repeated call on the same
objects does not validate them again.  The Reeb-layer entries share the one-pair slot
of `goodcones.reeb`, which holds only facts of the pair: a call on another
pair evicts it, so A, B, A validates 2 times and builds the profile 3
times.  A surgery also validates each cone it builds once, in O(k) as the
result is good, and the result keeps that verdict, so the next surgery on
it validates 0 times.  A cone that is not good is never recorded.  No good
cone reaches the O(k^2) report.

The verdict and R's cleared parts are invisible: they take no part in ==,
hash or repr.  A copy or an unpickled object is rebuilt from its fields:
R's cleared parts are recomputed, and a cone drops its verdict, edge rays
and witnesses, which the next reads recompute equal."""

import copy
import json
import os
import pickle
from fractions import Fraction

import pytest

import goodcones.cli
import goodcones.cone
import goodcones.reeb
import goodcones.serial
import goodcones.surgery
from goodcones.cli import render_svg, run
from goodcones.cone import (
    GoodCone,
    InvalidCone,
    edge_rays,
    face_invariants,
    require_valid,
    validate,
)
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
from goodcones.exactnum import DegenerateInput, primitive_part
from goodcones.surgery import (
    CutSpec,
    SurgeryRejected,
    blowdown_delete,
    cut,
    find_blowdown_normal,
    plan_blowdown_sequence,
    replace_range,
    replay,
)

from conftest import orbit_cut_normal, random_good_cone

CONE, REEB = example_family(3)
YBAR = choose_transverse_circle(CONE, REEB)
# An orbit cut at vertex 2 inserts (2, 5, 9) at position 3; the plan keeps
# faces 0, 4, 5 and reduces the chain 1..3 in four steps.
ORBIT_CUT = CutSpec((2, 5, 9))
BLOWN_UP = cut(CONE, ORBIT_CUT).cone
PLAN = plan_blowdown_sequence(CONE, [0, 4, 5])


def fresh_pair(name=None):
    """Copies of the entry's cone (BLOWN_UP for `blowdown_delete`, else
    CONE) and of REEB, equal to them but new objects."""
    cone = BLOWN_UP if name == "blowdown_delete" else CONE
    return GoodCone(cone.normals), ReebVector(REEB.p, REEB.q, REEB.d)


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
    "blowdown_delete": lambda c, r: blowdown_delete(c, 3),
    "replace_range": lambda c, r: replace_range(c, [1], (3, 2, 4)),
    "find_blowdown_normal": lambda c, r: find_blowdown_normal(c, 1),
    "plan_blowdown_sequence": lambda c, r: plan_blowdown_sequence(c, [0, 4, 5]),
    "replay": lambda c, r: replay(PLAN, c),
}
# The cones each surgery entry builds, and so validates, besides its input.
BUILT = {
    "cut": 1,
    "blowdown_delete": 1,
    "replace_range": 1,
    "plan_blowdown_sequence": 4,
    "replay": 4,
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
    pair = fresh_pair(name)
    calls = count_validate(monkeypatch)
    ENTRIES[name](*pair)
    assert calls[0] is pair[0]
    assert len(calls) == 1 + BUILT.get(name, 0)
    assert len({id(c) for c in calls}) == len(calls)


@pytest.mark.parametrize("name", sorted(ENTRIES))
def test_repeated_call_validates_only_the_cones_it_builds(monkeypatch, name):
    pair = fresh_pair(name)
    first = ENTRIES[name](*pair)
    calls = count_validate(monkeypatch)
    assert ENTRIES[name](*pair) == first
    assert len(calls) == BUILT.get(name, 0)
    assert all(c is not pair[0] for c in calls)


@pytest.mark.parametrize("name", sorted(READ_ENTRIES))
def test_alternating_pairs_validate_each_cone_once(monkeypatch, name):
    """The slot holds one pair, so the third call builds A's profile again;
    A's verdict lives on A, so it is not validated again."""
    profiles = []
    original = goodcones.reeb._profile_of
    monkeypatch.setattr(
        goodcones.reeb, "_profile_of", lambda R, ns: profiles.append(R) or original(R, ns)
    )
    a, b = fresh_pair(), fresh_pair()
    calls = count_validate(monkeypatch)
    for pair in (a, b, a):
        READ_ENTRIES[name](*pair)
    assert calls == [a[0], b[0]]
    assert profiles == [a[1], b[1], a[1]]


def test_surgery_results_are_not_validated_again(monkeypatch):
    calls = count_validate(monkeypatch)
    cone = GoodCone(CONE.normals)
    blown = cut(cone, ORBIT_CUT).cone
    assert len(calls) == 2 and calls[0] is cone and calls[1] is blown
    assert blowdown_delete(blown, 3) == CONE
    assert replace_range(blown, [2, 3], CONE.normal(2)) == CONE
    assert find_blowdown_normal(blown, 3) is not None
    final = plan_blowdown_sequence(blown, [0, 5, 6])
    assert replay(final, blown) == replay(final, GoodCone(blown.normals))
    assert [c for c in calls if c is cone or c is blown] == [cone, blown]
    assert len({id(c) for c in calls}) == len(calls)


def test_find_at_every_face_validates_once(monkeypatch):
    cone = GoodCone(example_family(64)[0].normals)
    calls = count_validate(monkeypatch)
    assert all(find_blowdown_normal(cone, i) is not None for i in range(len(cone)))
    assert calls == [cone]


BAD = GoodCone(CONE.normals[::-1])


def test_a_cone_that_is_not_good_raises_on_every_call_and_is_never_recorded(monkeypatch):
    report = validate(BAD)
    assert not report.is_good
    calls = count_validate(monkeypatch)
    entries = [require_valid, lambda c: cut(c, ORBIT_CUT), lambda c: find_blowdown_normal(c, 1)]
    for entry in entries * 2:
        with pytest.raises(InvalidCone) as exc:
            entry(BAD)
        assert exc.value.report == report
        assert str(exc.value) == f"cone is not good: {report.failures[:4]}"
        assert "_good" not in vars(BAD)
    assert calls == [BAD] * 6


def test_validate_records_nothing():
    cone = GoodCone(CONE.normals)
    assert validate(cone).is_good
    assert "_good" not in vars(cone)
    require_valid(cone)
    assert vars(cone)["_good"] is True


@pytest.mark.parametrize("command", sorted(CLI_COMMANDS))
def test_cli_command_validates_once(monkeypatch, tmp_path, capsys, command):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(document_to_json(Document(cone=CONE, reeb=REEB))))
    calls = count_validate(monkeypatch)
    assert run([command, str(path), *CLI_COMMANDS[command]]) == 0
    capsys.readouterr()
    # `plan` also validates the four cones its steps build.
    assert len(calls) == 1 + 4 * (command == "plan")
    assert len({id(c) for c in calls}) == len(calls)


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


# ---------------------------------------------------------------------------
# The verdict and the cleared parts are invisible.
# ---------------------------------------------------------------------------


def test_a_cone_with_a_verdict_equals_a_fresh_copy():
    cone = GoodCone(CONE.normals)
    require_valid(cone)
    assert GoodCone._fields == ("normals",)
    for twin in (GoodCone(CONE.normals), copy.copy(cone), pickle.loads(pickle.dumps(cone))):
        assert twin == cone and hash(twin) == hash(cone) and repr(twin) == repr(cone)


def test_a_copied_or_unpickled_cone_drops_its_cached_facts_and_recomputes_them():
    cone = GoodCone(CONE.normals)
    require_valid(cone)
    rays = edge_rays(cone)
    invariants = [face_invariants(cone, i) for i in range(len(cone))]
    assert cone._good and None not in cone._witnesses
    for twin in (copy.copy(cone), copy.deepcopy(cone), pickle.loads(pickle.dumps(cone))):
        assert (twin._good, twin._rays, twin._witnesses) == (False, None, None)
        assert vars(twin) == {"normals": cone.normals}
        require_valid(twin)
        assert twin._good
        assert edge_rays(twin) == rays
        assert [face_invariants(twin, i) for i in range(len(twin))] == invariants
        assert twin._witnesses == cone._witnesses


def test_a_reeb_vector_equals_a_fresh_copy():
    R = ReebVector((Fraction(1, 2), Fraction(3, 4), 5), (0, Fraction(1, 3), Fraction(-2, 9)), 3)
    assert (R.P, R.Q, R.den) == ((18, 27, 180), (0, 12, -8), 36)
    assert ReebVector._fields == ("p", "q", "d")
    fresh = ReebVector(R.p, R.q, R.d)
    assert repr(R) == f"ReebVector(p={R.p!r}, q={R.q!r}, d=3)"
    for twin in (fresh, copy.copy(R), pickle.loads(pickle.dumps(R))):
        assert twin == R and hash(twin) == hash(R) and repr(twin) == repr(R)
        assert (twin.P, twin.Q, twin.den) == (R.P, R.Q, R.den)


def test_recorded_verdicts_agree_with_validate(monkeypatch, rnd):
    """Every cone a surgery edit builds carries a good verdict exactly when
    a fresh copy validates as good."""
    seen = []
    original = goodcones.surgery._verdict

    def recording(cone):
        report = original(cone)
        seen.append(cone)
        return report

    monkeypatch.setattr(goodcones.surgery, "_verdict", recording)
    for _ in range(40):
        cone = random_good_cone(rnd, cuts=rnd.randint(0, 4))
        for i in range(len(cone)):
            # a delete, and a lens cut by the primitive part of
            # 3 n^i - n^{i-1} - n^{i+1}
            around = zip(cone.normal(i), cone.normal(i - 1), cone.normal(i + 1))
            t = primitive_part(tuple(3 * p - q - r for p, q, r in around))
            for edit, arg in ((blowdown_delete, i), (cut, CutSpec(t))):
                try:
                    edit(cone, arg)
                except (SurgeryRejected, DegenerateInput):
                    pass
    verdicts = [vars(c).get("_good", False) for c in seen]
    assert verdicts == [validate(GoodCone(c.normals)).is_good for c in seen]
    assert verdicts.count(True) >= 300 and verdicts.count(False) >= 40
