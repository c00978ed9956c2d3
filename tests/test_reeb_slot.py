"""The one-pair slot of `goodcones.reeb` and the witness table that a
`GoodCone` keeps: reusing a (cone, R) pair's facts changes no output and no
error.  Every read entry must give on a pair it has seen what it gives on
fresh equal copies, in any interleaving of pairs and across threads; every
error surfaces in the documented order (`InvalidCone`, `InadmissibleReeb`,
`RankError`, `DegenerateInput`) on first and repeated calls; a raising call
neither evicts nor poisons the slot; and a face walk computes each adjacent
pair's Delzant witness once, also when walks over two cones interleave."""

import random
import sys
import threading
from dataclasses import fields

import pytest

import goodcones.cone
import goodcones.construct
import goodcones.euler
import goodcones.exactnum
import goodcones.graph
import goodcones.reeb
import goodcones.surgery
from goodcones.cone import GoodCone, InvalidCone, face_invariants, gluing_matrix
from goodcones.construct import example_family, obstructed_family
from goodcones.euler import build_identity_data, evaluate_identity, verify_global_identity
from goodcones.exactnum import DegenerateInput, cross_primitive, dot
from goodcones.graph import GermOfChain, canonical_form, extract_graph
from goodcones.reeb import (
    InadmissibleReeb,
    RankError,
    ReebVector,
    arc_decomposition,
    choose_transverse_circle,
    closure_identity_residual,
    is_admissible,
    isotropy_profile,
    moment_polygon,
    reeb_from_vectors,
    width_of_flat_face,
)

from conftest import (
    random_admissible_rank2_reeb,
    random_good_cone,
    random_orbit_blowup,
    random_sl3,
    sl3_image,
)


def copies(cone, reeb):
    """New objects equal to the pair, which no call has seen."""
    return GoodCone(cone.normals), ReebVector(reeb.p, reeb.q, reeb.d)


def reeb_pass(cone, reeb):
    """The read entries in the order of one benchmark reeb pass, then the
    ones that pass leaves out."""
    out = {
        "admissible": is_admissible(cone, reeb),
        "profile": isotropy_profile(cone, reeb),
        "polygon": moment_polygon(cone, reeb),
        "ybar": choose_transverse_circle(cone, reeb),
        "report": verify_global_identity(cone, reeb),
    }
    ybar = out["ybar"]
    out["widths"] = [
        width_of_flat_face(cone, reeb, ybar, i) for i in sorted(out["profile"].flats)
    ]
    out["residual"] = closure_identity_residual(cone, reeb, ybar)
    out["invariants"] = [face_invariants(cone, i) for i in range(len(cone))]
    out["gluing"] = [gluing_matrix(cone, i) for i in range(len(cone))]
    out["arcs"] = arc_decomposition(cone, reeb)
    out["arcs_given"] = arc_decomposition(cone, reeb, ybar)
    out["data_k"] = build_identity_data(cone, reeb).k
    out["graph"] = canonical_form(extract_graph(cone, reeb))
    return out


def fresh_pass(cone, reeb):
    """`reeb_pass` with every entry on its own new copies of the pair."""
    first = reeb_pass(*copies(cone, reeb))
    ybar = first["ybar"]
    flats = sorted(first["profile"].flats)

    def fresh(call):
        return call(*copies(cone, reeb))

    return {
        "admissible": fresh(is_admissible),
        "profile": fresh(isotropy_profile),
        "polygon": fresh(moment_polygon),
        "ybar": fresh(choose_transverse_circle),
        "report": fresh(verify_global_identity),
        "widths": [fresh(lambda c, r: width_of_flat_face(c, r, ybar, i)) for i in flats],
        "residual": fresh(lambda c, r: closure_identity_residual(c, r, ybar)),
        "invariants": [fresh(lambda c, r: face_invariants(c, i)) for i in range(len(cone))],
        "gluing": [fresh(lambda c, r: gluing_matrix(c, i)) for i in range(len(cone))],
        "arcs": fresh(arc_decomposition),
        "arcs_given": fresh(lambda c, r: arc_decomposition(c, r, ybar)),
        "data_k": fresh(build_identity_data).k,
        "graph": fresh(lambda c, r: canonical_form(extract_graph(c, r))),
    }


def corpus():
    """Random cones, the example and obstructed ladders, and pairs that share
    one object: the same cone with a second R, and the same R on a blow-up
    of its cone, which keeps R admissible."""
    rnd = random.Random(20240817)
    pairs = []
    for n in range(24):
        cone = random_good_cone(rnd, cuts=n % 4)
        reeb = random_admissible_rank2_reeb(rnd, cone, d=(2, 3, 5)[n % 3])
        pairs.append((cone, reeb))
        if n % 4 == 0:
            pairs.append((cone, random_admissible_rank2_reeb(rnd, cone, d=3)))
            pairs.append((random_orbit_blowup(rnd, cone).cone, reeb))
    pairs += [example_family(k) for k in range(2, 65)]
    pairs += [obstructed_family(k) for k in range(2, 17)]
    return pairs


CORPUS = corpus()
EXPECTED = {}


def expected(i):
    """`fresh_pass` of CORPUS[i], computed once."""
    if i not in EXPECTED:
        EXPECTED[i] = fresh_pass(*CORPUS[i])
    return EXPECTED[i]


def count_validate(monkeypatch):
    calls = []
    original = goodcones.cone.validate
    monkeypatch.setattr(
        goodcones.cone, "validate", lambda cone: calls.append(cone) or original(cone)
    )
    return calls


# ---------------------------------------------------------------------------
# Differential: interleaved pairs against fresh copies.
# ---------------------------------------------------------------------------


def test_interleaved_passes_match_fresh_copies():
    for i in range(len(CORPUS)):
        j = (i + 1) % len(CORPUS)
        for m in (i, j, i, j):
            assert reeb_pass(*CORPUS[m]) == expected(m), CORPUS[m]


def test_entry_by_entry_interleaving_matches_fresh_copies():
    for i in range(0, len(CORPUS) - 1, 2):
        a, b = CORPUS[i], CORPUS[i + 1]
        passes = ({}, {})
        # Every entry runs on A, then on B, then on A and B again, so each
        # call finds the other pair in the slot.
        for name, call in (
            ("profile", isotropy_profile),
            ("ybar", choose_transverse_circle),
            ("arcs", arc_decomposition),
            ("polygon", moment_polygon),
            ("report", verify_global_identity),
            ("admissible", is_admissible),
        ):
            for _ in range(2):
                for out, pair in zip(passes, (a, b)):
                    out[name] = call(*pair)
        for out, m in zip(passes, (i, i + 1)):
            assert out == {name: expected(m)[name] for name in out}


def test_threads_alternating_their_own_pairs_get_fresh_results():
    # Four threads on two cores, each alternating its own two pairs.  Pairs
    # 0 and 1 share a cone, and pairs 0 and 2 share an R.
    own = ((0, 1), (2, len(CORPUS) - 1), (3, 4), (5, 6))
    for mine in own:
        for m in mine:
            expected(m)
    failures = []

    def worker(mine):
        for step in range(200):
            m = mine[step % 2]
            if reeb_pass(*CORPUS[m]) != EXPECTED[m]:
                failures.append((step, m))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(mine,)) for mine in own]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert failures == []


# ---------------------------------------------------------------------------
# Error order on first and repeated calls; a raising call keeps the slot.
# ---------------------------------------------------------------------------

CONE, REEB = example_family(6)
YBAR = choose_transverse_circle(CONE, REEB)
PROFILE = isotropy_profile(CONE, REEB)
PROFILE_ENTRIES = {
    "isotropy_profile": lambda c, r: isotropy_profile(c, r),
    "choose_transverse_circle": lambda c, r: choose_transverse_circle(c, r),
    "arc_decomposition": lambda c, r: arc_decomposition(c, r),
    "width_of_flat_face": lambda c, r: width_of_flat_face(c, r, YBAR, 0),
    "closure_identity_residual": lambda c, r: closure_identity_residual(c, r, YBAR),
    "extract_graph": lambda c, r: extract_graph(c, r),
    "build_identity_data": lambda c, r: build_identity_data(c, r),
    "verify_global_identity": lambda c, r: verify_global_identity(c, r),
}
ENTRIES = {
    **PROFILE_ENTRIES,
    "is_admissible": lambda c, r: is_admissible(c, r),
    "moment_polygon": lambda c, r: moment_polygon(c, r),
}
BAD_CONE = GoodCone(CONE.normals[1:2] + CONE.normals[:1] + CONE.normals[2:])
INADMISSIBLE = reeb_from_vectors(
    tuple(-x for x in REEB.p), tuple(-x for x in REEB.q), REEB.d
)
# R = sum of the normals pairs positively with every edge ray and has rank 1.
RANK_ONE = reeb_from_vectors(tuple(sum(n[j] for n in CONE.normals) for j in range(3)), (0, 0, 0))


def outcome(call, *args):
    try:
        return ("returned", call(*args))
    except Exception as exc:  # the raised type and message are compared
        return (type(exc).__name__, str(exc))


def expected_outcome(name, cone, reeb):
    if cone is BAD_CONE:
        return "InvalidCone"
    if reeb is INADMISSIBLE:
        return {"is_admissible": "returned", "moment_polygon": "InadmissibleReeb"}.get(
            name, "InadmissibleReeb"
        )
    if reeb is RANK_ONE:
        return "returned" if name in ("is_admissible", "moment_polygon") else "RankError"
    raise AssertionError("not an error case")


def assert_slot_holds(monkeypatch, cone, reeb, expected_profile):
    """The slot still answers for (cone, reeb): no validation, same value."""
    calls = count_validate(monkeypatch)
    assert isotropy_profile(cone, reeb) == expected_profile
    assert calls == []
    monkeypatch.undo()


@pytest.mark.parametrize("name", sorted(ENTRIES))
@pytest.mark.parametrize("case", ["bad-cone", "inadmissible", "rank-1"])
def test_errors_are_the_same_on_first_and_repeated_calls(monkeypatch, name, case):
    cone, reeb = {
        "bad-cone": (BAD_CONE, INADMISSIBLE),
        "inadmissible": (CONE, INADMISSIBLE),
        "rank-1": (CONE, RANK_ONE),
    }[case]
    kept = copies(CONE, REEB)
    isotropy_profile(*kept)
    call = ENTRIES[name]
    first = outcome(call, cone, reeb)
    assert first[0] == expected_outcome(name, cone, reeb), first
    if first[0] == "returned":
        # is_admissible and moment_polygon accept a rank-1 R; the pair may
        # take the slot, and gives the same value again.
        if case == "inadmissible":
            assert first[1] is False
        assert outcome(call, cone, reeb) == first
        return
    assert_slot_holds(monkeypatch, *kept, PROFILE)
    assert outcome(call, cone, reeb) == first
    assert outcome(call, *copies(cone, reeb)) == first
    assert_slot_holds(monkeypatch, *kept, PROFILE)


def test_error_messages_name_the_failing_check():
    assert outcome(isotropy_profile, CONE, INADMISSIBLE) == (
        "InadmissibleReeb", "profile requires an admissible Reeb vector"
    )
    assert outcome(moment_polygon, CONE, INADMISSIBLE)[1].startswith(
        "R pairs non-positively with edge"
    )
    assert outcome(isotropy_profile, CONE, RANK_ONE) == (
        "RankError", "v0 is only defined for rank-2 Reeb vectors"
    )
    assert outcome(isotropy_profile, BAD_CONE, RANK_ONE)[0] == "InvalidCone"
    assert is_admissible(CONE, RANK_ONE) is True
    assert is_admissible(CONE, INADMISSIBLE) is False


YBAR_ENTRIES = {
    "arc_decomposition": arc_decomposition,
    "extract_graph": extract_graph,
    "build_identity_data": build_identity_data,
    "verify_global_identity": verify_global_identity,
    "closure_identity_residual": closure_identity_residual,
    "width_of_flat_face": lambda c, r, y: width_of_flat_face(c, r, y, 0),
}


@pytest.mark.parametrize("name", sorted(YBAR_ENTRIES))
@pytest.mark.parametrize(
    "ybar,message",
    [
        ((1, 0, 0), r"Ybar \(1, 0, 0\) is not in Lie\(G\): v0 . Ybar = 1"),
        ((3, -1, -3), r"Ybar \(3, -1, -3\) is not transverse: Ybar . e_0 = -6"),
    ],
)
def test_caller_ybar_is_checked_on_a_filled_slot(monkeypatch, name, ybar, message):
    cone, reeb = copies(CONE, REEB)
    call = YBAR_ENTRIES[name]
    with pytest.raises(DegenerateInput, match=f"^{message}$"):
        call(cone, reeb, ybar)
    good = call(cone, reeb, YBAR)  # fills the slot, the chosen Ybar and its arcs
    for _ in range(2):
        with pytest.raises(DegenerateInput, match=f"^{message}$"):
            call(cone, reeb, ybar)
    assert_slot_holds(monkeypatch, cone, reeb, PROFILE)
    assert call(cone, reeb, YBAR) == good == call(*copies(CONE, REEB), YBAR)


def test_flat_face_index_is_checked_on_a_filled_slot():
    cone, reeb = copies(CONE, REEB)
    assert width_of_flat_face(cone, reeb, YBAR, 0) == width_of_flat_face(cone, reeb, YBAR, 0)
    for _ in range(2):
        with pytest.raises(DegenerateInput, match=r"^face 1 is not flat \(k=\d+\)$"):
            width_of_flat_face(cone, reeb, YBAR, 1)


def test_bad_cone_after_a_good_one_is_refused():
    good = copies(CONE, REEB)
    isotropy_profile(*good)
    with pytest.raises(InvalidCone):
        isotropy_profile(BAD_CONE, good[1])
    with pytest.raises(InadmissibleReeb):
        isotropy_profile(good[0], INADMISSIBLE)
    with pytest.raises(RankError):
        isotropy_profile(good[0], RANK_ONE)
    assert isotropy_profile(*good) == isotropy_profile(CONE, REEB)


# ---------------------------------------------------------------------------
# Cached values are immutable; mutable results are fresh per call.
# ---------------------------------------------------------------------------


def test_corrupted_identity_data_never_reaches_a_later_call():
    cone, reeb = copies(*example_family(2))
    clean = verify_global_identity(cone, reeb)
    assert clean.ok
    data = build_identity_data(cone, reeb)
    data.k[1] = 5  # the negative control of tests/test_euler.py
    assert not evaluate_identity(data).ok
    assert build_identity_data(cone, reeb).k == list(isotropy_profile(cone, reeb).k)
    assert verify_global_identity(cone, reeb) == clean
    assert build_identity_data(cone, reeb).k is not build_identity_data(cone, reeb).k


def test_every_cached_value_is_immutable():
    for cone, reeb in CORPUS[::7]:
        reeb_pass(cone, reeb)
        facts = goodcones.reeb._slot
        assert facts.cone is cone and facts.R is reeb
        # Hashable means built from tuples, frozensets and frozen records.
        hash((facts.rays, facts.profile))
        # The pass reads every fact, so each is kept (a KeyError if not).
        kept = [vars(facts)[name] for name in ("lie", "ybar", "circles", "polygon")]
        assert facts.arcs is not None
        hash((*kept, facts.arcs))


# ---------------------------------------------------------------------------
# The witness table on each cone: one delzant_witness per adjacent pair.
# ---------------------------------------------------------------------------


def test_face_walk_computes_each_witness_once(monkeypatch):
    k = 256
    cone = GoodCone(example_family(k)[0].normals)
    expected = [
        (face_invariants(GoodCone(cone.normals), i), gluing_matrix(GoodCone(cone.normals), i))
        for i in range(len(cone))
    ]
    calls = []
    original = goodcones.cone.delzant_witness
    monkeypatch.setattr(
        goodcones.cone, "delzant_witness", lambda n, m: calls.append((n, m)) or original(n, m)
    )
    walk = [(face_invariants(cone, i), gluing_matrix(cone, i)) for i in range(len(cone))]
    assert walk == expected
    assert len(calls) == k + 3 == len(set(calls))
    # A second walk, and faces named out of range, compute none.
    assert [face_invariants(cone, i) for i in range(-3, len(cone) + 3)] == [
        expected[i % len(cone)][0] for i in range(-3, len(cone) + 3)
    ]
    assert len(calls) == k + 3


def test_interleaved_face_walks_compute_each_witness_once(monkeypatch):
    """Walks over two cones, one face of each in turn: every adjacent pair
    of each cone is computed once, and the results are those of fresh
    cones.  A table kept for the last cone read only would compute two
    witnesses per face."""
    cones = [GoodCone(f(20)[0].normals) for f in (example_family, obstructed_family)]
    assert [len(c) for c in cones] == [23, 23]
    fresh = [[face_invariants(GoodCone(c.normals), i) for i in range(len(c))] for c in cones]
    calls = []
    original = goodcones.cone.delzant_witness
    monkeypatch.setattr(
        goodcones.cone, "delzant_witness", lambda n, m: calls.append((n, m)) or original(n, m)
    )
    walks = [[], []]
    for i in range(23):
        for cone, walk in zip(cones, walks):
            walk.append(face_invariants(cone, i))
    assert walks == fresh
    assert len(calls) == 2 * 23


def test_witnesses_stay_outside_fields_eq_hash_and_repr():
    cone = GoodCone(obstructed_family(6, seed=2)[0].normals)
    twin = GoodCone(cone.normals)
    before = (fields(GoodCone), fields(cone), hash(cone), repr(cone))
    for i in range(len(cone)):
        face_invariants(cone, i)
    assert cone._witnesses is not None and twin._witnesses is None
    assert (fields(GoodCone), fields(cone), hash(cone), repr(cone)) == before
    assert [f.name for f in fields(GoodCone)] == ["normals"]
    assert cone == twin and hash(cone) == hash(twin) and repr(cone) == repr(twin)


def test_a_reeb_pass_computes_the_lie_g_rows_once_per_profile(monkeypatch):
    """The Cramer rows of the frame (u1, u2, m) are a constant of the
    profile: one `cramer_rows` call per profile, whatever reads coordinates."""
    calls = {"_profile_of": 0, "cramer_rows": 0}
    for name in calls:
        original = getattr(goodcones.reeb, name)

        def counting(*args, _name=name, _original=original):
            calls[_name] += 1
            return _original(*args)

        monkeypatch.setattr(goodcones.reeb, name, counting)
    for i in range(0, len(CORPUS), 7):
        want = expected(i)
        calls.update(_profile_of=0, cramer_rows=0)
        assert reeb_pass(*copies(*CORPUS[i])) == want
        assert calls == {"_profile_of": 1, "cramer_rows": 1}, CORPUS[i]


def transverse_circles(cone, reeb, radius=3):
    """The transverse circles a u1 + b u2 with |a|, |b| <= radius."""
    profile = isotropy_profile(*copies(cone, reeb))
    u1, u2 = profile.lieG_basis
    rays = [tuple(edge) for edge in moment_polygon(*copies(cone, reeb)).vertices]
    found = []
    for a in range(-radius, radius + 1):
        for b in range(-radius, radius + 1):
            y = tuple(a * s + b * t for s, t in zip(u1, u2))
            # Ybar is transverse when it is positive at every polygon vertex.
            if all(sum(c * x for c, x in zip(y, v)).sign() > 0 for v in rays):
                found.append(y)
    return found


def test_arcs_follow_the_callers_ybar_on_one_pair():
    changed = 0
    for cone, reeb in CORPUS[:40:3]:
        chosen = arc_decomposition(cone, reeb)
        for y in transverse_circles(cone, reeb):
            fresh = arc_decomposition(*copies(cone, reeb), y)
            assert arc_decomposition(cone, reeb, y) == fresh, y
            assert arc_decomposition(cone, reeb) == chosen
            changed += fresh != chosen
    assert changed > 0


# ---------------------------------------------------------------------------
# The slot's pairings and signs; a compute-once budget for one pass.
# ---------------------------------------------------------------------------


def test_the_slots_pairings_and_signs_are_direct_dot_products():
    ladder = [example_family(k) for k in (80, 96, 128, 160, 192, 224, 256)]
    for cone, reeb in CORPUS + ladder:
        profile = isotropy_profile(cone, reeb)
        facts = goodcones.reeb._slot
        assert facts.cone is cone and facts.R is reeb and facts.profile is profile
        k = len(cone)
        rays = tuple(cross_primitive(cone.normal(i), cone.normal(i + 1)) for i in range(k))
        assert facts.rays == rays
        # den R . e = P . e + sqrt(d) Q . e, with P = den p and Q = den q
        assert facts.pairs == tuple(
            (reeb.den * dot(reeb.p, e), reeb.den * dot(reeb.q, e)) for e in rays
        )
        assert facts.signs == tuple(dot(profile.v0, n) for n in cone.normals)
        assert profile.k == tuple(abs(s) for s in facts.signs)
        hash((facts.pairs, facts.signs))


BUDGETED = (
    "plane_lattice_basis",
    "_profile_of",
    "_pairings",
    "_transverse_circle",
    "delzant_witness",
    "cross_primitive",
    "_ray_table",
    "_vertex_circle",
)


def budget_pairs():
    rnd = random.Random(61)
    pairs = [example_family(64)]
    for cuts, d in ((1, 2), (2, 3), (4, 5)):
        cone = random_good_cone(rnd, cuts=cuts)
        pairs.append((cone, random_admissible_rank2_reeb(rnd, cone, d=d)))
    return pairs


def test_a_reeb_pass_keeps_to_its_compute_once_budget(monkeypatch):
    """One `reeb_pass` on fresh copies of a pair builds the profile, the
    Lie(G) basis and the edge rays once, computes one Delzant witness per
    adjacent pair and computes each vertex circle once, for both readers
    (the Euler identity and the graph), only at vertices between two faces
    that are not flat.  The rays are paired twice, with (P, Q) and with
    the Lie(G) basis, and the transverse circle is chosen once.  Vertex
    circles come from the edge ray's pairings with the Lie(G) basis, kept
    on the slot, and edge rays from `_ray_table`, so no `cross_primitive`
    is left on the read path."""
    calls = dict.fromkeys(BUDGETED, 0)
    modules = (
        goodcones.exactnum,
        goodcones.cone,
        goodcones.reeb,
        goodcones.euler,
        goodcones.graph,
        goodcones.construct,
        goodcones.surgery,
    )
    for module in modules:
        for name in BUDGETED:
            if hasattr(module, name):

                def counting(*args, _name=name, _original=getattr(module, name)):
                    calls[_name] += 1
                    return _original(*args)

                monkeypatch.setattr(module, name, counting)
    for cone, reeb in budget_pairs():
        cone, reeb = copies(cone, reeb)
        for name in calls:
            calls[name] = 0
        out = reeb_pass(cone, reeb)
        k = out["profile"].k
        circles = sum(1 for v in range(len(k)) if k[v] and k[(v + 1) % len(k)])
        assert calls == {
            "plane_lattice_basis": 1,
            "_profile_of": 1,
            "_pairings": 2,
            "_transverse_circle": 1,
            "delzant_witness": len(cone),
            "cross_primitive": 0,
            "_ray_table": 1,
            "_vertex_circle": circles,
        }, cone


# ---------------------------------------------------------------------------
# The record: attributes kept on first read, and one record for germs.
# ---------------------------------------------------------------------------


def test_a_second_read_of_each_attribute_returns_the_same_object():
    for cone, reeb in CORPUS[::5]:
        cone, reeb = copies(cone, reeb)
        facts = goodcones.reeb._facts(cone, reeb)
        for name in ("lie", "circles", "ybar", "polygon"):
            assert getattr(facts, name) is getattr(facts, name), name
        assert moment_polygon(cone, reeb) is facts.polygon
        assert choose_transverse_circle(cone, reeb) is facts.ybar


def germ_cases():
    rnd = random.Random(27)
    for k in range(2, 17):
        yield example_family(k)
        for d in (2, 3, 5):
            yield sl3_image(random_sl3(rnd), *example_family(k, d))


def test_germ_circles_match_the_cone_on_shared_vertices():
    """The germ cut from a closed cone at its two flat faces 0 and k + 1
    shares the cone's edge rays 0..k; its record gives the cone record's
    vertex circles there, up to sign, None next to a flat face."""
    for cone, reeb in germ_cases():
        k = len(cone) - 3
        germ = GermOfChain(normals=cone.normals[: k + 2], reeb=reeb)
        whole = goodcones.reeb._facts(cone, reeb)
        part = goodcones.reeb._chain_facts(germ.reeb, germ.normals)
        assert part.cone is None and len(part.rays) == k + 1
        assert part.rays == whole.rays[: k + 1]
        for mine, theirs in zip(part.circles, whole.circles):
            if theirs is None:
                assert mine is None
            else:
                assert mine in (theirs, (-theirs[0], -theirs[1])), (mine, theirs)
        assert part.circles[0] is part.circles[-1] is None
