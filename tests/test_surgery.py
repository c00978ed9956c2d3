import itertools
import math
import random
import re
from fractions import Fraction

import pytest

from goodcones.cone import GoodCone, edge_rays, load_cone, validate
import goodcones.surgery as surgery_module
from goodcones.construct import example_family, obstructed_family
from goodcones.exactnum import (
    DegenerateInput,
    SearchExhausted,
    content,
    cross,
    det3,
    dot,
    is_delzant_pair,
    mat_vec,
    quad,
)
from goodcones.reeb import isotropy_profile
from goodcones.surgery import (
    CutSpec,
    PlanningError,
    SurgeryRejected,
    _blowdown_candidates,
    blowdown_delete,
    can_blowdown_by_multiplicities,
    cone_hash,
    cut,
    find_blowdown_normal,
    plan_blowdown_sequence,
    replace_range,
    replay,
    solve_local_blowup,
)

from conftest import (
    SIMPLICIAL,
    lens_cut_normal,
    random_good_cone,
    random_orbit_blowup,
    random_sl3,
)

FAMILY2 = load_cone([(1, 0, 1), (1, 1, 1), (1, 2, 3), (1, 3, 7), (1, 1, 4)])
BLOWN = GoodCone(((1, 0, 0), (0, 1, 0), (-1, 1, 1), (0, 0, 1)))


def test_orbit_cut_and_classification():
    res = cut(SIMPLICIAL, CutSpec((-1, 1, 1)))
    assert res.kind == "orbit-blowup"
    assert res.cone.normals == BLOWN.normals
    assert validate(res.cone).is_good
    assert len(res.cone) == len(SIMPLICIAL) + 1  # one more closed orbit


def test_cut_rejects_noop():
    with pytest.raises(SurgeryRejected):
        cut(SIMPLICIAL, CutSpec((1, 0, 0)))
    # the naive 2-D corner-cut normal e2+e3 pairs to zero with the edge:
    # nothing is strictly cut, so it is a no-op for the homogeneous cone
    with pytest.raises(SurgeryRejected):
        cut(SIMPLICIAL, CutSpec((0, 1, 1)))


def test_blowdown_delete_roundtrip():
    back = blowdown_delete(BLOWN, 2)
    assert back.normals == SIMPLICIAL.normals
    res = cut(back, CutSpec((-1, 1, 1)))
    assert res.cone.normals == BLOWN.normals


def test_blowdown_delete_obstructed_family_face():
    with pytest.raises(SurgeryRejected) as err:
        blowdown_delete(FAMILY2, 1)
    kinds = {k for k, _ in err.value.report.failures}
    assert "delzant-pair" in kinds
    # the minors of (n0, n2) share the factor 2
    assert content(cross((1, 0, 1), (1, 2, 3))) == 2


def test_replace_range_identity_and_double_blowdown():
    assert replace_range(SIMPLICIAL, [1], (0, 1, 0)).normals == SIMPLICIAL.normals
    # two consecutive corner cuts, then one replacement removes both
    step1 = cut(SIMPLICIAL, CutSpec((-1, 1, 1))).cone
    res2 = random_orbit = None
    step2 = None
    for t in ((-2, 1, 3), (-2, 3, 1), (-1, 1, 2), (-1, 2, 1)):
        try:
            r = cut(step1, CutSpec(t))
        except (SurgeryRejected, ValueError):
            continue
        if r.kind == "orbit-blowup":
            step2 = r.cone
            break
    assert step2 is not None
    inserted = [n for n in step2.normals if n not in SIMPLICIAL.normals]
    rng = sorted(step2.normals.index(n) for n in inserted)
    if rng[0] + 1 == rng[1]:
        merged = replace_range(step2, rng, inserted[0])
        assert validate(merged).is_good


def test_replace_range_rejects_cutting_normal():
    with pytest.raises(SurgeryRejected):
        replace_range(BLOWN, [2], (-9, 1, 1))  # this half-space cuts the cone


@pytest.mark.parametrize(
    "rng, t, error, message",
    [
        ([], (1, 0, 0), SurgeryRejected, "empty replacement range"),
        ([0, 2], (1, 0, 0), SurgeryRejected, "range [0, 2] is not contiguous"),
        ([0, 1, 2, 3, 4], (1, 0, 0), SurgeryRejected, "range must be a proper subset of the faces"),
        ([1], (2, 0, 2), DegenerateInput, "replacement normal (2, 0, 2) is not primitive"),
    ],
    ids=["empty", "non-contiguous", "all-faces", "non-primitive"],
)
def test_replace_range_refuses_bad_ranges_and_normals(rng, t, error, message):
    with pytest.raises(error) as info:
        replace_range(FAMILY2, rng, t)
    assert str(info.value) == message


def test_a_cut_of_two_edges_cuts_the_two_edges_of_one_face(rnd):
    """`cut` reads a cut of two edge rays as a lens cut of the face between
    them: on a good cone the rays a normal cuts are a cyclic run."""
    seen = 0
    for n in range(12):
        cone = random_good_cone(rnd, cuts=n % 4)
        rays = edge_rays(cone)
        k = len(cone)
        for t in itertools.product(range(-3, 4), repeat=3):
            negative = [i for i, e in enumerate(rays) if dot(t, e) < 0]
            if len(negative) == 2:
                a, b = negative
                assert (a + 1) % k == b or (b + 1) % k == a, (cone, t)
                seen += 1
    assert seen > 100


def test_orbit_roundtrips_random(rnd):
    done = 0
    for _ in range(100):
        cone = random_good_cone(rnd, cuts=rnd.randint(0, 2))
        res = random_orbit_blowup(rnd, cone)
        if res is None:
            continue
        t = res.cone.normals[res.index + 1]
        back = blowdown_delete(res.cone, res.index + 1)
        assert back.normals == cone.normals  # bit-exact
        again = cut(back, CutSpec(t))
        assert again.cone.normals == res.cone.normals
        done += 1
    assert done >= 90


def test_lens_roundtrips_random(rnd):
    done = 0
    tried = 0
    while done < 50 and tried < 400:
        tried += 1
        cone = random_good_cone(rnd, cuts=rnd.randint(0, 2))
        i = rnd.randrange(len(cone))
        t = lens_cut_normal(cone, i)
        if t is None:
            continue
        res = cut(cone, CutSpec(t))
        assert res.kind == "lens-blowup"
        assert len(res.cone) == len(cone)  # orbit count unchanged
        pos = res.cone.normals.index(t)
        back = replace_range(res.cone, [pos], cone.normal(i))
        assert back.normals == cone.normals  # bit-exact
        done += 1
    assert done == 50


def test_cut_equivariance_sl3(rnd):
    for _ in range(25):
        cone = random_good_cone(rnd, cuts=1)
        res = random_orbit_blowup(rnd, cone)
        if res is None:
            continue
        t = res.cone.normals[res.index + 1]
        u = random_sl3(rnd)
        cone_u = GoodCone(tuple(mat_vec(u, n) for n in cone.normals))
        res_u = cut(cone_u, CutSpec(mat_vec(u, t)))
        assert res_u.kind == res.kind
        assert res_u.cone.normals == tuple(mat_vec(u, n) for n in res.cone.normals)


def test_prime_construction_path_fires():
    # the Dirichlet-progression construction itself produces a witness on
    # the family faces (box fallback not needed)
    from goodcones.surgery import _prime_construction, _theta_member
    from goodcones.exactnum import is_primitive

    hits = 0
    for k in (2, 3):
        cone, _ = example_family(k)
        for i in range(1, k + 1):
            n_prev, n_i, n_next = cone.normal(i - 1), cone.normal(i), cone.normal(i + 1)

            def admissible(t, np=n_prev, ni=n_i, nn=n_next):
                if t is None or t == (0, 0, 0) or not is_primitive(t):
                    return False
                if not _theta_member(np, ni, nn, t):
                    return False
                return is_delzant_pair(np, t) and is_delzant_pair(t, nn)

            if _prime_construction(cone, i, admissible) is not None:
                hits += 1
    assert hits >= 4


def test_lens_duality_with_found_normal():
    # replacing face 1 by a found blow-down normal enlarges the cone; cutting
    # the result with the removed normal is a lens blow-up recovering the
    # original family bit-exactly
    t = find_blowdown_normal(FAMILY2, 1)
    assert t is not None
    enlarged = replace_range(FAMILY2, [1], t)
    res = cut(enlarged, CutSpec(FAMILY2.normal(1)))
    assert res.kind == "lens-blowup"
    assert res.cone.normals == FAMILY2.normals


def test_find_blowdown_normal_basic():
    t = find_blowdown_normal(SIMPLICIAL, 1)
    assert t is not None
    n_prev, n_i, n_next = SIMPLICIAL.normal(0), SIMPLICIAL.normal(1), SIMPLICIAL.normal(2)
    assert det3(n_prev, n_i, t) > 0
    assert det3(n_i, n_next, t) > 0
    assert det3(n_prev, n_next, t) < 0
    assert is_delzant_pair(n_prev, t) and is_delzant_pair(t, n_next)
    assert validate(replace_range(SIMPLICIAL, [1], t)).is_good


def test_pseudoprimes_never_make_a_blowdown_normal_invalid(monkeypatch):
    """`is_prime` is only a strong-probable-prime test above 3.3e24, but the
    prime construction re-checks every candidate: with a primality test that
    accepts every n >= 2, each normal found is still valid."""
    cones = [example_family(k)[0] for k in range(2, 13)]
    cones += [obstructed_family(k, seed=s)[0] for k in range(2, 9) for s in (0, 1)]
    honest = [[find_blowdown_normal(c, i) for i in range(len(c))] for c in cones]
    monkeypatch.setattr(surgery_module, "is_prime", lambda n: n >= 2)
    found = changed = 0
    for cone, expected in zip(cones, honest):
        for i in range(len(cone)):
            t = find_blowdown_normal(cone, i)
            if t is None:
                continue
            n_prev, n_i, n_next = cone.normal(i - 1), cone.normal(i), cone.normal(i + 1)
            assert content(t) == 1, (cone, i, t)
            assert det3(n_prev, n_i, t) > 0 and det3(n_i, n_next, t) > 0, (cone, i, t)
            assert det3(n_prev, n_next, t) < 0, (cone, i, t)
            assert is_delzant_pair(n_prev, t) and is_delzant_pair(t, n_next), (cone, i, t)
            found += 1
            changed += t != expected[i]
    assert found > 200 and changed > 0


def test_find_blowdown_normal_constrained_after_reduction():
    # the constrained witness exists once the chain is a single face
    # (on the full family the coefficient lattice forces v0.t >= 2 on Theta)
    cone, reeb = example_family(2)
    prof = isotropy_profile(cone, reeb)
    plan = plan_blowdown_sequence(cone, [0, 3, 4])
    final = replay(plan, cone)
    new = [n for n in final.normals if n not in cone.normals]
    idx = final.normals.index(new[0])
    t = find_blowdown_normal(final, idx, constraint=(prof.v0, 1))
    assert t is not None and dot(prof.v0, t) == 1
    trivialized = replace_range(final, [idx], t)
    assert validate(trivialized).is_good


def test_find_blowdown_normal_exhaustion():
    # the constrained slice search reports emptiness on the full family
    cone, reeb = example_family(2)
    prof = isotropy_profile(cone, reeb)
    assert find_blowdown_normal(cone, 1, constraint=(prof.v0, 1)) is None


def test_plan_empty_when_keep_all():
    plan = plan_blowdown_sequence(FAMILY2, range(5))
    assert plan.steps == ()


def test_plan_family3(rnd):
    cone, reeb = example_family(3)  # normals 0..5, chain faces 1..3
    keep = [0, 4, 5]
    plan = plan_blowdown_sequence(cone, keep)
    final = replay(plan, cone)
    assert validate(final).is_good
    assert len(final) == len(keep) + 1
    kept = {cone.normals[i] for i in keep}
    assert kept.issubset(set(final.normals))
    assert len(plan.steps) == 2 * (3 - 1)
    # replay determinism
    again = replay(plan, cone)
    assert again.normals == final.normals
    assert cone_hash(again) == cone_hash(final)


def random_plan_inputs(seed=11, count=60):
    """Conftest random cones of 0 to 5 cuts, each with a random contiguous
    run of 1 to k - 2 faces removed: (cone, keep, first removed, length)."""
    rnd = random.Random(seed)
    for n in range(count):
        cone = random_good_cone(rnd, cuts=n % 6)
        k = len(cone)
        start = rnd.randrange(k)
        length = rnd.randint(1, k - 2) if k > 3 else 1
        yield cone, [(start + length + j) % k for j in range(k - length)], start, length


def first_reducing_candidate(cone, f):
    """(t, candidates skipped) for the first t of a fresh
    `_blowdown_candidates` stream of face f whose replace of face f and
    delete of the face after it both succeed."""
    after = cone.normal(f + 1)
    for skipped, t in enumerate(_blowdown_candidates(cone, f, None)):
        try:
            c1 = replace_range(cone, [f], t)
            blowdown_delete(c1, c1.normals.index(after))
        except SurgeryRejected:
            continue
        return t, skipped


def test_plan_continues_past_rejected_candidates(monkeypatch):
    """On this corpus the planner's delete step rejects candidates, and the
    planner goes on to the next: every plan replays through its hash chain
    to a good cone of the kept faces, in their cyclic order, and one new
    face where the run was, and each replace takes the first candidate
    whose replace and delete both succeed."""
    rejected = []
    original = surgery_module.blowdown_delete

    def counting(cone, i):
        try:
            return original(cone, i)
        except SurgeryRejected:
            rejected.append((cone.normals, i))
            raise

    monkeypatch.setattr(surgery_module, "blowdown_delete", counting)
    skipped = 0
    for cone, keep, start, length in random_plan_inputs():
        plan = plan_blowdown_sequence(cone, keep)
        assert len(plan.steps) == 2 * (length - 1)
        final = replay(plan, cone)
        digest = cone_hash(cone)
        for step in plan.steps:
            assert step.pre == digest
            digest = step.post
        assert digest == cone_hash(final)
        assert validate(final).is_good
        new = tuple(plan.steps[-2].params["t"]) if plan.steps else cone.normal(start)
        kept = [cone.normals[i] for i in keep]
        assert any(
            final.normals[j:] + final.normals[:j] == tuple(kept) + (new,)
            for j in range(len(final))
        )
        current = cone
        for replace, delete in zip(plan.steps[::2], plan.steps[1::2]):
            t, first = first_reducing_candidate(current, replace.params["range"][0])
            assert list(t) == replace.params["t"]
            skipped += first
            current = replace_range(current, replace.params["range"], t)
            current = blowdown_delete(current, delete.params["i"])
    assert len(rejected) > 0 and skipped > 0


def _replay_outcome(steps, cone):
    try:
        replay(surgery_module.SurgeryPlan(steps=tuple(steps)), cone)
    except Exception as exc:
        return type(exc).__name__, str(exc)
    return "ok", ""


def test_replay_checks_hash_op_and_arguments_before_validating():
    bad = GoodCone(FAMILY2.normals[::-1])
    digest = cone_hash(bad)
    invalid = ("InvalidCone", f"cone is not good: {validate(bad).failures[:4]}")

    def step(op, pre=digest, post="-", **params):
        return surgery_module.PlanStep(op=op, params=params, pre=pre, post=post)

    cases = [
        (
            step("replace", pre="-", range=[1], t=[1, 0, 0]),
            ("PlanningError", "pre-hash mismatch at step replace"),
        ),
        (step("flip"), ("PlanningError", "unknown op flip")),
        (step("delete"), ("KeyError", "'i'")),
        (
            step("cut", t=[2, 0, 0]),
            ("DegenerateInput", "cutting normal (2, 0, 0) is not primitive"),
        ),
        (step("cut", t=[1, 0, 0]), invalid),
        (step("replace", range=[1], t=[2, 0, 0]), invalid),
        (step("delete", i=1), invalid),
    ]
    for s, expected in cases:
        assert _replay_outcome([s], bad) == expected, s
    # On a good cone: the first step runs, then the next step's checks.
    first = plan_blowdown_sequence(FAMILY2, [0, 3, 4]).steps[0]
    assert _replay_outcome([first, step("flip", pre=first.post)], FAMILY2) == (
        "PlanningError",
        "unknown op flip",
    )
    assert _replay_outcome([step(first.op, pre=first.pre, **first.params)], FAMILY2) == (
        "PlanningError",
        f"post-hash mismatch at step {first.op}",
    )


@pytest.mark.parametrize(
    "keep,removed",
    [([0, 2], [1, 3, 4]), ([1, 3], [0, 2, 4]), ([0, 2, 4], [1, 3]), ([], [0, 1, 2, 3, 4])],
)
def test_plan_noncontiguous_keep_fails(keep, removed):
    message = f"removed faces {removed} are not contiguous"
    with pytest.raises(PlanningError, match=f"^{re.escape(message)}$"):
        plan_blowdown_sequence(FAMILY2, keep)


def test_solve_local_blowup_examples():
    sol = solve_local_blowup(quad(1), quad(0, 1), 1, 1, Fraction(1))
    assert sol.a1 * 1 - sol.a2 * 1 == 0
    assert (sol.r1 - 1).sign() > 0 and (sol.r2 - 1).sign() > 0
    assert math.gcd(sol.a0, abs(sol.a1)) == 1 and math.gcd(sol.a0, abs(sol.a2)) == 1

    sol = solve_local_blowup(quad(1), quad(0, 1), 2, 3, Fraction(1))
    assert math.gcd(sol.v, 6) == 1
    assert sol.a1 * 3 - sol.a2 * 2 == 0


def test_solve_local_blowup_minimal_height_oracle():
    # exhaustive scan over all admissible u/v of height <= found height
    bound = Fraction(1)
    sol = solve_local_blowup(quad(1), quad(0, 1), 1, 1, bound)
    h_found = max(abs(sol.u), sol.v)
    for h in range(1, h_found):
        for v in range(1, h + 1):
            for u in range(-h, h + 1):
                if max(abs(u), v) != h or math.gcd(abs(u), v) != 1:
                    continue
                l = quad(0, 1) - Fraction(u, v) * quad(1)
                assert not ((l - bound).sign() > 0), "smaller admissible height exists"


def test_solve_local_blowup_errors():
    with pytest.raises(ValueError, match="^lam0 must be nonzero$"):
        solve_local_blowup(quad(0), quad(0, 1), 1, 1, Fraction(1))
    with pytest.raises(ValueError):
        solve_local_blowup(quad(1), quad(2), 1, 1, Fraction(1))  # rank 1
    with pytest.raises(ValueError):
        solve_local_blowup(quad(1), quad(0, 1), 2, 4, Fraction(1))  # not coprime
    for bound in (Fraction(0), Fraction(-3, 2)):
        with pytest.raises(ValueError):
            solve_local_blowup(quad(1), quad(0, 1), 1, 1, bound)
    with pytest.raises(SearchExhausted):
        # opposite-sign weights cannot both clear a positive bound
        solve_local_blowup(quad(1), quad(0, 1), 1, -1, Fraction(1))


SCAN_HEIGHT = 20


def _farey_scan(lam0, lam1, m1, m2, bound):
    """The former solver: u/v in lowest terms with v prime to m1 and m2, by
    increasing height max(|u|, v), v ascending, u = -h before u = h; the
    first with both radii above the bound, or None up to SCAN_HEIGHT."""
    for h in range(1, SCAN_HEIGHT + 1):
        for v in range(1, h + 1):
            if math.gcd(v, abs(m1)) != 1 or math.gcd(v, abs(m2)) != 1:
                continue
            us = range(-h, h + 1) if v == h else (-h, h)
            for u in us:
                if max(abs(u), v) != h or math.gcd(abs(u), v) != 1:
                    continue
                l = lam1 - Fraction(u, v) * lam0
                if (l * m1 - bound).sign() > 0 and (l * m2 - bound).sign() > 0:
                    return u, v
    return None


def test_solve_local_blowup_matches_farey_scan(rnd):
    compared = 0
    for _ in range(1200):
        d = rnd.choice((2, 3, 5, 7))
        while True:
            lam0 = quad(rnd.randint(-6, 6), rnd.randint(-6, 6), d)
            lam1 = quad(rnd.randint(-6, 6), rnd.randint(-6, 6), d)
            if not lam0.is_zero() and not (lam1 / lam0).is_rational():
                break
        while True:
            m1, m2 = rnd.randint(1, 9), rnd.randint(1, 9)
            if math.gcd(m1, m2) == 1:
                break
        if rnd.random() < 0.5:
            m1, m2 = -m1, -m2
        bound = Fraction(rnd.randint(1, 40), rnd.randint(1, 4))
        sol = solve_local_blowup(lam0, lam1, m1, m2, bound)
        expected = _farey_scan(lam0, lam1, m1, m2, bound)
        if expected is None:
            assert max(abs(sol.u), sol.v) > SCAN_HEIGHT
        else:
            assert (sol.u, sol.v) == expected
            compared += 1
        u, v = sol.u, sol.v
        assert v >= 1 and math.gcd(abs(u), v) == 1
        assert sol.l == lam1 - Fraction(u, v) * lam0
        assert (sol.r1, sol.r2) == (sol.l * m1, sol.l * m2)
        assert (sol.r1 - bound).sign() > 0 and (sol.r2 - bound).sign() > 0
        assert (sol.a0, sol.a1, sol.a2) == (v, u * m1, u * m2)
    assert compared >= 1000


def test_solve_local_blowup_far_heights():
    # the answer lies far beyond any scan height, and is still minimal
    lam0, lam1 = quad(-3, 2, 2), quad(0, 1, 2)  # lam0 = 2 sqrt2 - 3 < 0
    sol = solve_local_blowup(lam0, lam1, 1, 1, Fraction(10**6))
    assert sol.v == 1 and sol.u > 10**6
    for u in (sol.u, sol.u - 1):
        l = lam1 - u * lam0
        assert ((l - 10**6).sign() > 0) == (u == sol.u)


def test_can_blowdown_by_multiplicities_table():
    assert can_blowdown_by_multiplicities(1, 1, 5, False, True) is True
    assert can_blowdown_by_multiplicities(3, 1, 1, True, False) is True
    assert can_blowdown_by_multiplicities(2, 1, 1, False, False) is False
    with pytest.raises(ValueError):
        can_blowdown_by_multiplicities(0, 1, 1, True, True)
