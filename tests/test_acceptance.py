"""Acceptance suite: the ten build criteria, one test each, every assertion
exact (zero tolerance).  Each test prints one PASS line; run with

    pytest tests/test_acceptance.py -v -s
"""

import math
import random
import time
from fractions import Fraction

from goodcones.cone import (
    GoodCone,
    can_blowdown_to_orbit,
    face_invariants,
    validate,
)
from goodcones.construct import (
    example_family,
    obstructed_family,
    verify_obstructed_conditions,
)
from goodcones.euler import (
    build_identity_data,
    evaluate_identity,
    euler_lens,
    euler_quotient,
    euler_s3,
    verify_global_identity,
)
from goodcones.exactnum import dot, is_delzant_pair, mat_vec
from goodcones.graph import (
    count_nontrivial_chains,
    extract_graph,
    isomorphic,
    toric_condition_check,
)
from goodcones.reeb import (
    choose_transverse_circle,
    closure_identity_residual,
    is_admissible,
    isotropy_profile,
    rank_of,
    reeb_from_vectors,
)
from goodcones.surgery import (
    CutSpec,
    blowdown_delete,
    cut,
    find_blowdown_normal,
    plan_blowdown_sequence,
    replace_range,
    replay,
)

from conftest import (
    lens_cut_normal,
    load_gl3_image,
    random_admissible_rank2_reeb,
    random_gl3,
    random_good_cone,
    random_orbit_blowup,
)


def test_criterion_1_example_family():
    start = time.monotonic()
    for k in range(2, 13):
        cone, reeb = example_family(k)
        assert validate(cone).is_good
        profile = isotropy_profile(cone, reeb)
        assert profile.flats == frozenset({0, k + 1})
        assert profile.k[k + 2] == 1
        for i in range(1, k + 1):
            inv = face_invariants(cone, i)
            assert (inv.b, inv.f) == (2, 0)
            assert can_blowdown_to_orbit(cone, i) is False
    elapsed = time.monotonic() - start
    assert elapsed < 2.0
    print(
        f"ACCEPTANCE 1 PASS: example family k=2..12, every interior face is "
        f"(b,f)=(2,0) with no blow-down, flats {{0,k+1}}, closing face free "
        f"({elapsed:.3f}s)"
    )


def test_criterion_2_obstructed_family():
    start = time.monotonic()
    for k in range(2, 9):
        cone, _ = obstructed_family(k, seed=k)
        assert verify_obstructed_conditions(cone, k)
    elapsed = time.monotonic() - start
    assert elapsed < 5.0
    print(
        f"ACCEPTANCE 2 PASS: obstructed family k=2..8 satisfies conditions "
        f"(i)-(vi), re-verified independently ({elapsed:.3f}s)"
    )


def test_criterion_3_euler_formulas():
    assert euler_s3(1, 1) == Fraction(-1)
    assert euler_s3(2, 3) == Fraction(-1, 6)
    rnd = random.Random(3)
    weights = [x for x in range(-9, 10) if x != 0]
    for _ in range(500):
        m1, m2 = rnd.choice(weights), rnd.choice(weights)
        assert euler_lens(1, 0, m1, m2) == euler_s3(m1, m2)
    done = 0
    while done < 500:
        a0 = rnd.randint(1, 9)
        a1, a2, b0, b1, b2 = (rnd.randint(-9, 9) for _ in range(5))
        d1, d2 = a0 * b1 - a1 * b0, a0 * b2 - a2 * b0
        if d1 == 0 or d2 == 0:
            continue
        assert euler_s3(d1, d2) == Fraction(
            math.gcd(abs(d1), abs(d2)), a0
        ) * euler_quotient(a0, a1, a2, b0, b1, b2)
        done += 1
    print(
        "ACCEPTANCE 3 PASS: euler_s3 anchors, 500 lens/S3 consistencies and "
        "500 covering relations hold exactly"
    )


def test_criterion_4_global_identity():
    instances = 0
    for k in range(2, 7):
        cone, reeb = example_family(k)
        report = verify_global_identity(cone, reeb)
        assert report.ok and report.lhs == report.rhs
        assert all(d >= 1 for _, d, _ in report.per_chain)
        instances += 1
    rnd = random.Random(4)
    while instances < 20:
        cone = random_good_cone(rnd, cuts=rnd.randint(0, 3))
        reeb = random_admissible_rank2_reeb(rnd, cone)
        report = verify_global_identity(cone, reeb)
        assert report.ok and report.lhs == report.rhs, (cone.normals, reeb)
        assert all(d >= 1 for _, d, _ in report.per_chain)
        instances += 1
    cone, reeb = example_family(2)
    data = build_identity_data(cone, reeb)
    data.k[1] = 5
    assert not evaluate_identity(data).ok
    print(
        f"ACCEPTANCE 4 PASS: global Euler-sum identity exact on {instances} "
        f"instances with positive integer d's; mutated-k control fails"
    )


def test_criterion_5_surgery_roundtrips():
    rnd = random.Random(5)
    orbit_done = 0
    while orbit_done < 100:
        cone = random_good_cone(rnd, cuts=rnd.randint(0, 2))
        res = random_orbit_blowup(rnd, cone)
        if res is None:
            continue
        assert blowdown_delete(res.cone, res.index + 1).normals == cone.normals
        orbit_done += 1
    lens_done = 0
    while lens_done < 50:
        cone = random_good_cone(rnd, cuts=rnd.randint(0, 2))
        i = rnd.randrange(len(cone))
        t = lens_cut_normal(cone, i)
        if t is None:
            continue
        res = cut(cone, CutSpec(t))
        assert res.kind == "lens-blowup"
        pos = res.cone.normals.index(t)
        assert replace_range(res.cone, [pos], cone.normal(i)).normals == cone.normals
        lens_done += 1
    print(
        f"ACCEPTANCE 5 PASS: {orbit_done} orbit and {lens_done} lens blow-ups "
        f"inverted bit-exactly"
    )


def test_criterion_6_obstruction_equivalence():
    rnd = random.Random(6)
    corpus = [example_family(k)[0] for k in range(2, 7)]
    corpus += [obstructed_family(k, seed=k)[0] for k in range(2, 6)]
    corpus += [random_good_cone(rnd, cuts=rnd.randint(0, 3)) for _ in range(30)]
    checked = 0
    for cone in corpus:
        k = len(cone)
        if k < 4:
            continue
        for i in range(k):
            remaining = GoodCone(
                tuple(n for j, n in enumerate(cone.normals) if j != i)
            )
            report = validate(remaining)
            convex_ok = all(
                kind == "delzant-pair" for kind, _ in report.failures
            )
            if not convex_ok:
                continue
            inv = face_invariants(cone, i)
            lhs = math.gcd(inv.b, inv.f) == 1
            rhs = is_delzant_pair(cone.normal(i - 1), cone.normal(i + 1))
            assert lhs == rhs, (cone.normals, i, inv.b, inv.f)
            checked += 1
    assert checked >= 100
    print(
        f"ACCEPTANCE 6 PASS: gcd(b,f)=1 <=> Delzant(n^(i-1), n^(i+1)) at "
        f"{checked} convexity-preserving faces"
    )


def test_criterion_7_blowdown_planning():
    for k in (2, 3, 4):
        cone, reeb = example_family(k)
        profile = isotropy_profile(cone, reeb)
        plan = plan_blowdown_sequence(cone, [0, k + 1, k + 2])
        final = replay(plan, cone)  # replay verifies every hash
        assert validate(final).is_good and len(final) == 4
        new = [n for n in final.normals if n not in cone.normals]
        assert len(new) == 1
        idx = final.normals.index(new[0])
        t = find_blowdown_normal(final, idx, constraint=(profile.v0, 1))
        assert t is not None and dot(profile.v0, t) == 1
        trivialized = replace_range(final, [idx], t)
        assert validate(trivialized).is_good
        g = extract_graph(trivialized, reeb)
        assert count_nontrivial_chains(g) == 0
    print(
        "ACCEPTANCE 7 PASS: planner reduces the example chains to one face "
        "(hash-verified replay) and the v0-constrained normal trivializes it"
    )


def test_criterion_8_graph_invariances():
    rnd = random.Random(8)
    cone, reeb = example_family(2)
    g = extract_graph(cone, reeb)
    for trial in range(200):
        u = random_gl3(rnd)
        cone2 = load_gl3_image(u, cone)
        reeb2 = reeb_from_vectors(mat_vec(u, tuple(reeb.p)), mat_vec(u, tuple(reeb.q)))
        assert isomorphic(g, extract_graph(cone2, reeb2)), trial
    instances = [(example_family(k)) for k in range(2, 6)]
    for _ in range(12):
        c = random_good_cone(rnd, cuts=rnd.randint(0, 3))
        instances.append((c, random_admissible_rank2_reeb(rnd, c)))
    for c, r in instances:
        assert count_nontrivial_chains(extract_graph(c, r)) <= 2
        y = choose_transverse_circle(c, r)
        assert closure_identity_residual(c, r, y).is_zero()
    print(
        "ACCEPTANCE 8 PASS: 200 GL(3,Z) re-coordinatizations yield isomorphic "
        "graphs; chain count <= 2 and the polygon-closure identity is exact "
        f"on {len(instances)} instances"
    )


def test_criterion_9_rank_admissibility():
    cone, reeb = example_family(2)
    assert rank_of(reeb) == 2
    assert rank_of(reeb_from_vectors((1, 2, 3), (0, 0, 0))) == 1
    assert rank_of(reeb_from_vectors((3, 6, 9), (1, 2, 3))) == 1
    assert is_admissible(cone, reeb)
    flipped = reeb_from_vectors(
        tuple(-x for x in reeb.p), tuple(-x for x in reeb.q)
    )
    assert not is_admissible(cone, flipped)
    simp = GoodCone(((1, 0, 0), (0, 1, 0), (0, 0, 1)))
    assert not is_admissible(simp, reeb_from_vectors((-1, 1, 1), (0, 0, 0)))
    print(
        "ACCEPTANCE 9 PASS: rank 2 on the example Reeb, rank 1 on rational "
        "vectors; admissibility accepts the example pair and rejects flips"
    )


def test_criterion_10_toric_condition_checker():
    rnd = random.Random(10)

    def brute(vmin, vmax, box=32):
        s = 1 if vmin[0] * vmax[1] - vmin[1] * vmax[0] > 0 else -1
        out = []
        for x in range(-box, box + 1):
            for y in range(-box, box + 1):
                v = (x, y)
                if v == (0, 0) or math.gcd(abs(x), abs(y)) != 1:
                    continue
                d1 = vmin[0] * y - vmin[1] * x
                d2 = x * vmax[1] - y * vmax[0]
                if s * d1 <= 0 or s * d2 <= 0:
                    continue
                if abs(d1) == 1 and abs(d2) == 1:
                    out.append(v)
        return out

    done = 0
    found = 0
    while done < 100:
        vmin = (rnd.randint(-6, 6), rnd.randint(-6, 6))
        vmax = (rnd.randint(-6, 6), rnd.randint(-6, 6))
        if vmin == (0, 0) or vmax == (0, 0):
            continue
        if math.gcd(abs(vmin[0]), abs(vmin[1])) != 1:
            continue
        if math.gcd(abs(vmax[0]), abs(vmax[1])) != 1:
            continue
        if vmin[0] * vmax[1] - vmin[1] * vmax[0] == 0:
            continue
        got = toric_condition_check(vmin, vmax)
        expected = brute(vmin, vmax)
        assert (got is None) == (not expected), (vmin, vmax)
        if got is not None:
            assert got in expected
            found += 1
        done += 1
    print(
        f"ACCEPTANCE 10 PASS: toric-condition checker agrees with brute force "
        f"on 100 pairs ({found} with a witness)"
    )
