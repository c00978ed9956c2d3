import math
import random
import time

import pytest

from goodcones.cone import (
    InvalidCone,
    can_blowdown_to_orbit,
    face_invariants,
    gluing_matrix,
    validate,
)
from goodcones.construct import (
    close_chain,
    close_chain_normals,
    example_family,
    obstructed_family,
    verify_obstructed_conditions,
    weighted_homogeneous_check,
)
from goodcones.cone import GoodCone
from goodcones.exactnum import (
    DegenerateInput,
    cross,
    cross_primitive,
    det3,
    dot,
    is_delzant_pair,
    plane_lattice_basis,
    solve_dot_one,
    vec_add,
    vec_scale,
)
from goodcones.reeb import is_admissible, isotropy_profile, rank_of
from goodcones.surgery import plan_blowdown_sequence, replay

from conftest import random_good_cone


def test_example_family_k2_matches_listing():
    cone, reeb = example_family(2)
    assert cone.normals == ((1, 0, 1), (1, 1, 1), (1, 2, 3), (1, 3, 7), (1, 1, 4))
    assert rank_of(reeb) == 2
    assert is_admissible(cone, reeb)


def test_example_family_structure_up_to_12():
    start = time.monotonic()
    for k in range(2, 13):
        cone, reeb = example_family(k)
        assert validate(cone).is_good
        prof = isotropy_profile(cone, reeb)
        assert prof.flats == frozenset({0, k + 1})
        assert prof.k[k + 2] == 1
        for i in range(1, k + 1):
            inv = face_invariants(cone, i)
            assert (inv.b, inv.f) == (2, 0)
            assert not can_blowdown_to_orbit(cone, i)
    assert time.monotonic() - start < 2.0


def test_example_family_k5_profile():
    cone, reeb = example_family(5)
    prof = isotropy_profile(cone, reeb)
    assert prof.flats == frozenset({0, 6})


def test_example_family_validates_to_32():
    start = time.monotonic()
    for k in range(2, 33):
        cone, _ = example_family(k)
        assert validate(cone).is_good
    assert time.monotonic() - start < 1.0


def test_obstructed_family_conditions():
    start = time.monotonic()
    for k in range(2, 11):
        cone, reeb = obstructed_family(k, seed=k)
        assert validate(cone).is_good
        assert verify_obstructed_conditions(cone, k)
        for i in range(1, k + 1):
            assert not can_blowdown_to_orbit(cone, i)
        assert is_admissible(cone, reeb) and rank_of(reeb) == 2
    assert time.monotonic() - start < 5.0


def test_obstructed_family_interior_steps_share_factor_two():
    for k in (2, 4):
        cone, _ = obstructed_family(k, seed=1)
        for i in range(0, k):
            t = gluing_matrix(cone, i)
            c_i, e_i = t[1][0], t[2][0]
            assert c_i % 2 == 0 and e_i % 2 == 0


def test_obstructed_family_seed_variation():
    seen = set()
    for seed in range(4):
        cone, _ = obstructed_family(3, seed=seed)
        assert validate(cone).is_good
        assert verify_obstructed_conditions(cone, 3)
        seen.add(cone.normals)
    assert len(seen) >= 2  # different seeds reach different cones


@pytest.mark.parametrize("family", [example_family, obstructed_family])
def test_families_need_k_at_least_2(family):
    with pytest.raises(ValueError, match="^k must be at least 2$"):
        family(1)


def test_obstructed_conditions_fail_at_the_wrong_length():
    cone, _ = obstructed_family(4)
    assert verify_obstructed_conditions(cone, 4)
    assert not verify_obstructed_conditions(cone, 3)
    assert not verify_obstructed_conditions(cone, 5)


def test_close_chain_toy():
    chain = [(0, 1, 0), (-1, 1, 1), (0, 0, 1)]
    t = close_chain(chain)
    closed = GoodCone(tuple(chain) + (t,))
    assert validate(closed).is_good
    assert is_delzant_pair((0, 0, 1), t) and is_delzant_pair(t, (0, 1, 0))


def test_close_chain_example_family_prefix():
    for k in (2, 3, 4):
        cone, _ = example_family(k)
        chain = cone.normals[:-1]
        t = close_chain(chain)
        closed = GoodCone(tuple(chain) + (t,))
        assert validate(closed).is_good


def test_closing_normal_is_primitive_with_unit_pairing():
    # No gcd test filters the candidates: v0 . t = 1 makes each primitive.
    rnd = random.Random(7)
    chains = [obstructed_family(k, seed=k)[0].normals[:-1] for k in range(2, 49)]
    chains += [example_family(k)[0].normals[:-1] for k in range(2, 9)]
    chains += [random_good_cone(rnd, cuts=n % 5).normals[:-1] for n in range(60)]
    for chain in chains:
        t = close_chain_normals(chain)
        assert dot(cross_primitive(chain[0], chain[-1]), t) == 1, chain
        assert math.gcd(*t) == 1, chain


# The drift search that close_chain_normals replaced: steps 0..64, then
# doubling, up to 2**20, each scanning a 7x7 window of the slice plane.
_OLD_MAX_DRIFT_STEPS = 1 << 20


def drift_loop_closing_normal(chain):
    """(t, s) of the first feasible candidate in (s, j1, j2) order, or
    (None, None) when no step up to 2**20 has one."""
    chain = [tuple(n) for n in chain]
    first, last = chain[0], chain[-1]
    v0 = cross_primitive(first, last)
    t0 = solve_dot_one(v0)
    u1, u2 = plane_lattice_basis(v0)
    drift = vec_add(first, last)

    def feasible(t):
        return all(det3(last, t, m) > 0 for m in chain[:-1]) and all(
            det3(t, first, m) > 0 for m in chain[1:]
        )

    s = 0
    while s <= _OLD_MAX_DRIFT_STEPS:
        base = vec_add(t0, vec_scale(s, drift))
        for j1 in range(-3, 4):
            for j2 in range(-3, 4):
                cand = vec_add(base, vec_add(vec_scale(j1, u1), vec_scale(j2, u2)))
                if feasible(cand):
                    return cand, s
        s = s + 1 if s < 64 else s * 2
    return None, None


def chains_cut_from(cone_normals, faces=None):
    """The chain left by dropping each listed face (all by default), read
    cyclically from the face after it."""
    ns = tuple(cone_normals)
    faces = range(len(ns)) if faces is None else faces
    return [ns[i + 1:] + ns[:i] for i in faces]


def plan_cone(k):
    """The 4-face cone that the blow-down plan keeping faces 0, k+1 and k+2
    of example_family(k) reaches."""
    cone, _ = example_family(k)
    return replay(plan_blowdown_sequence(cone, [0, k + 1, k + 2]), cone)


def test_close_chain_normals_equals_the_drift_loop():
    chains = []
    for k in range(2, 129):
        for seed in range(3):
            ns = obstructed_family(k, seed=seed)[0].normals
            chains += [ns[:-1], ns[1:]]
    for k in range(2, 60):
        chains += chains_cut_from(example_family(k)[0].normals, (0, 1, k + 2))
    rnd = random.Random(1)  # reaches two drift steps above 64
    for n in range(300):
        normals = random_good_cone(rnd, cuts=n % 5).normals
        chains += chains_cut_from(normals, [rnd.randrange(len(normals))])
    # Convex triples whose first feasible step is a power of two above 64
    # that one row asks for exactly (128, 512, 128 and 128).
    chains += [
        [(12, -1, 26), (-23, -19, -14), (19, 18, -20)],
        [(29, -21, 18), (-12, 19, -20), (13, 4, 15)],
        [(3, -6, -22), (-4, 3, -25), (12, 17, -20)],
        [(18, -1, -9), (28, 24, 18), (1, -18, -15)],
    ]
    branches = {"s = 0": 0, "1 <= s <= 64": 0, "64 < s <= 2**20": 0, "s > 2**20": 0}
    for chain in chains:
        t = close_chain_normals(chain)
        expected, s = drift_loop_closing_normal(chain)
        if expected is None:
            # No step up to 2**20 has a feasible candidate, so t lies beyond.
            branches["s > 2**20"] += 1
            assert all(det3(chain[-1], t, m) > 0 for m in chain[:-1]), chain
            assert all(det3(t, chain[0], m) > 0 for m in chain[1:]), chain
            continue
        assert t == expected, chain
        if s == 0:
            branches["s = 0"] += 1
        elif s <= 64:
            branches["1 <= s <= 64"] += 1
        else:
            branches["64 < s <= 2**20"] += 1
    assert all(branches.values()), branches


def test_close_chain_closes_every_chain_cut_from_a_good_cone():
    # Strict convexity puts det3(first, m, last) > 0 for each interior m of
    # such a chain, so a closing normal exists and close_chain finds it.
    rnd = random.Random(5)
    cones = [random_good_cone(rnd, cuts=n % 5).normals for n in range(40)]
    cones += [obstructed_family(k)[0].normals for k in range(2, 65)]
    chains = [chain for normals in cones for chain in chains_cut_from(normals)]
    plan_chains = [
        chain for k in (16, 24, 32, 64, 96) for chain in chains_cut_from(plan_cone(k).normals)
    ]
    # The drift loop gave up on nine plan chains: face 0 dropped for each k,
    # and face 2 for k = 16, 24, 64 and 96.  It gave up on the three
    # obstructed chains added below as well.
    assert sum(drift_loop_closing_normal(chain)[0] is None for chain in plan_chains) == 9
    chains += plan_chains
    chains += [obstructed_family(k, seed=2)[0].normals[1:] for k in (41, 47, 101)]
    for chain in chains:
        t = close_chain(chain)
        assert validate(GoodCone(tuple(chain) + (t,))).is_good, chain


def test_close_chain_rejects_nonconvex():
    with pytest.raises(ValueError):
        close_chain([(0, 1, 0), (0, 1, 1), (0, 0, 1)])  # coplanar triple


def test_close_chain_raises_invalid_cone_when_the_closure_is_not_good():
    # The chain is convex, but its own pair (n^1, n^2) is not Delzant.
    with pytest.raises(InvalidCone) as info:
        close_chain([(13, 0, 2), (2, 13, 2), (-13, 3, 2), (-5, -12, 3)])
    assert info.value.report.failures == (("delzant-pair", (1,)),)


def test_alternate_discriminant():
    # the session discriminant is configurable to any square-free d >= 2
    cone, reeb = example_family(2, d=3)
    assert reeb.d == 3
    assert rank_of(reeb) == 2
    assert is_admissible(cone, reeb)
    prof = isotropy_profile(cone, reeb)
    assert prof.k == (0, 2, 2, 0, 1)


def test_weighted_homogeneous_check():
    assert weighted_homogeneous_check([(2, 0, 0), (0, 2, 0), (0, 0, 2)], (1, 1, 1), 2)
    assert weighted_homogeneous_check([(3, 0), (0, 2)], (2, 3), 6)
    assert not weighted_homogeneous_check([(3, 0), (0, 2)], (1, 1), 3)
    with pytest.raises(ValueError):
        weighted_homogeneous_check([], (1, 1), 1)


@pytest.mark.parametrize(
    "exponents, w, error",
    [
        ([[1.5, 0.9]], [1, 1], TypeError),  # int() truncated to (1, 0): w . a = 1
        ([[1, 0]], [1.9, 1], TypeError),  # int() truncated the weight to 1
        ([[1, 0, 5]], [1, 1], DegenerateInput),  # zip dropped the third exponent
        ([[1, 0], [True, 0]], [1, 1], TypeError),
        ([[1, 0], [1]], [1, 1], DegenerateInput),
        ([[0, 1], [1, 0, 0]], [2, 1], DegenerateInput),  # checked before any sum
    ],
)
def test_weighted_homogeneous_check_refuses_non_int_and_short_or_long_vectors(
    exponents, w, error
):
    with pytest.raises(error):
        weighted_homogeneous_check(exponents, w, 1)


def _old_verify_obstructed_conditions(cone, k):
    """`verify_obstructed_conditions` as it was with its own det3 loops
    over the triples that `validate` also decides."""
    ns = cone.normals
    if len(ns) != k + 3:
        return False
    if any(cross(ns[0], ns[i])[2] <= 0 for i in range(1, k + 2)):
        return False
    if any(cross(ns[i], ns[i + 1])[2] <= 0 for i in range(0, k + 1)):
        return False
    if any(det3(ns[i], ns[i + 1], ns[i + 2]) <= 0 for i in range(0, k)):
        return False
    if any(det3(ns[k + 1], ns[k + 2], ns[j]) <= 0 for j in range(0, k + 1)):
        return False
    if any(det3(ns[k + 2], ns[0], ns[j]) <= 0 for j in range(1, k + 2)):
        return False
    if not validate(cone).is_good:
        return False
    return all(
        math.gcd(gluing_matrix(cone, i)[1][0], gluing_matrix(cone, i)[2][0]) != 1
        for i in range(0, k)
    )


def test_obstructed_conditions_need_no_det3_loops_of_their_own():
    """`validate` decides every triple the deleted det3 loops tested, so the
    verdict is the old one: on obstructed cones, on the same cones with two
    normals swapped, the order reversed or the closing normal replaced (the
    cross-product conditions do not read it), and on random good cones read
    at every k."""
    rnd = random.Random(2024)
    cones = []
    for k in range(2, 9):
        for seed in range(3):
            cone, _ = obstructed_family(k, seed=seed)
            ns = list(cone.normals)
            i, j = rnd.sample(range(len(ns)), 2)
            ns[i], ns[j] = ns[j], ns[i]
            cones += [(cone, k), (GoodCone(tuple(ns)), k), (GoodCone(cone.normals[::-1]), k)]
            while len(cones) % 8:
                t = tuple(rnd.randint(-6, 6) for _ in range(3))
                if math.gcd(*t) == 1:
                    cones.append((GoodCone(cone.normals[:-1] + (t,)), k))
    cones += [(cone, len(cone) - 3) for cone in (random_good_cone(rnd, cuts=4) for _ in range(60))]
    verdicts = [verify_obstructed_conditions(cone, k) for cone, k in cones]
    assert verdicts == [_old_verify_obstructed_conditions(cone, k) for cone, k in cones]
    assert True in verdicts and False in verdicts
