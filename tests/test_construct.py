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
from goodcones.exactnum import cross_primitive, dot, is_delzant_pair
from goodcones.reeb import is_admissible, isotropy_profile, rank_of

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
