import math
from fractions import Fraction

import pytest

import goodcones.cone as cone_module
from goodcones.cone import (
    GoodCone,
    ValidityReport,
    _frame_change,
    _is_good,
    can_blowdown_to_orbit,
    edge_ray,
    edge_rays,
    face_invariants,
    gluing_matrix,
    load_cone,
    validate,
)
from goodcones.construct import close_chain_normals, example_family, obstructed_family
from goodcones.exactnum import (
    DegenerateInput,
    cramer_rows,
    cross,
    cross_primitive,
    delzant_witness,
    det3,
    dot,
    is_delzant_pair,
    is_primitive,
    primitive_part,
)

from goodcones.graph import GermOfChain
from goodcones.surgery import CutSpec, replace_range

from conftest import (
    SIMPLICIAL,
    mat_columns,
    mat_from_columns,
    mat_mul,
    random_gl3,
    random_good_cone,
)

FAMILY2 = load_cone([(1, 0, 1), (1, 1, 1), (1, 2, 3), (1, 3, 7), (1, 1, 4)])
FAMILY3 = load_cone([(1, 0, 1), (1, 1, 1), (1, 2, 3), (1, 3, 7), (1, 4, 13), (1, 1, 5)])


def test_validate_examples():
    assert validate(SIMPLICIAL).is_good
    assert validate(FAMILY2).is_good
    bad = GoodCone(((1, 0, 0), (0, 1, 0), (0, 0, -1)))
    report = validate(bad)
    assert not report.is_good
    assert any(kind == "convexity-det" for kind, _ in report.failures)


def test_validate_needs_three_normals():
    with pytest.raises(DegenerateInput):
        validate(GoodCone(((1, 0, 0), (0, 1, 0))))


def test_load_cone_needs_three_normals():
    with pytest.raises(DegenerateInput, match=r"^a cone needs at least 3 normals$"):
        load_cone([(1, 0, 0), (0, 1, 0)])


def test_load_cone_reorients_with_warning():
    with pytest.warns(UserWarning):
        cone = load_cone([(1, 0, 0), (0, 1, 0), (0, 0, -1)])
    assert validate(cone).is_good  # the reversed list is a genuine cone


def test_constructor_rejects_non_primitive():
    with pytest.raises(DegenerateInput):
        GoodCone(((2, 0, 0), (0, 1, 0), (0, 0, 1)))


# Each site that takes integer normals reads them with `exactnum.int_triple`;
# `bad` goes where the site reads a normal.
NORMAL_SITES = {
    "GoodCone": lambda bad: GoodCone((bad, (0, 1, 0), (0, 0, 1))),
    "load_cone": lambda bad: load_cone([bad, [0, 1, 0], [0, 0, 1]]),
    "CutSpec": lambda bad: CutSpec(bad),
    "replace_range": lambda bad: replace_range(SIMPLICIAL, [0], bad),
    "GermOfChain": lambda bad: GermOfChain(
        normals=(bad, (0, 1, 0), (0, 0, 1)), reeb=example_family(2)[1]
    ),
    "close_chain_normals": lambda bad: close_chain_normals([bad, (0, 1, 0)]),
}


@pytest.mark.parametrize("site", sorted(NORMAL_SITES))
@pytest.mark.parametrize(
    "bad", [(1.9, 0, 0), (1.5, 1, 1), (1.0, 0, 0), (True, 0, 0), (Fraction(1), 0, 0), [0, 0.5, 1]]
)
def test_normal_entries_must_be_int(site, bad):
    """A float, bool or Fraction entry raises TypeError instead of being
    truncated: (1.9, 0, 0) is not read as (1, 0, 0)."""
    with pytest.raises(TypeError, match="must be int"):
        NORMAL_SITES[site](bad)


@pytest.mark.parametrize("site", sorted(NORMAL_SITES))
@pytest.mark.parametrize("bad", [(1, 0), (1, 0, 0, 0), ()])
def test_normals_must_have_three_entries(site, bad):
    with pytest.raises(DegenerateInput, match="three entries"):
        NORMAL_SITES[site](bad)



def oracle_is_good(cone):
    """LP-free face-lattice oracle: enumerate candidate edge rays from all
    normal pairs, keep those inside every half space, and require the
    incidence structure to be the cyclic one, plus Delzant adjacency."""
    normals = cone.normals
    k = len(normals)
    rays = {}
    for i in range(k):
        for j in range(i + 1, k):
            c = cross(normals[i], normals[j])
            if c == (0, 0, 0):
                return False  # parallel normals never bound a good cone
            for sign in (1, -1):
                r = primitive_part(tuple(sign * x for x in c))
                if all(dot(n, r) >= 0 for n in normals):
                    inc = frozenset(m for m in range(k) if dot(normals[m], r) == 0)
                    rays[r] = inc
    if len(rays) != k:
        return False
    adjacency = set()
    total = (0, 0, 0)
    for r, inc in rays.items():
        if len(inc) != 2:
            return False
        adjacency.add(inc)
        total = tuple(a + b for a, b in zip(total, r))
    expected = {frozenset({i, (i + 1) % k}) for i in range(k)}
    if adjacency != expected:
        return False
    if any(dot(n, total) <= 0 for n in normals):
        return False  # no interior
    if det3(normals[0], normals[1], normals[2]) < 0:
        return False  # cycle traversed against the orientation convention
    return all(is_delzant_pair(normals[i], normals[(i + 1) % k]) for i in range(k))


def quadratic_report(cone):
    """The former O(k^2) `validate`: every failing triple (n^i, n^{i+1},
    n^j) in order, then every adjacent pair that is not Delzant."""
    normals = cone.normals
    k = len(normals)
    failures, delzant = [], []
    for i in range(k):
        c = cross(normals[i], normals[(i + 1) % k])
        for j, n in enumerate(normals):
            d = dot(c, n)
            if d <= 0 and j not in (i, (i + 1) % k):
                failures.append(("face-order" if d == 0 else "convexity-det", (i, j)))
        if not is_primitive(c):
            delzant.append(("delzant-pair", (i,)))
    failures += delzant
    return ValidityReport(is_good=not failures, failures=tuple(failures))


# Star polygons {5/2}, {7/2}, {7/3} and {9/2} on the plane z = 1: every
# adjacent pair is Delzant, every consecutive triple is convex and h . n^j > 0
# for h the sum of the n^i x n^{i+1}, but those wind around h 2 or 3 times.
STARS = [
    [(2, 1, 1), (-2, 0, 1), (1, -2, 1), (0, 2, 1), (-1, -1, 1)],
    [(4, 3, 1), (-4, 2, 1), (-1, -5, 1), (5, 0, 1), (-1, 5, 1), (-4, -2, 1), (3, -4, 1)],
    [(1, 1, 1), (-2, -1, 1), (2, 0, 1), (-2, 1, 1), (1, -1, 1), (0, 2, 1), (-1, -2, 1)],
    [
        (4, 4, 1), (-3, 5, 1), (-6, -2, 1), (1, -6, 1), (6, 0, 1),
        (1, 6, 1), (-6, 2, 1), (-3, -5, 1), (5, -4, 1),
    ],
]


# (a) and (b) hold and the c_i cross from lower to upper once, but some
# h . n^j <= 0: without (c) these would pass.
NO_POSITIVE_H = [
    [(-2, -1, -2), (1, 3, 0), (1, 0, -1), (1, 3, -2), (2, -3, 3)],
    [(5, 3, -5), (3, -1, 0), (-1, 0, 0), (-2, -5, -2), (-5, -4, 2)],
    [(4, -5, 5), (-1, -5, -3), (1, 0, -5), (2, -1, 3), (3, -3, 1), (-2, 5, -2)],
    [(1, 0, 0), (-2, 1, 0), (-1, 0, 1), (2, 1, -1), (-1, 2, 1)],
]


def test_validate_agrees_with_face_lattice_oracle(rnd):
    corpus = [SIMPLICIAL, FAMILY2, FAMILY3]
    for _ in range(25):
        corpus.append(random_good_cone(rnd, cuts=rnd.randint(0, 2)))
    corpus += [example_family(k)[0] for k in (2, 5, 9)]
    corpus += [obstructed_family(k, seed)[0] for k, seed in ((2, 0), (3, 1), (4, 2))]
    for star in STARS:
        k = len(star)
        pairs = [(star[i], star[(i + 1) % k]) for i in range(k)]
        assert all(is_delzant_pair(a, b) for a, b in pairs)
        assert all(det3(a, b, star[(i + 2) % k]) > 0 for i, (a, b) in enumerate(pairs))
        h = tuple(map(sum, zip(*[cross(a, b) for a, b in pairs])))
        assert all(dot(h, n) > 0 for n in star)
    mutated = [GoodCone(tuple(normals)) for normals in STARS + NO_POSITIVE_H]
    for cone in corpus[:15]:
        normals = list(cone.normals)
        which = rnd.randrange(3)
        if which == 0:
            i = rnd.randrange(len(normals))
            normals[i] = tuple(-x for x in normals[i])
        elif which == 1 and len(normals) >= 4:
            normals[1], normals[2] = normals[2], normals[1]
        else:
            normals[rnd.randrange(len(normals))] = (1, rnd.randint(-3, 3), rnd.randint(-3, 3))
        try:
            mutated.append(GoodCone(tuple(normals)))
        except DegenerateInput:
            continue
    for cone in corpus:
        normals = list(cone.normals)
        shuffled = normals[:]
        rnd.shuffle(shuffled)
        deleted = normals[:]
        del deleted[rnd.randrange(len(deleted))]
        swapped = normals[:]
        i, j = rnd.sample(range(len(swapped)), 2)
        swapped[i], swapped[j] = swapped[j], swapped[i]
        # doubled: (a)-(c) hold and the c_i wind twice
        for variant in (normals * 2, shuffled, normals[::-1], deleted, swapped):
            mutated.append(GoodCone(tuple(variant)))
    for cone in corpus + mutated:
        if len(cone) < 3:
            continue
        report = validate(cone)
        assert report.is_good == oracle_is_good(cone), cone.normals
        assert report == quadratic_report(cone), cone.normals
        assert _is_good(cone.normals) == report.is_good, cone.normals


def test_edge_ray_examples():
    assert edge_ray(SIMPLICIAL, 0) == (0, 0, 1)
    assert edge_ray(FAMILY2, 0) == (-1, 0, 1)
    for cone in (SIMPLICIAL, FAMILY2, FAMILY3):
        k = len(cone)
        for i, ray in enumerate(edge_rays(cone)):
            assert dot(cone.normal(i), ray) == 0
            assert dot(cone.normal(i + 1), ray) == 0
            for j in range(k):
                if j in (i, (i + 1) % k):
                    continue
                assert dot(cone.normal(j), ray) > 0


def test_face_invariants_examples():
    inv = face_invariants(FAMILY2, 1)
    assert (inv.b, inv.f) == (2, 0)
    for i in range(3):
        inv = face_invariants(SIMPLICIAL, i)
        assert (inv.b, inv.f) == (1, 0)
    assert face_invariants(FAMILY3, 2).b == 2


def test_face_invariants_witness_independent(rnd):
    cone = FAMILY2
    for i in range(len(cone)):
        base = face_invariants(cone, i)
        n2, n3 = cone.normal(i), cone.normal(i + 1)
        l2 = delzant_witness(n2, n3)
        for _ in range(100):
            a, b = rnd.randint(-5, 5), rnd.randint(-5, 5)
            other = tuple(l2[j] + a * n2[j] + b * n3[j] for j in range(3))
            assert det3(n2, n3, other) == 1
            f_other = det3(cone.normal(i - 1), n3, other) % base.b
            assert f_other == base.f


def test_face_invariants_structure(rnd):
    for _ in range(10):
        cone = random_good_cone(rnd, cuts=rnd.randint(0, 2))
        for i in range(len(cone)):
            inv = face_invariants(cone, i)
            assert inv.b >= 1 and 0 <= inv.f < max(inv.b, 1)
            assert abs(inv.gluing[0][1]) == inv.b
            assert (inv.gluing[2][1] - inv.f) % inv.b == 0
            heegaard = (
                inv.gluing[0][0] * inv.gluing[1][1]
                - inv.gluing[0][1] * inv.gluing[1][0]
            )
            assert heegaard == -1


def test_can_blowdown_examples():
    assert can_blowdown_to_orbit(FAMILY2, 1) is False
    assert can_blowdown_to_orbit(SIMPLICIAL, 0) is True


def test_gluing_matrix_shape_and_roundtrip(rnd):
    # canonical-witness shape on a split corner: third column is e3 and the
    # defining equation reconstructs the left side exactly
    for cone in (SIMPLICIAL, FAMILY2, FAMILY3):
        for i in range(len(cone)):
            t = gluing_matrix(cone, i)
            assert tuple(row[2] for row in t) == (0, 0, 1)
            det2 = t[0][0] * t[1][1] - t[0][1] * t[1][0]
            assert det2 == -1  # det T = -1: both frames have determinant -1 vs +1
            ni, ni1, ni2 = cone.normal(i), cone.normal(i + 1), cone.normal(i + 2)
            li = delzant_witness(ni, ni1)
            li1 = delzant_witness(ni1, ni2)
            left = mat_from_columns(ni, li, ni1)
            right = mat_mul(left, t)
            assert mat_columns(right) == (ni2, li1, ni1)


def test_gluing_matrix_shared_factor_family3():
    t = gluing_matrix(FAMILY3, 1)
    c1, e1 = t[1][0], t[2][0]
    assert math.gcd(abs(c1), abs(e1)) % 2 == 0


# ---------------------------------------------------------------------------
# Edge rays kept on the cone; the frame change on scalars.
# ---------------------------------------------------------------------------


def test_edge_rays_equal_cross_primitive_of_each_pair(rnd):
    cones = [SIMPLICIAL, FAMILY2, FAMILY3] + [random_good_cone(rnd, cuts=n % 5) for n in range(40)]
    cones += [example_family(k)[0] for k in (2, 7, 64)] + [obstructed_family(6)[0]]
    for cone in cones:
        fresh = GoodCone(cone.normals)
        rays = edge_rays(fresh)
        assert rays == tuple(
            cross_primitive(cone.normal(i), cone.normal(i + 1)) for i in range(len(cone))
        )
        assert edge_rays(fresh) is rays  # the cone's own tuple
        assert [edge_ray(fresh, i) for i in range(-2, len(cone) + 2)] == [
            rays[i % len(cone)] for i in range(-2, len(cone) + 2)
        ]


def test_edge_rays_are_built_once_per_cone_across_interleaved_walks(monkeypatch):
    cones = [GoodCone(f(12)[0].normals) for f in (example_family, obstructed_family)]
    built = []
    original = cone_module._ray_table
    monkeypatch.setattr(
        cone_module, "_ray_table", lambda normals: built.append(normals) or original(normals)
    )
    for i in range(15):
        for cone in cones:
            edge_ray(cone, i)
            edge_rays(cone)
    assert built == [cone.normals for cone in cones]


def test_edge_rays_stay_outside_fields_eq_hash_and_repr():
    cone = GoodCone(FAMILY3.normals)
    twin = GoodCone(cone.normals)
    before = (GoodCone._fields, cone._fields, hash(cone), repr(cone))
    edge_rays(cone)
    assert cone._rays is not None and twin._rays is None
    assert (GoodCone._fields, cone._fields, hash(cone), repr(cone)) == before
    assert GoodCone._fields == ("normals",)
    assert cone == twin and hash(cone) == hash(twin) and repr(cone) == repr(twin)


def test_a_parallel_adjacent_pair_raises_and_keeps_nothing():
    bad = GoodCone(((1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1)))
    with pytest.raises(DegenerateInput) as direct:
        cross_primitive((0, 1, 0), (0, -1, 0))
    for call in (lambda: edge_rays(bad), lambda: edge_ray(bad, 1)):
        with pytest.raises(DegenerateInput) as kept:
            call()
        assert str(kept.value) == str(direct.value) == "parallel vectors (0, 1, 0), (0, -1, 0)"
    assert bad._rays is None


def old_frame_change(left, right):
    """`_frame_change` as it was, from `cramer_rows` and dot products."""
    rows = cramer_rows(*left)
    d = dot(left[0], rows[0])
    assert d in (1, -1), f"frame determinant {d} is not +-1"
    return tuple([tuple([d * dot(r, c) for c in right]) for r in rows])


def test_frame_change_matches_the_old_cramer_route(rnd):
    for _ in range(500):
        left = mat_columns(random_gl3(rnd, shears=rnd.randint(1, 12)))
        right = tuple(
            tuple(rnd.randint(-(1 << 70), 1 << 70) for _ in range(3)) for _ in range(3)
        )
        t = _frame_change(left, right)
        assert t == old_frame_change(left, right)
        assert mat_columns(mat_mul(mat_from_columns(*left), t)) == right
    for left in (((2, 0, 0), (0, 1, 0), (0, 0, 1)), ((1, 2, 3), (2, 4, 6), (0, 0, 1))):
        for route in (_frame_change, old_frame_change):
            with pytest.raises(AssertionError, match="^frame determinant -?[02] is not"):
                route(left, left)
