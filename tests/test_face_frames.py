"""Frame changes of the lens-space face data go through one Cramer kernel,
`exactnum.cramer_rows`, and the reversed Euler residue is read from the
adjacent triple without a mirrored cone.

Test-local oracles keep the routes these replaced: the adjugate inverse of
a unimodular frame, the per-call-site coordinate formulas, the mirrored
cone for the reversed reading, and the Fraction arithmetic of edge isotropy
subgroups and their GL(2,Z) images, which the graph layer now does on
integer residues.  Every value must agree on
`example_family(2..64)`, `obstructed_family(k <= 32, seeds 0-2)`, 300
conftest random cones with rank-2 Reeb vectors, and an SL(3,Z) image of
each pair.

All reads of a face's adjacent triple go through `cone.py`, whose
convexity check and witness fetch are separate steps.  On cones that are
not good, every public face reader must return or raise exactly as the
parent routes did: `gluing_matrix` never checks convexity.
"""

import math
import random
from fractions import Fraction
from itertools import permutations

import pytest

import goodcones.cone as cone_module
import goodcones.exactnum as exactnum_module
import goodcones.graph as graph_module
from goodcones.cone import (
    GoodCone,
    InvalidCone,
    can_blowdown_to_orbit,
    face_invariants,
    gluing_matrix,
)
from goodcones.construct import example_family, obstructed_family
from goodcones.exactnum import (
    DegenerateInput,
    QuadNumber,
    cramer_rows,
    cross,
    cross_primitive,
    delzant_witness,
    det3,
    dot,
    solve_dot_one,
)
from goodcones.graph import (
    FiniteCyclicSubgroup,
    _edge_isotropy,
    extract_graph,
    reversed_euler_residue,
)
from goodcones.reeb import (
    _lie_g_integers,
    isotropy_profile,
    reeb_lie_g_coords,
)

from conftest import (
    mat_from_columns,
    mat_mul,
    random_admissible_rank2_reeb,
    random_good_cone,
    random_sl3,
    sl3_image,
)

# ---------------------------------------------------------------------------
# Oracles: the routes as they were before the Cramer kernel.
# ---------------------------------------------------------------------------


def mat_det(m):
    return det3(*zip(*m))


def mat_adjugate(m):
    cof = [[0] * 3 for _ in range(3)]
    for i in range(3):
        for j in range(3):
            sub = [[m[r][c] for c in range(3) if c != j] for r in range(3) if r != i]
            minor = sub[0][0] * sub[1][1] - sub[0][1] * sub[1][0]
            cof[i][j] = (-1) ** (i + j) * minor
    return tuple(tuple(cof[j][i] for j in range(3)) for i in range(3))


def mat_inverse_unimodular(m):
    d = mat_det(m)
    assert d in (1, -1)
    adj = mat_adjugate(m)
    return adj if d == 1 else tuple(tuple(-x for x in row) for row in adj)


def old_face_invariants(cone, i):
    n1, n2, n3 = cone.normal(i - 1), cone.normal(i), cone.normal(i + 1)
    b = det3(n1, n2, n3)
    l2 = delzant_witness(n2, n3)
    l1 = delzant_witness(n1, n2)
    f = det3(n1, n3, l2) % b
    left = mat_from_columns(l2, n3, n2)
    right = mat_from_columns(l1, n1, n2)
    return b, f, mat_mul(mat_inverse_unimodular(left), right)


def old_gluing_matrix(cone, i):
    ni, ni1, ni2 = cone.normal(i), cone.normal(i + 1), cone.normal(i + 2)
    left = mat_from_columns(ni, delzant_witness(ni, ni1), ni1)
    right = mat_from_columns(ni2, delzant_witness(ni1, ni2), ni1)
    return mat_mul(mat_inverse_unimodular(left), right)


def old_reversed_euler_residue(cone, face):
    k = len(cone)
    mirror = GoodCone(tuple((n[0], n[1], -n[2]) for n in reversed(cone.normals)))
    return face_invariants(mirror, k - 1 - (face % k)).f


def old_lie_g_coords(profile, v):
    u1, u2 = profile.lieG_basis
    v0 = profile.v0
    den = det3(u1, u2, v0)
    return Fraction(det3(v, u2, v0), den), Fraction(det3(u1, v, v0), den)


def old_reeb_lie_g_coords(profile, R):
    u1, u2 = profile.lieG_basis
    v0 = profile.v0
    den = det3(u1, u2, v0)
    first = (det3(R.p, u2, v0), det3(R.q, u2, v0))
    second = (det3(u1, R.p, v0), det3(u1, R.q, v0))
    return tuple(
        QuadNumber(Fraction(p, den), Fraction(q, den), R.d) for p, q in (first, second)
    )


def old_edge_isotropy(profile, normals, face):
    n = normals[face % len(normals)]
    s = dot(profile.v0, n)
    k = abs(s)
    sigma = 1 if s > 0 else -1
    m = solve_dot_one(profile.v0)
    g_vec = tuple(Fraction(n[j], k) - sigma * m[j] for j in range(3))
    u1, u2 = profile.lieG_basis
    den = det3(u1, u2, profile.v0)
    a = Fraction(det3(g_vec, u2, profile.v0), den)
    b = Fraction(det3(u1, g_vec, profile.v0), den)
    return subgroup_from_fractions(k, (a, b)).canonical()


def subgroup_from_fractions(n, generator):
    """The subgroup of order n generated by a pair of Fractions whose
    denominators divide n, built from its integer residues."""
    assert all(n % x.denominator == 0 for x in generator)
    return FiniteCyclicSubgroup(n, tuple(x.numerator * (n // x.denominator) for x in generator))


def old_canonical(sub):
    """`FiniteCyclicSubgroup.canonical` as it read the Fraction generator and
    built its result through the checked constructor."""
    n = sub.order
    a, b = (x.numerator * (n // x.denominator) for x in sub.generator)
    e = math.gcd(a, b, n)
    m = n // e
    a, b = a // e, b // e
    g = math.gcd(a, m)
    h = m // g
    j0 = pow(a // g, -1, h)
    c = j0 * b % h
    q = (j0 * b % m - c) // h
    b_inv = pow(b, -1, g)
    r = 0
    while math.gcd(j0 + h * ((r - q) * b_inv % g), m) != 1:
        r += 1
    return subgroup_from_fractions(n, (Fraction(g % m, m), Fraction(c + h * r, m)))


def old_transformed(sub, a):
    """`FiniteCyclicSubgroup.transformed` by Fraction arithmetic mod 1."""
    g = sub.generator
    image = (
        (a[0][0] * g[0] + a[0][1] * g[1]) % 1,
        (a[1][0] * g[0] + a[1][1] * g[1]) % 1,
    )
    return old_canonical(subgroup_from_fractions(sub.order, image))


def random_gl2(rnd, shears=6):
    """A product of random integer shears, times a reflection half the time."""
    a = ((1, 0), (0, 1)) if rnd.random() < 0.5 else ((0, 1), (1, 0))
    for _ in range(shears):
        t = rnd.randint(-40, 40)
        e = ((1, t), (0, 1)) if rnd.random() < 0.5 else ((1, 0), (t, 1))
        a = tuple(
            tuple(sum(a[i][k] * e[k][j] for k in range(2)) for j in range(2))
            for i in range(2)
        )
    return a


# ---------------------------------------------------------------------------
# Corpus.
# ---------------------------------------------------------------------------


def _pairs():
    rnd = random.Random(20261018)
    pairs = [(f"example-{k}", *example_family(k)) for k in range(2, 65)]
    pairs += [
        (f"obstructed-{k}-s{s}", *obstructed_family(k, seed=s))
        for k in range(2, 33)
        for s in range(3)
    ]
    for n in range(300):
        cone = random_good_cone(rnd, cuts=n % 5)
        reeb = random_admissible_rank2_reeb(rnd, cone, d=(2, 3, 5)[n % 3])
        pairs.append((f"random-{n}", cone, reeb))
    images = [
        (f"{name}-sl3", *sl3_image(random_sl3(rnd), cone, reeb))
        for name, cone, reeb in pairs
    ]
    return pairs + images


@pytest.fixture(scope="module")
def pairs():
    return _pairs()


# ---------------------------------------------------------------------------
# Face data.
# ---------------------------------------------------------------------------


def test_face_invariants_and_gluing_match_adjugate_oracle(pairs):
    faces = 0
    for name, cone, _ in pairs:
        for i in range(len(cone)):
            inv = face_invariants(cone, i)
            b, f, gluing = old_face_invariants(cone, i)
            assert (inv.b, inv.f, inv.gluing) == (b, f, gluing), (name, i)
            assert gluing_matrix(cone, i) == old_gluing_matrix(cone, i), (name, i)
            assert can_blowdown_to_orbit(cone, i) == (math.gcd(b, f) == 1), (name, i)
            faces += 1
    assert faces > 5000


def test_reversed_euler_residue_matches_mirrored_cone(pairs):
    for name, cone, _ in pairs:
        for i in range(len(cone)):
            got = reversed_euler_residue(cone, i)
            assert got == old_reversed_euler_residue(cone, i), (name, i)


def test_reversed_euler_residue_builds_no_cone_and_scans_no_witness(monkeypatch):
    cone, _ = obstructed_family(8, seed=1)
    expected = [old_reversed_euler_residue(cone, i) for i in range(len(cone))]

    def forbidden(*args, **kwargs):
        raise AssertionError("reversed_euler_residue left the adjacent triple")

    monkeypatch.setattr(GoodCone, "__init__", forbidden)
    forbid_witness_scans(monkeypatch, forbidden)
    assert [reversed_euler_residue(cone, i) for i in range(len(cone))] == expected


def forbid_witness_scans(monkeypatch, forbidden):
    """Make `face_invariants` and `delzant_witness` raise wherever they are
    bound; the graph module no longer imports `face_invariants`."""
    monkeypatch.setattr(cone_module, "face_invariants", forbidden)
    monkeypatch.setattr(graph_module, "face_invariants", forbidden, raising=False)
    monkeypatch.setattr(cone_module, "delzant_witness", forbidden)
    monkeypatch.setattr(exactnum_module, "delzant_witness", forbidden)


@pytest.mark.parametrize("k", [2, 5, 12])
def test_fat_vertices_read_the_adjacent_triple_without_witness_scans(monkeypatch, k):
    cone, reeb = example_family(k)
    expected = extract_graph(cone, reeb)
    flats = sorted(isotropy_profile(cone, reeb).flats)
    assert [v.normal_euler for v in expected.fat_vertices] == [
        (face_invariants(cone, f).b, face_invariants(cone, f).f) for f in flats
    ]

    def forbidden(*args, **kwargs):
        raise AssertionError("a fat vertex scanned for a Delzant witness")

    forbid_witness_scans(monkeypatch, forbidden)
    assert extract_graph(cone, reeb) == expected


def test_euler_residues_do_not_depend_on_the_witness(pairs):
    rnd = random.Random(5)
    for name, cone, _ in pairs[::7]:
        for i in range(len(cone)):
            n1, n2, n3 = cone.normal(i - 1), cone.normal(i), cone.normal(i + 1)
            b = det3(n1, n2, n3)
            f = face_invariants(cone, i).f
            f_rev = reversed_euler_residue(cone, i)
            l_fwd, l_rev = delzant_witness(n2, n3), delzant_witness(n1, n2)
            for _ in range(4):
                s, t = rnd.randint(-9, 9), rnd.randint(-9, 9)
                fwd = tuple(l_fwd[j] + s * n2[j] + t * n3[j] for j in range(3))
                rev = tuple(l_rev[j] + s * n1[j] + t * n2[j] for j in range(3))
                assert det3(n2, n3, fwd) == 1 and det3(n1, n2, rev) == 1
                assert det3(n1, n3, fwd) % b == f, (name, i)
                assert det3(n1, n3, rev) % b == f_rev, (name, i)


# ---------------------------------------------------------------------------
# Error parity on cones that are not good.
# ---------------------------------------------------------------------------

# Every face of each cone fails goodness somewhere: a zero convexity
# determinant (faces 1 and 2), a non-Delzant pair (n^0, n^1) next to
# non-convex triples, and a non-Delzant pair (n^1, n^2) with every triple
# convex.
NOT_GOOD = {
    "non-convex": GoodCone(((1, 0, 0), (0, 1, 0), (1, 1, 0), (0, 0, 1))),
    "non-delzant": GoodCone(((1, 0, 0), (-1, 0, 2), (0, 1, 0), (0, 0, 1))),
    "convex-non-delzant": GoodCone(((1, 0, 0), (0, 1, 0), (2, 1, 2))),
}


def parent_face_invariants(cone, i):
    """`face_invariants` with the checks it made before the face builder:
    convexity first, then both witnesses, then their None test."""
    n1, n2, n3 = cone.normal(i - 1), cone.normal(i), cone.normal(i + 1)
    if det3(n1, n2, n3) <= 0:
        raise InvalidCone("not a convex triple")
    witnesses = (delzant_witness(n2, n3), delzant_witness(n1, n2))
    if None in witnesses:
        raise InvalidCone("no Delzant witness")
    return old_face_invariants(cone, i)


def parent_gluing_matrix(cone, i):
    """`gluing_matrix` as it was: both witnesses, no convexity check."""
    ni, ni1, ni2 = cone.normal(i), cone.normal(i + 1), cone.normal(i + 2)
    if None in (delzant_witness(ni, ni1), delzant_witness(ni1, ni2)):
        raise InvalidCone("not Delzant-adjacent")
    return old_gluing_matrix(cone, i)


def parent_can_blowdown_to_orbit(cone, i):
    b, f, _ = parent_face_invariants(cone, i)
    return math.gcd(b, f) == 1


def parent_reversed_euler_residue(cone, i):
    """The graph module's own triple reading: b from n1 x n2, then f and
    f_rev from `solve_dot_one` witnesses, in that order."""
    n1, n2, n3 = cone.normal(i - 1), cone.normal(i), cone.normal(i + 1)
    c = cross(n1, n2)
    b = dot(c, n3)
    if b <= 0:
        raise InvalidCone("not a convex triple")
    _, f_rev = (det3(n1, n3, solve_dot_one(w)) % b for w in (cross(n2, n3), c))
    return f_rev


def outcome(fn, cone, i):
    """What the call returns, or the type of the exception it raises."""
    try:
        return "returns", fn(cone, i)
    except Exception as exc:  # the type is the observable compared
        return "raises", type(exc)


def face_triple(inv):
    return (inv.b, inv.f, inv.gluing)


READERS = (
    ("face_invariants", lambda c, i: face_triple(face_invariants(c, i)), parent_face_invariants),
    ("gluing_matrix", gluing_matrix, parent_gluing_matrix),
    ("can_blowdown_to_orbit", can_blowdown_to_orbit, parent_can_blowdown_to_orbit),
    ("reversed_euler_residue", reversed_euler_residue, parent_reversed_euler_residue),
)


@pytest.mark.parametrize("name", sorted(NOT_GOOD))
def test_face_readers_return_or_raise_as_the_parent_routes(name):
    cone = NOT_GOOD[name]
    for i in range(-1, len(cone) + 1):
        for reader, got, parent in READERS:
            assert outcome(got, cone, i) == outcome(parent, cone, i), (name, reader, i)


def test_not_good_corpus_separates_convexity_from_witnesses():
    """The corpus must tell the two checks apart: `gluing_matrix` returns
    on a face whose successor fails convexity, and each failure type shows
    up."""
    seen = set()
    gluing_on_non_convex = 0
    for cone in NOT_GOOD.values():
        for i in range(len(cone)):
            for _, _, parent in READERS:
                kind, value = outcome(parent, cone, i)
                seen.add(value if kind == "raises" else kind)
            b = det3(cone.normal(i), cone.normal(i + 1), cone.normal(i + 2))
            if b <= 0 and outcome(parent_gluing_matrix, cone, i)[0] == "returns":
                gluing_on_non_convex += 1
    assert seen == {"returns", InvalidCone, DegenerateInput}
    assert gluing_on_non_convex >= 2


# ---------------------------------------------------------------------------
# Lie(G) coordinates.
# ---------------------------------------------------------------------------


def test_lie_g_coords_and_edge_isotropy_match_oracles(pairs):
    edges = flats = 0
    for name, cone, reeb in pairs:
        profile = isotropy_profile(cone, reeb)
        # face_slope and the pr2 width route depend on which complement is used
        assert profile.complement == solve_dot_one(profile.v0), name
        assert reeb_lie_g_coords(profile, reeb) == old_reeb_lie_g_coords(profile, reeb)
        for i in range(len(cone)):
            n = cone.normal(i)
            # Lie(G) vectors: the vertex circles and the flat normals
            y = cross_primitive(profile.v0, cross_primitive(n, cone.normal(i + 1)))
            assert _lie_g_integers(profile, y) == old_lie_g_coords(profile, y), (name, i)
            if i in profile.flats:
                assert _lie_g_integers(profile, n) == old_lie_g_coords(profile, n), (name, i)
                flats += 1
            if profile.k[i] >= 2:
                got = _edge_isotropy(profile, cone.normals, i)
                assert got == old_edge_isotropy(profile, cone.normals, i), (name, i)
                edges += 1
    assert edges > 1000 and flats > 500


def test_integer_transformed_matches_fraction_route_on_edges(pairs):
    rnd = random.Random(11)
    edges = 0
    for name, cone, reeb in pairs[::3]:
        profile = isotropy_profile(cone, reeb)
        for i in range(len(cone)):
            if profile.k[i] >= 2:
                sub = _edge_isotropy(profile, cone.normals, i)
                a = random_gl2(rnd)
                assert sub.transformed(a) == old_transformed(sub, a), (name, i, a)
                edges += 1
    assert edges > 300


def test_integer_transformed_matches_fraction_route_on_random_subgroups():
    rnd = random.Random(12)
    nontrivial = 0
    for _ in range(400):
        # n = e * m with a common factor e of both residues, so gcd(a, b, n) >= e
        e = rnd.choice((1, 1, 2, 3, 4, 6, 12, 30))
        m = rnd.choice((rnd.randint(1, 60), rnd.randint(2, 10**6), 2310, 30030))
        n = e * m
        x, y = rnd.randrange(m), rnd.randrange(m)
        sub = FiniteCyclicSubgroup(n, (e * x, e * y))
        a = random_gl2(rnd)
        got = sub.transformed(a)
        assert got == old_transformed(sub, a), (n, e * x, e * y, a)
        assert got.canonical() == got
        assert all(isinstance(v, Fraction) and 0 <= v < 1 for v in got.generator)
        assert sub.canonical() == old_canonical(sub), (n, e * x, e * y)
        nontrivial += got.residues != (0, 0)
    # a constructor that lost the residues would make every subgroup trivial
    assert nontrivial > 350


# ---------------------------------------------------------------------------
# The kernel.
# ---------------------------------------------------------------------------


def leibniz_det(cols):
    """det of the 3x3 matrix with the given columns, by the permutation sum."""
    total = 0
    for perm in permutations(range(3)):
        inversions = sum(perm[a] > perm[b] for a in range(3) for b in range(a + 1, 3))
        term = (-1) ** inversions
        for row, col in enumerate(perm):
            term *= cols[col][row]
        total += term
    return total


def fraction_cramer(cols, v):
    """Coordinates of v in the frame, by Cramer's rule over Fractions."""
    d = leibniz_det(cols)
    return tuple(
        Fraction(leibniz_det(cols[:j] + (v,) + cols[j + 1 :]), d) for j in range(3)
    )


def test_cramer_rows_solve_frames_like_fraction_cramer():
    rnd = random.Random(11)
    unimodular = larger = 0
    while unimodular < 300 or larger < 300:
        if unimodular < 300:
            cols = tuple(zip(*random_sl3(rnd, shears=rnd.randint(1, 9))))
            if rnd.random() < 0.5:
                cols = (tuple(-x for x in cols[0]),) + cols[1:]
        else:
            cols = tuple(tuple(rnd.randint(-40, 40) for _ in range(3)) for _ in range(3))
        d = leibniz_det(cols)
        if d == 0:
            continue
        if abs(d) == 1:
            unimodular += 1
        else:
            larger += 1
        rows = cramer_rows(*cols)
        assert dot(cols[0], rows[0]) == d
        for _ in range(3):
            v = tuple(rnd.randint(-10**6, 10**6) for _ in range(3))
            coords = tuple(Fraction(dot(r, v), d) for r in rows)
            assert coords == fraction_cramer(cols, v)
            if abs(d) == 1:
                assert all(x.denominator == 1 for x in coords)
