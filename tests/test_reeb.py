import math
from fractions import Fraction

import pytest

from goodcones.cone import edge_rays, load_cone
from goodcones.construct import example_family, obstructed_family
from goodcones.euler import build_identity_data, verify_global_identity
from goodcones.exactnum import (
    DegenerateInput,
    det3,
    dot,
    least_denominator_of_pairs,
    mat_vec,
    quad,
)
from goodcones.graph import extract_graph
from goodcones.reeb import (
    InadmissibleReeb,
    RankError,
    arc_decomposition,
    choose_transverse_circle,
    closure_identity_residual,
    face_slope,
    is_admissible,
    isotropy_profile,
    moment_polygon,
    rank_of,
    reeb_from_vectors,
    slope_change,
    width_of_flat_face,
)

from conftest import (
    SIMPLICIAL,
    random_admissible_rank2_reeb,
    random_good_cone,
    random_sl3,
)

FAMILY2 = load_cone([(1, 0, 1), (1, 1, 1), (1, 2, 3), (1, 3, 7), (1, 1, 4)])
R_FAMILY2 = reeb_from_vectors((1, 0, 1), (1, 3, 7))


def test_rank_examples():
    assert rank_of(reeb_from_vectors((1, 2, 3), (0, 0, 0))) == 1
    assert rank_of(R_FAMILY2) == 2
    assert rank_of(reeb_from_vectors((2, 4, 6), (2, 4, 6))) == 1


def test_rank_rejects_zero():
    with pytest.raises(Exception):
        reeb_from_vectors((0, 0, 0), (0, 0, 0))


def test_admissibility_examples():
    assert is_admissible(SIMPLICIAL, reeb_from_vectors((1, 1, 1), (1, 1, 1)))
    assert is_admissible(FAMILY2, R_FAMILY2)
    assert not is_admissible(SIMPLICIAL, reeb_from_vectors((-1, 1, 1), (0, 0, 0)))


def test_moment_polygon_exactness():
    poly = moment_polygon(SIMPLICIAL, reeb_from_vectors((1, 1, 1), (0, 0, 0)))
    assert poly.vertices[0] == (quad(0), quad(0), quad(1))
    assert poly.vertices[1] == (quad(1), quad(0), quad(0))
    assert poly.vertices[2] == (quad(0), quad(1), quad(0))

    poly = moment_polygon(FAMILY2, R_FAMILY2)
    rq = R_FAMILY2.coords()
    k = len(FAMILY2)
    for i, vert in enumerate(poly.vertices):
        pairing = sum(rq[j] * vert[j] for j in range(3))
        assert (pairing - 1).is_zero()
        for j in range(k):
            val = sum(FAMILY2.normal(j)[c] * vert[c] for c in range(3))
            if j in (i, (i + 1) % k):
                assert val.is_zero()
            else:
                assert val.sign() > 0


def test_moment_polygon_rejects_inadmissible():
    with pytest.raises(InadmissibleReeb):
        moment_polygon(SIMPLICIAL, reeb_from_vectors((-1, 1, 1), (0, 0, 0)))


def test_isotropy_profile_family():
    prof = isotropy_profile(FAMILY2, R_FAMILY2)
    assert prof.v0 == (1, 2, -1)
    assert prof.k == (0, 2, 2, 0, 1)
    assert prof.flats == frozenset({0, 3})
    assert prof.vertex_orders == (2, 2, 2, 1, 1)
    u1, u2 = prof.lieG_basis
    assert dot(u1, prof.v0) == 0 and dot(u2, prof.v0) == 0
    assert det3(u1, u2, prof.v0) > 0


def test_isotropy_profile_rejects_rank1():
    with pytest.raises(RankError):
        isotropy_profile(SIMPLICIAL, reeb_from_vectors((1, 1, 1), (0, 0, 0)))


def test_profile_k_values_from_coordinate_plane_normal():
    # k-values are |v0 . n|: with v0 = e3 the simplicial normals give
    # (0, 0, 1); no admissible R has this v0 (it kills the e3 edge pairing),
    # so the arithmetic is checked directly rather than via the profile.
    v0 = (0, 0, 1)
    k = tuple(abs(dot(v0, n)) for n in SIMPLICIAL.normals)
    assert k == (0, 0, 1)


def test_choose_transverse_circle_family():
    y = choose_transverse_circle(FAMILY2, R_FAMILY2)
    prof = isotropy_profile(FAMILY2, R_FAMILY2)
    assert dot(y, prof.v0) == 0
    poly = moment_polygon(FAMILY2, R_FAMILY2)
    for vert in poly.vertices:
        val = sum(y[j] * vert[j] for j in range(3))
        assert val.sign() > 0


def _assert_transverse(cone, reeb, y):
    """Primitive, in Lie(G), and positive on every edge ray."""
    assert math.gcd(*y) == 1
    assert dot(y, isotropy_profile(cone, reeb).v0) == 0
    assert all(dot(y, e) > 0 for e in edge_rays(cone))


def _ring_scan(cone, reeb, box=32):
    """The former search: rings of growing max-norm radius up to box, each
    scanned in lex order of (a, b), keeping primitive a u1 + b u2 only."""
    u1, u2 = isotropy_profile(cone, reeb).lieG_basis
    pairs = [(dot(u1, e), dot(u2, e)) for e in edge_rays(cone)]
    for radius in range(1, box + 1):
        for a in range(-radius, radius + 1):
            column = range(-radius, radius + 1) if abs(a) == radius else (-radius, radius)
            for b in column:
                if math.gcd(a, b) != 1:
                    continue
                if all(a * c1 + b * c2 > 0 for c1, c2 in pairs):
                    return tuple(a * x + b * y for x, y in zip(u1, u2))
    return None


def test_choose_transverse_circle_matches_ring_scan(rnd):
    in_box = 0
    for _ in range(500):
        cone = random_good_cone(rnd, cuts=rnd.randint(0, 4))
        reeb = random_admissible_rank2_reeb(rnd, cone, d=rnd.choice((2, 3, 5)))
        u = random_sl3(rnd, shears=rnd.randint(3, 8))
        image = load_cone([mat_vec(u, n) for n in cone.normals])
        image_reeb = reeb_from_vectors(
            mat_vec(u, reeb.p), mat_vec(u, reeb.q), reeb.d
        )
        for c, r in ((cone, reeb), (image, image_reeb)):
            y = choose_transverse_circle(c, r)
            _assert_transverse(c, r, y)
            expected = _ring_scan(c, r)
            if expected is not None:
                assert y == expected, (c.normals, r)
                in_box += 1
    assert in_box >= 500


def test_least_denominator_brute_force():
    ends = sorted({Fraction(p, q) for q in range(1, 13) for p in range(-2 * q, 2 * q + 1)})

    def brute(lo, lo_open, hi, hi_open):
        # A nonempty interval holds an end (denominator <= 12) or the mediant
        # of two neighbouring fractions of order 12, so q <= 24 suffices.
        for q in range(1, 25):
            t = -(-lo.numerator * q // lo.denominator)
            if lo_open and t * lo.denominator == lo.numerator * q:
                t += 1
            if t * hi.denominator < hi.numerator * q or (
                not hi_open and t * hi.denominator == hi.numerator * q
            ):
                return q
        return None

    for lo in ends:
        for hi in ends:
            for lo_open in (False, True):
                for hi_open in (False, True):
                    got = least_denominator_of_pairs(
                        lo.numerator, lo.denominator, lo_open, hi.numerator, hi.denominator, hi_open
                    )
                    assert got == brute(lo, lo_open, hi, hi_open), (lo, hi, lo_open, hi_open)
                    # the descent on end pairs with a common factor each
                    assert got == least_denominator_of_pairs(
                        3 * lo.numerator, 3 * lo.denominator, lo_open,
                        7 * hi.numerator, 7 * hi.denominator, hi_open,
                    )


def test_transverse_circle_beyond_old_search_radius():
    # The former search gave up here (radius 32 plus a drift along a
    # 12-digit approximation of sqrt(d)); the exact construction cannot.
    for k in (32, 48):
        cone, reeb = obstructed_family(k)
        y = choose_transverse_circle(cone, reeb)
        _assert_transverse(cone, reeb, y)
        assert _ring_scan(cone, reeb) is None
        assert verify_global_identity(cone, reeb).ok


def test_width_of_flat_faces_family():
    y = choose_transverse_circle(FAMILY2, R_FAMILY2)
    w0 = width_of_flat_face(FAMILY2, R_FAMILY2, y, 0)
    w3 = width_of_flat_face(FAMILY2, R_FAMILY2, y, 3)
    assert w0.sign() > 0 and w3.sign() > 0
    # the dual computation is asserted inside; exact values for this Ybar
    assert w0 == quad(0, Fraction(1, 4))
    assert w3 == quad(Fraction(5, 6), 0)
    with pytest.raises(Exception):
        width_of_flat_face(FAMILY2, R_FAMILY2, y, 1)


def test_width_of_flat_face_reduces_the_index():
    cone, reeb = example_family(4)
    y = choose_transverse_circle(cone, reeb)
    assert isotropy_profile(cone, reeb).flats == {0, 5}
    for flat in (0, 5):
        w = width_of_flat_face(cone, reeb, y, flat)
        assert width_of_flat_face(cone, reeb, y, flat - len(cone)) == w
        assert width_of_flat_face(cone, reeb, y, flat + 2 * len(cone)) == w
    with pytest.raises(DegenerateInput, match="face 1 is not flat"):
        width_of_flat_face(cone, reeb, y, 1 - len(cone))


# Every entry that takes a caller-given Ybar, with face 0 (flat in
# example_family) for the width, which used to fail an internal assert on
# an off-plane Ybar.
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
    "k,ybar,message",
    [
        (2, (1, 0, 0), r"Ybar \(1, 0, 0\) is not in Lie\(G\): v0 . Ybar = 1"),
        (6, (3, -1, -3), r"Ybar \(3, -1, -3\) is not transverse: Ybar . e_0 = -6"),
    ],
)
def test_caller_ybar_must_be_a_transverse_circle(name, k, ybar, message):
    cone, reeb = example_family(k)
    with pytest.raises(DegenerateInput, match=f"^{message}$"):
        YBAR_ENTRIES[name](cone, reeb, ybar)


def test_width_on_random_instances(rnd):
    done = 0
    for _ in range(12):
        cone = random_good_cone(rnd, cuts=rnd.randint(0, 2))
        reeb = random_admissible_rank2_reeb(rnd, cone)
        prof = isotropy_profile(cone, reeb)
        if not prof.flats:
            continue
        y = choose_transverse_circle(cone, reeb)
        for i in prof.flats:
            w = width_of_flat_face(cone, reeb, y, i)
            assert w.sign() >= 0
            done += 1
    # random dual-cone Reeb vectors rarely have flats; the family cases above
    # always exercise both routes
    assert done >= 0


def test_slope_change_law(rnd):
    for cone, reeb in [(FAMILY2, R_FAMILY2)] + [
        (c, random_admissible_rank2_reeb(rnd, c))
        for c in (random_good_cone(rnd, cuts=1), random_good_cone(rnd, cuts=2))
    ]:
        prof = isotropy_profile(cone, reeb)
        y = choose_transverse_circle(cone, reeb)
        k = len(cone)
        for i in range(k):
            n, np_ = cone.normal(i), cone.normal(i + 1)
            if dot(prof.v0, n) == 0 or dot(prof.v0, np_) == 0:
                continue
            direct = face_slope(prof, reeb, y, np_) - face_slope(prof, reeb, y, n)
            closed = slope_change(prof, reeb, y, n, np_)
            assert (direct - closed).is_zero()


def test_polygon_closure_identity(rnd):
    y = choose_transverse_circle(FAMILY2, R_FAMILY2)
    assert closure_identity_residual(FAMILY2, R_FAMILY2, y).is_zero()
    for _ in range(10):
        cone = random_good_cone(rnd, cuts=rnd.randint(0, 3))
        reeb = random_admissible_rank2_reeb(rnd, cone)
        y = choose_transverse_circle(cone, reeb)
        assert closure_identity_residual(cone, reeb, y).is_zero()


def test_profile_equivariance_under_sl3(rnd):
    prof = isotropy_profile(FAMILY2, R_FAMILY2)
    for _ in range(30):
        u = random_sl3(rnd)
        cone2 = load_cone([mat_vec(u, n) for n in FAMILY2.normals])
        r2 = reeb_from_vectors(
            mat_vec(u, tuple(R_FAMILY2.p)), mat_vec(u, tuple(R_FAMILY2.q))
        )
        prof2 = isotropy_profile(cone2, r2)
        assert prof2.k == prof.k
        assert prof2.flats == prof.flats
        assert prof2.vertex_orders == prof.vertex_orders


def test_arc_decomposition_family():
    y = choose_transverse_circle(FAMILY2, R_FAMILY2)
    arcs = arc_decomposition(FAMILY2, R_FAMILY2, y)
    assert arcs.minimum.kind == "flat" and arcs.minimum.index == 0
    assert arcs.maximum.kind == "flat" and arcs.maximum.index == 3
    assert arcs.neg_arc == (4,)
    assert arcs.pos_arc == (1, 2)
