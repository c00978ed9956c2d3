"""Shared corpus generators: random good cones built by repeated random
blow-ups from unimodular images of the simplicial cone, random admissible
rank-2 Reeb vectors, and random unimodular matrices."""

import random
import warnings

import pytest

from goodcones.cone import GoodCone, face_invariants, load_cone, validate
from goodcones.exactnum import delzant_witness, det3, mat_vec, vec_add, vec_scale
from goodcones.graph import LensBundleDescriptor, germ_profile, reversed_euler_residue
from goodcones.reeb import (
    _lie_g_integers,
    isotropy_profile,
    rank_of,
    reeb_from_vectors,
    reeb_lie_g_coords,
)
from goodcones.surgery import CutSpec, SurgeryRejected, cut

SIMPLICIAL = GoodCone(((1, 0, 0), (0, 1, 0), (0, 0, 1)))


# Test-local 3x3 matrix helpers (tuples of rows), independent of the package.
def mat_from_columns(c1, c2, c3):
    return tuple(zip(c1, c2, c3))


def mat_columns(m):
    return tuple(zip(*m))


def mat_mul(a, b):
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(3)) for j in range(3))
        for i in range(3)
    )


def random_sl3(rnd, shears=5):
    m = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    for _ in range(shears):
        i, j = rnd.sample(range(3), 2)
        c = rnd.randint(-2, 2)
        rows = [list(r) for r in m]
        for col in range(3):
            rows[i][col] += c * rows[j][col]
        m = tuple(tuple(r) for r in rows)
    return m


def random_gl3(rnd, shears=5):
    m = random_sl3(rnd, shears)
    if rnd.random() < 0.5:
        m = tuple(tuple(-row[c] if c == 0 else row[c] for c in range(3)) for row in m)
    return m


def sl3_image(u, cone, reeb):
    """The pair moved by u in SL(3, Z), normals and Reeb vector alike; edge
    rays move by u^{-T}, so goodness and admissibility are kept."""
    image = GoodCone(tuple(mat_vec(u, n) for n in cone.normals))
    return image, reeb_from_vectors(mat_vec(u, reeb.p), mat_vec(u, reeb.q), reeb.d)


def load_gl3_image(u, cone):
    """`load_cone` of the normals moved by u in GL(3, Z).  The cone's own
    normals follow the orientation convention, so `load_cone` reverses the
    image's, with its warning, exactly when det u < 0: that warning is
    asserted there, and any warning raises elsewhere."""
    normals = [mat_vec(u, n) for n in cone.normals]
    if det3(*u) < 0:
        with pytest.warns(UserWarning, match="normals reversed"):
            return load_cone(normals)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return load_cone(normals)


def orbit_cut_normal(cone, v, a, b):
    """t = a n^v + b n^{v+1} - witness: cuts exactly the edge between faces
    v and v+1 once a, b are large enough; Delzant adjacency is automatic."""
    n1, n2 = cone.normal(v), cone.normal(v + 1)
    w = delzant_witness(n1, n2)
    return vec_add(vec_add(vec_scale(a, n1), vec_scale(b, n2)), vec_scale(-1, w))


def random_orbit_blowup(rnd, cone, tries=40):
    for _ in range(tries):
        v = rnd.randrange(len(cone))
        a = rnd.randint(1, 4)
        b = rnd.randint(1, 4)
        try:
            res = cut(cone, CutSpec(orbit_cut_normal(cone, v, a, b)))
        except (SurgeryRejected, ValueError):
            continue
        if res.kind == "orbit-blowup":
            return res
    return None


def lens_cut_normal(cone, i, ymax=64):
    from goodcones.exactnum import content

    for y in range(2, ymax):
        t = tuple(
            y * cone.normal(i)[j] - cone.normal(i - 1)[j] - cone.normal(i + 1)[j]
            for j in range(3)
        )
        g = content(t)
        if g == 0:
            continue
        t = tuple(x // g for x in t)
        try:
            res = cut(cone, CutSpec(t))
        except (SurgeryRejected, ValueError):
            continue
        if res.kind == "lens-blowup" and res.index == i % len(cone):
            return t
    return None


def random_good_cone(rnd, cuts=2, start_unimodular=True):
    cone = SIMPLICIAL
    if start_unimodular:
        u = random_sl3(rnd, shears=3)
        cone = load_cone([mat_vec(u, n) for n in cone.normals])
    for _ in range(cuts):
        res = random_orbit_blowup(rnd, cone)
        if res is not None:
            cone = res.cone
    assert validate(cone).is_good
    return cone


def random_admissible_rank2_reeb(rnd, cone, d=2, tries=50):
    """R = p + sqrt(d) q with p, q positive integer combinations of the
    normals: both lie in the dual cone interior, so R is admissible."""
    for _ in range(tries):
        p = (0, 0, 0)
        q = (0, 0, 0)
        for n in cone.normals:
            p = vec_add(p, vec_scale(rnd.randint(1, 3), n))
            q = vec_add(q, vec_scale(rnd.randint(1, 3), n))
        r = reeb_from_vectors(p, q, d)
        if rank_of(r) == 2:
            return r
    raise RuntimeError("could not build a rank-2 admissible Reeb vector")


def replaced(record, **changes):
    """A copy of `record` built by its class's constructor, with the named
    fields changed and the others shared."""
    return type(record)(**{**{f: getattr(record, f) for f in record._fields}, **changes})


def bundle_from_cone(cone, reeb, flat_lo, flat_hi, germ):
    """Lens bundle whose fiber is the germ and whose fat vertices are the
    flat faces flat_lo, flat_hi of the closed cone."""
    prof = isotropy_profile(cone, reeb)
    gp = germ_profile(germ)

    def fat(face):
        inv = face_invariants(cone, face)
        d = _lie_g_integers(prof, cone.normal(face))
        if d < (0, 0) or (d[0] == 0 and d[1] < 0) or d[0] < 0:
            d = (-d[0], -d[1])
        return (d, (inv.b, inv.f), reversed_euler_residue(cone, face))

    return LensBundleDescriptor(
        genus=0,
        reeb_class=reeb_lie_g_coords(prof, reeb),
        moment_min=gp["moment_min"],
        moment_max=gp["moment_max"],
        fat_min=fat(flat_lo),
        fat_max=fat(flat_hi),
    )


def pytest_collection_modifyitems(items):
    """A file or socket left open, or an exception raised where nothing can
    catch it, fails the test that leaked it."""
    for item in items:
        item.add_marker(pytest.mark.filterwarnings("error::ResourceWarning"))
        item.add_marker(
            pytest.mark.filterwarnings("error::pytest.PytestUnraisableExceptionWarning")
        )


@pytest.fixture
def rnd():
    return random.Random(20240817)
