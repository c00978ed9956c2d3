"""Seeded input generators of the benchmark.

They follow the approach of the test-suite corpus (random orbit blow-ups of
unimodular images of the simplicial cone, random admissible rank-2 Reeb
vectors, random SL(3,Z) shears) but are written here, so that editing the
tests cannot move the benchmark.  Every generator takes a ``random.Random``
and the imported ``goodcones`` package ``gc``; the same seed gives the same
inputs.
"""

from __future__ import annotations

from .checks import content, cross, det3

SIMPLICIAL = ((1, 0, 0), (0, 1, 0), (0, 0, 1))  # its normals form the identity matrix


def mat_vec(m, v):
    return tuple(sum(m[i][j] * v[j] for j in range(3)) for i in range(3))


def random_sl3(rnd, shears=5):
    """Product of elementary shears: an integer matrix of determinant 1."""
    rows = [list(r) for r in SIMPLICIAL]
    for _ in range(shears):
        i, j = rnd.sample(range(3), 2)
        c = rnd.randint(-2, 2)
        for col in range(3):
            rows[i][col] += c * rows[j][col]
    return tuple(tuple(r) for r in rows)


def sl3_image(gc, cone, reeb, u):
    """The pair (u n^i, u R): normals and Reeb vector move by the same
    unimodular matrix, so every pairing invariant is preserved."""
    image = gc.GoodCone(tuple(mat_vec(u, n) for n in cone.normals))
    image_reeb = gc.reeb_from_vectors(mat_vec(u, reeb.p), mat_vec(u, reeb.q), reeb.d)
    return image, image_reeb


def basis_complement(n1, n2):
    """w with det3(n1, n2, w) = 1 for a lattice basis pair (n1, n2): the
    2x2 minors of [n1 n2] are the entries of n1 x n2, so a Bezout
    combination of them gives the determinant."""
    c = cross(n1, n2)
    # det3(n1, n2, w) = c . w; solve c . w = 1 by extended gcd, keeping
    # g = c . w throughout.
    g, w = c[0], [1, 0, 0]
    for idx in (1, 2):
        g, x, y = _xgcd(g, c[idx])
        w = [x * cf for cf in w]
        w[idx] = y
    w = tuple(-cf for cf in w) if g < 0 else tuple(w)
    assert det3(n1, n2, w) == 1
    return w


def _xgcd(a, b):
    old_r, r, old_s, s, old_t, t = a, b, 1, 0, 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    return old_r, old_s, old_t


def orbit_cut_normal(cone, v, a, b):
    """t = a n^v + b n^{v+1} - w cuts exactly the edge between faces v and
    v+1 once a and b are large enough."""
    n1, n2 = cone.normal(v), cone.normal(v + 1)
    w = basis_complement(n1, n2)
    return tuple(a * x + b * y - z for x, y, z in zip(n1, n2, w))


def random_orbit_blowup(gc, rnd, cone, tries=40):
    """A random orbit blow-up of the cone as (result, (v, a, b)), or None."""
    for _ in range(tries):
        v = rnd.randrange(len(cone))
        a = rnd.randint(1, 4)
        b = rnd.randint(1, 4)
        try:
            res = gc.cut(cone, gc.CutSpec(orbit_cut_normal(cone, v, a, b)))
        except (gc.SurgeryRejected, ValueError):
            continue
        if res.kind == "orbit-blowup":
            return res, (v, a, b)
    return None


def lens_cut_candidates(cone, i, ymax=64):
    """Primitive parts of y n^i - n^{i-1} - n^{i+1}, y = 2 .. ymax-1: the
    search order in which a lens blow-up at face i is looked for."""
    for y in range(2, ymax):
        t = tuple(
            y * cone.normal(i)[j] - cone.normal(i - 1)[j] - cone.normal(i + 1)[j]
            for j in range(3)
        )
        g = content(t)
        if g:
            yield tuple(x // g for x in t)


def random_good_cone(gc, rnd, cuts):
    """A unimodular image of the simplicial cone followed by `cuts` random
    orbit blow-ups."""
    u = random_sl3(rnd, shears=3)
    cone = gc.load_cone([mat_vec(u, n) for n in SIMPLICIAL])
    for _ in range(cuts):
        found = random_orbit_blowup(gc, rnd, cone)
        if found is not None:
            cone = found[0].cone
    return cone


def random_admissible_reeb(gc, rnd, cone, d, tries=50):
    """R = p + sqrt(d) q with p, q positive integer combinations of the
    normals, so both lie inside the dual cone and R is admissible."""
    for _ in range(tries):
        p = (0, 0, 0)
        q = (0, 0, 0)
        for n in cone.normals:
            a, b = rnd.randint(1, 3), rnd.randint(1, 3)
            p = tuple(x + a * y for x, y in zip(p, n))
            q = tuple(x + b * y for x, y in zip(q, n))
        if any(cross(p, q)):
            return gc.reeb_from_vectors(p, q, d)
    raise RuntimeError("no rank-2 admissible Reeb vector found")
