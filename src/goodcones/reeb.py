"""Reeb rays on good cones: rank, admissibility, the exact moment
cross-section polygon, the rank-2 isotropy profile, transverse circles,
flat-face widths, and the polygon slope-closure identity.

Conventions.  A Reeb vector is R = p + sqrt(d) q with p, q rational
3-vectors.  For rank 2, v0 is the primitive integer normal of the plane
spanned by p and q; Lie(G) is that plane, with lattice basis (u1, u2)
oriented so det3(u1, u2, v0) > 0, and m denotes a fixed integer vector with
v0 . m = 1 (so (u1, u2, m) is a Z-basis).  The chart used for slopes and
widths has first coordinate pi(v) = Ybar . v and second coordinate
pr2(v) = m . v; the slope of the face line {n . v = 0} in the slice
{R . v = 1} is det3(n, R, m) / det3(n, R, Ybar), and widths along pr2 come
out as quadratic-field determinant ratios normalized by det_G(R, Ybar),
the frame determinant of R and Ybar in the (u1, u2) basis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Tuple

from .cone import GoodCone, InvalidCone, edge_rays, require_valid
from .exactnum import (
    DegenerateInput,
    QuadNumber,
    Vec3,
    cross,
    cross_primitive,
    det3,
    dot,
    lattice_complement,
    least_denominator,
    plane_lattice_basis,
    quad,
    vec_add,
    vec_scale,
)


class RankError(ValueError):
    """Operation needs a rank-2 Reeb vector."""


class InadmissibleReeb(ValueError):
    """Reeb vector does not pair positively with the cone."""


@dataclass(frozen=True)
class ReebVector:
    """R = p + sqrt(d) q with rational parts p, q (3-tuples of Fractions)."""

    p: Tuple[Fraction, Fraction, Fraction]
    q: Tuple[Fraction, Fraction, Fraction]
    d: int = 2

    def __post_init__(self):
        object.__setattr__(self, "p", tuple(Fraction(x) for x in self.p))
        object.__setattr__(self, "q", tuple(Fraction(x) for x in self.q))
        if all(x == 0 for x in self.p) and all(x == 0 for x in self.q):
            raise DegenerateInput("zero Reeb vector")

    def coords(self) -> Tuple[QuadNumber, QuadNumber, QuadNumber]:
        return tuple(QuadNumber(self.p[i], self.q[i], self.d) for i in range(3))


def reeb_from_vectors(p, q, d: int = 2) -> ReebVector:
    return ReebVector(tuple(Fraction(x) for x in p), tuple(Fraction(x) for x in q), d)


def rank_of(R: ReebVector) -> int:
    """1 if R is a real multiple of a rational vector (p and q parallel),
    2 otherwise.  The quadratic-field representation bounds the rank by 2."""
    if cross(R.p, R.q) == (Fraction(0), Fraction(0), Fraction(0)):
        return 1
    return 2


def _pair(R: ReebVector, v: Vec3) -> QuadNumber:
    return QuadNumber(dot(R.p, v), dot(R.q, v), R.d)


def is_admissible(cone: GoodCone, R: ReebVector) -> bool:
    """R lies in the dual cone interior: R . edge_ray(i) > 0 for every i."""
    require_valid(cone)
    return _admissible(R, edge_rays(cone))


def _admissible(R: ReebVector, rays) -> bool:
    return all(_pair(R, e).sign() > 0 for e in rays)


@dataclass(frozen=True)
class MomentPolygon:
    """Exact cross-section of the cone by the affine slice {R . v = 1}.

    vertices[i] lies on the edge ray between faces i and i+1; the face-i
    segment runs from vertices[i-1] to vertices[i] (cyclically).
    """

    vertices: Tuple[Tuple[QuadNumber, QuadNumber, QuadNumber], ...]

    def face_segment(self, i: int):
        n = len(self.vertices)
        return self.vertices[(i - 1) % n], self.vertices[i % n]


def moment_polygon(cone: GoodCone, R: ReebVector) -> MomentPolygon:
    require_valid(cone)
    rays = edge_rays(cone)
    for e in rays:
        if _pair(R, e).sign() <= 0:
            raise InadmissibleReeb(f"R pairs non-positively with edge {e}")
    return _polygon(R, rays)


def _polygon(R: ReebVector, rays) -> MomentPolygon:
    """The polygon with vertices e / (R . e); R must be admissible."""
    verts = []
    for e in rays:
        inv = _pair(R, e).inverse()
        verts.append(tuple(inv * c for c in e))
    return MomentPolygon(vertices=tuple(verts))


def _integer_span_normal(R: ReebVector) -> Vec3:
    """Primitive integer normal of the rational plane spanned by p and q,
    sign-canonicalized so the first nonzero coordinate is positive."""
    if rank_of(R) != 2:
        raise RankError("v0 is only defined for rank-2 Reeb vectors")

    def clear(v):
        den = 1
        for x in v:
            den = den * x.denominator // math.gcd(den, x.denominator)
        return tuple(int(x * den) for x in v)

    c = cross_primitive(clear(R.p), clear(R.q))
    for x in c:
        if x != 0:
            return c if x > 0 else tuple(-y for y in c)
    raise DegenerateInput("unreachable: zero normal")


@dataclass(frozen=True)
class IsotropyProfile:
    """Rank-2 combinatorics of (cone, R): the Lie(G) normal v0, the face
    isotropy magnitudes k_i = |v0 . n^i|, the flat faces (k_i = 0), the
    vertex orders gcd(k_i, k_{i+1}) with gcd(0, k) = k, and the oriented
    lattice basis of Lie(G) ∩ Z^3."""

    v0: Vec3
    k: Tuple[int, ...]
    flats: frozenset
    vertex_orders: Tuple[int, ...]
    lieG_basis: Tuple[Vec3, Vec3]

    def signed(self, cone: GoodCone) -> Tuple[int, ...]:
        return tuple(dot(self.v0, n) for n in cone.normals)


def isotropy_profile(cone: GoodCone, R: ReebVector) -> IsotropyProfile:
    return _checked_profile(cone, R)[1]


def _checked_profile(cone: GoodCone, R: ReebVector):
    """The start of every public call that needs a profile: the one
    goodness check, the one admissibility check, then the edge rays and the
    profile that the unchecked helpers consume."""
    require_valid(cone)
    rays = edge_rays(cone)
    if not _admissible(R, rays):
        raise InadmissibleReeb("profile requires an admissible Reeb vector")
    profile = _profile_of(R, cone.normals)
    flats = sorted(profile.flats)
    if len(flats) > 2:
        raise InvalidCone(
            f"more than two flat faces {flats}: rank-2 data inconsistent"
        )
    return rays, profile


def _profile_of(R: ReebVector, normals) -> IsotropyProfile:
    """Profile data of R against a cyclic list of normals (a cone's, or a
    germ's whose two ends are flat); checks neither goodness nor
    admissibility."""
    v0 = _integer_span_normal(R)
    k = tuple(abs(dot(v0, n)) for n in normals)
    flats = frozenset(i for i, ki in enumerate(k) if ki == 0)
    orders = []
    m = len(k)
    for i in range(m):
        a, b = k[i], k[(i + 1) % m]
        orders.append(b if a == 0 else (a if b == 0 else math.gcd(a, b)))
    u1, u2 = plane_lattice_basis(v0)
    return IsotropyProfile(
        v0=v0,
        k=k,
        flats=flats,
        vertex_orders=tuple(orders),
        lieG_basis=(u1, u2),
    )


def lie_g_coords(profile: IsotropyProfile, v: Vec3) -> Tuple[Fraction, Fraction]:
    """Coefficients of a vector of the Lie(G) plane in the (u1, u2) basis."""
    u1, u2 = profile.lieG_basis
    v0 = profile.v0
    den = det3(u1, u2, v0)
    a = Fraction(det3(v, u2, v0), den)
    b = Fraction(det3(u1, v, v0), den)
    return a, b


def reeb_lie_g_coords(profile: IsotropyProfile, R: ReebVector):
    """R in the (u1, u2) basis, as a pair of QuadNumbers."""
    u1, u2 = profile.lieG_basis
    v0 = profile.v0
    den = det3(u1, u2, v0)
    coords = []
    for first in (True, False):
        if first:
            num_p, num_q = det3(R.p, u2, v0), det3(R.q, u2, v0)
        else:
            num_p, num_q = det3(u1, R.p, v0), det3(u1, R.q, v0)
        coords.append(QuadNumber(Fraction(num_p, den), Fraction(num_q, den), R.d))
    return tuple(coords)


def det_g(profile: IsotropyProfile, x: ReebVector, y: Vec3) -> QuadNumber:
    """det of (x, y) in the Lie(G) lattice frame, x a Reeb vector, y integer."""
    u1, u2 = profile.lieG_basis
    den = det3(u1, u2, profile.v0)
    return QuadNumber(
        Fraction(det3(x.p, y, profile.v0), den),
        Fraction(det3(x.q, y, profile.v0), den),
        x.d,
    )


def choose_transverse_circle(cone: GoodCone, R: ReebVector) -> Vec3:
    """Primitive Ybar in Lie(G) ∩ Z^3 pairing positively with every polygon
    vertex: the point a u1 + b u2 of least max-norm max(|a|, |b|) in the open
    feasible cone, ties broken by the least (a, b).

    Positivity at the vertex e_i / (R.e_i) is equivalent to the integer
    condition Ybar . e_i > 0 since R is admissible; R itself lies in the
    feasible cone, so it is never empty.
    """
    rays, profile = _checked_profile(cone, R)
    return _transverse_circle(profile, rays)


def _transverse_circle(profile: IsotropyProfile, rays) -> Vec3:
    """On a side {(sigma r, t)} or {(t, sigma r)}, |t| <= r, of the square
    of radius r the constraints confine t / r to an interval, so the least
    r with a point on that side is the least denominator of a fraction in
    it.  A point of least radius is primitive: dividing it by a common
    factor would give a feasible point of smaller radius."""
    u1, u2 = profile.lieG_basis
    pairs = [(dot(u1, e), dot(u2, e)) for e in rays]
    found = []
    for sigma in (-1, 1):
        for first in (True, False):
            # Each constraint reads alpha + beta x > 0 for x = t / r in [-1, 1].
            lo, lo_open, hi, hi_open = Fraction(-1), False, Fraction(1), False
            for c1, c2 in pairs:
                alpha, beta = (sigma * c1, c2) if first else (sigma * c2, c1)
                if beta == 0:
                    if alpha <= 0:
                        break
                    continue
                end = Fraction(-alpha, beta)
                if beta > 0 and end >= lo:
                    lo, lo_open = end, True
                elif beta < 0 and end <= hi:
                    hi, hi_open = end, True
            else:
                q = least_denominator(lo, lo_open, hi, hi_open)
                if q is not None:
                    t = math.floor(lo * q) + 1 if lo_open else math.ceil(lo * q)
                    found.append((q, (sigma * q, t) if first else (t, sigma * q)))
    _, (a, b) = min(found)
    return vec_add(vec_scale(a, u1), vec_scale(b, u2))


def width_of_flat_face(
    cone: GoodCone, R: ReebVector, ybar: Vec3, i: int
) -> QuadNumber:
    """Width of the flat face i inside its Ybar-level set, computed two ways
    and compared exactly:

    (1) determinant formula
        w = |det3(n^{i-1}, n^{i+1}, c R - Ybar)|
            / |(v0.n^{i-1}) (v0.n^{i+1}) det_G(R, Ybar)|
        with c the (constant) value of Ybar on the face segment;
    (2) pr2-chord of the segment, pr2 = pairing with the lattice complement m
        of Lie(G) (well defined: the segment direction lies in Lie(G)).
    """
    rays, profile = _checked_profile(cone, R)
    if i not in profile.flats:
        raise DegenerateInput(f"face {i} is not flat (k={profile.k[i % len(cone)]})")
    poly = _polygon(R, rays)
    p_lo, p_hi = poly.face_segment(i)
    c_lo = sum(ybar[j] * p_lo[j] for j in range(3))
    c_hi = sum(ybar[j] * p_hi[j] for j in range(3))
    assert (c_lo - c_hi).is_zero(), "flat face is not in a Ybar level set"

    n_prev, n_next = cone.normal(i - 1), cone.normal(i + 1)
    s_prev, s_next = dot(profile.v0, n_prev), dot(profile.v0, n_next)
    third = tuple(c_lo * rc - y for rc, y in zip(R.coords(), ybar))
    det_num = det3(_lift(n_prev, R.d), _lift(n_next, R.d), third)
    dg = det_g(profile, R, ybar)
    w_formula = det_num / (QuadNumber(Fraction(s_prev * s_next), Fraction(0), R.d) * dg)
    if w_formula.sign() < 0:
        w_formula = -w_formula

    m = lattice_complement(profile.v0)
    chord = sum(m[j] * (p_hi[j] - p_lo[j]) for j in range(3))
    if chord.sign() < 0:
        chord = -chord
    assert (w_formula - chord).is_zero(), "width computations disagree"
    return w_formula


def _lift(v: Vec3, d: int):
    return tuple(quad(x, 0, d) for x in v)


def face_slope(profile: IsotropyProfile, R: ReebVector, ybar: Vec3, n: Vec3):
    """Slope d(pr2)/d(pi) of the face line {n . v = 0} in the slice; only
    defined for non-flat faces (det3(n, R, Ybar) != 0)."""
    m = lattice_complement(profile.v0)
    rq = R.coords()
    num = det3(_lift(n, R.d), rq, _lift(m, R.d))
    den = det3(_lift(n, R.d), rq, _lift(ybar, R.d))
    if den.is_zero():
        raise DegenerateInput("slope undefined on a flat face")
    return num / den


def slope_change(profile: IsotropyProfile, R: ReebVector, ybar: Vec3, n: Vec3, np: Vec3):
    """Closed form for slope(np) - slope(n):
    det3(n, np, R) / ((v0.n)(v0.np) det_G(R, Ybar))."""
    rq = R.coords()
    num = det3(_lift(n, R.d), _lift(np, R.d), rq)
    s = dot(profile.v0, n) * dot(profile.v0, np)
    return num / (QuadNumber(Fraction(s), Fraction(0), R.d) * det_g(profile, R, ybar))


# ---------------------------------------------------------------------------
# Arc decomposition: the two boundary chains between the extremes.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Extreme:
    """Either a flat face (kind 'flat', index = face) or a polygon vertex
    (kind 'vertex', index = vertex between faces index, index+1)."""

    kind: str
    index: int


@dataclass(frozen=True)
class ArcDecomposition:
    """Faces split into the two boundary chains between the moment extremes,
    each ordered by increasing Ybar-moment.  neg_arc collects the faces with
    v0 . n < 0, pos_arc those with v0 . n > 0."""

    minimum: Extreme
    maximum: Extreme
    neg_arc: Tuple[int, ...]
    pos_arc: Tuple[int, ...]


def arc_decomposition(
    cone: GoodCone, R: ReebVector, ybar: Optional[Vec3] = None
) -> ArcDecomposition:
    return _arc_data(cone, R, ybar)[2]


def _arc_data(cone: GoodCone, R: ReebVector, ybar: Optional[Vec3]):
    """The start of every public call that walks the boundary chains:
    (profile, Ybar, arcs) from one validation, with Ybar chosen when None."""
    rays, profile = _checked_profile(cone, R)
    if ybar is None:
        ybar = _transverse_circle(profile, rays)
    poly = _polygon(R, rays)
    k = len(cone)
    signs = profile.signed(cone)
    pi_vals = [sum(ybar[j] * poly.vertices[i][j] for j in range(3)) for i in range(k)]

    def extreme_at(argbest: int) -> Extreme:
        # A vertex incident to a flat face belongs to that 3-dim component.
        if argbest in profile.flats:
            return Extreme("flat", argbest)
        nxt = (argbest + 1) % k
        if nxt in profile.flats:
            return Extreme("flat", nxt)
        return Extreme("vertex", argbest)

    lo = min(range(k), key=lambda i: pi_vals[i])
    hi = max(range(k), key=lambda i: pi_vals[i])
    minimum = extreme_at(lo)
    maximum = extreme_at(hi)

    def member(face: int) -> bool:
        if minimum.kind == "flat" and face == minimum.index:
            return False
        if maximum.kind == "flat" and face == maximum.index:
            return False
        return True

    neg, pos = [], []
    for face in range(k):
        if not member(face):
            continue
        if signs[face] < 0:
            neg.append(face)
        elif signs[face] > 0:
            pos.append(face)
        else:
            raise InvalidCone(f"non-extreme face {face} is flat")

    def face_level(face: int):
        lo_v, hi_v = pi_vals[(face - 1) % k], pi_vals[face]
        return min(lo_v, hi_v), max(lo_v, hi_v)

    neg.sort(key=lambda f: face_level(f))
    pos.sort(key=lambda f: face_level(f))
    arcs = ArcDecomposition(
        minimum=minimum, maximum=maximum, neg_arc=tuple(neg), pos_arc=tuple(pos)
    )
    return profile, ybar, arcs


def closure_identity_residual(
    cone: GoodCone, R: ReebVector, ybar: Vec3
) -> QuadNumber:
    """Exact residual of the polygon slope-closure identity; zero on every
    valid rank-2 instance.  The identity reads

        det(n2_top, n1_top, Y)/(k k) + det(n1_bot, n2_bot, Y)/(k k)
        - sum over arcs j, interior steps i of
          (+1 for the negative arc, -1 for the positive arc)
          det(n^j_{i+1}, n^j_i, Y)/(k^j_{i+1} k^j_i)  =  0

    with arcs ordered by increasing Ybar-moment (chain 1 = negative arc).
    """
    profile, ybar, arcs = _arc_data(cone, R, ybar)
    signs = profile.signed(cone)
    d = R.d

    def nrm(face):
        return _lift(cone.normal(face), d)

    y = _lift(ybar, d)

    def kk(f1, f2):
        return Fraction(1, abs(signs[f1]) * abs(signs[f2]))

    if not arcs.neg_arc or not arcs.pos_arc:
        raise InvalidCone("arc decomposition degenerate: empty boundary chain")
    c1, c2 = arcs.neg_arc, arcs.pos_arc
    total = quad(0, 0, d)
    total = total + kk(c2[-1], c1[-1]) * det3(nrm(c2[-1]), nrm(c1[-1]), y)
    total = total + kk(c1[0], c2[0]) * det3(nrm(c1[0]), nrm(c2[0]), y)
    for j, arc in ((1, c1), (2, c2)):
        sgn = 1 if j == 1 else -1
        for a, b in zip(arc, arc[1:]):
            total = total - sgn * kk(b, a) * det3(nrm(b), nrm(a), y)
    return total
