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

Arithmetic.  Only R is irrational; normals, edge rays, Ybar and the
isotropy data are integers.  A ReebVector carries R cleared to integer
parts, R = (P + sqrt(d) Q) / den with den > 0, so that R . e is
(P . e + sqrt(d) Q . e) / den.  Every sign and every order (admissibility,
the ranking of vertices by Ybar-moment, the arcs) is then decided in Z by
`quad_sign`, and a determinant against R is the pair of integer
determinants against P and Q; the rank is read off P x Q.  The
transverse-circle descent and every intermediate sum also run in Z, the
residual's by `ratio_sum`, which keeps its running pair bounded.  A
QuadNumber, which stores (a + b sqrt(d)) / den as integers, is built only
for a value that a public function returns (polygon vertices, widths,
slopes, residuals), straight from those integers; no Fraction is built on
the way.

One slot.  A fact of one object lives on that object: a cone keeps its
goodness verdict (`cone._verdict`) and its edge rays (`cone.edge_rays`),
and R its cleared parts.  The module keeps only facts of a pair, in one
record (`_Facts`) for the last (cone, R) pair that a public call
accepted: the cone's edge rays, their pairings (P . e_i, Q . e_i), which
the admissibility check computes and the polygon, the vertex ranking and
the widths read, the profile and the signed isotropies v0 . n^i, which
the arcs, the widths and the closure residual read, and, computed on
first read, the rays' Lie(G) pairings (u1 . e_i, u2 . e_i), the chosen
Ybar, the vertex circles, which the Euler identity and the graph both
read, the polygon, which `moment_polygon` and `cli.render_svg` return
and draw, and the arcs for the last Ybar.  A germ's open chain of normals
gets the same record from `_chain_facts`, which the graph's fiber sums
read and no slot keeps.  The slot is keyed by the identity of the two
objects and holds them, so a pass of Reeb, Euler and graph calls on one
pair builds the profile once.  It holds one pair, so its memory does not
grow with the number of calls.  It is written only after every check has
passed, so a raising call leaves it as it was, and the error order is
that of a first call: `InvalidCone`, then `InadmissibleReeb`, then
`RankError`, then `DegenerateInput` for a caller's Ybar or face, whose
checks run on every call.  Every kept value is immutable, and callers
that hand out a mutable value (`euler.IdentityData.k`) copy it.  The slot
is read once per call and replaced by one assignment of a complete
record, and a fact computed on first read depends on its record alone,
so threads racing on it (or on a cone's verdict, rays or witnesses) can
only repeat work.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, cmp_to_key
from typing import Optional, Tuple

from .cone import GoodCone, InvalidCone, edge_rays, require_valid
from .exactnum import (
    DegenerateInput,
    QuadNumber,
    Vec3,
    _discriminant_fault,
    _quotient,
    cramer_rows,
    cross,
    cross_primitive,
    det3,
    dot,
    least_denominator_of_pairs,
    plane_lattice_basis,
    primitive_part,
    quad_sign,
    ratio_sum,
    solve_dot_one,
    vec_add,
    vec_scale,
)


class RankError(ValueError):
    """Operation needs a rank-2 Reeb vector."""


class InadmissibleReeb(ValueError):
    """Reeb vector does not pair positively with the cone."""


@dataclass(frozen=True)
class ReebVector:
    """R = p + sqrt(d) q with rational parts p, q (3-tuples of Fractions),
    also kept cleared as R = (P + sqrt(d) Q) / den with integer 3-vectors
    P, Q and den > 0 (attributes, not fields, so outside ==, hash and repr)."""

    p: Tuple[Fraction, Fraction, Fraction]
    q: Tuple[Fraction, Fraction, Fraction]
    d: int = 2

    def __post_init__(self):
        p = tuple(Fraction(x) for x in self.p)
        q = tuple(Fraction(x) for x in self.q)
        if all(x == 0 for x in p) and all(x == 0 for x in q):
            raise DegenerateInput("zero Reeb vector")
        if fault := _discriminant_fault(self.d):
            raise ValueError(fault)
        den = math.lcm(*(x.denominator for x in p + q))
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "P", tuple(x.numerator * (den // x.denominator) for x in p))
        object.__setattr__(self, "Q", tuple(x.numerator * (den // x.denominator) for x in q))
        object.__setattr__(self, "den", den)

    def coords(self) -> Tuple[QuadNumber, QuadNumber, QuadNumber]:
        d, den = self.d, self.den
        return tuple([QuadNumber(x, y, d, den) for x, y in zip(self.P, self.Q)])


def reeb_from_vectors(p, q, d: int = 2) -> ReebVector:
    return ReebVector(tuple(Fraction(x) for x in p), tuple(Fraction(x) for x in q), d)


def rank_of(R: ReebVector) -> int:
    """1 if R is a real multiple of a rational vector, that is if the
    cleared integer parts P = den p and Q = den q are parallel
    (P x Q = 0), and 2 otherwise.  The quadratic-field representation
    bounds the rank by 2."""
    return 1 if cross(R.P, R.Q) == (0, 0, 0) else 2


_RANK_2_ONLY = "v0 is only defined for rank-2 Reeb vectors"


def _pairings(u: Vec3, v: Vec3, rays) -> Tuple[Tuple[int, int], ...]:
    """(u . e, v . e) for each vector e of `rays`.  With (u, v) = (P, Q),
    den R . e is P . e + sqrt(d) Q . e."""
    p0, p1, p2 = u
    q0, q1, q2 = v
    return tuple([(p0 * x + p1 * y + p2 * z, q0 * x + q1 * y + q2 * z) for x, y, z in rays])


def _det_r(R: ReebVector, a: Vec3, b: Vec3) -> Tuple[int, int]:
    """den * det3(a, b, R) as its integer parts (rational, irrational)."""
    c = cross(a, b)
    return dot(c, R.P), dot(c, R.Q)


def is_admissible(cone: GoodCone, R: ReebVector) -> bool:
    """R lies in the dual cone interior: R . edge_ray(i) > 0 for every i."""
    try:
        _facts(cone, R)
    except InadmissibleReeb:
        return False
    return True


@dataclass(frozen=True)
class MomentPolygon:
    """Exact cross-section of the cone by the affine slice {R . v = 1}.

    vertices[i] lies on the edge ray between faces i and i+1; the face-i
    segment runs from vertices[i-1] to vertices[i] (cyclically).
    """

    vertices: Tuple[Tuple[QuadNumber, QuadNumber, QuadNumber], ...]


def moment_polygon(cone: GoodCone, R: ReebVector) -> MomentPolygon:
    return _facts(cone, R).polygon


def _vertex(R: ReebVector, e: Vec3, a: int, b: int) -> Tuple[QuadNumber, QuadNumber, QuadNumber]:
    """The slice point e / (R . e) = den e / (a + sqrt(d) b), with
    (a, b) = (P . e, Q . e), that is den e (a - sqrt(d) b) / (a^2 - d b^2).
    It does not change when e -> -e, which negates a and b too."""
    d = R.d
    norm = a * a - d * b * b
    ra, rb = R.den * a, -R.den * b
    return tuple([QuadNumber(c * ra, c * rb, d, norm) for c in e])


def _integer_span_normal(R: ReebVector) -> Vec3:
    """Primitive integer normal of the rational plane spanned by p and q,
    sign-canonicalized so the first nonzero coordinate is positive."""
    c = cross(R.P, R.Q)
    if c == (0, 0, 0):
        raise RankError(_RANK_2_ONLY)
    c = primitive_part(c)
    first = next(x for x in c if x != 0)
    return c if first > 0 else tuple(-y for y in c)


@dataclass(frozen=True)
class IsotropyProfile:
    """Rank-2 combinatorics of (cone, R): the Lie(G) normal v0, the face
    isotropy magnitudes k_i = |v0 . n^i|, the flat faces (k_i = 0), the
    vertex orders gcd(k_i, k_{i+1}) with gcd(0, k) = k, the oriented
    lattice basis of Lie(G) ∩ Z^3, the lattice complement
    m = solve_dot_one(v0) of Lie(G), the one every frame (u1, u2, m) and
    every pr2 = pairing with m uses, and the first two Cramer rows of that
    frame, which read (u1, u2) coordinates off a vector."""

    v0: Vec3
    k: Tuple[int, ...]
    flats: frozenset
    vertex_orders: Tuple[int, ...]
    lieG_basis: Tuple[Vec3, Vec3]
    complement: Vec3
    lieG_rows: Tuple[Vec3, Vec3]


def isotropy_profile(cone: GoodCone, R: ReebVector) -> IsotropyProfile:
    return _checked_profile(cone, R).profile


class _Facts:
    """The checked facts of R against a list of normals, a cone's cyclic
    one (`_facts`) or a germ's open chain (`_chain_facts`, with cone None):
    the edge rays, e_v between normals v and v + 1, their pairings
    (P . e_v, Q . e_v) with R (`_pairings`), the profile and the signed
    isotropies v0 . n; `profile` and `signs` are None when R has rank 1.
    The other facts are computed on first read and kept: `lie`, the rays'
    Lie(G) pairings (u1 . e_v, u2 . e_v); `circles`, the vertex circles;
    `ybar`, the chosen transverse circle; `polygon`, the moment polygon;
    and `arcs`, the pair (Ybar, arcs) of the last Ybar, None until one is
    read."""

    def __init__(self, cone, R, rays, pairs, profile, signs):
        self.cone = cone
        self.R = R
        self.rays = rays
        self.pairs = pairs
        self.profile = profile
        self.signs = signs
        self.arcs = None

    @cached_property
    def lie(self) -> Tuple[Tuple[int, int], ...]:
        return _pairings(*self.profile.lieG_basis, self.rays)

    @cached_property
    def circles(self) -> Tuple[Optional[Tuple[int, int]], ...]:
        """The vertex circle (`_vertex_circle`) on each edge ray v, between
        faces v and v + 1; None where either face is flat, as no reader
        takes a circle there: such a vertex belongs to a fat vertex, not to
        a closed orbit of its own."""
        k = self.profile.k
        m = len(k)
        return tuple(
            [
                _vertex_circle(*lie) if k[v] and k[(v + 1) % m] else None
                for v, lie in enumerate(self.lie)
            ]
        )

    @cached_property
    def ybar(self) -> Vec3:
        return _transverse_circle(self.profile, self.lie)

    @cached_property
    def polygon(self) -> MomentPolygon:
        """The polygon with vertices e / (R . e); R must be admissible."""
        R = self.R
        return MomentPolygon(
            vertices=tuple([_vertex(R, e, a, b) for e, (a, b) in zip(self.rays, self.pairs)])
        )


_slot: Optional[_Facts] = None


def _facts(cone: GoodCone, R: ReebVector) -> _Facts:
    """The start of every public call on a (cone, R) pair: the slot when it
    holds these two objects, else the goodness check (once per cone object,
    `require_valid`), the one admissibility check and the profile,
    published as one record once they have all passed and R has rank 2."""
    global _slot
    facts = _slot
    if facts is not None and facts.cone is cone and facts.R is R:
        return facts
    require_valid(cone)
    rays = edge_rays(cone)
    pairs = _pairings(R.P, R.Q, rays)
    d = R.d
    for e, (a, b) in zip(rays, pairs):
        if quad_sign(a, b, d) <= 0:
            raise InadmissibleReeb(f"R pairs non-positively with edge {e}")
    profile = signs = None
    if cross(R.P, R.Q) != (0, 0, 0):
        profile, signs = _profile_of(R, cone.normals)
        if len(profile.flats) > 2:
            raise InvalidCone(
                f"more than two flat faces {sorted(profile.flats)}: rank-2 data inconsistent"
            )
    facts = _Facts(cone, R, rays, pairs, profile, signs)
    # A rank-1 pair is not kept: the calls that need a profile refuse it,
    # and a refusing call must leave the slot as it was.
    if profile is not None:
        _slot = facts
    return facts


def _checked_profile(cone: GoodCone, R: ReebVector) -> _Facts:
    """The facts of a pair whose profile a public call needs: R must be
    admissible and of rank 2."""
    try:
        facts = _facts(cone, R)
    except InadmissibleReeb:
        raise InadmissibleReeb("profile requires an admissible Reeb vector") from None
    if facts.profile is None:
        raise RankError(_RANK_2_ONLY)
    return facts


def _chain_facts(R: ReebVector, normals) -> _Facts:
    """The record of a rank-2 R against an open chain of normals, a germ's:
    one edge ray between each two consecutive normals.  Checks neither
    goodness nor admissibility."""
    profile, signs = _profile_of(R, normals)
    rays = tuple([cross_primitive(a, b) for a, b in zip(normals, normals[1:])])
    return _Facts(None, R, rays, _pairings(R.P, R.Q, rays), profile, signs)


def _profile_of(R: ReebVector, normals) -> Tuple[IsotropyProfile, Tuple[int, ...]]:
    """Profile data of R against a cyclic list of normals (a cone's, or a
    germ's whose two ends are flat), and the signed isotropies v0 . n;
    checks neither goodness nor admissibility."""
    v0 = _integer_span_normal(R)
    x, y, z = v0
    signs = tuple([x * a + y * b + z * c for a, b, c in normals])
    k = tuple([abs(s) for s in signs])
    flats = frozenset(i for i, ki in enumerate(k) if ki == 0)
    orders = []
    m = len(k)
    for i in range(m):
        a, b = k[i], k[(i + 1) % m]
        orders.append(b if a == 0 else (a if b == 0 else math.gcd(a, b)))
    u1, u2 = plane_lattice_basis(v0)
    complement = solve_dot_one(v0)
    profile = IsotropyProfile(
        v0=v0,
        k=k,
        flats=flats,
        vertex_orders=tuple(orders),
        lieG_basis=(u1, u2),
        complement=complement,
        lieG_rows=cramer_rows(u1, u2, complement)[:2],
    )
    return profile, signs


def _lie_g_integers(profile: IsotropyProfile, v: Vec3) -> Tuple[int, int]:
    """Coordinates in the (u1, u2) basis of a vector v of the Lie(G) plane,
    integers for a lattice vector: its first two in the frame (u1, u2, m),
    v0 . m = 1, unimodular (u1 x u2 = v0), so Cramer needs no division."""
    row_a, row_b = profile.lieG_rows
    return dot(row_a, v), dot(row_b, v)


def _vertex_circle(u1_e: int, u2_e: int) -> Tuple[int, int]:
    """Integer Lie(G) coordinates of the primitive generator of
    span(n, n') ∩ Lie(G) at the polygon vertex on the edge ray e = n x n'
    of a Delzant pair (n, n'), from the ray's Lie(G) pairings
    (u1 . e, u2 . e): the isotropy circle of that closed orbit, up to sign.
    That generator is primitive_part(v0 x e), whose coordinates are those
    of v0 x e over their gcd, as (u1, u2) is a basis of the lattice; with
    rows (u2 x m, m x u1) and v0 . m = 1, u1 . v0 = u2 . v0 = 0, they are
    (-u2 . e, u1 . e).  e is never along v0 on an admissible pair, whose R
    in Lie(G) pairs positively with e."""
    g = math.gcd(u1_e, u2_e)
    return -u2_e // g, u1_e // g


def reeb_lie_g_coords(profile: IsotropyProfile, R: ReebVector):
    """R in the (u1, u2) basis, as a pair of QuadNumbers: P and Q span
    Lie(G), so `_lie_g_integers` reads their integer coordinates, and R is
    (P + sqrt(d) Q) / den."""
    (a_p, b_p), (a_q, b_q) = _lie_g_integers(profile, R.P), _lie_g_integers(profile, R.Q)
    return QuadNumber(a_p, a_q, R.d, R.den), QuadNumber(b_p, b_q, R.d, R.den)


def det_g(profile: IsotropyProfile, x: ReebVector, y: Vec3) -> QuadNumber:
    """det of (x, y) in the Lie(G) lattice frame, x a Reeb vector, y integer."""
    g, g_p, g_q = _det_g_parts(profile, x, y)
    return QuadNumber(g_p, g_q, x.d, x.den * g)


def _det_g_parts(profile: IsotropyProfile, R: ReebVector, y: Vec3) -> Tuple[int, int, int]:
    """det_G(R, y) in integers, as (g, G_P, G_Q) with g = det3(u1, u2, v0),
    G_P = det3(P, y, v0) and G_Q = det3(Q, y, v0), so that
    det_G(R, y) = (G_P + sqrt(d) G_Q) / (den g)."""
    v0 = profile.v0
    u1, u2 = profile.lieG_basis
    return det3(u1, u2, v0), det3(R.P, y, v0), det3(R.Q, y, v0)


def _checked_ybar(profile: IsotropyProfile, rays, ybar: Vec3) -> None:
    """The precondition on a caller-given transverse circle, which
    `choose_transverse_circle` meets by construction: Ybar lies in Lie(G)
    (v0 . Ybar = 0) and pairs positively with every edge ray."""
    off = dot(profile.v0, ybar)
    if off:
        raise DegenerateInput(f"Ybar {tuple(ybar)} is not in Lie(G): v0 . Ybar = {off}")
    for i, e in enumerate(rays):
        y = dot(ybar, e)
        if y <= 0:
            raise DegenerateInput(
                f"Ybar {tuple(ybar)} is not transverse: Ybar . e_{i} = {y}"
            )


def choose_transverse_circle(cone: GoodCone, R: ReebVector) -> Vec3:
    """Primitive Ybar in Lie(G) ∩ Z^3 pairing positively with every polygon
    vertex: the point a u1 + b u2 of least max-norm max(|a|, |b|) in the open
    feasible cone, ties broken by the least (a, b).

    Positivity at the vertex e_i / (R.e_i) is equivalent to the integer
    condition Ybar . e_i > 0 since R is admissible; R itself lies in the
    feasible cone, so it is never empty.
    """
    return _checked_profile(cone, R).ybar


def _transverse_circle(profile: IsotropyProfile, lie) -> Vec3:
    """On a side {(sigma r, t)} or {(t, sigma r)}, |t| <= r, of the square
    of radius r the constraints confine t / r to an interval, so the least
    r with a point on that side is the least denominator of a fraction in
    it.  The bounds are kept as integer pairs, and each side hands them to
    `least_denominator_of_pairs` as they are.  A point of least radius is
    primitive: dividing it by a common factor would give a feasible point
    of smaller radius.

    `lie` holds each edge ray's Lie(G) pairings (u1 . e, u2 . e)
    (`_Facts.lie`).  Sizes: a bound is one ratio of two pairings as they are,
    never a sum, a comparison multiplies two pairings, and the descent keeps
    to the size of its ends; so no intermediate exceeds twice the bits of
    the largest pairing, besides the radius q and the t it returns."""
    found = []
    for sigma in (-1, 1):
        for first in (True, False):
            # Each constraint reads alpha + beta x > 0 for x = t / r in [-1, 1];
            # x is bounded by lo = ln / ld and hi = hn / hd with ld, hd > 0.
            ln, ld, lo_open, hn, hd, hi_open = -1, 1, False, 1, 1, False
            for c1, c2 in lie:
                alpha, beta = (sigma * c1, c2) if first else (sigma * c2, c1)
                if beta == 0:
                    if alpha <= 0:
                        break
                    continue
                # -alpha / beta against a bound, cross-multiplied in Z
                if beta > 0 and -alpha * ld >= ln * beta:
                    ln, ld, lo_open = -alpha, beta, True
                elif beta < 0 and -alpha * hd >= hn * beta:
                    hn, hd, hi_open = alpha, -beta, True
            else:
                q = least_denominator_of_pairs(ln, ld, lo_open, hn, hd, hi_open)
                if q is not None:
                    # the least t with t / q above lo; a closed lo is still -1
                    t = ln * q // ld + 1 if lo_open else -q
                    found.append((q, (sigma * q, t) if first else (t, sigma * q)))
    _, (a, b) = min(found)
    u1, u2 = profile.lieG_basis
    return vec_add(vec_scale(a, u1), vec_scale(b, u2))


def width_of_flat_face(
    cone: GoodCone, R: ReebVector, ybar: Vec3, i: int
) -> QuadNumber:
    """Width of the flat face i inside its Ybar-level set, computed two ways
    and compared exactly:

    (1) determinant formula
        w = |det3(n^{i-1}, n^{i+1}, c R - Ybar)|
            / |(v0.n^{i-1}) (v0.n^{i+1}) det_G(R, Ybar)|
        with c the value of Ybar on the face segment, constant since Ybar,
        R and n^i all lie in the plane Lie(G);
    (2) pr2-chord of the segment, pr2 = pairing with the lattice complement m
        of Lie(G) (well defined: the segment direction lies in Lie(G)): with
        the face's end rays e, e' and (a, b), (a', b') their pairings, it is
        den ((m . e) (a' + b' sqrt(d)) - (m . e') (a + b sqrt(d)))
        / ((a + b sqrt(d)) (a' + b' sqrt(d))), one quotient of integers.

    In (1), c = den y / (a + b sqrt(d)) with y = Ybar . e, a = P . e and
    b = Q . e at an end ray e of the face, and by linearity
    det3(n, n', c R - Ybar) = c det3(n, n', R) - det3(n, n', Ybar), so

        w = |den g ((y A - D a) + sqrt(d) (y B - D b))|
            / |s s' (a + b sqrt(d)) (G_P + sqrt(d) G_Q)|

    with A + B sqrt(d) = den det3(n, n', R), D = det3(n, n', Ybar),
    G_P + sqrt(d) G_Q = den g det_G(R, Ybar) and g = det3(u1, u2, v0).

    Ybar must be a transverse circle (`_checked_ybar`); any other vector
    raises DegenerateInput.
    """
    facts = _checked_profile(cone, R)
    rays, profile, pairs, signs = facts.rays, facts.profile, facts.pairs, facts.signs
    _checked_ybar(profile, rays, ybar)
    k = len(cone)
    i %= k
    if i not in profile.flats:
        raise DegenerateInput(f"face {i} is not flat (k={profile.k[i]})")
    e_lo, e_hi = rays[i - 1], rays[i]
    d = R.d
    (a_lo, b_lo), (a, b) = pairs[i - 1], pairs[i]
    y = dot(ybar, e_hi)

    n_prev, n_next = cone.normals[i - 1], cone.normals[(i + 1) % k]
    s_prev, s_next = signs[i - 1], signs[(i + 1) % k]
    big_a, big_b = _det_r(R, n_prev, n_next)
    big_d = det3(n_prev, n_next, ybar)
    g, g_p, g_q = _det_g_parts(profile, R, ybar)
    w_formula = _quotient(
        y * big_a - big_d * a,
        y * big_b - big_d * b,
        s_prev * s_next,
        a * g_p + d * b * g_q,
        a * g_q + b * g_p,
        R.den * g,
        d,
    )
    if w_formula.sign() < 0:
        w_formula = -w_formula

    m = profile.complement
    m_lo, m_hi = dot(m, e_lo), dot(m, e_hi)
    chord = _quotient(
        m_hi * a_lo - m_lo * a,
        m_hi * b_lo - m_lo * b,
        1,
        a * a_lo + d * b * b_lo,
        a * b_lo + b * a_lo,
        R.den,
        d,
    )
    if chord.sign() < 0:
        chord = -chord
    assert (w_formula - chord).is_zero(), "width computations disagree"
    return w_formula


def face_slope(profile: IsotropyProfile, R: ReebVector, ybar: Vec3, n: Vec3):
    """Slope d(pr2)/d(pi) of the face line {n . v = 0} in the slice; only
    defined for non-flat faces (det3(n, R, Ybar) != 0).  Both determinants
    are linear in R, and den cancels from their ratio."""
    num = _det_r(R, profile.complement, n)  # det3(n, R, m) = det3(m, n, R)
    den = _det_r(R, ybar, n)
    if den == (0, 0):
        raise DegenerateInput("slope undefined on a flat face")
    return _quotient(*num, 1, *den, 1, R.d)


def slope_change(profile: IsotropyProfile, R: ReebVector, ybar: Vec3, n: Vec3, np: Vec3):
    """Closed form for slope(np) - slope(n):
    det3(n, np, R) / ((v0.n)(v0.np) det_G(R, Ybar)), where
    det_G(R, Ybar) = (det3(P, Ybar, v0) + sqrt(d) det3(Q, Ybar, v0)) / (den g)
    with g = det3(u1, u2, v0), so den cancels."""
    g, g_p, g_q = _det_g_parts(profile, R, ybar)
    a, b = _det_r(R, n, np)
    s = dot(profile.v0, n) * dot(profile.v0, np)
    return _quotient(a, b, s, g_p, g_q, g, R.d)


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


def _vertex_between(face: int, nxt: int, k: int) -> int:
    """The polygon vertex between two consecutive faces of an arc, listed in
    either order: the vertex between faces v and v+1 (mod k) is v."""
    return face if (face + 1) % k == nxt else nxt


def arc_decomposition(
    cone: GoodCone, R: ReebVector, ybar: Optional[Vec3] = None
) -> ArcDecomposition:
    return _arc_data(cone, R, ybar)[2]


def _arc_data(cone: GoodCone, R: ReebVector, ybar: Optional[Vec3]):
    """The start of every public call that walks the boundary chains:
    (facts, Ybar, arcs) of the pair, with Ybar chosen when None and checked
    by `_checked_ybar` when given; the arcs of the last Ybar are kept in
    the facts."""
    facts = _checked_profile(cone, R)
    if ybar is None:
        ybar = facts.ybar
    else:
        _checked_ybar(facts.profile, facts.rays, ybar)
    key = tuple(ybar)
    last = facts.arcs
    if last is None or last[0] != key:
        last = facts.arcs = (key, _arcs(facts, ybar))
    return facts, ybar, last[1]


def _arcs(facts: _Facts, ybar: Vec3) -> ArcDecomposition:
    """The two boundary chains of the pair between the extremes of a
    transverse Ybar."""
    cone, profile, signs = facts.cone, facts.profile, facts.signs
    k = len(cone)
    rank = _moment_ranks(facts, ybar)

    def extreme_at(argbest: int) -> Extreme:
        # A vertex incident to a flat face belongs to that 3-dim component.
        if argbest in profile.flats:
            return Extreme("flat", argbest)
        nxt = (argbest + 1) % k
        if nxt in profile.flats:
            return Extreme("flat", nxt)
        return Extreme("vertex", argbest)

    lo = min(range(k), key=rank.__getitem__)
    hi = max(range(k), key=rank.__getitem__)
    minimum = extreme_at(lo)
    maximum = extreme_at(hi)

    # A flat face is a Ybar level segment, so for a transverse Ybar the flat
    # faces are exactly the flat extremes, and each chain face has a sign.
    neg = [face for face in range(k) if signs[face] < 0]
    pos = [face for face in range(k) if signs[face] > 0]

    def face_level(face: int):
        lo_v, hi_v = rank[(face - 1) % k], rank[face]
        return min(lo_v, hi_v), max(lo_v, hi_v)

    neg.sort(key=face_level)
    pos.sort(key=face_level)
    return ArcDecomposition(
        minimum=minimum, maximum=maximum, neg_arc=tuple(neg), pos_arc=tuple(pos)
    )


def _moment_ranks(facts: _Facts, ybar: Vec3) -> list:
    """Rank of each vertex e_i / (R . e_i) of the pair by its Ybar-moment
    pi_i = (Ybar . e_i) / (R . e_i), tied vertices ranked equal.  With
    y = Ybar . e and (a, b) = (P . e, Q . e) the pair's pairing, every
    a + b sqrt(d) is positive (R is admissible), so pi_i < pi_j exactly when
    (y_i a_j - y_j a_i) + sqrt(d) (y_i b_j - y_j b_i) < 0."""
    y0, y1, y2 = ybar
    keys = [
        (y0 * e0 + y1 * e1 + y2 * e2, a, b)
        for (e0, e1, e2), (a, b) in zip(facts.rays, facts.pairs)
    ]
    d = facts.R.d

    def compare(i: int, j: int) -> int:
        yi, ai, bi = keys[i]
        yj, aj, bj = keys[j]
        return quad_sign(yi * aj - yj * ai, yi * bj - yj * bi, d)

    order = sorted(range(len(keys)), key=cmp_to_key(compare))
    rank = [0] * len(keys)
    r = 0
    for prev, cur in zip(order, order[1:]):
        if compare(prev, cur):
            r += 1
        rank[cur] = r
    return rank


def closure_identity_residual(
    cone: GoodCone, R: ReebVector, ybar: Vec3
) -> QuadNumber:
    """Exact residual of the polygon slope-closure identity; zero on every
    valid rank-2 instance.  The identity reads

        det(n2_top, n1_top, Y)/(k k) + det(n1_bot, n2_bot, Y)/(k k)
        - sum over arcs j, interior steps i of
          (+1 for the negative arc, -1 for the positive arc)
          det(n^j_{i+1}, n^j_i, Y)/(k^j_{i+1} k^j_i)  =  0

    with arcs ordered by increasing Ybar-moment (chain 1 = negative arc;
    these are sign labels, not the geometric labels of
    `euler.evaluate_identity`).  Ybar must be a transverse circle
    (`_checked_ybar`); any other vector raises DegenerateInput.  The terms
    are summed in Z (`ratio_sum`), and the result is built from that sum.
    """
    facts, ybar, arcs = _arc_data(cone, R, ybar)
    signs, normals = facts.signs, cone.normals

    def term(sgn, f1, f2):
        det = det3(normals[f1], normals[f2], ybar)
        return sgn * det, abs(signs[f1] * signs[f2])

    if not arcs.neg_arc or not arcs.pos_arc:
        raise InvalidCone("arc decomposition degenerate: empty boundary chain")
    c1, c2 = arcs.neg_arc, arcs.pos_arc
    terms = [term(1, c2[-1], c1[-1]), term(1, c1[0], c2[0])]
    for sgn, arc in ((-1, c1), (1, c2)):
        terms += [term(sgn, b, a) for a, b in zip(arc, arc[1:])]
    num, den = ratio_sum(terms)
    return QuadNumber(num, 0, R.d, den)
