"""Good cones in Z^3: validity, face adjacency, lens-space face invariants.

A cone is stored as a cyclically ordered tuple of primitive inward normals
(n^0, ..., n^k), oriented so det3(n^0, n^1, n^2) > 0.  Goodness means every
triple det3(n^i, n^{i+1}, n^j) is positive (cyclic convexity / correct face
order) and every adjacent pair extends to a Z-basis of Z^3.  `_is_good`
decides it in O(k): with c_i = n^i x n^{i+1} and h = sum c_i, (a) every c_i
is primitive, (b) every det3(n^i, n^{i+1}, n^{i+2}) > 0, (c) every
h . n^j > 0 and (d) the c_i wind exactly once around h.
"""

from __future__ import annotations

import math
import warnings
from typing import List, Optional, Tuple

from .exactnum import (
    DegenerateInput,
    DomainError,
    Mat3,
    Record,
    Vec3,
    _set,
    content,
    cross,
    delzant_witness,
    det3,
    int_triple,
    is_primitive,
    solve_dot_one,
)


class InvalidCone(DomainError, ValueError):
    """Raised when an operation requires a good cone and validation fails."""


class ValidityReport(Record):
    is_good: bool
    failures: Tuple[Tuple[str, Tuple[int, ...]], ...]


class FaceInvariants(Record):
    """Lens-space data of a face: order b of pi_1, Euler class f of the
    normal bundle as the canonical residue in [0, b), and the full gluing
    matrix between the two equivariant Heegaard trivializations."""

    b: int
    f: int
    gluing: Mat3

    def __init__(self, b: int, f: int, gluing: Mat3):
        _set(self, "b", b)
        _set(self, "f", f)
        _set(self, "gluing", gluing)


class GoodCone(Record):
    normals: Tuple[Vec3, ...]
    # Not fields, so outside ==, hash, repr, copy and pickle: the good
    # verdict set by `_verdict`, the pair witnesses that `_pair_witness`
    # keeps and the edge rays that `edge_rays` keeps.
    _good = False
    _witnesses = None
    _rays = None

    def __init__(self, normals):
        # tuple() of a list allocates once at the final length; tuple() of a
        # generator resizes as it grows, and on this hot path (every surgery
        # builds a cone) those resizes fragment the heap and peak RSS grows
        # with the number of cones built.
        normals = tuple([int_triple(n) for n in normals])
        for n in normals:
            if not is_primitive(n):
                raise DegenerateInput(f"normal {n} is not primitive")
        _set(self, "normals", normals)

    def __len__(self):
        return len(self.normals)

    def normal(self, i: int) -> Vec3:
        return self.normals[i % len(self.normals)]


def load_cone(normals) -> GoodCone:
    """Build a GoodCone from raw normal lists, enforcing primitivity and the
    orientation convention det3(n^0, n^1, n^2) > 0 (reversing with a warning
    when the input is oriented the other way)."""
    cone = GoodCone(tuple(normals))
    if len(cone) < 3:
        raise DegenerateInput("a cone needs at least 3 normals")
    if det3(*cone.normals[:3]) < 0:
        warnings.warn("normals reversed to match the orientation convention")
        cone = GoodCone(cone.normals[::-1])
    return cone


_GOOD = ValidityReport(is_good=True, failures=())


def validate(cone: GoodCone) -> ValidityReport:
    """Goodness check: positive convexity determinants for all cyclic triples
    (n^i, n^{i+1}, n^j) and a Delzant witness for every adjacent pair.
    `_is_good` decides it in O(k) by (a)-(d) of the module docstring; only a
    cone that is not good pays for the O(k^2) report, in which zero
    determinants are face-order failures (improper face structure) and
    negative ones convexity failures.  It records nothing on the cone.
    """
    normals = cone.normals
    if len(normals) < 3:
        raise DegenerateInput("a cone needs at least 3 normals")
    if _is_good(normals):
        return _GOOD
    return _report(normals)


def _is_good(normals: Tuple[Vec3, ...]) -> bool:
    """(a)-(d) of the module docstring; they hold iff the cone is good.

    (c) is necessary: in a good cone c_i pairs >= 0 with every normal and
    > 0 off faces i, i+1.  Given (c), the central projection onto
    {h . v = 1} keeps every det3 sign, so (b) makes every turn of the
    projected polygon a left turn, and goodness says it is strictly convex.
    The part of c_i orthogonal to h is edge i turned by a right angle, so
    (d) says the turning number is 1; a closed polygon whose turns are all
    left and whose turning number is 1 is strictly convex (Preparata-Shamos,
    Computational Geometry, 1985).  (d) is counted in integers: each c_i is
    upper (e2 . c > 0, or e2 . c = 0 < e1 . c) or lower, and every step
    turns by less than pi, as det3(h, c_i, c_{i+1}) =
    det3(n^i, n^{i+1}, n^{i+2}) (h . n^{i+1}) > 0, so the winding number is
    the number of cyclic steps from lower to upper.
    """
    crosses = []
    hx = hy = hz = 0
    for (ax, ay, az), (bx, by, bz), (x, y, z) in zip(
        normals, normals[1:] + normals[:1], normals[2:] + normals[:2]
    ):
        cx, cy, cz = ay * bz - az * by, az * bx - ax * bz, ax * by - ay * bx
        if cx * x + cy * y + cz * z <= 0 or math.gcd(cx, cy, cz) != 1:
            return False
        crosses.append((cx, cy, cz))
        hx, hy, hz = hx + cx, hy + cy, hz + cz
    if any(hx * x + hy * y + hz * z <= 0 for x, y, z in normals):
        return False
    ax, ay, az = abs(hx), abs(hy), abs(hz)
    if ax <= ay and ax <= az:  # e1 = h x (the axis of least |h_j|), e2 = h x e1
        ux, uy, uz = 0, hz, -hy
    elif ay <= az:
        ux, uy, uz = -hz, 0, hx
    else:
        ux, uy, uz = hy, -hx, 0
    vx, vy, vz = hy * uz - hz * uy, hz * ux - hx * uz, hx * uy - hy * ux
    wraps, was_upper = 0, True
    for cx, cy, cz in crosses[-1:] + crosses:
        s = vx * cx + vy * cy + vz * cz
        upper = s > 0 or (s == 0 and ux * cx + uy * cy + uz * cz > 0)
        wraps += upper and not was_upper
        was_upper = upper
    return wraps == 1


def _report(normals: Tuple[Vec3, ...]) -> ValidityReport:
    """In O(k^2): every failing triple, then every non-Delzant pair."""
    k = len(normals)
    failures: List[Tuple[str, Tuple[int, ...]]] = []
    delzant: List[Tuple[str, Tuple[int, ...]]] = []
    for i in range(k):
        i1 = (i + 1) % k
        # det3(n^i, n^{i+1}, n^j) = c . n^j; it is 0 for j in (i, i+1).
        c = cross(normals[i], normals[i1])
        c0, c1, c2 = c
        for j, (x, y, z) in enumerate(normals):
            d = c0 * x + c1 * y + c2 * z
            if d <= 0 and j != i and j != i1:
                failures.append(("face-order" if d == 0 else "convexity-det", (i, j)))
        # The pair extends to a Z-basis iff its 2x2 minors are coprime.
        if content(c) != 1:
            delzant.append(("delzant-pair", (i,)))
    failures += delzant
    return ValidityReport(is_good=not failures, failures=tuple(failures))


def require_valid(cone: GoodCone) -> None:
    """Raise InvalidCone with `validate`'s report unless the cone is good."""
    report = _verdict(cone)
    if not report.is_good:
        raise InvalidCone(f"cone is not good: {report.failures[:4]}", report)


def _verdict(cone: GoodCone) -> ValidityReport:
    """The validity report of a cone object; the one reader and writer of
    its verdict.  A cone that carries a good verdict is reported good at
    once; otherwise `validate` reports, and a good report is recorded on
    the cone, so a cone object is validated at most once.  A cone that is
    not good is never recorded and is reported again on every call."""
    if cone._good:
        return _GOOD
    report = validate(cone)
    if report.is_good:
        object.__setattr__(cone, "_good", True)
    return report


def edge_ray(cone: GoodCone, i: int) -> Vec3:
    """Primitive inward edge ray between faces i and i+1 (`edge_rays`).

    For a good cone the cross product of an adjacent pair is itself
    primitive (the pair is Delzant), and convexity makes it pair
    positively with every other normal.
    """
    rays = edge_rays(cone)
    return rays[i % len(rays)]


def edge_rays(cone: GoodCone) -> Tuple[Vec3, ...]:
    """The edge rays of every adjacent pair, ray i between faces i and
    i+1: the one reader and writer of the cone's own tuple, built by
    `_ray_table` on the first call."""
    rays = cone._rays
    if rays is None:
        rays = _ray_table(cone.normals)
        object.__setattr__(cone, "_rays", rays)
    return rays


def _ray_table(normals: Tuple[Vec3, ...]) -> Tuple[Vec3, ...]:
    """`cross_primitive` of each cyclically adjacent pair, in one integer
    pass; a parallel pair raises its DegenerateInput."""
    rays = []
    for (ax, ay, az), (bx, by, bz) in zip(normals, normals[1:] + normals[:1]):
        cx, cy, cz = ay * bz - az * by, az * bx - ax * bz, ax * by - ay * bx
        g = math.gcd(cx, cy, cz)
        if g == 0:
            raise DegenerateInput(f"parallel vectors {(ax, ay, az)}, {(bx, by, bz)}")
        rays.append((cx, cy, cz) if g == 1 else (cx // g, cy // g, cz // g))
    return tuple(rays)


def _frame_change(left, right) -> Mat3:
    """left^{-1} right for two frames given as column triples; left must be
    unimodular, so its inverse is its Cramer rows (a2 x a3, a3 x a1,
    a1 x a2) times its determinant."""
    (a0, a1, a2), (b0, b1, b2), (c0, c1, c2) = left
    r0, r1, r2 = b1 * c2 - b2 * c1, b2 * c0 - b0 * c2, b0 * c1 - b1 * c0
    s0, s1, s2 = c1 * a2 - c2 * a1, c2 * a0 - c0 * a2, c0 * a1 - c1 * a0
    t0, t1, t2 = a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0
    d = a0 * r0 + a1 * r1 + a2 * r2
    assert d in (1, -1), f"frame determinant {d} is not +-1"
    if d < 0:
        r0, r1, r2, s0, s1, s2, t0, t1, t2 = -r0, -r1, -r2, -s0, -s1, -s2, -t0, -t1, -t2
    (x0, x1, x2), (y0, y1, y2), (z0, z1, z2) = right
    return (
        (r0 * x0 + r1 * x1 + r2 * x2, r0 * y0 + r1 * y1 + r2 * y2, r0 * z0 + r1 * z1 + r2 * z2),
        (s0 * x0 + s1 * x1 + s2 * x2, s0 * y0 + s1 * y1 + s2 * y2, s0 * z0 + s1 * z1 + s2 * z2),
        (t0 * x0 + t1 * x1 + t2 * x2, t0 * y0 + t1 * y1 + t2 * y2, t0 * z0 + t1 * z1 + t2 * z2),
    )


def _adjacent_triple(cone: GoodCone, i: int) -> Tuple[Vec3, Vec3, Vec3]:
    """(n^{i-1}, n^i, n^{i+1}), the normals around face i."""
    return cone.normal(i - 1), cone.normal(i), cone.normal(i + 1)


def _convex_order(i: int, n1: Vec3, n2: Vec3, n3: Vec3) -> int:
    """The convexity check of face i's adjacent triple: b = det3(n1, n2, n3),
    which must be positive."""
    b = det3(n1, n2, n3)
    if b <= 0:
        raise InvalidCone(f"faces {i-1},{i},{i+1} are not a convex triple")
    return b


def _pair_witness(cone: GoodCone, j: int) -> Optional[Vec3]:
    """The canonical witness l of the pair (n^j, n^{j+1}),
    det3(n^j, n^{j+1}, l) = 1 (`delzant_witness`), or None when the pair
    is not Delzant; the one reader and writer of the cone's witness table,
    whose entry j is that witness once it has been read.  A walk over all
    faces, by `face_invariants` or by the blow-down search, computes each
    pair once."""
    table = cone._witnesses
    if table is None:
        table = [None] * len(cone)
        object.__setattr__(cone, "_witnesses", table)
    j %= len(cone)
    w = table[j]
    if w is None:
        w = table[j] = delzant_witness(cone.normals[j], cone.normal(j + 1))
    return w


def _face_witnesses(cone: GoodCone, i: int) -> Tuple[Vec3, Vec3]:
    """The canonical witnesses (l1, l2) of face i's adjacent pairs:
    det3(n^{i-1}, n^i, l1) = 1 and det3(n^i, n^{i+1}, l2) = 1
    (`_pair_witness`).  It does not check convexity: `gluing_matrix` reads
    it on any triple."""
    l2 = _pair_witness(cone, i)
    l1 = _pair_witness(cone, i - 1)
    if l1 is None or l2 is None:
        raise InvalidCone(f"adjacent pair at face {i} has no Delzant witness")
    return l1, l2


def face_invariants(cone: GoodCone, i: int) -> FaceInvariants:
    """Invariants of the lens space over face i, from the adjacent triple
    (n^{i-1}, n^i, n^{i+1}) in the roles (n1, n2, n3):

        b = det3(n1, n2, n3)
        f = det3(n1, n3, l2) mod b,   det3(n3, l2, n2) = 1
        gluing = (l2, n3, n2)^{-1} (l1, n1, n2),  det3(l1, n1, n2) = 1

    b and f depend on the triple alone: any other witness l2 + s n2 + t n3
    moves det3(n1, n3, l2) by s det3(n1, n3, n2) = -s b.  The gluing is one
    frame change between the frames of the canonical witnesses
    (`_face_witnesses`), both of determinant -1.
    b equals |gluing[0][1]| and f ≡ gluing[2][1] (mod b); the upper-left 2x2
    block of the gluing matrix is a Heegaard attaching map of determinant -1.
    """
    n1, n2, n3 = _adjacent_triple(cone, i)
    b = _convex_order(i, n1, n2, n3)
    l1, l2 = _face_witnesses(cone, i)
    # det3(n2, n3, l2) = 1 gives det3(n3, l2, n2) = 1 by cyclic permutation,
    # and det3(n1, n2, l1) = 1 gives det3(l1, n1, n2) = 1.
    f = det3(n1, n3, l2) % b
    gluing = _frame_change((l2, n3, n2), (l1, n1, n2))
    assert abs(gluing[0][1]) == b and (gluing[2][1] - f) % b == 0
    heegaard = gluing[0][0] * gluing[1][1] - gluing[0][1] * gluing[1][0]
    assert heegaard == -1
    return FaceInvariants(b=b, f=f, gluing=gluing)


def _normal_euler_residues(cone: GoodCone, i: int) -> Tuple[int, int, int]:
    """(b, f, f_rev) of face i without a canonical witness: with (n1, n2, n3)
    its adjacent triple and b = det3(n1, n2, n3), each residue is
    det3(n1, n3, l) mod b for the witness l = solve_dot_one(n2 x n3) of
    (n2, n3) for f (the f of `face_invariants`, which any witness gives) and
    l = solve_dot_one(n1 x n2) of (n1, n2) for f_rev."""
    n1, n2, n3 = _adjacent_triple(cone, i)
    b = _convex_order(i, n1, n2, n3)
    f, f_rev = (det3(n1, n3, solve_dot_one(w)) % b for w in (cross(n2, n3), cross(n1, n2)))
    return b, f, f_rev


def can_blowdown_to_orbit(cone: GoodCone, i: int) -> bool:
    """True iff the face-i lens space can be blown down to a closed orbit:
    the normal Euler class generates H^2, i.e. gcd(b, f) = 1 (gcd(b,0)=b)."""
    inv = face_invariants(cone, i)
    return math.gcd(inv.b, inv.f) == 1


def gluing_matrix(cone: GoodCone, i: int) -> Mat3:
    """Transition matrix T of the consecutive-witness relation

        (n^{i+2}, l^{i+1}, n^{i+1}) = (n^i, l^i, n^{i+1}) T

    with l^j the canonical witness of the pair (n^j, n^{j+1}), so l^i and
    l^{i+1} are the witnesses (l1, l2) of face i+1; the triple need not be
    convex.  T is integer with third column (0, 0, 1); its (2,1) and (3,1)
    entries are the c_i, e_i whose common factor obstructs deleting face i+1
    (gcd(c_i, e_i) is independent of the witness choices)."""
    ni, ni1, ni2 = _adjacent_triple(cone, i + 1)
    li, li1 = _face_witnesses(cone, i + 1)
    t = _frame_change((ni, li, ni1), (ni2, li1, ni1))
    assert tuple(row[2] for row in t) == (0, 0, 1)
    return t
