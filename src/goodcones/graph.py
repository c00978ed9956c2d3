"""Graphs of isotropy data: extraction from (cone, Reeb) pairs, canonical
form and isomorphism under GL(2,Z) re-framings of the torus, chain counting,
the toric-condition checker, and fiber-sum assembly from germs of chains.

A graph is stored as two extreme vertices (fat = 3-dimensional component,
regular = isolated closed orbit) joined by an unordered collection of
chains; each chain is the ordered list of its edges (lens spaces with
isotropy order >= 2) and interior vertices (closed orbits), from the
minimum to the maximum.  Free lens spaces are not recorded: they carry no
isotropy data.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

from .cone import GoodCone, _normal_euler_residues, validate
from .construct import close_chain_normals
from .exactnum import (
    DegenerateInput,
    DomainError,
    QuadNumber,
    Record,
    Vec3,
    _set,
    _xgcd,
    det3,
    dot,
    int_triple,
    ratio_text,
)
from .reeb import (
    ReebVector,
    _arc_data,
    _chain_facts,
    _lie_g_integers,
    _vertex,
    _vertex_between,
    reeb_lie_g_coords,
)


class GraphAssemblyError(DomainError, ValueError):
    pass


class FiniteCyclicSubgroup(Record):
    """Finite cyclic subgroup of T^2 = (Q/Z)^2 generated by (a, b)/order,
    stored by its order and the integer residues (a, b) mod the order.

    `canonical` finds the lexicographically smallest generator of exact
    order in closed form rather than by scanning the units j mod the order.
    Write it as (a, b)/m with m its exact order, so gcd(a, b, m) = 1.  Units
    mod m surject onto units mod any divisor, so the least first coordinate
    over j*(a, b) is g = gcd(a, m), reached exactly when j = j0 mod h, with
    h = m/g and j0 = (a/g)^-1 mod h.  Those j give second coordinates
    c + h*r, with c = j0*b mod h, and each r in 0..g-1 comes from one j mod
    m, because gcd(b, g) = 1.  The least r whose j is a unit wins; the r
    skipped are bounded by Jacobsthal's function of m."""

    order: int
    residues: Tuple[int, int]

    def __init__(self, order: int, residues: Tuple[int, int]):
        a, b = residues
        if type(order) is not int or type(a) is not int or type(b) is not int:
            raise TypeError(f"order and residues must be int, got {order!r}, {a!r}, {b!r}")
        if order < 1:
            raise ValueError("order must be positive")
        _set(self, "order", order)
        _set(self, "residues", (a % order, b % order))

    @property
    def generator(self) -> Tuple[Fraction, Fraction]:
        """The generator (a, b)/order as two Fractions in [0, 1)."""
        return tuple(Fraction(x, self.order) for x in self.residues)

    def canonical(self) -> "FiniteCyclicSubgroup":
        return _canonical_subgroup(self.order, *self.residues)

    def transformed(self, a) -> "FiniteCyclicSubgroup":
        n = self.order
        return _canonical_subgroup(n, *(x % n for x in _apply_matrix(a, self.residues)))


def _canonical_subgroup(n: int, a: int, b: int) -> FiniteCyclicSubgroup:
    """Canonical form of the subgroup of order n generated by (a, b)/n, for
    residues 0 <= a, b < n, computed in integers (see FiniteCyclicSubgroup)."""
    e = math.gcd(a, b, n)
    m = n // e
    a, b = a // e, b // e
    g = math.gcd(a, m)
    h = m // g
    j0 = pow(a // g, -1, h)
    c = j0 * b % h
    q = (j0 * b % m - c) // h
    b_inv = pow(b, -1, g)
    # j = j0 + h*t reaches second coordinate c + h*r for t = (r - q)/b mod g
    r = 0
    while math.gcd(j0 + h * ((r - q) * b_inv % g), m) != 1:
        r += 1
    return FiniteCyclicSubgroup(n, ((g % m) * e, (c + h * r) * e))


class FatVertex(Record):
    """3-dimensional extreme: isotropy circle direction in Lie(G)_Z
    coordinates, Seifert data (genus, exceptional multiplicities, orbifold
    Euler number), and the normal Euler class as a residue (b, f).

    normal_euler_rev is the same Euler class read in the reversed cyclic
    orientation: `reversed_euler_residue`, det3(n^{i-1}, n^{i+1}, l) mod b
    for any witness l of the pair (n^{i-1}, n^i), where f is
    det3(n^{i-1}, n^{i+1}, l') mod b for any witness l' of (n^i, n^{i+1}).
    The canonical form minimizes over the two readings so that
    orientation-reversing re-coordinatizations of the cone produce
    isomorphic graphs."""

    direction: Tuple[int, int]
    genus: int
    multiplicities: Tuple[int, ...]
    orbifold_euler: Fraction
    normal_euler: Tuple[int, int]
    normal_euler_rev: int

    def __init__(
        self,
        direction: Tuple[int, int],
        genus: int,
        multiplicities: Tuple[int, ...],
        orbifold_euler: Fraction,
        normal_euler: Tuple[int, int],
        normal_euler_rev: int,
    ):
        _set(self, "direction", direction)
        _set(self, "genus", genus)
        _set(self, "multiplicities", multiplicities)
        _set(self, "orbifold_euler", orbifold_euler)
        _set(self, "normal_euler", normal_euler)
        _set(self, "normal_euler_rev", normal_euler_rev)


class RegularVertex(Record):
    """Closed-orbit vertex: component-group order and the primitive
    direction of the isotropy circle in Lie(G)_Z coordinates (the subgroup
    is the preimage of the unique Z/order of the quotient circle, so these
    two data determine it)."""

    order: int
    direction: Tuple[int, int]

    def __init__(self, order: int, direction: Tuple[int, int]):
        _set(self, "order", order)
        _set(self, "direction", direction)


class EdgeItem(Record):
    """Lens space with isotropy order >= 2 along a chain."""

    multiplicity: int
    isotropy: FiniteCyclicSubgroup

    def __init__(self, multiplicity: int, isotropy: FiniteCyclicSubgroup):
        _set(self, "multiplicity", multiplicity)
        _set(self, "isotropy", isotropy)


Extreme = object  # FatVertex | RegularVertex
ChainItem = object  # EdgeItem | RegularVertex


class IsotropyGraph(Record):
    reeb_class: Tuple[QuadNumber, QuadNumber]
    minimum: Extreme
    maximum: Extreme
    chains: Tuple[Tuple[ChainItem, ...], ...]

    @property
    def fat_vertices(self) -> Tuple[FatVertex, ...]:
        return tuple(v for v in (self.minimum, self.maximum) if isinstance(v, FatVertex))

    @property
    def edges(self) -> Tuple[EdgeItem, ...]:
        return tuple(
            item for ch in self.chains for item in ch if isinstance(item, EdgeItem)
        )


def _canonical_sign(v: Tuple[int, int]) -> Tuple[int, int]:
    for x in v:
        if x > 0:
            return v
        if x < 0:
            return (-v[0], -v[1])
    raise DegenerateInput("zero direction")


def _edge_isotropy(profile, normals, face: int) -> FiniteCyclicSubgroup:
    """Subgroup of T^2 cut out by the face's lens space: generated by
    (1/k) n - sigma m in Lie(G), with m the lattice complement of v0 and
    sigma the sign of s = v0 . n, so k sigma = s.  Its residues mod k are
    the integer coordinates of the lattice vector n - s m of Lie(G)."""
    n = normals[face % len(normals)]
    s = dot(profile.v0, n)
    k = abs(s)
    m = profile.complement
    a, b = _lie_g_integers(profile, tuple(n[j] - s * m[j] for j in range(3)))
    return _canonical_subgroup(k, a % k, b % k)


def reversed_euler_residue(cone: GoodCone, face: int) -> int:
    """The face's normal Euler class read against the reversed cyclic
    orientation, det3(n^{i-1}, n^{i+1}, l) mod b for any witness l of the
    pair (n^{i-1}, n^i) and b = det3(n^{i-1}, n^i, n^{i+1}).

    It is face_invariants' f on the orientation-reversed mirror image of
    the cone, where face i has the adjacent triple (M n^{i+1}, M n^i,
    M n^{i-1}) for a reflection M, and M l witnesses the pair (M n^i,
    M n^{i-1}).  Another witness l + s n^{i-1} + t n^i moves the
    determinant by t det3(n^{i-1}, n^{i+1}, n^i) = -t b.  Read, like the
    fat vertices' (b, f), from `cone._normal_euler_residues`."""
    return _normal_euler_residues(cone, face)[2]


def _fat(
    direction, genus: int, ends: Sequence[int], b: int, f: int, f_rev: int
) -> FatVertex:
    """The one builder of fat vertices, for closed cones and germs alike:
    `ends` are the isotropy orders of the faces next to the flat face, one
    per chain leaving it; those >= 2 are the exceptional multiplicities, and
    the orbifold Euler number is -b over their product."""
    return FatVertex(
        direction=_canonical_sign(tuple(direction)),
        genus=genus,
        multiplicities=tuple(sorted(x for x in ends if x >= 2)),
        orbifold_euler=Fraction(-b, math.prod(ends)),
        normal_euler=(b, f),
        normal_euler_rev=f_rev,
    )


def _regular_vertex(profile, circles, v: int) -> RegularVertex:
    """The one builder of regular vertices: the closed orbit at the polygon
    vertex between faces v and v+1, of order gcd(k_v, k_{v+1}), whose
    circle is circles[v] (`reeb._Facts.circles`)."""
    return RegularVertex(
        order=profile.vertex_orders[v],
        direction=_canonical_sign(circles[v]),
    )


def extract_graph(
    cone: GoodCone, R: ReebVector, ybar: Optional[Vec3] = None
) -> IsotropyGraph:
    """Graph of isotropy data of the rank-2 pair: fat vertices for flat
    faces, regular vertices for polygon vertices away from flats, edges for
    faces with isotropy order >= 2, chains ordered by the canonical
    transverse moment functional, and the Reeb class in Lie(G)_Z
    coordinates."""
    facts, _, arcs = _arc_data(cone, R, ybar)
    profile, circles = facts.profile, facts.circles

    def extreme(ext) -> Extreme:
        i = ext.index
        if ext.kind == "flat":
            return _fat(
                _lie_g_integers(profile, cone.normal(i)),
                0,
                (profile.k[(i - 1) % len(cone)], profile.k[(i + 1) % len(cone)]),
                *_normal_euler_residues(cone, i),
            )
        return _regular_vertex(profile, circles, i)

    chains = tuple(
        _chain_items(profile, cone.normals, circles, arc) for arc in (arcs.neg_arc, arcs.pos_arc)
    )
    return IsotropyGraph(
        reeb_class=reeb_lie_g_coords(profile, R),
        minimum=extreme(arcs.minimum),
        maximum=extreme(arcs.maximum),
        chains=tuple(ch for ch in chains if ch),
    )


def _chain_items(profile, normals, circles, faces) -> Tuple[ChainItem, ...]:
    """Edges (faces with isotropy order >= 2) and interior vertices of one
    boundary chain, whose faces are consecutive in the cyclic order and are
    listed from the minimum to the maximum; circles[v] is the circle at
    the vertex between faces v and v+1."""
    items: List[ChainItem] = []
    for pos, face in enumerate(faces):
        kf = profile.k[face]
        if kf >= 2:
            items.append(
                EdgeItem(multiplicity=kf, isotropy=_edge_isotropy(profile, normals, face))
            )
        if pos + 1 < len(faces):
            v = _vertex_between(face, faces[pos + 1], len(normals))
            items.append(_regular_vertex(profile, circles, v))
    return tuple(items)


def count_nontrivial_chains(g: IsotropyGraph) -> int:
    """Chains carrying at least one edge or one interior vertex; empty
    boundary chains are never stored."""
    return len(g.chains)


# ---------------------------------------------------------------------------
# Canonical form and isomorphism.
# ---------------------------------------------------------------------------


def _hnf_2x2(m: Tuple[Tuple[int, int], Tuple[int, int]]):
    """Column-style Hermite form: unique U in GL(2,Z) with M U = H,
    H = [[h00, 0], [h10, h11]], h00 > 0, h11 > 0, 0 <= h10 < h11.
    Returns (H, U); M must be nonsingular.

    In closed form from the first row (a, b): with x a + y b = g = gcd(a, b),
    U0 = [[x, -b/g], [y, a/g]] has det 1 and M U0 = [[g, 0], [h10, det M / g]];
    then column 1 takes the sign of det M and column 0 drops h10 // h11
    copies of it.  H is unique for nonsingular M, so U = M^-1 H is too."""
    (a, b), (c, d) = m
    det = a * d - b * c
    if det == 0:
        raise DegenerateInput("singular matrix in HNF")
    g, x, y = _xgcd(a, b)
    sign = 1 if det > 0 else -1
    u01, u11 = -sign * b // g, sign * a // g
    h10, h11 = c * x + d * y, c * u01 + d * u11
    q = h10 // h11
    u00, u10 = x - q * u01, y - q * u11
    return ((g, 0), (h10 - q * h11, h11)), ((u00, u01), (u10, u11))


def reeb_frame_matrix(g: IsotropyGraph):
    """The unique A in GL(2,Z) whose action on the Reeb class produces the
    canonical (Hermite) frame; two graphs can only be isomorphic via the
    composite of their frame matrices since a rank-2 Reeb class has trivial
    GL(2,Z) stabilizer."""
    r1, r2 = g.reeb_class
    # Let P have columns p and q; we want A with A P in (left) Hermite
    # form, i.e. P^T U in column Hermite form and A = U^T.  The rows of
    # P^T, the rational and the irrational parts, are the two values'
    # integer parts over their common denominator.
    n1, n2 = r1.den, r2.den
    g = math.gcd(n1, n2)
    s1, s2 = n2 // g, n1 // g
    _, u = _hnf_2x2(((r1.a * s1, r2.a * s2), (r1.b * s1, r2.b * s2)))
    return ((u[0][0], u[1][0]), (u[0][1], u[1][1]))


def _apply_matrix(a, v):
    """A v for a 2x2 integer A and a pair v of integers or QuadNumbers."""
    return (a[0][0] * v[0] + a[0][1] * v[1], a[1][0] * v[0] + a[1][1] * v[1])


def transform_graph(g: IsotropyGraph, a) -> IsotropyGraph:
    """Image of the graph under A in GL(2,Z) acting on all torus data."""

    def tr_extreme(v):
        direction = _canonical_sign(_apply_matrix(a, v.direction))
        if isinstance(v, FatVertex):
            return FatVertex(
                direction,
                v.genus,
                v.multiplicities,
                v.orbifold_euler,
                v.normal_euler,
                v.normal_euler_rev,
            )
        return RegularVertex(order=v.order, direction=direction)

    def tr_item(item):
        if isinstance(item, EdgeItem):
            return EdgeItem(item.multiplicity, item.isotropy.transformed(a))
        return tr_extreme(item)

    return IsotropyGraph(
        reeb_class=_apply_matrix(a, g.reeb_class),
        minimum=tr_extreme(g.minimum),
        maximum=tr_extreme(g.maximum),
        chains=tuple(tuple(tr_item(i) for i in ch) for ch in g.chains),
    )


def _encode_quad(x: QuadNumber) -> str:
    n = x.den
    return f"{ratio_text(x.a, n)}|{ratio_text(x.b, n)}|{x.d}"


def _encode_extreme(v, reversed_reading: bool = False) -> list:
    if isinstance(v, FatVertex):
        f = v.normal_euler_rev if reversed_reading else v.normal_euler[1]
        return [
            "fat",
            list(v.direction),
            v.genus,
            list(v.multiplicities),
            str(v.orbifold_euler),
            [v.normal_euler[0], f],
        ]
    return ["regular", v.order, list(v.direction)]


def _encode_item(item) -> list:
    # Edge isotropies are canonical here: transform_graph canonicalizes them.
    if isinstance(item, EdgeItem):
        iso = item.isotropy
        n = iso.order
        return ["edge", item.multiplicity, n, [ratio_text(x, n) for x in iso.residues]]
    return ["vertex", item.order, list(item.direction)]


def canonical_form(g: IsotropyGraph) -> str:
    """Deterministic encoding, invariant under relabeling (chain order and
    min/max flip), under the GL(2,Z) action on all torus data, and under
    reversing the cyclic reading of the fat vertices' Euler residues.  The
    graph is encoded once, in its Reeb frame; the min/max flip swaps the
    encoded extremes and reverses each encoded chain."""
    base = transform_graph(g, reeb_frame_matrix(g))
    reeb = [_encode_quad(x) for x in base.reeb_class]
    chains = [[_encode_item(i) for i in ch] for ch in base.chains]
    extremes = (base.minimum, base.maximum)
    # A regular extreme reads the same both ways, so the reversed reading is
    # a second variant only when an extreme is fat.
    readings = [[_encode_extreme(v) for v in extremes]]
    if any(isinstance(v, FatVertex) for v in extremes):
        readings.append(
            [
                _encode_extreme(v, reversed_reading=True) if isinstance(v, FatVertex) else e
                for v, e in zip(extremes, readings[0])
            ]
        )
    variants = []
    for flip in (False, True):
        encoded = sorted(json.dumps(ch[::-1] if flip else ch) for ch in chains)
        for low, high in readings:
            if flip:
                low, high = high, low
            payload = {"reeb": reeb, "min": low, "max": high, "chains": encoded}
            variants.append(json.dumps(payload, sort_keys=True, separators=(",", ":")))
    return min(variants)


def isomorphic(g1: IsotropyGraph, g2: IsotropyGraph) -> bool:
    return canonical_form(g1) == canonical_form(g2)


# ---------------------------------------------------------------------------
# Toric condition checker.
# ---------------------------------------------------------------------------


def toric_condition_check(
    v_min: Tuple[int, int], v_max: Tuple[int, int]
) -> Optional[Tuple[int, int]]:
    """The integer v in the open cone between v_min and v_max with
    |det2(v, v_min)| = |det2(v, v_max)| = 1 (both pairs Z-bases), or None.

    Inside the cone the two determinants have the sign of D = det2(v_min,
    v_max), and writing v = a v_min + b v_max they are b D and a D; so the
    only candidate is v = (v_min + v_max) / |D|, a solution when integral."""
    D = v_min[0] * v_max[1] - v_min[1] * v_max[0]
    if D == 0:
        raise DegenerateInput("v_min, v_max must be linearly independent")
    x, y = v_min[0] + v_max[0], v_min[1] + v_max[1]
    if x % D or y % D:
        return None
    return (x // abs(D), y // abs(D))


# ---------------------------------------------------------------------------
# Fiber sums.
# ---------------------------------------------------------------------------


class GermOfChain(Record):
    """Chain germ with flat faces at both ends: the ordered face normals
    (first and last orthogonal to the Reeb plane) and the Reeb vector."""

    normals: Tuple[Vec3, ...]
    reeb: ReebVector

    def __init__(self, normals: Tuple[Vec3, ...], reeb: ReebVector):
        _set(self, "normals", tuple([int_triple(n) for n in normals]))
        _set(self, "reeb", reeb)
        if len(self.normals) < 3:
            raise GraphAssemblyError("a germ needs flat ends and an interior")


class LensBundleDescriptor(Record):
    """Combinatorial data of a lens space bundle over a closed surface:
    base genus, the Reeb class in Lie(G)_Z coordinates, the two extreme
    moment values of the fiber, and the decorations of the two fat
    vertices (isotropy direction and normal Euler data)."""

    genus: int
    reeb_class: Tuple[QuadNumber, QuadNumber]
    moment_min: Tuple[QuadNumber, QuadNumber]
    moment_max: Tuple[QuadNumber, QuadNumber]
    fat_min: tuple  # (direction, (b, f), f_reversed_reading)
    fat_max: tuple


def germ_profile(germ: GermOfChain):
    """Profile of a germ (v0, per-face isotropy magnitudes, the Lie(G)
    frame) and the two end moment values (constant on each flat end
    segment, computable from the inner vertices alone)."""
    facts, moment_min, moment_max = _germ_facts(germ)
    return {"profile": facts.profile, "moment_min": moment_min, "moment_max": moment_max}


def _germ_facts(germ: GermOfChain):
    """The record of the germ's Reeb vector against its open chain of
    normals (`reeb._chain_facts`), checked to have flat ends and no flat
    interior face, and the moment values of the two end vertices e / (R . e).
    R does not vanish on an end ray e: R . e = 0 would put e, for a rank-2
    R, on the line of v0, so both normals of e would be flat, and one of
    them is interior."""
    R = germ.reeb
    facts = _chain_facts(R, germ.normals)
    k = facts.profile.k
    if k[0] != 0 or k[-1] != 0:
        raise GraphAssemblyError("germ ends must be flat (v0 . n = 0)")
    if any(x == 0 for x in k[1:-1]):
        raise GraphAssemblyError("germ interior must not contain flats")
    u1, u2 = facts.profile.lieG_basis
    moments = []
    for v in (0, -1):
        (a, b), ray = facts.pairs[v], facts.rays[v]
        p = _vertex(R, ray, a, b)
        moments.append((dot(p, u1), dot(p, u2)))
    return facts, moments[0], moments[1]


def validate_germ(germ: GermOfChain) -> None:
    """Realizability: consecutive triples convex, and the chain closes to a
    good cone (`close_chain_normals`); `validate` of the closed cone decides the
    adjacent pairs' Delzant condition with the rest of goodness."""
    ns = germ.normals
    for a, b, c in zip(ns, ns[1:], ns[2:]):
        if det3(a, b, c) <= 0:
            raise GraphAssemblyError(f"germ triple {a},{b},{c} is not convex")
    closing = close_chain_normals(ns)
    closed = GoodCone(tuple(ns) + (closing,))
    rep = validate(closed)
    if not rep.is_good:
        raise GraphAssemblyError(f"germ does not close to a good cone: {rep.failures[:3]}")


def assemble_fiber_sum(
    bundle: LensBundleDescriptor, germs: Sequence[GermOfChain]
) -> IsotropyGraph:
    """Isotropy graph of the fiber sum: two fat vertices carrying the base
    genus and the union of the germs' end multiplicities, one chain per
    germ.  Germs must have flat ends and fibers matching the bundle (same
    Reeb class and extreme moment values, exactly)."""
    ends_min: List[int] = []
    ends_max: List[int] = []
    chains: List[Tuple[ChainItem, ...]] = []
    for germ in germs:
        validate_germ(germ)
        facts, moment_min, moment_max = _germ_facts(germ)
        profile = facts.profile
        if reeb_lie_g_coords(profile, germ.reeb) != bundle.reeb_class:
            raise GraphAssemblyError("germ Reeb class does not match the bundle fiber")
        if moment_min != bundle.moment_min or moment_max != bundle.moment_max:
            raise GraphAssemblyError("germ extreme moment values do not match the bundle")
        k = profile.k
        ends_min.append(k[1])
        ends_max.append(k[-2])
        chains.append(_chain_items(profile, germ.normals, facts.circles, range(1, len(k) - 1)))

    def fat(data, ends) -> FatVertex:
        direction, (b, f), f_rev = data
        return _fat(direction, bundle.genus, ends, b, f, f_rev)

    return IsotropyGraph(
        reeb_class=bundle.reeb_class,
        minimum=fat(bundle.fat_min, ends_min),
        maximum=fat(bundle.fat_max, ends_max),
        chains=tuple(ch for ch in chains if ch),
    )
