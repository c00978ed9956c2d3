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
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

from .cone import GoodCone, InvalidCone, face_invariants, validate
from .construct import close_chain_normals
from .exactnum import (
    DegenerateInput,
    QuadNumber,
    Vec3,
    cross,
    cross_primitive,
    det3,
    dot,
    is_delzant_pair,
    solve_dot_one,
)
from .reeb import (
    ReebVector,
    _arc_data,
    _clear,
    _pair_sign,
    _polygon,
    _profile_of,
    lie_g_coords,
    reeb_lie_g_coords,
)


class GraphAssemblyError(ValueError):
    pass


@dataclass(frozen=True)
class FiniteCyclicSubgroup:
    """Finite cyclic subgroup of T^2 = (Q/Z)^2, stored by its order and the
    lexicographically smallest generator of exact order.

    `canonical` finds that generator in closed form rather than by scanning
    the units j mod the order.  Write the generator as (a, b)/m with m its
    exact order, so gcd(a, b, m) = 1.  Units mod m surject onto units mod
    any divisor, so the least first coordinate over j*(a, b) is
    g = gcd(a, m), reached exactly when j = j0 mod h, with h = m/g and
    j0 = (a/g)^-1 mod h.  Those j give second coordinates c + h*r, with
    c = j0*b mod h, and each r in 0..g-1 comes from one j mod m, because
    gcd(b, g) = 1.  The least r whose j is a unit wins; the r skipped are
    bounded by Jacobsthal's function of m."""

    order: int
    generator: Tuple[Fraction, Fraction]

    def __post_init__(self):
        g = tuple(Fraction(x) % 1 for x in self.generator)
        object.__setattr__(self, "generator", g)
        if self.order < 1:
            raise ValueError("order must be positive")
        if any((self.order * x) % 1 != 0 for x in g):
            raise ValueError("generator order does not divide the stated order")

    def canonical(self) -> "FiniteCyclicSubgroup":
        n = self.order
        a, b = (x.numerator * (n // x.denominator) for x in self.generator)
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
        return FiniteCyclicSubgroup(n, (Fraction(g % m, m), Fraction(c + h * r, m)))

    def transformed(self, a) -> "FiniteCyclicSubgroup":
        g = self.generator
        return FiniteCyclicSubgroup(
            self.order,
            (
                (a[0][0] * g[0] + a[0][1] * g[1]) % 1,
                (a[1][0] * g[0] + a[1][1] * g[1]) % 1,
            ),
        ).canonical()


@dataclass(frozen=True)
class FatVertex:
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


@dataclass(frozen=True)
class RegularVertex:
    """Closed-orbit vertex: component-group order and the primitive
    direction of the isotropy circle in Lie(G)_Z coordinates (the subgroup
    is the preimage of the unique Z/order of the quotient circle, so these
    two data determine it)."""

    order: int
    direction: Tuple[int, int]


@dataclass(frozen=True)
class EdgeItem:
    """Lens space with isotropy order >= 2 along a chain."""

    multiplicity: int
    isotropy: FiniteCyclicSubgroup


Extreme = object  # FatVertex | RegularVertex
ChainItem = object  # EdgeItem | RegularVertex


@dataclass(frozen=True)
class IsotropyGraph:
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

    @property
    def regular_vertices(self) -> Tuple[RegularVertex, ...]:
        interior = tuple(
            item for ch in self.chains for item in ch if isinstance(item, RegularVertex)
        )
        ends = tuple(
            v for v in (self.minimum, self.maximum) if isinstance(v, RegularVertex)
        )
        return ends + interior


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
    sigma the sign of v0 . n."""
    n = normals[face % len(normals)]
    s = dot(profile.v0, n)
    k = abs(s)
    sigma = 1 if s > 0 else -1
    m = solve_dot_one(profile.v0)
    g_vec = tuple(Fraction(n[j], k) - sigma * m[j] for j in range(3))
    return FiniteCyclicSubgroup(
        order=k, generator=lie_g_coords(profile, g_vec)
    ).canonical()


def _vertex_direction(profile, normals, vertex: int) -> Tuple[int, int]:
    """Primitive Lie(G)_Z direction of the isotropy circle at the polygon
    vertex between faces `vertex` and `vertex`+1."""
    m = len(normals)
    edge = cross_primitive(normals[vertex % m], normals[(vertex + 1) % m])
    y = cross_primitive(profile.v0, edge)
    a, b = lie_g_coords(profile, y)
    assert a.denominator == 1 and b.denominator == 1
    return _canonical_sign((int(a), int(b)))


def reversed_euler_residue(cone: GoodCone, face: int) -> int:
    """The face's normal Euler class read against the reversed cyclic
    orientation, det3(n^{i-1}, n^{i+1}, l) mod b for any witness l of the
    pair (n^{i-1}, n^i) and b = det3(n^{i-1}, n^i, n^{i+1}).

    It is face_invariants' f on the orientation-reversed mirror image of
    the cone, where face i has the adjacent triple (M n^{i+1}, M n^i,
    M n^{i-1}) for a reflection M, and M l witnesses the pair (M n^i,
    M n^{i-1}).  Another witness l + s n^{i-1} + t n^i moves the
    determinant by t det3(n^{i-1}, n^{i+1}, n^i) = -t b."""
    n1, n2, n3 = cone.normal(face - 1), cone.normal(face), cone.normal(face + 1)
    c = cross(n1, n2)
    b = dot(c, n3)
    if b <= 0:
        raise InvalidCone(f"faces {face-1},{face},{face+1} are not a convex triple")
    return det3(n1, n3, solve_dot_one(c)) % b


def _fat_vertex(profile, cone: GoodCone, face: int) -> FatVertex:
    k = len(cone)
    n = cone.normal(face)
    a, b = lie_g_coords(profile, n)
    direction = _canonical_sign((int(a), int(b)))
    k_lo = profile.k[(face - 1) % k]
    k_hi = profile.k[(face + 1) % k]
    inv = face_invariants(cone, face)
    mults = tuple(sorted(x for x in (k_lo, k_hi) if x >= 2))
    return FatVertex(
        direction=direction,
        genus=0,
        multiplicities=mults,
        orbifold_euler=Fraction(-inv.b, k_lo * k_hi),
        normal_euler=(inv.b, inv.f),
        normal_euler_rev=reversed_euler_residue(cone, face),
    )


def extract_graph(
    cone: GoodCone, R: ReebVector, ybar: Optional[Vec3] = None
) -> IsotropyGraph:
    """Graph of isotropy data of the rank-2 pair: fat vertices for flat
    faces, regular vertices for polygon vertices away from flats, edges for
    faces with isotropy order >= 2, chains ordered by the canonical
    transverse moment functional, and the Reeb class in Lie(G)_Z
    coordinates."""
    profile, _, arcs = _arc_data(cone, R, ybar)

    def extreme(ext) -> Extreme:
        if ext.kind == "flat":
            return _fat_vertex(profile, cone, ext.index)
        v = ext.index
        k1 = profile.k[v % len(cone)]
        k2 = profile.k[(v + 1) % len(cone)]
        return RegularVertex(
            order=math.gcd(k1, k2),
            direction=_vertex_direction(profile, cone.normals, v),
        )

    chains = tuple(
        _chain_items(profile, cone.normals, arc) for arc in (arcs.neg_arc, arcs.pos_arc)
    )
    return IsotropyGraph(
        reeb_class=reeb_lie_g_coords(profile, R),
        minimum=extreme(arcs.minimum),
        maximum=extreme(arcs.maximum),
        chains=tuple(ch for ch in chains if ch),
    )


def _chain_items(profile, normals, faces) -> Tuple[ChainItem, ...]:
    """Edges (faces with isotropy order >= 2) and interior vertices of one
    boundary chain, whose faces are consecutive in the cyclic order and are
    listed from the minimum to the maximum."""
    items: List[ChainItem] = []
    for pos, face in enumerate(faces):
        kf = profile.k[face]
        if kf >= 2:
            items.append(
                EdgeItem(multiplicity=kf, isotropy=_edge_isotropy(profile, normals, face))
            )
        if pos + 1 < len(faces):
            nxt = faces[pos + 1]
            # interior vertex between consecutive chain faces
            v = face if (face + 1) % len(normals) == nxt else nxt
            items.append(
                RegularVertex(
                    order=math.gcd(profile.k[face], profile.k[nxt]),
                    direction=_vertex_direction(profile, normals, v),
                )
            )
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
    Returns (H, U); M must be nonsingular."""
    # Every column operation acts on M and U alike, so it is applied once
    # to the stacked 4x2 matrix [M; U] (rows 0-1 are M, rows 2-3 are U).
    stacked = (tuple(m[0]), tuple(m[1]), (1, 0), (0, 1))

    def column_op(e):
        # stacked <- stacked . e, e in GL(2, Z)
        nonlocal stacked
        stacked = tuple(
            (r[0] * e[0][0] + r[1] * e[1][0], r[0] * e[0][1] + r[1] * e[1][1])
            for r in stacked
        )

    # eliminate the top-right entry (Euclid on the first row)
    while stacked[0][1] != 0:
        a, b = stacked[0]
        if a == 0 or abs(b) < abs(a):
            column_op(((0, 1), (1, 0)))
        else:
            # |b| >= |a| > 0, so q = b // a is nonzero
            column_op(((1, -(b // a)), (0, 1)))
    if stacked[0][0] < 0:
        column_op(((-1, 0), (0, 1)))
    if stacked[1][1] < 0:
        column_op(((1, 0), (0, -1)))
    if stacked[1][1] == 0:
        raise DegenerateInput("singular matrix in HNF")
    q = stacked[1][0] // stacked[1][1]
    if q:
        column_op(((1, 0), (-q, 1)))
    return stacked[:2], stacked[2:]


def reeb_frame_matrix(g: IsotropyGraph):
    """The unique A in GL(2,Z) whose action on the Reeb class produces the
    canonical (Hermite) frame; two graphs can only be isomorphic via the
    composite of their frame matrices since a rank-2 Reeb class has trivial
    GL(2,Z) stabilizer."""
    r1, r2 = g.reeb_class
    p = (r1.rat, r2.rat)
    q = (r1.irr, r2.irr)
    den = 1
    for x in (*p, *q):
        den = den * x.denominator // math.gcd(den, x.denominator)
    # Let P have columns p and q; we want A with A P in (left) Hermite
    # form, i.e. P^T U in column Hermite form and A = U^T.  m below is P^T.
    m = (
        (int(p[0] * den), int(p[1] * den)),
        (int(q[0] * den), int(q[1] * den)),
    )
    _, u = _hnf_2x2(m)
    a = ((u[0][0], u[1][0]), (u[0][1], u[1][1]))  # A = U^T
    return a


def _apply_matrix(a, v):
    """A v for a 2x2 integer A and a pair v of integers or QuadNumbers."""
    return (a[0][0] * v[0] + a[0][1] * v[1], a[1][0] * v[0] + a[1][1] * v[1])


def transform_graph(g: IsotropyGraph, a) -> IsotropyGraph:
    """Image of the graph under A in GL(2,Z) acting on all torus data."""

    def tr_extreme(v):
        if isinstance(v, FatVertex):
            return FatVertex(
                direction=_canonical_sign(_apply_matrix(a, v.direction)),
                genus=v.genus,
                multiplicities=v.multiplicities,
                orbifold_euler=v.orbifold_euler,
                normal_euler=v.normal_euler,
                normal_euler_rev=v.normal_euler_rev,
            )
        return RegularVertex(
            order=v.order,
            direction=_canonical_sign(_apply_matrix(a, v.direction)),
        )

    def tr_item(item):
        if isinstance(item, EdgeItem):
            return EdgeItem(
                multiplicity=item.multiplicity,
                isotropy=item.isotropy.transformed(a),
            )
        return tr_extreme(item)

    return IsotropyGraph(
        reeb_class=_apply_matrix(a, g.reeb_class),
        minimum=tr_extreme(g.minimum),
        maximum=tr_extreme(g.maximum),
        chains=tuple(tuple(tr_item(i) for i in ch) for ch in g.chains),
    )


def _encode_quad(x: QuadNumber) -> str:
    return f"{x.rat}|{x.irr}|{x.d}"


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
        return ["edge", item.multiplicity, iso.order, [str(x) for x in iso.generator]]
    return ["vertex", item.order, list(item.direction)]


def canonical_form(g: IsotropyGraph) -> str:
    """Deterministic encoding, invariant under relabeling (chain order and
    min/max flip), under the GL(2,Z) action on all torus data, and under
    reversing the cyclic reading of the fat vertices' Euler residues."""
    a = reeb_frame_matrix(g)
    base = transform_graph(g, a)
    variants = []
    for flip in (False, True):
        if flip:
            cand = IsotropyGraph(
                reeb_class=base.reeb_class,
                minimum=base.maximum,
                maximum=base.minimum,
                chains=tuple(tuple(reversed(ch)) for ch in base.chains),
            )
        else:
            cand = base
        chains = sorted(
            json.dumps([_encode_item(i) for i in ch], sort_keys=True)
            for ch in cand.chains
        )
        for reversed_reading in (False, True):
            payload = {
                "reeb": [_encode_quad(x) for x in cand.reeb_class],
                "min": _encode_extreme(cand.minimum, reversed_reading),
                "max": _encode_extreme(cand.maximum, reversed_reading),
                "chains": chains,
            }
            variants.append(
                json.dumps(payload, sort_keys=True, separators=(",", ":"))
            )
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


@dataclass(frozen=True)
class GermOfChain:
    """Chain germ with flat faces at both ends: the ordered face normals
    (first and last orthogonal to the Reeb plane) and the Reeb vector."""

    normals: Tuple[Vec3, ...]
    reeb: ReebVector

    def __post_init__(self):
        object.__setattr__(
            self, "normals", tuple(tuple(int(x) for x in n) for n in self.normals)
        )
        if len(self.normals) < 3:
            raise GraphAssemblyError("a germ needs flat ends and an interior")


@dataclass(frozen=True)
class LensBundleDescriptor:
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
    z = _clear(germ.reeb)
    profile = _profile_of(z, germ.normals)
    k = profile.k
    if k[0] != 0 or k[-1] != 0:
        raise GraphAssemblyError("germ ends must be flat (v0 . n = 0)")
    if any(x == 0 for x in k[1:-1]):
        raise GraphAssemblyError("germ interior must not contain flats")
    # The two end edge rays, oriented so that R pairs positively with them.
    ends = []
    for face_a, face_b in ((0, 1), (len(k) - 2, len(k) - 1)):
        ray = cross_primitive(germ.normals[face_a], germ.normals[face_b])
        pairing = _pair_sign(z, ray)
        if pairing == 0:
            raise GraphAssemblyError("Reeb pairs degenerately with a germ edge")
        ends.append(ray if pairing > 0 else tuple(-x for x in ray))
    u1, u2 = profile.lieG_basis
    moment = [(dot(p, u1), dot(p, u2)) for p in _polygon(z, ends).vertices]
    return {
        "profile": profile,
        "v0": profile.v0,
        "k": k,
        "basis": profile.lieG_basis,
        "moment_min": moment[0],
        "moment_max": moment[1],
    }


def validate_germ(germ: GermOfChain) -> None:
    """Realizability: consecutive triples convex, adjacent pairs Delzant,
    and the chain closes to a good cone (close_chain search)."""
    ns = germ.normals
    for a, b, c in zip(ns, ns[1:], ns[2:]):
        if det3(a, b, c) <= 0:
            raise GraphAssemblyError(f"germ triple {a},{b},{c} is not convex")
    for a, b in zip(ns, ns[1:]):
        if not is_delzant_pair(a, b):
            raise GraphAssemblyError(f"germ pair {a},{b} is not Delzant")
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
    mults_min: List[int] = []
    mults_max: List[int] = []
    chains: List[Tuple[ChainItem, ...]] = []
    prod_min = 1
    prod_max = 1
    for germ in germs:
        validate_germ(germ)
        prof = germ_profile(germ)
        profile = prof["profile"]
        if reeb_lie_g_coords(profile, germ.reeb) != bundle.reeb_class:
            raise GraphAssemblyError("germ Reeb class does not match the bundle fiber")
        if prof["moment_min"] != bundle.moment_min or prof["moment_max"] != bundle.moment_max:
            raise GraphAssemblyError("germ extreme moment values do not match the bundle")
        k = profile.k
        end_lo, end_hi = k[1], k[-2]
        prod_min *= end_lo
        prod_max *= end_hi
        if end_lo >= 2:
            mults_min.append(end_lo)
        if end_hi >= 2:
            mults_max.append(end_hi)
        interior = range(1, len(k) - 1)
        chains.append(_chain_items(profile, germ.normals, interior))

    b_min, f_min = bundle.fat_min[1]
    b_max, f_max = bundle.fat_max[1]
    minimum = FatVertex(
        direction=_canonical_sign(tuple(bundle.fat_min[0])),
        genus=bundle.genus,
        multiplicities=tuple(sorted(mults_min)),
        orbifold_euler=Fraction(-b_min, prod_min),
        normal_euler=(b_min, f_min),
        normal_euler_rev=bundle.fat_min[2],
    )
    maximum = FatVertex(
        direction=_canonical_sign(tuple(bundle.fat_max[0])),
        genus=bundle.genus,
        multiplicities=tuple(sorted(mults_max)),
        orbifold_euler=Fraction(-b_max, prod_max),
        normal_euler=(b_max, f_max),
        normal_euler_rev=bundle.fat_max[2],
    )
    return IsotropyGraph(
        reeb_class=bundle.reeb_class,
        minimum=minimum,
        maximum=maximum,
        chains=tuple(ch for ch in chains if ch),
    )
