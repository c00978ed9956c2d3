"""Exact Euler numbers of locally free circle actions on S^3, S^1 x S^3
quotients and lens spaces, critical-level jumps, chain sums, and the global
Euler-sum identity on a good cone with a rank-2 Reeb vector.

All outputs are Fractions; nothing here touches floating point.  Chain
sums run in Z (`exactnum.ratio_sum`, whose running pair stays bounded), and
a Fraction is built only for a returned value.  The intersection weights
read the pair's vertex circles, which `reeb` computes once per (cone, R)
pair for both this module and the graph.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import List, Optional, Tuple

from .cone import GoodCone
from .exactnum import Record, Vec3, _set, det3, ratio_sum
from .reeb import (
    ArcDecomposition,
    Extreme,
    IsotropyProfile,
    ReebVector,
    _arc_data,
    _lie_g_integers,
    _vertex_between,
)


class ChainDataError(ValueError):
    """Chain data violates the integrality/positivity identity."""


def euler_s3(m1: int, m2: int) -> Fraction:
    """Euler number of the S^1-action t.(z1,z2) = (t^m1 z1, t^m2 z2) on S^3:
    -gcd(|m1|,|m2|) / (m1 m2)."""
    if m1 == 0 or m2 == 0:
        raise ValueError("weights must be nonzero")
    return Fraction(-math.gcd(abs(m1), abs(m2)), m1 * m2)


def euler_quotient(a0: int, a1: int, a2: int, b0: int, b1: int, b2: int) -> Fraction:
    """Euler number of the second circle factor acting on (S^1 x S^3)/sigma_1
    for the torus action with weight rows (a0,a1,a2), (b0,b1,b2):
    -a0 / ((a0 b1 - a1 b0)(a0 b2 - a2 b0))."""
    if a0 <= 0:
        raise ValueError("a0 must be positive")
    d1 = a0 * b1 - a1 * b0
    d2 = a0 * b2 - a2 * b0
    if d1 == 0 or d2 == 0:
        raise ValueError("degenerate torus action (vanishing 2x2 minor)")
    return Fraction(-a0, d1 * d2)


def euler_lens(p: int, q: int, m1: int, m2: int) -> Fraction:
    """Euler number of the weight-(m1, m2) circle subaction on L(p, q):
    -p gcd(|m1|,|m2|) / (m1 (p m2 - q m1)).

    The second factor of the denominator is the weight induced on the
    collapsing coordinate of the Heegaard torus at u = 1; at (p, q) = (1, 0)
    this reduces exactly to the S^3 formula."""
    if p < 1 or math.gcd(p, q) != 1:
        raise ValueError("need p >= 1 and gcd(p, q) = 1")
    if m1 == 0 or p * m2 - q * m1 == 0:
        raise ValueError("degenerate weights for this lens space")
    return Fraction(-p * math.gcd(abs(m1), abs(m2)), m1 * (p * m2 - q * m1))


def euler_near_B_orbit(a: int, m: int, n: int, is_max: bool) -> Fraction:
    """Level set near a closed-orbit extreme: -a/(m n) on the minimum side,
    +a/(m n) on the maximum side."""
    if a < 1 or m < 1 or n < 1:
        raise ValueError("multiplicities must be positive")
    val = Fraction(a, m * n)
    return val if is_max else -val


def euler_near_B_lens(
    n1: Vec3, n2: Vec3, ybar: Vec3, k1: int, k2: int, is_max: bool
) -> Fraction:
    """Level set near a 3-dimensional (lens space) extreme:
    +(1/(k1 k2)) det3(n1, n2, Ybar) near the minimum, - near the maximum."""
    if k1 < 1 or k2 < 1:
        raise ValueError("multiplicities must be positive")
    val = Fraction(det3(n1, n2, ybar), k1 * k2)
    return val if not is_max else -val


def critical_jump(a: int, k: int, kp: int) -> Fraction:
    """Jump of the level-set Euler number across an interior critical orbit:
    a/(k k')."""
    if a < 1 or k < 1 or kp < 1:
        raise ValueError("arguments must be positive")
    return Fraction(a, k * kp)


class ChainDescriptor(Record):
    """Multiplicities k_1..k_l of a chain's gradient manifolds and the
    transverse intersection weights a_{i,i+1} of its interior orbits."""

    k: Tuple[int, ...]
    a: Tuple[int, ...]

    def __init__(self, k: Tuple[int, ...], a: Tuple[int, ...]):
        _set(self, "k", k)
        _set(self, "a", a)
        if len(a) != len(k) - 1:
            raise ValueError("need |a| = |k| - 1")
        if any(x < 1 for x in k) or any(x < 1 for x in a):
            raise ValueError("all entries must be >= 1")


def chain_euler_sum(chain: ChainDescriptor) -> Tuple[Fraction, int]:
    """Sum of a_{i,i+1}/(k_i k_{i+1}) along the chain, together with the
    positive integer d with sum = d / lcm(k_1, k_l).  The sum runs in Z over
    the running lcm of the k_i k_{i+1} (`ratio_sum`); the Fraction is built
    for the returned value only."""
    k = chain.k
    num, den = ratio_sum(zip(chain.a, [x * y for x, y in zip(k, k[1:])]))
    lcm = math.lcm(k[0], k[-1])
    d, rem = divmod(num * lcm, den)
    if rem or d <= 0:
        raise ChainDataError(
            f"chain sum {Fraction(num, den)} times lcm {lcm} is not a positive integer"
        )
    return Fraction(num, den), d


# ---------------------------------------------------------------------------
# Global identity on a cone.
# ---------------------------------------------------------------------------


class IdentityTerm(Record):
    kind: str  # 'extreme-min' | 'extreme-max' | 'jump'
    location: Tuple[int, ...]
    a: Optional[int]
    k: Tuple[int, ...]
    value: Fraction

    def __init__(
        self,
        kind: str,
        location: Tuple[int, ...],
        a: Optional[int],
        k: Tuple[int, ...],
        value: Fraction,
    ):
        _set(self, "kind", kind)
        _set(self, "location", location)
        _set(self, "a", a)
        _set(self, "k", k)
        _set(self, "value", value)


class EulerReport(Record):
    lhs: Fraction
    rhs: Fraction
    per_chain: Tuple[Tuple[int, int, int], ...]  # (chain index, d, lcm)
    ok: bool
    terms: Tuple[IdentityTerm, ...]

    def __init__(
        self,
        lhs: Fraction,
        rhs: Fraction,
        per_chain: Tuple[Tuple[int, int, int], ...],
        ok: bool,
        terms: Tuple[IdentityTerm, ...],
    ):
        _set(self, "lhs", lhs)
        _set(self, "rhs", rhs)
        _set(self, "per_chain", per_chain)
        _set(self, "ok", ok)
        _set(self, "terms", terms)

    def to_dict(self) -> dict:
        return {
            "ok": self.ok,
            "lhs": str(self.lhs),
            "rhs": str(self.rhs),
            "per_chain": [
                {"chain": c, "d": d, "lcm": l} for (c, d, l) in self.per_chain
            ],
            "terms": [
                {
                    "kind": t.kind,
                    "location": list(t.location),
                    "a": t.a,
                    "k": list(t.k),
                    "value": str(t.value),
                }
                for t in self.terms
            ],
        }


class IdentityData(Record):
    """Everything verify_global_identity needs, exposed so that negative
    controls can mutate the k-table in place before evaluation (the record
    is frozen; its list `k` is not).  circles[v] is the isotropy circle at
    the polygon vertex v (`reeb._Facts.circles`), None next to a flat face."""

    cone: GoodCone
    profile: IsotropyProfile
    arcs: ArcDecomposition
    ybar: Vec3
    k: List[int]
    circles: Tuple[Optional[Tuple[int, int]], ...]


def _vertex_intersection_weight(data: IdentityData, ybar_g: Tuple[int, int], vertex: int) -> int:
    """a = I(rho_1, Sigma) at the polygon vertex between faces `vertex` and
    `vertex`+1, 0 <= vertex < k: the component count gcd(k, k') from the
    k-table times |det_2(Ybar, Y_Sigma)| on integer Lie(G) coordinates,
    where Y_Sigma generates span(n, n') ∩ Lie(G) (the vertex's circle in
    `data.circles`) and ybar_g are Ybar's coordinates.

    Cross-checked exactly against the determinant route with the cone's
    own vertex order: order * |det_2| = det3(n, n', Ybar), whose sign is
    that of Ybar . e on the vertex's edge ray e, positive for a transverse
    Ybar."""
    normals, k = data.cone.normals, data.k
    nxt = (vertex + 1) % len(normals)
    y_sigma = data.circles[vertex]
    det2 = abs(ybar_g[0] * y_sigma[1] - ybar_g[1] * y_sigma[0])
    # det3(n, n', Ybar) = (n x n') . Ybar
    (a0, a1, a2), (b0, b1, b2), (y0, y1, y2) = normals[vertex], normals[nxt], data.ybar
    direct = y0 * (a1 * b2 - a2 * b1) + y1 * (a2 * b0 - a0 * b2) + y2 * (a0 * b1 - a1 * b0)
    order = data.profile.vertex_orders[vertex]
    if order * det2 != direct:
        raise ChainDataError(
            f"intersection count mismatch at vertex {vertex}: "
            f"gcd*det2={order * det2} vs det3={direct}"
        )
    return math.gcd(k[vertex], k[nxt]) * det2


def build_identity_data(
    cone: GoodCone, R: ReebVector, ybar: Optional[Vec3] = None
) -> IdentityData:
    facts, ybar, arcs = _arc_data(cone, R, ybar)
    profile = facts.profile
    return IdentityData(
        cone=cone,
        profile=profile,
        arcs=arcs,
        ybar=ybar,
        k=list(profile.k),
        circles=facts.circles,
    )


def evaluate_identity(data: IdentityData) -> EulerReport:
    """Exact lhs = e(H_max) - e(H_min) from boundary data versus the sum of
    interior critical jumps, with the per-chain integrality report.

    The chains are labeled geometrically: chain 1 is the boundary arc that
    leaves the minimum in the direction of decreasing face index, so it
    starts at face v when the minimum is the vertex between faces v and
    v+1, and at face f-1 when the minimum is the flat face f; chain 2 is
    the other arc.  Each term lists its multiplicities as (chain 1,
    chain 2) at the extremes and in arc order at the jumps.

    A vertex extreme takes `euler_near_B_orbit(a, k, k', is_max)` and a
    flat extreme f takes `euler_near_B_lens(n^{f+1}, n^{f-1}, Ybar, ...)`;
    every jump is `critical_jump(a, k, k')`.  The weights a come from
    `_vertex_intersection_weight`, whose determinant cross-check also pins
    the sign of every vertex term.  A mutated k-table (a negative control)
    changes the weights and the multiplicities but not the geometry.
    """
    cone, arcs, ybar, k = data.cone, data.arcs, data.ybar, data.k
    normals = cone.normals
    m = len(normals)
    terms: List[IdentityTerm] = []
    # Both chains are nonempty (`_arcs`).
    neg, pos = arcs.neg_arc, arcs.pos_arc
    low = arcs.minimum
    start = low.index if low.kind == "vertex" else (low.index - 1) % m
    chain1, chain2 = (neg, pos) if neg[0] == start else (pos, neg)
    ybar_g = _lie_g_integers(data.profile, ybar)

    def extreme_value(extreme: Extreme, is_max: bool) -> Fraction:
        f1, f2 = (chain1[-1], chain2[-1]) if is_max else (chain1[0], chain2[0])
        a = None
        if extreme.kind == "vertex":
            a = _vertex_intersection_weight(data, ybar_g, extreme.index)
            val = euler_near_B_orbit(a, k[f1], k[f2], is_max)
        else:
            lo, hi = (extreme.index - 1) % m, (extreme.index + 1) % m
            val = euler_near_B_lens(normals[hi], normals[lo], ybar, k[hi], k[lo], is_max)
        terms.append(
            IdentityTerm(
                kind="extreme-max" if is_max else "extreme-min",
                location=(extreme.index,),
                a=a,
                k=(k[f1], k[f2]),
                value=val,
            )
        )
        return val

    e_min = extreme_value(low, False)
    e_max = extreme_value(arcs.maximum, True)
    lhs = e_max - e_min

    rhs = Fraction(0)
    per_chain: List[Tuple[int, int, int]] = []
    ok = True
    for idx, arc in enumerate((chain1, chain2)):
        jumps: List[Fraction] = []
        a_list: List[int] = []
        for lo, hi in zip(arc, arc[1:]):
            a = _vertex_intersection_weight(data, ybar_g, _vertex_between(lo, hi, m))
            k1, k2 = k[lo], k[hi]
            if k1 < 1 or k2 < 1:
                raise ChainDataError("interior face with k = 0")
            val = critical_jump(a, k1, k2)
            jumps.append(val)
            a_list.append(a)
            terms.append(
                IdentityTerm(
                    kind="jump", location=(lo, hi), a=a, k=(k1, k2), value=val
                )
            )
        if jumps:
            lcm = math.lcm(k[arc[0]], k[arc[-1]])
            try:
                total, d = chain_euler_sum(
                    ChainDescriptor(k=tuple(k[f] for f in arc), a=tuple(a_list))
                )
                per_chain.append((idx, d, lcm))
            except ChainDataError:
                # A k-table that breaks integrality (a negative control) has
                # no d, but its chain still adds its jumps to the rhs.
                total = sum(jumps, Fraction(0))
                ok = False
                per_chain.append((idx, 0, lcm))
            rhs += total
    ok = ok and lhs == rhs  # a recorded d < 1 comes only with ok = False
    return EulerReport(
        lhs=lhs, rhs=rhs, per_chain=tuple(per_chain), ok=ok, terms=tuple(terms)
    )


def verify_global_identity(
    cone: GoodCone, R: ReebVector, ybar: Optional[Vec3] = None
) -> EulerReport:
    """Check e(H_max/rho1) - e(H_min/rho1) = sum of chain jumps exactly,
    reporting every term and the per-chain positive integers d."""
    return evaluate_identity(build_identity_data(cone, R, ybar))
