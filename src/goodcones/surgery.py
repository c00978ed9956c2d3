"""Contact blow-up and blow-down as exact cone surgeries: half-space cuts,
normal deletion, range replacement, blow-down normal search (Dirichlet
prime construction with a bounded lattice fallback), blow-down planning,
and the local blow-up parameter solver.

Every public surgery validates its input cone and its result; `validate`
decides a good cone in O(k), and the O(k^2) report is built only for a
rejected result, to say why.  A cone keeps a good verdict
(`cone._verdict`), so a cone object is validated at most once: plans and
replays chain the public edits, and each step starts from a result that
carries its verdict.
"""

from __future__ import annotations

import hashlib
import heapq
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, List, Optional, Sequence, Tuple

from .cone import GoodCone, _pair_witness, _verdict, edge_rays, require_valid
from .exactnum import (
    DegenerateInput,
    QuadNumber,
    SearchExhausted,
    Vec3,
    cramer_rows,
    det3,
    dot,
    int_triple,
    is_delzant_pair,
    is_prime,
    is_primitive,
    plane_lattice_basis,
    primitive_part,
    solve_dot_one,
    vec_add,
    vec_scale,
)


class SurgeryRejected(ValueError):
    """Cut/delete/replace does not realize one of the two modeled surgeries."""

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report


class PlanningError(RuntimeError):
    def __init__(self, message, step=None):
        super().__init__(message)
        self.step = step


@dataclass(frozen=True)
class CutSpec:
    t: Vec3

    def __post_init__(self):
        t = int_triple(self.t)
        if not is_primitive(t):
            raise DegenerateInput(f"cutting normal {t} is not primitive")
        object.__setattr__(self, "t", t)


@dataclass(frozen=True)
class SurgeryResult:
    cone: GoodCone
    kind: str  # 'orbit-blowup' | 'lens-blowup'
    index: int  # cut vertex (orbit) or replaced face (lens), in the old cone


def cone_hash(cone: GoodCone) -> str:
    """SHA-256 of the cone's JSON text '{"normals":[[a,b,c],...]}', the
    text `json.dumps` writes with sorted keys and no spaces, built
    directly."""
    payload = '{"normals":[' + ",".join([f"[{a},{b},{c}]" for a, b, c in cone.normals]) + "]}"
    return hashlib.sha256(payload.encode()).hexdigest()


def cut(cone: GoodCone, spec: CutSpec) -> SurgeryResult:
    """Intersect with the half-space {t . v >= 0} and classify.

    S = edges strictly cut (t . e < 0): a single edge is an orbit blow-up
    (insert t at that vertex, one more closed orbit); the two edges of one
    face and nothing else is a lens blow-up (replace that face's normal by
    t, orbit count unchanged).  Anything else is rejected, as is a result
    that is not good.  The input and the result are validated once each
    (see `_edited`).
    """
    require_valid(cone)
    t = spec.t
    rays = edge_rays(cone)
    k = len(cone)
    negative = [i for i, e in enumerate(rays) if dot(t, e) < 0]
    if not negative:
        raise SurgeryRejected("no edge strictly cut: cut is a no-op")
    if len(negative) == 1:
        v = negative[0]
        normals = list(cone.normals)
        normals.insert(v + 1, t)
        result = _edited(normals, f"orbit cut at vertex {v} yields a non-good cone")
        return SurgeryResult(cone=result, kind="orbit-blowup", index=v)
    if len(negative) == 2:
        a, b = negative
        # The two edge rays of face i are i-1 and i.
        if (a + 1) % k == b:
            face = b
        elif (b + 1) % k == a:
            face = a
        else:
            raise SurgeryRejected(
                f"cut edges {negative} are not the two edges of one face"
            )
        normals = list(cone.normals)
        normals[face] = t
        result = _edited(normals, f"lens cut at face {face} yields a non-good cone")
        return SurgeryResult(cone=result, kind="lens-blowup", index=face)
    raise SurgeryRejected(
        f"cut removes {len(negative)} edges ({negative}): not a modeled surgery"
    )


def blowdown_delete(cone: GoodCone, i: int) -> GoodCone:
    """Remove normal i (inverse of an orbit blow-up).  Fails with the
    validation report when the remaining normals are not good, in particular
    when (n^{i-1}, n^{i+1}) is not a Delzant pair.  The input is validated
    once; the result is checked in O(k)."""
    require_valid(cone)
    i %= len(cone)
    normals = [n for j, n in enumerate(cone.normals) if j != i]
    return _edited(normals, f"cannot blow down face {i}")


def replace_range(cone: GoodCone, rng: Sequence[int], t: Vec3) -> GoodCone:
    """Replace a contiguous run of normals by the single normal t.  The new
    half-space must contain the old cone (t pairs >= 0 with every old edge
    ray: attachment only enlarges), and the result must be good.  The input
    and the result are validated once each."""
    require_valid(cone)
    t = int_triple(t)
    if not is_primitive(t):
        raise DegenerateInput(f"replacement normal {t} is not primitive")
    k = len(cone)
    rng = [r % k for r in rng]
    if not rng:
        raise SurgeryRejected("empty replacement range")
    for a, b in zip(rng, rng[1:]):
        if (a + 1) % k != b:
            raise SurgeryRejected(f"range {rng} is not contiguous")
    if len(rng) >= k:
        raise SurgeryRejected("range must be a proper subset of the faces")
    if len(rng) == 1 and cone.normals[rng[0]] == t:
        return cone
    for e in edge_rays(cone):
        if dot(t, e) < 0:
            raise SurgeryRejected(
                f"replacement normal {t} cuts the cone (edge {e}): not an attachment"
            )
    head, rest = rng[0], set(rng[1:])
    normals = [t if j == head else n for j, n in enumerate(cone.normals) if j not in rest]
    return _edited(normals, f"replacement by {t} is not a good cone")


def _edited(normals: List[Vec3], message: str) -> GoodCone:
    """The cone left by an edit of a good cone, or SurgeryRejected.

    The result is validated (`cone._verdict`), in O(k) when it is good, and
    keeps its good verdict.  When it is not good the O(k^2) report says
    why; fewer than 3 normals raise DegenerateInput.
    """
    result = GoodCone(tuple(normals))
    report = _verdict(result)
    if not report.is_good:
        raise SurgeryRejected(message, report)
    return result


# ---------------------------------------------------------------------------
# Blow-down normal search.
# ---------------------------------------------------------------------------


# Max-norm radius of the lattice box that follows the prime construction.
BLOWDOWN_BOX = 64


def _theta_member(n_prev: Vec3, n_i: Vec3, n_next: Vec3, t: Vec3) -> bool:
    return (
        det3(n_prev, n_i, t) > 0
        and det3(n_i, n_next, t) > 0
        and det3(n_prev, n_next, t) < 0
    )


def _blowdown_candidates(
    cone: GoodCone, i: int, constraint: Optional[Tuple[Vec3, int]]
) -> Iterator[Vec3]:
    """Admissible blow-down normals for face i, prime construction first,
    then a deterministic expanding box of radius up to BLOWDOWN_BOX
    (combinations of the local normals, or the constraint's affine lattice
    slice), scanning only the box points that lie in Theta(i).

    With t = s1 n^{i-1} + s2 n^i + s3 n^{i+1} and D = det3(n^{i-1}, n^i,
    n^{i+1}) > 0, the three Theta(i) determinants are s3 D, s1 D and -s2 D,
    so Theta(i) is the open positive octant of (s1, s2, s3).  On the slice
    t = t0 + a u1 + b u2 they are linear forms in (a, b)."""
    k = len(cone)
    i %= k
    n_prev, n_i, n_next = cone.normal(i - 1), cone.normal(i), cone.normal(i + 1)

    def delzant(t: Vec3) -> bool:
        return is_delzant_pair(n_prev, t) and is_delzant_pair(n_next, t)

    if constraint is None:

        def admissible(t: Vec3) -> bool:
            return is_primitive(t) and _theta_member(n_prev, n_i, n_next, t) and delzant(t)

        t = _prime_construction(cone, i, admissible)
        if t is not None:
            yield t
        # (n^{i-1}, n^i, n^{i+1}) is a basis of R^3, so two box points give
        # one normal exactly when they are proportional: the point with
        # coprime entries comes first, at the least radius.
        for radius in range(1, BLOWDOWN_BOX + 1):
            for s1 in range(1, radius + 1):
                for s2 in range(1, radius + 1):
                    low = 1 if radius in (s1, s2) else radius
                    for s3 in range(low, radius + 1):
                        if math.gcd(s1, s2, s3) != 1:
                            continue
                        cand = primitive_part(
                            vec_add(
                                vec_add(vec_scale(s1, n_prev), vec_scale(s2, n_i)),
                                vec_scale(s3, n_next),
                            )
                        )
                        if cand != t and delzant(cand):
                            yield cand
        return

    v0, value = constraint
    t0 = vec_scale(value, solve_dot_one(v0)) if value != 0 else (0, 0, 0)
    u1, u2 = plane_lattice_basis(v0)
    forms = [
        (sign * det3(p, q, t0), sign * det3(p, q, u1), sign * det3(p, q, u2))
        for p, q, sign in ((n_prev, n_i, 1), (n_i, n_next, 1), (n_prev, n_next, -1))
    ]
    for a, b in _positive_square_points(forms, BLOWDOWN_BOX):
        cand = vec_add(t0, vec_add(vec_scale(a, u1), vec_scale(b, u2)))
        if is_primitive(cand) and delzant(cand):
            yield cand


def _positive_square_points(
    forms: Sequence[Tuple[int, int, int]], radius: int
) -> Iterator[Tuple[int, int]]:
    """Lattice points (a, b) with max(|a|, |b|) <= radius on which every
    form c + ca*a + cb*b is positive, shell by shell, each shell in
    lexicographic order.  Each side of a shell fixes one coordinate, so its
    points are an integer interval of the other; the four sorted sides
    merge into the shell's order."""

    def a_fixed(a: int, lo: int, hi: int) -> Iterator[Tuple[int, int]]:
        free = _positive_interval([(c + ca * a, cb) for c, ca, cb in forms], lo, hi)
        return ((a, b) for b in free)

    def b_fixed(b: int, lo: int, hi: int) -> Iterator[Tuple[int, int]]:
        free = _positive_interval([(c + cb * b, ca) for c, ca, cb in forms], lo, hi)
        return ((a, b) for a in free)

    if all(c > 0 for c, _, _ in forms):
        yield (0, 0)
    for r in range(1, radius + 1):
        yield from heapq.merge(
            a_fixed(-r, -r, r),
            b_fixed(-r, 1 - r, r - 1),
            b_fixed(r, 1 - r, r - 1),
            a_fixed(r, -r, r),
        )


def _positive_interval(forms: Sequence[Tuple[int, int]], lo: int, hi: int) -> range:
    """The integers x in [lo, hi] with c + m*x > 0 for every (c, m)."""
    for c, m in forms:
        if m > 0:
            lo = max(lo, -((c - 1) // m))
        elif m < 0:
            hi = min(hi, (c - 1) // -m)
        elif c <= 0:
            return range(0)
    return range(lo, hi + 1)


def _prime_construction(cone: GoodCone, i: int, admissible) -> Optional[Vec3]:
    """Dirichlet-progression construction: in a chart with n^{i+1} = e3, n^{i+2} = e2,
    set t = s1 x + s2 y + z (x = n^{i-1}, y = n^i, z a Delzant witness of
    (x, y)); pick s-parameters so t's first coordinate is (up to sign) a
    prime avoiding the two obstructing minors, then test the three listed
    shifts.

    The two witnesses, of the pairs (n^{i+1}, n^{i+2}) and (n^{i-1}, n^i),
    are the canonical ones that `face_invariants` reads, from the same
    table on the cone (`cone._pair_witness`), so a walk over every face
    computes each pair's witness once.  The drift (s10, s20) is
    `_s_pair`'s, which solves the case z0 = 0 instead of scanning it."""
    w = _pair_witness(cone, i + 1)
    wz = _pair_witness(cone, i - 1)
    if w is None or wz is None:
        return None
    # det3(w, n^{i+2}, n^{i+1}) = -det3(n^{i+1}, n^{i+2}, w) = -1, so the
    # chart (-w, n^{i+2}, n^{i+1}) has determinant 1 and Cramer rows for
    # its inverse.
    n_prev, n_i = cone.normal(i - 1), cone.normal(i)
    chart = ((-w[0], -w[1], -w[2]), cone.normal(i + 2), cone.normal(i + 1))
    rows = cramer_rows(*chart)
    x = tuple([dot(r, n_prev) for r in rows])
    y = tuple([dot(r, n_i) for r in rows])
    z = tuple([dot(r, wz) for r in rows])
    minor12 = y[0] * x[1] - x[0] * y[1]
    minor13 = y[0] * x[2] - x[0] * y[2]
    if minor12 == 0 or minor13 == 0 or (x[0] == 0 and y[0] == 0):
        return None
    # coefficient of s1 in t.(y x e3) is x1 y2 - x2 y1; epsilon makes the
    # s1, s2 drift enter the target cone
    eps = 1 if -minor12 > 0 else -1
    pair = _s_pair(x[0], y[0], z[0])
    if pair is None:
        return None
    s10, s20 = pair
    step = eps * (s10 * x[0] + s20 * y[0])
    for c in range(1, 4096):
        t1 = c * step + z[0]
        if abs(t1) < 2 or not is_prime(abs(t1)):
            continue
        if minor12 % abs(t1) == 0 or minor13 % abs(t1) == 0:
            continue
        for shift in range(3):
            s1 = c * eps * s10 - shift * y[0]
            s2 = c * eps * s20 + shift * x[0]
            # x, y and z are chart coordinates of n^{i-1}, n^i and wz
            cand = tuple([s1 * n_prev[j] + s2 * n_i[j] + wz[j] for j in range(3)])
            if admissible(cand):
                return cand
    return None


def _s_pair(x0: int, y0: int, z0: int) -> Optional[Tuple[int, int]]:
    """(a, s - a) for the least (s, a), in that order, with 2 <= s < 64 and
    1 <= a < s such that v = a x0 + (s - a) y0 is nonzero and coprime to
    z0; None when there is none.

    When z0 = 0, gcd(v, 0) = |v|, so v = a (x0 - y0) + s y0 must be +-1:
    for each s, a = (+-1 - s y0) / (x0 - y0) leaves at most two candidates
    in [1, s - 1], and none when x0 = y0.  Otherwise the pairs are scanned
    in that order."""
    if z0 == 0:
        d = x0 - y0
        if d == 0:
            return None
        for s in range(2, 64):
            for a in sorted((e - s * y0) // d for e in (-1, 1) if (e - s * y0) % d == 0):
                if 0 < a < s:
                    return a, s - a
        return None
    for s in range(2, 64):
        for a in range(1, s):
            v = a * x0 + (s - a) * y0
            if v != 0 and math.gcd(v, z0) == 1:
                return a, s - a
    return None


def find_blowdown_normal(
    cone: GoodCone,
    i: int,
    constraint: Optional[Tuple[Vec3, int]] = None,
) -> Optional[Vec3]:
    """Primitive t in the open cone Theta(i) = {det3(n^{i-1}, n^i, .) > 0,
    det3(n^i, n^{i+1}, .) > 0, det3(n^{i-1}, n^{i+1}, .) < 0}, Delzant-paired
    with n^{i-1} and n^{i+1}; optionally restricted to the affine slice
    v0 . t = value.  None when the bounded search is exhausted."""
    require_valid(cone)
    for t in _blowdown_candidates(cone, i, constraint):
        return t
    return None


# ---------------------------------------------------------------------------
# Blow-down planning.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PlanStep:
    op: str  # 'replace' | 'delete' | 'cut'
    params: dict
    pre: str
    post: str


@dataclass(frozen=True)
class SurgeryPlan:
    steps: Tuple[PlanStep, ...]

    def to_json(self) -> list:
        return [
            {"op": s.op, **s.params, "pre": s.pre, "post": s.post}
            for s in self.steps
        ]


def replay(plan: SurgeryPlan, cone: GoodCone) -> GoodCone:
    """Apply the plan's steps to `cone`, verifying each step's pre- and
    post-hash.  Each step checks its pre-hash, its op and its arguments
    before the edit validates its cone; the cone is validated at the first
    step, and every later step starts from the checked result of the one
    before."""
    digest = cone_hash(cone)
    for step in plan.steps:
        if digest != step.pre:
            raise PlanningError(f"pre-hash mismatch at step {step.op}", step)
        if step.op == "delete":
            cone = blowdown_delete(cone, step.params["i"])
        elif step.op == "replace":
            cone = replace_range(cone, step.params["range"], tuple(step.params["t"]))
        elif step.op == "cut":
            cone = cut(cone, CutSpec(tuple(step.params["t"]))).cone
        else:
            raise PlanningError(f"unknown op {step.op}", step)
        digest = cone_hash(cone)
        if digest != step.post:
            raise PlanningError(f"post-hash mismatch at step {step.op}", step)
    return cone


def plan_blowdown_sequence(cone: GoodCone, keep: Sequence[int]) -> SurgeryPlan:
    """Reduce the contiguous complement of `keep` to a single face by
    alternating lens blow-downs (replace the run's head by a fresh normal)
    and orbit blow-downs (delete the next face of the run), peeling from the
    low end.  The final cone's normals are keep ∪ {one new closing normal}.
    Every emitted step records pre/post hashes; replay verifies them.  The
    input and each step's result are validated once each."""
    return _planned(cone, keep)[0]


def _planned(cone: GoodCone, keep: Sequence[int]) -> Tuple[SurgeryPlan, GoodCone]:
    """The plan and the final cone it reaches, which the planner holds
    already: what `replay(plan, cone)` returns, without replaying."""
    require_valid(cone)
    k = len(cone)
    keep_set = {x % k for x in keep}
    removed = [i for i in range(k) if i not in keep_set]
    if not removed:
        return SurgeryPlan(steps=()), cone
    # One removed face per run follows a kept face: one run, one start.
    starts = [s for s in removed if (s - 1) % k in keep_set]
    if len(starts) != 1:
        raise PlanningError(f"removed faces {removed} are not contiguous")
    run = [cone.normals[(starts[0] + off) % k] for off in range(len(removed))]

    steps: List[PlanStep] = []
    current, digest = cone, cone_hash(cone)
    while len(run) >= 2:
        f = current.normals.index(run[0])
        placed = False
        for t in _blowdown_candidates(current, f, None):
            try:
                c1 = replace_range(current, [f], t)
            except SurgeryRejected:
                continue
            idx = c1.normals.index(run[1])
            try:
                c2 = blowdown_delete(c1, idx)
            except SurgeryRejected:
                continue
            h1, h2 = cone_hash(c1), cone_hash(c2)
            steps.append(
                PlanStep(
                    op="replace",
                    params={"range": [f], "t": list(t)},
                    pre=digest,
                    post=h1,
                )
            )
            steps.append(PlanStep(op="delete", params={"i": idx}, pre=h1, post=h2))
            current, digest = c2, h2
            run = [t] + run[2:]
            placed = True
            break
        if not placed:
            raise PlanningError(
                f"no blow-down normal reduces the run at face {f} within box {BLOWDOWN_BOX}"
            )
    return SurgeryPlan(steps=tuple(steps)), current


# ---------------------------------------------------------------------------
# Local blow-up parameters (cutting a neighborhood of a 1-dim extreme so the
# new extreme is 3-dimensional).
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LocalBlowupSolution:
    l: QuadNumber
    u: int
    v: int
    r1: QuadNumber
    r2: QuadNumber
    a0: int
    a1: int
    a2: int


def solve_local_blowup(
    lam0: QuadNumber,
    lam1: QuadNumber,
    m1: int,
    m2: int,
    radius_sq_inv: Fraction,
) -> LocalBlowupSolution:
    """Cutting data for a blow-up along a 1-dimensional minimal orbit with
    isotropy weights (m1, m2): radii r_i = l m_i with l = lam1 - (u/v) lam0,
    u/v rational of minimal height with gcd(v, m1) = gcd(v, m2) = 1 and both
    radii above the bound.  The S^1 weights come out as a0 = v, a1 = u m1,
    a2 = u m2, which satisfy gcd(a0, a1) = gcd(a0, a2) = 1 (free action) and
    a1 m2 - a2 m1 = 0 (the new extreme is 3-dimensional).

    Closed form.  For a bound B > 0 the feasible x = u/v satisfy
    sigma l > c with sigma = sign(m1) = sign(m2) and c = B / min|m_i|, an
    open half-line of x with end xi = (lam1 - sigma c) / lam0.  Opposite-sign
    weights leave it empty.  A fraction of height h on a half-line puts the
    integer +-h on it too, so the least height is reached at v = 1; among
    equal heights the order is u = -h before u = h (and -1, 0, 1 at h = 1)."""
    if lam0.is_zero():
        raise ValueError("lam0 must be nonzero")
    ratio = lam1 / lam0
    if ratio.is_rational():
        raise ValueError("(lam0, lam1) must be rationally independent (rank 2)")
    if m1 == 0 or m2 == 0 or math.gcd(abs(m1), abs(m2)) != 1:
        raise ValueError("weights must be nonzero coprime integers")
    bound = Fraction(radius_sq_inv)
    if bound <= 0:
        raise ValueError(f"radius_sq_inv must be positive, got {bound}")
    if (m1 > 0) != (m2 > 0):
        raise SearchExhausted(
            f"weights {m1}, {m2} have opposite signs: no u/v puts both radii above {bound}"
        )
    sigma = 1 if m1 > 0 else -1
    xi = (lam1 - sigma * (bound / min(abs(m1), abs(m2)))) / lam0
    if (sigma * lam0).sign() > 0:  # x < xi
        u = min(-1, -math.floor(-xi) - 1)
    else:  # x > xi
        u = max(-1, math.floor(xi) + 1)
    v = 1
    l = lam1 - u * lam0
    r1 = l * m1
    r2 = l * m2
    assert (r1 - bound).sign() > 0 and (r2 - bound).sign() > 0
    a0, a1, a2 = v, u * m1, u * m2
    assert math.gcd(a0, abs(a1)) == 1 and math.gcd(a0, abs(a2)) == 1
    assert a1 * m2 - a2 * m1 == 0
    return LocalBlowupSolution(l=l, u=u, v=v, r1=r1, r2=r2, a0=a0, a1=a1, a2=a2)


def can_blowdown_by_multiplicities(
    k0: int, k1: int, k2: int, l0_is_bmin: bool, l2_is_bmax: bool
) -> bool:
    """Multiplicity criterion for blowing down the middle gradient manifold:
    (k0 = k1 = 1 and the upper neighbor is B_max) or (the lower neighbor is
    B_min and k1 = k2 = 1)."""
    if k0 < 1 or k1 < 1 or k2 < 1:
        raise ValueError("multiplicities must be positive")
    return (k0 == 1 and k1 == 1 and l2_is_bmax) or (
        l0_is_bmin and k1 == 1 and k2 == 1
    )
