"""Constructive families: the explicit quadric-normal example family, the
obstructed family built by the coprimality-breaking induction, chain
closing, and the weighted-homogeneity checker.

Chain closing works on the affine lattice slice {v0 . t = 1}, v0 the
primitive normal of the plane spanned by the first and last chain normals
(any point of the slice is automatically Delzant-paired with both ends).
Each convexity constraint on the closing normal is linear in the step s
taken along first + last, so the first feasible candidate is read off in
closed form, and a chain cut from a good cone always closes.
"""

from __future__ import annotations

import itertools
import math
import random
from typing import List, Sequence, Tuple

from .cone import GoodCone, gluing_matrix, require_valid, validate
from .exactnum import (
    DegenerateInput,
    SearchExhausted,
    Vec3,
    _xgcd,
    cross,
    cross_primitive,
    det3,
    dot,
    int_triple,
    plane_lattice_basis,
    solve_dot_one,
    vec_add,
    vec_scale,
)
from .reeb import ReebVector, reeb_from_vectors


class ChainError(ValueError):
    """A chain of normals is too short or not positively convex."""


def example_family(k: int, d: int = 2) -> Tuple[GoodCone, ReebVector]:
    """Normals n^i = (1, i, i^2 - i + 1) for 0 <= i <= k+1 closed by
    n^{k+2} = (1, 1, k+2), with the canonical Reeb n^0 + sqrt(d) n^{k+1}.
    Every interior face is an RP^3 with trivial normal bundle."""
    if k < 2:
        raise ValueError("k must be at least 2")
    normals = [(1, i, i * i - i + 1) for i in range(k + 2)]
    normals.append((1, 1, k + 2))
    cone = GoodCone(tuple(normals))
    reeb = reeb_from_vectors(normals[0], normals[k + 1], d)
    return cone, reeb


def obstructed_family(
    k: int, seed: int = 0, d: int = 2
) -> Tuple[GoodCone, ReebVector]:
    """Good cone with a length-k chain none of whose lens spaces blows down
    to a closed orbit.  Induction: n^{s+1} = a n^{s-1} + c l^{s-1} + e n^s
    with c = 2, a negative odd and e positive even of seed-derived
    magnitudes grown until the two slope inequalities hold; each step's
    witness l^s keeps det3(n^s, n^{s+1}, l^s) = 1 while gcd(c, e) = 2 blocks
    the blow-down.  The chain is closed by `close_chain_normals`."""
    if k < 2:
        raise ValueError("k must be at least 2")
    rng = random.Random(seed)
    ns: List[Vec3] = [(1, 0, 1), (1, 1, 1)]
    ls: List[Vec3] = [(0, 0, 1)]
    for s in range(1, k + 1):
        n_prev, n_cur, l_prev = ns[s - 1], ns[s], ls[s - 1]
        c = 2
        a = -(1 + 2 * rng.randint(0, 3))
        e = 2 * (1 + rng.randint(0, 3))
        # (ii'): a (n^s x n^{s-1})_3 + c (n^s x l^{s-1})_3 > 0; the first
        # cross-term is negative by the induction, so growing |a| settles it.
        while a * cross(n_cur, n_prev)[2] + c * cross(n_cur, l_prev)[2] <= 0:
            a = 2 * a - 1
        # (i'): a (n^0 x n^{s-1})_3 + c (n^0 x l^{s-1})_3 + e (n^0 x n^s)_3 > 0
        head = cross(ns[0], n_prev)[2] * a + c * cross(ns[0], l_prev)[2]
        coeff = cross(ns[0], n_cur)[2]
        while head + e * coeff <= 0:
            e *= 2
        n_new = vec_add(vec_add(vec_scale(a, n_prev), vec_scale(c, l_prev)), vec_scale(e, n_cur))
        # witness: det T = ad - bc = -1 with gcd(a, 2) = 1
        g, x, y = _xgcd(a, c)
        assert g == 1
        dd, b = -x, y
        assert a * dd - b * c == -1
        l_new = vec_add(vec_add(vec_scale(b, n_prev), vec_scale(dd, l_prev)), vec_scale(0, n_cur))
        assert det3(n_cur, n_new, l_new) == 1, (n_cur, n_new, l_new)
        ns.append(n_new)
        ls.append(l_new)
    closing = close_chain_normals(ns)
    cone = GoodCone(tuple(ns) + (closing,))
    require_valid(cone)
    reeb = reeb_from_vectors(ns[0], ns[k + 1], d)
    return cone, reeb


def close_chain_normals(chain: Sequence[Vec3]) -> Vec3:
    """Closing normal for the chain (first, ..., last): satisfies
    det3(last, t, m) > 0 for every m before last and det3(t, first, m) > 0
    for every m after first, with Delzant pairs (last, t) and (t, first)
    guaranteed by the slice construction.

    The candidates are t = t0 + s (first + last) + j1 u1 + j2 u2 with
    v0 . t0 = 1 for v0 the primitive normal of first x last, (u1, u2) a basis
    of the lattice plane v0 . x = 0, j1 and j2 in [-3, 3] and s in the
    schedule 0, 1, ..., 64, 128, 256, ...  Every candidate has v0 . t = 1,
    so it is primitive without a gcd test.  The answer is the first feasible
    candidate in (s, j1, j2) order.

    Each constraint is one row w . t > 0, with w = m x last or w = first x m.
    At a window offset put e = w . (t0 + j1 u1 + j2 u2) and
    beta = w . (first + last), so the row reads e + s beta > 0.  A row with
    beta > 0 holds exactly for s >= lo = (-e) // beta + 1, and the least
    schedule step at or above lo is lo when lo <= 64 and the next power of
    two otherwise.  A row with beta <= 0 only loses ground as s grows.  So
    the offset's first feasible step is the least schedule step meeting
    every rising row, if the other rows hold there, and none otherwise.  The
    offsets are visited in order, each abandoned once its step reaches the
    best step found (ties go to the earlier offset).

    Why an answer exists for a chain cut from a good cone: for both kinds of
    row beta = det3(first, m, last).  The rows of m = first and of m = last
    read w = first x last, whose dot with every candidate is the positive
    constant gcd(first x last).  Every other m is interior, and three
    normals of a strictly convex cone in cyclic order have det3 > 0, so
    det3(first, m, last) > 0 and offset (0, 0) is feasible for all large s.
    Hence SearchExhausted is raised only when some interior m has
    det3(first, m, last) <= 0, and no good cone closes such a chain."""
    chain = [int_triple(n) for n in chain]
    if len(chain) < 2:
        raise ChainError("need at least two chain normals")
    first, last = chain[0], chain[-1]
    for a, b, c in zip(chain, chain[1:], chain[2:]):
        if det3(a, b, c) <= 0:
            raise ChainError(f"chain triple {a},{b},{c} is not positively convex")
    v0 = cross_primitive(first, last)
    t0 = solve_dot_one(v0)
    u1, u2 = plane_lattice_basis(v0)
    drift = vec_add(first, last)  # in the slice's lattice plane
    # One row (w . t0, w . u1, w . u2, w . drift) per constraint w . t > 0;
    # a row whose w . drift is not positive cannot gain from a larger s.
    rising, rest = [], []
    for w in [cross(m, last) for m in chain[:-1]] + [cross(first, m) for m in chain[1:]]:
        row = (dot(w, t0), dot(w, u1), dot(w, u2), dot(w, drift))
        (rising if row[3] > 0 else rest).append(row)
    best_s, best = math.inf, None
    for j1, j2 in itertools.product(range(-3, 4), repeat=2):
        s = 0
        for a, b1, b2, beta in rising:
            e = a + j1 * b1 + j2 * b2
            if e + s * beta <= 0:
                lo = -e // beta + 1
                s = lo if lo <= 64 else 1 << (lo - 1).bit_length()
                if s >= best_s:
                    break
        else:
            if all(a + j1 * b1 + j2 * b2 + s * beta > 0 for a, b1, b2, beta in rest):
                best_s, best = s, (j1, j2)
                if s == 0:
                    break
    if best is None:
        m, value = next(
            (m, det3(first, m, last)) for m in chain[1:-1] if det3(first, m, last) <= 0
        )
        raise SearchExhausted(
            f"no good cone closes the chain: interior normal m = {m} has "
            f"det3(first, m, last) = {value} <= 0"
        )
    t = vec_add(
        vec_add(t0, vec_scale(best_s, drift)),
        vec_add(vec_scale(best[0], u1), vec_scale(best[1], u2)),
    )
    assert dot(v0, t) == 1
    assert all(det3(last, t, m) > 0 for m in chain[:-1])
    assert all(det3(t, first, m) > 0 for m in chain[1:])
    return t


def close_chain(chain_normals: Sequence[Vec3]) -> Vec3:
    """Closing normal making the chain a good cone (validated here: raises
    InvalidCone with the report when the closed cone is not good)."""
    closing = close_chain_normals(chain_normals)
    require_valid(GoodCone(tuple(chain_normals) + (closing,)))
    return closing


def verify_obstructed_conditions(cone: GoodCone, k: int) -> bool:
    """Independent re-check of the construction's six conditions on a
    (k+3)-normal cone: (n^0 x n^i)_3 > 0, (n^i x n^{i+1})_3 > 0 and the
    shared factor of the transition entries c_i, e_i of each interior step
    are read here.  `validate` decides the three det3 > 0 conditions (on
    adjacent triples and on triples through (n^{k+1}, n^{k+2}) and
    (n^{k+2}, n^0): each pairs an adjacent pair with another normal) and
    the Delzant witnesses of the adjacent pairs."""
    ns = cone.normals
    if len(ns) != k + 3:
        return False
    for i in range(1, k + 2):
        if cross(ns[0], ns[i])[2] <= 0:
            return False
    for i in range(0, k + 1):
        if cross(ns[i], ns[i + 1])[2] <= 0:
            return False
    if not validate(cone).is_good:
        return False
    for i in range(0, k):
        t = gluing_matrix(cone, i)
        c_i, e_i = t[1][0], t[2][0]
        if math.gcd(abs(c_i), abs(e_i)) == 1:
            return False
    return True


def weighted_homogeneous_check(
    exponents: Sequence[Sequence[int]], w: Sequence[int], degree: int
) -> bool:
    """True iff every monomial exponent vector a satisfies w . a = degree
    (the polynomial scales as lambda^degree under the weight-w action).
    Every entry of w and of each a must be an int (TypeError otherwise, as
    in `int_triple`), and each a must have len(w) entries (DegenerateInput
    otherwise); every vector is checked before any sum is compared."""
    if not exponents:
        raise ValueError("empty exponent list")
    for vec in (w, *exponents):
        if any(type(x) is not int for x in vec):
            raise TypeError(f"weights and exponents must be int, got {tuple(vec)!r}")
        if len(vec) != len(w):
            raise DegenerateInput(
                f"exponent vector {tuple(vec)} does not have {len(w)} entries"
            )
    return all(sum(wi * ai for wi, ai in zip(w, a)) == degree for a in exponents)
