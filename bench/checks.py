"""Exact invariants the benchmark checks outputs against.

Everything here is integer or rational arithmetic written for the benchmark;
nothing is imported from goodcones, so a defect in the library cannot make
its own output look right.  Quadratic numbers a + b*sqrt(d) are read through
their ``rat`` / ``irr`` fields and handled as (Fraction, Fraction) pairs.
"""

from __future__ import annotations

import math
from fractions import Fraction


def det3(u, v, w):
    return (
        u[0] * (v[1] * w[2] - v[2] * w[1])
        - u[1] * (v[0] * w[2] - v[2] * w[0])
        + u[2] * (v[0] * w[1] - v[1] * w[0])
    )


def cross(u, v):
    return (
        u[1] * v[2] - u[2] * v[1],
        u[2] * v[0] - u[0] * v[2],
        u[0] * v[1] - u[1] * v[0],
    )


def dot(u, v):
    return sum(a * b for a, b in zip(u, v))


def content(v) -> int:
    g = 0
    for x in v:
        g = math.gcd(g, int(x))
    return g


def primitive(v) -> bool:
    return content(v) == 1


def basis_pair(n, m) -> bool:
    """(n, m) extends to a Z-basis of Z^3 iff the 2x2 minors of the 3x2
    matrix [n m] are coprime, i.e. n x m is primitive."""
    return primitive(cross(n, m))


def good_cone_failure(normals):
    """None when the cyclic list of normals is a good cone, else a reason:
    every normal primitive, det3(n^i, n^{i+1}, n^j) > 0 for every j off the
    pair, and every adjacent pair a lattice basis pair."""
    k = len(normals)
    if k < 3:
        return f"{k} normals"
    for i, n in enumerate(normals):
        if not primitive(n):
            return f"normal {i} not primitive"
    for i in range(k):
        a, b = normals[i], normals[(i + 1) % k]
        if not basis_pair(a, b):
            return f"pair {i} is not a lattice basis pair"
        for j in range(k):
            if j != i and j != (i + 1) % k and det3(a, b, normals[j]) <= 0:
                return f"det3(n{i}, n{i + 1}, n{j}) <= 0"
    return None


def in_theta(n_prev, n_i, n_next, t) -> bool:
    """t lies in the open blow-down cone Theta(i) of face i."""
    return (
        det3(n_prev, n_i, t) > 0
        and det3(n_i, n_next, t) > 0
        and det3(n_prev, n_next, t) < 0
    )


def span_normal(p, q):
    """Primitive integer normal of the plane spanned by rational p and q."""
    den = 1
    for x in tuple(p) + tuple(q):
        den = math.lcm(den, Fraction(x).denominator)
    c = cross(tuple(int(x * den) for x in p), tuple(int(x * den) for x in q))
    g = content(c)
    if g == 0:
        return None
    return tuple(x // g for x in c)


def example_normals(k: int):
    """Closed form of the example family: (1, i, i^2 - i + 1) for
    0 <= i <= k+1, closed by (1, 1, k+2)."""
    return [(1, i, i * i - i + 1) for i in range(k + 2)] + [(1, 1, k + 2)]


# -- Q(sqrt d) as (rational, irrational) pairs --------------------------------


def qpair(x):
    return Fraction(x.rat), Fraction(x.irr)


def qmul(a, b, d):
    return a[0] * b[0] + d * a[1] * b[1], a[0] * b[1] + a[1] * b[0]


def qsign(a, d) -> int:
    r, s = a
    sr = (r > 0) - (r < 0)
    ss = (s > 0) - (s < 0)
    if ss == 0 or sr == ss:
        return sr if sr else ss
    if sr == 0:
        return ss
    # opposite signs: compare r^2 with d s^2
    diff = r * r - d * s * s
    return sr if diff > 0 else (ss if diff < 0 else 0)


def reeb_pairing(reeb, v):
    """R . v for an integer vector v, as a pair."""
    return (
        sum(Fraction(p) * x for p, x in zip(reeb.p, v)),
        sum(Fraction(q) * x for q, x in zip(reeb.q, v)),
    )


def reeb_dot_point(reeb, point):
    """R . point for a point with Q(sqrt d) coordinates."""
    d = reeb.d
    total = (Fraction(0), Fraction(0))
    for p, q, x in zip(reeb.p, reeb.q, point):
        term = qmul((Fraction(p), Fraction(q)), qpair(x), d)
        total = (total[0] + term[0], total[1] + term[1])
    return total
