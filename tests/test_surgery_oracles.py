"""The surgery write path against its reference implementations.

* Each edit validates its result, and `validate` decides a good cone with
  the O(k) goodness predicate `_is_good`.  Every public edit is run twice:
  as is, and with that predicate swapped in `goodcones.cone` for the full
  O(k^2) validation loop.  Acceptance, the returned cone and the
  `SurgeryRejected` report (or the `DegenerateInput`) must agree.
* The blow-down search scans only the points of Theta(i).  Test-local
  copies of the former scans, which filter the whole (2r+1)^3 box and the
  whole (2r+1)^2 square of the constraint slice, must give the same first
  candidates in the same order.
"""

import itertools

import goodcones.cone
import goodcones.surgery as surgery
from goodcones.cone import GoodCone, _report, edge_rays
from goodcones.exactnum import (
    DegenerateInput,
    dot,
    is_delzant_pair,
    is_primitive,
    plane_lattice_basis,
    primitive_part,
    solve_dot_one,
    vec_add,
    vec_scale,
)
from goodcones.surgery import (
    CutSpec,
    SurgeryRejected,
    _blowdown_candidates,
    _positive_square_points,
    _prime_construction,
    _theta_member,
    blowdown_delete,
    cut,
    find_blowdown_normal,
    replace_range,
)

from conftest import SIMPLICIAL, orbit_cut_normal, random_good_cone


# ---------------------------------------------------------------------------
# The goodness predicate versus the full validation loop.
# ---------------------------------------------------------------------------


def _full_check(normals):
    return _report(normals).is_good


def _outcome(op, *args):
    try:
        result = op(*args)
    except SurgeryRejected as exc:
        return ("rejected", str(exc), exc.report)
    except DegenerateInput as exc:
        return ("degenerate", str(exc))
    if isinstance(result, GoodCone):
        return ("ok", result.normals)
    return ("ok", result.cone.normals, result.kind, result.index)


def _random_normal(rnd, size=4):
    while True:
        t = tuple(rnd.randint(-size, size) for _ in range(3))
        if is_primitive(t):
            return t


class Differential:
    def __init__(self, monkeypatch):
        self.monkeypatch = monkeypatch
        self.seen = {}

    def __call__(self, label, op, *args):
        local = _outcome(op, *args)
        with self.monkeypatch.context() as m:
            m.setattr(goodcones.cone, "_is_good", _full_check)
            full = _outcome(op, *args)
        assert local == full, (label, args)
        self.seen.setdefault(label, set()).add(local[0])
        return local


def _replace_label(k, rng):
    if len(rng) == 1:
        return "replace"
    return "replace-wrap" if rng[-1] >= k else "replace-multi"


def test_local_check_matches_full_validate(rnd, monkeypatch):
    check = Differential(monkeypatch)
    cones = [SIMPLICIAL] + [random_good_cone(rnd, cuts=rnd.randint(0, 4)) for _ in range(60)]
    for cone in cones:
        k = len(cone)
        for v in range(k):  # orbit inserts at every vertex, the last included
            for a, b in ((1, 1), (rnd.randint(1, 4), rnd.randint(1, 4))):
                res = check("orbit", cut, cone, CutSpec(orbit_cut_normal(cone, v, a, b)))
                if res[0] != "ok" or res[2] != "orbit-blowup":
                    continue
                blown, u = GoodCone(res[1]), res[3]
                check("delete", blowdown_delete, blown, u + 1)
                # merge the inserted normal into either neighbour again
                for rng, t in (([u, u + 1], cone.normal(u)), ([u + 1, u + 2], cone.normal(u + 1))):
                    check(_replace_label(k + 1, rng), replace_range, blown, rng, t)
        for i in range(k):
            check("delete", blowdown_delete, cone, i)
            # lens cuts: the primitive part of y n^i - n^{i-1} - n^{i+1}
            for y in (2, 3, rnd.randint(4, 12)):
                t = tuple(y * p - q - r for p, q, r in zip(cone.normal(i), cone.normal(i - 1), cone.normal(i + 1)))
                if t != (0, 0, 0):
                    check("cut", cut, cone, CutSpec(primitive_part(t)))
            t = find_blowdown_normal(cone, i)
            if t is not None:
                check("replace", replace_range, cone, [i], t)
        rays = edge_rays(cone)
        for _ in range(12):  # random edits, mostly rejected
            t = _random_normal(rnd)
            check("cut", cut, cone, CutSpec(t))
            start, length = rnd.randrange(k), rnd.randint(1, k - 1)
            rng = [start + off for off in range(length)]
            check(_replace_label(k, rng), replace_range, cone, rng, t)
            # t >= 0 on every edge ray gets past the attachment check, so
            # the result check decides
            t = primitive_part(vec_add(cone.normal(start), vec_scale(rnd.randint(0, 2), cone.normal(start + 1))))
            assert all(dot(t, e) >= 0 for e in rays)
            check(_replace_label(k, rng), replace_range, cone, rng, t)
    outcomes = check.seen
    for label in ("orbit", "cut", "delete", "replace", "replace-multi", "replace-wrap"):
        assert {"ok", "rejected"} <= outcomes[label], label
    assert "degenerate" in outcomes["delete"]  # 3 normals leave 2
    assert "degenerate" in outcomes["replace-multi"] | outcomes["replace-wrap"]


# ---------------------------------------------------------------------------
# The former filtered scans, as oracles.
# ---------------------------------------------------------------------------


def _old_box(cone, i, radius):
    """Prime construction, then every point of the (2r+1)^3 shells up to
    `radius` in lexicographic order, filtered by admissibility."""
    n_prev, n_i, n_next = cone.normal(i - 1), cone.normal(i), cone.normal(i + 1)

    def admissible(t):
        if t is None or t == (0, 0, 0) or not is_primitive(t):
            return False
        if not _theta_member(n_prev, n_i, n_next, t):
            return False
        return is_delzant_pair(n_prev, t) and is_delzant_pair(n_next, t)

    out = []
    t = _prime_construction(cone, i, admissible)
    if t is not None and admissible(t):
        out.append(t)
    for r in range(1, radius + 1):
        for s in itertools.product(range(-r, r + 1), repeat=3):
            if max(map(abs, s)) != r:
                continue
            v = vec_add(vec_add(vec_scale(s[0], n_prev), vec_scale(s[1], n_i)), vec_scale(s[2], n_next))
            cand = None if v == (0, 0, 0) else primitive_part(v)
            if cand not in out and admissible(cand):
                out.append(cand)
    return out


def _old_slice(cone, i, v0, value, radius):
    """Every point of the (2r+1)^2 shells of the slice v0 . t = value up to
    `radius`, in lexicographic order, filtered by admissibility."""
    n_prev, n_i, n_next = cone.normal(i - 1), cone.normal(i), cone.normal(i + 1)
    t0 = vec_scale(value, solve_dot_one(v0)) if value != 0 else (0, 0, 0)
    u1, u2 = plane_lattice_basis(v0)
    out = []
    for r in range(radius + 1):
        for a, b in itertools.product(range(-r, r + 1), repeat=2):
            if max(abs(a), abs(b)) != r:
                continue
            t = vec_add(t0, vec_add(vec_scale(a, u1), vec_scale(b, u2)))
            if (
                t != (0, 0, 0)
                and is_primitive(t)
                and _theta_member(n_prev, n_i, n_next, t)
                and dot(v0, t) == value
                and is_delzant_pair(n_prev, t)
                and is_delzant_pair(n_next, t)
            ):
                out.append(t)
    return out


def _prefix(gen, n):
    return list(itertools.islice(gen, n))


def test_octant_scan_matches_old_box(rnd):
    compared = 0
    for _ in range(25):
        cone = random_good_cone(rnd, cuts=rnd.randint(0, 3))
        i = rnd.randrange(len(cone))
        expected = _old_box(cone, i, 4)
        assert _prefix(_blowdown_candidates(cone, i, None), len(expected)) == expected
        compared += len(expected)
    assert compared >= 200


def test_slice_scan_matches_old_square(rnd):
    nonempty = empty = 0
    for _ in range(40):
        cone = random_good_cone(rnd, cuts=rnd.randint(0, 3))
        i = rnd.randrange(len(cone))
        v0, value = _random_normal(rnd, size=3), rnd.randint(-3, 3)
        expected = _old_slice(cone, i, v0, value, 8)
        assert _prefix(_blowdown_candidates(cone, i, (v0, value)), len(expected)) == expected
        nonempty += bool(expected)
    # Theta(i) lies on the positive side of the edge ray e = n^i x n^{i+1}
    # (e pairs to 0 with n^i, n^{i+1} and positively with n^{i-1}), so the
    # slice e . t = value <= 0 misses it: both scans yield nothing at all
    for _ in range(4):
        cone = random_good_cone(rnd, cuts=rnd.randint(0, 3))
        i = rnd.randrange(len(cone))
        e = edge_rays(cone)[i]
        for value in (0, -1):
            assert _old_slice(cone, i, e, value, surgery.BLOWDOWN_BOX) == []
            assert list(_blowdown_candidates(cone, i, (e, value))) == []
            empty += 1
    assert nonempty >= 10 and empty == 8


def _square_filter(forms, radius):
    return [
        (a, b)
        for r in range(radius + 1)
        for a, b in itertools.product(range(-r, r + 1), repeat=2)
        if max(abs(a), abs(b)) == r and all(c + ca * a + cb * b > 0 for c, ca, cb in forms)
    ]


def test_positive_square_points_match_filter(rnd):
    sizes = set()
    for _ in range(400):
        forms = [
            tuple(rnd.choice((0, rnd.randint(-9, 9))) for _ in range(3))
            for _ in range(rnd.randint(1, 3))
        ]
        radius = rnd.randint(0, 7)
        expected = _square_filter(forms, radius)
        assert list(_positive_square_points(forms, radius)) == expected
        sizes.add(min(len(expected), 2))
    assert sizes == {0, 1, 2}
