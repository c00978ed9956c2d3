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
* The prime construction leaves a face whose witness coordinate z0 is 0
  before asking for a drift pair, and reads its witnesses from the witness
  table.  A test-local copy of the former construction, which scanned
  every drift pair and computed both witnesses on each call, must give the
  same normal on every face of a corpus; the drift pair must equal the
  former scan on a grid and on wide random pairs, and no search at a face
  of the corpus asks for one with z0 = 0; a walk over every face computes
  each pair's witness once, and interleaved face reads and searches on two
  cones give what fresh calls give.  At every face of the corpus the chart
  identities that make its removed guards dead hold: minor12 < 0, minor13
  = 0 exactly on 3 faces, and on 4 or more faces x0, y0 < 0, so a z0 = 0
  face has no drift pair.
* `cone_hash` writes its JSON text itself: the text of `json.dumps`.
"""

import hashlib
import itertools
import json
import math
import random

import goodcones.cone
import goodcones.surgery as surgery
from goodcones.cone import GoodCone, _report, edge_rays, face_invariants, gluing_matrix
from goodcones.construct import example_family, obstructed_family
from goodcones.exactnum import (
    DegenerateInput,
    cramer_rows,
    delzant_witness,
    det3,
    dot,
    is_delzant_pair,
    is_prime,
    is_primitive,
    mat_vec,
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
    _s_pair,
    _theta_member,
    blowdown_delete,
    cone_hash,
    cut,
    find_blowdown_normal,
    replace_range,
)

from conftest import SIMPLICIAL, mat_from_columns, orbit_cut_normal, random_good_cone


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


def _admissible_at(cone, i):
    """A blow-down normal's test at face i: primitive, in Theta(i) and a
    Delzant pair with both neighbours."""
    n_prev, n_i, n_next = cone.normal(i - 1), cone.normal(i), cone.normal(i + 1)

    def admissible(t):
        if t is None or t == (0, 0, 0) or not is_primitive(t):
            return False
        if not _theta_member(n_prev, n_i, n_next, t):
            return False
        return is_delzant_pair(n_prev, t) and is_delzant_pair(n_next, t)

    return admissible


def _old_box(cone, i, radius):
    """Prime construction, then every point of the (2r+1)^3 shells up to
    `radius` in lexicographic order, filtered by admissibility."""
    n_prev, n_i, n_next = cone.normal(i - 1), cone.normal(i), cone.normal(i + 1)
    admissible = _admissible_at(cone, i)
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


# ---------------------------------------------------------------------------
# The prime construction as it was: a scan over every drift pair, and both
# witnesses computed on each call.
# ---------------------------------------------------------------------------


def _old_s_pair(x0, y0, z0):
    """The drift pair's scan over every (s, a), as it was."""
    for s in range(2, 64):
        for a in range(1, s):
            b = s - a
            if math.gcd(a * x0 + b * y0, z0) == 1 and a * x0 + b * y0 != 0:
                return a, b
    return None


def _old_prime_construction(cone, i, admissible):
    """`surgery._prime_construction` as it was: the drift pair scanned and
    both witnesses computed by `delzant_witness` on each call."""
    n_next, n_next2 = cone.normal(i + 1), cone.normal(i + 2)
    w = delzant_witness(n_next, n_next2)
    wz = delzant_witness(cone.normal(i - 1), cone.normal(i))
    if w is None or wz is None:
        return None
    chart = ((-w[0], -w[1], -w[2]), n_next2, n_next)
    base = mat_from_columns(*chart)
    rows = cramer_rows(*chart)
    x = tuple(dot(r, cone.normal(i - 1)) for r in rows)
    y = tuple(dot(r, cone.normal(i)) for r in rows)
    z = tuple(dot(r, wz) for r in rows)
    minor12 = y[0] * x[1] - x[0] * y[1]
    minor13 = y[0] * x[2] - x[0] * y[2]
    if minor12 == 0 or minor13 == 0 or (x[0] == 0 and y[0] == 0):
        return None
    eps = 1 if -minor12 > 0 else -1
    pair = _old_s_pair(x[0], y[0], z[0])
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
            cand = mat_vec(base, tuple(s1 * x[j] + s2 * y[j] + z[j] for j in range(3)))
            if admissible(cand):
                return cand
    return None


def _corpus():
    """4,276 faces: `example_family(2..48)`, `obstructed_family(2..32 even)`
    with seeds 0-2, and 400 random cones of 3 to 7 faces."""
    cones = [example_family(k)[0] for k in range(2, 49)]
    cones += [obstructed_family(k, seed=seed)[0] for k in range(2, 33, 2) for seed in range(3)]
    rnd = random.Random(20240817)
    cones += [random_good_cone(rnd, cuts=n % 5) for n in range(400)]
    return cones


CORPUS = _corpus()


def test_s_pair_matches_the_scan():
    outcomes = set()
    for x0, y0, z0 in itertools.product(range(-12, 13), range(-12, 13), range(-6, 7)):
        pair = _s_pair(x0, y0, z0)
        assert pair == _old_s_pair(x0, y0, z0), (x0, y0, z0)
        outcomes.add((z0 == 0, pair is None))
    # z0 = 0 finds a pair, as at (1, 0), and misses one, as at x0 = y0
    assert outcomes == {(True, True), (True, False), (False, True), (False, False)}
    assert _s_pair(1, 0, 0) == (1, 1) and _s_pair(5, 5, 0) is None
    rnd = random.Random(5)
    for _ in range(300):
        x0, y0 = (rnd.randint(-10**6, 10**6) for _ in range(2))
        z0 = rnd.choice((0, rnd.randint(-10**6, 10**6)))
        assert _s_pair(x0, y0, z0) == _old_s_pair(x0, y0, z0), (x0, y0, z0)


def test_s_pair_solves_z0_zero_on_the_grid():
    """Every (x0, y0) with |x0|, |y0| <= 60 and z0 = 0."""
    found = 0
    for x0, y0 in itertools.product(range(-60, 61), repeat=2):
        pair = _s_pair(x0, y0, 0)
        assert pair == _old_s_pair(x0, y0, 0), (x0, y0)
        found += pair is not None
    assert found == 4410


def _wide_pairs(rnd, bits):
    """Random (x0, y0) of `bits` bits, which almost never have a drift
    pair, and ones built to have the drift e at some (s, a): with a = 1,
    x0 = e - (s - 1) y0, and with a = s - 1, y0 = e - (s - 1) x0."""
    for _ in range(60):
        yield rnd.randint(-(2**bits), 2**bits), rnd.randint(-(2**bits), 2**bits)
    for _ in range(60):
        s, e, w = rnd.randint(2, 63), rnd.choice((-1, 1)), rnd.randint(-(2**bits), 2**bits)
        yield (e - (s - 1) * w, w) if rnd.random() < 0.5 else (w, e - (s - 1) * w)


def test_s_pair_solves_z0_zero_on_wide_pairs():
    rnd = random.Random(32)
    outcomes = set()
    for bits in (64, 256):
        for x0, y0 in _wide_pairs(rnd, bits):
            pair = _s_pair(x0, y0, 0)
            assert pair == _old_s_pair(x0, y0, 0), (x0, y0)
            outcomes.add(pair is None)
    assert outcomes == {True, False}


def test_s_pair_closed_form_cases():
    """Each exit of the closed form, against the scan."""
    cases = {
        (5, 5): None,  # d = 0
        (4, -2): None,  # y0 = -2 is not a unit mod |d| = 6
        (1, 0): (1, 1),  # |d| = 1: s = 2 for e = +1; e = -1 has an empty interval
        (-1, 0): (1, 1),  # |d| = 1: s = 2 for e = -1; e = +1 has an empty interval
        (3, 2): None,  # |d| = 1: both intervals are empty (v >= 2 on them)
        (1, -1): (1, 2),  # |d| = 2: both signs at s = 3, and a = 1 is the least
        (-7, 1): (1, 6),  # |d| = 8: s = -1 (mod 8) gives s = 7 for e = -1
        (1, -7): (6, 1),  # the mirror: a and s - a swap
        (-100, 1): None,  # |d| = 101: each class's least s is beyond 63
        (2**70 + 1, 1): None,  # empty intervals at 71 bits
    }
    for (x0, y0), expected in cases.items():
        assert _old_s_pair(x0, y0, 0) == expected, (x0, y0)
        assert _s_pair(x0, y0, 0) == expected, (x0, y0)


def test_the_drift_pair_is_never_asked_for_with_z0_zero(monkeypatch):
    """`find_blowdown_normal` at every face of the corpus: a face whose
    witness coordinate z0 is 0 (500 or more of them, see the chart identity
    test below) leaves the prime construction before `_s_pair`, which could
    not give it a pair."""
    z0s = []
    original = surgery._s_pair

    def recorded(x0, y0, z0):
        z0s.append(z0)
        return original(x0, y0, z0)

    monkeypatch.setattr(surgery, "_s_pair", recorded)
    for cone in CORPUS:
        for i in range(len(cone)):
            find_blowdown_normal(cone, i)
    assert z0s and 0 not in z0s


def test_prime_construction_matches_the_old_one_on_the_corpus():
    faces = solved = 0
    for cone in CORPUS:
        for i in range(len(cone)):
            admissible = _admissible_at(cone, i)
            t = _prime_construction(cone, i, admissible)
            assert t == _old_prime_construction(cone, i, admissible), (cone.normals, i)
            faces += 1
            solved += t is not None
    assert faces == 4276 and 0 < solved < faces


def test_the_prime_construction_chart_identities_hold_on_the_corpus():
    """In the chart (-w, n^{i+2}, n^{i+1}) of determinant 1: minor12 =
    -det3(n^{i-1}, n^i, n^{i+1}) < 0, minor13 = det3(n^{i-1}, n^i, n^{i+2}),
    0 exactly on 3 faces, and with 4 or more faces x0 < 0 and y0 < 0, so
    when z0 = 0 there is no drift pair and the construction gives up."""
    three = dead_pairs = 0
    for cone in CORPUS:
        k = len(cone)
        for i in range(k):
            n_prev, n_i, n_next, n_next2 = (cone.normal(i + j) for j in (-1, 0, 1, 2))
            w = delzant_witness(n_next, n_next2)
            rows = cramer_rows((-w[0], -w[1], -w[2]), n_next2, n_next)
            wz = delzant_witness(n_prev, n_i)
            x, y, z = ([dot(r, v) for r in rows] for v in (n_prev, n_i, wz))
            minor12 = y[0] * x[1] - x[0] * y[1]
            minor13 = y[0] * x[2] - x[0] * y[2]
            assert minor12 == -det3(n_prev, n_i, n_next) < 0, (cone.normals, i)
            assert minor13 == det3(n_prev, n_i, n_next2), (cone.normals, i)
            assert (minor13 == 0) == (k == 3), (cone.normals, i)
            if k == 3:
                three += 1
                assert _prime_construction(cone, i, _admissible_at(cone, i)) is None
                continue
            assert x[0] < 0 and y[0] < 0, (cone.normals, i)
            if z[0] == 0:
                dead_pairs += 1
                assert _s_pair(x[0], y[0], 0) is None, (cone.normals, i)
                assert _prime_construction(cone, i, _admissible_at(cone, i)) is None
    assert three == 240 and dead_pairs >= 500, (three, dead_pairs)


def _counting_witnesses(monkeypatch):
    calls = []
    original = goodcones.cone.delzant_witness
    monkeypatch.setattr(
        goodcones.cone, "delzant_witness", lambda n, m: calls.append((n, m)) or original(n, m)
    )
    return calls


def test_a_search_at_every_face_computes_each_witness_once(monkeypatch):
    calls = _counting_witnesses(monkeypatch)
    for cone in CORPUS[::7]:
        cone = GoodCone(cone.normals)  # a new object: its witnesses are not read yet
        del calls[:]
        normals = [find_blowdown_normal(cone, i) for i in range(len(cone))]
        assert len(calls) == len(cone) == len(set(calls)), cone.normals
        # the face reads that follow find every witness in the table
        for i in range(len(cone)):
            face_invariants(cone, i)
        assert len(calls) == len(cone)
        assert [find_blowdown_normal(cone, i) for i in range(len(cone))] == normals
        assert len(calls) == len(cone)


def test_interleaved_face_reads_and_searches_match_fresh_calls():
    rnd = random.Random(11)
    for _ in range(12):
        a, b = rnd.sample(CORPUS, 2)
        faces = [(rnd.randrange(len(a)), rnd.randrange(len(b))) for _ in range(10)]
        # fresh copies: every call starts from an empty witness table
        expected = [
            (
                face_invariants(GoodCone(a.normals), i),
                gluing_matrix(GoodCone(a.normals), i),
                find_blowdown_normal(GoodCone(b.normals), j),
            )
            for i, j in faces
        ]
        assert [
            (face_invariants(a, i), gluing_matrix(a, i), find_blowdown_normal(b, j))
            for i, j in faces
        ] == expected


def _json_hash(cone):
    payload = json.dumps(
        {"normals": [list(n) for n in cone.normals]}, sort_keys=True, separators=(",", ":")
    )
    return hashlib.sha256(payload.encode()).hexdigest()


def test_cone_hash_is_the_hash_of_the_json_text():
    big = 1 << 4095
    shear = ((1, big, 0), (0, 1, -big), (0, 0, 1))
    cones = CORPUS + [GoodCone(tuple(mat_vec(shear, n) for n in c.normals)) for c in CORPUS[:60]]
    assert any(x < 0 for c in cones for n in c.normals for x in n)
    assert max(abs(x) for c in cones for n in c.normals for x in n).bit_length() >= 4096
    for cone in cones:
        assert cone_hash(cone) == _json_hash(cone)
