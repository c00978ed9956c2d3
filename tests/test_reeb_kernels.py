"""The Reeb layer decides signs and orders in Z.  Each integer kernel is
checked against a test-local copy of the Q(sqrt(d)) route it replaced:
admissibility, the arc decomposition, the closure residual, both width
routes, `face_slope` and `slope_change` must agree exactly on the random
cones of conftest, on `example_family(k)` up to k = 256 and on
`obstructed_family(k)` up to k = 96 (entries of 107 bits).  `quad_sign` is
checked against a Fraction bracket of sqrt(d), and `validate` against a
copy of its old triple loop.  The arcs, a walk of the faces from the least
vertex, are checked against a sort of the oracle's moments, and the two
ends of each flat face against a tie in those moments.  The cleared parts
a ReebVector carries are checked against a copy of the clearing function
they replaced.  The transverse circle, its least-denominator descent, the
closure residual and the chain sums run on integer pairs; each is checked
against a copy of its Fraction version on the same corpus, and the descent
also on ends of up to 4096 bits.  A Fraction is built only for a returned
value, so the number built does not grow with the number of faces."""

import math
import random
import sys
from fractions import Fraction
from functools import cmp_to_key

import pytest

import goodcones.euler as euler_module
import goodcones.exactnum as exactnum_module
import goodcones.reeb as reeb_module
from goodcones.cone import GoodCone, ValidityReport, edge_rays, validate
from goodcones.construct import example_family, obstructed_family
from goodcones.euler import (
    ChainDataError,
    ChainDescriptor,
    build_identity_data,
    chain_euler_sum,
    critical_jump,
    evaluate_identity,
    verify_global_identity,
)
from goodcones.exactnum import (
    QuadNumber,
    cross,
    det3,
    dot,
    is_delzant_pair,
    least_denominator_of_pairs,
    quad,
    quad_sign,
    solve_dot_one,
    vec_add,
    vec_scale,
)
from goodcones.reeb import (
    _transverse_circle,
    arc_decomposition,
    choose_transverse_circle,
    closure_identity_residual,
    det_g,
    face_slope,
    is_admissible,
    isotropy_profile,
    rank_of,
    reeb_from_vectors,
    slope_change,
    width_of_flat_face,
)

from conftest import random_admissible_rank2_reeb, random_good_cone

# ---------------------------------------------------------------------------
# Oracles: the Q(sqrt(d)) routes as they were before the integer kernels.
# ---------------------------------------------------------------------------


def old_sign(x: QuadNumber) -> int:
    """The case analysis on Fractions that QuadNumber.sign used to do."""
    a, b = x.rat, x.irr
    if b == 0:
        return (a > 0) - (a < 0)
    if a == 0:
        return 1 if b > 0 else -1
    if a > 0 and b > 0:
        return 1
    if a < 0 and b < 0:
        return -1
    lhs, rhs = a * a, x.d * b * b
    if a > 0:
        return 1 if lhs > rhs else -1
    return 1 if rhs > lhs else -1


def old_key(x: QuadNumber):
    return cmp_to_key(lambda u, v: old_sign(u - v))(x)


def lift(v, d):
    return tuple(quad(x, 0, d) for x in v)


def old_clear(R):
    """(P, Q, den) with R = (P + sqrt(d) Q) / den, as `reeb._clear` gave it."""
    den = math.lcm(*(x.denominator for x in R.p + R.q))
    return (
        tuple(x.numerator * (den // x.denominator) for x in R.p),
        tuple(x.numerator * (den // x.denominator) for x in R.q),
        den,
    )


def old_pair(R, v):
    return QuadNumber(dot(R.p, v), dot(R.q, v), R.d)


def old_admissible(cone, R):
    return all(old_sign(old_pair(R, e)) > 0 for e in edge_rays(cone))


def signed(profile, cone):
    """The signed isotropies v0 . n of the cone's normals."""
    return tuple(dot(profile.v0, n) for n in cone.normals)


def old_polygon(R, rays):
    verts = []
    for e in rays:
        inv = old_pair(R, e).inverse()
        verts.append(tuple(inv * quad(c, 0, R.d) for c in e))
    return verts


def old_moments(cone, R, ybar):
    """Ybar-moment of each polygon vertex, as sort keys."""
    verts = old_polygon(R, edge_rays(cone))
    return [old_key(sum(ybar[j] * v[j] for j in range(3))) for v in verts]


def old_arcs(cone, profile, pi_vals):
    """(minimum, maximum, neg_arc, pos_arc) from the moment polygon."""
    k = len(cone)
    signs = signed(profile, cone)

    def extreme_at(argbest):
        if argbest in profile.flats:
            return ("flat", argbest)
        nxt = (argbest + 1) % k
        if nxt in profile.flats:
            return ("flat", nxt)
        return ("vertex", argbest)

    minimum = extreme_at(min(range(k), key=lambda i: pi_vals[i]))
    maximum = extreme_at(max(range(k), key=lambda i: pi_vals[i]))
    drop = {e[1] for e in (minimum, maximum) if e[0] == "flat"}
    members = [f for f in range(k) if f not in drop]
    neg = [f for f in members if signs[f] < 0]
    pos = [f for f in members if signs[f] > 0]

    def face_level(face):
        lo_v, hi_v = pi_vals[(face - 1) % k], pi_vals[face]
        return min(lo_v, hi_v), max(lo_v, hi_v)

    neg.sort(key=face_level)
    pos.sort(key=face_level)
    return minimum, maximum, tuple(neg), tuple(pos)


def old_residual(cone, R, profile, ybar, neg, pos):
    d = R.d
    signs = signed(profile, cone)
    y = lift(ybar, d)

    def nrm(face):
        return lift(cone.normal(face), d)

    def kk(f1, f2):
        return Fraction(1, abs(signs[f1]) * abs(signs[f2]))

    c1, c2 = neg, pos
    total = quad(0, 0, d)
    total = total + kk(c2[-1], c1[-1]) * det3(nrm(c2[-1]), nrm(c1[-1]), y)
    total = total + kk(c1[0], c2[0]) * det3(nrm(c1[0]), nrm(c2[0]), y)
    for sgn, arc in ((1, c1), (-1, c2)):
        for a, b in zip(arc, arc[1:]):
            total = total - sgn * kk(b, a) * det3(nrm(b), nrm(a), y)
    return total


def old_widths(cone, R, profile, ybar, i):
    """(determinant route, chord route) of the flat face i."""
    verts = old_polygon(R, edge_rays(cone))
    k = len(cone)
    p_lo, p_hi = verts[(i - 1) % k], verts[i % k]
    c_lo = sum(ybar[j] * p_lo[j] for j in range(3))
    n_prev, n_next = cone.normal(i - 1), cone.normal(i + 1)
    s = dot(profile.v0, n_prev) * dot(profile.v0, n_next)
    rq = tuple(QuadNumber(R.p[j], R.q[j], R.d) for j in range(3))
    third = tuple(c_lo * rc - y for rc, y in zip(rq, ybar))
    num = det3(lift(n_prev, R.d), lift(n_next, R.d), third)
    formula = num / (quad(s, 0, R.d) * det_g(profile, R, ybar))
    m = solve_dot_one(profile.v0)
    chord = sum(m[j] * (p_hi[j] - p_lo[j]) for j in range(3))
    return (
        formula if old_sign(formula) >= 0 else -formula,
        chord if old_sign(chord) >= 0 else -chord,
    )


def old_face_slope(profile, R, ybar, n):
    m = solve_dot_one(profile.v0)
    rq = tuple(QuadNumber(R.p[j], R.q[j], R.d) for j in range(3))
    return det3(lift(n, R.d), rq, lift(m, R.d)) / det3(lift(n, R.d), rq, lift(ybar, R.d))


def old_slope_change(profile, R, ybar, n, np):
    rq = tuple(QuadNumber(R.p[j], R.q[j], R.d) for j in range(3))
    num = det3(lift(n, R.d), lift(np, R.d), rq)
    s = dot(profile.v0, n) * dot(profile.v0, np)
    return num / (quad(s, 0, R.d) * det_g(profile, R, ybar))


def old_least_denominator(lo, lo_open, hi, hi_open, infinite_steps=None):
    """`least_denominator` on Fractions, as it was; each step at which the
    upper end becomes infinite is appended to `infinite_steps`."""
    lo, hi = Fraction(lo), Fraction(hi)
    if lo > hi or (lo == hi and (lo_open or hi_open)):
        return None
    C, D = 0, 1
    while True:
        n = math.floor(lo)
        z = n + 1 if lo_open or n < lo else n
        if hi is None or z < hi or (z == hi and not hi_open):
            return C * z + D
        C, D = C * n + D, C
        inv_lo = None if lo == n else 1 / (lo - n)
        if inv_lo is None and infinite_steps is not None:
            infinite_steps.append((lo, hi))
        lo, lo_open, hi, hi_open = 1 / (hi - n), hi_open, inv_lo, lo_open


def old_transverse_circle(profile, rays):
    """`reeb._transverse_circle` with its bounds kept as Fractions."""
    u1, u2 = profile.lieG_basis
    pairs = [(dot(u1, e), dot(u2, e)) for e in rays]
    found = []
    for sigma in (-1, 1):
        for first in (True, False):
            lo, lo_open, hi, hi_open = Fraction(-1), False, Fraction(1), False
            for c1, c2 in pairs:
                alpha, beta = (sigma * c1, c2) if first else (sigma * c2, c1)
                if beta == 0:
                    if alpha <= 0:
                        break
                    continue
                if beta > 0 and -alpha * lo.denominator >= lo.numerator * beta:
                    lo, lo_open = Fraction(-alpha, beta), True
                elif beta < 0 and -alpha * hi.denominator >= hi.numerator * beta:
                    hi, hi_open = Fraction(-alpha, beta), True
            else:
                q = old_least_denominator(lo, lo_open, hi, hi_open)
                if q is not None:
                    t = math.floor(lo * q) + 1 if lo_open else math.ceil(lo * q)
                    found.append((q, (sigma * q, t) if first else (t, sigma * q)))
    _, (a, b) = min(found)
    return vec_add(vec_scale(a, u1), vec_scale(b, u2))


def old_fraction_residual(cone, R, profile, arcs, ybar):
    """`closure_identity_residual` summing Fractions term by term."""
    signs = signed(profile, cone)

    def term(f1, f2):
        return Fraction(
            det3(cone.normal(f1), cone.normal(f2), ybar),
            abs(signs[f1]) * abs(signs[f2]),
        )

    c1, c2 = arcs.neg_arc, arcs.pos_arc
    total = term(c2[-1], c1[-1]) + term(c1[0], c2[0])
    for sgn, arc in ((1, c1), (-1, c2)):
        for a, b in zip(arc, arc[1:]):
            total -= sgn * term(b, a)
    return quad(total, 0, R.d)


def old_chain_euler_sum(chain):
    """`chain_euler_sum` summing the jump Fractions; returns (total, d), or
    the message of the ChainDataError it raised."""
    total = sum(
        (critical_jump(chain.a[i], chain.k[i], chain.k[i + 1]) for i in range(len(chain.a))),
        Fraction(0),
    )
    lcm = math.lcm(chain.k[0], chain.k[-1])
    d = total * lcm
    if d.denominator != 1 or d <= 0:
        return f"chain sum {total} times lcm {lcm} is not a positive integer"
    return total, int(d)


def new_chain_euler_sum(chain):
    try:
        return chain_euler_sum(chain)
    except ChainDataError as err:
        return str(err)


def report_chains(report):
    """The chains of an Euler report, rebuilt from its jump terms: each chain
    lists its jumps in arc order, and the two chains share no face."""
    chains = []
    for t in report.terms:
        if t.kind != "jump":
            continue
        if chains and chains[-1][0][-1] == t.location[0]:
            faces, k, a = chains[-1]
            chains[-1] = (faces + [t.location[1]], k + [t.k[1]], a + [t.a])
        else:
            chains.append(([*t.location], [*t.k], [t.a]))
    return [ChainDescriptor(k=tuple(k), a=tuple(a)) for _, k, a in chains]


# ---------------------------------------------------------------------------
# Corpus.
# ---------------------------------------------------------------------------

EXAMPLE_K = (2, 3, 5, 8, 16, 32, 64, 128, 256)
OBSTRUCTED_K = (2, 8, 32, 48, 96)


def random_pairs(seed=20240817, count=48):
    rnd = random.Random(seed)
    pairs = []
    for n in range(count):
        cone = random_good_cone(rnd, cuts=n % 5)
        pairs.append((cone, random_admissible_rank2_reeb(rnd, cone, d=(2, 3, 5)[n % 3])))
    return pairs


CASES = (
    [(f"random-{n}", pair) for n, pair in enumerate(random_pairs())]
    + [(f"example-{k}", example_family(k)) for k in EXAMPLE_K]
    + [(f"obstructed-{k}", obstructed_family(k, seed=0)) for k in OBSTRUCTED_K]
)


def rescaled(R, a, b):
    """a p + sqrt(d) b q: rational parts, so R clears to den > 1."""
    return reeb_from_vectors([a * x for x in R.p], [b * x for x in R.q], R.d)


def test_cleared_parts_match_the_old_clearing():
    scales = [(1, 1), (Fraction(3, 7), Fraction(5, 11)), (Fraction(-2, 9), 0), (0, Fraction(1, 6))]
    dens = set()
    for _, (_, R) in CASES:
        for other in [rescaled(R, a, b) for a, b in scales]:
            assert (other.P, other.Q, other.den) == old_clear(other), other
            # rank_of reads the cleared parts; p x q is the rational route
            assert rank_of(other) == (1 if cross(other.p, other.q) == (0, 0, 0) else 2)
            dens.add(other.den)
    assert 1 in dens and max(dens) >= 77


@pytest.mark.parametrize("cone, R", [c for _, c in CASES], ids=[n for n, _ in CASES])
def test_admissibility_matches_quadratic_field_route(cone, R):
    flipped = [rescaled(R, 1, -1), rescaled(R, -1, 1), rescaled(R, -1, -1)]
    for other in [R, rescaled(R, Fraction(3, 7), Fraction(5, 11))] + flipped:
        assert is_admissible(cone, other) == old_admissible(cone, other)
    assert not is_admissible(cone, flipped[-1])


@pytest.mark.parametrize("cone, R", [c for _, c in CASES], ids=[n for n, _ in CASES])
@pytest.mark.parametrize("scale", [(1, 1), (Fraction(3, 7), Fraction(5, 11))], ids=["R", "scaled"])
def test_read_path_matches_quadratic_field_routes(cone, R, scale):
    R = rescaled(R, *scale)
    assert is_admissible(cone, R)
    profile = isotropy_profile(cone, R)
    ybar = choose_transverse_circle(cone, R)

    pi_vals = old_moments(cone, R, ybar)
    # The two ends of a flat face lie in one Ybar-level set: a tie.
    k = len(cone)
    assert all(pi_vals[(i - 1) % k] == pi_vals[i] for i in profile.flats)

    arcs = arc_decomposition(cone, R, ybar)
    minimum, maximum, neg, pos = old_arcs(cone, profile, pi_vals)
    assert (arcs.minimum.kind, arcs.minimum.index) == minimum
    assert (arcs.maximum.kind, arcs.maximum.index) == maximum
    assert (arcs.neg_arc, arcs.pos_arc) == (neg, pos)

    residual = closure_identity_residual(cone, R, ybar)
    assert repr(residual) == repr(old_residual(cone, R, profile, ybar, neg, pos))

    for i in sorted(profile.flats):
        formula, chord = old_widths(cone, R, profile, ybar, i)
        width = width_of_flat_face(cone, R, ybar, i)
        assert width == formula == chord

    for i in range(k):
        n, np = cone.normal(i), cone.normal(i + 1)
        if profile.k[i] and profile.k[(i + 1) % k]:
            assert slope_change(profile, R, ybar, n, np) == old_slope_change(
                profile, R, ybar, n, np
            )
        if profile.k[i]:
            assert face_slope(profile, R, ybar, n) == old_face_slope(profile, R, ybar, n)


def transverse_ybars(cone, R, radius=4):
    """Every transverse a u1 + b u2 with |a|, |b| <= radius."""
    u1, u2 = isotropy_profile(cone, R).lieG_basis
    rays = edge_rays(cone)
    for a in range(-radius, radius + 1):
        for b in range(-radius, radius + 1):
            ybar = vec_add(vec_scale(a, u1), vec_scale(b, u2))
            if all(dot(ybar, e) > 0 for e in rays):
                yield ybar


@pytest.mark.parametrize("cone, R", [c for _, c in CASES], ids=[n for n, _ in CASES])
def test_arcs_take_at_most_two_comparisons_per_vertex(monkeypatch, cone, R):
    """`_arcs` finds both extremes in one pass of at most 2 (k - 1)
    `quad_sign` calls, and both chains it walks are nonempty, for the
    chosen Ybar and every transverse Ybar of max-norm at most 4; on cones
    of up to 35 faces the arcs also match the oracle's sort for each."""
    k = len(cone)
    ybars = [choose_transverse_circle(cone, R), *transverse_ybars(cone, R)]
    facts = reeb_module._facts(cone, R)
    profile = facts.profile
    calls = [0]

    def counting(*args):
        calls[0] += 1
        return quad_sign(*args)

    monkeypatch.setattr(reeb_module, "quad_sign", counting)
    for ybar in ybars:
        calls[0] = 0
        arcs = reeb_module._arcs(facts, ybar)
        assert calls[0] <= 2 * (k - 1), ybar
        assert arcs.neg_arc and arcs.pos_arc, ybar
        if k <= 35:
            minimum, maximum, neg, pos = old_arcs(cone, profile, old_moments(cone, R, ybar))
            assert (arcs.minimum.kind, arcs.minimum.index) == minimum
            assert (arcs.maximum.kind, arcs.maximum.index) == maximum
            assert (arcs.neg_arc, arcs.pos_arc) == (neg, pos)


UP_TO_67_FACES = [(name, cone) for name, (cone, _) in CASES if len(cone) <= 67]


@pytest.mark.parametrize(
    "cone", [c for _, c in UP_TO_67_FACES], ids=[n for n, _ in UP_TO_67_FACES]
)
def test_no_three_normals_are_coplanar(cone):
    """So at most two faces are flat for any rank-2 R: the flat faces are
    those whose normals lie in the plane v0-perp."""
    normals = cone.normals
    k = len(normals)
    for i in range(k):
        for j in range(i + 1, k):
            c = cross(normals[i], normals[j])
            assert all(dot(c, normals[m]) for m in range(j + 1, k)), (i, j)


@pytest.mark.parametrize("cone, R", [c for _, c in CASES], ids=[n for n, _ in CASES])
@pytest.mark.parametrize("scale", [(1, 1), (Fraction(3, 7), Fraction(5, 11))], ids=["R", "scaled"])
def test_integer_sums_match_fraction_routes(cone, R, scale):
    R = rescaled(R, *scale)
    profile = isotropy_profile(cone, R)
    ybar = choose_transverse_circle(cone, R)
    assert ybar == old_transverse_circle(profile, edge_rays(cone))

    arcs = arc_decomposition(cone, R, ybar)
    residual = closure_identity_residual(cone, R, ybar)
    assert repr(residual) == repr(old_fraction_residual(cone, R, profile, arcs, ybar))
    assert residual.is_zero()

    report = verify_global_identity(cone, R)
    chains = report_chains(report)
    assert len(chains) == len(report.per_chain)
    old = [old_chain_euler_sum(chain) for chain in chains]
    assert [chain_euler_sum(chain) for chain in chains] == old
    assert [d for _, d, _ in report.per_chain] == [d for _, d in old]
    assert report.rhs == sum((total for total, _ in old), Fraction(0))


def test_chain_sums_match_fraction_route_on_random_chains():
    rnd = random.Random(5)
    raised = 0
    for _ in range(3000):
        length = rnd.randint(1, 9)
        top = rnd.choice((3, 30, 2**40))
        k = tuple(rnd.randint(1, top) for _ in range(length))
        a = tuple(rnd.randint(1, top) for _ in range(length - 1))
        chain = ChainDescriptor(k=k, a=a)
        got = new_chain_euler_sum(chain)
        assert got == old_chain_euler_sum(chain), chain
        raised += isinstance(got, str)
    assert 300 < raised < 2700


def test_mutated_k_tables_keep_the_fraction_rhs():
    """A negative control that breaks a chain's integrality: the chain has
    no d, but its jumps still count in the rhs."""
    broken = 0
    for _, (cone, R) in CASES:
        data = build_identity_data(cone, R)
        arc = max(data.arcs.neg_arc, data.arcs.pos_arc, key=len)
        data.k[arc[len(arc) // 2]] = 2 * data.k[arc[len(arc) // 2]] + 1
        report = evaluate_identity(data)
        jumps = [t.value for t in report.terms if t.kind == "jump"]
        assert report.rhs == sum(jumps, Fraction(0))
        old = [old_chain_euler_sum(chain) for chain in report_chains(report)]
        assert [d for _, d, _ in report.per_chain] == [
            0 if isinstance(x, str) else x[1] for x in old
        ]
        broken += sum(isinstance(x, str) for x in old)
        assert not report.ok or not any(isinstance(x, str) for x in old)
    assert broken >= len(CASES) // 2


def random_end(rnd, bits):
    return Fraction(rnd.randint(-(2**bits), 2**bits), rnd.randint(1, 2**bits))


def test_least_denominator_matches_fraction_descent_on_large_ends():
    rnd = random.Random(13)
    infinite_steps = []
    for bits in (1, 8, 64, 512, 4096):
        for _ in range(8 if bits == 4096 else 40):
            lo = random_end(rnd, bits)
            gap = Fraction(1, rnd.randint(1, 2 ** (2 * bits + 2)))
            # Ends far apart, equal, reversed, and close enough that the
            # descent follows lo's continued fraction to its last term.
            for hi in (random_end(rnd, bits), lo, lo - gap, lo + gap, lo.numerator):
                for lo_open in (False, True):
                    for hi_open in (False, True):
                        expected = old_least_denominator(lo, lo_open, hi, hi_open, infinite_steps)
                        assert least_denominator_of_pairs(
                            lo.numerator, lo.denominator, lo_open,
                            hi.numerator, hi.denominator, hi_open,
                        ) == expected, (
                            lo, lo_open, hi, hi_open,
                        )
    # The step at which the upper end becomes infinite, on every size.
    assert len(infinite_steps) > 100
    assert max(max(lo.denominator, hi.denominator) for lo, hi in infinite_steps).bit_length() > 2048
    assert least_denominator_of_pairs(1, 1, True, 3, 2, False) == 2
    assert least_denominator_of_pairs(-7, 3, False, -2, 1, True) == 3


def counting_fractions(monkeypatch, module):
    """Replace `Fraction` in a module by a wrapper that records each call."""
    built = []

    def counting(*args):
        built.append(args)
        return Fraction(*args)

    monkeypatch.setattr(module, "Fraction", counting)
    return built


@pytest.mark.parametrize("k", [2, 128])
def test_fractions_are_built_only_for_returned_values(monkeypatch, k):
    cone, R = example_family(k)
    profile = isotropy_profile(cone, R)
    ybar = choose_transverse_circle(cone, R)
    arc_decomposition(cone, R, ybar)
    chain = ChainDescriptor(k=(1,) * k, a=(1,) * (k - 1))

    built = counting_fractions(monkeypatch, reeb_module)
    assert rank_of(R) == 2
    assert built == []
    assert closure_identity_residual(cone, R, ybar).is_zero()
    # the residual is built from the integer sum, as a QuadNumber
    assert built == []
    assert _transverse_circle(profile, reeb_module._facts(cone, R).lie) == ybar
    # two rational ends for each side of the square that is searched
    assert len(built) <= 8

    built = counting_fractions(monkeypatch, euler_module)
    assert chain_euler_sum(chain) == (k - 1, k - 1)
    assert len(built) == 1


def test_ratio_sum_keeps_its_running_pair_bounded(monkeypatch):
    """On `obstructed_family(256)` the terms' denominators, products of
    neighbouring isotropy orders, are nearly coprime, so a running pair
    kept over the lcm of them all reaches about 91,000 bits.  The largest
    den inside `ratio_sum`, read by a trace of its frames, must stay within
    twice the largest term denominator plus the largest result denominator
    (858 + 698 bits)."""
    code = exactnum_module.ratio_sum.__code__
    original = exactnum_module.ratio_sum
    reached, term_bits, result_bits = [0], [], []

    def local(frame, event, arg):
        den = frame.f_locals.get("den")
        if den is not None:
            reached[0] = max(reached[0], den.bit_length())
        return local

    def tracer(frame, event, arg):
        return local if frame.f_code is code else None

    def traced(terms):
        terms = list(terms)
        term_bits.append(max(b for _, b in terms).bit_length())
        previous = sys.gettrace()
        sys.settrace(tracer)
        try:
            num, den = original(terms)
        finally:
            sys.settrace(previous)
        result_bits.append(Fraction(num, den).denominator.bit_length())
        return num, den

    for module in (reeb_module, euler_module):
        monkeypatch.setattr(module, "ratio_sum", traced)
    cone, R = obstructed_family(256, seed=0)
    ybar = choose_transverse_circle(cone, R)
    assert closure_identity_residual(cone, R, ybar).is_zero()
    assert verify_global_identity(cone, R).ok
    assert len(term_bits) == 2 and max(term_bits) == 858 and max(result_bits) == 698
    assert max(term_bits) < reached[0] <= 2 * (max(term_bits) + max(result_bits))


def test_corpus_reaches_the_large_entries_and_the_flat_faces():
    """The ladder covers what the kernels are for: 107-bit entries, many
    faces, and flat faces whose widths go through both routes."""
    cone, _ = obstructed_family(96, seed=0)
    assert max(abs(x) for n in cone.normals for x in n).bit_length() >= 100
    assert max(len(c) for _, (c, _) in CASES) >= 256
    assert sum(len(isotropy_profile(c, r).flats) for _, (c, r) in CASES) >= 2 * len(EXAMPLE_K)


# ---------------------------------------------------------------------------
# quad_sign and the QuadNumber fast paths.
# ---------------------------------------------------------------------------

SQUARE_FREE = (2, 3, 5, 6, 7, 10, 11, 13, 14, 15, 17, 19, 21, 23, 101, 2**61 - 1)
BRACKET_BITS = 1024


def reference_sign(a, b, d):
    """Sign of a + b sqrt(d) from Fractions lo < sqrt(d) < hi, 2^-1024 apart:
    |a + b sqrt(d)| >= 1 / |a - b sqrt(d)| > 2^-420 for the entries here,
    so both ends of the bracket give the same sign."""
    root = math.isqrt(d << (2 * BRACKET_BITS))
    lo = Fraction(root, 1 << BRACKET_BITS)
    hi = Fraction(root + 1, 1 << BRACKET_BITS)
    signs = {(v > 0) - (v < 0) for v in (a + b * lo, a + b * hi)}
    assert len(signs) == 1, "bracket too wide"
    return signs.pop()


def test_quad_sign_against_fraction_bracket():
    rnd = random.Random(7)
    cases = []
    for _ in range(2000):
        d = rnd.choice(SQUARE_FREE)
        bits = rnd.randint(1, 200)
        a = rnd.randint(-(2**bits), 2**bits)
        b = rnd.randint(-(2**bits), 2**bits)
        cases.append((a, b, d))
        # Mixed signs near the cancellation a = -b sqrt(d).
        b2 = rnd.randint(1, 2**bits) * rnd.choice((-1, 1))
        near = -b2 * math.isqrt(d * (1 << 200)) >> 100
        cases.append((near + rnd.randint(-1, 1), b2, d))
    cases += [(0, 0, 2), (0, 5, 3), (0, -5, 3), (7, 0, 5), (-7, 0, 5)]
    cases += [(2**200, 0, 2), (0, -(2**200), 2), (3, -2, 2), (-3, 2, 2), (1, -1, 2)]
    for a, b, d in cases:
        assert quad_sign(a, b, d) == reference_sign(a, b, d), (a, b, d)
    assert {quad_sign(a, b, d) for a, b, d in cases} == {-1, 0, 1}


def test_quadnumber_sign_and_scalar_product_use_the_kernels():
    rnd = random.Random(11)
    for _ in range(500):
        d = rnd.choice((2, 3, 5, 7))
        x = QuadNumber(
            Fraction(rnd.randint(-(2**80), 2**80), rnd.randint(1, 2**40)),
            Fraction(rnd.randint(-(2**80), 2**80), rnd.randint(1, 2**40)),
            d,
        )
        assert x.sign() == old_sign(x)
        for c in (rnd.randint(-(2**40), 2**40), Fraction(rnd.randint(-99, 99), rnd.randint(1, 99))):
            prod = x * c
            assert type(prod) is QuadNumber
            assert prod == x * quad(c, 0, d) == c * x
            assert type(prod.rat) is Fraction and type(prod.irr) is Fraction


def test_quadnumber_is_still_built_through_init():
    built = []
    original = QuadNumber.__init__

    def counting(self, *args, **kwargs):
        built.append(1)
        original(self, *args, **kwargs)

    QuadNumber.__init__ = counting
    try:
        x = quad(1, 2, 3)
        built.clear()
        x * 5
        x * Fraction(1, 3)
        assert len(built) == 2
    finally:
        QuadNumber.__init__ = original


# ---------------------------------------------------------------------------
# validate: one cross product per adjacent pair.
# ---------------------------------------------------------------------------


def old_validate(cone):
    k = len(cone)
    failures = []
    for i in range(k):
        ni, ni1 = cone.normal(i), cone.normal(i + 1)
        for j in range(k):
            if j == i or j == (i + 1) % k:
                continue
            d = det3(ni, ni1, cone.normal(j))
            if d == 0:
                failures.append(("face-order", (i, j)))
            elif d < 0:
                failures.append(("convexity-det", (i, j)))
    for i in range(k):
        if not is_delzant_pair(cone.normal(i), cone.normal(i + 1)):
            failures.append(("delzant-pair", (i,)))
    return ValidityReport(is_good=not failures, failures=tuple(failures))


def random_normal_list(rnd):
    pool = [
        v
        for v in ((rnd.randint(-3, 3), rnd.randint(-3, 3), rnd.randint(-3, 3)) for _ in range(40))
        if math.gcd(*v) == 1
    ]
    k = rnd.randint(3, 9)
    normals = [rnd.choice(pool) for _ in range(k)]
    if rnd.random() < 0.3:
        # A coplanar triple: n^0 + n^1 lies in their plane, so a zero det.
        s = tuple(x + y for x, y in zip(normals[0], normals[1]))
        if math.gcd(*s) == 1:
            normals[rnd.randrange(2, k)] = s
    return GoodCone(tuple(normals))


def test_validate_matches_old_triple_loop():
    rnd = random.Random(3)
    kinds = set()
    for _ in range(1500):
        cone = random_normal_list(rnd)
        report = validate(cone)
        assert report == old_validate(cone)
        kinds.update(kind for kind, _ in report.failures)
    for cone, _ in (example_family(8), obstructed_family(8, seed=0), random_pairs(count=5)[4]):
        assert validate(cone) == old_validate(cone)
    assert kinds == {"face-order", "convexity-det", "delzant-pair"}
