import math
import random
import re
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from goodcones.cone import face_invariants, load_cone
from goodcones.exactnum import DegenerateInput, mat_vec
from goodcones.construct import example_family, obstructed_family
from goodcones.graph import (
    FatVertex,
    FiniteCyclicSubgroup,
    GermOfChain,
    GraphAssemblyError,
    IsotropyGraph,
    RegularVertex,
    _hnf_2x2,
    assemble_fiber_sum,
    canonical_form,
    count_nontrivial_chains,
    extract_graph,
    germ_profile,
    isomorphic,
    toric_condition_check,
    transform_graph,
    validate_germ,
)
from goodcones.reeb import (
    RankError,
    isotropy_profile,
    reeb_from_vectors,
)

from conftest import (
    bundle_from_cone,
    load_gl3_image,
    random_admissible_rank2_reeb,
    random_gl3,
    random_good_cone,
    random_sl3,
    replaced,
    sl3_image,
)

FAMILY2, R_FAMILY2 = example_family(2)


def test_extract_family2_structure():
    g = extract_graph(FAMILY2, R_FAMILY2)
    assert len(g.fat_vertices) == 2
    assert isinstance(g.minimum, FatVertex) and isinstance(g.maximum, FatVertex)
    assert count_nontrivial_chains(g) == 1
    assert sorted(e.multiplicity for e in g.edges) == [2, 2]
    interior = [v for ch in g.chains for v in ch if isinstance(v, RegularVertex)]
    assert len(interior) == 1 and interior[0].order == 2
    # the k=1 closing face contributes no edge
    assert len(g.edges) == 2


def test_fat_vertex_data_matches_face_invariants():
    g = extract_graph(FAMILY2, R_FAMILY2)
    prof = isotropy_profile(FAMILY2, R_FAMILY2)
    by_face = {0: None, 3: None}
    for v in (g.minimum, g.maximum):
        bf = v.normal_euler
        match = [i for i in prof.flats if face_invariants(FAMILY2, i).b == bf[0]]
        assert match
        i = match[0]
        inv = face_invariants(FAMILY2, i)
        assert (inv.b, inv.f) == bf
        k_lo = prof.k[(i - 1) % len(FAMILY2)]
        k_hi = prof.k[(i + 1) % len(FAMILY2)]
        assert v.multiplicities == tuple(sorted(x for x in (k_lo, k_hi) if x >= 2))
        assert v.orbifold_euler == Fraction(-inv.b, k_lo * k_hi)


def test_isotropy_subgroup_data():
    g = extract_graph(FAMILY2, R_FAMILY2)
    for e in g.edges:
        iso = e.isotropy
        assert iso.order == e.multiplicity
        assert all((iso.order * x) % 1 == 0 for x in iso.generator)
        assert any(x != 0 for x in iso.generator)  # nontrivial subgroup


def test_canonical_form_invariances():
    g = extract_graph(FAMILY2, R_FAMILY2)
    # chain-list permutation: rebuild with reversed chain tuple order
    g_perm = IsotropyGraph(
        reeb_class=g.reeb_class,
        minimum=g.minimum,
        maximum=g.maximum,
        chains=tuple(reversed(g.chains)),
    )
    assert canonical_form(g) == canonical_form(g_perm)
    # flip min/max with reversed chains
    g_flip = IsotropyGraph(
        reeb_class=g.reeb_class,
        minimum=g.maximum,
        maximum=g.minimum,
        chains=tuple(tuple(reversed(ch)) for ch in g.chains),
    )
    assert canonical_form(g) == canonical_form(g_flip)
    assert canonical_form(g) == canonical_form(g)  # idempotent string


def test_gl2z_twist_invariance(rnd):
    g = extract_graph(FAMILY2, R_FAMILY2)
    mats = [((2, 1), (1, 1)), ((0, 1), (1, 0)), ((1, 0), (7, 1)), ((-1, 3), (0, -1))]
    for _ in range(10):
        a, b, c = rnd.randint(-3, 3), rnd.randint(-3, 3), rnd.randint(-2, 2)
        m = ((1, a), (0, 1))
        m = (
            (m[0][0], m[0][1]),
            (m[1][0] + b * m[0][0], m[1][1] + b * m[0][1]),
        )
        mats.append(m)
    for m in mats:
        if m[0][0] * m[1][1] - m[0][1] * m[1][0] not in (1, -1):
            continue
        assert isomorphic(g, transform_graph(g, m)), m


def test_isomorphism_separates():
    g2 = extract_graph(*example_family(2))
    g3 = extract_graph(*example_family(3))
    assert isomorphic(g2, g2)
    assert not isomorphic(g2, g3)


def test_extraction_equivariance_mixed_gl3(rnd):
    g = extract_graph(FAMILY2, R_FAMILY2)
    for trial in range(50):
        u = random_gl3(rnd)
        cone2 = load_gl3_image(u, FAMILY2)
        r2 = reeb_from_vectors(
            mat_vec(u, tuple(R_FAMILY2.p)), mat_vec(u, tuple(R_FAMILY2.q))
        )
        g2 = extract_graph(cone2, r2)
        assert isomorphic(g, g2), (trial, u)


def test_chain_bound_on_corpus(rnd):
    for _ in range(15):
        cone = random_good_cone(rnd, cuts=rnd.randint(0, 3))
        reeb = random_admissible_rank2_reeb(rnd, cone)
        g = extract_graph(cone, reeb)
        assert count_nontrivial_chains(g) <= 2


def test_toric_condition_examples():
    assert toric_condition_check((1, 0), (0, 1)) == (1, 1)
    v = toric_condition_check((1, 0), (1, 2))
    assert v == (1, 1)
    assert abs(v[0] * 2 - v[1] * 1) == 1  # det with (1,2)
    # v = (v_min + v_max) / |det| can lie outside any fixed search box
    assert toric_condition_check((1, 0), (-99, 1)) == (-98, 1)
    assert toric_condition_check((-99, 1), (1, 0)) == (-98, 1)
    assert toric_condition_check((1, 0), (1, 3)) is None


def brute_toric(vmin, vmax, box=32):
    out = []
    s = 1 if vmin[0] * vmax[1] - vmin[1] * vmax[0] > 0 else -1
    for x in range(-box, box + 1):
        for y in range(-box, box + 1):
            v = (x, y)
            if v == (0, 0) or math.gcd(abs(x), abs(y)) != 1:
                continue
            d1 = vmin[0] * y - vmin[1] * x
            d2 = x * vmax[1] - y * vmax[0]
            if s * d1 <= 0 or s * d2 <= 0:
                continue
            if abs(d1) == 1 and abs(d2) == 1:
                out.append(v)
    return out


def test_toric_condition_brute_force_agreement(rnd):
    done = 0
    while done < 100:
        vmin = (rnd.randint(-5, 5), rnd.randint(-5, 5))
        vmax = (rnd.randint(-5, 5), rnd.randint(-5, 5))
        if vmin == (0, 0) or vmax == (0, 0):
            continue
        if math.gcd(abs(vmin[0]), abs(vmin[1])) != 1:
            continue
        if math.gcd(abs(vmax[0]), abs(vmax[1])) != 1:
            continue
        if vmin[0] * vmax[1] - vmin[1] * vmax[0] == 0:
            continue
        got = toric_condition_check(vmin, vmax)
        expected = brute_toric(vmin, vmax)
        assert (got is None) == (not expected), (vmin, vmax)
        if got is not None:
            assert got in expected
        done += 1


def test_fiber_sum_zero_one_two_germs():
    # The one-germ fiber sum is built by the germ path and must agree with
    # the closed-cone path on the cone the germ was cut from.
    for k in range(2, 9):
        cone, reeb = example_family(k)
        germ = GermOfChain(normals=cone.normals[: k + 2], reeb=reeb)
        bundle = bundle_from_cone(cone, reeb, 0, k + 1, germ)

        g0 = assemble_fiber_sum(bundle, [])
        assert len(g0.fat_vertices) == 2
        assert count_nontrivial_chains(g0) == 0

        g1 = assemble_fiber_sum(bundle, [germ])
        assert isomorphic(g1, extract_graph(cone, reeb)), k

        g2 = assemble_fiber_sum(bundle, [germ, germ])
        assert count_nontrivial_chains(g2) == 2


@pytest.mark.parametrize("d", [2, 3, 5])
def test_one_germ_fiber_sum_matches_extract_graph_on_sl3_images(d):
    # The images move the fat vertices' directions off the coordinate axes,
    # so both paths through the shared vertex builders see nontrivial data.
    rnd = random.Random(d)
    for k in range(2, 9):
        cone, reeb = sl3_image(random_sl3(rnd), *example_family(k, d))
        germ = GermOfChain(normals=cone.normals[: k + 2], reeb=reeb)
        bundle = bundle_from_cone(cone, reeb, 0, k + 1, germ)
        assert isomorphic(assemble_fiber_sum(bundle, [germ]), extract_graph(cone, reeb)), k


def test_germ_with_non_delzant_pair_is_rejected_by_validate():
    # Convex, and closes, but the pair (n^1, n^2) is not Delzant.
    normals = ((13, 0, 2), (2, 13, 2), (-13, 3, 2), (-5, -12, 3))
    germ = GermOfChain(normals=normals, reeb=reeb_from_vectors((1, 0, 0), (0, 1, 0)))
    with pytest.raises(GraphAssemblyError, match=r"\('delzant-pair', \(1,\)\)"):
        validate_germ(germ)


def test_fiber_sum_rejects_mismatched_fiber():
    cone, reeb = example_family(2)
    germ = GermOfChain(normals=cone.normals[:4], reeb=reeb)
    bundle = bundle_from_cone(cone, reeb, 0, 3, germ)
    other_cone, other_reeb = example_family(3)
    alien = GermOfChain(normals=other_cone.normals[:5], reeb=other_reeb)
    with pytest.raises(GraphAssemblyError):
        assemble_fiber_sum(bundle, [alien])


def test_germ_requires_flat_ends():
    cone, reeb = example_family(2)
    with pytest.raises(GraphAssemblyError):
        germ_profile(GermOfChain(normals=cone.normals[1:4], reeb=reeb))


def _germ_of_example_2(normals=None):
    cone, reeb = example_family(2)
    return GermOfChain(normals=cone.normals[:4] if normals is None else normals, reeb=reeb)


def _bundle_of_example_2(**changes):
    cone, reeb = example_family(2)
    return replaced(bundle_from_cone(cone, reeb, 0, 3, _germ_of_example_2()), **changes)


EX2 = example_family(2)[0].normals  # n^0 and n^3 are flat


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: _germ_of_example_2(EX2[:2]), GraphAssemblyError, "a germ needs flat ends and an interior"),
        (lambda: germ_profile(_germ_of_example_2(EX2 + EX2[:1])), GraphAssemblyError,
         "germ interior must not contain flats"),
        (lambda: validate_germ(_germ_of_example_2(EX2[:4][::-1])), GraphAssemblyError,
         f"germ triple {EX2[3]},{EX2[2]},{EX2[1]} is not convex"),
        (lambda: assemble_fiber_sum(_bundle_of_example_2(moment_min=(1, 1)), [_germ_of_example_2()]),
         GraphAssemblyError, "germ extreme moment values do not match the bundle"),
        (lambda: assemble_fiber_sum(_bundle_of_example_2(fat_min=((0, 0), (1, 0), 0)), []),
         DegenerateInput, "zero direction"),
        (lambda: toric_condition_check((1, 2), (-2, -4)), DegenerateInput,
         "v_min, v_max must be linearly independent"),
    ],
    ids=["germ-too-short", "flat-interior", "non-convex-triple", "moment-mismatch",
         "zero-fat-direction", "toric-dependent"],
)
def test_germ_fiber_sum_and_toric_errors(call, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        call()


def test_germ_needs_a_rank_2_reeb_vector():
    cone, _ = example_family(2)
    rank_1 = reeb_from_vectors((1, 2, 3), (2, 4, 6))
    with pytest.raises(RankError, match=r"^v0 is only defined for rank-2 Reeb vectors$"):
        germ_profile(GermOfChain(normals=cone.normals[:4], reeb=rank_1))


def _lexmin_scan(n, a, b):
    """Lexicographically smallest generator of the subgroup of order n
    generated by (a, b)/n, by scanning every unit j mod n (the definition
    `canonical` computes in closed form)."""
    best = min(
        (j * a % n, j * b % n) for j in range(1, n + 1) if math.gcd(j, n) == 1
    )
    return (Fraction(best[0], n), Fraction(best[1], n))


def _subgroup(n, a, b):
    return FiniteCyclicSubgroup(n, (a, b))


@pytest.mark.parametrize("bad", [Fraction(1, 2), Fraction(3), 0.5, 3.0, True])
def test_subgroup_constructor_takes_only_int(bad):
    for order, residues in ((4, (bad, 1)), (4, (1, bad)), (bad, (1, 1))):
        with pytest.raises(TypeError):
            FiniteCyclicSubgroup(order, residues)


@pytest.mark.parametrize("order", [0, -3])
def test_subgroup_constructor_needs_positive_order(order):
    with pytest.raises(ValueError, match="order must be positive"):
        FiniteCyclicSubgroup(order, (1, 1))


def test_subgroup_constructor_reduces_residues():
    sub = FiniteCyclicSubgroup(6, (7, -1))
    assert sub.residues == (1, 5) and sub == FiniteCyclicSubgroup(6, (1, 5))
    assert sub.generator == (Fraction(1, 6), Fraction(5, 6))
    for n in range(1, 30):
        for a, b in ((-n - 1, 3 * n + 2), (n, -1), (0, 0)):
            gen = FiniteCyclicSubgroup(n, (a, b)).generator
            assert all(isinstance(x, Fraction) and 0 <= x < 1 for x in gen)
            assert gen == (Fraction(a, n) % 1, Fraction(b, n) % 1)
    with pytest.raises(AttributeError):
        sub.generator = (Fraction(0), Fraction(0))


def test_canonical_matches_lexmin_scan_for_small_orders():
    for n in range(1, 41):
        for a in range(n):
            for b in range(n):
                got = _subgroup(n, a, b).canonical()
                assert got.order == n and got.generator == _lexmin_scan(n, a, b), (n, a, b)


def test_canonical_matches_lexmin_scan_on_random_generators(rnd):
    orders = [rnd.randrange(41, 1000) for _ in range(150)] + [2310, 30030]
    for n in orders:
        divisors = [d for d in range(2, n) if n % d == 0] or [1]
        for _ in range(4 if n == 30030 else 20):
            a, b, e = rnd.randrange(n), rnd.randrange(n), rnd.choice(divisors)
            # unless n is prime, the second generator is not exact: gcd(a, b, n) >= e > 1
            for x, y in ((a, b), (a * e % n, b * e % n)):
                assert _subgroup(n, x, y).canonical().generator == _lexmin_scan(n, x, y), (
                    n, x, y,
                )


def test_canonical_is_idempotent_and_unit_invariant(rnd):
    for _ in range(300):
        n = rnd.randint(1, 500)
        a, b = rnd.randrange(n), rnd.randrange(n)
        j = rnd.randrange(1, n + 1)
        while math.gcd(j, n) != 1:
            j = rnd.randrange(1, n + 1)
        canon = _subgroup(n, a, b).canonical()
        assert canon.canonical() == canon
        assert _subgroup(n, j * a % n, j * b % n).canonical() == canon, (n, a, b, j)


def test_obstructed_16_graph_canonical_form_is_sl3_invariant(rnd):
    # Isotropy orders here reach about 4.5e7, beyond any scan over units.
    cone, reeb = obstructed_family(16, seed=0)
    g = extract_graph(cone, reeb)
    assert count_nontrivial_chains(g) <= 2
    u = random_sl3(rnd)
    cone2 = load_cone([mat_vec(u, n) for n in cone.normals])
    r2 = reeb_from_vectors(mat_vec(u, tuple(reeb.p)), mat_vec(u, tuple(reeb.q)))
    assert canonical_form(extract_graph(cone2, r2)) == canonical_form(g)


def _hnf_2x2_euclid(m):
    """The column Hermite form by a Euclid loop of column operations on the
    stacked [M; U], as `_hnf_2x2` computed it before its closed form."""
    stacked = (tuple(m[0]), tuple(m[1]), (1, 0), (0, 1))

    def column_op(e):
        nonlocal stacked
        stacked = tuple(
            (r[0] * e[0][0] + r[1] * e[1][0], r[0] * e[0][1] + r[1] * e[1][1])
            for r in stacked
        )

    while stacked[0][1] != 0:
        a, b = stacked[0]
        if a == 0 or abs(b) < abs(a):
            column_op(((0, 1), (1, 0)))
        else:
            column_op(((1, -(b // a)), (0, 1)))
    if stacked[0][0] < 0:
        column_op(((-1, 0), (0, 1)))
    if stacked[1][1] < 0:
        column_op(((1, 0), (0, -1)))
    q = stacked[1][0] // stacked[1][1]
    if q:
        column_op(((1, 0), (-q, 1)))
    return stacked[:2], stacked[2:]


_entries = st.one_of(st.sampled_from([0, 1, -1]), st.integers(-10**6, 10**6))


# Zero entries, +-1 rows and negative determinants, always tried.
@given(_entries, _entries, _entries, _entries)
@example(0, 1, 1, 0)
@example(0, -1, 1, 0)
@example(1, 0, 0, -1)
@example(-1, 1, 1, 1)
@example(0, 7, -3, 5)
@example(4, 0, 9, -2)
@example(-6, 10, 15, -24)
@example(0, 0, 1, 1)
@settings(max_examples=500)
def test_hnf_closed_form_matches_euclid_loop(a, b, c, d):
    m = ((a, b), (c, d))
    if a * d - b * c == 0:
        with pytest.raises(DegenerateInput):
            _hnf_2x2(m)
        return
    h, u = _hnf_2x2(m)
    assert (h, u) == _hnf_2x2_euclid(m)
    assert h[0][0] > 0 and h[0][1] == 0 and 0 <= h[1][0] < h[1][1]
