import math
import random
from fractions import Fraction

import pytest

from goodcones.cone import load_cone
from goodcones.construct import example_family
from goodcones.euler import (
    ChainDataError,
    ChainDescriptor,
    build_identity_data,
    chain_euler_sum,
    critical_jump,
    euler_lens,
    euler_near_B_lens,
    euler_near_B_orbit,
    euler_quotient,
    euler_s3,
    evaluate_identity,
    verify_global_identity,
)
from goodcones.reeb import reeb_from_vectors

from conftest import SIMPLICIAL, random_admissible_rank2_reeb, random_good_cone, replaced

FAMILY2 = load_cone([(1, 0, 1), (1, 1, 1), (1, 2, 3), (1, 3, 7), (1, 1, 4)])
R_FAMILY2 = reeb_from_vectors((1, 0, 1), (1, 3, 7))


def test_euler_s3():
    assert euler_s3(1, 1) == Fraction(-1)
    assert euler_s3(2, 3) == Fraction(-1, 6)
    assert euler_s3(1, -1) == Fraction(1)
    with pytest.raises(ValueError):
        euler_s3(0, 1)


def test_euler_quotient():
    assert euler_quotient(1, 0, 0, 0, 1, 1) == Fraction(-1)
    assert euler_quotient(1, 0, 0, 0, 1, -1) == Fraction(1)
    # -a0/((a0 b1 - a1 b0)(a0 b2 - a2 b0)) = -2/((2-1)(0-1)) = 2
    assert euler_quotient(2, 1, 1, 1, 1, 0) == Fraction(2)
    with pytest.raises(ValueError):
        euler_quotient(2, 2, 1, 1, 1, 0)


def test_euler_lens_examples():
    assert euler_lens(2, 1, 1, 1) == Fraction(-2)
    assert euler_lens(1, 0, 2, 3) == euler_s3(2, 3) == Fraction(-1, 6)
    with pytest.raises(ValueError):
        euler_lens(4, 2, 1, 1)


def test_euler_lens_consistency_500(rnd):
    weights = [x for x in range(-9, 10) if x != 0]
    for _ in range(500):
        m1, m2 = rnd.choice(weights), rnd.choice(weights)
        assert euler_lens(1, 0, m1, m2) == euler_s3(m1, m2)


def test_euler_quotient_covering_relation_500(rnd):
    done = 0
    while done < 500:
        a0 = rnd.randint(1, 9)
        a1, a2, b0, b1, b2 = (rnd.randint(-9, 9) for _ in range(5))
        d1, d2 = a0 * b1 - a1 * b0, a0 * b2 - a2 * b0
        if d1 == 0 or d2 == 0:
            continue
        lhs = euler_s3(d1, d2)
        rhs = Fraction(math.gcd(abs(d1), abs(d2)), a0) * euler_quotient(
            a0, a1, a2, b0, b1, b2
        )
        assert lhs == rhs
        done += 1


def test_near_B_formulas():
    assert euler_near_B_orbit(1, 1, 1, False) == Fraction(-1)
    assert euler_near_B_orbit(2, 2, 2, True) == Fraction(1, 2)
    assert euler_near_B_orbit(3, 2, 5, False) == -euler_near_B_orbit(3, 2, 5, True)
    n1, n2, y = (1, 0, 0), (0, 1, 0), (0, 0, 6)
    assert euler_near_B_lens(n1, n2, y, 2, 3, False) == Fraction(1)
    assert euler_near_B_lens(n1, n2, y, 2, 3, True) == Fraction(-1)
    assert euler_near_B_lens(n2, n1, y, 2, 3, False) == Fraction(-1)  # antisymmetry


def test_critical_jump():
    assert critical_jump(1, 1, 1) == Fraction(1)
    assert critical_jump(2, 2, 2) == Fraction(1, 2)
    assert critical_jump(6, 2, 3) == Fraction(1)


def test_chain_euler_sum():
    assert chain_euler_sum(ChainDescriptor(k=(1, 1), a=(1,))) == (Fraction(1), 1)
    assert chain_euler_sum(ChainDescriptor(k=(1, 2, 1), a=(2, 2))) == (Fraction(2), 2)
    assert chain_euler_sum(ChainDescriptor(k=(2, 2), a=(2,))) == (Fraction(1, 2), 1)
    with pytest.raises(ChainDataError):
        chain_euler_sum(ChainDescriptor(k=(2, 4), a=(1,)))  # 1/8 * lcm 4 = 1/2
    with pytest.raises(ValueError):
        ChainDescriptor(k=(1, 2), a=(1, 1))


def test_global_identity_family2():
    report = verify_global_identity(FAMILY2, R_FAMILY2)
    assert report.ok
    assert report.lhs == report.rhs == Fraction(1, 2)
    assert report.per_chain == ((1, 1, 2),)
    assert all(d >= 1 for _, d, _ in report.per_chain)


def test_global_identity_simplicial_vertex_extremes():
    reeb = reeb_from_vectors((1, 1, 1), (0, 1, 2))
    report = verify_global_identity(SIMPLICIAL, reeb)
    assert report.ok and report.lhs == Fraction(1)


def test_global_identity_families_2_to_6():
    for k in range(2, 7):
        cone, reeb = example_family(k)
        report = verify_global_identity(cone, reeb)
        assert report.ok, (k, report.lhs, report.rhs)
        assert all(d >= 1 for _, d, _ in report.per_chain)


def test_global_identity_random_corpus(rnd):
    done = 0
    while done < 15:
        cone = random_good_cone(rnd, cuts=rnd.randint(0, 3))
        reeb = random_admissible_rank2_reeb(rnd, cone)
        report = verify_global_identity(cone, reeb)
        assert report.ok, (cone.normals, reeb)
        done += 1


def test_global_identity_negative_control():
    data = build_identity_data(FAMILY2, R_FAMILY2)
    data.k[1] = 5  # corrupt one multiplicity
    report = evaluate_identity(data)
    assert not report.ok
    assert report.lhs != report.rhs or any(d < 1 for _, d, _ in report.per_chain)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: euler_quotient(0, 0, 0, 0, 1, 1), "a0 must be positive"),
        (lambda: euler_lens(1, 0, 0, 1), "degenerate weights for this lens space"),
        (lambda: euler_lens(2, 1, 2, 1), "degenerate weights for this lens space"),
        (lambda: euler_near_B_orbit(0, 1, 1, True), "multiplicities must be positive"),
        (lambda: euler_near_B_lens((1, 0, 0), (0, 1, 0), (0, 0, 1), 1, 0, False),
         "multiplicities must be positive"),
        (lambda: critical_jump(1, 0, 1), "arguments must be positive"),
        (lambda: ChainDescriptor(k=(1, 0), a=(1,)), "all entries must be >= 1"),
    ],
)
def test_euler_argument_checks(call, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        call()


def test_identity_cross_checks_are_live():
    """Circles that disagree with the determinant route, and an interior
    face whose k-table entry is 0, raise instead of reporting."""
    data = build_identity_data(*example_family(4))
    doubled = tuple(c and (2 * c[0], 2 * c[1]) for c in data.circles)
    with pytest.raises(ChainDataError, match="^intersection count mismatch at vertex "):
        evaluate_identity(replaced(data, circles=doubled))
    arc = max(data.arcs.neg_arc, data.arcs.pos_arc, key=len)
    data.k[arc[1]] = 0
    with pytest.raises(ChainDataError, match="^interior face with k = 0$"):
        evaluate_identity(data)


def test_report_serialization():
    report = verify_global_identity(FAMILY2, R_FAMILY2)
    d = report.to_dict()
    assert d["ok"] is True
    assert d["lhs"] == "1/2" and d["rhs"] == "1/2"
    assert all({"kind", "location", "a", "k", "value"} <= set(t) for t in d["terms"])


def identity_corpus():
    """example_family(2..9), whose extremes are flat faces, and 300 seeded
    conftest cones of 3 to 6 faces, whose extremes are vertices."""
    for k in range(2, 10):
        yield example_family(k)
    rnd = random.Random(11)
    for _ in range(300):
        cone = random_good_cone(rnd, cuts=rnd.randint(0, 3))
        yield cone, random_admissible_rank2_reeb(rnd, cone)


def test_extreme_terms_are_the_exported_formulas():
    """A vertex extreme is euler_near_B_orbit(a, k, k', is_max); a flat
    extreme f is euler_near_B_lens(n^{f+1}, n^{f-1}, Ybar, ...), also on
    cones without interior jumps, where the chain labels are geometric."""
    sizes, vertex_terms, flat_terms = set(), 0, 0
    for cone, reeb in identity_corpus():
        data = build_identity_data(cone, reeb)
        report = evaluate_identity(data)
        assert report.ok
        sizes.add(len(cone))
        for term in report.terms:
            if term.kind == "jump":
                continue
            is_max = term.kind == "extreme-max"
            (f,) = term.location
            if term.a is None:
                lo, hi = (f - 1) % len(cone), (f + 1) % len(cone)
                expected = euler_near_B_lens(
                    cone.normal(hi), cone.normal(lo), data.ybar,
                    data.k[hi], data.k[lo], is_max,
                )
                flat_terms += 1
            else:
                expected = euler_near_B_orbit(term.a, *term.k, is_max)
                vertex_terms += 1
            assert term.value == expected, (cone.normals, reeb, term)
    assert {3, 4} <= sizes and vertex_terms > 500 and flat_terms >= 16
