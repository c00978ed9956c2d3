import math
import operator
import random
import re
from decimal import Decimal, getcontext
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import goodcones.exactnum as exactnum_module
from goodcones.construct import example_family, obstructed_family
from goodcones.exactnum import (
    DegenerateInput,
    QuadNumber,
    _discriminant_fault,
    _is_square_free,
    _round_half_even,
    content,
    cramer_rows,
    cross,
    cross_primitive,
    delzant_witness,
    det3,
    dot,
    int_triple,
    is_prime,
    plane_lattice_basis,
    primitive_part,
    quad,
    solve_dot_one,
    vec_add,
    vec_scale,
)

ints = st.integers(min_value=-30, max_value=30)
vec = st.tuples(ints, ints, ints)


def cofactor_det(u, v, w):
    m = [[u[0], v[0], w[0]], [u[1], v[1], w[1]], [u[2], v[2], w[2]]]
    return (
        m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
        - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
        + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0])
    )


def test_det3_examples():
    assert det3((1, 0, 0), (0, 1, 0), (0, 0, 1)) == 1
    assert det3((1, 0, 1), (1, 1, 1), (1, 2, 3)) == cofactor_det(
        (1, 0, 1), (1, 1, 1), (1, 2, 3)
    ) == 2
    assert det3((1, 1, 1), (1, 0, 1), (1, 2, 3)) == -2


@given(vec, vec, vec)
@settings(max_examples=200)
def test_det3_matches_cofactor_oracle(u, v, w):
    assert det3(u, v, w) == cofactor_det(u, v, w)


@given(vec, vec, vec)
@settings(max_examples=200)
def test_det3_alternating(u, v, w):
    assert det3(u, v, w) == -det3(v, u, w) == -det3(u, w, v)
    assert det3(u, v, u) == 0


def test_cross_primitive_examples():
    assert cross_primitive((1, 0, 0), (0, 1, 0)) == (0, 0, 1)
    assert cross_primitive((1, 0, 1), (1, 3, 7)) == (-1, -2, 1)
    assert cross_primitive((2, 0, 0), (0, 2, 0)) == (0, 0, 1)
    with pytest.raises(DegenerateInput):
        cross_primitive((1, 2, 3), (2, 4, 6))


@given(vec, vec)
@settings(max_examples=200)
def test_cross_primitive_orthogonal(u, v):
    c = [u[1] * v[2] - u[2] * v[1], u[2] * v[0] - u[0] * v[2], u[0] * v[1] - u[1] * v[0]]
    if c == [0, 0, 0]:
        return
    r = cross_primitive(u, v)
    assert dot(r, u) == 0 and dot(r, v) == 0
    assert math.gcd(math.gcd(abs(r[0]), abs(r[1])), abs(r[2])) == 1


def test_delzant_witness_examples():
    w = delzant_witness((0, 1, 0), (0, 0, 1))
    assert det3((0, 1, 0), (0, 0, 1), w) == 1
    w = delzant_witness((1, 2, 3), (1, 1, 1))
    assert det3((1, 2, 3), (1, 1, 1), w) == 1
    assert delzant_witness((1, 0, 0), (-1, 0, 2)) is None


def test_delzant_witness_random(rnd):
    found = 0
    for _ in range(400):
        n = tuple(rnd.randint(-6, 6) for _ in range(3))
        m = tuple(rnd.randint(-6, 6) for _ in range(3))
        try:
            n, m = primitive_part(n), primitive_part(m)
        except DegenerateInput:
            continue
        c = cross(n, m)
        if c == (0, 0, 0):
            continue
        w = delzant_witness(n, m)
        if w is None:
            assert content(c) > 1
        else:
            assert det3(n, m, w) == 1
            found += 1
    assert found > 50


def test_delzant_witness_deterministic_and_reduced():
    n, m = (1, 2, 3), (1, 1, 1)
    w1 = delzant_witness(n, m)
    w2 = delzant_witness(n, m)
    assert w1 == w2
    # any witness differs from the canonical one by the pair's lattice
    for a in range(-3, 4):
        for b in range(-3, 4):
            other = tuple(w1[j] + a * n[j] + b * m[j] for j in range(3))
            assert det3(n, m, other) == 1
            assert dot(other, other) >= dot(w1, w1)


def old_window_witness(n, np):
    """The window scan that the integer kernel of `delzant_witness` replaced:
    Fraction rounding and tuple arithmetic.  Returns (l, half, tie): half
    when a rounded coordinate was an exact half, tie when two window points
    share the least norm."""
    c = cross(n, np)
    l0 = solve_dot_one(c)
    row_a, row_b, _ = cramer_rows(n, np, c)
    denom = dot(c, c)
    fa = Fraction(dot(row_a, l0), denom)
    fb = Fraction(dot(row_b, l0), denom)
    half = fa.denominator == 2 or fb.denominator == 2
    a0, b0 = round(fa), round(fb)
    best = None
    norms = []
    for da in range(-2, 3):
        for db in range(-2, 3):
            cand = vec_add(l0, vec_scale(-1, vec_add(vec_scale(a0 + da, n), vec_scale(b0 + db, np))))
            key = (dot(cand, cand), cand)
            norms.append(key[0])
            if best is None or key < best[0]:
                best = (key, cand)
    return best[1], half, norms.count(min(norms)) > 1


def random_primitive_pairs(rnd, bound, count):
    """`count` random pairs of primitive vectors with entries in [-bound,
    bound] whose minors are coprime."""
    pairs = []
    while len(pairs) < count:
        n = tuple(rnd.randint(-bound, bound) for _ in range(3))
        m = tuple(rnd.randint(-bound, bound) for _ in range(3))
        if content(n) == 1 and content(m) == 1 and content(cross(n, m)) == 1:
            pairs.append((n, m))
    return pairs


def family_adjacent_pairs():
    cones = [example_family(k)[0] for k in range(2, 60)]
    cones += [obstructed_family(k)[0] for k in range(3, 40)]
    return [(cone.normal(i), cone.normal(i + 1)) for cone in cones for i in range(len(cone))]


def test_delzant_witness_equals_the_old_window_scan(rnd):
    pairs = family_adjacent_pairs()
    for bound, count in ((6, 4000), (10**3, 1500), (10**20, 800), (2**800, 200)):
        pairs += random_primitive_pairs(rnd, bound, count)
    halves = ties = 0
    for n, m in pairs:
        expected, half, tie = old_window_witness(n, m)
        assert delzant_witness(n, m) == expected, (n, m)
        halves += half
        ties += tie
    # both the ties-to-even rounding and the lexicographic tie rule are hit
    assert halves > 50 and ties > 50, (halves, ties)


def test_round_half_even_matches_fraction_round(rnd):
    for p in range(-60, 61):
        for q in range(1, 31):
            assert _round_half_even(p, q) == round(Fraction(p, q)), (p, q)
    for _ in range(2000):
        q = rnd.randint(1, 2 ** rnd.randint(1, 400))
        p = rnd.randint(-(2**400), 2**400)
        if rnd.random() < 0.25:  # an exact half, or one off it
            p = (2 * rnd.randint(-(2**300), 2**300) + 1) * q + rnd.randint(-1, 1)
            q *= 2
        assert _round_half_even(p, q) == round(Fraction(p, q)), (p, q)


def test_delzant_witness_degenerate_inputs():
    # primitive, not parallel, but the minors (0, -2, 0) share the factor 2
    assert delzant_witness((1, 0, 1), (1, 0, -1)) is None
    assert delzant_witness((1, 0, 0), (-1, 0, 2)) is None
    for n, m in (((2, 0, 0), (0, 1, 0)), ((1, 0, 0), (0, 3, 6)), ((0, 0, 0), (0, 1, 0))):
        with pytest.raises(DegenerateInput, match="^delzant_witness requires primitive inputs$"):
            delzant_witness(n, m)
    for n, m in (((1, 2, 3), (1, 2, 3)), ((1, 2, 3), (-1, -2, -3))):
        with pytest.raises(DegenerateInput, match=re.escape(f"parallel normals {n}, {m}")):
            delzant_witness(n, m)


def old_content(u):
    """The gcd loop that `content` replaced."""
    g = 0
    for x in u:
        g = math.gcd(g, abs(x))
    return g


def test_content_matches_the_old_loop(rnd):
    assert content(()) == old_content(()) == 0
    for length in range(5):
        assert content((0,) * length) == 0
        for _ in range(400):
            bound = rnd.choice((1, 6, 10**6, 2**200))
            scale = rnd.choice((1, 1, 2, 6, 2**64 + 13))
            u = tuple(scale * rnd.choice((0, rnd.randint(-bound, bound))) for _ in range(length))
            assert content(u) == old_content(u) >= 0, u


def test_plane_lattice_basis_examples_and_saturation(rnd):
    assert plane_lattice_basis((0, 0, 1)) == ((1, 0, 0), (0, 1, 0))
    for _ in range(60):
        v0 = tuple(rnd.randint(-5, 5) for _ in range(3))
        try:
            v0 = primitive_part(v0)
        except DegenerateInput:
            continue
        u1, u2 = plane_lattice_basis(v0)
        assert dot(u1, v0) == 0 and dot(u2, v0) == 0
        assert det3(u1, u2, v0) > 0
        den = det3(u1, u2, v0)
        # saturation: every lattice point of the plane is an integer combo
        for x in range(-4, 5):
            for y in range(-4, 5):
                for z in range(-4, 5):
                    p = (x, y, z)
                    if dot(p, v0) != 0:
                        continue
                    a = Fraction(det3(p, u2, v0), den)
                    b = Fraction(det3(u1, p, v0), den)
                    assert a.denominator == 1 and b.denominator == 1


def old_plane_lattice_basis(v0):
    """`plane_lattice_basis` as it was before its reduction ran on scalars:
    the same steps, picked with a list of nonzero indices, `min` and a
    lambda."""
    if v0 == (0, 0, 0):
        raise DegenerateInput("zero vector")
    if math.gcd(*v0) != 1:
        raise DegenerateInput(f"{v0} is not primitive")
    cols = [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
    vals = [v0[0], v0[1], v0[2]]
    while sum(1 for x in vals if x != 0) > 1:
        nz = [i for i, x in enumerate(vals) if x != 0]
        j = min(nz, key=lambda i: abs(vals[i]))
        i = next(i for i in nz if i != j)
        q = vals[i] // vals[j]
        vals[i] -= q * vals[j]
        cols[i] = vec_add(cols[i], vec_scale(-q, cols[j]))
    pivot = next(i for i, x in enumerate(vals) if x != 0)
    u1, u2 = [cols[i] for i in range(3) if i != pivot]
    if det3(u1, u2, v0) < 0:
        u1, u2 = u2, u1
    return u1, u2


def test_plane_lattice_basis_matches_the_old_loop(rnd):
    """Random primitive vectors with zero, negative, equal and 4,096-bit
    entries give the basis of the old loop."""
    checked = 0
    for bits in (1, 2, 3, 8, 64, 301, 4096):
        for _ in range(40 if bits == 4096 else 600):
            v = [rnd.choice((0, 1)) * rnd.randint(-(1 << bits), 1 << bits) for _ in range(3)]
            if rnd.random() < 0.1:
                v[rnd.randrange(3)] = v[rnd.randrange(3)]
            g = math.gcd(*v)
            if g == 0:
                continue
            v0 = tuple(x // g for x in v)
            assert plane_lattice_basis(v0) == old_plane_lattice_basis(v0), v0
            checked += 1
    assert checked > 3000


def test_plane_lattice_basis_reads_v0_as_an_int_triple():
    """A list and a tuple give the same basis and the same errors."""
    assert plane_lattice_basis([2, -3, 5]) == plane_lattice_basis((2, -3, 5))
    for bad, error, message in (
        ([0, 0, 0], DegenerateInput, "^zero vector$"),
        ([2, 4, 6], DegenerateInput, r"^\(2, 4, 6\) is not primitive$"),
        ([1.0, 0, 0], TypeError, "^vector entries must be int"),
        ([1, 0], DegenerateInput, "does not have three entries$"),
    ):
        for v0 in (bad, tuple(bad)):
            with pytest.raises(error, match=message):
                plane_lattice_basis(v0)


def test_lattice_complement(rnd):
    for _ in range(50):
        v0 = tuple(rnd.randint(-7, 7) for _ in range(3))
        try:
            v0 = primitive_part(v0)
        except DegenerateInput:
            continue
        m = solve_dot_one(v0)
        assert dot(v0, m) == 1


def trial_division_prime(n):
    if n < 2:
        return False
    f = 2
    while f * f <= n:
        if n % f == 0:
            return False
        f += 1
    return True


def test_is_prime_against_trial_division():
    for n in range(0, 2000):
        assert is_prime(n) == trial_division_prime(n)


fracs = st.fractions(
    min_value=-50, max_value=50, max_denominator=20
)


@given(fracs, fracs, fracs, fracs)
@settings(max_examples=200)
def test_quadnumber_field_axioms(a, b, c, d):
    x = QuadNumber(a, b, 2)
    y = QuadNumber(c, d, 2)
    assert (x + y) - y == x
    assert x * y == y * x
    if not y.is_zero():
        assert (x / y) * y == x


def test_quadnumber_sign_against_high_precision():
    getcontext().prec = 40
    sqrt2 = Decimal(2).sqrt()
    rnd = random.Random(99)
    for _ in range(10_000):
        a = Fraction(rnd.randint(-500, 500), rnd.randint(1, 60))
        b = Fraction(rnd.randint(-500, 500), rnd.randint(1, 60))
        x = QuadNumber(a, b, 2)
        approx = (
            Decimal(a.numerator) / Decimal(a.denominator)
            + (Decimal(b.numerator) / Decimal(b.denominator)) * sqrt2
        )
        expected = 0 if a == 0 and b == 0 else (1 if approx > 0 else -1)
        assert x.sign() == expected


def test_quadnumber_floor_examples():
    assert math.floor(quad(0, 1)) == 1
    assert math.floor(quad(0, -1)) == -2
    assert math.floor(quad(1, -1)) == -1
    assert math.floor(quad(Fraction(-7, 2))) == -4
    assert math.floor(quad(3)) == 3
    assert math.floor(quad(Fraction(1, 3), Fraction(-1, 6), 7)) == -1


def test_quadnumber_floor_against_exact_sign(rnd):
    # n = floor(x) exactly when x - n >= 0 and x - (n + 1) < 0
    for _ in range(5000):
        d = rnd.choice((2, 3, 5, 7, 11))
        rat = Fraction(rnd.randint(-10**6, 10**6), rnd.randint(1, 97))
        irr = Fraction(rnd.randint(-500, 500), rnd.randint(1, 97))
        x = QuadNumber(rat, irr if rnd.random() < 0.9 else 0, d)
        n = math.floor(x)
        assert isinstance(n, int)
        assert (x - n).sign() >= 0 and (x - (n + 1)).sign() < 0


def test_quadnumber_discriminants_do_not_mix():
    with pytest.raises(TypeError):
        quad(1, 1, 2) + quad(1, 1, 3)
    with pytest.raises(ValueError):
        quad(1, 1, 4)


@pytest.mark.parametrize(
    "symbol, op", [("<", operator.lt), ("<=", operator.le), (">", operator.gt), (">=", operator.ge)]
)
def test_quadnumber_order_with_an_unsupported_operand(symbol, op):
    # The standard "not supported" TypeError, from either side.
    for left, right in ((quad(1), "a"), ("a", quad(1)), (quad(1, 1, 3), None)):
        with pytest.raises(TypeError, match=f"'{symbol}' not supported"):
            op(left, right)
    with pytest.raises(TypeError, match="mixed discriminants"):
        op(quad(1, 1, 2), quad(1, 1, 3))


@pytest.mark.parametrize(
    "name", ["__add__", "__sub__", "__rsub__", "__mul__", "__truediv__", "__rtruediv__", "__eq__"]
)
def test_quadnumber_returns_not_implemented_for_a_str(name):
    assert getattr(quad(1, 1), name)("a") is NotImplemented


@pytest.mark.parametrize("op", [operator.add, operator.sub, operator.mul, operator.truediv])
def test_quadnumber_arithmetic_with_a_str_raises_type_error(op):
    for left, right in ((quad(1, 1), "a"), ("a", quad(1, 1))):
        with pytest.raises(TypeError):
            op(left, right)
    assert quad(1, 1) != "a" and "a" != quad(1, 1)


def test_primitive_part_of_zero_raises():
    with pytest.raises(DegenerateInput, match="^zero vector has no primitive part$"):
        primitive_part((0, 0, 0))


def test_quadnumber_equality_and_hash_across_discriminants():
    mixed = [quad(1, 0, 2), quad(1, 0, 3), quad(Fraction(1, 2), 0, 5), Fraction(1, 2), 1,
             quad(1, 1, 2), quad(1, 1, 3), quad(0, 1, 2), quad(0, 1, 3), quad(0, 0, 7), 0]
    assert quad(1, 0, 2) == quad(1, 0, 3) and quad(0, 0, 2) == quad(0, 0, 5)
    assert quad(1, 1, 2) != quad(1, 1, 3) and quad(1, 0, 2) != quad(2, 0, 3)
    assert quad(0, 1, 2) != quad(0, 1, 3) and quad(1, 0, 2) != quad(1, 1, 3)
    for x in mixed:
        for y in mixed:
            if x == y:
                assert hash(x) == hash(y), (x, y)
    # Rationals collapse to one element whatever their field.
    assert {quad(1, 0, 2), quad(1, 0, 3), 1} == {1}
    assert len(set(mixed)) == 7


def test_quadnumber_equality_and_hash_with_floats():
    # As with Fraction: a float equals a rational value, never an
    # irrational one, and hashes agree where == holds.
    assert quad(1) == 1.0 and 1.0 == quad(1) and quad(Fraction(-1, 4)) == -0.25
    assert quad(1, 0, 3) == 1.0 and Fraction(1) == 1.0
    assert len({quad(1), 1.0}) == 1 == len({Fraction(1), 1.0})
    assert quad(0, 1) != math.sqrt(2) and math.sqrt(2) != quad(0, 1)
    assert quad(1) != float("nan") and quad(1) != float("inf") and quad(1, 1) != 1.0
    for symbol, op in (("<", operator.lt), (">=", operator.ge)):
        with pytest.raises(TypeError, match=f"'{symbol}' not supported"):
            op(quad(1), 1.0)


def old_is_square_free(d):
    """The trial division to sqrt(d) that `_is_square_free` replaced."""
    if d < 2:
        return False
    k = 2
    while k * k <= d:
        if d % (k * k) == 0:
            return False
        k += 1
    return True


def test_is_square_free_matches_the_old_loop():
    n = 200_000
    # a sieve of square factors for every d < n, checked against the old loop
    # on the start of the range and on a random sample of the rest
    square_free = [True] * n
    for k in range(2, math.isqrt(n) + 1):
        square_free[k * k :: k * k] = [False] * len(square_free[k * k :: k * k])
    for d in range(3000):
        assert old_is_square_free(d) == (d >= 2 and square_free[d]), d
    rnd = random.Random(41)
    for d in rnd.sample(range(n), 300):
        assert old_is_square_free(d) == (d >= 2 and square_free[d]), d
    for d in range(n):
        assert _is_square_free(d) == (d >= 2 and square_free[d]), d
    for _ in range(100):
        d = rnd.randrange(10**9)
        assert _is_square_free(d) == old_is_square_free(d), d


def test_is_square_free_on_cofactors_of_one_or_two_large_primes():
    p, q = 1_000_003, 999_983
    for d, expected in ((p, True), (p * q, True), (p * p, False), (6 * p * q, True),
                        (12 * p, False), ((2**31 - 1) ** 2, False), (2**61 - 1, True)):
        assert _is_square_free(d) == expected, d


@pytest.mark.parametrize("d", [2**63, 2**63 + 1, 2**64 + 3])
def test_discriminants_are_bounded_by_2_63(d):
    message = f"discriminant must be below 2**63, got {d}"
    assert _discriminant_fault(d) == message
    with pytest.raises(ValueError, match=re.escape(message)):
        QuadNumber(1, 1, d)


def test_discriminant_is_decided_once_per_d(monkeypatch):
    calls = []

    def counting(d):
        calls.append(d)
        return old_is_square_free(d)

    monkeypatch.setattr(exactnum_module, "_is_square_free", counting)
    _discriminant_fault.cache_clear()
    d = 10**12 + 39
    try:
        values = [QuadNumber(j, 1, d) for j in range(50)]
        assert sum(values, QuadNumber(0, 0, d)).irr == 50
    finally:
        _discriminant_fault.cache_clear()
    assert calls.count(d) == 1


def test_int_triple_reads_three_ints():
    v = (3, -4, 2**70)
    assert int_triple(v) is v
    assert int_triple([3, -4, 2**70]) == v and type(int_triple([1, 2, 3])) is tuple
    for entry in (1.0, 2.5, True, False, Fraction(1), Decimal(1), "1", None):
        with pytest.raises(TypeError, match="must be int"):
            int_triple((0, entry, 1))
    for short_or_long in ((), (1,), (1, 2), [1, 2, 3, 4]):
        with pytest.raises(DegenerateInput, match="three entries"):
            int_triple(short_or_long)
