"""`QuadNumber` stores (a + b sqrt(d)) / den as integers.  It is checked
against a test-local copy of the class it replaced, a frozen dataclass of
two Fractions, on random values with d up to 2**61 - 1: arithmetic,
`inverse`, `sign`, `floor`, order, `==` (against floats and across
discriminants), `hash` and `repr`.  A rational value hashes as its Fraction
does, and the value survives `copy` and pickle unchanged."""

import copy
import math
import pickle
import random
from dataclasses import dataclass
from fractions import Fraction

import pytest

from goodcones.exactnum import QuadNumber, quad_sign

DISCRIMINANTS = (2, 3, 5, 7, 10, 101, 2**31 - 1, 2**61 - 1)


@dataclass(frozen=True)
class OldQuad:
    """The Fraction-pair QuadNumber as it was, operations only."""

    rat: Fraction
    irr: Fraction
    d: int = 2

    def __post_init__(self):
        if not isinstance(self.rat, Fraction):
            object.__setattr__(self, "rat", Fraction(self.rat))
        if not isinstance(self.irr, Fraction):
            object.__setattr__(self, "irr", Fraction(self.irr))

    def _coerce(self, other):
        if isinstance(other, OldQuad):
            if other.d != self.d:
                raise TypeError(f"mixed discriminants {self.d} and {other.d}")
            return other
        if isinstance(other, (int, Fraction)):
            return OldQuad(Fraction(other), Fraction(0), self.d)
        return NotImplemented

    def __add__(self, other):
        o = self._coerce(other)
        return OldQuad(self.rat + o.rat, self.irr + o.irr, self.d)

    def __neg__(self):
        return OldQuad(-self.rat, -self.irr, self.d)

    def __sub__(self, other):
        o = self._coerce(other)
        return OldQuad(self.rat - o.rat, self.irr - o.irr, self.d)

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return OldQuad(self.rat * other, self.irr * other, self.d)
        o = self._coerce(other)
        return OldQuad(
            self.rat * o.rat + self.d * self.irr * o.irr,
            self.rat * o.irr + self.irr * o.rat,
            self.d,
        )

    def inverse(self):
        norm = self.rat * self.rat - self.d * self.irr * self.irr
        if norm == 0:
            raise ZeroDivisionError("zero has no inverse in Q(sqrt(d))")
        return OldQuad(self.rat / norm, -self.irr / norm, self.d)

    def __truediv__(self, other):
        return self * self._coerce(other).inverse()

    def __rtruediv__(self, other):
        return self._coerce(other) * self.inverse()

    def sign(self):
        a, b = self.rat, self.irr
        return quad_sign(a.numerator * b.denominator, b.numerator * a.denominator, self.d)

    def __floor__(self):
        den = math.lcm(self.rat.denominator, self.irr.denominator)
        a, b = int(self.rat * den), int(self.irr * den)
        root = math.isqrt(b * b * self.d)
        if b < 0:
            root = -root - 1
        return (a + root) // den

    def __eq__(self, other):
        if isinstance(other, float):
            return self.irr == 0 and self.rat == other
        if isinstance(other, OldQuad) and other.d != self.d:
            return self.irr == 0 == other.irr and self.rat == other.rat
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return self.rat == o.rat and self.irr == o.irr

    def __hash__(self):
        if self.irr == 0:
            return hash(self.rat)
        return hash((self.rat, self.irr, self.d))

    def __lt__(self, other):
        return (self - self._coerce(other)).sign() < 0

    def __le__(self, other):
        return (self - self._coerce(other)).sign() <= 0

    def __gt__(self, other):
        return (self - self._coerce(other)).sign() > 0

    def __ge__(self, other):
        return (self - self._coerce(other)).sign() >= 0

    def __float__(self):
        return float(self.rat) + float(self.irr) * math.sqrt(self.d)

    def __repr__(self):
        return f"QuadNumber({self.rat} + {self.irr}*sqrt({self.d}))"


def old(x):
    """The oracle's value of a QuadNumber, or x itself for another number."""
    return OldQuad(x.rat, x.irr, x.d) if isinstance(x, QuadNumber) else x


def same(new, expected):
    """A QuadNumber result against the oracle's: equal parts, and the
    stored form (den > 0, gcd(a, b, den) = 1) of those parts."""
    assert type(new) is QuadNumber
    assert (new.rat, new.irr, new.d) == (expected.rat, expected.irr, expected.d)
    assert new.den > 0 and math.gcd(new.a, new.b, new.den) == 1
    assert Fraction(new.a, new.den) == new.rat and Fraction(new.b, new.den) == new.irr
    assert repr(new) == repr(expected) and hash(new) == hash(expected)


def random_fraction(rnd, bits=80):
    num = rnd.randint(-(2**bits), 2**bits)
    return Fraction(num, rnd.randint(1, 2**40)) if rnd.random() < 0.7 else Fraction(num)


def random_quad(rnd, d):
    rat = random_fraction(rnd)
    irr = random_fraction(rnd) if rnd.random() < 0.85 else Fraction(0)
    if rnd.random() < 0.3:
        return QuadNumber(rat.numerator, irr.numerator, d)
    return QuadNumber(rat, irr, d)


def operands(rnd, d):
    """A QuadNumber of the same field, an int and a Fraction, each nonzero
    with probability near one."""
    return (random_quad(rnd, d), rnd.randint(-(2**70), 2**70), random_fraction(rnd))


@pytest.mark.parametrize("d", DISCRIMINANTS)
def test_arithmetic_matches_the_fraction_pair_class(d):
    rnd = random.Random(d)
    for _ in range(150):
        x = random_quad(rnd, d)
        same(-x, -old(x))
        if not x.is_zero():
            same(x.inverse(), old(x).inverse())
        for y in operands(rnd, d):
            same(x + y, old(x) + old(y))
            same(y + x, old(x) + old(y))
            same(x - y, old(x) - old(y))
            same(y - x, old(y) - old(x) if isinstance(y, QuadNumber) else old(x).__rsub__(y))
            same(x * y, old(x) * old(y))
            same(y * x, old(x) * old(y))
            if y:
                same(x / y, old(x) / old(y))
            if not x.is_zero():
                expected = old(y) / old(x) if isinstance(y, QuadNumber) else old(x).__rtruediv__(y)
                same(y / x, expected)


@pytest.mark.parametrize("d", DISCRIMINANTS)
def test_sign_floor_and_order_match_the_fraction_pair_class(d):
    rnd = random.Random(1000 + d)
    for _ in range(300):
        x = random_quad(rnd, d)
        assert x.sign() == old(x).sign()
        assert math.floor(x) == math.floor(old(x))
        y, n, f = operands(rnd, d)
        near = x + QuadNumber(0, 0, d) if rnd.random() < 0.2 else y
        for other in (near, n, f, math.floor(x), Fraction(math.floor(x))):
            o = old(other)
            assert (x < other) == (old(x) < o)
            assert (x <= other) == (old(x) <= o)
            assert (x > other) == (old(x) > o)
            assert (x >= other) == (old(x) >= o)
            assert (other < x) == (old(x) > o) and (other >= x) == (old(x) <= o)
            assert (x == other) == (old(x) == o) and (other == x) == (old(x) == o)


def test_sign_and_floor_near_a_cancellation():
    """Mixed signs whose a^2 and d b^2 nearly agree, with d = 2**61 - 1."""
    rnd = random.Random(3)
    d = 2**61 - 1
    for _ in range(500):
        b = rnd.randint(1, 2**90) * rnd.choice((-1, 1))
        a = -b * math.isqrt(d << 200) >> 100
        x = QuadNumber(a + rnd.randint(-1, 1), b, d, rnd.randint(1, 2**30))
        assert x.sign() == old(x).sign()
        assert math.floor(x) == math.floor(old(x))


def test_equality_and_hash_against_floats_and_across_discriminants():
    rnd = random.Random(5)
    values = []
    for _ in range(60):
        d = rnd.choice(DISCRIMINANTS)
        rat = Fraction(rnd.randint(-64, 64), 2 ** rnd.randint(0, 4))
        irr = 0 if rnd.random() < 0.5 else Fraction(rnd.randint(-3, 3), rnd.randint(1, 3))
        values.append(QuadNumber(rat, irr, d))
    floats = [float(Fraction(rnd.randint(-64, 64), 2 ** rnd.randint(0, 4))) for _ in range(30)]
    floats += [0.0, 1.0, -0.5, math.inf, math.nan, math.sqrt(2)]
    for x in values:
        for y in values:
            assert (x == y) == (old(x) == old(y)), (x, y)
            if x == y:
                assert hash(x) == hash(y)
        for f in floats:
            assert (x == f) == (old(x) == f) and (f == x) == (old(x) == f), (x, f)
            if x == f:
                assert hash(x) == hash(f)
        if x.is_rational():
            assert hash(x) == hash(x.rat) == hash(old(x))
            assert x == x.rat and x.rat == x
    assert QuadNumber(Fraction(1, 2), 0, 2) == QuadNumber(1, 0, 2**61 - 1, 2)
    assert QuadNumber(1, 1, 2) != QuadNumber(1, 1, 3)
    with pytest.raises(TypeError, match="mixed discriminants"):
        QuadNumber(1, 1, 2) < QuadNumber(1, 1, 3)


def test_hash_of_a_rational_is_the_hash_of_its_fraction():
    rnd = random.Random(9)
    for _ in range(500):
        value = random_fraction(rnd, bits=rnd.choice((8, 70, 200)))
        for d in (2, 2**61 - 1):
            assert hash(QuadNumber(value, 0, d)) == hash(value)
    assert hash(QuadNumber(3, 0, 5)) == hash(3) and hash(QuadNumber(-1, 0)) == hash(-1)


def test_constructor_clears_fractions_and_keeps_one_representation():
    rnd = random.Random(11)
    for _ in range(500):
        d = rnd.choice(DISCRIMINANTS)
        rat, irr = random_fraction(rnd), random_fraction(rnd)
        den = rnd.choice((rnd.randint(1, 2**50), -rnd.randint(1, 2**50), random_fraction(rnd)))
        if den == 0:
            continue
        x = QuadNumber(rat, irr, d, den)
        same(x, OldQuad(rat / den, irr / den, d))
        # the integer parts built directly give the same stored form
        g = rnd.randint(1, 2**20) * rnd.choice((-1, 1))
        assert QuadNumber(x.a * g, x.b * g, d, x.den * g) == x
        y = QuadNumber(x.a * g, x.b * g, d, x.den * g)
        assert (y.a, y.b, y.den) == (x.a, x.b, x.den)
    zero = QuadNumber(0, 0, 3, -7)
    assert (zero.a, zero.b, zero.den) == (0, 0, 1)
    assert QuadNumber("1/2", 2.5, 2) == QuadNumber(1, 5, 2, 2)
    with pytest.raises(ZeroDivisionError):
        QuadNumber(1, 1, 2, 0)
    with pytest.raises(ValueError, match="square-free"):
        QuadNumber(1, 1, 4)
    with pytest.raises(ZeroDivisionError):
        QuadNumber(0, 0, 5).inverse()
    with pytest.raises(ZeroDivisionError):
        QuadNumber(1, 1, 5) / 0


def test_copy_and_pickle_round_trips():
    for x in (QuadNumber(Fraction(-3, 4), Fraction(5, 6), 2**61 - 1), QuadNumber(7, 0, 3)):
        for twin in (copy.copy(x), copy.deepcopy(x), pickle.loads(pickle.dumps(x))):
            assert type(twin) is QuadNumber
            assert (twin.a, twin.b, twin.den, twin.d) == (x.a, x.b, x.den, x.d)
            assert twin == x and hash(twin) == hash(x) and repr(twin) == repr(x)


def test_a_value_cannot_be_changed():
    x = QuadNumber(Fraction(1, 2), 3, 5)
    for name in ("rat", "irr", "d", "a", "b", "den", "other"):
        with pytest.raises(AttributeError):
            setattr(x, name, 1)
        with pytest.raises(AttributeError):
            delattr(x, name)
    assert (x.a, x.b, x.den, x.d) == (1, 6, 2, 5)
    assert not hasattr(x, "__dict__")
