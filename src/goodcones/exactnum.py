"""Exact arithmetic: rationals, a real quadratic field Q(sqrt(d)), and
lattice linear algebra in Z^3.

Everything here is pure and exact; floats never enter any decision.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction
from operator import attrgetter
from typing import Optional, Sequence, Tuple, Union

Scalar = Union[int, Fraction, "QuadNumber"]
Vec3 = Tuple[Scalar, Scalar, Scalar]

DEFAULT_DISCRIMINANT = 2


class DegenerateInput(ValueError):
    """Input violates a geometric precondition (zero/parallel vectors...)."""


class SearchExhausted(RuntimeError):
    """A lattice point the caller asked for does not exist: no admissible
    candidate satisfies the constraints."""


def _is_square_free(d: int) -> bool:
    """Whether d >= 2 has no square factor > 1, in about cbrt(d) steps: trial
    division removes each prime k while k**3 <= the cofactor left, which is
    then 1, p, pq or p**2 for primes p, q > k, and an isqrt tells p**2."""
    if d < 2:
        return False
    k = 2
    while k * k * k <= d:
        if d % k == 0:
            d //= k
            if d % k == 0:
                return False
        k += 1
    return d == 1 or math.isqrt(d) ** 2 != d


DISCRIMINANT_BOUND = 1 << 63  # keeps the trial division of _is_square_free short


@functools.cache
def _discriminant_fault(d: int) -> Optional[str]:
    """The error message for an unusable discriminant, decided once per d;
    None for a square-free integer with 2 <= d < 2**63."""
    if d >= DISCRIMINANT_BOUND:
        return f"discriminant must be below 2**63, got {d}"
    if not _is_square_free(d):
        return f"discriminant must be square-free >= 2, got {d}"


class QuadNumber:
    """Element (a + b*sqrt(d)) / den of the real quadratic field Q(sqrt(d)),
    stored as the integers a, b and den > 0 with gcd(a, b, den) = 1, so that
    each value has one representation.

    `QuadNumber(rat, irr, d, den)` is (rat + irr*sqrt(d)) / den: ints take a
    fast path, any other number is read as a `Fraction`, and every value is
    built through `__init__`.  `rat` and `irr`, the rational and irrational
    parts, are `Fraction` properties; a, b, den and d are read-only.
    Arithmetic, signs, floors and order run on the integers, without a
    temporary value: `sign` is `quad_sign(a, b, d)`, `floor` one isqrt, and
    an order one `quad_sign` of the cross-multiplied difference.

    d is a square-free integer >= 2, fixed per value; arithmetic and order
    across discriminants raise TypeError, while == across them holds only
    for equal rationals, as Q(sqrt(d1)) and Q(sqrt(d2)) meet in Q.  A float
    equals a rational value as it equals a Fraction; order against a float
    raises TypeError.  A rational value hashes as its Fraction does.
    """

    __slots__ = ("_a", "_b", "_den", "_d")

    def __init__(self, rat, irr, d: int = DEFAULT_DISCRIMINANT, den=1):
        if type(rat) is not int or type(irr) is not int or type(den) is not int:
            rat, irr, den = _cleared(rat, irr, den)
        if den != 1:
            if den <= 0:
                if not den:
                    raise ZeroDivisionError("QuadNumber with zero denominator")
                rat, irr, den = -rat, -irr, -den
            g = math.gcd(rat, irr, den)
            if g != 1:
                rat, irr, den = rat // g, irr // g, den // g
        if fault := _discriminant_fault(d):
            raise ValueError(fault)
        self._a = rat
        self._b = irr
        self._den = den
        self._d = d

    a = property(attrgetter("_a"))
    b = property(attrgetter("_b"))
    den = property(attrgetter("_den"))
    d = property(attrgetter("_d"))

    @property
    def rat(self) -> Fraction:
        return Fraction(self._a, self._den)

    @property
    def irr(self) -> Fraction:
        return Fraction(self._b, self._den)

    def __reduce__(self):
        return QuadNumber, (self._a, self._b, self._d, self._den)

    def _parts(self, other) -> Optional[Tuple[int, int, int]]:
        """other as (a, b, den) in the field of self; None for a type that
        is not a number of it."""
        if isinstance(other, QuadNumber):
            if other._d != self._d:
                raise TypeError(f"mixed discriminants {self._d} and {other._d}")
            return other._a, other._b, other._den
        if isinstance(other, int):
            return other, 0, 1
        if isinstance(other, Fraction):
            return other.numerator, 0, other.denominator
        return None

    def __add__(self, other):
        o = self._parts(other)
        if o is None:
            return NotImplemented
        a, b, n = o
        m = self._den
        if m == n:
            return QuadNumber(self._a + a, self._b + b, self._d, n)
        return QuadNumber(self._a * n + a * m, self._b * n + b * m, self._d, m * n)

    __radd__ = __add__

    def __neg__(self):
        return QuadNumber(-self._a, -self._b, self._d, self._den)

    def __sub__(self, other):
        o = self._parts(other)
        if o is None:
            return NotImplemented
        a, b, n = o
        m = self._den
        return QuadNumber(self._a * n - a * m, self._b * n - b * m, self._d, m * n)

    def __rsub__(self, other):
        o = self._parts(other)
        if o is None:
            return NotImplemented
        a, b, n = o
        m = self._den
        return QuadNumber(a * m - self._a * n, b * m - self._b * n, self._d, m * n)

    def __mul__(self, other):
        o = self._parts(other)
        if o is None:
            return NotImplemented
        a, b, n = o
        x, y, d = self._a, self._b, self._d
        return QuadNumber(x * a + d * y * b, x * b + y * a, d, self._den * n)

    __rmul__ = __mul__

    def inverse(self) -> "QuadNumber":
        return _quotient(1, 0, 1, self._a, self._b, self._den, self._d)

    def __truediv__(self, other):
        o = self._parts(other)
        if o is None:
            return NotImplemented
        return _quotient(self._a, self._b, self._den, *o, self._d)

    def __rtruediv__(self, other):
        o = self._parts(other)
        if o is None:
            return NotImplemented
        return _quotient(*o, self._a, self._b, self._den, self._d)

    def is_zero(self) -> bool:
        return self._a == 0 and self._b == 0

    def is_rational(self) -> bool:
        return self._b == 0

    def sign(self) -> int:
        return quad_sign(self._a, self._b, self._d)

    def __floor__(self) -> int:
        """Exact floor: floor(N / den) = floor(floor(N) / den) for an integer
        den > 0, and b*sqrt(d) is irrational unless b = 0, so its floor is
        isqrt(b^2 d) for b >= 0 and -isqrt(b^2 d) - 1 for b < 0."""
        b = self._b
        root = math.isqrt(b * b * self._d)
        if b < 0:
            root = -root - 1
        return (self._a + root) // self._den

    def __eq__(self, other):
        if isinstance(other, QuadNumber):
            # across discriminants only rationals agree, which keeps == in
            # step with __hash__
            return (
                self._a == other._a
                and self._b == other._b
                and self._den == other._den
                and (self._d == other._d or self._b == 0)
            )
        if isinstance(other, int):
            return self._b == 0 and self._den == 1 and self._a == other
        if isinstance(other, Fraction):
            return self._b == 0 and self._a == other.numerator and self._den == other.denominator
        if isinstance(other, float):
            # as Fraction compares with a float, which keeps == in step
            # with __hash__; a float is never irrational
            return self._b == 0 and Fraction(self._a, self._den) == other
        return NotImplemented

    def __hash__(self):
        if self._b == 0:
            return hash(self._a) if self._den == 1 else hash(Fraction(self._a, self._den))
        return hash((self.rat, self.irr, self._d))

    def _compare(self, other) -> Optional[int]:
        """The sign of self - other, None for an unsupported type: with both
        denominators positive, one quad_sign of the cross-multiplied
        difference."""
        o = self._parts(other)
        if o is None:
            return None
        a, b, n = o
        m = self._den
        return quad_sign(self._a * n - a * m, self._b * n - b * m, self._d)

    def __lt__(self, other):
        s = self._compare(other)
        return NotImplemented if s is None else s < 0

    def __le__(self, other):
        s = self._compare(other)
        return NotImplemented if s is None else s <= 0

    def __gt__(self, other):
        s = self._compare(other)
        return NotImplemented if s is None else s > 0

    def __ge__(self, other):
        s = self._compare(other)
        return NotImplemented if s is None else s >= 0

    def __float__(self):
        # Presentation only (SVG coordinates); never used in decisions.
        # int / int rounds correctly, so each part is float() of its Fraction.
        return self._a / self._den + self._b / self._den * math.sqrt(self._d)

    def __repr__(self):
        n = self._den
        return f"QuadNumber({ratio_text(self._a, n)} + {ratio_text(self._b, n)}*sqrt({self._d}))"


# Sets a field of a Record, past its frozen __setattr__.
_set = object.__setattr__


class Record:
    """Base of every frozen result record of the library, a plain class with
    no per-class generated code.  A subclass's fields are its annotated
    names, in order.  Its instances print, compare and hash as
    `dataclass(frozen=True)` instances with those fields do: the repr is
    `Name(field=value, ...)`, == holds between records of one class with
    equal field tuples (NotImplemented across classes), the hash is that of
    the field tuple, and assigning or deleting an attribute raises
    AttributeError.  Copy and pickle rebuild a record from its fields, so
    they drop any other attribute, such as a cache set with `_set`.

    The inherited constructor takes every field, positionally or by
    keyword.  A record that is built often, or that checks or normalises
    its fields, defines its own `__init__`, which sets each field with `_set`."""

    _fields: Tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._fields = tuple(cls.__annotations__)

    def __init__(self, *args, **kwargs):
        fields = self._fields
        name = type(self).__name__
        if len(args) > len(fields):
            raise TypeError(f"{name}() takes {len(fields)} arguments, got {len(args)}")
        for field, value in zip(fields, args):
            _set(self, field, value)
        for field in fields[len(args):]:
            if field not in kwargs:
                raise TypeError(f"{name}() missing argument {field!r}")
            _set(self, field, kwargs.pop(field))
        if kwargs:
            raise TypeError(f"{name}() got an unexpected keyword argument {next(iter(kwargs))!r}")

    def _values(self) -> tuple:
        return tuple([getattr(self, field) for field in self._fields])

    def __repr__(self):
        items = ", ".join([f"{field}={getattr(self, field)!r}" for field in self._fields])
        return f"{type(self).__qualname__}({items})"

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), self._values()


def _cleared(rat, irr, den) -> Tuple[int, int, int]:
    """Integers (a, b, n) with (a + b sqrt(d)) / n = (rat + irr sqrt(d)) / den
    for rational rat, irr and den, each read as a Fraction."""
    r, s, t = (x if isinstance(x, Fraction) else Fraction(x) for x in (rat, irr, den))
    q, u = r.denominator, s.denominator
    lcm = q // math.gcd(q, u) * u
    scale = t.denominator
    return r.numerator * (lcm // q) * scale, s.numerator * (lcm // u) * scale, t.numerator * lcm


def _quotient(a: int, b: int, m: int, x: int, y: int, n: int, d: int) -> QuadNumber:
    """n (a + b sqrt(d)) / (m (x + y sqrt(d))) for integers, m, n != 0, as
    one QuadNumber: multiply through by the conjugate x - y sqrt(d)."""
    norm = x * x - d * y * y
    if norm == 0:
        raise ZeroDivisionError("zero has no inverse in Q(sqrt(d))")
    return QuadNumber(n * (a * x - d * b * y), n * (b * x - a * y), d, m * norm)


def ratio_text(p: int, q: int) -> str:
    """`str(Fraction(p, q))` for integers p and q > 0, from one gcd: "p" or
    "p/q" in lowest terms."""
    g = math.gcd(p, q)
    if g == q:
        return str(p // g)
    return f"{p // g}/{q // g}"


def quad_sign(a: int, b: int, d: int) -> int:
    """Exact sign of a + b*sqrt(d) for integers a, b and a non-square d > 0.
    Only mixed signs need work: then a^2 != d*b^2, as sqrt(d) is
    irrational, and the larger of the two decides."""
    if b == 0:
        return (a > 0) - (a < 0)
    if a == 0 or (a > 0) == (b > 0):
        return 1 if b > 0 else -1
    if a * a > d * b * b:
        return 1 if a > 0 else -1
    return 1 if b > 0 else -1


def quad(rat, irr=0, d: int = DEFAULT_DISCRIMINANT) -> QuadNumber:
    return QuadNumber(rat, irr, d)


# ---------------------------------------------------------------------------
# Vectors in Z^3 (plain tuples), and over Q / Q(sqrt(d)).
# ---------------------------------------------------------------------------


def vec_add(u: Vec3, v: Vec3) -> Vec3:
    return (u[0] + v[0], u[1] + v[1], u[2] + v[2])


def vec_scale(c: Scalar, u: Vec3) -> Vec3:
    return (c * u[0], c * u[1], c * u[2])


def dot(u: Vec3, v: Vec3):
    return u[0] * v[0] + u[1] * v[1] + u[2] * v[2]


def cross(u: Vec3, v: Vec3) -> Vec3:
    return (
        u[1] * v[2] - u[2] * v[1],
        u[2] * v[0] - u[0] * v[2],
        u[0] * v[1] - u[1] * v[0],
    )


def det3(u: Vec3, v: Vec3, w: Vec3):
    """Exact determinant of the 3x3 matrix with columns u, v, w."""
    return dot(cross(u, v), w)


def cramer_rows(a1: Vec3, a2: Vec3, a3: Vec3) -> Tuple[Vec3, Vec3, Vec3]:
    """Rows (a2 x a3, a3 x a1, a1 x a2) of the adjugate of the frame with
    columns a1, a2, a3 (Cramer's rule): the coordinates of v in the frame
    are row . v / det3(a1, a2, a3), and that determinant is a1 . row 1."""
    return (cross(a2, a3), cross(a3, a1), cross(a1, a2))


def content(u: Sequence[int]) -> int:
    """gcd of the coordinates, >= 0 (0 for the zero vector)."""
    return math.gcd(*u)


def int_triple(v: Sequence[int]) -> Tuple[int, int, int]:
    """The integer vector v as a tuple of three ints (v itself when it is
    one).  An entry that is not an int (a float, bool or Fraction) raises
    TypeError rather than being truncated, and a vector without exactly
    three entries raises DegenerateInput."""
    if len(v) != 3:
        raise DegenerateInput(f"vector {tuple(v)} does not have three entries")
    a, b, c = v
    if type(a) is not int or type(b) is not int or type(c) is not int:
        raise TypeError(f"vector entries must be int, got {a!r}, {b!r}, {c!r}")
    return v if type(v) is tuple else (a, b, c)


def is_primitive(u: Sequence[int]) -> bool:
    return content(u) == 1


def primitive_part(u: Vec3) -> Vec3:
    """Divide an integer vector by the gcd of its coordinates, keeping sign."""
    g = content(u)
    if g == 0:
        raise DegenerateInput("zero vector has no primitive part")
    return (u[0] // g, u[1] // g, u[2] // g)


def cross_primitive(u: Vec3, v: Vec3) -> Vec3:
    """Primitive vector along u x v; error if u, v are parallel."""
    c = cross(u, v)
    if c == (0, 0, 0):
        raise DegenerateInput(f"parallel vectors {u}, {v}")
    return primitive_part(c)


def _xgcd(a: int, b: int) -> Tuple[int, int, int]:
    """(g, x, y) with a*x + b*y = g = gcd(a, b) >= 0."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t


def least_denominator_of_pairs(
    a: int, b: int, lo_open: bool, c: int, e: int, hi_open: bool
) -> Optional[int]:
    """Least q >= 1 such that some p / q lies in the interval from a / b to
    c / e, b, e > 0, each end open or closed; None when it is empty.
    Neither pair need be in lowest terms.

    Continued-fraction (Stern–Brocot) descent: an interval holding no
    integer lies in (n, n + 1), and x -> 1 / (x - n) maps it onto one in
    (1, inf] whose least numerator is the least denominator sought; that
    least numerator is reached at the least integer of the last interval.
    The steps are as many as the continued fraction of an end has terms.
    The ends are carried as integer pairs (num, den), den > 0 except for an
    infinite upper end (num > 0, den = 0), so the descent runs in Z; every
    test compares cross products, so a common factor of a pair changes
    nothing.

    Sizes: past the first step the pairs are Euclid remainders.  That step
    maps the ends to e / (c - n e) and b / (a - n b) with 0 <= a - n b < b
    and 0 < c - n e <= e (hi <= n + 1, as neither n nor n + 1 was taken),
    and each later step does the same to entries that never grow.  So no
    entry exceeds max(b, e) after the first step's products n b and n e,
    and C and D stay below the returned denominator C z + D."""
    if a * e > c * b or (a * e == c * b and (lo_open or hi_open)):
        return None
    # x = (A z + B) / (C z + D), unimodular, maps the current interval back
    # to the original, so the denominator of x is C z + D.
    C, D = 0, 1
    while True:
        n = a // b
        z = n + 1 if lo_open or n * b < a else n
        # An infinite upper end (c > 0, e = 0) passes the first test.
        if z * e < c or (z * e == c and not hi_open):
            return C * z + D
        C, D = C * n + D, C
        # The new ends 1 / (hi - n) and 1 / (lo - n), the latter (b, 0) with
        # b > 0, an infinite end, when lo = n.
        a, b, c, e = e, c - n * e, b, a - n * b
        lo_open, hi_open = hi_open, lo_open


def ratio_sum(terms) -> Tuple[int, int]:
    """(num, den) with num / den the sum of a / b over the integer pairs
    (a, b), b > 0, of `terms`: the sum runs in Z, over the lcm of den and
    each b, and num / den need not be in lowest terms.

    Sizes: the pair is divided by gcd(num, den) whenever den exceeds the
    largest b so far, so after each term den is at most that b or the
    denominator of the partial sum in lowest terms, and an intermediate den
    at most that times one b.  Without it, den grows to the lcm of every b,
    about their product when they are nearly coprime."""
    num, den, top = 0, 1, 1
    for a, b in terms:
        g = math.gcd(den, b)
        num, den = num * (b // g) + a * (den // g), den // g * b
        if b > top:
            top = b
        if den > top:
            g = math.gcd(num, den)
            num, den = num // g, den // g
    return num, den


def solve_dot_one(v: Vec3) -> Vec3:
    """Integer w with v . w = 1, for primitive v (extended gcd over coords)."""
    g01, x, y = _xgcd(v[0], v[1])
    g, s, t = _xgcd(g01, v[2])
    if g != 1:
        raise DegenerateInput(f"vector {v} is not primitive")
    return (x * s, y * s, t)


def plane_lattice_basis(v0: Vec3) -> Tuple[Vec3, Vec3]:
    """Basis (u1, u2) of the rank-2 lattice Z^3 ∩ v0-perp, oriented so that
    det3(u1, u2, v0) > 0.  v0 must be primitive and nonzero, and is read
    by `int_triple`.

    Hermite-style column reduction of the relation row (v0 . x = 0): while
    two values are nonzero, the first other nonzero value is reduced
    modulo the first of least magnitude, and its column with it.
    """
    v0 = int_triple(v0)
    if v0 == (0, 0, 0):
        raise DegenerateInput("zero vector")
    if not is_primitive(v0):
        raise DegenerateInput(f"{v0} is not primitive")
    vals = list(v0)
    cols = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    while True:
        x0, x1, x2 = vals
        # (i, j): reduce value i by value j
        if not x0:
            if not x1 or not x2:
                break
            i, j = (2, 1) if abs(x1) <= abs(x2) else (1, 2)
        elif not x1:
            if not x2:
                break
            i, j = (2, 0) if abs(x0) <= abs(x2) else (0, 2)
        elif not x2:
            i, j = (1, 0) if abs(x0) <= abs(x1) else (0, 1)
        else:
            a0, a1, a2 = abs(x0), abs(x1), abs(x2)
            j = 0 if a0 <= a1 and a0 <= a2 else (1 if a1 <= a2 else 2)
            i = 1 if j == 0 else 0
        q = vals[i] // vals[j]
        vals[i] -= q * vals[j]
        ci, cj = cols[i], cols[j]
        ci[0] -= q * cj[0]
        ci[1] -= q * cj[1]
        ci[2] -= q * cj[2]
    c0, c1, c2 = cols
    u1, u2 = (c1, c2) if vals[0] else ((c0, c2) if vals[1] else (c0, c1))
    u1, u2 = tuple(u1), tuple(u2)
    if det3(u1, u2, v0) < 0:
        u1, u2 = u2, u1
    return u1, u2


# ---------------------------------------------------------------------------
# Delzant witnesses.
# ---------------------------------------------------------------------------


def is_delzant_pair(n: Vec3, np: Vec3) -> bool:
    """True iff some integer l has det3(n, np, l) = 1 (pair extends to a
    Z-basis); equivalently the three 2x2 minors of (n, np) are coprime."""
    c = cross(n, np)
    return content(c) == 1


def _round_half_even(p: int, q: int) -> int:
    """The integer nearest p / q for q > 0, ties to the even one: equal to
    round(Fraction(p, q))."""
    f, r = divmod(p, q)
    r *= 2
    if r < q or (r == q and not f & 1):
        return f
    return f + 1


def delzant_witness(n: Vec3, np: Vec3) -> Optional[Vec3]:
    """Integer l with det3(n, np, l) = 1, or None when the pair is not
    Delzant.

    From l0 = solve_dot_one(n x np), the least point by (norm, lexicographic
    order) of l0 - a n - b np over the 5x5 window of (a, b) around (a0, b0),
    the coordinates of l0 along n and np in the (n, np, n x np) frame, each
    rounded half to even as round(Fraction) does.  With the Gram matrix
    G = ((n.n, n.np), (n.np, np.np)), whose determinant is |n x np|^2, those
    coordinates are G^-1 (n.l0, np.l0).  The 25 squared norms of
    x - da n - db np, for the reduced base x = l0 - a0 n - b0 np, are read off
    x.x, x.n, x.np and G; vectors are built only for the points of least
    norm, and ties go to the lexicographically least vector.
    This is a canonical choice, not the least-norm witness modulo
    span(n, np): a shorter one can lie outside the window."""
    if not (is_primitive(n) and is_primitive(np)):
        raise DegenerateInput("delzant_witness requires primitive inputs")
    c = cross(n, np)
    if c == (0, 0, 0):
        raise DegenerateInput(f"parallel normals {n}, {np}")
    if content(c) != 1:
        return None
    l0 = solve_dot_one(c)
    n0, n1, n2 = n
    m0, m1, m2 = np
    nn = n0 * n0 + n1 * n1 + n2 * n2
    nm = n0 * m0 + n1 * m1 + n2 * m2
    mm = m0 * m0 + m1 * m1 + m2 * m2
    p = n0 * l0[0] + n1 * l0[1] + n2 * l0[2]
    q = m0 * l0[0] + m1 * l0[1] + m2 * l0[2]
    gram = nn * mm - nm * nm  # = c . c
    a0 = _round_half_even(mm * p - nm * q, gram)
    b0 = _round_half_even(nn * q - nm * p, gram)
    x0 = l0[0] - a0 * n0 - b0 * m0
    x1 = l0[1] - a0 * n1 - b0 * m1
    x2 = l0[2] - a0 * n2 - b0 * m2
    xn = p - a0 * nn - b0 * nm  # = x . n
    xm = q - a0 * nm - b0 * mm  # = x . np
    xx = x0 * x0 + x1 * x1 + x2 * x2
    # |x - da n - db np|^2 = xx - 2 da xn + da^2 nn + db (db mm + 2 (da nm - xm))
    best, argbest = xx, [(0, 0)]
    for da in (-2, -1, 0, 1, 2):
        row = xx - da * (2 * xn - da * nn)
        lin = 2 * (da * nm - xm)
        for db in (-2, -1, 0, 1, 2):
            norm = row + db * (db * mm + lin)
            if norm <= best:
                if norm < best:
                    best, argbest = norm, [(da, db)]
                elif da or db:  # the centre is already in argbest
                    argbest.append((da, db))
    l = min(
        [(x0 - da * n0 - db * m0, x1 - da * n1 - db * m1, x2 - da * n2 - db * m2)
         for da, db in argbest]
    )
    assert det3(n, np, l) == 1
    return l


# ---------------------------------------------------------------------------
# 3x3 integer matrices (tuples of rows).
# ---------------------------------------------------------------------------

Mat3 = Tuple[Tuple[int, int, int], Tuple[int, int, int], Tuple[int, int, int]]


def mat_vec(a: Mat3, v: Vec3) -> Vec3:
    return tuple(sum(a[i][k] * v[k] for k in range(3)) for i in range(3))


# ---------------------------------------------------------------------------
# Primality (the Dirichlet-progression blow-down construction).
# ---------------------------------------------------------------------------

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Miller-Rabin on the twelve prime bases up to 37: deterministic below
    3.3e24, and a strong-probable-prime test above it, where blow-down plans
    feed it numbers of hundreds of bits.  `surgery._prime_construction`
    re-checks every candidate with `admissible`, so a pseudoprime can change
    which normal is found but never make it invalid."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True
