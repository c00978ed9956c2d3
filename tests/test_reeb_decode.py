"""The Reeb entry decoder `serial.parse_frac` against the decoder it
replaced, which read every string with `Fraction(str)`: on the entry
grammar (an optional "-", ASCII digits, and an optional "/" and nonzero
digits) both give equal Reeb vectors, and the strings `Fraction` also
reads, which the grammar does not admit, are now rejected."""

import random
import sys
from fractions import Fraction

import pytest

from goodcones.exactnum import DegenerateInput
from goodcones.reeb import ReebVector
from goodcones.serial import DocumentError, parse_frac, reeb_from_json


def old_parse_frac(value) -> Fraction:
    """The decoder before the entry grammar was enforced."""
    if type(value) is int:
        return Fraction(value)
    if isinstance(value, str):
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError):
            pass
    raise DocumentError(f"expected integer or 'p/q' string, got {value!r}")


def random_digits(rnd):
    size = rnd.choice((1, 1, 2, 3, 8, 20, 120))
    leading = "0" * rnd.choice((0, 0, 0, 1, 3))
    return leading + "".join(rnd.choice("0123456789") for _ in range(size))


def random_entry(rnd):
    """A JSON integer or a string of the entry grammar."""
    if rnd.random() < 0.15:
        return rnd.choice((-1, 1)) * rnd.randrange(10 ** rnd.randrange(1, 40))
    text = rnd.choice(("", "-")) + random_digits(rnd)
    if rnd.random() < 0.5:
        den = random_digits(rnd)
        if int(den):
            text += "/" + den
    return text


def decoded(parse, p, q, d):
    """The ReebVector of the entries, or the type of the error it raises."""
    try:
        return ReebVector(tuple(parse(x) for x in p), tuple(parse(x) for x in q), d)
    except (DocumentError, DegenerateInput) as exc:
        return type(exc)


def test_decode_matches_the_fraction_parser_on_the_entry_grammar():
    rnd = random.Random(29)
    for _ in range(2000):
        p = [random_entry(rnd) for _ in range(3)]
        q = [random_entry(rnd) for _ in range(3)]
        d = rnd.choice((2, 3, 5, 7, 10**9 + 7))
        old = decoded(old_parse_frac, p, q, d)
        new = decoded(parse_frac, p, q, d)
        if isinstance(old, type):
            assert new is old and old is DegenerateInput, (p, q)
            continue
        assert reeb_from_json({"p": p, "q": q, "d": d}) == new
        assert new == old and repr(new) == repr(old), (p, q)
        assert (new.P, new.Q, new.den) == (old.P, old.Q, old.den), (p, q)
        assert all(type(x) is Fraction for x in new.p + new.q)


@pytest.mark.parametrize("text", ["1/0", "-1/0", "0/0", "7/000"])
def test_zero_denominator_is_rejected(text):
    with pytest.raises(DocumentError):
        parse_frac(text)
    with pytest.raises(DocumentError):
        old_parse_frac(text)


# Read by `Fraction(str)`, so accepted by the old decoder, but outside the
# entry grammar.
NEWLY_REJECTED = ["1e2", "0.5", " 1 ", "1_0", "+1", "١", "1/２", "1/2\n", "-1.", "1E-3"]


@pytest.mark.parametrize("text", NEWLY_REJECTED)
def test_strings_outside_the_grammar_are_rejected(text):
    old_parse_frac(text)
    with pytest.raises(DocumentError):
        parse_frac(text)


@pytest.mark.parametrize(
    "value", ["", "-", "/", "1/", "/2", "--1", "1/-2", "1/2/3", "0x10", 1.0, True, None, [1]]
)
def test_values_rejected_before_are_still_rejected(value):
    with pytest.raises(DocumentError):
        old_parse_frac(value)
    with pytest.raises(DocumentError):
        parse_frac(value)


@pytest.mark.skipif(
    not hasattr(sys, "get_int_max_str_digits"), reason="int has no digit limit"
)
def test_a_string_beyond_the_int_digit_limit_is_a_document_error():
    limit = sys.get_int_max_str_digits()
    if limit == 0:
        pytest.skip("the int digit limit is switched off")
    many = "1" * (limit + 1)
    for text in (many, "-" + many, many + "/3", "3/" + many):
        with pytest.raises(DocumentError):
            parse_frac(text)
    assert parse_frac("9" * limit) == int("9" * limit)
