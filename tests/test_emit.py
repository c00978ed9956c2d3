"""The CLI's JSON emitter prints exactly `json.dumps(value, indent=2)` and a
newline, in one write, for any value the json module can encode; and
`ratio_text`, the text of an isotropy generator's coordinate, is
`str(Fraction(a, n))`."""

import contextlib
import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from goodcones import cli
from goodcones.graph import ratio_text

# Text with non-ASCII characters (BMP and astral), control characters and
# the characters JSON escapes.
texts = st.text() | st.text(
    alphabet=st.characters(max_codepoint=0x1F)
    | st.sampled_from('"\\/\x7f\xe9中 \U0001f600')
)
floats = st.floats() | st.sampled_from([float("nan"), float("inf"), float("-inf"), -0.0])
big_ints = st.integers(min_value=2**64, max_value=2**300) | st.integers(
    max_value=-(2**64), min_value=-(2**300)
)
scalars = st.none() | st.booleans() | st.integers() | big_ints | floats | texts
# json.dumps accepts str, int, float, bool and None keys.
any_keys = texts | st.integers() | floats | st.booleans() | st.none()


def containers(inner):
    lists = st.lists(inner, max_size=4)
    return (
        lists
        | lists.map(tuple)
        | st.dictionaries(texts, inner, max_size=4)
        | st.dictionaries(any_keys, inner, max_size=4)
    )


values = st.recursive(scalars, containers, max_leaves=40)


class Recorder:
    def __init__(self):
        self.writes = []

    def write(self, text):
        self.writes.append(text)


def emitted(value) -> list:
    out = Recorder()
    with contextlib.redirect_stdout(out):
        cli._emit(value)
    return out.writes


@given(values)
@settings(max_examples=300)
def test_emit_matches_json_dumps_indent_2(value):
    assert emitted(value) == [json.dumps(value, indent=2) + "\n"]


@pytest.mark.parametrize(
    "value",
    [
        {},
        [],
        (),
        {"a": {}, "b": [], "c": [[], {}, [{}]]},
        {"w": [1.5, -0.0, float("nan"), float("inf"), float("-inf")]},
        {"x": {"y": {1: [{"z": 2.5}], None: {}, True: [1e300]}}},
        [2**70, -(2**70), True, False, None],
        "caf\xe9 中 \U0001f600 \x00\x1f\"\\",
    ],
)
def test_emit_edge_values(value):
    assert emitted(value) == [json.dumps(value, indent=2) + "\n"]


def test_emit_nests_as_deep_as_json_dumps():
    # One stack frame per level, as in the json module's encoder: a stored
    # catalog document nested this deep still prints.
    value = 0
    for depth in range(700):
        value = [value] if depth % 2 else {"k": value}
    assert emitted(value) == [json.dumps(value, indent=2) + "\n"]


def test_unencodable_value_raises_before_writing():
    out = Recorder()
    with contextlib.redirect_stdout(out), pytest.raises(TypeError):
        cli._emit({"ok": [1, 2], "bad": Fraction(1, 2)})
    assert out.writes == []


def test_ratio_text_is_fraction_text():
    for n in range(1, 301):
        for a in range(n):
            assert ratio_text(a, n) == str(Fraction(a, n)), (a, n)
