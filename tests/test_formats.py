"""Every artifact reader either returns a value or raises FormatError.

The five readers (vector, inequality, body, family, cover) share one
envelope in covercone.core.  Written files must read back equal; any other
JSON text, including a valid file with one value swapped for arbitrary
JSON, must parse or raise FormatError and nothing else.
"""

import json

import pytest
from hypothesis import given, strategies as st

from covercone.boxgeom import BoxUnionBody, read_body, write_body
from covercone.core import FormatError, ProjectionVector, read_vector, write_vector
from covercone.covers import UniformCover, cover_from_json, cover_to_obj
from covercone.farkas import LinearInequality, read_inequality, write_inequality
from covercone.witness import SetFamily, read_family, write_family

dims = st.integers(1, 4)
rationals = st.fractions(max_denominator=10**6)
nonneg = st.fractions(min_value=0, max_denominator=10**6)


def masks(n: int):
    return st.integers(1, (1 << n) - 1)


@st.composite
def vectors(draw):
    n = draw(dims)
    return ProjectionVector.from_entries(n, draw(st.dictionaries(masks(n), rationals)))


@st.composite
def inequality_sides(draw):
    n = draw(dims)
    side = st.dictionaries(masks(n), nonneg)
    return n, draw(side), draw(side)


def inequalities():
    return inequality_sides().map(lambda sides: LinearInequality.from_maps(*sides))


@st.composite
def bodies(draw):
    n = draw(dims)
    interval = st.tuples(rationals, rationals).map(lambda p: (min(p), max(p)))
    box = st.tuples(*[interval] * n)
    return BoxUnionBody(n, tuple(draw(st.lists(box, min_size=1, max_size=4))))


@st.composite
def families(draw):
    n = draw(dims)
    return SetFamily.from_members(n, draw(st.sets(st.integers(0, (1 << n) - 1))))


@st.composite
def covers(draw):
    """A union of k partitions of a ground set is a k-uniform cover."""
    ground = draw(masks(4))
    bits = [1 << e for e in range(4) if ground >> e & 1]
    parts = []
    for _ in range(draw(st.integers(1, 3))):
        blocks = {}
        for bit in bits:
            label = draw(st.integers(0, len(bits) - 1))
            blocks[label] = blocks.get(label, 0) | bit
        parts.extend(blocks.values())
    return UniformCover.from_parts(ground, parts)


FORMATS = {
    "vector": (vectors(), write_vector, read_vector),
    "inequality": (inequalities(), write_inequality, read_inequality),
    "body": (bodies(), write_body, read_body),
    "family": (families(), write_family, read_family),
    "cover": (covers(), lambda c: json.dumps(cover_to_obj(c)), cover_from_json),
}
READERS = {name: reader for name, (_, _, reader) in FORMATS.items()}

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=8), inner, max_size=4),
    max_leaves=12,
)


def parses_or_format_error(reader, text: str) -> None:
    try:
        reader(text)
    except FormatError:
        pass


def value_paths(obj, path=()):
    """The path to every value below the top-level object."""
    items = obj.items() if isinstance(obj, dict) else enumerate(obj) if isinstance(obj, list) else ()
    for key, value in items:
        yield path + (key,)
        yield from value_paths(value, path + (key,))


@pytest.mark.parametrize("name", FORMATS)
@given(data=st.data())
def test_round_trip(name, data):
    strategy, write, read = FORMATS[name]
    value = data.draw(strategy)
    assert read(write(value)) == value


@pytest.mark.parametrize("name", FORMATS)
@given(value=json_values)
def test_arbitrary_json(name, value):
    parses_or_format_error(READERS[name], json.dumps(value))


@pytest.mark.parametrize("name", FORMATS)
@given(data=st.data())
def test_one_value_replaced(name, data):
    strategy, write, read = FORMATS[name]
    obj = json.loads(write(data.draw(strategy)))
    *parents, last = data.draw(st.sampled_from(list(value_paths(obj))))
    target = obj
    for key in parents:
        target = target[key]
    target[last] = data.draw(json_values)
    parses_or_format_error(read, json.dumps(obj))


@given(sides=inequality_sides())
def test_inequality_coeffs_are_netted(sides):
    """coeffs is lhs - rhs, netted, nonzero and in ascending mask order, and
    the written file reads back to the same map in the same order."""
    n, lhs, rhs = sides
    ineq = LinearInequality.from_maps(n, lhs, rhs)
    net = ((m, lhs.get(m, 0) - rhs.get(m, 0)) for m in sorted(lhs.keys() | rhs.keys()))
    assert list(ineq.coeffs.items()) == [(m, c) for m, c in net if c != 0]
    again = read_inequality(write_inequality(ineq))
    assert list(again.coeffs.items()) == list(ineq.coeffs.items())


DEEP = "[" * 100000 + "]" * 100000
LONG = "5" * 5000

REJECTED = {
    "body-numeric-endpoint": ("body", '{"n": 1, "boxes": [{"intervals": [[0, 1]]}]}'),
    "cover-numeric-part": ("cover", '{"ground": "1,2", "k": 1, "parts": [1, 2]}'),
    "cover-numeric-ground": ("cover", '{"ground": 3, "k": 1, "parts": ["1", "2"]}'),
    "cover-k-true": ("cover", '{"ground": "1", "k": true, "parts": ["1"]}'),
    "vector-n-true": ("vector", '{"n": true, "entries": {"1": "1"}}'),
    "inequality-n-true": ("inequality", '{"n": true, "lhs": {"1": "1"}}'),
    "body-n-true": ("body", '{"n": true, "boxes": [{"intervals": [["0", "1"]]}]}'),
    "family-n-true": ("family", '{"n": true, "members": ["1"]}'),
    "family-blank-member": ("family", '{"n": 1, "members": ["   "]}'),
    "vector-aliased-keys": ("vector", '{"n": 1, "entries": {"1": "5", "01": "-3"}}'),
    "inequality-aliased-keys": ("inequality", '{"n": 1, "lhs": {"1": "5", "01": "3"}}'),
    "vector-long-rational": ("vector", '{"n": 1, "entries": {"1": "%s"}}' % LONG),
    "vector-long-n": ("vector", '{"n": %s}' % LONG),
    "vector-deep-nesting": ("vector", DEEP),
    "cover-deep-nesting": ("cover", DEEP),
    "vector-misspelled-entries": ("vector", '{"n": 2, "entires": {"1,2": "5"}}'),
    "inequality-misspelled-rhs": ("inequality", '{"n": 2, "lhs": {"1,2": "1"}, "rsh": {"1": "1"}}'),
    "body-box-extra-key": ("body", '{"n": 1, "boxes": [{"intervals": [["0", "1"]], "label": "a"}]}'),
    "body-extra-field": ("body", '{"n": 1, "boxes": [{"intervals": [["0", "1"]]}], "box": []}'),
    "family-extra-field": ("family", '{"n": 1, "members": ["1"], "memebrs": []}'),
    "cover-extra-field": ("cover", '{"ground": "1", "k": 1, "parts": ["1"], "weight": "2"}'),
}


@pytest.mark.parametrize("name, text", REJECTED.values(), ids=REJECTED)
def test_rejected_with_format_error(name, text):
    with pytest.raises(FormatError):
        READERS[name](text)

