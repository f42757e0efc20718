import json
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from covercone.core import (
    FormatError,
    ProjectionVector,
    canonical_subset_order,
    elements,
    exp_fraction,
    format_rational,
    format_subset,
    log_fraction,
    parse_rational,
    parse_subset,
    read_vector,
    write_vector,
)

rationals = st.fractions(max_denominator=10**6)


def mask_of(*elems):
    m = 0
    for e in elems:
        m |= 1 << (e - 1)
    return m


class TestSubsets:
    def test_order_n1(self):
        assert canonical_subset_order(1) == [mask_of(1)]

    def test_order_n2(self):
        assert canonical_subset_order(2) == [mask_of(1), mask_of(2), mask_of(1, 2)]

    def test_order_n3(self):
        assert canonical_subset_order(3) == [
            mask_of(1), mask_of(2), mask_of(3),
            mask_of(1, 2), mask_of(1, 3), mask_of(2, 3),
            mask_of(1, 2, 3),
        ]

    @pytest.mark.parametrize("n", range(1, 7))
    def test_linear_extension(self, n):
        order = canonical_subset_order(n)
        assert len(order) == (1 << n) - 1
        assert len(set(order)) == len(order)
        for i, earlier in enumerate(order):
            for later in order[i + 1:]:
                # a later set is never a proper subset of an earlier one
                assert not (later != earlier and later & ~earlier == 0)

    @pytest.mark.parametrize("n", [0, 17, -3])
    def test_order_rejects_bad_dimension(self, n):
        with pytest.raises(ValueError):
            canonical_subset_order(n)

    def test_subset_round_trip(self):
        for text in ("1", "2,5", "1,2,3", "4,9,16"):
            assert format_subset(parse_subset(text, 16)) == text

    def test_parse_subset_errors(self):
        with pytest.raises(FormatError):
            parse_subset("", 4)
        with pytest.raises(FormatError):
            parse_subset("2,1", 4)  # not ascending
        with pytest.raises(FormatError):
            parse_subset("1,1", 4)  # duplicate
        with pytest.raises(FormatError):
            parse_subset("5", 4)  # element beyond n
        with pytest.raises(FormatError):
            parse_subset("1,x", 4)

    @pytest.mark.parametrize("text", ["1_0", " +2", "\u0661,\u0662", "01", "1, 2", " 1"])
    def test_parse_subset_rejects_unwritten_spellings(self, text):
        """Only the spelling format_subset writes is read."""
        with pytest.raises(FormatError):
            parse_subset(text, 16)

    def test_elements(self):
        assert elements(0b101101) == [1, 3, 4, 6]


class TestRationals:
    def test_parse(self):
        assert parse_rational("3/4") == Fraction(3, 4)
        assert parse_rational("-2") == Fraction(-2)
        assert parse_rational("0") == 0
        assert parse_rational("6/4") == Fraction(3, 2)

    @pytest.mark.parametrize("bad", ["1.5", "1e3", "", "1/0", "one", "3 / 4", "0x2",
                                     "\u0663/\u0664", " 3/4", "3/4\n"])
    def test_parse_rejects(self, bad):
        with pytest.raises(FormatError):
            parse_rational(bad)

    @given(rationals)
    def test_format_round_trip(self, q):
        assert parse_rational(format_rational(q)) == q

    @given(rationals, rationals)
    def test_arithmetic_exact(self, a, b):
        assert (a + b) - b == a
        if b != 0:
            assert (a * b) / b == a


class TestLogExp:
    def test_exp_zero_is_one(self):
        assert exp_fraction(Fraction(0)) == 1

    @pytest.mark.parametrize("x", [Fraction(1), Fraction(-3, 7), Fraction(40), Fraction(1, 1000)])
    def test_log_exp_round_trip(self, x):
        assert abs(log_fraction(exp_fraction(x)) - x) < Fraction(1, 10**24)

    @pytest.mark.parametrize("x", [Fraction(10**7), Fraction(-10**7)], ids=["overflow", "underflow"])
    def test_exp_out_of_range_raises(self, x):
        with pytest.raises(RuntimeError, match="exponent range"):
            exp_fraction(x)

    def test_log_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            log_fraction(Fraction(0))
        with pytest.raises(ValueError):
            log_fraction(Fraction(-1))


class TestVectorFiles:
    def test_read_basic(self):
        v = read_vector('{"n":2, "entries":{"1":"1","2":"1","1,2":"1"}}')
        assert (v[0b01], v[0b10], v[0b11]) == (1, 1, 1)

    def test_read_defaults_to_zero(self):
        v = read_vector('{"n":2, "entries":{}}')
        assert v == ProjectionVector.zero(2)

    def test_read_witness_coordinates(self):
        text = json.dumps({
            "n": 4,
            "entries": {"2,4": "2", "1,3": "2", "1,2,3": "1", "2,3,4": "1",
                        "1": "1", "2": "1", "3": "1", "4": "1"},
        })
        v = read_vector(text)
        assert v[mask_of(2, 4)] == 2
        assert v[mask_of(1, 3)] == 2
        assert v[mask_of(1, 2, 3)] == 1
        assert v[mask_of(1, 2)] == 0

    def test_read_errors(self):
        with pytest.raises(FormatError):
            read_vector('{"n":2, "entries":{"3":"1"}}')  # element beyond n
        with pytest.raises(FormatError):
            read_vector('{"n":2, "entries":{"1":"0.5"}}')  # decimal float
        with pytest.raises(FormatError):
            read_vector('{"n":2, "entries":{"1":"1","1":"2"}}')  # duplicate key
        with pytest.raises((FormatError, ValueError)):
            read_vector('{"n":0, "entries":{}}')
        with pytest.raises((FormatError, ValueError)):
            read_vector('{"n":17, "entries":{}}')
        with pytest.raises(FormatError):
            read_vector("not json")

    def test_constructor_checks(self):
        """from_entries is the vector's one check; read_vector calls it."""
        with pytest.raises(ValueError, match="mask 4 out of range for n=2"):
            ProjectionVector.from_entries(2, {1: Fraction(0), 2: Fraction(0), 4: Fraction(0)})

    def test_write_zero_n1(self):
        assert json.loads(write_vector(ProjectionVector.zero(1))) == {
            "n": 1,
            "entries": {"1": "0"},
        }

    def test_write_emits_canonical_order_and_zeros(self):
        v = ProjectionVector.from_entries(2, {0b11: Fraction(5)})
        data = json.loads(write_vector(v))
        assert list(data["entries"]) == ["1", "2", "1,2"]
        assert data["entries"] == {"1": "0", "2": "0", "1,2": "5"}

    def test_write_witness_key(self):
        v = ProjectionVector.from_entries(4, {mask_of(2, 4): Fraction(2)})
        assert json.loads(write_vector(v))["entries"]["2,4"] == "2"

    @given(st.integers(1, 4), st.data())
    def test_round_trip(self, n, data):
        entries = {
            m: data.draw(rationals)
            for m in range(1, 1 << n)
            if data.draw(st.booleans())
        }
        v = ProjectionVector.from_entries(n, entries)
        assert read_vector(write_vector(v)) == v
