"""Subset masks, exact rationals, projection vectors, and their file format.

Subsets of the ground set [n] = {1, .., n} are plain ints: bit (i-1) is set
iff element i belongs to the subset.  All scalar arithmetic is exact, on
``fractions.Fraction``.  Logarithms and exponentials, when needed, are
evaluated with ``decimal`` at a fixed number of significant digits and
converted back to exact rationals, so no binary floating point enters any
computation.

This module also owns the envelope of every JSON artifact file: strict
JSON without duplicate keys, a top-level object with the format's fields
and no others, ``n`` a plain integer in 1..MAX_DIMENSION, and subsets and
rationals given as strings.  The readers of the other modules go through
``load_object``, ``read_subset_map``, ``parse_subset`` and ``parse_rational``.
"""

from __future__ import annotations

import json
import re
from decimal import Decimal, Overflow, Underflow, localcontext
from fractions import Fraction
from typing import Iterator, Mapping, NamedTuple

MAX_DIMENSION = 16

#: significant digits used whenever a log or exp has to be evaluated
LOG_DIGITS = 30


class FormatError(ValueError):
    """A JSON artifact file violates its declared format."""


# ---------------------------------------------------------------------------
# rationals

_INTEGER_RE = re.compile(r"[+-]?[0-9]+")
_RATIONAL_RE = re.compile(_INTEGER_RE.pattern + r"(/[0-9]+)?")


def parse_rational(text: str) -> Fraction:
    """Parse "p/q" or an integer string in ASCII digits; decimal floats,
    whitespace and non-strings are rejected."""
    if not isinstance(text, str):
        raise FormatError(f"a rational must be a string, not {type(text).__name__}")
    if not _RATIONAL_RE.fullmatch(text):
        raise FormatError(f"malformed rational {text!r} (expected 'p/q' or integer)")
    num, _, den = text.partition("/")
    try:
        num, den = int(num), int(den or 1)
    except ValueError:  # beyond the interpreter's limit on integer digits
        raise FormatError(f"rational of {len(text)} characters is too long") from None
    if den == 0:
        raise FormatError(f"zero denominator in {text!r}")
    return Fraction(num, den)


def parse_integer(text: str) -> int:
    """An integer as parse_rational reads one: an optional sign, then ASCII digits."""
    if not _INTEGER_RE.fullmatch(text):
        raise FormatError(f"malformed integer {text!r}")
    return int(text)


def format_rational(q: Fraction) -> str:
    """q as "p/q" or an integer; RuntimeError when a term is past the interpreter's
    limit on integer digits, which parse_rational could not read back."""
    try:
        return str(q)
    except ValueError:
        bits = max(q.numerator.bit_length(), q.denominator.bit_length())
        raise RuntimeError(f"cannot write a rational with a {bits}-bit term: "
                           "past the interpreter's limit on integer digits") from None


# ---------------------------------------------------------------------------
# high-precision log/exp on exact rationals

def log_fraction(q: Fraction) -> Fraction:
    """Natural log of a positive rational, rounded to LOG_DIGITS significant
    digits and returned as the exact rational value of that decimal."""
    if q <= 0:
        raise ValueError(f"log of non-positive value {q}")
    with localcontext() as ctx:
        ctx.prec = LOG_DIGITS
        d = (Decimal(q.numerator) / Decimal(q.denominator)).ln()
    return Fraction(d)


def exp_fraction(q: Fraction) -> Fraction:
    """exp(q) rounded to LOG_DIGITS significant digits, as an exact rational;
    RuntimeError if it overflows or underflows the decimal exponent range."""
    with localcontext() as ctx:
        ctx.prec = LOG_DIGITS
        ctx.traps[Underflow] = True
        try:
            d = (Decimal(q.numerator) / Decimal(q.denominator)).exp()
        except (Overflow, Underflow):
            raise RuntimeError(f"exp({q}) leaves the decimal exponent range") from None
    return Fraction(d)


# ---------------------------------------------------------------------------
# subset masks

def check_dimension(n: int) -> None:
    if not 1 <= n <= MAX_DIMENSION:
        raise ValueError(f"dimension {n} out of range 1..{MAX_DIMENSION}")


def elements(mask: int) -> list[int]:
    """The 1-based elements of a subset mask, ascending."""
    out = []
    i = 1
    while mask:
        if mask & 1:
            out.append(i)
        mask >>= 1
        i += 1
    return out


def format_subset(mask: int) -> str:
    return ",".join(str(i) for i in elements(mask))


_SUBSET_RE = re.compile(r"[1-9][0-9]*(,[1-9][0-9]*)*")


def parse_subset(text: str, n: int, allow_empty: bool = False) -> int:
    """Parse a subset as format_subset writes it into a mask: strictly
    ascending ASCII elements joined by "," with no whitespace; "" is the
    empty set where allow_empty is set."""
    if not isinstance(text, str):
        raise FormatError(f"a subset must be a string, not {type(text).__name__}")
    if text == "":
        if allow_empty:
            return 0
        raise FormatError("empty subset not allowed here")
    if not _SUBSET_RE.fullmatch(text):
        raise FormatError(f"malformed subset {text!r} (expected ascending elements like '1,2,4')")
    mask = 0
    prev = 0
    for token in text.split(","):
        # without leading zeros, more digits than n means larger than n
        if len(token) > len(str(n)) or int(token) > n:
            raise FormatError(f"element {token} exceeds dimension {n}")
        e = int(token)
        if e <= prev:
            raise FormatError(f"elements of {text!r} must be strictly ascending")
        mask |= 1 << (e - 1)
        prev = e
    return mask


def subsets_of(ground: int) -> Iterator[int]:
    """All nonempty submasks of `ground`."""
    sub = ground
    while sub:
        yield sub
        sub = (sub - 1) & ground


def canonical_subset_order(n: int) -> list[int]:
    """All 2^n - 1 nonempty masks sorted by (popcount, bits).

    This is a linear extension of the subset order in the sense needed
    downstream: a later set is never a proper subset of an earlier one.
    """
    check_dimension(n)
    return sorted(range(1, 1 << n), key=lambda m: (m.bit_count(), m))


# ---------------------------------------------------------------------------
# projection vectors

class ProjectionVector(NamedTuple):
    """Exact rational coordinates x_A indexed by the nonempty A subset [n].

    Complete: every nonempty mask is present in `entries`.  A plain record,
    checked only by from_entries, which read_vector calls."""

    n: int
    entries: Mapping[int, Fraction]

    @classmethod
    def zero(cls, n: int) -> "ProjectionVector":
        return cls.from_entries(n, {})

    @classmethod
    def from_entries(cls, n: int, entries: Mapping[int, Fraction]) -> "ProjectionVector":
        """Build a complete vector; absent masks default to 0.  ValueError for
        n or a mask out of range."""
        check_dimension(n)
        full = {m: Fraction(0) for m in range(1, 1 << n)}
        for mask, value in entries.items():
            if not 0 < mask < (1 << n):
                raise ValueError(f"mask {mask} out of range for n={n}")
            full[mask] = Fraction(value)
        return cls(n, full)

    def __getitem__(self, mask: int) -> Fraction:
        return self.entries[mask]


def _unique_keys(pairs) -> dict:
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise FormatError(f"duplicate key {key!r}")
        obj[key] = value
    return obj


def load_object(text: str, what: str, *fields: str) -> dict:
    """Parse an artifact file: a JSON object holding exactly the given `fields`.

    A field named with a trailing '?' may be left out; the key is the name
    without it.  Malformed, too deeply nested or duplicate-key JSON raises
    FormatError, and so do a missing required field, a field not listed and
    an 'n' field (when listed) that is not an int in 1..MAX_DIMENSION.
    """
    try:
        data = json.loads(text, object_pairs_hook=_unique_keys)
    except (ValueError, RecursionError) as exc:  # FormatError from the hook included
        raise FormatError(f"invalid JSON: {exc}") from None
    required = [field for field in fields if not field.endswith("?")]
    if not isinstance(data, dict) or not all(field in data for field in required):
        raise FormatError(f"{what} file must be an object with fields " + ", ".join(map(repr, required)))
    known = [field.rstrip("?") for field in fields]
    unknown = [key for key in data if key not in known]
    if unknown:
        raise FormatError(f"{what} file has unknown field {unknown[0]!r}; its fields are "
                          + ", ".join(map(repr, known)))
    if "n" in fields and (type(data["n"]) is not int or not 1 <= data["n"] <= MAX_DIMENSION):
        raise FormatError(f"'n' must be an integer in 1..{MAX_DIMENSION}")
    return data


def read_subset_map(raw, n: int, name: str) -> dict[int, Fraction]:
    """A {subset string: rational string} object as {mask: value}.

    Each subset has one spelling and load_object refuses a repeated key, so
    no subset can appear twice.
    """
    if not isinstance(raw, dict):
        raise FormatError(f"'{name}' must be an object")
    return {parse_subset(key, n): parse_rational(value) for key, value in raw.items()}


def read_vector(text: str) -> ProjectionVector:
    """Parse a vector file; missing subset keys default to 0."""
    data = load_object(text, "vector", "n", "entries?")
    return ProjectionVector.from_entries(
        data["n"], read_subset_map(data.get("entries", {}), data["n"], "entries")
    )


def vector_to_obj(v: ProjectionVector) -> dict:
    """The vector file's object: keys in canonical order, zero entries explicit."""
    entries = {
        format_subset(mask): format_rational(v[mask])
        for mask in canonical_subset_order(v.n)
    }
    return {"n": v.n, "entries": entries}


def write_vector(v: ProjectionVector) -> str:
    return json.dumps(vector_to_obj(v), indent=2)
