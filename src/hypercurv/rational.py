"""Exact rational plumbing: coercion of ints, literals and floats to Fractions."""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import AlphaOutOfRange

# Floats are snapped to the closest rational with denominator below this
# cap, so 0.1 becomes 1/10 and every run is reproducible.
MAX_FLOAT_DENOMINATOR = 2**32

# Caps on a rational literal: its length in characters and the magnitude of
# a decimal exponent. Fraction() takes time superlinear in the exponent
# ("1e1000000" alone takes a third of a second), so longer literals and
# larger exponents are refused instead of parsed.
MAX_LITERAL_LENGTH = 1000
MAX_DECIMAL_EXPONENT = 1000


def as_fraction(value) -> Fraction:
    """Coerce ints, 'p/q' strings, floats, and Fractions to an exact Fraction.

    Malformed or over-cap literals and non-finite floats raise ValueError.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise TypeError("bool is not a rational value")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return _parse_literal(value.strip())
    if isinstance(value, float):
        if not math.isfinite(value):
            raise ValueError(f"{value!r} is not a finite number")
        return Fraction(value).limit_denominator(MAX_FLOAT_DENOMINATOR)
    raise TypeError(f"cannot interpret {value!r} as a rational number")


def _parse_literal(text: str) -> Fraction:
    if len(text) > MAX_LITERAL_LENGTH:
        raise ValueError(f"rational literal longer than {MAX_LITERAL_LENGTH} characters")
    _mantissa, marker, exponent = text.lower().partition("e")
    if marker:
        try:
            too_large = abs(int(exponent)) > MAX_DECIMAL_EXPONENT
        except ValueError:
            too_large = False  # not an exponent; Fraction() rejects the literal
        if too_large:
            raise ValueError(f"decimal exponent beyond +-{MAX_DECIMAL_EXPONENT} in {text!r}")
    return Fraction(text)


def as_alpha(value) -> Fraction:
    """Coerce and range-check a laziness parameter."""
    alpha = as_fraction(value)
    # 0 <= alpha <= 1, compared on ints: the denominator is positive.
    if not 0 <= alpha.numerator <= alpha.denominator:
        raise AlphaOutOfRange(f"alpha must be in [0, 1], got {alpha}")
    return alpha
