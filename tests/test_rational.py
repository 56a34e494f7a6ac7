"""What the coercion of literals, ints and floats to exact rationals refuses."""

from __future__ import annotations

import pytest

from hypercurv import errors
from hypercurv.rational import as_alpha, as_fraction

GUARDS = {
    # "e" with no exponent after it is not a capped exponent; Fraction()
    # itself refuses the literal.
    "exponent-without-digits": (lambda: as_fraction("1e"), ValueError, "Invalid literal"),
    "exponent-past-the-cap": (lambda: as_fraction("1e1001"), ValueError, "decimal exponent"),
    "literal-past-the-cap": (lambda: as_fraction("1" * 1001), ValueError, "longer than 1000"),
    "bool": (lambda: as_fraction(True), TypeError, "bool is not a rational value"),
    "nan": (lambda: as_fraction(float("nan")), ValueError, "nan is not a finite number"),
    "none": (lambda: as_fraction(None), TypeError, "cannot interpret None"),
    "alpha-above-one": (lambda: as_alpha("3/2"), errors.AlphaOutOfRange, "got 3/2"),
}


@pytest.mark.parametrize("call, error, message", GUARDS.values(), ids=GUARDS)
def test_guards_a_library_caller_can_reach(call, error, message):
    with pytest.raises(error, match=message):
        call()

