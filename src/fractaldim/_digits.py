"""Decimal strings for columns of big integers in linear time per value."""

from __future__ import annotations

from decimal import MAX_EMAX, MAX_PREC, MIN_EMIN, Context, Decimal, Inexact, Overflow, Rounded
from fractions import Fraction
from typing import Iterable, Iterator, Sequence

# Predecessors longer than this are tried as divisors.  With CPython 3.11 on
# an Intel Xeon server core, a multiple of a 2,000-bit value costs 3.5 us by
# divmod, multiply and print against 6.5 us by str(), and a failed divmod
# costs 0.8 us; at 1,000 bits the two paths cost the same.
DECIMAL_BASE_BITS = 2000

# a quotient at most this many bits long is multiplied in libmpdec
_QUOTIENT_BITS = 64

_EXACT = Context(prec=MAX_PREC, Emax=MAX_EMAX, Emin=MIN_EMIN, traps=[Inexact, Rounded, Overflow])


def decimal_column(values: Iterable[int]) -> Iterator[str]:
    """``str(v)`` for each int v of ``values``, formatted from the value before it.

    CPython's int-to-str conversion is quadratic in the number of digits, so
    a column of growing powers costs the square of its width per row.  Here a
    value equal to its predecessor p reuses p's string, and a value v = q*p
    with p positive and longer than ``DECIMAL_BASE_BITS`` and v at most 64
    bits longer than p is the Decimal of p times q: one libmpdec multiply
    and a digit copy, both linear.  The Decimal of p comes from p's string
    the first time and from the last product after that.  Every other value
    goes through str().

    Exactness: a Decimal read from an integer string, and the product of two
    integral Decimals, has exponent 0 and all of its digits; the context has
    the largest precision and exponent range libmpdec allows and traps
    Inexact, Rounded and Overflow, so a product that could not be held
    exactly would raise instead of being rounded.  str() of a Decimal with
    exponent 0 is its sign and plain digits, the same text as str() of the
    int; p > 0 keeps a zero product from printing as "-0".  The multiply
    path does not apply the interpreter's limit on int-to-str digits.
    """
    prev = prev_str = base = None
    for v in values:
        if v == prev:
            yield prev_str
            continue
        if (
            prev is not None
            and prev > 0
            and prev.bit_length() > DECIMAL_BASE_BITS
            and v.bit_length() - prev.bit_length() <= _QUOTIENT_BITS
        ):
            q, r = divmod(v, prev)
            if not r:
                base = _EXACT.multiply(Decimal(prev_str) if base is None else base, q)
                prev, prev_str = v, str(base)
                yield prev_str
                continue
        prev, prev_str, base = v, str(v), None
        yield prev_str


def fraction_column(values: Sequence[Fraction]) -> Iterator[str]:
    """The text p/q of each Fraction; numerators and denominators are two ``decimal_column``s."""
    nums = decimal_column(f.numerator for f in values)
    dens = decimal_column(f.denominator for f in values)
    return map("{}/{}".format, nums, dens)
