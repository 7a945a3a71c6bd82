"""Decimal strings for columns of big integers and back, and tests of their digit counts."""

from __future__ import annotations

import math
import sys
from decimal import MAX_EMAX, MAX_PREC, MIN_EMIN, Context, Decimal, Inexact, Overflow, Rounded
from fractions import Fraction
from typing import Iterable, Iterator, Sequence

from .errors import BudgetExceededError

# Predecessors longer than this are tried as divisors.  With CPython 3.11 on
# an Intel Xeon server core, a multiple of a 2,000-bit value costs 3.5 us by
# divmod, multiply and print against 6.5 us by str(), and a failed divmod
# costs 0.8 us; at 1,000 bits the two paths cost the same.
DECIMAL_BASE_BITS = 2000
# ColumnReader tries the value above as a divisor when it is longer than this.
# Per row of a column of multiples, on CPython 3.11.7 and an Intel Xeon server
# core (timeit, best of 25), read by the quotient kept from the row above, by
# the leading-digit search for it, and by int():
# q = 8: 2.8, 3.7, 2.7 us at 2,000 bits; 3.1, 3.9, 4.0 at 2,600; 3.7, 4.5, 6.1 at 3,200;
# q = 3**20: 3.0, 3.8, 2.6 us at 2,000 bits; 3.2, 4.1, 4.2 at 2,600; 3.8, 4.8, 6.3 at 3,200.
# The first row past this length, and every row whose quotient changes, pays the
# search, which breaks even with int() here.
_READ_BASE_BITS = 2600

# a quotient at most this many bits long is multiplied in libmpdec
_QUOTIENT_BITS = 64
# ... and adds at most this many digits, as 2**64 < 10**20
_QUOTIENT_DIGITS = 20
# leading digits of the row above that fix a quotient below 2**64 exactly, and
# trailing digits compared before the exact check
_LEAD_DIGITS = 24
_TAIL_DIGITS = 18
_TAIL_MOD = 10**_TAIL_DIGITS

# digits one list of exact values a command holds may have; fractal builds at
# most four such lists and counts two, so their values stay within about 10**8 digits
_SERIES_DIGITS = 25_000_000
_SERIES_BITS = math.ceil(_SERIES_DIGITS / math.log10(2))

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


class ColumnReader:
    """``int(t)`` for the text t of each row of a column, read from the row above.

    The reverse of ``decimal_column``, called once per row.  CPython's
    str-to-int conversion is quadratic in the number of digits.  Here a text
    equal to the one above returns the value above, and a text t of a
    multiple p*q of the value p above, with p positive and longer than
    ``_READ_BASE_BITS`` and q below 2**64, is read in linear time.  q is
    taken when t's last digits match those of p*q and the Decimal of p
    times q prints exactly as t.  The quotient the row above was read by,
    if any, is tried first; then the quotient of t's and p's leading
    digits, whose remainder must be below q.  That Decimal comes from p's
    text the first time, when that text is plain ASCII digits, and from the
    last product after that.  So a column of powers pays one multiply and
    one str() per row, and a column whose quotient changes pays the
    leading-digit search as well, and one more multiply where the values
    end in so many zeros that the last digits fit either quotient.
    Every other text, including one longer than the interpreter's
    int-to-str digit limit, goes through int(), so values and exceptions
    are int()'s; a row read by int() keeps no quotient for the next.

    Exactness: q only proposes a value.  A text accepted here is the str()
    of an integral Decimal computed exactly in ``_EXACT``, so it is the
    canonical decimal text of p*q, and int() of it would be p*q.
    """

    __slots__ = ("_value", "_text", "_base", "_q", "_tail")

    def __init__(self) -> None:
        self._value: int | None = None
        self._text: str | None = None
        self._base: Decimal | None = None
        self._q: int | None = None  # the quotient of the row above, if read by one
        self._tail = 0  # ... and the integer of its last _TAIL_DIGITS digits

    def __call__(self, text: str) -> int:
        p, above = self._value, self._text
        if text == above:
            return p
        if (
            p is not None
            and p > 0
            and p.bit_length() > _READ_BASE_BITS
            and len(above) <= len(text) <= len(above) + _QUOTIENT_DIGITS
            and not 0 < _int_max_str_digits() < len(text)
        ):
            q = self._quotient(above, text)
            if q is not None:
                v = p * q
                self._value, self._text = v, text
                return v
        v = int(text)
        self._value, self._text, self._base, self._q = v, text, None, None
        return v

    def _quotient(self, above: str, text: str) -> int | None:
        """q with ``text`` the decimal text of q times the value above, or None."""
        kept = self._q
        try:
            tail = int(text[-_TAIL_DIGITS:])
            above_tail = int(above[-_TAIL_DIGITS:]) if kept is None else self._tail
        except ValueError:  # texts int() may or may not read
            return None
        # last digits that are all zeros fit any quotient, so a kept one may still fail the proof
        if kept is None or (above_tail * kept - tail) % _TAIL_MOD or not self._proves(above, text, kept):
            # Cut the last s digits off p's text: p = P*10**s + x with x < 10**s.
            # If text is p*q, the same cut of it leaves q*P + q*x // 10**s, and
            # q*x // 10**s < q; as P >= 10**23 > 2**64 > q, divmod gives q.
            lead = len(text) - len(above) + _LEAD_DIGITS
            try:
                q, r = divmod(int(text[:lead]), int(above[:_LEAD_DIGITS]))
            except (ValueError, ZeroDivisionError):
                return None
            if (not r < q < 1 << _QUOTIENT_BITS or (above_tail * q - tail) % _TAIL_MOD
                    or not self._proves(above, text, q)):
                return None
            self._q = q
        self._tail = tail
        return self._q

    def _proves(self, above: str, text: str, q: int) -> bool:
        """Whether ``text`` is the str() of the exact Decimal of q times the value above."""
        base = self._base
        if base is None:
            # ASCII digits only (str.isdigit also takes other scripts' digits)
            if not (above.isascii() and above.encode().isdigit()):
                return False
            base = Decimal(above)
        base = _EXACT.multiply(base, q)
        if str(base) != text:
            return False
        self._base = base
        return True


# int()'s digit limit on a text, read per call as it can change; 0 (none) before Python 3.10.7
_int_max_str_digits = getattr(sys, "get_int_max_str_digits", lambda: 0)


_LOG10_2 = 0.30102999566398120


def _digits_exceed(value: int, cap: int) -> bool:
    """Whether the natural ``value`` has more than ``cap`` decimal digits."""
    bits = value.bit_length()
    # log10(2) bounds decide all but borderline cases without big-int work;
    # the exact fallback compares against 10**cap (digits > cap iff >= 10**cap)
    if (bits - 1) * _LOG10_2 > cap:
        return True
    if bits * _LOG10_2 + 1 < cap:
        return False
    return value >= 10**cap


def _power_exceeds(base: int, exponent: int, digits: int) -> bool:
    """Whether base**exponent, for base >= 2, surely has more than ``digits`` digits.

    base**exponent has about exponent*log10(base) digits.  The float
    log10(base) = num/den enters as its exact ratio, so a digit count of any
    size compares in integers: exponent > floor(digits / log10(base)) + 2.
    """
    num, den = math.log10(base).as_integer_ratio()
    return exponent > digits * den // num + 2


def _power_digits_exceed(base: int, exponent: int, digits: int) -> bool:
    """Whether base**exponent has more than ``digits`` digits; built only if not surely so."""
    if base < 2:  # 0 or 1, whatever the exponent
        return False
    return _power_exceeds(base, exponent, digits) or _digits_exceed(base**exponent, digits)


def _series_budget_error(what: str) -> BudgetExceededError:
    return BudgetExceededError(f"{what} pass the budget of {_SERIES_DIGITS} digits")


def _within_budget(values: Iterable[int | Fraction], levels: Iterable[int], name: str) -> list:
    """The values, one per level, in a list refused once it holds about ``_SERIES_DIGITS`` digits."""
    out, bits = [], 0
    for m, value in zip(levels, values):
        bits += value.numerator.bit_length() + value.denominator.bit_length()
        if bits > _SERIES_BITS:
            raise _series_budget_error(f"{name} through m = {m}")
        out.append(value)
    return out
