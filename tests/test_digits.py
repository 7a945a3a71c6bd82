"""Big-integer columns formatted from their predecessors must print as str() does,
and read back from their predecessors as int() reads them."""

import sys
from contextlib import contextmanager
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from fractaldim._digits import (
    _READ_BASE_BITS,
    DECIMAL_BASE_BITS,
    ColumnReader,
    decimal_column,
    fraction_column,
)

T, R = DECIMAL_BASE_BITS, _READ_BASE_BITS
# bit lengths on both sides of the formatting and the reading thresholds
BITS = st.one_of(st.integers(T - 64, T + 200), st.integers(R - 64, R + 200))

# fresh values: small, zero, negative, and on both sides of the size thresholds
FRESH = st.one_of(
    st.integers(-1000, 1000),
    BITS.flatmap(lambda b: st.integers(2 ** (b - 1), 2**b - 1)),
    BITS.flatmap(lambda b: st.integers(-(2**b) + 1, -(2 ** (b - 1)))),
)
STEPS = st.one_of(
    st.just(("same", 0)),
    st.tuples(st.just("times"), st.integers(-3, 12)),  # small quotients: 0, -1, 1, 10, ...
    st.tuples(st.just("times"), st.integers(-(2**64), 2**64)),  # quotient below 2**64
    st.tuples(st.just("times"), st.integers(2**64, 2**90)),  # quotient above 2**64
    st.tuples(st.just("plus"), st.integers(1, 2**70)),  # almost never a multiple
    st.tuples(st.just("new"), FRESH),
)


def _column(start, steps):
    xs = [start]
    for op, arg in steps:
        x = xs[-1]
        xs.append({"same": x, "times": x * arg, "plus": x + arg, "new": arg}[op])
    return xs


@settings(max_examples=400, derandomize=True, deadline=None)
@given(start=FRESH, steps=st.lists(STEPS, max_size=30))
def test_decimal_column_equals_str(start, steps):
    xs = _column(start, steps)
    assert list(decimal_column(xs)) == [str(x) for x in xs]


def test_growing_powers_past_the_threshold():
    xs = [7**k for k in range(2000)] + [0, 0, 5, -(7**1000), 0]
    assert list(decimal_column(xs)) == [str(x) for x in xs]


def test_fraction_column():
    fs = [Fraction(8**m, 27**m) for m in range(600)] + [Fraction(0), Fraction(-3, 2 ** 3000)]
    assert list(fraction_column(fs)) == [f"{f.numerator}/{f.denominator}" for f in fs]


# texts int() may or may not read: each edit replaces one row's text
EDITS = st.sampled_from(
    [
        lambda t: "0" + t,  # leading zero
        lambda t: "00" + t[-2:],
        lambda t: "+" + t,
        lambda t: t[:1] + "_" + t[1:],
        lambda t: t + "_",
        lambda t: " " + t + "\n",
        lambda t: "",
        lambda t: t.replace("3", "\u0663"),  # ARABIC-INDIC DIGIT THREE, which int() reads
        lambda t: t.replace("2", "\u00b2"),  # SUPERSCRIPT TWO, which it does not
        lambda t: t[: len(t) // 2] + "9" + t[len(t) // 2 + 1 :],  # a middle digit
        lambda t: t[:-1],
        lambda t: t[:-1] + "x",
        lambda t: t + "0",
    ]
)
HAS_DIGIT_LIMIT = hasattr(sys, "set_int_max_str_digits")
# int-to-str digit limits: none, the smallest allowed, ones between the
# lengths of values near each size threshold, and the interpreter's default
LIMITS = st.sampled_from([0, 640, 700, 800, 4300])


@contextmanager
def _int_max_str_digits(limit):
    """The interpreter's int-to-str digit limit set to ``limit`` (0: none), where it has one."""
    if not HAS_DIGIT_LIMIT:
        yield
        return
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(limit)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(old)


def _outcome(read, text):
    try:
        return read(text)
    except Exception as exc:  # the type is compared, not the message
        return type(exc)


@settings(max_examples=400, derandomize=True, deadline=None)
@given(
    start=FRESH,
    steps=st.lists(STEPS, max_size=30),
    edits=st.lists(st.tuples(st.integers(0, 30), EDITS), max_size=4),
    limit=LIMITS,
)
def test_column_reader_equals_int(start, steps, edits, limit):
    with _int_max_str_digits(0):
        texts = [str(x) for x in _column(start, steps)]
    for i, edit in edits:
        if i < len(texts):
            texts[i] = edit(texts[i])
    read = ColumnReader()
    with _int_max_str_digits(limit):
        assert [_outcome(read, t) for t in texts] == [_outcome(int, t) for t in texts]


def test_column_reader_on_growing_powers():
    with _int_max_str_digits(0):
        texts = [str(7**k) for k in range(2000)] + ["0", "0", str(-(7**1000)), str(7**1999)]
        # rows past the threshold whose first and last digits are those of a multiple
        for k in range(1000, 2000, 10):
            t = texts[k]
            texts[k] = t[:300] + str((int(t[300]) + 1) % 10) + t[301:]
        read = ColumnReader()
        assert [read(t) for t in texts] == [int(t) for t in texts]


@pytest.mark.skipif(not HAS_DIGIT_LIMIT, reason="no int-to-str digit limit")
def test_column_reader_past_the_digit_limit():
    with _int_max_str_digits(0):
        texts = [str(10**k) for k in range(700, 4400, 7)]
    read = ColumnReader()
    with _int_max_str_digits(4300):
        assert [_outcome(read, t) for t in texts] == [
            10**k if k < 4300 else ValueError for k in range(700, 4400, 7)
        ]


@pytest.mark.parametrize("q", [2, 8, 20, 3**20, 2**64 - 1])
def test_column_reader_on_chains_across_both_thresholds(q):
    # each row q times the one above, from 1,800 bits to past 2,900
    with _int_max_str_digits(0):
        values = [2**1799 + 12345]
        while values[-1].bit_length() <= 2900:
            values.append(values[-1] * q)
        assert values[0].bit_length() < T < R
        texts = [str(v) for v in values]
        read = ColumnReader()
        assert [read(t) for t in texts] == [int(t) for t in texts] == values


# quotients below 2**64, small and large, and one past it, which int() reads
QUOTIENTS = st.one_of(st.integers(2, 40), st.integers(41, 2**64 - 1), st.just(2**70))
# each edit changes one row's digit: k places from the end (k <= 18), or in the middle
DIGIT_EDITS = st.tuples(st.one_of(st.integers(1, 18), st.just(None)), st.integers(1, 9))


def _edit_digit(text, place, shift):
    i = len(text) // 2 if place is None else len(text) - place
    return text[:i] + str((int(text[i]) + shift) % 10) + text[i + 1 :]


@settings(max_examples=300, derandomize=True, deadline=None)
@given(
    bits=st.integers(R - 300, R + 100),
    seed=st.integers(0, 2**64),
    zeros=st.sampled_from([1, 10**20]),  # last digits that fit any quotient
    pattern=st.one_of(st.tuples(QUOTIENTS), st.tuples(QUOTIENTS, QUOTIENTS)),  # kept, alternating
    switch=st.tuples(st.integers(0, 25), QUOTIENTS),  # from this row on, one more quotient
    edits=st.lists(st.tuples(st.integers(0, 25), DIGIT_EDITS), max_size=3),
    limit=LIMITS,
)
def test_column_reader_keeps_the_quotient_above(bits, seed, pattern, switch, zeros, edits, limit):
    # columns that keep, alternate or switch quotients across the 2,600-bit threshold
    at, after = switch
    value = (2 ** (bits - 1) + seed % 2 ** (bits - 1)) * zeros
    with _int_max_str_digits(0):
        texts = [str(value)]
        for i in range(25):
            value *= after if i >= at else pattern[i % len(pattern)]
            texts.append(str(value))
        for i, (place, shift) in edits:
            texts[i] = _edit_digit(texts[i], place, shift)
    read = ColumnReader()
    with _int_max_str_digits(limit):
        assert [_outcome(read, t) for t in texts] == [_outcome(int, t) for t in texts]


def test_a_row_read_by_int_drops_the_kept_quotient():
    with _int_max_str_digits(0):
        values = [2**R * 8**k for k in range(1, 6)]
        texts = [str(v) for v in values]
        odd = str(values[-1] + 1)  # no multiple of the row above
        read = ColumnReader()
        assert [read(t) for t in texts] == values
        assert read._q == 8  # each row past the first was read by the quotient above
        assert read(odd) == values[-1] + 1
        assert read._q is None  # read by int(), so no quotient is kept
        after = (values[-1] + 1) * 8
        assert read(str(after)) == after and read._q == 8


def test_a_kept_quotient_whose_product_differs_gives_way_to_the_search():
    # every value ends in 900 zeros, so the last digits fit both quotients
    values = [10**900 * 2 ** (k - k // 2) * 5 ** (k // 2) for k in range(1, 40)]
    read = ColumnReader()
    for k, v in enumerate(values):
        assert read(str(v)) == v
        assert read._q == (None if k == 0 else 5 if k % 2 else 2)  # none read by int()
