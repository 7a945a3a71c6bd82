"""Big-integer columns formatted from their predecessors must print as str() does."""

from fractions import Fraction

from hypothesis import given, settings, strategies as st

from fractaldim._digits import DECIMAL_BASE_BITS, decimal_column, fraction_column

T = DECIMAL_BASE_BITS

# fresh values: small, zero, negative, and on both sides of the size threshold
FRESH = st.one_of(
    st.integers(-1000, 1000),
    st.integers(T - 64, T + 200).flatmap(lambda b: st.integers(2 ** (b - 1), 2**b - 1)),
    st.integers(T - 64, T + 200).flatmap(lambda b: st.integers(-(2**b) + 1, -(2 ** (b - 1)))),
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
