"""Grid-based box-counting estimators over abstract cell sources.

Conventions: cells are half-open axis-aligned boxes [i*beta**-m,
(i+1)*beta**-m) per coordinate, and the grid over the unit domain has
exactly beta**m cells per axis, so a full interval [0, 1] counts beta**m
cells (the point 1 is attributed to the last cell).  Scale ratios and cell
counts are kept exact; logarithms appear only in the final slope or
exponent arithmetic, and common integer powers are cancelled exactly first
so that aligned grids over a piece/scale rule return the rule's dimension
bit-for-bit.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from bisect import bisect_left
from functools import cached_property
from fractions import Fraction
from itertools import chain, islice, repeat
from operator import add, ge, gt, lt, mul, sub, truediv
from typing import Callable, Iterable, Iterator, Mapping, NamedTuple, Sequence

from ._digits import (_SERIES_DIGITS, ColumnReader, _power_exceeds, _series_budget_error,
                      _within_budget, decimal_column)
from .errors import BudgetExceededError, DegenerateGridError, InputError, check_tol

DIVERGES = "diverges"
VANISHES = "vanishes"
BOUNDED = "bounded"


class CellSource(ABC):
    """Counting interface: how many radix-``base`` level-m cells meet the set."""

    base: int
    ambient_dim: int

    @abstractmethod
    def level_counts(self, levels: Iterable[int]) -> Iterator[int]:
        """Exact numbers of cells meeting the set at the nondecreasing ``levels``, in turn."""

    def count(self, m: int) -> int:
        """Exact number of level-m cells meeting the set."""
        return next(self.level_counts((m,)))


def _powers(base: int, exponents: Iterable[int]) -> Iterator[int]:
    """base**e for each of the nondecreasing ``exponents``, grown from the power before."""
    power, last = 1, 0
    for e in exponents:
        if e < last:  # a negative power would be a float
            raise InputError(f"exponent {e} after {last}: levels must be nondecreasing from 0")
        power *= base ** (e - last)
        last = e
        yield power


class _CountSeries(NamedTuple):
    levels: tuple[int, ...]
    nums: tuple[int, ...]
    dens: tuple[int, ...]
    counts: tuple[int, ...]


class CountSeries(_CountSeries):
    """Levels m, scales delta = nums[i]/dens[i] in lowest terms with dens[i] > 0, and exact
    cover counts, in int columns; levels rise and scales fall strictly.  These four columns
    are all that the CSV holds, so a series equals its CSV read back."""

    _make = classmethod(lambda cls, fields: cls(*fields))  # so _replace checks too
    # no __slots__: the cached property is stored in the instance __dict__
    def __new__(cls, *args, **kw):
        self = super().__new__(cls, *args, **kw)
        levels, nums, dens, counts = self
        if not levels:
            raise InputError("count series must be nonempty")
        if not len(levels) == len(nums) == len(dens) == len(counts):
            raise InputError("count series columns must have the same length")
        if any(map(ge, levels, islice(levels, 1, None))):
            raise InputError("levels must be strictly increasing")
        if min(dens) < 1 or set(map(math.gcd, nums, dens)) != {1}:
            raise InputError("deltas must be fractions in lowest terms with positive denominators")
        # delta falls from p/q to p'/q' when p'*q < p*q'
        later_nums, later_dens = islice(nums, 1, None), islice(dens, 1, None)
        if any(map(ge, map(mul, later_nums, dens), map(mul, nums, later_dens))):
            raise InputError("deltas must be strictly decreasing")
        if nums[0] > dens[0]:  # the deltas fall, so the first is the largest
            raise InputError("deltas must be at most 1")
        if min(counts) < 0:
            raise InputError("cell counts must be >= 0")
        return self

    @cached_property
    def _tail_logs(self) -> tuple[list[float], list[float]]:
        """log(count) and log(delta) over the window ``classify_d`` reads, taken once."""
        tail = -_default_tail(len(self.levels))
        counts = self.counts[tail:]
        if min(counts) < 1:
            raise InputError("classification needs counts >= 1")
        log, nums, dens = math.log, self.nums[tail:], self.dens[tail:]
        log_deltas = list(map(sub, map(log, nums), map(log, dens)))
        if any(map(ge, islice(log_deltas, 1, None), log_deltas)):  # no d separates a tied step
            raise InputError("deltas must have strictly decreasing float logarithms")
        return list(map(log, counts)), log_deltas


class TwoGridResult(NamedTuple):
    h: Fraction
    k: Fraction
    n_h: int
    n_k: int
    d: float


class CriticalExponent(NamedTuple):
    """Root of the dot-count scaling test, with its final bisection bracket."""

    d: float
    lo: float
    hi: float
    degenerate: bool = False


class ClosureCheckReport(NamedTuple):
    equal: bool
    sample_cells: int
    reference_cells: int


# ---------------------------------------------------------------------------
# sources


class IntervalSource(CellSource):
    """A closed interval [a, b] inside [0, 1] with rational endpoints."""

    def __init__(self, a, b, base: int = 2):
        a, b = Fraction(a), Fraction(b)
        if not 0 <= a <= b <= 1:
            raise InputError("need 0 <= a <= b <= 1")
        if base < 2:
            raise InputError("base must be >= 2")
        self.a, self.b = a, b
        self.base = base
        self.ambient_dim = 1

    def level_counts(self, levels: Iterable[int]) -> Iterator[int]:
        for scale in _powers(self.base, levels):
            lo = min(math.floor(self.a * scale), scale - 1)
            hi = min(math.floor(self.b * scale), scale - 1)
            yield hi - lo + 1


class RuleSource(CellSource):
    """Arithmetic cell counts pieces**m at scale**-m for a piece/scale rule."""

    def __init__(self, rule):
        self.rule = rule
        self.base = rule.scale
        self.ambient_dim = rule.ambient_dim

    def level_counts(self, levels: Iterable[int]) -> Iterator[int]:
        yield from _powers(self.rule.pieces, levels)


class ExplicitSource(CellSource):
    """Counts read from a fixed mapping; handy for synthetic series."""

    def __init__(self, counts: Mapping[int, int], base: int = 2, ambient_dim: int = 1):
        self.counts = dict(counts)
        self.base = base
        self.ambient_dim = ambient_dim

    def level_counts(self, levels: Iterable[int]) -> Iterator[int]:
        for m in levels:
            try:
                yield self.counts[m]
            except KeyError:
                raise InputError(f"no count recorded for level {m}") from None


# ---------------------------------------------------------------------------
# series construction and slopes


def count_series(source: CellSource, levels: Sequence[int]) -> CountSeries:
    """Exact (delta, count) pairs for the given strictly increasing levels, each column budgeted."""
    if not levels:
        raise InputError("levels must be nonempty")
    if any(map(ge, levels, islice(levels, 1, None))):
        raise InputError("levels must be strictly increasing")
    if levels[0] < 0:
        raise InputError("levels must be >= 0")
    # deltas 1/beta**m first: their denominators grow at every level, so they bound the
    # levels counted; an int s is charged s.bit_length() + 1, as the Fraction 1/s would be
    # no delta is built from the first level whose power alone is surely past the budget on,
    # where charging would stop at the latest; powers of a base below 2 do not grow
    base = source.base
    top = bisect_left(levels, True, key=lambda m: base > 1 and _power_exceeds(base, m, _SERIES_DIGITS))
    dens = _within_budget(_powers(base, levels[:top]), levels, "deltas")
    if top < len(levels):
        raise _series_budget_error(f"deltas through m = {levels[top]}")
    counts = _within_budget(source.level_counts(levels), levels, "cell counts")
    nums = (1,) * len(dens)
    return CountSeries(tuple(levels), nums, tuple(dens), tuple(counts))


def slope_dim(series: CountSeries, tail: int) -> tuple[float, float]:
    """Min/max of log(count)/log(1/delta) over the last ``tail`` entries."""
    if tail < 2 or len(series.levels) < tail:
        raise InputError("need series length >= tail >= 2")
    window = zip(series.counts[-tail:], series.nums[-tail:], series.dens[-tail:])
    log = math.log
    try:
        slopes = [log(n) / (log(q) - log(p)) if n > 1 else 0.0 for n, p, q in window]
    except ZeroDivisionError:
        raise InputError("a row of over one cell needs log(1/delta) != 0 as a float") from None
    return (min(slopes), max(slopes))


# ---------------------------------------------------------------------------
# two-grid dimension


# cap on the common-root search: a root of a b-bit integer is charged b**2, its division cost
_ROOT_BUDGET = 2 * 10**12


def _iroot(n: int, k: int) -> int:
    """Floor of the integer k-th root of n >= 0, for k >= 1, by Newton steps on exact ints.

    The seed is the float root below 2**64, else the root of n's top bits found the same way.
    One step from any x > 0 lands at or above the floor root (AM-GM); steps then fall to it.
    """
    def root(n: int) -> int:
        e = math.log2(n) / k
        s = int(e) // 2 if e >= 64 else 0
        step = lambda x: ((k - 1) * x + n // x ** (k - 1)) // k
        x = step((root(n >> k * s) + 1) << s if s else int(2**e) + 1)
        while (y := step(x)) < x:
            x = y
        return x

    return n if n < 2 or k == 1 else root(n)


def _primes_below(n: int) -> list[int]:
    """Primes p < n, for n >= 2, by the sieve of Eratosthenes."""
    sieve = bytearray([1]) * n
    sieve[:2] = b"\0\0"
    for i in range(2, math.isqrt(n - 1) + 1):
        if sieve[i]:
            sieve[i * i :: i] = bytes(len(range(i * i, n, i)))
    return [i for i, flag in enumerate(sieve) if flag]


def _perfect_roots(xs: list[int], p: int, budget: int) -> tuple[list[int] | None, int]:
    """The p-th roots of xs if every one is a perfect p-th power, else None, and the budget
    left after charging each root taken."""
    roots = []
    for x in xs:
        if (budget := budget - x.bit_length() ** 2) < 0:
            raise BudgetExceededError(f"the common-root search passes {_ROOT_BUDGET} squared bits")
        r = _iroot(x, p)
        if r**p != x:
            return None, budget
        roots.append(r)
    return roots, budget


def _reduced_log_ratio(num: Fraction, den: Fraction) -> float:
    """log(num)/log(den) with common integer exponents cancelled exactly.

    The largest g for which every numerator and denominator above 1 is a
    perfect g-th power is the gcd of their maximal exponents; taking g-th
    roots first makes aligned grids return the rule's dimension bit-for-bit.
    A perfect (p*q)-th power is a perfect p-th power, so g is found prime
    by prime: take p-th roots of all the integers for as long as they are
    all perfect p-th powers, and multiply those p into g.  Sorted, the
    smallest integer bounds p and rejects most primes cheaply.
    """
    xs = sorted(x for f in (num, den) for x in (f.numerator, f.denominator) if x > 1)
    g, budget = 1, _ROOT_BUDGET
    for p in _primes_below(xs[0].bit_length()):
        while p < xs[0].bit_length():
            roots, budget = _perfect_roots(xs, p, budget)
            if roots is None:
                break
            xs, g = roots, g * p

    def root(f: Fraction) -> Fraction:
        return Fraction(_iroot(f.numerator, g), _iroot(f.denominator, g))

    return _log_fraction(root(num)) / _log_fraction(root(den))


def _log_count_ratio(a: int, b: int) -> float:
    """``_log_fraction(Fraction(b, a))``, without a gcd when a divides b."""
    q, r = divmod(b, a)
    return _log_fraction(Fraction(b, a)) if r else math.log(q)


def _log_fraction(f: Fraction) -> float:
    """log(f), safe for huge exact rationals."""
    return math.log(f.numerator) - math.log(f.denominator)


def two_grid_dim(n_h: int, n_k: int, h, k) -> TwoGridResult:
    """Dimension from cell counts at two scales: log(n_h/n_k) / log(k/h)."""
    h, k = Fraction(h), Fraction(k)
    if h == k:
        raise DegenerateGridError("two-grid comparison needs h != k")
    if not 0 < h < k < 1:
        raise InputError("need 0 < h < k < 1")
    if not n_h >= n_k >= 1:
        raise InputError("need n_h >= n_k >= 1")
    d = _reduced_log_ratio(Fraction(n_h, n_k), k / h)
    return TwoGridResult(h=h, k=k, n_h=n_h, n_k=n_k, d=d)


# ---------------------------------------------------------------------------
# dot-counting critical exponent


def _default_tail(n: int) -> int:
    return max(3, n - n // 3)


def classify_d(series: CountSeries, d: float) -> str:
    """Trend of count * delta**d over the series tail: diverges, vanishes, bounded.

    Early levels can carry transients (union counts, offsets) that mask the
    exponent, so the first third of the entries is dropped.  A
    per-step tolerance absorbs float rounding so that series sitting exactly
    at their critical exponent classify as bounded.
    """
    if len(series.levels) < 3:
        raise InputError("classification needs at least 3 entries")
    # g(m) = log(count) - d*log(1/delta): increasing means count*delta**d blows up
    log_counts, log_deltas = series._tail_logs
    g = list(map(add, log_counts, map(mul, repeat(d), log_deltas)))
    tol = 1e-12 * max(1.0, max(map(abs, g)))
    diffs = list(map(sub, islice(g, 1, None), g))
    if all(map(gt, diffs, repeat(tol))):
        return DIVERGES
    if all(map(lt, diffs, repeat(-tol))):
        return VANISHES
    return BOUNDED


def critical_d(
    series: CountSeries, tol: float, d_max: float | None = None
) -> CriticalExponent:
    """Bisect for the exponent separating divergence from vanishing.

    Only the tail window that ``classify_d`` reads is used.  Counts must
    grow strictly over it; otherwise the smallest slope over the window is
    returned with the ``degenerate`` flag set.  ``d`` is the first midpoint
    classified ``bounded``, if any; the bisection then goes on either side
    of it, so ``lo`` is the last point seen to diverge (or 0) and ``hi`` the
    first seen to vanish (or ``d_max``), each within ``tol`` (or one ulp) of
    the edge of the bounded band.  Without ``d_max`` the top is the largest
    step slope over the window plus 1, so a series and its CSV agree.

    Most steps are decided without ``classify_d``, from a certified bracket:
    at 0 <= d <= d_max below (above) every tail step's slope, less (plus) a
    margin of 16 * 2**-53 of max|log count| + d_max * max|log delta| and
    the tail tolerance, each computed step of log count - d * log(1/delta)
    rises (falls) by more than that tolerance, so ``classify_d`` would read
    diverges (vanishes).  A step inside the bracket calls ``classify_d``.
    So the steps and the result are the plain bisection's.
    """
    check_tol(tol)
    if d_max is not None and not math.isfinite(d_max):
        raise InputError(f"d_max must be finite, got {d_max}")
    if len(series.levels) < 3:
        raise InputError("critical exponent needs at least 3 entries")
    tail = _default_tail(len(series.levels))
    counts = series.counts[-tail:]
    if any(map(ge, counts, islice(counts, 1, None))):
        lower, _ = slope_dim(series, tail)
        return CriticalExponent(d=lower, lo=lower, hi=lower, degenerate=True)
    if d_max is None:  # the largest step slope over the window, plus 1
        _, log_deltas = series._tail_logs
        steps = zip(counts, counts[1:], log_deltas, log_deltas[1:])
        d_max = max(_log_count_ratio(a, b) / (x - y) for a, b, x, y in steps) + 1.0
    lo, hi = 0.0, float(d_max)
    if not math.isfinite(hi * max(map(abs, series._tail_logs[1]))):
        raise InputError(f"d_max={d_max} overflows d*log(delta) on this series")
    classify = _certified_classify(series, hi)
    if classify(hi) == DIVERGES:
        raise InputError(f"series still diverges at d_max={d_max}")
    width = math.inf
    while tol < hi - lo < width:  # a bracket one ulp wide stops shrinking
        width = hi - lo
        mid = 0.5 * (lo + hi)
        verdict = classify(mid)
        if verdict == DIVERGES:
            lo = mid
        elif verdict == VANISHES:
            hi = mid
        else:
            lo = _band_edge(classify, lo, mid, DIVERGES, tol)
            hi = _band_edge(classify, hi, mid, VANISHES, tol)
            return CriticalExponent(d=mid, lo=lo, hi=hi)
    return CriticalExponent(d=0.5 * (lo + hi), lo=lo, hi=hi)


def _certified_classify(series: CountSeries, top: float) -> Callable[[float], str]:
    """``classify_d`` on ``series``, decided without it for 0 <= d <= top outside a bracket."""
    # lc, ld: the tail logs; A_i = lc[i+1] - lc[i], B_i = ld[i] - ld[i+1] > 0; u = 2**-53.
    # For 0 <= d <= top, S = max|lc| + top * max|ld| >= |lc_i| + d * |ld_i|, so classify_d's g_i
    # errs by < 2.0001 u S, its diffs_i by < 6.01 u S from A_i - d * B_i, and its tol is at most
    # 1e-12 * max(1, S) * (1 + 3u).  A_i, B_i in floats cost 2 u S more: with m = 16 u S + that
    # bound, diffs exceed tol below min (A_i - m) / B_i and are below -tol above max (A_i + m) /
    # B_i.  Both quotients round by about 2u, so each is widened by 1e-12 relative.
    d_a, d_b = 0.0, top  # nothing is certified when top <= 0
    if top > 0.0:
        lc, ld = series._tail_logs
        scale = max(map(abs, lc)) + top * max(map(abs, ld))
        margin = 1e-12 * max(1.0, scale) * (1.0 + 1e-9) + 16 * 2.0**-53 * scale
        rises, drops = list(map(sub, islice(lc, 1, None), lc)), list(map(sub, ld, islice(ld, 1, None)))
        d_a = min(map(truediv, map(sub, rises, repeat(margin)), drops))
        d_b = max(map(truediv, map(add, rises, repeat(margin)), drops))
        d_a, d_b = d_a - 1e-12 * abs(d_a), d_b + 1e-12 * abs(d_b)
    def classify(d: float) -> str:
        if 0.0 <= d <= top and not d_a <= d <= d_b:
            return DIVERGES if d < d_a else VANISHES
        return classify_d(series, d)
    return classify


def _band_edge(classify: Callable, outer: float, inner: float, verdict: str, tol: float) -> float:
    """Bisect from ``outer`` toward ``inner``, not classified ``verdict``, to the last point that is."""
    width = math.inf
    while tol < abs(inner - outer) < width:  # a bracket one ulp wide stops shrinking
        width = abs(inner - outer)
        mid = 0.5 * (outer + inner)
        if classify(mid) == verdict:
            outer = mid
        else:
            inner = mid
    return outer


# ---------------------------------------------------------------------------
# closure / dense-sample counting


def occupied_cells(points: Iterable, base: int, m: int, ambient_dim: int = 1) -> set:
    """Distinct level-m cell indices hit by the points.

    Points are scalars (ambient 1) or coordinate tuples; exact rationals are
    preferred since floats inherit their rounding at cell boundaries.  The
    point 1 is attributed to the last cell of the unit grid.
    """
    scale = base**m
    cells = set()
    for p in points:
        coords = p if isinstance(p, (tuple, list)) else (p,)
        if len(coords) != ambient_dim:
            raise InputError(f"point {p!r} has wrong arity for ambient {ambient_dim}")
        idx = []
        for x in coords:
            i = math.floor(Fraction(x) * scale)
            idx.append(min(max(i, 0), scale - 1))
        cells.add(tuple(idx))
    return cells


def closure_count_check(
    dense_sample: Iterable, reference: CellSource, m: int
) -> ClosureCheckReport:
    """Compare the cell count of a point sample against a reference source."""
    sample_cells = len(occupied_cells(dense_sample, reference.base, m, reference.ambient_dim))
    ref_count = reference.count(m)
    return ClosureCheckReport(
        equal=sample_cells == ref_count, sample_cells=sample_cells, reference_cells=ref_count
    )


# ---------------------------------------------------------------------------
# wire formats


def count_series_to_csv(series: CountSeries) -> Iterator[str]:
    """The CSV lines (m, delta, n_cells) of ``series``, formatted one at a time."""
    yield "m,delta,n_cells"
    yield from map("{},{}/{},{}".format, series.levels, decimal_column(series.nums),
                   decimal_column(series.dens), decimal_column(series.counts))


def count_series_from_csv(text: str | Iterable[str]) -> CountSeries:
    """The series in a CSV ``text``, or in an iterable of its lines such as a text file.

    Lines are cut by ``str.splitlines``, one at a time for an iterable, so a
    file read with universal newlines gives the rows its whole text would.
    """
    if isinstance(text, str):
        text = (text,)
    lines = filter(None, map(str.strip, chain.from_iterable(map(str.splitlines, text))))
    if next(lines, None) != "m,delta,n_cells":
        raise InputError("count series CSV must start with header m,delta,n_cells")
    # denominators and counts are read from the row above: see ColumnReader
    read_den, read_count = ColumnReader(), ColumnReader()
    levels, nums, dens, counts = [], [], [], []
    for ln in lines:
        try:
            m, delta, n = ln.split(",")
            p, _, q = delta.partition("/")
            m, p, q, n = int(m), int(p), read_den(q or "1"), read_count(n)
            if not q:
                raise ValueError("zero denominator")
        except ValueError:
            raise InputError(f"bad count series row: {ln!r}") from None
        # lowest terms with q > 0, as a Fraction holds them
        g = math.gcd(p, q) if q > 0 else -math.gcd(p, q)
        if g != 1:
            p, q = p // g, q // g
        if p <= 0:
            raise InputError(f"delta must be positive in row {ln!r}")
        levels.append(m), nums.append(p), dens.append(q), counts.append(n)
    return CountSeries(*map(tuple, (levels, nums, dens, counts)))
