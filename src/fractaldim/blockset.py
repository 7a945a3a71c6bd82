"""Exact analysis of digit-block sets.

A digit-block set consists of the reals in [0, 1] whose base-``beta``
expansion alternates blocks of forced zeros (lengths from the ``zeros``
sequence) with blocks of free digits drawn from {0, .., sigma-1} (lengths
from ``frees``).  Level-m grid cells are half-open [i*beta**-m,
(i+1)*beta**-m); a cell meets the set exactly when its m-digit prefix
respects every forced zero, so cover counts are the exact integers
sigma**X(m) with X(m) the number of free positions among the first m digits.

Every walk draws from one pair of running sums of the block lengths: counts
and digit roles draw a block at a time, once per call, so a count series
over many levels costs one walk.  The cut report holds no table: its tail
values, its rows and its samples each walk the block pairs anew.

Dimensions are reported as exact rationals X/m whenever sigma == beta;
floats appear only at the reporting boundary.
"""

from __future__ import annotations

import math
import sys
from collections import deque
from fractions import Fraction
from itertools import accumulate, islice
from typing import Iterable, Iterator, NamedTuple

from . import seqgen
from ._digits import _SERIES_BITS, _int_max_str_digits, _power_digits_exceed, _series_budget_error
from .boxdim import CellSource, _powers
from .errors import (
    BudgetExceededError,
    HorizonExceededError,
    InputError,
    OutOfRangeError,
    check_object,
    check_tol,
)
from .seqgen import SequenceSpec

AFTER_ZEROS = "after_zeros"
AFTER_FREES = "after_frees"
FORCED_ZERO = "forced_zero"
FREE = "free"

DEFAULT_M_CAP = 10_000_000

# cap on the blocks one walk draws
_BLOCK_BUDGET = 10**6


class _BlockSchedule(NamedTuple):
    base: int
    alphabet: int
    zeros: SequenceSpec
    frees: SequenceSpec | None = None
    m_cap: int = DEFAULT_M_CAP


class BlockSchedule(_BlockSchedule):
    """Radix, alphabet and the two block-length sequences of a digit-block set."""

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # so _replace checks too

    def __new__(cls, *args, **kw):
        self = super().__new__(cls, *args, **kw)
        if self.base < 2:
            raise InputError("base must be >= 2")
        if not 2 <= self.alphabet <= self.base:
            raise InputError("alphabet must satisfy 2 <= alphabet <= base")
        if self.m_cap < 1:
            raise InputError("m_cap must be >= 1")
        if self.frees is None:
            base, alphabet, zeros, _, m_cap = self
            self = super().__new__(cls, base, alphabet, zeros, zeros, m_cap)
        return self

    @property
    def horizon(self) -> int:
        return min(self.zeros.horizon, self.frees.horizon)


class _DimReport(NamedTuple):
    schedule: BlockSchedule
    scale: float | None
    lower: object
    upper: object
    converged: bool
    spread: float
    n_used: int
    m_used: int


class DimReport(_DimReport):
    """Cut-family dimension samples and their tail values.

    The cuts are those of block pairs 0..n_used of ``schedule``: one after
    the pair's zero block and one after its free block.  ``scale`` is
    log(sigma)/log(beta), or None when alphabet == base and the values are
    exact Fractions X/m.  ``lower`` is the tail value along the after-zeros
    cuts, ``upper`` the tail along the after-frees cuts.  Coverings cut
    after a zero block are the efficient ones, so the lower family is what
    gets reported as the Hausdorff dimension.  ``converged`` holds when the
    last two samples of each family differ by less than the requested
    tolerance; ``spread`` is the larger of the two achieved gaps.  The
    per-family sample tuples (n, m, x_count, value) come from a new walk of
    the blocks on each access.  ``m_used`` is the position of the last cut,
    after pair n_used's free block.
    """

    __slots__ = ()

    def _samples(self, side: int) -> tuple[tuple[int, int, int, object], ...]:
        scale = self.scale
        return tuple(
            (n, cut[side], cut[side + 1], _dim_value(cut[side + 1], cut[side], scale))
            for n, cut in enumerate(_cuts(self.schedule, self.n_used))
        )

    lower_samples = property(lambda self: self._samples(0))
    upper_samples = property(lambda self: self._samples(2))


# ---------------------------------------------------------------------------
# block boundaries


def _sums(schedule: BlockSchedule) -> tuple[Iterator[int], Iterator[int]]:
    """Running sums of the zero-block and of the free-block lengths; past a horizon, they raise."""
    return (accumulate(seqgen._iter_terms(schedule.zeros)),
            accumulate(seqgen._iter_terms(schedule.frees)))


def _cuts(schedule: BlockSchedule, n: int) -> Iterator[tuple[int, int, int, int]]:
    """(m, X) after the zero block and after the free block of block pairs 0..n, from the zipped
    ``_sums``: a pair is yielded once both its blocks are drawn, so a walk error leaves every
    pair before it whole."""
    free = 0
    for zeros, frees in islice(zip(*_sums(schedule)), n + 1):
        yield zeros + free, free, zeros + frees, frees
        free = frees


def _check_block_count(blocks: int) -> None:
    """Refuse a walk of more than ``_BLOCK_BUDGET`` blocks."""
    if blocks > sys.maxsize:
        raise InputError(f"block count must be <= {sys.maxsize}")
    if blocks > _BLOCK_BUDGET:
        raise BudgetExceededError(
            f"block walk asks for {blocks} blocks, over the budget of {_BLOCK_BUDGET}"
        )


def _x_counts(schedule: BlockSchedule, levels: Iterable[int]) -> Iterator[int]:
    """X(m) for each of the nondecreasing ``levels``, from one forward walk of the blocks.

    Blocks are drawn from ``_sums`` one at a time, a zero block and then a free
    block, when a level lies past the z zero and f free digits drawn so far:
    after a zero block X(m) = f, and inside a free block X(m) = m - z.  The walk
    stops after 2 * horizon + 2 blocks, or at the first ``_BLOCK_BUDGET``.
    """
    zeros, frees = _sums(schedule)
    limit = min(_BLOCK_BUDGET, 2 * schedule.horizon + 2)
    blocks = z = f = last = 0  # blocks drawn: an odd count ends in a zero block
    for m in levels:
        _check_position(schedule, m, 0)
        if m < last:  # X(m) may equal the X before it, which _powers would pass
            raise InputError(f"level {m} after {last}: levels must be nondecreasing from 0")
        last = m
        while z + f < m:
            if blocks == limit:  # the budget's error if it stopped the walk, else the horizon's
                _check_block_count(blocks + 1)
                horizon = schedule.horizon
                raise HorizonExceededError(f"digit position walk ran past horizon {horizon}",
                                           index=horizon)
            blocks += 1
            if blocks % 2:
                z = next(zeros)
            else:
                f = next(frees)
        yield f if blocks % 2 else m - z


def _check_position(schedule: BlockSchedule, m: int, first: int) -> None:
    if m < first or m > schedule.m_cap:
        raise OutOfRangeError(f"digit position {m} outside [{first}, {schedule.m_cap}]")


def digit_role(schedule: BlockSchedule, m: int) -> str:
    """Role of 1-indexed digit position ``m``: forced zero or free."""
    _check_position(schedule, m, 1)
    before, upto = _x_counts(schedule, (m - 1, m))
    return FREE if upto > before else FORCED_ZERO


def x_count(schedule: BlockSchedule, m: int) -> int:
    """Number of free digit positions among the first ``m``."""
    return next(_x_counts(schedule, (m,)))


# ---------------------------------------------------------------------------
# counting and dimension


def cover_count(schedule: BlockSchedule, m: int) -> int:
    """Number of level-m cells meeting the set: sigma**X(m); X(0) = 0 gives 1."""
    return schedule.alphabet ** x_count(schedule, m)


def _scale(schedule: BlockSchedule) -> float | None:
    """log(sigma)/log(beta), or None when sigma == beta and X/m stays exact."""
    if schedule.alphabet == schedule.base:
        return None
    return math.log(schedule.alphabet) / math.log(schedule.base)


def _dim_value(x: int, m: int, scale: float | None):
    """X/m, times ``scale`` = log(sigma)/log(beta) unless None: then an exact Fraction."""
    # int / int is correctly rounded, as float(Fraction(x, m)) is
    return Fraction(x, m) if scale is None else x / m * scale


def dim_bounds(schedule: BlockSchedule, n_max: int, tol: float = 1e-6) -> DimReport:
    """Lower/upper dimension from the two cut families through block pair n_max.

    The tail value is the last computed sample; no extrapolation is applied.
    If the horizon or digit cap runs out first, the report uses whatever
    pairs exist and ``converged`` is False.  Only the walk is budgeted here:
    dim_report_csv charges the digits its rows would print.
    """
    check_tol(tol)
    if n_max < 2:
        raise InputError("dim_bounds needs n_max >= 2")
    n = min(n_max, schedule.horizon)
    _check_block_count(2 * n + 2)
    last = deque(maxlen=2)  # (n, cuts) of the last two block pairs walked
    try:
        last.extend(enumerate(_cuts(schedule, n)))
    except HorizonExceededError:
        if not last:  # not one block pair before the digit cap
            raise
    n, (m_lo, x_lo, m_hi, x_hi) = last[-1]
    scale = _scale(schedule)
    factor, spread = 1.0 if scale is None else scale, math.inf
    if n:  # the larger gap between the last two samples of a family, X/m unreduced
        (_, a), (_, b) = last
        spread = max(abs(b[i + 1] / b[i] * factor - a[i + 1] / a[i] * factor) for i in (0, 2))
    return DimReport(
        schedule=schedule,
        scale=scale,
        lower=_dim_value(x_lo, m_lo, scale),
        upper=_dim_value(x_hi, m_hi, scale),
        converged=n == n_max and spread < tol,
        spread=spread,
        n_used=n,
        m_used=m_hi,
    )


def hausdorff_dim(schedule: BlockSchedule, n_max: int):
    """Tail value along the after-zeros cuts, reported as the Hausdorff dimension.

    The after-zeros scales are where the efficient covers of a digit-block
    set live; both cut families remain available through dim_bounds.  It
    prints no rows, so only the block walk's budget applies.
    """
    return dim_bounds(schedule, n_max).lower


# ---------------------------------------------------------------------------
# cells


class BlockCellSource(CellSource):
    """Level-m cell counting adapter; each call walks the blocks forward once."""

    def __init__(self, schedule: BlockSchedule):
        self.schedule = schedule
        self.base = schedule.base
        self.ambient_dim = 1

    def level_counts(self, levels: Iterable[int]) -> Iterator[int]:
        # X never decreases, so a later level's count is a multiple of an earlier one's
        yield from _powers(self.schedule.alphabet, _x_counts(self.schedule, levels))


# ---------------------------------------------------------------------------
# wire formats


def dim_report_csv(report: DimReport, precision: int = 12) -> Iterator[str]:
    """CSV lines (kind, n, m, x_count, local_dim) with exact-rational values, one at a time.

    The rows come from a new walk of the report's block pairs, two per pair,
    ordered by position m, each one ``%`` of its kind's template.  Rows that
    would print more than the series digit budget are refused before any.
    """
    scale, last, gcd = report.scale, report.n_used, math.gcd
    # m and X never fall along the walk, so the last cut's m bounds every row's numbers
    if (2 * last + 2) * report.m_used.bit_length() > _SERIES_BITS:
        raise _series_budget_error(f"cut rows through block pair {last}")
    yield "kind,n,m,x_count,local_dim,local_dim_decimal"
    exact = "%d/%d" if scale is None else "%r"  # X/m reduced, or the scaled float's repr
    lo_row, hi_row = (f"{kind},%d,%d,%d,{exact},%.{precision}f" for kind in (AFTER_ZEROS, AFTER_FREES))
    for n, (m_lo, x_lo, m_hi, x_hi) in enumerate(_cuts(report.schedule, last)):
        lo, hi = x_lo / m_lo, x_hi / m_hi
        if scale is not None:  # as _dim_value scales X/m
            lo, hi = lo * scale, hi * scale
            yield lo_row % (n, m_lo, x_lo, lo, lo)
            yield hi_row % (n, m_hi, x_hi, hi, hi)
        elif n < last:
            g, h = gcd(x_lo, m_lo), gcd(x_hi, m_hi)
            yield lo_row % (n, m_lo, x_lo, x_lo // g, m_lo // g, lo)
            yield hi_row % (n, m_hi, x_hi, x_hi // h, m_hi // h, hi)
        else:  # the tail values, already reduced: the last gcd costs the most
            a, b = report.lower, report.upper
            yield lo_row % (n, m_lo, x_lo, a.numerator, a.denominator, lo)
            yield hi_row % (n, m_hi, x_hi, b.numerator, b.denominator, hi)


_SAME = "same_as_zeros"


def _parse_big_nat(value) -> int:
    """Accept plain ints or strings like "10^7" for large caps.

    A power longer than the term digit budget is refused before it is built.
    """
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    if isinstance(value, str):
        text, limit = value.strip(), _int_max_str_digits()
        if 0 < limit < len(text):  # refused before int() spends time on it
            raise InputError(f"a number of {len(text)} characters is over the {limit}-digit limit")
        if "^" in text:
            base, _, exp = text.partition("^")
            if base.strip().isdecimal() and exp.strip().isdecimal():
                base, exp, budget = int(base), int(exp), seqgen._TERM_DIGIT_BUDGET
                if _power_digits_exceed(base, exp, budget):
                    raise BudgetExceededError(f"{text} has more than {budget} digits")
                return base**exp
        if text.isdecimal():
            return int(text)
    raise InputError(f"expected a natural number, got {value!r}")


def schedule_from_json(obj: dict) -> BlockSchedule:
    check_object(obj, "block schedule", ("base", "alphabet", "zeros", "frees", "m_cap"))
    if "base" not in obj or "zeros" not in obj:
        raise InputError("block schedule needs at least base and zeros")
    zeros = seqgen.spec_from_json(obj["zeros"])
    frees_obj = obj.get("frees", _SAME)
    frees = None if frees_obj == _SAME else seqgen.spec_from_json(frees_obj)
    return BlockSchedule(
        base=_parse_big_nat(obj["base"]),
        alphabet=_parse_big_nat(obj.get("alphabet", obj["base"])),
        zeros=zeros,
        frees=frees,
        m_cap=_parse_big_nat(obj.get("m_cap", DEFAULT_M_CAP)),
    )
