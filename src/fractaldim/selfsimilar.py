"""Self-similar dimensions, the classical fractal catalog, and fat Cantor sets.

Each catalog entry iterates by replacing every piece with ``pieces`` copies
shrunk by ``scale``, so the stage-m canonical cover has pieces**m sets of
diameter scale**-m and the similarity dimension is log(pieces)/log(scale).
Perimeter/area/volume recurrences are evaluated in exact rational
arithmetic and checked against closed forms built from geometric-sum
formulas; quantities whose natural unit is irrational (triangle areas) carry
the rational coefficient with the unit recorded separately, so consistency
checks stay exact.

The recurrences are the source of truth.  One catalog entry is knowingly
self-inconsistent: the triadic curve's perimeter closed form gives 5 at the
first step while its own recurrence gives 4 (the construction multiplies
the length by 4/3 per step); the check flags it rather than guessing an
intent.  Similarly, ``menger_sponge`` removes 20**(k-1) cubes at step k as
its source states, which differs from the textbook construction; the
``menger_standard`` variant provides the usual volume (20/27)**m.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import accumulate, chain, repeat
from operator import mul
from typing import Callable, NamedTuple, Sequence

from ._digits import _within_budget
from .errors import InputError, UnknownCatalogError, check_tol

QUANT_PERIMETER = "perimeter"
QUANT_AREA = "area"
QUANT_SURFACE_AREA = "surface_area"
QUANT_VOLUME = "volume"

class _PieceRule(NamedTuple):
    name: str
    pieces: int
    scale: int
    ambient_dim: int


class PieceRule(_PieceRule):
    """Count multiplier and linear shrink divisor of one iteration step."""

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # so _replace checks too

    def __new__(cls, *args, **kw):
        self = super().__new__(cls, *args, **kw)
        if self.pieces < 1 or self.scale < 2:
            raise InputError("need pieces >= 1 and scale >= 2")
        return self


class _IfsRatios(NamedTuple):
    ratios: tuple[float, ...]
    counts: tuple[int, ...] = ()


class IfsRatios(_IfsRatios):
    """Contraction ratios of an iterated function system with their multiplicities.

    ``counts[i]`` maps share ``ratios[i]``; empty counts mean one map each.
    """

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # so _replace checks too

    def __new__(cls, *args, **kw):
        self = super().__new__(cls, *args, **kw)
        if not self.ratios:
            raise InputError("ratio list must be nonempty")
        if any(not 0 < c < 1 for c in self.ratios):
            raise InputError("every ratio must lie strictly in (0, 1)")
        if not self.counts:  # one map each: the counts are valid and their sum fits a float
            return super().__new__(cls, self.ratios, (1,) * len(self.ratios))
        if len(self.counts) != len(self.ratios):
            raise InputError("need one count per ratio")
        for k in self.counts:
            if not isinstance(k, int) or isinstance(k, bool) or k < 1:
                raise InputError(f"ratio counts must be integers >= 1, got {k!r}")
        try:
            float(self.total)  # the Moran sum at s = 0
        except OverflowError:
            raise InputError("the Moran sum of this many maps overflows a float") from None
        return self

    @property
    def total(self) -> int:
        """Number of maps, counted with multiplicity."""
        return sum(self.counts)


class MoranRoot(NamedTuple):
    """Root of sum(C_i**s) = 1 with the final bracket width."""

    s: float
    width: float
    degenerate: bool = False
    iterations: int = 0


class GeometrySeries(NamedTuple):
    """One measured quantity of a catalog fractal: recurrence and closed form.

    ``unit`` names a common constant factored out of both sides (e.g. the
    unit triangle area sqrt(3)/4); values are the exact rational
    coefficients of that unit.
    """

    name: str
    quantity: str
    initial: Fraction
    step: Callable[[int, Fraction], Fraction]
    closed: Callable[[int], Fraction]
    unit: str

    def values(self, m: int) -> list[Fraction]:
        """Quantity values for iterations 0..m via the recurrence."""
        steps = accumulate(range(1, m + 1), lambda v, k: self.step(k, v), initial=self.initial)
        return _within_budget(steps, range(m + 1), f"{self.name} {self.quantity} values")

    def closed_values(self, m: int) -> list[Fraction]:
        return _within_budget(
            map(self.closed, range(m + 1)), range(m + 1), f"{self.name} {self.quantity} values"
        )


class ConsistencyReport(NamedTuple):
    """Recurrence, closed form and exact deviation of one series at iterations 0..m."""

    name: str
    quantity: str
    unit: str
    rows: tuple[tuple[Fraction, Fraction, Fraction], ...]  # (recurrence, closed form, deviation)
    consistent: bool
    max_deviation: Fraction
    first_mismatch: int | None


class FatCantorStage(NamedTuple):
    """Stage-m intervals of a measure-scheduled Cantor construction."""

    intervals: tuple[tuple[Fraction, Fraction], ...]
    measure: Fraction


# ---------------------------------------------------------------------------
# catalog

RULES: dict[str, PieceRule] = {
    "cantor": PieceRule("cantor", 2, 3, 1),
    "cantor5": PieceRule("cantor5", 3, 5, 1),
    "koch": PieceRule("koch", 4, 3, 2),
    "quadratic_koch": PieceRule("quadratic_koch", 16, 4, 2),
    "sierpinski_gasket": PieceRule("sierpinski_gasket", 3, 2, 2),
    "sierpinski_carpet": PieceRule("sierpinski_carpet", 8, 3, 2),
    "menger_sponge": PieceRule("menger_sponge", 20, 3, 3),
    "menger_standard": PieceRule("menger_standard", 20, 3, 3),
    "hyperpyramid": PieceRule("hyperpyramid", 9, 2, 4),
}

_ALIASES = {
    "carpet": "sierpinski_carpet",
    "gasket": "sierpinski_gasket",
    "menger": "menger_sponge",
}


def rule(name: str) -> PieceRule:
    key = _ALIASES.get(name, name)
    try:
        return RULES[key]
    except KeyError:
        raise UnknownCatalogError(f"unknown catalog rule {name!r}") from None


def dim_from_rule(rule: PieceRule) -> float:
    """Similarity dimension log(pieces)/log(scale)."""
    return math.log(rule.pieces) / math.log(rule.scale)


# ---------------------------------------------------------------------------
# Moran equation


_MORAN_MAX_ITER = 200
_MORAN_MARGIN = 1e-12  # a computed f this far from 1 certifies a side of the root
_MORAN_REACH = 16  # sums spent stepping right of a Newton estimate that stopped short


def _copies(x: float, k: int) -> list[float]:
    """k copies of x as the exact pieces x * 2**b over the set bits b of k.

    math.fsum returns the correctly rounded exact sum of its terms, so in any
    fsum these pieces give the same float as k separate copies of x, from
    O(log k) terms.  Each piece is exact as long as k*x stays below the float
    range limit.
    """
    return [math.ldexp(x, b) for b in range(k.bit_length()) if k >> b & 1]


def _moran_sum(singles: list, repeated: list, s: float) -> float:
    """f(s) = sum(C_i**s), correctly rounded from the pow value of each map."""
    many = chain.from_iterable(_copies(c**s, k) for c, k in repeated)
    return math.fsum(chain(map(pow, singles, repeat(s)), many))


def _moran_estimate(ratios: IfsRatios):
    """Newton's root estimate from s = 0 on the convex ln f, with ln f's slope; or None."""
    cs = list(map(float, ratios.ratios))
    if min(cs) == 0.0:  # a Fraction below the float range has no logarithm
        return None
    logs = list(map(math.log, cs))
    # one float per distinct count, shared by its maps
    ks = list(map({k: float(k) for k in set(ratios.counts)}.__getitem__, ratios.counts))
    s, ws = 0.0, ks  # each map's term k * c**s, at s = 0
    for _ in range(8):
        f = sum(ws)
        if not 0 < f < math.inf:
            return None
        slope = sum(map(mul, ws, logs)) / f
        g = math.log(f)
        if not (-math.inf < slope < 0 and g > -1e-7):
            return None
        s -= g / slope
        if g <= 1e-7:  # the step just taken leaves ln f near g**2
            break
        del ws  # the last terms are freed before the next are built
        ws = list(map(mul, ks, map(pow, cs, repeat(s))))
    return (s, slope) if math.isfinite(s) else None


def moran_solve(ratios: IfsRatios, tol: float = 1e-12) -> MoranRoot:
    """Unique root of f(s) = sum(C_i**s) = 1 by bracketed bisection.

    f is strictly decreasing from the number of maps n at s=0, so the root lies in
    [0, log(n)/log(1/max C_i)].  A single map makes the equation C**s = 1, whose
    only root is s = 0; that case is flagged degenerate.  A ratio of multiplicity
    k adds O(log k) exact terms per step (see ``_copies``), so f(s) is bit-identical
    to summing every map's term.  Per map, only its ratio, count and term are held.

    Most steps are decided without computing f, from a certified bracket:
    where the computed f exceeds 1 + 1e-12 (is below 1 - 1e-12), it
    exceeds 1 (is at most 1) at every point left (right) of there too,
    while each pow term errs by less than 5e-13 relative, about 2,000 ulp.
    Two probes beside a Newton estimate of the root set the bracket; when
    both lie left of it, probes at doubling steps to the right close it.  A
    step inside the bracket computes f.  So the steps and the result are
    the plain bisection's; ``iterations`` still counts its steps, not sums.
    """
    check_tol(tol)
    n = ratios.total
    if n == 1:
        return MoranRoot(s=0.0, width=0.0, degenerate=True)
    top = float(max(ratios.ratios))  # a Fraction ratio may round to 0 or 1
    if not 0.0 < top < 1.0:
        raise InputError(f"the largest ratio is {top} as a float; it must lie strictly in (0, 1)")
    singles = [c for c, k in zip(ratios.ratios, ratios.counts) if k == 1]
    repeated = [(c, k) for c, k in zip(ratios.ratios, ratios.counts) if k > 1]
    hi = math.log(n) / -math.log(top) + 1e-9
    above, below = -math.inf, math.inf  # f > 1 at s <= above, f <= 1 at s >= below
    estimate = _moran_estimate(ratios)
    if estimate is not None:
        x, slope = estimate
        delta = max(4 * _MORAN_MARGIN / -slope, 8 * math.ulp(x))
        for probe in (max(x - delta, 0.0), x + delta):  # c**s may overflow at s < 0
            value = _moran_sum(singles, repeated, probe)
            if value > 1.0 + _MORAN_MARGIN:
                above = probe
            elif value < 1.0 - _MORAN_MARGIN:
                below = min(below, probe)
        if above == probe:  # the estimate stopped short; step right until f <= 1 is certified
            step = math.log(value) / -slope  # Newton's step from the probe, doubled each time
            for _ in range(_MORAN_REACH):
                probe += step
                step += step
                value = _moran_sum(singles, repeated, probe)
                if value > 1.0 + _MORAN_MARGIN:
                    above = probe
                elif value < 1.0 - _MORAN_MARGIN:
                    below = probe
                    break
                elif probe >= hi:
                    break
    lo = 0.0
    iterations = 0
    while hi - lo > tol and iterations < _MORAN_MAX_ITER:
        mid = 0.5 * (lo + hi)
        if mid <= above or (mid < below and _moran_sum(singles, repeated, mid) > 1.0):
            lo = mid
        else:
            hi = mid
        iterations += 1
    return MoranRoot(s=0.5 * (lo + hi), width=hi - lo, iterations=iterations)


# ---------------------------------------------------------------------------
# geometry series


def _geom_sum(ratio: Fraction, k_lo: int, k_hi: int) -> Fraction:
    """sum(ratio**k for k in k_lo..k_hi) for k_lo >= 0, exact; 0 for an empty range.

    With ratio = p/q the sum is (p**(k_hi+1) - p**k_lo * q**(k_hi+1-k_lo)) /
    (q**k_hi * (p - q)), built as one Fraction: one gcd, not five.  No
    catalog ratio is 1, so p - q is never 0.
    """
    if k_hi < k_lo:
        return Fraction(0)
    p, q = ratio.numerator, ratio.denominator
    return Fraction(p ** (k_hi + 1) - p**k_lo * q ** (k_hi + 1 - k_lo), q**k_hi * (p - q))


# name: rows of (quantity, initial value, step(k, prev), closed(m), unit)
_GEOMETRY = {
    "koch": (
        # each of the 3*4**(k-1) edges loses its middle third and gains two
        # replacement sides; the stated closed form disagrees from m = 1 on
        (QUANT_PERIMETER, 3,
         lambda k, prev: prev - 3 * 4 ** (k - 1) * Fraction(1, 3**k)
         + 3 * 4 ** (k - 1) * 2 * Fraction(1, 3**k),
         lambda m: 3 * (1 + Fraction(1, 2) * _geom_sum(Fraction(4, 3), 1, m)), "1"),
        (QUANT_AREA, 1,
         lambda k, prev: prev + 3 * 4 ** (k - 1) * Fraction(1, 9**k),
         lambda m: 1 + Fraction(3, 4) * _geom_sum(Fraction(4, 9), 1, m), "sqrt(3)/4"),
    ),
    "quadratic_koch": (
        # every segment is replaced by 8 quarter-length segments: length doubles
        (QUANT_PERIMETER, 4,
         lambda k, prev: prev + 4 * 8 ** (k - 1) * Fraction(4, 4**k),
         lambda m: 4 * (1 + _geom_sum(Fraction(2), 0, m - 1)), "1"),
        # indentations remove exactly what the bumps add back
        (QUANT_AREA, 1,
         lambda k, prev: prev - 4 * 8 ** (k - 1) * Fraction(1, 16**k)
         + 4 * 8 ** (k - 1) * Fraction(1, 16**k),
         lambda m: Fraction(1), "1"),
    ),
    "sierpinski_gasket": (
        (QUANT_PERIMETER, 3,
         lambda k, prev: prev + 3 ** (k - 1) * 3 * Fraction(1, 2**k),
         lambda m: 3 * (1 + Fraction(1, 2) * _geom_sum(Fraction(3, 2), 0, m - 1)), "1"),
        (QUANT_AREA, 1,
         lambda k, prev: prev - 3 ** (k - 1) * Fraction(1, 4**k),
         lambda m: 1 - Fraction(1, 3) * _geom_sum(Fraction(3, 4), 1, m), "sqrt(3)/4"),
    ),
    "sierpinski_carpet": (
        (QUANT_PERIMETER, 4,
         lambda k, prev: prev + 8 ** (k - 1) * 4 * Fraction(1, 3**k),
         lambda m: 4 * (1 + Fraction(1, 8) * _geom_sum(Fraction(8, 3), 1, m)), "1"),
        (QUANT_AREA, 1,
         lambda k, prev: prev - 8 ** (k - 1) * Fraction(1, 9**k),
         lambda m: 1 - Fraction(1, 8) * _geom_sum(Fraction(8, 9), 1, m), "1"),
    ),
    "menger_sponge": (
        (QUANT_SURFACE_AREA, 6,
         lambda k, prev: prev - 6 * 8 ** (k - 1) * Fraction(1, 9**k)
         + 20 ** (k - 1) * 6 * 4 * Fraction(1, 9**k),
         lambda m: 6
         * (
             1
             + Fraction(1, 5) * _geom_sum(Fraction(20, 9), 1, m)
             - Fraction(1, 8) * _geom_sum(Fraction(8, 9), 1, m)
         ), "1"),
        (QUANT_VOLUME, 1,
         lambda k, prev: prev - 20 ** (k - 1) * Fraction(1, 27**k),
         lambda m: 1 - Fraction(1, 20) * _geom_sum(Fraction(20, 27), 1, m), "1"),
    ),
    "menger_standard": (
        (QUANT_VOLUME, 1,
         lambda k, prev: prev * Fraction(20, 27),
         lambda m: Fraction(20, 27) ** m, "1"),
    ),
}


def geometry_catalog(name: str) -> list[GeometrySeries]:
    """A new list of the series of catalog entry ``name`` (or an alias), each named by its key."""
    key = _ALIASES.get(name, name)
    try:
        rows = _GEOMETRY[key]
    except KeyError:
        raise UnknownCatalogError(f"no geometry series for {name!r}") from None
    return [GeometrySeries(key, quantity, Fraction(initial), step, closed, unit)
            for quantity, initial, step, closed, unit in rows]


def closed_form_check(name: str, m_max: int) -> list[ConsistencyReport]:
    """Exact recurrence-vs-closed-form rows for every quantity of ``name``."""
    if m_max < 0:
        raise InputError("m_max must be >= 0")
    reports, zero = [], Fraction(0)
    for series in geometry_catalog(name):
        pairs = zip(series.values(m_max), series.closed_values(m_max))
        # equal values, the usual case, skip the subtraction's big-integer gcds
        rows = tuple((a, b, abs(a - b) if a != b else zero) for a, b in pairs)
        first = next((m for m, (_, _, dev) in enumerate(rows) if dev), None)
        worst = max((dev for _, _, dev in rows if dev), default=zero)
        reports.append(
            ConsistencyReport(
                series.name, series.quantity, series.unit, rows,
                consistent=first is None, max_deviation=worst, first_mismatch=first,
            )
        )
    return reports


# ---------------------------------------------------------------------------
# fat Cantor construction


def fat_cantor(measure_seq: Sequence, m: int) -> FatCantorStage:
    """Stage ``m`` of the Cantor construction with prescribed stage measures.

    ``measure_seq[i]`` is the total length kept at stage i; the sequence
    must start at 1 and be nonincreasing (constant entries leave nothing to
    remove at that stage).  Stage m consists of 2**m closed intervals of
    equal length measure_seq[m]/2**m, keeping both ends of each parent.
    """
    seq = [Fraction(a) for a in measure_seq]
    if len(seq) <= m:
        raise InputError(f"need at least {m + 1} measures for stage {m}")
    if seq[0] != 1:
        raise InputError("the stage-0 measure must be 1")
    if any(not 0 < b <= a for a, b in zip(seq, seq[1:])):
        raise InputError("measures must be nonincreasing and stay in (0, 1]")
    intervals: list[tuple[Fraction, Fraction]] = [(Fraction(0), Fraction(1))]
    for k in range(1, m + 1):
        half = seq[k] / 2**k
        nxt = []
        for lo, hi in intervals:
            nxt.append((lo, lo + half))
            nxt.append((hi - half, hi))
        intervals = nxt
    return FatCantorStage(intervals=tuple(intervals), measure=seq[m])
