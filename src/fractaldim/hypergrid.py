"""Finite-resolution grid measures and minimal interval-partition costs.

The grid is the N+1 points {0, 1/N, .., 1}; an internal set is a disjoint
union of index runs.  A delta-interval is a contiguous index block whose
diameter counts points, (j - i + 1)/N, following the convention the
partition arithmetic is built on even though the metric diameter of the
point set is (j - i)/N; this shifts costs by O(1/N) and makes the s = 1
cost of a set exactly card/N.

The minimal-cost partition into delta-intervals is computed greedily: a
run of L points splits into floor(L/D) full intervals of D = floor(delta*N)
points plus one remainder.  For 0 < s <= 1 the cost t -> t**s is concave,
so the sum over a partition with the fewest, most unequal parts is minimal
(Schur concavity; merging parts never increases the cost by
subadditivity).  The cost depends only on the multiset {point count:
multiplicity} of the intervals, so the greedy partition is costed from
{D: total full intervals, r: runs with remainder r} in time linear in the
number of runs.  An exact dynamic program, within a fixed work budget, is
provided as the independent oracle for that claim.  It fills one table up
to the longest run and keeps one slot per row for the size of the row's
last interval; each distinct run length is traced back once, and the cost
is taken from the sizes counted per run: about 40 bytes per point in all,
the floats of the table and the slots.  Both solvers build their
intervals only when iterated.
"""

from __future__ import annotations

import math
from collections import Counter
from fractions import Fraction
from itertools import chain, islice, repeat
from operator import add, floordiv, gt, itemgetter, mod, sub
from typing import Callable, Collection, Iterable, Iterator, Mapping, NamedTuple, Sequence

from ._fsum import copies
from .errors import BudgetExceededError, InfeasibleDeltaError, InputError
from .selfsimilar import fat_cantor

# cap on the DP oracle's cell updates, L * min(L, D) for the longest run L
_DP_BUDGET = 2 * 10**7
# indices a traced run is widened by at each end
_ENLARGE = 1

_START, _END = itemgetter(0), itemgetter(1)


class _HyperGrid(NamedTuple):
    N: int


class HyperGrid(_HyperGrid):
    """The grid {0, 1/N, .., N/N}."""

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # so _replace checks too

    def __new__(cls, *args, **kw):
        self = super().__new__(cls, *args, **kw)
        if self.N < 2:
            raise InputError("grid resolution N must be >= 2")
        return self


class _InternalSet(NamedTuple):
    runs: tuple[tuple[int, int], ...]


class InternalSet(_InternalSet):
    """Sorted, separated index runs [i, j]; runs never touch or overlap."""

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # so _replace checks too

    def __new__(cls, *args, **kw):
        self = super().__new__(cls, *args, **kw)
        # C-level passes over the starts and ends, building no list; the
        # Python loop runs only to name the first bad run
        runs = self.runs
        if min(map(_START, runs), default=0) < 0 or any(
            map(gt, map(_START, runs), map(_END, runs))
        ):
            i, j = next((i, j) for i, j in runs if not 0 <= i <= j)
            raise InputError(f"bad run [{i}, {j}]")
        # the next run starts at least two indices after this one ends
        if min(map(sub, map(_START, islice(runs, 1, None)), map(_END, runs)), default=2) < 2:
            raise InputError("runs must be sorted with a gap of at least one index")
        return self

    @property
    def card(self) -> int:
        return sum(j - i + 1 for i, j in self.runs)

    def validate_on(self, grid: HyperGrid) -> None:
        if self.runs and self.runs[-1][1] > grid.N:
            raise InputError(f"run end {self.runs[-1][1]} exceeds grid index {grid.N}")


def _merge(pairs, gap):
    """Sorted (start, end) pairs, merged where one starts within ``gap`` of the previous end."""
    merged = []
    for a, b in sorted(pairs):
        if merged and a <= merged[-1][1] + gap:
            merged[-1] = (merged[-1][0], max(merged[-1][1], b))
        else:
            merged.append((a, b))
    return merged


def merge_runs(pairs: Sequence[tuple[int, int]]) -> InternalSet:
    """Normalize arbitrary index pairs into an InternalSet (merge touching runs)."""
    return InternalSet(tuple(_merge(((min(i, j), max(i, j)) for i, j in pairs), 1)))


class DeltaPartition(NamedTuple):
    """A partition of an internal set into intervals of diameter <= delta.

    ``count`` is the number of intervals as a plain int; ``len(intervals)``
    overflows above ``sys.maxsize`` intervals.
    """

    intervals: Collection[tuple[int, int]]
    cost: float
    count: int


class _Intervals:
    """The intervals of ``runs``, built on iteration.

    ``parts(L)`` gives the point counts of the intervals a run of L points
    splits into, from its start; ``count`` is their total, so ``len`` is O(1).
    """

    __slots__ = ("runs", "parts", "count")

    def __init__(self, runs, parts: Callable[[int], Iterable[int]], count: int):
        self.runs, self.parts, self.count = runs, parts, count

    def __len__(self) -> int:
        return self.count

    def __iter__(self) -> Iterator[tuple[int, int]]:
        parts = self.parts
        for i, j in self.runs:
            for c in parts(j - i + 1):
                yield (i, i + c - 1)
                i += c


# ---------------------------------------------------------------------------
# minimal delta-interval partition


def _capacity(delta: Fraction, grid: HyperGrid) -> int:
    """Max points per interval: diameter (j-i+1)/N <= delta means counts <= delta*N."""
    D = math.floor(Fraction(delta) * grid.N)
    if D < 1:
        raise InfeasibleDeltaError(f"delta={delta} admits no interval on N={grid.N}")
    return D


def _partition_cost(counts: Mapping[int, int], s, N: int) -> float:
    """Canonical cost of a partition from its multiset {point count: multiplicity}.

    All callers funnel through this one function so that equal partitions
    cost bit-identically regardless of how they were found.  fsum is
    correctly rounded, so its result depends neither on the order of the
    terms nor on whether k equal terms come as k copies or as the exact
    pieces of ``copies``.  s = 1 takes an exact rational path, making the
    cost exactly card/N.
    """
    if s == 1:
        return float(Fraction(sum(c * k for c, k in counts.items()), N))
    s = float(s)
    return math.fsum(chain.from_iterable(copies((c / N) ** s, k) for c, k in counts.items()))


def h_delta_s_greedy(
    B: InternalSet, delta, s, grid: HyperGrid
) -> DeltaPartition:
    """Minimal-cost partition of B into delta-intervals (greedy, provably optimal)."""
    _check_s(s)
    B.validate_on(grid)
    D = _capacity(delta, grid)
    lengths = [j - i + 1 for i, j in B.runs]
    counts = Counter(map(mod, lengths, repeat(D)))
    del counts[0]  # runs that split into full intervals only
    if full := sum(map(floordiv, lengths, repeat(D))):  # else D/N need not fit a float
        counts[D] = full
    total = counts.total()
    # sizes L, L - D, .. clipped to D: q full intervals, then the remainder
    intervals = _Intervals(B.runs, lambda L: map(min, repeat(D), range(L, 0, -D)), total)
    return DeltaPartition(intervals, _partition_cost(counts, s, grid.N), total)


def h_delta_s_dp(B: InternalSet, delta, s, grid: HyperGrid) -> DeltaPartition:
    """Exact minimum by dynamic programming, O(L*min(L, D) + card) for the longest run L.

    The optimal split of the first t points of a run depends on t alone, so
    one table filled up to the longest run serves every run, and runs of
    equal length are traced back once; the intervals are traced again only
    when iterated.  Serves as the brute-force oracle for the greedy
    construction; both report costs through the same canonical arithmetic.
    Raises BudgetExceededError, before any work, when the cell updates of
    that one table, or the points traced back through it (card, which
    bounds the intervals built), exceed the fixed budget.
    """
    _check_s(s)
    B.validate_on(grid)
    D = _capacity(delta, grid)
    N = grid.N
    lengths = [j - i + 1 for i, j in B.runs]
    longest = max(lengths, default=0)
    # iterating the intervals builds between card/D and card of them; both
    # terms are at most the sum of L*min(L, D) over the runs, one table per run
    work = max(longest * min(longest, D), sum(lengths))
    if work > _DP_BUDGET:
        raise BudgetExceededError(
            f"DP oracle needs {work} cell updates, over the budget of {_DP_BUDGET}"
        )
    sf = float(s)
    K = min(D, longest)
    # wr[j] is the cost of one interval of K - j points
    wr = [(c / N) ** sf for c in range(K, 0, -1)]
    # dp[t] = minimal cost of partitioning t consecutive points, over the
    # last interval's size c = k, k-1, .., 1 with k = min(K, t)
    dp = [0.0] * (longest + 1)
    for t in range(1, K + 1):
        dp[t] = min(map(add, dp[:t], wr[K - t:]))
    for t in range(K + 1, longest + 1):
        dp[t] = min(map(add, dp[t - K:t], wr))
    # choice[t] is the last interval's size in the best split of t points,
    # 0 until a traceback asks for it; each is found once, so finding them
    # costs at most the fill (a list: importing array costs every command)
    choice = [0] * (longest + 1)

    def trace(t: int) -> Iterator[int]:
        """The interval sizes of the best split of t points, last first."""
        while t:
            c = choice[t]
            if not c:
                k = min(K, t)
                # index() keeps the largest c on ties
                c = choice[t] = k - list(map(add, dp[t - k:t], wr[K - k:])).index(dp[t])
            yield c
            t -= c

    # runs of equal length split alike, so each length is traced once
    sizes: Counter[int] = Counter()
    for length, runs in Counter(lengths).items():
        for c in trace(length):
            sizes[c] += runs
    total = sizes.total()
    intervals = _Intervals(B.runs, lambda L: reversed([*trace(L)]), total)
    return DeltaPartition(intervals, _partition_cost(sizes, s, N), total)


def _check_s(s) -> None:
    if not 0 < s <= 1:
        raise InputError("s must lie in (0, 1]")


# ---------------------------------------------------------------------------
# outer measure over real subsets of [0, 1]


def cantor_stage(m: int) -> list[tuple[Fraction, Fraction]]:
    """The 2**m closed middle-thirds intervals of stage m: ``fat_cantor`` at measures (2/3)**k."""
    if m < 0:
        raise InputError("stage must be >= 0")
    return list(fat_cantor([Fraction(2, 3) ** k for k in range(m + 1)], m).intervals)


def trace_superset(intervals, grid: HyperGrid) -> InternalSet:
    """Smallest internal superset of the grid trace, widened per component end.

    Each merged component [a, b] traces to indices ceil(a*N)..floor(b*N);
    the runs are then extended by ``_ENLARGE`` indices on each side (clamped
    to the grid), mirroring the covering step that swallows points
    infinitesimally close to the set at finite resolution.
    """
    pairs = [(Fraction(a), Fraction(b)) for a, b in intervals]
    if not all(0 <= a <= b <= 1 for a, b in pairs):
        raise InputError("intervals must satisfy 0 <= a <= b <= 1")
    N = grid.N
    runs = []
    for a, b in _merge(pairs, 0):
        lo, hi = math.ceil(a * N), math.floor(b * N)
        if lo <= hi:  # the component holds a grid point
            runs.append((max(0, lo - _ENLARGE), min(N, hi + _ENLARGE)))
    return merge_runs(runs)


def outer_h_measure(
    region, s, deltas: Sequence, grid: HyperGrid
) -> list[tuple[Fraction, float]]:
    """Partition costs of the enlarged grid trace of ``region`` per delta.

    ``region`` is a list of closed-interval endpoint pairs (see
    :func:`cantor_stage` for the middle-thirds stages).  Deltas must be
    decreasing and feasible on the grid.
    """
    _check_s(s)
    ds = [Fraction(d) for d in deltas]
    if not ds:
        raise InputError("need at least one delta")
    if any(b >= a for a, b in zip(ds, ds[1:])):
        raise InputError("deltas must be strictly decreasing")
    B = trace_superset(region, grid)
    out = []
    for d in ds:
        part = h_delta_s_greedy(B, d, s, grid)
        out.append((d, part.cost))
    return out


# ---------------------------------------------------------------------------
# wire formats


def internal_set_from_json(obj: dict) -> tuple[HyperGrid, InternalSet]:
    """The grid and set of ``{"N": N, "runs": [[i, j], ...]}``; ``obj["runs"]`` is emptied."""
    if not isinstance(obj, dict):
        raise InputError("internal set must be a JSON object")
    unknown = set(obj) - {"N", "runs"}
    if unknown:
        raise InputError(f"unknown keys in internal set: {sorted(unknown)}")
    if "N" not in obj or "runs" not in obj:
        raise InputError("internal set needs N and runs")
    N = obj["N"]
    if not isinstance(N, int) or isinstance(N, bool):
        raise InputError("N must be an integer")
    runs = obj["runs"]
    if (
        not isinstance(runs, list)
        or not all(map(isinstance, runs, repeat(list)))
        or not set(map(len, runs)) <= {2}
    ):
        raise InputError("runs must be a list of [i, j] integer pairs")
    # type() is exact, so a JSON true or false is not taken for 1 or 0
    if not set(map(type, chain.from_iterable(runs))) <= {int}:
        raise InputError("runs must be a list of [i, j] integer pairs")
    grid = HyperGrid(N)
    # each decoded pair is popped, and so freed, as its tuple is made
    runs.reverse()
    iset = InternalSet(tuple(map(tuple, map(list.pop, repeat(runs, len(runs))))))
    iset.validate_on(grid)
    return grid, iset

