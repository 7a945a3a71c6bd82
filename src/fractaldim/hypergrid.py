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
number of runs, with no list per run.  An exact dynamic program within a
fixed work budget, about 40 bytes per point, is the independent oracle for
that claim.  Both solvers build their intervals only when iterated.

A set is held as two int columns, its run starts and ends.  The JSON text
reader takes a text, or a file's reads, about 32 KiB at a time into two
``array('q')``, and leaves any other text to the whole-document decoder.
"""

from __future__ import annotations

import math
from collections import Counter
from fractions import Fraction
from itertools import chain, islice, repeat
from operator import add, gt, itemgetter, mul, sub
from typing import Callable, Collection, Iterable, Iterator, Mapping, NamedTuple, Sequence

from .errors import BudgetExceededError, InfeasibleDeltaError, InputError, check_object
from .selfsimilar import _copies, fat_cantor

# cap on the DP oracle's cell updates, L * (min(L, D) + 32) for the longest run L: a row is
# charged as 32 cells (CPython 3.11, Xeon core: 1.2 us a row at D = 1, 40 ns a cell at D >= 100)
_DP_BUDGET = 2 * 10**7
# indices a traced run is widened by at each end
_ENLARGE = 1

_START, _END = itemgetter(0), itemgetter(1)
_CHUNK = 1 << 15  # characters of a runs array the JSON text reader decodes at a time


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
    starts: Sequence[int]
    ends: Sequence[int]


class InternalSet(_InternalSet):
    """Sorted, separated index runs [starts[k], ends[k]], in two int columns (tuples or arrays)."""

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # so _replace checks too

    def __new__(cls, *args, **kw):
        self = super().__new__(cls, *args, **kw)
        starts, ends = self
        if len(starts) != len(ends):
            raise InputError("starts and ends must have the same length")
        # runs [i, j], i <= j, each two or more indices past the last end, rise from the
        # first start; C-level passes build no list, and the loop only names a bad run
        gap = min(map(sub, islice(starts, 1, None), ends), default=2)
        if any(map(gt, starts, ends)) or gap < 2 or starts and starts[0] < 0:
            for i, j in zip(starts, ends):
                if not 0 <= i <= j:
                    raise InputError(f"bad run [{i}, {j}]")
            raise InputError("runs must be sorted with a gap of at least one index")
        return self

    @property
    def card(self) -> int:
        return sum(self.ends) - sum(self.starts) + len(self.starts)

    def validate_on(self, grid: HyperGrid) -> None:
        if self.ends and self.ends[-1] > grid.N:
            raise InputError(f"run end {self.ends[-1]} exceeds grid index {grid.N}")


def merge_runs(pairs: Iterable[tuple[int, int]]) -> InternalSet:
    """Normalize arbitrary index pairs into an InternalSet (merge touching runs)."""
    starts, ends = [], []
    for a, b in sorted((min(i, j), max(i, j)) for i, j in pairs):
        if ends and a <= ends[-1] + 1:
            ends[-1] = max(ends[-1], b)
        else:
            starts.append(a)
            ends.append(b)
    return InternalSet(tuple(starts), tuple(ends))


class DeltaPartition(NamedTuple):
    """A partition of an internal set into intervals of diameter <= delta.

    ``count`` is the number of intervals as a plain int; ``len(intervals)``
    overflows above ``sys.maxsize`` intervals.
    """

    intervals: Collection[tuple[int, int]]
    cost: float
    count: int


class _Intervals:
    """The intervals of the runs of ``iset``, built on iteration.

    ``parts(L)`` gives the point counts of the intervals a run of L points
    splits into, from its start; ``count`` is their total, so ``len`` is O(1).
    """

    __slots__ = ("iset", "parts", "count")

    def __init__(self, iset: InternalSet, parts: Callable[[int], Iterable[int]], count: int):
        self.iset, self.parts, self.count = iset, parts, count

    def __len__(self) -> int:
        return self.count

    def __iter__(self) -> Iterator[tuple[int, int]]:
        parts = self.parts
        for i, j in zip(self.iset.starts, self.iset.ends):
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
    pieces of ``_copies``.  s = 1 takes an exact rational path, making the
    cost exactly card/N.
    """
    if s == 1:
        return float(Fraction(sum(c * k for c, k in counts.items()), N))
    s = float(s)
    return math.fsum(chain.from_iterable(_copies((c / N) ** s, k) for c, k in counts.items()))


def _run_lengths(B: InternalSet) -> tuple[Counter[int], int]:
    """{L - 1: runs of L points} over B's runs, counted in one C-level pass, and B's card."""
    spans = Counter(map(sub, B.ends, B.starts))
    return spans, sum(map(mul, spans, spans.values())) + len(B.starts)


def h_delta_s_greedy(B: InternalSet, delta, s, grid: HyperGrid) -> DeltaPartition:
    """Minimal-cost partition of B into delta-intervals (greedy, provably optimal)."""
    _check_s(s)
    B.validate_on(grid)
    D = _capacity(delta, grid)
    spans, card = _run_lengths(B)
    # a run of L points splits into L // D full intervals and one of L % D
    counts: dict[int, int] = {}  # a dict's get is cheaper than a Counter's __missing__
    for span, k in spans.items():
        r = (span + 1) % D
        counts[r] = counts.get(r, 0) + k
    full = (card - sum(map(mul, counts, counts.values()))) // D  # the points of no remainder
    counts.pop(0, None)  # runs that split into full intervals only
    if full:  # else D/N need not fit a float
        counts[D] = full
    total = sum(counts.values())
    # sizes L, L - D, .. clipped to D: q full intervals, then the remainder
    intervals = _Intervals(B, lambda L: map(min, repeat(D), range(L, 0, -D)), total)
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
    spans, card = _run_lengths(B)
    longest = max(spans, default=-1) + 1
    # iterating the intervals builds between card/D and card of them; both
    # terms are at most the sum of L*(min(L, D) + 32) over the runs, one table per run
    work = max(longest * (min(longest, D) + 32), card)
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
    for span, k in spans.items():
        for c in trace(span + 1):
            sizes[c] += k
    total = sizes.total()
    intervals = _Intervals(B, lambda L: reversed([*trace(L)]), total)
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

    Each interval [a, b] traces to indices ceil(a*N)..floor(b*N); the runs
    are then extended by ``_ENLARGE`` indices on each side (clamped to the
    grid), mirroring the covering step that swallows points infinitesimally
    close to the set at finite resolution, and merged where they touch.
    """
    pairs = [(Fraction(a), Fraction(b)) for a, b in intervals]
    if not all(0 <= a <= b <= 1 for a, b in pairs):
        raise InputError("intervals must satisfy 0 <= a <= b <= 1")
    N = grid.N
    traces = ((math.ceil(a * N), math.floor(b * N)) for a, b in pairs)
    # an interval holding no grid point traces to lo > hi
    widened = ((max(0, lo - _ENLARGE), min(N, hi + _ENLARGE)) for lo, hi in traces if lo <= hi)
    return merge_runs(widened)


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
    return [(d, h_delta_s_greedy(B, d, s, grid).cost) for d in ds]


# ---------------------------------------------------------------------------
# wire formats


def internal_set_from_json(obj: dict) -> tuple[HyperGrid, InternalSet]:
    """The grid and set of ``{"N": N, "runs": [[i, j], ...]}``; ``obj["runs"]`` is emptied."""
    check_object(obj, "internal set", ("N", "runs"))
    if "N" not in obj or "runs" not in obj:
        raise InputError("internal set needs N and runs")
    N = obj["N"]
    if not isinstance(N, int) or isinstance(N, bool):
        raise InputError("N must be an integer")
    runs = obj["runs"]
    # type() is exact, so a JSON true or false is not taken for 1 or 0
    if (not isinstance(runs, list) or not all(map(isinstance, runs, repeat(list)))
            or not set(map(len, runs)) <= {2}
            or not set(map(type, chain.from_iterable(runs))) <= {int}):
        raise InputError("runs must be a list of [i, j] integer pairs")
    grid = HyperGrid(N)
    # the columns share the decoded ints; the decoded pairs are then freed
    iset = InternalSet(tuple(map(_START, runs)), tuple(map(_END, runs)))
    runs.clear()
    iset.validate_on(grid)
    return grid, iset


def _read_in_pieces(text: str | Iterable[str]) -> tuple[HyperGrid, InternalSet] | None:
    """The grid and set of a plain internal-set text or its pieces, or None for any other.

    A str is taken ``_CHUNK`` characters at a time.  The runs read so far are cut after
    the last ``]`` that a comma follows, the rest (at most 4 KiB) carried; each cut must
    decode to a non-empty list of pairs that ``array('q')`` takes, with no t or f (bools).
    """
    import json
    import re
    from array import array

    pieces = text if not isinstance(text, str) else (
        text[i:i + _CHUNK] for i in range(0, len(text), _CHUNK))
    ws = "[ \t\n\r]*"  # JSON's whitespace
    head = re.compile(f'{ws}{{{ws}"N"{ws}:{ws}(-?(?:0|[1-9][0-9]*)){ws},{ws}"runs"{ws}:{ws}\\[')
    cut = re.compile(f"(?s:.*)]{ws},")  # the greedy prefix makes it the last cut
    starts, ends = array("q"), array("q")

    def add(piece: str) -> None:
        runs = json.loads(f"[{piece}]")
        if set(map(len, runs)) != {2} or "t" in piece or "f" in piece:  # {2}: and not empty
            raise ValueError("not a list of integer pairs")
        starts.fromlist(list(map(_START, runs)))  # TypeError or KeyError: not an int
        ends.fromlist(list(map(_END, runs)))

    carry, scan, opening = "", 0, None
    try:
        for piece in pieces:
            carry += piece
            if not opening and "[" in piece:  # the head ends at the first "["
                if not (opening := head.match(carry)):
                    return None
                carry, scan = carry[opening.end():], 0
            # a cut starts at or after scan, the last "]" carried
            if opening and (after := cut.match(carry, scan)):
                add(carry[:after.end() - 1])
                carry, scan = carry[after.end():], 0
            scan = last if (last := carry.rfind("]", scan)) >= 0 else len(carry)
            if len(carry) > 4096:  # a pair, or a gap, that long: decoded whole
                return None
        if not opening or not re.compile(f"]{ws}}}{ws}\\Z").match(carry, scan):
            return None
        add(carry[:scan])
        grid, iset = HyperGrid(int(opening[1])), InternalSet(starts, ends)
        iset.validate_on(grid)
        return grid, iset
    # ValueError: not JSON or pairs, a bad byte, past int()'s digit limit; OverflowError: 64 bits
    except (ValueError, RecursionError, TypeError, KeyError, OverflowError):
        return None
