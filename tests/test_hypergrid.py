"""Grid measure and minimal-partition tests.

The dynamic program is the independent oracle for the greedy partition;
both report costs through the same canonical arithmetic, so optimal
partitions cost bit-identically.  Grid traces are cross-checked by
membership loops over all grid indices.
"""

import itertools
import json
import math
import operator
import tracemalloc
from array import array
from collections import Counter
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import assume, given, settings, strategies as st

from fractaldim import cli, hypergrid
from fractaldim.errors import BudgetExceededError, InfeasibleDeltaError, InputError
from fractaldim.hypergrid import (
    _ENLARGE,
    HyperGrid,
    InternalSet,
    cantor_stage,
    h_delta_s_dp,
    h_delta_s_greedy,
    internal_set_from_json,
    merge_runs,
    outer_h_measure,
    trace_superset,
)

CANTOR_DIM = math.log(2) / math.log(3)


def from_runs(runs):
    """The InternalSet of (start, end) pairs, as two tuple columns."""
    return InternalSet(tuple(i for i, _ in runs), tuple(j for _, j in runs))


def runs_in(B):
    """The (start, end) pairs of an InternalSet's columns."""
    return tuple(zip(B.starts, B.ends))


def runs_of(points):
    """Oracle: the maximal runs of consecutive integers in a set, in order."""
    groups = itertools.groupby(enumerate(sorted(points)), key=lambda p: p[1] - p[0])
    return tuple((g[0][1], g[-1][1]) for g in (list(g) for _, g in groups))


class TestInternalSet:
    def test_card(self):
        assert from_runs(((0, 9), (20, 24))).card == 15

    def test_rejects_touching_runs(self):
        with pytest.raises(InputError):
            from_runs(((0, 5), (6, 8)))
        with pytest.raises(InputError):
            from_runs(((0, 5), (3, 8)))

    def test_merge_runs_normalizes(self):
        iset = merge_runs([(6, 8), (0, 5), (20, 22)])
        assert runs_in(iset) == ((0, 8), (20, 22))

    def test_json_round_trip(self):
        grid, iset = internal_set_from_json({"N": 100, "runs": [[0, 9], [20, 24]]})
        assert grid.N == 100
        assert runs_in(iset) == ((0, 9), (20, 24))

    def test_json_validation(self):
        with pytest.raises(InputError):
            internal_set_from_json({"N": 100})
        with pytest.raises(InputError):
            internal_set_from_json({"N": 10, "runs": [[0, 20]]})
        with pytest.raises(InputError):
            internal_set_from_json({"N": 10, "runs": [[0, 2]], "what": 1})
        with pytest.raises(InputError, match="integer pairs"):
            internal_set_from_json({"N": 10, "runs": [[False, True]]})

    @pytest.mark.parametrize(
        "runs, message",
        [
            ([[5, 6], [-3, -2]], "bad run [-3, -2]"),
            ([[0, 1], [5, 3], [2, 2]], "bad run [5, 3]"),
            ([[0, 3], [4, 6]], "runs must be sorted with a gap of at least one index"),
            ([[0, 3], [8, 9], [2, 6]], "runs must be sorted with a gap of at least one index"),
            ([[0, 3], [5]], "runs must be a list of [i, j] integer pairs"),
            ([[0, 3], [5, 6.0]], "runs must be a list of [i, j] integer pairs"),
            ([[0, 3], (5, 6)], "runs must be a list of [i, j] integer pairs"),
            ([[0, 3], 5], "runs must be a list of [i, j] integer pairs"),
        ],
    )
    def test_json_run_messages(self, runs, message):
        with pytest.raises(InputError) as info:
            internal_set_from_json({"N": 100, "runs": runs})
        assert str(info.value) == message

    def test_columns_may_be_arrays(self):
        runs = ((0, 9), (20, 24), (30, 30))
        B = InternalSet(array("q", (0, 20, 30)), array("q", (9, 24, 30)))
        assert B.card == from_runs(runs).card == 16
        for solve in (h_delta_s_greedy, h_delta_s_dp):
            part = solve(B, Fraction(1, 8), 0.5, HyperGrid(40))
            assert part == solve(from_runs(runs), Fraction(1, 8), 0.5, HyperGrid(40))._replace(
                intervals=part.intervals
            )
            assert list(part.intervals) == [(0, 4), (5, 9), (20, 24), (30, 30)]
        with pytest.raises(InputError, match="^run end 30 exceeds grid index 29$"):
            B.validate_on(HyperGrid(29))

    def test_columns_of_unequal_length_are_refused(self):
        with pytest.raises(InputError, match="^starts and ends must have the same length$"):
            InternalSet((0, 20), (9,))


class TestTextReader:
    def test_a_plain_text_gives_int64_columns(self):
        text = '\r\n{ "N" :100,\t"runs":[ [0, 9] ,\n[20,24],[30, 30]\r\n] }\n'
        grid, iset = hypergrid._read_in_pieces(text)
        assert grid == HyperGrid(100)
        assert type(iset.starts) is type(iset.ends) is array and iset.starts.typecode == "q"
        assert runs_in(iset) == runs_in(internal_set_from_json(json.loads(text))[1])

    @pytest.mark.parametrize("chunk", [1, 7, 8, 9, 1 << 15])
    def test_every_piece_joins_the_array(self, chunk):
        runs = [[k * 10, k * 10 + k % 7] for k in range(300)]
        text = json.dumps({"N": 3000, "runs": runs})
        with mock.patch.object(hypergrid, "_CHUNK", chunk):
            _, iset = hypergrid._read_in_pieces(text)
        assert runs_in(iset) == tuple(map(tuple, runs))

    @pytest.mark.parametrize(
        "text",
        [
            '{"N": 100, "runs": [[0, true]]}',
            '{"N": 100, "runs": [[0, 1.0]]}',
            '{"N": 100, "runs": [[0, 9223372036854775808]]}',
            '{"N": 100, "runs": [[-9223372036854775809, 0]]}',
            '{"runs": [[0, 9]], "N": 100}',
            '{"N": 100, "N": 100, "runs": [[0, 9]]}',
            '{"N": 100, "runs": [[0, 9]], "runs": [[0, 9]]}',
            '{"N": 100, "runs": [[0, 9],]}',
            '{"N": 100, "runs": [[0, 9],, [20, 24]]}',
            '{"N": 100, "runs": []}',
            '{"N": 100, "runs": [[0, [9]]]}',
            '{"N": 100, "runs": [["],", 9]]}',
            '{"N": 1e2, "runs": [[0, 9]]}',
            '{"N": 100, "runs": [[0, 9]]}\x0b',
            '{"N": 100, "runs": [[0, false]]}',
            '{"N": 100, "runs": [[0, null]]}',
            '{"N": 100, "runs": [[0, 9, 10]]}',
            '{"N": 100, "runs": [[0, 9], [20]]}',
            '{"N": 100, "runs": [[0, 9], {"a": 1, "b": 2}]}',
            '{"N": 100, "runs": [[0, 9], "ab"]}',
            '{"N": 100, "runs": [[0, 9], 20]}',
        ],
    )
    def test_any_other_text_is_declined(self, text):
        assert hypergrid._read_in_pieces(text) is None

    def test_only_a_declined_text_is_decoded_whole(self, tmp_path, monkeypatch):
        decoded, load = [], cli._load_json
        monkeypatch.setattr(cli, "_load_json", lambda path: decoded.append(path) or load(path))
        plain, reversed_keys = tmp_path / "plain.json", tmp_path / "reversed.json"
        plain.write_text('{"N": 100, "runs": [[0, 9]]}')
        reversed_keys.write_text('{"runs": [[0, 9]], "N": 100}')
        grid, iset = cli._read_set(str(plain))
        assert (decoded, type(iset.starts)) == ([], array)
        assert cli._read_set(str(reversed_keys)) == (grid, InternalSet((0,), (9,)))
        assert decoded == [str(reversed_keys)]


class TestGreedyPartition:
    def test_full_grid_example(self):
        # 101 points at capacity 10: ten full intervals and one singleton
        part = h_delta_s_greedy(
            from_runs(((0, 100),)), Fraction(1, 10), 1, HyperGrid(100)
        )
        assert part.cost == 1.01
        assert len(part.intervals) == 11

    def test_two_runs_half_power(self):
        part = h_delta_s_greedy(
            from_runs(((0, 4), (50, 54))), Fraction(1, 20), 0.5, HyperGrid(100)
        )
        assert part.cost == pytest.approx(2 * (5 / 100) ** 0.5, abs=1e-12)
        assert len(part.intervals) == 2

    def test_single_point(self):
        grid = HyperGrid(64)
        part = h_delta_s_greedy(from_runs(((7, 7),)), Fraction(1, 4), 0.5, grid)
        assert part.cost == pytest.approx((1 / 64) ** 0.5, abs=1e-15)

    def test_intervals_partition_the_set(self):
        B = from_runs(((0, 30), (40, 45)))
        part = h_delta_s_greedy(B, Fraction(1, 16), 0.7, HyperGrid(100))
        covered = sorted(
            i for a, b in part.intervals for i in range(a, b + 1)
        )
        assert covered == sorted(
            i for a, b in runs_in(B) for i in range(a, b + 1)
        )
        D = 100 // 16  # floor(delta*N)
        assert all(b - a + 1 <= D for a, b in part.intervals)

    def test_infeasible_delta(self):
        with pytest.raises(InfeasibleDeltaError):
            h_delta_s_greedy(from_runs(((0, 3),)), Fraction(1, 200), 1, HyperGrid(100))

    def test_count_without_len(self):
        small = from_runs(((0, 30), (40, 45)))
        for solve in (h_delta_s_greedy, h_delta_s_dp):
            part = solve(small, Fraction(1, 16), 0.7, HyperGrid(100))
            assert part.count == len(part.intervals) == 7
        # more intervals than sys.maxsize: len() of them overflows, the count does not
        N = 10**20
        part = h_delta_s_greedy(from_runs(((0, N),)), Fraction(1, N), 0.5, HyperGrid(N))
        assert part.count == N + 1

    def test_s_validation(self):
        with pytest.raises(InputError):
            h_delta_s_greedy(from_runs(((0, 3),)), Fraction(1, 10), 0, HyperGrid(100))


class TestDpOracle:
    def test_reproduces_greedy_examples(self):
        grid = HyperGrid(100)
        cases = [
            (from_runs(((0, 100),)), Fraction(1, 10), 1),
            (from_runs(((0, 4), (50, 54))), Fraction(1, 20), 0.5),
            (from_runs(((7, 7),)), Fraction(1, 4), 0.3),
        ]
        for B, delta, s in cases:
            greedy = h_delta_s_greedy(B, delta, s, grid)
            dp = h_delta_s_dp(B, delta, s, grid)
            assert dp.cost == greedy.cost

    def test_dp_never_beats_any_explicit_partition(self):
        # exhaustive check on a small run: every composition of 6 points
        # into parts of size <= 3 costs at least the DP optimum
        grid = HyperGrid(30)
        B = from_runs(((4, 9),))
        s = 0.5
        dp = h_delta_s_dp(B, Fraction(1, 10), s, grid)

        def compositions(total, cap):
            if total == 0:
                yield ()
                return
            for first in range(1, min(cap, total) + 1):
                for rest in compositions(total - first, cap):
                    yield (first,) + rest

        best = min(
            math.fsum((c / 30) ** s for c in parts) for parts in compositions(6, 3)
        )
        assert dp.cost <= best + 1e-15


class TestLongRunsAndBudget:
    def test_long_run_partition_is_lazy(self):
        # 10**9 singleton intervals: counted and costed, never built
        N = 10**9
        tracemalloc.start()
        try:
            part = h_delta_s_greedy(from_runs(((0, N - 1),)), Fraction(1, N), 0.5, HyperGrid(N))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
        assert len(part.intervals) == N
        assert list(itertools.islice(part.intervals, 3)) == [(0, 0), (1, 1), (2, 2)]
        assert part.cost == float(N * Fraction((1 / N) ** 0.5))

    def test_dp_memory_per_point_is_bounded(self):
        # one run of 20,000 points at D = 1: the table and one choice slot per
        # row, no interval built until iterated (about 260 bytes per point
        # when the oracle kept a tuple per interval)
        n = 20_000
        tracemalloc.start()
        try:
            part = h_delta_s_dp(from_runs(((0, n - 1),)), Fraction(1, n), 0.5, HyperGrid(n))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 100 * n
        assert len(part.intervals) == part.count == n

    def test_dp_over_budget_raises_before_work(self):
        # one run of 20,001 points at D = 1000 is charged 20,001 * 1,032 = 20,641,032 cell updates
        grid = HyperGrid(40_000)
        with pytest.raises(BudgetExceededError):
            h_delta_s_dp(from_runs(((0, 20_000),)), Fraction(1000, 40_000), 0.5, grid)

    def test_dp_budget_counts_short_runs_by_their_length(self):
        # L*D would be 10**8 here; L*(min(L, D) + 32) is 13,200
        runs = tuple((300 * k, 300 * k + 99) for k in range(100))
        grid = HyperGrid(10**6)
        B = from_runs(runs)
        dp = h_delta_s_dp(B, Fraction(1), 0.5, grid)
        assert dp.cost == h_delta_s_greedy(B, Fraction(1), 0.5, grid).cost

    def test_dp_budget_charges_one_table_for_all_runs(self):
        # 30 runs of 1,000 points at D = 1000: one table charged 1,032,000 cell
        # updates serves them all, where filling one per run would need 30,960,000
        runs = tuple((2000 * k, 2000 * k + 999) for k in range(30))
        grid = HyperGrid(60_000)
        B = from_runs(runs)
        dp = h_delta_s_dp(B, Fraction(1000, 60_000), 0.5, grid)
        assert dp.count == 30
        assert dp.cost == h_delta_s_greedy(B, Fraction(1000, 60_000), 0.5, grid).cost

    def test_dp_budget_charges_the_traceback(self):
        # 1,000 runs of 10**5 points at D = 1: the table is charged 3.3 * 10**6
        # cell updates, but the traceback would build 10**8 intervals
        runs = tuple((2 * 10**5 * k, 2 * 10**5 * k + 10**5 - 1) for k in range(1000))
        grid = HyperGrid(2 * 10**8)
        with pytest.raises(BudgetExceededError, match="100000000"):
            h_delta_s_dp(from_runs(runs), Fraction(1, 2 * 10**8), 0.5, grid)


def _reference_dp(B, D, s, N):
    """The exact DP run afresh over each run; the cost summed exactly and rounded once."""
    w = [0.0] + [(c / N) ** float(s) for c in range(1, D + 1)]
    intervals = []
    for i, j in runs_in(B):
        length = j - i + 1
        dp, choice = [0.0] * (length + 1), [0] * (length + 1)
        for t in range(1, length + 1):
            # the largest c wins a tie
            best_c = max(range(1, min(D, t) + 1), key=lambda c: (-(dp[t - c] + w[c]), c))
            dp[t], choice[t] = dp[t - best_c] + w[best_c], best_c
        parts, t = [], length
        while t:
            parts.append(choice[t])
            t -= choice[t]
        pos = i
        for c in reversed(parts):
            intervals.append((pos, pos + c - 1))
            pos += c
    sizes = [b - a + 1 for a, b in intervals]
    cost = float(Fraction(sum(sizes), N)) if s == 1 else math.fsum(w[c] for c in sizes)
    return intervals, cost


@settings(max_examples=150, derandomize=True, deadline=None)
@given(
    gaps_lengths=st.lists(st.tuples(st.integers(1, 4), st.integers(1, 40)), min_size=1, max_size=12),
    d=st.integers(1, 12),
    s=st.sampled_from([Fraction(1), Fraction(1, 2), Fraction(3, 10), Fraction(9, 10)]),
)
def test_dp_one_table_matches_per_run_reference(gaps_lengths, d, s):
    runs, pos = [], 0
    for gap, length in gaps_lengths:
        pos += gap
        runs.append((pos, pos + length - 1))
        pos += length
    grid = HyperGrid(pos + 1)
    B = from_runs(runs)
    part = h_delta_s_dp(B, Fraction(d, grid.N), s, grid)
    intervals, cost = _reference_dp(B, d, s, grid.N)
    assert list(part.intervals) == intervals
    assert part.cost == cost and part.count == len(intervals)


def _list_index_dp(B, delta, s, grid):
    """The one-table DP as first written: each row's candidate list, min() and index()."""
    D = hypergrid._capacity(delta, grid)
    N = grid.N
    lengths = [j - i + 1 for i, j in runs_in(B)]
    longest = max(lengths, default=0)
    work = max(longest * (min(longest, D) + 32), sum(lengths))
    if work > hypergrid._DP_BUDGET:
        raise BudgetExceededError(
            f"DP oracle needs {work} cell updates, over the budget of {hypergrid._DP_BUDGET}"
        )
    w = [0.0] + [(c / N) ** float(s) for c in range(1, min(D, longest) + 1)]
    dp = [0.0] * (longest + 1)
    choice = [0] * (longest + 1)
    for t in range(1, longest + 1):
        k = min(D, t)
        cands = list(map(operator.add, dp[t - k:t], w[k:0:-1]))
        best = min(cands)
        dp[t] = best
        choice[t] = k - cands.index(best)
    intervals = []
    for (i, _), length in zip(runs_in(B), lengths):
        parts = []
        t = length
        while t > 0:
            parts.append(choice[t])
            t -= choice[t]
        parts.reverse()
        pos = i
        for c in parts:
            intervals.append((pos, pos + c - 1))
            pos += c
    cost = hypergrid._partition_cost(Counter(b - a + 1 for a, b in intervals), s, N)
    return tuple(intervals), cost


def _assert_list_index_dp(grid, B, delta, s):
    part = h_delta_s_dp(B, delta, s, grid)
    intervals, cost = _list_index_dp(B, delta, s, grid)
    assert tuple(part.intervals) == intervals
    assert part.cost.hex() == cost.hex() and part.count == len(intervals)


@st.composite
def dp_inputs(draw):
    """Runs with single points and repeated lengths, D from 1 to past the longest run, and s."""
    pool = draw(st.lists(st.integers(1, 90), min_size=1, max_size=3))
    lengths = draw(st.lists(st.one_of(st.just(1), st.sampled_from(pool)), min_size=1, max_size=25))
    runs, pos = [], draw(st.integers(0, 3))
    for length in lengths:
        runs.append((pos, pos + length - 1))
        pos += length + draw(st.integers(1, 4))
    grid = HyperGrid(pos + draw(st.integers(0, 50)))
    d = draw(st.one_of(st.integers(1, max(lengths) + 5), st.integers(1, grid.N)))
    s = draw(st.one_of(st.sampled_from([1, Fraction(1, 2), Fraction(3, 10)]), st.floats(0.01, 1.0)))
    return grid, from_runs(runs), Fraction(d, grid.N), s


@settings(max_examples=300, derandomize=True, deadline=None)
@given(inputs=dp_inputs())
def test_dp_matches_the_list_index_dp_bit_for_bit(inputs):
    _assert_list_index_dp(*inputs)


def _no_cell_update(*args):
    raise AssertionError("a DP cell was updated")


@settings(max_examples=100, derandomize=True, deadline=None)
@given(inputs=dp_inputs(), over=st.booleans())
def test_dp_budget_refuses_what_it_refused_before_any_work(inputs, over):
    # the budget set just below or at each input's work, as the list/index DP counted it
    grid, B, delta, s = inputs
    lengths = [j - i + 1 for i, j in runs_in(B)]
    D = hypergrid._capacity(delta, grid)
    work = max(max(lengths) * (min(max(lengths), D) + 32), sum(lengths))
    with mock.patch.object(hypergrid, "_DP_BUDGET", work - over):
        if over:
            with pytest.raises(BudgetExceededError) as expected:
                _list_index_dp(B, delta, s, grid)
            with mock.patch.object(hypergrid, "add", _no_cell_update):
                with pytest.raises(BudgetExceededError) as refused:
                    h_delta_s_dp(B, delta, s, grid)
            assert str(refused.value) == str(expected.value)
        else:
            intervals = h_delta_s_dp(B, delta, s, grid).intervals
            assert tuple(intervals) == _list_index_dp(B, delta, s, grid)[0]


@st.composite
def pruned_dp_inputs(draw):
    """1-4 runs at D from 256 to 1,000, the longest of 2D + 1 to 8D points (pruned past 2D)."""
    d = draw(st.integers(256, 1000))
    longest = draw(st.integers(2 * d + 1, 8 * d))
    lengths = [longest, *draw(st.lists(st.integers(1, longest), max_size=3))]
    runs, pos = [], 0
    for length in draw(st.permutations(lengths)):
        pos += draw(st.integers(1, 50))
        runs.append((pos, pos + length - 1))
        pos += length
    grid = HyperGrid(pos + draw(st.integers(0, 4 * pos)))
    # s near 1 ties blocks within rounding; a float 1.0 (as 1 - 10**-30 is) fills whole rows
    s = draw(st.one_of(
        st.floats(0.01, 1.0),
        st.sampled_from([Fraction(1, 2), Fraction(9, 10), 1, 1 - Fraction(1, 10**30)]),
        st.integers(30, 52).map(lambda k: 1 - 2.0**-k)))
    return grid, from_runs(runs), Fraction(d, grid.N), s


@settings(max_examples=25, derandomize=True, deadline=None)
@given(inputs=pruned_dp_inputs())
def test_pruned_rows_match_the_list_index_dp_bit_for_bit(inputs):
    _assert_list_index_dp(*inputs)


@pytest.mark.parametrize("d", [255, 256])  # rows of 255 cells are filled whole, of 256 pruned
@pytest.mark.parametrize("s", [Fraction(7, 10), 1 - 2.0**-45])
def test_rows_either_side_of_the_pruning_width_match_the_list_index_dp(d, s):
    grid = HyperGrid(5000)
    _assert_list_index_dp(grid, from_runs(((3, 2002), (2010, 2709))), Fraction(d, grid.N), s)


def test_pruned_dp_memory_is_bounded():
    # one run of 6,300 points at D = 3,000, about the widest the budget admits with rows past 2D:
    # the ring holds 3,000 rows of 56 blocks as doubles, about 1.5 MB (5.6 MB as lists of floats)
    n = 6300
    grid = HyperGrid(20_000)
    tracemalloc.start()
    try:
        part = h_delta_s_dp(from_runs(((0, n - 1),)), Fraction(3000, grid.N), 0.5, grid)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2_500_000
    assert part.count == 3


class TestTraceSuperset:
    def test_unit_interval_full_grid(self):
        iset = trace_superset([(0, 1)], HyperGrid(100))
        assert runs_in(iset) == ((0, 100),)

    def test_enlargement_and_clamping(self):
        iset = trace_superset([(Fraction(1, 4), Fraction(1, 2))], HyperGrid(8))
        assert runs_in(iset) == ((1, 5),)  # trace 2..4 widened one index each side

    @pytest.mark.parametrize("interval", [(Fraction(1, 2), Fraction(1, 4)), (0, 2), (-1, 0)])
    def test_rejects_intervals_outside_the_unit_interval(self, interval):
        with pytest.raises(InputError, match=r"^intervals must satisfy 0 <= a <= b <= 1$"):
            trace_superset([(0, 1), interval], HyperGrid(8))

    def test_cantor_stage_runs(self):
        m, N = 2, 3**4
        iset = trace_superset(cantor_stage(m), HyperGrid(N))
        assert len(runs_in(iset)) == 2**m
        # interior runs widen by one index per side; the two boundary runs
        # clamp at the grid edge and only widen inward
        lengths = [b - a + 1 for a, b in runs_in(iset)]
        base = N // 3**m + 1
        assert lengths == [base + 1] + [base + 2] * (2**m - 2) + [base + 1]


    def test_cantor_stage_from_ternary_digits(self):
        # stage m keeps [t/3**m, (t+1)/3**m] for each t whose m ternary digits are 0 or 2
        for m in range(9):
            starts = sorted(
                sum(d * 3**k for k, d in enumerate(digits))
                for digits in itertools.product((0, 2), repeat=m)
            )
            expected = [(Fraction(t, 3**m), Fraction(t + 1, 3**m)) for t in starts]
            assert cantor_stage(m) == expected


@settings(max_examples=200, derandomize=True, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 60), st.integers(0, 60)), max_size=12))
def test_merge_runs_is_the_runs_of_the_union(pairs):
    # pairs come unsorted, reversed, overlapping and touching
    points = {k for i, j in pairs for k in range(min(i, j), max(i, j) + 1)}
    assert runs_in(merge_runs(pairs)) == runs_of(points)


_RATIONAL = st.integers(1, 50).flatmap(lambda q: st.integers(0, q).map(lambda p: Fraction(p, q)))


@settings(max_examples=200, derandomize=True, deadline=None)
@given(
    N=st.integers(2, 60),
    intervals=st.lists(st.tuples(_RATIONAL, _RATIONAL).map(sorted), max_size=6),
)
def test_trace_superset_matches_a_grid_scan(N, intervals):
    # every grid point in the set, widened by _ENLARGE and clamped to [0, N]
    inside = [i for i in range(N + 1) if any(a <= Fraction(i, N) <= b for a, b in intervals)]
    widened = {k for i in inside for k in range(max(0, i - _ENLARGE), min(N, i + _ENLARGE) + 1)}
    assert runs_in(trace_superset(intervals, HyperGrid(N))) == runs_of(widened)


class TestOuterHMeasure:
    def test_unit_interval_tends_to_one(self):
        grid = HyperGrid(10**5)
        rows = outer_h_measure([(0, 1)], 1, [Fraction(1, 10), Fraction(1, 100)], grid)
        for _, cost in rows:
            assert abs(cost - 1.0) < 1e-3

    def test_cantor_stage_stable_at_matched_delta(self):
        # cost = 2**m * (3**-m)**s = 1 up to the per-run remainder intervals,
        # whose total contribution shrinks by half per stage
        costs = []
        for m in (2, 3, 4):
            N = 3 ** (2 * m + 4)
            rows = outer_h_measure(
                cantor_stage(m), CANTOR_DIM, [Fraction(1, 3**m)], HyperGrid(N)
            )
            costs.append(rows[0][1])
        assert costs[0] == pytest.approx(1.0, abs=0.05)
        deviations = [abs(c - 1.0) for c in costs]
        assert deviations[0] > deviations[1] > deviations[2]

    def test_blowup_at_squared_delta(self):
        costs = []
        for m in range(2, 7):
            N = 3 ** (2 * m + 4)
            rows = outer_h_measure(
                cantor_stage(m), CANTOR_DIM, [Fraction(1, 3 ** (2 * m))], HyperGrid(N)
            )
            costs.append(rows[0][1])
        ratios = [b / a for a, b in zip(costs, costs[1:])]
        for r in ratios:
            assert 1.45 <= r <= 1.55

    def test_deltas_must_decrease(self):
        with pytest.raises(InputError):
            outer_h_measure([(0, 1)], 1, [Fraction(1, 100), Fraction(1, 10)], HyperGrid(1000))

    def test_csv_emitter(self):
        # one (delta, cost) row per delta; at s = 1 the cost is exactly card/N
        grid = HyperGrid(10**5)
        rows = outer_h_measure([(0, 1)], 1, [Fraction(1, 10), Fraction(1, 100)], grid)
        assert rows == [(Fraction(1, 10), 1.00001), (Fraction(1, 100), 1.00001)]


# ---------------------------------------------------------------------------
# properties

MAX_N = 512


@st.composite
def grid_and_set(draw):
    N = draw(st.integers(16, MAX_N))
    n_runs = draw(st.integers(1, 6))
    bounds = sorted(
        draw(
            st.lists(
                st.integers(0, N), min_size=2 * n_runs, max_size=2 * n_runs, unique=True
            )
        )
    )
    runs = []
    for i in range(0, len(bounds) - 1, 2):
        a, b = bounds[i], bounds[i + 1]
        if runs and a <= runs[-1][1] + 1:
            a = runs[-1][1] + 2
            if a > b:
                continue
        runs.append((a, b))
    if not runs:
        runs = [(0, 0)]
    return HyperGrid(N), from_runs(runs)


@settings(max_examples=150, derandomize=True, deadline=None)
@given(gs=grid_and_set(), d_small=st.integers(1, 16), d_big=st.integers(1, 16),
       s=st.sampled_from([0.3, 0.5, 1.0]))
def test_monotone_in_delta(gs, d_small, d_big, s):
    grid, B = gs
    lo, hi = sorted((d_small, d_big))
    # delta' = lo/N <= delta = hi/N; smaller delta never costs less
    cost_small = h_delta_s_greedy(B, Fraction(lo, grid.N), s, grid).cost
    cost_big = h_delta_s_greedy(B, Fraction(hi, grid.N), s, grid).cost
    assert cost_small >= cost_big - 1e-12 * max(1.0, cost_big)


@settings(max_examples=150, derandomize=True, deadline=None)
@given(gs=grid_and_set(), d=st.integers(1, 16),
       s_pair=st.sampled_from([(0.3, 0.5), (0.3, 1.0), (0.5, 1.0), (0.7, 0.9)]))
def test_monotone_in_s(gs, d, s_pair):
    grid, B = gs
    s_lo, s_hi = s_pair
    delta = Fraction(d, grid.N)
    cost_lo = h_delta_s_greedy(B, delta, s_lo, grid).cost
    cost_hi = h_delta_s_greedy(B, delta, s_hi, grid).cost
    assert cost_hi <= cost_lo + 1e-12 * max(1.0, cost_lo)


@settings(max_examples=150, derandomize=True, deadline=None)
@given(gs=grid_and_set(), d=st.integers(1, 16), s=st.sampled_from([0.3, 0.5, 1.0]))
def test_additive_over_separated_runs(gs, d, s):
    grid, B = gs
    delta = Fraction(d, grid.N)
    total = h_delta_s_greedy(B, delta, s, grid).cost
    parts = math.fsum(
        h_delta_s_greedy(from_runs((run,)), delta, s, grid).cost for run in runs_in(B)
    )
    assert total == pytest.approx(parts, rel=1e-12, abs=1e-15)


@settings(max_examples=150, derandomize=True, deadline=None)
@given(gs=grid_and_set(), d=st.integers(1, 16))
def test_s1_cost_is_cardinality_over_n(gs, d):
    grid, B = gs
    part = h_delta_s_greedy(B, Fraction(d, grid.N), 1, grid)
    assert part.cost == float(Fraction(B.card, grid.N))


@settings(max_examples=150, derandomize=True, deadline=None)
@given(gs=grid_and_set(), d=st.integers(1, 32), s=st.sampled_from([0.3, 0.5, 1.0]))
def test_greedy_equals_dp(gs, d, s):
    grid, B = gs
    delta = Fraction(d, grid.N)
    assert (
        h_delta_s_greedy(B, delta, s, grid).cost == h_delta_s_dp(B, delta, s, grid).cost
    )


def explicit_greedy(B, D):
    """Reference: the greedy intervals written out one by one."""
    intervals = []
    for i, j in runs_in(B):
        q, r = divmod(j - i + 1, D)
        pos = i
        for _ in range(q):
            intervals.append((pos, pos + D - 1))
            pos += D
        if r:
            intervals.append((pos, j))
    return intervals


def scalar_dp(B, D, s, N):
    """Reference: the DP with one scalar comparison per candidate, largest c on ties."""
    intervals = []
    for i, j in runs_in(B):
        length = j - i + 1
        dp, choice = [0.0] * (length + 1), [0] * (length + 1)
        for t in range(1, length + 1):
            best, best_c = math.inf, 0
            for c in range(min(D, t), 0, -1):
                cand = dp[t - c] + (c / N) ** s
                if cand < best:
                    best, best_c = cand, c
            dp[t], choice[t] = best, best_c
        parts, t = [], length
        while t > 0:
            parts.append(choice[t])
            t -= choice[t]
        pos = i
        for c in reversed(parts):
            intervals.append((pos, pos + c - 1))
            pos += c
    return intervals


@st.composite
def wide_grid_and_set(draw):
    N = draw(st.integers(16, 20_000))
    starts = sorted(draw(st.lists(st.integers(0, N), min_size=1, max_size=8, unique=True)))
    runs = []
    for a, nxt in zip(starts, starts[1:] + [N + 2]):
        b = min(draw(st.integers(a, N)), nxt - 2)
        if b >= a:
            runs.append((a, b))
    return HyperGrid(N), from_runs(runs or [(0, 0)])


@settings(max_examples=150, derandomize=True, deadline=None)
@given(gs=wide_grid_and_set(), d=st.integers(1, 64),
       s=st.one_of(st.sampled_from([1, Fraction(1, 3), 0.5]), st.floats(0.01, 1.0)))
def test_greedy_matches_explicit_expansion(gs, d, s):
    grid, B = gs
    assume(d <= grid.N)
    part = h_delta_s_greedy(B, Fraction(d, grid.N), s, grid)
    expected = explicit_greedy(B, d)
    assert len(part.intervals) == len(expected)
    assert list(part.intervals) == expected
    lengths = [b - a + 1 for a, b in expected]
    if s == 1:
        reference = float(Fraction(sum(lengths), grid.N))
    else:
        reference = math.fsum((c / grid.N) ** float(s) for c in lengths)
    assert part.cost == reference


@settings(max_examples=100, derandomize=True, deadline=None)
@given(gs=grid_and_set(), d=st.integers(1, 32), s=st.sampled_from([0.3, 0.5, 1.0]))
def test_dp_matches_scalar_reference(gs, d, s):
    grid, B = gs
    part = h_delta_s_dp(B, Fraction(d, grid.N), s, grid)
    expected = scalar_dp(B, d, float(s), grid.N)
    assert list(part.intervals) == expected
    lengths = [b - a + 1 for a, b in expected]
    if s == 1:
        assert part.cost == float(Fraction(sum(lengths), grid.N))
    else:
        assert part.cost == math.fsum((c / grid.N) ** s for c in lengths)
