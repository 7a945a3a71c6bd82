"""Box-counting estimator tests.

Derived expectations are recomputed inline: interval counts by direct index
arithmetic, carpet stage cells by explicit geometric enumeration, two-grid
values by plain float evaluation of the defining quotient.
"""

import inspect
import math
import random
from fractions import Fraction
from itertools import product
from unittest.mock import patch

import pytest
from hypothesis import assume, given, settings, strategies as st

from fractaldim import blockset, boxdim, selfsimilar
from fractaldim.boxdim import (
    BOUNDED,
    DIVERGES,
    VANISHES,
    CountSeries,
    ExplicitSource,
    IntervalSource,
    RuleSource,
    classify_d,
    closure_count_check,
    count_series,
    count_series_from_csv,
    count_series_to_csv,
    critical_d,
    occupied_cells,
    slope_dim,
    two_grid_dim,
)
from fractaldim.errors import (
    DegenerateGridError,
    InputError,
)
from fractaldim.selfsimilar import dim_from_rule, rule
from fractaldim.seqgen import SequenceSpec


def carpet_cells_oracle(m: int) -> set[tuple[int, int]]:
    """Stage-m carpet cells by direct subdivision (independent of 8**m)."""
    cells = {(0, 0)}
    for _ in range(m):
        nxt = set()
        for i, j in cells:
            for di in range(3):
                for dj in range(3):
                    if (di, dj) != (1, 1):
                        nxt.add((3 * i + di, 3 * j + dj))
        cells = nxt
    return cells


class TestCountSeries:
    def test_unit_interval(self):
        src = IntervalSource(0, 1, base=2)
        series = count_series(src, [1, 5, 10])
        assert series.counts == (2, 32, 1024)
        assert (series.nums[-1], series.dens[-1]) == (1, 1024)

    @pytest.mark.parametrize("base, err", [
        (1, "deltas must be strictly decreasing"),
        (0, "deltas must be fractions in lowest terms with positive denominators"),
        (-2, "deltas must be fractions in lowest terms with positive denominators"),
    ])
    def test_a_base_below_two_gives_the_series_error(self, base, err):
        # the budget's check on the deltas' powers takes a logarithm of the base
        with pytest.raises(InputError) as exc:
            count_series(ExplicitSource({1: 2, 2: 4}, base=base), [1, 2])
        assert str(exc.value) == err

    @settings(max_examples=120, derandomize=True, deadline=None)
    @given(levels=st.lists(st.integers(0, 60), min_size=1, max_size=8),
           base=st.integers(2, 10), a=st.fractions(0, 1), b=st.fractions(0, 1),
           kind=st.sampled_from(["interval", "rule", "schedule"]))
    def test_interval_counts_in_any_level_order(self, levels, base, a, b, kind):
        # a fresh source counts level m from level 0
        a, b = min(a, b), max(a, b)
        schedule = blockset.BlockSchedule(
            base=base, alphabet=base, zeros=SequenceSpec.arithmetic(1, 1)
        )
        make = {
            "interval": lambda: IntervalSource(a, b, base=base),
            "rule": lambda: RuleSource(selfsimilar.PieceRule("r", base + 1, base, 2)),
            "schedule": lambda: blockset.BlockCellSource(schedule),
        }[kind]
        src = make()
        assert [src.count(m) for m in levels] == [make().count(m) for m in levels]

    @settings(max_examples=60, derandomize=True, deadline=None)
    @given(levels=st.sets(st.integers(0, 80), min_size=1, max_size=12).map(sorted),
           base=st.integers(2, 10), a=st.fractions(0, 1), b=st.fractions(0, 1),
           name=st.sampled_from(["cantor", "carpet", "menger_sponge"]),
           alphabet=st.integers(2, 10), first=st.integers(1, 4), step=st.integers(0, 3),
           extra=st.lists(st.integers(0, 10**30), min_size=81, max_size=81))
    def test_level_counts_match_each_sources_oracle(
        self, levels, base, a, b, name, alphabet, first, step, extra
    ):
        a, b = min(a, b), max(a, b)

        def cells(m):  # indices of the cells holding a and b, the last cell holding 1
            s = base**m
            return min(b.numerator * s // b.denominator, s - 1) - min(
                a.numerator * s // a.denominator, s - 1
            ) + 1

        assert list(IntervalSource(a, b, base=base).level_counts(levels)) == list(map(cells, levels))
        pieces = rule(name).pieces
        assert list(RuleSource(rule(name)).level_counts(levels)) == [pieces**m for m in levels]
        schedule = blockset.BlockSchedule(
            base=max(base, alphabet), alphabet=alphabet, zeros=SequenceSpec.arithmetic(first, step)
        )
        assert list(blockset.BlockCellSource(schedule).level_counts(levels)) == [
            blockset.cover_count(schedule, m) for m in levels
        ]
        counts = dict(enumerate(extra))
        assert list(ExplicitSource(counts).level_counts(levels)) == [counts[m] for m in levels]

    @pytest.mark.parametrize("source", [IntervalSource(0, 1, base=2), RuleSource(rule("cantor"))])
    def test_levels_below_the_last_are_refused(self, source):
        # growing the level-3 power by base**(1 - 3) would give the float count 2.0
        with pytest.raises(InputError, match=r"^exponent 1 after 3: levels must be nondecreasing"):
            list(source.level_counts([3, 1]))
        with pytest.raises(InputError, match=r"^exponent -1 after 0: "):
            source.count(-1)  # was the float 0.5

    def test_carpet_rule_counts(self):
        series = count_series(RuleSource(rule("carpet")), [1, 2, 3])
        assert series.counts == (8, 64, 512)
        assert series.counts[1] == len(carpet_cells_oracle(2))

    def test_subinterval_counts_by_index_arithmetic(self):
        src = IntervalSource(Fraction(1, 4), Fraction(1, 2), base=2)
        # level 3: cells 2..4 meet [1/4, 1/2]
        assert src.count(3) == 3
        # oracle: count cells whose closure was entered, on a few levels
        for m in range(1, 10):
            scale = 2**m
            expected = sum(
                1
                for i in range(scale)
                if Fraction(i, scale) <= Fraction(1, 2)
                and Fraction(i + 1, scale) > Fraction(1, 4)
            )
            assert src.count(m) == expected

    def test_levels_validated(self):
        with pytest.raises(InputError):
            count_series(IntervalSource(0, 1), [])
        with pytest.raises(InputError):
            count_series(IntervalSource(0, 1), [3, 3])

    def test_csv_round_trip(self):
        series = count_series(RuleSource(rule("cantor")), [1, 2, 5])
        lines = list(count_series_to_csv(series))
        back = count_series_from_csv(lines)
        assert back == series
        assert lines[:2] == ["m,delta,n_cells", "1,1/3,2"]
        # rows past 2,000 bits, read from the row above where they are multiples of it
        schedule = blockset.BlockSchedule(base=10, alphabet=10, zeros=SequenceSpec.geometric(1, 2))
        for source, levels in (
            (RuleSource(rule("menger")), range(1, 701)),
            (IntervalSource(Fraction(1, 3), Fraction(2, 3)), range(1, 2501)),  # not multiples
            (blockset.BlockCellSource(schedule), range(1, 2501)),  # runs of equal counts
        ):
            series = count_series(source, list(levels))
            assert count_series_from_csv(count_series_to_csv(series)) == series


    @settings(max_examples=100, derandomize=True, deadline=None)
    @given(kind=st.sampled_from(["rule", "interval", "schedule"]), base=st.integers(2, 12),
           levels=st.sets(st.integers(0, 400), min_size=1, max_size=40).map(sorted),
           a=st.fractions(0, 1), b=st.fractions(0, 1), ratio=st.integers(1, 4))
    def test_csv_round_trip_of_every_source(self, kind, base, levels, a, b, ratio):
        # the CSV holds every column of the series
        source = {
            "rule": lambda: RuleSource(selfsimilar.PieceRule("r", base + 1, base, 2)),
            "interval": lambda: IntervalSource(min(a, b), max(a, b), base=base),
            "schedule": lambda: blockset.BlockCellSource(blockset.BlockSchedule(
                base=base, alphabet=base, zeros=SequenceSpec.geometric(1, ratio, horizon=400))),
        }[kind]()
        series = count_series(source, levels)
        back = count_series_from_csv(count_series_to_csv(series))
        assert back == series
        assert back.nums == (1,) * len(levels) and back.dens == tuple(base**m for m in levels)


class TestSlopeDim:
    def test_cantor_rule(self):
        series = count_series(RuleSource(rule("cantor")), list(range(1, 21)))
        lo, hi = slope_dim(series, 5)
        d = math.log(2) / math.log(3)
        assert lo == pytest.approx(d, abs=1e-12)
        assert hi == pytest.approx(d, abs=1e-12)

    def test_unit_square(self):
        from fractaldim.selfsimilar import PieceRule

        square = PieceRule("unit_square", 4, 2, 2)
        series = count_series(RuleSource(square), list(range(1, 15)))
        assert slope_dim(series, 4) == (pytest.approx(2.0), pytest.approx(2.0))

    def test_doubling_blockset_cut_sampling(self):
        sch = blockset.BlockSchedule(
            base=2, alphabet=2, zeros=SequenceSpec.geometric(1, 2)
        )
        rep = blockset.dim_bounds(sch, 10)
        levels = sorted(m for _, m, _, _ in rep.lower_samples + rep.upper_samples)
        assert len(levels) == 22
        series = count_series(blockset.BlockCellSource(sch), levels)
        lo, hi = slope_dim(series, 8)
        assert hi == pytest.approx(0.5, abs=1e-12)
        assert lo == pytest.approx(1 / 3, abs=1e-3)

    def test_degenerate_all_ones(self):
        series = CountSeries((1, 2, 3), (1, 1, 1), (2, 4, 8), (1, 1, 1))
        assert slope_dim(series, 3) == (0.0, 0.0)

    def test_tail_validation(self):
        series = count_series(IntervalSource(0, 1), [1, 2, 3])
        with pytest.raises(InputError):
            slope_dim(series, 1)
        with pytest.raises(InputError):
            slope_dim(series, 4)


class TestTwoGrid:
    def test_interval_example(self):
        res = two_grid_dim(2**20 - 1, 2**10 - 1, Fraction(1, 2**20), Fraction(1, 2**10))
        assert res.d == pytest.approx(1.00014, abs=1e-4)
        # straight float evaluation agrees
        direct = math.log((2**20 - 1) / (2**10 - 1)) / math.log(2**10)
        assert res.d == pytest.approx(direct, abs=1e-12)

    def test_carpet_alignment_exact(self):
        expected = math.log(8) / math.log(3)
        for p, q in ((1, 4), (2, 5), (2, 6)):
            res = two_grid_dim(
                8**q, 8**p, Fraction(1, 3**q), Fraction(1, 3**p)
            )
            assert res.d == expected  # bitwise, by exponent cancellation

    def test_rule_catalog_independent_of_levels(self):
        for name in ("cantor", "cantor5", "carpet", "gasket", "menger", "hyperpyramid"):
            r = rule(name)
            results = {
                two_grid_dim(
                    r.pieces**q, r.pieces**p, Fraction(1, r.scale**q), Fraction(1, r.scale**p)
                ).d
                for p, q in ((1, 3), (2, 5), (1, 7), (3, 4))
            }
            assert len(results) == 1, name
            assert results.pop() == pytest.approx(dim_from_rule(r), abs=1e-12)

    def test_equal_counts_give_zero(self):
        res = two_grid_dim(7, 7, Fraction(1, 16), Fraction(1, 4))
        assert res.d == 0.0

    def test_degenerate_grid(self):
        with pytest.raises(DegenerateGridError):
            two_grid_dim(4, 2, Fraction(1, 4), Fraction(1, 4))

    def test_ordering_validated(self):
        with pytest.raises(InputError):
            two_grid_dim(4, 2, Fraction(1, 2), Fraction(1, 4))
        with pytest.raises(InputError):
            two_grid_dim(2, 4, Fraction(1, 8), Fraction(1, 4))

    def test_common_root_search_is_short(self, monkeypatch):
        # a search over every exponent of each big count makes thousands of calls
        calls = []
        iroot = boxdim._iroot

        def counted(n, k):
            calls.append(k)
            return iroot(n, k)

        monkeypatch.setattr(boxdim, "_iroot", counted)
        rng = random.Random(5)
        n_h = rng.getrandbits(3000) | (1 << 2999) | 1
        n_k = rng.getrandbits(2400) | (1 << 2399) | 1
        res = two_grid_dim(n_h, n_k, Fraction(1, 2**20), Fraction(1, 2**9))
        assert len(calls) <= 40
        direct = (math.log(n_h) - math.log(n_k)) / math.log(2**11)
        assert res.d == pytest.approx(direct, rel=1e-12)

    def test_common_root_search_tries_prime_exponents_only(self, monkeypatch):
        # every integer above 1 is large, so no small one rejects exponents early;
        # the 550 primes below 4,000 bound the calls, where trying every exponent made about 4,000
        calls = []
        iroot = boxdim._iroot

        def counted(n, k):
            calls.append(k)
            return iroot(n, k)

        monkeypatch.setattr(boxdim, "_iroot", counted)
        rng = random.Random(6)
        H = 2 * (rng.getrandbits(4000) | (1 << 3999) | 1)
        n_h = rng.getrandbits(4500) | (1 << 4499)
        res = two_grid_dim(n_h, 1, Fraction(1, H), Fraction(1, 2))
        assert len(calls) <= 560
        assert res.d == pytest.approx(math.log(n_h) / math.log(H // 2), rel=1e-12)


class TestClassify:
    @pytest.fixture()
    def cantor_series(self):
        return count_series(RuleSource(rule("cantor")), list(range(1, 21)))

    def test_deltas_tied_as_float_logarithms(self):
        # distinct rationals, one float log(delta): no exponent separates their steps
        series = CountSeries((1, 2, 3), (1, 1, 1), (3, 10**20, 10**20 + 1), (2, 4, 8))
        assert math.log(series.dens[1]) == math.log(series.dens[2])
        with pytest.raises(InputError, match="strictly decreasing float logarithms"):
            classify_d(series, 1.0)

    def test_below_diverges(self, cantor_series):
        assert classify_d(cantor_series, 0.5) == DIVERGES

    def test_above_vanishes(self, cantor_series):
        assert classify_d(cantor_series, 0.7) == VANISHES

    def test_critical_bounded(self, cantor_series):
        assert classify_d(cantor_series, math.log(2) / math.log(3)) == BOUNDED

    def test_monotone_in_d(self, cantor_series):
        d_star = math.log(2) / math.log(3)
        for d in (0.0, 0.2, 0.4, 0.6):
            assert classify_d(cantor_series, d) == DIVERGES
        for d in (0.67, 0.8, 1.0):
            assert classify_d(cantor_series, d) == VANISHES
        assert d_star < 0.67


class TestCriticalD:
    @pytest.mark.parametrize(
        "name,expected",
        [
            ("cantor5", math.log(3) / math.log(5)),
            ("menger", math.log(20) / math.log(3)),
            ("hyperpyramid", math.log(9) / math.log(2)),
        ],
    )
    def test_catalog_examples(self, name, expected):
        series = count_series(RuleSource(rule(name)), list(range(1, 26)))
        result = critical_d(series, tol=1e-9)
        assert result.d == pytest.approx(expected, abs=1e-6)

    def test_agrees_with_slope(self):
        for name in ("cantor", "carpet", "gasket"):
            series = count_series(RuleSource(rule(name)), list(range(1, 26)))
            lower, _ = slope_dim(series, 5)
            result = critical_d(series, tol=1e-8)
            assert abs(result.d - lower) < 2e-8

    def test_degenerate_flat_counts(self):
        series = CountSeries((1, 2, 3, 4), (1,) * 4, (2, 4, 8, 16), (5,) * 4)
        result = critical_d(series, tol=1e-6)
        assert result.degenerate
        assert result.d == pytest.approx(math.log(5) / math.log(16), abs=1e-12)

    def test_union_critical_is_max_dim(self):
        # two rules on a shared radix, counts added: the critical exponent
        # of the sum is the larger dimension
        pairs = [("cantor", "carpet"), ("gasket", "hyperpyramid")]
        for a, b in pairs:
            ra, rb = rule(a), rule(b)
            assert ra.scale == rb.scale
            counts = {
                m: ra.pieces**m + rb.pieces**m for m in range(1, 26)
            }
            src = ExplicitSource(counts, base=ra.scale, ambient_dim=max(ra.ambient_dim, rb.ambient_dim) + 1)
            series = count_series(src, list(range(1, 26)))
            result = critical_d(series, tol=1e-7)
            expected = max(dim_from_rule(ra), dim_from_rule(rb))
            assert result.d == pytest.approx(expected, abs=1e-4)


class TestClosureCheck:
    def test_equally_spaced_rationals_match_interval(self):
        for m in range(1, 8):
            points = [Fraction(i, 2**m) for i in range(2**m + 1)]
            report = closure_count_check(points, IntervalSource(0, 1), m)
            assert report.equal

    def test_blockset_exhaustive_prefixes(self):
        sch = blockset.BlockSchedule(
            base=2, alphabet=2, zeros=SequenceSpec.geometric(1, 2)
        )
        src = blockset.BlockCellSource(sch)
        for m in (4, 6, 10):
            # every admissible m-digit prefix, as brute_force_cover builds them
            roles = [blockset.digit_role(sch, k) for k in range(1, m + 1)]
            digits = product(*[range(2) if r == blockset.FREE else (0,) for r in roles])
            points = [Fraction(int("".join(map(str, ds)), 2), 2**m) for ds in digits]
            report = closure_count_check(points, src, m)
            assert report.equal and report.sample_cells == len(points)

    def test_single_point_unequal(self):
        report = closure_count_check([Fraction(1, 2)], IntervalSource(0, 1), 5)
        assert not report.equal
        assert report.sample_cells == 1 and report.reference_cells == 32

    def test_endpoint_attribution(self):
        # the point 1 belongs to the last cell of the unit grid
        assert occupied_cells([Fraction(1)], 2, 3) == {(7,)}

    @pytest.mark.parametrize(
        "good, point, reference, ambient",
        [
            (Fraction(0), (Fraction(1, 2), Fraction(1, 4)), IntervalSource(0, 1), 1),
            ((0, 0), Fraction(1, 2), RuleSource(rule("carpet")), 2),
        ],
    )
    def test_a_point_of_the_wrong_arity_is_refused(self, good, point, reference, ambient):
        # the reference source's ambient dimension sets each point's arity
        with pytest.raises(InputError) as exc:
            closure_count_check([good, point], reference, 3)
        assert str(exc.value) == f"point {point!r} has wrong arity for ambient {ambient}"


# ---------------------------------------------------------------------------
# properties


@settings(max_examples=120, derandomize=True, deadline=None)
@given(
    p=st.integers(2, 40),
    r=st.integers(2, 9),
    p1=st.integers(1, 10),
    span=st.integers(1, 10),
)
def test_two_grid_matches_rule_dimension(p, r, p1, span):
    p2 = p1 + span
    res = two_grid_dim(p**p2, p**p1, Fraction(1, r**p2), Fraction(1, r**p1))
    assert res.d == pytest.approx(math.log(p) / math.log(r), abs=1e-12)


def _reference_root(x: int, g: int) -> int | None:
    """The integer g-th root of x from a float seed and its neighbours, if x has one."""
    seed = round(x ** (1 / g))
    return next((r for r in (seed - 1, seed, seed + 1) if r >= 0 and r**g == x), None)


def _reference_two_grid_d(num: Fraction, den: Fraction) -> float:
    """log(num)/log(den) after taking the largest common integer root, found by trying every g."""
    parts = [num.numerator, num.denominator, den.numerator, den.denominator]
    for g in range(max(parts).bit_length(), 0, -1):
        roots = [_reference_root(x, g) for x in parts]
        if None not in roots:
            break
    a, b, c, d = roots
    return (math.log(a) - math.log(b)) / (math.log(c) - math.log(d))


@settings(max_examples=300, derandomize=True, deadline=None)
@given(
    num_base=st.tuples(st.integers(1, 12), st.integers(1, 12)),
    den_base=st.tuples(st.integers(1, 12), st.integers(1, 12)),
    common=st.integers(1, 4),
    e_num=st.integers(0, 3),
    e_den=st.integers(1, 3),
    k_inv=st.integers(2, 5),
)
def test_two_grid_cancels_common_roots_exactly(num_base, den_base, common, e_num, e_den, k_inv):
    # rational powers (a/b)**(t*e) over (c/d)**(t*f): all four integers share the root t
    assume(den_base[0] != den_base[1])
    num = Fraction(max(num_base), min(num_base)) ** (common * e_num)
    den = Fraction(max(den_base), min(den_base)) ** (common * e_den)
    k = Fraction(1, k_inv)
    res = two_grid_dim(num.numerator, num.denominator, k / den, k)
    assert res.d == _reference_two_grid_d(num, den)  # bitwise


def _bisected_root(n: int, k: int) -> int:
    lo, hi = 0, 1 << (n.bit_length() // k + 1)
    while lo < hi:
        mid = (lo + hi + 1) // 2
        lo, hi = (mid, hi) if mid**k <= n else (lo, mid - 1)
    return lo


@settings(max_examples=300, derandomize=True, deadline=None)
@given(
    k=st.integers(1, 40) | st.sampled_from([2, 1009, 5003]),
    offset=st.sampled_from([-1, 0, 1]),
    data=st.data(),
)
def test_iroot_is_the_floor_root(k, offset, data):
    # exact powers and their neighbours, where a seed or a Newton step off by one would show;
    # roots past 2**64 take the seed from the root of their top bits
    root = data.draw(st.integers(0, 2 ** (6000 // k + 1)))
    n = max(0, root**k + offset)
    assert boxdim._iroot(n, k) == (math.isqrt(n) if k == 2 else _bisected_root(n, k))


@settings(max_examples=120, derandomize=True, deadline=None)
@given(
    counts1=st.lists(st.integers(1, 10**6), min_size=4, max_size=8),
    bumps=st.lists(st.integers(0, 10**6), min_size=8, max_size=8),
)
def test_subset_monotone_slope_bounds(counts1, bumps):
    counts1 = sorted(counts1)
    counts2 = [c + b for c, b in zip(counts1, bumps)]
    levels = list(range(1, len(counts1) + 1))
    s1 = count_series(ExplicitSource(dict(zip(levels, counts1))), levels)
    s2 = count_series(ExplicitSource(dict(zip(levels, counts2))), levels)
    lo1, hi1 = slope_dim(s1, len(levels))
    lo2, hi2 = slope_dim(s2, len(levels))
    assert lo1 <= lo2 + 1e-12
    assert hi1 <= hi2 + 1e-12


@settings(max_examples=120, derandomize=True, deadline=None)
@given(
    num_a=st.integers(0, 99),
    num_b=st.integers(1, 100),
    m=st.integers(1, 9),
)
def test_dense_interval_samples_count_like_the_interval(num_a, num_b, m):
    assume(num_a < num_b)
    a, b = Fraction(num_a, 100), Fraction(num_b, 100)
    src = IntervalSource(a, b, base=2)
    scale = 2**m
    points = []
    for i in range(scale):
        lo, hi = Fraction(i, scale), Fraction(i + 1, scale)
        if lo <= b and hi > a:  # cell meets [a, b]: pick a point of the overlap
            points.append(max(a, lo))
    report = closure_count_check(points, src, m)
    assert report.equal


@settings(max_examples=100, derandomize=True, deadline=None)
@given(d_offset=st.floats(0.02, 1.0), sign=st.sampled_from([-1, 1]))
def test_classify_monotone_around_critical(d_offset, sign):
    series = count_series(RuleSource(rule("carpet")), list(range(1, 15)))
    d_star = math.log(8) / math.log(3)
    d = d_star + sign * d_offset
    if d < 0:
        d = 0.0
    verdict = classify_d(series, d)
    assert verdict == (VANISHES if sign > 0 else DIVERGES)


def _reference_critical_d(series, tol: float, top: float) -> float:
    """The bisection of critical_d over [0, top] with every log taken afresh on each step."""
    n = len(series.levels)
    window = list(zip(series.counts, series.nums, series.dens))[-max(3, n - n // 3):]

    def verdict(d):
        g = [math.log(count) + d * (math.log(num) - math.log(den)) for count, num, den in window]
        bound = 1e-12 * max(1.0, max(abs(v) for v in g))
        diffs = [b - a for a, b in zip(g, g[1:])]
        if all(x > bound for x in diffs):
            return DIVERGES
        if all(x < -bound for x in diffs):
            return VANISHES
        return BOUNDED

    lo, hi = 0.0, top
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        v = verdict(mid)
        if v == DIVERGES:
            lo = mid
        elif v == VANISHES:
            hi = mid
        else:
            return mid
    return 0.5 * (lo + hi)


@settings(max_examples=60, derandomize=True, deadline=None)
@given(
    name=st.sampled_from(sorted(selfsimilar.RULES)),
    first=st.integers(0, 40),
    length=st.integers(3, 120),
    tol=st.sampled_from([1e-6, 1e-9, 1e-12]),
)
def test_critical_d_matches_per_step_logs(name, first, length, tol):
    series = count_series(RuleSource(rule(name)), list(range(first, first + length)))
    top = float(rule(name).ambient_dim)
    assert critical_d(series, tol=tol, d_max=top).d == _reference_critical_d(series, tol, top)  # bitwise


@pytest.mark.parametrize(
    "source",
    [
        RuleSource(rule("menger")),  # each count divides the next
        IntervalSource(Fraction(1, 3), Fraction(2, 3)),
        IntervalSource(Fraction(1, 7), Fraction(5, 7), base=3),
    ],
)
def test_critical_d_top_from_per_step_slopes(source):
    # without d_max the bracket's top is the largest step slope plus 1
    series = count_series_from_csv(count_series_to_csv(count_series(source, list(range(1, 300)))))
    n = len(series.levels)
    window = list(zip(series.counts, series.nums, series.dens))[-max(3, n - n // 3):]

    def log(f):
        return math.log(f.numerator) - math.log(f.denominator)

    steps = [
        log(Fraction(b[0], a[0])) / (log(Fraction(*a[1:])) - log(Fraction(*b[1:])))
        for a, b in zip(window, window[1:])
    ]
    assert critical_d(series, tol=1e-9) == critical_d(series, tol=1e-9, d_max=max(steps) + 1.0)


@settings(max_examples=150, derandomize=True, deadline=None)
@given(
    source=st.one_of(
        st.sampled_from(sorted(selfsimilar.RULES)).map(lambda name: RuleSource(rule(name))),
        st.tuples(st.integers(0, 14), st.integers(0, 14), st.integers(2, 5)).map(
            lambda t: IntervalSource(Fraction(min(t[:2]), 14), Fraction(max(t[:2]), 14), base=t[2])),
        st.tuples(st.integers(2, 5), st.integers(0, 3), st.integers(1, 3), st.integers(1, 3)).map(
            lambda t: blockset.BlockCellSource(blockset.BlockSchedule(
                base=t[0], alphabet=t[0] - t[1] % (t[0] - 1), zeros=SequenceSpec.geometric(t[2], t[3])))),
    ),
    first=st.integers(0, 30),
    length=st.integers(1, 90),
)
def test_a_series_and_its_csv_agree(source, first, length):
    # the CSV holds the whole series, so both give the same critical exponent or refusal
    series = count_series(source, list(range(first, first + length)))
    back = count_series_from_csv(count_series_to_csv(series))
    assert back == series
    outcomes = []
    for each in (series, back):
        try:
            outcomes.append(critical_d(each, 1e-9))
        except InputError as exc:
            outcomes.append(str(exc))
    assert outcomes[0] == outcomes[1]


@st.composite
def _tail_series(draw):
    """A catalog rule read back from CSV, counts with +-1 offsets, mixed ratios or huge counts."""
    kind = draw(st.sampled_from(("rule", "offsets", "mixed", "huge")))
    first = draw(st.integers(1, 30))
    levels = list(range(first, first + draw(st.integers(3, 80))))
    if kind == "rule":
        name = draw(st.sampled_from(sorted(selfsimilar.RULES)))
        return count_series_from_csv(count_series_to_csv(count_series(RuleSource(rule(name)), levels)))
    if kind == "mixed":  # each step divides delta by r and multiplies the count by p
        steps = draw(st.lists(st.tuples(st.sampled_from((2, 3, 5, 7)), st.integers(1, 40)),
                              min_size=len(levels), max_size=len(levels)))
        dens, counts, den, count = [], [], 1, 1
        for r, p in steps:
            den, count = den * r, count * p
            dens.append(den), counts.append(count)
        return CountSeries(tuple(levels), (1,) * len(levels), tuple(dens), tuple(counts))
    pieces, scale = draw(st.integers(2, 30)), draw(st.integers(2, 5))
    offsets = draw(st.lists(st.sampled_from((-1, 0, 1)), min_size=len(levels), max_size=len(levels)))
    lift = 20**1500 if kind == "huge" else 1  # counts near 20**1500: a large tail tolerance
    counts = tuple(lift * pieces**m + e for m, e in zip(levels, offsets))
    return CountSeries(tuple(levels), (1,) * len(levels), tuple(scale**m for m in levels), counts)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(series=_tail_series(), top=st.floats(0.0, 60.0), data=st.data())
def test_certified_bracket_agrees_with_classify_d(series, top, data):
    # wherever the bracket decides a verdict without classify_d, it is classify_d's
    classify = boxdim._certified_classify(series, top)
    bracket = inspect.getclosurevars(classify).nonlocals
    points = [0.0, top, *data.draw(st.lists(st.floats(0.0, top), min_size=10, max_size=10))]
    for edge in (bracket["d_a"], bracket["d_b"]):  # a few ulps either side of each edge
        below = above = edge
        for _ in range(4):
            below, above = math.nextafter(below, -math.inf), math.nextafter(above, math.inf)
            points += [below, above]
    with patch.object(boxdim, "classify_d", lambda series, d: None):
        decided = [(d, classify(d)) for d in points]
    for d, verdict in decided:
        if verdict is not None:
            assert 0.0 <= d <= top
            assert verdict == classify_d(series, d), d


def _reference_bracket(series, tol: float, d_max=None) -> tuple[float, float, float]:
    """(d, lo, hi) of critical_d's bisection, with classify_d called on every step."""
    n = len(series.levels)
    window = list(zip(series.counts, series.nums, series.dens))[-max(3, n - n // 3):]

    def log(f):
        return math.log(f.numerator) - math.log(f.denominator)

    if d_max is None:
        d_max = max(log(Fraction(b[0], a[0])) / (log(Fraction(*a[1:])) - log(Fraction(*b[1:])))
                    for a, b in zip(window, window[1:])) + 1.0

    def edge(outer, inner, verdict):
        width = math.inf
        while tol < abs(inner - outer) < width:
            width = abs(inner - outer)
            mid = 0.5 * (outer + inner)
            if classify_d(series, mid) == verdict:
                outer = mid
            else:
                inner = mid
        return outer

    lo, hi = 0.0, float(d_max)
    if classify_d(series, hi) == DIVERGES:
        raise InputError(f"series still diverges at d_max={d_max}")
    width = math.inf
    while tol < hi - lo < width:
        width = hi - lo
        mid = 0.5 * (lo + hi)
        verdict = classify_d(series, mid)
        if verdict == DIVERGES:
            lo = mid
        elif verdict == VANISHES:
            hi = mid
        else:
            return mid, edge(lo, mid, DIVERGES), edge(hi, mid, VANISHES)
    return 0.5 * (lo + hi), lo, hi


@pytest.mark.parametrize("tol", [1e-3, 1e-9, 1e-12, 1e-17])
@pytest.mark.parametrize("with_d_max", [False, True])
@settings(max_examples=15, derandomize=True, deadline=None)
@given(
    source=st.one_of(
        st.sampled_from(sorted(selfsimilar.RULES)).map(lambda name: RuleSource(rule(name))),
        st.tuples(st.integers(0, 6), st.integers(1, 7), st.integers(2, 5)).map(
            lambda t: IntervalSource(Fraction(t[0], 14), Fraction(t[0] + t[1], 14), base=t[2])),
    ),
    first=st.integers(1, 30),
    length=st.integers(3, 100),
    given_d_max=st.sampled_from([0.5, 1.7, 3.5, 40.0]),  # 0.5 is below most of them
)
def test_critical_d_bracket_matches_a_per_step_bisection(
    source, first, length, given_d_max, with_d_max, tol
):
    d_max = given_d_max if with_d_max else None
    levels = list(range(first, first + length))
    series = count_series_from_csv(count_series_to_csv(count_series(source, levels)))
    tail = series.counts[-max(3, length - length // 3):]
    assume(all(a < b for a, b in zip(tail, tail[1:])))  # else the slope is returned, flagged
    try:
        expected = _reference_bracket(series, tol, d_max)
    except InputError as exc:
        with pytest.raises(InputError) as caught:
            critical_d(series, tol=tol, d_max=d_max)
        assert str(caught.value) == str(exc)
        return
    result = critical_d(series, tol=tol, d_max=d_max)
    assert (result.d, result.lo, result.hi, result.degenerate) == (*expected, False)  # bitwise


@pytest.mark.parametrize(
    "a, b, first_bounded",
    [
        (Fraction(1, 3), Fraction(2, 3), 0.998046875),
        (Fraction(1, 7), Fraction(5, 7), 0.99951171875),
    ],
)
def test_critical_d_brackets_the_interval_dimension(a, b, first_bounded):
    # d stays the first midpoint classified bounded, below the true value 1;
    # the band between diverges and vanishes around it must contain 1
    result = critical_d(count_series(IntervalSource(a, b), list(range(1, 31))), tol=1e-9, d_max=1.0)
    assert result.d == first_bounded
    assert result.lo <= result.d <= result.hi
    assert result.lo <= 1.0 <= result.hi
    assert result.hi - result.lo < 0.01
