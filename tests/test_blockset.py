"""Digit-block set tests.

The independent oracle for cover counts enumerates every base-beta prefix
of length m and keeps those with a zero at each forced position; the
sigma**X(m) fast path must agree with it everywhere it is feasible.
"""

import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from fractaldim import blockset
from fractaldim.blockset import (
    AFTER_FREES,
    AFTER_ZEROS,
    FORCED_ZERO,
    FREE,
    BlockCellSource,
    BlockSchedule,
    cover_count,
    digit_role,
    dim_bounds,
    dim_report_csv,
    hausdorff_dim,
    schedule_from_json,
    x_count,
)
from fractaldim.errors import (
    BudgetExceededError,
    HorizonExceededError,
    InputError,
    OutOfRangeError,
)
from fractaldim.seqgen import SequenceSpec


def doubling_schedule(**kw) -> BlockSchedule:
    return BlockSchedule(base=2, alphabet=2, zeros=SequenceSpec.geometric(1, 2), **kw)


def brute_force_cover(schedule: BlockSchedule, m: int) -> int:
    """Oracle: enumerate all beta**m prefixes, keep the admissible ones."""
    roles = [digit_role(schedule, i) for i in range(1, m + 1)]
    count = 0
    for digits in itertools.product(range(schedule.base), repeat=m):
        ok = all(
            (d == 0) if role == FORCED_ZERO else (d < schedule.alphabet)
            for d, role in zip(digits, roles)
        )
        count += ok
    return count


def cut_table(schedule: BlockSchedule, n_max: int) -> list[tuple[int, str, int, int]]:
    """(n, kind, m, x_count) of each cut, read back from the report's CSV rows in row order."""
    rows = [row.split(",") for row in dim_report_csv(dim_bounds(schedule, n_max))]
    assert rows[0][:4] == ["kind", "n", "m", "x_count"]
    return [(int(n), kind, int(m), int(x)) for kind, n, m, x, _, _ in rows[1:]]


class TestDigitRole:
    def test_doubling_pattern(self):
        sch = doubling_schedule()
        # 0x 00xx 0000xxxx ...
        expected = "0x00xx0000xxxx"
        for m, ch in enumerate(expected, start=1):
            want = FREE if ch == "x" else FORCED_ZERO
            assert digit_role(sch, m) == want, m

    def test_position_8_in_zero_block(self):
        assert digit_role(doubling_schedule(), 8) == FORCED_ZERO

    def test_out_of_range(self):
        sch = doubling_schedule(m_cap=100)
        with pytest.raises(OutOfRangeError):
            digit_role(sch, 0)
        with pytest.raises(OutOfRangeError):
            digit_role(sch, 101)

    def test_beyond_horizon(self):
        sch = BlockSchedule(
            base=2, alphabet=2, zeros=SequenceSpec.arithmetic(1, 0, horizon=3)
        )
        with pytest.raises(HorizonExceededError):
            digit_role(sch, 9)  # blocks cover only 8 positions


class TestCutPoints:
    def test_doubling_families(self):
        cuts = cut_table(doubling_schedule(), 4)
        zeros = [m for _, kind, m, _ in cuts if kind == AFTER_ZEROS]
        frees = [m for _, kind, m, _ in cuts if kind == AFTER_FREES]
        assert zeros == [3 * 2**k - 2 for k in range(5)]  # 1, 4, 10, 22, 46
        assert frees == [2 ** (k + 2) - 2 for k in range(5)]  # 2, 6, 14, 30, 62

    def test_ordered_by_m(self):
        ms = [m for _, _, m, _ in cut_table(doubling_schedule(), 5)]
        assert len(ms) == 12 and ms == sorted(ms)

    def test_first_block_pair(self):
        cuts = cut_table(doubling_schedule(), 2)
        assert cuts[:2] == [(0, AFTER_ZEROS, 1, 0), (0, AFTER_FREES, 2, 1)]

    def test_invariant_formulas(self):
        sch = BlockSchedule(
            base=3,
            alphabet=2,
            zeros=SequenceSpec.explicit([2, 1, 4], horizon=2),
            frees=SequenceSpec.explicit([1, 3, 2], horizon=2),
        )
        a, b = [2, 1, 4], [1, 3, 2]
        for n, kind, m, x in cut_table(sch, 2):
            if kind == AFTER_ZEROS:
                assert m == sum(a[:n]) + sum(b[:n]) + a[n]
                assert x == sum(b[:n])
            else:
                assert m == sum(a[: n + 1]) + sum(b[: n + 1])
                assert x == sum(b[: n + 1])

    def test_x_count_walk_agrees_with_cut_formula(self):
        # two independent computations of the same quantity
        sch = doubling_schedule()
        for _, _, m, x in cut_table(sch, 4):
            assert x_count(sch, m) == x


class TestCoverCount:
    def test_doubling_table(self):
        sch = doubling_schedule()
        assert [cover_count(sch, m) for m in range(7)] == [1, 1, 2, 2, 2, 4, 8]

    def test_whole_space(self):
        assert cover_count(doubling_schedule(), 0) == 1

    def test_ternary_one_free_digit(self):
        sch = BlockSchedule(base=3, alphabet=3, zeros=SequenceSpec.geometric(1, 3))
        assert cover_count(sch, 4) == 3

    def test_against_brute_force(self):
        cases = [
            doubling_schedule(),
            BlockSchedule(base=3, alphabet=3, zeros=SequenceSpec.geometric(1, 3)),
            BlockSchedule(base=3, alphabet=2, zeros=SequenceSpec.arithmetic(1, 1)),
            BlockSchedule(base=2, alphabet=2, zeros=SequenceSpec.arithmetic(2, 0)),
        ]
        for sch in cases:
            for m in range(0, 9):
                assert cover_count(sch, m) == brute_force_cover(sch, m), (sch, m)


class TestLocalDim:
    """The local dimension X(m)/m of each cut, as the report's samples carry it."""

    def test_doubling_cut_values(self):
        rep = dim_bounds(doubling_schedule(), 3)
        values = {m: v for _, m, _, v in rep.lower_samples + rep.upper_samples}
        assert values[22] == Fraction(7, 22)
        assert values[30] == Fraction(1, 2)

    def test_constant_schedule_even_positions(self):
        sch = BlockSchedule(base=2, alphabet=2, zeros=SequenceSpec.arithmetic(1, 0))
        upper = dim_bounds(sch, 13).upper_samples
        assert [m for _, m, _, _ in upper] == list(range(2, 30, 2))
        assert all(v == Fraction(1, 2) for _, _, _, v in upper)

    def test_sigma_not_beta_is_float(self):
        sch = BlockSchedule(base=3, alphabet=2, zeros=SequenceSpec.geometric(1, 2))
        _, m, _, value = dim_bounds(sch, 2).upper_samples[0]
        assert m == 2 and isinstance(value, float)
        assert value == pytest.approx(Fraction(1, 2) * math.log(2) / math.log(3), rel=1e-12)

    def test_total_function_inside_blocks(self):
        sch = doubling_schedule()
        assert Fraction(x_count(sch, 3), 3) == Fraction(1, 3)  # not a cut point


class TestDimBounds:
    def test_doubling(self):
        rep = dim_bounds(doubling_schedule(), 12)
        assert rep.upper == Fraction(1, 2)
        assert all(v == Fraction(1, 2) for (_, _, _, v) in rep.upper_samples)
        assert abs(float(rep.lower) - 1 / 3) < 1e-3
        assert rep.lower <= rep.upper

    def test_geometric_ratio_n(self):
        for n in (2, 3, 4, 5):
            sch = BlockSchedule(
                base=2, alphabet=2, zeros=SequenceSpec.geometric(1, n, horizon=16)
            )
            lower = hausdorff_dim(sch, 12)
            assert abs(float(lower) - 1 / (1 + n)) < 1e-3, n

    def test_power_tower_below_threshold(self):
        sch = BlockSchedule(
            base=2, alphabet=2, zeros=SequenceSpec.power_tower(2, horizon=6)
        )
        rep = dim_bounds(sch, 5)
        assert rep.lower < Fraction(1, 1000)

    def test_double_exponential_tends_to_zero(self):
        sch = BlockSchedule(base=2, alphabet=2, zeros=SequenceSpec.double_exponential(2))
        assert hausdorff_dim(sch, 8) < Fraction(1, 10**15)

    def test_truncation_reports_unconverged(self):
        sch = BlockSchedule(
            base=2, alphabet=2, zeros=SequenceSpec.power_tower(2, horizon=20)
        )
        rep = dim_bounds(sch, 10)  # digit cap stops the walk at index 5
        assert rep.n_used == 5
        assert rep.converged is False

    def test_requires_n_max_2(self):
        with pytest.raises(InputError):
            dim_bounds(doubling_schedule(), 1)

    def test_report_csv_shape(self):
        lines = list(dim_report_csv(dim_bounds(doubling_schedule(), 3)))
        assert lines[0] == "kind,n,m,x_count,local_dim,local_dim_decimal"
        assert lines[1].startswith("after_zeros,0,1,0,0/1,")
        assert len(lines) == 9

    @pytest.mark.parametrize("precision", [1, 12, 50])
    @pytest.mark.parametrize("alphabet", [2, 3])
    def test_report_csv_yields_one_line_per_item(self, alphabet, precision):
        # the CLI's writer and cut_table join and split the items as lines
        sch = BlockSchedule(base=5, alphabet=alphabet, zeros=SequenceSpec.geometric(1, 2),
                            frees=SequenceSpec.arithmetic(1, 2))
        rep = dim_bounds(sch, 30)
        lines = list(dim_report_csv(rep, precision))
        assert len(lines) == 2 * (rep.n_used + 1) + 1
        assert not any("\n" in line for line in lines)

    def test_only_printed_rows_are_charged_to_the_digit_budget(self):
        # 14,002 rows of numbers up to 7,002 bits would pass the digit budget; hausdorff_dim
        # prints none of them
        sch = BlockSchedule(base=2, alphabet=2, zeros=SequenceSpec.geometric(1, 2, horizon=100000))
        assert abs(hausdorff_dim(sch, 7000) - Fraction(1, 3)) < 1e-9
        rows = dim_report_csv(dim_bounds(sch, 7000))
        with pytest.raises(BudgetExceededError,
                           match="^cut rows through block pair 7000 pass the budget of 25000000"):
            next(rows)


class TestCellSource:
    def test_counts_delegate(self):
        sch = doubling_schedule()
        src = BlockCellSource(sch)
        for m in (0, 1, 2, 5, 6):
            assert src.count(m) == cover_count(sch, m)


class TestSubsetMonotonicity:
    def test_forcing_free_digits_shrinks_counts(self):
        # same block boundaries, but part of each free block is forced to
        # zero: every forced position of the larger set stays forced
        zeros = [1, 2, 4, 8]
        frees = [2, 3, 4, 5]
        give = [1, 0, 2, 4]
        big = BlockSchedule(
            base=2,
            alphabet=2,
            zeros=SequenceSpec.explicit(zeros, horizon=3),
            frees=SequenceSpec.explicit(frees, horizon=3),
        )
        small = BlockSchedule(
            base=2,
            alphabet=2,
            zeros=SequenceSpec.explicit([z + g for z, g in zip(zeros, give)], horizon=3),
            frees=SequenceSpec.explicit([f - g for f, g in zip(frees, give)], horizon=3),
        )
        total = sum(zeros) + sum(frees)
        for m in range(1, total + 1):
            if digit_role(big, m) == FORCED_ZERO:
                assert digit_role(small, m) == FORCED_ZERO
        for m in range(0, total + 1):
            assert cover_count(small, m) <= cover_count(big, m)


class TestScheduleJson:
    def test_documented_shape(self):
        obj = {
            "base": 2,
            "alphabet": 2,
            "zeros": {"kind": "geometric", "first": 1, "ratio": 2, "horizon": 64,
                      "digit_cap": 1000000},
            "frees": "same_as_zeros",
            "m_cap": "10^7",
        }
        sch = schedule_from_json(obj)
        assert sch.m_cap == 10**7
        assert sch.frees == sch.zeros

    def test_unknown_keys_rejected(self):
        with pytest.raises(InputError):
            schedule_from_json({"base": 2, "zeros": {"kind": "geometric", "first": 1,
                                                     "ratio": 2}, "bogus": 1})

    def test_power_within_the_term_digit_budget(self):
        parse = blockset._parse_big_nat
        assert parse("10^7") == 10**7
        assert parse("10^999999") == 10**999999  # 10**6 digits, the budget
        assert (parse("0^0"), parse("0^5"), parse(f"1^{10**30}")) == (1, 0, 1)
        for text in ("10^1000000", "2^10000000000", f"3^{10**30}"):
            with pytest.raises(BudgetExceededError, match="has more than 1000000 digits"):
                parse(text)
        with pytest.raises(InputError):
            parse("10^\u00b2")  # a superscript two is a digit, but not a decimal one

    def test_alphabet_bounds(self):
        with pytest.raises(InputError):
            BlockSchedule(base=2, alphabet=3, zeros=SequenceSpec.geometric(1, 2))
        with pytest.raises(InputError):
            BlockSchedule(base=2, alphabet=1, zeros=SequenceSpec.geometric(1, 2))


# ---------------------------------------------------------------------------
# properties

_zeros_strategy = st.one_of(
    st.builds(SequenceSpec.arithmetic, st.integers(1, 4), st.integers(0, 3)),
    st.builds(SequenceSpec.geometric, st.integers(1, 3), st.integers(1, 3)),
)

_schedule_strategy = st.integers(2, 4).flatmap(
    lambda base: st.builds(
        BlockSchedule,
        base=st.just(base),
        alphabet=st.integers(2, base),
        zeros=_zeros_strategy,
        # builds() draws every record field it is not given, defaults too
        frees=st.none(),
        m_cap=st.just(blockset.DEFAULT_M_CAP),
    )
)


@settings(max_examples=120, derandomize=True, deadline=None)
@given(schedule=_schedule_strategy, m=st.integers(0, 40))
def test_cover_count_ratio_is_one_or_sigma(schedule, m):
    before = cover_count(schedule, m)
    after = cover_count(schedule, m + 1)
    ratio = after // before
    assert after % before == 0 and ratio in (1, schedule.alphabet)
    role = digit_role(schedule, m + 1)
    assert (ratio == schedule.alphabet) == (role == FREE)


@settings(max_examples=120, derandomize=True, deadline=None)
@given(schedule=_schedule_strategy, m=st.integers(1, 60))
def test_local_dim_in_unit_interval(schedule, m):
    x = x_count(schedule, m)
    assert 0 <= Fraction(x, m) <= 1
    assert schedule.alphabet**x <= schedule.base**m


@settings(max_examples=100, derandomize=True, deadline=None)
@given(
    zeros=st.one_of(
        st.builds(SequenceSpec.arithmetic, st.integers(1, 4), st.integers(0, 3)),
        st.builds(SequenceSpec.geometric, st.integers(1, 3), st.integers(1, 3)),
    ),
    sigma=st.integers(2, 4),
    n_max=st.integers(2, 8),
)
def test_equal_blocks_pin_upper_family_at_half(zeros, sigma, n_max):
    sch = BlockSchedule(base=sigma, alphabet=sigma, zeros=zeros)
    rep = dim_bounds(sch, n_max)
    assert all(v == Fraction(1, 2) for (_, _, _, v) in rep.upper_samples)
    assert rep.lower <= rep.upper


def test_dimension_zero_agreement_with_growth_criterion():
    """Vanishing tail dimension coincides with the growth verdict per family."""
    from fractaldim.seqgen import SATISFIED, VIOLATED, dimzero_criterion

    zero_side = [
        (SequenceSpec.double_exponential(2), 8, 10, (3, 8)),
        (SequenceSpec.double_exponential(3), 6, 100, (2, 6)),
        (SequenceSpec.power_tower(2, horizon=6), 5, 1, (2, 5)),
    ]
    for spec, n_max, K, window in zero_side:
        sch = BlockSchedule(base=2, alphabet=2, zeros=spec)
        assert hausdorff_dim(sch, n_max) < Fraction(1, 1000)
        assert dimzero_criterion(spec, K, *window).status == SATISFIED

    positive_side = [
        SequenceSpec.arithmetic(1, 2),
        SequenceSpec.geometric(1, 2),
        SequenceSpec.geometric(1, 5),
    ]
    for spec in positive_side:
        sch = BlockSchedule(base=2, alphabet=2, zeros=spec)
        assert hausdorff_dim(sch, 12) > Fraction(1, 10)
        assert dimzero_criterion(spec, 1, 2, 12).status == VIOLATED


# ---------------------------------------------------------------------------
# the block-boundary table


def _block_lengths(spec: SequenceSpec, count: int) -> list[int]:
    if spec.kind == "explicit":
        return list(spec.terms[:count])
    if spec.kind == "arithmetic":
        return [spec.first + spec.step * i for i in range(count)]
    return [spec.first * spec.ratio**i for i in range(count)]


def naive_roles(schedule: BlockSchedule, pairs: int) -> list[str]:
    """Reference: the role of every digit position of the first ``pairs`` block pairs."""
    roles = []
    zeros = _block_lengths(schedule.zeros, pairs)
    frees = _block_lengths(schedule.frees, pairs)
    for z, f in zip(zeros, frees):
        roles += [FORCED_ZERO] * z + [FREE] * f
    return roles


_table_spec_strategy = st.one_of(
    st.lists(st.integers(1, 5), min_size=1, max_size=6).map(
        lambda ts: SequenceSpec.explicit(ts, horizon=len(ts) - 1)
    ),
    st.builds(SequenceSpec.arithmetic, st.integers(1, 4), st.integers(0, 3)),
    st.builds(SequenceSpec.geometric, st.integers(1, 3), st.integers(1, 3)),
)


@settings(max_examples=100, derandomize=True, deadline=None)
@given(
    base=st.integers(2, 4),
    sigma=st.integers(2, 4),
    zeros=_table_spec_strategy,
    frees=st.one_of(st.none(), _table_spec_strategy),
)
def test_table_lookups_match_naive_expansion(base, sigma, zeros, frees):
    sch = BlockSchedule(base=max(base, sigma), alphabet=sigma, zeros=zeros, frees=frees)
    pairs = min(sch.horizon + 1, 7)
    roles = naive_roles(sch, pairs)
    # consecutive blocks differ in role, so each role change ends a block
    ends = [i + 1 for i in range(len(roles)) if i + 1 == len(roles) or roles[i] != roles[i + 1]]
    want_cuts = [
        (j // 2, (AFTER_ZEROS, AFTER_FREES)[j % 2], m, roles[:m].count(FREE))
        for j, m in enumerate(ends)
    ]
    # dim_bounds needs n_max >= 2; the horizon keeps the table at ``pairs`` pairs
    assert cut_table(sch, max(pairs - 1, 2)) == want_cuts
    src = BlockCellSource(sch)
    # one source answers levels out of order from its one table; positions
    # run through the first five block pairs
    top = ends[min(len(ends), 10) - 1]
    for m in list(range(top, -1, -1)) + list(range(top + 1)):
        x = roles[:m].count(FREE)
        assert x_count(sch, m) == x
        assert cover_count(sch, m) == sigma**x
        assert src.count(m) == sigma**x
        if m:
            assert digit_role(sch, m) == roles[m - 1]
    # n_max past the horizon truncates both reports to the same last cut
    for n_max in (2, 5, 6):
        rep = dim_bounds(sch, n_max)
        assert hausdorff_dim(sch, n_max) == rep.lower == rep.lower_samples[-1][3]
        n_used = min(n_max, sch.horizon)
        assert rep.n_used == n_used
        want_lower = [c[2:] for c in want_cuts[0 : 2 * n_used + 2 : 2]]
        assert [s[1:3] for s in rep.lower_samples] == want_lower


@settings(max_examples=100, derandomize=True, deadline=None)
@given(
    base=st.integers(2, 3),
    sigma=st.integers(2, 3),
    zeros=_table_spec_strategy,
    frees=st.one_of(st.none(), _table_spec_strategy),
    data=st.data(),
)
def test_one_walk_counts_every_level(base, sigma, zeros, frees, data):
    sch = BlockSchedule(base=max(base, sigma), alphabet=sigma, zeros=zeros, frees=frees)
    roles = naive_roles(sch, min(sch.horizon + 1, 4))
    ends = [i + 1 for i in range(len(roles)) if i + 1 == len(roles) or roles[i] != roles[i + 1]]
    # 0, every block end and every position, each possibly repeated
    positions = st.one_of(st.just(0), st.sampled_from(ends), st.integers(0, len(roles)))
    levels = sorted(data.draw(st.lists(positions, max_size=12)))
    got = list(BlockCellSource(sch).level_counts(levels))
    assert got == [cover_count(sch, m) for m in levels]
    assert got == [sigma ** roles[:m].count(FREE) for m in levels]
    small = [m for m in levels if m <= 6]
    assert got[: len(small)] == [brute_force_cover(sch, m) for m in small]


class TestBlockTable:
    def test_horizon_error_repeats(self):
        sch = BlockSchedule(
            base=2, alphabet=2, zeros=SequenceSpec.arithmetic(1, 0, horizon=3)
        )
        src = BlockCellSource(sch)
        errors = []
        for m in (9, 12):  # blocks cover only 8 positions
            with pytest.raises(HorizonExceededError) as exc:
                src.count(m)
            errors.append((str(exc.value), exc.value.index))
        assert errors == [("digit position walk ran past horizon 3", 3)] * 2
        assert src.count(8) == 2**4

    def test_term_budget_error_repeats(self):
        # under a cap of 10**400 digits, term 3 = 300**(300**3) is past the term budget
        spec = SequenceSpec.double_exponential(300, digit_cap=10**400)
        sch = BlockSchedule(base=2, alphabet=2, zeros=spec, m_cap=10**300_000)
        past = 2 * (300 + 300**300 + 300**90_000) + 1  # the first position after block 5
        for _ in range(2):
            with pytest.raises(BudgetExceededError, match="term 3 has over 1000000"):
                x_count(sch, past)
        with pytest.raises(BudgetExceededError, match="term 3 has over 1000000"):
            dim_bounds(sch, 4)
        # the three block pairs before it are walked
        assert x_count(sch, past - 1) == 300 + 300**300 + 300**90_000

    def test_a_level_draws_no_block_past_its_own(self):
        # position 600 + 2*300**300 + 3 lies in block 4; a walk that drew blocks 5 and 6
        # ahead of it would fail on term 3 = 300**(300**3)
        spec = SequenceSpec.double_exponential(300, digit_cap=10**400)
        sch = BlockSchedule(base=2, alphabet=2, zeros=spec, m_cap=10**800)
        assert x_count(sch, 600 + 2 * 300**300 + 3) == 300 + 300**300
        assert digit_role(sch, 600 + 2 * 300**300 + 3) == FORCED_ZERO

    def test_a_level_walk_past_the_budget_names_its_block(self):
        sch = BlockSchedule(base=2, alphabet=2, m_cap=10**8,
                            zeros=SequenceSpec.arithmetic(1, 0, horizon=10**8))
        assert x_count(sch, 10**6) == 5 * 10**5  # the last position of block 10**6 - 1
        for m in (10**6 + 1, 2 * 10**7):
            with pytest.raises(BudgetExceededError) as exc:
                x_count(sch, m)
            assert str(exc.value) == (
                "block walk asks for 1000001 blocks, over the budget of 1000000"
            )

    def test_the_walk_stops_at_the_budget_or_the_horizon(self):
        # one-digit blocks: at horizon 499,999 the walk's 2 * horizon + 2 blocks are the
        # budget's 10**6, and the budget's error is raised; at 499,998 the horizon's is
        def ones(horizon):
            spec = SequenceSpec.arithmetic(1, 0, horizon=horizon)
            return BlockSchedule(base=2, alphabet=2, zeros=spec, m_cap=10**7)

        counts = blockset._x_counts(ones(499_999), (10**6, 10**6 + 1))
        assert next(counts) == 5 * 10**5
        with pytest.raises(BudgetExceededError) as exc:
            next(counts)
        assert str(exc.value) == "block walk asks for 1000001 blocks, over the budget of 1000000"
        counts = blockset._x_counts(ones(499_998), (999_998, 999_999))
        assert next(counts) == 499_999
        with pytest.raises(HorizonExceededError) as exc:
            next(counts)
        assert (str(exc.value), exc.value.index) == (
            "digit position walk ran past horizon 499998", 499_998)

    def test_first_digit_cap_error_in_walk_order(self):
        # zero and free blocks are walked in turn, so the free sequence's
        # failure at index 1 comes before the zero sequence's at index 3
        sch = BlockSchedule(
            base=2,
            alphabet=2,
            zeros=SequenceSpec.explicit([1, 1, 1, 10**5], digit_cap=3),
            frees=SequenceSpec.explicit([1, 10**4], digit_cap=3),
        )
        with pytest.raises(HorizonExceededError) as exc:
            x_count(sch, 4)  # in block 3, the free block of pair 1
        assert exc.value.index == 1
        assert str(exc.value) == "term 1 exceeds the digit cap of 3 decimal digits"
        rep = dim_bounds(sch, 4)
        assert (rep.n_used, rep.converged) == (0, False)
        assert hausdorff_dim(sch, 4) == rep.lower == 0

    def test_zero_block_counts_when_its_free_block_fails(self):
        # blocks 1,1,2,1,3 cover positions 1..8; the third free block does not exist
        sch = BlockSchedule(
            base=3,
            alphabet=3,
            zeros=SequenceSpec.explicit([1, 2, 3, 4]),
            frees=SequenceSpec.explicit([1, 1]),
        )
        src = BlockCellSource(sch)
        assert [src.count(m) for m in range(9)] == [1, 1, 3, 3, 3, 9, 9, 9, 9]
        assert digit_role(sch, 8) == FORCED_ZERO
        with pytest.raises(HorizonExceededError) as exc:
            src.count(9)
        assert (str(exc.value), exc.value.index) == ("explicit sequence has only 2 terms", 2)

    def test_count_series_raises_where_the_walk_fails(self):
        from fractaldim.boxdim import count_series

        sch = BlockSchedule(
            base=3, alphabet=3, zeros=SequenceSpec.explicit([1, 2, 3, 4]),
            frees=SequenceSpec.explicit([1, 1]),
        )
        with pytest.raises(HorizonExceededError) as exc:
            count_series(BlockCellSource(sch), range(2, 20))
        assert (str(exc.value), exc.value.index) == ("explicit sequence has only 2 terms", 2)
        with pytest.raises(OutOfRangeError, match=r"^digit position 8 outside \[0, 7\]$"):
            count_series(BlockCellSource(sch._replace(m_cap=7)), range(2, 20))

    @pytest.mark.parametrize(
        "levels, counts",
        # on arithmetic(1, 1) blocks X(4) = X(3) = 1 and X(6) = X(5) + 1 = 3, X(1) = 0:
        # [4, 3] gave [2, 2], and the others named X values, not levels
        [([4, 3], [2]), ([6, 5], [8]), ([6, 1], [8])],
    )
    def test_levels_below_the_last_are_refused(self, levels, counts):
        src = BlockCellSource(BlockSchedule(2, 2, SequenceSpec.arithmetic(1, 1)))
        seen = []
        with pytest.raises(InputError) as exc:
            seen.extend(src.level_counts(levels))
        assert str(exc.value) == (
            f"level {levels[1]} after {levels[0]}: levels must be nondecreasing from 0"
        )
        assert seen == counts
        assert list(src.level_counts([3, 4, 4, 6])) == [2, 2, 2, 8]

    def test_count_series_walks_once(self, monkeypatch):
        from fractaldim import seqgen
        from fractaldim.boxdim import count_series

        real = seqgen._iter_terms
        drawn = 0

        def counting(spec):
            nonlocal drawn
            for term in real(spec):
                drawn += 1
                yield term

        monkeypatch.setattr(seqgen, "_iter_terms", counting)
        sch = BlockSchedule(
            base=2, alphabet=2, zeros=SequenceSpec.arithmetic(1, 0, horizon=5000)
        )
        series = count_series(BlockCellSource(sch), list(range(1, 5001)))
        assert series.counts[-1] == 2**2500
        assert drawn <= 5002


# ---------------------------------------------------------------------------
# the report printed from the cut columns


def _reference_report(sch: BlockSchedule, n_max: int, tol: float, precision: int):
    """Samples, tail values and CSV built the direct way: one Fraction per cut, rows sorted by m."""
    ends, xs = [], []
    end = x = 0
    for k in range(min(n_max, sch.horizon) + 1):
        pair = []
        for spec in (sch.zeros, sch.frees):
            lengths = _block_lengths(spec, k + 1)
            if len(lengths) <= k or len(str(lengths[k])) > spec.digit_cap:
                break
            pair.append(lengths[k])
        if len(pair) < 2:
            break
        ends += [end + pair[0], end + sum(pair)]
        xs += [x, x + pair[1]]
        end, x = ends[-1], xs[-1]
    n = len(ends) // 2 - 1

    def value(j):
        ratio = Fraction(xs[j], ends[j])
        if sch.alphabet == sch.base:
            return ratio
        return float(ratio) * (math.log(sch.alphabet) / math.log(sch.base))

    lower = tuple((k, ends[2 * k], xs[2 * k], value(2 * k)) for k in range(n + 1))
    upper = tuple((k, ends[2 * k + 1], xs[2 * k + 1], value(2 * k + 1)) for k in range(n + 1))

    def gap(samples):
        return abs(float(samples[-1][3]) - float(samples[-2][3])) if len(samples) > 1 else math.inf

    spread = max(gap(lower), gap(upper))
    rows = sorted([(AFTER_ZEROS, *s) for s in lower] + [(AFTER_FREES, *s) for s in upper],
                  key=lambda r: r[2])
    lines = ["kind,n,m,x_count,local_dim,local_dim_decimal"]
    for kind, k, m, xc, v in rows:
        exact = f"{v.numerator}/{v.denominator}" if isinstance(v, Fraction) else repr(v)
        lines.append(f"{kind},{k},{m},{xc},{exact},{float(v):.{precision}f}")
    return {
        "lower_samples": lower,
        "upper_samples": upper,
        "lower": lower[-1][3],
        "upper": upper[-1][3],
        "spread": spread,
        "converged": n == n_max and spread < tol,
        "n_used": n,
        "csv": "\n".join(lines) + "\n",
    }


_report_spec = st.builds(
    lambda kind, first, growth, cap, horizon: (
        SequenceSpec.arithmetic(first, growth - 1, digit_cap=cap, horizon=horizon)
        if kind == "arithmetic"
        else SequenceSpec.geometric(first, growth, digit_cap=cap, horizon=horizon)
    ),
    st.sampled_from(["arithmetic", "geometric"]),
    st.integers(1, 9),
    st.integers(1, 4),
    st.sampled_from([1, 2, 3, 40]),
    st.integers(2, 60),
)


@settings(max_examples=150, derandomize=True, deadline=None)
@given(
    beta=st.integers(2, 7),
    sigma=st.integers(2, 7),
    zeros=_report_spec,
    frees=st.one_of(st.none(), _report_spec),
    n_max=st.integers(2, 70),
    tol=st.sampled_from([1e-6, 0.05, 1.0]),
    precision=st.integers(1, 20),
)
def test_report_matches_per_sample_reference(beta, sigma, zeros, frees, n_max, tol, precision):
    # sigma == beta gives exact Fractions, sigma < beta scaled floats; small
    # horizons and digit caps truncate the report
    sch = BlockSchedule(base=max(beta, sigma), alphabet=sigma, zeros=zeros, frees=frees)
    want = _reference_report(sch, n_max, tol, precision)
    rep = dim_bounds(sch, n_max, tol=tol)
    got = {key: getattr(rep, key) for key in want if key != "csv"}
    got["csv"] = "\n".join(dim_report_csv(rep, precision)) + "\n"
    assert got == want
    assert [type(s[3]) for s in rep.lower_samples] == [type(s[3]) for s in want["lower_samples"]]
