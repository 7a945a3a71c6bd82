"""Sequence generation and growth-criterion tests.

Expected values are either literals from the construction rules or frozen
outputs of the brute-force oracles computed inline (direct big-integer
addition and comparison).
"""

import math
import random
import tracemalloc
from bisect import bisect_left
from decimal import Context, Decimal
from fractions import Fraction
from functools import cache
from itertools import islice

import pytest

from hypothesis import given, settings, strategies as st

from fractaldim import seqgen
from fractaldim._digits import _power_exceeds
from fractaldim.errors import BudgetExceededError, HorizonExceededError, InputError
from fractaldim.seqgen import (
    SATISFIED,
    VIOLATED,
    SequenceSpec,
    dimzero_criterion,
    spec_from_json,
    squared_sum_check,
    tail_domination,
    terms,
)


class TestTerms:
    def test_geometric_doubling(self):
        assert terms(SequenceSpec.geometric(1, 2), 6) == [1, 2, 4, 8, 16, 32]

    def test_squared_sum_seed1(self):
        assert terms(SequenceSpec.squared_sum(1), 5) == [1, 1, 4, 36, 1764]

    def test_power_tower_base2(self):
        assert terms(SequenceSpec.power_tower(2), 5) == [1, 2, 4, 16, 65536]

    def test_constant_arithmetic(self):
        assert terms(SequenceSpec.arithmetic(1, 0), 4) == [1, 1, 1, 1]

    def test_double_exponential(self):
        assert terms(SequenceSpec.double_exponential(2), 4) == [2, 4, 16, 256]
        assert terms(SequenceSpec.double_exponential(3), 3) == [3, 27, 19683]

    def test_explicit(self):
        assert terms(SequenceSpec.explicit([5, 7, 7]), 2) == [5, 7]

    def test_explicit_exhausted(self):
        with pytest.raises(HorizonExceededError) as exc:
            terms(SequenceSpec.explicit([5]), 3)
        assert exc.value.index == 1

    def test_horizon_guard(self):
        spec = SequenceSpec.geometric(1, 2, horizon=3)
        assert len(terms(spec, 4)) == 4  # indices 0..horizon
        with pytest.raises(HorizonExceededError):
            terms(spec, 5)

    def test_power_tower_digit_cap(self):
        # index 5 is a 19729-digit number, index 6 is physically unrepresentable
        spec = SequenceSpec.power_tower(2, horizon=10)
        t = terms(spec, 6)
        assert 10**19728 <= t[5] < 10**19729  # exactly 19729 digits
        with pytest.raises(HorizonExceededError) as exc:
            terms(spec, 7)
        assert exc.value.index == 6

    def test_digit_cap_names_index(self):
        # terms are 10**(k+1); the 6-digit term 10**5 sits at index 4
        spec = SequenceSpec.geometric(10, 10, digit_cap=5, horizon=20)
        with pytest.raises(HorizonExceededError) as exc:
            terms(spec, 10)
        assert exc.value.index == 4

    def test_validation(self):
        with pytest.raises(InputError):
            SequenceSpec.geometric(0, 2)
        with pytest.raises(InputError):
            SequenceSpec.geometric(1, 0)
        with pytest.raises(InputError):
            SequenceSpec.explicit([])
        with pytest.raises(InputError):
            SequenceSpec.double_exponential(1)
        with pytest.raises(InputError):
            SequenceSpec(kind="nope")


class TestExponentGuard:
    @pytest.mark.parametrize("kind", ["double_exponential", "power_tower"])
    def test_cap_past_the_float_range(self, kind):
        # a cap above about 10**308 used to overflow a float division
        spec = SequenceSpec(kind=kind, base=2, digit_cap=10**400)
        default = SequenceSpec(kind=kind, base=2)
        assert terms(spec, 5) == terms(default, 5)
        assert squared_sum_check(spec, 3) == squared_sum_check(default, 3)

    @pytest.mark.parametrize("base", [2, 3, 10])
    @pytest.mark.parametrize("kind", ["double_exponential", "power_tower"])
    def test_first_refused_term_as_with_the_float_formula(self, kind, base):
        rng = random.Random(f"{kind}:{base}")
        caps = [*range(200), *(10**k for k in range(301)), *(2**k for k in range(0, 997, 13))]
        caps += [rng.randrange(10 ** rng.randrange(1, 301)) for _ in range(200)]
        for cap in caps:
            got = _first_refused(kind, base, cap, _guard_refuses)
            assert got == _first_refused(kind, base, cap, _float_guard_refuses), cap

    def test_no_float_rounding_of_the_cap(self):
        # 10**(10**24) has 10**24 + 1 digits, within the cap; the float formula
        # refused it, as float(10**24 + 1) is 10**24 - 16777216
        cap = 10**24 + 1
        assert _first_refused("double_exponential", 10, cap, _guard_refuses) == 25
        assert _first_refused("double_exponential", 10, cap, _float_guard_refuses) == 24


# base**_K_MAX is past every exponent threshold for caps up to 10**300 and bases 2, 3, 10
_K_MAX = 1000


def _guard_refuses(base, exponent, cap):
    return _power_exceeds(base, exponent, cap)


def _float_guard_refuses(base, exponent, cap):
    """The guard as a float formula, which overflows for caps above about 10**308."""
    return exponent > int(cap / math.log10(base)) + 2


# enough digits for exponents and caps up to about 10**300
_WIDE = Context(prec=400)


@cache
def _log10(base):
    return _WIDE.log10(Decimal(base))


def _first_refused(kind, base, cap, refuses):
    """Index of the first term refused, by ``refuses`` or for having more than ``cap`` digits.

    Term i is base**(base**k).  For double_exponential k = i.  For
    power_tower term 0 is 1 and term i >= 1 is base raised to term i - 1,
    so k is the exponent of term i - 1: 0, 1, base, base**base, ..  An
    exponent base**k with k above ``_K_MAX`` is refused as surely as
    base**_K_MAX, which stands in for it.
    """
    assert refuses(base, base**_K_MAX, cap)

    def refused(k):
        exponent = base ** min(k, _K_MAX)
        # base**exponent has more than cap digits when it is >= 10**cap
        return refuses(base, exponent, cap) or _WIDE.multiply(exponent, _log10(base)) >= cap

    if kind == "double_exponential":
        # refused(k) is monotone in k
        return bisect_left(range(_K_MAX + 1), True, key=refused)
    if cap == 0:
        return 0  # the term 1 has one digit
    i, k = 1, 0
    while not refused(k):
        i, k = i + 1, base ** min(k, _K_MAX)
    return i


class TestTailDomination:
    def test_power_tower_k4(self):
        # 65559 <= 1.01 * 65536 = 66191.36
        assert tail_domination(SequenceSpec.power_tower(2), 4, Fraction(1, 100)) is True

    def test_geometric_k10(self):
        # 2047 > 1.5 * 1024 = 1536
        assert tail_domination(SequenceSpec.geometric(1, 2), 10, Fraction(1, 2)) is False

    def test_k0_eps0_always_true(self):
        for spec in (
            SequenceSpec.geometric(1, 2),
            SequenceSpec.arithmetic(3, 5),
            SequenceSpec.power_tower(3),
        ):
            assert tail_domination(spec, 0, 0) is True

    def test_power_tower_boundary(self):
        # exact arithmetic puts the 2**-10 threshold crossing at k = 4:
        # sums 3, 7, 23 exceed (1 + 2**-10) * (2, 4, 16); 65559 <= 65600
        spec = SequenceSpec.power_tower(2, horizon=6)
        eps = Fraction(1, 1024)
        expected = {0: True, 1: False, 2: False, 3: False, 4: True, 5: True}
        got = {k: tail_domination(spec, k, eps) for k in range(6)}
        assert got == expected


class TestDimzeroCriterion:
    def test_double_exponential_2(self):
        verdict = dimzero_criterion(SequenceSpec.double_exponential(2), 10, 3, 8)
        assert verdict.status == SATISFIED
        assert verdict.witness_index == 8
        assert verdict.margin > 0

    def test_double_exponential_3(self):
        verdict = dimzero_criterion(SequenceSpec.double_exponential(3), 100, 2, 6)
        assert verdict.status == SATISFIED

    def test_geometric_margin_constant(self):
        # a_n - sum = 2**n - (2**n - 1) = 1 at every n: no strict increase
        verdict = dimzero_criterion(SequenceSpec.geometric(1, 2), 1, 2, 12)
        assert verdict.status == VIOLATED

    def test_geometric_fails_for_any_K(self):
        # margins may grow when K is small, but a_n/sum decreases toward
        # ratio-1, so the divergence-for-every-K reading must reject
        for b in range(2, 11):
            for K in (Fraction(1), Fraction(1, 2), Fraction(3)):
                verdict = dimzero_criterion(SequenceSpec.geometric(1, b), K, 2, 12)
                assert verdict.status == VIOLATED, (b, K)

    def test_power_tower_satisfied(self):
        verdict = dimzero_criterion(SequenceSpec.power_tower(2, horizon=6), 1, 2, 5)
        assert verdict.status == SATISFIED

    def test_inconclusive_on_digit_cap(self):
        spec = SequenceSpec.power_tower(2, horizon=10)
        verdict = dimzero_criterion(spec, 1, 2, 8)
        assert verdict.status == "inconclusive"
        assert verdict.witness_index == 6

    def test_margin_value_exact(self):
        # double_exponential(2), K=10, n=3: 256 - 10*22 = 36
        verdict = dimzero_criterion(SequenceSpec.double_exponential(2), 10, 3, 4)
        assert verdict.status == SATISFIED
        ts = terms(SequenceSpec.double_exponential(2), 5)
        assert verdict.margin == ts[4] - 10 * sum(ts[:4])

    def test_window_validation(self):
        with pytest.raises(InputError):
            dimzero_criterion(SequenceSpec.geometric(1, 2), 1, 5, 5)
        with pytest.raises(InputError):
            dimzero_criterion(SequenceSpec.geometric(1, 2), 0, 1, 5)

    def test_witness_of_a_failing_term_0(self):
        spec = SequenceSpec.explicit([10**50, 10**60, 10**70], horizon=2, digit_cap=10)
        assert dimzero_criterion(spec, 1, 0, 2) == ("inconclusive", 0, None)

    def test_term_past_the_budget_is_inconclusive_as_under_a_cap_at_the_budget(self):
        verdicts = [
            dimzero_criterion(SequenceSpec.double_exponential(2, digit_cap=cap), 1, 0, 30)
            for cap in (seqgen._TERM_DIGIT_BUDGET, 10**30, 10**400)
        ]
        assert verdicts == [("inconclusive", 22, None)] * 3

    def test_failing_term_after_a_violation_is_inconclusive(self):
        # margins stop growing at term 3; term 5 = 10**5 has six digits, over the cap
        spec = SequenceSpec.geometric(1, 10, digit_cap=5, horizon=20)
        assert dimzero_criterion(spec, 1, 2, 4).status == VIOLATED
        assert dimzero_criterion(spec, 1, 2, 12) == ("inconclusive", 5, None)

    def test_window_terms_are_not_held(self):
        # terms 0..700 of ratio 10**300 total about 30 MB; the verdict needs two of them
        spec = SequenceSpec.geometric(1, 10**300, horizon=700)
        tracemalloc.start()
        try:
            verdict = dimzero_criterion(spec, 1, 0, 700)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert verdict == (VIOLATED, 2, 10**600 - 10**300 - 1)
        assert peak < 2 * 10**6


def _list_dimzero(spec, K, n_lo, n_hi):
    """The criterion over a list of every term of [0, n_hi], each drawn and checked in turn."""
    K, ts = Fraction(K), []
    try:
        ts.extend(islice(seqgen._iter_terms(spec), n_hi + 1))
    except (HorizonExceededError, BudgetExceededError):
        return ("inconclusive", len(ts), None)
    prev_margin = prev_ratio = None
    for n in range(n_lo, n_hi + 1):
        total = sum(ts[:n])
        margin = ts[n] - K * total
        ratio = Fraction(ts[n], total) if total else None
        if margin <= 0 or (prev_margin is not None and margin <= prev_margin):
            return (VIOLATED, n, margin)
        if ratio is not None and prev_ratio is not None and ratio <= prev_ratio:
            return (VIOLATED, n, margin)
        prev_margin, prev_ratio = margin, ratio if ratio is not None else prev_ratio
    return (SATISFIED, n_hi, prev_margin)


_SMALL_SPECS = st.one_of(
    st.builds(SequenceSpec.arithmetic, st.integers(1, 9), st.integers(0, 9)),
    st.builds(SequenceSpec.geometric, st.integers(1, 9), st.integers(1, 12)),
    st.builds(SequenceSpec.double_exponential, st.integers(2, 5)),
    st.builds(SequenceSpec.power_tower, st.integers(2, 3)),
    st.builds(SequenceSpec.squared_sum, st.integers(1, 5)),
    st.builds(SequenceSpec.explicit, st.lists(st.integers(1, 10**12), min_size=1, max_size=12)),
)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(
    spec=_SMALL_SPECS,
    cap=st.integers(1, 40),
    K=st.fractions(Fraction(1, 100), 20),
    window=st.tuples(st.integers(0, 14), st.integers(1, 15)).filter(lambda w: w[0] < w[1]),
)
def test_dimzero_matches_the_criterion_over_a_list(spec, cap, K, window):
    spec = spec._replace(digit_cap=cap, horizon=15)
    assert dimzero_criterion(spec, K, *window) == _list_dimzero(spec, K, *window)


class TestSquaredSumCheck:
    def test_double_exponential_3_all_true(self):
        assert all(ok for _, ok in squared_sum_check(SequenceSpec.double_exponential(3), 6))

    def test_double_exponential_2_fails_at_2(self):
        results = dict(squared_sum_check(SequenceSpec.double_exponential(2), 3))
        assert results[2] is False  # 16 < 36

    def test_squared_sum_spec_holds_with_equality(self):
        spec = SequenceSpec.squared_sum(1)
        ts = terms(spec, 7)
        assert all(ok for _, ok in squared_sum_check(spec, 7))
        for n in range(1, 7):
            assert ts[n] == sum(ts[:n]) ** 2


class TestJson:
    def test_round_trip(self):
        for obj, spec in (
            ({"kind": "geometric", "first": 1, "ratio": 2, "horizon": 64},
             SequenceSpec.geometric(1, 2, horizon=64)),
            ({"kind": "arithmetic", "first": 1, "step": 3}, SequenceSpec.arithmetic(1, 3)),
            ({"kind": "explicit", "terms": [1, 2, 3]}, SequenceSpec.explicit([1, 2, 3])),
            ({"kind": "power_tower", "base": 2, "digit_cap": 50},
             SequenceSpec.power_tower(2, digit_cap=50)),
            ({"kind": "double_exponential", "base": 3}, SequenceSpec.double_exponential(3)),
            ({"kind": "squared_sum", "seed": 2, "horizon": 9, "digit_cap": 10**400},
             SequenceSpec.squared_sum(2, horizon=9, digit_cap=10**400)),
        ):
            assert spec_from_json(obj) == spec

    def test_documented_shape(self):
        obj = {"kind": "geometric", "first": 1, "ratio": 2, "horizon": 64, "digit_cap": 1000000}
        spec = spec_from_json(obj)
        assert spec == SequenceSpec.geometric(1, 2, horizon=64, digit_cap=1000000)

    def test_unknown_keys_rejected(self):
        with pytest.raises(InputError):
            spec_from_json({"kind": "geometric", "first": 1, "ratio": 2, "extra": 1})

    def test_wrong_param_types_rejected(self):
        with pytest.raises(InputError):
            spec_from_json({"kind": "geometric", "first": "1", "ratio": 2})

    @pytest.mark.parametrize("key", ["terms", "horizon"])
    def test_true_is_not_an_integer(self, key):
        obj = {"kind": "explicit", "terms": [1, 1, 2], "horizon": 2}
        obj[key] = [True, True, 2] if key == "terms" else True
        with pytest.raises(InputError, match=f"{key} must be"):
            spec_from_json(obj)


# ---------------------------------------------------------------------------
# properties

# power towers and tall double exponentials leave the digit cap quickly, so
# each family carries the largest index range it can always realize
_spec_and_count = st.one_of(
    st.tuples(
        st.builds(SequenceSpec.arithmetic, st.integers(1, 50), st.integers(0, 20)),
        st.integers(1, 12),
    ),
    st.tuples(
        st.builds(SequenceSpec.geometric, st.integers(1, 20), st.integers(1, 8)),
        st.integers(1, 12),
    ),
    st.tuples(st.builds(SequenceSpec.double_exponential, st.integers(2, 4)), st.integers(1, 6)),
    st.tuples(st.builds(SequenceSpec.power_tower, st.integers(2, 3)), st.integers(1, 4)),
    st.tuples(st.builds(SequenceSpec.squared_sum, st.integers(1, 9)), st.integers(1, 8)),
)


@settings(max_examples=120, derandomize=True, deadline=None)
@given(spec_n=_spec_and_count)
def test_terms_deterministic_positive_nondecreasing(spec_n):
    spec, n = spec_n
    a = terms(spec, n)
    assert a == terms(spec, n)
    assert all(t >= 1 for t in a)
    assert all(y >= x for x, y in zip(a, a[1:]))


@settings(max_examples=100, derandomize=True, deadline=None)
@given(b=st.integers(2, 10), k_num=st.integers(1, 5), k_den=st.integers(1, 5))
def test_geometric_violates_for_all_K(b, k_num, k_den):
    verdict = dimzero_criterion(
        SequenceSpec.geometric(1, b), Fraction(k_num, k_den), 2, 10
    )
    assert verdict.status == VIOLATED


@settings(max_examples=100, derandomize=True, deadline=None)
@given(seed=st.integers(1, 50), n=st.integers(1, 6))
def test_squared_sum_construction_invariant(seed, n):
    assert all(ok for _, ok in squared_sum_check(SequenceSpec.squared_sum(seed), n))


def _reference_terms(spec: SequenceSpec, n: int) -> list[int]:
    """Terms built one at a time from each kind's rule, each checked against the digit cap."""
    cap, out = spec.digit_cap, []
    for i in range(n):
        if spec.kind == "explicit":
            if i == len(spec.terms):
                raise HorizonExceededError(f"explicit sequence has only {i} terms", index=i)
            t = spec.terms[i]
        elif spec.kind == "arithmetic":
            t = spec.first + i * spec.step
        elif spec.kind == "geometric":
            t = spec.first * spec.ratio**i
        elif spec.kind == "squared_sum":
            t = sum(out) ** 2 if out else spec.seed
        else:
            # base**e has more than cap digits once e > 4*cap; don't build it
            e = spec.base**i if spec.kind == "double_exponential" else out[-1] if out else 0
            t = spec.base**e if e <= 4 * cap else None
        if t is None or len(str(t)) > cap:
            raise HorizonExceededError(
                f"term {i} exceeds the digit cap of {cap} decimal digits", index=i
            )
        out.append(t)
    return out


def _outcome(fn, *args):
    try:
        return fn(*args)
    except HorizonExceededError as exc:
        return ("error", str(exc), exc.index)


_CAP_AND_HORIZON = {"digit_cap": st.integers(1, 12), "horizon": st.integers(0, 2500)}
_capped_spec = st.one_of(
    st.builds(
        SequenceSpec.explicit,
        st.lists(st.integers(1, 10**12), min_size=1, max_size=30),
        **_CAP_AND_HORIZON,
    ),
    st.builds(SequenceSpec.arithmetic, st.integers(1, 120), st.integers(0, 120), **_CAP_AND_HORIZON),
    st.builds(SequenceSpec.geometric, st.integers(1, 120), st.integers(1, 12), **_CAP_AND_HORIZON),
    st.builds(SequenceSpec.double_exponential, st.integers(2, 12), **_CAP_AND_HORIZON),
    st.builds(SequenceSpec.power_tower, st.integers(2, 12), **_CAP_AND_HORIZON),
    st.builds(SequenceSpec.squared_sum, st.integers(1, 120), **_CAP_AND_HORIZON),
)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(spec=_capped_spec, data=st.data())
def test_chunked_terms_match_per_term_reference(spec, data):
    # same terms, or the same error message at the same index, for all six kinds
    n = data.draw(st.integers(0, spec.horizon + 1))
    assert _outcome(terms, spec, n) == _outcome(_reference_terms, spec, n)


def test_constant_geometric_at_the_cap_skips_the_per_term_check(monkeypatch):
    # ratio 1 keeps every term at exactly the cap's 3 digits, so the whole
    # horizon is known to fit before any term is drawn: the one digit test is
    # the safe prefix's, of the first term
    calls = 0
    real = seqgen._digits_exceed

    def counting(*args):
        nonlocal calls
        calls += 1
        return real(*args)

    monkeypatch.setattr(seqgen, "_digits_exceed", counting)
    spec = SequenceSpec.geometric(123, 1, digit_cap=3, horizon=200_000)
    assert terms(spec, 200_001) == [123] * 200_001
    assert calls == 1


@pytest.mark.parametrize(
    "spec, head",
    [
        (SequenceSpec.arithmetic(1, 1, horizon=10**400), [1, 2, 3]),
        (SequenceSpec.geometric(3, 2, horizon=10**400, digit_cap=10**400), [3, 6, 12]),
        (SequenceSpec.geometric(3, 2, horizon=10**30, digit_cap=10**30), [3, 6, 12]),
    ],
)
def test_huge_horizon_and_cap_give_terms(spec, head):
    assert terms(spec, 3) == head


def test_term_count_above_maxsize_is_refused():
    with pytest.raises(InputError):
        terms(SequenceSpec.arithmetic(1, 1, horizon=10**20), 10**19)


@pytest.mark.parametrize(
    "spec, known",
    [
        # 5 + 7*14 = 103 is the first term of three digits
        (SequenceSpec.arithmetic(5, 7, digit_cap=2, horizon=100), 14),
        (SequenceSpec.arithmetic(5, 7, digit_cap=2, horizon=13), 14),
        (SequenceSpec.arithmetic(100, 0, digit_cap=2, horizon=100), 0),
        (SequenceSpec.geometric(123, 1, digit_cap=3, horizon=100), 101),
        (SequenceSpec.geometric(1, 2, digit_cap=400, horizon=600), 601),
        (SequenceSpec.geometric(1, 2, digit_cap=100, horizon=600), 0),
        (SequenceSpec.squared_sum(1), 0),
    ],
)
def test_safe_prefix(spec, known):
    assert seqgen._safe_prefix(spec) == known


# the fields of a spec from a value; each passes 40 digits before term 65
_FIELDS_OF = {
    "base": lambda v: {"base": v},
    "seed": lambda v: {"seed": v},
    "step": lambda v: {"first": v, "step": 10**40 // (v % 60 + 1)},
    "ratio": lambda v: {"first": v, "ratio": 5 + v % 50},
    "terms": lambda v: {"terms": [v * 10**k for k in range(45)]},
}


@pytest.mark.parametrize(
    "kind, key",
    [("double_exponential", "base"), ("power_tower", "base"), ("squared_sum", "seed"),
     ("arithmetic", "step"), ("geometric", "ratio"), ("explicit", "terms")],
)
def test_huge_cap_stops_where_a_cap_of_the_budget_does(monkeypatch, kind, key):
    # with a budget of 40 digits, many terms fall just past it
    monkeypatch.setattr(seqgen, "_TERM_DIGIT_BUDGET", 40)
    for value in range(2 if key == "base" else 1, 300):
        stops = []
        for cap, error in ((40, HorizonExceededError), (10**400, BudgetExceededError)):
            spec = spec_from_json({"kind": kind, **_FIELDS_OF[key](value), "digit_cap": cap})
            with pytest.raises(error) as exc:
                terms(spec, 65)
            stops.append(int(str(exc.value).split()[1]))
        assert stops[0] == stops[1], value


@pytest.mark.parametrize(
    "spec, message",
    [
        ({"kind": "explicit", "terms": [3, 0]}, "every term must be >= 1"),
        ({"kind": "arithmetic", "first": 1, "step": -1},
         "arithmetic needs first >= 1 and step >= 0"),
        ({"kind": "geometric", "first": 0, "ratio": 2},
         "geometric needs first >= 1 and ratio >= 1"),
        ({"kind": "double_exponential", "base": 1}, "double_exponential needs base >= 2"),
        ({"kind": "power_tower", "base": 0}, "power_tower needs base >= 2"),
        ({"kind": "squared_sum", "seed": 0}, "squared_sum needs seed >= 1"),
    ],
)
def test_each_kind_names_its_least_values(spec, message):
    with pytest.raises(InputError) as exc:
        spec_from_json(spec)
    assert str(exc.value) == message


@settings(max_examples=300, derandomize=True, deadline=None)
@given(
    total=st.integers(1, 2**200),
    t=st.integers(1, 2**401) | st.integers(-(2**70), 2**70).map(lambda d: ("near", d)),
)
def test_squared_sum_check_decides_as_the_square(total, t):
    # bit lengths decide most terms; the ones beside total**2 are squared
    if isinstance(t, tuple):
        t = max(1, total * total + t[1])
    rows = squared_sum_check(SequenceSpec.explicit([total, t]), 2)
    assert rows == [(0, True), (1, t >= total * total)]
