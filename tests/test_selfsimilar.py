"""Self-similar dimension, catalog geometry, and fat Cantor tests.

Independent oracles: the Moran root for {1/2, 1/4} has the golden-ratio
closed form via t + t**2 = 1 with t = 2**-s, and a plain bisection coded
inline (separate from the solver's) confirms it; closed forms are the
cross-check on every recurrence.
"""

import math
import random
from fractions import Fraction
from itertools import chain, combinations_with_replacement, repeat

import pytest
from hypothesis import given, settings, strategies as st

from fractaldim import selfsimilar
from fractaldim.errors import InputError, UnknownCatalogError
from fractaldim.selfsimilar import (
    RULES,
    IfsRatios,
    MoranRoot,
    PieceRule,
    _copies,
    closed_form_check,
    dim_from_rule,
    fat_cantor,
    geometry_catalog,
    moran_solve,
    rule,
)

CATALOG_DIMS = {
    "cantor": 0.630929753571457,
    "cantor5": 0.682606194485985,
    "koch": 1.261859507142915,
    "sierpinski_carpet": 1.892789260714372,
    "sierpinski_gasket": 1.584962500721156,
    "quadratic_koch": 2.0,
    "menger_sponge": 2.726833027860842,
    "hyperpyramid": 3.169925001442312,
}


class TestDimFromRule:
    @pytest.mark.parametrize("name,expected", sorted(CATALOG_DIMS.items()))
    def test_catalog(self, name, expected):
        assert dim_from_rule(rule(name)) == pytest.approx(expected, abs=1e-12)

    def test_aliases(self):
        assert rule("carpet") is RULES["sierpinski_carpet"]
        assert rule("gasket") is RULES["sierpinski_gasket"]
        assert rule("menger") is RULES["menger_sponge"]

    def test_unknown(self):
        with pytest.raises(UnknownCatalogError):
            rule("nope")

    def test_validation(self):
        with pytest.raises(InputError):
            PieceRule("bad", 0, 3, 1)
        with pytest.raises(InputError):
            PieceRule("bad", 2, 1, 1)


def bisect_oracle(cs, lo=0.0, hi=10.0, iters=200):
    """Plain inline bisection on sum(c**s) = 1, independent of the solver."""
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if sum(c**mid for c in cs) > 1:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


class TestMoran:
    def test_eight_thirds(self):
        root = moran_solve(IfsRatios(tuple([Fraction(1, 3)] * 8)))
        assert root.s == pytest.approx(math.log(8) / math.log(3), abs=1e-9)

    def test_two_halves(self):
        root = moran_solve(IfsRatios((0.5, 0.5)))
        assert root.s == pytest.approx(1.0, abs=1e-9)

    def test_half_quarter_golden(self):
        golden = (1 + math.sqrt(5)) / 2
        expected = math.log(golden) / math.log(2)
        root = moran_solve(IfsRatios((0.5, 0.25)))
        assert root.s == pytest.approx(expected, abs=1e-9)
        assert root.s == pytest.approx(bisect_oracle([0.5, 0.25]), abs=1e-9)

    def test_single_ratio_degenerate(self):
        root = moran_solve(IfsRatios((0.5,)))
        assert root.s == 0.0
        assert root.degenerate

    def test_matches_rule_dimension_on_catalog(self):
        for name in CATALOG_DIMS:
            r = rule(name)
            ratios = IfsRatios(tuple([1.0 / r.scale] * r.pieces))
            assert moran_solve(ratios).s == pytest.approx(dim_from_rule(r), abs=1e-9)

    def test_ratio_validation(self):
        with pytest.raises(InputError):
            IfsRatios(())
        with pytest.raises(InputError):
            IfsRatios((1.0,))
        with pytest.raises(InputError):
            IfsRatios((0.5, 0.0))

    @pytest.mark.parametrize("counts", [(0,), (-1,), (True,), (2.0,), (1, 1)])
    def test_count_validation(self, counts):
        with pytest.raises(InputError):
            IfsRatios((0.5,), counts)

    def test_huge_multiplicity(self):
        # 10**30 maps of ratio 1/2: n * 2**-s = 1 at s = log2(n), no n-long list
        root = moran_solve(IfsRatios((0.5,), (10**30,)))
        assert root.s == pytest.approx(30 * math.log2(10), abs=1e-9)
        with pytest.raises(InputError):
            IfsRatios((0.5,), (10**400,))  # the Moran sum at s = 0 overflows a float


GEOMETRY_NAMES = ("koch", "quadratic_koch", "sierpinski_gasket",
                  "sierpinski_carpet", "menger_sponge", "menger_standard")


def recurrence(name: str, m: int) -> dict[str, list[Fraction]]:
    """Recurrence values for iterations 0..m, one list per quantity."""
    return {series.quantity: series.values(m) for series in geometry_catalog(name)}


class TestGeometrySeries:
    def test_gasket_perimeter(self):
        values = recurrence("sierpinski_gasket", 2)["perimeter"]
        assert values == [Fraction(3), Fraction(9, 2), Fraction(27, 4)]

    def test_carpet_area_m2(self):
        assert recurrence("sierpinski_carpet", 2)["area"][2] == Fraction(64, 81)

    def test_quadratic_koch_area_constant(self):
        assert recurrence("quadratic_koch", 12)["area"] == [Fraction(1)] * 13

    def test_menger_volume(self):
        vols = recurrence("menger_sponge", 2)["volume"]
        assert vols[1] == Fraction(26, 27)
        assert vols[2] == Fraction(682, 729)

    def test_menger_standard_volume(self):
        vols = recurrence("menger_standard", 3)["volume"]
        assert vols == [Fraction(20, 27) ** m for m in range(4)]

    def test_koch_perimeter_multiplies_by_four_thirds(self):
        values = recurrence("koch", 5)["perimeter"]
        assert values[:4] == [Fraction(3), Fraction(4), Fraction(16, 3), Fraction(64, 9)]
        for a, b in zip(values, values[1:]):
            assert b == a * Fraction(4, 3)

    def test_unknown_name(self):
        with pytest.raises(UnknownCatalogError):
            geometry_catalog("cantor")  # rule-only catalog entry

    def test_all_values_positive(self):
        for name in GEOMETRY_NAMES:
            for values in recurrence(name, 10).values():
                assert all(v > 0 for v in values)

    @pytest.mark.parametrize("alias, target", [("carpet", "sierpinski_carpet"),
                                               ("gasket", "sierpinski_gasket"),
                                               ("menger", "menger_sponge")])
    def test_alias_checks_as_its_target(self, alias, target):
        assert closed_form_check(alias, 30) == closed_form_check(target, 30)

    @pytest.mark.parametrize("name", [*GEOMETRY_NAMES, "carpet", "gasket", "menger"])
    def test_series_named_by_the_canonical_key(self, name):
        key = rule(name).name
        series = geometry_catalog(name)
        assert series and [s.name for s in series] == [key] * len(series)

    def test_new_list_on_every_call(self):
        first = geometry_catalog("koch")
        assert geometry_catalog("koch") is not first
        first.clear()
        assert [s.quantity for s in geometry_catalog("koch")] == ["perimeter", "area"]


class TestClosedFormCheck:
    def test_consistent_catalog(self):
        consistent_quantities = {
            "sierpinski_gasket": {"perimeter", "area"},
            "sierpinski_carpet": {"perimeter", "area"},
            "quadratic_koch": {"perimeter", "area"},
            "menger_sponge": {"surface_area", "volume"},
            "menger_standard": {"volume"},
        }
        for name, quantities in consistent_quantities.items():
            reports = {r.quantity: r for r in closed_form_check(name, 20)}
            assert set(reports) == quantities
            for r in reports.values():
                assert r.consistent and r.max_deviation == 0, (name, r)

    def test_koch_perimeter_flagged(self):
        reports = {r.quantity: r for r in closed_form_check("koch", 20)}
        assert reports["area"].consistent
        perim = reports["perimeter"]
        assert not perim.consistent
        assert perim.first_mismatch == 1  # recurrence 4 vs closed form 5

    @settings(max_examples=200, deadline=None)
    @given(
        st.fractions(min_value=-4, max_value=4, max_denominator=50).filter(lambda r: r != 1),
        st.integers(min_value=0, max_value=12),
        st.integers(min_value=-1, max_value=12),
    )
    def test_geom_sum_matches_enumeration(self, ratio, k_lo, k_hi):
        from fractaldim.selfsimilar import _geom_sum

        expected = sum((ratio**k for k in range(k_lo, k_hi + 1)), Fraction(0))
        assert _geom_sum(ratio, k_lo, k_hi) == expected

    @pytest.mark.parametrize("ratio", [Fraction(4, 3), Fraction(4, 9), Fraction(2), Fraction(3, 2),
                                       Fraction(3, 4), Fraction(8, 3), Fraction(8, 9),
                                       Fraction(20, 9), Fraction(20, 27)])
    @pytest.mark.parametrize("k_lo", [0, 1])
    def test_geom_sum_at_large_exponents(self, ratio, k_lo):
        # every catalog ratio, against the formula in Fraction arithmetic
        from fractaldim.selfsimilar import _geom_sum

        assert _geom_sum(ratio, k_lo, k_lo - 1) == 0
        for k_hi in (k_lo, 2, 500, 1999, 2000):
            expected = (ratio ** (k_hi + 1) - ratio**k_lo) / (ratio - 1)
            assert _geom_sum(ratio, k_lo, k_hi) == expected, k_hi

    def test_koch_mismatch_values(self):
        from fractaldim.selfsimilar import geometry_catalog

        perim = next(
            s for s in geometry_catalog("koch") if s.quantity == "perimeter"
        )
        assert perim.values(1)[1] == 4
        assert perim.closed_values(1)[1] == 5


class TestFatCantor:
    def test_classical_thirds(self):
        from fractaldim.hypergrid import cantor_stage

        seq = [Fraction(2, 3) ** i for i in range(7)]
        for m in range(7):
            stage = fat_cantor(seq, m)
            assert stage.measure == Fraction(2, 3) ** m
            assert list(stage.intervals) == cantor_stage(m)

    def test_nothing_removed(self):
        stage = fat_cantor([1, 1, 1], 2)
        assert stage.measure == 1
        total = sum(b - a for a, b in stage.intervals)
        assert total == 1

    def test_positive_limit_sequence(self):
        seq = [Fraction(1, 2) + Fraction(1, 2 ** (i + 1)) for i in range(9)]
        stage = fat_cantor(seq, 8)
        assert stage.measure == seq[8]
        assert float(stage.measure) == pytest.approx(0.5, abs=2e-3)

    def test_stage_structure(self):
        seq = [Fraction(1), Fraction(3, 4), Fraction(5, 9)]
        stage = fat_cantor(seq, 2)
        assert len(stage.intervals) == 4
        lengths = {b - a for a, b in stage.intervals}
        assert lengths == {seq[2] / 4}
        assert sum(b - a for a, b in stage.intervals) == seq[2]

    def test_nesting_and_disjointness(self):
        seq = [Fraction(1), Fraction(2, 3), Fraction(1, 2), Fraction(2, 5)]
        prev = fat_cantor(seq, 0).intervals
        for m in range(1, 4):
            cur = fat_cantor(seq, m).intervals
            for a, b in cur:
                assert any(pa <= a and b <= pb for pa, pb in prev)
            for (_, b1), (a2, _) in zip(cur, cur[1:]):
                assert b1 < a2
            prev = cur

    def test_rejects_increase(self):
        with pytest.raises(InputError):
            fat_cantor([Fraction(1), Fraction(1, 2), Fraction(3, 4)], 2)
        with pytest.raises(InputError):
            fat_cantor([Fraction(1, 2), Fraction(1, 3)], 1)


# ---------------------------------------------------------------------------
# properties


@settings(max_examples=120, derandomize=True, deadline=None)
@given(
    ratios=st.lists(st.floats(0.05, 0.9), min_size=2, max_size=6),
    probe=st.floats(0.0, 4.0),
)
def test_moran_function_strictly_decreasing(ratios, probe):
    cs = tuple(ratios)
    root = moran_solve(IfsRatios(cs), tol=1e-11)
    f = lambda s: sum(c**s for c in cs)
    assert abs(f(root.s) - 1.0) < 1e-6
    if probe < root.s - 1e-6:
        assert f(probe) > f(root.s)
    elif probe > root.s + 1e-6:
        assert f(probe) < f(root.s)


@settings(max_examples=150, derandomize=True, deadline=None)
@given(
    pairs=st.lists(
        st.tuples(st.floats(0.01, 0.95), st.integers(1, 300)), min_size=1, max_size=5
    ),
    tol=st.sampled_from([1e-12, 1e-9, 1e-6]),
)
def test_moran_multiplicities_match_flat_expansion(pairs, tol):
    # each ratio listed once per map is the reference: same float, field for field
    flat = tuple(c for c, k in pairs for _ in range(k))
    counted = IfsRatios(tuple(c for c, _ in pairs), tuple(k for _, k in pairs))
    assert moran_solve(counted, tol=tol) == moran_solve(IfsRatios(flat), tol=tol)


# ---------------------------------------------------------------------------
# the certified bracket replays the plain bisection


def _reference_bisection(ratios: IfsRatios, tol: float) -> MoranRoot:
    """The Moran bisection that computes f at every step."""
    n = ratios.total
    if n == 1:
        return MoranRoot(s=0.0, width=0.0, degenerate=True)
    pairs = list(zip(ratios.ratios, ratios.counts))
    singles = [c for c, k in pairs if k == 1]
    repeated = [(c, k) for c, k in pairs if k > 1]

    def f(s):
        many = chain.from_iterable(_copies(c**s, k) for c, k in repeated)
        return math.fsum(chain(map(pow, singles, repeat(s)), many))

    hi = math.log(n) / -math.log(max(ratios.ratios)) + 1e-9
    lo = 0.0
    iterations = 0
    while hi - lo > tol and iterations < 200:
        mid = 0.5 * (lo + hi)
        if f(mid) > 1.0:
            lo = mid
        else:
            hi = mid
        iterations += 1
    return MoranRoot(s=0.5 * (lo + hi), width=hi - lo, iterations=iterations)


EXTREME_RATIOS = (5e-324, 2.2250738585072014e-308, 1e-300, 0.9999999999999999)
MORAN_TOLS = (1e-12, 1e-9, 1.0, 1e-300, 5e-324)
RATIO = st.one_of(
    st.sampled_from(EXTREME_RATIOS),
    st.floats(0, 1, exclude_min=True, exclude_max=True),
    st.builds(lambda p, q: Fraction(p, p + q), st.integers(1, 10**9), st.integers(1, 10**9)),
)


@st.composite
def moran_inputs(draw):
    """2 to 1,000 ratios: a drawn head padded by seeded floats, one in ten extreme."""
    n = draw(st.integers(2, 1000))
    cs = draw(st.lists(RATIO, min_size=1, max_size=min(n, 20)))
    rng = random.Random(draw(st.integers(0, 2**32)))
    while len(cs) < n:
        cs.append(rng.choice(EXTREME_RATIOS) if rng.random() < 0.1 else rng.random() or 0.5)
    counts = [1] * n
    for i in draw(st.lists(st.integers(0, n - 1), max_size=4)):
        counts[i] = draw(st.integers(2, 10**300))
    return IfsRatios(tuple(cs), tuple(counts))


@settings(max_examples=100, derandomize=True, deadline=None)
@given(ratios=moran_inputs(), tol=st.sampled_from(MORAN_TOLS))
def test_moran_matches_the_reference_bisection(ratios, tol):
    assert moran_solve(ratios, tol=tol) == _reference_bisection(ratios, tol)


def test_moran_matches_the_reference_on_extremes():
    # a Fraction below the float range has no logarithm, so no Newton estimate
    pairs = [*combinations_with_replacement(EXTREME_RATIOS, 2), (Fraction(1, 10**400), 0.5)]
    for cs in pairs:
        for counts in ((), (2**996, 1)):  # one exact term for 6.7e299 maps
            ratios = IfsRatios(cs, counts)
            for tol in MORAN_TOLS:
                assert moran_solve(ratios, tol=tol) == _reference_bisection(ratios, tol), (cs, tol)


@pytest.mark.parametrize(
    "cs",
    [
        (Fraction(10**20 - 1, 10**20), Fraction(1, 2)),  # the largest rounds to 1.0
        (Fraction(1, 10**400), Fraction(1, 10**401)),  # every ratio rounds to 0.0
    ],
)
def test_moran_refuses_a_largest_ratio_outside_the_float_range(cs):
    with pytest.raises(InputError, match="strictly in"):
        moran_solve(IfsRatios(cs))


def _count_sums(monkeypatch) -> list:
    calls = []
    real = selfsimilar._moran_sum
    monkeypatch.setattr(selfsimilar, "_moran_sum", lambda *a: calls.append(a) or real(*a))
    return calls


def test_moran_sums_on_many_random_ratios(monkeypatch):
    # drawn as the benchmark's moran_random input; the plain bisection sums 42 times
    rng = random.Random(7)
    cs = [round(rng.uniform(0.0005, 0.02), 8) for _ in range(30_000)]
    cs[rng.randrange(len(cs))] = 0.02
    calls = _count_sums(monkeypatch)
    root = moran_solve(IfsRatios(tuple(cs)))
    assert root.iterations == 42
    assert len(calls) <= 12


def test_moran_sums_on_one_repeated_ratio(monkeypatch):
    calls = _count_sums(monkeypatch)
    root = moran_solve(IfsRatios((0.02,), (150_000,)))
    assert root.s == pytest.approx(math.log(150_000) / math.log(50), abs=1e-9)
    assert root.iterations == 42
    assert len(calls) <= 8


@pytest.mark.parametrize(
    "cs, before",
    [((0.9999999999999999, 0.5), 95), ((5e-324, 0.84), 37), ((1e-300, 0.9), 40)],
)
def test_moran_steps_right_of_an_estimate_that_stopped_short(monkeypatch, cs, before):
    # both probes beside the Newton estimate certify f > 1; with only those two
    # probes the solve summed ``before`` times
    ratios = IfsRatios(cs)
    calls = _count_sums(monkeypatch)
    assert moran_solve(ratios) == _reference_bisection(ratios, 1e-12)
    assert len(calls) < before - 10


@pytest.mark.parametrize(
    "ratios",
    [IfsRatios((0.02,), (150_000,)), IfsRatios((0.02, 0.0005) + (0.01,) * 3000)],
)
def test_moran_steps_no_further_when_both_sides_are_certified(monkeypatch, ratios):
    calls = _count_sums(monkeypatch)
    sums = []
    for reach in (selfsimilar._MORAN_REACH, 0):
        monkeypatch.setattr(selfsimilar, "_MORAN_REACH", reach)
        calls.clear()
        assert moran_solve(ratios) == _reference_bisection(ratios, 1e-12)
        sums.append(len(calls))
    assert sums[0] == sums[1] <= 5
