"""Acceptance gate: one test per shipped criterion, at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one pass/fail line
per criterion; each test also prints its own summary line on success.
"""

import math
import random
from fractions import Fraction

import pytest

from fractaldim import blockset, boxdim, selfsimilar
from fractaldim.blockset import BlockSchedule, dim_bounds, hausdorff_dim
from fractaldim.boxdim import (
    IntervalSource,
    RuleSource,
    closure_count_check,
    count_series,
    critical_d,
    slope_dim,
    two_grid_dim,
)
from fractaldim.cli import main as cli_main
from fractaldim.hypergrid import (
    HyperGrid,
    InternalSet,
    cantor_stage,
    h_delta_s_dp,
    h_delta_s_greedy,
    outer_h_measure,
)
from fractaldim.selfsimilar import (
    IfsRatios,
    closed_form_check,
    dim_from_rule,
    moran_solve,
    rule,
)
from fractaldim.seqgen import SATISFIED, VIOLATED, SequenceSpec, dimzero_criterion

CANTOR_DIM = math.log(2) / math.log(3)


def _announce(number: int, text: str) -> None:
    print(f"PASS criterion {number:02d}: {text}")


def test_criterion_01_block_family_tables(tmp_path):
    """Block-family tables: dim cells 1/(n+1) and 1/2, hs cells sigma**-dim."""
    out_path = tmp_path / "tables.csv"
    assert cli_main(["tables-ch6", "--n-max", "14", "--out", str(out_path)]) == 0
    rows = out_path.read_text().strip().splitlines()[1:]
    assert len(rows) == 40
    for row in rows:
        family, param, sigma, dim, estimate, _, hs = row.split(",")
        param, sigma = int(param), int(sigma)
        expected = Fraction(1, param + 1) if family == "geometric" else Fraction(1, 2)
        cell = Fraction(dim)
        assert abs(cell - expected) <= Fraction(1, 100)
        assert abs(float(hs) - sigma ** float(-expected)) <= 1e-9
        # the exact cut estimates behind each cell climb monotonically
        schedule = _family_schedule(family, param, sigma)
        estimates = [hausdorff_dim(schedule, n) for n in range(2, 15)]
        assert all(b >= a for a, b in zip(estimates, estimates[1:]))
        assert estimates[-1] <= expected
        assert Fraction(estimate) == estimates[-1]
    _announce(1, "40 table cells match 1/(n+1), 1/2 and sigma**-dim")


def _family_schedule(family: str, param: int, sigma: int) -> BlockSchedule:
    if family == "geometric":
        spec = SequenceSpec.geometric(1, param, horizon=15)
    else:
        spec = SequenceSpec.arithmetic(1, param, horizon=15)
    return BlockSchedule(base=sigma, alphabet=sigma, zeros=spec)


def test_criterion_02_doubling_two_sided_dimension():
    """Doubling set: upper family exactly 1/2, lower within 1e-3 of 1/3 by k=12."""
    schedule = BlockSchedule(base=2, alphabet=2, zeros=SequenceSpec.geometric(1, 2))
    report = dim_bounds(schedule, 12)
    assert all(v == Fraction(1, 2) for (_, _, _, v) in report.upper_samples)
    assert abs(float(report.lower) - 1 / 3) < 1e-3
    _announce(2, "doubling set bounds (1/3, 1/2) reproduced")


CATALOG_EXPECTED = {
    "cantor": 0.630929754,
    "cantor5": 0.682606194,
    "koch": 1.261859507,
    "carpet": 1.892789261,
    "gasket": 1.584962501,
    "quadratic_koch": 2.0,
    "menger": 2.726833028,
    "hyperpyramid": 3.169925001,
}


def test_criterion_03_moran_rule_catalog():
    """Moran roots agree with rule dimensions within 1e-9 on all nine entries."""
    for name, reference in CATALOG_EXPECTED.items():
        r = rule(name)
        d_rule = dim_from_rule(r)
        d_moran = moran_solve(IfsRatios(tuple([1.0 / r.scale] * r.pieces))).s
        assert abs(d_moran - d_rule) <= 1e-9, name
        assert abs(d_rule - reference) <= 5e-10, name  # 9-decimal reference
    golden = math.log((1 + math.sqrt(5)) / 2) / math.log(2)
    d_mixed = moran_solve(IfsRatios((0.5, 0.25))).s
    assert abs(d_mixed - golden) <= 1e-9
    assert abs(golden - 0.694241914) <= 5e-10
    _announce(3, "nine Moran/rule dimensions agree within 1e-9")


def test_criterion_04_critical_exponent_recovers_catalog():
    """Dot-count critical exponent matches each catalog dimension within 1e-6."""
    for name in CATALOG_EXPECTED:
        r = rule(name)
        series = count_series(RuleSource(r), list(range(1, 26)))
        result = critical_d(series, tol=1e-8)
        assert abs(result.d - dim_from_rule(r)) <= 1e-6, name
    _announce(4, "critical exponents within 1e-6 on m <= 25 series")


def test_criterion_05_two_grid():
    """Aligned carpet grids give log8/log3 bitwise; interval grids give ~1."""
    carpet_dim = math.log(8) / math.log(3)
    for p, q in ((1, 4), (2, 5), (2, 6)):
        result = two_grid_dim(8**q, 8**p, Fraction(1, 3**q), Fraction(1, 3**p))
        assert result.d == carpet_dim, (p, q)
    interval = two_grid_dim(
        2**20 - 1, 2**10 - 1, Fraction(1, 2**20), Fraction(1, 2**10)
    )
    assert abs(interval.d - 1.0) <= 2e-4
    _announce(5, "two-grid exact on carpet, within 2e-4 on the interval")


def _random_internal_set(rng: random.Random, N: int) -> InternalSet:
    runs = []
    cursor = 0
    for _ in range(rng.randint(1, 6)):
        start = cursor + rng.randint(0, 40)
        end = start + rng.randint(0, 60)
        if end > N:
            break
        runs.append((start, end))
        cursor = end + 2
    if not runs:
        runs = [(0, rng.randint(0, N // 2))]
    return InternalSet(tuple(i for i, _ in runs), tuple(j for _, j in runs))


def test_criterion_06_greedy_dp_oracle_200_cases():
    """Greedy cost equals DP cost exactly on 200 seeded random internal sets."""
    rng = random.Random(20240817)
    matches = 0
    for case in range(200):
        N = rng.randint(16, 512)
        B = _random_internal_set(rng, N)
        D = rng.randint(1, 32)
        s = (0.3, 0.5, 1.0)[case % 3]
        grid = HyperGrid(N)
        delta = Fraction(D, N)
        greedy = h_delta_s_greedy(B, delta, s, grid)
        oracle = h_delta_s_dp(B, delta, s, grid)
        matches += greedy.cost == oracle.cost
    assert matches == 200
    _announce(6, "greedy equals the DP oracle in 200/200 cases")


def test_criterion_07_blow_up_reproduction():
    """Cost at delta = 3**-2m grows by a factor in [1.45, 1.55] per stage."""
    costs = []
    for m in range(2, 7):
        grid = HyperGrid(3 ** (2 * m + 4))
        rows = outer_h_measure(
            cantor_stage(m), CANTOR_DIM, [Fraction(1, 3 ** (2 * m))], grid
        )
        costs.append(rows[0][1])
    ratios = [b / a for a, b in zip(costs, costs[1:])]
    assert all(1.45 <= r <= 1.55 for r in ratios), ratios
    _announce(7, f"blow-up ratios {['%.3f' % r for r in ratios]} in [1.45, 1.55]")


def test_criterion_08_geometry_self_consistency():
    """Closed forms reproduce the recurrences exactly, except the flagged one."""
    expected_consistent = {
        ("sierpinski_gasket", "perimeter"),
        ("sierpinski_gasket", "area"),
        ("sierpinski_carpet", "perimeter"),
        ("sierpinski_carpet", "area"),
        ("quadratic_koch", "perimeter"),
        ("quadratic_koch", "area"),
        ("menger_sponge", "surface_area"),
        ("menger_sponge", "volume"),
    }
    for name in ("sierpinski_gasket", "sierpinski_carpet", "quadratic_koch",
                 "menger_sponge"):
        for report in closed_form_check(name, 20):
            assert (name, report.quantity) in expected_consistent
            assert report.consistent and report.max_deviation == 0, report
    koch = {r.quantity: r for r in closed_form_check("koch", 20)}
    assert not koch["perimeter"].consistent
    assert koch["perimeter"].first_mismatch == 1
    perim = next(
        s for s in selfsimilar.geometry_catalog("koch") if s.quantity == "perimeter"
    )
    assert perim.values(1)[1] == 4 and perim.closed_values(1)[1] == 5
    _announce(8, "eight series consistent at deviation 0; koch perimeter flagged")


def test_criterion_09_dimension_zero_criteria():
    """Growth criterion and tail dimension agree on the zero/positive split."""
    assert (
        dimzero_criterion(SequenceSpec.double_exponential(2), 10**6, 6, 8).status
        == SATISFIED
    )
    assert (
        dimzero_criterion(SequenceSpec.double_exponential(3), 10**6, 3, 6).status
        == SATISFIED
    )
    for b in range(2, 11):
        verdict = dimzero_criterion(SequenceSpec.geometric(1, b), 1, 2, 12)
        assert verdict.status == VIOLATED, b
    tower = BlockSchedule(
        base=2, alphabet=2, zeros=SequenceSpec.power_tower(2, horizon=6)
    )
    assert hausdorff_dim(tower, 5) < Fraction(1, 1000)
    _announce(9, "zero-dimension growth criteria satisfied/violated as expected")


def test_criterion_10_property_suites():
    """Seeded property sweeps, 100+ cases per invariant."""
    rng = random.Random(96321)

    # hypergrid: delta-monotonicity, s-monotonicity, additivity, s=1 pin
    for _ in range(100):
        N = rng.randint(16, 512)
        grid = HyperGrid(N)
        B = _random_internal_set(rng, N)
        d1, d2 = sorted((rng.randint(1, 16), rng.randint(1, 16)))
        s = rng.choice((0.3, 0.5, 1.0))
        small = h_delta_s_greedy(B, Fraction(d1, N), s, grid).cost
        big = h_delta_s_greedy(B, Fraction(d2, N), s, grid).cost
        assert small >= big - 1e-12 * max(1.0, big)

        s_lo, s_hi = sorted((rng.uniform(0.1, 1.0), rng.uniform(0.1, 1.0)))
        delta = Fraction(rng.randint(1, 16), N)
        assert (
            h_delta_s_greedy(B, delta, s_hi, grid).cost
            <= h_delta_s_greedy(B, delta, s_lo, grid).cost + 1e-12
        )

        total = h_delta_s_greedy(B, delta, s, grid).cost
        split = math.fsum(
            h_delta_s_greedy(InternalSet((i,), (j,)), delta, s, grid).cost
            for i, j in zip(B.starts, B.ends)
        )
        assert total == pytest.approx(split, rel=1e-12, abs=1e-15)

        unit = h_delta_s_greedy(B, delta, 1, grid)
        assert unit.cost == float(Fraction(B.card, N))

    # blockset: cover-count ratio is 1 or sigma, exactly when the digit is free
    for _ in range(100):
        base = rng.randint(2, 4)
        sigma = rng.randint(2, base)
        if rng.random() < 0.5:
            zeros = SequenceSpec.arithmetic(rng.randint(1, 4), rng.randint(0, 3))
        else:
            zeros = SequenceSpec.geometric(rng.randint(1, 3), rng.randint(1, 3))
        schedule = BlockSchedule(base=base, alphabet=sigma, zeros=zeros)
        m = rng.randint(0, 40)
        before = blockset.cover_count(schedule, m)
        after = blockset.cover_count(schedule, m + 1)
        ratio = after // before
        assert after % before == 0 and ratio in (1, sigma)
        assert (ratio == sigma) == (blockset.digit_role(schedule, m + 1) == "free")

    # boxdim: subset monotonicity of slope bounds, closure equality on
    # dense interval samples
    for _ in range(100):
        length = rng.randint(4, 8)
        counts1 = sorted(rng.randint(1, 10**6) for _ in range(length))
        counts2 = [c + rng.randint(0, 10**6) for c in counts1]
        levels = list(range(1, length + 1))
        s1 = count_series(
            boxdim.ExplicitSource(dict(zip(levels, counts1))), levels
        )
        s2 = count_series(
            boxdim.ExplicitSource(dict(zip(levels, counts2))), levels
        )
        lo1, hi1 = slope_dim(s1, length)
        lo2, hi2 = slope_dim(s2, length)
        assert lo1 <= lo2 + 1e-12 and hi1 <= hi2 + 1e-12

        a = Fraction(rng.randint(0, 98), 100)
        b = Fraction(rng.randint(int(a * 100) + 1, 100), 100)
        m = rng.randint(1, 9)
        source = IntervalSource(a, b, base=2)
        scale = 2**m
        points = [
            max(a, Fraction(i, scale))
            for i in range(scale)
            if Fraction(i, scale) <= b and Fraction(i + 1, scale) > a
        ]
        assert closure_count_check(points, source, m).equal

    _announce(10, "property sweeps passed with 100+ seeded cases each")
