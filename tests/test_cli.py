"""Command-line front end tests: outputs, determinism, exit codes."""

import argparse
import copy
import errno
import gc
import hashlib
import inspect
import io
import json
import math
import os
import random
import resource
import subprocess
import sys
import time
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from itertools import chain
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

import pytest
from hypothesis import HealthCheck, assume, example, given, settings, strategies as st

import fractaldim
from fractaldim import _digits, blockset, boxdim, cli, hypergrid, selfsimilar, seqgen
from fractaldim._digits import _READ_BASE_BITS, DECIMAL_BASE_BITS
from fractaldim.cli import main
from fractaldim.errors import BudgetExceededError, FractalDimError, HorizonExceededError, InputError

ROOT = Path(__file__).resolve().parent.parent

DOUBLING = {
    "base": 2,
    "alphabet": 2,
    "zeros": {"kind": "geometric", "first": 1, "ratio": 2, "horizon": 64,
              "digit_cap": 1000000},
    "frees": "same_as_zeros",
    "m_cap": "10^7",
}


@pytest.fixture()
def doubling_path(tmp_path):
    path = tmp_path / "doubling.json"
    path.write_text(json.dumps(DOUBLING))
    return str(path)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_module(*argv, timeout, address_space=None):
    """``python -m fractaldim.cli ARGV`` in a fresh interpreter, killed after ``timeout`` s.

    ``address_space`` caps the interpreter's ``RLIMIT_AS`` at that many bytes.
    """

    def cap_memory():
        hard = resource.getrlimit(resource.RLIMIT_AS)[1]
        resource.setrlimit(resource.RLIMIT_AS, (address_space, hard))

    return subprocess.run(
        [sys.executable, "-m", "fractaldim.cli", *argv],
        env=dict(os.environ, PYTHONPATH=str(Path(fractaldim.__file__).resolve().parent.parent)),
        capture_output=True,
        text=True,
        timeout=timeout,
        preexec_fn=None if address_space is None else cap_memory,
    )


def run_cli_peak(capsys, *argv):
    """``run_cli`` plus the peak of the memory traced while the command ran."""
    tracemalloc.start()
    try:
        result = run_cli(capsys, *argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return (*result, peak)


class TestDimBlock:
    def test_doubling_summary(self, capsys, doubling_path):
        code, out, _ = run_cli(capsys, "dim-block", doubling_path, "--n-max", "12")
        assert code == 0
        assert "upper,1/2,0.500000000000" in out
        lower_line = next(ln for ln in out.splitlines() if ln.startswith("lower,"))
        assert abs(float(lower_line.split(",")[2]) - 1 / 3) < 1e-3

    def test_sample_rows(self, capsys, doubling_path):
        code, out, _ = run_cli(capsys, "dim-block", doubling_path, "--n-max", "3")
        assert out.splitlines()[0] == "kind,n,m,x_count,local_dim,local_dim_decimal"
        assert "after_zeros,3,22,7,7/22," in out

    def test_malformed_json_exit_2(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("")
        code, _, err = run_cli(capsys, "dim-block", str(bad), "--n-max", "3")
        assert code == 2
        assert "error:" in err

    def test_horizon_exceeded_exit_3(self, capsys, tmp_path):
        spec = dict(DOUBLING)
        spec["zeros"] = {"kind": "geometric", "first": 1, "ratio": 2, "horizon": 4}
        path = tmp_path / "short.json"
        path.write_text(json.dumps(spec))
        code, _, err = run_cli(capsys, "dim-block", str(path), "--n-max", "10")
        assert code == 3

    def test_arithmetic_schedule_upper_family(self, capsys, tmp_path):
        spec = {
            "base": 4,
            "alphabet": 4,
            "zeros": {"kind": "arithmetic", "first": 1, "step": 3, "horizon": 32},
        }
        path = tmp_path / "arith.json"
        path.write_text(json.dumps(spec))
        code, out, _ = run_cli(capsys, "dim-block", str(path), "--n-max", "14")
        assert code == 0
        assert "upper,1/2,0.500000000000" in out

    def test_tower_past_a_huge_digit_cap_stops_at_the_term_budget(self, capsys, tmp_path):
        # stopped with the cap's error, which ends the walk as a horizon: an unconverged report
        path = tmp_path / "tower.json"
        tower = {"kind": "power_tower", "base": 2, "digit_cap": 10**10}
        path.write_text(json.dumps({"base": 2, "zeros": tower}))
        code, out, err = run_cli(capsys, "dim-block", str(path), "--n-max", "8")
        assert (code, out) == (3, "")
        assert err == "error: term 6 has over 1000000 decimal digits, the budget of any one term\n"

    def test_unknown_schedule_keys_exit_2(self, capsys, tmp_path):
        spec = dict(DOUBLING)
        spec["surprise"] = 1
        path = tmp_path / "odd.json"
        path.write_text(json.dumps(spec))
        code, _, _ = run_cli(capsys, "dim-block", str(path), "--n-max", "3")
        assert code == 2

    def test_rows_past_the_digit_budget_are_refused_before_any(self, tmp_path):
        # 60,002 rows of numbers up to 30,002 bits: ran 93 s, peaked at 331 MB and exited 0
        path = tmp_path / "geometric.json"
        path.write_text(json.dumps(LONG_GEOMETRIC_BLOCKS))
        proc = run_module("dim-block", str(path), "--n-max", "30000",
                          timeout=10, address_space=800_000 * 2**10)
        assert (proc.returncode, proc.stdout) == (3, "")
        assert proc.stderr == (
            "error: cut rows through block pair 30000 pass the budget of 25000000 digits\n"
        )

    def test_rows_past_the_digit_budget_open_no_out_file(self, capsys, tmp_path):
        path, target = tmp_path / "geometric.json", tmp_path / "out.csv"
        path.write_text(json.dumps(LONG_GEOMETRIC_BLOCKS))
        code, out, err = run_cli(capsys, "dim-block", str(path), "--n-max", "30000",
                                 "--out", str(target))
        assert (code, out) == (3, "")
        assert err == "error: cut rows through block pair 30000 pass the budget of 25000000 digits\n"
        assert not target.exists()

    def test_rows_are_written_as_they_are_walked(self, capsys, tmp_path):
        # the held cut columns peaked at 9.5 MB traced; 22,980,119 bytes of rows
        path, target = tmp_path / "geometric.json", tmp_path / "out.csv"
        path.write_text(json.dumps(LONG_GEOMETRIC_BLOCKS))
        code, out, err, peak = run_cli_peak(capsys, "dim-block", str(path), "--n-max", "5000",
                                            "--out", str(target))
        assert (code, out, err) == (0, "", "")
        assert hashlib.sha256(target.read_bytes()).hexdigest() == (
            "92ae91dc943b2588fb84928bbf43e914bbffd729b429a4d449c028fb2b0afffe"
        )
        assert peak < 2 * 10**6


LONG_GEOMETRIC_BLOCKS = {
    "base": 2,
    "alphabet": 2,
    "zeros": {"kind": "geometric", "first": 1, "ratio": 2, "horizon": 100000},
    "frees": "same_as_zeros",
}


def _prefix_sums(spec: seqgen.SequenceSpec, count: int) -> list[int]:
    """Sums of the longest run of the first ``count`` terms ``seqgen.terms`` draws whole."""
    for k in range(count, 0, -1):
        try:
            terms = seqgen.terms(spec, k)
        except HorizonExceededError:  # a term past the digit cap
            continue
        return [sum(terms[: i + 1]) for i in range(k)]
    return []


def _dim_block_reference(schedule: dict, n_max: int, tol: float, precision: int) -> str | None:
    """dim-block's text from prefix sums of the block lengths, or None when no pair is whole."""
    sch = blockset.schedule_from_json(schedule)
    zeros, frees = _prefix_sums(sch.zeros, n_max + 1), _prefix_sums(sch.frees, n_max + 1)
    n = min(len(zeros), len(frees)) - 1
    if n < 0:
        return None
    scale = math.log(sch.alphabet) / math.log(sch.base)

    def value(x, m):
        return Fraction(x, m) if sch.alphabet == sch.base else float(Fraction(x, m)) * scale

    families = {"after_zeros": [], "after_frees": []}
    lines = ["kind,n,m,x_count,local_dim,local_dim_decimal"]
    for k in range(n + 1):
        before = frees[k - 1] if k else 0
        for kind, m, x in (("after_zeros", zeros[k] + before, before),
                           ("after_frees", zeros[k] + frees[k], frees[k])):
            v = value(x, m)
            families[kind].append(v)
            exact = f"{v.numerator}/{v.denominator}" if isinstance(v, Fraction) else repr(v)
            lines.append(f"{kind},{k},{m},{x},{exact},{float(v):.{precision}f}")
    lower, upper = families["after_zeros"][-1], families["after_frees"][-1]
    spread = max(abs(float(f[-1]) - float(f[-2])) if n else math.inf for f in families.values())
    lines.append("summary,value,decimal")
    for label, v in (("lower", lower), ("upper", upper), ("hausdorff_dim", lower)):
        exact = f"{v.numerator}/{v.denominator}" if isinstance(v, Fraction) else ""
        lines.append(f"{label},{exact},{float(v):.{precision}f}")
    converged = n == n_max and spread < tol
    lines.append(f"converged,{str(converged).lower()},{spread:.{precision}f}")
    return "".join(line + "\n" for line in lines)


_block_spec = st.builds(
    lambda kind, first, growth, cap: {"kind": kind, "first": first, "digit_cap": cap,
                                      ("step" if kind == "arithmetic" else "ratio"): growth},
    st.sampled_from(["arithmetic", "geometric"]),
    st.integers(1, 12),
    st.integers(1, 4),
    st.sampled_from([1, 2, 3, 40]),
)


@settings(max_examples=150, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    beta=st.integers(2, 7),
    sigma=st.integers(2, 7),
    zeros=_block_spec,
    frees=st.one_of(st.just("same_as_zeros"), _block_spec),
    n_max=st.integers(2, 40),
    tol=st.sampled_from([1e-6, 0.05, 1.0]),
    precision=st.integers(1, 50),
)
# alphabet < base, at the ends of the precision range too; a digit cap that ends the frees
# at pair 5 of 12
@example(beta=5, sigma=3, zeros={"kind": "arithmetic", "first": 2, "step": 3, "digit_cap": 40},
         frees="same_as_zeros", n_max=12, tol=1e-6, precision=12)
@example(beta=5, sigma=3, zeros={"kind": "arithmetic", "first": 2, "step": 3, "digit_cap": 40},
         frees="same_as_zeros", n_max=12, tol=1e-6, precision=1)
@example(beta=7, sigma=2, zeros={"kind": "geometric", "first": 1, "ratio": 2, "digit_cap": 40},
         frees={"kind": "arithmetic", "first": 3, "step": 1, "digit_cap": 40}, n_max=40,
         tol=1e-6, precision=50)
@example(beta=2, sigma=2, zeros={"kind": "arithmetic", "first": 1, "step": 1, "digit_cap": 40},
         frees={"kind": "geometric", "first": 3, "ratio": 3, "digit_cap": 3}, n_max=12,
         tol=1e-6, precision=12)
def test_dim_block_matches_a_prefix_sum_reference(capsys, tmp_path, beta, sigma, zeros, frees,
                                                  n_max, tol, precision):
    schedule = {"base": max(beta, sigma), "alphabet": sigma, "zeros": zeros, "frees": frees}
    path = tmp_path / "schedule.json"
    path.write_text(json.dumps(schedule))
    code, out, err = run_cli(capsys, "dim-block", str(path), "--n-max", str(n_max),
                             "--tol", repr(tol), "--precision", str(precision))
    want = _dim_block_reference(schedule, n_max, tol, precision)
    if want is None:  # the digit cap ends the first block pair
        assert (code, out) == (3, "") and err.startswith("error: term ")
    else:
        assert (code, out, err) == (0, want, "")


class TestDimIfs:
    def test_rule_carpet(self, capsys):
        code, out, _ = run_cli(capsys, "dim-ifs", "--rule", "carpet")
        assert code == 0
        assert out == "dimension,1.892789260714\n"

    def test_unknown_rule_exit_4(self, capsys):
        code, _, err = run_cli(capsys, "dim-ifs", "--rule", "nope")
        assert code == 4

    def test_ratio_json(self, capsys, tmp_path):
        path = tmp_path / "ratios.json"
        path.write_text(json.dumps({"ratios": [0.5, 0.25]}))
        code, out, _ = run_cli(capsys, "dim-ifs", str(path))
        assert code == 0
        golden = math.log((1 + math.sqrt(5)) / 2) / math.log(2)
        assert abs(float(out.split(",")[1]) - golden) < 1e-9

    def test_repeat_shorthand(self, capsys, tmp_path):
        path = tmp_path / "ratios.json"
        path.write_text(json.dumps({"ratio": 1 / 3, "count": 8}))
        code, out, _ = run_cli(capsys, "dim-ifs", str(path))
        assert code == 0
        assert abs(float(out.split(",")[1]) - math.log(8) / math.log(3)) < 1e-9

    def test_repeat_shorthand_beyond_index_range(self, capsys, tmp_path):
        path = tmp_path / "ratios.json"
        path.write_text(json.dumps({"ratio": 0.5, "count": 10**30}))
        code, out, _ = run_cli(capsys, "dim-ifs", str(path))
        assert code == 0
        assert abs(float(out.split(",")[1]) - 30 * math.log2(10)) < 1e-9


class TestTables:
    def test_shape_and_cells(self, capsys):
        code, out, _ = run_cli(capsys, "tables-ch6")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "family,param,sigma,dim,dim_estimate,dim_estimate_decimal,hs"
        assert len(lines) == 1 + 10 * 4  # 5 ratios + 5 steps, sigma 2..5
        row = next(ln for ln in lines if ln.startswith("geometric,2,2,"))
        fields = row.split(",")
        assert fields[3] == "1/3"
        assert abs(float(fields[6]) - 2 ** (-1 / 3)) < 1e-9
        arow = next(ln for ln in lines if ln.startswith("arithmetic,3,4,"))
        afields = arow.split(",")
        assert afields[3] == "1/2"
        assert abs(float(afields[6]) - 0.5) < 1e-9

    def test_byte_identical_reruns(self, capsys):
        _, first, _ = run_cli(capsys, "tables-ch6")
        _, second, _ = run_cli(capsys, "tables-ch6")
        assert first == second

    def test_one_estimate_per_family_row(self, capsys, monkeypatch):
        # with alphabet == base the estimate X/m is the same for all four sigma; it comes
        # from the closed form, which walks no block, and equals the walk's cut
        from fractaldim import blockset

        real, calls = blockset.hausdorff_dim, []

        def counting(schedule, n_max):
            calls.append(schedule)
            return real(schedule, n_max)

        monkeypatch.setattr(blockset, "hausdorff_dim", counting)
        code, out, _ = run_cli(capsys, "tables-ch6", "--n-max", "20")
        assert code == 0 and len(out.splitlines()) == 41
        assert calls == []
        # each row's estimate is the exact X/m of its own schedule at every sigma
        for line in out.splitlines()[1:]:
            family, param, sigma, _, estimate, _, _ = line.split(",")
            spec = {"kind": family, "first": 1, "horizon": 21}
            spec["ratio" if family == "geometric" else "step"] = int(param)
            sch = blockset.schedule_from_json(
                {"base": int(sigma), "alphabet": int(sigma), "zeros": spec}
            )
            value = real(sch, 20)
            assert estimate == f"{value.numerator}/{value.denominator}"

    @settings(max_examples=150, derandomize=True, deadline=None)
    @given(family=st.sampled_from(["geometric", "arithmetic"]), param=st.integers(0, 7),
           n=st.integers(2, 60), sigma=st.integers(2, 6))
    def test_closed_form_is_the_walks_cut(self, family, param, n, sigma):
        assume(family == "arithmetic" or param >= 1)
        key = "ratio" if family == "geometric" else "step"
        spec = {"kind": family, "first": 1, key: param, "horizon": n + 1}
        schedule = blockset.schedule_from_json({"base": sigma, "alphabet": sigma, "zeros": spec})
        assert cli._table_estimate(family, param, n) == blockset.hausdorff_dim(schedule, n)

    @pytest.mark.parametrize(
        "n_max, code, err",
        [(-2, 2, "horizon must be >= 0"), (-1, 2, "dim_bounds needs n_max >= 2"),
         (1, 2, "dim_bounds needs n_max >= 2"),
         (500_000, 3, "block walk asks for 1000002 blocks, over the budget of 1000000"),
         (10**19, 2, f"block count must be <= {sys.maxsize}")],
    )
    def test_refusals_of_the_walk_are_kept(self, capsys, n_max, code, err):
        assert run_cli(capsys, "tables-ch6", "--n-max", str(n_max)) == (code, "", f"error: {err}\n")

    @pytest.mark.parametrize("n_max", [40_000, 100_000])
    def test_long_horizons_print_the_closed_form(self, n_max):
        # the walk held every block end: a MemoryError traceback at 40,000 under 1 GiB,
        # and killed at 100,000
        limit = 800_000 * 2**10
        start = time.perf_counter()
        proc = run_module("tables-ch6", "--n-max", str(n_max), timeout=30, address_space=limit)
        assert time.perf_counter() - start < 10
        assert (proc.returncode, proc.stderr) == (0, "")
        lines = proc.stdout.splitlines()
        assert len(lines) == 41
        for line in lines[1:]:
            family, param, _, _, estimate, _, _ = line.split(",")
            r = int(param)
            if family == "geometric":  # S = 1 + r + .. + r**(n-1), then r**n
                s, t = ((r**n_max - 1) // (r - 1), r**n_max) if r > 1 else (n_max, 1)
            else:  # S = n + r*n*(n-1)/2, then 1 + r*n
                s, t = n_max + r * n_max * (n_max - 1) // 2, 1 + r * n_max
            value = Fraction(s, 2 * s + t)
            assert estimate == f"{value.numerator}/{value.denominator}"


class TestCounts:
    def test_rule_counts_csv(self, capsys):
        code, out, _ = run_cli(capsys, "counts", "--rule", "cantor", "--levels", "1", "4")
        assert code == 0
        assert out == (
            "m,delta,n_cells\n1,1/3,2\n2,1/9,4\n3,1/27,8\n4,1/81,16\n"
        )

    def test_interval_counts(self, capsys):
        code, out, _ = run_cli(
            capsys, "counts", "--interval", "0", "1", "--levels", "10", "10"
        )
        assert code == 0
        assert out.strip().splitlines()[-1] == "10,1/1024,1024"

    def test_schedule_counts(self, capsys, doubling_path):
        code, out, _ = run_cli(
            capsys, "counts", "--schedule", doubling_path, "--levels", "1", "6"
        )
        assert code == 0
        assert [ln.split(",")[2] for ln in out.strip().splitlines()[1:]] == [
            "1", "2", "2", "2", "4", "8",
        ]

    def test_geometric_schedule_prints_as_str(self, capsys, tmp_path):
        from fractaldim import blockset, boxdim

        spec = {
            "base": 10,
            "alphabet": 7,
            "zeros": {"kind": "geometric", "first": 1, "ratio": 2, "horizon": 64},
            "frees": {"kind": "geometric", "first": 2, "ratio": 2, "horizon": 64},
        }
        path = tmp_path / "geo.json"
        path.write_text(json.dumps(spec))
        code, out, _ = run_cli(
            capsys, "counts", "--schedule", str(path), "--levels", "3", "1500"
        )
        assert code == 0
        source = blockset.BlockCellSource(blockset.schedule_from_json(spec))
        series = boxdim.count_series(source, range(3, 1501))
        # both columns run past the size above which values are formatted from their predecessor
        assert min(10**1500, series.counts[-1]) > 2**DECIMAL_BASE_BITS
        rows = [f"{m},1/{10**m},{n}" for m, n in zip(series.levels, series.counts)]
        assert out == "\n".join(["m,delta,n_cells", *rows, ""])

    @pytest.mark.parametrize(
        "source, hi",
        [(["--interval", "0", "1", "--base", str(10**30)], 66671),
         (["--rule", "menger_sponge"], 1_600_000)],  # 20**m, not the scale 3**m, is too long
        ids=["interval", "rule"],
    )
    def test_unprintable_level_is_refused_before_counting(self, capsys, source, hi):
        # base**m was raised afresh at every level before the check: 2.5 s for the interval
        start = time.perf_counter()
        result = run_cli(capsys, "counts", *source, "--levels", str(hi - 1), str(hi))
        assert time.perf_counter() - start < 0.5
        assert result == (
            3, "", f"error: level {hi} has more than the 2000000 digits a command may print\n"
        )

    @pytest.mark.parametrize(
        "levels, err",
        [(["-1", "66671"], "levels must be >= 0"),
         (["66671", "5"], "levels must be LO HI with LO <= HI"),
         (["1", "1000001"], "levels 1..1000001 are 1000001 levels, over the budget of 1000000")],
    )
    def test_level_checks_come_before_the_digit_check(self, capsys, levels, err):
        code, out, got = run_cli(capsys, "counts", "--interval", "0", "1", "--base", str(10**30),
                                 "--levels", *levels)
        assert (out, got) == ("", f"error: {err}\n")
        assert code in (2, 3)

    @pytest.mark.parametrize(
        "source, hi, err",
        [(["--rule", "cantor"], 999999, "deltas through m = 10236"),
         (["--interval", "0", "1", "--base", "2"], 999999, "deltas through m = 12886"),
         # counts of 1 and 2 that the deltas bound before every level is walked
         (["--schedule", "flat.json"], 999999, "deltas through m = 12886"),
         # 20**m outgrows the deltas 3**-m
         (["--rule", "menger_sponge"], 7000, "cell counts through m = 6199")],
        ids=["rule", "interval", "schedule", "counts"],
    )
    def test_held_columns_are_bounded(self, tmp_path, source, hi, err):
        # every count and scale through 999999 was held: about 86 MB at 2*10**4 levels
        limit = 800_000 * 2**10

        (tmp_path / "flat.json").write_text(json.dumps({
            "base": 2,
            "zeros": {"kind": "geometric", "first": 1, "ratio": 1000, "horizon": 5},
            "frees": {"kind": "arithmetic", "first": 1, "step": 0, "horizon": 5},
        }))
        source = [str(tmp_path / a) if a.endswith(".json") else a for a in source]
        start = time.perf_counter()
        proc = run_module("counts", *source, "--levels", "0", str(hi), timeout=10,
                          address_space=limit)
        assert time.perf_counter() - start < 2
        assert (proc.returncode, proc.stdout) == (3, "")
        assert proc.stderr == f"error: {err} pass the budget of 25000000 digits\n"

    @pytest.mark.parametrize("base, level", [(2, 10**10), (10, 10**11)])
    def test_a_schedule_level_past_the_budget_is_refused_unbuilt(self, tmp_path, base, level):
        # base**level was built before it was charged: a MemoryError traceback under the
        # cap at 2**(10**10), and over 30 s at 10**(10**11)
        path = tmp_path / "ones.json"
        path.write_text(json.dumps({"base": base, "zeros": {"kind": "arithmetic", "first": 1,
                                                             "step": 0}}))
        start = time.perf_counter()
        proc = run_module("counts", "--schedule", str(path), "--levels", str(level), str(level),
                          timeout=10, address_space=800_000 * 2**10)
        assert time.perf_counter() - start < 2
        assert (proc.returncode, proc.stdout) == (3, "")
        assert proc.stderr == (
            f"error: deltas through m = {level} pass the budget of 25000000 digits\n"
        )

    def test_long_columns_within_the_budget_print(self, capsys):
        code, out, _ = run_cli(capsys, "counts", "--rule", "cantor", "--levels", "0", "10000")
        assert code == 0
        assert out.count("\n") == 10002
        assert out.endswith(f"\n10000,1/{3**10000},{2**10000}\n")

    def test_source_exclusivity(self, capsys, doubling_path):
        code, _, err = run_cli(
            capsys, "counts", "--rule", "cantor", "--schedule", doubling_path,
            "--levels", "1", "3",
        )
        assert code == 2


class TestTwoGrid:
    def test_rule_mode_exact(self, capsys):
        code, out, _ = run_cli(capsys, "two-grid", "--rule", "carpet", "--levels", "2", "5")
        assert code == 0
        payload = json.loads(out)
        assert set(payload) == {"h", "k", "n_h", "n_k", "d"}
        assert payload["n_h"] == 8**5 and payload["n_k"] == 8**2
        assert payload["h"] == "1/243" and payload["k"] == "1/9"
        assert payload["d"] == round(math.log(8) / math.log(3), 12)

    def test_explicit_mode(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "two-grid",
            "--n-h", str(2**20 - 1), "--n-k", str(2**10 - 1),
            "--h", f"1/{2**20}", "--k", f"1/{2**10}",
        )
        assert code == 0
        assert abs(json.loads(out)["d"] - 1.0) < 2e-4

    def test_missing_args_exit_2(self, capsys):
        code, _, _ = run_cli(capsys, "two-grid", "--n-h", "4")
        assert code == 2

    @pytest.mark.parametrize("name, q", [("cantor", "50000"), ("cantor5", "1000001")])
    def test_common_root_search_is_bounded(self, name, q):
        # spans 49,999 (prime) and 1,000,000: each searched roots for over 20 s with no budget
        proc = run_module("two-grid", "--rule", name, "--levels", "1", q, timeout=15,
                          address_space=800_000 * 2**10)
        if proc.returncode:
            assert (proc.returncode, proc.stdout) == (3, "")
            assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1


class TestCriticalD:
    def test_round_trip_through_csv(self, capsys, tmp_path):
        code, out, _ = run_cli(capsys, "counts", "--rule", "cantor5", "--levels", "1", "20")
        csv_path = tmp_path / "counts.csv"
        csv_path.write_text(out)
        code, out, _ = run_cli(capsys, "critical-d", str(csv_path), "--tol", "1e-9")
        assert code == 0
        d_line = out.splitlines()[0]
        assert abs(float(d_line.split(",")[1]) - math.log(3) / math.log(5)) < 1e-6

    def test_flat_early_step_outside_window(self, capsys, tmp_path):
        # [1/3, 2/3] meets 2 cells at levels 1 and 2; the window classify_d
        # reads starts later, so that flat step must not decide the result
        _, out, _ = run_cli(capsys, "counts", "--interval", "1/3", "2/3", "--levels", "1", "30")
        assert out.splitlines()[1:3] == ["1,1/2,2", "2,1/4,2"]
        path = tmp_path / "counts.csv"
        path.write_text(out)
        code, out, _ = run_cli(capsys, "critical-d", str(path))
        assert code == 0
        assert "degenerate" not in out
        assert abs(float(out.splitlines()[0].split(",")[1]) - 1) < 1e-6

    THIRD = "critical_d,0.407732438393\nbracket,0.315464876133,0.630929753785\n"  # delta 1/3

    @pytest.mark.parametrize(
        "row, code, out",
        [
            ("2,2/6,4", 0, THIRD),
            ("2,-1/-3,4", 0, THIRD),
            ("2, 1 / 3,4", 0, THIRD),
            ("2,+1/3,4", 0, THIRD),
            ("2,1/\u0663,4", 0, THIRD),
            ("2,1/-3,4", 2, "error: delta must be positive in row '2,1/-3,4'\n"),
            ("2,0/5,4", 2, "error: delta must be positive in row '2,0/5,4'\n"),
            ("2,1/0,4", 2, "error: bad count series row: '2,1/0,4'\n"),
            ("2,0/0,4", 2, "error: bad count series row: '2,0/0,4'\n"),
            ("2,1,4", 2, "error: deltas must be strictly decreasing\n"),
            ("2,1/3_0,4", 2, "error: deltas must be strictly decreasing\n"),
            ("2,1/,4", 2, "error: deltas must be strictly decreasing\n"),
            ("2,1/9,-4", 2, "error: cell counts must be >= 0\n"),
            ("1,1,-4", 2, "error: levels must be strictly increasing\n"),
            ("2,1,-4", 2, "error: deltas must be strictly decreasing\n"),
            ("2,x,4", 2, "error: bad count series row: '2,x,4'\n"),
            ("2,1/9", 2, "error: bad count series row: '2,1/9'\n"),
            ("2,1/9,4,5", 2, "error: bad count series row: '2,1/9,4,5'\n"),
            ("2,1/9,4.0", 2, "error: bad count series row: '2,1/9,4.0'\n"),
            ("x,1/9,4", 2, "error: bad count series row: 'x,1/9,4'\n"),
            ("2,1/9/3,4", 2, "error: bad count series row: '2,1/9/3,4'\n"),
            ("2,/9,4", 2, "error: bad count series row: '2,/9,4'\n"),
            ("2,1/9,", 2, "error: bad count series row: '2,1/9,'\n"),
        ],
    )
    def test_second_rows_read_as_before(self, capsys, tmp_path, row, code, out):
        # each outcome is the one a reader building a Fraction per row printed
        path = tmp_path / "counts.csv"
        path.write_text(f"m,delta,n_cells\n1,1/2,2\n{row}\n3,1/27,8\n4,1/81,16\n5,1/243,32\n")
        result = run_cli(capsys, "critical-d", str(path))
        assert result == ((code, out, "") if code == 0 else (code, "", out))

    TIED = "m,delta,n_cells\n1,1/3,2\n2,1/100000000000000000000,4\n3,1/100000000000000000001,8\n"

    @pytest.mark.parametrize(
        "text, option, err",
        [(TIED, (), "deltas must have strictly decreasing float logarithms"),
         (TIED, ("--d-max", "5"), "deltas must have strictly decreasing float logarithms"),
         ("m,delta,n_cells\n0,1/1,2\n1,1/2,2\n2,1/4,2\n", (),
          "a row of over one cell needs log(1/delta) != 0 as a float")],
        ids=["tied", "tied-d-max", "unit-delta"],
    )
    def test_float_logarithms_that_cannot_give_a_slope(self, tmp_path, text, option, err):
        # a ZeroDivisionError traceback, and with --d-max 5 a bracket of 0.0154..5 for d 2.5
        path = tmp_path / "counts.csv"
        path.write_text(text)
        proc = run_module("critical-d", str(path), *option, timeout=10)
        assert (proc.returncode, proc.stdout, proc.stderr) == (2, "", f"error: {err}\n")

    @pytest.mark.parametrize(
        "rows",
        ["0,4/1,2\n1,2/1,2\n2,1/2,2\n", "0,8/1,2\n1,4/1,4\n2,2/1,8\n3,3/2,16\n"],
        ids=["degenerate", "bracketed"],
    )
    def test_deltas_above_one_are_refused(self, capsys, tmp_path, rows):
        # printed critical_d,-1.000000000000 and critical_d,1.704710419827, though no box
        # count has a scale above the unit cell
        path = tmp_path / "counts.csv"
        path.write_text("m,delta,n_cells\n" + rows)
        assert run_cli(capsys, "critical-d", str(path)) == (
            2, "", "error: deltas must be at most 1\n"
        )

    def test_a_delta_of_one_is_kept(self, capsys, tmp_path):
        # counts from level 0 write the unit cell's row
        path = tmp_path / "counts.csv"
        code, _, _ = run_cli(capsys, "counts", "--rule", "cantor", "--levels", "0", "12",
                             "--out", str(path))
        assert code == 0 and path.read_text().splitlines()[1] == "0,1/1,1"
        assert run_cli(capsys, "critical-d", str(path)) == (
            0, "critical_d,0.630929753405\nbracket,0.630929753025,0.630929753785\n", ""
        )

    @pytest.mark.parametrize(
        "option, code",
        [(("--tol", "1e-16"), 0), (("--tol", "1e-17"), 0), (("--tol", "1e-300"), 0),
         (("--d-max", "1e308"), 2)],
    )
    def test_bisection_ends_below_one_ulp(self, capsys, tmp_path, option, code):
        # each ran until killed: a bracket one ulp wide has its midpoint on an
        # end, and d_max * log(delta) overflowed to NaN differences
        _, out, _ = run_cli(capsys, "counts", "--interval", "1/3", "2/3", "--levels", "1", "30")
        path = tmp_path / "counts.csv"
        path.write_text(out)
        proc = run_module("critical-d", str(path), *option, timeout=10)
        assert proc.returncode == code
        if code:
            assert (proc.stdout, proc.stderr) == (
                "", "error: d_max=1e+308 overflows d*log(delta) on this series\n"
            )
        else:
            lo, hi = map(float, proc.stdout.splitlines()[1].split(",")[1:])
            assert lo <= 1 <= hi


def test_seq_check_error_names_the_same_key_under_every_hash_seed(tmp_path):
    # bad keys are checked in the order horizon, digit_cap, then the kind's keys
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({"kind": "arithmetic", "first": "a", "step": "b", "horizon": "h"}))
    src = str(Path(fractaldim.__file__).resolve().parent.parent)
    outcomes = []
    for seed in ("1", "3"):
        proc = subprocess.run(
            [sys.executable, "-m", "fractaldim.cli", "seq-check", str(path), "--squared-sum", "3"],
            env=dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src),
            capture_output=True,
            text=True,
        )
        outcomes.append((proc.returncode, proc.stderr))
    assert outcomes[0] == outcomes[1] == (2, "error: horizon must be an integer\n")


class TestHyperHsd:
    def test_documented_example(self, capsys, tmp_path):
        path = tmp_path / "set.json"
        path.write_text(json.dumps({"N": 100, "runs": [[0, 100]]}))
        code, out, _ = run_cli(
            capsys, "hyper-hsd", str(path), "--delta", "1/10", "--s", "1"
        )
        assert code == 0
        assert out.splitlines()[0] == "cost,1.010000000000"

    def test_oracle_flag(self, capsys, tmp_path):
        path = tmp_path / "set.json"
        path.write_text(json.dumps({"N": 128, "runs": [[0, 30], [40, 90]]}))
        code, out, _ = run_cli(
            capsys, "hyper-hsd", str(path), "--delta", "1/16", "--s", "0.5", "--oracle"
        )
        assert code == 0
        assert "oracle_match,true" in out

    def test_oracle_over_budget_exit_3(self, capsys, tmp_path):
        path = tmp_path / "set.json"
        path.write_text(json.dumps({"N": 40000, "runs": [[0, 20000]]}))
        code, out, err = run_cli(
            capsys, "hyper-hsd", str(path), "--delta", "1000/40000", "--s", "1/2", "--oracle"
        )
        assert (code, out) == (3, "")
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")

    def test_oracle_many_long_runs_over_budget_exit_3(self, capsys, tmp_path):
        # each run is within the table budget at D = 1; their 10**8 intervals are not
        runs = [[2 * 10**5 * k, 2 * 10**5 * k + 10**5 - 1] for k in range(1000)]
        path = tmp_path / "set.json"
        path.write_text(json.dumps({"N": 2 * 10**8, "runs": runs}))
        code, out, err = run_cli(
            capsys, "hyper-hsd", str(path), "--delta", "1/200000000", "--s", "1/2", "--oracle"
        )
        assert (code, out) == (3, "")
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")

    def test_oracle_charges_each_row_of_its_table(self, tmp_path):
        # charged 10**7 cell updates, within the budget: about 15 s and 1 GB of table
        path = tmp_path / "set.json"
        path.write_text(json.dumps({"N": 10**7, "runs": [[0, 10**7 - 1]]}))
        proc = run_module("hyper-hsd", str(path), "--delta", "1/10000000", "--s", "1/2",
                          "--oracle", timeout=5, address_space=800_000 * 2**10)
        assert (proc.returncode, proc.stdout) == (3, "")
        assert proc.stderr == (
            "error: DP oracle needs 330000000 cell updates, over the budget of 20000000\n"
        )

    def test_interval_count_above_index_size(self, capsys, tmp_path):
        path = tmp_path / "set.json"
        path.write_text(json.dumps({"N": 10**20, "runs": [[0, 10**20]]}))
        code, out, _ = run_cli(
            capsys, "hyper-hsd", str(path), "--delta", f"1/{10**20}", "--s", "1/2"
        )
        assert code == 0
        assert "intervals,100000000000000000001" in out.splitlines()

    def test_delta_past_the_float_range(self, capsys, tmp_path):
        # one run shorter than D has no full interval, whose cost (D/N)**s overflowed
        path = tmp_path / "set.json"
        path.write_text(json.dumps({"N": 10, "runs": [[0, 3]]}))
        huge = run_cli(capsys, "hyper-hsd", str(path), "--delta", "1e400", "--s", "1/2")
        one = run_cli(capsys, "hyper-hsd", str(path), "--delta", "1", "--s", "1/2")
        assert huge == one == (0, "cost,0.632455532034\nintervals,1\n", "")

    def test_infeasible_delta_exit_2(self, capsys, tmp_path):
        path = tmp_path / "set.json"
        path.write_text(json.dumps({"N": 10, "runs": [[0, 5]]}))
        code, _, _ = run_cli(capsys, "hyper-hsd", str(path), "--delta", "1/100", "--s", "1")
        assert code == 2


class TestFractal:
    def test_koch_flags_perimeter(self, capsys):
        code, out, _ = run_cli(capsys, "fractal", "koch", "--m-max", "5")
        assert code == 0
        assert "perimeter,1,1,4/1,5/1,1/1" in out
        assert "check,perimeter,inconsistent" in out
        assert "check,area,consistent,0/1" in out
        first_perims = [
            ln.split(",")[3]
            for ln in out.splitlines()
            if ln.startswith("perimeter,")
        ][:4]
        assert first_perims == ["3/1", "4/1", "16/3", "64/9"]

    def test_menger_standard_prints_as_str(self, capsys):
        from fractaldim.selfsimilar import closed_form_check

        code, out, _ = run_cli(capsys, "fractal", "menger_standard", "--m-max", "800")
        assert code == 0
        lines, checks = ["quantity,unit,m,recurrence,closed_form,deviation"], []
        for report in closed_form_check("menger_standard", 800):
            for m, row in enumerate(report.rows):
                cells = ",".join(f"{f.numerator}/{f.denominator}" for f in row)
                lines.append(f"{report.quantity},{report.unit},{m},{cells}")
            dev = report.max_deviation
            flag = "consistent" if report.consistent else "inconsistent"
            checks.append(f"check,{report.quantity},{flag},{dev.numerator}/{dev.denominator}")
        assert 27**800 > 2**DECIMAL_BASE_BITS
        assert out == "\n".join([*lines, *checks, ""])

    @pytest.mark.parametrize("name, m_max", [
        ("koch", 1100), ("quadratic_koch", 2100), ("sierpinski_gasket", 1350),
        ("sierpinski_carpet", 750), ("menger_sponge", 550), ("menger_standard", 500),
    ])
    def test_every_catalog_name_prints_as_str(self, capsys, name, m_max):
        # past DECIMAL_BASE_BITS, where columns are formatted from the row above; the
        # koch perimeter's closed form differs from its recurrence from m = 1 on
        from fractaldim.selfsimilar import closed_form_check

        code, out, _ = run_cli(capsys, "fractal", name, "--m-max", str(m_max))
        assert code == 0
        lines, checks = ["quantity,unit,m,recurrence,closed_form,deviation"], []
        for report in closed_form_check(name, m_max):
            for m, row in enumerate(report.rows):
                cells = ",".join(f"{f.numerator}/{f.denominator}" for f in row)
                lines.append(f"{report.quantity},{report.unit},{m},{cells}")
            dev = report.max_deviation
            flag = "consistent" if report.consistent else "inconsistent"
            checks.append(f"check,{report.quantity},{flag},{dev.numerator}/{dev.denominator}")
            tops = {max(rec.numerator, rec.denominator) for rec, _, _ in report.rows}
            assert len(tops) == 1 or max(tops) > 2**DECIMAL_BASE_BITS, report.quantity
            if not report.consistent:
                unequal = [closed for rec, closed, _ in report.rows if closed != rec]
                assert len(unequal) == m_max and unequal[-1].numerator > 2**DECIMAL_BASE_BITS
        want = [*lines, *checks, ""]
        got = out.split("\n")
        assert len(got) == len(want)
        for got_line, want_line in zip(got, want):  # a line at a time keeps a failure's diff short
            assert got_line == want_line

    def test_unknown_name_exit_4(self, capsys):
        code, _, _ = run_cli(capsys, "fractal", "dragon", "--m-max", "3")
        assert code == 4

    def test_m_max_over_the_digit_budget(self):
        # had no budget: ran for over 15 s under a 1.5 GB address-space limit
        limit = 1500 * 2**20

        proc = run_module("fractal", "sierpinski_carpet", "--m-max", "100000000", timeout=120,
                          address_space=limit)
        assert (proc.returncode, proc.stdout) == (3, "")
        assert proc.stderr == (
            "error: sierpinski_carpet perimeter values through m = 6019 "
            "pass the budget of 25000000 digits\n"
        )

    def test_digit_budget_boundary(self, capsys, monkeypatch):
        # the recurrence and the closed form give the same values, so the same bits
        (report,) = selfsimilar.closed_form_check("menger_standard", 5)
        bits = sum(v.numerator.bit_length() + v.denominator.bit_length() for v, _, _ in report.rows)
        monkeypatch.setattr(_digits, "_SERIES_BITS", bits)
        code, out, _ = run_cli(capsys, "fractal", "menger_standard", "--m-max", "5")
        assert code == 0 and out.count("\n") == 8
        monkeypatch.setattr(_digits, "_SERIES_BITS", bits - 1)
        code, out, err = run_cli(capsys, "fractal", "menger_standard", "--m-max", "5")
        assert (code, out) == (3, "")
        assert err.startswith("error: menger_standard volume values through m = 5 pass the budget")

    def test_each_series_evaluated_once(self, capsys, monkeypatch):
        from fractaldim.selfsimilar import GeometrySeries

        calls = []
        for method in ("values", "closed_values"):
            original = getattr(GeometrySeries, method)

            def counted(self, m, _original=original, _method=method):
                calls.append((self.quantity, _method))
                return _original(self, m)

            monkeypatch.setattr(GeometrySeries, method, counted)
        code, _, _ = run_cli(capsys, "fractal", "menger_sponge", "--m-max", "4")
        assert code == 0
        assert sorted(calls) == [
            ("surface_area", "closed_values"),
            ("surface_area", "values"),
            ("volume", "closed_values"),
            ("volume", "values"),
        ]


class TestSeqCheck:
    def test_dimzero_satisfied(self, capsys, tmp_path):
        path = tmp_path / "seq.json"
        path.write_text(json.dumps({"kind": "double_exponential", "base": 2}))
        code, out, _ = run_cli(
            capsys, "seq-check", str(path), "--K", "10", "--window", "3", "8"
        )
        assert code == 0
        assert out.splitlines()[0] == "status,satisfied"

    def test_squared_sum_table(self, capsys, tmp_path):
        path = tmp_path / "seq.json"
        path.write_text(json.dumps({"kind": "squared_sum", "seed": 1}))
        code, out, _ = run_cli(capsys, "seq-check", str(path), "--squared-sum", "5")
        assert code == 0
        assert out.splitlines()[1:] == [f"{i},true" for i in range(5)]

    def test_tail_domination(self, capsys, tmp_path):
        path = tmp_path / "seq.json"
        path.write_text(json.dumps({"kind": "power_tower", "base": 2}))
        code, out, _ = run_cli(
            capsys, "seq-check", str(path), "--tail-k", "4", "--eps", "1/100"
        )
        assert code == 0
        assert out == "tail_domination,true\n"

    @pytest.mark.parametrize("kind", ["double_exponential", "power_tower"])
    def test_digit_cap_past_the_float_range(self, capsys, tmp_path, kind):
        outputs = []
        for cap in (10**300, 10**400):
            path = tmp_path / f"cap{len(str(cap))}.json"
            path.write_text(json.dumps({"kind": kind, "base": 2, "digit_cap": cap}))
            outputs.append(run_cli(capsys, "seq-check", str(path), "--squared-sum", "3"))
        assert outputs[1] == outputs[0] == (0, "index,holds\n0,true\n1,true\n2,false\n", "")

    @pytest.mark.parametrize(
        "spec, n, index",
        [
            ({"kind": "double_exponential", "base": 300}, 4, 3),
            # 81**(81**3) is refused before it is built, though 81 has 7 bits
            ({"kind": "double_exponential", "base": 81}, 4, 3),
            # 10**(10**6), one digit past the budget, is built, then refused
            ({"kind": "double_exponential", "base": 10}, 7, 6),
            ({"kind": "power_tower", "base": 3}, 40, 4),
            ({"kind": "squared_sum", "seed": 2}, 40, 22),
            # 2**(2**65536) is surely past both the cap and the budget
            ({"kind": "power_tower", "base": 2}, 10, 6),
        ],
    )
    def test_huge_digit_cap_stops_at_the_term_budget(self, capsys, tmp_path, spec, n, index):
        # the default cap stops these at the same term, as a horizon
        path = tmp_path / "seq.json"
        path.write_text(json.dumps(spec))
        code, out, err = run_cli(capsys, "seq-check", str(path), "--squared-sum", str(n))
        assert (code, out) == (3, "")
        assert err == f"error: term {index} exceeds the digit cap of 1000000 decimal digits\n"
        path.write_text(json.dumps(dict(spec, digit_cap=10**400)))
        code, out, err, peak = run_cli_peak(capsys, "seq-check", str(path), "--squared-sum", str(n))
        assert (code, out) == (3, "")
        assert err == (
            f"error: term {index} has over 1000000 decimal digits, the budget of any one term\n"
        )
        assert peak < 10**7  # no term past the budget was built


    def test_geometric_terms_past_the_budget_in_bounded_memory(self, tmp_path):
        # held every term: a MemoryError traceback under an 800 MB address-space limit
        limit = 800_000 * 2**10

        path = tmp_path / "seq.json"
        path.write_text(json.dumps({"kind": "geometric", "first": 1, "ratio": 10**300,
                                    "horizon": 5000, "digit_cap": 10**400}))
        proc = run_module("seq-check", str(path), "--squared-sum", "5000", timeout=120,
                          address_space=limit)
        assert (proc.returncode, proc.stdout) == (3, "")
        assert proc.stderr == (
            "error: term 3334 has over 1000000 decimal digits, the budget of any one term\n"
        )

    @pytest.mark.parametrize(
        "spec, window, witness",
        [
            # a term past the budget is inconclusive, as under a cap at the budget
            ({"kind": "double_exponential", "base": 2, "horizon": 64, "digit_cap": 10**30},
             ["0", "30"], 22),
            ({"kind": "explicit", "terms": [10**50, 10**60, 10**70], "horizon": 2,
              "digit_cap": 10}, ["0", "2"], 0),
        ],
    )
    def test_dimzero_witness_of_a_failing_term(self, capsys, tmp_path, spec, window, witness):
        path = tmp_path / "seq.json"
        path.write_text(json.dumps(spec))
        code, out, err = run_cli(capsys, "seq-check", str(path), "--K", "1", "--window", *window)
        assert (code, out, err) == (0, f"status,inconclusive\nwitness,{witness}\nmargin,\n", "")

    @pytest.mark.parametrize("check", [("--squared-sum", "1000"), ("--tail-k", "999")])
    def test_growth_checks_hold_few_terms(self, capsys, tmp_path, check):
        # 1,000 terms of up to 300,000 digits take about 60 MB as a list
        path = tmp_path / "seq.json"
        path.write_text(json.dumps({"kind": "geometric", "first": 1, "ratio": 10**300,
                                    "horizon": 1000}))
        code, out, err, peak = run_cli_peak(capsys, "seq-check", str(path), *check)
        assert (code, err) == (0, "")
        assert peak < 10**7


class TestCollectorPause:
    """main pauses the cyclic collector for one command and leaves it as it found it."""

    @pytest.mark.parametrize(
        "argv, code",
        [
            (["dim-ifs", "--rule", "cantor"], 0),
            (["dim-ifs", "missing.json"], 2),
            (["counts", "--rule", "cantor", "--levels", "0", "100000000"], 3),
            # argv the table parse declines, so the parser is built as well
            (["dim-ifs", "--rule=cantor"], 0),
            (["dim-ifs", "--", "missing.json"], 2),
        ],
    )
    @pytest.mark.parametrize("enabled", [True, False])
    def test_collector_state_is_restored(self, capsys, monkeypatch, tmp_path, argv, code, enabled):
        monkeypatch.chdir(tmp_path)
        seen = []
        table, build = cli._parse_table, cli._build_parser
        monkeypatch.setattr(cli, "_parse_table", lambda argv: seen.append(gc.isenabled()) or table(argv))
        monkeypatch.setattr(cli, "_build_parser", lambda: seen.append(gc.isenabled()) or build())
        (gc.enable if enabled else gc.disable)()
        try:
            assert run_cli(capsys, *argv)[0] == code
            assert gc.isenabled() is enabled
        finally:
            gc.enable()
        # the table parse, then the parser only where the table parse declined
        assert seen == [False] * (1 + (table(argv) is None))

    def test_collector_state_is_restored_after_a_usage_error(self, capsys):
        assert gc.isenabled()
        with pytest.raises(SystemExit) as exc:
            main(["hyper-hsd"])
        assert exc.value.code == 2
        assert gc.isenabled()

    @pytest.mark.parametrize("oracle", [[], ["--oracle"]])
    def test_no_cycles_in_proportion_to_the_input(self, capsys, tmp_path, oracle):
        found = []
        for n in (10**3, 10**5):
            path = tmp_path / f"set{n}.json"
            path.write_text(json.dumps({"N": 9 * n, "runs": [[9 * k, 9 * k + 5] for k in range(n)]}))
            gc.collect()
            gc.disable()
            try:
                code, _, _ = run_cli(capsys, "hyper-hsd", str(path), "--delta", f"3/{9 * n}",
                                     "--s", "1/2", *oracle)
                found.append(gc.collect())
            finally:
                gc.enable()
            assert code == 0
        assert max(found) < 1000
        assert abs(found[1] - found[0]) < 100


# each command with its required arguments; the files are never opened
COMMAND_ARGV = {
    "dim-block": ["dim-block", "s.json", "--n-max", "3"],
    "dim-ifs": ["dim-ifs"],
    "tables-ch6": ["tables-ch6"],
    "counts": ["counts", "--levels", "1", "2"],
    "two-grid": ["two-grid"],
    "critical-d": ["critical-d", "c.csv"],
    "hyper-hsd": ["hyper-hsd", "s.json", "--delta", "1", "--s", "1"],
    "fractal": ["fractal", "koch", "--m-max", "3"],
    "seq-check": ["seq-check", "s.json"],
}
ALL_COMMANDS = "{" + ",".join(COMMAND_ARGV) + "}"


def _parsed(capsys, parser, argv):
    """The namespace of a parse that succeeds or the exit status, with stdout and stderr."""
    try:
        outcome = vars(parser.parse_args(argv))
    except SystemExit as exc:
        outcome = exc.code
    return (outcome, *capsys.readouterr())


class TestParserPerCommand:
    """A well-formed call builds no parser, and every call parses as the parser of every command does."""

    @pytest.mark.parametrize(
        "argv",
        [["--help"], [], ["nope"]]
        + [[name, "--help"] for name in COMMAND_ARGV]
        + list(COMMAND_ARGV.values())
        + [[*argv, "--bogus"] for argv in COMMAND_ARGV.values()]
        + [["counts", "--levels", "1"], ["fractal", "koch"], ["tables-ch6", "--n-max", "x"],
           ["dim-block", "X", "--n-m", "5"], ["two-grid", "--n", "5"]],
        ids=lambda argv: " ".join(argv) or "no-command",
    )
    def test_same_outcome_as_the_full_parser(self, capsys, monkeypatch, argv):
        monkeypatch.setenv("COLUMNS", "80")
        full = _parsed(capsys, cli._build_parser(), argv)
        parsed = cli._parse_table(argv)
        assert (parsed is not None) == (argv in COMMAND_ARGV.values())
        if parsed is not None:
            assert (vars(parsed), "", "") == full
        if argv[-1:] == ["--bogus"]:  # the top-level usage, with every command
            assert full[0] == 2 and ALL_COMMANDS in full[2]
            assert full[2].endswith("fractaldim: error: unrecognized arguments: --bogus\n")

    def test_common_options_come_first(self, capsys, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")
        assert _parsed(capsys, cli._build_parser(), ["dim-ifs", "--help"]) == (0, (
            "usage: fractaldim dim-ifs [-h] [--out OUT] [--precision PRECISION]\n"
            "                          [--rule RULE] [--tol TOL]\n"
            "                          [ratios]\n"
            "\n"
            "positional arguments:\n"
            "  ratios                contraction-ratio JSON path\n"
            "\n"
            "options:\n"
            "  -h, --help            show this help message and exit\n"
            "  --out OUT             write output to this path instead of stdout\n"
            "  --precision PRECISION\n"
            "                        decimal digits\n"
            "  --rule RULE           catalog rule name\n"
            "  --tol TOL\n"
        ), "")

    @pytest.mark.parametrize(
        "argv, code, built",
        [(["dim-ifs", "--rule", "cantor"], 0, 0), (["--help"], 0, 10), (["nope"], 2, 10)],
    )
    def test_parsers_built(self, capsys, monkeypatch, argv, code, built):
        inits = []
        real = argparse.ArgumentParser.__init__
        monkeypatch.setattr(argparse.ArgumentParser, "__init__",
                            lambda self, *a, **kw: inits.append(self) or real(self, *a, **kw))
        try:
            assert main(argv) == code
        except SystemExit as exc:
            assert exc.code == code
        assert len(inits) == built


# values each type of argument takes, and values the table parse declines or a type refuses
ARG_VALUES = {
    int: ["3", "+3", "\u0663", "1_0", " 7", "12"],
    float: ["3", "+3", "\u0663", "1_0", " 7", "nan", "1e400", "0.5", "1e-9"],
    # a positional's own name too, which is a value and not an option
    str: ["", "koch", "1/3", "s.json", "nan", "+3", "counts", "ratios", "name", "spec",
          "schedule", "setspec"],
}
DECLINED_VALUES = ["-1", "-", "--", "--x=y", "x", "", "1e400"]


@st.composite
def command_argv(draw):
    """A command and its arguments in any order, with at most one kind of flaw.  Without
    it each required argument is given once and each other at most once, spelled
    exactly, with as many values as it takes, each of its type."""
    name = draw(st.sampled_from(list(cli._COMMANDS)))
    flaw = draw(st.sampled_from([None, None, "repeat", "drop", "spelling", "count", "value",
                                 "stray"]))
    groups = []
    for flag, keywords in cli._COMMANDS[name][2].items():
        values = st.sampled_from(ARG_VALUES[keywords.get("type", str)])
        if flaw == "value":
            values = st.one_of(values, st.sampled_from(DECLINED_VALUES))
        required = keywords.get("required") or flag[0] != "-" and "nargs" not in keywords
        repeats = {"repeat": [1, 2], "drop": [0, 1]}.get(flaw, [1] if required else [0, 1])
        for _ in range(draw(st.sampled_from(repeats))):
            if flag[0] != "-":
                groups.append([draw(values)])
                continue
            n = 0 if keywords.get("action") == "store_true" else keywords.get("nargs", 1)
            spelled = [flag] * 2 + ([flag[:-1], f"{flag}=3"] if flaw == "spelling" else [])
            count = [n] * 2 + ([max(n - 1, 0), n + 1] if flaw == "count" else [])
            spelled, count = draw(st.sampled_from(spelled)), draw(st.sampled_from(count))
            groups.append([spelled, *(draw(values) for _ in range(count))])
    stray = [draw(st.sampled_from(["-h", "--help", "--bogus", "extra"]))] if flaw == "stray" else []
    return [name, *chain.from_iterable(draw(st.permutations(groups))), *stray]


class _Parsed(Exception):
    """Raised by a stub command with the namespace main passed it."""


def _fields(namespace):
    # repr, so that nan equals nan; the handler is named by "command"
    return repr(sorted((k, v) for k, v in vars(namespace).items() if k != "func"))


def _captured(call):
    """What ``call`` returns, or ("exit", status) if it exits, with its stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            result = call()
    except SystemExit as exc:
        result = ("exit", exc.code)
    return result, out.getvalue(), err.getvalue()


def _stubbed_main(argv):
    """main(argv) with every command replaced by one that raises _Parsed; the fields it saw."""
    def stub(args):
        raise _Parsed(args)

    stubs = {name: (text, stub, arguments) for name, (text, _, arguments) in cli._COMMANDS.items()}
    with mock.patch.dict(cli._COMMANDS, stubs):
        try:
            return main(argv)
        except _Parsed as parsed:
            return _fields(parsed.args[0])


def _assert_same_outcome_as_argparse(argv):
    reference, out, err = _captured(lambda: cli._build_parser().parse_args(argv))
    parsed = cli._parse_table(argv)
    if parsed is not None:
        assert not isinstance(reference, tuple) and (out, err) == ("", "")
        assert _fields(parsed) == _fields(reference) and parsed.func is reference.func
    elif isinstance(reference, tuple):  # help, usage or an error: argparse's status and bytes
        assert _captured(lambda: _stubbed_main(argv)) == (reference, out, err)
    elif 1 <= reference.precision <= 50:  # the command runs with argparse's namespace
        assert _captured(lambda: _stubbed_main(argv)) == (_fields(reference), "", "")
    else:
        assert _captured(lambda: _stubbed_main(argv)) == (
            2, "", "error: --precision must be in [1, 50]\n")


class TestTableParse:
    """main reads a well-formed argv from the command table, and leaves every other to argparse."""

    @settings(max_examples=400, derandomize=True, deadline=None)
    @given(argv=command_argv())
    def test_same_outcome_as_argparse(self, argv):
        _assert_same_outcome_as_argparse(argv)

    @pytest.mark.parametrize(
        "argv",
        [["dim-ifs", "ratios"], ["dim-ifs", "ratios", "--tol", "1e-9"],
         ["critical-d", "counts"], ["critical-d", "counts", "x.csv"],
         ["fractal", "name", "--m-max", "3"], ["seq-check", "spec", "spec"]],
        ids=" ".join,
    )
    def test_a_positional_spelled_as_its_own_name(self, argv):
        _assert_same_outcome_as_argparse(argv)

    @pytest.mark.parametrize("workload", ["block_walk", "bigint_exact", "partition_bisect"])
    def test_benchmark_argv_takes_the_table_path(self, tmp_path, workload):
        sys.path.insert(0, str(ROOT / "bench"))
        try:
            import workloads
        finally:
            sys.path.remove(str(ROOT / "bench"))
        argvs = list(COMMAND_ARGV.values())
        for seed in range(1, 9):
            argvs += [op.argv for op in workloads.build(workload, seed, tmp_path)]
        assert [argv for argv in argvs if cli._parse_table(argv) is None] == []

    def test_a_command_imports_no_argparse(self, tmp_path):
        probe = (
            "import sys\n"
            "from fractaldim import cli\n"
            "code = cli.main(['tables-ch6', '--n-max', '5', '--out', 'tables.csv'])\n"
            "print(code, [m for m in ('argparse', 'gettext') if m in sys.modules])\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", probe], cwd=tmp_path, capture_output=True, text=True,
            env=dict(os.environ, PYTHONPATH=str(Path(fractaldim.__file__).resolve().parent.parent)),
        )
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, "0 []\n", "")


class TestOutputPolicy:
    def test_out_flag_writes_file(self, capsys, tmp_path):
        target = tmp_path / "table.csv"
        code, out, _ = run_cli(capsys, "tables-ch6", "--out", str(target))
        assert code == 0
        assert out == ""
        text = target.read_text()
        assert text.startswith("family,param,sigma,dim,")
        assert "\r" not in text

    def test_out_in_a_missing_directory(self, capsys, tmp_path):
        target = tmp_path / "missing" / "x.csv"
        code, out, err = run_cli(capsys, "counts", "--rule", "cantor", "--levels", "1", "3",
                                 "--out", str(target))
        assert_rejected(code, out, err)
        assert err.startswith(f"error: cannot write {target}: ")
        assert not target.parent.exists()

    def test_out_is_a_directory(self, capsys, tmp_path):
        code, out, err = run_cli(capsys, "counts", "--rule", "cantor", "--levels", "1", "3",
                                 "--out", str(tmp_path))
        assert_rejected(code, out, err)
        assert err.startswith(f"error: cannot write {tmp_path}: ")

    def test_precision_flag(self, capsys):
        code, out, _ = run_cli(capsys, "dim-ifs", "--rule", "cantor", "--precision", "6")
        assert code == 0
        assert out == "dimension,0.630930\n"

    def test_determinism_across_commands(self, capsys, doubling_path):
        outputs = []
        for _ in range(2):
            _, out, _ = run_cli(capsys, "dim-block", doubling_path, "--n-max", "8")
            outputs.append(out)
        assert outputs[0] == outputs[1]


GEOMETRIC_BLOCKS = {
    "base": 10,
    "alphabet": 7,
    "zeros": {"kind": "geometric", "first": 1, "ratio": 2, "horizon": 64},
    "frees": {"kind": "geometric", "first": 2, "ratio": 2, "horizon": 64},
}
CONSTANT_BLOCKS = {
    "base": 3,
    "zeros": {"kind": "arithmetic", "first": 2, "step": 0, "horizon": 30000},
    "frees": {"kind": "arithmetic", "first": 2, "step": 0, "horizon": 30000},
}


class TestStreamedOutput:
    """Commands compute first and return their lines; main writes them in batches."""

    def test_no_command_is_a_generator_function(self):
        # a generator command would run its checks only once main starts writing
        commands = [getattr(cli, name) for name in dir(cli) if name.startswith("cmd_")]
        assert len(commands) == 9
        assert not any(map(inspect.isgeneratorfunction, commands))

    @pytest.mark.parametrize(
        "argv, err",
        [
            (["fractal", "menger_standard", "--m-max", "100000000"],
             "error: menger_standard volume values through m = 4278 pass the budget of "
             "25000000 digits\n"),
            (["counts", "--schedule", "short.json", "--levels", "1", "200"],
             "error: digit position walk ran past horizon 5\n"),
            (["dim-block", "short.json", "--n-max", "6"],
             "error: n_max 6 exceeds schedule horizon 5\n"),
            (["counts", "--rule", "quadratic_koch", "--levels", "1700000", "1700000"],
             "error: level 1700000 has more than the 2000000 digits a command may print\n"),
        ],
        ids=["fractal_budget", "counts_horizon", "dim_block_horizon", "counts_printed_digits"],
    )
    @pytest.mark.parametrize("to_file", [False, True])
    def test_late_failures_write_nothing(self, capsys, monkeypatch, tmp_path, argv, err, to_file):
        monkeypatch.chdir(tmp_path)
        Path("short.json").write_text(json.dumps(
            {"base": 2, "zeros": {"kind": "arithmetic", "first": 1, "step": 1, "horizon": 5}}))
        out_args = ["--out", "out.csv"] if to_file else []
        assert run_cli(capsys, *argv, *out_args) == (3, "", err)
        assert not Path("out.csv").exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ["counts", "--schedule", "geometric.json", "--levels", "1", "600"],
            ["dim-block", "constant.json", "--n-max", "5000"],
            ["fractal", "menger_standard", "--m-max", "500"],
        ],
    )
    def test_out_file_holds_the_stdout_bytes(self, capsys, monkeypatch, tmp_path, argv):
        monkeypatch.chdir(tmp_path)
        Path("geometric.json").write_text(json.dumps(GEOMETRIC_BLOCKS))
        Path("constant.json").write_text(json.dumps(CONSTANT_BLOCKS))
        code, out, err = run_cli(capsys, *argv)
        assert (code, err) == (0, "")
        assert len(out) > 4 * cli._BATCH_CHARS
        assert run_cli(capsys, *argv, "--out", "out.csv") == (0, "", "")
        assert Path("out.csv").read_bytes() == out.encode()

    def test_counts_and_dim_block_print_the_library_writers_text(self, capsys, tmp_path):
        geometric, constant = tmp_path / "geometric.json", tmp_path / "constant.json"
        geometric.write_text(json.dumps(GEOMETRIC_BLOCKS))
        constant.write_text(json.dumps(CONSTANT_BLOCKS))
        _, out, _ = run_cli(capsys, "counts", "--schedule", str(geometric), "--levels", "3", "300")
        source = blockset.BlockCellSource(blockset.schedule_from_json(GEOMETRIC_BLOCKS))
        lines = boxdim.count_series_to_csv(boxdim.count_series(source, range(3, 301)))
        assert out == "".join(line + "\n" for line in lines)
        _, out, _ = run_cli(capsys, "dim-block", str(constant), "--n-max", "3000")
        report = blockset.dim_bounds(blockset.schedule_from_json(CONSTANT_BLOCKS), 3000)
        lines = [*blockset.dim_report_csv(report, 12), "summary,value,decimal"]
        assert out.startswith("".join(line + "\n" for line in lines))

    def test_writes_stay_near_the_batch_size(self):
        lines = ["9" * (10 + i) for i in range(3000)]  # rows that grow, as columns of powers do
        writes = []
        cli._write_lines(SimpleNamespace(write=writes.append), lines)
        text = "".join(f"{line}\n" for line in lines)
        assert "".join(writes) == text
        assert max(map(len, writes)) <= 2 * cli._BATCH_CHARS
        assert len(writes) <= 2 * len(text) // cli._BATCH_CHARS + 20

    def test_a_big_out_file_is_never_held_whole(self, capsys, tmp_path):
        # held three times over (lines, joined text, encoded bytes): a peak of 2.6 times the file
        schedule, target = tmp_path / "geometric.json", tmp_path / "out.csv"
        schedule.write_text(json.dumps(GEOMETRIC_BLOCKS))
        code, out, err, peak = run_cli_peak(capsys, "counts", "--schedule", str(schedule),
                                            "--levels", "1", "3000", "--out", str(target))
        assert (code, out, err) == (0, "", "")
        assert peak < target.stat().st_size


def assert_rejected(code, out, err):
    """The documented outcome for bad input: exit 2, one error line, no stdout."""
    assert code == 2
    assert out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")


class TestRejectedInput:
    @pytest.mark.parametrize(
        "spec",
        [
            '{"ratios": ["abc"]}',
            '{"ratios": [true, 0.5]}',
            '{"ratios": [0.5, Infinity]}',
            '{"ratios": [0.5, NaN]}',
            '{"ratio": 0.5, "count": "x"}',
            '{"ratio": 0.5, "count": true}',
            '{"ratio": 0.5, "count": 2.5}',
            '{"ratio": "abc", "count": 2}',
            '{"ratio": 0.5, "count": 0}',
            '{"ratio": 0.5, "count": -3}',
        ],
    )
    def test_bad_ratio_spec(self, capsys, tmp_path, spec):
        path = tmp_path / "ratios.json"
        path.write_text(spec)
        assert_rejected(*run_cli(capsys, "dim-ifs", str(path)))

    @pytest.mark.parametrize(
        "values",
        [
            [0.5, 0.25, 1, 0.3],
            [0.5, 10**400],  # an int too large for a float
            [0.5, 2**1024 - 1],
            [0.5, 1e308 * 10, 0.5],  # Infinity
            [0.5, True],
            [0.5, "0.25", 0.3],
            [0.5, None],
            [],
        ],
    )
    def test_ratio_list_reads_as_each_value_alone(self, values):
        def outcome(parse):
            try:
                return parse()
            except InputError as exc:
                return str(exc)

        fast = outcome(lambda: cli._parse_ratios({"ratios": values}))
        each = outcome(lambda: selfsimilar.IfsRatios(tuple(cli._ratio(v) for v in values)))
        assert fast == each

    @pytest.mark.parametrize("m_cap", ["NINES", '"NINES"', '"10^NINES"'])  # the exponent of a power
    def test_schedule_number_past_the_digit_limit(self, capsys, tmp_path, m_cap):
        # exited 1 with "ValueError: Exceeds the limit (2000000 digits)"
        path = tmp_path / "schedule.json"
        text = json.dumps({**DOUBLING, "m_cap": "M_CAP"})
        path.write_text(text.replace('"M_CAP"', m_cap.replace("NINES", "9" * 2_100_000)))
        assert_rejected(*run_cli(capsys, "dim-block", str(path), "--n-max", "3"))

    def test_set_integer_past_the_digit_limit(self, capsys, tmp_path):
        path = tmp_path / "set.json"
        path.write_text('{"N": 100, "runs": [[0, ' + "9" * 2_100_000 + "]]}")
        code, out, err = run_cli(capsys, "hyper-hsd", str(path), "--delta", "1/10", "--s", "1")
        assert_rejected(code, out, err)
        assert err.startswith(f"error: cannot read a number in {path}: ")

    @pytest.mark.parametrize(
        "option, number",
        [(option, "1e9999999") for option in ("--s", "--h", "--k", "--K", "--eps", "--interval")]
        + [("--delta", number) for number in ("1e9999999", "1e-9999999", "1E+9_999_999",
                                              " 1e9999999\t", "1e" + "\u0669" * 7)],  # Arabic-Indic 9
    )
    def test_exponent_past_the_digit_limit(self, tmp_path, option, number):
        # Fraction spent 10 s on 1e9999999 before any check; --delta 1e99999999 ran on past 40 s
        setspec, seq = tmp_path / "set.json", tmp_path / "seq.json"
        setspec.write_text(json.dumps({"N": 10, "runs": [[0, 3]]}))
        seq.write_text(json.dumps({"kind": "geometric", "first": 1, "ratio": 2}))
        argv = {
            "--delta": ["hyper-hsd", str(setspec), "--delta", number, "--s", "1"],
            "--s": ["hyper-hsd", str(setspec), "--delta", "1/10", "--s", number],
            "--h": ["two-grid", "--n-h", "4", "--n-k", "2", "--h", number, "--k", "1/2"],
            "--k": ["two-grid", "--n-h", "4", "--n-k", "2", "--h", "1/4", "--k", number],
            "--K": ["seq-check", str(seq), "--K", number, "--window", "1", "5"],
            "--eps": ["seq-check", str(seq), "--tail-k", "2", "--eps", number],
            "--interval": ["counts", "--interval", number, "1", "--levels", "1", "2"],
        }[option]
        start = time.perf_counter()
        proc = run_module(*argv, timeout=30)
        assert time.perf_counter() - start < 1
        assert_rejected(proc.returncode, proc.stdout, proc.stderr)
        assert "exponent" in proc.stderr

    def test_exponent_bound_is_inclusive(self, monkeypatch):
        monkeypatch.setattr(cli, "_PRINTED_DIGITS", 50)
        for text, want in (("1e50", 10**50), ("1e-50", Fraction(1, 10**50)), ("1E+5_0", 10**50),
                           (" 1e50 ", 10**50), ("1e\u0665\u0660", 10**50), ("2.5e50", 25 * 10**49)):
            assert cli._fr(text) == want, text
        for text in ("1e51", "1e-51", "1E+5_1", " 1e51 ", "1e\u0665\u0661", "0e99"):
            with pytest.raises(InputError, match="exponent"):
                cli._fr(text)
        for text in ("1/3", "2e", "e5", "1e5/3", "1e5e5"):  # other text reads as it did
            try:
                want = Fraction(text)
            except ValueError:
                with pytest.raises(InputError, match="expected a number"):
                    cli._fr(text)
            else:
                assert cli._fr(text) == want

    def test_exponent_within_the_digit_limit(self, capsys, tmp_path):
        path = tmp_path / "set.json"
        path.write_text(json.dumps({"N": 10, "runs": [[0, 3]]}))
        code, out, err = run_cli(capsys, "hyper-hsd", str(path), "--delta", "1e999999", "--s", "1")
        assert (code, out, err) == (0, "cost,0.400000000000\nintervals,1\n", "")

    @pytest.mark.parametrize(
        "argv",
        [["dim-block", "--n-max", "3"], ["dim-ifs"], ["hyper-hsd", "--delta", "1", "--s", "1"],
         ["seq-check", "--squared-sum", "3"]],
        ids=lambda argv: argv[0],
    )
    def test_json_nested_too_deeply(self, capsys, tmp_path, argv):
        # raised RecursionError out of json.loads: a traceback and exit 1
        path = tmp_path / "deep.json"
        path.write_text("[" * 100_000 + "]" * 100_000)
        code, out, err = run_cli(capsys, argv[0], str(path), *argv[1:])
        assert_rejected(code, out, err)
        assert err.startswith(f"error: malformed JSON in {path}: ")

    def test_count_overflowing_moran_sum(self, capsys, tmp_path):
        path = tmp_path / "ratios.json"
        path.write_text(json.dumps({"ratio": 0.5, "count": 10**400}))
        assert_rejected(*run_cli(capsys, "dim-ifs", str(path)))

    ARITHMETIC = {"kind": "arithmetic", "first": 1, "step": 0}
    # each command's arguments after its input file
    ARGS = {"dim-block": ["--n-max", "3"], "hyper-hsd": ["--delta", "1/2", "--s", "1"]}

    @pytest.mark.parametrize(
        "command, tol, text, err",
        [*((command, tol, text, err) for command, text in (
             ("dim-block", json.dumps({"base": 2, "zeros": ARITHMETIC})),
             ("dim-ifs", json.dumps({"ratios": [0.5, 0.25]})),
             ("critical-d", "m,delta,n_cells\n1,1/3,2\n2,1/9,4\n3,1/27,8\n"))
           for tol, err in (("nan", "tol must be positive"), ("inf", "tol must be finite"),
                            ("0", "tol must be positive"), ("-1", "tol must be positive"))),
         *((command, None, json.dumps(obj), err) for command, obj, err in (
             ("dim-ifs", [0.5], "ratio spec must be a JSON object"),
             ("dim-ifs", {"ratios": [0.5], "n": 2}, "unknown keys in ratio spec: ['n']"),
             ("dim-ifs", {"ratio": 0.5, "count": 2, "n": 2}, "unknown keys in ratio spec: ['n']"),
             ("dim-block", [2], "block schedule must be a JSON object"),
             ("dim-block", {"base": 2, "zeros": ARITHMETIC, "n": 2},
              "unknown keys in block schedule: ['n']"),
             ("dim-block", {"base": 2, "zeros": [1]}, "sequence spec must be a JSON object"),
             ("dim-block", {"base": 2, "zeros": {**ARITHMETIC, "n": 2}},
              "unknown keys in sequence spec: ['n']"),
             ("seq-check", None, "sequence spec must be a JSON object"),
             ("seq-check", {**ARITHMETIC, "n": 2}, "unknown keys in sequence spec: ['n']"),
             ("hyper-hsd", [[0, 1]], "internal set must be a JSON object"),
             ("hyper-hsd", {"N": 4, "runs": [], "n": 2}, "unknown keys in internal set: ['n']"),
         ))],
    )
    def test_shared_refusals(self, capsys, tmp_path, command, tol, text, err):
        # the solvers' tolerance and the JSON readers' object refusals, one text each
        path = tmp_path / "input"
        path.write_text(text)
        argv = [command, str(path), *self.ARGS.get(command, []), *(["--tol", tol] if tol else [])]
        assert run_cli(capsys, *argv) == (2, "", f"error: {err}\n")

    def test_dim_ifs_nan_tol(self, capsys, tmp_path):
        path = tmp_path / "ratios.json"
        path.write_text(json.dumps({"ratios": [0.5, 0.5]}))
        assert_rejected(*run_cli(capsys, "dim-ifs", str(path), "--tol", "nan"))

    def test_critical_d_nan_tol(self, capsys, tmp_path):
        _, out, _ = run_cli(capsys, "counts", "--rule", "cantor", "--levels", "1", "30")
        path = tmp_path / "counts.csv"
        path.write_text(out)
        assert_rejected(*run_cli(capsys, "critical-d", str(path), "--tol", "nan"))

    def test_dim_ifs_infinite_tol(self, capsys, tmp_path):
        # an infinite tol skipped the bisection: dimension,0.500000000500 for 1
        path = tmp_path / "ratios.json"
        path.write_text(json.dumps({"ratios": [0.5, 0.5]}))
        code, out, err = run_cli(capsys, "dim-ifs", str(path), "--tol", "inf")
        assert (code, out, err) == (2, "", "error: tol must be finite\n")

    def test_critical_d_infinite_tol(self, capsys, tmp_path):
        # an infinite tol printed the starting bracket's midpoint, 1.446 for 1.893
        _, out, _ = run_cli(capsys, "counts", "--rule", "carpet", "--levels", "1", "30")
        path = tmp_path / "counts.csv"
        path.write_text(out)
        assert_rejected(*run_cli(capsys, "critical-d", str(path), "--tol", "inf"))

    @pytest.mark.parametrize(
        "row",
        ["2.5,1/9,4", "2,1/9,x", "2,1/0,4", "2,0/1,4", "2,-1/9,4", "2,1/3,4"],
        ids=["level", "count", "zero-denominator", "zero-delta", "negative-delta", "repeated-delta"],
    )
    def test_bad_count_csv_row(self, capsys, tmp_path, row):
        path = tmp_path / "counts.csv"
        path.write_text(f"m,delta,n_cells\n1,1/3,2\n{row}\n3,1/27,8\n")
        assert_rejected(*run_cli(capsys, "critical-d", str(path)))

    @pytest.mark.parametrize(
        "argv",
        [
            ["dim-ifs"],
            ["hyper-hsd", "--delta", "1/2", "--s", "1/2"],
            ["dim-block", "--n-max", "5"],
            ["counts", "--levels", "1", "3", "--schedule"],
            ["seq-check"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_json_file_not_utf8(self, capsys, tmp_path, argv):
        path = tmp_path / "input.json"
        path.write_bytes(b"\xff\xfe{}")
        assert_rejected(*run_cli(capsys, *argv, str(path)))

    def test_count_csv_not_utf8(self, capsys, tmp_path):
        path = tmp_path / "counts.csv"
        path.write_bytes(b"m,delta,n_cells\n1,1/3,2\n2,1/9,\xff\n")
        assert_rejected(*run_cli(capsys, "critical-d", str(path)))

    def test_zero_count_before_growth(self, capsys, tmp_path):
        path = tmp_path / "counts.csv"
        path.write_text("m,delta,n_cells\n1,1/2,0\n2,1/4,1\n3,1/8,2\n")
        assert_rejected(*run_cli(capsys, "critical-d", str(path)))

    def test_negative_levels(self, capsys):
        assert_rejected(*run_cli(capsys, "counts", "--interval", "0", "1", "--levels", "-2", "1"))

    def test_negative_fractal_m_max(self, capsys):
        assert_rejected(*run_cli(capsys, "fractal", "koch", "--m-max", "-1"))

    def test_negative_tail_k(self, capsys, tmp_path):
        path = tmp_path / "seq.json"
        path.write_text(json.dumps({"kind": "arithmetic", "first": 1, "step": 1}))
        assert_rejected(*run_cli(capsys, "seq-check", str(path), "--tail-k", "-1"))

    @pytest.mark.parametrize(
        "command", [["counts", "--levels", "1", "6", "--schedule"], ["dim-block", "--n-max", "5"]]
    )
    def test_huge_horizon_walks_like_a_small_one(self, capsys, tmp_path, command):
        outputs = []
        for horizon in (10**6, 10**19):
            spec = copy.deepcopy(DOUBLING)
            spec["zeros"]["horizon"] = horizon
            path = tmp_path / f"horizon{horizon}.json"
            path.write_text(json.dumps(spec))
            outputs.append(run_cli(capsys, *command, str(path)))
        assert outputs[0][0] == 0 and outputs[0] == outputs[1]

    def test_schedule_power_over_the_digit_budget(self, tmp_path):
        # was built in full: "10^20000000" took 48 s, "10^2000000000" ran past 60 s
        path = tmp_path / "schedule.json"
        path.write_text(json.dumps({**DOUBLING, "m_cap": "10^2000000000"}))
        proc = run_module("dim-block", str(path), "--n-max", "3", timeout=5)
        assert (proc.returncode, proc.stdout) == (3, "")
        assert proc.stderr == "error: 10^2000000000 has more than 1000000 digits\n"

    def test_n_max_above_maxsize(self, capsys, tmp_path):
        spec = copy.deepcopy(DOUBLING)
        spec["zeros"]["horizon"] = 10**20
        path = tmp_path / "schedule.json"
        path.write_text(json.dumps(spec))
        assert_rejected(*run_cli(capsys, "dim-block", str(path), "--n-max", str(10**19)))

    def test_n_max_over_the_block_budget(self, capsys, tmp_path):
        # blocks of one digit each: n_max 10**12 asks for 2 * 10**12 + 2 blocks
        spec = {"base": 2, "alphabet": 2, "frees": "same_as_zeros",
                "zeros": {"kind": "arithmetic", "first": 1, "step": 0, "horizon": 10**19}}
        path = tmp_path / "schedule.json"
        path.write_text(json.dumps(spec))
        code, out, err, peak = run_cli_peak(capsys, "dim-block", str(path), "--n-max", str(10**12))
        assert (code, out) == (3, "")
        assert err.startswith("error: block walk asks for 2000000000002 blocks, over the budget")
        assert peak < 10**7  # refused before the walk drew a block

    def test_counts_over_the_level_budget(self, capsys):
        code, out, err, peak = run_cli_peak(
            capsys, "counts", "--rule", "cantor", "--levels", "0", "100000000"
        )
        assert (code, out) == (3, "")
        assert err == "error: levels 0..100000000 are 100000001 levels, over the budget of 1000000\n"
        assert peak < 10**7  # refused before the level list was built

    def test_level_budget_boundary(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "_LEVEL_BUDGET", 5)
        code, out, _ = run_cli(capsys, "counts", "--rule", "cantor", "--levels", "3", "7")
        assert code == 0 and len(out.splitlines()) == 6
        code, _, _ = run_cli(capsys, "counts", "--rule", "cantor", "--levels", "3", "8")
        assert code == 3

    def test_two_grid_past_the_printed_digits(self, capsys):
        code, out, err, peak = run_cli_peak(
            capsys, "two-grid", "--rule", "cantor", "--levels", "0", "100000000000"
        )
        assert (code, out) == (3, "")
        assert err == "error: 3**100000000000 has more than the 2000000 digits a command may print\n"
        assert peak < 10**7  # refused before 2**Q or 3**Q was built

    def test_printable_power_is_exact(self, monkeypatch):
        monkeypatch.setattr(cli, "_PRINTED_DIGITS", 50)
        for base in (2, 3, 7, 10, 20, 100, 1000, 99999):
            for q in range(1, 200):
                try:
                    cli._check_printable_power(base, q)
                    refused = False
                except BudgetExceededError:
                    refused = True
                assert refused == (len(str(base**q)) > 50), (base, q)

    @pytest.mark.parametrize(
        "check",
        [
            ["--squared-sum", str(10**19)],
            ["--tail-k", str(10**19)],
            ["--K", "1", "--window", "0", str(10**19)],
        ],
        ids=["squared-sum", "tail-k", "window"],
    )
    def test_term_count_above_maxsize(self, capsys, tmp_path, check):
        path = tmp_path / "seq.json"
        spec = {"kind": "arithmetic", "first": 1, "step": 1, "horizon": 10**20}
        path.write_text(json.dumps(spec))
        assert_rejected(*run_cli(capsys, "seq-check", str(path), *check))

    @pytest.mark.parametrize("base", ["0", "1"])
    def test_interval_base_below_2(self, capsys, base):
        assert_rejected(
            *run_cli(capsys, "counts", "--interval", "0", "1", "--levels", "1", "3", "--base", base)
        )

    def test_seq_check_true_in_terms(self, capsys, tmp_path):
        # was read as the term 1
        path = tmp_path / "seq.json"
        path.write_text(json.dumps({"kind": "explicit", "terms": [True, True, 2], "horizon": 2}))
        assert_rejected(*run_cli(capsys, "seq-check", str(path), "--squared-sum", "3"))

    @pytest.mark.parametrize("d_max", ["nan", "inf"])
    def test_critical_d_non_finite_d_max(self, capsys, tmp_path, d_max):
        _, out, _ = run_cli(capsys, "counts", "--rule", "cantor", "--levels", "1", "30")
        path = tmp_path / "counts.csv"
        path.write_text(out)
        assert_rejected(*run_cli(capsys, "critical-d", str(path), "--d-max", d_max))

    @pytest.mark.parametrize("tol", ["nan", "-1", "0", "inf"])
    def test_dim_block_bad_tol(self, capsys, doubling_path, tol):
        assert_rejected(*run_cli(capsys, "dim-block", doubling_path, "--n-max", "5", "--tol", tol))


# ---------------------------------------------------------------------------
# input contract fuzz: mutated JSON gets an answer or one documented error

# small integers keep every example cheap; the edge values probe validation,
# overflow and the DP budget
EDGE_VALUES = st.sampled_from(
    [0, -1, 1, 10**9, 10**30, 10**400, -(10**20), True, None, "", "1/2", 1.5, 1e-320,
     math.nan, math.inf, [], {}]
)
JSON_LEAVES = st.one_of(
    st.integers(-3, 300),
    st.floats(allow_nan=True, allow_infinity=True),
    st.text(max_size=4),
    EDGE_VALUES,
)
JSON_VALUES = st.one_of(
    EDGE_VALUES,
    st.recursive(
        JSON_LEAVES,
        lambda kids: st.lists(kids, max_size=3) | st.dictionaries(st.text(max_size=3), kids, max_size=2),
        max_leaves=6,
    ),
)


def _paths(doc, prefix=()):
    yield prefix
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield from _paths(value, prefix + (key,))


def _mutated(data, doc):
    """``doc`` with one or two values replaced or deleted, and maybe a key added."""
    for _ in range(data.draw(st.integers(1, 2))):
        # leaves first: hypothesis favours early entries, and the root path replaces everything
        path = data.draw(st.sampled_from(list(_paths(doc))[::-1]))
        if not path:
            doc = data.draw(JSON_VALUES)
            continue
        doc = copy.deepcopy(doc)
        node = doc
        for key in path[:-1]:
            node = node[key]
        if data.draw(st.integers(0, 7)) == 0:
            del node[path[-1]]
        else:
            node[path[-1]] = data.draw(JSON_VALUES)
        if isinstance(node, dict) and data.draw(st.integers(0, 7)) == 0:
            node[data.draw(st.text(max_size=3))] = data.draw(JSON_VALUES)
    return doc


def _csv_text(doc):
    """CSV text of a mutated row list: list rows joined by commas, anything else as str()."""
    rows = doc if isinstance(doc, list) else [doc]
    return "".join(
        (",".join(map(str, row)) if isinstance(row, list) else str(row)) + "\n" for row in rows
    )


def assert_contract(code, out, err):
    assert code in (0, 2, 3, 4)
    if code:
        assert out == ""
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")
    else:
        assert err == "" and out.endswith("\n")


FUZZ = settings(
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)


@settings(FUZZ, max_examples=400)
@given(data=st.data(), base=st.sampled_from([{"ratios": [0.5, 0.25, 0.3]}, {"ratio": 0.5, "count": 8}]))
def test_dim_ifs_contract_on_mutated_json(capsys, tmp_path, data, base):
    path = tmp_path / "ratios.json"
    path.write_text(json.dumps(_mutated(data, base)))
    assert_contract(*run_cli(capsys, "dim-ifs", str(path)))


@settings(FUZZ, max_examples=200)
@given(
    data=st.data(),
    delta=st.sampled_from(["1/16", "1/2", "1", "0", "2", "-1/4", "1/0", "abc"]),
    s=st.sampled_from(["1/2", "1", "0.3", "0", "2", "x"]),
)
def test_hyper_hsd_oracle_contract_on_mutated_json(capsys, tmp_path, data, delta, s):
    path = tmp_path / "set.json"
    path.write_text(json.dumps(_mutated(data, {"N": 128, "runs": [[0, 30], [40, 90]]})))
    assert_contract(
        *run_cli(capsys, "hyper-hsd", str(path), f"--delta={delta}", f"--s={s}", "--oracle")
    )


@settings(FUZZ, max_examples=300)
@given(data=st.data())
def test_counts_schedule_contract_on_mutated_json(capsys, tmp_path, data):
    path = tmp_path / "schedule.json"
    path.write_text(json.dumps(_mutated(data, DOUBLING)))
    assert_contract(*run_cli(capsys, "counts", "--schedule", str(path), "--levels", "1", "6"))


@settings(FUZZ, max_examples=300)
@given(data=st.data(), n_max=st.sampled_from(["6", str(10**12)]))
def test_dim_block_contract_on_mutated_json(capsys, tmp_path, data, n_max):
    path = tmp_path / "schedule.json"
    path.write_text(json.dumps(_mutated(data, DOUBLING)))
    assert_contract(*run_cli(capsys, "dim-block", str(path), "--n-max", n_max))


# cantor counts at levels 1..8: 2**m cells of side 3**-m
CANTOR_ROWS = [["m", "delta", "n_cells"]] + [[m, f"1/{3**m}", 2**m] for m in range(1, 9)]
# the same past 2,600 bits, where each count and denominator is read from the row above
LONG_CANTOR_ROWS = [["m", "delta", "n_cells"]] + [
    [m, f"1/{3**m}", 2**m] for m in range(_READ_BASE_BITS, _READ_BASE_BITS + 8)
]


@settings(FUZZ, max_examples=300)
@given(data=st.data(), base=st.sampled_from([CANTOR_ROWS, LONG_CANTOR_ROWS]))
def test_critical_d_contract_on_mutated_csv(capsys, tmp_path, data, base):
    path = tmp_path / "counts.csv"
    path.write_text(_csv_text(_mutated(data, base)))
    assert_contract(*run_cli(capsys, "critical-d", str(path)))


# endpoints and elements of a runs array that the text reader must decline, or
# that fail on both paths: bools, floats, 64-bit limits, strings holding "],",
# nested lists, empty elements and non-JSON numbers
ODD_VALUES = st.sampled_from(
    ["true", "false", "1.0", "1e2", "-0", "-1", "null", "NaN", "01", '"],"', "[1, 2]", "[]",
     str(2**63 - 1), str(2**63), str(-(2**63)), str(-(2**63) - 1), str(10**20)]
)
ODD_ELEMENTS = st.sampled_from(
    ["", "[1]", "[1, 2, 3]", "[[1, 2]]", "[[1, 2], [40, 50]]", '["],", 3]', '["a", "],["]',
     "{}", "1", "[]", "[90, 99]]", "[91, 92],"]
)


@st.composite
def internal_set_texts(draw):
    """Internal-set JSON texts: whitespace between tokens, odd values, elements and keys.

    Each odd part is drawn one time in eight or so, so about half the texts are plain.
    """

    def ws():
        return draw(st.sampled_from(["", " ", "\n", "\r\n", "\t", " \r\n  "]))

    def sep(token):
        return ws() + token + ws()

    values, pos = [], draw(st.integers(0, 3))
    for gap, length in draw(st.lists(st.tuples(st.integers(1, 4), st.integers(1, 9)), min_size=1, max_size=8)):
        values += [str(pos), str(pos + length - 1)]
        pos += length + gap
    if draw(st.integers(0, 7)) == 0:
        values[draw(st.integers(0, len(values) - 1))] = draw(ODD_VALUES)
    items = [f"[{ws()}{a}{sep(',')}{b}{ws()}]" for a, b in zip(values[::2], values[1::2])]
    if draw(st.integers(0, 15)) == 0:
        items = []
    if draw(st.integers(0, 7)) == 0:
        items.insert(draw(st.integers(0, len(items))), draw(ODD_ELEMENTS))
    body = "".join(item + sep(",") for item in items)
    if draw(st.integers(0, 7)):  # else a trailing comma
        body = body.rstrip(" \t\r\n").removesuffix(",")
    pairs = [('"N"', str(draw(st.sampled_from([pos, pos + 3, max(pos - 2, 0), 1, 10**20])))),
             ('"runs"', f"[{ws()}{body}{ws()}]")]
    keys = draw(st.sampled_from(["plain"] * 12 + ["swapped", "duplicated", "extra", "missing"]))
    if keys == "swapped":
        pairs.reverse()
    elif keys == "duplicated":
        pairs.insert(draw(st.integers(0, 2)), draw(st.sampled_from(pairs)))
    elif keys == "extra":
        pairs.append(('"x"', "[[1, 2]]"))
    elif keys == "missing":
        pairs.pop(draw(st.integers(0, 1)))
    members = sep(",").join(f"{key}{sep(':')}{value}" for key, value in pairs)
    text = f"{ws()}{{{ws()}{members}{ws()}}}{ws()}"
    if draw(st.integers(0, 7)) == 0:  # whitespace that JSON does not allow
        at = draw(st.integers(0, len(text)))
        text = text[:at] + draw(st.sampled_from(["\x0b", "\u00a0", "\u2028"])) + text[at:]
    return text


def _set_outcome(read):
    """The grid and the columns as tuples that ``read()`` gives, or its error's type and text."""
    try:
        grid, iset = read()
    except FractalDimError as exc:
        return type(exc), str(exc)
    return grid, tuple(iset.starts), tuple(iset.ends)


def _accepted(read):
    """Whether ``read()`` gives a set or an error, rather than declining with None."""
    try:
        return read() is not None
    except FractalDimError:
        return True


@settings(FUZZ, max_examples=400)
@given(text=internal_set_texts())
def test_set_text_reader_agrees_with_the_whole_document(capsys, tmp_path, text):
    path = tmp_path / "s.json"
    path.write_bytes(text.encode())
    whole = _set_outcome(lambda: hypergrid.internal_set_from_json(cli._load_json(str(path))))
    plain = _accepted(lambda: hypergrid._read_in_pieces(text))
    for chunk in range(1, len(text) + 2):  # a cut at each "]" that a comma follows, then none
        with mock.patch.object(hypergrid, "_CHUNK", chunk):
            assert _set_outcome(lambda: cli._read_set(str(path))) == whole
        # the file's reads, newlines translated, are declined where the text is
        with open(path, encoding="utf-8") as fh:
            assert _accepted(lambda: hypergrid._read_in_pieces(iter(lambda: fh.read(chunk), ""))) == plain
    argv = ["hyper-hsd", str(path), "--delta", "1/4", "--s", "1/2", "--oracle"]
    pieces = run_cli(capsys, *argv)
    with mock.patch.object(hypergrid, "_read_in_pieces", lambda text: None):
        assert run_cli(capsys, *argv) == pieces
    assert_contract(*pieces)


def _decode_error(data: bytes) -> str:
    """The message ``bytes.decode`` gives for the first bad UTF-8 byte of ``data``."""
    try:
        data.decode("utf-8")
    except UnicodeDecodeError as exc:
        return str(exc)
    raise AssertionError("data decodes")


def _sponge_csv(levels: int) -> str:
    """The menger_sponge count series CSV, levels 1..``levels``."""
    return "m,delta,n_cells\n" + "".join(f"{m},1/{3**m},{20**m}\n" for m in range(1, levels + 1))


# separators str.splitlines cuts at, and a universal-newline file reads as "\n" or keeps
LINE_BREAKS = ["\n", "\r\n", "\r", "\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]


class TestStreamedInput:
    """critical-d reads its CSV a line at a time, and reports errors as a whole read would."""

    @settings(FUZZ, max_examples=200)
    @given(data=st.data())
    def test_file_lines_give_the_rows_of_the_whole_text(self, capsys, monkeypatch, tmp_path, data):
        levels = sorted(data.draw(st.sets(st.integers(1, 7), min_size=3)))
        rows = ["m,delta,n_cells"] + [f"{m},1/{3**m},{2**m}" for m in levels]
        for _ in range(data.draw(st.integers(0, 3))):  # blank, short and malformed rows
            extra = st.sampled_from(["", "   ", "3,1/27", "9,1/3**9,512", "m,delta,n_cells"])
            rows.insert(data.draw(st.integers(0, len(rows))), data.draw(extra))
        pad = st.sampled_from(["", " ", "\t ", " " * 8190])  # the longest crosses a read chunk
        text = ""
        for row in rows:
            # the header must be exact; other fields may carry spaces, as int() reads them
            fields = (data.draw(pad) + field + data.draw(pad) if row[:1] != "m" else field
                      for field in row.split(","))
            text += ",".join(fields) + data.draw(st.sampled_from(LINE_BREAKS))
        path = tmp_path / "counts.csv"
        path.write_bytes(text.encode())
        read = []
        monkeypatch.setattr(boxdim, "critical_d", lambda series, **_: read.append(series) or
                            boxdim.CriticalExponent(0.0, 0.0, 0.0))
        code, out, err = run_cli(capsys, "critical-d", str(path))
        try:
            expected = boxdim.count_series_from_csv(text)
        except InputError as exc:
            assert (code, out, err, read) == (2, "", f"error: {exc}\n", [])
        else:
            assert (code, err) == (0, "")
            assert read[0] == expected

    def test_a_bad_byte_past_the_first_read_chunk(self, capsys, tmp_path):
        data = _sponge_csv(400).encode()
        assert len(data) > 3 * 8192
        data = data[:20_000] + b"\xff" + data[20_000:]
        path = tmp_path / "counts.csv"
        path.write_bytes(data)
        message = _decode_error(data)
        assert "position 20000" in message
        assert run_cli(capsys, "critical-d", str(path)) == (
            2, "", f"error: cannot read {path}: {message}\n"
        )

    @pytest.mark.parametrize(
        "index, bad", [(2, "2,x,4"), (2, "2,1/9"), (0, "m,delta")], ids=["row", "short-row", "header"]
    )
    def test_a_bad_row_before_a_bad_byte_reports_the_byte(self, capsys, tmp_path, index, bad):
        rows = _sponge_csv(400).splitlines()
        rows[index] = bad
        data = "\n".join(rows).encode() + b"\n\xe2\x82\n"
        path = tmp_path / "counts.csv"
        path.write_bytes(data)
        assert run_cli(capsys, "critical-d", str(path)) == (
            2, "", f"error: cannot read {path}: {_decode_error(data)}\n"
        )

    def test_a_missing_path_and_a_directory(self, capsys, tmp_path):
        missing = tmp_path / "missing.csv"
        assert run_cli(capsys, "critical-d", str(missing)) == (
            2, "", f"error: cannot read {missing}: [Errno {errno.ENOENT}] "
            f"{os.strerror(errno.ENOENT)}: {str(missing)!r}\n"
        )
        assert run_cli(capsys, "critical-d", str(tmp_path)) == (
            2, "", f"error: cannot read {tmp_path}: [Errno {errno.EISDIR}] "
            f"{os.strerror(errno.EISDIR)}: {str(tmp_path)!r}\n"
        )

    def test_a_count_csv_is_never_held_whole(self, capsys, tmp_path):
        # held twice over (the text and its split lines): a peak of 2.6 times the file
        path = tmp_path / "sponge.csv"
        path.write_text(_sponge_csv(2000))
        code, out, err, peak = run_cli_peak(capsys, "critical-d", str(path))
        assert (code, err) == (0, "")
        assert out.startswith("critical_d,2.72683")
        assert peak < path.stat().st_size

    def test_decoded_runs_are_freed_as_the_set_is_built(self, capsys, tmp_path):
        # the decoded [i, j] lists lived beside their tuples: a peak of 21.8 MB
        path = tmp_path / "short.json"
        runs = [[i, i + 9] for i in range(0, 2_800_000, 28)]  # 10**5 runs
        path.write_text(json.dumps({"N": 3_000_000, "runs": runs}))
        del runs
        code, out, err, peak = run_cli_peak(capsys, "hyper-hsd", str(path),
                                            "--delta", "1/100", "--s", "1")
        assert (code, err) == (0, "")
        assert out.startswith("cost,")
        assert peak < 19.5e6

    def test_a_set_text_is_read_in_pieces(self, capsys, tmp_path):
        # decoded whole, and the pairs then made tuples: a peak of 17.3 MB
        path = tmp_path / "short.json"
        runs = [[i, i + 9] for i in range(0, 2_800_000, 28)]  # 10**5 runs
        path.write_text(json.dumps({"N": 3_000_000, "runs": runs}))
        del runs
        code, out, err, peak = run_cli_peak(capsys, "hyper-hsd", str(path),
                                            "--delta", "1/100", "--s", "1")
        assert (code, out, err) == (0, "cost,0.333333333333\nintervals,100000\n", "")
        assert peak < 6e6

    @staticmethod
    def _set_file(tmp_path, case):
        """A set file of 30,000 runs, spoiled as ``case`` names, and its whole text's error."""
        text = json.dumps({"N": 10**6, "runs": [[i, i + 9] for i in range(0, 900_000, 30)]})
        path = tmp_path / "s.json"
        if case == "late_byte":
            data = text[:100_000].encode() + b"\xff" + text[100_000:].encode()
            assert "position 100000" in _decode_error(data)
            message = f"cannot read {path}: {_decode_error(data)}"
        else:
            data = (b"\xef\xbb\xbf" + text.encode()) if case == "bom" else text[:-2].encode()
            try:
                json.loads(data.decode())
            except json.JSONDecodeError as exc:
                message = f"malformed JSON in {path}: {exc}"
        path.write_bytes(data)
        return path, message

    @pytest.mark.parametrize("case", ["late_byte", "bom", "cut_short"])
    def test_a_set_file_fails_as_a_whole_read_does(self, capsys, tmp_path, case):
        path, message = self._set_file(tmp_path, case)
        argv = ["hyper-hsd", str(path), "--delta", "1/100", "--s", "1/2"]
        assert run_cli(capsys, *argv) == (2, "", f"error: {message}\n")
        with mock.patch.object(hypergrid, "_read_in_pieces", lambda text: None):
            assert run_cli(capsys, *argv) == (2, "", f"error: {message}\n")

    @pytest.mark.parametrize("case", ["late_byte", "bom", "cut_short", "bad_run"])
    def test_a_declined_set_file_is_read_at_most_twice(self, capsys, monkeypatch, tmp_path, case):
        # the pieces, the whole text, then the whole text again for the message: three reads
        if case == "bad_run":
            path = tmp_path / "s.json"
            path.write_text(json.dumps({"runs": [[5, 2]], "N": 10}))
            message = "bad run [5, 2]"
        else:
            path, message = self._set_file(tmp_path, case)
        opened = []
        monkeypatch.setattr(cli, "open", lambda *a, **k: opened.append(a[0]) or open(*a, **k),
                            raising=False)
        argv = ["hyper-hsd", str(path), "--delta", "1/100", "--s", "1/2"]
        assert run_cli(capsys, *argv) == (2, "", f"error: {message}\n")
        assert opened == [str(path)] * 2

    @pytest.mark.parametrize("after", [1, 2, 3])
    def test_a_cut_straddling_two_reads(self, capsys, tmp_path, after):
        # the first read ends after "]", "] " or "] ,": the cut is found across the reads
        text = '{"N": 1000, "runs": [' + " , ".join(f"[{k}, {k + 4}]" for k in range(0, 990, 9)) + "]}"
        path = tmp_path / "s.json"
        path.write_text(text)
        chunk = text.index("] ,", 500) + after
        argv = ["hyper-hsd", str(path), "--delta", "1/100", "--s", "1/2", "--oracle"]
        with open(path, encoding="utf-8") as fh:
            _, iset = hypergrid._read_in_pieces(iter(lambda: fh.read(chunk), ""))
        assert list(zip(iset.starts, iset.ends)) == [(k, k + 4) for k in range(0, 990, 9)]
        with mock.patch.object(hypergrid, "_read_in_pieces", lambda text: None):
            whole = run_cli(capsys, *argv)
        with mock.patch.object(hypergrid, "_CHUNK", chunk):
            assert run_cli(capsys, *argv) == whole
        assert whole[0] == 0

    def test_a_set_file_is_never_held_whole(self, capsys, tmp_path):
        # the whole 2 MB text was read before it was cut into pieces, and the greedy
        # solver listed every run length: a peak of 4.3 MB; the columns alone are 1.6 MB
        path = tmp_path / "short.json"
        runs = [[i, i + 9] for i in range(0, 2_800_000, 28)]  # 10**5 runs
        path.write_text(json.dumps({"N": 3_000_000, "runs": runs}))
        del runs
        code, out, err, peak = run_cli_peak(capsys, "hyper-hsd", str(path),
                                            "--delta", "1/100", "--s", "1")
        assert (code, out, err) == (0, "cost,0.333333333333\nintervals,100000\n", "")
        assert peak < 2.4e6

    def test_the_moran_solver_holds_no_tuple_per_map(self, capsys, tmp_path):
        # a 2-tuple per map and a float per map's count: a peak of 7.5 MB
        rng = random.Random(7)
        ratios = [round(rng.uniform(0.0005, 0.02), 8) for _ in range(30_000)]
        ratios[rng.randrange(len(ratios))] = 0.02
        path = tmp_path / "random.json"
        path.write_text(json.dumps({"ratios": ratios}))
        code, out, err, peak = run_cli_peak(capsys, "dim-ifs", str(path))
        assert (code, err) == (0, "")
        assert out == f"dimension,{selfsimilar.moran_solve(selfsimilar.IfsRatios(tuple(ratios))).s:.12f}\n"
        assert peak < 5.5e6

    def test_the_runs_of_a_decoded_set_are_emptied(self):
        obj = {"N": 100, "runs": [[0, 9], [20, 24], [30, 30]]}
        grid, iset = hypergrid.internal_set_from_json(obj)
        assert (iset.starts, iset.ends) == ((0, 20, 30), (9, 24, 30))
        assert obj["runs"] == []


SEQ_SPECS = st.sampled_from(
    [
        {"kind": "geometric", "first": 1, "ratio": 3, "horizon": 20},
        {"kind": "arithmetic", "first": 2, "step": 1, "horizon": 20, "digit_cap": 5},
        {"kind": "explicit", "terms": [1, 2, 4, 9, 30], "horizon": 4},
        {"kind": "squared_sum", "seed": 1, "horizon": 8},
        # each reaches the term budget within five terms under a huge cap
        {"kind": "double_exponential", "base": 300},
        {"kind": "power_tower", "base": 3},
    ]
)
SEQ_CHECKS = st.sampled_from(
    [
        ["--K", "1", "--window", "1", "4"],
        ["--K", "1/2", "--window", "0", "3"],
        ["--squared-sum", "4"],
        ["--tail-k", "3", "--eps", "1/10"],
    ]
)


@settings(FUZZ, max_examples=300)
@given(data=st.data(), base=SEQ_SPECS, check=SEQ_CHECKS, cap=st.sampled_from([None, 10**400]))
def test_seq_check_contract_on_mutated_json(capsys, tmp_path, data, base, check, cap):
    path = tmp_path / "seq.json"
    path.write_text(json.dumps(_mutated(data, base if cap is None else dict(base, digit_cap=cap))))
    assert_contract(*run_cli(capsys, "seq-check", str(path), *check))


@settings(FUZZ, max_examples=200)
@given(
    kind=st.sampled_from([("double_exponential", "base"), ("power_tower", "base"),
                          ("squared_sum", "seed"), ("arithmetic", "first", "step"),
                          ("geometric", "first", "ratio"), ("explicit", "terms")]),
    values=st.lists(st.integers(2, 300) | st.sampled_from([10**9, 10**30, 10**400]),
                    min_size=2, max_size=5),
    cap=st.sampled_from([10**6 + 1, 10**400]),
    check=SEQ_CHECKS,
)
def test_seq_check_contract_under_a_huge_digit_cap(capsys, tmp_path, kind, values, cap, check):
    # valid specs, so that each term is built up to the term budget, the
    # horizon or the end of an explicit list
    spec = {"kind": kind[0], "digit_cap": cap}
    if kind[0] == "explicit":
        spec["terms"] = sorted(values)
    else:
        spec.update(zip(kind[1:], values))
    path = tmp_path / "seq.json"
    path.write_text(json.dumps(spec))
    code, out, err = run_cli(capsys, "seq-check", str(path), *check)
    assert_contract(code, out, err)
    assert code in (0, 3)
