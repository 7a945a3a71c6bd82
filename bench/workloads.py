"""The three workloads: seeded CLI inputs and independent checks of their outputs.

Each workload is a fixed list of :class:`Op`, one ``fractaldim`` command
each, sized to take a few hundred milliseconds.  The seed picks the contents
of the inputs (run positions, random ratios, random big integers, level
offsets) but not their sizes, so every seed asks for about the same work.

Every check recomputes the answer here, from the block lengths, counts and
ratios this module wrote, or tests a property the method must have.  Nothing
is compared with a saved copy of an earlier output, and nothing here imports
fractaldim.
"""

from __future__ import annotations

import json
import math
import random
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable


@dataclass(frozen=True)
class Outcome:
    rc: int
    stdout: bytes
    stderr: bytes


@dataclass(frozen=True)
class Op:
    """One CLI command; ``check`` returns None when its outcome is correct."""

    name: str
    argv: list[str]
    check: Callable[[Outcome], str | None]
    #: a fault of the program this op shows today; failing it is expected
    known_fault: str | None = None


# ---------------------------------------------------------------------------
# shared helpers


def _write_json(path: Path, obj) -> str:
    path.write_text(json.dumps(obj), encoding="utf-8")
    return path.name


def _lines(out: Outcome) -> list[str]:
    return out.stdout.decode("utf-8").split("\n")[:-1]


def _clean(out: Outcome) -> str | None:
    if out.rc != 0:
        return f"exit {out.rc}: {out.stderr.decode('utf-8', 'replace')[-300:]}"
    if out.stderr:
        return f"unexpected stderr: {out.stderr.decode('utf-8', 'replace')[:300]}"
    if not out.stdout.endswith(b"\n"):
        return "output does not end with a newline"
    return None


def _rejected(out: Outcome) -> str | None:
    """The documented outcome for bad input: exit 2, one error line, no stdout."""
    err = out.stderr.decode("utf-8", "replace").splitlines()
    if out.rc != 2:
        return f"exit {out.rc}, expected 2"
    if out.stdout:
        return "stdout not empty on rejected input"
    if len(err) != 1 or not err[0].startswith("error: "):
        return f"stderr is not one error line: {err[:3]}"
    return None


def _frac(text: str) -> Fraction:
    num, _, den = text.partition("/")
    return Fraction(int(num), int(den))


def _reduced(x: int, m: int) -> str:
    g = math.gcd(x, m)
    return f"{x // g}/{m // g}"


def _field(lines: list[str], key: str) -> list[str]:
    for ln in lines:
        parts = ln.split(",")
        if parts[0] == key:
            return parts[1:]
    raise KeyError(key)


# ---------------------------------------------------------------------------
# digit-block schedules: block lengths written here, X(m) from their prefix sums


def _block_lengths(spec: dict, count: int) -> list[int]:
    if spec["kind"] == "arithmetic":
        return [spec["first"] + spec["step"] * i for i in range(count)]
    if spec["kind"] == "geometric":
        return [spec["first"] * spec["ratio"] ** i for i in range(count)]
    raise ValueError(spec["kind"])


def _schedule(base: int, alphabet: int, zeros: dict, frees: dict | None) -> dict:
    return {
        "base": base,
        "alphabet": alphabet,
        "zeros": zeros,
        "frees": "same_as_zeros" if frees is None else frees,
        "m_cap": "10^7",
    }


def _blocks(schedule: dict, count: int) -> tuple[list[int], list[int]]:
    zeros = _block_lengths(schedule["zeros"], count)
    frees_spec = schedule["frees"]
    frees = zeros if frees_spec == "same_as_zeros" else _block_lengths(frees_spec, count)
    return zeros, frees


def _free_counts(schedule: dict, m_max: int) -> list[int]:
    """X(m) for m = 0..m_max: free digits among the first m."""
    count = 1
    while True:
        zeros, frees = _blocks(schedule, count)
        if sum(zeros) + sum(frees) >= m_max:
            break
        count *= 2
    # block i holds zeros at positions starts[i]+1 .. starts[i]+z_i, then its
    # free digits up to ends[i]; free_before[i] counts the free digits before it
    starts, ends, free_before, pos, free = [], [], [], 0, 0
    for z, f in zip(zeros, frees):
        starts.append(pos)
        free_before.append(free)
        pos += z + f
        free += f
        ends.append(pos)
    out = []
    for m in range(m_max + 1):
        i = bisect_left(ends, m)
        out.append(free_before[i] + max(0, m - starts[i] - zeros[i]))
    return out


def _check_counts(schedule: dict, lo: int, hi: int) -> Callable[[Outcome], str | None]:
    def check(out: Outcome) -> str | None:
        bad = _clean(out)
        if bad:
            return bad
        lines = _lines(out)
        if lines[0] != "m,delta,n_cells" or len(lines) != hi - lo + 2:
            return "wrong header or row count"
        xs = _free_counts(schedule, hi)
        beta, sigma = schedule["base"], schedule["alphabet"]
        for m, line in zip(range(lo, hi + 1), lines[1:]):
            if line != f"{m},1/{beta**m},{sigma ** xs[m]}":
                return f"row for level {m} differs from 1/beta^m, sigma^X(m)"
        return None

    return check


def _cuts(zeros: list[int], frees: list[int], n_max: int) -> list[tuple[str, int, int, int]]:
    """(kind, n, m, X) at the end of each zero block and each free block."""
    out, z_sum, f_sum = [], 0, 0
    for n in range(n_max + 1):
        z_sum += zeros[n]
        out.append(("after_zeros", n, z_sum + f_sum, f_sum))
        f_sum += frees[n]
        out.append(("after_frees", n, z_sum + f_sum, f_sum))
    return out


def _check_dim_block(schedule: dict, n_max: int, precision: int) -> Callable:
    def check(out: Outcome) -> str | None:
        bad = _clean(out)
        if bad:
            return bad
        lines = _lines(out)
        zeros, frees = _blocks(schedule, n_max + 1)
        cuts = sorted(_cuts(zeros, frees, n_max), key=lambda c: c[2])
        want = ["kind,n,m,x_count,local_dim,local_dim_decimal"]
        want += [f"{k},{n},{m},{x},{_reduced(x, m)},{x / m:.{precision}f}" for k, n, m, x in cuts]
        if lines[: len(want)] != want:
            return "cut rows differ from the prefix sums of the block lengths"
        lower = [c for c in cuts if c[0] == "after_zeros"]
        upper = [c for c in cuts if c[0] == "after_frees"]
        lo, hi = lower[-1], upper[-1]
        spread = max(
            abs(lo[3] / lo[2] - lower[-2][3] / lower[-2][2]),
            abs(hi[3] / hi[2] - upper[-2][3] / upper[-2][2]),
        )
        tail = [
            "summary,value,decimal",
            f"lower,{_reduced(lo[3], lo[2])},{lo[3] / lo[2]:.{precision}f}",
            f"upper,{_reduced(hi[3], hi[2])},{hi[3] / hi[2]:.{precision}f}",
            f"hausdorff_dim,{_reduced(lo[3], lo[2])},{lo[3] / lo[2]:.{precision}f}",
            f"converged,{str(spread < 1e-6).lower()},{spread:.{precision}f}",
        ]
        if lines[len(want):] != tail:
            return "summary rows differ from the last cuts"
        return None

    return check


def _check_tables(n_max: int, precision: int) -> Callable:
    def check(out: Outcome) -> str | None:
        bad = _clean(out)
        if bad:
            return bad
        lines = _lines(out)
        if lines[0] != "family,param,sigma,dim,dim_estimate,dim_estimate_decimal,hs":
            return "wrong header"
        rows = [("geometric", n) for n in (1, 2, 3, 4, 5)]
        rows += [("arithmetic", d) for d in (0, 1, 2, 3, 4)]
        want = []
        for family, param in rows:
            if family == "geometric":
                spec = {"kind": "geometric", "first": 1, "ratio": param}
                limit = (1, param + 1)
            else:
                spec = {"kind": "arithmetic", "first": 1, "step": param}
                limit = (1, 2)
            blocks = _block_lengths(spec, n_max + 1)
            _, _, m, x = _cuts(blocks, blocks, n_max)[-2]  # last after-zeros cut
            for sigma in (2, 3, 4, 5):
                want.append((f"{family},{param},{sigma},{limit[0]}/{limit[1]},{_reduced(x, m)},"
                             f"{x / m:.{precision}f}", sigma ** -(limit[0] / limit[1])))
        if len(lines) != len(want) + 1:
            return "wrong row count"
        for line, (head, hs) in zip(lines[1:], want):
            prefix, _, hs_text = line.rpartition(",")
            if prefix != head:
                return f"row {head.split(',')[:3]} differs from X/m at the last cut"
            if not math.isclose(float(hs_text), hs, rel_tol=1e-12, abs_tol=10.0**-precision):
                return f"hs of {head.split(',')[:3]} is not sigma**-dim"
        return None

    return check


# ---------------------------------------------------------------------------
# two-grid and geometry series


def _check_two_grid(n_h: int, n_k: int, h: Fraction, k: Fraction, precision: int) -> Callable:
    def ln(f: Fraction) -> float:
        return math.log(f.numerator) - math.log(f.denominator)

    expected = (math.log(n_h) - math.log(n_k)) / (ln(k) - ln(h))

    def check(out: Outcome) -> str | None:
        bad = _clean(out)
        if bad:
            return bad
        got = json.loads(out.stdout)
        if (got["n_h"], got["n_k"]) != (n_h, n_k) or (_frac(got["h"]), _frac(got["k"])) != (h, k):
            return "inputs not echoed exactly"
        if abs(got["d"] - expected) > 10.0**-precision + 1e-13 * abs(expected):
            return f"d={got['d']} but (ln n_h - ln n_k)/(ln k - ln h) = {expected!r}"
        return None

    return check


#: closed forms that reduce to one power: (fractal, quantity) -> value at m
_POWER_FORMS = {
    ("sierpinski_carpet", "area"): lambda m: f"{8**m}/{9**m}",
    ("sierpinski_gasket", "area"): lambda m: f"{3**m}/{4**m}",
    ("menger_standard", "volume"): lambda m: f"{20**m}/{27**m}",
    ("quadratic_koch", "perimeter"): lambda m: f"{4 * 2**m}/1",
}


def _check_fractal(name: str, m_max: int) -> Callable:
    def check(out: Outcome) -> str | None:
        bad = _clean(out)
        if bad:
            return bad
        lines = _lines(out)
        if lines[0] != "quantity,unit,m,recurrence,closed_form,deviation":
            return "wrong header"
        worst: dict[str, Fraction] = {}
        reported = set()
        checked = 0
        for line in lines[1:]:
            parts = line.split(",")
            if parts[0] == "check":
                quantity, flag, dev = parts[1], parts[2], _frac(parts[3])
                if dev != worst.get(quantity) or (flag == "consistent") != (dev == 0):
                    return f"check row for {quantity} disagrees with the deviation column"
                reported.add(quantity)
                continue
            quantity, m = parts[0], int(parts[2])
            rec, clo, dev = _frac(parts[3]), _frac(parts[4]), _frac(parts[5])
            if dev != abs(rec - clo):
                return f"{quantity} deviation at m={m} is not |recurrence - closed form|"
            worst[quantity] = max(worst.get(quantity, dev), dev)
            form = _POWER_FORMS.get((name, quantity))
            if form is not None:
                if parts[4] != form(m):
                    return f"{name} {quantity} closed form at m={m} is not the simple power"
                checked += 1
        if checked != m_max + 1:
            return f"expected {m_max + 1} closed-form rows, checked {checked}"
        if reported != set(worst):
            return "not every quantity has one check row"
        return None

    return check


# ---------------------------------------------------------------------------
# grid partitions, Moran roots, critical exponents


def _check_hsd(runs: list[list[int]], N: int, D: int, s: Fraction, oracle: bool,
               precision: int) -> Callable:
    card = sum(j - i + 1 for i, j in runs)
    pieces = sum(-(-(j - i + 1) // D) for i, j in runs)
    if s == 1:
        cost = card / N
    else:
        sf = float(s)
        terms = []
        for i, j in runs:
            q, r = divmod(j - i + 1, D)
            terms.append(q * (D / N) ** sf)
            if r:
                terms.append((r / N) ** sf)
        cost = math.fsum(terms)

    def check(out: Outcome) -> str | None:
        bad = _clean(out)
        if bad:
            return bad
        lines = _lines(out)
        got = float(_field(lines, "cost")[0])
        if not math.isclose(got, cost, rel_tol=1e-12, abs_tol=10.0**-precision):
            return f"cost {got!r}, expected {cost!r}"
        if int(_field(lines, "intervals")[0]) != pieces:
            return f"intervals {_field(lines, 'intervals')[0]}, expected {pieces}"
        if oracle:
            got = float(_field(lines, "oracle_cost")[0])
            if not math.isclose(got, cost, rel_tol=1e-12, abs_tol=10.0**-precision):
                return f"oracle cost {got!r}, expected {cost!r}"
            if _field(lines, "oracle_match") != ["true"]:
                return "oracle does not match the greedy partition"
        return None

    return check


def _check_moran_equal(ratio: float, count: int) -> Callable:
    expected = math.log(count) / math.log(1 / ratio)

    def check(out: Outcome) -> str | None:
        bad = _clean(out)
        if bad:
            return bad
        got = float(_field(_lines(out), "dimension")[0])
        if abs(got - expected) > 1e-9:
            return f"dimension {got!r}, expected ln n / ln(1/c) = {expected!r}"
        return None

    return check


def _check_moran_sum(ratios: list[float]) -> Callable:
    def check(out: Outcome) -> str | None:
        bad = _clean(out)
        if bad:
            return bad
        s = float(_field(_lines(out), "dimension")[0])
        total = math.fsum(c**s for c in ratios)
        if abs(total - 1) > 1e-9:
            return f"sum of c_i**s is {total!r} at s={s!r}"
        return None

    return check


def _check_critical(pieces: int, scale: int, tol: float) -> Callable:
    expected = math.log(pieces) / math.log(scale)

    def check(out: Outcome) -> str | None:
        bad = _clean(out)
        if bad:
            return bad
        lines = _lines(out)
        if any(ln.startswith("degenerate") for ln in lines):
            return "strictly growing counts reported degenerate"
        got = float(_field(lines, "critical_d")[0])
        if abs(got - expected) > tol + 1e-11:
            return f"critical_d {got!r}, expected ln p / ln r = {expected!r}"
        return None

    return check


def _check_nan_tol(out: Outcome) -> str | None:
    if out.rc == 2:
        return _rejected(out)
    bad = _clean(out)
    if bad:
        return bad
    got = float(_field(_lines(out), "dimension")[0])
    if abs(got - 1.0) > 1e-9:
        return f"dimension {got!r} for ratios [0.5, 0.5]; the answer is 1"
    return None


# ---------------------------------------------------------------------------
# workloads


def block_walk(rng: random.Random, work: Path) -> list[Op]:
    """Many short blocks: the walk from index 0 per level dominates."""
    ops = []
    const = _schedule(2, 2, {"kind": "arithmetic", "first": 1, "step": 0, "horizon": 10_000}, None)
    lo = rng.randint(1, 40)
    argv = ["counts", "--schedule", _write_json(work / "const.json", const), "--levels", str(lo), "1000"]
    ops.append(Op("counts_const", argv, _check_counts(const, lo, 1000)))

    step = _schedule(3, 2, {"kind": "arithmetic", "first": rng.randint(1, 2), "step": 1,
                            "horizon": 10_000}, None)
    lo = rng.randint(1, 40)
    argv = ["counts", "--schedule", _write_json(work / "step.json", step), "--levels", str(lo), "3000"]
    ops.append(Op("counts_step", argv, _check_counts(step, lo, 3000)))

    base, zero_len = rng.randint(2, 5), rng.randint(1, 3)
    # four digits per block whatever the split, so every seed prints the same cuts
    blocks = {"kind": "arithmetic", "first": zero_len, "step": 0, "horizon": 30_000}
    frees = {"kind": "arithmetic", "first": 4 - zero_len, "step": 0, "horizon": 30_000}
    sched = _schedule(base, base, blocks, frees)
    argv = ["dim-block", _write_json(work / "dimblock.json", sched), "--n-max", "20000"]
    ops.append(Op("dim_block", argv, _check_dim_block(sched, 20000, 12)))

    precision = rng.randint(8, 14)
    argv = ["tables-ch6", "--n-max", "1000", "--precision", str(precision)]
    ops.append(Op("tables_ch6", argv, _check_tables(1000, precision)))
    return ops


def bigint_exact(rng: random.Random, work: Path) -> list[Op]:
    """A few long blocks and very large exact numbers: powers, Fractions, printing."""
    ops = []
    geo = _schedule(10, 7, {"kind": "geometric", "first": rng.randint(1, 2), "ratio": 2,
                            "horizon": 64},
                    {"kind": "geometric", "first": rng.randint(1, 2), "ratio": 2, "horizon": 64})
    lo = rng.randint(1, 40)
    argv = ["counts", "--schedule", _write_json(work / "geo.json", geo), "--levels", str(lo), "3000"]
    ops.append(Op("counts_geometric", argv, _check_counts(geo, lo, 3000)))

    for label, bits_h, bits_k in (("two_grid_a", 3000, 2400), ("two_grid_b", 2800, 2000)):
        n_h = rng.getrandbits(bits_h) | (1 << (bits_h - 1)) | 1
        n_k = rng.getrandbits(bits_k) | (1 << (bits_k - 1)) | 1
        a = rng.randint(12, 30)
        b = rng.randint(2, a - 2)
        h, k = Fraction(1, 2**a), Fraction(1, 2**b)
        argv = ["two-grid", "--n-h", str(n_h), "--n-k", str(n_k), "--h", f"1/{2**a}", "--k", f"1/{2**b}"]
        ops.append(Op(label, argv, _check_two_grid(n_h, n_k, h, k, 12)))

    for name, m_max in (("sierpinski_carpet", 200), ("sierpinski_gasket", 200),
                        ("quadratic_koch", 300), ("menger_standard", 1500)):
        ops.append(Op(f"fractal_{name}", ["fractal", name, "--m-max", str(m_max)],
                      _check_fractal(name, m_max)))
    return ops


def partition_bisect(rng: random.Random, work: Path) -> list[Op]:
    """Float solvers: interval partitions, the DP oracle and bisection loops."""
    ops = []
    N = 10**6
    runs = [[rng.randint(0, 100), N - rng.randint(0, 100)]]
    s = Fraction(rng.randint(1, 9), 10)
    argv = ["hyper-hsd", _write_json(work / "long.json", {"N": N, "runs": runs}),
            "--delta", f"1/{N}", "--s", f"{s.numerator}/{s.denominator}"]
    ops.append(Op("hsd_long_run", argv, _check_hsd(runs, N, 1, s, False, 12)))

    N = 10**7
    runs, pos = [], 0
    for _ in range(100_000):
        pos += rng.randint(2, 150)
        length = rng.randint(1, 40)
        runs.append([pos, pos + length - 1])
        pos += length
    argv = ["hyper-hsd", _write_json(work / "short.json", {"N": N, "runs": runs}),
            "--delta", f"7/{N}", "--s", "1"]
    ops.append(Op("hsd_short_runs", argv, _check_hsd(runs, N, 7, Fraction(1), False, 12)))

    N, D, total = 20_000, 400, 10_000
    cuts = sorted(rng.sample(range(1, total), 3))
    lengths = [b - a for a, b in zip([0] + cuts, cuts + [total])]
    runs, pos = [], rng.randint(0, 50)
    for length in lengths:
        runs.append([pos, pos + length - 1])
        pos += length + rng.randint(1, 500)
    s = Fraction(rng.randint(1, 9), 10)
    argv = ["hyper-hsd", _write_json(work / "oracle.json", {"N": N, "runs": runs}),
            "--delta", f"{D}/{N}", "--s", f"{s.numerator}/{s.denominator}", "--oracle"]
    ops.append(Op("hsd_oracle", argv, _check_hsd(runs, N, D, s, True, 12)))

    count = 150_000
    # with ln(count)/ln(1/c) in [2.3, 3.9] the bisection from that bracket to a
    # width of 1e-12 takes 42 steps for every seed
    ratio = round(math.exp(-math.log(count) / rng.uniform(2.3, 3.9)), 6)
    argv = ["dim-ifs", _write_json(work / "equal.json", {"ratio": ratio, "count": count})]
    ops.append(Op("moran_equal", argv, _check_moran_equal(ratio, count)))

    ratios = [round(rng.uniform(0.0005, 0.02), 8) for _ in range(30_000)]
    ratios[rng.randrange(len(ratios))] = 0.02
    argv = ["dim-ifs", _write_json(work / "random.json", {"ratios": ratios})]
    ops.append(Op("moran_random", argv, _check_moran_sum(ratios)))

    for name, pieces, scale, levels in (("sierpinski_carpet", 8, 3, 3000),
                                        ("menger_sponge", 20, 3, 3000)):
        lo = rng.randint(1, 50)
        rows = ["m,delta,n_cells"] + [f"{m},1/{scale**m},{pieces**m}" for m in range(lo, levels + 1)]
        path = work / f"{name}.csv"
        path.write_text("\n".join(rows) + "\n", encoding="utf-8")
        argv = ["critical-d", path.name, "--tol", "1e-9"]
        ops.append(Op(f"critical_{name}", argv, _check_critical(pieces, scale, 1e-9)))

    argv = ["dim-ifs", _write_json(work / "bad_ratio.json", {"ratios": ["abc"]})]
    ops.append(Op("ifs_bad_ratio", argv, _rejected,
                  known_fault="a non-numeric ratio gives a ValueError traceback and exit 1"))
    argv = ["dim-ifs", _write_json(work / "halves.json", {"ratios": [0.5, 0.5]}), "--tol", "nan"]
    ops.append(Op("ifs_nan_tol", argv, _check_nan_tol,
                  known_fault="--tol nan skips the bisection and prints 0.500000000500"))
    return ops


WORKLOADS = {
    "block_walk": block_walk,
    "bigint_exact": bigint_exact,
    "partition_bisect": partition_bisect,
}


def build(name: str, seed: int, work: Path) -> list[Op]:
    """The workload's operations, with their inputs written into ``work``."""
    return WORKLOADS[name](random.Random(f"{name}:{seed}"), work)
