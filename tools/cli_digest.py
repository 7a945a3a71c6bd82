"""Two sha256 per benchmark operation: of its outcome on stdout and with ``--out FILE``.

    python3 tools/cli_digest.py [--src DIR] [--seeds 1-5]

Builds every workload's inputs with ``bench/workloads.build`` for every seed,
runs each operation twice as ``python -m fractaldim.cli ARGV`` in a fresh
interpreter with the package imported from ``--src`` (default: this
checkout's ``src``), once as it is and once with ``--out FILE`` appended, and
prints one line per operation:

    WORKLOAD SEED OP STDOUT_SHA256 OUT_SHA256

Then it runs a fixed set of ``critical-d`` and ``hyper-hsd`` inputs that take
the readers' error and line-splitting paths (a bad byte past the first 8 KiB,
a bad row before a bad byte, CRLF and U+2028 line breaks, a missing file),
internal sets that the ``hyper-hsd`` file reader leaves to the whole-document
decoder (a bool endpoint, an endpoint past 2**63, keys in reverse order, a
trailing comma, an empty ``runs``, a bad byte past the first 100,000, a UTF-8
BOM, a text that ends before its ``]}``), one set written with CRLF whitespace
and one whose ``] ,`` straddles the reader's first 32 KiB piece,
and ``fractal NAME --m-max 300`` for every geometry catalog name and alias,
so the ``koch`` perimeter's closed-form column, which differs from its
recurrence, is hashed too, and ``fractal cantor --m-max 3``, which exits 4,
and ``counts`` over 1,501 levels of a rule and of an interval, the two
sources the benchmark's ``counts --schedule`` runs do not reach, and
``critical-d`` over count CSVs whose second row's delta is not reduced, has
a sign, a zero, no slash, spaces or an underscore, or whose rows repeat a
level, raise a delta or hold a negative count, and ``counts --schedule``
on schedules whose block walk stops (past the explicit blocks, past
``m_cap``, at a term over the per-term budget, past 10**6 one-digit
blocks, and at both of its stopping points on one-digit blocks: horizon
499,999, where 2 * horizon + 2 blocks is the 10**6 budget and the
budget's error is raised, and horizon 499,998, where the horizon's is),
``dim-block`` on one whose digit cap cuts the report short, on
ratio-2 geometric blocks at ``--n-max`` 2000 and 30000 (past the printed
digits' budget), on an alphabet smaller than its base at ``--precision`` 1,
17 and 50, and on the benchmark's constant blocks (four digits per block
pair, ``--n-max`` 20000) for bases 2 to 5 at ``--precision`` 1, 12 and 50, and
each JSON reader (ratio spec in both shapes, block schedule, sequence
spec in a schedule and for ``seq-check``, internal set) on a value that is
not an object and on one with an unknown key, ``--tol nan|inf|0`` on
``dim-block``, ``dim-ifs`` and ``critical-d``, ``critical-d`` on deltas
whose float logarithms tie, on a delta of 1 and on two series with deltas
above 1, on the benchmark's carpet (8**m, 1/3**m) and sponge (20**m,
1/3**m) shapes at levels 1 to 600, on ``counts --interval 1/3 2/3 --levels 1
30`` read back (its first midpoint is bounded), on a series of mixed ratios
with a wide bounded band, and on the carpet with ``--d-max`` -1, 0, 1.5, 50
and 1e200 and with ``--tol`` 1e-17 and 0.3, on count and denominator
columns past the reader's 2,600 bits whose quotient alternates x2 and x3,
switches once from x20 to x8, is 2**70, or is kept but a middle digit of
one row differs, with one row equal to the row above, with deltas 2/6 and
-1/-8 scaled past 2,600 bits, and on a small series with a -1/-8 delta,
``hyper-hsd --oracle`` on one run of 10**6 points at D = 1 (past
the table's row charge), on one run of 6,000 points at D = 400 with s = 1/2,
1 and 0.99999999999999999 (a float 1.0) and on four runs of 10,000 points
at s = 7/10 (the table's pruned rows), ``two-grid --rule NAME
--levels 1 7`` for every catalog name and alias, with ``--precision 3``,
and over the prime level span 20,011, and ``tables-ch6`` at
``--n-max`` values from -2 to 10**19, past both of its budgets; these are
printed as ``inputs - OP ...``.  Last come the
argument parser's paths, as ``inputs - argv_NAME ...``: the top-level help
and each command's, no command and an unknown one, an unrecognized argument
after each command's required ones, a missing required option, a bad
integer and an abbreviated option, then ``--out=FILE``, a repeated
``--precision``, ``--oracle`` given twice, a negative ``--levels`` value,
a positional after an option, an Arabic-Indic digit as ``--n-max``, an
empty positional and a lone ``--``, so that argv read from the command
table and argv left to argparse are both hashed.  Every run has
``COLUMNS=80`` in its environment, so help and usage text wrap the same
on any terminal.

The first hash covers the exit status, stdout and stderr of the plain run.
The second covers the same of the ``--out`` run and the bytes of FILE, or a
marker when no FILE was made.  Two source trees print the same lines exactly
when every command gives the same outcome on both, on both output paths, so
``diff`` of two runs checks a change for byte identity.  The inputs come from
this checkout's ``bench/``, which is only imported, so both runs see the same
inputs.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "bench"))

import workloads  # noqa: E402


# each command's required arguments, so that a further argument is what the parser rejects
REQUIRED = {
    "dim-block": ["s.json", "--n-max", "3"],
    "dim-ifs": [],
    "tables-ch6": [],
    "counts": ["--levels", "1", "2"],
    "two-grid": [],
    "critical-d": ["c.csv"],
    "hyper-hsd": ["s.json", "--delta", "1", "--s", "1"],
    "fractal": ["koch", "--m-max", "3"],
    "seq-check": ["s.json"],
}


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def digest(src: Path, argv: list[str], cwd: Path) -> str:
    env = dict(os.environ, PYTHONPATH=str(src), COLUMNS="80")
    proc = subprocess.run(
        [sys.executable, "-m", "fractaldim.cli", *argv], cwd=cwd, env=env, capture_output=True
    )
    # lengths first, so no two outcomes hash the same bytes
    head = b"%d\0%d\0%d\0" % (proc.returncode, len(proc.stdout), len(proc.stderr))
    return hashlib.sha256(head + proc.stdout + proc.stderr).hexdigest()


def out_digest(src: Path, argv: list[str], cwd: Path) -> str:
    """The digest of the run with ``--out FILE`` and of FILE's bytes, or of a marker for none."""
    path = cwd / "cli_digest.out"
    path.unlink(missing_ok=True)
    run = digest(src, [*argv, "--out", path.name], cwd).encode()
    written = b"file\0" + path.read_bytes() if path.exists() else b"no file"
    path.unlink(missing_ok=True)
    return hashlib.sha256(run + b"\0" + written).hexdigest()


def input_ops(work: Path) -> list[tuple[str, list[str]]]:
    """Names and command lines of the fixed inputs; the reader inputs' files go into ``work``."""
    rows = [f"{m},1/{3**m},{8**m}" for m in range(1, 400)]
    csv = "\n".join(["m,delta,n_cells", *rows, ""]).encode()
    runs = [[i, i + 9] for i in range(0, 900_000, 30)]
    setspec = json.dumps({"N": 10**6, "runs": runs})
    # texts the hyper-hsd reader declines and decodes whole, and one with CRLF whitespace
    sets = {
        "set_bool.json": setspec.replace("[30, 39]", "[30, true]"),
        "set_past_int64.json": json.dumps({"N": 10**20, "runs": [*runs, [2**63, 2**63 + 5]]}),
        "set_reversed_keys.json": json.dumps({"runs": runs, "N": 10**6}),
        "set_trailing_comma.json": setspec.replace("]]}", "],]}"),
        "set_crlf.json": json.dumps({"N": 10**6, "runs": runs}, indent=1).replace("\n", "\r\n"),
        "set_empty_runs.json": json.dumps({"N": 10**6, "runs": []}),
    }
    # a text whose "] ," straddles the first 32 KiB read: "]" ends it
    spaced = json.dumps({"N": 10**6, "runs": runs}, separators=(" , ", ": "))
    sets["set_straddled_cut.json"] = " " * (32_767 - spaced.rfind("] ,", 0, 32_768)) + spaced
    sets["set_bom.json"] = "\ufeff" + setspec
    sets["set_cut_short.json"] = setspec[:-2]
    breaks = "".join(row + ("\r\n" if m % 2 else "\u2028") for m, row in enumerate(rows))
    files = {
        "late_byte.csv": csv[:20_000] + b"\xff" + csv[20_000:],
        "row_then_byte.csv": csv[:24] + b"2,x,4\n" + csv[24:] + b"\xff\n",
        "line_breaks.csv": ("m,delta,n_cells\r\n" + breaks).encode(),
        "late_byte.json": setspec[:20_000].encode() + b"\xff" + setspec[20_000:].encode(),
        "later_byte.json": setspec[:100_000].encode() + b"\xff" + setspec[100_000:].encode(),
        **{name: text.encode() for name, text in sets.items()},
    }
    # a second row's delta the count reader normalises, refuses or reads as int() does
    tail = "3,1/27,8\n4,1/81,16\n5,1/243,32\n"
    deltas = ("2/6", "1/-3", "0/5", "1/0", "1", " 1 / 3", "+1/3", "1/3_0", "-1/-8")
    for i, delta in enumerate(deltas):
        files[f"delta_{i}.csv"] = f"m,delta,n_cells\n1,1/2,2\n2,{delta},4\n{tail}".encode()
    files["negative_count.csv"] = f"m,delta,n_cells\n1,1/2,2\n2,1/9,-4\n{tail}".encode()
    # a repeated level, a rising delta and a negative count: the levels' error comes first
    files["repeated_level.csv"] = f"m,delta,n_cells\n1,1/2,2\n1,1,-4\n{tail}".encode()
    files["rising_delta.csv"] = f"m,delta,n_cells\n1,1/2,2\n2,1,-4\n{tail}".encode()
    # schedules whose block walk stops: past the explicit blocks, past m_cap, at a term
    # over the per-term budget, at a digit cap mid-report, past 10**6 one-digit blocks, and
    # where 2 * horizon + 2 one-digit blocks is the budget of 10**6 blocks and two below it
    ones = {"kind": "arithmetic", "first": 1, "step": 0}
    walks = {
        "walk_horizon.json": {"base": 3, "zeros": {"kind": "explicit", "terms": [1, 2, 3, 4]},
                              "frees": {"kind": "explicit", "terms": [1, 1]}},
        "walk_m_cap.json": {"base": 2, "zeros": {"kind": "arithmetic", "first": 1, "step": 1},
                            "m_cap": 50},
        "walk_term_budget.json": {"base": 2, "zeros": {"kind": "double_exponential",
                                                       "base": 10**6, "digit_cap": 10**400}},
        "walk_digit_cap.json": {"base": 2, "zeros": {"kind": "explicit", "terms": [1, 2, 3, 10**5],
                                                     "digit_cap": 3},
                                "frees": {"kind": "arithmetic", "first": 1, "step": 1}},
        "walk_long.json": {"base": 2, "zeros": {**ones, "horizon": 10**8}, "m_cap": "10^8"},
        "walk_budget_edge.json": {"base": 2, "zeros": {**ones, "horizon": 499_999},
                                  "frees": {**ones, "horizon": 499_999}, "m_cap": "10^7"},
        "walk_horizon_edge.json": {"base": 2, "zeros": {**ones, "horizon": 499_998},
                                   "frees": {**ones, "horizon": 499_998}, "m_cap": "10^7"},
    }
    # cut reports: geometric blocks, short and past the printed digits, and alphabet < base
    walks["geometric.json"] = {"base": 2, "zeros": {"kind": "geometric", "first": 1, "ratio": 2,
                                                    "horizon": 100_000}}
    walks["alphabet_below_base.json"] = {
        "base": 5, "alphabet": 3, "zeros": {"kind": "geometric", "first": 2, "ratio": 3},
        "frees": {"kind": "arithmetic", "first": 1, "step": 2}}
    # the benchmark's constant blocks, four digits per pair, one zero/free split per base
    splits = {base: (base - 2) % 3 + 1 for base in range(2, 6)}
    for base, zero_len in splits.items():
        walks[f"constant_{base}.json"] = {
            "base": base, "alphabet": base, "m_cap": "10^7",
            "zeros": {"kind": "arithmetic", "first": zero_len, "step": 0, "horizon": 30_000},
            "frees": {"kind": "arithmetic", "first": 4 - zero_len, "step": 0, "horizon": 30_000}}
    for name, schedule in walks.items():
        files[name] = json.dumps(schedule).encode()
    # each JSON reader's non-object and unknown-key refusals, and valid inputs for --tol
    readers = {
        "ratio_list.json": [0.5, 0.5],
        "ratio_extra.json": {"ratios": [0.5, 0.5], "scale": 2},
        "ratio_count_extra.json": {"ratio": 0.5, "count": 2, "scale": 2},
        "ratio_ok.json": {"ratios": [0.5, 0.25]},
        "schedule_list.json": [2],
        "schedule_extra.json": {"base": 2, "zeros": ones, "bogus": 1},
        "schedule_zeros_list.json": {"base": 2, "zeros": [1, 2]},
        "schedule_zeros_extra.json": {"base": 2, "zeros": {**ones, "bogus": 1}},
        "schedule_ok.json": {"base": 2, "zeros": ones, "frees": ones},
        "spec_list.json": [1, 2],
        "spec_extra.json": {**ones, "bogus": 1},
        "set_list.json": [[0, 1]],
        "set_extra.json": {"N": 10, "runs": [[0, 1]], "bogus": 1},
    }
    for name, obj in readers.items():
        files[name] = json.dumps(obj).encode()
    files["cantor.csv"] = f"m,delta,n_cells\n1,1/3,2\n2,1/9,4\n{tail}".encode()
    # two deltas that are distinct rationals but equal as float logarithms, and a delta of 1
    files["tied_deltas.csv"] = (b"m,delta,n_cells\n1,1/3,2\n2,1/100000000000000000000,4\n"
                                b"3,1/100000000000000000001,8\n")
    files["unit_delta.csv"] = b"m,delta,n_cells\n0,1/1,2\n1,1/2,2\n2,1/4,2\n"
    files["deltas_above_one.csv"] = b"m,delta,n_cells\n0,4/1,2\n1,2/1,2\n2,1/2,2\n"
    files["deltas_above_one_bracketed.csv"] = (b"m,delta,n_cells\n0,8/1,2\n1,4/1,4\n2,2/1,8\n"
                                               b"3,3/2,16\n")
    # the benchmark's critical-d shapes, an interval's counts and a wide bounded band
    for name, pieces in (("carpet", 8), ("sponge", 20)):
        shape = "".join(f"{m},1/{3**m},{pieces**m}\n" for m in range(1, 601))
        files[f"{name}_600.csv"] = f"m,delta,n_cells\n{shape}".encode()
    third = "".join(f"{m},1/{2**m},{(2**(m + 1)) // 3 - 2**m // 3 + 1}\n" for m in range(1, 31))
    files["interval_third.csv"] = f"m,delta,n_cells\n{third}".encode()
    # steps alternate delta / 2 with count * 3 and delta / 3 with count * 2: slopes 1.58 and 0.63
    mixed = ["m,delta,n_cells"]
    den, count = 1, 1
    for m in range(1, 201):
        den, count = (den * 2, count * 3) if m % 2 else (den * 3, count * 2)
        mixed.append(f"{m},1/{den},{count}")
    files["mixed_ratios.csv"] = "\n".join([*mixed, ""]).encode()
    # columns past the reader's 2,600 bits: denominators 2**2700 * 3**m, counts from 2**2700
    # times an alternating, switching, kept or 2**70 quotient
    big = 2**2700
    quotients = {"alternating": lambda m: 2 if m % 2 else 3, "switch": lambda m: 20 if m < 75 else 8,
                 "kept": lambda m: 8, "q2_70": lambda m: 2**70}
    for name, quotient in quotients.items():
        rows, count = ["m,delta,n_cells"], big
        for m in range(1, 151):
            count *= quotient(m)
            rows.append(f"{m},1/{big * 3**m},{count}")
        if name == "kept":
            rows[30] = f"{rows[30].rsplit(',', 1)[0]},{rows[29].rsplit(',', 1)[1]}"  # as above
            # row 60 keeps its last 18 digits and the quotient's, but one middle digit moves
            m, delta, n = rows[60].split(",")
            mid = len(n) // 2
            rows[60] = f"{m},{delta},{n[:mid]}{(int(n[mid]) + 1) % 10}{n[mid + 1:]}"
            m, _, n = rows[70].split(",")
            rows[70] = f"{m},2/{2 * big * 3**70},{n}"  # not reduced
            m, _, n = rows[71].split(",")
            rows[71] = f"{m},-1/-{big * 3**71},{n}"
        files[f"reader_{name}.csv"] = "\n".join([*rows, ""]).encode()
    files["dp_rows.json"] = json.dumps({"N": 10**6, "runs": [[0, 10**6 - 1]]}).encode()
    files["small_set.json"] = json.dumps({"N": 100, "runs": [[0, 100]]}).encode()
    files["dp_pruned_run.json"] = json.dumps({"N": 20_000, "runs": [[0, 5999]]}).encode()
    files["dp_pruned_runs.json"] = json.dumps(
        {"N": 20_000, "runs": [[17, 1517], [1700, 7861], [8200, 9399], [9800, 10936]]}).encode()
    for name, data in files.items():
        (work / name).write_bytes(data)
    csvs = ("late_byte.csv", "row_then_byte.csv", "line_breaks.csv", "missing.csv",
            *(f"delta_{i}.csv" for i in range(len(deltas))),
            "negative_count.csv", "repeated_level.csv", "rising_delta.csv")
    ops = [(name, ["critical-d", name]) for name in csvs]
    ops += [(name, ["hyper-hsd", name, "--delta", "1/100", "--s", "1/2"])
            for name in ("late_byte.json", "later_byte.json", "missing.json", *sets)]
    ops += [(f"fractal_{name}", ["fractal", name, "--m-max", "300"])
            for name in ("koch", "quadratic_koch", "sierpinski_gasket", "sierpinski_carpet",
                         "menger_sponge", "menger_standard", "carpet", "gasket", "menger")]
    ops += [("fractal_cantor", ["fractal", "cantor", "--m-max", "3"])]  # a rule with no geometry
    ops += [("counts_rule", ["counts", "--rule", "menger_sponge", "--levels", "0", "1500"]),
            ("counts_interval",
             ["counts", "--interval", "1/3", "2/3", "--base", "3", "--levels", "0", "1500"])]
    ops += [(f"counts_{name[:-5]}", ["counts", "--schedule", name, "--levels", *levels])
            for name, levels in (("walk_horizon.json", ("0", "20")),
                                 ("walk_m_cap.json", ("40", "60")),
                                 ("walk_term_budget.json", ("1999999", "2000001")),
                                 ("walk_long.json", ("20000000", "20000000")),
                                 ("walk_budget_edge.json", ("1000000", "1000001")),
                                 ("walk_horizon_edge.json", ("999998", "999999")))]
    ops += [("dim_block_walk_digit_cap", ["dim-block", "walk_digit_cap.json", "--n-max", "4"]),
            ("dim_block_geometric", ["dim-block", "geometric.json", "--n-max", "2000"]),
            ("dim_block_geometric_past_budget",
             ["dim-block", "geometric.json", "--n-max", "30000"]),
            ("dim_block_alphabet_below_base",
             ["dim-block", "alphabet_below_base.json", "--n-max", "60", "--precision", "17"])]
    ops += [(f"dim_block_alphabet_below_base_{precision}",
             ["dim-block", "alphabet_below_base.json", "--n-max", "60", "--precision", precision])
            for precision in ("1", "50")]
    ops += [(f"dim_block_constant_{base}_{precision}",
             ["dim-block", f"constant_{base}.json", "--n-max", "20000", "--precision", precision])
            for base in splits for precision in ("1", "12", "50")]
    ops += [(f"reader_{name[:-5]}", argv) for name, argv in (
        ("ratio_list.json", ["dim-ifs", "ratio_list.json"]),
        ("ratio_extra.json", ["dim-ifs", "ratio_extra.json"]),
        ("ratio_count_extra.json", ["dim-ifs", "ratio_count_extra.json"]),
        *((name, ["dim-block", name, "--n-max", "3"])
          for name in ("schedule_list.json", "schedule_extra.json", "schedule_zeros_list.json",
                       "schedule_zeros_extra.json")),
        *((name, ["seq-check", name]) for name in ("spec_list.json", "spec_extra.json")),
        *((name, ["hyper-hsd", name, "--delta", "1/2", "--s", "1"])
          for name in ("set_list.json", "set_extra.json")))]
    for tol in ("nan", "inf", "0"):
        ops += [(f"tol_{tol}_dim_block", ["dim-block", "schedule_ok.json", "--n-max", "3",
                                          "--tol", tol]),
                (f"tol_{tol}_dim_ifs", ["dim-ifs", "ratio_ok.json", "--tol", tol]),
                (f"tol_{tol}_critical_d", ["critical-d", "cantor.csv", "--tol", tol])]
    ops += [("critical_d_tied_deltas", ["critical-d", "tied_deltas.csv"]),
            ("critical_d_tied_deltas_d_max", ["critical-d", "tied_deltas.csv", "--d-max", "5"]),
            ("critical_d_unit_delta", ["critical-d", "unit_delta.csv"]),
            ("critical_d_deltas_above_one", ["critical-d", "deltas_above_one.csv"]),
            ("critical_d_deltas_above_one_bracketed",
             ["critical-d", "deltas_above_one_bracketed.csv"]),
            *((f"critical_d_{name[:-4]}", ["critical-d", name])
              for name in ("carpet_600.csv", "sponge_600.csv", "interval_third.csv",
                           "mixed_ratios.csv", *(f"reader_{name}.csv" for name in quotients))),
            ("critical_d_carpet_600_tol_1e-9", ["critical-d", "carpet_600.csv", "--tol", "1e-9"]),
            *((f"critical_d_carpet_600_{option[2:]}_{value}",
               ["critical-d", "carpet_600.csv", option, value])
              for option, values in (("--d-max", ("-1", "0", "1.5", "50", "1e200")),
                                     ("--tol", ("1e-17", "0.3")))
              for value in values),
            ("hyper_hsd_oracle_rows", ["hyper-hsd", "dp_rows.json", "--delta", "1/1000000",
                                       "--s", "1/2", "--oracle"]),
            *((f"hyper_hsd_oracle_pruned_{name}", ["hyper-hsd", "dp_pruned_run.json", "--delta",
                                                   "1/50", "--s", s, "--oracle"])
              for name, s in (("half", "1/2"), ("one", "1"), ("float_one", "0.99999999999999999"))),
            ("hyper_hsd_oracle_pruned_runs", ["hyper-hsd", "dp_pruned_runs.json", "--delta", "1/50",
                                              "--s", "7/10", "--oracle"])]
    names = ("cantor", "cantor5", "koch", "quadratic_koch", "sierpinski_gasket",
             "sierpinski_carpet", "menger_sponge", "menger_standard", "hyperpyramid",
             "carpet", "gasket", "menger")
    ops += [(f"two_grid_{name}", ["two-grid", "--rule", name, "--levels", "1", "7"])
            for name in names]
    ops += [("two_grid_precision", ["two-grid", "--rule", "cantor", "--levels", "2", "5",
                                    "--precision", "3"]),
            ("two_grid_prime_span", ["two-grid", "--rule", "cantor", "--levels", "1", "20012"])]
    ops += [(f"tables_ch6_{n}", ["tables-ch6", "--n-max", str(n)])
            for n in (-2, -1, 1, 2, 3, 1000, 20_000, 500_000, 10**19)]
    ops += [("argv_help", ["--help"]), ("argv_none", []), ("argv_unknown", ["nope"])]
    for command, required in REQUIRED.items():
        ops += [(f"argv_{command}_help", [command, "--help"]),
                (f"argv_{command}_extra", [command, *required, "--bogus"])]
    ops += [("argv_short_levels", ["counts", "--levels", "1"]),
            ("argv_missing_m_max", ["fractal", "koch"]),
            ("argv_bad_int", ["tables-ch6", "--n-max", "x"]),
            ("argv_abbreviated", ["dim-block", "X", "--n-m", "5"])]
    # spellings argparse takes and the table parse declines, and ones both take
    ops += [("argv_out_equals", ["tables-ch6", "--n-max", "3", "--out=tables.csv"]),
            ("argv_repeated_precision",
             ["tables-ch6", "--n-max", "3", "--precision", "3", "--precision", "5"]),
            ("argv_oracle_twice", ["hyper-hsd", "small_set.json", "--delta", "1/10", "--s", "1",
                                   "--oracle", "--oracle"]),
            ("argv_negative_level", ["counts", "--rule", "cantor", "--levels", "-1", "3"]),
            ("argv_positional_after_option", ["dim-ifs", "--tol", "1e-9", "ratio_ok.json"]),
            ("argv_arabic_indic_digit", ["tables-ch6", "--n-max", "\u0663"]),
            ("argv_empty_positional", ["critical-d", ""]),
            ("argv_lone_double_dash", ["dim-ifs", "--rule", "cantor", "--"])]
    return ops


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", type=Path, default=ROOT / "src", help="directory holding fractaldim")
    parser.add_argument("--seeds", default="1-5", help="one seed N or a range LO-HI")
    args = parser.parse_args(argv)
    src = args.src.resolve()
    for name in workloads.WORKLOADS:
        for seed in _seeds(args.seeds):
            with tempfile.TemporaryDirectory() as tmp:
                work = Path(tmp)
                for op in workloads.build(name, seed, work):
                    print(name, seed, op.name, digest(src, op.argv, work),
                          out_digest(src, op.argv, work), flush=True)
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        for name, op_argv in input_ops(work):
            print("inputs", "-", name, digest(src, op_argv, work),
                  out_digest(src, op_argv, work), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
