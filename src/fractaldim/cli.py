"""Command-line front end: JSON specs in, deterministic CSV/tables out.

Exit codes: 0 success, 2 rejected input, 3 horizon or budget exceeded,
4 unknown catalog identifier.  Output formatting is locale-free with fixed
precision and "\\n" newlines, so identical inputs give byte-identical
output.  A command does all of its computation and checks before it returns
its lines, which ``main`` writes in batches: a failing command writes nothing.
A well-formed argv is parsed from the command table; argparse is imported and
built only for help, usage, errors and the spellings the table parse declines.
"""

from __future__ import annotations

import gc
import json
import math
import sys
from fractions import Fraction
from itertools import chain, islice
from types import SimpleNamespace
from typing import Callable, Iterable

from . import blockset, boxdim, hypergrid, selfsimilar, seqgen
from ._digits import _digits_exceed, _power_digits_exceed, _power_exceeds, fraction_column
from .errors import (BudgetExceededError, FractalDimError, HorizonExceededError, InputError,
                     check_object)

# digits a printed integer may have; main raises the interpreter's limit to at least this
_PRINTED_DIGITS = 2_000_000
# cap on the levels one counts command lists
_LEVEL_BUDGET = 10**6
# characters a command's output is written in at a time
_BATCH_CHARS = 1 << 16

_GEOM_TABLE_RATIOS = (1, 2, 3, 4, 5)
_ARITH_TABLE_STEPS = (0, 1, 2, 3, 4)
_TABLE_SIGMAS = (2, 3, 4, 5)


def _fr(value) -> Fraction:
    text = str(value)
    # Fraction builds 10**exponent in time quadratic in it: a large exponent is refused first
    _, e, exponent = text.lower().rpartition("e")
    try:
        if e and abs(int(exponent)) > _PRINTED_DIGITS:
            raise InputError(f"the exponent of {value!r} is over {_PRINTED_DIGITS} in magnitude")
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise InputError(f"expected a number or p/q fraction, got {value!r}") from exc


def _ratio(value) -> float:
    """A ratio from a JSON number or numeric string; bools and non-finite values are refused."""
    if not isinstance(value, bool):
        try:
            x = float(value)
        except (TypeError, ValueError, OverflowError):
            pass
        else:
            if math.isfinite(x):
                return x
    raise InputError(f"ratio must be a finite number, got {value!r}")


def _fmt_fraction(f: Fraction) -> str:
    return f"{f.numerator}/{f.denominator}"


def _fmt(value, precision: int) -> str:
    return f"{float(value):.{precision}f}"


def _read(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc


def _load_json(path: str):
    try:
        return json.loads(_read(path))
    except (json.JSONDecodeError, RecursionError) as exc:  # RecursionError: nested too deeply
        raise InputError(f"malformed JSON in {path}: {exc}") from exc
    except ValueError as exc:  # an integer over the interpreter's int() digit limit
        raise InputError(f"cannot read a number in {path}: {exc}") from exc


def _read_file(path: str, read: Callable):
    """``read`` of the file at ``path`` opened as UTF-8 text, failing as a whole read would."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return read(fh)
    except (OSError, UnicodeDecodeError, InputError):
        # as a whole read fails: a bad byte's offset in the file, not a piece, before bad text
        _read(path)
        raise


def _read_set(path: str) -> tuple[hypergrid.HyperGrid, hypergrid.InternalSet]:
    """The set file at ``path`` read in pieces, or, where the reader declines it, once whole."""
    read = _read_file(path, lambda fh: hypergrid._read_in_pieces(
        iter(lambda: fh.read(hypergrid._CHUNK), "")))
    return read or hypergrid.internal_set_from_json(_load_json(path))


def _write_lines(fh, lines: Iterable[str]) -> None:
    """Write each of ``lines`` and a newline to ``fh``, about ``_BATCH_CHARS`` characters per write.

    A batch takes as many lines as filled that size in the one before, at most
    twice as many, so it takes no step per line and stays near the size.
    """
    lines, n = iter(lines), 1
    while batch := list(islice(lines, n)):
        batch.append("")
        text = "\n".join(batch)
        fh.write(text)
        n = min(2 * n, _BATCH_CHARS * n // len(text) + 1)


# ---------------------------------------------------------------------------
# commands


def cmd_dim_block(args) -> Iterable[str]:
    schedule = blockset.schedule_from_json(_load_json(args.schedule))
    if args.n_max > schedule.horizon:
        raise HorizonExceededError(
            f"n_max {args.n_max} exceeds schedule horizon {schedule.horizon}",
            index=schedule.horizon,
        )
    report = blockset.dim_bounds(schedule, args.n_max, tol=args.tol)
    rows = blockset.dim_report_csv(report, args.precision)
    # the header is drawn here, so rows past the digit budget are refused before --out is opened
    head = [next(rows)]
    summary = ["summary,value,decimal"]
    for label, value in (
        ("lower", report.lower),
        ("upper", report.upper),
        ("hausdorff_dim", report.lower),
    ):
        exact = _fmt_fraction(value) if isinstance(value, Fraction) else ""
        summary.append(f"{label},{exact},{_fmt(value, args.precision)}")
    summary.append(f"converged,{str(report.converged).lower()},{_fmt(report.spread, args.precision)}")
    return chain(head, rows, summary)


def cmd_dim_ifs(args) -> Iterable[str]:
    if args.rule:
        d = selfsimilar.dim_from_rule(selfsimilar.rule(args.rule))
        return [f"dimension,{_fmt(d, args.precision)}"]
    if not args.ratios:
        raise InputError("need a ratio JSON path or --rule NAME")
    root = selfsimilar.moran_solve(_parse_ratios(_load_json(args.ratios)), tol=args.tol)
    lines = [f"dimension,{_fmt(root.s, args.precision)}"]
    if root.degenerate:
        lines.append("degenerate,true")
    return lines


def _parse_ratios(obj) -> selfsimilar.IfsRatios:
    check_object(obj, "ratio spec")
    if "ratios" in obj:
        check_object(obj, "ratio spec", ("ratios",))
        values = obj["ratios"]
        if not isinstance(values, list):
            raise InputError("ratios must be a list")
        # finite JSON floats are read in builtin passes; any other value (an int
        # is never a valid ratio) takes _ratio's checks and messages
        if set(map(type, values)) <= {float} and all(map(math.isfinite, values)):
            return selfsimilar.IfsRatios(tuple(values))
        return selfsimilar.IfsRatios(tuple(_ratio(v) for v in values))
    if "ratio" in obj and "count" in obj:
        check_object(obj, "ratio spec", ("ratio", "count"))
        return selfsimilar.IfsRatios((_ratio(obj["ratio"]),), (obj["count"],))
    raise InputError('ratio spec needs "ratios" or {"ratio", "count"}')


def _table_estimate(family: str, param: int, n: int) -> Fraction:
    """``blockset.hausdorff_dim`` at pair n of blocks 1, r, r**2, .. or 1, 1 + d, 1 + 2d, ..,
    zeros and frees alike: S/(2S + t_n), S the sum of the first n lengths, t_n the next."""
    if family == "geometric":
        t = param**n
        s = (t - 1) // (param - 1) if param > 1 else n
    else:
        t, s = 1 + param * n, n + param * n * (n - 1) // 2
    return Fraction(s, 2 * s + t)


def cmd_tables_ch6(args) -> Iterable[str]:
    """Dimension and critical-coefficient tables for the two block families.

    The dim column is the family's limiting value (1/(n+1) for ratio-n
    blocks, 1/2 for arithmetic blocks) and hs is sigma**(-dim); the
    estimate columns show the exact cut value at the requested horizon
    converging toward the limit from below.  With alphabet == base the
    estimate does not depend on sigma, and it is computed in closed form.
    """
    n_max = args.n_max
    if n_max < 2:  # the refusals of the walk the estimate stands for, to pair n_max + 1
        raise InputError("horizon must be >= 0" if n_max < -1 else "dim_bounds needs n_max >= 2")
    blockset._check_block_count(2 * n_max + 2)
    lines = ["family,param,sigma,dim,dim_estimate,dim_estimate_decimal,hs"]
    rows = [("geometric", n) for n in _GEOM_TABLE_RATIOS]
    rows += [("arithmetic", d) for d in _ARITH_TABLE_STEPS]
    for family, param in rows:
        limit = Fraction(1, param + 1) if family == "geometric" else Fraction(1, 2)
        estimate = _table_estimate(family, param, n_max)
        exact, decimal = _fmt_fraction(estimate), _fmt(estimate, args.precision)
        for sigma in _TABLE_SIGMAS:
            hs = float(sigma) ** float(-limit)
            lines.append(
                f"{family},{param},{sigma},{_fmt_fraction(limit)},"
                f"{exact},{decimal},{_fmt(hs, args.precision)}"
            )
    return lines


def _counts_source(args) -> boxdim.CellSource:
    picked = [bool(args.rule), bool(args.schedule), bool(args.interval)]
    if sum(picked) != 1:
        raise InputError("pick exactly one of --rule, --schedule, --interval")
    if args.rule:
        return boxdim.RuleSource(selfsimilar.rule(args.rule))
    if args.schedule:
        return blockset.BlockCellSource(blockset.schedule_from_json(_load_json(args.schedule)))
    a, b = (_fr(x) for x in args.interval)
    return boxdim.IntervalSource(a, b, base=args.base)


def cmd_counts(args) -> Iterable[str]:
    source = _counts_source(args)
    lo, hi = args.levels
    if lo > hi:
        raise InputError("levels must be LO HI with LO <= HI")
    if hi - lo >= _LEVEL_BUDGET:
        raise BudgetExceededError(
            f"levels {lo}..{hi} are {hi - lo + 1} levels, over the budget of {_LEVEL_BUDGET}"
        )
    too_long = f"level {hi} has more than the {_PRINTED_DIGITS} digits a command may print"
    # rule and interval counts cannot fail, so a level surely too long is refused before counting
    top = max(source.base, source.rule.pieces) if args.rule else source.base
    if not args.schedule and lo >= 0 and _power_exceeds(top, hi, _PRINTED_DIGITS):
        raise BudgetExceededError(too_long)
    series = boxdim.count_series(source, range(lo, hi + 1))
    # these sources grow with the level: the last row's numbers are the longest
    if _digits_exceed(max(series.counts[-1], series.dens[-1]), _PRINTED_DIGITS):
        raise BudgetExceededError(too_long)
    return boxdim.count_series_to_csv(series)


def cmd_two_grid(args) -> Iterable[str]:
    if args.rule:
        if not args.levels:
            raise InputError("--rule needs --levels P Q")
        rule = selfsimilar.rule(args.rule)
        p, q = args.levels
        if not 0 <= p < q:
            raise InputError("levels must be P Q with P < Q")
        _check_printable_power(max(rule.pieces, rule.scale), q)
        result = boxdim.two_grid_dim(
            rule.pieces**q,
            rule.pieces**p,
            Fraction(1, rule.scale**q),
            Fraction(1, rule.scale**p),
        )
    else:
        if args.n_h is None or args.n_k is None or args.h is None or args.k is None:
            raise InputError("need --rule with --levels, or all of --n-h --n-k --h --k")
        result = boxdim.two_grid_dim(args.n_h, args.n_k, _fr(args.h), _fr(args.k))
    payload = {"h": _fmt_fraction(result.h), "k": _fmt_fraction(result.k), "n_h": result.n_h,
               "n_k": result.n_k, "d": round(result.d, args.precision)}
    return [json.dumps(payload, sort_keys=True)]


def _check_printable_power(base: int, q: int) -> None:
    limit = _PRINTED_DIGITS
    if _power_digits_exceed(base, q, limit):
        raise BudgetExceededError(f"{base}**{q} has more than the {limit} digits a command may print")


def cmd_critical_d(args) -> Iterable[str]:
    series = _read_file(args.counts, boxdim.count_series_from_csv)
    result = boxdim.critical_d(series, tol=args.tol, d_max=args.d_max)
    lines = [f"critical_d,{_fmt(result.d, args.precision)}"]
    lines.append(f"bracket,{_fmt(result.lo, args.precision)},{_fmt(result.hi, args.precision)}")
    if result.degenerate:
        lines.append("degenerate,true")
    return lines


def cmd_hyper_hsd(args) -> Iterable[str]:
    grid, iset = _read_set(args.setspec)
    delta = _fr(args.delta)
    s = _fr(args.s)
    part = hypergrid.h_delta_s_greedy(iset, delta, s, grid)
    lines = [f"cost,{_fmt(part.cost, args.precision)}"]
    lines.append(f"intervals,{part.count}")
    if args.oracle:
        oracle = hypergrid.h_delta_s_dp(iset, delta, s, grid)
        lines.append(f"oracle_cost,{_fmt(oracle.cost, args.precision)}")
        lines.append(f"oracle_match,{str(oracle.cost == part.cost).lower()}")
    return lines


def cmd_fractal(args) -> Iterable[str]:
    return _fractal_lines(selfsimilar.closed_form_check(args.name, args.m_max))


def _fractal_lines(reports: list[selfsimilar.ConsistencyReport]) -> Iterable[str]:
    yield "quantity,unit,m,recurrence,closed_form,deviation"
    for report in reports:
        # each column formatted from top to bottom, the rows zipped from the columns;
        # a closed form equal to its recurrence (deviation 0) prints the recurrence's text
        recs, closed, devs = zip(*report.rows)
        unequal = fraction_column([c for c, dev in zip(closed, devs) if dev])
        cells = zip(devs, fraction_column(recs), fraction_column(devs))
        for m, (dev, rec, dev_text) in enumerate(cells):
            closed_text = next(unequal) if dev else rec
            yield f"{report.quantity},{report.unit},{m},{rec},{closed_text},{dev_text}"
    for report in reports:
        flag = "consistent" if report.consistent else "inconsistent"
        yield f"check,{report.quantity},{flag},{_fmt_fraction(report.max_deviation)}"


def cmd_seq_check(args) -> Iterable[str]:
    spec = seqgen.spec_from_json(_load_json(args.spec))
    if args.squared_sum is not None:
        rows = seqgen.squared_sum_check(spec, args.squared_sum)
        return chain(["index,holds"], (f"{i},{str(ok).lower()}" for i, ok in rows))
    if args.tail_k is not None:
        ok = seqgen.tail_domination(spec, args.tail_k, _fr(args.eps))
        return [f"tail_domination,{str(ok).lower()}"]
    if args.K is None or args.window is None:
        raise InputError("need --K and --window (or --squared-sum / --tail-k)")
    lo, hi = args.window
    verdict = seqgen.dimzero_criterion(spec, _fr(args.K), lo, hi)
    margin = "" if verdict.margin is None else _fmt_fraction(verdict.margin)
    return [f"status,{verdict.status}", f"witness,{verdict.witness_index}", f"margin,{margin}"]


# ---------------------------------------------------------------------------
# parser


# name: (help, handler, {argument: add_argument keywords}); _parse_table reads the
# keywords used here as argparse does: type, default, required, action="store_true"
# with default=False, nargs=2 on an option and nargs="?" on the one positional
_COMMANDS = {
    "dim-block": ("cut-family dimensions of a digit-block set", cmd_dim_block, {
        "schedule": dict(help="block schedule JSON path"),
        "--n-max": dict(type=int, required=True),
        "--tol": dict(type=float, default=1e-6)}),
    "dim-ifs": ("Moran/rule self-similar dimension", cmd_dim_ifs, {
        "ratios": dict(nargs="?", help="contraction-ratio JSON path"),
        "--rule": dict(help="catalog rule name"),
        "--tol": dict(type=float, default=1e-12)}),
    "tables-ch6": ("block-family dimension tables", cmd_tables_ch6, {
        "--n-max": dict(type=int, default=14)}),
    "counts": ("cell-count series as CSV", cmd_counts, {
        "--rule": dict(help="catalog rule name"),
        "--schedule": dict(help="block schedule JSON path"),
        "--interval": dict(nargs=2, metavar=("A", "B"), help="interval endpoints"),
        "--base": dict(type=int, default=2, help="radix for --interval"),
        "--levels": dict(nargs=2, type=int, required=True, metavar=("LO", "HI"))}),
    "two-grid": ("two-scale count-ratio dimension", cmd_two_grid, {
        "--rule": dict(help="catalog rule name"),
        "--levels": dict(nargs=2, type=int, metavar=("P", "Q")),
        "--n-h": dict(type=int),
        "--n-k": dict(type=int),
        "--h": {},
        "--k": {}}),
    "critical-d": ("dot-count critical exponent", cmd_critical_d, {
        "counts": dict(help="count series CSV path"),
        "--tol": dict(type=float, default=1e-9),
        "--d-max": dict(type=float, default=None)}),
    "hyper-hsd": ("minimal delta-interval partition cost", cmd_hyper_hsd, {
        "setspec": dict(help="internal set JSON path"),
        "--delta": dict(required=True),
        "--s": dict(required=True),
        "--oracle": dict(action="store_true", default=False, help="cross-check greedy against the DP")}),
    "fractal": ("catalog geometry series and checks", cmd_fractal, {
        "name": {},
        "--m-max": dict(type=int, required=True)}),
    "seq-check": ("sequence growth criteria", cmd_seq_check, {
        "spec": dict(help="sequence spec JSON path"),
        "--K": {},
        "--window": dict(nargs=2, type=int, metavar=("LO", "HI")),
        "--squared-sum": dict(type=int, default=None, metavar="N"),
        "--tail-k": dict(type=int, default=None, metavar="K"),
        "--eps": dict(default="0")}),
}
# every command takes --out and --precision before its own arguments
_COMMON = {"--out": dict(help="write output to this path instead of stdout"),
           "--precision": dict(type=int, default=12, help="decimal digits")}
_COMMANDS = {name: (help_text, func, {**_COMMON, **arguments})
             for name, (help_text, func, arguments) in _COMMANDS.items()}


def _parse_table(argv: list[str]) -> SimpleNamespace | None:
    """argparse's namespace for a command and its arguments in any order: each at most once,
    spelled exactly, of its type and not beginning with "-" unless a flag, and every required
    one given; else None."""
    if not argv or argv[0] not in _COMMANDS:
        return None
    _, func, arguments = _COMMANDS[argv[0]]
    positional = next((name for name in arguments if name[0] != "-"), None)
    given, tokens = {}, iter(argv[1:])
    for token in tokens:
        name, values = (token, []) if token[:1] == "-" else (positional, [token])
        keywords = arguments.get(name)
        if keywords is None or name in given:
            return None
        if not values:  # an option, followed by its values
            n = 0 if keywords.get("action") == "store_true" else keywords.get("nargs", 1)
            values = list(islice(tokens, n))
            if len(values) < n or any(value[:1] == "-" for value in values):
                return None
        try:
            values = [keywords.get("type", str)(value) for value in values]
        except (TypeError, ValueError):
            return None
        given[name] = values if keywords.get("nargs") == 2 else values[0] if values else True
    namespace = SimpleNamespace(command=argv[0], func=func)
    for name, keywords in arguments.items():
        required = keywords.get("required") or name == positional and "nargs" not in keywords
        if required and name not in given:
            return None
        setattr(namespace, name.lstrip("-").replace("-", "_"), given.get(name, keywords.get("default")))
    return namespace


def _build_parser():
    """The argparse parser of every command, for the ``argv`` that ``_parse_table`` declines."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="fractaldim",
        description="Exact fractal-dimension toolkit: digit-block sets, "
        "box counting, Moran roots and grid measures.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, func, arguments) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        for flag, keywords in arguments.items():
            p.add_argument(flag, **keywords)
        p.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    # exact big naturals (power-tower digit positions) can exceed the
    # interpreter's default int-to-str conversion limit when printed
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(max(_PRINTED_DIGITS, sys.get_int_max_str_digits()))
    # a command builds no reference cycles worth collecting, so the cyclic
    # collector, which would walk every decoded JSON list, is paused and
    # then switched back on only if it was on
    collecting = gc.isenabled()
    gc.disable()
    try:
        argv = sys.argv[1:] if argv is None else argv
        args = _parse_table(argv) or _build_parser().parse_args(argv)
        if args.precision < 1 or args.precision > 50:
            print("error: --precision must be in [1, 50]", file=sys.stderr)
            return 2
        lines = args.func(args)
        if not args.out:
            _write_lines(sys.stdout, lines)
        else:
            try:
                with open(args.out, "w", encoding="utf-8", newline="") as fh:
                    _write_lines(fh, lines)
            except OSError as exc:
                raise InputError(f"cannot write {args.out}: {exc}") from exc
    except FractalDimError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    finally:
        if collecting:
            gc.enable()
    return 0


if __name__ == "__main__":
    sys.exit(main())
