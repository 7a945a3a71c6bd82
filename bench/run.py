"""Benchmark of the fractaldim command-line tool.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from its
``src`` directory.  The workload's inputs are generated from the seed into
``.bench_work/``.  Then, as a closed loop with one client, the workload's
operations run round-robin, one ``fractaldim`` command per fresh interpreter
(``bench/child.py``), in whole passes over the operation list until S seconds
have gone.  Every operation's output is checked against an independent
computation (``bench/workloads.py``).

With ``--trace 0`` the run reports the end-to-end metrics: ``pass_s``, the
time of one pass (each command's median in-process time, summed over the
list), ``peak_rss_mb``, the largest peak resident set of any command, and
``setup_s``, the median time a fresh interpreter takes to import
``fractaldim.cli``.  Both times are rescaled by a reference computation (see
REF_S).  With ``--trace 1`` untraced and traced passes alternate;
the traced ones record spans (``bench/tracer.py``) from which the per-layer
metrics are derived, each summed over a pass and reported as the median over
passes, and the ratio of the two kinds of pass gives the tracing overhead.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  A fuller record of the run goes to
``.bench_work/results/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".bench_work"
OP_TIMEOUT_S = 120
# Speed drifts by tens of percent over tens of seconds on a shared machine,
# so times are rescaled by a fixed reference computation that each child runs
# just before its command (child.reference).  REF_S is about what that
# reference takes on the 2-core machine the README's figures come from.
REF_S = 0.028

# spans of input readers count as parsing, whichever module they live in
PARSE = {
    "cli._load_json",
    "cli._parse_ratios",
    "seqgen.spec_from_json",
    "blockset.schedule_from_json",
    "boxdim.count_series_from_csv",
    "hypergrid.internal_set_from_json",
}
WALKS = {"blockset.x_count", "blockset.digit_role", "blockset.cover_count"}
GEOMETRY = {
    "selfsimilar.geometry_catalog",
    "selfsimilar.closed_form_check",
    "selfsimilar.GeometrySeries.values",
    "selfsimilar.GeometrySeries.closed_values",
}
PARTITIONS = {"hypergrid.h_delta_s_greedy", "hypergrid.h_delta_s_dp"}


def _layer_of(name: str) -> str:
    return "parse" if name in PARSE else name.split(".", 1)[0]


#: per-layer time metrics: the summed self time of the spans each selects
SELF_TIMES = {
    "seqgen.self_ms": lambda n: _layer_of(n) == "seqgen",
    "blockset.self_ms": lambda n: _layer_of(n) == "blockset",
    "boxdim.count_series_ms": lambda n: n == "boxdim.count_series",
    "boxdim.csv_ms": lambda n: n == "boxdim.count_series_to_csv",
    "boxdim.two_grid_ms": lambda n: n == "boxdim.two_grid_dim",
    "boxdim.critical_d_ms": lambda n: n in ("boxdim.critical_d", "boxdim.classify_d"),
    "selfsimilar.geometry_ms": lambda n: n in GEOMETRY,
    "selfsimilar.moran_ms": lambda n: n == "selfsimilar.moran_solve",
    "hypergrid.greedy_ms": lambda n: n == "hypergrid.h_delta_s_greedy",
    "hypergrid.dp_ms": lambda n: n == "hypergrid.h_delta_s_dp",
    "cli.parse_ms": lambda n: n in PARSE,
    "cli.self_ms": lambda n: _layer_of(n) == "cli",
}

#: per-layer count metrics: (span selector, what each selected span adds)
COUNTS = {
    "seqgen.terms_yielded": (lambda n: n == "seqgen._iter_terms", "work"),
    "blockset.walks": (lambda n: n in WALKS, "outermost"),
    "boxdim.classify_calls": (lambda n: n == "boxdim.classify_d", "one"),
    "selfsimilar.series_evals": (
        lambda n: n in ("selfsimilar.GeometrySeries.values", "selfsimilar.GeometrySeries.closed_values"),
        "one",
    ),
    "selfsimilar.moran_terms": (lambda n: n == "selfsimilar.moran_solve", "work"),
    "hypergrid.intervals_built": (lambda n: n in PARTITIONS, "work"),
}

UNITS = {"pass_s": "s", "peak_rss_mb": "MB", "setup_s": "s", "trace.overhead_pct": "%"}
UNITS.update({name: "ms" for name in SELF_TIMES})
UNITS.update({name: "count" for name in COUNTS})


def layer_metrics(spans: list[list]) -> dict[str, float]:
    """Per-layer metrics of one command from its spans.

    A span is [name, parent, start_ns, end_ns, busy_ns, work]; its self time
    is its busy time minus the busy time of the spans it directly contains.
    """
    child_busy = [0] * len(spans)
    for name, parent, _, _, busy, _ in spans:
        if parent >= 0:
            child_busy[parent] += busy
    out = {
        metric: sum((s[4] - child_busy[i]) / 1e6 for i, s in enumerate(spans) if selects(s[0]))
        for metric, selects in SELF_TIMES.items()
    }
    for metric, (selects, rule) in COUNTS.items():
        total = 0
        for name, parent, _, _, _, work in spans:
            if not selects(name):
                continue
            if rule == "work":
                total += work
            elif rule == "one" or parent < 0 or not selects(spans[parent][0]):
                total += 1
        out[metric] = total
    return out


class Runner:
    """Runs operations in fresh interpreters and checks what they print."""

    def __init__(self, ops: list[workloads.Op], work: Path):
        self.ops = ops
        self.work = work
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(BENCH)])
        self.verdicts: list[dict[str, str | None]] = [{} for _ in ops]
        self.untraced_digests: list[set[str]] = [set() for _ in ops]
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def child(self, argv: list[str], trace: bool) -> tuple[workloads.Outcome, dict]:
        report = self.work / "report.json"
        report.unlink(missing_ok=True)
        out_path, err_path = self.work / "stdout", self.work / "stderr"
        cmd = [sys.executable, str(BENCH / "child.py"), str(report), "1" if trace else "0", "--"]
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            proc = subprocess.Popen(cmd + argv, cwd=self.work, env=self.env, stdout=out, stderr=err)
            try:
                rc = proc.wait(timeout=OP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
                raise
        if not report.exists():
            raise RuntimeError(f"no report from {argv[:1]}: {err_path.read_text()[-500:]}")
        outcome = workloads.Outcome(rc, out_path.read_bytes(), err_path.read_bytes())
        return outcome, json.loads(report.read_text())

    def run(self, index: int, trace: bool) -> dict:
        op = self.ops[index]
        outcome, report = self.child(op.argv, trace)
        shown = hashlib.sha256(b"%d\0%s" % (outcome.rc, outcome.stdout)).hexdigest()
        # stderr enters the verdict but not the comparison with tracing on,
        # because a traceback lists the tracer's wrapper frames
        digest = hashlib.sha256(shown.encode() + outcome.stderr).hexdigest()
        verdicts = self.verdicts[index]
        if digest not in verdicts:
            verdicts[digest] = op.check(outcome)
        problem = verdicts[digest]
        if not trace:
            self.untraced_digests[index].add(shown)
        elif shown not in self.untraced_digests[index]:
            problem = problem or "stdout with tracing on differs from the untraced stdout"
            self.problems.append(f"{op.name}: stdout or exit status changed by tracing")
        self.attempted += 1
        if problem is not None:
            self.failed += 1
            if op.known_fault is None:
                self.problems.append(f"{op.name}: {problem}")
        return report

    def one_pass(self, trace: bool) -> list[dict]:
        return [self.run(i, trace) for i in range(len(self.ops))]


def _median(values):
    return statistics.median(values) if values else 0.0


def _pass_time(passes: list[list[dict]]) -> float:
    """Time of one pass: each command's median over the passes, summed.

    Each command's time is first rescaled from the speed its reference ran at
    to REF_S; the median per command resists a slow spell better than the
    median of whole passes does.
    """
    return sum(
        _median([REF_S * p[i]["op_s"] / p[i]["ref_s"] for p in passes])
        for i in range(len(passes[0]))
    )


def measure(runner: Runner, seconds: float, trace: bool) -> tuple[dict, dict]:
    untraced: list[list[dict]] = []
    traced: list[list[dict]] = []
    start = time.perf_counter()
    rounds = 0
    while True:
        if not trace:
            untraced.append(runner.one_pass(False))
        elif rounds % 2 == 0:
            untraced.append(runner.one_pass(False))
            traced.append(runner.one_pass(True))
        else:
            traced.append(runner.one_pass(True))
            untraced.append(runner.one_pass(False))
        rounds += 1
        if time.perf_counter() - start >= seconds:
            break

    detail = {
        "passes": len(untraced),
        "op_wall_s": {
            op.name: _median([p[i]["op_s"] for p in untraced]) for i, op in enumerate(runner.ops)
        },
        "op_rss_mb": {
            op.name: max(p[i]["maxrss_kb"] for p in untraced) / 1024
            for i, op in enumerate(runner.ops)
        },
        "problems": runner.problems[:20],
        # per untraced pass, per command: [command s, reference s, import s]
        "raw": [[[r["op_s"], r["ref_s"], r["import_s"]] for r in p] for p in untraced],
    }
    pass_s = _pass_time(untraced)
    if not trace:
        metrics = {
            "pass_s": pass_s,
            "peak_rss_mb": max(r["maxrss_kb"] for p in untraced for r in p) / 1024,
            "setup_s": _median([REF_S * r["import_s"] / r["ref_s"] for p in untraced for r in p]),
        }
        return metrics, detail

    per_pass = []
    for p in traced:
        sums: dict[str, float] = {}
        for r in p:
            for metric, value in layer_metrics(r["spans"]).items():
                sums[metric] = sums.get(metric, 0) + value
        per_pass.append(sums)
    metrics = {metric: _median([s[metric] for s in per_pass]) for metric in per_pass[0]}
    traced_pass_s = _pass_time(traced)
    metrics["trace.overhead_pct"] = 100.0 * (traced_pass_s / pass_s - 1.0)
    detail["pass_s"] = pass_s
    detail["traced_pass_s"] = traced_pass_s
    detail["layers_by_op"] = {
        op.name: layer_metrics(traced[0][i]["spans"]) for i, op in enumerate(runner.ops)
    }
    return metrics, detail


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "fractaldim" / "cli.py").is_file():
        print(f"error: no fractaldim sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        ops = workloads.build(args.workload, args.seed, work)
        runner = Runner(ops, work)
        runner.child(["--help"], False)  # compiles bytecode on a fresh checkout
        metrics, detail = measure(runner, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    result = {
        "correct": not runner.problems,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": UNITS[name]} for name, value in metrics.items()},
    }
    record = dict(result, workload=args.workload, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, python=sys.version.split()[0], detail=detail)
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (results / name).write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")

    for problem in runner.problems[:20]:
        print(f"problem: {problem}", file=sys.stderr)
    for metric, value in metrics.items():
        print(f"{metric:28s} {value:14.6f} {UNITS[metric]}")
    print(f"operations attempted {runner.attempted}, failed {runner.failed}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
