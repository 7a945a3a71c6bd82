"""Record contracts: every public result and input record is an immutable value.

For each record type: fields cannot be assigned, keyword construction sets
every field, equal fields give equal records with equal hashes, invalid
fields are refused with ``InputError`` when the record is built or rebuilt
with ``_replace`` or ``_make``, and the two filled-in defaults hold.  The
import-path guard keeps the CLI's start-up free of the introspection modules
a record library would pull in.
"""

import ast
import json
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import fractaldim
from fractaldim.blockset import BlockSchedule, DimReport
from fractaldim.boxdim import (
    ClosureCheckReport,
    CountSeries,
    CriticalExponent,
    TwoGridResult,
    critical_d,
)
from fractaldim.errors import InputError
from fractaldim.hypergrid import DeltaPartition, HyperGrid, InternalSet
from fractaldim.selfsimilar import (
    ConsistencyReport,
    FatCantorStage,
    GeometrySeries,
    IfsRatios,
    MoranRoot,
    PieceRule,
)
from fractaldim.seqgen import GrowthVerdict, SequenceSpec

SRC = Path(fractaldim.__file__).resolve().parent.parent

SPEC = SequenceSpec.geometric(1, 2, horizon=10)
COLUMNS = dict(levels=(1, 2), nums=(1, 1), dens=(2, 4), counts=(2, 4))


def _step(k, prev):
    return prev + 1


def _closed(m):
    return Fraction(m + 1)


# every field of each record type, by keyword
SAMPLES = {
    SequenceSpec: dict(kind="arithmetic", horizon=9, digit_cap=50, first=1, step=2,
                       ratio=None, base=None, seed=None, terms=None),
    GrowthVerdict: dict(status="satisfied", witness_index=4, margin=Fraction(3, 2)),
    BlockSchedule: dict(base=3, alphabet=2, zeros=SPEC, frees=SPEC, m_cap=100),
    DimReport: dict(schedule=BlockSchedule(2, 2, SequenceSpec.arithmetic(1, 0)), scale=None,
                    lower=Fraction(0), upper=Fraction(1, 2), converged=False, spread=0.5,
                    n_used=0, m_used=2),
    CountSeries: dict(**COLUMNS),
    TwoGridResult: dict(h=Fraction(1, 9), k=Fraction(1, 3), n_h=4, n_k=2, d=0.63),
    CriticalExponent: dict(d=1.0, lo=0.9, hi=1.1, degenerate=False),
    ClosureCheckReport: dict(equal=True, sample_cells=3, reference_cells=3),
    HyperGrid: dict(N=10),
    InternalSet: dict(starts=(0, 4), ends=(2, 5)),
    DeltaPartition: dict(intervals=((0, 1), (2, 2)), cost=0.75, count=2),
    PieceRule: dict(name="cantor", pieces=2, scale=3, ambient_dim=1),
    IfsRatios: dict(ratios=(0.5, 0.25), counts=(2, 1)),
    MoranRoot: dict(s=1.0, width=1e-12, degenerate=False, iterations=40),
    GeometrySeries: dict(name="x", quantity="area", initial=Fraction(1), step=_step,
                         closed=_closed, unit="1"),
    ConsistencyReport: dict(name="x", quantity="area", unit="1",
                            rows=((Fraction(1), Fraction(1), Fraction(0)),),
                            consistent=True, max_deviation=Fraction(0), first_mismatch=None),
    FatCantorStage: dict(intervals=((Fraction(0), Fraction(1)),), measure=Fraction(1)),
}

RECORDS = pytest.mark.parametrize("cls", list(SAMPLES), ids=lambda cls: cls.__name__)


@RECORDS
def test_keyword_construction_sets_every_field(cls):
    fields = SAMPLES[cls]
    record = cls(**fields)
    assert {name: getattr(record, name) for name in fields} == fields


@RECORDS
def test_fields_cannot_be_assigned(cls):
    fields = SAMPLES[cls]
    record = cls(**fields)
    for name, value in fields.items():
        with pytest.raises(AttributeError):
            setattr(record, name, value)
    assert {name: getattr(record, name) for name in fields} == fields


# one field of each sample changed to another valid value
CHANGED = {
    SequenceSpec: dict(kind="geometric", step=None, ratio=2),
    GrowthVerdict: dict(witness_index=5),
    BlockSchedule: dict(base=4),
    DimReport: dict(converged=True),
    CountSeries: dict(counts=(2, 5)),
    TwoGridResult: dict(d=0.64),
    CriticalExponent: dict(hi=1.2),
    ClosureCheckReport: dict(reference_cells=4),
    HyperGrid: dict(N=11),
    InternalSet: dict(starts=(0,), ends=(3,)),
    DeltaPartition: dict(cost=0.5),
    PieceRule: dict(pieces=3),
    IfsRatios: dict(counts=(1, 1)),
    MoranRoot: dict(iterations=41),
    GeometrySeries: dict(unit="sqrt(3)/4"),
    ConsistencyReport: dict(first_mismatch=0),
    FatCantorStage: dict(measure=Fraction(1, 2)),
}


@RECORDS
def test_equal_fields_give_equal_records_and_hashes(cls):
    a, b = cls(**SAMPLES[cls]), cls(**dict(SAMPLES[cls]))
    assert a is not b
    assert a == b and hash(a) == hash(b)
    assert a != cls(**{**SAMPLES[cls], **CHANGED[cls]})


INVALID = [
    (SequenceSpec, dict(kind="fibonacci")),
    (SequenceSpec, dict(kind="arithmetic", first=1, step=1, horizon=-1)),
    (SequenceSpec, dict(kind="arithmetic", first=1, step=1, digit_cap=0)),
    (SequenceSpec, dict(kind="arithmetic", first=1)),
    (SequenceSpec, dict(kind="arithmetic", first=0, step=1)),
    (SequenceSpec, dict(kind="geometric", first=1, ratio=0)),
    (SequenceSpec, dict(kind="explicit", terms=())),
    (SequenceSpec, dict(kind="explicit", terms=(1, 0))),
    (SequenceSpec, dict(kind="double_exponential", base=1)),
    (SequenceSpec, dict(kind="power_tower", base=1)),
    (SequenceSpec, dict(kind="squared_sum", seed=0)),
    (BlockSchedule, dict(base=1, alphabet=2, zeros=SPEC)),
    (BlockSchedule, dict(base=3, alphabet=4, zeros=SPEC)),
    (BlockSchedule, dict(base=3, alphabet=1, zeros=SPEC)),
    (BlockSchedule, dict(base=3, alphabet=2, zeros=SPEC, m_cap=0)),
    (CountSeries, dict(levels=(), nums=(), dens=(), counts=())),
    (CountSeries, dict(levels=(2, 1), nums=(1, 1), dens=(4, 2), counts=(4, 2))),
    (CountSeries, dict(levels=(1, 2), nums=(1, 1), dens=(2, 2), counts=(2, 4))),
    (CountSeries, dict(levels=(1,), nums=(1,), dens=(2,), counts=(-1,))),
    (HyperGrid, dict(N=1)),
    (InternalSet, dict(starts=(-1,), ends=(2,))),
    (InternalSet, dict(starts=(3,), ends=(2,))),
    (InternalSet, dict(starts=(0, 3), ends=(2, 4))),
    (InternalSet, dict(starts=(4, 0), ends=(5, 1))),
    (PieceRule, dict(name="x", pieces=0, scale=3, ambient_dim=1)),
    (PieceRule, dict(name="x", pieces=2, scale=1, ambient_dim=1)),
    (IfsRatios, dict(ratios=())),
    (IfsRatios, dict(ratios=(0.5, 1.0))),
    (IfsRatios, dict(ratios=(0.5, 0.0))),
    (IfsRatios, dict(ratios=(0.5, 0.25), counts=(1,))),
    (IfsRatios, dict(ratios=(0.5,), counts=(0,))),
    (IfsRatios, dict(ratios=(0.5,), counts=(True,))),
    (IfsRatios, dict(ratios=(0.5,), counts=(2.0,))),
    (IfsRatios, dict(ratios=(0.5,), counts=(10**400,))),
    (InternalSet, dict(starts=(0, 4), ends=(2,))),
    (CountSeries, dict(COLUMNS, counts=(2,))),
    (CountSeries, dict(COLUMNS, nums=(1, 2), dens=(2, 8))),  # 2/8 is not in lowest terms
    (CountSeries, dict(COLUMNS, nums=(-1, 1), dens=(-2, 4))),
    (CountSeries, dict(COLUMNS, nums=(1, 0), dens=(2, 0))),
    (CountSeries, dict(COLUMNS, nums=(3, 1), dens=(2, 4))),  # a delta above 1
]


@pytest.mark.parametrize(
    "cls, fields", INVALID, ids=[f"{cls.__name__}-{i}" for i, (cls, _) in enumerate(INVALID)]
)
def test_invalid_fields_are_refused_at_construction(cls, fields):
    with pytest.raises(InputError):
        cls(**fields)


@pytest.mark.parametrize(
    "make",
    [
        lambda: SequenceSpec("arithmetic", 64, 10, 0, 1),
        lambda: BlockSchedule(3, 4, SPEC),
        lambda: BlockSchedule(3, 2, SPEC, None, 0),
        lambda: CountSeries((2, 1), (1, 1), (4, 2), (4, 2)),
        lambda: HyperGrid(1),
        lambda: InternalSet((3,), (2,)),
        lambda: PieceRule("x", 2, 1, 1),
        lambda: IfsRatios((0.5, 0.25), (1,)),
    ],
)
def test_invalid_positional_fields_are_refused(make):
    with pytest.raises(InputError):
        make()


# one valid record of each checked type, with a field that is invalid for it
REPLACED = [
    (SequenceSpec.arithmetic(1, 1), dict(horizon=-1)),
    (BlockSchedule(3, 2, SPEC), dict(alphabet=4)),
    (CountSeries(**COLUMNS), dict(levels=(2, 1))),
    (HyperGrid(10), dict(N=1)),
    (InternalSet((0,), (2,)), dict(starts=(3,))),
    (PieceRule("x", 2, 3, 1), dict(scale=1)),
    (IfsRatios((0.5,)), dict(ratios=(2.0,))),
]


@pytest.mark.parametrize(
    "record, fields", REPLACED, ids=[type(record).__name__ for record, _ in REPLACED]
)
def test_replace_and_make_check_the_fields(record, fields):
    cls = type(record)
    assert type(record._replace()) is cls and record._replace() == record
    with pytest.raises(InputError):
        record._replace(**fields)
    with pytest.raises(InputError):
        cls._make({**record._asdict(), **fields}.values())


def test_block_schedule_frees_default_to_zeros():
    schedule = BlockSchedule(base=2, alphabet=2, zeros=SPEC)
    assert schedule.frees is SPEC
    assert schedule == BlockSchedule(2, 2, SPEC, SPEC)
    assert schedule.m_cap == BlockSchedule(2, 2, SPEC, SPEC).m_cap
    other = SequenceSpec.arithmetic(1, 1)
    assert BlockSchedule(2, 2, SPEC, frees=other).frees is other
    assert BlockSchedule(2, 2, SPEC, other)._replace(frees=None).frees is SPEC


def test_ifs_ratios_counts_default_to_ones():
    assert IfsRatios((0.5, 0.25, 0.125)).counts == (1, 1, 1)
    assert IfsRatios(ratios=(0.5,)).total == 1
    assert IfsRatios((0.5,), (3,)).counts == (3,)
    assert IfsRatios((0.5,), (3,))._replace(counts=()).counts == (1,)


def test_sequence_spec_defaults():
    spec = SequenceSpec.arithmetic(1, 0)
    assert (spec.horizon, spec.digit_cap) == (64, 1_000_000)
    assert (spec.ratio, spec.base, spec.seed, spec.terms) == (None,) * 4


def test_count_series_tail_logs_computed_once(monkeypatch):
    series = CountSeries(**COLUMNS)
    calls = []
    log = math.log
    monkeypatch.setattr(math, "log", lambda x: calls.append(x) or log(x))
    first = series._tail_logs
    taken = len(calls)
    assert taken > 0
    assert series._tail_logs is first
    assert len(calls) == taken


def test_dim_report_samples_equal_on_repeated_access():
    # the samples are walked anew on each access, so they hold no state to go stale
    report = DimReport(**SAMPLES[DimReport])
    assert report.lower_samples == report.lower_samples == ((0, 1, 0, Fraction(0)),)
    assert report.upper_samples == report.upper_samples == ((0, 2, 1, Fraction(1, 2)),)
    assert report._replace(n_used=1).upper_samples == ((0, 2, 1, Fraction(1, 2)),
                                                       (1, 4, 2, Fraction(1, 2)))


def test_records_unpack_and_compare_like_tuples():
    levels = range(1, 30)
    series = CountSeries(tuple(levels), (1,) * 29, tuple(3**m for m in levels), tuple(2**m for m in levels))
    d, lo, hi, degenerate = critical_d(series, 1e-9)
    assert lo <= d <= hi and not degenerate
    assert CriticalExponent(1.0, 0.5, 1.5) == (1.0, 0.5, 1.5, False)
    assert tuple(IfsRatios((0.5,))) == ((0.5,), (1,))


# ---------------------------------------------------------------------------
# import path: records must not pull in the introspection modules

_HEAVY = ("dataclasses", "inspect", "ast", "dis", "tokenize")


def test_cli_import_loads_no_introspection_modules():
    probe = (
        "import json, sys\n"
        "before = set(sys.modules)\n"
        "import fractaldim.cli\n"
        "print(json.dumps(sorted(set(sys.modules) - before)))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", probe],
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True,
        text=True,
        check=True,
    )
    new = json.loads(proc.stdout)
    assert "fractaldim.cli" in new
    assert [name for name in _HEAVY if name in new] == []


def test_no_source_file_imports_dataclasses():
    offenders = []
    for path in sorted((SRC / "fractaldim").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            if any(name.split(".")[0] == "dataclasses" for name in names):
                offenders.append(path.name)
    assert offenders == []
