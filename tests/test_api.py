"""Guards on the public names: the package exports, and the span names the benchmark reads.

``bench/run.py`` selects the spans of its per-layer metrics by qualified
name (``layer.func`` or ``layer.Class.method``).  A function deleted or
renamed in ``src/`` would make such a metric read 0 without any error, so
every selected name must still resolve.
"""

import ast
import importlib
from pathlib import Path

import pytest

import fractaldim

ROOT = Path(__file__).resolve().parent.parent
INIT = Path(fractaldim.__file__)
BENCH_RUN = ROOT / "bench" / "run.py"

# library names deleted because no command, acceptance criterion or benchmark used them
DELETED = {
    "seqgen": ("prefix_sums", "lemma_inequality_check"),
    "blockset": (
        "sample_points", "hs_measure_estimate", "HsEstimate", "DIVERGING", "VANISHING",
        "STABLE", "local_dim", "cut_points", "CutPoint", "_CELL_BUDGET", "_BlockTable",
    ),
    "boxdim": ("two_grid_result_to_json",),
    "selfsimilar": ("hausdorff_measure_at", "geometry_series"),
    "hypergrid": ("discrete_lebesgue", "lebesgue_bounds", "measure_table_csv", "_GreedyIntervals"),
}


def _imported_public_names() -> set[str]:
    tree = ast.parse(INIT.read_text(encoding="utf-8"))
    return {
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
        if not (alias.asname or alias.name).startswith("_")
    }


def test_all_resolves_and_matches_the_imports():
    assert len(fractaldim.__all__) == len(set(fractaldim.__all__))
    assert [name for name in fractaldim.__all__ if not hasattr(fractaldim, name)] == []
    assert set(fractaldim.__all__) == _imported_public_names()


@pytest.mark.parametrize("layer", sorted(DELETED))
def test_deleted_names_stay_deleted(layer):
    module = importlib.import_module(f"fractaldim.{layer}")
    names = DELETED[layer]
    assert [name for name in names if hasattr(fractaldim, name)] == []
    assert [name for name in names if hasattr(module, name)] == []


def test_deleted_modules_stay_deleted():
    with pytest.raises(ModuleNotFoundError):
        importlib.import_module("fractaldim._fsum")


def test_deleted_cell_enumeration_and_fields_stay_deleted():
    from fractaldim import blockset, boxdim
    from fractaldim.errors import BudgetExceededError

    assert not hasattr(boxdim.CellSource, "enumerate_cells")
    assert not hasattr(blockset.BlockCellSource, "enumerate_cells")
    assert "precondition_failed" not in boxdim.ClosureCheckReport._fields
    assert not hasattr(BudgetExceededError("budget"), "level")


def _span_names() -> set[str]:
    """Qualified span names in the span selectors of ``bench/run.py``, not the metric keys."""
    tree = ast.parse(BENCH_RUN.read_text(encoding="utf-8"))
    names = set()
    for node in tree.body:
        if not (isinstance(node, ast.Assign) and len(node.targets) == 1):
            continue
        target = node.targets[0]
        if not isinstance(target, ast.Name):
            continue
        if target.id in ("PARSE", "WALKS", "GEOMETRY", "PARTITIONS"):
            selectors = [node.value]
        elif target.id in ("SELF_TIMES", "COUNTS"):
            selectors = node.value.values  # the dict values; the keys are metric names
        else:
            continue
        for selector in selectors:
            for leaf in ast.walk(selector):
                value = getattr(leaf, "value", None)
                if isinstance(leaf, ast.Constant) and isinstance(value, str) and "." in value:
                    names.add(value)
    return names


def test_bench_reads_span_names():
    names = _span_names()
    assert {"seqgen._iter_terms", "blockset.x_count", "boxdim.count_series",
            "selfsimilar.GeometrySeries.values", "hypergrid.h_delta_s_dp"} <= names


@pytest.mark.parametrize("name", sorted(_span_names()))
def test_bench_span_name_resolves(name):
    layer, *path = name.split(".")
    target = importlib.import_module(f"fractaldim.{layer}")
    for attr in path:
        target = getattr(target, attr)
    assert callable(target)
