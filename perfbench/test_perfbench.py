"""Tests of the benchmark itself: ``python3 -m pytest perfbench``.

Short passes (the first few cells of each workload) keep this to about a
minute; the stored oracle records cover every cell at the default seed.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import cells  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def _metric_units(kind: str) -> dict[str, str]:
    return {metric["name"]: metric["unit"] for metric in SPEC[kind]}


@pytest.mark.parametrize("workload", cells.WORKLOADS)
def test_seed_reaches_engine_options_and_scenario(workload, monkeypatch):
    bench = cells.setup(workload, 5)
    assert bench.cells
    assert all(cell.options.seed == 5 for cell in bench.cells)
    if workload == "churn_hostile":
        assert cells.hostile_spec("swim", 5).seed == 5
        assert all(cell.options.churn.seed == 5 for cell in bench.cells)
    seen = {}
    monkeypatch.setattr(
        cells, "predict_workload", lambda name, config, **kw: seen.update(kw)
    )
    cells.predict(bench.cells[0], bench.config)
    assert seen["seed"] == 5


def test_workload_shapes():
    assert len(cells.setup("fig6_sweep", 0).cells) == 30
    assert len(cells.setup("static_predict", 0).cells) == 30
    churn = cells.setup("churn_hostile", 0).cells
    assert [cell.key for cell in churn] == [
        f"churn/{model}/{mode}"
        for model in ("swim", "tomcatv")
        for mode in ("cdpc-adaptive", "dynamic-recolor", "bin-hopping")
    ]
    assert set(workload["name"] for workload in SPEC["workloads"]) == set(
        cells.WORKLOADS
    )


def _short(workload: str) -> int:
    return 1 if workload == "churn_hostile" else 3


@pytest.mark.parametrize("workload", cells.WORKLOADS)
@pytest.mark.parametrize("trace", [False, True])
def test_short_pass_prints_every_metric_with_its_unit(
    workload, trace, tmp_path, capsys
):
    result = run.measure(workload, 0, 0.0, trace, limit=_short(workload),
                         out_dir=tmp_path)
    printed = json.loads(json.dumps(result))
    assert set(printed) == {"correct", "attempted", "failed", "metrics"}
    assert printed["correct"] and printed["failed"] == 0
    assert printed["attempted"] == _short(workload) * (3 if trace else run.MIN_PASSES)
    expected = _metric_units("per_layer" if trace else "end_to_end")
    assert {
        name: metric["unit"] for name, metric in printed["metrics"].items()
    } == expected
    values = [metric["value"] for metric in printed["metrics"].values()]
    assert all(isinstance(value, (int, float)) for value in values)
    if trace:
        trace_file = tmp_path / f"trace_{workload}_seed0.json"
        assert trace_file.exists()
        assert "schema ok" in capsys.readouterr().out
    else:
        assert all(printed["metrics"][m["name"]]["value"] > 0
                   for m in SPEC["end_to_end"])


def test_corrupted_digest_is_a_failed_cell(tmp_path):
    golden = json.loads(cells.GOLDEN_PATH.read_text())["cells"]
    key = "tomcatv/page_coloring"
    golden[key] = dict(golden[key], digest="0" * 64)
    result = run.measure("fig6_sweep", 0, 0.0, False, limit=3, golden=golden,
                         out_dir=tmp_path)
    assert result["attempted"] == 3 * run.MIN_PASSES
    assert result["failed"] == run.MIN_PASSES
    assert not result["correct"]


def test_static_bound_violation_is_a_failed_cell(tmp_path):
    golden = json.loads(cells.GOLDEN_PATH.read_text())["cells"]
    key = "tomcatv/cdpc"
    measured = dict(golden[key]["measured"], total=-1.0)
    golden[key] = dict(golden[key], measured=measured)
    result = run.measure("static_predict", 0, 0.0, False, limit=3,
                         golden=golden, out_dir=tmp_path)
    assert result["failed"] == run.MIN_PASSES


def test_held_out_seed_runs_the_oracle_once(tmp_path):
    result = run.measure("fig6_sweep", 3, 0.0, False, limit=1, out_dir=tmp_path)
    assert result["correct"] and result["attempted"] == run.MIN_PASSES
    cache = json.loads((tmp_path / "oracle_cache.json").read_text())
    assert len(cache) == 1 and next(iter(cache)).endswith(":3:tomcatv/page_coloring")


def test_tail_has_ten_samples_beyond_it():
    value, percentile = run.tail([float(i) for i in range(30)])
    assert value == 19.0 and percentile == pytest.approx(66.67, abs=0.01)
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 100.0)


def test_self_time_subtracts_children():
    events = [
        {"name": "outer", "ph": "X", "ts": 0.0, "dur": 10_000.0, "pid": 0, "tid": 0},
        {"name": "inner", "ph": "X", "ts": 1_000.0, "dur": 4_000.0, "pid": 0, "tid": 0},
        {"name": "leaf", "ph": "X", "ts": 2_000.0, "dur": 1_000.0, "pid": 0, "tid": 0},
        {"name": "next", "ph": "X", "ts": 6_000.0, "dur": 2_000.0, "pid": 0, "tid": 0},
        {"name": "process_name", "ph": "M", "pid": 0, "tid": 0},
    ]
    assert layers.self_times_ms(events) == {
        "outer": 4.0, "inner": 3.0, "leaf": 1.0, "next": 2.0,
    }
