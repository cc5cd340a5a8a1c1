"""Statistics helpers and agreement between the code and BENCHMARK.json."""

import json
from pathlib import Path

import pytest

import metrics

ROOT = Path(__file__).resolve().parents[2]


def test_p99_refuses_fewer_than_1000_samples():
    with pytest.raises(ValueError):
        metrics.percentile(list(range(999)), 99)
    assert metrics.percentile(list(range(1, 1001)), 99) == 990


def test_p50_is_nearest_rank():
    assert metrics.percentile(list(range(1, 21)), 50) == 10
    with pytest.raises(ValueError):
        metrics.percentile(list(range(19)), 50)


def test_merge_phases_sums_phase_medians():
    setup = [{"a": 1.0}]
    passes = [{"a": 2.0, "b": 5}, {"a": 4.0, "b": 5}, {"a": 3.0, "b": 5}]
    assert metrics.merge_phases([setup, passes]) == {"a": 4.0, "b": 5}


def test_per_layer_ratios():
    raw = {
        "memory.build_training_set.memory_rows": 10,
        "network.extract_features.rows.losses": 30,
        "network.extract_features.rows.trainer": 10,
        "evalkit.build_compatibility_matrix.distinct_rows": 1800,
        "network.extract_features.rows.evalkit": 36000,
        "trace.untraced_pass_s": 2.0,
        "trace.traced_pass_s": 2.5,
    }
    values = metrics.per_layer_values(raw)
    assert values["losses.teacher_useful_ratio"] == 0.25
    assert values["evalkit.extract_useful_ratio"] == 0.05
    assert values["trace.overhead_s"] == 0.5
    assert values["trace.overhead_ratio"] == 0.25
    assert values["gallery.search.calls"] == 0


def test_benchmark_json_matches_the_metric_tables():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"], m["bound"]) for m in spec["end_to_end"]] == [
        tuple(row) for row in metrics.END_TO_END
    ]
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        (name, unit, metrics.better(name)) for name, unit, _ in metrics.PER_LAYER
    ]


def test_entry_point_knows_every_workload():
    import harness
    import run

    assert set(run.WORKLOAD_NAMES) == set(harness.WORKLOADS)
