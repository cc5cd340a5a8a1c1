"""Tracer arithmetic and patching."""

import numpy as np

import compatlearn
from compatlearn import cli, evalkit, gallery, losses, memory, network, trainer

import tracing


def test_self_time_subtracts_children():
    spans = [
        ["root", 0, 100, -1],
        ["child", 10, 30, 0],
        ["child", 50, 60, 0],
        ["leaf", 12, 18, 1],
    ]
    assert tracing.self_times(spans) == {"root": 70, "child": 24, "leaf": 6}


def test_self_time_counts_overlapping_children_once():
    spans = [
        ["root", 0, 100, -1],
        ["a", 10, 40, 0],
        ["b", 30, 50, 0],
        ["c", 90, 120, 0],
    ]
    # children cover [10, 50) and [90, 100) of the root
    assert tracing.self_times(spans)["root"] == 50


def test_traced_patches_every_importing_module_and_restores():
    originals = {
        module: module.extract_features for module in (network, losses, trainer, evalkit, gallery)
    }
    cmd_train = cli.cmd_train
    tracer = tracing.Tracer()
    with tracing.traced(tracer):
        for module, original in originals.items():
            assert module.extract_features is not original
            assert module.extract_features.perfbench_original is original
        assert cli.cmd_train is not cmd_train
        assert tracing.patched_bindings()
    for module, original in originals.items():
        assert module.extract_features is original
    assert cli.cmd_train is cmd_train
    assert compatlearn.search is gallery.search
    assert tracing.patched_bindings() == []


def test_traced_restores_after_an_exception():
    tracer = tracing.Tracer()
    try:
        with tracing.traced(tracer):
            raise RuntimeError("boom")
    except RuntimeError:
        pass
    assert tracing.patched_bindings() == []


def test_calls_rows_and_caller_split_are_counted():
    state = network.init_model(network.ModelConfig(4, (3,), 2, "tanh", 0))
    batch = np.ones((5, 4))
    tracer = tracing.Tracer()
    with tracing.traced(tracer):
        evalkit.extract_features(state, batch)
        gallery.extract_features(state, batch[:2])
    raw = tracer.raw()
    assert raw["network.extract_features.calls"] == 2
    assert raw["network.extract_features.rows.evalkit"] == 5
    assert raw["network.extract_features.rows.gallery"] == 2
    assert raw["network.forward_features.calls"] == 2
    assert raw["network.forward_features.rows"] == 7
    assert raw["network.forward_features.self_s"] > 0


def test_generator_target_counts_batches():
    batch = losses.LabeledBatch(np.zeros((10, 2)), np.zeros(10), np.zeros(10, dtype=bool))
    tracer = tracing.Tracer()
    with tracing.traced(tracer):
        got = list(trainer.iter_minibatches(batch, 4, np.random.default_rng(0)))
    assert len(got) == 3
    assert tracer.counts["memory.iter_minibatches.batches"] == 3
    assert memory.iter_minibatches is trainer.iter_minibatches
