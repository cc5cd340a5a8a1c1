import json

import numpy as np
import pytest

import dataclasses

from compatlearn import losses, trainer
from compatlearn.cli import cmd_train
from compatlearn.data import (
    LabeledDataset,
    SyntheticSpec,
    Task,
    TaskSequence,
    make_synthetic,
    split_tasks,
)
from compatlearn.errors import ConfigError, DataError, DivergenceError
from compatlearn.geometry import build_simplex
from compatlearn.losses import combined_loss
from compatlearn.memory import build_training_set, iter_minibatches, update_memory
from compatlearn.network import ModelConfig, TrainingHyperparams, extract_features, init_model
from compatlearn.trainer import ExperimentConfig, run_sequence

DIM = 8


def tiny_sequence(num_tasks=2, num_classes=10, eval_classes=4, samples=12, seed=0):
    dataset = make_synthetic(
        SyntheticSpec(
            num_classes=num_classes,
            samples_per_class=samples,
            input_dim=DIM,
            cluster_sigma=0.15,
            mean_seed=seed,
            noise_seed=seed + 1,
        )
    )
    return split_tasks(dataset, num_tasks=num_tasks, eval_class_count=eval_classes, seed=seed)


def tiny_config(total_classes, **overrides):
    params = dict(
        model=ModelConfig(
            input_dim=DIM,
            hidden_layers=(10,),
            feature_dim=total_classes - 1,
            nonlinearity="tanh",
            seed=1,
        ),
        hyperparams=TrainingHyperparams(
            learning_rate=0.05,
            lr_milestones=(3,),
            lr_decay_factor=0.1,
            weight_decay=1e-4,
            momentum=0.9,
            epochs_per_task=4,
            batch_size=16,
            lambda_base=5.0,
        ),
        memory_per_class=3,
        classifier_mode="fixed_simplex",
        fd_mode="memory_only",
        train_seed=11,
    )
    params.update(overrides)
    return ExperimentConfig(**params)


def test_single_task_never_distills():
    sequence, _ = tiny_sequence(num_tasks=1)
    timeline = run_sequence(tiny_config(sequence.total_classes), sequence)
    assert len(timeline.checkpoints) == 1
    rows = timeline.logs[0]
    assert all(row.lambda_weight == 0.0 for row in rows)
    assert all(row.fd == 0.0 for row in rows)


def test_distillation_active_from_the_second_task():
    sequence, _ = tiny_sequence(num_tasks=2)
    timeline = run_sequence(tiny_config(sequence.total_classes), sequence)
    task2 = timeline.logs[1]
    assert all(row.lambda_weight > 0.0 for row in task2)
    assert any(row.fd > 0.0 for row in task2)


def test_fd_off_forces_zero_lambda():
    sequence, _ = tiny_sequence(num_tasks=3)
    timeline = run_sequence(tiny_config(sequence.total_classes, fd_mode="off"), sequence)
    rows = [row for task_rows in timeline.logs for row in task_rows]
    assert all(row.lambda_weight == 0.0 for row in rows)
    assert all(row.fd == 0.0 for row in rows)


def recorded_task_arguments(monkeypatch, config, sequence):
    """The (memory, classifier) that ``run_sequence`` passes to each task's ``run_task``."""
    seen = []
    original = trainer.run_task

    def recording(state, task, previous, memory, classifier, config):
        seen.append((memory, classifier))
        return original(state, task, previous, memory, classifier, config)

    monkeypatch.setattr(trainer, "run_task", recording)
    run_sequence(config, sequence)
    return seen


def test_prototypes_survive_training_bitwise(monkeypatch):
    sequence, _ = tiny_sequence(num_tasks=2)
    seen = recorded_task_arguments(monkeypatch, tiny_config(sequence.total_classes), sequence)
    classifiers = [classifier for _, classifier in seen]
    assert classifiers[0] is classifiers[1]  # one shared simplex for every task
    expected = build_simplex(sequence.total_classes).vertices.tobytes()
    assert classifiers[0].vertices.tobytes() == expected  # unchanged after training


def test_sequence_is_bitwise_reproducible():
    checksums = []
    for _ in range(2):
        sequence, _ = tiny_sequence(num_tasks=3)
        timeline = run_sequence(tiny_config(sequence.total_classes), sequence)
        checksums.append([c.parameter_checksum() for c in timeline.checkpoints])
    assert checksums[0] == checksums[1]


def test_checkpoints_are_frozen_and_distinct():
    sequence, _ = tiny_sequence(num_tasks=3)
    timeline = run_sequence(tiny_config(sequence.total_classes), sequence)
    sums = [c.parameter_checksum() for c in timeline.checkpoints]
    assert len(set(sums)) == 3  # warm start but training moves the weights
    with pytest.raises(ValueError):
        timeline.checkpoints[0].weights[0][0, 0] = 1.0


def test_lambda_follows_the_class_ratio():
    sequence, _ = tiny_sequence(num_tasks=3, num_classes=13, eval_classes=4)
    # tasks of 3 classes each over 9 training classes
    timeline = run_sequence(tiny_config(sequence.total_classes), sequence)
    lam_by_task = [rows[0].lambda_weight for rows in timeline.logs]
    assert lam_by_task[0] == 0.0
    assert lam_by_task[1] == pytest.approx(5.0 * np.sqrt(3 / 3))
    assert lam_by_task[2] == pytest.approx(5.0 * np.sqrt(3 / 6))


def test_memory_covers_all_previous_classes(monkeypatch):
    sequence, _ = tiny_sequence(num_tasks=3)
    seen = recorded_task_arguments(monkeypatch, tiny_config(sequence.total_classes), sequence)
    for index, (memory, _) in enumerate(seen):
        expected = sorted(c for t in sequence.tasks[:index] for c in t.classes)
        classes, sizes = np.unique(memory.labels, return_counts=True)
        assert classes.tolist() == expected
        assert all(v == 3 for v in sizes)


def test_trainable_mode_with_memory_distillation_runs():
    sequence, _ = tiny_sequence(num_tasks=2)
    config = tiny_config(sequence.total_classes, classifier_mode="trainable")
    timeline = run_sequence(config, sequence)
    assert any(row.fd > 0.0 for row in timeline.logs[1])


def test_trainable_mode_rejects_labels_beyond_the_grown_classifier():
    # Task 1 introduces two classes, so the classifier has rows 0 and 1 only.
    inputs = np.random.default_rng(0).standard_normal((16, DIM))
    data = LabeledDataset(inputs=inputs, labels=np.array([2, 3] * 8))
    sequence = TaskSequence(tasks=(Task(index=1, data=data, classes=(2, 3)),), total_classes=4)
    with pytest.raises(DataError):
        run_sequence(tiny_config(4, classifier_mode="trainable"), sequence)


def test_fixed_mode_requires_matching_feature_dim():
    sequence, _ = tiny_sequence(num_tasks=2)
    with pytest.raises(ConfigError):
        run_sequence(tiny_config(sequence.total_classes + 1), sequence)


def test_tasks_of_another_width_than_the_model_are_refused_before_training(monkeypatch):
    sequence, _ = tiny_sequence(num_tasks=2)
    model = ModelConfig(input_dim=DIM + 1, hidden_layers=(10,), feature_dim=sequence.total_classes - 1)
    monkeypatch.setattr(trainer, "run_task", lambda *args: pytest.fail("a task was trained"))
    with pytest.raises(DataError, match=f"tasks have {DIM} input columns, the model expects {DIM + 1}"):
        run_sequence(tiny_config(sequence.total_classes, model=model), sequence)


def test_divergence_is_reported_with_context():
    sequence, _ = tiny_sequence(num_tasks=1)
    config = tiny_config(
        sequence.total_classes,
        hyperparams=TrainingHyperparams(
            learning_rate=1e200,
            weight_decay=1e-4,  # lr * wd blows the parameters past float range
            momentum=0.9,
            epochs_per_task=4,
            batch_size=16,
            lambda_base=0.0,
        ),
        fd_mode="off",
    )
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(DivergenceError, match="task 1"):
            run_sequence(config, sequence)


@pytest.mark.parametrize("value", [np.nan, -np.inf, 1e200], ids=["nan", "minus-inf", "overflow"])
def test_divergent_classifier_gradient_is_refused_before_the_step(value):
    classifier = trainer.TrainableClassifier(3)
    classifier.grow(4, np.random.default_rng(0))
    before = classifier.weights.copy()
    grads = np.full_like(classifier.weights, value)  # 1e200 squared overflows
    hp = TrainingHyperparams(learning_rate=0.1)
    with np.errstate(over="ignore"), pytest.raises(DivergenceError, match="classifier weights"):
        classifier.apply_gradients(grads, hp, epoch=0)
    assert np.array_equal(classifier.weights, before)
    assert not classifier.velocity.any()
    with pytest.raises(DataError, match="classifier weights"):
        classifier.apply_gradients(np.zeros((3, 3)), hp, epoch=0)


def test_full_batch_fd_mode_covers_current_samples():
    sequence, _ = tiny_sequence(num_tasks=2)
    cfg_mem = tiny_config(sequence.total_classes, fd_mode="memory_only")
    cfg_all = tiny_config(sequence.total_classes, fd_mode="full_batch")
    t_mem = run_sequence(cfg_mem, sequence)
    sequence2, _ = tiny_sequence(num_tasks=2)
    t_all = run_sequence(cfg_all, sequence2)
    # same seeds, different scope: the trained weights must differ
    assert (
        t_mem.checkpoints[1].parameter_checksum() != t_all.checkpoints[1].parameter_checksum()
    )


def test_persistence_writes_the_training_log(tmp_path):
    # the experiment directory is written by the train command, one file per timeline part
    config = tmp_path / "config.json"
    config.write_text(
        json.dumps(
            {
                "data": {"num_classes": 10, "samples_per_class": 12, "input_dim": DIM,
                         "eval_classes": 4, "num_tasks": 2},
                "model": {"hidden_layers": [10], "nonlinearity": "tanh"},
                "training": {"epochs_per_task": 4, "batch_size": 16, "lr_milestones": [3]},
                "memory": {"per_class": 3},
                "pairs": {"num_pairs": 40},
            }
        )
    )
    out = cmd_train(config, tmp_path / "exp")
    assert {p.name for p in out.iterdir()} == {
        "config.json",
        "checkpoint_task_001.ckpt",
        "checkpoint_task_002.ckpt",
        "training_log.csv",
        "eval_data.csv",
        "pairs.csv",
        "heldout.ckpt",
        "manifest.json",
    }
    log = (out / "training_log.csv").read_text().splitlines()
    assert log[0] == "task,epoch,ce,fd,lambda,total"
    assert len(log) == 1 + 2 * 4  # header + tasks * epochs


@pytest.mark.parametrize("classifier_mode", ["fixed_simplex", "trainable"])
@pytest.mark.parametrize("fd_mode", ["memory_only", "full_batch"])
def test_teacher_runs_once_per_task_over_the_scope(monkeypatch, classifier_mode, fd_mode):
    sequence, _ = tiny_sequence(num_tasks=3)
    calls = []
    original = trainer.extract_features

    def counting(state, batch):
        calls.append(len(batch))
        return original(state, batch)

    def per_batch(state, batch):
        raise AssertionError("the teacher ran on a mini-batch")

    monkeypatch.setattr(trainer, "extract_features", counting)
    monkeypatch.setattr(losses, "extract_features", per_batch)
    config = tiny_config(sequence.total_classes, classifier_mode=classifier_mode, fd_mode=fd_mode)
    timeline = run_sequence(config, sequence)
    memory_rows = np.cumsum([3 * len(t.classes) for t in sequence.tasks])
    if fd_mode == "memory_only":
        expected = [int(memory_rows[0]), int(memory_rows[1])]
    else:
        expected = [
            int(memory_rows[i - 1]) + len(sequence.tasks[i].data) for i in (1, 2)
        ]
    assert calls == expected
    assert all(row.fd > 0.0 for rows in timeline.logs[1:] for row in rows)


@pytest.mark.parametrize("num_tasks, fd_mode", [(1, "memory_only"), (3, "off")])
def test_no_teacher_without_distillation(monkeypatch, num_tasks, fd_mode):
    sequence, _ = tiny_sequence(num_tasks=num_tasks)
    calls = []
    monkeypatch.setattr(trainer, "extract_features", lambda *a: calls.append(a))
    run_sequence(tiny_config(sequence.total_classes, fd_mode=fd_mode), sequence)
    assert calls == []


@pytest.mark.parametrize("classifier_mode", ["fixed_simplex", "trainable"])
@pytest.mark.parametrize("fd_scope", ["memory", "all"])
def test_cached_teacher_matches_the_per_batch_reference(classifier_mode, fd_scope):
    sequence, _ = tiny_sequence(num_tasks=2)
    first, second = sequence.tasks
    config = ModelConfig(input_dim=DIM, hidden_layers=(10,), feature_dim=sequence.total_classes - 1)
    previous = init_model(dataclasses.replace(config, seed=1)).freeze()
    current = init_model(dataclasses.replace(config, seed=2))
    empty = LabeledDataset(inputs=np.zeros((0, DIM)), labels=np.zeros(0, np.int64))
    memory = update_memory(empty, first.data, 1, per_class=3, seed=0)
    training_set = trainer.with_teacher(
        build_training_set(memory, second.data), previous, fd_scope
    )
    batch = next(iter_minibatches(training_set, 16, np.random.default_rng(0)))
    mask = batch.from_memory if fd_scope == "memory" else np.ones(len(batch), dtype=bool)
    assert mask.any()
    reference = extract_features(previous, batch.inputs)[mask]
    assert np.allclose(batch.teacher[mask], reference, rtol=0.0, atol=1e-12)

    uncached = dataclasses.replace(batch, teacher=None)
    if classifier_mode == "fixed_simplex":
        classifier = build_simplex(sequence.total_classes)
    else:
        classifier = trainer.TrainableClassifier(config.feature_dim)
        classifier.grow(sequence.total_classes, np.random.default_rng(3))
    cached_report, cached_grads = combined_loss(batch, current, previous, classifier, 2.0, fd_scope)
    report, grads = combined_loss(uncached, current, previous, classifier, 2.0, fd_scope)
    assert cached_report.fd_count == report.fd_count == int(mask.sum())
    assert cached_report.fd_value == pytest.approx(report.fd_value, rel=0.0, abs=1e-12)
    for a, b in zip(cached_grads.weights + cached_grads.biases, grads.weights + grads.biases):
        assert np.allclose(a, b, rtol=0.0, atol=1e-12)


def test_trainable_classifier_momentum_resets_at_task_boundaries(monkeypatch):
    sequence, _ = tiny_sequence(num_tasks=3)
    seen = []
    original = trainer.run_task

    def recording(state, task, previous, memory, classifier, config):
        seen.append(classifier.velocity.copy())
        return original(state, task, previous, memory, classifier, config)

    monkeypatch.setattr(trainer, "run_task", recording)
    config = tiny_config(sequence.total_classes, classifier_mode="trainable")
    run_sequence(config, sequence)
    # The classifier grows by each task's classes before that task trains.
    per_task = [len(t.classes) for t in sequence.tasks]
    assert [v.shape[0] for v in seen] == np.cumsum(per_task).tolist()
    assert all(not v.any() for v in seen)
