import numpy as np
import pytest

from compatlearn.data import LabeledDataset
from compatlearn.errors import DisjointnessError
from compatlearn.memory import (
    EpisodicMemory,
    build_training_set,
    iter_minibatches,
    update_memory,
)


def class_dataset(class_ids, samples_per_class, dim=4, seed=0):
    rng = np.random.default_rng(seed)
    labels = np.repeat(np.asarray(class_ids, dtype=np.int64), samples_per_class)
    return LabeledDataset(inputs=rng.standard_normal((len(labels), dim)), labels=labels)


def test_update_respects_budget_and_counts():
    memory = EpisodicMemory(per_class_budget=2, rng_seed=0)
    updated = update_memory(memory, class_dataset([0, 1, 2], 50), task_index=1)
    assert len(updated) == 6
    classes, sizes = np.unique(updated.labels, return_counts=True)
    assert classes.tolist() == [0, 1, 2]
    assert sizes.tolist() == [2, 2, 2]


def test_scarce_class_contributes_what_it_has():
    memory = EpisodicMemory(per_class_budget=20, rng_seed=0)
    updated = update_memory(memory, class_dataset([5], 1), task_index=1)
    assert len(updated) == 1


def test_same_seed_selects_same_samples():
    data = class_dataset([0, 1], 30, seed=3)
    picks = []
    for _ in range(2):
        memory = EpisodicMemory(per_class_budget=4, rng_seed=42)
        updated = update_memory(memory, data, task_index=1)
        picks.append((updated.inputs.tobytes(), updated.labels.tobytes()))
    assert picks[0] == picks[1]


def test_different_seed_selects_differently():
    data = class_dataset([0, 1], 200, seed=3)
    a = update_memory(EpisodicMemory(4, rng_seed=1), data, task_index=1)
    b = update_memory(EpisodicMemory(4, rng_seed=2), data, task_index=1)
    assert a.inputs.tobytes() != b.inputs.tobytes()


def test_class_overlap_rejected():
    memory = update_memory(EpisodicMemory(2, rng_seed=0), class_dataset([0, 1], 10), 1)
    with pytest.raises(DisjointnessError):
        update_memory(memory, class_dataset([1, 2], 10), task_index=2)


def test_existing_entries_are_untouched():
    memory = update_memory(EpisodicMemory(3, rng_seed=0), class_dataset([0, 1], 10), 1)
    columns = ("labels", "inputs")
    snapshot = [getattr(memory, name).tobytes() for name in columns]
    updated = update_memory(memory, class_dataset([2, 3], 10, seed=9), task_index=2)
    kept = [getattr(updated, name)[: len(memory)].tobytes() for name in columns]
    assert kept == snapshot
    assert set(updated.labels[len(memory) :].tolist()) == {2, 3}


def test_budget_never_exceeded_over_many_tasks():
    memory = EpisodicMemory(per_class_budget=5, rng_seed=7)
    for t in range(1, 5):
        data = class_dataset([10 * t, 10 * t + 1], 17, seed=t)
        memory = update_memory(memory, data, task_index=t)
        assert np.unique(memory.labels, return_counts=True)[1].max() <= 5
    assert memory.class_count() == 8


def test_training_set_on_first_task_is_all_current():
    data = class_dataset([0, 1], 10)
    batch = build_training_set(EpisodicMemory(2, rng_seed=0), data)
    assert len(batch) == 20
    assert not batch.from_memory.any()


def test_training_set_union_and_flags():
    memory = update_memory(EpisodicMemory(3, rng_seed=0), class_dataset([0, 1], 10), 1)
    current = class_dataset([2], 100, seed=4)
    batch = build_training_set(memory, current)
    assert len(batch) == 106
    assert int(batch.from_memory.sum()) == 6
    assert set(batch.labels[batch.from_memory]) == {0, 1}
    assert set(batch.labels[~batch.from_memory]) == {2}


def test_minibatches_partition_the_epoch():
    data = class_dataset([0, 1, 2], 11)
    batch = build_training_set(EpisodicMemory(2, rng_seed=0), data)
    seen = []
    for mini in iter_minibatches(batch, batch_size=8, rng=np.random.default_rng(0)):
        assert len(mini) <= 8
        seen.extend(mini.labels.tolist())
    assert len(seen) == 33
    assert sorted(seen) == sorted(batch.labels.tolist())


def test_minibatch_shuffle_is_seeded():
    data = class_dataset([0, 1], 16)
    batch = build_training_set(EpisodicMemory(2, rng_seed=0), data)
    runs = []
    for _ in range(2):
        rng = np.random.default_rng(123)
        runs.append([m.inputs.tobytes() for m in iter_minibatches(batch, 8, rng)])
    assert runs[0] == runs[1]
