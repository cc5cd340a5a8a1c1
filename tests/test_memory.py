import numpy as np
import pytest

from compatlearn.data import LabeledDataset
from compatlearn.errors import DisjointnessError
from compatlearn.memory import build_training_set, iter_minibatches, update_memory


def class_dataset(class_ids, samples_per_class, dim=4, seed=0):
    rng = np.random.default_rng(seed)
    labels = np.repeat(np.asarray(class_ids, dtype=np.int64), samples_per_class)
    return LabeledDataset(inputs=rng.standard_normal((len(labels), dim)), labels=labels)


def empty_memory(dim=4):
    return LabeledDataset(inputs=np.zeros((0, dim)), labels=np.zeros(0, np.int64))


def test_update_respects_budget_and_counts():
    updated = update_memory(empty_memory(), class_dataset([0, 1, 2], 50), 1, per_class=2, seed=0)
    assert len(updated) == 6
    classes, sizes = np.unique(updated.labels, return_counts=True)
    assert classes.tolist() == [0, 1, 2]
    assert sizes.tolist() == [2, 2, 2]


def test_scarce_class_contributes_what_it_has():
    updated = update_memory(empty_memory(), class_dataset([5], 1), 1, per_class=20, seed=0)
    assert len(updated) == 1


def test_same_seed_selects_same_samples():
    data = class_dataset([0, 1], 30, seed=3)
    picks = []
    for _ in range(2):
        updated = update_memory(empty_memory(), data, task_index=1, per_class=4, seed=42)
        picks.append((updated.inputs.tobytes(), updated.labels.tobytes()))
    assert picks[0] == picks[1]


def test_different_seed_selects_differently():
    data = class_dataset([0, 1], 200, seed=3)
    a = update_memory(empty_memory(), data, task_index=1, per_class=4, seed=1)
    b = update_memory(empty_memory(), data, task_index=1, per_class=4, seed=2)
    assert a.inputs.tobytes() != b.inputs.tobytes()


def test_class_overlap_rejected():
    memory = update_memory(empty_memory(), class_dataset([0, 1], 10), 1, per_class=2, seed=0)
    with pytest.raises(DisjointnessError):
        update_memory(memory, class_dataset([1, 2], 10), task_index=2, per_class=2, seed=0)


def test_existing_entries_are_untouched():
    memory = update_memory(empty_memory(), class_dataset([0, 1], 10), 1, per_class=3, seed=0)
    columns = ("labels", "inputs")
    snapshot = [getattr(memory, name).tobytes() for name in columns]
    updated = update_memory(memory, class_dataset([2, 3], 10, seed=9), 2, per_class=3, seed=0)
    kept = [getattr(updated, name)[: len(memory)].tobytes() for name in columns]
    assert kept == snapshot
    assert set(updated.labels[len(memory) :].tolist()) == {2, 3}


def test_budget_never_exceeded_over_many_tasks():
    memory = empty_memory()
    for t in range(1, 5):
        data = class_dataset([10 * t, 10 * t + 1], 17, seed=t)
        memory = update_memory(memory, data, task_index=t, per_class=5, seed=7)
        assert np.unique(memory.labels, return_counts=True)[1].max() <= 5
    assert len(memory.class_ids()) == 8


def test_training_set_on_first_task_is_all_current():
    data = class_dataset([0, 1], 10)
    batch = build_training_set(empty_memory(), data)
    assert len(batch) == 20
    assert not batch.from_memory.any()


def test_training_set_union_and_flags():
    memory = update_memory(empty_memory(), class_dataset([0, 1], 10), 1, per_class=3, seed=0)
    current = class_dataset([2], 100, seed=4)
    batch = build_training_set(memory, current)
    assert len(batch) == 106
    assert int(batch.from_memory.sum()) == 6
    assert set(batch.labels[batch.from_memory]) == {0, 1}
    assert set(batch.labels[~batch.from_memory]) == {2}


def test_minibatches_partition_the_epoch():
    data = class_dataset([0, 1, 2], 11)
    batch = build_training_set(empty_memory(), data)
    seen = []
    for mini in iter_minibatches(batch, batch_size=8, rng=np.random.default_rng(0)):
        assert len(mini) <= 8
        seen.extend(mini.labels.tolist())
    assert len(seen) == 33
    assert sorted(seen) == sorted(batch.labels.tolist())


def test_minibatch_shuffle_is_seeded():
    data = class_dataset([0, 1], 16)
    batch = build_training_set(empty_memory(), data)
    runs = []
    for _ in range(2):
        rng = np.random.default_rng(123)
        runs.append([m.inputs.tobytes() for m in iter_minibatches(batch, 8, rng)])
    assert runs[0] == runs[1]
