"""Rehearsal memory: a bounded per-class store of past-task samples.

The memory is a ``LabeledDataset``: row ``i`` of ``inputs`` and ``labels``
together describe one stored sample, so building a training set reads whole
arrays. After a task finishes, a seeded uniform sample of its data (without
replacement, at most the per-class budget) is appended. Existing rows are
never touched, so the memory only grows and earlier tasks stay represented by
the exact samples first drawn for them. The budget and the seed are the
config's ``memory.per_class`` and ``trainer.train_seed``, which
``trainer.train_tasks`` passes in.
"""

from typing import Iterator

import numpy as np

from .data import LabeledDataset
from .errors import DisjointnessError
from .losses import LabeledBatch


def update_memory(
    memory: LabeledDataset,
    task_data: LabeledDataset,
    task_index: int,
    per_class: int,
    seed: int,
) -> LabeledDataset:
    """The memory with a seeded per-class sample of a finished task's data appended.

    Classes of the new task must be disjoint from everything already stored.
    Each new class contributes min(per_class, available) samples drawn
    uniformly without replacement; the draw is a pure function of (seed, task
    index), so identical runs store identical samples.
    """
    new_classes = np.unique(task_data.labels)
    overlap = np.intersect1d(memory.labels, new_classes)
    if overlap.size:
        raise DisjointnessError(
            f"task {task_index} classes {overlap.tolist()} already present in memory"
        )
    rng = np.random.default_rng([seed, task_index])
    picked = [np.empty(0, dtype=np.int64)]
    for cls in new_classes:
        candidates = np.flatnonzero(task_data.labels == cls)
        take = min(per_class, len(candidates))
        picked.append(np.sort(rng.choice(candidates, size=take, replace=False)))
    picked = np.concatenate(picked)
    return LabeledDataset(
        inputs=np.concatenate([memory.inputs, task_data.inputs[picked]]),
        labels=np.concatenate([memory.labels, task_data.labels[picked]]),
    )


def build_training_set(memory: LabeledDataset, task_data: LabeledDataset) -> LabeledBatch:
    """Union of memory and current-task samples, flagged by origin.

    Memory rows come first with the memory flag set; the epoch loop is
    responsible for seeded shuffling.
    """
    labels = np.concatenate([memory.labels, task_data.labels])
    return LabeledBatch(
        inputs=np.concatenate([memory.inputs, task_data.inputs]),
        labels=labels,
        from_memory=np.arange(len(labels)) < len(memory),
    )


def iter_minibatches(
    training_set: LabeledBatch, batch_size: int, rng: np.random.Generator
) -> Iterator[LabeledBatch]:
    """Yield shuffled mini-batches of one epoch; the permutation comes from rng."""
    order = rng.permutation(len(training_set))
    for start in range(0, len(order), batch_size):
        yield training_set.take(order[start : start + batch_size])
