"""Episodic rehearsal memory: a bounded per-class store of past-task samples.

After a task finishes, a seeded uniform sample of its data (without
replacement, at most the per-class budget) is appended. Existing rows are
never touched, so the store only grows and earlier tasks stay represented by
the exact samples first drawn for them.

The store is columnar: row ``i`` of ``inputs`` and ``labels`` together
describe one stored sample, so building a training set reads whole arrays.
"""

from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

from .data import LabeledDataset
from .errors import DisjointnessError
from .losses import LabeledBatch


def _no_rows() -> np.ndarray:
    return np.empty(0, dtype=np.int64)


@dataclass(frozen=True)
class EpisodicMemory:
    """Stored samples as two row-aligned columns.

    An empty memory has ``inputs`` of shape (0, 0): it has no input width yet.
    """

    per_class_budget: int
    rng_seed: int
    inputs: np.ndarray = field(default_factory=lambda: np.empty((0, 0)))
    labels: np.ndarray = field(default_factory=_no_rows)

    def __len__(self) -> int:
        return len(self.labels)

    def class_count(self) -> int:
        return len(np.unique(self.labels))

    def input_rows(self, input_dim: int) -> np.ndarray:
        """``inputs`` with ``input_dim`` columns, also when the memory is empty."""
        return self.inputs.reshape(len(self), input_dim)


def update_memory(
    memory: EpisodicMemory,
    task_data: LabeledDataset,
    task_index: int,
) -> EpisodicMemory:
    """Append a seeded per-class sample of a finished task's data.

    Classes of the new task must be disjoint from everything already stored.
    Each new class contributes min(budget, available) samples drawn uniformly
    without replacement; the draw is a pure function of (memory seed, task
    index), so identical runs store identical samples.
    """
    new_classes = np.unique(task_data.labels)
    overlap = np.intersect1d(memory.labels, new_classes)
    if overlap.size:
        raise DisjointnessError(
            f"task {task_index} classes {overlap.tolist()} already present in memory"
        )
    rng = np.random.default_rng([memory.rng_seed, task_index])
    picked = [_no_rows()]
    for cls in new_classes:
        candidates = np.flatnonzero(task_data.labels == cls)
        take = min(memory.per_class_budget, len(candidates))
        picked.append(np.sort(rng.choice(candidates, size=take, replace=False)))
    picked = np.concatenate(picked)
    return EpisodicMemory(
        per_class_budget=memory.per_class_budget,
        rng_seed=memory.rng_seed,
        inputs=np.concatenate([memory.input_rows(task_data.input_dim), task_data.inputs[picked]]),
        labels=np.concatenate([memory.labels, task_data.labels[picked]]),
    )


def build_training_set(memory: EpisodicMemory, task_data: LabeledDataset) -> LabeledBatch:
    """Union of memory and current-task samples, flagged by origin.

    Memory rows come first with the memory flag set; the epoch loop is
    responsible for seeded shuffling.
    """
    labels = np.concatenate([memory.labels, task_data.labels])
    return LabeledBatch(
        inputs=np.concatenate([memory.input_rows(task_data.input_dim), task_data.inputs]),
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
