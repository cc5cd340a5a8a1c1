"""The three quantities of the training objective.

* Cross-entropy from the classifier's own ``loss`` method, which is
  ``softmax_cross_entropy`` over its rows. For the fixed simplex prototypes
  the denominator ranges over the full class capacity: slots already
  assigned to seen classes and slots still unassigned both contribute.
* Feature distillation restricted to rehearsal samples: one minus the cosine
  between the current and the previous model's features, averaged over the
  memory samples present.
* Their weighted sum, with the weight scaled per task from the new-to-old
  class ratio.

``combined_loss`` is the one training step of both classifier modes. It
reads the distillation targets through ``add_distillation``. A batch may
carry the frozen previous model's features for its rows
(``LabeledBatch.teacher``); the trainer computes them once per task, since
neither that model nor the memory changes within a task. A batch without
them has its targets extracted from the previous model on the spot.

All functions are pure, and the log-sum-exp trick keeps large logits finite.
A run's logit convention is ``trainer.normalize_features`` (the preset
normalizes); ``combined_loss``'s raw-dot-product default serves loss-level use.
"""

import math
from dataclasses import dataclass

import numpy as np

from .data import as_flags, as_int64
from .errors import ConfigError, DataError, DegenerateFeatureError
from .network import (
    FeatureExtractorState,
    ParamGrads,
    backprop_feature_grads,
    extract_features,
    forward_features,
    row_norms,
)


@dataclass(frozen=True, eq=False)
class LabeledBatch:
    """Inputs, class labels, and a per-sample flag marking rehearsal samples.

    ``teacher``, when present, holds the previous model's features row for
    row; rows outside the distillation scope are NaN and are never read.
    """

    inputs: np.ndarray
    labels: np.ndarray
    from_memory: np.ndarray
    teacher: np.ndarray | None = None

    def __post_init__(self):
        object.__setattr__(self, "inputs", np.asarray(self.inputs, dtype=np.float64))
        object.__setattr__(self, "labels", np.asarray(self.labels))  # checked by the loss
        object.__setattr__(self, "from_memory", as_flags(self.from_memory, "from_memory"))
        if not (len(self.inputs) == len(self.labels) == len(self.from_memory)):
            raise DataError(
                f"batch field lengths differ: {len(self.inputs)} inputs, "
                f"{len(self.labels)} labels, {len(self.from_memory)} flags"
            )
        if self.teacher is not None:
            object.__setattr__(self, "teacher", np.asarray(self.teacher, dtype=np.float64))
            if self.teacher.ndim != 2 or len(self.teacher) != len(self.labels):
                raise DataError(
                    f"teacher features of shape {self.teacher.shape} do not match "
                    f"{len(self.labels)} batch rows"
                )

    def __len__(self) -> int:
        return len(self.labels)

    def take(self, indices) -> "LabeledBatch":
        teacher = None if self.teacher is None else self.teacher[indices]
        return LabeledBatch(
            self.inputs[indices], self.labels[indices], self.from_memory[indices], teacher
        )


@dataclass(frozen=True)
class LossReport:
    """One evaluation of the combined objective.

    ``total`` is ``ce_value + lambda_weight * fd_value``, the weight given to
    ``combined_loss``, computed so that the decomposition holds exactly.
    """

    ce_value: float
    fd_value: float
    total: float
    fd_count: int


def _normalize_rows(features: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    norms = row_norms(features)
    if not norms.all():
        zero = np.flatnonzero(norms == 0.0)[0]
        raise DegenerateFeatureError(f"zero-norm feature at sample index {zero}")
    return features / norms[:, None], norms


def softmax_cross_entropy(
    features,
    labels,
    weight_matrix: np.ndarray,
    normalize_features: bool,
    want_weight_grads: bool,
):
    """Mean cross-entropy of logits ``f @ W.T`` with gradients.

    Returns (loss, dloss/dfeatures, dloss/dW or None).
    """
    features = np.asarray(features, dtype=np.float64)
    if features.ndim != 2:
        raise DataError(f"features must be one row per sample, got shape {features.shape}")
    n = len(features)
    if n == 0:
        raise DataError("cross-entropy mean over an empty batch is undefined")
    labels = as_int64(labels, "labels")
    if features.shape[1] != weight_matrix.shape[1]:
        raise DataError(
            f"feature dimension {features.shape[1]} does not match classifier "
            f"dimension {weight_matrix.shape[1]}"
        )
    if labels.shape != (n,):
        raise DataError(f"{n} feature rows but labels of shape {labels.shape}")
    capacity = weight_matrix.shape[0]
    if labels.min() < 0 or labels.max() >= capacity:
        bad = labels[(labels < 0) | (labels >= capacity)][0]
        raise DataError(f"label {bad} outside classifier capacity {capacity}")

    if normalize_features:
        effective, norms = _normalize_rows(features)
    else:
        effective = features

    # Logits shifted in place by the row maximum; log-softmax taken only at each row's label.
    shifted = effective @ weight_matrix.T
    shifted -= shifted.max(axis=1, keepdims=True)
    dlogits = np.exp(shifted)
    denom = np.add.reduce(dlogits, axis=1)
    rows = np.arange(n)
    loss = -float(np.add.reduce(shifted[rows, labels] - np.log(denom)) / n)

    dlogits /= denom[:, None]
    dlogits[rows, labels] -= 1.0
    dlogits /= n
    dfeatures = dlogits @ weight_matrix
    dweights = dlogits.T @ effective if want_weight_grads else None

    if normalize_features:
        # d/df of f/|f|: remove the radial component, then divide by the norm.
        dfeatures -= np.add.reduce(dfeatures * effective, axis=1)[:, None] * effective
        dfeatures /= norms[:, None]
    return loss, dfeatures, dweights


def feature_distillation_loss(new_features, old_features) -> tuple[float, np.ndarray]:
    """Mean of (1 - cosine) between current and previous features.

    ``old_features`` are constants: no gradient flows toward the model that
    produced them. The cosine is clipped to [-1, 1] so the value stays in
    [0, 2] even when both sides are bitwise identical.
    """
    new = np.asarray(new_features, dtype=np.float64)
    old = np.asarray(old_features, dtype=np.float64)
    if new.shape != old.shape or new.ndim != 2:
        raise DataError(f"feature shapes differ: {new.shape} vs {old.shape}")
    if len(new) == 0:
        raise DataError("feature distillation over an empty sample set is undefined")
    n_unit, n_norms = _normalize_rows(new)
    o_unit, _ = _normalize_rows(old)
    cos = np.clip(np.add.reduce(n_unit * o_unit, axis=1), -1.0, 1.0)
    # Identical rows have cosine 1 by definition; rounding in the dot product
    # must not turn them into a distillation penalty.
    cos[(new == old).all(axis=1)] = 1.0
    count = len(new)
    value = float(np.add.reduce(1.0 - cos) / count)
    # -(o_unit - cos * n_unit) / (|new| * count), the sign moved into the divisor.
    return value, (o_unit - cos[:, None] * n_unit) / (n_norms * -count)[:, None]


def lambda_for_task(lambda_base: float, new_class_count: int, old_class_count: int) -> float:
    """Distillation weight: base times sqrt(new classes / old classes in memory).

    Zero when there are no old classes yet (first task: no previous model, so
    the distillation term is absent).
    """
    if lambda_base < 0:
        raise ConfigError(f"lambda_base must be non-negative, got {lambda_base}")
    if new_class_count < 1:
        raise ConfigError(f"new_class_count must be >= 1, got {new_class_count}")
    if old_class_count < 0:
        raise ConfigError(f"old_class_count must be non-negative, got {old_class_count}")
    if old_class_count == 0:
        return 0.0
    return lambda_base * math.sqrt(new_class_count / old_class_count)


def distillation_mask(batch: LabeledBatch, fd_scope: str) -> np.ndarray:
    """Rows the distillation term covers: rehearsal samples, or every row."""
    return batch.from_memory if fd_scope == "memory" else np.ones(len(batch), dtype=bool)


def add_distillation(
    batch: LabeledBatch,
    features: np.ndarray,
    dfeatures: np.ndarray,
    previous_model: FeatureExtractorState | None,
    lambda_weight: float,
    fd_scope: str,
) -> tuple[float, int]:
    """Add ``lambda_weight`` times the distillation gradient to ``dfeatures``.

    The targets are the batch's ``teacher`` rows when it carries them, else
    the previous model's features computed here. Updates ``dfeatures`` in
    place over the scope rows and returns (distillation value, rows covered);
    (0.0, 0) when the weight is zero or the batch has no row in scope.
    """
    if lambda_weight <= 0:
        return 0.0, 0
    rows = np.flatnonzero(distillation_mask(batch, fd_scope))
    if not rows.size:
        return 0.0, 0
    if batch.teacher is not None:
        old = batch.teacher[rows]
    else:
        # Reference path for batches built without cached targets. It runs the
        # previous model on the whole batch, the same matmul shape as the
        # current model's forward pass, so identical models give bitwise
        # identical rows and a distillation value of exactly zero.
        old = extract_features(previous_model, batch.inputs)[rows]
    fd_value, dfd = feature_distillation_loss(features[rows], old)
    dfeatures[rows] += lambda_weight * dfd
    return fd_value, len(rows)


def combined_loss(
    batch: LabeledBatch,
    current_model: FeatureExtractorState,
    previous_model: FeatureExtractorState | None,
    classifier,
    lambda_weight: float,
    fd_scope: str = "memory",
    normalize_features: bool = False,
) -> tuple[LossReport, ParamGrads]:
    """Cross-entropy over the whole batch plus weighted distillation.

    ``classifier`` is the fixed ``SimplexPrototypes`` or the trainer's
    ``TrainableClassifier``; its ``loss`` gives the cross-entropy term. The
    distillation term covers only the samples flagged as rehearsal memory
    (``fd_scope="memory"``, the default) or every sample (``fd_scope="all"``,
    the traditional variant kept for ablation). A batch that happens to carry
    no eligible samples contributes a zero distillation term. Gradients flow
    through the current model and, when it is trainable, the classifier's
    rows (``ParamGrads.classifier``); the previous model stays untouched.
    """
    if fd_scope not in ("memory", "all"):
        raise ConfigError(f"fd_scope must be 'memory' or 'all', got {fd_scope!r}")
    if lambda_weight > 0 and previous_model is None:
        raise ConfigError("distillation weight is positive but no previous model was given")

    features, cache = forward_features(current_model, batch.inputs)
    ce_value, dfeatures, dweights = classifier.loss(features, batch.labels, normalize_features)
    fd_value, fd_count = add_distillation(
        batch, features, dfeatures, previous_model, lambda_weight, fd_scope
    )
    grads = backprop_feature_grads(current_model, cache, dfeatures)
    grads.classifier = dweights
    report = LossReport(
        ce_value=ce_value,
        fd_value=fd_value,
        total=ce_value + lambda_weight * fd_value,
        fd_count=fd_count,
    )
    return report, grads
