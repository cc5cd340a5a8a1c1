"""Sequential task training with rehearsal and frozen per-task checkpoints.

Each task trains the running model on the union of its own data and the
rehearsal memory, minimizing cross-entropy plus the weighted distillation term
against the frozen previous checkpoint. When the task finishes, the model is
snapshotted into an immutable checkpoint, the memory absorbs a sample of the
task's data, and the next task warm-starts from the current parameters. The
memory is a ``LabeledDataset``; ``run_sequence`` starts it empty at the
model's input width and grows it with ``memory.per_class`` samples per class,
drawn with ``trainer.train_seed``.

The frozen previous checkpoint and the memory stay fixed for a whole task, so
the checkpoint's features for the rows in the distillation scope are computed
once when the task starts, and every mini-batch gathers its targets from
them.

Both classifier modes run the same step, ``losses.combined_loss``, through
the classifier's ``loss`` method. Only the trainable classifier returns a
gradient for its rows, which it then applies to itself.

Two ablation axes are exposed: the classifier is the fixed simplex (the
proper procedure) or a trainable per-class weight matrix grown at every task
(the plain experience-replay baseline), and distillation covers memory samples
only, the whole batch, or nothing. ``ExperimentConfig`` meets the ``config``
rules; ``run_sequence`` checks the simplex's dimension (capacity - 1) and the
tasks' input width first.
Only ``write_training_log`` writes a file; ``cli.cmd_train`` calls it.
"""

import time
from dataclasses import dataclass, field, replace

import numpy as np

from .config import DEFAULT_CONFIG, check_fields
from .container import write_atomic
from .data import LabeledDataset, Task, TaskSequence
from .errors import ConfigError, DataError, DivergenceError
from .geometry import build_simplex
from .losses import (
    LabeledBatch,
    combined_loss,
    distillation_mask,
    lambda_for_task,
    softmax_cross_entropy,
)
from .memory import build_training_set, iter_minibatches, update_memory
from .network import (
    FeatureExtractorState,
    ModelConfig,
    TrainingHyperparams,
    apply_gradients,
    check_gradient,
    extract_features,
    init_model,
    sgd_update,
)


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything a training run needs besides the task sequence itself."""

    model: ModelConfig
    hyperparams: TrainingHyperparams
    memory_per_class: int
    classifier_mode: str = "fixed_simplex"
    fd_mode: str = "memory_only"
    train_seed: int = 0
    normalize_features: bool = False

    def __post_init__(self):
        check_fields("memory", {"per_class": self.memory_per_class})
        check_fields("trainer", {key: getattr(self, key) for key in DEFAULT_CONFIG["trainer"]})


@dataclass(frozen=True)
class EpochLog:
    """One row of the per-epoch training log CSV."""

    task: int
    epoch: int
    ce: float
    fd: float
    lambda_weight: float
    total: float


class TrainableClassifier:
    """Per-class weight rows for the experience-replay baseline.

    Rows are appended with seeded random values when a task introduces new
    classes and are updated by the same SGD rule as the feature extractor.
    Growing restarts every row's momentum, as a task starts its schedule fresh.
    """

    def __init__(self, feature_dim: int):
        self.feature_dim = feature_dim
        self.weights = np.zeros((0, feature_dim), dtype=np.float64)
        self.velocity = np.zeros((0, feature_dim), dtype=np.float64)

    def grow(self, new_class_count: int, rng: np.random.Generator) -> None:
        limit = np.sqrt(6.0 / (self.feature_dim + 1))
        fresh = rng.uniform(-limit, limit, size=(new_class_count, self.feature_dim))
        self.weights = np.concatenate([self.weights, fresh])
        self.velocity = np.zeros_like(self.weights)

    def loss(self, features, labels, normalize_features: bool):
        """Cross-entropy over the seen classes: (loss, dloss/dfeatures, dloss/dweights).

        Unlike the fixed prototypes there are no rows for future classes.
        """
        return softmax_cross_entropy(
            features, labels, self.weights, normalize_features, want_weight_grads=True
        )

    def apply_gradients(self, grads: np.ndarray, hyperparams: TrainingHyperparams, epoch: int):
        check_gradient(grads, self.weights, "classifier weights")
        sgd_update(
            self.weights,
            grads,
            self.velocity,
            hyperparams.effective_lr(epoch),
            hyperparams.momentum,
            hyperparams.weight_decay,
        )


@dataclass
class ModelTimeline:
    """Outcome of a full sequence: the frozen checkpoints, per-task logs and wall times.

    The fixed simplex is ``build_simplex(total_classes)`` and the final memory
    is a seeded fold of ``update_memory``, so neither needs keeping.
    """

    checkpoints: list[FeatureExtractorState] = field(default_factory=list)
    logs: list[list[EpochLog]] = field(default_factory=list)
    task_seconds: list[float] = field(default_factory=list)


def with_teacher(
    training_set: LabeledBatch, previous: FeatureExtractorState, fd_scope: str
) -> LabeledBatch:
    """The training set carrying the previous model's features for its scope rows."""
    scope = distillation_mask(training_set, fd_scope)
    teacher = np.full((len(training_set), previous.config.feature_dim), np.nan)
    teacher[scope] = extract_features(previous, training_set.inputs[scope])
    return replace(training_set, teacher=teacher)


def run_task(
    state: FeatureExtractorState,
    task: Task,
    previous: FeatureExtractorState | None,
    memory: LabeledDataset,
    classifier,
    config: ExperimentConfig,
) -> tuple[FeatureExtractorState, list[EpochLog]]:
    """Train one task on its data and the memory; return (frozen checkpoint, log rows).

    ``classifier`` is the shared SimplexPrototypes in fixed mode or the
    TrainableClassifier in baseline mode. The distillation weight comes from
    the new-to-old class ratio and is zero on the first task or when the
    distillation mode is off.
    """
    hp = config.hyperparams
    training_set = build_training_set(memory, task.data)
    new_class_count = len(task.classes)
    old_class_count = len(memory.class_ids())
    if config.fd_mode == "off" or previous is None:
        lambda_weight = 0.0
    else:
        lambda_weight = lambda_for_task(hp.lambda_base, new_class_count, old_class_count)
    fd_scope = "all" if config.fd_mode == "full_batch" else "memory"
    if lambda_weight > 0:
        training_set = with_teacher(training_set, previous, fd_scope)

    rows: list[EpochLog] = []
    for epoch in range(hp.epochs_per_task):
        rng = np.random.default_rng([config.train_seed, task.index, epoch])
        ce_sum = 0.0
        fd_sum = 0.0
        fd_n = 0
        for batch in iter_minibatches(training_set, hp.batch_size, rng):
            try:
                report, grads = combined_loss(
                    batch,
                    state,
                    previous,
                    classifier,
                    lambda_weight,
                    fd_scope=fd_scope,
                    normalize_features=config.normalize_features,
                )
                if not np.isfinite(report.total):
                    raise DivergenceError("non-finite loss")
                apply_gradients(state, grads, hp, epoch)
                if grads.classifier is not None:
                    classifier.apply_gradients(grads.classifier, hp, epoch)
            except DivergenceError as exc:
                raise DivergenceError(f"task {task.index}, epoch {epoch}: {exc}") from None
            ce_sum += report.ce_value * len(batch)
            fd_sum += report.fd_value * report.fd_count
            fd_n += report.fd_count
        if not state.all_finite():
            raise DivergenceError(
                f"non-finite parameters after task {task.index}, epoch {epoch}"
            )
        ce_epoch = ce_sum / len(training_set) if len(training_set) else 0.0
        fd_epoch = fd_sum / fd_n if fd_n else 0.0
        rows.append(
            EpochLog(
                task=task.index,
                epoch=epoch,
                ce=ce_epoch,
                fd=fd_epoch,
                lambda_weight=lambda_weight,
                total=ce_epoch + lambda_weight * fd_epoch,
            )
        )

    return state.copy().freeze(), rows


def run_sequence(config: ExperimentConfig, sequence: TaskSequence) -> ModelTimeline:
    """Fold task training over the whole sequence and collect the timeline.

    Each task's model starts from the previous task's final parameters
    (incremental fine-tuning); momentum buffers are cleared at task
    boundaries so every task starts its schedule fresh.
    """
    fixed_mode = config.classifier_mode == "fixed_simplex"
    if fixed_mode:
        classifier = build_simplex(sequence.total_classes)
        if config.model.feature_dim != classifier.dim:
            raise ConfigError(
                f"feature_dim {config.model.feature_dim} does not match class capacity "
                f"{sequence.total_classes} (expected {classifier.dim})"
            )
    else:
        classifier = TrainableClassifier(config.model.feature_dim)
    widths = {task.data.input_dim for task in sequence.tasks} - {config.model.input_dim}
    if widths:
        raise DataError(
            f"tasks have {widths.pop()} input columns, the model expects {config.model.input_dim}"
        )
    state = init_model(config.model)
    memory = LabeledDataset(np.zeros((0, config.model.input_dim)), np.zeros(0, np.int64))
    timeline = ModelTimeline()
    previous: FeatureExtractorState | None = None
    for task in sequence.tasks:
        started = time.perf_counter()
        if not fixed_mode:
            grow_rng = np.random.default_rng([config.train_seed, 7919, task.index])
            classifier.grow(len(task.classes), grow_rng)
        state.reset_optimizer()
        checkpoint, rows = run_task(state, task, previous, memory, classifier, config)
        memory = update_memory(
            memory, task.data, task.index, config.memory_per_class, config.train_seed
        )
        timeline.checkpoints.append(checkpoint)
        timeline.logs.append(rows)
        timeline.task_seconds.append(time.perf_counter() - started)
        previous = checkpoint
    return timeline


def write_training_log(rows: list[EpochLog], path) -> None:
    """Write the per-epoch log as CSV: floats as their ``repr``, CRLF line ends."""
    lines = ["task,epoch,ce,fd,lambda,total\r\n"] + [
        f"{r.task},{r.epoch},{r.ce!r},{r.fd!r},{r.lambda_weight!r},{r.total!r}\r\n" for r in rows
    ]
    write_atomic(path, ["".join(lines).encode("utf-8")])
