"""Verification metrics and cross-model compatibility summaries.

A pair set (``data.VerificationPairSet``) holds index pairs into the held-out
rows it carries. Scoring extracts each model's features once over every
held-out row and computes each feature's norm once, which is where a zero or
non-finite norm is refused (``network.feature_norms``, the rule gallery search
applies to its queries): once per model, not once per cell. Both are then
gathered by pair index: the first sample of every pair is seen by the
query-side model, the second by the gallery-side model, and the score is their
cosine similarity. From the scored pairs two metrics are available:
best-threshold verification accuracy and the true acceptance rate at a false
acceptance rate target. ``check_metric`` is the one rule for a metric and its
far target.

Scoring every (newer model, older model) combination of a training timeline
on one static pair set fills the lower triangle of the compatibility matrix:
diagonal cells are self-tests, cells below the diagonal are cross-tests, and
cells above the diagonal are fixed to zero because evaluating an older model
against a newer gallery has no reliable interpretation. Every checkpoint is
extracted once, however many cells it takes part in. The summary report
condenses the matrix into the average, backward, and forward compatibility
numbers, the per-task backward series and the lower triangle's mean (AM).

No extraction depends on another, nor any cell, so ``on_every_cpu`` runs the
checkpoints' extractions and then the cells on a pool, each exactly as alone
(``pair_scores`` and then the metric): the matrix holds the same bytes on one CPU
or many. Extraction is gemm, which runs outside the GIL, and numpy releases it
in the cells' gathers, products and sums too: on 2 CPUs, 15 cells of 60,000
pairs of 99-d features took 140 ms on the pool against 230 ms one after another.
Pooled extraction is affordable because a forward pass keeps one array per
layer: a pass that kept three raised peak RSS well above serial extraction's.
"""

import numbers
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .data import VerificationPairSet, as_flags
from .errors import DataError, DegenerateFeatureError, MetricUndefinedError
from .network import FeatureExtractorState, extract_features, feature_norms

METRIC_KINDS = ("accuracy", "tar_at_far")
# Pairs whose gathered feature rows ``gathered_cosines`` holds at once. Every worker
# holds its own block; larger blocks raised peak RSS at the same speed.
SCORE_BLOCK = 512


def check_metric(metric: str, far_target: float | None) -> None:
    """A known metric, with a far target in (0, 1] for tar_at_far and none for others."""
    if metric not in METRIC_KINDS:
        raise DataError(f"metric must be one of {METRIC_KINDS}, got {metric!r}")
    if (metric == "tar_at_far") != (far_target is not None):
        raise DataError(f"{metric} with far_target {far_target}: tar_at_far alone takes one")
    real = isinstance(far_target, numbers.Real) and not isinstance(far_target, bool)
    if far_target is not None and not real:  # as in the config rules, a bool is no number
        raise DataError(f"far_target must be a number, got {far_target!r}")
    if far_target is not None and not 0.0 < far_target <= 1.0:  # NaN fails too
        raise DataError(f"far_target must be in (0, 1], got {far_target}")


@dataclass(frozen=True)
class MetricResult:
    value: float
    threshold: float


@dataclass(frozen=True, eq=False)
class CompatibilityMatrix:
    """Lower-triangular matrix of self-tests (diagonal) and cross-tests."""

    values: np.ndarray
    metric: str
    far_target: float | None = None
    thresholds: np.ndarray | None = None

    def __post_init__(self):
        values = np.asarray(self.values, dtype=np.float64)
        if values.ndim != 2 or values.shape[0] != values.shape[1]:
            raise DataError(f"compatibility matrix must be square, got {values.shape}")
        if np.any(np.triu(values, k=1) != 0.0):
            raise DataError("compatibility matrix must be zero above the diagonal")
        tril = values[np.tril_indices(values.shape[0])]
        # Written so that NaN, which fails every comparison, fails the check.
        if not np.all((tril >= 0.0) & (tril <= 1.0)):
            raise DataError("compatibility matrix entries must lie in [0, 1]")
        check_metric(self.metric, self.far_target)
        object.__setattr__(self, "values", values)
        if self.far_target is not None:  # a numpy scalar's repr would reach matrix.csv
            object.__setattr__(self, "far_target", float(self.far_target))

    @property
    def num_tasks(self) -> int:
        return self.values.shape[0]


@dataclass(frozen=True)
class CompatibilityReport:
    """Summary numbers derived from a compatibility matrix.

    ``am`` is the mean of the T(T + 1)/2 cells on and below the diagonal.
    ``bc_series[i]`` is the backward compatibility after task ``i + 2``; its
    last element equals ``bc``.
    """

    ac: float
    am: float
    bc: float
    fc: float
    bc_series: tuple[float, ...]


def _heldout_features(model: FeatureExtractorState, pairs) -> tuple[np.ndarray, np.ndarray]:
    """One model's features for every held-out row, with their norms."""
    feats = extract_features(model, pairs.dataset.inputs)
    return feats, feature_norms(feats, lambda i: f"feature of held-out row {i}")


def gathered_cosines(side_a, rows_a, side_b, rows_b) -> np.ndarray:
    """Cosine of row ``rows_a[i]`` of side A, a (features, norms) pair, with row ``rows_b[i]``
    of side B: the element-wise sum of their products over their norms' product, clipped to
    [-1, 1]. Gathered rows go ``SCORE_BLOCK`` pairs at a time, however many pairs there are."""
    (feats_a, norms_a), (feats_b, norms_b) = side_a, side_b
    dims = feats_a.shape[1], feats_b.shape[1]
    if dims[0] != dims[1]:
        raise DataError(f"models have different feature dimensions: {dims[0]} vs {dims[1]}")
    dots = np.empty(len(rows_a))
    for start in range(0, len(dots), SCORE_BLOCK):
        block = slice(start, start + SCORE_BLOCK)
        rows = feats_a.take(rows_a[block], 0)
        rows *= feats_b.take(rows_b[block], 0)
        np.add.reduce(rows, 1, out=dots[block])
    dots /= norms_a.take(rows_a) * norms_b.take(rows_b)
    return np.minimum(np.maximum(dots, -1.0, out=dots), 1.0, out=dots)  # np.clip costs more


def pair_scores(
    pairs: VerificationPairSet,
    query_model: FeatureExtractorState,
    gallery_model: FeatureExtractorState,
) -> tuple[np.ndarray, np.ndarray]:
    """Cosine score of every pair: query model on side A, gallery model on side B."""
    query, gallery = _heldout_features(query_model, pairs), _heldout_features(gallery_model, pairs)
    return gathered_cosines(query, pairs.ids_a, gallery, pairs.ids_b), pairs.genuine.copy()


def _scored_pairs(scores, genuine) -> tuple[np.ndarray, np.ndarray]:
    """``scores`` as floats and ``genuine`` as flags, checked to be one finite score per flag."""
    scores = np.asarray(scores, dtype=np.float64)
    genuine = np.asarray(genuine)
    if scores.ndim != 1 or genuine.shape != scores.shape:
        raise DataError(f"scores of shape {scores.shape} for flags of shape {genuine.shape}")
    if not len(scores):
        raise DataError("verification metrics need at least one pair")
    if not np.isfinite(scores).all():
        raise DataError("scores must be finite")
    return scores, as_flags(genuine, "genuine")


def _threshold_sweep(scores: np.ndarray, genuine: np.ndarray):
    """Shared machinery for the threshold sweeps.

    Sorting ascending, a cut at position ``i`` predicts the first ``i`` pairs
    impostor and the rest genuine. Valid cuts are the two ends (thresholds
    -inf and +inf) and every boundary between two distinct scores (threshold
    at their midpoint). Returns, per valid cut, the threshold and the counts
    of genuine and impostor pairs below it.
    """
    # Tied scores share a cut, so their order changes no output: any sort will do.
    order = np.argsort(scores)
    s = scores[order]
    cum_genuine = np.concatenate(([0], np.cumsum(genuine[order])))
    cuts = np.flatnonzero(s[1:] != s[:-1]) + 1
    positions = np.concatenate(([0], cuts, [len(s)]))
    thresholds = np.concatenate(([-np.inf], (s[cuts - 1] + s[cuts]) / 2.0, [np.inf]))
    gen_below = cum_genuine[positions]
    return thresholds, gen_below, positions - gen_below


def verification_accuracy(scores, genuine) -> MetricResult:
    """Accuracy at the best threshold over the full sweep.

    Candidate thresholds are the midpoints between consecutive distinct
    scores plus -inf and +inf sentinels; a pair is predicted genuine when its
    score exceeds the threshold. Ties between equally accurate thresholds are
    broken toward the lower threshold.
    """
    scores, genuine = _scored_pairs(scores, genuine)
    n = len(scores)
    thresholds, gen_below, imp_below = _threshold_sweep(scores, genuine)
    total_genuine = int(genuine.sum())
    correct = (imp_below + (total_genuine - gen_below)).astype(np.float64)
    best = int(np.argmax(correct))  # argmax takes the first maximum: lowest threshold
    return MetricResult(value=float(correct[best] / n), threshold=float(thresholds[best]))


def tar_at_far(scores, genuine, far_target: float) -> MetricResult:
    """True acceptance rate at the loosest threshold meeting the FAR target.

    Chooses the smallest threshold whose measured false acceptance rate does
    not exceed ``far_target`` and reports the true acceptance rate there.
    """
    check_metric("tar_at_far", far_target)
    scores, genuine = _scored_pairs(scores, genuine)
    total_genuine = int(genuine.sum())
    total_impostor = int((~genuine).sum())
    if total_impostor == 0:
        raise DataError("TAR@FAR needs at least one impostor pair")
    thresholds, gen_below, imp_below = _threshold_sweep(scores, genuine)
    far = (total_impostor - imp_below) / total_impostor
    ok = np.flatnonzero(far <= far_target)
    pick = int(ok[0])  # FAR is nonincreasing in the threshold; take the smallest
    if total_genuine == 0:
        tar = 0.0
    else:
        tar = float((total_genuine - gen_below[pick]) / total_genuine)
    return MetricResult(value=tar, threshold=float(thresholds[pick]))


def _cpu_count() -> int:
    """CPUs this process may run on: its affinity mask, where the system has one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def on_every_cpu(fn, items) -> list:
    """``[fn(item) for item in items]``, on one worker per CPU the process may run on.

    ``items`` is a non-empty sequence. The calling thread takes every workers-th
    item and a pool of workers - 1 threads the rest, so one worker starts no
    thread. Each thread that allocates gets a glibc malloc arena that keeps what
    it freed, so large buffers are best allocated before the split. The
    results are taken in item order, so the error of the lowest-indexed item that
    fails reaches the caller, whatever the CPU count, once the pool's threads end.
    """
    workers = min(_cpu_count(), len(items))
    with ThreadPoolExecutor(max_workers=max(workers - 1, 1)) as pool:
        helped = {i: pool.submit(fn, item) for i, item in enumerate(items) if i % workers}
        return [helped[i].result() if i in helped else fn(item) for i, item in enumerate(items)]


def build_compatibility_matrix(
    models,
    pairs: VerificationPairSet,
    metric: str = "accuracy",
    far_target: float | None = None,
) -> CompatibilityMatrix:
    """Score every (query model, gallery model) combination on one pair set.

    ``models`` are the frozen per-task checkpoints in training order. Cell
    (t, k) with t > k scores queries from the newer model against galleries
    from the older one; the diagonal holds self-tests; cells above the
    diagonal stay zero. The same static pair set is used for every cell, and
    each model is extracted once over every held-out row. The extractions, then
    the cells, run on ``on_every_cpu``.
    """
    models = list(models)
    if len(models) < 1:
        raise DataError("need at least one checkpoint to build a compatibility matrix")
    check_metric(metric, far_target)
    t_count = len(models)

    def extract(t):
        try:
            return _heldout_features(models[t], pairs)
        except DegenerateFeatureError as exc:
            raise DegenerateFeatureError(f"checkpoint of task {t + 1}: {exc}") from None

    features = on_every_cpu(extract, range(t_count))

    def score(cell) -> MetricResult:
        t, k = cell
        scores = gathered_cosines(features[t], pairs.ids_a, features[k], pairs.ids_b)
        if metric == "accuracy":
            return verification_accuracy(scores, pairs.genuine)
        return tar_at_far(scores, pairs.genuine, far_target)

    cells = [(t, k) for t in range(t_count) for k in range(t + 1)]
    values = np.zeros((t_count, t_count), dtype=np.float64)
    thresholds = np.full((t_count, t_count), np.nan, dtype=np.float64)
    for (t, k), result in zip(cells, on_every_cpu(score, cells)):
        values[t, k] = result.value
        thresholds[t, k] = result.threshold
    return CompatibilityMatrix(
        values=values, metric=metric, far_target=far_target, thresholds=thresholds
    )


def compatibility_report(matrix: CompatibilityMatrix) -> CompatibilityReport:
    """Condense a compatibility matrix into its summary numbers.

    Average compatibility counts how often a cross-test strictly beats the
    corresponding self-test, normalized by the number of comparisons; a tie is
    a loss. Average multi-model accuracy is the mean of the lower triangle.
    Backward compatibility after task t averages (row t minus the diagonal)
    over the earlier tasks; the scalar value is the series at the final task.
    Forward compatibility averages (first subdiagonal minus diagonal).
    """
    c = matrix.values
    t_count = matrix.num_tasks
    if t_count < 2:
        raise MetricUndefinedError(
            "compatibility summaries need at least two tasks; self-tests alone "
            "admit no cross-model comparison"
        )
    wins = 0
    for t in range(1, t_count):
        for k in range(t):
            if c[t, k] > c[k, k]:
                wins += 1
    ac = 2.0 * wins / (t_count * (t_count - 1))
    am = float(c[np.tril_indices(t_count)].mean())

    bc_series = []
    for t in range(1, t_count):
        gaps = [c[t, k] - c[k, k] for k in range(t)]
        bc_series.append(sum(gaps) / t)
    bc = bc_series[-1]

    fc = sum(c[k, k - 1] - c[k, k] for k in range(1, t_count)) / (t_count - 1)
    return CompatibilityReport(ac=ac, am=am, bc=bc, fc=fc, bc_series=tuple(bc_series))
