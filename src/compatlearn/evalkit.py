"""Verification metrics and cross-model compatibility summaries.

A pair set holds indices into the held-out inputs, not copies of them: pair
``i`` compares sample ``ids_a[i]`` with sample ``ids_b[i]``. Scoring extracts
each model's features once per distinct sample the pairs touch and computes
each feature's norm once, which is where a zero or non-finite norm is refused
(``network.feature_norms``, the rule gallery search applies to its queries):
once per model, not once per cell. Both are then gathered by pair index: the
first sample of every pair is seen by the query-side model, the second by the
gallery-side model, and the score is their cosine similarity. From the scored
pairs two metrics are available: best-threshold verification accuracy and the
true acceptance rate at a false acceptance rate target.

Scoring every (newer model, older model) combination of a training timeline
on one static pair set fills the lower triangle of the compatibility matrix:
diagonal cells are self-tests, cells below the diagonal are cross-tests, and
cells above the diagonal are fixed to zero because evaluating an older model
against a newer gallery has no reliable interpretation. Every checkpoint is
extracted once, however many cells it takes part in. The summary report
condenses the matrix into the average, backward, and forward compatibility
numbers plus the per-task backward series.

No extraction depends on another, nor any cell, so ``on_every_cpu`` runs the
checkpoints' extractions and then the cells on a pool, each exactly as alone
(``pair_scores`` and then the metric): the matrix holds the same bytes on one CPU
or many. Extraction is gemm, which runs outside the GIL. The cell kernels
(gathers, products, sums, sorts) use no BLAS and at these sizes hold it: with
numpy 2.4.6, mid-scale cells on 2 workers ran at CPU/wall 1.00. Pooled extraction
is affordable because a forward pass keeps one array per layer: with the former
pass it raised the mid-scale benchmark's peak RSS to 211 MB. On 2 vCPUs (10 runs
each) mid-scale eval took a median 0.321 s of wall time against 0.352 s with
serial extraction, at a peak RSS of 163 MB against 160 MB.
"""

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import DataError, DegenerateFeatureError, MetricUndefinedError
from .network import FeatureExtractorState, extract_features, feature_norms

METRIC_KINDS = ("accuracy", "tar_at_far")
# Pairs whose gathered feature rows a cell holds at once. Every worker holds its
# own block; at 4096 rows the mid-scale peak RSS was 171 MB, against 161-168 MB
# at 512 and the same speed.
SCORE_BLOCK = 512


def fits_int64(array: np.ndarray) -> bool:
    """Whether ``array`` holds integers (no bools, floats or objects) that int64 holds."""
    return array.dtype.kind in "iu" and bool((array <= np.iinfo(np.int64).max).all())


@dataclass(frozen=True)
class VerificationPairSet:
    """Static (A, B, genuine) verification pairs over held-out classes.

    ``inputs`` is the held-out input array itself (never a gathered copy);
    pair ``i`` compares rows ``ids_a[i]`` and ``ids_b[i]`` of it. Nothing is cast:
    ids are integers that fit int64, ``genuine`` holds bools or integers 0 and 1.
    """

    inputs: np.ndarray
    ids_a: np.ndarray
    ids_b: np.ndarray
    genuine: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "inputs", np.asarray(self.inputs, dtype=np.float64))
        for side in ("ids_a", "ids_b"):
            ids = np.asarray(getattr(self, side))
            if not fits_int64(ids):
                raise DataError(f"{side} must be integers that fit int64, got {ids.dtype}")
            object.__setattr__(self, side, ids.astype(np.int64, copy=False))
        genuine = np.asarray(self.genuine)
        if genuine.dtype.kind not in "biu" or not ((genuine == 0) | (genuine == 1)).all():
            raise DataError("genuine must be bools, or integers with none other than 0 or 1")
        object.__setattr__(self, "genuine", genuine.astype(bool, copy=False))
        if self.inputs.ndim != 2:
            raise DataError(f"pair inputs must be a 2-d array, got shape {self.inputs.shape}")
        n = len(self.genuine)
        if n == 0:
            raise DataError("verification pair set is empty")
        if not self.genuine.shape == self.ids_a.shape == self.ids_b.shape == (n,):
            raise DataError("pair set fields have inconsistent lengths")
        rows = len(self.inputs)
        for side, ids in (("a", self.ids_a), ("b", self.ids_b)):
            bad = np.flatnonzero((ids < 0) | (ids >= rows))
            if bad.size:
                raise DataError(
                    f"pair {bad[0]} side {side} indexes row {ids[bad[0]]}, "
                    f"but the inputs have {rows} rows"
                )
        if not self.genuine.any() or self.genuine.all():
            raise DataError("pair set needs at least one genuine and one impostor pair")

    def __len__(self) -> int:
        return len(self.genuine)


@dataclass(frozen=True)
class MetricResult:
    value: float
    threshold: float


@dataclass(frozen=True)
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
        if self.metric not in METRIC_KINDS:
            raise DataError(f"unknown metric kind {self.metric!r}")
        object.__setattr__(self, "values", values)

    @property
    def num_tasks(self) -> int:
        return self.values.shape[0]


@dataclass(frozen=True)
class CompatibilityReport:
    """Summary numbers derived from a compatibility matrix.

    ``bc_series[i]`` is the backward compatibility after task ``i + 2``; its
    last element equals ``bc``.
    """

    ac: float
    bc: float
    fc: float
    bc_series: tuple[float, ...]


class _SampleRows:
    """The distinct samples a pair set touches, and each pair side's row among them."""

    def __init__(self, pairs: VerificationPairSet):
        n = len(pairs)
        self.distinct, rows = np.unique(
            np.concatenate((pairs.ids_a, pairs.ids_b)), return_inverse=True
        )
        self.inputs = pairs.inputs[self.distinct]
        self.rows_a = rows[:n]
        self.rows_b = rows[n:]

    def features(self, model: FeatureExtractorState) -> tuple[np.ndarray, np.ndarray]:
        """One model's features for every distinct sample, with their norms."""
        feats = extract_features(model, self.inputs)
        return feats, feature_norms(feats, lambda i: f"feature of held-out row {self.distinct[i]}")

    def cell_scores(self, query, gallery) -> np.ndarray:
        """Cosine per pair: query features on side A, gallery features on side B.

        ``query`` and ``gallery`` are ``features()`` results.
        """
        (feats_q, norms_q), (feats_g, norms_g) = query, gallery
        if feats_q.shape[1] != feats_g.shape[1]:
            raise DataError(
                f"models have different feature dimensions: "
                f"{feats_q.shape[1]} vs {feats_g.shape[1]}"
            )
        # Gathered feature rows go block by block, so a cell holds a block of
        # them at a time rather than two copies the size of the pair set.
        dots = np.empty(len(self.rows_a))
        for start in range(0, len(dots), SCORE_BLOCK):
            block = slice(start, start + SCORE_BLOCK)
            rows = feats_q[self.rows_a[block]]
            rows *= feats_g[self.rows_b[block]]
            np.sum(rows, axis=1, out=dots[block])
        norms = norms_q[self.rows_a]
        norms *= norms_g[self.rows_b]
        dots /= norms
        return np.clip(dots, -1.0, 1.0, out=dots)


def pair_scores(
    pairs: VerificationPairSet,
    query_model: FeatureExtractorState,
    gallery_model: FeatureExtractorState,
) -> tuple[np.ndarray, np.ndarray]:
    """Cosine score of every pair: query model on side A, gallery model on side B."""
    samples = _SampleRows(pairs)
    scores = samples.cell_scores(samples.features(query_model), samples.features(gallery_model))
    return scores, pairs.genuine.copy()


def _scored_pairs(scores, genuine) -> tuple[np.ndarray, np.ndarray]:
    """``scores`` as floats and ``genuine`` as flags, checked to be one finite score per flag."""
    scores = np.asarray(scores, dtype=np.float64)
    genuine = np.asarray(genuine, dtype=bool)
    if scores.ndim != 1 or genuine.shape != scores.shape:
        raise DataError(f"scores of shape {scores.shape} for flags of shape {genuine.shape}")
    if not np.isfinite(scores).all():
        raise DataError("scores must be finite")
    return scores, genuine


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
    if n == 0:
        raise DataError("verification accuracy needs at least one pair")
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
    if not 0.0 < far_target <= 1.0:
        raise DataError(f"far_target must be in (0, 1], got {far_target}")
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
    it freed, so large buffers are best allocated before the split: at mid scale,
    a pool thread beside an idle caller read 173 MB of peak RSS against 165. The
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
    each model is extracted once over the distinct samples it touches. The
    extractions, then the cells, run on ``on_every_cpu``.
    """
    models = list(models)
    if len(models) < 1:
        raise DataError("need at least one checkpoint to build a compatibility matrix")
    if metric not in METRIC_KINDS:
        raise DataError(f"metric must be one of {METRIC_KINDS}, got {metric!r}")
    if metric == "tar_at_far" and far_target is None:
        raise DataError("tar_at_far requires a far_target")
    t_count = len(models)
    samples = _SampleRows(pairs)

    def extract(t):
        try:
            return samples.features(models[t])
        except DegenerateFeatureError as exc:
            raise DegenerateFeatureError(f"checkpoint of task {t + 1}: {exc}") from None

    features = on_every_cpu(extract, range(t_count))

    def score(cell) -> MetricResult:
        t, k = cell
        scores = samples.cell_scores(features[t], features[k])
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
    corresponding self-test, normalized by the number of comparisons.
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

    bc_series = []
    for t in range(1, t_count):
        gaps = [c[t, k] - c[k, k] for k in range(t)]
        bc_series.append(sum(gaps) / t)
    bc = bc_series[-1]

    fc = sum(c[k, k - 1] - c[k, k] for k in range(1, t_count)) / (t_count - 1)
    return CompatibilityReport(ac=ac, bc=bc, fc=fc, bc_series=tuple(bc_series))
