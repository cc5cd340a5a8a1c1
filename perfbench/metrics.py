"""Metric definitions and the statistics the benchmark reports them with.

``END_TO_END`` and ``PER_LAYER`` mirror ``BENCHMARK.json``; a test keeps the
two in step. Per-layer values are computed from a tracer's raw numbers: span
self times (``<module>.<function>.self_s``) and counters.
"""

import math
import statistics

# name, unit, better, bound (allowed worsening as a share of the parent's median).
# Timings get the largest bound the benchmark may set: on a shared 2-core VM
# their spread over ten seeds reached 0.18 even after scaling by the speed
# probe (pace.py).
END_TO_END = [
    ("setup_s", "s", "lower", 0.25),
    ("time_to_report_s", "s", "lower", 0.25),
    ("train_samples_per_s", "samples/s", "higher", 0.25),
    ("eval_pair_scores_per_s", "scores/s", "higher", 0.25),
    ("search_qps", "queries/s", "higher", 0.25),
    ("search_ms_p50", "ms", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
    ("self_acc_last", "accuracy", "higher", 0.15),
    ("cross_acc_first", "accuracy", "higher", 0.15),
]

# Printed after the end-to-end metrics but not gated (README.md says why).
UNGATED = [("search_ms_p99", "ms"), ("cross_recall_at_1", "ratio"), ("error_rate", "ratio")]


class Ratio:
    """Numerator raw key over the sum of denominator raw keys (0 when empty)."""

    def __init__(self, numerator, *denominators):
        self.numerator = numerator
        self.denominators = denominators

    def __call__(self, raw):
        base = sum(raw.get(key, 0) for key in self.denominators)
        return raw.get(self.numerator, 0) / base if base else 0.0


def _overhead_s(raw):
    return raw.get("trace.traced_pass_s", 0.0) - raw.get("trace.untraced_pass_s", 0.0)


# name, unit, source: None reads the raw key of the same name, a string reads
# that raw key, a callable computes the value from the raw dict.
PER_LAYER = [
    ("data.make_synthetic.self_s", "s", None),
    ("data.split_tasks.self_s", "s", None),
    ("data.generate_pairs.self_s", "s", None),
    ("data.generate_pairs.candidates", "rows", None),
    ("data.load_csv.rows", "rows", None),
    ("data.load_csv.self_s", "s", None),
    ("data.save_csv.self_s", "s", None),
    ("data.load_pairs.self_s", "s", None),
    ("data.save_pairs.self_s", "s", None),
    ("geometry.build_simplex.calls", "count", None),
    ("geometry.build_simplex.self_s", "s", None),
    ("network.forward_features.calls", "count", None),
    ("network.forward_features.rows", "rows", None),
    ("network.forward_features.self_s", "s", None),
    ("network.backprop_feature_grads.calls", "count", None),
    ("network.backprop_feature_grads.self_s", "s", None),
    ("network.apply_gradients.calls", "count", None),
    ("network.apply_gradients.self_s", "s", None),
    ("losses.teacher_rows", "rows", "network.extract_features.rows.losses"),
    ("trainer.teacher_rows", "rows", "network.extract_features.rows.trainer"),
    ("evalkit.extract_rows", "rows", "network.extract_features.rows.evalkit"),
    ("gallery.extract_rows", "rows", "network.extract_features.rows.gallery"),
    ("losses.combined_loss.calls", "count", None),
    ("losses.combined_loss.self_s", "s", None),
    ("losses.ce_simplex_loss.calls", "count", None),
    ("losses.ce_simplex_loss.self_s", "s", None),
    ("losses.ce_trainable_loss.self_s", "s", None),
    ("losses.feature_distillation_loss.calls", "count", None),
    ("losses.feature_distillation_loss.rows", "rows", None),
    ("losses.feature_distillation_loss.self_s", "s", None),
    (
        "losses.teacher_useful_ratio",
        "ratio",
        Ratio(
            "memory.build_training_set.memory_rows",
            "network.extract_features.rows.losses",
            "network.extract_features.rows.trainer",
        ),
    ),
    ("memory.build_training_set.self_s", "s", None),
    ("memory.update_memory.self_s", "s", None),
    ("memory.iter_minibatches.batches", "count", None),
    ("memory.iter_minibatches.self_s", "s", None),
    ("trainer.run_task.calls", "count", None),
    ("trainer.run_task.self_s", "s", None),
    ("trainer.persist_timeline.self_s", "s", None),
    ("trainer.steps", "count", "network.apply_gradients.calls"),
    ("checkpoint.save_model.calls", "count", None),
    ("checkpoint.save_model.bytes", "bytes", None),
    ("checkpoint.save_model.self_s", "s", None),
    ("checkpoint.load_model.calls", "count", None),
    ("checkpoint.load_model.self_s", "s", None),
    ("checkpoint.save_memory.self_s", "s", None),
    ("container.read_container.self_s", "s", None),
    ("evalkit.build_compatibility_matrix.self_s", "s", None),
    (
        "evalkit.extract_useful_ratio",
        "ratio",
        Ratio(
            "evalkit.build_compatibility_matrix.distinct_rows",
            "network.extract_features.rows.evalkit",
        ),
    ),
    ("evalkit.verification_accuracy.calls", "count", None),
    ("evalkit.verification_accuracy.self_s", "s", None),
    ("evalkit.tar_at_far.calls", "count", None),
    ("evalkit.tar_at_far.self_s", "s", None),
    ("evalkit.compatibility_report.self_s", "s", None),
    ("gallery.index_gallery.rows", "rows", None),
    ("gallery.index_gallery.self_s", "s", None),
    ("gallery.save_gallery.bytes", "bytes", None),
    ("gallery.save_gallery.self_s", "s", None),
    ("gallery.load_gallery.self_s", "s", None),
    ("gallery.search.calls", "count", None),
    ("gallery.search.rows", "rows", None),
    ("gallery.search.self_s", "s", None),
    ("gallery.search.sim_bytes", "bytes", None),
    ("gallery.recall_at_1.self_s", "s", None),
    ("cli.cmd_train.self_s", "s", None),
    ("cli.cmd_eval.self_s", "s", None),
    ("cli.cmd_search.self_s", "s", None),
    ("cli.write_manifest.self_s", "s", None),
    ("trace.overhead_s", "s", _overhead_s),
    ("trace.overhead_ratio", "ratio", lambda raw: _overhead_s(raw) / raw["trace.untraced_pass_s"]),
]


def better(name: str) -> str:
    """Per-layer direction: useful-work ratios up, every other cost down."""
    return "higher" if name.endswith("useful_ratio") else "lower"


def per_layer_values(raw: dict) -> dict:
    values = {}
    for name, _, source in PER_LAYER:
        if source is None:
            values[name] = raw.get(name, 0)
        elif isinstance(source, str):
            values[name] = raw.get(source, 0)
        else:
            values[name] = source(raw)
    return values


def median(values) -> float:
    return float(statistics.median(values))


def percentile(samples, q: float) -> float:
    """Nearest-rank percentile; refuses unless ten samples lie beyond it.

    So p99 needs at least 1,000 samples and p50 at least 20.
    """
    n = len(samples)
    beyond = n * (100.0 - q) / 100.0
    if beyond < 10 - 1e-9:
        raise ValueError(f"p{q:g} needs at least ten samples beyond it; got {n} samples")
    ordered = sorted(samples)
    return float(ordered[max(math.ceil(q / 100.0 * n) - 1, 0)])


def merge_phases(phases) -> dict:
    """Sum per-phase raw dicts; each phase is a list of repeats, reduced by median."""
    total = {}
    for repeats in phases:
        keys = set().union(*repeats) if repeats else set()
        for key in keys:
            total[key] = total.get(key, 0) + median([r.get(key, 0) for r in repeats])
    return total
