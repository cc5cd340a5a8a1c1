"""One benchmark run: set a workload up, time its passes, check, report.

A pass is the researcher's loop through the public entry points: cli.cmd_train,
then cli.cmd_eval (once per eval metric), then one batched cli.cmd_search with
top_n=5. Passes run in pairs with the same seed, so every pair also checks
that the primary outputs are byte-identical. After the passes, a closed loop
with one client sends each query alone through gallery.search.

With tracing on, the second pass of every pair, the query loop and the
gallery build of set-up run under the tracer; the first pass of each pair
stays untraced and gives the baseline for the tracing overhead.
"""

import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import time
import traceback
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import checks
import metrics
import pace
import tracing
from compatlearn import checkpoint, cli, data, gallery

TOP_N = 5
SETUP_REPEATS = 3
CHECKED_QUERIES = 16

MID_CONFIG = {
    "data": {"num_classes": 110, "samples_per_class": 200, "input_dim": 256, "num_tasks": 5},
    "model": {"hidden_layers": [256, 256]},
    "training": {"epochs_per_task": 4, "lr_milestones": [2, 3]},
    "pairs": {"num_pairs": 60000},
}


@dataclass(frozen=True)
class Workload:
    config: dict
    evals: tuple  # (metric, far target) per cmd_eval call in a pass
    large_gallery: bool  # False: half of each held-out class is the gallery
    searches: int  # batched cmd_search calls per pass; short ones repeat for steadier medians
    single_queries: int


# Why each workload exists is recorded in BENCHMARK.json and README.md.
WORKLOADS = {
    "desk": Workload(
        {"data": {"num_tasks": 3}}, (("accuracy", None), ("tar_at_far", 0.1)), False, 10, 30_000
    ),
    "mid": Workload(MID_CONFIG, (("accuracy", None),), False, 5, 10_000),
    "search-large": Workload(
        {"data": {"num_tasks": 2}, "trainer": {"classifier_mode": "trainable", "fd_mode": "full_batch"}},
        (("accuracy", None),),
        True,
        1,
        1_000,
    ),
}

# search-large gallery: 200 synthetic classes x 100 entries, 5 queries per class.
LARGE_CLASSES, LARGE_PER_CLASS, LARGE_QUERIES_PER_CLASS = 200, 100, 5


class Ledger:
    """Operations attempted and the ones that failed, by operation id."""

    def __init__(self):
        self.attempted = 0
        self.failed = set()

    def fail(self, op: str, problems) -> None:
        for problem in problems:
            print(f"perfbench: FAILED {op}: {problem}", file=sys.stderr)
        if problems:
            self.failed.add(op)


class PassFailed(Exception):
    pass


@dataclass
class Setup:
    config_path: Path
    config_sha256: str
    master_seed: int
    num_tasks: int
    samples_per_train: int
    pair_scores_per_eval: int
    queries: object  # LabeledDataset
    queries_csv: Path
    gallery_ids: tuple
    gallery_inputs: np.ndarray
    gallery_labels: np.ndarray
    gallery_path: Path | None  # set when the gallery is built in set-up


def user_config(workload: Workload, seed: int) -> dict:
    """The workload's config with its sample noise and pair seeds drawn from the seed.

    The class means and the task split keep the preset's seeds, as the
    package's own master seed does: which classes are held out and how far
    apart they lie set how hard the task is, and moving them with the seed
    would make the accuracies swing more from seed to seed than any bound
    allows. The master seed passed to cmd_train is the workload seed.
    """
    config = json.loads(json.dumps(workload.config))
    base = 1000 * seed
    config.setdefault("data", {})["noise_seed"] = base + 201
    config["pairs"] = {**config.get("pairs", {}), "seed": base + 401}
    return config


def _heldout_halves(eval_dataset):
    """Per held-out class, the first half of its rows (gallery) and the rest (queries)."""
    gallery_rows, query_rows = [], []
    for cls in eval_dataset.class_ids():
        rows = np.flatnonzero(eval_dataset.labels == cls)
        half = len(rows) // 2
        gallery_rows.extend(rows[:half])
        query_rows.extend(rows[half:])
    return np.asarray(gallery_rows), np.asarray(query_rows)


def set_up(workload: Workload, seed: int, work: Path, tracer) -> Setup:
    """Write the config and input files; on search-large index and save the gallery."""
    work.mkdir(parents=True)
    config_path = work / "config.json"
    config_path.write_text(cli.canonical_json(user_config(workload, seed)))
    config = cli.load_config(config_path)
    sequence, eval_dataset, pairs, _ = cli.experiment_components(config)

    budget = config["memory"]["per_class"]
    memory_rows, samples = 0, 0
    for task in sequence.tasks:
        samples += config["training"]["epochs_per_task"] * (memory_rows + len(task.data))
        counts = np.unique(task.data.labels, return_counts=True)[1]
        memory_rows += int(np.minimum(counts, budget).sum())
    num_tasks = len(sequence.tasks)

    if workload.large_gallery:
        spec = dict(input_dim=config["data"]["input_dim"], cluster_sigma=config["data"]["sigma"],
                    intrinsic_dim=config["data"]["intrinsic_dim"], mean_seed=config["data"]["mean_seed"])
        pool = data.make_synthetic(data.SyntheticSpec(
            num_classes=LARGE_CLASSES, samples_per_class=LARGE_PER_CLASS,
            noise_seed=1000 * seed + 501, **spec))
        queries = data.make_synthetic(data.SyntheticSpec(
            num_classes=LARGE_CLASSES, samples_per_class=LARGE_QUERIES_PER_CLASS,
            noise_seed=1000 * seed + 601, **spec))
        ids = tuple(f"g{i:05d}" for i in range(len(pool)))
        gallery_inputs, gallery_labels = pool.inputs, pool.labels
    else:
        gallery_rows, query_rows = _heldout_halves(eval_dataset)
        queries = data.LabeledDataset(eval_dataset.inputs[query_rows], eval_dataset.labels[query_rows])
        ids = tuple(f"h{i:05d}" for i in gallery_rows)
        gallery_inputs = eval_dataset.inputs[gallery_rows]
        gallery_labels = eval_dataset.labels[gallery_rows]
    queries_csv = work / "queries.csv"
    data.save_csv(queries, queries_csv)

    setup = Setup(
        config_path=config_path,
        config_sha256=hashlib.sha256(config_path.read_bytes()).hexdigest(),
        master_seed=seed,
        num_tasks=num_tasks,
        samples_per_train=samples,
        pair_scores_per_eval=len(pairs) * num_tasks * (num_tasks + 1) // 2,
        queries=queries,
        queries_csv=queries_csv,
        gallery_ids=ids,
        gallery_inputs=gallery_inputs,
        gallery_labels=gallery_labels,
        gallery_path=None,
    )
    if workload.large_gallery:
        trained = cli.cmd_train(config_path, work / "indexer", seed=setup.master_seed)
        setup.gallery_path = work / "gallery.bin"
        with tracing.traced(tracer) if tracer else nullcontext():
            build_gallery(setup, trained, setup.gallery_path)
    return setup


def build_gallery(setup: Setup, exp_dir: Path, path: Path) -> None:
    """Index the gallery rows with the experiment's first checkpoint and save them."""
    first = checkpoint.load_model(exp_dir / "checkpoint_task_001.ckpt")
    indexed = gallery.index_gallery(
        setup.gallery_ids, setup.gallery_inputs, first, 1, labels=setup.gallery_labels
    )
    gallery.save_gallery(indexed, path)


def newest_checkpoint(exp_dir: Path, setup: Setup) -> Path:
    return exp_dir / f"checkpoint_task_{setup.num_tasks:03d}.ckpt"


def run_pass(workload, setup, run_dir: Path, tag: str, ledger: Ledger, probe) -> dict:
    """Timed commands of one pass; returns the probe readings of each command."""
    times = {}

    def timed(op, fn, *args, **kwargs):
        ledger.attempted += 1
        started = probe.mark()
        try:
            fn(*args, **kwargs)
        except Exception:  # a failed command fails its operation and ends the pass
            ledger.fail(f"{tag}:{op}", [traceback.format_exc()])
            raise PassFailed(op) from None
        times.setdefault(op, []).append(probe.reading(started, probe.mark()))

    gc.collect()
    timed("train", cli.cmd_train, setup.config_path, run_dir, seed=setup.master_seed)
    for metric, far in workload.evals:
        timed(f"eval_{metric}", cli.cmd_eval, run_dir, metric=metric, far=far,
              out_dir=run_dir / f"eval_{metric}")
    gallery_path = setup.gallery_path
    if gallery_path is None:
        gallery_path = run_dir / "gallery.bin"
        build_gallery(setup, run_dir, gallery_path)
    for _ in range(workload.searches):
        timed("search", cli.cmd_search, gallery_path, setup.queries_csv,
              newest_checkpoint(run_dir, setup), TOP_N, run_dir / "search.csv")
    return times


def check_pair(workload, setup, dir_a: Path, dir_b: Path, pair: int, ledger: Ledger, rng) -> None:
    """Determinism, report, re-scored cells and search results of one pass pair."""
    t = setup.num_tasks
    lower = [(i, j) for i in range(t) for j in range(i + 1)]
    cells = sorted({(t - 1, t - 1), (t - 1, 0), lower[int(rng.integers(len(lower)))]})
    for metric, far in workload.evals:
        name = f"eval_{metric}"
        ledger.fail(f"pass{2 * pair + 1}:{name}", checks.check_identical(
            dir_a / name, dir_b / name, ("matrix.csv", "report.json")))
        for tag, exp in ((f"pass{2 * pair}", dir_a), (f"pass{2 * pair + 1}", dir_b)):
            ledger.fail(f"{tag}:{name}", checks.check_report(exp / name))
        ledger.fail(f"pass{2 * pair}:{name}",
                    checks.check_cells(dir_a, dir_a / name, metric, far, cells))
    ledger.fail(f"pass{2 * pair + 1}:search", checks.check_identical(dir_a, dir_b, ("search.csv",)))
    sample = np.sort(rng.choice(len(setup.queries), size=CHECKED_QUERIES, replace=False))
    model = checkpoint.load_model(newest_checkpoint(dir_a, setup))
    stored = gallery.load_gallery(setup.gallery_path or dir_a / "gallery.bin")
    ranked = {qi: results for qi, (_, results) in checks.read_search_csv(dir_a / "search.csv").items()}
    problems = checks.check_search(ranked, setup.queries, model, stored, sample, TOP_N)
    if len(ranked) != len(setup.queries):
        problems.append(f"search.csv ranks {len(ranked)} of {len(setup.queries)} queries")
    ledger.fail(f"pass{2 * pair}:search", problems)


def query_loop(workload, setup, exp_dir: Path, ledger: Ledger, rng, probe) -> tuple:
    """Closed loop, one client: each query alone through gallery.search."""
    model = checkpoint.load_model(newest_checkpoint(exp_dir, setup))
    stored = gallery.load_gallery(setup.gallery_path or exp_dir / "gallery.bin")
    inputs = setup.queries.inputs
    sample = set(rng.choice(len(inputs), size=CHECKED_QUERIES, replace=False).tolist())
    kept = {}
    readings = []
    probe.pause()
    for i in range(workload.single_queries):
        qi = i % len(inputs)
        row = inputs[qi : qi + 1]
        probe.sample_if_due()
        ledger.attempted += 1
        started = probe.mark()
        try:
            result = gallery.search(row, model, stored, top_n=TOP_N)
        except Exception:  # a failed query fails its operation; the loop goes on
            ledger.fail(f"query{i}", [traceback.format_exc()])
            continue
        readings.append(probe.reading(started, probe.mark()))
        if i < len(inputs) and qi in sample:
            kept[qi] = (i, result[0])
    probe.resume()
    for qi in sorted(kept):
        ledger.fail(f"query{kept[qi][0]}", checks.check_search(
            {qi: kept[qi][1]}, setup.queries, model, stored, [qi], TOP_N))
    recall = gallery.recall_at_1(setup.queries.inputs, setup.queries.labels, model, stored)
    top1 = checks.read_search_csv(exp_dir / "search.csv")
    label_by_id = dict(zip(stored.ids, stored.labels))
    batched = sum(label_by_id[res[0][0]] == label for label, res in top1.values()) / len(top1)
    if batched != recall:
        ledger.fail("recall", [f"recall_at_1 {recall!r}, batched top-1 gives {batched!r}"])
    return readings, recall


def environment(root: Path, blas_threads: int, workload: str, seed: int, setup: Setup) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_version = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_version = "unknown"
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=30,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(root.parent)},
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_version,
        "blas_threads": blas_threads,
        "git_commit": commit,
        "workload": workload,
        "config_sha256": setup.config_sha256,
        "seed": seed,
    }


def run(args, root: Path, blas_threads: int, import_s: float) -> int:
    workload = WORKLOADS[args.workload]
    out_dir = root / ".perfbench"
    out_dir.mkdir(exist_ok=True)
    work = out_dir / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    try:
        return _run(args, workload, root, work, out_dir, blas_threads, import_s)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _run(args, workload, root, work, out_dir, blas_threads, import_s) -> int:
    trace = bool(args.trace)
    rng = np.random.default_rng([args.seed, 7])
    ledger = Ledger()
    probe = pace.Pace()  # samples only while entered, so traced runs report plain wall time
    setup_tracer, pass_tracers, loop_tracer = tracing.Tracer(), [], tracing.Tracer()
    passes, readings, recall, keep = [], [], None, None

    with nullcontext() if trace else probe:
        setup_readings = []
        for r in range(SETUP_REPEATS):
            started = probe.mark()
            last = trace and r == SETUP_REPEATS - 1
            setup = set_up(workload, args.seed, work / f"setup{r}", setup_tracer if last else None)
            setup_readings.append(probe.reading(started, probe.mark()))

        measure_start = time.perf_counter()
        pair = 0
        while True:
            dir_a, dir_b = work / f"pass{2 * pair}", work / f"pass{2 * pair + 1}"
            try:
                a = run_pass(workload, setup, dir_a, f"pass{2 * pair}", ledger, probe)
                tracer = tracing.Tracer()
                with tracing.traced(tracer) if trace else nullcontext():
                    b = run_pass(workload, setup, dir_b, f"pass{2 * pair + 1}", ledger, probe)
            except PassFailed:
                break
            ledger.fail("trace:restore", tracing.patched_bindings())
            passes.append((a, b))
            pass_tracers.append(tracer)
            check_pair(workload, setup, dir_a, dir_b, pair, ledger, rng)
            shutil.rmtree(dir_a)
            if keep is None:
                keep = dir_b
            else:
                shutil.rmtree(dir_b)
            pair += 1
            if time.perf_counter() - measure_start >= args.seconds:
                break

        if keep is not None:
            with tracing.traced(loop_tracer) if trace else nullcontext():
                readings, recall = query_loop(workload, setup, keep, ledger, rng, probe)
            ledger.fail("trace:restore", tracing.patched_bindings())

    env = environment(root, blas_threads, args.workload, args.seed, setup)
    env.update(passes=2 * len(passes), single_queries=len(readings), run_seconds=args.seconds,
               trace=trace, probe_samples=len(probe.kernel_s))
    runs = [{op: [probe.scaled(r) for r in rs] for op, rs in p.items()} for pair in passes for p in pair]
    failed = len(ledger.failed)
    ungated = {"error_rate": failed / max(ledger.attempted, 1), "cross_recall_at_1": recall}
    if not passes or failed:
        values = {}
    elif trace:
        raw = metrics.merge_phases(
            [[setup_tracer.raw()], [t.raw() for t in pass_tracers], [loop_tracer.raw()]]
        )
        pass_s = [sum(sum(rs) for rs in p.values()) for p in runs]  # unscaled: no probe ran
        raw["trace.untraced_pass_s"] = metrics.median(pass_s[0::2])
        raw["trace.traced_pass_s"] = metrics.median(pass_s[1::2])
        values = metrics.per_layer_values(raw)
        sessions = [("setup", setup_tracer)]
        sessions += [(f"pass{2 * i + 1}", t) for i, t in enumerate(pass_tracers)]
        _write_spans(out_dir / f"spans-{args.workload}-{args.seed}.jsonl",
                     sessions + [("queries", loop_tracer)])
    else:
        latencies_ms = [probe.scaled(r) * 1e3 for r in readings]
        setup_s = import_s + metrics.median([probe.scaled(r) for r in setup_readings])
        values = end_to_end(workload, setup, runs, latencies_ms, keep, setup_s)
        ungated["search_ms_p99"] = metrics.percentile(latencies_ms, 99)

    units = {name: unit for name, unit, *_ in (metrics.PER_LAYER if trace else metrics.END_TO_END)}
    print("env " + json.dumps(env, sort_keys=True))
    for name, value in values.items():
        print(f"{name} = {value:.6g} {units[name]}")
    # Printed but not gated; README.md says why.
    for name, unit in metrics.UNGATED:
        if ungated.get(name) is not None:
            print(f"{name} = {ungated[name]:.6g} {unit} (not gated)")
    print(f"{failed} of {ledger.attempted} operations failed")
    result = {
        "correct": failed == 0 and bool(passes),
        "attempted": max(ledger.attempted, 1),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in values.items()},
    }
    wall = [{op: [r[2] for r in rs] for op, rs in p.items()} for pair in passes for p in pair]
    (out_dir / f"result-{args.workload}-{args.seed}-trace{int(trace)}.json").write_text(
        json.dumps({"env": env, "pass_seconds": runs, "pass_wall_seconds": wall,
                    "ungated": ungated, **result},
                   indent=2, sort_keys=True) + "\n")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def end_to_end(workload, setup, runs, latencies_ms, keep, setup_s) -> dict:
    evals = [s for p in runs for metric, _ in workload.evals for s in p[f"eval_{metric}"]]
    searches = [s for p in runs for s in p["search"]]
    matrix = checks.read_matrix(keep / "eval_accuracy" / "matrix.csv")
    last = setup.num_tasks - 1
    return {
        "setup_s": setup_s,
        "time_to_report_s": metrics.median([p["train"][0] + p["eval_accuracy"][0] for p in runs]),
        "train_samples_per_s": metrics.median([setup.samples_per_train / p["train"][0] for p in runs]),
        "eval_pair_scores_per_s": metrics.median([setup.pair_scores_per_eval / s for s in evals]),
        "search_qps": metrics.median([len(setup.queries) / s for s in searches]),
        "search_ms_p50": metrics.percentile(latencies_ms, 50),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "self_acc_last": matrix[last][last],
        "cross_acc_first": matrix[last][0],
    }


def _write_spans(path: Path, sessions) -> None:
    with open(path, "w") as fh:
        for session, tracer in sessions:
            for name, start, end, parent in tracer.spans:
                fh.write(json.dumps([session, name, start, end, parent]) + "\n")
