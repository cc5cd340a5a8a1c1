"""Batch front door: train sequences, evaluate compatibility, search galleries.

Commands read one JSON config with nested sections; ``config.load_config``
refuses an unknown or repeated key or a value breaking a rule before any work,
because a silent config typo invalidates an experiment. With identical config
and seeds every command produces byte-identical primary outputs; wall-clock
timings live only in the manifest. ``cmd_train`` writes every experiment file.

Exit codes: 0 success, 2 configuration error, 3 data error, 4 numeric
divergence.
"""

import argparse
import csv
import dataclasses
import hashlib
import io
import json
import math
import os
import shutil
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

from . import __version__
from .checkpoint import load_model, save_model
from .config import DEFAULT_CONFIG, check_fields, load_config, validate_config  # re-exported
from .container import write_atomic
from .data import (
    SyntheticSpec,
    generate_pairs,
    load_csv,
    load_pairs,
    make_synthetic_tasks,
    save_csv,
    save_pairs,
    split_tasks,
)
from .errors import (
    CompatLearnError,
    ConfigError,
    DataError,
    DivergenceError,
    MetricUndefinedError,
)
from .evalkit import (
    CompatibilityMatrix,
    build_compatibility_matrix,
    compatibility_report,
)
from .gallery import load_gallery, search
from .network import ModelConfig, TrainingHyperparams
from .trainer import ExperimentConfig, run_sequence, write_training_log

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_DIVERGED = 4

MATRIX_SCHEMA = "compat-matrix/1"
REPORT_SCHEMA = "compat-report/1"
MANIFEST_SCHEMA = "run-manifest/1"
CHECKPOINT_NAME = "checkpoint_task_{:03d}.ckpt"  # of 1-based task t: .format(t)


def apply_master_seed(config: dict, seed: int) -> dict:
    """Derive the training seeds from one master seed.

    Only training randomness changes: parameter initialization, shuffling,
    and memory sampling. The dataset, its task split, and the verification
    pairs are part of the preset (a fixed benchmark), so their seeds stay at
    their configured values.
    """
    out = {section: dict(values) for section, values in config.items()}
    base = int(seed) * 1000
    out["model"]["seed"] = base + 4
    out["trainer"]["train_seed"] = base + 5
    return out


def canonical_json(obj) -> str:
    """Strict JSON (RFC 8259): a NaN or infinite float is a ValueError, never written."""
    return json.dumps(obj, sort_keys=True, indent=2, allow_nan=False) + "\n"


def experiment_components(config: dict):
    """Build (sequence, eval dataset, pairs, experiment config) from a config."""
    data_cfg = config["data"]
    split = dict(
        num_tasks=data_cfg["num_tasks"],
        eval_class_count=data_cfg["eval_classes"],
        seed=data_cfg["split_seed"],
    )
    if data_cfg["source"] == "csv":
        sequence, eval_dataset = split_tasks(load_csv(data_cfg["csv_path"]), **split)
    else:
        names = {f.name for f in dataclasses.fields(SyntheticSpec)} - {"cluster_sigma"}
        spec = SyntheticSpec(cluster_sigma=data_cfg["sigma"], **{k: data_cfg[k] for k in names})
        sequence, eval_dataset = make_synthetic_tasks(spec, **split)
    pairs = generate_pairs(eval_dataset, **config["pairs"])
    model = dict(config["model"], input_dim=eval_dataset.input_dim)
    if model["feature_dim"] is None:
        model["feature_dim"] = sequence.total_classes - 1
    experiment = ExperimentConfig(
        model=ModelConfig(**model),
        hyperparams=TrainingHyperparams(**config["training"]),
        memory_per_class=config["memory"]["per_class"],
        **config["trainer"],
    )
    return sequence, eval_dataset, pairs, experiment


def write_manifest(out_dir: Path, config_text: str, task_seconds: list[float]) -> None:
    artifacts = {}
    for path in sorted(out_dir.iterdir()):
        if path.name == "manifest.json" or not path.is_file():
            continue
        artifacts[path.name] = hashlib.sha256(path.read_bytes()).hexdigest()
    manifest = {
        "schema": MANIFEST_SCHEMA,
        "tool_version": __version__,
        "config_sha256": hashlib.sha256(config_text.encode("utf-8")).hexdigest(),
        "artifacts": artifacts,
        "task_seconds": task_seconds,
        "created_unix": time.time(),
    }
    write_atomic(out_dir / "manifest.json", [canonical_json(manifest).encode("utf-8")])


def cmd_train(config_path, out_dir, seed: int | None = None) -> Path:
    """Run a full training sequence and write the experiment directory."""
    config = load_config(config_path)
    if seed is not None:
        check_fields("model", {"seed": seed})  # the master seed obeys the seed rule
        config = apply_master_seed(config, seed)
    out = Path(out_dir)
    if out.exists() and (not out.is_dir() or any(out.iterdir())):
        raise ConfigError(f"--out {out} exists and is not an empty directory")
    ancestor = next(p for p in out.absolute().parents if p.exists())
    if not ancestor.is_dir():
        raise ConfigError(f"--out {out} lies under {ancestor}, which is not a directory")
    sequence, eval_dataset, pairs, experiment = experiment_components(config)
    timeline = run_sequence(experiment, sequence)

    # Written after training into a hidden sibling renamed onto ``out`` once
    # complete, so a run that fails leaves nothing to block its rerun.
    target = out.resolve()  # a symlinked ``out`` keeps its link; its target is replaced
    target.parent.mkdir(parents=True, exist_ok=True)
    umask = os.umask(0)
    os.umask(umask)
    stage = Path(tempfile.mkdtemp(prefix=f".{target.name}.", dir=target.parent))
    try:
        stage.chmod(0o777 & ~umask)  # the mode of a plain mkdir, not mkdtemp's 0o700
        config_text = canonical_json(config)
        write_atomic(stage / "config.json", [config_text.encode("utf-8")])
        for task, checkpoint in enumerate(timeline.checkpoints, start=1):
            save_model(checkpoint, stage / CHECKPOINT_NAME.format(task))
        log_rows = [row for rows in timeline.logs for row in rows]
        write_training_log(log_rows, stage / "training_log.csv")
        save_csv(eval_dataset, stage / "eval_data.csv")
        save_pairs(pairs, stage / "pairs.csv")
        write_manifest(stage, config_text, timeline.task_seconds)
        os.replace(stage, target)
    except BaseException:
        shutil.rmtree(stage, ignore_errors=True)
        raise
    return out


def write_matrix_csv(matrix: CompatibilityMatrix, path) -> None:
    far = "none" if matrix.far_target is None else repr(matrix.far_target)
    lines = [
        f"# schema={MATRIX_SCHEMA} metric={matrix.metric} far_target={far} "
        f"tasks={matrix.num_tasks}"
    ]
    for row in matrix.values:
        lines.append(",".join(repr(float(v)) for v in row))
    write_atomic(path, [("\n".join(lines) + "\n").encode("utf-8")])


def read_matrix_csv(path) -> CompatibilityMatrix:
    try:
        lines = Path(path).read_text(encoding="utf-8").strip().splitlines()
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: unreadable matrix CSV ({exc})") from exc
    if not lines or not lines[0].startswith("# schema="):
        raise DataError(f"{path}: missing matrix header line")
    header = dict(
        token.split("=", 1) for token in lines[0].lstrip("# ").split() if "=" in token
    )
    if header.get("schema") != MATRIX_SCHEMA:
        raise DataError(f"{path}: unsupported matrix schema {header.get('schema')!r}")
    for key in ("metric", "far_target"):
        if key not in header:
            raise DataError(f"{path}: matrix header has no {key}")
    try:
        far = None if header["far_target"] == "none" else float(header["far_target"])
    except ValueError as exc:
        raise DataError(f"{path}: far_target {header['far_target']!r} is not a number") from exc
    if far is not None and not math.isfinite(far):
        raise DataError(f"{path}: far_target {header['far_target']!r} is not finite")
    try:
        values = np.array(
            [[float(v) for v in line.split(",")] for line in lines[1:]], dtype=np.float64
        )
    except ValueError as exc:
        raise DataError(f"{path}: malformed matrix row ({exc})") from exc
    return CompatibilityMatrix(values=values, metric=header["metric"], far_target=far)


def _write_report(matrix: CompatibilityMatrix, path) -> None:
    payload = {
        "schema": REPORT_SCHEMA,
        "metric": matrix.metric,
        "far_target": matrix.far_target,
        "tasks": matrix.num_tasks,
        "similarity": "cosine",
    }
    if matrix.num_tasks >= 2:  # ac, bc, fc and bc_series
        payload.update(dataclasses.asdict(compatibility_report(matrix)))
    if matrix.thresholds is not None:  # eval's matrix; one read from matrix.csv has none
        payload["thresholds"] = [
            [None if np.isnan(v) else float(v) if np.isfinite(v) else str(float(v)) for v in row]
            for row in matrix.thresholds
        ]
    write_atomic(path, [canonical_json(payload).encode("utf-8")])


def _checkpoint_paths(exp: Path) -> list[Path]:
    """Checkpoints 1..T in task order, T being ``data.num_tasks`` in the experiment's config."""
    try:
        num_tasks = load_config(exp / "config.json")["data"]["num_tasks"]
    except ConfigError as exc:  # the experiment's own file: bad data, not a bad argument
        raise DataError(f"experiment config {exp / 'config.json'}: {exc}") from exc
    present = {p.name for p in exp.glob("checkpoint_task_*.ckpt")}
    names = []
    for task in range(1, num_tasks + 1):  # stops at the first gap, so at most len(present) + 1
        names.append(CHECKPOINT_NAME.format(task))
        if names[-1] not in present:
            raise DataError(f"missing checkpoint {exp / names[-1]}: the run has {num_tasks} tasks")
    extra = sorted(present - set(names))
    if extra:
        raise DataError(f"unexpected checkpoint {exp / extra[0]}: the run has {num_tasks} tasks")
    return [exp / name for name in names]


def cmd_eval(
    exp_dir,
    metric: str = "accuracy",
    far: float | None = None,
    out_dir=None,
) -> tuple[Path, Path]:
    """Score an experiment directory into matrix.csv and report.json."""
    if (metric == "tar_at_far") != (far is not None):
        raise ConfigError("--metric tar_at_far needs --far, and no other metric takes it")
    if far is not None and not 0 < far <= 1:
        raise ConfigError(f"--far must be in (0, 1], got {far}")
    exp = Path(exp_dir)
    models = [load_model(p) for p in _checkpoint_paths(exp)]
    eval_dataset = load_csv(exp / "eval_data.csv")
    pairs = load_pairs(exp / "pairs.csv", eval_dataset)
    matrix = build_compatibility_matrix(models, pairs, metric=metric, far_target=far)
    out = Path(out_dir) if out_dir else exp
    out.mkdir(parents=True, exist_ok=True)
    matrix_path = out / "matrix.csv"
    report_path = out / "report.json"
    write_matrix_csv(matrix, matrix_path)
    _write_report(matrix, report_path)
    return matrix_path, report_path


def cmd_search(gallery_path, queries_csv, checkpoint_path, top_n: int, out_path) -> Path:
    """Rank gallery entries for every query row; never touches the gallery file."""
    gallery = load_gallery(gallery_path)
    model = load_model(checkpoint_path)
    queries = load_csv(queries_csv)
    ranked = search(queries.inputs, model, gallery, top_n=top_n)
    text = io.StringIO()  # csv quotes the ids that hold a comma, a quote or a line break
    writer = csv.writer(text, lineterminator="\n")
    writer.writerow(["query_index", "query_label", "rank", "gallery_id", "similarity"])
    for qi, (label, results) in enumerate(zip(queries.labels, ranked)):
        for rank, (gid, sim) in enumerate(results, start=1):
            writer.writerow([qi, int(label), rank, gid, repr(sim)])
    write_atomic(out_path, [text.getvalue().encode("utf-8")])
    return Path(out_path)


def cmd_report(matrix_csv, out_path) -> Path:
    """Recompute the summary report from an existing matrix CSV."""
    matrix = read_matrix_csv(matrix_csv)
    _write_report(matrix, out_path)
    return Path(out_path)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="compatlearn",
        description="Train compatible representation sequences and evaluate them.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="run a training sequence from a config file")
    p_train.add_argument("--config", required=True, help="path to the JSON config")
    p_train.add_argument("--out", required=True, help="experiment output directory")
    p_train.add_argument("--seed", type=int, default=None, help="master seed override")

    p_eval = sub.add_parser("eval", help="build the compatibility matrix and report")
    p_eval.add_argument("--exp", required=True, help="experiment directory from train")
    p_eval.add_argument("--metric", choices=("accuracy", "tar_at_far"), default="accuracy")
    p_eval.add_argument("--far", type=float, default=None, help="FAR target for tar_at_far")
    p_eval.add_argument("--out", default=None, help="output directory (default: the experiment)")

    p_search = sub.add_parser("search", help="query a gallery file with a checkpoint")
    p_search.add_argument("--gallery", required=True)
    p_search.add_argument("--queries", required=True, help="query CSV (label + features)")
    p_search.add_argument("--checkpoint", required=True)
    p_search.add_argument("--top-n", type=int, default=1)
    p_search.add_argument("--out", required=True, help="ranked results CSV")

    p_report = sub.add_parser("report", help="recompute the report from a matrix CSV")
    p_report.add_argument("--matrix", required=True)
    p_report.add_argument("--out", required=True)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "train":
            out = cmd_train(args.config, args.out, seed=args.seed)
            print(f"experiment written to {out}")
        elif args.command == "eval":
            matrix_path, report_path = cmd_eval(
                args.exp,
                metric=args.metric,
                far=args.far,
                out_dir=args.out,
            )
            print(f"wrote {matrix_path} and {report_path}")
        elif args.command == "search":
            out = cmd_search(args.gallery, args.queries, args.checkpoint, args.top_n, args.out)
            print(f"wrote {out}")
        elif args.command == "report":
            out = cmd_report(args.matrix, args.out)
            print(f"wrote {out}")
    except (ConfigError, MetricUndefinedError) as exc:
        print(f"error[config]: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (DataError, OSError) as exc:
        print(f"error[data]: {exc}", file=sys.stderr)
        return EXIT_DATA
    except DivergenceError as exc:
        print(f"error[divergence]: {exc}", file=sys.stderr)
        return EXIT_DIVERGED
    except CompatLearnError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
