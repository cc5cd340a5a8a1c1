import csv
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from compatlearn.cli import (
    DEFAULT_CONFIG,
    apply_master_seed,
    canonical_json,
    cmd_eval,
    cmd_report,
    cmd_search,
    cmd_train,
    load_config,
    main,
    read_matrix_csv,
    validate_config,
)
from compatlearn.checkpoint import MODEL_MAGIC, MODEL_VERSION, load_model, save_model
from compatlearn.container import read_container, write_artifact, write_container
from compatlearn.data import load_csv, make_synthetic, save_csv, SyntheticSpec
from compatlearn.errors import CompatLearnError, ConfigError, CorruptFileError, DataError
from compatlearn.gallery import GALLERY_MAGIC, GALLERY_VERSION, index_gallery, save_gallery
from compatlearn.network import ModelConfig, init_model

TINY = {
    "data": {
        "num_classes": 12,
        "samples_per_class": 10,
        "input_dim": 8,
        "sigma": 0.2,
        "eval_classes": 4,
        "num_tasks": 3,
    },
    "model": {"hidden_layers": [10], "nonlinearity": "tanh"},
    "training": {
        "epochs_per_task": 3,
        "batch_size": 16,
        "learning_rate": 0.05,
        "lr_milestones": [2],
    },
    "memory": {"per_class": 3},
    "pairs": {"num_pairs": 60},
}


def write_config(tmp_path, payload=TINY, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return path


def test_unknown_keys_rejected():
    with pytest.raises(ConfigError, match="unknown config key data.sgima"):
        validate_config({"data": {"sgima": 0.1}})
    with pytest.raises(ConfigError, match="unknown config section"):
        validate_config({"nonsense": {}})
    with pytest.raises(ConfigError, match="invalid value"):
        validate_config({"training": {"momentum": 1.5}})


def test_master_seed_varies_training_but_not_the_dataset():
    cfg = validate_config({})
    seeded = apply_master_seed(cfg, 4)
    assert seeded["model"]["seed"] == 4004
    assert seeded["trainer"]["train_seed"] == 4005
    # the dataset is a fixed benchmark: its seeds stay put
    assert seeded["data"] == cfg["data"]
    assert seeded["pairs"] == cfg["pairs"]
    # original untouched
    assert cfg["model"]["seed"] == 1


def test_train_writes_a_complete_experiment(tmp_path):
    config = write_config(tmp_path)
    out = cmd_train(config, tmp_path / "exp", seed=1)
    names = {p.name for p in out.iterdir()}
    assert names == {
        "config.json",
        "checkpoint_task_001.ckpt",
        "checkpoint_task_002.ckpt",
        "checkpoint_task_003.ckpt",
        "training_log.csv",
        "eval_data.csv",
        "pairs.csv",
        "manifest.json",
    }
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["schema"] == "run-manifest/1"
    assert len(manifest["task_seconds"]) == 3
    assert set(manifest["artifacts"]) == names - {"manifest.json"}
    log = (out / "training_log.csv").read_text().splitlines()
    assert log[0] == "task,epoch,ce,fd,lambda,total"
    assert len(log) == 1 + 3 * 3  # header + tasks * epochs
    # the recorded hashes verify
    import hashlib

    for name, digest in manifest["artifacts"].items():
        assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digest


def test_train_cli_exit_codes(tmp_path):
    bad = write_config(tmp_path, {"data": {"wrong_key": 1}}, name="bad.json")
    code = main(["train", "--config", str(bad), "--out", str(tmp_path / "exp")])
    assert code == 2
    assert not (tmp_path / "exp").exists()  # no partial artifacts
    missing = main(["train", "--config", str(tmp_path / "nope.json"), "--out", str(tmp_path / "e2")])
    assert missing == 2


SEED_KEYS = [
    ("data", "mean_seed"),
    ("data", "noise_seed"),
    ("data", "split_seed"),
    ("model", "seed"),
    ("trainer", "train_seed"),
    ("pairs", "seed"),
]


@pytest.mark.parametrize(
    "section, key", [*SEED_KEYS, (None, None)], ids=[*map(".".join, SEED_KEYS), "--seed"]
)
def test_negative_seed_is_a_config_error(tmp_path, capsys, section, key):
    payload = json.loads(json.dumps(TINY))
    argv = ["train", "--out", str(tmp_path / "exp")]
    if key is None:
        argv += ["--seed", "-1"]
    else:
        payload.setdefault(section, {})[key] = -3
    assert main([*argv, "--config", str(write_config(tmp_path, payload))]) == 2
    assert capsys.readouterr().err.startswith("error[config]: ")
    assert not (tmp_path / "exp").exists()


@pytest.mark.parametrize("seed", [-1, True, 2.5], ids=["negative", "bool", "float"])
def test_master_seed_obeys_the_config_tables_seed_rule(tmp_path, seed):
    with pytest.raises(ConfigError, match="invalid value for model.seed"):
        cmd_train(write_config(tmp_path), tmp_path / "exp", seed=seed)
    assert not (tmp_path / "exp").exists()


@pytest.mark.parametrize(
    "payload, code",
    [
        # the fixed simplex needs feature_dim = capacity - 1; init_model refuses 5
        ({"model": {"feature_dim": 5}, "pairs": {"num_pairs": 200}}, 2),
        ({"training": {"learning_rate": 1e30}}, 4),
    ],
    ids=["capacity-mismatch", "divergence"],
)
def test_failed_training_writes_no_directory(tmp_path, payload, code):
    config = write_config(tmp_path, payload)
    argv = ["train", "--config", str(config), "--out", str(tmp_path / "exp")]
    assert main(argv) == code
    assert not (tmp_path / "exp").exists()
    assert main(argv) == code  # the rerun fails the same way, not on the directory


@pytest.mark.parametrize(
    "payload",
    [
        {"pairs": {"num_pairs": 7}},
        {"data": {"intrinsic_dim": 100}},  # input_dim is 64
        {"data": {"eval_classes": 29}},  # 30 classes leave one for 2 tasks
    ],
    ids=["odd-num-pairs", "intrinsic-dim-above-input-dim", "too-few-task-classes"],
)
def test_inconsistent_config_is_a_config_error(tmp_path, capsys, payload):
    config = write_config(tmp_path, payload)
    assert main(["train", "--config", str(config), "--out", str(tmp_path / "exp")]) == 2
    assert capsys.readouterr().err.startswith("error[config]: ")
    assert not (tmp_path / "exp").exists()


@pytest.mark.parametrize(
    "payload",
    [
        {"model": {"hidden_layers": [0]}},
        {"training": {"lr_milestones": [12, 8]}},
        {"training": {"lr_milestones": [8, 20]}},  # 14 epochs per task
    ],
    ids=["zero-hidden-units", "decreasing-milestones", "milestone-past-the-epochs"],
)
def test_typed_config_rules_refuse_before_any_data_is_built(tmp_path, capsys, monkeypatch, payload):
    import compatlearn.data

    calls = []

    def recorded(name):
        def record(*args, **kwargs):
            calls.append(name)
            return getattr(compatlearn.data, name)(*args, **kwargs)

        return record

    for name in ("make_synthetic_tasks", "generate_pairs"):
        monkeypatch.setattr(f"compatlearn.cli.{name}", recorded(name))
    config = write_config(tmp_path, payload)
    assert main(["train", "--config", str(config), "--out", str(tmp_path / "exp")]) == 2
    assert capsys.readouterr().err.startswith("error[config]: ")
    assert calls == []
    assert not (tmp_path / "exp").exists()


@pytest.mark.parametrize(
    "text, key",
    [
        ('{"data": {"num_tasks": 2, "num_tasks": 3}}', "num_tasks"),
        ('{"data": {"num_tasks": 2}, "pairs": {"seed": 5}, "data": {"num_tasks": 3}}', "data"),
    ],
    ids=["in-a-section", "at-the-root"],
)
def test_a_key_given_twice_is_a_config_error(tmp_path, capsys, text, key):
    config = tmp_path / "config.json"
    config.write_text(text)
    assert main(["train", "--config", str(config), "--out", str(tmp_path / "exp")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error[config]: ") and repr(key) in err
    assert not (tmp_path / "exp").exists()


@pytest.mark.parametrize(
    "data",
    [{"csv_path": "nonexistent.csv"}, {"source": "csv"}, {"source": "csv", "csv_path": ""}],
    ids=["path-with-synthetic-source", "csv-source-without-path", "csv-source-with-empty-path"],
)
def test_csv_path_is_set_exactly_when_the_source_is_csv(tmp_path, capsys, data):
    config = write_config(tmp_path, {"data": {"num_tasks": 2, **data}})
    assert main(["train", "--config", str(config), "--out", str(tmp_path / "exp")]) == 2
    assert capsys.readouterr().err.startswith("error[config]: data.csv_path ")
    assert not (tmp_path / "exp").exists()


def test_failed_write_leaves_no_directory(tmp_path, monkeypatch):
    def broken_save_pairs(pairs, path):
        raise OSError("disk full")

    config = write_config(tmp_path)
    out = tmp_path / "exp"
    argv = ["train", "--config", str(config), "--out", str(out)]
    with monkeypatch.context() as patch:
        patch.setattr("compatlearn.cli.save_pairs", broken_save_pairs)
        assert main(argv) == 3
    assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json"]  # no staging left
    out.mkdir()  # an existing empty directory is accepted
    assert main(argv) == 0
    assert (out / "pairs.csv").exists()
    assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json", "exp"]


def test_train_refuses_a_regular_file_as_output(tmp_path, capsys, monkeypatch):
    config = write_config(tmp_path)
    out = tmp_path / "exp"
    out.write_bytes(b"keep me")

    def no_training(config):
        raise AssertionError("training started")

    monkeypatch.setattr("compatlearn.cli.experiment_components", no_training)
    assert main(["train", "--config", str(config), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error[config]: ") and "--out" in err
    assert out.read_bytes() == b"keep me"


def test_train_refuses_an_output_under_a_regular_file(tmp_path, capsys, monkeypatch):
    config = write_config(tmp_path)
    afile = tmp_path / "afile"
    afile.write_bytes(b"keep me")

    def no_training(config):
        raise AssertionError("training started")

    monkeypatch.setattr("compatlearn.cli.experiment_components", no_training)
    for out in (afile / "exp", afile / "deeper" / "exp"):
        assert main(["train", "--config", str(config), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error[config]: ") and "--out" in err
    assert afile.read_bytes() == b"keep me"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["afile", "config.json"]


def test_csv_source_trains_like_the_synthetic_preset(tmp_path):
    preset = validate_config({})["data"]
    spec = SyntheticSpec(
        num_classes=preset["num_classes"],
        samples_per_class=preset["samples_per_class"],
        input_dim=preset["input_dim"],
        cluster_sigma=preset["sigma"],
        mean_seed=preset["mean_seed"],
        noise_seed=preset["noise_seed"],
        intrinsic_dim=preset["intrinsic_dim"],
    )
    save_csv(make_synthetic(spec), tmp_path / "preset.csv")
    synthetic = {"data": {"num_tasks": 3}}
    from_csv = {"data": {"num_tasks": 3, "source": "csv", "csv_path": str(tmp_path / "preset.csv")}}
    runs = [
        cmd_train(write_config(tmp_path, payload, name=f"{name}.json"), tmp_path / name, seed=1)
        for name, payload in (("synthetic", synthetic), ("csv", from_csv))
    ]
    names = [f"checkpoint_task_00{t}.ckpt" for t in (1, 2, 3)] + [
        "training_log.csv",
        "eval_data.csv",
        "pairs.csv",
    ]
    for name in names:
        assert (runs[0] / name).read_bytes() == (runs[1] / name).read_bytes(), name


@pytest.mark.parametrize(
    "content",
    [
        b'{"data": {"sigma": 0.2\xff}}',
        b"[" * 100_000,
        b'{"model": {"seed": ' + b"1" * 5000 + b"}}",
        b'{"training": {"learning_rate": Infinity}}',
        b'{"data": {"sigma": Infinity}}',
        b'{"training": {"learning_rate": 1' + b"0" * 400 + b"}}",
    ],
    ids=["undecodable", "deep", "int-too-long", "infinite-rate", "infinite-sigma", "rate-too-large"],
)
def test_unreadable_config_is_a_config_error(tmp_path, content):
    config = tmp_path / "config.json"
    config.write_bytes(content)
    assert main(["train", "--config", str(config), "--out", str(tmp_path / "exp")]) == 2
    assert not (tmp_path / "exp").exists()


def small_experiment(tmp_path):
    """An experiment directory with one checkpoint and valid eval inputs."""
    from compatlearn.checkpoint import save_model
    from compatlearn.data import generate_pairs, save_csv, save_pairs

    exp = tmp_path / "exp"
    exp.mkdir()
    (exp / "config.json").write_text(json.dumps({"data": {"num_tasks": 1}}))
    model = init_model(
        ModelConfig(input_dim=4, hidden_layers=(6,), feature_dim=3, nonlinearity="tanh", seed=0)
    )
    save_model(model, exp / "checkpoint_task_001.ckpt")
    held_out = make_synthetic(
        SyntheticSpec(num_classes=3, samples_per_class=4, input_dim=4, cluster_sigma=0.1)
    )
    save_csv(held_out, exp / "eval_data.csv")
    save_pairs(generate_pairs(held_out, 10, seed=0), exp / "pairs.csv")
    return exp


@pytest.mark.parametrize(
    "name, content",
    [
        ("eval_data.csv", b"label,x0,x1,x2,x3\n0,1,2,3,\xff\n"),
        ("eval_data.csv", b"label,x0,x1,x2,x3\n0,1,2,3," + b"9" * 200_000 + b"\n"),
        ("eval_data.csv", b"label,x0,x1,x2,x" + b"3" * 200_000 + b"\n0,1,2,3,4\n"),
        ("eval_data.csv", b"label,x0,x1,x2,x3\n0,1,2,3,4\n1,1,2,3," + b"a" * 200_000 + b"\n"),
        ("pairs.csv", b"id_a,id_b,genuine\n0,1,\xff\n"),
    ],
    ids=["undecodable-data", "long-number", "long-header-cell", "long-bad-cell", "undecodable-pairs"],
)
def test_unreadable_eval_inputs_are_data_errors(tmp_path, name, content):
    exp = small_experiment(tmp_path)
    assert main(["eval", "--exp", str(exp), "--out", str(tmp_path / "ok")]) == 0
    (exp / name).write_bytes(content)
    assert main(["eval", "--exp", str(exp), "--out", str(tmp_path / "bad")]) == 3
    assert not (tmp_path / "bad").exists()


@pytest.mark.parametrize(
    "metric, far",
    [("tar_at_far", None), ("tar_at_far", "0"), ("tar_at_far", "nan"), ("tar_at_far", "1.5")]
    + [("accuracy", "0.5")],
    ids=["missing-far-undecodable-data", "far-0", "far-nan", "far-1.5", "far-without-tar_at_far"],
)
def test_bad_far_is_a_config_error_before_any_work(tmp_path, capsys, metric, far):
    exp = small_experiment(tmp_path)
    # The arguments are checked before any checkpoint is loaded or CSV parsed.
    (exp / "checkpoint_task_001.ckpt").unlink()
    (exp / "eval_data.csv").write_bytes(b"label,x0,x1,x2,x3\n0,1,2,3,\xff\n")
    argv = ["eval", "--exp", str(exp), "--metric", metric, "--out", str(tmp_path / "bad")]
    assert main(argv if far is None else [*argv, "--far", far]) == 2
    assert capsys.readouterr().err.startswith("error[config]: ")
    assert not (tmp_path / "bad").exists()


def trained_experiment(tmp_path, num_tasks=3):
    config = write_config(tmp_path, {"data": {"num_tasks": num_tasks}})
    exp = tmp_path / "exp"
    assert main(["train", "--config", str(config), "--out", str(exp), "--seed", "1"]) == 0
    return exp


@pytest.mark.parametrize(
    "kind, name",
    [
        ("missing", "checkpoint_task_002.ckpt"),
        ("unexpected", "checkpoint_task_004.ckpt"),
        ("unexpected", "checkpoint_task_1000.ckpt"),
    ],
)
def test_eval_scores_exactly_the_trained_checkpoints(tmp_path, capsys, kind, name):
    exp = trained_experiment(tmp_path)
    if kind == "missing":
        (exp / name).unlink()
    else:
        (exp / name).write_bytes((exp / "checkpoint_task_003.ckpt").read_bytes())
    capsys.readouterr()
    assert main(["eval", "--exp", str(exp)]) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"error[data]: {kind} checkpoint ")
    assert name in err
    assert not (exp / "matrix.csv").exists()


@pytest.mark.parametrize(
    "content",
    [None, b"{not json", b'{"data": {"num_tasks": 0}}', b'{"data": {"num_taks": 1}}'],
    ids=["missing", "not-json", "zero-tasks", "unknown-key"],
)
def test_eval_refuses_an_unreadable_experiment_config(tmp_path, capsys, content):
    exp = small_experiment(tmp_path)
    if content is None:
        (exp / "config.json").unlink()
    else:
        (exp / "config.json").write_bytes(content)
    assert main(["eval", "--exp", str(exp), "--out", str(tmp_path / "bad")]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error[data]: experiment config ")
    assert "config.json" in err
    assert not (tmp_path / "bad").exists()


def test_checkpoint_meta_nested_too_deep_is_a_data_error(tmp_path, capsys):
    exp = small_experiment(tmp_path)
    meta = b"[" * 100_000
    write_container(exp / "checkpoint_task_001.ckpt", MODEL_MAGIC, MODEL_VERSION, [("meta", meta)])
    assert main(["eval", "--exp", str(exp), "--out", str(tmp_path / "bad")]) == 3
    assert capsys.readouterr().err.startswith("error[data]: ")
    assert not (tmp_path / "bad").exists()


@pytest.mark.parametrize(
    "key, value",
    [("weight_shapes", [[2, 12], [6, 3]]), ("bias_shapes", [[6], [2]]), ("num_layers", 1)],
)
def test_checkpoint_with_wrong_layer_shapes_is_a_data_error(tmp_path, capsys, key, value):
    exp = small_experiment(tmp_path)
    path = exp / "checkpoint_task_001.ckpt"
    sections = read_container(path, MODEL_MAGIC, MODEL_VERSION)
    meta = json.loads(sections.pop("meta"))
    meta[key] = value
    payload = [("meta", json.dumps(meta).encode("utf-8")), *sections.items()]
    write_container(path, MODEL_MAGIC, MODEL_VERSION, payload)
    with pytest.raises(CorruptFileError, match="layer shapes"):
        load_model(path)
    assert main(["eval", "--exp", str(exp), "--out", str(tmp_path / "bad")]) == 3
    assert capsys.readouterr().err.startswith("error[data]: ")
    assert not (tmp_path / "bad").exists()


def test_checkpoint_with_a_nan_weight_is_a_data_error(tmp_path, capsys):
    config = write_config(tmp_path, {"data": {"num_tasks": 3}})
    exp = tmp_path / "exp"
    assert main(["train", "--config", str(config), "--out", str(exp), "--seed", "1"]) == 0
    path = exp / "checkpoint_task_002.ckpt"
    state = load_model(path)
    state.weights[0][0, 0] = np.nan
    save_model(state, path)  # a well-formed file with valid checksums
    with pytest.raises(CorruptFileError, match="non-finite"):
        load_model(path)
    capsys.readouterr()
    assert main(["eval", "--exp", str(exp)]) == 3
    assert capsys.readouterr().err.startswith("error[data]: ")
    assert not (exp / "matrix.csv").exists()


@pytest.mark.parametrize("command", ["eval", "search"])
@pytest.mark.parametrize(
    "key, value",
    [("nonlinearity", "sigmoid"), ("seed", -1), ("seed", True), ("hidden_layers", [0])],
    ids=["sigmoid", "negative-seed", "bool-seed", "zero-hidden-units"],
)
def test_checkpoint_whose_config_breaks_a_rule_is_a_corrupt_file(
    tmp_path, capsys, command, key, value
):
    if command == "eval":
        exp = small_experiment(tmp_path)
        path, out = exp / "checkpoint_task_001.ckpt", tmp_path / "bad"
        argv = ["eval", "--exp", str(exp), "--out", str(out)]
    else:
        test_search_reads_only_the_gallery(tmp_path)
        path, out = tmp_path / "model.ckpt", tmp_path / "r.csv"
        argv = search_argv(tmp_path, 1)
    sections = read_container(path, MODEL_MAGIC, MODEL_VERSION)
    meta = json.loads(sections.pop("meta"))
    meta["config"][key] = value
    payload = [("meta", json.dumps(meta).encode("utf-8")), *sections.items()]
    write_container(path, MODEL_MAGIC, MODEL_VERSION, payload)  # valid CRCs
    capsys.readouterr()
    assert main(argv) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"error[data]: {path}: malformed model checkpoint ")
    assert f"model.{key}" in err
    assert not out.exists()


def test_undecodable_matrix_is_a_data_error(tmp_path):
    path = tmp_path / "matrix.csv"
    path.write_bytes(b"# schema=compat-matrix/1 metric=accuracy far_target=none tasks=1\n0.\xff\n")
    assert main(["report", "--matrix", str(path), "--out", str(tmp_path / "r.json")]) == 3
    assert not (tmp_path / "r.json").exists()


def test_train_writes_through_a_symlinked_output_directory(tmp_path):
    config = write_config(tmp_path)
    (tmp_path / "real").mkdir()
    (tmp_path / "link").symlink_to("real")
    assert main(["train", "--config", str(config), "--out", str(tmp_path / "link")]) == 0
    assert (tmp_path / "link").is_symlink()
    assert (tmp_path / "real" / "manifest.json").exists()
    assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json", "link", "real"]


def test_train_refuses_nonempty_output(tmp_path):
    config = write_config(tmp_path)
    out = tmp_path / "exp"
    out.mkdir()
    (out / "stale.txt").write_text("x")
    with pytest.raises(ConfigError):
        cmd_train(config, out)


def test_eval_emits_matrix_and_report(tmp_path):
    config = write_config(tmp_path)
    exp = cmd_train(config, tmp_path / "exp", seed=2)
    matrix_path, report_path = cmd_eval(exp)
    matrix = read_matrix_csv(matrix_path)
    assert matrix.values.shape == (3, 3)
    assert np.array_equal(np.triu(matrix.values, 1), np.zeros((3, 3)))
    report = json.loads(report_path.read_text())
    assert report["schema"] == "compat-report/1"
    assert report["tasks"] == 3
    assert len(report["bc_series"]) == 2
    assert report["bc_series"][-1] == report["bc"]
    assert len(report["thresholds"]) == 3
    assert report["thresholds"][0][1] is None  # above the diagonal


def test_eval_records_tar_metadata(tmp_path):
    config = write_config(tmp_path)
    exp = cmd_train(config, tmp_path / "exp", seed=3)
    _, report_path = cmd_eval(exp, metric="tar_at_far", far=0.1)
    report = json.loads(report_path.read_text())
    assert report["metric"] == "tar_at_far"
    assert report["far_target"] == 0.1


def refuse_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


def test_eval_report_writes_infinite_thresholds_as_strings(tmp_path):
    config = write_config(tmp_path)
    exp = cmd_train(config, tmp_path / "exp", seed=3)
    _, report_path = cmd_eval(exp, metric="tar_at_far", far=1.0)
    report = json.loads(report_path.read_text(), parse_constant=refuse_constant)
    # At FAR 1 every impostor may pass, so each cell's loosest threshold is -inf.
    cells = [v for row in report["thresholds"] for v in row if v is not None]
    assert cells == ["-inf"] * 6


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_canonical_json_refuses_non_finite_floats(value):
    with pytest.raises(ValueError):
        canonical_json({"thresholds": [[value]]})


def test_eval_single_task_omits_summaries(tmp_path):
    payload = json.loads(json.dumps(TINY))
    payload["data"]["num_tasks"] = 1
    config = write_config(tmp_path, payload)
    exp = cmd_train(config, tmp_path / "exp", seed=4)
    matrix_path, report_path = cmd_eval(exp)
    matrix = read_matrix_csv(matrix_path)
    assert matrix.values.shape == (1, 1)
    report = json.loads(report_path.read_text())
    assert "ac" not in report and "bc" not in report and "fc" not in report


def test_eval_is_byte_deterministic(tmp_path):
    config = write_config(tmp_path)
    blobs = []
    for run in ("one", "two"):
        exp = cmd_train(config, tmp_path / run, seed=9)
        matrix_path, report_path = cmd_eval(exp)
        blobs.append((matrix_path.read_bytes(), report_path.read_bytes()))
    assert blobs[0] == blobs[1]


def test_report_recomputes_from_matrix(tmp_path):
    config = write_config(tmp_path)
    exp = cmd_train(config, tmp_path / "exp", seed=5)
    matrix_path, report_path = cmd_eval(exp)
    out = tmp_path / "report2.json"
    cmd_report(matrix_path, out)
    full = json.loads(report_path.read_text())
    recomputed = json.loads(out.read_text())
    for key in ("ac", "bc", "fc", "bc_series", "metric", "tasks"):
        assert recomputed[key] == full[key]


@pytest.mark.parametrize(
    "header",
    [
        "# schema=compat-matrix/1 far_target=none tasks=1",
        "# schema=compat-matrix/1 metric=accuracy tasks=1",
        "# schema=compat-matrix/1 metric=tar_at_far far_target=abc tasks=1",
        "# schema=compat-matrix/1 metric=tar_at_far far_target=nan tasks=1",
        "# schema=compat-matrix/1 metric=tar_at_far far_target=inf tasks=1",
    ],
)
def test_report_rejects_a_malformed_matrix_header(tmp_path, header):
    path = tmp_path / "matrix.csv"
    path.write_text(header + "\n0.5\n")
    with pytest.raises(DataError):
        read_matrix_csv(path)
    assert main(["report", "--matrix", str(path), "--out", str(tmp_path / "r.json")]) == 3
    assert not (tmp_path / "r.json").exists()


def test_report_rejects_a_nan_cell(tmp_path):
    path = tmp_path / "matrix.csv"
    path.write_text("# schema=compat-matrix/1 metric=accuracy far_target=none tasks=2\n0.5,0\nnan,0.5\n")
    with pytest.raises(DataError, match=r"\[0, 1\]"):
        read_matrix_csv(path)
    assert main(["report", "--matrix", str(path), "--out", str(tmp_path / "r.json")]) == 3
    assert not (tmp_path / "r.json").exists()


def test_search_reads_only_the_gallery(tmp_path):
    rng = np.random.default_rng(0)
    model = init_model(
        ModelConfig(input_dim=6, hidden_layers=(8,), feature_dim=5, nonlinearity="tanh", seed=3)
    )
    from compatlearn.checkpoint import save_model

    ckpt = tmp_path / "model.ckpt"
    save_model(model, ckpt)
    items = rng.standard_normal((7, 6))
    gallery = index_gallery([f"item{i}" for i in range(7)], items, model, model_version=1)
    gal_path = tmp_path / "g.gal"
    save_gallery(gallery, gal_path)
    gallery_bytes = gal_path.read_bytes()

    queries = make_synthetic(
        SyntheticSpec(num_classes=2, samples_per_class=3, input_dim=6, cluster_sigma=0.1)
    )
    from compatlearn.data import save_csv

    qpath = tmp_path / "q.csv"
    save_csv(queries, qpath)

    out = cmd_search(gal_path, qpath, ckpt, top_n=2, out_path=tmp_path / "results.csv")
    lines = out.read_text().splitlines()
    assert lines[0] == "query_index,query_label,rank,gallery_id,similarity"
    assert len(lines) == 1 + 6 * 2
    assert gal_path.read_bytes() == gallery_bytes  # gallery untouched


def test_search_top1_row_per_query(tmp_path):
    test_search_reads_only_the_gallery(tmp_path)  # reuse artifacts
    out = cmd_search(
        tmp_path / "g.gal",
        tmp_path / "q.csv",
        tmp_path / "model.ckpt",
        top_n=1,
        out_path=tmp_path / "top1.csv",
    )
    assert len(out.read_text().splitlines()) == 1 + 6


def test_search_missing_checkpoint_is_a_data_error(tmp_path):
    test_search_reads_only_the_gallery(tmp_path)
    code = main(
        [
            "search",
            "--gallery",
            str(tmp_path / "g.gal"),
            "--queries",
            str(tmp_path / "q.csv"),
            "--checkpoint",
            str(tmp_path / "missing.ckpt"),
            "--top-n",
            "1",
            "--out",
            str(tmp_path / "r.csv"),
        ]
    )
    assert code == 3


def search_argv(tmp_path, top_n):
    return [
        "search",
        "--gallery",
        str(tmp_path / "g.gal"),
        "--queries",
        str(tmp_path / "q.csv"),
        "--checkpoint",
        str(tmp_path / "model.ckpt"),
        "--top-n",
        str(top_n),
        "--out",
        str(tmp_path / "r.csv"),
    ]


@pytest.mark.parametrize("top_n", [0, 8])
def test_search_top_n_outside_the_gallery_is_a_config_error(tmp_path, capsys, top_n):
    test_search_reads_only_the_gallery(tmp_path)  # a 7-entry gallery
    assert main(search_argv(tmp_path, top_n)) == 2
    assert capsys.readouterr().err.startswith("error[config]: ")
    assert not (tmp_path / "r.csv").exists()


def odd_id_gallery(tmp_path, ids):
    """A gallery of ``ids``, four queries and a checkpoint, written under ``tmp_path``."""
    from compatlearn.checkpoint import save_model

    model = init_model(
        ModelConfig(input_dim=6, hidden_layers=(8,), feature_dim=5, nonlinearity="tanh", seed=3)
    )
    save_model(model, tmp_path / "model.ckpt")
    items = np.random.default_rng(1).standard_normal((len(ids), 6))
    save_gallery(index_gallery(ids, items, model, model_version=1), tmp_path / "g.gal")
    queries = make_synthetic(
        SyntheticSpec(num_classes=2, samples_per_class=2, input_dim=6, cluster_sigma=0.1)
    )
    save_csv(queries, tmp_path / "q.csv")


def test_search_output_quotes_its_ids(tmp_path):
    ids = ["plain", "a,b", 'q"x', "line\nbreak"]
    odd_id_gallery(tmp_path, ids)
    assert main(search_argv(tmp_path, 4)) == 0
    with open(tmp_path / "r.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["query_index", "query_label", "rank", "gallery_id", "similarity"]
    assert len(rows) == 1 + 4 * 4
    assert all(len(row) == 5 for row in rows)
    for qi in range(4):
        assert sorted(row[3] for row in rows[1:] if row[0] == str(qi)) == sorted(ids)


def test_search_with_a_non_finite_stored_feature_is_a_data_error(tmp_path, capsys):
    odd_id_gallery(tmp_path, ["a", "b", "c"])
    path = tmp_path / "g.gal"
    sections = read_container(path, GALLERY_MAGIC, GALLERY_VERSION)
    features = np.frombuffer(sections["features"], dtype="<f4").copy()
    features[-1] = np.inf
    sections["features"] = features.tobytes()
    write_container(path, GALLERY_MAGIC, GALLERY_VERSION, list(sections.items()))  # valid CRCs
    assert main(search_argv(tmp_path, 1)) == 3
    assert capsys.readouterr().err.startswith("error[data]: ")
    assert not (tmp_path / "r.csv").exists()


@pytest.mark.parametrize("ids", [["a", "a", "b"], []], ids=["duplicate-id", "empty"])
def test_search_on_a_gallery_breaking_a_gallery_rule_is_a_data_error(tmp_path, capsys, ids):
    odd_id_gallery(tmp_path, ["x"])  # the checkpoint and the queries
    meta = {"indexed_by": 1, "dim": 5, "count": len(ids), "has_labels": False}
    features = np.ones((len(ids), 5), dtype="<f4").tobytes()
    sections = [("ids", json.dumps(ids).encode("utf-8")), ("features", features)]
    write_artifact(tmp_path / "g.gal", GALLERY_MAGIC, GALLERY_VERSION, meta, sections)
    assert main(search_argv(tmp_path, 1)) == 3
    assert capsys.readouterr().err.startswith("error[data]: ")
    assert not (tmp_path / "r.csv").exists()


def test_search_writes_utf8_under_an_ascii_locale(tmp_path):
    odd_id_gallery(tmp_path, ["café", "plain"])
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "LC_ALL": "C", "PYTHONUTF8": "0", "PYTHONPATH": src}
    result = subprocess.run(
        [sys.executable, "-m", "compatlearn.cli", *search_argv(tmp_path, 2)],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )
    assert result.returncode == 0, result.stderr
    text = (tmp_path / "r.csv").read_text(encoding="utf-8")
    assert "café" in text
    assert len(text.splitlines()) == 1 + 4 * 2


def test_cli_end_to_end_via_main(tmp_path):
    config = write_config(tmp_path)
    assert main(["train", "--config", str(config), "--out", str(tmp_path / "exp")]) == 0
    assert main(["eval", "--exp", str(tmp_path / "exp")]) == 0
    assert (tmp_path / "exp" / "matrix.csv").exists()
    assert (
        main(
            [
                "report",
                "--matrix",
                str(tmp_path / "exp" / "matrix.csv"),
                "--out",
                str(tmp_path / "r.json"),
            ]
        )
        == 0
    )


def test_loaded_checkpoints_reproduce_training_features(tmp_path):
    config = write_config(tmp_path)
    exp = cmd_train(config, tmp_path / "exp", seed=6)
    model = load_model(exp / "checkpoint_task_001.ckpt")
    eval_ds = load_csv(exp / "eval_data.csv")
    from compatlearn.network import extract_features

    feats = extract_features(model, eval_ds.inputs)
    assert np.all(np.isfinite(feats))


def read_fuzzed(reader, content: bytes):
    """``reader`` on a file holding ``content``; None when it raises a package error."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp, "fuzz")
        path.write_bytes(content)
        try:
            return reader(path)
        except CompatLearnError:
            return None


# Cells and far targets a matrix file might hold: in range, out of range,
# non-finite, empty or not numbers at all.
ODD_NUMBERS = st.one_of(
    st.floats().map(repr),
    st.sampled_from(["", "nan", "-nan", "inf", "-inf", "1e999", "-0.0", "1.0000001", "0x1", "1_0"]),
    st.text(max_size=4),
)


@st.composite
def near_valid_matrices(draw):
    n = draw(st.integers(1, 4))
    rows = [[repr(draw(st.floats(0, 1))) if j <= i else "0.0" for j in range(n)] for i in range(n)]
    for _ in range(draw(st.integers(0, 3))):
        rows[draw(st.integers(0, n - 1))][draw(st.integers(0, n - 1))] = draw(ODD_NUMBERS)
    if draw(st.booleans()):
        rows[draw(st.integers(0, n - 1))].pop()
    metric = draw(st.sampled_from(["accuracy", "tar_at_far", "auc"]))
    far = draw(st.just("none") | ODD_NUMBERS)
    header = f"# schema=compat-matrix/1 metric={metric} far_target={far} tasks={n}"
    return "\n".join([header, *(",".join(row) for row in rows)]).encode("utf-8")


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.binary(max_size=200) | near_valid_matrices())
def test_matrix_reader_accepts_only_finite_values_in_range(content):
    matrix = read_fuzzed(read_matrix_csv, content)
    if matrix is not None:
        assert np.all(np.isfinite(matrix.values))
        assert np.all((matrix.values >= 0.0) & (matrix.values <= 1.0))
        assert matrix.far_target is None or math.isfinite(matrix.far_target)


CONFIG_KEYS = sorted({key for values in DEFAULT_CONFIG.values() for key in values})
CONFIG_VALUES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 10**6),
    st.floats(),
    st.text(max_size=6),
    st.sampled_from(["synthetic", "csv", "tanh", "trainable", "full_batch", "off"]),
    st.lists(st.integers(-2, 50) | st.floats(), max_size=3),
)
NEAR_VALID_CONFIGS = st.dictionaries(
    st.sampled_from(sorted(DEFAULT_CONFIG)) | st.text(max_size=4),
    st.dictionaries(st.sampled_from(CONFIG_KEYS) | st.text(max_size=4), CONFIG_VALUES, max_size=5)
    | CONFIG_VALUES,
    max_size=4,
).map(lambda config: json.dumps(config).encode("utf-8"))
DEFAULT_TEXT = json.dumps(DEFAULT_CONFIG).encode("utf-8")
# The default config with a few bytes spliced in somewhere.
SPLICED_CONFIGS = st.builds(
    lambda at, piece: DEFAULT_TEXT[:at] + piece + DEFAULT_TEXT[at:],
    st.integers(0, len(DEFAULT_TEXT)),
    st.binary(min_size=1, max_size=3) | st.sampled_from([b"Infinity", b"NaN", b"-1e999", b"9" * 5000]),
)


def numbers_in(value):
    if isinstance(value, dict):
        value = list(value.values())
    if isinstance(value, list):
        return [x for item in value for x in numbers_in(item)]
    return [value] if isinstance(value, (int, float)) and not isinstance(value, bool) else []


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.binary(max_size=200) | NEAR_VALID_CONFIGS | SPLICED_CONFIGS)
def test_config_loader_accepts_only_finite_numbers(content):
    config = read_fuzzed(load_config, content)
    if config is not None:
        assert all(isinstance(x, int) or math.isfinite(x) for x in numbers_in(config))
