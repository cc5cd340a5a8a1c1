import csv
import hashlib
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from compatlearn import cli, trainer
from compatlearn.cli import (
    DEFAULT_CONFIG,
    apply_master_seed,
    canonical_json,
    cmd_eval,
    cmd_report,
    cmd_search,
    cmd_train,
    experiment_components,
    load_config,
    main,
    read_matrix_csv,
    validate_config,
    write_manifest,
    write_matrix_csv,
)
from compatlearn.checkpoint import MODEL_MAGIC, MODEL_VERSION, load_model, save_model
from compatlearn.container import read_container, write_artifact, write_container
from compatlearn.data import (
    HELDOUT_MAGIC,
    HELDOUT_VERSION,
    SyntheticSpec,
    generate_pairs,
    load_csv,
    make_synthetic,
    save_csv,
    save_heldout,
)
from compatlearn.errors import (
    CompatLearnError,
    ConfigError,
    CorruptFileError,
    DataError,
    DivergenceError,
    MetricUndefinedError,
)
from compatlearn.evalkit import CompatibilityMatrix
from compatlearn.gallery import GALLERY_MAGIC, GALLERY_VERSION, index_gallery, save_gallery
from compatlearn.network import ModelConfig, init_model
from compatlearn.trainer import run_sequence, write_training_log

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
        "heldout.ckpt",
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
    for name, digest in manifest["artifacts"].items():
        assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digest


def test_train_cli_exit_codes(tmp_path):
    bad = write_config(tmp_path, {"data": {"wrong_key": 1}}, name="bad.json")
    code = main(["train", "--config", str(bad), "--out", str(tmp_path / "exp")])
    assert code == 2
    assert not (tmp_path / "exp").exists()  # no partial artifacts
    missing = main(["train", "--config", str(tmp_path / "nope.json"), "--out", str(tmp_path / "e2")])
    assert missing == 2


def test_an_allocation_the_machine_cannot_make_is_a_data_error(tmp_path, capsys):
    """10**12 samples per class asks numpy for petabytes at once, which fails
    before anything is allocated: a data error, not a traceback."""
    config = write_config(tmp_path, {"data": {"samples_per_class": 10**12}})
    assert main(["train", "--config", str(config), "--out", str(tmp_path / "exp")]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error[data]: Unable to allocate") and "Traceback" not in err
    assert not (tmp_path / "exp").exists()


@pytest.mark.parametrize("size", [2**62, 2**70], ids=["2**62", "2**70"])
@pytest.mark.parametrize(
    "section, key", [("data", "num_classes"), ("data", "samples_per_class"),
                     ("data", "input_dim"), ("model", "hidden_layers")]
)
def test_an_array_past_numpys_size_limit_is_a_data_error(tmp_path, capsys, section, key, size):
    """numpy refuses these shapes with a ValueError, not the MemoryError of a shape
    the machine cannot hold: the size rule makes them a data error, not a traceback."""
    payload = json.loads(json.dumps(TINY))
    payload[section][key] = [size] if key == "hidden_layers" else size
    config = write_config(tmp_path, payload)
    assert main(["train", "--config", str(config), "--out", str(tmp_path / "exp")]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error[data]: Unable to allocate") and "Traceback" not in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json"]


@pytest.mark.parametrize(
    "error, code, label",
    [
        (CompatLearnError, 3, "data"),
        (ConfigError, 2, "config"),
        (DataError, 3, "data"),
        (CorruptFileError, 3, "data"),
        (DivergenceError, 4, "divergence"),
        (MetricUndefinedError, 2, "config"),
        (OSError, 3, "data"),
        (MemoryError, 3, "data"),
    ],
)
def test_each_error_type_carries_its_exit_code(tmp_path, capsys, monkeypatch, error, code, label):
    def fail(*args):
        raise error("boom")

    monkeypatch.setattr("compatlearn.cli.cmd_report", fail)
    assert main(["report", "--matrix", "m.csv", "--out", str(tmp_path / "r.json")]) == code
    assert capsys.readouterr() == ("", f"error[{label}]: boom\n")


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
    "data, status, message",
    [
        ({"csv_path": "nonexistent.csv"}, 3, "error[data]: "),
        ({"source": "csv"}, 2, "error[config]: unknown config key data.source"),
        ({"csv_path": ""}, 2, "error[config]: invalid value for data.csv_path: ''"),
    ],
    ids=["path-selects-the-csv-reader", "source-key-is-unknown", "empty-path"],
)
def test_csv_path_alone_selects_csv_data(tmp_path, capsys, data, status, message):
    # Before, data.source repeated whether data.csv_path was set, and both had to agree.
    config = write_config(tmp_path, {"data": {"num_tasks": 2, **data}})
    assert main(["train", "--config", str(config), "--out", str(tmp_path / "exp")]) == status
    assert capsys.readouterr().err.startswith(message)
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


def test_train_writes_what_the_library_path_writes(tmp_path):
    config_path = write_config(tmp_path)
    out = cmd_train(config_path, tmp_path / "exp", seed=1)
    config = apply_master_seed(load_config(config_path), 1)
    sequence, eval_dataset, pairs, experiment = experiment_components(config)
    assert pairs.dataset is eval_dataset
    timeline = run_sequence(experiment, sequence)
    library = tmp_path / "library"
    library.mkdir()
    for task, checkpoint in enumerate(timeline.checkpoints, start=1):
        save_model(checkpoint, library / f"checkpoint_task_{task:03d}.ckpt")
    rows = [row for task_rows in timeline.logs for row in task_rows]
    write_training_log(rows, library / "training_log.csv")
    save_heldout(pairs, library / "heldout.ckpt")
    names = sorted(path.name for path in library.iterdir())
    assert len(names) == TINY["data"]["num_tasks"] + 2
    for name in names:
        assert (out / name).read_bytes() == (library / name).read_bytes(), name


def test_train_frees_each_task_once_it_is_trained(tmp_path, monkeypatch):
    build, run_task = cli.experiment_components, trainer.run_task
    inputs, alive = [], []  # weakrefs to each task's inputs; which live at each task's start

    def building(config):
        components = build(config)
        inputs.extend(weakref.ref(task.data.inputs) for task in components[0].tasks)
        return components

    def spying(state, task, *rest):
        alive.append([ref() is not None for ref in inputs])
        return run_task(state, task, *rest)

    monkeypatch.setattr(cli, "experiment_components", building)
    monkeypatch.setattr(trainer, "run_task", spying)
    cmd_train(write_config(tmp_path), tmp_path / "exp", seed=1)
    assert alive == [[True, True, True], [False, True, True], [False, False, True]]


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
    from_csv = {"data": {"num_tasks": 3, "csv_path": str(tmp_path / "preset.csv")}}
    runs = [
        cmd_train(write_config(tmp_path, payload, name=f"{name}.json"), tmp_path / name, seed=1)
        for name, payload in (("synthetic", synthetic), ("csv", from_csv))
    ]
    names = [f"checkpoint_task_00{t}.ckpt" for t in (1, 2, 3)] + [
        "training_log.csv",
        "eval_data.csv",
        "pairs.csv",
        "heldout.ckpt",
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
    """An experiment directory with one checkpoint, a valid held-out set and a manifest."""
    exp = tmp_path / "exp"
    exp.mkdir()
    (exp / "config.json").write_text(json.dumps({"data": {"num_tasks": 1}}))
    model = init_model(
        ModelConfig(input_dim=4, hidden_layers=(6,), feature_dim=3, nonlinearity="tanh", seed=0)
    )
    save_model(model, exp / "checkpoint_task_001.ckpt")
    held_out = make_synthetic(
        SyntheticSpec(
            num_classes=3, samples_per_class=4, input_dim=4, cluster_sigma=0.1,
            mean_seed=0, noise_seed=1, intrinsic_dim=None,
        )
    )
    save_heldout(generate_pairs(held_out, 10, seed=0), exp / "heldout.ckpt")
    write_manifest(exp, [0.0])
    return exp


def test_the_manifest_records_the_config_hash_once(tmp_path):
    # Before, config_sha256 repeated the hash of config.json that "artifacts" records.
    exp = small_experiment(tmp_path)
    manifest = json.loads((exp / "manifest.json").read_text())
    assert set(manifest) == {"schema", "tool_version", "artifacts", "task_seconds", "created_unix"}
    digest = hashlib.sha256((exp / "config.json").read_bytes()).hexdigest()
    assert manifest["artifacts"]["config.json"] == digest


def edit_heldout(path, edit):
    """Rewrite the held-out file with ``edit(sections)`` applied, checksums recomputed."""
    sections = read_container(path, HELDOUT_MAGIC, HELDOUT_VERSION)
    edit(sections)
    write_container(path, HELDOUT_MAGIC, HELDOUT_VERSION, list(sections.items()))


def edit_meta(old: bytes, new: bytes):
    return lambda sections: sections.update(meta=sections["meta"].replace(old, new))


def set_entry(name, dtype, index, value):
    def edit(sections):
        array = np.frombuffer(sections[name], dtype=dtype).copy()
        array[index] = value
        sections[name] = array.tobytes()

    return edit


# Edits of small_experiment's held-out file (meta {"input_dim": 4, "pairs": 10,
# "rows": 12}) with valid checksums. The CSV parser's cases of the first five
# names are tests/test_data.py::test_unreadable_csv_bytes_are_data_errors.
HELDOUT_EDITS = {
    "undecodable-data": edit_meta(b"}", b"\xff}"),
    "long-number": edit_meta(b'"rows": 12', b'"rows": ' + b"9" * 200_000),
    "long-header-cell": edit_meta(b'"rows"', b'"' + b"r" * 200_000 + b'"'),
    "long-bad-cell": lambda sections: sections.update(inputs=sections["inputs"] + bytes(8)),
    "undecodable-pairs": set_entry("genuine", "u1", 0, 2),
    "missing-section": lambda sections: sections.pop("ids_b"),
    "negative-count": edit_meta(b'"pairs": 10', b'"pairs": -1'),
    "non-finite-input": set_entry("inputs", "<f8", 5, np.inf),
    "pair-id-out-of-range": set_entry("ids_a", "<i8", 0, 12),
}


@pytest.mark.parametrize("edit", sorted(HELDOUT_EDITS))
def test_unreadable_eval_inputs_are_data_errors(tmp_path, capsys, edit):
    exp = small_experiment(tmp_path)
    assert main(["eval", "--exp", str(exp), "--out", str(tmp_path / "ok")]) == 0
    edit_heldout(exp / "heldout.ckpt", HELDOUT_EDITS[edit])
    capsys.readouterr()
    assert main(["eval", "--exp", str(exp), "--out", str(tmp_path / "bad")]) == 3
    assert capsys.readouterr().err.startswith(f"error[data]: {exp / 'heldout.ckpt'}: ")
    assert not (tmp_path / "bad").exists()


@pytest.mark.parametrize(
    "metric, far",
    [("tar_at_far", None), ("tar_at_far", "0"), ("tar_at_far", "nan"), ("tar_at_far", "1.5")]
    + [("accuracy", "0.5")],
    ids=["missing-far-undecodable-data", "far-0", "far-nan", "far-1.5", "far-without-tar_at_far"],
)
def test_bad_far_is_a_config_error_before_any_work(tmp_path, capsys, metric, far):
    exp = small_experiment(tmp_path)
    # The arguments are checked before any checkpoint or the held-out set is read.
    (exp / "checkpoint_task_001.ckpt").unlink()
    (exp / "heldout.ckpt").write_bytes(b"\xff")
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


def test_eval_refuses_a_flipped_byte_in_the_heldout_set(tmp_path, capsys):
    exp = trained_experiment(tmp_path)
    path = exp / "heldout.ckpt"
    blob = bytearray(path.read_bytes())
    blob[len(blob) // 2] ^= 0x01  # inside the inputs section's payload
    path.write_bytes(bytes(blob))
    capsys.readouterr()
    assert main(["eval", "--exp", str(exp), "--out", str(tmp_path / "bad")]) == 3
    assert capsys.readouterr().err.startswith(
        f"error[data]: {path}: checksum mismatch in section 'inputs'"
    )
    assert not (tmp_path / "bad").exists()


def test_eval_without_a_heldout_set_names_the_file(tmp_path, capsys):
    exp = trained_experiment(tmp_path)
    (exp / "heldout.ckpt").unlink()
    capsys.readouterr()
    assert main(["eval", "--exp", str(exp), "--out", str(tmp_path / "bad")]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error[data]: ") and str(exp / "heldout.ckpt") in err
    assert not (tmp_path / "bad").exists()


def test_eval_reads_neither_csv_export(tmp_path):
    exp = trained_experiment(tmp_path)
    argv = [["--metric", "accuracy"], ["--metric", "tar_at_far", "--far", "0.1"]]
    for i, args in enumerate(argv):
        assert main(["eval", "--exp", str(exp), *args, "--out", str(tmp_path / f"full{i}")]) == 0
    (exp / "eval_data.csv").unlink()
    (exp / "pairs.csv").unlink()
    for i, args in enumerate(argv):
        assert main(["eval", "--exp", str(exp), *args, "--out", str(tmp_path / f"bare{i}")]) == 0
        for name in ("matrix.csv", "report.json"):
            full, bare = tmp_path / f"full{i}" / name, tmp_path / f"bare{i}" / name
            assert bare.read_bytes() == full.read_bytes(), name


@pytest.mark.parametrize(
    "content",
    [None, b"{not json", b'{"data": {"num_tasks": 0}}', b'{"data": {"num_taks": 1}}', "source"],
    ids=["missing", "not-json", "zero-tasks", "unknown-key", "data-source"],
)
def test_eval_never_reads_the_experiment_config(tmp_path, content):
    # The manifest lists what eval reads, so a config.json that is gone, garbled or
    # refused by today's schema (data.source repeated whether data.csv_path was set,
    # and was dropped from it) changes no byte eval writes.
    exp = trained_experiment(tmp_path, num_tasks=2)
    assert main(["eval", "--exp", str(exp), "--out", str(tmp_path / "before")]) == 0
    config = exp / "config.json"
    if content is None:
        config.unlink()
    elif content == "source":
        payload = json.loads(config.read_text())
        payload["data"]["source"] = "synthetic"
        config.write_text(json.dumps(payload))
    else:
        config.write_bytes(content)
    assert main(["eval", "--exp", str(exp), "--out", str(tmp_path / "after")]) == 0
    for name in ("matrix.csv", "report.json"):
        before, after = (tmp_path / run / name for run in ("before", "after"))
        assert after.read_bytes() == before.read_bytes(), name


@pytest.mark.parametrize(
    "name, config, seed",
    [
        ("checkpoint_task_002.ckpt", {"data": {"num_tasks": 2}}, "2"),
        ("heldout.ckpt", {"data": {"num_tasks": 2, "split_seed": 7}}, "1"),
    ],
    ids=["checkpoint-of-seed-2", "heldout-of-split-seed-7"],
)
def test_eval_refuses_a_well_formed_file_from_another_run(tmp_path, capsys, name, config, seed):
    exp = trained_experiment(tmp_path, num_tasks=2)
    other = tmp_path / "other"
    argv = ["train", "--config", str(write_config(tmp_path, config, name="other.json"))]
    assert main([*argv, "--out", str(other), "--seed", seed]) == 0
    assert (other / name).read_bytes() != (exp / name).read_bytes()
    (exp / name).write_bytes((other / name).read_bytes())  # its CRCs and reader pass
    capsys.readouterr()
    assert main(["eval", "--exp", str(exp), "--out", str(tmp_path / "bad")]) == 3
    assert capsys.readouterr().err.startswith(
        f"error[data]: {exp / name}: not the file manifest.json records"
    )
    assert not (tmp_path / "bad").exists()


def drop_artifact(name):
    return lambda manifest: manifest["artifacts"].pop(name)


def set_artifact(name, value):
    return lambda manifest: manifest["artifacts"].__setitem__(name, value)


UNREADABLE = "unreadable manifest {exp}/manifest.json: "
ZEROS = "0" * 64
MISSING, UNEXPECTED = "missing checkpoint {exp}/", "unexpected checkpoint {exp}/"


def changed(name):
    return "{exp}/" + name + ": not the file manifest.json records (sha256 differs)"


# Edits of a 3-task run's manifest, and the start of eval's error for each.
MANIFEST_EDITS = {
    "deleted": (None, UNREADABLE + "FileNotFoundError"),
    "not-json": (b"{", UNREADABLE + "JSONDecodeError"),
    "undecodable": (b"\xff", UNREADABLE + "UnicodeDecodeError"),
    "too-deep": (b"[" * 100_000, UNREADABLE + "RecursionError"),
    "no-artifacts": (b"{}", UNREADABLE + "KeyError"),
    "artifacts-a-list": (b'{"artifacts": []}', UNREADABLE),
    "gap": (drop_artifact("checkpoint_task_002.ckpt"), MISSING + "checkpoint_task_002"),
    "unlisted": (drop_artifact("checkpoint_task_003.ckpt"), UNEXPECTED + "checkpoint_task_003"),
    "absent": (set_artifact("checkpoint_task_004.ckpt", ZEROS), MISSING + "checkpoint_task_004"),
    "odd-name": (set_artifact("checkpoint_task_x.ckpt", ZEROS), MISSING + "checkpoint_task_004"),
    "heldout-unlisted": (drop_artifact("heldout.ckpt"), changed("heldout.ckpt")),
    "hash-changed": (
        set_artifact("checkpoint_task_001.ckpt", ZEROS), changed("checkpoint_task_001.ckpt")
    ),
    "hash-not-a-string": (set_artifact("heldout.ckpt", None), changed("heldout.ckpt")),
    "another-schema": (
        lambda manifest: manifest.update(schema="run-manifest/9"),
        UNREADABLE + "ValueError(\"schema 'run-manifest/9' is not 'run-manifest/1'\")",
    ),
    "no-schema": (lambda manifest: manifest.pop("schema"), UNREADABLE + "KeyError('schema')"),
}


@pytest.mark.parametrize("edit", sorted(MANIFEST_EDITS))
def test_eval_reads_an_experiment_through_its_manifest(tmp_path, capsys, edit):
    exp = trained_experiment(tmp_path)
    path = exp / "manifest.json"
    change, message = MANIFEST_EDITS[edit]
    if change is None:
        path.unlink()
    elif isinstance(change, bytes):
        path.write_bytes(change)
    else:
        manifest = json.loads(path.read_text())
        change(manifest)
        path.write_text(json.dumps(manifest))
    capsys.readouterr()
    assert main(["eval", "--exp", str(exp)]) == 3
    assert capsys.readouterr().err.startswith("error[data]: " + message.format(exp=exp))
    assert not (exp / "matrix.csv").exists() and not (exp / "report.json").exists()


def test_checkpoint_meta_nested_too_deep_is_a_data_error(tmp_path, capsys):
    exp = small_experiment(tmp_path)
    meta = b"[" * 100_000
    write_container(exp / "checkpoint_task_001.ckpt", MODEL_MAGIC, MODEL_VERSION, [("meta", meta)])
    assert main(["eval", "--exp", str(exp), "--out", str(tmp_path / "bad")]) == 3
    assert capsys.readouterr().err.startswith("error[data]: ")
    assert not (tmp_path / "bad").exists()


# Each case forges the stored config (valid CRCs) so that its layer sizes no longer fit
# the 4 -> 6 -> 3 sections; the first three ids name the shape fact each case breaks,
# which the meta once also stated beside the config.
@pytest.mark.parametrize(
    "hidden_layers, feature_dim, message",
    [
        pytest.param([5], 3, "malformed model checkpoint", id="weight_shapes-value0"),
        pytest.param([6, 6], 3, "8 sections do not fit [4, 6, 6, 3]", id="bias_shapes-value1"),
        pytest.param([], 3, "8 sections do not fit [4, 3]", id="num_layers-1"),
        # fits the first layer's sections but would leave the second layer's unread
        pytest.param([], 6, "8 sections do not fit [4, 6]", id="num_layers-1-feature_dim-6"),
    ],
)
def test_checkpoint_with_wrong_layer_shapes_is_a_data_error(
    tmp_path, capsys, hidden_layers, feature_dim, message
):
    exp = small_experiment(tmp_path)
    path = exp / "checkpoint_task_001.ckpt"
    sections = read_container(path, MODEL_MAGIC, MODEL_VERSION)
    meta = json.loads(sections.pop("meta"))
    meta["config"].update(hidden_layers=hidden_layers, feature_dim=feature_dim)
    payload = [("meta", json.dumps(meta).encode("utf-8")), *sections.items()]
    write_container(path, MODEL_MAGIC, MODEL_VERSION, payload)
    with pytest.raises(CorruptFileError, match=re.escape(message)):
        load_model(path)
    assert main(["eval", "--exp", str(exp), "--out", str(tmp_path / "bad")]) == 3
    assert capsys.readouterr().err.startswith(f"error[data]: {path}: {message}")
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
    for key in ("ac", "am", "bc", "fc", "bc_series", "metric", "tasks"):
        assert recomputed[key] == full[key]


@pytest.mark.parametrize("far", [np.float64(0.1), np.float32(0.1)])
def test_a_numpy_far_target_round_trips_through_matrix_csv(tmp_path, far):
    # Before, the header read far_target=np.float64(0.1), which the reader refused.
    path = tmp_path / "matrix.csv"
    write_matrix_csv(CompatibilityMatrix(np.eye(2) * 0.5, "tar_at_far", far), path)
    assert path.read_text().startswith(f"# schema=compat-matrix/1 metric=tar_at_far "
                                       f"far_target={float(far)!r} tasks=2\n")
    matrix = read_matrix_csv(path)
    assert type(matrix.far_target) is float and matrix.far_target == float(far)


def test_eval_at_a_numpy_far_target_writes_what_report_reads(tmp_path):
    exp = cmd_train(write_config(tmp_path), tmp_path / "exp", seed=5)
    matrix_path, report_path = cmd_eval(exp, "tar_at_far", np.float64(0.1), tmp_path / "np")
    plain_matrix, plain_report = cmd_eval(exp, "tar_at_far", 0.1, tmp_path / "plain")
    assert matrix_path.read_bytes() == plain_matrix.read_bytes()
    assert report_path.read_bytes() == plain_report.read_bytes()
    cmd_report(matrix_path, tmp_path / "report.json")
    recomputed = json.loads((tmp_path / "report.json").read_text())
    assert recomputed["far_target"] == 0.1
    for far in (True, np.True_):
        with pytest.raises(ConfigError, match="far_target must be a number, got"):
            cmd_eval(exp, "tar_at_far", far, tmp_path / "bool")
    assert not (tmp_path / "bool").exists()


@pytest.mark.parametrize(
    "header",
    [
        "# schema=compat-matrix/1 far_target=none tasks=1",
        "# schema=compat-matrix/1 metric=accuracy tasks=1",
        "# schema=compat-matrix/1 metric=tar_at_far far_target=abc tasks=1",
        "# schema=compat-matrix/1 metric=tar_at_far far_target=nan tasks=1",
        "# schema=compat-matrix/1 metric=tar_at_far far_target=inf tasks=1",
        # Before, the header's task count was never read.
        "# schema=compat-matrix/1 metric=accuracy far_target=none tasks=7",
        "# schema=compat-matrix/1 metric=accuracy far_target=none tasks=x",
        "# schema=compat-matrix/1 metric=accuracy far_target=none",
    ],
)
def test_report_rejects_a_malformed_matrix_header(tmp_path, header):
    path = tmp_path / "matrix.csv"
    path.write_text(header + "\n0.5\n")
    with pytest.raises(DataError):
        read_matrix_csv(path)
    assert main(["report", "--matrix", str(path), "--out", str(tmp_path / "r.json")]) == 3
    assert not (tmp_path / "r.json").exists()


@pytest.mark.parametrize(
    "header",
    [
        "metric=accuracy far_target=5.0",
        "metric=accuracy far_target=0.1",
        "metric=tar_at_far far_target=none",
        "metric=tar_at_far far_target=5.0",
    ],
)
def test_report_refuses_a_far_target_its_metric_does_not_take(tmp_path, capsys, header):
    # Before, metric=accuracy far_target=5.0 exited 0 and wrote "far_target": 5.0.
    path = tmp_path / "matrix.csv"
    path.write_text(f"# schema=compat-matrix/1 {header} tasks=1\n0.5\n")
    assert main(["report", "--matrix", str(path), "--out", str(tmp_path / "r.json")]) == 3
    assert capsys.readouterr().err.startswith("error[data]: ")
    assert not (tmp_path / "r.json").exists()


@pytest.mark.parametrize(
    "text",
    [
        "# schema=compat-matrix/1 metric=accuracy far_target=5.0 tasks=1\n0.5\n",
        "# schema=compat-matrix/1 metric=accuracy far_target=none tasks=2\n0.5,0.1\n0.5,0.5\n",
    ],
    ids=["far-target-on-accuracy", "entry-above-the-diagonal"],
)
def test_report_names_the_matrix_file_in_a_matrix_rule_error(tmp_path, capsys, text):
    # Before, these errors came from CompatibilityMatrix without the file's path.
    path = tmp_path / "matrix.csv"
    path.write_text(text)
    assert main(["report", "--matrix", str(path), "--out", str(tmp_path / "r.json")]) == 3
    assert capsys.readouterr().err.startswith(f"error[data]: {path}: ")
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
        SyntheticSpec(
            num_classes=2, samples_per_class=3, input_dim=6, cluster_sigma=0.1,
            mean_seed=0, noise_seed=1, intrinsic_dim=None,
        )
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
        SyntheticSpec(
            num_classes=2, samples_per_class=2, input_dim=6, cluster_sigma=0.1,
            mean_seed=0, noise_seed=1, intrinsic_dim=None,
        )
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


@pytest.mark.parametrize(
    "ids, forged",
    [
        (["a", "a", "b"], {}),
        ([], {}),
        (["a", "b", "c"], {"dim": -1}),  # numpy would infer the -1
        (["a", "b", "c"], {"count": -1}),
    ],
    ids=["duplicate-id", "empty", "dim-minus-one", "count-minus-one"],
)
def test_search_on_a_gallery_breaking_a_gallery_rule_is_a_data_error(
    tmp_path, capsys, ids, forged
):
    odd_id_gallery(tmp_path, ["x"])  # the checkpoint and the queries
    meta = {"indexed_by": 1, "dim": 5, "count": len(ids), "has_labels": False, **forged}
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


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(near_valid_matrices())
def test_matrix_reader_keeps_only_a_far_target_its_metric_takes(content):
    matrix = read_fuzzed(read_matrix_csv, content)
    if matrix is not None:
        far = matrix.far_target
        assert far is None if matrix.metric == "accuracy" else 0.0 < far <= 1.0


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
