"""Structured mutations of every file the commands read, run through ``cli.main``.

Each example of the first test copies one small experiment (two checkpoints, the
held-out set and the manifest), a gallery indexed by its first checkpoint and a query
CSV, changes one file, and runs ``eval`` and ``search`` on the copy. A container is
changed with its CRCs recomputed, so the change reaches the reader: a meta value
replaced or deleted, a section's bytes flipped or truncated, a section dropped or
added, or the whole file taken from a sibling. Its sha256 in the manifest is
recomputed too in some examples, so a well-formed change also reaches scoring. The
manifest is changed as JSON or as bytes. The other tests run ``train`` on a changed
tiny config, ``report`` on a changed ``matrix.csv`` and ``search`` on a changed query
CSV. Whatever the change, each command exits 0, 2, 3 or 4, prints no traceback and
leaves no ``.tmp`` file, and one that fails leaves no output behind.
"""

import contextlib
import dataclasses
import hashlib
import io
import json
import shutil
import tempfile
from functools import reduce
from operator import getitem
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from compatlearn.checkpoint import MODEL_MAGIC, MODEL_VERSION, save_model
from compatlearn.cli import cmd_eval, main, write_manifest
from compatlearn.config import DEFAULT_CONFIG
from compatlearn.container import read_container, write_container
from compatlearn.data import (
    HELDOUT_MAGIC,
    HELDOUT_VERSION,
    SyntheticSpec,
    generate_pairs,
    make_synthetic,
    save_csv,
    save_heldout,
)
from compatlearn.gallery import GALLERY_MAGIC, GALLERY_VERSION, index_gallery, save_gallery
from compatlearn.network import ModelConfig, init_model

# Each mutated file, with its container kind and a well-formed sibling of that kind.
CONTAINERS = {
    "exp/checkpoint_task_001.ckpt": (MODEL_MAGIC, MODEL_VERSION, "exp/checkpoint_task_002.ckpt"),
    "exp/checkpoint_task_002.ckpt": (MODEL_MAGIC, MODEL_VERSION, "exp/checkpoint_task_001.ckpt"),
    "exp/heldout.ckpt": (HELDOUT_MAGIC, HELDOUT_VERSION, "other.ckpt"),
    "g.gal": (GALLERY_MAGIC, GALLERY_VERSION, "other.gal"),
}
ODD_VALUES = st.sampled_from(
    [-1, 0, 1, 1.5, 2**63, 2**70, 1e300, float("nan"), "x", "", [], [0], [[1, 2]], {}, {"x": 1}]
    + [None, True, False]
)
ARTIFACT_NAMES = st.sampled_from(
    ["checkpoint_task_003.ckpt", "checkpoint_task_000.ckpt", "checkpoint_task_1.ckpt",
     "checkpoint_task_.ckpt", "heldout.ckpt", "config.json", "x"]
)


@pytest.fixture(scope="module")
def pristine(tmp_path_factory):
    root = tmp_path_factory.mktemp("pristine")
    exp = root / "exp"
    exp.mkdir()
    models = [
        init_model(
            ModelConfig(input_dim=4, hidden_layers=(6,), feature_dim=3, nonlinearity="relu", seed=seed)
        )
        for seed in (0, 1)
    ]
    for task, model in enumerate(models, start=1):
        save_model(model, exp / f"checkpoint_task_{task:03d}.ckpt")
    held_out = make_synthetic(
        SyntheticSpec(
            num_classes=3, samples_per_class=4, input_dim=4, cluster_sigma=0.1,
            mean_seed=0, noise_seed=1, intrinsic_dim=None,
        )
    )
    save_heldout(generate_pairs(held_out, 10, seed=0), exp / "heldout.ckpt")
    spec = SyntheticSpec(
        num_classes=3, samples_per_class=5, input_dim=4, cluster_sigma=0.2,
        mean_seed=0, noise_seed=1, intrinsic_dim=None,
    )
    other = make_synthetic(dataclasses.replace(spec, mean_seed=1))
    save_heldout(generate_pairs(other, 12, seed=1), root / "other.ckpt")
    (exp / "config.json").write_text("{}")
    write_manifest(exp, [0.0, 0.0])
    ids = [f"item{i}" for i in range(len(held_out))]
    gallery = index_gallery(ids, held_out.inputs, models[0], 1, held_out.labels)
    save_gallery(gallery, root / "g.gal")
    save_gallery(index_gallery(ids[:5], other.inputs[:5], models[1], 2), root / "other.gal")
    save_csv(other, root / "q.csv")
    cmd_eval(exp, out_dir=root / "scored")
    return root


def node_paths(value, path=()):
    """The key path of every object member and array item under ``value``."""
    if isinstance(value, dict):
        items = value.items()
    elif isinstance(value, list):
        items = enumerate(value)
    else:
        return
    for key, child in items:
        yield (*path, key)
        yield from node_paths(child, (*path, key))


def mutate_json(document, data):
    """``document`` with one member or item replaced by an odd value, or deleted."""
    paths = list(node_paths(document))
    if not paths:
        return data.draw(ODD_VALUES)
    path = data.draw(st.sampled_from(paths))
    parent = reduce(getitem, path[:-1], document)
    if data.draw(st.booleans()):
        parent[path[-1]] = data.draw(ODD_VALUES)
    else:
        del parent[path[-1]]
    return document


def mutate_bytes(blob: bytes, data) -> bytes:
    """``blob`` with one bit flipped, or truncated."""
    if blob and data.draw(st.booleans()):
        at = data.draw(st.integers(0, len(blob) - 1))
        return blob[:at] + bytes([blob[at] ^ 1 << data.draw(st.integers(0, 7))]) + blob[at + 1 :]
    return blob[: data.draw(st.integers(0, max(len(blob) - 1, 0)))]


def mutate_container(root: Path, name: str, data) -> None:
    magic, version, sibling = CONTAINERS[name]
    path = root / name
    kind = data.draw(st.sampled_from(["meta", "bytes", "drop", "add", "sibling"]))
    if kind == "sibling":  # a whole well-formed file of the same kind
        shutil.copyfile(root / sibling, path)
        return
    sections = list(read_container(path, magic, version).items())
    if kind == "meta":
        meta = mutate_json(json.loads(sections[0][1]), data)
        sections[0] = ("meta", json.dumps(meta).encode("utf-8"))
    elif kind == "bytes":
        at = data.draw(st.integers(0, len(sections) - 1))
        sections[at] = (sections[at][0], mutate_bytes(sections[at][1], data))
    elif kind == "drop":
        del sections[data.draw(st.integers(0, len(sections) - 1))]
    else:  # a repeated section or an unknown one
        sections.append(data.draw(st.sampled_from(sections) | st.just(("extra", b"x"))))
    write_container(path, magic, version, sections)  # CRCs recomputed


def mutate_manifest(path: Path, data) -> None:
    kind = data.draw(st.sampled_from(["json", "bytes", "listed"]))
    if kind == "bytes":
        path.write_bytes(mutate_bytes(path.read_bytes(), data))
        return
    manifest = json.loads(path.read_text())
    if kind == "json":
        manifest = mutate_json(manifest, data)
    else:  # one more name listed, with a hash of a listed file or none at all
        hashes = st.sampled_from(sorted(manifest["artifacts"].values()))
        manifest["artifacts"][data.draw(ARTIFACT_NAMES)] = data.draw(hashes | ODD_VALUES)
    path.write_text(json.dumps(manifest))


def rehash(root: Path, name: str) -> None:
    """Record ``name``'s current sha256 in the experiment's manifest."""
    path = root / "exp/manifest.json"
    manifest = json.loads(path.read_text())
    digest = hashlib.sha256((root / name).read_bytes()).hexdigest()
    manifest["artifacts"][Path(name).name] = digest
    path.write_text(json.dumps(manifest))


def run(argv) -> tuple[int, str]:
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)  # an exception that escapes main fails the test with its traceback
    return code, err.getvalue()


@settings(
    max_examples=200,
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(data=st.data())
def test_eval_and_search_exit_cleanly_on_a_mutated_file(pristine, data):
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        shutil.copytree(pristine, root, dirs_exist_ok=True)
        name = data.draw(st.sampled_from([*CONTAINERS, "exp/manifest.json"]))
        if name in CONTAINERS:
            mutate_container(root, name, data)
            if name.startswith("exp/") and data.draw(st.booleans()):
                rehash(root, name)
        else:
            mutate_manifest(root / name, data)
        commands = {
            "eval": (["--exp", str(root / "exp"), "--out", str(root / "eval")], root / "eval"),
            "search": (
                ["--gallery", str(root / "g.gal"), "--queries", str(root / "q.csv"),
                 "--checkpoint", str(root / "exp/checkpoint_task_001.ckpt"), "--top-n", "2",
                 "--out", str(root / "r.csv")],
                root / "r.csv",
            ),
        }
        for command, (argv, out) in commands.items():
            code, err = run([command, *argv])
            assert code in {0, 2, 3, 4}, (command, err)
            assert "Traceback" not in err
            assert out.exists() == (code == 0), (command, err)
        assert not list(root.rglob("*.tmp"))


def assert_exits_cleanly(root: Path, argv, out: Path) -> None:
    code, err = run(argv)
    assert code in {0, 2, 3, 4}, err
    assert "Traceback" not in err
    assert out.exists() == (code == 0), err
    assert not list(root.rglob("*.tmp"))


# A tiny run: 6 classes of 4 samples in 4 dimensions, two tasks of two epochs.
TINY_CONFIG = {
    "data": {"num_classes": 6, "samples_per_class": 4, "input_dim": 4, "sigma": 0.2,
             "intrinsic_dim": 2, "eval_classes": 2, "num_tasks": 2},
    "model": {"hidden_layers": [5]},
    "training": {"epochs_per_task": 2, "batch_size": 8, "lr_milestones": [1]},
    "memory": {"per_class": 2},
    "pairs": {"num_pairs": 10},
}
# An array past numpy's size limit (2**62 samples, a 2**70-unit layer) fails before
# any work. An epoch count passes every rule at any size and trains that long, so it
# gets only values that a rule refuses or that are no larger than the tiny run's.
CONFIG_VALUES = (
    ODD_VALUES
    | st.sampled_from([2**62, 2**70, [2**62], [2**70]])
    | st.sampled_from([2, [1, 2], "relu", "trainable", "full_batch", "off"])
)
BOUNDED_KEYS = {"epochs_per_task": TINY_CONFIG["training"]["epochs_per_task"]}


def config_value(key, data):
    bound = BOUNDED_KEYS.get(key)
    return data.draw(
        CONFIG_VALUES.filter(lambda v: bound is None or type(v) is not int or v <= bound)
    )


def mutated_config(data) -> bytes:
    """The tiny config with one value replaced, deleted or added, or its bytes changed."""
    config = json.loads(json.dumps(TINY_CONFIG))
    kind = data.draw(st.sampled_from(["replace", "delete", "add", "bytes"]))
    if kind == "add":  # a key the tiny run leaves at its default, or an unknown one
        section = data.draw(st.sampled_from(sorted(DEFAULT_CONFIG)) | st.just("extra"))
        key = data.draw(st.sampled_from([*sorted(DEFAULT_CONFIG.get(section, {})), "x"]))
        config.setdefault(section, {})[key] = config_value(key, data)
    elif kind != "bytes":
        path = data.draw(st.sampled_from(list(node_paths(config))))
        parent = reduce(getitem, path[:-1], config)
        if kind == "delete":
            del parent[path[-1]]
        else:
            parent[path[-1]] = config_value(path[-1], data)
    text = json.dumps(config).encode("utf-8")
    return mutate_bytes(text, data) if kind == "bytes" else text


@settings(
    max_examples=300,
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(data=st.data())
def test_train_exits_cleanly_on_a_mutated_config(data):
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        config = root / "config.json"
        config.write_bytes(mutated_config(data))
        out = root / "exp"
        assert_exits_cleanly(root, ["train", "--config", str(config), "--out", str(out)], out)
        # A run that fails leaves no staging directory either.
        assert {p.name for p in root.iterdir()} <= {"config.json", "exp"}


ODD_CELLS = st.sampled_from(
    ["", "x", "-1", "0", "1", "2", "0.5", "-0.0", "nan", "inf", "1e999", "1_0", "0x1", " 1 "]
    + ['"1"', "9" * 400, "\xe9", "tasks=3", "tasks=x", "metric=tar_at_far", "far_target=0.5"]
)


def mutate_lines(text: str, data) -> bytes:
    """``text`` with a cell replaced, added or deleted, a line dropped or repeated, or its
    bytes changed. The cells of a ``#`` header line are its space-separated tokens."""
    kind = data.draw(st.sampled_from(["cell", "add", "delete", "line", "bytes"]))
    if kind == "bytes":
        return mutate_bytes(text.encode("utf-8"), data)
    lines = text.split("\n")
    at = data.draw(st.integers(0, len(lines) - 1))
    if kind == "line":
        lines[at : at + 1] = [lines[at]] * data.draw(st.sampled_from([0, 2]))
    else:
        sep = " " if lines[at].startswith("#") else ","
        cells = lines[at].split(sep)
        where = data.draw(st.integers(0, len(cells) - 1))
        if kind == "cell":
            cells[where] = data.draw(ODD_CELLS)
        elif kind == "add":
            cells.insert(where, data.draw(ODD_CELLS))
        else:
            del cells[where]
        lines[at] = sep.join(cells)
    return "\n".join(lines).encode("utf-8")


@settings(max_examples=150, derandomize=True, deadline=None)
@given(data=st.data())
def test_report_exits_cleanly_on_a_mutated_matrix(pristine, data):
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        text = (pristine / "scored/matrix.csv").read_text(encoding="utf-8")
        (root / "matrix.csv").write_bytes(mutate_lines(text, data))
        out = root / "report.json"
        assert_exits_cleanly(root, ["report", "--matrix", str(root / "matrix.csv"),
                                    "--out", str(out)], out)


@settings(max_examples=150, derandomize=True, deadline=None)
@given(data=st.data())
def test_search_exits_cleanly_on_a_mutated_query_file(pristine, data):
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        text = (pristine / "q.csv").read_text(encoding="utf-8")
        (root / "q.csv").write_bytes(mutate_lines(text, data))
        out = root / "r.csv"
        argv = ["search", "--gallery", str(pristine / "g.gal"), "--queries", str(root / "q.csv"),
                "--checkpoint", str(pristine / "exp/checkpoint_task_001.ckpt"), "--top-n", "2",
                "--out", str(out)]
        assert_exits_cleanly(root, argv, out)
