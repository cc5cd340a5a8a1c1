"""Structured mutations of every file ``eval`` and ``search`` read, run through ``cli.main``.

Each example copies one small experiment (two checkpoints, the held-out set and the
manifest), a gallery indexed by its first checkpoint and a query CSV, changes one
file, and runs both commands on the copy. A container is changed with its CRCs
recomputed, so the change reaches the reader: a meta value replaced or deleted, a
section's bytes flipped or truncated, a section dropped or added, or the whole file
taken from a sibling. Its sha256 in the manifest is recomputed too in some examples,
so a well-formed change also reaches scoring. The manifest is changed as JSON or as
bytes. Whatever the change, each command exits 0, 2, 3 or 4, prints no traceback and
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
from compatlearn.cli import main, write_manifest
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
        init_model(ModelConfig(input_dim=4, hidden_layers=(6,), feature_dim=3, seed=seed))
        for seed in (0, 1)
    ]
    for task, model in enumerate(models, start=1):
        save_model(model, exp / f"checkpoint_task_{task:03d}.ckpt")
    held_out = make_synthetic(
        SyntheticSpec(num_classes=3, samples_per_class=4, input_dim=4, cluster_sigma=0.1)
    )
    save_heldout(held_out, generate_pairs(held_out, 10, seed=0), exp / "heldout.ckpt")
    spec = SyntheticSpec(num_classes=3, samples_per_class=5, input_dim=4, cluster_sigma=0.2)
    other = make_synthetic(dataclasses.replace(spec, mean_seed=1))
    save_heldout(other, generate_pairs(other, 12, seed=1), root / "other.ckpt")
    (exp / "config.json").write_text("{}")
    write_manifest(exp, "{}", [0.0, 0.0])
    ids = [f"item{i}" for i in range(len(held_out))]
    gallery = index_gallery(ids, held_out.inputs, models[0], 1, held_out.labels)
    save_gallery(gallery, root / "g.gal")
    save_gallery(index_gallery(ids[:5], other.inputs[:5], models[1], 2), root / "other.gal")
    save_csv(other, root / "q.csv")
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
