import hashlib
import json
import os
import struct
import subprocess
import sys
import tempfile
import textwrap
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from compatlearn.checkpoint import MODEL_MAGIC, MODEL_VERSION, load_model, save_model
from compatlearn.container import read_container, write_artifact, write_container
from compatlearn.data import (
    HELDOUT_MAGIC,
    HELDOUT_VERSION,
    LabeledDataset,
    VerificationPairSet,
    generate_pairs,
    load_csv,
    load_heldout,
    load_pairs,
    make_synthetic,
    save_csv,
    save_heldout,
    save_pairs,
    SyntheticSpec,
)
from compatlearn.errors import (
    CompatLearnError,
    CorruptFileError,
    DataError,
    UnsupportedVersionError,
)
from compatlearn.gallery import (
    GALLERY_MAGIC,
    GALLERY_VERSION,
    Gallery,
    load_gallery,
    save_gallery,
)
from compatlearn.network import ModelConfig, TrainingHyperparams, ParamGrads, apply_gradients, init_model


def trained_state(seed=3):
    cfg = ModelConfig(
        input_dim=5, hidden_layers=(4, 3), feature_dim=2, nonlinearity="relu", seed=seed
    )
    state = init_model(cfg)
    hp = TrainingHyperparams(
        learning_rate=0.1, lr_milestones=(), lr_decay_factor=0.1, weight_decay=1e-4,
        momentum=0.9, epochs_per_task=1, batch_size=32, lambda_base=0.0,
    )
    rng = np.random.default_rng(0)
    for _ in range(3):
        grads = ParamGrads(
            weights=[rng.standard_normal(w.shape) for w in state.weights],
            biases=[rng.standard_normal(b.shape) for b in state.biases],
        )
        apply_gradients(state, grads, hp, epoch=0)
    return state


def states_bitwise_equal(a, b):
    if a.config != b.config or a.step != b.step:
        return False
    pairs = (
        list(zip(a.weights, b.weights))
        + list(zip(a.biases, b.biases))
        + list(zip(a.velocity_w, b.velocity_w))
        + list(zip(a.velocity_b, b.velocity_b))
    )
    return all(x.tobytes() == y.tobytes() for x, y in pairs)


def test_model_round_trip_is_bit_exact(tmp_path):
    state = trained_state()
    path = tmp_path / "model.ckpt"
    save_model(state, path)
    loaded = load_model(path)
    assert states_bitwise_equal(state, loaded)
    assert loaded.step == 3


@pytest.mark.parametrize(
    "config",
    [
        ModelConfig(np.int64(4), (3,), 2, "tanh", 0),
        ModelConfig(np.int64(4), (np.int32(3),), np.int64(2), "relu", np.uint8(5)),
    ],
    ids=["numpy-input-dim", "numpy-everywhere"],
)
def test_model_config_with_numpy_integers_round_trips(tmp_path, config):
    state = init_model(config)
    path = tmp_path / "model.ckpt"
    save_model(state, path)
    loaded = load_model(path)
    assert states_bitwise_equal(state, loaded)
    assert loaded.config == config
    assert all(type(v) is int for v in (config.input_dim, config.feature_dim, config.seed))


def test_a_checkpoint_that_also_stores_its_layer_shapes_loads_the_same(tmp_path):
    # Files written before the meta dropped its shape keys: the reader ignores them.
    state = trained_state()
    save_model(state, tmp_path / "new.ckpt")
    sections = read_container(tmp_path / "new.ckpt", MODEL_MAGIC, MODEL_VERSION)
    meta = json.loads(sections.pop("meta"))
    assert sorted(meta) == ["config", "step"]
    meta["num_layers"] = len(state.weights)
    meta["weight_shapes"] = [list(w.shape) for w in state.weights]
    meta["bias_shapes"] = [list(b.shape) for b in state.biases]
    write_artifact(tmp_path / "old.ckpt", MODEL_MAGIC, MODEL_VERSION, meta, list(sections.items()))
    old, new = load_model(tmp_path / "old.ckpt"), load_model(tmp_path / "new.ckpt")
    assert states_bitwise_equal(old, new) and states_bitwise_equal(old, state)


def test_model_round_trip_twice_is_stable(tmp_path):
    state = trained_state()
    p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
    save_model(state, p1)
    save_model(load_model(p1), p2)
    assert p1.read_bytes() == p2.read_bytes()


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda cfg: cfg.pop("seed"), "missing 1 required positional argument: 'seed'"),
        (lambda cfg: cfg.update(dropout=0.5), "unexpected keyword argument 'dropout'"),
    ],
    ids=["missing-key", "unknown-key"],
)
def test_model_config_with_a_missing_or_unknown_key_is_refused(tmp_path, edit, message):
    path = tmp_path / "model.ckpt"
    save_model(trained_state(), path)
    sections = read_container(path, MODEL_MAGIC, MODEL_VERSION)
    meta = json.loads(sections.pop("meta"))
    edit(meta["config"])
    payload = [("meta", json.dumps(meta).encode("utf-8")), *sections.items()]
    write_container(path, MODEL_MAGIC, MODEL_VERSION, payload)
    with pytest.raises(CorruptFileError, match=f"malformed model checkpoint .*{message}"):
        load_model(path)


@pytest.mark.parametrize(
    "step", [1.7, 2.0, "3", -5, True], ids=["float", "whole-float", "string", "negative", "bool"]
)
def test_load_model_refuses_a_step_that_is_not_a_count(tmp_path, step):
    path = tmp_path / "model.ckpt"
    save_model(trained_state(), path)
    sections = read_container(path, MODEL_MAGIC, MODEL_VERSION)
    meta = {**json.loads(sections.pop("meta")), "step": step}
    write_artifact(path, MODEL_MAGIC, MODEL_VERSION, meta, list(sections.items()))
    with pytest.raises(CorruptFileError, match="step"):
        load_model(path)


@pytest.mark.parametrize(
    "step", [1.5, 2.0, "3", -1, True], ids=["float", "whole-float", "string", "negative", "bool"]
)
def test_save_model_refuses_a_step_that_load_model_refuses(tmp_path, step):
    # Before, state.step = 1.5 saved, and load_model refused the file.
    state = trained_state()
    state.step = step
    with pytest.raises(DataError, match=f"step {step!r} is not a non-negative int"):
        save_model(state, tmp_path / "model.ckpt")
    assert not (tmp_path / "model.ckpt").exists()


def test_a_section_given_twice_is_refused(tmp_path):
    """A second ``w0`` copied in from another model must not replace the first."""
    save_model(trained_state(seed=3), tmp_path / "a.ckpt")
    save_model(trained_state(seed=4), tmp_path / "b.ckpt")
    sections = read_container(tmp_path / "a.ckpt", MODEL_MAGIC, MODEL_VERSION)
    other = read_container(tmp_path / "b.ckpt", MODEL_MAGIC, MODEL_VERSION)["w0"]
    assert other != sections["w0"]
    path = tmp_path / "mixed.ckpt"
    write_container(path, MODEL_MAGIC, MODEL_VERSION, [*sections.items(), ("w0", other)])
    with pytest.raises(CorruptFileError, match="section 'w0' is given twice"):
        load_model(path)


# The sha256 of each binary format's bytes for fixed contents. The model's values
# come from rng.uniform alone, the gallery's features are float32-exact and the
# held-out arrays are integer-valued: no digest depends on the CPU or the BLAS.
GOLDEN_SHA256 = {
    "model": "c648c0d61b7ec662706431f6d44dc1e24689ed241026c7382977659f369b62e9",
    "gallery": "2edfc8c6cc8ba6dcfef5d0cc388a5080a1b43a9ef81d3168ac3efc09b2fcc84d",
    "heldout": "09422c6bd6c20de0baa1349ff1e26e8dd0da2c1bab62c07da67787bb42661126",
}


def test_every_format_keeps_its_bytes(tmp_path):
    config = ModelConfig(
        input_dim=3, hidden_layers=(4,), feature_dim=2, nonlinearity="relu", seed=5
    )
    save_model(init_model(config), tmp_path / "model")
    features = np.array([[1.0, -0.5], [0.25, 2.0], [-3.0, 0.125]])
    gallery = Gallery(("a", "b", "c"), features, indexed_by=2, labels=(7, 8, 7))
    save_gallery(gallery, tmp_path / "gallery")
    data = LabeledDataset(np.arange(12.0).reshape(4, 3) - 5.0, np.array([0, 0, 1, 1]))
    genuine = np.array([True, False, True])
    pairs = VerificationPairSet(data, np.array([0, 1, 2]), np.array([1, 2, 3]), genuine)
    save_heldout(pairs, tmp_path / "heldout")
    for name, digest in GOLDEN_SHA256.items():
        assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest, name


def test_truncation_detected(tmp_path):
    state = trained_state()
    path = tmp_path / "model.ckpt"
    save_model(state, path)
    blob = path.read_bytes()
    path.write_bytes(blob[:-10])
    with pytest.raises(CorruptFileError):
        load_model(path)


def test_bit_flip_detected(tmp_path):
    state = trained_state()
    path = tmp_path / "model.ckpt"
    save_model(state, path)
    blob = bytearray(path.read_bytes())
    blob[len(blob) // 2] ^= 0x01
    path.write_bytes(bytes(blob))
    with pytest.raises(CorruptFileError):
        load_model(path)


def test_wrong_magic_detected(tmp_path):
    path = tmp_path / "model.ckpt"
    write_container(path, b"SOMETHNG", 1, [("meta", b"{}")])
    with pytest.raises(CorruptFileError):
        load_model(path)


def test_newer_version_refused(tmp_path):
    path = tmp_path / "model.ckpt"
    write_container(path, MODEL_MAGIC, 999, [("meta", b"{}")])
    with pytest.raises(UnsupportedVersionError):
        load_model(path)


def test_older_version_refused(tmp_path):
    path = tmp_path / "model.ckpt"
    save_model(trained_state(), path)
    blob = bytearray(path.read_bytes())
    blob[8] = 0  # the version field is the first u32 after the 8-byte magic
    path.write_bytes(bytes(blob))
    with pytest.raises(UnsupportedVersionError):
        load_model(path)


def test_trailing_garbage_detected(tmp_path):
    path = tmp_path / "box.bin"
    write_container(path, b"CONTAIN1", 1, [("x", b"abc")])
    path.write_bytes(path.read_bytes() + b"junk")
    with pytest.raises(CorruptFileError):
        read_container(path, b"CONTAIN1", 1)


def test_container_preserves_sections(tmp_path):
    path = tmp_path / "box.bin"
    sections = [("alpha", b"\x00\x01\x02"), ("beta", b""), ("gamma", b"hello")]
    write_container(path, b"CONTAIN1", 1, sections)
    assert read_container(path, b"CONTAIN1", 1) == dict(sections)


# Each writer as a child-process snippet: ``write(path, n)`` writes a file that
# grows with ``n``, through one of the package's writers.
FAILED_WRITES = {
    "write_container": """
        from compatlearn.container import write_container

        def write(path, n):
            write_container(path, b"CONTAIN1", 1, [("payload", bytes(100 * n))])
    """,
    "save_csv": """
        import numpy as np
        from compatlearn.data import LabeledDataset, save_csv

        def write(path, n):
            save_csv(LabeledDataset(np.ones((n, 4)), np.zeros(n, dtype=np.int64)), path)
    """,
    "save_pairs": """
        import numpy as np
        from compatlearn.data import LabeledDataset, VerificationPairSet, save_pairs

        def write(path, n):
            data = LabeledDataset(np.zeros((n, 1)), np.zeros(n, dtype=np.int64))
            ids = np.arange(n)
            save_pairs(VerificationPairSet(data, ids, ids[::-1], ids % 2 == 0), path)
    """,
    "save_heldout": """
        import numpy as np
        from compatlearn.data import LabeledDataset, VerificationPairSet, save_heldout

        def write(path, n):
            data = LabeledDataset(np.ones((n, 4)), np.zeros(n, dtype=np.int64))
            ids = np.arange(n)
            save_heldout(VerificationPairSet(data, ids, ids[::-1], ids % 2 == 0), path)
    """,
    "write_training_log": """
        from compatlearn.trainer import EpochLog, write_training_log

        def write(path, n):
            write_training_log([EpochLog(1, e, 0.25, 0.5, 1.0, 0.75) for e in range(n)], path)
    """,
    "write_matrix_csv": """
        import numpy as np
        from compatlearn.cli import write_matrix_csv
        from compatlearn.evalkit import CompatibilityMatrix

        def write(path, n):
            write_matrix_csv(CompatibilityMatrix(np.tril(np.full((n, n), 0.5)), "accuracy"), path)
    """,
    "search": """
        from pathlib import Path
        import numpy as np
        from compatlearn.checkpoint import save_model
        from compatlearn.cli import cmd_search
        from compatlearn.data import LabeledDataset, save_csv
        from compatlearn.gallery import index_gallery, save_gallery
        from compatlearn.network import ModelConfig, init_model

        def write(path, n):
            d = Path(path).parent
            if not (d / "g.gal").exists():
                model = init_model(ModelConfig(4, (6,), 3, nonlinearity="relu", seed=0))
                save_model(model, d / "m.ckpt")
                items = np.random.default_rng(0).standard_normal((200, 4))
                save_gallery(index_gallery(range(200), items, model, 1), d / "g.gal")
                save_csv(LabeledDataset(items[:50], np.zeros(50, dtype=np.int64)), d / "q.csv")
            cmd_search(d / "g.gal", d / "q.csv", d / "m.ckpt", min(n, 200), path)
    """,
}


@pytest.mark.parametrize("writer", sorted(FAILED_WRITES))
def test_failed_write_leaves_the_old_file(tmp_path, writer):
    """A write that fails partway through (here: the file size limit) changes nothing."""
    code = textwrap.dedent(FAILED_WRITES[writer])
    path = tmp_path / "out"
    namespace = {}
    exec(code, namespace)
    namespace["write"](path, 2)
    before = path.read_bytes()
    files = sorted(p.name for p in tmp_path.iterdir())
    script = code + textwrap.dedent(
        """
        import resource, sys

        hard = resource.getrlimit(resource.RLIMIT_FSIZE)[1]
        resource.setrlimit(resource.RLIMIT_FSIZE, (4096, hard))
        write(sys.argv[1], 1000)
        """
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    result = subprocess.run(
        [sys.executable, "-c", script, str(path)],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
        timeout=60,
    )
    assert result.returncode != 0
    assert "File too large" in result.stderr
    assert path.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == files  # no .tmp left


LOADERS = {
    "model": (load_model, MODEL_MAGIC, MODEL_VERSION),
    "gallery": (load_gallery, GALLERY_MAGIC, GALLERY_VERSION),
    "heldout": (load_heldout, HELDOUT_MAGIC, HELDOUT_VERSION),
}
SECTION_NAMES = [
    "meta", "w0", "b0", "vw0", "vb0", "ids", "labels", "features",
    "inputs", "ids_a", "ids_b", "genuine",
]
META_KEYS = [
    "config", "input_dim", "hidden_layers", "feature_dim", "nonlinearity", "seed", "step",
    "num_layers", "weight_shapes", "bias_shapes", "dim", "count", "indexed_by", "has_labels",
    "rows", "pairs",
]
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.sampled_from(META_KEYS) | st.text(max_size=8), children, max_size=6),
    max_leaves=20,
)
# Every key present, with values near what the readers expect, so shape and type
# checks past the key lookups are reached.
SMALL_INTS = st.integers(-1, 4)
SMALL_VALUES = st.one_of(
    SMALL_INTS,
    st.booleans(),
    st.none(),
    st.text(max_size=4),
    st.lists(SMALL_INTS, max_size=3),
    st.lists(st.lists(SMALL_INTS, max_size=3), max_size=2),
)
META_PAYLOADS = st.one_of(
    JSON_VALUES.map(lambda value: json.dumps(value).encode("utf-8")),
    st.fixed_dictionaries({key: SMALL_VALUES for key in META_KEYS}).map(
        lambda meta: json.dumps(meta).encode("utf-8")
    ),
    st.integers(1, 100_000).map(lambda depth: b"[" * depth),
    st.binary(max_size=40),
)
SECTIONS = st.lists(
    st.tuples(st.sampled_from(SECTION_NAMES) | st.text(max_size=8), st.binary(max_size=96)),
    max_size=6,
)


def assert_only_package_errors(kind, write):
    """Write a file with ``write(path)``; loading it may raise only package errors."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp, "fuzz.bin")
        write(path)
        try:
            LOADERS[kind][0](path)
        except CompatLearnError:
            pass


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.sampled_from(sorted(LOADERS)), st.booleans(), st.binary(max_size=200))
def test_readers_raise_only_package_errors_on_arbitrary_bytes(kind, with_header, tail):
    _, magic, version = LOADERS[kind]
    head = magic + struct.pack("<I", version) if with_header else b""
    assert_only_package_errors(kind, lambda path: path.write_bytes(head + tail))


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.sampled_from(sorted(LOADERS)), META_PAYLOADS, SECTIONS)
def test_readers_raise_only_package_errors_on_well_formed_containers(kind, meta, sections):
    _, magic, version = LOADERS[kind]
    assert_only_package_errors(
        kind, lambda path: write_container(path, magic, version, [("meta", meta), *sections])
    )


def heldout_set(num_classes=3, samples_per_class=4, input_dim=4, num_pairs=10):
    spec = SyntheticSpec(
        num_classes, samples_per_class, input_dim, cluster_sigma=0.1,
        mean_seed=0, noise_seed=1, intrinsic_dim=None,
    )
    return generate_pairs(make_synthetic(spec), num_pairs, seed=0)


def test_heldout_round_trip_is_bitwise_the_csv_round_trip(tmp_path):
    pairs = heldout_set(num_classes=6, samples_per_class=9, input_dim=7, num_pairs=40)
    save_heldout(pairs, tmp_path / "heldout.ckpt")
    save_csv(pairs.dataset, tmp_path / "eval_data.csv")
    save_pairs(pairs, tmp_path / "pairs.csv")
    loaded = load_heldout(tmp_path / "heldout.ckpt")
    from_csv = load_csv(tmp_path / "eval_data.csv")
    csv_pairs = load_pairs(tmp_path / "pairs.csv", from_csv)
    for got, want in [
        (loaded.dataset.inputs, from_csv.inputs),
        (loaded.ids_a, csv_pairs.ids_a),
        (loaded.ids_b, csv_pairs.ids_b),
        (loaded.genuine, csv_pairs.genuine),
    ]:
        assert (got.dtype, got.shape, got.tobytes()) == (want.dtype, want.shape, want.tobytes())
    # The file keeps the labels bitwise too.
    labels = read_container(tmp_path / "heldout.ckpt", HELDOUT_MAGIC, HELDOUT_VERSION)["labels"]
    assert labels == from_csv.labels.astype("<i8").tobytes()


def test_load_heldout_returns_the_labels_it_stores(tmp_path):
    # Before, load_heldout checked the stored labels and then dropped them.
    pairs = heldout_set(num_classes=5, samples_per_class=3, num_pairs=12)
    save_heldout(pairs, tmp_path / "heldout.ckpt")
    labels = load_heldout(tmp_path / "heldout.ckpt").dataset.labels
    assert (labels.dtype, labels.tobytes()) == (np.int64, pairs.dataset.labels.tobytes())


def test_load_heldout_refuses_a_genuine_byte_other_than_0_or_1(tmp_path):
    path = tmp_path / "heldout.ckpt"
    save_heldout(heldout_set(), path)
    sections = read_container(path, HELDOUT_MAGIC, HELDOUT_VERSION)
    sections["genuine"] = b"\x02" + sections["genuine"][1:]
    write_container(path, HELDOUT_MAGIC, HELDOUT_VERSION, list(sections.items()))  # valid CRCs
    with pytest.raises(CorruptFileError, match="malformed held-out set .*other than 0 or 1"):
        load_heldout(path)


def test_every_single_byte_corruption_of_a_heldout_set_is_rejected(tmp_path):
    path = tmp_path / "heldout.ckpt"
    save_heldout(heldout_set(num_classes=2, samples_per_class=2, input_dim=2, num_pairs=2), path)
    blob = path.read_bytes()
    corrupt = tmp_path / "corrupt.ckpt"
    for offset in range(len(blob)):
        for mask in (0x01, 0x02, 0x04, 0x08, 0x10, 0x20, 0x40, 0x80, 0xFF):
            flipped = bytearray(blob)
            flipped[offset] ^= mask
            corrupt.write_bytes(bytes(flipped))
            with pytest.raises((CorruptFileError, UnsupportedVersionError)):
                load_heldout(corrupt)
