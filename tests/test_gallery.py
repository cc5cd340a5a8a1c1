import hashlib
import struct

import numpy as np
import pytest

from compatlearn.errors import (
    CorruptFileError,
    DataError,
    DegenerateFeatureError,
    UnsupportedVersionError,
)
from compatlearn.gallery import (
    GALLERY_MAGIC,
    index_gallery,
    load_gallery,
    recall_at_1,
    save_gallery,
    search,
)
from compatlearn.network import ModelConfig, init_model


def identity_model(dim=3):
    cfg = ModelConfig(input_dim=dim, hidden_layers=(), feature_dim=dim, seed=0)
    state = init_model(cfg)
    state.weights[0][:] = np.eye(dim)
    state.biases[0][:] = 0.0
    return state


def one_hot_gallery(model=None, labels=(0, 1, 2)):
    model = model or identity_model()
    return index_gallery(
        ids=["a", "b", "c"],
        inputs=np.eye(3),
        model=model,
        model_version=1,
        labels=labels,
    )


def test_index_records_version_and_features():
    g = one_hot_gallery()
    assert len(g) == 3
    assert g.indexed_by == 1
    assert g.feature_dim == 3
    assert np.allclose(g.features, np.eye(3))


def test_reindexing_with_the_same_model_is_identical():
    model = identity_model()
    a = index_gallery(["x", "y"], np.eye(3)[:2], model, model_version=2)
    b = index_gallery(["x", "y"], np.eye(3)[:2], model, model_version=2)
    assert a.features.tobytes() == b.features.tobytes()


def test_duplicate_id_names_the_offender():
    with pytest.raises(DataError, match="'dup'"):
        index_gallery(["dup", "dup"], np.eye(3)[:2], identity_model(), 1)


def test_search_top1_exact_hit():
    g = one_hot_gallery()
    results = search(np.array([[0.0, 1.0, 0.0]]), identity_model(), g, top_n=1)
    assert results == [[("b", 1.0)]]


def test_search_full_depth_is_a_permutation():
    g = one_hot_gallery()
    results = search(np.array([[0.2, 0.5, 0.9]]), identity_model(), g, top_n=3)
    assert sorted(gid for gid, _ in results[0]) == ["a", "b", "c"]
    sims = [s for _, s in results[0]]
    assert sims == sorted(sims, reverse=True)


def test_search_breaks_ties_by_ascending_id():
    model = identity_model()
    g = index_gallery(["zz", "aa"], np.stack([np.ones(3), np.ones(3)]), model, 1)
    results = search(np.array([[1.0, 1.0, 1.0]]), model, g, top_n=2)
    assert [gid for gid, _ in results[0]] == ["aa", "zz"]


def test_search_validates_inputs():
    g = one_hot_gallery()
    with pytest.raises(ValueError):
        search(np.eye(3), identity_model(), g, top_n=0)
    with pytest.raises(ValueError):
        search(np.eye(3), identity_model(), g, top_n=4)
    with pytest.raises(DataError):
        search(np.eye(4), identity_model(4), g, top_n=1)
    with pytest.raises(DegenerateFeatureError):
        search(np.zeros((1, 3)), identity_model(), g, top_n=1)


def test_search_does_not_mutate_the_gallery():
    g = one_hot_gallery()
    before = g.features.tobytes()
    search(np.array([[0.3, 0.3, 0.3]]), identity_model(), g, top_n=2)
    assert g.features.tobytes() == before
    with pytest.raises(ValueError):
        g.features[0, 0] = 9.0


def test_indexed_item_ranks_first_for_its_own_query():
    rng = np.random.default_rng(5)
    cfg = ModelConfig(input_dim=6, hidden_layers=(8,), feature_dim=4, nonlinearity="tanh", seed=9)
    model = init_model(cfg)
    inputs = rng.standard_normal((10, 6))
    gallery = index_gallery([f"item{i}" for i in range(10)], inputs, model, 3)
    results = search(inputs[4:5], model, gallery, top_n=1)
    top_id, top_sim = results[0][0]
    assert top_id == "item4"
    assert abs(top_sim - 1.0) < 1e-9  # float32 storage costs far less than 1e-9


def test_recall_at_1_with_identity_features():
    g = one_hot_gallery(labels=(10, 20, 30))
    queries = np.array([[0.9, 0.1, 0.0], [0.0, 0.1, 0.8]])
    value = recall_at_1(queries, [10, 30], identity_model(), g)
    assert value == 1.0
    value = recall_at_1(queries, [20, 30], identity_model(), g)
    assert value == 0.5


def test_save_load_round_trip(tmp_path):
    g = one_hot_gallery(labels=(4, 5, 6))
    path = tmp_path / "g.gal"
    save_gallery(g, path)
    loaded = load_gallery(path)
    assert loaded.ids == g.ids
    assert loaded.labels == g.labels
    assert loaded.indexed_by == g.indexed_by
    assert loaded.features.tobytes() == g.features.tobytes()  # float32 quantized at index time


def test_save_load_without_labels(tmp_path):
    model = identity_model()
    g = index_gallery(["only"], np.eye(3)[:1], model, 7)
    path = tmp_path / "g.gal"
    save_gallery(g, path)
    loaded = load_gallery(path)
    assert loaded.labels is None
    assert loaded.indexed_by == 7


def test_save_load_round_trips_a_65536_byte_id(tmp_path):
    model = identity_model()
    g = index_gallery(["a", "é" * 32768], np.eye(3)[:2], model, 1)  # 65,536 UTF-8 bytes
    path = tmp_path / "g.gal"
    save_gallery(g, path)
    assert load_gallery(path).ids == g.ids


def test_truncated_file_rejected(tmp_path):
    g = one_hot_gallery()
    path = tmp_path / "g.gal"
    save_gallery(g, path)
    blob = path.read_bytes()
    path.write_bytes(blob[: len(blob) // 2])
    with pytest.raises(CorruptFileError):
        load_gallery(path)


def test_flipped_byte_rejected(tmp_path):
    g = one_hot_gallery()
    path = tmp_path / "g.gal"
    save_gallery(g, path)
    blob = bytearray(path.read_bytes())
    blob[40] ^= 0xFF
    path.write_bytes(bytes(blob))
    with pytest.raises(CorruptFileError):
        load_gallery(path)


def test_every_single_byte_corruption_is_rejected(tmp_path):
    path = tmp_path / "g.gal"
    save_gallery(one_hot_gallery(), path)
    blob = path.read_bytes()
    corrupt = tmp_path / "corrupt.gal"
    for offset in range(len(blob)):
        for mask in (0x01, 0x02, 0x04, 0x08, 0x10, 0x20, 0x40, 0x80, 0xFF):
            flipped = bytearray(blob)
            flipped[offset] ^= mask
            corrupt.write_bytes(bytes(flipped))
            with pytest.raises((CorruptFileError, UnsupportedVersionError)):
                load_gallery(corrupt)


def test_newer_version_rejected(tmp_path):
    g = one_hot_gallery()
    path = tmp_path / "g.gal"
    save_gallery(g, path)
    blob = bytearray(path.read_bytes())
    blob[8] = 99  # the version field is the first u32 after the 8-byte magic
    path.write_bytes(bytes(blob))
    with pytest.raises(UnsupportedVersionError):
        load_gallery(path)


def version_1_gallery_blob(ids, labels, features, indexed_by):
    """The retired version-1 layout, byte for byte: header, id table, features, SHA-256."""
    features = np.asarray(features, dtype="<f4")
    count, dim = features.shape
    parts = [GALLERY_MAGIC, struct.pack("<IIIQ", 1, labels is not None, dim, count)]
    parts.append(struct.pack("<q", indexed_by))
    for item_id in ids:
        raw = item_id.encode("utf-8")
        parts.append(struct.pack("<H", len(raw)) + raw)
    if labels is not None:
        parts.append(np.asarray(labels, dtype="<i8").tobytes())
    parts.append(features.tobytes())
    body = b"".join(parts)
    return body + hashlib.sha256(body).digest()


@pytest.mark.parametrize("labels", [(0, 1, 2), None], ids=["labels", "no-labels"])
def test_version_1_gallery_is_rejected(tmp_path, labels):
    path = tmp_path / "v1.gal"
    path.write_bytes(version_1_gallery_blob(["a", "b", "c"], labels, np.eye(3), indexed_by=1))
    with pytest.raises(UnsupportedVersionError, match="version 1"):
        load_gallery(path)


def test_not_a_gallery_file_rejected(tmp_path):
    path = tmp_path / "junk.gal"
    path.write_bytes(b"NOTAGALL" + b"\x00" * 30)
    with pytest.raises(CorruptFileError):
        load_gallery(path)
