import hashlib
import json
import struct
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, reject, settings
from hypothesis import strategies as st

from compatlearn import evalkit
from compatlearn import gallery as gallery_module
from compatlearn.container import read_container, write_artifact, write_container
from compatlearn.errors import (
    ConfigError,
    CorruptFileError,
    DataError,
    DegenerateFeatureError,
    UnsupportedVersionError,
)
from compatlearn.gallery import (
    GALLERY_MAGIC,
    GALLERY_VERSION,
    Gallery,
    index_gallery,
    load_gallery,
    recall_at_1,
    save_gallery,
    search,
)
from compatlearn.network import ModelConfig, extract_features, init_model


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


def write_raw_gallery(path, ids, features):
    """A gallery file with valid CRCs whose entries skip every ``Gallery`` check."""
    meta = {"indexed_by": 1, "dim": 3, "count": len(ids), "has_labels": False}
    sections = [
        ("ids", json.dumps(ids).encode("utf-8")),
        ("features", np.asarray(features, dtype="<f4").tobytes()),
    ]
    write_artifact(path, GALLERY_MAGIC, GALLERY_VERSION, meta, sections)


def test_gallery_refuses_a_duplicate_id():
    with pytest.raises(DataError, match="duplicate gallery id 'a'"):
        Gallery(ids=("a", "a", "b"), features=np.eye(3), indexed_by=1)


@pytest.mark.parametrize(
    "ids, message",
    [(["a", "a", "b"], "duplicate gallery id 'a'"), ([], "at least one entry")],
    ids=["duplicate-id", "empty"],
)
def test_load_gallery_enforces_the_gallery_rules(tmp_path, ids, message):
    write_raw_gallery(tmp_path / "g.gal", ids, np.eye(3)[: len(ids)])
    with pytest.raises(DataError, match=message):
        load_gallery(tmp_path / "g.gal")


# Forged values in the meta of a labelled 3 x 3 gallery file with valid checksums.
# Each loaded before: numpy inferred a -1 count, int() truncated or parsed
# indexed_by, and any truthy has_labels counted as true.
FORGED_METAS = {
    "dim-minus-one": {"dim": -1},
    "count-minus-one": {"count": -1},
    "indexed-by-float": {"indexed_by": 1.5},
    "indexed-by-string": {"indexed_by": "3"},
    "indexed-by-bool": {"indexed_by": True},
    "has-labels-string": {"has_labels": "yes"},
    "has-labels-int": {"has_labels": 1},
}


@pytest.mark.parametrize("forged", FORGED_METAS.values(), ids=FORGED_METAS)
def test_load_gallery_refuses_a_forged_meta(tmp_path, forged):
    sections = [
        ("ids", json.dumps(["a", "b", "c"]).encode("utf-8")),
        ("labels", np.arange(3, dtype="<i8").tobytes()),
        ("features", np.eye(3, dtype="<f4").tobytes()),
    ]
    meta = {"indexed_by": 1, "dim": 3, "count": 3, "has_labels": True}
    path = tmp_path / "g.gal"
    write_artifact(path, GALLERY_MAGIC, GALLERY_VERSION, meta, sections)
    assert load_gallery(path).labels == (0, 1, 2)  # unforged, it loads
    write_artifact(path, GALLERY_MAGIC, GALLERY_VERSION, {**meta, **forged}, sections)
    with pytest.raises(CorruptFileError, match="malformed gallery file"):
        load_gallery(path)


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


def full_sort_reference(query_inputs, model, gallery, top_n):
    """Rank every entry with one lexsort per query: the definition search must match."""
    q = extract_features(model, query_inputs)
    qn = np.linalg.norm(q, axis=1)
    gn = np.linalg.norm(gallery.features, axis=1)
    sims = np.clip((q @ gallery.features.T) / np.outer(qn, gn), -1.0, 1.0)
    ids = np.asarray(gallery.ids)
    return [
        [(gallery.ids[j], float(row[j])) for j in np.lexsort((ids, -row))[:top_n]]
        for row in sims
    ]


def tied_gallery(group=4, distinct=10, dim=3, seed=0):
    """``distinct`` grid-valued feature rows, each stored ``group`` times under shuffled ids."""
    rng = np.random.default_rng(seed)
    base = rng.integers(-2, 3, size=(distinct, dim)).astype(np.float64)
    base[~base.any(axis=1), 0] = 1.0  # no zero-norm rows
    ids = [f"id{i:03d}" for i in rng.permutation(distinct * group)]
    gallery = index_gallery(ids, np.tile(base, (group, 1)), identity_model(dim), 1)
    queries = np.vstack([base[:4], rng.integers(-2, 3, size=(4, dim)) + 0.5])
    return gallery, queries


@pytest.mark.parametrize("top_n", [1, 3, 4, 5, 40])
def test_search_matches_a_full_sort_on_tied_entries(top_n):
    gallery, queries = tied_gallery(group=4, distinct=10)
    model = identity_model()
    assert search(queries, model, gallery, top_n) == full_sort_reference(
        queries, model, gallery, top_n
    )


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_search_matches_a_full_sort_on_grid_features(data):
    dim = data.draw(st.integers(1, 4))
    size = data.draw(st.integers(1, 25))
    grid = st.lists(st.integers(-2, 2), min_size=dim, max_size=dim).filter(any)
    features = np.array(data.draw(st.lists(grid, min_size=size, max_size=size)), dtype=float)
    queries = np.array(data.draw(st.lists(grid, min_size=1, max_size=4)), dtype=float)
    names = data.draw(st.permutations([f"g{i}" for i in range(size)]))
    top_n = data.draw(st.integers(1, size))
    model = identity_model(dim)
    gallery = index_gallery(names, features, model, 1)
    assert search(queries, model, gallery, top_n) == full_sort_reference(
        queries, model, gallery, top_n
    )


def chunked_case(kind, size, seed):
    """A gallery of ``size`` 4-d rows of one ``kind``, and queries that stress its bound."""
    rng = np.random.default_rng(seed)
    if kind == "grid":
        features = rng.integers(-2, 3, size=(size, 4)).astype(np.float64)
        features[~features.any(axis=1), 0] = 1.0
        queries = np.vstack([features[:3], rng.normal(size=(3, 4))])
    elif kind == "parallel":  # one direction at many scales and both signs: cosines of exactly +-1
        base = rng.normal(size=4)
        features = np.outer(rng.choice([-3.0, -1.0, 0.5, 1.0, 7.0, 1e3], size=size), base)
        features[: size // 3] = rng.normal(size=(size // 3, 4))
        queries = np.vstack([base, -2.5 * base, 1e-3 * base, rng.normal(size=(2, 4))])
    else:  # all negative rows against positive queries: every cosine, so every bound, below 0
        features = -np.abs(rng.normal(size=(size, 4)))
        queries = np.abs(rng.normal(size=(5, 4)))
    names = [f"g{i:03d}" for i in rng.permutation(size)]
    return index_gallery(names, features, identity_model(4), 1), queries


@pytest.mark.parametrize("chunks", [1, 2, 4, 64])
@pytest.mark.parametrize("kind", ["grid", "parallel", "negative"])
@pytest.mark.parametrize("size", [63, 65, 130, 257, 300])
def test_search_matches_a_full_sort_on_chunked_galleries(monkeypatch, chunks, kind, size):
    # Below 4,096 entries search uses no chunks at the default SEARCH_CHUNKS = 64,
    # so smaller values make chunks of several entries here, the last one ragged.
    # The chunk count grows with top_n, and at top_n = size every entry is a candidate.
    monkeypatch.setattr(gallery_module, "SEARCH_CHUNKS", chunks)
    model = identity_model(4)
    for seed in range(3):
        gallery, queries = chunked_case(kind, size, seed)
        for top_n in {1, 2, 5, 52, 59, 60, 63, 64, 65, size}:
            if top_n <= size:
                expected = full_sort_reference(queries, model, gallery, top_n)
                assert search(queries, model, gallery, top_n) == expected
                for query in queries[:, None]:  # one-row products go through gemv
                    single = full_sort_reference(query, model, gallery, top_n)
                    assert search(query, model, gallery, top_n) == single


def test_batched_search_equals_single_queries():
    gallery, queries = tied_gallery(group=3, distinct=20, seed=2)
    model = identity_model()
    for top_n in (1, 3, 4, 60):
        batched = search(queries, model, gallery, top_n)
        assert batched == [search(q[None], model, gallery, top_n)[0] for q in queries]


def float_gallery(size=40, dim=5, group=1, queries=9, seed=0):
    """Random float features (``size`` distinct rows, each stored ``group`` times) and queries."""
    rng = np.random.default_rng(seed)
    base = rng.normal(size=(size, dim))
    ids = [f"id{i:03d}" for i in rng.permutation(size * group)]
    gallery = index_gallery(ids, np.tile(base, (group, 1)), identity_model(dim), 1)
    return gallery, rng.normal(size=(queries, dim))


def test_batched_float_search_matches_single_queries_within_tolerance():
    # A one-row product goes through gemv, so only the ranking is exact.
    gallery, queries = float_gallery(size=60, queries=12, seed=3)
    model = identity_model(5)
    batched = search(queries, model, gallery, top_n=10)
    for query, row in zip(queries, batched):
        single = search(query[None], model, gallery, top_n=10)[0]
        assert [gid for gid, _ in single] == [gid for gid, _ in row]
        assert np.allclose([s for _, s in single], [s for _, s in row], rtol=0.0, atol=1e-12)


def similarity_bits(results):
    return [(gid, np.float64(sim).tobytes()) for ranked in results for gid, sim in ranked]


@pytest.mark.parametrize("group", [1, 4])
def test_blocked_search_equals_one_block_bitwise(monkeypatch, group):
    rows = 8
    gallery, queries = float_gallery(size=30, group=group, queries=2 * rows + 1)
    model = identity_model(5)
    one_block = {
        (q, n): similarity_bits(search(queries[:q], model, gallery, n))
        for q in range(1, 2 * rows + 2)
        for n in (1, 5, len(gallery))
    }
    # Sorted block sizes per CPU count. Up to rows + 1 queries run as one block;
    # beyond that each of at most rows // 2 workers takes blocks of rows // workers
    # (so at least 2), and a one-row tail joins the block before it.
    pinned_beyond_one_block = {
        1: {10: [2, 8], 17: [8, 9]},
        2: {10: [2, 4, 4], 17: [4, 4, 4, 5]},
        4: {10: [2] * 5, 17: [2] * 7 + [3]},
        8: {10: [2] * 5, 17: [2] * 7 + [3]},
    }
    blocks = []
    rank_block = gallery_module._rank_block

    def counted(features, *args):  # called once per block with the block's query features
        blocks.append(len(features))  # list.append is atomic under the GIL
        return rank_block(features, *args)

    monkeypatch.setattr(gallery_module, "SEARCH_BLOCK_CELLS", rows * len(gallery))
    monkeypatch.setattr(gallery_module, "_rank_block", counted)
    for cpus, pinned in pinned_beyond_one_block.items():
        monkeypatch.setattr(evalkit, "_cpu_count", lambda: cpus)
        pinned = {**{q: [q] for q in range(1, rows + 2)}, **pinned}
        for (q, n), expected in one_block.items():
            blocks.clear()
            assert similarity_bits(search(queries[:q], model, gallery, n)) == expected
            if q in pinned:
                assert sorted(blocks) == pinned[q]


def test_more_workers_than_cores_fill_every_result_under_fast_thread_switches(monkeypatch):
    gallery, queries = float_gallery(size=30, queries=201, seed=4)
    model = identity_model(5)
    expected = similarity_bits(search(queries, model, gallery, 3))  # one block, inline
    monkeypatch.setattr(gallery_module, "SEARCH_BLOCK_CELLS", 16 * len(gallery))
    monkeypatch.setattr(evalkit, "_cpu_count", lambda: 8)  # 8 workers on blocks of 2 rows
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        assert similarity_bits(search(queries, model, gallery, 3)) == expected
    finally:
        sys.setswitchinterval(interval)


class BlockFailure(Exception):
    pass


@pytest.mark.parametrize("cpus", [2, 4])
@pytest.mark.parametrize("failing", ["calling", "pool"])
def test_an_error_in_one_block_reaches_the_caller_and_no_thread_outlives_it(
    monkeypatch, failing, cpus
):
    gallery, queries = float_gallery(size=30, queries=17)
    rank_block = gallery_module._rank_block

    def fails_in_one_thread(*args):
        thread = "calling" if threading.current_thread() is threading.main_thread() else "pool"
        if thread == failing:
            raise BlockFailure(f"block scoring failed in the {thread} thread")
        return rank_block(*args)

    monkeypatch.setattr(gallery_module, "SEARCH_BLOCK_CELLS", 8 * len(gallery))
    monkeypatch.setattr(evalkit, "_cpu_count", lambda: cpus)  # blocks of 8 // cpus rows
    monkeypatch.setattr(gallery_module, "_rank_block", fails_in_one_thread)
    threads = threading.active_count()
    with pytest.raises(BlockFailure, match=f"^block scoring failed in the {failing} thread$"):
        search(queries, identity_model(5), gallery, top_n=5)
    assert threading.active_count() == threads


@pytest.mark.parametrize("queries", [1, 4, 5])
def test_a_one_block_search_starts_no_thread_and_reads_no_cpu_count(monkeypatch, queries):
    gallery, inputs = float_gallery(size=30, queries=queries)
    expected = search(inputs, identity_model(5), gallery, top_n=3)

    def forbidden(*args):
        raise AssertionError("a one-block search asked for a worker")

    monkeypatch.setattr(gallery_module, "SEARCH_BLOCK_CELLS", 4 * len(gallery))
    monkeypatch.setattr(evalkit, "_cpu_count", forbidden)
    monkeypatch.setattr(threading.Thread, "start", forbidden)
    assert search(inputs, identity_model(5), gallery, top_n=3) == expected


def search_peak_bytes(gallery, queries, model):
    """Peak traced allocation of one search above what its result keeps."""
    tracemalloc.start()
    try:
        results = search(queries, model, gallery, top_n=1)
        current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(results) == len(queries)
    return peak - current


def test_batched_search_memory_is_bounded_by_the_block(monkeypatch):
    cells = 4096
    monkeypatch.setattr(gallery_module, "SEARCH_BLOCK_CELLS", cells)
    gallery, queries = float_gallery(size=1000, dim=3, queries=1600, seed=1)
    model = identity_model(3)
    for cpus in (1, 4):  # 4 CPUs run 2 workers: blocks of 4 // 2 rows
        monkeypatch.setattr(evalkit, "_cpu_count", lambda: cpus)
        search(queries[:4], model, gallery, top_n=1)  # first-call allocations out of the way
        peak_400 = search_peak_bytes(gallery, queries[:400], model)
        peak_1600 = search_peak_bytes(gallery, queries, model)
        # One Q x G matrix would be 3.2 MB at 400 queries and 12.8 MB at 1600.
        assert peak_400 < 8 * cells * 8
        assert peak_1600 < 8 * cells * 8
        # Only the query features and their norms grow with Q: 1,200 more rows of
        # 3 + 1 float64 (38 KB), against 9.6 MB more for a Q x G matrix.
        assert peak_1600 - peak_400 < 2 * 1200 * (3 + 1) * 8


@pytest.mark.parametrize("indexed_by", [1.5, True, "2", -3, None])
def test_gallery_refuses_an_indexed_by_that_is_not_a_version(tmp_path, indexed_by):
    # One rule for the writer and the reader: no Gallery, so no file, holds such a value.
    with pytest.raises(DataError, match="indexed_by must be a non-negative int"):
        Gallery(ids=("a",), features=np.ones((1, 2)), indexed_by=indexed_by)
    for version in (0, 7):
        save_gallery(Gallery(ids=("a",), features=np.ones((1, 2)), indexed_by=version), tmp_path / "g")
        assert load_gallery(tmp_path / "g").indexed_by == version


@pytest.mark.parametrize("version", [1.5, True, "2", 2.9])
def test_index_gallery_passes_its_model_version_to_the_gallery_rule(version):
    # Coerced before: 1.5 and True were stored as 1, "2" as 2 and 2.9 as 2.
    with pytest.raises(DataError, match="indexed_by must be a non-negative int"):
        index_gallery(["a"], np.eye(3)[:1], identity_model(), version)


@pytest.mark.parametrize(
    "labels",
    [[1.7], (1.5,), (True,), (2**63,), ("1",)],
    ids=["float-list", "float", "bool", "past-int64", "string"],
)
@pytest.mark.parametrize("build", ["index", "construct"])
def test_gallery_refuses_labels_that_are_not_one_int64_integer_per_id(build, labels):
    # Before, [1.7] was stored as (1,), and (1.5,) saved and loaded as (1,).
    with pytest.raises(DataError, match="labels, when given, must be one int64 integer per id"):
        if build == "index":
            index_gallery(["a"], np.eye(3)[:1], identity_model(), 1, labels=labels)
        else:
            Gallery(ids=("a",), features=np.ones((1, 3)), indexed_by=1, labels=labels)


@pytest.mark.parametrize("ids", [(1, 2), ("a", None), ("a", b"b")], ids=["ints", "none", "bytes"])
def test_gallery_refuses_ids_that_are_not_strings(ids):
    # Before, Gallery(ids=(1, 2)) saved a file that load_gallery refused.
    with pytest.raises(DataError, match="gallery ids must be strings"):
        Gallery(ids=ids, features=np.eye(3)[:2], indexed_by=1)


@pytest.mark.parametrize("features", [[[0.1, 0.2]], [[1 / 3, 1e-3]], [[1.0, 1 + 2.0**-40]]])
def test_features_off_the_float32_grid_round_trip_bitwise(tmp_path, features):
    # Before, Gallery(features=[[0.1, 0.2]]) changed by 3e-9 over a save/load cycle.
    gallery = Gallery(ids=("a",), features=features, indexed_by=1)
    save_gallery(gallery, tmp_path / "g")
    loaded = load_gallery(tmp_path / "g")
    assert loaded.features.tobytes() == gallery.features.tobytes()
    assert Gallery(ids=("a",), features=loaded.features, indexed_by=1).features is loaded.features


@settings(
    max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(st.data())
def test_every_gallery_that_constructs_round_trips_through_its_file(tmp_path, data):
    ids = data.draw(st.lists(st.text(max_size=4), min_size=1, max_size=5, unique=True))
    dim = data.draw(st.integers(1, 4))
    rows = st.lists(st.floats(-1e38, 1e38), min_size=dim, max_size=dim)
    features = data.draw(st.lists(rows, min_size=len(ids), max_size=len(ids)))
    label = st.integers(-(2**63), 2**63 - 1)
    labels = data.draw(st.none() | st.lists(label, min_size=len(ids), max_size=len(ids)))
    indexed_by = data.draw(st.integers(min_value=0))
    try:
        gallery = Gallery(ids=ids, features=features, indexed_by=indexed_by, labels=labels)
    except DataError:  # a zero norm: a float32 underflow, or zeros drawn
        reject()
    save_gallery(gallery, tmp_path / "g")
    loaded = load_gallery(tmp_path / "g")
    assert (loaded.ids, loaded.labels, loaded.indexed_by) == (
        gallery.ids, gallery.labels, gallery.indexed_by
    )
    assert loaded.features.dtype == gallery.features.dtype
    assert loaded.features.shape == gallery.features.shape
    assert loaded.features.tobytes() == gallery.features.tobytes()


def test_gallery_norms_are_cached_bitwise():
    gallery, _ = tied_gallery()
    expected = np.linalg.norm(gallery.features, axis=1)
    assert gallery.norms.tobytes() == expected.tobytes()
    with pytest.raises(ValueError):
        gallery.norms[0] = 1.0
    twin = Gallery(ids=gallery.ids, features=gallery.features, indexed_by=gallery.indexed_by)
    assert twin == gallery  # the cached norms are not compared


def test_galleries_compare_by_value_and_are_unhashable(tmp_path):
    # Before, two loads of one file raised "The truth value of an array ... is ambiguous".
    save_gallery(one_hot_gallery(), tmp_path / "g")
    first, second = load_gallery(tmp_path / "g"), load_gallery(tmp_path / "g")
    assert first.features is not second.features
    assert first == second and not first != second
    fields = dict(ids=first.ids, features=first.features, indexed_by=1, labels=first.labels)
    for change in (
        {"ids": ("a", "b", "d")},
        {"features": first.features * 2.0},
        {"indexed_by": 2},
        {"labels": (0, 1, 3)},
        {"labels": None},
    ):
        assert first != Gallery(**{**fields, **change})
    assert first != (first.ids, first.features)
    with pytest.raises(TypeError, match="unhashable"):
        hash(first)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_gallery_rejects_non_finite_features(bad):
    features = np.eye(3)
    features[1, 2] = bad
    with pytest.raises(DataError, match="'b'"):
        Gallery(ids=("a", "b", "c"), features=features, indexed_by=1)


def test_load_gallery_rejects_non_finite_features(tmp_path):
    path = tmp_path / "g.gal"
    save_gallery(one_hot_gallery(), path)
    sections = read_container(path, GALLERY_MAGIC, GALLERY_VERSION)
    features = np.frombuffer(sections["features"], dtype="<f4").copy()
    features[4] = np.nan
    sections["features"] = features.tobytes()
    write_container(path, GALLERY_MAGIC, GALLERY_VERSION, list(sections.items()))  # valid CRCs
    with pytest.raises(DataError, match="non-finite"):
        load_gallery(path)


def test_index_gallery_rejects_a_zero_norm_stored_row():
    inputs = np.eye(3)
    inputs[1] = 0.0
    with pytest.raises(DegenerateFeatureError, match="zero-norm stored feature of gallery id 'b'"):
        index_gallery(["a", "b", "c"], inputs, identity_model(), model_version=1)


def test_load_gallery_rejects_a_zero_norm_stored_row(tmp_path):
    path = tmp_path / "g.gal"
    save_gallery(one_hot_gallery(), path)
    sections = read_container(path, GALLERY_MAGIC, GALLERY_VERSION)
    features = np.frombuffer(sections["features"], dtype="<f4").copy()
    features[3:6] = 0.0  # the row of id "b"
    sections["features"] = features.tobytes()
    write_container(path, GALLERY_MAGIC, GALLERY_VERSION, list(sections.items()))  # valid CRCs
    with pytest.raises(DegenerateFeatureError, match="zero-norm stored feature of gallery id 'b'"):
        load_gallery(path)


def test_search_rejects_a_non_finite_query_norm():
    queries = np.array([[1.0, 0.0, 0.0], [1e200, 1e200, 0.0]])  # the second norm overflows
    with np.errstate(over="ignore"):
        with pytest.raises(DegenerateFeatureError, match="non-finite query feature at index 1"):
            search(queries, identity_model(), one_hot_gallery(), top_n=1)


def test_search_validates_inputs():
    g = one_hot_gallery()
    with pytest.raises(ConfigError, match="gallery size"):
        search(np.eye(3), identity_model(), g, top_n=0)
    with pytest.raises(ConfigError, match="gallery size"):
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


def test_recall_at_1_needs_a_gallery_with_labels():
    with pytest.raises(DataError, match="recall@1 needs a gallery with labels"):
        recall_at_1(np.eye(3), [0, 1, 2], identity_model(), one_hot_gallery(labels=None))


@pytest.mark.parametrize(
    "queries, labels, message",
    [
        (np.empty((0, 3)), [], "recall@1 needs at least one query"),
        (np.eye(3)[:2], [0], "1 query labels for 2 queries"),
        (np.eye(3)[:2], [0, 1, 2], "3 query labels for 2 queries"),
    ],
)
def test_recall_at_1_refuses_zero_queries_and_misaligned_labels(queries, labels, message):
    with pytest.raises(DataError, match=message):
        recall_at_1(queries, labels, identity_model(), one_hot_gallery(labels=(0, 1, 2)))


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
