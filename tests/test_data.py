import csv
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from compatlearn.data import (
    LabeledDataset,
    SyntheticSpec,
    Task,
    TaskSequence,
    generate_pairs,
    load_csv,
    load_pairs,
    make_synthetic,
    make_synthetic_tasks,
    save_csv,
    save_pairs,
    split_tasks,
)
from compatlearn.errors import CompatLearnError, ConfigError, DataError
from compatlearn.evalkit import VerificationPairSet


def spec(**overrides):
    base = dict(
        num_classes=6, samples_per_class=8, input_dim=5, cluster_sigma=0.2, mean_seed=1, noise_seed=2
    )
    base.update(overrides)
    return SyntheticSpec(**base)


@pytest.mark.parametrize(
    "labels, dtype",
    [
        ([1.7, 0.2], "float64"),
        ([True, False], "bool"),
        (np.array([2**63, 0], np.uint64), "uint64"),
        (["1", "0"], "<U1"),
    ],
)
def test_dataset_refuses_labels_that_are_not_int64_integers(labels, dtype):
    # Before, [1.7, 0.2] became labels [1, 0].
    with pytest.raises(DataError, match=f"labels must be integers that fit int64, got {dtype}"):
        LabeledDataset(np.ones((2, 2)), labels)


def test_dataset_takes_labels_of_any_integer_dtype_that_fits():
    for labels in ([3, 4], np.array([3, 4], np.uint64), np.array([3, 4], np.int8)):
        dataset = LabeledDataset(np.ones((2, 2)), labels)
        assert dataset.labels.dtype == np.int64 and dataset.labels.tolist() == [3, 4]


def test_synthetic_counts_match_spec():
    ds = make_synthetic(spec())
    assert len(ds) == 48
    assert ds.input_dim == 5
    labels, counts = np.unique(ds.labels, return_counts=True)
    assert list(labels) == list(range(6))
    assert all(c == 8 for c in counts)


def test_synthetic_is_deterministic():
    a = make_synthetic(spec())
    b = make_synthetic(spec())
    assert a.inputs.tobytes() == b.inputs.tobytes()
    c = make_synthetic(spec(noise_seed=3))
    assert a.inputs.tobytes() != c.inputs.tobytes()


def test_vanishing_sigma_collapses_to_the_mean():
    ds = make_synthetic(spec(cluster_sigma=1e-30))
    for cls in range(6):
        rows = ds.inputs[ds.labels == cls]
        assert np.array_equal(rows, np.tile(rows[0], (len(rows), 1)))
    assert np.allclose(np.linalg.norm(ds.inputs[::8], axis=1), 1.0, atol=1e-12)


@pytest.mark.parametrize("intrinsic_dim", [None, 2])
def test_synthetic_is_bitwise_the_means_plus_scaled_noise(intrinsic_dim):
    s = spec(num_classes=5, samples_per_class=7, input_dim=4, intrinsic_dim=intrinsic_dim)
    mean_rng = np.random.default_rng(s.mean_seed)
    if intrinsic_dim is None:
        means = mean_rng.standard_normal((5, 4))
    else:
        basis, _ = np.linalg.qr(mean_rng.standard_normal((4, intrinsic_dim)))
        means = mean_rng.standard_normal((5, intrinsic_dim)) @ basis.T
    means /= np.linalg.norm(means, axis=1, keepdims=True)
    labels = np.repeat(np.arange(5), 7)
    noise = np.random.default_rng(s.noise_seed).standard_normal((35, 4))
    expected = means[labels] + s.cluster_sigma * noise
    ds = make_synthetic(s)
    assert ds.inputs.tobytes() == expected.tobytes()
    assert np.array_equal(ds.labels, labels)


def test_split_sizes_and_disjointness():
    ds = make_synthetic(spec(num_classes=30, samples_per_class=3))
    sequence, eval_ds = split_tasks(ds, num_tasks=3, eval_class_count=10, seed=0)
    sizes = [len(t.classes) for t in sequence.tasks]
    assert sizes == [7, 7, 6]
    assert sequence.total_classes == 20
    train_classes = [c for t in sequence.tasks for c in t.classes]
    assert sorted(train_classes) == list(range(20))  # contiguous remap, arrival order
    assert sequence.tasks[0].classes == tuple(range(7))
    eval_set = set(eval_ds.class_ids())
    assert len(eval_set) == 10
    # original ids survive on the eval side and never appear in training rows
    for task in sequence.tasks:
        assert len(task.data) == len(task.classes) * 3


def test_split_single_task_takes_everything():
    ds = make_synthetic(spec(num_classes=8, samples_per_class=2))
    sequence, eval_ds = split_tasks(ds, num_tasks=1, eval_class_count=3, seed=1)
    assert len(sequence) == 1
    assert sequence.tasks[0].classes == tuple(range(5))
    assert len(eval_ds.class_ids()) == 3


def test_split_partition_covers_all_classes():
    ds = make_synthetic(spec(num_classes=13, samples_per_class=2))
    sequence, eval_ds = split_tasks(ds, num_tasks=4, eval_class_count=5, seed=2)
    train_total = sum(len(t.data) for t in sequence.tasks)
    assert train_total + len(eval_ds) == len(ds)
    sizes = sorted(len(t.classes) for t in sequence.tasks)
    assert max(sizes) - min(sizes) <= 1


def test_split_insufficient_classes_rejected():
    ds = make_synthetic(spec(num_classes=6, samples_per_class=2))
    with pytest.raises(DataError):
        split_tasks(ds, num_tasks=5, eval_class_count=4, seed=0)


def test_task_sequence_refuses_tasks_of_different_input_widths():
    rng = np.random.default_rng(0)
    tasks = tuple(
        Task(index=t, data=LabeledDataset(rng.standard_normal((4, width)), [t] * 4), classes=(t,))
        for t, width in ((1, 5), (2, 6))
    )
    with pytest.raises(DataError, match=r"tasks have different input widths \[5, 6\]"):
        TaskSequence(tasks=tasks, total_classes=2)


def test_split_is_seeded():
    ds = make_synthetic(spec(num_classes=12, samples_per_class=2))
    seq_a, eval_a = split_tasks(ds, 2, 4, seed=5)
    seq_b, eval_b = split_tasks(ds, 2, 4, seed=5)
    seq_c, eval_c = split_tasks(ds, 2, 4, seed=6)
    assert [t.classes for t in seq_a.tasks] == [t.classes for t in seq_b.tasks]
    assert seq_a.tasks[0].data.inputs.tobytes() == seq_b.tasks[0].data.inputs.tobytes()
    assert eval_a.class_ids() == eval_b.class_ids()
    # a different seed reshuffles which original classes land where
    assert (
        eval_a.class_ids() != eval_c.class_ids()
        or seq_a.tasks[0].data.inputs.tobytes() != seq_c.tasks[0].data.inputs.tobytes()
    )


@pytest.mark.parametrize(
    "overrides, num_tasks, eval_classes, seed",
    [
        (dict(num_classes=30, samples_per_class=3), 3, 10, 0),
        (dict(num_classes=11, samples_per_class=5, intrinsic_dim=2), 4, 3, 7),
        (dict(num_classes=4, samples_per_class=1), 1, 2, 2),
    ],
)
def test_synthetic_tasks_equal_the_split_of_the_whole_dataset(
    overrides, num_tasks, eval_classes, seed
):
    s = spec(**overrides)
    seq_a, eval_a = split_tasks(make_synthetic(s), num_tasks, eval_classes, seed=seed)
    seq_b, eval_b = make_synthetic_tasks(s, num_tasks, eval_classes, seed=seed)
    assert seq_a.total_classes == seq_b.total_classes
    assert len(seq_a.tasks) == len(seq_b.tasks) == num_tasks
    for a, b in zip(seq_a.tasks, seq_b.tasks):
        assert (a.index, a.classes) == (b.index, b.classes)
        assert a.data.inputs.tobytes() == b.data.inputs.tobytes()
        assert np.array_equal(a.data.labels, b.data.labels)
    assert eval_a.inputs.tobytes() == eval_b.inputs.tobytes()
    assert np.array_equal(eval_a.labels, eval_b.labels)


def test_synthetic_tasks_reject_what_split_rejects():
    with pytest.raises(DataError, match="cannot supply"):
        make_synthetic_tasks(spec(), num_tasks=5, eval_class_count=2)
    with pytest.raises(DataError, match="eval_class_count"):
        make_synthetic_tasks(spec(), num_tasks=2, eval_class_count=1)


def eval_dataset():
    return make_synthetic(
        SyntheticSpec(
            num_classes=10, samples_per_class=30, input_dim=4, cluster_sigma=0.1, mean_seed=4, noise_seed=5
        )
    )


def test_pair_generation_is_balanced_at_6000():
    pairs = generate_pairs(eval_dataset(), num_pairs=6000, seed=0)
    assert len(pairs) == 6000
    assert int(pairs.genuine.sum()) == 3000
    assert int((~pairs.genuine).sum()) == 3000


def test_pair_labels_agree_with_flags():
    ds = eval_dataset()
    pairs = generate_pairs(ds, num_pairs=400, seed=1)
    labels_a = ds.labels[pairs.ids_a]
    labels_b = ds.labels[pairs.ids_b]
    assert np.all((labels_a == labels_b) == pairs.genuine)


def test_pair_generation_is_seeded_and_without_replacement():
    ds = eval_dataset()
    a = generate_pairs(ds, 500, seed=9)
    b = generate_pairs(ds, 500, seed=9)
    assert np.array_equal(a.ids_a, b.ids_a) and np.array_equal(a.ids_b, b.ids_b)
    keys = set(zip(a.ids_a.tolist(), a.ids_b.tolist()))
    assert len(keys) == 500


def triu_reference_pairs(ds, num_pairs, seed):
    """Oracle: list every (i < j) candidate as a row, then draw from the lists."""
    i_idx, j_idx = np.triu_indices(len(ds), k=1)
    same = ds.labels[i_idx] == ds.labels[j_idx]
    genuine = np.stack([i_idx[same], j_idx[same]], axis=1)
    impostor = np.stack([i_idx[~same], j_idx[~same]], axis=1)
    rng = np.random.default_rng(seed)
    want = num_pairs // 2
    picks = np.concatenate([
        genuine[rng.choice(len(genuine), size=want, replace=False)],
        impostor[rng.choice(len(impostor), size=want, replace=False)],
    ])
    return picks[:, 0], picks[:, 1]


@pytest.mark.parametrize("num_pairs, seed", [(2, 0), (400, 3), (6000, 11)])
def test_pair_generation_matches_the_listed_candidates(num_pairs, seed):
    ds = eval_dataset()
    # uneven class sizes and interleaved labels, so candidate order matters
    uneven = LabeledDataset(inputs=ds.inputs[:250], labels=ds.labels[:250][::-1] % 7)
    for data in (ds, uneven):
        pairs = generate_pairs(data, num_pairs, seed=seed)
        ids_a, ids_b = triu_reference_pairs(data, num_pairs, seed)
        assert pairs.ids_a.dtype == ids_a.dtype and pairs.ids_b.dtype == ids_b.dtype
        assert np.array_equal(pairs.ids_a, ids_a) and np.array_equal(pairs.ids_b, ids_b)


def test_pair_generation_memory_grows_with_rows_and_pairs_not_rows_squared():
    # mid's held-out shape: 2,000 rows of 10 classes, 60,000 pairs. An n x n grid
    # of candidates peaked at 28 MB here; unranking needs a few bytes per row and pair.
    labels = np.random.default_rng(0).permutation(np.arange(2000) % 10)
    held_out = LabeledDataset(inputs=np.zeros((2000, 1)), labels=labels)
    tracemalloc.start()
    try:
        pairs = generate_pairs(held_out, 60000, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(pairs) == 60000
    assert peak < 8_000_000


def test_pair_generation_rejects_impossible_requests():
    ds = eval_dataset()
    with pytest.raises(ConfigError, match="invalid value for pairs.num_pairs: 7"):
        generate_pairs(ds, num_pairs=7, seed=0)  # odd: the config table's rule
    tiny = LabeledDataset(inputs=np.eye(4), labels=np.array([0, 0, 1, 1]))
    with pytest.raises(DataError):
        generate_pairs(tiny, num_pairs=10, seed=0)  # only 2 genuine pairs exist


def test_pair_csv_round_trip(tmp_path):
    ds = eval_dataset()
    pairs = generate_pairs(ds, 100, seed=3)
    path = tmp_path / "pairs.csv"
    save_pairs(pairs, path)
    loaded = load_pairs(path, ds)
    assert np.array_equal(loaded.ids_a, pairs.ids_a)
    assert np.array_equal(loaded.ids_b, pairs.ids_b)
    assert np.array_equal(loaded.genuine, pairs.genuine)
    assert np.array_equal(loaded.inputs[loaded.ids_a], pairs.inputs[pairs.ids_a])
    assert np.array_equal(loaded.inputs[loaded.ids_b], pairs.inputs[pairs.ids_b])


def test_pair_sets_share_the_dataset_inputs(tmp_path):
    ds = eval_dataset()
    pairs = generate_pairs(ds, 100, seed=3)
    path = tmp_path / "pairs.csv"
    save_pairs(pairs, path)
    for pair_set in (pairs, load_pairs(path, ds)):
        assert np.shares_memory(pair_set.inputs, ds.inputs)
        assert pair_set.inputs.shape == ds.inputs.shape


def test_load_pairs_rejects_out_of_range_ids(tmp_path):
    ds = eval_dataset()
    path = tmp_path / "pairs.csv"
    path.write_text(f"id_a,id_b,genuine\n0,1,1\n2,{len(ds)},0\n")
    with pytest.raises(DataError, match=":3"):
        load_pairs(path, ds)


def test_dataset_csv_round_trip(tmp_path):
    ds = make_synthetic(spec())
    path = tmp_path / "data.csv"
    save_csv(ds, path)
    loaded = load_csv(path)
    assert np.array_equal(loaded.labels, ds.labels)
    assert np.array_equal(loaded.inputs, ds.inputs)  # repr round-trips float64


def test_load_csv_reports_bad_rows(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("label,x0,x1\n0,1.0,2.0\n1,oops,3.0\n")
    with pytest.raises(DataError, match=":3"):
        load_csv(path)
    path.write_text("label,x0,x1\n0,1.0,2.0\n1,3.0\n")
    with pytest.raises(DataError, match=":3"):
        load_csv(path)
    path.write_text("label,x0,x1\n0,1.0,inf\n")
    with pytest.raises(DataError, match="non-finite"):
        load_csv(path)
    path.write_text("0,1.0,2.0\n")
    with pytest.raises(DataError, match="header"):
        load_csv(path)


def test_load_pairs_rejects_rows_without_three_columns(tmp_path):
    ds = eval_dataset()
    path = tmp_path / "pairs.csv"
    for bad_row in ("0,1,1,junk", "0,1,1,0", "0,1"):
        path.write_text(f"id_a,id_b,genuine\n0,1,1\n2,3,0\n{bad_row}\n")
        with pytest.raises(DataError, match=r"pairs\.csv:4: "):
            load_pairs(path, ds)
    path.write_text("id_a,id_b,genuine\n0,1,1,7\n2,3,0,7\n")
    with pytest.raises(DataError, match=r"pairs\.csv:2: expected 3 columns, got 4"):
        load_pairs(path, ds)


# Reference codecs: the csv-module writers and per-cell readers the numpy
# codecs in compatlearn.data must match byte for byte and bit for bit.


def reference_save_csv(dataset, path):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["label"] + [f"x{i}" for i in range(dataset.input_dim)])
        for label, row in zip(dataset.labels, dataset.inputs):
            writer.writerow([int(label)] + [repr(float(v)) for v in row])


def reference_load_csv(path):
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        next(reader)
        rows = [(int(row[0]), [float(v) for v in row[1:]]) for row in reader]
    labels = np.array([label for label, _ in rows], dtype=np.int64)
    return labels, np.array([values for _, values in rows], dtype=np.float64)


def reference_save_pairs(pairs, path):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["id_a", "id_b", "genuine"])
        for a, b, g in zip(pairs.ids_a, pairs.ids_b, pairs.genuine):
            writer.writerow([int(a), int(b), int(g)])


def reference_load_pairs(path):
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        next(reader)
        rows = [(int(a), int(b), bool(int(g))) for a, b, g in reader]
    return tuple(np.array(column) for column in zip(*rows))


EDGE_FLOATS = [
    0.0, -0.0, 5e-324, -5e-324, 1e-310, 2.2250738585072014e-308, 1e-5, -1e-5,
    0.1, 1 / 3, 1e16, -1e16, 1e22, 1.7976931348623157e308, -1.7976931348623157e308,
]


@st.composite
def datasets_and_pairs(draw):
    rows = draw(st.integers(1, 6))
    width = draw(st.integers(1, 5))
    cells = st.one_of(st.sampled_from(EDGE_FLOATS), st.floats(allow_nan=False, allow_infinity=False))
    inputs = np.array(draw(st.lists(cells, min_size=rows * width, max_size=rows * width)))
    labels = draw(
        st.lists(
            st.one_of(st.integers(-3, 3), st.integers(-(2**63), 2**63 - 1)),
            min_size=rows,
            max_size=rows,
        )
    )
    dataset = LabeledDataset(inputs=inputs.reshape(rows, width), labels=np.array(labels))
    count = draw(st.integers(2, 12))
    ids = st.lists(st.integers(0, rows - 1), min_size=count, max_size=count)
    genuine = [True, False] + draw(st.lists(st.booleans(), min_size=count - 2, max_size=count - 2))
    pairs = VerificationPairSet(
        inputs=dataset.inputs, ids_a=draw(ids), ids_b=draw(ids), genuine=genuine
    )
    return dataset, pairs


@settings(max_examples=150, deadline=None)
@given(datasets_and_pairs())
def test_codecs_match_the_csv_module_references(case):
    dataset, pairs = case
    with tempfile.TemporaryDirectory() as tmp:
        ours, ref = Path(tmp, "ours.csv"), Path(tmp, "ref.csv")
        save_csv(dataset, ours)
        reference_save_csv(dataset, ref)
        assert ours.read_bytes() == ref.read_bytes()
        loaded = load_csv(ours)
        ref_labels, ref_inputs = reference_load_csv(ref)
        for got in (loaded.inputs, ref_inputs):
            assert got.tobytes() == dataset.inputs.tobytes()
        assert loaded.labels.tobytes() == ref_labels.tobytes() == dataset.labels.tobytes()

        save_pairs(pairs, ours)
        reference_save_pairs(pairs, ref)
        assert ours.read_bytes() == ref.read_bytes()
        got = load_pairs(ours, dataset)
        ref_a, ref_b, ref_genuine = reference_load_pairs(ref)
        assert got.ids_a.tobytes() == ref_a.tobytes() == pairs.ids_a.tobytes()
        assert got.ids_b.tobytes() == ref_b.tobytes() == pairs.ids_b.tobytes()
        assert got.genuine.tobytes() == ref_genuine.tobytes() == pairs.genuine.tobytes()


EDGE_ROWS = ([0, -3], [[1.5, 2.0], [-0.0, 1e-5]])


@pytest.mark.parametrize(
    "text, expected",
    [
        pytest.param("label,x0,x1\n0,1.5,2\n-3,-0.0,1e-5\n", EDGE_ROWS, id="lf"),
        pytest.param("label,x0,x1\r\n0,1.5,2\r\n-3,-0.0,1e-5\r\n", EDGE_ROWS, id="crlf"),
        pytest.param('"label","x0","x1"\n"0","1.5",2\n-3,"-0.0","1e-5"\n', EDGE_ROWS, id="quoted"),
        pytest.param("label,x0,x1\n 0 , 1.5 ,2\n-3\t,-0.0, 1e-5 \n", EDGE_ROWS, id="padded"),
        pytest.param("label,x0,x1\n0,1,2", ([0], [[1.0, 2.0]]), id="no-final-newline"),
        pytest.param("label,x0,x1\n0,1,2\n\n1,3,4\n", ":3: expected 3 columns, got 0", id="blank"),
        pytest.param("label,x0,x1\n0,1,2\n1,3,4\n\n", ":4: expected 3 columns, got 0", id="blank-last"),
        pytest.param("label,x0,x1\n0,1,2\n1.0,3,4\n", ":3: non-numeric cell", id="float-label"),
        pytest.param("label,x0,x1\n0,1,2\n1,3\n", ":3: expected 3 columns, got 2", id="short"),
        pytest.param("label,x0,x1\n0,1,2\n1,3,4,5\n", ":3: expected 3 columns, got 4", id="long"),
        pytest.param("label,x0,x1\n0,1,2\n1,3,x\n", ":3: non-numeric cell", id="non-numeric"),
        pytest.param("label,x0,x1\n0,1,2\n1,3,inf\n", ":3: non-finite value", id="inf"),
        pytest.param("label,x0,x1\n0,1,2\n1,3,4\n2,nan,5\n", ":4: non-finite value", id="nan"),
        pytest.param("label,x0,x1\n0,1,2\n1,3,1e400\n", ":3: non-finite value", id="overflow"),
        # float() and int() accept digit separators; the numpy parser does not.
        pytest.param("label,x0,x1\n0,1,2\n1,3,1_0\n", ":3: non-numeric cell", id="underscore"),
        pytest.param("label,x0,x1\n0,1,2\n1_0,3,4\n", ":3: non-numeric cell", id="underscore-label"),
        pytest.param("label,x0,x1\n", "no data rows", id="header-only"),
        pytest.param("label,x0,x1\r\n", "no data rows", id="header-only-crlf"),
    ],
)
def test_load_csv_edge_cases(tmp_path, text, expected):
    path = tmp_path / "edge.csv"
    path.write_bytes(text.encode())
    if isinstance(expected, str):
        with pytest.raises(DataError, match=expected):
            load_csv(path)
    else:
        labels, inputs = expected
        loaded = load_csv(path)
        assert loaded.labels.tolist() == labels
        assert loaded.inputs.tobytes() == np.array(inputs).tobytes()


@pytest.mark.parametrize(
    "reader, content, expected",
    [
        ("csv", b"label,x0,x1,x2,x3\n0,1,2,3,\xff\n", "unreadable CSV"),
        ("csv", b"label,x0,x1,x2,x3\n0,1,2,3," + b"9" * 200_000 + b"\n", ":2: non-finite value"),
        ("csv", b"label,x0,x1,x2,x" + b"3" * 200_000 + b"\n0,1,2,3,4\n", "unreadable CSV"),
        (
            "csv",
            b"label,x0,x1,x2,x3\n0,1,2,3,4\n1,1,2,3," + b"a" * 200_000 + b"\n",
            "unreadable CSV",
        ),
        ("pairs", b"id_a,id_b,genuine\n0,1,\xff\n", "unreadable CSV"),
    ],
    ids=["undecodable-data", "long-number", "long-header-cell", "long-bad-cell", "undecodable-pairs"],
)
def test_unreadable_csv_bytes_are_data_errors(tmp_path, reader, content, expected):
    # Undecodable bytes, and cells past the csv module's 131,072-character field
    # limit; the numpy parser reads a 200,000-digit number as inf.
    path = tmp_path / "unreadable.csv"
    path.write_bytes(content)
    with pytest.raises(DataError, match=expected):
        load_csv(path) if reader == "csv" else load_pairs(path, eval_dataset())


CSV_ISH = st.text(alphabet='label,x0123456789.-+e_"inf \t\r\n\x00\xa0\xff', max_size=80).map(
    lambda text: text.encode("utf-8", "surrogatepass")
)
CSV_HEADS = [b"", b"label,x0,x1\n", b"label,x0\r\n", b"id_a,id_b,genuine\n", b'"id_a",id_b,genuine\r\n']


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.sampled_from(CSV_HEADS), st.one_of(st.binary(max_size=80), CSV_ISH))
def test_csv_readers_raise_only_package_errors(head, body):
    dataset = LabeledDataset(inputs=np.eye(4), labels=np.array([0, 0, 1, 1]))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp, "fuzz.csv")
        path.write_bytes(head + body)
        for read in (load_csv, lambda p: load_pairs(p, dataset)):
            try:
                read(path)
            except CompatLearnError:
                pass
