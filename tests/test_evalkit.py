import threading
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from compatlearn import evalkit
from compatlearn.data import LabeledDataset, VerificationPairSet, as_flags, as_int64
from compatlearn.errors import DataError, DegenerateFeatureError, MetricUndefinedError
from compatlearn.evalkit import (
    CompatibilityMatrix,
    _threshold_sweep,
    build_compatibility_matrix,
    compatibility_report,
    pair_scores,
    tar_at_far,
    verification_accuracy,
)
from compatlearn.network import ModelConfig, extract_features, init_model


def brute_force_accuracy(scores, genuine):
    """Oracle: try every midpoint threshold plus sentinels, count directly."""
    scores = np.asarray(scores, dtype=float)
    genuine = np.asarray(genuine, dtype=bool)
    uniq = np.unique(scores)
    candidates = [-np.inf, np.inf] + [
        (a + b) / 2 for a, b in zip(uniq[:-1], uniq[1:])
    ]
    best = -1.0
    for thr in sorted(candidates):
        pred = scores > thr
        acc = np.mean(pred == genuine)
        if acc > best:
            best = acc
    return best


def brute_force_tar(scores, genuine, far_target):
    """Oracle: smallest threshold whose FAR fits the target, then read TAR."""
    scores = np.asarray(scores, dtype=float)
    genuine = np.asarray(genuine, dtype=bool)
    uniq = np.unique(scores)
    candidates = sorted(
        [-np.inf, np.inf] + [(a + b) / 2 for a, b in zip(uniq[:-1], uniq[1:])]
    )
    n_imp = int((~genuine).sum())
    n_gen = int(genuine.sum())
    for thr in candidates:
        pred = scores > thr
        far = np.sum(pred & ~genuine) / n_imp
        if far <= far_target:
            return np.sum(pred & genuine) / n_gen if n_gen else 0.0
    raise AssertionError("unreachable: +inf always has FAR 0")


def identity_model(dim=3):
    """A linear model whose features equal its inputs."""
    cfg = ModelConfig(input_dim=dim, hidden_layers=(), feature_dim=dim, nonlinearity="relu", seed=0)
    state = init_model(cfg)
    state.weights[0][:] = np.eye(dim)
    state.biases[0][:] = 0.0
    return state


def heldout(inputs):
    """The held-out rows ``inputs``, all of one label."""
    return LabeledDataset(inputs, np.zeros(len(inputs), dtype=np.int64))


def make_pairs(inputs_a, inputs_b, genuine):
    """Pair i compares row i of inputs_a with row i of inputs_b, as indices."""
    n = len(genuine)
    return VerificationPairSet(
        dataset=heldout(np.concatenate([inputs_a, inputs_b]).astype(float)),
        ids_a=np.arange(n),
        ids_b=np.arange(n, 2 * n),
        genuine=np.asarray(genuine, dtype=bool),
    )


def test_pair_scores_self_pair_is_one():
    model = identity_model()
    x = np.array([[1.0, 2.0, 3.0], [0.5, 0.0, 1.0]])
    pairs = make_pairs(x, x.copy(), [True, False])
    scores, genuine = pair_scores(pairs, model, model)
    assert scores[0] == pytest.approx(1.0, abs=1e-9)
    assert scores[1] == pytest.approx(1.0, abs=1e-9)
    assert list(genuine) == [True, False]


def test_pair_scores_orthogonal_is_zero_and_scale_invariant():
    model = identity_model()
    a = np.array([[1.0, 0.0, 0.0], [2.0, 0.0, 0.0]])
    b = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 7.0]])
    pairs = make_pairs(a, b, [True, False])
    scores, _ = pair_scores(pairs, model, model)
    assert np.allclose(scores, 0.0, atol=1e-12)
    scaled = make_pairs(a * 13.0, b * 0.25, [True, False])
    scores_scaled, _ = pair_scores(scaled, model, model)
    assert np.allclose(scores, scores_scaled, atol=1e-12)


@pytest.mark.parametrize(
    "row, kind", [([0.0, 0.0, 0.0], "zero-norm"), ([1e200, 1e200, 0.0], "non-finite")],
    ids=["zero", "overflow"],
)
def test_pair_scores_zero_norm_feature_reports_index(row, kind):
    model = identity_model()
    a = np.array([[1.0, 0.0, 0.0], row])  # the second norm is zero or overflows
    b = np.ones((2, 3))
    with np.errstate(over="ignore"):
        with pytest.raises(DegenerateFeatureError, match=f"{kind} feature of held-out row 1"):
            pair_scores(make_pairs(a, b, [True, False]), model, model)


def test_degenerate_feature_names_the_held_out_row_and_the_task():
    # The pairs touch rows 0 and 2 only; row 2 holds the zero feature.
    inputs = np.array([[1.0, 0.0, 0.0], [5.0, 5.0, 5.0], [0.0, 0.0, 0.0]])
    pairs = VerificationPairSet(heldout(inputs), ids_a=[0, 2], ids_b=[2, 0], genuine=[True, False])
    shifted = identity_model()
    shifted.biases[0][:] = 1.0  # row 2's feature is (1, 1, 1)
    with pytest.raises(DegenerateFeatureError, match="zero-norm feature of held-out row 2$"):
        pair_scores(pairs, identity_model(), identity_model())
    with pytest.raises(DegenerateFeatureError, match="^checkpoint of task 2: .* held-out row 2$"):
        build_compatibility_matrix([shifted, identity_model()], pairs)


def test_a_degenerate_feature_on_a_row_no_pair_touches_is_refused():
    # Every held-out row is extracted and norm-checked, the rows no pair touches too.
    inputs = np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    pairs = VerificationPairSet(heldout(inputs), ids_a=[0, 2], ids_b=[2, 0], genuine=[True, False])
    with pytest.raises(DegenerateFeatureError, match="zero-norm feature of held-out row 1$"):
        pair_scores(pairs, identity_model(), identity_model())
    shifted = identity_model()
    shifted.biases[0][:] = 1.0  # row 1's feature is (1, 1, 1)
    with pytest.raises(DegenerateFeatureError, match="^checkpoint of task 2: .* held-out row 1$"):
        build_compatibility_matrix([shifted, identity_model()], pairs)


def test_pair_set_rejects_ids_outside_the_inputs():
    inputs = np.eye(3)
    for ids_a, ids_b, where in (([0, 3], [1, 2], "pair 1 side a"), ([0, 1], [-1, 2], "pair 0 side b")):
        with pytest.raises(DataError, match=where):
            VerificationPairSet(heldout(inputs), ids_a=ids_a, ids_b=ids_b, genuine=[True, False])
    with pytest.raises(DataError, match="inconsistent"):
        VerificationPairSet(heldout(inputs), ids_a=[0, 1], ids_b=[1], genuine=[True, False])


@pytest.mark.parametrize(
    "field, values, message",
    [
        ("ids_a", [0.9, 1.5], "ids_a must be integers that fit int64, got float64"),
        ("ids_b", [True, False], "ids_b must be integers that fit int64, got bool"),
        ("ids_a", np.array([2**63, 0], np.uint64), "ids_a must be integers that fit int64"),
        ("genuine", [2, 0], "other than 0 or 1"),
        ("genuine", [1, -1], "other than 0 or 1"),
        ("genuine", [1.0, 0.0], "other than 0 or 1"),
        ("genuine", ["1", "0"], "other than 0 or 1"),
    ],
)
def test_pair_set_refuses_ids_and_flags_it_used_to_cast(field, values, message):
    # Before, ids [0.9, 1.5] became rows [0, 1] and a genuine of 2 became True.
    fields = dict(dataset=heldout(np.eye(3)), ids_a=[0, 1], ids_b=[1, 2], genuine=[True, False])
    with pytest.raises(DataError, match=message):
        VerificationPairSet(**{**fields, field: values})


def test_pair_set_takes_any_integer_ids_and_0_1_flags():
    pairs = VerificationPairSet(
        heldout(np.eye(3)), np.array([0, 1], np.uint8), np.array([1, 2], np.int32), np.array([1, 0])
    )
    assert (pairs.ids_a.dtype, pairs.ids_b.dtype, pairs.genuine.dtype) == (np.int64, np.int64, bool)
    assert pairs.genuine.tolist() == [True, False]


def test_pair_scores_rejects_models_of_different_feature_dimensions():
    pairs = make_pairs(np.eye(3)[:2], np.eye(3)[1:], [True, False])
    narrow = init_model(
        ModelConfig(input_dim=3, hidden_layers=(), feature_dim=2, nonlinearity="relu", seed=0)
    )
    with pytest.raises(DataError, match="feature dimensions"):
        pair_scores(pairs, identity_model(), narrow)


def loop_threshold_sweep(scores, genuine):
    """Reference: the sweep written as a plain loop over the sorted scores."""
    order = np.argsort(scores, kind="stable")
    s = scores[order]
    g = genuine[order]
    cum_genuine = np.concatenate(([0], np.cumsum(g)))
    cum_impostor = np.concatenate(([0], np.cumsum(~g)))
    positions = [0]
    thresholds = [-np.inf]
    for i in range(1, len(s)):
        if s[i - 1] != s[i]:
            positions.append(i)
            thresholds.append((s[i - 1] + s[i]) / 2.0)
    positions.append(len(s))
    thresholds.append(np.inf)
    positions = np.asarray(positions)
    return np.asarray(thresholds), cum_genuine[positions], cum_impostor[positions]


sweep_scores = st.one_of(
    st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=60),
    st.lists(st.sampled_from([-0.5, 0.0, 0.25, 0.3, 1.0]), min_size=1, max_size=60),
    st.integers(1, 60).map(lambda n: [0.125] * n),
)


@settings(max_examples=200, deadline=None)
@given(sweep_scores, st.data())
def test_threshold_sweep_matches_the_loop_bitwise(scores, data):
    scores = np.asarray(scores, dtype=np.float64)
    genuine = np.asarray(
        data.draw(st.lists(st.booleans(), min_size=len(scores), max_size=len(scores))),
        dtype=bool,
    )
    got = _threshold_sweep(scores, genuine)
    want = loop_threshold_sweep(scores, genuine)
    for g, w in zip(got, want):
        assert g.dtype == w.dtype
        assert g.tobytes() == w.tobytes()


def stable_threshold_sweep(scores, genuine):
    """Reference: the sweep's formula over a stable sort, so tied scores keep their order."""
    order = np.argsort(scores, kind="stable")
    s = scores[order]
    g = genuine[order]
    cum_genuine = np.concatenate(([0], np.cumsum(g)))
    cum_impostor = np.concatenate(([0], np.cumsum(~g)))
    cuts = np.flatnonzero(s[1:] != s[:-1]) + 1
    positions = np.concatenate(([0], cuts, [len(s)]))
    thresholds = np.concatenate(([-np.inf], (s[cuts - 1] + s[cuts]) / 2.0, [np.inf]))
    return thresholds, cum_genuine[positions], cum_impostor[positions]


tied_scores = st.one_of(
    st.lists(st.floats(-1.0, 1.0).map(lambda x: round(x, 2)), min_size=2, max_size=300),
    st.lists(st.integers(-5, 5).map(float), min_size=2, max_size=300),
)


@settings(max_examples=200, deadline=None)
@given(tied_scores, st.data())
def test_threshold_sweep_does_not_depend_on_the_order_of_ties(scores, data):
    scores = np.asarray(scores, dtype=np.float64)
    genuine = np.asarray(
        data.draw(st.lists(st.booleans(), min_size=len(scores), max_size=len(scores))),
        dtype=bool,
    )
    genuine[:2] = True, False  # both metrics need a genuine and an impostor pair
    for got, want in zip(_threshold_sweep(scores, genuine), stable_threshold_sweep(scores, genuine)):
        assert np.array_equal(got, want)
    far = data.draw(st.sampled_from([0.01, 0.1, 0.5, 1.0]))
    got = verification_accuracy(scores, genuine), tar_at_far(scores, genuine, far)
    with mock.patch.object(evalkit, "_threshold_sweep", stable_threshold_sweep):
        want = verification_accuracy(scores, genuine), tar_at_far(scores, genuine, far)
    assert got == want


def test_accuracy_perfect_separation():
    result = verification_accuracy([0.9, 0.8, 0.2, 0.1], [True, True, False, False])
    assert result.value == 1.0


def test_accuracy_degenerate_identical_scores():
    result = verification_accuracy([0.5, 0.5, 0.5, 0.5], [True, True, True, False])
    assert result.value == 0.75


def test_accuracy_worked_example():
    result = verification_accuracy([0.9, 0.4, 0.6, 0.1], [True, True, False, False])
    assert result.value == 0.75
    # tie broken toward the lower threshold
    assert result.threshold == pytest.approx(0.25)


def test_accuracy_matches_brute_force_on_random_scores():
    rng = np.random.default_rng(0)
    for trial in range(50):
        n = int(rng.integers(2, 40))
        scores = np.round(rng.standard_normal(n), 2)  # duplicates likely
        genuine = rng.random(n) < 0.5
        ours = verification_accuracy(scores, genuine).value
        oracle = brute_force_accuracy(scores, genuine)
        assert ours == pytest.approx(oracle, abs=1e-12), f"trial {trial}"


def test_accuracy_invariant_under_monotone_transform():
    rng = np.random.default_rng(1)
    scores = rng.standard_normal(60)
    genuine = rng.random(60) < 0.4
    base = verification_accuracy(scores, genuine).value
    for transform in (np.exp, np.arctan, lambda s: 3 * s + 11):
        assert verification_accuracy(transform(scores), genuine).value == base


def test_tar_perfect_separation():
    for far in (0.01, 0.5, 1.0):
        result = tar_at_far([0.9, 0.8, 0.2, 0.1], [True, True, False, False], far)
        assert result.value == 1.0


def test_tar_worked_examples():
    assert tar_at_far([0.9, 0.8, 0.2, 0.1], [True, True, False, False], 0.5).value == 1.0
    assert tar_at_far([0.3, 0.9], [True, False], 0.01).value == 0.0


def test_tar_matches_brute_force_on_random_scores():
    rng = np.random.default_rng(2)
    for trial in range(50):
        n = int(rng.integers(3, 40))
        scores = np.round(rng.standard_normal(n), 2)
        genuine = rng.random(n) < 0.5
        if not genuine.any() or genuine.all():
            continue
        for far in (0.05, 0.3, 1.0):
            ours = tar_at_far(scores, genuine, far).value
            oracle = brute_force_tar(scores, genuine, far)
            assert ours == pytest.approx(oracle, abs=1e-12), f"trial {trial} far {far}"


def test_tar_needs_impostors():
    with pytest.raises(DataError):
        tar_at_far([0.5, 0.6], [True, True], 0.1)
    with pytest.raises(DataError):
        tar_at_far([0.5, 0.6], [True, False], 0.0)


@pytest.mark.parametrize(
    "scores, genuine, message",
    [
        ([0.1, 0.9], [False, True, True], r"scores of shape \(2,\) for flags of shape \(3,\)"),
        ([0.1, 0.9, 0.5], [False, True], r"scores of shape \(3,\) for flags of shape \(2,\)"),
        ([[0.1, 0.9], [0.2, 0.8]], [False, True], r"scores of shape \(2, 2\) for flags"),
        ([0.1, np.nan, 0.9], [False, True, True], "scores must be finite"),
        ([0.1, -np.inf, 0.9], [False, True, True], "scores must be finite"),
    ],
)
def test_metrics_refuse_misaligned_and_non_finite_scores(scores, genuine, message):
    with pytest.raises(DataError, match=message):
        verification_accuracy(scores, genuine)
    with pytest.raises(DataError, match=message):
        tar_at_far(scores, genuine, 0.5)


def random_pairs(rng, n=30, dim=3):
    inputs_a = rng.standard_normal((n, dim)) + 0.5
    inputs_b = rng.standard_normal((n, dim)) + 0.5
    genuine = rng.random(n) < 0.5
    genuine[0], genuine[1] = True, False
    return make_pairs(inputs_a, inputs_b, genuine)


def test_matrix_single_task_is_one_self_test():
    rng = np.random.default_rng(3)
    model = init_model(ModelConfig(input_dim=3, hidden_layers=(4,), feature_dim=3, nonlinearity="tanh", seed=1))
    matrix = build_compatibility_matrix([model], random_pairs(rng))
    assert matrix.values.shape == (1, 1)
    assert 0.0 <= matrix.values[0, 0] <= 1.0


def test_matrix_upper_triangle_is_zero():
    rng = np.random.default_rng(4)
    models = [
        init_model(ModelConfig(input_dim=3, hidden_layers=(4,), feature_dim=3, nonlinearity="tanh", seed=s))
        for s in range(4)
    ]
    matrix = build_compatibility_matrix(models, random_pairs(rng))
    assert np.array_equal(np.triu(matrix.values, k=1), np.zeros((4, 4)))


def test_matrix_with_copied_checkpoint_repeats_the_self_test():
    rng = np.random.default_rng(5)
    model = init_model(ModelConfig(input_dim=3, hidden_layers=(4,), feature_dim=3, nonlinearity="tanh", seed=2))
    clone = model.copy().freeze()
    matrix = build_compatibility_matrix([model, clone], random_pairs(rng))
    assert matrix.values[1, 0] == matrix.values[0, 0]
    assert matrix.values[1, 1] == matrix.values[0, 0]


def shared_sample_pairs(rng, samples=12, n=40, dim=3):
    """Pairs that reuse a few samples many times, as a held-out pair set does."""
    ids = rng.integers(0, samples, size=(2, n))
    genuine = rng.random(n) < 0.5
    genuine[0], genuine[1] = True, False
    inputs = rng.standard_normal((samples + 5, dim)) + 0.5
    return VerificationPairSet(heldout(inputs), ids_a=ids[0], ids_b=ids[1], genuine=genuine)


def tanh_models(count):
    return [
        init_model(ModelConfig(input_dim=3, hidden_layers=(4,), feature_dim=3, nonlinearity="tanh", seed=s))
        for s in range(count)
    ]


def test_matrix_extracts_every_held_out_row_once_per_checkpoint(monkeypatch):
    pairs = shared_sample_pairs(np.random.default_rng(8))
    models = tanh_models(3)
    extracted = []
    original = evalkit.extract_features

    def counting(model, batch):
        extracted.append(len(batch))
        return original(model, batch)

    monkeypatch.setattr(evalkit, "extract_features", counting)
    build_compatibility_matrix(models, pairs)
    assert len(np.union1d(pairs.ids_a, pairs.ids_b)) < len(pairs.dataset.inputs)  # rows in no pair
    assert extracted == [len(pairs.dataset.inputs)] * len(models)


@pytest.mark.parametrize("metric, far", [("accuracy", None), ("tar_at_far", 0.2)])
def test_pair_scores_reproduce_every_matrix_cell_bitwise(monkeypatch, metric, far):
    pairs = shared_sample_pairs(np.random.default_rng(9), n=300)
    models = tanh_models(4)
    values = np.zeros((4, 4))
    thresholds = np.full((4, 4), np.nan)
    for t in range(4):
        for k in range(t + 1):
            scores, genuine = pair_scores(pairs, models[t], models[k])
            if metric == "accuracy":
                result = verification_accuracy(scores, genuine)
            else:
                result = tar_at_far(scores, genuine, far)
            values[t, k], thresholds[t, k] = result.value, result.threshold
    # One worker, and more workers than the host may have CPUs.
    for cpus in (1, 4):
        monkeypatch.setattr(evalkit, "_cpu_count", lambda: cpus)
        matrix = build_compatibility_matrix(models, pairs, metric=metric, far_target=far)
        assert matrix.values.tobytes() == values.tobytes()
        assert np.array_equal(matrix.thresholds, thresholds, equal_nan=True)


class CellFailure(Exception):
    pass


@pytest.mark.parametrize("metric, far", [("accuracy", None), ("tar_at_far", 0.2)])
def test_an_error_in_one_cell_reaches_the_caller_and_no_thread_outlives_it(
    monkeypatch, metric, far
):
    pairs = shared_sample_pairs(np.random.default_rng(12))
    calls = []
    original = getattr(evalkit, "verification_accuracy" if metric == "accuracy" else metric)

    def fails_in_the_third_cell(*args):
        calls.append(None)  # list.append is atomic under the GIL
        if len(calls) == 3:
            raise CellFailure("cell scoring failed")
        return original(*args)

    monkeypatch.setattr(evalkit, original.__name__, fails_in_the_third_cell)
    monkeypatch.setattr(evalkit, "_cpu_count", lambda: 2)
    threads = threading.active_count()
    with pytest.raises(CellFailure, match="^cell scoring failed$"):
        build_compatibility_matrix(tanh_models(4), pairs, metric=metric, far_target=far)
    assert threading.active_count() == threads


class ItemFailure(Exception):
    pass


@pytest.mark.parametrize("failing", [{1, 2}, {2, 3}, {3, 5}, {5}])
@pytest.mark.parametrize("cpus", [1, 2, 3, 4])
def test_on_every_cpu_raises_the_failure_of_the_lowest_indexed_item(monkeypatch, cpus, failing):
    # On 2 CPUs the calling thread takes items 0, 2 and 4, a pool thread 1, 3 and 5:
    # with items 1 and 2 failing, the caller's own failure used to win.
    def square(item):
        if item in failing:
            raise ItemFailure(f"item {item}")
        return item * item

    monkeypatch.setattr(evalkit, "_cpu_count", lambda: cpus)
    threads = threading.active_count()
    assert evalkit.on_every_cpu(lambda item: item * item, range(6)) == [0, 1, 4, 9, 16, 25]
    with pytest.raises(ItemFailure, match=f"^item {min(failing)}$"):
        evalkit.on_every_cpu(square, range(6))
    assert threading.active_count() == threads


@pytest.mark.parametrize("cpus", [1, 2, 4])
def test_the_first_degenerate_checkpoint_is_named_on_any_cpu_count(monkeypatch, cpus):
    pairs = shared_sample_pairs(np.random.default_rng(13))
    models = tanh_models(4)
    for model in models[1:3]:  # tasks 2 and 3 map every sample to a zero feature
        model.weights[-1][:] = 0.0
    monkeypatch.setattr(evalkit, "_cpu_count", lambda: cpus)
    threads = threading.active_count()
    with pytest.raises(DegenerateFeatureError, match="^checkpoint of task 2: zero-norm"):
        build_compatibility_matrix(models, pairs)
    assert threading.active_count() == threads


def test_pair_scores_match_scoring_each_pair_on_its_own():
    pairs = shared_sample_pairs(np.random.default_rng(10))
    query, gallery = tanh_models(2)
    scores, _ = pair_scores(pairs, query, gallery)
    for i, (a, b) in enumerate(zip(pairs.ids_a, pairs.ids_b)):
        fa = extract_features(query, pairs.dataset.inputs[a : a + 1])[0]
        fb = extract_features(gallery, pairs.dataset.inputs[b : b + 1])[0]
        cosine = fa @ fb / (np.linalg.norm(fa) * np.linalg.norm(fb))
        assert scores[i] == pytest.approx(cosine, abs=1e-12)


@pytest.mark.parametrize("block", [1, 7, 40, 41, 4096])
def test_pair_scores_do_not_depend_on_the_score_block(monkeypatch, block):
    pairs = shared_sample_pairs(np.random.default_rng(11), n=41)
    query, gallery = tanh_models(2)
    (fq, nq), (fg, ng) = (evalkit._heldout_features(model, pairs) for model in (query, gallery))
    a, b = pairs.ids_a, pairs.ids_b
    # the whole pair set gathered at once
    expected = np.clip(np.sum(fq[a] * fg[b], axis=1) / (nq[a] * ng[b]), -1.0, 1.0)
    monkeypatch.setattr(evalkit, "SCORE_BLOCK", block)
    scores, _ = pair_scores(pairs, query, gallery)
    assert scores.tobytes() == expected.tobytes()


def lower_triangular(rng, t):
    values = np.tril(rng.random((t, t)))
    return CompatibilityMatrix(values=values, metric="accuracy")


def brute_force_report(c):
    """Oracle: summary formulas written out index by index."""
    t = c.shape[0]
    comparisons = [(tt, k) for tt in range(1, t) for k in range(tt)]
    ac = sum(1.0 for tt, k in comparisons if c[tt, k] > c[k, k]) * 2 / (t * (t - 1))
    bc = sum(c[t - 1, k] - c[k, k] for k in range(t - 1)) / (t - 1)
    fc = sum(c[k, k - 1] - c[k, k] for k in range(1, t)) / (t - 1)
    series = [
        sum(c[tt, k] - c[k, k] for k in range(tt)) / tt for tt in range(1, t)
    ]
    cells = [c[tt, k] for tt in range(t) for k in range(tt + 1)]
    am = sum(cells) / (t * (t + 1) / 2)
    return ac, am, bc, fc, series


def test_report_all_cross_tests_above_self_tests():
    values = np.array(
        [
            [0.5, 0.0, 0.0],
            [0.6, 0.55, 0.0],
            [0.7, 0.65, 0.6],
        ]
    )
    report = compatibility_report(CompatibilityMatrix(values=values, metric="accuracy"))
    assert report.ac == 1.0


def test_report_backward_compatibility_worked_example():
    values = np.array(
        [
            [0.80, 0.0, 0.0],
            [0.70, 0.85, 0.0],
            [0.82, 0.83, 0.90],
        ]
    )
    report = compatibility_report(CompatibilityMatrix(values=values, metric="accuracy"))
    assert report.bc == pytest.approx(((0.82 - 0.80) + (0.83 - 0.85)) / 2, abs=1e-15)
    assert report.bc == pytest.approx(0.0, abs=1e-15)


def test_report_forward_compatibility_worked_example():
    values = np.array(
        [
            [0.80, 0.0, 0.0],
            [0.84, 0.85, 0.0],
            [0.50, 0.91, 0.90],
        ]
    )
    report = compatibility_report(CompatibilityMatrix(values=values, metric="accuracy"))
    assert report.fc == pytest.approx((-0.01 + 0.01) / 2, abs=1e-12)


def test_report_matches_brute_force_on_random_matrices():
    rng = np.random.default_rng(6)
    for _ in range(100):
        t = int(rng.integers(2, 9))
        matrix = lower_triangular(rng, t)
        report = compatibility_report(matrix)
        ac, am, bc, fc, series = brute_force_report(matrix.values)
        assert abs(report.ac - ac) < 1e-12
        assert abs(report.am - am) < 1e-12
        assert abs(report.bc - bc) < 1e-12
        assert abs(report.fc - fc) < 1e-12
        assert len(report.bc_series) == len(series)
        for got, want in zip(report.bc_series, series):
            assert abs(got - want) < 1e-12
        assert report.bc_series[-1] == report.bc  # exact, same arithmetic
        assert 0.0 <= report.ac <= 1.0
        assert -1.0 <= report.bc <= 1.0
        assert -1.0 <= report.fc <= 1.0


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 7), st.integers(0, 2**32 - 1))
def test_report_ranges_hold_for_any_valid_matrix(t, seed):
    matrix = lower_triangular(np.random.default_rng(seed), t)
    report = compatibility_report(matrix)
    assert 0.0 <= report.ac <= 1.0
    assert 0.0 <= report.am <= 1.0
    assert -1.0 <= report.bc <= 1.0
    assert -1.0 <= report.fc <= 1.0


def test_report_undefined_for_single_task():
    matrix = CompatibilityMatrix(values=np.array([[0.5]]), metric="accuracy")
    with pytest.raises(MetricUndefinedError):
        compatibility_report(matrix)


def test_ac_invariant_under_monotone_rescaling():
    rng = np.random.default_rng(7)
    values = np.tril(rng.random((5, 5)))
    base = compatibility_report(CompatibilityMatrix(values=values, metric="accuracy")).ac
    squashed = np.tril(values**3)  # strictly monotone on [0, 1]
    transformed = compatibility_report(
        CompatibilityMatrix(values=squashed, metric="accuracy")
    ).ac
    assert base == transformed


def test_matrix_validation_rejects_bad_shapes_and_values():
    with pytest.raises(DataError):
        CompatibilityMatrix(values=np.ones((2, 3)), metric="accuracy")
    with pytest.raises(DataError):
        CompatibilityMatrix(values=np.ones((2, 2)), metric="accuracy")  # upper nonzero
    with pytest.raises(DataError):
        CompatibilityMatrix(values=np.tril(np.full((2, 2), 1.5)), metric="accuracy")
    with pytest.raises(DataError):
        CompatibilityMatrix(values=np.array([[0.5, 0.0], [np.nan, 0.5]]), metric="accuracy")
    with pytest.raises(DataError):
        CompatibilityMatrix(values=np.tril(np.ones((2, 2)) * 0.5), metric="bogus")


@pytest.mark.parametrize("genuine", [[2, 0], [1.0, 0.0], [1, -1]], ids=["two", "floats", "minus-one"])
def test_metrics_refuse_flags_they_used_to_cast(genuine):
    # Before, verification_accuracy([0.9, 0.1], [2, 0]) counted the flag 2 as genuine.
    message = "genuine must be bools, or integers with none other than 0 or 1"
    with pytest.raises(DataError, match=message):
        verification_accuracy([0.9, 0.1], genuine)
    with pytest.raises(DataError, match=message):
        tar_at_far([0.9, 0.1], genuine, 0.5)


def test_metrics_refuse_an_empty_pair_list_before_reading_its_dtype():
    for metric in (verification_accuracy, lambda s, g: tar_at_far(s, g, 0.5)):
        with pytest.raises(DataError, match="verification metrics need at least one pair"):
            metric([], [])


def test_the_label_and_flag_rules_return_int64_and_bool_arrays_as_they_are():
    labels, flags = np.array([3, -1]), np.array([True, False])
    assert as_int64(labels, "labels") is labels and as_flags(flags, "flags") is flags
    assert as_int64(np.array([3], np.uint64), "labels").dtype == np.int64
    assert as_flags(np.array([1, 0], np.uint8), "flags").tolist() == [True, False]
    with pytest.raises(DataError, match="labels must be integers that fit int64, got bool"):
        as_int64(flags, "labels")


@pytest.mark.parametrize(
    "metric, far, message",
    [
        ("tar_at_far", None, "tar_at_far with far_target None: tar_at_far alone"),
        ("accuracy", -3.0, "accuracy with far_target -3.0: tar_at_far alone takes one"),
        ("accuracy", 0.1, "accuracy with far_target 0.1: tar_at_far alone takes one"),
        ("tar_at_far", 5.0, r"far_target must be in \(0, 1\], got 5.0"),
        ("tar_at_far", 0.0, r"far_target must be in \(0, 1\], got 0.0"),
        ("tar_at_far", float("nan"), r"far_target must be in \(0, 1\], got nan"),
        ("tar_at_far", True, "far_target must be a number, got True"),
        ("tar_at_far", np.True_, r"far_target must be a number, got np.True_"),
        ("tar_at_far", "0.1", "far_target must be a number, got '0.1'"),
        ("auc", None, r"metric must be one of \('accuracy', 'tar_at_far'\), got 'auc'"),
    ],
)
def test_a_matrix_owns_its_metric_and_far_rule(metric, far, message):
    # Before, CompatibilityMatrix(v, "tar_at_far") and (v, "accuracy", far_target=-3.0)
    # constructed.
    with pytest.raises(DataError, match=message):
        CompatibilityMatrix(values=np.full((1, 1), 0.5), metric=metric, far_target=far)
    # Checked before any work: neither the models nor the pairs are read.
    with pytest.raises(DataError, match=message):
        build_compatibility_matrix([object()], None, metric=metric, far_target=far)
