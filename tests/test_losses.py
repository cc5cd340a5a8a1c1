import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from checksums import parameter_checksum
from compatlearn.errors import ConfigError, DataError, DegenerateFeatureError
from compatlearn.geometry import build_simplex
from compatlearn.losses import (
    LabeledBatch,
    combined_loss,
    feature_distillation_loss,
    lambda_for_task,
)
from compatlearn.network import (
    ModelConfig,
    backprop_feature_grads,
    extract_features,
    forward_features,
    init_model,
)
from compatlearn.trainer import TrainableClassifier


def brute_force_ce(features, labels, vertices):
    """Oracle: plain-Python softmax cross-entropy over all prototype rows."""
    total = 0.0
    for f, y in zip(features, labels):
        logits = [sum(w_i * f_i for w_i, f_i in zip(w, f)) for w in vertices]
        denom = sum(math.exp(z) for z in logits)
        total += -math.log(math.exp(logits[y]) / denom)
    return total / len(features)


def test_zero_feature_gives_log_capacity():
    prototypes = build_simplex(4)
    loss, _, _ = prototypes.loss(np.zeros((1, 3)), [2], False)
    assert loss == pytest.approx(math.log(4.0), abs=1e-12)


def test_matches_brute_force_at_a_vertex():
    prototypes = build_simplex(3)
    feature = prototypes.vertices[1].copy()
    loss, _, _ = prototypes.loss(feature[None, :], [1], False)
    expected = brute_force_ce([feature], [1], prototypes.vertices)
    assert loss == pytest.approx(expected, abs=1e-12)


def test_matches_brute_force_on_random_batch():
    prototypes = build_simplex(7)
    rng = np.random.default_rng(5)
    features = rng.standard_normal((9, 6))
    labels = rng.integers(0, 7, size=9)
    loss, _, _ = prototypes.loss(features, labels, False)
    expected = brute_force_ce(features, labels, prototypes.vertices)
    assert loss == pytest.approx(expected, abs=1e-12)


def test_scaling_toward_own_prototype_decreases_loss():
    prototypes = build_simplex(5)
    for label in (0, 4):  # a basis vertex and the constant vertex
        losses = []
        for c in (1.0, 10.0, 100.0):
            loss, _, _ = prototypes.loss(c * prototypes.vertices[label][None, :], [label], False)
            losses.append(loss)
        assert losses[0] > losses[1] > losses[2]


def test_label_out_of_capacity_rejected():
    prototypes = build_simplex(3)
    with pytest.raises(DataError):
        prototypes.loss(np.zeros((1, 2)), [3], False)
    with pytest.raises(DataError):
        prototypes.loss(np.zeros((1, 2)), [-1], False)


@pytest.mark.parametrize(
    "rows, labels", [(1, [0, 1]), (3, [0, 1]), (2, [[0], [1]])], ids=["more", "fewer", "2-d"]
)
def test_labels_not_one_per_feature_row_rejected(rows, labels):
    # One row with two labels would broadcast into a mean over both: a wrong
    # value, not an error, without the check.
    with pytest.raises(DataError, match="labels of shape"):
        build_simplex(3).loss(np.ones((rows, 2)), labels, False)


def test_features_not_one_row_per_sample_rejected():
    with pytest.raises(DataError, match="one row per sample"):
        build_simplex(3).loss(np.ones(2), [0, 1], False)


def test_empty_batch_rejected():
    prototypes = build_simplex(3)
    with pytest.raises(DataError, match="empty batch"):
        prototypes.loss(np.zeros((0, 2)), [], False)


def test_large_logits_stay_finite():
    prototypes = build_simplex(6)
    rng = np.random.default_rng(0)
    features = rng.standard_normal((20, 5))
    labels = rng.integers(0, 6, size=20)
    # At x1000 the logits reach about 2,300, past where exp overflows
    # without the log-sum-exp shift.
    for scale in (50.0, 1000.0):
        loss, grad, _ = prototypes.loss(features * scale, labels, False)
        assert np.isfinite(loss) and loss >= 0.0
        assert np.all(np.isfinite(grad))


def finite_diff_feature_grad(loss_of_features, features, eps=1e-6):
    """Oracle: central differences on each feature coordinate."""
    grad = np.zeros_like(features)
    work = features.copy()
    for idx in np.ndindex(features.shape):
        orig = work[idx]
        work[idx] = orig + eps
        plus = loss_of_features(work)
        work[idx] = orig - eps
        minus = loss_of_features(work)
        work[idx] = orig
        grad[idx] = (plus - minus) / (2 * eps)
    return grad


@pytest.mark.parametrize("normalize", [False, True])
def test_ce_feature_gradients_match_finite_differences(normalize):
    prototypes = build_simplex(4)
    rng = np.random.default_rng(8)
    features = rng.standard_normal((5, 3)) + 0.5
    labels = rng.integers(0, 4, size=5)
    _, grad, _ = prototypes.loss(features, labels, normalize)
    numeric = finite_diff_feature_grad(
        lambda f: prototypes.loss(f, labels, normalize)[0],
        features,
    )
    assert np.allclose(grad, numeric, atol=1e-8)


def trainable_classifier(weights):
    classifier = TrainableClassifier(weights.shape[1])
    classifier.weights = weights
    return classifier


def test_trainable_ce_gradients_match_finite_differences():
    rng = np.random.default_rng(9)
    weights = rng.standard_normal((4, 3))
    features = rng.standard_normal((6, 3))
    labels = rng.integers(0, 4, size=6)
    loss, dfeat, dweights = trainable_classifier(weights).loss(features, labels, False)
    numeric_f = finite_diff_feature_grad(
        lambda f: trainable_classifier(weights).loss(f, labels, False)[0], features
    )
    numeric_w = finite_diff_feature_grad(
        lambda w: trainable_classifier(w).loss(features, labels, False)[0], weights
    )
    assert np.allclose(dfeat, numeric_f, atol=1e-8)
    assert np.allclose(dweights, numeric_w, atol=1e-8)


def test_distillation_identical_orthogonal_antiparallel():
    a = np.array([[1.0, 2.0, 3.0]])
    value, _ = feature_distillation_loss(a, a.copy())
    assert value == 0.0
    value, _ = feature_distillation_loss(np.array([[1.0, 0.0]]), np.array([[0.0, 2.0]]))
    assert value == pytest.approx(1.0, abs=1e-12)
    value, _ = feature_distillation_loss(np.array([[1.0, 1.0]]), np.array([[-3.0, -3.0]]))
    assert value == pytest.approx(2.0, abs=1e-12)


def test_distillation_zero_norm_reports_index():
    new = np.array([[1.0, 0.0], [0.0, 0.0]])
    old = np.ones((2, 2))
    with pytest.raises(DegenerateFeatureError, match="index 1"):
        feature_distillation_loss(new, old)
    with pytest.raises(DegenerateFeatureError):
        feature_distillation_loss(old, new)


def test_distillation_over_no_rows_is_a_data_error():
    with pytest.raises(DataError, match="empty sample set"):
        feature_distillation_loss(np.zeros((0, 2)), np.zeros((0, 2)))


def test_distillation_gradients_match_finite_differences():
    rng = np.random.default_rng(10)
    new = rng.standard_normal((4, 3)) + 0.2
    old = rng.standard_normal((4, 3)) + 0.1
    _, grad = feature_distillation_loss(new, old)
    numeric = finite_diff_feature_grad(
        lambda f: feature_distillation_loss(f, old)[0], new
    )
    assert np.allclose(grad, numeric, atol=1e-8)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(1, 6),
    st.integers(2, 5),
    st.integers(0, 2**32 - 1),
)
def test_distillation_value_always_in_bounds(rows, dim, seed):
    rng = np.random.default_rng(seed)
    new = rng.standard_normal((rows, dim))
    old = rng.standard_normal((rows, dim))
    if np.any(np.linalg.norm(new, axis=1) == 0) or np.any(np.linalg.norm(old, axis=1) == 0):
        return
    value, _ = feature_distillation_loss(new, old)
    assert 0.0 <= value <= 2.0


def test_lambda_for_task_values():
    assert lambda_for_task(5.0, 3, 3) == pytest.approx(5.0)
    assert lambda_for_task(5.0, 10, 40) == pytest.approx(2.5)
    assert lambda_for_task(5.0, 10, 0) == 0.0
    with pytest.raises(ConfigError, match="lambda_base"):
        lambda_for_task(-1.0, 1, 1)
    with pytest.raises(ConfigError, match="new_class_count"):
        lambda_for_task(5.0, 0, 1)
    with pytest.raises(ConfigError, match="old_class_count"):
        lambda_for_task(5.0, 1, -1)


def make_batch(rng, n=10, dim=6, capacity=4, memory_fraction=0.4):
    inputs = rng.standard_normal((n, dim))
    labels = rng.integers(0, capacity, size=n)
    flags = rng.random(n) < memory_fraction
    flags[0] = True  # keep at least one of each kind
    flags[-1] = False
    return LabeledBatch(inputs=inputs, labels=labels, from_memory=flags)


def small_models(seed_a=1, seed_b=2):
    cfg_a = ModelConfig(
        input_dim=6, hidden_layers=(5,), feature_dim=3, nonlinearity="relu", seed=seed_a
    )
    cfg_b = ModelConfig(
        input_dim=6, hidden_layers=(5,), feature_dim=3, nonlinearity="relu", seed=seed_b
    )
    return init_model(cfg_a), init_model(cfg_b)


def test_combined_with_zero_lambda_equals_plain_ce():
    prototypes = build_simplex(4)
    current, _ = small_models()
    batch = make_batch(np.random.default_rng(1))
    report, _ = combined_loss(batch, current, None, prototypes, 0.0)
    feats = extract_features(current, batch.inputs)
    ce, _, _ = prototypes.loss(feats, batch.labels, False)
    assert report.total == ce
    assert report.fd_value == 0.0
    assert report.fd_count == 0


def test_combined_with_identical_models_has_zero_distillation():
    prototypes = build_simplex(4)
    current, _ = small_models()
    previous = current.copy().freeze()
    batch = make_batch(np.random.default_rng(2))
    report, _ = combined_loss(batch, current, previous, prototypes, 2.0)
    assert report.fd_value == 0.0
    assert report.total == report.ce_value


def test_combined_composes_from_standalone_terms():
    prototypes = build_simplex(4)
    current, previous = small_models()
    batch = make_batch(np.random.default_rng(3))
    lam = 2.5
    report, _ = combined_loss(batch, current, previous, prototypes, lam)
    feats = extract_features(current, batch.inputs)
    ce, _, _ = prototypes.loss(feats, batch.labels, False)
    old = extract_features(previous, batch.inputs[batch.from_memory])
    fd, _ = feature_distillation_loss(feats[batch.from_memory], old)
    assert report.ce_value == pytest.approx(ce, abs=1e-12)
    assert report.fd_value == pytest.approx(fd, abs=1e-12)
    assert report.total == pytest.approx(ce + lam * fd, abs=1e-12)
    assert report.total == report.ce_value + lam * report.fd_value


def test_positive_lambda_without_previous_model_rejected():
    prototypes = build_simplex(4)
    current, _ = small_models()
    batch = make_batch(np.random.default_rng(4))
    with pytest.raises(ConfigError):
        combined_loss(batch, current, None, prototypes, 1.0)


def test_distillation_ignores_current_task_samples():
    prototypes = build_simplex(4)
    current, previous = small_models()
    batch = make_batch(np.random.default_rng(5))
    report, _ = combined_loss(batch, current, previous, prototypes, 1.5)
    perturbed_inputs = batch.inputs.copy()
    perturbed_inputs[~batch.from_memory] += 10.0
    perturbed = LabeledBatch(perturbed_inputs, batch.labels, batch.from_memory)
    report2, _ = combined_loss(perturbed, current, previous, prototypes, 1.5)
    assert report2.fd_value == report.fd_value  # exactly unchanged


def test_batch_teacher_rows_follow_take_and_must_match_the_rows():
    batch = make_batch(np.random.default_rng(8))
    teacher = np.arange(len(batch) * 3, dtype=np.float64).reshape(len(batch), 3)
    taken = LabeledBatch(batch.inputs, batch.labels, batch.from_memory, teacher).take([4, 1])
    assert np.array_equal(taken.teacher, teacher[[4, 1]])
    assert batch.take([4, 1]).teacher is None
    with pytest.raises(DataError):
        LabeledBatch(batch.inputs, batch.labels, batch.from_memory, teacher[:-1])


def test_full_batch_scope_covers_everything():
    prototypes = build_simplex(4)
    current, previous = small_models()
    batch = make_batch(np.random.default_rng(6))
    report, _ = combined_loss(batch, current, previous, prototypes, 1.0, fd_scope="all")
    assert report.fd_count == len(batch)


def test_previous_model_is_never_touched():
    prototypes = build_simplex(4)
    current, previous = small_models()
    before = parameter_checksum(previous)
    batch = make_batch(np.random.default_rng(7))
    for _ in range(5):
        combined_loss(batch, current, previous, prototypes, 3.0)
    assert parameter_checksum(previous) == before


# Reference formulas: the loss and distillation as first written, with
# np.linalg.norm, np.mean and the full log-probability array. The package
# computes the same floating-point operations in the same order with fewer
# calls and temporaries, so every output must be bitwise equal to these.


def reference_softmax_cross_entropy(features, labels, weight_matrix, normalize, want_weights):
    n = len(features)
    if normalize:
        norms = np.linalg.norm(features, axis=1)
        effective = features / norms[:, None]
    else:
        effective = features
    logits = effective @ weight_matrix.T
    shift = logits.max(axis=1, keepdims=True)
    exp = np.exp(logits - shift)
    denom = exp.sum(axis=1, keepdims=True)
    log_probs = (logits - shift) - np.log(denom)
    loss = -float(np.mean(log_probs[np.arange(n), labels]))
    dlogits = exp / denom
    dlogits[np.arange(n), labels] -= 1.0
    dlogits /= n
    deffective = dlogits @ weight_matrix
    dweights = dlogits.T @ effective if want_weights else None
    if normalize:
        radial = np.sum(deffective * effective, axis=1, keepdims=True)
        return loss, (deffective - radial * effective) / norms[:, None], dweights
    return loss, deffective, dweights


def reference_feature_distillation(new, old):
    n_norms = np.linalg.norm(new, axis=1)
    n_unit = new / n_norms[:, None]
    o_unit = old / np.linalg.norm(old, axis=1)[:, None]
    cos = np.clip(np.sum(n_unit * o_unit, axis=1), -1.0, 1.0)
    cos = np.where(np.all(new == old, axis=1), 1.0, cos)
    value = float(np.mean(1.0 - cos))
    return value, -(o_unit - cos[:, None] * n_unit) / (n_norms[:, None] * len(new))


def draw_rows(rng, rows, dim, scale):
    """Gaussian rows times ``scale``, none of them zero."""
    x = rng.standard_normal((rows, dim)) * scale
    x[np.linalg.norm(x, axis=1) == 0.0, 0] = scale
    return x


def bitwise_equal(a, b):
    return (a is None and b is None) or np.array_equal(a, b)


REFERENCE_CASES = dict(
    rows=st.integers(1, 40),
    dim=st.integers(1, 12),
    seed=st.integers(0, 2**32 - 1),
    scale=st.sampled_from([1.0, 1000.0]),  # x1000 puts logits deep in exp's tail
    normalize=st.booleans(),
    mode=st.sampled_from(["fixed_simplex", "trainable"]),
)


def classifier_for(mode, dim, rng):
    if mode == "fixed_simplex":
        return build_simplex(dim + 1)
    return trainable_classifier(rng.standard_normal((int(rng.integers(1, 8)), dim)))


@settings(max_examples=200, deadline=None)
@given(**REFERENCE_CASES)
def test_cross_entropy_is_bitwise_the_reference(rows, dim, seed, scale, normalize, mode):
    rng = np.random.default_rng(seed)
    classifier = classifier_for(mode, dim, rng)
    weight_matrix = classifier.vertices if mode == "fixed_simplex" else classifier.weights
    features = draw_rows(rng, rows, dim, scale)
    labels = rng.integers(0, len(weight_matrix), size=rows)
    got = classifier.loss(features, labels, normalize)
    want = reference_softmax_cross_entropy(
        features, labels, weight_matrix, normalize, mode == "trainable"
    )
    assert got[0] == want[0]
    assert bitwise_equal(got[1], want[1])
    assert bitwise_equal(got[2], want[2])


@settings(max_examples=200, deadline=None)
@given(
    rows=st.integers(1, 40),
    dim=st.integers(1, 12),
    seed=st.integers(0, 2**32 - 1),
    scale=st.sampled_from([1.0, 1000.0]),
    same=st.sampled_from(["none", "some", "all"]),
)
def test_distillation_is_bitwise_the_reference(rows, dim, seed, scale, same):
    rng = np.random.default_rng(seed)
    new = draw_rows(rng, rows, dim, scale)
    old = draw_rows(rng, rows, dim, scale)
    copied = {"none": [], "some": rng.random(rows) < 0.5, "all": slice(None)}[same]
    old[copied] = new[copied]  # bitwise-identical rows have cosine exactly 1
    value, dnew = feature_distillation_loss(new, old)
    want_value, want_dnew = reference_feature_distillation(new, old)
    assert value == want_value
    assert np.array_equal(dnew, want_dnew)


@settings(max_examples=100, deadline=None)
@given(**REFERENCE_CASES)
def test_training_step_gradients_are_bitwise_the_reference(
    rows, dim, seed, scale, normalize, mode
):
    rng = np.random.default_rng(seed)
    classifier = classifier_for(mode, dim, rng)
    weight_matrix = classifier.vertices if mode == "fixed_simplex" else classifier.weights
    # tanh: a relu layer can zero a whole feature row, which normalization refuses.
    config = ModelConfig(5, (7,), dim, nonlinearity="tanh", seed=seed % 1000)
    current = init_model(config)
    previous = init_model(dataclasses.replace(config, seed=config.seed + 1)).freeze()
    inputs = rng.standard_normal((rows, 5)) * scale
    labels = rng.integers(0, len(weight_matrix), size=rows)
    memory = rng.random(rows) < 0.5
    teacher = extract_features(previous, inputs)
    batch = LabeledBatch(inputs, labels, memory, teacher)
    report, grads = combined_loss(batch, current, previous, classifier, 2.5, "memory", normalize)

    features, cache = forward_features(current, inputs)
    ce, dfeatures, dweights = reference_softmax_cross_entropy(
        features, labels, weight_matrix, normalize, mode == "trainable"
    )
    fd = 0.0
    if memory.any():
        fd, dfd = reference_feature_distillation(features[memory], teacher[memory])
        dfeatures[memory] += 2.5 * dfd
    want = backprop_feature_grads(current, cache, dfeatures)
    assert (report.ce_value, report.fd_value, report.fd_count) == (ce, fd, int(memory.sum()))
    assert report.total == ce + 2.5 * fd
    for got_g, want_g in zip(grads.weights + grads.biases, want.weights + want.biases):
        assert np.array_equal(got_g, want_g)
    assert bitwise_equal(grads.classifier, dweights)


@pytest.mark.parametrize("side", ["new", "old"])
@pytest.mark.parametrize("row", [0, 2, 4])
def test_distillation_zero_norm_row_is_named_by_index(side, row):
    rows = {"new": np.ones((5, 3)), "old": np.full((5, 3), 2.0)}
    rows[side][row] = 0.0
    with pytest.raises(DegenerateFeatureError, match=rf"sample index {row}$"):
        feature_distillation_loss(rows["new"], rows["old"])


def test_batch_refuses_memory_flags_it_used_to_cast():
    # Before, from_memory=[2, 0] was held as [True, False].
    with pytest.raises(DataError, match="from_memory must be bools, or integers with none other"):
        LabeledBatch(np.ones((2, 3)), [1, 0], [2, 0])
    assert LabeledBatch(np.ones((2, 3)), [1, 0], [1, 0]).from_memory.tolist() == [True, False]


@pytest.mark.parametrize("labels", [[0.9, 1.0], [True, False], ["0", "1"]])
def test_cross_entropy_refuses_labels_it_used_to_truncate(labels):
    # Before, the label 0.9 was truncated to 0.
    with pytest.raises(DataError, match="labels must be integers that fit int64"):
        build_simplex(3).loss(np.ones((2, 2)), labels, False)


def test_a_batch_leaves_its_labels_to_the_loss():
    batch = LabeledBatch(np.ones((2, 3)), [0.9, 1.0], [False, False])
    assert batch.labels.tolist() == [0.9, 1.0]
    model = init_model(ModelConfig(3, (4,), 2, "tanh", 0))
    with pytest.raises(DataError, match="labels must be integers that fit int64, got float64"):
        combined_loss(batch, model, None, build_simplex(3), 0.0)
