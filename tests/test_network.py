import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from compatlearn.errors import ConfigError, DataError, DivergenceError
from compatlearn.geometry import build_simplex
from compatlearn.network import (
    ModelConfig,
    ParamGrads,
    TrainingHyperparams,
    apply_gradients,
    backprop_feature_grads,
    extract_features,
    forward_features,
    gradient_check,
    init_model,
    sgd_update,
)


def small_config(seed=0, nonlinearity="tanh"):
    return ModelConfig(
        input_dim=6, hidden_layers=(5, 4), feature_dim=3, nonlinearity=nonlinearity, seed=seed
    )


def zero_grads(state):
    return ParamGrads(
        weights=[np.zeros_like(w) for w in state.weights],
        biases=[np.zeros_like(b) for b in state.biases],
    )


def test_same_seed_same_parameters():
    a = init_model(small_config(seed=7))
    b = init_model(small_config(seed=7))
    assert a.parameter_checksum() == b.parameter_checksum()


def test_different_seed_different_parameters():
    a = init_model(small_config(seed=7))
    b = init_model(small_config(seed=8))
    assert a.parameter_checksum() != b.parameter_checksum()


def test_no_hidden_layers_is_a_linear_map():
    cfg = ModelConfig(input_dim=4, hidden_layers=(), feature_dim=2, seed=0)
    state = init_model(cfg)
    x = np.random.default_rng(0).standard_normal((3, 4))
    feats = extract_features(state, x)
    assert np.allclose(feats, x @ state.weights[0] + state.biases[0])


def test_empty_batch_gives_empty_output():
    state = init_model(small_config())
    feats = extract_features(state, np.empty((0, 6)))
    assert feats.shape == (0, 3)


def test_equal_inputs_give_equal_features():
    state = init_model(small_config())
    row = np.random.default_rng(1).standard_normal(6)
    feats = extract_features(state, np.stack([row, row]))
    assert np.array_equal(feats[0], feats[1])


def test_zero_parameters_give_zero_features():
    state = init_model(small_config())
    for w in state.weights:
        w[:] = 0.0
    for b in state.biases:
        b[:] = 0.0
    feats = extract_features(state, np.random.default_rng(2).standard_normal((4, 6)))
    assert np.array_equal(feats, np.zeros((4, 3)))


def test_extraction_is_pure():
    state = init_model(small_config())
    before = state.parameter_checksum()
    extract_features(state, np.random.default_rng(3).standard_normal((8, 6)))
    assert state.parameter_checksum() == before


def test_bad_input_dimension_rejected():
    state = init_model(small_config())
    with pytest.raises(DataError):
        extract_features(state, np.zeros((2, 5)))
    with pytest.raises(DataError):
        extract_features(state, np.array([[np.nan] * 6]))


def test_zero_gradient_step_is_identity():
    state = init_model(small_config())
    before = state.parameter_checksum()
    hp = TrainingHyperparams(learning_rate=0.1, momentum=0.0, weight_decay=0.0)
    apply_gradients(state, zero_grads(state), hp, epoch=0)
    assert state.parameter_checksum() == before
    assert state.step == 1


def test_single_step_matches_definition():
    state = init_model(small_config(seed=5))
    hp = TrainingHyperparams(learning_rate=0.2, momentum=0.0, weight_decay=0.01)
    grads = zero_grads(state)
    rng = np.random.default_rng(11)
    for g in grads.weights + grads.biases:
        g[:] = rng.standard_normal(g.shape)
    theta = [w.copy() for w in state.weights]
    bias_theta = [b.copy() for b in state.biases]
    apply_gradients(state, grads, hp, epoch=0)
    for w, w0, g in zip(state.weights, theta, grads.weights):
        assert np.allclose(w, w0 - 0.2 * (g + 0.01 * w0), atol=1e-15)
    # biases are exempt from weight decay
    for b, b0, g in zip(state.biases, bias_theta, grads.biases):
        assert np.allclose(b, b0 - 0.2 * g, atol=1e-15)


@settings(max_examples=80, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.tuples(st.integers(1, 5), st.integers(1, 5)),
    st.floats(1e-6, 10.0),
    st.floats(0.0, 0.99),
    st.one_of(st.just(0.0), st.floats(1e-8, 1.0)),
)
def test_sgd_update_is_bitwise_the_textbook_step(seed, shape, lr, momentum, weight_decay):
    rng = np.random.default_rng(seed)
    param, grad, velocity = (rng.standard_normal(shape) * 10.0 for _ in range(3))
    g = grad + weight_decay * param
    expected_v = momentum * velocity + g
    expected_p = param - lr * expected_v
    grad_before = grad.copy()
    sgd_update(param, grad, velocity, lr, momentum, weight_decay)
    assert param.tobytes() == expected_p.tobytes()
    assert velocity.tobytes() == expected_v.tobytes()
    assert grad.tobytes() == grad_before.tobytes()


def test_milestone_schedule():
    hp = TrainingHyperparams(
        learning_rate=0.1, lr_milestones=(50, 64), lr_decay_factor=0.1, epochs_per_task=70
    )
    assert hp.effective_lr(0) == pytest.approx(0.1)
    assert hp.effective_lr(49) == pytest.approx(0.1)
    assert hp.effective_lr(50) == pytest.approx(0.01)
    assert hp.effective_lr(60) == pytest.approx(0.01)
    assert hp.effective_lr(64) == pytest.approx(0.001)


def test_momentum_accumulates():
    cfg = ModelConfig(input_dim=1, hidden_layers=(), feature_dim=1, seed=0)
    state = init_model(cfg)
    state.weights[0][:] = 0.0
    hp = TrainingHyperparams(learning_rate=1.0, momentum=0.5, weight_decay=0.0)
    grads = ParamGrads(weights=[np.ones((1, 1))], biases=[np.zeros(1)])
    apply_gradients(state, grads, hp, epoch=0)  # v=1, w=-1
    apply_gradients(state, grads, hp, epoch=0)  # v=1.5, w=-2.5
    assert state.weights[0][0, 0] == pytest.approx(-2.5)


def test_non_finite_gradient_names_the_layer():
    state = init_model(small_config())
    grads = zero_grads(state)
    grads.weights[1][0, 0] = np.inf
    hp = TrainingHyperparams(learning_rate=0.1)
    with pytest.raises(DivergenceError, match=r"weights\[1\]"):
        apply_gradients(state, grads, hp, epoch=0)


@pytest.mark.parametrize(
    "name, layer, value",
    [("biases", 0, np.nan), ("weights", 1, -np.inf), ("weights", 0, 1e200), ("biases", 2, 1e200)],
    ids=["nan-bias", "minus-inf-weight", "overflowing-weight", "overflowing-bias"],
)
def test_divergent_gradient_names_its_array_and_changes_nothing(name, layer, value):
    state = init_model(small_config())
    before = state.copy()
    grads = zero_grads(state)
    getattr(grads, name)[layer][...] = value  # every entry: 1e200 squared overflows the sum
    hp = TrainingHyperparams(learning_rate=0.1)
    with np.errstate(over="ignore"), pytest.raises(DivergenceError, match=rf"{name}\[{layer}\]"):
        apply_gradients(state, grads, hp, epoch=0)
    assert state.parameter_checksum() == before.parameter_checksum()
    assert state.step == 0


def test_finite_gradient_that_fits_is_applied():
    state = init_model(small_config())
    grads = zero_grads(state)
    grads.weights[0][...] = 1e150  # squares near 1e300 still sum to a finite norm
    hp = TrainingHyperparams(learning_rate=1e-160, momentum=0.0, weight_decay=0.0)
    apply_gradients(state, grads, hp, epoch=0)
    assert state.step == 1


def test_gradient_of_the_wrong_shape_is_a_data_error():
    state = init_model(small_config())
    grads = zero_grads(state)
    grads.biases[1] = np.zeros(7)
    with pytest.raises(DataError, match=r"biases\[1\]"):
        apply_gradients(state, grads, TrainingHyperparams(learning_rate=0.1), epoch=0)


def test_invalid_hyperparams_rejected():
    with pytest.raises(ConfigError):
        TrainingHyperparams(learning_rate=0.0)
    with pytest.raises(ConfigError):
        TrainingHyperparams(learning_rate=0.1, momentum=1.0)
    with pytest.raises(ConfigError):
        TrainingHyperparams(learning_rate=0.1, lr_milestones=(5, 3), epochs_per_task=10)
    with pytest.raises(ConfigError):
        TrainingHyperparams(learning_rate=0.1, lr_milestones=(9,), epochs_per_task=9)


def ce_loss_fn(prototypes, labels):
    def fn(state, batch):
        feats, cache = forward_features(state, batch)
        loss, dfeat, _ = prototypes.loss(feats, labels, False)
        return loss, backprop_feature_grads(state, cache, dfeat)

    return fn


def textbook_features_and_grads(state, x, dfeatures):
    """The layers as formulas: z = h @ w + b, then the nonlinearity on hidden layers."""
    hs, zs, h = [], [], x
    for i, (w, b) in enumerate(zip(state.weights, state.biases)):
        hs.append(h)
        zs.append(h @ w + b)
        hidden = i < len(state.weights) - 1
        relu = state.config.nonlinearity == "relu"
        h = (np.maximum(zs[-1], 0.0) if relu else np.tanh(zs[-1])) if hidden else zs[-1]
    delta, grads = dfeatures, []
    for i in reversed(range(len(state.weights))):
        if i < len(state.weights) - 1:
            relu = state.config.nonlinearity == "relu"
            delta = delta * ((zs[i] > 0.0) if relu else (1.0 - np.tanh(zs[i]) ** 2))
        grads[:0] = [hs[i].T @ delta, delta.sum(axis=0)]
        delta = delta @ state.weights[i].T
    return h, grads


@pytest.mark.parametrize("nonlinearity", ["tanh", "relu"])
def test_forward_and_backward_are_bitwise_the_textbook_layers(nonlinearity):
    state = init_model(small_config(seed=3, nonlinearity=nonlinearity))
    rng = np.random.default_rng(4)
    x = rng.standard_normal((33, 6))
    x[0] = 0.0  # relu units at exactly zero and below it
    dfeatures = rng.standard_normal((33, 3))
    features, cache = forward_features(state, x)
    want_features, want_grads = textbook_features_and_grads(state, x, dfeatures)
    grads = backprop_feature_grads(state, cache, dfeatures)
    assert features.tobytes() == want_features.tobytes()
    got = [g for pair in zip(grads.weights, grads.biases) for g in pair]
    assert [g.tobytes() for g in got] == [g.tobytes() for g in want_grads]


def test_extraction_allocates_one_array_per_layer():
    # The forward pass keeps one activation per layer and makes no temporaries;
    # it used to keep h @ w + b and its tanh apart (and h @ w for a moment), 20 MB here.
    rows, width = 2000, 256
    state = init_model(ModelConfig(width, (width, width), width, nonlinearity="tanh"))
    x = np.random.default_rng(0).standard_normal((rows, width))
    tracemalloc.start()
    try:
        features = extract_features(state, x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    hidden = 2 * rows * width * 8  # the two hidden activations, 8 MB
    assert peak - features.nbytes < hidden + 2**20


@pytest.mark.parametrize("nonlinearity", ["tanh", "relu"])
def test_gradient_check_on_cross_entropy(nonlinearity):
    prototypes = build_simplex(4)
    cfg = ModelConfig(
        input_dim=5, hidden_layers=(6, 5), feature_dim=3, nonlinearity=nonlinearity, seed=2
    )
    state = init_model(cfg)
    rng = np.random.default_rng(4)
    batch = rng.standard_normal((6, 5))
    labels = rng.integers(0, 4, size=6)
    err = gradient_check(state, ce_loss_fn(prototypes, labels), batch, epsilon=1e-5)
    assert err < 1e-4


def test_gradient_check_constant_loss_is_zero():
    state = init_model(small_config())

    def constant(state, batch):
        return 0.5, ParamGrads(
            weights=[np.zeros_like(w) for w in state.weights],
            biases=[np.zeros_like(b) for b in state.biases],
        )

    err = gradient_check(state, constant, np.zeros((2, 6)), epsilon=1e-5)
    assert err == 0.0


def test_gradient_check_epsilon_bounds():
    state = init_model(small_config())
    fn = lambda s, b: (0.0, zero_grads(s))
    with pytest.raises(ConfigError, match="epsilon"):
        gradient_check(state, fn, np.zeros((1, 6)), epsilon=1e-2)
    with pytest.raises(ConfigError, match="epsilon"):
        gradient_check(state, fn, np.zeros((1, 6)), epsilon=1e-8)
    with pytest.raises(ConfigError, match="nonempty batch"):
        gradient_check(state, fn, np.empty((0, 6)), epsilon=1e-5)


def test_frozen_copy_is_independent_and_read_only():
    state = init_model(small_config())
    frozen = state.copy().freeze()
    with pytest.raises(ValueError):
        frozen.weights[0][0, 0] = 1.0
    state.weights[0][0, 0] += 1.0  # the live state stays writable
    assert frozen.parameter_checksum() != state.parameter_checksum()
