"""Deterministic multilayer perceptron with hand-written gradients.

The feature extractor is a fully connected network with explicit forward and
reverse passes and an SGD-with-momentum update. Everything is float64 and
seeded, so a run is reproducible to the last bit and analytic gradients match
central finite differences. Both configs check their fields against the
``config`` rule table (``ModelConfig.input_dim`` as ``data.input_dim``).

Initialization scheme (documented because reproducibility depends on it):
weights of each layer are drawn from ``uniform(-limit, +limit)`` with
``limit = sqrt(6 / (fan_in + fan_out))`` from a ``numpy.random.default_rng``
generator seeded with ``ModelConfig.seed``, layers drawn in order; biases
start at zero.
"""

import hashlib
from dataclasses import dataclass

import numpy as np

from .config import DEFAULT_CONFIG, check_fields
from .errors import ConfigError, DataError, DegenerateFeatureError, DivergenceError


@dataclass(frozen=True)
class ModelConfig:
    """Architecture plus the initialization seed."""

    input_dim: int
    hidden_layers: tuple[int, ...]
    feature_dim: int
    nonlinearity: str = "relu"
    seed: int = 0

    def __post_init__(self):
        check_fields("data", {"input_dim": self.input_dim})
        check_fields("model", {key: getattr(self, key) for key in DEFAULT_CONFIG["model"]})
        if self.feature_dim is None:  # the config's None, class capacity - 1, must be resolved
            raise ConfigError("feature_dim must be given as an integer")
        for key in ("input_dim", "feature_dim", "seed"):  # a numpy integer is no JSON int
            object.__setattr__(self, key, int(getattr(self, key)))
        object.__setattr__(self, "hidden_layers", tuple(int(h) for h in self.hidden_layers))

    def layer_sizes(self) -> list[int]:
        return [self.input_dim, *self.hidden_layers, self.feature_dim]


@dataclass(frozen=True)
class TrainingHyperparams:
    """SGD schedule: base rate decayed by a fixed factor at epoch milestones."""

    learning_rate: float
    lr_milestones: tuple[int, ...] = ()
    lr_decay_factor: float = 0.1
    weight_decay: float = 0.0
    momentum: float = 0.9
    epochs_per_task: int = 1
    batch_size: int = 32
    lambda_base: float = 0.0

    def __post_init__(self):
        check_fields("training", vars(self))
        object.__setattr__(self, "lr_milestones", tuple(int(m) for m in self.lr_milestones))

    def effective_lr(self, epoch: int) -> float:
        """Base rate times decay_factor raised to the number of passed milestones."""
        passed = sum(1 for m in self.lr_milestones if epoch >= m)
        return self.learning_rate * self.lr_decay_factor**passed


@dataclass
class ParamGrads:
    """Gradients shaped like the parameters of a FeatureExtractorState.

    ``classifier`` is the gradient of a trainable classifier's rows, or None.
    """

    weights: list[np.ndarray]
    biases: list[np.ndarray]
    classifier: np.ndarray | None = None


class FeatureExtractorState:
    """Parameters and optimizer state of one feature extractor.

    Single writer: the training loop mutates it in place. A frozen copy
    (``copy()`` then ``freeze()``) is safe for unrestricted concurrent reads.
    """

    __slots__ = ("config", "weights", "biases", "velocity_w", "velocity_b", "step")

    def __init__(self, config, weights, biases, velocity_w, velocity_b, step=0):
        self.config = config
        self.weights = weights
        self.biases = biases
        self.velocity_w = velocity_w
        self.velocity_b = velocity_b
        self.step = step

    def copy(self) -> "FeatureExtractorState":
        return FeatureExtractorState(
            self.config,
            [w.copy() for w in self.weights],
            [b.copy() for b in self.biases],
            [v.copy() for v in self.velocity_w],
            [v.copy() for v in self.velocity_b],
            self.step,
        )

    def freeze(self) -> "FeatureExtractorState":
        for arr in (*self.weights, *self.biases, *self.velocity_w, *self.velocity_b):
            arr.setflags(write=False)
        return self

    def reset_optimizer(self) -> None:
        self.velocity_w = [np.zeros_like(w) for w in self.weights]
        self.velocity_b = [np.zeros_like(b) for b in self.biases]

    def all_finite(self) -> bool:
        return all(
            np.all(np.isfinite(a)) for a in (*self.weights, *self.biases)
        )

    def parameter_checksum(self) -> str:
        """SHA-256 over the raw parameter bytes (weights and biases only)."""
        h = hashlib.sha256()
        for arr in (*self.weights, *self.biases):
            h.update(arr.tobytes())
        return h.hexdigest()


def init_model(config: ModelConfig) -> FeatureExtractorState:
    """Build a freshly initialized state from a config, for any feature dimension."""
    rng = np.random.default_rng(config.seed)
    sizes = config.layer_sizes()
    weights, biases = [], []
    for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
        limit = np.sqrt(6.0 / (fan_in + fan_out))
        weights.append(rng.uniform(-limit, limit, size=(fan_in, fan_out)).astype(np.float64))
        biases.append(np.zeros(fan_out, dtype=np.float64))
    velocity_w = [np.zeros_like(w) for w in weights]
    velocity_b = [np.zeros_like(b) for b in biases]
    return FeatureExtractorState(config, weights, biases, velocity_w, velocity_b, step=0)


def _as_input_matrix(state: FeatureExtractorState, batch) -> np.ndarray:
    x = np.asarray(batch, dtype=np.float64)
    if x.ndim == 1 and x.size == 0:
        x = x.reshape(0, state.config.input_dim)
    if x.ndim != 2 or x.shape[1] != state.config.input_dim:
        raise DataError(
            f"expected inputs of dimension {state.config.input_dim}, got shape {x.shape}"
        )
    if x.size and not np.all(np.isfinite(x)):
        raise DataError("non-finite values in input batch")
    return x


def forward_features(state: FeatureExtractorState, batch) -> tuple[np.ndarray, list]:
    """Forward pass returning features and the cache needed for the reverse pass.

    Hidden layers apply the configured nonlinearity; the final layer is linear.
    Each layer computes ``h @ w + b`` and then its nonlinearity in one array, and
    the cache holds one ``(input, activation)`` pair per layer.
    """
    h = _as_input_matrix(state, batch)
    nl = state.config.nonlinearity
    cache = []
    last = len(state.weights) - 1
    for i, (w, b) in enumerate(zip(state.weights, state.biases)):
        a = h @ w
        a += b
        if i < last and nl == "relu":
            np.maximum(a, 0.0, out=a)
        elif i < last:
            np.tanh(a, out=a)
        cache.append((h, a))
        h = a
    return h, cache


def extract_features(state: FeatureExtractorState, batch) -> np.ndarray:
    """Map a batch of inputs to feature vectors. Pure function of (state, batch)."""
    features, _ = forward_features(state, batch)
    return features


def row_norms(x: np.ndarray) -> np.ndarray:
    """Euclidean row norms of a float array by ``np.linalg.norm``'s formula, so its bits."""
    return np.sqrt(np.add.reduce(x * x, axis=1))


def feature_norms(features: np.ndarray, describe) -> np.ndarray:
    """Row norms, the divisors of a cosine score.

    A zero or non-finite norm raises ``DegenerateFeatureError`` naming ``describe(row)``.
    """
    norms = row_norms(features)
    if norms.min(initial=np.inf) > 0.0 and norms.max(initial=0.0) < np.inf:  # NaN fails it
        return norms
    for kind, bad in (("zero-norm", norms == 0.0), ("non-finite", ~np.isfinite(norms))):
        if bad.any():
            raise DegenerateFeatureError(f"{kind} {describe(np.flatnonzero(bad)[0])}")


def backprop_feature_grads(
    state: FeatureExtractorState, cache: list, dfeatures: np.ndarray
) -> ParamGrads:
    """Reverse pass: map d(loss)/d(features) to parameter gradients."""
    nl = state.config.nonlinearity
    last = len(state.weights) - 1
    dweights = [None] * len(state.weights)
    dbiases = [None] * len(state.biases)
    delta = np.asarray(dfeatures, dtype=np.float64)
    for i in range(last, -1, -1):
        h_in, a = cache[i]
        if i < last:
            if nl == "relu":
                delta = delta * (a > 0.0)  # max(z, 0) > 0 exactly where z > 0
            else:
                delta = delta * (1.0 - a**2)
        dweights[i] = h_in.T @ delta
        dbiases[i] = delta.sum(axis=0)
        if i > 0:
            delta = delta @ state.weights[i].T
    return ParamGrads(weights=dweights, biases=dbiases)


def sgd_update(
    param: np.ndarray,
    grad: np.ndarray,
    velocity: np.ndarray,
    lr: float,
    momentum: float,
    weight_decay: float,
) -> None:
    """One in-place SGD step: v <- momentum*v + (g + wd*p); p <- p - lr*v.

    Weight decay is applied here rather than inside the loss. The step makes
    one temporary the size of ``param`` and reuses it for ``lr*v``; it runs
    the formula's operations in the formula's order, so the result is
    bitwise that of the formula.
    """
    step = np.multiply(param, weight_decay)
    step += grad
    velocity *= momentum
    velocity += step
    np.multiply(velocity, lr, out=step)
    param -= step


def check_gradient(g: np.ndarray, param: np.ndarray, name: str) -> None:
    """Refuse a gradient that ``param``, called ``name``, cannot take.

    Another shape is a ``DataError``, a non-finite squared norm a ``DivergenceError``.
    One dot product sees every NaN or infinite entry. Stricter than an entry-wise
    test, it also fails a finite gradient whose squares overflow (entries ~1e154 up).
    """
    if g.shape != param.shape:
        raise DataError(f"gradient shape {g.shape} does not match {name} {param.shape}")
    flat = g.ravel()
    if not flat @ flat < np.inf:  # False for NaN as well
        raise DivergenceError(f"non-finite gradient norm in {name}")


def apply_gradients(
    state: FeatureExtractorState,
    grads: ParamGrads,
    hyperparams: TrainingHyperparams,
    epoch: int,
) -> FeatureExtractorState:
    """Apply one SGD-with-momentum step at the milestone-scheduled learning rate."""
    for name in ("weights", "biases"):
        for i, (g, param) in enumerate(zip(getattr(grads, name), getattr(state, name))):
            check_gradient(g, param, f"{name}[{i}]")
    lr = hyperparams.effective_lr(epoch)
    for w, g, v in zip(state.weights, grads.weights, state.velocity_w):
        sgd_update(w, g, v, lr, hyperparams.momentum, hyperparams.weight_decay)
    for b, g, v in zip(state.biases, grads.biases, state.velocity_b):
        sgd_update(b, g, v, lr, hyperparams.momentum, 0.0)
    state.step += 1
    return state


def gradient_check(
    state: FeatureExtractorState,
    loss_fn,
    batch,
    epsilon: float = 1e-5,
    sample_size: int = 200,
    seed: int = 0,
) -> float:
    """Compare analytic parameter gradients against central finite differences.

    ``loss_fn(state, batch)`` must return ``(loss_value, ParamGrads)``. A random
    subsample of parameter coordinates (all of them if the model is smaller
    than ``sample_size``) is perturbed by ``+/- epsilon`` and the resulting
    two-sided difference quotient is compared with the analytic gradient.
    Returns the maximum relative error over the sampled coordinates. Purely
    diagnostic: never raises on a bad gradient, only on misuse.
    """
    if not 1e-7 <= epsilon <= 1e-3:
        raise ConfigError(f"epsilon must be in [1e-7, 1e-3], got {epsilon}")
    batch_arr = np.asarray(batch, dtype=np.float64)
    if batch_arr.size == 0:
        raise ConfigError("gradient_check requires a nonempty batch")

    _, analytic = loss_fn(state, batch_arr)
    probe = state.copy()

    coords = []
    for name in ("weights", "biases"):
        for layer, arr in enumerate(getattr(probe, name)):
            coords.extend((name, layer, flat) for flat in range(arr.size))
    rng = np.random.default_rng(seed)
    if len(coords) > sample_size:
        picked = rng.choice(len(coords), size=sample_size, replace=False)
        coords = [coords[i] for i in picked]

    max_rel = 0.0
    for name, layer, flat in coords:
        arr = getattr(probe, name)[layer]
        original = arr.flat[flat]
        arr.flat[flat] = original + epsilon
        loss_plus, _ = loss_fn(probe, batch_arr)
        arr.flat[flat] = original - epsilon
        loss_minus, _ = loss_fn(probe, batch_arr)
        arr.flat[flat] = original
        numeric = (loss_plus - loss_minus) / (2.0 * epsilon)
        a = getattr(analytic, name)[layer].flat[flat]
        max_rel = max(max_rel, abs(a - numeric) / max(abs(a), abs(numeric), 1e-3))
    return max_rel
