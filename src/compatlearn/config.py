"""One table of config rules, applied by the command line and the typed configs alike.

``validate_config`` checks a JSON config against ``_SCHEMA``; ``ModelConfig``,
``TrainingHyperparams``, ``SyntheticSpec`` and ``ExperimentConfig`` check their
fields against the same entries through ``check_fields``, so a Python caller
gets the command line's refusal and message. Numbers are ``numbers.Integral``
or ``numbers.Real`` but not ``bool``, so numpy scalars pass as JSON's do.
"""

import json
import math
import numbers
import sys
from pathlib import Path

from .errors import ConfigError, DataError

NONLINEARITIES = ("relu", "tanh")
CLASSIFIER_MODES = ("fixed_simplex", "trainable")
FD_MODES = ("memory_only", "full_batch", "off")


def _is_int(v):
    return isinstance(v, numbers.Integral) and not isinstance(v, bool)


def _is_num(v):
    # False for NaN, infinity and integers too large to become a float.
    real = isinstance(v, numbers.Real) and not isinstance(v, bool)
    return real and (abs(v) <= sys.float_info.max if _is_int(v) else math.isfinite(v))


def _int_list(v):
    return isinstance(v, (list, tuple)) and all(_is_int(x) for x in v)


def _is_seed(v):
    return _is_int(v) and v >= 0  # numpy's default_rng refuses a negative seed


# The config schema, {section: {key: (default, check)}}. The defaults are a
# desk-scale preset. The synthetic dataset is a fixed benchmark: 20 training
# classes (capacity 20, feature dimension 19) plus 10 held-out evaluation
# classes, class means on an 8-dimensional subsphere of the 64-dimensional
# input space so that classes share structure the way natural data does.
# Rehearsal keeps 20 samples per class and the distillation weight base is 5.
# cli.experiment_components builds the typed configs from the sections by
# name: training holds exactly TrainingHyperparams' fields, trainer the rest
# of ExperimentConfig's, model ModelConfig's besides input_dim, pairs the
# arguments of generate_pairs, and data SyntheticSpec's (sigma for
# cluster_sigma) plus csv_path and the task split. A csv_path (a non-empty
# string) selects the CSV reader; None selects the synthetic dataset. The
# preset is valid only as a whole (a lone intrinsic_dim 8 breaks input_dim 4),
# so the typed configs and the seeds of data preparation declare no defaults.
_SCHEMA = {
    "data": {
        "csv_path": (None, lambda v: v is None or (isinstance(v, str) and v != "")),
        "num_classes": (30, lambda v: _is_int(v) and v >= 2),
        "samples_per_class": (60, lambda v: _is_int(v) and v >= 1),
        "input_dim": (64, lambda v: _is_int(v) and v >= 1),
        "sigma": (0.4, lambda v: _is_num(v) and v > 0),
        "intrinsic_dim": (8, lambda v: v is None or (_is_int(v) and v >= 1)),
        "mean_seed": (101, _is_seed),
        "noise_seed": (201, _is_seed),
        "eval_classes": (10, lambda v: _is_int(v) and v >= 2),
        "num_tasks": (2, lambda v: _is_int(v) and v >= 1),
        "split_seed": (301, _is_seed),
    },
    "model": {
        "hidden_layers": ([64], lambda v: _int_list(v) and all(h >= 1 for h in v)),
        "feature_dim": (None, lambda v: v is None or (_is_int(v) and v >= 1)),
        "nonlinearity": ("tanh", lambda v: v in NONLINEARITIES),
        "seed": (1, _is_seed),
    },
    "training": {
        "learning_rate": (0.02, lambda v: _is_num(v) and v > 0),
        # Strictly increasing, so each milestone decays the rate once.
        "lr_milestones": ([8, 12], lambda v: _int_list(v) and list(v) == sorted(set(v))),
        "lr_decay_factor": (0.1, lambda v: _is_num(v) and v > 0),
        "weight_decay": (0.0002, lambda v: _is_num(v) and v >= 0),
        "momentum": (0.9, lambda v: _is_num(v) and 0 <= v < 1),
        "epochs_per_task": (14, lambda v: _is_int(v) and v >= 1),
        "batch_size": (32, lambda v: _is_int(v) and v >= 1),
        "lambda_base": (5.0, lambda v: _is_num(v) and v >= 0),
    },
    "memory": {"per_class": (20, lambda v: _is_int(v) and v >= 0)},
    "trainer": {
        "classifier_mode": ("fixed_simplex", lambda v: v in CLASSIFIER_MODES),
        "fd_mode": ("memory_only", lambda v: v in FD_MODES),
        "train_seed": (11, _is_seed),
        "normalize_features": (True, lambda v: isinstance(v, bool)),
    },
    "pairs": {
        "num_pairs": (6000, lambda v: _is_int(v) and v >= 2 and v % 2 == 0),
        "seed": (401, _is_seed),
    },
}

# {section: (key, other key, check(value, other value))}, checked wherever both
# keys are given: the means' subspace fits the input space; milestones < epochs.
_PAIR_RULES = {
    "data": ("intrinsic_dim", "input_dim", lambda v, dim: v is None or v <= dim),
    "training": ("lr_milestones", "epochs_per_task", lambda ms, n: all(m < n for m in ms)),
}

DEFAULT_CONFIG = {
    section: {key: default for key, (default, _) in keys.items()}
    for section, keys in _SCHEMA.items()
}


def check_fields(section: str, values: dict) -> None:
    """Refuse the first of ``values``, keys of config ``section``, that breaks a rule."""
    for key, value in values.items():
        if not _SCHEMA[section][key][1](value):
            raise ConfigError(f"invalid value for {section}.{key}: {value!r}")
    key, other, check = _PAIR_RULES.get(section, (None, None, None))
    if key in values and other in values and not check(values[key], values[other]):
        bound = f"{section}.{other} is {values[other]!r}"
        raise ConfigError(f"invalid value for {section}.{key}: {values[key]!r} ({bound})")


def check_size(*shapes) -> None:
    """A data error for a float64 array of ``shapes`` too large for numpy even to describe."""
    for shape in [tuple(map(int, shape)) for shape in shapes]:
        if math.prod(shape) * 8 > sys.maxsize:  # numpy raises ValueError, not MemoryError
            raise DataError(f"Unable to allocate an array of {shape} float64 values")


def validate_config(user: dict) -> dict:
    """Merge a user config over the defaults, rejecting any unknown key or broken rule."""
    if not isinstance(user, dict):
        raise ConfigError("config root must be a JSON object")
    merged = {section: dict(values) for section, values in DEFAULT_CONFIG.items()}
    for section, values in user.items():
        if section not in merged:
            raise ConfigError(f"unknown config section {section!r}")
        if not isinstance(values, dict):
            raise ConfigError(f"config section {section!r} must be an object")
        for key, value in values.items():
            if key not in merged[section]:
                raise ConfigError(f"unknown config key {section}.{key}")
            merged[section][key] = value
    for section, values in merged.items():
        check_fields(section, values)
    data = merged["data"]
    if data["csv_path"] is None and data["eval_classes"] + data["num_tasks"] > data["num_classes"]:
        raise ConfigError("data.num_classes is less than data.eval_classes + data.num_tasks")
    return merged


def _unique_keys(pairs):
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise ConfigError(f"config key {key!r} is given twice")
        obj[key] = value
    return obj


def load_config(path) -> dict:
    try:
        raw = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    try:
        user = json.loads(raw, object_pairs_hook=_unique_keys)
    except (ValueError, RecursionError) as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
    return validate_config(user)
