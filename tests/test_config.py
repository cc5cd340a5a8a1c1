import dataclasses
import inspect

import numpy as np
import pytest

from compatlearn import cli
from compatlearn.config import DEFAULT_CONFIG, check_fields, validate_config
from compatlearn.data import SyntheticSpec, generate_pairs, make_synthetic_tasks, split_tasks
from compatlearn.errors import ConfigError
from compatlearn.network import ModelConfig, TrainingHyperparams
from compatlearn.trainer import ExperimentConfig


def model(**fields):
    base = dict(input_dim=64, hidden_layers=[64], feature_dim=19, nonlinearity="tanh", seed=1)
    return ModelConfig(**{**base, **fields})


def hyperparams(**fields):
    return TrainingHyperparams(**{**DEFAULT_CONFIG["training"], **fields})


def spec(**fields):
    data = DEFAULT_CONFIG["data"]
    keys = (
        "num_classes", "samples_per_class", "input_dim", "intrinsic_dim", "mean_seed", "noise_seed"
    )
    base = {"cluster_sigma": data["sigma"], **{key: data[key] for key in keys}}
    return SyntheticSpec(**{**base, **fields})


def experiment(**fields):
    base = dict(model=model(), hyperparams=hyperparams(), memory_per_class=20)
    return ExperimentConfig(**{**base, **DEFAULT_CONFIG["trainer"], **fields})


# (build the typed config from one field, its config section and key, the value)
LIBRARY_CASES = [
    (lambda v: model(seed=v), "model", "seed", -1),
    (lambda v: model(hidden_layers=v), "model", "hidden_layers", [0]),
    (lambda v: model(nonlinearity=v), "model", "nonlinearity", "sigmoid"),
    (lambda v: spec(mean_seed=v), "data", "mean_seed", -1),
    (lambda v: spec(num_classes=v), "data", "num_classes", 2.5),
    (lambda v: spec(cluster_sigma=v), "data", "sigma", 0.0),
    (lambda v: spec(intrinsic_dim=v), "data", "intrinsic_dim", 100),  # input_dim is 64
    (lambda v: experiment(normalize_features=v), "trainer", "normalize_features", "no"),
    (lambda v: experiment(train_seed=v), "trainer", "train_seed", -1),
    (lambda v: experiment(fd_mode=v), "trainer", "fd_mode", "everywhere"),
    (lambda v: hyperparams(batch_size=v), "training", "batch_size", True),
    (lambda v: hyperparams(epochs_per_task=v), "training", "epochs_per_task", 2.5),
    (lambda v: hyperparams(momentum=v), "training", "momentum", 1.0),
    (lambda v: hyperparams(lr_milestones=v), "training", "lr_milestones", [12, 8]),
    (lambda v: hyperparams(lr_milestones=v), "training", "lr_milestones", [8, 20]),  # 14 epochs
]


@pytest.mark.parametrize(
    "build, section, key, value",
    LIBRARY_CASES,
    ids=[f"{section}.{key}={value!r}" for _, section, key, value in LIBRARY_CASES],
)
def test_typed_configs_refuse_what_the_cli_refuses_with_its_message(build, section, key, value):
    with pytest.raises(ConfigError) as cli_refusal:
        validate_config({section: {key: value}})
    assert cli_refusal.value.args[0].startswith(f"invalid value for {section}.{key}: ")
    with pytest.raises(ConfigError) as library_refusal:
        build(value)
    assert library_refusal.value.args == cli_refusal.value.args


def test_memory_per_class_is_checked_as_memory_per_class():
    with pytest.raises(ConfigError, match=r"^invalid value for memory\.per_class: -1$"):
        experiment(memory_per_class=-1)


def test_numpy_scalars_pass_where_json_numbers_do():
    built = model(input_dim=np.int64(64), hidden_layers=[np.int32(64)], seed=np.int64(1))
    assert built.hidden_layers == (64,) and type(built.hidden_layers[0]) is int
    hp = hyperparams(
        learning_rate=np.float32(0.02), momentum=np.float64(0.9), lr_milestones=(np.int64(8),)
    )
    assert hp.lr_milestones == (8,)
    spec(cluster_sigma=np.float32(0.4), num_classes=np.int64(30))
    with pytest.raises(ConfigError, match=r"invalid value for training\.momentum: "):
        hyperparams(momentum=np.float32("nan"))


def test_model_config_needs_a_resolved_feature_dim():
    # The config's None stands for class capacity - 1; a built model needs the number.
    with pytest.raises(ConfigError, match="feature_dim"):
        model(feature_dim=None)


def test_check_fields_applies_a_pair_rule_only_where_both_keys_are_given():
    check_fields("data", {"intrinsic_dim": 100})
    check_fields("training", {"lr_milestones": [8, 20]})
    with pytest.raises(ConfigError, match=r"data\.input_dim is 64"):
        check_fields("data", {"intrinsic_dim": 100, "input_dim": 64})


def test_a_csv_source_still_meets_the_synthetic_pair_rule():
    csv = {"csv_path": "data.csv"}
    assert validate_config({"data": csv})["data"]["csv_path"] == "data.csv"
    with pytest.raises(ConfigError, match=r"data\.intrinsic_dim"):
        validate_config({"data": {**csv, "intrinsic_dim": 100}})


def test_typed_configs_and_data_seeds_declare_no_default():
    # The table's defaults are one preset, valid only as a whole: a field that took
    # its default alone could break a pair rule (intrinsic_dim 8 > input_dim 4).
    for typed in (ModelConfig, TrainingHyperparams, ExperimentConfig, SyntheticSpec):
        for field in dataclasses.fields(typed):
            assert field.default is dataclasses.MISSING, f"{typed.__name__}.{field.name}"
            assert field.default_factory is dataclasses.MISSING, f"{typed.__name__}.{field.name}"
    for prepare in (split_tasks, make_synthetic_tasks, generate_pairs):
        seed = inspect.signature(prepare).parameters["seed"]
        assert seed.default is inspect.Parameter.empty, prepare.__name__


def test_the_preset_builds_typed_configs_holding_exactly_its_values(monkeypatch):
    specs = []

    def capture(spec, **split):
        specs.append(spec)
        return make_synthetic_tasks(spec, **split)

    monkeypatch.setattr(cli, "make_synthetic_tasks", capture)
    *_, experiment = cli.experiment_components(validate_config({}))
    data = DEFAULT_CONFIG["data"]
    built = {
        "data": {"sigma" if k == "cluster_sigma" else k: v for k, v in vars(specs[0]).items()},
        # input_dim comes from the data; feature_dim None is class capacity - 1.
        "model": {k: v for k, v in vars(experiment.model).items() if k != "input_dim"},
        "training": vars(experiment.hyperparams),
        "memory": {"per_class": experiment.memory_per_class},
        "trainer": {k: getattr(experiment, k) for k in DEFAULT_CONFIG["trainer"]},
    }
    preset = {section: dict(DEFAULT_CONFIG[section]) for section in built}
    preset["model"]["feature_dim"] = data["num_classes"] - data["eval_classes"] - 1
    split_keys = {"csv_path", "eval_classes", "num_tasks", "split_seed"}
    preset["data"] = {k: v for k, v in data.items() if k not in split_keys}
    assert experiment.model.input_dim == data["input_dim"]
    for section, values in built.items():
        listed = {k: list(v) if isinstance(v, tuple) else v for k, v in values.items()}
        assert listed == preset[section], section
