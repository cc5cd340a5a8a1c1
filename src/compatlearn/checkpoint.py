"""Serialization of model checkpoints.

A checkpoint is a container from ``container.py`` with a JSON "meta" section
holding the model config and the step, and little-endian float64 blobs for the
parameters, whose shapes follow from the config's layer sizes; round trips are
bit-exact. Writes are atomic and refuse a step that is not a non-negative int
(a DataError). On reading, such a step, malformed meta, a config whose layer
sizes do not fit the sections and non-finite weights or biases become a
``CorruptFileError``.
"""

import dataclasses

import numpy as np

from .container import read_array, read_artifact, write_artifact
from .errors import CorruptFileError, DataError
from .network import FeatureExtractorState, ModelConfig

MODEL_MAGIC = b"MODLCKPT"
MODEL_VERSION = 1
# A model's parameter sections in file order, as (section prefix, state
# attribute, shape kind: "w" weights or "b" biases); section "w0" is weights[0].
_MODEL_SECTIONS = (
    ("w", "weights", "w"),
    ("b", "biases", "b"),
    ("vw", "velocity_w", "w"),
    ("vb", "velocity_b", "b"),
)


def _check_step(step) -> None:
    """The one rule for a stored ``step``, shared by the writer and the reader."""
    if type(step) is not int or step < 0:
        raise DataError(f"step {step!r} is not a non-negative int")


def save_model(state: FeatureExtractorState, path) -> None:
    _check_step(state.step)
    meta = {"config": dataclasses.asdict(state.config), "step": state.step}
    sections = [
        (f"{prefix}{i}", np.ascontiguousarray(array, dtype="<f8").tobytes())
        for prefix, attr, _ in _MODEL_SECTIONS
        for i, array in enumerate(getattr(state, attr))
    ]
    write_artifact(path, MODEL_MAGIC, MODEL_VERSION, meta, sections)


def load_model(path) -> FeatureExtractorState:
    with read_artifact(path, MODEL_MAGIC, MODEL_VERSION, "model checkpoint") as (meta, sections):
        config = ModelConfig(**meta["config"])  # no field has a default to hide a lost key
        sizes = config.layer_sizes()
        shapes = {"w": list(zip(sizes, sizes[1:])), "b": [(size,) for size in sizes[1:]]}
        if len(sections) != 1 + len(_MODEL_SECTIONS) * (len(sizes) - 1):  # meta + parameters
            raise CorruptFileError(f"{path}: {len(sections) - 1} sections do not fit {sizes}")
        arrays = {
            attr: [read_array(sections, f"{prefix}{i}", "<f8", shape).astype(np.float64)
                   for i, shape in enumerate(shapes[kind])]
            for prefix, attr, kind in _MODEL_SECTIONS
        }
        _check_step(meta["step"])
        state = FeatureExtractorState(config, **arrays, step=meta["step"])
        if not state.all_finite():
            raise CorruptFileError(f"{path}: non-finite weight or bias")
        return state

