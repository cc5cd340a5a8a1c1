"""Serialization of models, prototypes, and memory snapshots.

Each artifact is a container from ``container.py`` with a JSON "meta" section
describing shapes and little-endian float64 blobs for the numeric payloads,
which makes round trips bit-exact. Writes are atomic. Malformed meta
(``container.read_artifact``) and a model whose weights or biases are not
finite become a ``CorruptFileError``.
"""

import dataclasses

import numpy as np

from .container import read_artifact, write_artifact
from .geometry import SimplexPrototypes
from .errors import CorruptFileError
from .memory import EpisodicMemory
from .network import FeatureExtractorState, ModelConfig

MODEL_MAGIC = b"MODLCKPT"
MODEL_VERSION = 1
PROTO_MAGIC = b"PROTOSET"
PROTO_VERSION = 1
MEMORY_MAGIC = b"MEMSNAPS"
MEMORY_VERSION = 1
# The per-row metadata of a memory snapshot, stored as JSON lists in "meta".
_MEMORY_COLUMNS = ("labels", "source_tasks", "sample_indices")
# A model's parameter sections in file order, as (section prefix, state
# attribute, meta key of the per-layer shapes); section "w0" is weights[0].
_MODEL_SECTIONS = (
    ("w", "weights", "weight_shapes"),
    ("b", "biases", "bias_shapes"),
    ("vw", "velocity_w", "weight_shapes"),
    ("vb", "velocity_b", "bias_shapes"),
)


def _array_bytes(arr: np.ndarray) -> bytes:
    return np.ascontiguousarray(arr, dtype="<f8").tobytes()


def _array_from(payload: bytes, shape) -> np.ndarray:
    return np.frombuffer(payload, dtype="<f8").astype(np.float64).reshape(shape)


def save_model(state: FeatureExtractorState, path) -> None:
    meta = {
        "config": dataclasses.asdict(state.config),
        "step": state.step,
        "num_layers": len(state.weights),
        "weight_shapes": [list(w.shape) for w in state.weights],
        "bias_shapes": [list(b.shape) for b in state.biases],
    }
    sections = [
        (f"{prefix}{i}", _array_bytes(array))
        for prefix, attr, _ in _MODEL_SECTIONS
        for i, array in enumerate(getattr(state, attr))
    ]
    write_artifact(path, MODEL_MAGIC, MODEL_VERSION, meta, sections)


def load_model(path) -> FeatureExtractorState:
    with read_artifact(path, MODEL_MAGIC, MODEL_VERSION, "model checkpoint") as (meta, sections):
        # Every field is required: a default (seed, nonlinearity) must not
        # stand in for a value the file lost.
        if set(meta["config"]) != {f.name for f in dataclasses.fields(ModelConfig)}:
            raise CorruptFileError(f"{path}: model config keys {sorted(meta['config'])}")
        config = ModelConfig(**meta["config"])
        sizes = config.layer_sizes()
        n = len(sizes) - 1
        if (
            meta["num_layers"] != n
            or meta["weight_shapes"] != [list(shape) for shape in zip(sizes, sizes[1:])]
            or meta["bias_shapes"] != [[size] for size in sizes[1:]]
        ):
            raise CorruptFileError(f"{path}: stored layer shapes do not match layer sizes {sizes}")
        arrays = {
            attr: [_array_from(sections[f"{prefix}{i}"], meta[shapes][i]) for i in range(n)]
            for prefix, attr, shapes in _MODEL_SECTIONS
        }
        state = FeatureExtractorState(config, **arrays, step=int(meta["step"]))
        if not state.all_finite():
            raise CorruptFileError(f"{path}: non-finite weight or bias")
        return state


def save_prototypes(prototypes: SimplexPrototypes, path) -> None:
    meta = {
        "num_vertices": prototypes.num_vertices,
        "dim": prototypes.dim,
        "alpha": prototypes.alpha,
    }
    sections = [("vertices", _array_bytes(prototypes.vertices))]
    write_artifact(path, PROTO_MAGIC, PROTO_VERSION, meta, sections)


def load_prototypes(path) -> SimplexPrototypes:
    with read_artifact(path, PROTO_MAGIC, PROTO_VERSION, "prototype file") as (meta, sections):
        vertices = _array_from(sections["vertices"], (meta["num_vertices"], meta["dim"]))
        vertices.setflags(write=False)
        return SimplexPrototypes(
            num_vertices=int(meta["num_vertices"]),
            dim=int(meta["dim"]),
            vertices=vertices,
            alpha=float(meta["alpha"]),
        )


def save_memory(memory: EpisodicMemory, path) -> None:
    meta = {
        "per_class_budget": memory.per_class_budget,
        "rng_seed": memory.rng_seed,
        "count": len(memory),
        "input_dim": memory.inputs.shape[1] if len(memory) else 0,
        **{column: getattr(memory, column).tolist() for column in _MEMORY_COLUMNS},
    }
    write_artifact(
        path, MEMORY_MAGIC, MEMORY_VERSION, meta, [("inputs", _array_bytes(memory.inputs))]
    )


def load_memory(path) -> EpisodicMemory:
    with read_artifact(path, MEMORY_MAGIC, MEMORY_VERSION, "memory snapshot") as (meta, sections):
        count = int(meta["count"])
        dim = int(meta["input_dim"])
        inputs = _array_from(sections["inputs"], (count, dim) if count else (0, 0))
        columns = {name: np.asarray(meta[name], dtype=np.int64) for name in _MEMORY_COLUMNS}
        if any(column.shape != (count,) for column in columns.values()):
            raise CorruptFileError(f"{path}: memory columns do not all hold {count} rows")
        return EpisodicMemory(
            per_class_budget=int(meta["per_class_budget"]),
            rng_seed=int(meta["rng_seed"]),
            inputs=inputs,
            **columns,
        )
