"""Versioned feature store and exact nearest-neighbor search.

A gallery is indexed once with one model version and holds features only (no
raw inputs). Later models query it directly: query features are extracted
with the current model and compared against the stored ones by cosine
similarity, so the store is never re-extracted. Searches are brute force and
exact; galleries at this scale are small and oracle tests need exactness.

On disk features are float32; in memory and in all similarity computations
they are float64. Stored features are quantized to the float32 grid at index
time so a save/load cycle is bit-exact.
"""

import hashlib
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import (
    CorruptFileError,
    DataError,
    DegenerateFeatureError,
    UnsupportedVersionError,
)
from .network import FeatureExtractorState, extract_features

GALLERY_MAGIC = b"FGALLERY"
GALLERY_VERSION = 1
MAX_ID_BYTES = 0xFFFF  # id lengths are stored as unsigned 16-bit integers


@dataclass(frozen=True)
class Gallery:
    ids: tuple[str, ...]
    features: np.ndarray
    indexed_by: int
    labels: tuple[int, ...] | None = None

    def __post_init__(self):
        features = np.asarray(self.features, dtype=np.float64)
        if features.ndim != 2 or len(features) != len(self.ids):
            raise DataError(
                f"features must be one row per id, got {features.shape} for {len(self.ids)} ids"
            )
        if self.labels is not None and len(self.labels) != len(self.ids):
            raise DataError("labels, when given, need one entry per id")
        features.setflags(write=False)
        object.__setattr__(self, "features", features)

    def __len__(self) -> int:
        return len(self.ids)

    @property
    def feature_dim(self) -> int:
        return self.features.shape[1]


def index_gallery(
    ids,
    inputs,
    model: FeatureExtractorState,
    model_version: int,
    labels=None,
) -> Gallery:
    """Extract and store features for a batch of items under one model version."""
    ids = tuple(str(i) for i in ids)
    if len(ids) == 0:
        raise DataError("cannot index an empty gallery")
    seen: set[str] = set()
    for item_id in ids:
        if item_id in seen:
            raise DataError(f"duplicate gallery id {item_id!r}")
        seen.add(item_id)
    features = extract_features(model, inputs)
    if len(features) != len(ids):
        raise DataError(f"{len(ids)} ids but {len(features)} input rows")
    # Quantize to the on-disk precision now so round trips are exact.
    features = features.astype(np.float32).astype(np.float64)
    label_tuple = None if labels is None else tuple(int(v) for v in labels)
    return Gallery(ids=ids, features=features, indexed_by=int(model_version), labels=label_tuple)


def search(
    query_inputs,
    query_model: FeatureExtractorState,
    gallery: Gallery,
    top_n: int,
) -> list[list[tuple[str, float]]]:
    """Rank gallery entries for each query by cosine similarity.

    Gallery features are used as stored, never recomputed. Exact ties are
    broken by ascending id. Returns one ranked (id, similarity) list per
    query.
    """
    if query_model.config.feature_dim != gallery.feature_dim:
        raise DataError(
            f"query model produces {query_model.config.feature_dim}-d features but "
            f"the gallery stores {gallery.feature_dim}-d features"
        )
    if not 1 <= top_n <= len(gallery):
        raise ValueError(f"top_n must be in [1, {len(gallery)}], got {top_n}")
    query_features = extract_features(query_model, query_inputs)
    q_norms = np.linalg.norm(query_features, axis=1)
    zero = np.flatnonzero(q_norms == 0.0)
    if zero.size:
        raise DegenerateFeatureError(f"zero-norm query feature at index {zero[0]}")
    g_norms = np.linalg.norm(gallery.features, axis=1)
    g_zero = np.flatnonzero(g_norms == 0.0)
    if g_zero.size:
        raise DegenerateFeatureError(
            f"zero-norm stored feature for gallery id {gallery.ids[g_zero[0]]!r}"
        )
    sims = np.clip(
        (query_features @ gallery.features.T) / np.outer(q_norms, g_norms), -1.0, 1.0
    )
    id_array = np.asarray(gallery.ids)
    results = []
    for row in sims:
        order = np.lexsort((id_array, -row))[:top_n]
        results.append([(gallery.ids[j], float(row[j])) for j in order])
    return results


def recall_at_1(
    query_inputs,
    query_labels,
    query_model: FeatureExtractorState,
    gallery: Gallery,
) -> float:
    """Fraction of queries whose top-1 gallery hit carries the query's label."""
    if gallery.labels is None:
        raise ValueError("recall@1 needs a gallery with labels")
    ranked = search(query_inputs, query_model, gallery, top_n=1)
    label_by_id = dict(zip(gallery.ids, gallery.labels))
    labels = np.asarray(query_labels, dtype=np.int64)
    hits = sum(
        1 for label, result in zip(labels, ranked) if label_by_id[result[0][0]] == label
    )
    return hits / len(labels)


def save_gallery(gallery: Gallery, path) -> None:
    """Write the gallery file: header, id table, float32 features, SHA-256."""
    raw_ids = [item_id.encode("utf-8") for item_id in gallery.ids]
    for item_id, raw in zip(gallery.ids, raw_ids):
        if len(raw) > MAX_ID_BYTES:
            raise DataError(
                f"gallery id {item_id[:32]!r}... is {len(raw)} UTF-8 bytes; "
                f"the format stores at most {MAX_ID_BYTES}"
            )
    parts = [GALLERY_MAGIC]
    has_labels = gallery.labels is not None
    parts.append(
        struct.pack(
            "<IIIQ",
            GALLERY_VERSION,
            1 if has_labels else 0,
            gallery.feature_dim,
            len(gallery),
        )
    )
    parts.append(struct.pack("<q", gallery.indexed_by))
    for raw in raw_ids:
        parts.append(struct.pack("<H", len(raw)))
        parts.append(raw)
    if has_labels:
        parts.append(np.asarray(gallery.labels, dtype="<i8").tobytes())
    parts.append(np.ascontiguousarray(gallery.features, dtype="<f4").tobytes())
    body = b"".join(parts)
    Path(path).write_bytes(body + hashlib.sha256(body).digest())


def load_gallery(path) -> Gallery:
    blob = Path(path).read_bytes()
    if len(blob) < 32:
        raise CorruptFileError(f"{path}: too short to be a gallery file")
    body, digest = blob[:-32], blob[-32:]
    if hashlib.sha256(body).digest() != digest:
        raise CorruptFileError(f"{path}: checksum mismatch")
    offset = 0

    def take(n: int, what: str) -> bytes:
        nonlocal offset
        if offset + n > len(body):
            raise CorruptFileError(f"{path}: truncated while reading {what}")
        piece = body[offset : offset + n]
        offset += n
        return piece

    if take(8, "magic") != GALLERY_MAGIC:
        raise CorruptFileError(f"{path}: not a gallery file")
    version, has_labels, dim, count = struct.unpack("<IIIQ", take(20, "header"))
    if version > GALLERY_VERSION:
        raise UnsupportedVersionError(
            f"{path}: gallery format version {version} is newer than supported "
            f"({GALLERY_VERSION})"
        )
    (indexed_by,) = struct.unpack("<q", take(8, "model version"))
    ids = []
    for _ in range(count):
        (id_len,) = struct.unpack("<H", take(2, "id length"))
        ids.append(take(id_len, "id").decode("utf-8"))
    labels = None
    if has_labels:
        labels = tuple(
            int(v) for v in np.frombuffer(take(8 * count, "labels"), dtype="<i8")
        )
    feats = np.frombuffer(take(4 * count * dim, "features"), dtype="<f4")
    if offset != len(body):
        raise CorruptFileError(f"{path}: {len(body) - offset} trailing bytes")
    features = feats.astype(np.float64).reshape(count, dim)
    return Gallery(ids=tuple(ids), features=features, indexed_by=indexed_by, labels=labels)
