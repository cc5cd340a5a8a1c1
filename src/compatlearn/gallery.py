"""Versioned feature store and exact nearest-neighbor search.

A gallery is indexed once with one model version and holds features only (no
raw inputs). Later models query it directly: query features are extracted
with the current model and compared against the stored ones by cosine
similarity, so the store is never re-extracted. Search is exact: it returns
the top n of a full sort by (descending similarity, ascending id). Per query,
``np.partition`` finds the n-th largest similarity and only the entries at or
above it, every tie at that boundary included, are sorted. Features must be
finite for that filter. A ``Gallery`` checks every rule when it is built,
indexed or loaded: at least one entry, unique ids, one row (and label) per id,
and stored norms that pass ``network.feature_norms``, as query norms must.

A batched search extracts every query's features once and scores them in
blocks of ``rows = max(2, SEARCH_BLOCK_CELLS // len(gallery))`` queries, inline
when one block holds them all. Otherwise ``evalkit.on_every_cpu`` runs at most
``rows // 2`` workers on blocks of ``rows // workers`` queries, with scratch the
calling thread allocates, so the blocks in flight hold one block's 16 MB of
similarities. Unlike the matrix cells, which use no BLAS, blocks call gemm
concurrently, each exactly as alone. A one-row tail joins the block before it:
numpy sends a one-row product to gemv, whose last bits may differ from gemm's.
With gemm rows that do not depend on the row count (OpenBLAS), any blocking on
any number of CPUs gives the bits of one full product, and a one-query search
differs from its row of a batched one by at most about 7e-16 in similarity.

On disk features are float32; in memory and in all similarity computations
they are float64. Stored features are quantized to the float32 grid at index
time so a save/load cycle is bit-exact.

A gallery file is a ``container.py`` container (magic ``FGALLERY``, format
version 2) with these sections:

    meta      JSON: indexed_by, dim, count, has_labels
    ids       UTF-8 JSON array of the ids, as strings
    labels    little-endian int64, one per id; present only with labels
    features  little-endian float32, count x dim, row-major
"""

import json
from dataclasses import dataclass, field

import numpy as np

from . import evalkit
from .container import read_artifact, write_artifact
from .errors import ConfigError, DataError
from .network import FeatureExtractorState, extract_features, feature_norms

GALLERY_MAGIC = b"FGALLERY"
GALLERY_VERSION = 2
# Similarities scored at once by a batched search: 2**21 float64 cells, 16 MB.
SEARCH_BLOCK_CELLS = 2**21


@dataclass(frozen=True)
class Gallery:
    ids: tuple[str, ...]
    features: np.ndarray
    indexed_by: int
    labels: tuple[int, ...] | None = None
    norms: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.ids:
            raise DataError("a gallery needs at least one entry")
        if len(set(self.ids)) < len(self.ids):
            seen: set[str] = set()
            first = next(i for i in self.ids if i in seen or seen.add(i))
            raise DataError(f"duplicate gallery id {first!r}")
        features = np.asarray(self.features, dtype=np.float64)
        if features.ndim != 2 or len(features) != len(self.ids):
            raise DataError(
                f"features must be one row per id, got {features.shape} for {len(self.ids)} ids"
            )
        if self.labels is not None and len(self.labels) != len(self.ids):
            raise DataError("labels, when given, need one entry per id")
        norms = feature_norms(features, lambda i: f"stored feature of gallery id {self.ids[i]!r}")
        for name, array in (("features", features), ("norms", norms)):
            array.setflags(write=False)
            object.__setattr__(self, name, array)

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
    features = extract_features(model, inputs)
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
    query; a ``top_n`` outside [1, len(gallery)] is a ConfigError.
    """
    if query_model.config.feature_dim != gallery.feature_dim:
        raise DataError(
            f"query model produces {query_model.config.feature_dim}-d features but "
            f"the gallery stores {gallery.feature_dim}-d features"
        )
    if not 1 <= top_n <= len(gallery):
        raise ConfigError(f"top-n must be in [1, {len(gallery)}], the gallery size, got {top_n}")
    query_features = extract_features(query_model, query_inputs)
    q_norms = feature_norms(query_features, lambda i: f"query feature at index {i}")
    ids, count = gallery.ids, len(query_features)
    rows = max(2, SEARCH_BLOCK_CELLS // len(ids))
    if count <= rows + 1:  # one block, inline; numpy allocates, which is faster for one query
        return _rank_block(query_features, q_norms, gallery, top_n, None, None, np.empty(len(ids)))
    workers = min(evalkit._cpu_count(), rows // 2)
    step = rows // workers
    starts = range(0, count - 1, step)  # a one-row tail joins the block before it
    # Per worker, from the calling thread: similarities and norm products of up to
    # step + 1 queries, and one row to partition in place.
    scratch = np.empty((workers, 2 * step + 3, len(ids)))
    results = [None] * count

    def rank(worker):
        own = scratch[worker]
        for start in starts[worker::workers]:
            n = count - start if count - start <= step + 1 else step
            block = slice(start, start + n)
            results[block] = _rank_block(query_features[block], q_norms[block], gallery, top_n,
                                         own[:n], own[step + 1 : step + 1 + n], own[-1])

    evalkit.on_every_cpu(rank, range(workers))
    return results


def _rank_block(features, norms, gallery, top_n, sims, products, row_copy):
    """Each query's ranked (id, similarity) list, for one block of queries, scored in
    ``sims`` and ``products`` (numpy allocates where None) and partitioned in ``row_copy``."""
    ids = gallery.ids
    cut = len(ids) - top_n
    sims = np.matmul(features, gallery.features.T, out=sims)
    sims /= np.outer(norms, gallery.norms, out=products)
    results = []
    for row in np.clip(sims, -1.0, 1.0, out=sims):
        row_copy[:] = row
        row_copy.partition(cut)
        # Every entry at or above the n-th largest similarity, boundary ties included.
        keep = np.flatnonzero(row >= row_copy[cut]) if cut else range(len(ids))
        ranked = sorted(keep, key=lambda j: (-row[j], ids[j]))[:top_n]
        results.append([(ids[j], float(row[j])) for j in ranked])
    return results


def recall_at_1(
    query_inputs,
    query_labels,
    query_model: FeatureExtractorState,
    gallery: Gallery,
) -> float:
    """Fraction of queries whose top-1 gallery hit carries the query's label."""
    if gallery.labels is None:
        raise DataError("recall@1 needs a gallery with labels")
    labels = np.asarray(query_labels, dtype=np.int64)
    if len(query_inputs) == 0:
        raise DataError("recall@1 needs at least one query")
    if labels.shape != (len(query_inputs),):
        raise DataError(f"{labels.size} query labels for {len(query_inputs)} queries")
    ranked = search(query_inputs, query_model, gallery, top_n=1)
    label_by_id = dict(zip(gallery.ids, gallery.labels))
    hits = sum(
        1 for label, result in zip(labels, ranked) if label_by_id[result[0][0]] == label
    )
    return hits / len(labels)


def save_gallery(gallery: Gallery, path) -> None:
    """Write the gallery file (format version 2, see the module docstring)."""
    has_labels = gallery.labels is not None
    meta = {
        "indexed_by": gallery.indexed_by,
        "dim": gallery.feature_dim,
        "count": len(gallery),
        "has_labels": has_labels,
    }
    sections = [("ids", json.dumps(gallery.ids).encode("utf-8"))]
    if has_labels:
        sections.append(("labels", np.asarray(gallery.labels, dtype="<i8").tobytes()))
    sections.append(("features", np.ascontiguousarray(gallery.features, dtype="<f4").tobytes()))
    write_artifact(path, GALLERY_MAGIC, GALLERY_VERSION, meta, sections)


def load_gallery(path) -> Gallery:
    with read_artifact(path, GALLERY_MAGIC, GALLERY_VERSION, "gallery file") as (meta, sections):
        count, dim = meta["count"], meta["dim"]
        ids = json.loads(sections["ids"].decode("utf-8"))
        if not (isinstance(ids, list) and all(isinstance(i, str) for i in ids)):
            raise ValueError("ids section is not a list of strings")
        labels = None
        if meta["has_labels"]:
            labels = tuple(np.frombuffer(sections["labels"], dtype="<i8").reshape(count).tolist())
        features = np.frombuffer(sections["features"], dtype="<f4").reshape(count, dim)
        return Gallery(
            ids=tuple(ids),
            features=features.astype(np.float64),
            indexed_by=int(meta["indexed_by"]),
            labels=labels,
        )
