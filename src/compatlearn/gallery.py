"""Versioned feature store and exact nearest-neighbor search.

A gallery is indexed once with one model version and holds features only (no
raw inputs). Later models query it directly: query features are extracted
with the current model and compared against the stored ones by cosine
similarity, so the store is never re-extracted. Search is exact: it returns
the top n of a full sort by (descending similarity, ascending id), yet gives
the exact cosine only to candidates. Per query, ``dots * inv_norms`` is the
cosine times the query norm within a few ulps, with the dot's sign. Cut into
chunks of ``len(gallery) // max(SEARCH_CHUNKS, 4 * n)`` entries (one entry when
that is under ``SEARCH_CHUNKS``), its n-th largest chunk maximum is at most its
n-th largest value: each of the n best chunks holds an entry that large. Lowered
by 1e-9 of its magnitude, far above those ulps, this bound keeps every entry
whose exact cosine is at or above the n-th largest, ties included, as long as
norm products and cosines are normal floats (norms above about 1e-154). Only
``Gallery`` decides what a gallery holds, however it is built: at least one
entry, unique ``str`` ids, an ``indexed_by`` that is a non-negative int, one
feature row and one int64 label (if any) per id, and stored norms that pass
``network.feature_norms``, as query norms must.

A batched search extracts every query's features once and scores them in
blocks of ``rows = max(2, SEARCH_BLOCK_CELLS // len(gallery))`` queries, inline
when one block holds them all. Otherwise ``evalkit.on_every_cpu`` runs at most
``rows // 2`` workers on blocks of ``rows // workers`` queries, with scratch the
calling thread allocates, so the blocks in flight hold one block's 16 MB of
products (and as much of approximate cosines). Unlike the matrix cells, which
use no BLAS, blocks call gemm concurrently, each exactly as alone: on 2 vCPUs
search-large's 1,000 queries took a median 0.147 s on the pool and 0.192 s on
one worker (10 runs each). A one-row tail joins the block before it: numpy
sends a one-row product to gemv, whose last bits may differ from gemm's. With
gemm rows that do not depend on the row count (OpenBLAS), any blocking on any
number of CPUs gives the bits of one full product, and a one-query search
differs from its row of a batched one by at most about 7e-16 in similarity.

On disk features are float32; in memory and in all similarity computations
they are float64. A ``Gallery`` holds them on the float32 grid, copied there
only when off it, so a save/load cycle is bit-exact.

A gallery file is a ``container.py`` container (magic ``FGALLERY``, format
version 2) with these sections:

    meta      JSON: indexed_by (an int), dim and count (counts), has_labels (a bool)
    ids       UTF-8 JSON array of the ids, as strings
    labels    little-endian int64, one per id; present only with labels
    features  little-endian float32, count x dim, row-major
"""

import json
from bisect import bisect_left
from dataclasses import dataclass, field
from operator import itemgetter

import numpy as np

from . import evalkit
from .container import read_array, read_artifact, write_artifact
from .errors import ConfigError, DataError
from .network import FeatureExtractorState, extract_features, feature_norms

GALLERY_MAGIC = b"FGALLERY"
GALLERY_VERSION = 2
# Similarities scored at once by a batched search: 2**21 float64 cells, 16 MB.
SEARCH_BLOCK_CELLS = 2**21
# The least count of chunks, and of entries per chunk, in a search's candidate bound.
SEARCH_CHUNKS = 64


@dataclass(frozen=True, eq=False)
class Gallery:
    ids: tuple[str, ...]
    features: np.ndarray
    indexed_by: int
    labels: tuple[int, ...] | None = None
    norms: np.ndarray = field(init=False, repr=False)
    inv_norms: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "ids", tuple(self.ids))
        if not self.ids:
            raise DataError("a gallery needs at least one entry")
        other = [i for i in self.ids if type(i) is not str]
        if other:
            raise DataError(f"gallery ids must be strings, got {other[0]!r}")
        if type(self.indexed_by) is not int or self.indexed_by < 0:
            raise DataError(f"indexed_by must be a non-negative int, got {self.indexed_by!r}")
        if len(set(self.ids)) < len(self.ids):
            seen: set[str] = set()
            first = next(i for i in self.ids if i in seen or seen.add(i))
            raise DataError(f"duplicate gallery id {first!r}")
        features = np.asarray(self.features, dtype=np.float64)
        if features.ndim != 2 or len(features) != len(self.ids):
            raise DataError(
                f"features must be one row per id, got {features.shape} for {len(self.ids)} ids"
            )
        stored = features.astype(np.float32)  # the file's grid; a copy only when off it
        features = features if np.array_equal(stored, features) else stored.astype(np.float64)
        if self.labels is not None:
            labels = np.asarray(self.labels)
            if not evalkit.fits_int64(labels) or labels.shape != (len(self.ids),):
                raise DataError("labels, when given, must be one int64 integer per id")
            object.__setattr__(self, "labels", tuple(labels.tolist()))
        norms = feature_norms(features, lambda i: f"stored feature of gallery id {self.ids[i]!r}")
        for name, array in (("features", features), ("norms", norms), ("inv_norms", 1 / norms)):
            array.setflags(write=False)
            object.__setattr__(self, name, array)

    def __eq__(self, other):  # defined in the class body, it leaves galleries unhashable
        """Equal ids, ``indexed_by``, labels and feature values; the cached norms follow."""
        if not isinstance(other, Gallery):
            return NotImplemented
        mine, theirs = ((g.ids, g.indexed_by, g.labels) for g in (self, other))
        return mine == theirs and np.array_equal(self.features, other.features)

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
    """Extract and store features of items, their ids taken as ``str``, under one version."""
    features = extract_features(model, inputs)
    return Gallery(tuple(str(i) for i in ids), features, model_version, labels)


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
        return _rank_block(query_features, q_norms, gallery, top_n, None, None)
    workers = min(evalkit._cpu_count(), rows // 2)
    step = rows // workers
    starts = range(0, count - 1, step)  # a one-row tail joins the block before it
    # Per worker, from the calling thread: products and approximate cosines of up to
    # step + 1 queries.
    scratch = np.empty((workers, 2 * step + 2, len(ids)))
    results = [None] * count

    def rank(worker):
        own = scratch[worker]
        for start in starts[worker::workers]:
            n = count - start if count - start <= step + 1 else step
            block = slice(start, start + n)
            results[block] = _rank_block(query_features[block], q_norms[block], gallery, top_n,
                                         own[:n], own[step + 1 : step + 1 + n])

    evalkit.on_every_cpu(rank, range(workers))
    return results


def _rank_block(features, norms, gallery, top_n, dots, approx):
    """Each query's ranked (id, similarity) list, for one block of queries, scored in
    ``dots`` and ``approx`` (numpy allocates where None)."""
    ids, size = gallery.ids, len(gallery)
    dots = np.matmul(features, gallery.features.T, out=dots)
    approx = np.multiply(dots, gallery.inv_norms, out=approx)  # cosine times query norm
    step = size // max(SEARCH_CHUNKS, 4 * top_n)  # so more than top_n chunks
    # Below SEARCH_CHUNKS entries a chunk saves less than its reduction costs: use one each.
    peaks = approx if step < SEARCH_CHUNKS else np.maximum.reduceat(
        approx, np.arange(0, size, step), 1)
    bound = np.partition(peaks, -top_n)[:, -top_n, None]
    flat = np.flatnonzero(approx >= bound - abs(bound) * 1e-9)
    rows, cols = np.divmod(flat, size)
    # The exact cosine, by the element-wise formula of a full sort, for the candidates only.
    sims = dots.take(flat) / (norms[rows] * gallery.norms[cols])
    sims = np.minimum(np.maximum(sims, -1.0), 1.0).tolist()  # clipped to [-1, 1]
    hits = list(zip([ids[j] for j in cols.tolist()], sims))
    rows = rows.tolist()
    ends = [bisect_left(rows, r) for r in range(len(dots) + 1)]
    # By ascending id, then stably by descending similarity.
    return [sorted(sorted(hits[lo:hi]), key=itemgetter(1), reverse=True)[:top_n]
            for lo, hi in zip(ends, ends[1:])]


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
        if type(meta["has_labels"]) is not bool:
            raise ValueError("has_labels is not a bool")
        ids = json.loads(sections["ids"].decode("utf-8"))
        if not isinstance(ids, list):
            raise ValueError("ids section is not a list")
        count = meta["count"]
        labels = read_array(sections, "labels", "<i8", [count]) if meta["has_labels"] else None
        features = read_array(sections, "features", "<f4", [count, meta["dim"]])
        return Gallery(ids, features, meta["indexed_by"], labels)
