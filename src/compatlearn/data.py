"""Desk-scale datasets: synthetic clusters, task splits, verification pairs.

Synthetic data stands in for image benchmarks: each class is a Gaussian
cluster around a mean on the unit sphere, and ``SyntheticSpec`` meets the
``config`` rules (``cluster_sigma`` as ``data.sigma``; a ConfigError if not).
Classes split into a held-out evaluation set (never trained on, as in the
open-set protocol) and a sequence of disjoint tasks. External vectors come in
through a small CSV schema: a header row, then one label column followed by
the input columns. The readers parse all data rows of a CSV in one numpy pass
(``np.loadtxt``) and check them as whole arrays; a file is read again line by
line only to name the first bad line of a file that fails.

A pair set (``VerificationPairSet``) holds the held-out ``LabeledDataset`` and
index pairs into its rows, not copies of them: pair ``i`` compares sample
``ids_a[i]`` with sample ``ids_b[i]``. Wherever the package reads labels or ids
they meet ``as_int64``, and flags ``as_flags``: the checked array or a
DataError, never a cast (a label 1.7 or a flag 2 is refused), and no value
scan of a bool or signed-integer array.

The held-out set and its pairs are stored as one ``container.py`` container
(``save_heldout``/``load_heldout``, magic ``HELDOUTS``), which reads back
bitwise with no text to parse: a JSON meta of ``rows``, ``input_dim`` and
``pairs``, then the ``_HELDOUT_SECTIONS`` arrays (``genuine``: one 0/1 byte per pair).
"""

import csv
import itertools
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from .config import check_fields, check_size
from .container import read_array, read_artifact, write_artifact, write_atomic
from .errors import DataError, DisjointnessError

HELDOUT_MAGIC = b"HELDOUTS"
HELDOUT_VERSION = 1
# The held-out file's sections after "meta", as (name, dtype, meta keys of its shape);
# inputs are row-major.
_HELDOUT_SECTIONS = (
    ("inputs", "<f8", ("rows", "input_dim")),
    ("labels", "<i8", ("rows",)),
    ("ids_a", "<i8", ("pairs",)),
    ("ids_b", "<i8", ("pairs",)),
    ("genuine", "u1", ("pairs",)),
)


def as_int64(values, name: str) -> np.ndarray:
    """``values`` as int64 if they are integers that int64 holds, else a DataError."""
    array = np.asarray(values)
    kind = array.dtype.kind
    if kind == "i" or (kind == "u" and not (array > np.iinfo(np.int64).max).any()):
        return array.astype(np.int64, copy=False)
    raise DataError(f"{name} must be integers that fit int64, got {array.dtype}")


def as_flags(values, name: str) -> np.ndarray:
    """``values`` as bools if they are bools or integers 0 and 1, else a DataError."""
    array = np.asarray(values)
    kind = array.dtype.kind
    if kind == "b" or (kind in "iu" and ((array == 0) | (array == 1)).all()):
        return array.astype(bool, copy=False)
    raise DataError(f"{name} must be bools, or integers with none other than 0 or 1")


@dataclass(frozen=True, eq=False)
class LabeledDataset:
    """Immutable array-backed dataset: inputs (n, D) and integer labels (n,)."""

    inputs: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        inputs = np.asarray(self.inputs, dtype=np.float64)
        if inputs.ndim != 2:
            raise DataError(f"inputs must be a 2-d array, got shape {inputs.shape}")
        labels = as_int64(self.labels, "labels")
        if labels.ndim != 1 or len(labels) != len(inputs):
            raise DataError(
                f"labels must be 1-d with one entry per input row, got {labels.shape}"
            )
        if inputs.size and not np.all(np.isfinite(inputs)):
            raise DataError("dataset inputs contain non-finite values")
        inputs.setflags(write=False)
        labels.setflags(write=False)
        object.__setattr__(self, "inputs", inputs)
        object.__setattr__(self, "labels", labels)

    def __len__(self) -> int:
        return len(self.labels)

    @property
    def input_dim(self) -> int:
        return self.inputs.shape[1]

    def class_ids(self) -> tuple[int, ...]:
        return tuple(int(c) for c in np.unique(self.labels))


@dataclass(frozen=True, eq=False)
class VerificationPairSet:
    """Static (A, B, genuine) verification pairs over held-out classes.

    Pair ``i`` compares rows ``ids_a[i]`` and ``ids_b[i]`` of ``dataset``, the
    held-out rows themselves (never a gathered copy). Nothing is cast: ids are
    integers that fit int64, ``genuine`` holds bools or integers 0 and 1.
    """

    dataset: LabeledDataset
    ids_a: np.ndarray
    ids_b: np.ndarray
    genuine: np.ndarray

    def __post_init__(self):
        if not isinstance(self.dataset, LabeledDataset):
            raise DataError(f"pairs index a LabeledDataset, got {type(self.dataset).__name__}")
        for side in ("ids_a", "ids_b"):
            object.__setattr__(self, side, as_int64(getattr(self, side), side))
        object.__setattr__(self, "genuine", as_flags(self.genuine, "genuine"))
        for array in (self.ids_a, self.ids_b, self.genuine):
            array.setflags(write=False)
        n = len(self.genuine)
        if n == 0:
            raise DataError("verification pair set is empty")
        if not self.genuine.shape == self.ids_a.shape == self.ids_b.shape == (n,):
            raise DataError("pair set fields have inconsistent lengths")
        rows = len(self.dataset)
        for side, ids in (("a", self.ids_a), ("b", self.ids_b)):
            bad = np.flatnonzero((ids < 0) | (ids >= rows))
            if bad.size:
                raise DataError(
                    f"pair {bad[0]} side {side} indexes row {ids[bad[0]]}, "
                    f"but the dataset has {rows} rows"
                )
        if not self.genuine.any() or self.genuine.all():
            raise DataError("pair set needs at least one genuine and one impostor pair")

    def __len__(self) -> int:
        return len(self.genuine)


@dataclass(frozen=True)
class Task:
    """One step of a task sequence: its data, whose labels are the classes it introduces."""

    index: int
    data: LabeledDataset

    @property
    def classes(self) -> tuple[int, ...]:
        return self.data.class_ids()


@dataclass(frozen=True)
class TaskSequence:
    """Ordered tasks of one input width, no label in two of them, and the class capacity."""

    tasks: tuple[Task, ...]
    total_classes: int

    def __post_init__(self):
        widths = sorted({task.data.input_dim for task in self.tasks})
        if len(widths) > 1:
            raise DataError(f"tasks have different input widths {widths}")
        seen: set[int] = set()
        for task in self.tasks:
            overlap = seen.intersection(task.classes)
            if overlap:
                raise DisjointnessError(f"task {task.index} reuses classes {sorted(overlap)}")
            seen.update(task.classes)
        outside = sorted(c for c in seen if not 0 <= c < self.total_classes)
        if outside:
            raise DataError(f"labels {outside} lie outside the capacity [0, {self.total_classes})")

    def __len__(self) -> int:
        return len(self.tasks)


@dataclass(frozen=True)
class SyntheticSpec:
    """Recipe for a clustered synthetic dataset.

    ``intrinsic_dim`` confines the class means to a random low-dimensional
    subsphere of the input space (noise stays full-dimensional). This mimics
    natural data, where classes share structure: with a shared subspace,
    representations trained on some classes carry over to unseen ones.
    ``None`` spreads the means over the whole sphere.
    """

    num_classes: int
    samples_per_class: int
    input_dim: int
    cluster_sigma: float
    mean_seed: int
    noise_seed: int
    intrinsic_dim: int | None

    def __post_init__(self):
        values = {"sigma" if key == "cluster_sigma" else key: v for key, v in vars(self).items()}
        check_fields("data", values)
        samples = (self.num_classes, self.samples_per_class, self.input_dim)
        check_size(samples, (self.input_dim, self.intrinsic_dim or 0))  # and the means' basis


def _draw_classes(spec: SyntheticSpec, parts) -> list[tuple[np.ndarray, np.ndarray]]:
    """(inputs, labels) of each part, a list of classes, its rows in class order.

    Class ``c``'s rows are its unit-sphere mean plus ``cluster_sigma`` times
    the ``c``-th block of ``samples_per_class`` rows of the one noise stream,
    whichever part the class lands in. Each block is drawn straight into its
    part, so no array holds the classes of more than one part.
    """
    mean_rng = np.random.default_rng(spec.mean_seed)
    if spec.intrinsic_dim is None:
        means = mean_rng.standard_normal((spec.num_classes, spec.input_dim))
    else:
        # Orthonormal basis of a random subspace, then means inside it.
        gauss = mean_rng.standard_normal((spec.input_dim, spec.intrinsic_dim))
        basis, _ = np.linalg.qr(gauss)
        coords = mean_rng.standard_normal((spec.num_classes, spec.intrinsic_dim))
        means = coords @ basis.T
    means /= np.linalg.norm(means, axis=1, keepdims=True)

    n = spec.samples_per_class
    drawn = []
    block_of = {}  # class -> (part, row where its block starts)
    for classes in parts:
        ordered = np.sort(np.asarray(classes, dtype=np.int64))
        for k, c in enumerate(ordered.tolist()):
            block_of[c] = (len(drawn), k * n)
        drawn.append((np.empty((len(ordered) * n, spec.input_dim)), np.repeat(ordered, n)))
    noise_rng = np.random.default_rng(spec.noise_seed)
    for c in range(spec.num_classes):
        part, row = block_of[c]
        block = drawn[part][0][row : row + n]
        noise_rng.standard_normal(out=block)
        block *= spec.cluster_sigma
        block += means[c]
    return drawn


def make_synthetic(spec: SyntheticSpec) -> LabeledDataset:
    """Clustered samples: unit-sphere class means plus Gaussian noise, seeded."""
    ((inputs, labels),) = _draw_classes(spec, [range(spec.num_classes)])
    return LabeledDataset(inputs=inputs, labels=labels)


def _split_plan(all_classes, num_tasks: int, eval_class_count: int, seed: int):
    """Training class groups in arrival order, and the held-out classes ascending."""
    check_fields("data", dict(num_tasks=num_tasks, eval_classes=eval_class_count, split_seed=seed))
    if len(all_classes) - eval_class_count < num_tasks:
        raise DataError(
            f"{len(all_classes)} classes cannot supply {eval_class_count} evaluation "
            f"classes and {num_tasks} nonempty tasks"
        )
    rng = np.random.default_rng(seed)
    shuffled = rng.permutation(all_classes)
    eval_classes = sorted(shuffled[:eval_class_count].tolist())
    groups = np.array_split(shuffled[eval_class_count:], num_tasks)  # the larger ones first
    return [group.tolist() for group in groups], eval_classes


def _task_sequence(groups, parts) -> TaskSequence:
    """Tasks from each group's (inputs, original labels), labels remapped by arrival."""
    remap = {c: i for i, c in enumerate(c for group in groups for c in group)}
    tasks = [
        Task(t, LabeledDataset(inputs, np.array([remap[int(c)] for c in labels], dtype=np.int64)))
        for t, (inputs, labels) in enumerate(parts, start=1)
    ]
    return TaskSequence(tasks=tuple(tasks), total_classes=len(remap))


def split_tasks(
    dataset: LabeledDataset,
    num_tasks: int,
    eval_class_count: int,
    seed: int,
) -> tuple[TaskSequence, LabeledDataset]:
    """Hold out evaluation classes, then partition the rest into disjoint tasks.

    Evaluation classes are removed first and never appear in any task. The
    remaining classes are shuffled (seeded) and split into ``num_tasks``
    near-equal groups whose sizes differ by at most one. Training labels are
    remapped to contiguous ids in arrival order, so task 1 owns the lowest
    ids; the held-out dataset keeps its original labels.
    """
    groups, eval_classes = _split_plan(
        np.unique(dataset.labels), num_tasks, eval_class_count, seed
    )
    parts = []
    for classes in groups + [eval_classes]:
        mask = np.isin(dataset.labels, classes)
        parts.append((dataset.inputs[mask], dataset.labels[mask]))
    eval_inputs, eval_labels = parts.pop()
    return _task_sequence(groups, parts), LabeledDataset(inputs=eval_inputs, labels=eval_labels)


def make_synthetic_tasks(
    spec: SyntheticSpec,
    num_tasks: int,
    eval_class_count: int,
    seed: int,
) -> tuple[TaskSequence, LabeledDataset]:
    """``split_tasks(make_synthetic(spec), ...)`` without the whole dataset in memory.

    Every class is drawn straight into its task or into the held-out set,
    from the same noise stream, so the arrays are bitwise those of the
    two-step route.
    """
    groups, eval_classes = _split_plan(
        np.arange(spec.num_classes, dtype=np.int64), num_tasks, eval_class_count, seed
    )
    parts = _draw_classes(spec, groups + [eval_classes])
    eval_inputs, eval_labels = parts.pop()
    return _task_sequence(groups, parts), LabeledDataset(inputs=eval_inputs, labels=eval_labels)


def generate_pairs(
    dataset: LabeledDataset,
    num_pairs: int,
    seed: int,
) -> VerificationPairSet:
    """Balanced verification pairs sampled without replacement, seeded.

    Half the pairs are genuine (two distinct samples of one class), half are
    impostor (samples of two different classes). Pair identities are sample
    index pairs into ``dataset``, which the pair set holds without copying;
    no unordered pair repeats.
    """
    check_fields("pairs", {"num_pairs": num_pairs, "seed": seed})
    n = len(dataset)
    if len(dataset.class_ids()) < 2:
        raise DataError("pair generation needs at least two classes")
    want = num_pairs // 2

    # Candidates are the pairs (i, j) with i < j in row-major order. Row i has
    # later[i] genuine ones, the later rows of its class, and others[i] impostor
    # ones, the later rows outside it. A drawn position is unranked to its row
    # and column from these counts, so no n x n grid is built.
    _, cls, sizes = np.unique(dataset.labels, return_inverse=True, return_counts=True)
    order = np.argsort(cls, kind="stable")  # each class's rows, ascending, class by class
    starts = np.cumsum(sizes) - sizes
    rank = np.empty(n, dtype=np.int64)  # rows of the same class before row i
    rank[order] = np.arange(n) - starts[cls[order]]
    later = sizes[cls] - rank - 1
    others = np.arange(n - 1, -1, -1) - later
    for kind, counts in (("genuine", later), ("impostor", others)):
        if counts.sum() < want:
            raise DataError(f"cannot draw {want} {kind} pairs: only {counts.sum()} exist")
    rng = np.random.default_rng(seed)
    gen_a, gen_k = _unrank(later, rng.choice(int(later.sum()), size=want, replace=False))
    imp_a, imp_k = _unrank(others, rng.choice(int(others.sum()), size=want, replace=False))
    gen_b = order[starts[cls[gen_a]] + rank[gen_a] + 1 + gen_k]
    # An impostor's column is the m-th row outside its row's class, m = a - rank[a] + k,
    # which is m plus the class rows r (the l-th of its class) with r - l <= m.
    outside = imp_a - rank[imp_a] + imp_k
    gaps = cls[order] * n + order - rank[order]
    imp_b = outside + np.searchsorted(gaps, cls[imp_a] * n + outside, side="right")
    imp_b -= starts[cls[imp_a]]
    ids_a, ids_b = np.concatenate([gen_a, imp_a]), np.concatenate([gen_b, imp_b])
    genuine = np.concatenate([np.ones(want, dtype=bool), np.zeros(want, dtype=bool)])
    return VerificationPairSet(dataset, ids_a=ids_a, ids_b=ids_b, genuine=genuine)


def _unrank(counts: np.ndarray, positions: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Row and rank within the row of each position in rows holding ``counts`` items."""
    ends = np.cumsum(counts)
    rows = np.searchsorted(ends, positions, side="right")
    return rows, positions - (ends[rows] - counts[rows])


def save_pairs(pairs: VerificationPairSet, path) -> None:
    """Write a pair set as CSV rows of (id_a, id_b, genuine), CRLF line ends."""
    columns = (pairs.ids_a.tolist(), pairs.ids_b.tolist(), pairs.genuine.astype(np.int8).tolist())
    rows = "".join(f"{a},{b},{g}\r\n" for a, b, g in zip(*columns))
    write_atomic(path, [b"id_a,id_b,genuine\r\n", rows.encode("utf-8")])


def load_pairs(path, dataset: LabeledDataset) -> VerificationPairSet:
    """Rebuild a pair set from its CSV against the dataset it indexes into.

    Every data row must hold exactly three integers, and both ids must index
    into ``dataset``; the first offending row is reported with its line
    number. A nonzero ``genuine`` cell marks a genuine pair. The pair set
    holds ``dataset`` itself; no input row is copied.
    """
    with _open_csv(path) as (fh, header, first_line):
        if header != ["id_a", "id_b", "genuine"]:
            raise DataError(f"unexpected pair CSV header in {path}: {header}")
        rows = _parse_rows(path, fh, first_line, _PAIR_ROW, 3, "malformed pair row")["cells"]
    ids = rows[:, :2]
    outside = (ids < 0) | (ids >= len(dataset))
    if outside.any():
        line_no = first_line + int(np.flatnonzero(outside.any(axis=1))[0])
        raise DataError(f"{path}:{line_no}: pair index out of range")
    return VerificationPairSet(
        dataset,
        ids_a=np.ascontiguousarray(rows[:, 0]),
        ids_b=np.ascontiguousarray(rows[:, 1]),
        genuine=rows[:, 2] != 0,
    )


def save_heldout(pairs: VerificationPairSet, path) -> None:
    """Write ``pairs`` and the held-out dataset whose rows they index as one container."""
    dataset = pairs.dataset
    meta = {"rows": len(dataset), "input_dim": dataset.input_dim, "pairs": len(pairs)}
    arrays = (dataset.inputs, dataset.labels, pairs.ids_a, pairs.ids_b, pairs.genuine)
    sections = [
        (name, np.ascontiguousarray(array, dtype=dtype).tobytes())
        for (name, dtype, _), array in zip(_HELDOUT_SECTIONS, arrays)
    ]
    write_artifact(path, HELDOUT_MAGIC, HELDOUT_VERSION, meta, sections)


def load_heldout(path) -> VerificationPairSet:
    """The pair set of ``save_heldout``'s file, over its rows and labels as a ``LabeledDataset``.

    A section whose length does not match the meta's counts, and rows or pairs that
    break the ``LabeledDataset`` or ``VerificationPairSet`` rules (a ``genuine`` byte
    other than 0 or 1 among them) are a ``CorruptFileError`` (``read_artifact``).
    The arrays are read-only views of the file's bytes.
    """
    with read_artifact(path, HELDOUT_MAGIC, HELDOUT_VERSION, "held-out set") as (meta, sections):
        inputs, labels, ids_a, ids_b, genuine = (
            read_array(sections, name, dtype, [meta[key] for key in dims])
            for name, dtype, dims in _HELDOUT_SECTIONS
        )
        return VerificationPairSet(LabeledDataset(inputs, labels), ids_a, ids_b, genuine)


def save_csv(dataset: LabeledDataset, path) -> None:
    """Write a dataset in the label-then-features CSV schema.

    Floats are written as their shortest ``repr``, which reads back
    bitwise, and lines end in CRLF, as ``csv.writer`` writes them.
    """
    header = ",".join(["label"] + [f"x{i}" for i in range(dataset.input_dim)])
    # Row by row: one whole-array tolist() would hold every cell as a Python
    # float at once.
    rows = (
        f"{label},{','.join(map(repr, row.tolist()))}\r\n".encode("utf-8")
        for label, row in zip(dataset.labels.tolist(), dataset.inputs)
    )
    write_atomic(path, itertools.chain([f"{header}\r\n".encode("utf-8")], rows))


def load_csv(path) -> LabeledDataset:
    """Read the label-then-features CSV schema into a dataset.

    The header row is required. Every data row must hold one integer label
    followed by the same number of finite feature values; the first offending
    row is reported with its line number.
    """
    with _open_csv(path) as (fh, header, first_line):
        if header is None:
            raise DataError(f"{path}: empty file, header required")
        if len(header) < 2 or header[0] != "label":
            raise DataError(
                f"{path}: header must be 'label' followed by feature columns, got {header}"
            )
        width = len(header) - 1
        row_dtype = np.dtype([("label", np.int64), ("x", np.float64, (width,))])
        rows = _parse_rows(path, fh, first_line, row_dtype, width + 1, "non-numeric cell")
    inputs = np.ascontiguousarray(rows["x"])
    labels = np.ascontiguousarray(rows["label"])
    if not np.isfinite(inputs).all():
        bad_row = np.flatnonzero(~np.isfinite(inputs).all(axis=1))[0]
        raise DataError(f"{path}:{first_line + int(bad_row)}: non-finite value")
    return LabeledDataset(inputs=inputs, labels=labels)


@contextmanager
def _open_csv(path):
    """Yield the open file, its header row and the line number of the first data row.

    Undecodable bytes and cells past the ``csv`` field limit become a
    ``DataError``.
    """
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            yield fh, header, reader.line_num + 1
    except (UnicodeDecodeError, csv.Error) as exc:
        raise DataError(f"{path}: unreadable CSV ({exc})") from exc


_LOADTXT = dict(delimiter=",", comments=None, quotechar='"', ndmin=1)
_PAIR_ROW = np.dtype([("cells", np.int64, (3,))])
_LINE_ENDS = frozenset({"\n", "\r\n", "\r"})


def _parse_rows(path, fh, first_line: int, dtype, columns: int, bad_cell: str):
    """The rest of ``fh``, at least one line, parsed by one ``np.loadtxt`` call.

    ``dtype`` is a structured row of ``columns`` cells, so the parse yields
    one record per line and rejects a line with another column count. A
    blank line, which ``np.loadtxt`` would skip, is rejected too. When the
    parse fails, the file is read again line by line to report the first bad
    line (``bad_cell`` names a line with the right number of columns that
    does not parse).
    """

    def lines():
        for line_no, line in enumerate(fh, start=first_line):
            if line in _LINE_ENDS:
                raise DataError(f"{path}:{line_no}: expected {columns} columns, got 0")
            yield line

    data = lines()
    first = next(data, None)
    if first is None:
        raise DataError(f"{path}: no data rows")
    try:
        return np.loadtxt(itertools.chain([first], data), dtype=dtype, **_LOADTXT)
    except ValueError as exc:
        _raise_first_bad_line(path, first_line, dtype, columns, bad_cell)
        raise DataError(f"{path}: {exc}") from exc


def _raise_first_bad_line(path, first_line: int, dtype, columns: int, bad_cell: str) -> None:
    """Raise the ``DataError`` of the first data line of ``path`` that does not parse alone."""
    with open(path, newline="", encoding="utf-8") as fh:
        for line_no, line in enumerate(itertools.islice(fh, first_line - 1, None), first_line):
            row = next(csv.reader([line]), [])
            if len(row) != columns:
                raise DataError(f"{path}:{line_no}: expected {columns} columns, got {len(row)}")
            try:
                np.loadtxt([line], dtype=dtype, **_LOADTXT)
            except ValueError as exc:
                raise DataError(f"{path}:{line_no}: {bad_cell}") from exc
