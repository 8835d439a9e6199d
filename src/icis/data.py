"""Domain containers, on-disk formats, split handling, and the synthetic
task generator.

Formats (documented bit-exactly in the README):

* Matrix container: magic ``WSMAT01\\n``, then row count and column count as
  unsigned 32-bit little-endian integers, then rows*cols IEEE-754 single
  precision little-endian values in row-major order. CSV with a header row
  is accepted as an alternative for small files (extension ``.csv``).
* Identity sidecar: UTF-8 text next to a matrix file (extension ``.ids``),
  one class id (or per-row label) per line.
* Split manifest: UTF-8 text with sections ``[seen]``, ``[unseen]``,
  ``[val_seen]``, one class id per line.
"""

import csv as _csv
import io
import math
import os
import struct
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import ClassIdError, DataFormatError, IcisError
from .tensor import RngState, as_matrix, check_finite, rand_normal, row_blocks, row_normalize

MATRIX_MAGIC = b"WSMAT01\n"
_HEADER_LEN = len(MATRIX_MAGIC) + 8

# The reader reads and checks a payload this many values at a time: the
# chunk (256 KiB of float32) and its finiteness mask fit in a 2 MiB L2.
READ_CHUNK = 1 << 16

_FLOAT32_MAX = float(np.finfo(np.float32).max)


# ---------------------------------------------------------------------------
# matrix container

def check_float32_range(m: np.ndarray, what: str = "matrix") -> np.ndarray:
    """``m`` if every entry is finite as float32, the type of the payload on
    disk; otherwise an :class:`IcisError`. Writers call it before they open
    the file, so a rejected matrix leaves no file behind."""
    # min and max propagate NaN, so two reductions decide it with no temporary the size of m
    if m.size and not (-_FLOAT32_MAX <= m.min() and m.max() <= _FLOAT32_MAX):
        raise IcisError(f"{what} has entries that are not finite as float32")
    return m


def _as_stored(data) -> np.ndarray:
    """``data`` itself when it is a C-contiguous 2-D float32 array, the type
    of the container's payload, else :func:`as_matrix` of it."""
    if isinstance(data, np.ndarray) and data.dtype == np.float32 and data.ndim == 2 and data.flags.c_contiguous:
        return data
    return as_matrix(data)


def _staging_buffer(m: np.ndarray, blocks, dtype, gathered: bool = False) -> np.ndarray | None:
    """A ``dtype`` buffer for the largest of ``blocks``' row ranges of ``m``
    when ``m`` is not of ``dtype``, or when ``gathered`` blocks are staged
    in it, else ``None``: rows of ``dtype`` are scored as they are."""
    if m.dtype == dtype and not gathered:
        return None
    return np.empty((max(hi - lo for lo, hi in blocks), m.shape[1]), dtype=dtype)


def _staged(m: np.ndarray, take, buffer: np.ndarray | None) -> np.ndarray:
    """Rows ``take`` of ``m``, a slice (a view) or an index array
    (gathered), in the type of ``buffer``. With no ``buffer`` they are
    taken as they are, and so is a view of ``buffer``'s type. Other rows go
    to the front of ``buffer``: gathered there with no temporary when of its
    type, else copied into its type (exactly, from float32 into float64)."""
    if buffer is None or (isinstance(take, slice) and m.dtype == buffer.dtype):
        return m[take]
    if m.dtype == buffer.dtype:
        return np.take(m, take, axis=0, out=buffer[: take.size], mode="clip")  # "raise" would buffer
    rows = m[take]
    staged = buffer[: rows.shape[0]]
    np.copyto(staged, rows)
    return staged


def write_matrix_block(f, matrix) -> None:
    """Write one binary matrix block (magic, shape, float32 payload) to the
    open binary file ``f``; the caller has checked it with
    :func:`check_float32_range`. Float32 rows are written as they are, and
    other rows through one float32 copy."""
    m = _as_stored(matrix)
    rows, cols = m.shape
    if rows >= 2**32 or cols >= 2**32:
        raise IcisError(f"matrix dimensions {m.shape} exceed the 32-bit container limit")
    f.write(MATRIX_MAGIC)
    f.write(struct.pack("<II", rows, cols))
    f.write(memoryview(np.ascontiguousarray(m, dtype="<f4")))


def read_matrix_block(f, path) -> np.ndarray:
    """Read the matrix block at the current position of the open binary file
    ``f``, leaving ``f`` just past it.

    The result holds the payload's float32 values exactly. It is allocated
    once and read into ``READ_CHUNK`` values at a time, each chunk checked
    as it arrives, so the file is never held whole next to it. Malformed or
    non-finite blocks raise :class:`DataFormatError` naming ``path`` and the
    offending byte offset.
    """
    pos = f.tell()
    size = os.fstat(f.fileno()).st_size
    if f.read(len(MATRIX_MAGIC)) != MATRIX_MAGIC:
        raise DataFormatError(path, f"bad magic; expected {MATRIX_MAGIC!r}", offset=pos)
    dims = f.read(8)
    if len(dims) < 8:
        raise DataFormatError(path, "truncated header", offset=size)
    rows, cols = struct.unpack("<II", dims)
    end = pos + _HEADER_LEN + 4 * rows * cols
    if size < end:
        raise DataFormatError(
            path,
            f"truncated payload for declared shape ({rows}, {cols}): need {end} bytes, have {size}",
            offset=size,
        )
    m = np.empty((rows, cols), dtype="<f4")
    flat = m.reshape(-1)
    for lo in range(0, flat.size, READ_CHUNK):
        chunk = flat[lo : lo + READ_CHUNK]
        if f.readinto(memoryview(chunk)) < chunk.nbytes:
            raise DataFormatError(path, "truncated payload", offset=f.tell())
        finite = np.isfinite(chunk)
        if not finite.all():
            bad = lo + int(np.argmin(finite))
            raise DataFormatError(path, "payload contains a non-finite value", offset=pos + _HEADER_LEN + 4 * bad)
    return m


@contextmanager
def open_binary(path):
    """``path`` opened for binary reading; an ``OSError`` while it is open
    becomes a :class:`DataFormatError`."""
    try:
        with open(path, "rb") as f:
            yield f
    except OSError as exc:
        raise DataFormatError(path, f"cannot read file: {exc}") from exc


def save_matrix(path, matrix) -> None:
    """Write a matrix in the binary container (32-bit on disk)."""
    path = Path(path)
    if path.suffix == ".csv":
        _save_matrix_csv(path, matrix)
        return
    m = check_float32_range(_as_stored(matrix))
    with open(path, "wb") as f:
        write_matrix_block(f, m)


def load_matrix(path) -> np.ndarray:
    """Read a matrix from the binary container, as float32, or from a
    headered CSV file, as float64."""
    path = Path(path)
    if path.suffix == ".csv":
        return _load_matrix_csv(path)
    with open_binary(path) as f:
        m = read_matrix_block(f, path)
        end, size = f.tell(), os.fstat(f.fileno()).st_size
    if size > end:
        raise DataFormatError(path, f"{size - end} trailing bytes after payload", offset=end)
    return m


def _save_matrix_csv(path: Path, matrix) -> None:
    m = check_finite(as_matrix(matrix))
    with open(path, "w", newline="") as f:
        writer = _csv.writer(f)
        writer.writerow([f"c{j}" for j in range(m.shape[1])])
        writer.writerows(m.tolist())


def _load_matrix_csv(path: Path) -> np.ndarray:
    reader = _csv.reader(io.StringIO(_read_utf8(path), newline=""))
    try:
        header = next(reader, None)
        if header is None:
            raise DataFormatError(path, "empty CSV; a header row is required")
        cols = len(header)
        rows = []
        for lineno, record in enumerate(reader, start=2):
            if not record:
                continue
            if len(record) != cols:
                raise DataFormatError(path, f"line {lineno}: expected {cols} fields, got {len(record)}")
            try:
                values = [float(x) for x in record]
            except ValueError as exc:
                raise DataFormatError(path, f"line {lineno}: {exc}") from None
            if not all(map(math.isfinite, values)):
                raise DataFormatError(path, f"line {lineno}: non-finite value")
            rows.append(values)
    except _csv.Error as exc:
        raise DataFormatError(path, f"line {reader.line_num}: {exc}") from None
    return np.asarray(rows, dtype=np.float64).reshape(len(rows), cols)


# ---------------------------------------------------------------------------
# identity sidecars

def ids_path_for(matrix_path) -> Path:
    return Path(matrix_path).with_suffix(".ids")


def biases_path_for(weights_path) -> Path:
    """The ``<stem>.biases<suffix>`` sidecar that holds a head's biases."""
    path = Path(weights_path)
    return path.with_name(path.stem + ".biases" + path.suffix)


def _check_writable_ids(ids, manifest: bool = False) -> None:
    """Refuse, as a :class:`ClassIdError`, an id that would not read back
    as itself: one that is empty, has leading or trailing whitespace or
    holds a line break (the readers strip lines, skip blank ones and split
    at every line break ``str.splitlines`` knows). A manifest also refuses
    an id that would read as a comment (``#...``) or a section header
    (``[...]``)."""
    for i in map(str, ids):
        if i.strip() != i or i.splitlines() != [i]:
            raise ClassIdError(f"id {i!r} would not read back: empty, padded with whitespace or holding a line break")
        if manifest and (i.startswith("#") or (i.startswith("[") and i.endswith("]"))):
            raise ClassIdError(f"manifest id {i!r} would read back as a comment or a section header")


def save_ids(path, ids) -> None:
    _check_writable_ids(ids)
    Path(path).write_text("".join(f"{i}\n" for i in ids), encoding="utf-8")


def _read_utf8(path: Path) -> str:
    """The text of a UTF-8 file; an unreadable or undecodable file is a DataFormatError."""
    try:
        raw = path.read_bytes()
    except OSError as exc:
        raise DataFormatError(path, f"cannot read file: {exc}") from exc
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise DataFormatError(path, f"not UTF-8: {exc.reason}", offset=exc.start) from None


def load_ids(path) -> list:
    path = Path(path)
    text = _read_utf8(path)
    return [line.strip() for line in text.splitlines() if line.strip()]


def _check_unique(ids, what: str):
    seen = set()
    for i in ids:
        if i in seen:
            raise ClassIdError(f"duplicate {what} id {i!r}")
        seen.add(i)


def _ids_per_row(ids, matrix, what: str, unique: str | None = None) -> list:
    """``ids`` as strings, one per row of the ``what`` matrix: class ids,
    checked unique as ``unique`` ids, or, without ``unique``, labels."""
    ids = [str(i) for i in ids]
    if unique:
        _check_unique(ids, unique)
    if len(ids) != matrix.shape[0]:
        raise ClassIdError(f"{what} matrix has {matrix.shape[0]} rows but {len(ids)} "
                           f"{'class ids' if unique else 'labels'}")
    return ids


def rows_of(class_ids, ids) -> list:
    """Row of each of ``ids`` in ``class_ids``, in the order of ``ids``.

    The id -> row index is built on every call: ``class_ids`` is a public,
    mutable list, so a cached index could go stale. An unknown id is a
    :class:`ClassIdError` naming it.
    """
    index = {c: r for r, c in enumerate(class_ids)}
    try:
        return [index[str(i)] for i in ids]
    except KeyError as exc:
        raise ClassIdError(f"unknown class id {exc.args[0]!r}") from None


def _load_with_ids(matrix_path):
    """A matrix and the ids (or labels) of the sidecar next to it; the
    container built from them checks that there is one per row."""
    return load_matrix(matrix_path), load_ids(ids_path_for(matrix_path))


def from_file(path, make, *args):
    """``make(*args)`` on arguments read from ``path``: the container's
    refusal becomes a :class:`DataFormatError` naming that file."""
    try:
        return make(*args)
    except IcisError as exc:
        raise DataFormatError(path, str(exc)) from None


def _save_with_ids(matrix_path, matrix, ids) -> None:
    _check_writable_ids(ids)
    save_matrix(matrix_path, matrix)
    save_ids(ids_path_for(matrix_path), ids)


# ---------------------------------------------------------------------------
# containers

@dataclass
class DescriptorSet:
    """Per-class semantic vectors with class identities."""

    class_ids: list
    matrix: np.ndarray

    def __post_init__(self):
        self.matrix = check_finite(as_matrix(self.matrix), "descriptor matrix")
        self.class_ids = _ids_per_row(self.class_ids, self.matrix, "descriptor", "descriptor")

    def vector(self, class_id) -> np.ndarray:
        return self.matrix[rows_of(self.class_ids, [class_id])[0]]

    def subset(self, ids) -> "DescriptorSet":
        rows = rows_of(self.class_ids, ids)
        return DescriptorSet([self.class_ids[r] for r in rows], self.matrix[rows])

    def save(self, matrix_path) -> None:
        _save_with_ids(matrix_path, self.matrix, self.class_ids)


def load_descriptor_set(matrix_path) -> DescriptorSet:
    matrix, ids = _load_with_ids(matrix_path)
    return from_file(matrix_path, DescriptorSet, ids, matrix)


@dataclass
class ClassifierHead:
    """Per-class weight rows (optionally with biases) of a linear classifier.

    C-contiguous float32 weights, such as a loaded head's, are kept as they
    are; any other weights become float64. Scoring goes through
    :meth:`logit_blocks`, which stages rows of another type than the walk's
    one class block at a time."""

    class_ids: list
    weights: np.ndarray
    biases: np.ndarray | None = None
    seen: np.ndarray | None = None

    def __post_init__(self):
        self.weights = check_finite(_as_stored(self.weights), "classifier weights")
        self.class_ids = _ids_per_row(self.class_ids, self.weights, "weight", "classifier")
        # row sums of squares: zero exactly where the norm is, with no temporary the size of the weights
        zero = np.einsum("ij,ij->i", self.weights, self.weights, dtype=np.float64) == 0.0
        if zero.any():
            raise IcisError(f"classifier head contains zero-norm weight rows, first of class "
                            f"{self.class_ids[int(np.argmax(zero))]!r}")
        if self.biases is not None:
            self.biases = np.ascontiguousarray(self.biases, dtype=np.float64).reshape(-1)
            if self.biases.shape[0] != self.weights.shape[0]:
                raise ClassIdError("bias vector length does not match weight rows")
        if self.seen is None:
            self.seen = np.ones(len(self.class_ids), dtype=bool)
        else:
            self.seen = np.asarray(self.seen, dtype=bool).reshape(-1)
            if self.seen.shape[0] != self.weights.shape[0]:
                raise ClassIdError("seen-flag length does not match weight rows")

    @property
    def n_classes(self) -> int:
        return self.weights.shape[0]

    @property
    def weight_dim(self) -> int:
        return self.weights.shape[1]

    def logits(self, features: np.ndarray) -> np.ndarray:
        """The scores of ``features`` against every row, biases added: float32
        when the weights and the features are both float32, else float64.
        Mixed float32 and float64 operands upcast the whole head, so scorers
        go through :meth:`logit_blocks`, which stages one block at a time."""
        features = _as_stored(features) if self.weights.dtype == np.float32 else as_matrix(features)
        if features.shape[1] != self.weight_dim:
            raise IcisError(
                f"feature dim {features.shape[1]} does not match weight dim {self.weight_dim}"
            )
        scores = features @ self.weights.T
        if self.biases is not None:
            scores += self.biases
        return scores

    @classmethod
    def _of_checked_rows(cls, class_ids, weights, biases, seen) -> "ClassifierHead":
        """A head of rows that passed ``__post_init__``'s checks as part of
        heads already built, put together without running them again."""
        head = object.__new__(cls)
        head.class_ids, head.weights, head.biases, head.seen = class_ids, weights, biases, seen
        return head

    def logit_blocks(self, features, rows, budget: int, dtype=np.float64):
        """``(lo, clo, logits)``: the logits of feature rows ``lo`` onwards
        against head rows ``rows[clo:]``, as many as ``logits`` has rows and
        columns. ``features`` is an array of feature rows or
        :class:`FeatureRows`, such as a feature set's :attr:`FeatureSet.rows`.
        ``budget`` is in bytes of ``dtype``: each block is scored
        with :meth:`logits` against ``rows`` in class blocks of about
        ``budget`` bytes of weights, in ascending ``clo``, and the feature
        rows are taken in blocks small enough that the staged block and each
        logits block hold about ``budget`` bytes. A class block is a view
        when ``rows`` is one ascending run, else gathered; a feature-row
        block is a view when its rows are one run of consecutive rows of
        their matrix, else gathered.
        Rows of ``dtype``, features or weights, are scored as they are; other
        rows are staged as ``dtype`` (float32 into float64 exactly, float64
        into float32 rounded) by copying each block into one buffer per walk
        for the feature rows and one for the class rows, each the size of its
        largest block, so no block of them is allocated again; gathered
        feature-row blocks go to the feature buffer too. The logits
        are float32 when both sides are, and each block is a fresh array.
        Blocks carry no ids or flags."""
        features = FeatureRows.of(features)
        rows = np.asarray(rows, dtype=np.intp)
        ranged = rows.size > 0 and bool(np.all(np.diff(rows) == 1))
        elements = budget // np.dtype(dtype).itemsize
        classes = list(row_blocks(rows.size, self.weight_dim, elements))
        samples = list(row_blocks(len(features), max(classes[0][1], self.weight_dim), elements))
        takes = [features.take(lo, hi) for lo, hi in samples]
        gathered = not all(isinstance(take, slice) for take in takes)
        x_buffer = _staging_buffer(features.matrix, samples, dtype, gathered)
        w_buffer = _staging_buffer(self.weights, classes, dtype)
        for (lo, _), sample in zip(samples, takes):
            x = _staged(features.matrix, sample, x_buffer)
            for clo, chi in classes:
                take = slice(rows[0] + clo, rows[0] + chi) if ranged else rows[clo:chi]
                biases = None if self.biases is None else self.biases[take]
                block = ClassifierHead._of_checked_rows(None, _staged(self.weights, take, w_buffer), biases, None)
                yield lo, clo, block.logits(x)
                del block  # a gathered block is dropped before the next is gathered

    def subset(self, ids) -> "ClassifierHead":
        rows = rows_of(self.class_ids, ids)
        class_ids = [self.class_ids[r] for r in rows]
        _check_unique(class_ids, "classifier")
        biases = None if self.biases is None else self.biases[rows]
        return ClassifierHead._of_checked_rows(class_ids, self.weights[rows], biases, self.seen[rows])

    def save(self, weights_path) -> None:
        """Write the weights with their ``.ids`` sidecar and any biases as one
        row to the ``<stem>.biases<suffix>`` sidecar."""
        if self.biases is not None:
            check_float32_range(self.biases, "bias vector")  # before any file is written
        _save_with_ids(weights_path, self.weights, self.class_ids)
        if self.biases is not None:
            save_matrix(biases_path_for(weights_path), self.biases.reshape(1, -1))


def load_classifier_head(weights_path, biases_path=None, seen_ids=None) -> ClassifierHead:
    """A head read from ``weights_path`` and its ``.ids`` sidecar. Its biases
    come from ``biases_path``, else from the ``<stem>.biases<suffix>``
    sidecar when one exists; with neither, it has none."""
    weights, ids = _load_with_ids(weights_path)
    if biases_path is None and biases_path_for(weights_path).exists():
        biases_path = biases_path_for(weights_path)
    biases = None
    if biases_path is not None:
        biases = load_matrix(biases_path)
        if biases.shape != (1, weights.shape[0]):
            raise DataFormatError(biases_path, f"bias matrix has shape {biases.shape}; "
                                               f"expected one row of {weights.shape[0]} biases")
    seen = None
    if seen_ids is not None:
        seen_ids = {str(s) for s in seen_ids}
        seen = np.array([i in seen_ids for i in ids], dtype=bool)
    return from_file(weights_path, ClassifierHead, ids, weights, biases, seen)


class FeatureRows:
    """Rows of a feature matrix, at ascending ``positions`` in it, as
    scoring reads them: indexing picks some of them and :meth:`take` a
    range of them, and no row is copied until a block of them is staged
    (:meth:`ClassifierHead.logit_blocks`)."""

    def __init__(self, matrix: np.ndarray, positions: np.ndarray):
        self.matrix, self.positions = matrix, positions

    @classmethod
    def of(cls, features) -> "FeatureRows":
        """``features`` if they are :class:`FeatureRows`, else every row of
        the array as stored: C-contiguous float32 rows as they are, other
        rows as float64."""
        if isinstance(features, FeatureRows):
            return features
        matrix = _as_stored(features)
        return cls(matrix, np.arange(matrix.shape[0]))

    @property
    def shape(self) -> tuple:
        return self.positions.size, self.matrix.shape[1]

    def __len__(self) -> int:
        return self.positions.size

    def __getitem__(self, index) -> "FeatureRows":
        return FeatureRows(self.matrix, self.positions[index])

    def take(self, lo: int, hi: int):
        """Rows ``lo:hi`` of these as an index into the matrix: a slice when
        they are one run of consecutive rows, else their positions."""
        p = self.positions[lo:hi]
        if np.all(np.diff(p) == 1):
            start = int(p[0]) if p.size else 0
            return slice(start, start + p.size)
        return p


class FeatureSet:
    """Per-sample feature vectors with class labels.

    C-contiguous float32 features, such as a loaded feature set's, are kept
    as they are; any other features become float64. A part that
    :meth:`restrict_to` splits off shares the matrix of the set it comes
    from: its :attr:`rows` hold that matrix and the ascending positions of
    the part's rows in it, so no row is copied, and its :attr:`features`
    is a gathered copy of them. Scoring reads :attr:`rows` one feature-row
    block at a time (:meth:`ClassifierHead.logit_blocks`)."""

    def __init__(self, features, labels):
        self.rows = FeatureRows.of(check_finite(_as_stored(features), "feature matrix"))
        self.labels = _ids_per_row(labels, self.rows.matrix, "feature")
        self._part = False

    @property
    def features(self) -> np.ndarray:
        """The set's rows: its matrix, or a part's rows gathered from it."""
        return self.rows.matrix[self.rows.positions] if self._part else self.rows.matrix

    @property
    def n_samples(self) -> int:
        return len(self.rows)

    def restrict_to(self, class_ids) -> "FeatureSet":
        """The part of these rows labelled one of ``class_ids``, in their
        order here. It shares this set's matrix and checks no row again."""
        wanted = {str(c) for c in class_ids}
        mask = np.array([l in wanted for l in self.labels], dtype=bool)
        part = object.__new__(FeatureSet)
        part.rows, part.labels, part._part = self.rows[mask], [l for l in self.labels if l in wanted], True
        return part

    def check_labels_known(self, known_ids) -> None:
        known = {str(c) for c in known_ids}
        unknown = sorted({l for l in self.labels if l not in known})
        if unknown:
            raise ClassIdError(f"feature labels not in any known class list: {unknown[:5]}")

    def save(self, matrix_path) -> None:
        _save_with_ids(matrix_path, self.features, self.labels)


def load_feature_set(matrix_path) -> FeatureSet:
    features, labels = _load_with_ids(matrix_path)
    return from_file(matrix_path, FeatureSet, features, labels)


# ---------------------------------------------------------------------------
# split manifests

@dataclass
class SplitManifest:
    """Seen/unseen class split with an optional validation subset of seen."""

    seen: list
    unseen: list
    val_seen: list = field(default_factory=list)

    def __post_init__(self):
        self.seen = [str(i) for i in self.seen]
        self.unseen = [str(i) for i in self.unseen]
        self.val_seen = [str(i) for i in self.val_seen]
        _check_unique(self.seen, "seen")
        _check_unique(self.unseen, "unseen")
        _check_unique(self.val_seen, "validation")
        overlap = set(self.seen) & set(self.unseen)
        if overlap:
            raise ClassIdError(f"seen and unseen overlap: {sorted(overlap)[:5]}")
        stray = set(self.val_seen) - set(self.seen)
        if stray:
            raise ClassIdError(f"validation ids not in seen: {sorted(stray)[:5]}")


def save_manifest(path, manifest: SplitManifest) -> None:
    _check_writable_ids(manifest.seen + manifest.unseen + manifest.val_seen, manifest=True)
    lines = ["[seen]"] + manifest.seen + ["[unseen]"] + manifest.unseen
    if manifest.val_seen:
        lines += ["[val_seen]"] + manifest.val_seen
    Path(path).write_text("".join(f"{l}\n" for l in lines), encoding="utf-8")


def load_manifest(path) -> SplitManifest:
    path = Path(path)
    text = _read_utf8(path)
    sections = {"seen": [], "unseen": [], "val_seen": []}
    current = None
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("[") and line.endswith("]"):
            name = line[1:-1]
            if name not in sections:
                raise DataFormatError(path, f"line {lineno}: unknown section [{name}]")
            current = name
        elif current is None:
            raise DataFormatError(path, f"line {lineno}: class id before any section header")
        else:
            sections[current].append(line)
    return from_file(path, SplitManifest, sections["seen"], sections["unseen"], sections["val_seen"])


# ---------------------------------------------------------------------------
# descriptor/weight pairs

@dataclass
class PairSet:
    """Aligned (descriptor row, weight row) pairs for a set of classes."""

    class_ids: list
    descriptors: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        self.class_ids = [str(i) for i in self.class_ids]
        _check_unique(self.class_ids, "pair")
        self.descriptors = as_matrix(self.descriptors)
        self.weights = as_matrix(self.weights)
        n = len(self.class_ids)
        if self.descriptors.shape[0] != n or self.weights.shape[0] != n:
            raise ClassIdError(
                f"pair set misaligned: {n} ids, {self.descriptors.shape[0]} descriptor rows, "
                f"{self.weights.shape[0]} weight rows"
            )

    def __len__(self) -> int:
        return len(self.class_ids)

    def subset(self, ids) -> "PairSet":
        rows = rows_of(self.class_ids, ids)
        return PairSet([self.class_ids[r] for r in rows], self.descriptors[rows], self.weights[rows])


def make_pairs(descriptors: DescriptorSet, head: ClassifierHead, include_bias: bool = False) -> PairSet:
    """Join descriptors and head rows on class id, in head order.

    With ``include_bias`` the head bias is appended to each weight row as an
    extra coordinate, so the regression target carries it; heads without
    biases get an appended zero.
    """
    rows = rows_of(descriptors.class_ids, head.class_ids)
    weights = head.weights
    if include_bias:
        biases = head.biases if head.biases is not None else np.zeros(head.n_classes)
        weights = np.hstack([weights, biases[:, None]])
    return PairSet(list(head.class_ids), descriptors.matrix[rows], weights)


# ---------------------------------------------------------------------------
# synthetic tasks

@dataclass
class SynthTask:
    """A generated task with known ground truth for oracle comparisons."""

    descriptors: DescriptorSet
    head: ClassifierHead
    features: FeatureSet
    true_unseen_weights: np.ndarray
    manifest: SplitManifest


def synth_generate(
    seed: int,
    n_seen: int,
    n_unseen: int,
    d_a: int,
    d_w: int,
    map_kind: str = "linear",
    noise_std: float = 0.0,
    samples_per_class: int = 50,
    feature_noise: float = 0.0,
    *,
    margin: float = 1.0,
    descriptor_rank: int | None = None,
) -> SynthTask:
    """Generate a desk-scale task with a known descriptor-to-weight map.

    Descriptors are i.i.d. Gaussian (optionally drawn from a rank-limited
    subspace plus small jitter when ``descriptor_rank`` is set, which makes
    classes correlated). A ground-truth map (random linear, or a random
    two-layer net) produces raw weights ``M(a) + noise``, which are then
    row-normalised; equal-norm rows make the margin construction exact.
    Features for class ``c`` are ``margin * w_c + feature_noise * eps``, so
    the true head classifies every noiseless sample correctly.
    """
    if d_a < 1 or d_w < 1:
        raise IcisError("descriptor and weight dims must be >= 1")
    if n_seen < 2:
        raise IcisError("need at least 2 seen classes")
    if n_unseen < 0:
        raise IcisError("n_unseen must be >= 0")
    if samples_per_class < 0:
        raise IcisError("samples_per_class must be >= 0")

    n_total = n_seen + n_unseen
    width = max(3, len(str(n_total - 1)))
    ids = [f"c{i:0{width}d}" for i in range(n_total)]
    seen_ids, unseen_ids = ids[:n_seen], ids[n_seen:]

    root = RngState(seed)
    rng_a = root.spawn("descriptors")
    rng_m = root.spawn("map")
    rng_n = root.spawn("map-noise")
    rng_x = root.spawn("features")

    if descriptor_rank is None:
        a = rand_normal(rng_a, n_total, d_a, 1.0)
    else:
        rank = int(descriptor_rank)
        if not 1 <= rank <= d_a:
            raise IcisError(f"descriptor_rank must be in [1, {d_a}], got {rank}")
        factors = rand_normal(rng_a, n_total, rank, 1.0)
        basis = rand_normal(rng_a, rank, d_a, 1.0 / np.sqrt(rank))
        a = factors @ basis + rand_normal(rng_a, n_total, d_a, 0.05)

    if map_kind == "linear":
        m = rand_normal(rng_m, d_w, d_a, 1.0 / np.sqrt(d_a))
        raw = a @ m.T
    elif map_kind == "mlp":
        hidden = 2 * max(d_a, d_w)
        w1 = rand_normal(rng_m, hidden, d_a, np.sqrt(2.0 / d_a))
        w2 = rand_normal(rng_m, d_w, hidden, np.sqrt(1.0 / hidden))
        raw = np.maximum(a @ w1.T, 0.0) @ w2.T
    else:
        raise IcisError(f"unknown map_kind {map_kind!r}; expected 'linear' or 'mlp'")

    true_weights = row_normalize(raw + rand_normal(rng_n, n_total, d_w, float(noise_std)))

    spc = int(samples_per_class)
    noise = rand_normal(rng_x, n_total * spc, d_w, float(feature_noise))
    features = np.repeat(true_weights * float(margin), spc, axis=0) + noise
    labels = [c for c in ids for _ in range(spc)]

    descriptors = DescriptorSet(ids, a)
    head = ClassifierHead(seen_ids, true_weights[:n_seen], seen=np.ones(n_seen, dtype=bool))
    manifest = SplitManifest(seen_ids, unseen_ids)
    return SynthTask(descriptors, head, FeatureSet(features, labels), true_weights[n_seen:].copy(), manifest)


def subsample_pairs(pairs: PairSet, fraction: float, seed: int) -> PairSet:
    """Seeded class subsample; subsets are nested for increasing fractions
    under one seed, and original order is preserved (fraction 1.0 is the
    identity)."""
    if not 0.0 < fraction <= 1.0:
        raise IcisError(f"fraction must be in (0, 1], got {fraction}")
    n = min(int(round(fraction * len(pairs))), len(pairs))
    if n < 2:
        raise IcisError(f"fraction {fraction} leaves {n} pairs; at least 2 are required")
    order = RngState(seed).spawn("pair-subsample").permutation(len(pairs))
    keep = sorted(order[:n].tolist())
    return pairs.subset([pairs.class_ids[i] for i in keep])
