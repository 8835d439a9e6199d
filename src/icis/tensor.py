"""Dense matrix helpers and seeded randomness.

A "matrix" throughout this package is a 2-D, C-contiguous ``float64`` numpy
array; a classifier head's weights, a feature set's rows and what the binary
reader returns may instead be ``float32``, the type stored on disk, and are
staged one block at a time in the type of the walk that scores them. The
helpers here validate shapes at module boundaries and raise the package's
structured errors instead of letting numpy broadcast silently.

Randomness goes through :class:`RngState`, a thin wrapper around numpy's
Philox counter-based bit generator. Philox is chosen over the platform
default because its streams are reproducible across platforms and can be
split into independent sub-streams, which keeps every experiment a pure
function of its seed.
"""

import hashlib

import numpy as np

from .errors import IcisError, ShapeMismatchError, ZeroNormError


def as_matrix(data) -> np.ndarray:
    """Coerce ``data`` to a 2-D float64 C-contiguous array."""
    m = np.ascontiguousarray(data, dtype=np.float64)
    if m.ndim != 2:
        raise ShapeMismatchError("expected a 2-D matrix", left=m.shape, right="(rows, cols)")
    return m


def as_vector(data) -> np.ndarray:
    """Coerce ``data`` to a 1-D float64 array."""
    v = np.ascontiguousarray(data, dtype=np.float64)
    if v.ndim != 1:
        raise ShapeMismatchError("expected a 1-D vector", left=v.shape, right="(n,)")
    return v


def check_finite(m: np.ndarray, what: str = "matrix") -> np.ndarray:
    # min and max propagate NaN, so two reductions decide it with no temporary the size of m
    if m.size and not (np.isfinite(m.min()) and np.isfinite(m.max())):
        raise IcisError(f"{what} contains non-finite entries")
    return m


def row_normalize(m, ids=None) -> np.ndarray:
    """Scale every row to unit Euclidean norm. Zero rows are an error that
    names them by their ``ids`` when given, else by position."""
    m = as_matrix(m)
    norms = np.linalg.norm(m, axis=1)
    if np.any(norms == 0.0):
        zero = np.flatnonzero(norms == 0.0).tolist()
        where = f"at {zero}" if ids is None else f"of class(es) {[ids[i] for i in zero]}"
        raise ZeroNormError(f"cannot normalise zero row(s) {where}")
    return m / norms[:, None]


def row_blocks(rows: int, width: int, budget: int):
    """``(lo, hi)`` bounds that cover ``range(rows)`` (zero rows: one empty
    block) in blocks of about ``budget`` elements of a ``width``-column array.
    A one-row remainder joins the block before it: OpenBLAS sends a one-row
    product to GEMV, which rounds differently from GEMM."""
    step = max(2, budget // max(width, 1))
    lo = 0
    while True:
        hi = rows if rows - lo <= step + 1 else lo + step
        yield lo, hi
        if hi == rows:
            return
        lo = hi


class RngState:
    """Deterministic random stream backed by the Philox counter generator.

    Identical ``(seed, stream)`` pairs produce identical draw sequences on
    every platform. ``spawn`` derives independent named sub-streams, so one
    top-level seed can drive initialisation, shuffling, and data synthesis
    without their draws interfering.
    """

    def __init__(self, seed: int, stream: int = 0):
        self.seed = int(seed)
        if self.seed < 0:
            raise IcisError(f"seed must be >= 0, got {self.seed}")
        self.stream = int(stream)
        self._gen = np.random.Generator(np.random.Philox(np.random.SeedSequence((self.seed, self.stream))))

    def spawn(self, label) -> "RngState":
        """Independent stream derived from this state's seed and ``label``."""
        if isinstance(label, str):
            digest = hashlib.sha256(label.encode("utf-8")).digest()
            label = int.from_bytes(digest[:8], "little")
        return RngState(self.seed, (self.stream * 0x9E3779B9 + int(label) + 1) & 0xFFFFFFFFFFFFFFFF)

    def normal(self, rows: int, cols: int, std: float = 1.0) -> np.ndarray:
        return rand_normal(self, rows, cols, std)

    def standard_normal(self, shape) -> np.ndarray:
        return self._gen.standard_normal(shape)

    def permutation(self, n: int) -> np.ndarray:
        return self._gen.permutation(n)


def rand_normal(rng: RngState, rows: int, cols: int, std: float) -> np.ndarray:
    """Matrix of i.i.d. zero-mean Gaussians with the given standard deviation.

    Advances ``rng`` by exactly ``rows * cols`` draws regardless of ``std``,
    so a zero-std call (exact zero matrix) keeps the stream aligned with a
    nonzero-std call of the same shape.
    """
    if std < 0:
        raise IcisError(f"standard deviation must be >= 0, got {std}")
    draws = rng._gen.standard_normal((int(rows), int(cols)))
    draws *= float(std)
    return draws
