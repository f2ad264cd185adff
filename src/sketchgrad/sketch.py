"""Count sketch over real-valued vectors.

An r x c table of float64 counters with per-row sign and bucket hashes.
Inserting (index, value) adds sign_j(index) * value to cell
(j, bucket_j(index)) in every row j. The table is linear in the input
vector, so sketches from different workers can be summed cell-wise and
the result is the sketch of the summed vector. It is stored as one
sparse (r*c, dim) operator S with r signed ones per column (Charikar,
Chen & Farach-Colton 2002), so sketching n vectors is one sparse
product. A point query returns the median over rows of
sign_j(i) * table[j, bucket_j(i)], which for random inputs is within
O(norm(x) / sqrt(c)) of the true coordinate with failure probability
decaying in r.

Hashes are derived from (seed, row, index) with a splitmix64-style
avalanche mixer: every worker that shares the config computes the same
hash family, so sketches built independently are mergeable. The bucket
comes from the high 32 bits of the mixed word, the sign from bit 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
import struct

import numpy as np
from scipy import sparse

_MASK64 = (1 << 64) - 1
_ROW_SALT = 0x9E3779B97F4A7C15  # golden-ratio increment, salts the row key
_IDX_SPREAD = 0xC2B2AE3D27D4EB4F  # odd constant spreading small indices


class IncompatibleSketchError(ValueError):
    """Raised when two sketches with different configs are combined."""


@dataclass(frozen=True)
class SketchConfig:
    """Shape and hash-seed agreement for a family of mergeable sketches."""

    rows: int
    cols: int
    seed: int
    dim: int

    def __post_init__(self) -> None:
        if self.rows < 1 or self.cols < 1 or self.dim < 1:
            raise ValueError(
                f"rows, cols, dim must be >= 1, got ({self.rows}, {self.cols}, {self.dim})"
            )
        if not 0 <= self.seed <= _MASK64:
            raise ValueError(f"seed must fit in 64 bits, got {self.seed}")

    @property
    def size(self) -> int:
        """Number of table cells, the |S| term in communication accounting."""
        return self.rows * self.cols


def _mix64(z: np.ndarray) -> np.ndarray:
    """Vectorized splitmix64 finalizer; z must be uint64 (wraps mod 2^64)."""
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


def _row_key(config: SketchConfig, row: int) -> int:
    # a one-element array: numpy scalars warn when the multiply wraps
    word = np.array([config.seed ^ (((row + 1) * _ROW_SALT) & _MASK64)], dtype=np.uint64)
    return int(_mix64(word)[0])


def _cell_hash(config: SketchConfig, row: int, indices: np.ndarray) -> np.ndarray:
    """Mixed 64-bit word for each index in one row (uint64 array in, uint64 out)."""
    spread = (indices + np.uint64(1)) * np.uint64(_IDX_SPREAD)
    return _mix64(spread ^ np.uint64(_row_key(config, row)))


def _check_row_index(config: SketchConfig, row: int, index: int) -> None:
    if not 0 <= row < config.rows:
        raise ValueError(f"row {row} out of range [0, {config.rows})")
    if not 0 <= index < config.dim:
        raise ValueError(f"index {index} out of range [0, {config.dim})")


def bucket_hash(config: SketchConfig, row: int, index: int) -> int:
    """Bucket in [0, cols) for a coordinate in one row."""
    _check_row_index(config, row, index)
    h = _cell_hash(config, row, np.array([index], dtype=np.uint64))[0]
    return int(h >> np.uint64(32)) % config.cols


def sign_hash(config: SketchConfig, row: int, index: int) -> int:
    """Sign in {-1, +1} for a coordinate in one row."""
    _check_row_index(config, row, index)
    h = _cell_hash(config, row, np.array([index], dtype=np.uint64))[0]
    return 1 if (int(h) & 1) == 0 else -1


@lru_cache(maxsize=2)
def _operator(config: SketchConfig) -> sparse.csc_array:
    """The sketch as a sparse (rows*cols, dim) CSC matrix S: column i holds
    sign_j(i) at cell j*cols + bucket_j(i), so its cells ascend and need no
    sort. S @ x adds each cell's terms in ascending coordinate order from
    0.0, as a loop of accumulate() does. Cached per config so the workers
    of one simulated cluster share it."""
    rows, cols, dim = config.rows, config.cols, config.dim
    idx_dtype = np.int32 if max(rows * dim, config.size) < 2**31 else np.int64
    all_idx = np.arange(dim, dtype=np.uint64)
    cells = np.empty((dim, rows), dtype=idx_dtype)
    signs = np.empty((dim, rows), dtype=np.float64)
    for j in range(rows):
        h = _cell_hash(config, j, all_idx)
        cells[:, j] = (h >> np.uint64(32)) % np.uint64(cols) + np.uint64(j * cols)
        signs[:, j] = np.where((h & np.uint64(1)) == 0, 1.0, -1.0)
    indptr = np.arange(0, rows * dim + 1, rows, dtype=idx_dtype)
    op = sparse.csc_array((signs.ravel(), cells.ravel(), indptr), shape=(config.size, dim))
    for arr in (op.data, op.indices, op.indptr):
        arr.setflags(write=False)
    return op


def _cells(config: SketchConfig) -> tuple[np.ndarray, np.ndarray]:
    """(dim, rows) views of S's flat cell indices and signs."""
    op = _operator(config)
    shape = (config.dim, config.rows)
    return op.indices.reshape(shape), op.data.reshape(shape)


def top_m(scores: np.ndarray, m: int) -> np.ndarray:
    """Indices of the m largest scores, largest first, ties broken by lower
    index; O(d) plus a sort of the entries tied with or above the m-th."""
    d = scores.shape[0]
    if not 1 <= m <= d:
        raise ValueError(f"m must be in [1, {d}], got {m}")
    threshold = np.partition(scores, d - m)[d - m]
    survivors = np.flatnonzero(scores >= threshold)
    order = np.argsort(-scores[survivors], kind="stable")
    return survivors[order[:m]]


@lru_cache(maxsize=None)
def _median_network(n: int) -> tuple[tuple[int, int, bool, bool], ...]:
    """Batcher's odd-even merge sort on n wires, pruned to the comparators
    the middle output (the two middle ones for even n) depends on.

    Each entry (a, b, keep_min, keep_max) compares wires a < b, puts the
    min on a and the max on b, and says which of the two is read later.
    """
    p = 1 << (n - 1).bit_length()
    net = []
    t = 1
    while t < p:
        k = t
        while k >= 1:
            for j in range(k % t, p - k, 2 * k):
                for i in range(min(k, p - j - k)):
                    a, b = i + j, i + j + k
                    # wires at n and above would hold +inf: their comparators are no-ops
                    if a // (2 * t) == b // (2 * t) and b < n:
                        net.append((a, b))
            k //= 2
        t *= 2
    live = {(n - 1) // 2, n // 2}
    pruned = []
    for a, b in reversed(net):
        if a in live or b in live:
            pruned.append((a, b, a in live, b in live))
            live |= {a, b}
    return tuple(reversed(pruned))


def _median_of_rows(vals: np.ndarray) -> np.ndarray:
    """Median of each column of an (n, m) array, as np.median(vals, axis=0)
    takes it up to the sign of a zero; overwrites vals.

    A pruned comparator network of np.minimum/np.maximum: each returns
    one of its inputs, so every output is the value np.sort would put in
    the middle. No array is allocated beyond one spare row.
    """
    wires = list(vals)
    spare = np.empty_like(wires[0])
    for a, b, keep_min, keep_max in _median_network(len(wires)):
        lo, hi = wires[a], wires[b]
        if keep_min and keep_max:
            np.minimum(lo, hi, out=spare)
            np.maximum(lo, hi, out=hi)
            wires[a], spare = spare, lo
        elif keep_min:
            np.minimum(lo, hi, out=lo)
        else:
            np.maximum(lo, hi, out=hi)
    n = len(wires)
    if n % 2:
        return wires[n // 2]
    return (wires[n // 2 - 1] + wires[n // 2]) / 2


class CountSketch:
    """One r x c table plus the config that defines its hash family."""

    __slots__ = ("config", "table")

    def __init__(self, config: SketchConfig, table: np.ndarray | None = None):
        if table is None:
            table = np.zeros((config.rows, config.cols), dtype=np.float64)
        else:
            table = np.asarray(table, dtype=np.float64)
            if table.shape != (config.rows, config.cols):
                raise ValueError(
                    f"table shape {table.shape} does not match config "
                    f"({config.rows}, {config.cols})"
                )
        self.config = config
        self.table = table

    def accumulate(self, index: int, value: float) -> "CountSketch":
        """Add one (index, value) update; touches exactly one cell per row.

        Zero-valued updates are no-ops (identical table, less work).
        """
        _check_row_index(self.config, 0, index)
        if not np.isfinite(value):
            raise ValueError(f"value must be finite, got {value}")
        if value == 0.0:
            return self
        cells, signs = _cells(self.config)
        rows = np.arange(self.config.rows)
        self.table[rows, cells[index] % self.config.cols] += signs[index] * value
        return self

    def estimate(self, index: int) -> float:
        """Median-of-rows point query for one coordinate; bit-identical to
        estimate_all()[index], since both take the same median."""
        _check_row_index(self.config, 0, index)
        cells, signs = _cells(self.config)
        vals = signs[index] * self.table.reshape(-1)[cells[index]]
        return float(_median_of_rows(vals[:, None])[0])

    def estimate_all(self) -> np.ndarray:
        """Point-query every coordinate (the median over rows, as np.median
        takes it, up to the sign of a zero); O(dim * rows)."""
        cells, signs = _cells(self.config)
        vals = np.take(self.table.reshape(-1), cells.T)
        vals *= signs.T
        return _median_of_rows(vals)

    def heavy_candidates(self, m: int) -> np.ndarray:
        """Indices of the m largest |estimate|, ties broken by lower index.

        Queries all dim coordinates; at the vector sizes this library
        targets that is cheaper than maintaining a heap during insertion.
        """
        return top_m(np.abs(self.estimate_all()), m)

    def to_bytes(self) -> bytes:
        """Wire format: 4 little-endian u64 (rows, cols, seed, dim), then
        rows*cols little-endian f64 row-major."""
        c = self.config
        header = struct.pack("<QQQQ", c.rows, c.cols, c.seed, c.dim)
        return header + self.table.astype("<f8", copy=False).tobytes(order="C")

    @classmethod
    def from_bytes(cls, data: bytes) -> "CountSketch":
        if len(data) < 32:
            raise ValueError(f"expected at least 32 bytes, got {len(data)}")
        rows, cols, seed, dim = struct.unpack_from("<QQQQ", data, 0)
        config = SketchConfig(rows=rows, cols=cols, seed=seed, dim=dim)
        expected = 32 + rows * cols * 8
        if len(data) != expected:
            raise ValueError(f"expected {expected} bytes, got {len(data)}")
        table = np.frombuffer(data, dtype="<f8", offset=32).reshape(rows, cols)
        return cls(config, table.astype(np.float64))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CountSketch):
            return NotImplemented
        return self.config == other.config and np.array_equal(self.table, other.table)


def sketch_vector(config: SketchConfig, vector: np.ndarray) -> CountSketch:
    """Sketch a dense vector as S @ vector, by sketch_rows on one row;
    bit-identical to a fresh sketch with accumulate applied to every
    nonzero coordinate, in index order (a zero coordinate adds +/-0.0,
    which leaves every cell unchanged)."""
    table = sketch_rows(config, np.asarray(vector)[None])
    return CountSketch(config, table.reshape(config.rows, config.cols))


def sketch_rows(config: SketchConfig, vectors: np.ndarray) -> np.ndarray:
    """Sketch every row of an (n, dim) matrix with one S @ vectors.T.

    Returns the (rows*cols, n) matrix whose column w is the row-major
    table of row w's sketch.
    """
    vectors = np.asarray(vectors, dtype=np.float64)
    if vectors.ndim != 2 or vectors.shape[1] != config.dim:
        raise ValueError(f"vectors shape {vectors.shape} does not match (n, {config.dim})")
    if not np.all(np.isfinite(vectors)):
        raise ValueError("vectors must be finite")
    return _operator(config) @ vectors.T


def merge(a: CountSketch, b: CountSketch) -> CountSketch:
    """Cell-wise sum of two sketches built with identical configs."""
    if a.config != b.config:
        raise IncompatibleSketchError(
            f"cannot merge sketches with configs {a.config} and {b.config}"
        )
    return CountSketch(a.config, a.table + b.table)


def scale(sketch: CountSketch, factor: float) -> CountSketch:
    """Every cell multiplied by factor (linearity: scale(S(x), a) = S(a*x))."""
    if not np.isfinite(factor):
        raise ValueError(f"factor must be finite, got {factor}")
    return CountSketch(sketch.config, sketch.table * factor)
