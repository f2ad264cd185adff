"""Count sketch over real-valued vectors.

An r x c table of float64 counters with per-row sign and bucket hashes.
Inserting (index, value) adds sign_j(index) * value to cell
(j, bucket_j(index)) in every row j. The table is linear in the input
vector, so sketches from different workers can be summed cell-wise and
the result is the sketch of the summed vector. It is stored as one
sparse (r*c, dim) CSC operator S with r signed ones per column
(Charikar, Chen & Farach-Colton 2002), so sketching n vectors is one
sparse product, run by scipy's compiled CSC kernel. A point query
returns the median over rows of sign_j(i) * table[j, bucket_j(i)],
which for random inputs is within O(norm(x) / sqrt(c)) of the true
coordinate with failure probability decaying in r.

Hashes are derived from (seed, row, index) with a splitmix64-style
avalanche mixer: every worker that shares the config computes the same
hash family, so sketches built independently are mergeable. The bucket
comes from the high 32 bits of the mixed word, the sign from bit 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
import importlib.machinery
import importlib.util
import math
import os
import struct

import numpy as np

_MASK64 = (1 << 64) - 1
_ROW_SALT = 0x9E3779B97F4A7C15  # golden-ratio increment, salts the row key
_IDX_SPREAD = 0xC2B2AE3D27D4EB4F  # odd constant spreading small indices


def _load_sparsetools():
    """scipy's compiled sparse kernels, loaded from scipy/sparse/ without
    importing scipy.sparse, whose array-API shim imports numpy.f2py,
    numpy.testing and numpy.ma. The name must end in _sparsetools."""
    scipy = importlib.util.find_spec("scipy")
    roots = scipy.submodule_search_locations if scipy else []
    paths = [os.path.join(root, "sparse", "_sparsetools" + suffix)
             for root in roots for suffix in importlib.machinery.EXTENSION_SUFFIXES]
    for path in filter(os.path.isfile, paths):
        loader = importlib.machinery.ExtensionFileLoader(f"{__package__}._sparsetools", path)
        spec = importlib.util.spec_from_loader(loader.name, loader)
        module = importlib.util.module_from_spec(spec)
        loader.exec_module(module)
        return module
    raise ImportError(f"no scipy/sparse/_sparsetools extension among {paths}")


_csc_matvecs = _load_sparsetools().csc_matvecs


class IncompatibleSketchError(ValueError):
    """Raised when two sketches with different configs are combined."""


def check_elements(name: str, *sizes: int) -> None:
    """Reject an array shape with more elements than numpy can address."""
    if math.prod(sizes) > np.iinfo(np.intp).max:
        shape = " x ".join(map(str, sizes))
        raise ValueError(f"{name} ({shape}) has more elements than numpy can address")


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
        check_elements("the table, rows by cols", self.rows, self.cols)
        check_elements("the operator's cells, rows by dim", self.rows, self.dim)

    @property
    def size(self) -> int:
        """Number of table cells, the |S| term in communication accounting."""
        return self.rows * self.cols


_MIX1, _MIX2 = 0xBF58476D1CE4E5B9, 0x94D049BB133111EB  # splitmix64's multipliers
_ONE_BITS = np.uint64(0x3FF0000000000000)  # the float64 bit pattern of 1.0


def _row_key(config: SketchConfig, row: int) -> int:
    """splitmix64 finalizer of the salted row, in Python ints wrapped to 64 bits."""
    z = config.seed ^ (((row + 1) * _ROW_SALT) & _MASK64)
    z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
    z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
    return z ^ (z >> 31)


def _mix_into(h: np.ndarray, spare: np.ndarray) -> None:
    """splitmix64 finalizer of the uint64 array h, in place (wraps mod 2^64)."""
    for shift, mult in ((30, _MIX1), (27, _MIX2)):
        np.right_shift(h, np.uint64(shift), out=spare)
        h ^= spare
        h *= np.uint64(mult)
    np.right_shift(h, np.uint64(31), out=spare)
    h ^= spare


def _check_index(config: SketchConfig, index: int) -> None:
    if not 0 <= index < config.dim:
        raise ValueError(f"index {index} out of range [0, {config.dim})")


@lru_cache(maxsize=2)
def _operator(config: SketchConfig) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The read-only CSC arrays (data, indices, indptr) of the sparse
    (rows*cols, dim) matrix S: column i holds sign_j(i) at cell
    j*cols + bucket_j(i), so its cells ascend and need no sort. S @ x adds
    each cell's terms in ascending coordinate order from 0.0, as a loop of
    accumulate() does. Cached per config so the workers of one simulated
    cluster share it."""
    rows, cols, dim = config.rows, config.cols, config.dim
    idx_dtype = np.int32 if max(rows * dim, config.size) < 2**31 else np.int64
    spread = np.arange(1, dim + 1, dtype=np.uint64)
    spread *= np.uint64(_IDX_SPREAD)
    h, spare = np.empty(dim, dtype=np.uint64), np.empty(dim, dtype=np.uint64)
    cells = np.empty((dim, rows), dtype=idx_dtype)
    signs = np.empty((dim, rows), dtype=np.float64)
    sign_bits = signs.view(np.uint64)
    for j in range(rows):
        np.bitwise_xor(spread, np.uint64(_row_key(config, j)), out=h)
        _mix_into(h, spare)
        # hash bit 0 set gives -1.0: it becomes the float64 sign bit of 1.0
        np.left_shift(h, np.uint64(63), out=spare)
        np.bitwise_or(spare, _ONE_BITS, out=sign_bits[:, j])
        h >>= np.uint64(32)
        h %= np.uint64(cols)
        np.add(h, np.uint64(j * cols), out=cells[:, j], casting="unsafe")
    indptr = np.arange(0, rows * dim + 1, rows, dtype=idx_dtype)
    for arr in (signs, cells, indptr):
        arr.setflags(write=False)
    return signs.ravel(), cells.ravel(), indptr


def _cells(config: SketchConfig) -> tuple[np.ndarray, np.ndarray]:
    """(dim, rows) views of S's flat cell indices and signs."""
    data, indices, _ = _operator(config)
    shape = (config.dim, config.rows)
    return indices.reshape(shape), data.reshape(shape)


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
        _check_index(self.config, index)
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
        _check_index(self.config, index)
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
    """Sketch every row of an (n, dim) matrix with one S @ vectors.T, the
    kernel call scipy's csc_array product makes, so with its bits.

    Returns the (rows*cols, n) matrix whose column w is the row-major
    table of row w's sketch; cells of a finite input may overflow to
    +/-inf. Only a non-finite product scans the input: each non-finite
    coordinate leaves its rows cells non-finite, as the signs are +/-1.
    """
    vectors = np.asarray(vectors, dtype=np.float64)
    if vectors.ndim != 2 or vectors.shape[1] != config.dim:
        raise ValueError(f"vectors shape {vectors.shape} does not match (n, {config.dim})")
    data, indices, indptr = _operator(config)
    n = vectors.shape[0]
    out = np.zeros((config.size, n))
    _csc_matvecs(config.size, config.dim, n, indptr, indices, data,
                 np.ascontiguousarray(vectors.T).ravel(), out.ravel())
    if not np.isfinite(out).all() and not np.isfinite(vectors).all():
        raise ValueError("vectors must be finite")
    return out


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
