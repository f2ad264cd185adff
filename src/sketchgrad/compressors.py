"""Gradient compression operators.

The l1-scaled sign compressor and the two-round sketched top-k
aggregation used by the distributed optimizers.
``sketched_topk_aggregate(payloads, cfg, v_hat=None)`` takes the
workers' payloads as the rows of one ``(n, dim)`` matrix: all rows are
sketched in one sparse product, the server merges the sketches and
extracts P*k candidate coordinates, a second round gathers the exact
candidate values from every worker, and the final update keeps the
top-k of the exact means. Given ``v_hat``, candidates and winners are
ranked by estimate / sqrt(v_hat), which is how the gradient-averaging
optimizer applies its adaptive preconditioner through the sketch.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .sketch import CountSketch, SketchConfig, sketch_rows, top_m


@dataclass(frozen=True)
class SparseUpdate:
    """A sparse vector: sorted unique indices plus their values."""

    dim: int
    indices: np.ndarray
    values: np.ndarray

    def __post_init__(self) -> None:
        idx = np.asarray(self.indices, dtype=np.int64)
        val = np.asarray(self.values, dtype=np.float64)
        object.__setattr__(self, "indices", idx)
        object.__setattr__(self, "values", val)
        if idx.ndim != 1 or val.ndim != 1 or idx.shape != val.shape:
            raise ValueError("indices and values must be 1-d and the same length")
        if idx.size > self.dim:
            raise ValueError("more entries than dim")
        if idx.size:
            if idx[0] < 0 or idx[-1] >= self.dim:
                raise ValueError("indices out of range")
            if (idx[1:] <= idx[:-1]).any():
                raise ValueError("indices must be strictly increasing")
        if not np.isfinite(val).all():
            raise ValueError("values must be finite")

    def densify(self) -> np.ndarray:
        out = np.zeros(self.dim, dtype=np.float64)
        out[self.indices] = self.values
        return out


@dataclass(frozen=True)
class ProtocolConfig:
    """Two-round aggregation parameters: final k, candidate factor P, sketch shape."""

    k: int
    p_factor: int
    sketch: SketchConfig

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ValueError(f"k must be >= 1, got {self.k}")
        if self.p_factor < 1:
            raise ValueError(f"p_factor must be >= 1, got {self.p_factor}")
        if self.k > self.sketch.dim:
            raise ValueError(f"k={self.k} exceeds dim={self.sketch.dim}")
        if self.k * self.p_factor > self.sketch.dim:
            raise ValueError(
                f"P*k={self.k * self.p_factor} exceeds dim={self.sketch.dim}"
            )

    @property
    def n_candidates(self) -> int:
        return self.k * self.p_factor

    @property
    def upstream_scalars(self) -> int:
        """Per-worker scalars sent up per aggregation: sketch cells + round-2 values."""
        return self.sketch.size + self.n_candidates

    @property
    def downstream_scalars(self) -> int:
        """Scalars broadcast down per aggregation: the k chosen values."""
        return self.k


@dataclass(frozen=True)
class AggregationResult:
    """Output of one two-round aggregation. global_update holds the exact
    mean of the workers' values on the chosen coordinates, accumulated in
    worker order; with v_hat, they are unscaled and the caller applies
    the 1/sqrt(v_hat) scaling."""

    global_update: SparseUpdate
    candidate_indices: np.ndarray


def sign_compress(vector: np.ndarray) -> np.ndarray:
    """Sign compressor: every coordinate becomes +/- mean(|x|).

    sign(0) is taken as +1. Satisfies
    norm(C(x) - x)^2 <= norm(x)^2 - norm1(x)^2 / d  (with equality).
    """
    vector = np.asarray(vector, dtype=np.float64)
    if vector.size == 0:
        raise ValueError("vector must be nonempty")
    magnitude = np.sum(np.abs(vector)) / vector.size
    return np.where(vector < 0, -magnitude, magnitude)


def sequential_mean(rows: np.ndarray | list[np.ndarray]) -> np.ndarray:
    """Mean of the rows (of a list or a 2-d array) accumulated in row
    order from +0.0, as a loop of acc += row; the fixed order keeps runs
    reproducible and lets tests rebuild the exact float result.

    One reduction, not a loop that pays numpy's call cost per row. numpy
    reduces the outer axis of a C-ordered array row by row, in the loop's
    order, but sums an F-ordered array (a transposed sketch product) and
    rows of one element pairwise, which rounds otherwise from 8 rows on.
    So the rows are made C-ordered, and one-element rows go through
    np.add.accumulate, sequential by definition, + 0.0 for the loop's +0.0.
    """
    rows = np.ascontiguousarray(rows)
    n = rows.shape[0]
    if n == 0:
        raise ValueError("no rows to average")
    if rows.size == n:
        return (np.add.accumulate(rows, axis=0)[-1] + 0.0) / n
    return np.add.reduce(rows, axis=0, initial=0.0) / n


def _merged_sketch(payloads: np.ndarray, cfg: ProtocolConfig) -> CountSketch:
    """Mean of the worker sketches, summed in worker order."""
    mean = sequential_mean(sketch_rows(cfg.sketch, payloads).T)
    return CountSketch(cfg.sketch, mean.reshape(cfg.sketch.rows, cfg.sketch.cols))


def sketched_topk_aggregate(
    payloads: np.ndarray | list[np.ndarray], cfg: ProtocolConfig, v_hat: np.ndarray | None = None
) -> AggregationResult:
    """Two-round sketched aggregation of the rows of an (n, dim) payload
    matrix, one row per worker.

    Round 1 merges the worker sketches and extracts P*k candidates from
    the mean sketch; round 2 gathers the exact candidate values and keeps
    the top-k of the exact means. With v_hat, both rounds rank by
    |value| / sqrt(v_hat): each point-query estimate is divided by
    sqrt(v_hat_i) before candidate ranking.
    """
    payloads = np.asarray(payloads, dtype=np.float64)
    merged = _merged_sketch(payloads, cfg)
    if v_hat is None:
        candidates = merged.heavy_candidates(cfg.n_candidates)
    else:
        v_hat = np.asarray(v_hat, dtype=np.float64)
        if v_hat.shape != (cfg.sketch.dim,):
            raise ValueError("v_hat length must equal dim")
        if not (v_hat > 0).all():
            raise ValueError("v_hat must be strictly positive")
        scale = np.sqrt(v_hat)
        candidates = top_m(np.abs(merged.estimate_all() / scale), cfg.n_candidates)
    mean_vals = sequential_mean(payloads[:, candidates])
    scores = np.abs(mean_vals)
    if v_hat is not None:
        scores = scores / scale[candidates]
    order = np.lexsort((candidates, -scores))
    pos = order[: cfg.k]
    pos = pos[np.argsort(candidates[pos], kind="stable")]
    return AggregationResult(
        global_update=SparseUpdate(cfg.sketch.dim, candidates[pos], mean_vals[pos]),
        candidate_indices=candidates,
    )


def compression_rate(dim: int, upstream_scalars: int, downstream_scalars: int) -> float:
    """2d / (scalars up per worker + scalars down), the per-iteration rate."""
    return 2.0 * dim / (upstream_scalars + downstream_scalars)
