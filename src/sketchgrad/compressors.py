"""Gradient compression operators.

Exact top-k, the l1-scaled sign compressor, and the two-round sketched
top-k aggregation used by the distributed optimizers: workers sketch
their payload vectors, the server merges the sketches and extracts
P*k candidate coordinates, a second round gathers the exact candidate
values from every worker, and the final update keeps the top-k of the
exact means. The scaled variant ranks candidates and winners by
estimate / sqrt(v_hat), which is how the gradient-averaging optimizer
applies its adaptive preconditioner through the sketch.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .sketch import CountSketch, SketchConfig, _cells, sketch_rows, top_m
from .sketch import sketch_vector  # noqa: F401  (perfbench traces it under this module)


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
            if np.any(np.diff(idx) <= 0):
                raise ValueError("indices must be strictly increasing")
        if not np.all(np.isfinite(val)):
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
    """Output of one two-round aggregation.

    per_worker_updates share global_update's index set, and their mean
    (accumulated in worker-index order) equals global_update exactly.
    For the scaled protocol the stored values are the raw worker values;
    the caller applies the 1/sqrt(v_hat) scaling.
    """

    global_update: SparseUpdate
    per_worker_updates: list[SparseUpdate]
    chosen_indices: np.ndarray
    candidate_indices: np.ndarray
    upstream_scalars: int
    downstream_scalars: int


def top_k(vector: np.ndarray, k: int) -> SparseUpdate:
    """The k largest-magnitude coordinates, ties broken by lower index."""
    vector = np.asarray(vector, dtype=np.float64)
    d = vector.shape[0]
    if not 1 <= k <= d:
        raise ValueError(f"k must be in [1, {d}], got {k}")
    idx = np.sort(top_m(np.abs(vector), k))
    return SparseUpdate(dim=d, indices=idx, values=vector[idx])


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


def sequential_mean(rows: list[np.ndarray]) -> np.ndarray:
    """Mean accumulated in list order; the fixed order keeps runs
    reproducible and lets tests rebuild the exact float result."""
    acc = np.zeros_like(rows[0])
    for r in rows:
        acc = acc + r
    return acc / len(rows)


def _merged_sketch(worker_vectors: list[np.ndarray], cfg: ProtocolConfig) -> CountSketch:
    """Mean of the worker sketches, summed in worker order."""
    dim = cfg.sketch.dim
    for w in worker_vectors:
        if w.shape != (dim,):
            raise ValueError(f"worker vector shape {w.shape} does not match dim {dim}")
    tables = sketch_rows(cfg.sketch, np.array(worker_vectors))
    acc = np.zeros(cfg.sketch.size)
    for w in range(len(worker_vectors)):
        acc += tables[:, w]
    acc /= len(worker_vectors)
    return CountSketch(cfg.sketch, acc.reshape(cfg.sketch.rows, cfg.sketch.cols))


def _round_two(
    worker_vectors: list[np.ndarray],
    cfg: ProtocolConfig,
    candidates: np.ndarray,
    ranking_scale: np.ndarray | None,
) -> AggregationResult:
    """Gather exact candidate values from every worker, rank the means
    (scaled if requested), and package the top-k as sparse updates."""
    candidate_vals = [w[candidates] for w in worker_vectors]
    mean_vals = sequential_mean(candidate_vals)
    scores = np.abs(mean_vals)
    if ranking_scale is not None:
        scores = scores / ranking_scale
    order = np.lexsort((candidates, -scores))
    pos = order[: cfg.k]
    ascending = np.argsort(candidates[pos], kind="stable")
    pos = pos[ascending]
    chosen = candidates[pos]
    dim = cfg.sketch.dim
    per_worker = [
        SparseUpdate(dim=dim, indices=chosen, values=v[pos]) for v in candidate_vals
    ]
    global_update = SparseUpdate(dim=dim, indices=chosen, values=mean_vals[pos])
    return AggregationResult(
        global_update=global_update,
        per_worker_updates=per_worker,
        chosen_indices=chosen,
        candidate_indices=candidates,
        upstream_scalars=cfg.upstream_scalars,
        downstream_scalars=cfg.downstream_scalars,
    )


def sketched_topk_aggregate(
    worker_vectors: list[np.ndarray], cfg: ProtocolConfig
) -> AggregationResult:
    """Two-round sketched aggregation of n worker vectors.

    Round 1 merges the worker sketches and extracts P*k candidates from
    the mean sketch; round 2 gathers exact candidate values and keeps
    the top-k of the exact means.
    """
    worker_vectors = [np.asarray(w, dtype=np.float64) for w in worker_vectors]
    merged = _merged_sketch(worker_vectors, cfg)
    candidates = merged.heavy_candidates(cfg.n_candidates)
    return _round_two(worker_vectors, cfg, candidates, None)


def sketched_topk_aggregate_scaled(
    worker_vectors: list[np.ndarray],
    v_hat: np.ndarray,
    cfg: ProtocolConfig,
    bucket_rescale: bool = False,
) -> AggregationResult:
    """Sketched aggregation ranking coordinates by |value| / sqrt(v_hat).

    Candidate extraction queries the merged sketch and divides each
    estimate by sqrt(v_hat_i) before ranking; round-2 means and the
    final top-k are ranked in the same scaled space. The returned
    updates hold unscaled worker values.

    bucket_rescale=True switches candidate extraction to the literal
    table-rescaling form (divide cell (j, h_j(i)) by sqrt(v_hat_i) for
    every coordinate i), which double-divides buckets shared by several
    coordinates; kept for fidelity experiments only.
    """
    worker_vectors = [np.asarray(w, dtype=np.float64) for w in worker_vectors]
    v_hat = np.asarray(v_hat, dtype=np.float64)
    if v_hat.shape != (cfg.sketch.dim,):
        raise ValueError("v_hat length must equal dim")
    if not np.all(v_hat > 0):
        raise ValueError("v_hat must be strictly positive")
    scale_vec = np.sqrt(v_hat)
    merged = _merged_sketch(worker_vectors, cfg)
    if bucket_rescale:
        cells, _ = _cells(cfg.sketch)
        divisor = np.ones(cfg.sketch.size)
        np.multiply.at(divisor, cells.ravel(), np.repeat(scale_vec, cfg.sketch.rows))
        rescaled = CountSketch(cfg.sketch, merged.table / divisor.reshape(merged.table.shape))
        candidates = rescaled.heavy_candidates(cfg.n_candidates)
    else:
        est = merged.estimate_all() / scale_vec
        candidates = top_m(np.abs(est), cfg.n_candidates)
    return _round_two(worker_vectors, cfg, candidates, scale_vec[candidates])


def compression_rate(dim: int, upstream_scalars: int, downstream_scalars: int) -> float:
    """2d / (scalars up per worker + scalars down), the per-iteration rate."""
    return 2.0 * dim / (upstream_scalars + downstream_scalars)
