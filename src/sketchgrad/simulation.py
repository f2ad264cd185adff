"""Deterministic multi-worker training harness.

Workers are simulated inside one process with a synchronous round per
iteration; communication volume is accounted analytically by the
optimizer steps, not measured on a wire. Everything is seeded: problem
construction, data partitioning, and the per-(worker, iteration)
minibatch draws, so a (config, seed) pair reproduces a run bit for bit.
"""

from __future__ import annotations

import csv
import dataclasses
import logging
import math
import os
import tempfile
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .compressors import ProtocolConfig, compression_rate
from .optimizers import (
    DenseAmsgradState,
    GAServerState,
    GAWorkerState,
    HyperParams,
    PAWorkerState,
    SgdWorkerState,
    StepDiagnostics,
    dense_amsgrad_step,
    dense_sgd_step,
    ga_step,
    pa_step,
    sketched_sgd_step,
)
from .sketch import SketchConfig

logger = logging.getLogger(__name__)

VARIANTS = ("pa", "ga", "dense_amsgrad", "sketched_sgd", "dense_sgd")

SHADOW_GAP_TOL = 1e-9


class InvariantViolation(RuntimeError):
    """A runtime invariant check failed during a run."""


@dataclass
class Problem:
    """A differentiable objective.

    ``loss(x, batch)`` and ``gradient(x, batch)`` take an optional array
    of sample indices; ``batch=None`` means the full objective. Problems
    with ``n_samples == 0`` have no dataset; their stochasticity comes
    from additive gradient noise drawn by the harness with ``noise_std``.
    """

    name: str
    dim: int
    loss: Callable[[np.ndarray, np.ndarray | None], float]
    gradient: Callable[[np.ndarray, np.ndarray | None], np.ndarray]
    n_samples: int = 0
    labels: np.ndarray | None = None
    noise_std: float = 0.0
    optimum_value: float | None = None


def make_quadratic(
    dim: int, condition_number: float, seed: int, noise_std: float = 0.0
) -> Problem:
    """Diagonal quadratic 0.5 (x-x*)' A (x-x*) with eigenvalues log-spaced
    in [1, condition_number]; stochastic worker gradients add seeded
    Gaussian noise scaled by 1/sqrt(batch_size)."""
    if dim < 1:
        raise ValueError(f"dim must be >= 1, got {dim}")
    if condition_number < 1:
        raise ValueError(f"condition_number must be >= 1, got {condition_number}")
    rng = np.random.default_rng(seed)
    eigs = np.logspace(0.0, math.log10(condition_number), dim)
    x_star = rng.standard_normal(dim)

    def loss(x: np.ndarray, batch: np.ndarray | None = None) -> float:
        r = x - x_star
        return float(0.5 * np.dot(r, eigs * r))

    def gradient(x: np.ndarray, batch: np.ndarray | None = None) -> np.ndarray:
        return eigs * (x - x_star)

    return Problem(
        name="quadratic",
        dim=dim,
        loss=loss,
        gradient=gradient,
        noise_std=noise_std,
        optimum_value=0.0,
    )


def make_logreg(
    n_samples: int, dim: int, n_classes: int, seed: int, class_spread: float = 2.0
) -> tuple[Problem, tuple[np.ndarray, np.ndarray]]:
    """Multinomial logistic regression on a synthetic Gaussian mixture.

    ``dim`` is the parameter dimension and must be a multiple of
    n_classes; the weight matrix is x reshaped to (n_classes, features).
    Returns the problem and the (features, labels) dataset.
    """
    if n_classes < 2:
        raise ValueError(f"n_classes must be >= 2, got {n_classes}")
    if dim < n_classes or dim % n_classes != 0:
        raise ValueError(f"dim must be a positive multiple of n_classes, got {dim}")
    if n_samples < n_classes:
        raise ValueError(f"need at least one sample per class, got {n_samples}")
    n_features = dim // n_classes
    rng = np.random.default_rng(seed)
    centers = class_spread * rng.standard_normal((n_classes, n_features))
    labels = np.arange(n_samples) % n_classes
    rng.shuffle(labels)
    features = centers[labels] + rng.standard_normal((n_samples, n_features))

    def _select(batch: np.ndarray | None) -> tuple[np.ndarray, np.ndarray]:
        if batch is None:
            return features, labels
        return features[batch], labels[batch]

    def loss(x: np.ndarray, batch: np.ndarray | None = None) -> float:
        xb, yb = _select(batch)
        logits = xb @ x.reshape(n_classes, n_features).T
        logits = logits - logits.max(axis=1, keepdims=True)
        log_norm = np.log(np.sum(np.exp(logits), axis=1))
        return float(np.mean(log_norm - logits[np.arange(len(yb)), yb]))

    def gradient(x: np.ndarray, batch: np.ndarray | None = None) -> np.ndarray:
        xb, yb = _select(batch)
        logits = xb @ x.reshape(n_classes, n_features).T
        logits = logits - logits.max(axis=1, keepdims=True)
        probs = np.exp(logits)
        probs /= probs.sum(axis=1, keepdims=True)
        probs[np.arange(len(yb)), yb] -= 1.0
        return (probs.T @ xb / len(yb)).reshape(dim)

    problem = Problem(
        name="logreg",
        dim=dim,
        loss=loss,
        gradient=gradient,
        n_samples=n_samples,
        labels=labels,
    )
    return problem, (features, labels)


@dataclass(frozen=True)
class Partition:
    """Assignment of every sample to exactly one worker shard."""

    n_shards: int
    shard_of: np.ndarray
    mode: str
    skew_param: float

    def shards(self) -> list[np.ndarray]:
        return [np.flatnonzero(self.shard_of == i) for i in range(self.n_shards)]


def _largest_remainder(fractions: np.ndarray, total: int) -> np.ndarray:
    """Round nonnegative fractions summing to ~total into integers summing
    to exactly total; leftover units go to the largest remainders."""
    floors = np.floor(fractions).astype(np.int64)
    short = total - int(floors.sum())
    if short > 0:
        order = np.lexsort((np.arange(len(fractions)), -(fractions - floors)))
        floors[order[:short]] += 1
    return floors


def partition_data(
    labels: np.ndarray, n: int, mode: str, skew_param: float = 1.0, seed: int = 0
) -> Partition:
    """Split sample indices across n workers.

    iid: seeded shuffle then round-robin. label_skew: each worker draws
    its own class mix from Dirichlet(skew_param) and fills an equal
    quota from class-sorted pools in preference order, so smaller
    skew_param concentrates each shard on fewer classes. Shards are
    never empty (quotas are N//n or N//n + 1).
    """
    labels = np.asarray(labels)
    n_total = labels.shape[0]
    if n_total == 0:
        raise ValueError("dataset is empty")
    if not 1 <= n <= n_total:
        raise ValueError(f"need 1 <= n <= {n_total}, got {n}")
    rng = np.random.default_rng(seed)
    shard_of = np.empty(n_total, dtype=np.int64)
    if mode == "iid":
        perm = rng.permutation(n_total)
        shard_of[perm] = np.arange(n_total) % n
    elif mode == "label_skew":
        if not 0.0 < skew_param <= 1.0:
            raise ValueError(f"skew_param must be in (0, 1], got {skew_param}")
        classes = np.unique(labels)
        pools = [rng.permutation(np.flatnonzero(labels == c)) for c in classes]
        taken = np.zeros(len(classes), dtype=np.int64)
        weights = rng.dirichlet(np.full(len(classes), skew_param), size=n)
        quotas = np.full(n, n_total // n, dtype=np.int64)
        quotas[: n_total % n] += 1
        class_order = np.arange(len(classes))
        for i in range(n):
            desired = _largest_remainder(weights[i] * quotas[i], quotas[i])
            prefer = np.lexsort((class_order, -weights[i]))
            need = quotas[i]
            for c in prefer:
                if need == 0:
                    break
                cnt = min(int(desired[c]), len(pools[c]) - taken[c], need)
                if cnt > 0:
                    shard_of[pools[c][taken[c] : taken[c] + cnt]] = i
                    taken[c] += cnt
                    need -= cnt
            # shortfall (preferred pools exhausted): drain the largest
            # remaining pools whole, which preserves concentration
            while need > 0:
                remaining = np.array([len(p) for p in pools]) - taken
                c = np.lexsort((class_order, -remaining))[0]
                cnt = min(int(remaining[c]), need)
                shard_of[pools[c][taken[c] : taken[c] + cnt]] = i
                taken[c] += cnt
                need -= cnt
    else:
        raise ValueError(f"mode must be 'iid' or 'label_skew', got {mode!r}")
    return Partition(n_shards=n, shard_of=shard_of, mode=mode, skew_param=skew_param)


@dataclass(frozen=True)
class ProblemSpec:
    kind: str
    dim: int
    condition_number: float = 10.0
    noise_std: float = 1.0
    n_samples: int = 512
    n_classes: int = 2
    class_spread: float = 2.0


def build_problem(spec: ProblemSpec, seed: int) -> Problem:
    if spec.kind == "quadratic":
        return make_quadratic(spec.dim, spec.condition_number, seed, spec.noise_std)
    if spec.kind == "logreg":
        problem, _ = make_logreg(
            spec.n_samples, spec.dim, spec.n_classes, seed, spec.class_spread
        )
        return problem
    raise ValueError(f"unknown problem kind {spec.kind!r}")


@dataclass(frozen=True)
class RunConfig:
    problem: ProblemSpec
    variant: str = "ga"
    alpha: float = 0.01
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-4
    horizon: int = 100
    n_workers: int = 4
    k: int = 500
    p_factor: int = 4
    rows: int = 5
    cols: int = 400
    batch_size: int = 32
    partition_mode: str = "iid"
    skew_param: float = 1.0
    seed: int = 0
    trace_path: str | None = None
    check_invariants: bool = True

    def __post_init__(self) -> None:
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        if not 0 <= self.seed < 2**63:
            raise ValueError(f"seed must be a nonnegative 63-bit integer, got {self.seed}")

    def hyper(self) -> HyperParams:
        return HyperParams(
            alpha=self.alpha,
            beta1=self.beta1,
            beta2=self.beta2,
            epsilon=self.epsilon,
            horizon=self.horizon,
            n_workers=self.n_workers,
        )

    def protocol(self, dim: int) -> ProtocolConfig:
        sk = SketchConfig(rows=self.rows, cols=self.cols, seed=self.seed, dim=dim)
        return ProtocolConfig(k=self.k, p_factor=self.p_factor, sketch=sk)


@dataclass(frozen=True)
class TraceRecord:
    iter: int
    train_loss: float
    grad_norm_sq: float
    upstream_scalars: int
    downstream_scalars: int
    compression_rate: float
    contraction_ratio: float
    topk_overlap: float
    shadow_gap: float


TRACE_FIELDS = [f.name for f in dataclasses.fields(TraceRecord)]


def _worker_rng(seed: int, t: int, worker: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, t, worker]))


def _worker_gradients(
    problem: Problem,
    x: np.ndarray,
    shards: list[np.ndarray] | None,
    config: RunConfig,
    t: int,
) -> list[np.ndarray]:
    grads = []
    for i in range(config.n_workers):
        rng = _worker_rng(config.seed, t, i)
        if problem.n_samples == 0:
            g = problem.gradient(x, None)
            if problem.noise_std > 0.0:
                g = g + (problem.noise_std / math.sqrt(config.batch_size)) * rng.standard_normal(
                    problem.dim
                )
        else:
            shard = shards[i]
            batch = shard[rng.integers(0, shard.shape[0], size=config.batch_size)]
            g = problem.gradient(x, batch)
        grads.append(g)
    return grads


class _Cluster:
    """Optimizer state plus a one-step dispatcher for a chosen variant."""

    def __init__(self, config: RunConfig, problem: Problem):
        self.config = config
        self.variant = config.variant
        if self.variant not in VARIANTS:
            raise ValueError(f"variant must be one of {VARIANTS}, got {config.variant!r}")
        self.hyper = config.hyper()
        self.x = np.zeros(problem.dim)
        self.proto = None
        track = config.check_invariants
        n, d, eps = config.n_workers, problem.dim, config.epsilon
        if self.variant in ("pa", "ga", "sketched_sgd"):
            self.proto = config.protocol(d)
        if self.variant == "pa":
            self.workers = [PAWorkerState.initial(d, eps) for _ in range(n)]
            self.shadow = self.x.copy() if track else None
        elif self.variant == "ga":
            self.server = GAServerState.initial(self.x, eps, track_shadow=track)
            self.workers = [GAWorkerState.initial(d) for _ in range(n)]
            self.x = self.server.x
        elif self.variant == "dense_amsgrad":
            self.server = DenseAmsgradState.initial(self.x, eps)
            self.x = self.server.x
        elif self.variant == "sketched_sgd":
            self.workers = [SgdWorkerState.initial(d) for _ in range(n)]

    def step(self, grads: list[np.ndarray], t: int) -> StepDiagnostics:
        if self.variant == "pa":
            _, self.x, diag = pa_step(
                self.workers, self.x, grads, self.hyper, self.proto, t, shadow_x=self.shadow
            )
        elif self.variant == "ga":
            _, _, diag = ga_step(self.workers, self.server, grads, self.hyper, self.proto, t)
        elif self.variant == "dense_amsgrad":
            _, diag = dense_amsgrad_step(self.server, grads, self.hyper, t)
        elif self.variant == "sketched_sgd":
            _, self.x, diag = sketched_sgd_step(
                self.workers, self.x, grads, self.hyper, self.proto, t
            )
        else:
            self.x, diag = dense_sgd_step(self.x, grads, self.hyper, t)
        return diag

    def v_hats(self) -> list[np.ndarray]:
        """The live v_hat arrays, which must never decrease."""
        if self.variant == "pa":
            return [w.v_hat for w in self.workers]
        if self.variant in ("ga", "dense_amsgrad"):
            return [self.server.v_hat]
        return []


def _check_step_invariants(cluster: _Cluster, diag: StepDiagnostics, prev_v_hat, t: int) -> None:
    if not math.isnan(diag.shadow_gap) and diag.shadow_gap > SHADOW_GAP_TOL:
        raise InvariantViolation(
            f"shadow identity violated at iteration {t}: gap {diag.shadow_gap:.3e} "
            f"> {SHADOW_GAP_TOL:.0e}"
        )
    if prev_v_hat is not None:
        for old, new in zip(prev_v_hat, cluster.v_hats()):
            if np.any(new < old):
                raise InvariantViolation(f"v_hat decreased at iteration {t}")
    if cluster.variant == "ga":
        for w in cluster.workers:
            if np.any(w.e[cluster.server.last_indices] != 0.0):
                raise InvariantViolation(f"error not zero on chosen set at iteration {t}")


def run(config: RunConfig) -> tuple[np.ndarray, list[TraceRecord]]:
    """Execute one seeded training run and return (final x, trace)."""
    problem = build_problem(config.problem, config.seed)
    shards = None
    if problem.n_samples > 0:
        partition = partition_data(
            problem.labels, config.n_workers, config.partition_mode, config.skew_param, config.seed
        )
        shards = partition.shards()
    cluster = _Cluster(config, problem)
    records: list[TraceRecord] = []
    grad_inf_max = 0.0
    for t in range(1, config.horizon + 1):
        grads = _worker_gradients(problem, cluster.x, shards, config, t)
        grad_inf_max = max(grad_inf_max, max(float(np.max(np.abs(g))) for g in grads))
        prev_v_hat = [v.copy() for v in cluster.v_hats()] if config.check_invariants else None
        diag = cluster.step(grads, t)
        if config.check_invariants:
            _check_step_invariants(cluster, diag, prev_v_hat, t)
        full_grad = problem.gradient(cluster.x, None)
        records.append(
            TraceRecord(
                iter=t,
                train_loss=problem.loss(cluster.x, None),
                grad_norm_sq=float(np.dot(full_grad, full_grad)),
                upstream_scalars=diag.upstream_scalars,
                downstream_scalars=diag.downstream_scalars,
                compression_rate=compression_rate(
                    problem.dim, diag.upstream_scalars, diag.downstream_scalars
                ),
                contraction_ratio=diag.contraction_ratio,
                topk_overlap=diag.topk_overlap,
                shadow_gap=diag.shadow_gap,
            )
        )
    # bounded-gradient constant of the run, reported for reference
    logger.info("max worker gradient inf-norm over run: %.6g", grad_inf_max)
    if config.trace_path is not None:
        write_trace(records, config.trace_path)
    return cluster.x, records


def _format_cell(value) -> str:
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return format(float(value), ".17g")


def write_trace(records: list[TraceRecord], path: str) -> None:
    """Write the trace CSV atomically (temp file, then rename)."""
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(TRACE_FIELDS)
            for rec in records:
                writer.writerow(
                    [_format_cell(getattr(rec, name)) for name in TRACE_FIELDS]
                )
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def smoothed_threshold_iteration(
    grad_norms: list[float], threshold: float, window: int = 25
) -> int:
    """First 1-based iteration where the trailing moving average of
    grad_norm_sq drops to the threshold; len(grad_norms) if never."""
    for t in range(1, len(grad_norms) + 1):
        lo = max(0, t - window)
        if float(np.mean(grad_norms[lo:t])) <= threshold:
            return t
    return len(grad_norms)


def speedup_sweep(
    base_config: RunConfig,
    worker_counts: list[int],
    threshold: float,
    window: int = 25,
) -> list[tuple[int, int]]:
    """Iterations to reach a grad_norm_sq target as the cluster grows.

    Per-worker batch size is held fixed, so the total batch scales with
    n; reaching the target faster with more workers is the speedup the
    averaging provides.
    """
    rows = []
    for n in worker_counts:
        config = dataclasses.replace(base_config, n_workers=n)
        _, records = run(config)
        norms = [r.grad_norm_sq for r in records]
        rows.append((n, smoothed_threshold_iteration(norms, threshold, window)))
    return rows
