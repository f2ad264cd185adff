"""Deterministic multi-worker training harness.

Workers are simulated inside one process with a synchronous round per
iteration; communication volume is accounted analytically by the
optimizer steps, not measured on a wire. Everything is seeded: problem
construction, data partitioning, and the per-(worker, iteration)
minibatch draws, so a (config, seed) pair reproduces a run bit for bit.
"""

from __future__ import annotations

import concurrent.futures
import csv
import dataclasses
import logging
import math
import os
from dataclasses import dataclass
from typing import Callable, TextIO

import numpy as np

from .compressors import ProtocolConfig, compression_rate
from .optimizers import (
    SKETCHED,
    VARIANTS,
    HyperParams,
    NumericError,
    OptimizerState,
    StepDiagnostics,
    step,
)
from .sketch import SketchConfig

logger = logging.getLogger(__name__)

SHADOW_GAP_TOL = 1e-9


class InvariantViolation(RuntimeError):
    """A runtime invariant check failed during a run."""


@dataclass
class Problem:
    """A differentiable objective.

    ``loss(x, batch)`` and ``gradient(x, batch)`` take an optional array
    of sample indices; ``batch=None`` means the full objective.
    ``evaluate(x)`` returns ``(loss(x, None), gradient(x, None))``, bit
    for bit, from one shared pass: for logistic regression it computes
    the logits over the whole dataset once, not twice. Problems with
    ``n_samples == 0`` have no dataset; their stochasticity comes from
    additive gradient noise drawn by the harness with ``noise_std``.
    """

    name: str
    dim: int
    loss: Callable[[np.ndarray, np.ndarray | None], float]
    gradient: Callable[[np.ndarray, np.ndarray | None], np.ndarray]
    evaluate: Callable[[np.ndarray], tuple[float, np.ndarray]]
    n_samples: int = 0
    labels: np.ndarray | None = None
    noise_std: float = 0.0


def _check_quadratic(dim: int, condition_number: float, noise_std: float) -> None:
    if dim < 1:
        raise ValueError(f"dim must be >= 1, got {dim}")
    # written so that NaN fails too
    if not 1 <= condition_number < math.inf:
        raise ValueError(f"condition_number must be finite and >= 1, got {condition_number}")
    if not 0 <= noise_std < math.inf:
        raise ValueError(f"noise_std must be finite and >= 0, got {noise_std}")


def make_quadratic(
    dim: int, condition_number: float, seed: int, noise_std: float = 0.0
) -> Problem:
    """Diagonal quadratic 0.5 (x-x*)' A (x-x*) with eigenvalues log-spaced
    in [1, condition_number]; stochastic worker gradients add seeded
    Gaussian noise scaled by 1/sqrt(batch_size)."""
    _check_quadratic(dim, condition_number, noise_std)
    rng = np.random.default_rng(seed)
    eigs = np.logspace(0.0, math.log10(condition_number), dim)
    x_star = rng.standard_normal(dim)

    def evaluate(x: np.ndarray) -> tuple[float, np.ndarray]:
        r = x - x_star
        g = eigs * r
        return float(0.5 * np.dot(r, g)), g

    def loss(x: np.ndarray, batch: np.ndarray | None = None) -> float:
        return evaluate(x)[0]

    def gradient(x: np.ndarray, batch: np.ndarray | None = None) -> np.ndarray:
        return eigs * (x - x_star)

    return Problem(
        name="quadratic",
        dim=dim,
        loss=loss,
        gradient=gradient,
        evaluate=evaluate,
        noise_std=noise_std,
    )


def _check_logreg(n_samples: int, dim: int, n_classes: int, class_spread: float) -> None:
    if not math.isfinite(class_spread):
        raise ValueError(f"class_spread must be finite, got {class_spread}")
    if n_classes < 2:
        raise ValueError(f"n_classes must be >= 2, got {n_classes}")
    if dim < n_classes or dim % n_classes != 0:
        raise ValueError(f"dim must be a positive multiple of n_classes, got {dim}")
    if n_samples < n_classes:
        raise ValueError(f"need at least one sample per class, got {n_samples}")


def make_logreg(
    n_samples: int, dim: int, n_classes: int, seed: int, class_spread: float = 2.0
) -> tuple[Problem, tuple[np.ndarray, np.ndarray]]:
    """Multinomial logistic regression on a synthetic Gaussian mixture.

    ``dim`` is the parameter dimension and must be a multiple of
    n_classes; the weight matrix is x reshaped to (n_classes, features).
    Returns the problem and the (features, labels) dataset.
    """
    _check_logreg(n_samples, dim, n_classes, class_spread)
    n_features = dim // n_classes
    rng = np.random.default_rng(seed)
    centers = class_spread * rng.standard_normal((n_classes, n_features))
    labels = np.arange(n_samples) % n_classes
    rng.shuffle(labels)
    features = centers[labels] + rng.standard_normal((n_samples, n_features))

    def _softmax(x: np.ndarray, batch: np.ndarray | None) -> tuple[np.ndarray, ...]:
        """The batch's features and labels, its max-shifted logits, their
        exps and the exps' row sums; batch None is the whole dataset."""
        xb, yb = (features, labels) if batch is None else (features[batch], labels[batch])
        logits = xb @ x.reshape(n_classes, n_features).T
        logits = logits - logits.max(axis=1, keepdims=True)
        exps = np.exp(logits)
        return xb, yb, logits, exps, exps.sum(axis=1)

    def _loss(yb: np.ndarray, logits: np.ndarray, sums: np.ndarray) -> float:
        return float(np.mean(np.log(sums) - logits[np.arange(len(yb)), yb]))

    def _gradient(xb: np.ndarray, yb: np.ndarray, exps: np.ndarray, sums: np.ndarray) -> np.ndarray:
        probs = np.divide(exps, sums[:, None], out=exps)  # nothing reads exps again
        probs[np.arange(len(yb)), yb] -= 1.0
        return (probs.T @ xb / len(yb)).reshape(dim)

    def loss(x: np.ndarray, batch: np.ndarray | None = None) -> float:
        _, yb, logits, _, sums = _softmax(x, batch)
        return _loss(yb, logits, sums)

    def gradient(x: np.ndarray, batch: np.ndarray | None = None) -> np.ndarray:
        xb, yb, _, exps, sums = _softmax(x, batch)
        return _gradient(xb, yb, exps, sums)

    def evaluate(x: np.ndarray) -> tuple[float, np.ndarray]:
        xb, yb, logits, exps, sums = _softmax(x, None)
        return _loss(yb, logits, sums), _gradient(xb, yb, exps, sums)

    problem = Problem(
        name="logreg",
        dim=dim,
        loss=loss,
        gradient=gradient,
        evaluate=evaluate,
        n_samples=n_samples,
        labels=labels,
    )
    return problem, (features, labels)


def _largest_remainder(fractions: np.ndarray, total: int) -> np.ndarray:
    """Round nonnegative fractions summing to ~total into integers summing
    to exactly total; leftover units go to the largest remainders."""
    floors = np.floor(fractions).astype(np.int64)
    short = total - int(floors.sum())
    if short > 0:
        order = np.lexsort((np.arange(len(fractions)), -(fractions - floors)))
        floors[order[:short]] += 1
    return floors


def _check_partition(mode: str, skew_param: float) -> None:
    if mode not in ("iid", "label_skew"):
        raise ValueError(f"mode must be 'iid' or 'label_skew', got {mode!r}")
    if mode == "label_skew" and not 0.0 < skew_param <= 1.0:
        raise ValueError(f"skew_param must be in (0, 1], got {skew_param}")


def partition_data(
    labels: np.ndarray, n: int, mode: str, skew_param: float = 1.0, seed: int = 0
) -> list[np.ndarray]:
    """Split sample indices across n workers; shard i holds worker i's
    sample indices in ascending order.

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
    _check_partition(mode, skew_param)
    rng = np.random.default_rng(seed)
    shard_of = np.empty(n_total, dtype=np.int64)
    if mode == "iid":
        perm = rng.permutation(n_total)
        shard_of[perm] = np.arange(n_total) % n
    else:
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
    return [np.flatnonzero(shard_of == i) for i in range(n)]


@dataclass(frozen=True)
class ProblemSpec:
    kind: str
    dim: int
    condition_number: float = 10.0
    noise_std: float = 1.0
    n_samples: int = 512
    n_classes: int = 2
    class_spread: float = 2.0

    def __post_init__(self) -> None:
        if self.kind == "quadratic":
            _check_quadratic(self.dim, self.condition_number, self.noise_std)
        elif self.kind == "logreg":
            _check_logreg(self.n_samples, self.dim, self.n_classes, self.class_spread)
        else:
            raise ValueError(f"unknown problem kind {self.kind!r}")


def build_problem(spec: ProblemSpec, seed: int) -> Problem:
    if spec.kind == "quadratic":
        return make_quadratic(spec.dim, spec.condition_number, seed, spec.noise_std)
    problem, _ = make_logreg(spec.n_samples, spec.dim, spec.n_classes, seed, spec.class_spread)
    return problem


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
    check_invariants: bool = True

    def __post_init__(self) -> None:
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        if not 0 <= self.seed < 2**63:
            raise ValueError(f"seed must be a nonnegative 63-bit integer, got {self.seed}")
        if self.problem.kind == "logreg":
            _check_partition(self.partition_mode, self.skew_param)
            if self.n_workers > self.problem.n_samples:
                raise ValueError(
                    f"n_workers={self.n_workers} exceeds n_samples={self.problem.n_samples}: "
                    "every worker needs a nonempty shard"
                )
        # the checks of the objects run builds from this config
        if self.variant not in VARIANTS:
            raise ValueError(f"variant must be one of {VARIANTS}, got {self.variant!r}")
        self.hyper()
        if self.variant in SKETCHED:
            self.protocol()

    def hyper(self) -> HyperParams:
        return HyperParams(
            alpha=self.alpha,
            beta1=self.beta1,
            beta2=self.beta2,
            epsilon=self.epsilon,
            horizon=self.horizon,
            n_workers=self.n_workers,
        )

    def protocol(self) -> ProtocolConfig:
        sk = SketchConfig(rows=self.rows, cols=self.cols, seed=self.seed, dim=self.problem.dim)
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


def _draw_noise(seed: int, t: int, out: np.ndarray) -> np.ndarray:
    """Fill row i of the (n, dim) array out with worker i's N(0, 1) noise
    for iteration t."""
    for i in range(out.shape[0]):
        _worker_rng(seed, t, i).standard_normal(out=out[i])
    return out


def _sampled_gradients(
    problem: Problem,
    x: np.ndarray,
    shards: list[np.ndarray],
    config: RunConfig,
    t: int,
    out: np.ndarray,
) -> np.ndarray:
    """Fill row i of the (n, dim) array out with worker i's minibatch gradient."""
    for i in range(config.n_workers):
        rng = _worker_rng(config.seed, t, i)
        shard = shards[i]
        batch = shard[rng.integers(0, shard.shape[0], size=config.batch_size)]
        out[i] = problem.gradient(x, batch)
    return out


def _check_step_invariants(
    state: OptimizerState, diag: StepDiagnostics, prev_v_hat: np.ndarray | None, t: int
) -> None:
    # the gap is a difference of iterates, so its rounding grows with them;
    # the scale is at least 1, so only a gap above the bound needs it
    if diag.shadow_gap > SHADOW_GAP_TOL:
        scale = max(1.0, float(np.max(np.abs(state.x))), float(np.max(np.abs(state.shadow_x))))
        if diag.shadow_gap > SHADOW_GAP_TOL * scale:
            raise InvariantViolation(
                f"shadow identity violated at iteration {t}: gap {diag.shadow_gap:.3e} "
                f"> {SHADOW_GAP_TOL:.0e} * {scale:.3e}"
            )
    if prev_v_hat is not None and np.any(state.v_hat < prev_v_hat):
        raise InvariantViolation(f"v_hat decreased at iteration {t}")
    if state.e is not None and np.any(state.e[:, state.last_indices] != 0.0):
        raise InvariantViolation(f"error not zero on chosen set at iteration {t}")


@np.errstate(over="ignore", invalid="ignore")
def run(config: RunConfig) -> tuple[np.ndarray, list[TraceRecord]]:
    """Execute one seeded training run and return (final x, trace).

    Raises NumericError at the first non-finite gradient, payload mean,
    iterate, loss or squared gradient norm, before any invariant check of
    that step; that error replaces numpy's overflow and invalid-value
    warnings.
    """
    problem = build_problem(config.problem, config.seed)
    shards = None
    if problem.n_samples > 0:
        shards = partition_data(
            problem.labels, config.n_workers, config.partition_mode, config.skew_param, config.seed
        )
    params = config.hyper()
    proto = config.protocol() if config.variant in SKETCHED else None
    state = OptimizerState.initial(
        config.variant, np.zeros(problem.dim), params, track_shadow=config.check_invariants
    )
    grads = np.empty((config.n_workers, problem.dim))
    noise = np.empty_like(grads) if problem.n_samples == 0 and problem.noise_std > 0.0 else None
    noise_scale = problem.noise_std / math.sqrt(config.batch_size)
    records: list[TraceRecord] = []
    grad_inf_max = 0.0
    # a noisy problem's helper draws the next iteration's noise while this
    # one steps: the draws do not depend on the iterate. The helper's thread
    # starts at its first submit, so other problems start none.
    with concurrent.futures.ThreadPoolExecutor(1) as helper:
        drawing = None
        for t in range(1, config.horizon + 1):
            if shards is not None:
                _sampled_gradients(problem, state.x, shards, config, t, grads)
            else:
                # every worker gets the one full gradient, plus its own noise
                full = problem.gradient(state.x, None)
                if noise is None:
                    grads[:] = full
                else:
                    if drawing is None:
                        _draw_noise(config.seed, t, noise)
                    else:
                        drawing.result()
                    # scaled on this thread, under run's errstate
                    np.multiply(noise, noise_scale, out=grads)
                    if t < config.horizon:
                        drawing = helper.submit(_draw_noise, config.seed, t + 1, noise)
                    grads += full
            grad_inf_max = max(grad_inf_max, float(grads.max()), -float(grads.min()))
            check = config.check_invariants and state.v_hat is not None
            prev_v_hat = state.v_hat.copy() if check else None
            diag = step(state, grads, params, proto, t)
            loss, full_grad = problem.evaluate(state.x)
            grad_norm_sq = float(np.dot(full_grad, full_grad))
            checked = (("iterate", state.x), ("train_loss", loss), ("grad_norm_sq", grad_norm_sq))
            for name, value in checked:
                if not np.all(np.isfinite(value)):
                    raise NumericError(f"non-finite {name} at iteration {t}")
            if config.check_invariants:
                _check_step_invariants(state, diag, prev_v_hat, t)
            rate = compression_rate(problem.dim, diag.upstream_scalars, diag.downstream_scalars)
            records.append(
                TraceRecord(
                    iter=t, train_loss=loss, grad_norm_sq=grad_norm_sq,
                    compression_rate=rate, **vars(diag),
                )
            )
    # bounded-gradient constant of the run, reported for reference
    logger.info("max worker gradient inf-norm over run: %.6g", grad_inf_max)
    return state.x, records


def _format_cell(value) -> str:
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return format(float(value), ".17g")


def write_atomic(path: str, fill: Callable[[TextIO], object]) -> None:
    """Write a file through fill(fh) to a temporary name beside it, then
    rename it into place; on failure the temporary file is removed, so no
    partial file survives."""
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    tmp = path + ".tmp"
    try:
        with open(tmp, "w", newline="") as fh:
            fill(fh)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_trace(records: list[TraceRecord], path: str) -> None:
    """Write the trace CSV atomically, one row per record."""
    rows = [[_format_cell(getattr(rec, name)) for name in TRACE_FIELDS] for rec in records]
    write_atomic(path, lambda fh: csv.writer(fh).writerows([TRACE_FIELDS, *rows]))


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

