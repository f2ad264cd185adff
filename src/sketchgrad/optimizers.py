"""Distributed Adam-type optimizers with sketched top-k aggregation.

Four synchronous one-step updates over n worker gradients:

* ``pa_step``: each worker runs a full AMSGrad state locally and the
  preconditioned updates (momentum / sqrt(v_hat) plus carried error)
  are aggregated through the sketch; the chosen coordinates move the
  shared iterate (parameter averaging).
* ``ga_step``: workers keep only momentum and error; a single variance
  state lives on the server, fed by the exact gradient coordinates of
  the previously chosen index set, and candidate ranking is
  preconditioned by sqrt(v_hat) inside the aggregation (gradient
  averaging). With k = dim this reduces to the dense optimizer.
* ``dense_amsgrad_step``: the uncompressed baseline on the mean gradient.
* ``sketched_sgd_step``: momentum SGD with the same sketched aggregation
  and error feedback, no adaptive scaling.

Error feedback keeps the dropped coordinates in a local accumulator
that is added back to the next round's payload, so compression error
is transmitted eventually instead of lost. Both sketched variants
maintain an optional shadow iterate updated with the *uncompressed*
payload mean; the gap between the real and shadow iterates must equal
the scaled mean error at every step, which is the invariant the test
suite checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .compressors import (
    ProtocolConfig,
    sequential_mean,
    sketched_topk_aggregate,
    sketched_topk_aggregate_scaled,
)
from .sketch import top_m


class NumericError(RuntimeError):
    """A non-finite value reached an optimizer step."""


@dataclass(frozen=True)
class HyperParams:
    alpha: float
    beta1: float
    beta2: float
    epsilon: float
    horizon: int
    n_workers: int

    def __post_init__(self) -> None:
        if self.alpha <= 0:
            raise ValueError(f"alpha must be > 0, got {self.alpha}")
        if not 0 <= self.beta1 < 1 or not 0 <= self.beta2 < 1:
            raise ValueError(f"beta1, beta2 must lie in [0, 1), got {self.beta1}, {self.beta2}")
        if self.epsilon <= 0:
            raise ValueError(f"epsilon must be > 0, got {self.epsilon}")
        if self.horizon < 0:
            raise ValueError(f"horizon must be >= 0, got {self.horizon}")
        if self.n_workers < 1:
            raise ValueError(f"n_workers must be >= 1, got {self.n_workers}")


def step_size(params: HyperParams, variant: str) -> float:
    """Constant step size: alpha/sqrt(1+T) for PA, alpha/sqrt(1+T/n) for GA.

    Both schedules depend on the horizon T, not on the iteration, so
    the error-rescaling factor alpha_{t-1}/alpha_t is 1 throughout and
    the carried error enters each payload unscaled.
    """
    if variant == "pa":
        return params.alpha / math.sqrt(1.0 + params.horizon)
    if variant == "ga":
        return params.alpha / math.sqrt(1.0 + params.horizon / params.n_workers)
    raise ValueError(f"variant must be 'pa' or 'ga', got {variant!r}")


@dataclass
class StepDiagnostics:
    """Per-iteration health metrics reported by every step function."""

    contraction_ratio: float
    topk_overlap: float
    shadow_gap: float
    upstream_scalars: int
    downstream_scalars: int


@dataclass
class PAWorkerState:
    m: np.ndarray
    v: np.ndarray
    v_hat: np.ndarray
    e: np.ndarray

    @classmethod
    def initial(cls, dim: int, epsilon: float) -> "PAWorkerState":
        return cls(
            m=np.zeros(dim),
            v=np.full(dim, epsilon),
            v_hat=np.full(dim, epsilon),
            e=np.zeros(dim),
        )


@dataclass
class GAWorkerState:
    m: np.ndarray
    e: np.ndarray

    @classmethod
    def initial(cls, dim: int) -> "GAWorkerState":
        return cls(m=np.zeros(dim), e=np.zeros(dim))


@dataclass
class GAServerState:
    x: np.ndarray
    v: np.ndarray
    v_hat: np.ndarray
    last_indices: np.ndarray
    shadow_x: np.ndarray | None

    @classmethod
    def initial(cls, x0: np.ndarray, epsilon: float, track_shadow: bool = True) -> "GAServerState":
        x0 = np.asarray(x0, dtype=np.float64)
        return cls(
            x=x0.copy(),
            v=np.full(x0.shape[0], epsilon),
            v_hat=np.full(x0.shape[0], epsilon),
            last_indices=np.empty(0, dtype=np.int64),
            shadow_x=x0.copy() if track_shadow else None,
        )


@dataclass
class DenseAmsgradState:
    x: np.ndarray
    m: np.ndarray
    v: np.ndarray
    v_hat: np.ndarray

    @classmethod
    def initial(cls, x0: np.ndarray, epsilon: float) -> "DenseAmsgradState":
        x0 = np.asarray(x0, dtype=np.float64)
        d = x0.shape[0]
        return cls(x=x0.copy(), m=np.zeros(d), v=np.full(d, epsilon), v_hat=np.full(d, epsilon))


@dataclass
class SgdWorkerState:
    u: np.ndarray
    e: np.ndarray

    @classmethod
    def initial(cls, dim: int) -> "SgdWorkerState":
        return cls(u=np.zeros(dim), e=np.zeros(dim))


def _check_grads(grads: list[np.ndarray], dim: int, t: int) -> list[np.ndarray]:
    out = []
    for i, g in enumerate(grads):
        g = np.asarray(g, dtype=np.float64)
        if g.shape != (dim,):
            raise ValueError(f"gradient shape {g.shape} does not match dim {dim}")
        if not np.all(np.isfinite(g)):
            raise NumericError(f"non-finite gradient from worker {i} at iteration {t}")
        out.append(g)
    return out


def _selection_diagnostics(
    target: np.ndarray, approx_dense: np.ndarray, chosen: np.ndarray, k: int
) -> tuple[float, float]:
    """Relative squared error of the compressed update and its overlap with
    the true top-k of the target, both in the ranking space."""
    denom = float(np.dot(target, target))
    if denom == 0.0:
        ratio = 0.0
    else:
        diff = approx_dense - target
        ratio = float(np.dot(diff, diff)) / denom
    true_top = top_m(np.abs(target), k)
    overlap = len(np.intersect1d(chosen, true_top, assume_unique=True)) / k
    return ratio, overlap


def pa_step(
    states: list[PAWorkerState],
    x: np.ndarray,
    grads: list[np.ndarray],
    params: HyperParams,
    cfg: ProtocolConfig,
    t: int,
    shadow_x: np.ndarray | None = None,
) -> tuple[list[PAWorkerState], np.ndarray, StepDiagnostics]:
    """One parameter-averaging step; mutates states, x and shadow_x in place."""
    dim = x.shape[0]
    grads = _check_grads(grads, dim, t)
    alpha_t = step_size(params, "pa")
    payloads = []
    for st, g in zip(states, grads):
        st.m = params.beta1 * st.m + (1.0 - params.beta1) * g
        st.v = params.beta2 * st.v + (1.0 - params.beta2) * g * g
        st.v_hat = np.maximum(st.v_hat, st.v)
        payloads.append(st.m / np.sqrt(st.v_hat) + st.e)

    agg = sketched_topk_aggregate(payloads, cfg)
    chosen = agg.chosen_indices
    for st, p in zip(states, payloads):
        st.e = p.copy()
        st.e[chosen] = 0.0

    delta = agg.global_update.densify()
    x -= alpha_t * delta

    gap = math.nan
    if shadow_x is not None:
        shadow_x -= alpha_t * sequential_mean([st.m / np.sqrt(st.v_hat) for st in states])
        mean_err = sequential_mean([st.e for st in states])
        gap = float(np.max(np.abs(x - shadow_x - alpha_t * mean_err)))

    target = sequential_mean(payloads)
    ratio_sq, overlap = _selection_diagnostics(target, delta, chosen, cfg.k)
    diag = StepDiagnostics(
        contraction_ratio=ratio_sq,
        topk_overlap=overlap,
        shadow_gap=gap,
        upstream_scalars=agg.upstream_scalars,
        downstream_scalars=agg.downstream_scalars,
    )
    return states, x, diag


def ga_step(
    states: list[GAWorkerState],
    server: GAServerState,
    grads: list[np.ndarray],
    params: HyperParams,
    cfg: ProtocolConfig,
    t: int,
    literal_error: bool = False,
    bucket_rescale: bool = False,
) -> tuple[list[GAWorkerState], GAServerState, StepDiagnostics]:
    """One gradient-averaging step; mutates states and server in place.

    literal_error=True reproduces the error update written as
    payload - scaled_restriction, which mixes the momentum and
    preconditioned scales; the default keeps the error in momentum
    space so it is exactly zero on the chosen coordinates.
    """
    dim = server.x.shape[0]
    grads = _check_grads(grads, dim, t)
    alpha_t = step_size(params, "ga")

    for st, g in zip(states, grads):
        st.m = params.beta1 * st.m + (1.0 - params.beta1) * g
    # the h payload: exact gradients on the previously chosen coordinates
    last = server.last_indices
    h_mean = np.zeros(dim)
    h_mean[last] = sequential_mean([g[last] for g in grads])
    server.v = params.beta2 * server.v + (1.0 - params.beta2) * h_mean * h_mean
    server.v_hat = np.maximum(server.v_hat, server.v)

    payloads = [st.m + st.e for st in states]
    agg = sketched_topk_aggregate_scaled(payloads, server.v_hat, cfg, bucket_rescale=bucket_rescale)
    chosen = agg.chosen_indices
    inv_scale = 1.0 / np.sqrt(server.v_hat)

    for st, p in zip(states, payloads):
        st.e = p.copy()
        if literal_error:
            st.e[chosen] = p[chosen] - p[chosen] * inv_scale[chosen]
        else:
            st.e[chosen] = 0.0

    delta = np.zeros(dim)
    delta[chosen] = agg.global_update.values * inv_scale[chosen]
    server.x -= alpha_t * delta

    gap = math.nan
    if server.shadow_x is not None:
        m_mean = sequential_mean([st.m for st in states])
        server.shadow_x -= alpha_t * inv_scale * m_mean
        mean_err = sequential_mean([st.e for st in states])
        gap = float(
            np.max(np.abs(server.x - server.shadow_x - alpha_t * inv_scale * mean_err))
        )

    server.last_indices = chosen
    target = sequential_mean(payloads) * inv_scale
    ratio_sq, overlap = _selection_diagnostics(target, delta, chosen, cfg.k)
    diag = StepDiagnostics(
        contraction_ratio=ratio_sq,
        topk_overlap=overlap,
        shadow_gap=gap,
        # the h payload adds k exact gradient coordinates upstream
        upstream_scalars=agg.upstream_scalars + cfg.k,
        downstream_scalars=agg.downstream_scalars,
    )
    return states, server, diag


def dense_amsgrad_step(
    state: DenseAmsgradState,
    grads: list[np.ndarray],
    params: HyperParams,
    t: int,
) -> tuple[DenseAmsgradState, StepDiagnostics]:
    """Uncompressed distributed AMSGrad on the mean gradient.

    Uses the gradient-averaging schedule, matching the optimizer that
    the sketched gradient-averaging variant degenerates to at k = dim.
    """
    dim = state.x.shape[0]
    grads = _check_grads(grads, dim, t)
    alpha_t = step_size(params, "ga")
    g = sequential_mean(grads)
    state.m = params.beta1 * state.m + (1.0 - params.beta1) * g
    state.v = params.beta2 * state.v + (1.0 - params.beta2) * g * g
    state.v_hat = np.maximum(state.v_hat, state.v)
    state.x -= alpha_t * (state.m / np.sqrt(state.v_hat))
    diag = StepDiagnostics(
        contraction_ratio=0.0,
        topk_overlap=1.0,
        shadow_gap=math.nan,
        upstream_scalars=dim,
        downstream_scalars=dim,
    )
    return state, diag


def sketched_sgd_step(
    states: list[SgdWorkerState],
    x: np.ndarray,
    grads: list[np.ndarray],
    params: HyperParams,
    cfg: ProtocolConfig,
    t: int,
) -> tuple[list[SgdWorkerState], np.ndarray, StepDiagnostics]:
    """Momentum SGD with sketched top-k aggregation and error feedback."""
    dim = x.shape[0]
    grads = _check_grads(grads, dim, t)
    alpha_t = step_size(params, "pa")
    payloads = []
    for st, g in zip(states, grads):
        st.u = params.beta1 * st.u + g
        payloads.append(st.u + st.e)
    agg = sketched_topk_aggregate(payloads, cfg)
    chosen = agg.chosen_indices
    for st, p in zip(states, payloads):
        st.e = p.copy()
        st.e[chosen] = 0.0
    delta = agg.global_update.densify()
    x -= alpha_t * delta
    target = sequential_mean(payloads)
    ratio_sq, overlap = _selection_diagnostics(target, delta, chosen, cfg.k)
    diag = StepDiagnostics(
        contraction_ratio=ratio_sq,
        topk_overlap=overlap,
        shadow_gap=math.nan,
        upstream_scalars=agg.upstream_scalars,
        downstream_scalars=agg.downstream_scalars,
    )
    return states, x, diag


def dense_sgd_step(
    x: np.ndarray, grads: list[np.ndarray], params: HyperParams, t: int
) -> tuple[np.ndarray, StepDiagnostics]:
    """Plain synchronous SGD on the mean gradient (no momentum, no state)."""
    dim = x.shape[0]
    grads = _check_grads(grads, dim, t)
    alpha_t = step_size(params, "pa")
    x -= alpha_t * sequential_mean(grads)
    diag = StepDiagnostics(
        contraction_ratio=0.0,
        topk_overlap=1.0,
        shadow_gap=math.nan,
        upstream_scalars=dim,
        downstream_scalars=dim,
    )
    return x, diag
