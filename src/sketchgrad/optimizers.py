"""Distributed Adam-type optimizers with sketched top-k aggregation.

One ``OptimizerState`` and one synchronous ``step`` serve five variants.
Per-worker state is held as the rows of ``(n, dim)`` arrays and updated
in place:

* ``pa``: each worker runs a full AMSGrad state (rows of ``m``, ``v``,
  ``v_hat``) and sends ``m / sqrt(v_hat)`` plus its carried error through
  the sketch; the chosen coordinates move the shared iterate (parameter
  averaging).
* ``ga``: workers keep only momentum and error; one server variance
  (``v``, ``v_hat`` of shape ``(dim,)``) is fed by the exact gradient
  coordinates of the previously chosen index set (``k`` extra scalars
  upstream), and candidates are ranked by ``|value| / sqrt(v_hat)``
  inside the aggregation (gradient averaging). With k = dim this
  reduces to the dense optimizer.
* ``sketched_sgd``: momentum SGD (``m`` holds ``u = beta1 u + g``) with
  the same sketched aggregation and error feedback.
* ``dense_amsgrad`` and ``dense_sgd``: the uncompressed baselines on the
  mean gradient.

Error feedback keeps the dropped coordinates in a local accumulator
that is added back to the next round's payload, so compression error
is transmitted eventually instead of lost. PA and GA maintain an
optional shadow iterate updated with the *uncompressed* payload mean;
the gap between the real and shadow iterates must equal the scaled mean
error at every step, which is the invariant the test suite checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .compressors import ProtocolConfig, sequential_mean, sketched_topk_aggregate
from .sketch import top_m

VARIANTS = ("pa", "ga", "dense_amsgrad", "sketched_sgd", "dense_sgd")
SKETCHED = ("pa", "ga", "sketched_sgd")


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
        # written so that NaN and inf fail too
        if not 0 < self.alpha < math.inf:
            raise ValueError(f"alpha must be finite and > 0, got {self.alpha}")
        if not 0 <= self.beta1 < 1 or not 0 <= self.beta2 < 1:
            raise ValueError(f"beta1, beta2 must lie in [0, 1), got {self.beta1}, {self.beta2}")
        if not 0 < self.epsilon < math.inf:
            raise ValueError(f"epsilon must be finite and > 0, got {self.epsilon}")
        if self.horizon < 0:
            raise ValueError(f"horizon must be >= 0, got {self.horizon}")
        if self.n_workers < 1:
            raise ValueError(f"n_workers must be >= 1, got {self.n_workers}")


def step_size(params: HyperParams, variant: str) -> float:
    """Constant step size: alpha/sqrt(1+T) for PA and the SGD baselines,
    alpha/sqrt(1+T/n) for GA and dense AMSGrad.

    Both schedules depend on the horizon T, not on the iteration, so
    the error-rescaling factor alpha_{t-1}/alpha_t is 1 throughout and
    the carried error enters each payload unscaled.
    """
    if variant in ("pa", "sketched_sgd", "dense_sgd"):
        return params.alpha / math.sqrt(1.0 + params.horizon)
    if variant in ("ga", "dense_amsgrad"):
        return params.alpha / math.sqrt(1.0 + params.horizon / params.n_workers)
    raise ValueError(f"variant must be one of {VARIANTS}, got {variant!r}")


@dataclass
class StepDiagnostics:
    """Per-iteration health metrics reported by every step."""

    contraction_ratio: float
    topk_overlap: float
    shadow_gap: float
    upstream_scalars: int
    downstream_scalars: int


@dataclass
class OptimizerState:
    """Everything one variant carries between steps; arrays a variant
    does not use are None.

    ``m`` and ``e`` are ``(n, dim)`` (one row per worker) for the
    sketched variants; ``m`` is the server's ``(dim,)`` momentum for
    dense AMSGrad. ``v`` and ``v_hat`` are ``(n, dim)`` for PA and the
    server's ``(dim,)`` for GA and dense AMSGrad. ``last_indices`` is
    the index set chosen by the previous sketched step.
    """

    variant: str
    x: np.ndarray
    m: np.ndarray | None
    v: np.ndarray | None
    v_hat: np.ndarray | None
    e: np.ndarray | None
    last_indices: np.ndarray
    shadow_x: np.ndarray | None

    @classmethod
    def initial(
        cls, variant: str, x0: np.ndarray, params: HyperParams, track_shadow: bool = True
    ) -> "OptimizerState":
        if variant not in VARIANTS:
            raise ValueError(f"variant must be one of {VARIANTS}, got {variant!r}")
        x = np.array(x0, dtype=np.float64)
        d, n = x.shape[0], params.n_workers
        m_shape, v_shape, e_shape = {
            "pa": ((n, d), (n, d), (n, d)),
            "ga": ((n, d), (d,), (n, d)),
            "sketched_sgd": ((n, d), None, (n, d)),
            "dense_amsgrad": ((d,), (d,), None),
            "dense_sgd": (None, None, None),
        }[variant]
        return cls(
            variant=variant,
            x=x,
            m=np.zeros(m_shape) if m_shape else None,
            v=np.full(v_shape, params.epsilon) if v_shape else None,
            v_hat=np.full(v_shape, params.epsilon) if v_shape else None,
            e=np.zeros(e_shape) if e_shape else None,
            last_indices=np.empty(0, dtype=np.int64),
            shadow_x=x.copy() if track_shadow and variant in ("pa", "ga") else None,
        )


def _check_grads(grads, n: int, dim: int, t: int) -> np.ndarray:
    """The gradients as one (n, dim) float64 array, without a copy when
    they already are one."""
    grads = np.asarray(grads, dtype=np.float64)
    if grads.shape != (n, dim):
        raise ValueError(f"gradient shape {grads.shape} does not match (n_workers, dim) {(n, dim)}")
    bad = np.flatnonzero(~np.isfinite(grads).all(axis=1))
    if bad.size:
        raise NumericError(f"non-finite gradient from worker {bad[0]} at iteration {t}")
    return grads


def _update_variance(state: OptimizerState, g: np.ndarray, beta2: float) -> None:
    """v = beta2 v + (1 - beta2) g^2 and v_hat = max(v_hat, v), in place."""
    state.v *= beta2
    state.v += (1.0 - beta2) * g * g
    np.maximum(state.v_hat, state.v, out=state.v_hat)


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


def step(
    state: OptimizerState,
    grads: np.ndarray | list[np.ndarray],
    params: HyperParams,
    cfg: ProtocolConfig | None,
    t: int,
) -> StepDiagnostics:
    """One synchronous step of ``state.variant`` on n worker gradients
    (an ``(n, dim)`` array or a list of rows); updates ``state`` in place.
    ``cfg`` is the sketch protocol, unused by the dense variants."""
    variant = state.variant
    dim = state.x.shape[0]
    grads = _check_grads(grads, params.n_workers, dim, t)
    alpha_t = step_size(params, variant)
    beta1 = params.beta1

    if variant not in SKETCHED:
        g = sequential_mean(grads)
        if variant == "dense_sgd":
            state.x -= alpha_t * g
        else:
            state.m *= beta1
            state.m += (1.0 - beta1) * g
            _update_variance(state, g, params.beta2)
            state.x -= alpha_t * (state.m / np.sqrt(state.v_hat))
        return StepDiagnostics(0.0, 1.0, math.nan, dim, dim)

    state.m *= beta1
    state.m += grads if variant == "sketched_sgd" else (1.0 - beta1) * grads
    direction, inv_scale = state.m, None
    if variant == "pa":
        _update_variance(state, grads, params.beta2)
        direction = np.sqrt(state.v_hat)
        np.divide(state.m, direction, out=direction)
    elif variant == "ga":
        # the h payload: exact gradients on the previously chosen coordinates
        h_mean = np.zeros(dim)
        h_mean[state.last_indices] = sequential_mean(grads[:, state.last_indices])
        _update_variance(state, h_mean, params.beta2)
        inv_scale = 1.0 / np.sqrt(state.v_hat)
    payloads = state.e  # the carried error becomes this round's payload
    payloads += direction
    # the shadow iterate's step, also the error's weight in the shadow identity
    rate = alpha_t if inv_scale is None else alpha_t * inv_scale
    if state.shadow_x is not None:
        state.shadow_x -= rate * sequential_mean(direction)
    del direction  # PA's (n, dim) temporary is not held through the aggregation

    # every mean the aggregation takes is a coordinate of target, so a
    # finite target also rules out an overflowing sum of finite payloads
    target = sequential_mean(payloads)
    if not np.all(np.isfinite(target)):
        raise NumericError(f"non-finite payload mean at iteration {t}")
    agg = sketched_topk_aggregate(payloads, cfg, v_hat=state.v_hat if variant == "ga" else None)
    chosen = agg.global_update.indices
    payloads[:, chosen] = 0.0  # the error keeps what was not sent
    state.last_indices = chosen
    mean_err = None
    if state.shadow_x is not None:
        # the worker-order mean of the error: each column sums as in target
        mean_err = target.copy()
        mean_err[chosen] = 0.0

    delta = np.zeros(dim)
    delta[chosen] = agg.global_update.values
    if inv_scale is not None:
        delta[chosen] *= inv_scale[chosen]
        target *= inv_scale
    state.x -= alpha_t * delta

    gap = math.nan
    if mean_err is not None:
        gap = float(np.max(np.abs(state.x - state.shadow_x - rate * mean_err)))
    ratio_sq, overlap = _selection_diagnostics(target, delta, chosen, cfg.k)
    return StepDiagnostics(
        contraction_ratio=ratio_sq,
        topk_overlap=overlap,
        shadow_gap=gap,
        # GA's h payload adds k exact gradient coordinates upstream
        upstream_scalars=cfg.upstream_scalars + (cfg.k if variant == "ga" else 0),
        downstream_scalars=cfg.downstream_scalars,
    )
