"""Deterministic multi-worker training harness.

Workers are simulated inside one process with a synchronous round per
iteration; communication volume is accounted analytically by the
optimizer steps, not measured on a wire. Everything is seeded: problem
construction, data partitioning, and the per-(worker, iteration)
minibatch draws, so a (config, seed) pair reproduces a run bit for bit.
"""

from __future__ import annotations

import concurrent.futures
import contextvars
import csv
import dataclasses
import math
import os
import queue
from dataclasses import dataclass
from typing import Callable, Iterator, TextIO

import numpy as np
from numpy.random.bit_generator import ISeedSequence

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
from .sketch import SketchConfig, check_elements

SHADOW_GAP_TOL = 1e-9


class InvariantViolation(RuntimeError):
    """A runtime invariant check failed during a run."""


# Bytes of gathered feature rows per block of the batched logistic
# regression gradient, so that a block's gather stays in cache. In 60k
# logreg runs (8 workers x 32 rows of 6000 features, 2 vCPUs), one
# unblocked 12 MB gather took the worker gradients from 4.0 to 5.1 ms
# per iteration, though alone in a tight loop it was the faster one.
# make_logreg adds the class centres to its features in blocks of the
# same size, so the build holds no second copy of the dataset.
GATHER_BUDGET = 1 << 20

# OpenBLAS computes a product of at most this many multiply-adds with its
# small-matrix kernel and a larger one with its gemm kernel, which sums in
# another order. Between two gemm products, a row of X @ W.T has the same
# bits whatever X's row count, and so does the column of W @ X.T.
GEMM_MIN_MACS = 100**3

# Bytes of features that the first half of a logistic regression product
# must read for run's helper thread to compute the second half. A half of
# 4 MiB makes over GEMM_MIN_MACS multiply-adds (n_classes >= 2), so both
# halves take the whole product's gemm kernel. On 2 vCPUs with one BLAS
# thread a split starts to gain at about 1 MiB a half, so the bits set the
# bound.
SPLIT_BYTES = 4 << 20
# The full-batch products split only into whole tiles of this many rows or
# columns: OpenBLAS's gemm computes the ragged edge of its 8-wide tiles in
# an order that depends on where the edge falls.
BLAS_TILE = 8


def _split(pool: concurrent.futures.Executor | None, n: int,
           part: Callable[[int, int], object], step: int = 1) -> list:
    """Call part(lo, hi) over the range [0, n) of a job's units (a
    product's rows, columns or workers, or Monte-Carlo trials) and return
    the list of its results, one per call in range order. With mid the
    largest multiple of step up to n // 2, when there is a pool and mid > 0,
    the pool's thread is handed [mid, n) while this thread runs [0, mid);
    the call returns once both halves are done. A half the pool's thread
    has not started by then is cancelled and run on this thread, so a busy
    pool costs the call nothing but the submit. The pool's half runs in a
    copy of this thread's context, so under its numpy errstate. An
    exception in a half is raised here, this thread's first. A product's
    caller passes a pool only when _splits: each element then still comes
    whole from one ``np.matmul`` call over the same reduction and, with
    OpenBLAS at one thread, from the same kernel (see SPLIT_BYTES), so it
    has the same bits as without a pool."""
    mid = n // 2 // step * step
    if pool is None or mid == 0:
        return [part(0, n)]
    half = pool.submit(contextvars.copy_context().run, part, mid, n)
    try:
        first = part(0, mid)
    finally:
        if not half.cancel():
            concurrent.futures.wait([half])
    return [first, part(mid, n) if half.cancelled() else half.result()]


def _splits(unit_bytes: int, n: int, step: int = 1) -> bool:
    """Whether a product of n units of unit_bytes of features splits: n is
    a multiple of step and the first half _split makes reads at least
    SPLIT_BYTES."""
    return n % step == 0 and n // 2 // step * step * unit_bytes >= SPLIT_BYTES


# OpenBLAS multiplies a subnormal operand many times slower: once dense
# AMSGrad separates the classes of a 60k logreg run, 3000-4000 of its
# 20000 full-batch probabilities P are subnormal, and P.T @ X takes
# 100-150 ms in place of about 10 (2 vCPUs, one BLAS thread). So a problem
# built for a run stores its features divided by LIFT when every division
# is exact (_lowers_exactly: x is 0 or |x| >= LIFT_FLOOR) and half of them
# reads at least SPLIT_BYTES; below that, the scalings' numpy calls cost
# more than subnormal operands do. Every product on the lowered features
# multiplies its other operand by LIFT: the weights W of the logits and
# the probabilities P of the gradients. Each product w * x and p * x is
# then the same real number as on the drawn features, so every multiply-add,
# partial sum and result keeps its bits in any summation order, and no
# lifted probability is subnormal. |p| <= 1 cannot overflow, and a
# weight below LIFT_CEILING lifts below 2**1023. An x with an entry at or
# above it, or a NaN, first multiplies the features back, exactly, and the
# problem computes at scale 1 from then on.
LIFT = 2.0**64
LIFT_FLOOR = np.finfo(float).tiny * LIFT  # 2**-958
LIFT_CEILING = 2.0**959


@dataclass
class Problem:
    """A differentiable objective and, built for a run, its workers' gradients.

    ``evaluate(x, pool=None)`` returns the full objective's loss and
    gradient from one shared pass: for logistic regression it computes the
    logits over the whole dataset once, not twice. A logistic regression
    built for a run may multiply its lowered features back in place (see
    LIFT), and its gradient reuses the last evaluate's probabilities
    (below), so its evaluate and gradient calls must not overlap in time,
    as run's never do.

    ``gradient(x, t, out, pool)`` fills the ``(n_workers, dim)`` array out
    with the workers' gradients at x for iteration t, row i worker i's:
    logistic regression's minibatch gradients (logreg_gradients), or the
    quadratic's full gradient plus each worker's noise. A Problem from
    build_problem serves iterations 1, ..., horizon of one run of its
    config, in order, each once: it holds that run's worker streams.

    A logistic regression's gradient reuses the residual probabilities
    (softmax minus one-hot) of the last evaluate call when x has that
    call's bits and every logits product, each worker's batch_size rows
    and evaluate's whole dataset or halves, makes over GEMM_MIN_MACS
    multiply-adds. Each product then takes OpenBLAS's gemm kernel, so a
    sample's row of logits has the same bits in both, and the softmax is
    row-local, so the gradients keep their bits.

    ``pool`` is a one-thread executor. When half of a logistic regression
    product reads at least SPLIT_BYTES of features, the pool's thread
    computes that half (see _split): the full-batch logits by samples,
    the full-batch gradient by feature columns and the workers' gradients
    by workers. A noisy quadratic's gradient for iteration t starts the
    pool's thread on iteration t+1's noise rows (see _share_noise). Either
    way the result has the same bits as without a pool.
    """

    dim: int
    evaluate: Callable[..., tuple[float, np.ndarray]]
    gradient: Callable[..., None] | None = None

    def loss(self, x: np.ndarray) -> float:
        return self.evaluate(x)[0]


def _check_quadratic(dim: int, condition_number: float, noise_std: float) -> None:
    if dim < 1:
        raise ValueError(f"dim must be >= 1, got {dim}")
    # written so that NaN fails too
    if not 1 <= condition_number < math.inf:
        raise ValueError(f"condition_number must be finite and >= 1, got {condition_number}")
    if not 0 <= noise_std < math.inf:
        raise ValueError(f"noise_std must be finite and >= 0, got {noise_std}")
    check_elements("dim", dim)


def make_quadratic(
    dim: int, condition_number: float, seed: int, noise_std: float = 0.0,
    config: RunConfig | None = None,
) -> Problem:
    """Diagonal quadratic 0.5 (x-x*)' A (x-x*) with eigenvalues log-spaced
    in [1, condition_number]. With a config, the workers' gradients of a
    run of it add seeded Gaussian noise scaled by 1/sqrt(batch_size)."""
    _check_quadratic(dim, condition_number, noise_std)
    rng = np.random.default_rng(seed)
    eigs = np.logspace(0.0, math.log10(condition_number), dim)
    x_star = rng.standard_normal(dim)

    def evaluate(x: np.ndarray, pool=None) -> tuple[float, np.ndarray]:
        r = x - x_star
        g = eigs * r
        return float(0.5 * np.dot(r, g)), g

    if config is None:
        return Problem(dim, evaluate)
    words = _iteration_words(config.seed, config.horizon, config.n_workers)
    noise = np.empty((config.n_workers, dim)) if noise_std > 0.0 else None
    noise_scale = noise_std / math.sqrt(config.batch_size)
    shared = None  # the words, row queue and helper future of the noise

    def gradient(x: np.ndarray, t: int, out: np.ndarray, pool) -> None:
        # every worker gets the one full gradient, plus its own noise
        nonlocal shared
        full = eigs * (x - x_star)
        if noise is None:
            out[:] = full
            return
        if t == 1:
            shared = _share_noise(pool, next(words), noise)
        noise_words, rows, drawing = shared
        _draw_noise(noise_words, noise, rows)
        if drawing is not None:
            drawing.result()
        # scaled on this thread, under the caller's errstate, once both
        # threads are done with iteration t's rows
        np.multiply(noise, noise_scale, out=out)
        # a pool's thread starts on the next iteration's rows while the
        # caller steps: the draws do not depend on the iterate
        if t < config.horizon:
            shared = _share_noise(pool, next(words), noise)
        out += full

    return Problem(dim, evaluate, gradient)


def _check_logreg(n_samples: int, dim: int | None, n_classes: int, class_spread: float) -> None:
    """Check the dataset's values; dim's fit to n_classes only when dim is given."""
    if not 0 <= class_spread < math.inf:
        raise ValueError(f"class_spread must be finite and >= 0, got {class_spread}")
    if n_classes < 2:
        raise ValueError(f"n_classes must be >= 2, got {n_classes}")
    if dim is not None and (dim < n_classes or dim % n_classes != 0):
        raise ValueError(f"dim must be a positive multiple of n_classes, got {dim}")
    if n_samples < n_classes:
        raise ValueError(f"need at least one sample per class, got {n_samples}")
    check_elements("n_samples", n_samples)
    if dim is not None:
        check_elements("the features, n_samples by dim / n_classes", n_samples, dim // n_classes)


def _lowers_exactly(a: np.ndarray) -> bool:
    """Whether a / LIFT is exact: no nonzero entry is below LIFT_FLOOR in magnitude."""
    magnitudes = np.abs(a)
    return magnitudes.min(initial=np.inf) >= LIFT_FLOOR or not a[magnitudes < LIFT_FLOOR].any()


def _shift_by_row_max(logits: np.ndarray) -> None:
    """Subtract each row's max from the (rows, n_classes) logits, in place.
    The max runs along axis 0 of a C-ordered transposed copy: along axis 1
    numpy calls its inner loop once per row. A max is exact, so only a zero
    max's sign can differ from max(axis=1), and l - (+-0) then differs only
    in the sign of a zero, whose exp is 1 either way."""
    logits -= np.ascontiguousarray(logits.T).max(axis=0)[:, None]


def logreg_gradients(
    features: np.ndarray, labels: np.ndarray, x: np.ndarray, batches: np.ndarray,
    out: np.ndarray, pool: concurrent.futures.Executor | None = None,
    residuals: np.ndarray | None = None, scale: float = 1.0,
) -> np.ndarray:
    """Every worker's minibatch gradient of the logistic regression on
    (features, labels) at x, from one call. ``batches`` is an ``(n, b)``
    array of sample indices, and row i of the ``(n, dim)`` array out, which
    the call returns, is the mean gradient over row i's samples; one batch
    is the n = 1 case. The workers go in blocks of m whose gathered feature
    rows (m * b rows of 8-byte features) fit in GATHER_BUDGET bytes; a block
    holds at least one worker. Each block is one gather, one batched logits
    product, one softmax and one batched ``np.matmul``, which give each row
    the same bits as that worker's own ``probs.T @ features[batch] / b``,
    with a pool too (see _split). ``residuals``, if given, is the
    ``(n_samples, n_classes)`` softmax minus one-hot of every sample at x,
    with the bits a block would compute: the blocks gather their rows from
    it in place of their logits and softmax. ``scale`` is LIFT when the
    features are a dataset lowered by it and x * LIFT is finite: the weights
    and each block's probabilities are then lifted by it, and every row has
    the bits it has at scale 1 on that dataset (see LIFT)."""
    n, b = batches.shape
    n_features = features.shape[1]
    w = x.reshape(-1, n_features)
    w_t = (w * scale if scale != 1.0 else w).T
    n_classes = w_t.shape[1]
    per_block = max(1, GATHER_BUDGET // (b * n_features * 8))
    # each gathered row's offset in the flat (m * b * n_classes) probabilities
    row_offsets = np.arange(min(n, per_block) * b) * n_classes

    def workers(first: int, stop: int) -> None:
        for lo in range(first, stop, per_block):
            idx = batches[lo : min(lo + per_block, stop)].ravel()
            m = idx.shape[0] // b
            xb = features[idx].reshape(m, b, n_features)
            if residuals is not None:
                probs = residuals[idx]
            else:
                # one product per worker: one (m*b, F) product crosses
                # GEMM_MIN_MACS at some shapes and sums in another order
                logits = np.matmul(xb, w_t).reshape(m * b, n_classes)
                _shift_by_row_max(logits)
                exps = np.exp(logits, out=logits)
                probs = np.divide(exps, exps.sum(axis=1)[:, None], out=exps)
                label_entries = labels[idx]
                label_entries += row_offsets[: m * b]
                probs.reshape(-1)[label_entries] -= 1.0
            if scale != 1.0:
                probs *= scale  # residuals' rows are a gathered copy
            np.matmul(
                probs.reshape(m, b, n_classes).transpose(0, 2, 1),
                xb,
                out=out[lo : lo + m].reshape(m, n_classes, n_features),
            )

    _split(pool if _splits(b * n_features * 8, n) else None, n, workers)
    out /= b
    return out


def make_logreg(
    n_samples: int, dim: int, n_classes: int, seed: int, class_spread: float = 2.0,
    config: RunConfig | None = None,
) -> tuple[Problem, tuple[np.ndarray, np.ndarray]]:
    """Multinomial logistic regression on a synthetic Gaussian mixture.

    ``dim`` is the parameter dimension and must be a multiple of
    n_classes; the weight matrix is x reshaped to (n_classes, features).
    Returns the problem and the (features, labels) dataset. With a config,
    its workers draw their minibatches from partition_data's shards.

    The dataset is held once, n_samples * dim / n_classes * 8 bytes of
    features: the noise is drawn straight into the feature matrix and
    each row's class centre is added in place, in row blocks of at most
    GATHER_BUDGET bytes, with the same bits as centers[labels] + noise.
    With a config, the returned features are the problem's own: when half
    of them reads at least SPLIT_BYTES and they all lower exactly, each
    block is also divided by LIFT in place, and the problem computes at
    scale LIFT (see LIFT) until an x that LIFT would overflow multiplies
    them back to the drawn bits.
    """
    _check_logreg(n_samples, dim, n_classes, class_spread)
    n_features = dim // n_classes
    rng = np.random.default_rng(seed)
    centers = class_spread * rng.standard_normal((n_classes, n_features))
    labels = np.arange(n_samples) % n_classes
    rng.shuffle(labels)
    features = rng.standard_normal((n_samples, n_features))
    # the scale of the stored features' products (see LIFT)
    large = config is not None and _splits(n_samples * 8, n_features)
    scale = LIFT if large else 1.0
    per_block = max(1, GATHER_BUDGET // (n_features * 8))
    for lo in range(0, n_samples, per_block):
        block = features[lo : lo + per_block]
        block += centers[labels[lo : lo + per_block]]
        if scale != 1.0 and _lowers_exactly(block):
            block *= 1 / LIFT
        elif scale != 1.0:
            features[:lo] *= LIFT  # back to the drawn bits
            scale = 1.0

    def scale_for(x: np.ndarray) -> float:
        """The scale of the products at x: 1 from the first x that LIFT
        overflows on, which first multiplies the features back to the drawn bits."""
        nonlocal scale
        if scale != 1.0 and not np.abs(x).max() < LIFT_CEILING:
            np.multiply(features, scale, out=features)
            scale = 1.0
        return scale

    # each sample's label entry in the flat (n_samples * n_classes) logits
    label_entries = np.arange(n_samples) * n_classes + labels
    # the logits split exactly when transposed: above that gate every half
    # is over GEMM_MIN_MACS, and there W @ X.T, the faster orientation, has
    # the bits of X @ W.T
    transposed = _splits(n_features * 8, n_samples, BLAS_TILE)
    # the full-batch gradient's gate, by whole tiles of feature columns
    columns_split = _splits(n_samples * 8, n_features, BLAS_TILE)
    # the workers reuse evaluate's residual probabilities (see Problem)
    reuse = config is not None and (
        min(config.batch_size, n_samples) * n_features * n_classes > GEMM_MIN_MACS)
    # evaluate's x, as integers so that a zero's sign and a NaN's payload
    # count, and its residual probabilities, when reuse
    last = None

    def evaluate(x: np.ndarray, pool=None) -> tuple[float, np.ndarray]:
        nonlocal last
        w = x.reshape(n_classes, n_features)
        factor = scale_for(x)
        if factor != 1.0:
            w = w * factor
        if transposed:
            logits_t = np.empty((n_classes, n_samples))
            _split(pool, n_samples,
                   lambda lo, hi: np.matmul(w, features[lo:hi].T, out=logits_t[:, lo:hi]),
                   BLAS_TILE)
            # _shift_by_row_max's max, without its transposed copy
            logits_t -= logits_t.max(axis=0)
            # the row sum's pairwise order needs the rows contiguous
            logits = np.ascontiguousarray(logits_t.T)
        else:
            logits = np.matmul(features, w.T)
            _shift_by_row_max(logits)
        exps = np.exp(logits)
        sums = exps.sum(axis=1)
        # the sum and the division np.mean makes, without its wrapper
        loss = float(np.add.reduce(np.log(sums) - logits.reshape(-1)[label_entries]) / n_samples)
        probs = np.divide(exps, sums[:, None], out=exps)  # nothing reads exps again
        probs.reshape(-1)[label_entries] -= 1.0
        if reuse:
            last = np.array(x, dtype=np.float64).view(np.uint64), probs
        lifted = probs * factor if factor != 1.0 else probs  # last keeps probs as they are
        grad = np.empty((n_classes, n_features))
        _split(pool if columns_split else None, n_features,
               lambda lo, hi: np.matmul(lifted.T, features[:, lo:hi], out=grad[:, lo:hi]),
               BLAS_TILE)
        grad /= n_samples
        return loss, grad.reshape(dim)

    if config is None:
        return Problem(dim, evaluate), (features, labels)
    shards = partition_data(
        labels, config.n_workers, config.partition_mode, config.skew_param, config.seed
    )
    batches = _minibatches(shards, config.seed, config.horizon, config.batch_size)

    def gradient(x: np.ndarray, t: int, out: np.ndarray, pool) -> None:
        reused = last is not None and np.array_equal(
            last[0], np.asarray(x, dtype=np.float64).view(np.uint64))
        logreg_gradients(features, labels, x, next(batches), out, pool,
                         last[1] if reused else None, scale_for(x))

    return Problem(dim, evaluate, gradient), (features, labels)


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
    if not 0.0 < skew_param <= 1.0:
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
        # every value gets its own range whatever the kind; dim's fit to
        # n_classes only for logreg, the kind that reads both
        if self.kind not in ("quadratic", "logreg"):
            raise ValueError(f"unknown problem kind {self.kind!r}")
        _check_quadratic(self.dim, self.condition_number, self.noise_std)
        logreg_dim = self.dim if self.kind == "logreg" else None
        _check_logreg(self.n_samples, logreg_dim, self.n_classes, self.class_spread)


def build_problem(config: RunConfig) -> Problem:
    """config's problem, with the workers' gradients of one run of config."""
    spec = config.problem
    if spec.kind == "quadratic":
        return make_quadratic(spec.dim, spec.condition_number, config.seed, spec.noise_std, config)
    return make_logreg(
        spec.n_samples, spec.dim, spec.n_classes, config.seed, spec.class_spread, config
    )[0]


def check_seed(seed: int) -> None:
    """Reject a seed outside [0, 2**63), the range every command takes."""
    if not 0 <= seed < 2**63:
        raise ValueError(f"seed must be a nonnegative 63-bit integer, got {seed}")


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
        check_elements("batch_size", self.batch_size)
        check_elements("the gradients, n_workers by dim", self.n_workers, self.problem.dim)
        check_seed(self.seed)
        _check_partition(self.partition_mode, self.skew_param)
        if self.problem.kind == "logreg":
            if self.n_workers > self.problem.n_samples:
                raise ValueError(
                    f"n_workers={self.n_workers} exceeds n_samples={self.problem.n_samples}: "
                    "every worker needs a nonempty shard"
                )
            check_elements("the minibatches, n_workers by batch_size",
                           self.n_workers, self.batch_size)
            check_elements("one worker's gathered features, batch_size by dim / n_classes",
                           self.batch_size, self.problem.dim // self.problem.n_classes)
        # the checks of the objects run builds from this config
        if self.variant not in VARIANTS:
            raise ValueError(f"variant must be one of {VARIANTS}, got {self.variant!r}")
        self.hyper()
        # each stream's SeedSequence([seed, t, i]) takes t and i as one
        # uint32 word each, and 2**32 of either is past what a run can hold
        if self.horizon >= 2**32 or self.n_workers >= 2**32:
            raise ValueError(f"horizon and n_workers must be below 2**32, "
                             f"got {self.horizon} and {self.n_workers}")
        if self.variant in SKETCHED:
            self.protocol()
            check_elements("the workers' sketches, rows * cols by n_workers",
                           self.rows * self.cols, self.n_workers)
        else:
            # unread here, the sketch values still get their own ranges;
            # only k <= dim and P*k <= dim are left to the sketched variants
            SketchConfig(rows=self.rows, cols=self.cols, seed=self.seed, dim=self.problem.dim)
            if self.k < 1 or self.p_factor < 1:
                raise ValueError(f"k and p_factor must be >= 1, got {self.k}, {self.p_factor}")

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


# numpy's SeedSequence constants (numpy/random/bit_generator.pyx): the
# pool of 4 uint32 words, the hash of its entropy (A), the hash of its
# output (B), and the mix of two pool words
_POOL_WORDS = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_M32 = 0xFFFFFFFF

# (iteration, worker) lanes whose stream words run derives at once, 32 bytes
# each: 4096 lanes are 128 KB of words. A block holds one iteration at least.
STREAM_LANES = 4096


def _int_words(value: int) -> list[int]:
    """SeedSequence's uint32 words of a nonnegative int, low first; 0 is one word."""
    return [value >> shift & _M32 for shift in range(0, max(value.bit_length(), 1), 32)]


def _seed_sequence_state(entropy: list[np.ndarray]) -> np.ndarray:
    """SeedSequence(words).generate_state(4, np.uint64) for each lane of the
    uint32 lane arrays in entropy, one array per entropy word, as numpy's
    hash computes it word by word. The entropy is 3 or 4 words, a seed below
    2**63 and one word each for t and i, so it fits the pool. Every hash
    constant depends only on how many hashes came before it, so it is one
    Python int shared by all lanes; uint32 array products wrap as numpy's
    uint32_t arithmetic does."""
    const, mult = _INIT_A, _MULT_A

    def hashmix(value: np.ndarray) -> np.ndarray:
        nonlocal const
        value = value ^ const
        const = const * mult & _M32
        value *= const
        value ^= value >> 16
        return value

    def mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
        result = x * _MIX_L
        result -= y * _MIX_R
        result ^= result >> 16
        return result

    zero = np.zeros_like(entropy[0])
    pool = [hashmix(entropy[j] if j < len(entropy) else zero) for j in range(_POOL_WORDS)]
    for src in range(_POOL_WORDS):
        for dst in range(_POOL_WORDS):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    const, mult = _INIT_B, _MULT_B
    state = np.empty((zero.shape[0], 2 * _POOL_WORDS), dtype="<u4")
    for j in range(2 * _POOL_WORDS):
        state[:, j] = hashmix(pool[j % _POOL_WORDS])
    return state.view("<u8").astype(np.uint64)


def _stream_words(seed: int, t: np.ndarray, i: np.ndarray) -> np.ndarray:
    """The (lanes, 4) uint64 array whose row j is
    SeedSequence([seed, t[j], i[j]]).generate_state(4, np.uint64), the words
    that seed worker i[j]'s stream for iteration t[j]; t and i are lane
    arrays of values below 2**32 (see RunConfig), so SeedSequence takes
    each as one uint32 word."""
    seed_words = [np.full(t.shape[0], w, dtype=np.uint32) for w in _int_words(seed)]
    return _seed_sequence_state([*seed_words, t.astype(np.uint32), i.astype(np.uint32)])


def _word_blocks(seed: int, horizon: int, n: int) -> Iterator[np.ndarray]:
    """Yield the read-only (iterations, n, 4) stream words of iterations
    1, ..., horizon, a block of max(1, STREAM_LANES // n) iterations at a
    time. Each block is derived when it is asked for, in a new array, so a
    thread still reading an earlier block needs no lock."""
    per_block = max(1, STREAM_LANES // n)
    workers = np.arange(n, dtype=np.uint64)
    for first in range(1, horizon + 1, per_block):
        ts = np.arange(first, min(first + per_block, horizon + 1), dtype=np.uint64)
        block = _stream_words(seed, np.repeat(ts, n), np.tile(workers, ts.shape[0]))
        block = block.reshape(ts.shape[0], n, 4)
        block.flags.writeable = False
        yield block


def _iteration_words(seed: int, horizon: int, n: int) -> Iterator[np.ndarray]:
    """Yield iteration t's read-only (n, 4) stream words for t = 1, ..., horizon."""
    for block in _word_blocks(seed, horizon, n):
        yield from block


class _StreamWords(ISeedSequence):
    """A seed sequence that hands PCG64 the words _stream_words derived."""

    def __init__(self, words: np.ndarray) -> None:
        self.words = words

    def generate_state(self, n_words: int, dtype=np.uint32) -> np.ndarray:
        if n_words != 4 or np.dtype(dtype) != np.uint64:
            raise ValueError("stream words seed only PCG64")
        return self.words


def _worker_rng(words: np.ndarray) -> np.random.Generator:
    """The stream seeded by one worker's words of one iteration: the same
    Generator as default_rng(SeedSequence([seed, t, i]))."""
    return np.random.Generator(np.random.PCG64(_StreamWords(words)))


def _draw_noise(words: np.ndarray, out: np.ndarray, rows: queue.SimpleQueue) -> None:
    """Claim rows until none is left, filling each claimed row i of the
    (n, dim) array out with worker i's N(0, 1) noise, from the stream that
    row i of the (n, 4) words seeds. Threads that share rows draw each row
    once, whole, from its own stream, so out's bits do not depend on which
    thread drew which row."""
    while True:
        try:
            i = rows.get_nowait()
        except queue.Empty:
            return
        _worker_rng(words[i]).standard_normal(out=out[i])


def _share_noise(
    helper: concurrent.futures.Executor | None, words: np.ndarray, out: np.ndarray
) -> tuple[np.ndarray, queue.SimpleQueue, concurrent.futures.Future | None]:
    """Queue every row of out for the noise of the iteration whose words
    are given and start the helper, if there is one, drawing them. Return
    the words, the queue, from which the caller draws the rows the helper
    has not claimed, and the helper's future (None without a helper)."""
    rows = queue.SimpleQueue()
    for i in range(out.shape[0]):
        rows.put(i)
    drawing = None if helper is None else helper.submit(_draw_noise, words, out, rows)
    return words, rows, drawing


def _add128(hi, lo, add_hi, add_lo) -> tuple[np.ndarray, np.ndarray]:
    """(hi, lo) + (add_hi, add_lo) mod 2**128, each 128-bit lane value
    held as uint64 arrays of its high and low words."""
    lo = lo + add_lo
    return hi + add_hi + (lo < add_lo), lo


def _pcg_step(hi, lo, inc_hi, inc_lo) -> tuple[np.ndarray, np.ndarray]:
    """One step of PCG64's LCG over lanes, state * multiplier + inc mod
    2**128. uint64 arrays wrap mod 2**64; the high word of the full
    product lo * mult_lo comes from its four 32-bit partial products,
    whose sums fit in 64 bits."""
    # the multiplier's 64-bit words (numpy/random/src/pcg64/pcg64.h), and
    # the low word's 32-bit halves
    mult_hi, mult_lo = 0x2360ED051FC65DA4, 0x4385DF649FCCF645
    m1, m0 = mult_lo >> 32, mult_lo & _M32
    a0, a1 = lo & _M32, lo >> 32
    p01, p10 = a0 * m1, a1 * m0
    mid = (a0 * m0 >> 32) + (p01 & _M32) + (p10 & _M32)
    carry = a1 * m1 + (p01 >> 32) + (p10 >> 32) + (mid >> 32)
    hi = carry + hi * mult_lo + lo * mult_hi
    return _add128(hi, lo * mult_lo, inc_hi, inc_lo)


def _pcg_outputs(words: np.ndarray, count: int) -> np.ndarray:
    """The (lanes, count) little-endian uint64 array whose row j is
    _worker_rng(words[j]).bit_generator.random_raw(count), for (lanes, 4)
    uint64 stream words: numpy's PCG64 seeding and XSL-RR outputs."""
    w0, w1, w2, w3 = words.T
    # seed = w0:w1 and inc = (w2:w3) << 1 | 1; the state starts at 0, steps
    # to inc, adds the seed and steps again
    inc_hi, inc_lo = w2 << 1 | w3 >> 63, w3 << 1 | 1
    hi, lo = _pcg_step(*_add128(inc_hi, inc_lo, w0, w1), inc_hi, inc_lo)
    raw = np.empty((words.shape[0], count), dtype="<u8")
    for k in range(count):
        # each output steps first, then rotates hi ^ lo right by hi >> 58
        hi, lo = _pcg_step(hi, lo, inc_hi, inc_lo)
        xored, rot = hi ^ lo, hi >> 58
        raw[:, k] = (xored >> rot) | (xored << ((64 - rot) & 63))
    return raw


def _bounded_draws(words: np.ndarray, sizes: np.ndarray, b: int) -> np.ndarray:
    """The (lanes, b) int64 array whose row j is
    _worker_rng(words[j]).integers(0, sizes[j], size=b), for (lanes, 4)
    uint64 stream words and uint64 sizes of at least 1, from one numpy pass
    over all lanes: the 32-bit halves of the PCG64 outputs, low first, and
    Lemire's bounded draw (arXiv 1805.10941) as numpy's
    buffered_bounded_lemire_uint32 computes it. A lane that numpy would
    redraw (a rejected draw) or that takes another of numpy's paths (a size
    of 2**32 or more) is drawn by numpy itself."""
    m = _pcg_outputs(words, (b + 1) // 2).view("<u4")[:, :b] * sizes[:, None]
    # the leftover below (2**32 - s) % s marks a draw numpy rejects
    rejected = ((m & _M32) < ((2**32 - sizes) % sizes)[:, None]).any(axis=1)
    draws = (m >> 32).view(np.int64)
    for j in np.flatnonzero(rejected | (sizes > _M32)):
        draws[j] = _worker_rng(words[j]).integers(0, int(sizes[j]), size=b)
    return draws


def _minibatches(
    shards: list[np.ndarray], seed: int, horizon: int, b: int
) -> Iterator[np.ndarray]:
    """Yield iteration t's (n, b) minibatch sample indices for t = 1, ...,
    horizon: row i is shards[i][_worker_rng(words).integers(0, len(shards[i]),
    size=b)] with worker i's stream words of iteration t. Each block of
    stream words is drawn in chunks of whole iterations of at most
    32 * STREAM_LANES draws, so each uint64 temporary of a chunk holds at
    most 1 MiB, eight times a block's words; a chunk holds one iteration at
    least."""
    n = len(shards)
    sizes = np.array([shard.shape[0] for shard in shards], dtype=np.uint64)
    starts = (np.cumsum(sizes) - sizes).astype(np.int64)[:, None]
    samples = np.concatenate(shards)
    per_chunk = max(1, 32 * STREAM_LANES // (n * b))
    for block in _word_blocks(seed, horizon, n):
        for first in range(0, block.shape[0], per_chunk):
            words = block[first : first + per_chunk].reshape(-1, 4)
            draws = _bounded_draws(words, np.tile(sizes, words.shape[0] // n), b)
            yield from samples[starts + draws.reshape(-1, n, b)]


def _check_step_invariants(
    state: OptimizerState, diag: StepDiagnostics, prev_v_hat: np.ndarray | None, t: int
) -> None:
    """Raise InvariantViolation if step t broke the shadow identity, let
    v_hat fall below prev_v_hat or left error on the chosen coordinates.
    prev_v_hat then takes v_hat's values, for the next step's check."""
    # the gap is a difference of iterates, so its rounding grows with them;
    # the scale is at least 1, so only a gap above the bound needs it
    if diag.shadow_gap > SHADOW_GAP_TOL:
        scale = max(1.0, float(np.max(np.abs(state.x))), float(np.max(np.abs(state.shadow_x))))
        if diag.shadow_gap > SHADOW_GAP_TOL * scale:
            raise InvariantViolation(
                f"shadow identity violated at iteration {t}: gap {diag.shadow_gap:.3e} "
                f"> {SHADOW_GAP_TOL:.0e} * {scale:.3e}"
            )
    if prev_v_hat is not None:
        if (state.v_hat < prev_v_hat).any():
            raise InvariantViolation(f"v_hat decreased at iteration {t}")
        np.copyto(prev_v_hat, state.v_hat)
    if state.e is not None and (state.e[:, state.last_indices] != 0.0).any():
        raise InvariantViolation(f"error not zero on chosen set at iteration {t}")


@np.errstate(over="ignore", invalid="ignore")
def run(config: RunConfig) -> tuple[np.ndarray, list[TraceRecord]]:
    """Execute one seeded training run and return (final x, trace).

    Raises NumericError at the first non-finite gradient, payload mean,
    iterate, loss or squared gradient norm, before any invariant check of
    that step; that error replaces numpy's overflow and invalid-value
    warnings.
    """
    problem = build_problem(config)
    params = config.hyper()
    proto = config.protocol() if config.variant in SKETCHED else None
    state = OptimizerState.initial(
        config.variant, np.zeros(problem.dim), params, track_shadow=config.check_invariants
    )
    grads = np.empty((config.n_workers, problem.dim))
    records: list[TraceRecord] = []
    # v_hat before the step, for the check that v_hat never falls
    prev_v_hat = None
    if config.check_invariants and state.v_hat is not None:
        prev_v_hat = state.v_hat.copy()
    # the problem may hand work to the helper (see Problem), whose thread
    # starts at its first submit
    with concurrent.futures.ThreadPoolExecutor(1) as helper:
        for t in range(1, config.horizon + 1):
            problem.gradient(state.x, t, grads, helper)
            diag = step(state, grads, params, proto, t)
            loss, full_grad = problem.evaluate(state.x, pool=helper)
            grad_norm_sq = float(np.dot(full_grad, full_grad))
            for name, finite in (("iterate", np.isfinite(state.x).all()),
                                 ("train_loss", math.isfinite(loss)),
                                 ("grad_norm_sq", math.isfinite(grad_norm_sq))):
                if not finite:
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

