"""Seeded Monte-Carlo property suites behind the ``verify`` command.

Each suite re-checks the probabilistic guarantees and exact identities
the library is built around, printing measured rates against their
bounds. The same functions back the acceptance tests, so the command
line and the test suite cannot drift apart.
"""

from __future__ import annotations

import concurrent.futures
import math
from dataclasses import dataclass

import numpy as np

from .compressors import (
    ProtocolConfig,
    sequential_mean,
    sign_compress,
    sketched_topk_aggregate,
)
from .optimizers import HyperParams, OptimizerState, step, step_size
from .sketch import CountSketch, SketchConfig, _cells, merge, sketch_vector, top_m
from .simulation import ProblemSpec, RunConfig, _split, run

DELTA = 0.05  # failure-probability budget shared by the probabilistic checks
# the reference sketch shape: dimension, rows and columns
REF_DIM, REF_ROWS, REF_COLS = 10_000, 7, 2000


@dataclass
class CheckResult:
    suite: str
    name: str
    passed: bool
    measured: float
    bound: float
    detail: str = ""

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        extra = f" ({self.detail})" if self.detail else ""
        return (
            f"[{status}] {self.suite}/{self.name}: measured {self.measured:.6g} "
            f"vs bound {self.bound:.6g}{extra}"
        )


def _planted_vectors(
    rng: np.random.Generator, n_workers: int, dim: int, n_heavy: int
) -> np.ndarray:
    """The (n_workers, dim) rows of worker vectors sharing a planted heavy
    support, magnitudes in [5, 15), over a N(0, 0.5^2) background."""
    support = rng.choice(dim, size=n_heavy, replace=False)
    base = np.zeros(dim)
    base[support] = rng.uniform(5.0, 15.0, n_heavy) * rng.choice([-1.0, 1.0], n_heavy)
    return base + 0.5 * rng.standard_normal((n_workers, dim))


def _trial_counts(pool, trials: int, trial) -> tuple[int, ...]:
    """The sums over trials t in [0, trials) of trial(t)'s tuple of
    outcomes (bools or ints), half of the trials on the pool's thread, if
    given (see _split). Each trial seeds its own generator by t and integer
    sums are exact, so the counts do not depend on the split."""
    halves = _split(pool, trials, lambda lo, hi: [trial(t) for t in range(lo, hi)])
    return tuple(int(sum(col)) for col in zip(*(out for half in halves for out in half)))


# ---------------------------------------------------------------- sketch


def point_query_failure_rates(seed: int, trials: int = 500, pool=None) -> tuple[float, float]:
    """Monte-Carlo failure rates of the point-query guarantees on random
    Gaussian vectors at the reference shape, one queried coordinate per
    trial, half of the trials on the pool's thread, if given.

    Returns (amplitude rate, squared rate): the amplitude form tests
    |est - x_i| <= eps*norm2(x) with eps = 60/c (the Theta(1/eps) column
    constant chosen for the reference shape), the squared form tests
    |est^2 - x_i^2| <= eps*norm2(x)^2 with eps = 3/c.
    """
    eps_amp = 60.0 / REF_COLS
    eps_sq = 3.0 / REF_COLS

    def failures(trial: int) -> tuple[bool, bool]:
        trng = np.random.default_rng([seed, 17, trial])
        x = trng.standard_normal(REF_DIM)
        cfg = SketchConfig(rows=REF_ROWS, cols=REF_COLS, seed=int(trng.integers(1 << 62)),
                           dim=REF_DIM)
        sk = sketch_vector(cfg, x)
        i = int(trng.integers(REF_DIM))
        est = sk.estimate(i)
        nrm2 = float(np.dot(x, x))
        return (abs(est - x[i]) > eps_amp * math.sqrt(nrm2),
                abs(est * est - x[i] * x[i]) > eps_sq * nrm2)

    fails_amp, fails_sq = _trial_counts(pool, trials, failures)
    return fails_amp / trials, fails_sq / trials


def planted_recovery_rate(seed: int, trials: int = 200, pool=None) -> float:
    """Share of trials whose 10 planted heavy coordinates are all among the
    sketch's top 20 candidates, half of the trials on the pool's thread, if
    given. The heavies sit at >= 10 so they clear the l2-tail noise floor
    norm2(x)/sqrt(c) that the point-query guarantee allows."""

    def recovered(trial: int) -> tuple[bool]:
        trng = np.random.default_rng([seed, 23, trial])
        base = trng.standard_normal(REF_DIM)
        support = trng.choice(REF_DIM, size=10, replace=False)
        base[support] = trng.uniform(10, 20, 10) * trng.choice([-1.0, 1.0], 10)
        cfg = SketchConfig(rows=REF_ROWS, cols=REF_COLS, seed=int(trng.integers(1 << 62)),
                           dim=REF_DIM)
        cand = sketch_vector(cfg, base).heavy_candidates(20)
        return (np.isin(support, cand).all(),)

    (count,) = _trial_counts(pool, trials, recovered)
    return count / trials


def bucket_uniformity(seed: int) -> tuple[float, float]:
    """(p-value, sign bias) of one 256-bucket operator row over 100k
    coordinates: the upper tail of Pearson's chi-square statistic of the
    bucket counts, as scipy.stats.chisquare computes it, and |mean sign|."""
    from scipy import special  # loaded by verify alone, not by every run

    cfg = SketchConfig(rows=1, cols=256, seed=seed + 1, dim=100_000)
    buckets, signs = (a[:, 0] for a in _cells(cfg))
    counts = np.bincount(buckets, minlength=256).astype(np.float64)
    pvalue = special.chdtrc(counts.size - 1, np.sum((counts - counts.mean()) ** 2 / counts.mean()))
    return pvalue, abs(float(np.mean(signs)))


def sketch_suite(seed: int = 0) -> list[CheckResult]:
    results = []
    rng = np.random.default_rng(seed)

    # determinism: same config on fresh objects gives identical tables
    cfg = SketchConfig(rows=5, cols=64, seed=seed ^ 0xABCDEF, dim=512)
    v = rng.standard_normal(512)
    same = np.array_equal(sketch_vector(cfg, v).table, sketch_vector(cfg, v).table)
    results.append(CheckResult("sketch", "determinism", same, float(same), 1.0))

    pvalue, bias = bucket_uniformity(seed)
    results.append(
        CheckResult("sketch", "bucket_uniformity_chi2", pvalue > 0.01, pvalue, 0.01,
                    "p-value must exceed bound")
    )
    results.append(CheckResult("sketch", "sign_balance", bias < 0.02, bias, 0.02))

    # single nonzero coordinate estimated exactly
    cfg_s = SketchConfig(rows=4, cols=32, seed=seed + 2, dim=1000)
    sk = CountSketch(cfg_s).accumulate(123, -2.5)
    err = abs(sk.estimate(123) + 2.5)
    results.append(CheckResult("sketch", "single_item_exact", err == 0.0, err, 0.0))

    # linearity of the table under random combinations
    worst = 0.0
    cfg_l = SketchConfig(rows=5, cols=50, seed=seed + 3, dim=300)
    for _ in range(20):
        x, y = rng.standard_normal(300), rng.standard_normal(300)
        a, b = rng.uniform(-3, 3), rng.uniform(-3, 3)
        lhs = sketch_vector(cfg_l, a * x + b * y).table
        rhs = a * sketch_vector(cfg_l, x).table + b * sketch_vector(cfg_l, y).table
        scale_ref = max(1.0, float(np.max(np.abs(rhs))))
        worst = max(worst, float(np.max(np.abs(lhs - rhs))) / scale_ref)
    results.append(CheckResult("sketch", "table_linearity", worst <= 1e-12, worst, 1e-12))

    # merging n sketches equals sketching the summed vector
    vecs = [rng.standard_normal(300) for _ in range(8)]
    merged = CountSketch(cfg_l)
    for w in vecs:
        merged = merge(merged, sketch_vector(cfg_l, w))
    total = np.zeros(300)
    for w in vecs:
        total = total + w
    direct = sketch_vector(cfg_l, total).table
    scale_ref = max(1.0, float(np.max(np.abs(direct))))
    err = float(np.max(np.abs(merged.table - direct))) / scale_ref
    results.append(CheckResult("sketch", "merge_equals_sum", err <= 1e-12, err, 1e-12))

    # point queries on random gaussian vectors at the reference shape, and
    # planted heavy coordinates recovered among the top candidates
    trials = 500
    trials_rec = 200
    with concurrent.futures.ThreadPoolExecutor(1) as pool:
        rate_amp, rate_sq = point_query_failure_rates(seed, trials, pool)
        rate_rec = planted_recovery_rate(seed, trials_rec, pool)
    results.append(
        CheckResult("sketch", "point_query_amplitude", rate_amp <= DELTA,
                    rate_amp, DELTA, f"eps = 60/c over {trials} trials")
    )
    results.append(
        CheckResult("sketch", "point_query_squared", rate_sq <= DELTA,
                    rate_sq, DELTA, "|est^2 - x_i^2| <= (3/c)*norm2(x)^2")
    )

    results.append(
        CheckResult("sketch", "planted_recovery", rate_rec >= 1 - DELTA,
                    rate_rec, 1 - DELTA, "10 planted, m=20")
    )
    return results


# ------------------------------------------------------------ compressor


def _contraction_trial(
    trial: int, seed: int, scaled: bool
) -> tuple[bool, bool, bool]:
    """One aggregation trial; returns (lemma bound holds, safety bound
    holds, mean consistency exact)."""
    d, k = REF_DIM, 100
    rng = np.random.default_rng([seed, 31 if scaled else 29, trial])
    payloads = _planted_vectors(rng, 4, d, k)
    sk = SketchConfig(rows=REF_ROWS, cols=REF_COLS, seed=int(rng.integers(1 << 62)), dim=d)
    cfg = ProtocolConfig(k=k, p_factor=4, sketch=sk)
    root = 1.0
    v_hat = None
    if scaled:
        v_hat = np.exp(rng.uniform(math.log(1e-2), math.log(1e2), d))
        root = np.sqrt(v_hat)
    agg = sketched_topk_aggregate(payloads, cfg, v_hat=v_hat)
    target = sequential_mean(payloads) / root
    approx = agg.global_update.densify() / root
    diff = approx - target
    err_sq = float(np.dot(diff, diff))
    tgt_sq = float(np.dot(target, target))
    lemma = err_sq <= (1.0 - k / d) * tgt_sq
    safety = math.sqrt(err_sq) <= math.sqrt(tgt_sq)
    # the workers' exact values on the chosen set, averaged in worker order
    worker_mean = sequential_mean(payloads[:, agg.global_update.indices])
    consistent = np.array_equal(worker_mean, agg.global_update.values)
    return lemma, safety, consistent


def contraction_check(
    seed: int, trials: int = 500, scaled: bool = False, pool=None
) -> tuple[float, float, float]:
    """Frequencies of (lemma contraction, unconditional safety, exact
    mean consistency) over seeded planted-support aggregation trials, half
    of them on the pool's thread, if given."""
    lemma, safety, consistent = _trial_counts(
        pool, trials, lambda trial: _contraction_trial(trial, seed, scaled))
    return lemma / trials, safety / trials, consistent / trials


def compressor_suite(seed: int = 0) -> list[CheckResult]:
    results = []
    rng = np.random.default_rng(seed)

    # top-k selection, largest first, against a python sorted() oracle
    ok = True
    for _ in range(200):
        d = int(rng.integers(1, 40))
        v = np.round(rng.standard_normal(d), 1)  # rounding forces ties
        k = int(rng.integers(1, d + 1))
        oracle = sorted(range(d), key=lambda i: (-abs(v[i]), i))[:k]
        ok &= oracle == top_m(np.abs(v), k).tolist()
    results.append(CheckResult("compressor", "top_k_vs_oracle", ok, float(ok), 1.0))

    # sign compressor contract on random vectors
    violations = 0
    for _ in range(100):
        x = rng.standard_normal(int(rng.integers(1, 200))) * rng.uniform(0.1, 10)
        cx = sign_compress(x)
        lhs = float(np.sum((cx - x) ** 2))
        norm_sq = float(np.sum(x * x))
        rhs = norm_sq - float(np.sum(np.abs(x))) ** 2 / x.size
        if lhs > rhs + 1e-12 * max(1.0, norm_sq):
            violations += 1
    results.append(CheckResult("compressor", "sign_compress_bound", violations == 0,
                               float(violations), 0.0))

    # lemma contraction + unconditional safety + mean consistency, raw space
    # and through the v_hat-scaled route
    trials = 500
    with concurrent.futures.ThreadPoolExecutor(1) as pool:
        lemma, safety, consistent = contraction_check(seed, trials, False, pool)
        lemma_s, safety_s, _ = contraction_check(seed, 200, True, pool)
    results.append(
        CheckResult("compressor", "contraction_lemma", lemma >= 1 - DELTA, lemma, 1 - DELTA,
                    f"{trials} planted trials, d=10^4 k=100")
    )
    results.append(
        CheckResult("compressor", "unconditional_safety", safety == 1.0, safety, 1.0)
    )
    results.append(
        CheckResult("compressor", "mean_consistency", consistent == 1.0, consistent, 1.0)
    )

    results.append(
        CheckResult("compressor", "contraction_lemma_scaled", lemma_s >= 1 - DELTA,
                    lemma_s, 1 - DELTA, "log-uniform v_hat")
    )
    results.append(
        CheckResult("compressor", "unconditional_safety_scaled", safety_s == 1.0, safety_s, 1.0)
    )

    # communication accounting on one aggregation
    d_small = 200
    cfg = ProtocolConfig(
        k=10, p_factor=4, sketch=SketchConfig(rows=5, cols=50, seed=seed, dim=d_small)
    )
    agg = sketched_topk_aggregate([rng.standard_normal(d_small) for _ in range(3)], cfg)
    sent_up = cfg.sketch.size + agg.candidate_indices.size
    acct = cfg.upstream_scalars == sent_up == 5 * 50 + 4 * 10
    acct &= cfg.downstream_scalars == agg.global_update.indices.size == 10
    results.append(CheckResult("compressor", "accounting", acct, float(acct), 1.0,
                               "upstream r*c + P*k, downstream k"))
    return results


# ------------------------------------------------------------- optimizer


def ga_dense_gap(seed: int, epsilon: float, lag_first_variance: bool = False) -> float:
    """Max per-coordinate gap between GA at k = dim and a dense AMSGrad
    recursion over a shared random gradient sequence: 100 steps of 4
    workers at dim 50.

    With lag_first_variance the oracle's variance update skips the first
    gradient, mirroring the empty initial index set of the sketched
    server; that form matches at any epsilon. The plain form matches
    when epsilon dominates the squared gradients.
    """
    steps, dim, n = 100, 50, 4
    rng = np.random.default_rng(seed)
    hp = HyperParams(alpha=0.05, beta1=0.9, beta2=0.999, epsilon=epsilon,
                     horizon=steps, n_workers=n)
    cfg = ProtocolConfig(
        k=dim, p_factor=1, sketch=SketchConfig(rows=3, cols=32, seed=seed, dim=dim)
    )
    ga = OptimizerState.initial("ga", np.zeros(dim), hp)
    x = np.zeros(dim)
    m = np.zeros(dim)
    v = np.full(dim, epsilon)
    v_hat = np.full(dim, epsilon)
    alpha_t = step_size(hp, "ga")
    worst = 0.0
    for t in range(1, steps + 1):
        grads = [rng.standard_normal(dim) for _ in range(n)]
        step(ga, grads, hp, cfg, t)
        g = sequential_mean(grads)
        m = hp.beta1 * m + (1 - hp.beta1) * g
        gv = np.zeros(dim) if (lag_first_variance and t == 1) else g
        v = hp.beta2 * v + (1 - hp.beta2) * gv * gv
        v_hat = np.maximum(v_hat, v)
        x = x - alpha_t * m / np.sqrt(v_hat)
        worst = max(worst, float(np.max(np.abs(ga.x - x))))
    return worst


def shadow_gap_run(variant: str, seed: int) -> float:
    """Largest shadow-identity violation over a 300-step noisy-quadratic run."""
    spec = ProblemSpec(kind="quadratic", dim=200, condition_number=10.0, noise_std=2.0)
    config = RunConfig(
        problem=spec, variant=variant, alpha=0.05, epsilon=1e-4, horizon=300,
        n_workers=4, k=20, p_factor=4, rows=5, cols=50, batch_size=16, seed=seed,
        check_invariants=True,
    )
    _, records = run(config)
    return max(r.shadow_gap for r in records)


def optimizer_suite(seed: int = 0) -> list[CheckResult]:
    results = []

    gap_plain = ga_dense_gap(seed, epsilon=100.0)
    results.append(
        CheckResult("optimizer", "ga_equals_dense_at_full_k", gap_plain <= 1e-12,
                    gap_plain, 1e-12, "epsilon above gradient scale")
    )
    gap_lag = ga_dense_gap(seed, epsilon=1e-8, lag_first_variance=True)
    results.append(
        CheckResult("optimizer", "ga_equals_lagged_dense", gap_lag <= 1e-12,
                    gap_lag, 1e-12, "first-step variance lag, epsilon 1e-8")
    )

    for variant in ("pa", "ga"):
        gap = shadow_gap_run(variant, seed)
        results.append(
            CheckResult("optimizer", f"{variant}_shadow_identity", gap <= 1e-9, gap, 1e-9)
        )

    # v_hat never decreases across random steps
    rng = np.random.default_rng(seed)
    dim, n = 30, 3
    hp = HyperParams(alpha=0.1, beta1=0.9, beta2=0.99, epsilon=1e-8, horizon=1000, n_workers=n)
    cfg = ProtocolConfig(k=3, p_factor=4, sketch=SketchConfig(rows=3, cols=16, seed=seed, dim=dim))
    states = [OptimizerState.initial(v, np.zeros(dim), hp) for v in ("pa", "ga", "dense_amsgrad")]
    ga = states[1]
    monotone = True
    ortho = True
    for t in range(1, 1001):
        grads = rng.standard_normal((n, dim))
        for state in states:
            prev = state.v_hat.copy()
            step(state, grads, hp, cfg, t)
            monotone &= bool(np.all(state.v_hat >= prev))
        ortho &= bool(np.all(ga.e[:, ga.last_indices] == 0.0))
    results.append(CheckResult("optimizer", "v_hat_monotone", monotone, float(monotone), 1.0,
                               "1000 random steps, pa+ga+dense"))
    results.append(CheckResult("optimizer", "ga_error_zero_on_chosen", ortho, float(ortho), 1.0))

    # fixed seeds give bit-identical trajectories
    spec = ProblemSpec(kind="quadratic", dim=60, condition_number=5.0, noise_std=1.0)
    config = RunConfig(problem=spec, variant="ga", alpha=0.05, epsilon=1e-4, horizon=40,
                       n_workers=4, k=6, p_factor=4, rows=5, cols=30, seed=seed)
    xa, ra = run(config)
    xb, rb = run(config)
    same = np.array_equal(xa, xb) and ra == rb
    results.append(CheckResult("optimizer", "trajectory_determinism", same, float(same), 1.0))
    return results


SUITES = {
    "sketch": sketch_suite,
    "compressor": compressor_suite,
    "optimizer": optimizer_suite,
}


def run_suites(names: list[str], seed: int = 0) -> list[CheckResult]:
    results = []
    for name in names:
        results.extend(SUITES[name](seed))
    return results
