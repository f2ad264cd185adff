"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
report (or `-rA` to see captured output after the run).
"""

import dataclasses
import json
import time

import numpy as np

from sketchgrad.cli import main as cli_main
from sketchgrad.compressors import ProtocolConfig, sign_compress
from sketchgrad.optimizers import HyperParams, OptimizerState, step
from sketchgrad.simulation import (
    ProblemSpec,
    RunConfig,
    make_logreg,
    partition_data,
    run,
    smoothed_threshold_iteration,
)
from sketchgrad.sketch import SketchConfig
from sketchgrad.verification import contraction_check, point_query_failure_rates


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"[criterion {num:2d}] {'PASS' if ok else 'FAIL'} - {detail}")


# ---------------------------------------------------------------------- 1


def test_criterion_1_ga_matches_dense_oracle():
    """GA at k = dim reproduces dense distributed AMSGrad per coordinate.

    epsilon is set above the squared-gradient scale so the server's
    variance path (which sees no gradient at t=1, its index set starting
    empty) coincides with the dense recursion; see the supplementary
    lagged-oracle check in the optimizer suite for the small-epsilon
    form of the same equivalence.
    """
    t0 = time.time()
    d, n, T = 50, 4, 100
    problem, (_, labels) = make_logreg(400, dim=d, n_classes=2, seed=101)
    shards = partition_data(labels, n, "iid", seed=101).shards()
    hp = HyperParams(alpha=0.05, beta1=0.9, beta2=0.999, epsilon=100.0, horizon=T, n_workers=n)
    cfg = ProtocolConfig(k=d, p_factor=1, sketch=SketchConfig(rows=5, cols=128, seed=101, dim=d))
    ga = OptimizerState.initial("ga", np.zeros(d), hp)
    dense = OptimizerState.initial("dense_amsgrad", np.zeros(d), hp)
    worst = 0.0
    for t in range(1, T + 1):
        grads = []
        for i in range(n):
            rng = np.random.default_rng(np.random.SeedSequence([101, t, i]))
            batch = shards[i][rng.integers(0, len(shards[i]), 32)]
            grads.append(problem.gradient(ga.x, batch))
        step(ga, grads, hp, cfg, t)
        step(dense, grads, hp, None, t)
        worst = max(worst, float(np.max(np.abs(ga.x - dense.x))))
    elapsed = time.time() - t0
    ok = worst <= 1e-12 and elapsed < 5.0
    _report(1, ok, f"max |x_ga - x_dense| = {worst:.3e} (tol 1e-12), {elapsed:.2f}s (< 5s)")
    assert worst <= 1e-12
    assert elapsed < 5.0


# ---------------------------------------------------------------------- 2


def test_criterion_2_shadow_identities():
    spec = ProblemSpec(kind="quadratic", dim=200, condition_number=10.0, noise_std=2.0)
    gaps = {}
    for variant in ("pa", "ga"):
        config = RunConfig(
            problem=spec, variant=variant, alpha=0.05, epsilon=1e-4, horizon=500,
            n_workers=4, k=20, p_factor=4, rows=5, cols=50, batch_size=16,
            seed=202, check_invariants=True,
        )
        _, records = run(config)
        assert len(records) == 500
        gaps[variant] = max(r.shadow_gap for r in records)
    ok = all(g <= 1e-9 for g in gaps.values())
    _report(2, ok, f"max shadow gap pa = {gaps['pa']:.3e}, ga = {gaps['ga']:.3e} (tol 1e-9)")
    assert ok


# ---------------------------------------------------------------------- 3


def test_criterion_3_contraction_bounds():
    t0 = time.time()
    lemma, safety, _ = contraction_check(seed=303, trials=500, scaled=False)
    lemma_s, safety_s, _ = contraction_check(seed=304, trials=500, scaled=True)
    elapsed = time.time() - t0
    ok = (
        lemma >= 0.95 and lemma_s >= 0.95
        and safety == 1.0 and safety_s == 1.0
        and elapsed < 60.0
    )
    _report(
        3,
        ok,
        f"contraction freq raw = {lemma:.3f}, scaled = {lemma_s:.3f} (>= 0.95); "
        f"safety = {safety:.3f}/{safety_s:.3f} (= 1.0); {elapsed:.1f}s (< 60s)",
    )
    assert lemma >= 0.95 and lemma_s >= 0.95
    assert safety == 1.0 and safety_s == 1.0
    assert elapsed < 60.0


# ---------------------------------------------------------------------- 4


def test_criterion_4_point_query_guarantee():
    t0 = time.time()
    _, rate_sq = point_query_failure_rates(seed=404, trials=500)
    elapsed = time.time() - t0
    ok = rate_sq <= 0.05 and elapsed < 30.0
    _report(4, ok, f"squared-bound failure rate = {rate_sq:.4f} (< 0.05), {elapsed:.1f}s (< 30s)")
    assert rate_sq <= 0.05
    assert elapsed < 30.0


# ---------------------------------------------------------------------- 5


def test_criterion_5_convergence_within_2x_of_dense():
    t0 = time.time()
    spec = ProblemSpec(kind="quadratic", dim=100, condition_number=10.0, noise_std=2.0)
    common = dict(problem=spec, alpha=0.05, epsilon=1e-4, horizon=2000, n_workers=8,
                  k=10, p_factor=4, rows=5, cols=40, batch_size=32, seed=505)
    _, ga = run(RunConfig(variant="ga", **common))
    _, dense = run(RunConfig(variant="dense_amsgrad", **common))
    mean_ga = float(np.mean([r.grad_norm_sq for r in ga]))
    mean_dense = float(np.mean([r.grad_norm_sq for r in dense]))
    elapsed = time.time() - t0
    ok = mean_ga <= 2.0 * mean_dense and elapsed < 30.0
    _report(
        5,
        ok,
        f"mean grad_norm_sq ga = {mean_ga:.4f}, dense = {mean_dense:.4f}, "
        f"ratio = {mean_ga / mean_dense:.3f} (<= 2.0); {elapsed:.1f}s (< 30s)",
    )
    assert mean_ga <= 2.0 * mean_dense
    assert elapsed < 30.0


# ---------------------------------------------------------------------- 6


def test_criterion_6_linear_speedup_trend():
    spec = ProblemSpec(kind="quadratic", dim=100, condition_number=10.0, noise_std=4.0)
    base = RunConfig(
        problem=spec, variant="ga", alpha=0.02, epsilon=1e-2, horizon=1200,
        n_workers=1, k=10, p_factor=4, rows=5, cols=40, batch_size=8, seed=21,
    )
    rows = []
    for n in [1, 2, 4, 8]:
        _, records = run(dataclasses.replace(base, n_workers=n))
        norms = [r.grad_norm_sq for r in records]
        rows.append((n, smoothed_threshold_iteration(norms, threshold=3.0, window=50)))
    iters = [it for _, it in rows]
    monotone = all(iters[j + 1] <= 1.10 * iters[j] for j in range(len(iters) - 1))
    resolved = iters[0] < base.horizon  # n=1 actually reached the target
    ok = monotone and resolved
    _report(6, ok, f"iterations to threshold {rows} non-increasing within 10%")
    assert monotone
    assert resolved


# ---------------------------------------------------------------------- 7


def test_criterion_7_non_iid_ga_beats_pa():
    spec = ProblemSpec(kind="logreg", dim=50, n_samples=500, n_classes=10)
    wins = 0
    finals = []
    for seed in range(10):
        common = dict(problem=spec, alpha=0.05, epsilon=1e-4, horizon=1000, n_workers=10,
                      k=5, p_factor=4, rows=5, cols=25, batch_size=8,
                      partition_mode="label_skew", skew_param=0.1, seed=seed)
        _, ga = run(RunConfig(variant="ga", **common))
        _, pa = run(RunConfig(variant="pa", **common))
        finals.append((ga[-1].train_loss, pa[-1].train_loss))
        wins += ga[-1].train_loss <= pa[-1].train_loss
    ok = wins >= 8
    _report(7, ok, f"GA final loss <= PA in {wins}/10 label-skew seeds (need >= 8)")
    assert wins >= 8, finals


# ---------------------------------------------------------------------- 8


def test_criterion_8_communication_accounting(tmp_path):
    d, rows, cols, k, pf = 200, 5, 50, 10, 4
    spec = ProblemSpec(kind="quadratic", dim=d, condition_number=5.0, noise_std=1.0)
    common = dict(problem=spec, alpha=0.05, epsilon=1e-4, horizon=20, n_workers=3,
                  k=k, p_factor=pf, rows=rows, cols=cols, batch_size=4, seed=808)
    _, ga = run(RunConfig(variant="ga", **common))
    ga_ok = all(
        r.upstream_scalars == rows * cols + pf * k + k and r.downstream_scalars == k
        for r in ga
    )
    _, pa = run(RunConfig(variant="pa", **common))
    pa_ok = all(
        r.upstream_scalars == rows * cols + pf * k and r.downstream_scalars == k
        for r in pa
    )

    # the published sketch shape at its native scale: rate exactly 24.0
    cfg_path = tmp_path / "preset.json"
    cfg_path.write_text(json.dumps({
        "problem": {"kind": "quadratic", "dim": 60000, "noise_std": 0.5},
        "preset": "small", "variant": "ga", "horizon": 2,
        "n_workers": 2, "batch_size": 2, "epsilon": 0.01,
    }))
    out = tmp_path / "out"
    assert cli_main(["run", str(cfg_path), "-o", str(out)]) == 0
    rate = json.loads((out / "summary.json").read_text())["compression_rate"]
    ok = ga_ok and pa_ok and rate == 24.0
    _report(
        8,
        ok,
        f"GA up = r*c+P*k+k, down = k on every iteration: {ga_ok}; "
        f"PA up = r*c+P*k, down = k: {pa_ok}; preset rate = {rate} (= 24.0)",
    )
    assert ga_ok and pa_ok
    assert rate == 24.0


# ---------------------------------------------------------------------- 9


def test_criterion_9_byte_identical_traces(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({
        "problem": {"kind": "quadratic", "dim": 200, "condition_number": 10.0, "noise_std": 2.0},
        "variant": "ga", "alpha": 0.05, "epsilon": 1e-4, "horizon": 50,
        "n_workers": 4, "k": 20, "p_factor": 4, "rows": 5, "cols": 50,
        "batch_size": 16, "seed": 909,
    }))
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert cli_main(["run", str(cfg_path), "-o", str(out_a)]) == 0
    assert cli_main(["run", str(cfg_path), "-o", str(out_b)]) == 0
    same = (out_a / "trace.csv").read_bytes() == (out_b / "trace.csv").read_bytes()
    _report(9, same, "two invocations produced byte-identical trace.csv")
    assert same


# --------------------------------------------------------------------- 10


def test_criterion_10_sign_compressor_contract():
    rng = np.random.default_rng(1010)
    violations = 0
    total = 0
    for dim in (3, 16, 64, 256):
        batches = 100_000 // (4 * 625)  # 25_000 vectors per dim, in chunks
        for _ in range(40):
            X = rng.standard_normal((625, dim)) * rng.uniform(1e-3, 1e3, (625, 1))
            mags = np.mean(np.abs(X), axis=1, keepdims=True)
            CX = np.where(X < 0, -mags, mags)
            lhs = np.sum((CX - X) ** 2, axis=1)
            norm_sq = np.sum(X * X, axis=1)
            rhs = norm_sq - np.sum(np.abs(X), axis=1) ** 2 / dim
            # the two sides are equal in exact arithmetic; 1e-12 slack is
            # taken in the inequality's own units, norm2(x)^2
            violations += int(np.sum(lhs > rhs + 1e-12 * np.maximum(1.0, norm_sq)))
            total += 625
    # spot-check the vectorized form against the public operator
    x = rng.standard_normal(33)
    assert np.array_equal(sign_compress(x), np.where(x < 0, -np.mean(np.abs(x)), np.mean(np.abs(x))))
    ok = violations == 0 and total >= 100_000
    _report(10, ok, f"{violations} violations beyond 1e-12 slack over {total} random vectors")
    assert violations == 0
    assert total >= 100_000
