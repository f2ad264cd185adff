import dataclasses
import logging
import math
import os

import numpy as np
import pytest

from sketchgrad.simulation import (
    InvariantViolation,
    ProblemSpec,
    RunConfig,
    TRACE_FIELDS,
    make_logreg,
    make_quadratic,
    partition_data,
    run,
    smoothed_threshold_iteration,
    write_trace,
)


def finite_difference_gradient(loss, x, batch=None):
    """Central differences with per-coordinate step 1e-6 * (1 + |x_i|)."""
    out = np.zeros_like(x)
    for i in range(x.shape[0]):
        h = 1e-6 * (1.0 + abs(x[i]))
        xp, xm = x.copy(), x.copy()
        xp[i] += h
        xm[i] -= h
        out[i] = (loss(xp, batch) - loss(xm, batch)) / (2.0 * h)
    return out


# ---------------------------------------------------------------- problems


def test_quadratic_at_optimum():
    prob = make_quadratic(10, condition_number=25.0, seed=0)
    rng = np.random.default_rng(1)
    x = rng.standard_normal(10)
    g = prob.gradient(x, None)
    x_star = x - g / np.logspace(0, math.log10(25.0), 10)  # invert the diagonal
    assert prob.loss(x_star, None) == pytest.approx(0.0, abs=1e-20)
    assert np.allclose(prob.gradient(x_star, None), 0.0, atol=1e-12)
    assert prob.optimum_value == 0.0


def test_quadratic_identity_condition():
    prob = make_quadratic(6, condition_number=1.0, seed=3)
    x = np.random.default_rng(2).standard_normal(6)
    g = prob.gradient(x, None)
    # A = I, so the gradient drop recovers x_star and loss is 0.5*|g|^2
    assert prob.loss(x, None) == pytest.approx(0.5 * float(np.dot(g, g)), rel=1e-12)


def test_quadratic_finite_differences():
    prob = make_quadratic(8, condition_number=10.0, seed=5)
    x = np.random.default_rng(6).standard_normal(8)
    fd = finite_difference_gradient(prob.loss, x)
    an = prob.gradient(x, None)
    assert np.max(np.abs(fd - an)) / max(1.0, np.max(np.abs(an))) <= 1e-6


def test_quadratic_validation():
    with pytest.raises(ValueError):
        make_quadratic(0, 10.0, 0)
    with pytest.raises(ValueError):
        make_quadratic(5, 0.5, 0)


def test_logreg_uniform_loss_at_zero():
    for c in (2, 5, 10):
        prob, _ = make_logreg(120, dim=c * 3, n_classes=c, seed=7)
        assert prob.loss(np.zeros(c * 3), None) == pytest.approx(math.log(c), rel=1e-12)


def test_logreg_finite_differences():
    prob, _ = make_logreg(60, dim=12, n_classes=3, seed=8)
    x = 0.3 * np.random.default_rng(9).standard_normal(12)
    fd = finite_difference_gradient(prob.loss, x)
    an = prob.gradient(x, None)
    assert np.max(np.abs(fd - an)) / max(1.0, np.max(np.abs(an))) <= 1e-5
    batch = np.array([0, 5, 17])
    fd_b = finite_difference_gradient(prob.loss, x, batch)
    an_b = prob.gradient(x, batch)
    assert np.max(np.abs(fd_b - an_b)) / max(1.0, np.max(np.abs(an_b))) <= 1e-5


def test_logreg_single_sample_hand_gradient():
    # one sample, 2 classes, 1 feature: p = softmax([w0 z, w1 z]),
    # grad_w0 = (p0 - 1[y=0]) z
    prob, (X, y) = make_logreg(2, dim=2, n_classes=2, seed=10)
    x = np.array([0.7, -0.2])
    batch = np.array([0])
    z = X[0, 0]
    logits = np.array([x[0] * z, x[1] * z])
    p = np.exp(logits - logits.max())
    p /= p.sum()
    expect = np.array([(p[0] - (y[0] == 0)) * z, (p[1] - (y[0] == 1)) * z])
    assert np.allclose(prob.gradient(x, batch), expect, rtol=1e-12, atol=1e-12)


def test_logreg_validation():
    with pytest.raises(ValueError):
        make_logreg(10, dim=9, n_classes=2, seed=0)  # dim not a multiple
    with pytest.raises(ValueError):
        make_logreg(10, dim=4, n_classes=1, seed=0)
    with pytest.raises(ValueError):
        make_logreg(1, dim=4, n_classes=2, seed=0)


# --------------------------------------------------------------- partition


def test_partition_single_worker():
    labels = np.array([0, 1, 0, 1, 2])
    for mode in ("iid", "label_skew"):
        part = partition_data(labels, 1, mode, skew_param=0.5, seed=0)
        assert np.all(part.shard_of == 0)


def test_partition_iid_reproducible_and_balanced():
    labels = np.arange(103) % 7
    a = partition_data(labels, 4, "iid", seed=42)
    b = partition_data(labels, 4, "iid", seed=42)
    assert np.array_equal(a.shard_of, b.shard_of)
    sizes = [len(s) for s in a.shards()]
    assert sum(sizes) == 103 and max(sizes) - min(sizes) <= 1


def test_partition_every_sample_once_nonempty():
    _, (X, y) = make_logreg(101, dim=10, n_classes=5, seed=1)
    for mode, sp in (("iid", 1.0), ("label_skew", 0.3), ("label_skew", 0.01)):
        part = partition_data(y, 7, mode, skew_param=sp, seed=3)
        shards = part.shards()
        assert all(len(s) > 0 for s in shards)
        assert sorted(np.concatenate(shards).tolist()) == list(range(101))


def test_partition_label_skew_concentrates():
    # in the small-alpha limit each shard is dominated by one class;
    # measured as mean best-class fraction over 50 seeds
    _, (X, y) = make_logreg(500, dim=50, n_classes=10, seed=2)
    conc = []
    for seed in range(50):
        part = partition_data(y, 10, "label_skew", skew_param=0.005, seed=seed)
        for s in part.shards():
            conc.append(np.bincount(y[s]).max() / len(s))
    assert float(np.mean(conc)) >= 0.9


def test_partition_errors():
    labels = np.arange(10) % 2
    with pytest.raises(ValueError):
        partition_data(labels, 11, "iid")
    with pytest.raises(ValueError):
        partition_data(labels, 2, "bogus")
    with pytest.raises(ValueError):
        partition_data(labels, 2, "label_skew", skew_param=0.0)
    with pytest.raises(ValueError):
        partition_data(np.array([]), 1, "iid")


# --------------------------------------------------------------------- run


def quad_config(**kw):
    base = dict(
        problem=ProblemSpec(kind="quadratic", dim=30, condition_number=5.0, noise_std=0.0),
        variant="dense_sgd",
        alpha=0.2,
        epsilon=1e-4,
        horizon=40,
        n_workers=2,
        k=3,
        p_factor=4,
        rows=3,
        cols=16,
        batch_size=4,
        seed=0,
    )
    base.update(kw)
    return RunConfig(**base)


def test_run_zero_horizon():
    x, records = run(quad_config(horizon=0))
    assert records == []
    assert np.all(x == 0.0)


def test_run_dense_sgd_monotone_noise_free():
    _, records = run(quad_config())
    losses = [r.train_loss for r in records]
    assert all(b < a for a, b in zip(losses, losses[1:]))


def test_run_ga_equals_dense_at_full_k():
    # epsilon above the gradient scale so the degenerate variance paths
    # coincide (the sketched server sees no gradient at t=1)
    spec = ProblemSpec(kind="quadratic", dim=20, condition_number=5.0, noise_std=1.0)
    kw = dict(problem=spec, alpha=0.1, epsilon=400.0, horizon=60, n_workers=3,
              k=20, p_factor=1, rows=3, cols=64, batch_size=4, seed=4)
    _, ga = run(RunConfig(variant="ga", **kw))
    _, de = run(RunConfig(variant="dense_amsgrad", **kw))
    for a, b in zip(ga, de):
        assert a.train_loss == pytest.approx(b.train_loss, rel=1e-12)
        assert a.grad_norm_sq == pytest.approx(b.grad_norm_sq, rel=1e-12)


def test_run_reproducible_bitwise():
    cfg = quad_config(variant="ga", horizon=25)
    xa, ra = run(cfg)
    xb, rb = run(cfg)
    assert np.array_equal(xa, xb)
    assert ra == rb


def test_run_invariant_checks_enabled(caplog):
    spec = ProblemSpec(kind="quadratic", dim=25, condition_number=5.0, noise_std=1.0)
    cfg = RunConfig(problem=spec, variant="ga", alpha=0.1, epsilon=1e-4, horizon=30,
                    n_workers=3, k=4, p_factor=4, rows=3, cols=16, batch_size=4,
                    seed=5, check_invariants=True)
    with caplog.at_level(logging.INFO, logger="sketchgrad.simulation"):
        _, records = run(cfg)
    assert any("inf-norm" in m for m in caplog.messages)
    assert max(r.shadow_gap for r in records) <= 1e-9


def test_run_without_invariants_skips_shadow():
    cfg = quad_config(variant="pa", check_invariants=False, horizon=5)
    _, records = run(cfg)
    assert all(math.isnan(r.shadow_gap) for r in records)


def test_run_invariant_violation_aborts(monkeypatch):
    # squeeze the tolerance below float noise so the check must trip
    import sketchgrad.simulation as sim

    monkeypatch.setattr(sim, "SHADOW_GAP_TOL", 0.0)
    cfg = quad_config(variant="ga", horizon=10)
    with pytest.raises(InvariantViolation, match="shadow identity"):
        run(cfg)


def test_dense_amsgrad_loss_decreasing_after_burn_in():
    spec = ProblemSpec(kind="quadratic", dim=30, condition_number=5.0, noise_std=0.0)
    cfg = RunConfig(problem=spec, variant="dense_amsgrad", alpha=0.1, epsilon=1e-2,
                    horizon=120, n_workers=2, batch_size=4, seed=14)
    _, records = run(cfg)
    losses = [r.train_loss for r in records]
    assert all(b < a for a, b in zip(losses[10:], losses[11:]))


def test_gradient_unbiasedness_iid():
    prob, (X, y) = make_logreg(240, dim=20, n_classes=4, seed=3)
    part = partition_data(y, 4, "iid", seed=3)
    shards = part.shards()
    x = 0.1 * np.random.default_rng(4).standard_normal(20)
    full = prob.gradient(x, None)
    draws = []
    rng = np.random.default_rng(5)
    for _ in range(2500):
        for shard in shards:
            batch = shard[rng.integers(0, len(shard), 16)]
            draws.append(prob.gradient(x, batch))
    draws = np.asarray(draws)
    se = draws.std(axis=0, ddof=1) / math.sqrt(draws.shape[0])
    assert np.all(np.abs(draws.mean(axis=0) - full) <= 3.0 * se + 1e-12)


def test_trace_csv_format(tmp_path):
    cfg = quad_config(variant="ga", horizon=4)
    _, records = run(cfg)
    path = tmp_path / "trace.csv"
    write_trace(records, str(path))
    lines = path.read_text().splitlines()
    assert lines[0] == ",".join(TRACE_FIELDS)
    assert len(lines) == 5
    first = lines[1].split(",")
    assert first[0] == "1"
    # 17 significant digits on float cells
    assert float(first[1]) == records[0].train_loss
    assert not any(name.endswith(".tmp") for name in os.listdir(tmp_path))


# ------------------------------------------------------------------ sweeps


def test_smoothed_threshold_iteration():
    assert smoothed_threshold_iteration([4.0, 2.0, 1.0], threshold=1.5, window=1) == 3
    assert smoothed_threshold_iteration([4.0, 2.0, 1.0], threshold=3.5, window=2) == 2
    assert smoothed_threshold_iteration([4.0, 4.0], threshold=1.0, window=5) == 2


def speedup_rows(base, worker_counts, threshold):
    """(n, iterations to threshold) per worker count, as `run`'s
    worker_counts sweep computes them."""
    rows = []
    for n in worker_counts:
        _, records = run(dataclasses.replace(base, n_workers=n))
        rows.append((n, smoothed_threshold_iteration([r.grad_norm_sq for r in records], threshold)))
    return rows


def test_speedup_sweep_single_row():
    cfg = quad_config(horizon=20)
    rows = speedup_rows(cfg, [1], threshold=1e12)
    assert len(rows) == 1 and rows[0][0] == 1 and rows[0][1] == 1


def test_speedup_sweep_noise_free_identical_across_n():
    # without gradient noise every worker computes the same gradient and
    # the n-independent sgd schedule reproduces the same trajectory
    cfg = quad_config(variant="dense_sgd", horizon=60, alpha=0.5)
    rows = speedup_rows(cfg, [1, 2, 4, 8], threshold=5.0)
    iters = {it for _, it in rows}
    assert len(iters) == 1 and iters != {60}
