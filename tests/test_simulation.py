import concurrent.futures
import dataclasses
import math
import os
import subprocess
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest

from sketchgrad import simulation
from sketchgrad.optimizers import NumericError, OptimizerState, step
from sketchgrad.simulation import (
    GATHER_BUDGET,
    SPLIT_BYTES,
    InvariantViolation,
    ProblemSpec,
    RunConfig,
    TRACE_FIELDS,
    logreg_gradients,
    make_logreg,
    make_quadratic,
    partition_data,
    run,
    smoothed_threshold_iteration,
    write_trace,
)


def finite_difference_gradient(loss, x):
    """Central differences with per-coordinate step 1e-6 * (1 + |x_i|)."""
    out = np.zeros_like(x)
    for i in range(x.shape[0]):
        h = 1e-6 * (1.0 + abs(x[i]))
        xp, xm = x.copy(), x.copy()
        xp[i] += h
        xm[i] -= h
        out[i] = (loss(xp) - loss(xm)) / (2.0 * h)
    return out


def reference_logreg_loss(features, labels, x, batch):
    """Mean cross-entropy of one batch of samples, computed alone."""
    xb, yb = features[batch], labels[batch]
    logits = xb @ x.reshape(-1, xb.shape[1]).T
    logits = logits - logits.max(axis=1, keepdims=True)
    return float(np.mean(np.log(np.exp(logits).sum(axis=1)) - logits[np.arange(len(yb)), yb]))


def reference_logreg_features(n_samples, dim, n_classes, seed, class_spread=2.0):
    """make_logreg's features as one expression, centers[labels] + noise,
    from the same draws in the same order."""
    rng = np.random.default_rng(seed)
    centers = class_spread * rng.standard_normal((n_classes, dim // n_classes))
    labels = np.arange(n_samples) % n_classes
    rng.shuffle(labels)
    return centers[labels] + rng.standard_normal((n_samples, dim // n_classes))


def reference_logreg_gradient(features, labels, x, batch):
    """One worker's minibatch gradient probs.T @ X[batch] / b, computed alone."""
    xb, yb = features[batch], labels[batch]
    logits = xb @ x.reshape(-1, xb.shape[1]).T
    exps = np.exp(logits - logits.max(axis=1, keepdims=True))
    probs = exps / exps.sum(axis=1)[:, None]
    probs[np.arange(len(yb)), yb] -= 1.0
    return (probs.T @ xb / len(yb)).reshape(-1)


# ---------------------------------------------------------------- problems


def test_quadratic_at_optimum():
    prob = make_quadratic(10, condition_number=25.0, seed=0)
    rng = np.random.default_rng(1)
    x = rng.standard_normal(10)
    g = prob.evaluate(x)[1]
    x_star = x - g / np.logspace(0, math.log10(25.0), 10)  # invert the diagonal
    assert prob.loss(x_star) == pytest.approx(0.0, abs=1e-20)
    assert np.allclose(prob.evaluate(x_star)[1], 0.0, atol=1e-12)


def test_quadratic_identity_condition():
    prob = make_quadratic(6, condition_number=1.0, seed=3)
    x = np.random.default_rng(2).standard_normal(6)
    g = prob.evaluate(x)[1]
    # A = I, so the gradient drop recovers x_star and loss is 0.5*|g|^2
    assert prob.loss(x) == pytest.approx(0.5 * float(np.dot(g, g)), rel=1e-12)


def test_quadratic_finite_differences():
    prob = make_quadratic(8, condition_number=10.0, seed=5)
    x = np.random.default_rng(6).standard_normal(8)
    fd = finite_difference_gradient(prob.loss, x)
    an = prob.evaluate(x)[1]
    assert np.max(np.abs(fd - an)) / max(1.0, np.max(np.abs(an))) <= 1e-6


def test_quadratic_validation():
    with pytest.raises(ValueError):
        make_quadratic(0, 10.0, 0)
    with pytest.raises(ValueError):
        make_quadratic(5, 0.5, 0)
    with pytest.raises(ValueError):
        make_quadratic(5, math.inf, 0)
    with pytest.raises(ValueError):
        make_quadratic(5, 10.0, 0, noise_std=math.inf)


def test_logreg_uniform_loss_at_zero():
    for c in (2, 5, 10):
        prob, _ = make_logreg(120, dim=c * 3, n_classes=c, seed=7)
        assert prob.loss(np.zeros(c * 3)) == pytest.approx(math.log(c), rel=1e-12)


def test_logreg_finite_differences():
    prob, (X, y) = make_logreg(60, dim=12, n_classes=3, seed=8)
    x = 0.3 * np.random.default_rng(9).standard_normal(12)
    fd = finite_difference_gradient(prob.loss, x)
    an = prob.evaluate(x)[1]
    assert np.max(np.abs(fd - an)) / max(1.0, np.max(np.abs(an))) <= 1e-5
    batch = np.array([0, 5, 17])
    fd_b = finite_difference_gradient(lambda z: reference_logreg_loss(X, y, z, batch), x)
    an_b = logreg_gradients(X, y, x, batch[None], np.empty((1, 12)))[0]
    assert np.max(np.abs(fd_b - an_b)) / max(1.0, np.max(np.abs(an_b))) <= 1e-5


def test_logreg_single_sample_hand_gradient():
    # one sample, 2 classes, 1 feature: p = softmax([w0 z, w1 z]),
    # grad_w0 = (p0 - 1[y=0]) z
    prob, (X, y) = make_logreg(2, dim=2, n_classes=2, seed=10)
    x = np.array([0.7, -0.2])
    batches = np.array([[0]])
    z = X[0, 0]
    logits = np.array([x[0] * z, x[1] * z])
    p = np.exp(logits - logits.max())
    p /= p.sum()
    expect = np.array([(p[0] - (y[0] == 0)) * z, (p[1] - (y[0] == 1)) * z])
    grad = logreg_gradients(X, y, x, batches, np.empty((1, 2)))[0]
    assert np.allclose(grad, expect, rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize(
    "n_features, n_workers, batch_size, workers_per_block",
    [
        (5, 10, 8, 10),  # the criterion-7 shape (dim 50): one block
        (6000, 3, 32, 1),  # dim 60k: one worker per block
        (2048, 5, 32, 2),  # blocks of 2, 2 and 1
    ],
)
def test_blocked_logreg_gradient_is_bit_equal_to_per_worker(
    n_features, n_workers, batch_size, workers_per_block
):
    per_block = max(1, GATHER_BUDGET // (batch_size * n_features * 8))
    assert min(per_block, n_workers) == workers_per_block
    prob, (X, y) = make_logreg(200, dim=10 * n_features, n_classes=10, seed=11)
    rng = np.random.default_rng(12)
    for scale in (0.01, 1.0, 30.0):
        x = scale * rng.standard_normal(prob.dim)
        batches = rng.integers(0, 200, size=(n_workers, batch_size))
        out = np.empty((n_workers, prob.dim))
        assert logreg_gradients(X, y, x, batches, out) is out
        ref = np.array([reference_logreg_gradient(X, y, x, batch) for batch in batches])
        assert np.array_equal(out.view(np.uint64), ref.view(np.uint64))



@pytest.mark.parametrize(
    "n_samples, dim, n_classes, seed, budget, blocks",
    [
        (240, 60, 6, 11, GATHER_BUDGET, 1),  # the golden logreg shape
        (103, 40, 4, 5, 10 * 10 * 8, 11),  # ten blocks of 10 rows and one of 3
    ],
)
def test_logreg_features_are_bit_equal_to_one_expression(
    monkeypatch, n_samples, dim, n_classes, seed, budget, blocks
):
    monkeypatch.setattr(simulation, "GATHER_BUDGET", budget)
    per_block = max(1, budget // (dim // n_classes * 8))
    assert -(-n_samples // per_block) == blocks
    _, (X, _) = make_logreg(n_samples, dim, n_classes, seed)
    ref = reference_logreg_features(n_samples, dim, n_classes, seed)
    assert np.array_equal(X.view(np.uint64), ref.view(np.uint64))


def test_logreg_build_holds_the_dataset_once():
    # centers[labels] + noise held two (n_samples, features) arrays at once:
    # a traced peak of 2.01x the features' bytes
    tracemalloc.start()
    try:
        _, (X, _) = make_logreg(1000, 4000, 4, seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * X.nbytes


def test_logreg_validation():
    with pytest.raises(ValueError):
        make_logreg(10, dim=9, n_classes=2, seed=0)  # dim not a multiple
    with pytest.raises(ValueError):
        make_logreg(10, dim=4, n_classes=1, seed=0)
    with pytest.raises(ValueError):
        make_logreg(1, dim=4, n_classes=2, seed=0)
    with pytest.raises(ValueError):
        make_logreg(10, dim=4, n_classes=2, seed=0, class_spread=math.nan)


# --------------------------------------------------------------- partition


def test_partition_single_worker():
    labels = np.array([0, 1, 0, 1, 2])
    for mode in ("iid", "label_skew"):
        shards = partition_data(labels, 1, mode, skew_param=0.5, seed=0)
        assert len(shards) == 1 and shards[0].tolist() == list(range(5))


def test_partition_iid_reproducible_and_balanced():
    labels = np.arange(103) % 7
    a = partition_data(labels, 4, "iid", seed=42)
    b = partition_data(labels, 4, "iid", seed=42)
    assert len(a) == len(b) and all(np.array_equal(s, t) for s, t in zip(a, b))
    sizes = [len(s) for s in a]
    assert sum(sizes) == 103 and max(sizes) - min(sizes) <= 1


def test_partition_every_sample_once_nonempty():
    _, (X, y) = make_logreg(101, dim=10, n_classes=5, seed=1)
    for mode, sp in (("iid", 1.0), ("label_skew", 0.3), ("label_skew", 0.01)):
        shards = partition_data(y, 7, mode, skew_param=sp, seed=3)
        assert all(len(s) > 0 for s in shards)
        assert sorted(np.concatenate(shards).tolist()) == list(range(101))


def test_partition_label_skew_concentrates():
    # in the small-alpha limit each shard is dominated by one class;
    # measured as mean best-class fraction over 50 seeds
    _, (X, y) = make_logreg(500, dim=50, n_classes=10, seed=2)
    conc = []
    for seed in range(50):
        for s in partition_data(y, 10, "label_skew", skew_param=0.005, seed=seed):
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


@pytest.mark.parametrize("kw", [{"variant": "bogus"}, {"alpha": -1.0}, {"variant": "ga", "k": 31}])
def test_run_config_rejects_bad_values_at_construction(kw):
    # each one once constructed and failed only inside run
    with pytest.raises(ValueError):
        quad_config(**kw)


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


def test_run_invariant_checks_enabled():
    spec = ProblemSpec(kind="quadratic", dim=25, condition_number=5.0, noise_std=1.0)
    cfg = RunConfig(problem=spec, variant="ga", alpha=0.1, epsilon=1e-4, horizon=30,
                    n_workers=3, k=4, p_factor=4, rows=3, cols=16, batch_size=4,
                    seed=5, check_invariants=True)
    _, records = run(cfg)
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


def test_shadow_check_scales_with_the_iterates():
    # GA at condition number 1e6 drives max|x| to about 3e5; the gap's
    # last-bit rounding reaches 1.9e-9 at iteration 39, which an absolute
    # 1e-9 bound once reported as a broken identity (the horizon sets the
    # step size, so it is part of the reproducer)
    spec = ProblemSpec(kind="quadratic", dim=50, condition_number=1e6, noise_std=1.0)
    cfg = RunConfig(problem=spec, variant="ga", alpha=0.01, horizon=40, n_workers=2, k=2,
                    p_factor=2, rows=3, cols=8, seed=0)
    x, records = run(cfg)
    assert len(records) == 40
    assert max(r.shadow_gap for r in records) > 1e-9
    assert max(r.shadow_gap for r in records) <= 1e-9 * np.max(np.abs(x))


@pytest.fixture
def noise_rows(monkeypatch):
    """The stream words of every noise row a run draws, with the thread that
    drew it."""
    drawn = []
    worker_rng = simulation._worker_rng

    def recording(words):
        drawn.append((words.tobytes(), threading.current_thread()))
        return worker_rng(words)

    monkeypatch.setattr(simulation, "_worker_rng", recording)
    return drawn


def rows_drawn(noise_rows, cfg):
    """The (iteration, worker) of each drawn row in sorted order, found from
    its words by numpy's own SeedSequence([seed, t, i]); words of no
    iteration up to the horizon fail the lookup."""
    index = {
        np.random.SeedSequence([cfg.seed, t, i]).generate_state(4, np.uint64).tobytes(): (t, i)
        for t in range(1, cfg.horizon + 1) for i in range(cfg.n_workers)
    }
    return sorted(index[words] for words, _ in noise_rows)


def each_row_once(horizon, n_workers):
    return [(t, i) for t in range(1, horizon + 1) for i in range(n_workers)]


def test_noisy_quadratic_gradient_has_the_same_bits_without_a_pool():
    # without a pool the caller draws every noise row itself
    cfg = quad_config(problem=ProblemSpec(kind="quadratic", dim=30, noise_std=1.0), horizon=3)
    x = np.random.default_rng(1).standard_normal(30)

    def gradients(pool):
        problem = make_quadratic(30, 5.0, 0, noise_std=1.0, config=cfg)
        outs = np.empty((cfg.horizon, cfg.n_workers, 30))
        for t in range(1, cfg.horizon + 1):
            problem.gradient(x, t, outs[t - 1], pool)
        return outs

    without = gradients(None)
    with concurrent.futures.ThreadPoolExecutor(1) as pool:
        with_pool = gradients(pool)
    assert np.array_equal(without.view(np.uint64), with_pool.view(np.uint64))
    assert not np.array_equal(without[:, 0], without[:, 1])  # each worker has its noise


def test_numeric_error_mid_run_stops_the_noise_helper(helpers, noise_rows):
    # the helper starts on iteration t+1's noise during step t; a run that
    # aborts must not leave it running, and no row is drawn twice
    spec = ProblemSpec(kind="quadratic", dim=30, condition_number=5.0, noise_std=1.0)
    # alpha 1e100 overflows the loss at iteration 2
    cfg = quad_config(problem=spec, alpha=1e100)
    with pytest.raises(NumericError, match="iteration 2"):
        run(cfg)
    assert rows_drawn(noise_rows, cfg) == each_row_once(3, 2)
    (helper,) = helpers
    assert helper.ran_on and all(th is not threading.main_thread() for th in helper.ran_on)
    assert not any(th.is_alive() for th in helper.ran_on)


class InlineExecutor(concurrent.futures.Executor):
    """Runs each submitted call at once on the submitting thread, so that
    run draws every noise row on its own thread, in order."""

    def submit(self, fn, *args, **kwargs):
        done = concurrent.futures.Future()
        done.set_result(fn(*args, **kwargs))
        return done


def serial_trace(monkeypatch, cfg, path):
    """Write cfg's trace from a run without a helper thread; return its x."""
    with monkeypatch.context() as m:
        m.setattr(concurrent.futures, "ThreadPoolExecutor", lambda workers: InlineExecutor())
        x, records = run(cfg)
    write_trace(records, str(path))
    return x


def wait_until_claimed(rows, timeout=10.0):
    deadline = time.monotonic() + timeout
    while not rows.empty():
        assert time.monotonic() < deadline, "the other thread claimed no row"
        time.sleep(1e-4)


@pytest.mark.parametrize("stalled", ["helper", "run"])
def test_stalled_thread_leaves_its_noise_rows_to_the_other(
    monkeypatch, tmp_path, noise_rows, stalled
):
    # both threads claim whole rows of each iteration's noise; whichever
    # thread is late, the other draws every row, and the trace is the
    # serial loop's
    spec = ProblemSpec(kind="quadratic", dim=40, condition_number=5.0, noise_std=1.0)
    cfg = quad_config(problem=spec, variant="ga", horizon=6, n_workers=3)
    ref_x = serial_trace(monkeypatch, cfg, tmp_path / "serial.csv")
    noise_rows.clear()
    caller = threading.current_thread()
    draw = simulation._draw_noise

    def stalling_draw(words, out, rows):
        if (threading.current_thread() is caller) == (stalled == "run"):
            wait_until_claimed(rows)
        draw(words, out, rows)

    monkeypatch.setattr(simulation, "_draw_noise", stalling_draw)
    x, records = run(cfg)
    write_trace(records, str(tmp_path / "shared.csv"))
    assert np.array_equal(x, ref_x)
    assert (tmp_path / "shared.csv").read_bytes() == (tmp_path / "serial.csv").read_bytes()
    assert rows_drawn(noise_rows, cfg) == each_row_once(6, 3)
    on_run = {th is caller for _, th in noise_rows}
    assert on_run == {stalled == "helper"}


def test_noise_row_claim_under_frequent_thread_switches(monkeypatch, tmp_path, noise_rows):
    # many small rows and a switch interval of 1 us make both threads claim
    # from each iteration at once: a row claimed twice or never shows as a
    # repeated or missing (t, i), or as other bits
    spec = ProblemSpec(kind="quadratic", dim=16, condition_number=5.0, noise_std=1.0)
    cfg = quad_config(problem=spec, horizon=30, n_workers=64)
    ref_x = serial_trace(monkeypatch, cfg, tmp_path / "serial.csv")
    noise_rows.clear()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        x, records = run(cfg)
    finally:
        sys.setswitchinterval(interval)
    write_trace(records, str(tmp_path / "shared.csv"))
    assert np.array_equal(x, ref_x)
    assert (tmp_path / "shared.csv").read_bytes() == (tmp_path / "serial.csv").read_bytes()
    assert rows_drawn(noise_rows, cfg) == each_row_once(30, 64)


@pytest.mark.parametrize("inline", [False, True], ids=["helper", "inline"])
@pytest.mark.parametrize("spec", [
    ProblemSpec(kind="logreg", dim=12, n_classes=3),
    ProblemSpec(kind="quadratic", dim=30, condition_number=5.0, noise_std=1.0),
], ids=["logreg", "noisy_quadratic"])
def test_stream_word_blocks_do_not_show_in_the_run(monkeypatch, tmp_path, spec, inline):
    # run derives the workers' stream words a block of at most STREAM_LANES
    # lanes (one iteration's at least) at a time; where the blocks end must
    # not change a bit, with the helper thread drawing noise or without it
    cfg = quad_config(problem=spec, variant="ga", horizon=7, n_workers=3)

    def traced(path):
        if inline:
            return serial_trace(monkeypatch, cfg, path)
        x, records = run(cfg)
        write_trace(records, str(path))
        return x

    ref_x = traced(tmp_path / "default.csv")
    derive = simulation._stream_words
    lanes = []

    def recording(seed, t, i):
        lanes.append(t.shape[0])
        return derive(seed, t, i)

    monkeypatch.setattr(simulation, "_stream_words", recording)
    # 1 and 2 lanes are below n_workers: one iteration a block; 9 lanes are
    # blocks of 3, 3 and 1 iterations
    for budget, blocks in ((1, [3] * 7), (2, [3] * 7), (6, [6, 6, 6, 3]), (9, [9, 9, 3])):
        monkeypatch.setattr(simulation, "STREAM_LANES", budget)
        lanes.clear()
        x = traced(tmp_path / f"{budget}.csv")
        assert lanes == blocks
        assert np.array_equal(x.view(np.uint64), ref_x.view(np.uint64))
        assert (tmp_path / f"{budget}.csv").read_bytes() == (tmp_path / "default.csv").read_bytes()
    lanes.clear()
    x, records = run(dataclasses.replace(cfg, horizon=0))
    assert records == [] and np.all(x == 0.0) and lanes == []


def numpy_minibatches(cfg):
    """Each iteration's (n, b) minibatches of a logreg run of cfg, drawn
    worker by worker from numpy's default_rng(SeedSequence([seed, t, i]))."""
    spec = cfg.problem
    labels = make_logreg(spec.n_samples, spec.dim, spec.n_classes, cfg.seed)[1][1]
    shards = partition_data(labels, cfg.n_workers, cfg.partition_mode, cfg.skew_param, cfg.seed)
    return [
        np.stack([
            shard[np.random.default_rng(np.random.SeedSequence([cfg.seed, t, i]))
                  .integers(0, shard.shape[0], size=cfg.batch_size)]
            for i, shard in enumerate(shards)
        ])
        for t in range(1, cfg.horizon + 1)
    ]


def test_draw_chunks_do_not_show_in_the_run(monkeypatch, tmp_path):
    # a block of stream words is drawn in chunks of whole iterations of at
    # most 32 * STREAM_LANES draws, one iteration's at least; where the
    # chunks end must not change a bit, and every minibatch is numpy's draw
    spec = ProblemSpec(kind="logreg", dim=12, n_classes=3)
    cfg = quad_config(problem=spec, variant="ga", horizon=7, n_workers=3, batch_size=40,
                      partition_mode="label_skew", skew_param=0.3)
    expected = numpy_minibatches(cfg)
    gradients, draws = simulation.logreg_gradients, simulation._bounded_draws
    batches, lanes = [], []

    def recording_gradients(features, labels, x, batch, out, pool=None, residuals=None,
                            scale=1.0):
        batches.append(batch.copy())
        return gradients(features, labels, x, batch, out, pool, residuals, scale)

    def recording_draws(words, sizes, b):
        lanes.append(words.shape[0])
        return draws(words, sizes, b)

    monkeypatch.setattr(simulation, "logreg_gradients", recording_gradients)
    monkeypatch.setattr(simulation, "_bounded_draws", recording_draws)
    ref_x, records = run(cfg)
    write_trace(records, str(tmp_path / "default.csv"))
    assert lanes == [21]
    assert len(batches) == 7 and all(map(np.array_equal, batches, expected))
    # 3 workers draw 120 an iteration: 9 lanes make blocks of 3, 3 and 1
    # iterations, and chunks of 2 iterations (288 draws); 20 lanes make
    # blocks of 6 and 1, and chunks of 5; with 1 lane every chunk is one
    # iteration, though its 120 draws are over 32
    for budget, chunks in ((1, [3] * 7), (9, [6, 3, 6, 3, 3]), (20, [15, 3, 3])):
        monkeypatch.setattr(simulation, "STREAM_LANES", budget)
        batches.clear()
        lanes.clear()
        x, records = run(cfg)
        write_trace(records, str(tmp_path / f"{budget}.csv"))
        assert lanes == chunks
        assert all(map(np.array_equal, batches, expected))
        assert np.array_equal(x.view(np.uint64), ref_x.view(np.uint64))
        assert (tmp_path / f"{budget}.csv").read_bytes() == (tmp_path / "default.csv").read_bytes()


def test_logreg_run_builds_no_stream_generator(monkeypatch):
    # every minibatch comes from the one block pass over PCG64 and Lemire's
    # draw; no (worker, iteration) stream gets a Generator of its own
    def no_generator(words):
        raise AssertionError("a logreg run built a stream Generator")

    monkeypatch.setattr(simulation, "_worker_rng", no_generator)
    spec = ProblemSpec(kind="logreg", dim=50, n_samples=500, n_classes=10)
    cfg = RunConfig(problem=spec, variant="ga", horizon=20, n_workers=10, k=5, p_factor=4,
                    rows=5, cols=25, batch_size=8, partition_mode="label_skew",
                    skew_param=0.1, seed=3)
    x, records = run(cfg)
    assert len(records) == 20 and np.all(np.isfinite(x))


@pytest.mark.parametrize("n_samples, n_classes, n_features, batch_size, submits", [
    # the smallest logreg whose three products all split: the first half of
    # each reads SPLIT_BYTES (512 samples, 512 feature columns or 2 workers
    # of 256-sample batches), and 2 classes give a half the fewest
    # multiply-adds
    (1024, 2, 1024, 256, 3),
    # 8 samples and 8 batch rows fewer, no half reaches SPLIT_BYTES
    (1016, 2, 1024, 248, 0),
    # only the logits split: split into 96 + 99 feature columns, OpenBLAS
    # would give the last 3 columns of the gradient other bits
    (6000, 18, 195, 8, 1),
])
def test_split_logreg_products_match_the_single_thread_path(
    recording_executor, n_samples, n_classes, n_features, batch_size, submits
):
    assert 512 * 1024 * 8 == SPLIT_BYTES  # the first case is the smallest that splits
    dim = n_classes * n_features
    problem, (features, labels) = make_logreg(n_samples, dim, n_classes, seed=3)
    rng = np.random.default_rng(4)
    x = rng.standard_normal(dim)
    batches = rng.integers(0, n_samples, size=(4, batch_size))
    with recording_executor(1) as pool:
        loss, grad = problem.evaluate(x, pool=pool)
        out = np.empty((4, dim))
        assert logreg_gradients(features, labels, x, batches, out, pool=pool) is out
    ref_loss, ref_grad = problem.evaluate(x)
    assert loss == ref_loss and np.array_equal(grad, ref_grad)
    assert np.array_equal(out, logreg_gradients(features, labels, x, batches, np.empty((4, dim))))
    # run's thread runs a half itself when the helper has not started it
    assert pool.submits == submits


SPLIT_BITS_CODE = """
import concurrent.futures
import numpy as np
from sketchgrad.simulation import logreg_gradients, make_logreg

for n_samples, n_classes, n_features in [(1024, 2, 1024), (6000, 18, 195)]:
    dim = n_classes * n_features
    problem, (features, labels) = make_logreg(n_samples, dim, n_classes, seed=3)
    x = np.random.default_rng(4).standard_normal(dim)
    batches = np.random.default_rng(5).integers(0, n_samples, size=(4, 256))
    with concurrent.futures.ThreadPoolExecutor(1) as pool:
        loss, grad = problem.evaluate(x, pool=pool)
        grads = logreg_gradients(features, labels, x, batches, np.empty((4, dim)), pool)
    ref_loss, ref_grad = problem.evaluate(x)
    ref = logreg_gradients(features, labels, x, batches, np.empty((4, dim)))
    print(loss == ref_loss, np.array_equal(grad, ref_grad), np.array_equal(grads, ref))
"""


def test_split_logreg_products_match_at_one_blas_thread():
    # the bits README promises at OPENBLAS_NUM_THREADS=1, which this process
    # may not run at: there a split of 195 feature columns into 96 + 99 gives
    # the gradient's last 3 columns other bits, so they must not split
    import sketchgrad

    src = os.path.dirname(os.path.dirname(os.path.abspath(sketchgrad.__file__)))
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1",
           "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run([sys.executable, "-c", SPLIT_BITS_CODE], env=env,
                          capture_output=True, text=True, check=True)
    assert done.stdout == "True True True\n" * 2


def test_numeric_error_in_split_products_stops_the_helper(late_helpers):
    # alpha 1e308 overflows the full-batch logits at iteration 1. The helper
    # computes half of them, and unless it runs under run's errstate the
    # overflow is a RuntimeWarning (an error in this suite), not NumericError
    spec = ProblemSpec(kind="logreg", n_samples=1024, dim=2048, n_classes=2)
    cfg = RunConfig(problem=spec, variant="ga", alpha=1e308, horizon=3, n_workers=4,
                    batch_size=256)
    with pytest.raises(NumericError, match="iteration 1"):
        run(cfg)
    (helper,) = late_helpers
    assert helper.ran_on and all(th is not threading.main_thread() for th in helper.ran_on)
    assert not any(th.is_alive() for th in helper.ran_on)


def split_iterations(variant, rows, pool):
    """Three iterations of run's loop, with its problem, state and step,
    on the smallest logreg whose three products split (see
    test_split_logreg_products_match_the_single_thread_path); returns the
    state and each iteration's diagnostics, loss and full gradient."""
    spec = ProblemSpec(kind="logreg", n_samples=1024, dim=2048, n_classes=2)
    cfg = RunConfig(problem=spec, variant=variant, horizon=3, n_workers=4, k=16, p_factor=3,
                    rows=rows, cols=64, batch_size=256)
    problem = simulation.build_problem(cfg)
    params = cfg.hyper()
    state = OptimizerState.initial(variant, np.zeros(problem.dim), params, track_shadow=True)
    grads = np.empty((cfg.n_workers, problem.dim))
    out = []
    for t in range(1, cfg.horizon + 1):
        problem.gradient(state.x, t, grads, pool)
        diag = step(state, grads, params, cfg.protocol(), t)
        loss, full_grad = problem.evaluate(state.x, pool=pool)
        out.append((dataclasses.astuple(diag), loss, full_grad))
    return state, out


def same_bits(a, b):
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


@pytest.mark.parametrize("variant, rows", [("pa", 4), ("ga", 3), ("sketched_sgd", 3)])
@pytest.mark.parametrize("helper", ["free", "late", "held"])
def test_split_step_keeps_the_bits_whichever_thread_runs_a_half(
    recording_executor, variant, rows, helper
):
    # the sketched step runs whole on run's thread, but the products that
    # feed it split: the state, diagnostics, losses and full gradients of
    # three iterations have the bits of the iterations without a pool,
    # whether the threads race, switching every microsecond (free), the
    # helper runs every half (late), or the helper is held on an Event, so
    # that the caller cancels every half it handed over and runs it itself,
    # returns within the timeout, and no cancelled half runs
    ref, want = split_iterations(variant, rows, None)
    held = threading.Event()
    interval = sys.getswitchinterval()
    with recording_executor(1, wait_for_start=helper == "late") as pool:
        if helper == "held":
            pool.submit(held.wait, 60)
        if helper == "free":
            sys.setswitchinterval(1e-6)
        try:
            start = time.monotonic()
            state, got = split_iterations(variant, rows, pool)
            elapsed = time.monotonic() - start
        finally:
            sys.setswitchinterval(interval)
            held.set()
    for name in ("x", "m", "v", "v_hat", "e", "shadow_x"):
        if getattr(ref, name) is not None:
            assert same_bits(getattr(state, name), getattr(ref, name)), name
    assert np.array_equal(state.last_indices, ref.last_indices)
    for (diag, loss, full_grad), (ref_diag, ref_loss, ref_grad) in zip(got, want):
        assert same_bits(diag, ref_diag) and same_bits(loss, ref_loss)
        assert same_bits(full_grad, ref_grad)
    assert all(th is not threading.main_thread() for th in pool.ran_on)
    # three halves handed over per iteration
    if helper == "late":
        assert pool.submits == len(pool.ran_on) == 3 * 3
    if helper == "held":
        assert elapsed < 30 and pool.submits == 1 + 3 * 3 and len(pool.ran_on) == 1


def test_small_logreg_run_submits_nothing_to_the_helper(helpers):
    # the acceptance shape (20 KB of features, 4 KB per (n, dim) array):
    # splitting its products would cost more than it saves, so the helper's
    # thread never starts
    spec = ProblemSpec(kind="logreg", dim=50, n_samples=500, n_classes=10)
    for variant in ("ga", "pa", "sketched_sgd"):
        cfg = RunConfig(problem=spec, variant=variant, horizon=5, n_workers=10, k=5,
                        p_factor=4, rows=5, cols=25, batch_size=8,
                        partition_mode="label_skew", skew_param=0.1)
        run(cfg)
    assert len(helpers) == 3
    assert all(helper.submits == 0 and helper.ran_on == [] for helper in helpers)


def test_sketched_step_submits_nothing_to_the_helper(helpers):
    # a noise-free quadratic gives the helper nothing to draw, and its
    # sketched steps run every pass whole on run's thread, though each
    # (n, dim) array holds 2 MiB at dim 32768 with 8 workers
    spec = ProblemSpec(kind="quadratic", dim=32768, noise_std=0.0)
    for variant in ("pa", "ga", "sketched_sgd"):
        run(quad_config(problem=spec, variant=variant, horizon=2, n_workers=8, k=50,
                        rows=5, cols=400))
    assert len(helpers) == 3
    assert all(helper.submits == 0 and helper.ran_on == [] for helper in helpers)


@pytest.mark.parametrize("kind", ["quadratic", "logreg"])
def test_run_evaluates_full_objective_once_per_iteration(monkeypatch, kind):
    # per iteration, one fused evaluate and one call for the workers'
    # gradients, for iterations 1, ..., horizon in order; the trace must
    # not go back to separate full-batch loss and gradient calls
    import sketchgrad.simulation as sim

    calls = {"gradient": [], "loss": 0, "evaluate": 0}
    build = sim.build_problem

    def counting_build(config):
        problem = build(config)
        gradient, loss, evaluate = problem.gradient, problem.loss, problem.evaluate

        def counted_gradient(x, t, *args, **kwargs):
            calls["gradient"].append(t)
            return gradient(x, t, *args, **kwargs)

        def counted_loss(x):
            calls["loss"] += 1
            return loss(x)

        def counted_evaluate(x, *args, **kwargs):
            calls["evaluate"] += 1
            return evaluate(x, *args, **kwargs)

        problem.gradient, problem.loss, problem.evaluate = (
            counted_gradient, counted_loss, counted_evaluate)
        return problem

    monkeypatch.setattr(sim, "build_problem", counting_build)
    spec = (ProblemSpec(kind="quadratic", dim=12, condition_number=5.0, noise_std=1.0)
            if kind == "quadratic" else ProblemSpec(kind="logreg", dim=12, n_classes=3))
    cfg = RunConfig(problem=spec, variant="ga", horizon=7, n_workers=3, k=3,
                    p_factor=2, rows=3, cols=8, batch_size=4, seed=2)
    _, records = run(cfg)
    assert len(records) == 7
    assert calls == {"gradient": list(range(1, 8)), "loss": 0, "evaluate": 7}


def test_dense_amsgrad_loss_decreasing_after_burn_in():
    spec = ProblemSpec(kind="quadratic", dim=30, condition_number=5.0, noise_std=0.0)
    cfg = RunConfig(problem=spec, variant="dense_amsgrad", alpha=0.1, epsilon=1e-2,
                    horizon=120, n_workers=2, batch_size=4, seed=14)
    _, records = run(cfg)
    losses = [r.train_loss for r in records]
    assert all(b < a for a, b in zip(losses[10:], losses[11:]))


def test_gradient_unbiasedness_iid():
    prob, (X, y) = make_logreg(240, dim=20, n_classes=4, seed=3)
    shards = partition_data(y, 4, "iid", seed=3)
    x = 0.1 * np.random.default_rng(4).standard_normal(20)
    full = prob.evaluate(x)[1]
    draws = []
    rng = np.random.default_rng(5)
    for _ in range(2500):
        batches = np.array([shard[rng.integers(0, len(shard), 16)] for shard in shards])
        draws.append(logreg_gradients(X, y, x, batches, np.empty((4, 20))))
    draws = np.concatenate(draws)
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
