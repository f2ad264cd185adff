import math

import numpy as np
import pytest

from sketchgrad.compressors import ProtocolConfig, sequential_mean
from sketchgrad.optimizers import HyperParams, NumericError, OptimizerState, step, step_size
from sketchgrad.sketch import SketchConfig
from sketchgrad.verification import ga_dense_gap, shadow_gap_run


def proto(dim, k, p=1, rows=3, cols=64, seed=0):
    return ProtocolConfig(k=k, p_factor=p, sketch=SketchConfig(rows=rows, cols=cols, seed=seed, dim=dim))


def hp(**kw):
    base = dict(alpha=1.0, beta1=0.9, beta2=0.999, epsilon=1e-8, horizon=1, n_workers=1)
    base.update(kw)
    return HyperParams(**base)


def init(variant, p, x0=None, dim=None):
    return OptimizerState.initial(variant, np.zeros(dim) if x0 is None else x0, p)


# -------------------------------------------------------------- step sizes


def test_step_size_examples():
    p = hp(alpha=1.0, horizon=3)
    assert step_size(p, "pa") == 0.5
    assert step_size(p, "ga") == 0.5  # n = 1
    assert step_size(p, "sketched_sgd") == step_size(p, "dense_sgd") == step_size(p, "pa")
    assert step_size(p, "dense_amsgrad") == step_size(p, "ga")
    p2 = hp(alpha=0.01, horizon=99, n_workers=4)
    assert step_size(p2, "ga") == pytest.approx(0.01 / math.sqrt(1 + 99 / 4), abs=0)
    with pytest.raises(ValueError):
        step_size(p, "nope")


def test_hyperparams_validation():
    for value in (0.0, math.nan, math.inf):
        with pytest.raises(ValueError):
            hp(alpha=value)
        with pytest.raises(ValueError):
            hp(epsilon=value)
    with pytest.raises(ValueError):
        hp(beta1=1.0)
    with pytest.raises(ValueError):
        hp(beta2=-0.1)
    with pytest.raises(ValueError):
        hp(n_workers=0)


# -------------------------------------------------------------- step: pa


def test_initial_state_shapes():
    p = hp(n_workers=3, epsilon=1e-3)
    shapes = {
        "pa": ((3, 4), (3, 4), (3, 4)),
        "ga": ((3, 4), (4,), (3, 4)),
        "sketched_sgd": ((3, 4), None, (3, 4)),
        "dense_amsgrad": ((4,), (4,), None),
        "dense_sgd": (None, None, None),
    }
    for variant, (m, v, e) in shapes.items():
        st = init(variant, p, dim=4)
        assert (None if st.m is None else st.m.shape) == m
        assert (None if st.v_hat is None else st.v_hat.shape) == v
        assert (None if st.e is None else st.e.shape) == e
        assert (st.shadow_x is not None) == (variant in ("pa", "ga"))
        if v is not None:
            assert np.all(st.v == 1e-3) and np.all(st.v_hat == 1e-3)
    with pytest.raises(ValueError):
        init("adamw", p, dim=4)


def test_step_rejects_wrong_gradient_shape():
    p = hp(n_workers=2)
    st = init("pa", p, dim=3)
    with pytest.raises(ValueError, match="does not match"):
        step(st, [np.zeros(3)], p, proto(3, 1), 1)
    with pytest.raises(ValueError, match="does not match"):
        step(st, np.zeros((2, 4)), p, proto(3, 1), 1)


def test_pa_step_hand_case():
    # d=1, n=1, no compression: one full AMSGrad step computed by hand
    p = hp()
    st = init("pa", p, dim=1)
    diag = step(st, [np.array([1.0])], p, proto(1, 1), 1)
    x = st.x
    m = (1.0 - 0.9) * 1.0
    v = 0.999 * 1e-8 + (1.0 - 0.999) * 1.0
    v_hat = max(1e-8, v)
    delta = m / math.sqrt(v_hat)
    assert delta == pytest.approx(0.1 / math.sqrt(0.001), rel=1e-4)  # ~3.16227766
    alpha_t = 1.0 / math.sqrt(2.0)
    assert st.m[0, 0] == pytest.approx(m, rel=1e-15)
    assert st.v[0, 0] == pytest.approx(v, rel=1e-15)
    assert st.v_hat[0, 0] == pytest.approx(v_hat, rel=1e-15)
    assert x[0] == pytest.approx(-alpha_t * delta, rel=1e-14)
    assert st.e[0, 0] == 0.0
    assert diag.topk_overlap == 1.0


def test_pa_step_zero_gradients():
    p = hp(n_workers=2)
    d = 6
    st = init("pa", p, dim=d)
    step(st, [np.zeros(d), np.zeros(d)], p, proto(d, 2), 1)
    assert np.all(st.x == 0.0)
    assert np.all(st.m == 0.0) and np.all(st.e == 0.0)


def test_pa_step_identical_workers_symmetry():
    p = hp(n_workers=2)
    d = 8
    g = np.random.default_rng(0).standard_normal(d)
    st = init("pa", p, dim=d)
    for t in range(1, 6):
        step(st, [g, g], p, proto(d, 3), t)
    assert np.array_equal(st.e[0], st.e[1])
    assert np.array_equal(st.v_hat[0], st.v_hat[1])


def test_pa_step_nan_gradient():
    p = hp()
    st = init("pa", p, dim=2)
    with pytest.raises(NumericError, match="worker 0 at iteration 3"):
        step(st, [np.array([1.0, float("nan")])], p, proto(2, 1), 3)


def test_nan_gradient_names_the_first_bad_worker():
    p = hp(n_workers=10)
    st = init("pa", p, dim=2)
    grads = np.ones((10, 2))
    grads[3, 1] = np.nan
    grads[4:, 0] = np.inf  # later bad workers do not change the name
    with pytest.raises(NumericError, match="^non-finite gradient from worker 3 at iteration 3$"):
        step(st, grads, p, proto(2, 1), 3)


def test_pa_error_zero_on_chosen_and_carried():
    p = hp(n_workers=1, horizon=10)
    d = 10
    cfg = proto(d, 2, p=2, cols=128)
    st = init("pa", p, dim=d)
    g = np.arange(1.0, d + 1.0)
    step(st, [g], p, cfg, 1)
    payload = st.m[0] / np.sqrt(st.v_hat[0])
    zeros = st.e[0] == 0.0
    assert zeros.sum() >= 2  # at least the chosen coordinates
    nz = ~zeros
    assert np.allclose(st.e[0, nz], payload[nz], rtol=0, atol=0)


def test_pa_shadow_identity_over_run():
    assert shadow_gap_run("pa", seed=5) <= 1e-9


# -------------------------------------------------------------- step: ga


def test_ga_step_first_iteration_variance_frozen():
    # I_0 is empty, so h is all zero and v_hat stays at epsilon exactly
    p = hp(beta2=0.9, epsilon=1e-4, n_workers=2)
    d = 5
    st = init("ga", p, dim=d)
    grads = [np.ones(d), -0.5 * np.ones(d)]
    step(st, grads, p, proto(d, 2, cols=128), 1)
    assert np.all(st.v == 0.9 * 1e-4)
    assert np.all(st.v_hat == 1e-4)
    assert len(st.last_indices) == 2


def test_ga_degenerates_to_dense_amsgrad():
    # with epsilon above the squared-gradient scale the variance paths
    # coincide and GA at k=dim reproduces the dense optimizer
    assert ga_dense_gap(seed=3, epsilon=100.0) <= 1e-12
    # with small epsilon the dense oracle must skip the first variance
    # update (the server's initial index set is empty)
    assert ga_dense_gap(seed=3, epsilon=1e-8, lag_first_variance=True) <= 1e-12


def test_ga_lemma3_shadow_identity_over_run():
    assert shadow_gap_run("ga", seed=6) <= 1e-9


def test_ga_error_support_orthogonality():
    p = hp(n_workers=3, horizon=50, epsilon=1e-6)
    d = 20
    cfg = proto(d, 4, p=2, cols=64)
    st = init("ga", p, dim=d)
    rng = np.random.default_rng(9)
    for t in range(1, 51):
        grads = [rng.standard_normal(d) for _ in range(3)]
        step(st, grads, p, cfg, t)
        for w in range(3):
            assert np.all(st.e[w, st.last_indices] == 0.0)


def test_ga_upstream_includes_h_payload():
    p = hp(n_workers=2)
    d = 30
    cfg = proto(d, 3, p=2, rows=4, cols=16)
    st = init("ga", p, dim=d)
    diag = step(st, [np.ones(d), np.ones(d)], p, cfg, 1)
    assert diag.upstream_scalars == 4 * 16 + 2 * 3 + 3
    assert diag.downstream_scalars == 3


# ---------------------------------------------------------------- dense


def test_dense_zero_gradient_keeps_x():
    p = hp(n_workers=2)
    state = init("dense_amsgrad", p, x0=np.array([1.0, -2.0]))
    for t in range(1, 4):
        step(state, [np.zeros(2), np.zeros(2)], p, None, t)
    assert state.x.tolist() == [1.0, -2.0]


def test_dense_matches_pa_at_single_worker_full_k():
    # n=1 and k=dim turn parameter averaging into the dense optimizer
    p = hp(n_workers=1, horizon=20, epsilon=1e-8)
    d = 7
    cfg = proto(d, d, cols=256)
    pa = init("pa", p, dim=d)
    dense = init("dense_amsgrad", p, dim=d)
    rng = np.random.default_rng(4)
    for t in range(1, 21):
        g = rng.standard_normal(d)
        step(pa, [g], p, cfg, t)
        step(dense, [g], p, None, t)
        assert np.max(np.abs(pa.x - dense.x)) <= 1e-12


def test_dense_vhat_monotone():
    p = hp(n_workers=1, beta2=0.99)
    state = init("dense_amsgrad", p, dim=5)
    rng = np.random.default_rng(8)
    for t in range(1, 1001):
        prev = state.v_hat.copy()
        step(state, [rng.standard_normal(5)], p, None, t)
        assert np.all(state.v_hat >= prev)


# ------------------------------------------------------------ sketched sgd


def test_sketched_sgd_no_momentum_full_k_is_sgd():
    p = hp(beta1=0.0, n_workers=2, horizon=8)
    d = 5
    cfg = proto(d, d, cols=128)
    st = init("sketched_sgd", p, dim=d)
    x_ref = np.zeros(d)
    rng = np.random.default_rng(10)
    alpha_t = step_size(p, "pa")
    for t in range(1, 9):
        grads = [rng.standard_normal(d) for _ in range(2)]
        step(st, grads, p, cfg, t)
        x_ref = x_ref - alpha_t * sequential_mean(grads)
        assert np.max(np.abs(st.x - x_ref)) <= 1e-12


def test_sketched_sgd_noop_on_zero():
    p = hp(beta1=0.9)
    d = 4
    st = init("sketched_sgd", p, x0=np.ones(d))
    step(st, [np.zeros(d)], p, proto(d, 2, cols=64), 1)
    assert st.x.tolist() == [1.0, 1.0, 1.0, 1.0]
    assert np.all(st.e == 0.0)


def test_sketched_sgd_hand_case():
    # d=3, n=1, one step: u = g, payload = g, top-1 keeps the largest
    p = hp(beta1=0.5, alpha=2.0, horizon=3)
    d = 3
    cfg = proto(d, 1, p=2, cols=64)
    st = init("sketched_sgd", p, dim=d)
    g = np.array([0.5, -3.0, 1.0])
    step(st, [g], p, cfg, 1)
    alpha_t = 2.0 / math.sqrt(4.0)
    assert st.x.tolist() == [0.0, 3.0 * alpha_t, 0.0]  # x = 0 - alpha*(-3) at idx 1
    assert st.e.tolist() == [[0.5, 0.0, 1.0]]
    assert st.m.tolist() == [[0.5, -3.0, 1.0]]  # m holds u


def test_dense_sgd_step():
    p = hp(alpha=1.0, horizon=3)
    st = init("dense_sgd", p, dim=2)
    diag = step(st, [np.array([2.0, -4.0])], p, None, 1)
    assert st.x.tolist() == [-1.0, 2.0]
    assert diag.upstream_scalars == 2 and diag.downstream_scalars == 2
