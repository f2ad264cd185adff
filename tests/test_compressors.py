import numpy as np
import pytest

from sketchgrad.compressors import (
    ProtocolConfig,
    SparseUpdate,
    compression_rate,
    sequential_mean,
    sign_compress,
    sketched_topk_aggregate,
    top_k,
)
from sketchgrad.sketch import SketchConfig


def proto(dim, k, p=4, rows=5, cols=50, seed=0):
    return ProtocolConfig(k=k, p_factor=p, sketch=SketchConfig(rows=rows, cols=cols, seed=seed, dim=dim))


# ------------------------------------------------------------ SparseUpdate


def test_sparse_update_validation():
    SparseUpdate(dim=5, indices=[0, 2, 4], values=[1.0, 2.0, 3.0])
    with pytest.raises(ValueError):
        SparseUpdate(dim=5, indices=[2, 0], values=[1.0, 2.0])
    with pytest.raises(ValueError):
        SparseUpdate(dim=5, indices=[1, 1], values=[1.0, 2.0])
    with pytest.raises(ValueError):
        SparseUpdate(dim=5, indices=[0, 5], values=[1.0, 2.0])
    with pytest.raises(ValueError):
        SparseUpdate(dim=5, indices=[0], values=[float("nan")])
    with pytest.raises(ValueError):
        SparseUpdate(dim=5, indices=[0, 1], values=[1.0])


def test_densify():
    u = SparseUpdate(dim=4, indices=[1, 3], values=[5.0, -2.0])
    assert u.densify().tolist() == [0.0, 5.0, 0.0, -2.0]
    assert np.count_nonzero(u.densify()) == 2


# ------------------------------------------------------------------ top_k


def test_top_k_examples():
    u = top_k(np.array([3.0, -5.0, 1.0]), 1)
    assert u.indices.tolist() == [1] and u.values.tolist() == [-5.0]
    x = np.array([0.5, -1.5, 2.5])
    full = top_k(x, 3)
    assert np.array_equal(full.densify(), x)
    tie = top_k(np.array([2.0, -2.0, 0.5]), 1)
    assert tie.indices.tolist() == [0] and tie.values.tolist() == [2.0]


def test_top_k_against_sorted_oracle():
    rng = np.random.default_rng(11)
    for _ in range(300):
        d = int(rng.integers(1, 30))
        v = np.round(rng.standard_normal(d), 1)
        k = int(rng.integers(1, d + 1))
        got = top_k(v, k)
        oracle = sorted(range(d), key=lambda i: (-abs(v[i]), i))[:k]
        assert got.indices.tolist() == sorted(oracle)
        assert np.array_equal(got.values, v[got.indices])


def test_top_k_range_error():
    with pytest.raises(ValueError):
        top_k(np.ones(3), 0)
    with pytest.raises(ValueError):
        top_k(np.ones(3), 4)


# ----------------------------------------------------------- sign_compress


def test_sign_compress_examples():
    assert sign_compress(np.array([1.0, -1.0])).tolist() == [1.0, -1.0]
    assert sign_compress(np.zeros(4)).tolist() == [0.0, 0.0, 0.0, 0.0]
    x = np.array([3.0, 1.0])
    cx = sign_compress(x)
    assert cx.tolist() == [2.0, 2.0]
    lhs = float(np.sum((cx - x) ** 2))
    rhs = float(np.sum(x * x) - np.sum(np.abs(x)) ** 2 / 2)
    assert lhs == pytest.approx(2.0, abs=0) and rhs == pytest.approx(2.0, abs=0)


def test_sign_compress_zero_sign_positive():
    cx = sign_compress(np.array([0.0, -2.0]))
    assert cx[0] == 1.0  # sign(0) defined as +1


def test_sign_compress_empty():
    with pytest.raises(ValueError):
        sign_compress(np.array([]))


def test_sign_compress_bound_randomized():
    rng = np.random.default_rng(12)
    for _ in range(1000):
        d = int(rng.integers(1, 64))
        x = rng.standard_normal(d) * rng.uniform(0.01, 100)
        cx = sign_compress(x)
        lhs = float(np.sum((cx - x) ** 2))
        norm_sq = float(np.sum(x * x))
        rhs = norm_sq - float(np.sum(np.abs(x))) ** 2 / d
        assert lhs <= rhs + 1e-12 * max(1.0, norm_sq)


# ---------------------------------------------------------- ProtocolConfig


def test_protocol_validation():
    sk = SketchConfig(rows=2, cols=8, seed=0, dim=20)
    with pytest.raises(ValueError):
        ProtocolConfig(k=0, p_factor=1, sketch=sk)
    with pytest.raises(ValueError):
        ProtocolConfig(k=21, p_factor=1, sketch=sk)
    with pytest.raises(ValueError):
        ProtocolConfig(k=6, p_factor=4, sketch=sk)  # P*k = 24 > 20


# ------------------------------------------------------------- aggregation


def test_aggregate_no_compression_recovers_vector():
    d = 16
    cfg = proto(d, k=d, p=1, cols=256)
    v = np.random.default_rng(13).standard_normal(d)
    res = sketched_topk_aggregate([v], cfg)
    assert np.array_equal(res.global_update.densify(), v)


def test_aggregate_cancelling_workers():
    d = 12
    cfg = proto(d, k=3, p=2, cols=64)
    x = np.random.default_rng(14).standard_normal(d)
    res = sketched_topk_aggregate([x, -x], cfg)
    assert np.all(res.global_update.values == 0.0)


def test_aggregate_structure_and_accounting():
    d = 40
    cfg = proto(d, k=5, p=3, rows=4, cols=32)
    vecs = [np.random.default_rng(s).standard_normal(d) for s in range(4)]
    res = sketched_topk_aggregate(vecs, cfg)
    assert len(res.chosen_indices) == 5
    assert len(res.candidate_indices) == 15
    assert set(res.chosen_indices) <= set(res.candidate_indices)
    assert res.upstream_scalars == 4 * 32 + 15
    assert res.downstream_scalars == 5
    assert np.array_equal(res.chosen_indices, res.global_update.indices)


def test_aggregate_mean_consistency_exact():
    d = 60
    cfg = proto(d, k=8, p=2, cols=64)
    vecs = [np.random.default_rng(100 + s).standard_normal(d) for s in range(5)]
    payloads = np.array(vecs)
    res = sketched_topk_aggregate(payloads, cfg)
    oracle = sequential_mean(payloads[:, res.chosen_indices])
    assert np.array_equal(oracle, res.global_update.values)


def test_aggregate_dimension_mismatch():
    cfg = proto(10, k=2, p=2, cols=16)
    with pytest.raises(ValueError):
        sketched_topk_aggregate([np.zeros(10), np.zeros(9)], cfg)
    with pytest.raises(ValueError):
        sketched_topk_aggregate(np.zeros((2, 9)), cfg)


def test_aggregate_planted_recovery_vs_bruteforce():
    # common heavy support across workers: the chosen set should match
    # the brute-force top-k of the true mean almost always
    d, k, n = 200, 10, 4
    hits = 0
    trials = 200
    for trial in range(trials):
        rng = np.random.default_rng([15, trial])
        support = rng.choice(d, size=k, replace=False)
        base = np.zeros(d)
        base[support] = rng.uniform(5, 15, k) * rng.choice([-1.0, 1.0], k)
        vecs = [base + 0.5 * rng.standard_normal(d) for _ in range(n)]
        cfg = proto(d, k=k, p=4, rows=7, cols=500, seed=int(rng.integers(1 << 62)))
        res = sketched_topk_aggregate(vecs, cfg)
        mean = sequential_mean(vecs)
        oracle = sorted(range(d), key=lambda i: (-abs(mean[i]), i))[:k]
        hits += res.chosen_indices.tolist() == sorted(oracle)
    assert hits / trials >= 0.95


def test_scaled_aggregate_unit_vhat_matches_unscaled():
    d = 50
    cfg = proto(d, k=6, p=3, cols=64)
    vecs = [np.random.default_rng(200 + s).standard_normal(d) for s in range(3)]
    plain = sketched_topk_aggregate(vecs, cfg)
    scaled = sketched_topk_aggregate(vecs, cfg, v_hat=np.ones(d))
    assert np.array_equal(plain.chosen_indices, scaled.chosen_indices)
    assert np.array_equal(plain.global_update.values, scaled.global_update.values)
    assert np.array_equal(plain.candidate_indices, scaled.candidate_indices)


def test_scaled_aggregate_hand_case():
    # mean [3, 2] with v_hat [100, 1]: scaled magnitudes [0.3, 2] flip the
    # winner from coordinate 0 to coordinate 1
    d = 2
    cfg = ProtocolConfig(
        k=1, p_factor=1, sketch=SketchConfig(rows=3, cols=64, seed=5, dim=d)
    )
    vecs = [np.array([3.0, 2.0]), np.array([3.0, 2.0])]
    res = sketched_topk_aggregate(vecs, cfg, v_hat=np.array([100.0, 1.0]))
    assert res.chosen_indices.tolist() == [1]
    assert res.global_update.values.tolist() == [2.0]  # unscaled mean value
    plain = sketched_topk_aggregate(vecs, cfg)
    assert plain.chosen_indices.tolist() == [0]


def test_scaled_aggregate_planted_recovery_vs_scaled_oracle():
    d, k, n = 200, 10, 4
    hits = 0
    trials = 200
    for trial in range(trials):
        rng = np.random.default_rng([16, trial])
        support = rng.choice(d, size=k, replace=False)
        base = np.zeros(d)
        base[support] = rng.uniform(5, 15, k) * rng.choice([-1.0, 1.0], k)
        vecs = [base + 0.5 * rng.standard_normal(d) for _ in range(n)]
        v_hat = np.exp(rng.uniform(np.log(1e-2), np.log(1e2), d))
        cfg = proto(d, k=k, p=4, rows=7, cols=500, seed=int(rng.integers(1 << 62)))
        res = sketched_topk_aggregate(vecs, cfg, v_hat=v_hat)
        mean = sequential_mean(vecs) / np.sqrt(v_hat)
        oracle = sorted(range(d), key=lambda i: (-abs(mean[i]), i))[:k]
        hits += res.chosen_indices.tolist() == sorted(oracle)
    assert hits / trials >= 0.95


def test_scaled_aggregate_rejects_bad_vhat():
    d = 10
    cfg = proto(d, k=2, p=2, cols=16)
    vecs = [np.ones(d)]
    with pytest.raises(ValueError):
        sketched_topk_aggregate(vecs, cfg, v_hat=np.zeros(d))
    with pytest.raises(ValueError):
        sketched_topk_aggregate(vecs, cfg, v_hat=-np.ones(d))
    with pytest.raises(ValueError):
        sketched_topk_aggregate(vecs, cfg, v_hat=np.ones(d - 1))


def test_contraction_and_safety_short():
    from sketchgrad.verification import contraction_check

    lemma, safety, consistent = contraction_check(seed=1, trials=60, scaled=False)
    assert lemma >= 0.95
    assert safety == 1.0
    assert consistent == 1.0
    lemma_s, safety_s, _ = contraction_check(seed=1, trials=60, scaled=True)
    assert lemma_s >= 0.95
    assert safety_s == 1.0


def test_compression_rate_formula():
    assert compression_rate(60000, 2000 + 2000 + 500, 500) == 24.0
    assert compression_rate(100, 100, 100) == 1.0
