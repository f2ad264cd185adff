"""Property tests for the sparse sketch operator, its wire format, the
top-m selection and the fused full-batch evaluation.

Each property compares the fast path against a plain reference: a
sorted() ranking, a loop of accumulate(), a worker-order sum of
per-worker sketches, np.median over the rows, and the separate full-batch
loss and gradient.
"""

import itertools

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sketchgrad.compressors import ProtocolConfig, _merged_sketch
from sketchgrad.simulation import make_logreg, make_quadratic
from sketchgrad.sketch import (
    CountSketch,
    SketchConfig,
    _median_of_rows,
    bucket_hash,
    sign_hash,
    sketch_rows,
    sketch_vector,
    top_m,
)

SETTINGS = settings(max_examples=150, deadline=None, derandomize=True, database=None)

# few distinct magnitudes, both signed zeros: ties are the common case
ties = st.sampled_from([0.0, -0.0, 0.5, -0.5, 1.0, -1.0, 2.0])
tie_heavy = st.lists(ties, min_size=1, max_size=40)
# arbitrary finite values mixed with both signed zeros
values = st.one_of(
    st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, -0.0]),
)
configs = st.builds(
    SketchConfig,
    rows=st.integers(1, 6),
    cols=st.integers(1, 8),
    seed=st.integers(0, 2**64 - 1),
    dim=st.integers(1, 30),
)


def oracle(scores, m):
    return sorted(range(len(scores)), key=lambda i: (-scores[i], i))[:m]


def bits(a):
    return np.ascontiguousarray(a, dtype=np.float64).view(np.uint64)


@SETTINGS
@given(tie_heavy, st.data())
@example([1.0] * 12, None)
@example([0.0, -0.0] * 6, None)
def test_top_m_matches_sorted_oracle(vector, data):
    v = np.array(vector)
    d = v.shape[0]
    ms = {1, d} if data is None else {1, d, data.draw(st.integers(1, d))}
    scores = np.abs(v)
    for m in ms:
        want = oracle(scores.tolist(), m)
        assert top_m(scores, m).tolist() == want


@SETTINGS
@given(configs, st.data())
def test_heavy_candidates_match_sorted_oracle(cfg, data):
    # small integer inputs on a small table: many estimates tie
    v = np.array(data.draw(st.lists(st.integers(-2, 2), min_size=cfg.dim, max_size=cfg.dim)))
    sk = sketch_vector(cfg, v.astype(float))
    scores = np.abs(sk.estimate_all()).tolist()
    for m in {1, cfg.dim, data.draw(st.integers(1, cfg.dim))}:
        assert sk.heavy_candidates(m).tolist() == oracle(scores, m)


@SETTINGS
@given(configs, st.data())
def test_sketch_rows_columns_bit_equal_sketch_vector_and_accumulate(cfg, data):
    n = data.draw(st.integers(1, 4))
    rows = [data.draw(st.lists(values, min_size=cfg.dim, max_size=cfg.dim)) for _ in range(n)]
    rows[0] = [0.0] * cfg.dim if data.draw(st.booleans()) else rows[0]
    matrix = np.array(rows)
    tables = sketch_rows(cfg, matrix)
    assert tables.shape == (cfg.size, n)
    for w in range(n):
        looped = CountSketch(cfg)
        for i, x in enumerate(rows[w]):
            looped.accumulate(i, x)
        column = tables[:, w].reshape(cfg.rows, cfg.cols)
        assert np.array_equal(bits(column), bits(looped.table))
        assert np.array_equal(bits(column), bits(sketch_vector(cfg, matrix[w]).table))


@SETTINGS
@given(configs, st.integers(1, 12), st.data())
def test_merged_sketch_sums_workers_in_order(cfg, n, data):
    # more than 8 workers: a pairwise sum over the worker axis would
    # round differently from the worker-order loop
    vecs = [
        np.array(data.draw(st.lists(values, min_size=cfg.dim, max_size=cfg.dim)))
        for _ in range(n)
    ]
    want = CountSketch(cfg)
    for v in vecs:
        want.table += sketch_vector(cfg, v).table
    want.table /= n
    merged = _merged_sketch(vecs, ProtocolConfig(k=1, p_factor=1, sketch=cfg))
    assert np.array_equal(bits(merged.table), bits(want.table))


# wire-format cells: both signed zeros, subnormals and the largest magnitudes
wire_cells = st.one_of(
    values, st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e-310, -1e-310, 1.7e308, -1.7e308])
)


@SETTINGS
@given(configs, st.data())
def test_wire_format_round_trips_bit_for_bit(cfg, data):
    cells = data.draw(st.lists(wire_cells, min_size=cfg.size, max_size=cfg.size))
    blob = CountSketch(cfg, np.reshape(cells, (cfg.rows, cfg.cols))).to_bytes()
    back = CountSketch.from_bytes(blob)
    # byte equality checks the sign of every zero, which == would not
    assert back.config == cfg and back.to_bytes() == blob
    for wrong in [blob[:end] for end in range(len(blob))] + [blob + b"\0"]:
        with pytest.raises(ValueError, match=f"got {len(wrong)}"):
            CountSketch.from_bytes(wrong)


@pytest.mark.parametrize("rows", range(1, 11))
def test_median_network_selects_the_middle_of_every_zero_one_column(rows):
    # 0-1 principle: a comparator network puts the k-th smallest value on
    # a wire for every input if it does so for every input of 0s and 1s
    columns = np.array(list(itertools.product([0.0, 1.0], repeat=rows))).T
    assert np.array_equal(_median_of_rows(columns.copy()), np.median(columns, axis=0))


@SETTINGS
@given(
    st.builds(
        SketchConfig,
        rows=st.integers(1, 10),  # odd and even depths, each its own network
        cols=st.integers(1, 8),
        seed=st.integers(0, 2**64 - 1),
        dim=st.integers(1, 30),
    ),
    st.data(),
)
def test_estimate_all_matches_median_reference(cfg, data):
    cell = data.draw(st.sampled_from([values, ties]))
    cells = data.draw(st.lists(cell, min_size=cfg.size, max_size=cfg.size))
    sk = CountSketch(cfg, np.array(cells).reshape(cfg.rows, cfg.cols))
    ref = [
        np.median(
            [sign_hash(cfg, j, i) * sk.table[j, bucket_hash(cfg, j, i)] for j in range(cfg.rows)]
        )
        for i in range(cfg.dim)
    ]
    # median and the comparator network may return different signs of zero
    assert np.array_equal(np.abs(sk.estimate_all()), np.abs(ref))
    assert all(abs(sk.estimate(i)) == abs(ref[i]) for i in range(cfg.dim))
    # one median behind both queries: the same bits, sign of zero included
    singles = [sk.estimate(i) for i in range(cfg.dim)]
    assert np.array_equal(bits(singles), bits(sk.estimate_all()))


@pytest.mark.parametrize(
    "bad", [np.zeros(5), np.zeros((2, 4)), np.array([[0.0, 1.0, np.nan, 0.0, 0.0]])]
)
def test_sketch_rows_rejects_bad_input(bad):
    with pytest.raises(ValueError):
        sketch_rows(SketchConfig(rows=2, cols=4, seed=1, dim=5), bad)


def assert_evaluate_is_loss_and_gradient(problem, x):
    loss, grad = problem.evaluate(x)
    assert loss == problem.loss(x, None)
    assert np.array_equal(bits(grad), bits(problem.gradient(x, None)))


@SETTINGS
@given(st.integers(1, 30), st.floats(1.0, 1e6), st.integers(0, 2**32 - 1), st.data())
def test_quadratic_evaluate_is_loss_and_gradient(dim, condition_number, seed, data):
    problem = make_quadratic(dim, condition_number, seed)
    x = np.array(data.draw(st.lists(values, min_size=dim, max_size=dim)))
    assert_evaluate_is_loss_and_gradient(problem, x)


@SETTINGS
@given(
    st.integers(2, 5),
    st.integers(1, 6),
    st.integers(0, 30),
    st.integers(0, 2**32 - 1),
    st.sampled_from([1e-3, 1.0, 30.0, 300.0, 3000.0]),
    st.data(),
)
def test_logreg_evaluate_is_loss_and_gradient(n_classes, n_features, extra, seed, scale, data):
    dim = n_classes * n_features
    problem, _ = make_logreg(n_classes + extra, dim, n_classes, seed)
    unit = st.floats(-1.0, 1.0, allow_nan=False)
    x = scale * np.array(data.draw(st.lists(unit, min_size=dim, max_size=dim)))
    assert_evaluate_is_loss_and_gradient(problem, x)


def test_logreg_evaluate_is_loss_and_gradient_with_subnormal_probabilities():
    # scale x so that the median sample's shifted losing logit is -726:
    # exp(-726) ~ 1e-315 is below the smallest normal float64 (~exp(-708))
    problem, (features, _) = make_logreg(200, 40, 2, seed=5)
    w = np.random.default_rng(6).standard_normal(40)
    margins = np.abs(features @ (w[20:] - w[:20]))
    x = (726.0 / np.median(margins)) * w
    logits = features @ x.reshape(2, 20).T
    probs = np.exp(logits - logits.max(axis=1, keepdims=True))
    assert np.any((probs > 0) & (probs < np.finfo(float).tiny))
    assert_evaluate_is_loss_and_gradient(problem, x)
