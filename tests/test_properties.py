"""Property tests for the sparse sketch operator, its wire format, the
top-m selection, the worker-order mean, the fused full-batch evaluation,
the workers' reuse of its probabilities and the worker streams.

Each property compares the fast path against a plain reference: the
operator's cells filled row by row, a sorted() ranking, a loop of
accumulate(), a worker-order sum of per-worker sketches, a loop over
the rows, np.median over the rows, the loss alone and the blocked
minibatch gradient over the whole dataset as one batch, the logistic
regression formulas with a row-wise max, a 2-d label index and np.mean,
the workers' own probabilities, numpy's own SeedSequence, PCG64 and
default_rng, and scipy's csc_array product.
"""

import concurrent.futures
import contextlib
import itertools
import os
import subprocess
import sys
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sketchgrad import simulation
from sketchgrad import sketch as sketch_module
from sketchgrad.compressors import ProtocolConfig, _merged_sketch, sequential_mean
from sketchgrad.simulation import (
    ProblemSpec,
    RunConfig,
    _bounded_draws,
    _pcg_outputs,
    _stream_words,
    _worker_rng,
    build_problem,
    logreg_gradients,
    make_logreg,
)
from sketchgrad.sketch import (
    CountSketch,
    SketchConfig,
    _cells,
    _median_of_rows,
    _operator,
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


def mix64(z):
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


def reference_cells(cfg):
    """The (dim, rows) cells and signs filled the plain way, one row at a
    time: the row key hashed as a one-element array, the bucket by a uint64
    modulo, the sign by np.where on hash bit 0."""
    idx = np.arange(cfg.dim, dtype=np.uint64)
    cells, signs = [], []
    for j in range(cfg.rows):
        salted = cfg.seed ^ (((j + 1) * 0x9E3779B97F4A7C15) & (2**64 - 1))
        key = mix64(np.array([salted], dtype=np.uint64))[0]
        h = mix64((idx + np.uint64(1)) * np.uint64(0xC2B2AE3D27D4EB4F) ^ key)
        cells.append((h >> np.uint64(32)) % np.uint64(cfg.cols) + np.uint64(j * cfg.cols))
        signs.append(np.where((h & np.uint64(1)) == 0, 1.0, -1.0))
    return np.stack(cells, axis=1), np.stack(signs, axis=1)


@SETTINGS
@given(
    st.builds(
        SketchConfig,
        rows=st.integers(1, 10),
        cols=st.integers(1, 2**40),  # past 2**31 cells the indices are int64
        seed=st.integers(0, 2**64 - 1),
        dim=st.integers(1, 3000),
    )
)
@example(SketchConfig(rows=1, cols=2**31 - 1, seed=0, dim=1))  # the last int32 config
@example(SketchConfig(rows=2, cols=2**30, seed=0, dim=1))  # the first int64 one
def test_cells_match_the_row_by_row_reference(cfg):
    cells, signs = _cells(cfg)
    ref_cells, ref_signs = reference_cells(cfg)
    wide = max(cfg.rows * cfg.dim, cfg.size) >= 2**31
    assert cells.dtype == (np.int64 if wide else np.int32)
    assert np.array_equal(cells, ref_cells)
    assert np.array_equal(bits(signs), bits(ref_signs))


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


def worker_order_mean(rows):
    """The mean as a loop over the rows: acc = 0; acc += row; then / n."""
    acc = np.zeros_like(rows[0])
    for row in rows:
        acc += row
    return acc / len(rows)


# the layouts sequential_mean is handed: numpy reduces an F-ordered array,
# and rows of one element, pairwise unless the mean takes care
mean_layouts = {
    "C-ordered": lambda m, rng: m,
    "F-ordered": lambda m, rng: np.asfortranarray(m),
    "strided": lambda m, rng: np.repeat(m, 2, axis=1)[:, ::2],
    "gathered by column": lambda m, rng: m[:, rng.permutation(m.shape[1])],
    "list of rows": lambda m, rng: list(m),
    "1-d": lambda m, rng: m[:, 0],
    "width 1": lambda m, rng: m[:, :1],
    # the (n, rows*cols) F-ordered view _merged_sketch averages
    "sketch_rows(...).T": lambda m, rng: sketch_rows(
        SketchConfig(rows=int(rng.integers(1, 4)), cols=int(rng.integers(1, 9)),
                     seed=int(rng.integers(2**63)), dim=m.shape[1]),
        m,
    ).T,
}


@SETTINGS
@given(
    st.integers(1, 24),
    st.integers(1, 9),
    st.sampled_from(sorted(mean_layouts)),
    st.integers(0, 2**32 - 1),
    st.booleans(),
)
# from 8 rows on, a pairwise sum rounds otherwise than the loop
@example(12, 4, "F-ordered", 0, False)
@example(12, 1, "1-d", 0, False)
@example(12, 3, "width 1", 0, True)
@example(12, 5, "sketch_rows(...).T", 0, False)
def test_sequential_mean_is_the_worker_order_loop(n, width, layout, seed, zero_column):
    rng = np.random.default_rng(seed)
    # magnitudes from e-30 to e+30 of either sign, a tenth of them signed zeros
    matrix = rng.choice([-1.0, 1.0], (n, width)) * np.exp(rng.uniform(-30.0, 30.0, (n, width)))
    matrix[rng.random((n, width)) < 0.1] *= 0.0
    if zero_column:
        matrix[:, 0] = -0.0  # the loop's sum is +0.0
    rows = mean_layouts[layout](matrix, rng)
    assert np.array_equal(bits(sequential_mean(rows)), bits(worker_order_mean(rows)))


def test_sequential_mean_rejects_no_rows():
    for empty in ([], np.empty((0, 3))):
        with pytest.raises(ValueError):
            sequential_mean(empty)


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
    cells, signs = _cells(cfg)
    flat = sk.table.reshape(-1)
    ref = [
        np.median([signs[i, j] * flat[cells[i, j]] for j in range(cfg.rows)])
        for i in range(cfg.dim)
    ]
    # median and the comparator network may return different signs of zero
    assert np.array_equal(np.abs(sk.estimate_all()), np.abs(ref))
    assert all(abs(sk.estimate(i)) == abs(ref[i]) for i in range(cfg.dim))
    # one median behind both queries: the same bits, sign of zero included
    singles = [sk.estimate(i) for i in range(cfg.dim)]
    assert np.array_equal(bits(singles), bits(sk.estimate_all()))


@pytest.mark.parametrize("bad", [
    np.zeros(5), np.zeros((2, 4)), np.array([[0.0, 1.0, np.nan, 0.0, 0.0]]),
    # the last row's last entry
    np.array([[0.0] * 5, [1.0] * 4 + [np.inf]]),
])
def test_sketch_rows_rejects_bad_input(bad):
    with pytest.raises(ValueError):
        sketch_rows(SketchConfig(rows=2, cols=4, seed=1, dim=5), bad)


def test_sketch_rows_returns_overflowed_cells_of_a_finite_input():
    # only a non-finite input is rejected: a finite one whose cells
    # overflow gives +/-inf cells, as the product always did
    cfg = SketchConfig(rows=2, cols=1, seed=1, dim=4)
    _, signs = _cells(cfg)
    out = sketch_rows(cfg, 1e308 * signs[None, :, 0])
    assert out[0, 0] == np.inf and not np.isnan(out).any()


# signed zeros, subnormals, large magnitudes and ones whose sums overflow
kernel_values = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2e-308, 1e300, -1e300, 1e308, -1e308]),
    st.floats(-1e300, 1e300, allow_nan=False, allow_infinity=False),
)


@SETTINGS
@given(
    st.builds(
        SketchConfig,
        rows=st.integers(1, 6),
        cols=st.integers(1, 8),
        seed=st.integers(0, 2**64 - 1),
        dim=st.integers(1, 40),
    ),
    st.integers(1, 5),
    st.data(),
)
def test_sketch_rows_has_the_bits_of_scipys_csc_product(cfg, n, data):
    # scipy.sparse is the reference here only; the package runs its kernel
    # without importing it
    from scipy import sparse

    entries = data.draw(st.lists(kernel_values, min_size=n * cfg.dim, max_size=n * cfg.dim))
    W = np.array(entries).reshape(n, cfg.dim)
    signs, cells, indptr = _operator(cfg)
    ref = sparse.csc_array((signs, cells, indptr), shape=(cfg.size, cfg.dim)) @ W.T
    assert np.array_equal(bits(sketch_rows(cfg, W)), bits(ref))
    # the int64 indices of configs past 2**31 cells, which no test can build
    wide = (signs, cells.astype(np.int64), indptr.astype(np.int64))
    with mock.patch.object(sketch_module, "_operator", lambda config: wide):
        assert np.array_equal(bits(sketch_rows(cfg, W)), bits(ref))


def test_scipy_sparse_imports_after_the_kernel_and_agrees_with_it():
    import sketchgrad

    src = os.path.dirname(os.path.dirname(os.path.abspath(sketchgrad.__file__)))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    code = (
        "import sys, numpy as np\n"
        "from sketchgrad.sketch import SketchConfig, _operator, sketch_rows\n"
        "cfg = SketchConfig(rows=3, cols=11, seed=5, dim=300)\n"
        "W = np.random.default_rng(0).standard_normal((4, 300))\n"
        "out = sketch_rows(cfg, W)\n"
        "assert 'scipy.sparse' not in sys.modules\n"
        "from scipy import sparse\n"
        "ref = sparse.csc_array(_operator(cfg), shape=(cfg.size, cfg.dim)) @ W.T\n"
        "print(out.tobytes() == ref.tobytes())\n"
    )
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True)
    assert done.stdout == "True\n"


def test_missing_kernel_file_is_an_import_error_naming_the_path(monkeypatch):
    monkeypatch.setattr("importlib.machinery.EXTENSION_SUFFIXES", [".missing.so"])
    with pytest.raises(ImportError, match=r"sparse.+_sparsetools\.missing\.so"):
        sketch_module._load_sparsetools()


def test_cached_operator_stays_read_only():
    # every run of a process shares the cached arrays, _run_all's threads too
    cfg = SketchConfig(rows=3, cols=5, seed=2, dim=7)
    assert not any(a.flags.writeable for a in _operator(cfg))
    for view in _cells(cfg):
        with pytest.raises(ValueError):
            view[0, 0] = 0


def assert_evaluate_is_loss_and_gradient(problem, x, full):
    loss, grad = problem.evaluate(x)
    assert loss == problem.loss(x)
    assert np.array_equal(bits(grad), bits(full))


def logreg_full_gradient(features, labels, x):
    """The whole dataset as one worker's batch, through the blocked path."""
    batch = np.arange(labels.shape[0])[None]
    return logreg_gradients(features, labels, x, batch, np.empty((1, x.shape[0])))[0]


@SETTINGS
@given(st.integers(1, 30), st.floats(1.0, 1e6), st.integers(0, 2**32 - 1), st.data())
def test_quadratic_evaluate_is_loss_and_gradient(dim, condition_number, seed, data):
    # without noise every worker's gradient is the full gradient
    spec = ProblemSpec(kind="quadratic", dim=dim, condition_number=condition_number,
                       noise_std=0.0)
    problem = build_problem(RunConfig(problem=spec, variant="dense_sgd", horizon=1,
                                      n_workers=2, seed=seed))
    x = np.array(data.draw(st.lists(values, min_size=dim, max_size=dim)))
    workers = np.empty((2, dim))
    problem.gradient(x, 1, workers, None)
    for full in workers:
        assert_evaluate_is_loss_and_gradient(problem, x, full)


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
    problem, (features, labels) = make_logreg(n_classes + extra, dim, n_classes, seed)
    unit = st.floats(-1.0, 1.0, allow_nan=False)
    x = scale * np.array(data.draw(st.lists(unit, min_size=dim, max_size=dim)))
    assert_evaluate_is_loss_and_gradient(problem, x, logreg_full_gradient(features, labels, x))


def reference_evaluate(features, labels, x):
    """The full-batch loss and gradient by the plain formulas: the row max
    along axis 1, the 2-d label index and np.mean."""
    n_samples, n_features = features.shape
    rows = np.arange(n_samples)
    logits = np.matmul(features, x.reshape(-1, n_features).T)
    logits = logits - logits.max(axis=1, keepdims=True)
    exps = np.exp(logits)
    sums = exps.sum(axis=1)
    loss = float(np.mean(np.log(sums) - logits[rows, labels]))
    probs = exps / sums[:, None]
    probs[rows, labels] -= 1.0
    return loss, (np.matmul(probs.T, features) / n_samples).reshape(-1)


def reference_gradients(features, labels, x, batches):
    """The workers' minibatch gradients by the same plain formulas, as one
    block of logreg_gradients."""
    (n, b), n_features = batches.shape, features.shape[1]
    w_t = x.reshape(-1, n_features).T
    idx = batches.ravel()
    xb = features[idx].reshape(n, b, n_features)
    logits = np.matmul(xb, w_t).reshape(n * b, -1)
    logits -= logits.max(axis=1, keepdims=True)
    exps = np.exp(logits)
    probs = exps / exps.sum(axis=1)[:, None]
    probs[np.arange(n * b), labels[idx]] -= 1.0
    return np.matmul(probs.reshape(n, b, -1).transpose(0, 2, 1), xb).reshape(n, -1) / b


def first_term_matmul(a, b, out=None):
    """a @ b with each sum started from its first product, not from +0.0
    as BLAS starts it: a sum of -0.0 products stays -0.0, so logits can
    tie at a zero row max with both signs."""
    terms = np.asarray(a)[..., :, :, None] * np.asarray(b)[..., None, :, :]
    total = terms[..., 0, :].copy()
    for k in range(1, terms.shape[-2]):
        total += terms[..., k, :]
    if out is None:
        return total
    out[...] = total
    return out


def assert_same_bits_or_nan(got, want):
    got, want = np.asarray(got, dtype=np.float64), np.asarray(want, dtype=np.float64)
    nan = np.isnan(want)
    assert np.array_equal(np.isnan(got), nan)
    assert np.array_equal(bits(np.where(nan, 0.0, got)), bits(np.where(nan, 0.0, want)))


def assert_logreg_matches_reference(features, labels, x, problem, batches):
    loss, grad = problem.evaluate(x)
    want_loss, want_grad = reference_evaluate(features, labels, x)
    assert_same_bits_or_nan(loss, want_loss)
    assert_same_bits_or_nan(grad, want_grad)
    out = np.empty((batches.shape[0], x.shape[0]))
    logreg_gradients(features, labels, x, batches, out)
    assert_same_bits_or_nan(out, reference_gradients(features, labels, x, batches))


# weights that make zero, tied and huge logits
weights = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0, 745.0, -745.0]), st.floats(-1e3, 1e3))
# weights whose logits, in a row of positive features, tie at a zero max
zero_ties = st.sampled_from([0.0, -0.0, -1.0])


@SETTINGS
@given(
    st.integers(2, 40),
    st.integers(1, 3),
    st.integers(0, 20),
    st.integers(0, 2**32 - 1),
    st.one_of(st.lists(weights, min_size=1, max_size=40), st.lists(zero_ties, min_size=3, max_size=40)),
    st.one_of(st.just([]), st.lists(st.tuples(st.integers(0, 119),
                                              st.sampled_from([np.inf, -np.inf, np.nan])),
                                    min_size=1, max_size=2)),
    st.booleans(),
    st.tuples(st.integers(1, 12), st.integers(1, 9)),
)
# zero logits of both signs where the two ways of taking a row max return
# zeros of other signs (numpy 2.4 on x86-64)
@example(10, 1, 30, 0, [-0.0, -0.0, -1.0, -0.0, -1.0, -0.0, -0.0, 0.0, 0.0, -1.0], [], True, (10, 8))
def test_logreg_matches_the_reference_formulas(
    n_classes, n_features, extra, seed, cycle, non_finite, signed_zeros, shape
):
    dim = n_classes * n_features
    problem, (features, labels) = make_logreg(n_classes + extra, dim, n_classes, seed)
    x = np.resize(np.array(cycle), dim)
    for i, value in non_finite:
        x[i % dim] = value
    batches = np.random.default_rng(seed).integers(0, labels.shape[0], size=shape)
    product = first_term_matmul if signed_zeros else np.matmul
    with mock.patch.object(np, "matmul", product), np.errstate(over="ignore", invalid="ignore"):
        assert_logreg_matches_reference(features, labels, x, problem, batches)


def test_logreg_evaluate_is_loss_and_gradient_with_subnormal_probabilities():
    # scale x so that the median sample's shifted losing logit is -726:
    # exp(-726) ~ 1e-315 is below the smallest normal float64 (~exp(-708))
    problem, (features, labels) = make_logreg(200, 40, 2, seed=5)
    w = np.random.default_rng(6).standard_normal(40)
    margins = np.abs(features @ (w[20:] - w[:20]))
    x = (726.0 / np.median(margins)) * w
    logits = features @ x.reshape(2, 20).T
    probs = np.exp(logits - logits.max(axis=1, keepdims=True))
    assert np.any((probs > 0) & (probs < np.finfo(float).tiny))
    assert_evaluate_is_loss_and_gradient(problem, x, logreg_full_gradient(features, labels, x))
    batches = np.random.default_rng(7).integers(0, 200, size=(10, 8))
    assert_logreg_matches_reference(features, labels, x, problem, batches)


class PlantedRng:
    """np.random.default_rng's generator, but with feature column 0 zero
    except sample 5's, which is 1e-300: its draws of the class centres and
    of the noise have column 0 zero, bar that one entry of the noise."""

    def __init__(self, seed):
        self.rng = np.random.Generator(np.random.PCG64(seed))

    def __getattr__(self, name):  # partition_data's draws
        return getattr(self.rng, name)

    def standard_normal(self, size):
        drawn = self.rng.standard_normal(size)
        drawn[:, 0] = 0.0
        if drawn.shape[0] > 5:
            drawn[5, 0] = 1e-300
        return drawn


def separating_x(features, labels):
    """Two-class weights that put the median losing logit at -726, a
    subnormal probability of about 1e-315."""
    direction = features[labels == 1].mean(axis=0) - features[labels == 0].mean(axis=0)
    margins = np.abs(features @ direction)
    return np.concatenate([np.zeros(features.shape[1]), (726.0 / np.median(margins)) * direction])


def separated_logreg(monkeypatch, planted):
    """A two-class logistic regression built for a dense SGD run of 4
    workers with 256-sample batches, whose products split (1024 samples of
    1024 features); its stored features and the features as drawn (a
    config-less build's); and an x that puts the median losing logit at
    -726, a subnormal probability of about 1e-315. planted: built from
    PlantedRng's draws, with x's weight on feature 0 cancelling sample 5's
    margin."""
    spec = ProblemSpec(kind="logreg", dim=2048, n_samples=1024, n_classes=2)
    cfg = RunConfig(problem=spec, variant="dense_sgd", horizon=4, n_workers=4, batch_size=256,
                    seed=8)
    with monkeypatch.context() as m:
        if planted:
            m.setattr(np.random, "default_rng", PlantedRng)
        problem, (stored, labels) = make_logreg(1024, 2048, 2, seed=8, config=cfg)
        drawn = make_logreg(1024, 2048, 2, seed=8)[1][0]
    x = separating_x(drawn, labels)
    if planted:
        # cancel sample 5's margin through its planted feature: its
        # probabilities are then about 1/2, and their products with 1e-300
        # normal
        weights = x.reshape(2, -1)
        weights[1, 0] -= (drawn[5] @ weights[1]) / drawn[5, 0]
    return problem, stored, drawn, labels, x


def test_a_run_stores_its_features_lowered():
    # a run's problem whose features reach the gate holds them divided by
    # LIFT, exactly; 8 samples fewer, no half reads SPLIT_BYTES, and it
    # holds them as drawn
    for n_samples, scale in ((1024, simulation.LIFT), (1016, 1.0)):
        spec = ProblemSpec(kind="logreg", dim=2048, n_samples=n_samples, n_classes=2)
        cfg = RunConfig(problem=spec, variant="dense_sgd", horizon=1, n_workers=2, seed=8)
        stored, labels = make_logreg(n_samples, 2048, 2, seed=8, config=cfg)[1]
        drawn, drawn_labels = make_logreg(n_samples, 2048, 2, seed=8)[1]
        assert np.array_equal(bits(stored * scale), bits(drawn))
        assert np.array_equal(labels, drawn_labels)


@pytest.fixture
def gradient_spy(monkeypatch):
    """The batches and the residuals and scale arguments of each
    logreg_gradients call that a problem's gradient makes."""
    calls = []
    gradients = simulation.logreg_gradients

    def recording(features, labels, x, batches, out, pool=None, residuals=None, scale=1.0):
        calls.append((batches.copy(), residuals, scale))
        return gradients(features, labels, x, batches, out, pool, residuals, scale)

    monkeypatch.setattr(simulation, "logreg_gradients", recording)
    return calls


@pytest.mark.parametrize("pool", [False, True])
def test_logreg_lifted_products_at_split_size_match_the_reference(monkeypatch, gradient_spy, pool):
    # a run's problem that stores its features lowered gives the bits of
    # the plain formulas on the features as drawn, in evaluate and in the
    # workers' gradients, on one thread and on two, where many
    # probabilities are subnormal
    problem, stored, drawn, labels, x = separated_logreg(monkeypatch, planted=False)
    assert np.array_equal(bits(stored * simulation.LIFT), bits(drawn))
    probs = np.exp(-np.abs(np.matmul(drawn, x.reshape(2, -1).T @ [-1.0, 1.0])))
    assert np.count_nonzero((probs > 0) & (probs < np.finfo(float).tiny)) > 512
    out = np.empty((4, 2048))
    with concurrent.futures.ThreadPoolExecutor(1) if pool else contextlib.nullcontext() as helper:
        problem.gradient(x, 1, out, helper)
        loss, grad = problem.evaluate(x, pool=helper)
    ((batches, residuals, scale),) = gradient_spy
    assert residuals is None and scale == simulation.LIFT
    want_loss, want_grad = reference_evaluate(drawn, labels, x)
    assert_same_bits_or_nan(loss, want_loss)
    assert_same_bits_or_nan(grad, want_grad)
    assert_same_bits_or_nan(out, reference_gradients(drawn, labels, x, batches))


def test_a_feature_that_lowers_inexactly_keeps_the_plain_route(monkeypatch, gradient_spy):
    # 1e-300 / LIFT is subnormal and inexact: the run's problem built with
    # that feature keeps every feature as drawn and computes at scale 1.
    # Column 0's gradient is that feature's products alone, so lowered, it
    # would lose bits.
    problem, stored, drawn, labels, x = separated_logreg(monkeypatch, planted=True)
    assert drawn[5, 0] == 1e-300 and np.count_nonzero(drawn[:, 0]) == 1
    assert np.array_equal(bits(stored), bits(drawn))
    loss, grad = problem.evaluate(x)
    out = np.empty((4, 2048))
    problem.gradient(x, 1, out, None)
    ((batches, _, scale),) = gradient_spy
    assert scale == 1.0
    want_loss, want_grad = reference_evaluate(drawn, labels, x)
    assert_same_bits_or_nan(loss, want_loss)
    assert_same_bits_or_nan(grad, want_grad)
    assert_same_bits_or_nan(out, reference_gradients(drawn, labels, x, batches))
    assert np.all(np.abs(grad.reshape(2, -1)[:, 0]) > 1e-305)


@pytest.mark.parametrize("first", ["evaluate", "gradient"])
@pytest.mark.parametrize("value", [2.0**959, -2.0**959, np.inf, -np.inf, np.nan])
def test_a_weight_the_lift_would_overflow_restores_the_features(gradient_spy, first, value):
    # an x with an entry of 2**959 or more in magnitude, or a NaN, multiplies
    # the lowered features back to the drawn bits, whichever call sees it
    # first, and the problem gives the config-less problem's bits at scale
    # 1 from then on
    spec = ProblemSpec(kind="logreg", dim=2048, n_samples=1024, n_classes=2)
    cfg = RunConfig(problem=spec, variant="dense_sgd", horizon=2, n_workers=2, batch_size=256,
                    seed=8)
    problem, (stored, labels) = make_logreg(1024, 2048, 2, seed=8, config=cfg)
    plain, (drawn, _) = make_logreg(1024, 2048, 2, seed=8)
    x = 0.05 * np.random.default_rng(3).standard_normal(2048)
    assert np.array_equal(bits(stored * simulation.LIFT), bits(drawn))
    x[7] = value
    out = np.empty((2, 2048))
    with np.errstate(over="ignore", invalid="ignore"):
        for call in (first, "gradient" if first == "evaluate" else "evaluate"):
            if call == "evaluate":
                (loss, grad), (want_loss, want_grad) = problem.evaluate(x), plain.evaluate(x)
                assert_same_bits_or_nan(loss, want_loss)
                assert_same_bits_or_nan(grad, want_grad)
            else:
                problem.gradient(x, 1, out, None)
                want = logreg_gradients(drawn, labels, x, gradient_spy[0][0], np.empty_like(out))
                assert_same_bits_or_nan(out, want)
            assert np.array_equal(bits(stored), bits(drawn))
        x[7] = 0.0
        problem.gradient(x, 2, out, None)
    assert [scale for _, _, scale in gradient_spy] == [1.0, 1.0]
    assert np.array_equal(bits(stored), bits(drawn))
    assert_same_bits_or_nan(out, logreg_gradients(drawn, labels, x, gradient_spy[1][0],
                                                  np.empty_like(out)))


def test_a_lifted_evaluate_lowers_no_features(monkeypatch):
    # the features are lowered once, at the build: an evaluate with many
    # subnormal probabilities multiplies only its weights and probabilities
    problem, stored, drawn, labels, x = separated_logreg(monkeypatch, planted=False)
    operands = []
    multiply = np.multiply

    def recording(*args, **kwargs):
        operands.extend(a for a in (*args, *kwargs.values()) if isinstance(a, np.ndarray))
        return multiply(*args, **kwargs)

    monkeypatch.setattr(np, "multiply", recording)
    loss, grad = problem.evaluate(x)
    monkeypatch.undo()
    assert not any(np.may_share_memory(a, stored) or a.size >= stored.size // 8
                   for a in operands)
    want_loss, want_grad = reference_evaluate(drawn, labels, x)
    assert_same_bits_or_nan(loss, want_loss)
    assert_same_bits_or_nan(grad, want_grad)


@pytest.mark.parametrize("pool", [False, True])
def test_gradient_product_columns_are_whole_tiles(monkeypatch, pool):
    # a column edge through an 8-column tile can change bits with another
    # OpenBLAS build, though not always with this one, so the edges are
    # pinned by position: under a pool, 4104 columns of 512 samples split
    # into 2048 + 2056
    problem, (features, labels) = make_logreg(512, 2 * 4104, 2, seed=4)
    reads = []
    matmul = np.matmul

    def recording(a, b, *args, **kwargs):
        # the gradient product's features[:, lo:hi], by its first column
        if b.shape[0] == 512 and np.may_share_memory(b, features):
            lo = (b.__array_interface__["data"][0] - features.__array_interface__["data"][0]) // 8
            reads.append((lo, lo + b.shape[1]))
        return matmul(a, b, *args, **kwargs)

    monkeypatch.setattr(np, "matmul", recording)
    x = np.random.default_rng(5).standard_normal(2 * 4104)
    with concurrent.futures.ThreadPoolExecutor(1) if pool else contextlib.nullcontext() as helper:
        loss, grad = problem.evaluate(x, pool=helper)
    monkeypatch.undo()
    want = [0, 2048, 4104] if pool else [0, 4104]
    assert sorted(reads) == list(zip(want, want[1:]))
    assert all(edge % simulation.BLAS_TILE == 0 for block in reads for edge in block)
    want_loss, want_grad = reference_evaluate(features, labels, x)
    assert_same_bits_or_nan(loss, want_loss)
    assert_same_bits_or_nan(grad, want_grad)


def logreg_for_a_run(n_samples, n_classes, n_features, batch_size, n_workers=2, seed=8):
    """make_logreg's problem with the workers of a dense SGD run, and the
    dataset as drawn: a config-less build's, as the run's own problem may
    store its features lowered (see simulation.LIFT)."""
    spec = ProblemSpec(kind="logreg", dim=n_classes * n_features, n_samples=n_samples,
                       n_classes=n_classes)
    cfg = RunConfig(problem=spec, variant="dense_sgd", horizon=4, n_workers=n_workers,
                    batch_size=batch_size, seed=seed)
    problem = make_logreg(n_samples, spec.dim, n_classes, seed, config=cfg)[0]
    return problem, make_logreg(n_samples, spec.dim, n_classes, seed)[1]


def reference_residuals(features, labels, x):
    """Every sample's softmax minus one-hot by the plain formulas, from the
    logits X @ W.T."""
    logits = np.matmul(features, x.reshape(-1, features.shape[1]).T)
    exps = np.exp(logits - logits.max(axis=1, keepdims=True))
    probs = exps / exps.sum(axis=1)[:, None]
    probs[np.arange(labels.shape[0]), labels] -= 1.0
    return probs


@pytest.mark.parametrize("pool", [False, True])
@pytest.mark.parametrize("separated", [False, True])
def test_reused_residuals_give_the_computed_gradients(gradient_spy, pool, separated):
    # a 512-row batch of 1024 features and 2 classes makes 1048576
    # multiply-adds, over GEMM_MIN_MACS: after evaluate at the same x the
    # workers gather its residual probabilities and lift them, with many
    # subnormal ones when x separates the classes, with the computed bits
    problem, (features, labels) = logreg_for_a_run(1024, 2, 1024, 512)
    x = (separating_x(features, labels) if separated
         else 0.05 * np.random.default_rng(3).standard_normal(2048))
    out = np.empty((2, 2048))
    with concurrent.futures.ThreadPoolExecutor(1) if pool else contextlib.nullcontext() as helper:
        problem.gradient(x, 1, out, helper)  # no evaluate yet
        problem.evaluate(x, pool=helper)
        problem.gradient(x, 2, out, helper)
        computed = logreg_gradients(features, labels, x, gradient_spy[1][0], np.empty((2, 2048)),
                                    helper)
    assert gradient_spy[0][1] is None and gradient_spy[1][1] is not None
    assert gradient_spy[0][2] == gradient_spy[1][2] == simulation.LIFT
    assert np.array_equal(bits(out), bits(computed))
    assert np.array_equal(bits(out), bits(reference_gradients(features, labels, x,
                                                              gradient_spy[1][0])))


@pytest.mark.parametrize("change", [None, "sign of zero", "nan payload", "least subnormal"])
def test_an_x_changed_in_place_recomputes_the_residuals(gradient_spy, change):
    # the workers compare x with evaluate's copy bit for bit: a change that
    # compares equal as a float, or one no float compares equal to, still
    # makes them compute their own probabilities
    problem, (features, labels) = logreg_for_a_run(1024, 2, 1024, 512)
    x = 0.05 * np.random.default_rng(3).standard_normal(2048)
    x[7] = np.nan if change == "nan payload" else 0.0
    out = np.empty((2, 2048))
    with np.errstate(invalid="ignore"):
        problem.evaluate(x)
        if change == "sign of zero":
            x[7] = -0.0
        elif change == "nan payload":
            x[7:8].view(np.uint64)[0] ^= 1
        elif change == "least subnormal":
            x[7] = 5e-324
        problem.gradient(x, 1, out, None)
        computed = logreg_gradients(features, labels, x, gradient_spy[0][0], np.empty((2, 2048)))
    assert (gradient_spy[0][1] is None) == (change is not None)
    assert_same_bits_or_nan(out, computed)


@pytest.mark.parametrize("n_samples, n_features, batch_size, reused", [
    (1024, 1000, 500, False),  # 500 x 1000 x 2: GEMM_MIN_MACS exactly
    (1024, 1000, 501, True),
    # the full batch of 400 samples is under the cutoff, whatever the batches
    (400, 1000, 600, False),
])
def test_workers_reuse_residuals_only_above_the_small_matrix_cutoff(
    gradient_spy, n_samples, n_features, batch_size, reused
):
    problem, (features, labels) = logreg_for_a_run(n_samples, 2, n_features, batch_size)
    x = 0.05 * np.random.default_rng(3).standard_normal(2 * n_features)
    problem.evaluate(x)
    out = np.empty((2, 2 * n_features))
    problem.gradient(x, 1, out, None)
    assert (gradient_spy[0][1] is not None) == reused
    computed = logreg_gradients(features, labels, x, gradient_spy[0][0], np.empty_like(out))
    assert np.array_equal(bits(out), bits(computed))


@pytest.mark.parametrize("pool", [False, True])
@pytest.mark.parametrize("n_samples, n_classes, n_features, batch_size", [
    # the smallest sample count whose logits split at 1024 features: a
    # first half of 512 rows reads SPLIT_BYTES
    (1024, 2, 1024, 512),
    # halves of 256 and 264 rows of 2048 features
    (520, 3, 2048, 256),
    # 8 samples fewer than the first: no split, and the logits are X @ W.T
    (1016, 2, 1024, 512),
])
def test_full_batch_logits_have_the_bits_of_x_times_w_t(
    gradient_spy, pool, n_samples, n_classes, n_features, batch_size
):
    # above the split gate evaluate computes the logits as W @ X.T; the
    # residual probabilities it hands the workers, its loss and its
    # gradient have the bits of the plain formulas over X @ W.T
    problem, (features, labels) = logreg_for_a_run(n_samples, n_classes, n_features, batch_size)
    transposed = simulation._splits(n_features * 8, n_samples, simulation.BLAS_TILE)
    assert transposed == (n_samples != 1016)
    x = np.random.default_rng(6).standard_normal(n_classes * n_features)
    out = np.empty((2, x.shape[0]))
    with concurrent.futures.ThreadPoolExecutor(1) if pool else contextlib.nullcontext() as helper:
        loss, grad = problem.evaluate(x, pool=helper)
        problem.gradient(x, 1, out, helper)
    residuals = gradient_spy[0][1]
    assert np.array_equal(bits(residuals), bits(reference_residuals(features, labels, x)))
    want_loss, want_grad = reference_evaluate(features, labels, x)
    assert_same_bits_or_nan(loss, want_loss)
    assert_same_bits_or_nan(grad, want_grad)


# iterations and worker indices up to 2**32 - 1, the most RunConfig takes,
# each one uint32 word of SeedSequence's entropy
iterations = st.integers(1, 2**32 - 1)
workers = st.one_of(st.integers(0, 64), st.integers(0, 2**32 - 1))


@SETTINGS
@given(st.integers(0, 2**63 - 1), st.lists(st.tuples(iterations, workers), min_size=1, max_size=6))
@example(0, [(1, 0), (2**32 - 1, 3)])
@example(2**32 - 1, [(2**32 - 1, 0)])
@example(2**32, [(2**32 - 1, 0)])  # a two-word seed: entropy of 4 words
@example(2**63 - 1, [(2**32 - 1, 0), (1, 2**32 - 1)])
def test_stream_words_match_numpy_seed_sequence(seed, lanes):
    t_lanes = np.array([t for t, _ in lanes], dtype=np.uint64)
    i_lanes = np.array([i for _, i in lanes], dtype=np.uint64)
    words = _stream_words(seed, t_lanes, i_lanes)
    assert words.shape == (len(lanes), 4) and words.dtype == np.uint64
    for (t, i), row in zip(lanes, words):
        seq = np.random.SeedSequence([seed, t, i])
        assert np.array_equal(row, seq.generate_state(4, np.uint64))
        ours, ref = _worker_rng(row), np.random.default_rng(seq)
        assert ours.bit_generator.state == ref.bit_generator.state
        assert np.array_equal(ours.standard_normal(3), ref.standard_normal(3))
        # a 32-bit draw leaves half a 64-bit output buffered (has_uint32)
        assert ours.integers(2**32, dtype=np.uint32) == ref.integers(2**32, dtype=np.uint32)
        assert ours.bit_generator.state == ref.bit_generator.state
        assert np.array_equal(ours.integers(0, 1000, 5), ref.integers(0, 1000, 5))


# shard sizes at the edges of numpy's bounded draw: 1 takes its rng == 0
# path; at 2**31 + 1 about half of all first draws are rejected, so numpy
# redraws them; 2**32 - 1 is the largest size for the 32-bit Lemire draw;
# 2**32 takes the plain 32-bit path and 2**32 + 5 the 64-bit one
shard_sizes = st.one_of(
    st.sampled_from([1, 2, 3, 50, 2**31 + 1, 2**32 - 1, 2**32, 2**32 + 5]),
    st.integers(1, 2**32 + 5),
)


@SETTINGS
@given(
    st.integers(0, 2**63 - 1),
    st.lists(st.tuples(iterations, workers, shard_sizes), min_size=1, max_size=6),
    st.sampled_from([1, 2, 3, 8, 33]),  # an odd b leaves half an output unused
)
@example(11, [(1, 0, 1), (1, 1, 2), (1, 2, 3), (1, 3, 50), (2**32 - 1, 4, 2**31 + 1),
              (2, 2**32 - 1, 2**32 - 1), (3, 5, 2**32), (2**32 - 1, 6, 2**32 + 5)], 33)
@example(0, [(t, i, 50) for t in (1, 2) for i in range(10)], 8)  # accept-d50's shape
def test_bounded_draws_match_numpy_integers(seed, lanes, b):
    t_lanes = np.array([t for t, _, _ in lanes], dtype=np.uint64)
    i_lanes = np.array([i for _, i, _ in lanes], dtype=np.uint64)
    sizes = np.array([s for _, _, s in lanes], dtype=np.uint64)
    words = _stream_words(seed, t_lanes, i_lanes)
    draws = _bounded_draws(words, sizes, b)
    outputs = _pcg_outputs(words, 3)
    assert draws.shape == (len(lanes), b) and draws.dtype == np.int64
    for (t, i, s), row, raw in zip(lanes, draws, outputs):
        seq = np.random.SeedSequence([seed, t, i])
        assert np.array_equal(raw, np.random.PCG64(seq).random_raw(3))
        assert np.array_equal(row, np.random.default_rng(seq).integers(0, s, size=b))
