import concurrent.futures
import contextlib
import csv
import dataclasses
import io
import json
import os
import pathlib
import subprocess
import sys
import tempfile
import warnings
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sketchgrad import cli, simulation
from sketchgrad.cli import (
    EXIT_CONFIG,
    EXIT_INVARIANT,
    EXIT_NUMERIC,
    EXIT_OK,
    ConfigError,
    main,
    parse_config,
    resolved_config,
)
from sketchgrad.simulation import ProblemSpec, RunConfig


# written unquoted: a JSON number too large for a float, which parses as
# inf, an integer longer than Python converts from text, and the
# non-standard NaN literal
HUGE = "1e400"
LONG = "1" + "0" * 5000
NAN = "NaN"


def _no_run(*args, **kwargs):
    raise AssertionError("a rejected command started a run")


def write_config(path, body):
    text = json.dumps(body)
    for literal in (HUGE, LONG, NAN):
        text = text.replace(f'"{literal}"', literal)
    path.write_text(text)
    return str(path)


def small_quadratic(**kw):
    body = {
        "problem": {"kind": "quadratic", "dim": 40, "condition_number": 5.0, "noise_std": 1.0},
        "variant": "ga",
        "alpha": 0.1,
        "epsilon": 1e-4,
        "horizon": 10,
        "n_workers": 3,
        "k": 4,
        "p_factor": 4,
        "rows": 3,
        "cols": 20,
        "batch_size": 4,
        "seed": 12,
    }
    body.update(kw)
    return body


# ----------------------------------------------------------------- config


def test_resolve_rejects_unknown_key():
    with pytest.raises(ConfigError, match="alhpa"):
        parse_config({"problem": {"kind": "quadratic", "dim": 5}, "alhpa": 1.0})
    with pytest.raises(ConfigError, match="problem.bogus"):
        parse_config({"problem": {"kind": "quadratic", "dim": 5, "bogus": 1}})
    with pytest.raises(ConfigError, match="sweep.thing"):
        parse_config({"problem": {"kind": "quadratic", "dim": 5}, "sweep": {"thing": 1}})


def test_resolve_requires_problem():
    with pytest.raises(ConfigError, match="problem"):
        parse_config({"variant": "ga"})
    with pytest.raises(ConfigError, match="kind"):
        parse_config({"problem": {"dim": 5}})


def test_every_config_annotation_has_a_json_type():
    # _check_type indexes _JSON_TYPES by a field's annotation text, so a
    # field whose annotation is no key must fail here, not skip its check
    kinds = {f.name: f.type for cls in (ProblemSpec, RunConfig)
             for f in dataclasses.fields(cls) if f.name != "problem"}
    kinds.update({f"sweep.{key}": kind for key, kind in cli._SWEEP_KEYS.items()})
    assert {name: kind for name, kind in kinds.items() if kind not in cli._JSON_TYPES} == {}


def test_horizon_and_n_workers_take_one_uint32_word():
    # each enters a stream's SeedSequence([seed, t, i]) as one uint32 word
    base = {"problem": {"kind": "quadratic", "dim": 20}, "k": 2, "p_factor": 2,
            "rows": 3, "cols": 8}
    for field in ("horizon", "n_workers"):
        config, _ = parse_config({**base, field: 2**32 - 1})
        assert getattr(config, field) == 2**32 - 1
        with pytest.raises(ConfigError, match=r"below 2\*\*32"):
            parse_config({**base, field: 2**32})


def test_resolve_preset_and_roundtrip():
    raw = {
        "problem": {"kind": "quadratic", "dim": 60000},
        "preset": "small",
        "horizon": 2,
        "alpha": 1,
    }
    config, sweep = parse_config(raw)
    assert (config.rows, config.cols, config.k, config.p_factor) == (5, 400, 500, 4)
    resolved = resolved_config(config, sweep)
    assert resolved["alpha"] == 1.0 and isinstance(resolved["alpha"], float)
    # parse -> serialize -> parse is identity
    again = parse_config(json.loads(json.dumps(resolved)))
    assert again == (config, sweep)
    assert resolved_config(*again) == resolved


def test_resolve_preset_override():
    raw = {
        "problem": {"kind": "quadratic", "dim": 60000},
        "preset": "large",
        "k": 111,
    }
    config, _ = parse_config(raw)
    assert config.rows == 10 and config.cols == 100000
    assert config.k == 111  # explicit key wins over preset


def test_resolve_validates_values():
    with pytest.raises(ConfigError):
        parse_config(small_quadratic(k=100))  # k > dim
    with pytest.raises(ConfigError):
        parse_config(small_quadratic(variant="adamw"))


# JSON values that break configs: zero, negatives, an integer too large
# for a float, the unquoted 1e400 and NaN, and every JSON type; plus the
# names of the variants, problems, partitions and presets, so that some
# drawn configs are valid and reach the run
_names = ["ga", "pa", "dense_sgd", "quadratic", "logreg", "iid", "label_skew", "small", "x"]
_atoms = st.one_of(
    st.sampled_from([0, -1, 10**400, HUGE, NAN, True, False, None, 1, 2, 4, 2000, 0.5]),
    st.sampled_from(_names),
    st.integers(-3, 64),
    st.floats(-1e6, 1e6, allow_nan=False),
    st.text(max_size=3),
)
_junk_keys = st.sampled_from(["alhpa", "bogus", "", "Problem", "trace_path"])
_values = st.recursive(
    _atoms,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(_junk_keys, inner, max_size=2),
    max_leaves=6,
)


# values of each field annotation's JSON type, valid more often than not
_typed_values = {"int": st.integers(1, 4), "float": st.sampled_from([0.5, 1, 2.0]),
                 "str": st.sampled_from(_names), "bool": st.booleans(),
                 "list": st.lists(st.integers(1, 4), max_size=3)}


def _rarely(draw):
    # a middle value: generation favours the ends of a range
    return draw(st.sampled_from(range(8))) == 3


def _object(draw, types, junk):
    """A JSON object whose keys are drawn from types, rarely with a junk
    key; a known key mostly gets a value of its own JSON type."""
    body = {key: draw(_values if _rarely(draw) else _typed_values[types[key]])
            for key in draw(st.lists(st.sampled_from(list(types)), unique=True))}
    if _rarely(draw):
        body[junk] = draw(_values)
    return body


@st.composite
def _configs(draw):
    run_types = {f.name: f.type for f in dataclasses.fields(RunConfig) if f.name != "problem"}
    body = _object(draw, {**run_types, "preset": "str"}, "alhpa")
    if not _rarely(draw):
        problem = {"kind": draw(st.sampled_from(["quadratic", "logreg"])),
                   "dim": draw(st.sampled_from([40, 2000, 10**400]))}
        problem.update(_object(draw, {f.name: f.type for f in dataclasses.fields(ProblemSpec)},
                               "bogus"))
        body["problem"] = draw(_values) if _rarely(draw) else problem
    if draw(st.booleans()):
        body["sweep"] = _object(draw, cli._SWEEP_KEYS, "thing")
    return body


class _Reached(Exception):
    """Raised in place of the runs: the config was accepted."""


def _reached(*args, **kwargs):
    raise _Reached


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(_configs())
@example({"problem": {"kind": "quadratic", "dim": 40}, "alpha": 1, "k": 2, "rows": 3,
          "sweep": {"k_values": [1, 2], "alphas": [1], "worker_counts": [1], "threshold": 3}})
@example({"problem": {"kind": "logreg", "dim": 20, "class_spread": 0}, "preset": "small",
          "variant": "dense_sgd", "partition_mode": "label_skew", "skew_param": 0.5})
@example({"problem": {"kind": "quadratic", "dim": 40}, "preset": ["small"]})
def test_any_json_config_runs_or_is_one_config_error(body):
    # every config either reaches the runs, with a config.resolved.json
    # that resolves to itself, or exits 2 with one JSON line and no output
    with tempfile.TemporaryDirectory() as tmp:
        cfg = write_config(pathlib.Path(tmp) / "c.json", body)
        out = os.path.join(tmp, "out")
        err = io.StringIO()
        with mock.patch.object(cli, "_run_all", _reached), contextlib.redirect_stderr(err):
            try:
                rc = main(["run", cfg, "-o", out])
            except _Reached:
                rc = None
        if rc is None:
            with open(os.path.join(out, "config.resolved.json")) as fh:
                resolved = json.load(fh)
            assert resolved_config(*parse_config(resolved)) == resolved
            assert err.getvalue() == ""
        else:
            assert rc == EXIT_CONFIG
            lines = err.getvalue().splitlines()
            assert len(lines) == 1 and json.loads(lines[0])["error"] == "config"
            assert not os.path.exists(out)


def test_duplicate_key_rejected(tmp_path):
    p = tmp_path / "dup.json"
    p.write_text('{"problem": {"kind": "quadratic", "dim": 5}, "seed": 1, "seed": 2}')
    rc = main(["run", str(p), "-o", str(tmp_path / "out")])
    assert rc == EXIT_CONFIG


# -------------------------------------------------------------------- run


def test_run_zero_horizon(tmp_path):
    cfg = write_config(tmp_path / "c.json", small_quadratic(horizon=0))
    out = tmp_path / "out"
    assert main(["run", cfg, "-o", str(out)]) == EXIT_OK
    lines = (out / "trace.csv").read_text().splitlines()
    assert len(lines) == 1  # header only
    summary = json.loads((out / "summary.json").read_text())
    assert summary["iterations"] == 0 and summary["final_train_loss"] is None


def test_run_writes_outputs_and_summary(tmp_path):
    cfg = write_config(tmp_path / "c.json", small_quadratic())
    out = tmp_path / "out"
    assert main(["run", cfg, "-o", str(out)]) == EXIT_OK
    assert (out / "trace.csv").exists()
    assert (out / "config.resolved.json").exists()
    summary = json.loads((out / "summary.json").read_text())
    assert summary["iterations"] == 10
    d, rows, cols, k, pf = 40, 3, 20, 4, 4
    expect_rate = 2 * d / (rows * cols + pf * k + 2 * k)
    assert summary["compression_rate"] == pytest.approx(expect_rate, abs=0)
    per_iter = 3 * (rows * cols + pf * k + k) + k
    assert summary["total_scalars"] == 10 * per_iter


def test_run_small_preset_rate(tmp_path):
    body = {
        "problem": {"kind": "quadratic", "dim": 60000, "noise_std": 0.5},
        "preset": "small",
        "variant": "ga",
        "horizon": 1,
        "n_workers": 2,
        "batch_size": 2,
        "epsilon": 0.01,
    }
    cfg = write_config(tmp_path / "c.json", body)
    out = tmp_path / "out"
    assert main(["run", cfg, "-o", str(out)]) == EXIT_OK
    summary = json.loads((out / "summary.json").read_text())
    assert summary["compression_rate"] == 24.0


def test_run_seed_override_and_determinism(tmp_path):
    cfg = write_config(tmp_path / "c.json", small_quadratic())
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["run", cfg, "-o", str(out1), "--seed", "99"]) == EXIT_OK
    assert main(["run", cfg, "-o", str(out2), "--seed", "99"]) == EXIT_OK
    assert (out1 / "trace.csv").read_bytes() == (out2 / "trace.csv").read_bytes()
    resolved = json.loads((out1 / "config.resolved.json").read_text())
    assert resolved["seed"] == 99


@pytest.mark.parametrize("command", [["run"], ["compare", "--variants", "ga"]])
def test_negative_seed_override_is_config_error(tmp_path, capsys, command):
    cfg = write_config(tmp_path / "c.json", small_quadratic())
    out = tmp_path / "out"
    rc = main([command[0], cfg, "-o", str(out), "--seed", "-1", *command[1:]])
    assert rc == EXIT_CONFIG
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and json.loads(lines[0])["error"] == "config"
    assert not out.exists()


@pytest.mark.parametrize("command", [["run"], ["compare", "--variants", "ga"]])
def test_unusable_output_is_config_error(tmp_path, capsys, monkeypatch, command):
    # -o below a regular file cannot be created; that once ended in a
    # NotADirectoryError traceback
    monkeypatch.setattr(cli, "_run_all", _no_run)
    cfg = write_config(tmp_path / "c.json", small_quadratic())
    (tmp_path / "file").write_text("")
    out = tmp_path / "file" / "out"
    rc = main([command[0], cfg, "-o", str(out), *command[1:]])
    assert rc == EXIT_CONFIG
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    error = json.loads(lines[0])
    assert error["error"] == "config" and str(out) in error["detail"]


@pytest.mark.parametrize(
    "command, target",
    [(["run"], "trace.csv"), (["run"], "speedup.csv"), (["run"], "summary.json"),
     (["compare", "--variants", "ga,pa"], "pa.trace.csv"),
     (["compare", "--variants", "ga,pa"], "joined.csv")],
    ids=["run-trace", "run-speedup", "run-summary", "compare-trace", "compare-joined"],
)
def test_unwritable_output_after_runs_is_config_error(tmp_path, capsys, command, target):
    # an output that is already a directory once ended in an
    # IsADirectoryError traceback after every run had finished
    body = small_quadratic(sweep={"worker_counts": [1, 2], "threshold": 1e9})
    cfg = write_config(tmp_path / "c.json", body)
    out = tmp_path / "out"
    (out / target).mkdir(parents=True)
    assert main([command[0], cfg, "-o", str(out), *command[1:]]) == EXIT_CONFIG
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    error = json.loads(lines[0])
    assert error["error"] == "config" and str(out / target) in error["detail"]
    assert (out / "config.resolved.json").exists()  # files already written stay
    assert list(out.rglob("*.tmp")) == []


@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_run_numeric_abort_exit_code(tmp_path):
    body = small_quadratic(variant="dense_sgd", alpha=1e300, horizon=30)
    cfg = write_config(tmp_path / "c.json", body)
    rc = main(["run", cfg, "-o", str(tmp_path / "out")])
    assert rc == EXIT_NUMERIC


@pytest.mark.parametrize("flags", [[], ["--no-invariants"]])
def test_diverging_run_is_numeric_error(tmp_path, capsys, flags):
    # alpha 1e300 sends the iterate far enough that its loss overflows at
    # once, and noise_std 1e308 overflows the scaled worker noise; the run
    # must stop there, before the shadow check or the trace. With
    # noise_std 4e307 and a tiny alpha the sketched SGD error accumulator
    # overflows at iteration 2 while the iterate stays finite; that once
    # ended in a traceback from the sketch's finiteness check. The logreg's
    # full-batch logits overflow at iteration 1, half of them on the helper
    # thread, which must ignore the overflow under run's errstate too.
    base = {"problem": {"kind": "quadratic", "dim": 20}, "variant": "pa", "k": 2,
            "p_factor": 2, "rows": 3, "cols": 8}
    bodies = [({**base, "alpha": 1e300}, 1),
              ({**base, "problem": {"kind": "quadratic", "dim": 20, "noise_std": 1e308},
                "batch_size": 1}, 1),
              ({"problem": {"kind": "quadratic", "dim": 50, "noise_std": 4e307},
                "variant": "sketched_sgd", "alpha": 1e-300, "horizon": 5, "n_workers": 2,
                "k": 2, "p_factor": 2, "rows": 3, "cols": 16, "batch_size": 1}, 2),
              ({"problem": {"kind": "logreg", "dim": 2048, "n_samples": 1024, "n_classes": 2},
                "alpha": 1e308, "horizon": 3, "n_workers": 4, "batch_size": 256}, 1)]
    for i, (body, iteration) in enumerate(bodies):
        cfg = write_config(tmp_path / f"c{i}.json", body)
        out = tmp_path / f"out{i}"
        # record the warnings of every thread, the noise helper's too: on
        # the command line each would print more lines to stderr
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["run", cfg, "-o", str(out), *flags]) == EXIT_NUMERIC
        assert caught == []
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        error = json.loads(lines[0])
        assert error["error"] == "numeric" and f"iteration {iteration}" in error["detail"]
        assert not (out / "trace.csv").exists()


def _halve_v_hat(state):
    state.v_hat *= 0.5


def _leave_error_on_chosen_set(state):
    state.e[:, state.last_indices[0]] = 1.0


@pytest.mark.parametrize("plant, detail", [
    (_halve_v_hat, "v_hat decreased at iteration 2"),
    (_leave_error_on_chosen_set, "error not zero on chosen set at iteration 2"),
], ids=["v_hat", "error"])
def test_broken_step_invariant_is_invariant_error(tmp_path, capsys, monkeypatch, plant, detail):
    # no correct step breaks these checks, so a wrapped step breaks one
    # after step 2 of a GA run; run looks step up at call time
    honest = simulation.step

    def broken(state, grads, params, proto, t):
        diag = honest(state, grads, params, proto, t)
        if t == 2:
            plant(state)
        return diag

    monkeypatch.setattr(simulation, "step", broken)
    cfg = write_config(tmp_path / "c.json", small_quadratic())
    out = tmp_path / "out"
    assert main(["run", cfg, "-o", str(out)]) == EXIT_INVARIANT
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and json.loads(lines[0]) == {"error": "invariant", "detail": detail}
    assert not (out / "trace.csv").exists()


@pytest.mark.parametrize(
    "body",
    [
        # more workers than logreg samples: a worker would get an empty shard
        {"problem": {"kind": "logreg", "dim": 4, "n_samples": 3}, "n_workers": 4},
        {"problem": {"kind": "quadratic", "dim": 20.5}},
        {"problem": {"kind": "quadratic", "dim": 20}, "batch_size": True},
        {"problem": {"kind": "quadratic", "dim": True}},
        {"problem": {"kind": "quadratic", "dim": 20}, "alpha": "0.1"},
        {"problem": {"kind": "quadratic", "dim": 20}, "check_invariants": 1},
        # problem values that only the problem factories used to check
        {"problem": {"kind": "cubic", "dim": 20}},
        {"problem": {"kind": "logreg", "dim": 9}},
        {"problem": {"kind": "logreg", "dim": 20, "n_classes": 1}},
        {"problem": {"kind": "quadratic", "dim": 20, "condition_number": 0.5}},
        {"problem": {"kind": "quadratic", "dim": 0}, "variant": "dense_sgd"},
        {"problem": {"kind": "quadratic", "dim": 20, "noise_std": -1.0}},
        {"problem": {"kind": "quadratic", "dim": 20, "noise_std": float("nan")}},
        # partition values that only partition_data used to check
        {"problem": {"kind": "logreg", "dim": 20}, "partition_mode": "bogus"},
        {"problem": {"kind": "logreg", "dim": 20}, "partition_mode": "label_skew",
         "skew_param": 5.0},
        # malformed sweep blocks
        {"problem": {"kind": "quadratic", "dim": 20}, "sweep": {"k_values": 5}},
        {"problem": {"kind": "quadratic", "dim": 20}, "sweep": {"alphas": 0.1}},
        {"problem": {"kind": "quadratic", "dim": 20},
         "sweep": {"worker_counts": 2, "threshold": 1.0}},
        {"problem": {"kind": "quadratic", "dim": 20},
         "sweep": {"worker_counts": [1], "threshold": "low"}},
        {"problem": {"kind": "quadratic", "dim": 20},
         "sweep": {"worker_counts": [1], "threshold": 1.0, "window": 0}},
        # sweep values get the checks of the main config
        {"problem": {"kind": "quadratic", "dim": 20}, "sweep": {"k_values": [0]}},
        {"problem": {"kind": "quadratic", "dim": 20}, "sweep": {"alphas": [-1.0]}},
        {"problem": {"kind": "quadratic", "dim": 20},
         "sweep": {"worker_counts": ["a"], "threshold": 1.0}},
        # non-finite problem values (JSON 1e400) once ran into a numeric abort
        {"problem": {"kind": "quadratic", "dim": 20, "condition_number": HUGE}},
        {"problem": {"kind": "quadratic", "dim": 20, "noise_std": HUGE}},
        {"problem": {"kind": "logreg", "dim": 20, "class_spread": HUGE}},
        # the non-standard NaN and Infinity literals, and non-finite numbers
        {"problem": {"kind": "quadratic", "dim": 20}, "alpha": float("nan")},
        {"problem": {"kind": "quadratic", "dim": 20}, "alpha": HUGE},
        {"problem": {"kind": "quadratic", "dim": 20}, "epsilon": float("nan")},
        {"problem": {"kind": "quadratic", "dim": 20}, "epsilon": float("inf")},
        {"problem": {"kind": "quadratic", "dim": 20}, "epsilon": HUGE},
        {"problem": {"kind": "quadratic", "dim": 20},
         "sweep": {"threshold": float("nan"), "worker_counts": [1, 2]}},
        {"problem": {"kind": "quadratic", "dim": 20},
         "sweep": {"threshold": HUGE, "worker_counts": [1, 2]}},
        # integers too large for a float given for float keys
        {"problem": {"kind": "quadratic", "dim": 20}, "alpha": 10**400},
        {"problem": {"kind": "quadratic", "dim": 20}, "epsilon": 10**400},
        {"problem": {"kind": "quadratic", "dim": 20, "noise_std": 10**400}},
        {"problem": {"kind": "logreg", "dim": 20, "class_spread": 10**400}},
        {"problem": {"kind": "quadratic", "dim": 20, "condition_number": 10**400}},
        {"problem": {"kind": "quadratic", "dim": 20}, "alpha": LONG},
        # a preset that is not a string once ended in a TypeError traceback
        {"problem": {"kind": "quadratic", "dim": 20}, "preset": ["small"]},
        # each once exited 0: a value was checked only by the kind or
        # variant that reads it
        {"problem": {"kind": "logreg", "dim": 20, "noise_std": -1, "condition_number": 0.5}},
        {"problem": {"kind": "quadratic", "dim": 20, "n_classes": 1}},
        {"problem": {"kind": "quadratic", "dim": 20, "n_samples": 0}},
        {"problem": {"kind": "quadratic", "dim": 20, "class_spread": -5}},
        {"problem": {"kind": "quadratic", "dim": 20}, "partition_mode": "bogus"},
        {"problem": {"kind": "logreg", "dim": 20}, "partition_mode": "iid", "skew_param": -3},
        {"problem": {"kind": "quadratic", "dim": 20}, "variant": "dense_sgd", "k": 0},
        {"problem": {"kind": "quadratic", "dim": 20}, "variant": "dense_sgd", "rows": 0},
        {"problem": {"kind": "quadratic", "dim": 20}, "variant": "dense_sgd", "cols": -1},
        {"problem": {"kind": "quadratic", "dim": 20}, "variant": "dense_sgd", "p_factor": 0},
        # sizes past what numpy can address, each of which once ended in a
        # traceback inside the run, after config.resolved.json was written
        {"problem": {"kind": "quadratic", "dim": 10**30}},
        {"problem": {"kind": "quadratic", "dim": 20}, "n_workers": 10**30},
        {"problem": {"kind": "quadratic", "dim": 20},
         "sweep": {"worker_counts": [1, 10**30], "threshold": 1.0}},
        {"problem": {"kind": "logreg", "dim": 20, "n_samples": 10**30}},
        {"problem": {"kind": "logreg", "dim": 20}, "batch_size": 10**30},
        {"problem": {"kind": "quadratic", "dim": 20}, "rows": 10**30},
        {"problem": {"kind": "quadratic", "dim": 20}, "cols": 10**30},
        # a step size 1/sqrt(1 + horizon) and a noise scale
        # 1/sqrt(batch_size) past a float's range
        {"problem": {"kind": "quadratic", "dim": 20}, "horizon": 10**400},
        {"problem": {"kind": "quadratic", "dim": 20}, "batch_size": 10**400},
        # a malformed sweep block and values below their ranges
        {"problem": {"kind": "quadratic", "dim": 20}, "sweep": [1]},
        {"problem": {"kind": "quadratic", "dim": 20}, "sweep": {"worker_counts": [1]}},
        {"problem": {"kind": "quadratic", "dim": 20}, "batch_size": 0},
        {"problem": {"kind": "quadratic", "dim": 20}, "horizon": -1},
        # reaches ProtocolConfig's check, where dense_sgd's reaches RunConfig's
        {"problem": {"kind": "quadratic", "dim": 20}, "variant": "ga", "p_factor": 0},
        # 2**32 iterations or workers, past the one uint32 word each takes
        # in a stream's seed; each once parsed and started a run
        {"problem": {"kind": "quadratic", "dim": 20}, "horizon": 2**32},
        {"problem": {"kind": "quadratic", "dim": 20}, "n_workers": 2**32},
        {"problem": {"kind": "quadratic", "dim": 20},
         "sweep": {"worker_counts": [1, 2**32], "threshold": 1.0}},
    ],
)
def test_malformed_config_is_config_error(tmp_path, capsys, body):
    body = {"k": 2, "p_factor": 2, "rows": 3, "cols": 8, "horizon": 2, **body}
    cfg = write_config(tmp_path / "c.json", body)
    out = tmp_path / "out"
    assert main(["run", cfg, "-o", str(out)]) == EXIT_CONFIG
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and json.loads(lines[0])["error"] == "config"
    assert not out.exists()


@pytest.mark.parametrize("case", ["missing_file", "array_root", "no_variant"])
def test_unreadable_config_or_no_variant_is_config_error(tmp_path, capsys, monkeypatch, case):
    monkeypatch.setattr(cli, "_run_all", _no_run)
    cfg, out = tmp_path / "c.json", tmp_path / "out"
    args = ["run", str(cfg), "-o", str(out)]
    if case == "array_root":
        cfg.write_text("[1, 2]")
    elif case == "no_variant":
        write_config(cfg, small_quadratic())
        args = ["compare", str(cfg), "--variants", ",", "-o", str(out)]
    assert main(args) == EXIT_CONFIG
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    assert len(lines) == 1 and json.loads(lines[0])["error"] == "config"
    assert captured.out == ""
    assert not out.exists()


def test_unread_values_in_range_still_run(tmp_path):
    # checks that involve dim or n_workers stay with what reads them: a
    # dense variant takes k > dim, and a quadratic takes n_workers above
    # n_samples and a dim that is no multiple of n_classes
    body = small_quadratic(variant="dense_sgd", k=100, p_factor=8, n_workers=3, horizon=2)
    body["problem"].update(n_samples=2, n_classes=2, dim=41)
    cfg = write_config(tmp_path / "c.json", body)
    assert main(["run", cfg, "-o", str(tmp_path / "out")]) == EXIT_OK


@pytest.mark.parametrize("jobs", ["0", "-5"])
@pytest.mark.parametrize("command", ["run", "compare"])
def test_jobs_below_one_is_config_error(tmp_path, capsys, monkeypatch, command, jobs):
    # both once ran as --jobs 1
    monkeypatch.setattr(cli, "_run_all", _no_run)
    cfg = write_config(tmp_path / "c.json", small_quadratic())
    args = [command, cfg, "-o", str(tmp_path / "o"), "--jobs", jobs]
    if command == "compare":
        args += ["--variants", "ga"]
    assert main(args) == EXIT_CONFIG
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    assert len(lines) == 1 and json.loads(lines[0])["error"] == "config"
    assert captured.out == ""
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("args", [
    ["run", "{cfg}", "-o", "{out}", "--seed", "abc"],
    ["run", "{cfg}"],
    ["run", "{cfg}", "-o", "{out}", "--jobs", "x"],
    ["bogus"],
], ids=["seed_abc", "missing_output", "jobs_x", "unknown_command"])
def test_usage_error_is_one_config_error_line(tmp_path, capsys, monkeypatch, args):
    # argparse printed its multi-line usage text and exited by itself
    monkeypatch.setattr(cli, "_run_all", _no_run)
    cfg = write_config(tmp_path / "c.json", small_quadratic())
    out = tmp_path / "o"
    assert main([a.format(cfg=cfg, out=out) for a in args]) == EXIT_CONFIG
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    assert len(lines) == 1 and json.loads(lines[0])["error"] == "config"
    assert captured.out == ""
    assert not out.exists()


def test_config_the_machine_cannot_allocate_is_config_error(tmp_path, capsys):
    # 7.1 PiB of gradients, past x86-64's 128 TiB of user address space, so
    # the allocation fails at once; it ended in an _ArrayMemoryError
    # traceback after config.resolved.json was written
    body = {"problem": {"kind": "quadratic", "dim": 10**15}, "variant": "dense_sgd",
            "horizon": 1, "n_workers": 1}
    cfg = write_config(tmp_path / "c.json", body)
    out = tmp_path / "o"
    assert main(["run", cfg, "-o", str(out)]) == EXIT_CONFIG
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    assert len(lines) == 1
    error = json.loads(lines[0])
    assert error["error"] == "config" and "allocate" in error["detail"]
    assert captured.out == ""
    assert sorted(os.listdir(out)) == ["config.resolved.json"]


def test_run_sweep_outputs(tmp_path):
    body = small_quadratic(horizon=15)
    body["sweep"] = {"worker_counts": [1, 2], "threshold": 1e9, "k_values": [2, 4]}
    cfg = write_config(tmp_path / "c.json", body)
    out = tmp_path / "out"
    assert main(["run", cfg, "-o", str(out), "--jobs", "2"]) == EXIT_OK
    speed = list(csv.reader((out / "speedup.csv").read_text().splitlines()))
    assert speed[0] == ["n_workers", "iterations_to_threshold"]
    assert len(speed) == 3
    kcsv = list(csv.reader((out / "sweep_k.csv").read_text().splitlines()))
    assert kcsv[0][0] == "k" and len(kcsv) == 3


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_sweep_leaves_main_trace(tmp_path, jobs):
    # a worker-count sweep must not overwrite trace.csv with one of its runs
    plain = write_config(tmp_path / "plain.json", small_quadratic())
    body = small_quadratic()
    body["sweep"] = {"worker_counts": [1, 2], "threshold": 1e9}
    swept = write_config(tmp_path / "swept.json", body)
    assert main(["run", plain, "-o", str(tmp_path / "plain")]) == EXIT_OK
    assert main(["run", swept, "-o", str(tmp_path / "swept"), "--jobs", jobs]) == EXIT_OK
    trace = (tmp_path / "plain" / "trace.csv").read_bytes()
    assert (tmp_path / "swept" / "trace.csv").read_bytes() == trace


def test_noisy_sweep_outputs_identical_across_jobs(tmp_path):
    # every noisy run draws its next noise on a helper thread; runs on
    # parallel threads must still write the bytes of a serial run
    body = small_quadratic(horizon=15)
    body["sweep"] = {"worker_counts": [1, 2, 3], "threshold": 1e9, "alphas": [0.05, 0.1]}
    cfg = write_config(tmp_path / "c.json", body)
    for jobs in ("1", "2"):
        assert main(["run", cfg, "-o", str(tmp_path / jobs), "--jobs", jobs]) == EXIT_OK
    for name in ("trace.csv", "speedup.csv", "sweep_alpha.csv"):
        assert (tmp_path / "2" / name).read_bytes() == (tmp_path / "1" / name).read_bytes()


# ---------------------------------------------------------------- compare


def test_compare_single_variant_matches_run(tmp_path):
    body = small_quadratic(variant="dense_amsgrad")
    cfg = write_config(tmp_path / "c.json", body)
    out_run, out_cmp = tmp_path / "run", tmp_path / "cmp"
    assert main(["run", cfg, "-o", str(out_run)]) == EXIT_OK
    assert main(["compare", cfg, "--variants", "dense_amsgrad", "-o", str(out_cmp)]) == EXIT_OK
    run_trace = (out_run / "trace.csv").read_bytes()
    cmp_trace = (out_cmp / "dense_amsgrad.trace.csv").read_bytes()
    assert run_trace == cmp_trace


def test_compare_ga_dense_full_k_traces_match(tmp_path):
    body = small_quadratic(k=40, p_factor=1, cols=64, epsilon=400.0, horizon=20)
    cfg = write_config(tmp_path / "c.json", body)
    out = tmp_path / "cmp"
    assert main(["compare", cfg, "--variants", "ga,dense_amsgrad", "-o", str(out)]) == EXIT_OK
    rows = list(csv.DictReader((out / "joined.csv").read_text().splitlines()))
    assert len(rows) == 20
    for row in rows:
        ga = float(row["ga_train_loss"])
        de = float(row["dense_amsgrad_train_loss"])
        assert ga == pytest.approx(de, rel=1e-12)


@pytest.mark.parametrize("variants", ["ga,bogus", "ga,ga"])
def test_compare_rejects_unknown_variant(tmp_path, monkeypatch, variants):
    # a variant named twice once exited 0 with its trace written twice
    monkeypatch.setattr(cli, "_run_all", _no_run)
    cfg = write_config(tmp_path / "c.json", small_quadratic())
    rc = main(["compare", cfg, "--variants", variants, "-o", str(tmp_path / "o")])
    assert rc == EXIT_CONFIG
    assert not (tmp_path / "o").exists()


# ----------------------------------------------------------------- verify


def test_verify_optimizer_suite(monkeypatch):
    # one named suite runs, at the given seed, and no other
    from sketchgrad import verification

    ran = []
    for name in verification.SUITES:
        def stub(seed=0, name=name):
            ran.append((name, seed))
            return [verification.CheckResult(name, "stub", True, 1.0, 1.0)]

        monkeypatch.setitem(verification.SUITES, name, stub)
    assert main(["verify", "optimizer", "--seed", "3"]) == EXIT_OK
    assert ran == [("optimizer", 3)]


def test_verify_all_within_runtime_budget(capsys):
    # the one full run of every suite in this test suite: every check
    # passes at seed 0
    import time

    t0 = time.time()
    rc = main(["verify", "all", "--seed", "0"])
    elapsed = time.time() - t0
    failed = [line for line in capsys.readouterr().out.splitlines() if line.startswith("[FAIL]")]
    assert rc == EXIT_OK and not failed, failed
    assert elapsed < 120.0


def split_loops():
    """verify's Monte-Carlo loops that hand half of their trials to a pool."""
    from sketchgrad import verification

    return {
        "point_query": verification.point_query_failure_rates,
        "planted_recovery": verification.planted_recovery_rate,
        "contraction": lambda seed, trials, pool: verification.contraction_check(
            seed, trials, False, pool),
        "contraction_scaled": lambda seed, trials, pool: verification.contraction_check(
            seed, trials, True, pool),
    }


@pytest.mark.parametrize("loop", sorted(split_loops()))
@pytest.mark.parametrize("helper", ["pool", "late"])
def test_split_trial_loops_count_as_the_serial_loop(recording_executor, loop, helper):
    # each trial is seeded by (seed, trial) and the halves' integer counts
    # add exactly, so the rates are the serial loop's; the late helper runs
    # every half it is handed
    check = split_loops()[loop]
    for seed in (0, 54):
        for trials in (1, 2, 7, 60):
            serial = check(seed, trials, None)
            with recording_executor(1, wait_for_start=helper == "late") as pool:
                assert check(seed, trials, pool) == serial, (seed, trials)
            if helper == "late":
                assert pool.submits == (trials > 1) == len(pool.ran_on)


# the serial path builds the sketch operator this often, as verify did
# before its trial loops split; a split loop builds more when the other
# thread's configs evict its own from the two _operator keeps: 0 to 70
# more in the sketch and compressor suites on two CPUs, 83 to 109 on one
# (each build takes about 1 ms at the reference shape)
VERIFY_OPERATOR_BUILDS = 1408


@pytest.mark.parametrize("seed", [0, 54])
def test_verify_all_prints_the_serial_bytes(capsys, monkeypatch, seed):
    # at seed 54 bucket_uniformity_chi2 fails, so the exit code must match
    # too; the serial path runs every loop and run's helper work on the
    # calling thread
    from sketchgrad import sketch

    def verify(serial):
        with monkeypatch.context() as m:
            if serial:
                m.setattr(concurrent.futures, "ThreadPoolExecutor",
                          lambda workers: contextlib.nullcontext())
            sketch._operator.cache_clear()
            rc = main(["verify", "all", "--seed", str(seed)])
            return rc, capsys.readouterr().out, sketch._operator.cache_info().misses

    *split, split_builds = verify(False)
    *serial, serial_builds = verify(True)
    assert split == serial
    assert serial[0] == (EXIT_OK if seed == 0 else EXIT_INVARIANT)
    assert len(serial[1].splitlines()) == 25
    assert serial_builds == VERIFY_OPERATOR_BUILDS
    assert VERIFY_OPERATOR_BUILDS <= split_builds < 2 * VERIFY_OPERATOR_BUILDS


@pytest.mark.parametrize(
    "suite, seed", [("sketch", "-1"), ("all", str(2**63)), ("sketch", str(2**64))]
)
def test_verify_seed_out_of_range_is_config_error(capsys, monkeypatch, suite, seed):
    # each once ended in a traceback, the second after two suites had run
    monkeypatch.setattr(cli, "run_suites", _no_run)
    assert main(["verify", suite, "--seed", seed]) == EXIT_CONFIG
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    assert len(lines) == 1 and json.loads(lines[0])["error"] == "config"
    assert captured.out == ""


def test_cli_import_leaves_scipy_stats_unloaded():
    # verify's one chi-square p-value comes from scipy.special, which
    # bucket_uniformity imports itself; scipy.stats would load some 400
    # more modules into every command, and scipy.special alone about 4 MB
    import sketchgrad

    src = os.path.dirname(os.path.dirname(os.path.abspath(sketchgrad.__file__)))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    code = ("import sys, sketchgrad.cli; "
            "print([m for m in ('scipy.stats', 'scipy.special') if m in sys.modules])")
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True)
    assert done.stdout == "[]\n"


def test_sketched_run_and_compare_leave_scipy_unloaded(tmp_path):
    # the sketch runs scipy's compiled CSC kernel, loaded from its file:
    # scipy.sparse's array-API shim would import numpy.f2py, numpy.testing
    # and numpy.ma into every command, about 150 ms and 14 MB
    import sketchgrad

    src = os.path.dirname(os.path.dirname(os.path.abspath(sketchgrad.__file__)))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    cfg = write_config(tmp_path / "c.json", small_quadratic(horizon=3))
    code = (
        "import sys, sketchgrad.cli as cli\n"
        f"assert cli.main(['run', {cfg!r}, '-o', {str(tmp_path / 'run')!r}]) == 0\n"
        f"assert cli.main(['compare', {cfg!r}, '--variants', 'pa,ga,sketched_sgd',"
        f" '-o', {str(tmp_path / 'cmp')!r}]) == 0\n"
        "print([m for m in ('scipy', 'scipy.sparse', 'numpy.f2py') if m in sys.modules])\n"
    )
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True)
    assert done.stdout.splitlines()[-1] == "[]"


def test_verify_reports_failure_exit(monkeypatch):
    from sketchgrad import verification

    def broken(seed=0):
        return [verification.CheckResult("x", "always_fails", False, 1.0, 0.0)]

    monkeypatch.setitem(verification.SUITES, "optimizer", broken)
    assert main(["verify", "optimizer"]) == EXIT_INVARIANT
