"""The benchmark's one-shot timing marks and its traced mode
(perfbench/sample.py) replace package functions that are looked up by
name at call time. A refactor that renames one, or calls it through
another name, leaves the benchmark unable to time a run or silently
zeroes a layer; these tests catch that in the tier-1 suite."""

import importlib.util
import json
import time
from pathlib import Path

import pytest

import sketchgrad.cli as cli
import sketchgrad.compressors as compressors
import sketchgrad.optimizers as optimizers
import sketchgrad.simulation as simulation
import sketchgrad.sketch as sketch
import sketchgrad.verification as verification

SAMPLE = Path(__file__).resolve().parents[1] / "perfbench" / "sample.py"


def load_sample():
    spec = importlib.util.spec_from_file_location("perfbench_sample", SAMPLE)
    sample = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(sample)
    return sample


@pytest.mark.parametrize("traced", [False, True], ids=["untraced", "traced"])
def test_benchmark_marks_fire_in_run_and_compare(tmp_path, monkeypatch, traced):
    # setattr to the current values, so teardown restores them after
    # install_marks replaces them
    for owner, name in ((simulation, "build_problem"), (simulation, "write_trace"),
                        (cli, "run_suites")):
        monkeypatch.setattr(owner, name, getattr(owner, name))
    sample = load_sample()
    marks = {}
    # the traced mode also wraps each problem's gradient and loss
    tracer = sample.Tracer() if traced else None
    sample.install_marks(marks, tracer)
    # the first iteration starts before the first step: set-up that moves
    # into the worker-gradient call still counts as set-up
    steps = []
    step = simulation.step

    def timed_step(*args, **kwargs):
        steps.append(time.monotonic())
        return step(*args, **kwargs)

    monkeypatch.setattr(simulation, "step", timed_step)

    # the logreg workers' gradients must go through Problem.gradient too,
    # or the first-iteration mark never fires on the logreg workloads
    problems = {"quadratic": {"kind": "quadratic", "dim": 20},
                "logreg": {"kind": "logreg", "dim": 12, "n_classes": 3}}
    for kind, problem in problems.items():
        body = {"problem": problem, "n_workers": 3, "k": 2, "p_factor": 2, "rows": 3,
                "cols": 8, "horizon": 3}
        cfg = tmp_path / f"{kind}.json"
        cfg.write_text(json.dumps(body))
        for args in (["run", str(cfg), "-o", str(tmp_path / kind / "run")],
                     ["compare", str(cfg), "--variants", "ga,dense_sgd",
                      "-o", str(tmp_path / kind / "cmp")]):
            marks.clear()
            steps.clear()
            assert cli.main(args) == cli.EXIT_OK
            assert {"first_iter", "loop_end"} <= set(marks)
            assert marks["first_iter"] <= min(steps) and marks["first_iter"] <= marks["loop_end"]
    if traced:
        spans = {span[0] for span in tracer.spans}
        assert {"simulation.build_problem", "simulation.worker_grad"} <= spans


def test_benchmark_tracer_times_the_sketched_layers(tmp_path, monkeypatch, capsys):
    # every attribute install_tracer may replace, restored at teardown
    for owner, name in ((cli, "run"), (cli, "_write_json"), (simulation, "partition_data"),
                        (simulation, "write_trace"), (optimizers, "sketched_topk_aggregate"),
                        (verification, "sketch_vector"),
                        (sketch.CountSketch, "estimate_all"),
                        (sketch.CountSketch, "heavy_candidates"),
                        (sketch.SketchConfig, "__post_init__"),
                        (compressors.SparseUpdate, "__post_init__")):
        monkeypatch.setattr(owner, name, getattr(owner, name))
    for name, suite in verification.SUITES.items():
        monkeypatch.setitem(verification.SUITES, name, suite)
    sample = load_sample()
    tracer = sample.Tracer()
    sample.install_tracer(tracer)

    # the targets the traced mode names but the package no longer has;
    # a new line here is a layer that a refactor stopped tracing
    stale = [f"simulation.{v}_step" for v in ("pa", "ga", "sketched_sgd", "dense_amsgrad",
                                              "dense_sgd")]
    stale += ["optimizers.sketched_topk_aggregate_scaled", "compressors.sketch_vector"]
    want = {f"perfbench: sketchgrad.{target} not found, not traced" for target in stale}
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == len(want) and set(lines) == want

    body = {"problem": {"kind": "quadratic", "dim": 20}, "variant": "pa", "k": 2,
            "p_factor": 2, "rows": 3, "cols": 8, "horizon": 3}
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps(body))
    assert cli.main(["run", str(cfg), "-o", str(tmp_path / "run")]) == cli.EXIT_OK
    spans = {span[0] for span in tracer.spans}
    assert {"compressors.aggregate", "sketch.estimate_all", "sketch.heavy_candidates"} <= spans
    assert tracer.counts["sketch.configs"] > 0 and tracer.counts["compressors.sparse_updates"] > 0
