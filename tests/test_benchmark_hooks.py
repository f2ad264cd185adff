"""The benchmark's one-shot timing marks (perfbench/sample.py) replace
package functions that are looked up by name at call time. A refactor
that renames one, or calls it through another name, leaves the benchmark
unable to time a run; this test catches that in the tier-1 suite."""

import importlib.util
import json
from pathlib import Path

import sketchgrad.cli as cli
import sketchgrad.simulation as simulation

SAMPLE = Path(__file__).resolve().parents[1] / "perfbench" / "sample.py"


def test_benchmark_marks_fire_in_run_and_compare(tmp_path, monkeypatch):
    # setattr to the current values, so teardown restores them after
    # install_marks replaces them
    for owner, name in ((simulation, "build_problem"), (simulation, "write_trace"),
                        (cli, "run_suites")):
        monkeypatch.setattr(owner, name, getattr(owner, name))
    spec = importlib.util.spec_from_file_location("perfbench_sample", SAMPLE)
    sample = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(sample)
    marks = {}
    sample.install_marks(marks, None)

    body = {"problem": {"kind": "quadratic", "dim": 20}, "k": 2, "p_factor": 2,
            "rows": 3, "cols": 8, "horizon": 3}
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps(body))
    for args in (["run", str(cfg), "-o", str(tmp_path / "run")],
                 ["compare", str(cfg), "--variants", "ga,dense_sgd", "-o", str(tmp_path / "cmp")]):
        marks.clear()
        assert cli.main(args) == cli.EXIT_OK
        assert {"first_iter", "loop_end"} <= set(marks)
        assert marks["first_iter"] <= marks["loop_end"]
