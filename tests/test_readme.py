"""The README's Library example runs as written, and its Config format
example resolves through the command line's parser, so neither the
documented API nor the documented config can drift from the code."""

import dataclasses
import json
import pathlib
import re

from sketchgrad import cli
from sketchgrad.simulation import ProblemSpec, RunConfig

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def test_readme_library_block_runs():
    section = README.read_text().split("\n## Library\n", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(code, str(README), "exec"), {})


def test_readme_config_block_names_every_key_and_resolves():
    section = README.read_text().split("\n## Config format\n", 1)[1]
    block = section.split("```json\n", 1)[1].split("```", 1)[0]
    raw = json.loads(re.sub(r"//.*", "", block))
    config, sweep = cli.parse_config(raw)
    assert set(raw["problem"]) == {f.name for f in dataclasses.fields(ProblemSpec)}
    assert set(raw) - {"problem", "preset", "sweep"} == {
        f.name for f in dataclasses.fields(RunConfig)} - {"problem"}
    assert set(raw["sweep"]) == set(cli._SWEEP_KEYS) == set(sweep)
    assert config.problem.dim == raw["problem"]["dim"] and config.k == raw["k"]
