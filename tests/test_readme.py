"""The README's Library example runs as written, so the documented API
cannot drift from the code."""

import pathlib

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def test_readme_library_block_runs():
    section = README.read_text().split("\n## Library\n", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(code, str(README), "exec"), {})
