"""README's "Library use" block runs and prints the line of its trailing comment."""

import contextlib
import io
import re
from pathlib import Path

import ordmaps as om

README = Path(__file__).resolve().parents[1] / "README.md"


def _library_use_block() -> str:
    section = README.read_text(encoding="utf-8").split("## Library use", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_library_use_example_prints_its_comment(lorenz_series, monkeypatch):
    def integrate(params=None, cfg=None):
        assert params is None and cfg == om.SimulationConfig(seed=1)
        return lorenz_series  # the session's trajectory: the block integrates nothing

    monkeypatch.setattr(om, "integrate_lorenz", integrate)
    block = _library_use_block()
    expected = block.rstrip().splitlines()[-1]
    assert expected.startswith("# ")
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, str(README), "exec"), {})
    assert out.getvalue() == expected[2:] + "\n"
