"""``python -m ordmaps`` and the ``ordmaps`` script end through ``cli.console_main``:
main, a flush of stdout and stderr, then ``os._exit`` with main's code. Each
run here is a fresh interpreter, so what it prints and its exit code are those
a user sees."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import ordmaps as om
from ordmaps import cli, manifest

SRC = Path(cli.__file__).resolve().parents[1]
# the ending before console_main, which a flush that fails falls back to
OLD_ENDING = ["-c", "import sys, ordmaps.cli as c; sys.exit(c.main())"]


@pytest.fixture()
def series_file(tmp_path):
    path = tmp_path / "noise.csv"
    om.dump_series(om.TimeSeries(np.random.default_rng(5).standard_normal(3000), dt=1.0), path)
    return path


def _env():
    return {**os.environ, "PYTHONPATH": os.pathsep.join([str(SRC), *filter(None, [os.environ.get("PYTHONPATH")])])}


def _ordmaps(*argv, entry=("-m", "ordmaps")):
    return subprocess.run([sys.executable, *entry, *map(str, argv)], capture_output=True, text=True, env=_env(), timeout=120)


def test_a_run_prints_its_directory_and_exits_0_with_every_file(series_file, tmp_path, capsys):
    out = tmp_path / "run"
    done = _ordmaps("analyze", series_file, "--m", 4, "--out-dir", out)
    assert (done.returncode, done.stdout, done.stderr) == (0, f"{out}\n", "")
    spec = manifest.load_manifest(out / "manifest.json")
    assert sorted(p.name for p in out.iterdir()) == sorted([*spec["outputs"], "manifest.json"])
    assert cli.main(["analyze", str(series_file), "--m", "4", "--out-dir", str(tmp_path / "in-process")]) == 0
    capsys.readouterr()
    assert {p.name: p.read_bytes() for p in out.iterdir()} == {
        p.name: p.read_bytes() for p in (tmp_path / "in-process").iterdir()
    }


def test_a_bad_input_prints_one_error_line_and_exits_1(series_file, tmp_path):
    done = _ordmaps("analyze", series_file, "--m", 1, "--out-dir", tmp_path / "run")
    assert (done.returncode, done.stdout) == (1, "")
    assert done.stderr.startswith("error: ") and done.stderr.count("\n") == 1
    assert not (tmp_path / "run").exists()


def test_a_program_fault_ends_with_a_traceback_and_exits_1(series_file, tmp_path):
    # ordmaps.__main__ as python -m runs it, with a fault in the parent's stage
    code = (
        "import runpy, ordmaps.cli as c; c.write_partitions_csv = lambda *a: 1 / 0; "
        "runpy.run_module('ordmaps', run_name='__main__', alter_sys=True)"
    )
    done = _ordmaps("analyze", series_file, "--m", 4, "--out-dir", tmp_path / "run", entry=("-c", code))
    assert (done.returncode, done.stdout) == (1, "")
    assert done.stderr.startswith("Traceback (most recent call last):")
    assert done.stderr.endswith("ZeroDivisionError: division by zero\n")
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("flag", ["--version", "--help"])
def test_version_and_help_end_as_before(flag):
    done, before = _ordmaps(flag), _ordmaps(flag, entry=OLD_ENDING)
    assert (done.returncode, done.stdout, done.stderr) == (before.returncode, before.stdout, before.stderr)
    assert done.returncode == 0
    if flag == "--version":
        assert done.stdout == f"ordmaps {om.__version__}\n"
    else:
        assert done.stdout.startswith("usage: ordmaps")


@pytest.mark.parametrize("unbuffered", ["1", ""], ids=["unbuffered", "buffered"])
def test_a_closed_stdout_ends_as_before(unbuffered, series_file, tmp_path):
    """stdout read by no one: a failing flush ends the process through sys.exit, as it ended before."""
    ends = []
    for name, entry in (("new", ("-m", "ordmaps")), ("old", OLD_ENDING)):
        argv = [sys.executable, *entry, "analyze", str(series_file), "--m", "4", "--out-dir", str(tmp_path / name)]
        env = {key: value for key, value in _env().items() if key != "PYTHONUNBUFFERED"}
        proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env={**env, "PYTHONUNBUFFERED": unbuffered})
        proc.stdout.close()  # before the interpreter has started, let alone written
        try:
            err = proc.stderr.read()
            ends.append((proc.wait(timeout=120), err))
        finally:
            proc.stderr.close()
    assert ends[0] == ends[1]
    assert ends[0][0] != 0 and b"Broken pipe" in ends[0][1]


def test_the_module_and_the_console_script_call_console_main():
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((SRC.parent / "pyproject.toml").read_text(encoding="utf-8"))["project"]
    assert project["scripts"] == {"ordmaps": "ordmaps.cli:console_main"}
    tree = ast.parse(Path(cli.__file__).with_name("__main__.py").read_text(encoding="utf-8"))
    calls = [node.func.id for node in ast.walk(tree) if isinstance(node, ast.Call)]
    assert calls == ["console_main"]
    assert any(isinstance(node, ast.ImportFrom) and node.module == "cli" for node in tree.body)
