"""pipeline writes embedded.csv in a forked child: every failed run ends as
the serial stage loop, which runs where ``os.fork`` is missing, ends it.
``test_cli_golden`` compares the runs that succeed."""

import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import ordmaps as om
from ordmaps import cli

SRC = Path(cli.__file__).resolve().parents[1]


@pytest.fixture(scope="module")
def series_file(tmp_path_factory):
    sim = om.SimulationConfig(total_points=6000, discard_fraction=0.5, initial_state=(1.0, 1.0, 1.0))
    path = tmp_path_factory.mktemp("fork") / "lorenz.csv"
    om.dump_series(om.integrate_lorenz(cfg=sim), path)
    return path


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _outcome(argv, out: Path, capsys):
    """Exit code, stdout, stderr and the files left under out's parent, each name with its bytes."""
    code = cli.main([*map(str, argv), "--out-dir", str(out)])
    captured = capsys.readouterr()
    _no_child_left()
    files = {str(p.relative_to(out.parent)): p.read_bytes() for p in sorted(out.parent.rglob("*")) if p.is_file()}
    return code, captured.out.replace(str(out), "OUT"), captured.err, files


def _forked_and_serial(argv, tmp_path, capsys, monkeypatch):
    forked = _outcome(argv, tmp_path / "forked" / "run", capsys)
    monkeypatch.delattr(os, "fork")
    serial = _outcome(argv, tmp_path / "serial" / "run", capsys)
    return forked, serial


def _half_then_disk_full(real):
    def write(points, path, *args, **kwargs):
        real(points, path, *args, **kwargs)
        data = Path(path).read_bytes()
        Path(path).write_bytes(data[: len(data) // 2])
        raise OSError(28, "No space left on device")

    return write


def test_a_child_that_runs_out_of_disk_fails_as_a_serial_run(series_file, tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "write_embedding_csv", _half_then_disk_full(cli.write_embedding_csv))
    forked, serial = _forked_and_serial(["pipeline", series_file], tmp_path, capsys, monkeypatch)
    assert forked == serial == (1, "", "error: [Errno 28] No space left on device\n", {})


def test_a_failing_parent_stage_kills_the_child_first(series_file, tmp_path, capsys, monkeypatch):
    started = tmp_path / "child-started"

    def slow(points, path, *args, **kwargs):  # half a file, then a child that would not end by itself
        Path(path).write_text("x0,x1,x2\n")
        started.touch()
        time.sleep(60)

    def failing(net, path):
        deadline = time.monotonic() + 30
        while hasattr(os, "fork") and not started.exists() and time.monotonic() < deadline:
            time.sleep(0.01)
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(cli, "write_embedding_csv", slow)
    monkeypatch.setattr(cli, "write_level_network_csv", failing)
    begun = time.monotonic()
    forked, serial = _forked_and_serial(["pipeline", series_file], tmp_path, capsys, monkeypatch)
    assert time.monotonic() - begun < 30
    assert forked == serial == (1, "", "error: [Errno 28] No space left on device\n", {})


def test_an_error_of_the_child_reads_as_in_a_serial_run(series_file, tmp_path, capsys, monkeypatch):
    def refused(*args, **kwargs):
        raise om.ConfigError("levels must hold one label per window (3), got shape (2,)")

    monkeypatch.setattr(cli, "write_embedding_csv", refused)
    forked, serial = _forked_and_serial(["pipeline", series_file], tmp_path, capsys, monkeypatch)
    assert forked == serial
    assert forked[0] == 1 and forked[2] == "error: levels must hold one label per window (3), got shape (2,)\n"


@pytest.mark.parametrize("fork", [True, False], ids=["forked", "serial"])
def test_a_program_fault_in_the_embedding_stage_ends_with_a_traceback(fork, series_file, tmp_path):
    patch = "" if fork else "del os.fork; "
    code = (
        f"import os, sys, ordmaps.cli as c; {patch}c.write_embedding_csv = lambda *a, **k: 1 / 0; "
        f"sys.exit(c.main(['pipeline', {str(series_file)!r}, '--out-dir', {str(tmp_path / 'run')!r}]))"
    )
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == 1 and done.stdout == ""
    assert done.stderr.startswith("Traceback (most recent call last):")
    assert "ZeroDivisionError: division by zero" in done.stderr
    assert not (tmp_path / "run").exists()

