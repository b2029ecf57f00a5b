"""analyze writes symbols.csv, opn_edges.csv and opn_nodes.csv in a forked
child while the parent builds the partition table and writes its files:
every run ends as the serial stage loop, which runs where ``os.fork`` is
missing, ends it."""

import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import ordmaps as om
from ordmaps import cli
from test_pipeline_fork import SRC, _forked_and_serial, _half_then_disk_full, _outcome

FILES = {"partitions.csv", "entropy_curve.csv", "symbols.csv", "opn_edges.csv", "opn_nodes.csv", "manifest.json"}


@pytest.fixture(scope="module")
def series_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("analyze-fork") / "noise.csv"
    om.dump_series(om.TimeSeries(np.random.default_rng(29).standard_normal(4000), 0.01), path)
    return path


def _argv(series_file):
    return ["analyze", series_file, "--m", 5, "--tau", 1]


def test_a_forked_run_writes_what_a_serial_run_writes(series_file, tmp_path, capsys, monkeypatch):
    forked, serial = _forked_and_serial(_argv(series_file), tmp_path, capsys, monkeypatch)
    assert forked == serial
    code, out, err, files = forked
    assert (code, out, err) == (0, "OUT\n", "")
    assert set(files) == {f"run/{name}" for name in FILES}


def test_the_table_and_the_windows_are_computed_once_in_the_parent(series_file, tmp_path, capsys, monkeypatch):
    log = tmp_path / "calls"

    def logged(name, fn):
        def call(*args, **kwargs):
            with open(log, "a") as fh:  # a file, since the child's memory never reaches the parent
                fh.write(f"{name} {os.getpid()}\n")
            return fn(*args, **kwargs)
        return call

    monkeypatch.setattr(cli, "symbolize", logged("symbolize", cli.symbolize))
    monkeypatch.setattr(cli, "partition_table", logged("partition_table", cli.partition_table))
    forked = []
    real = cli._Forked

    def forking(stage, run, writer):
        forked.append(stage)
        return real(stage, run, writer)

    monkeypatch.setattr(cli, "_Forked", forking)
    for run in ("forked", "serial"):
        log.unlink(missing_ok=True)
        if run == "serial":
            monkeypatch.delattr(os, "fork")
        assert _outcome(_argv(series_file), tmp_path / run / "run", capsys)[0] == 0
        assert sorted(log.read_text().splitlines()) == [f"partition_table {os.getpid()}", f"symbolize {os.getpid()}"]
    assert forked == [cli._sequence_files]


def test_a_child_that_runs_out_of_disk_fails_as_a_serial_run(series_file, tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "write_symbols_csv", _half_then_disk_full(cli.write_symbols_csv))
    forked, serial = _forked_and_serial(_argv(series_file), tmp_path, capsys, monkeypatch)
    assert forked == serial == (1, "", "error: [Errno 28] No space left on device\n", {})


def test_a_failing_parent_stage_kills_the_child_first(series_file, tmp_path, capsys, monkeypatch):
    started = tmp_path / "child-started"

    def slow(seq, path):  # half a file, then a child that would not end by itself
        Path(path).write_text("start_index,pattern\n")
        started.touch()
        time.sleep(60)

    def failing(table, path):
        deadline = time.monotonic() + 30
        while hasattr(os, "fork") and not started.exists() and time.monotonic() < deadline:
            time.sleep(0.01)
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(cli, "write_symbols_csv", slow)
    monkeypatch.setattr(cli, "write_partitions_csv", failing)
    begun = time.monotonic()
    forked, serial = _forked_and_serial(_argv(series_file), tmp_path, capsys, monkeypatch)
    assert time.monotonic() - begun < 30
    assert forked == serial == (1, "", "error: [Errno 28] No space left on device\n", {})


@pytest.mark.parametrize("fork", [True, False], ids=["forked", "serial"])
def test_a_program_fault_in_the_sequence_stage_ends_with_a_traceback(fork, series_file, tmp_path):
    patch = "" if fork else "del os.fork; "
    argv = [*map(str, _argv(series_file)), "--out-dir", str(tmp_path / "run")]
    code = f"import os, sys, ordmaps.cli as c; {patch}c.write_symbols_csv = lambda *a: 1 / 0; sys.exit(c.main({argv!r}))"
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == 1 and done.stdout == ""
    assert done.stderr.startswith("Traceback (most recent call last):")
    assert "ZeroDivisionError: division by zero" in done.stderr
    assert "in _sequence_files" in done.stderr
    # the child's own traceback, inside the parent's
    assert ("a stage run in a child process failed:\nTraceback (most recent call last):" in done.stderr) == fork
    assert not (tmp_path / "run").exists()
