"""The CLI's trajectory cache: a verified entry replaces the integration and
the rendering of the samples, anything else re-integrates, and no run can
tell the two apart."""

import hashlib
import json
import os
from pathlib import Path

import pytest

import ordmaps as om
from ordmaps import cli, series

SIM = ["--seed", 1, "--points", 20000, "--discard", 0.5]
KEEP = om.kept_points(om.SimulationConfig(seed=1, total_points=20000, discard_fraction=0.5))
HEADER = 96  # the key, the sample count, the dt, the samples' series_sha256, the text's SHA-256


def _run(argv):
    return cli.main([str(a) for a in argv])


def _files(run_dir):
    return {p.name: p.read_bytes() for p in sorted(run_dir.iterdir())}


@pytest.fixture
def integrations(monkeypatch):
    """Each call of the CLI's Lorenz integrator, through a rebound name."""
    calls, real = [], cli.integrate_lorenz

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(cli, "integrate_lorenz", counted)
    return calls


@pytest.fixture
def cold(tmp_path, trajectory_cache, integrations, capsys):
    """A pipeline run that integrated and stored its tail: (run files, entry bytes)."""
    assert _run(["pipeline", "lorenz", *SIM, "--out-dir", tmp_path / "cold"]) == 0
    assert len(integrations) == 1 and capsys.readouterr().err == ""
    entry = trajectory_cache / "lorenz.f8"
    assert sorted(p.name for p in trajectory_cache.iterdir()) == ["lorenz.f8"]
    return _files(tmp_path / "cold"), entry.read_bytes()


def test_a_hit_integrates_nothing_and_writes_the_same_bytes(cold, tmp_path, integrations, capsys):
    files, entry = cold
    text = files["series.csv"].split(b"\n", 2)[2]  # the lines after the dt comment and the column name
    assert len(entry) == HEADER + 8 * KEEP + len(text) and entry[HEADER + 8 * KEEP :] == text
    assert hashlib.sha256(text).digest() == entry[64:HEADER]
    assert _run(["pipeline", "lorenz", *SIM, "--out-dir", tmp_path / "warm"]) == 0
    assert len(integrations) == 1 and capsys.readouterr().err == ""
    assert _files(tmp_path / "warm") == files


def _refuse(*args):
    raise AssertionError("rendered the samples")


@pytest.mark.parametrize("command", ["pipeline", "generate"])
def test_a_hit_renders_no_sample(command, tmp_path, integrations, monkeypatch, capsys):
    assert _run([command, "lorenz", *SIM, "--out-dir", tmp_path / "cold"]) == 0
    monkeypatch.setattr(cli, "render_samples", _refuse)
    monkeypatch.setattr(series, "write_rows", _refuse)  # what dump_series renders with when it has no text
    assert _run([command, "lorenz", *SIM, "--out-dir", tmp_path / "warm"]) == 0
    assert len(integrations) == 1 and capsys.readouterr().err == ""
    assert _files(tmp_path / "warm") == _files(tmp_path / "cold")


def _flip(at):
    return lambda data: data[:at] + bytes([data[at] ^ 0x01]) + data[at + 1 :]


DAMAGE = {
    "wrong key": _flip(0),
    "wrong stored digest": _flip(40),
    "wrong stored text digest": _flip(72),
    "truncated": lambda data: data[: HEADER + 8 * 123],  # within the samples
    "one sample byte flipped": _flip(HEADER + 8 * 123 + 3),
    # a sample whose exponent bits are all set, so it is no longer finite
    "sample not finite": lambda data: data[: HEADER + 6] + b"\xf8\x7f" + data[HEADER + 8 :],
    # a digit of the last line turned into another digit: still one line per sample
    "one text byte flipped": lambda data: _flip(len(data) - 3)(data),
    "truncated text": lambda data: data[:-1],
    # the layout before the text was kept, under today's key: the key and the digest, then the samples
    "entry without its text": lambda data: data[:64] + data[HEADER : HEADER + 8 * KEEP],
}


@pytest.mark.parametrize("damage", DAMAGE.values(), ids=DAMAGE)
def test_a_damaged_entry_is_a_miss_that_rewrites_it(damage, cold, tmp_path, trajectory_cache, integrations, capsys):
    files, entry = cold
    path = trajectory_cache / "lorenz.f8"
    path.write_bytes(damage(entry))
    assert _run(["pipeline", "lorenz", *SIM, "--out-dir", tmp_path / "again"]) == 0
    assert len(integrations) == 2 and capsys.readouterr().err == ""
    assert _files(tmp_path / "again") == files
    assert path.read_bytes() == entry


def test_another_input_replaces_the_entry_of_its_system(cold, tmp_path, trajectory_cache, integrations):
    _, entry = cold
    assert _run(["generate", "lorenz", "--seed", 2, "--points", 3000, "--out-dir", tmp_path / "other"]) == 0
    assert len(integrations) == 2
    assert sorted(p.name for p in trajectory_cache.iterdir()) == ["lorenz.f8"]
    assert (trajectory_cache / "lorenz.f8").read_bytes()[:32] != entry[:32]


def _replace_fails(*args):
    raise OSError(28, "No space left on device")


def _no_home():
    raise RuntimeError("Could not determine home directory.")


@pytest.mark.parametrize("blocked", ["cache home is a file", "replace fails", "no home directory"])
def test_a_cache_that_cannot_be_used_changes_no_run(blocked, tmp_path, trajectory_cache, integrations, monkeypatch, capsys):
    # runs as root, so a mode bit would block nothing
    if blocked == "cache home is a file":
        home = tmp_path / "file"
        home.write_text("not a directory")
        monkeypatch.setenv("XDG_CACHE_HOME", str(home))
    elif blocked == "replace fails":
        monkeypatch.setattr(os, "replace", _replace_fails)
    else:
        monkeypatch.delenv("XDG_CACHE_HOME")
        monkeypatch.setattr(Path, "home", staticmethod(_no_home))
    for name in ("first", "second"):
        assert _run(["generate", "lorenz", *SIM, "--out-dir", tmp_path / name]) == 0
        assert capsys.readouterr().err == ""
    assert len(integrations) == 2
    assert _files(tmp_path / "first") == _files(tmp_path / "second")
    if blocked == "cache home is a file":
        assert home.read_text() == "not a directory"
    elif blocked == "replace fails":
        assert list(trajectory_cache.iterdir()) == []  # no entry and no temp file


@pytest.mark.parametrize("xdg", [None, "", "relative/cache"], ids=["unset", "empty", "relative"])
def test_the_cache_falls_back_to_the_home_directory(xdg, tmp_path, monkeypatch):
    monkeypatch.setenv("HOME", str(tmp_path / "home"))
    if xdg is None:
        monkeypatch.delenv("XDG_CACHE_HOME")
    else:
        monkeypatch.setenv("XDG_CACHE_HOME", xdg)
    monkeypatch.chdir(tmp_path)
    assert _run(["generate", "rossler", *SIM, "--out-dir", tmp_path / "run"]) == 0
    assert sorted(p.name for p in (tmp_path / "home" / ".cache" / "ordmaps").iterdir()) == ["rossler.f8"]
    assert not (tmp_path / "relative").exists()


def test_rerun_of_a_changed_digest_still_fails_after_a_hit(cold, tmp_path, integrations, capsys):
    spec = json.loads((tmp_path / "cold" / "manifest.json").read_text())
    spec["series_sha256"] = "0" * 64
    path = tmp_path / "changed.json"
    path.write_text(json.dumps(spec))
    assert _run(["rerun", path, "--out-dir", tmp_path / "rerun"]) == 1
    assert len(integrations) == 1  # the entry was a hit
    assert capsys.readouterr().err.startswith("error: input series does not match the manifest")
    assert not (tmp_path / "rerun").exists()


def test_a_refused_seed_stops_before_the_cache(tmp_path, monkeypatch, capsys):
    def looked_up(run):
        raise AssertionError("looked up the cache")

    monkeypatch.setattr(cli, "_trajectory", looked_up)
    assert _run(["generate", "lorenz", "--seed", 1, "--initial-state", "1,1,1", "--out-dir", tmp_path / "run"]) == 1
    assert capsys.readouterr().err == "error: --seed would change nothing: lorenz starts from --initial-state\n"


def test_library_calls_do_not_cache(trajectory_cache):
    cfg = om.SimulationConfig(seed=1, total_points=2000, discard_fraction=0.5)
    om.integrate_lorenz(cfg=cfg)
    om.integrate_rossler(cfg=cfg)
    om.integrate_mackey_glass(cfg=om.SimulationConfig(total_points=2000))
    assert not trajectory_cache.exists()
