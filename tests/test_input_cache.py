"""The CLI's input cache on series files: a verified ``file.f8`` entry replaces
``load_series``, anything else loads the file as before, and no run can tell
the two apart. ``test_trajectory_cache`` covers the system entries."""

import hashlib
import json
import os

import numpy as np
import pytest

import ordmaps as om
from ordmaps import cli
from test_trajectory_cache import _files, _flip, _run

HEADER = 96  # the key, the sample count, the dt, the samples' series_sha256, the text's SHA-256


@pytest.fixture(scope="module")
def series_file(tmp_path_factory):
    sim = om.SimulationConfig(total_points=6000, discard_fraction=0.5, initial_state=(1.0, 1.0, 1.0))
    path = tmp_path_factory.mktemp("input-cache") / "lorenz.csv"
    om.dump_series(om.integrate_lorenz(cfg=sim), path)
    return path


@pytest.fixture
def loads(monkeypatch):
    """Each call of the CLI's load_series, through a rebound name."""
    calls, real = [], cli.load_series

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(cli, "load_series", counted)
    return calls


def _refuse(*args):
    raise AssertionError("parsed the series file")


COMMANDS = {
    "analyze": ["analyze"],
    "levels": ["levels"],
    "frm-level": ["frm", "--level", 1],
    "embed": ["embed", "--dim", 3, "--lag", 9],
    "pipeline": ["pipeline"],
}


@pytest.mark.parametrize("command", COMMANDS.values(), ids=COMMANDS)
def test_a_hit_parses_nothing_and_writes_the_same_bytes(command, series_file, tmp_path, trajectory_cache, monkeypatch,
                                                        capsys):
    argv = [command[0], series_file, *command[1:]]
    assert _run([*argv, "--out-dir", tmp_path / "cold"]) == 0
    assert sorted(p.name for p in trajectory_cache.iterdir()) == ["file.f8"]
    monkeypatch.setattr(cli, "load_series", _refuse)
    assert _run([*argv, "--out-dir", tmp_path / "warm"]) == 0
    assert capsys.readouterr().err == ""
    assert _files(tmp_path / "warm") == _files(tmp_path / "cold")


def test_the_entry_holds_the_samples_and_their_text(series_file, tmp_path, trajectory_cache):
    assert _run(["pipeline", series_file, "--out-dir", tmp_path / "run"]) == 0
    series = om.load_series(series_file)
    entry = (trajectory_cache / "file.f8").read_bytes()
    samples = np.ascontiguousarray(series.samples, "<f8").tobytes()
    text = (tmp_path / "run" / "series.csv").read_bytes().split(b"\n", 2)[2]
    assert int.from_bytes(entry[16:24], "little") == len(series)
    assert np.frombuffer(entry, "<f8", 1, 24)[0] == series.dt
    assert entry[32:64].hex() == om.series_sha256(series)
    assert entry[HEADER:] == samples + text


def test_a_miss_that_prints_no_sample_stores_no_text(series_file, tmp_path, trajectory_cache, loads, monkeypatch):
    render = cli.render_samples
    monkeypatch.setattr(cli, "render_samples", _refuse)
    assert _run(["analyze", series_file, "--out-dir", tmp_path / "analyze"]) == 0
    samples = np.ascontiguousarray(om.load_series(series_file).samples, "<f8").tobytes()
    path = trajectory_cache / "file.f8"
    entry = path.read_bytes()
    assert entry[64:HEADER] == hashlib.sha256(b"").digest() and entry[HEADER:] == samples
    monkeypatch.setattr(cli, "render_samples", render)
    assert _run(["pipeline", series_file, "--out-dir", tmp_path / "pipeline"]) == 0  # a miss: it needs the text
    text = (tmp_path / "pipeline" / "series.csv").read_bytes().split(b"\n", 2)[2]
    assert len(loads) == 2
    assert path.read_bytes() == entry[:64] + hashlib.sha256(text).digest() + samples + text


def test_a_run_that_prints_no_sample_reads_no_text(series_file, tmp_path, trajectory_cache, monkeypatch, capsys):
    assert _run(["analyze", series_file, "--out-dir", tmp_path / "cold"]) == 0
    assert _run(["pipeline", series_file, "--out-dir", tmp_path / "pipeline"]) == 0  # stores the text
    path = trajectory_cache / "file.f8"
    entry = path.read_bytes()
    path.write_bytes(entry[:-1])  # a damaged text, which only a run that prints its samples would read
    monkeypatch.setattr(cli, "load_series", _refuse)
    monkeypatch.setattr(cli, "render_samples", _refuse)
    assert _run(["analyze", series_file, "--out-dir", tmp_path / "warm"]) == 0
    assert capsys.readouterr().err == ""
    assert _files(tmp_path / "warm") == _files(tmp_path / "cold")
    assert path.read_bytes() == entry[:-1]


def _copy(series_file, path):
    path.write_bytes(series_file.read_bytes())
    return path


def test_a_byte_flipped_under_the_same_size_and_mtime_is_a_miss(series_file, tmp_path, loads):
    path = _copy(series_file, tmp_path / "series.csv")
    assert _run(["analyze", path, "--out-dir", tmp_path / "first"]) == 0
    stat, data = path.stat(), path.read_bytes()
    at = data.rindex(b"1")  # a digit of the last sample: still one number, another one
    path.write_bytes(data[:at] + b"2" + data[at + 1 :])
    os.utime(path, ns=(stat.st_atime_ns, stat.st_mtime_ns))
    assert path.stat().st_size == stat.st_size and path.stat().st_mtime_ns == stat.st_mtime_ns
    assert _run(["analyze", path, "--out-dir", tmp_path / "second"]) == 0
    assert len(loads) == 2
    first, second = (json.loads((tmp_path / name / "manifest.json").read_text()) for name in ("first", "second"))
    assert second["series_sha256"] == om.series_sha256(om.load_series(path)) != first["series_sha256"]


def test_a_file_rewritten_while_it_loads_is_not_stored(series_file, tmp_path, trajectory_cache, monkeypatch):
    path = _copy(series_file, tmp_path / "series.csv")
    real = cli.load_series

    def rewriting(*args):  # the loaded series no longer matches the bytes the key was taken from
        series = real(*args)
        path.write_bytes(path.read_bytes() + b"0.5\n")
        return series

    monkeypatch.setattr(cli, "load_series", rewriting)
    assert _run(["analyze", path, "--out-dir", tmp_path / "run"]) == 0
    assert list(trajectory_cache.iterdir()) == []  # neither an entry nor a temp file


# each damage, with the command whose run reads the damaged part
DAMAGE = {
    "wrong key": ("analyze", _flip(0)),
    "wrong sample count": ("analyze", _flip(16)),
    "sample count past the end": ("analyze", lambda data: data[:16] + (1 << 62).to_bytes(8, "little") + data[24:]),
    "wrong dt": ("analyze", _flip(24)),
    "negative dt": ("analyze", _flip(31)),  # the sign bit
    "wrong stored digest": ("analyze", _flip(40)),
    "truncated header": ("analyze", lambda data: data[:50]),
    "truncated samples": ("analyze", lambda data: data[: HEADER + 8 * 123]),
    "one sample byte flipped": ("analyze", _flip(HEADER + 8 * 123 + 3)),
    "sample not finite": ("analyze", lambda data: data[: HEADER + 6] + b"\xf8\x7f" + data[HEADER + 8 :]),
    "wrong stored text digest": ("pipeline", _flip(72)),
    "one text byte flipped": ("pipeline", lambda data: _flip(len(data) - 3)(data)),
    "truncated text": ("pipeline", lambda data: data[:-1]),
}


@pytest.mark.parametrize("command, damage", DAMAGE.values(), ids=DAMAGE)
def test_a_damaged_entry_is_a_miss_that_rewrites_it(command, damage, series_file, tmp_path, trajectory_cache, loads,
                                                    capsys):
    assert _run([command, series_file, "--out-dir", tmp_path / "cold"]) == 0
    path = trajectory_cache / "file.f8"
    entry = path.read_bytes()
    path.write_bytes(damage(entry))
    assert _run([command, series_file, "--out-dir", tmp_path / "again"]) == 0
    assert len(loads) == 2 and capsys.readouterr().err == ""
    assert _files(tmp_path / "again") == _files(tmp_path / "cold")
    assert path.read_bytes() == entry


BAD_FILES = {
    "bad row": ("# dt=0.1\nx\n1\n2\nfoo\n", "non-numeric value 'foo' at row 5"),
    "too few samples": ("# dt=0.1\n1\n", "{path} holds 1 samples; at least 2 required"),
    "no dt": ("1\n2\n3\n", "dt not given and no '# dt=...' header found in {path}"),
}


@pytest.mark.parametrize("text, message", BAD_FILES.values(), ids=BAD_FILES)
def test_a_file_that_fails_to_parse_stores_nothing(text, message, tmp_path, trajectory_cache, capsys):
    path = tmp_path / "bad.csv"
    path.write_text(text)
    assert _run(["analyze", path, "--out-dir", tmp_path / "run"]) == 1
    assert capsys.readouterr().err == f"error: {message.format(path=path.resolve())}\n"
    assert not (tmp_path / "run").exists()
    assert not trajectory_cache.exists() or list(trajectory_cache.iterdir()) == []


def test_another_file_replaces_the_entry(series_file, tmp_path, trajectory_cache, loads, monkeypatch):
    other = tmp_path / "other.csv"
    om.dump_series(om.TimeSeries(np.random.default_rng(3).standard_normal(2000), 0.5), other)
    for path in (series_file, other):
        assert _run(["analyze", path, "--out-dir", tmp_path / path.stem]) == 0
    assert sorted(p.name for p in trajectory_cache.iterdir()) == ["file.f8"]
    samples = om.load_series(other).samples
    assert (trajectory_cache / "file.f8").read_bytes()[HEADER : HEADER + 8 * len(samples)] == samples.tobytes()
    monkeypatch.setattr(cli, "load_series", _refuse)
    assert _run(["analyze", other, "--out-dir", tmp_path / "warm"]) == 0
    assert _files(tmp_path / "warm") == _files(tmp_path / "other")


def test_the_same_bytes_elsewhere_are_the_same_entry(series_file, tmp_path, trajectory_cache, monkeypatch):
    assert _run(["analyze", series_file, "--out-dir", tmp_path / "cold"]) == 0
    moved = _copy(series_file, tmp_path / "moved.csv")
    monkeypatch.setattr(cli, "load_series", _refuse)
    assert _run(["analyze", moved, "--out-dir", tmp_path / "warm"]) == 0
    cold, warm = (json.loads((tmp_path / name / "manifest.json").read_text()) for name in ("cold", "warm"))
    assert warm["series_sha256"] == cold["series_sha256"] and warm["input"]["path"] == str(moved)


def test_files_and_systems_keep_one_entry_per_kind(series_file, tmp_path, trajectory_cache):
    assert _run(["analyze", series_file, "--out-dir", tmp_path / "file"]) == 0
    assert _run(["generate", "rossler", "--seed", 1, "--points", 3000, "--out-dir", tmp_path / "system"]) == 0
    assert sorted(p.name for p in trajectory_cache.iterdir()) == ["file.f8", "rossler.f8"]


def test_rerun_of_a_changed_digest_still_fails_after_a_hit(tmp_path, monkeypatch, capsys):
    path = tmp_path / "series.csv"
    path.write_text("".join(f"{v!r}\n" for v in np.random.default_rng(4).standard_normal(500).tolist()))
    assert _run(["analyze", path, "--dt", 0.5, "--out-dir", tmp_path / "cold"]) == 0
    spec = json.loads((tmp_path / "cold" / "manifest.json").read_text())
    spec["series_sha256"] = "0" * 64
    changed = tmp_path / "changed.json"
    changed.write_text(json.dumps(spec))
    monkeypatch.setattr(cli, "load_series", _refuse)  # the entry is a hit: the manifest holds --dt as given
    assert _run(["rerun", changed, "--out-dir", tmp_path / "rerun"]) == 1
    assert capsys.readouterr().err.startswith("error: input series does not match the manifest")
    assert not (tmp_path / "rerun").exists()


def test_library_calls_do_not_cache(series_file, trajectory_cache):
    om.load_series(series_file)
    om.load_series(series_file, dt=0.5)
    assert not trajectory_cache.exists()


ODD_FILES = {  # load_series's quirks, which a hit must give back bit for bit
    "dt header": ("# dt=0.25\nx\n1.5\n-0.0\n5e-324\n1e308\n", "csv", None),
    "dt flag over the header": ("# dt=0.25\n1.5\n-0.0\n", "csv", 0.125),
    "bom, crlf, comments and blanks": ("\ufeffvalue\r\n# a note\r\n\r\n3\r\n-2.5e-310\r\n# dt=7\r\n4\r\n", "csv", None),
    "whitespace": ("# dt=1e-3\n  0.1  \n\t-0.2\n0.30000000000000004\n", "whitespace", None),
}


@pytest.mark.parametrize("text, format, dt", ODD_FILES.values(), ids=ODD_FILES)
def test_load_series_is_the_oracle_of_a_hit(text, format, dt, tmp_path, monkeypatch):
    path = tmp_path / "odd.csv"
    path.write_bytes(text.encode())
    argv = ["analyze", str(path), "--format", format, "--m", "2", "--tau", "1"] + (["--dt", str(dt)] if dt else [])
    expected = om.load_series(path, format, dt)
    got = []
    for _ in ("miss", "hit"):
        run = cli._check(cli._spec_from_args(cli.build_parser().parse_args(argv)))
        series, digest, sample_text = cli._trajectory(run)
        got.append(series)
        assert sample_text is None and digest == om.series_sha256(expected)
        monkeypatch.setattr(cli, "load_series", _refuse)
    for series in got:
        assert series.samples.tobytes() == expected.samples.tobytes()
        assert series.dt == expected.dt and type(series.dt) is float and series.origin_time == 0.0
