import dataclasses
import functools
import itertools
import json
import os
import subprocess
import sys
import typing
from pathlib import Path

import numpy as np
import pytest

import ordmaps as om
import oracles
from ordmaps import cli, encoding, manifest, sources


@pytest.fixture()
def wiggly_file(tmp_path):
    values = np.sin(0.9 * np.arange(80.0))
    path = tmp_path / "series.csv"
    om.dump_series(om.TimeSeries(values, dt=0.5), path)
    return path


@pytest.fixture()
def noise_file(tmp_path):
    path = tmp_path / "noise.csv"
    om.dump_series(om.TimeSeries(np.random.default_rng(3).standard_normal(3000), dt=1.0), path)
    return path


def _run(argv):
    return cli.main([str(a) for a in argv])


def test_version_subprocess():
    # the child finds this ordmaps whether or not it is installed or on PYTHONPATH
    path = [str(Path(om.__file__).parents[1]), *filter(None, [os.environ.get("PYTHONPATH")])]
    out = subprocess.run(
        [sys.executable, "-m", "ordmaps", "--version"],
        capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(path)},
    )
    assert out.stdout.strip() == f"ordmaps {om.__version__}"


# what `import ordmaps.cli` adds to a fresh `import numpy`: each module more is imported by every run
IMPORTED_OVER_NUMPY = {
    "__future__", "_blake2", "_decimal", "_hashlib", "_json", "argparse", "copy", "dataclasses", "decimal",
    "fractions", "gettext", "hashlib", "json", "json.decoder", "json.encoder", "json.scanner", "ordmaps",
    "ordmaps.cli", "ordmaps.embedding", "ordmaps.encoding", "ordmaps.errors", "ordmaps.exports", "ordmaps.levels",
    "ordmaps.manifest", "ordmaps.network", "ordmaps.ranking", "ordmaps.returnmaps", "ordmaps.series",
    "ordmaps.sources",
}


@pytest.mark.parametrize("argv", [["analyze", "SERIES", "--m", "4"], ["pipeline", "lorenz", "--seed", "1", "--points", "20000"]])
def test_runs_do_not_import_numpy_ma(wiggly_file, tmp_path, argv):
    # numpy's plain np.unique(x) imports numpy.ma, about 0.015 s and 1.2 MB per process; a forked
    # run that succeeds needs neither signal, which kills a child, nor traceback, which reports its fault
    path = [str(Path(om.__file__).parents[1]), *filter(None, [os.environ.get("PYTHONPATH")])]
    code = (
        "import sys, numpy; before = set(sys.modules); from ordmaps.cli import main; "
        "added = sorted(set(sys.modules) - before); rc = main(sys.argv[1:]); "
        "print(rc, *(name in sys.modules for name in ('numpy.ma', 'signal', 'traceback'))); print(*added)"
    )
    out = subprocess.run(
        [sys.executable, "-c", code, *[str(wiggly_file) if a == "SERIES" else a for a in argv], "--out-dir", str(tmp_path / "run")],
        capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(path)},
    )
    *_, ended, added = out.stdout.splitlines()
    assert ended.split() == ["0", "False", "False", "False"]
    assert set(added.split()) <= IMPORTED_OVER_NUMPY


def test_generate_writes_series_and_manifest(tmp_path, capsys):
    out = tmp_path / "run"
    rc = _run(["generate", "lorenz", "--seed", 1, "--points", 2000,
               "--discard", 0.5, "--out-dir", out])
    assert rc == 0
    assert capsys.readouterr().out.strip() == str(out)
    spec = manifest.load_manifest(out / "manifest.json")
    assert spec["command"] == "generate"
    assert spec["outputs"] == ["series.csv"]
    assert spec["manifest_sha256"] == manifest.manifest_digest(spec)
    series = om.load_series(out / "series.csv")
    assert len(series) == 1000
    assert om.series_sha256(series) == spec["series_sha256"]


def test_generate_deterministic_across_dirs(tmp_path):
    args = ["generate", "rossler", "--seed", 7, "--points", 1500, "--discard", 0.2]
    d1, d2 = tmp_path / "a", tmp_path / "b"
    assert _run(args + ["--out-dir", d1]) == 0
    assert _run(args + ["--out-dir", d2]) == 0
    assert (d1 / "series.csv").read_bytes() == (d2 / "series.csv").read_bytes()
    assert (d1 / "manifest.json").read_bytes() == (d2 / "manifest.json").read_bytes()


def test_generate_needs_seed_or_state(tmp_path, capsys):
    out = tmp_path / "run"
    rc = _run(["generate", "lorenz", "--points", 1000, "--out-dir", out])
    assert rc == 1
    assert capsys.readouterr().err.startswith("error:")
    assert not out.exists()


def test_generate_rejects_bad_delay(tmp_path, capsys):
    rc = _run(["generate", "mackey-glass", "--delay", 0.025, "--points", 1000,
               "--discard", 0.0, "--out-dir", tmp_path / "run"])
    assert rc == 1
    assert "integer multiple" in capsys.readouterr().err


def test_default_out_dir_is_digest_keyed(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    rc = _run(["generate", "lorenz", "--seed", 3, "--points", 1200, "--discard", 0.5])
    assert rc == 0
    printed = capsys.readouterr().out.strip()
    assert printed.startswith("runs/") or printed.startswith("runs\\")
    run_dir = tmp_path / printed
    assert run_dir.is_dir()
    assert len(run_dir.name) == 12
    assert (run_dir / "series.csv").exists()


def test_analyze_outputs(wiggly_file, tmp_path, capsys):
    out = tmp_path / "analysis"
    rc = _run(["analyze", wiggly_file, "--m", 2, "--tau", 1, "--out-dir", out])
    assert rc == 0
    spec = manifest.load_manifest(out / "manifest.json")
    expected = sorted(
        ["symbols.csv", "partitions.csv", "entropy_curve.csv",
         "opn_edges.csv", "opn_nodes.csv"]
    )
    assert spec["outputs"] == expected
    for name in expected + ["manifest.json"]:
        assert (out / name).exists()
    assert spec["window"] == {"m": 2, "tau": 1, "w": 1, "ranking": "chronological"}
    # dt was read from the file header and pinned
    assert spec["input"]["dt"] == 0.5


def test_analyze_cleanup_on_failure(tmp_path, capsys):
    short = tmp_path / "short.csv"
    om.dump_series(om.TimeSeries(np.array([1.0, 2.0, 3.0]), dt=1.0), short)
    out = tmp_path / "analysis"
    rc = _run(["analyze", short, "--out-dir", out])  # default window needs 20 samples
    assert rc == 1
    assert capsys.readouterr().err.startswith("error:")
    assert not out.exists()


def test_writer_failure_removes_its_half_written_file(wiggly_file, tmp_path, capsys, monkeypatch):
    def write_until_disk_full(seq, path):
        Path(path).write_text("start_index,pattern\n0,")
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(cli, "write_symbols_csv", write_until_disk_full)
    out = tmp_path / "analysis"
    rc = _run(["analyze", wiggly_file, "--m", 2, "--tau", 1, "--out-dir", out])
    assert rc == 1
    assert "No space left on device" in capsys.readouterr().err
    assert not out.exists()


def test_failure_removes_every_directory_the_run_made(tmp_path, capsys):
    tiny = tmp_path / "tiny.csv"
    om.dump_series(om.TimeSeries(np.array([1.0, 2.0, 1.0, 2.0, 3.0]), dt=1.0), tiny)
    (tmp_path / "x").mkdir()
    (tmp_path / "x" / "keep.txt").write_text("not the run's\n")
    rc = _run(["frm", tiny, "--m", 2, "--tau", 1, "--level", 3, "--out-dir", tmp_path / "x" / "y" / "z"])
    assert rc == 1
    assert "no partition at level 3" in capsys.readouterr().err
    assert sorted(p.name for p in (tmp_path / "x").iterdir()) == ["keep.txt"]
    rc = _run(["frm", tiny, "--m", 2, "--tau", 1, "--level", 3, "--out-dir", tmp_path / "a" / "b" / "c"])
    assert rc == 1
    assert not (tmp_path / "a").exists()


@pytest.fixture()
def built(monkeypatch):
    """The name of each OrdinalPattern built while the test runs."""
    built, init = [], encoding.OrdinalPattern.__init__

    def counted(self, *args, **kwargs):
        built.append(type(self).__name__)
        init(self, *args, **kwargs)

    monkeypatch.setattr(encoding.OrdinalPattern, "__init__", counted)
    return built


def test_analyze_builds_no_object_per_partition(noise_file, tmp_path, built):
    rc = _run(["analyze", noise_file, "--m", 7, "--tau", 1, "--out-dir", tmp_path / "out"])
    assert rc == 0
    assert len((tmp_path / "out" / "partitions.csv").read_text().splitlines()) > 1000
    assert built == []


@pytest.mark.parametrize("ranking", encoding.RANKINGS)
def test_frm_pattern_builds_only_the_patterns_it_parsed(ranking, noise_file, tmp_path, built):
    out = tmp_path / "out"
    rc = _run(["frm", noise_file, "--pattern", "1-2-3-4", "--pattern", "4-3-2-1", "--ranking", ranking, "--out-dir", out])
    assert rc == 0
    assert (out / "frm_partition_1-2-3-4.csv").exists() and (out / "frm_partition_4-3-2-1.csv").exists()
    assert built == ["OrdinalPattern"] * 2


@pytest.mark.parametrize("m", range(2, 12))
def test_pattern_rows_pick_the_entries_of_their_canonical_pattern(m, monkeypatch):
    picked = []
    monkeypatch.setattr(cli, "frm_from_entries", lambda series, entries, source: picked.append(entries.tolist()))
    noise = om.TimeSeries(np.random.default_rng(m).integers(0, 4, size=2000).astype(float), dt=1.0)  # tie-prone
    ramp = om.TimeSeries(np.arange(40.0), dt=1.0)  # one pattern, so its reverse is absent
    for ranking, w in itertools.product(encoding.RANKINGS, (1, 3)):
        window = om.WindowConfig(m=m, tau=1, w=w, ranking=ranking)
        noisy, ramped = (cli._Run({}, window=window, frm={"mode": "pattern"}, series=s) for s in (noise, ramp))
        rows = noisy.seq.shown.tolist()
        absent = "-".join(reversed(ramped.seq.shown[0].split("-")))
        for run, text in [*((noisy, t) for t in rows), (noisy, "0" + rows[0]), (ramped, absent)]:
            shown = om.OrdinalPattern.from_dashed(text)
            canonical = oracles.amplitude_to_chron(shown.perm) if ranking == "amplitude" else shown.perm
            want = om.entry_points(run.seq, om.OrdinalPattern(canonical)).tolist()
            run.patterns, picked[:] = [shown], []
            try:
                cli._partition_maps(run)
            except om.EmptyMapError as exc:  # fewer than 2 entries: the error says how many
                picked.append(exc.count)
                want = len(want)
            assert picked == [want], (ranking, w, text)
        assert picked == [0]  # the absent pattern picks no entries


# argv, then how often it may call symbolize and partition_table
COMPUTES = {
    "analyze": (["analyze"], 1, 1),
    "levels": (["levels", "--per-entry"], 1, 1),
    "frm level": (["frm", "--level", 1], 1, 1),
    "frm pattern": (["frm", "--pattern", "1-2-3-4"], 1, 0),
    "frm maxima": (["frm", "--maxima"], 0, 0),
    "embed coloured": (["embed", "--dim", 4, "--lag", 2], 1, 1),
    "embed color none": (["embed", "--dim", 4, "--lag", 2, "--color", "none"], 0, 0),
    "pipeline": (["pipeline"], 1, 1),
}


@pytest.mark.parametrize("case", sorted(COMPUTES))
def test_each_command_computes_only_what_it_writes(case, noise_file, tmp_path, monkeypatch):
    (command, *flags), symbolized, tabled = COMPUTES[case]
    calls = []

    def counting(name, fn):
        def counted(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)

        return counted

    for name in ("symbolize", "partition_table"):
        monkeypatch.setattr(cli, name, counting(name, getattr(cli, name)))
    runs, check = [], cli._check
    monkeypatch.setattr(cli, "_check", lambda spec: runs.append(check(spec)) or runs[-1])
    assert _run([command, noise_file, *flags, "--out-dir", tmp_path / "out"]) == 0
    assert (calls.count("symbolize"), calls.count("partition_table")) == (symbolized, tabled)
    # the run holds only its declared fields, and its manifest exactly the sections it reads
    declared = {f.name for f in dataclasses.fields(cli._Run)}
    cached = {name for name, value in vars(cli._Run).items() if isinstance(value, functools.cached_property)}
    assert set(vars(runs[0])) <= declared | cached
    spec = manifest.load_manifest(tmp_path / "out" / "manifest.json")
    mode = spec.get("frm", {}).get("mode")
    sections = set(spec) - {"command", "version", "input", "series_sha256", "outputs", "manifest_sha256"}
    assert sections == set(cli._reads(command, mode, spec.get("embedding", {}).get("color")))


# argv of a run whose manifest once also held these sections at their defaults
OLD_LAYOUT = {
    "frm maxima": (["frm", "--maxima", "--sign-split"], ("window", "subseries", "levels")),
    "frm pattern": (["frm", "--pattern", "4-3-2-1"], ("subseries", "levels")),
    "embed color none": (
        ["embed", "--dim", 2, "--lag", 6, "--color", "none"], ("window", "subseries", "levels", "level_network")
    ),
}


@pytest.mark.parametrize("case", sorted(OLD_LAYOUT))
def test_manifest_with_unread_sections_replays_as_written(case, noise_file, tmp_path):
    (command, *flags), unread = OLD_LAYOUT[case]
    assert _run([command, noise_file, *flags, "--out-dir", tmp_path / "new"]) == 0
    spec = manifest.load_manifest(tmp_path / "new" / "manifest.json")
    defaults = {
        "window": dataclasses.asdict(om.WindowConfig()),
        "subseries": dataclasses.asdict(om.SubSeriesConfig()),
        "levels": dataclasses.asdict(om.LevelConfig()),
        "level_network": {"by": "transition", "per_entry": False},
    }
    assert not set(unread) & set(spec)
    old = tmp_path / "old" / "manifest.json"
    old.parent.mkdir()
    manifest.write_manifest({**spec, **{name: defaults[name] for name in unread}}, old)
    assert _run(["rerun", old, "--out-dir", tmp_path / "again"]) == 0
    assert (tmp_path / "again" / "manifest.json").read_bytes() == old.read_bytes()
    for name in spec["outputs"]:
        assert (tmp_path / "again" / name).read_bytes() == (tmp_path / "new" / name).read_bytes(), name


def test_frm_maxima_mode(wiggly_file, tmp_path):
    out = tmp_path / "frm"
    rc = _run(["frm", wiggly_file, "--maxima", "--sign-split", "--out-dir", out])
    assert rc == 0
    text = (out / "frm_maxima.csv").read_text()
    assert text.splitlines()[0] == "v,v_next,source"
    assert "maxima:pos" in text
    assert (out / "frm_all.csv").exists()
    summary = json.loads((out / "diagonal_summary.json").read_text())
    assert "maxima" in summary
    assert {"pairs", "above", "below", "on",
            "wing_above", "wing_below", "wing_on"} <= set(summary["maxima"])


def test_frm_pattern_mode(wiggly_file, tmp_path):
    out = tmp_path / "frm"
    rc = _run(["frm", wiggly_file, "--pattern", "1-2", "--pattern", "2-1",
               "--m", 2, "--tau", 1, "--out-dir", out])
    assert rc == 0
    assert (out / "frm_partition_1-2.csv").exists()
    assert (out / "frm_partition_2-1.csv").exists()
    lines = (out / "frm_partition_1-2.csv").read_text().splitlines()
    assert lines[1].endswith("partition:1-2")


def test_frm_level_mode(wiggly_file, tmp_path):
    out = tmp_path / "frm"
    rc = _run(["frm", wiggly_file, "--level", 1, "--by", "weighted",
               "--m", 2, "--tau", 1, "--out-dir", out])
    assert rc == 0
    assert (out / "frm_all.csv").exists()
    spec = manifest.load_manifest(out / "manifest.json")
    assert spec["frm"] == {"mode": "level", "level": 1, "by": "weighted", "sign_split": False}


def test_frm_mode_flags_are_exclusive(wiggly_file, tmp_path, capsys):
    rc = _run(["frm", wiggly_file, "--pattern", "1-2", "--maxima",
               "--out-dir", tmp_path / "x"])
    assert rc == 1
    assert "exactly one" in capsys.readouterr().err
    rc = _run(["frm", wiggly_file, "--out-dir", tmp_path / "y"])
    assert rc == 1


def test_frm_absent_pattern_fails_clean(tmp_path, capsys):
    path = tmp_path / "mono.csv"
    om.dump_series(om.TimeSeries(np.arange(30.0), dt=1.0), path)
    out = tmp_path / "frm"
    rc = _run(["frm", path, "--pattern", "2-1", "--m", 2, "--tau", 1, "--out-dir", out])
    assert rc == 1
    assert "pattern 2-1 has 0 of the 2 entry points a map needs" in capsys.readouterr().err
    assert not out.exists()
    ramps = tmp_path / "ramps.csv"  # 0..19 twice: 1-2 enters twice, 2-1 once
    om.dump_series(om.TimeSeries(np.tile(np.arange(20.0), 2), dt=1.0), ramps)
    rc = _run(["frm", ramps, "--m", 2, "--tau", 1, "--pattern", "1-2", "--pattern", "2-1", "--out-dir", out])
    assert rc == 1
    assert "pattern 2-1 has 1 of the 2 entry points a map needs" in capsys.readouterr().err
    assert not out.exists()


def test_levels_command(wiggly_file, tmp_path):
    out = tmp_path / "levels"
    rc = _run(["levels", wiggly_file, "--m", 2, "--tau", 1, "--per-entry",
               "--out-dir", out])
    assert rc == 0
    seq_lines = (out / "level_sequence.csv").read_text().splitlines()
    assert seq_lines[0] == "start_index,level"
    net_lines = (out / "level_network.csv").read_text().splitlines()
    assert net_lines[0] == "from_level,to_level,weight"
    spec = manifest.load_manifest(out / "manifest.json")
    assert spec["level_network"] == {"by": "transition", "per_entry": True}


def test_embed_command(wiggly_file, tmp_path):
    out = tmp_path / "embed"
    rc = _run(["embed", wiggly_file, "--dim", 2, "--lag", 3, "--color", "none", "--out-dir", out])
    assert rc == 0
    lines = (out / "embedded.csv").read_text().splitlines()
    assert lines[0] == "x0,x1"
    assert len(lines) == 1 + 80 - 3

    out2 = tmp_path / "embed2"
    rc = _run(["embed", wiggly_file, "--dim", 2, "--lag", 3,
               "--m", 2, "--out-dir", out2])
    assert rc == 0
    lines = (out2 / "embedded.csv").read_text().splitlines()
    assert lines[0] == "x0,x1,pattern,level,is_entry"


def test_pipeline_on_file_and_rerun_byte_identical(wiggly_file, tmp_path):
    out1 = tmp_path / "run1"
    rc = _run(["pipeline", wiggly_file, "--m", 2, "--tau", 1,
               "--dim", 2, "--lag", 3, "--out-dir", out1])
    assert rc == 0
    names = sorted(p.name for p in out1.iterdir())
    assert "series.csv" in names
    assert "frm_all.csv" in names
    assert "embedded.csv" in names
    assert "level_network.csv" in names

    out2 = tmp_path / "run2"
    rc = _run(["rerun", out1 / "manifest.json", "--out-dir", out2])
    assert rc == 0
    names2 = sorted(p.name for p in out2.iterdir())
    assert names == names2
    for name in names:
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name


def test_pipeline_system_source(tmp_path):
    out = tmp_path / "run"
    rc = _run(["pipeline", "lorenz", "--seed", 2, "--points", 4000, "--discard", 0.5,
               "--m", 3, "--tau", 2, "--out-dir", out])
    assert rc == 0
    spec = manifest.load_manifest(out / "manifest.json")
    assert spec["input"]["kind"] == "lorenz"
    assert "frm_maxima.csv" in spec["outputs"]
    assert (out / "diagonal_summary.json").exists()


def test_rerun_detects_changed_input(wiggly_file, tmp_path, capsys):
    out1 = tmp_path / "run1"
    assert _run(["analyze", wiggly_file, "--m", 2, "--tau", 1, "--out-dir", out1]) == 0
    om.dump_series(om.TimeSeries(np.zeros(50), dt=0.5), wiggly_file)
    out2 = tmp_path / "run2"
    rc = _run(["rerun", out1 / "manifest.json", "--out-dir", out2])
    assert rc == 1
    assert "does not match the manifest" in capsys.readouterr().err
    assert not out2.exists()


def _files(directory):
    return {p.name: (p.stat().st_ino, p.read_bytes()) for p in directory.iterdir()}


def test_a_rerun_in_place_writes_each_output_as_a_new_file(wiggly_file, tmp_path, capsys, monkeypatch):
    # a new file, not a truncated one: ext4 flushes a file truncated and rewritten on close
    monkeypatch.chdir(tmp_path)
    assert _run(["analyze", wiggly_file, "--m", 2, "--tau", 1]) == 0
    out = tmp_path / capsys.readouterr().out.strip()
    (out / "notes.txt").write_text("not the run's\n")
    before = _files(out)
    held = [open(out / name, "rb") for name in before]  # no inode number is reused while its file is open
    try:
        assert _run(["rerun", out / "manifest.json"]) == 0
    finally:
        for fh in held:
            fh.close()
    assert tmp_path / capsys.readouterr().out.strip() == out
    after = _files(out)
    assert after.keys() == before.keys()
    assert after["notes.txt"] == before["notes.txt"]
    for name in before.keys() - {"notes.txt"}:
        assert after[name][0] != before[name][0] and after[name][1] == before[name][1], name


def test_a_failing_rerun_in_place_leaves_no_file_it_names(wiggly_file, tmp_path, capsys, monkeypatch):
    out = tmp_path / "run"
    assert _run(["analyze", wiggly_file, "--m", 2, "--tau", 1, "--out-dir", out]) == 0
    (out / "notes.txt").write_text("not the run's\n")
    manifest_bytes = (out / "manifest.json").read_bytes()

    def full(seq, path):
        Path(path).write_text("pattern,occupancy\n")
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(cli, "write_opn_nodes_csv", full)
    assert _run(["rerun", out / "manifest.json", "--out-dir", out]) == 1
    assert capsys.readouterr().err == "error: [Errno 28] No space left on device\n"
    assert sorted(p.name for p in out.iterdir()) == ["manifest.json", "notes.txt"]
    assert (out / "manifest.json").read_bytes() == manifest_bytes  # the run failed before it named its manifest


def test_rerun_rejects_unknown_command(tmp_path, capsys):
    bad = tmp_path / "manifest.json"
    manifest.write_manifest({"command": "explode"}, bad)
    rc = _run(["rerun", bad])
    assert rc == 1
    assert "unknown command" in capsys.readouterr().err


def test_rerun_accepts_a_manifest_without_version(tmp_path):
    spec = json.loads((Path(__file__).parent / "data" / "pipeline_lorenz_manifest.json").read_text())
    del spec["version"]
    path = tmp_path / "no_version.json"
    path.write_text(json.dumps(spec))
    assert _run(["rerun", path, "--out-dir", tmp_path / "out"]) == 0
    assert "version" not in json.loads((tmp_path / "out" / "manifest.json").read_text())


def _lorenz_manifest_without_input(tmp_path):
    spec = json.loads((Path(__file__).parent / "data" / "pipeline_lorenz_manifest.json").read_text())
    del spec["input"]
    path = tmp_path / "no_input.json"
    path.write_text(json.dumps(spec))
    return path


def _lorenz_manifest_with_seed_and_state(tmp_path):
    spec = json.loads((Path(__file__).parent / "data" / "pipeline_lorenz_manifest.json").read_text())
    spec["input"]["sim"]["initial_state"] = [1.0, 1.0, 1.0]
    path = tmp_path / "seed_and_state.json"
    path.write_text(json.dumps(spec))
    return path


def _lorenz_manifest_with_version(tmp_path):
    spec = json.loads((Path(__file__).parent / "data" / "pipeline_lorenz_manifest.json").read_text())
    spec["version"] = {"x": [1]}
    path = tmp_path / "other_version.json"
    path.write_text(json.dumps(spec))
    return path


def _frm_manifest_with_pattern_twice(tmp_path):
    series = tmp_path / "series.csv"
    om.dump_series(om.TimeSeries(np.arange(50.0), dt=1.0), series)
    spec = cli._spec_from_args(cli.build_parser().parse_args(["frm", str(series), "--pattern", "1-2-3-4"]))
    spec["frm"]["patterns"] = ["1-2-3-4", "01-2-3-4"]  # two texts, one parsed pattern
    path = tmp_path / "pattern_twice.json"
    path.write_text(json.dumps(spec))
    return path


def _maxima_manifest(tmp_path, **sections):
    series = tmp_path / "series.csv"
    om.dump_series(om.TimeSeries(np.sin(0.9 * np.arange(80.0)), dt=1.0), series)
    spec = cli._spec_from_args(cli.build_parser().parse_args(["frm", str(series), "--maxima"]))
    path = tmp_path / "maxima.json"
    path.write_text(json.dumps({**spec, **sections}))
    return path


def _maxima_manifest_with_bad_window(tmp_path):
    return _maxima_manifest(tmp_path, window={**dataclasses.asdict(om.WindowConfig()), "m": "x"})


def _maxima_manifest_with_embedding(tmp_path):
    return _maxima_manifest(tmp_path, embedding={"dim": 2, "lag": 1, "color": "none"})


def _pipeline_manifest_in_maxima_mode(tmp_path):
    spec = json.loads((Path(__file__).parent / "data" / "pipeline_lorenz_manifest.json").read_text())
    del spec["frm"]["level"]
    spec["frm"]["mode"] = "maxima"
    path = tmp_path / "pipeline_maxima.json"
    path.write_text(json.dumps(spec))
    return path


def _lorenz_file_with_one_level(tmp_path):
    path = tmp_path / "lorenz.csv"
    om.dump_series(om.integrate_lorenz(cfg=om.SimulationConfig(seed=1, total_points=20000, discard_fraction=0.5)), path)
    return path


# (argv with IN for the input path, how to make IN, the text the error names)
ESCAPES = {
    "header dt=abc": (["analyze", "IN"], "# dt=abc\nx\n1\n2\n3\n", "dt 'abc' at row 1"),
    "header dt=0": (["analyze", "IN"], "# dt=0\nx\n1\n2\n3\n", "dt must be positive"),
    "manifest not JSON": (["rerun", "IN"], "{not json", "not JSON"),
    "manifest without input": (["rerun", "IN"], _lorenz_manifest_without_input, "input"),
    "manifest nested too deep": (["rerun", "IN"], "[" * 100000, "not JSON"),
    "pattern not parsable": (["frm", "IN", "--pattern", "1-2-x-4"], None, "--pattern"),
    "pattern not a permutation": (["frm", "IN", "--pattern", "1-2-3-5"], None, "--pattern"),
    "pattern length not m": (["frm", "IN", "--pattern", "1-2", "--m", "4"], None, "--pattern 1-2 has 2 entries but m is 4"),
    "gap fraction above 1": (["analyze", "IN", "--gap-fraction", "1.5"], None, "gap_fraction"),
    "max levels 0": (["levels", "IN", "--max-levels", "0"], None, "max_levels"),
    "dt 0": (["analyze", "IN", "--dt", "0"], None, "dt must be positive"),
    "frm level 0": (["frm", "IN", "--level", "0"], None, "--level/--frm-level must lie in 1..3"),
    "frm level without a map": (
        ["frm", "IN", "--level", "2", "--gap-fraction", "0.9"], _lorenz_file_with_one_level, "level 2 (by transition)"
    ),
    "pipeline frm level 7": (["pipeline", "IN", "--frm-level", "7"], None, "--level/--frm-level must lie in 1..3"),
    "generate dt inf": (["generate", "lorenz", "--seed", "1", "--dt", "inf"], None, "dt must be positive and finite, got inf"),
    # usage errors end as every other bad input does
    "usage m not an int": (["analyze", "IN", "--m", "abc"], None, "argument --m: invalid int value: 'abc'"),
    "usage seed not an int": (["generate", "lorenz", "--seed", "x"], None, "argument --seed: invalid int value: 'x'"),
    "usage ranking not a choice": (["analyze", "IN", "--ranking", "foo"], None, "argument --ranking: invalid choice: 'foo'"),
    "usage color not a choice": (
        ["embed", "IN", "--dim", "2", "--lag", "2", "--color", "red"], None, "argument --color: invalid choice: 'red'"
    ),
    "usage embed without dim and lag": (["embed", "IN"], None, "the following arguments are required: --dim, --lag"),
    "usage analyze without input": (["analyze"], None, "the following arguments are required: input"),
    "usage unknown command": (["bogus"], None, "argument command: invalid choice: 'bogus'"),
    "usage unknown flag": (["analyze", "IN", "--zzz", "1"], None, "unrecognized arguments: --zzz 1"),
    # a seed that the start ignores would give two run specs one trajectory
    "seed with initial state": (
        ["generate", "lorenz", "--points", "2000", "--initial-state", "1,1,1", "--seed", "1"], None,
        "--seed would change nothing: lorenz starts from --initial-state",
    ),
    "pipeline seed with initial state": (
        ["pipeline", "rossler", "--seed", "2", "--initial-state", "1,1,1"], None, "rossler starts from --initial-state"
    ),
    "seed on mackey-glass": (["generate", "mackey-glass", "--seed", "1"], None, "mackey-glass starts from its constant history"),
    "manifest seed with initial state": (["rerun", "IN"], _lorenz_manifest_with_seed_and_state, "lorenz starts from"),
    # two equal maps would share one file name, and a manifest holds only this tool's version
    "pattern given twice": (
        ["frm", "IN", "--pattern", "4-3-2-1", "--pattern", "4-3-2-1"], None, "--pattern 4-3-2-1 is given twice"
    ),
    "manifest pattern given twice": (["rerun", "IN"], _frm_manifest_with_pattern_twice, "1-2-3-4 is given twice"),
    "manifest of another version": (["rerun", "IN"], _lorenz_manifest_with_version, "version must be 0.1.0, got {'x': [1]}"),
    # a series file is read as it is, so a flag that sets up a simulation would go unread
    "pipeline file with simulation flags": (
        ["pipeline", "IN", "--seed", "5", "--points", "7", "--discard", "0.3", "--initial-state", "1,2"], None,
        "--points, --discard, --initial-state, --seed would change nothing: the run has no simulation",
    ),
    "pipeline file with points": (["pipeline", "IN", "--points", "7"], None, "--points would change nothing"),
    # a maxima map reads the samples only, so a window, sub-series or level flag would go unread
    "frm maxima with window flags": (
        ["frm", "IN", "--maxima", "--m", "7", "--tau", "1", "--sub-m", "4", "--gap-fraction", "0.5", "--by", "weighted"],
        None,
        "--m, --tau, --sub-m, --gap-fraction, --by would change nothing: the run has no window or subseries or levels",
    ),
    "frm maxima with the default by": (["frm", "IN", "--maxima", "--by", "transition"], None, "--by would change nothing"),
    # a pattern's map reads the window, but no sub-series or level setting
    "frm pattern with sub-series and level flags": (
        ["frm", "IN", "--pattern", "1-2-3-4", "--m", "4", "--sub-m", "4", "--sub-tau", "2", "--sub-w", "2",
         "--gap-fraction", "0.5", "--max-levels", "5", "--by", "weighted"],
        None, "--sub-m, --sub-tau, --sub-w, --gap-fraction, --max-levels, --by would change nothing: "
        "the run has no subseries or levels",
    ),
    # its map splits maxima by sign, and only --maxima draws one
    "frm pattern with sign split": (
        ["frm", "IN", "--pattern", "4-3-2-1", "--sign-split"], None,
        "--sign-split would change nothing: the run has no maxima map",
    ),
    "frm level with sign split": (
        ["frm", "IN", "--level", "1", "--sign-split"], None, "--sign-split would change nothing: the run has no maxima map"
    ),
    # an uncoloured embedding reads no window, and so derives none from --lag
    "embed color none with window and level flags": (
        ["embed", "IN", "--dim", "3", "--lag", "2", "--color", "none", "--m", "5", "--by", "weighted"], None,
        "--m, --by would change nothing: the run has no window or levels",
    ),
    # a simulation reads no series file
    "pipeline system with format": (
        ["pipeline", "lorenz", "--seed", "1", "--points", "3000", "--format", "whitespace"], None,
        "--format would change nothing: the run has no series file",
    ),
    # two modes are refused as such, before any flag that one of them would not read
    "frm pattern and level": (
        ["frm", "IN", "--pattern", "1-2-3-4", "--level", "1", "--by", "weighted"], None,
        "choose exactly one of --pattern, --level, --maxima",
    ),
    "frm maxima and level": (
        ["frm", "IN", "--maxima", "--level", "1", "--m", "4"], None, "choose exactly one of --pattern, --level, --maxima"
    ),
    # a manifest may hold a section its run does not read, but only a well-formed one
    "manifest maxima with a malformed window": (["rerun", "IN"], _maxima_manifest_with_bad_window, "window.m cannot be 'x'"),
    "manifest maxima with an embedding": (
        ["rerun", "IN"], _maxima_manifest_with_embedding,
        "needs the keys command, input, frm and may hold levels, series_sha256, subseries, version, window",
    ),
    # pipeline maps the partitions of a level or of its patterns, and its maxima map has no mode of its own
    "manifest pipeline in maxima mode": (["rerun", "IN"], _pipeline_manifest_in_maxima_mode, "frm.mode cannot be 'maxima'"),
    "kept points below 2": (
        ["generate", "lorenz", "--points", "1000000", "--discard", "0.9999999"], None,
        "only 0 points kept after discarding; need at least 2",
    ),
}


@pytest.mark.parametrize("case", sorted(ESCAPES))
def test_bad_input_fails_with_one_error_line(case, tmp_path, capsys):
    argv, make, named = ESCAPES[case]
    path = tmp_path / "missing.csv"  # flag cases: checked before the file is opened
    if isinstance(make, str):
        path = tmp_path / "input.txt"
        path.write_text(make)
    elif make is not None:
        path = make(tmp_path)
    out = tmp_path / "out"
    rc = _run([path if a == "IN" else a for a in argv] + ["--out-dir", out])
    err = capsys.readouterr().err
    assert rc == 1
    assert len(err.splitlines()) == 1 and err.startswith("error: "), err
    assert named in err
    if make is None:
        assert "missing.csv" not in err
    assert not out.exists()


@pytest.mark.parametrize("flags", [["--sub-tau", 10**8], ["--sub-tau", 10**19], ["--sub-w", 10**20]])
def test_sub_window_wider_than_every_subseries_leaves_every_row_degenerate(flags, tmp_path):
    path = tmp_path / "noise.csv"
    om.dump_series(om.TimeSeries(np.random.default_rng(7).standard_normal(2000), dt=1.0), path)
    out = tmp_path / "out"
    assert _run(["analyze", path, *flags, "--out-dir", out]) == 0
    header, *rows = [line.split(",") for line in (out / "partitions.csv").read_text().splitlines()]
    assert len(rows) == 24 and all(row[header.index("degenerate")] == "1" for row in rows)
    assert {row[header.index("h")] for row in rows} == {"0"}


@pytest.mark.parametrize("argv", [["--version"], ["analyze", "--help"]])
def test_help_and_version_still_exit_0(argv, capsys):
    with pytest.raises(SystemExit) as info:
        _run(argv)
    assert info.value.code == 0
    assert capsys.readouterr().out


def test_dt_help_names_both_meanings_only_for_pipeline(capsys):
    for argv in (["pipeline", "--help"], ["generate", "lorenz", "--help"]):
        with pytest.raises(SystemExit):
            _run(argv)
    pipeline, generate = capsys.readouterr().out.split("usage: ")[1:]
    assert "sample interval of a series file" in " ".join(pipeline.split())
    assert "integration step (default 0.01)" in generate and "series file" not in generate


# numpy names the size it failed to allocate; an interpreter MemoryError is bare
@pytest.mark.parametrize("discard, message", [("0", "Unable to allocate 7.11 PiB"), ("0.9", "")])
def test_tail_too_large_for_memory_fails_before_any_step(discard, message, tmp_path, capsys, monkeypatch):
    # the allocator is patched to refuse the tail, so nothing is really allocated
    real_empty, real_lorenz, steps = np.empty, sources._lorenz, []

    def empty(shape, *args, **kwargs):
        if np.prod(shape, dtype=object) > 10**8:
            raise MemoryError(message)
        return real_empty(shape, *args, **kwargs)

    def lorenz(*args):
        for x in real_lorenz(*args):
            steps.append(x)
            assert len(steps) < 10, "integrated before allocating the tail"
            yield x

    monkeypatch.setattr(np, "empty", empty)
    monkeypatch.setattr(sources, "_lorenz", lorenz)
    out = tmp_path / "out"
    rc = _run(["generate", "lorenz", "--seed", 1, "--points", 10**15, "--discard", discard, "--out-dir", out])
    assert rc == 1 and steps == []
    assert capsys.readouterr().err == f"error: {message or 'MemoryError'}\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "cls",
    [*cli._PARAMS.values(), om.SimulationConfig, om.WindowConfig, om.SubSeriesConfig, om.LevelConfig, om.EmbeddingConfig],
    ids=lambda cls: cls.__name__,
)
def test_every_spec_field_type_has_a_json_check(cls):
    hints = typing.get_type_hints(cls)
    missing = [f.name for f in dataclasses.fields(cls) if hints[f.name] not in cli._IS]
    assert not missing, f"add a check to cli._IS for {cls.__name__} fields {missing}"
