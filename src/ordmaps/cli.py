"""Command-line pipeline over the library.

Subcommands:

    generate   integrate a benchmark system and write the series
    analyze    symbolize a series and report on every ordinal partition
    frm        first return maps for chosen partitions, levels or maxima
    levels     level sequence and level transition network
    embed      time-delay embedding with optional partition coloring
    pipeline   generate/load, then analyze + frm + levels + embed in one run
    rerun      replay any previous run from its manifest

Every run writes its run spec, the tool version and a content hash of the
input series to ``manifest.json``; identical specs produce byte-identical
outputs. A spec holds the sections its run reads, which ``_reads`` gives from
the command, the frm mode and the colour; a flag that only an unread part
would read is refused. Each library section is built by the library's own
dataclass from only the flags given, so the defaults are those held by the
dataclasses and the ``*_EMBEDDING`` constants. One check builds every config
object from the spec, for flags and ``rerun`` manifests alike, before any
series is loaded or integrated. When ``--out-dir`` is omitted, outputs land
in ``runs/<manifest digest prefix>/``. Any bad input ends with one
``error: ...`` line, exit code 1 and no files left behind.

A command is a tuple of stages, each writing one group of files; pipeline runs
those of generate, analyze, levels and embed, plus its own map stage. A run
computes each part of its analysis when a stage first reads it, and only then.
A command of more than one stage computes what both processes read (the
windows' grouping, and a level network's window levels) and then forks: a
child runs the last stage, reporting its files and its outcome through a pipe,
while the parent runs the others; where ``os.fork`` is missing the stages run
in turn. A run takes its series, and the text of its samples if it writes
series.csv, from an input cache entry, or loads or integrates them once and
stores them. Each file is written new, never truncated in place.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import sys
from contextlib import suppress
from dataclasses import asdict, dataclass, field, fields
from functools import cached_property
from pathlib import Path
from typing import get_type_hints

import numpy as np

from .embedding import (
    LORENZ_EMBEDDING,
    MACKEY_GLASS_EMBEDDING,
    ROSSLER_EMBEDDING,
    EmbeddingConfig,
    delay_embed,
    window_from_embedding,
)
from .encoding import (
    RANKINGS,
    OrdinalPattern,
    WindowConfig,
    symbolize,
)
from .errors import ConfigError, EmptyMapError, OrdmapsError
from .exports import (
    diagonal_summary,
    write_embedding_csv,
    write_entropy_curve_csv,
    write_frm_combined_csv,
    write_frm_csv,
    write_level_network_csv,
    write_level_sequence_csv,
    write_opn_edges_csv,
    write_opn_nodes_csv,
    write_partitions_csv,
    write_series_csv,
    write_symbols_csv,
)
from .levels import build_level_network, entry_level_sequence, level_sequence
from .manifest import TOOL_VERSION, canonical_json, load_manifest, manifest_digest, write_manifest
from .network import build_opn
from .ranking import (
    LevelConfig,
    SubSeriesConfig,
    partition_table,
)
from .returnmaps import frm_from_entries, maxima_frm
from .series import FORMATS, SampleText, TimeSeries, check_dt, load_series, render_samples, series_sha256
from .sources import (
    LorenzParams,
    MackeyGlassParams,
    RosslerParams,
    SimulationConfig,
    integrate_lorenz,
    integrate_mackey_glass,
    integrate_rossler,
)

SYSTEMS = ("lorenz", "rossler", "mackey-glass")
_PARAMS = dict(zip(SYSTEMS, (LorenzParams, RosslerParams, MackeyGlassParams)))
# a series file takes the Lorenz embedding unless --dim/--lag say otherwise
_EMBEDDINGS = dict(zip(SYSTEMS, (LORENZ_EMBEDDING, ROSSLER_EMBEDDING, MACKEY_GLASS_EMBEDDING)))
_LEVEL_ATTR = {"weighted": "weighted_level", "transition": "transition_level"}
_COLORS = ("pattern", "level", "none")
# each analysis section of a run spec: the dataclass that builds it, and the prefix of its flags' dests
_ANALYSIS = {"window": (WindowConfig, ""), "subseries": (SubSeriesConfig, "sub_"), "levels": (LevelConfig, "")}
_FLAGS = {"total_points": "--points", "discard_fraction": "--discard"}  # dest -> flag, where not named after it


class _RunWriter:
    """Tracks files written for one run so failures leave nothing behind."""

    def __init__(self, out_dir: Path):
        self.out_dir = out_dir
        self._created: list[Path] = []  # the directories this run makes, deepest first
        for directory in (out_dir, *out_dir.parents):
            if directory.exists():
                break
            self._created.append(directory)
        out_dir.mkdir(parents=True, exist_ok=True)
        self.written: list[Path] = []

    def emit(self, name: str, fn) -> None:
        path = self.out_dir / name
        self.written.append(path)  # before writing, so a half-written file goes too
        path.unlink(missing_ok=True)  # a new file: ext4 flushes a truncated one on close
        fn(path)

    def cleanup(self) -> None:
        for path in self.written:
            path.unlink(missing_ok=True)
        for directory in self._created:
            try:
                directory.rmdir()
            except OSError:
                break  # not empty, and so neither is any parent


# ------------------------------------------------------------ run spec


def _given(args, cls, prefix: str = "") -> dict:
    """The fields of cls set by a flag; library-backed flags default to None."""
    values = {f.name: getattr(args, prefix + f.name, None) for f in fields(cls)}
    return {name: value for name, value in values.items() if value is not None}


def _reads(command: str, mode, color) -> tuple:
    """The spec sections a run reads besides command, version and input: a maxima map reads the samples only,
    a pattern's map its window too, and an uncoloured embedding no window."""
    if command == "frm" and mode in ("maxima", "pattern"):
        return ("frm",) if mode == "maxima" else ("window", "frm")
    if command == "embed" and color == "none":
        return ("embedding",)
    return _COMMANDS[command][0]


def _spec_from_args(args) -> dict:
    """The run spec of a command line: the sections the run reads, each library section built by its dataclass."""
    command, pattern, maxima = args.command, getattr(args, "pattern", None), getattr(args, "maxima", False)
    if command == "frm" and (pattern is not None) + (args.frm_level is not None) + maxima != 1:
        raise ConfigError("choose exactly one of --pattern, --level, --maxima")
    mode = "maxima" if maxima else "level" if pattern is None else "pattern"
    reads = _reads(command, mode, getattr(args, "color", None))
    system = args.input if command in ("generate", "pipeline") and args.input in SYSTEMS else None
    lacks = {  # each part of a run that this one lacks -> the dests of the flags that only that part reads
        "simulation": [] if system else [f.name for f in fields(SimulationConfig) if f.name != "dt"],
        "series file": ["format"] if system else [],
        **{name: [p + f.name for f in fields(cls)] for name, (cls, p) in _ANALYSIS.items() if name not in reads},
        "maxima map": ["sign_split"] if command == "frm" and mode != "maxima" else [],
    }
    if "levels" in lacks:
        lacks["levels"].append("by")  # the entropy that the levels follow
    given = {part: [d for d in dests if getattr(args, d, None) is not None] for part, dests in lacks.items()}
    if flags := [_FLAGS.get(d, "--" + d.replace("_", "-")) for dests in given.values() for d in dests]:
        parts = " or ".join(part for part, dests in given.items() if dests)
        raise ConfigError(f"{', '.join(flags)} would change nothing: the run has no {parts}")
    spec = {"command": command, "version": TOOL_VERSION}
    if system:
        sim = _given(args, SimulationConfig)
        if "initial_state" in sim:
            try:
                sim["initial_state"] = [float(part) for part in sim["initial_state"].split(",")]
            except ValueError:
                raise ConfigError(f"cannot parse initial state {sim['initial_state']!r}") from None
        params = _PARAMS[system](**_given(args, _PARAMS[system]))
        spec["input"] = {"kind": system, "params": asdict(params), "sim": asdict(SimulationConfig(**sim))}
    else:
        path = str(Path(args.input).resolve())
        spec["input"] = {"kind": "file", "path": path, "format": args.format or "csv", "dt": args.dt}
    by = getattr(args, "by", None) or "transition"  # None tells a given --by from its default
    if "embedding" in reads:
        default = asdict(_EMBEDDINGS.get(system, LORENZ_EMBEDDING))
        embedding = EmbeddingConfig(**{**default, **_given(args, EmbeddingConfig)})
        spec["embedding"] = {**asdict(embedding), "color": args.color}
    for name, (cls, prefix) in _ANALYSIS.items():
        if name in reads:
            section = _given(args, cls, prefix)
            if name == "window" and "tau" not in section and getattr(args, "lag", None) is not None:
                m = cls(**section).m  # checks m before the divisor search uses it
                section["tau"] = window_from_embedding(embedding, m).tau
            spec[name] = asdict(cls(**section))
    if "frm" in reads:
        picked = {"maxima": {}, "pattern": {"patterns": pattern}, "level": {"level": args.frm_level}}[mode]
        spec["frm"] = {"mode": mode, **picked, "by": by, "sign_split": bool(args.sign_split)}
    if "level_network" in reads:
        spec["level_network"] = {"by": by, "per_entry": getattr(args, "per_entry", False)}
    return spec


# JSON type checks keyed by Python type: a spec dataclass field finds its check by
# its resolved annotation, however spelled; list[str] is a non-empty pattern list
_IS = {
    int: lambda v: type(v) is int,
    float: lambda v: type(v) in (int, float),
    str: lambda v: type(v) is str,
    bool: lambda v: type(v) is bool,
    dict: lambda v: type(v) is dict,
    int | None: lambda v: v is None or type(v) is int,
    float | None: lambda v: v is None or type(v) in (int, float),
    tuple[float, ...] | None: lambda v: v is None or (
        type(v) is list and all(type(x) in (int, float) for x in v)
    ),
    list[str]: lambda v: type(v) is list and len(v) > 0 and all(type(x) is str for x in v),
}
_FRM_MODE_KEYS = {"pattern": {"patterns": _IS[list[str]]}, "level": {"level": _IS[int]}, "maxima": {}}


def _one_of(*choices):
    return lambda v: type(v) is str and v in choices


def _section(values, name: str, cls=None, **checks):
    """A spec section holding exactly cls's fields and the checks' keys, each
    of its declared type; returns cls built from the fields, else the dict."""
    if cls is not None:
        hints = get_type_hints(cls)
        checks = {**{f.name: _IS[hints[f.name]] for f in fields(cls)}, **checks}
    if type(values) is not dict or set(values) != set(checks):
        raise ConfigError(f"{name} must hold exactly the keys {', '.join(sorted(checks))}")
    for key, check in checks.items():
        if not check(values[key]):
            raise ConfigError(f"{name}.{key} cannot be {values[key]!r}")
    return values if cls is None else cls(**{f.name: values[f.name] for f in fields(cls)})


@dataclass
class _Run:
    """A checked run spec with its config objects, its series and its analysis, computed on first read."""

    spec: dict
    params: object = None
    sim: SimulationConfig | None = None
    window: WindowConfig | None = None
    subseries: SubSeriesConfig | None = None
    levels: LevelConfig | None = None
    frm: dict | None = None
    patterns: list = field(default_factory=list)  # the frm section's patterns, as displayed
    level_network: dict | None = None
    embedding: EmbeddingConfig | None = None
    series: TimeSeries | None = None
    # the one SampleText of a run that writes series.csv, from the input cache
    text: SampleText | None = None

    @cached_property
    def seq(self):
        return symbolize(self.series, self.window)

    @cached_property
    def table(self):
        return partition_table(self.series, self.seq, self.subseries, self.levels)

    @cached_property
    def window_levels(self):
        """The level of every window, by the entropy the level network follows."""
        return level_sequence(self.seq, self.table, _LEVEL_ATTR[self.level_network["by"]])


def _check(spec: dict) -> _Run:
    """Every config object of a run spec, built before any input is read."""
    command = spec.get("command")
    if type(command) is not str or command not in _COMMANDS:
        raise ConfigError(f"manifest names unknown command {command!r}")
    mode = spec["frm"].get("mode") if type(spec.get("frm")) is dict else None
    color = spec["embedding"].get("color") if type(spec.get("embedding")) is dict else None
    required = ("command", "input", *_reads(command, mode, color))
    # besides, the command's sections that the run does not read, which manifests held before they were left out
    others = sorted({*_COMMANDS[command][0], "version", "series_sha256"} - set(required))
    if not set(required) <= set(spec) <= {*required, *others}:
        raise ConfigError(f"a {command} run spec needs the keys {', '.join(required)} and may hold {', '.join(others)}")
    if type(spec.get("series_sha256", "")) is not str:
        raise ConfigError("series_sha256 must be a string")
    if spec.get("version", TOOL_VERSION) != TOOL_VERSION:
        raise ConfigError(f"version must be {TOOL_VERSION}, got {spec['version']!r}")
    run = _Run(spec)
    inp = spec["input"]
    kind = inp.get("kind") if type(inp) is dict else None
    if kind == "file":
        _section(inp, "input", kind=_IS[str], path=_IS[str], format=_one_of(*FORMATS), dt=_IS[float | None])
        if inp["dt"] is not None:
            check_dt(inp["dt"])
    elif type(kind) is str and kind in SYSTEMS:
        _section(inp, "input", kind=_IS[str], params=_IS[dict], sim=_IS[dict])
        run.params = _section(inp["params"], "input.params", _PARAMS[kind])
        run.sim = _section(inp["sim"], "input.sim", SimulationConfig)
        if run.sim.seed is not None and (kind == "mackey-glass" or run.sim.initial_state is not None):
            start = "its constant history" if run.sim.initial_state is None else "--initial-state"
            raise ConfigError(f"--seed would change nothing: {kind} starts from {start}")
    else:
        raise ConfigError(f"unknown input kind {kind!r}")
    for name, (cls, _) in _ANALYSIS.items():
        if name in spec:
            setattr(run, name, _section(spec[name], name, cls))
    by = _one_of(*_LEVEL_ATTR)
    if "frm" in spec:
        mode_keys = _FRM_MODE_KEYS.get(mode, {}) if type(mode) is str else {}
        modes = _one_of(*(_FRM_MODE_KEYS if command == "frm" else ("level", "pattern")))  # pipeline adds its maxima map
        run.frm = _section(spec["frm"], "frm", mode=modes, by=by, sign_split=_IS[bool], **mode_keys)
        if mode == "level" and not 1 <= run.frm["level"] <= run.levels.max_levels:
            top = run.levels.max_levels
            raise ConfigError(f"--level/--frm-level must lie in 1..{top} (--max-levels), got {run.frm['level']}")
        for text in run.frm.get("patterns", ()):  # each as displayed under the run's ranking
            try:
                shown = OrdinalPattern.from_dashed(text)
            except ValueError as exc:
                raise ConfigError(f"--pattern: {exc}") from None
            if shown.m != run.window.m:
                raise ConfigError(f"--pattern {text} has {shown.m} entries but m is {run.window.m}")
            if shown in run.patterns:  # its map would be written twice under one name
                raise ConfigError(f"--pattern {shown.dashed()} is given twice")
            run.patterns.append(shown)
    if "level_network" in spec:
        run.level_network = _section(spec["level_network"], "level_network", by=by, per_entry=_IS[bool])
    if "embedding" in spec:
        run.embedding = _section(spec["embedding"], "embedding", EmbeddingConfig, color=_one_of(*_COLORS))
    return run


# ---------------------------------------------------------------- input


def _realize_input(run):
    """Take the series named by the spec's input from the input cache, pin its hash and record a file's dt."""
    spec = run.spec
    series, digest, run.text = _trajectory(run)
    if spec["input"]["kind"] == "file":
        spec["input"]["dt"] = series.dt
    previous = spec.get("series_sha256")
    if previous is not None and previous != digest:
        raise ConfigError(
            "input series does not match the manifest "
            f"(expected {previous[:12]}..., got {digest[:12]}...)"
        )
    spec["series_sha256"] = digest
    run.series = series


def _input_key(inp) -> bytes:
    """What an input's series depends on: the input but a file's path, the versions, the code that makes it,
    and a file's bytes, so the same bytes elsewhere are the same series."""
    about = {"input": {k: v for k, v in inp.items() if k != "path"}, "numpy": np.__version__, "python": sys.version}
    key = hashlib.sha256(canonical_json({**about, "tool": TOOL_VERSION}).encode())
    for name in ("sources.py", "series.py"):
        key.update(Path(__file__).with_name(name).read_bytes())
    if inp["kind"] == "file":
        with open(inp["path"], "rb") as fh:
            while block := fh.read(1 << 20):
                key.update(block)
    return key.digest()[:16]


def _trajectory(run):
    """The input's series, its series_sha256 and, for a run that writes series.csv, its SampleText: read from the
    input kind's one cache entry if that passes every check, else loaded or integrated and stored there. Only a
    run that writes series.csv renders and stores the text, and a run that needs a missing text is a miss. An
    unusable cache costs only that work."""
    inp, sim, key = run.spec["input"], run.sim, None
    text = _series_file in _COMMANDS[run.spec["command"]][1]
    with suppress(OSError, RuntimeError, ValueError):  # ValueError: a damaged header, sample or text
        root = os.environ.get("XDG_CACHE_HOME", "")
        path = (Path(root) if os.path.isabs(root) else Path.home() / ".cache") / "ordmaps" / f"{inp['kind']}.f8"
        key = _input_key(inp)  # before a file's own dt is recorded
        # a 96-byte header (16-byte key, sample count, dt, series_sha256, the text's SHA-256), the samples, the text
        with open(path, "rb") as fh:
            head = fh.read(96)
            count = int.from_bytes(head[16:24], "little")
            if head[:16] == key and os.fstat(fh.fileno()).st_size >= 96 + 8 * count:
                fh.readinto(samples := np.empty(count, "<f8"))
                dt = np.frombuffer(head, "<f8", 1, 24).item()
                series = TimeSeries(samples, dt, origin_time=0.0 if sim is None else (sim.total_points - count) * dt)
                if (digest := series_sha256(series)) == head[32:64].hex():
                    if not text:
                        return series, digest, None
                    if hashlib.sha256(data := fh.read()).digest() == head[64:]:
                        return series, digest, SampleText(series.samples, data)
    if inp["kind"] == "file":
        series = load_series(inp["path"], inp["format"], inp["dt"])
    else:  # built per call, so a name rebound on this module is the one called
        integrate = {"lorenz": integrate_lorenz, "rossler": integrate_rossler, "mackey-glass": integrate_mackey_glass}
        series = integrate[inp["kind"]](run.params, sim)
    digest, data = series_sha256(series), render_samples(series.samples) if text else b""
    if key is not None:
        temp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
        with suppress(OSError):
            try:
                path.parent.mkdir(parents=True, exist_ok=True)
                with open(temp, "wb") as fh:
                    samples = np.ascontiguousarray(series.samples, "<f8")
                    meta = len(samples).to_bytes(8, "little"), np.array([series.dt], "<f8")
                    fh.writelines((key, *meta, bytes.fromhex(digest), hashlib.sha256(data).digest(), samples, data))
                if _input_key(inp) == key:  # a file rewritten while it was loaded is not stored
                    os.replace(temp, path)
            finally:
                temp.unlink(missing_ok=True)
    return series, digest, SampleText(series.samples, data) if text else None


# --------------------------------------------------------------- stages


def _series_file(run, writer):
    writer.emit("series.csv", lambda p: write_series_csv(run.series, p, text=run.text))


def _partition_files(run, writer):
    table = run.table
    writer.emit("partitions.csv", lambda p: write_partitions_csv(table, p))
    writer.emit("entropy_curve.csv", lambda p: write_entropy_curve_csv(table, p))


def _sequence_files(run, writer):
    seq = run.seq
    tc = build_opn(seq)
    writer.emit("symbols.csv", lambda p: write_symbols_csv(seq, p))
    writer.emit("opn_edges.csv", lambda p: write_opn_edges_csv(tc, p))
    writer.emit("opn_nodes.csv", lambda p: write_opn_nodes_csv(seq, p))


def _partition_maps(run):
    """The maps of the frm section's patterns, or of every partition at its level."""
    seq, maps = run.seq, []
    if run.frm["mode"] == "pattern":
        for text in (shown.dashed() for shown in run.patterns):
            # the windows entering the one row shown as text, none if no row is: no pattern is decoded
            entries = np.flatnonzero((seq.shown == text)[seq.inverse] & seq.entries) * run.window.w
            if (count := len(entries)) < 2:
                raise EmptyMapError(f"pattern {text} has {count} of the 2 entry points a map needs", count=count)
            maps.append(frm_from_entries(run.series, entries, source=f"partition:{text}"))
        return maps
    table = run.table
    # fewer than 2 entries cannot form a pair; such a partition is recorded by absence
    picked = np.flatnonzero((getattr(table, _LEVEL_ATTR[run.frm["by"]]) == run.frm["level"]) & (table.entries >= 2))
    for i, entries in zip(picked.tolist(), table.entry_indices(picked)):
        maps.append(frm_from_entries(run.series, entries, source=f"partition:{seq.shown[i]}"))
    return maps


def _write_maps(run, writer, maps):
    for rm in maps:
        name = "frm_" + rm.source.replace(":", "_") + ".csv"
        writer.emit(name, lambda p, rm=rm: write_frm_csv(rm, p, text=run.text))
    writer.emit("frm_all.csv", lambda p: write_frm_combined_csv(maps, p, text=run.text))
    summary = diagonal_summary(maps)
    writer.emit("diagonal_summary.json", lambda p: p.write_text(canonical_json(summary), encoding="utf-8"))


def _frm_files(run, writer):
    """The maps of the frm command, which fails when its mode gives none."""
    if run.frm["mode"] == "maxima":
        maps = [maxima_frm(run.series, sign_split=run.frm["sign_split"])]
    elif not (maps := _partition_maps(run)):  # a pattern without a map raises on its own
        level, by = run.frm["level"], run.frm["by"]
        raise EmptyMapError(f"no partition at level {level} (by {by}) has the 2 entry points a map needs", count=0)
    _write_maps(run, writer, maps)


def _pipeline_maps(run, writer):
    """The partition maps of pipeline, plus the maxima map when the series has one."""
    maps = _partition_maps(run)
    try:
        maps.append(maxima_frm(run.series, sign_split=run.frm["sign_split"]))
    except OrdmapsError:
        pass  # too few maxima is not fatal for the partition pipeline
    _write_maps(run, writer, maps)


def _level_files(run, writer):
    seq, table, full = run.seq, run.table, run.window_levels
    by_attr = _LEVEL_ATTR[run.level_network["by"]]
    used = entry_level_sequence(seq, table, by_attr) if run.level_network["per_entry"] else full
    net = build_level_network(used)
    writer.emit("level_sequence.csv", lambda p: write_level_sequence_csv(seq, full, p))
    writer.emit("level_network.csv", lambda p: write_level_network_csv(net, p))


def _embedding_file(run, writer):
    colour = () if run.spec["embedding"]["color"] == "none" else (run.seq, run.window_levels)
    points = delay_embed(run.series, run.embedding)
    writer.emit("embedded.csv", lambda p: write_embedding_csv(points, p, *colour, text=run.text))


# per command: the run spec sections it can hold besides command, version and input
# (_reads says which it reads), and the stages that write its files, in order
_COMMANDS = {
    "generate": ((), (_series_file,)),
    "analyze": ((*_ANALYSIS,), (_partition_files, _sequence_files)),
    "frm": ((*_ANALYSIS, "frm"), (_frm_files,)),
    "levels": ((*_ANALYSIS, "level_network"), (_level_files,)),
    "embed": ((*_ANALYSIS, "level_network", "embedding"), (_embedding_file,)),
    "pipeline": (
        (*_ANALYSIS, "frm", "level_network", "embedding"),
        (_series_file, _partition_files, _sequence_files, _pipeline_maps, _level_files, _embedding_file),
    ),
}


class _Forked:
    """One stage of a run in a forked child, which prints nothing: through a pipe it names each file before it
    opens it, then tells how the stage ended. The parent adds the files to its writer and raises what it raised."""

    def __init__(self, stage, run, writer: _RunWriter):
        self.writer = writer
        read, write = os.pipe()
        self.pid = os.fork()
        if self.pid:
            os.close(write)
            self.pipe = open(read, "rb")
            return
        status = 1
        try:
            os.close(read)
            with open(write, "wb") as pipe:
                emit = writer.emit

                def announced(name, fn):
                    pipe.write(b"F" + name.encode() + b"\n")
                    pipe.flush()
                    emit(name, fn)

                writer.emit = announced
                try:
                    stage(run, writer)
                    report, status = b"0", 0
                except (OrdmapsError, OSError, MemoryError) as exc:
                    report = b"E" + _message(exc).encode(errors="surrogateescape")
                except BaseException:
                    import traceback

                    report = b"X" + traceback.format_exc().encode(errors="surrogateescape")
                pipe.write(report)
        finally:
            os._exit(status)

    def join(self, kill: bool = False) -> None:
        """Wait for the child, or kill it first, unless done before; add the files it named to the writer;
        raise what its stage raised."""
        if self.pid is None:
            return
        if kill:
            import signal

            os.kill(self.pid, signal.SIGKILL)
        data = self.pipe.read()  # until the child has ended
        self.pipe.close()
        _, status = os.waitpid(self.pid, 0)
        self.pid = None
        while data[:1] == b"F":
            name, _, data = data[1:].partition(b"\n")
            self.writer.written.append(self.writer.out_dir / name.decode())
        if kill or data == b"0":
            return
        if data[:1] == b"E":
            raise OrdmapsError(data[1:].decode(errors="surrogateescape"))
        detail = data[1:].decode(errors="surrogateescape") or f"exit status {os.waitstatus_to_exitcode(status)}\n"
        raise RuntimeError("a stage run in a child process failed:\n" + detail)


def _execute(spec: dict, out_dir_arg) -> int:
    run = _check(spec)
    _realize_input(run)
    out_dir = Path(out_dir_arg) if out_dir_arg else Path("runs") / manifest_digest(spec)[:12]
    writer = _RunWriter(out_dir)
    stages, child = _COMMANDS[spec["command"]][1], None
    try:
        if len(stages) > 1 and hasattr(os, "fork"):
            # what both processes read is computed once, before the fork
            run.seq.inverse, run.seq.shown, run.seq.entries
            if run.level_network is not None:
                run.window_levels
            *stages, last = stages
            child = _Forked(last, run, writer)
        for stage in stages:
            stage(run, writer)
        if child is not None:
            child.join()
        spec["outputs"] = sorted(p.name for p in writer.written)
        writer.emit("manifest.json", lambda p: write_manifest(spec, p))
    except BaseException:
        if child is not None:
            child.join(kill=True)
        writer.cleanup()
        raise
    print(out_dir)
    return 0


# -------------------------------------------------------------- parser


class _Parser(argparse.ArgumentParser):
    """Usage errors raise ConfigError, in every subparser too, so they end as any bad input does."""

    def error(self, message):
        raise ConfigError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="ordmaps", description="First return maps from ordinal partitions of scalar series.")
    parser.add_argument("--version", action="version", version=f"%(prog)s {TOOL_VERSION}")
    sub = parser.add_subparsers(dest="command", required=True)

    # flag groups shared by several subcommands; help shows the library defaults
    sim_cfg, win, sub_cfg, lev = SimulationConfig(), WindowConfig(), SubSeriesConfig(), LevelConfig()
    out, fmt, sim, analysis, by, color, split, per_entry = (argparse.ArgumentParser(add_help=False) for _ in range(8))
    out.add_argument("--out-dir", help="output directory (default runs/<digest>)")
    fmt.add_argument("--format", choices=FORMATS, help="series file layout (default csv)")
    file_in = argparse.ArgumentParser(add_help=False, parents=[fmt])
    file_in.add_argument("input", help="series file (one value per row)")
    file_in.add_argument("--dt", type=float, help="sample interval if not in the file header")
    sim.add_argument("--points", dest="total_points", type=int, help=f"total points (default {sim_cfg.total_points})")
    sim.add_argument("--discard", dest="discard_fraction", type=float, help="leading share dropped as transient")
    sim.add_argument("--seed", type=int, help="seed for a random initial state")
    sim.add_argument("--initial-state", help="comma-separated initial state, e.g. '1,1,1'")
    analysis.add_argument("--m", type=int, help=f"samples per window (default {win.m})")
    analysis.add_argument("--tau", type=int, help=f"window sample spacing (default {win.tau}, or from --lag)")
    analysis.add_argument("--w", type=int, help=f"window slide (default {win.w})")
    analysis.add_argument("--ranking", choices=RANKINGS, help=f"pattern display (default {win.ranking})")
    analysis.add_argument("--sub-m", type=int, help=f"sub-series window size (default {sub_cfg.m})")
    analysis.add_argument("--sub-tau", type=int, help=f"sub-series sample spacing (default {sub_cfg.tau})")
    analysis.add_argument("--sub-w", type=int, help=f"sub-series window slide (default {sub_cfg.w})")
    analysis.add_argument("--gap-fraction", type=float, help=f"gap share splitting levels (default {lev.gap_fraction})")
    analysis.add_argument("--max-levels", type=int, help=f"most entropy levels (default {lev.max_levels})")
    # the CLI's own flags, each declared once for every subcommand that takes it
    by.add_argument("--by", choices=tuple(_LEVEL_ATTR), help="entropy the levels follow (default transition)")
    color.add_argument("--color", choices=_COLORS, default="pattern",
                       help="pattern and level write the same columns; none: no window columns in embedded.csv")
    split.add_argument("--sign-split", action="store_true", default=None, help="tag maxima by amplitude sign")
    per_entry.add_argument("--per-entry", action="store_true", help="count transitions between entry events only")

    gen = sub.add_parser("generate", help="integrate a benchmark system")
    gen_sub = gen.add_subparsers(dest="input", required=True)
    for system, params in _PARAMS.items():
        p = gen_sub.add_parser(system, parents=[sim, out])
        p.add_argument("--dt", type=float, help=f"integration step (default {sim_cfg.dt})")
        for f in fields(params):
            p.add_argument("--" + f.name.replace("_", "-"), type=float, help=f"default {f.default:g}")

    sub.add_parser("analyze", help="per-partition entropy report", parents=[file_in, analysis, out])

    frm = sub.add_parser("frm", help="first return maps", parents=[file_in, analysis, split, by, out])
    frm.add_argument("--pattern", action="append", help="dash-joined pattern; repeatable")
    frm.add_argument("--level", dest="frm_level", type=int, help="all partitions of this entropy level")
    frm.add_argument("--maxima", action="store_true", help="local-maxima baseline map")

    sub.add_parser(
        "levels", help="level sequence and transition network", parents=[file_in, analysis, by, per_entry, out]
    )

    emb = sub.add_parser("embed", help="time-delay embedding export", parents=[file_in, analysis, color, by, out])
    emb.add_argument("--dim", type=int, required=True, help="embedding dimension")
    emb.add_argument("--lag", type=int, required=True, help="embedding lag in samples")

    pipe = sub.add_parser(
        "pipeline", help="full analysis in one run", parents=[sim, fmt, analysis, color, split, by, per_entry, out]
    )
    pipe.add_argument("input", metavar="source", help=f"one of {', '.join(SYSTEMS)} or a series file")
    pipe.add_argument("--dt", type=float, help=f"integration step of a system (default {sim_cfg.dt}), or sample "
                      "interval of a series file without a '# dt=' header")
    pipe.add_argument("--dim", type=int, help="embedding dimension")
    pipe.add_argument("--lag", type=int, help="embedding lag in samples")
    pipe.add_argument("--frm-level", type=int, default=1, help="entropy level whose partitions get FRMs")

    rer = sub.add_parser("rerun", help="replay a run from its manifest", parents=[out])
    rer.add_argument("manifest", help="path to a manifest.json")

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        if args.command == "rerun":
            spec = load_manifest(args.manifest)
            spec.pop("manifest_sha256", None)
            spec.pop("outputs", None)
        else:
            spec = _spec_from_args(args)
        return _execute(spec, args.out_dir)
    except (OrdmapsError, OSError, MemoryError) as exc:
        print(f"error: {_message(exc)}", file=sys.stderr)
        return 1


def _message(exc: BaseException) -> str:
    return str(exc) or type(exc).__name__  # a bare MemoryError has no message


def console_main() -> None:
    """Run main and end the process with its code, as ``python -m ordmaps`` and the ``ordmaps`` script do."""
    code = main()
    try:
        sys.stdout.flush()
        sys.stderr.flush()
    except (AttributeError, OSError, ValueError):  # no stream, a closed pipe or file: end as sys.exit ends
        sys.exit(code)
    # interpreter teardown would free objects for 10-20 ms: every file is closed and every child joined by now
    os._exit(code)


if __name__ == "__main__":
    console_main()
