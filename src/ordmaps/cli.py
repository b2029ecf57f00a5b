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
outputs. Each library section of the spec is built by the library's own
dataclass from only the flags given, so the defaults are those held by the
dataclasses and the ``*_EMBEDDING`` constants. One check builds every config
object from the spec, for flags and ``rerun`` manifests alike, before any
series is loaded or integrated. When ``--out-dir`` is omitted, outputs land
in ``runs/<manifest digest prefix>/``. Any bad input ends with one
``error: ...`` line, exit code 1 and no files left behind.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import asdict, fields
from pathlib import Path
from types import SimpleNamespace
from typing import get_type_hints

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
    canonical_pattern,
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
    analyze_partitions,
    entry_points,
)
from .returnmaps import frm_from_entries, maxima_frm
from .series import check_dt, load_series, series_sha256
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
_FORMATS = ("csv", "whitespace")
_COLORS = ("pattern", "level", "none")


class _RunWriter:
    """Tracks files written for one run so failures leave nothing behind."""

    def __init__(self, out_dir: Path):
        self.out_dir = out_dir
        self._created_dir = not out_dir.exists()
        out_dir.mkdir(parents=True, exist_ok=True)
        self.written: list[Path] = []

    def emit(self, name: str, fn) -> None:
        path = self.out_dir / name
        fn(path)
        self.written.append(path)

    def cleanup(self) -> None:
        for path in self.written:
            path.unlink(missing_ok=True)
        if self._created_dir:
            try:
                self.out_dir.rmdir()
            except OSError:
                pass


# ------------------------------------------------------------ run spec


def _given(args, cls, prefix: str = "") -> dict:
    """The fields of cls set by a flag; library-backed flags default to None."""
    values = {f.name: getattr(args, prefix + f.name, None) for f in fields(cls)}
    return {name: value for name, value in values.items() if value is not None}


def _parse_initial_state(text):
    try:
        return [float(part) for part in text.split(",")]
    except ValueError:
        raise ConfigError(f"cannot parse initial state {text!r}") from None


def _frm_spec(args) -> dict:
    pattern, maxima = getattr(args, "pattern", None), getattr(args, "maxima", False)
    if (pattern is not None) + (args.frm_level is not None) + maxima != 1:
        raise ConfigError("choose exactly one of --pattern, --level, --maxima")
    # frm draws a maxima map only in --maxima mode; pipeline always adds one
    frm = {"by": args.by, "sign_split": args.sign_split and (maxima or args.command == "pipeline")}
    if maxima:
        return {"mode": "maxima", **frm}
    if pattern is not None:
        return {"mode": "pattern", "patterns": pattern, **frm}
    return {"mode": "level", "level": args.frm_level, **frm}


def _spec_from_args(args) -> dict:
    """The run spec of a command line, each library section built by its dataclass."""
    spec = {"command": args.command, "version": TOOL_VERSION}
    system = args.input if args.command in ("generate", "pipeline") and args.input in SYSTEMS else None
    if system:
        sim = _given(args, SimulationConfig)
        if "initial_state" in sim:
            sim["initial_state"] = _parse_initial_state(sim["initial_state"])
        params = _PARAMS[system](**_given(args, _PARAMS[system]))
        spec["input"] = {"kind": system, "params": asdict(params), "sim": asdict(SimulationConfig(**sim))}
    else:
        path = str(Path(args.input).resolve())
        spec["input"] = {"kind": "file", "path": path, "format": args.format, "dt": args.dt}
    sections = _COMMANDS[args.command][0]
    if "embedding" in sections:
        given = _given(args, EmbeddingConfig)
        embedding = EmbeddingConfig(**{**asdict(_EMBEDDINGS.get(system, LORENZ_EMBEDDING)), **given})
        spec["embedding"] = {**asdict(embedding), "color": args.color}
    if "window" in sections:
        window = _given(args, WindowConfig)
        if "tau" not in window and getattr(args, "lag", None) is not None:
            m = WindowConfig(**window).m  # checks m before the divisor search uses it
            window["tau"] = window_from_embedding(embedding, m).tau
        spec["window"] = asdict(WindowConfig(**window))
        spec["subseries"] = asdict(SubSeriesConfig(**_given(args, SubSeriesConfig, "sub_")))
        spec["levels"] = asdict(LevelConfig(**_given(args, LevelConfig)))
    if "frm" in sections:
        spec["frm"] = _frm_spec(args)
    if "level_network" in sections:
        spec["level_network"] = {"by": args.by, "per_entry": getattr(args, "per_entry", False)}
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
    if cls is None:
        return values
    return cls(**{f.name: values[f.name] for f in fields(cls)})


def _shown_pattern(text: str, m: int) -> OrdinalPattern:
    """A --pattern value, as displayed under the run's ranking."""
    try:
        shown = OrdinalPattern.from_dashed(text)
    except ValueError as exc:
        raise ConfigError(f"--pattern: {exc}") from None
    if shown.m != m:
        raise ConfigError(f"--pattern {text} has {shown.m} entries but m is {m}")
    return shown


def _check(spec: dict) -> SimpleNamespace:
    """Every config object of a run spec, built before any input is read."""
    command = spec.get("command")
    if type(command) is not str or command not in _COMMANDS:
        raise ConfigError(f"manifest names unknown command {command!r}")
    sections = _COMMANDS[command][0]
    required = ("command", "input", *sections)
    if not set(required) <= set(spec) <= {*required, "version", "series_sha256"}:
        raise ConfigError(f"a {command} run spec needs the keys {', '.join(required)} and no others")
    if type(spec.get("series_sha256", "")) is not str:
        raise ConfigError("series_sha256 must be a string")
    run = SimpleNamespace(spec=spec)
    inp = spec["input"]
    kind = inp.get("kind") if type(inp) is dict else None
    if kind == "file":
        _section(inp, "input", kind=_IS[str], path=_IS[str], format=_one_of(*_FORMATS), dt=_IS[float | None])
        if inp["dt"] is not None:
            check_dt(inp["dt"])
    elif type(kind) is str and kind in SYSTEMS:
        _section(inp, "input", kind=_IS[str], params=_IS[dict], sim=_IS[dict])
        run.params = _section(inp["params"], "input.params", _PARAMS[kind])
        run.sim = _section(inp["sim"], "input.sim", SimulationConfig)
    else:
        raise ConfigError(f"unknown input kind {kind!r}")
    if "window" in sections:
        run.window = _section(spec["window"], "window", WindowConfig)
        run.subseries = _section(spec["subseries"], "subseries", SubSeriesConfig)
        run.levels = _section(spec["levels"], "levels", LevelConfig)
    by = _one_of(*_LEVEL_ATTR)
    if "frm" in sections:
        mode = spec["frm"].get("mode") if type(spec["frm"]) is dict else None
        mode_keys = _FRM_MODE_KEYS.get(mode, {}) if type(mode) is str else {}
        modes = _one_of(*_FRM_MODE_KEYS)
        run.frm = _section(spec["frm"], "frm", mode=modes, by=by, sign_split=_IS[bool], **mode_keys)
        top = run.levels.max_levels
        if mode == "level" and not 1 <= run.frm["level"] <= top:
            raise ConfigError(f"--level/--frm-level must lie in 1..{top} (--max-levels), got {run.frm['level']}")
        run.patterns = [_shown_pattern(text, run.window.m) for text in run.frm.get("patterns", ())]
    if "level_network" in sections:
        run.level_network = _section(spec["level_network"], "level_network", by=by, per_entry=_IS[bool])
    if "embedding" in sections:
        run.embedding = _section(spec["embedding"], "embedding", EmbeddingConfig, color=_one_of(*_COLORS))
        run.color = spec["embedding"]["color"]
    return run


# ---------------------------------------------------------------- input


def _realize_input(run):
    """Load or integrate the series named by the spec's input, pin its hash."""
    spec = run.spec
    inp = spec["input"]
    if inp["kind"] == "file":
        series = load_series(inp["path"], inp["format"], inp["dt"])
        inp["dt"] = series.dt
    else:
        # built per call, so a name rebound on this module is the one called
        integrate = {"lorenz": integrate_lorenz, "rossler": integrate_rossler, "mackey-glass": integrate_mackey_glass}
        series = integrate[inp["kind"]](run.params, run.sim)
    digest = series_sha256(series)
    previous = spec.get("series_sha256")
    if previous is not None and previous != digest:
        raise ConfigError(
            "input series does not match the manifest "
            f"(expected {previous[:12]}..., got {digest[:12]}...)"
        )
    spec["series_sha256"] = digest
    return series


# ------------------------------------------------------------- analysis


def _analysis(series, run):
    seq = symbolize(series, run.window)
    return seq, analyze_partitions(series, seq, run.subseries, run.levels)


def _write_analysis(writer, seq, reports):
    tc = build_opn(seq)
    writer.emit("symbols.csv", lambda p: write_symbols_csv(seq, p))
    writer.emit("partitions.csv", lambda p: write_partitions_csv(seq, reports, p))
    writer.emit("entropy_curve.csv", lambda p: write_entropy_curve_csv(seq, reports, p))
    writer.emit("opn_edges.csv", lambda p: write_opn_edges_csv(seq, tc, p))
    writer.emit("opn_nodes.csv", lambda p: write_opn_nodes_csv(seq, p))


def _frm_maps(series, run, seq=None, reports=None):
    frm = run.frm
    if frm["mode"] == "maxima":
        return [maxima_frm(series, sign_split=frm["sign_split"])]
    maps = []
    if frm["mode"] == "pattern":
        for shown in run.patterns:
            entries = entry_points(seq, canonical_pattern(shown, run.window.ranking))
            maps.append(frm_from_entries(series, entries, source=f"partition:{shown.dashed()}"))
        return maps
    level_attr = _LEVEL_ATTR[frm["by"]]
    for report, shown in zip(reports, seq.shown):  # reports come in pattern order
        if getattr(report, level_attr) != frm["level"] or len(report.entry_indices) < 2:
            continue  # fewer than 2 entries cannot form a pair; recorded by absence
        maps.append(frm_from_entries(series, report.entry_indices, source=f"partition:{shown}"))
    return maps


def _write_frm(writer, maps):
    for rm in maps:
        name = "frm_" + rm.source.replace(":", "_") + ".csv"
        writer.emit(name, lambda p, rm=rm: write_frm_csv(rm, p))
    writer.emit("frm_all.csv", lambda p: write_frm_combined_csv(maps, p))
    summary = diagonal_summary(maps)
    writer.emit(
        "diagonal_summary.json",
        lambda p: p.write_text(canonical_json(summary), encoding="utf-8"),
    )


def _write_levels(writer, seq, reports, run):
    by_attr = _LEVEL_ATTR[run.level_network["by"]]
    full = level_sequence(seq, reports, by_attr)
    used = (
        entry_level_sequence(seq, reports, by_attr)
        if run.level_network["per_entry"]
        else full
    )
    net = build_level_network(used)
    writer.emit("level_sequence.csv", lambda p: write_level_sequence_csv(seq, full, p))
    writer.emit("level_network.csv", lambda p: write_level_network_csv(net, p))


def _write_embedding(writer, series, run, seq, reports):
    points = delay_embed(series, run.embedding)
    if seq is None or run.color == "none":
        writer.emit("embedded.csv", lambda p: write_embedding_csv(points, p))
        return
    levels = level_sequence(seq, reports, _LEVEL_ATTR[run.level_network["by"]])
    writer.emit("embedded.csv", lambda p: write_embedding_csv(points, p, seq, levels))


# ------------------------------------------------------------- runners


def _run_generate(run, series, writer):
    writer.emit("series.csv", lambda p: write_series_csv(series, p))


def _run_analyze(run, series, writer):
    seq, reports = _analysis(series, run)
    _write_analysis(writer, seq, reports)


def _run_frm(run, series, writer):
    seq = reports = None
    if run.frm["mode"] == "pattern":
        seq = symbolize(series, run.window)
    elif run.frm["mode"] == "level":
        seq, reports = _analysis(series, run)
    maps = _frm_maps(series, run, seq, reports)
    if not maps:  # the other modes raise on their own; pipeline adds a maxima map
        level, by = run.frm["level"], run.frm["by"]
        raise EmptyMapError(f"no partition at level {level} (by {by}) has the 2 entry points a map needs", count=0)
    _write_frm(writer, maps)


def _run_levels(run, series, writer):
    seq, reports = _analysis(series, run)
    _write_levels(writer, seq, reports, run)


def _run_embed(run, series, writer):
    seq, reports = _analysis(series, run) if run.color != "none" else (None, None)
    _write_embedding(writer, series, run, seq, reports)


def _run_pipeline(run, series, writer):
    writer.emit("series.csv", lambda p: write_series_csv(series, p))
    seq, reports = _analysis(series, run)
    _write_analysis(writer, seq, reports)
    maps = _frm_maps(series, run, seq, reports)
    try:
        maps.append(maxima_frm(series, sign_split=run.frm["sign_split"]))
    except OrdmapsError:
        pass  # too few maxima is not fatal for the partition pipeline
    _write_frm(writer, maps)
    _write_levels(writer, seq, reports, run)
    _write_embedding(writer, series, run, seq, reports)


# per command: the run spec sections it holds besides command, version and
# input, and its runner
_ANALYSIS = ("window", "subseries", "levels")
_COMMANDS = {
    "generate": ((), _run_generate),
    "analyze": (_ANALYSIS, _run_analyze),
    "frm": (_ANALYSIS + ("frm",), _run_frm),
    "levels": (_ANALYSIS + ("level_network",), _run_levels),
    "embed": (_ANALYSIS + ("level_network", "embedding"), _run_embed),
    "pipeline": (_ANALYSIS + ("frm", "level_network", "embedding"), _run_pipeline),
}


def _execute(spec: dict, out_dir_arg) -> int:
    run = _check(spec)
    series = _realize_input(run)
    out_dir = (
        Path(out_dir_arg)
        if out_dir_arg
        else Path("runs") / manifest_digest(spec)[:12]
    )
    writer = _RunWriter(out_dir)
    try:
        _COMMANDS[spec["command"]][1](run, series, writer)
        spec["outputs"] = sorted(p.name for p in writer.written)
        writer.emit(
            "manifest.json",
            lambda p: write_manifest(spec, p),
        )
    except BaseException:
        writer.cleanup()
        raise
    print(out_dir)
    return 0


# -------------------------------------------------------------- parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ordmaps",
        description="First return maps from ordinal partitions of scalar series.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {TOOL_VERSION}")
    sub = parser.add_subparsers(dest="command", required=True)

    # flag groups shared by several subcommands; help shows the library defaults
    sim_cfg, win, sub_cfg, lev = SimulationConfig(), WindowConfig(), SubSeriesConfig(), LevelConfig()
    out, file_in, sim, analysis = (argparse.ArgumentParser(add_help=False) for _ in range(4))
    out.add_argument("--out-dir", help="output directory (default runs/<digest>)")
    file_in.add_argument("input", help="series file (one value per row)")
    file_in.add_argument("--format", choices=_FORMATS, default="csv")
    file_in.add_argument("--dt", type=float, help="sample interval if not in the file header")
    sim.add_argument("--dt", type=float, help=f"integration step (default {sim_cfg.dt})")
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
    by = {"choices": tuple(_LEVEL_ATTR), "default": "transition"}

    gen = sub.add_parser("generate", help="integrate a benchmark system")
    gen_sub = gen.add_subparsers(dest="input", required=True)
    for system, params in _PARAMS.items():
        p = gen_sub.add_parser(system, parents=[sim, out])
        for f in fields(params):
            p.add_argument("--" + f.name.replace("_", "-"), type=float, help=f"default {f.default:g}")

    sub.add_parser("analyze", help="per-partition entropy report", parents=[file_in, analysis, out])

    frm = sub.add_parser("frm", help="first return maps", parents=[file_in, analysis, out])
    frm.add_argument("--pattern", action="append", help="dash-joined pattern; repeatable")
    frm.add_argument("--level", dest="frm_level", type=int, help="all partitions of this entropy level")
    frm.add_argument("--maxima", action="store_true", help="local-maxima baseline map")
    frm.add_argument("--sign-split", action="store_true", help="tag maxima by amplitude sign")
    frm.add_argument("--by", **by)

    lev = sub.add_parser("levels", help="level sequence and transition network", parents=[file_in, analysis, out])
    lev.add_argument("--by", **by)
    lev.add_argument("--per-entry", action="store_true", help="count transitions between entry events only")

    emb = sub.add_parser("embed", help="time-delay embedding export", parents=[file_in, analysis, out])
    emb.add_argument("--dim", type=int, required=True, help="embedding dimension")
    emb.add_argument("--lag", type=int, required=True, help="embedding lag in samples")
    emb.add_argument("--color", choices=_COLORS, default="pattern")
    emb.add_argument("--by", **by)

    pipe = sub.add_parser("pipeline", help="full analysis in one run", parents=[sim, analysis, out])
    pipe.add_argument("input", metavar="source", help=f"one of {', '.join(SYSTEMS)} or a series file")
    pipe.add_argument("--format", choices=_FORMATS, default="csv")
    pipe.add_argument("--dim", type=int, help="embedding dimension")
    pipe.add_argument("--lag", type=int, help="embedding lag in samples")
    pipe.add_argument("--color", choices=_COLORS, default="pattern")
    pipe.add_argument("--frm-level", type=int, default=1, help="entropy level whose partitions get FRMs")
    pipe.add_argument("--sign-split", action="store_true")
    pipe.add_argument("--by", **by)
    pipe.add_argument("--per-entry", action="store_true")

    rer = sub.add_parser("rerun", help="replay a run from its manifest", parents=[out])
    rer.add_argument("manifest", help="path to a manifest.json")

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "rerun":
            spec = load_manifest(args.manifest)
            spec.pop("manifest_sha256", None)
            spec.pop("outputs", None)
        else:
            spec = _spec_from_args(args)
        return _execute(spec, args.out_dir)
    except (OrdmapsError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
