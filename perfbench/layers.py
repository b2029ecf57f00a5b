"""Which ordmaps names the traced run wraps, and the per-layer metrics.

Each layer is named after the ordmaps module that holds it. A name is
wrapped where its caller looks it up: the CLI imports every library function
into ``ordmaps.cli``, so the spans sit around the CLI's calls into each
module, and ``ranking.analyze_partitions`` reaches ``weighted_entropies``
through ``ordmaps.ranking``. Helpers the CLI calls once per window
(``display_pattern``, ``SymbolSequence.symbol``) stay unwrapped and count as
CLI self time.
"""

from __future__ import annotations

import functools
import importlib
import inspect
from pathlib import Path

import numpy as np

from spans import totals

def _count_steps(tracer, arguments, result):
    tracer.count("sources.steps", arguments["cfg"].total_points - 1)


def _count_rows(tracer, arguments, result):
    tracer.count("series.rows", len(result))


def _count_windows(tracer, arguments, result):
    tracer.count("encoding.windows", len(result.codes))
    tracer.count("encoding.patterns", np.unique(result.codes).size)


def _count_partitions(tracer, arguments, result):
    tracer.count("ranking.partitions", len(result))
    tracer.count("ranking.degenerate", sum(1 for r in result if r.degenerate))
    tracer.count("ranking.entries", sum(r.entries for r in result))


def _count_dense(tracer, arguments, result):
    # counts (int64) plus the row-stochastic matrix (float64), P x P each
    p = len(result.patterns)
    tracer.count("network.dense_mb", 2 * p * p * 8 / 1e6)


def _count_maps(tracer, arguments, result):
    tracer.count("returnmaps.maps", 1)
    tracer.count("returnmaps.pairs", len(result))


def _count_points(tracer, arguments, result):
    tracer.count("embedding.points", len(result))


def _count_file(tracer, arguments, result):
    data = Path(arguments["path"]).read_bytes()
    tracer.count("exports.bytes", len(data))
    tracer.count("exports.rows", data.count(b"\n") - 1)  # minus the header row


# (module, attribute, span name, counter or None)
CLI_WRAPS = [
    ("ordmaps.cli", "integrate_lorenz", "sources.integrate", _count_steps),
    ("ordmaps.cli", "integrate_rossler", "sources.integrate", _count_steps),
    ("ordmaps.cli", "integrate_mackey_glass", "sources.integrate", _count_steps),
    ("ordmaps.cli", "load_series", "series.load", _count_rows),
    ("ordmaps.cli", "series_sha256", "series.sha256", None),
    ("ordmaps.cli", "symbolize", "encoding.symbolize", _count_windows),
    ("ordmaps.cli", "analyze_partitions", "ranking.analyze", _count_partitions),
    ("ordmaps.ranking", "weighted_entropies", "ranking.weighted_entropies", None),
    ("ordmaps.cli", "build_opn", "network.build_opn", _count_dense),
    ("ordmaps.cli", "markov_estimate", "network.markov", None),
    ("ordmaps.cli", "level_sequence", "levels.sequence", None),
    ("ordmaps.cli", "entry_level_sequence", "levels.sequence", None),
    ("ordmaps.cli", "build_level_network", "levels.network", None),
    ("ordmaps.cli", "frm_from_entries", "returnmaps.frm", _count_maps),
    ("ordmaps.cli", "maxima_frm", "returnmaps.frm", _count_maps),
    ("ordmaps.cli", "delay_embed", "embedding.delay_embed", _count_points),
    ("ordmaps.cli", "write_symbols_csv", "exports.symbols", _count_file),
    ("ordmaps.cli", "write_embedding_csv", "exports.embedding", _count_file),
    ("ordmaps.cli", "write_series_csv", "exports.series", _count_file),
    ("ordmaps.cli", "write_level_sequence_csv", "exports.level_sequence", _count_file),
    ("ordmaps.cli", "write_frm_csv", "exports.frm", _count_file),
    ("ordmaps.cli", "write_frm_combined_csv", "exports.frm", _count_file),
    ("ordmaps.cli", "write_opn_edges_csv", "exports.opn_edges", _count_file),
    ("ordmaps.cli", "write_partitions_csv", "exports.other", _count_file),
    ("ordmaps.cli", "write_entropy_curve_csv", "exports.other", _count_file),
    ("ordmaps.cli", "write_opn_nodes_csv", "exports.other", _count_file),
    ("ordmaps.cli", "write_level_network_csv", "exports.other", _count_file),
    ("ordmaps.cli", "diagonal_summary", "exports.other", None),
    ("ordmaps.cli", "write_manifest", "manifest.write", None),
]

OP_ROOT = "bench.op"

# Parent every span of a traced CLI operation must have.
CLI_PARENTS = {"cli.import": OP_ROOT, "cli.main": OP_ROOT, "bench.count": "cli.main"}
for _module, _attr, _span, _counter in CLI_WRAPS:
    CLI_PARENTS[_span] = "cli.main"
CLI_PARENTS["ranking.weighted_entropies"] = "ranking.analyze"

BATCH_PARENTS = {"series.construct": OP_ROOT, "encoding.symbolize": OP_ROOT}

# Seconds outside every span allowed in a traced CLI operation: interpreter
# start before the import span and exit after the main span.
CLI_MAX_ROOT_SELF = 0.25


def _bound(counter, signature, tracer, args, kwargs, result):
    counter(tracer, signature.bind(*args, **kwargs).arguments, result)


def install_cli(tracer) -> list[str]:
    """Wrap every name in CLI_WRAPS; return the names that were missing."""
    missing = []
    for module_name, attr, span, counter in CLI_WRAPS:
        module = importlib.import_module(module_name)
        fn = getattr(module, attr, None)
        if fn is None:
            missing.append(f"{module_name}.{attr}")
            continue
        count = None
        if counter is not None:
            count = functools.partial(_bound, counter, inspect.signature(fn))
        setattr(module, attr, tracer.wrap(fn, span, count))
    return missing


# Every per-layer metric, in BENCHMARK.json order, with its unit.
PER_LAYER = [
    ("cli.import_s", "s"),
    ("cli.self_s", "s"),
    ("sources.integrate_s", "s"),
    ("sources.steps", "count"),
    ("series.load_s", "s"),
    ("series.rows", "count"),
    ("series.sha256_s", "s"),
    ("series.construct_us", "us"),
    ("encoding.symbolize_s", "s"),
    ("encoding.windows", "count"),
    ("encoding.patterns", "count"),
    ("encoding.symbolize_us", "us"),
    ("ranking.analyze_s", "s"),
    ("ranking.weighted_entropies_calls", "count"),
    ("ranking.partitions", "count"),
    ("ranking.degenerate", "count"),
    ("ranking.entries", "count"),
    ("network.build_opn_s", "s"),
    ("network.markov_s", "s"),
    ("network.dense_mb", "MB"),
    ("levels.sequence_s", "s"),
    ("levels.network_s", "s"),
    ("returnmaps.frm_s", "s"),
    ("returnmaps.maps", "count"),
    ("returnmaps.pairs", "count"),
    ("embedding.delay_embed_s", "s"),
    ("embedding.points", "count"),
    ("exports.symbols_s", "s"),
    ("exports.embedding_s", "s"),
    ("exports.series_s", "s"),
    ("exports.level_sequence_s", "s"),
    ("exports.frm_s", "s"),
    ("exports.opn_edges_s", "s"),
    ("exports.other_s", "s"),
    ("exports.rows", "count"),
    ("exports.bytes", "B"),
    ("manifest.write_s", "s"),
    ("bench.self_s", "s"),
    ("bench.trace_overhead_s", "s"),
]
UNITS = dict(PER_LAYER)


def operation_metrics(spans: list[list], counts: dict[str, float]) -> dict[str, float]:
    """Per-layer metrics of one traced operation (bench.trace_overhead_s excluded).

    A ``<span>_s`` metric is the inclusive time of the spans of that name;
    ``cli.self_s`` and ``bench.self_s`` are self times. Per-call ``_us``
    metrics are medians over the operation's calls.
    """
    inclusive, own, calls = totals(spans)
    metrics = {name: 0.0 for name, _ in PER_LAYER if name != "bench.trace_overhead_s"}
    for name in inclusive:
        if name + "_s" in metrics:
            metrics[name + "_s"] = inclusive[name]
    metrics["cli.self_s"] = own.get("cli.main", 0.0)
    metrics["bench.self_s"] = sum(v for k, v in own.items() if k.startswith("bench."))
    metrics["ranking.weighted_entropies_calls"] = float(calls.get("ranking.weighted_entropies", 0))
    if "cli.main" not in calls:  # the in-process batch: per-call latencies
        for metric, span in (
            ("series.construct_us", "series.construct"),
            ("encoding.symbolize_us", "encoding.symbolize"),
        ):
            durations = [e - s for name, s, e, _ in spans if name == span]
            if durations:
                metrics[metric] = float(np.median(durations)) * 1e6
    for name, value in counts.items():
        metrics[name] = float(value)
    return metrics
