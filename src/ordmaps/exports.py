"""Deterministic CSV writers for every artifact the CLI emits.

Every writer hands :func:`_write_columns` a header and one numpy array per
column, and the column's dtype alone decides how its cells read: float64
with 17 significant digits (round-trip exact), integers as decimals, and
strings or other objects as ``str`` renders them. A writer casts its bool
columns to int, so they read 0/1. Rows are rendered by
:func:`ordmaps.series.write_rows`: chunked, one ``%`` per chunk, each
distinct float formatted once per chunk. A writer of sample cells (series,
embedding, return maps) copies them from its optional ``text``, the
:class:`ordmaps.series.SampleText` of a run's samples, rendered at most once
per run. A writer
that shows patterns indexes the column ``shown`` of a symbol sequence, the
dash-joined text of each distinct pattern under the sequence's ranking,
rendered once per sequence. The partition table and the network carry the
sequence they were built from and are indexed like its ``shown``, so their
writers take them alone; their columns are written as they are, with no row
objects. Every file carries a header row and rows follow a fixed order, so
identical inputs produce identical bytes.
"""

from __future__ import annotations

import numpy as np

from .encoding import SymbolSequence
from .levels import LevelNetwork
from .network import TransitionCounts, occupancy
from .ranking import PartitionTable
from .returnmaps import ReturnMap, diagonal_split, wing_split
from .series import CHUNK, SampleText, TimeSeries, dump_series, write_rows


def _write_columns(path, header: list[str], columns: list[np.ndarray]) -> None:
    """One header row, then row k of every column by :func:`write_rows`; lengths must agree."""
    if len({len(column) for column in columns}) > 1:
        raise ValueError(f"columns differ in length: {sorted(map(len, columns))}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        write_rows(fh, columns)


def write_symbols_csv(seq: SymbolSequence, path) -> None:
    _write_columns(path, ["start_index", "pattern"], [seq.start_indices, seq.shown[seq.inverse]])


PARTITION_COLUMNS = [
    "pattern", "O", "O_hat", "K", "K_hat", "h", "h_w", "h_wt",
    "level_w", "level_wt", "degenerate",
]


def write_partitions_csv(table: PartitionTable, path) -> None:
    """One row per partition in pattern order, labelled by ``table.seq``."""
    columns = [
        table.seq.shown,
        table.occurrence,
        table.entries,
        table.occurrence_share,
        table.entry_share,
        table.entropy,
        table.weighted_entropy,
        table.transition_entropy,
        table.weighted_level,
        table.transition_level,
        table.degenerate.astype(np.int64),
    ]
    _write_columns(path, PARTITION_COLUMNS, columns)


def write_entropy_curve_csv(table: PartitionTable, path) -> None:
    """Both weighted entropies ranked by the transition-weighted one, descending."""
    ranked = np.argsort(-table.transition_entropy, kind="stable")  # ties keep pattern order
    columns = [
        np.arange(1, len(ranked) + 1),
        table.seq.shown[ranked],
        table.transition_entropy[ranked],
        table.weighted_entropy[ranked],
        table.transition_level[ranked],
        table.weighted_level[ranked],
    ]
    _write_columns(path, ["rank", "pattern", "h_wt", "h_w", "level_wt", "level_w"], columns)


def write_opn_edges_csv(tc: TransitionCounts, path) -> None:
    """The non-zero edges of the network in row-major order, labelled by ``tc.seq``."""
    columns = [tc.seq.shown[tc.source], tc.seq.shown[tc.target], tc.count]
    _write_columns(path, ["from_pattern", "to_pattern", "count"], columns)


def write_opn_nodes_csv(seq: SymbolSequence, path) -> None:
    """The occupancy of every occurring pattern."""
    _write_columns(path, ["pattern", "occupancy"], [seq.shown, occupancy(seq)])


def write_frm_csv(rm: ReturnMap, path, *, text: SampleText | None = None) -> None:
    write_frm_combined_csv([rm], path, text=text)


def _sources(rm: ReturnMap) -> np.ndarray:
    if rm.entry_tags is None:
        return np.full(len(rm), rm.source, dtype=object)
    return np.array([f"{rm.source}:{tag}" for tag in rm.entry_tags[: len(rm)]], dtype=object)


def write_frm_combined_csv(maps: list[ReturnMap], path, *, text: SampleText | None = None) -> None:
    values = [rm.values if text is None else text.cells(rm.entry_indices, rm.values) for rm in maps]
    columns = [
        np.concatenate([np.empty(0), *(v[:-1] for v in values)]),
        np.concatenate([np.empty(0), *(v[1:] for v in values)]),
        np.concatenate([np.empty(0, dtype=object), *map(_sources, maps)]),
    ]
    _write_columns(path, ["v", "v_next", "source"], columns)


def diagonal_summary(maps: list[ReturnMap]) -> dict:
    summary = {}
    for rm in maps:
        split = diagonal_split(rm)
        wings = wing_split(rm)
        summary[rm.source] = {
            "pairs": len(rm),
            "above": split.above_count,
            "below": split.below_count,
            "on": split.on_count,
            "wing_above": wings.above_count,
            "wing_below": wings.below_count,
            "wing_on": wings.on_count,
        }
    return summary


def write_level_sequence_csv(seq: SymbolSequence, level_seq: np.ndarray, path) -> None:
    _write_columns(path, ["start_index", "level"], [seq.start_indices, np.asarray(level_seq)])


def write_level_network_csv(net: LevelNetwork, path) -> None:
    """Every (from, to) pair of levels in row-major order, zero weights included."""
    from_level, to_level = np.indices(net.weights.shape).reshape(2, -1) + 1
    _write_columns(path, ["from_level", "to_level", "weight"], [from_level, to_level, net.weights.ravel()])


def write_embedding_csv(points: np.ndarray, path, seq: SymbolSequence | None = None, levels=None, *, text=None) -> None:
    """Embedded points, coloured by the windows of seq when it is given.

    Point k takes the pattern, the level (``levels`` holds one per window)
    and the entry flag of the window starting at sample k; points where no
    window starts get an empty pattern and level and entry flag 0. With
    ``text``, coordinate j of point k must be sample k + j * lag of its series.
    """
    header = [f"x{j}" for j in range(points.shape[1])]
    columns = list(points.T)
    if seq is not None:
        levels = np.asarray(levels)
        if levels.shape != (len(seq),):
            raise ValueError(f"levels must hold one label per window ({len(seq)}), got shape {levels.shape}")
        inside = seq.start_indices < len(points)
        starts = seq.start_indices[inside]
        pattern = np.full(len(points), "", dtype=object)
        pattern[starts] = seq.shown[seq.inverse[inside]]
        level = np.full(len(points), "", dtype=object)
        level[starts] = levels[inside]
        is_entry = np.zeros(len(points), dtype=np.int64)
        is_entry[starts] = seq.entries[inside]
        header += ["pattern", "level", "is_entry"]
        columns += [pattern, level, is_entry]
    if text is None:
        return _write_columns(path, header, columns)
    count, dim = points.shape
    lag = (len(text.ends) - count) // max(dim - 1, 1)
    for j in range(dim):
        text.check(points[:, j], slice(j * lag, j * lag + count))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        for lo in range(0, count, CHUNK):
            hi = min(lo + CHUNK, count)
            lines = text.block(lo, hi + (dim - 1) * lag).split("\n")
            cells = [np.array(lines[j * lag : j * lag + hi - lo], dtype=object) for j in range(dim)]
            write_rows(fh, cells + [column[lo:hi] for column in columns[dim:]])


def write_series_csv(series: TimeSeries, path, *, text: SampleText | None = None) -> None:
    dump_series(series, path, text=text)
