"""Deterministic CSV writers for every artifact the CLI emits.

Every writer hands :func:`_write_columns` a header and one numpy array per
column, and the column's dtype alone decides how its cells read: float64
with 17 significant digits (round-trip exact), integers as decimals, and
strings or other objects as ``str`` renders them. A writer casts its bool
columns to int, so they read 0/1. Rows are rendered by
:func:`ordmaps.series.write_rows`: chunked, one ``%`` per chunk, each
distinct float formatted once per chunk. Patterns are dash-joined, every
file carries a header row and rows follow a fixed order, so identical inputs
produce identical bytes.
"""

from __future__ import annotations

import numpy as np

from .encoding import SymbolSequence, display_pattern
from .levels import LevelNetwork
from .network import TransitionCounts, occupancy
from .ranking import PartitionReport, rank_partitions
from .returnmaps import ReturnMap, diagonal_split, wing_split
from .series import TimeSeries, dump_series, write_rows


def _write_columns(path, header: list[str], columns: list[np.ndarray]) -> None:
    """One header row, then row k of every column by :func:`write_rows`; lengths must agree."""
    if len({len(column) for column in columns}) > 1:
        raise ValueError(f"columns differ in length: {sorted(map(len, columns))}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        write_rows(fh, columns)


def _shown(patterns, ranking: str) -> np.ndarray:
    """The dashed display of each pattern, as an object array to index."""
    shown = [display_pattern(pattern, ranking).dashed() for pattern in patterns]
    return np.array(shown, dtype=object)


def _report_column(reports: list[PartitionReport], attr: str, dtype) -> np.ndarray:
    return np.array([getattr(r, attr) for r in reports], dtype=dtype)


def write_symbols_csv(seq: SymbolSequence, path) -> None:
    shown = _shown(seq.patterns, seq.config.ranking)
    _write_columns(path, ["start_index", "pattern"], [seq.start_indices, shown[seq.inverse]])


PARTITION_COLUMNS = [
    "pattern", "O", "O_hat", "K", "K_hat", "h", "h_w", "h_wt",
    "level_w", "level_wt", "degenerate",
]


def write_partitions_csv(reports: list[PartitionReport], path, ranking: str = "chronological") -> None:
    reports = sorted(reports, key=lambda r: r.pattern.perm)
    columns = [_shown((r.pattern for r in reports), ranking)]
    for attr, dtype in (
        ("occurrence", np.int64),
        ("entries", np.int64),
        ("occurrence_share", np.float64),
        ("entry_share", np.float64),
        ("entropy", np.float64),
        ("weighted_entropy", np.float64),
        ("transition_entropy", np.float64),
        ("weighted_level", np.int64),
        ("transition_level", np.int64),
        ("degenerate", np.int64),
    ):
        columns.append(_report_column(reports, attr, dtype))
    _write_columns(path, PARTITION_COLUMNS, columns)


def write_entropy_curve_csv(reports: list[PartitionReport], path, ranking: str = "chronological") -> None:
    """Both weighted entropies ranked by the transition-weighted one."""
    ranked = rank_partitions(reports, by="transition_entropy")
    columns = [
        np.arange(1, len(ranked) + 1),
        _shown((r.pattern for r in ranked), ranking),
        _report_column(ranked, "transition_entropy", np.float64),
        _report_column(ranked, "weighted_entropy", np.float64),
        _report_column(ranked, "transition_level", np.int64),
        _report_column(ranked, "weighted_level", np.int64),
    ]
    _write_columns(path, ["rank", "pattern", "h_wt", "h_w", "level_wt", "level_w"], columns)


def write_opn_edges_csv(tc: TransitionCounts, path, ranking: str = "chronological") -> None:
    """The non-zero edges in row-major order."""
    shown = _shown(tc.patterns, ranking)
    _write_columns(path, ["from_pattern", "to_pattern", "count"], [shown[tc.source], shown[tc.target], tc.count])


def write_opn_nodes_csv(seq: SymbolSequence, path) -> None:
    """The occupancy of every occurring pattern."""
    shown = _shown(seq.patterns, seq.config.ranking)
    _write_columns(path, ["pattern", "occupancy"], [shown, occupancy(seq)])


def write_frm_csv(rm: ReturnMap, path) -> None:
    write_frm_combined_csv([rm], path)


def _sources(rm: ReturnMap) -> np.ndarray:
    if rm.entry_tags is None:
        return np.full(len(rm), rm.source, dtype=object)
    return np.array([f"{rm.source}:{tag}" for tag in rm.entry_tags[: len(rm)]], dtype=object)


def write_frm_combined_csv(maps: list[ReturnMap], path) -> None:
    columns = [
        np.concatenate([np.empty(0), *(rm.values[:-1] for rm in maps)]),
        np.concatenate([np.empty(0), *(rm.values[1:] for rm in maps)]),
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


def write_embedding_csv(points: np.ndarray, path, seq: SymbolSequence | None = None, levels=None) -> None:
    """Embedded points, coloured by the windows of seq when it is given.

    Point k takes the pattern, the level (``levels`` holds one per window)
    and the entry flag of the window starting at sample k; points where no
    window starts get an empty pattern and level and entry flag 0.
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
        pattern[starts] = _shown(seq.patterns, seq.config.ranking)[seq.inverse[inside]]
        level = np.full(len(points), "", dtype=object)
        level[starts] = levels[inside]
        is_entry = np.zeros(len(points), dtype=np.int64)
        is_entry[starts] = seq.entries[inside]
        header += ["pattern", "level", "is_entry"]
        columns += [pattern, level, is_entry]
    _write_columns(path, header, columns)


def write_series_csv(series: TimeSeries, path) -> None:
    dump_series(series, path)
