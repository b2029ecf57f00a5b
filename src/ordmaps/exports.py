"""Deterministic CSV writers for every artifact the CLI emits.

All files carry a header row, floats are rendered with 17 significant
digits (round-trip exact for float64), patterns are dash-joined, and rows
follow a fixed order, so identical inputs produce identical bytes.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .encoding import SymbolSequence, display_pattern
from .levels import LevelNetwork
from .network import MarkovEstimate, TransitionCounts
from .ranking import PartitionReport, rank_partitions
from .returnmaps import ReturnMap, diagonal_split, wing_split
from .series import TimeSeries


def _fmt(value: float) -> str:
    return f"{value:.17g}"


def _write_rows(path, header: list[str], rows) -> None:
    lines = [",".join(header)]
    lines.extend(",".join(str(cell) for cell in row) for row in rows)
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def _shown(patterns, ranking: str) -> list[str]:
    return [display_pattern(pattern, ranking).dashed() for pattern in patterns]


def write_symbols_csv(seq: SymbolSequence, path) -> None:
    shown = _shown(seq.patterns, seq.config.ranking)
    rows = zip(seq.start_indices.tolist(), (shown[i] for i in seq.inverse.tolist()))
    _write_rows(path, ["start_index", "pattern"], rows)


PARTITION_COLUMNS = [
    "pattern", "O", "O_hat", "K", "K_hat", "h", "h_w", "h_wt",
    "level_w", "level_wt", "degenerate",
]


def write_partitions_csv(reports: list[PartitionReport], path, ranking: str = "chronological") -> None:
    rows = [
        (
            display_pattern(r.pattern, ranking).dashed(),
            r.occurrence,
            r.entries,
            _fmt(r.occurrence_share),
            _fmt(r.entry_share),
            _fmt(r.entropy),
            _fmt(r.weighted_entropy),
            _fmt(r.transition_entropy),
            r.weighted_level,
            r.transition_level,
            int(r.degenerate),
        )
        for r in sorted(reports, key=lambda r: r.pattern.perm)
    ]
    _write_rows(path, PARTITION_COLUMNS, rows)


def write_entropy_curve_csv(reports: list[PartitionReport], path, ranking: str = "chronological") -> None:
    """Both weighted entropies ranked by the transition-weighted one."""
    ranked = rank_partitions(reports, by="transition_entropy")
    rows = [
        (
            rank,
            display_pattern(r.pattern, ranking).dashed(),
            _fmt(r.transition_entropy),
            _fmt(r.weighted_entropy),
            r.transition_level,
            r.weighted_level,
        )
        for rank, r in enumerate(ranked, start=1)
    ]
    _write_rows(path, ["rank", "pattern", "h_wt", "h_w", "level_wt", "level_w"], rows)


def write_opn_edges_csv(tc: TransitionCounts, path, ranking: str = "chronological") -> None:
    """The non-zero edges in row-major order."""
    shown = _shown(tc.patterns, ranking)
    rows = ((shown[i], shown[j], int(tc.counts[i, j])) for i, j in zip(*np.nonzero(tc.counts)))
    _write_rows(path, ["from_pattern", "to_pattern", "count"], rows)


def write_opn_nodes_csv(est: MarkovEstimate, path, ranking: str = "chronological") -> None:
    rows = [
        (display_pattern(p, ranking).dashed(), _fmt(occ))
        for p, occ in zip(est.patterns, est.occupancy)
    ]
    _write_rows(path, ["pattern", "occupancy"], rows)


def write_frm_csv(rm: ReturnMap, path) -> None:
    write_frm_combined_csv([rm], path)


def write_frm_combined_csv(maps: list[ReturnMap], path) -> None:
    rows = []
    for rm in maps:
        for k in range(len(rm)):
            tag = rm.source if rm.entry_tags is None else f"{rm.source}:{rm.entry_tags[k]}"
            rows.append((_fmt(rm.values[k]), _fmt(rm.values[k + 1]), tag))
    _write_rows(path, ["v", "v_next", "source"], rows)


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
    rows = zip((int(s) for s in seq.start_indices), (int(v) for v in level_seq))
    _write_rows(path, ["start_index", "level"], rows)


def write_level_network_csv(net: LevelNetwork, path) -> None:
    rows = [
        (a, b, net.weight(a, b))
        for a in range(1, net.levels + 1)
        for b in range(1, net.levels + 1)
    ]
    _write_rows(path, ["from_level", "to_level", "weight"], rows)


def write_embedding_csv(
    points: np.ndarray,
    path,
    pattern_col: list[str] | None = None,
    level_col: list[int] | None = None,
    entry_col: list[int] | None = None,
) -> None:
    dim = points.shape[1]
    header = [f"x{j}" for j in range(dim)]
    extras = []
    for name, col in (("pattern", pattern_col), ("level", level_col), ("is_entry", entry_col)):
        if col is not None:
            header.append(name)
            extras.append(col)
    rows = []
    for k in range(points.shape[0]):
        row = [_fmt(v) for v in points[k]]
        row.extend(str(col[k]) for col in extras)
        rows.append(row)
    _write_rows(path, header, rows)


def write_series_csv(series: TimeSeries, path) -> None:
    from .series import dump_series

    dump_series(series, path)
