r"""Per-partition sub-series entropies and entropy-level grouping.

Each ordinal partition of a series is treated as a candidate surface of
section. Collecting the samples at every window start that carries the
partition's pattern gives its sub-series; the permutation entropy h of
that sub-series (computed on a small secondary window, by default m=3,
tau=1, w=1, chronological) measures how regularly the partition is
visited.

Raw h ignores how much of the series a partition covers, so two weighted
variants rescale it by coverage shares:

    occurrence share   K     = windows carrying the pattern / all windows
    entry share        K^    = entrances into the pattern / all entrances

    weighted entropy             h_w  = -sum_i K  * p_i * (log2 p_i + log2 K)
    transition-weighted entropy  h_wt = -sum_i K^ * p_i * (log2 p_i + log2 K^)

where p_i is the occupancy distribution of the sub-series symbols. An
entrance is a window whose pattern differs from its predecessor's; the
first window counts. The formulas are applied literally; contributions
are not clamped even where a term goes negative.

Partitions whose sub-series cannot host two secondary windows are flagged
degenerate and given zero entropies.

Every partition is measured in one pass. The sub-series are laid end to end
in pattern order and symbolized once with a slide of 1. A secondary window
counts for its partition when it starts in phase with the sub-series' own
slide w and the next in-phase window still ends inside that sub-series: the
last window is left out, as p_i is the row-sum occupancy (see ``network``).
Windows that straddle two sub-series never count. The entropy terms of the
partitions that have the same number of terms are summed as one batch, each
partition's terms added in the order a sum over that partition alone takes.

Sorting partitions by a weighted entropy typically shows plateaus
separated by sharp drops. :func:`detect_levels` formalizes that: split the
descending list at the largest consecutive gaps exceeding
``gap_fraction * top_value``, using at most ``max_levels`` groups (see :class:`LevelConfig`).

:func:`partition_table` returns every partition as columns, a
:class:`PartitionTable` indexed like ``seq.shown``, with no object per
partition; the CLI and the writers read it. :func:`analyze_partitions` turns
the table into one :class:`PartitionReport` per partition, and
:func:`weighted_entropies` measures one partition with the same kernel.
:func:`rank_partitions` and :func:`assign_levels` work on such rows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .encoding import OrdinalPattern, SymbolSequence, WindowConfig, symbolize
from .errors import ConfigError, PatternAbsentError
from .series import TimeSeries


@dataclass(frozen=True)
class SubSeriesConfig:
    """Secondary window used on every partition sub-series."""

    m: int = 3
    tau: int = 1
    w: int = 1

    def __post_init__(self):
        self.window()  # the secondary window must itself be valid

    def min_samples(self) -> int:
        """Fewest sub-series samples that still yield two secondary windows."""
        return (self.m - 1) * self.tau + 1 + self.w

    def window(self) -> WindowConfig:
        return WindowConfig(m=self.m, tau=self.tau, w=self.w, ranking="chronological")


@dataclass(frozen=True)
class LevelConfig:
    """Settings of the gap-based level detector, see :func:`detect_levels`."""

    gap_fraction: float = 0.15
    max_levels: int = 3

    def __post_init__(self):
        if not 0.0 < self.gap_fraction < 1.0:
            raise ConfigError(f"gap_fraction must lie in (0, 1), got {self.gap_fraction}")
        if self.max_levels < 1:
            raise ConfigError(f"max_levels must be at least 1, got {self.max_levels}")


@dataclass(eq=False)
class PartitionReport:
    """Everything measured about one ordinal partition.

    ``occurrence_share`` and ``entry_share`` are K and K^ above. Levels are
    1-based, 1 being the highest-entropy group; they default to 1 until
    :func:`assign_levels` runs.
    """

    pattern: OrdinalPattern
    occurrence: int
    entries: int
    occurrence_share: float
    entry_share: float
    entropy: float
    weighted_entropy: float
    transition_entropy: float
    entry_indices: np.ndarray = field(repr=False)
    degenerate: bool = False
    weighted_level: int = 1
    transition_level: int = 1


def entry_points(seq: SymbolSequence, pattern: OrdinalPattern) -> np.ndarray:
    """Start indices of windows that enter the pattern; may be empty."""
    windows = seq.windows_of(pattern)
    return seq.start_indices[windows[seq.entries[windows]]]


def extract_subseries(
    series: TimeSeries, seq: SymbolSequence, pattern: OrdinalPattern
) -> TimeSeries:
    """Samples at every window start carrying the pattern, in order.

    The gaps between visits are spliced out, so dt is only nominal.
    """
    return TimeSeries(series.samples[seq.start_indices[_occurring_windows(seq, pattern)]], series.dt)


def _occurring_windows(seq: SymbolSequence, pattern: OrdinalPattern) -> np.ndarray:
    windows = seq.windows_of(pattern)
    if not windows.size:
        raise PatternAbsentError(f"pattern {pattern.dashed()} does not occur")
    return windows


def _measure(series: TimeSeries, seq: SymbolSequence, order, occurrence, sub_cfg) -> dict[str, np.ndarray]:
    """Columns of the partitions whose windows are ``order``, in runs of ``occurrence``, all in one pass.

    The levels are 1 until :func:`partition_table` sets them.
    """
    sub_cfg = sub_cfg or SubSeriesConfig()
    count = len(occurrence)
    owner = np.repeat(np.arange(count), occurrence)
    offset = np.arange(len(order)) - np.repeat(np.cumsum(occurrence) - occurrence, occurrence)
    span = sub_cfg.window().span
    counted = (offset % sub_cfg.w == 0) & (offset + span + sub_cfg.w < occurrence[owner])
    entered = seq.entries[order]
    entries = np.bincount(owner[entered], minlength=count)
    shares = np.array([occurrence / len(seq), entries / seq.entry_count])
    sums = np.zeros((3, count))
    if counted.any():
        sub = TimeSeries(series.samples[seq.start_indices[order]], series.dt)
        codes = symbolize(sub, replace(sub_cfg.window(), w=1)).codes[counted[: len(order) - span]]
        secondary, dense = np.unique(codes, return_inverse=True)
        pair, pairs = np.unique(owner[counted] * len(secondary) + dense, return_counts=True)
        row = pair // len(secondary)  # pairs sorted by partition, then by secondary pattern
        p = pairs / np.bincount(owner[counted])[row]
        log_p = np.log2(p)
        # math.log2 of each share, and a numpy sum over each partition's own
        # terms, round exactly as the one-partition formulas do
        log_shares = np.array([[math.log2(k) for k in ks] for ks in shares.tolist()])
        terms = np.stack([p * log_p, *(k[row] * p * (log_p + log_k[row]) for k, log_k in zip(shares, log_shares))])
        lengths = np.bincount(row, minlength=count)
        first = np.cumsum(lengths) - lengths
        for length in np.unique(lengths[lengths > 0]).tolist():
            which = np.flatnonzero(lengths == length)
            # summed over a C-contiguous last axis, each row adds up pairwise
            # exactly as its own terms[:, a:b].sum(axis=1) would
            block = np.ascontiguousarray(terms[:, first[which, None] + np.arange(length)])
            sums[:, which] = block.sum(axis=2)
    entropy, weighted_entropy, transition_entropy = -sums + 0.0
    return {
        "occurrence": occurrence,
        "entries": entries,
        "occurrence_share": shares[0],
        "entry_share": shares[1],
        "entropy": entropy,
        "weighted_entropy": weighted_entropy,
        "transition_entropy": transition_entropy,
        "degenerate": occurrence < sub_cfg.min_samples(),
        "weighted_level": np.ones(count, dtype=np.int64),
        "transition_level": np.ones(count, dtype=np.int64),
        "entry_starts": seq.start_indices[order[entered]],
        "entry_offsets": np.concatenate([[0], np.cumsum(entries)]),
    }


_MEASURED = (
    "occurrence", "entries", "occurrence_share", "entry_share",
    "entropy", "weighted_entropy", "transition_entropy",
)


def _reports(patterns, columns: dict) -> list[PartitionReport]:
    """One report per row of the columns, field by field as :class:`PartitionReport` orders them."""
    rows = zip(
        patterns,
        *(columns[name].tolist() for name in _MEASURED),
        np.split(columns["entry_starts"], columns["entry_offsets"][1:-1]),
        *(columns[name].tolist() for name in ("degenerate", "weighted_level", "transition_level")),
    )
    return [PartitionReport(*row) for row in rows]


@dataclass(frozen=True, eq=False)
class PartitionTable:
    """Every occurring partition of ``seq`` as columns, one array per :class:`PartitionReport` field.

    Row i is the partition of ``seq.patterns[i]``, shown as ``seq.shown[i]``.
    The entry start indices of all partitions lie end to end in
    ``entry_starts``, row i's from ``entry_offsets[i]`` up to
    ``entry_offsets[i + 1]``.
    """

    seq: SymbolSequence = field(repr=False)
    occurrence: np.ndarray
    entries: np.ndarray
    occurrence_share: np.ndarray
    entry_share: np.ndarray
    entropy: np.ndarray
    weighted_entropy: np.ndarray
    transition_entropy: np.ndarray
    degenerate: np.ndarray
    weighted_level: np.ndarray
    transition_level: np.ndarray
    entry_starts: np.ndarray = field(repr=False)
    entry_offsets: np.ndarray = field(repr=False)

    def entry_indices(self, i: int) -> np.ndarray:
        """Start indices of the windows that enter partition i."""
        return self.entry_starts[self.entry_offsets[i] : self.entry_offsets[i + 1]]

    def reports(self) -> list[PartitionReport]:
        """The rows, in pattern order, as :func:`analyze_partitions` returns them."""
        return _reports(self.seq.patterns, vars(self))


def weighted_entropies(
    series: TimeSeries,
    seq: SymbolSequence,
    pattern: OrdinalPattern,
    sub_cfg: SubSeriesConfig | None = None,
) -> PartitionReport:
    """Measure one partition: shares, sub-series entropy, weighted variants."""
    windows = _occurring_windows(seq, pattern)
    return _reports([pattern], _measure(series, seq, windows, np.array([windows.size]), sub_cfg))[0]


RANK_KEYS = ("weighted_entropy", "transition_entropy")
LEVEL_KEYS = ("weighted_level", "transition_level")


def rank_partitions(reports: list[PartitionReport], by: str = "transition_entropy") -> list[PartitionReport]:
    """Stable descending sort by the chosen entropy, ties lexicographic."""
    if by not in RANK_KEYS:
        raise ValueError(f"by must be one of {RANK_KEYS}, got {by!r}")
    return sorted(reports, key=lambda r: (-getattr(r, by), r.pattern.perm))


def detect_levels(
    sorted_entropies, gap_fraction: float = LevelConfig.gap_fraction, max_levels: int = LevelConfig.max_levels
) -> list[int]:
    """Group a descending entropy list at its largest qualifying gaps.

    A gap qualifies when it exceeds gap_fraction times the top entropy;
    the largest max_levels - 1 qualifying gaps (earliest first on ties)
    become boundaries. No qualifying gap means a single level, so a list
    of nearly equal values stays one plateau however small its spread.
    Labels start at 1 for the highest-entropy group. The grouping is
    invariant under rescaling all entropies by a positive constant.
    """
    return _level_labels(np.asarray(list(sorted_entropies), dtype=np.float64), gap_fraction, max_levels).tolist()


def _level_labels(e: np.ndarray, gap_fraction: float, max_levels: int) -> np.ndarray:
    """:func:`detect_levels` on an array, as an int64 array."""
    if e.size == 0:
        raise ValueError("entropy list is empty")
    LevelConfig(gap_fraction, max_levels)
    if np.any(e[1:] > e[:-1]):
        raise ValueError("entropies must be sorted in descending order")
    gaps = e[:-1] - e[1:]
    threshold = gap_fraction * e[0]
    qualifying = np.flatnonzero(gaps > threshold)
    chosen = sorted(qualifying, key=lambda i: (-gaps[i], i))[: max_levels - 1]
    labels = np.ones(e.size, dtype=np.int64)
    for boundary in sorted(chosen):
        labels[boundary + 1 :] += 1
    return labels


def assign_levels(
    reports: list[PartitionReport], levels: LevelConfig | None = None
) -> list[PartitionReport]:
    """Label every report with its level under both entropy variants."""
    levels = levels or LevelConfig()
    for by, attr in zip(RANK_KEYS, LEVEL_KEYS):
        ranked = rank_partitions(reports, by)
        labels = detect_levels([getattr(r, by) for r in ranked], levels.gap_fraction, levels.max_levels)
        for report, label in zip(ranked, labels):
            setattr(report, attr, label)
    return reports


def partition_table(
    series: TimeSeries,
    seq: SymbolSequence,
    sub_cfg: SubSeriesConfig | None = None,
    levels: LevelConfig | None = None,
) -> PartitionTable:
    """Measure and level every occurring partition in one pass, indexed like ``seq.shown``."""
    levels = levels or LevelConfig()
    columns = _measure(series, seq, np.argsort(seq.inverse, kind="stable"), np.bincount(seq.inverse), sub_cfg)
    for by, attr in zip(RANK_KEYS, LEVEL_KEYS):
        # rows are in pattern order, so a stable sort ranks as rank_partitions does
        ranked = np.argsort(-columns[by], kind="stable")
        columns[attr][ranked] = _level_labels(columns[by][ranked], levels.gap_fraction, levels.max_levels)
    return PartitionTable(seq, **columns)


def analyze_partitions(
    series: TimeSeries,
    seq: SymbolSequence,
    sub_cfg: SubSeriesConfig | None = None,
    levels: LevelConfig | None = None,
) -> list[PartitionReport]:
    """Report on every occurring partition, levels assigned, in pattern order."""
    return partition_table(series, seq, sub_cfg, levels).reports()
