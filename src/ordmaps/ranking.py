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
degenerate, given zero entropies and left out of the secondary pass.

Every partition is measured in one pass over the windows, a block of
``encoding.BLOCK`` windows at a time, so the pass allocates no array over
all n windows: only arrays of one block, per-partition state, and the tally
of pairs below. A block's windows are grouped by partition, and each
partition's run is laid after the last samples of its sub-series from the
blocks before, so the secondary windows ending in the block are ranked from
the block's own samples. A secondary window counts for its
partition when it starts in phase with the sub-series' own slide w and the
next in-phase window still ends inside that sub-series: the last window is
left out, as p_i is the row-sum occupancy (see ``network``). The counted
windows are tallied per (partition, secondary pattern) pair, keeping only
the pairs that occur. The entropy terms are then summed by pair count: the
partitions with L pairs are summed together, at most ``BLOCK // L`` of them
(and at least one) per batch, each partition's terms one row that adds up in
the order a sum over that partition alone takes. One search of the tally's
keys finds where each partition's pairs begin.

Sorting partitions by a weighted entropy typically shows plateaus
separated by sharp drops. :func:`detect_levels` formalizes that: split the
descending list at the largest consecutive gaps exceeding
``gap_fraction * top_value``, using at most ``max_levels`` groups (see :class:`LevelConfig`).

:func:`partition_table` returns every partition as columns, a
:class:`PartitionTable` indexed like ``seq.shown``, with no object per
partition and one entry per partition in each array; it is the one record
of a partition, and the CLI and the writers read it. Only return maps read
entry start indices, so :meth:`PartitionTable.entry_indices` gathers those
of just the rows asked for.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .encoding import BLOCK, OrdinalPattern, SymbolSequence, WindowConfig, encode_windows, entry_mask, window_view
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


def entry_points(seq: SymbolSequence, pattern: OrdinalPattern) -> np.ndarray:
    """Start indices of windows that enter the pattern; may be empty."""
    return np.flatnonzero((seq.inverse == seq.index(pattern)) & seq.entries) * seq.config.w


def extract_subseries(
    series: TimeSeries, seq: SymbolSequence, pattern: OrdinalPattern
) -> TimeSeries:
    """Samples at every window start carrying the pattern, in order.

    The gaps between visits are spliced out, so dt is only nominal.
    """
    if (i := seq.index(pattern)) < 0:
        raise PatternAbsentError(f"pattern {pattern.dashed()} does not occur")
    return TimeSeries(series.samples[np.flatnonzero(seq.inverse == i) * seq.config.w], series.dt)


def _runs(labels: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """For sorted labels: where each run of equal labels starts, its length, and each label's place in its run."""
    first = np.flatnonzero(entry_mask(labels))
    size = np.diff(first, append=len(labels))
    return first, size, np.arange(len(labels)) - np.repeat(first, size)


class _SubSeries:
    """The sub-series of the partitions ``parts``, met a block of windows at a time.

    A block's run of each partition is laid after the last ``span`` samples of
    that sub-series from the blocks before, so every secondary window ending
    in the block lies in the block's own samples. Each of ``parts`` has more
    windows than ``span``, so the tails hold fewer samples than there are windows.
    """

    def __init__(self, occurrence: np.ndarray, parts: np.ndarray, sub_cfg: SubSeriesConfig):
        self.window = sub_cfg.window()  # its slide w decides which windows count, see secondary
        self.w = sub_cfg.w
        self.parts = parts
        self.slot = np.full(len(occurrence), -1)  # each partition's row among parts, -1 if not one
        self.slot[parts] = np.arange(len(parts))
        self.occurrence = occurrence[parts]
        self.seen = np.zeros(len(parts), dtype=np.int64)
        self.tail = np.zeros((len(parts), self.window.span))

    def secondary(self, label: np.ndarray, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The partition and the code of every counted secondary window that ends at one of ``values``.

        ``values`` are the block's sub-series samples, run by run as ``label`` sorts them.
        """
        label = self.slot[label]
        values, label = values[label >= 0], label[label >= 0]
        span = self.window.span
        first, size, rank = _runs(label)
        part = label[first]
        # the secondary window ending here starts span samples earlier in the
        # sub-series; it counts when it starts in phase with the slide w and the
        # next in-phase window still ends inside the sub-series
        offset = self.seen[label] + rank
        self.seen[part] += size
        counted = (offset >= span) & ((offset - span) % self.w == 0) & (offset + self.w < self.occurrence[label])
        del offset, rank
        at = np.arange(len(label)) + span * (np.repeat(np.arange(len(part)), size) + 1)
        held = (first + span * np.arange(len(part)))[:, None] + np.arange(span)
        laid = np.empty(len(label) + span * len(part))
        laid[at] = values
        laid[held] = self.tail[part]
        self.tail[part] = laid[held + size[:, None]]
        if not counted.any():
            return label[:0], at[:0]
        windows = window_view(laid, self.window.m, self.window.tau)[at[counted] - span]
        return self.parts[label[counted]], encode_windows(windows)


class _Tally:
    """How many counted secondary windows each partition has of each secondary pattern.

    Only the pairs that occur are kept, as ascending keys
    ``partition * len(codes) + rank of the code in codes``, so the pairs run
    by partition and then by secondary pattern.
    """

    def __init__(self):
        self.codes = np.empty(0, dtype=np.int64)  # the secondary codes met so far, ascending
        self.keys = np.empty(0, dtype=np.int64)
        self.counts = np.empty(0, dtype=np.int64)

    def add(self, owner: np.ndarray, codes: np.ndarray) -> None:
        """Count one secondary window of code ``codes[i]`` for partition ``owner[i]``, for every i."""
        grown = np.sort(np.concatenate([self.codes, codes]))
        grown = grown[entry_mask(grown)]
        if len(grown) > len(self.codes):  # re-key on the longer code list; the key order holds
            row, rank = np.divmod(self.keys, max(len(self.codes), 1))
            self.keys = row * len(grown) + np.searchsorted(grown, self.codes[rank])
            self.codes = grown
        new = np.sort(owner * len(self.codes) + np.searchsorted(self.codes, codes))
        first = np.flatnonzero(entry_mask(new))
        new, added = new[first], np.diff(first, append=len(new))
        where = np.searchsorted(self.keys, new)
        known = where < len(self.keys)
        known[known] = self.keys[where[known]] == new[known]
        self.counts[where[known]] += added[known]
        self.keys = np.insert(self.keys, where[~known], new[~known])
        self.counts = np.insert(self.counts, where[~known], added[~known])


def _entropy_sums(tally: _Tally, counted: np.ndarray, shares: np.ndarray) -> np.ndarray:
    """The sums of h, h_w and h_wt of every partition, as rows.

    The partitions with L pairs are summed together, at most BLOCK // L of them
    (and at least one) per batch, each partition's terms one C-contiguous row.
    """
    # math.log2 of each share, and a numpy sum over each partition's own
    # terms, round exactly as the one-partition formulas do
    log_shares = np.array([[math.log2(k) for k in ks] for ks in shares.tolist()])
    sums = np.zeros((3, len(counted)))
    width = max(len(tally.codes), 1)
    first = np.searchsorted(tally.keys, np.arange(len(counted)) * width)  # each partition's first pair
    lengths = np.diff(first, append=len(tally.keys))
    for length in (np.flatnonzero(np.bincount(lengths)[1:]) + 1).tolist():
        which, batch = np.flatnonzero(lengths == length), max(BLOCK // length, 1)
        for lo in range(0, len(which), batch):
            rows = which[lo : lo + batch]
            p = tally.counts[first[rows, None] + np.arange(length)] / counted[rows, None]
            log_p = np.log2(p)
            # summed over a C-contiguous last axis, each row adds up pairwise
            # exactly as a sum over that partition's terms alone would
            sums[0, rows] = (p * log_p).sum(axis=1)
            for sum_k, k, log_k in zip(sums[1:], shares, log_shares):
                sum_k[rows] = (k[rows, None] * p * (log_p + log_k[rows, None])).sum(axis=1)
    return sums


def _measure(series: TimeSeries, seq: SymbolSequence, sub_cfg) -> dict[str, np.ndarray]:
    """Columns of every partition of ``seq``, from one pass over its windows a block at a time.

    The levels are 1 until :func:`partition_table` sets them.
    """
    sub_cfg = sub_cfg or SubSeriesConfig()
    inverse, entered, w = seq.inverse, seq.entries, seq.config.w
    count = len(seq.pattern_codes)
    occurrence = np.bincount(inverse, minlength=count)
    entries = np.zeros(count, dtype=np.int64)
    counted = np.zeros(count, dtype=np.int64)  # secondary windows counted, per partition
    # only a partition that is not degenerate counts a secondary window
    parts = np.flatnonzero(occurrence >= sub_cfg.min_samples())
    subseries, tally = (_SubSeries(occurrence, parts, sub_cfg) if len(parts) else None), _Tally()
    for lo in range(0, len(seq), BLOCK):
        piece = inverse[lo : lo + BLOCK]
        entries += np.bincount(piece[entered[lo : lo + BLOCK]], minlength=count)
        if subseries is None:
            continue
        # the block's windows by partition and then by index: the keys are
        # distinct, so a plain sort orders them as a stable argsort would
        label, window = np.divmod(np.sort(piece * BLOCK + np.arange(len(piece))), BLOCK)
        owner, codes = subseries.secondary(label, series.samples[(window + lo) * w])
        if len(owner):
            counted += np.bincount(owner, minlength=count)
            tally.add(owner, codes)
    shares = np.array([occurrence / len(seq), entries / seq.entry_count])
    entropy, weighted_entropy, transition_entropy = -_entropy_sums(tally, counted, shares) + 0.0
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
    }


@dataclass(frozen=True, eq=False)
class PartitionTable:
    """Every occurring partition of ``seq`` as columns, one array per measure.

    Row i is the partition of ``seq.patterns[i]``, shown as ``seq.shown[i]``.
    Each array has one entry per row. ``occurrence_share`` and ``entry_share``
    are K and K^ above; levels are 1-based, 1 being the highest-entropy group.
    The entry start indices are no column: :meth:`entry_indices` derives
    those of the rows asked for from ``seq``.
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

    def entry_indices(self, rows) -> list[np.ndarray]:
        """Start indices of the windows that enter each of ``rows``, one array per row.

        ``rows`` must ascend without repeats. One pass over the windows picks the
        entrances into any of them, and one stable sort groups them by row.
        """
        rows = np.asarray(rows, dtype=np.int64)
        if np.any(np.diff(rows) <= 0):
            raise ValueError("rows must ascend without repeats")
        asked = np.zeros(len(self.entries), dtype=bool)
        asked[rows] = True
        inverse = self.seq.inverse
        picked = np.flatnonzero(asked[inverse] & self.seq.entries)
        picked = picked[np.argsort(inverse[picked], kind="stable")]
        return np.split(picked * self.seq.config.w, np.cumsum(self.entries[rows]))[:-1]


RANK_KEYS = ("weighted_entropy", "transition_entropy")
LEVEL_KEYS = ("weighted_level", "transition_level")


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
    qualifying = np.flatnonzero(gaps > gap_fraction * e[0])
    # the largest max_levels - 1 qualifying gaps, earliest first on ties, in place order
    chosen = np.sort(qualifying[np.argsort(-gaps[qualifying], kind="stable")[: max_levels - 1]])
    # a boundary b parts entries b and b + 1, so entry k's level counts the boundaries below k
    return np.searchsorted(chosen, np.arange(e.size)) + 1


def partition_table(
    series: TimeSeries,
    seq: SymbolSequence,
    sub_cfg: SubSeriesConfig | None = None,
    levels: LevelConfig | None = None,
) -> PartitionTable:
    """Measure and level every occurring partition in one pass, indexed like ``seq.shown``."""
    levels = levels or LevelConfig()
    columns = _measure(series, seq, sub_cfg)
    for by, attr in zip(RANK_KEYS, LEVEL_KEYS):
        # rows are in pattern order, so a stable sort ranks ties in pattern order
        ranked = np.argsort(-columns[by], kind="stable")
        columns[attr][ranked] = _level_labels(columns[by][ranked], levels.gap_fraction, levels.max_levels)
    return PartitionTable(seq, **columns)

