"""Transitions between entropy levels along the symbol sequence."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .encoding import SymbolSequence
from .errors import PatternAbsentError, TooShortError
from .ranking import LEVEL_KEYS, PartitionReport, PartitionTable


@dataclass(eq=False)
class LevelNetwork:
    """Directed transition counts between level labels 1..levels."""

    levels: int
    weights: np.ndarray

    def weight(self, a: int, b: int) -> int:
        return int(self.weights[a - 1, b - 1])

    def total(self) -> int:
        return int(self.weights.sum())


def level_sequence(
    seq: SymbolSequence, reports: PartitionTable | list[PartitionReport], by: str = "transition_level"
) -> np.ndarray:
    """Map every window to the level of its partition.

    ``reports`` is the :class:`PartitionTable` of ``seq``, or report rows
    that cover every occurring pattern.
    """
    if by not in LEVEL_KEYS:
        raise ValueError(f"by must be one of {LEVEL_KEYS}, got {by!r}")
    if isinstance(reports, PartitionTable):
        if reports.seq is not seq:
            raise ValueError("the partition table belongs to another symbol sequence")
        return getattr(reports, by)[seq.inverse]
    level_of = {r.pattern: getattr(r, by) for r in reports}
    try:
        levels = np.array([level_of[pattern] for pattern in seq.patterns], dtype=np.int64)
    except KeyError as exc:
        raise PatternAbsentError(f"no report covers occurring pattern {exc.args[0].dashed()}") from None
    return levels[seq.inverse]


def entry_level_sequence(
    seq: SymbolSequence, reports: PartitionTable | list[PartitionReport], by: str = "transition_level"
) -> np.ndarray:
    """Level labels restricted to entry events (first window of each run)."""
    return level_sequence(seq, reports, by)[seq.entries]


def build_level_network(level_seq) -> LevelNetwork:
    """Count consecutive level transitions, self-loops included."""
    arr = np.asarray(level_seq, dtype=np.int64)
    if arr.size < 2:
        raise TooShortError(f"need at least 2 level labels, got {arr.size}")
    if arr.min() < 1:
        raise ValueError("level labels must be 1-based positive integers")
    n = int(arr.max())
    pair_keys = (arr[:-1] - 1) * n + (arr[1:] - 1)
    weights = np.bincount(pair_keys, minlength=n * n).reshape(n, n)
    return LevelNetwork(levels=n, weights=weights)
