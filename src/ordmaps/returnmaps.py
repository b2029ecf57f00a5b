"""First return maps from entry points or local maxima.

A return map chains the sample values read at an ascending list of entry
indices: successive values (v_k, v_k+1) form its pairs, so the second
element of each pair is the first of the next. Values are raw amplitudes
at the entry samples; nothing is interpolated.

The classical comparison baseline uses local maxima of the series as the
section. Maxima are strict (both neighbours smaller); a plateau of equal
values counts once, at its first index, when the plateau tops both sides.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import EmptyMapError, TooShortError
from .series import TimeSeries


@dataclass(eq=False)
class ReturnMap:
    """Chained first-return pairs over one section.

    ``values[k]`` is the sample at ``entry_indices[k]``; pair k is
    (values[k], values[k+1]). ``entry_tags`` optionally labels each entry
    (used for the sign split of maxima maps).
    """

    values: np.ndarray
    entry_indices: np.ndarray
    source: str
    entry_tags: tuple[str, ...] | None = None

    @property
    def pairs(self) -> np.ndarray:
        return np.column_stack([self.values[:-1], self.values[1:]])

    def __len__(self) -> int:
        return len(self.values) - 1


@dataclass(frozen=True)
class DiagonalSplit:
    above_count: int
    below_count: int
    on_count: int


def frm_from_entries(series: TimeSeries, entry_indices, source: str = "partition") -> ReturnMap:
    """Return map over the given strictly ascending entry indices."""
    idx = np.asarray(entry_indices, dtype=np.int64)
    if idx.ndim != 1:
        raise ValueError(f"entry indices must be one-dimensional, got shape {idx.shape}")
    if idx.size < 2:
        raise EmptyMapError(
            f"need at least 2 entry points to form a pair, got {idx.size}", count=int(idx.size)
        )
    if np.any(np.diff(idx) <= 0):
        raise ValueError("entry indices must be strictly ascending")
    if idx[0] < 0 or idx[-1] >= len(series.samples):
        raise ValueError(
            f"entry indices must lie in [0, {len(series.samples) - 1}]"
        )
    return ReturnMap(
        values=series.samples[idx].copy(), entry_indices=idx, source=source
    )


def local_maxima_indices(series: TimeSeries) -> np.ndarray:
    """Indices of strict local maxima, plateau-aware.

    Runs of equal values are compressed first; an interior run higher than
    both neighbouring runs contributes the index of its first sample.
    Endpoints never qualify.
    """
    x = series.samples
    if len(x) < 3:
        raise TooShortError(f"need at least 3 samples to find maxima, got {len(x)}")
    run_starts = np.concatenate(([0], np.flatnonzero(x[1:] != x[:-1]) + 1))
    run_values = x[run_starts]
    if run_values.size < 3:
        return np.empty(0, dtype=np.int64)
    interior = (run_values[1:-1] > run_values[:-2]) & (run_values[1:-1] > run_values[2:])
    return run_starts[1:-1][interior].astype(np.int64)


def maxima_frm(series: TimeSeries, sign_split: bool = False) -> ReturnMap:
    """Return map over all local maxima in temporal order.

    With ``sign_split`` every maximum is tagged ``pos`` or ``neg`` by the
    sign of its amplitude (zero counts as positive); the map itself is
    unchanged.
    """
    idx = local_maxima_indices(series)
    if idx.size < 3:
        raise TooShortError(f"need at least 3 local maxima, found {idx.size}")
    rm = frm_from_entries(series, idx, source="maxima")
    if sign_split:
        rm.entry_tags = tuple("pos" if v >= 0.0 else "neg" for v in rm.values)
    return rm


def diagonal_split(rm: ReturnMap) -> DiagonalSplit:
    """Count pairs above, below and exactly on the identity diagonal."""
    return _split(rm.values[1:], rm.values[:-1])


def wing_split(rm: ReturnMap, center: float = 0.0) -> DiagonalSplit:
    """Split pairs by the cross-diagonal v_next = 2*center - v.

    On a double-lobed attractor whose lobes sit at opposite amplitudes the
    pair cloud of a section confined to one lobe lands entirely on one side
    of this line, while a section visited from both lobes straddles it. The
    identity diagonal cannot tell the lobes apart (a pair just above it and
    one just below may belong to the same lobe), so lobe membership gets
    its own split. above_count holds the high-amplitude side.
    """
    return _split(rm.values[:-1] + rm.values[1:], 2.0 * center)


def _split(a, b) -> DiagonalSplit:
    return DiagonalSplit(
        above_count=int((a > b).sum()),
        below_count=int((a < b).sum()),
        on_count=int((a == b).sum()),
    )
