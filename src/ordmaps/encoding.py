r"""Ordinal patterns and window symbolization.

A window takes ``m`` samples spaced ``tau`` apart, so it spans
``L = (m - 1) * tau`` samples; consecutive windows slide by ``w``. A series
of length ``N`` yields ``floor((N - L - 1) / w) + 1`` windows, each reduced
to the permutation describing the relative order of its values
(Bandt-Pompe style symbolic dynamics).

Two equivalent ranking schemes are supported:

* ``chronological``: list the 1-based window positions of the values
  sorted in ascending amplitude. ``(1.0, 3.0, 2.0) -> (1, 3, 2)``.
* ``amplitude``: per-position ranks, rank 1 for the highest value and
  rank m for the lowest. ``(1.0, 3.0, 2.0) -> (3, 1, 2)``.

Ties are broken by treating the earlier index as the smaller value.
Patterns are stored canonically in chronological form (one hashable key
per partition regardless of display scheme); the amplitude rendering is
derived on demand via :func:`chron_to_amplitude`.

A :class:`SymbolSequence` decodes its distinct keys once, as one array of
digit rows, and renders the dashed text of every distinct pattern under its
own ranking once, as the column ``shown`` that every writer indexes.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ConfigError, TooShortError
from .series import TimeSeries

RANKINGS = ("amplitude", "chronological")


@dataclass(frozen=True, order=True)
class OrdinalPattern:
    """A permutation of 1..m identifying one ordinal partition."""

    perm: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "perm", tuple(map(int, self.perm)))
        m = len(self.perm)
        if m < 2 or sorted(self.perm) != list(range(1, m + 1)):
            raise ValueError(f"not a permutation of 1..m with m >= 2: {self.perm}")

    @property
    def m(self) -> int:
        return len(self.perm)

    def dashed(self) -> str:
        return "-".join(str(v) for v in self.perm)

    @classmethod
    def from_dashed(cls, text: str) -> "OrdinalPattern":
        try:
            values = tuple(int(part) for part in text.strip().split("-"))
        except ValueError:
            raise ValueError(f"cannot parse pattern {text!r}; expected e.g. '4-3-2-1'") from None
        return cls(values)

    def __str__(self) -> str:
        return self.dashed()


def chron_to_amplitude(pattern: OrdinalPattern) -> OrdinalPattern:
    """Amplitude rendering of a chronological pattern.

    If position j has ascending rank r_j, its amplitude rank is m + 1 - r_j.
    """
    m = pattern.m
    ascending_rank = [0] * m
    for rank, idx in enumerate(pattern.perm, start=1):
        ascending_rank[idx - 1] = rank
    return OrdinalPattern(tuple(m + 1 - r for r in ascending_rank))


def amplitude_to_chron(pattern: OrdinalPattern) -> OrdinalPattern:
    """Inverse of :func:`chron_to_amplitude`."""
    m = pattern.m
    chron = [0] * m
    for idx, amp_rank in enumerate(pattern.perm, start=1):
        chron[m - amp_rank] = idx
    return OrdinalPattern(tuple(chron))


def pattern_of_window(values, ranking: str = "chronological") -> OrdinalPattern:
    """Ordinal pattern of a single window under the requested ranking."""
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim != 1 or arr.size < 2:
        raise ValueError(f"window must be a 1-d sequence of length >= 2, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError("window contains non-finite values")
    if ranking not in RANKINGS:
        raise ValueError(f"ranking must be one of {RANKINGS}, got {ranking!r}")
    # stable ascending argsort implements the earlier-index-is-smaller tie rule
    order = np.argsort(arr, kind="stable")
    chron = OrdinalPattern(tuple(int(i) + 1 for i in order))
    if ranking == "chronological":
        return chron
    return chron_to_amplitude(chron)


@dataclass(frozen=True)
class WindowConfig:
    """Window geometry and display ranking for symbolization.

    Defaults match the main Lorenz experiment: windows of 4 samples spaced
    6 apart, sliding by 1, displayed chronologically.
    """

    m: int = 4
    tau: int = 6
    w: int = 1
    ranking: str = "chronological"

    def __post_init__(self):
        if not 2 <= self.m <= 15:
            # pattern keys are base-(m+1) int64 codes; 15 is the overflow bound
            raise ConfigError(f"m must lie in [2, 15], got {self.m}")
        if self.tau < 1:
            raise ConfigError(f"tau must be at least 1, got {self.tau}")
        if self.w < 1:
            raise ConfigError(f"w must be at least 1, got {self.w}")
        if self.ranking not in RANKINGS:
            raise ConfigError(f"ranking must be one of {RANKINGS}, got {self.ranking!r}")

    @property
    def span(self) -> int:
        """Samples covered by one window minus one: (m - 1) * tau."""
        return (self.m - 1) * self.tau


def window_count(n: int, cfg: WindowConfig) -> int:
    """Number of windows a length-n series yields under cfg."""
    if n < cfg.span + 1:
        return 0
    return (n - cfg.span - 1) // cfg.w + 1


def encode_perm_rows(rows: np.ndarray) -> np.ndarray:
    """Pack permutation rows into int64 keys preserving lexicographic order."""
    m = rows.shape[1]
    weights = (m + 1) ** np.arange(m - 1, -1, -1, dtype=np.int64)
    return rows.astype(np.int64, copy=False) @ weights


def decode_perm_rows(codes: np.ndarray, m: int) -> np.ndarray:
    """Inverse of :func:`encode_perm_rows`: the m digits of each key, one row per key."""
    powers = (m + 1) ** np.arange(m - 1, -1, -1, dtype=np.int64)
    return codes[:, None] // powers % (m + 1)


def pattern_code(pattern: OrdinalPattern) -> int:
    return int(encode_perm_rows(np.asarray([pattern.perm]))[0])


def decode_pattern(code: int, m: int) -> OrdinalPattern:
    base = m + 1
    digits = []
    for _ in range(m):
        code, digit = divmod(code, base)
        digits.append(int(digit))
    return OrdinalPattern(tuple(reversed(digits)))


def entry_mask(codes: np.ndarray) -> np.ndarray:
    """True where a window's pattern differs from its predecessor's."""
    mask = np.empty(codes.shape, dtype=bool)
    if codes.size:
        mask[0] = True
        mask[1:] = codes[1:] != codes[:-1]
    return mask


@dataclass(frozen=True, eq=False)
class SymbolSequence:
    """Per-window ordinal patterns of one series.

    ``codes`` holds the canonical chronological pattern of each window as an
    int64 key (lexicographic pattern order equals numeric key order);
    ``start_indices[k]`` is the source index anchoring window k. The display
    ranking lives in ``config`` and only affects rendering.

    The windows are grouped by pattern once, on first use, and every module
    reads that one grouping: ``patterns``, ``inverse``, ``windows``,
    ``entries`` and ``shown``. The class is frozen so the grouping cannot go
    stale.
    """

    codes: np.ndarray
    start_indices: np.ndarray
    source_len: int
    config: WindowConfig

    def __len__(self) -> int:
        return len(self.codes)

    @cached_property
    def _unique(self) -> tuple[np.ndarray, np.ndarray]:
        return np.unique(self.codes, return_inverse=True)

    @cached_property
    def patterns(self) -> tuple[OrdinalPattern, ...]:
        """The distinct patterns, all decoded at once, in lexicographic order."""
        digits = iter(decode_perm_rows(self._unique[0], self.config.m).ravel().tolist())
        return tuple(map(OrdinalPattern, zip(*[digits] * self.config.m)))

    @cached_property
    def shown(self) -> np.ndarray:
        """The dashed text of each of ``patterns`` under ``config.ranking``, as an object array to index."""
        m = self.config.m
        rows = decode_perm_rows(self._unique[0], m)
        if self.config.ranking == "amplitude":  # see chron_to_amplitude
            rows = m - rows.argsort(axis=1)
        text = ("-".join(["%d"] * m) + "\n") * len(rows) % tuple(rows.ravel().tolist())
        return np.array(text.splitlines(), dtype=object)

    @property
    def inverse(self) -> np.ndarray:
        """For each window, the index of its pattern in ``patterns``."""
        return self._unique[1]

    @cached_property
    def windows(self) -> tuple[np.ndarray, ...]:
        """The ascending window indices of each pattern."""
        order = np.argsort(self.inverse, kind="stable")
        return tuple(np.split(order, np.cumsum(np.bincount(self.inverse))[:-1]))

    @cached_property
    def entries(self) -> np.ndarray:
        """The entry mask of the windows, see :func:`entry_mask`."""
        return entry_mask(self.codes)

    @cached_property
    def entry_count(self) -> int:
        return int(self.entries.sum())

    def windows_of(self, pattern: OrdinalPattern) -> np.ndarray:
        """The ascending indices of the windows carrying the pattern; empty if none do."""
        i = bisect_left(self.patterns, pattern)
        if i < len(self.patterns) and self.patterns[i] == pattern:
            return self.windows[i]
        return np.empty(0, dtype=np.intp)

    @property
    def symbols(self) -> list[OrdinalPattern]:
        return [self.patterns[i] for i in self.inverse.tolist()]

    def symbol(self, k: int) -> OrdinalPattern:
        return self.patterns[self.inverse[k]]


def symbolize(series: TimeSeries, cfg: WindowConfig | None = None) -> SymbolSequence:
    """Slide windows over the series and rank each one.

    Raises :class:`TooShortError` when the series cannot host a single
    window, i.e. when it has fewer than (m - 1) * tau + 1 samples.
    """
    cfg = cfg or WindowConfig()
    n = len(series.samples)
    if n < cfg.span + 1:
        raise TooShortError(
            f"need at least {cfg.span + 1} samples for m={cfg.m}, tau={cfg.tau}; got {n}"
        )
    count = window_count(n, cfg)
    starts = np.arange(0, count * cfg.w, cfg.w, dtype=np.int64)
    offsets = np.arange(0, cfg.span + 1, cfg.tau, dtype=np.int64)
    windows = series.samples[starts[:, None] + offsets[None, :]]
    order = windows.argsort(axis=1, kind="stable")
    codes = encode_perm_rows(order + 1)
    return SymbolSequence(codes=codes, start_indices=starts, source_len=n, config=cfg)


def distinct_patterns(seq: SymbolSequence) -> list[tuple[OrdinalPattern, int]]:
    """Occurring patterns with their window counts, in lexicographic order."""
    return [(pattern, len(windows)) for pattern, windows in zip(seq.patterns, seq.windows)]


def display_pattern(pattern: OrdinalPattern, ranking: str) -> OrdinalPattern:
    """Render a canonical (chronological) pattern under the given scheme."""
    if ranking not in RANKINGS:
        raise ValueError(f"ranking must be one of {RANKINGS}, got {ranking!r}")
    if ranking == "chronological":
        return pattern
    return chron_to_amplitude(pattern)


def canonical_pattern(pattern: OrdinalPattern, ranking: str) -> OrdinalPattern:
    """Map a user-facing pattern in the given scheme to canonical form."""
    if ranking not in RANKINGS:
        raise ValueError(f"ranking must be one of {RANKINGS}, got {ranking!r}")
    if ranking == "chronological":
        return pattern
    return amplitude_to_chron(pattern)
