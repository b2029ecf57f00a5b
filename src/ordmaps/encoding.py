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

Every window is a row of :func:`window_view`, one read-only view of the
samples. :func:`encode_windows` ranks such rows ``BLOCK // 4`` at a time into
their slice of the keys, so memory beyond the keys stays at one chunk's
ranks however long the series. :func:`symbolize` and the secondary pass of
``ranking`` rank rows of the view, and ``embedding`` copies it.

A :class:`SymbolSequence` is the keys of its windows and their
:class:`WindowConfig`, nothing more: window k starts at sample ``k * w``, so
no start is stored. It groups its windows by key once, as the distinct keys
and each window's index into them, and renders the dashed text of every
distinct pattern under its own ranking once, as the column ``shown`` that
every writer indexes. A one-pattern query looks the pattern's key up among
the distinct keys and scans the windows' indices once; it decodes no pattern.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, cached_property

import numpy as np

from .errors import ConfigError, TooShortError
from .series import TimeSeries

RANKINGS = ("amplitude", "chronological")

BLOCK = 1 << 14
"""Windows per block of the partition pass; :func:`encode_windows` ranks a quarter block at a time."""


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


def _amplitude_rows(rows: np.ndarray) -> np.ndarray:
    """Amplitude rendering of chronological rows: position j of ascending rank r_j shows rank m + 1 - r_j."""
    return rows.shape[1] - rows.argsort(axis=1)


def chron_to_amplitude(pattern: OrdinalPattern) -> OrdinalPattern:
    """Amplitude rendering of a chronological pattern."""
    return OrdinalPattern(_amplitude_rows(np.asarray([pattern.perm]))[0])


def amplitude_to_chron(pattern: OrdinalPattern) -> OrdinalPattern:
    """Inverse of :func:`chron_to_amplitude`: the positions from amplitude rank m up to rank 1."""
    return OrdinalPattern(np.argsort(np.negative(pattern.perm)) + 1)


def pattern_of_window(values, ranking: str = "chronological") -> OrdinalPattern:
    """Ordinal pattern of a single window under the requested ranking."""
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim != 1 or arr.size < 2:
        raise ValueError(f"window must be a 1-d sequence of length >= 2, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError("window contains non-finite values")
    # stable ascending argsort implements the earlier-index-is-smaller tie rule
    return display_pattern(OrdinalPattern(np.argsort(arr, kind="stable") + 1), ranking)


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
    return _count(n, cfg.span, cfg.w)


def _count(n: int, span: int, w: int) -> int:
    """Windows covering span + 1 of n samples and sliding by w: floor((n - span - 1) / w) + 1, or none."""
    return (n - span - 1) // w + 1 if n > span else 0


def window_view(samples: np.ndarray, m: int, tau: int, w: int = 1) -> np.ndarray:
    """The windows of m samples spaced tau apart, sliding by w, as rows of a read-only view of contiguous samples."""
    samples = np.ascontiguousarray(samples, dtype=np.float64)
    view = np.ndarray((_count(len(samples), (m - 1) * tau, w), m), np.float64, samples, 0, (8 * w, 8 * tau))
    view.setflags(write=False)
    return view


@cache
def _powers(m: int) -> np.ndarray:
    """The base-(m+1) place values of a key's m digits, most significant first."""
    powers = (m + 1) ** np.arange(m - 1, -1, -1, dtype=np.int64)
    powers.flags.writeable = False  # one array shared by every caller
    return powers


def encode_perm_rows(rows: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Pack permutation rows into int64 keys preserving lexicographic order, into ``out`` if given."""
    return np.matmul(rows.astype(np.int64, copy=False), _powers(rows.shape[1]), out=out)


def decode_perm_rows(codes: np.ndarray, m: int) -> np.ndarray:
    """Inverse of :func:`encode_perm_rows`: the m digits of each key, one row per key."""
    return codes[:, None] // _powers(m) % (m + 1)


def pattern_code(pattern: OrdinalPattern) -> int:
    return int(encode_perm_rows(np.asarray([pattern.perm]))[0])


def decode_pattern(code: int, m: int) -> OrdinalPattern:
    return OrdinalPattern(decode_perm_rows(np.asarray([code]), m)[0])


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
    int64 key (lexicographic pattern order equals numeric key order). Window
    k starts at sample ``k * config.w``; ``start_indices`` gathers those
    starts on first read, for the writers that print one per window. The
    display ranking lives in ``config`` and only affects rendering.

    The windows are grouped by pattern once, on first use, and every module
    reads that one grouping: ``pattern_codes``, ``inverse``, ``entries`` and
    ``shown`` as arrays, and ``patterns`` as one object per pattern, decoded
    only when read. A caller that asks about one pattern finds its row with
    :meth:`index`, a search of ``pattern_codes`` that decodes nothing, and
    its windows with one scan, ``inverse == index``. The class is frozen so
    the grouping cannot go stale.
    """

    codes: np.ndarray
    config: WindowConfig

    def __len__(self) -> int:
        return len(self.codes)

    @cached_property
    def start_indices(self) -> np.ndarray:
        """The sample at which each window starts, as int64."""
        return np.arange(len(self.codes), dtype=np.int64) * self.config.w

    @cached_property
    def _unique(self) -> tuple[np.ndarray, np.ndarray]:
        return np.unique(self.codes, return_inverse=True)

    @property
    def pattern_codes(self) -> np.ndarray:
        """The distinct codes, ascending: one per entry of ``patterns``, none decoded."""
        return self._unique[0]

    @cached_property
    def patterns(self) -> tuple[OrdinalPattern, ...]:
        """The distinct patterns, all decoded at once, in lexicographic order."""
        digits = iter(decode_perm_rows(self.pattern_codes, self.config.m).ravel().tolist())
        return tuple(map(OrdinalPattern, zip(*[digits] * self.config.m)))

    @cached_property
    def shown(self) -> np.ndarray:
        """The dashed text of each of ``patterns`` under ``config.ranking``, as an object array to index."""
        m = self.config.m
        rows = decode_perm_rows(self.pattern_codes, m)
        if self.config.ranking == "amplitude":
            rows = _amplitude_rows(rows)
        text = ("-".join(["%d"] * m) + "\n") * len(rows) % tuple(rows.ravel().tolist())
        return np.array(text.splitlines(), dtype=object)

    @property
    def inverse(self) -> np.ndarray:
        """For each window, the index of its pattern in ``patterns``."""
        return self._unique[1]

    @cached_property
    def entries(self) -> np.ndarray:
        """The entry mask of the windows, see :func:`entry_mask`."""
        return entry_mask(self.codes)

    @cached_property
    def entry_count(self) -> int:
        return int(self.entries.sum())

    def index(self, pattern: OrdinalPattern) -> int:
        """The index of the pattern in ``pattern_codes``, or -1 if no window carries it."""
        if pattern.m != self.config.m:
            return -1
        code = pattern_code(pattern)
        i = int(np.searchsorted(self.pattern_codes, code))
        return i if i < len(self.pattern_codes) and self.pattern_codes[i] == code else -1


def encode_windows(windows: np.ndarray) -> np.ndarray:
    """The key of each row of the (k, m) array ``windows``, ranked a chunk of rows at a time.

    A chunk of BLOCK // 4 rows is argsorted and encoded into its slice of the
    result, so no array of k * m ranks is ever held.
    """
    codes = np.empty(len(windows), dtype=np.int64)
    step = BLOCK // 4
    for lo in range(0, len(windows), step):
        # a stable argsort gives the earlier index the smaller rank on ties
        order = windows[lo : lo + step].argsort(axis=1, kind="stable")
        order += 1
        encode_perm_rows(order, out=codes[lo : lo + step])
    return codes


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
    return SymbolSequence(encode_windows(window_view(series.samples, cfg.m, cfg.tau, cfg.w)), cfg)


def distinct_patterns(seq: SymbolSequence) -> list[tuple[OrdinalPattern, int]]:
    """Occurring patterns with their window counts, in lexicographic order."""
    return list(zip(seq.patterns, np.bincount(seq.inverse).tolist()))


def _convert(pattern: OrdinalPattern, ranking: str, amplitude) -> OrdinalPattern:
    """The pattern itself under the chronological ranking, ``amplitude(pattern)`` under the amplitude one."""
    if ranking not in RANKINGS:
        raise ValueError(f"ranking must be one of {RANKINGS}, got {ranking!r}")
    return pattern if ranking == "chronological" else amplitude(pattern)


def display_pattern(pattern: OrdinalPattern, ranking: str) -> OrdinalPattern:
    """Render a canonical (chronological) pattern under the given scheme."""
    return _convert(pattern, ranking, chron_to_amplitude)


def canonical_pattern(pattern: OrdinalPattern, ranking: str) -> OrdinalPattern:
    """Map a user-facing pattern in the given scheme to canonical form."""
    return _convert(pattern, ranking, amplitude_to_chron)
