"""Uniformly sampled scalar series: container, file ingestion, serialization.

Serialization includes :func:`write_rows`, the one CSV row renderer that
:func:`dump_series` and every writer in :mod:`ordmaps.exports` share.
"""

from __future__ import annotations

import hashlib
import math
import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigError, ParseError, TooShortError

_DT_COMMENT = re.compile(r"dt\s*=\s*([^\s,]+)")


@dataclass(eq=False)
class TimeSeries:
    """Scalar samples taken at a constant interval ``dt``.

    ``origin_time`` is the timestamp of ``samples[0]``; it matters only for
    bookkeeping after transient removal. Samples are coerced to float64 and
    must all be finite.
    """

    samples: np.ndarray
    dt: float
    origin_time: float = 0.0

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=np.float64)
        if self.samples.ndim != 1:
            raise ValueError(f"samples must be one-dimensional, got shape {self.samples.shape}")
        check_dt(self.dt)
        finite = np.isfinite(self.samples)
        if not finite.all():
            bad = int(np.flatnonzero(~finite)[0])
            raise ValueError(f"non-finite sample at index {bad}")

    def __len__(self) -> int:
        return len(self.samples)

    @property
    def times(self) -> np.ndarray:
        return self.origin_time + self.dt * np.arange(len(self.samples))


def check_dt(dt: float) -> float:
    """The sample interval itself if it is positive and finite."""
    if not 0.0 < dt < math.inf:
        raise ConfigError(f"dt must be positive and finite, got {dt}")
    return dt


def load_series(path, format: str = "csv", dt: float | None = None) -> TimeSeries:
    """Read a single-column series file.

    One numeric value per row. Lines starting with ``#`` are comments; a
    comment of the form ``# dt=0.01`` supplies the sample interval when the
    caller does not. A single non-numeric header row (undecodable bytes count
    as text) is skipped. Any other non-numeric cell or unparsable ``dt``
    comment raises :class:`ParseError` naming the physical row.
    """
    if format not in ("csv", "whitespace"):
        raise ValueError(f"format must be 'csv' or 'whitespace', got {format!r}")
    path = Path(path)
    header_dt = None
    header_skipped = False
    values: list[float] = []
    # undecodable bytes become U+FFFD, which no cell parses as a number
    with open(path, encoding="utf-8", errors="replace") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line:
                continue
            if line.startswith("#"):
                match = _DT_COMMENT.search(line)
                if match:
                    try:
                        header_dt = float(match.group(1))
                    except ValueError:
                        raise ParseError(
                            f"cannot parse dt {match.group(1)!r} at row {lineno}", row=lineno
                        ) from None
                continue
            cells = line.split(",") if format == "csv" else line.split()
            cells = [c.strip() for c in cells if c.strip()]
            if len(cells) != 1:
                raise ParseError(
                    f"expected one value per row, row {lineno} has {len(cells)}", row=lineno
                )
            try:
                value = float(cells[0])
            except ValueError:
                if not values and not header_skipped:
                    header_skipped = True
                    continue
                raise ParseError(
                    f"non-numeric value {cells[0]!r} at row {lineno}", row=lineno
                ) from None
            if not math.isfinite(value):
                raise ParseError(f"non-finite value at row {lineno}", row=lineno)
            values.append(value)
    if len(values) < 2:
        raise TooShortError(f"{path} holds {len(values)} samples; at least 2 required")
    if dt is None:
        dt = header_dt
    if dt is None:
        raise ConfigError(f"dt not given and no '# dt=...' header found in {path}")
    return TimeSeries(np.asarray(values), dt)


CHUNK = 4096


def write_rows(fh, columns: list[np.ndarray]) -> None:
    """Write row k of every column as one comma-joined line, CHUNK rows per write.

    A column's dtype picks its cells: float64 as ``%.17g`` (round-trip exact,
    the text of ``"{:.17g}".format``), integers as ``%d`` and anything else
    as ``%s``. Each chunk is one ``%`` of the row format repeated once per
    row. Within a chunk every distinct float bit pattern is formatted once
    and shared by all float cells holding it, so -0.0 keeps its sign.
    """
    floats = [j for j, column in enumerate(columns) if column.dtype == np.float64]
    row = ",".join("%d" if column.dtype.kind in "iu" else "%s" for column in columns) + "\n"
    rows = len(columns[0]) if columns else 0
    for lo in range(0, rows, CHUNK):
        chunk = [column[lo : lo + CHUNK] for column in columns]
        block = np.empty((len(chunk[0]), len(chunk)), dtype=object)
        for j, cells in enumerate(chunk):
            if j not in floats:
                block[:, j] = cells
        if floats:
            bits = np.stack([chunk[j] for j in floats]).view(np.int64)
            distinct, inverse = np.unique(bits.ravel(), return_inverse=True)
            values = distinct.view(np.float64).tolist()
            text = np.array(("%.17g\n" * len(values) % tuple(values)).splitlines(), dtype=object)
            block[:, floats] = text[inverse.reshape(bits.shape)].T
        fh.write(row * len(block) % tuple(block.ravel().tolist()))


def dump_series(series: TimeSeries, path) -> None:
    """Write the canonical single-column form read back by :func:`load_series`."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# dt={series.dt:.17g}\nx\n")
        write_rows(fh, [series.samples])


def series_sha256(series: TimeSeries) -> str:
    """Content hash of the samples and interval, independent of file layout."""
    digest = hashlib.sha256()
    digest.update(np.ascontiguousarray(series.samples, dtype="<f8").tobytes())
    digest.update(f"dt={series.dt:.17g}".encode())
    return digest.hexdigest()
