"""Uniformly sampled scalar series: container, file ingestion, serialization.

Ingestion is :func:`load_series`, which converts a file a batch of rows at a
time with one ``float`` map per batch and reads a batch line by line only when
it holds something other than bare numbers. Serialization includes
:func:`write_rows`, the one CSV row renderer that :func:`dump_series` and
every writer in :mod:`ordmaps.exports` share, and :class:`SampleText`, the
text of every sample cell, which a run renders once (or reads from the CLI's
input cache) to copy the sample cells of its files from it.
"""

from __future__ import annotations

import hashlib
import io
import math
import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigError, ParseError, TooShortError

_DT_COMMENT = re.compile(r"dt\s*=\s*([^\s,]+)")
_BATCH = 1 << 16  # characters per batch of lines read, bytes per block counted
FORMATS = ("csv", "whitespace")  # cells split at commas, or at runs of whitespace


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
        # a finite sum proves every sample finite, and no BLAS call is made to leave its threads spinning
        with np.errstate(over="ignore", invalid="ignore"):
            proof = np.add.reduce(self.samples)
        if not math.isfinite(proof) and not np.isfinite(self.samples).all():
            bad = int(np.flatnonzero(~np.isfinite(self.samples))[0])
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
    comment raises :class:`ParseError` naming the physical row. A leading
    UTF-8 byte-order mark is dropped.

    A first pass counts the lines to size the output array, so memory beyond
    it stays one batch however long the file. Then each batch of lines is
    converted by one ``float`` map when its data rows are bare finite numbers
    and its ``dt`` comments parse; any other batch is read line by line.
    """
    if format not in FORMATS:
        raise ValueError(f"format must be one of {FORMATS}, got {format!r}")
    path = Path(path)
    header_dt = None
    count = row = 0
    first = True  # no data row read yet: the next one may be the header
    with open(path, "rb") as raw:
        samples = np.empty(_line_bound(raw))
        raw.seek(0)
        # undecodable bytes become U+FFFD, which no cell parses as a number
        text = io.TextIOWrapper(raw, encoding="utf-8-sig", errors="replace")
        while batch := text.readlines(_BATCH):
            lines = list(map(str.strip, batch))
            cells = [line for line in lines if line and line[0] != "#"]
            # comments are rare: look for them only when rows and blanks do not add up
            comments = []
            if len(cells) + lines.count("") < len(lines):
                comments = [line for line in lines if line[:1] == "#"]
            values, batch_dt = _bulk(cells, comments) or _scan(lines, row, format, first)
            samples[count : count + len(values)] = values
            count += len(values)
            header_dt = header_dt if batch_dt is None else batch_dt
            first = first and not cells
            row += len(batch)
    if count < 2:
        raise TooShortError(f"{path} holds {count} samples; at least 2 required")
    if dt is None:
        dt = header_dt
    if dt is None:
        raise ConfigError(f"dt not given and no '# dt=...' header found in {path}")
    return TimeSeries(samples[:count], dt)


def _line_bound(raw) -> int:
    """At least the number of lines in the rest of a binary file.

    A line ends at ``\\n``, ``\\r\\n`` or ``\\r``; a ``\\r\\n`` split between two
    reads counts twice, which only loosens the bound.
    """
    bound = 1
    while block := raw.read(_BATCH):
        bound += block.count(b"\n") + block.count(b"\r") - block.count(b"\r\n")
    return bound


def _bulk(cells: list[str], comments: list[str]):
    """The values and last ``dt`` of a batch of bare numbers; None if any line needs :func:`_scan`."""
    try:
        dts = [float(match.group(1)) for match in map(_DT_COMMENT.search, comments) if match]
        values = np.fromiter(map(float, cells), np.float64, len(cells))
    except ValueError:
        return None
    if not np.isfinite(values).all():
        return None
    return values, (dts[-1] if dts else None)


def _scan(lines: list[str], row: int, format: str, first: bool):
    """The values and last ``dt`` of a batch read line by line; ``row`` lines precede it.

    Skips the header when ``first`` and raises :class:`ParseError` at the
    batch's first bad line.
    """
    values, header_dt = [], None
    for lineno, line in enumerate(lines, start=row + 1):
        if not line:
            continue
        if line[0] == "#":
            match = _DT_COMMENT.search(line)
            if match:
                try:
                    header_dt = float(match.group(1))
                except ValueError:
                    raise ParseError(f"cannot parse dt {match.group(1)!r} at row {lineno}", row=lineno) from None
            continue
        cells = line.split(",") if format == "csv" else line.split()
        cells = [c.strip() for c in cells if c.strip()]
        if len(cells) != 1:
            raise ParseError(f"expected one value per row, row {lineno} has {len(cells)}", row=lineno)
        try:
            value = float(cells[0])
        except ValueError:
            if first:
                first = False
                continue
            raise ParseError(f"non-numeric value {cells[0]!r} at row {lineno}", row=lineno) from None
        first = False
        if not math.isfinite(value):
            raise ParseError(f"non-finite value at row {lineno}", row=lineno)
        values.append(value)
    return values, header_dt


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


def render_samples(samples: np.ndarray) -> bytes:
    """Every sample's cell as :func:`write_rows` renders it, one newline-terminated line each, as ASCII bytes."""
    chunks = (samples[lo : lo + CHUNK].tolist() for lo in range(0, len(samples), CHUNK))
    return b"".join(("%.17g\n" * len(chunk) % tuple(chunk)).encode() for chunk in chunks)


class SampleText:
    """Every sample's cell as :func:`write_rows` renders it, built from ``data``, the bytes of
    :func:`render_samples`, and shared by several files.

    ``text`` holds one newline-terminated line per sample, and line k ends just before ``ends[k]``:
    no per-sample Python object is kept, and neither is ``data``.
    """

    def __init__(self, samples: np.ndarray, data: bytes):
        self.samples = samples = np.asarray(samples, dtype=np.float64)
        self.ends = np.flatnonzero(np.frombuffer(data, np.uint8) == 10) + 1
        if len(self.ends) != len(samples) or len(data) != (self.ends[-1] if len(samples) else 0):
            raise ValueError(f"the sample text does not hold one line for each of {len(samples)} samples")
        self.text = data.decode("ascii")

    def block(self, lo: int, hi: int) -> str:
        """The lines of samples lo to hi - 1."""
        return self.text[self.ends[lo - 1] if lo else 0 : self.ends[hi - 1] if hi else 0]

    def cells(self, indices: np.ndarray, values: np.ndarray) -> np.ndarray:
        """The cells of ``values``, the samples at ``indices``, as an object array of their text."""
        self.check(values, indices)
        starts = np.where(indices > 0, self.ends[indices - 1], 0)
        return np.array([self.text[a : b - 1] for a, b in zip(starts.tolist(), self.ends[indices].tolist())], object)

    def check(self, values: np.ndarray, at=slice(None)) -> None:
        """Refuse values that are not, bit for bit, the samples ``at``: their cells would be wrong."""
        if not np.array_equal(self.samples[at].view(np.int64), np.asarray(values, np.float64).view(np.int64)):
            raise ValueError("the sample text was rendered from other samples")


def dump_series(series: TimeSeries, path, *, text: SampleText | None = None) -> None:
    """Write the canonical single-column form read back by :func:`load_series`, from ``text`` if given."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# dt={series.dt:.17g}\nx\n")
        if text is None:
            return write_rows(fh, [series.samples])
        text.check(series.samples)
        fh.write(text.text)


def series_sha256(series: TimeSeries) -> str:
    """Content hash of the samples and interval, independent of file layout."""
    digest = hashlib.sha256()
    digest.update(np.ascontiguousarray(series.samples, dtype="<f8"))  # hashed in place unless strided or big-endian
    digest.update(f"dt={series.dt:.17g}".encode())
    return digest.hexdigest()
