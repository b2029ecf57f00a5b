"""Output checks, run outside every timed region.

Each check is written from the documented file formats and the windowing
formula, not from ordmaps code, so a faster ordmaps is checked against what
its outputs must say rather than against itself.
"""

from __future__ import annotations

import csv
import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np


@dataclass(frozen=True)
class Expect:
    """What a CLI operation's run directory must hold."""

    samples: int  # length of the analysed series
    m: int
    tau: int
    w: int
    required: frozenset[str]


def window_count(n: int, m: int, tau: int, w: int) -> int:
    span = (m - 1) * tau
    return 0 if n < span + 1 else (n - span - 1) // w + 1


def _rows(path: Path) -> list[dict[str, str]]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def _labels_outside(values, top: int) -> int:
    return sum(1 for v in values if not 1 <= int(v) <= top)


def normalized_manifest(text: str) -> bytes:
    """The manifest without what names this checkout.

    A file input is recorded by absolute path, and ``manifest_sha256`` hashes
    that path, so both are replaced before hashing across checkouts.
    """
    payload = json.loads(text)
    payload.pop("manifest_sha256", None)
    if payload.get("input", {}).get("kind") == "file":
        payload["input"]["path"] = Path(payload["input"]["path"]).name
    return json.dumps(payload, sort_keys=True, indent=2).encode()


def digests(run_dir: Path) -> tuple[str, str]:
    """(raw, portable) SHA-256 over every file name and its bytes.

    ``portable`` hashes ``manifest.json`` through :func:`normalized_manifest`,
    so the same outputs give the same digest in any checkout.
    """
    raw, portable = hashlib.sha256(), hashlib.sha256()
    for path in sorted(run_dir.iterdir()):
        data = path.read_bytes()
        for digest, body in (
            (raw, data),
            (portable, normalized_manifest(data.decode()) if path.name == "manifest.json" else data),
        ):
            digest.update(path.name.encode() + b"\0")
            digest.update(hashlib.sha256(body).digest())
    return raw.hexdigest(), portable.hexdigest()


def check_run_dir(run_dir: Path, expect: Expect) -> list[str]:
    """Problems with one CLI operation's outputs; empty when all hold."""
    if not run_dir.is_dir():
        return [f"run directory {run_dir.name} missing"]
    names = {p.name for p in run_dir.iterdir()}
    if "manifest.json" not in names:
        return ["manifest.json missing"]
    manifest = json.loads((run_dir / "manifest.json").read_text(encoding="utf-8"))
    problems = []
    listed = set(manifest.get("outputs", [])) | {"manifest.json"}
    if names != listed:
        problems.append(f"files {sorted(names ^ listed)} differ from the manifest's list")
    if not expect.required <= names:
        problems.append(f"missing {sorted(expect.required - names)}")
    window = manifest.get("window", {})
    if (window.get("m"), window.get("tau"), window.get("w")) != (expect.m, expect.tau, expect.w):
        problems.append(f"manifest window {window} is not m={expect.m} tau={expect.tau} w={expect.w}")
    windows = window_count(expect.samples, expect.m, expect.tau, expect.w)
    top = int(manifest["levels"]["max_levels"])

    if "series.csv" in names:
        with open(run_dir / "series.csv", encoding="utf-8") as fh:
            samples = sum(1 for line in fh if line.strip() and not line.startswith("#")) - 1
        if samples != expect.samples:
            problems.append(f"series.csv holds {samples} samples, expected {expect.samples}")
    if "partitions.csv" in names:
        rows = _rows(run_dir / "partitions.csv")
        occurrences = sum(int(r["O"]) for r in rows)
        if occurrences != windows:
            problems.append(f"partitions.csv O sums to {occurrences}, window_count is {windows}")
        bad = _labels_outside([r["level_w"] for r in rows] + [r["level_wt"] for r in rows], top)
        if bad:
            problems.append(f"partitions.csv has {bad} level labels outside 1..{top}")
    if "level_sequence.csv" in names:
        labels = [r["level"] for r in _rows(run_dir / "level_sequence.csv")]
        if len(labels) != windows:
            problems.append(f"level_sequence.csv has {len(labels)} rows, window_count is {windows}")
        bad = _labels_outside(labels, top)
        if bad:
            problems.append(f"level_sequence.csv has {bad} labels outside 1..{top}")
        if "level_network.csv" in names and not manifest["level_network"]["per_entry"]:
            weight = sum(int(r["weight"]) for r in _rows(run_dir / "level_network.csv"))
            if weight != len(labels) - 1:
                problems.append(f"level network weights total {weight}, expected {len(labels) - 1}")
    return problems


def ordinal_codes(values: np.ndarray, lengths: np.ndarray, m: int) -> np.ndarray:
    """Packed chronological codes of every tau=1, w=1 window of every row.

    The rank of window position i is the number of positions j that come
    before it in (value, index) order, which is the order a stable ascending
    argsort gives; the pattern lists the 1-based positions by rank and packs
    them in base m + 1, most significant first.
    """
    counts = np.maximum(lengths - m + 1, 0)
    row_start = np.cumsum(lengths) - lengths
    first_window = np.cumsum(counts) - counts
    starts = np.repeat(row_start, counts) + (np.arange(counts.sum()) - np.repeat(first_window, counts))
    windows = values[starts[:, None] + np.arange(m)[None, :]]
    x_i, x_j = windows[:, :, None], windows[:, None, :]
    i, j = np.arange(m)[:, None], np.arange(m)[None, :]
    rank = ((x_j < x_i) | ((x_j == x_i) & (j < i))).sum(axis=2)
    position = np.arange(1, m + 1, dtype=np.int64)[None, :]
    return (position * (m + 1) ** (m - 1 - rank)).sum(axis=1)


def batch_failures(results: list, lengths: np.ndarray, expected: np.ndarray, m: int) -> int:
    """Number of series whose returned codes differ from the expected ones."""
    got_lengths = np.array([-1 if r is None else len(r) for r in results])
    want_lengths = np.maximum(lengths - m + 1, 0)
    if np.array_equal(got_lengths, want_lengths) and np.array_equal(np.concatenate(results), expected):
        return 0
    bounds = np.cumsum(want_lengths)
    failed = 0
    for got, end, count in zip(results, bounds, want_lengths):
        if got is None or not np.array_equal(got, expected[end - count : end]):
            failed += 1
    return failed


def codes_sha256(lengths: np.ndarray, codes: np.ndarray) -> str:
    digest = hashlib.sha256()
    digest.update(np.ascontiguousarray(lengths, dtype="<i8").tobytes())
    digest.update(np.ascontiguousarray(codes, dtype="<i8").tobytes())
    return digest.hexdigest()
