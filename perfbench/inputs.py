"""Workload inputs, generated from the seed so a seed fixes every input."""

from __future__ import annotations

from pathlib import Path

import numpy as np

NOISE_SAMPLES = 100_000
BATCH_SERIES = 100_000
BATCH_CHUNK = 10_000  # series per symbolize-batch operation
BATCH_LENGTHS = (3, 12)  # inclusive
BATCH_VALUES = (1.0, 2.0, 3.0)


def write_noise(path: Path, seed: int, samples: int = NOISE_SAMPLES) -> None:
    """Standard-normal samples, one per row, under a ``# dt=1`` header."""
    x = np.random.default_rng(seed).standard_normal(samples)
    np.savetxt(path, x, fmt="%.17g", header="dt=1", comments="# ")


def batch_rows(seed: int, count: int = BATCH_SERIES) -> tuple[np.ndarray, np.ndarray, list[np.ndarray]]:
    """Short series over {1, 2, 3} with many ties: (values, lengths, rows).

    ``rows`` are views into ``values``, one per series.
    """
    rng = np.random.default_rng(seed)
    lengths = rng.integers(BATCH_LENGTHS[0], BATCH_LENGTHS[1] + 1, size=count)
    values = rng.choice(np.asarray(BATCH_VALUES), size=int(lengths.sum()))
    rows = np.split(values, np.cumsum(lengths)[:-1])
    return values, lengths, rows
