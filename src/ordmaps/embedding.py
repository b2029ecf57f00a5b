"""Time-delay embedding and the window geometry it induces.

Embedding point k collects ``dim`` samples spaced ``lag`` apart starting
at k, so a length-N series yields N - (dim - 1) * lag points. A window
covering the same span as one embedding point has tau = (dim - 1) * lag
divided by m - 1, which must come out integral.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .encoding import WindowConfig, window_view
from .errors import ConfigError, TooShortError
from .series import TimeSeries


@dataclass(frozen=True)
class EmbeddingConfig:
    dim: int
    lag: int

    def __post_init__(self):
        if self.dim < 2:
            raise ConfigError(f"embedding dimension must be at least 2, got {self.dim}")
        if self.lag < 1:
            raise ConfigError(f"embedding lag must be at least 1, got {self.lag}")

    @property
    def span(self) -> int:
        return (self.dim - 1) * self.lag


LORENZ_EMBEDDING = EmbeddingConfig(dim=3, lag=9)
ROSSLER_EMBEDDING = EmbeddingConfig(dim=3, lag=144)
MACKEY_GLASS_EMBEDDING = EmbeddingConfig(dim=2, lag=204)


def delay_embed(series: TimeSeries, cfg: EmbeddingConfig) -> np.ndarray:
    """Embedded points as an (N - span, dim) array of the caller's own."""
    n = len(series.samples)
    if n < cfg.span + 1:
        raise TooShortError(
            f"need at least {cfg.span + 1} samples for dim={cfg.dim}, lag={cfg.lag}; got {n}"
        )
    return window_view(series.samples, cfg.dim, cfg.lag).copy()


def window_from_embedding(cfg: EmbeddingConfig, m: int) -> WindowConfig:
    """Window of m samples spanning exactly one embedding point.

    Raises :class:`ConfigError` when (dim - 1) * lag is not divisible by
    m - 1, suggesting the nearest m that divides it.
    """
    if m < 2:
        raise ConfigError(f"m must be at least 2, got {m}")
    span = cfg.span
    if span % (m - 1) != 0:
        # m = 2 always divides, so no nearer candidate lies at or beyond 2 * m
        candidates = [mm for mm in range(2, min(span + 2, 2 * m)) if span % (mm - 1) == 0]
        nearest = min(candidates, key=lambda mm: (abs(mm - m), mm))
        raise ConfigError(
            f"window span {span} is not divisible by m - 1 = {m - 1}; nearest valid m is {nearest}"
        )
    return WindowConfig(m=m, tau=span // (m - 1), w=1)
