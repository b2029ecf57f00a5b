r"""Ordinal partition network and its occupancy.

The network is a directed weighted graph over the patterns that actually
occur. Edge count a[i, j] is the number of consecutive window pairs whose
symbols go from pattern i to pattern j, self-loops included, so the counts
total one less than the number of symbols. Only the non-zero edges are
stored, as parallel arrays in row-major order: n symbols make at most n - 1
of them, while a P x P matrix would grow with the square of the number P of
distinct patterns. The network carries the symbol sequence it counts, and its
nodes are that sequence's pattern indices, so building it decodes no pattern.

The occupancy of pattern i is its row-sum share

    p[i] = sum_j a[i, j] / sum_kj a[k, j],

the share of transitions that leave it, rather than the stationary
eigenvector, so a pattern seen only as the final symbol gets 0.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .encoding import OrdinalPattern, SymbolSequence
from .errors import TooShortError


@dataclass(eq=False)
class TransitionCounts:
    """Edge k goes ``count[k]`` times from ``patterns[source[k]]`` to ``patterns[target[k]]``, row-major.

    Nodes are indexed like ``seq.patterns`` and ``seq.shown``; ``patterns``
    decodes them only when read.
    """

    seq: SymbolSequence
    source: np.ndarray
    target: np.ndarray
    count: np.ndarray

    @property
    def patterns(self) -> tuple[OrdinalPattern, ...]:
        return self.seq.patterns

    def total(self) -> int:
        return int(self.count.sum())


def _check_transitions(seq: SymbolSequence) -> None:
    if len(seq) < 2:
        raise TooShortError(f"need at least 2 symbols to build a network, got {len(seq)}")


def build_opn(seq: SymbolSequence) -> TransitionCounts:
    """Count consecutive symbol transitions, self-loops included."""
    _check_transitions(seq)
    k = len(seq.pattern_codes)
    edges, count = np.unique(seq.inverse[:-1] * k + seq.inverse[1:], return_counts=True)
    return TransitionCounts(seq, edges // k, edges % k, count)


def occupancy(seq: SymbolSequence) -> np.ndarray:
    """Row-sum share of each of ``seq.patterns``, without building the network."""
    _check_transitions(seq)
    return np.bincount(seq.inverse[:-1], minlength=len(seq.pattern_codes)) / (len(seq) - 1)
