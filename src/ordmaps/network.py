r"""Ordinal partition network and its Markov entropy estimate.

The network is a directed weighted graph over the patterns that actually
occur. Edge count a[i, j] is the number of consecutive window pairs whose
symbols go from pattern i to pattern j, self-loops included, so the counts
total one less than the number of symbols.

From the counts we estimate

    transition probabilities  p[i, j] = a[i, j] / sum_k a[i, k]
    occupancy                 p[i]    = sum_j a[i, j] / sum_kj a[k, j]

and the permutation entropy in bits

    h = -sum_i p[i] * log2(p[i])        (0 * log2(0) taken as 0).

Occupancy is deliberately the row-sum share rather than the stationary
eigenvector; rows with no outgoing transitions (a pattern seen only as the
final symbol) get a zero row and are flagged, not rejected.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .encoding import OrdinalPattern, SymbolSequence
from .errors import TooShortError


@dataclass(eq=False)
class TransitionCounts:
    """Adjacency counts over occurring patterns, lexicographically ordered."""

    patterns: list[OrdinalPattern]
    counts: np.ndarray

    def total(self) -> int:
        return int(self.counts.sum())


@dataclass(eq=False)
class MarkovEstimate:
    """Row-normalized transition matrix plus occupancy distribution.

    ``zero_rows[i]`` marks patterns with no outgoing transition; their row
    in ``row_stochastic`` is all zeros.
    """

    patterns: list[OrdinalPattern]
    row_stochastic: np.ndarray
    occupancy: np.ndarray
    zero_rows: np.ndarray


def build_opn(seq: SymbolSequence) -> TransitionCounts:
    """Count consecutive symbol transitions, self-loops included."""
    if len(seq) < 2:
        raise TooShortError(f"need at least 2 symbols to build a network, got {len(seq)}")
    k = len(seq.patterns)
    pair_keys = seq.inverse[:-1] * k + seq.inverse[1:]
    counts = np.bincount(pair_keys, minlength=k * k).reshape(k, k)
    return TransitionCounts(patterns=list(seq.patterns), counts=counts)


def markov_estimate(tc: TransitionCounts) -> MarkovEstimate:
    total = tc.counts.sum()
    if tc.counts.size == 0 or total < 1:
        raise ValueError("transition counts are empty; nothing to estimate")
    row_totals = tc.counts.sum(axis=1)
    zero_rows = row_totals == 0
    safe = np.where(zero_rows, 1, row_totals)
    row_stochastic = tc.counts / safe[:, None]
    occupancy = row_totals / total
    return MarkovEstimate(
        patterns=list(tc.patterns),
        row_stochastic=row_stochastic,
        occupancy=occupancy,
        zero_rows=zero_rows,
    )


def permutation_entropy(est: MarkovEstimate) -> float:
    """Shannon entropy of the occupancy distribution, in bits."""
    p = est.occupancy[est.occupancy > 0.0]
    return float(-(p * np.log2(p)).sum()) + 0.0
