import tracemalloc

import numpy as np
import pytest

import ordmaps as om
import oracles


def _seq_from_values(values, m=2, tau=1, w=1):
    ts = om.TimeSeries(np.asarray(values, dtype=float), dt=1.0)
    return om.symbolize(ts, om.WindowConfig(m=m, tau=tau, w=w))


def test_build_opn_hand_case():
    # symbols: (1,2) (2,1) (1,2) (1,2) for values 1 2 1 2 3
    seq = _seq_from_values([1.0, 2.0, 1.0, 2.0, 3.0])
    tc = om.build_opn(seq)
    assert [p.perm for p in tc.patterns] == [(1, 2), (2, 1)]
    # edges (1,2)->(1,2), (1,2)->(2,1), (2,1)->(1,2), once each, in row-major order
    assert (tc.source.tolist(), tc.target.tolist(), tc.count.tolist()) == ([0, 0, 1], [0, 1, 0], [1, 1, 1])
    assert tc.total() == 3
    assert om.occupancy(seq).tolist() == pytest.approx([2 / 3, 1 / 3])


def test_self_loops_are_counted():
    seq = _seq_from_values([1.0, 2.0, 3.0, 4.0])
    tc = om.build_opn(seq)
    assert [p.perm for p in tc.patterns] == [(1, 2)]
    assert (tc.source.tolist(), tc.target.tolist(), tc.count.tolist()) == ([0], [0], [2])


def test_pattern_seen_only_last_has_zero_occupancy():
    # values 3 2 1 2 give symbols (2,1) (2,1) (1,2); (1,2) never transitions out
    seq = _seq_from_values([3.0, 2.0, 1.0, 2.0])
    assert [p.perm for p in seq.patterns] == [(1, 2), (2, 1)]
    assert om.occupancy(seq).tolist() == [0.0, 1.0]
    tc = om.build_opn(seq)
    assert (tc.source.tolist(), tc.target.tolist(), tc.count.tolist()) == ([1, 1], [0, 1], [1, 1])


def test_network_holds_edges_not_a_pattern_matrix(rng):
    # about 650 of the 720 patterns occur in 2000 windows of noise
    seq = _seq_from_values(rng.random(2005), m=6)
    p = len(seq.patterns)
    assert p > 500
    tracemalloc.start()
    try:
        tc = om.build_opn(seq)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    arrays = [value for value in vars(tc).values() if isinstance(value, np.ndarray)]
    assert len(arrays) == 3 and all(a.size == tc.source.size <= len(seq) - 1 for a in arrays)
    assert peak < p * p  # bytes: not even one byte per cell of the P x P matrix
    symbols = [seq.patterns[i].perm for i in seq.inverse.tolist()]
    assert tc.total() == len(seq) - 1 and tc.source.size == len(oracles.pair_counts(symbols))


def test_entropy_matches_oracle_on_random_sequences(rng):
    for _ in range(50):
        n = int(rng.integers(6, 80))
        values = rng.integers(0, 5, size=n).astype(float)
        m = int(rng.integers(2, 4))
        if oracles.window_count(n, m, 1, 1) < 2:
            continue
        seq = _seq_from_values(values, m=m)
        got = om.permutation_entropy(om.occupancy(seq))

        perms = oracles.symbolize(values, m, 1, 1, "chronological")
        probs = oracles.occupancy_probs(perms)
        assert got == pytest.approx(oracles.shannon(probs.values()), abs=1e-12)


def test_single_symbol_sequence_is_too_short():
    seq = _seq_from_values([1.0, 2.0])
    with pytest.raises(om.TooShortError):
        om.build_opn(seq)
    with pytest.raises(om.TooShortError):
        om.occupancy(seq)


def test_entropy_of_deterministic_cycle_is_positive():
    seq = _seq_from_values([1.0, 2.0, 1.0, 2.0, 1.0, 2.0])
    # two patterns, equal occupancy -> 1 bit
    assert om.permutation_entropy(om.occupancy(seq)) == pytest.approx(1.0)
