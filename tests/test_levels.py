import dataclasses

import numpy as np
import pytest

import ordmaps as om


def _analyzed(values, m=2):
    ts = om.TimeSeries(np.asarray(values, dtype=float), dt=1.0)
    seq = om.symbolize(ts, om.WindowConfig(m=m, tau=1, w=1))
    return ts, seq


def _table_with_levels(ts, seq, level_by_perm):
    """The partition table of ``seq`` with its ``transition_level`` replaced, one per pattern."""
    levels = np.array([level_by_perm[p.perm] for p in seq.patterns], dtype=np.int64)
    return dataclasses.replace(om.partition_table(ts, seq), transition_level=levels)


def test_level_sequence_maps_windows():
    ts, seq = _analyzed([1, 2, 3, 2, 1, 2])  # A A B B A
    table = _table_with_levels(ts, seq, {(1, 2): 1, (2, 1): 2})
    assert om.level_sequence(seq, table).tolist() == [1, 1, 2, 2, 1]
    # both partitions are degenerate, so the levels the table detected are all 1
    assert om.level_sequence(seq, table, by="weighted_level").tolist() == [1] * 5


def test_level_sequence_validation():
    ts, seq = _analyzed([1, 2, 3, 2, 1, 2])
    table = _table_with_levels(ts, seq, {(1, 2): 1, (2, 1): 2})
    with pytest.raises(ValueError, match="by must be"):
        om.level_sequence(seq, table, by="level")


def test_entry_level_sequence_compresses_runs():
    ts, seq = _analyzed([1, 2, 3, 2, 1, 2])  # entries at positions 0, 2, 4
    table = _table_with_levels(ts, seq, {(1, 2): 1, (2, 1): 2})
    assert om.entry_level_sequence(seq, table).tolist() == [1, 2, 1]


def test_level_sequence_of_a_table_matches_its_rows(lorenz_series, lorenz_analysis):
    seq, table = lorenz_analysis
    windows = seq.inverse.tolist()
    for by in ("transition_level", "weighted_level"):
        level_of = getattr(table, by).tolist()
        want = [level_of[i] for i in windows]
        assert om.level_sequence(seq, table, by).tolist() == want
        entered = seq.entries.tolist()
        assert om.entry_level_sequence(seq, table, by).tolist() == [lv for lv, e in zip(want, entered) if e]
    twin = om.symbolize(lorenz_series, seq.config)
    with pytest.raises(ValueError, match="another symbol sequence"):
        om.level_sequence(twin, table)


def test_build_level_network_hand_case():
    net = om.build_level_network([1, 2, 1, 1, 3])
    assert net.levels == 3
    assert net.weights.tolist() == [[1, 1, 1], [1, 0, 0], [0, 0, 0]]
    assert net.total() == 4
    assert net.weight(1, 2) == 1
    assert net.weight(3, 3) == 0


def test_build_level_network_validation():
    with pytest.raises(om.TooShortError):
        om.build_level_network([1])
    with pytest.raises(ValueError, match="1-based"):
        om.build_level_network([0, 1])


def test_level_network_from_analysis(lorenz_series, lorenz_analysis):
    seq, table = lorenz_analysis
    lv = om.level_sequence(seq, table)
    net = om.build_level_network(lv)
    assert net.total() == len(seq.codes) - 1
    assert net.weights.sum(axis=None) == net.total()
    # collapsing runs to entries leaves fewer transitions
    entry_net = om.build_level_network(om.entry_level_sequence(seq, table))
    assert entry_net.total() < net.total()
