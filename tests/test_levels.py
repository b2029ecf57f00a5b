import numpy as np
import pytest

import ordmaps as om


def _analyzed(values, m=2):
    ts = om.TimeSeries(np.asarray(values, dtype=float), dt=1.0)
    seq = om.symbolize(ts, om.WindowConfig(m=m, tau=1, w=1))
    return ts, seq


def _reports_with_levels(level_by_perm, attr="transition_level"):
    reports = []
    for perm, level in level_by_perm.items():
        r = om.PartitionReport(
            pattern=om.OrdinalPattern(perm),
            occurrence=1,
            entries=1,
            occurrence_share=0.5,
            entry_share=0.5,
            entropy=0.0,
            weighted_entropy=0.0,
            transition_entropy=0.0,
            entry_indices=np.array([0]),
        )
        setattr(r, attr, level)
        reports.append(r)
    return reports


def test_level_sequence_maps_windows():
    _, seq = _analyzed([1, 2, 3, 2, 1, 2])  # A A B B A
    reports = _reports_with_levels({(1, 2): 1, (2, 1): 2})
    assert om.level_sequence(seq, reports).tolist() == [1, 1, 2, 2, 1]
    # the other attribute defaults to 1 on these synthetic reports
    assert om.level_sequence(seq, reports, by="weighted_level").tolist() == [1] * 5


def test_level_sequence_validation():
    _, seq = _analyzed([1, 2, 3, 2, 1, 2])
    reports = _reports_with_levels({(1, 2): 1})
    with pytest.raises(om.PatternAbsentError, match="2-1"):
        om.level_sequence(seq, reports)
    with pytest.raises(ValueError, match="by must be"):
        om.level_sequence(seq, reports, by="level")


def test_entry_level_sequence_compresses_runs():
    _, seq = _analyzed([1, 2, 3, 2, 1, 2])  # entries at positions 0, 2, 4
    reports = _reports_with_levels({(1, 2): 1, (2, 1): 2})
    assert om.entry_level_sequence(seq, reports).tolist() == [1, 2, 1]


def test_level_sequence_of_a_table_matches_its_rows(lorenz_series, lorenz_analysis):
    seq, reports = lorenz_analysis
    table = om.partition_table(lorenz_series, seq)
    for by in ("transition_level", "weighted_level"):
        assert np.array_equal(om.level_sequence(seq, table, by), om.level_sequence(seq, reports, by))
        assert np.array_equal(om.entry_level_sequence(seq, table, by), om.entry_level_sequence(seq, reports, by))
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
    seq, reports = lorenz_analysis
    lv = om.level_sequence(seq, reports)
    net = om.build_level_network(lv)
    assert net.total() == len(seq.codes) - 1
    assert net.weights.sum(axis=None) == net.total()
    # collapsing runs to entries leaves fewer transitions
    entry_net = om.build_level_network(om.entry_level_sequence(seq, reports))
    assert entry_net.total() < net.total()
