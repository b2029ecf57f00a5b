"""Every consumer of the pattern grouping against the naive oracles.

The series draw from four values, so ties are common, and cover m = 2..7
with several tau and w.
"""

from collections import Counter
import itertools

import numpy as np
import pytest

import ordmaps as om
import oracles
from ordmaps import cli


def _cases(rng):
    for m, tau, w in itertools.product(range(2, 8), (1, 3), (1, 2)):
        for _ in range(2):
            n = (m - 1) * tau + int(rng.integers(2, 300))
            yield m, tau, w, rng.integers(0, 4, size=n).astype(float).tolist()


def test_grouping_consumers_match_oracles(rng):
    for m, tau, w, values in _cases(rng):
        ts = om.TimeSeries(np.array(values), dt=1.0)
        seq = om.symbolize(ts, om.WindowConfig(m=m, tau=tau, w=w))
        symbols = oracles.symbolize(values, m, tau, w)
        entries = oracles.entry_positions(symbols)

        assert [s.perm for s in seq.symbols] == symbols
        assert [(p.perm, c) for p, c in om.distinct_patterns(seq)] == sorted(Counter(symbols).items())

        for i, p in enumerate(seq.patterns):
            assert seq.index(p) == i
            assert om.entry_points(seq, p).tolist() == [k * w for k in entries if symbols[k] == p.perm]
            sub = om.extract_subseries(ts, seq, p)
            assert sub.samples.tolist() == [values[k * w] for k, s in enumerate(symbols) if s == p.perm]

        if len(symbols) >= 2:
            tc = om.build_opn(seq)
            perms = [p.perm for p in tc.patterns]
            got = {(perms[i], perms[j]): c for i, j, c in zip(tc.source.tolist(), tc.target.tolist(), tc.count.tolist())}
            assert got == oracles.pair_counts(symbols)

        reports = om.analyze_partitions(ts, seq)
        assert [(r.occurrence, r.entries) for r in reports] == [
            (symbols.count(p.perm), sum(symbols[k] == p.perm for k in entries)) for p in seq.patterns
        ]
        level = {}
        for r in reports:
            level[r.pattern.perm] = r.transition_level = int(rng.integers(1, 4))
        assert om.level_sequence(seq, reports).tolist() == [level[s] for s in symbols]
        assert om.entry_level_sequence(seq, reports).tolist() == [level[symbols[k]] for k in entries]


def test_absent_or_wrong_length_pattern_selects_nothing():
    ts = om.TimeSeries(np.array([1.0, 2.0, 3.0, 4.0, 5.0]), dt=1.0)
    seq = om.symbolize(ts, om.WindowConfig(m=3, tau=1))
    for pattern in (om.OrdinalPattern((3, 2, 1)), om.OrdinalPattern((1, 2)), om.OrdinalPattern((1, 2, 3, 4))):
        assert om.entry_points(seq, pattern).tolist() == []
        with pytest.raises(om.PatternAbsentError, match=pattern.dashed()):
            om.extract_subseries(ts, seq, pattern)
        with pytest.raises(om.PatternAbsentError, match=pattern.dashed()):
            om.weighted_entropies(ts, seq, pattern)


def test_grouping_is_computed_once_and_cannot_go_stale():
    seq = om.symbolize(om.TimeSeries(np.sin(np.arange(50.0)), dt=1.0), om.WindowConfig(m=3, tau=1))
    assert seq.patterns is seq.patterns
    with pytest.raises(AttributeError):
        seq.codes = seq.codes[:1]


def test_one_pattern_queries_decode_no_pattern(tmp_path, monkeypatch):
    ts = om.TimeSeries(np.sin(0.7 * np.arange(200.0)), dt=1.0)
    cfg = om.WindowConfig(m=4, tau=1)
    pattern = om.decode_pattern(int(om.symbolize(ts, cfg).pattern_codes[0]), 4)
    for query in (
        lambda seq: om.entry_points(seq, pattern),
        lambda seq: om.extract_subseries(ts, seq, pattern),
        lambda seq: om.weighted_entropies(ts, seq, pattern),
    ):
        seq = om.symbolize(ts, cfg)
        query(seq)
        assert "patterns" not in vars(seq)
    made = []
    monkeypatch.setattr(cli, "symbolize", lambda *args: made.append(om.symbolize(*args)) or made[-1])
    om.dump_series(ts, tmp_path / "series.csv")
    argv = ["frm", str(tmp_path / "series.csv"), "--m", "4", "--tau", "1", "--pattern", pattern.dashed()]
    assert cli.main(argv + ["--out-dir", str(tmp_path / "out")]) == 0
    assert len(made) == 1 and "patterns" not in vars(made[0])
