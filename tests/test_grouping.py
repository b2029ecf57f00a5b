"""Every consumer of the pattern grouping against the naive oracles.

The series draw from four values, so ties are common, and cover m = 2..7
with several tau and w.
"""

from collections import Counter
import dataclasses
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

        assert [seq.patterns[i].perm for i in seq.inverse.tolist()] == symbols
        assert [p.perm for p in seq.patterns] == sorted(Counter(symbols))

        table = om.partition_table(ts, seq)
        rows = np.arange(len(seq.patterns))
        for i, p, entry_indices in zip(rows, seq.patterns, table.entry_indices(rows), strict=True):
            assert np.flatnonzero(seq.shown == p.dashed()).tolist() == [i]  # the row frm --pattern finds
            assert entry_indices.tolist() == [k * w for k in entries if symbols[k] == p.perm]

        if len(symbols) >= 2:
            tc = om.build_opn(seq)
            perms = [p.perm for p in tc.patterns]
            got = {(perms[i], perms[j]): c for i, j, c in zip(tc.source.tolist(), tc.target.tolist(), tc.count.tolist())}
            assert got == oracles.pair_counts(symbols)

        assert list(zip(table.occurrence.tolist(), table.entries.tolist())) == [
            (symbols.count(p.perm), sum(symbols[k] == p.perm for k in entries)) for p in seq.patterns
        ]
        level = {p.perm: int(rng.integers(1, 4)) for p in seq.patterns}
        table = dataclasses.replace(table, transition_level=np.array([level[p.perm] for p in seq.patterns]))
        assert om.level_sequence(seq, table).tolist() == [level[s] for s in symbols]
        assert om.entry_level_sequence(seq, table).tolist() == [level[symbols[k]] for k in entries]


def test_absent_or_wrong_length_pattern_selects_nothing():
    ts = om.TimeSeries(np.array([1.0, 2.0, 3.0, 4.0, 5.0]), dt=1.0)
    seq = om.symbolize(ts, om.WindowConfig(m=3, tau=1))
    assert seq.shown.tolist() == ["1-2-3"]
    for text in ("3-2-1", "1-2", "1-2-3-4"):
        assert not (seq.shown == text)[seq.inverse].any()  # frm --pattern finds no row, so no window


def test_grouping_is_computed_once_and_cannot_go_stale():
    seq = om.symbolize(om.TimeSeries(np.sin(np.arange(50.0)), dt=1.0), om.WindowConfig(m=3, tau=1))
    assert seq.patterns is seq.patterns
    with pytest.raises(AttributeError):
        seq.codes = seq.codes[:1]


def test_one_pattern_queries_decode_no_pattern(tmp_path, monkeypatch):
    ts = om.TimeSeries(np.sin(0.7 * np.arange(200.0)), dt=1.0)
    text = om.symbolize(ts, om.WindowConfig(m=4, tau=1)).shown[0]
    made = []
    monkeypatch.setattr(cli, "symbolize", lambda *args: made.append(om.symbolize(*args)) or made[-1])
    om.dump_series(ts, tmp_path / "series.csv")
    argv = ["frm", str(tmp_path / "series.csv"), "--m", "4", "--tau", "1", "--pattern", text]
    assert cli.main(argv + ["--out-dir", str(tmp_path / "out")]) == 0
    assert len(made) == 1 and "patterns" not in vars(made[0])
