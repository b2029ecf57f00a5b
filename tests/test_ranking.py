import dataclasses
import itertools
import math
import tracemalloc

import numpy as np
import pytest

import ordmaps as om
from ordmaps import ranking
from ordmaps.encoding import BLOCK
from ordmaps.ranking import LEVEL_KEYS
import oracles


def _analyzed(values, m=2, tau=1, w=1):
    ts = om.TimeSeries(np.asarray(values, dtype=float), dt=1.0)
    seq = om.symbolize(ts, om.WindowConfig(m=m, tau=tau, w=w))
    return ts, seq


# 15 leading digits of pi: a small series with both m=2 patterns, ties,
# and a non-trivial entry structure. Expected numbers were frozen from a
# brute-force hand evaluation before the implementation ran them.
PI_DIGITS = [3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5, 8, 9, 7, 9]


def test_corpus_counts_on_digit_series():
    _, seq = _analyzed(PI_DIGITS)
    assert len(seq) == 14
    assert int(seq.entries.sum()) == seq.entry_count == 10


def test_entry_mask_first_window_counts():
    mask = om.entry_mask(np.array([5, 5, 7, 7, 5], dtype=np.int64))
    assert mask.tolist() == [True, False, True, False, True]
    assert om.entry_mask(np.array([], dtype=np.int64)).tolist() == []


def test_entry_points_examples():
    # symbols A A B B A over starts 0..4
    ts, seq = _analyzed([1, 2, 3, 2, 1, 2])
    up, down = om.OrdinalPattern((1, 2)), om.OrdinalPattern((2, 1))
    assert [seq.patterns[i].perm for i in seq.inverse.tolist()] == [(1, 2), (1, 2), (2, 1), (2, 1), (1, 2)]
    assert om.entry_points(seq, up).tolist() == [0, 4]
    assert om.entry_points(seq, down).tolist() == [2]

    # alternating A B A B
    ts, seq = _analyzed([1, 2, 1, 2, 1])
    assert om.entry_points(seq, up).tolist() == [0, 2]


def test_entry_points_absent_pattern_is_empty_not_error():
    _, seq = _analyzed([1, 2, 3, 4])
    assert om.entry_points(seq, om.OrdinalPattern((2, 1))).tolist() == []


def test_extract_subseries_values_and_absent_error():
    ts, seq = _analyzed(PI_DIGITS)
    sub = om.extract_subseries(ts, seq, om.OrdinalPattern((1, 2)))
    assert sub.samples.tolist() == [1, 1, 5, 2, 3, 5, 8, 7]
    sub = om.extract_subseries(ts, seq, om.OrdinalPattern((2, 1)))
    assert sub.samples.tolist() == [3, 4, 9, 6, 5, 9]

    ts, seq = _analyzed([1, 2, 3, 4])
    with pytest.raises(om.PatternAbsentError, match="2-1"):
        om.extract_subseries(ts, seq, om.OrdinalPattern((2, 1)))


def test_weighted_entropies_frozen_digit_case():
    ts, seq = _analyzed(PI_DIGITS)
    t = om.partition_table(ts, seq)

    i = seq.index(om.OrdinalPattern((1, 2)))
    assert (t.occurrence[i], t.entries[i]) == (8, 5)
    assert t.occurrence_share[i] == pytest.approx(8 / 14, abs=0)
    assert t.entry_share[i] == pytest.approx(0.5, abs=0)
    assert t.entry_indices([i])[0].tolist() == [1, 3, 6, 9, 13]
    assert not t.degenerate[i]
    assert t.entropy[i] == pytest.approx(1.3709505944546687, rel=1e-13)
    assert t.weighted_entropy[i] == pytest.approx(1.2447460094355844, rel=1e-13)
    assert t.transition_entropy[i] == pytest.approx(1.1854752972273344, rel=1e-13)

    i = seq.index(om.OrdinalPattern((2, 1)))
    assert (t.occurrence[i], t.entries[i]) == (6, 5)
    assert t.entry_indices([i])[0].tolist() == [0, 2, 5, 7, 12]
    assert t.entropy[i] == pytest.approx(math.log2(3), rel=1e-13)
    assert t.weighted_entropy[i] == pytest.approx(1.2031521094532591, rel=1e-13)
    assert t.transition_entropy[i] == pytest.approx(1.292481250360578, rel=1e-13)


def test_full_coverage_collapses_weighting():
    # every window ascending: K = 1 and a single entrance, so both weighted
    # entropies must equal the raw sub-series entropy
    ts, seq = _analyzed([0, 5, 1, 6, 2, 7, 3, 8, 4, 9], m=2, tau=2)
    t, i = om.partition_table(ts, seq), seq.index(om.OrdinalPattern((1, 2)))
    assert t.occurrence_share[i] == 1.0
    assert t.entry_share[i] == 1.0
    assert t.entropy[i] > 0.0
    assert t.weighted_entropy[i] == pytest.approx(t.entropy[i], abs=0)
    assert t.transition_entropy[i] == pytest.approx(t.entropy[i], abs=0)


def test_constant_subseries_entropy_zero_but_weighted_positive():
    # alternating 0 1 0 1 ... gives pattern (1,2) a constant sub-series:
    # h = 0 while the -K*log2(K) term survives in the weighted form
    values = [0, 1] * 6
    ts, seq = _analyzed(values)
    t, i = om.partition_table(ts, seq), seq.index(om.OrdinalPattern((1, 2)))
    assert t.entropy[i] == 0.0
    assert t.occurrence_share[i] == pytest.approx(6 / 11, abs=0)
    assert t.weighted_entropy[i] == pytest.approx(0.4769831552269861, rel=1e-13)
    assert t.transition_entropy[i] == pytest.approx(0.4769831552269861, rel=1e-13)
    i = seq.index(om.OrdinalPattern((2, 1)))
    assert t.weighted_entropy[i] == pytest.approx(0.5170470562499704, rel=1e-13)


def test_degenerate_boundary_three_vs_four_occurrences():
    # default secondary window (m'=3, tau'=1, w'=1) needs 4 samples
    ts, seq = _analyzed([1, 2, 1, 2, 1, 2, 1])
    t, i = om.partition_table(ts, seq), seq.index(om.OrdinalPattern((1, 2)))
    assert t.occurrence[i] == 3
    assert t.degenerate[i]
    assert t.entropy[i] == t.weighted_entropy[i] == t.transition_entropy[i] == 0.0

    ts, seq = _analyzed([1, 2, 1, 2, 1, 2, 1, 2, 1])
    t, i = om.partition_table(ts, seq), seq.index(om.OrdinalPattern((1, 2)))
    assert t.occurrence[i] == 4
    assert not t.degenerate[i]
    assert t.entropy[i] == 0.0
    assert t.weighted_entropy[i] == pytest.approx(0.5, abs=0)


def test_custom_sub_config_changes_degeneracy():
    ts, seq = _analyzed([1, 2, 1, 2, 1, 2, 1])
    cfg = om.SubSeriesConfig(m=2, tau=1, w=1)
    assert cfg.min_samples() == 3
    t = om.partition_table(ts, seq, sub_cfg=cfg)
    assert not t.degenerate[seq.index(om.OrdinalPattern((1, 2)))]


def test_detect_levels_examples():
    assert om.detect_levels([0.9, 0.85, 0.5, 0.45, 0.1]) == [1, 1, 2, 2, 3]
    assert om.detect_levels([0.5, 0.49, 0.48]) == [1, 1, 1]
    assert om.detect_levels([0.7]) == [1]
    assert om.detect_levels([0.9, 0.1], max_levels=1) == [1, 1]
    # tie between the two 0.35 gaps: earliest boundary wins
    assert om.detect_levels([0.9, 0.85, 0.5, 0.45, 0.1], max_levels=2) == [1, 1, 2, 2, 2]
    assert om.detect_levels([0.0, 0.0, 0.0]) == [1, 1, 1]


def test_detect_levels_validation():
    with pytest.raises(ValueError, match="empty"):
        om.detect_levels([])
    with pytest.raises(ValueError, match="gap_fraction"):
        om.detect_levels([1.0], gap_fraction=0.0)
    with pytest.raises(ValueError, match="gap_fraction"):
        om.detect_levels([1.0], gap_fraction=1.0)
    with pytest.raises(ValueError, match="max_levels"):
        om.detect_levels([1.0], max_levels=0)
    with pytest.raises(ValueError, match="descending"):
        om.detect_levels([0.1, 0.2])


def test_detect_levels_scale_invariance(rng):
    for _ in range(50):
        n = int(rng.integers(1, 15))
        vals = np.sort(rng.random(n))[::-1]
        base = om.detect_levels(vals.tolist())
        for c in (3.0, 0.125, 1e6):
            assert om.detect_levels((vals * c).tolist()) == base


def test_detect_levels_matches_oracle(rng):
    for _ in range(200):
        n = int(rng.integers(1, 20))
        vals = np.sort(rng.integers(0, 8, size=n).astype(float))[::-1]
        frac = float(rng.uniform(0.05, 0.6))
        ml = int(rng.integers(1, 5))
        got = om.detect_levels(vals.tolist(), gap_fraction=frac, max_levels=ml)
        assert got == oracles.levels(vals.tolist(), frac, ml)
        assert max(got) <= ml
        assert got == sorted(got)


def test_analyze_partitions_order_and_share_sums(rng):
    for _ in range(20):
        n = int(rng.integers(12, 60))
        values = rng.integers(0, 4, size=n).astype(float)
        ts, seq = _analyzed(values.tolist(), m=3)
        table = om.partition_table(ts, seq)
        perms = [p.perm for p in seq.patterns]  # the rows, in order
        assert perms == sorted(perms)
        assert sum(table.occurrence.tolist()) == len(seq.codes)
        assert sum(table.occurrence_share.tolist()) == pytest.approx(1.0, abs=1e-12)
        assert sum(table.entry_share.tolist()) == pytest.approx(1.0, abs=1e-12)
        assert np.all(table.entries <= table.occurrence)
        assert np.all(table.entries >= 1)


def _oracle_partition(values, symbols, perm, w, sub):
    """(h, h_w, h_wt, degenerate, entry indices) of one partition, by the formulas."""
    entries = oracles.entry_positions(symbols)
    mine = [k * w for k in entries if symbols[k] == perm]
    subseries = [values[k * w] for k, s in enumerate(symbols) if s == perm]
    if oracles.window_count(len(subseries), sub.m, sub.tau, sub.w) < 2:
        return 0.0, 0.0, 0.0, True, mine
    probs = oracles.occupancy_probs(oracles.symbolize(subseries, sub.m, sub.tau, sub.w)).values()
    share, entry_share = symbols.count(perm) / len(symbols), len(mine) / len(entries)
    return oracles.shannon(probs), oracles.weighted(probs, share), oracles.weighted(probs, entry_share), False, mine


def test_every_partition_matches_oracle_on_secondary_window_grid(rng, monkeypatch):
    calls = []
    monkeypatch.setattr(ranking, "encode_windows", lambda *a: calls.append(a) or om.encoding.encode_windows(*a))
    one_window = 0
    for m, sub_m, sub_tau, sub_w in itertools.product(range(3, 8), (2, 3, 4), (1, 2), (1, 2, 3)):
        values = rng.integers(0, 4, size=int(rng.integers(150, 400))).astype(float).tolist()
        w = int(rng.integers(1, 3))
        ts, seq = _analyzed(values, m=m, w=w)
        sub = om.SubSeriesConfig(m=sub_m, tau=sub_tau, w=sub_w)
        symbols = [seq.patterns[i].perm for i in seq.inverse.tolist()]
        calls.clear()
        t = om.partition_table(ts, seq, sub)
        assert len(calls) <= 1
        rows = range(len(seq.patterns))
        for i, pattern, entry_indices in zip(rows, seq.patterns, t.entry_indices(rows), strict=True):
            h, h_w, h_wt, degenerate, want_entries = _oracle_partition(values, symbols, pattern.perm, w, sub)
            assert (bool(t.degenerate[i]), entry_indices.tolist()) == (degenerate, want_entries)
            assert t.degenerate[i] == (t.occurrence[i] < sub.min_samples())
            got = [t.entropy[i], t.weighted_entropy[i], t.transition_entropy[i]]
            assert got == pytest.approx([h, h_w, h_wt], abs=1e-12)
            one_window += oracles.window_count(int(t.occurrence[i]), sub_m, sub_tau, sub_w) == 1
    assert one_window > 0  # some partitions host exactly one secondary window


def test_all_degenerate_partitions_symbolize_nothing(monkeypatch):
    def refuse(*args):
        raise AssertionError("no sub-series can host two secondary windows")

    monkeypatch.setattr(ranking, "encode_windows", refuse)
    ts, seq = _analyzed([0, 3, 1, 2, 2, 0, 3, 1, 0, 2, 3], m=3)
    t = om.partition_table(ts, seq)
    assert len(t.occurrence) and np.all(t.degenerate & (t.occurrence < 4))
    assert set(zip(t.entropy.tolist(), t.weighted_entropy.tolist(), t.transition_entropy.tolist())) == {(0.0, 0.0, 0.0)}
    assert t.entries.sum() == seq.entry_count


def test_level_config_holds_detector_defaults_and_checks():
    assert om.LevelConfig() == om.LevelConfig(gap_fraction=0.15, max_levels=3)
    with pytest.raises(om.ConfigError, match="gap_fraction"):
        om.LevelConfig(gap_fraction=1.5)
    with pytest.raises(om.ConfigError, match="max_levels"):
        om.LevelConfig(max_levels=0)
    ts, seq = _analyzed(PI_DIGITS)
    one = om.partition_table(ts, seq, levels=om.LevelConfig(max_levels=1))
    assert set(one.transition_level.tolist()) == {1}


def test_subseries_config_checks_its_window():
    with pytest.raises(om.ConfigError, match="m must lie"):
        om.SubSeriesConfig(m=1)


def _assert_table_is_oracle(ts, seq, sub=None, levels=None):
    """Every column of the table, and the entry indices of every row, bitwise as the per-partition oracle."""
    table = om.partition_table(ts, seq, sub, levels)
    want = oracles.partition_reports(ts, seq, sub, levels)
    assert table.seq is seq
    for name in ("occurrence", "entries", "occurrence_share", "entry_share", "entropy",
                 "weighted_entropy", "transition_entropy", "degenerate", *LEVEL_KEYS):
        column = getattr(table, name)
        assert column.shape == (len(want),), name
        assert column.tobytes() == np.array([getattr(r, name) for r in want], dtype=column.dtype).tobytes(), name
    for mine, theirs in zip(table.entry_indices(np.arange(len(want))), want, strict=True):
        assert mine.dtype == theirs.entry_indices.dtype
        assert np.array_equal(mine, theirs.entry_indices)
    return table


def test_partition_table_matches_oracle_on_tied_series(rng):
    for m in range(3, 8):
        for _ in range(4):
            values = rng.integers(0, 4, size=int(rng.integers(200, 3000))).astype(float)
            w = int(rng.integers(1, 3))
            ts, seq = _analyzed(values, m=m, w=w)
            _assert_table_is_oracle(ts, seq)


def test_partition_table_matches_oracle_on_secondary_window_grid(rng):
    widest = 0
    for sub_m, sub_tau, sub_w in itertools.product((2, 3, 4, 5), (1, 2), (1, 2, 3)):
        sub = om.SubSeriesConfig(m=sub_m, tau=sub_tau, w=sub_w)
        levels = om.LevelConfig(gap_fraction=float(rng.uniform(0.02, 0.3)), max_levels=int(rng.integers(1, 5)))
        for values in (rng.standard_normal(2000), rng.integers(0, 4, size=2000).astype(float)):
            ts, seq = _analyzed(values, m=3)
            table = _assert_table_is_oracle(ts, seq, sub, levels)
            for i, pattern in enumerate(seq.patterns):
                if not table.degenerate[i]:
                    codes = om.symbolize(om.extract_subseries(ts, seq, pattern), sub.window()).codes
                    widest = max(widest, len(np.unique(codes[:-1])))
    assert widest > 8  # some entropy sums reach numpy's pairwise summation


def test_partition_table_matches_oracle_when_degenerate_or_tied(rng):
    cases = [
        ([0, 3, 1, 2, 2, 0, 3, 1, 0, 2, 3], 3, None),  # every partition degenerate
        ([2.0] * 40, 4, None),  # one pattern, one constant sub-series
        ([0, 1] * 30, 5, None),  # two alternating patterns
        (rng.integers(0, 2, size=500), 6, None),
        (rng.integers(0, 2, size=300), 7, om.SubSeriesConfig(m=5, tau=2, w=3)),  # most partitions degenerate
        # two blocks of windows, and sub-series on both sides of the 2 * 24 + 2 samples a secondary pair needs
        (rng.standard_normal(2 * BLOCK), 6, om.SubSeriesConfig(tau=24)),
    ]
    for values, m, sub in cases:
        ts, seq = _analyzed(np.asarray(values, dtype=float), m=m)
        table = _assert_table_is_oracle(ts, seq, sub)
        assert table.entries.sum() == seq.entry_count


def test_partition_table_matches_oracle_on_lorenz(lorenz_series, lorenz_analysis):
    seq, _ = lorenz_analysis
    table = _assert_table_is_oracle(lorenz_series, seq)
    every = table.entry_indices(np.arange(len(table.entries)))
    rows = np.arange(1, len(every), 3)  # any ascending rows, gathered together
    assert [e.tolist() for e in table.entry_indices(rows)] == [every[i].tolist() for i in rows]
    assert table.entry_indices([]) == []
    with pytest.raises(ValueError, match="ascend"):
        table.entry_indices([2, 1])


TABLE_COLUMNS = (
    "occurrence", "entries", "occurrence_share", "entry_share", "entropy", "weighted_entropy",
    "transition_entropy", "degenerate", *LEVEL_KEYS,
)


def _assert_table_is_one_pass_oracle(ts, seq, sub=None):
    table = om.partition_table(ts, seq, sub)
    want = oracles.partition_columns(ts, seq, sub)
    assert [f.name for f in dataclasses.fields(table)] == ["seq", *TABLE_COLUMNS]  # no field beyond these columns
    for name in TABLE_COLUMNS:
        column = getattr(table, name)
        assert column.dtype == want[name].dtype and column.tobytes() == want[name].tobytes(), name
    entry_indices = table.entry_indices(np.arange(len(table.entries)))
    entry_offsets = np.cumsum([0, *map(len, entry_indices)])
    for name, column in (("entry_starts", np.concatenate(entry_indices)), ("entry_offsets", entry_offsets)):
        assert column.dtype == want[name].dtype and column.tobytes() == want[name].tobytes(), name
    return want


@pytest.mark.parametrize("windows", [BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 3])
def test_partition_table_blocks_match_one_pass_oracle(windows, rng):
    for (w, tau), sub in itertools.product(itertools.product((1, 3), (1, 2)), (None, om.SubSeriesConfig(m=4, tau=2, w=3))):
        cfg = om.WindowConfig(m=4, tau=tau, w=w)
        n = (windows - 1) * w + cfg.span + 1
        # noise, tied samples, and a monotone series: one partition holding every window
        for values in (rng.standard_normal(n), rng.integers(0, 3, size=n).astype(float), np.arange(n, dtype=float)):
            ts = om.TimeSeries(values, dt=1.0)
            _assert_table_is_one_pass_oracle(ts, om.symbolize(ts, cfg), sub)


def test_partition_table_sums_more_pairs_than_a_block_like_one_pass_oracle(rng, monkeypatch):
    pairs = []
    sums = ranking._entropy_sums
    monkeypatch.setattr(ranking, "_entropy_sums", lambda tally, *a: pairs.append(len(tally.keys)) or sums(tally, *a))
    ts = om.TimeSeries(rng.standard_normal(2 * BLOCK + 3), dt=1.0)
    _assert_table_is_one_pass_oracle(ts, om.symbolize(ts, om.WindowConfig(m=6, tau=1)), om.SubSeriesConfig(m=5))
    assert pairs[0] > BLOCK  # so the sums run over more than one partition-aligned block of pairs


@pytest.mark.parametrize(
    "m, sub, batched",
    [
        # two partitions of about 5e4 windows, each with more of the 8! secondary patterns than BLOCK
        pytest.param(2, om.SubSeriesConfig(m=8), lambda lengths: lengths.max() > BLOCK, id="more-pairs-than-a-block"),
        # 5040 partitions with at most 6 pairs each: some pair count L is shared by more than BLOCK // L of them
        pytest.param(
            7, None, lambda lengths: any(n > BLOCK // L for L, n in enumerate(np.bincount(lengths)) if L),
            id="more-partitions-than-a-batch",
        ),
    ],
)
def test_entropy_sum_batches_match_one_pass_oracle(m, sub, batched, rng, monkeypatch):
    lengths = []
    sums = ranking._entropy_sums

    def pair_counts(tally, *a):
        lengths.append(np.bincount(tally.keys // max(len(tally.codes), 1)))
        return sums(tally, *a)

    monkeypatch.setattr(ranking, "_entropy_sums", pair_counts)
    ts = om.TimeSeries(rng.standard_normal(100_000), dt=1.0)
    _assert_table_is_one_pass_oracle(ts, om.symbolize(ts, om.WindowConfig(m=m, tau=1)), sub)
    assert batched(lengths[0])


def _transient(call):
    """What ``call`` returns, and its traced peak less the memory it leaves allocated."""
    tracemalloc.start()
    try:
        result = call()
        held, peak = tracemalloc.get_traced_memory()
        return result, peak - held
    finally:
        tracemalloc.stop()


def test_window_pass_memory_does_not_grow_with_windows():
    peaks = []
    cfg = om.WindowConfig(m=7, tau=1)
    for n in (50_000, 400_000):
        ts = om.TimeSeries(np.random.default_rng(0).normal(size=n), dt=1.0)
        seq, symbolizing = _transient(lambda: om.symbolize(ts, cfg))
        seq.inverse, seq.entries  # the grouping every consumer shares, computed outside the passes
        _, measuring = _transient(lambda: om.partition_table(ts, seq))
        peaks.append(max(symbolizing, measuring))
    assert peaks[1] <= 1.2 * peaks[0], f"peak {peaks[1]} B at 4e5 samples against {peaks[0]} B at 5e4"


@pytest.mark.parametrize("sub_tau", [100, 1000])
def test_secondary_pass_memory_does_not_grow_with_sub_tau(sub_tau):
    # 5e4 windows over the 720 patterns of m=6: no sub-series has the 2 * sub_tau + 2 samples a secondary pair needs
    ts = om.TimeSeries(np.random.default_rng(0).normal(size=50_000), dt=1.0)
    seq = om.symbolize(ts, om.WindowConfig(m=6, tau=1))
    seq.inverse, seq.entries  # the grouping every consumer shares, computed outside the passes
    _, default = _transient(lambda: om.partition_table(ts, seq))
    table, wide = _transient(lambda: om.partition_table(ts, seq, om.SubSeriesConfig(tau=sub_tau)))
    assert table.degenerate.all() and not table.entropy.any()
    assert wide <= default, f"peak {wide} B at sub tau {sub_tau} against {default} B at the default"


def test_partition_table_keeps_no_array_over_the_windows():
    held = []
    cfg = om.WindowConfig(m=7, tau=1)
    for n in (50_000, 400_000):
        ts = om.TimeSeries(np.random.default_rng(0).normal(size=n), dt=1.0)
        seq = om.symbolize(ts, cfg)
        seq.inverse, seq.entries  # the grouping every consumer shares, computed outside the table
        tracemalloc.start()
        try:
            table = om.partition_table(ts, seq)
            held.append(tracemalloc.get_traced_memory()[0])
        finally:
            tracemalloc.stop()
        assert len(table.occurrence) == len(seq.pattern_codes)
    assert held[1] <= 1.2 * held[0], f"the table keeps {held[1]} B at 4e5 samples against {held[0]} B at 5e4"


def test_partition_pass_and_pattern_queries_read_no_start_indices():
    ts = om.TimeSeries(np.random.default_rng(2).normal(size=3000), dt=1.0)
    seq = om.symbolize(ts, om.WindowConfig(m=3, tau=2, w=3))
    table = om.partition_table(ts, seq)
    entries = om.entry_points(seq, seq.patterns[1])
    sub = om.extract_subseries(ts, seq, seq.patterns[1])
    picked = table.entry_indices([0, 2])
    assert "start_indices" not in vars(seq)
    starts = seq.start_indices  # read only now, to check the starts derived without it
    assert entries.tolist() == starts[(seq.inverse == 1) & seq.entries].tolist()
    assert [p.tolist() for p in picked] == [starts[(seq.inverse == i) & seq.entries].tolist() for i in (0, 2)]
    assert sub.samples.tolist() == ts.samples[starts[seq.inverse == 1]].tolist()
