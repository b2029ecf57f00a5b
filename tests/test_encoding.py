import itertools
import tracemalloc

import numpy as np
import pytest

import ordmaps as om
import oracles
from ordmaps.encoding import BLOCK


# the six m=3 pairs from the worked catalogue: amplitude perm <-> chronological perm
CATALOG_M3 = [
    ((3, 2, 1), (1, 2, 3)),
    ((3, 1, 2), (1, 3, 2)),
    ((2, 1, 3), (3, 1, 2)),
    ((2, 3, 1), (2, 1, 3)),
    ((1, 3, 2), (2, 3, 1)),
    ((1, 2, 3), (3, 2, 1)),
]


def _dashed(perm):
    return "-".join(map(str, perm))


def _perm(text):
    return om.OrdinalPattern.from_dashed(text).perm


def _shown(codes, m, ranking):
    """``shown`` of a sequence whose windows carry the given keys, under the given ranking."""
    return om.SymbolSequence(np.asarray(codes, dtype=np.int64), om.WindowConfig(m=m, ranking=ranking)).shown.tolist()


def _shown_per_window(values, m, ranking):
    """The shown text of each window of m consecutive samples, windows sliding by m."""
    seq = om.symbolize(om.TimeSeries(np.asarray(values, dtype=float), dt=1.0), om.WindowConfig(m=m, tau=1, w=m, ranking=ranking))
    return seq.shown[seq.inverse].tolist()


def test_catalog_m3_both_directions():
    # window k holds the amplitude ranks of pair k as values, rank 1 the highest
    values = [4 - r for amp, _ in CATALOG_M3 for r in amp]
    assert _shown_per_window(values, 3, "amplitude") == [_dashed(amp) for amp, _ in CATALOG_M3]
    assert _shown_per_window(values, 3, "chronological") == [_dashed(chron) for _, chron in CATALOG_M3]
    for amp, chron in CATALOG_M3:
        assert oracles.chron_to_amplitude(chron) == amp
        assert oracles.amplitude_to_chron(amp) == chron


def test_ranking_conversion_round_trip():
    rng = np.random.default_rng(7)
    for m in range(2, 9):
        perms = [tuple(int(v) for v in rng.permutation(m) + 1) for _ in range(20)]
        codes = sorted({oracles.encode(perm, m) for perm in perms})
        # each amplitude row converts back to its own key, and the chronological row is the key's digits
        assert [oracles.encode(oracles.amplitude_to_chron(_perm(t)), m) for t in _shown(codes, m, "amplitude")] == codes
        assert [oracles.encode(_perm(t), m) for t in _shown(codes, m, "chronological")] == codes


def _perms_to_check():
    """Every permutation for m = 2..6, and random ones for m = 7..15."""
    rng = np.random.default_rng(15)
    for m in range(2, 7):
        yield from itertools.permutations(range(1, m + 1))
    for m in range(7, 16):
        for _ in range(50):
            yield tuple((rng.permutation(m) + 1).tolist())


def test_one_row_codec_matches_loop_oracles():
    by_m = {}
    for perm in _perms_to_check():
        m = len(perm)
        code = oracles.encode(perm, m)
        assert om.encoding.encode_perm_rows(np.array([perm])).tolist() == [code]
        assert tuple(om.encoding.decode_perm_rows(np.array([code]), m)[0].tolist()) == oracles.decode(code, m) == perm
        by_m.setdefault(m, set()).add(code)
    for m, codes in by_m.items():
        codes = sorted(codes)
        chron = [oracles.decode(code, m) for code in codes]
        assert _shown(codes, m, "chronological") == [_dashed(perm) for perm in chron]
        amplitude = _shown(codes, m, "amplitude")
        assert amplitude == [_dashed(oracles.chron_to_amplitude(perm)) for perm in chron]
        assert [oracles.amplitude_to_chron(_perm(text)) for text in amplitude] == chron


def test_pattern_of_window_matches_oracle_exhaustively():
    for m in (2, 3, 4):
        windows = list(itertools.product((1.0, 2.0, 3.0), repeat=m))
        values = [v for window in windows for v in window]
        assert _shown_per_window(values, m, "chronological") == [_dashed(oracles.chronological(w)) for w in windows]
        assert _shown_per_window(values, m, "amplitude") == [_dashed(oracles.amplitude(w)) for w in windows]


def test_tie_earlier_sample_ranks_smaller():
    assert _shown_per_window([5.0, 5.0], 2, "chronological") == ["1-2"]
    assert _shown_per_window([5.0, 5.0], 2, "amplitude") == ["2-1"]


def test_pattern_validation():
    with pytest.raises(ValueError):
        om.OrdinalPattern((1, 3))  # not a permutation of 1..m
    with pytest.raises(ValueError):
        om.OrdinalPattern((1, 1, 2))
    with pytest.raises(ValueError):
        om.OrdinalPattern(())


def test_dashed_round_trip():
    p = om.OrdinalPattern((3, 1, 2))
    assert p.dashed() == "3-1-2"
    assert om.OrdinalPattern.from_dashed("3-1-2") == p
    with pytest.raises(ValueError):
        om.OrdinalPattern.from_dashed("3-0-2")


def test_window_config_validation():
    with pytest.raises(om.ConfigError):
        om.WindowConfig(m=1)
    with pytest.raises(om.ConfigError):
        om.WindowConfig(m=16)
    with pytest.raises(om.ConfigError):
        om.WindowConfig(tau=0)
    with pytest.raises(om.ConfigError):
        om.WindowConfig(w=0)
    with pytest.raises(om.ConfigError):
        om.WindowConfig(ranking="other")
    assert om.WindowConfig(m=4, tau=6).span == 18


def test_window_count_matches_oracle():
    rng = np.random.default_rng(11)
    for _ in range(200):
        n = int(rng.integers(2, 60))
        m = int(rng.integers(2, 6))
        tau = int(rng.integers(1, 5))
        w = int(rng.integers(1, 4))
        cfg = om.WindowConfig(m=m, tau=tau, w=w)
        assert om.window_count(n, cfg) == oracles.window_count(n, m, tau, w)


def test_pattern_code_preserves_lexicographic_order():
    for m in (3, 4):
        perms = sorted(itertools.permutations(range(1, m + 1)))
        codes = om.encoding.encode_perm_rows(np.array(perms)).tolist()
        assert codes == sorted(codes)
        assert len(set(codes)) == len(codes)


def test_code_round_trip_all_perms():
    for m in (2, 3, 4):
        perms = list(itertools.permutations(range(1, m + 1)))
        codes = om.encoding.encode_perm_rows(np.array(perms))
        assert codes.tolist() == [oracles.encode(p, m) for p in perms]
        assert list(map(tuple, om.encoding.decode_perm_rows(codes, m).tolist())) == perms


def test_symbolize_matches_oracle():
    rng = np.random.default_rng(23)
    for _ in range(100):
        n = int(rng.integers(8, 50))
        values = rng.integers(0, 4, size=n).astype(float)  # tie-prone
        m = int(rng.integers(2, 6))
        tau = int(rng.integers(1, 4))
        w = int(rng.integers(1, 4))
        cfg = om.WindowConfig(m=m, tau=tau, w=w)
        ts = om.TimeSeries(values, dt=1.0)
        expect = oracles.symbolize(values, m, tau, w, "chronological")
        if not expect:
            with pytest.raises(om.TooShortError):
                om.symbolize(ts, cfg)
            continue
        seq = om.symbolize(ts, cfg)
        assert seq.codes.tolist() == [oracles.encode(p, m) for p in expect]
        assert seq.start_indices.tolist() == list(range(0, len(expect) * w, w))


@pytest.mark.parametrize("windows", [BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 3])
def test_symbolize_blocks_match_one_shot_oracle(windows, rng):
    for w, tau in itertools.product((1, 3), (1, 2)):
        cfg = om.WindowConfig(m=5, tau=tau, w=w)
        n = (windows - 1) * w + cfg.span + 1
        for values in (rng.standard_normal(n), rng.integers(0, 3, size=n).astype(float), np.arange(n, dtype=float)):
            ts = om.TimeSeries(values, dt=1.0)
            seq = om.symbolize(ts, cfg)
            codes, starts = oracles.symbolize_one_shot(ts, cfg)
            assert len(seq) == windows
            assert seq.codes.dtype == codes.dtype and seq.codes.tobytes() == codes.tobytes()
            assert seq.start_indices.dtype == starts.dtype and seq.start_indices.tobytes() == starts.tobytes()


def test_strided_and_read_only_samples_give_the_bytes_of_their_contiguous_copy(rng):
    n = BLOCK // 2 + 3  # windows across more than one rank chunk
    column = rng.standard_normal((n, 3))[:, 1]
    every_other = rng.standard_normal(2 * n)[::2]
    frozen = rng.integers(0, 3, size=n).astype(float)
    frozen.flags.writeable = False
    for samples in (column, every_other, frozen):
        ts, copy = om.TimeSeries(samples, dt=1.0), om.TimeSeries(samples.copy(), dt=1.0)
        assert ts.samples is samples and copy.samples.flags.c_contiguous and copy.samples.flags.writeable
        for cfg in (om.WindowConfig(m=4, tau=2), om.WindowConfig(m=5, tau=1, w=3)):
            seq, want = om.symbolize(ts, cfg), om.symbolize(copy, cfg)
            assert seq.codes.tobytes() == want.codes.tobytes()
            table, want_table = om.partition_table(ts, seq), om.partition_table(copy, want)
            for name, values in vars(table).items():
                if name != "seq":
                    assert values.tobytes() == getattr(want_table, name).tobytes(), name
        embedding = om.EmbeddingConfig(dim=3, lag=9)
        assert om.delay_embed(ts, embedding).tobytes() == om.delay_embed(copy, embedding).tobytes()


def test_window_view_is_a_read_only_view_of_contiguous_samples():
    samples = np.arange(12.0)
    view = om.encoding.window_view(samples, 3, 2, 3)
    assert view.tolist() == [[0, 2, 4], [3, 5, 7], [6, 8, 10]]
    assert view.base is samples and not view.flags.writeable
    assert om.encoding.window_view(samples[::2], 2, 1).base is not samples  # a strided input is copied first
    assert om.encoding.window_view(samples, 3, 6).shape == (0, 3)


def test_symbolize_stride_and_start_indices():
    ts = om.TimeSeries(np.arange(10.0), dt=1.0)
    seq = om.symbolize(ts, om.WindowConfig(m=3, tau=2, w=3))
    # span 4 -> windows start at 0 and 3
    assert seq.start_indices.tolist() == [0, 3]
    assert all(seq.patterns[i].perm == (1, 2, 3) for i in seq.inverse.tolist())


def test_a_sequence_keeps_only_its_codes():
    ts = om.TimeSeries(np.random.default_rng(5).normal(size=100_000), dt=1.0)
    cfg = om.WindowConfig(m=4)
    om.symbolize(om.TimeSeries(ts.samples[:100], dt=1.0), cfg)  # one-time caches, such as the key place values
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        seq = om.symbolize(ts, cfg)
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert kept <= 8 * len(seq) + 4096, f"symbolize keeps {kept} B for {len(seq)} windows"


@pytest.mark.parametrize("w", [1, 3])
def test_start_indices_are_derived_once_from_the_slide(w):
    seq = om.symbolize(om.TimeSeries(np.sin(np.arange(100.0)), dt=1.0), om.WindowConfig(m=3, tau=2, w=w))
    want = np.arange(len(seq), dtype=np.int64) * w
    assert seq.start_indices.dtype == want.dtype and seq.start_indices.tobytes() == want.tobytes()
    assert seq.start_indices is seq.start_indices


def test_canonical_storage_independent_of_display_ranking():
    ts = om.TimeSeries(np.sin(np.arange(60.0)), dt=1.0)
    chron = om.symbolize(ts, om.WindowConfig(m=3, tau=2, ranking="chronological"))
    amp = om.symbolize(ts, om.WindowConfig(m=3, tau=2, ranking="amplitude"))
    assert chron.codes.tolist() == amp.codes.tolist()
    # display differs, canonical does not
    assert chron.patterns == amp.patterns
    assert chron.shown.tolist() == [p.dashed() for p in chron.patterns]
    assert amp.shown.tolist() == [_dashed(oracles.chron_to_amplitude(p.perm)) for p in chron.patterns]
    assert amp.shown.tolist() != chron.shown.tolist()


def test_too_short_series_is_rejected():
    ts = om.TimeSeries(np.arange(18.0), dt=1.0)
    with pytest.raises(om.TooShortError):
        om.symbolize(ts, om.WindowConfig(m=4, tau=6, w=1))  # needs 19


def test_distinct_patterns_lex_order_with_counts():
    ts = om.TimeSeries(np.array([1.0, 2.0, 1.0, 2.0, 1.0]), dt=1.0)
    seq = om.symbolize(ts, om.WindowConfig(m=2, tau=1, w=1))
    occurrence = om.partition_table(ts, seq).occurrence  # a run's per-pattern window count
    assert list(zip(seq.shown.tolist(), occurrence.tolist())) == [("1-2", 2), ("2-1", 2)]


@pytest.mark.parametrize("m", range(2, 12))
def test_shown_matches_per_pattern_display(m):
    rng = np.random.default_rng(m)
    values = rng.integers(0, 6, size=3000).astype(float)  # tie-prone
    for tau, w in ((1, 1), (2, 3)):
        for ranking in om.encoding.RANKINGS:
            seq = om.symbolize(om.TimeSeries(values, dt=1.0), om.WindowConfig(m=m, tau=tau, w=w, ranking=ranking))
            show = oracles.chron_to_amplitude if ranking == "amplitude" else tuple
            assert seq.shown.tolist() == [_dashed(show(p.perm)) for p in seq.patterns]


@pytest.mark.parametrize("m", range(2, 8))
def test_patterns_decode_like_decode_pattern(m):
    perms = np.array(list(itertools.permutations(range(1, m + 1))))
    codes = om.encoding.encode_perm_rows(perms)
    shuffled = np.random.default_rng(m).permutation(codes)
    seq = om.SymbolSequence(shuffled, om.WindowConfig(m=m))
    assert seq.patterns == tuple(om.OrdinalPattern(oracles.decode(code, m)) for code in sorted(codes.tolist()))
