import io
import json
import sys
import tracemalloc

import numpy as np
import pytest

import ordmaps as om
from ordmaps import exports, manifest
from ordmaps.series import CHUNK, SampleText, write_rows

from oracles import csv_text, series_text


def _analyzed(values, m=2):
    ts = om.TimeSeries(np.asarray(values, dtype=float), dt=1.0)
    seq = om.symbolize(ts, om.WindowConfig(m=m, tau=1, w=1))
    return ts, seq


def test_write_symbols_csv_display_ranking(tmp_path):
    ts = om.TimeSeries(np.array([1.0, 2.0, 1.0]), dt=1.0)
    seq = om.symbolize(ts, om.WindowConfig(m=2, tau=1, ranking="amplitude"))
    path = tmp_path / "symbols.csv"
    exports.write_symbols_csv(seq, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "start_index,pattern"
    # chronological (1,2) displays as amplitude (2,1)
    assert lines[1] == "0,2-1"
    assert lines[2] == "1,1-2"


def test_write_partitions_csv_layout(tmp_path):
    ts, seq = _analyzed([3, 1, 4, 1, 5, 9, 2, 6])
    path = tmp_path / "partitions.csv"
    exports.write_partitions_csv(om.partition_table(ts, seq), path)
    lines = path.read_text().splitlines()
    assert lines[0] == ",".join(exports.PARTITION_COLUMNS)
    pats = [line.split(",")[0] for line in lines[1:]]
    assert pats == sorted(pats)
    assert len(lines) == 1 + len(seq.patterns)


def test_float_cells_round_trip(tmp_path):
    ts, seq = _analyzed([3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5, 8, 9, 7, 9])
    table = om.partition_table(ts, seq)
    path = tmp_path / "partitions.csv"
    exports.write_partitions_csv(table, path)
    row = path.read_text().splitlines()[1].split(",")
    i = [p.dashed() for p in seq.patterns].index(row[0])
    assert float(row[5]) == table.entropy[i]
    assert float(row[6]) == table.weighted_entropy[i]


def test_write_entropy_curve_ranked(tmp_path):
    ts, seq = _analyzed([3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5, 8, 9, 7, 9])
    path = tmp_path / "curve.csv"
    exports.write_entropy_curve_csv(om.partition_table(ts, seq), path)
    lines = path.read_text().splitlines()
    assert lines[0] == "rank,pattern,h_wt,h_w,level_wt,level_w"
    ranks = [int(line.split(",")[0]) for line in lines[1:]]
    assert ranks == list(range(1, len(seq.patterns) + 1))
    hwt = [float(line.split(",")[2]) for line in lines[1:]]
    assert hwt == sorted(hwt, reverse=True)

    # two patterns fill most windows; the rare ones are degenerate, so their h_wt ties at 0
    ts, seq = _analyzed([0, 2, 1] * 20 + [3, 1, 4, 1, 5, 9, 2, 6], m=3)
    table = om.partition_table(ts, seq)
    assert 2 <= table.degenerate.sum() < len(seq.patterns)
    exports.write_entropy_curve_csv(table, path)
    row = {text: i for i, text in enumerate(seq.shown)}
    keys = [(-float(line.split(",")[2]), row[line.split(",")[1]]) for line in path.read_text().splitlines()[1:]]
    assert keys == sorted(keys)  # descending h_wt, tied rows in pattern order


def test_write_opn_files(tmp_path):
    _, seq = _analyzed([1, 2, 1, 2, 3])
    tc = om.build_opn(seq)
    edges = tmp_path / "edges.csv"
    nodes = tmp_path / "nodes.csv"
    exports.write_opn_edges_csv(tc, edges)
    exports.write_opn_nodes_csv(seq, nodes)
    edge_lines = edges.read_text().splitlines()
    assert edge_lines[0] == "from_pattern,to_pattern,count"
    # zero-count edges are omitted: 2-1 -> 2-1 never happens
    assert "2-1,2-1" not in edges.read_text()
    assert edge_lines[1:] == ["1-2,1-2,1", "1-2,2-1,1", "2-1,1-2,1"]
    node_lines = nodes.read_text().splitlines()
    assert node_lines[0] == "pattern,occupancy"
    assert node_lines[1].startswith("1-2,0.666666")


def test_write_frm_csv_with_tags(tmp_path):
    ts = om.TimeSeries(np.array([0.0, 3.0, 0.0, -1.0, -0.5, -2.0, 0.0, 4.0, 0.0, 2.0, 0.0]), dt=1.0)
    rm = om.maxima_frm(ts, sign_split=True)
    path = tmp_path / "frm.csv"
    exports.write_frm_csv(rm, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "v,v_next,source"
    assert lines[1] == "3,-0.5,maxima:pos"
    assert lines[2] == "-0.5,4,maxima:neg"

    plain = om.frm_from_entries(ts, [1, 7, 9])
    exports.write_frm_csv(plain, path)
    assert path.read_text().splitlines()[1] == "3,4,partition"


def test_write_frm_combined(tmp_path):
    ts = om.TimeSeries(np.array([0.0, 3.0, 0.0, 1.0, 0.0, 5.0, 0.0, 2.0, 0.0]), dt=1.0)
    a = om.frm_from_entries(ts, [1, 3, 5], source="partition:1-2")
    b = om.maxima_frm(ts)
    path = tmp_path / "all.csv"
    exports.write_frm_combined_csv([a, b], path)
    lines = path.read_text().splitlines()
    assert len(lines) == 1 + len(a) + len(b)
    assert {line.split(",")[2] for line in lines[1:]} == {"partition:1-2", "maxima"}


def test_diagonal_summary_keys():
    ts = om.TimeSeries(np.array([0.0, 3.0, 0.0, 1.0, 0.0, 5.0, 0.0, 2.0, 0.0]), dt=1.0)
    rm = om.maxima_frm(ts)
    summary = exports.diagonal_summary([rm])
    entry = summary["maxima"]
    assert set(entry) == {"pairs", "above", "below", "on", "wing_above", "wing_below", "wing_on"}
    assert entry["pairs"] == len(rm)
    assert entry["above"] + entry["below"] + entry["on"] == entry["pairs"]
    assert entry["wing_above"] + entry["wing_below"] + entry["wing_on"] == entry["pairs"]


def test_write_level_files(tmp_path):
    net = om.build_level_network([1, 2, 1, 1, 3])
    path = tmp_path / "levelnet.csv"
    exports.write_level_network_csv(net, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "from_level,to_level,weight"
    # full matrix including zero weights, row-major
    assert len(lines) == 1 + 9
    assert lines[1] == "1,1,1"
    assert lines[-1] == "3,3,0"

    _, seq = _analyzed([1, 2, 3, 2, 1, 2])
    path = tmp_path / "levelseq.csv"
    exports.write_level_sequence_csv(seq, np.array([1, 1, 2, 2, 1]), path)
    lines = path.read_text().splitlines()
    assert lines[0] == "start_index,level"
    assert lines[1] == "0,1"
    assert lines[3] == "2,2"


def _embedded(values, w):
    ts = om.TimeSeries(np.asarray(values, dtype=float), dt=1.0)
    seq = om.symbolize(ts, om.WindowConfig(m=2, tau=1, w=w))
    return om.delay_embed(ts, om.EmbeddingConfig(dim=2, lag=1)), seq


def test_write_embedding_csv_columns(tmp_path):
    # windows start at 0, 2, 4 with patterns 1-2, 1-2, 2-1; point 5 lies past the last one
    pts, seq = _embedded([1, 2, 1, 2, 3, 2, 1], w=2)
    path = tmp_path / "embed.csv"
    exports.write_embedding_csv(pts, path)
    assert path.read_text().splitlines() == ["x0,x1", "1,2", "2,1", "1,2", "2,3", "3,2", "2,1"]

    exports.write_embedding_csv(pts, path, seq, np.array([1, 1, 2]))
    assert path.read_text().splitlines() == [
        "x0,x1,pattern,level,is_entry",
        "1,2,1-2,1,1",
        "2,1,,,0",
        "1,2,1-2,1,0",
        "2,3,,,0",
        "3,2,2-1,2,1",
        "2,1,,,0",
    ]


def test_write_embedding_csv_rejects_levels_of_wrong_length(tmp_path):
    pts, seq = _embedded([1, 2, 1, 2, 3, 2, 1], w=2)
    with pytest.raises(ValueError, match="one label per window"):
        exports.write_embedding_csv(pts, tmp_path / "embed.csv", seq, np.array([1, 1]))


def test_write_series_round_trip(tmp_path):
    ts = om.TimeSeries(np.array([0.1, 0.2, 0.30000000000000004]), dt=0.25)
    path = tmp_path / "series.csv"
    exports.write_series_csv(ts, path)
    back = om.load_series(path)
    assert np.array_equal(back.samples, ts.samples)
    assert back.dt == ts.dt


def test_canonical_json_and_digest(tmp_path):
    spec = {"b": 1, "a": [1, 2], "nested": {"z": 0.5, "y": "s"}}
    text = manifest.canonical_json(spec)
    assert text.endswith("\n")
    assert text.index('"a"') < text.index('"b"')
    d1 = manifest.manifest_digest(spec)
    d2 = manifest.manifest_digest({"nested": {"y": "s", "z": 0.5}, "a": [1, 2], "b": 1})
    assert d1 == d2
    assert len(d1) == 64

    # manifest_sha256 itself never feeds the digest
    stamped = dict(spec, manifest_sha256=d1)
    assert manifest.manifest_digest(stamped) == d1

    path = tmp_path / "manifest.json"
    manifest.write_manifest(spec, path)
    loaded = manifest.load_manifest(path)
    assert loaded["manifest_sha256"] == d1
    assert loaded["a"] == [1, 2]


def test_write_columns_streams_rows(tmp_path):
    columns = list(np.random.default_rng(0).normal(size=(3, 50_000)))
    path = tmp_path / "cols.csv"
    exports._write_columns(path, ["a", "b", "c"], columns)  # warm-up
    tracemalloc.start()
    try:
        exports._write_columns(path, ["a", "b", "c"], columns)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    size = path.stat().st_size
    assert peak < 2 * size, f"peak {peak} B for a {size} B file"
    lines = path.read_text(encoding="utf-8").splitlines()
    assert len(lines) == 50_001
    assert lines[1] == ",".join(f"{c[0]:.17g}" for c in columns)


def test_write_columns_length_mismatch_leaves_no_file(tmp_path):
    path = tmp_path / "cols.csv"
    with pytest.raises(ValueError):
        exports._write_columns(path, ["a", "b"], [np.arange(3), np.arange(4)])
    assert not path.exists()


EDGE_FLOATS = [
    0.0, -0.0, 5e-324, -5e-324, 1.7976931348623157e308, -1.7976931348623157e308,
    0.1, 1e16, 1e17, 2.0**53, 2.0**53 + 2, -1.5,
]


def _floats(rng, n):
    """Edge values, then finite random bit patterns of which about a third repeat earlier values."""
    bits = rng.integers(np.iinfo(np.int64).min, np.iinfo(np.int64).max, size=2 * n + 8, endpoint=True)
    drawn = bits.view(np.float64)
    values = np.concatenate([EDGE_FLOATS, drawn[np.isfinite(drawn)]])[:n]
    repeats = values[rng.integers(0, max(n // 10, 1), size=n)]
    later = np.arange(n) >= len(EDGE_FLOATS)
    return np.where(later & (rng.random(n) < 1 / 3), repeats, values)


def _columns(n):
    """Six columns: a float series and its lagged copy, int64, uint64, bool as int, strings."""
    rng = np.random.default_rng(n)
    base = _floats(rng, n + 1)
    i64, u64 = np.iinfo(np.int64), np.iinfo(np.uint64)
    ints = np.concatenate([[i64.min, i64.max], rng.integers(-1000, 1000, size=n)])[:n]
    uints = np.concatenate([[u64.max], rng.integers(0, u64.max, size=n, dtype=np.uint64, endpoint=True)])[:n]
    flags = (rng.random(n) < 0.5).astype(np.int64)
    texts = np.array(["%", "%s", "%%", "", "1-2-3", "a%db"], dtype=object)[rng.integers(0, 6, size=n)]
    return [base[:n], base[1:], ints, uints, flags, texts]


@pytest.mark.parametrize("rows", [0, 1, CHUNK - 1, CHUNK, CHUNK + 1, 3 * CHUNK + 5])
@pytest.mark.parametrize("pick", [[0], [2], [3], [4], [5], [0, 1, 2, 3, 4, 5]], ids=str)
def test_write_columns_matches_per_cell_oracle(tmp_path, rows, pick):
    columns = [_columns(rows)[j] for j in pick]
    header = [f"c{j}" for j in pick]
    path = tmp_path / "cols.csv"
    exports._write_columns(path, header, columns)
    assert path.read_bytes() == csv_text(header, columns).encode()


@pytest.mark.parametrize("rows", [0, 1, CHUNK - 1, CHUNK, CHUNK + 1, 3 * CHUNK + 5])
def test_dump_series_matches_per_cell_oracle(tmp_path, rows):
    samples = _floats(np.random.default_rng(rows), rows)
    path = tmp_path / "series.csv"
    om.dump_series(om.TimeSeries(samples, dt=0.1), path)
    assert path.read_bytes() == series_text(samples, 0.1).encode()


def _traced_peak(write) -> int:
    write()  # warm-up
    tracemalloc.start()
    try:
        write()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("writer", ["write_columns", "dump_series"])
def test_renderer_memory_does_not_grow_with_rows(tmp_path, writer):
    path = tmp_path / "out.csv"
    peaks = []
    for rows in (50_000, 400_000):
        x = np.random.default_rng(0).normal(size=rows + 2)
        if writer == "write_columns":  # three lagged copies of one series, as in an embedding
            columns = [x[:-2], x[1:-1], x[2:]]
            peaks.append(_traced_peak(lambda: exports._write_columns(path, ["x0", "x1", "x2"], columns)))
        else:
            series = om.TimeSeries(x[:rows], dt=1.0)
            peaks.append(_traced_peak(lambda: om.dump_series(series, path)))
    assert peaks[1] <= 1.2 * peaks[0], f"peak {peaks[1]} B at 4e5 rows against {peaks[0]} B at 5e4"


# ---- SampleText: each sample rendered once, its cells copied into several files


@pytest.mark.parametrize("rows", [0, 1, CHUNK - 1, CHUNK, CHUNK + 1, 3 * CHUNK + 5])
def test_sample_text_matches_per_cell_oracle_and_write_rows(rows):
    samples = _floats(np.random.default_rng(rows), rows)
    text = SampleText(samples)
    rendered = io.StringIO()
    write_rows(rendered, [samples])
    lines = csv_text(["x"], [samples]).splitlines(keepends=True)[1:]
    assert text.text == "".join(lines) == rendered.getvalue()
    assert text.ends.dtype == np.int64 and text.ends.tolist() == np.cumsum([len(line) for line in lines]).tolist()
    for lo, hi in [(0, rows), (0, 0), (rows, rows), (rows // 3, rows - rows // 5), (max(rows - 1, 0), rows)]:
        assert text.block(lo, hi) == "".join(lines[lo:hi])
    picks = np.random.default_rng(1).integers(0, max(rows, 1), size=min(rows, 50))
    picks = np.concatenate([[0, rows - 1], picks]).astype(np.int64) if rows else picks.astype(np.int64)
    assert text.cells(picks, samples[picks]).tolist() == [lines[k][:-1] for k in picks.tolist()]


def test_sample_text_refuses_other_samples(tmp_path):
    samples = np.array([0.0, 1.0, 2.0, 3.0, 4.0])
    text = SampleText(samples)
    flipped = samples.copy()
    flipped[0] = -0.0  # equal under ==, but its cell reads -0
    with pytest.raises(ValueError, match="rendered from other samples"):
        om.dump_series(om.TimeSeries(flipped, dt=1.0), tmp_path / "series.csv", text=text)
    with pytest.raises(ValueError, match="rendered from other samples"):
        text.cells(np.array([1, 2]), np.array([1.0, 3.0]))
    points = om.delay_embed(om.TimeSeries(flipped, dt=1.0), om.EmbeddingConfig(dim=2, lag=1))
    with pytest.raises(ValueError, match="rendered from other samples"):
        exports.write_embedding_csv(points, tmp_path / "embedded.csv", text=text)
    rm = om.frm_from_entries(om.TimeSeries(samples[::-1].copy(), dt=1.0), [1, 3])
    with pytest.raises(ValueError, match="rendered from other samples"):
        exports.write_frm_csv(rm, tmp_path / "frm.csv", text=text)


def test_write_series_csv_through_sample_text(tmp_path):
    for rows in (2, CHUNK + 1):
        samples = _floats(np.random.default_rng(rows), rows)
        series = om.TimeSeries(samples, dt=0.1)
        exports.write_series_csv(series, tmp_path / "text.csv", text=SampleText(samples))
        exports.write_series_csv(series, tmp_path / "rows.csv")
        assert (tmp_path / "text.csv").read_bytes() == (tmp_path / "rows.csv").read_bytes()
        assert (tmp_path / "text.csv").read_bytes() == series_text(samples, 0.1).encode()


# (dim, lag): spans of 1, 2, 9 and 2 * 288 samples; with 3 * CHUNK + 5 samples every span
# reaches across a chunk boundary from the rows just before it
@pytest.mark.parametrize("dim, lag", [(2, 1), (3, 1), (3, 9), (2, 288), (3, 288), (4, CHUNK + 3)])
@pytest.mark.parametrize("colour", [True, False], ids=["coloured", "color-none"])
def test_write_embedding_csv_through_sample_text(tmp_path, dim, lag, colour):
    samples = _floats(np.random.default_rng(dim * lag), 3 * CHUNK + 5 + (dim - 1) * lag)
    series = om.TimeSeries(samples, dt=1.0)
    points = om.delay_embed(series, om.EmbeddingConfig(dim=dim, lag=lag))
    header, columns, extra = [f"x{j}" for j in range(dim)], list(points.T), ()
    if colour:
        seq = om.symbolize(series, om.WindowConfig(m=3, tau=2, w=3))
        levels = np.random.default_rng(0).integers(1, 4, size=len(seq))
        extra = (seq, levels)
        inside = seq.start_indices < len(points)
        starts = seq.start_indices[inside]
        pattern = np.full(len(points), "", dtype=object)
        pattern[starts] = seq.shown[seq.inverse[inside]]
        level = np.full(len(points), "", dtype=object)
        level[starts] = [str(label) for label in levels[inside].tolist()]
        is_entry = np.zeros(len(points), dtype=np.int64)
        is_entry[starts] = seq.entries[inside]
        header, columns = header + ["pattern", "level", "is_entry"], columns + [pattern, level, is_entry]
    exports.write_embedding_csv(points, tmp_path / "text.csv", *extra, text=SampleText(samples))
    exports.write_embedding_csv(points, tmp_path / "rows.csv", *extra)
    assert (tmp_path / "text.csv").read_bytes() == (tmp_path / "rows.csv").read_bytes()
    assert (tmp_path / "text.csv").read_bytes() == csv_text(header, columns).encode()


@pytest.mark.parametrize("sign_split", [False, True], ids=["untagged", "sign-split"])
def test_write_frm_files_through_sample_text(tmp_path, sign_split):
    samples = _floats(np.random.default_rng(5), 2 * CHUNK + 7)
    series = om.TimeSeries(samples, dt=1.0)
    maxima = om.maxima_frm(series, sign_split=sign_split)
    picked = om.frm_from_entries(series, np.arange(0, len(samples), 97), source="partition:1-2-3")
    text = SampleText(samples)
    for rm in (maxima, picked):
        exports.write_frm_csv(rm, tmp_path / "text.csv", text=text)
        exports.write_frm_csv(rm, tmp_path / "rows.csv")
        assert (tmp_path / "text.csv").read_bytes() == (tmp_path / "rows.csv").read_bytes()
    exports.write_frm_combined_csv([picked, maxima], tmp_path / "text.csv", text=text)
    exports.write_frm_combined_csv([picked, maxima], tmp_path / "rows.csv")
    assert (tmp_path / "text.csv").read_bytes() == (tmp_path / "rows.csv").read_bytes()
    sources = [f"maxima:{tag}" for tag in maxima.entry_tags[:-1]] if sign_split else ["maxima"] * len(maxima)
    columns = [
        np.concatenate([picked.values[:-1], maxima.values[:-1]]),
        np.concatenate([picked.values[1:], maxima.values[1:]]),
        np.array(["partition:1-2-3"] * len(picked) + sources, dtype=object),
    ]
    assert (tmp_path / "text.csv").read_bytes() == csv_text(["v", "v_next", "source"], columns).encode()


def test_sample_text_keeps_its_string_and_eight_bytes_per_sample():
    samples = np.random.default_rng(0).normal(size=400_000)
    SampleText(samples[:1000])  # warm-up
    tracemalloc.start()
    try:
        text = SampleText(samples)
        kept = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    bound = sys.getsizeof(text.text) + 8 * len(samples) + 4096
    assert kept <= bound, f"SampleText keeps {kept} B for {len(samples)} samples, bound {bound} B"
