import hashlib
import random
import tracemalloc
import warnings

import numpy as np
import pytest

import ordmaps as om
import oracles
from ordmaps.series import _BATCH


def test_samples_coerced_to_float64():
    ts = om.TimeSeries(samples=[1, 2, 3], dt=0.5)
    assert ts.samples.dtype == np.float64
    assert len(ts) == 3


def test_times_use_origin():
    ts = om.TimeSeries(samples=[1.0, 2.0, 3.0], dt=0.5, origin_time=10.0)
    assert np.allclose(ts.times, [10.0, 10.5, 11.0])


def test_rejects_bad_shapes_and_dt():
    with pytest.raises(ValueError, match="one-dimensional"):
        om.TimeSeries(samples=[[1.0, 2.0]], dt=1.0)
    with pytest.raises(ValueError, match="dt must be positive"):
        om.TimeSeries(samples=[1.0, 2.0], dt=0.0)


def test_rejects_non_finite_sample_naming_index():
    with pytest.raises(ValueError, match="index 2"):
        om.TimeSeries(samples=[1.0, 2.0, np.nan], dt=1.0)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("index", [0, 4, 9999])
def test_non_finite_sample_message_names_its_first_index(bad, index):
    samples = np.full(10_000, 1e200)  # finite samples whose sum of squares overflows as well
    samples[index] = bad
    samples[-1] = np.nan
    with pytest.raises(ValueError) as info:
        om.TimeSeries(samples, dt=1.0)
    assert str(info.value) == f"non-finite sample at index {index}"


@pytest.mark.parametrize("big", [1e154, 1e200, -1.7976931348623157e308])
def test_finite_samples_whose_squares_overflow_are_accepted_without_warning(big):
    samples = np.array([1.0, big, -big, 0.5])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        ts = om.TimeSeries(samples, dt=1.0)
    assert ts.samples.tolist() == samples.tolist()


@pytest.mark.parametrize("samples", [[1e308, 1e308], [1.0, -1e308, -1e308]])
def test_finite_samples_whose_sum_overflows_are_accepted_without_warning(samples):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        ts = om.TimeSeries(samples, dt=1.0)
    assert ts.samples.tolist() == samples


def test_the_finite_check_makes_no_blas_call(monkeypatch):
    def blas(*args, **kwargs):
        raise AssertionError("called BLAS, which leaves its threads spinning")

    for name in ("vdot", "dot", "inner"):
        monkeypatch.setattr(np, name, blas)
    om.TimeSeries(np.linspace(-1.0, 1.0, 1000), dt=1.0)


def test_dump_load_round_trip(tmp_path):
    ts = om.TimeSeries(samples=[0.1, -2.5, 1e-17, 3.0], dt=0.01)
    path = tmp_path / "series.csv"
    om.dump_series(ts, path)
    back = om.load_series(path)
    assert back.dt == ts.dt
    assert np.array_equal(back.samples, ts.samples)


def test_header_dt_and_caller_override(tmp_path):
    path = tmp_path / "s.csv"
    path.write_text("# dt=0.25\nx\n1.0\n2.0\n")
    assert om.load_series(path).dt == 0.25
    assert om.load_series(path, dt=0.5).dt == 0.5


def test_missing_dt_is_config_error(tmp_path):
    path = tmp_path / "s.csv"
    path.write_text("1.0\n2.0\n")
    with pytest.raises(om.ConfigError, match="dt not given"):
        om.load_series(path)


def test_comments_and_blank_lines_skipped(tmp_path):
    path = tmp_path / "s.csv"
    path.write_text("# a comment\n\n1.0\n# dt=0.1 mid-file works too\n2.0\n\n")
    ts = om.load_series(path)
    assert ts.dt == 0.1
    assert np.array_equal(ts.samples, [1.0, 2.0])


def test_single_header_row_skipped_but_not_two(tmp_path):
    path = tmp_path / "s.csv"
    path.write_text("value\n1.0\n2.0\n")
    assert len(om.load_series(path, dt=1.0)) == 2
    path.write_text("value\nalso-text\n1.0\n2.0\n")
    with pytest.raises(om.ParseError) as info:
        om.load_series(path, dt=1.0)
    assert info.value.row == 2


def test_multi_column_row_rejected(tmp_path):
    path = tmp_path / "s.csv"
    path.write_text("1.0\n2.0,3.0\n")
    with pytest.raises(om.ParseError, match="row 2 has 2"):
        om.load_series(path, dt=1.0)


def test_non_numeric_mid_file_names_physical_row(tmp_path):
    path = tmp_path / "s.csv"
    path.write_text("# leading comment\n1.0\n2.0\noops\n")
    with pytest.raises(om.ParseError) as info:
        om.load_series(path, dt=1.0)
    assert info.value.row == 4


def test_non_finite_value_rejected(tmp_path):
    path = tmp_path / "s.csv"
    path.write_text("1.0\nnan\n")
    with pytest.raises(om.ParseError, match="non-finite"):
        om.load_series(path, dt=1.0)


def test_too_few_values(tmp_path):
    path = tmp_path / "s.csv"
    path.write_text("1.0\n")
    with pytest.raises(om.TooShortError):
        om.load_series(path, dt=1.0)


def test_whitespace_format(tmp_path):
    path = tmp_path / "s.dat"
    path.write_text("1.0\n  2.0\n3.0\n")
    ts = om.load_series(path, format="whitespace", dt=1.0)
    assert np.array_equal(ts.samples, [1.0, 2.0, 3.0])
    with pytest.raises(ValueError, match="format"):
        om.load_series(path, format="tsv", dt=1.0)


def test_sha256_tracks_content_and_dt():
    a = om.TimeSeries(samples=[1.0, 2.0], dt=0.1)
    b = om.TimeSeries(samples=[1.0, 2.0], dt=0.1)
    c = om.TimeSeries(samples=[1.0, 2.0], dt=0.2)
    d = om.TimeSeries(samples=[1.0, 2.5], dt=0.1)
    assert om.series_sha256(a) == om.series_sha256(b)
    assert om.series_sha256(a) != om.series_sha256(c)
    assert om.series_sha256(a) != om.series_sha256(d)


def test_sha256_hashes_the_little_endian_bytes_of_any_layout():
    x = np.linspace(-3.0, 7.0, 101) ** 3
    for samples in (x[::3], x.astype(">f8"), x[::-2].astype(">f8")):
        want = hashlib.sha256(np.ascontiguousarray(samples, dtype="<f8").tobytes() + b"dt=0.25").hexdigest()
        assert om.series_sha256(om.TimeSeries(samples, dt=0.25)) == want


def test_sha256_stable_across_dump_load(tmp_path):
    ts = om.TimeSeries(samples=np.linspace(-3.0, 7.0, 50) ** 3, dt=0.02)
    path = tmp_path / "s.csv"
    om.dump_series(ts, path)
    assert om.series_sha256(om.load_series(path)) == om.series_sha256(ts)


def test_unparsable_header_dt_is_parse_error_naming_row(tmp_path):
    path = tmp_path / "s.csv"
    path.write_text("x\n# dt=abc\n1.0\n2.0\n")
    with pytest.raises(om.ParseError, match="row 2") as info:
        om.load_series(path)
    assert info.value.row == 2


@pytest.mark.parametrize("bad", ["0", "-0.5", "nan", "inf"])
def test_unusable_dt_is_config_error(tmp_path, bad):
    path = tmp_path / "s.csv"
    path.write_text(f"# dt={bad}\n1.0\n2.0\n")
    with pytest.raises(om.ConfigError, match="dt must be positive and finite"):
        om.load_series(path)
    path.write_text("# dt=0.5\n1.0\n2.0\n")
    with pytest.raises(om.ConfigError, match="dt must be positive and finite"):
        om.load_series(path, dt=float(bad))


def test_bytes_that_are_not_utf8_count_as_text(tmp_path):
    path = tmp_path / "s.csv"
    path.write_bytes(b"# dt=1\n1.0\n\xff\xfe\n")
    with pytest.raises(om.ParseError, match="row 3"):
        om.load_series(path)
    path.write_bytes(b"# dt=1\ntemp\xe9rature\n1.0\n2.0\n")
    assert om.load_series(path).samples.tolist() == [1.0, 2.0]


def test_byte_order_mark_is_not_a_header(tmp_path):
    path = tmp_path / "s.csv"
    path.write_bytes(b"\xef\xbb\xbf1.5\n2.5\n3.5\n")
    assert om.load_series(path, dt=1.0).samples.tolist() == [1.5, 2.5, 3.5]


def test_byte_order_mark_does_not_hide_dt_comment(tmp_path):
    path = tmp_path / "s.csv"
    path.write_bytes(b"\xef\xbb\xbf# dt=0.1\n1.0\n2.0\n")
    assert om.load_series(path).dt == 0.1


def _outcome(load, path, format, dt):
    """The samples' bytes and dt, or the class, message and row of the error."""
    try:
        series = load(path, format, dt)
    except om.OrdmapsError as exc:
        return type(exc), str(exc), getattr(exc, "row", None)
    return series.samples.tobytes(), series.dt


NUMBERS = ["1.5", "-2", "1e-3", " 4.25 ", "\t7\t", "1_0", "+3", "0.1", "-0.0", "5e-324", "\u00a012\u2003"]
COMMENTS = ["# note", "# dt=0.5", "#dt = 2", "# dt=abc", "# dt=", "# dt=1e-3,x", "#"]
BLANKS = ["", "   ", "\t"]
TEXT = ["x", "value", "temp\ufffdrature", "\ufffd", "oops"]
ODD_CELLS = ["1.5,", ",1.5", "1,2", "1.5 2.5", "\t1.5\t", "1.5\t2", "1.5,,", " , ", "nan", "-inf", "inf"]
NEWLINES = ["\n", "\r\n", "\r"]


def _random_file(rng: random.Random) -> bytes:
    """Mostly numbers, with headers, comments, blanks and odd cells mixed in at a random rate."""
    odd = rng.choice([0.0, 0.02, 0.1, 0.3])
    lines = [rng.choice(TEXT) for _ in range(rng.choice([0, 0, 1, 2]))]
    for _ in range(rng.randint(0, 30)):
        kind = rng.random()
        if kind < odd:
            lines.append(rng.choice(ODD_CELLS + TEXT))
        elif kind < 2 * odd:
            lines.append(rng.choice(COMMENTS + BLANKS))
        else:
            lines.append(rng.choice(NUMBERS) if rng.random() < 0.5 else f"{rng.gauss(0, 1):.17g}")
    newline = rng.choice(NEWLINES + ["mixed"])
    text = "".join(line + (rng.choice(NEWLINES) if newline == "mixed" else newline) for line in lines)
    if text and rng.random() < 0.3:
        text = text[:-1]  # no final newline (or half of a CR LF)
    data = text.encode()
    if rng.random() < 0.1:
        cut = rng.randint(0, len(data))
        data = data[:cut] + b"\xff" + data[cut:]  # undecodable bytes
    if rng.random() < 0.1:
        data = b"\xef\xbb\xbf" + data
    return data


def test_loader_matches_line_by_line_oracle(tmp_path):
    rng = random.Random(20261018)
    path = tmp_path / "s.csv"
    kinds = set()
    for _ in range(600):
        path.write_bytes(_random_file(rng))
        format = rng.choice(["csv", "whitespace"])
        dt = rng.choice([None, 0.25])
        expect = _outcome(oracles.load_series, path, format, dt)
        assert _outcome(om.load_series, path, format, dt) == expect, path.read_bytes()
        kinds.add(expect[0] if isinstance(expect[0], type) else "loaded")
    assert kinds == {"loaded", om.ParseError, om.TooShortError, om.ConfigError}


@pytest.mark.parametrize(
    "bad",
    ["oops", "nan", "-inf", "1,2", "1.5,", ",1.5", "# dt=abc", "# dt=0.5", "", "\ufffd", "1_0", "x\ny"],
)
@pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"], ids=["LF", "CRLF", "CR"])
@pytest.mark.parametrize("head", [[], ["x"], ["# note"] * 5000 + ["x"]], ids=["none", "header", "header-in-batch-2"])
def test_loader_matches_oracle_past_the_first_batch(tmp_path, bad, newline, head):
    # rows of 18 characters once newlines read as one: the bad row lies past the first batch
    rows = [f"{x:.15f}" for x in np.random.default_rng(0).random(8000)]
    assert _BATCH < 18 * 4999 < 2 * _BATCH
    rows[4999] = bad
    path = tmp_path / "s.csv"
    path.write_bytes(newline.join(["# dt=1", *head, *rows, ""]).encode())
    for format in ("csv", "whitespace"):
        expect = _outcome(oracles.load_series, path, format, None)
        assert _outcome(om.load_series, path, format, None) == expect


def test_loader_memory_is_its_output_and_one_batch(tmp_path):
    peaks = []
    for rows in (50_000, 400_000):
        path = tmp_path / f"s{rows}.csv"
        om.dump_series(om.TimeSeries(np.random.default_rng(0).normal(size=rows), dt=1.0), path)
        om.load_series(path)  # warm-up
        tracemalloc.start()
        try:
            om.load_series(path)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    output = 8 * 400_000
    assert peaks[1] <= 1.2 * peaks[0] + output, f"peak {peaks[1]} B at 4e5 rows against {peaks[0]} B at 5e4"
