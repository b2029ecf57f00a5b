import numpy as np
import pytest

import ordmaps as om


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
