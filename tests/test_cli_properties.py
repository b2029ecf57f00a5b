"""Property tests of the CLI error contract.

Whatever the manifest, series file or flag value, well-typed or not,
``cli.main`` either succeeds or returns 1 after printing exactly one
``error: ...`` line, and a failed run leaves no output directory. It never
raises.
"""

import contextlib
import copy
import io
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import ordmaps as om
from ordmaps import cli

# Derandomized so the suite stays deterministic; integers stay small so a
# drawn value cannot ask for minutes of integration.
SETTINGS = settings(
    max_examples=60,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)

SMALL_INTS = st.integers(min_value=-3, max_value=3000)
JSON_LEAVES = st.none() | st.booleans() | SMALL_INTS | st.floats() | st.text(max_size=6)
JSON_VALUES = st.recursive(
    JSON_LEAVES,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=6,
)

# valid runs on a 60-sample series, one per command and mode
BASE_RUNS = {
    "generate": ["generate", "lorenz", "--seed", "1", "--points", "300", "--discard", "0.5"],
    "analyze": ["analyze", "IN", "--m", "3", "--tau", "1"],
    "frm-pattern": ["frm", "IN", "--m", "3", "--tau", "1", "--pattern", "1-2-3"],
    "frm-level": ["frm", "IN", "--m", "3", "--tau", "1", "--level", "1"],
    "frm-maxima": ["frm", "IN", "--maxima", "--sign-split"],
    "levels": ["levels", "IN", "--m", "3", "--tau", "1", "--per-entry"],
    "embed": ["embed", "IN", "--dim", "2", "--lag", "3", "--color", "level"],
    "pipeline": ["pipeline", "IN", "--m", "3", "--dim", "2", "--lag", "2"],
}


def _main(argv):
    """Run the CLI into a fresh directory; check the outcome against the contract."""
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "out"
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            rc = cli.main([str(a) for a in argv] + ["--out-dir", str(out)])
        assert rc in (0, 1)
        if rc == 0:
            assert (out / "manifest.json").is_file()
        else:
            assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1, err.getvalue()
            assert not out.exists()


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """The series file and one manifest per base run."""
    root = tmp_path_factory.mktemp("props")
    series = root / "series.csv"
    om.dump_series(om.TimeSeries(np.sin(0.9 * np.arange(60.0)) + 0.01 * np.arange(60.0), dt=0.5), series)
    manifests = {}
    for name, argv in BASE_RUNS.items():
        out = root / name
        argv = [str(series) if a == "IN" else a for a in argv]
        assert cli.main(argv + ["--out-dir", str(out)]) == 0, name
        manifests[name] = json.loads((out / "manifest.json").read_text())
    return series, manifests


def _paths(node, prefix=()):
    """Every key path in a nested JSON object."""
    for key, value in node.items():
        yield prefix + (key,)
        if isinstance(value, dict):
            yield from _paths(value, prefix + (key,))


@SETTINGS
@given(data=st.data())
def test_mutated_manifest_never_escapes(inputs, data):
    _, manifests = inputs
    spec = copy.deepcopy(manifests[data.draw(st.sampled_from(sorted(manifests)))])
    for _ in range(data.draw(st.integers(1, 3))):
        path = data.draw(st.sampled_from(list(_paths(spec))))
        parent = spec
        for key in path[:-1]:
            parent = parent[key]
        op = data.draw(st.sampled_from(["drop", "add", "retype"]))
        if op == "drop":
            del parent[path[-1]]
        elif op == "add":
            parent[data.draw(st.text(min_size=1, max_size=6))] = data.draw(JSON_VALUES)
        else:
            parent[path[-1]] = data.draw(JSON_VALUES)
        if not spec:
            break
    with tempfile.TemporaryDirectory() as tmp:
        manifest = Path(tmp) / "manifest.json"
        manifest.write_text(json.dumps(spec))
        _main(["rerun", manifest])


LINES = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.text(max_size=8).map(lambda s: "# dt=" + s),
    st.sampled_from(["", "x", "1,2", "1 2", "nan", "-inf", "# comment", "# dt=0", "# dt=-1"]),
    st.text(max_size=8),
)


@SETTINGS
@given(
    lines=st.lists(LINES, max_size=12),
    command=st.sampled_from(["analyze", "levels", "frm-maxima", "embed"]),
    whitespace=st.booleans(),
)
def test_malformed_series_file_never_escapes(lines, command, whitespace):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "series.txt"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        window = [] if command == "frm-maxima" else ["--m", "2", "--tau", "1"]  # maxima mode refuses them
        argv = BASE_RUNS[command][:1] + [path, *window] + BASE_RUNS[command][2:]
        if whitespace:
            argv += ["--format", "whitespace"]
        _main(argv)


FLOATS = st.floats(allow_nan=True, allow_infinity=True) | st.sampled_from([0.0, 1.0, -1.0, 0.15, 1.5])
ANALYSIS_FLAGS = ["--m", "--tau", "--w", "--sub-m", "--sub-tau", "--sub-w", "--max-levels", "--gap-fraction", "--dt"]
EXTRA_FLAGS = {
    "frm-pattern": ["--pattern", "--level"],
    "frm-level": ["--level", "--pattern"],
    "frm-maxima": ["--level", "--pattern"],
    "embed": ["--dim", "--lag"],
    "pipeline": ["--dim", "--lag", "--frm-level", "--points", "--discard"],
}
GENERATE_FLAGS = {
    "lorenz": ["--sigma", "--rho", "--beta"],
    "rossler": ["--alpha", "--beta", "--gamma"],
    "mackey-glass": ["--beta", "--gamma", "--delay", "--exponent", "--history-value"],
}


# text that argparse may fail to convert (a usage error); at most 4 characters,
# so a value that does convert stays small
ILL_TYPED = st.text(max_size=4) | st.sampled_from(["abc", "1.5", "1e3", "0x10", ""])


def _flag_value(data, flag):
    if data.draw(st.integers(0, 3)) == 0:
        return data.draw(ILL_TYPED)
    if flag in ("--points", "--seed"):  # small, so no draw asks for a long integration
        return data.draw(st.integers(-3, 400))
    if flag == "--initial-state":
        return ",".join(map(str, data.draw(st.lists(FLOATS, max_size=4))))
    if flag == "--pattern":
        return data.draw(st.text(alphabet="1234-x", max_size=7))
    if flag in ANALYSIS_FLAGS[:7] + ["--dim", "--lag", "--level", "--frm-level"]:
        return data.draw(st.integers(-3, 20))
    return data.draw(FLOATS)


@SETTINGS
@given(data=st.data())
def test_out_of_range_flags_never_escape(inputs, data):
    series, _ = inputs
    name = data.draw(st.sampled_from(sorted(BASE_RUNS)))
    argv = [series if a == "IN" else a for a in BASE_RUNS[name]]
    if name == "generate":
        argv[1] = data.draw(st.sampled_from(sorted(GENERATE_FLAGS)))
        choices = GENERATE_FLAGS[argv[1]] + ["--dt", "--discard", "--points", "--seed", "--initial-state"]
    else:
        choices = ANALYSIS_FLAGS + EXTRA_FLAGS.get(name, [])
    flags = data.draw(st.lists(st.sampled_from(choices), min_size=1, max_size=3))
    # the --flag=value form keeps values such as -inf from reading as flags
    _main(argv + [f"{flag}={_flag_value(data, flag)}" for flag in flags])
