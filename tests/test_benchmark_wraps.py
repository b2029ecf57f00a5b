"""The names ``perfbench/layers.py`` wraps still exist, with the parameters it reads.

``perfbench/layers.py`` times each layer by rebinding names in ``ordmaps.cli``
(``CLI_WRAPS``), and its file counter reads a ``path`` argument. A rebinding
reaches only the calls that look the name up when they run, so each wrapped
``ordmaps.cli`` name must be read inside a function of ``cli.py``; one that no
function reads would leave its layer's metrics at 0. The table and ``cli.py``
are read here with ``ast``, so nothing in ``perfbench/`` is imported or run.
"""

import ast
import importlib
import inspect
from pathlib import Path

import pytest

LAYERS = Path(__file__).resolve().parents[1] / "perfbench" / "layers.py"
# gone from the CLI on purpose; the benchmark reports them as not wrapped until it is rebuilt
GONE = {"ordmaps.cli.markov_estimate", "ordmaps.cli.analyze_partitions", "ordmaps.ranking.weighted_entropies"}


def _cli_wraps():
    """(module, attribute, counter name or None) for every row of CLI_WRAPS."""
    tree = ast.parse(LAYERS.read_text(encoding="utf-8"))
    table = next(
        node.value for node in tree.body
        if isinstance(node, ast.Assign) and [target.id for target in node.targets] == ["CLI_WRAPS"]
    )
    rows = []
    for row in table.elts:
        module, attr, _span, counter = row.elts
        rows.append((module.value, attr.value, counter.id if isinstance(counter, ast.Name) else None))
    return rows


def _read_in_functions():
    """Every name read inside a function or lambda of ordmaps/cli.py."""
    tree = ast.parse(Path(importlib.import_module("ordmaps.cli").__file__).read_text(encoding="utf-8"))
    functions = [node for node in ast.walk(tree) if isinstance(node, (ast.FunctionDef, ast.Lambda))]
    return {node.id for fn in functions for node in ast.walk(fn) if isinstance(node, ast.Name)}


WRAPS = _cli_wraps()
READ_IN_FUNCTIONS = _read_in_functions()


def test_the_table_was_read():
    assert len(WRAPS) >= 20
    assert ("ordmaps.cli", "write_embedding_csv", "_count_file") in WRAPS


@pytest.mark.parametrize("module, attr, counter", WRAPS, ids=[f"{m}.{a}" for m, a, _ in WRAPS])
def test_every_wrapped_name_resolves(module, attr, counter):
    name = f"{module}.{attr}"
    if name in GONE:
        assert not hasattr(importlib.import_module(module), attr), f"{name} is back; drop it from GONE"
        return
    fn = getattr(importlib.import_module(module), attr, None)
    assert callable(fn), f"{name} is wrapped by perfbench/layers.py but does not exist"
    if module == "ordmaps.cli":
        assert attr in READ_IN_FUNCTIONS, f"{name} is wrapped, but no function of cli.py reads it: its layer would read 0"
    if counter == "_count_file":
        assert "path" in inspect.signature(fn).parameters, f"{name} lost the path parameter _count_file reads"


def test_every_wrapped_file_writer_binds_path_on_a_live_run(tmp_path, monkeypatch):
    """Each ``_count_file`` row, rebound as ``perfbench/layers.py`` rebinds it, sees the path of every CSV a run writes."""
    cli = importlib.import_module("ordmaps.cli")
    written = []

    def recorder(fn):
        def record(*args, **kwargs):
            written.append(Path(inspect.signature(fn).bind(*args, **kwargs).arguments["path"]).name)
            return fn(*args, **kwargs)
        return record

    for module, attr, counter in WRAPS:
        if counter == "_count_file":
            owner = importlib.import_module(module)
            monkeypatch.setattr(owner, attr, recorder(getattr(owner, attr)))
    out = tmp_path / "run"
    argv = ["pipeline", "lorenz", "--seed", "1", "--points", "20000", "--discard", "0.5", "--out-dir", str(out)]
    assert cli.main(argv) == 0
    assert sorted(written) == sorted(path.name for path in out.glob("*.csv"))
