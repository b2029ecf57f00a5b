import sys
import types
from pathlib import Path

import pytest

import ordmaps as om
from ordmaps import manifest


def test_all_lists_every_public_name():
    public = [name for name, value in vars(om).items() if not name.startswith("_") and not isinstance(value, types.ModuleType)]
    assert sorted(om.__all__) == sorted(public)


@pytest.mark.skipif(sys.version_info < (3, 11), reason="tomllib is new in Python 3.11")
def test_one_version_for_package_manifest_and_pyproject():
    import tomllib

    pyproject = tomllib.loads((Path(__file__).parents[1] / "pyproject.toml").read_text(encoding="utf-8"))
    assert om.__version__ is manifest.TOOL_VERSION
    assert pyproject["project"]["version"] == om.__version__
