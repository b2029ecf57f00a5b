"""Shared fixtures. The benchmark trajectory is expensive, so it is
integrated once per session and reused by every test that needs it."""

import numpy as np
import pytest

import ordmaps as om


@pytest.fixture(scope="session", autouse=True)
def session_trajectory_cache(tmp_path_factory):
    """The CLI trajectory cache of session- and module-scoped fixtures, which
    run before any per-test one: never the user's."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv("XDG_CACHE_HOME", str(tmp_path_factory.mktemp("cache")))
        yield


@pytest.fixture(autouse=True)
def trajectory_cache(tmp_path_factory, monkeypatch):
    """A fresh, empty CLI trajectory cache per test, never the user's: every
    CLI run integrates unless the same test stored its trajectory before."""
    cache = tmp_path_factory.mktemp("cache")
    monkeypatch.setenv("XDG_CACHE_HOME", str(cache))
    return cache / "ordmaps"


@pytest.fixture(scope="session")
def lorenz_series():
    return om.integrate_lorenz(cfg=om.SimulationConfig(seed=1))


@pytest.fixture(scope="session")
def lorenz_analysis(lorenz_series):
    seq = om.symbolize(lorenz_series, om.WindowConfig())
    reports = om.analyze_partitions(lorenz_series, seq)
    return seq, reports


@pytest.fixture
def rng():
    return np.random.default_rng(20260817)


def pytest_terminal_summary(terminalreporter):
    """Echo one line per acceptance criterion after the test summary."""
    try:
        import test_acceptance
    except ImportError:
        return
    lines = test_acceptance.format_results()
    if not lines:
        return
    terminalreporter.section("acceptance criteria")
    for line in lines:
        terminalreporter.write_line(line)
