import numpy as np
import pytest

import ordmaps as om


def test_kept_points_is_exact_decimal_arithmetic():
    # 10**6 * 0.1 must come out as 100000, not the float-floor 99999
    cfg = om.SimulationConfig(total_points=1_000_000, discard_fraction=0.9, seed=0)
    assert om.kept_points(cfg) == 100_000
    cfg = om.SimulationConfig(total_points=10, discard_fraction=0.35, seed=0)
    assert om.kept_points(cfg) == 6
    cfg = om.SimulationConfig(total_points=123, discard_fraction=0.0, seed=0)
    assert om.kept_points(cfg) == 123


def test_simulation_config_validation():
    with pytest.raises(om.ConfigError, match="dt"):
        om.SimulationConfig(dt=0.0)
    with pytest.raises(om.ConfigError, match="total_points"):
        om.SimulationConfig(total_points=1)
    with pytest.raises(om.ConfigError, match="discard_fraction"):
        om.SimulationConfig(discard_fraction=1.0)
    with pytest.raises(om.ConfigError, match="discard_fraction"):
        om.SimulationConfig(discard_fraction=-0.1)
    with pytest.raises(om.ConfigError, match="seed must be non-negative"):
        om.SimulationConfig(seed=-1)


def test_flows_need_seed_or_initial_state():
    cfg = om.SimulationConfig(total_points=100, discard_fraction=0.0)
    with pytest.raises(om.ConfigError, match="initial_state or seed"):
        om.integrate_lorenz(cfg=cfg)
    with pytest.raises(om.ConfigError, match="3 components"):
        om.integrate_rossler(
            cfg=om.SimulationConfig(total_points=100, discard_fraction=0.0, initial_state=(1.0,))
        )


def test_seed_reproducibility():
    cfg = om.SimulationConfig(total_points=500, discard_fraction=0.2, seed=42)
    a = om.integrate_lorenz(cfg=cfg)
    b = om.integrate_lorenz(cfg=cfg)
    assert np.array_equal(a.samples, b.samples)
    c = om.integrate_lorenz(cfg=om.SimulationConfig(total_points=500, discard_fraction=0.2, seed=43))
    assert not np.array_equal(a.samples, c.samples)


def test_tail_length_and_origin_time():
    cfg = om.SimulationConfig(dt=0.02, total_points=1000, discard_fraction=0.4, seed=3)
    ts = om.integrate_rossler(cfg=cfg)
    assert len(ts) == 600
    assert ts.origin_time == pytest.approx(400 * 0.02)


def test_everything_discarded_is_rejected():
    cfg = om.SimulationConfig(total_points=10, discard_fraction=0.95, seed=0)
    with pytest.raises(om.ConfigError, match="at least 2"):
        om.integrate_lorenz(cfg=cfg)


def test_divergence_reports_step():
    # a huge step makes RK4 blow up almost immediately
    cfg = om.SimulationConfig(dt=10.0, total_points=1000, discard_fraction=0.0,
                              initial_state=(1.0, 1.0, 1.0))
    with pytest.raises(om.DivergenceError, match=r"step \d+") as info:
        om.integrate_lorenz(cfg=cfg)
    assert info.value.step >= 1


def test_delay_steps_requires_exact_multiple():
    assert om.delay_steps(2.0, 0.01) == 200
    assert om.delay_steps(0.03, 0.01) == 3
    with pytest.raises(om.ConfigError, match="integer multiple"):
        om.delay_steps(0.025, 0.01)
    for delay in (0.0, float("nan"), float("inf")):
        with pytest.raises(om.ConfigError, match="delay must be positive"):
            om.delay_steps(delay, 0.01)


def test_mackey_glass_constant_history_is_fixed_point():
    # with x identically 1 every RK4 stage vanishes: 2*1/(1+1) - 1 = 0
    cfg = om.SimulationConfig(dt=0.01, total_points=200, discard_fraction=0.0)
    ts = om.integrate_mackey_glass(params=om.MackeyGlassParams(history_value=1.0), cfg=cfg)
    assert np.all(ts.samples == 1.0)


def test_mackey_glass_initial_state_is_scalar():
    cfg = om.SimulationConfig(total_points=100, discard_fraction=0.0, initial_state=(0.5, 0.5))
    with pytest.raises(om.ConfigError, match="single component"):
        om.integrate_mackey_glass(cfg=cfg)


def test_mackey_glass_negative_delayed_state_diverges():
    cfg = om.SimulationConfig(
        dt=0.01, total_points=100, discard_fraction=0.0, initial_state=(-1.0,)
    )
    params = om.MackeyGlassParams(delay=0.02)
    with pytest.raises(om.DivergenceError, match="nonnegative"):
        om.integrate_mackey_glass(params=params, cfg=cfg)


def test_mackey_glass_overflow_is_divergence():
    # float ** raises OverflowError where the product would be inf
    cfg = om.SimulationConfig(dt=0.01, total_points=100, discard_fraction=0.0)
    params = om.MackeyGlassParams(exponent=5000.0, history_value=2.0)
    with pytest.raises(om.DivergenceError, match="overflowed"):
        om.integrate_mackey_glass(params=params, cfg=cfg)


def test_mackey_glass_deterministic_and_bounded():
    cfg = om.SimulationConfig(dt=0.01, total_points=20_000, discard_fraction=0.5)
    a = om.integrate_mackey_glass(cfg=cfg)
    b = om.integrate_mackey_glass(cfg=cfg)
    assert np.array_equal(a.samples, b.samples)
    assert a.samples.min() > 0.0
    assert a.samples.max() < 2.0
