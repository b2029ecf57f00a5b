import tracemalloc

import numpy as np
import pytest

import ordmaps as om
import oracles
from ordmaps import sources


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
    for dt in (float("inf"), float("nan")):  # the one dt rule of series.check_dt
        with pytest.raises(om.ConfigError, match="dt must be positive and finite"):
            om.SimulationConfig(dt=dt)
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
    with pytest.raises(om.ConfigError, match="at least 2"):
        cfg = om.SimulationConfig(total_points=10, discard_fraction=0.95, seed=0)
        om.integrate_lorenz(cfg=cfg)


def test_kept_points_rule_is_checked_by_the_config():
    # rejected before any integrator runs, with the other config errors
    with pytest.raises(om.ConfigError, match="only 0 points kept after discarding; need at least 2"):
        om.SimulationConfig(total_points=10, discard_fraction=0.95, seed=0)
    with pytest.raises(om.ConfigError, match="only 1 points kept"):
        om.SimulationConfig(total_points=10, discard_fraction=0.85, seed=0)
    assert om.kept_points(om.SimulationConfig(total_points=10, discard_fraction=0.8, seed=0)) == 2


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


def _dropped(cfg):
    return cfg.total_points - om.kept_points(cfg)


def _assert_matches_oracle(ts, xs, cfg):
    dropped = _dropped(cfg)
    assert np.array_equal(ts.samples, np.array(xs[dropped:]))
    assert ts.samples.tobytes() == np.array(xs[dropped:]).tobytes()
    assert ts.origin_time == dropped * cfg.dt


@pytest.mark.parametrize("discard", [0.0, 0.5])
@pytest.mark.parametrize("start", [{"seed": 4}, {"initial_state": (1.0, -2.0, 0.5)}], ids=["seed", "state"])
def test_flows_match_list_oracles(start, discard):
    cfg = om.SimulationConfig(dt=0.02, total_points=3001, discard_fraction=discard, **start)
    if "seed" in start:
        state = tuple(np.random.default_rng(start["seed"]).uniform(-1.0, 1.0, size=3).tolist())
    else:
        state = start["initial_state"]
    lp = om.LorenzParams()
    xs = oracles.lorenz(lp.sigma, lp.rho, lp.beta, state, cfg.dt, cfg.total_points)
    _assert_matches_oracle(om.integrate_lorenz(cfg=cfg), xs, cfg)
    rp = om.RosslerParams()
    xs = oracles.rossler(rp.alpha, rp.beta, rp.gamma, state, cfg.dt, cfg.total_points)
    _assert_matches_oracle(om.integrate_rossler(cfg=cfg), xs, cfg)


@pytest.mark.parametrize("discard", [0.0, 0.5])
@pytest.mark.parametrize("d", [1, 2, 3, 80])
def test_mackey_glass_ring_matches_history_oracle(d, discard):
    # x0 differs from the pre-history, so a ring read off by one step shows;
    # d=80 is a delay longer than the 50-point run
    cfg = om.SimulationConfig(dt=0.05, total_points=50, discard_fraction=discard, initial_state=(1.3,))
    params = om.MackeyGlassParams(delay=d * 0.05, history_value=0.5)
    assert om.delay_steps(params.delay, cfg.dt) == d
    xs = oracles.mackey_glass(params.beta, params.gamma, params.exponent, d, 0.5, 1.3, cfg.dt, cfg.total_points)
    _assert_matches_oracle(om.integrate_mackey_glass(params=params, cfg=cfg), xs, cfg)


MG_CASES = {
    "default": (om.MackeyGlassParams(), om.SimulationConfig()),
    # the generate-mackey-glass-flags golden case
    "golden-flags": (
        om.MackeyGlassParams(beta=0.2, gamma=0.1, delay=17.0, exponent=10.0, history_value=1.2),
        om.SimulationConfig(dt=0.1, total_points=3000, discard_fraction=0.3, initial_state=(0.9,)),
    ),
    "overflow-late": (om.MackeyGlassParams(gamma=-1.0, exponent=100.0), om.SimulationConfig(total_points=5000)),
    "negative-late": (om.MackeyGlassParams(beta=-1.0), om.SimulationConfig(total_points=5000)),
    # d=1: the pre-history overflows its power, yet the negative start is found first
    "negative-before-overflow": (
        om.MackeyGlassParams(delay=0.01, exponent=5000.0, history_value=2.0),
        om.SimulationConfig(total_points=100, initial_state=(-1.0,)),
    ),
}


@pytest.mark.parametrize("params, cfg", MG_CASES.values(), ids=MG_CASES)
def test_mackey_glass_matches_the_loop_it_replaced(params, cfg, monkeypatch):
    def outcome():
        try:
            return om.integrate_mackey_glass(params, cfg).samples.tobytes()
        except om.DivergenceError as exc:
            return str(exc), exc.step

    reused = outcome()
    monkeypatch.setattr(sources, "_mackey_glass", oracles.mackey_glass_ring)
    assert outcome() == reused


@pytest.mark.parametrize(
    "integrate", [om.integrate_lorenz, om.integrate_rossler, om.integrate_mackey_glass],
    ids=lambda f: f.__name__,
)
def test_integrators_store_only_the_kept_tail(integrate):
    integrate(cfg=om.SimulationConfig(total_points=100, discard_fraction=0.5, seed=1))  # warm-up
    cfg = om.SimulationConfig(total_points=200_000, discard_fraction=0.9, seed=1)
    tracemalloc.start()
    try:
        ts = integrate(cfg=cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(ts) == 20_000
    assert peak < cfg.total_points * 8, f"peak {peak} B for {cfg.total_points} points"
