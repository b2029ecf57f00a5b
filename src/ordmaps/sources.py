"""Trajectory generators for three benchmark chaotic systems.

Classical fixed-step RK4 drives the Lorenz and Rossler flows. The
Mackey-Glass delay equation uses RK4 as well, with the lagged term read
from the integration history at exact grid offsets; half-step stage
evaluations interpolate linearly between the two straddling grid values,
so the delay must be an integer multiple of the step size.

Each system is a stream of states, one per grid point. The leading
``discard_fraction`` is dropped as transient without being stored, and
only the kept tail is stored, plus the d+1 past values that the
Mackey-Glass delayed term reads. The same configuration yields the same
float64 output on every run.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from itertools import islice

import numpy as np

from .errors import ConfigError, DivergenceError
from .series import CHUNK, TimeSeries, check_dt


@dataclass(frozen=True)
class LorenzParams:
    sigma: float = 10.0
    rho: float = 28.0
    beta: float = 8.0 / 3.0


@dataclass(frozen=True)
class RosslerParams:
    alpha: float = 0.2
    beta: float = 0.2
    gamma: float = 9.0


@dataclass(frozen=True)
class MackeyGlassParams:
    """Production/decay parameters for dx/dt = beta*x_d/(1+x_d^exponent) - gamma*x.

    ``x_d`` is the state delayed by ``delay`` time units. ``history_value``
    seeds the constant pre-history (and the initial state unless one is
    given explicitly).
    """

    beta: float = 2.0
    gamma: float = 1.0
    delay: float = 2.0
    exponent: float = 9.65
    history_value: float = 0.5


@dataclass(frozen=True)
class SimulationConfig:
    """Grid and transient-removal settings shared by all generators.

    Exactly one of ``initial_state`` and ``seed`` is needed for the
    three-dimensional flows; a seed draws the start uniformly from
    [-1, 1]^3. The Mackey-Glass equation starts from its constant history
    instead and accepts an optional one-component ``initial_state``.
    """

    dt: float = 0.01
    total_points: int = 1_000_000
    discard_fraction: float = 0.9
    initial_state: tuple[float, ...] | None = None
    seed: int | None = None

    def __post_init__(self):
        check_dt(self.dt)
        if self.total_points < 2:
            raise ConfigError(f"total_points must be at least 2, got {self.total_points}")
        if not 0.0 <= self.discard_fraction < 1.0:
            raise ConfigError(
                f"discard_fraction must lie in [0, 1), got {self.discard_fraction}"
            )
        if self.seed is not None and self.seed < 0:
            raise ConfigError(f"seed must be non-negative, got {self.seed}")
        if (keep := kept_points(self)) < 2:
            raise ConfigError(f"only {keep} points kept after discarding; need at least 2")


def kept_points(cfg: SimulationConfig) -> int:
    """Length of the retained tail: floor(total_points * (1 - discard_fraction)).

    Evaluated in exact rational arithmetic via the decimal rendering of the
    fraction, so 0.9 means nine tenths rather than its binary neighbour and
    a million points keep exactly 100000.
    """
    keep = Fraction(cfg.total_points) * (1 - Fraction(str(cfg.discard_fraction)))
    return int(keep)  # int() truncates, which is floor for non-negative values


def _initial_state_3d(cfg: SimulationConfig) -> tuple[float, float, float]:
    if cfg.initial_state is not None:
        if len(cfg.initial_state) != 3:
            raise ConfigError(
                f"initial_state needs 3 components, got {len(cfg.initial_state)}"
            )
        x, y, z = (float(v) for v in cfg.initial_state)
        return x, y, z
    if cfg.seed is None:
        raise ConfigError("provide either initial_state or seed")
    rng = np.random.default_rng(cfg.seed)
    x, y, z = rng.uniform(-1.0, 1.0, size=3)
    return float(x), float(y), float(z)


def _tail(states, cfg: SimulationConfig) -> TimeSeries:
    """The kept tail of a stream of total_points states; the transient is never stored."""
    keep = kept_points(cfg)
    dropped = cfg.total_points - keep
    samples = np.empty(keep)  # before the first step, so a tail too large for memory fails at once
    deque(islice(states, dropped), maxlen=0)
    for lo in range(0, keep, CHUNK):
        samples[lo : lo + CHUNK] = np.fromiter(states, np.float64, count=min(CHUNK, keep - lo))
    return TimeSeries(samples, cfg.dt, origin_time=dropped * cfg.dt)


def integrate_lorenz(
    params: LorenzParams | None = None, cfg: SimulationConfig | None = None
) -> TimeSeries:
    """x-coordinate of the Lorenz flow under fixed-step RK4."""
    params = params or LorenzParams()
    cfg = cfg or SimulationConfig()
    return _tail(_lorenz(params, _initial_state_3d(cfg), cfg), cfg)


def _lorenz(params: LorenzParams, state, cfg: SimulationConfig):
    sigma, rho, beta = params.sigma, params.rho, params.beta
    x, y, z = state
    dt = cfg.dt
    half, sixth = 0.5 * dt, dt / 6.0
    isfinite = math.isfinite
    yield x
    for step in range(1, cfg.total_points):
        k1x = sigma * (y - x)
        k1y = x * (rho - z) - y
        k1z = x * y - beta * z
        ax, ay, az = x + half * k1x, y + half * k1y, z + half * k1z
        k2x = sigma * (ay - ax)
        k2y = ax * (rho - az) - ay
        k2z = ax * ay - beta * az
        bx, by, bz = x + half * k2x, y + half * k2y, z + half * k2z
        k3x = sigma * (by - bx)
        k3y = bx * (rho - bz) - by
        k3z = bx * by - beta * bz
        cx, cy, cz = x + dt * k3x, y + dt * k3y, z + dt * k3z
        k4x = sigma * (cy - cx)
        k4y = cx * (rho - cz) - cy
        k4z = cx * cy - beta * cz
        x += sixth * (k1x + 2.0 * (k2x + k3x) + k4x)
        y += sixth * (k1y + 2.0 * (k2y + k3y) + k4y)
        z += sixth * (k1z + 2.0 * (k2z + k3z) + k4z)
        if not isfinite(x + y + z):
            raise DivergenceError("lorenz state became non-finite", step=step)
        yield x


def integrate_rossler(
    params: RosslerParams | None = None, cfg: SimulationConfig | None = None
) -> TimeSeries:
    """x-coordinate of the Rossler flow under fixed-step RK4."""
    params = params or RosslerParams()
    cfg = cfg or SimulationConfig()
    return _tail(_rossler(params, _initial_state_3d(cfg), cfg), cfg)


def _rossler(params: RosslerParams, state, cfg: SimulationConfig):
    alpha, beta, gamma = params.alpha, params.beta, params.gamma
    x, y, z = state
    dt = cfg.dt
    half, sixth = 0.5 * dt, dt / 6.0
    isfinite = math.isfinite
    yield x
    for step in range(1, cfg.total_points):
        k1x = -y - z
        k1y = x + alpha * y
        k1z = beta + (x - gamma) * z
        ax, ay, az = x + half * k1x, y + half * k1y, z + half * k1z
        k2x = -ay - az
        k2y = ax + alpha * ay
        k2z = beta + (ax - gamma) * az
        bx, by, bz = x + half * k2x, y + half * k2y, z + half * k2z
        k3x = -by - bz
        k3y = bx + alpha * by
        k3z = beta + (bx - gamma) * bz
        cx, cy, cz = x + dt * k3x, y + dt * k3y, z + dt * k3z
        k4x = -cy - cz
        k4y = cx + alpha * cy
        k4z = beta + (cx - gamma) * cz
        x += sixth * (k1x + 2.0 * (k2x + k3x) + k4x)
        y += sixth * (k1y + 2.0 * (k2y + k3y) + k4y)
        z += sixth * (k1z + 2.0 * (k2z + k3z) + k4z)
        if not isfinite(x + y + z):
            raise DivergenceError("rossler state became non-finite", step=step)
        yield x


def delay_steps(delay: float, dt: float) -> int:
    """Number of grid steps spanned by the delay; must divide exactly."""
    if not 0 < delay < math.inf:
        raise ConfigError(f"delay must be positive and finite, got {delay}")
    ratio = delay / dt
    steps = round(ratio)
    if steps < 1 or abs(ratio - steps) > 1e-9 * max(1.0, steps):
        raise ConfigError(
            f"delay {delay} is not an integer multiple of dt {dt}"
        )
    return steps


def integrate_mackey_glass(
    params: MackeyGlassParams | None = None, cfg: SimulationConfig | None = None
) -> TimeSeries:
    """Mackey-Glass trajectory from a constant pre-history.

    A ring of the d+1 latest grid values, seeded with the pre-history,
    supplies the delayed term: full steps read a stored value, half steps
    average the two straddling ones. A negative delayed state would put the
    fractional power outside its domain, so it is treated as divergence.
    """
    params = params or MackeyGlassParams()
    cfg = cfg or SimulationConfig()
    # a delay beyond the run reads only the pre-history, so total_points caps it
    d = min(delay_steps(params.delay, cfg.dt), cfg.total_points)
    hv = float(params.history_value)
    if cfg.initial_state is not None and len(cfg.initial_state) != 1:
        raise ConfigError(f"mackey-glass initial_state is a single component (got {len(cfg.initial_state)})")
    x = hv if cfg.initial_state is None else float(cfg.initial_state[0])
    return _tail(_mackey_glass(params, deque([hv] * d + [x], maxlen=d + 1), cfg), cfg)


def _mackey_glass(params: MackeyGlassParams, past: deque, cfg: SimulationConfig):
    """past[0] and past[1] hold x at step-1-d and step-d; past[-1] is x now. The past[1]
    of one step is the past[0] of the next, so each is checked and powered once."""
    beta, gamma, n = params.beta, params.gamma, params.exponent
    x = past[-1]
    dt = cfg.dt
    half, sixth = 0.5 * dt, dt / 6.0
    isfinite = math.isfinite
    yield x
    xd1 = past[0]  # the first step's xd0: the one delayed value never seen as a past[1]
    if xd1 < 0.0 or past[1] < 0.0:
        raise DivergenceError("mackey-glass state left the nonnegative domain", step=1)
    try:
        p1 = beta * xd1 / (1.0 + xd1**n)
    except OverflowError:  # float ** raises where * would give inf
        raise DivergenceError("mackey-glass delayed term overflowed", step=1) from None
    for step in range(1, cfg.total_points):
        xd0, p0, xd1 = xd1, p1, past[1]
        if xd1 < 0.0:
            raise DivergenceError("mackey-glass state left the nonnegative domain", step=step)
        xdh = 0.5 * (xd0 + xd1)
        try:
            ph = beta * xdh / (1.0 + xdh**n)
            p1 = beta * xd1 / (1.0 + xd1**n)
        except OverflowError:
            raise DivergenceError("mackey-glass delayed term overflowed", step=step) from None
        k1 = p0 - gamma * x
        k2 = ph - gamma * (x + half * k1)
        k3 = ph - gamma * (x + half * k2)
        k4 = p1 - gamma * (x + dt * k3)
        x += sixth * (k1 + 2.0 * (k2 + k3) + k4)
        if not isfinite(x):
            raise DivergenceError("mackey-glass state became non-finite", step=step)
        past.append(x)
        yield x
