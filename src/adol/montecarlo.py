"""Path simulation of the risk-neutral system, the model's brute-force oracle.

Scheme per step, on a uniform grid starting at t_start > 0 (the vol weight
t^(H-1/2) and the drift cutoff both live at the origin, so the clock never
touches it):

    x   : log-Euler, exact lognormal step conditional on the running sigma
    sigma: drift -[kappa + xi m(t) v] sigma integrated by an exponential
           factor over the step, diffusion xi nu(t) sigma by plain Euler
    v   : exact solution of the linear drift -m(t) v, with the diffusion
           variance of nu(t) dW accumulated by Gauss-Legendre per step

nu and m are read at the right endpoint of each step.  The v-shock and the
sigma-shock share one Gaussian (they ride the same Brownian); the x-shock
correlates with it at rho.  Draws come from one counter-based generator in
a fixed (step, path) layout, so results are bitwise reproducible and
independent of any execution schedule.

One simulation serves a whole strike ladder: `mc_prices` reads every strike's
payoff off the same terminal states, so a ladder of any length costs one
march of the paths.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .do_process import nu_t
from .model import AdolModel, m_t

__all__ = ["McSpec", "PathStats", "TerminalStates", "simulate_q", "mc_price",
           "mc_prices", "mc_quadratic_variation"]

# nodes/weights of 8-point Gauss-Legendre on [-1, 1]
_GL_X, _GL_W = np.polynomial.legendre.leggauss(8)


@dataclass(frozen=True)
class McSpec:
    n_paths: int
    n_steps: int
    seed: int
    t_start: float | None = None  # None: use the model's eps cutoff
    antithetic: bool = False

    def __post_init__(self) -> None:
        if self.n_paths < 1 or self.n_steps < 1:
            raise ValueError("n_paths and n_steps must be at least 1")
        if self.t_start is not None and self.t_start <= 0.0:
            raise ValueError("t_start must be positive")
        if self.antithetic and self.n_paths % 2:
            raise ValueError("antithetic mode needs an even n_paths")


@dataclass(frozen=True)
class PathStats:
    estimate: float
    std_error: float
    n_effective: int

    def __post_init__(self) -> None:
        if self.std_error < 0.0:
            raise ValueError("std_error must be nonnegative")


@dataclass(frozen=True)
class TerminalStates:
    x: np.ndarray       # log S_T / S_0 per path
    sigma: np.ndarray
    v: np.ndarray


def _grid(model: AdolModel, spec: McSpec) -> np.ndarray:
    t0 = model.eps if spec.t_start is None else spec.t_start
    if not t0 < model.t_mat:
        raise ValueError(f"t_start {t0} must sit below the maturity {model.t_mat}")
    return np.linspace(t0, model.t_mat, spec.n_steps + 1)


def _v_step_tables(model: AdolModel, grid: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per step: decay factor of the linear drift and the stdev of the
    accumulated diffusion, both exact up to the Gauss-Legendre rule."""
    p = 1.0 + model.m_pi
    scale = model.m_rho / p

    def big_m(t: np.ndarray) -> np.ndarray:
        return scale * t ** p

    lo, hi = grid[:-1], grid[1:]
    decay = np.exp(-(big_m(hi) - big_m(lo)))
    half = 0.5 * (hi - lo)
    mid = 0.5 * (hi + lo)
    nodes = mid[:, None] + half[:, None] * _GL_X[None, :]
    c = model.constants
    nu_sq = (c.b_h * nodes ** (c.h - 0.5)) ** 2
    integrand = np.exp(-2.0 * (big_m(hi)[:, None] - big_m(nodes))) * nu_sq
    var = half * (integrand * _GL_W[None, :]).sum(axis=1)
    return decay, np.sqrt(np.maximum(var, 0.0))


def _run(model: AdolModel, spec: McSpec, capture: set[int] | None = None):
    """March the system; optionally capture x at the given grid indices."""
    grid = _grid(model, spec)
    n_steps = spec.n_steps
    m_draw = spec.n_paths // 2 if spec.antithetic else spec.n_paths
    gen = np.random.Generator(np.random.Philox(key=int(spec.seed)))
    c = model.constants
    rho = model.rho
    rho_perp = math.sqrt(1.0 - rho * rho)
    xi, kappa = model.xi, model.kappa
    drift_x = model.r - model.q
    decay, diff_sd = _v_step_tables(model, grid)

    x = np.zeros(spec.n_paths)
    sig = np.full(spec.n_paths, model.sigma0)
    v = np.full(spec.n_paths, model.v0)
    snaps = {}
    if capture is not None and 0 in capture:
        snaps[0] = x.copy()
    sig_peak = model.sigma0

    for n in range(n_steps):
        t_right = grid[n + 1]
        dt = grid[n + 1] - grid[n]
        sq_dt = math.sqrt(dt)
        z = gen.standard_normal((2, m_draw))
        if spec.antithetic:
            z = np.concatenate([z, -z], axis=1)
        z1 = rho * z[1] + rho_perp * z[0]
        nu_r = nu_t(float(t_right), c)
        m_r = m_t(float(t_right), model)
        x += (drift_x - 0.5 * sig * sig) * dt + sig * sq_dt * z1
        sig_new = sig * np.exp(-(kappa + xi * m_r * v) * dt) \
            + sig * (xi * nu_r * sq_dt) * z[1]
        v = decay[n] * v + diff_sd[n] * z[1]
        sig = sig_new
        sig_peak = max(sig_peak, float(np.max(np.abs(sig))))
        if capture is not None and (n + 1) in capture:
            snaps[n + 1] = x.copy()

    if sig_peak > 1e3 * model.sigma0:
        warnings.warn(
            f"sigma path reached {sig_peak:.3g}, over 1000x its start value "
            f"{model.sigma0}; the step size is likely too coarse",
            RuntimeWarning, stacklevel=2)
    return grid, x, sig, v, snaps


def simulate_q(model: AdolModel, spec: McSpec) -> TerminalStates:
    _, x, sig, v, _ = _run(model, spec)
    return TerminalStates(x=x, sigma=sig, v=v)


def _stats(samples: np.ndarray, antithetic: bool) -> PathStats:
    if antithetic:
        half = len(samples) // 2
        samples = 0.5 * (samples[:half] + samples[half:])
    n = len(samples)
    est = float(samples.mean())
    se = float(samples.std(ddof=1) / math.sqrt(n)) if n > 1 else 0.0
    return PathStats(estimate=est, std_error=se, n_effective=n)


def mc_prices(model: AdolModel, spec: McSpec, strikes: list[float],
              is_call: bool = True) -> list[PathStats]:
    """Discounted payoff mean per strike, all read off one simulation; SE
    over independent units (pairs if antithetic)."""
    if not all(math.isfinite(strike) and strike >= 0.0 for strike in strikes):
        raise ValueError("strike must be finite and nonnegative")
    s_term = model.s0 * np.exp(simulate_q(model, spec).x)
    df = math.exp(-model.r * model.t_mat)
    out = []
    for strike in strikes:
        payoff = np.maximum(s_term - strike, 0.0) if is_call \
            else np.maximum(strike - s_term, 0.0)
        out.append(_stats(df * payoff, spec.antithetic))
    return out


def mc_price(model: AdolModel, spec: McSpec, strike: float,
             is_call: bool = True) -> PathStats:
    """Discounted payoff mean at one strike; see `mc_prices`."""
    return mc_prices(model, spec, [strike], is_call)[0]


def mc_quadratic_variation(model: AdolModel, spec: McSpec,
                           observation_times) -> PathStats:
    """(1/T) sum of squared log-price increments over the observation grid."""
    grid = _grid(model, spec)
    t0, t_end = grid[0], grid[-1]
    dt = grid[1] - grid[0]
    times = [float(t) for t in observation_times]
    if not times or any(b <= a for a, b in zip(times, times[1:])):
        raise ValueError("observation times must be strictly increasing")
    if times[0] <= t0 - 1e-12 or times[-1] > t_end * (1.0 + 1e-12):
        raise ValueError(f"observation times must lie in ({t0}, {t_end}]")
    idx = sorted({int(round((t - t0) / dt)) for t in times})
    if idx[0] == 0:
        raise ValueError("first observation collapses onto the grid start")
    capture = {0} | set(idx)
    _, _, _, _, snaps = _run(model, spec, capture=capture)
    horizon = times[-1]
    prev = snaps[0]
    acc = np.zeros_like(prev)
    for i in idx:
        cur = snaps[i]
        acc += (cur - prev) ** 2
        prev = cur
    return _stats(acc / horizon, spec.antithetic)
