"""Path simulation of the risk-neutral system, the model's brute-force oracle.

The march runs on a uniform grid from t0 = t_start > 0 (the vol weight
t^(H-1/2) and the drift cutoff both live at the origin).  Per step:

    v    : exact Gaussian step of dV = -m V dt + nu dW (charfn's _v_law)
    sigma: exp(log L(t) + xi (v - v0)) at every node, exact (charfn's _log_l)
    x    : lognormal step with V held at the step's start and L(t)
           integrated over the step, variance sigma_n^2 w_n with the clock
           w_n = int (L(s) / L(t_n))^2 ds and log L taken linear across the
           step: exact at xi = 0, and free of the O(dt) bias a left-point
           variance takes from sigma's decay

The x-shock is rho z_vol + sqrt(1 - rho^2) z_own.  The march adds only
rho sigma_n sqrt(w_n) z_vol to x and sums q = sum sigma_n^2 w_n per path;
given the vol path, the z_own part s is Gaussian with variance q (Romano &
Touzi's conditioning), so it is drawn after the march: s_T = sqrt(q_T) z,
then at each captured index, latest first, the bridge s_k = f s_next +
sqrt(q_k (1 - f)) z with f = q_k / q_next.  Each x is rho-part +
(r - q_div)(t - t0) - q / 2 + sqrt(1 - rho^2) s: the law of the terminal
states and of every capture is the per-step march's, and terminal x does
not depend on the captures.  A non-finite terminal x or sigma raises
FloatingPointError.

`SeedSequence(seed).spawn(2)` seeds one SFC64 stream for the z_own draws
(maturity's row, then a row per capture) and one for z_vol (a row per
step), so the vol path is a function of the second alone.  Each is read in
a fixed layout, in line on the calling thread, so results are bitwise
reproducible.

One march serves every Monte Carlo estimator of a run: `simulate_paths`
marches the terminal states together with x at the realized variance's
observation times, and `mc_prices` (a whole strike ladder) and
`mc_quadratic_variation` both read that one path set, each result bitwise
what its own simulation would give.  The variance-swap strikes need no
paths: `pricing` takes them over the same law of V that the march steps by.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .charfn import _log_l, _v_law
from .model import AdolModel

__all__ = ["McSpec", "PathStats", "Paths", "simulate_q", "simulate_paths",
           "mc_price", "mc_prices", "mc_quadratic_variation"]


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
        if self.seed < 0:
            raise ValueError(f"seed must be nonnegative, got {self.seed}")
        # written so that NaN fails the comparison too
        if self.t_start is not None and not 0.0 < self.t_start < math.inf:
            raise ValueError(f"t_start must be positive and finite, got {self.t_start}")
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


def _grid(model: AdolModel, spec: McSpec) -> np.ndarray:
    t0 = model.eps if spec.t_start is None else spec.t_start
    if not t0 < model.t_mat:
        raise ValueError(f"t_start {t0} must sit below the maturity {model.t_mat}")
    return np.linspace(t0, model.t_mat, spec.n_steps + 1)


def _law_steps(model: AdolModel, grid: np.ndarray):
    """Per step the decay and the deviation of V's exact Gaussian step, per
    node log L, the part of log sigma that V does not set, and per step the
    x step's variance clock int (L(s) / L(t_n))^2 ds."""
    decay, var = _v_law(model, grid[:-1], grid[1:])
    log_l = _log_l(model, grid, grid[0], math.log(model.sigma0))
    # log L linear across a step of slope a / (2 dt): the clock is
    # dt (e^a - 1) / a, and dt where sigma does not decay (a = 0)
    a = 2.0 * np.diff(log_l)
    clock = np.diff(grid) * np.divide(np.expm1(a), a, out=np.ones_like(a),
                                      where=a != 0.0)
    return decay, np.sqrt(var), log_l, clock


class Paths(NamedTuple):
    """One march, with the model and the spec it was marched with."""
    model: AdolModel
    spec: McSpec
    grid: np.ndarray
    x: np.ndarray       # terminal log S_T / S_0 per path
    sigma: np.ndarray
    v: np.ndarray
    snaps: dict[int, np.ndarray]  # x at each captured grid index


def _run(model: AdolModel, spec: McSpec, capture: set[int] | None = None) -> Paths:
    """March the system to maturity; optionally capture x at the given grid
    indices."""
    grid = _grid(model, spec)
    # first: its temporaries are freed before the march's arrays are made
    decay, dev, log_l, clock = _law_steps(model, grid)
    n_paths, n_steps = spec.n_paths, spec.n_steps
    m_draw = n_paths // 2 if spec.antithetic else n_paths
    # the x-shock's own normals come from the first stream, the vol
    # Brownian's from the second
    own_gen, vol_gen = (np.random.Generator(np.random.SFC64(child))
                        for child in np.random.SeedSequence(spec.seed).spawn(2))
    rho = model.rho
    rho_perp = math.sqrt(1.0 - rho * rho)
    drift_x = model.r - model.q
    sig = np.full(n_paths, model.sigma0)
    v = np.full(n_paths, model.v0)
    x = np.zeros(n_paths)    # the march's part of x: sum rho sigma sqrt(w) z_vol
    var = np.zeros(n_paths)  # the integrated variance q: sum sigma^2 w
    tmp = np.empty(n_paths)  # scratch of every in-place step
    z = np.empty(n_paths)    # each step's vol normals, then the own stream's

    def normals(gen: np.random.Generator) -> np.ndarray:
        """The next m normals of gen as one per path, in z: the draw, then
        its negation if antithetic."""
        gen.standard_normal(out=z[:m_draw])
        if spec.antithetic:
            np.negative(z[:m_draw], out=z[m_draw:])
        return z

    def finish(part: np.ndarray, var_k: np.ndarray, t: float, s: np.ndarray,
               scratch: np.ndarray) -> None:
        """x = part + (r - q) (t - t0) - q / 2 + rho_perp s, formed in part."""
        part += drift_x * (t - grid[0])
        np.multiply(var_k, 0.5, out=scratch)
        part -= scratch
        np.multiply(s, rho_perp, out=scratch)
        part += scratch

    # the snapshot at index 0 is all zeros and the last one is x itself, so
    # neither needs a copy or a bridge draw
    bridged = set() if capture is None else set(capture) - {0, n_steps}
    parts = {}  # per captured index: the march's part of x and q there

    # an overflow shows as a non-finite terminal x or sigma, refused below
    with np.errstate(over="ignore", invalid="ignore"):
        for n in range(n_steps):
            normals(vol_gen)
            # x += rho sigma sqrt(w) z and q += sigma^2 w, with w the step's
            # variance clock
            np.multiply(sig, rho * math.sqrt(clock[n]), out=tmp)
            tmp *= z
            x += tmp
            np.multiply(sig, clock[n], out=tmp)
            tmp *= sig
            var += tmp
            # v <- decay v + dev z and sigma <- exp(log L + xi (v - v0)) in
            # place, each product and sum rounded as the formula rounds it
            v *= decay[n]
            np.multiply(z, dev[n], out=tmp)
            v += tmp
            np.subtract(v, model.v0, out=sig)
            sig *= model.xi
            sig += log_l[n + 1]
            np.exp(sig, out=sig)
            if n + 1 in bridged:
                parts[n + 1] = x.copy(), var.copy()

        # s_T = sqrt(q_T) z, in tmp; z is the scratch of x_T once read
        s = np.sqrt(var, out=tmp)
        s *= normals(own_gen)
        finish(x, var, grid[-1], s, z)

    if not (np.isfinite(x).all() and np.isfinite(sig).all()):
        raise FloatingPointError("the march left a non-finite log-price or vol: "
                                 "the vol factor overflowed on this model")
    snaps = {}
    if capture is not None:
        if 0 in capture:
            snaps[0] = np.zeros(n_paths)
        if n_steps in capture:
            snaps[n_steps] = x
    # the bridge backward in q: s_k = f s_next + sqrt(q_k (1 - f)) z with
    # f = q_k / q_next, and 0 where q_next is 0 (as q_k is then); f and the
    # new term are formed in q_next, which nothing reads after
    var_next = var
    for k in sorted(bridged, reverse=True):
        x_k, var_k = parts.pop(k)
        f = np.divide(var_k, var_next, out=var_next, where=var_next > 0.0)
        s *= f
        np.subtract(1.0, f, out=f)
        f *= var_k
        np.sqrt(f, out=f)
        f *= normals(own_gen)
        s += f
        finish(x_k, var_k, grid[k], s, z)
        snaps[k] = x_k
        var_next = var_k
    return Paths(model, spec, grid, x, sig, v, snaps)


def simulate_q(model: AdolModel, spec: McSpec) -> Paths:
    """One march to maturity; the terminal states are `.x`, `.sigma`, `.v`."""
    return _run(model, spec)


def simulate_paths(model: AdolModel, spec: McSpec, observation_times=()) -> Paths:
    """One march that serves every estimator of a run: the terminal states
    (`mc_prices`) and x at each of `observation_times`
    (`mc_quadratic_variation`).  Pass it to them as `paths`."""
    capture = set(_qv_indices(_grid(model, spec), observation_times)) \
        if observation_times else None
    return _run(model, spec, capture=capture)


def _marched(paths: Paths, model: AdolModel, spec: McSpec) -> Paths:
    """`paths`, refused unless marched with this model and spec: paths of
    another spec would be read under its pairing and its grid."""
    if paths.model != model or paths.spec != spec:
        raise ValueError("paths were marched with another model or spec")
    return paths


def _stats(samples: np.ndarray, antithetic: bool) -> PathStats:
    if antithetic:
        half = len(samples) // 2
        samples = 0.5 * (samples[:half] + samples[half:])
    n = len(samples)
    est = float(samples.mean())
    se = float(samples.std(ddof=1) / math.sqrt(n)) if n > 1 else 0.0
    return PathStats(estimate=est, std_error=se, n_effective=n)


def mc_prices(model: AdolModel, spec: McSpec, strikes: list[float],
              is_call: bool = True, *, paths: Paths | None = None) -> list[PathStats]:
    """Discounted payoff mean per strike, all read off one simulation (or
    off `paths`, from `simulate_paths` with the same model and spec, else
    ValueError); SE over independent units (pairs if antithetic)."""
    if not all(math.isfinite(strike) and strike >= 0.0 for strike in strikes):
        raise ValueError("strike must be finite and nonnegative")
    x = simulate_q(model, spec).x if paths is None else _marched(paths, model, spec).x
    s_term = model.s0 * np.exp(x)
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


def _qv_indices(grid: np.ndarray, observation_times) -> list[int]:
    """The grid index nearest each observation time, validated; two times
    that snap to one index are refused, not merged."""
    t0, t_end = grid[0], grid[-1]
    dt = grid[1] - grid[0]
    times = [float(t) for t in observation_times]
    if not times or any(b <= a for a, b in zip(times, times[1:])):
        raise ValueError("observation times must be strictly increasing")
    if times[0] <= t0 - 1e-12 or times[-1] > t_end * (1.0 + 1e-12):
        raise ValueError(f"observation times must lie in ({t0}, {t_end}]")
    idx = [int(round((t - t0) / dt)) for t in times]
    for a, b, i, j in zip(times, times[1:], idx, idx[1:]):
        if i == j:
            raise ValueError(f"observation times {a} and {b} snap to one grid "
                             f"index {i}; refine the grid")
    if idx[0] == 0:
        raise ValueError("first observation collapses onto the grid start")
    return idx


def mc_quadratic_variation(model: AdolModel, spec: McSpec, observation_times,
                           *, paths: Paths | None = None) -> PathStats:
    """(1/T) sum of squared log-price increments over the observation grid,
    from one simulation or from `paths` (from `simulate_paths` with the same
    model, spec and observation times, else ValueError)."""
    observation_times = tuple(observation_times)
    idx = _qv_indices(_grid(model, spec), observation_times)
    if paths is None:
        snaps = _run(model, spec, capture=set(idx)).snaps
    else:
        snaps = _marched(paths, model, spec).snaps
        if not snaps.keys() >= set(idx):
            raise ValueError("paths lack x at some observation time")
    # x starts at 0, so the first increment is x itself
    acc = snaps[idx[0]] ** 2
    for prev, cur in zip(idx, idx[1:]):
        acc += (snaps[cur] - snaps[prev]) ** 2
    return _stats(acc / float(observation_times[-1]), spec.antithetic)
