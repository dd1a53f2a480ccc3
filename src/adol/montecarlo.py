"""Path simulation of the risk-neutral system, the model's brute-force oracle.

The march runs on a uniform grid from 0 to the maturity, the CF's clock:
V's law starts at 0, so its first step is as exact as the others.  Per step:

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
(r - q_div) t - q / 2 + sqrt(1 - rho^2) s: the law of the terminal
states and of every capture is the per-step march's, and terminal x does
not depend on the captures.  A non-finite terminal x or sigma raises
FloatingPointError.

The paths are two fixed halves, the first the larger, so a spec needs two
paths.  `SeedSequence(seed)` spawns two SFC64 streams per half, the
x-shock's own (maturity's row, then a row per capture) and the vol
Brownian's (a row per step), each read in a fixed layout, so results are
bitwise reproducible.
The calling thread marches the first half and one worker thread the
second; numpy lets go of the GIL in each fill and array step, so the
halves run side by side.  Each half reads only its own streams and
paths, so the bits do not depend on how the threads interleave.

One march serves every Monte Carlo estimator of a run: `simulate_paths`
marches the terminal states together with x at the realized variance's
observation times, which must be nodes of the grid, and `mc_prices` (a
whole strike ladder) and `mc_quadratic_variation` both read that one path
set, each result bitwise what its own simulation would give.  The variance-swap strikes need no
paths: `pricing` takes them over the same law of V that the march steps by.
"""

from __future__ import annotations

import math
import numbers
import threading
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .charfn import _log_l, _v_law
from .model import AdolModel

__all__ = ["McSpec", "PathStats", "Paths", "simulate_q", "simulate_paths",
           "mc_prices", "mc_quadratic_variation"]


@dataclass(frozen=True)
class McSpec:
    n_paths: int
    n_steps: int
    seed: int

    def __post_init__(self) -> None:
        # a float fails only inside the march, and seed True marches seed 1
        for name in ("n_paths", "n_steps", "seed"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        # one path's standard error is 0, which every --check gate would
        # read as certainty
        if self.n_paths < 2:
            raise ValueError(f"n_paths must be at least 2: a standard error needs "
                             f"two paths, got {self.n_paths}")
        if self.n_steps < 1:
            raise ValueError(f"n_steps must be at least 1, got {self.n_steps}")
        if self.seed < 0:
            raise ValueError(f"seed must be nonnegative, got {self.seed}")


@dataclass(frozen=True)
class PathStats:
    estimate: float
    std_error: float
    n_effective: int

    def __post_init__(self) -> None:
        if self.std_error < 0.0:
            raise ValueError("std_error must be nonnegative")


def _grid(model: AdolModel, spec: McSpec) -> np.ndarray:
    return np.linspace(0.0, model.t_mat, spec.n_steps + 1)


def _law_steps(model: AdolModel, grid: np.ndarray):
    """Per step the decay and the deviation of V's exact Gaussian step, per
    node log L, the part of log sigma that V does not set, and per step the
    x step's variance clock int (L(s) / L(t_n))^2 ds."""
    decay, var = _v_law(model, grid[:-1], grid[1:])
    log_l = _log_l(model, grid, math.log(model.sigma0))
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
    indices, each past the start."""
    grid = _grid(model, spec)
    # first: its temporaries are freed before the march's arrays are made
    law = _law_steps(model, grid)
    n_steps = spec.n_steps
    # a half is a block of paths, the first the larger, marched on two
    # streams of its own
    n = spec.n_paths
    halves = [slice(0, n - n // 2), slice(n - n // 2, n)]
    gens = [np.random.Generator(np.random.SFC64(child))
            for child in np.random.SeedSequence(spec.seed).spawn(4)]
    # the snapshot at maturity is x itself: no copy and no bridge draw
    bridged = set() if capture is None else set(capture) - {n_steps}
    x, sig, v = (np.empty(spec.n_paths) for _ in range(3))
    snaps = {k: np.empty(spec.n_paths) for k in sorted(bridged)}

    raised = {}  # per half, what its march raised

    def march(half: int) -> None:
        """March one half on its own streams and paths; what it raises is
        kept in `raised`, to be raised on the calling thread."""
        cols = halves[half]
        try:
            _march(model, grid, law, *gens[2 * half:2 * half + 2], x[cols], sig[cols],
                   v[cols], {k: s[cols] for k, s in snaps.items()})
        except BaseException as exc:
            raised[half] = exc

    # the calling thread marches the first half, a worker thread the second
    worker = threading.Thread(target=march, args=(1,))
    worker.start()
    march(0)
    worker.join()
    if raised:
        raise raised[min(raised)]
    if capture is not None and n_steps in capture:
        snaps[n_steps] = x
    return Paths(model, spec, grid, x, sig, v, snaps)


def _march(model: AdolModel, grid: np.ndarray, law, own: np.random.Generator,
           vol: np.random.Generator, x: np.ndarray, sig: np.ndarray, v: np.ndarray,
           snaps: dict[int, np.ndarray]) -> None:
    """March one half in place on its x-shock's own and vol streams: x, sig
    and v take the terminal states and snaps[k] x at grid index k, each the
    half's paths."""
    decay, dev, log_l, clock = law
    rho = model.rho
    rho_perp = math.sqrt(1.0 - rho * rho)
    drift_x = model.r - model.q
    sig[...] = model.sigma0
    v[...] = model.v0
    x[...] = 0.0             # the march's part of x: sum rho sigma sqrt(w) z_vol
    var = np.zeros(x.shape)  # the integrated variance q: sum sigma^2 w
    tmp = np.empty(x.shape)  # scratch of every in-place step
    z = np.empty(x.shape)    # each step's vol normals, then the own stream's

    def finish(part: np.ndarray, var_k: np.ndarray, t: float, s: np.ndarray,
               scratch: np.ndarray) -> None:
        """x = part + (r - q) t - q / 2 + rho_perp s, formed in part."""
        part += drift_x * t
        np.multiply(var_k, 0.5, out=scratch)
        part -= scratch
        np.multiply(s, rho_perp, out=scratch)
        part += scratch

    var_at = {}  # per captured index: q there; the march's part of x is in snaps

    # an overflow shows as a non-finite terminal x or sigma, refused below
    with np.errstate(over="ignore", invalid="ignore"):
        for n in range(len(grid) - 1):
            vol.standard_normal(out=z)
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
            if n + 1 in snaps:
                snaps[n + 1][...] = x
                var_at[n + 1] = var.copy()

        # s_T = sqrt(q_T) z, in tmp; z is the scratch of x_T once read
        s = np.sqrt(var, out=tmp)
        s *= own.standard_normal(out=z)
        finish(x, var, grid[-1], s, z)

    if not (np.isfinite(x).all() and np.isfinite(sig).all()):
        raise FloatingPointError("the march left a non-finite log-price or vol: "
                                 "the vol factor overflowed on this model")
    # the bridge backward in q: s_k = f s_next + sqrt(q_k (1 - f)) z with
    # f = q_k / q_next, and 0 where q_next is 0 (as q_k is then); f and the
    # new term are formed in q_next, which nothing reads after
    var_next = var
    for k in sorted(snaps, reverse=True):
        var_k = var_at.pop(k)
        f = np.divide(var_k, var_next, out=var_next, where=var_next > 0.0)
        s *= f
        np.subtract(1.0, f, out=f)
        f *= var_k
        np.sqrt(f, out=f)
        f *= own.standard_normal(out=z)
        s += f
        finish(snaps[k], var_k, grid[k], s, z)
        var_next = var_k


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
    another spec would be read as its own paths, on its grid."""
    if paths.model != model or paths.spec != spec:
        raise ValueError("paths were marched with another model or spec")
    return paths


def _stats(samples: np.ndarray) -> PathStats:
    """Mean and standard error over the paths.  The samples are scaled by
    the power of two that brings their largest below 1, which is exact, so
    the squared deviations cannot overflow, as they would past about 1e154."""
    n = len(samples)
    _, e = math.frexp(float(np.max(np.abs(samples))))
    scaled = np.ldexp(samples, -e)
    est = math.ldexp(float(scaled.mean()), e)
    se = math.ldexp(float(scaled.std(ddof=1) / math.sqrt(n)), e)
    return PathStats(estimate=est, std_error=se, n_effective=n)


def mc_prices(model: AdolModel, spec: McSpec, strikes: list[float], *,
              paths: Paths | None = None) -> list[PathStats]:
    """Discounted call payoff mean per strike, all read off one simulation
    (or off `paths`, from `simulate_paths` with the same model and spec,
    else ValueError); SE over the paths."""
    if not all(math.isfinite(strike) and strike >= 0.0 for strike in strikes):
        raise ValueError("strike must be finite and nonnegative")
    x = simulate_q(model, spec).x if paths is None else _marched(paths, model, spec).x
    s_term = model.s0 * np.exp(x)
    df = math.exp(-model.r * model.t_mat)
    return [_stats(df * np.maximum(s_term - strike, 0.0)) for strike in strikes]


def _qv_indices(grid: np.ndarray, observation_times) -> list[int]:
    """The grid index k of each observation time t, which must be a node
    past the start, t / dt = k to 1e-9; any other time is refused, never
    rounded to a node."""
    n = len(grid) - 1
    dt = grid[-1] / n
    times = [float(t) for t in observation_times]
    if not times or any(b <= a for a, b in zip(times, times[1:])):
        raise ValueError("observation times must be strictly increasing")
    idx = []
    for t in times:
        k = t / dt
        # written so that NaN and infinities fail the comparison too
        if not (0.5 <= k < n + 0.5 and abs(k - round(k)) <= 1e-9):
            raise ValueError(f"observation time {t} is not a date of the {n}-step "
                             f"grid: use a multiple of {dt} in (0, {grid[-1]}]")
        idx.append(round(k))
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
    return _stats(acc / float(observation_times[-1]))
