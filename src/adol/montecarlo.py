"""Path simulation of the risk-neutral system, the model's brute-force oracle.

The march runs on a uniform grid from t0 = t_start > 0 (the vol weight
t^(H-1/2) and the drift cutoff both live at the origin).  Per step:

    v    : exact Gaussian step of dV = -m V dt + nu dW; its decay and
           deviation are read off M, the cumulative reversion speed, and
           the flow tables' f_quad
    sigma: exp(log L(t) + xi (v - v0)) at every node, exact: the m V drift
           of sigma cancels against dV, so d log sigma = -kappa dt + xi dV
           - xi^2 nu^2 dt / 2 and log L(t) = log sigma0 - kappa (t - t0)
           - xi^2 int_t0^t nu^2 / 2
    x    : lognormal step with V held at the step's start and L(t)
           integrated over the step, variance sigma_n^2 int (L(s) / L(t_n))^2
           ds with log L taken linear across it: exact at xi = 0, and free
           of the O(dt) bias a left-point variance takes from sigma's decay

The x-shock correlates with the v-shock at rho.  A march whose terminal x
or sigma is not finite raises FloatingPointError.  Each Brownian has a
stream of its own: `SeedSequence(seed).spawn(2)` seeds one SFC64 generator
for the x-shock's own normal (row 0 of each step's draws) and one for the
vol Brownian (row 1), so the vol path is a function of the second stream
alone.  Each stream is read in a fixed (step, path) layout, so results are
bitwise reproducible and independent of any execution schedule.  Each
generator has a helper thread of its own that draws its row one step ahead,
while the caller marches the step before; each reads its stream in the
same order, so every result is the same as with the draws made in line.

One march serves every Monte Carlo estimator of a run: `simulate_paths`
marches the terminal states together with x at the realized variance's
observation times, and `mc_prices` (a whole strike ladder) and
`mc_quadratic_variation` both read that one path set, each result bitwise
what its own simulation would give.  The variance-swap strikes need no
paths: `pricing` takes them over the exact Gaussian law of the vol factor.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .charfn import _flow_tables, _m_cum, _nu_sq_cum
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
    x step's variance clock int (L(s) / L(t_n))^2 ds.  Like the CF's
    corrections, the deviations need e^(2M(T)) finite (M(T) < 354)."""
    ms = _m_cum(grid, model)
    with np.errstate(over="ignore", invalid="ignore"):
        # the tables take a row of quadrature nodes per time: 128 at a go
        f_quad = np.concatenate([_flow_tables(model)(part)[1]
                                 for part in np.split(grid, range(128, len(grid), 128))])
        dev = np.sqrt(np.exp(-2.0 * ms[1:]) * np.diff(f_quad))
    if not np.isfinite(dev).all():
        raise FloatingPointError("V's step law overflowed: e^(2M(T)) is not finite")
    log_l = math.log(model.sigma0) - model.kappa * (grid - grid[0]) \
        - 0.5 * model.xi ** 2 * (_nu_sq_cum(grid, model) - _nu_sq_cum(grid[0], model))
    # log L linear across a step of slope a / (2 dt): the clock is
    # dt (e^a - 1) / a, and dt where sigma does not decay (a = 0)
    a = 2.0 * np.diff(log_l)
    clock = np.diff(grid) * np.divide(np.expm1(a), a, out=np.ones_like(a),
                                      where=a != 0.0)
    return np.exp(ms[:-1] - ms[1:]), dev, log_l, clock


class _DrawAhead:
    """Each step's (2, m) standard normals, drawn one step ahead.

    Row j of every step comes from generator j, which a helper thread of its
    own owns.  The helpers fill two buffers in turn, each its own row: while
    the caller marches step n on one, they fill step n + 1 into the other.
    numpy releases the GIL both while drawing and in the caller's ufuncs, so
    the three overlap.  Each stream is read in step order, as drawing in
    line would read it, and `take` hands a step back only when both rows are
    full.  Leaving the `with` block joins both helpers, also when the march
    raised; an exception in either helper is raised by `take`.
    """

    def __init__(self, gens: tuple[np.random.Generator, ...], m_draw: int,
                 n_steps: int) -> None:
        # two blocks, not one (2, 2, m): the allocator raises its mmap
        # threshold to the largest block freed, and a double-size block moves
        # later arrays onto the heap, where they raise the peak RSS
        self._bufs = (np.empty((2, m_draw)), np.empty((2, m_draw)))
        # per helper: the buffers whose row it may fill, and those it filled
        self._free = [threading.Semaphore(2) for _ in gens]
        self._full = [threading.Semaphore(0) for _ in gens]
        self._taken = 0
        self._stop = False
        self._error: BaseException | None = None
        self._helpers = [threading.Thread(target=self._fill, args=(row, gen, n_steps),
                                          name=f"adol-draws-{row}")
                         for row, gen in enumerate(gens)]

    def _fill(self, row: int, gen: np.random.Generator, n_steps: int) -> None:
        free, full = self._free[row], self._full[row]
        try:
            for n in range(n_steps):
                free.acquire()
                if self._stop:
                    return
                gen.standard_normal(out=self._bufs[n % 2][row])
                full.release()
        except BaseException as exc:  # re-raised in the caller by take()
            self._error = exc
            full.release()

    def __enter__(self) -> _DrawAhead:
        try:
            for helper in self._helpers:
                helper.start()
        except BaseException:
            self.__exit__()  # a helper already started would wait forever
            raise
        return self

    def __exit__(self, *exc_info) -> None:
        self._stop = True
        for free in self._free:
            free.release()
        for helper in self._helpers:
            if helper.ident is not None:  # started
                helper.join()

    def take(self) -> np.ndarray:
        """The next step's normals; hands the previous step's buffer back."""
        if self._taken:
            for free in self._free:
                free.release()
        for full in self._full:
            full.acquire()
        if self._error is not None:
            raise self._error
        z = self._bufs[self._taken % 2]
        self._taken += 1
        return z


class Paths(NamedTuple):
    """One march of a draw stream."""
    grid: np.ndarray
    x: np.ndarray       # terminal log S_T / S_0 per path
    sigma: np.ndarray
    v: np.ndarray
    snaps: dict[int, np.ndarray]  # x at each captured grid index


def _run(model: AdolModel, spec: McSpec, capture: set[int] | None = None) -> Paths:
    """March the system to maturity; optionally capture x at the given grid
    indices."""
    grid = _grid(model, spec)
    n_paths, n_steps = spec.n_paths, spec.n_steps
    m_draw = n_paths // 2 if spec.antithetic else n_paths
    # row 0 of each step's draws is the x-shock's own normal, row 1 the vol
    # Brownian's, each from its own stream
    gens = tuple(np.random.Generator(np.random.SFC64(child))
                 for child in np.random.SeedSequence(spec.seed).spawn(2))
    rho = model.rho
    rho_perp = math.sqrt(1.0 - rho * rho)
    drift_x = model.r - model.q
    sig = np.full(n_paths, model.sigma0)
    v = np.full(n_paths, model.v0)
    x = np.zeros(n_paths)
    tmp = np.empty(n_paths)  # scratch of every in-place step
    both = np.empty((2, n_paths)) if spec.antithetic else None
    # the snapshot at index 0 is all zeros and the last one is x itself, so
    # neither needs a copy
    copies = set() if capture is None else set(capture) - {0, n_steps}
    snaps = {}

    decay, dev, log_l, clock = _law_steps(model, grid)
    # an overflow shows as a non-finite terminal x or sigma, refused below
    with np.errstate(over="ignore", invalid="ignore"), \
            _DrawAhead(gens, m_draw, n_steps) as draws:
        for n in range(n_steps):
            z = draws.take()
            if spec.antithetic:
                both[:, :m_draw] = z
                np.negative(z, out=both[:, m_draw:])
                z = both
            # x += (r - q) dt - sigma^2 w / 2 + sigma sqrt(w) z1, with w the
            # step's variance clock, the x-shock z1 = rho z[1] + rho_perp z[0]
            # and the diffusion term formed in z[0], which nothing reads after
            np.multiply(z[1], rho, out=tmp)
            z[0] *= rho_perp
            z[0] += tmp
            np.multiply(sig, math.sqrt(clock[n]), out=tmp)
            z[0] *= tmp
            np.multiply(sig, 0.5 * clock[n], out=tmp)
            tmp *= sig
            np.subtract(drift_x * (grid[n + 1] - grid[n]), tmp, out=tmp)
            tmp += z[0]
            x += tmp
            # v <- decay v + dev z[1] and sigma <- exp(log L + xi (v - v0)) in
            # place, each product and sum rounded as the formula rounds it
            v *= decay[n]
            np.multiply(z[1], dev[n], out=tmp)
            v += tmp
            np.subtract(v, model.v0, out=sig)
            sig *= model.xi
            sig += log_l[n + 1]
            np.exp(sig, out=sig)
            if n + 1 in copies:
                snaps[n + 1] = x.copy()

    if not (np.isfinite(x).all() and np.isfinite(sig).all()):
        raise FloatingPointError("the march left a non-finite log-price or vol: "
                                 "the vol factor overflowed on this model")
    if capture is not None:
        if 0 in capture:
            snaps[0] = np.zeros(n_paths)
        if n_steps in capture:
            snaps[n_steps] = x
    return Paths(grid, x, sig, v, snaps)


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
    off `paths`, from `simulate_paths` with the same model and spec); SE
    over independent units (pairs if antithetic)."""
    if not all(math.isfinite(strike) and strike >= 0.0 for strike in strikes):
        raise ValueError("strike must be finite and nonnegative")
    x = simulate_q(model, spec).x if paths is None else paths.x
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
    model, spec and observation times)."""
    observation_times = tuple(observation_times)
    idx = _qv_indices(_grid(model, spec), observation_times)
    if paths is None:
        snaps = _run(model, spec, capture=set(idx))[4]
    else:
        snaps = paths.snaps
        if not snaps.keys() >= set(idx):
            raise ValueError("paths lack x at some observation time")
    # x starts at 0, so the first increment is x itself
    acc = snaps[idx[0]] ** 2
    for prev, cur in zip(idx, idx[1:]):
        acc += (snaps[cur] - snaps[prev]) ** 2
    return _stats(acc / float(observation_times[-1]), spec.antithetic)
