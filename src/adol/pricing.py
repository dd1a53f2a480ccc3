"""Option pricing by damped Fourier inversion, plus variance-swap strikes.

A European call is recovered from any characteristic function phi of the
log-return by the damped transform

    C(K) = S e^(-a m - r T) / pi * Re ∫_0^umax e^(-i v m) phi(v - (a+1)i)
           / ((a + iv)(a + 1 + iv)) dv,       m = ln(K/S),

integrated adaptively so single-strike accuracy is controlled; a fixed-grid
FFT variant serves strike ladders.  Puts always go through parity.

Variance-swap fair strikes sum the curvature of per-period forward CFs at
u = 0.  The forward CF conditions on the time-t1 state, which is sampled by
the Monte Carlo engine; the inner expectation is the exponential-affine
zero order with maturity moved to t2.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .charfn import MODE_AFFINE, _coeffs_for
from .model import AdolModel
from .montecarlo import McSpec, simulate_q
from .numerics import QuadratureError, QuadratureSpec, integrate_adaptive, norm_cdf

__all__ = [
    "FourierPricingSpec",
    "VarSwapSpec",
    "bs_price",
    "fourier_price",
    "fourier_prices_fft",
    "implied_vol",
    "forward_cf",
    "varswap_leg_states",
    "varswap_strike",
    "varswap_strike_analytic",
]


@dataclass(frozen=True)
class FourierPricingSpec:
    damping: float = 1.5
    u_max: float = 150.0
    n_points: int = 1024
    quad: QuadratureSpec = QuadratureSpec(abs_tol=1e-11, rel_tol=1e-9,
                                          max_subdivisions=2000)

    def __post_init__(self) -> None:
        # written so that NaN fails the comparison too
        if not 0.0 < self.damping < math.inf:
            raise ValueError(f"damping must be positive and finite, got {self.damping}")
        if not 0.0 < self.u_max < math.inf:
            raise ValueError(f"u_max must be positive and finite, got {self.u_max}")
        if self.n_points < 64:
            raise ValueError("n_points must be at least 64")


@dataclass(frozen=True)
class VarSwapSpec:
    observation_times: tuple[float, ...]
    u_step: float = 1e-2
    mc_states: int = 4096

    def __post_init__(self) -> None:
        ts = tuple(float(t) for t in self.observation_times)
        object.__setattr__(self, "observation_times", ts)
        if not ts:
            raise ValueError("observation schedule is empty")
        if ts[0] <= 0.0 or any(b <= a for a, b in zip(ts, ts[1:])):
            raise ValueError("observation times must be strictly increasing and positive")
        if not 1e-6 < self.u_step < 1e-1:
            raise ValueError("u_step must lie in (1e-6, 1e-1)")
        if self.mc_states < 1:
            raise ValueError("mc_states must be positive")


# --------------------------------------------------------------------------
# Black-Scholes reference
# --------------------------------------------------------------------------

def _require_finite(**values: float) -> None:
    # NaN fails every range comparison, so finiteness is checked on its own
    for name, x in values.items():
        if not math.isfinite(x):
            raise ValueError(f"{name} must be finite, got {x}")


def bs_price(spot: float, strike: float, r: float, q: float,
             total_variance: float, is_call: bool, t_mat: float) -> float:
    """Price with an aggregate variance; t_mat only sets the discounting."""
    _require_finite(spot=spot, strike=strike, r=r, q=q,
                    total_variance=total_variance, t_mat=t_mat)
    if spot <= 0.0 or strike <= 0.0:
        raise ValueError("spot and strike must be positive")
    if total_variance < 0.0:
        raise ValueError("total variance must be nonnegative")
    if t_mat < 0.0:
        raise ValueError("maturity must be nonnegative")
    fwd = spot * math.exp((r - q) * t_mat)
    df = math.exp(-r * t_mat)
    if total_variance == 0.0:
        intrinsic = fwd - strike if is_call else strike - fwd
        return df * max(intrinsic, 0.0)
    s = math.sqrt(total_variance)
    d1 = (math.log(fwd / strike) + 0.5 * total_variance) / s
    d2 = d1 - s
    if is_call:
        return df * (fwd * norm_cdf(d1) - strike * norm_cdf(d2))
    return df * (strike * norm_cdf(-d2) - fwd * norm_cdf(-d1))


# --------------------------------------------------------------------------
# Fourier inversion
# --------------------------------------------------------------------------

def _check_normalized(cf: Callable[[complex], complex]) -> None:
    z = cf(0.0)
    if abs(z - 1.0) > 1e-8:
        raise ValueError(f"characteristic function not normalized: cf(0) = {z}")


def fourier_price(cf: Callable[[complex], complex], spot: float, strike: float,
                  r: float, q: float, t_mat: float,
                  spec: FourierPricingSpec | None = None,
                  is_call: bool = True) -> float:
    """Single-strike damped-contour inversion with adaptive quadrature."""
    # NaN fails every comparison, so finiteness is checked on its own
    if not (math.isfinite(spot) and math.isfinite(strike)) \
            or spot <= 0.0 or strike <= 0.0:
        raise ValueError(f"spot and strike must be finite and positive, "
                         f"got {spot} and {strike}")
    spec = spec or FourierPricingSpec()
    _check_normalized(cf)
    a = spec.damping
    m = math.log(strike / spot)

    def integrand(v: float) -> complex:
        u = complex(v, -(a + 1.0))
        denom = complex(a, v) * complex(a + 1.0, v)
        return cmath.exp(-1j * v * m) * cf(u) / denom

    val = integrate_adaptive(integrand, 0.0, spec.u_max, spec.quad)
    # past u_max the denominator alone decays like 1/v^2, so while |cf| keeps
    # falling the dropped tail is at most about u_max |integrand(u_max)|
    tail = spec.u_max * abs(integrand(spec.u_max))
    if tail > max(spec.quad.abs_tol, spec.quad.rel_tol * abs(val)):
        raise QuadratureError(f"integrand has not decayed at u_max {spec.u_max}; "
                              f"raise u_max", estimate=val, error_bound=tail)
    call = spot * math.exp(-a * m - r * t_mat) / math.pi * val.real
    if call < -1e-6 * spot:
        raise RuntimeError(f"inversion produced a materially negative price {call}")
    call = max(call, 0.0)
    if is_call:
        return call
    return call - spot * math.exp(-q * t_mat) + strike * math.exp(-r * t_mat)


def fourier_prices_fft(cf: Callable[[complex], complex], spot: float, r: float,
                       q: float, t_mat: float,
                       spec: FourierPricingSpec | None = None
                       ) -> tuple[np.ndarray, np.ndarray]:
    """Call-price ladder on the FFT's own log-strike grid.

    Returns (strikes, call prices); the grid is centered on the spot.
    Throughput mode: per-strike accuracy is set by the grid, not monitored.
    """
    spec = spec or FourierPricingSpec()
    _check_normalized(cf)
    a = spec.damping
    n = spec.n_points
    eta = spec.u_max / n
    lam = 2.0 * math.pi / (n * eta)
    b = 0.5 * n * lam
    v = eta * np.arange(n)
    psi = np.empty(n, dtype=complex)
    for j, vj in enumerate(v):
        u = complex(vj, -(a + 1.0))
        psi[j] = cf(u) / (complex(a, vj) * complex(a + 1.0, vj))
    # Simpson weights keep the grid integral O(eta^4)
    w = np.ones(n)
    w[1:-1:2], w[2:-1:2] = 4.0, 2.0
    w *= eta / 3.0
    x = np.exp(1j * b * v) * psi * w
    m_grid = -b + lam * np.arange(n)
    calls = spot * np.exp(-a * m_grid - r * t_mat) / math.pi * np.fft.fft(x).real
    strikes = spot * np.exp(m_grid)
    return strikes, np.maximum(calls, 0.0)


# --------------------------------------------------------------------------
# implied volatility
# --------------------------------------------------------------------------

def implied_vol(price: float, spot: float, strike: float, r: float, q: float,
                t_mat: float, is_call: bool = True) -> float:
    """Annualized Black-Scholes vol; iterates to convergence in vol space."""
    _require_finite(price=price, spot=spot, strike=strike, r=r, q=q, t_mat=t_mat)
    if spot <= 0.0 or strike <= 0.0 or t_mat <= 0.0:
        raise ValueError("spot, strike and maturity must be positive")
    disc_s = spot * math.exp(-q * t_mat)
    disc_k = strike * math.exp(-r * t_mat)
    lo_b = max(0.0, disc_s - disc_k) if is_call else max(0.0, disc_k - disc_s)
    hi_b = disc_s if is_call else disc_k
    if not lo_b < price < hi_b:
        raise ValueError(
            f"price {price} outside the arbitrage bounds ({lo_b}, {hi_b})")

    def f(s: float) -> float:
        return bs_price(spot, strike, r, q, s * s, is_call, t_mat) - price

    lo, hi = 1e-9, 10.0
    if f(hi) < 0.0:
        raise ValueError("price unreachable below total vol 10")
    s = max(min(math.sqrt(2.0 * abs(math.log(spot / strike) + (r - q) * t_mat)
                          + 1e-12), hi * 0.5), 1e-4)
    fs = f(s)
    fwd = spot * math.exp((r - q) * t_mat)
    for _ in range(200):
        if fs == 0.0:
            break
        if fs > 0.0:
            hi = s
        else:
            lo = s
        d1 = (math.log(fwd / strike) + 0.5 * s * s) / s
        vega = disc_s * math.exp(-0.5 * d1 * d1) / math.sqrt(2.0 * math.pi)
        # a price-space stop (|fs| < tol) under-resolves the vol where vega
        # is small, so run Newton until the step itself is negligible; the
        # nan/inf from a dead vega fails the bracket test and bisects
        s_new = s - fs / vega if vega > 0.0 else math.nan
        if lo < s_new < hi:
            done = abs(s_new - s) <= 1e-14 * max(1.0, s)
            s = s_new
            if done:
                break
        else:
            s = 0.5 * (lo + hi)
        fs = f(s)
        if hi - lo < 1e-15:
            break
    return s / math.sqrt(t_mat)


# --------------------------------------------------------------------------
# forward characteristic function and variance swaps
# --------------------------------------------------------------------------

def _states_at(t1: float, model: AdolModel, cfg: McSpec) -> tuple[np.ndarray, np.ndarray]:
    """Sampled time-t1 states (sigma, v), one per path of `cfg`.

    Unless the state is deterministic, each call marches a fresh simulation.
    The variance-swap estimators take their legs' states from
    `varswap_leg_states`, so the CLI samples each leg once and shares it
    between both estimators.
    """
    if model.xi == 0.0 or t1 <= model.eps:
        # deterministic (or inception) state: no outer sampling needed
        sig = model.sigma0 * math.exp(-model.kappa * t1)
        p = 1.0 + model.m_pi
        v = model.v0 * math.exp(-model.m_rho * t1 ** p / p)
        return np.array([sig]), np.array([v])
    horizon = replace(model, t_mat=t1)
    states = simulate_q(horizon, cfg)
    return states.sigma, states.v


def _check_leg(t1: float, t2: float, model: AdolModel) -> None:
    if not 0.0 <= t1 < t2 <= model.t_mat * (1.0 + 1e-12):
        raise ValueError(f"need 0 <= t1 < t2 <= maturity, got ({t1}, {t2})")


def _forward_cf_on(u: complex, t1: float, t2: float, model: AdolModel,
                   mode: str, sig: np.ndarray, v: np.ndarray) -> tuple[complex, float]:
    """Forward CF over sampled time-t1 states, with its standard error: the
    mean of the zero-order CF with maturity t2, evaluated at t1 per state."""
    co = _coeffs_for(u, replace(model, t_mat=t2), mode)
    expo = co.alpha(t1) + co.gamma(t1) * sig * sig + co.beta_bar(t1) * sig * v
    vals = np.exp(expo)
    if len(vals) > 1:
        se = math.sqrt((vals.real.var(ddof=1) + vals.imag.var(ddof=1)) / len(vals))
    else:
        se = 0.0
    return complex(vals.mean()), se


def forward_cf(u: complex, t1: float, t2: float, model: AdolModel,
               cfg: McSpec | None = None, mode: str = MODE_AFFINE,
               with_se: bool = False):
    """E[exp(iu (x_{t2} - x_{t1}))]: outer state sample, inner zero order."""
    _check_leg(t1, t2, model)
    if u == 0.0:
        return (1.0 + 0.0j, 0.0) if with_se else 1.0 + 0.0j
    cfg = cfg or McSpec(n_paths=4096, n_steps=64, seed=20177, t_start=model.eps)
    mean, se = _forward_cf_on(u, t1, t2, model, mode, *_states_at(t1, model, cfg))
    return (mean, se) if with_se else mean


def _leg_curvature(phi: Callable[[float], complex], h: float) -> complex:
    return (phi(h) - 2.0 + phi(-h)) / (h * h)


def varswap_leg_states(model: AdolModel, spec: VarSwapSpec,
                       cfg: McSpec | None = None) -> list[tuple[np.ndarray, np.ndarray]]:
    """Each leg's sampled time-t1 states (sigma, v), in schedule order.

    Pass the list as `legs` to `varswap_strike` and `varswap_strike_analytic`
    to let one sample serve both; each samples its own when given none.
    """
    times = (0.0,) + spec.observation_times
    cfg = cfg or McSpec(n_paths=spec.mc_states, n_steps=64, seed=20177,
                        t_start=model.eps)
    legs = []
    for t1, t2 in zip(times, times[1:]):
        _check_leg(t1, t2, model)
        legs.append(_states_at(t1, model, cfg))
    return legs


def _legs_for(model: AdolModel, spec: VarSwapSpec, cfg: McSpec | None,
              legs: list | None) -> list[tuple[np.ndarray, np.ndarray]]:
    if legs is None:
        return varswap_leg_states(model, spec, cfg)
    if len(legs) != len(spec.observation_times):
        raise ValueError(f"need one state sample per leg, "
                         f"{len(spec.observation_times)}, got {len(legs)}")
    return legs


def varswap_strike(model: AdolModel, spec: VarSwapSpec,
                   cfg: McSpec | None = None, mode: str = MODE_AFFINE,
                   richardson: bool = True, *, legs: list | None = None) -> float:
    """Fair variance strike, annualized: -(1/T) sum of CF curvatures at u = 0.

    Each leg's time-t1 states are sampled once and serve every stencil point;
    `legs` (from `varswap_leg_states`) supplies them instead of `cfg`.
    """
    times = (0.0,) + spec.observation_times
    horizon = times[-1]
    total = 0.0 + 0.0j
    h = spec.u_step
    for t1, t2, (sig, v) in zip(times, times[1:],
                                _legs_for(model, spec, cfg, legs)):

        def phi(x: float) -> complex:
            return _forward_cf_on(x, t1, t2, model, mode, sig, v)[0]

        d_h = _leg_curvature(phi, h)
        if richardson:
            d_h2 = _leg_curvature(phi, 0.5 * h)
            total += (4.0 * d_h2 - d_h) / 3.0
        else:
            total += d_h
    strike = -total / horizon
    if abs(strike.imag) > 1e-8:
        raise RuntimeError(f"variance strike has imaginary residue {strike.imag}")
    return strike.real


def varswap_strike_analytic(model: AdolModel, spec: VarSwapSpec,
                            cfg: McSpec | None = None, *,
                            legs: list | None = None) -> float:
    """Cross-check from differentiating the affine zero-order exponent.

    With exponent g(u) = iu(r-q)D - u(u+i) C sigma1^2, C = (1-e^(-2 kappa D))
    / (4 kappa), the curvature at zero is E[-((r-q)D - C sigma1^2)^2
    - 2 C sigma1^2] per leg; no finite differences involved.  The CLI passes
    the `legs` it sampled for `varswap_strike`, so both estimators read the
    same states from one simulation per leg.
    """
    times = (0.0,) + spec.observation_times
    horizon = times[-1]
    rq = model.r - model.q
    acc = 0.0
    for t1, t2, (sig, _) in zip(times, times[1:],
                                _legs_for(model, spec, cfg, legs)):
        delta = t2 - t1
        if model.kappa < 1e-12:
            c_leg = 0.5 * delta
        else:
            c_leg = (1.0 - math.exp(-2.0 * model.kappa * delta)) / (4.0 * model.kappa)
        cv = c_leg * sig * sig
        acc += float(np.mean(2.0 * cv + (rq * delta - cv) ** 2))
    return acc / horizon
