"""Option pricing by damped Fourier inversion, plus variance-swap strikes.

A European call is recovered from any characteristic function phi of the
log-return by the damped transform

    C(K) = S e^(-a m - r T) / pi * Re ∫_0^umax e^(-i v m) phi(v - (a+1)i)
           / ((a + iv)(a + 1 + iv)) dv,       m = ln(K/S),

integrated adaptively so each strike's accuracy is controlled.  A strike
ladder is one vector integral: the strikes' damped integrands (Carr &
Madan 1999) share adaptive panels, so each distinct u is evaluated once
per ladder, and phi takes each panel's 15 nodes in one call.

Variance-swap fair strikes sum the curvature of per-period forward CFs at
u = 0.  The forward CF conditions on the time-t1 vol, and the inner
expectation is the exponential-affine zero order with maturity moved to
t2.  The time-t1 vol is L(t1) e^(xi (V_t1 - v0)), L and V's Gaussian law
read off charfn (_log_l, _v_law), so the outer expectation is a
Gauss-Hermite sum over V_t1 and the analytic strike takes the vol's closed
lognormal moments; nothing is sampled.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np

from .charfn import MODE_AFFINE, _log_l, _unit_response, _v_law, _z0_coefficients
from .model import AdolModel
from .numerics import QuadratureError, QuadratureSpec, integrate_adaptive, norm_cdf

__all__ = [
    "FourierPricingSpec",
    "VarSwapSpec",
    "bs_price",
    "fourier_prices",
    "implied_vol",
    "varswap_strike",
    "varswap_strike_analytic",
]


# the inversion integral's tolerances, against each strike's integral
_QUAD = QuadratureSpec(abs_tol=1e-11, rel_tol=1e-9, max_subdivisions=2000)


@dataclass(frozen=True)
class FourierPricingSpec:
    damping: float = 1.5
    u_max: float = 150.0

    def __post_init__(self) -> None:
        # written so that NaN fails the comparison too
        if not 0.0 < self.damping < math.inf:
            raise ValueError(f"damping must be positive and finite, got {self.damping}")
        if not 0.0 < self.u_max < math.inf:
            raise ValueError(f"u_max must be positive and finite, got {self.u_max}")


@dataclass(frozen=True)
class VarSwapSpec:
    observation_times: tuple[float, ...]

    def __post_init__(self) -> None:
        ts = tuple(float(t) for t in self.observation_times)
        object.__setattr__(self, "observation_times", ts)
        if not ts:
            raise ValueError("observation schedule is empty")
        if ts[0] <= 0.0 or any(b <= a for a, b in zip(ts, ts[1:])):
            raise ValueError("observation times must be strictly increasing and positive")


# --------------------------------------------------------------------------
# Black-Scholes reference
# --------------------------------------------------------------------------

def _require_finite(**values: float) -> None:
    # NaN fails every range comparison, so finiteness is checked on its own
    for name, x in values.items():
        if not math.isfinite(x):
            raise ValueError(f"{name} must be finite, got {x}")


def bs_price(spot: float, strike: float, r: float, q: float,
             total_variance: float, t_mat: float) -> float:
    """Call price with an aggregate variance; t_mat only sets the discounting."""
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
        return df * max(fwd - strike, 0.0)
    s = math.sqrt(total_variance)
    d1 = (math.log(fwd / strike) + 0.5 * total_variance) / s
    return df * (fwd * norm_cdf(d1) - strike * norm_cdf(d1 - s))


# --------------------------------------------------------------------------
# Fourier inversion
# --------------------------------------------------------------------------

def _by_strike(strikes: Sequence[float], values: np.ndarray, bad: np.ndarray) -> str:
    return ", ".join(f"{v} at strike {k}" for k, v, b in zip(strikes, values, bad) if b)


def fourier_prices(cf: Callable[[np.ndarray], np.ndarray], spot: float,
                   strikes: Sequence[float], r: float, q: float, t_mat: float,
                   spec: FourierPricingSpec | None = None) -> list[float]:
    """Call prices at each strike, in order, by damped-contour inversion.

    cf maps a 1-d array of complex frequencies to the CF's values there
    (charfn.cf_values, or charfn.cf_zero).  The strikes' integrands form
    one vector integral on shared adaptive panels, so each u is evaluated
    once per ladder, and cf once per panel, on its 15 nodes; u_max doubles,
    up to 64 times the spec's, until every strike's integrand has decayed.
    """
    _require_finite(r=r, q=q, t_mat=t_mat)
    if t_mat < 0.0:
        raise ValueError("maturity must be nonnegative")
    for x in (spot, *strikes):
        if not 0.0 < x < math.inf:  # written so that NaN fails too
            raise ValueError(f"spot and strikes must be finite and positive, got {x}")
    if len(strikes) == 0:
        return []
    spec = spec or FourierPricingSpec()
    z = cf(np.zeros(1, dtype=complex))[0]
    if not abs(z - 1.0) <= 1e-8:  # written so that NaN fails too
        raise ValueError(f"characteristic function not normalized: cf(0) = {z}")
    a = spec.damping
    m = np.array([math.log(k / spot) for k in strikes])

    def integrand(v: np.ndarray) -> np.ndarray:
        """The strikes' integrands at the nodes v: one row per node."""
        u = v - 1j * (a + 1.0)
        denom = (a + 1j * v) * ((a + 1.0) + 1j * v)
        return np.exp(-1j * v[:, None] * m) * cf(u)[:, None] / denom[:, None]

    u_max = spec.u_max
    val = integrate_adaptive(integrand, 0.0, u_max, _QUAD)
    # past u_max the denominator alone decays like 1/v^2, so while |cf| keeps falling
    # a strike drops at most about u_max |integrand(u_max)|; a NaN tail is undecayed
    while (undecayed := ~((tail := u_max * abs(integrand(np.array([u_max]))[0]))
                          <= np.maximum(_QUAD.abs_tol, _QUAD.rel_tol * abs(val)))).any():
        if u_max >= 64.0 * spec.u_max:
            raise QuadratureError(f"integrand has not decayed at u_max {u_max}, tail "
                                  f"{_by_strike(strikes, tail, undecayed)}; raise u_max",
                                  estimate=val, error_bound=float(np.max(tail)))
        val += integrate_adaptive(integrand, u_max, 2.0 * u_max, _QUAD)
        u_max *= 2.0
    calls = np.array([spot * math.exp(-a * mk - r * t_mat) / math.pi * v.real
                      for mk, v in zip(m, val)])
    if (negative := calls < -1e-6 * spot).any():
        raise RuntimeError(f"inversion produced a materially negative price "
                           f"{_by_strike(strikes, calls, negative)}")
    return np.maximum(calls, 0.0).tolist()


# --------------------------------------------------------------------------
# implied volatility
# --------------------------------------------------------------------------

def implied_vol(price: float, spot: float, strike: float, r: float, q: float,
                t_mat: float) -> float:
    """Annualized Black-Scholes vol of a call; iterates to convergence in vol
    space."""
    _require_finite(price=price, spot=spot, strike=strike, r=r, q=q, t_mat=t_mat)
    if spot <= 0.0 or strike <= 0.0 or t_mat <= 0.0:
        raise ValueError("spot, strike and maturity must be positive")
    disc_s = spot * math.exp(-q * t_mat)
    disc_k = strike * math.exp(-r * t_mat)
    lo_b, hi_b = max(0.0, disc_s - disc_k), disc_s
    if not lo_b < price < hi_b:
        raise ValueError(
            f"price {price} outside the arbitrage bounds ({lo_b}, {hi_b})")

    def f(s: float) -> float:
        return bs_price(spot, strike, r, q, s * s, t_mat) - price

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

# Gauss-Hermite nodes of each leg's expectation over V_t1: twice the 20 at
# which the lognormal moments of sigma_t1 are already exact to rounding
_LEG_NODES = 40
_LOG_MAX = math.log(np.finfo(float).max)


@functools.lru_cache(maxsize=None)
def _hermite_rule(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Hermite nodes and weights for the standard normal law."""
    x, w = np.polynomial.hermite.hermgauss(n)
    return x, w / math.sqrt(math.pi)


def _leg_overflow(t1: float, t2: float, model: AdolModel) -> FloatingPointError:
    return FloatingPointError(f"the vol law of the variance-swap leg ({t1}, {t2}) is out "
                              f"of float range at h = {model.h}")


def _leg_vol_law(t1: float, t2: float, model: AdolModel) -> tuple[float, float, float]:
    """V_t1's decay and variance and L(t1) for the leg (t1, t2).

    Both strikes read the leg's variance up to its second moment, so a leg
    whose E[sigma_t1^4] = L^4 exp(4 xi (E V_t1 - v0) + 8 xi^2 Var V_t1)
    overflows, or whose L underflows to 0, is refused.
    """
    decay, var = _v_law(model, 0.0, t1)
    log_l, xi = _log_l(model, t1, 0.0), model.xi
    big_l = model.sigma0 * math.exp(log_l)
    if big_l == 0.0 or 4.0 * (math.log(model.sigma0) + log_l + xi * (model.v0 * decay - model.v0)) \
            + 8.0 * xi * xi * var > _LOG_MAX:
        raise _leg_overflow(t1, t2, model)
    return decay, var, big_l


def _leg_sigmas(t1: float, t2: float, model: AdolModel,
                n: int = _LEG_NODES) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Hermite nodes of sigma_t1 over the law of V_t1, with weights,
    for the leg (t1, t2)."""
    decay, var, big_l = _leg_vol_law(t1, t2, model)
    x, w = _hermite_rule(n)
    return big_l * np.exp(model.xi * (model.v0 * decay - model.v0
                                      + math.sqrt(2.0 * var) * x)), w


def _check_leg(t1: float, t2: float, model: AdolModel) -> None:
    if not 0.0 <= t1 < t2 <= model.t_mat * (1.0 + 1e-12):
        raise ValueError(f"need 0 <= t1 < t2 <= maturity, got ({t1}, {t2})")


def _forward_cf_on(u: complex, t1: float, t2: float, model: AdolModel,
                   sig: np.ndarray, w: np.ndarray) -> complex:
    """The affine zero-order CF with maturity t2, at t1, averaged over the
    time-t1 vols `sig` with weights `w`."""
    alpha, gamma, _ = _z0_coefficients(u, replace(model, t_mat=t2), MODE_AFFINE, t1)
    return complex(w @ np.exp(alpha + gamma * sig * sig))


def _leg_curvature(phi: Callable[[float], complex], h: float) -> complex:
    return (phi(h) - 2.0 + phi(-h)) / (h * h)


# the step in u of varswap_strike's curvature stencil, halved and quartered
# by its Richardson extrapolation and its convergence check
_U_STEP = 1e-2


def varswap_strike(model: AdolModel, spec: VarSwapSpec) -> float:
    """Fair variance strike, annualized: -(1/T) sum of forward-CF curvatures
    at u = 0, Richardson-extrapolated over the steps h = _U_STEP and h / 2.

    Each leg's vol nodes serve all six stencil points.  The stencil needs
    the forward CF smooth at u = 0 on the scale of h, which the lognormal
    tail of a wide vol law breaks, so the call raises unless the same
    extrapolation over h / 2 and h / 4 agrees to 1e-6 relative: on the
    reference model and the (0.25, 0.5) schedule the two part by at most
    6.4e-9 up to xi = 0.3, and by 5.5e-6 at xi = 0.4 (strike off by 7.6e-6).

    Each leg's inner expectation is taken at order 0 in xi, so the strike
    misses the vol's xi-dynamics inside a leg and does not depend on rho:
    at xi = 0.05 on that model and schedule it reads 0.0387370, against the
    exact (1/T) int E[sigma_t^2] dt of 0.0382143 and a Monte Carlo realized
    variance of 0.03836 at rho = 0.
    """
    times = (0.0,) + spec.observation_times
    total = fine = 0.0 + 0.0j
    h = _U_STEP
    for t1, t2 in zip(times, times[1:]):
        _check_leg(t1, t2, model)
        nodes = _leg_sigmas(t1, t2, model)

        def phi(x: float) -> complex:
            return _forward_cf_on(x, t1, t2, model, *nodes)

        half = _leg_curvature(phi, 0.5 * h)
        total += (4.0 * half - _leg_curvature(phi, h)) / 3.0
        fine += (4.0 * _leg_curvature(phi, 0.25 * h) - half) / 3.0
    strike, check = -total / times[-1], -fine / times[-1]
    if abs(strike.imag) > 1e-8:
        raise RuntimeError(f"variance strike has imaginary residue {strike.imag}")
    if abs(check.real - strike.real) > 1e-6 * abs(strike.real):
        raise RuntimeError(f"variance strike has not converged in the stencil step: "
                           f"{strike.real} at h = {h}, {check.real} at h / 2")
    return strike.real


def varswap_strike_analytic(model: AdolModel, spec: VarSwapSpec) -> float:
    """Cross-check from differentiating the affine zero-order exponent.

    With exponent g(u) = iu(r-q)D - u(u+i) cv, cv = G(D) sigma_t1^2 / 2 for
    the unit response G of charfn._unit_response, the curvature at zero is
    E[-((r-q)D - cv)^2 - 2 cv] per leg; no finite differences involved.
    cv is lognormal, so its mean is closed and its variance is the squared
    mean times expm1(4 xi^2 Var V_t1).
    """
    times = (0.0,) + spec.observation_times
    rq, xi = model.r - model.q, model.xi
    acc = 0.0
    for t1, t2 in zip(times, times[1:]):
        _check_leg(t1, t2, model)
        delta = t2 - t1
        decay, var, big_l = _leg_vol_law(t1, t2, model)
        try:
            cv = 0.5 * float(_unit_response(model.kappa, delta)) * big_l * big_l \
                * math.exp(2.0 * xi * (model.v0 * decay - model.v0) + 2.0 * xi * xi * var)
            acc += 2.0 * cv + (rq * delta - cv) ** 2 + cv * cv * math.expm1(4.0 * xi * xi * var)
        except OverflowError:  # exp(2 xi^2 var) alone may overflow where L^2 times it does not
            raise _leg_overflow(t1, t2, model) from None
    return acc / times[-1]
