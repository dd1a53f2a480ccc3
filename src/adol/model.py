"""Model parameter set and coefficient functions.

Risk-neutral dynamics priced by this package:

    dS     = (r - q) S dt + sigma S dW1
    dsigma = -[kappa + xi m(t) v] sigma dt + xi nu(t) sigma dW2
    dv     = -m(t) v dt + nu(t) dW2,      d<W1,W2> = rho dt

with nu(t) = B_H t^(H-1/2) from the Gaussian driver and a power-law
mean-reversion speed m(t) = m_rho * t^m_pi.  Under the physical measure the
auxiliary state additionally carries a singular drift that is switched off
on [0, P_DRIFT_EPS].
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

from .do_process import DoConstants, do_constants

__all__ = ["AdolModel", "SmallParamReport", "m_t", "q_drifts", "p_drift_v", "small_param_check"]


@dataclass(frozen=True)
class AdolModel:
    """Complete risk-neutral parameterization.

    The price of volatility risk is zero by convention, so the dynamics in
    the module docstring are the pricing dynamics as written.
    """

    s0: float
    sigma0: float
    v0: float
    r: float
    q: float
    kappa: float
    xi: float
    rho: float
    h: float
    m_rho: float
    m_pi: float
    t_mat: float
    constants: DoConstants = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        # NaN passes every range comparison below, so it is refused first;
        # an int is stored as a float, which the in-place numpy steps need
        for name in (f.name for f in fields(self) if f.init):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
            object.__setattr__(self, name, float(value))
        if self.s0 <= 0.0:
            raise ValueError("spot must be positive")
        if self.sigma0 <= 0.0:
            raise ValueError("initial volatility must be positive")
        if self.kappa < 0.0:
            raise ValueError("kappa must be nonnegative")
        if self.xi < 0.0:
            raise ValueError("xi must be nonnegative")
        if not -1.0 <= self.rho <= 1.0:
            raise ValueError("rho must lie in [-1, 1]")
        if not 0.0 < self.h < 1.0:
            raise ValueError("hurst index must lie in (0, 1)")
        if self.m_pi < 0.0:
            raise ValueError("m_pi must be nonnegative")
        if self.t_mat <= 0.0:
            raise ValueError("maturity must be positive")
        object.__setattr__(self, "constants", do_constants(self.h))


@dataclass(frozen=True)
class SmallParamReport:
    """Admissibility of xi against the expansion scale f(H,T) = 2/(B_H T^H)."""

    f_ht: float
    xi: float
    admissible: bool
    margin: float = 0.25

    def __post_init__(self) -> None:
        if self.f_ht <= 0.0:
            raise ValueError("f_ht must be positive")


def m_t(t: float, model: AdolModel) -> float:
    """Mean-reversion speed m(t) = m_rho * t^m_pi."""
    if t < 0.0:
        raise ValueError("time must be nonnegative")
    if t == 0.0 and model.m_pi == 0.0:
        return model.m_rho
    return model.m_rho * t ** model.m_pi


def q_drifts(t: float, sigma: float, v: float, model: AdolModel) -> tuple[float, float, float]:
    """Risk-neutral drifts (S-relative, absolute sigma, absolute v) at (t, sigma, v)."""
    if t <= 0.0:
        raise ValueError("drifts are defined for t > 0")
    m = m_t(t, model)
    drift_s = model.r - model.q
    drift_sigma = -(model.kappa + model.xi * m * v) * sigma
    drift_v = -m * v
    return drift_s, drift_sigma, drift_v


# the physical drift's cut-off time: the drift is 0 on [0, P_DRIFT_EPS]
P_DRIFT_EPS = 1e-4


def p_drift_v(t: float, v: float, model: AdolModel) -> complex:
    """Physical-measure drift of the auxiliary state, cut off on [0, P_DRIFT_EPS].

    For t > P_DRIFT_EPS:  i H d_H t^(H-1) + ((2H-1)/t) v,  with d_H = sqrt(d_H^2).
    The imaginary part is the deterministic adjustment that centers the
    driver's law on the fBm marginals.
    """
    if t < 0.0:
        raise ValueError("time must be nonnegative")
    if t <= P_DRIFT_EPS:
        return 0.0 + 0.0j
    c = model.constants
    d_h = max(c.d_h_sq, 0.0) ** 0.5
    return complex((2.0 * c.h - 1.0) / t * v, c.h * d_h * t ** (c.h - 1.0))


def small_param_check(model: AdolModel, margin: float = 0.25) -> SmallParamReport:
    """Report whether xi is small against f(H,T); never enforced."""
    f = 2.0 / (model.constants.b_h * model.t_mat ** model.h)
    return SmallParamReport(f_ht=f, xi=model.xi, admissible=model.xi <= margin * f, margin=margin)
