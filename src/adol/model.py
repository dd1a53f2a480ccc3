"""Model parameter set and coefficient functions.

Risk-neutral dynamics priced by this package:

    dS     = (r - q) S dt + sigma S dW1
    dsigma = -[kappa + xi m(t) v] sigma dt + xi nu(t) sigma dW2
    dv     = -m(t) v dt + nu(t) dW2,      d<W1,W2> = rho dt

with nu(t) = B_H t^(H-1/2) from the Gaussian driver and a power-law
mean-reversion speed m(t) = m_rho * t^m_pi.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

import numpy as np

from .do_process import DoConstants, do_constants

__all__ = ["AdolModel", "SmallParamReport", "XI_MARGIN", "m_t", "f_ht", "small_param_check"]

XI_MARGIN = 0.25  # xi is admissible up to this multiple of f(H, T)


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
    """Admissibility of xi: xi <= XI_MARGIN f(H,T), f(H,T) = 2/(B_H T^H)."""

    f_ht: float
    xi: float
    admissible: bool

    def __post_init__(self) -> None:
        if self.f_ht <= 0.0:
            raise ValueError("f_ht must be positive")


def m_t(t, model: AdolModel):
    """Mean-reversion speed m(t) = m_rho * t^m_pi, at a time or at each of an
    array of times."""
    if np.min(t) < 0.0:
        raise ValueError("time must be nonnegative")
    return model.m_rho * t ** model.m_pi  # 0.0 ** 0.0 == 1.0: m_rho at t = 0 when m_pi = 0


def f_ht(h: float, t_mat: float) -> float:
    """The expansion scale f(H, T) = 2 / (B_H T^H) that xi is measured against."""
    return 2.0 / (do_constants(h).b_h * t_mat ** h)


def small_param_check(model: AdolModel) -> SmallParamReport:
    """Report whether xi is small against f(H,T); never enforced."""
    f = f_ht(model.h, model.t_mat)
    return SmallParamReport(f_ht=f, xi=model.xi, admissible=model.xi <= XI_MARGIN * f)
