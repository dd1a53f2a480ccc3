"""Gaussian building blocks of the volatility driver.

The driver is built from a centered Gaussian martingale M with independent
increments and power-law variance, rescaled by a deterministic envelope

    psi(t) = psi_scale * t^(2H-1),

so that V(t) = psi(t) * M(t) carries the same marginal variance profile as
fractional Brownian motion up to a relative L2 defect d_H.  All constants
below are smooth functions of the Hurst index H alone and collapse to the
standard-BM values at H = 1/2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = ["DoConstants", "do_constants", "nu_t"]


# --------------------------------------------------------------------------
# constants
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class DoConstants:
    """Hurst-derived scalars for one value of H.

    psi_scale is the coefficient of t^(2H-1) in the envelope psi; d_h_sq is
    the squared relative L2 distance between the rescaled martingale and the
    fractional Brownian motion it tracks.
    """

    h: float
    alpha_h: float
    c_h: float
    b_h: float
    d_h_sq: float
    psi_scale: float

    def __post_init__(self) -> None:
        if not 0.0 < self.h < 1.0:
            raise ValueError(f"hurst index must lie in (0,1), got {self.h}")
        if self.alpha_h <= 0.0 or self.c_h <= 0.0 or self.b_h <= 0.0 or self.psi_scale <= 0.0:
            raise ValueError("scale constants must be strictly positive")
        # numerical zero floor only; exact zero at h = 1/2
        if self.d_h_sq < -1e-12:
            raise ValueError(f"d_h_sq below numerical zero floor: {self.d_h_sq}")


# a_k = zeta(k) (1 + ((-1)^k - 1) / 2^k) / k for k = 2, 3, ..., 30, formed in
# mpmath at 40 digits: with v = 2H - 1,
#   log((1 + v) Gamma(2 - v) Gamma(1 + v/2) / Gamma(1 - v/2))
#       = log(1 - v^2) + sum_k a_k v^k,
# from the Taylor series of log Gamma(1 + z), whose Euler-gamma terms cancel
_D_SQ_SERIES = (
    0.8224670334241132, 0.30051422578989856, 0.27058080842778454,
    0.19442395408938187, 0.1695571769974082, 0.1417991171318329,
    0.12550966952474304, 0.11089936639351171, 0.1000994575127818,
    0.09086519486346006, 0.083353840546109, 0.0769137340587127,
    0.07143294629536133, 0.06666463674753995, 0.06250095514121304,
    0.05882308107600241, 0.055555767627403614, 0.05263147860569325,
    0.05000004769810169, 0.047619024917057884, 0.04545455629320467,
    0.04347825568701384, 0.04166666915034121, 0.03999999880795428,
    0.03846153903467518, 0.03703703676109446, 0.035714285847333355,
    0.03448275855646101, 0.03333333336437758,
)
# below this |2H - 1| the terms past the 30th sum to under 1e-17 of d_H^2
_D_SQ_SERIES_V = 0.25


def _d_sq(h: float) -> float:
    """d_H^2 = 1 - 2H Gamma(3 - 2H) Gamma(H + 1/2) / Gamma(3/2 - H).

    The Gamma product tends to 1 as H -> 1/2, so 1 minus it keeps only the
    ulps of math.gamma there; near 1/2 the log of the product is summed as
    a series in v = 2H - 1 instead, every term of order v^2.
    """
    v = 2.0 * h - 1.0
    if abs(v) >= _D_SQ_SERIES_V:
        return 1.0 - (2.0 * h * math.gamma(3.0 - 2.0 * h) * math.gamma(h + 0.5)
                      / math.gamma(1.5 - h))
    log_sum = 0.0
    for a in reversed(_D_SQ_SERIES):
        log_sum = (log_sum + a) * v
    # 0.0 - rather than a bare minus, so d_H^2 at H = 1/2 is +0.0, not -0.0
    return 0.0 - math.expm1(math.log1p(-v * v) + log_sum * v)


def do_constants(h: float) -> DoConstants:
    """Evaluate every Hurst-derived constant in closed form."""
    if not 0.0 < h < 1.0:
        raise ValueError(f"hurst index must lie in (0,1), got {h}")
    sin_pi_h = math.sin(math.pi * h)
    alpha = math.sqrt(math.gamma(2.0 * h + 1.0) * math.gamma(3.0 - 2.0 * h)) * sin_pi_h ** 2
    c = alpha / (2.0 * h * math.gamma(1.5 - h) * math.gamma(h + 0.5))
    b = (2.0 ** (3.0 - 4.0 * h)) * sin_pi_h ** -4 * math.gamma(2.0 - h) / (
        math.gamma(1.5 - h) ** 2 * math.gamma(h)
    )
    d_sq = _d_sq(h)
    psi_scale = math.gamma(3.0 - 2.0 * h) / (c * math.gamma(1.5 - h) ** 2)
    return DoConstants(h=h, alpha_h=alpha, c_h=c, b_h=b, d_h_sq=d_sq, psi_scale=psi_scale)


def nu_t(t, c: DoConstants):
    """Volatility-of-volatility shape nu(t) = B_H * t^(H-1/2), at a time or
    at each of an array of times."""
    t_min = np.min(t)
    if t_min <= 0.0 and c.h != 0.5:
        raise ValueError(f"nu is singular at t <= 0 for H != 1/2, got t={t_min}")
    if t_min < 0.0:
        raise ValueError(f"time must be nonnegative, got t={t_min}")
    return c.b_h * t ** (c.h - 0.5)

