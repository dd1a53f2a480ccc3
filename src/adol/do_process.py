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
import warnings
from dataclasses import dataclass

import numpy as np

from .numerics import beta_sym

__all__ = [
    "DoConstants",
    "TimeGrid",
    "do_constants",
    "psi_h",
    "cov_m",
    "cov_fbm",
    "nu_t",
    "simulate_mh",
    "simulate_vh",
    "simulate_fbm_exact",
]


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


def psi_h(t: float, c: DoConstants) -> float:
    """Deterministic envelope psi(t) = psi_scale * t^(2H-1)."""
    if t <= 0.0 and c.h < 0.5:
        raise ValueError(f"psi is singular at t <= 0 for H < 1/2, got t={t}")
    if t < 0.0:
        raise ValueError(f"time must be nonnegative, got t={t}")
    return c.psi_scale * t ** (2.0 * c.h - 1.0)


def cov_m(s: float, t: float, c: DoConstants) -> float:
    """Covariance of the independent-increment martingale at times (s, t)."""
    if s < 0.0 or t < 0.0:
        raise ValueError("times must be nonnegative")
    return c.c_h * c.alpha_h * beta_sym(1.5 - c.h) * min(s, t) ** (2.0 - 2.0 * c.h)


def cov_fbm(s: float, t: float, h: float) -> float:
    """Fractional Brownian motion covariance (1/2)(t^2H + s^2H - |t-s|^2H)."""
    if s < 0.0 or t < 0.0:
        raise ValueError("times must be nonnegative")
    hh = 2.0 * h
    return 0.5 * (abs(t) ** hh + abs(s) ** hh - abs(t - s) ** hh)


def nu_t(t: float, c: DoConstants) -> float:
    """Volatility-of-volatility shape nu(t) = B_H * t^(H-1/2)."""
    if t <= 0.0 and c.h != 0.5:
        raise ValueError(f"nu is singular at t <= 0 for H != 1/2, got t={t}")
    if t < 0.0:
        raise ValueError(f"time must be nonnegative, got t={t}")
    return c.b_h * t ** (c.h - 0.5)


# --------------------------------------------------------------------------
# simulation grids
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class TimeGrid:
    """Strictly increasing positive observation times.

    Must start strictly after 0: the envelope and nu are singular at the
    origin for H < 1/2.
    """

    times: np.ndarray

    def __post_init__(self) -> None:
        t = np.asarray(self.times, dtype=float)
        object.__setattr__(self, "times", t)
        if t.ndim != 1 or t.size == 0:
            raise ValueError("grid must be a nonempty 1-d array")
        if t[0] <= 0.0:
            raise ValueError(f"grid must start at t > 0, got t1={t[0]}")
        if np.any(np.diff(t) <= 0.0):
            raise ValueError("grid times must be strictly increasing")

    def __len__(self) -> int:
        return int(self.times.size)


def _normals(seed: int, shape: tuple[int, ...]) -> np.ndarray:
    # the draws are a pure function of the seed and the shape, so results do
    # not depend on the execution schedule.  Row-major fill: path j's draws
    # depend on the path count in the (n_times, n_paths) layout of
    # simulate_mh and simulate_vh, and not in simulate_fbm_exact's
    # (n_paths, n_times)
    gen = np.random.Generator(np.random.Philox(key=int(seed)))
    return gen.standard_normal(shape)


# --------------------------------------------------------------------------
# exact-law simulators
# --------------------------------------------------------------------------

def simulate_mh(grid: TimeGrid, c: DoConstants, n_paths: int, seed: int) -> np.ndarray:
    """Exact paths of the martingale M on `grid`, shape (n_paths, n_times).

    Increments are independent centered Gaussians with variance
    cov_m(t_i, t_i) - cov_m(t_{i-1}, t_{i-1}); there is no discretization
    error in this scheme.
    """
    if n_paths <= 0:
        raise ValueError("n_paths must be positive")
    t = grid.times
    var_level = np.array([cov_m(ti, ti, c) for ti in t])
    inc_var = np.diff(np.concatenate(([0.0], var_level)))
    # var levels are increasing in t, but guard against roundoff
    inc_sd = np.sqrt(np.maximum(inc_var, 0.0))
    z = _normals(seed, (len(t), n_paths))
    return np.cumsum(inc_sd[:, None] * z, axis=0).T


def simulate_vh(grid: TimeGrid, c: DoConstants, n_paths: int, seed: int) -> np.ndarray:
    """Exact paths of V(t) = psi(t) * M(t), shape (n_paths, n_times)."""
    m = simulate_mh(grid, c, n_paths, seed)
    psi = np.array([psi_h(ti, c) for ti in grid.times])
    return m * psi[None, :]


def simulate_fbm_exact(grid: TimeGrid, h: float, n_paths: int, seed: int) -> np.ndarray:
    """Exact fractional BM paths via dense covariance factorization.

    Intended for validation on modest grids (<= ~2000 points); cost is
    O(n^3) for the factorization plus O(n_paths * n^2) for the paths.
    """
    if n_paths <= 0:
        raise ValueError("n_paths must be positive")
    t = grid.times
    n = len(t)
    cov = np.empty((n, n))
    for i in range(n):
        for j in range(i + 1):
            cov[i, j] = cov[j, i] = cov_fbm(t[i], t[j], h)
    scale = float(np.max(np.diag(cov)))
    chol = None
    jitter = 0.0
    for jitter in (0.0, 1e-14 * scale, 1e-13 * scale, 1e-12 * scale):
        try:
            chol = np.linalg.cholesky(cov + jitter * np.eye(n))
            break
        except np.linalg.LinAlgError:
            continue
    if chol is None:
        smallest = float(np.min(np.linalg.eigvalsh(cov)))
        raise np.linalg.LinAlgError(
            f"covariance not numerically positive-definite even with 1e-12 jitter; "
            f"smallest eigenvalue {smallest:.3e}"
        )
    if jitter > 0.0:
        warnings.warn(f"fbm covariance factorization used diagonal jitter {jitter:.3e}",
                      stacklevel=2)
    z = _normals(seed, (n_paths, n))
    return z @ chol.T
