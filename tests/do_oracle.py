"""The Gaussian driver's covariances and exact path simulators, kept as a
test oracle.

adol.do_process ships what the product reads of the projection: its
closed-form constants and the amplitude nu(t).  The martingale M, the
rescaled V(t) = psi(t) M(t) and the fractional Brownian motion that V
tracks are simulated here from their exact laws, on a strictly increasing
1-d array of positive times, to check those constants.
"""

from __future__ import annotations

import math

import numpy as np

from adol.do_process import DoConstants


def beta_sym(x: float) -> float:
    """B(x, x) = Gamma(x)^2 / Gamma(2x) for x > 0."""
    if not x > 0.0:
        raise ValueError("beta_sym requires x > 0")
    return math.gamma(x) ** 2 / math.gamma(2.0 * x)


def psi_h(t: float, c: DoConstants) -> float:
    """Deterministic envelope psi(t) = psi_scale * t^(2H-1)."""
    if t <= 0.0 and c.h < 0.5:
        raise ValueError(f"psi is singular at t <= 0 for H < 1/2, got t={t}")
    return c.psi_scale * t ** (2.0 * c.h - 1.0)


def cov_m(s: float, t: float, c: DoConstants) -> float:
    """Covariance of the independent-increment martingale at times (s, t)."""
    if s < 0.0 or t < 0.0:
        raise ValueError("times must be nonnegative")
    return c.c_h * c.alpha_h * beta_sym(1.5 - c.h) * min(s, t) ** (2.0 - 2.0 * c.h)


def cov_fbm(s, t, h: float):
    """Fractional Brownian motion covariance (1/2)(t^2H + s^2H - |t-s|^2H);
    arrays broadcast."""
    hh = 2.0 * h
    return 0.5 * (abs(t) ** hh + abs(s) ** hh - abs(t - s) ** hh)


def _normals(seed: int, shape: tuple[int, ...]) -> np.ndarray:
    # a pure function of the seed and the shape.  Row-major fill: path j's
    # draws depend on the path count in simulate_mh's (n_times, n_paths)
    # layout, and not in simulate_fbm_exact's (n_paths, n_times)
    return np.random.Generator(np.random.Philox(key=int(seed))).standard_normal(shape)


def simulate_mh(times: np.ndarray, c: DoConstants, n_paths: int, seed: int) -> np.ndarray:
    """Exact paths of M at the times, shape (n_paths, n_times): independent
    centred Gaussian increments of variance cov_m(t_i, t_i) - cov_m(t_{i-1},
    t_{i-1}), floored at 0 against roundoff."""
    var_level = np.array([cov_m(t, t, c) for t in times])
    inc_sd = np.sqrt(np.maximum(np.diff(var_level, prepend=0.0), 0.0))
    return np.cumsum(inc_sd[:, None] * _normals(seed, (len(times), n_paths)), axis=0).T


def simulate_vh(times: np.ndarray, c: DoConstants, n_paths: int, seed: int) -> np.ndarray:
    """Exact paths of V(t) = psi(t) M(t) at the times, shape (n_paths, n_times)."""
    return simulate_mh(times, c, n_paths, seed) * np.array([psi_h(t, c) for t in times])


def simulate_fbm_exact(times: np.ndarray, h: float, n_paths: int, seed: int) -> np.ndarray:
    """Exact fractional BM paths at the times by a Cholesky factor of their
    dense covariance, shape (n_paths, n_times)."""
    t = np.asarray(times, dtype=float)
    chol = np.linalg.cholesky(cov_fbm(t[:, None], t[None, :], h))
    return _normals(seed, (n_paths, len(t))) @ chol.T
