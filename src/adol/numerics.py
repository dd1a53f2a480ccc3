"""Self-contained numerics kernel.

Provides the handful of numerical tools the rest of the package is built
on: adaptive Gauss-Kronrod quadrature for
complex scalar or vector integrands, called once per panel on its nodes,
and the standard normal CDF.

All functions are pure; there is no module state.
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = ["QuadratureSpec", "QuadratureError", "integrate_adaptive", "norm_cdf"]


# ---------------------------------------------------------------------------
# specs and errors
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class QuadratureSpec:
    abs_tol: float
    rel_tol: float
    max_subdivisions: int

    def __post_init__(self):
        if not (self.abs_tol > 0.0 and self.rel_tol > 0.0):
            raise ValueError("quadrature tolerances must be positive")
        if self.max_subdivisions < 1:
            raise ValueError("max_subdivisions must be >= 1")


class QuadratureError(RuntimeError):
    """Raised when adaptive quadrature fails to meet its tolerance.

    Carries the best available estimate and the error bound at the point
    of failure so callers can decide whether to accept it anyway.
    """

    def __init__(self, message: str, estimate: complex = 0j, error_bound: float = math.inf):
        super().__init__(f"{message} (estimate={estimate!r}, error_bound={error_bound:.3e})")
        self.estimate = estimate
        self.error_bound = error_bound


# ---------------------------------------------------------------------------
# adaptive Gauss-Kronrod quadrature (7-15 pair)
# ---------------------------------------------------------------------------

_XGK = (
    0.9914553711208126,
    0.9491079123427585,
    0.8648644233597691,
    0.7415311855993944,
    0.5860872354676911,
    0.4058451513773972,
    0.2077849550078985,
    0.0,
)
_WGK = (
    0.0229353220105292,
    0.0630920926299785,
    0.1047900103222502,
    0.1406532597155259,
    0.1690047266392679,
    0.1903505780647854,
    0.2044329400752989,
    0.2094821410847278,
)
_WG = (
    0.1294849661688697,
    0.2797053914892767,
    0.3818300505051189,
    0.4179591836734694,
)
# the panel's 15 nodes on [-1, 1], ascending: -x_0 .. -x_6, 0, x_6 .. x_0
_GK_NODES = np.concatenate([-np.array(_XGK[:7]), [0.0], np.array(_XGK[6::-1])])


def _gk15(f: Callable[[np.ndarray], np.ndarray], a: float, b: float):
    """One Gauss-Kronrod 7-15 panel, f called once on its 15 nodes.
    Returns (estimate, error_bound) per entry."""
    half = 0.5 * (b - a)
    mid = 0.5 * (a + b)
    fx = f(mid + half * _GK_NODES)
    # a NaN or inf node gives a non-finite bound (unwarned), which `err > tol` lets pass
    with np.errstate(invalid="ignore", over="ignore"):
        # each node pair is summed first, then the pairs from the ends inward
        pairs = fx[:7] + fx[:7:-1]
        resk = _WGK[7] * fx[7]
        resg = _WG[3] * fx[7]
        for j in range(7):
            resk = resk + _WGK[j] * pairs[j]
            if j % 2 == 1:  # Kronrod nodes 1,3,5 are the Gauss-7 nodes
                resg = resg + _WG[j // 2] * pairs[j]
        resk = resk * half
        resg = resg * half
        err = np.maximum(abs(resk - resg), abs(resk) * 1e-16)
    if not math.isfinite(err.sum()):
        raise QuadratureError(f"integrand is not finite on the panel [{a}, {b}]")
    return resk, err


def integrate_adaptive(
    f: Callable[[np.ndarray], np.ndarray],
    a: float,
    b: float,
    spec: QuadratureSpec,
) -> complex | np.ndarray:
    """Adaptive bisection quadrature of a complex-valued f over [a, b], a < b.

    f is called once per Gauss-Kronrod panel, on the panel's 15 nodes as
    one array, and returns its values with the node axis first: an array
    of 15, or of 15 vectors.  A vector's entries share panels until each
    meets max(abs_tol, rel_tol |its total|); the result is then a vector.
    Endpoint power-law singularities of order > -1 are handled by
    subdivision toward the endpoint (the rule never samples a or b).
    Raises QuadratureError with the best estimate if the panel budget is
    exhausted before the tolerance is met, or naming the panel on which f
    is not finite.
    """
    if not a < b:
        raise ValueError(f"integrate_adaptive needs a < b, got [{a}, {b}]")
    est, err = _gk15(f, a, b)
    # panels rank by their worst entry's error over its tolerance at the first
    # estimate; with the scale fixed, a scalar f's panels rank by error alone
    scale = np.maximum(spec.abs_tol, spec.rel_tol * abs(est))
    # heap entries: (-scaled error, tie_breaker, a, b, estimate, error)
    heap = [(-(err / scale).max(), 0, a, b, est, err)]
    tie = itertools.count(1)
    total = est
    total_err = err
    while (total_err > np.maximum(spec.abs_tol, spec.rel_tol * abs(total))).any():
        if len(heap) >= spec.max_subdivisions:
            raise QuadratureError(
                "quadrature did not converge within the subdivision budget",
                estimate=total,
                error_bound=float(np.max(total_err)),
            )
        neg_key, _, pa, pb, pest, perr = heapq.heappop(heap)
        if neg_key == 0.0:
            # the worst remaining panel cannot be improved further
            raise QuadratureError(
                "quadrature stalled on machine-width panels",
                estimate=total,
                error_bound=float(np.max(total_err)),
            )
        pm = 0.5 * (pa + pb)
        if pm <= pa or pm >= pb:
            # panel collapsed to machine width; accept its estimate as-is
            heapq.heappush(heap, (0.0, next(tie), pa, pb, pest, perr))
            total_err = np.maximum(total_err - perr, 0.0)  # drop its error from the budget
            continue
        le, lerr = _gk15(f, pa, pm)
        re_, rerr = _gk15(f, pm, pb)
        # not in place: the heap holds the first panel's est and err
        total = total + (le + re_ - pest)
        total_err = total_err + (lerr + rerr - perr)
        heapq.heappush(heap, (-(lerr / scale).max(), next(tie), pa, pm, le, lerr))
        heapq.heappush(heap, (-(rerr / scale).max(), next(tie), pm, pb, re_, rerr))
    return complex(total) if np.ndim(total) == 0 else total


def norm_cdf(x: float) -> float:
    """Standard normal CDF via erfc, which keeps the lower tail to full
    relative precision: 1 + erf(x / sqrt 2) cancels there, to 0 at x = -9."""
    return 0.5 * math.erfc(-x / math.sqrt(2.0))
