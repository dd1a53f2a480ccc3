"""Characteristic function of the log-return, expanded in the vol-of-vol.

The CF is assembled as exp(iux) * (z0 + xi*z1 + xi^2*z2) with x = 0 at
inception.  The zero order z0 is exponential-affine,

    z0(t) = exp[alpha(t) + gamma(t) sigma^2 + beta_bar(t) sigma v],

and is available in two independent modes: a closed-form coefficient set
("paper-closed-form") and the exact solution of the terminal-value ODEs
of the xi = 0 reduction ("affine-ode").  The two differ in their
correlation structure; the gap between them is measured, never hidden.

Corrections z1, z2 come from a Green's-function convolution: the v-state
diffuses on a transformed clock tau(t) under a heat kernel, the sigma-state
rides a transport factor, and the source operators Phi1, Phi2 are applied
by central differences at the source time.  The inner spatial integral J
has an adaptive-quadrature route and a quadratic-in-the-exponent closed
form (expansion at the substituted center).
"""

from __future__ import annotations

import bisect
import cmath
import functools
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .do_process import nu_t
from .model import AdolModel, m_t
from .numerics import QuadratureError, QuadratureSpec, exp_integral_e, integrate_adaptive

__all__ = [
    "CfCoefficients",
    "CorrectionConfig",
    "GreenPieces",
    "MethodError",
    "ResidualStats",
    "coeffs_paper",
    "coeffs_affine_ode",
    "cf_zero",
    "zero_order_fn",
    "green_pieces",
    "heat_kernel",
    "j_integral",
    "correction",
    "cf_total",
    "pde_residual",
]

MODE_PAPER = "paper-closed-form"
MODE_AFFINE = "affine-ode"

J_QUADRATURE = "quadrature"
J_QUAD_CENTER = "quadratic-at-center"


class MethodError(RuntimeError):
    """A closed-form route is inapplicable at this point; fall back to quadrature."""


def _variant(mode: str) -> str:
    if mode not in (MODE_PAPER, MODE_AFFINE):
        raise ValueError(f"unknown cf mode {mode!r}")
    return mode


@dataclass(frozen=True)
class CfCoefficients:
    """Coefficient functions of the exponential-affine zero order.

    All three vanish at t = T (terminal condition z(T) = 1).  The frequency
    u they were built for is carried along because the correction operators
    need it.
    """

    alpha: Callable[[float], complex]
    gamma: Callable[[float], complex]
    beta_bar: Callable[[float], complex]
    u: complex


@dataclass(frozen=True)
class CorrectionConfig:
    """Controls for the correction pipeline.

    sigma_step / v_step are relative central-difference steps for the
    source operators; quad drives the source-time quadrature; order
    truncates the expansion; mode selects the zero-order slices being
    perturbed.  hermite_n sizes the Gaussian rule over the auxiliary state
    and z2_panels the fixed grid of the nested first-order field.
    """

    sigma_step: float = 1e-3
    v_step: float = 1e-3
    quad: QuadratureSpec = QuadratureSpec(abs_tol=1e-10, rel_tol=1e-7, max_subdivisions=800)
    order: int = 1
    mode: str = MODE_AFFINE
    hermite_n: int = 12
    z2_panels: int = 10

    def __post_init__(self) -> None:
        # written so that NaN fails the comparison too
        if not (0.0 < self.sigma_step < math.inf and 0.0 < self.v_step < math.inf):
            raise ValueError("stencil steps must be positive and finite")
        if self.order not in (0, 1, 2):
            raise ValueError("order must be 0, 1, or 2")
        if self.hermite_n < 2:
            raise ValueError("hermite_n must be at least 2")
        if self.z2_panels < 2:
            raise ValueError("z2_panels must be at least 2")
        _variant(self.mode)


@dataclass(frozen=True)
class ResidualStats:
    max_abs: float
    mean_abs: float
    n_points: int


# --------------------------------------------------------------------------
# zero-order coefficients, closed-form mode
# --------------------------------------------------------------------------

def _unit_response(kappa: float, tau):
    """G = (1 - exp(-2 kappa tau)) / (2 kappa), or tau at kappa = 0: the
    solution of G' = 2 kappa G - 1, G(T) = 0, at time to maturity tau.
    Both modes' quadratic coefficients are multiples of it.  Accepts arrays."""
    if kappa == 0.0:
        return tau
    return -np.expm1(-2.0 * kappa * tau) / (2.0 * kappa)


def coeffs_paper(u: complex, model: AdolModel) -> CfCoefficients:
    """Closed-form coefficient set; requires H < 1/2 (1/nu(0) = 0 there)."""
    if model.h >= 0.5:
        raise ValueError("closed-form beta_bar is defined only for H < 1/2")
    u = complex(u)
    c = model.constants
    kappa, rho, T = model.kappa, model.rho, model.t_mat
    r_minus_q = model.r - model.q
    g_amp = u * (1.0 + u * (1.0 - rho) ** 2)

    def alpha(t: float) -> complex:
        return -1j * u * r_minus_q * (t - T)

    def gamma(t: float) -> complex:
        return -0.5 * g_amp * _unit_response(kappa, T - t)

    # primitive of (kappa + m(s))/nu(s); plain power laws since m is one
    e1 = 1.5 - c.h
    e2 = 1.5 - c.h + model.m_pi

    def _ikm(s: float) -> float:
        return (kappa * s ** e1 / e1 + model.m_rho * s ** e2 / e2) / c.b_h

    inv_nu_T = 1.0 / nu_t(T, c)

    def beta_bar(t: float) -> complex:
        inv_nu_t = 0.0 if t == 0.0 else 1.0 / nu_t(t, c)
        return 1j * rho * u * (
            math.exp(kappa * (t - T)) * inv_nu_T - inv_nu_t - (_ikm(t) - _ikm(T))
        )

    return CfCoefficients(alpha=alpha, gamma=gamma, beta_bar=beta_bar, u=u)


# --------------------------------------------------------------------------
# zero-order coefficients, affine-ode mode
# --------------------------------------------------------------------------

def coeffs_affine_ode(u: complex, model: AdolModel) -> CfCoefficients:
    """Independently derived coefficient set from the xi = 0 reduction.

    The exponential-affine substitution turns the xi = 0 pricing equation
    into terminal-value ODEs: the cross coefficient closes at exactly
    zero, the drift coefficient integrates a constant, and the quadratic
    coefficient is -u(u+i)/2 times the unit-forcing response G of
    G' = 2 kappa G - 1, G(T) = 0, solved exactly.  Only G is shared with
    the closed-form mode, whose amplitude and cross coefficient differ, so
    the result can arbitrate it; the PDE residual checks G independently.
    """
    u = complex(u)
    drift = 1j * u * (model.r - model.q)
    scale = -0.5 * u * (1j + u)
    kappa, T = model.kappa, model.t_mat

    def alpha(t: float) -> complex:
        return drift * (T - t)

    def gamma(t: float) -> complex:
        return scale * _unit_response(kappa, T - t)

    def zero(t: float) -> complex:
        return 0.0 + 0.0j

    return CfCoefficients(alpha=alpha, gamma=gamma, beta_bar=zero, u=u)


def _coeffs_for(u: complex, model: AdolModel, mode: str) -> CfCoefficients:
    if _variant(mode) == MODE_PAPER:
        return coeffs_paper(u, model)
    return coeffs_affine_ode(u, model)


def cf_zero(u: complex, model: AdolModel, mode: str = MODE_AFFINE) -> complex:
    """Zero-order CF value at inception (x = 0)."""
    co = _coeffs_for(u, model, mode)
    return _cf_zero_from(co, model)


def _cf_zero_from(co: CfCoefficients, model: AdolModel) -> complex:
    s0, v0 = model.sigma0, model.v0
    expo = co.alpha(0.0) + co.gamma(0.0) * s0 * s0 + co.beta_bar(0.0) * s0 * v0
    return cmath.exp(expo)


def zero_order_fn(u: complex, model: AdolModel,
                  mode: str = MODE_AFFINE) -> Callable[[float, float, float], complex]:
    """The zero-order solution as a function of (t, sigma, v), for residual checks."""
    co = _coeffs_for(u, model, mode)

    def fn(t: float, sigma: float, v: float) -> complex:
        return cmath.exp(co.alpha(t) + co.gamma(t) * sigma * sigma
                         + co.beta_bar(t) * sigma * v)

    return fn


# --------------------------------------------------------------------------
# Green machinery
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class GreenPieces:
    """Transformed-clock pieces for the convolution pipeline.

    tau is quadrature-backed and authoritative; tau_closed is the
    exponential-integral form kept for comparison (tau_closed_gap is their
    max relative gap on a probe grid).  a1 takes the frequency as a second
    argument because the transport coefficient is linear in u.
    """

    tau: Callable[[float], float]
    alpha1: Callable[[float], float]
    t_of_tau: Callable[[float], float]
    a1: Callable[..., complex]
    g_jac: Callable[[float], float]
    a1_int: Callable[[float], float]
    tau_closed: Callable[[float], float]
    tau_closed_gap: float
    t_mat: float


class _PowerCurve:
    """Hermite interpolant whose first segment [0, t1] follows a power law,
    matching the integrable endpoint singularity of the integrand."""

    __slots__ = ("knots", "vals", "ders", "v0", "p0")

    def __init__(self, knots, vals, ders, v0, p0):
        self.knots = list(knots)
        self.vals = vals
        self.ders = ders
        self.v0 = v0
        self.p0 = p0

    def __call__(self, t: float) -> float:
        k = self.knots
        if t < -1e-15:
            raise ValueError(f"time must be nonnegative, got {t}")
        if t <= 0.0:
            return self.v0
        if t >= k[-1]:
            if t > k[-1] * (1.0 + 1e-12) + 1e-15:
                raise ValueError(f"time {t} beyond the cached horizon {k[-1]}")
            return self.vals[-1]
        if t < k[0]:
            return self.v0 + (self.vals[0] - self.v0) * (t / k[0]) ** self.p0
        j = bisect.bisect_right(k, t) - 1
        h = k[j + 1] - k[j]
        s = (t - k[j]) / h
        s2, s3 = s * s, s * s * s
        return ((2 * s3 - 3 * s2 + 1) * self.vals[j]
                + (s3 - 2 * s2 + s) * h * self.ders[j]
                + (-2 * s3 + 3 * s2) * self.vals[j + 1]
                + (s3 - s2) * h * self.ders[j + 1])


@functools.lru_cache(maxsize=16)
def _green_build(model: AdolModel) -> GreenPieces:
    if model.h >= 0.5:
        raise ValueError("green machinery requires H < 1/2")
    c = model.constants
    T = model.t_mat
    kappa = model.kappa
    p_exp = 1.0 + model.m_pi
    m_scale = model.m_rho / p_exp

    def alpha1(t: float) -> float:
        return math.exp(-m_scale * (T ** p_exp - t ** p_exp))

    def neg_dtau(t: float) -> float:
        n = nu_t(t, c)
        a = alpha1(t)
        return 0.5 * n * n * a * a

    def a1_unit(t: float) -> float:
        n = nu_t(t, c)
        n_prime = c.b_h * (c.h - 0.5) * t ** (c.h - 1.5)
        a = alpha1(t)
        return 2.0 * (n * (kappa + m_t(t, model)) + n_prime) / n ** 4 \
            * math.exp(-kappa * t) / (a * a)

    # graded knots cluster near the singular origin
    n_knots = 400
    grading = 2.5
    knots = [T * (j / n_knots) ** grading for j in range(1, n_knots + 1)]
    spec = QuadratureSpec(abs_tol=1e-13, rel_tol=1e-11, max_subdivisions=4000)

    def _panel(f, a, b):
        return integrate_adaptive(f, a, b, spec).real

    tau_first = _panel(neg_dtau, 0.0, knots[0])
    tau_panels = [_panel(neg_dtau, knots[j], knots[j + 1]) for j in range(n_knots - 1)]
    tau_vals = [0.0] * n_knots
    acc = 0.0
    for j in range(n_knots - 2, -1, -1):
        acc += tau_panels[j]
        tau_vals[j] = acc
    tau_at_zero = tau_vals[0] + tau_first
    tau_ders = [-neg_dtau(t) for t in knots]
    tau_curve = _PowerCurve(knots, tau_vals, tau_ders, tau_at_zero, 2.0 * c.h)

    a1_first = _panel(a1_unit, 0.0, knots[0])
    a1_vals = [a1_first]
    for j in range(n_knots - 1):
        a1_vals.append(a1_vals[-1] + _panel(a1_unit, knots[j], knots[j + 1]))
    a1_ders = [a1_unit(t) for t in knots]
    a1_curve = _PowerCurve(knots, a1_vals, a1_ders, 0.0, 1.5 - 3.0 * c.h)

    def tau(t: float) -> float:
        return tau_curve(t)

    def a1_int(x: float) -> float:
        return a1_curve(x)

    def a1(t: float, u: complex = 1.0) -> complex:
        return 1j * model.rho * u * a1_unit(t)

    def g_jac(t: float) -> float:
        return -1.0 / neg_dtau(t)

    def t_of_tau(tv: float) -> float:
        if tv < -1e-12 or tv > tau_at_zero + 1e-12:
            raise ValueError(
                f"tau value {tv} outside the invertible range [0, {tau_at_zero}]")
        lo, hi = 0.0, T
        f_lo = tau_at_zero - tv
        for _ in range(200):
            if hi - lo <= 1e-13 * max(1.0, T):
                break
            mid = 0.5 * (lo + hi)
            f_mid = tau_curve(mid) - tv
            if (f_mid > 0.0) == (f_lo > 0.0):
                lo, f_lo = mid, f_mid
            else:
                hi = mid
        return 0.5 * (lo + hi)

    def tau_closed(t: float) -> float:
        # exponential-integral form; imaginary parts of the two E terms
        # cancel exactly in the difference, the residue is roundoff
        if t <= 0.0 or t > T * (1.0 + 1e-12):
            raise ValueError("closed-form tau needs t in (0, T]")
        b_sq = c.b_h * c.b_h
        if abs(model.m_rho) < 1e-14:
            return b_sq * (T ** (2 * c.h) - t ** (2 * c.h)) / (4.0 * c.h)
        order = 1.0 - 2.0 * c.h / p_exp
        zt = -m_scale * t ** p_exp
        zT = -m_scale * T ** p_exp
        bracket = (t ** (2 * c.h) * exp_integral_e(order, zt)
                   - T ** (2 * c.h) * exp_integral_e(order, zT))
        val = b_sq / (2.0 * p_exp) * math.exp(zT) * bracket
        return val.real

    probe = np.linspace(0.02 * T, T, 40)
    gap = 0.0
    for t in probe:
        q = tau_curve(float(t))
        cl = tau_closed(float(t))
        gap = max(gap, abs(cl - q) / max(abs(q), 1e-30))

    return GreenPieces(tau=tau, alpha1=alpha1, t_of_tau=t_of_tau, a1=a1,
                       g_jac=g_jac, a1_int=a1_int, tau_closed=tau_closed,
                       tau_closed_gap=gap, t_mat=T)


def green_pieces(model: AdolModel) -> GreenPieces:
    return _green_build(model)


def heat_kernel(s: float, s_prime: float, tau: float) -> float:
    """Gaussian kernel with variance 2*tau; integrates to 1 over s_prime."""
    if tau <= 0.0:
        raise ValueError(f"kernel time must be positive, got {tau}")
    d = s - s_prime
    return math.exp(-d * d / (4.0 * tau)) / (2.0 * math.sqrt(math.pi * tau))


# --------------------------------------------------------------------------
# the inner spatial integral J
# --------------------------------------------------------------------------

def _convolve_slice(fn: Callable[[float], complex], center: float, w: float,
                    quad: QuadratureSpec, pole: float | None = None,
                    pv: bool = False) -> complex:
    """integral of fn(x) exp(x - (x-center)^2/(4w)) over the line.

    Completing the square gives a Gaussian of mean center + 2w and variance
    2w; the window is cut at 14 standard deviations.  An interior pole can
    either be a plain panel break (integrand continuous there) or, with
    pv=True, excluded by a symmetric window shrunk geometrically until the
    principal value stabilizes.
    """
    if w <= 0.0:
        raise ValueError("convolution width must be positive")
    mean = center + 2.0 * w
    half = 14.0 * math.sqrt(2.0 * w)
    lo, hi = mean - half, mean + half

    def g(x: float) -> complex:
        d = x - center
        return fn(x) * cmath.exp(x - d * d / (4.0 * w))

    if pole is None or not lo < pole < hi:
        return integrate_adaptive(g, lo, hi, quad)

    if not pv:
        return integrate_adaptive(g, lo, pole, quad) + integrate_adaptive(g, pole, hi, quad)

    delta0 = 0.25 * min(math.sqrt(2.0 * w), pole - lo, hi - pole)
    prev = None
    delta = delta0
    best = 0.0 + 0.0j
    for _ in range(14):
        val = integrate_adaptive(g, lo, pole - delta, quad) \
            + integrate_adaptive(g, pole + delta, hi, quad)
        if prev is not None and abs(val - prev) <= max(quad.abs_tol,
                                                       10.0 * quad.rel_tol * abs(val)):
            return val
        prev = best = val
        delta *= 0.25
    raise QuadratureError("principal-value exclusion did not stabilize",
                          estimate=best, error_bound=abs(best - (prev or 0.0)))


def _j_k_value(omega: complex, chi: float, model: AdolModel, green: GreenPieces,
               coeffs: CfCoefficients) -> complex:
    a = green.alpha1(chi)
    return coeffs.gamma(chi) * a * a * omega * math.exp(-model.kappa * chi)


def j_integral(s_center: float, omega: complex, chi: float, model: AdolModel,
               green: GreenPieces, coeffs: CfCoefficients,
               method: str = J_QUADRATURE, t0: float = 0.0,
               quad: QuadratureSpec | None = None) -> complex:
    """The spatial integral of the first-order convolution at source time chi.

    s_center is the substituted kernel center, omega the transported state.
    The integrand is exp[k/(x - 2 chi)^2 + x - (x - s_center)^2/(4 (chi - t0))].
    """
    if not t0 < chi <= green.t_mat * (1.0 + 1e-12):
        raise ValueError(f"source time {chi} outside ({t0}, {green.t_mat}]")
    w = chi - t0
    k = _j_k_value(omega, chi, model, green, coeffs)
    pole = 2.0 * chi

    if method == J_QUADRATURE:
        if quad is None:
            quad = QuadratureSpec(abs_tol=1e-12, rel_tol=1e-9, max_subdivisions=4000)
        if k == 0.0:
            return _convolve_slice(lambda x: 1.0 + 0.0j, s_center, w, quad)
        if k.real > 0.0:
            raise ValueError(
                "divergent spatial integrand: Re k > 0 at the pole; "
                "use a quadratic closed form on damped contours")

        def fn(x: float) -> complex:
            d = x - pole
            if d == 0.0:
                return 0.0 + 0.0j  # Re k < 0: the essential singularity damps to zero
            return cmath.exp(k / (d * d))

        oscillatory = k.real == 0.0
        return _convolve_slice(fn, s_center, w, quad, pole=pole, pv=oscillatory)

    if method == J_QUAD_CENTER:
        x = s_center - pole
        if x == 0.0:
            raise MethodError("expansion center sits on the pole; use the quadrature method")
        a0 = s_center + k / x ** 2
        a1 = 1.0 - 2.0 * k / x ** 3
        a2 = -1.0 / (4.0 * w) + 3.0 * k / x ** 4
        return _gaussian_from_quadratic(a0, a1, a2)

    raise ValueError(f"unknown j method {method!r}")


def _gaussian_from_quadratic(a0: complex, a1: complex, a2: complex) -> complex:
    if complex(a2).real >= 0.0:
        raise MethodError("quadratic exponent has a2 >= 0; use the quadrature method")
    a0, a1, a2 = complex(a0), complex(a1), complex(a2)
    try:
        return cmath.sqrt(math.pi / -a2) * cmath.exp(a0 - a1 * a1 / (4.0 * a2))
    except OverflowError as exc:
        # expansion center too close to the pole: the quadratic is meaningless
        raise MethodError("quadratic exponent out of float range; "
                          "use the quadrature method") from exc


# --------------------------------------------------------------------------
# corrections
# --------------------------------------------------------------------------
#
# The perturbation sources are integrated against the exact flow of the
# unperturbed generator: sigma rides a deterministic exponential ray, the
# auxiliary state stays Gaussian with a complex mean shift induced by the
# spot correlation, and the reaction term integrates along the ray in
# closed form.  Propagating the terminal condition through this flow
# reproduces the affine zero order identically, which pins every
# normalization.  An assembly routed through the spatial J-integral above
# inflates the first-order coefficient by the transformed-variable
# exponential and cannot stay inside |cf| <= 1, so the J routes serve as
# standalone diagnostics (see the figure commands) while the corrections
# ride the flow.

@functools.lru_cache(maxsize=None)
def _hermite_rule(n: int) -> tuple[np.ndarray, np.ndarray]:
    x, w = np.polynomial.hermite.hermgauss(n)
    return x, w / math.sqrt(math.pi)


def _m_cum(t, model: AdolModel):
    """Integral of the reversion speed m from 0 to t; accepts arrays."""
    p = 1.0 + model.m_pi
    return model.m_rho * t ** p / p


def _tanh_sinh(h: float, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Tanh-sinh rule on [0, 1] (Takahasi & Mori) at nodes k h, |k| <= n.

    Returns (x, 1 - x, w).  Both distances to the ends are formed directly,
    so the nodes crowding either end keep their full relative precision.
    """
    kh = h * np.arange(-n, n + 1)
    s = 0.5 * math.pi * np.sinh(kh)
    w = 0.25 * math.pi * h * np.cosh(kh) / np.cosh(s) ** 2
    return 1.0 / (1.0 + np.exp(-2.0 * s)), 1.0 / (1.0 + np.exp(2.0 * s)), w


# time rule of z1 at a point: step 0.15 over |k h| <= 3.2, built at the
# halved step; its even nodes are the step-0.15 rule, every fourth the 0.3 one
_Z1_RULE = _tanh_sinh(0.075, 42)


@functools.lru_cache(maxsize=32)
def _flow_tables(model: AdolModel) -> Callable:
    """Cumulative transforms of the auxiliary-state flow,

        e_damp(s) = int_0^s exp(M(r) - kappa r) nu(r) dr
        f_quad(s) = int_0^s exp(2 M(r)) nu(r)^2 dr

    with M the cumulative reversion speed.  The returned function evaluates
    both at an array of s by one tanh-sinh rule in y, r = s y^(1/2H):
    the substitution makes every integrand regular at r = 0, so the values
    are exact to rounding and analytic in s.  Both enter only through
    differences, so one function per model covers every (t, s) pair.
    """
    q = 0.5 / model.h
    x, _, w = _tanh_sinh(3.2 / 60, 60)
    y = x ** q
    keep = y > 0.0  # very rough H underflows the outermost nodes
    y, w = y[keep], (q * x ** (q - 1.0) * w)[keep]

    def tables(s) -> tuple[np.ndarray, np.ndarray]:
        s = np.asarray(s, dtype=float)
        r = s[..., None] * y
        enu = np.exp(_m_cum(r, model)) * model.constants.b_h * r ** (model.h - 0.5)
        return (enu * np.exp(-model.kappa * r)) @ w * s, (enu * enu) @ w * s

    return tables


def _flow_state(model: AdolModel, u: complex, tables: Callable, t: float,
                sigma, v, chis: np.ndarray, x_h: np.ndarray, at_t=None):
    """The exact zero-order flow from states (sigma, v) at t to each chi.

    Returns the sigma ray, the Gaussian rule over the auxiliary state (its
    mean carries the complex correlation shift) and the reaction term
    integrated along the ray in closed form.  The states broadcast against
    each other; the results gain a trailing time axis, the nodes one more.
    at_t, if given, is tables(t), for callers that start many flows at t.
    """
    kap = model.kappa
    sigma = np.asarray(sigma, dtype=float)[..., None]
    v = np.asarray(v, dtype=complex)[..., None]
    dt = chis - t
    ms = _m_cum(chis, model)
    e_damp, f_quad = tables(chis)
    if t > 0.0:
        if at_t is None:
            at_t = tables(t)
        e_damp, f_quad = e_damp - at_t[0], f_quad - at_t[1]
    shift = sigma * math.exp(kap * t) * e_damp
    mean = np.exp(_m_cum(t, model) - ms) * v + 1j * u * model.rho * np.exp(-ms) * shift
    var = np.maximum(np.exp(-2.0 * ms) * f_quad, 0.0)
    nodes = mean[..., None] + np.sqrt(2.0 * var)[..., None] * x_h
    sig2 = sigma * sigma * _unit_response(kap, dt)
    pref = np.exp(1j * u * (model.r - model.q) * dt - 0.5 * u * (u + 1j) * sig2)
    return sigma * np.exp(-kap * dt), nodes, pref


def _z0_slices(co: CfCoefficients, chis: np.ndarray):
    """z0 at each time chi as a function of (sigma, v) arrays whose second
    to last axis runs over chis.

    Where beta_bar is zero at every chi (always so in affine-ode mode), z0
    does not depend on v: the slice is then evaluated on sigma's shape
    alone and left for the caller's arithmetic to broadcast across v.  Its
    values equal the full evaluation's, whose cross term is an exact zero.
    The returned function's v_free attribute says which case holds.
    """
    a, g, b = (np.array([complex(f(c)) for c in chis])[:, None]
               for f in (co.alpha, co.gamma, co.beta_bar))

    if not b.any():
        def z0(s, v):
            return np.exp(a + g * s * s)
    else:
        def z0(s, v):
            return np.exp(a + g * s * s + b * s * v)

    z0.v_free = not b.any()
    return z0


def _nu_m(model: AdolModel, chis: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """nu and m at positive times, as columns against the Hermite axis."""
    nu = model.constants.b_h * chis ** (model.h - 0.5)
    return nu[:, None], (model.m_rho * chis ** model.m_pi)[:, None]


def _phi1_legs(s, v, hs, hv):
    """The points of the Phi1 stencil, in the order _stencil_phi1 reads:
    the two sigma legs, then, unless hv is None, the four mixed ones."""
    sp, sm = s + hs, s - hs
    if hv is None:
        return (sp, v), (sm, v)
    vp, vm = v + hv, v - hv
    return (sp, v), (sm, v), (sp, vp), (sp, vm), (sm, vp), (sm, vm)


def _stencil_phi1(f, nu, m, u: complex, rho: float, s, v, hs, hv):
    """xi-linear generator piece by central differences at the source point:
    nu^2 s d2/(ds dv) + (i u rho nu s - m v) s d/ds, from the values f of
    the operand at the _phi1_legs points.  Accepts arrays.

    hv = None marks an operand that does not depend on v (a v-free z0
    slice): its mixed difference f(s+,v+) - f(s+,v-) - f(s-,v+) + f(s-,v-)
    subtracts equal values and is an exact zero, so that term is skipped
    and f holds the two sigma legs only; the result equals the full
    stencil's.
    """
    f_s = (f[0] - f[1]) / (2.0 * hs)
    # (i u rho nu s - m v) s f_s built in place: a chain of full-size
    # temporaries made the heap grow and shrink on every call
    drift = m * v
    np.subtract(1j * u * rho * nu * s, drift, out=drift)
    drift *= s
    drift *= f_s
    if hv is None:
        return drift
    f_sv = (f[2] - f[3] - f[4] + f[5]) / (4.0 * hs * hv)
    return nu * nu * s * f_sv + drift


def _stencil_phi2(fn, nu, s, v, hs):
    """xi^2 generator piece: (1/2) nu^2 s^2 d2/ds2, central differences."""
    f_ss = (fn(s + hs, v) - 2.0 * fn(s, v) + fn(s - hs, v)) / (hs * hs)
    return 0.5 * nu * nu * s * s * f_ss


def _steps(cfg: "CorrectionConfig", s, nodes):
    """Relative stencil steps in sigma and v; no v step for nodes = None."""
    hv = None if nodes is None else cfg.v_step * np.maximum(1.0, np.abs(nodes))
    return cfg.sigma_step * np.maximum(1.0, np.abs(s)), hv


def _z1_integrand(model: AdolModel, co: CfCoefficients, cfg: "CorrectionConfig",
                  tables: Callable, t: float, sigma, v,
                  chis: np.ndarray, at_t=None) -> np.ndarray:
    """The first-order integrand: the source Phi1 z0 at each time chi in
    (t, T], carried back along the flow to the states (sigma, v) at t.

    Vectorised over (state, time node, Hermite node); the states broadcast
    against each other, and the result has their shape plus a trailing
    time axis.  at_t is passed on to _flow_state.  On a v-free z0 slice
    (affine-ode mode) the stencil's mixed difference is an exact zero, so
    neither it nor the v steps over the Hermite nodes are formed.
    """
    x_h, w_h = _hermite_rule(cfg.hermite_n)
    s_tr, nodes, pref = _flow_state(model, co.u, tables, t, sigma, v, chis, x_h, at_t)
    s_tr = s_tr[..., None]
    z0 = _z0_slices(co, chis)
    hs, hv = _steps(cfg, s_tr, None if z0.v_free else nodes)
    nu, m = _nu_m(model, chis)
    src = _stencil_phi1([z0(a, b) for a, b in _phi1_legs(s_tr, nodes, hs, hv)],
                        nu, m, co.u, model.rho, s_tr, nodes, hs, hv)
    return pref * (src @ w_h)


def _z1_value(model: AdolModel, co: CfCoefficients, cfg: "CorrectionConfig",
              tables: Callable) -> complex:
    """z1 at inception by tanh-sinh quadrature over the source time.

    The difference between the step-h rule and its even nodes (the step-2h
    rule) bounds the error at no extra cost.  When that misses cfg.quad,
    the step is halved once; if the halved rule still misses, the
    estimate is refused.
    """
    T = model.t_mat
    x, xc, w = _Z1_RULE
    k = np.arange(len(w)) - len(w) // 2
    chis = np.where(k < 0, T * x, T - T * xc)
    w = T * w
    tol = cfg.quad

    def integral_terms(nodes: np.ndarray) -> np.ndarray:
        return _z1_integrand(model, co, cfg, tables, 0.0, model.sigma0, model.v0, nodes)

    even = k % 2 == 0
    f_even = integral_terms(chis[even])
    fine = 2.0 * complex(f_even @ w[even])
    coarse = 4.0 * complex(f_even[k[even] % 4 == 0] @ w[k % 4 == 0])
    if abs(fine - coarse) <= max(tol.abs_tol, tol.rel_tol * abs(fine)):
        return fine
    finer = 0.5 * fine + complex(integral_terms(chis[~even]) @ w[~even])
    err = abs(finer - fine)
    if err <= max(tol.abs_tol, tol.rel_tol * abs(finer)):
        return finer
    raise QuadratureError("tanh-sinh rule for z1 missed its tolerance at the halved step",
                          estimate=finer, error_bound=err)


def _power_nodes(lo: float, hi: float, h: float, n_pan: int,
                 gl_n: int) -> tuple[np.ndarray, np.ndarray]:
    """Panel Gauss-Legendre nodes for time integrals carrying nu powers.

    In z = chi^{2h} the endpoint factors nu^2 ~ chi^{2h-1} and
    nu ~ chi^{h-1/2} become regular at chi = 0 for every h < 1/2; h = 1/2
    is the identity map.  The Hermite spread sqrt(var) ~ chi^h = z^{1/2}
    stays singular, so the panels converge only algebraically: the
    second-order term at u = 5 moves the CF by 0, 6.2e-9 and 9.8e-9 at 10,
    20 and 40 panels against 1.3e-8 converged.
    """
    p = 2.0 * h
    beta = 1.0 / p
    gx, gw = np.polynomial.legendre.leggauss(gl_n)
    z_edges = np.linspace(lo ** p, hi ** p, n_pan + 1)
    mid = 0.5 * (z_edges[1:] + z_edges[:-1])
    half = 0.5 * (z_edges[1:] - z_edges[:-1])
    z = (mid[:, None] + half[:, None] * gx).ravel()
    w = (half[:, None] * gw).ravel()
    return z ** beta, w * beta * z ** (beta - 1.0)


def _z2_point(model: AdolModel, co: CfCoefficients, cfg: "CorrectionConfig",
              tables: Callable) -> complex:
    # fixed substituted panels on both time axes: the whole term enters at
    # xi^2, and the cf pins admit only the panel value (see _power_nodes)
    T = model.t_mat
    x_h, w_h = _hermite_rule(cfg.hermite_n)
    chis, wts = _power_nodes(0.0, T, model.h, cfg.z2_panels + 6, 10)
    s_tr, nodes, pref = _flow_state(model, co.u, tables, 0.0, model.sigma0,
                                    model.v0, chis, x_h)
    s_tr = s_tr[:, None]
    hs, hv = _steps(cfg, s_tr, nodes)
    nu, m = _nu_m(model, chis)
    # a v-free slice leaves Phi2 z0 without the node axis the z1 field needs
    src = np.broadcast_to(_stencil_phi2(_z0_slices(co, chis), nu, s_tr, nodes, hs),
                          nodes.shape).copy()
    nh = len(x_h)
    for j, chi in enumerate(chis):
        sj, hsj, hvj, vj = s_tr[j, 0], hs[j, 0], hv[j], nodes[j]
        # the z1 field at the six stencil legs, as a grid of the two sigma
        # legs by the three v legs: the sigma-only work runs on 2 states
        sg = np.array([[sj + hsj], [sj - hsj]])
        vg = np.concatenate([vj + hvj, vj - hvj, vj])[None, :]
        inner, iw = _power_nodes(chi, T, model.h, cfg.z2_panels, 8)
        at_chi = tables(chi)
        # one 8-node panel per call: larger blocks measured slower end to end
        z1g = sum(_z1_integrand(model, co, cfg, tables, chi, sg, vg, inner[i:i + 8], at_chi)
                  @ iw[i:i + 8] for i in range(0, len(inner), 8))
        (sp_vp, sp_vm, sp_v), (sm_vp, sm_vm, sm_v) = z1g.reshape(2, 3, nh)
        src[j] += _stencil_phi1([sp_v, sm_v, sp_vp, sp_vm, sm_vp, sm_vm], nu[j], m[j],
                                co.u, model.rho, sj, vj, hsj, hvj)
    return complex(wts @ (pref * (src @ w_h)))


def correction(order: int, u: complex, model: AdolModel,
               cfg: CorrectionConfig | None = None) -> complex:
    """The order-1 or order-2 term of the CF expansion, at inception."""
    if order not in (1, 2):
        raise ValueError("correction order must be 1 or 2")
    if model.h >= 0.5:
        raise ValueError("correction pipeline requires H < 1/2")
    cfg = cfg or CorrectionConfig()
    co = _coeffs_for(complex(u), model, cfg.mode)
    tables = _flow_tables(model)
    if order == 1:
        return _z1_value(model, co, cfg, tables)
    return _z2_point(model, co, cfg, tables)


def cf_total(u: complex, model: AdolModel,
             cfg: CorrectionConfig | None = None) -> complex:
    """CF of the log-return ln(S_T/S_0), truncated at cfg.order in xi."""
    cfg = cfg or CorrectionConfig()
    co = _coeffs_for(u, model, cfg.mode)
    z = _cf_zero_from(co, model)
    if model.xi != 0.0 and cfg.order >= 1:
        if model.h >= 0.5:
            raise ValueError("correction pipeline requires H < 1/2")
        if u == 0:
            return z  # every CF is 1 at u = 0: z0 is 1 and both corrections 0
        tables = _flow_tables(model)
        z = z + model.xi * _z1_value(model, co, cfg, tables)
        if cfg.order >= 2:
            z = z + model.xi ** 2 * _z2_point(model, co, cfg, tables)
    return z


# --------------------------------------------------------------------------
# PDE residual validator
# --------------------------------------------------------------------------

def pde_residual(cf_fn: Callable[[float, float, float], complex], u: complex,
                 model: AdolModel, sample_points: Sequence[tuple[float, float, float]],
                 rel_step: float = 2e-4) -> ResidualStats:
    """Finite-difference residual of the pricing equation for z(t, sigma, v).

    Every term is built from central differences; per point the absolute
    residual is normalized by the largest single term so the statistic is
    scale-free.
    """
    u = complex(u)
    c = model.constants
    kappa, xi, rho = model.kappa, model.xi, model.rho
    max_r, sum_r = 0.0, 0.0
    for (t, s, v) in sample_points:
        ht = rel_step * max(1.0, abs(t))
        hs = rel_step * max(1.0, abs(s))
        hv = rel_step * max(1.0, abs(v))
        if t - ht <= 0.0:
            raise ValueError(f"sample point t={t} too close to the origin for step {ht}")
        z = cf_fn(t, s, v)
        z_t = (cf_fn(t + ht, s, v) - cf_fn(t - ht, s, v)) / (2.0 * ht)
        z_up, z_dn = cf_fn(t, s + hs, v), cf_fn(t, s - hs, v)
        z_ss = (z_up - 2.0 * z + z_dn) / (hs * hs)
        z_s = (z_up - z_dn) / (2.0 * hs)
        z_vp, z_vm = cf_fn(t, s, v + hv), cf_fn(t, s, v - hv)
        z_vv = (z_vp - 2.0 * z + z_vm) / (hv * hv)
        z_v = (z_vp - z_vm) / (2.0 * hv)
        z_sv = (cf_fn(t, s + hs, v + hv) - cf_fn(t, s + hs, v - hv)
                - cf_fn(t, s - hs, v + hv) + cf_fn(t, s - hs, v - hv)) / (4.0 * hs * hv)
        nu = nu_t(t, c)
        m = m_t(t, model)
        terms = (
            z_t,
            0.5 * xi * xi * nu * nu * s * s * z_ss,
            0.5 * nu * nu * z_vv,
            xi * nu * nu * s * z_sv,
            (-(kappa + xi * m * v) + 1j * u * rho * xi * nu * s) * s * z_s,
            (1j * u * rho * nu * s - m * v) * z_v,
            (-0.5 * u * (1j + u) * s * s + 1j * u * (model.r - model.q)) * z,
        )
        scale = max(abs(term) for term in terms)
        res = abs(sum(terms)) / max(scale, 1e-300)
        max_r = max(max_r, res)
        sum_r += res
    n = len(sample_points)
    return ResidualStats(max_abs=max_r, mean_abs=sum_r / max(n, 1), n_points=n)
