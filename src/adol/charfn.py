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
by central differences at the source time.  In affine-ode mode the flow's
expectation is taken from V's Gaussian mean and variance in closed form;
the paper mode takes it by a Hermite rule.  The inner spatial integral J
has an adaptive-quadrature route and a quadratic-in-the-exponent closed
form (expansion at the substituted center).
"""

from __future__ import annotations

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

    All three vanish at t = T (terminal condition z(T) = 1).  Each takes a
    time or an array of times; a coefficient that is one constant may
    return it as a scalar.  The frequency u they were built for is carried
    along because the correction operators need it.
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

    hermite_n and v_step act in paper-closed-form mode alone.  In affine-ode
    mode the corrections take V's Gaussian mean and variance in closed
    form, which the Gaussian rule integrates exactly, and the z1 field is
    linear in v, which the v difference differentiates exactly: neither
    field ever moved an affine value beyond rounding.
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

    # 1/nu(t) = t^(1/2-H) / B_H, which is 0 at t = 0 for H < 1/2
    inv_nu_T = T ** (0.5 - c.h) / c.b_h

    def beta_bar(t: float) -> complex:
        if np.any(np.less(t, 0.0)):
            raise ValueError(f"time must be nonnegative, got {t}")
        inv_nu_t = t ** (0.5 - c.h) / c.b_h
        return 1j * rho * u * (
            np.exp(kappa * (t - T)) * inv_nu_T - inv_nu_t - (_ikm(t) - _ikm(T))
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
# the law of V: sigma_t = L(t) e^(xi (V_t - v0)), V Gaussian
# --------------------------------------------------------------------------

def _m_cum(t, model: AdolModel):
    """Integral of the reversion speed m from 0 to t; accepts arrays."""
    p = 1.0 + model.m_pi
    return model.m_rho * t ** p / p


def _nu_sq_cum(t, model: AdolModel):
    """Integral of nu^2 from 0 to t, B_H^2 t^(2H) / (2H); accepts arrays."""
    c = model.constants
    return c.b_h * c.b_h * t ** (2.0 * c.h) / (2.0 * c.h)


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

    The inception rule of _z1_rule_sum visits the same times at every u, so
    the returned function carries its values there as z1_rule_values:
    tables at the rule's even nodes, then at its odd ones.  An overflow of
    e^(2M(T)), of e^(-2M(T)) or of a table (at very rough H) is refused.
    """
    if 2.0 * abs(_m_cum(model.t_mat, model)) > math.log(np.finfo(float).max):
        raise FloatingPointError("V's step law overflowed: e^(2M(T)) or e^(-2M(T)) "
                                 "is not finite")
    q = 0.5 / model.h
    x, _, w = _tanh_sinh(3.2 / 60, 60)
    y = x ** q
    keep = y > 0.0  # very rough H underflows the outermost nodes
    y, w = y[keep], (q * x ** (q - 1.0) * w)[keep]

    def tables(s) -> tuple[np.ndarray, np.ndarray]:
        s = np.asarray(s, dtype=float)
        r = s[..., None] * y
        with np.errstate(all="ignore"):  # a table out of range is refused below
            enu = np.exp(_m_cum(r, model)) * model.constants.b_h * r ** (model.h - 0.5)
            e_damp, f_quad = (enu * np.exp(-model.kappa * r)) @ w * s, (enu * enu) @ w * s
        if not np.isfinite(f_quad).all():
            raise FloatingPointError(f"V's law is out of float range at h = {model.h}")
        return e_damp, f_quad

    chis, _, k = _z1_rule(model.t_mat)
    even = k % 2 == 0
    tables.z1_rule_values = tables(chis[even]), tables(chis[~even])
    return tables


def _tables_at(model: AdolModel, t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Both flow tables at a 1-d array of positive times, read 128 at a go:
    one call on thousands of times would hold a times-by-nodes block."""
    parts = [_flow_tables(model)(part) for part in np.split(t, range(128, len(t), 128))]
    return tuple(np.concatenate(col) for col in zip(*parts))


def _f_quad(model: AdolModel, t):
    """f_quad at t: 0 at the origin, where all nodes would sit; arrays 128 times at a go."""
    if np.ndim(t) == 0:
        return float(_flow_tables(model)(t)[1]) if t > 0.0 else 0.0
    return _tables_at(model, t)[1]


def _v_law(model: AdolModel, s, t, f_s=None, f_t=None, m_t=None):
    """Decay e^(M(s) - M(t)) and variance e^(-2M(t)) (f_quad(t) - f_quad(s)),
    floored at 0, of V_t given V_s at times s <= t or 1-d arrays of them;
    f_s, f_t and m_t are f_quad(s), f_quad(t) and M(t) if the caller has them."""
    m_t = _m_cum(t, model) if m_t is None else m_t
    f_s = _f_quad(model, s) if f_s is None else f_s
    f_t = _f_quad(model, t) if f_t is None else f_t
    return np.exp(_m_cum(s, model) - m_t), np.maximum(np.exp(-2.0 * m_t) * (f_t - f_s), 0.0)


def _log_l(model: AdolModel, t, t0, at_t0):
    """log L(t) = at_t0 - kappa (t - t0) - xi^2 int_t0^t nu^2 / 2, the part
    of log sigma_t that V does not set, from at_t0 at t0; accepts arrays."""
    return at_t0 - model.kappa * (t - t0) \
        - model.xi ** 2 * (_nu_sq_cum(t, model) - _nu_sq_cum(t0, model)) / 2


# --------------------------------------------------------------------------
# Green machinery
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class GreenPieces:
    """Transformed-clock pieces for the spatial J integral.

    tau(t) = 1/2 int_t^T nu^2 alpha1^2 dr, half the variance of V_T given
    V_t, and the transport scale alpha1(t) = exp(M(t) - M(T)), its decay,
    are read off _v_law, M the cumulative reversion speed.  tau_closed_gap
    is the max relative gap of the paper's exponential-integral clock
    from tau on a probe grid: a known deviation, carried, never patched.
    """

    tau: Callable[[float], float]
    alpha1: Callable[[float], float]
    tau_closed_gap: float
    t_mat: float


@functools.lru_cache(maxsize=16)
def _green_build(model: AdolModel) -> GreenPieces:
    if model.h >= 0.5:
        raise ValueError("green machinery requires H < 1/2")
    c = model.constants
    T = model.t_mat
    p_exp = 1.0 + model.m_pi
    m_scale = model.m_rho / p_exp
    f_T = _f_quad(model, T)  # alpha1 passes it for both ends: the decay needs no table

    def alpha1(t: float) -> float:
        return float(_v_law(model, t, T, f_s=f_T, f_t=f_T)[0])

    def tau(t: float) -> float:
        if not 0.0 <= t <= T * (1.0 + 1e-12):
            raise ValueError(f"time {t} outside [0, {T}]")
        return float(0.5 * _v_law(model, t, T, f_t=f_T)[1])

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

    gap = 0.0
    for t in np.linspace(0.02 * T, T, 40):
        q = tau(float(t))
        gap = max(gap, abs(tau_closed(float(t)) - q) / max(abs(q), 1e-30))

    return GreenPieces(tau=tau, alpha1=alpha1, tau_closed_gap=gap, t_mat=T)


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

# the quadrature of J's integral over the line
_J_QUAD = QuadratureSpec(abs_tol=1e-12, rel_tol=1e-9, max_subdivisions=4000)


def _convolve_slice(fn: Callable[[float], complex], center: float, w: float,
                    pole: float | None = None) -> complex:
    """integral of fn(x) exp(x - (x-center)^2/(4w)) over the line.

    Completing the square gives a Gaussian of mean center + 2w and variance
    2w; the window is cut at 14 standard deviations.  An interior pole is a
    panel break: the integrand must be continuous there.
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
        return integrate_adaptive(g, lo, hi, _J_QUAD)
    return integrate_adaptive(g, lo, pole, _J_QUAD) + integrate_adaptive(g, pole, hi, _J_QUAD)


def _j_k_value(omega: complex, chi: float, model: AdolModel, green: GreenPieces,
               coeffs: CfCoefficients) -> complex:
    a = green.alpha1(chi)
    return coeffs.gamma(chi) * a * a * omega * math.exp(-model.kappa * chi)


def j_integral(s_center: float, omega: complex, chi: float, model: AdolModel,
               green: GreenPieces, coeffs: CfCoefficients,
               method: str = J_QUADRATURE) -> complex:
    """The spatial integral of the first-order convolution at source time chi.

    s_center is the substituted kernel center, omega the transported state.
    The integrand is exp[k/(x - 2 chi)^2 + x - (x - s_center)^2/(4 chi)].
    The quadrature needs Re k < 0 (or k = 0), where the pole damps to zero.
    """
    if not 0.0 < chi <= green.t_mat * (1.0 + 1e-12):
        raise ValueError(f"source time {chi} outside (0, {green.t_mat}]")
    k = _j_k_value(omega, chi, model, green, coeffs)
    pole = 2.0 * chi

    if method == J_QUADRATURE:
        if k == 0.0:
            return _convolve_slice(lambda x: 1.0 + 0.0j, s_center, chi)
        if k.real >= 0.0:
            raise ValueError(
                "undamped spatial integrand: Re k >= 0 at the pole diverges "
                "or oscillates; use a quadratic closed form on damped contours")

        def fn(x: float) -> complex:
            d = x - pole
            if d == 0.0:
                return 0.0 + 0.0j  # Re k < 0: the essential singularity damps to zero
            return cmath.exp(k / (d * d))

        return _convolve_slice(fn, s_center, chi, pole=pole)

    if method == J_QUAD_CENTER:
        x = s_center - pole
        if x == 0.0:
            raise MethodError("expansion center sits on the pole; use the quadrature method")
        a0 = s_center + k / x ** 2
        a1 = 1.0 - 2.0 * k / x ** 3
        a2 = -1.0 / (4.0 * chi) + 3.0 * k / x ** 4
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


def _z1_rule(t_mat: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """_Z1_RULE on [0, t_mat]: the times, the weights and each node's k."""
    x, xc, w = _Z1_RULE
    k = np.arange(len(w)) - len(w) // 2
    return np.where(k < 0, t_mat * x, t_mat - t_mat * xc), t_mat * w, k


def _flow_state(model: AdolModel, u: complex, tables: Callable, t: float,
                sigma, v, chis: np.ndarray, x_h: np.ndarray, at_t=None,
                at_chis=None):
    """The exact zero-order flow from states (sigma, v) at t to each chi.

    Returns the sigma ray, the Gaussian rule over the auxiliary state (its
    mean carries the complex correlation shift) and the reaction term
    integrated along the ray in closed form.  The states broadcast against
    each other; the results gain a trailing time axis, the nodes one more.
    at_t, if given, is tables(t), for callers that start many flows at t;
    at_chis likewise is tables(chis), for callers that reuse one time rule.
    """
    kap = model.kappa
    sigma = np.asarray(sigma, dtype=float)[..., None]
    v = np.asarray(v, dtype=complex)[..., None]
    dt = chis - t
    ms = _m_cum(chis, model)
    e_damp, f_quad = tables(chis) if at_chis is None else at_chis
    # both tables vanish at t = 0, where their nodes would all sit
    e_t, f_t = (tables(t) if at_t is None else at_t) if t > 0.0 else (0.0, 0.0)
    decay, var = _v_law(model, t, chis, f_s=f_t, f_t=f_quad, m_t=ms)
    shift = sigma * math.exp(kap * t) * (e_damp - e_t)
    mean = decay * v + 1j * u * model.rho * np.exp(-ms) * shift
    nodes = mean[..., None] + np.sqrt(2.0 * var)[..., None] * x_h
    sig2 = sigma * sigma * _unit_response(kap, dt)
    pref = np.exp(1j * u * (model.r - model.q) * dt - 0.5 * u * (u + 1j) * sig2)
    return sigma * np.exp(-kap * dt), nodes, pref


def _column(f: Callable, chis: np.ndarray) -> np.ndarray:
    """f on the whole chis array as a complex column; a scalar serves every chi."""
    val = np.asarray(f(chis), dtype=complex)
    if val.shape != chis.shape:
        val = np.full(chis.shape, val)
    return val[:, None]


def _z0_slices(co: CfCoefficients, chis: np.ndarray):
    """z0 at each time chi as a function of (sigma, v) arrays whose second
    to last axis runs over chis.

    Each coefficient is evaluated once, on the whole chis array.  Where
    beta_bar is zero at every chi (always so in affine-ode mode), z0 does
    not depend on v: the slice is then evaluated on sigma's shape alone and
    left for the caller's arithmetic to broadcast across v.  Its values
    equal the full evaluation's, whose cross term is an exact zero.  The
    returned function's v_free attribute says which case holds.
    """
    a, g, b = (_column(f, chis) for f in (co.alpha, co.gamma, co.beta_bar))
    v_free = not b.any()

    if v_free:
        def z0(s, v):
            return np.exp(a + g * s * s)
    else:
        def z0(s, v):
            return np.exp(a + g * s * s + b * s * v)

    z0.v_free = v_free
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
                  chis: np.ndarray, at_t=None, at_chis=None) -> np.ndarray:
    """The first-order integrand: the source Phi1 z0 at each time chi in
    (t, T], carried back along the flow to the states (sigma, v) at t.

    Vectorised over (state, time node, Hermite node); the states broadcast
    against each other, and the result has their shape plus a trailing
    time axis.  at_t and at_chis are passed on to _flow_state.  On a
    v-free z0 slice (affine-ode mode) the stencil's mixed difference is an
    exact zero, so neither it nor the v steps over the Hermite nodes are
    formed.
    """
    x_h, w_h = _hermite_rule(cfg.hermite_n)
    s_tr, nodes, pref = _flow_state(model, co.u, tables, t, sigma, v, chis, x_h,
                                    at_t, at_chis)
    s_tr = s_tr[..., None]
    z0 = _z0_slices(co, chis)
    hs, hv = _steps(cfg, s_tr, None if z0.v_free else nodes)
    nu, m = _nu_m(model, chis)
    src = _stencil_phi1([z0(a, b) for a, b in _phi1_legs(s_tr, nodes, hs, hv)],
                        nu, m, co.u, model.rho, s_tr, nodes, hs, hv)
    return pref * (src @ w_h)


def _z1_value(model: AdolModel, co: CfCoefficients, cfg: "CorrectionConfig",
              tables: Callable) -> complex:
    """z1 at inception from the Hermite-stencil kernel (_z1_rule_sum)."""
    return _z1_rule_sum(model, cfg, tables, lambda nodes, at_nodes: _z1_integrand(
        model, co, cfg, tables, 0.0, model.sigma0, model.v0, nodes, at_chis=at_nodes))


def _z1_rule_sum(model: AdolModel, cfg: "CorrectionConfig", tables: Callable,
                 integral_terms: Callable) -> complex:
    """z1 at inception by tanh-sinh quadrature over the source time, of the
    integrand integral_terms(nodes, tables(nodes)).

    The difference between the step-h rule and its even nodes (the step-2h
    rule) bounds the error at no extra cost.  When that misses cfg.quad,
    the step is halved once; if the halved rule still misses, the
    estimate is refused.
    """
    chis, w, k = _z1_rule(model.t_mat)
    at_even, at_odd = tables.z1_rule_values
    tol = cfg.quad
    even = k % 2 == 0
    f_even = integral_terms(chis[even], at_even)
    fine = 2.0 * complex(f_even @ w[even])
    coarse = 4.0 * complex(f_even[k[even] % 4 == 0] @ w[k % 4 == 0])
    if abs(fine - coarse) <= max(tol.abs_tol, tol.rel_tol * abs(fine)):
        return fine
    finer = 0.5 * fine + complex(integral_terms(chis[~even], at_odd) @ w[~even])
    err = abs(finer - fine)
    if err <= max(tol.abs_tol, tol.rel_tol * abs(finer)):
        return finer
    raise QuadratureError("tanh-sinh rule for z1 missed its tolerance at the halved step",
                          estimate=finer, error_bound=err)


@functools.lru_cache(maxsize=None)
def _legendre_rule(n: int) -> tuple[np.ndarray, np.ndarray]:
    return np.polynomial.legendre.leggauss(n)


def _power_nodes(lo: float, hi: float, h: float, n_pan: int,
                 gl_n: int) -> tuple[np.ndarray, np.ndarray]:
    """Panel Gauss-Legendre nodes for time integrals carrying nu powers.

    In z = chi^{2h} the endpoint factors nu^2 ~ chi^{2h-1} and
    nu ~ chi^{h-1/2} become regular at chi = 0 for every h < 1/2; h = 1/2
    is the identity map.  The Hermite spread sqrt(var) ~ chi^h = z^{1/2}
    stays singular, so the panels converge only algebraically: the
    second-order term at u = 5 moves the CF by 0, 6.2e-9 and 9.8e-9 at 10,
    20 and 40 panels against 1.3e-8 converged.

    The Gauss-Legendre rule itself is built once per size (_legendre_rule):
    z2 asks for these nodes once per outer node, on a new interval each time.
    """
    p = 2.0 * h
    beta = 1.0 / p
    gx, gw = _legendre_rule(gl_n)
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


# --------------------------------------------------------------------------
# affine corrections in moment form
# --------------------------------------------------------------------------
#
# In affine-ode mode z0 does not depend on v, so the z1 field at (t, sigma, v)
# is A(sigma) + B(sigma) v and Phi1 of it is quadratic in V: the flow's
# expectation needs only V's mean and variance (Lewis 2000; Benhamou, Gobet &
# Miri 2010).  The time rules and the sigma difference are the kernel's, so
# the kernel above gives the same values to rounding and is their oracle.

def _affine_field(model: AdolModel, co: CfCoefficients, cfg: "CorrectionConfig",
                  t, sigma, chis, e_t, e_chis) -> tuple[np.ndarray, np.ndarray]:
    """Integrand terms of A and B of the affine z1 field A(sigma) + B(sigma) v
    started at time t: pref s D[z0](s) times (i u rho nu s - m shift) and
    times (-m decay), s the sigma ray at chi and D the central difference.
    t, sigma and e_t = e_damp(t) broadcast against chis and e_chis =
    e_damp(chis); the results have the broadcast shape."""
    u, kap = co.u, model.kappa
    dt = chis - t
    ms = _m_cum(chis, model)
    s = sigma * np.exp(-kap * dt)
    hs = cfg.sigma_step * np.maximum(1.0, np.abs(s))
    a, g = co.alpha(chis), co.gamma(chis)
    sp, sm = s + hs, s - hs
    lead = (np.exp(a + g * sp * sp) - np.exp(a + g * sm * sm)) / (2.0 * hs)
    lead *= s * np.exp(1j * u * (model.r - model.q) * dt
                       - 0.5 * u * (u + 1j) * sigma * sigma * _unit_response(kap, dt))
    nu = model.constants.b_h * chis ** (model.h - 0.5)
    m = model.m_rho * chis ** model.m_pi
    shift = 1j * u * model.rho * np.exp(-ms) * sigma * np.exp(kap * t) * (e_chis - e_t)
    return lead * (1j * u * model.rho * nu * s - m * shift), \
        lead * (-m * np.exp(_m_cum(t, model) - ms))


def _z1_affine(model: AdolModel, co: CfCoefficients, cfg: "CorrectionConfig",
               tables: Callable) -> complex:
    """Affine z1 at inception, A + B v0 on _z1_rule_sum's rule."""
    def terms(nodes: np.ndarray, at_nodes) -> np.ndarray:
        fa, fb = _affine_field(model, co, cfg, 0.0, model.sigma0, nodes, 0.0, at_nodes[0])
        return fa + fb * model.v0

    return _z1_rule_sum(model, cfg, tables, terms)


@functools.lru_cache(maxsize=16)
def _z2_nodes(model: AdolModel, panels: int):
    """The u-free set-up of affine z2 with z2_panels = panels: _z2_point's
    outer nodes and weights with both flow tables there, and the inner
    nodes and weights of every outer node, rows of one array, with e_damp
    there.  Order 2 alone builds it."""
    T = model.t_mat
    chis, wts = _power_nodes(0.0, T, model.h, panels + 6, 10)
    inner, iw = (np.array(a) for a in zip(*(_power_nodes(chi, T, model.h, panels, 8)
                                             for chi in chis)))
    e_out, f_out = _tables_at(model, chis)
    e_in = _tables_at(model, inner.ravel())[0].reshape(inner.shape)
    return chis, wts, e_out, f_out, inner, iw, e_in


# outer nodes per batch of affine z2's z1 field: all 160 at once raised a
# process's peak RSS by 3.5 MB, 16 at a go by at most 0.2 MB, at equal speed
_Z2_BLOCK = 16


def _z2_affine(model: AdolModel, co: CfCoefficients, cfg: "CorrectionConfig") -> complex:
    """Affine z2 at inception: Phi2 z0 plus the expectation over V of
    Phi1 z1 = nu^2 s b + (i u rho nu s - m V) s (a + b V), with a and b the
    sigma differences of the z1 field's A and B over the legs s +- hs.  The
    field comes in batches over (leg, outer node, inner node)."""
    chis, wts, e_out, f_out, inner, iw, e_in = _z2_nodes(model, cfg.z2_panels)
    u, kap, s0 = co.u, model.kappa, model.sigma0
    ms = _m_cum(chis, model)
    decay, var = _v_law(model, 0.0, chis, f_s=0.0, f_t=f_out, m_t=ms)
    mean = decay * model.v0 + 1j * u * model.rho * np.exp(-ms) * s0 * e_out
    s = s0 * np.exp(-kap * chis)
    hs = cfg.sigma_step * np.maximum(1.0, np.abs(s))
    nu = model.constants.b_h * chis ** (model.h - 0.5)
    m = model.m_rho * chis ** model.m_pi
    a, g = co.alpha(chis), co.gamma(chis)
    z0 = [np.exp(a + g * x * x) for x in (s + hs, s, s - hs)]
    src = 0.5 * nu * nu * s * s * (z0[0] - 2.0 * z0[1] + z0[2]) / (hs * hs)
    legs = np.stack([s + hs, s - hs])[:, :, None]
    blocks = (slice(i, i + _Z2_BLOCK) for i in range(0, len(chis), _Z2_BLOCK))
    # A and B over (leg, outer node)
    fields = np.concatenate([[np.einsum("lok,ok->lo", f, iw[k]) for f in _affine_field(
        model, co, cfg, chis[k, None], legs[:, k], inner[k], e_out[k, None], e_in[k])]
        for k in blocks], axis=-1)
    da, db = (fields[:, 0] - fields[:, 1]) / (2.0 * hs)
    drift = 1j * u * model.rho * nu * s
    src += nu * nu * s * db + s * (drift * da + (drift * db - m * da) * mean
                                   - m * db * (mean * mean + var))
    pref = np.exp(1j * u * (model.r - model.q) * chis
                  - 0.5 * u * (u + 1j) * s0 * s0 * _unit_response(kap, chis))
    return complex(wts @ (pref * src))


def _term(order: int, model: AdolModel, co: CfCoefficients, cfg: "CorrectionConfig") -> complex:
    """z1 or z2 at inception: the moment form in affine-ode mode, the
    Hermite-stencil kernel in paper mode."""
    tables = _flow_tables(model)
    if cfg.mode == MODE_AFFINE:
        return _z1_affine(model, co, cfg, tables) if order == 1 else _z2_affine(model, co, cfg)
    return _z1_value(model, co, cfg, tables) if order == 1 else _z2_point(model, co, cfg, tables)


def correction(order: int, u: complex, model: AdolModel,
               cfg: CorrectionConfig | None = None) -> complex:
    """The order-1 or order-2 term of the CF expansion, at inception."""
    if order not in (1, 2):
        raise ValueError("correction order must be 1 or 2")
    if model.h >= 0.5:
        raise ValueError("correction pipeline requires H < 1/2")
    cfg = cfg or CorrectionConfig()
    return _term(order, model, _coeffs_for(complex(u), model, cfg.mode), cfg)


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
        z = z + model.xi * _term(1, model, co, cfg)
        if cfg.order >= 2:
            z = z + model.xi ** 2 * _term(2, model, co, cfg)
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
