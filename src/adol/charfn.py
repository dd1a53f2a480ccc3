"""Characteristic function of the log-return, expanded in the vol-of-vol.

The CF is assembled as exp(iux) * (z0 + xi*z1 + xi^2*z2) with x = 0 at
inception, at a whole array of frequencies u at once (cf_values; cf_total
is its one-u form).  The zero order z0 is exponential-affine,

    z0(t) = exp[alpha(t) + gamma(t) sigma^2 + beta_bar(t) sigma v],

and its three coefficients come in two independent modes: a closed form
("paper-closed-form") and the exact solution of the terminal-value ODEs
of the xi = 0 reduction ("affine-ode").  The two differ in their
correlation structure; the gap between them is measured, never hidden.

Corrections z1, z2 integrate the source operators Phi1, Phi2 against the
exact flow of the xi = 0 generator: sigma rides a deterministic ray and
the auxiliary state V stays Gaussian.  In both modes z0 is
exponential-linear in v, so the flow's expectation over V comes in closed
form from V's mean and variance, and the v derivatives are exact; the
sigma derivatives are central differences.

The paper's own route, a heat-kernel convolution on the transformed clock
tau(t), survives as a diagnostic on arrays of source times: j_state gives
the inner spatial integral J's kernel centre and pole weight, j_integral
a checked Gauss-Legendre value, j_closed the quadratic-at-centre closed
form, and tau_closed_gap the gap of the paper's exponential-integral
clock, summed as the power series it equals.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .do_process import nu_t
from .model import AdolModel, m_t
from .numerics import QuadratureError

__all__ = [
    "CorrectionConfig",
    "ResidualStats",
    "cf_zero",
    "j_state",
    "j_integral",
    "j_closed",
    "tau_closed_gap",
    "cf_values",
    "cf_total",
    "pde_residual",
]

MODE_PAPER = "paper-closed-form"
MODE_AFFINE = "affine-ode"

def _variant(mode: str) -> str:
    if mode not in (MODE_PAPER, MODE_AFFINE):
        raise ValueError(f"unknown cf mode {mode!r}")
    return mode


@dataclass(frozen=True)
class CorrectionConfig:
    """The CF's truncation order in xi and the mode of the zero-order
    slices it perturbs.  The corrections' numerical settings are fixed
    constants: _SIGMA_STEP, _Z1_ABS_TOL, _Z1_REL_TOL and _Z2_PANELS."""

    order: int = 1
    mode: str = MODE_AFFINE

    def __post_init__(self) -> None:
        if self.order not in (0, 1, 2):
            raise ValueError("order must be 0, 1, or 2")
        _variant(self.mode)


@dataclass(frozen=True)
class ResidualStats:
    max_abs: float
    mean_abs: float
    n_points: int


def _frequencies(u) -> complex | np.ndarray:
    """A frequency as a complex, or an array of them as a complex array;
    every zero-order coefficient is built through here, so a non-finite
    frequency is refused before any arithmetic meets it."""
    u = complex(u) if np.ndim(u) == 0 else np.asarray(u, dtype=complex)
    finite = np.isfinite(u)
    if not finite.all():
        raise ValueError(f"frequencies must be finite, got u = {np.extract(~finite, u)[0]}")
    return u


def _in_float_range(z, u, what: str):
    """z, the values of `what` at the frequencies u (which broadcast to z's
    shape), or an OverflowError naming the first u where z is not finite."""
    bad = ~np.isfinite(z)
    if bad.any():
        u_bad = complex(np.broadcast_to(u, np.shape(z))[bad][0])
        raise OverflowError(f"{what} at u = {u_bad} left float range")
    return z


def _lead(x, *like):
    """The array x with a trailing unit axis per axis of the broadcast of
    `like`, the time or state arrays it meets, so that its axes lead: every
    u-dependent array carries the axes of u first.  A lone frequency (a
    complex, not an array) is left as it is, at no cost."""
    if not isinstance(x, np.ndarray):
        return x
    return np.reshape(x, x.shape + (1,) * max(map(np.ndim, like)))


# --------------------------------------------------------------------------
# zero-order coefficients
# --------------------------------------------------------------------------

def _unit_response(kappa: float, tau):
    """G = (1 - exp(-2 kappa tau)) / (2 kappa): the solution of
    G' = 2 kappa G - 1, G(T) = 0, at time to maturity tau.  Where
    |2 kappa tau| < 1e-16, G / tau rounds to 1 and G is tau, also at
    kappa = 0; the quotient would lose G to rounding at subnormal kappa.
    Both modes' quadratic coefficients are multiples of it.  Accepts arrays."""
    x = 2.0 * kappa * np.asarray(tau, dtype=float)
    small = np.abs(x) < 1e-16
    if small.all():
        return tau
    return np.where(small, tau, -np.expm1(-x) / (2.0 * kappa))[()]


def _z0_coefficients(u, model: AdolModel, mode: str, t):
    """The zero order's coefficients (alpha, gamma, beta_bar) at a frequency
    u or a 1-d array of them, and at a time t or an array of times: each
    carries the axes of u first, then those of t (see _lead).  All three
    vanish at t = T (terminal condition z(T) = 1); beta_bar is the scalar
    0j in affine-ode mode.

    The affine-ode mode solves the terminal-value ODEs of the xi = 0
    reduction, which the exponential-affine substitution gives: the cross
    coefficient closes at exactly zero, the drift coefficient integrates a
    constant, and the quadratic coefficient is -u(u+i)/2 times the
    unit-forcing response G of G' = 2 kappa G - 1, G(T) = 0, solved
    exactly.  Only G is shared with the closed-form mode, whose amplitude
    and cross coefficient differ, so the affine result can arbitrate it; the
    PDE residual checks G independently.  The closed form requires H < 1/2
    (1/nu(0) = 0 there) and t >= 0.
    """
    u = _frequencies(u)
    kappa, T = model.kappa, model.t_mat
    if _variant(mode) == MODE_AFFINE:
        drift = 1j * u * (model.r - model.q)
        scale = -0.5 * u * (1j + u)
        return _lead(drift, t) * (T - t), _lead(scale, t) * _unit_response(kappa, T - t), 0j
    if model.h >= 0.5:
        raise ValueError("closed-form beta_bar is defined only for H < 1/2")
    if np.any(np.less(t, 0.0)):
        raise ValueError(f"time must be nonnegative, got {t}")
    c = model.constants
    rho = model.rho
    g_amp = u * (1.0 + u * (1.0 - rho) ** 2)
    alpha = -1j * _lead(u, t) * (model.r - model.q) * (t - T)
    gamma = -0.5 * _lead(g_amp, t) * _unit_response(kappa, T - t)

    # primitive of (kappa + m(s))/nu(s); plain power laws since m is one
    e1 = 1.5 - c.h
    e2 = 1.5 - c.h + model.m_pi

    def _ikm(s: float) -> float:
        return (kappa * s ** e1 / e1 + model.m_rho * s ** e2 / e2) / c.b_h

    # 1/nu(t) = t^(1/2-H) / B_H, which is 0 at t = 0 for H < 1/2
    inv_nu_T = T ** (0.5 - c.h) / c.b_h
    inv_nu_t = t ** (0.5 - c.h) / c.b_h
    beta_bar = 1j * rho * _lead(u, t) * (
        np.exp(kappa * (t - T)) * inv_nu_T - inv_nu_t - (_ikm(t) - _ikm(T))
    )
    return alpha, gamma, beta_bar


def _cf_zero(u, model: AdolModel, mode: str) -> complex | np.ndarray:
    s0, v0 = model.sigma0, model.v0
    # u * u itself overflows past |u| ~ 1e154, and its product with 0j is NaN
    with np.errstate(over="ignore", invalid="ignore"):
        a, g, b = _z0_coefficients(u, model, mode, 0.0)
        z = _in_float_range(np.exp(a + g * s0 * s0 + b * s0 * v0), u, "the zero order")
    return complex(z) if np.ndim(z) == 0 else z


def cf_zero(u, model: AdolModel, mode: str = MODE_AFFINE) -> complex | np.ndarray:
    """Zero-order CF value at inception (x = 0), at a frequency or at each
    of a 1-d array of them."""
    return _cf_zero(u, model, mode)


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
    """f_quad at t: 0 at the origin, where all nodes would sit; 1-d arrays 128 times at a go."""
    if np.ndim(t) == 0:
        return float(_flow_tables(model)(t)[1]) if t > 0.0 else 0.0
    pos = t > 0.0
    out = np.zeros(t.shape)
    out[pos] = _tables_at(model, t[pos])[1]
    return out


def _v_law(model: AdolModel, s, t, f_s=None, f_t=None, m_t=None):
    """Decay e^(M(s) - M(t)) and variance e^(-2M(t)) (f_quad(t) - f_quad(s)),
    floored at 0, of V_t given V_s at times s <= t or 1-d arrays of them;
    f_s, f_t and m_t are f_quad(s), f_quad(t) and M(t) if the caller has them."""
    m_t = _m_cum(t, model) if m_t is None else m_t
    f_s = _f_quad(model, s) if f_s is None else f_s
    f_t = _f_quad(model, t) if f_t is None else f_t
    return np.exp(_m_cum(s, model) - m_t), np.maximum(np.exp(-2.0 * m_t) * (f_t - f_s), 0.0)


def _log_l(model: AdolModel, t, at_0):
    """log L(t) = at_0 - kappa t - xi^2 int_0^t nu^2 / 2, the part of
    log sigma_t that V does not set, from at_0 at time 0; accepts arrays."""
    return at_0 - model.kappa * t - model.xi ** 2 * _nu_sq_cum(t, model) / 2


# --------------------------------------------------------------------------
# the paper's spatial integral J, a diagnostic
# --------------------------------------------------------------------------
#
# The paper convolves the first-order source with a heat kernel on the
# transformed clock tau(t) = Var(V_T | V_t) / 2.  At source time chi the
# inner spatial integral is
#
#     J = int exp[k / (x - 2 chi)^2 + x - (x - c)^2 / (4 chi)] dx
#
# with the kernel centre c = decay v0 + var and the pole weight
# k = gamma(chi) decay^2 sigma0 v0, where decay and var are V's law from chi
# to T.  The figures set its quadratic-at-centre closed form against
# quadrature; the corrections themselves ride the flow further down.

def j_state(model: AdolModel, u, chis) -> tuple[np.ndarray, np.ndarray]:
    """J's kernel centre and pole weight at frequency u and an array of
    source times in (0, T]; the pole weight reads the closed-form gamma."""
    chis = np.asarray(chis, dtype=float)
    T = model.t_mat
    if not np.all((chis > 0.0) & (chis <= T * (1.0 + 1e-12))):
        raise ValueError(f"source times must lie in (0, {T}]")
    decay, var = _v_law(model, chis, T)
    gamma = _z0_coefficients(u, model, MODE_PAPER, chis)[1]
    return decay * model.v0 + var, gamma * decay * decay * model.sigma0 * model.v0


def _j_integrand(x, center, k, chi):
    """J's integrand at x; 0 on the pole, where Re k < 0 damps it."""
    d = x - 2.0 * chi
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(d == 0.0, 0j, np.exp(k / (d * d) + x - (x - center) ** 2 / (4.0 * chi)))


def _j_rule(center, k, chi, n: int):
    """J by n Gauss-Legendre nodes on each side of the pole 2 chi, over the
    Gaussian's mean center + 2 chi +- 14 standard deviations; a pole
    outside that window leaves one side empty."""
    x, w = _legendre_rule(n)
    mean, half = center + 2.0 * chi, 14.0 * np.sqrt(2.0 * chi)
    lo, hi = mean - half, mean + half
    pole = np.clip(2.0 * chi, lo, hi)
    total = 0j
    for a, b in ((lo, pole), (pole, hi)):
        mid, rad = 0.5 * (a + b), 0.5 * (b - a)
        nodes = mid[..., None] + rad[..., None] * x
        total = total + rad * (_j_integrand(nodes, center[..., None], k[..., None],
                                            chi[..., None]) @ w)
    return total


def j_integral(center, k, chi) -> np.ndarray:
    """J at arrays of kernel centres, pole weights and source times (see
    j_state), which broadcast.  It needs Re k < 0 or k = 0: otherwise the
    pole does not damp the integrand.  The half rule checks the value: a
    gap of more than 1e-9 relative raises QuadratureError."""
    center, k, chi = np.broadcast_arrays(center, np.asarray(k, dtype=complex), chi)
    if np.any((k.real >= 0.0) & (k != 0.0)):
        raise ValueError("undamped spatial integrand: Re k >= 0 at the pole diverges "
                         "or oscillates; use the quadratic closed form on damped contours")
    val = _j_rule(center, k, chi, 128)
    err = np.abs(val - _j_rule(center, k, chi, 64))
    if np.any(err > 1e-9 * np.abs(val)):
        worst = np.unravel_index(np.argmax(err), err.shape)
        raise QuadratureError("Gauss-Legendre rule for J missed 1e-9 against its half rule",
                              estimate=complex(val[worst]), error_bound=float(err[worst]))
    return val


def j_closed(center, k, chi) -> tuple[np.ndarray, np.ndarray]:
    """J's closed form from the exponent expanded to second order at the
    centre, and that expansion's curvature a2; arrays broadcast.  The value
    is NaN where a2 >= 0 or the centre sits on the pole."""
    center, k, chi = np.broadcast_arrays(center, np.asarray(k, dtype=complex), chi)
    x = center - 2.0 * chi
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        a0 = center + k / x ** 2
        a1 = 1.0 - 2.0 * k / x ** 3
        a2 = -1.0 / (4.0 * chi) + 3.0 * k / x ** 4
        val = np.sqrt(math.pi / -a2) * np.exp(a0 - a1 * a1 / (4.0 * a2))
    return np.where((a2.real < 0.0) & (x != 0.0), val, np.nan), a2


def tau_closed_gap(model: AdolModel) -> float:
    """The largest relative gap of the paper's exponential-integral clock
    from tau(t) = Var(V_T | V_t) / 2 over 40 times in [0.02 T, T], where Var
    exceeds 1e3 eps e^(-2M(T)) f_quad(T), the rounding scale of its table
    difference (NaN if nowhere): a known deviation, carried, never patched.
    Needs H < 1/2.

    The paper writes the clock as B_H^2 / (2p) e^(z_T) (t^(2H) E_nu(z_t) -
    T^(2H) E_nu(z_T)) with p = 1 + m_pi, nu = 1 - a, a = 2H / p and
    z_t = -w_t = -m_rho t^p / p.  Each E splits as Gamma(a) z^(-a) minus a
    power series (DLMF 8.19.1, 8.7.1), and t^(2H) z_t^(-a) does not depend
    on t, so that term cancels exactly and the clock is

        B_H^2 / (2p) e^(-w_T) (T^(2H) S(w_T) - t^(2H) S(w_t)),
        S(w) = sum_k w^k / (k! (a + k)),

    one formula for every m_rho (m_rho = 0 is its k = 0 term).  S is summed
    by positive terms: directly for m_rho >= 0, and in Kummer's form
    e^w sum_k (-w)^k / (a (a+1) ... (a+k)) for m_rho < 0.  There both sides
    tend to Gamma(a) (p / |m_rho|)^a, so a late t loses about |w_t| / ln 10
    digits to cancellation; tau's own difference f_quad(T) - f_quad(t)
    loses twice as many."""
    if model.h >= 0.5:
        raise ValueError("the exponential-integral clock needs H < 1/2")
    c, T = model.constants, model.t_mat
    p = 1.0 + model.m_pi
    ts = np.linspace(0.02 * T, T, 40)
    f = _f_quad(model, ts)  # its last entry is f_quad(T)
    var = _v_law(model, ts, T, f_s=f, f_t=f[-1])[1]
    resolved = var > 1e3 * np.finfo(float).eps * math.exp(-2.0 * _m_cum(T, model)) * f[-1]
    two_h = 2.0 * c.h
    a, neg = two_h / p, model.m_rho < 0.0
    w = _m_cum(ts, model)  # w_t; V's law has refused |w_T| past float range
    term, s_sum, add, k = np.ones(ts.shape), np.full(ts.shape, 1.0 / a), np.inf, 0
    while np.any(add > 1e-17 * s_sum):
        k += 1
        term = term * np.abs(w) / (a + k if neg else k)
        add = term / (a if neg else a + k)
        s_sum = s_sum + add
    # the last entry is t = T
    lead = ts ** two_h * (np.exp(w) * s_sum if neg else s_sum)
    closed = c.b_h * c.b_h / (2.0 * p) * math.exp(-w[-1]) * (lead[-1] - lead)
    tau = 0.5 * var[resolved]
    return float(np.max(np.abs(closed[resolved] - tau) / tau)) if resolved.any() else math.nan


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
#
# Both modes' z0 = exp(a + g s^2 + b s v) is exponential-linear in v (b = 0
# in affine-ode mode).  So Phi1 z0 at a sigma leg s_l is e^(c V) times a
# polynomial of degree one in V, with c = b s_l, and the z1 field is a sum of
# terms e^(kap v) (A + B v).  With V Gaussian of mean mu and variance Sigma,
# E[e^(c V) p(V)] = e^(c mu + c^2 Sigma / 2) E[p(V + c Sigma)] takes every
# expectation over V in closed form, and every v derivative is exact (the
# moment form of Lewis 2000 and of Benhamou, Gobet & Miri 2010).  The sigma
# derivatives are central differences with the relative step _SIGMA_STEP.
# These settings are read at call time: z1's time rule halves its step where
# it misses both tolerances, and z2's inner time grid has _Z2_PANELS panels,
# its outer grid 6 more.
_SIGMA_STEP = 1e-3
_Z1_ABS_TOL, _Z1_REL_TOL = 1e-10, 1e-7
_Z2_PANELS = 10


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


# the sigma legs s + hs and s - hs of the central difference, as signs
_LEGS = np.array([1.0, -1.0])


def _flow(model: AdolModel, u, t, sigma, chis, at_t, at_chis):
    """The exact zero-order flow from the state (sigma, v) at t to each time
    chi: the sigma ray, V's decay, the shift of V's mean (the mean is
    decay v + shift), V's variance and the log of the reaction term along
    the ray.  at_t and at_chis are the flow tables (e_damp, f_quad) at t
    and at chis; all arguments broadcast, and both tables vanish at t = 0.
    The shift and the reaction term depend on u: their values carry the
    axes of u first, then the broadcast shape of the rest (_lead)."""
    kap = model.kappa
    dt = chis - t
    ms = _m_cum(chis, model)
    decay, var = _v_law(model, t, chis, f_s=at_t[1], f_t=at_chis[1], m_t=ms)
    u = _lead(u, t, sigma, chis, *at_t, *at_chis)
    shift = (1j * model.rho * u) * (np.exp(-ms) * sigma * np.exp(kap * t)
                                    * (at_chis[0] - at_t[0]))
    log_pref = (1j * (model.r - model.q) * u) * dt \
        - (0.5 * u * (u + 1j)) * (sigma * sigma * _unit_response(kap, dt))
    return sigma * np.exp(-kap * dt), decay, shift, var, log_pref


def _z1_field(model: AdolModel, mode: str, u, t, sigma, chis, at_t, at_chis):
    """Integrand terms of the z1 field started at (t, sigma): the source
    Phi1 z0 at each time chi, carried back along the flow, is, as a
    function of the state v at t, the sum over the sigma legs s +- hs of
    e^(expo + kap v) (p + q v).  Returns kap, expo, p and q with a leading
    leg axis, then u's axes, then the broadcast shape of t, sigma and
    chis; chis has all of that shape's axes, as the coefficients' values
    align on them, and at_t and at_chis are as for _flow.

    On a leg s_l the tilt is c = b s_l, and V's mean under it is
    decay v + shift + c var, so the exponent and p are polynomials in s_l.
    """
    s, decay, shift, var, log_pref = _flow(model, u, t, sigma, chis, at_t, at_chis)
    hs = _SIGMA_STEP * np.maximum(1.0, np.abs(s))
    a, g, b = _z0_coefficients(u, model, mode, chis)
    nu, m = nu_t(chis, model.constants), m_t(chis, model)
    # the leg signs on the axis before u's
    signs = _LEGS.reshape((2,) + (1,) * (np.ndim(u) + np.ndim(s)))
    legs = s + signs * hs
    expo = a + log_pref + legs * (b * shift + legs * (g + 0.5 * b * b * var))
    p = legs * (b * s * (nu * nu - m * var)) \
        + s * ((1j * model.rho * _lead(u, s)) * (nu * s) - m * shift)
    diff = signs * (0.5 / hs)
    return legs * (b * decay), expo, diff * p, diff * (-m * s * decay)


def _z1_terms(model: AdolModel, mode: str, u, chis: np.ndarray, at_chis) -> np.ndarray:
    """The z1 integrand at inception at each time chi of a 1-d array, from
    the flow tables at_chis there: u's axes first, the node axis last.
    The two legs are summed first, so a z0 that does not depend on sigma
    (u = 0, or u = -i in affine-ode mode) gives exact zeros."""
    kap, expo, p, q = _z1_field(model, mode, u, 0.0, model.sigma0, chis, (0.0, 0.0), at_chis)
    x = np.exp(expo + kap * model.v0) * (p + q * model.v0)
    return x[0] + x[1]


def _z1(model: AdolModel, mode: str, u):
    """z1 at inception at u, _z1_terms on _z1_rule_sum's rule."""
    return _z1_rule_sum(model, u, _flow_tables(model), functools.partial(_z1_terms, model, mode, u))


def _z1_rule_sum(model: AdolModel, u, tables: Callable, integral_terms: Callable):
    """z1 at inception at u, a frequency or a 1-d array of them, by
    tanh-sinh quadrature over the source time of the integrand
    integral_terms(nodes, tables(nodes)): u's axes first, node axis last.

    At each u, the difference between the step-h rule and its even nodes
    (the step-2h rule) bounds the error at no extra cost.  Where that
    misses both _Z1_ABS_TOL and _Z1_REL_TOL, the step is halved once: the
    odd nodes are evaluated for every u, and only the u that missed take
    the halved value.  If the halved rule still misses at some u, the
    estimate is refused, naming that u; an estimate out of float range is
    refused as such (OverflowError).
    """
    chis, w, k = _z1_rule(model.t_mat)
    at_even, at_odd = tables.z1_rule_values
    even = k % 2 == 0
    f_even = integral_terms(chis[even], at_even)
    fine = _in_float_range(2.0 * (f_even @ w[even]), u, "the z1 estimate")
    coarse = 4.0 * (f_even[..., k[even] % 4 == 0] @ w[k % 4 == 0])
    met = np.abs(fine - coarse) <= np.maximum(_Z1_ABS_TOL, _Z1_REL_TOL * np.abs(fine))
    if met.all():
        return fine
    finer = _in_float_range(0.5 * fine + integral_terms(chis[~even], at_odd) @ w[~even], u,
                            "the z1 estimate")
    err = np.abs(finer - fine)
    missed = ~met & ~(err <= np.maximum(_Z1_ABS_TOL, _Z1_REL_TOL * np.abs(finer)))
    if missed.any():
        i = np.flatnonzero(missed)[0]
        raise QuadratureError("tanh-sinh rule for z1 missed its tolerance at the halved "
                              f"step at u = {complex(np.ravel(u)[i])}",
                              estimate=complex(np.ravel(finer)[i]),
                              error_bound=float(np.ravel(err)[i]))
    return np.where(met, fine, finer)[()]


@functools.lru_cache(maxsize=None)
def _legendre_rule(n: int) -> tuple[np.ndarray, np.ndarray]:
    return np.polynomial.legendre.leggauss(n)


def _power_nodes(lo, hi: float, h: float, n_pan: int,
                 gl_n: int) -> tuple[np.ndarray, np.ndarray]:
    """Panel Gauss-Legendre nodes for time integrals carrying nu powers.

    In z = chi^{2h} the endpoint factors nu^2 ~ chi^{2h-1} and
    nu ~ chi^{h-1/2} become regular at chi = 0 for every h < 1/2; h = 1/2
    is the identity map.  V's spread sqrt(var) ~ chi^h = z^{1/2} stays
    singular, so the panels converge only algebraically: the
    second-order term at u = 5 moves the CF by 0, 6.2e-9 and 9.8e-9 at 10,
    20 and 40 panels against 1.3e-8 converged.

    lo is a float or a 1-d array of lower ends, one row of nodes and weights
    per end (shape np.shape(lo) + (n_pan * gl_n,)), each bitwise the call on
    that end alone: z2 builds all its outer nodes' inner nodes in one call.
    """
    p = 2.0 * h
    beta = 1.0 / p
    gx, gw = _legendre_rule(gl_n)
    # np.power, not **: a float end then rounds as an array's entries do
    z_edges = np.linspace(np.power(lo, p), hi ** p, n_pan + 1, axis=-1)
    mid = 0.5 * (z_edges[..., 1:] + z_edges[..., :-1])
    half = 0.5 * (z_edges[..., 1:] - z_edges[..., :-1])
    z = (mid[..., None] + half[..., None] * gx).reshape(np.shape(lo) + (-1,))
    w = (half[..., None] * gw).reshape(z.shape)
    return z ** beta, w * beta * z ** (beta - 1.0)


@functools.lru_cache(maxsize=16)
def _z2_nodes(model: AdolModel, panels: int):
    """The u-free set-up of z2 on _Z2_PANELS = panels, the cache key: fixed
    substituted panels on both time axes (the whole term enters at xi^2, and
    the cf pins admit only the panel value; see _power_nodes).  Returns the
    outer nodes and weights with both flow tables there, and the inner nodes
    and weights of every outer node, rows of one array, with both flow
    tables there.  Order 2 alone builds it."""
    T = model.t_mat
    chis, wts = _power_nodes(0.0, T, model.h, panels + 6, 10)
    inner, iw = _power_nodes(chis, T, model.h, panels, 8)
    at_in = tuple(col.reshape(inner.shape) for col in _tables_at(model, inner.ravel()))
    return chis, wts, _tables_at(model, chis), inner, iw, at_in


# outer nodes times frequencies per batch of z2's z1 field, whose terms carry
# two leg axes.  On the cf_o2 benchmark config (10 panels, 160 outer nodes,
# 5 u; one BLAS thread) the bound 10 / 16 / 20 / 40 gave `adol cf --check` a
# peak RSS of 32.5 / 32.7 / 33.1 / 34.1 MB (medians of 15 processes) and
# _z2 on the 5 u 26 / 24 / 22 / 20 ms in process; z2 is bitwise the same at
# any bound.  cf_values hands _z2 at most _Z2_BLOCK frequencies per call and
# _z2 takes at least one outer node per batch, so a batch never holds more
# than _Z2_BLOCK outer nodes times frequencies
_Z2_BLOCK = 20


def _z2(model: AdolModel, mode: str, u):
    """z2 at inception at u: the expectation over V of Phi2 z0 + Phi1 z1
    at each outer node.  At each outer sigma leg the z1 field is a sum of
    terms e^(kap v) (A + B v), and Phi1 = nu^2 s d2/(ds dv) + (i u rho nu s - m v) s d/ds
    of a term is e^(kap V) times (A + B V)(w + beta V) + nu^2 s B, with
    w = nu^2 s kap + i u rho nu s^2 and beta = -m s.  Under the tilt e^(kap V)
    V has the mean mu' = mu + kap Sigma, so the expectation of the term is
    E ((A + B mu')(w + beta mu') + B (nu^2 s + beta Sigma)) with
    E = e^(kap mu + kap^2 Sigma / 2).  With D = i u rho nu s^2 + beta mu and
    N = nu^2 s + beta Sigma, which the inner nodes share, that is

        E (A + B mu') D + E (B + kap (A + B mu')) N,

    so the inner nodes sum the factors of D and N first, and D and N apply
    once per outer node.  The terms come in batches over (inner leg, u,
    outer leg, outer node, inner node); the inner legs are summed first, as
    in _z1_terms."""
    chis, wts, at_out, inner, iw, at_in = _z2_nodes(model, _Z2_PANELS)
    s, decay, shift, var, log_pref = _flow(model, u, 0.0, model.sigma0, chis,
                                           (0.0, 0.0), at_out)
    mean = decay * model.v0 + shift
    hs = _SIGMA_STEP * np.maximum(1.0, np.abs(s))
    nu, m = nu_t(chis, model.constants), m_t(chis, model)
    a, g, b = _z0_coefficients(u, model, mode, chis)
    legs = s + np.multiply.outer(np.array([1.0, 0.0, -1.0]), hs)
    lu = legs.reshape(legs.shape[:1] + (1,) * np.ndim(u) + legs.shape[1:])
    z0 = np.exp(a + lu * (b * mean + lu * (g + 0.5 * b * b * var)))
    src = 0.5 * nu * nu * s * s * (z0[0] - 2.0 * z0[1] + z0[2]) / (hs * hs)
    beta = -m * s
    big_d = (1j * model.rho * _lead(u, chis)) * (nu * s * s) + beta * mean
    big_n = nu * nu * s + beta * var

    def inner_sum(x, w):
        """x summed over its inner legs, then over the inner nodes with weights w."""
        return np.einsum("...ok,ok->...o", x[0] + x[1], w)

    step = max(1, _Z2_BLOCK // np.size(u))
    for k in (slice(i, i + step) for i in range(0, len(chis), step)):
        kap, expo, fa, fb = _z1_field(model, mode, u, chis[k, None], legs[::2, k, None],
                                      inner[None, k], (at_out[0][k, None], at_out[1][k, None]),
                                      (at_in[0][None, k], at_in[1][None, k]))
        mu, sig = mean[..., None, k, None], var[None, k, None]
        g = fa + fb * (mu + kap * sig)
        e = np.exp(expo + kap * (mu + 0.5 * (kap * sig)))
        fb = fb + kap * g
        val = inner_sum(e * g, iw[k]) * big_d[..., None, k] \
            + inner_sum(e * fb, iw[k]) * big_n[None, k]
        src[..., k] += (val[..., 0, :] - val[..., 1, :]) / (2.0 * hs[k])
    return (np.exp(log_pref) * src) @ wts


def cf_values(u: np.ndarray, model: AdolModel,
              cfg: CorrectionConfig | None = None) -> np.ndarray:
    """CF of the log-return ln(S_T/S_0), truncated at cfg.order in xi, at
    each frequency of the 1-d array u: one z1 time rule and one z2 grid
    serve every u at once.  A value out of float range at a finite u (the
    zero order past |u| ~ 1e154, or at a deep imaginary u) raises
    OverflowError naming that u."""
    cfg = cfg or CorrectionConfig()
    u = np.asarray(u, dtype=complex)
    if u.ndim != 1:
        raise ValueError(f"cf_values takes a 1-d array of frequencies, got shape {u.shape}")
    z = _cf_zero(u, model, cfg.mode)
    if model.xi != 0.0 and cfg.order >= 1:
        if model.h >= 0.5:
            raise ValueError("correction pipeline requires H < 1/2")
        # every CF is 1 at u = 0: z0 is 1 and both corrections 0
        nonzero = u != 0
        if nonzero.any():
            us = u[nonzero]
            # terms out of float range are refused below, by u, not warned of
            with np.errstate(over="ignore", invalid="ignore"):
                zc = z[nonzero] + model.xi * _z1(model, cfg.mode, us)
                if cfg.order >= 2:
                    # at most _Z2_BLOCK frequencies per call, so z2's memory
                    # does not grow with len(u)
                    parts = np.array_split(us, math.ceil(len(us) / _Z2_BLOCK))
                    zc = zc + model.xi ** 2 * np.concatenate(
                        [_z2(model, cfg.mode, part) for part in parts])
            z[nonzero] = _in_float_range(zc, us, f"the order-{cfg.order} series")
    return z


def cf_total(u: complex, model: AdolModel,
             cfg: CorrectionConfig | None = None) -> complex:
    """CF of the log-return ln(S_T/S_0), truncated at cfg.order in xi, at
    the one frequency u: cf_values on an array of one."""
    return complex(cf_values(np.array([u], dtype=complex), model, cfg)[0])


# --------------------------------------------------------------------------
# PDE residual validator
# --------------------------------------------------------------------------

_RESIDUAL_STEP = 2e-4  # relative step of the residual's central differences
# the stencil's legs in steps of (t, sigma, v): the point, each +- and the sigma-v corners
_STENCIL = np.array([[0, 1, -1, 0, 0, 0, 0, 0, 0, 0, 0],
                     [0, 0, 0, 1, -1, 0, 0, 1, 1, -1, -1],
                     [0, 0, 0, 0, 0, 1, -1, 1, -1, 1, -1]], dtype=float)[..., None]


def pde_residual(u: complex, model: AdolModel, mode: str, sample_points) -> ResidualStats:
    """Finite-difference residual of the pricing equation for the zero order
    z at frequency u in the given mode, at each row (t, sigma, v) of the
    (n, 3) array-like sample_points, scaled per point by its largest term.
    Every term is a central difference, and all points' stencils take one
    coefficient call.  An empty probe is refused, as it would report no
    residual; a z or a term out of float range raises OverflowError."""
    pts = np.asarray(sample_points, dtype=float)
    if pts.size == 0:
        raise ValueError("pde_residual needs at least one sample point")
    if pts.ndim != 2 or pts.shape[1] != 3:
        raise ValueError(f"sample points must be an (n, 3) array, got shape {pts.shape}")
    u = complex(u)
    t, s, v = pts.T
    if not (t > 0.0).all():
        raise ValueError(f"sample times must be positive, got t = {t[~(t > 0.0)][0]}")
    # relative steps: to t, so that no leg reaches the origin, and to
    # max(1, |x|) in sigma and v
    ht, hs, hv = steps = _RESIDUAL_STEP * np.vstack([t, np.maximum(1.0, np.abs(pts[:, 1:].T))])
    kappa, xi, rho = model.kappa, model.xi, model.rho
    with np.errstate(over="ignore", invalid="ignore"):
        tt, ss, vv = pts.T[:, None] + _STENCIL * steps[:, None]
        a, g, b = _z0_coefficients(u, model, mode, tt)
        z, z_tp, z_tm, z_sp, z_sm, z_vp, z_vm, z_pp, z_pm, z_mp, z_mm = \
            np.exp(a + g * ss * ss + b * ss * vv)
        z_t = (z_tp - z_tm) / (2.0 * ht)
        z_ss = (z_sp - 2.0 * z + z_sm) / (hs * hs)
        z_s = (z_sp - z_sm) / (2.0 * hs)
        z_vv = (z_vp - 2.0 * z + z_vm) / (hv * hv)
        z_v = (z_vp - z_vm) / (2.0 * hv)
        z_sv = (z_pp - z_pm - z_mp + z_mm) / (4.0 * hs * hv)
        nu = nu_t(t, model.constants)
        m = m_t(t, model)
        terms = np.array([
            z_t,
            0.5 * xi * xi * nu * nu * s * s * z_ss,
            0.5 * nu * nu * z_vv,
            xi * nu * nu * s * z_sv,
            (-(kappa + xi * m * v) + 1j * u * rho * xi * nu * s) * s * z_s,
            (1j * u * rho * nu * s - m * v) * z_v,
            (-0.5 * u * (1j + u) * s * s + 1j * u * (model.r - model.q)) * z,
        ])
        res = np.abs(terms.sum(axis=0)) / np.maximum(np.abs(terms).max(axis=0), 1e-300)
    _in_float_range(res, u, "the zero order")
    return ResidualStats(float(res.max()), float(res.mean()), len(res))
