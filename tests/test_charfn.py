"""Characteristic-function engine.

The correction tests use an independent closed-form oracle: with the
cross coefficient identically zero, the first-order source is an explicit
polynomial in the transported state, and the whole convolution collapses
to a single time integral evaluated here by adaptive quadrature with
exact derivatives.  The engine must reproduce it through its
finite-difference stencil route.
"""

import cmath
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from adol import charfn as cfm
from adol.charfn import (
    J_QUAD_CENTER,
    J_QUADRATURE,
    MODE_AFFINE,
    MODE_PAPER,
    CorrectionConfig,
    MethodError,
    cf_total,
    cf_zero,
    coeffs_paper,
    correction,
    green_pieces,
    heat_kernel,
    j_integral,
    pde_residual,
    zero_order_fn,
)
from adol.do_process import nu_t
from adol.model import AdolModel, m_t
from adol.numerics import QuadratureError, QuadratureSpec, integrate_adaptive


# ----------------------------------------------------------- coefficients

def test_closed_form_gamma_pin(table1):
    co = coeffs_paper(1.0, table1)
    assert co.gamma(0.0).real == pytest.approx(-0.3512700411851261, rel=1e-12)
    assert co.gamma(0.0).imag == 0.0
    # terminal conditions close the exponent at T
    T = table1.t_mat
    assert abs(co.gamma(T)) <= 1e-14
    assert abs(co.alpha(T)) <= 1e-14
    assert abs(co.beta_bar(T)) <= 1e-14


def test_paper_mode_requires_rough(table1):
    with pytest.raises(ValueError):
        coeffs_paper(1.0, replace(table1, h=0.6))


def test_affine_matches_lognormal_cf(table1_xi0):
    # deterministic-vol limit: gamma must equal the explicit decay integral,
    # also at kappa = 0, where the integral is sigma0^2 T
    for kap in (2.0, 0.0):
        m = replace(table1_xi0, kappa=kap)
        T = m.t_mat
        iv = (m.sigma0 ** 2 * (1.0 - math.exp(-2.0 * kap * T)) / (2.0 * kap)
              if kap > 0.0 else m.sigma0 ** 2 * T)
        for u in np.linspace(-20.0, 20.0, 41):
            u = float(u)
            ref = cmath.exp(1j * u * (m.r - m.q) * T - 0.5 * u * (u + 1j) * iv)
            assert abs(cf_zero(u, m, MODE_AFFINE) - ref) <= 1e-10, (kap, u)


def test_beta_bar_primitive_vs_quadrature(table1):
    # the shipped power-law primitive against a freshly integrated one
    m = table1
    c = m.constants
    T, kap, u = m.t_mat, m.kappa, 1.3
    co = coeffs_paper(u, m)
    spec = QuadratureSpec(abs_tol=1e-14, rel_tol=1e-12, max_subdivisions=4000)

    def integrand(s: float) -> float:
        return (kap + m_t(s, m)) / nu_t(s, c)

    for t in (0.05, 0.2, 0.35, 0.49):
        quad = integrate_adaptive(integrand, t, T, spec).real
        ref = 1j * m.rho * u * (math.exp(kap * (t - T)) / nu_t(T, c)
                                - 1.0 / nu_t(t, c) + quad)
        got = co.beta_bar(t)
        assert abs(got - ref) <= 1e-10 * max(abs(ref), 1.0), t


# ------------------------------------------------------------- zero order

def test_cf_zero_equals_inception_slice(table1):
    for mode in (MODE_AFFINE, MODE_PAPER):
        fn = zero_order_fn(1.7, table1, mode)
        assert cf_zero(1.7, table1, mode) == pytest.approx(
            fn(0.0, table1.sigma0, table1.v0), rel=1e-14)


# admissible models for the zero-order properties; kappa = 0 is drawn
# exactly, as it takes the limit branch of the closed form
_MODELS = st.builds(
    AdolModel, s0=st.just(100.0), sigma0=st.floats(0.05, 1.0), v0=st.just(5.0),
    r=st.floats(-0.05, 0.1), q=st.floats(0.0, 0.1),
    kappa=st.just(0.0) | st.floats(0.0, 10.0), xi=st.just(0.05),
    rho=st.floats(-1.0, 1.0), h=st.floats(0.05, 0.95), m_rho=st.just(1.0),
    m_pi=st.just(0.5), t_mat=st.floats(0.05, 3.0))


@pytest.mark.parametrize("u", [0.4, 1.0, 3.3, 9.0])
@given(m=_MODELS)
@settings(max_examples=40, deadline=None)
def test_zero_order_conjugate_symmetry(u, m):
    zp = cf_zero(u, m, MODE_AFFINE)
    zm = cf_zero(-u, m, MODE_AFFINE)
    assert abs(zm - zp.conjugate()) <= 1e-13


@given(u=st.floats(min_value=-15.0, max_value=15.0), m=_MODELS)
@settings(max_examples=80, deadline=None)
def test_zero_order_is_a_characteristic_value(u, m):
    # |E exp(iuX)| <= 1 for real u; the affine mode satisfies it
    assert abs(cf_zero(u, m, MODE_AFFINE)) <= 1.0 + 1e-12


def test_zero_order_closed_form_is_not_a_characteristic_value(table1):
    # The closed-form mode reproduces its source coefficient set verbatim,
    # and that set's quadratic amplitude u[1 + u(1-rho)^2] carries an
    # odd-in-u real term (the generator it came from has -u(u+i)/2, which
    # is even-plus-i-odd, and no rho in the deterministic-vol limit).  Two
    # consequences, pinned here so a silent "repair" of the transcription
    # gets flagged: cf(-u) != conj(cf(u)), and |cf| > 1 on a small
    # negative-u window peaking at u* = -1/(2 (1-rho)^2).
    zp = cf_zero(1.0, table1, MODE_PAPER)
    zm = cf_zero(-1.0, table1, MODE_PAPER)
    assert abs(zm - zp.conjugate()) == pytest.approx(0.01903407504429667,
                                                     rel=1e-9)
    u_star = -1.0 / (2.0 * (1.0 - table1.rho) ** 2)
    peak = abs(cf_zero(u_star, table1, MODE_PAPER))
    assert peak > 1.0
    assert peak == pytest.approx(1.001081415204161, rel=1e-12)


def test_cf_total_normalization_all_orders(table1):
    for mode in (MODE_AFFINE, MODE_PAPER):
        for order in (0, 1, 2):
            cfg = CorrectionConfig(mode=mode, order=order)
            assert abs(cf_total(0.0, table1, cfg) - 1.0) <= 1e-12


def test_conjugate_symmetry_with_corrections(table1):
    cfg = CorrectionConfig(mode=MODE_AFFINE, order=1)
    for u in (0.7, 2.0):
        zp = cf_total(u, table1, cfg)
        zm = cf_total(-u, table1, cfg)
        assert abs(zm - zp.conjugate()) <= 1e-13


# -------------------------------------------------------- green machinery

def test_green_requires_rough(table1):
    with pytest.raises(ValueError):
        green_pieces(replace(table1, h=0.55))


def test_tau_shape_and_round_trip(table1):
    g = green_pieces(table1)
    T = table1.t_mat
    probes = [0.01, 0.1, 0.25, 0.4, 0.49]
    vals = [g.tau(t) for t in probes]
    assert all(a > b for a, b in zip(vals, vals[1:]))  # strictly decreasing
    assert all(v > 0.0 for v in vals)
    assert g.tau(T) == pytest.approx(0.0, abs=1e-14)
    for t in probes:
        assert g.t_of_tau(g.tau(t)) == pytest.approx(t, abs=1e-8)
    with pytest.raises(ValueError):
        g.t_of_tau(g.tau(0.01) * 2.0 + 1.0)


def test_tau_derivative_matches_jacobian(table1):
    g = green_pieces(table1)
    h = 1e-5
    for t in (0.1, 0.25, 0.4):
        fd = (g.tau(t + h) - g.tau(t - h)) / (2.0 * h)
        assert fd == pytest.approx(1.0 / g.g_jac(t), rel=1e-4), t


def test_transport_scale_shape(table1):
    g = green_pieces(table1)
    T = table1.t_mat
    assert g.alpha1(T) == pytest.approx(1.0, rel=1e-14)
    xs = [g.alpha1(t) for t in (0.05, 0.2, 0.35, T)]
    assert all(0.0 < x <= 1.0 for x in xs)
    assert all(a < b for a, b in zip(xs, xs[1:]))
    assert g.a1_int(0.0) == 0.0
    ys = [g.a1_int(t) for t in (0.1, 0.3, 0.5)]
    assert all(a < b for a, b in zip(ys, ys[1:]))


def test_tau_closed_form_gap_is_recorded(table1):
    # the exponential-integral form disagrees with the quadrature route;
    # the gap is measured and carried, never silently patched over
    g = green_pieces(table1)
    assert g.tau_closed_gap == pytest.approx(0.16642248752948324, rel=1e-9)


def test_heat_kernel_moments():
    tau = 0.13
    spec = QuadratureSpec(abs_tol=1e-12, rel_tol=1e-10, max_subdivisions=2000)
    s = 0.7
    lo, hi = s - 30.0 * math.sqrt(tau), s + 30.0 * math.sqrt(tau)
    mass = integrate_adaptive(lambda x: heat_kernel(s, x, tau), lo, hi, spec).real
    mean = integrate_adaptive(lambda x: x * heat_kernel(s, x, tau), lo, hi, spec).real
    var = integrate_adaptive(lambda x: (x - s) ** 2 * heat_kernel(s, x, tau),
                             lo, hi, spec).real
    assert mass == pytest.approx(1.0, rel=1e-10)
    assert mean == pytest.approx(s, abs=1e-10)
    assert var == pytest.approx(2.0 * tau, rel=1e-9)
    with pytest.raises(ValueError):
        heat_kernel(0.0, 0.0, 0.0)


# ------------------------------------------------------------- J integral

def _j_state(j_model, chi):
    green = green_pieces(j_model)
    sv = j_model.sigma0 * j_model.v0
    omega = math.exp(j_model.kappa * chi) * sv
    s_center = green.alpha1(chi) * j_model.v0 + 2.0 * green.tau(chi)
    return green, omega, s_center


def test_j_routes_agree(j_model):
    co = coeffs_paper(1.0, j_model)
    for frac in (0.3, 0.6, 0.9):
        chi = frac * j_model.t_mat
        green, omega, s_center = _j_state(j_model, chi)
        jq = j_integral(s_center, omega, chi, j_model, green, co,
                        method=J_QUADRATURE)
        jc = j_integral(s_center, omega, chi, j_model, green, co,
                        method=J_QUAD_CENTER)
        assert abs(jc - jq) / abs(jq) <= 1e-3, chi


def test_j_degenerate_closed_form(j_model):
    # with a vanishing pole weight the integral is a pure Gaussian moment
    co0 = coeffs_paper(0.0, j_model)
    chi = 0.5 * j_model.t_mat
    green, omega, s_center = _j_state(j_model, chi)
    ref = 2.0 * math.sqrt(math.pi * chi) * math.exp(s_center + chi)
    for method in (J_QUADRATURE, J_QUAD_CENTER):
        got = j_integral(s_center, omega, chi, j_model, green, co0, method=method)
        assert got.real == pytest.approx(ref, rel=1e-9)
        assert abs(got.imag) <= 1e-9 * ref


def test_j_rejects_bad_inputs(j_model):
    co = coeffs_paper(1.0, j_model)
    green, omega, s_center = _j_state(j_model, 0.25)
    with pytest.raises(ValueError):
        j_integral(s_center, omega, j_model.t_mat * 1.1, j_model, green, co)
    with pytest.raises(ValueError):
        j_integral(s_center, omega, 0.25, j_model, green, co, method="nope")
    # positive pole weight makes the integral divergent
    with pytest.raises(ValueError):
        j_integral(s_center, -omega, 0.25, j_model, green, co,
                   method=J_QUADRATURE)


def test_j_closed_routes_signal_inapplicability(j_model):
    co = coeffs_paper(1.0, j_model)
    chi = 0.25
    green, omega, _ = _j_state(j_model, chi)
    with pytest.raises(MethodError):
        # expansion center exactly on the pole
        j_integral(2.0 * chi, omega, chi, j_model, green, co,
                   method=J_QUAD_CENTER)


# ------------------------------------------------------------ corrections

def _oracle_z1(u: float, m: AdolModel) -> complex:
    """First-order term by exact derivatives and adaptive quadrature only."""
    uu = complex(u)
    c = m.constants
    kap, rho, T = m.kappa, m.rho, m.t_mat
    co = cfm._coeffs_for(uu, m, MODE_AFFINE)
    z0 = cf_zero(u, m, MODE_AFFINE)
    p = 1.0 + m.m_pi
    tight = QuadratureSpec(abs_tol=1e-13, rel_tol=1e-11, max_subdivisions=4000)

    def big_m(t: float) -> float:
        return m.m_rho * t ** p / p

    def e_damp(chi: float) -> float:
        return integrate_adaptive(
            lambda r: math.exp(big_m(r) - kap * r) * nu_t(r, c), 0.0, chi,
            tight).real

    def integrand(chi: float) -> complex:
        s_chi = m.sigma0 * math.exp(-kap * chi)
        mu = math.exp(-big_m(chi)) * (m.v0 + 1j * uu * rho * m.sigma0
                                      * e_damp(chi))
        return (2.0 * co.gamma(chi) * s_chi ** 2
                * (1j * uu * rho * nu_t(chi, c) * s_chi - m_t(chi, m) * mu))

    spec = QuadratureSpec(abs_tol=1e-12, rel_tol=1e-9, max_subdivisions=2000)
    return z0 * integrate_adaptive(integrand, 0.0, T, spec)


@pytest.mark.parametrize("u", [1.0, 2.5])
def test_first_order_matches_closed_oracle(table1, u):
    got = correction(1, u, table1, CorrectionConfig(mode=MODE_AFFINE))
    ref = _oracle_z1(u, table1)
    assert abs(got - ref) / abs(ref) <= 5e-6, (got, ref)


def test_flow_reproduces_zero_order(table1):
    # propagating the terminal slice back through the flow must return the
    # inception value: this pins every normalization in the propagator, at
    # kappa = 0 too, where the sigma ray stands still
    u = 1.0 + 0.0j
    x_h, w_h = cfm._hermite_rule(24)
    chis = np.array([0.15, 0.35, 0.5])
    for kap in (2.0, 0.0):
        m = replace(table1, kappa=kap)
        co = cfm._coeffs_for(u, m, MODE_AFFINE)
        tables = cfm._flow_tables(m)
        z00 = cfm._z0_slices(co, np.array([0.0]))(m.sigma0, m.v0)[0]
        s_tr, nodes, pref = cfm._flow_state(m, u, tables, 0.0, m.sigma0, m.v0,
                                            chis, x_h)
        # the affine slice ignores v, so it comes back without the node axis
        z0 = cfm._z0_slices(co, chis)(s_tr[:, None], nodes)
        towed = pref * (np.broadcast_to(z0, nodes.shape) @ w_h)
        for chi, val in zip(chis, towed):
            assert abs(val - z00) <= 1e-12, (kap, chi)


def test_stencil_richardson_ratio(table1):
    # halving the stencil steps must shrink the defect like h^2
    u = 1.0 + 0.0j
    co = cfm._coeffs_for(u, table1, MODE_AFFINE)
    tables = cfm._flow_tables(table1)
    base = 3e-2
    vals = []
    for k in range(3):
        cfg = CorrectionConfig(mode=MODE_AFFINE, sigma_step=base / 2 ** k,
                               v_step=base / 2 ** k)
        vals.append(cfm._z1_value(table1, co, cfg, tables))
    ratio = abs(vals[0] - vals[1]) / abs(vals[1] - vals[2])
    assert 3.0 <= ratio <= 5.0, ratio


def test_first_order_kernel_refuses_missed_tolerance(table1):
    # steps at the rounding floor make the source noise, which no halving of
    # the time step can integrate to 1e-7: the kernel must say so
    noisy = CorrectionConfig(mode=MODE_PAPER, sigma_step=1e-13, v_step=1e-13)
    with pytest.raises(QuadratureError):
        correction(1, 1.0, table1, noisy)
    strict = CorrectionConfig(mode=MODE_PAPER, quad=QuadratureSpec(
        abs_tol=1e-300, rel_tol=1e-15))
    with pytest.raises(QuadratureError):
        correction(1, 1.0, table1, strict)


class _AdaptiveFlow:
    """The flow transforms, each integrated adaptively from 0 at every s.
    Values are kept by s: adaptive bisection revisits the same nodes."""

    def __init__(self, m: AdolModel):
        c = m.constants
        big_m = lambda r: cfm._m_cum(r, m)
        self.ders = (
            lambda r: math.exp(big_m(r) - m.kappa * r) * nu_t(r, c),
            lambda r: math.exp(2.0 * big_m(r)) * nu_t(r, c) ** 2,
        )
        self.spec = QuadratureSpec(abs_tol=1e-16, rel_tol=1e-13,
                                   max_subdivisions=4000)
        self.seen: dict[float, tuple[float, float]] = {}

    def at(self, s: float) -> tuple[float, float]:
        if s not in self.seen:
            self.seen[s] = tuple(integrate_adaptive(d, 0.0, s, self.spec).real
                                 for d in self.ders)
        return self.seen[s]

    def __call__(self, s):
        vals = np.array([self.at(float(x)) for x in np.ravel(s)])
        return tuple(col.reshape(np.shape(s)) for col in vals.T)


@pytest.fixture(scope="module")
def adaptive_flow(table1):
    return _AdaptiveFlow(table1)


def _reference_z1(m: AdolModel, u: complex, mode: str, flow) -> complex:
    """z1 from the kernel's integrand with both of its numerical pieces
    swapped out: adaptive quadrature in time over adaptive flow transforms."""
    cfg = CorrectionConfig(mode=mode)
    co = cfm._coeffs_for(complex(u), m, mode)

    def integrand(chi: float) -> complex:
        return complex(cfm._z1_integrand(m, co, cfg, flow, 0.0, m.sigma0, m.v0,
                                         np.array([chi]))[0])

    spec = QuadratureSpec(abs_tol=1e-300, rel_tol=1e-11, max_subdivisions=4000)
    return integrate_adaptive(integrand, 0.0, m.t_mat, spec)


@pytest.mark.parametrize("mode", [MODE_AFFINE, MODE_PAPER])
def test_first_order_kernel_matches_adaptive_on_damped_contour(table1, mode,
                                                               adaptive_flow):
    # the frequencies the damped Fourier pricer visits, u = v - 2.5i.  At
    # v = 80, |z1| ~ 1e-25 sits far below cfg.quad.abs_tol, so the kernel
    # rightly stops at its first step; the agreement there is looser
    cfg = CorrectionConfig(mode=mode)
    for v in (0.0, 5.0, 20.0, 80.0):
        u = complex(v, -2.5)
        got = correction(1, u, table1, cfg)
        ref = _reference_z1(table1, u, mode, adaptive_flow)
        rel = 1e-9 if abs(ref) > cfg.quad.abs_tol else 1e-6
        assert abs(got - ref) <= rel * abs(ref), (v, got, ref)


def test_corrections_vanish_at_zero_frequency(table1):
    # at u = 0 every zero-order slice is 1, so every stencil difference is
    # an exact zero; cf_total skips the corrections there and must still
    # return what the series would
    for mode in (MODE_AFFINE, MODE_PAPER):
        cfg = CorrectionConfig(mode=mode)
        assert correction(1, 0.0, table1, cfg) == 0, mode
        assert correction(2, 0.0, table1, cfg) == 0, mode
        for order in (0, 1, 2):
            assert cf_total(0.0, table1, replace(cfg, order=order)) == 1, (mode, order)


def test_v_free_slices_equal_the_full_evaluation(table1):
    # a cross coefficient of 1e-300 rounds away in every exponent, yet sends
    # z0 through the full (state, time, Hermite) evaluation; the affine
    # slice that skips v must give the same numbers, not just close ones
    cfg = CorrectionConfig(mode=MODE_AFFINE, z2_panels=3)
    co = cfm._coeffs_for(1.0 + 0.0j, table1, MODE_AFFINE)
    full = replace(co, beta_bar=lambda t: 1e-300 + 0.0j)
    tables = cfm._flow_tables(table1)
    x_h, _ = cfm._hermite_rule(cfg.hermite_n)
    chis, _ = cfm._power_nodes(0.0, table1.t_mat, table1.h, 16, 10)
    s_tr, nodes, _ = cfm._flow_state(table1, co.u, tables, 0.0, table1.sigma0,
                                     table1.v0, chis, x_h)
    assert cfm._z0_slices(co, chis)(s_tr[:, None], nodes).shape == (len(chis), 1)
    assert cfm._z0_slices(full, chis)(s_tr[:, None], nodes).shape == nodes.shape

    def integrand(c):
        return cfm._z1_integrand(table1, c, cfg, tables, 0.0, table1.sigma0,
                                 table1.v0, chis)

    assert np.array_equal(integrand(co), integrand(full))
    assert cfm._z1_value(table1, co, cfg, tables) == cfm._z1_value(table1, full, cfg, tables)
    assert cfm._z2_point(table1, co, cfg, tables) == cfm._z2_point(table1, full, cfg, tables)


def _six_leg_integrand(m, co, cfg, tables, t, sigma, v, chis):
    """_z1_integrand with the full six-leg Phi1 stencil written out: the mixed
    difference is formed even where the z0 slice ignores v."""
    x_h, w_h = cfm._hermite_rule(cfg.hermite_n)
    s_tr, nodes, pref = cfm._flow_state(m, co.u, tables, t, sigma, v, chis, x_h)
    s = s_tr[..., None]
    hs = cfg.sigma_step * np.maximum(1.0, np.abs(s))
    hv = cfg.v_step * np.maximum(1.0, np.abs(nodes))
    nu, mr = cfm._nu_m(m, chis)
    z0 = cfm._z0_slices(co, chis)
    f_sv = (z0(s + hs, nodes + hv) - z0(s + hs, nodes - hv)
            - z0(s - hs, nodes + hv) + z0(s - hs, nodes - hv)) / (4.0 * hs * hv)
    f_s = (z0(s + hs, nodes) - z0(s - hs, nodes)) / (2.0 * hs)
    src = nu * nu * s * f_sv + (1j * co.u * m.rho * nu * s - mr * nodes) * s * f_s
    return pref * (src @ w_h)


def _fused_leg_z2(m, co, cfg, tables):
    """z2 with the inner z1 field on one fused batch of 6 x hermite_n states,
    one per (stencil leg, Hermite node), in blocks of 8 inner nodes."""
    T = m.t_mat
    x_h, w_h = cfm._hermite_rule(cfg.hermite_n)
    chis, wts = cfm._power_nodes(0.0, T, m.h, cfg.z2_panels + 6, 10)
    s_tr, nodes, pref = cfm._flow_state(m, co.u, tables, 0.0, m.sigma0, m.v0, chis, x_h)
    s_tr = s_tr[:, None]
    hs = cfg.sigma_step * np.maximum(1.0, np.abs(s_tr))
    hv = cfg.v_step * np.maximum(1.0, np.abs(nodes))
    nu, mr = cfm._nu_m(m, chis)
    src = np.broadcast_to(cfm._stencil_phi2(cfm._z0_slices(co, chis), nu, s_tr, nodes, hs),
                          nodes.shape).copy()
    nh = len(x_h)
    for j, chi in enumerate(chis):
        sj, hsj, hvj, vj = s_tr[j, 0], hs[j, 0], hv[j], nodes[j]
        sp, sm, vp, vm = sj + hsj, sj - hsj, vj + hvj, vj - hvj
        legs = ((sp, vp), (sp, vm), (sm, vp), (sm, vm), (sp, vj), (sm, vj))
        sb = np.repeat([a for a, _ in legs], nh)
        vb = np.concatenate([b for _, b in legs])
        inner, iw = cfm._power_nodes(chi, T, m.h, cfg.z2_panels, 8)
        f = sum(_six_leg_integrand(m, co, cfg, tables, chi, sb, vb, inner[i:i + 8])
                @ iw[i:i + 8] for i in range(0, len(inner), 8)).reshape(6, nh)
        f_sv = (f[0] - f[1] - f[2] + f[3]) / (4.0 * hsj * hvj)
        f_s = (f[4] - f[5]) / (2.0 * hsj)
        src[j] += nu[j] * nu[j] * sj * f_sv \
            + (1j * co.u * m.rho * nu[j] * sj - mr[j] * vj) * sj * f_s
    return complex(wts @ (pref * (src @ w_h)))


@pytest.mark.parametrize("mode", [MODE_AFFINE, MODE_PAPER])
@pytest.mark.parametrize("panels", [2, 3])
@pytest.mark.parametrize("hermite_n", [7, 12])
def test_z2_two_sigma_grid_is_bitwise_the_fused_batch(table1, mode, panels, hermite_n):
    cfg = CorrectionConfig(mode=mode, z2_panels=panels, hermite_n=hermite_n)
    tables = cfm._flow_tables(table1)
    for u in (1.0, 2.5 - 1.5j):
        co = cfm._coeffs_for(complex(u), table1, mode)
        assert cfm._z2_point(table1, co, cfg, tables) == \
            _fused_leg_z2(table1, co, cfg, tables), u


@pytest.mark.parametrize("mode", [MODE_AFFINE, MODE_PAPER])
def test_z1_integrand_is_bitwise_the_six_leg_stencil(table1, mode):
    # affine slices are v-free, so the kernel skips the mixed difference
    # there; the paper slices take the full stencil.  Both at inception and
    # from a (sigma, v) grid at a later t, as z2 calls it
    cfg = CorrectionConfig(mode=mode)
    tables = cfm._flow_tables(table1)
    chis, _ = cfm._power_nodes(0.0, table1.t_mat, table1.h, 2, 8)
    t = 0.2
    inner, _ = cfm._power_nodes(t, table1.t_mat, table1.h, 2, 8)
    sg = np.array([[0.31], [0.29]])
    vg = np.array([[4.0 + 0.1j, 5.0, 6.0 - 0.2j]])
    for u in (1.0, 2.5 - 1.5j):
        co = cfm._coeffs_for(complex(u), table1, mode)
        assert cfm._z0_slices(co, chis).v_free == (mode == MODE_AFFINE)
        got = cfm._z1_integrand(table1, co, cfg, tables, 0.0, table1.sigma0,
                                table1.v0, chis)
        want = _six_leg_integrand(table1, co, cfg, tables, 0.0, table1.sigma0,
                                  table1.v0, chis)
        assert np.array_equal(got, want), u
        got = cfm._z1_integrand(table1, co, cfg, tables, t, sg, vg, inner, tables(t))
        want = _six_leg_integrand(table1, co, cfg, tables, t, sg, vg, inner)
        assert got.shape == (2, 3, len(inner))
        assert np.array_equal(got, want), u


def test_first_order_golden(table1):
    # z1 pins here and below: adaptive quadrature in time at rel_tol 1e-11
    # over adaptively integrated flow transforms, as in _reference_z1
    cfg = CorrectionConfig(mode=MODE_AFFINE)
    z1 = correction(1, 1.0, table1, cfg)
    assert z1.real == pytest.approx(0.003369068529142478, rel=1e-9)
    assert z1.imag == pytest.approx(0.007121238546929628, rel=1e-9)
    z1b = correction(1, 2.5, table1, cfg)
    assert z1b.real == pytest.approx(0.019992390814217033, rel=1e-9)
    assert z1b.imag == pytest.approx(0.040308010668291365, rel=1e-9)


def test_first_order_decays_with_reversion_speed(table1):
    # golden file: faster sigma-reversion damps the first-order term
    pins = {
        2.0: 0.003369068529142478 + 0.007121238546929628j,
        4.0: 0.0010365624261316438 + 0.0024960686021983968j,
        8.0: 0.000151291401950316 + 0.0005998873580728601j,
    }
    cfg = CorrectionConfig(mode=MODE_AFFINE)
    mags = []
    for kap, pin in pins.items():
        m = replace(table1, kappa=kap)
        z1 = correction(1, 1.0, m, cfg)
        assert abs(z1 - pin) <= 1e-8 * abs(pin), kap
        mags.append(abs(z1))
    assert mags[0] > mags[1] > mags[2]
    # no reversion at all takes the closed form's limit branch, which must
    # join the kappa > 0 branch continuously
    z1_0 = correction(1, 1.0, replace(table1, kappa=0.0), cfg)
    z1_tiny = correction(1, 1.0, replace(table1, kappa=1e-14), cfg)
    assert abs(z1_0 - z1_tiny) <= 1e-12 * abs(z1_0)


def test_first_order_zero_without_coupling(table1):
    # no spot correlation and no reversion feedback: the source has
    # nothing to push on, at any frequency
    m = replace(table1, rho=0.0, m_rho=0.0)
    cfg = CorrectionConfig(mode=MODE_AFFINE)
    for u in (1.0, 3.0):
        assert correction(1, u, m, cfg) == 0.0


def test_second_order_golden_and_grid_insensitive(table1):
    cfg = CorrectionConfig(mode=MODE_AFFINE)
    z2 = correction(2, 1.0, table1, cfg)
    assert z2.real == pytest.approx(-0.034997055694803415, rel=1e-7)
    assert z2.imag == pytest.approx(-0.03737909392995669, rel=1e-7)
    # richer grids on every axis: hermite order, inner panels, outer panels
    rich = CorrectionConfig(mode=MODE_AFFINE, hermite_n=16, z2_panels=16)
    z2r = correction(2, 1.0, table1, rich)
    assert abs(z2r - z2) / abs(z2) <= 1e-6


def test_paper_mode_correction_goldens(table1):
    cfg = CorrectionConfig(mode=MODE_PAPER)
    z1 = correction(1, 1.0, table1, cfg)
    assert z1 == pytest.approx(-0.04434939512705193 - 0.10060767192180553j,
                               rel=1e-8)
    z2 = correction(2, 1.0, table1, cfg)
    assert z2 == pytest.approx(-0.1997282046434488 + 0.1614776082040144j,
                               rel=1e-8)


def test_cf_total_is_the_truncated_series(table1):
    cfg2 = CorrectionConfig(mode=MODE_AFFINE, order=2)
    cfg = CorrectionConfig(mode=MODE_AFFINE)
    u = 1.4
    z0 = cf_zero(u, table1, MODE_AFFINE)
    z1 = correction(1, u, table1, cfg)
    z2 = correction(2, u, table1, cfg)
    xi = table1.xi
    ref = z0 + xi * z1 + xi * xi * z2
    assert cf_total(u, table1, cfg2) == pytest.approx(ref, rel=1e-12)


def test_correction_guards(table1):
    with pytest.raises(ValueError):
        correction(3, 1.0, table1)
    with pytest.raises(ValueError):
        correction(1, 1.0, replace(table1, h=0.6))
    with pytest.raises(ValueError):
        cf_total(1.0, replace(table1, h=0.6),
                 CorrectionConfig(mode=MODE_AFFINE, order=1))
    with pytest.raises(ValueError):
        CorrectionConfig(order=5)
    with pytest.raises(ValueError):
        CorrectionConfig(sigma_step=0.0)
    with pytest.raises(ValueError):
        CorrectionConfig(hermite_n=1)
    with pytest.raises(ValueError):
        CorrectionConfig(mode="no-such-mode")


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_stencil_steps_must_be_finite(bad):
    # a NaN step used to surface only as a QuadratureError with a nan estimate
    for field in ("sigma_step", "v_step"):
        with pytest.raises(ValueError, match="stencil steps"):
            CorrectionConfig(**{field: bad})


# ----------------------------------------------------------- PDE residual

def _probe_points(m: AdolModel):
    T = m.t_mat
    return [(t, s, v)
            for t in (0.3 * T, 0.6 * T, 0.9 * T)
            for s in (0.2, 0.3, 0.45)
            for v in (2.0, 5.0)]


def test_residual_affine_deterministic_limit(table1_xi0):
    pts = _probe_points(table1_xi0)
    for u in (0.7, 1.0, 3.0):
        fn = zero_order_fn(complex(u), table1_xi0, MODE_AFFINE)
        st_ = pde_residual(fn, complex(u), table1_xi0, pts)
        assert st_.max_abs <= 1e-6, u


def test_residual_constant_function_is_exact(table1):
    pts = _probe_points(table1)
    st_ = pde_residual(lambda t, s, v: 1.0 + 0.0j, 0.0, table1, pts)
    assert st_.max_abs == 0.0
    assert st_.n_points == len(pts)


def test_residual_rejects_origin_points(table1):
    with pytest.raises(ValueError):
        pde_residual(lambda t, s, v: 1.0 + 0.0j, 0.0, table1,
                     [(1e-6, 0.3, 5.0)])
