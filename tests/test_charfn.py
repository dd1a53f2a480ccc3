"""Characteristic-function engine.

The correction tests use an independent closed-form oracle: with the
cross coefficient identically zero, the first-order source is an explicit
polynomial in the transported state, and the whole convolution collapses
to a single time integral evaluated here by adaptive quadrature with
exact derivatives.  The engine must reproduce it through its
finite-difference stencil route.
"""

import bisect
import cmath
import math
import warnings
from dataclasses import replace

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from adol import charfn as cfm
from adol.charfn import (
    MODE_AFFINE,
    MODE_PAPER,
    CorrectionConfig,
    cf_total,
    cf_values,
    cf_zero,
    j_closed,
    j_integral,
    j_state,
    pde_residual,
    tau_closed_gap,
)
from adol.do_process import nu_t
from adol.model import AdolModel, m_t
from adol.numerics import QuadratureError, QuadratureSpec, integrate_adaptive

import hermite_stencil as hk


def correction(order: int, u: complex, model: AdolModel,
               cfg: CorrectionConfig | None = None) -> complex:
    """The order-1 or order-2 term of the CF expansion at one frequency, at
    inception: charfn's z1 or z2 on cfg's mode."""
    if order not in (1, 2):
        raise ValueError("correction order must be 1 or 2")
    if model.h >= 0.5:
        raise ValueError("correction pipeline requires H < 1/2")
    mode = (cfg or CorrectionConfig()).mode
    z = cfm._z1 if order == 1 else cfm._z2
    return complex(z(model, mode, complex(u)))


@pytest.fixture
def cf_settings(monkeypatch):
    """Sets charfn's fixed numerical settings for one test, by keyword, e.g.
    cf_settings(_Z2_PANELS=3); the corrections read them at call time."""
    def set_(**values):
        for name, value in values.items():
            assert hasattr(cfm, name), name
            monkeypatch.setattr(cfm, name, value)
    return set_


# ----------------------------------------------------------- coefficients

def test_closed_form_gamma_pin(table1):
    gamma = cfm._z0_coefficients(1.0, table1, MODE_PAPER, 0.0)[1]
    assert gamma.real == pytest.approx(-0.3512700411851261, rel=1e-12)
    assert gamma.imag == 0.0
    # terminal conditions close the exponent at T
    T = table1.t_mat
    alpha, gamma, beta_bar = cfm._z0_coefficients(1.0, table1, MODE_PAPER, T)
    assert abs(gamma) <= 1e-14
    assert abs(alpha) <= 1e-14
    assert abs(beta_bar) <= 1e-14


def test_paper_mode_requires_rough(table1):
    with pytest.raises(ValueError):
        cfm._z0_coefficients(1.0, replace(table1, h=0.6), MODE_PAPER, 0.0)
    with pytest.raises(ValueError):
        pde_residual(1.0, replace(table1, h=0.6), MODE_PAPER, _probe_points(table1))


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


def test_unit_response_at_subnormal_kappa():
    # 2 kappa tau underflows here, and G / tau rounds to 1 well before
    for kappa in (5e-324, 1e-310, 0.0):
        assert cfm._unit_response(kappa, 0.25) == 0.25
        taus = np.array([0.0, 0.25, 3.0])
        assert np.array_equal(cfm._unit_response(kappa, taus), taus)
    # one small entry beside normal ones takes the same branch
    got = cfm._unit_response(2.0, np.array([1e-18, 0.25]))
    assert got[0] == 1e-18 and got[1] == -math.expm1(-1.0) / 4.0


# ------------------------------------------------------------- zero order

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


def test_conjugate_symmetry_with_corrections(table1):
    # cf(-conj u) = conj cf(u), bitwise: every step of the moment form
    # commutes with conjugation, on the real axis and on the damped contour
    for order in (1, 2):
        cfg = CorrectionConfig(mode=MODE_AFFINE, order=order)
        for u in (0.7, 2.0, 0.7 - 2.5j, 20.0 - 2.5j):
            zp = cf_total(u, table1, cfg)
            assert cf_total(-u.conjugate(), table1, cfg) == zp.conjugate(), (order, u)


def test_affine_cf_at_minus_i_is_the_forward_exactly(table1):
    # at u = -i the affine z0 does not depend on sigma (its quadratic
    # coefficient carries u (u + i)), so every sigma difference of z1 and z2
    # is an exact zero, and E[S_T / S_0] = e^((r - q) T) comes out exactly
    for m in (table1, replace(table1, q=0.03, kappa=0.0)):
        forward = math.exp((m.r - m.q) * m.t_mat)
        for order in (0, 1, 2):
            cfg = CorrectionConfig(mode=MODE_AFFINE, order=order)
            assert cf_total(-1j, m, cfg) == forward, order


# ------------------------------------------------- the clock and its scale

# The paper's transformed clock tau(t) = 1/2 int_t^T nu^2 alpha1^2 dr is
# half the variance of V_T given V_t, and its transport scale alpha1(t) is
# the decay e^(M(t) - M(T)): both are read off V's law from t to T.

def test_green_requires_rough(table1):
    with pytest.raises(ValueError, match="H < 1/2"):
        tau_closed_gap(replace(table1, h=0.55))


def test_tau_shape_and_round_trip(table1):
    T = table1.t_mat
    probes = np.array([0.01, 0.1, 0.25, 0.4, 0.49])
    tau = 0.5 * cfm._v_law(table1, probes, T)[1]
    assert np.all(np.diff(tau) < 0.0)  # strictly decreasing
    assert np.all(tau > 0.0)
    assert cfm._v_law(table1, T, T)[1] == 0.0


def test_tau_derivative_matches_jacobian(table1):
    # d tau / dt = -nu^2 alpha1^2 / 2, the clock's own definition
    c, T = table1.constants, table1.t_mat
    h = 1e-5
    for t in (0.1, 0.25, 0.4):
        tau_up, tau_dn = 0.5 * cfm._v_law(table1, np.array([t + h, t - h]), T)[1]
        decay = cfm._v_law(table1, t, T)[0]
        fd = (tau_up - tau_dn) / (2.0 * h)
        assert fd == pytest.approx(-0.5 * (nu_t(t, c) * decay) ** 2, rel=1e-8), t


@pytest.mark.parametrize("h", [0.1, 0.3, 0.45])
def test_tau_matches_high_precision_integral(table1, h):
    m = replace(table1, h=h)
    c, T, p = m.constants, m.t_mat, 1.0 + m.m_pi

    def big_m(r):
        return m.m_rho * r ** p / p

    def integrand(r):
        return (c.b_h * r ** (m.h - 0.5)) ** 2 * mp.exp(2 * (big_m(r) - big_m(T)))

    for frac in (1e-6, 1e-3, 0.5):
        t = frac * T
        with mp.workdps(30):
            ref = 0.5 * mp.quad(integrand, [t, T])
        tau = 0.5 * cfm._v_law(m, t, T)[1]
        assert float(abs(tau - ref) / ref) <= 1e-13, (h, frac)


def test_transport_scale_shape(table1):
    T = table1.t_mat
    assert cfm._v_law(table1, T, T)[0] == 1.0
    xs = cfm._v_law(table1, np.array([0.05, 0.2, 0.35, T]), T)[0]
    assert np.all((0.0 < xs) & (xs <= 1.0))
    assert np.all(np.diff(xs) > 0.0)


def test_tau_closed_form_gap_is_recorded(table1):
    # the exponential-integral form disagrees with the exact clock; the
    # gap is measured and carried, never silently patched over
    assert tau_closed_gap(table1) == pytest.approx(0.166422487382887, rel=1e-9)
    # at m_rho = 0 the closed form is a plain power law and must agree
    assert tau_closed_gap(replace(table1, m_rho=0.0)) <= 1e-13


def _paper_clock_gap_mp(m: AdolModel) -> float:
    """tau_closed_gap with the paper's clock, B_H^2 / (2p) e^(z_T)
    (t^(2H) E_nu(z_t) - T^(2H) E_nu(z_T)), nu = 1 - 2H / p and
    z_t = -m_rho t^p / p, formed by mpmath.expint at 50 digits (at
    m_rho = 0 by its limit B_H^2 (T^(2H) - t^(2H)) / (4H)); tau is the
    package's own, so the two gaps differ only by the clock."""
    c, T, p = m.constants, m.t_mat, 1.0 + m.m_pi
    ts = np.linspace(0.02 * T, T, 40)
    f = cfm._f_quad(m, ts)  # f_quad(T) read from the same array, so tau(T) is 0
    var = cfm._v_law(m, ts, T, f_s=f, f_t=f[-1])[1]
    # the times where V's variance stands above its tables' rounding
    resolved = var > 1e3 * np.finfo(float).eps * math.exp(-2.0 * cfm._m_cum(T, m)) * f[-1]
    tau = 0.5 * var[resolved]
    with mp.workdps(50):
        b_sq, two_h, pp, mr = mp.mpf(c.b_h) ** 2, 2 * mp.mpf(c.h), mp.mpf(p), mp.mpf(m.m_rho)

        def lead(t):
            if mr == 0:
                return -mp.mpf(t) ** two_h * pp / two_h
            return mp.mpf(t) ** two_h * mp.expint(1 - two_h / pp, -mr / pp * mp.mpf(t) ** pp)

        scale = b_sq / (2 * pp) * mp.exp(-mr / pp * mp.mpf(T) ** pp)
        closed = [float(mp.re(scale * (lead(t) - lead(T)))) for t in ts[resolved].tolist()]
    return float(np.max(np.abs(np.array(closed) - tau) / tau))


@pytest.mark.parametrize("m_rho, t_mat", [(0.0, 0.5), (1e-13, 0.5), (1e-10, 0.5), (1e-6, 0.5),
                                          (1.0, 0.5), (-1.0, 0.5), (-20.0, 0.5), (10.0, 2.0),
                                          (-100.0, 2.0)])
def test_tau_closed_gap_matches_paper_formula_in_mpmath(table1, m_rho, t_mat):
    # the clock is summed as the power series its exponential integrals
    # reduce to; the E form itself, evaluated in mpmath, must give the same gap
    m = replace(table1, m_rho=m_rho, t_mat=t_mat)
    assert tau_closed_gap(m) == pytest.approx(_paper_clock_gap_mp(m), rel=0.0, abs=1e-12)


@pytest.mark.parametrize("h", [0.05, 0.3, 0.45])
def test_tau_closed_gap_reads_only_resolved_times(table1, h):
    # at m_rho = -100, T = 2 the tables of f_quad agree to rounding beyond the
    # first 7-8 of the 40 times, so tau there is rounding noise, floored at 0:
    # a gap divided by it read 5.4e112 (h = 0.05) and 2.6e101 (h = 0.45).
    # Only the resolved times count, and there the clock matches mpmath's
    m = replace(table1, m_rho=-100.0, t_mat=2.0, h=h)
    gap = tau_closed_gap(m)
    assert 0.0 <= gap <= 1.0 + 1e-9, gap
    assert gap == pytest.approx(_paper_clock_gap_mp(m), rel=0.0, abs=1e-12)


def test_tau_closed_gap_is_nan_where_no_time_is_resolved(table1):
    # M(T) = -350 with a constant speed: the tables agree to rounding from
    # the first of the 40 times on, so no gap exists to report
    assert math.isnan(tau_closed_gap(replace(table1, h=0.05, m_rho=-700.0, m_pi=0.0)))


# ------------------------------------------------------------- J integral

def _j_reference(center: float, k: complex, chi: float) -> complex:
    """J at 30 digits by mpmath over the window j_integral integrates."""
    pole = 2.0 * chi
    with mp.workdps(30):
        mean, half = center + 2 * chi, 14 * mp.sqrt(2 * chi)
        lo, hi = mean - half, mean + half

        def f(x):
            return 0 if x == pole else mp.exp(mp.mpc(k) / (x - pole) ** 2 + x
                                              - (x - center) ** 2 / (4 * chi))

        return complex(mp.quad(f, [lo, pole, hi] if lo < pole < hi else [lo, hi]))


def test_j_matches_high_precision_quadrature(j_model):
    T = j_model.t_mat
    chis = np.array([0.05, 0.2, 0.5, 0.8, 1.0]) * T
    center, k = j_state(j_model, 1.0, chis)
    assert k[-1] == 0.0  # gamma vanishes at T
    got = j_integral(center, k, chis)
    for i, chi in enumerate(chis.tolist()):
        ref = _j_reference(float(center[i]), complex(k[i]), chi)
        assert abs(got[i] - ref) <= 1e-13 * abs(ref), chi


def test_j_degenerate_closed_form(j_model):
    # with a vanishing pole weight the integral is a pure Gaussian moment
    chi = 0.5 * j_model.t_mat
    center, k = j_state(j_model, 0.0, chi)
    assert k == 0.0
    ref = 2.0 * math.sqrt(math.pi * chi) * math.exp(center + chi)
    for got in (j_integral(center, k, chi), j_closed(center, k, chi)[0]):
        assert abs(got - ref) <= 1e-13 * ref


def test_j_rejects_bad_inputs(j_model):
    T = j_model.t_mat
    for bad in (0.0, -0.1, 1.1 * T):
        with pytest.raises(ValueError, match="source times"):
            j_state(j_model, 1.0, np.array([0.25, bad]))
    center, k = j_state(j_model, 1.0, 0.25)
    # positive pole weight makes the integral divergent, an imaginary one
    # leaves the pole undamped
    for bad in (-k, 1j * k):
        with pytest.raises(ValueError, match="Re k >= 0"):
            j_integral(center, bad, 0.25)


def test_j_refuses_a_missed_half_rule(j_model):
    # a tiny pole weight with the Gaussian's mean, center + 2 chi, on the
    # pole: exp(k / d^2) steps from 0 to 1 within a few 1e-3 of the pole,
    # which 64 nodes on each side resolve worse than 128 do
    chi, center, k = 0.25, 0.0, -1e-6 + 0j
    with pytest.raises(QuadratureError, match="half rule") as err:
        j_integral(center, k, chi)
    assert err.value.error_bound > 1e-9 * abs(err.value.estimate)


def test_j_closed_routes_signal_inapplicability(j_model):
    chi = 0.25
    _, k = j_state(j_model, 1.0, chi)
    # the expansion centre exactly on the pole, then a2 >= 0
    for center, kk in ((2.0 * chi, k), (2.0 * chi + 0.1, 1.0 + 0j)):
        val, a2 = j_closed(center, kk, chi)
        assert np.isnan(val)
    assert a2.real >= 0.0


# ------------------------------------------------------------ corrections

def _oracle_z1(u: float, m: AdolModel, flow) -> complex:
    """First-order term by exact derivatives and adaptive quadrature only:
    flow is m's _AdaptiveFlow, whose e_damp is integrated adaptively too."""
    uu = complex(u)
    c = m.constants
    kap, rho, T = m.kappa, m.rho, m.t_mat
    z0 = cf_zero(u, m, MODE_AFFINE)

    def integrand(chis: np.ndarray) -> np.ndarray:
        s_chi = m.sigma0 * np.exp(-kap * chis)
        mu = np.exp(-cfm._m_cum(chis, m)) * (m.v0 + 1j * uu * rho * m.sigma0 * flow(chis)[0])
        gamma = cfm._z0_coefficients(uu, m, MODE_AFFINE, chis)[1]
        return (2.0 * gamma * s_chi ** 2
                * (1j * uu * rho * nu_t(chis, c) * s_chi - m_t(chis, m) * mu))

    spec = QuadratureSpec(abs_tol=1e-12, rel_tol=1e-9, max_subdivisions=2000)
    return z0 * integrate_adaptive(integrand, 0.0, T, spec)


@pytest.mark.parametrize("u", [1.0, 2.5])
def test_first_order_matches_closed_oracle(table1, u, adaptive_flow):
    got = correction(1, u, table1, CorrectionConfig(mode=MODE_AFFINE))
    ref = _oracle_z1(u, table1, adaptive_flow)
    assert abs(got - ref) / abs(ref) <= 5e-6, (got, ref)


def test_flow_reproduces_zero_order(table1):
    # propagating the terminal slice back through the flow must return the
    # inception value: this pins every normalization in the propagator, at
    # kappa = 0 too, where the sigma ray stands still.  The affine slice
    # does not depend on v, so V's moments drop out of it
    u = 1.0 + 0.0j
    chis = np.array([0.15, 0.35, 0.5])
    for kap in (2.0, 0.0):
        m = replace(table1, kappa=kap)
        alpha, gamma, _ = cfm._z0_coefficients(u, m, MODE_AFFINE, chis)
        z00 = cf_zero(u, m, MODE_AFFINE)
        s, _, _, _, log_pref = cfm._flow(m, u, 0.0, m.sigma0, chis, (0.0, 0.0),
                                         cfm._flow_tables(m)(chis))
        towed = np.exp(log_pref + alpha + gamma * s * s)
        for chi, val in zip(chis, towed):
            assert abs(val - z00) <= 1e-12, (kap, chi)


@given(m=_MODELS, ks=st.lists(st.integers(0, 10 ** 6), min_size=3, max_size=3,
                              unique=True))
@settings(max_examples=200, deadline=None)
def test_v_law_obeys_chapman_kolmogorov(m, ks):
    # V_t given V_s is V_u given V_s carried on to t, for s < u < t:
    # decays multiply, and the variance at u decays into the one at t.
    # Over 3,000 draws on this grid of times the worst relative gap was
    # 5.6e-16 for the decay and 4.4e-16 for the variance
    s, u, t = (m.t_mat * k / 10 ** 6 for k in sorted(ks))
    d_st, v_st = cfm._v_law(m, s, t)
    d_su, v_su = cfm._v_law(m, s, u)
    d_ut, v_ut = cfm._v_law(m, u, t)
    assert d_su * d_ut == pytest.approx(d_st, rel=4e-15, abs=0.0)
    assert d_ut ** 2 * v_su + v_ut == pytest.approx(v_st, rel=4e-15, abs=0.0)
    for x in (0.0, s, u, t):
        assert cfm._v_law(m, x, x) == (1.0, 0.0)


def test_f_quad_array_with_origin_is_its_scalar_branch(table1):
    # the Monte Carlo grid starts at 0, where every node of the table's
    # rule sits at the singular r = 0: an array entry 0 reads 0 as the
    # scalar call does, and every other entry its own table value (to the
    # last bit or so: a batch and a single time sum the rule apart)
    times = np.array([0.0, 0.1, 0.0, 0.25, 0.5])
    got = cfm._f_quad(table1, times)
    want = [cfm._f_quad(table1, t) for t in times.tolist()]
    np.testing.assert_allclose(got, want, rtol=1e-15, atol=0.0)
    assert got[0] == got[2] == 0.0
    decay, var = cfm._v_law(table1, times[:-1], times[1:])
    assert np.isfinite(decay).all() and np.isfinite(var).all()


def test_stencil_richardson_ratio(table1, cf_settings):
    # halving the sigma step of the affine z1 must shrink its defect like h^2
    base = 3e-2
    vals = []
    for k in range(3):
        cf_settings(_SIGMA_STEP=base / 2 ** k)
        vals.append(correction(1, 1.0, table1, CorrectionConfig(mode=MODE_AFFINE)))
    ratio = abs(vals[0] - vals[1]) / abs(vals[1] - vals[2])
    assert 3.0 <= ratio <= 5.0, ratio


def test_first_order_kernel_refuses_missed_tolerance(table1, cf_settings):
    # steps at the rounding floor make the source noise, which no halving of
    # the time step can integrate to 1e-7: the kernel must say so
    cfg = CorrectionConfig(mode=MODE_PAPER)
    step = cfm._SIGMA_STEP
    cf_settings(_SIGMA_STEP=1e-13)
    with pytest.raises(QuadratureError):
        correction(1, 1.0, table1, cfg)
    cf_settings(_SIGMA_STEP=step, _Z1_ABS_TOL=1e-300, _Z1_REL_TOL=1e-15)
    with pytest.raises(QuadratureError):
        correction(1, 1.0, table1, cfg)


class _AdaptiveFlow:
    """The flow transforms, each integrated adaptively up to every s.  Values
    are kept by s, as adaptive bisection revisits the same nodes, and a new s
    adds the integral from the nearest s already held (0 at the start): the
    outer rule visits thousands of times, and each integral from 0 would
    cover the whole of [0, s] again."""

    def __init__(self, m: AdolModel):
        c = m.constants
        big_m = lambda r: cfm._m_cum(r, m)
        self.ders = (
            lambda r: np.exp(big_m(r) - m.kappa * r) * nu_t(r, c),
            lambda r: np.exp(2.0 * big_m(r)) * nu_t(r, c) ** 2,
        )
        self.spec = QuadratureSpec(abs_tol=1e-16, rel_tol=1e-13,
                                   max_subdivisions=4000)
        self.seen: dict[float, tuple[float, float]] = {0.0: (0.0, 0.0)}
        self.times = [0.0]  # the keys of seen, sorted

    def at(self, s: float) -> tuple[float, float]:
        if s not in self.seen:
            i = bisect.bisect(self.times, s)
            t0 = min(self.times[max(i - 1, 0):i + 1], key=lambda t: abs(t - s))
            sign = 1.0 if t0 < s else -1.0
            self.seen[s] = tuple(v + sign * integrate_adaptive(d, min(t0, s), max(t0, s),
                                                                self.spec).real
                                 for v, d in zip(self.seen[t0], self.ders))
            self.times.insert(i, s)
        return self.seen[s]

    def __call__(self, s):
        vals = np.array([self.at(float(x)) for x in np.ravel(s)])
        return tuple(col.reshape(np.shape(s)) for col in vals.T)


@pytest.fixture(scope="module")
def adaptive_flow(table1):
    return _AdaptiveFlow(table1)


def _reference_z1(m: AdolModel, u: complex, mode: str, flow) -> complex:
    """z1 from the moment form's integrand with both of its numerical pieces
    swapped out: adaptive quadrature in time over adaptive flow transforms."""
    def integrand(chis: np.ndarray) -> np.ndarray:
        return cfm._z1_terms(m, mode, complex(u), chis, flow(chis))

    spec = QuadratureSpec(abs_tol=1e-300, rel_tol=1e-11, max_subdivisions=4000)
    return integrate_adaptive(integrand, 0.0, m.t_mat, spec)


@pytest.mark.parametrize("mode", [MODE_AFFINE, MODE_PAPER])
def test_first_order_kernel_matches_adaptive_on_damped_contour(table1, mode,
                                                               adaptive_flow):
    # the frequencies the damped Fourier pricer visits, u = v - 2.5i.  At
    # v = 80, |z1| ~ 1e-25 sits far below _Z1_ABS_TOL, so the kernel
    # rightly stops at its first step; the agreement there is looser
    cfg = CorrectionConfig(mode=mode)
    for v in (0.0, 5.0, 20.0, 80.0):
        u = complex(v, -2.5)
        got = correction(1, u, table1, cfg)
        ref = _reference_z1(table1, u, mode, adaptive_flow)
        rel = 1e-9 if abs(ref) > cfm._Z1_ABS_TOL else 1e-6
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


def test_v_free_slices_equal_the_full_evaluation(table1, cf_settings, monkeypatch):
    # a cross coefficient of 1e-300 rounds away in every exponent, yet sends
    # z0 through the kernel's full (state, time, Hermite) evaluation; the
    # kernel's affine slice that skips v must give the same numbers, not
    # just close ones.  The moment form has one path for every tilt, and a
    # tilt that rounds away leaves its numbers as they are too
    kcfg = hk.KernelConfig(mode=MODE_AFFINE, z2_panels=3)
    cf_settings(_Z2_PANELS=3)
    u = 1.0 + 0.0j
    tables = cfm._flow_tables(table1)
    x_h, _ = hk._hermite_rule(kcfg.hermite_n)
    chis, _ = cfm._power_nodes(0.0, table1.t_mat, table1.h, 16, 10)
    s_tr, nodes, _ = hk._flow_state(table1, u, tables, 0.0, table1.sigma0,
                                    table1.v0, chis, x_h)

    def values():
        """The slice at the flow's states, the kernel's integrand, z1 and
        z2, and charfn's z1 and z2."""
        return (hk._z0_slices(table1, MODE_AFFINE, u, chis)(s_tr[:, None], nodes),
                hk._z1_integrand(table1, u, kcfg, tables, 0.0, table1.sigma0,
                                 table1.v0, chis),
                hk._z1_value(table1, u, kcfg, tables), hk._z2_point(table1, u, kcfg, tables),
                cfm._z1(table1, MODE_AFFINE, u), cfm._z2(table1, MODE_AFFINE, u))

    free = values()
    coefficients = cfm._z0_coefficients

    def tilted(*args):
        alpha, gamma, _ = coefficients(*args)
        return alpha, gamma, 1e-300 + 0.0j

    for module in (cfm, hk):
        monkeypatch.setattr(module, "_z0_coefficients", tilted)
    full = values()
    assert free[0].shape == (len(chis), 1)
    assert full[0].shape == nodes.shape
    assert np.array_equal(free[1], full[1])
    assert free[2] == full[2]
    assert free[3] == full[3]
    assert free[4] == full[4]
    assert free[5] == full[5]


def _z1_untabulated(m, mode, u, tables):
    """_z1 with the flow tables evaluated at the rule's nodes on every call,
    in place of the per-model tabulation."""
    chis, w, k = cfm._z1_rule(m.t_mat)
    even = k % 2 == 0

    def terms(nodes):
        return cfm._z1_terms(m, mode, u, nodes, tables(nodes))

    f_even = terms(chis[even])
    fine = 2.0 * complex(f_even @ w[even])
    coarse = 4.0 * complex(f_even[k[even] % 4 == 0] @ w[k % 4 == 0])
    if abs(fine - coarse) <= max(cfm._Z1_ABS_TOL, cfm._Z1_REL_TOL * abs(fine)):
        return fine
    return 0.5 * fine + complex(terms(chis[~even]) @ w[~even])


@pytest.mark.parametrize("mode", [MODE_AFFINE, MODE_PAPER])
def test_z1_reads_the_tabulated_rule_bitwise(table1, mode, cf_settings):
    # at rel_tol 1e-8 every u takes the halved rule, so both tabulated
    # halves are read
    tables = cfm._flow_tables(table1)
    for rel_tol in (1e-7, 1e-8):
        cf_settings(_Z1_REL_TOL=rel_tol)
        for u in (1.0, 2.5 - 1.5j, 20.0 - 2.5j):
            u = complex(u)
            assert cfm._z1(table1, mode, u) == _z1_untabulated(table1, mode, u, tables), \
                (rel_tol, u)


@pytest.mark.parametrize("kappa", [2.0, 0.0])
def test_z0_slices_equal_the_per_node_loop(table1, kappa):
    # one array call per coefficient in place of a scalar call per node: the
    # affine arithmetic is unchanged, so the slices are the same numbers.
    # The paper beta_bar's numpy powers and exp may round differently from
    # their scalar forms by an ulp, which exp turns into a relative error of
    # an ulp times the exponent.  t = 0 is a node, where 1/nu = 0
    m = replace(table1, kappa=kappa)
    assert m.r != m.q
    T = m.t_mat
    chis = np.concatenate([[0.0], cfm._z1_rule(T)[0],
                           cfm._power_nodes(0.0, T, m.h, 4, 10)[0]])
    s = (m.sigma0 * np.exp(-kappa * chis))[:, None]
    v = m.v0 + np.array([-1.5 + 0.2j, 0.0, 2.0 - 0.1j])

    def exponent(coefficients):
        a, g, b = (np.asarray(x, dtype=complex)[..., None] for x in coefficients)
        return a + g * s * s + b * s * v

    for u in (1.0, 2.5 - 1.5j, 20.0 - 2.5j):
        u = complex(u)
        for mode in (MODE_AFFINE, MODE_PAPER):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                got = np.exp(exponent(cfm._z0_coefficients(u, m, mode, chis)))
            expo = exponent(np.array([[complex(x) for x in cfm._z0_coefficients(
                u, m, mode, float(c))] for c in chis]).T)
            if mode == MODE_AFFINE:
                assert np.array_equal(got, np.exp(expo)), u
            else:
                scale = np.abs(np.exp(expo)) * np.maximum(1.0, np.abs(expo))
                assert np.all(np.abs(got - np.exp(expo)) <= 1e-15 * scale), u
    with pytest.raises(ValueError, match="nonnegative"):
        cfm._z0_coefficients(u, m, MODE_PAPER, np.array([0.1, -1e-3]))


_MOMENT_FORM_US = (1.0, 2.5, 5.0, 0.5 - 2.5j, 20.0 - 2.5j, 2.5 - 1.5j)


def _moment_form_models(table1):
    ref = replace(table1, s0=1.0, r=0.0)  # table1 itself has r != q
    return {"table1": table1, "ref": ref, "kappa0": replace(table1, kappa=0.0),
            "rho0": replace(table1, rho=0.0), "m_rho0": replace(table1, m_rho=0.0)}


@pytest.mark.parametrize("name", ["table1", "ref", "kappa0", "rho0", "m_rho0"])
def test_affine_moment_form_matches_the_hermite_stencil_kernel(table1, name, cf_settings):
    # the kernel integrates the same flow over a Hermite rule and a v
    # stencil; the affine z1 field is linear in v and Phi1 of it quadratic
    # in V, so both are exact there and only rounding parts the two.  The
    # worst gaps seen were 2.6e-13 (z1) and 1.3e-12 (z2)
    m = _moment_form_models(table1)[name]
    tables = cfm._flow_tables(m)
    cf_settings(_Z2_PANELS=3)
    kcfg = hk.KernelConfig(mode=MODE_AFFINE, z2_panels=3)
    for u in _MOMENT_FORM_US:
        u = complex(u)
        want = hk._z1_value(m, u, kcfg, tables)
        assert abs(cfm._z1(m, MODE_AFFINE, u) - want) <= 1e-11 * abs(want), u
        want = hk._z2_point(m, u, kcfg, tables)
        assert abs(cfm._z2(m, MODE_AFFINE, u) - want) <= 1e-11 * abs(want), u


def test_affine_moment_form_honours_the_z2_panels(table1, cf_settings):
    # from 3 panels to 16 the z2 moves by 5.8e-6 (u = 2.5 - 1.5i) and
    # 2.3e-5 (u = 5) relative; the moment form follows the kernel on both
    tables = cfm._flow_tables(table1)

    def z2(u, panels):
        cf_settings(_Z2_PANELS=panels)
        return cfm._z2(table1, MODE_AFFINE, u)

    for u in (5.0, 2.5 - 1.5j):
        u = complex(u)
        want = hk._z2_point(table1, u, hk.KernelConfig(mode=MODE_AFFINE, z2_panels=16), tables)
        got = z2(u, 16)
        assert abs(got - want) <= 1e-11 * abs(want), u
        assert abs(got - z2(u, 3)) > 1e-6 * abs(want), u


def _kernel_limit(term, m, u, steps, **knobs):
    """The kernel's paper-mode value Richardson-extrapolated over the v
    steps (h, h / 2): its v difference has an O(h^2) bias."""
    f1, f2 = (term(m, u, hk.KernelConfig(mode=MODE_PAPER, v_step=h, **knobs),
                   cfm._flow_tables(m)) for h in steps)
    return (4.0 * f2 - f1) / 3.0


def test_paper_z1_is_the_kernel_limit(table1):
    # z0 = exp(a + g s^2 + b s v) tilts V by e^(b s V), which the moment
    # form takes in closed form; the kernel reaches it as its Hermite rule
    # grows and its v step shrinks.  The worst gap seen was 6.4e-11, while
    # the kernel's default sizes (12 nodes, step 1e-3) sit 5e-8 to 1.9e-6
    # away.  At T = 2 the z1 time rule refuses u = 5 and 20 - 2.5i in both
    ref = _moment_form_models(table1)["ref"]
    models = (ref, replace(ref, kappa=0.0), replace(ref, r=0.03, q=0.01, v0=-2.0),
              replace(ref, t_mat=2.0))
    for m in models:
        for u in _MOMENT_FORM_US:
            if m.t_mat == 2.0 and u in (5.0, 20.0 - 2.5j):
                continue
            u = complex(u)
            want = _kernel_limit(hk._z1_value, m, u, (1e-3, 5e-4), hermite_n=40)
            assert abs(cfm._z1(m, MODE_PAPER, u) - want) <= 1e-9 * abs(want), (m, u)


def test_paper_z2_is_the_kernel_limit(table1, cf_settings):
    # the kernel's nested v stencils leave its Richardson limit with a
    # rounding floor near 1e-7: its two steps part by 4e-7 and 1.1e-6 here.
    # The gaps seen were 1.9e-8 and 5.5e-9 at 12 Hermite nodes, 4.4e-9 and
    # 6.0e-9 at 16
    m = _moment_form_models(table1)["ref"]
    cf_settings(_Z2_PANELS=2)
    for u in (1.0, 2.5 - 1.5j):
        u = complex(u)
        want = _kernel_limit(hk._z2_point, m, u, (4e-3, 2e-3), z2_panels=2)
        assert abs(cfm._z2(m, MODE_PAPER, u) - want) <= 2e-7 * abs(want), u


def test_paper_z1_refusal_is_the_time_rule(table1):
    # a known deviation: the tanh-sinh time rule of z1 refuses paper mode at
    # h = 0.1, u = 1, and at T = 2, u = 5 and u = 20 - 2.5i.  The
    # Hermite-stencil kernel refused the same points, at h = 0.1 with the
    # same estimate and error bound, so the refusals are the time rule's,
    # not the stencil's
    ref = _moment_form_models(table1)["ref"]
    cfg = CorrectionConfig(mode=MODE_PAPER)
    with pytest.raises(QuadratureError, match="tanh-sinh rule for z1") as err:
        correction(1, 1.0, replace(ref, h=0.1), cfg)
    assert err.value.estimate == pytest.approx(-0.4817077 - 29.927653j, rel=1e-6)
    assert err.value.error_bound == pytest.approx(6.792e-3, rel=1e-3)
    for u in (5.0, 20.0 - 2.5j):
        with pytest.raises(QuadratureError, match="tanh-sinh rule for z1"):
            correction(1, u, replace(ref, t_mat=2.0), cfg)


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


def test_second_order_golden_and_grid_insensitive(table1, cf_settings):
    cfg = CorrectionConfig(mode=MODE_AFFINE)
    z2 = correction(2, 1.0, table1, cfg)
    assert z2.real == pytest.approx(-0.034997055694803415, rel=1e-7)
    assert z2.imag == pytest.approx(-0.03737909392995669, rel=1e-7)
    # richer grids on both time axes: inner panels, outer panels
    cf_settings(_Z2_PANELS=16)
    z2r = correction(2, 1.0, table1, cfg)
    assert abs(z2r - z2) / abs(z2) <= 1e-6


def test_paper_mode_correction_goldens(table1):
    # the moment form's values; the Hermite-stencil kernel's Richardson
    # limit sits 1.2e-11 (z1: 40 nodes, v steps 1e-3 and 5e-4) and 6.7e-10
    # (z2: 24 nodes, v steps 4e-3 and 2e-3) from them
    cfg = CorrectionConfig(mode=MODE_PAPER)
    z1 = correction(1, 1.0, table1, cfg)
    assert z1 == pytest.approx(-0.0443493957779144 - 0.10060767429857377j,
                               rel=1e-8)
    z2 = correction(2, 1.0, table1, cfg)
    assert z2 == pytest.approx(-0.19972822286488964 + 0.16147760553587276j,
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


# ----------------------------------------------------- arrays of frequencies

# the real axis, u = -i, and the damped contour u = v - 2.5i out to the
# pricer's default u_max, where |cf| is about 1e-146
_ARRAY_US = np.array([0.0, -1j, 1.0, 5.0, 20.0 - 2.5j, 40.0 - 0.5j, 149.9 - 2.5j])


@pytest.mark.parametrize("mode", [MODE_AFFINE, MODE_PAPER])
@pytest.mark.parametrize("order", [0, 1, 2])
def test_cf_values_are_the_per_frequency_values(table1, mode, order):
    # one coefficient set, z1 time rule and z2 grid for the whole array; each
    # entry is what cf_total gives at its u alone, up to the summation order
    # of the node sums
    cfg = CorrectionConfig(mode=mode, order=order)
    got = cf_values(_ARRAY_US, table1, cfg)
    want = np.array([cf_total(u, table1, cfg) for u in _ARRAY_US])
    assert got.shape == _ARRAY_US.shape
    assert np.all(np.abs(got - want) <= 1e-13 * np.abs(want)), np.abs(got - want) / np.abs(want)


@pytest.mark.parametrize("order", [0, 1, 2])
def test_cf_values_keep_the_exact_identities_entry_by_entry(table1, order):
    # cf(0) = 1 in both modes; in affine-ode mode cf(-conj u) = conj cf(u)
    # and cf(-i) = e^((r - q) T), bitwise, with u and -conj u in one array
    # (the paper mode's closed-form slices are not conjugate-symmetric)
    for mode in (MODE_AFFINE, MODE_PAPER):
        cfg = CorrectionConfig(mode=mode, order=order)
        z = cf_values(np.concatenate([_ARRAY_US, -_ARRAY_US.conj()]), table1, cfg)
        assert z[0] == 1 and z[len(_ARRAY_US)] == 1, mode
        if mode == MODE_AFFINE:
            assert np.array_equal(z[len(_ARRAY_US):], z[:len(_ARRAY_US)].conj())
            assert z[1] == math.exp((table1.r - table1.q) * table1.t_mat)


def test_z1_halving_is_decided_per_frequency(table1, monkeypatch, cf_settings):
    # at rel_tol 5e-8 the step-0.15 rule misses at u = 1 (its gap to the
    # step-0.3 rule is 5.7e-8 relative) and meets it at u = 20 - 2.5i (8.2e-9):
    # alone, one takes the halved rule and the other does not; together, each
    # keeps its own value
    cf_settings(_Z1_REL_TOL=5e-8)
    calls = []
    terms = cfm._z1_terms
    monkeypatch.setattr(cfm, "_z1_terms", lambda *args: calls.append(1) or terms(*args))

    def z1(us):
        calls.clear()
        val = cfm._z1(table1, MODE_AFFINE, np.array(us, dtype=complex))
        return val, len(calls)

    (halved, n_halved), (direct, n_direct) = z1([1.0]), z1([20.0 - 2.5j])
    assert (n_halved, n_direct) == (2, 1)
    both, n_both = z1([1.0, 20.0 - 2.5j])
    assert n_both == 2
    want = np.concatenate([halved, direct])
    assert np.all(np.abs(both - want) <= 1e-13 * np.abs(want))


def test_z1_refusal_names_the_frequency(table1):
    # at T = 2 the paper mode's z1 time rule refuses u = 5 and takes u = 1
    # (see test_paper_z1_refusal_is_the_time_rule): in one array the refusal
    # names u = 5, with the estimate and error bound of its own refusal
    m = replace(table1, s0=1.0, r=0.0, t_mat=2.0)
    cfg = CorrectionConfig(mode=MODE_PAPER)
    with pytest.raises(QuadratureError, match=r"tanh-sinh rule for z1 .* at u = \(5\+0j\)") as alone:
        correction(1, 5.0, m, cfg)
    with pytest.raises(QuadratureError, match=r"at u = \(5\+0j\)") as err:
        cf_values(np.array([1.0, 5.0]), m, cfg)
    assert err.value.estimate == pytest.approx(alone.value.estimate, rel=1e-13)
    assert err.value.error_bound == pytest.approx(alone.value.error_bound, rel=1e-9)
    assert correction(1, 1.0, m, cfg) != 0


def test_z2_batches_stay_within_the_block(table1, monkeypatch, cf_settings):
    # 23 frequencies at order 2: cf_values hands _z2 at most _Z2_BLOCK of
    # them per call, and no batch of z2's z1 field holds more than _Z2_BLOCK
    # outer nodes times frequencies, so z2's memory does not grow with
    # len(u); each entry is still its own scalar value
    us = np.linspace(0.0, 5.0, 23) - 0.5j * np.linspace(0.0, 1.0, 23)
    cfg = CorrectionConfig(mode=MODE_AFFINE, order=2)
    cf_settings(_Z2_PANELS=2)
    sizes, batches = [], []
    z2, field = cfm._z2, cfm._z1_field

    def counting_z2(model, mode, u):
        sizes.append(np.size(u))
        return z2(model, mode, u)

    def counting_field(model, mode, u, t, *rest):
        if np.ndim(t) == 2:  # z2's outer nodes, (nodes, 1)
            batches.append(np.size(u) * np.shape(t)[0])
        return field(model, mode, u, t, *rest)

    monkeypatch.setattr(cfm, "_z2", counting_z2)
    monkeypatch.setattr(cfm, "_z1_field", counting_field)
    got = cf_values(us, table1, cfg)
    assert sum(sizes) == len(us) - 1 and max(sizes) <= cfm._Z2_BLOCK, sizes
    assert batches and max(batches) <= cfm._Z2_BLOCK, batches
    want = np.array([cf_total(u, table1, cfg) for u in us])
    assert np.all(np.abs(got - want) <= 1e-13 * np.abs(want)), np.abs(got - want) / np.abs(want)


@pytest.mark.parametrize("mode", [MODE_AFFINE, MODE_PAPER])
def test_z2_does_not_depend_on_its_batching(table1, cf_settings, mode):
    # _Z2_BLOCK bounds only how many outer nodes one batch of z2's z1 field
    # holds: every outer node's sum is the same arithmetic at any bound
    us = np.array([1.0, 2.5, 5.0, 0.5 - 2.5j, 20.0 - 2.5j, 2.5 - 1.5j])
    values = []
    for block in (1, 10, 20, 40):
        cf_settings(_Z2_BLOCK=block)
        values.append(cfm._z2(table1, mode, us))
    for block, got in zip((10, 20, 40), values[1:]):
        assert np.array_equal(got, values[0]), (block, got - values[0])


def test_power_nodes_take_an_array_of_lower_ends(table1):
    # z2 builds the inner nodes of all its outer nodes in one call: each row
    # is bitwise the call on that row's lower end, and a float end gives 1-d
    # nodes and weights
    T, h = table1.t_mat, table1.h
    chis, _ = cfm._power_nodes(0.0, T, h, cfm._Z2_PANELS + 6, 10)
    inner, iw = cfm._power_nodes(chis, T, h, cfm._Z2_PANELS, 8)
    assert inner.shape == iw.shape == (len(chis), cfm._Z2_PANELS * 8)
    for chi, row, wrow in zip(chis, inner, iw):
        nodes, weights = cfm._power_nodes(chi, T, h, cfm._Z2_PANELS, 8)
        assert nodes.ndim == weights.ndim == 1
        assert np.array_equal(nodes, row) and np.array_equal(weights, wrow), chi


def test_cf_values_refuse_a_scalar_or_a_grid(table1):
    for bad in (1.0, np.ones((2, 2))):
        with pytest.raises(ValueError, match="1-d array"):
            cf_values(bad, table1)


@pytest.mark.parametrize("order", [0, 1, 2])
def test_non_finite_frequencies_are_refused(table1, order):
    # every zero-order coefficient is built through charfn._frequencies, which
    # names the bad u before any arithmetic: at order 0 a NaN once came back
    # as nan+nanj, and at orders 1 and 2 the z1 time rule took the blame.  A
    # lone frequency, Python's or numpy's, skips the array check but not the
    # refusal, which names it as the array check would
    cfg = CorrectionConfig(order=order)
    for bad in (math.nan, math.inf, complex(1.0, math.nan), complex(-math.inf, 0.0),
                np.float64(-math.inf), np.complex128(complex(2.0, math.nan))):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="frequencies must be finite"):
                cf_values(np.array([1.0, bad]), table1, cfg)
            for mode in (MODE_AFFINE, MODE_PAPER):
                with pytest.raises(ValueError, match="frequencies must be finite"):
                    cf_zero(bad, table1, mode)
                with pytest.raises(ValueError, match="frequencies must be finite") as lone:
                    pde_residual(bad, table1, mode, _probe_points(table1))
                with pytest.raises(ValueError) as batch:
                    cf_zero(np.array([bad]), table1, mode)
                assert str(lone.value) == str(batch.value), (bad, mode)


# finite frequencies whose zero order leaves float range: past |u| ~ 1e154
# u * u overflows, and at u = -600i the exponent does
_HUGE_US = [10.0 ** k for k in (20, 50, 100, 150, 152, 153, 154, 155, 160, 200)] + [-600j]


@pytest.mark.parametrize("mode", [MODE_AFFINE, MODE_PAPER])
@pytest.mark.parametrize("order", [0, 1, 2])
def test_values_out_of_float_range_are_refused_by_frequency(table1, mode, order):
    # each value is finite, or the call raises OverflowError naming its u;
    # in paper mode u = 1e153 once came back nan+nanj at order 2 and u = 1e154
    # as a z1 tolerance miss, and cf_zero(1e155) as nan+nanj in both modes,
    # all without a warning
    cfg = CorrectionConfig(mode=mode, order=order)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for u in _HUGE_US:
            calls = [lambda: cf_values(np.array([1.0, u]), table1, cfg)[1]]
            if order == 0:
                calls.append(lambda: cf_zero(u, table1, mode))
            for call in calls:
                try:
                    z = call()
                except OverflowError as err:
                    assert f"at u = {complex(u)} left float range" in str(err), (u, err)
                else:
                    assert cmath.isfinite(z), (u, z)


def test_z1_estimate_out_of_float_range_is_refused_as_such(table1):
    # the z1 rule names an estimate out of float range for what it is, not
    # as a tolerance it missed
    with np.errstate(all="ignore"):
        for mode, u in ((MODE_AFFINE, 1e155), (MODE_PAPER, 1e154)):
            with pytest.raises(OverflowError, match=r"z1 estimate at u = \(1e\+15[45]\+0j\)"):
                cfm._z1(table1, mode, np.array([1.0, u], dtype=complex))


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
    # both modes take V's law and the v derivatives exactly: no Hermite
    # size and no v step are left to set.  The sigma step, z1's tolerance
    # and z2's panel count are charfn constants, which no caller sets
    for field in ("hermite_n", "v_step", "sigma_step", "quad", "z2_panels"):
        with pytest.raises(TypeError):
            CorrectionConfig(**{field: 12})
    with pytest.raises(ValueError):
        CorrectionConfig(mode="no-such-mode")


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
        st_ = pde_residual(u, table1_xi0, MODE_AFFINE, pts)
        assert st_.max_abs <= 1e-6, u


def test_residual_constant_function_is_exact(table1):
    # at u = 0 every coefficient is 0, so z is the constant 1 at every leg
    pts = _probe_points(table1)
    for mode in (MODE_AFFINE, MODE_PAPER):
        st_ = pde_residual(0.0, table1, mode, pts)
        assert st_.max_abs == 0.0 and st_.mean_abs == 0.0, mode
        assert st_.n_points == len(pts)


def _residual_point_by_point(u, m, mode, points):
    """The residual's max and mean from a loop over the points, each z leg
    one scalar coefficient call and one cmath.exp, as pde_residual once
    took them: the reference for its array form."""
    def z(t, s, v):
        a, g, b = cfm._z0_coefficients(u, m, mode, t)
        return cmath.exp(a + g * s * s + b * s * v)

    out = []
    for t, s, v in points:
        ht, hs, hv = 2e-4 * t, 2e-4 * max(1.0, abs(s)), 2e-4 * max(1.0, abs(v))
        z0, z_sp, z_sm, z_vp, z_vm = z(t, s, v), z(t, s + hs, v), z(t, s - hs, v), \
            z(t, s, v + hv), z(t, s, v - hv)
        z_sv = (z(t, s + hs, v + hv) - z(t, s + hs, v - hv) - z(t, s - hs, v + hv)
                + z(t, s - hs, v - hv)) / (4.0 * hs * hv)
        nu, mt = nu_t(t, m.constants), m_t(t, m)
        terms = [
            (z(t + ht, s, v) - z(t - ht, s, v)) / (2.0 * ht),
            0.5 * m.xi ** 2 * nu * nu * s * s * (z_sp - 2.0 * z0 + z_sm) / (hs * hs),
            0.5 * nu * nu * (z_vp - 2.0 * z0 + z_vm) / (hv * hv),
            m.xi * nu * nu * s * z_sv,
            (-(m.kappa + m.xi * mt * v) + 1j * u * m.rho * m.xi * nu * s) * s
            * (z_sp - z_sm) / (2.0 * hs),
            (1j * u * m.rho * nu * s - mt * v) * (z_vp - z_vm) / (2.0 * hv),
            (-0.5 * u * (1j + u) * s * s + 1j * u * (m.r - m.q)) * z0,
        ]
        out.append(abs(sum(terms)) / max(abs(term) for term in terms))
    return max(out), sum(out) / len(out)


def test_residual_matches_the_point_by_point_loop(table1):
    # at xi = 0.05 both modes' residuals are far above rounding, so the
    # array form must give the loop's values to rounding: an ulp of one z
    # leg moves a second difference by eps / (2e-4)^2, about 6e-9 of it
    pts = _probe_points(table1)
    for mode in (MODE_AFFINE, MODE_PAPER):
        for u in (1.0, 3.0 - 0.5j):
            got = pde_residual(u, table1, mode, pts)
            want = _residual_point_by_point(u, table1, mode, pts)
            assert got.max_abs == pytest.approx(want[0], rel=1e-8), (mode, u)
            assert got.mean_abs == pytest.approx(want[1], rel=1e-8), (mode, u)


def test_residual_of_a_point_does_not_depend_on_the_others(table1):
    # all points share one coefficient call and one array of stencil legs;
    # each point's residual must still be its own
    pts = _probe_points(table1)
    for mode in (MODE_AFFINE, MODE_PAPER):
        whole = pde_residual(1.0, table1, mode, pts)
        alone = [pde_residual(1.0, table1, mode, [p]) for p in pts]
        assert all(st_.n_points == 1 and st_.max_abs == st_.mean_abs for st_ in alone)
        assert whole.max_abs == max(st_.max_abs for st_ in alone), mode
        assert whole.mean_abs == pytest.approx(
            sum(st_.mean_abs for st_ in alone) / len(pts), rel=1e-14), mode


def test_residual_overflow_raises(table1):
    # the zero order's exponent leaves float range at u = -600i: the refusal
    # is an ArithmeticError, and no warning is emitted on the way
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for mode in (MODE_AFFINE, MODE_PAPER):
            with pytest.raises(ArithmeticError, match="float range"):
                pde_residual(-600j, table1, mode, _probe_points(table1))


def test_residual_refuses_an_empty_probe(table1):
    # no sample point once read as a perfect residual, 0 over 0 points
    for empty in ([], np.empty((0, 3))):
        with pytest.raises(ValueError, match="at least one sample point"):
            pde_residual(0.0, table1, MODE_AFFINE, empty)


def test_residual_refuses_points_that_are_not_rows_of_three(table1):
    # a flat triple or a transposed probe is refused, never reshaped
    for bad in ([0.2, 0.3, 5.0], np.array(_probe_points(table1)).T, [(0.2, 0.3)]):
        with pytest.raises(ValueError, match=r"\(n, 3\) array"):
            pde_residual(1.0, table1, MODE_AFFINE, bad)


def test_residual_rejects_origin_points(table1):
    # the t step is relative, so a point just past the origin is probed and
    # only the origin and the times before it are refused
    for t in (0.0, -1e-6, math.nan):
        with pytest.raises(ValueError, match="sample times must be positive"):
            pde_residual(0.0, table1, MODE_AFFINE, [(0.2, 0.3, 5.0), (t, 0.3, 5.0)])
    assert pde_residual(0.0, table1, MODE_AFFINE, [(1e-6, 0.3, 5.0)]).max_abs == 0.0
