"""Transform pricing, implied vol, forward CF and variance swaps."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from adol.charfn import MODE_AFFINE, cf_zero
from adol.model import AdolModel
from adol.montecarlo import McSpec, mc_quadratic_variation
from adol.numerics import QuadratureError
from adol.pricing import (
    FourierPricingSpec,
    VarSwapSpec,
    bs_price,
    forward_cf,
    fourier_price,
    fourier_prices_fft,
    implied_vol,
    varswap_leg_states,
    varswap_strike,
    varswap_strike_analytic,
)


def _flat_variance(m) -> float:
    # total variance of the deterministic-vol limit on [0, T]
    return m.sigma0 ** 2 * (1.0 - math.exp(-2.0 * m.kappa * m.t_mat)) \
        / (2.0 * m.kappa)


def _cf0(m):
    return lambda u: cf_zero(u, m, MODE_AFFINE)


# ----------------------------------------------------------- closed form

def test_bs_put_call_parity():
    spot, strike, r, q, tv, T = 100.0, 93.0, 0.03, 0.01, 0.04, 0.75
    c = bs_price(spot, strike, r, q, tv, True, T)
    p = bs_price(spot, strike, r, q, tv, False, T)
    lhs = c - p
    rhs = spot * math.exp(-q * T) - strike * math.exp(-r * T)
    assert lhs == pytest.approx(rhs, abs=1e-12 * spot)


def test_bs_zero_variance_is_discounted_intrinsic():
    spot, strike, r, q, T = 100.0, 90.0, 0.05, 0.0, 1.0
    c = bs_price(spot, strike, r, q, 0.0, True, T)
    assert c == pytest.approx(spot - strike * math.exp(-r * T), rel=1e-14)
    p = bs_price(spot, 120.0, r, q, 0.0, False, T)
    assert p == pytest.approx(120.0 * math.exp(-r * T) - spot, rel=1e-14)


def test_bs_rejects_bad_inputs():
    with pytest.raises(ValueError):
        bs_price(-1.0, 100.0, 0.0, 0.0, 0.04, True, 1.0)
    with pytest.raises(ValueError):
        bs_price(100.0, 100.0, 0.0, 0.0, -0.04, True, 1.0)
    with pytest.raises(ValueError):
        bs_price(100.0, 100.0, 0.0, 0.0, 0.04, True, -1.0)


_NON_FINITE = [math.nan, math.inf, -math.inf]


@pytest.mark.parametrize("bad", _NON_FINITE)
def test_black_scholes_refuses_non_finite_inputs(bad):
    # a NaN passes every range check and used to come back as a nan price
    good = dict(spot=1.0, strike=1.0, r=0.0, q=0.0, total_variance=0.04, t_mat=0.5)
    for name in good:
        with pytest.raises(ValueError, match=f"^{name} must be finite"):
            bs_price(**{**good, name: bad}, is_call=True)
    good_iv = dict(price=0.05, spot=1.0, strike=1.0, r=0.0, q=0.0, t_mat=0.5)
    for name in good_iv:
        with pytest.raises(ValueError, match=f"^{name} must be finite"):
            implied_vol(**{**good_iv, name: bad})


@pytest.mark.parametrize("bad", _NON_FINITE)
@pytest.mark.parametrize("field", ["damping", "u_max"])
def test_fourier_spec_refuses_non_finite(field, bad):
    with pytest.raises(ValueError, match=field):
        FourierPricingSpec(**{field: bad})


# ------------------------------------------------------------- inversion

def test_fourier_matches_closed_form(table1_xi0):
    m = table1_xi0
    tv = _flat_variance(m)
    cf = _cf0(m)
    for ks in (0.85, 1.0, 1.15):
        strike = ks * m.s0
        got = fourier_price(cf, m.s0, strike, m.r, m.q, m.t_mat)
        ref = bs_price(m.s0, strike, m.r, m.q, tv, True, m.t_mat)
        assert abs(got - ref) <= 1e-6 * m.s0, ks


def test_fourier_put_via_parity(table1_xi0):
    m = table1_xi0
    tv = _flat_variance(m)
    strike = 1.1 * m.s0
    got = fourier_price(_cf0(m), m.s0, strike, m.r, m.q, m.t_mat,
                        is_call=False)
    ref = bs_price(m.s0, strike, m.r, m.q, tv, False, m.t_mat)
    assert abs(got - ref) <= 1e-6 * m.s0


def test_fourier_damping_invariance(table1_xi0):
    m = table1_xi0
    strike = 0.95 * m.s0
    vals = [fourier_price(_cf0(m), m.s0, strike, m.r, m.q, m.t_mat,
                          spec=FourierPricingSpec(damping=a))
            for a in (1.0, 1.5, 2.5)]
    assert max(vals) - min(vals) <= 1e-7 * m.s0


def test_fourier_rejects_unnormalized_cf(table1_xi0):
    m = table1_xi0
    with pytest.raises(ValueError):
        fourier_price(lambda u: 0.9 + 0.0j, m.s0, m.s0, m.r, m.q, m.t_mat)


def test_fourier_rejects_non_finite_spot_and_strike(table1_xi0):
    # NaN fails every comparison and log(inf) passes through, so both
    # once came back as a nan price
    m = table1_xi0
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError):
            fourier_price(_cf0(m), m.s0, bad, m.r, m.q, m.t_mat)
        with pytest.raises(ValueError):
            fourier_price(_cf0(m), bad, m.s0, m.r, m.q, m.t_mat)


def test_fourier_refuses_an_undecayed_integrand(table1_xi0):
    # total variance 8e-5: |cf| at u_max = 150 is still 0.4, so the dropped
    # tail costs 0.02 at the money (0.377 against Black-Scholes 0.355)
    m = replace(table1_xi0, sigma0=0.05, kappa=10.0, t_mat=0.05)
    with pytest.raises(QuadratureError, match="u_max"):
        fourier_price(_cf0(m), m.s0, m.s0, m.r, m.q, m.t_mat)
    got = fourier_price(_cf0(m), m.s0, m.s0, m.r, m.q, m.t_mat,
                        spec=FourierPricingSpec(u_max=1500.0))
    ref = bs_price(m.s0, m.s0, m.r, m.q, _flat_variance(m), True, m.t_mat)
    assert abs(got - ref) <= 1e-6 * m.s0


# admissible models, drawn as for the zero-order properties in test_charfn
_MODELS = st.builds(
    AdolModel, s0=st.just(100.0), sigma0=st.floats(0.05, 1.0), v0=st.just(5.0),
    r=st.floats(-0.05, 0.1), q=st.floats(0.0, 0.1),
    kappa=st.just(0.0) | st.floats(0.0, 10.0), xi=st.just(0.05),
    rho=st.floats(-1.0, 1.0), h=st.floats(0.05, 0.95), m_rho=st.just(1.0),
    m_pi=st.just(0.5), t_mat=st.floats(0.05, 3.0))


@given(m=_MODELS)
@settings(max_examples=30, deadline=None)
def test_fourier_ladder_parity_monotone_convex(m):
    cf = _cf0(m)
    strikes = [m.s0 * (0.6 + 0.1 * i) for i in range(11)]
    try:
        calls = [fourier_price(cf, m.s0, k, m.r, m.q, m.t_mat) for k in strikes]
    except QuadratureError:
        # a total variance too small for the default u_max is refused
        # loudly (see test_fourier_refuses_an_undecayed_integrand)
        assume(False)
    for k, c in zip(strikes, calls):
        p = fourier_price(cf, m.s0, k, m.r, m.q, m.t_mat, is_call=False)
        fwd = m.s0 * math.exp(-m.q * m.t_mat) - k * math.exp(-m.r * m.t_mat)
        assert abs(c - p - fwd) <= 1e-9
    # rounding allowance: the integral's absolute tolerance, 1e-11, in price
    # units (the worst residual seen over 1000 drawn models was 7e-12)
    slack = 1e-11 * m.s0
    assert np.all(np.diff(calls) <= slack)
    for c0, c1, c2 in zip(calls, calls[1:], calls[2:]):
        assert c1 <= 0.5 * (c0 + c2) + slack


def test_fft_ladder_agrees_with_single_strike(table1_xi0):
    m = table1_xi0
    cf = _cf0(m)
    strikes, calls = fourier_prices_fft(cf, m.s0, m.r, m.q, m.t_mat)
    assert strikes.shape == calls.shape
    # probe three grid strikes around the money
    sel = np.argsort(np.abs(strikes - m.s0))[:3]
    for i in sel:
        ref = fourier_price(cf, m.s0, float(strikes[i]), m.r, m.q, m.t_mat)
        assert abs(calls[i] - ref) <= 1e-4 * m.s0


# ----------------------------------------------------------- implied vol

def test_implied_vol_round_trip():
    spot, r, q, T = 100.0, 0.02, 0.01, 0.5
    for vol in (0.1, 0.35):
        for strike in (80.0, 100.0, 125.0):
            price = bs_price(spot, strike, r, q, vol * vol * T, True, T)
            iv = implied_vol(price, spot, strike, r, q, T)
            assert iv == pytest.approx(vol, abs=1e-9)


@given(vol=st.floats(min_value=0.05, max_value=0.8),
       money=st.floats(min_value=-0.3, max_value=0.3))
@settings(max_examples=60, deadline=None)
def test_implied_vol_round_trip_property(vol, money):
    spot, r, q, T = 50.0, 0.01, 0.0, 2.0
    strike = spot * math.exp(money)
    price = bs_price(spot, strike, r, q, vol * vol * T, False, T)
    iv = implied_vol(price, spot, strike, r, q, T, is_call=False)
    assert iv == pytest.approx(vol, abs=1e-8)


def test_implied_vol_rejects_prices_outside_bounds():
    with pytest.raises(ValueError):
        implied_vol(0.0, 100.0, 50.0, 0.0, 0.0, 1.0)  # below intrinsic
    with pytest.raises(ValueError):
        implied_vol(101.0, 100.0, 50.0, 0.0, 0.0, 1.0)  # above spot


# ------------------------------------------------------------ forward CF

def test_forward_cf_normalization(table1):
    assert forward_cf(0.0, 0.1, 0.4, table1) == 1.0 + 0.0j


def test_forward_cf_from_inception_is_the_cf(table1_xi0):
    m = table1_xi0
    for u in (0.8, 2.0):
        got = forward_cf(u, 0.0, m.t_mat, m)
        assert got == pytest.approx(cf_zero(u, m, MODE_AFFINE), rel=1e-10)


def test_forward_cf_composes_over_deterministic_legs(table1_xi0):
    # independent increments at xi = 0: the leg product is the full CF
    m = table1_xi0
    u, t1 = 1.3, 0.2
    full = cf_zero(u, m, MODE_AFFINE)
    legs = forward_cf(u, 0.0, t1, m) * forward_cf(u, t1, m.t_mat, m)
    assert legs == pytest.approx(full, rel=1e-10)


def test_forward_cf_standard_error_vanishes_when_deterministic(table1_xi0):
    val, se = forward_cf(1.0, 0.2, 0.5, table1_xi0, with_se=True)
    assert se == 0.0
    assert abs(val) <= 1.0 + 1e-12


def test_forward_cf_sampled_outer_state(table1):
    spec = McSpec(n_paths=512, n_steps=16, seed=7, t_start=table1.eps)
    val, se = forward_cf(1.0, 0.2, 0.5, table1, cfg=spec, with_se=True)
    assert se > 0.0
    assert abs(val) <= 1.0 + 5.0 * se


def test_forward_cf_rejects_bad_times(table1):
    with pytest.raises(ValueError):
        forward_cf(1.0, 0.4, 0.2, table1)
    with pytest.raises(ValueError):
        forward_cf(1.0, 0.1, table1.t_mat * 1.5, table1)


# --------------------------------------------------------- variance swap

def _dense_schedule(T: float, n: int = 16) -> VarSwapSpec:
    return VarSwapSpec(observation_times=tuple(T * (i + 1) / n
                                               for i in range(n)))


def test_varswap_matches_deterministic_integral(table1_xi0):
    m = table1_xi0
    spec = _dense_schedule(m.t_mat)
    ref = _flat_variance(m) / m.t_mat
    got = varswap_strike(m, spec)
    assert abs(got - ref) / ref <= 0.01


def test_varswap_analytic_matches_curvature_route(table1_xi0):
    m = table1_xi0
    spec = _dense_schedule(m.t_mat)
    fd = varswap_strike(m, spec)
    cl = varswap_strike_analytic(m, spec)
    assert fd == pytest.approx(cl, rel=1e-5)


def test_varswap_consistent_with_path_quadratic_variation(table1_xi0):
    m = table1_xi0
    spec = _dense_schedule(m.t_mat)
    strike = varswap_strike(m, spec)
    mc = McSpec(n_paths=20_000, n_steps=200, seed=41)
    qv = mc_quadratic_variation(m, mc, spec.observation_times)
    assert abs(strike - qv.estimate) <= 3.0 * qv.std_error


def test_varswap_stencil_matches_forward_cf_route(table1):
    # the strike reads each leg's sampled states once for all four stencil
    # points; forward_cf samples them afresh per point from the same seed,
    # so both routes do the same arithmetic and must agree bit for bit
    spec = VarSwapSpec(observation_times=(0.25, 0.5))
    mc = McSpec(n_paths=512, n_steps=16, seed=3, t_start=table1.eps)
    h = spec.u_step
    total = 0.0 + 0.0j
    for t1, t2 in ((0.0, 0.25), (0.25, 0.5)):
        def curv(step, t1=t1, t2=t2):
            return (forward_cf(step, t1, t2, table1, mc) - 2.0
                    + forward_cf(-step, t1, t2, table1, mc)) / (step * step)
        total += (4.0 * curv(0.5 * h) - curv(h)) / 3.0
    assert varswap_strike(table1, spec, cfg=mc) == (-total / 0.5).real


def test_varswap_estimators_share_one_leg_sample(table1):
    # one sample per leg handed to both estimators gives what each gets
    # sampling on its own from the same seed
    spec = VarSwapSpec(observation_times=(0.2, 0.35, 0.5))
    mc = McSpec(n_paths=512, n_steps=16, seed=3, t_start=table1.eps)
    legs = varswap_leg_states(table1, spec, mc)
    assert len(legs) == 3
    assert varswap_strike(table1, spec, legs=legs) \
        == varswap_strike(table1, spec, cfg=mc)
    assert varswap_strike_analytic(table1, spec, legs=legs) \
        == varswap_strike_analytic(table1, spec, cfg=mc)
    for estimator in (varswap_strike, varswap_strike_analytic):
        with pytest.raises(ValueError):
            estimator(table1, spec, legs=legs[:2])


def test_varswap_rejects_observations_past_maturity(table1):
    spec = VarSwapSpec(observation_times=(0.25, table1.t_mat * 1.5))
    with pytest.raises(ValueError):
        varswap_strike(table1, spec)
    with pytest.raises(ValueError):
        varswap_strike_analytic(table1, spec)


def test_varswap_spec_validation():
    with pytest.raises(ValueError):
        VarSwapSpec(observation_times=())
    with pytest.raises(ValueError):
        VarSwapSpec(observation_times=(0.2, 0.1))
    with pytest.raises(ValueError):
        VarSwapSpec(observation_times=(-0.1, 0.2))
    with pytest.raises(ValueError):
        VarSwapSpec(observation_times=(0.1, 0.2), u_step=0.5)
    with pytest.raises(ValueError):
        VarSwapSpec(observation_times=(0.1, 0.2), mc_states=0)
