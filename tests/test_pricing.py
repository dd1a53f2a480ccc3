"""Transform pricing, implied vol, forward CF and variance swaps."""

import functools
import math
import re
from dataclasses import replace

import mpmath as mp
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from adol import charfn as cfm
from adol import montecarlo
from adol.charfn import (MODE_AFFINE, CorrectionConfig, _log_l, _unit_response, _v_law,
                         cf_total, cf_values, cf_zero)
from adol.model import AdolModel
from adol.montecarlo import McSpec, mc_quadratic_variation, simulate_q
from adol.numerics import QuadratureError
from adol.pricing import (
    _U_STEP,
    FourierPricingSpec,
    VarSwapSpec,
    _check_leg,
    _forward_cf_on,
    bs_price,
    fourier_prices,
    _leg_sigmas,
    implied_vol,
    varswap_strike,
    varswap_strike_analytic,
)


def forward_cf(u: complex, t1: float, t2: float, model: AdolModel) -> complex:
    """E[exp(iu (x_{t2} - x_{t1}))] from the variance-swap legs' pieces: the
    inner affine zero order over the exact law of the time-t1 vol."""
    _check_leg(t1, t2, model)
    if u == 0.0:
        return 1.0 + 0.0j
    return _forward_cf_on(u, t1, t2, model, *_leg_sigmas(t1, t2, model))


def _flat_variance(m) -> float:
    # total variance of the deterministic-vol limit on [0, T], sigma0^2 times
    # int_0^T exp(-2 kappa t) dt; expm1 keeps it exact as kappa -> 0
    if m.kappa == 0.0:
        return m.sigma0 ** 2 * m.t_mat
    return -m.sigma0 ** 2 * math.expm1(-2.0 * m.kappa * m.t_mat) / (2.0 * m.kappa)


def _cf0(m):
    return lambda u: cf_zero(u, m, MODE_AFFINE)


# ----------------------------------------------------------- closed form

def test_bs_put_call_parity():
    # the call less the put's own closed form, taken here with erfc, is the
    # discounted forward less the discounted strike
    spot, strike, r, q, tv, T = 100.0, 93.0, 0.03, 0.01, 0.04, 0.75
    c = bs_price(spot, strike, r, q, tv, T)
    fwd, s = spot * math.exp((r - q) * T), math.sqrt(tv)
    d1 = (math.log(fwd / strike) + 0.5 * tv) / s
    p = math.exp(-r * T) * 0.5 * (strike * math.erfc((d1 - s) / math.sqrt(2.0))
                                  - fwd * math.erfc(d1 / math.sqrt(2.0)))
    lhs = c - p
    rhs = spot * math.exp(-q * T) - strike * math.exp(-r * T)
    assert lhs == pytest.approx(rhs, abs=1e-12 * spot)


def test_bs_zero_variance_is_discounted_intrinsic():
    spot, strike, r, q, T = 100.0, 90.0, 0.05, 0.0, 1.0
    c = bs_price(spot, strike, r, q, 0.0, T)
    assert c == pytest.approx(spot - strike * math.exp(-r * T), rel=1e-14)
    # out of the money, the forward 105.1 below the strike
    assert bs_price(spot, 120.0, r, q, 0.0, T) == 0.0


def test_bs_rejects_bad_inputs():
    with pytest.raises(ValueError):
        bs_price(-1.0, 100.0, 0.0, 0.0, 0.04, 1.0)
    with pytest.raises(ValueError):
        bs_price(100.0, 100.0, 0.0, 0.0, -0.04, 1.0)
    with pytest.raises(ValueError):
        bs_price(100.0, 100.0, 0.0, 0.0, 0.04, -1.0)


_NON_FINITE = [math.nan, math.inf, -math.inf]


@pytest.mark.parametrize("bad", _NON_FINITE)
def test_black_scholes_refuses_non_finite_inputs(bad):
    # a NaN passes every range check and used to come back as a nan price
    good = dict(spot=1.0, strike=1.0, r=0.0, q=0.0, total_variance=0.04, t_mat=0.5)
    for name in good:
        with pytest.raises(ValueError, match=f"^{name} must be finite"):
            bs_price(**{**good, name: bad})
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
    # also at kappa = 0, where the volatility stands still
    for kap in (2.0, 0.0):
        m = replace(table1_xi0, kappa=kap)
        tv = _flat_variance(m)
        cf = _cf0(m)
        for ks in (0.85, 1.0, 1.15):
            strike = ks * m.s0
            got = fourier_prices(cf, m.s0, [strike], m.r, m.q, m.t_mat)[0]
            ref = bs_price(m.s0, strike, m.r, m.q, tv, m.t_mat)
            assert abs(got - ref) <= 1e-6 * m.s0, (kap, ks)


def test_fourier_damping_invariance(table1_xi0):
    m = table1_xi0
    strike = 0.95 * m.s0
    vals = [fourier_prices(_cf0(m), m.s0, [strike], m.r, m.q, m.t_mat,
                           spec=FourierPricingSpec(damping=a))[0]
            for a in (1.0, 1.5, 2.5)]
    assert max(vals) - min(vals) <= 1e-7 * m.s0


def test_fourier_rejects_unnormalized_cf(table1_xi0):
    m = table1_xi0
    with pytest.raises(ValueError):
        fourier_prices(lambda u: np.full(u.shape, 0.9 + 0.0j), m.s0, [m.s0], m.r, m.q, m.t_mat)


def test_fourier_rejects_non_finite_spot_and_strike(table1_xi0):
    # NaN fails every comparison and log(inf) passes through, so both
    # once came back as a nan price
    m = table1_xi0
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError):
            fourier_prices(_cf0(m), m.s0, [bad], m.r, m.q, m.t_mat)
        with pytest.raises(ValueError):
            fourier_prices(_cf0(m), bad, [m.s0], m.r, m.q, m.t_mat)


@pytest.mark.parametrize("bad", _NON_FINITE)
def test_fourier_refuses_non_finite_rates_and_maturity(table1_xi0, bad):
    # a NaN rate or maturity once priced as [nan, nan], r = inf as puts of -1
    m = table1_xi0
    good = dict(r=m.r, q=m.q, t_mat=m.t_mat)
    for name in good:
        with pytest.raises(ValueError, match=f"^{name} must be finite"):
            fourier_prices(_cf0(m), m.s0, [m.s0], **{**good, name: bad})
    with pytest.raises(ValueError, match="maturity must be nonnegative"):
        fourier_prices(_cf0(m), m.s0, [m.s0], m.r, m.q, -1.0)


def test_fourier_refuses_an_undecayed_integrand(table1_xi0):
    # total variance 8e-5: |cf| at u = 150 is still 0.4, and the integrand
    # decays by u = 1200, past the 64-fold widening of u_max = 2
    m = replace(table1_xi0, sigma0=0.05, kappa=10.0, t_mat=0.05)
    with pytest.raises(QuadratureError, match="u_max 128"):
        fourier_prices(_cf0(m), m.s0, [m.s0], m.r, m.q, m.t_mat,
                       spec=FourierPricingSpec(u_max=2.0))
    got = fourier_prices(_cf0(m), m.s0, [m.s0], m.r, m.q, m.t_mat,
                         spec=FourierPricingSpec(u_max=1500.0))[0]
    ref = bs_price(m.s0, m.s0, m.r, m.q, _flat_variance(m), m.t_mat)
    assert abs(got - ref) <= 1e-6 * m.s0


def test_fourier_widens_u_max_until_the_integrand_decays(table1_xi0):
    # the default u_max = 150 would leave 6% of this model's at-the-money
    # price in the dropped tail; doubled to 1200, the integrand has decayed
    m = replace(table1_xi0, s0=1.0, sigma0=0.05, kappa=10.0, t_mat=0.05)
    var = _flat_variance(m)
    for strike in (0.8, 0.9, 1.0, 1.1, 1.2):
        got = fourier_prices(_cf0(m), m.s0, [strike], m.r, m.q, m.t_mat)[0]
        assert got == pytest.approx(bs_price(m.s0, strike, m.r, m.q, var, m.t_mat),
                                    abs=5e-12)


def test_widened_first_order_ladder_is_contour_independent(table1):
    # the first-order CF refuses a missed tolerance at every u, and out to the
    # widened u_max = 1200 its prices do not depend on the damped contour
    m = replace(table1, s0=1.0, sigma0=0.05, kappa=10.0, t_mat=0.05)
    strikes = [0.98, 0.99, 1.0, 1.01, 1.02]
    reach = []

    def cf1(u: np.ndarray) -> np.ndarray:
        reach.extend(u.real)
        return cf_values(u, m, CorrectionConfig(order=1))

    ladders = [fourier_prices(cf1, m.s0, strikes, m.r, m.q, m.t_mat,
                              FourierPricingSpec(damping=a)) for a in (0.75, 1.5, 3.0)]
    assert max(reach) > 1000.0
    for ladder in ladders[1:]:
        assert ladder == pytest.approx(ladders[0], rel=0, abs=1e-15)
    # the first-order term moves the at-the-money price, unlike the contour
    cf0 = fourier_prices(_cf0(m), m.s0, [1.0], m.r, m.q, m.t_mat)[0]
    assert abs(ladders[1][2] - cf0) > 1e-7


# the reference model and strikes of the benchmark's order-1 smile
_SMILE = AdolModel(s0=1.0, sigma0=0.3, v0=5.0, r=0.0, q=0.0, kappa=2.0, xi=0.05,
                   rho=-0.5, h=0.3, m_rho=1.0, m_pi=0.5, t_mat=0.5)
_SMILE_STRIKES = [0.8, 0.9, 1.0, 1.1, 1.2]


@pytest.mark.parametrize("order", [0, 1])
def test_ladder_equals_single_strike_prices(table1, order):
    # at order 1 strike 80 alone needs one more bisection than the others,
    # which moves their sums by less than their last bit: the ladder's
    # prices are the one-strike prices to the last bit
    cfg = CorrectionConfig(order=order)
    m = table1
    strikes = [80.0, 95.0, 100.0, 105.0, 120.0]
    cf = lambda u: cf_values(u, m, cfg)
    got = fourier_prices(cf, m.s0, strikes, m.r, m.q, m.t_mat)
    assert got == [fourier_prices(cf, m.s0, [k], m.r, m.q, m.t_mat)[0] for k in strikes]


@pytest.mark.parametrize("order, distinct, per_strike", [(0, 227, 1135), (1, 257, 1165)])
def test_ladder_evaluates_each_frequency_once(order, distinct, per_strike):
    m, cfg = _SMILE, CorrectionConfig(order=order)
    seen = []

    def counted(u):
        seen.extend(u.tolist())
        return cf_values(u, m, cfg)

    fourier_prices(counted, m.s0, _SMILE_STRIKES, m.r, m.q, m.t_mat)
    assert len(seen) == len(set(seen)) == distinct
    ladder = set(seen)
    seen.clear()
    for k in _SMILE_STRIKES:
        fourier_prices(counted, m.s0, [k], m.r, m.q, m.t_mat)
    # strike by strike the integrals ask again for values an earlier one had
    assert len(seen) == per_strike and set(seen) == ladder


def test_empty_ladder_evaluates_nothing():
    def cf(u):
        raise AssertionError("the CF was evaluated")

    assert fourier_prices(cf, 1.0, [], 0.0, 0.0, 0.5) == []


def test_widened_ladder_matches_its_one_strike_ladders():
    # the strikes share panels and u_max doublings, so a strike's panels are
    # the union of what every strike needs; at total variance 5e-5 the
    # ladder widens u_max to 1200, and every price stays where it would be
    # alone to well inside the quadrature's tolerance
    m = replace(_SMILE, sigma0=0.05, r=0.02, q=0.01, t_mat=0.02)
    cfg = CorrectionConfig(order=1)
    strikes = list(np.linspace(0.3, 3.0, 50))
    reach = []

    @functools.lru_cache(maxsize=None)
    def cf_on(nodes: tuple) -> np.ndarray:
        reach.extend(u.real for u in nodes)
        return cf_values(np.array(nodes), m, cfg)

    def cf(u):
        # the ladder and the strikes alone visit the same panels, in the
        # same 15-node calls, so the calls are cached by their nodes
        return cf_on(tuple(u.tolist()))

    ladder = fourier_prices(cf, m.s0, strikes, m.r, m.q, m.t_mat)
    assert max(reach) == 1200.0
    alone = [fourier_prices(cf, m.s0, [k], m.r, m.q, m.t_mat)[0] for k in strikes]
    assert ladder == pytest.approx(alone, rel=0, abs=1e-11)


def test_refusals_name_each_strike(table1_xi0):
    # paper mode at order 1 gives materially negative prices on a band of
    # strikes: every one of them is named with its price, not only the first
    cfg = CorrectionConfig(order=1, mode=cfm.MODE_PAPER)
    strikes = list(np.linspace(0.3, 3.0, 50))
    with pytest.raises(RuntimeError) as exc:
        fourier_prices(lambda u: cf_values(u, _SMILE, cfg), _SMILE.s0, strikes,
                       _SMILE.r, _SMILE.q, _SMILE.t_mat)
    named = re.findall(r"(-[0-9.e-]+) at strike ([0-9.]+)", str(exc.value))
    assert str(exc.value).startswith("inversion produced a materially negative price ")
    assert [float(k) for _, k in named] == strikes[15:23]
    assert float(named[0][0]) == pytest.approx(-9.5597e-5, rel=1e-4)
    assert all(float(p) < -1e-6 for p, _ in named)
    # an undecayed integrand names each strike with the tail it would drop
    m = replace(table1_xi0, sigma0=0.05, kappa=10.0, t_mat=0.05)
    with pytest.raises(QuadratureError,
                       match=r"u_max 128\.0, tail \S+ at strike 90\.0, \S+ at strike 100\.0; "
                             r"raise u_max"):
        fourier_prices(_cf0(m), m.s0, [90.0, 100.0], m.r, m.q, m.t_mat,
                       spec=FourierPricingSpec(u_max=2.0))


def test_non_finite_cf_is_refused(table1_xi0):
    # max(nan, 0) is nan and abs(nan - 1) > 1e-8 is false, so both CFs once
    # came back as nan prices
    m = table1_xi0
    cf0 = _cf0(m)
    spotty = lambda u: np.where((39.0 < u.real) & (u.real < 41.0), math.nan, cf0(u))
    with pytest.raises(QuadratureError, match=r"not finite on the panel \[37\.5, 75\.0\]"):
        fourier_prices(spotty, m.s0, [m.s0], m.r, m.q, m.t_mat)
    with pytest.raises(ValueError, match="not normalized: cf\\(0\\) = nan"):
        fourier_prices(lambda u: np.full(u.shape, math.nan), m.s0, [m.s0], m.r, m.q, m.t_mat)


# admissible models, drawn as for the zero-order properties in test_charfn
_MODELS = st.builds(
    AdolModel, s0=st.just(100.0), sigma0=st.floats(0.05, 1.0), v0=st.just(5.0),
    r=st.floats(-0.05, 0.1), q=st.floats(0.0, 0.1),
    kappa=st.just(0.0) | st.floats(0.0, 10.0), xi=st.just(0.05),
    rho=st.floats(-1.0, 1.0), h=st.floats(0.05, 0.95), m_rho=st.just(1.0),
    m_pi=st.just(0.5), t_mat=st.floats(0.05, 3.0))


@given(m=_MODELS)
# a subnormal kappa once lost the variance to rounding: the CF was 1 and its
# integrand never decayed
@example(m=AdolModel(s0=100.0, sigma0=1.0, v0=5.0, r=0.0, q=0.0, kappa=5e-324,
                     xi=0.05, rho=0.0, h=0.05, m_rho=1.0, m_pi=0.5, t_mat=0.25))
@settings(max_examples=30, deadline=None)
def test_fourier_ladder_parity_monotone_convex(m):
    cf = _cf0(m)
    strikes = [m.s0 * (0.6 + 0.1 * i) for i in range(11)]
    calls = [fourier_prices(cf, m.s0, [k], m.r, m.q, m.t_mat)[0] for k in strikes]
    # rounding allowance: the integral's absolute tolerance, 1e-11, in price
    # units (the worst residual seen over 1000 drawn models was 7e-12)
    slack = 1e-11 * m.s0
    assert np.all(np.diff(calls) <= slack)
    for c0, c1, c2 in zip(calls, calls[1:], calls[2:]):
        assert c1 <= 0.5 * (c0 + c2) + slack


# ----------------------------------------------------------- implied vol

def test_implied_vol_round_trip():
    spot, r, q, T = 100.0, 0.02, 0.01, 0.5
    for vol in (0.1, 0.35):
        for strike in (80.0, 100.0, 125.0):
            price = bs_price(spot, strike, r, q, vol * vol * T, T)
            iv = implied_vol(price, spot, strike, r, q, T)
            assert iv == pytest.approx(vol, abs=1e-9)


@given(vol=st.floats(min_value=0.05, max_value=0.8),
       money=st.floats(min_value=-0.3, max_value=0.3))
@settings(max_examples=60, deadline=None)
def test_implied_vol_round_trip_property(vol, money):
    spot, r, q, T = 50.0, 0.01, 0.0, 2.0
    strike = spot * math.exp(money)
    price = bs_price(spot, strike, r, q, vol * vol * T, T)
    iv = implied_vol(price, spot, strike, r, q, T)
    assert iv == pytest.approx(vol, abs=1e-8)


def test_implied_vol_round_trips_a_deep_out_of_the_money_call():
    # spot 1, vol 0.2, T 0.5: the exact prices at K = 2.5 and 3 (1.5e-12
    # and 1.2e-16) lie in the lower tails of both CDF terms, where an
    # erf-based CDF read the vol as 0.2000000353 and 0.198814
    spot, vol, T = 1.0, 0.2, 0.5
    with mp.workdps(40):
        for strike in (2.5, 3.0):
            s = mp.mpf(vol) * mp.sqrt(T)
            d1 = (mp.log(mp.mpf(spot) / strike) + s * s / 2) / s
            price = float(spot * mp.ncdf(d1) - strike * mp.ncdf(d1 - s))
            iv = implied_vol(price, spot, strike, 0.0, 0.0, T)
            assert abs(iv - vol) <= 1e-12 * vol, strike


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


def test_forward_cf_at_xi_zero_is_the_deterministic_leg(table1_xi0):
    # at xi = 0 the time-t1 vol is sigma0 e^(-kappa t1) on every node, so
    # the forward CF is the lognormal one of the leg
    m = table1_xi0
    u, t1, t2 = 1.0, 0.2, 0.5
    sig = m.sigma0 * math.exp(-m.kappa * t1)
    want = np.exp(1j * u * (m.r - m.q) * (t2 - t1)
                  - 0.5 * u * (u + 1j) * _unit_response(m.kappa, t2 - t1) * sig * sig)
    val = forward_cf(u, t1, t2, m)
    assert val == pytest.approx(want, rel=1e-14)
    assert abs(val) <= 1.0 + 1e-12


def test_forward_cf_rejects_bad_times(table1):
    with pytest.raises(ValueError):
        forward_cf(1.0, 0.4, 0.2, table1)
    with pytest.raises(ValueError):
        forward_cf(1.0, 0.1, table1.t_mat * 1.5, table1)


# --------------------------------------------------------- variance swap

def _dense_schedule(T: float, n: int = 16) -> VarSwapSpec:
    return VarSwapSpec(observation_times=tuple(T * (i + 1) / n
                                               for i in range(n)))


def test_varswap_analytic_matches_curvature_route(table1_xi0):
    m = table1_xi0
    spec = _dense_schedule(m.t_mat)
    fd = varswap_strike(m, spec)
    cl = varswap_strike_analytic(m, spec)
    assert fd == pytest.approx(cl, rel=1e-5)


def test_varswap_stencil_matches_forward_cf_route(table1):
    # the strike reads each leg's vol nodes once for all four stencil
    # points; forward_cf builds them afresh per point, so both routes do
    # the same arithmetic and must agree bit for bit
    spec = VarSwapSpec(observation_times=(0.25, 0.5))
    h = _U_STEP
    total = 0.0 + 0.0j
    for t1, t2 in ((0.0, 0.25), (0.25, 0.5)):
        def curv(step, t1=t1, t2=t2):
            return (forward_cf(step, t1, t2, table1) - 2.0
                    + forward_cf(-step, t1, t2, table1)) / (step * step)
        total += (4.0 * curv(0.5 * h) - curv(h)) / 3.0
    assert varswap_strike(table1, spec) == (-total / 0.5).real


_REF = AdolModel(s0=1.0, sigma0=0.3, v0=5.0, r=0.0, q=0.0, kappa=2.0, xi=0.05,
                 rho=-0.5, h=0.3, m_rho=1.0, m_pi=0.5, t_mat=0.5)


def test_order_one_ladder_never_builds_the_order_two_set_up():
    # affine z2's u-free nodes and tables are order 2's alone: an order-1
    # smile that built them would pay their set-up in every process
    cfm._z2_nodes.cache_clear()
    cfg = CorrectionConfig(order=1)
    fourier_prices(lambda u: cf_values(u, _REF, cfg), _REF.s0, [0.8, 1.0, 1.2],
                   _REF.r, _REF.q, _REF.t_mat)
    assert cfm._z2_nodes.cache_info().misses == 0
    cf_total(1.0, _REF, replace(cfg, order=2))
    assert cfm._z2_nodes.cache_info().misses == 1


@pytest.mark.parametrize("xi", [0.05, 0.2])
@pytest.mark.parametrize("times", [(0.25, 0.5), (0.1, 0.2, 0.35, 0.5)])
def test_varswap_strikes_agree_on_the_exact_leg_law(table1, xi, times):
    # the curvature stencil over the Gauss-Hermite nodes against the closed
    # lognormal moments: two routes to one expectation; what separates them
    # is the stencil's rounding, about 4e-10 relative
    spec = VarSwapSpec(observation_times=times)
    for m in (replace(_REF, xi=xi), replace(table1, xi=xi)):
        fd = varswap_strike(m, spec)
        an = varswap_strike_analytic(m, spec)
        assert fd == pytest.approx(an, rel=1e-8)


def test_varswap_strike_refuses_an_unconverged_extrapolation():
    # a wide vol law breaks the stencil: its extrapolations over (h, h/2)
    # and (h/2, h/4) part by 5.5e-6 relative at xi = 0.4 (the strike is off
    # by 7.6e-6), 7.5e-3 at 0.5 and 7.3 at 1, against at most 6.4e-9 up to
    # xi = 0.3 and 1e-10 on a Gaussian leg of variance 1
    spec = VarSwapSpec(observation_times=(0.25, 0.5))
    for xi in (0.4, 0.5, 1.0):
        with pytest.raises(RuntimeError, match="not converged"):
            varswap_strike(replace(_REF, r=0.01, xi=xi), spec)
    for m in (replace(_REF, r=0.01, xi=0.3),
              replace(_REF, r=0.01, xi=0.0, sigma0=2.0, kappa=0.0)):
        assert varswap_strike(m, spec) \
            == pytest.approx(varswap_strike_analytic(m, spec), rel=1e-8)


def test_varswap_strike_does_not_depend_on_rho():
    # each leg's inner expectation is taken at order 0 in xi: the vol moves
    # only between legs, so the spot-vol correlation cannot enter
    spec = VarSwapSpec(observation_times=(0.25, 0.5))
    for strike in (varswap_strike, varswap_strike_analytic):
        assert len({strike(replace(_REF, rho=rho), spec)
                    for rho in (-0.9, -0.5, 0.0, 0.5)}) == 1


@pytest.mark.xfail(
    strict=True,
    reason="the strike takes each leg's inner expectation at order 0 in xi, "
           "so it misses the vol's xi-dynamics inside a leg: at xi = 0.05 it "
           "reads 0.0387370 against a realized variance of 0.03829 (6.5 SE) "
           "and an exact (1/T) int E[sigma_t^2] dt of 0.0382143",
)
def test_varswap_strike_matches_path_quadratic_variation_with_vol_of_vol():
    m = replace(_REF, rho=0.0)
    spec = VarSwapSpec(observation_times=(0.25, 0.5))
    qv = mc_quadratic_variation(m, McSpec(n_paths=400_000, n_steps=100, seed=1),
                                spec.observation_times)
    assert abs(varswap_strike(m, spec) - qv.estimate) <= 3.0 * qv.std_error


@pytest.mark.parametrize("xi", [0.05, 0.2])
def test_leg_moments_by_gauss_hermite_are_the_closed_lognormal_ones(xi):
    # E[sigma_t1^(2k)] = L^(2k) exp(2k xi (mean - v0) + 2 k^2 xi^2 var),
    # with V_t1's mean v0 decay and its variance from V's law
    m = replace(_REF, xi=xi)
    for t1 in (0.1, 0.25, 0.45):
        decay, var = _v_law(m, 0.0, t1)
        big_l, mean = m.sigma0 * math.exp(_log_l(m, t1, 0.0)), m.v0 * decay
        for k in (1, 2):
            closed = big_l ** (2 * k) * math.exp(
                2 * k * xi * (mean - m.v0) + 2 * k * k * xi * xi * var)
            for n in (40, 80):
                sig, w = _leg_sigmas(t1, m.t_mat, m, n)
                assert w @ sig ** (2 * k) == pytest.approx(closed, rel=1e-14)


def test_leg_law_at_inception_is_the_start_state(table1):
    m = table1
    assert _v_law(m, 0.0, 0.0) == (1.0, 0.0)
    assert m.sigma0 * math.exp(_log_l(m, 0.0, 0.0)) == m.sigma0
    sig, w = _leg_sigmas(0.0, table1.t_mat, table1)
    assert set(sig) == {table1.sigma0}


def test_march_sigma_is_the_leg_law_pathwise(table1):
    # sigma_T = L exp(xi (V_T - v0)) on the march's own paths, with L taken
    # from 0, where the march and the legs' law both start, at every step count
    m = table1
    c, T = m.constants, m.t_mat
    nu_sq = c.b_h ** 2 * T ** (2 * c.h) / (2 * c.h)
    big_l = m.sigma0 * math.exp(-m.kappa * T - 0.5 * m.xi ** 2 * nu_sq)
    for n_steps in (50, 200, 1000):
        st = simulate_q(m, McSpec(n_paths=20_000, n_steps=n_steps, seed=11))
        exact = big_l * np.exp(m.xi * (st.v - m.v0))
        assert np.max(np.abs(st.sigma / exact - 1.0)) <= 1e-13, n_steps


def test_strikes_and_forward_cf_need_no_sampling(table1, monkeypatch):
    def no_march(*args, **kwargs):
        raise AssertionError("a path was marched")

    monkeypatch.setattr(montecarlo, "_run", no_march)
    spec = VarSwapSpec(observation_times=(0.2, 0.35, 0.5))
    assert table1.xi > 0.0
    assert math.isfinite(varswap_strike(table1, spec))
    assert math.isfinite(varswap_strike_analytic(table1, spec))
    assert abs(forward_cf(1.0, 0.2, 0.5, table1)) <= 1.0


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
