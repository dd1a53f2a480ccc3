"""Kernel tests.

Frozen reference values were pinned with mpmath at 40 digits before the
kernel was written; the mpmath cross-checks are repeated live where cheap.
"""

import cmath
import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from adol.do_process import do_constants
from adol.numerics import QuadratureError, QuadratureSpec, integrate_adaptive, norm_cdf

from do_oracle import beta_sym


@pytest.fixture(scope="module", autouse=True)
def _mp_40_digits():
    # the live mpmath references below run at 40 digits; workdps restores the
    # precision on leaving, so no other test module inherits it
    with mp.workdps(40):
        yield


# ---------------------------------------------------------------------- gamma
# The package takes Gamma from math.gamma; these tests read it through
# do_constants and the oracle's beta_sym, each against mpmath.

def _do_constants_mp(h: float) -> dict:
    """The DO constants of do_process.do_constants, formed in mpmath."""
    h = mp.mpf(h)
    g = mp.gamma
    sin_pi_h = mp.sin(mp.pi * h)
    alpha = mp.sqrt(g(2 * h + 1) * g(3 - 2 * h)) * sin_pi_h ** 2
    c = alpha / (2 * h * g(mp.mpf(1.5) - h) * g(h + mp.mpf(0.5)))
    b = 2 ** (3 - 4 * h) * sin_pi_h ** -4 * g(2 - h) / (g(mp.mpf(1.5) - h) ** 2 * g(h))
    d_sq = 1 - 2 * h * g(3 - 2 * h) * g(h + mp.mpf(0.5)) / g(mp.mpf(1.5) - h)
    psi = g(3 - 2 * h) / (c * g(mp.mpf(1.5) - h) ** 2)
    return {"alpha_h": alpha, "c_h": c, "b_h": b, "d_h_sq": d_sq, "psi_scale": psi}


def test_gamma_trivial_values():
    # B(x, x) = Gamma(x)^2 / Gamma(2x) at Gamma's integer and half-integer points
    assert beta_sym(1.0) == pytest.approx(1.0, rel=1e-15)
    assert beta_sym(2.0) == pytest.approx(1.0 / 6.0, rel=1e-15)
    assert beta_sym(3.0) == pytest.approx(1.0 / 30.0, rel=1e-15)
    assert beta_sym(0.5) == pytest.approx(math.pi, rel=1e-15)


def test_gamma_pinned_oracle_values():
    # every DO constant at the suite's Hurst indices, against mpmath at 40 digits
    for h in (0.1, 0.3, 0.45, 0.5, 0.7, 0.9):
        got = do_constants(h)
        for name, ref in _do_constants_mp(h).items():
            assert getattr(got, name) == pytest.approx(float(ref), rel=1e-13, abs=1e-15), \
                (h, name)


def test_gamma_pole_raises():
    # beta_sym needs x > 0, and the DO constants an H in (0, 1), where no
    # Gamma they take sits on a pole
    for bad in (0.0, -1.0, -0.5, math.nan):
        with pytest.raises(ValueError):
            beta_sym(bad)
    for bad in (0.0, 1.0, -0.5, math.nan):
        with pytest.raises(ValueError):
            do_constants(bad)


@given(st.floats(min_value=0.01, max_value=5.0))
@settings(max_examples=200, deadline=None)
def test_gamma_recurrence(x):
    # Gamma(x + 1) = x Gamma(x) gives B(x + 1, x + 1) = B(x, x) x / (2 (2x + 1))
    assert beta_sym(x + 1.0) == pytest.approx(beta_sym(x) * x / (2.0 * (2.0 * x + 1.0)),
                                              rel=1e-13)


@given(st.floats(min_value=0.01, max_value=4.0), st.floats(min_value=0.01, max_value=0.99))
@settings(max_examples=150, deadline=None)
def test_gamma_matches_mpmath(x, h):
    assert beta_sym(x) == pytest.approx(float(mp.beta(x, x)), rel=1e-13)
    got = do_constants(h)
    for name, ref in _do_constants_mp(h).items():
        assert getattr(got, name) == pytest.approx(float(ref), rel=1e-12, abs=1e-15), name


@pytest.mark.parametrize("h", [0.375, 0.4, 0.45, 0.49, 0.4999, 0.5001, 0.51, 0.53,
                               0.5377177072529088, 0.55, 0.6, 0.625])
def test_defect_near_half_keeps_its_digits(h):
    # d_H^2 = 1 - (a Gamma product that tends to 1); formed as 1 minus that
    # product it kept only math.gamma's ulps and missed mpmath by 1.4e-12
    # relative at h = 0.5377...
    ref = float(_do_constants_mp(h)["d_h_sq"])
    assert do_constants(h).d_h_sq == pytest.approx(ref, rel=1e-14)


# ------------------------------------------------------------------ beta_sym

def test_beta_sym_values():
    assert beta_sym(1.0) == pytest.approx(1.0, rel=1e-14)
    assert beta_sym(0.5) == pytest.approx(math.pi, rel=1e-13)
    # quadrature oracle: B(1.2, 1.2) = int_0^1 t^0.2 (1-t)^0.2 dt
    oracle = integrate_adaptive(lambda t: t ** 0.2 * (1.0 - t) ** 0.2, 0.0, 1.0,
                                QuadratureSpec(1e-13, 1e-13, 8000))
    assert beta_sym(1.2) == pytest.approx(oracle.real, rel=1e-10)
    assert beta_sym(1.2) == pytest.approx(0.6786786707060262439308, rel=1e-12)


def test_beta_sym_domain():
    with pytest.raises(ValueError):
        beta_sym(0.0)
    with pytest.raises(ValueError):
        beta_sym(-1.2)


# ---------------------------------------------------------------- quadrature

def test_quadrature_trivial():
    spec = QuadratureSpec(1e-12, 1e-12, 2000)
    assert integrate_adaptive(lambda x: x * x, 0.0, 1.0, spec).real == pytest.approx(1.0 / 3.0, rel=1e-12)
    assert integrate_adaptive(lambda x: x ** -0.2, 0.0, 1.0, spec).real == pytest.approx(1.25, rel=1e-9)
    h = 0.3
    val = integrate_adaptive(lambda t: t ** (h - 0.5), 0.0, 0.5, spec).real
    assert val == pytest.approx(0.5 ** 0.8 / 0.8, rel=1e-9)


def test_quadrature_complex():
    spec = QuadratureSpec(1e-12, 1e-12, 2000)
    val = integrate_adaptive(lambda x: np.cos(x) + 1j * np.sin(x), 0.0, 1.0, spec)
    assert val.real == pytest.approx(math.sin(1.0), rel=1e-12)
    assert val.imag == pytest.approx(1.0 - math.cos(1.0), rel=1e-12)


@given(
    st.floats(min_value=-2.0, max_value=2.0),
    st.floats(min_value=-2.0, max_value=2.0),
)
@settings(max_examples=50, deadline=None)
def test_quadrature_linearity(a, b):
    spec = QuadratureSpec(1e-11, 1e-11, 2000)
    f = lambda x: np.sin(3.0 * x) + 0.5j * x
    g = lambda x: np.exp(-x * x)
    lhs = integrate_adaptive(lambda x: a * f(x) + b * g(x), 0.0, 1.5, spec)
    rhs = a * integrate_adaptive(f, 0.0, 1.5, spec) + b * integrate_adaptive(g, 0.0, 1.5, spec)
    assert abs(lhs - rhs) < 1e-9 * (1.0 + abs(a) + abs(b))


def test_quadrature_budget_failure_reports_estimate():
    spec = QuadratureSpec(1e-14, 1e-14, 4)
    with pytest.raises(QuadratureError) as exc:
        integrate_adaptive(lambda x: x ** -0.9, 0.0, 1.0, spec)
    assert exc.value.error_bound > 0.0
    assert abs(exc.value.estimate) > 0.0


def test_vector_entries_share_panels_and_meet_their_own_tolerances():
    # magnitudes 1, 1e-6 and 1e-12: one relative tolerance serves all three
    # only if each entry is held to its own total, not to the vector's
    spec = QuadratureSpec(1e-30, 1e-10, 2000)
    parts = [lambda x: np.sqrt(x),
             lambda x: 1e-6 * np.exp(-x) * np.sin(10.0 * x),
             lambda x: 1e-12 * x ** -0.3]
    exact = [2.0 / 3.0,
             1e-6 * (10.0 - math.exp(-1.0) * (math.sin(10.0) + 10.0 * math.cos(10.0))) / 101.0,
             1e-12 / 0.7]
    got = integrate_adaptive(lambda x: np.stack([g(x) for g in parts], axis=-1), 0.0, 1.0, spec)
    assert got.shape == (3,)
    for g, want, val in zip(parts, exact, got):
        assert abs(val - want) <= 1e-10 * abs(want)
        assert abs(val - integrate_adaptive(g, 0.0, 1.0, spec)) <= 1e-10 * abs(want)


@pytest.mark.parametrize("f, a, b, spec, value, evals", [
    (lambda x: x ** -0.2, 0.0, 1.0, QuadratureSpec(1e-12, 1e-12, 2000),
     1.2499999999999272 + 0j, 1305),
    # cmath's exp node by node, the integrand's values when it was pinned
    (lambda x: np.array([cmath.exp(20j * t) / (1.0 + t * t) for t in x.tolist()]),
     0.0, 10.0, QuadratureSpec(1e-13, 1e-11, 2000),
     -0.00043464607440623797 + 0.05002130290380937j, 2025),
])
def test_scalar_integrand_keeps_its_value_and_panels(f, a, b, spec, value, evals):
    # pinned before vector integrands shared the heap, and before f took a
    # panel's nodes in one call: a scalar f is ranked by its error alone, and
    # the rule adds its node values in the order it did node by node, so the
    # partition and the sum are the same; evals counts nodes
    xs = []
    got = integrate_adaptive(lambda x: xs.append(x) or f(x), a, b, spec)
    assert type(got) is complex and got == value and sum(map(len, xs)) == evals


def test_integrand_is_called_once_per_panel():
    # one call per Gauss-Kronrod panel, on its 15 nodes inside the panel,
    # for scalar and vector integrands alike
    spec = QuadratureSpec(1e-12, 1e-12, 2000)
    for f in (lambda x: x ** -0.2, lambda x: np.stack([x ** -0.2, np.sin(x)], axis=-1)):
        calls = []
        got = integrate_adaptive(lambda x: calls.append(x.copy()) or f(x), 0.0, 1.0, spec)
        assert len(calls) == 87 and all(x.shape == (15,) for x in calls)
        assert all(np.all(np.diff(x) > 0.0) for x in calls)
        assert np.shape(got) == np.shape(f(np.array([0.5])))[1:]


def test_empty_or_reversed_interval_is_refused():
    # every caller integrates over a < b: an empty or reversed interval, or
    # a NaN end, is refused before f is called
    spec = QuadratureSpec(1e-12, 1e-12, 2000)
    calls = []
    for a, b in ((1.0, 1.0), (0.0, 0.0), (1.0, 0.0), (0.0, math.nan), (math.nan, 1.0)):
        with pytest.raises(ValueError, match="needs a < b"):
            integrate_adaptive(lambda x: calls.append(x) or x, a, b, spec)
    assert not calls


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_non_finite_integrand_is_refused_naming_the_panel(bad):
    # NaN fails `error > tolerance`, so such a sum once came back as nan
    spec = QuadratureSpec(1e-10, 1e-10, 4000)
    with pytest.raises(QuadratureError, match=r"not finite on the panel \[0\.0, 1\.0\]"):
        integrate_adaptive(lambda x: np.where(x > 0.5, bad, 1.0), 0.0, 1.0, spec)
    with pytest.raises(QuadratureError, match="not finite on the panel"):
        integrate_adaptive(lambda x: np.stack([np.ones_like(x), np.where(x > 0.5, bad, 1.0)],
                                              axis=-1), 0.0, 1.0, spec)
    # a node pair of opposite infinities sums to NaN, unwarned
    with pytest.raises(QuadratureError, match="not finite on the panel"):
        integrate_adaptive(lambda x: np.where(x > 0.5, bad, -bad), 0.0, 1.0, spec)


def test_norm_cdf():
    assert norm_cdf(0.0) == pytest.approx(0.5, abs=1e-15)
    assert norm_cdf(1.959963984540054) == pytest.approx(0.975, abs=1e-12)


def test_norm_cdf_keeps_the_lower_tail():
    # 0.5 (1 + erf(x / sqrt 2)) cancels in the lower tail: it read 0 at
    # x = -9 and was 1.8% off at -8.  The rounding of x / sqrt 2 alone moves
    # the value by about x^2 ulps, so the bound grows with x^2
    for x in (-37.0, -20.0, -9.0, -8.0, -6.0, -3.0, -1.0, 0.0, 0.5, 3.0, 8.0):
        ref = float(mp.ncdf(x))
        assert abs(norm_cdf(x) - ref) <= 1e-15 * (1.0 + x * x) * ref, x
