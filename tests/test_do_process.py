"""Gaussian driver: the constants, and the covariances and exact simulators
of the oracle do_oracle.py.

Constant pins were computed with mpmath at 40 digits from the closed
gamma-function expressions before this module existed.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from adol.do_process import DoConstants, do_constants, nu_t

from do_oracle import cov_m, psi_h, simulate_mh, simulate_vh


# ------------------------------------------------------------- constants

def test_constants_pinned_h03():
    c = do_constants(0.3)
    assert c.alpha_h == pytest.approx(0.6895356129907763, rel=1e-12)
    assert c.c_h == pytest.approx(1.0750886279058359, rel=1e-12)
    assert c.b_h == pytest.approx(2.9286712878289127, rel=1e-12)
    assert c.d_h_sq == pytest.approx(0.054964260771394164, rel=1e-11)
    assert c.psi_scale == pytest.approx(1.3705394201898129, rel=1e-12)


def test_constants_pinned_h04():
    c = do_constants(0.4)
    assert c.alpha_h == pytest.approx(0.9162813755724846, rel=1e-12)
    assert c.c_h == pytest.approx(1.1266041937264266, rel=1e-12)
    assert c.b_h == pytest.approx(1.4356367967661712, rel=1e-12)
    assert c.d_h_sq == pytest.approx(0.009898091753995622, rel=1e-11)
    assert c.psi_scale == pytest.approx(1.0805653532217627, rel=1e-12)


def test_constants_collapse_at_half():
    # every scale degenerates to 1 and the defect to 0 at H = 1/2
    c = do_constants(0.5)
    for value in (c.alpha_h, c.c_h, c.b_h, c.psi_scale):
        assert value == pytest.approx(1.0, abs=1e-12)
    assert abs(c.d_h_sq) <= 1e-12


def test_defect_profile_above_04():
    # The relative projection defect sqrt(d_h_sq) is often quoted as "at
    # most 12%" for H >= 0.4, but the closed form says otherwise: it
    # crests at 13.65% near H = 0.819 and exceeds 0.12 exactly on the
    # hundredths H = 0.72 .. 0.90.  Pin the real curve.  Landmarks below
    # were computed with mpmath at 40 digits.
    worst_h, worst = 0.0, -1.0
    for j in range(40, 100):
        h = j / 100.0
        d = math.sqrt(max(do_constants(h).d_h_sq, 0.0))
        if d > worst:
            worst_h, worst = h, d
        if 72 <= j <= 90:
            assert 0.12 < d <= 0.1365, f"H={h}"
        else:
            assert d <= 0.12, f"H={h}"
    assert worst_h == pytest.approx(0.82)
    assert worst == pytest.approx(0.136495980040845375, rel=1e-12)
    # shoulders of the band, same precision
    assert math.sqrt(do_constants(0.71).d_h_sq) == pytest.approx(
        0.119197972512023533, rel=1e-12)
    assert math.sqrt(do_constants(0.91).d_h_sq) == pytest.approx(
        0.119982889480766881, rel=1e-12)


def test_constants_domain():
    with pytest.raises(ValueError):
        do_constants(0.0)
    with pytest.raises(ValueError):
        do_constants(1.0)
    with pytest.raises(ValueError):
        DoConstants(h=0.3, alpha_h=-1.0, c_h=1.0, b_h=1.0, d_h_sq=0.0,
                    psi_scale=1.0)


@given(st.floats(min_value=0.02, max_value=0.98))
@settings(max_examples=80, deadline=None)
def test_constants_positive_everywhere(h):
    c = do_constants(h)
    assert c.alpha_h > 0 and c.c_h > 0 and c.b_h > 0 and c.psi_scale > 0
    assert c.d_h_sq >= -1e-12


# ---------------------------------------------------- envelope and shapes

def test_psi_and_nu_singularity_guards():
    c = do_constants(0.3)
    with pytest.raises(ValueError):
        psi_h(0.0, c)
    with pytest.raises(ValueError):
        nu_t(0.0, c)
    # H = 1/2 is regular at the origin
    c5 = do_constants(0.5)
    assert psi_h(0.0, c5) == pytest.approx(c5.psi_scale)
    assert nu_t(0.0, c5) == pytest.approx(c5.b_h)


def test_nu_power_law():
    c = do_constants(0.3)
    t = 0.37
    assert nu_t(t, c) == pytest.approx(c.b_h * t ** (-0.2), rel=1e-14)
    # on an array, each entry is bitwise its scalar value, and a time at
    # the origin anywhere in it is refused
    ts = np.array([0.05, 0.37, 2.0])
    assert nu_t(ts, c).tolist() == [nu_t(t, c) for t in ts.tolist()]
    with pytest.raises(ValueError, match="singular"):
        nu_t(np.array([0.1, 0.0]), c)
    with pytest.raises(ValueError, match="nonnegative"):
        nu_t(np.array([0.1, -0.2]), do_constants(0.5))


def test_cov_m_min_structure():
    c = do_constants(0.3)
    assert cov_m(0.3, 0.8, c) == pytest.approx(cov_m(0.3, 0.3, c), rel=1e-15)
    assert cov_m(0.8, 0.3, c) == cov_m(0.3, 0.8, c)
    assert cov_m(0.6, 0.6, c) > cov_m(0.3, 0.3, c)
    with pytest.raises(ValueError):
        cov_m(-0.1, 0.5, c)


# ------------------------------------------------------------- simulators

def test_simulate_mh_reproducible_and_seed_sensitive():
    times = np.linspace(0.1, 1.0, 10)
    c = do_constants(0.3)
    a = simulate_mh(times, c, 64, seed=123)
    b = simulate_mh(times, c, 64, seed=123)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, simulate_mh(times, c, 64, seed=124))


def test_simulate_mh_matches_covariance():
    times = np.array([0.2, 0.5, 1.0])
    c = do_constants(0.3)
    n = 100_000
    paths = simulate_mh(times, c, n, seed=2026)
    for i, ti in enumerate(times):
        var_ref = cov_m(ti, ti, c)
        var_hat = paths[:, i].var(ddof=1)
        se = var_ref * math.sqrt(2.0 / (n - 1))
        assert abs(var_hat - var_ref) <= 4.0 * se, (ti, var_hat, var_ref)
    # independent-increment law: E[M_s M_t] = var(min(s,t))
    cross = float(np.mean(paths[:, 0] * paths[:, 2]))
    ref = cov_m(0.2, 1.0, c)
    se = math.sqrt(cov_m(0.2, 0.2, c) * cov_m(1.0, 1.0, c) / n) * 2.0
    assert abs(cross - ref) <= 4.0 * se


def test_simulate_vh_variance():
    times = np.array([0.25, 0.5, 1.0, 2.0])
    c = do_constants(0.3)
    n = 100_000
    paths = simulate_vh(times, c, n, seed=515)
    for i, ti in enumerate(times):
        var_ref = psi_h(ti, c) ** 2 * cov_m(ti, ti, c)
        var_hat = paths[:, i].var(ddof=1)
        se = var_ref * math.sqrt(2.0 / (n - 1))
        assert abs(var_hat - var_ref) <= 4.0 * se, (ti, var_hat, var_ref)
