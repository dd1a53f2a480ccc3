"""Parameter validation and coefficient functions."""

import math
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from adol.model import AdolModel, f_ht, m_t, small_param_check


def _base(**kw) -> AdolModel:
    args = dict(s0=100.0, sigma0=0.3, v0=5.0, r=0.02, q=0.0, kappa=2.0,
                xi=0.05, rho=-0.5, h=0.3, m_rho=1.0, m_pi=0.5, t_mat=0.5)
    args.update(kw)
    return AdolModel(**args)


@pytest.mark.parametrize("kw", [
    {"s0": 0.0}, {"s0": -1.0}, {"sigma0": 0.0}, {"kappa": -0.1},
    {"xi": -1e-9}, {"rho": -1.01}, {"rho": 1.01},
    {"h": 0.0}, {"h": 1.0}, {"m_pi": -0.5}, {"t_mat": -0.5}, {"t_mat": 0.0},
])
def test_invalid_parameters_raise(kw):
    with pytest.raises(ValueError):
        _base(**kw)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("name", [f.name for f in fields(AdolModel) if f.init])
def test_non_finite_parameters_raise(name, value):
    # NaN passes every range comparison, so finiteness is checked first
    with pytest.raises(ValueError, match=f"{name} must be finite"):
        _base(**{name: value})


def test_boundary_parameters_accepted():
    # kappa = 0 and rho = +-1 are legal edges
    _base(kappa=0.0)
    _base(rho=1.0)
    _base(rho=-1.0)
    _base(xi=0.0)
    # integers are legal too, and stored as floats
    model = _base(s0=1, sigma0=1, v0=5, r=0, kappa=2, m_rho=1, t_mat=1)
    assert all(type(getattr(model, f.name)) is float for f in fields(AdolModel) if f.init)


def test_constants_attached_and_frozen(table1):
    assert table1.constants.h == table1.h
    with pytest.raises(AttributeError):
        table1.kappa = 3.0  # type: ignore[misc]


def test_m_t_power_law(table1):
    assert m_t(0.25, table1) == pytest.approx(1.0 * 0.25 ** 0.5, rel=1e-15)
    assert m_t(0.0, table1) == 0.0
    with pytest.raises(ValueError):
        m_t(-0.1, table1)
    # on an array, each entry is bitwise its scalar value
    ts = np.array([0.0, 0.25, 2.0])
    assert m_t(ts, table1).tolist() == [m_t(t, table1) for t in ts.tolist()]
    with pytest.raises(ValueError):
        m_t(np.array([0.1, -0.1]), table1)


def test_m_t_constant_speed_at_origin():
    # pi = 0 makes the speed a constant, including at t = 0
    m = _base(m_rho=0.7, m_pi=0.0)
    assert m_t(0.0, m) == pytest.approx(0.7, rel=1e-15)
    assert m_t(0.3, m) == pytest.approx(0.7, rel=1e-15)


def test_small_param_pin(table1):
    rep = small_param_check(table1)
    # 2 / (B_H T^H) at H=0.3, T=0.5; pinned against the 40-digit constants
    assert rep.f_ht == pytest.approx(0.8407528823472642, rel=1e-12)
    assert rep.f_ht == f_ht(table1.h, table1.t_mat)
    assert rep.admissible  # xi=0.05 <= 0.25 * f
    assert not small_param_check(replace(table1, xi=0.5)).admissible


@given(st.floats(min_value=0.05, max_value=0.95),
       st.floats(min_value=0.1, max_value=3.0))
@settings(max_examples=60, deadline=None)
def test_small_param_scale_positive(h, t_mat):
    rep = small_param_check(_base(h=h, t_mat=t_mat, xi=0.0))
    assert rep.f_ht > 0.0
