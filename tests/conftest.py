"""Shared fixtures: the benchmark parameter set and its variants."""

from dataclasses import replace

import pytest

from adol.model import AdolModel


@pytest.fixture(scope="session")
def table1() -> AdolModel:
    """The kappa=2 benchmark set used throughout the suite."""
    return AdolModel(s0=100.0, sigma0=0.3, v0=5.0, r=0.02, q=0.0, kappa=2.0,
                     xi=0.05, rho=-0.5, h=0.3, m_rho=1.0, m_pi=0.5, t_mat=0.5)


@pytest.fixture(scope="session")
def table1_xi0(table1) -> AdolModel:
    return replace(table1, xi=0.0)


@pytest.fixture(scope="session")
def j_model() -> AdolModel:
    """Unit-spot, zero-rate variant for the spatial-integral diagnostics."""
    return AdolModel(s0=1.0, sigma0=0.3, v0=5.0, r=0.0, q=0.0, kappa=2.0,
                     xi=0.0, rho=-0.5, h=0.3, m_rho=1.0, m_pi=0.5, t_mat=0.5)

