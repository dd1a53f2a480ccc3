"""Shared fixtures: the benchmark parameter set and its variants, and a
switch that makes every Monte Carlo march fork its second half."""

import os
from dataclasses import replace

import pytest

from adol import montecarlo
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


@pytest.fixture
def fork_marches(monkeypatch):
    """fork_marches(cpus): from then on every march is large enough to fork
    its second half, on `cpus` CPUs; returns the pids forked from then on."""
    if not hasattr(os, "fork") or not hasattr(os, "sched_getaffinity"):
        pytest.skip("a march forks only where os.fork and os.sched_getaffinity exist")
    fork = os.fork

    def arm(cpus: int) -> list[int]:
        forks = []

        def counted() -> int:
            pid = fork()
            if pid:
                forks.append(pid)
            return pid

        monkeypatch.setattr(os, "fork", counted)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
        monkeypatch.setattr(montecarlo, "FORK_PATH_STEPS", 0)
        return forks

    return arm
