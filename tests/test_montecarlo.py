"""Path simulation: exactness at xi = 0, statistics, and guard rails.

At xi = 0 the volatility path is deterministic, so the scheme's log-price
is exactly Gaussian with moments computable from the step grid; several
tests below pin the implementation against those discrete closed forms
rather than against continuum limits, separating scheme correctness from
discretization bias.
"""

import math
import threading
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from adol import montecarlo
from adol.do_process import nu_t
from adol.model import AdolModel, m_t
from adol.montecarlo import (
    McSpec,
    PathStats,
    TerminalStates,
    mc_price,
    mc_prices,
    mc_quadratic_variation,
    simulate_q,
)
from adol.pricing import bs_price


def _discrete_moments(m: AdolModel, spec: McSpec) -> tuple[float, float]:
    """Exact mean/variance of terminal log-return for the xi = 0 scheme."""
    t0 = m.eps if spec.t_start is None else spec.t_start
    grid = np.linspace(t0, m.t_mat, spec.n_steps + 1)
    sig = m.sigma0 * np.exp(-m.kappa * (grid[:-1] - t0))
    dt = np.diff(grid)
    var = float(np.sum(sig * sig * dt))
    mean = (m.r - m.q) * (m.t_mat - t0) - 0.5 * var
    return mean, var


def test_spec_validation():
    with pytest.raises(ValueError):
        McSpec(n_paths=0, n_steps=10, seed=1)
    with pytest.raises(ValueError):
        McSpec(n_paths=100, n_steps=0, seed=1)
    with pytest.raises(ValueError):
        McSpec(n_paths=101, n_steps=10, seed=1, antithetic=True)
    McSpec(n_paths=100, n_steps=10, seed=1, antithetic=True)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_start_time_must_be_finite(bad):
    # refused when the spec is built, not later by the grid
    with pytest.raises(ValueError, match="t_start"):
        McSpec(n_paths=16, n_steps=4, seed=1, t_start=bad)


def test_start_time_must_precede_maturity(table1):
    spec = McSpec(n_paths=16, n_steps=4, seed=1, t_start=table1.t_mat)
    with pytest.raises(ValueError):
        simulate_q(table1, spec)


def test_reproducible_and_seed_sensitive(table1):
    spec = McSpec(n_paths=256, n_steps=20, seed=99)
    a = simulate_q(table1, spec)
    b = simulate_q(table1, spec)
    assert np.array_equal(a.x, b.x)
    assert np.array_equal(a.sigma, b.sigma)
    c = simulate_q(table1, McSpec(n_paths=256, n_steps=20, seed=100))
    assert not np.array_equal(a.x, c.x)


def test_terminal_state_shapes(table1):
    st = simulate_q(table1, McSpec(n_paths=64, n_steps=8, seed=3))
    assert isinstance(st, TerminalStates)
    assert st.x.shape == st.sigma.shape == st.v.shape == (64,)


def test_sigma_path_exact_in_deterministic_limit(table1_xi0):
    m = table1_xi0
    spec = McSpec(n_paths=128, n_steps=150, seed=5)
    st = simulate_q(m, spec)
    expected = m.sigma0 * math.exp(-m.kappa * (m.t_mat - m.eps))
    assert np.max(np.abs(st.sigma - expected)) <= 1e-12 * expected


def test_log_return_moments_match_discrete_closed_form(table1_xi0):
    m = table1_xi0
    spec = McSpec(n_paths=100_000, n_steps=100, seed=11)
    st = simulate_q(m, spec)
    mean, var = _discrete_moments(m, spec)
    n = spec.n_paths
    se_mean = math.sqrt(var / n)
    assert abs(float(st.x.mean()) - mean) <= 4.0 * se_mean
    se_var = var * math.sqrt(2.0 / (n - 1))
    assert abs(float(st.x.var(ddof=1)) - var) <= 4.0 * se_var


def test_antithetic_pair_sums_collapse(table1_xi0):
    # deterministic sigma: each pair's log-return sum is twice the drift,
    # identical across pairs to rounding
    spec = McSpec(n_paths=2_000, n_steps=40, seed=17, antithetic=True)
    st = simulate_q(table1_xi0, spec)
    half = spec.n_paths // 2
    sums = st.x[:half] + st.x[half:]
    assert np.max(sums) - np.min(sums) <= 1e-12


def test_discounted_forward_is_martingale(table1):
    m = table1
    spec = McSpec(n_paths=40_000, n_steps=100, seed=23)
    st = simulate_q(m, spec)
    growth = np.exp(st.x)
    target = math.exp((m.r - m.q) * (m.t_mat - m.eps))
    se = float(growth.std(ddof=1)) / math.sqrt(spec.n_paths)
    assert abs(float(growth.mean()) - target) <= 4.0 * se


def test_put_call_parity_pathwise(table1):
    m = table1
    spec = McSpec(n_paths=4_096, n_steps=50, seed=31)
    strike = 0.97 * m.s0
    call = mc_price(m, spec, strike, is_call=True)
    put = mc_price(m, spec, strike, is_call=False)
    st = simulate_q(m, spec)  # same seed: same paths
    df = math.exp(-m.r * m.t_mat)
    expected = df * float((m.s0 * np.exp(st.x) - strike).mean())
    assert call.estimate - put.estimate == pytest.approx(expected, abs=1e-10)


def test_price_converges_to_closed_form_without_volofvol(table1_xi0):
    m = table1_xi0
    spec = McSpec(n_paths=40_000, n_steps=200, seed=37)
    strike = m.s0
    got = mc_price(m, spec, strike)
    _, var = _discrete_moments(m, spec)
    ref = bs_price(m.s0, strike, m.r, m.q, var, True, m.t_mat)
    assert abs(got.estimate - ref) <= 3.5 * got.std_error


def test_negative_strike_rejected(table1):
    with pytest.raises(ValueError):
        mc_price(table1, McSpec(n_paths=16, n_steps=4, seed=1), -1.0)
    with pytest.raises(ValueError):
        mc_prices(table1, McSpec(n_paths=16, n_steps=4, seed=1), [1.0, -1.0])
    # NaN fails every comparison, so it must be refused as not finite
    for strike in (math.nan, math.inf):
        with pytest.raises(ValueError):
            mc_prices(table1, McSpec(n_paths=16, n_steps=4, seed=1), [strike, 1.0])


@settings(max_examples=30, deadline=None)
@given(strikes=st.lists(st.floats(0.0, 200.0), min_size=3, max_size=6,
                        unique=True).map(sorted),
       is_call=st.booleans(), antithetic=st.booleans())
def test_ladder_is_monotone_convex_and_matches_single_strikes(
        table1, strikes, is_call, antithetic):
    # every price is a mean of payoffs monotone and convex in the strike;
    # rounding is monotone, so only convexity needs a rounding allowance
    spec = McSpec(n_paths=512, n_steps=8, seed=13, antithetic=antithetic)
    ladder = mc_prices(table1, spec, strikes, is_call=is_call)
    assert len(ladder) == len(strikes)
    for strike, got in zip(strikes, ladder):
        assert got == mc_price(table1, spec, strike, is_call=is_call)
    px = [p.estimate for p in ladder]
    steps = np.diff(px)
    assert np.all(steps <= 0.0) if is_call else np.all(steps >= 0.0)
    for (k0, k1, k2), (c0, c1, c2) in zip(zip(strikes, strikes[1:], strikes[2:]),
                                          zip(px, px[1:], px[2:])):
        w = (k2 - k1) / (k2 - k0)
        assert c1 <= w * c0 + (1.0 - w) * c2 + 1e-12 * table1.s0


def test_explosive_steps_warn(table1):
    violent = replace(table1, xi=500.0)
    spec = McSpec(n_paths=64, n_steps=4, seed=2)
    with pytest.warns(RuntimeWarning):
        simulate_q(violent, spec)


def test_quadratic_variation_estimates_integrated_variance(table1_xi0):
    m = table1_xi0
    spec = McSpec(n_paths=10_000, n_steps=100, seed=43)
    obs = tuple(m.t_mat * (i + 1) / 10 for i in range(10))
    qv = mc_quadratic_variation(m, spec, obs)
    # continuum target; discretization and drift^2 effects are well inside
    # the statistical band at this path count
    ref = m.sigma0 ** 2 * (1.0 - math.exp(-2.0 * m.kappa * m.t_mat)) \
        / (2.0 * m.kappa * m.t_mat)
    assert abs(qv.estimate - ref) <= 3.0 * qv.std_error
    assert isinstance(qv, PathStats)


def test_quadratic_variation_input_validation(table1):
    spec = McSpec(n_paths=16, n_steps=10, seed=1)
    with pytest.raises(ValueError):
        mc_quadratic_variation(table1, spec, (0.4, 0.2))
    with pytest.raises(ValueError):
        mc_quadratic_variation(table1, spec, (0.2, table1.t_mat * 2.0))
    with pytest.raises(ValueError):
        mc_quadratic_variation(table1, spec, ())
    # an observation indistinguishable from the grid start has no increment
    with pytest.raises(ValueError):
        mc_quadratic_variation(table1, spec, (table1.eps * 1.0001,))


# ------------------------------------------------------------ draw-ahead

def _serial_run(model, spec, capture=None):
    """The march with each step's normals drawn in line on the calling
    thread: the serial reference for the draw-ahead engine."""
    grid = montecarlo._grid(model, spec)
    m_draw = spec.n_paths // 2 if spec.antithetic else spec.n_paths
    gen = np.random.Generator(np.random.Philox(key=int(spec.seed)))
    c = model.constants
    rho = model.rho
    rho_perp = math.sqrt(1.0 - rho * rho)
    xi, kappa = model.xi, model.kappa
    drift_x = model.r - model.q
    decay, diff_sd = montecarlo._v_step_tables(model, grid)
    x = np.zeros(spec.n_paths)
    sig = np.full(spec.n_paths, model.sigma0)
    v = np.full(spec.n_paths, model.v0)
    snaps = {0: x.copy()} if capture is not None and 0 in capture else {}
    for n in range(spec.n_steps):
        t_right = grid[n + 1]
        dt = grid[n + 1] - grid[n]
        sq_dt = math.sqrt(dt)
        z = gen.standard_normal((2, m_draw))
        if spec.antithetic:
            z = np.concatenate([z, -z], axis=1)
        z1 = rho * z[1] + rho_perp * z[0]
        nu_r = nu_t(float(t_right), c)
        m_r = m_t(float(t_right), model)
        x += (drift_x - 0.5 * sig * sig) * dt + sig * sq_dt * z1
        sig_new = sig * np.exp(-(kappa + xi * m_r * v) * dt) \
            + sig * (xi * nu_r * sq_dt) * z[1]
        v = decay[n] * v + diff_sd[n] * z[1]
        sig = sig_new
        if capture is not None and (n + 1) in capture:
            snaps[n + 1] = x.copy()
    return grid, x, sig, v, snaps


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2 ** 63), n_paths=st.integers(1, 300),
       n_steps=st.integers(1, 40), antithetic=st.booleans())
@example(seed=0, n_paths=1, n_steps=1, antithetic=False)
@example(seed=1, n_paths=2, n_steps=1, antithetic=True)
def test_draw_ahead_is_bitwise_serial(table1, seed, n_paths, n_steps, antithetic):
    if antithetic:
        n_paths += n_paths % 2
    spec = McSpec(n_paths=n_paths, n_steps=n_steps, seed=seed,
                  antithetic=antithetic)
    got = simulate_q(table1, spec)
    _, x, sig, v, _ = _serial_run(table1, spec)
    assert got.x.tobytes() == x.tobytes()
    assert got.sigma.tobytes() == sig.tobytes()
    assert got.v.tobytes() == v.tobytes()
    obs = (table1.t_mat,) if n_steps == 1 else (0.5 * table1.t_mat, table1.t_mat)
    qv = mc_quadratic_variation(table1, spec, obs)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(montecarlo, "_run", _serial_run)
        assert qv == mc_quadratic_variation(table1, spec, obs)


def test_one_helper_thread_per_simulation_and_none_left(table1, monkeypatch):
    started = []
    start = threading.Thread.start

    def counted(thread):
        started.append(thread)
        start(thread)

    monkeypatch.setattr(threading.Thread, "start", counted)
    before = threading.active_count()
    simulate_q(table1, McSpec(n_paths=64, n_steps=12, seed=4))
    assert len(started) == 1
    assert threading.active_count() == before
    assert not started[0].is_alive()


def _raised_within(seconds, fn):
    """What fn raises, run on a daemon thread so that a hung hand-over fails
    the test instead of stalling the suite."""
    raised = []

    def target():
        try:
            fn()
        except BaseException as exc:  # inspected by the test
            raised.append(exc)

    runner = threading.Thread(target=target, daemon=True)
    runner.start()
    runner.join(seconds)
    assert not runner.is_alive(), f"simulation still running after {seconds} s"
    return raised[0] if raised else None


def test_march_failure_reaches_caller_and_joins_the_helper(table1, monkeypatch):
    boom = ArithmeticError("march failed at step 3")
    calls = []

    def failing_nu(t, c):
        calls.append(t)
        if len(calls) == 4:
            raise boom
        return nu_t(t, c)

    monkeypatch.setattr(montecarlo, "nu_t", failing_nu)
    before = threading.active_count()
    spec = McSpec(n_paths=64, n_steps=10, seed=4)
    assert _raised_within(60.0, lambda: simulate_q(table1, spec)) is boom
    assert threading.active_count() == before


def test_draw_failure_reaches_caller_and_joins_the_helper(table1, monkeypatch):
    # the helper thread owns the generator; make its third fill fail
    boom = MemoryError("draws failed")
    real = np.random.Generator

    class FailingGenerator:
        def __init__(self, bit_generator):
            self._gen = real(bit_generator)
            self.fills = 0

        def standard_normal(self, *args, **kwargs):
            self.fills += 1
            if self.fills == 3:
                raise boom
            return self._gen.standard_normal(*args, **kwargs)

    monkeypatch.setattr(np.random, "Generator", FailingGenerator)
    before = threading.active_count()
    spec = McSpec(n_paths=64, n_steps=10, seed=4)
    assert _raised_within(60.0, lambda: simulate_q(table1, spec)) is boom
    assert threading.active_count() == before
