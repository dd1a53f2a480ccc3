"""Path simulation: exactness at xi = 0, statistics, and guard rails.

At xi = 0 the volatility path is deterministic, so the scheme's log-price
is exactly Gaussian with moments computable from the step grid; several
tests below pin the implementation against those discrete closed forms
rather than against continuum limits, separating scheme correctness from
discretization bias.
"""

import math
import re
import sys
import threading
from dataclasses import replace

import mpmath as mp
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from adol import charfn, montecarlo
from adol.model import AdolModel
from adol.montecarlo import (
    McSpec,
    PathStats,
    Paths,
    mc_prices,
    mc_quadratic_variation,
    simulate_paths,
    simulate_q,
)
from adol.pricing import bs_price


def _discrete_moments(m: AdolModel, spec: McSpec) -> tuple[float, float]:
    """Exact mean/variance of terminal log-return for the xi = 0 scheme: its
    steps integrate sigma0^2 e^(-2 kappa t) exactly, so they sum to the
    integral from 0 to T on every grid."""
    var = m.sigma0 ** 2 * -math.expm1(-2.0 * m.kappa * m.t_mat) / (2.0 * m.kappa)
    mean = (m.r - m.q) * m.t_mat - 0.5 * var
    return mean, var


def test_spec_validation():
    with pytest.raises(ValueError):
        McSpec(n_paths=0, n_steps=10, seed=1)
    with pytest.raises(ValueError):
        McSpec(n_paths=100, n_steps=0, seed=1)
    # one path's standard error is 0, which a --check gate would read as
    # certainty: the march needs two paths, one per half
    with pytest.raises(ValueError, match="a standard error needs two paths, got 1"):
        McSpec(n_paths=1, n_steps=10, seed=1)
    McSpec(n_paths=2, n_steps=10, seed=1)
    # a float or a bool is no count and no seed, even one equal to an
    # integer: each is refused by name before any march reads it
    for field, value in [("n_paths", 100.0), ("n_steps", 10.0), ("seed", 1.5),
                         ("seed", True), ("n_paths", True)]:
        kw = {"n_paths": 100, "n_steps": 10, "seed": 1, field: value}
        with pytest.raises(ValueError, match=f"{field} must be an integer"):
            McSpec(**kw)
    McSpec(n_paths=np.int64(100), n_steps=np.int32(10), seed=np.uint64(1))


def test_reproducible_and_seed_sensitive(table1):
    spec = McSpec(n_paths=256, n_steps=20, seed=99)
    a = simulate_q(table1, spec)
    b = simulate_q(table1, spec)
    assert np.array_equal(a.x, b.x)
    assert np.array_equal(a.sigma, b.sigma)
    c = simulate_q(table1, McSpec(n_paths=256, n_steps=20, seed=100))
    assert not np.array_equal(a.x, c.x)
    # integer parameters march as the equal floats do
    ints = replace(table1, s0=100, v0=5, q=0, kappa=2, m_rho=1)
    assert simulate_q(ints, spec).x.tobytes() == a.x.tobytes()
    assert simulate_q(replace(table1, sigma0=1), spec).sigma.tobytes() \
        == simulate_q(replace(table1, sigma0=1.0), spec).sigma.tobytes()


def test_terminal_state_shapes(table1):
    st = simulate_q(table1, McSpec(n_paths=64, n_steps=8, seed=3))
    assert isinstance(st, Paths)
    assert st.x.shape == st.sigma.shape == st.v.shape == (64,)


def test_sigma_path_exact_in_deterministic_limit(table1_xi0):
    m = table1_xi0
    spec = McSpec(n_paths=128, n_steps=150, seed=5)
    st = simulate_q(m, spec)
    expected = m.sigma0 * math.exp(-m.kappa * m.t_mat)
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


def test_discounted_forward_is_martingale(table1):
    m = table1
    spec = McSpec(n_paths=40_000, n_steps=100, seed=23)
    st = simulate_q(m, spec)
    growth = np.exp(st.x)
    target = math.exp((m.r - m.q) * m.t_mat)
    se = float(growth.std(ddof=1)) / math.sqrt(spec.n_paths)
    assert abs(float(growth.mean()) - target) <= 4.0 * se


def test_price_converges_to_closed_form_without_volofvol(table1_xi0):
    m = table1_xi0
    spec = McSpec(n_paths=40_000, n_steps=200, seed=37)
    strike = m.s0
    got = mc_prices(m, spec, [strike])[0]
    _, var = _discrete_moments(m, spec)
    ref = bs_price(m.s0, strike, m.r, m.q, var, m.t_mat)
    assert abs(got.estimate - ref) <= 3.5 * got.std_error


def test_negative_strike_rejected(table1):
    with pytest.raises(ValueError):
        mc_prices(table1, McSpec(n_paths=16, n_steps=4, seed=1), [-1.0])
    with pytest.raises(ValueError):
        mc_prices(table1, McSpec(n_paths=16, n_steps=4, seed=1), [1.0, -1.0])
    # NaN fails every comparison, so it must be refused as not finite
    for strike in (math.nan, math.inf):
        with pytest.raises(ValueError):
            mc_prices(table1, McSpec(n_paths=16, n_steps=4, seed=1), [strike, 1.0])


def test_stats_are_exact_under_power_of_two_scaling(table1):
    # _stats scales the samples by a power of two, which is exact: on
    # moderate samples it gives the plain formulas' bits, scaled samples give
    # scaled results, and where the plain squared deviations overflow (past
    # about 1e154) the standard error stays finite
    samples = np.exp(simulate_q(table1, McSpec(n_paths=1001, n_steps=10, seed=6)).x)
    n = len(samples)
    plain = montecarlo._stats(samples)
    assert plain.estimate == float(samples.mean())
    assert plain.std_error == float(samples.std(ddof=1) / math.sqrt(n))
    assert plain.n_effective == n
    for k in (-900, -300, 7, 600, 1000):
        scaled = montecarlo._stats(np.ldexp(samples, k))
        assert scaled.estimate == math.ldexp(plain.estimate, k)
        assert scaled.std_error == math.ldexp(plain.std_error, k)
        assert scaled.n_effective == n
    with np.errstate(over="ignore", invalid="ignore"):
        assert not math.isfinite(float(np.ldexp(samples, 600).std(ddof=1)))
    # all payoffs 0, as far out of the money: the largest sample is 0
    assert montecarlo._stats(np.zeros(4)) == PathStats(0.0, 0.0, 4)


@settings(max_examples=30, deadline=None)
@given(strikes=st.lists(st.floats(0.0, 200.0), min_size=3, max_size=6,
                        unique=True).map(sorted),
       n_paths=st.integers(2, 512))
def test_ladder_is_monotone_convex_and_matches_single_strikes(table1, strikes, n_paths):
    # every price is a mean of payoffs monotone and convex in the strike;
    # rounding is monotone, so only convexity needs a rounding allowance
    spec = McSpec(n_paths=n_paths, n_steps=8, seed=13)
    ladder = mc_prices(table1, spec, strikes)
    assert len(ladder) == len(strikes)
    for strike, got in zip(strikes, ladder):
        assert got == mc_prices(table1, spec, [strike])[0]
    px = [p.estimate for p in ladder]
    assert np.all(np.diff(px) <= 0.0)
    for (k0, k1, k2), (c0, c1, c2) in zip(zip(strikes, strikes[1:], strikes[2:]),
                                          zip(px, px[1:], px[2:])):
        w = (k2 - k1) / (k2 - k0)
        assert c1 <= w * c0 + (1.0 - w) * c2 + 1e-12 * table1.s0


def test_violent_vol_of_vol_stays_on_the_exact_law(table1):
    # an Euler sigma step explodes here (sigma reached 3e227 on four steps);
    # read off V, sigma is L e^(xi (V - v0)), which underflows to 0 instead
    violent = replace(table1, xi=500.0)
    st = simulate_paths(violent, McSpec(n_paths=64, n_steps=4, seed=2), (0.125, 0.25))
    assert np.isfinite(st.x).all() and np.isfinite(st.sigma).all()
    assert np.all(st.sigma >= 0.0)
    # q stops growing once sigma is 0, so the bridge holds x's own shock
    assert all(np.isfinite(snap).all() for snap in st.snaps.values())
    # at sigma0 = 1e-160 every sigma^2 underflows and q is 0: the bridge
    # weight q_k / q_next is taken as 0, not 0 / 0
    tiny = replace(violent, sigma0=1e-160)
    st = simulate_paths(tiny, McSpec(n_paths=64, n_steps=4, seed=2), (0.125, 0.25))
    assert all(np.isfinite(snap).all() for snap in st.snaps.values())


def test_overflowing_vol_factor_raises(table1):
    # a negative reversion speed makes V grow like e^(-M); its exponential
    # overflows, and the march refuses the paths instead of pricing NaN
    runaway = replace(table1, m_rho=-20.0, xi=5.0)
    with pytest.raises(FloatingPointError, match="non-finite"):
        simulate_q(runaway, McSpec(n_paths=64, n_steps=50, seed=2))


def test_step_law_needs_a_finite_reversion_exponential(table1):
    # M(T) = m_rho T^1.5 / 1.5 crosses 354.9, where e^(2M) overflows, at
    # m_rho near 1506; the tables are finite below and refused above
    spec = McSpec(n_paths=64, n_steps=50, seed=2)
    assert np.isfinite(simulate_q(replace(table1, m_rho=1500.0), spec).x).all()
    with pytest.raises(FloatingPointError, match="V's step law overflowed"):
        simulate_q(replace(table1, m_rho=1510.0), spec)


def test_step_law_refuses_a_runaway_reversion_before_marching(table1):
    # at m_rho = -1510, M(T) falls below -354.9 and V's variance factor
    # e^(-2M(T)) overflows: refused when V's law is built, with a warning
    # neither printed nor turned into a march of non-finite paths
    with pytest.raises(FloatingPointError, match=r"e\^\(-2M\(T\)\) is not finite"):
        simulate_q(replace(table1, m_rho=-1510.0), McSpec(n_paths=64, n_steps=50, seed=2))


@pytest.mark.parametrize("h", [0.1, 0.3, 0.7])
def test_v_step_deviations_match_high_precision_integrals(table1, h):
    # each step's deviation is sqrt(int e^(-2 (M(t1) - M(s))) nu(s)^2 ds)
    # over the step, here at 30 digits; step 0 starts at 0, where
    # nu^2 ~ s^(2H - 1) is singular, so s = t1 y^(1/2H) takes the integral
    # to a regular one, nu^2 ds = B_H^2 t1^(2H) / (2H) dy
    m = replace(table1, h=h)
    grid = montecarlo._grid(m, McSpec(n_paths=2, n_steps=50, seed=1))
    decay, dev, _, _ = montecarlo._law_steps(m, grid)
    p, b_h = 1.0 + m.m_pi, m.constants.b_h
    with mp.workdps(30):
        def big_m(t):
            return m.m_rho * mp.mpf(t) ** p / p

        for n in (0, 1, 24, 49):
            t0, t1 = float(grid[n]), float(grid[n + 1])
            two_h = 2 * mp.mpf(h)
            var = mp.quad(lambda y: mp.exp(2 * (big_m(t1 * y ** (1 / two_h)) - big_m(t1))),
                          [(t0 / mp.mpf(t1)) ** two_h, 1]) \
                * b_h ** 2 * mp.mpf(t1) ** two_h / two_h
            assert dev[n] == pytest.approx(float(mp.sqrt(var)), rel=1e-12)
            assert decay[n] == pytest.approx(float(mp.exp(big_m(t0) - big_m(t1))),
                                             rel=1e-14)


@pytest.mark.parametrize("n_steps", [1, 7, 200])
def test_x_step_variance_clock_is_exact_without_vol_of_vol(table1_xi0, n_steps):
    # at xi = 0 sigma is L(t) = sigma0 e^(-kappa t), and each step's clock
    # is int (L(s) / L(t_n))^2 ds over the step, in closed form; the steps
    # sum to the CF's variance sigma0^2 G(T), so march and CF share a clock
    m = table1_xi0
    grid = montecarlo._grid(m, McSpec(n_paths=2, n_steps=n_steps, seed=1))
    _, _, log_l, clock = montecarlo._law_steps(m, grid)
    dt = np.diff(grid)
    want = -np.expm1(-2.0 * m.kappa * dt) / (2.0 * m.kappa)
    np.testing.assert_allclose(clock, want, rtol=1e-13, atol=0.0)
    total = m.sigma0 ** 2 * charfn._unit_response(m.kappa, m.t_mat)
    assert grid[0] == 0.0
    assert float(np.sum(np.exp(2.0 * log_l[:-1]) * clock)) \
        == pytest.approx(total, rel=1e-13)
    # without decay the clock is the step itself
    flat = montecarlo._law_steps(replace(m, kappa=0.0), grid)[3]
    assert flat.tobytes() == dt.tobytes()


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
    # the grid start has no increment, and a date just past it is no node
    for early in (0.0, 1e-4):
        with pytest.raises(ValueError):
            mc_quadratic_variation(table1, spec, (early, 0.5))


def test_off_node_observation_times_are_refused(table1):
    # on a 4-step grid 0.24 is read nowhere: rounded to the node 0.25 it
    # would price the schedule (0.25, 0.5) under another name
    spec = McSpec(n_paths=16, n_steps=4, seed=1)
    for estimate in (lambda obs: mc_quadratic_variation(table1, spec, obs),
                     lambda obs: simulate_paths(table1, spec, obs)):
        with pytest.raises(ValueError, match="observation time 0.24 is not a date "
                                             "of the 4-step grid"):
            estimate((0.24, 0.5))
        estimate((0.25, 0.5))


@pytest.mark.parametrize("n_steps", [200, 500])
def test_default_schedule_is_read_on_its_nodes(table1, n_steps):
    # the default (0.25, 0.5) on the default and the benchmark's grids
    grid = montecarlo._grid(table1, McSpec(n_paths=2, n_steps=n_steps, seed=1))
    assert montecarlo._qv_indices(grid, (0.25, 0.5)) == [n_steps // 2, n_steps]


@settings(max_examples=200, deadline=None, derandomize=True)
@given(t_mat=st.floats(0.01, 10.0), n_steps=st.integers(1, 2000), data=st.data())
def test_qv_indices_are_the_node_dates_exactly(table1, t_mat, n_steps, data):
    # every increasing set of nodes past the start is read at its own
    # index, and a schedule that holds any date off the nodes is refused
    grid = montecarlo._grid(replace(table1, t_mat=t_mat),
                            McSpec(n_paths=2, n_steps=n_steps, seed=1))
    dt = t_mat / n_steps
    idx = sorted(data.draw(st.sets(st.integers(1, n_steps), min_size=1, max_size=20)))
    for times in ([grid[k] for k in idx], [k * dt for k in idx]):
        assert montecarlo._qv_indices(grid, times) == idx
    # a date at least 1e-6 of a step from every node
    frac = data.draw(st.floats(1e-6, 1.0 - 1e-6))
    k = data.draw(st.integers(0, n_steps - 1))
    off = (k + frac) * dt
    times = sorted({*(grid[j] for j in idx if abs(grid[j] - off) > 0.5 * dt), off})
    with pytest.raises(ValueError, match=re.escape(f"observation time {off} is not a date")):
        montecarlo._qv_indices(grid, times)


# ------------------------------------------------------------ the march

def _halves(spec):
    """The paths of each half: two halves, the first the larger."""
    return [spec.n_paths - spec.n_paths // 2, spec.n_paths // 2]


def _streams(seed):
    """Per half, the x-shock's own stream and the vol Brownian's."""
    gens = [np.random.Generator(np.random.SFC64(child))
            for child in np.random.SeedSequence(seed).spawn(4)]
    return list(zip(gens[::2], gens[1::2]))


def _by_halves(march, model, spec, capture=None):
    """march(model, n_paths, grid, own stream, vol stream, capture) per
    half, joined as `_run` joins them."""
    grid = montecarlo._grid(model, spec)
    runs = [march(model, n, grid, own, vol, capture)
            for n, (own, vol) in zip(_halves(spec), _streams(spec.seed))]
    snaps = {k: np.concatenate([r[3][k] for r in runs]) for k in runs[0][3]}
    return Paths(model, spec, grid, *(np.concatenate([r[f] for r in runs])
                                      for f in range(3)), snaps)


def _serial_half(model, n_paths, grid, own_stream, vol_stream, capture):
    """One half of n_paths marched with every normal drawn in line, out of
    place: the reference for the in-place march and its bridge.  The vol
    stream gives one row per step; the x-shock's own stream one row for
    maturity, then one per captured index, latest first.  Returns x, sigma,
    v and the captures."""
    n_steps = len(grid) - 1
    rho = model.rho
    rho_perp = math.sqrt(1.0 - rho * rho)
    drift_x = model.r - model.q
    decay, dev, log_l, clock = montecarlo._law_steps(model, grid)
    part = np.zeros(n_paths)  # sum rho sigma sqrt(w) z_vol
    q = np.zeros(n_paths)     # sum sigma^2 w
    sig = np.full(n_paths, model.sigma0)
    v = np.full(n_paths, model.v0)
    capture = set() if capture is None else set(capture)
    parts = {}
    for n in range(n_steps):
        w = vol_stream.standard_normal(n_paths)
        part = part + sig * (rho * math.sqrt(clock[n])) * w
        q = q + sig * clock[n] * sig
        v = decay[n] * v + dev[n] * w
        sig = np.exp(log_l[n + 1] + model.xi * (v - model.v0))
        parts[n + 1] = part, q

    def x_at(k, s):
        part_k, q_k = parts[k]
        return part_k + drift_x * grid[k] - 0.5 * q_k + rho_perp * s

    s = np.sqrt(q) * own_stream.standard_normal(n_paths)
    x = x_at(n_steps, s)
    snaps = {n_steps: x} if n_steps in capture else {}
    q_next = q
    for k in sorted(capture - {n_steps}, reverse=True):
        q_k = parts[k][1]
        f = np.divide(q_k, q_next, out=np.zeros(n_paths), where=q_next > 0.0)
        s = f * s + np.sqrt(q_k * (1.0 - f)) * own_stream.standard_normal(n_paths)
        snaps[k] = x_at(k, s)
        q_next = q_k
    return x, sig, v, snaps


def _serial_run(model, spec, capture=None):
    """The march of `_run`, half by half on each half's streams."""
    return _by_halves(_serial_half, model, spec, capture)


def _per_step_half(model, n_paths, grid, own_stream, vol_stream, capture):
    """x marched step by step on both normals, each step drawing the x-shock's
    own normal next to the vol Brownian's."""
    rho = model.rho
    rho_perp = math.sqrt(1.0 - rho * rho)
    decay, dev, log_l, clock = montecarlo._law_steps(model, grid)
    x = np.zeros(n_paths)
    sig = np.full(n_paths, model.sigma0)
    v = np.full(n_paths, model.v0)
    snaps = {}
    for n in range(len(grid) - 1):
        z_own = own_stream.standard_normal(n_paths)
        z_vol = vol_stream.standard_normal(n_paths)
        x += (model.r - model.q) * (grid[n + 1] - grid[n]) - 0.5 * clock[n] * sig * sig \
            + sig * math.sqrt(clock[n]) * (rho * z_vol + rho_perp * z_own)
        v = decay[n] * v + dev[n] * z_vol
        sig = np.exp(log_l[n + 1] + model.xi * (v - model.v0))
        if n + 1 in capture:
            snaps[n + 1] = x.copy()
    return x, sig, v, snaps


def _per_step_run(model, spec, capture):
    """The per-step march on each half's streams: the law oracle of the
    bridge."""
    return _by_halves(_per_step_half, model, spec, capture)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2 ** 63), n_paths=st.integers(2, 300),
       n_steps=st.integers(1, 40))
@example(seed=0, n_paths=2, n_steps=1)
@example(seed=1, n_paths=3, n_steps=1)
def test_march_is_bitwise_serial(table1, seed, n_paths, n_steps):
    spec = McSpec(n_paths=n_paths, n_steps=n_steps, seed=seed)
    got = simulate_q(table1, spec)
    ref = _serial_run(table1, spec)
    assert got.x.tobytes() == ref.x.tobytes()
    assert got.sigma.tobytes() == ref.sigma.tobytes()
    assert got.v.tobytes() == ref.v.tobytes()
    obs = (table1.t_mat * (n_steps // 2) / n_steps, table1.t_mat)[n_steps == 1:]
    qv = mc_quadratic_variation(table1, spec, obs)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(montecarlo, "_run", _serial_run)
        assert qv == mc_quadratic_variation(table1, spec, obs)


def test_vol_path_is_a_march_of_the_vol_stream_alone(table1):
    # V and sigma read only the vol Brownian's streams: a march of V alone,
    # fed by each half's vol stream, gives them bit for bit
    spec = McSpec(n_paths=63, n_steps=12, seed=3)
    grid = montecarlo._grid(table1, spec)
    decay, dev, log_l, _ = montecarlo._law_steps(table1, grid)
    parts = []
    for n_paths, (_, v_stream) in zip(_halves(spec), _streams(spec.seed)):
        v = np.full(n_paths, table1.v0)
        for n in range(spec.n_steps):
            v = decay[n] * v + dev[n] * v_stream.standard_normal(n_paths)
        parts.append(v)
    v = np.concatenate(parts)
    sig = np.exp(log_l[-1] + table1.xi * (v - table1.v0))
    got = simulate_q(table1, spec)
    assert got.v.tobytes() == v.tobytes()
    assert got.sigma.tobytes() == sig.tobytes()


@pytest.mark.parametrize("march", [
    lambda model, spec: simulate_q(model, spec),
    lambda model, spec: simulate_paths(model, spec, (0.25, 0.5)),
], ids=["simulate_q", "simulate_paths"])
def test_march_of_two_units_starts_one_thread(table1, monkeypatch, march):
    # the second half marches on one worker thread, joined before the march
    # returns, down to the two paths of the smallest march
    started = []
    start = threading.Thread.start

    def counted(thread):
        started.append(thread)
        start(thread)

    monkeypatch.setattr(threading.Thread, "start", counted)
    before = threading.active_count()
    for n_paths in (64, 3, 2):
        started.clear()
        march(table1, McSpec(n_paths=n_paths, n_steps=12, seed=4))
        assert len(started) == 1
        assert not any(thread.is_alive() for thread in started)
        assert threading.active_count() == before


def _raised_within(seconds, fn):
    """What fn raises, run on a daemon thread so that a hung run fails the
    test instead of stalling the suite."""
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


def test_three_concurrent_callers_each_read_bitwise_serial_run(table1):
    # three simulations at once on three threads, switching every
    # microsecond: each must still read its own streams' normals, as the
    # serial march does
    specs = [McSpec(n_paths=15 + seed, n_steps=150, seed=seed) for seed in range(3)]
    got = {}

    def run_all():
        runners = [threading.Thread(target=lambda s=spec: got.update({s: simulate_q(table1, s)}))
                   for spec in specs]
        for runner in runners:
            runner.start()
        for runner in runners:
            runner.join()

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        assert _raised_within(120.0, run_all) is None
    finally:
        sys.setswitchinterval(interval)
    for spec in specs:
        ref = _serial_run(table1, spec)
        assert got[spec].x.tobytes() == ref.x.tobytes()
        assert got[spec].v.tobytes() == ref.v.tobytes()


def test_march_failure_reaches_caller(table1, monkeypatch):
    # step n reads log L at node n + 1; make step 3's read fail
    boom = ArithmeticError("march failed at step 3")
    law_steps = montecarlo._law_steps

    class FailingNodes(list):
        def __getitem__(self, i):
            if i == 4:
                raise boom
            return super().__getitem__(i)

    def failing_law(model, grid):
        decay, dev, log_l, clock = law_steps(model, grid)
        return decay, dev, FailingNodes(log_l), clock

    monkeypatch.setattr(montecarlo, "_law_steps", failing_law)
    with pytest.raises(ArithmeticError) as raised:
        simulate_q(table1, McSpec(n_paths=64, n_steps=10, seed=4))
    assert raised.value is boom


def _failing_draws(monkeypatch, failing, fails_at):
    """Generators made from here on are listed in `made`, in order; the
    `failing`-th raises `boom` at its `fails_at`-th fill.  Returns both."""
    boom = MemoryError(f"draws of stream {failing} failed")
    real = np.random.Generator
    made = []

    class FailingGenerator:
        def __init__(self, bit_generator):
            self._gen = real(bit_generator)
            self.fills = 0
            self.row = len(made)
            made.append(self)

        def standard_normal(self, *args, **kwargs):
            self.fills += 1
            if self.row == failing and self.fills == fails_at:
                raise boom
            return self._gen.standard_normal(*args, **kwargs)

    monkeypatch.setattr(np.random, "Generator", FailingGenerator)
    return boom, made


@pytest.mark.parametrize("failing", [0, 1, 2, 3])
def test_draw_failure_reaches_caller(table1, monkeypatch, failing):
    # the generators are made per half, the x-shock's own stream first: a
    # vol stream (odd) gives a row per step, make its third fail; an own
    # stream (even) is drawn after the march, make its first draw,
    # maturity's row, fail
    boom, made = _failing_draws(monkeypatch, failing, 3 if failing % 2 else 1)
    with pytest.raises(MemoryError) as raised:
        simulate_q(table1, McSpec(n_paths=64, n_steps=10, seed=4))
    assert raised.value is boom
    assert len(made) == 4


# ------------------------------------------------------------ the halves

@pytest.mark.parametrize("failing", [None, 1, 3], ids=["none", "first-half", "second-half"])
def test_no_thread_outlives_a_march(table1, monkeypatch, failing):
    # stream 1 is the vol stream of the half marched on the calling thread,
    # stream 3 that of the worker's half: a failure in either reaches the
    # caller as the same object, and the worker is joined in every case
    spec = McSpec(n_paths=64, n_steps=10, seed=4)
    want = simulate_q(table1, spec)
    boom, _ = _failing_draws(monkeypatch, failing, 3)
    before = threading.active_count()
    if failing is None:
        assert simulate_q(table1, spec).x.tobytes() == want.x.tobytes()
    else:
        with pytest.raises(MemoryError) as raised:
            simulate_q(table1, spec)
        assert raised.value is boom
    assert threading.active_count() == before


def test_march_beside_another_thread_is_bitwise_serial(table1):
    # a live thread of the caller's changes neither the halves nor their bits
    spec = McSpec(n_paths=301, n_steps=20, seed=5)
    obs = (0.1, 0.25, 0.5)
    release = threading.Event()
    other = threading.Thread(target=release.wait)
    other.start()
    try:
        got = simulate_paths(table1, spec, obs)
    finally:
        release.set()
        other.join(10.0)
    assert not other.is_alive()
    ref = _serial_run(table1, spec, set(
        montecarlo._qv_indices(montecarlo._grid(table1, spec), obs)))
    for field in ("x", "sigma", "v"):
        assert getattr(got, field).tobytes() == getattr(ref, field).tobytes()
    assert got.snaps.keys() == ref.snaps.keys()
    for k in ref.snaps:
        assert got.snaps[k].tobytes() == ref.snaps[k].tobytes()


# -------------------------------------------------- one march, many estimators

@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2 ** 63), n_paths=st.integers(2, 300),
       n_steps=st.integers(2, 40))
@example(seed=0, n_paths=2, n_steps=2)
@example(seed=1, n_paths=3, n_steps=2)
def test_every_horizon_is_bitwise_its_own_simulation(table1, seed, n_paths, n_steps):
    # a march that also captures x for the realized variance ends where a
    # serial simulation ends, and the realized variance read off it is the
    # one its own serial run gives
    spec = McSpec(n_paths=n_paths, n_steps=n_steps, seed=seed)
    obs = (table1.t_mat * (n_steps // 2) / n_steps, table1.t_mat)
    paths = simulate_paths(table1, spec, obs)
    ref = _serial_run(table1, spec)
    assert paths.x.tobytes() == ref.x.tobytes()
    assert paths.sigma.tobytes() == ref.sigma.tobytes()
    assert paths.v.tobytes() == ref.v.tobytes()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(montecarlo, "_run", _serial_run)
        serial = mc_quadratic_variation(table1, spec, obs)
    assert mc_quadratic_variation(table1, spec, obs, paths=paths) == serial


def test_shared_paths_serve_each_estimator_as_its_own_run(table1):
    spec = McSpec(n_paths=256, n_steps=20, seed=8)
    obs = (0.1, 0.3, 0.5)
    paths = simulate_paths(table1, spec, obs)
    strikes = [90.0, 100.0, 110.0]
    assert mc_prices(table1, spec, strikes, paths=paths) \
        == mc_prices(table1, spec, strikes)
    assert mc_quadratic_variation(table1, spec, obs, paths=paths) \
        == mc_quadratic_variation(table1, spec, obs)
    # a path set captured for other observation times cannot serve these
    with pytest.raises(ValueError, match="observation time"):
        mc_quadratic_variation(table1, spec, (0.2, 0.5), paths=paths)


def test_paths_of_another_spec_or_model_are_refused(table1):
    # a path set read under another spec would pass for that spec's own
    # draws, or be read on another grid
    spec = McSpec(n_paths=256, n_steps=20, seed=8)
    obs = (0.25, 0.5)
    paths = simulate_paths(table1, spec, obs)
    for model, other in ((table1, replace(spec, seed=9)),
                         (table1, replace(spec, n_steps=40)),
                         (replace(table1, xi=0.1), spec)):
        with pytest.raises(ValueError, match="another model or spec"):
            mc_prices(model, other, [100.0], paths=paths)
        with pytest.raises(ValueError, match="another model or spec"):
            mc_quadratic_variation(model, other, obs, paths=paths)


# ------------------------------------------------------------ the bridge

def test_bridge_keeps_the_law_of_the_per_step_march(table1):
    # x's own shock drawn once per path and bridged to the captures has the
    # law of the march that draws it at every step: pooled over four seeds,
    # x at maturity and at each capture, three calls and the realized
    # variance agree within 4 combined standard errors.  Both read the same
    # vol paths, which only narrows their gap, so the band is conservative
    m = replace(table1, xi=0.2, rho=-0.7)
    obs = (0.1, 0.25, 0.4, 0.5)
    strikes = [90.0, 100.0, 110.0]
    pooled = {"bridge": {}, "per-step": {}}
    for seed in range(4):
        spec = McSpec(n_paths=20_000, n_steps=50, seed=seed)
        idx = montecarlo._qv_indices(montecarlo._grid(m, spec), obs)
        for name, paths in (("bridge", simulate_paths(m, spec, obs)),
                            ("per-step", _per_step_run(m, spec, set(idx)))):
            stats = {("x", k): montecarlo._stats(paths.snaps[k]) for k in idx[:-1]}
            stats["x", "T"] = montecarlo._stats(paths.x)
            for strike, st in zip(strikes, mc_prices(m, spec, strikes, paths=paths)):
                stats["call", strike] = st
            stats["qv", None] = mc_quadratic_variation(m, spec, obs, paths=paths)
            for key, st in stats.items():
                pooled[name].setdefault(key, []).append(st)
    assert len(pooled["bridge"]) == 3 + 1 + 3 + 1
    for key, runs in pooled["bridge"].items():
        (est_b, se_b), (est_s, se_s) = (
            (np.mean([st.estimate for st in r]),
             math.sqrt(sum(st.std_error ** 2 for st in r)) / len(r))
            for r in (runs, pooled["per-step"][key]))
        assert abs(est_b - est_s) <= 4.0 * math.hypot(se_b, se_s), key


def test_bridge_moments_match_discrete_closed_form(table1_xi0):
    # at xi = 0 every path's q is the deterministic integral of sigma0^2
    # e^(-2 kappa t), so x at a capture has variance q_k, mean
    # (r - q_div) t_k - q_k / 2 and covariance q_k with x_T
    m = table1_xi0
    spec = McSpec(n_paths=100_000, n_steps=100, seed=19)
    obs = (0.1, 0.3, 0.5)
    paths = simulate_paths(m, spec, obs)
    grid = paths.grid
    n = spec.n_paths
    q_T = _discrete_moments(m, spec)[1]
    for k in montecarlo._qv_indices(grid, obs)[:-1]:
        q_k = m.sigma0 ** 2 * -math.expm1(-2.0 * m.kappa * grid[k]) / (2.0 * m.kappa)
        x_k = paths.snaps[k]
        mean = (m.r - m.q) * grid[k] - 0.5 * q_k
        assert abs(float(x_k.mean()) - mean) <= 4.0 * math.sqrt(q_k / n)
        assert abs(float(x_k.var(ddof=1)) - q_k) <= 4.0 * q_k * math.sqrt(2.0 / (n - 1))
        cov = float(np.cov(x_k, paths.x)[0, 1])
        assert abs(cov - q_k) <= 4.0 * math.sqrt((q_k * q_T + q_k ** 2) / (n - 1))
