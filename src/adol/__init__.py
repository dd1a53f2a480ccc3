"""Rough-volatility pricing library built around a Markovian approximation
of fractional Brownian motion.

The instantaneous volatility is lognormal with a stochastic mean-reversion
speed driven by an auxiliary Gaussian state; the characteristic function of
the log-spot is assembled as a power series in the vol-of-vol, and every
closed form is backed by an independent oracle (Black-Scholes limits,
Monte Carlo, PDE residuals).
"""

from .numerics import (
    QuadratureSpec,
    QuadratureError,
    beta_sym,
    exp_integral_e,
    integrate_adaptive,
)
from .do_process import (
    DoConstants,
    TimeGrid,
    do_constants,
    psi_h,
    cov_m,
    cov_fbm,
    nu_t,
    simulate_mh,
    simulate_vh,
    simulate_fbm_exact,
)
from .model import AdolModel, SmallParamReport, m_t, q_drifts, p_drift_v, small_param_check
from .charfn import (
    CfCoefficients,
    CorrectionConfig,
    coeffs_paper,
    coeffs_affine_ode,
    cf_zero,
    j_state,
    j_integral,
    j_closed,
    tau_closed_gap,
    correction,
    cf_values,
    cf_total,
    pde_residual,
)
from .pricing import (
    FourierPricingSpec,
    VarSwapSpec,
    bs_price,
    fourier_prices,
    implied_vol,
    forward_cf,
    varswap_strike,
)
from .montecarlo import McSpec, PathStats, simulate_q, mc_prices, mc_quadratic_variation

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
