"""Rough-volatility pricing library built around a Markovian approximation
of fractional Brownian motion.

The instantaneous volatility is lognormal with a stochastic mean-reversion
speed driven by an auxiliary Gaussian state; the characteristic function of
the log-spot is assembled as a power series in the vol-of-vol, and every
closed form is backed by an independent oracle (Black-Scholes limits,
Monte Carlo, PDE residuals).
"""

from . import numerics, do_process, model, charfn, pricing, montecarlo
from .numerics import *  # noqa: F403
from .do_process import *  # noqa: F403
from .model import *  # noqa: F403
from .charfn import *  # noqa: F403
from .pricing import *  # noqa: F403
from .montecarlo import *  # noqa: F403

__version__ = "0.1.0"

# each module's __all__ is its public surface; the package's is their union
__all__ = [name for module in (numerics, do_process, model, charfn, pricing, montecarlo)
           for name in module.__all__]
