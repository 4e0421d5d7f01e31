"""thorin: Laguerre-basis expansions of multivariate gamma-convolution
densities, with estimation from samples or formal densities,
well-behavedness diagnostics and goodness-of-fit validation.

Every name in a module's ``__all__`` imports from ``thorin`` itself,
except :mod:`thorin.oracle`'s: the extended-precision oracles load only
when imported, with mpmath."""

__version__ = "0.1.0"

from . import numkit, laguerre, ggc, wellbehaved, estimator, validate
from .numkit import *  # noqa: F401,F403
from .laguerre import *  # noqa: F401,F403
from .ggc import *  # noqa: F401,F403
from .wellbehaved import *  # noqa: F401,F403
from .estimator import *  # noqa: F401,F403
from .validate import *  # noqa: F401,F403

__all__ = [name for module in (numkit, laguerre, ggc, wellbehaved, estimator, validate)
           for name in module.__all__]
