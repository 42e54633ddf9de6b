"""Multiplicative binomial model for sums of exchangeable dependent
Bernoulli variables: exact log-domain pmf/cdf/moments/sampling, limit
regimes, a Gaussian-approximation diagnostic, the K-difference
factorization scans, and majority-vote ensemble accuracy with MLE
fitting.

The public names are the submodules' ``__all__`` lists, re-exported
here in the order core, asymptotics, gauss, factorization, ensemble;
each submodule's list is the only place a name is declared public.
"""

__version__ = "0.1.0"

from . import asymptotics, core, ensemble, factorization, gauss
from .asymptotics import *
from .core import *
from .ensemble import *
from .factorization import *
from .gauss import *

__all__ = ["__version__", *core.__all__, *asymptotics.__all__, *gauss.__all__,
           *factorization.__all__, *ensemble.__all__]
