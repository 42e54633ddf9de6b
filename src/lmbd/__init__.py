"""Multiplicative binomial model for sums of exchangeable dependent
Bernoulli variables: exact log-domain pmf/cdf/moments/sampling, limit
regimes, a Gaussian-approximation diagnostic, the K-difference
factorization scans, and majority-vote ensemble accuracy with MLE
fitting.

The public names are the submodules' ``__all__`` lists, re-exported
here in the order core, asymptotics, gauss, factorization, ensemble;
each submodule's list is the only place a name is declared public.

The submodules load lazily: ``import lmbd`` registers each one in
``sys.modules`` and as a package attribute, but none runs until its
first attribute access.  ``lmbd.<name>`` runs the submodules in the
order above until one lists the name, then binds it here, so later
reads are plain lookups; the first read of ``__all__`` (``from lmbd
import *`` makes it) runs them all and binds every public name.
Before Python 3.12 LazyLoader's first access is not thread-safe: a
second thread can see a submodule that has not finished running, so
touch what the threads will use from one thread before starting them.
"""

import importlib.util
import sys

__version__ = "0.1.0"


def _lazy(name: str):
    """The submodule ``name``, registered but not yet run."""
    spec = importlib.util.find_spec(f"{__name__}.{name}")
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


core, asymptotics, gauss, factorization, ensemble = _MODULES = tuple(
    map(_lazy, ("core", "asymptotics", "gauss", "factorization", "ensemble")))


def __getattr__(name: str):
    if name == "__all__":
        names = ["__version__"]
        for module in _MODULES:
            names += module.__all__
            globals().update((n, getattr(module, n)) for n in module.__all__)
        globals()["__all__"] = names
        return names
    if not name.startswith("_"):
        for module in _MODULES:
            if name in module.__all__:
                value = globals()[name] = getattr(module, name)
                return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__getattr__("__all__")})
