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
"""

import importlib.util
import sys
import threading
import types

__version__ = "0.1.0"

_LOCK = threading.RLock()
_RUNNING = set()


class _LazyModule(types.ModuleType):
    """A submodule registered but not yet run.  Its first attribute read
    runs it under the package's re-entrant lock, so another thread waits
    for the whole module while the running thread (the submodules'
    imports of each other) reads it as far as it has run; then it is a
    plain module."""

    def __getattribute__(self, attr):
        with _LOCK:
            if type(self) is _LazyModule and self not in _RUNNING:
                _RUNNING.add(self)
                try:
                    spec = object.__getattribute__(self, "__spec__")
                    spec.loader.exec_module(self)
                    self.__class__ = types.ModuleType
                finally:
                    _RUNNING.discard(self)
        return types.ModuleType.__getattribute__(self, attr)


def _lazy(name: str):
    """The submodule ``name``, registered but not yet run."""
    spec = importlib.util.find_spec(f"{__name__}.{name}")
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    module.__class__ = _LazyModule
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
