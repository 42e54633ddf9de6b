"""``moments`` against a 50-digit mpmath oracle.

The oracle sums the unnormalized weights
w_y = C(n, y) psi^y (1-psi)^(n-y) omega^((n-y) y) exactly at 50 digits
and reads every quantity off them: the factorial moments give
tau_1 = E[Y] / (n psi) and tau_2 = E[Y (Y-1)] / (n (n-1) psi^2), and the
variance is summed about the mean.  Relative errors floor |exact| at the
smallest normal double, so a value that underflows in double precision
counts as exact when the library returns 0.
"""

from __future__ import annotations

import functools
import math
import sys

import mpmath as mp
import pytest

from lmbd import ModelParams, moments

DPS = 50
NS = (1, 2, 5, 16, 40, 64, 65, 128, 160, 640)
PSIS = (1e-6, 0.3, 0.5, 0.9, 1 - 1e-6)
OMEGAS = (1e-8, 0.2, 1 - 1e-9, 1.0, 1.5, 1e8)
CELLS = [(n, psi, omega) for n in NS for psi in PSIS for omega in OMEGAS]
# the law piles onto y = n here, where a variance summed about a float
# mean loses every digit
CELLS.append((1000, 0.9, 0.2))
# the law piles onto y = 0 here, with mean and variance below
# core._SUM_FLOOR = e^-600 (2.2e-280 and 1.4e-278) yet normal doubles
CELLS.append((64, 4e-5, 6e-7))


@functools.lru_cache(maxsize=None)
def _exact(n: int, psi: float, omega: float) -> dict[str, mp.mpf]:
    with mp.workdps(DPS):
        p, w = mp.mpf(psi), mp.mpf(omega)
        weights = [
            math.comb(n, y) * p ** y * (1 - p) ** (n - y) * w ** ((n - y) * y)
            for y in range(n + 1)
        ]
        k = mp.fsum(weights)
        probs = [x / k for x in weights]
        mean = mp.fsum(y * q for y, q in enumerate(probs))
        tau1 = mean / (n * p)
        return {
            "tau1": tau1,
            "tau2": (mp.fsum(y * (y - 1) * q for y, q in enumerate(probs))
                     / (n * (n - 1) * p * p)) if n >= 2 else mp.nan,
            "mean": mean,
            "variance": mp.fsum((y - mean) ** 2 * q for y, q in enumerate(probs)),
            "pi": p * tau1,
        }


def _rel_err(lib: float, exact: mp.mpf) -> float:
    with mp.workdps(DPS):
        return float(abs(mp.mpf(lib) - exact) / max(abs(exact), sys.float_info.min))


@pytest.mark.parametrize("n,psi,omega", CELLS)
def test_moments_match_mpmath(n, psi, omega):
    ms = moments(ModelParams(n, psi, omega))
    exact = _exact(n, psi, omega)
    # twice the worst relative error on these cells: 9.9e-14 up to
    # n = 64 (tau_1 at n = 40, psi = 1e-6, omega = 1e-8) and 1.03e-13
    # beyond (tau_2 at n = 640, psi = 0.3, omega = 1e-8)
    bound = 2.0e-13 if n <= 64 else 2.1e-13
    fields = ["tau1", "mean", "variance", "pi"]
    if n >= 2:
        fields.append("tau2")
    else:
        assert math.isnan(ms.tau2)
    errs = {f: _rel_err(getattr(ms, f), exact[f]) for f in fields}
    assert max(errs.values()) <= bound, errs


def test_subnormal_mean_and_variance_match_mpmath():
    # the law sits on y = 0 but for some 1e-320 of mass, so the mean and
    # variance are subnormal; summed over the subnormal products
    # p (y - m) they kept 7.7e-5 and 7.6e-6 of themselves wrong
    ms = moments(ModelParams(2000, 0.409, 0.687))
    exact = _exact(2000, 0.409, 0.687)
    assert 0.0 < ms.mean < ms.variance < sys.float_info.min
    with mp.workdps(DPS):
        for field in ("mean", "variance"):
            assert abs(mp.mpf(getattr(ms, field)) - exact[field]) <= 2 * mp.mpf(2) ** -1074, field
