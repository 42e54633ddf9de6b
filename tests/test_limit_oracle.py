"""The omega-edge limit laws of ``asymptotics`` against a 50-digit mpmath
oracle.

At omega -> 0+ the law's weak limit sits on {0, n}, at omega -> +inf on
{floor(n/2), ceil(n/2)}; for interior psi its masses there are
proportional to C(n, y) psi^y (1-psi)^(n-y).  The oracle takes those
weights at 50 digits and reads every quantity off them: the mean and
the variance summed about the mean, and the limit of tau_j as the
falling-factorial moment E[(Y)_j] / ((n)_j psi^j).  Errors are relative,
with |exact| floored at the smallest normal double, so a mass or a tau
that underflows counts as exact when the library returns 0; a tau beyond
the double range must read +inf.
"""

from __future__ import annotations

import math
import sys

import mpmath as mp
import numpy as np
import pytest

from lmbd import LimitRegime, limit_distribution, limit_moments, tau_limit

DPS = 50
EDGES = ("to-zero", "to-infinity")


def _regimes(count: int = 520, seed: int = 20260) -> list[tuple[str, int, float]]:
    """(omega edge, n, psi): every edge, n and psi of a fixed set, then
    seeded draws of n log-uniform on [1, 2001] and psi uniform,
    log-uniform toward either edge down to 1e-4, or within 0.1 of 1/2."""
    rng = np.random.default_rng(seed)
    out = [(edge, n, psi) for edge in EDGES for n in (1, 2, 3, 4, 5, 64, 65, 2000, 2001)
           for psi in (1e-4, 0.5, 1 - 1e-4)]
    while len(out) < count:
        n = min(2001, math.floor(math.exp(rng.uniform(0.0, math.log(2002)))))
        u, kind = rng.uniform(), rng.integers(4)
        psi = (u, 10 ** (-4 * u), 1 - 10 ** (-4 * u),
               0.5 + (u - 0.5) * 10 ** rng.uniform(-6, -1))[kind]
        out.append((EDGES[rng.integers(2)], n, float(min(max(psi, 1e-4), 1 - 1e-4))))
    return out


REGIMES = _regimes()


def _support(edge: str, n: int) -> tuple[int, int]:
    return (0, n) if edge == "to-zero" else (n // 2, n - n // 2)


def _exact_masses(edge: str, n: int, psi: float) -> dict[int, mp.mpf]:
    with mp.workdps(DPS):
        p = mp.mpf(psi)
        weights = {y: math.comb(n, y) * p ** y * (1 - p) ** (n - y) for y in _support(edge, n)}
        total = mp.fsum(weights.values())
        return {y: w / total for y, w in weights.items()}


def _js(edge: str, n: int, seed: int) -> list[int]:
    """j at 1, 2, n, on and just above each support point, and one
    seeded draw, all in [1, n]."""
    lo, hi = _support(edge, n)
    drawn = int(np.random.default_rng(seed).integers(1, n + 1))
    return sorted({j for j in (1, 2, lo, lo + 1, hi, hi + 1, n, drawn) if 1 <= j <= n})


def _rel(got: float, exact: mp.mpf, scale: float = 1.0) -> float:
    """|got - exact| / |exact|, |exact| floored at ``scale`` times the
    smallest normal double: a mean reaches n times a mass and a variance
    n^2 times one, so below that floor they carry a subnormal mass's
    absolute error."""
    with mp.workdps(DPS):
        if abs(exact) > sys.float_info.max:
            return 0.0 if got == math.inf else math.inf
        floor = scale * mp.mpf(sys.float_info.min)
        return float(abs(mp.mpf(got) - exact) / max(abs(exact), floor))


def test_regimes_reach_the_stated_range():
    assert len(REGIMES) >= 500
    assert {n for _, n, _ in REGIMES} >= {1, 2001}
    assert {psi for _, _, psi in REGIMES} >= {1e-4, 1 - 1e-4}
    assert {edge for edge, _, _ in REGIMES} == set(EDGES)


# twice the worst error, but the mass and moment bound held at 2.0e-13
# (twice would be 2.1e-13): masses 1.05e-13 at (to-zero, 64, 1e-4),
# the mass psi^64 / ((1-psi)^64 + psi^64) near e^-589, whose log carries
# the rounding of 64 log psi; the mean the same there; tau 1.13e-12 at
# (to-zero, 2001, 1e-4, j = 2001), a log-mass near -18430 read back to
# tau_n ~ 1.2.  The dict-based limit laws before this row read 1.47e-13
# for masses and moments (their normalizer added log-sums near -1300 at
# psi ~ 1/2) and the same 1.13e-12 for tau
MASS_BOUND = 2.0e-13
TAU_BOUND = 2.3e-12


def test_limit_distribution_matches_mpmath():
    errors = []
    for edge, n, psi in REGIMES:
        got = limit_distribution(LimitRegime(edge, n), psi)
        exact = _exact_masses(edge, n, psi)
        assert set(got) == set(exact)
        # within two ulps of 1: the row's largest entry is 0
        assert math.fsum(got.values()) == pytest.approx(1.0, abs=4.5e-16)
        errors += [(_rel(got[y], exact[y]), (edge, n, psi, y)) for y in exact]
    worst = max(errors)
    assert worst[0] <= MASS_BOUND, worst


def test_limit_moments_match_mpmath():
    errors = []
    for edge, n, psi in REGIMES:
        mean, variance = limit_moments(LimitRegime(edge, n), psi)
        exact = _exact_masses(edge, n, psi)
        with mp.workdps(DPS):
            exact_mean = mp.fsum(y * m for y, m in exact.items())
            exact_variance = mp.fsum((y - exact_mean) ** 2 * m for y, m in exact.items())
        errors += [(_rel(mean, exact_mean, n), (edge, n, psi, "mean")),
                   (_rel(variance, exact_variance, n * n), (edge, n, psi, "variance"))]
    worst = max(errors)
    assert worst[0] <= MASS_BOUND, worst


def test_tau_limit_matches_mpmath_for_every_j():
    errors = []
    for k, (edge, n, psi) in enumerate(REGIMES):
        exact = _exact_masses(edge, n, psi)
        for j in _js(edge, n, k):
            with mp.workdps(DPS):
                moment = mp.fsum(m * mp.ff(y, j) for y, m in exact.items())
                want = moment / (mp.ff(n, j) * mp.mpf(psi) ** j)
            got = tau_limit(j, LimitRegime(edge, n), psi)
            if max(exact) < j:
                assert got == 0.0
            errors.append((_rel(got, want), (edge, n, psi, j)))
    worst = max(errors)
    assert worst[0] <= TAU_BOUND, worst
