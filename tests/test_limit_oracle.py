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
the double range must read +inf.  The convergence report's TV at each
omega probe is checked against the exact pmf's mass off the limit's
support, at 50 digits.
"""

from __future__ import annotations

import math
import sys

import mpmath as mp
import numpy as np
import pytest

from lmbd import LimitRegime, convergence_report, limit_distribution, limit_moments, tau_limit

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


PROBES = {"to-zero": [10.0 ** -k for k in range(1, 9)],
          "to-infinity": [10.0 ** k for k in range(1, 9)]}


def _off_support_masses(edge: str, n: int, psi: float, omegas) -> list[mp.mpf]:
    """The exact pmf's mass off the limit's support at each omega: its
    weights C(n, y) psi^y (1-psi)^(n-y) omega^((n-y) y) off the support
    over all of them, at 50 digits.  Double-precision log-weights pick
    the terms within 140 nats of the largest one or of the largest one
    off the support; the others, each below e^-140 < 1e-60 of those,
    cannot move a 50-digit ratio."""
    support = _support(edge, n)
    y = np.arange(n + 1)
    log_f = np.array([math.lgamma(k + 1) for k in range(n + 1)])
    off = ~np.isin(y, support)
    out = []
    with mp.workdps(DPS):
        lp, lq = mp.log(mp.mpf(psi)), mp.log(1 - mp.mpf(psi))
        for omega in omegas:
            log_w = (log_f[n] - log_f - log_f[::-1] + y * math.log(psi)
                     + (n - y) * math.log1p(-psi) + y * (n - y) * math.log(omega))
            off_top = log_w.max(where=off, initial=-np.inf)  # -inf at n = 1: no term is off
            keep = np.flatnonzero((log_w > log_w.max() - 140) | off & (log_w > off_top - 140))
            lw, top = mp.log(mp.mpf(omega)), float(log_w.max())
            w = {int(k): mp.exp(mp.log(math.comb(n, int(k))) + k * lp + (n - k) * lq
                                + k * (n - k) * lw - top) for k in keep}
            out.append(mp.fsum(v for k, v in w.items() if k not in support) / mp.fsum(w.values()))
    return out


# twice the worst relative error of a normal TV over these regimes and
# probes, 1.83e-13 at (to-infinity, 1952, psi 1.29e-3): the pmf's own
# error at n ~ 2000 (PMF_BOUND in test_kernel_oracle.py reads 5.0e-13
# there); at n <= 20 the worst reads 6.6e-14.  The two regimes added
# here read 2.642e-20 at (to-zero, 6, 0.3, omega 1e-4) and 1.057e-16 at
# (to-infinity, 7, 0.3, omega 1e8), where half the L1 distance over
# doubles near 1 read rounding noise, 5.8e-17 and 2.2e-16
TV_BOUND = 3.7e-13


def test_convergence_report_tv_is_the_exact_off_support_mass():
    errors = []
    for edge, n, psi in REGIMES + [("to-zero", 6, 0.3), ("to-infinity", 7, 0.3)]:
        evidence = convergence_report(LimitRegime(edge, n), psi, PROBES[edge]).numeric_evidence
        normal = [(omega, tv) for omega, tv in evidence if tv >= sys.float_info.min]
        exact = _off_support_masses(edge, n, psi, [omega for omega, _ in normal])
        errors += [(_rel(tv, want), (edge, n, psi, omega))
                   for (omega, tv), want in zip(normal, exact)]
    assert len(errors) > 2000
    worst = max(errors)
    assert worst[0] <= TV_BOUND, worst
