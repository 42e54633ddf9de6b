"""Closed-form limit regimes at the omega edges and numeric convergence
evidence against the exact pmf.

omega -> 0+ concentrates the law on the all-equal outcomes {0, n};
omega -> +infinity concentrates it on the most balanced counts: n/2 for
even n, the pair {(n-1)/2, (n+1)/2} for odd n.  For fixed interior psi
the actual weak limits are two-point laws; pushing psi to an edge
collapses them to the point masses of the degenerate regimes.  The
limits of tau_r and of the mean and variance are read off those laws.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .core import (ModelParams, _Checked, _exp, _integer, _log_sum, _log_tau, _log_weights, _logit,
                   _logsumexp)

__all__ = [
    "LimitRegime",
    "LimitReport",
    "tau_limit",
    "limit_moments",
    "limit_distribution",
    "convergence_report",
    "total_variation",
]

_OMEGA_EDGES = ("to-zero", "to-infinity")
_PSI_EDGES = ("none", "to-zero", "to-one")


class _LimitRegimeFields(NamedTuple):
    omega_edge: str
    n: int
    psi_edge: str = "none"


class LimitRegime(_Checked, _LimitRegimeFields):
    """One edge regime: which omega edge, optionally which psi edge."""

    __slots__ = ()

    def __new__(cls, omega_edge: str, n: int, psi_edge: str = "none"):
        if omega_edge not in _OMEGA_EDGES:
            raise ValueError(f"omega_edge must be one of {_OMEGA_EDGES}")
        if psi_edge not in _PSI_EDGES:
            raise ValueError(f"psi_edge must be one of {_PSI_EDGES}")
        n = _integer("n", n)
        if n < 1:
            raise ValueError("n must be >= 1")
        return super().__new__(cls, omega_edge, n, psi_edge)


class LimitReport(NamedTuple):
    regime: LimitRegime
    limit_mean: float
    limit_variance: float
    limit_distribution: dict[int, float]
    numeric_evidence: tuple[tuple[float, float], ...]


def _log_limit_law(regime: LimitRegime, psi: float) -> dict[int, float]:
    """Log masses, up to one common constant, of the regime's weak limit
    (see ``limit_distribution``)."""
    n = regime.n
    if regime.psi_edge == "none":
        if not 0.0 < psi < 1.0:
            raise ValueError(f"psi must be interior (0, 1), got {psi}")
        if regime.omega_edge == "to-zero":
            return {0: n * math.log1p(-psi), n: n * math.log(psi)}
        if n % 2 == 0:
            return {n // 2: 0.0}
        return {(n - 1) // 2: math.log1p(-psi), (n + 1) // 2: math.log(psi)}
    if regime.omega_edge == "to-zero":
        return {0: 0.0} if regime.psi_edge == "to-zero" else {n: 0.0}
    if n % 2 == 0:
        return {n // 2: 0.0}
    return {(n - 1) // 2: 0.0} if regime.psi_edge == "to-zero" else {(n + 1) // 2: 0.0}


def tau_limit(j: int, regime: LimitRegime, psi: float) -> float:
    """Limit of tau_j at the regime's omega edge for interior psi (no psi
    edge), j in [1, n] as omega -> 0+ and in [1, floor(n/2)] as
    omega -> +inf: the falling-factorial moment of the limit law.

    omega -> 0+:           psi^(n-j) / (psi^n + (1-psi)^n)
    omega -> +inf, even n: C(n-j, n/2 - j) / (C(n, n/2) psi^j)
                           = (n/2)_j / ((n)_j psi^j)
    omega -> +inf, odd n:  ((1-psi) ((n-1)/2)_j + psi ((n+1)/2)_j) / ((n)_j psi^j),
                           ((n-1)/2 + psi) / (n psi) at j = 1,
                           ((n-3)/4 + psi) / (n psi^2) at j = 2
    """
    if regime.psi_edge != "none":
        raise ValueError(f"tau_limit needs interior psi, got psi_edge={regime.psi_edge!r}")
    n, j = regime.n, _integer("j", j)
    top = n if regime.omega_edge == "to-zero" else n // 2
    if not 1 <= j <= top:
        raise ValueError(f"j must lie in [1, {top}] at omega {regime.omega_edge}, got {j}")
    log_law = _log_limit_law(regime, psi)
    peak = max(log_law.values())
    row = np.full(n + 1, -np.inf)
    for y, log_mass in log_law.items():
        row[y] = log_mass - peak
    log_omega = -math.inf if regime.omega_edge == "to-zero" else math.inf  # read at psi = 0 only
    return _exp(float(_log_tau(j, row, _log_sum(row), psi, log_omega)))


def limit_distribution(regime: LimitRegime, psi: float) -> dict[int, float]:
    """Support/mass list of the weak limit for the given regime.

    Interior psi yields the two-point refinements; a psi edge collapses
    them to the point masses of the degenerate statement.
    """
    log_law = _log_limit_law(regime, psi)
    log_total = _logsumexp(np.array(list(log_law.values())))
    return {y: math.exp(v - log_total) for y, v in log_law.items()}


def limit_moments(regime: LimitRegime, psi: float) -> tuple[float, float]:
    """Limiting (mean, variance) of the regime: those of its
    ``limit_distribution``."""
    law = limit_distribution(regime, psi)
    mean = sum(y * mass for y, mass in law.items())
    return mean, sum((y - mean) ** 2 * mass for y, mass in law.items())


def _total_variations(table_probs: np.ndarray, limit: dict[int, float]) -> np.ndarray:
    """TV distance (half L1) of each pmf table on the last axis to a
    finite limit law."""
    q = np.zeros(table_probs.shape[-1])
    for point, mass in limit.items():
        point = _integer("limit point", point)
        if not 0 <= point < len(q):
            raise ValueError(f"limit point {point} lies outside [0, {len(q) - 1}]")
        q[point] = mass
    return 0.5 * np.abs(table_probs - q).sum(axis=-1)


def total_variation(table_probs: np.ndarray, limit: dict[int, float]) -> float:
    """TV distance (half L1) between a pmf table and a finite limit law."""
    return float(_total_variations(table_probs, limit))


def convergence_report(regime: LimitRegime, psi: float, probe_points) -> LimitReport:
    """Evaluate the exact pmf at each omega probe and report the TV
    distance to the regime's limit law.

    Probes must approach the regime's omega edge monotonically
    (strictly decreasing for omega -> 0, increasing for omega -> inf).
    """
    probes = [float(w) for w in probe_points]
    if not probes:
        raise ValueError("probe_points must be non-empty")
    diffs = np.diff(probes)
    if regime.omega_edge == "to-zero" and not (diffs < 0).all():
        raise ValueError("probes must decrease monotonically toward omega = 0")
    if regime.omega_edge == "to-infinity" and not (diffs > 0).all():
        raise ValueError("probes must increase monotonically toward omega = inf")
    for w in probes:
        ModelParams(n=regime.n, psi=psi, omega=w)
    limit = limit_distribution(regime, psi)
    mean, var = limit_moments(regime, psi)
    # every probe's pmf table at once, in one kernel block as ``pmf``
    # builds one
    row = _log_weights(regime.n, _logit(psi), np.log(probes)[:, None])[1]
    probs = np.exp(row - _log_sum(row)[:, None])
    evidence = tuple(zip(probes, _total_variations(probs, limit).tolist()))
    return LimitReport(
        regime=regime,
        limit_mean=mean,
        limit_variance=var,
        limit_distribution=limit,
        numeric_evidence=evidence,
    )
