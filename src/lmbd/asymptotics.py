"""Closed-form limit regimes at the omega edges and numeric convergence
evidence against the exact pmf.

omega -> 0+ concentrates the law on the all-equal outcomes {0, n};
omega -> +infinity concentrates it on the most balanced counts
{floor(n/2), ceil(n/2)}, one point for even n.  C(n, y) and y (n-y) are
equal on each support, so for fixed interior psi the weak limit has
masses proportional to (psi / (1-psi))^y there; pushing psi to an edge
keeps the support's lowest or highest point alone.  Each limit law is
one log-pmf row over y = 0..n, -inf off its support (``_limit_row``),
and the limits of tau_r, the mean and the variance are read off it as
off any pmf table.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .core import (ModelParams, _Checked, _exp, _integer, _log_sum, _log_tau, _log_weights, _logit,
                   _table_moments)

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
        return super().__new__(cls, omega_edge, _integer("n", n, 1), psi_edge)


class LimitReport(NamedTuple):
    regime: LimitRegime
    limit_mean: float
    limit_variance: float
    limit_distribution: dict[int, float]
    numeric_evidence: tuple[tuple[float, float], ...]


def _limit_row(regime: LimitRegime, psi: float) -> np.ndarray:
    """The regime's weak limit as a log-pmf row over y = 0..n, -inf off
    its support {lo, hi}: masses proportional to (1-psi)^d at lo and
    psi^d at hi, d = hi - lo, the law's own C(n, y) psi^y (1-psi)^(n-y)
    less the factors the two points share, shifted to a largest entry
    of 0 and less the log of the masses' sum.  A psi edge keeps lo or hi
    alone."""
    n = regime.n
    lo, hi = (0, n) if regime.omega_edge == "to-zero" else (n // 2, n - n // 2)
    row = np.full(n + 1, -np.inf)
    if regime.psi_edge != "none":
        row[lo if regime.psi_edge == "to-zero" else hi] = 0.0
        return row
    if not 0.0 < psi < 1.0:
        raise ValueError(f"psi must be interior (0, 1), got {psi}")
    d = hi - lo
    log_q, log_p = d * math.log1p(-psi), d * math.log(psi)
    top = max(log_q, log_p)
    row[lo], row[hi] = log_q - top, log_p - top
    return row - math.log1p(math.exp(-abs(log_q - log_p))) if d else row


def tau_limit(j: int, regime: LimitRegime, psi: float) -> float:
    """Limit of tau_j, j in [1, n], at the regime's omega edge for
    interior psi (no psi edge): the falling-factorial moment
    E[(Y)_j] / ((n)_j psi^j) of the limit law, 0 where every point of
    its support lies below j.

    omega -> 0+:           psi^(n-j) / (psi^n + (1-psi)^n)
    omega -> +inf, even n: (n/2)_j / ((n)_j psi^j)
    omega -> +inf, odd n:  ((1-psi) ((n-1)/2)_j + psi ((n+1)/2)_j) / ((n)_j psi^j),
                           ((n-1)/2 + psi) / (n psi) at j = 1,
                           ((n-3)/4 + psi) / (n psi^2) at j = 2
    """
    if regime.psi_edge != "none":
        raise ValueError(f"tau_limit needs interior psi, got psi_edge={regime.psi_edge!r}")
    j = _integer("j", j, 1, regime.n)
    return _exp(float(_log_tau(j, _limit_row(regime, psi), 0.0, psi)))


def _masses(row: np.ndarray, probs: np.ndarray) -> dict[int, float]:
    """{y: mass} over the support of a limit row, ``probs`` its exp."""
    return {int(y): float(probs[y]) for y in np.flatnonzero(row > -np.inf)}


def limit_distribution(regime: LimitRegime, psi: float) -> dict[int, float]:
    """Support/mass list of the weak limit for the given regime.

    Interior psi yields the two-point refinements; a psi edge collapses
    them to the point masses of the degenerate statement.
    """
    row = _limit_row(regime, psi)
    return _masses(row, np.exp(row))


def limit_moments(regime: LimitRegime, psi: float) -> tuple[float, float]:
    """Limiting (mean, variance) of the regime: those of its
    ``limit_distribution``."""
    return _table_moments(np.exp(_limit_row(regime, psi)))


def total_variation(table_probs: np.ndarray, limit: dict[int, float]) -> float:
    """TV distance (half L1) between a pmf table and a finite limit law."""
    q = np.zeros(table_probs.shape[-1])
    for point, mass in limit.items():
        q[_integer("limit point", point, 0, len(q) - 1)] = mass
    return float(0.5 * np.abs(table_probs - q).sum(axis=-1))


def convergence_report(regime: LimitRegime, psi: float, probe_points) -> LimitReport:
    """Evaluate the exact pmf at each omega probe and report the TV
    distance to the regime's limit law.

    Probes must approach the regime's omega edge monotonically
    (strictly decreasing for omega -> 0, increasing for omega -> inf).
    The regime takes no psi edge: no omega sequence at a fixed psi
    approaches the iterated psi-edge limit.
    """
    if regime.psi_edge != "none":
        raise ValueError(f"convergence_report needs no psi edge, got psi_edge={regime.psi_edge!r}")
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
    row = _limit_row(regime, psi)
    limit = np.exp(row)
    mean, var = _table_moments(limit)
    # every probe's pmf table at once, in one kernel block as ``pmf``
    # builds one
    kernel = _log_weights(regime.n, _logit(psi), np.log(probes)[:, None])[1]
    probs = np.exp(kernel - _log_sum(kernel)[:, None])
    evidence = tuple(zip(probes, (0.5 * np.abs(probs - limit).sum(axis=-1)).tolist()))
    return LimitReport(
        regime=regime,
        limit_mean=mean,
        limit_variance=var,
        limit_distribution=_masses(row, limit),
        numeric_evidence=evidence,
    )
