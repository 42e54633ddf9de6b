"""Closed-form limit regimes at the omega edges and numeric convergence
evidence against the exact pmf.

omega -> 0+ concentrates the law on the all-equal outcomes {0, n};
omega -> +infinity concentrates it on the most balanced counts: n/2 for
even n, the pair {(n-1)/2, (n+1)/2} for odd n.  For fixed interior psi
the actual weak limits are two-point laws; pushing psi to an edge
collapses them to the point masses of the degenerate regimes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import ModelParams, pmf
from .core import _log_binom, _log_weights, _logsumexp  # shared kernel helpers

__all__ = [
    "LimitRegime",
    "LimitReport",
    "tau_limit_omega_zero",
    "tau_limit_omega_inf_even",
    "tau_limit_omega_inf_odd",
    "limit_moments",
    "limit_distribution",
    "convergence_report",
    "total_variation",
]

_OMEGA_EDGES = ("to-zero", "to-infinity")
_PSI_EDGES = ("none", "to-zero", "to-one")


@dataclass(frozen=True)
class LimitRegime:
    """One edge regime: which omega edge, optionally which psi edge."""

    omega_edge: str
    n: int
    psi_edge: str = "none"

    def __post_init__(self) -> None:
        if self.omega_edge not in _OMEGA_EDGES:
            raise ValueError(f"omega_edge must be one of {_OMEGA_EDGES}")
        if self.psi_edge not in _PSI_EDGES:
            raise ValueError(f"psi_edge must be one of {_PSI_EDGES}")
        if self.n < 1:
            raise ValueError("n must be >= 1")

    @property
    def parity(self) -> str:
        return "even" if self.n % 2 == 0 else "odd"


@dataclass(frozen=True)
class LimitReport:
    regime: LimitRegime
    limit_mean: float
    limit_variance: float
    limit_distribution: dict[int, float]
    numeric_evidence: tuple[tuple[float, float], ...]


def _require_interior(psi: float) -> None:
    if not 0.0 < psi < 1.0:
        raise ValueError(f"psi must be interior (0, 1), got {psi}")


def tau_limit_omega_zero(j: int, n: int, psi: float) -> float:
    """Limit of tau_j as omega -> 0+:  psi^(n-j) / (psi^n + (1-psi)^n)."""
    if not 1 <= j <= n:
        raise ValueError(f"j must lie in [1, n={n}], got {j}")
    _require_interior(psi)
    log_s = _logsumexp(np.array([n * math.log(psi), n * math.log1p(-psi)]))
    return float(math.exp((n - j) * math.log(psi) - log_s))


def tau_limit_omega_inf_even(j: int, n: int, psi: float) -> float:
    """Limit of tau_j as omega -> +inf for even n, valid for j <= n/2:

        (1 / psi^j) * C(n-j, n/2 - j) / C(n, n/2)
    """
    if n % 2 != 0:
        raise ValueError(f"n must be even, got {n}")
    if not 1 <= j <= n // 2:
        raise ValueError(f"j must lie in [1, n/2={n // 2}], got {j}")
    _require_interior(psi)
    half = n // 2
    return float(
        math.exp(
            _log_binom(n - j, half - j) - _log_binom(n, half) - j * math.log(psi)
        )
    )


def _dominant_log_coeff(n: int, a: int, psi: float) -> tuple[int, float]:
    """Max omega-exponent over the K_{n-a} terms and the log of the sum
    of the coefficients attaining it."""
    m = n - a
    i = np.arange(m + 1)
    expo = (m - i) * (i + a)
    emax = int(expo.max())
    # at log omega = 0 the kernel's terms are the bare coefficients
    logs = _log_weights(n, a, psi, 0.0)[expo == emax]
    return emax, _logsumexp(logs)


def tau_limit_omega_inf_odd(j: int, n: int, psi: float) -> float:
    """Limit of tau_j as omega -> +inf for odd n, valid for j <= (n-1)/2.

    Computed by dominant-term extraction: K_{n-j} and K_n are both
    dominated by the terms whose omega-exponent reaches (n^2 - 1) / 4
    (the counts (n-1)/2 and (n+1)/2), and the limit is the ratio of the
    dominant coefficient sums.  For j = 1 this reduces to
    ((n-1)/2 + psi) / (n psi), for j = 2 to ((n-3)/4 + psi) / (n psi^2).
    """
    if n % 2 == 0:
        raise ValueError(f"n must be odd, got {n}")
    if not 1 <= j <= (n - 1) // 2:
        raise ValueError(f"j must lie in [1, (n-1)/2={(n - 1) // 2}], got {j}")
    _require_interior(psi)
    e_num, l_num = _dominant_log_coeff(n, j, psi)
    e_den, l_den = _dominant_log_coeff(n, 0, psi)
    if e_num != e_den:  # not reachable for admissible j
        raise ValueError("dominant omega-exponents differ; limit degenerate")
    return float(math.exp(l_num - l_den))


def limit_distribution(regime: LimitRegime, psi: float) -> dict[int, float]:
    """Support/mass list of the weak limit for the given regime.

    Interior psi yields the two-point refinements; a psi edge collapses
    them to the point masses of the degenerate statement.
    """
    n = regime.n
    if regime.psi_edge == "none":
        _require_interior(psi)
        if regime.omega_edge == "to-zero":
            log_s = _logsumexp(np.array([n * math.log(psi), n * math.log1p(-psi)]))
            p_n = float(math.exp(n * math.log(psi) - log_s))
            return {0: 1.0 - p_n, n: p_n}
        if n % 2 == 0:
            return {n // 2: 1.0}
        return {(n - 1) // 2: 1.0 - psi, (n + 1) // 2: psi}
    if regime.omega_edge == "to-zero":
        return {0: 1.0} if regime.psi_edge == "to-zero" else {n: 1.0}
    if n % 2 == 0:
        return {n // 2: 1.0}
    return {(n - 1) // 2: 1.0} if regime.psi_edge == "to-zero" else {(n + 1) // 2: 1.0}


def limit_moments(regime: LimitRegime, psi: float) -> tuple[float, float]:
    """Limiting (mean, variance) of the regime.

    omega -> 0, interior psi:  mean = n psi^n / S with
    S = psi^n + (1-psi)^n, variance = n^2 psi^n / S - n^2 psi^(2n) / S^2.
    omega -> inf: (n/2, 0) for even n; ((n-1)/2 + psi, psi (1-psi)) for
    odd n, collapsing to variance 0 at the psi edges.
    """
    n = regime.n
    if regime.psi_edge == "none":
        _require_interior(psi)
        if regime.omega_edge == "to-zero":
            log_s = _logsumexp(np.array([n * math.log(psi), n * math.log1p(-psi)]))
            p_n = float(math.exp(n * math.log(psi) - log_s))
            return n * p_n, n * n * p_n - n * n * p_n * p_n
        if n % 2 == 0:
            return n / 2.0, 0.0
        return (n - 1) / 2.0 + psi, psi * (1.0 - psi)
    if regime.omega_edge == "to-zero":
        return (0.0, 0.0) if regime.psi_edge == "to-zero" else (float(n), 0.0)
    if n % 2 == 0:
        return n / 2.0, 0.0
    if regime.psi_edge == "to-zero":
        return (n - 1) / 2.0, 0.0
    return (n + 1) / 2.0, 0.0


def total_variation(table_probs: np.ndarray, limit: dict[int, float]) -> float:
    """TV distance (half L1) between a pmf table and a finite limit law."""
    q = np.zeros(len(table_probs))
    for point, mass in limit.items():
        q[point] = mass
    return 0.5 * float(np.abs(table_probs - q).sum())


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
    limit = limit_distribution(regime, psi)
    mean, var = limit_moments(regime, psi)
    evidence = []
    for w in probes:
        table = pmf(ModelParams(n=regime.n, psi=psi, omega=w))
        evidence.append((w, total_variation(table.probs(), limit)))
    return LimitReport(
        regime=regime,
        limit_mean=mean,
        limit_variance=var,
        limit_distribution=limit,
        numeric_evidence=tuple(evidence),
    )
