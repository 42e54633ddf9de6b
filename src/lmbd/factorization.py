"""The K_{n-1} - K_n difference, its parity-dependent factorization, and
the numeric positivity / region scans.

D_n = K_{n-1} - K_n factors as Delta * (psi - 1)(2 psi - 1)(omega - 1),
with an extra (omega + 1) factor for odd n.  Delta is positive away from
the singular set {psi in {1/2, 1}} union {omega = 1} (only numeric
evidence exists; grids here are that evidence).  The sign of D_n decides
tau_1 <= 1, which in turn decides the ordering between psi and the true
per-trial marginal pi = psi tau_1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import ModelParams, _log_weights, _logsumexp, log_k, tau

__all__ = [
    "GridSpec",
    "RegionGrid",
    "Theorem2Report",
    "d_n",
    "delta",
    "is_singular",
    "delta_grid",
    "tau1_region_grid",
    "theorem2_check",
]


@dataclass(frozen=True)
class GridSpec:
    """Axes of a (psi, omega) scan at fixed n."""

    psi_values: tuple[float, ...]
    omega_values: tuple[float, ...]
    n: int

    def __post_init__(self) -> None:
        for name, vals in (("psi_values", self.psi_values),
                           ("omega_values", self.omega_values)):
            if len(vals) == 0:
                raise ValueError(f"{name} must be non-empty")
            if any(b <= a for a, b in zip(vals, vals[1:])):
                raise ValueError(f"{name} must be strictly increasing")
        if any(not 0.0 <= p <= 1.0 for p in self.psi_values):
            raise ValueError("psi_values must lie in [0, 1]")
        if any(w <= 0.0 for w in self.omega_values):
            raise ValueError("omega_values must be positive")
        if self.n < 1:
            raise ValueError("n must be >= 1")

    @staticmethod
    def linspace(n: int, psi_steps: int = 101, omega_steps: int = 101,
                 psi_min: float = 0.01, psi_max: float = 0.99,
                 omega_min: float = 0.05, omega_max: float = 2.0) -> "GridSpec":
        return GridSpec(
            psi_values=tuple(np.linspace(psi_min, psi_max, psi_steps)),
            omega_values=tuple(np.linspace(omega_min, omega_max, omega_steps)),
            n=n,
        )


@dataclass(frozen=True)
class RegionGrid:
    """Row-major cell values over spec.psi_values x spec.omega_values.

    ``kind`` is "delta" (flags mark defined, i.e. non-singular, cells;
    singular cells hold NaN) or "tau1" (flags mark tau_1 <= 1).
    """

    spec: GridSpec
    values: np.ndarray
    flags: np.ndarray
    kind: str


@dataclass(frozen=True)
class Theorem2Report:
    """psi vs pi ordering at one parameter triple."""

    params: ModelParams
    tau1: float
    pi: float
    theorem_applies: bool  # psi >= 1/2 and omega > 1
    relation: str  # one of "<", "=", ">"


def d_n(params: ModelParams) -> float:
    """K_{n-1} - K_n, differenced in the log domain with the larger
    exponent factored out so relative accuracy survives near omega = 1."""
    la = log_k(params.n, 1, params.psi, params.omega)
    lb = log_k(params.n, 0, params.psi, params.omega)
    return math.exp(lb) * math.expm1(la - lb)


def is_singular(params: ModelParams) -> bool:
    """True on the set where the factorization's linear factors vanish."""
    return params.psi in (0.5, 1.0) or params.omega == 1.0


def delta(params: ModelParams) -> float:
    """The residual factor Delta = D_n / [(psi-1)(2 psi-1)(omega-1)
    (omega+1 if n odd)]; NaN on the singular set (0/0 there)."""
    if is_singular(params):
        return math.nan
    psi, omega = params.psi, params.omega
    factors = (psi - 1.0) * (2.0 * psi - 1.0) * (omega - 1.0)
    if params.n % 2 == 1:
        factors *= omega + 1.0
    return d_n(params) / factors


# psi rows per kernel call are chosen so that one (rows, omegas, terms)
# block holds about this many doubles; the whole 101 x 101 x 65 array at
# n = 64 would add some 15 MB to peak memory
_BLOCK_DOUBLES = 1 << 14


def _log_k_grid(n: int, psis: np.ndarray, log_omegas: np.ndarray):
    """(log K_{n-1}, log K_n) over the psis x omegas grid, one block of
    psi rows per pair of kernel calls."""
    rows = max(1, _BLOCK_DOUBLES // (len(log_omegas) * (n + 1)))
    la = np.empty((len(psis), len(log_omegas)))
    lb = np.empty_like(la)
    w = log_omegas[:, None]
    for start in range(0, len(psis), rows):
        block = slice(start, start + rows)
        p = psis[block, None, None]
        la[block] = _logsumexp(_log_weights(n, 1, p, w), axis=-1)
        lb[block] = _logsumexp(_log_weights(n, 0, p, w), axis=-1)
    return la, lb


def delta_grid(spec: GridSpec) -> RegionGrid:
    n = spec.n
    psis = np.asarray(spec.psi_values)
    omegas = np.asarray(spec.omega_values)
    la, lb = _log_k_grid(n, psis, np.log(omegas))
    d = np.exp(lb) * np.expm1(la - lb)
    psi = psis[:, None]
    factors = (psi - 1.0) * (2.0 * psi - 1.0) * (omegas - 1.0)
    if n % 2 == 1:
        factors = factors * (omegas + 1.0)
    singular = (psi == 0.5) | (psi == 1.0) | (omegas == 1.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        values = np.where(singular, math.nan, d / factors)
    return RegionGrid(spec=spec, values=values, flags=~singular, kind="delta")


# numeric tie width for the tau_1 <= 1 classification: on the boundary
# lines psi = 1/2 and omega = 1 the exact value is 1 but the computed
# ratio lands at 1 +- a few ulp
TAU1_TIE_TOL = 1e-12


def tau1_region_grid(spec: GridSpec) -> RegionGrid:
    """tau_1 per cell, flagged where tau_1 <= 1 (ties flagged as <=).

    The flagged region coincides with
    {psi <= 1/2 and omega <= 1} union {psi >= 1/2 and omega >= 1}.
    """
    la, lb = _log_k_grid(spec.n, np.asarray(spec.psi_values),
                         np.log(np.asarray(spec.omega_values)))
    t1 = np.exp(la - lb)
    return RegionGrid(spec=spec, values=t1, flags=t1 <= 1.0 + TAU1_TIE_TOL, kind="tau1")


def theorem2_check(params: ModelParams) -> Theorem2Report:
    """Report the ordering between psi and pi = psi tau_1.

    omega > 1 with psi >= 1/2 forces psi > pi strictly (for interior
    psi); omega = 1 gives equality; psi = 1/2 sits on the symmetric
    boundary where pi = psi.
    """
    t1 = tau(1, params)
    pi = params.psi * t1
    applies = params.psi >= 0.5 and params.omega > 1.0
    # omega = 1 and psi = 1/2 force pi = psi analytically; classify them
    # as ties rather than let rounding pick a side
    if params.psi == pi or params.omega == 1.0 or params.psi == 0.5:
        relation = "="
    elif params.psi > pi:
        relation = ">"
    else:
        relation = "<"
    return Theorem2Report(
        params=params,
        tau1=t1,
        pi=pi,
        theorem_applies=applies,
        relation=relation,
    )
