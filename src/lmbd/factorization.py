"""The K_{n-1} - K_n difference, its parity-dependent factorization, and
the numeric positivity / region scans.

D_n = K_{n-1} - K_n factors as Delta * (psi - 1)(2 psi - 1)(omega - 1),
with an extra (omega + 1) factor for odd n.  Delta is positive away from
the singular set {psi in {1/2, 1}} union {omega = 1} (only numeric
evidence exists; grids here are that evidence).  The sign of D_n decides
tau_1 <= 1, which in turn decides the ordering between psi and the true
per-trial marginal pi = psi tau_1.

A grid reads K_n and tau_1 = K_{n-1} / K_n at every cell off one table
per axis: the kernel's log-weight splits into a psi-only and an
omega-only part, so each axis exponentiates its own factors once and
every cell is a sum of products of the two: a P x W grid costs
(P + W)(n + 1) exps, not one per term and cell.  A cell whose sums
fall below exp(-300), where the factors flushed to 0 could matter,
goes through the log-sum-exp that the scalar functions use.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (_EXP_FLOOR, ModelParams, _kernel_row, _log_weights, _logsumexp,
                   _xlogy, log_k, tau)

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


# cells per kernel call on the log-sum-exp path are chosen so that one
# (cells, terms) block holds about this many doubles
_BLOCK_DOUBLES = 1 << 14
# factors below exp(_EXP_FLOOR / 2) are flushed to 0, so that no product
# of two factors is subnormal: numpy's arithmetic is many times slower
# on subnormal doubles
_LOG_FACTOR_FLOOR = _EXP_FLOOR / 2
# a cell whose sum or i-weighted sum falls below this goes through the
# log-sum-exp; above it the flushed terms, each below
# exp(_LOG_FACTOR_FLOOR) = exp(-350), move the sum by at most
# n (n + 1) exp(-50) of itself
_SUM_FLOOR = math.exp(3 * _EXP_FLOOR / 7)


def _flushed_exp(x: np.ndarray) -> np.ndarray:
    """exp(x) in place, with entries below exp(_LOG_FACTOR_FLOOR) set to 0."""
    small = x < _LOG_FACTOR_FLOOR
    np.maximum(x, _LOG_FACTOR_FLOOR, out=x)
    np.exp(x, out=x)
    x[small] = 0.0
    return x


def _log_k_cells(n: int, psis: np.ndarray, log_omegas: np.ndarray):
    """(log K_n, tau_1) at the cells (psis[k], log_omegas[k]) by a
    log-sum-exp over the kernel's terms, one block of cells per pair of
    kernel calls."""
    step = max(1, _BLOCK_DOUBLES // (n + 1))
    la = np.empty(len(psis))
    lb = np.empty_like(la)
    for start in range(0, len(psis), step):
        block = slice(start, start + step)
        p, w = psis[block, None], log_omegas[block, None]
        la[block] = _logsumexp(_log_weights(n, 1, p, w), axis=-1)
        lb[block] = _logsumexp(_log_weights(n, 0, p, w), axis=-1)
    return lb, np.exp(la - lb)


def _log_k_grid(n: int, psis: np.ndarray, log_omegas: np.ndarray):
    """(log K_n, tau_1) over the psis x omegas grid.

    K_n's log-weight log C(n, i) + i log psi + (n-i) log(1-psi)
    + i (n-i) log omega is a psi-only row A[p, i] plus an omega-only
    column B[i, w].  Each is shifted by its own maximum and
    exponentiated once, so K_n is a sum of products over i.  Since
    tau_1 = E[Y] / (n psi), K_{n-1} is the same sum with the psi factor
    weighted by i and divided by n psi.  Both sums go through one
    ``einsum``: numpy's own loop gives the same bits whatever the BLAS
    thread count, which a BLAS product does not.  Cells whose sums fall
    below _SUM_FLOOR (every psi = 0 cell among them) are recomputed by
    ``_log_k_cells``.
    """
    i, rest, log_binom = (part[:, None] for part in _kernel_row(n))
    a = log_binom + _xlogy(i, psis) + _xlogy(rest, 1.0 - psis)
    a_top = a.max(axis=0)
    a -= a_top
    # i (n-i) peaks at floor(n^2 / 4), which is B's maximum for omega > 1;
    # the exponent difference is an exact integer
    expo = i * rest
    top_expo = np.where(log_omegas > 0.0, expo.max(), 0)
    ea = _flushed_exp(a)
    eb = _flushed_exp((expo - top_expo) * log_omegas)
    sums = np.einsum("ip,iw->pw", np.concatenate([ea, ea * i], axis=1), eb)
    s0, s1 = sums[: len(psis)], sums[len(psis):]
    with np.errstate(divide="ignore", invalid="ignore"):
        log_kn = a_top[:, None] + top_expo * log_omegas + np.log(s0)
        tau1 = s1 / (n * psis[:, None] * s0)
    guard = (s0 < _SUM_FLOOR) | (s1 < _SUM_FLOOR)
    if guard.any():
        rows, cols = np.nonzero(guard)
        log_kn[rows, cols], tau1[rows, cols] = _log_k_cells(n, psis[rows], log_omegas[cols])
    return log_kn, tau1


def delta_grid(spec: GridSpec) -> RegionGrid:
    """Delta per cell, flagged where defined; a Delta beyond the double
    range comes back as an infinity.

    D_n = K_n (tau_1 - 1) is divided by the factors in the log domain,
    so neither K_n nor D_n has to fit in a double.
    """
    n = spec.n
    psis = np.asarray(spec.psi_values)
    omegas = np.asarray(spec.omega_values)
    log_kn, tau1 = _log_k_grid(n, psis, np.log(omegas))
    # the factors are a psi-only row times an omega-only column
    psi = psis[:, None]
    row = (psi - 1.0) * (2.0 * psi - 1.0)
    col = omegas - 1.0
    if n % 2 == 1:
        col = col * (omegas + 1.0)
    singular = (psi == 0.5) | (psi == 1.0) | (omegas == 1.0)
    excess = tau1 - 1.0
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        values = np.sign(excess) * np.sign(row) * np.sign(col) * np.exp(
            log_kn + np.log(np.abs(excess)) - np.log(np.abs(row)) - np.log(np.abs(col)))
    values[singular] = math.nan
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
    _, t1 = _log_k_grid(spec.n, np.asarray(spec.psi_values),
                        np.log(np.asarray(spec.omega_values)))
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
