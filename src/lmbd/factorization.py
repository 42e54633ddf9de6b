"""The K_{n-1} - K_n difference, its parity-dependent factorization, and
the numeric positivity / region scans.

D_n = K_{n-1} - K_n factors as Delta * (psi - 1)(2 psi - 1)(omega - 1),
with an extra (omega + 1) factor for odd n.  Delta is positive away from
the singular set {psi in {1/2, 1}} union {omega = 1} (only numeric
evidence exists; grids here are that evidence).  The sign of D_n decides
tau_1 <= 1, which in turn decides the ordering between psi and the true
per-trial marginal pi = psi tau_1.

A grid reads every cell off one table per axis: the kernel's
log-weight splits into a psi-only and an omega-only part, so each axis
exponentiates its own factors once and every cell is a sum of products
of the two.  The omega part of term i equals that of term n - i, so the
psi factors of the two are added first and the sums run over
floor(n/2) + 1 terms: a P x W grid costs P (n + 1) + W (floor(n/2) + 1)
exps, and no log or exp per cell.  tau_1 is the ratio of the two sums.

D_n has one formula, K_{n-1} - K_n = sum_y (y - n psi) w_y / (n psi)
over K_n's terms w_y: a grid cell sums s1 - n psi s0 off the axis
tables; ``d_n``, ``delta`` and a guarded grid cell (sums below
exp(-300), where the factors flushed to 0 could matter) sum their own
kernel row (``_d_n_sums``).  A guarded cell's tau_1 is the only
log-sum-exp (``_log_k_cells``): a linear s1 underflows where it is tiny.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (_EXP_FLOOR, ModelParams, _kernel_row, _log_kn_tau, _log_weights,
                   _tau1_pi, _xlogy)

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
            # a NaN fails this too, so the ends bound every value
            if not all(a < b for a, b in zip(vals, vals[1:])):
                raise ValueError(f"{name} must be strictly increasing")
        if not (0.0 <= self.psi_values[0] and self.psi_values[-1] <= 1.0):
            raise ValueError("psi_values must lie in [0, 1]")
        if not (0.0 < self.omega_values[0] and self.omega_values[-1] < math.inf):
            raise ValueError("omega_values must be positive and finite")
        if self.n < 1:
            raise ValueError("n must be >= 1")

    @staticmethod
    def linspace(n: int, psi_steps: int = 101, omega_steps: int = 101,
                 psi_min: float = 0.01, psi_max: float = 0.99,
                 omega_min: float = 0.05, omega_max: float = 2.0) -> "GridSpec":
        # check the ends first: numpy warns when it spreads an infinite one
        GridSpec((psi_min,), (omega_min,), n)
        GridSpec((psi_max,), (omega_max,), n)
        return GridSpec(
            psi_values=tuple(np.linspace(psi_min, psi_max, psi_steps)),
            omega_values=tuple(np.linspace(omega_min, omega_max, omega_steps)),
            n=n,
        )


@dataclass(frozen=True)
class RegionGrid:
    """Row-major cell values over spec.psi_values x spec.omega_values,
    with one boolean flag per cell; each grid function says what its
    flags mark."""

    spec: GridSpec
    values: np.ndarray
    flags: np.ndarray


@dataclass(frozen=True)
class Theorem2Report:
    """psi vs pi ordering at one parameter triple."""

    params: ModelParams
    tau1: float
    pi: float
    theorem_applies: bool  # psi >= 1/2 and omega > 1
    relation: str  # one of "<", "=", ">"


def _factors(n: int, psi, omega):
    """(row, col_sign, log_col): the linear factors' psi-only part
    (psi-1)(2 psi-1), and the sign and log magnitude of the omega-only
    part (omega-1), times (omega+1) for odd n.  The log is formed as
    log|omega-1| + log(omega+1), as the product overflows above
    omega ~ 1.3e154.  On arrays, call it with log(0) warnings off."""
    row = (psi - 1.0) * (2.0 * psi - 1.0)
    log_col = np.log(np.abs(omega - 1.0))
    if n % 2:
        log_col += np.log(omega + 1.0)
    return row, np.sign(omega - 1.0), log_col


def _divided_excess(log_scale, excess, row, col_sign, log_col):
    """exp(log_scale) excess / (row col), divided in the log domain; a
    value beyond the double range is a signed infinity."""
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        return np.sign(excess) * np.sign(row) * col_sign * np.exp(
            log_scale + np.log(np.abs(excess)) - np.log(np.abs(row)) - log_col)


def _cell_d_n(params: ModelParams, row, col_sign, log_col) -> float:
    """D_n / (row col) at one cell, off its kernel row."""
    sums = _d_n_sums(params.n, params.psi, math.log(params.omega))
    return float(_divided_excess(*sums, row, col_sign, log_col))


def d_n(params: ModelParams) -> float:
    """K_{n-1} - K_n = K_n (tau_1 - 1); a correctly signed infinity
    beyond the double range, and 0 on the singular set, where tau_1 = 1
    exactly and its rounding error times a large K_n would not be."""
    return 0.0 if is_singular(params) else _cell_d_n(params, 1.0, 1.0, 0.0)


def is_singular(params: ModelParams) -> bool:
    """True on the set where the factorization's linear factors vanish."""
    return params.psi in (0.5, 1.0) or params.omega == 1.0


def delta(params: ModelParams) -> float:
    """The residual factor Delta = D_n / [(psi-1)(2 psi-1)(omega-1)
    (omega+1 if n odd)]; NaN on the singular set (0/0 there), a
    correctly signed infinity beyond the double range."""
    if is_singular(params):
        return math.nan
    return _cell_d_n(params, *_factors(params.n, params.psi, params.omega))


# cells per kernel call on a guarded cell's path are chosen so that one
# (cells, terms) block holds about this many doubles
_BLOCK_DOUBLES = 1 << 14
# factors below exp(_EXP_FLOOR / 2) are flushed to 0, so that no product
# of two factors is subnormal: numpy's arithmetic is many times slower
# on subnormal doubles
_LOG_FACTOR_FLOOR = _EXP_FLOOR / 2
# a cell whose sum or i-weighted sum falls below this is guarded; above
# it the flushed terms, each below exp(_LOG_FACTOR_FLOOR) = exp(-350),
# move the sum by at most n (n + 1) exp(-50) of itself
_SUM_FLOOR = math.exp(3 * _EXP_FLOOR / 7)


def _flushed_exp(x: np.ndarray) -> np.ndarray:
    """exp(x) in place, with entries below exp(_LOG_FACTOR_FLOOR) set to 0."""
    small = x < _LOG_FACTOR_FLOOR
    np.maximum(x, _LOG_FACTOR_FLOOR, out=x)
    np.exp(x, out=x)
    x[small] = 0.0
    return x


def _cell_blocks(n: int, psis: np.ndarray, log_omegas: np.ndarray) -> list:
    """The cells (psis[k], log_omegas[k]) as (psis, log_omegas) blocks,
    one kernel call each."""
    step = max(1, _BLOCK_DOUBLES // (n + 1))
    return [(psis[k:k + step], log_omegas[k:k + step]) for k in range(0, len(psis), step)]


def _d_n_sums(n: int, psi, log_omega):
    """(log_scale, excess) with D_n = exp(log_scale) excess off K_n's
    kernel rows: one row at scalar ``psi`` and ``log_omega``, a block of
    rows at columns of them.

    D_n = sum_y (y - n psi) w_y / (n psi), with the terms y >= 1 divided
    by n psi in the log domain lest they underflow at a tiny psi, shifted
    by the largest, floored at exp(_EXP_FLOOR) as in ``core._log_kn_tau``
    and summed by ``einsum`` as in ``_grid_sums``.  At psi = 0, K_n = 1
    and D_n = expm1((n - 1) log omega), as e^x (1 - e^-x) for x > 0.
    """
    logw = _log_weights(n, psi, log_omega)
    n_psi = n * psi
    edge = np.asarray(psi == 0.0)
    log_n_psi = np.log(n_psi + edge)  # log 1 at psi = 0
    top = np.maximum(logw[..., :1], logw[..., 1:].max(axis=-1, keepdims=True) - log_n_psi)
    terms = logw - (top + log_n_psi)
    terms[..., :1] = logw[..., :1] - top
    np.exp(np.maximum(terms, _EXP_FLOOR, out=terms), out=terms)
    coef = _kernel_row(n)[0] - n_psi
    coef[..., 0] = -1.0
    excess = np.einsum("...i,...i->...", terms, coef)[..., None]
    if edge.any():
        x = (n - 1) * log_omega
        top = np.where(edge, np.maximum(x, 0.0), top)
        excess = np.where(edge, -np.sign(x) * np.expm1(-np.abs(x)), excess)
    return top[..., 0], excess[..., 0]


def _divided_d_n(n: int, psis: np.ndarray, log_omegas: np.ndarray, row, col_sign,
                 log_col) -> np.ndarray:
    """D_n / (row col) at the cells (psis[k], log_omegas[k]), off their
    kernel rows."""
    sums = [_d_n_sums(n, p[:, None], w[:, None]) for p, w in _cell_blocks(n, psis, log_omegas)]
    return _divided_excess(*map(np.concatenate, zip(*sums)), row, col_sign, log_col)


def _log_k_cells(n: int, psis: np.ndarray, log_omegas: np.ndarray) -> np.ndarray:
    """tau_1 at the cells (psis[k], log_omegas[k]) by a log-sum-exp over
    each cell's kernel row."""
    log_tau1 = np.concatenate([_log_kn_tau(1, _log_weights(n, p[:, None], w[:, None]), p, w)[1]
                               for p, w in _cell_blocks(n, psis, log_omegas)])
    with np.errstate(over="ignore"):
        return np.exp(log_tau1)


def _grid_sums(n: int, psis: np.ndarray, log_omegas: np.ndarray):
    """(s0, s1, a_top, b_top) over the psis x omegas grid, such that
    K_n = exp(a_top[p] + b_top[w]) s0[p, w] and
    K_{n-1} = exp(a_top[p] + b_top[w]) s1[p, w] / (n psi[p]).

    K_n's log-weight log C(n, i) + i log psi + (n-i) log(1-psi)
    + i (n-i) log omega is a psi-only row A[i, p] plus an omega-only
    column B[i, w].  Each is shifted by its own maximum and
    exponentiated once, so K_n is a sum of products over i.  Since
    tau_1 = E[Y] / (n psi), K_{n-1} is the same sum with the psi factor
    weighted by i and divided by n psi.  B is symmetric under
    i <-> n-i, so the psi factors of i and n-i are added first and the
    sums run over i = 0..floor(n/2) only.  Both go through one
    ``einsum``: numpy's own loop gives the same bits whatever the BLAS
    thread count, which a BLAS product does not.
    """
    i, rest, log_binom = (part[:, None] for part in _kernel_row(n))
    a = log_binom + _xlogy(i, psis) + _xlogy(rest, 1.0 - psis)
    a_top = a.max(axis=0)
    a -= a_top
    ea = _flushed_exp(a)
    half = n // 2 + 1
    i, rest = i[:half], rest[:half]
    low, high = ea[:half], ea[::-1][:half]  # high[i] = ea[n - i]
    psi_factors = np.concatenate([low + high, i * low + rest * high], axis=1)
    # i (n-i) peaks at floor(n^2 / 4), which is B's maximum for omega > 1;
    # the exponent difference is an exact integer
    expo = i * rest
    top_expo = np.where(log_omegas > 0.0, expo[-1, 0], 0)
    eb = _flushed_exp((expo - top_expo) * log_omegas)
    if n % 2 == 0:
        # i = n/2 is its own partner, so its psi factors were doubled
        eb[-1] *= 0.5
    sums = np.einsum("ip,iw->pw", psi_factors, eb)
    return sums[: len(psis)], sums[len(psis):], a_top, top_expo * log_omegas


_NO_CELLS = (np.empty(0, dtype=np.intp),) * 2


def _guarded(s0: np.ndarray, s1: np.ndarray):
    """(rows, columns) of the cells whose sums fall below _SUM_FLOOR
    (every psi = 0 cell among them): each grid recomputes them off their
    own kernel rows."""
    if s0.min() >= _SUM_FLOOR and s1.min() >= _SUM_FLOOR:
        return _NO_CELLS
    return np.nonzero((s0 < _SUM_FLOOR) | (s1 < _SUM_FLOOR))


def delta_grid(spec: GridSpec) -> RegionGrid:
    """Delta per cell, flagged where defined: singular cells hold NaN
    and are unflagged.  A Delta beyond the double range comes back as a
    correctly signed infinity.

    With the sums of ``_grid_sums``, D_n is
    exp(a_top + b_top) (s1 - n psi s0) / (n psi), so Delta is
    s1 - n psi s0 times a psi-only factor exp(a_top) / (n psi row) and
    an omega-only factor exp(b_top) / col, each formed once per row or
    column in the log domain.  Cells whose factor leaves the double
    range (omega^floor(n^2 / 4) beyond it) are divided in the log domain.
    """
    n = spec.n
    psis = np.asarray(spec.psi_values)
    omegas = np.asarray(spec.omega_values)
    log_omegas = np.log(omegas)
    s0, s1, a_top, b_top = _grid_sums(n, psis, log_omegas)
    guard_rows, guard_cols = _guarded(s0, s1)
    n_psi = n * psis
    excess = s0 * -n_psi[:, None]
    excess += s1
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        row, col_sign, log_col = _factors(n, psis, omegas)
        log_row = a_top - np.log(n_psi)
        row_factor = np.sign(row) * np.exp(log_row - np.log(np.abs(row)))
        col_factor = col_sign * np.exp(b_top - log_col)
        values = excess * row_factor[:, None]
        values *= col_factor
        wide_rows, wide_cols = np.isinf(row_factor), np.isinf(col_factor)
        if wide_rows.any() or wide_cols.any():
            rows, cols = np.nonzero(wide_rows[:, None] | wide_cols)
            values[rows, cols] = _divided_excess(log_row[rows] + b_top[cols], excess[rows, cols],
                                                 row[rows], col_sign[cols], log_col[cols])
    if len(guard_rows):
        values[guard_rows, guard_cols] = _divided_d_n(
            n, psis[guard_rows], log_omegas[guard_cols], row[guard_rows], col_sign[guard_cols],
            log_col[guard_cols])
    singular_rows, singular_cols = (psis == 0.5) | (psis == 1.0), omegas == 1.0
    values[singular_rows] = math.nan
    values[:, singular_cols] = math.nan
    flags = ~(singular_rows[:, None] | singular_cols)
    return RegionGrid(spec=spec, values=values, flags=flags)


# numeric tie width for the tau_1 <= 1 classification: on the boundary
# lines psi = 1/2 and omega = 1 the exact value is 1 but the computed
# ratio lands at 1 +- a few ulp
TAU1_TIE_TOL = 1e-12


def tau1_region_grid(spec: GridSpec) -> RegionGrid:
    """tau_1 per cell, flagged where tau_1 <= 1 (ties flagged as <=).

    The flagged region coincides with
    {psi <= 1/2 and omega <= 1} union {psi >= 1/2 and omega >= 1}.
    """
    n = spec.n
    psis = np.asarray(spec.psi_values)
    log_omegas = np.log(np.asarray(spec.omega_values))
    s0, s1, _, _ = _grid_sums(n, psis, log_omegas)
    with np.errstate(divide="ignore", invalid="ignore"):
        t1 = s1 / (n * psis[:, None] * s0)
    rows, cols = _guarded(s0, s1)
    if len(rows):
        t1[rows, cols] = _log_k_cells(n, psis[rows], log_omegas[cols])
    return RegionGrid(spec=spec, values=t1, flags=t1 <= 1.0 + TAU1_TIE_TOL)


def theorem2_check(params: ModelParams) -> Theorem2Report:
    """Report the ordering between psi and pi = psi tau_1.

    omega > 1 with psi >= 1/2 forces psi > pi strictly (for interior
    psi); omega = 1 gives equality; psi = 1/2 sits on the symmetric
    boundary where pi = psi.
    """
    t1, pi = _tau1_pi(params)
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
