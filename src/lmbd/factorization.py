"""The K_{n-1} - K_n difference, its parity-dependent factorization, and
the positivity / region scans.

D_n = K_{n-1} - K_n factors as Delta * (psi - 1)(2 psi - 1)(omega - 1),
with an extra (omega + 1) factor for odd n, and Delta is a sum of
positive terms: with q = 1 - psi, d_j = n - 2j - 1,
S_d = sum_{i<d} psi^i q^(d-1-i) and [d]_x = (1 - x^d) / (1 - x)
(d at x = 1),

    Delta (omega + 1)^[n odd]
        = sum_{j=0}^{floor(n/2)-1} C(n-1, j) (psi q)^j S_{d_j}
                                   omega^(j (n-j)) [d_j]_omega.

Derivation: with b the Binomial(n, psi) pmf and w_y = b_y omega^(y (n-y))
K_n's terms, D_n = sum_y (y - n psi) w_y / (n psi).  y and n - y share
omega^(y (n-y)), so the sum groups at level j = min(y, n - y); Abel
summation over j, with sum_y (y - n psi) b_y = 0 and
sum_{y<=j} (y - n p) b_y(p) = -n C(n-1, j) p^(j+1) (1-p)^(n-j), turns the
partial sums into (2 psi - 1) C(n-1, j) (psi q)^(j+1) S_{d_j} times n and
the differences of omega^(j (n-j)) into -(omega - 1) omega^(j (n-j))
[d_j]_omega.  For odd n, d_j is even and [d_j]_omega =
(1 + omega) [d_j / 2]_{omega^2}, so (omega + 1) divides out exactly.

So Delta > 0 is proven for n >= 2, psi in [0, 1] and omega > 0 (the
j = 0 term alone is positive), Delta(psi, 1) = (n - 1) / (1 + [n odd]),
and D_n, tau_1 - 1 and pi - psi have the sign of the linear factors:
pi - psi that of (1 - 2 psi)(omega - 1) in all four quadrants.  D_1 = 0.

Each term is a psi-only factor times an omega-only factor.  With
a = max(psi, q) and b = min(psi, q), S_d = a^(d-1) [d]_{b/a}, and
[d]_x = expm1(d log x) / expm1(log x) for x < 1, x^(d-1) [d]_{1/x} above
1: no term divides by a linear factor, so Delta is accurate to rounding
on the lines psi in {1/2, 1} and omega = 1 as off them.  ``_delta_tables``
builds both factors' logs, per psi and per omega; ``delta`` takes their
log-sum-exp, and ``delta_grid`` exponentiates each table once and sums
their products in one ``einsum``.  ``tau1_region_grid`` reads tau_1 the
same way off K_n's kernel (``_grid_sums``).  A grid cell whose sums fall
below exp(-300), where the factors flushed to 0 could matter, is read by
a log-sum-exp instead.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .core import (_EXP_FLOOR, ModelParams, _Checked, _exp, _integer, _kernel_row, _log_sum,
                   _log_tau, _log_weights, _logit, _logsumexp, _row_cache, _tau1_pi, _xlogy)

__all__ = [
    "GridSpec",
    "RegionGrid",
    "Theorem2Report",
    "d_n",
    "delta",
    "delta_grid",
    "tau1_region_grid",
    "theorem2_check",
]


def _check_axes(psi_values, omega_values) -> None:
    for name, vals in (("psi_values", psi_values), ("omega_values", omega_values)):
        if len(vals) == 0:
            raise ValueError(f"{name} must be non-empty")
        # a NaN fails this too, so the ends bound every value
        if not all(a < b for a, b in zip(vals, vals[1:])):
            raise ValueError(f"{name} must be strictly increasing")
    if not (0.0 <= psi_values[0] and psi_values[-1] <= 1.0):
        raise ValueError("psi_values must lie in [0, 1]")
    if not (0.0 < omega_values[0] and omega_values[-1] < math.inf):
        raise ValueError("omega_values must be positive and finite")


class _GridSpecFields(NamedTuple):
    psi_values: tuple[float, ...]
    omega_values: tuple[float, ...]
    n: int


class GridSpec(_Checked, _GridSpecFields):
    """Axes of a (psi, omega) scan at fixed n."""

    __slots__ = ()

    def __new__(cls, psi_values: tuple[float, ...], omega_values: tuple[float, ...], n: int):
        _check_axes(psi_values, omega_values)
        return super().__new__(cls, psi_values, omega_values, _integer("n", n, 1))

    @staticmethod
    def linspace(n: int, psi_steps: int = 101, omega_steps: int = 101,
                 psi_min: float = 0.01, psi_max: float = 0.99,
                 omega_min: float = 0.05, omega_max: float = 2.0) -> "GridSpec":
        # check the ends first: numpy warns when it spreads an infinite one
        _check_axes((psi_min,), (omega_min,))
        _check_axes((psi_max,), (omega_max,))
        psi_steps = _integer("psi_steps", psi_steps, 1)
        omega_steps = _integer("omega_steps", omega_steps, 1)
        return GridSpec(
            psi_values=tuple(np.linspace(psi_min, psi_max, psi_steps).tolist()),
            omega_values=tuple(np.linspace(omega_min, omega_max, omega_steps).tolist()),
            n=n,
        )


class RegionGrid(NamedTuple):
    """Row-major cell values over spec.psi_values x spec.omega_values,
    with one boolean flag per cell; each grid function says what its
    flags mark."""

    spec: GridSpec
    values: np.ndarray
    flags: np.ndarray


class Theorem2Report(NamedTuple):
    """psi vs pi ordering at one parameter triple."""

    params: ModelParams
    tau1: float
    pi: float
    theorem_applies: bool  # psi >= 1/2 and omega > 1
    relation: str  # one of "<", "=", ">"


def _log_q_integer(e: np.ndarray, log_x):
    """log [e]_x = log((1 - x^e) / (1 - x)) for integers e >= 1 and
    x in [0, 1], given log x (-inf at x = 0): log e at x = 1, and expm1
    keeps every digit near it."""
    if not isinstance(log_x, np.ndarray):
        return np.log(e if log_x == 0.0 else np.expm1(e * log_x) / math.expm1(log_x))
    with np.errstate(invalid="ignore"):
        ratio = np.expm1(e * log_x) / np.expm1(log_x)
    return np.log(np.where(log_x == 0.0, e, ratio))


@_row_cache
def _delta_terms(n: int):
    """(log C(n-1, j), j, d_j, e_j, j (n-j)) for j = 0..floor(n/2)-1 as
    read-only floats, with d_j = n - 2j - 1 and e_j = d_j / (1 + [n odd]):
    the parts of Delta's terms that depend on n alone."""
    half = n // 2
    j = np.arange(half, dtype=float)
    d = n - 1.0 - 2.0 * j
    return _kernel_row(n - 1)[2][:half], j, d, d / (1 + n % 2), j * (n - j)


def _delta_tables(n: int, psi, omega):
    """(A, B) with Delta = sum_j exp(A[j] + B[j]) over j = 0..floor(n/2)-1
    (n >= 2): A the logs of the psi factors C(n-1, j) (psi q)^j S_{d_j},
    B those of the omega factors omega^(j (n-j)) [d_j]_omega, divided by
    (omega + 1) for odd n as [e_j]_{omega^2}, e_j = d_j / 2.

    Scalars give one table row each; 1-D arrays give (terms, len(psi))
    and (terms, len(omega)).  The per-psi and per-omega logs take
    ``math`` on scalars and numpy on arrays, as ``_xlogy`` does.
    """
    log_binom, j, d, e, cross = _delta_terms(n)
    q = 1.0 - psi
    if isinstance(psi, np.ndarray):
        log_binom, j, d, e, cross = (part[:, None] for part in (log_binom, j, d, e, cross))
        a = np.maximum(psi, q)
        log_a = np.log(a)
        with np.errstate(divide="ignore"):
            log_ratio = np.log1p(-np.abs(2.0 * psi - 1.0) / a)
        log_omega = np.log(omega)
    else:
        a = max(psi, q)
        log_a = math.log(a)
        # b / a = 1 - |2 psi - 1| / a; it is 0 at psi in {0, 1}
        gap = abs(2.0 * psi - 1.0) / a
        log_ratio = math.log1p(-gap) if gap < 1.0 else -math.inf
        log_omega = math.log(omega)
    theta = (1 + n % 2) * log_omega
    rising, falling = np.maximum(theta, 0.0), -np.abs(theta)
    table_a = log_binom + _xlogy(j, psi * q) + (d - 1.0) * log_a + _log_q_integer(d, log_ratio)
    # [e]_x = x^(e-1) [e]_{1/x} above x = 1
    table_b = cross * log_omega + (e - 1.0) * rising + _log_q_integer(e, falling)
    return table_a, table_b


def _log_delta(n: int, psi: float, omega: float) -> float:
    """log Delta at one point: -inf at n = 1, where Delta = 0, and 0 at
    n = 2, 3, where the one term is S_{n-1} = 1 (S_2 = psi + q) times
    [n-1]_omega / (omega + 1)^[n odd] = 1."""
    if n < 4:
        return 0.0 if n > 1 else -math.inf
    return _logsumexp(np.add(*_delta_tables(n, psi, omega)))


def _d_n_sign(n: int, psi, omega):
    """The sign of D_n as an int8: that of the linear factors, as
    Delta > 0, and 0 at n = 1.  Scalars or broadcasting arrays."""
    row = (n > 1) * np.sign(psi - 1.0) * np.sign(2.0 * psi - 1.0)
    return row.astype(np.int8) * np.sign(omega - 1.0).astype(np.int8)


def d_n(params: ModelParams) -> float:
    """K_{n-1} - K_n = K_n (tau_1 - 1), as Delta times the linear factors:
    exactly 0.0 on the lines psi in {1/2, 1} and omega = 1, a correctly
    signed infinity beyond the double range."""
    n, psi, omega = params
    # each factor is 0 or at least 2^-53 in size, so the product cannot
    # underflow: it is 0 exactly on the lines
    factors = (psi - 1.0) * (2.0 * psi - 1.0) * (omega - 1.0)
    if n < 2 or factors == 0.0:
        return 0.0
    # 2 psi - 1 and omega - 1, which vanish on the lines, multiply in as
    # doubles: their logs would round at their own size, up to
    # |log 2^-53|, and exp would carry that into every digit.  Only
    # where Delta (1 - psi) (1 + omega)^[n odd] leaves the range of exp
    # are they added as logs
    small = abs(2.0 * psi - 1.0) * abs(omega - 1.0)
    log_rest = _log_delta(n, psi, omega) + math.log1p(-psi) + n % 2 * math.log1p(omega)
    if abs(log_rest) < -_EXP_FLOOR:
        return math.copysign(math.exp(log_rest) * small, factors)
    return math.copysign(_exp(log_rest + math.log(small)), factors)


def delta(params: ModelParams) -> float:
    """The residual factor Delta = D_n / [(psi-1)(2 psi-1)(omega-1)
    (omega+1 if n odd)], continued onto the lines where the factors
    vanish: positive for n >= 2, 0 at n = 1, +inf above the double range
    and 0 below it (near psi = 1/2 with omega < 1 from n = 1088 on)."""
    return _exp(_log_delta(*params))


# cells per block on a guarded cell's path are chosen so that one
# (cells, terms) block holds about this many doubles
_BLOCK_DOUBLES = 1 << 14
# factors below exp(_EXP_FLOOR / 2) are flushed to 0, so that no product
# of two factors is subnormal: numpy's arithmetic is many times slower
# on subnormal doubles
_LOG_FACTOR_FLOOR = _EXP_FLOOR / 2
# a cell whose sum falls below this is guarded; above it the flushed
# terms, each below exp(_LOG_FACTOR_FLOOR) = exp(-350), move the sum by
# at most n (n + 1) exp(-50) of itself
_SUM_FLOOR = math.exp(3 * _EXP_FLOOR / 7)


def _flushed_exp(x: np.ndarray) -> np.ndarray:
    """exp(x) in place, with entries below exp(_LOG_FACTOR_FLOOR) set to 0."""
    small = x < _LOG_FACTOR_FLOOR
    np.maximum(x, _LOG_FACTOR_FLOOR, out=x)
    np.exp(x, out=x)
    x[small] = 0.0
    return x


def _blocks(terms: int, *cells: np.ndarray) -> list:
    """The cells, parallel arrays of one entry per cell, cut into blocks
    of about _BLOCK_DOUBLES / terms cells."""
    step = max(1, _BLOCK_DOUBLES // terms)
    return [tuple(c[k:k + step] for c in cells) for k in range(0, len(cells[0]), step)]


def _log_k_cells(n: int, psis: np.ndarray, log_omegas: np.ndarray) -> np.ndarray:
    """tau_1 at the cells (psis[k], log_omegas[k]) by a log-sum-exp over
    each cell's kernel row."""
    log_tau1 = []
    for p, w in _blocks(n + 1, psis, log_omegas):
        row = _log_weights(n, _logit(p)[:, None], w[:, None])[1]
        log_tau1.append(_log_tau(1, row, _log_sum(row), p, w))
    log_tau1 = np.concatenate(log_tau1)
    with np.errstate(over="ignore"):
        return np.exp(log_tau1)


def _log_delta_cells(table_a: np.ndarray, table_b: np.ndarray, rows, cols) -> np.ndarray:
    """log Delta at the cells (rows[k], cols[k]) of ``delta_grid``'s
    tables, by a log-sum-exp over each cell's terms."""
    return np.concatenate([_logsumexp(table_a[:, r] + table_b[:, c], axis=0)
                           for r, c in _blocks(len(table_a), rows, cols)])


def _grid_sums(n: int, psis: np.ndarray, log_omegas: np.ndarray):
    """(s0, s1) over the psis x omegas grid with tau_1 = s1 / (n psi s0).

    K_n's log-weight is a psi-only row A[p, i] plus an omega-only column
    B[i, w] = i (n-i) log omega, each shifted by its maximum and
    exponentiated once; A's rows are the kernel's at omega = 1, which
    come out shifted.  tau_1 = E[Y] / (n psi) weights the psi factor by
    i.  B is symmetric under i <-> n-i, so the psi factors of i and n-i
    are added first and the sums run over i = 0..floor(n/2).  ``einsum``,
    like the grids' other sums, gives the same bits whatever the BLAS
    thread count, which a BLAS product does not.
    """
    ea = _flushed_exp(_log_weights(n, _logit(psis)[:, None], 0.0)[1])
    half = n // 2 + 1
    i, expo = (part[:half] for part in _kernel_row(n)[:2])  # expo = i (n-i)
    low, high = ea[:, :half], ea[:, ::-1][:, :half]  # high[:, i] = ea[:, n - i]
    psi_factors = np.concatenate([low + high, low * i + high * (n - i)])
    # i (n-i) peaks at floor(n^2 / 4), which is B's maximum for omega > 1;
    # the exponent difference is an exact integer
    top_expo = np.where(log_omegas > 0.0, expo[-1], 0.0)
    eb = _flushed_exp((expo[:, None] - top_expo) * log_omegas)
    if n % 2 == 0:
        # i = n/2 is its own partner, so its psi factors were doubled
        eb[-1] *= 0.5
    sums = np.einsum("pi,iw->pw", psi_factors, eb)
    return sums[: len(psis)], sums[len(psis):]


_NO_CELLS = (np.empty(0, dtype=np.intp),) * 2


def _guarded(*sums: np.ndarray):
    """(rows, columns) of the cells where any of the ``sums`` falls below
    _SUM_FLOOR (every psi = 0 cell of ``tau1_region_grid`` among them)."""
    if all(s.min() >= _SUM_FLOOR for s in sums):
        return _NO_CELLS
    return np.nonzero(np.logical_or.reduce([s < _SUM_FLOOR for s in sums]))


def delta_grid(spec: GridSpec) -> RegionGrid:
    """Delta per cell, flagged where Delta > 0: every cell for n >= 2
    unless Delta falls below the double range, where it reads 0 as in
    ``delta``; none at n = 1, where Delta = 0.  A Delta above the double
    range comes back as +inf.

    A cell is exp(a_top + b_top) times the sum over j of the products of
    ``_delta_tables``' two tables, each shifted by its maximum; a column
    whose exp(b_top) leaves the double range is scaled in the log domain.
    """
    n = spec.n
    shape = (len(spec.psi_values), len(spec.omega_values))
    if n < 4:
        values = np.full(shape, float(n > 1))  # as in ``_log_delta``
    else:
        table_a, table_b = _delta_tables(n, *map(np.asarray, (spec.psi_values, spec.omega_values)))
        a_top, b_top = table_a.max(axis=0), table_b.max(axis=0)
        sums = np.einsum("jp,jw->pw", _flushed_exp(table_a - a_top), _flushed_exp(table_b - b_top))
        values = sums * np.exp(a_top)[:, None]
        # 0 * inf in a wide column is a guarded cell, recomputed below
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            col_factor = np.exp(b_top)
            values *= col_factor
            wide = np.isinf(col_factor)
            if wide.any():
                values[:, wide] = np.exp(np.log(sums[:, wide]) + a_top[:, None] + b_top[wide])
            rows, cols = _guarded(sums)
            if len(rows):
                values[rows, cols] = np.exp(_log_delta_cells(table_a, table_b, rows, cols))
    return RegionGrid(spec=spec, values=values, flags=values > 0.0)


def tau1_region_grid(spec: GridSpec) -> RegionGrid:
    """tau_1 per cell, flagged where tau_1 <= 1, read off the proven sign
    of D_n: the region
    {psi <= 1/2 and omega <= 1} union {psi >= 1/2 and omega >= 1}
    union {psi = 1}, and every cell at n = 1.
    """
    n = spec.n
    psis = np.asarray(spec.psi_values)
    omegas = np.asarray(spec.omega_values)
    log_omegas = np.log(omegas)
    s0, s1 = _grid_sums(n, psis, log_omegas)
    with np.errstate(divide="ignore", invalid="ignore"):
        t1 = s1 / (n * psis[:, None] * s0)
    rows, cols = _guarded(s0, s1)
    if len(rows):
        t1[rows, cols] = _log_k_cells(n, psis[rows], log_omegas[cols])
    return RegionGrid(spec=spec, values=t1, flags=_d_n_sign(n, psis[:, None], omegas) <= 0)


def theorem2_check(params: ModelParams) -> Theorem2Report:
    """Report the ordering between psi and pi = psi tau_1.

    pi - psi = psi (tau_1 - 1) has the sign of psi D_n, the product of
    two signs (a subnormal psi times D_n could round to 0): omega > 1
    with 1/2 < psi < 1 gives psi > pi, and so does omega < 1 with
    psi < 1/2; omega = 1, psi in {0, 1/2, 1} and n = 1 give equality.
    """
    t1, pi = _tau1_pi(params)
    sign = np.sign(params.psi) * _d_n_sign(params.n, params.psi, params.omega)
    return Theorem2Report(params=params, tau1=t1, pi=pi,
                          theorem_applies=params.psi >= 0.5 and params.omega > 1.0,
                          relation="<" if sign > 0 else ">" if sign < 0 else "=")
