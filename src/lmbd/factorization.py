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

More strongly, pi = E[Y] / n is strictly monotone in omega over
(0, inf) for n >= 2 and psi in (0, 1), in the direction of the sign
of 1 - 2 psi: increasing for psi < 1/2, decreasing for psi > 1/2, and
1/2 at psi = 1/2.  Proof: the law is an exponential family in
(theta_1, theta_2) = (logit psi, log omega) with statistics Y and
Y (n-Y), so dE[Y]/dlog omega = Cov(Y, Y (n-Y)).  With S = Y - n/2,
Y (n-Y) = n^2/4 - S^2, and the law of S is a base
nu(s) ~ C(n, n/2 + s) omega^(-s^2), symmetric in s, tilted by
e^(theta_1 s); so Cov(Y, Y (n-Y)) = -Cov(S, S^2).  Given U = |S| = u > 0,
S = +u or -u with odds e^(2 theta_1 u), so E[S | U] = U tanh(theta_1 U)
and E[S^3 | U] = U^3 tanh(theta_1 U), while S^2 = U^2: hence
Cov(S, S^2) = Cov(U^2, U tanh(theta_1 U)).  For theta_1 > 0 both are
strictly increasing in U >= 0, and Chebyshev's association inequality,
Cov(f(U), g(U)) = E[(f(U) - f(U'))(g(U) - g(U'))] / 2 > 0 for an
independent copy U', holds strictly, as every y has positive weight
and U takes at least two values for n >= 2.  So dE[Y]/dlog omega < 0
for psi > 1/2; theta_1 < 0 turns both signs, and at theta_1 = 0 the
law of S is symmetric, E[S] = 0 and pi = 1/2.  Theorem 2's ordering of
pi and psi is the comparison with omega = 1, where pi = psi.

Each term is a psi-only factor times an omega-only factor.  With
a = max(psi, q) and b = min(psi, q), S_d = a^(d-1) [d]_{b/a}, and
[d]_x = expm1(d log x) / expm1(log x) for x < 1, x^(d-1) [d]_{1/x} above
1: no term divides by a linear factor, so Delta is as accurate on the
lines psi in {1/2, 1} and omega = 1 as off them.  The psi factor takes
log q = log1p(-psi), log(psi q) = log psi + log1p(-psi) and
log a = max(log psi, log1p(-psi)), as q = 1 - psi rounds for
psi < 1/2 and d_j ~ n multiplies log a; log(b / a) stays
log1p(-|2 psi - 1| / a), which a difference of logs would lose near
psi = 1/2.  ``_log_delta`` builds one cell's terms, its per-psi and
per-omega logs by ``math``, and sums them by ``_logsumexp``;
``_delta_tables`` builds a grid's, both factors' logs per psi and per
omega, and ``delta_grid`` exponentiates each table once and sums their
products in one ``einsum``.  ``tau1_region_grid`` reads tau_1 the same
way off K_n's kernel (``_grid_sums``).  The grids exponentiate by
``core._floored_exp`` at their own floor, e^-350, half the rows' e^-700,
so that no product of two factors is subnormal.  One guard re-reads by a
log-sum-exp each grid cell whose sums fall below exp(-300), where the
raised factors could matter: each grid marks those cells on its
einsum's output (``_low_cells``, one minimum per sum deciding whether
there are any), then scales that output in place into its values, and
``_fill_guarded`` overwrites the marked cells.  Of the arrays with an
entry per cell, a grid allocates its einsum's output, its values (the
same array in ``delta_grid``), its flags and, where it guards cells,
their mask, beside ``delta_grid``'s logs of its wide columns.
``GridSpec.linspace`` spreads its axes by ``_linspace``, np.linspace's
float arithmetic without its per-call overhead.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .core import (_EXP_FLOOR, ModelParams, _Checked, _exp, _floored_exp, _integer, _kernel,
                   _kernel_row, _log_falling, _log_sum, _log_weights, _logit, _logsumexp,
                   _natural, _ordered, _positive, _probability, _row_cache, _tau)

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


class _GridSpecFields(NamedTuple):
    psi_values: tuple[float, ...]
    omega_values: tuple[float, ...]
    n: int


class GridSpec(_Checked, _GridSpecFields):
    """Axes of a (psi, omega) scan at fixed n."""

    __slots__ = ()

    def __new__(cls, psi_values: tuple[float, ...], omega_values: tuple[float, ...], n: int):
        return super().__new__(cls, _ordered("psi_values", psi_values, 1, _probability),
                               _ordered("omega_values", omega_values, 1, _positive),
                               _integer("n", n, 1))

    @staticmethod
    def linspace(n: int, psi_steps: int = 101, omega_steps: int = 101,
                 psi_min: float = 0.01, psi_max: float = 0.99,
                 omega_min: float = 0.05, omega_max: float = 2.0) -> "GridSpec":
        """Evenly spaced axes, each from its min to its max inclusive:
        np.linspace(min, max, steps) bit for bit, as Python floats."""
        # check the ends first: numpy warns when it spreads an infinite one
        for psi, omega in ((psi_min, omega_min), (psi_max, omega_max)):
            _probability("psi_values", psi)
            _positive("omega_values", omega)
        psi_steps = _integer("psi_steps", psi_steps, 1)
        omega_steps = _integer("omega_steps", omega_steps, 1)
        return GridSpec(
            psi_values=tuple(_linspace(psi_min, psi_max, psi_steps).tolist()),
            omega_values=tuple(_linspace(omega_min, omega_max, omega_steps).tolist()),
            n=n,
        )


def _linspace(start: float, stop: float, steps: int) -> np.ndarray:
    """np.linspace(start, stop, steps) bit for bit, by its own float
    arithmetic without its argument handling, which costs more than the
    arithmetic on a grid's axis: arange(steps) * step + start with
    step = (stop - start) / (steps - 1) and the last node set to stop.
    Where that step rounds to 0, np.linspace divides arange(steps) by
    steps - 1 first, and so does this."""
    start, stop = float(start), float(stop)
    nodes = np.arange(steps, dtype=float)
    span, div = stop - start, steps - 1
    if div > 0 and span / div == 0.0:
        nodes /= div
        nodes *= span
    else:
        nodes *= span / div if div > 0 else span
    nodes += start
    if div > 0:
        nodes[-1] = stop
    return nodes


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


def _log_q_integer(e: np.ndarray, log_x: np.ndarray) -> np.ndarray:
    """log [e]_x = log((1 - x^e) / (1 - x)) for a column of integers
    e >= 1 and a row of x in [0, 1], given log x (-inf at x = 0): log e
    at x = 1, and expm1 keeps every digit near it."""
    with np.errstate(invalid="ignore"):
        ratio = np.expm1(e * log_x) / np.expm1(log_x)
    return np.log(np.where(log_x == 0.0, e, ratio))


def _xlogy(k, log_p: np.ndarray) -> np.ndarray:
    """k log p with 0 log 0 = 0, for integers k >= 0 and an array of
    log p, p in [0, 1].  Only a log p that holds -inf pays for the
    0 log 0 case."""
    if not np.isneginf(log_p).any():
        return k * log_p
    with np.errstate(invalid="ignore"):
        return np.where(k == 0, 0.0, k * log_p)


@_row_cache
def _delta_terms(n: int):
    """(log C(n-1, j), j, d_j, d_j - 1, e_j, e_j - 1, j (n-j)) for
    j = 0..floor(n/2)-1 as read-only floats, with d_j = n - 2j - 1 and
    e_j = d_j / (1 + [n odd]): the parts of Delta's terms that depend on
    n alone."""
    half = n // 2
    j = np.arange(half, dtype=float)
    d = n - 1.0 - 2.0 * j
    e = d / (1 + n % 2)
    return _kernel_row(n - 1)[2][:half], j, d, d - 1.0, e, e - 1.0, j * (n - j)


def _delta_tables(n: int, psi: np.ndarray, omega: np.ndarray):
    """(A, B) with Delta = sum_j exp(A[j] + B[j]) over j = 0..floor(n/2)-1
    (n >= 2) at each grid cell: A the logs of the psi factors
    C(n-1, j) (psi q)^j S_{d_j}, of shape (terms, len(psi)), and B those
    of the omega factors omega^(j (n-j)) [d_j]_omega, of shape
    (terms, len(omega)), divided by (omega + 1) for odd n as
    [e_j]_{omega^2}, e_j = d_j / 2.  ``_log_delta`` builds one cell's
    terms the same way, its per-psi and per-omega logs by ``math``.
    """
    # dm1 = d - 1, em1 = e - 1
    log_binom, j, d, dm1, e, em1, cross = (part[:, None] for part in _delta_terms(n))
    with np.errstate(divide="ignore"):
        # log psi and log q = log1p(-psi), -inf at psi = 0 and 1: 1 - psi
        # would round for psi < 1/2, and d_j ~ n multiplies log a
        log_psi, log_q = np.log(psi), np.log1p(-psi)
        # b / a = 1 - |2 psi - 1| / a; it is 0 at psi in {0, 1}
        log_ratio = np.log1p(-np.abs(2.0 * psi - 1.0) / np.maximum(psi, 1.0 - psi))
    log_omega = np.log(omega)
    theta = (1 + n % 2) * log_omega
    # each table sums its parts from the left, in its first part's buffer
    table_a = _xlogy(j, log_psi + log_q)
    table_a += log_binom
    table_a += dm1 * np.maximum(log_psi, log_q)
    table_a += _log_q_integer(d, log_ratio)
    # [e]_x = x^(e-1) [e]_{1/x} above x = 1
    table_b = cross * log_omega
    table_b += em1 * np.maximum(theta, 0.0)
    table_b += _log_q_integer(e, -np.abs(theta))
    return table_a, table_b


def _log_delta(n: int, psi: float, omega: float) -> float:
    """log Delta at one point: -inf at n = 1, where Delta = 0, and 0 at
    n = 2, 3, where the one term is S_{n-1} = 1 (S_2 = psi + q) times
    [n-1]_omega / (omega + 1)^[n odd] = 1.  From n = 4 on, the terms
    A[j] + B[j] of ``_delta_tables`` at the cell, their per-psi and
    per-omega logs by ``math``, summed by ``_logsumexp`` about the
    largest, which is finite (the j = 0 term is)."""
    if n < 4:
        return 0.0 if n > 1 else -math.inf
    log_binom, j, d, dm1, e, em1, cross = _delta_terms(n)
    gap = abs(2.0 * psi - 1.0) / max(psi, 1.0 - psi)  # 1 - b / a
    log_ratio = math.log1p(-gap) if gap < 1.0 else -math.inf
    log_psi = math.log(psi) if psi > 0.0 else -math.inf
    log_q = math.log1p(-psi) if psi < 1.0 else -math.inf
    log_omega = math.log(omega)
    theta = (1 + n % 2) * log_omega
    falling = -abs(theta)
    log_pq = log_psi + log_q
    terms = log_binom + (j * log_pq if log_pq > -math.inf else np.where(j == 0, 0.0, -np.inf))
    terms += dm1 * max(log_psi, log_q)
    terms += np.log(d if log_ratio == 0.0 else np.expm1(d * log_ratio) / math.expm1(log_ratio))
    table_b = cross * log_omega
    table_b += em1 * max(theta, 0.0)
    table_b += np.log(e if falling == 0.0 else np.expm1(e * falling) / math.expm1(falling))
    terms += table_b
    return _logsumexp(terms)


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
# the grids' factors are raised to exp(_EXP_FLOOR / 2) by
# ``_floored_exp``, as the rows' terms are to exp(_EXP_FLOOR), so that no
# product of two factors is subnormal: numpy's arithmetic is many times
# slower on subnormal doubles
_LOG_FACTOR_FLOOR = _EXP_FLOOR / 2
# a cell whose sum falls below this is guarded; above it the raised
# terms, each below exp(_LOG_FACTOR_FLOOR) = exp(-350), move the sum by
# at most n (n + 1) exp(-50) of itself
_GRID_SUM_FLOOR = math.exp(3 * _EXP_FLOOR / 7)


def _tau1_cells(n: int, psis: np.ndarray, log_omegas: np.ndarray) -> np.ndarray:
    """tau_1 = E[Y] / (n psi) at the cells (psis[k], log_omegas[k]), by a
    log-sum-exp of each cell's kernel row plus log(y / n) over its
    log-sum; at psi = 0, tau_1 = omega^(n-1)."""
    row = _log_weights(n, _logit(psis)[:, None], log_omegas[:, None])[1]
    edge = psis == 0.0
    log_tau = (_logsumexp(row[:, 1:] + _log_falling(n, 1), axis=-1) - _log_sum(row)
               - np.log(psis + edge))  # log 1 at psi = 0
    with np.errstate(over="ignore"):
        return np.exp(np.where(edge, (n - 1) * log_omegas, log_tau))


def _low_cells(*sums: np.ndarray):
    """The mask of the cells where any of ``sums`` falls below
    _GRID_SUM_FLOOR, or None where none does, which one minimum per sum
    decides: the cells a grid's guard re-reads, taken before the grid
    scales its sums in place."""
    if all(s.min() >= _GRID_SUM_FLOOR for s in sums):
        return None
    return np.logical_or.reduce([s < _GRID_SUM_FLOOR for s in sums])


def _fill_guarded(values: np.ndarray, low, terms: int, read) -> None:
    """Overwrite the cells of ``values`` that the mask ``low``
    (``_low_cells``) marks, if any, with ``read(rows, cols)``, a
    log-domain reader of ``terms`` terms per cell, called on blocks of
    about _BLOCK_DOUBLES / terms cells."""
    if low is None:
        return
    rows, cols = np.nonzero(low)
    step = max(1, _BLOCK_DOUBLES // terms)
    for k in range(0, len(rows), step):
        r, c = rows[k:k + step], cols[k:k + step]
        values[r, c] = read(r, c)


def _grid_sums(n: int, psis: np.ndarray, log_omegas: np.ndarray):
    """(s0, s1) over the psis x omegas grid with tau_1 = s1 / (n psi s0),
    two views of one (2 len(psis), len(omegas)) block.

    K_n's log-weight is a psi-only row A[p, i] plus an omega-only column
    B[i, w] = i (n-i) log omega, each shifted by its maximum and
    exponentiated once; A's rows are the kernel's at omega = 1, which
    come out shifted.  tau_1 = E[Y] / (n psi) weights the psi factor by
    i.  B is symmetric under i <-> n-i, so the psi factors of i and n-i
    are added first and the sums run over i = 0..floor(n/2).  ``einsum``,
    like the grids' other sums, gives the same bits whatever the BLAS
    thread count, which a BLAS product does not.  Each table is built in
    its own buffer, with no temporary of its size.
    """
    ea = _log_weights(n, _logit(psis)[:, None], 0.0)[1]
    ea = _floored_exp(ea, _LOG_FACTOR_FLOOR, out=ea)
    half = n // 2 + 1
    y, cross = _kernel_row(n)[:2]
    i, partner, expo = y[:half], y[::-1][:half], cross[:half]  # partner = n - i, expo = i (n-i)
    low, high = ea[:, :half], ea[:, ::-1][:, :half]  # high[:, i] = ea[:, n - i]
    psi_factors = np.empty((2 * len(psis), half))
    plain, weighted = psi_factors[:len(psis)], psi_factors[len(psis):]
    # high (n-i) + low i, with the rows of plain as scratch for low i
    np.multiply(high, partner, out=weighted)
    weighted += np.multiply(low, i, out=plain)
    np.add(low, high, out=plain)
    # i (n-i) peaks at floor(n^2 / 4), which is B's maximum for omega > 1;
    # the exponent difference is an exact integer
    eb = np.subtract(expo[:, None], np.where(log_omegas > 0.0, expo[-1], 0.0))
    eb *= log_omegas
    eb = _floored_exp(eb, _LOG_FACTOR_FLOOR, out=eb)
    if n % 2 == 0:
        # i = n/2 is its own partner, so its psi factors were doubled
        eb[-1] *= 0.5
    sums = np.einsum("pi,iw->pw", psi_factors, eb)
    return sums[: len(psis)], sums[len(psis):]


def delta_grid(spec: GridSpec) -> RegionGrid:
    """Delta per cell, flagged where Delta > 0: every cell for n >= 2
    unless Delta falls below the double range, where it reads 0 as in
    ``delta``; none at n = 1, where Delta = 0.  A Delta above the double
    range comes back as +inf.

    A cell is exp(a_top + b_top) times the sum over j of the products of
    ``_delta_tables``' two tables, each shifted by its maximum; a column
    whose exp(b_top) leaves the double range is scaled in the log domain.
    The guarded cells and the wide columns' logs are read off the sums
    first, and the sums are then scaled in place into the values.
    """
    n = spec.n
    shape = (len(spec.psi_values), len(spec.omega_values))
    if n < 4:
        values = np.full(shape, float(n > 1))  # as in ``_log_delta``
    else:
        table_a, table_b = _delta_tables(n, *map(np.asarray, (spec.psi_values, spec.omega_values)))
        a_top, b_top = table_a.max(axis=0), table_b.max(axis=0)
        values = np.einsum("jp,jw->pw", *(_floored_exp(t, _LOG_FACTOR_FLOOR, out=t)
                                          for t in (table_a - a_top, table_b - b_top)))
        low = _low_cells(values)
        # 0 * inf in a wide column is a guarded cell, recomputed below
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            col_factor = np.exp(b_top)
            wide = np.isinf(col_factor)
            wide_logs = np.log(values[:, wide]) if wide.any() else None
            values *= np.exp(a_top)[:, None]
            values *= col_factor
            if wide_logs is not None:
                values[:, wide] = np.exp(wide_logs + a_top[:, None] + b_top[wide])
            _fill_guarded(values, low, len(table_a), lambda r, c: np.exp(
                _logsumexp(table_a[:, r] + table_b[:, c], axis=0)))
    return RegionGrid(spec=spec, values=values, flags=values > 0.0)


def tau1_region_grid(spec: GridSpec) -> RegionGrid:
    """tau_1 per cell, flagged where tau_1 <= 1, read off the proven sign
    of D_n: the region
    {psi <= 1/2 and omega <= 1} union {psi >= 1/2 and omega >= 1}
    union {psi = 1}, and every cell at n = 1, where tau_1 = K_0 / K_1 is
    exactly 1.  The guarded cells are read off the sums first, and the
    sums are then scaled in place.
    """
    n = spec.n
    psis = np.asarray(spec.psi_values)
    omegas = np.asarray(spec.omega_values)
    if n == 1:
        t1 = np.ones((len(psis), len(omegas)))
    else:
        log_omegas = np.log(omegas)
        s0, s1 = _grid_sums(n, psis, log_omegas)
        low = _low_cells(s0, s1)
        s0 *= (n * psis)[:, None]
        with np.errstate(divide="ignore", invalid="ignore"):
            # a new array: a view of the sums would hold both halves
            t1 = np.divide(s1, s0)
        _fill_guarded(t1, low, n + 1, lambda r, c: _tau1_cells(n, psis[r], log_omegas[c]))
    # D_n has the sign of the linear factors, as Delta > 0, and is 0 at n = 1;
    # the signs multiply as int8, a float grid of them costs twice the time
    sign = ((n > 1) * np.sign(psis - 1.0) * np.sign(2.0 * psis - 1.0)).astype(np.int8)
    return RegionGrid(spec=spec, values=t1,
                      flags=sign[:, None] * np.sign(omegas - 1.0).astype(np.int8) <= 0)


def _sign(x: float) -> int:
    """The sign of a float that is not NaN: -1, 0 or 1."""
    return 1 if x > 0.0 else -1 if x < 0.0 else 0


def theorem2_check(params: ModelParams) -> Theorem2Report:
    """Report the ordering between psi and pi = psi tau_1.

    pi - psi = psi (tau_1 - 1) has the sign of psi D_n, the product of
    two signs (a subnormal psi times D_n could round to 0): omega > 1
    with 1/2 < psi < 1 gives psi > pi, and so does omega < 1 with
    psi < 1/2; omega = 1, psi in {0, 1/2, 1} and n = 1 give equality.
    """
    n, psi, omega = params
    _, _, log_omega = natural = _natural(params)
    _, row, e, total = _kernel(*natural)
    t1, _, pi = _tau(1, psi, log_omega, row, e, total)
    sign = (n > 1) * _sign(psi) * _sign(psi - 1.0) * _sign(2.0 * psi - 1.0) * _sign(omega - 1.0)
    return Theorem2Report(params=params, tau1=t1, pi=pi,
                          theorem_applies=psi >= 0.5 and omega > 1.0,
                          relation="<" if sign > 0 else ">" if sign < 0 else "=")
