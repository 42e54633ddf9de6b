"""Log-domain engine for the multiplicative binomial law of a sum of
exchangeable dependent Bernoulli variables.

The distribution of the success count Y over n trials is

    P(Y = y) = C(n, y) psi^y (1-psi)^(n-y) omega^((n-y) y) / K_n

with K_n the normalizing sum.  ``psi`` is the marginal success probability
the trials would have if they were independent; ``omega`` is the
association parameter (omega < 1 positive association, omega > 1 negative,
omega = 1 reduces the law to Binomial(n, psi)).

The law is a two-parameter exponential family in the natural parameters
theta = (logit psi, log omega): K_n = (1-psi)^n sum_y w(y) with
w(y) = C(n, y) exp(theta_1 y + theta_2 y (n-y)), whose log reaches
theta_2 n^2 / 4 and overflows double precision long before n is large.
One formula gives every table of K_n's terms in the log domain, centred
at the weights' global mode m, through two builders: ``_kernel`` builds
one row, for the single-point readers and the fits, and ``_log_weights``
a block of rows, for the grids and the convergence reports:

    log w(y) - log w(m) = [log C(n, y) - log C(n, m)] + (y - m) theta_1
                          + theta_2 (y - m)(n - y - m).

m is the first argmax of the uncentred log-weights, which their rounding
can only trade for a near tie.  The last factor is an exact integer, so
an entry rounds in proportion to its own distance from the top, never to
theta_2 n^2 / 4.  log C(n, .) is a mirrored cumulative sum, so the row
at psi = 1/2 is symmetric bit for bit.  psi = 0 and 1 are theta_1 = -inf
and +inf, a point mass with no 0 log 0 case.  Every quantity is read off
that row: log K_n is the log of its term at m plus the log of the row's
sum, whose largest term is 1, and tau_r = K_{n-r} / K_n is a
falling-factorial moment of it, E[(Y)_r] / ((n)_r psi^r).
The row's entries are at most 0, so their exponentials e_y cannot
overflow, and ``_kernel`` takes them in one pass along with their total
T >= 1, whose log, ``math.log(T)``, is the log-sum; no reader but
``sample`` exponentiates the row again.  A probability or a moment is a
ratio of linear sums over e: a cdf or a tail is sum e_y / T
(``_share``), the mean and the variance are those of p = e / T
(``_table_moments``), and every tau_r, pi = E[Y] / n among them, has
one definition (``_tau``): s_r = sum (y)_r e_y / ((n)_r T), with
integer weights at r = 1, 2, and tau_r = s_r / psi^r.  Only a sum
below _SUM_FLOOR T, _SUM_FLOOR = e^-600, is read again by log-sum-exp,
off the same row.
"""

from __future__ import annotations

import functools
import math
import operator
import random
from typing import NamedTuple

import numpy as np

__all__ = [
    "ModelParams",
    "PmfTable",
    "MomentSummary",
    "log_k",
    "tau",
    "pmf",
    "cdf",
    "moments",
    "marginal_pi",
    "joint_log_prob",
    "conditional_cpr",
    "sample",
]


def _integer(name: str, value, low: int, high: int | None = None) -> int:
    """``value`` as a Python int in [low, high], or in [low, inf) where
    ``high`` is None: ints and numpy integers pass; anything else (a
    float included), or an integer out of range, raises one ValueError
    that names the argument."""
    try:
        value = operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None
    if value < low or high is not None and value > high:
        bound = f"be >= {low}" if high is None else f"lie in [{low}, {high}]"
        raise ValueError(f"{name} must {bound}, got {value}")
    return value


def _probability(name: str, value):
    """``value`` if it lies in [0, 1]; a NaN, or anything else, raises
    one ValueError that names the argument and the value."""
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"{name} must lie in [0, 1], got {value}")
    return value


def _interior(name: str, value):
    """``value`` if it lies in (0, 1); a NaN, or anything else, raises
    one ValueError that names the argument and the value."""
    if not 0.0 < value < 1.0:
        raise ValueError(f"{name} must lie in (0, 1), got {value}")
    return value


def _positive(name: str, value):
    """``value`` if it is positive and finite; a NaN, or anything else,
    raises one ValueError that names the argument and the value."""
    if not 0.0 < value < math.inf:
        raise ValueError(f"{name} must be positive and finite, got {value}")
    return value


def _ordered(name: str, values, step: int = 1, read=None):
    """``values``, as given, if non-empty and strictly increasing
    (``step`` 1) or decreasing (``step`` -1); otherwise one ValueError
    that names the argument and the first pair out of order.  A NaN
    fails either order, so the ends bound every value, and ``read``
    (``_probability`` or ``_positive``), where given, checks the two
    ends alone."""
    if not len(values):
        raise ValueError(f"{name} must be non-empty")
    order = operator.lt if step > 0 else operator.gt
    if not all(map(order, values, values[1:])):
        a, b = next((a, b) for a, b in zip(values, values[1:]) if not order(a, b))
        raise ValueError(f"{name} must be strictly {'in' if step > 0 else 'de'}creasing, "
                         f"got {b} after {a}")
    if read is not None:
        read(name, values[0])
        read(name, values[-1])
    return values


class _Checked:
    """First base of a named tuple whose ``__new__`` validates: ``_make``,
    and through it ``_replace``, build the record with ``__new__`` too,
    as copy and pickle already do (``__getnewargs__``)."""

    __slots__ = ()

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)


class _ModelParamsFields(NamedTuple):
    n: int
    psi: float
    omega: float


class ModelParams(_Checked, _ModelParamsFields):
    """The (n, psi, omega) triple defining one distribution instance,
    psi and omega stored as Python floats."""

    __slots__ = ()

    def __new__(cls, n: int, psi: float, omega: float):
        # the fields' own __new__ would only pack the tuple again
        return tuple.__new__(cls, (_integer("n", n, 1), float(_probability("psi", psi)),
                                   float(_positive("omega", omega))))


class PmfTable(NamedTuple):
    """Log-probabilities over the support {0..n}.

    ``log_normalizer`` is log K_n, the value ``log_k(n, 0, psi, omega)``
    returns; ``log_prob`` is the kernel's row less its log-sum, in one
    pass with no renormalization after it.
    """

    params: ModelParams
    log_prob: np.ndarray
    log_normalizer: float

    def probs(self) -> np.ndarray:
        return np.exp(self.log_prob)


class MomentSummary(NamedTuple):
    """tau ratios and the induced mean/variance/marginal.

    mean and variance are read off the kernel row's table p = e / T,
    variance = n psi eta (eta = tau_1 at psi = 0), and
    pi = psi tau1 = E[Y] / n is the per-trial marginal success
    probability, ``marginal_pi``'s value.  In closed form
    eta = tau1 - psi (n tau1^2 - (n-1) tau2).  ``tau2`` is NaN for n = 1
    (it does not exist there and carries coefficient zero).
    """

    tau1: float
    tau2: float
    eta: float
    mean: float
    variance: float
    pi: float


# rows up to this n are cached, 128 per builder (some 20 MB of kernel
# rows); of the longer ones each builder keeps the last, which one call
# reads several times
_ROW_CACHE_MAX_M = 4096


def _row_cache(build):
    """``build(n, *args)``'s arrays, made read-only and cached."""
    def read_only(n: int, *args):
        row = build(n, *args)
        for part in row:
            part.flags.writeable = False
        return row
    short, long = (functools.lru_cache(maxsize=size)(read_only) for size in (128, 1))
    return functools.wraps(build)(
        lambda n, *args: (short if n <= _ROW_CACHE_MAX_M else long)(n, *args))


def _split_cumsum(steps: np.ndarray, n: int) -> np.ndarray:
    """The cumulative sums of ``steps``, which it overwrites, rounded once
    where every step and every partial sum lies in [0, n).  Adding and
    subtracting sigma = 3 * 2^b, b = n's bit length, rounds each step to
    a multiple of 2^(b-51) whose sums are exact in a double; the
    remainders are summed on their own and added last (Rump, Ogita &
    Oishi 2008, ExtractScalar)."""
    sigma = 3.0 * 2.0 ** n.bit_length()
    high = steps + sigma
    high -= sigma
    steps -= high
    high = np.cumsum(high, out=high)
    high += np.cumsum(steps, out=steps)
    return high


@_row_cache
def _kernel_row(n: int):
    """(y, y (n-y), log C(n, y)) as read-only floats for y = 0..n: the
    kernel's parts that depend on n alone.  y is the tail of the
    read-only offsets row arange(-n, n+1), its ``base``, so that y - m is
    the view base[n-m : 2n+1-m].  log C(n, .) sums its increments
    log1p((n-1-2k) / (k+1)) up to n/2 by ``_split_cumsum``, so that each
    entry is within about an ulp rather than n ulp, and is mirrored, so
    that C(n, y) = C(n, n-y) bit for bit."""
    offsets = np.arange(-n, n + 1.0)
    offsets.flags.writeable = False
    y = offsets[n:]
    k = y[:n // 2]
    log_binom = np.zeros(n + 1)
    log_binom[1:n // 2 + 1] = _split_cumsum(np.log1p((n - 1 - 2 * k) / (k + 1)), n)
    log_binom[n - n // 2:] = log_binom[:n // 2 + 1][::-1]
    return y, y * (n - y), log_binom


def _logit(psi):
    """theta_1 = log psi - log(1 - psi): -inf at psi = 0, +inf at 1."""
    if isinstance(psi, np.ndarray):
        with np.errstate(divide="ignore"):
            return np.log(psi) - np.log1p(-psi)
    if 0.0 < psi < 1.0:
        return math.log(psi) - math.log1p(-psi)
    return math.copysign(math.inf, psi - 0.5)


def _natural(params: ModelParams) -> tuple[int, float, float]:
    """(n, theta_1, theta_2) = (n, logit psi, log omega), ``_kernel``'s
    arguments at a checked triple: ``_logit``'s scalar branch, inline,
    as calling it would add its array test to every single-point call."""
    n, psi, omega = params
    if 0.0 < psi < 1.0:
        return n, math.log(psi) - math.log1p(-psi), math.log(omega)
    return n, math.copysign(math.inf, psi - 0.5), math.log(omega)


def _mode(parts, theta1, theta2):
    """The weights' global modes at finite theta_1, shape (P, 1): the
    first argmax of log C(n, y) + y theta_1 + theta_2 y (n-y) per row,
    given ``_kernel_row(n)`` as ``parts``.  At omega = 1 the last term
    is 0.0, which moves no entry past another, and is left out."""
    y, cross, log_binom = parts
    top = y * theta1
    top += log_binom
    if isinstance(theta2, np.ndarray) or theta2:
        tilt = theta2 * cross
        # a scalar theta_1 with a column of theta_2 widens the sum
        top = top + tilt if tilt.ndim > top.ndim else np.add(top, tilt, out=top)
    return top.argmax(axis=-1, keepdims=True)


def _log_weights(n: int, theta1, theta2):
    """The block kernel: (m, rows), ``_kernel``'s row at each of P
    parameter pairs, bit for bit.  theta_1 = logit psi and
    theta_2 = log omega broadcast against y, one of them a column of
    shape (P, 1), into a (P, n+1) block and m of shape (P, 1).  A block
    with no psi edge (theta_1 = -inf or +inf, a point mass at 0 or n)
    takes the shorter path.
    """
    y, cross, log_binom = parts = _kernel_row(n)
    edge = np.isinf(theta1)
    if not edge.any():
        m = _mode(parts, theta1, theta2)
        row = log_binom - log_binom[m]
        shift = y - m
        shift *= theta1
        row += shift
        if isinstance(theta2, np.ndarray) or theta2:  # omega = 1 adds 0.0
            tilt = cross - cross[m]
            tilt *= theta2
            row += tilt
        return m, row
    m = np.where(edge, n * (theta1 > 0), _mode(parts, np.where(edge, 0.0, theta1), theta2))
    with np.errstate(invalid="ignore"):  # 0 * inf at an edge row's centre
        row = log_binom - log_binom[m] + (y - m) * theta1 + theta2 * (cross - cross[m])
    np.put_along_axis(row, m, 0.0, axis=-1)
    return m, row


# exp(-700) ~ 1e-304 is still a normal double
_EXP_FLOOR = -700.0
# a sum of n + 1 terms, each raised to exp(_EXP_FLOOR) at the least, that
# reaches exp(-600) is moved by the raising by at most (n + 1) e^-100 of
# itself, and one weighted by the integers (y)_r <= n^2 by
# (n + 1) n^2 e^-100, far below 2^-53 for any n an array can hold; a
# smaller sum is read again by ``_logsumexp``
_LOG_SUM_FLOOR = -600.0
_SUM_FLOOR = math.exp(_LOG_SUM_FLOOR)


def _floored_exp(terms: np.ndarray) -> np.ndarray:
    """exp(terms) as a new array, each term raised to _EXP_FLOOR first:
    numpy's exp costs some hundred times more per element where its
    result is subnormal."""
    terms = np.maximum(terms, _EXP_FLOOR)
    return np.exp(terms, out=terms)


def _log_sum(row: np.ndarray):
    """log(sum(exp(row))) over the last axis of a block of kernel rows:
    each row's largest term is exp(0) = 1, so that its sum is at least
    1, and neither a shift nor _SUM_FLOOR's test is needed."""
    return np.log(np.add.reduce(_floored_exp(row), axis=-1))


def _logsumexp(terms: np.ndarray, axis=None):
    """log(sum(exp(terms))) with the largest term shifted to 0 (Blanchard,
    Higham & Higham 2021); an infinite or NaN maximum passes through.

    The shift guards against overflow, which terms at most about 0 cannot
    reach: the single-point sums of such terms (``_share``, ``_tau``)
    come here only when they fall below _SUM_FLOOR, where the shift
    keeps the terms that exp(_EXP_FLOOR) would flush.  The block
    ``_log_tau`` and ``delta_grid``'s guarded cells sum here always;
    ``factorization._log_delta`` sums one cell's Delta terms the
    same way, inline.  With ``axis=None`` the whole array reduces to a Python
    float, its maximum tested by ``math.isfinite``; with an axis, that
    axis reduces and an array comes back.  Either way the shifted terms
    are raised to _EXP_FLOOR first, which cannot change a sum that holds
    exp(0) = 1.  The log stays numpy's, whose last bit ``math.log`` does
    not always match.
    """
    if axis is None:
        top = float(np.maximum.reduce(terms, axis=None))
        if not math.isfinite(top):
            return top
        shifted = terms - top
        np.maximum(shifted, _EXP_FLOOR, out=shifted)
        np.exp(shifted, out=shifted)
        return top + float(np.log(np.add.reduce(shifted, axis=None)))
    top = np.maximum.reduce(terms, axis=axis)
    shifted = terms - np.expand_dims(np.where(np.isfinite(top), top, 0.0), axis)
    np.maximum(shifted, _EXP_FLOOR, out=shifted)
    np.exp(shifted, out=shifted)
    return top + np.log(np.add.reduce(shifted, axis=axis))


def _share(row: np.ndarray, e: np.ndarray, total: float, part: slice) -> float:
    """The probability of the support's slice ``part`` off a kernel row,
    its floored exponentials ``e`` and their ``total`` (``_kernel``), or
    off a log-pmf row with total 1: sum(e[part]) / total, capped at 1
    against rounding.  Where that sum falls below _SUM_FLOOR total, the
    row's own ``_logsumexp`` over ``part`` less log total, which keeps
    the terms the floor flushes."""
    mass = float(np.add.reduce(e[part]))
    if mass >= _SUM_FLOOR * total:
        return min(1.0, mass / total)
    return math.exp(_logsumexp(row[part] - math.log(total)))


@_row_cache
def _log_falling_ratio(n: int, r: int):
    """A one-tuple of log[(y)_r / (n)_r] for y = r..n, read-only: the
    reverse sum -sum_{j=y+1..n} log1p(r / (j-r)) by ``_split_cumsum``,
    whose partial sums are at most log C(n, r) < n."""
    out = np.zeros(n - r + 1)
    out[:-1] = -_split_cumsum(np.log1p(r / np.arange(n - r, 0.0, -1.0)), n)[::-1]
    return (out,)


def _log_tau(r: int, rows: np.ndarray, log_sum, psi, log_omega):
    """log tau_r at each of a block of K_n's kernel rows, whose log-sums
    are ``log_sum``, by a log-sum-exp of the moment's terms
    row + log[(y)_r / (n)_r] (see ``_tau``); ``psi`` and ``log_omega``
    broadcast against the block's first axis, and at psi = 0
    tau_r = omega^(r (n-r)).  It serves only ``factorization``'s guarded
    grid cells, the few whose grid sums fell below that module's own
    floor, ``_GRID_SUM_FLOOR`` = e^-300, where a linear pass would need a
    second, masked one for its rows below e^-600."""
    n = rows.shape[-1] - 1
    terms = rows[..., r:] + _log_falling_ratio(n, r)[0]
    edge = psi == 0.0
    log_tau = _logsumexp(terms, axis=-1) - log_sum - r * np.log(psi + edge)  # log 1 at psi = 0
    return np.where(edge, r * (n - r) * log_omega, log_tau)


def _kernel(n: int, theta1: float, theta2: float):
    """The one-row kernel: (m, row, e, T), K_n's terms
    w(y) = C(n, y) exp(theta_1 y + theta_2 y (n-y)) over y = 0..n at
    theta_1 = logit psi and theta_2 = log omega, centred at their global
    mode m, the first argmax of the uncentred log-weights:

        row[y] = [log C(n, y) - log C(n, m)] + (y - m) theta_1
                 + theta_2 (y - m)(n - y - m),

    the last product an exact integer, y (n-y) - m (n-m), and y - m a
    view of ``_kernel_row``'s offsets.  At theta_1 = -inf or +inf
    (psi = 0 or 1) the row is a point mass at 0 or n.  With it come
    e = exp(max(row, _EXP_FLOOR)) (``_floored_exp``) and its total T, a
    Python float of at least 1, as the row's largest entry is 0.  The
    readers take no second exponential of the row: they read e and T as
    they stand (``_share``, ``_tau``, ``_table_moments``), and the
    row's log-sum is ``math.log(T)``.  ``sample`` alone exponentiates
    row - log T again, as e is e^-700 rather than 0 off a psi-edge point
    mass, where no draw may land."""
    y, cross, log_binom = _kernel_row(n)
    if math.isinf(theta1):  # psi = 0 or 1: a point mass
        m = n * (theta1 > 0)
        row = np.where(y == m, 0.0, -np.inf)
    else:
        top = y * theta1
        top += log_binom
        if theta2:  # omega = 1 adds 0.0, which moves no entry
            tilt = cross * theta2
            top += tilt
        m = int(top.argmax())
        row = log_binom - log_binom[m]
        shift = y.base[n - m:2 * n + 1 - m] * theta1
        row += shift
        if theta2:
            tilt = cross - cross[m]
            tilt *= theta2
            row += tilt
    e = _floored_exp(row)
    return m, row, e, float(np.add.reduce(e))


# the smallest normal double: a power psi^r below it has lost bits
_NORMAL_MIN = 2.0 ** -1022


def _tau(r: int, psi: float, log_omega, row: np.ndarray, e: np.ndarray, total: float):
    """(tau_r, log tau_r, s_r), r in [1, n], off one kernel row, its
    floored exponentials ``e`` and their ``total`` T (``_kernel``), with
    s_r = E[(Y)_r] / (n)_r: C(n-r, y-r) = C(n, y) (y)_r / (n)_r makes
    tau_r = K_{n-r} / K_n the moment s_r / psi^r of the law the row
    holds.  This is the one reader of tau_r, and of pi = s_1 = E[Y] / n,
    at most 1 even where tau_1 overflows.

    s_r is a linear sum over T: sum (y)_r e_y / ((n)_r T) with the
    integer weights y and y (y-1) at r = 1, 2, so that no product is
    subnormal, and above them the floored exponentials of the terms
    row + log[(y)_r / (n)_r].  tau_r = s_r / psi^r is divided last.
    Where psi^r is subnormal or the quotient lies beyond the double
    range, log tau_r = log s_r - r log psi instead, and tau_r is its
    exp, +inf beyond the double range.  Only a sum below _SUM_FLOOR T is
    read in logs, by ``_logsumexp`` over those terms.  At n = 1 the law
    is Bernoulli(psi): tau_1 = 1 and s_1 = psi exactly.  At psi = 0,
    tau_r = omega^(r (n-r)), the one place ``log_omega`` is read."""
    n = len(row) - 1
    if n == 1:  # K_0 = K_1 = 1
        return 1.0, 0.0, psi
    if psi == 0.0:
        log_tau = r * (n - r) * log_omega
        return _exp(log_tau), log_tau, 0.0
    if r > 2:
        terms = row[r:] + _log_falling_ratio(n, r)[0]
        moment, scale = float(np.add.reduce(_floored_exp(terms))), total
    else:
        terms, y = None, _kernel_row(n)[0]
        moment = float(np.add.reduce((y if r == 1 else y * (y - 1.0)) * e))
        scale = (n if r == 1 else n * (n - 1)) * total
    if moment >= _SUM_FLOOR * total:
        share = moment / scale
        power = psi ** r
        if power >= _NORMAL_MIN:
            t = share / power
            if t < math.inf:
                return t, math.log(t), share
        log_share = math.log(share)
    else:
        if terms is None:
            terms = row[r:] + _log_falling_ratio(n, r)[0]
        log_share = _logsumexp(terms) - math.log(total)
        share = math.exp(log_share)
    log_tau = log_share - r * math.log(psi)
    return _exp(log_tau), log_tau, share


def _log_kn(n: int, psi: float, log_omega: float, m: int, log_sum) -> float:
    """log K_n off its kernel row: the log of K_n's term
    C(n, m) psi^m (1-psi)^(n-m) omega^(m (n-m)) at the mode m plus the
    row's log-sum, rounded once (``math.fsum``).  Its largest part,
    theta_2 m (n-m), up to theta_2 n^2 / 4, enters as two products that
    are exact for n < 2^14, theta_2 split into halves of 26 bits
    (Dekker 1971).  At n = 1, K_1 = psi + (1 - psi) = 1: log K_1 = 0
    exactly."""
    if n == 1:
        return 0.0
    cross = m * (n - m)
    split = 134217729.0 * log_omega  # 2^27 + 1
    high = split - (split - log_omega)
    return math.fsum((_kernel_row(n)[2][m], high * cross, (log_omega - high) * cross, log_sum,
                      m * math.log(psi) if m else 0.0,
                      (n - m) * math.log1p(-psi) if m < n else 0.0))


def _exp(x: float) -> float:
    """exp(x), or +inf where it lies beyond the double range."""
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf


def log_k(n: int, a: int, psi: float, omega: float) -> float:
    """Log of the partial normalizing sum K_{n-a}.

    K_{n-a} = sum_{i=0}^{n-a} C(n-a, i) psi^i (1-psi)^(n-a-i)
              omega^((n-a-i)(i+a)),
    evaluated as log K_n plus log tau_a, read off one kernel row; at
    a = n that sum is log K_0 = 0 exactly, as ``tau`` reads
    log tau_n = -log K_n.
    """
    params = ModelParams(n, psi, omega)
    n, psi, _ = params
    a = _integer("a", a, 0, n)
    if a == n:
        return 0.0
    _, _, log_omega = natural = _natural(params)
    m, row, e, total = _kernel(*natural)
    log_kn = _log_kn(n, psi, log_omega, m, math.log(total))
    return log_kn + _tau(a, psi, log_omega, row, e, total)[1] if a else log_kn


def tau(r: int, params: ModelParams) -> float:
    """The ratio tau_r = K_{n-r} / K_n, r in [1, n], read off the K_n
    row (``_tau``), at r = n as 1 / K_n, since K_0 = 1; +inf where it
    lies beyond the double range."""
    n, psi, _ = params
    r = _integer("r", r, 1, n)
    _, _, log_omega = natural = _natural(params)
    m, row, e, total = _kernel(*natural)
    if r == n:
        return _exp(-_log_kn(n, psi, log_omega, m, math.log(total)))
    return _tau(r, psi, log_omega, row, e, total)[0]


def pmf(params: ModelParams) -> PmfTable:
    """Full log-pmf table over {0..n}: the kernel's centred row less its
    log-sum, in one pass.  psi in {0, 1} gives an exact point mass at 0
    or n."""
    n, psi, _ = params
    _, _, log_omega = natural = _natural(params)
    m, row, _, total = _kernel(*natural)
    log_sum = math.log(total)
    return PmfTable(params=params, log_prob=row - log_sum,
                    log_normalizer=_log_kn(n, psi, log_omega, m, log_sum))


def cdf(params: ModelParams, y: int) -> float:
    """P(Y <= y), the ``_share`` of the kernel row's prefix: its
    exponentials' sum over their total, with no log K_n; exactly 1 at
    y = n."""
    y = _integer("y", y, 0, params.n)
    _, row, e, total = _kernel(*_natural(params))
    return _share(row, e, total, slice(y + 1))


def _moment_sums(probs: np.ndarray, dev: np.ndarray) -> tuple[float, float]:
    """(sum p dev, sum p dev^2), pairwise, in numpy's own loop rather
    than a BLAS dot, so their bits do not depend on the BLAS thread
    count."""
    terms = probs * dev
    d = float(np.add.reduce(terms))
    terms *= dev
    return d, float(np.add.reduce(terms))


def _table_moments(e: np.ndarray, row: np.ndarray, total: float) -> tuple[float, float]:
    """(mean, variance) of the law a log-weight row holds, ``e`` its
    exponentials and ``total`` their sum (``_kernel``'s, or a log-pmf
    row's with T = 1), both summed about the mode m of p = e / T (see
    ``moments``).

    Where sum p (y - m)^2 falls below _SUM_FLOOR, so does every
    p (y - m) off the mode, which may be subnormal and keep few bits:
    both sums are taken again over p e^600 = exp(log p + 600), with
    log p = row - log T, the addition exact for log p in [-1200, -300],
    and scaled back once.  Those scaled terms are raised to
    exp(_EXP_FLOOR) first, which moves the sums by less than 2^-1074
    once scaled back.  Above the floor, the kernel's raising of e to
    exp(_EXP_FLOOR) moves sum p (y - m)^2 by less than
    (n + 1) n^2 e^-100 of itself."""
    probs = e / total
    mode = int(probs.argmax())
    dev = np.arange(-mode, len(probs) - mode, dtype=float)
    d, d2 = _moment_sums(probs, dev)
    if d2 < _SUM_FLOOR:
        scaled = np.maximum(row - math.log(total) - _LOG_SUM_FLOOR, _EXP_FLOOR)
        d, d2 = (s * _SUM_FLOOR for s in _moment_sums(np.exp(scaled, out=scaled), dev))
    return mode + d, max(0.0, d2 - d * d)


def moments(params: ModelParams) -> MomentSummary:
    """tau_1, tau_2, pi, the mean and the variance off one kernel row,
    with no log K_n: tau_1, tau_2 and pi by ``_tau``, the reader that
    ``tau`` and ``marginal_pi`` share, the mean and the variance off the table
    p = e / T (``_table_moments``).

    The closed form n psi (tau_1 - psi (n tau_1^2 - (n-1) tau_2)) cancels
    O(n^2) terms down to the variance, and a sum about the mean loses the
    variance to the mean's rounding error where the law piles onto 0 or
    n.  Centred on the table's mode m every term is positive up to one
    small correction: with d = sum p_y (y - m), the variance is
    sum p_y (y - m)^2 - d^2.  At psi = 0, where the table is a point
    mass and eta = tau_1, tau_1 may overflow while the mean stays 0.
    At n = 1 the law is Bernoulli(psi): tau_1 = 1, the mean and pi are
    psi, the variance psi (1 - psi) and eta 1 - psi, exactly.
    """
    n, psi, _ = params
    if n == 1:  # K_0 = K_1 = 1
        return MomentSummary(tau1=1.0, tau2=math.nan, eta=1.0 - psi, mean=psi,
                             variance=psi * (1.0 - psi), pi=psi)
    _, _, log_omega = natural = _natural(params)
    _, row, e, total = _kernel(*natural)
    mean, variance = _table_moments(e, row, total)
    t1, _, pi = _tau(1, psi, log_omega, row, e, total)
    t2 = _tau(2, psi, log_omega, row, e, total)[0]
    eta = variance / (n * psi) if psi > 0.0 else t1
    return MomentSummary(tau1=t1, tau2=t2, eta=eta, mean=mean, variance=variance, pi=pi)


def marginal_pi(params: ModelParams) -> float:
    """Per-trial marginal success probability pi = psi * tau_1 = E[Y] / n
    (``_tau``); 0 at psi = 0, where tau_1 may overflow."""
    _, _, log_omega = natural = _natural(params)
    _, row, e, total = _kernel(*natural)
    return _tau(1, params.psi, log_omega, row, e, total)[2]


def joint_log_prob(params: ModelParams, bits) -> float:
    """Log probability of one ordered binary configuration.

    The joint law is exchangeable: the value depends on ``bits`` only
    through y = sum(bits), and equals the pmf at y, the kernel row's
    entry less its log-sum, divided by the C(n, y) arrangement count.
    """
    b = np.asarray(bits)
    if b.shape != (params.n,):
        raise ValueError(f"bits must have length n={params.n}, got shape {b.shape}")
    y = np.count_nonzero(b == 1)
    # == compares complex values too, so 1+0j would pass for 1
    if b.dtype.kind not in "biuf" or y + np.count_nonzero(b == 0) != params.n:
        raise ValueError("bits must be 0/1 valued")
    _, row, _, total = _kernel(*_natural(params))
    return float(row[y] - math.log(total) - _kernel_row(params.n)[2][y])


def conditional_cpr(params: ModelParams) -> float:
    """Cross-product ratio of two trials given the remaining n-2:
    exactly omega^-2, +inf beyond the double range.

    Given s successes among the other trials, the four outcomes of the
    two hold s+2, s, s+1 and s+1 successes.  K_n, psi and the binomial
    counts cancel from the ratio, and the exponents of omega leave
    (s+2)(n-s-2) + s(n-s) - 2(s+1)(n-s-1) = -2 whatever s and n are.
    So the identity omega = 1 / sqrt(CPR) holds for every valid
    parameter triple.
    """
    _integer("n", params.n, 2)
    _interior("psi", params.psi)
    return _exp(-2.0 * math.log(params.omega))


def sample(params: ModelParams, count: int, seed: int) -> np.ndarray:
    """i.i.d. success-count draws by inverse cdf over the kernel row's
    probabilities, exp(row - log-sum): ``pmf``'s table, bit for bit.

    Deterministic given ``seed``; the generator is local to the call.
    The uniforms are 53-bit doubles (w >> 11) * 2**-53, as numpy builds
    its own, from the little-endian 64-bit words of the standard
    library's Mersenne Twister ``random.Random(seed).randbytes``, so the
    first k draws of a longer call equal a k-draw call, and no process
    loads numpy's random module.
    """
    count, seed = _integer("count", count, 1), _integer("seed", seed, 0)
    _, row, _, total = _kernel(*_natural(params))
    cum = np.cumsum(np.exp(row - math.log(total)))
    cum[-1] = 1.0
    words = np.frombuffer(random.Random(seed).randbytes(8 * count), "<u8")
    u = (words >> 11) * 2.0 ** -53
    return np.searchsorted(cum, u, side="right").astype(np.int64)

