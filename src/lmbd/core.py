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
One kernel, ``_log_weights``, builds every table of K_n's terms in the
log domain, centred at the weights' global mode m:

    log w(y) - log w(m) = [log C(n, y) - log C(n, m)] + (y - m) theta_1
                          + theta_2 (y - m)(n - y - m).

m is the first argmax of the uncentred log-weights, which their rounding
can only trade for a near tie.  The last factor is an exact integer, so
an entry rounds in proportion to its own distance from the top, never to
theta_2 n^2 / 4.  log C(n, .) is a mirrored cumulative sum, so the row
at psi = 1/2 is symmetric bit for bit.  psi = 0 and 1 are theta_1 = -inf
and +inf, a point mass with no 0 log 0 case.  Every quantity is read off
that row: log K_n is the log of its term at m plus one log-sum-exp whose
largest term is 1, and tau_r = K_{n-r} / K_n is a falling-factorial
moment of it, E[(Y)_r] / ((n)_r psi^r) (``_log_tau``).
"""

from __future__ import annotations

import functools
import math
import operator
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
    """The (n, psi, omega) triple defining one distribution instance."""

    __slots__ = ()

    def __new__(cls, n: int, psi: float, omega: float):
        n = _integer("n", n, 1)
        if not 0.0 <= psi <= 1.0:
            raise ValueError(f"psi must lie in [0, 1], got {psi}")
        if not 0.0 < omega < math.inf:
            raise ValueError(f"omega must be positive and finite, got {omega}")
        return super().__new__(cls, n, psi, omega)


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

    mean and variance are read off the pmf table, variance = n psi eta
    (eta = tau_1 at psi = 0), and pi = mean / n = psi tau1 is the
    per-trial marginal success probability.  In closed form
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


@_row_cache
def _kernel_row(n: int):
    """(y, y (n-y), log C(n, y)) as read-only floats for y = 0..n: the
    kernel's parts that depend on n alone.  log C(n, .) sums its
    increments log1p((n-1-2k) / (k+1)) up to n/2 in long double where
    the platform has one, so that each entry is within about an ulp
    rather than n ulp, and is mirrored, so that C(n, y) = C(n, n-y) bit
    for bit."""
    y = np.arange(n + 1.0)
    k = y[:n // 2]
    log_binom = np.zeros(n + 1)
    log_binom[1:n // 2 + 1] = np.cumsum(np.log1p((n - 1 - 2 * k) / (k + 1)), dtype=np.longdouble)
    log_binom[n - n // 2:] = log_binom[:n // 2 + 1][::-1]
    return y, y * (n - y), log_binom


def _xlogy(k, p):
    """k log p with 0 log 0 = 0, for integers k >= 0 and p in [0, 1].

    A scalar p takes ``math.log``, an array ``np.log``.  Only a p that
    holds a 0 pays for the 0 log 0 case.
    """
    if not isinstance(p, np.ndarray):
        if p > 0.0:
            return k * math.log(p)
        return np.where(k == 0, 0.0, -np.inf)
    if p.all():
        return k * np.log(p)
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(k == 0, 0.0, k * np.log(p))


def _logit(psi):
    """theta_1 = log psi - log(1 - psi): -inf at psi = 0, +inf at 1."""
    if isinstance(psi, np.ndarray):
        with np.errstate(divide="ignore"):
            return np.log(psi) - np.log1p(-psi)
    if 0.0 < psi < 1.0:
        return math.log(psi) - math.log1p(-psi)
    return math.copysign(math.inf, psi - 0.5)


def _mode(n: int, theta1, theta2, batch: bool):
    """The weights' global mode at a finite theta_1, an int or shape (P, 1):
    the first argmax of log C(n, y) + y theta_1 + theta_2 y (n-y)."""
    y, cross, log_binom = _kernel_row(n)
    top = log_binom + y * theta1 + theta2 * cross
    m = top.argmax(axis=-1, keepdims=batch)
    return m if batch else int(m)


def _log_weights(n: int, theta1, theta2):
    """The log-weight kernel: (m, row), K_n's terms
    w(y) = C(n, y) exp(theta_1 y + theta_2 y (n-y)) over y = 0..n on the
    last axis, centred at their global mode m:

        row[y] = [log C(n, y) - log C(n, m)] + (y - m) theta_1
                 + theta_2 (y - m)(n - y - m),

    the last product an exact integer, y (n-y) - m (n-m).
    theta_1 = logit psi and theta_2 = log omega broadcast against y:
    scalars give one row, arrays of shape (P, 1) a (P, n+1) block.  At
    theta_1 = -inf or +inf (psi = 0 or 1) the row is a point mass at 0
    or n.
    """
    y, cross, log_binom = _kernel_row(n)
    batch = isinstance(theta1, np.ndarray) or isinstance(theta2, np.ndarray)
    edge = np.isinf(theta1) if batch else math.isinf(theta1)
    if not (edge.any() if batch else edge):
        m = _mode(n, theta1, theta2, batch)
        row = log_binom - log_binom[m] + (y - m) * theta1
        if isinstance(theta2, np.ndarray) or theta2:  # omega = 1 adds 0.0
            row += theta2 * (cross - cross[m])
        return m, row
    if not batch:
        m = n * (theta1 > 0)
        return m, np.where(y == m, 0.0, -np.inf)
    m = np.where(edge, n * (theta1 > 0), _mode(n, np.where(edge, 0.0, theta1), theta2, True))
    with np.errstate(invalid="ignore"):  # 0 * inf at an edge row's centre
        row = log_binom - log_binom[m] + (y - m) * theta1 + theta2 * (cross - cross[m])
    np.put_along_axis(row, m, 0.0, axis=-1)
    return m, row


# exp(-700) ~ 1e-304 is still a normal double
_EXP_FLOOR = -700.0


def _log_sum(row: np.ndarray):
    """log(sum(exp(row))) over the last axis of a kernel row, whose
    largest term is exp(0) = 1: ``_logsumexp`` without its shift."""
    return np.log(np.exp(np.maximum(row, _EXP_FLOOR)).sum(axis=-1))


def _logsumexp(terms: np.ndarray, axis=None):
    """log(sum(exp(terms))) with the largest term shifted to 0 (Blanchard,
    Higham & Higham 2021); an infinite or NaN maximum passes through.

    With ``axis=None`` the whole array reduces to a float; with an axis,
    that axis reduces and an array comes back.  Either way the shifted
    terms are raised to _EXP_FLOOR first: numpy's exp is some ten times
    slower per element when its result underflows, and terms that small
    cannot change a sum that holds exp(0) = 1.
    """
    if axis is None:
        top = terms.max()
        if not np.isfinite(top):
            return float(top)
        shifted = terms - top
        np.maximum(shifted, _EXP_FLOOR, out=shifted)
        np.exp(shifted, out=shifted)
        return float(top + np.log(shifted.sum()))
    top = terms.max(axis=axis)
    shifted = terms - np.expand_dims(np.where(np.isfinite(top), top, 0.0), axis)
    np.maximum(shifted, _EXP_FLOOR, out=shifted)
    np.exp(shifted, out=shifted)
    return top + np.log(shifted.sum(axis=axis))


def _mass(log_probs: np.ndarray) -> float:
    """The probability of a slice of a log-pmf row, capped at 1 against
    rounding."""
    return min(1.0, float(np.exp(_logsumexp(log_probs))))


@_row_cache
def _log_falling_ratio(n: int, r: int):
    """A one-tuple of log[(y)_r / (n)_r] for y = r..n, read-only: the
    reverse sum -sum_{j=y+1..n} log1p(r / (j-r)), in long double."""
    out = np.zeros(n - r + 1)
    out[:-1] = -np.cumsum(np.log1p(r / np.arange(n - r, 0.0, -1.0)), dtype=np.longdouble)[::-1]
    return (out,)


def _log_tau(r: int, row, log_sum, psi, log_omega):
    """log tau_r off a row of K_n's log-weights whose largest entry is 0
    or near it, and whose log-sum is ``log_sum``: C(n-r, y-r) =
    C(n, y) (y)_r / (n)_r makes tau_r the moment E[(Y)_r] / ((n)_r psi^r)
    of the law the row holds.  ``psi`` and ``log_omega`` broadcast
    against the other axes of ``row``; at psi = 0, where
    E[(Y)_r] = psi^r = 0, tau_r = omega^(r (n-r))."""
    n = row.shape[-1] - 1
    terms = row[..., r:] + _log_falling_ratio(n, r)[0]
    if row.ndim == 1:
        if psi == 0.0:
            return r * (n - r) * log_omega
        return _logsumexp(terms) - log_sum - r * math.log(psi)
    edge = psi == 0.0
    log_tau = _logsumexp(terms, axis=-1) - log_sum - r * np.log(psi + edge)  # log 1 at psi = 0
    return np.where(edge, r * (n - r) * log_omega, log_tau)


def _kernel(n: int, psi: float, omega: float):
    """(m, row, its log-sum, log omega): the kernel at (psi, omega)."""
    log_omega = math.log(omega)
    m, row = _log_weights(n, _logit(psi), log_omega)
    return m, row, _log_sum(row), log_omega


def _log_kn(n: int, psi: float, log_omega: float, m: int, log_sum) -> float:
    """log K_n off its kernel row: the log of K_n's term
    C(n, m) psi^m (1-psi)^(n-m) omega^(m (n-m)) at the mode m plus the
    row's log-sum, rounded once (``math.fsum``).  Its largest part,
    theta_2 m (n-m), up to theta_2 n^2 / 4, enters as two products that
    are exact for n < 2^14, theta_2 split into halves of 26 bits
    (Dekker 1971)."""
    cross = m * (n - m)
    split = 134217729.0 * log_omega  # 2^27 + 1
    high = split - (split - log_omega)
    return math.fsum((_kernel_row(n)[2][m], high * cross, (log_omega - high) * cross, log_sum,
                      m * math.log(psi) if m else 0.0,
                      (n - m) * math.log1p(-psi) if m < n else 0.0))


def _log_tau_r(n: int, psi: float, omega: float, r: int) -> float:
    """log tau_r, r in [1, n], off one kernel row; at r = n it is
    -log K_n, as K_0 = 1."""
    m, row, log_sum, log_omega = _kernel(n, psi, omega)
    if r == n:
        return -_log_kn(n, psi, log_omega, m, log_sum)
    return float(_log_tau(r, row, log_sum, psi, log_omega))


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
    n = ModelParams(n, psi, omega).n
    a = _integer("a", a, 0, n)
    if a == n:
        return 0.0
    m, row, log_sum, log_omega = _kernel(n, psi, omega)
    log_kn = _log_kn(n, psi, log_omega, m, log_sum)
    return log_kn + float(_log_tau(a, row, log_sum, psi, log_omega)) if a else log_kn


def tau(r: int, params: ModelParams) -> float:
    """The ratio tau_r = K_{n-r} / K_n, r in [1, n], read off the K_n
    row; +inf where it lies beyond the double range."""
    return _exp(_log_tau_r(*params, _integer("r", r, 1, params.n)))


def pmf(params: ModelParams) -> PmfTable:
    """Full log-pmf table over {0..n}: the kernel's centred row less its
    log-sum, in one pass.  psi in {0, 1} gives an exact point mass at 0
    or n."""
    n, psi, omega = params
    m, row, log_sum, log_omega = _kernel(n, psi, omega)
    return PmfTable(params=params, log_prob=row - log_sum,
                    log_normalizer=_log_kn(n, psi, log_omega, m, log_sum))


def cdf(params: ModelParams, y: int) -> float:
    """P(Y <= y), accumulated by log-sum-exp over the table prefix."""
    y = _integer("y", y, 0, params.n)
    return _mass(pmf(params).log_prob[: y + 1])


def _table_moments(probs: np.ndarray) -> tuple[float, float]:
    """(mean, variance) of a pmf table, both summed about its mode (see
    ``moments``)."""
    mode = int(np.argmax(probs))
    dev = np.arange(len(probs)) - mode
    d = float(probs @ dev)
    return mode + d, max(0.0, float(probs @ (dev * dev)) - d * d)


def moments(params: ModelParams) -> MomentSummary:
    """tau_1, tau_2, the mean and the variance off one pmf table.

    The closed form n psi (tau_1 - psi (n tau_1^2 - (n-1) tau_2)) cancels
    O(n^2) terms down to the variance, and a sum about the mean loses the
    variance to the mean's rounding error where the law piles onto 0 or
    n.  Centred on the table's mode m every term is positive up to one
    small correction: with d = sum p_y (y - m), the variance is
    sum p_y (y - m)^2 - d^2.  At psi = 0, where the table is a point
    mass and eta = tau_1, tau_1 may overflow while the mean stays 0.
    """
    n, psi = params.n, params.psi
    table = pmf(params)
    log_omega = math.log(params.omega)
    t1 = _exp(_log_tau(1, table.log_prob, 0.0, psi, log_omega))
    t2 = _exp(_log_tau(2, table.log_prob, 0.0, psi, log_omega)) if n >= 2 else math.nan
    mean, variance = _table_moments(table.probs())
    eta = variance / (n * psi) if psi > 0.0 else t1
    return MomentSummary(tau1=t1, tau2=t2, eta=eta, mean=mean,
                         variance=variance, pi=mean / n)


def _tau1_pi(params: ModelParams) -> tuple[float, float]:
    """(tau_1, pi = psi tau_1) off one kernel row.  pi <= 1 even where
    tau_1 overflows, as it may at a tiny psi; there it is
    exp(log psi + log tau_1).  Elsewhere the product, which keeps
    pi < psi wherever tau_1 < 1.  0 at psi = 0."""
    psi = params.psi
    log_tau1 = _log_tau_r(*params, 1)
    t1 = _exp(log_tau1)
    if psi == 0.0:
        return t1, 0.0
    return t1, psi * t1 if t1 < math.inf else math.exp(math.log(psi) + log_tau1)


def marginal_pi(params: ModelParams) -> float:
    """Per-trial marginal success probability pi = psi * tau_1; 0 at
    psi = 0, where tau_1 may overflow."""
    return _tau1_pi(params)[1]


def joint_log_prob(params: ModelParams, bits) -> float:
    """Log probability of one ordered binary configuration.

    The joint law is exchangeable: the value depends on ``bits`` only
    through y = sum(bits), and equals the pmf at y divided by the
    C(n, y) arrangement count.
    """
    b = np.asarray(bits)
    if b.shape != (params.n,):
        raise ValueError(f"bits must have length n={params.n}, got shape {b.shape}")
    if not np.isin(b, (0, 1)).all():
        raise ValueError("bits must be 0/1 valued")
    y = int(b.sum())
    return float(pmf(params).log_prob[y] - _kernel_row(params.n)[2][y])


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
    if not 0.0 < params.psi < 1.0:
        raise ValueError("conditional CPR needs psi in (0, 1)")
    return _exp(-2.0 * math.log(params.omega))


def sample(params: ModelParams, count: int, seed: int) -> np.ndarray:
    """i.i.d. success-count draws by inverse cdf over the pmf table.

    Deterministic given ``seed``; the generator is local to the call.
    """
    count, seed = _integer("count", count, 1), _integer("seed", seed, 0)
    cum = np.cumsum(pmf(params).probs())
    cum[-1] = 1.0
    u = np.random.default_rng(seed).random(count)
    return np.searchsorted(cum, u, side="right").astype(np.int64)

