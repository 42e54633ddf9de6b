"""Log-domain engine for the multiplicative binomial law of a sum of
exchangeable dependent Bernoulli variables.

The distribution of the success count Y over n trials is

    P(Y = y) = C(n, y) psi^y (1-psi)^(n-y) omega^((n-y) y) / K_n

with K_n the normalizing sum.  ``psi`` is the marginal success probability
the trials would have if they were independent; ``omega`` is the
association parameter (omega < 1 positive association, omega > 1 negative,
omega = 1 reduces the law to Binomial(n, psi)).

Every quantity here is computed in the log domain: the weight
omega^((n-y) y) has a log magnitude of up to n^2/4 * |ln omega|, which
overflows double precision long before n reaches interesting sizes.
The convention 0 * log 0 = 0 keeps psi in {0, 1} exact.

One kernel, ``_log_weights``, builds K_n's per-term logs, and every
quantity is read off that row.  The ratios tau_r = K_{n-r} / K_n are
falling-factorial moments of it, tau_r = E[(Y)_r] / ((n)_r psi^r), read
by ``_log_kn_tau``; log K_{n-a} is log K_n plus log tau_a.
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


def _integer(name: str, value) -> int:
    """``value`` as a Python int: ints and numpy integers pass, anything
    else (a float included) raises ValueError."""
    try:
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None


def _validate(n: int, psi: float, omega: float) -> int:
    """Check one (n, psi, omega) triple; returns n as a Python int."""
    n = _integer("trial count", n)
    if n < 1:
        raise ValueError(f"trial count must be >= 1, got {n}")
    if not 0.0 <= psi <= 1.0:
        raise ValueError(f"psi must lie in [0, 1], got {psi}")
    if not 0.0 < omega < math.inf:
        raise ValueError(f"omega must be positive and finite, got {omega}")
    return n


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
        return super().__new__(cls, _validate(n, psi, omega), psi, omega)


class PmfTable(NamedTuple):
    """Log-probabilities over the support {0..n}.

    ``log_normalizer`` is the log K_n value used before the final
    renormalization pass.
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


@functools.lru_cache(maxsize=None)
def _log_factorials(size: int) -> np.ndarray:
    """log k! for k = 0..size-1 from ``math.lgamma``, read-only.  Sizes
    are powers of two, so all tables together hold at most twice the
    largest."""
    table = np.array([math.lgamma(k + 1.0) for k in range(size)])
    table.flags.writeable = False
    return table


# rows up to this m are cached, 128 per builder (some 12 MB of kernel
# rows); a longer row costs little to build next to the call that uses it
_ROW_CACHE_MAX_M = 4096


def _row_cache(build):
    """``build(m)``'s arrays, made read-only, cached for m <= _ROW_CACHE_MAX_M."""
    def read_only(m: int):
        row = build(m)
        for part in row:
            part.flags.writeable = False
        return row
    cached = functools.lru_cache(maxsize=128)(read_only)
    return functools.wraps(build)(lambda m: cached(m) if m <= _ROW_CACHE_MAX_M else read_only(m))


@_row_cache
def _kernel_row(m: int):
    """(i, m - i, log C(m, i)) for i = 0..m, read-only: the kernel's
    parts that depend on m alone."""
    i = np.arange(m + 1)
    lf = _log_factorials(1 << int(m).bit_length())
    return i, m - i, lf[m] - lf[i] - lf[m - i]


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


def _log_weights(n: int, psi, log_omega):
    """The log-weight kernel: per-term logs of K_n,

        log C(n, y) + y log psi + (n-y) log(1-psi) + (n-y) y log omega,

    y = 0..n on the last axis: the pmf's log-weights.  ``psi`` and
    ``log_omega`` broadcast against it: scalars give one row, arrays of
    shape (P, 1) a (P, n+1) block.
    """
    y, rest, log_binom = _kernel_row(n)
    return (log_binom + _xlogy(y, psi) + _xlogy(rest, 1.0 - psi)
            + rest * y * log_omega)


# exp(-700) ~ 1e-304 is still a normal double
_EXP_FLOOR = -700.0


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


def _log_kn_tau(r: int, logw, psi, log_omega):
    """(log K_n, log tau_r) off K_n's log-weights ``logw`` (last axis y = 0..n).

    C(n-r, y-r) = C(n, y) (y)_r / (n)_r, with the falling factorial
    (y)_r = y (y-1) ... (y-r+1), makes tau_r = K_{n-r} / K_n the moment
    E[(Y)_r] / ((n)_r psi^r) of the law ``logw`` holds, in any normalization.
    Both sums are shifted by the row's maximum, so log K_n's size cancels
    exactly rather than through a difference of two large logs.  ``psi``
    and ``log_omega`` broadcast against the other axes of ``logw``; at
    psi = 0, where E[(Y)_r] = psi^r = 0, tau_r = omega^(r (n-r)).
    """
    n = logw.shape[-1] - 1
    lf = _log_factorials(1 << n.bit_length())
    log_fall = lf[r:n + 1] - lf[:n + 1 - r]  # log (y)_r for y = r..n
    top = logw.max(axis=-1, keepdims=True)
    shifted = logw - top
    # the K_n sum, whose largest term is exp(0) = 1: _logsumexp without
    # its own shift
    log_sum = np.log(np.exp(np.maximum(shifted, _EXP_FLOOR)).sum(axis=-1))
    edge = psi == 0.0
    log_tau = (_logsumexp(shifted[..., r:] + log_fall, axis=-1 if logw.ndim > 1 else None)
               - log_sum - log_fall[-1] - r * np.log(psi + edge))  # log 1 at psi = 0
    return top[..., 0] + log_sum, np.where(edge, r * (n - r) * log_omega, log_tau)


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
    evaluated as log K_n, a max-shifted log-sum-exp over the kernel's
    terms, plus log tau_a read off the same row (log tau_0 = 0 exactly).
    """
    n = _validate(n, psi, omega)
    if not 0 <= a <= n:
        raise ValueError(f"a must lie in [0, n={n}], got {a}")
    log_omega = math.log(omega)
    log_kn, log_tau = _log_kn_tau(a, _log_weights(n, psi, log_omega), psi, log_omega)
    return float(log_kn + log_tau)


def tau(r: int, params: ModelParams) -> float:
    """The ratio tau_r = K_{n-r} / K_n, r in [1, n], read off the K_n
    row; +inf where it lies beyond the double range."""
    if not 1 <= r <= params.n:
        raise ValueError(f"r must lie in [1, n={params.n}], got {r}")
    log_omega = math.log(params.omega)
    logw = _log_weights(params.n, params.psi, log_omega)
    return _exp(float(_log_kn_tau(r, logw, params.psi, log_omega)[1]))


def pmf(params: ModelParams) -> PmfTable:
    """Full log-pmf table over {0..n}, renormalized so the exponentiated
    entries sum to 1.

    psi in {0, 1} gives an exact point mass at 0 or n: the kernel's
    0 log 0 = 0 leaves one term at 0 and the rest at -inf.
    """
    n, psi, omega = params
    logw = _log_weights(n, psi, math.log(omega))
    log_norm = _logsumexp(logw)
    logp = logw - log_norm
    # second renormalization pass removes the last few ulp of drift
    logp = logp - _logsumexp(logp)
    return PmfTable(params=params, log_prob=logp, log_normalizer=log_norm)


def cdf(params: ModelParams, y: int) -> float:
    """P(Y <= y), accumulated by log-sum-exp over the table prefix."""
    if not 0 <= y <= params.n:
        raise IndexError(f"y must lie in [0, n={params.n}], got {y}")
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
    t1 = _exp(float(_log_kn_tau(1, table.log_prob, psi, log_omega)[1]))
    t2 = (_exp(float(_log_kn_tau(2, table.log_prob, psi, log_omega)[1])) if n >= 2
          else math.nan)
    mean, variance = _table_moments(table.probs())
    eta = variance / (n * psi) if psi > 0.0 else t1
    return MomentSummary(tau1=t1, tau2=t2, eta=eta, mean=mean,
                         variance=variance, pi=mean / n)


def _tau1_pi(params: ModelParams) -> tuple[float, float]:
    """(tau_1, pi = psi tau_1) off one kernel row.  pi <= 1 even where
    tau_1 overflows, as it may at a tiny psi; there it is
    exp(log psi + log tau_1).  Elsewhere the product, which keeps
    pi < psi wherever tau_1 < 1.  0 at psi = 0."""
    n, psi = params.n, params.psi
    log_omega = math.log(params.omega)
    log_tau1 = float(_log_kn_tau(1, _log_weights(n, psi, log_omega), psi, log_omega)[1])
    t1 = _exp(log_tau1)
    if psi == 0.0:
        return t1, 0.0
    return t1, psi * t1 if t1 < math.inf else math.exp(math.log(psi) + log_tau1)


def marginal_pi(params: ModelParams) -> float:
    """Per-trial marginal success probability pi = psi * tau_1; 0 at
    psi = 0, where tau_1 may overflow."""
    return _tau1_pi(params)[1]


def _log_joint_weight(params: ModelParams, y: int):
    """Unnormalized log weight of one configuration with y successes."""
    n, psi, omega = params
    return _xlogy(y, psi) + _xlogy(n - y, 1.0 - psi) + (n - y) * y * math.log(omega)


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
    log_kn = log_k(params.n, 0, params.psi, params.omega)
    return float(_log_joint_weight(params, int(b.sum())) - log_kn)


def conditional_cpr(params: ModelParams) -> float:
    """Cross-product ratio of two trials given the remaining n-2.

    Exchangeability makes the value independent of which two trials are
    picked and of the conditioning configuration; the identity
    omega = 1 / sqrt(CPR) holds for every valid parameter triple.
    """
    if params.n < 2:
        raise ValueError("conditional CPR needs n >= 2")
    if not 0.0 < params.psi < 1.0:
        raise ValueError("conditional CPR needs psi in (0, 1)")
    # the two free trials plus n-2 failures hold y = 2, 0, 1 and 1
    # successes; K_n cancels from the ratio
    w = [_log_joint_weight(params, y) for y in range(3)]
    return _exp(w[2] + w[0] - 2.0 * w[1])


def sample(params: ModelParams, count: int, seed: int) -> np.ndarray:
    """i.i.d. success-count draws by inverse cdf over the pmf table.

    Deterministic given ``seed``; the generator is local to the call.
    """
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    table = pmf(params)
    cum = np.cumsum(table.probs())
    cum[-1] = 1.0
    rng = np.random.default_rng(seed)
    u = rng.random(count)
    return np.searchsorted(cum, u, side="right").astype(np.int64)

