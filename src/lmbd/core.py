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
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

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


def _validate(n: int, psi: float, omega: float) -> None:
    if n < 1:
        raise ValueError(f"trial count must be >= 1, got {n}")
    if not 0.0 <= psi <= 1.0:
        raise ValueError(f"psi must lie in [0, 1], got {psi}")
    if not omega > 0.0:
        raise ValueError(f"omega must be > 0, got {omega}")


@dataclass(frozen=True)
class ModelParams:
    """The (n, psi, omega) triple defining one distribution instance."""

    n: int
    psi: float
    omega: float

    def __post_init__(self) -> None:
        _validate(self.n, self.psi, self.omega)


@dataclass(frozen=True)
class PmfTable:
    """Log-probabilities over the support {0..n}.

    ``log_normalizer`` is the log K_n value used before the final
    renormalization pass.
    """

    params: ModelParams
    log_prob: np.ndarray
    log_normalizer: float

    def probs(self) -> np.ndarray:
        return np.exp(self.log_prob)


@dataclass(frozen=True)
class MomentSummary:
    """tau ratios and the induced mean/variance/marginal.

    mean = n psi tau1, variance = n psi eta, and pi = psi tau1 is the
    per-trial marginal success probability.  In closed form
    eta = tau1 - psi (n tau1^2 - (n-1) tau2), but ``moments`` reads the
    variance off the pmf table for interior psi (see there).  ``tau2``
    is NaN for n = 1 (it does not exist there and carries coefficient
    zero).
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


def _log_binom(m, i):
    """log C(m, i) for an integer m and integer (arrays of) i in [0, m]."""
    lf = _log_factorials(1 << int(m).bit_length())
    return lf[m] - lf[i] - lf[m - i]


def _row(m: int):
    i = np.arange(m + 1)
    row = (i, m - i, _log_binom(m, i))
    for part in row:
        part.flags.writeable = False
    return row


# rows up to this m are cached, 128 of them at most (some 12 MB); a
# longer row costs little to build next to the call that uses it
_ROW_CACHE_MAX_M = 4096
_cached_row = functools.lru_cache(maxsize=128)(_row)


def _kernel_row(m: int):
    """(i, m - i, log C(m, i)) for i = 0..m, read-only: the kernel's
    parts that depend on m alone."""
    return _cached_row(m) if m <= _ROW_CACHE_MAX_M else _row(m)


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


def _log_weights(n: int, a: int, psi, log_omega):
    """The log-weight kernel: per-term logs of the partial sum K_{n-a},

        log C(m, i) + i log psi + (m-i) log(1-psi) + (m-i)(i+a) log omega,

    i = 0..m with m = n - a, on the last axis.  ``psi`` and ``log_omega``
    broadcast against it: scalars give one row, arrays of shape (P, 1, 1)
    and (W, 1) a (P, W, m+1) block.  a = 0 gives the pmf's log-weights.
    """
    i, rest, log_binom = _kernel_row(n - a)
    return (
        log_binom
        + _xlogy(i, psi)
        + _xlogy(rest, 1.0 - psi)
        + rest * (i + a) * log_omega
    )


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


def log_k(n: int, a: int, psi: float, omega: float) -> float:
    """Log of the partial normalizing sum K_{n-a}.

    K_{n-a} = sum_{i=0}^{n-a} C(n-a, i) psi^i (1-psi)^(n-a-i)
              omega^((n-a-i)(i+a)),
    evaluated by a max-shifted log-sum-exp over per-term logs.
    """
    _validate(n, psi, omega)
    if not 0 <= a <= n:
        raise ValueError(f"a must lie in [0, n={n}], got {a}")
    return _logsumexp(_log_weights(n, a, psi, math.log(omega)))


def tau(r: int, params: ModelParams) -> float:
    """The ratio tau_r = K_{n-r} / K_n, r in [1, n]."""
    if not 1 <= r <= params.n:
        raise ValueError(f"r must lie in [1, n={params.n}], got {r}")
    num = log_k(params.n, r, params.psi, params.omega)
    den = log_k(params.n, 0, params.psi, params.omega)
    return math.exp(num - den)


def _point_mass_table(params: ModelParams, at: int) -> PmfTable:
    logp = np.full(params.n + 1, -np.inf)
    logp[at] = 0.0
    return PmfTable(params=params, log_prob=logp, log_normalizer=0.0)


def pmf(params: ModelParams) -> PmfTable:
    """Full log-pmf table over {0..n}, renormalized so the exponentiated
    entries sum to 1.

    psi in {0, 1} short-circuits to an exact point mass at 0 or n.
    """
    n, psi, omega = params.n, params.psi, params.omega
    if psi == 0.0:
        return _point_mass_table(params, 0)
    if psi == 1.0:
        return _point_mass_table(params, n)
    logw = _log_weights(n, 0, psi, math.log(omega))
    log_norm = _logsumexp(logw)
    logp = logw - log_norm
    # second renormalization pass removes the last few ulp of drift
    logp = logp - _logsumexp(logp)
    return PmfTable(params=params, log_prob=logp, log_normalizer=log_norm)


def cdf(params: ModelParams, y: int) -> float:
    """P(Y <= y), accumulated by log-sum-exp over the table prefix."""
    if not 0 <= y <= params.n:
        raise IndexError(f"y must lie in [0, n={params.n}], got {y}")
    table = pmf(params)
    return min(1.0, float(np.exp(_logsumexp(table.log_prob[: y + 1]))))


def _table_variance(probs: np.ndarray) -> float:
    """Variance of a pmf table, summed about its mode (see ``moments``)."""
    dev = np.arange(len(probs)) - int(np.argmax(probs))
    d = float(probs @ dev)
    return max(0.0, float(probs @ (dev * dev)) - d * d)


def moments(params: ModelParams) -> MomentSummary:
    """tau_1, tau_2 from the log-K sums; mean = n psi tau_1; the variance
    read off the pmf table.

    The closed form n psi (tau_1 - psi (n tau_1^2 - (n-1) tau_2)) cancels
    O(n^2) terms down to the variance, and a sum about the mean loses the
    variance to the mean's rounding error where the law piles onto 0 or
    n.  Centred on the table's mode m every term is positive up to one
    small correction: with d = sum p_y (y - m), the variance is
    sum p_y (y - m)^2 - d^2.  psi in {0, 1} keeps the closed form, which
    is exact there (mean 0 or n, variance 0).
    """
    n, psi, omega = params.n, params.psi, params.omega
    log_kn = log_k(n, 0, psi, omega)
    t1 = math.exp(log_k(n, 1, psi, omega) - log_kn)
    t2 = math.exp(log_k(n, 2, psi, omega) - log_kn) if n >= 2 else math.nan
    if 0.0 < psi < 1.0:
        variance = _table_variance(pmf(params).probs())
        eta = variance / (n * psi)
    else:
        if n >= 2:
            eta = t1 - psi * (n * t1 * t1 - (n - 1) * t2)
        else:
            eta = t1 - psi * t1 * t1
        variance = max(0.0, n * psi * eta)
    return MomentSummary(tau1=t1, tau2=t2, eta=eta, mean=n * psi * t1,
                         variance=variance, pi=psi * t1)


def marginal_pi(params: ModelParams) -> float:
    """Per-trial marginal success probability pi = psi * tau_1."""
    return params.psi * tau(1, params)


def _log_joint_weight(params: ModelParams, y: int):
    """Unnormalized log weight of one configuration with y successes."""
    n, psi, omega = params.n, params.psi, params.omega
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
    # the two free trials plus n-2 failures; log K_n is shared by all four
    log_kn = log_k(params.n, 0, params.psi, params.omega)
    lp = {
        pair: _log_joint_weight(params, sum(pair)) - log_kn
        for pair in ((1, 1), (0, 0), (1, 0), (0, 1))
    }
    return math.exp(lp[(1, 1)] + lp[(0, 0)] - lp[(1, 0)] - lp[(0, 1)])


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

