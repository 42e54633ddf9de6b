"""Majority-vote ensemble accuracy under dependent classifiers, with
Binomial and Beta-Binomial baselines, and maximum-likelihood fitting of
(psi, omega) from observed success counts.

Accuracy is the tail probability P(Y > q) with q = n/2 (even n) or
(n-1)/2 (odd n); ties at the threshold count as failures.  The law is a
two-parameter exponential family with sufficient statistics
(y, y (n - y)), so the MLE matches those model expectations to the
sample averages.  The fit is damped Newton on the exact score and
information, read off one log-pmf table per step, and that moment
matching is its stopping rule rather than a cross-check.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .core import ModelParams, pmf
from .core import _Checked, _integer, _kernel_row, _log_sum, _log_weights, _mass

__all__ = [
    "EnsembleSpec",
    "CountSample",
    "FitResult",
    "ModelReport",
    "ComparisonReport",
    "majority_threshold",
    "ensemble_accuracy",
    "binomial_accuracy",
    "beta_binomial_accuracy",
    "fit_mle",
    "model_comparison",
]


class _EnsembleSpecFields(NamedTuple):
    n: int
    params: ModelParams


class EnsembleSpec(_Checked, _EnsembleSpecFields):
    """An ensemble of n classifiers with a fitted or assumed dependence model."""

    __slots__ = ()

    def __new__(cls, n: int, params: ModelParams):
        n = _integer("ensemble size", n, 1)
        if n != params.n:
            raise ValueError("ensemble size must match params.n")
        return super().__new__(cls, n, params)


class _CountSampleFields(NamedTuple):
    n: int
    counts: tuple[int, ...]


class CountSample(_Checked, _CountSampleFields):
    """Frequencies of observed success counts y in {0..n}."""

    __slots__ = ()

    def __new__(cls, n: int, counts: tuple[int, ...]):
        n = _integer("n", n, 1)
        if len(counts) != n + 1:
            raise ValueError(f"counts must have length n+1={n + 1}")
        counts = tuple(_integer("count", c, 0) for c in counts)
        if sum(counts) < 1:
            raise ValueError("sample must contain at least one observation")
        return super().__new__(cls, n, counts)

    @staticmethod
    def from_pairs(n: int, pairs) -> "CountSample":
        n = _integer("n", n, 1)
        counts = [0] * (n + 1)
        for y, c in pairs:
            counts[_integer("observed y", y, 0, n)] += _integer("count", c, 0)
        return CountSample(n=n, counts=tuple(counts))

    @property
    def total(self) -> int:
        return sum(self.counts)


class FitResult(NamedTuple):
    psi_hat: float
    omega_hat: float
    log_likelihood: float
    converged: bool
    iterations: int
    standard_errors: tuple[float, float] | None


class ModelReport(NamedTuple):
    name: str
    n_params: int
    log_likelihood: float
    aic: float
    predicted_accuracy: float
    parameters: dict[str, float]
    converged: bool


class ComparisonReport(NamedTuple):
    sample_total: int
    empirical_accuracy: float
    models: tuple[ModelReport, ...]
    best_aic: str


def majority_threshold(n: int) -> int:
    """q = n/2 for even n, (n-1)/2 for odd n; a vote wins iff Y > q."""
    return _integer("n", n, 1) // 2


def ensemble_accuracy(spec: EnsembleSpec) -> float:
    """P(Y > q) under the dependence model: 1 - F(q)."""
    q = majority_threshold(spec.n)
    return _mass(pmf(spec.params).log_prob[q + 1:])


def binomial_accuracy(n: int, pi: float) -> float:
    """Binomial(n, pi) majority tail, the independence baseline."""
    if not 0.0 <= pi <= 1.0:
        raise ValueError(f"pi must lie in [0, 1], got {pi}")
    q = majority_threshold(n)
    return _mass(pmf(ModelParams(n, pi, 1.0)).log_prob[q + 1:])


def _rising_sums(x: float, m: int) -> np.ndarray:
    """Rows log x^(j) and its first two x-derivatives for j = 0..m, where
    x^(j) = x (x+1) ... (x+j-1) is the rising factorial: cumulative sums
    of log(x+k), 1/(x+k) and -1/(x+k)^2 over k < j."""
    xk = x + np.arange(m)
    out = np.zeros((3, m + 1))
    np.cumsum((np.log(xk), 1.0 / xk, -1.0 / (xk * xk)), axis=1, out=out[:, 1:])
    return out


def beta_binomial_accuracy(n: int, alpha: float, beta: float) -> float:
    """Majority tail of the Beta(alpha, beta) mixture of Binomials."""
    n = _integer("n", n, 1)
    if not (0.0 < alpha < math.inf and 0.0 < beta < math.inf):
        raise ValueError(f"alpha and beta must be positive and finite, got {alpha}, {beta}")
    # log B(y+alpha, n-y+beta) - log B(alpha, beta) by rising factorials
    ra, rb, rab = (_rising_sums(x, n)[0] for x in (alpha, beta, alpha + beta))
    logp = _kernel_row(n)[2] + ra + rb[::-1] - rab[n]
    return _mass(logp[majority_threshold(n) + 1:])


# Below this decrement g' (-H)^-1 g per observation Newton is in its
# quadratic region; for the lmbd fit that is the squared gap between E[T]
# and mean T in the metric of Cov(T).  The gain a step predicts there
# (half the decrement) still stands clear of the log-likelihood's own
# rounding, some N n eps, which a line search cannot see through.
_QUADRATIC_TOL = 1e-8
_MAX_STEPS = 100
_MAX_HALVINGS = 60


def _newton_ascent(derivs, theta: np.ndarray, total: float):
    """Damped Newton ascent with a backtracking (Armijo) line search on
    ``derivs(theta)`` = (log-likelihood, gradient, Hessian).  The step is
    V diag(1/s) V' g over the eigenpairs (lambda, V) of -H: Newton's,
    s = lambda, where -H is positive definite, and otherwise saddle-free
    (Dauphin et al. 2014), s = max(|lambda|, 1), the gradient's step along
    |lambda| < 1.  In the quadratic region it takes full steps while the
    decrement keeps falling, and stops when the score is at rounding
    level.  Returns (theta, log-likelihood, Hessian, steps, converged)."""
    value, grad, hess = derivs(theta)
    last = math.inf
    for step in range(_MAX_STEPS):
        lam, vecs = np.linalg.eigh(-hess)
        newton = bool(lam.min() > 0.0)
        direction = vecs @ ((grad @ vecs) / (lam if newton else np.maximum(abs(lam), 1.0)))
        slope = float(grad @ direction)
        quadratic = newton and slope <= total * _QUADRATIC_TOL
        if quadratic and slope >= last / 4.0:
            return theta, value, hess, step, True
        last = slope if quadratic else math.inf
        t = 1.0
        for _ in range(_MAX_HALVINGS):
            trial = theta + t * direction
            new = derivs(trial)
            # a NaN log-likelihood fails the test as well
            if quadratic or new[0] >= value + 1e-4 * t * slope:
                break
            t *= 0.5
        else:
            return theta, value, hess, step, False
        theta, (value, grad, hess) = trial, new
    return theta, value, hess, _MAX_STEPS, False


def _expit(a: float) -> float:
    return math.exp(-np.logaddexp(0.0, -a))


def _empirical_log_lik(counts: np.ndarray) -> float:
    """sum c log(c / N): the supremum of any count likelihood."""
    c = counts[counts > 0]
    return float(c @ np.log(c / c.sum()))


def _on_hull_face(counts: np.ndarray) -> bool:
    """Whether the sample mean of T = (y, y (n-y)) is on the boundary of
    the convex hull of T(0..n).  Those points form a strictly concave
    chain, so the faces are the points, the edges between neighbours and
    the chord from 0 to n."""
    seen = np.flatnonzero(counts)
    lo, hi = seen[0], seen[-1]
    return len(seen) <= 2 and (hi - lo <= 1 or (lo, hi) == (0, len(counts) - 1))


def fit_mle(sample: CountSample) -> FitResult:
    """Maximize the count likelihood over (psi, omega) by damped Newton in
    the natural parameters theta = (logit psi, log omega).

    The law is an exponential family in T = (y, y (n-y)):
    log P(y) = log C(n, y) + theta . T(y) - log Z(theta).  So one log-pmf
    table per iterate gives the score N (mean T - E[T]) and the
    information N Cov(T) exactly; the standard errors are that
    information's inverse at the optimum, mapped to (psi, omega) by the
    delta method.

    The MLE is finite exactly when mean T is interior to the convex hull
    of T(0..n).  A sample on a face (observed support one value, a pair
    {k, k+1} or {0, n}; every sample at n = 1) returns converged=False,
    omega_hat = NaN, psi_hat = mean y / n, no standard errors, and the
    empirical log-likelihood sum c log(c/N): the supremum, which the
    face's limit laws reach.
    """
    n = sample.n
    counts = np.asarray(sample.counts, dtype=float)
    total = counts.sum()
    y = np.arange(n + 1)
    mean_y = float(y @ counts / total)
    if _on_hull_face(counts):
        return FitResult(psi_hat=mean_y / n, omega_hat=math.nan,
                         log_likelihood=_empirical_log_lik(counts), converged=False,
                         iterations=0, standard_errors=None)

    stats = np.stack((y, y * (n - y))).astype(float)
    dev = stats - (stats @ counts / total)[:, None]
    seen = counts > 0

    def derivs(theta: np.ndarray):
        # the kernel's log-pmf table in natural parameters, exact even
        # where psi rounds to 0 or 1
        row = _log_weights(n, theta[0], theta[1])[1]
        logp = row - _log_sum(row)
        p = np.exp(logp)
        gap = dev @ p  # E[T] - mean T
        cov = (dev * p) @ dev.T - np.outer(gap, gap)
        return float(counts[seen] @ logp[seen]), -total * gap, -total * cov

    theta0 = np.array([math.log(mean_y / (n - mean_y)), 0.0])
    theta, log_lik, hess, steps, converged = _newton_ascent(derivs, theta0, total)
    psi_hat, omega_hat = _expit(theta[0]), math.exp(theta[1])
    standard_errors = None
    if converged:
        var = np.diag(np.linalg.inv(-hess))
        standard_errors = (math.sqrt(var[0]) * psi_hat * _expit(-theta[0]),
                           math.sqrt(var[1]) * omega_hat)
    return FitResult(psi_hat=psi_hat, omega_hat=omega_hat, log_likelihood=log_lik,
                     converged=converged, iterations=steps,
                     standard_errors=standard_errors)


def _beta_binomial_log_lik(counts: np.ndarray, theta: np.ndarray):
    """Beta-Binomial log-likelihood, gradient and Hessian in theta =
    (log alpha, log beta).  log P(y) = log C(n, y) + log alpha^(y)
    + log beta^(n-y) - log (alpha+beta)^(n) in rising factorials
    (Griffiths 1973), whose derivatives are sums of 1/(x+k), 1/(x+k)^2."""
    n = len(counts) - 1
    alpha, beta = np.exp(theta)
    ra, rb, rab = (_rising_sums(x, n) for x in (alpha, beta, alpha + beta))
    sa, sb, sab = ra @ counts, rb @ counts[::-1], counts.sum() * rab[:, n]
    ga, gb = sa[1] - sab[1], sb[1] - sab[1]
    haa, hbb, hab = sa[2] - sab[2], sb[2] - sab[2], -sab[2]
    grad = np.array([alpha * ga, beta * gb])
    hess = np.array([[alpha * alpha * haa + alpha * ga, alpha * beta * hab],
                     [alpha * beta * hab, beta * beta * hbb + beta * gb]])
    log_lik = counts @ _kernel_row(n)[2] + sa[0] + sb[0] - sab[0]
    return float(log_lik), grad, hess


def model_comparison(sample: CountSample) -> ComparisonReport:
    """Fit the dependence model, Binomial, and Beta-Binomial by MLE and
    compare log-likelihoods, AIC, and predicted majority-vote accuracy
    against the empirical tail frequency.

    A model with no finite MLE on the sample reports converged=False and
    the limit law that reaches the supremum: the empirical law for lmbd
    on a hull face (see ``fit_mle``) and for the Beta-Binomial on a
    sample seen only at 0 and n (alpha = beta = 0); the Binomial for the
    Beta-Binomial on a sample whose variance is at most the binomial
    variance at its mean (alpha = beta = inf).
    """
    n = sample.n
    total = sample.total
    empirical = sum(sample.counts[majority_threshold(n) + 1:]) / total
    counts = np.asarray(sample.counts, dtype=float)

    def report(name, parameters, log_lik, accuracy, converged=True):
        k = len(parameters)
        return ModelReport(name=name, n_params=k, log_likelihood=log_lik,
                           aic=2 * k - 2 * log_lik, predicted_accuracy=accuracy,
                           parameters=parameters, converged=converged)

    fit = fit_mle(sample)
    mbd_accuracy = empirical if math.isnan(fit.omega_hat) else ensemble_accuracy(
        EnsembleSpec(n=n, params=ModelParams(n=n, psi=fit.psi_hat, omega=fit.omega_hat)))
    mbd = report("lmbd", {"psi": fit.psi_hat, "omega": fit.omega_hat},
                 fit.log_likelihood, mbd_accuracy, fit.converged)

    # the sum of y, n N^2 times the sample variance, and N^2 times the
    # binomial variance at the sample mean, in exact integers
    s1 = sum(y * c for y, c in enumerate(sample.counts))
    excess = n * (total * sum(y * y * c for y, c in enumerate(sample.counts)) - s1 * s1)
    binomial_excess = s1 * (n * total - s1)

    pi_hat = s1 / (n * total)
    seen = counts > 0
    ll_bin = float((counts[seen] * pmf(ModelParams(n, pi_hat, 1.0)).log_prob[seen]).sum())
    binom = report("binomial", {"pi": pi_hat}, ll_bin, binomial_accuracy(n, pi_hat))
    if excess <= binomial_excess:
        betabin = report("beta-binomial", {"alpha": math.inf, "beta": math.inf},
                         ll_bin, binom.predicted_accuracy, False)
    elif not any(sample.counts[1:n]):
        betabin = report("beta-binomial", {"alpha": 0.0, "beta": 0.0},
                         _empirical_log_lik(counts), empirical, False)
    else:
        # start from the moment estimate of s = alpha + beta, where
        # variance = binomial variance * (1 + (n-1) / (s+1))
        s = (n - 1) * binomial_excess / (excess - binomial_excess) - 1.0
        theta, ll_bb, _, _, converged = _newton_ascent(
            lambda theta: _beta_binomial_log_lik(counts, theta),
            np.log([pi_hat * s, (1.0 - pi_hat) * s]), total)
        a_hat, b_hat = (float(v) for v in np.exp(theta))
        betabin = report("beta-binomial", {"alpha": a_hat, "beta": b_hat}, ll_bb,
                         beta_binomial_accuracy(n, a_hat, b_hat), converged)

    models = (mbd, binom, betabin)
    return ComparisonReport(sample_total=total, empirical_accuracy=empirical, models=models,
                            best_aic=min(models, key=lambda m: m.aic).name)
