"""Majority-vote ensemble accuracy under dependent classifiers, with
Binomial and Beta-Binomial baselines, and maximum-likelihood fitting of
(psi, omega) from observed success counts.

Accuracy is the tail probability P(Y > q) with q = n/2 (even n) or
(n-1)/2 (odd n); ties at the threshold count as failures.  The law is a
two-parameter exponential family with sufficient statistics
(y, y (n - y)), so the MLE matches those model expectations to the
sample averages.  The fit is Newton in a trust region on the exact
score and information, read off one kernel row per trial, and that
moment matching is its stopping rule rather than a cross-check.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .core import ModelParams
from .core import (_Checked, _floored_exp, _integer, _kernel, _kernel_row, _logit, _natural,
                   _positive, _probability, _share)

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
    """A count-likelihood fit (``fit_mle``).

    theta_hat (and so psi_hat and omega_hat), the log-likelihood,
    ``converged`` and ``iterations`` are its outputs.  ``iterations``
    counts the trial points after the start, one kernel row each: the
    steps taken and the trials that the trust radius turned back.  The
    one stopping rule reads the Newton decrement at 1e-16 per
    observation (_LAST_STEP_TOL), far above its rounding, so a last-bit
    change in the score does not move ``iterations``.
    """

    psi_hat: float
    omega_hat: float
    log_likelihood: float
    converged: bool
    iterations: int
    standard_errors: tuple[float, float] | None
    theta_hat: tuple[float, float]


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


def _majority_tail(params: ModelParams) -> float:
    """P(Y > q), the ``_share`` of the kernel row's tail at ``params``,
    with no log K_n; q = n // 2 as ``majority_threshold`` reads it, off
    the n that ``params`` has checked."""
    _, row, e, total = _kernel(*_natural(params))
    return _share(row, e, total, slice(params.n // 2 + 1, None))


def ensemble_accuracy(spec: EnsembleSpec) -> float:
    """P(Y > q) under the dependence model: 1 - F(q), off the kernel row."""
    return _majority_tail(spec.params)


def binomial_accuracy(n: int, pi: float) -> float:
    """Binomial(n, pi) majority tail, the independence baseline: the
    kernel row at psi = pi, omega = 1."""
    return _majority_tail(ModelParams(n, _probability("pi", pi), 1.0))


def _rising_sums(x: float, m: int) -> np.ndarray:
    """Rows log x^(j) and its second x-derivative for j = 0..m, where
    x^(j) = x (x+1) ... (x+j-1) is the rising factorial: cumulative sums
    of log(x+k) and -1/(x+k)^2 over k < j.  The derivative row overflows
    silently at a shape's ends: -1/x^2 is -inf for x below 1e-154, and
    -1/(x+k)^2 is -0 past x = 1e154.  The row of logs stays exact there,
    and ``beta_binomial_accuracy`` reads it alone."""
    xk = x + np.arange(m)
    out = np.zeros((2, m + 1))
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        np.cumsum((np.log(xk), -1.0 / (xk * xk)), axis=1, out=out[:, 1:])
    return out


def beta_binomial_accuracy(n: int, alpha: float, beta: float) -> float:
    """Majority tail of the Beta(alpha, beta) mixture of Binomials."""
    n, alpha, beta = _integer("n", n, 1), _positive("alpha", alpha), _positive("beta", beta)
    # log B(y+alpha, n-y+beta) - log B(alpha, beta) by the logs of rising
    # factorials
    ra, rb, rab = (_rising_sums(x, n)[0] for x in (alpha, beta, alpha + beta))
    tail = (_kernel_row(n)[2] + ra + rb[::-1] - rab[n])[majority_threshold(n) + 1:]
    # a log-pmf row: its probabilities are its exponentials, with T = 1
    return _share(tail, _floored_exp(tail), 1.0, slice(None))


# Below this decrement g' (-H)^-1 g per observation Newton is in its
# quadratic region; for the lmbd fit that is the squared gap between E[T]
# and mean T in the metric of Cov(T).  The gain a step predicts there
# (half the decrement) still stands clear of the log-likelihood's own
# rounding, some N n eps, which no test of a trial can see through.
_QUADRATIC_TOL = 1e-8
# A decrement per observation below this is still far above its own
# rounding, which read 1e-34 to 4e-29 for lmbd fits and up to 1.7e-27
# for Beta-Binomial fits (n 2 to 2000, N 300 to 1e5), so whether it has
# been reached does not hang on the last bits of the law's table.  The
# full step from it leaves about twice its square, at rounding level,
# so that step is the last.
_LAST_STEP_TOL = 1e-16
_MAX_STEPS = 100
# The trust radius in theta that a fit starts from.  A step along an
# eigenvalue of -H at rounding level is as long as one over that
# rounding, some 1e32 for a near-chord lmbd sample; scaled down to the
# radius, a trial stays within a few units of the last accepted theta,
# where both objectives are finite.  Starts from 1 to 100 converged the
# same seeded fits; from 3 they took at most 28 kernel rows next to the
# chord and 17 inside, against 34 and 22 from 100.
_START_RADIUS = 3.0


def _eigenpairs(a) -> list[tuple[float, tuple[float, float]]]:
    """The eigenpairs (lambda, v) of the symmetric 2x2 matrix ``a`` in
    closed form, by one Jacobi rotation (Golub & Van Loan, Algorithm
    8.5.1), whose columns are the unit eigenvectors."""
    (p, b), (_, q) = a
    if b == 0.0:
        return [(p, (1.0, 0.0)), (q, (0.0, 1.0))]
    tau = (q - p) / (2.0 * b)
    t = math.copysign(1.0, tau) / (abs(tau) + math.hypot(1.0, tau))
    c = 1.0 / math.hypot(1.0, t)
    return [(p - t * b, (c, -t * c)), (q + t * b, (t * c, c))]


def _newton_ascent(derivs, theta: np.ndarray, total: float):
    """Newton ascent in a trust region on ``derivs(theta)`` =
    (log-likelihood, gradient, Hessian), the last two 2 long and 2x2.
    Every step is V diag(1/|lambda|) V' g over the eigenpairs (lambda, V)
    of -H, in closed form (``_eigenpairs``, so no LAPACK call): Newton's
    where -H is positive definite, and otherwise saddle-free (Dauphin et
    al. 2014), with 1 in place of 1/|lambda| only where lambda = 0
    exactly.  So the step does not depend on the log-likelihood's scale;
    along an eigenvalue at rounding level it is far too long.  One radius
    in theta bounds it (More & Sorensen 1983), kept from step to step:
    a longer step is scaled down to the radius.  A trial that gains less
    than 1e-4 of the gain its slope predicts (a NaN gains nothing) halves
    the radius below its own length, and the step is tried again from
    the same theta; a clipped trial that gains at least half of it
    doubles the radius.  Where -H is positive definite and the decrement
    g' (-H)^-1 g is below _QUADRATIC_TOL per observation it takes full
    steps, and it stops after the first full step from a decrement below
    _LAST_STEP_TOL per observation; otherwise it ends unconverged after
    _MAX_STEPS trials.
    Returns (theta, log-likelihood, Hessian, trials, converged)."""
    value, grad, hess = derivs(theta)
    radius = _START_RADIUS
    for trial in range(_MAX_STEPS):
        g = [float(v) for v in grad]
        pairs = _eigenpairs([[-float(h) for h in row] for row in hess])
        direction = [0.0] * len(g)
        slope = 0.0
        for lam, v in pairs:
            gv = sum(gi * vi for gi, vi in zip(g, v))
            coef = gv / (abs(lam) or 1.0)
            direction = [d + coef * vi for d, vi in zip(direction, v)]
            slope += coef * gv
        quadratic = min(lam for lam, _ in pairs) > 0.0 and slope <= total * _QUADRATIC_TOL
        # a zero direction, at an exact stationary point, is no longer
        # than any radius
        length = math.hypot(*direction)
        t = 1.0 if quadratic or length <= radius else radius / length
        point = theta + t * np.array(direction)
        new = derivs(point)
        if not (quadratic or new[0] >= value + 1e-4 * t * slope):
            radius = 0.5 * t * length
            continue
        if t < 1.0 and new[0] >= value + 0.5 * t * slope:
            radius *= 2.0
        theta, (value, grad, hess) = point, new
        if quadratic and slope <= total * _LAST_STEP_TOL:
            return theta, value, hess, trial + 1, True
    return theta, value, hess, _MAX_STEPS, False


def _expit(a: float) -> float:
    return math.exp(-np.logaddexp(0.0, -a))


def _empirical_log_lik(counts: np.ndarray) -> float:
    """sum c log(c / N): the supremum of any count likelihood."""
    c = counts[counts > 0]
    return float((c * np.log(c / c.sum())).sum())


def _on_hull_face(counts: np.ndarray) -> bool:
    """Whether the sample mean of T = (y, y (n-y)) is on the boundary of
    the convex hull of T(0..n).  Those points form a strictly concave
    chain, so the faces are the points, the edges between neighbours and
    the chord from 0 to n."""
    seen = np.flatnonzero(counts)
    lo, hi = seen[0], seen[-1]
    return len(seen) <= 2 and (hi - lo <= 1 or (lo, hi) == (0, len(counts) - 1))


def fit_mle(sample: CountSample) -> FitResult:
    """Maximize the count likelihood over (psi, omega) by Newton in a
    trust region (``_newton_ascent``) in the natural parameters
    theta = (logit psi, log omega).

    The law is an exponential family in T = (y, y (n-y)):
    log P(y) = log C(n, y) + theta . T(y) - log Z(theta).  So one kernel
    row per iterate, its exponentials over their sum, gives the score N (mean T - E[T]) and the
    information N Cov(T) exactly; the standard errors are that
    information's inverse at the optimum, mapped to (psi, omega) by the
    delta method.  ``theta_hat`` is theta as Newton left it: psi_hat =
    expit(theta_1) rounds to 1.0 once theta_1 passes about 37, where the
    law that (psi_hat, omega_hat) names is a point mass, so the fitted
    law is the kernel's at theta_hat, whose log-likelihood is
    ``log_likelihood``.

    The MLE is finite exactly when mean T is interior to the convex hull
    of T(0..n).  A sample on a face (observed support one value, a pair
    {k, k+1} or {0, n}; every sample at n = 1) returns converged=False,
    omega_hat = NaN, psi_hat = mean y / n, theta_hat = (NaN, NaN), no
    standard errors, and the empirical log-likelihood sum c log(c/N):
    the supremum, which the face's limit laws reach.
    """
    n = sample.n
    counts = np.asarray(sample.counts, dtype=float)
    total = counts.sum()
    # T = (y, y (n-y)), the statistic the kernel tilts by
    y, cross, _ = _kernel_row(n)
    mean_y = float((y * counts).sum() / total)
    if _on_hull_face(counts):
        return FitResult(psi_hat=mean_y / n, omega_hat=math.nan,
                         log_likelihood=_empirical_log_lik(counts), converged=False,
                         iterations=0, standard_errors=None, theta_hat=(math.nan, math.nan))

    stats = np.stack((y, cross))
    d1, d2 = stats - ((stats * counts).sum(axis=1) / total)[:, None]
    # T - mean T and its products, whose p-weighted sums are E[T] - mean T
    # and the second moments about mean T
    dev = np.stack((d1, d2, d1 * d1, d1 * d2, d2 * d2))
    seen = counts > 0
    seen_counts = counts[seen]

    def derivs(theta: np.ndarray):
        # the kernel's table in natural parameters, exact even where psi
        # rounds to 0 or 1: p = e / row_total, and log p at the counts
        # seen is row - log row_total
        _, row, e, row_total = _kernel(n, theta[0], theta[1])
        g1, g2, s11, s12, s22 = (dev * (e / row_total)).sum(axis=1).tolist()
        log_lik = float((seen_counts * (row[seen] - math.log(row_total))).sum())
        c11, c12, c22 = s11 - g1 * g1, s12 - g1 * g2, s22 - g2 * g2  # Cov(T)
        return (log_lik, [-total * g1, -total * g2],
                [[-total * c11, -total * c12], [-total * c12, -total * c22]])

    theta0 = np.array([math.log(mean_y / (n - mean_y)), 0.0])
    theta, log_lik, hess, trials, converged = _newton_ascent(derivs, theta0, total)
    psi_hat, omega_hat = _expit(theta[0]), math.exp(theta[1])
    standard_errors = None
    if converged:
        # the diagonal of (-H)^-1 = [[-h22, h12], [h12, -h11]] / det H
        (h11, h12), (_, h22) = hess
        det = h11 * h22 - h12 * h12
        standard_errors = (math.sqrt(-h22 / det) * psi_hat * _expit(-theta[0]),
                           math.sqrt(-h11 / det) * omega_hat)
    return FitResult(psi_hat=psi_hat, omega_hat=omega_hat, log_likelihood=log_lik,
                     converged=converged, iterations=trials,
                     standard_errors=standard_errors, theta_hat=tuple(theta.tolist()))


def _beta_binomial_log_lik(counts: np.ndarray, theta: np.ndarray):
    """Beta-Binomial log-likelihood, gradient and Hessian in theta =
    (log alpha, log beta).  log P(y) = log C(n, y) + log alpha^(y)
    + log beta^(n-y) - log (alpha+beta)^(n) in rising factorials
    (Griffiths 1973), whose derivatives are sums of 1/(x+k), 1/(x+k)^2."""
    n = len(counts) - 1
    alpha, beta = np.exp(theta)
    ra, rb, rab = (_rising_sums(x, n) for x in (alpha, beta, alpha + beta))
    sa, sb = (ra * counts).sum(axis=1), (rb * counts[::-1]).sum(axis=1)
    sab = counts.sum() * rab[:, n]
    # the score in alpha, the sum over k < n of C_k / (alpha+k)
    # - N / (alpha+beta+k) with C_k = N - B_k the observations above k,
    # summed termwise as (C_k beta - B_k (alpha+k)) / ((alpha+k)
    # (alpha+beta+k)); likewise in beta, over n - y.  As two sums they
    # cancel at the MLE, where the rounding of a large alpha+beta moved
    # their zero
    ga, gb = ((((b[n] - b[:n]) * other - b[:n] * xk) / (xk * (xk + other))).sum()
              for xk, other, b in ((alpha + np.arange(n), beta, np.cumsum(counts)),
                                   (beta + np.arange(n), alpha, np.cumsum(counts[::-1]))))
    haa, hbb, hab = sa[1] - sab[1], sb[1] - sab[1], -sab[1]
    grad = [alpha * ga, beta * gb]
    hess = [[alpha * alpha * haa + alpha * ga, alpha * beta * hab],
            [alpha * beta * hab, beta * beta * hbb + beta * gb]]
    log_lik = (counts * _kernel_row(n)[2]).sum() + sa[0] + sb[0] - sab[0]
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
    tail = slice(majority_threshold(n) + 1, None)
    empirical = sum(sample.counts[tail]) / total
    counts = np.asarray(sample.counts, dtype=float)

    def report(name, parameters, log_lik, accuracy, converged=True):
        k = len(parameters)
        return ModelReport(name=name, n_params=k, log_likelihood=log_lik,
                           aic=2 * k - 2 * log_lik, predicted_accuracy=accuracy,
                           parameters=parameters, converged=converged)

    fit = fit_mle(sample)
    mbd_accuracy = empirical
    if not math.isnan(fit.omega_hat):
        # the fitted law off the kernel at theta-hat, exact where psi-hat
        # rounds to 0 or 1
        _, row, e, row_total = _kernel(n, *fit.theta_hat)
        mbd_accuracy = _share(row, e, row_total, tail)
    mbd = report("lmbd", {"psi": fit.psi_hat, "omega": fit.omega_hat},
                 fit.log_likelihood, mbd_accuracy, fit.converged)

    # the sum of y, n N^2 times the sample variance, and N^2 times the
    # binomial variance at the sample mean, in exact integers
    s1 = sum(y * c for y, c in enumerate(sample.counts))
    excess = n * (total * sum(y * y * c for y, c in enumerate(sample.counts)) - s1 * s1)
    binomial_excess = s1 * (n * total - s1)

    pi_hat = s1 / (n * total)
    seen = counts > 0
    # one Binomial kernel row, ``binomial_accuracy``'s, for the
    # log-likelihood and the tail
    _, row, e, row_total = _kernel(n, _logit(pi_hat), 0.0)
    ll_bin = float((counts[seen] * (row[seen] - math.log(row_total))).sum())
    binom = report("binomial", {"pi": pi_hat}, ll_bin, _share(row, e, row_total, tail))
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
