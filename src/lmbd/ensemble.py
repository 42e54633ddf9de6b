"""Majority-vote ensemble accuracy under dependent classifiers, with
Binomial and Beta-Binomial baselines, and maximum-likelihood fitting of
(psi, omega) from observed success counts.

Accuracy is the tail probability P(Y > q) with q = n/2 (even n) or
(n-1)/2 (odd n); ties at the threshold count as failures.  The law is a
two-parameter exponential family with sufficient statistics
(y, y (n - y)), so the MLE matches those model expectations to the
sample averages; that matching is used as a convergence cross-check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import ModelParams, pmf
from .core import _log_binom, _logsumexp, _xlogy

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


@dataclass(frozen=True)
class EnsembleSpec:
    """An ensemble of n classifiers with a fitted or assumed dependence model."""

    n: int
    params: ModelParams

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("n must be >= 1")
        if self.n != self.params.n:
            raise ValueError("ensemble size must match params.n")


@dataclass(frozen=True)
class CountSample:
    """Frequencies of observed success counts y in {0..n}."""

    n: int
    counts: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.counts) != self.n + 1:
            raise ValueError(f"counts must have length n+1={self.n + 1}")
        if any(c < 0 or c != int(c) for c in self.counts):
            raise ValueError("counts must be non-negative integers")
        if sum(self.counts) < 1:
            raise ValueError("sample must contain at least one observation")

    @staticmethod
    def from_pairs(n: int, pairs) -> "CountSample":
        counts = [0] * (n + 1)
        for y, c in pairs:
            y, c = int(y), int(c)
            if not 0 <= y <= n:
                raise ValueError(f"observed y={y} outside support [0, {n}]")
            counts[y] += c
        return CountSample(n=n, counts=tuple(counts))

    @property
    def total(self) -> int:
        return sum(self.counts)

    @property
    def distinct_values(self) -> int:
        return sum(1 for c in self.counts if c > 0)


@dataclass(frozen=True)
class FitResult:
    psi_hat: float
    omega_hat: float
    log_likelihood: float
    converged: bool
    iterations: int
    standard_errors: tuple[float, float] | None


@dataclass(frozen=True)
class ModelReport:
    name: str
    n_params: int
    log_likelihood: float
    aic: float
    predicted_accuracy: float
    parameters: dict[str, float]


@dataclass(frozen=True)
class ComparisonReport:
    sample_total: int
    empirical_accuracy: float
    models: tuple[ModelReport, ...]
    best_aic: str


def majority_threshold(n: int) -> int:
    """q = n/2 for even n, (n-1)/2 for odd n; a vote wins iff Y > q."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return n // 2 if n % 2 == 0 else (n - 1) // 2


def ensemble_accuracy(spec: EnsembleSpec) -> float:
    """P(Y > q) under the dependence model: 1 - F(q)."""
    q = majority_threshold(spec.n)
    table = pmf(spec.params)
    tail = table.log_prob[q + 1:]
    if tail.size == 0:
        return 0.0
    return min(1.0, float(np.exp(_logsumexp(tail))))


def binomial_accuracy(n: int, pi: float) -> float:
    """Binomial(n, pi) majority tail, the independence baseline."""
    if not 0.0 <= pi <= 1.0:
        raise ValueError(f"pi must lie in [0, 1], got {pi}")
    q = majority_threshold(n)
    y = np.arange(q + 1, n + 1)
    if y.size == 0:
        return 0.0
    logp = _log_binom(n, y) + _xlogy(y, pi) + _xlogy(n - y, 1.0 - pi)
    return min(1.0, float(np.exp(_logsumexp(logp))))


def beta_binomial_accuracy(n: int, alpha: float, beta: float) -> float:
    """Majority tail of the Beta(alpha, beta) mixture of Binomials."""
    from scipy.special import betaln

    if alpha <= 0.0 or beta <= 0.0:
        raise ValueError("alpha and beta must be positive")
    q = majority_threshold(n)
    y = np.arange(q + 1, n + 1)
    if y.size == 0:
        return 0.0
    logp = _log_binom(n, y) + betaln(y + alpha, n - y + beta) - betaln(alpha, beta)
    return min(1.0, float(np.exp(_logsumexp(logp))))


def _sample_log_lik(sample: CountSample, psi: float, omega: float) -> float:
    table = pmf(ModelParams(n=sample.n, psi=psi, omega=omega))
    counts = np.asarray(sample.counts, dtype=float)
    mask = counts > 0
    return float((counts[mask] * table.log_prob[mask]).sum())


def _fd_gradient(f, x: np.ndarray, step: float = 1e-6) -> np.ndarray:
    g = np.zeros_like(x)
    for k in range(len(x)):
        e = np.zeros_like(x)
        e[k] = step
        g[k] = (f(x + e) - f(x - e)) / (2.0 * step)
    return g


def _fd_hessian(f, x: np.ndarray, step: float = 1e-5) -> np.ndarray:
    d = len(x)
    h = np.zeros((d, d))
    for a in range(d):
        for b in range(d):
            ea = np.zeros(d)
            eb = np.zeros(d)
            ea[a] = step
            eb[b] = step
            h[a, b] = (
                f(x + ea + eb) - f(x + ea - eb) - f(x - ea + eb) + f(x - ea - eb)
            ) / (4.0 * step * step)
    return 0.5 * (h + h.T)


def fit_mle(sample: CountSample) -> FitResult:
    """Maximize the count likelihood over (psi, omega) via a
    derivative-free search on (logit psi, log omega).

    Degenerate samples (all mass at 0 or n, or a single observed value)
    return boundary-flagged, non-converged results.
    """
    # scipy costs some 0.4 s to import; only fits need it
    from scipy.optimize import minimize
    from scipy.special import expit, logit

    n = sample.n
    counts = np.asarray(sample.counts, dtype=float)
    total = counts.sum()
    mean_y = float((np.arange(n + 1) * counts).sum() / total)
    if sample.distinct_values < 2:
        return FitResult(
            psi_hat=mean_y / n,
            omega_hat=math.nan,
            log_likelihood=0.0,
            converged=False,
            iterations=0,
            standard_errors=None,
        )

    def neg_ll(theta: np.ndarray) -> float:
        psi = float(expit(np.clip(theta[0], -35.0, 35.0)))
        omega = float(np.exp(np.clip(theta[1], -35.0, 35.0)))
        return -_sample_log_lik(sample, psi, omega)

    p0 = min(max(mean_y / n, 1e-3), 1.0 - 1e-3)
    x0 = np.array([float(logit(p0)), 0.0])
    res = minimize(
        neg_ll,
        x0,
        method="Nelder-Mead",
        options={"xatol": 1e-10, "fatol": 1e-13, "maxiter": 4000, "maxfev": 8000},
    )
    theta = res.x
    psi_hat = float(expit(theta[0]))
    omega_hat = float(np.exp(theta[1]))
    grad = _fd_gradient(neg_ll, theta)
    # bool() of the whole: the comparison alone is a numpy bool, which
    # json cannot write
    converged = bool(res.success or float(np.linalg.norm(grad)) < 1e-8 * total)

    standard_errors = None
    hess = _fd_hessian(neg_ll, theta)
    try:
        cov = np.linalg.inv(hess)
        var = np.diag(cov)
        if (var > 0).all():
            # delta method back to natural coordinates
            se_psi = math.sqrt(var[0]) * psi_hat * (1.0 - psi_hat)
            se_omega = math.sqrt(var[1]) * omega_hat
            standard_errors = (se_psi, se_omega)
    except np.linalg.LinAlgError:
        pass

    return FitResult(
        psi_hat=psi_hat,
        omega_hat=omega_hat,
        log_likelihood=-float(res.fun),
        converged=converged,
        iterations=int(res.nit),
        standard_errors=standard_errors,
    )


def _fit_binomial(sample: CountSample) -> tuple[float, float]:
    """Closed-form Binomial MLE: (pi_hat, log-likelihood)."""
    n = sample.n
    counts = np.asarray(sample.counts, dtype=float)
    pi_hat = float((np.arange(n + 1) * counts).sum() / (n * counts.sum()))
    y = np.arange(n + 1)
    logp = _log_binom(n, y) + _xlogy(y, pi_hat) + _xlogy(n - y, 1.0 - pi_hat)
    mask = counts > 0
    return pi_hat, float((counts[mask] * logp[mask]).sum())


def _fit_beta_binomial(sample: CountSample) -> tuple[float, float, float]:
    """Beta-Binomial MLE over (log alpha, log beta): (a_hat, b_hat, ll)."""
    from scipy.optimize import minimize
    from scipy.special import betaln

    n = sample.n
    counts = np.asarray(sample.counts, dtype=float)
    mask = counts > 0
    y = np.arange(n + 1)

    def neg_ll(theta: np.ndarray) -> float:
        a = float(np.exp(np.clip(theta[0], -25.0, 25.0)))
        b = float(np.exp(np.clip(theta[1], -25.0, 25.0)))
        logp = _log_binom(n, y) + betaln(y + a, n - y + b) - betaln(a, b)
        return -float((counts[mask] * logp[mask]).sum())

    p = min(max((y * counts).sum() / (n * counts.sum()), 1e-3), 1.0 - 1e-3)
    x0 = np.array([math.log(2.0 * p), math.log(2.0 * (1.0 - p))])
    res = minimize(
        neg_ll,
        x0,
        method="Nelder-Mead",
        options={"xatol": 1e-9, "fatol": 1e-12, "maxiter": 4000, "maxfev": 8000},
    )
    a_hat = float(np.exp(np.clip(res.x[0], -25.0, 25.0)))
    b_hat = float(np.exp(np.clip(res.x[1], -25.0, 25.0)))
    return a_hat, b_hat, -float(res.fun)


def model_comparison(sample: CountSample) -> ComparisonReport:
    """Fit the dependence model, Binomial, and Beta-Binomial by MLE and
    compare log-likelihoods, AIC, and predicted majority-vote accuracy
    against the empirical tail frequency."""
    n = sample.n
    q = majority_threshold(n)
    empirical = sum(sample.counts[q + 1:]) / sample.total

    fit = fit_mle(sample)
    mbd_params = ModelParams(n=n, psi=fit.psi_hat, omega=fit.omega_hat)
    mbd = ModelReport(
        name="lmbd",
        n_params=2,
        log_likelihood=fit.log_likelihood,
        aic=2 * 2 - 2 * fit.log_likelihood,
        predicted_accuracy=ensemble_accuracy(EnsembleSpec(n=n, params=mbd_params)),
        parameters={"psi": fit.psi_hat, "omega": fit.omega_hat},
    )

    pi_hat, ll_bin = _fit_binomial(sample)
    binom = ModelReport(
        name="binomial",
        n_params=1,
        log_likelihood=ll_bin,
        aic=2 * 1 - 2 * ll_bin,
        predicted_accuracy=binomial_accuracy(n, pi_hat),
        parameters={"pi": pi_hat},
    )

    a_hat, b_hat, ll_bb = _fit_beta_binomial(sample)
    betabin = ModelReport(
        name="beta-binomial",
        n_params=2,
        log_likelihood=ll_bb,
        aic=2 * 2 - 2 * ll_bb,
        predicted_accuracy=beta_binomial_accuracy(n, a_hat, b_hat),
        parameters={"alpha": a_hat, "beta": b_hat},
    )

    models = (mbd, binom, betabin)
    best = min(models, key=lambda m: m.aic)
    return ComparisonReport(
        sample_total=sample.total,
        empirical_accuracy=empirical,
        models=models,
        best_aic=best.name,
    )
