import math
import warnings

import mpmath as mp
import numpy as np
import pytest
from scipy.integrate import quad
from scipy.stats import beta as beta_dist
from scipy.stats import betabinom, binom

import lmbd
from lmbd import (
    CountSample,
    EnsembleSpec,
    ModelParams,
    beta_binomial_accuracy,
    binomial_accuracy,
    ensemble_accuracy,
    fit_mle,
    majority_threshold,
    marginal_pi,
    model_comparison,
    pmf,
    sample,
)

from lmbd.core import _kernel, _kernel_row, _logit
from lmbd.ensemble import _MAX_STEPS, _beta_binomial_log_lik, _newton_ascent

import mp_oracle
from enumeration_oracle import enumerate_pmf_oracle
from test_core import kernel_share


class TestMajorityThreshold:
    def test_defining_cases(self):
        assert majority_threshold(3) == 1
        assert majority_threshold(4) == 2
        assert majority_threshold(1) == 0

    def test_parity_rule(self):
        for n in range(1, 30):
            q = majority_threshold(n)
            assert q == (n // 2 if n % 2 == 0 else (n - 1) // 2)

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            majority_threshold(0)


class TestEnsembleAccuracy:
    def test_binomial_reduction_value(self):
        spec = EnsembleSpec(3, ModelParams(3, 0.6, 1.0))
        assert ensemble_accuracy(spec) == pytest.approx(0.648, abs=1e-12)

    def test_extreme_negative_association_approaches_psi(self):
        # odd n: the two-point limit puts mass psi above the threshold
        spec = EnsembleSpec(5, ModelParams(5, 0.6, 1e6))
        assert ensemble_accuracy(spec) == pytest.approx(0.6, abs=1e-4)

    def test_matches_enumeration_tail(self):
        p = ModelParams(9, 0.55, 0.8)
        q = majority_threshold(9)
        tail = float(enumerate_pmf_oracle(p).probs()[q + 1:].sum())
        assert ensemble_accuracy(EnsembleSpec(9, p)) == pytest.approx(tail, abs=1e-12)

    def test_size_mismatch_rejected(self):
        with pytest.raises(ValueError):
            EnsembleSpec(4, ModelParams(5, 0.5, 1.0))


class TestBinomialAccuracy:
    def test_hand_value(self):
        assert binomial_accuracy(3, 0.6) == pytest.approx(0.648, abs=1e-12)

    def test_single_classifier(self):
        assert binomial_accuracy(1, 0.37) == pytest.approx(0.37, abs=1e-12)

    @pytest.mark.parametrize("n", [1, 2, 5, 10, 25, 50])
    @pytest.mark.parametrize("p", [0.1, 0.5, 0.9])
    def test_reduction_identity(self, n, p):
        spec = EnsembleSpec(n, ModelParams(n, p, 1.0))
        assert ensemble_accuracy(spec) == pytest.approx(
            binomial_accuracy(n, p), abs=1e-12)

    def test_matches_scipy_tail(self):
        for n, p in [(7, 0.3), (12, 0.65)]:
            q = majority_threshold(n)
            assert binomial_accuracy(n, p) == pytest.approx(
                float(binom.sf(q, n, p)), abs=1e-12)

    @pytest.mark.parametrize("n", [1, 2, 9, 64, 500])
    @pytest.mark.parametrize("p", [0.0, 1e-9, 0.3, 0.5, 1.0])
    def test_kernel_row_leaves_the_binomial_terms_bit_for_bit(self, n, p):
        # the omega = 1 kernel row adds theta_2 (y-m)(n-y-m) = 0.0 to the
        # bare binomial log-terms, centred at the mode m
        m, row = _kernel(n, _logit(p), 0.0)[:2]
        y, _, log_binom = _kernel_row(n)
        with np.errstate(invalid="ignore"):  # 0 * inf at the psi edges' centre
            bare = log_binom - log_binom[m] + (y - m) * _logit(p)
        bare[m] = 0.0
        assert np.array_equal(row, bare)
        assert binomial_accuracy(n, p) == kernel_share(bare, slice(majority_threshold(n) + 1, None))

    def test_pi_domain(self):
        with pytest.raises(ValueError):
            binomial_accuracy(3, 1.2)


class TestBetaBinomialAccuracy:
    def test_concentrated_beta_approaches_binomial(self):
        got = beta_binomial_accuracy(3, 1e6, 1e6)
        assert got == pytest.approx(binomial_accuracy(3, 0.5), abs=1e-4)

    def test_uniform_mixture(self):
        # Beta(1,1) mixture is discrete-uniform on {0..n}
        assert beta_binomial_accuracy(3, 1.0, 1.0) == pytest.approx(0.5, abs=1e-12)

    def test_quadrature_oracle(self):
        n, a, b = 5, 2.0, 3.0
        q = majority_threshold(n)

        def integrand(p):
            return float(binom.sf(q, n, p)) * beta_dist.pdf(p, a, b)

        expect, _ = quad(integrand, 0.0, 1.0, epsabs=1e-12, epsrel=1e-12)
        assert beta_binomial_accuracy(n, a, b) == pytest.approx(expect, abs=1e-8)

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            beta_binomial_accuracy(3, 0.0, 1.0)
        with pytest.raises(ValueError):
            beta_binomial_accuracy(3, 1.0, -2.0)

    @pytest.mark.parametrize("n,alpha,beta", [
        (10, 1e300, 1e300), (7, 1e200, 3e199), (10, 1e154, 1e154),
        (10, 1e-155, 1e-155), (10, 1e-300, 1e-300), (7, 1e-200, 2.0)])
    def test_extreme_shapes_match_rising_factorials(self, n, alpha, beta):
        # the majority tail as sum_y C(n, y) alpha^(y) beta^(n-y) /
        # (alpha+beta)^(n) over rising factorials x^(j) at 40 digits; the
        # bound is twice the worst error, 1.02e-12 at (10, 1e154, 1e154).
        # Here a derivative row 1/(x+k)^2 would overflow or divide by 0
        with mp.workdps(40):
            a, b = mp.mpf(alpha), mp.mpf(beta)

            def rising(x, j):
                return mp.fprod(x + k for k in range(j))

            expect = mp.fsum(mp.binomial(n, y) * rising(a, y) * rising(b, n - y)
                             for y in range(majority_threshold(n) + 1, n + 1)) / rising(a + b, n)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = beta_binomial_accuracy(n, alpha, beta)
        assert abs((got - expect) / expect) <= 2.0e-12

    @pytest.mark.parametrize("alpha,beta", [(math.nan, 1.0), (1.0, math.nan),
                                            (math.inf, 1.0), (1.0, math.inf)])
    def test_non_finite_shapes_raise(self, alpha, beta):
        with pytest.raises(ValueError, match="positive and finite"):
            beta_binomial_accuracy(5, alpha, beta)


def expected_count_sample(params: ModelParams, total: int = 10 ** 6) -> CountSample:
    counts = np.round(pmf(params).probs() * total).astype(int)
    return CountSample(n=params.n, counts=tuple(int(c) for c in counts))


def drawn_sample(params: ModelParams, count: int, seed: int) -> CountSample:
    draws = sample(params, count, seed)
    counts = np.bincount(draws, minlength=params.n + 1)
    return CountSample(n=params.n, counts=tuple(int(c) for c in counts))


class TestCountSample:
    def test_from_pairs_accumulates(self):
        s = CountSample.from_pairs(3, [(0, 2), (2, 5), (2, 1)])
        assert s.counts == (2, 0, 6, 0)
        assert s.total == 8

    def test_validation(self):
        with pytest.raises(ValueError):
            CountSample(n=3, counts=(1, 2, 3))
        with pytest.raises(ValueError):
            CountSample(n=2, counts=(0, -1, 0))
        with pytest.raises(ValueError):
            CountSample(n=2, counts=(0, 0, 0))
        with pytest.raises(ValueError):
            CountSample.from_pairs(2, [(3, 1)])

    def test_from_pairs_rejects_a_non_integer_n(self):
        with pytest.raises(ValueError, match="integer"):
            CountSample.from_pairs(2.5, [(0, 1)])
        assert CountSample.from_pairs(np.int64(2), [(1, 3)]).counts == (0, 3, 0)


class TestFitMle:
    def test_noiseless_recovery(self):
        truth = ModelParams(7, 0.45, 1.5)
        fit = fit_mle(expected_count_sample(truth))
        assert fit.converged
        assert fit.psi_hat == pytest.approx(0.45, abs=1e-3)
        assert fit.omega_hat == pytest.approx(1.5, abs=1e-3)

    @pytest.mark.parametrize("n", [5, 9])
    @pytest.mark.parametrize("psi", [0.3, 0.45, 0.6])
    @pytest.mark.parametrize("omega", [0.7, 1.5])
    def test_noiseless_recovery_grid(self, n, psi, omega):
        fit = fit_mle(expected_count_sample(ModelParams(n, psi, omega)))
        assert fit.psi_hat == pytest.approx(psi, abs=1e-3)
        assert fit.omega_hat == pytest.approx(omega, abs=1e-3)

    # psi_hat rounds to 1.0 on the first sample, where the law that
    # (psi_hat, omega_hat) names is a point mass at n
    THETA_SAMPLES = {
        "psi-hat-rounds-to-one": (200, {198: 1, 199: 5, 200: 4}),
        "interior": (7, {0: 3, 2: 10, 3: 12, 5: 4, 7: 1}),
    }

    @pytest.mark.parametrize("n, pairs", THETA_SAMPLES.values(), ids=THETA_SAMPLES)
    def test_log_likelihood_is_the_kernels_at_theta_hat(self, n, pairs):
        s = CountSample.from_pairs(n, pairs.items())
        fit = fit_mle(s)
        assert fit.converged
        theta1, theta2 = fit.theta_hat
        assert fit.omega_hat == math.exp(theta2)
        assert fit.psi_hat == pytest.approx(1.0 / (1.0 + math.exp(-theta1)), rel=1e-15)
        _, row, _, total = _kernel(n, theta1, theta2)
        log_prob = row - np.log(total)
        counts = np.asarray(s.counts, dtype=float)
        seen = counts > 0
        assert float(counts[seen] @ log_prob[seen]) == pytest.approx(
            fit.log_likelihood, rel=0, abs=1e-12)

    def test_sampled_recovery_within_three_se(self):
        truth = ModelParams(9, 0.6, 0.8)
        fit = fit_mle(drawn_sample(truth, 10 ** 5, seed=31415))
        assert fit.converged
        assert fit.standard_errors is not None
        se_psi, se_omega = fit.standard_errors
        assert abs(fit.psi_hat - 0.6) <= 3.0 * se_psi
        assert abs(fit.omega_hat - 0.8) <= 3.0 * se_omega

    def test_binomial_data_gives_omega_near_one(self):
        fit = fit_mle(drawn_sample(ModelParams(5, 0.3, 1.0), 10 ** 5, seed=777))
        assert fit.converged
        se_psi, se_omega = fit.standard_errors
        assert abs(fit.omega_hat - 1.0) <= 3.0 * se_omega
        assert abs(fit.psi_hat - 0.3) <= 3.0 * se_psi

    def test_sufficient_statistics_match_at_optimum(self):
        # exponential-family moment matching: the fitted model's
        # E[y] and E[y (n-y)] equal the sample averages
        truth = ModelParams(7, 0.4, 1.3)
        s = drawn_sample(truth, 20000, seed=5)
        fit = fit_mle(s)
        counts = np.asarray(s.counts, dtype=float)
        y = np.arange(8)
        probs = pmf(ModelParams(7, fit.psi_hat, fit.omega_hat)).probs()
        assert float((probs * y).sum()) == pytest.approx(
            float((counts * y).sum() / counts.sum()), abs=1e-5)
        assert float((probs * y * (7 - y)).sum()) == pytest.approx(
            float((counts * y * (7 - y)).sum() / counts.sum()), abs=1e-4)

    def test_step_count_ignores_the_last_bit_of_p(self, monkeypatch):
        # each step reads p = e / T off the kernel's exponentials; moving
        # every e up one ulp moves p in its last bits alone, which must
        # not change how many steps a fit takes.  300 draws each, at the
        # Curie-Weiss couplings omega = e^(-2 beta / n), all with a
        # finite MLE
        cells = ((0.3, 0.5), (0.6, -0.5), (0.45, 0.9))
        samples = [drawn_sample(ModelParams(n, psi, math.exp(-2.0 * beta / n)), 300, n)
                   for n, (psi, beta) in zip((2, 3, 5, 8, 12, 20, 32, 50, 64, 100, 150, 200),
                                             cells * 4)]
        plain = [fit_mle(s) for s in samples]

        def nudged(n, theta1, theta2):
            m, row, e, total = _kernel(n, theta1, theta2)
            e = np.nextafter(e, np.inf)
            return m, row, e, float(np.add.reduce(e))

        monkeypatch.setattr(lmbd.ensemble, "_kernel", nudged)
        for s, fit in zip(samples, plain):
            assert fit.converged
            got = fit_mle(s)
            assert (got.iterations, got.converged) == (fit.iterations, fit.converged), s.n

    # next to the chord face {0, n}: the first Newton step lands where the
    # law is nearly a two-point mass and an eigenvalue of -H is rounding,
    # so the next step is some 1e32 long, and the trust radius scales it
    # down to a few units of theta
    NEAR_CHORD = {
        "n32": (32, {0: 438272, 5: 1, 31: 1, 32: 438271}),
        "n53": (53, {0: 312, 23: 1, 53: 312}),
    }

    @pytest.mark.parametrize("n, pairs", NEAR_CHORD.values(), ids=NEAR_CHORD)
    def test_near_chord_fit_matches_moments(self, n, pairs):
        s = CountSample.from_pairs(n, pairs.items())
        fit = fit_mle(s)
        assert fit.converged and fit.standard_errors is not None
        _, row, e, total = _kernel(n, *fit.theta_hat)
        y, cross, _ = _kernel_row(n)
        counts = np.asarray(s.counts, dtype=float)
        for t in (y, cross):
            assert float((e / total) @ t) == pytest.approx(float(counts @ t / counts.sum()),
                                                           rel=1e-9)

    def test_near_chord_fits_take_few_kernel_rows(self, monkeypatch):
        # at most 30 kernel rows per fit, one per trial point, on both
        # NEAR_CHORD samples and on 100 seeded ones (n in {10, 53, 200},
        # 10 to 1000 counts at each of 0 and n, 1 to 3 off the chord)
        samples = [CountSample.from_pairs(n, pairs.items()) for n, pairs in self.NEAR_CHORD.values()]
        rng = np.random.default_rng(41)
        for i in range(100):
            n = (10, 53, 200)[i % 3]
            counts = np.zeros(n + 1, dtype=int)
            counts[[0, n]] = rng.integers(10, 1001, size=2)
            np.add.at(counts, rng.integers(1, n, size=rng.integers(1, 4)), 1)
            samples.append(CountSample(n=n, counts=tuple(counts.tolist())))
        rows = []

        def counted(*args):
            rows[-1] += 1
            return _kernel(*args)

        monkeypatch.setattr(lmbd.ensemble, "_kernel", counted)
        for s in samples:
            rows.append(0)
            fit = fit_mle(s)
            assert fit.converged and fit.iterations + 1 == rows[-1]
        assert max(rows) <= 30

    def test_degenerate_sample_flagged(self):
        fit = fit_mle(CountSample(n=4, counts=(120, 0, 0, 0, 0)))
        assert not fit.converged
        assert fit.psi_hat == 0.0
        fit = fit_mle(CountSample(n=4, counts=(0, 0, 0, 0, 7)))
        assert not fit.converged
        assert fit.psi_hat == 1.0

    @pytest.mark.parametrize("s", [
        CountSample(n=4, counts=(3, 0, 4, 0, 0)),
        drawn_sample(ModelParams(9, 0.6, 0.8), 10 ** 5, seed=31415),
        drawn_sample(ModelParams(20, 0.3, 1.2), 2000, seed=7),
    ], ids=["n4-pair", "n9", "n20"])
    def test_standard_errors_match_mpmath_hessian(self, s):
        # the inverse of a 50-digit finite-difference Hessian of the
        # log-likelihood in (psi, omega), at the fitted point
        fit = fit_mle(s)
        assert fit.converged
        with mp.workdps(50):
            def log_lik(psi, omega):
                terms = [mp.log(mp.binomial(s.n, y)) + y * mp.log(psi)
                         + (s.n - y) * mp.log(1 - psi) + y * (s.n - y) * mp.log(omega)
                         for y in range(s.n + 1)]
                log_k = mp.log(mp.fsum(mp.exp(t) for t in terms))
                return mp.fsum(c * (t - log_k) for c, t in zip(s.counts, terms) if c)

            x = (mp.mpf(fit.psi_hat), mp.mpf(fit.omega_hat))
            h = mp.matrix([[mp.diff(log_lik, x, (2, 0)), mp.diff(log_lik, x, (1, 1))],
                           [mp.diff(log_lik, x, (1, 1)), mp.diff(log_lik, x, (0, 2))]])
            cov = (-h) ** -1
            expect = [float(mp.sqrt(cov[0, 0])), float(mp.sqrt(cov[1, 1]))]
        assert fit.standard_errors == pytest.approx(expect, rel=1e-10)


class TestModelComparison:
    def test_nested_likelihood_ordering(self):
        s = drawn_sample(ModelParams(7, 0.5, 0.7), 20000, seed=11)
        report = model_comparison(s)
        by_name = {m.name: m for m in report.models}
        assert by_name["lmbd"].log_likelihood >= by_name["binomial"].log_likelihood - 1e-6

    def test_binomial_data_all_models_predict_empirical(self):
        truth = ModelParams(7, 0.6, 1.0)
        count = 10 ** 5
        s = drawn_sample(truth, count, seed=42)
        report = model_comparison(s)
        exact = binomial_accuracy(7, 0.6)
        mc_err = 3.0 / math.sqrt(count)
        assert abs(report.empirical_accuracy - exact) < mc_err
        for m in report.models:
            assert abs(m.predicted_accuracy - report.empirical_accuracy) < 2 * mc_err

    def test_dependent_data_prefers_dependence_model(self):
        s = drawn_sample(ModelParams(9, 0.55, 1.6), 10 ** 5, seed=2718)
        report = model_comparison(s)
        assert report.best_aic == "lmbd"
        aics = {m.name: m.aic for m in report.models}
        assert aics["lmbd"] < aics["binomial"]
        assert aics["lmbd"] < aics["beta-binomial"]

    def test_binomial_reads_one_kernel_row(self, monkeypatch):
        # the Binomial's log-likelihood and tail come off one kernel row,
        # binomial_accuracy's, with no pmf table and no log K_n
        calls = []
        for name in ("pmf", "_log_kn"):
            real = getattr(lmbd.core, name)

            def counted(*args, real=real, name=name):
                calls.append(name)
                return real(*args)

            monkeypatch.setattr(lmbd.core, name, counted)
            monkeypatch.setattr(lmbd.ensemble, name, counted, raising=False)
        s = drawn_sample(ModelParams(9, 0.55, 1.6), 1000, seed=5)
        binomial = model_comparison(s).models[1]
        assert calls == []
        pi = binomial.parameters["pi"]
        assert binomial.predicted_accuracy == binomial_accuracy(9, pi)
        log_prob = pmf(ModelParams(9, pi, 1.0)).log_prob
        counts = np.asarray(s.counts, dtype=float)
        assert binomial.log_likelihood == pytest.approx(
            float((counts * log_prob).sum()), rel=0, abs=1e-12)

    def test_theorem2_corollary_on_grid(self):
        # negative association with psi >= 1/2 forces psi > pi
        for n in (3, 6, 9):
            for psi in (0.5 + 0.1 * k for k in range(1, 5)):
                for omega in (1.2, 1.8):
                    assert psi > marginal_pi(ModelParams(n, psi, omega))


def underdispersed_sample() -> CountSample:
    # omega > 1 at n = 20: the sample variance is 0.36 of the binomial's
    return drawn_sample(ModelParams(20, 0.3, 1.2), 10 ** 5, seed=2718)


def mp_beta_binomial_log_lik(counts, alpha, beta):
    """50-digit log-likelihood from log B(y+alpha, n-y+beta) - log B(alpha, beta)."""
    def betaln(x, y):
        return mp.loggamma(x) + mp.loggamma(y) - mp.loggamma(x + y)

    n = len(counts) - 1
    return mp.fsum(c * (mp.log(mp.binomial(n, y)) + betaln(y + alpha, n - y + beta)
                        - betaln(alpha, beta))
                   for y, c in enumerate(counts) if c)


class TestBetaBinomialFit:
    @pytest.mark.parametrize("alpha, beta", [(1.6e8, 2.2e8), (0.3, 0.7), (0.05, 0.9)])
    def test_rising_factorial_sums_match_mpmath(self, alpha, beta):
        counts = underdispersed_sample().counts
        log_lik, grad, hess = _beta_binomial_log_lik(
            np.asarray(counts, dtype=float), np.log([alpha, beta]))
        with mp.workdps(50):
            def f(u, v):
                return mp_beta_binomial_log_lik(counts, mp.exp(u), mp.exp(v))

            x = (mp.log(alpha), mp.log(beta))
            expect = f(*x)
            expect_grad = [float(mp.diff(f, x, (1, 0))), float(mp.diff(f, x, (0, 1)))]
            expect_hess = np.array([[mp.diff(f, x, (2, 0)), mp.diff(f, x, (1, 1))],
                                    [mp.diff(f, x, (1, 1)), mp.diff(f, x, (0, 2))]],
                                   dtype=float)
        assert log_lik == pytest.approx(float(expect), rel=1e-13)
        np.testing.assert_allclose(grad, expect_grad, rtol=1e-12)
        np.testing.assert_allclose(hess, expect_hess, rtol=0.0,
                                   atol=1e-12 * np.abs(expect_hess).max())

    @pytest.mark.parametrize("n, alpha, beta", [(20, 1.6e8, 2.2e8), (9, 0.3, 0.7),
                                                (200, 2.0, 3.0)])
    def test_accuracy_matches_mpmath(self, n, alpha, beta):
        q = majority_threshold(n)
        with mp.workdps(50):
            a, b = mp.mpf(alpha), mp.mpf(beta)
            expect = mp.fsum(mp.binomial(n, y) * mp.beta(y + a, n - y + b) / mp.beta(a, b)
                             for y in range(q + 1, n + 1))
        assert beta_binomial_accuracy(n, alpha, beta) == pytest.approx(
            float(expect), rel=1e-12)

    # at n = 1 the variance equals the binomial one: the Beta-Binomial is
    # the Bernoulli law and (alpha, beta) is not identifiable
    @pytest.mark.parametrize("s", [underdispersed_sample(), CountSample(n=1, counts=(3, 4))],
                             ids=["n20", "n1"])
    def test_underdispersed_sample_reports_binomial_limit(self, s):
        report = model_comparison(s)
        by_name = {m.name: m for m in report.models}
        bb = by_name["beta-binomial"]
        assert bb.converged is False
        assert bb.log_likelihood == by_name["binomial"].log_likelihood
        assert bb.predicted_accuracy == by_name["binomial"].predicted_accuracy
        assert bb.parameters == {"alpha": math.inf, "beta": math.inf}

    def test_noiseless_recovery(self):
        n, alpha, beta = 9, 2.0, 3.0
        counts = np.round(betabinom.pmf(np.arange(n + 1), n, alpha, beta) * 10 ** 6)
        report = model_comparison(CountSample(n=n, counts=tuple(int(c) for c in counts)))
        bb = report.models[2]
        assert bb.converged is True
        assert bb.parameters["alpha"] == pytest.approx(alpha, rel=1e-3)
        assert bb.parameters["beta"] == pytest.approx(beta, rel=1e-3)

    def test_indefinite_hessian_fit_converges(self):
        # the Hessian is indefinite far from the MLE, and a raw-score
        # step, which grows with the 2e6 observations, stalls short of it
        pairs = [(0, 10 ** 6), (2, 10 ** 6), (11, 3), (14, 3), (17, 1)]
        bb = model_comparison(CountSample.from_pairs(20, pairs)).models[2]
        assert bb.converged is True
        assert bb.log_likelihood >= -2690115.4786
        assert bb.parameters["alpha"] == pytest.approx(6.715026, rel=1e-6)
        assert bb.parameters["beta"] == pytest.approx(127.620392, rel=1e-6)

    def test_no_trial_underflows_a_shape(self, monkeypatch):
        # a fit of two observations: every trial keeps both shapes normal
        # doubles, so the rising sums read no 1/0 and no inf * 0, and no
        # RuntimeWarning is raised on the way
        trials = []

        def recorded(counts, theta):
            trials.append(np.exp(theta))
            return _beta_binomial_log_lik(counts, theta)

        monkeypatch.setattr(lmbd.ensemble, "_beta_binomial_log_lik", recorded)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = model_comparison(CountSample.from_pairs(9, [(7, 1), (9, 1)]))
        assert report.best_aic == "binomial"
        assert report.models[2].converged is True
        assert np.min(trials) >= np.finfo(float).tiny

    def test_accuracy_at_a_subnormal_shape_is_silent(self):
        # -1/alpha^2 overflows in the rising sums' derivative row, which
        # the tail does not read; the value is the cumulative sum of logs
        # alone
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = beta_binomial_accuracy(5, 1e-320, 1.0)
        assert got == float.fromhex("0x0.0000000000631p-1022")

    # a step along a Hessian eigenvalue |lambda| < 1 floored at 1 crawled
    # along a ridge on these samples and stopped at _MAX_STEPS with the
    # log-likelihood in the last column; the MLE is finite and higher
    SMALL_SAMPLES = {
        "n32": (32, {0: 1, 3: 2}, (10.876, 163.19), -5.41954916548616),
        "n47": (47, {45: 1, 47: 1}, (726.53, 15.794), -2.6928274812556765),
    }

    @pytest.mark.parametrize("n, pairs, shapes, stalled", SMALL_SAMPLES.values(),
                             ids=SMALL_SAMPLES)
    def test_small_sample_fit_converges(self, n, pairs, shapes, stalled):
        counts = CountSample.from_pairs(n, pairs.items()).counts
        bb = model_comparison(CountSample(n=n, counts=counts)).models[2]
        assert bb.converged is True
        assert bb.log_likelihood > stalled
        alpha, beta = bb.parameters["alpha"], bb.parameters["beta"]
        assert (alpha, beta) == pytest.approx(shapes, rel=1e-4)
        with mp.workdps(50):
            expect = float(mp_beta_binomial_log_lik(counts, mp.mpf(alpha), mp.mpf(beta)))
        assert bb.log_likelihood == pytest.approx(expect, rel=1e-13)

    def test_small_samples_converge_or_take_a_limit(self):
        # 300 seeded samples of 2 to 11 observations at n = 2 to 50, drawn
        # from Beta-Binomials: each fit either converges or reports one of
        # the two limit laws, never a stalled finite (alpha, beta)
        rng = np.random.default_rng(2024)
        limits = ({"alpha": math.inf, "beta": math.inf}, {"alpha": 0.0, "beta": 0.0})
        stalled = []
        for _ in range(300):
            n, size = int(rng.integers(2, 51)), int(rng.integers(2, 12))
            draws = betabinom.rvs(n, 10 ** rng.uniform(-1, 2), 10 ** rng.uniform(-1, 2),
                                  size=size, random_state=rng)
            s = CountSample(n=n, counts=tuple(int(c) for c in np.bincount(draws, minlength=n + 1)))
            bb = model_comparison(s).models[2]
            if not (bb.converged or bb.parameters in limits):
                stalled.append(s)
        assert stalled == []

    def test_two_point_sample_reaches_empirical_law(self):
        # observed only at 0 and n: alpha, beta -> 0 with their ratio fixed
        # reaches the empirical law, as the lmbd limits on the chord do
        counts = (3, 0, 0, 0, 0, 4)
        report = model_comparison(CountSample(n=5, counts=counts))
        sup = 3 * math.log(3 / 7) + 4 * math.log(4 / 7)
        for m in (report.models[0], report.models[2]):
            assert m.converged is False
            assert m.log_likelihood == pytest.approx(sup, abs=1e-12)
            assert m.predicted_accuracy == report.empirical_accuracy
        assert report.models[2].parameters == {"alpha": 0.0, "beta": 0.0}


def mp_root(score, theta):
    """The root of the score equations by 50-digit Newton from ``theta``,
    and the information there: ``score(x)`` gives (score, information).
    It stops on a decrement g' I^-1 g below 1e-60."""
    with mp.workdps(50):
        x = mp.matrix([mp.mpf(v) for v in theta])
        for _ in range(30):
            g, info = score(x)
            dx = info ** -1 * g
            x += dx
            if (dx.T * g)[0] < mp.mpf(10) ** -60:
                return x, score(x)[1]
    raise AssertionError("50-digit Newton did not converge")


def mp_lmbd_score(n, counts):
    """The lmbd score N (mean T - E[T]) and information N Cov(T) in theta
    = (logit psi, log omega), T = (y, y (n-y)), at 50 digits, with Cov(T)
    about E[T] so that a tiny eigenvalue next to a face keeps its digits."""
    lf = mp_oracle.log_factorials(n)
    stats = [(y, y * (n - y)) for y in range(n + 1)]
    total = sum(counts)
    with mp.workdps(50):
        mean = [mp.fsum(c * t[i] for c, t in zip(counts, stats)) / total for i in (0, 1)]

    def score(x):
        logw = [lf[n] - lf[y] - lf[n - y] + x[0] * t[0] + x[1] * t[1]
                for y, t in enumerate(stats)]
        w = [mp.exp(v - max(logw)) for v in logw]
        p = [v / mp.fsum(w) for v in w]
        e = [mp.fsum(q * t[i] for q, t in zip(p, stats)) for i in (0, 1)]
        dev = [(t[0] - e[0], t[1] - e[1]) for t in stats]
        info = mp.matrix([[total * mp.fsum(q * d[i] * d[j] for q, d in zip(p, dev))
                           for j in (0, 1)] for i in (0, 1)])
        return mp.matrix([total * (mean[0] - e[0]), total * (mean[1] - e[1])]), info
    return score


def mp_beta_binomial_score(counts):
    """The Beta-Binomial score and observed information in theta =
    (log alpha, log beta) at 50 digits, from the rising-factorial sums
    over k < n of C_k / (alpha+k) - N / (alpha+beta+k), C_k counting the
    observations y > k (and n - y > k for beta)."""
    n, total = len(counts) - 1, sum(counts)
    above = [sum(counts[k + 1:]) for k in range(n)]
    below = [sum(counts[:n - k]) for k in range(n)]

    def score(x):
        a, b = mp.exp(x[0]), mp.exp(x[1])
        ga = mp.fsum(above[k] / (a + k) - total / (a + b + k) for k in range(n))
        gb = mp.fsum(below[k] / (b + k) - total / (a + b + k) for k in range(n))
        s2 = mp.fsum(total / (a + b + k) ** 2 for k in range(n))
        haa = s2 - mp.fsum(above[k] / (a + k) ** 2 for k in range(n))
        hbb = s2 - mp.fsum(below[k] / (b + k) ** 2 for k in range(n))
        info = -mp.matrix([[a * a * haa + a * ga, a * b * s2], [a * b * s2, b * b * hbb + b * gb]])
        return mp.matrix([a * ga, b * gb]), info
    return score


def beta_binomial_draws(n, alpha, beta, size):
    draws = betabinom.rvs(n, alpha, beta, size=size, random_state=np.random.default_rng(7))
    return CountSample(n=n, counts=tuple(int(c) for c in np.bincount(draws, minlength=n + 1)))


class TestMleOracle:
    # the fitted parameters against a 50-digit Newton root theta* of the
    # score equations, in the metric of the inverse information: the
    # error e = theta-hat - theta* read as sqrt(e' I e), in standard
    # errors.  The worst, 1.4e-11, is at theta_1 = 131.9, where each
    # log-weight near y = n sums terms of some 260 and rounds at up to 3e-14
    BOUND = 1e-10
    PAIRS = {**{f"near-chord-{name}": v for name, v in TestFitMle.NEAR_CHORD.items()},
             "near-edge-4-5": (10, {4: 300, 5: 200, 9: 1}),
             "psi-hat-rounds-to-one": TestFitMle.THETA_SAMPLES["psi-hat-rounds-to-one"]}
    LMBD = {
        "n5": drawn_sample(ModelParams(5, 0.3, 1.4), 500, seed=1),
        "n20": drawn_sample(ModelParams(20, 0.6, 0.97), 2000, seed=2),
        "n53": drawn_sample(ModelParams(53, 0.45, 0.995), 3000, seed=3),
        **{name: CountSample.from_pairs(n, pairs.items()) for name, (n, pairs) in PAIRS.items()},
    }
    # with alpha + beta = 134 the shapes' score is a sum of terms that
    # cancel at the MLE, where a score summed as two count-weighted sums
    # would lose digits
    BETA_BINOMIAL = {
        "n9": beta_binomial_draws(9, 2.0, 3.0, 2000),
        "n5": beta_binomial_draws(5, 0.5, 0.8, 300),
        "large-shapes": beta_binomial_draws(20, 6.7, 127.6, 5000),
    }

    def assert_near_root(self, score, theta):
        root, info = mp_root(score, theta)
        with mp.workdps(50):
            e = mp.matrix([mp.mpf(v) for v in theta]) - root
            assert float(mp.sqrt((e.T * info * e)[0])) <= self.BOUND

    @pytest.mark.parametrize("s", LMBD.values(), ids=LMBD)
    def test_lmbd_fit_is_the_mle(self, s):
        fit = fit_mle(s)
        assert fit.converged
        self.assert_near_root(mp_lmbd_score(s.n, s.counts), fit.theta_hat)

    @pytest.mark.parametrize("s", BETA_BINOMIAL.values(), ids=BETA_BINOMIAL)
    def test_beta_binomial_fit_is_the_mle(self, s):
        bb = model_comparison(s).models[2]
        assert bb.converged
        theta = [math.log(bb.parameters["alpha"]), math.log(bb.parameters["beta"])]
        self.assert_near_root(mp_beta_binomial_score(s.counts), theta)


def _separable(f):
    """Derivs of f(x) - y^2 / 2 at theta = (x, y), from f's (value, slope,
    curvature) at x: the second coordinate is concave with its maximum
    at y = 0, which it keeps from a start there."""
    def derivs(theta):
        x, y = theta
        value, slope, curvature = f(x)
        return value - 0.5 * y * y, np.array([slope, -y]), np.diag([curvature, -1.0])
    return derivs


# x on the line: curvature 0, so the Hessian is never negative definite
_linear_derivs = _separable(lambda x: (float(x), 1.0, 0.0))


class TestNewtonAscent:
    def test_unbounded_objective_stops_after_max_steps(self):
        # every gradient step gains 1: no maximizer, so no convergence
        theta, value, _, steps, converged = _newton_ascent(_linear_derivs, np.zeros(2), 1.0)
        assert (steps, converged) == (_MAX_STEPS, False)
        assert theta[0] == value == _MAX_STEPS and theta[1] == 0.0

    def test_no_ascent_leaves_the_start(self):
        # the log-likelihood is NaN past x = 0, so every trial fails, each
        # within a halved radius, and after _MAX_STEPS trials the start
        # comes back unconverged
        def derivs(theta):
            value, grad, hess = _linear_derivs(theta)
            return (value if theta[0] <= 0.0 else math.nan), grad, hess

        theta, value, _, steps, converged = _newton_ascent(derivs, np.zeros(2), 1.0)
        assert (steps, converged) == (_MAX_STEPS, False)
        assert theta.tolist() == [0.0, 0.0] and value == 0.0

    def test_zero_step_at_a_saddle(self):
        # the gradient of x^2 - y^2 is exactly 0 at its saddle: a step of
        # length 0, which no radius clips, so the ascent stays there
        def derivs(theta):
            x, y = theta
            return x * x - y * y, np.array([2.0 * x, -2.0 * y]), np.diag([2.0, -2.0])

        theta, value, _, steps, converged = _newton_ascent(derivs, np.zeros(2), 1.0)
        assert (steps, converged) == (_MAX_STEPS, False)
        assert theta.tolist() == [0.0, 0.0] and value == 0.0

    def test_gradient_step_leaves_a_convex_start(self):
        # sin is convex at -1, where the curvature -sin(-1) > 0 sends the
        # ascent along the gradient; Newton then takes it to pi/2
        derivs = _separable(lambda x: (math.sin(x), math.cos(x), -math.sin(x)))
        theta, value, _, steps, converged = _newton_ascent(derivs, np.array([-1.0, 0.0]), 1.0)
        assert converged is True and steps < _MAX_STEPS
        assert theta[0] == pytest.approx(math.pi / 2, abs=1e-8) and theta[1] == 0.0
        assert value == pytest.approx(1.0, abs=1e-15)

    @pytest.mark.parametrize("scale", [1.0, 0.1, 0.01])
    def test_step_does_not_depend_on_the_objective_scale(self, scale):
        # the saddle-free step divides by |lambda| alone, so scaling the
        # objective leaves every step, and their count, as it is
        derivs = _separable(lambda x: (scale * math.sin(x), scale * math.cos(x),
                                       -scale * math.sin(x)))
        theta, value, _, steps, converged = _newton_ascent(derivs, np.array([-1.0, 0.0]), 1.0)
        assert (steps, converged) == (6, True)
        assert theta[0] == pytest.approx(math.pi / 2, abs=1e-8) and theta[1] == 0.0
        assert value == pytest.approx(scale, rel=1e-15)

    def test_saddle_free_step_leaves_a_saddle(self):
        # 10 (sin x + sin y) at (-1, 1): -H = diag(-10 sin 1, 10 sin 1) is
        # indefinite with |lambda| > 1; the step climbs along both axes
        def derivs(theta):
            x, y = theta
            return (10.0 * (math.sin(x) + math.sin(y)),
                    10.0 * np.array([math.cos(x), math.cos(y)]),
                    np.diag([-10.0 * math.sin(x), -10.0 * math.sin(y)]))

        theta, value, _, steps, converged = _newton_ascent(derivs, np.array([-1.0, 1.0]), 1.0)
        assert converged is True and steps < _MAX_STEPS
        np.testing.assert_allclose(theta, [math.pi / 2, math.pi / 2], atol=1e-8)
        assert value == pytest.approx(20.0, abs=1e-13)
