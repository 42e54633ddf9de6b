import ast
import math
import random
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import binom, chi2

import lmbd

from lmbd import (
    EnsembleSpec,
    ModelParams,
    binomial_accuracy,
    cdf,
    conditional_cpr,
    ensemble_accuracy,
    joint_log_prob,
    log_k,
    marginal_pi,
    moments,
    pmf,
    sample,
    tau,
)

from enumeration_oracle import enumerate_pmf_oracle

# absolute tolerance for identities checked in the log domain
LOG_TOL = 1e-12

# relative tolerance for ratios of exponentiated quantities
RATIO_TOL = 1e-10

# significance level of the samplers' goodness-of-fit tests: a correct
# sampler fails one of them with probability 1e-6
GOF_ALPHA = 1e-6

GRID = [
    (n, psi, omega)
    for n in (2, 3, 5, 8, 12)
    for psi in (0.1, 0.5, 0.9)
    for omega in (0.25, 1.0, 4.0)
]


# the case grid of the one log K_n path: n on both sides of the kernel
# row cache's cap (4096), psi and omega at and next to their edges
LOG_K_NS = (1, 2, 7, 64, 65, 400, 5000)
LOG_K_CASES = [
    (psi, omega)
    for psi in (0.0, 1e-300, 1e-6, 0.3, 0.5, 1 - 1e-6, 1.0)
    for omega in (1e-8, 0.2, 1.0, 1 + 1e-9, 1.5, 1e8)
]


class TestLogK:
    @pytest.mark.parametrize("n", LOG_K_NS)
    def test_a_zero_is_the_pmf_normalizer(self, n):
        for psi, omega in LOG_K_CASES:
            assert log_k(n, 0, psi, omega) == pmf(ModelParams(n, psi, omega)).log_normalizer

    @pytest.mark.parametrize("n", LOG_K_NS)
    def test_a_adds_log_tau_a(self, n):
        eps = np.finfo(float).eps
        for psi, omega in LOG_K_CASES:
            log_kn = log_k(n, 0, psi, omega)
            for a in sorted({1, 2, n // 2, n} & set(range(1, n + 1))):
                t = tau(a, ModelParams(n, psi, omega))
                if not 0.0 < t < math.inf:
                    continue
                got, expect = log_k(n, a, psi, omega) - log_kn, math.log(t)
                # the sum, the difference and exp then log each round once
                tol = 4 * eps * (abs(log_kn) + abs(got) + abs(expect) + 1.0)
                assert got == pytest.approx(expect, rel=0, abs=tol), (psi, omega, a)

    def test_omega_one_reduces_to_binomial_theorem(self):
        for n in (1, 3, 7, 20):
            for a in (0, 1, n):
                assert log_k(n, a, 0.37, 1.0) == pytest.approx(0.0, abs=LOG_TOL)

    def test_hand_evaluated_k2(self):
        # K_2(0.5, 2) = 0.25 + 2*0.25*2 + 0.25 = 1.5
        assert math.exp(log_k(2, 0, 0.5, 2.0)) == pytest.approx(1.5, abs=1e-14)

    def test_hand_evaluated_k1(self):
        # K_1(0.5, 2) = (1-psi)*omega + psi = 1.5
        assert math.exp(log_k(2, 1, 0.5, 2.0)) == pytest.approx(1.5, abs=1e-14)

    def test_k0_is_one(self):
        assert log_k(4, 4, 0.3, 1.7) == pytest.approx(0.0, abs=LOG_TOL)

    def test_psi_edges_exact(self):
        # 0 * log 0 convention: the surviving single term is exact
        assert log_k(5, 0, 0.0, 3.0) == pytest.approx(0.0, abs=LOG_TOL)
        assert log_k(5, 0, 1.0, 3.0) == pytest.approx(0.0, abs=LOG_TOL)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            log_k(3, 4, 0.5, 1.0)
        with pytest.raises(ValueError):
            log_k(3, 0, 1.5, 1.0)
        with pytest.raises(ValueError):
            log_k(3, 0, 0.5, 0.0)
        with pytest.raises(ValueError):
            log_k(0, 0, 0.5, 1.0)
        with pytest.raises(ValueError, match="integer"):
            log_k(2.5, 0, 0.5, 1.0)


class TestTau:
    def test_omega_one_gives_unity(self):
        for n in (1, 4, 9):
            for r in range(1, n + 1):
                assert tau(r, ModelParams(n, 0.42, 1.0)) == pytest.approx(1.0, abs=LOG_TOL)

    def test_hand_value_n2(self):
        assert tau(1, ModelParams(2, 0.5, 2.0)) == pytest.approx(1.0, abs=1e-14)

    def test_large_omega_odd_limit(self):
        # odd-n omega->inf limit ((n-1)/2 + psi) / (n psi)
        got = tau(1, ModelParams(5, 0.3, 1e6))
        assert got == pytest.approx((2 + 0.3) / (5 * 0.3), rel=1e-3)

    def test_beyond_the_double_range_is_inf(self):
        # tau_n = 1 / K_n, about 2^1999 here
        assert tau(2000, ModelParams(2000, 0.5, 0.2)) == math.inf

    @pytest.mark.parametrize("n,r,omega", [(5, 1, 3.0), (64, 2, 0.5), (64, 64, 7.0)])
    def test_psi_zero_closed_form(self, n, r, omega):
        assert tau(r, ModelParams(n, 0.0, omega)) == pytest.approx(
            omega ** (r * (n - r)), rel=1e-13)

    def test_r_out_of_range(self):
        with pytest.raises(ValueError):
            tau(0, ModelParams(3, 0.5, 1.0))
        with pytest.raises(ValueError):
            tau(4, ModelParams(3, 0.5, 1.0))

    def test_one_log_factorial_row_per_n(self, monkeypatch):
        # tau_r for r > 2 reads log[(y)_r / (n)_r] off one cached row
        # pair per n, split in a unit that depends on n alone: 50 values
        # of r at n = 2000 build it once, and tau_r at n = 64 reads the
        # same bits whether or not n = 2000 was read first
        real = lmbd.core._log_factorials.__wrapped__
        builds = []

        def fresh_cache():
            monkeypatch.setattr(lmbd.core, "_log_factorials",
                                lmbd.core._row_cache(lambda n: builds.append(n) or real(n)))

        small, large = ModelParams(64, 0.3, 1.5), ModelParams(2000, 0.3, 1.001)
        fresh_cache()
        alone = [tau(r, small) for r in range(3, 64)]
        fresh_cache()
        for r in range(3, 2000, 40):
            tau(r, large)
        assert builds == [64, 2000]
        assert [tau(r, small) for r in range(3, 64)] == alone
        assert builds == [64, 2000, 64]


class TestPmf:
    def test_binomial_reduction(self):
        table = pmf(ModelParams(3, 0.6, 1.0))
        np.testing.assert_allclose(
            table.probs(), [0.064, 0.288, 0.432, 0.216], atol=LOG_TOL)

    def test_hand_value_n2(self):
        table = pmf(ModelParams(2, 0.5, 2.0))
        np.testing.assert_allclose(
            table.probs(), [1 / 6, 2 / 3, 1 / 6], atol=LOG_TOL)

    def test_matches_enumeration(self):
        p = ModelParams(12, 0.4, 0.7)
        np.testing.assert_allclose(
            pmf(p).probs(), enumerate_pmf_oracle(p).probs(), atol=LOG_TOL)

    @pytest.mark.parametrize("n,psi,omega", GRID)
    def test_normalization(self, n, psi, omega):
        assert pmf(ModelParams(n, psi, omega)).probs().sum() == pytest.approx(
            1.0, abs=LOG_TOL)

    def test_psi_edges_are_point_masses(self):
        t0 = pmf(ModelParams(6, 0.0, 2.0))
        assert t0.probs()[0] == 1.0 and t0.probs()[1:].sum() == 0.0
        t1 = pmf(ModelParams(6, 1.0, 2.0))
        assert t1.probs()[6] == 1.0 and t1.probs()[:6].sum() == 0.0

    @pytest.mark.parametrize("n,psi,omega", GRID)
    def test_reflection_symmetry(self, n, psi, omega):
        left = pmf(ModelParams(n, psi, omega)).probs()
        right = pmf(ModelParams(n, 1.0 - psi, omega)).probs()[::-1]
        np.testing.assert_allclose(left, right, atol=LOG_TOL)

    def test_no_overflow_at_scale(self):
        for omega in (0.5, 2.0):
            table = pmf(ModelParams(500, 0.5, omega))
            assert np.isfinite(table.log_normalizer)
            assert table.probs().sum() == pytest.approx(1.0, abs=LOG_TOL)

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(1, 30),
        psi=st.floats(0.001, 0.999),
        omega=st.floats(0.05, 20.0),
    )
    def test_normalization_property(self, n, psi, omega):
        table = pmf(ModelParams(n, psi, omega))
        assert abs(table.probs().sum() - 1.0) < LOG_TOL


class TestCdf:
    def test_full_support_is_one(self):
        assert cdf(ModelParams(7, 0.3, 1.4), 7) == pytest.approx(1.0, abs=LOG_TOL)

    def test_hand_value_n2(self):
        assert cdf(ModelParams(2, 0.5, 2.0), 1) == pytest.approx(5 / 6, abs=LOG_TOL)

    def test_binomial_value(self):
        assert cdf(ModelParams(3, 0.6, 1.0), 1) == pytest.approx(0.352, abs=LOG_TOL)

    def test_y_outside_the_support_raises(self):
        for y in (-1, 4):
            with pytest.raises(ValueError, match=r"y must lie in \[0, 3\]"):
                cdf(ModelParams(3, 0.5, 1.0), y)

    def test_monotone_in_y(self):
        p = ModelParams(9, 0.4, 1.6)
        vals = [cdf(p, y) for y in range(10)]
        assert all(b >= a for a, b in zip(vals, vals[1:]))


# n even and odd, small and large; psi and omega at and next to their edges
READER_CELLS = [
    (n, psi, omega)
    for n in (1, 2, 5, 64, 65, 2000)
    for psi in (0.0, 1e-9, 0.3, 0.5, 1 - 1e-9, 1.0)
    for omega in (1e-8, 0.5, 1 - 1e-10, 1.0, 1 + 1e-10, 2.0, 1e8)
]


def _calls_to(monkeypatch, name: str) -> list:
    """The argument tuples of the calls to ``lmbd.core.<name>`` from here
    on in the test."""
    calls = []
    real = getattr(lmbd.core, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(lmbd.core, name, counted)
    return calls


def kernel_share(row: np.ndarray, part: slice) -> float:
    """The probability of the support's slice ``part`` off a kernel row,
    recomputed here: with e = exp(max(row, -700)) and T = sum e, the
    ratio sum e[part] / T, capped at 1, or, where sum e[part] falls below
    e^-600 T, exp of the row's log-sum-exp over ``part`` less log T."""
    e = np.exp(np.maximum(row, -700.0))
    total = float(np.add.reduce(e))
    mass = float(np.add.reduce(e[part]))
    if mass >= math.exp(-600.0) * total:
        return min(1.0, mass / total)
    return math.exp(lmbd.core._logsumexp(row[part] - float(np.log(total))))


def _row(n: int, psi: float, omega: float) -> np.ndarray:
    return lmbd.core._kernel(n, lmbd.core._logit(psi), math.log(omega))[1]


class TestSinglePointReaders:
    """joint_log_prob and sample read the kernel row less its log-sum and
    equal what they read off ``pmf``'s table, bit for bit; cdf and the
    two majority tails are ratios of sums of the row's exponentials."""

    @pytest.mark.parametrize("n,psi,omega", READER_CELLS)
    def test_equal_the_pmf_table_bit_for_bit(self, n, psi, omega):
        p = ModelParams(n, psi, omega)
        table = pmf(p)
        log_prob = table.log_prob
        row = _row(n, psi, omega)
        if psi in (0.0, 1.0):  # a point mass; at psi = 1 the slice below n is all -inf
            assert cdf(p, n - 1) == (1.0 if psi == 0.0 else 0.0)
        for y in (0, n // 2, n):
            assert cdf(p, y) == kernel_share(row, slice(y + 1)), y
            bits = [1] * y + [0] * (n - y)
            assert joint_log_prob(p, bits) == log_prob[y] - lmbd.core._kernel_row(n)[2][y], y
        tail = slice(n // 2 + 1, None)
        assert ensemble_accuracy(EnsembleSpec(n, p)) == kernel_share(row, tail)
        assert binomial_accuracy(n, psi) == kernel_share(_row(n, psi, 1.0), tail)
        seed = n + 7
        cum = np.cumsum(table.probs())
        cum[-1] = 1.0
        words = np.frombuffer(random.Random(seed).randbytes(8 * 1000), "<u8")
        u = (words >> 11) * 2.0 ** -53
        assert np.array_equal(sample(p, 1000, seed), np.searchsorted(cum, u, side="right"))

    @pytest.mark.parametrize("n,psi,omega", READER_CELLS)
    def test_cdf_at_n_is_one(self, n, psi, omega):
        # the whole row's exponentials over their own total
        assert cdf(ModelParams(n, psi, omega), n) == 1.0

    @pytest.mark.parametrize("n,psi,omega", READER_CELLS)
    def test_moments_tau1_is_theorem2s(self, n, psi, omega):
        # one definition of tau_1, tau_2 and pi, bit for bit; at n = 2,
        # tau(2, .) is 1 / K_2, read through log K_2
        p = ModelParams(n, psi, omega)
        ms = moments(p)
        report = lmbd.theorem2_check(p)
        assert tau(1, p) == ms.tau1 == report.tau1
        if n >= 3:
            assert tau(2, p) == ms.tau2
        assert marginal_pi(p) == report.pi == ms.pi

    @pytest.mark.parametrize("n,psi,omega", [cell for cell in READER_CELLS if cell[0] == 1])
    def test_n_one_reads_bernoulli_exactly(self, n, psi, omega):
        # K_0 = K_1 = 1: the law is Bernoulli(psi) whatever omega is
        p = ModelParams(n, psi, omega)
        ms = moments(p)
        report = lmbd.theorem2_check(p)
        assert tau(1, p) == ms.tau1 == report.tau1 == 1.0
        assert marginal_pi(p) == ms.mean == ms.pi == report.pi == psi
        assert ms.variance == psi * (1.0 - psi)
        assert ms.eta == 1.0 - psi
        assert log_k(1, 0, psi, omega) == pmf(p).log_normalizer == 0.0

    @pytest.mark.parametrize("n,psi,omega", [(5, 0.3, 2.0), (64, 0.5, 1.0), (2000, 1e-9, 0.5)])
    def test_no_log_k_n_beside_the_row(self, n, psi, omega, monkeypatch):
        calls = _calls_to(monkeypatch, "_log_kn")
        p = ModelParams(n, psi, omega)
        cdf(p, n // 2)
        ensemble_accuracy(EnsembleSpec(n, p))
        binomial_accuracy(n, psi)
        sample(p, 5, 0)
        joint_log_prob(p, [1] * (n // 2) + [0] * (n - n // 2))
        if moments(p).variance > 0.0:
            lmbd.clt_scan([n], psi, omega)
        else:  # refused once the table is read
            with pytest.raises(ValueError, match="degenerate variance"):
                lmbd.clt_scan([n], psi, omega)
        assert calls == []
        pmf(p)
        assert len(calls) == 1

    @pytest.mark.parametrize("n,psi,omega", [(5, 0.3, 2.0), (64, 0.5, 1.0), (65, 0.7, 0.9),
                                             (2000, 0.3, 1.5)])
    def test_sums_above_the_floor_take_no_log_sum_exp(self, n, psi, omega, monkeypatch):
        # at interior cells a cdf, a majority tail and tau_r's moment
        # reach core._SUM_FLOOR and are summed as they stand
        calls = _calls_to(monkeypatch, "_logsumexp")
        p = ModelParams(n, psi, omega)
        for y in (n // 2, n):
            cdf(p, y)
        ensemble_accuracy(EnsembleSpec(n, p))
        binomial_accuracy(n, psi)
        marginal_pi(p)
        lmbd.theorem2_check(p)
        moments(p)
        for r in (1, 2, 3):
            tau(r, p)
        for a in (1, 2):
            log_k(n, a, psi, omega)
        assert calls == []

    @pytest.mark.parametrize("n,psi,omega", [(5, 0.3, 2.0), (64, 0.5, 1.0), (65, 0.7, 0.9),
                                             (2000, 0.3, 1.5)])
    def test_no_reader_exponentiates_a_kernel_row_twice(self, n, psi, omega, monkeypatch):
        # at interior cells moments, the KS distance, sample and each fit
        # step read p = e / T off the kernel's own exponentials e: the one
        # exponential of an (n+1)-long array per call is the kernel's
        p = ModelParams(n, psi, omega)
        kernels, rows = [], []
        kernel, exp = lmbd.core._kernel, np.exp

        def counted_kernel(*args):
            kernels.append(args)
            return kernel(*args)

        def counted_exp(x, *args, **kwargs):
            if np.ndim(x) == 1 and len(x) == n + 1:
                rows.append(x)
            return exp(x, *args, **kwargs)

        for module in (lmbd.core, lmbd.gauss, lmbd.ensemble):
            monkeypatch.setattr(module, "_kernel", counted_kernel)
        monkeypatch.setattr(np, "exp", counted_exp)
        moments(p)
        lmbd.standardized_ks_distance(p)
        draws = np.bincount(sample(p, 400, n), minlength=n + 1)
        assert len(kernels) == len(rows) == 3
        lmbd.fit_mle(lmbd.CountSample(n, tuple(draws.tolist())))
        assert len(kernels) > 3 and len(rows) == len(kernels)

    @pytest.mark.parametrize("read", [lambda: tau(1, ModelParams(2000, 0.3, 1e-8)),
                                      lambda: cdf(ModelParams(2000, 0.3, 1e8), 0)],
                             ids=["tau1", "cdf"])
    def test_a_sum_below_the_floor_is_read_by_log_sum_exp(self, read, monkeypatch):
        # E[Y] / n ~ e^-1695 and P(Y = 0) ~ e^-(1e3 n): both underflow
        calls = _calls_to(monkeypatch, "_logsumexp")
        assert read() == 0.0
        assert len(calls) == 1

    @pytest.mark.parametrize("read", [marginal_pi, lambda p: lmbd.theorem2_check(p).pi,
                                      lambda p: moments(p).tau1],
                             ids=["marginal_pi", "theorem2_check", "moments"])
    def test_a_pi_below_the_floor_reads_the_same_row(self, read, monkeypatch):
        # E[Y] / n ~ e^-645 falls below the floor and is read again off
        # the row already built
        calls = _calls_to(monkeypatch, "_kernel")
        blocks = _calls_to(monkeypatch, "_log_weights")
        # factorization's names for the kernels count too
        monkeypatch.setattr(lmbd.factorization, "_kernel", lmbd.core._kernel)
        monkeypatch.setattr(lmbd.factorization, "_log_weights", lmbd.core._log_weights)
        assert read(ModelParams(2000, 0.42, 1e-8)) > 0.0
        assert len(calls) == 1 and blocks == []


class TestMoments:
    def test_independence_closed_form(self):
        ms = moments(ModelParams(8, 0.3, 1.0))
        assert ms.mean == pytest.approx(8 * 0.3, rel=RATIO_TOL)
        assert ms.variance == pytest.approx(8 * 0.3 * 0.7, rel=RATIO_TOL)

    def test_symmetric_mean(self):
        assert moments(ModelParams(2, 0.5, 2.0)).mean == pytest.approx(1.0, abs=1e-14)

    def test_against_enumeration(self):
        p = ModelParams(9, 0.35, 1.8)
        probs = enumerate_pmf_oracle(p).probs()
        y = np.arange(10)
        mean = float((y * probs).sum())
        var = float(((y - mean) ** 2 * probs).sum())
        ms = moments(p)
        assert ms.mean == pytest.approx(mean, rel=1e-10)
        assert ms.variance == pytest.approx(var, rel=1e-10)

    @pytest.mark.parametrize("n,psi,omega", GRID)
    def test_formula_matches_raw_pmf(self, n, psi, omega):
        p = ModelParams(n, psi, omega)
        probs = pmf(p).probs()
        y = np.arange(n + 1)
        mean = float((y * probs).sum())
        var = float(((y - mean) ** 2 * probs).sum())
        ms = moments(p)
        assert ms.mean == pytest.approx(mean, rel=1e-10, abs=1e-12)
        assert ms.variance == pytest.approx(var, rel=1e-10, abs=1e-12)

    def test_psi_edges(self):
        assert moments(ModelParams(4, 0.0, 1.3)).mean == 0.0
        assert moments(ModelParams(4, 0.0, 1.3)).variance == 0.0
        assert moments(ModelParams(4, 1.0, 1.3)).mean == pytest.approx(4.0, abs=1e-12)
        assert moments(ModelParams(4, 1.0, 1.3)).variance == pytest.approx(0.0, abs=1e-12)

    def test_psi_zero_with_tau_beyond_the_double_range(self):
        # tau_1 = omega^(n-1) = 1e504 overflows; the point mass at 0 keeps
        # its mean, variance and marginal
        ms = moments(ModelParams(64, 0.0, 1e8))
        assert ms.tau1 == ms.tau2 == ms.eta == math.inf
        assert (ms.mean, ms.variance, ms.pi) == (0.0, 0.0, 0.0)

    def test_n1_has_no_tau2(self):
        ms = moments(ModelParams(1, 0.4, 2.0))
        assert math.isnan(ms.tau2)
        assert ms.mean == pytest.approx(0.4, abs=1e-12)
        assert ms.variance == pytest.approx(0.24, abs=1e-12)


class TestMarginalPi:
    def test_independence(self):
        assert marginal_pi(ModelParams(5, 0.7, 1.0)) == pytest.approx(0.7, abs=LOG_TOL)

    def test_symmetry_forces_half(self):
        assert marginal_pi(ModelParams(2, 0.5, 2.0)) == pytest.approx(0.5, abs=LOG_TOL)

    def test_against_joint_enumeration(self):
        # P(Z_1 = 1) summed over all 2^6 configurations with first bit set
        p = ModelParams(6, 0.7, 1.5)
        total = 0.0
        for code in range(2 ** 6):
            bits = [(code >> k) & 1 for k in range(6)]
            if bits[0] == 1:
                total += math.exp(joint_log_prob(p, bits))
        assert marginal_pi(p) == pytest.approx(total, abs=1e-12)

    def test_finite_where_tau1_overflows(self):
        # psi = 1e-310 is subnormal and tau_1 = inf, yet pi = mean / n
        p = ModelParams(64, 1e-310, 1e8)
        assert tau(1, p) == math.inf
        expect = moments(p).pi
        assert marginal_pi(p) == pytest.approx(expect, rel=1e-12, abs=0)
        assert lmbd.theorem2_check(p).pi == pytest.approx(expect, rel=1e-12, abs=0)

    @pytest.mark.parametrize("n,psi,omega", GRID)
    def test_equals_mean_over_n(self, n, psi, omega):
        p = ModelParams(n, psi, omega)
        assert marginal_pi(p) == pytest.approx(moments(p).mean / n, abs=LOG_TOL)

    @pytest.mark.parametrize("n,omega,tau1", [(5, 3.0, 81.0), (64, 0.5, 0.5 ** 63),
                                              (100, 1e-8, 0.0), (100, 1e8, math.inf)])
    def test_psi_zero_is_exactly_zero(self, n, omega, tau1):
        # tau_1 = omega^(n-1) at psi = 0, below the double range and
        # beyond it at the last two cells; pi = psi tau_1 is 0 all the same
        p = ModelParams(n, 0.0, omega)
        assert marginal_pi(p) == 0.0
        report = lmbd.theorem2_check(p)
        assert report.pi == 0.0
        assert report.tau1 == pytest.approx(tau1, rel=1e-13, abs=0)
        assert report.relation == "="


class TestJointLogProb:
    def test_independence_product(self):
        p = ModelParams(4, 0.3, 1.0)
        bits = [1, 0, 1, 1]
        expect = 3 * math.log(0.3) + math.log(0.7)
        assert joint_log_prob(p, bits) == pytest.approx(expect, abs=1e-12)

    def test_hand_value_n2(self):
        assert joint_log_prob(ModelParams(2, 0.5, 2.0), [1, 0]) == pytest.approx(
            math.log(1 / 3), abs=1e-12)

    def test_sums_to_one_over_all_vectors(self):
        p = ModelParams(10, 0.35, 1.4)
        total = 0.0
        for code in range(2 ** 10):
            bits = [(code >> k) & 1 for k in range(10)]
            total += math.exp(joint_log_prob(p, bits))
        assert total == pytest.approx(1.0, abs=LOG_TOL)

    def test_exchangeability(self):
        p = ModelParams(5, 0.6, 0.8)
        assert joint_log_prob(p, [1, 1, 0, 0, 0]) == joint_log_prob(p, [0, 0, 1, 0, 1])

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            joint_log_prob(ModelParams(3, 0.5, 1.0), [1, 0])

    def test_a_non_binary_bit_raises(self):
        with pytest.raises(ValueError, match="0/1"):
            joint_log_prob(ModelParams(3, 0.5, 1.0), [1, 2, 0])

    def test_bits_as_list_tuple_or_array(self):
        p = ModelParams(3, 0.5, 1.2)
        lp = joint_log_prob(p, [1, 0, 1])
        assert lp == joint_log_prob(p, (1, 0, 1))
        assert lp == joint_log_prob(p, np.array([1, 0, 1]))

    @pytest.mark.parametrize("bits", [
        [1, 0, 1], [True, False, True], [1.0, 0.0, 1.0], [1.0, -0.0, 1],
        np.array([1, 0, 1], np.uint8), np.array([True, False, True]),
        np.array([1.0, 0.0, 1.0], np.float32), [np.int64(1), np.float64(0.0), np.True_],
    ], ids=["ints", "bools", "floats", "negative-zero", "uint8", "bool-array", "float32",
            "numpy-scalars"])
    def test_accepted_bits(self, bits):
        p = ModelParams(3, 0.4, 1.3)
        assert joint_log_prob(p, bits) == joint_log_prob(p, (1, 0, 1))

    @pytest.mark.parametrize("bits, message", [
        ([1, 0, 2], "bits must be 0/1 valued"),
        ([1, 0, -1], "bits must be 0/1 valued"),
        ([0.5, 0, 1], "bits must be 0/1 valued"),
        ([math.nan, 0, 1], "bits must be 0/1 valued"),
        ([math.inf, 0, 1], "bits must be 0/1 valued"),
        (["1", "0", "1"], "bits must be 0/1 valued"),
        ([None, 0, 1], "bits must be 0/1 valued"),
        ([1, 0], "bits must have length n=3, got shape (2,)"),
        ([1, 0, 1, 1], "bits must have length n=3, got shape (4,)"),
        ([[1, 0, 1]], "bits must have length n=3, got shape (1, 3)"),
        (1, "bits must have length n=3, got shape ()"),
        ("101", "bits must have length n=3, got shape ()"),
        ([1 + 0j, 0, 1], "bits must be 0/1 valued"),
    ])
    def test_rejected_bits(self, bits, message):
        with pytest.raises(ValueError) as info:
            joint_log_prob(ModelParams(3, 0.4, 1.3), bits)
        assert str(info.value) == message


@pytest.mark.parametrize("omega", [0.0, -1.0, math.inf, -math.inf, math.nan])
def test_omega_must_be_positive_and_finite(omega):
    with pytest.raises(ValueError, match="omega"):
        ModelParams(5, 0.3, omega)
    with pytest.raises(ValueError, match="omega"):
        log_k(5, 0, 0.3, omega)


class TestConditionalCpr:
    def test_independence(self):
        assert conditional_cpr(ModelParams(4, 0.3, 1.0)) == pytest.approx(
            1.0, rel=RATIO_TOL)

    def test_hand_value_n2(self):
        assert conditional_cpr(ModelParams(2, 0.5, 2.0)) == pytest.approx(
            0.25, rel=RATIO_TOL)

    @pytest.mark.parametrize("n", range(2, 11))
    @pytest.mark.parametrize("psi", [0.2, 0.5, 0.8])
    @pytest.mark.parametrize("omega", [0.4, 1.0, 2.5])
    def test_omega_recovery(self, n, psi, omega):
        cpr = conditional_cpr(ModelParams(n, psi, omega))
        assert 1.0 / math.sqrt(cpr) == pytest.approx(omega, rel=RATIO_TOL)

    def test_configuration_independence(self):
        # conditioning configuration of the other trials does not matter
        p = ModelParams(5, 0.4, 1.7)
        base = None
        for rest in ([0, 0, 0], [1, 0, 0], [1, 1, 0], [1, 1, 1]):
            lp = {
                pair: joint_log_prob(p, list(pair) + rest)
                for pair in ((1, 1), (0, 0), (1, 0), (0, 1))
            }
            cpr = math.exp(lp[(1, 1)] + lp[(0, 0)] - lp[(1, 0)] - lp[(0, 1)])
            if base is None:
                base = cpr
            assert cpr == pytest.approx(base, rel=1e-12)

    def test_n1_rejected(self):
        with pytest.raises(ValueError, match=r"n must be >= 2, got 1"):
            conditional_cpr(ModelParams(1, 0.5, 1.0))

    @pytest.mark.parametrize("psi", [0.0, 1.0])
    def test_psi_edge_rejected(self, psi):
        with pytest.raises(ValueError, match=rf"psi must lie in \(0, 1\), got {psi}"):
            conditional_cpr(ModelParams(4, psi, 1.5))

    def test_tiny_omega_is_omega_to_the_minus_two(self):
        assert conditional_cpr(ModelParams(5, 0.3, 1e-100)) == pytest.approx(1e200, rel=1e-12)

    def test_beyond_the_double_range_is_inf(self):
        # omega^-2 = 1e400
        assert conditional_cpr(ModelParams(5, 0.3, 1e-200)) == math.inf

    @pytest.mark.parametrize("n", [2, 64, 2000])
    @pytest.mark.parametrize("psi", [0.3, 0.5])
    @pytest.mark.parametrize("omega", [1e-8, 0.2, 1.0, 1.5, 1e8])
    def test_closed_form_omega_to_the_minus_two(self, n, psi, omega):
        # psi and n cancel: (s+2)(n-s-2) + s(n-s) - 2(s+1)(n-s-1) = -2
        with mp.workdps(50):
            exact = 1 / mp.mpf(omega) ** 2
            got = conditional_cpr(ModelParams(n, psi, omega))
            assert float(abs(mp.mpf(got) - exact) / exact) <= 1e-14
        assert conditional_cpr(ModelParams(n, psi, 1e-200)) == math.inf


class TestSample:
    def test_psi_zero_all_zero(self):
        draws = sample(ModelParams(4, 0.0, 1.5), 1000, seed=7)
        assert (draws == 0).all()

    @pytest.mark.parametrize("n", [4, 2000])
    @pytest.mark.parametrize("psi", [0.0, 1.0])
    def test_psi_edges_draw_only_the_point_mass(self, n, psi):
        # the kernel's e is e^-700, not 0, off a psi-edge point mass
        for omega in (1e-8, 1.0, 1e8):
            draws = sample(ModelParams(n, psi, omega), 10 ** 4, seed=n)
            assert draws.dtype == np.int64 and (draws == (n if psi else 0)).all()

    def test_deterministic_given_seed(self):
        a = sample(ModelParams(5, 0.4, 1.2), 500, seed=123)
        b = sample(ModelParams(5, 0.4, 1.2), 500, seed=123)
        np.testing.assert_array_equal(a, b)

    def test_binomial_frequencies(self):
        count = 10 ** 5
        draws = sample(ModelParams(3, 0.6, 1.0), count, seed=2024)
        expect = binom.pmf(np.arange(4), 3, 0.6)
        freq = np.bincount(draws, minlength=4) / count
        bound = 3.0 * np.sqrt(expect * (1 - expect) / count)
        assert (np.abs(freq - expect) <= bound).all()

    def test_empirical_mean_matches_exact(self):
        p = ModelParams(7, 0.4, 1.6)
        count = 10 ** 5
        draws = sample(p, count, seed=99)
        ms = moments(p)
        assert abs(draws.mean() - ms.mean) <= 3.0 * math.sqrt(ms.variance / count)

    def test_count_validation(self):
        with pytest.raises(ValueError):
            sample(ModelParams(3, 0.5, 1.0), 0, seed=1)

    def test_stream_is_pinned_and_prefix_consistent(self):
        """The draws for a seed are fixed, and a longer call extends a
        shorter one: the uniforms are read in order off one stream."""
        p = ModelParams(5, 0.4, 1.2)
        draws = sample(p, 12, seed=7).tolist()
        assert draws == [4, 2, 1, 3, 1, 2, 3, 1, 1, 2, 1, 2]
        assert sample(p, 1000, seed=7)[:12].tolist() == draws

    @pytest.mark.parametrize("n, psi, omega, seed", [
        (9, 0.3, 0.5, 1), (12, 0.7, 1.3, 2), (20, 0.45, 0.9, 3)])
    def test_chi_square_goodness_of_fit(self, n, psi, omega, seed):
        """10^5 draws against the exact pmf, with the bins whose expected
        count is below 5 pooled into one, at significance GOF_ALPHA."""
        p, count = ModelParams(n, psi, omega), 10 ** 5
        expect = pmf(p).probs() * count
        seen = np.bincount(sample(p, count, seed), minlength=n + 1)
        small = expect < 5.0
        expect = np.append(expect[~small], expect[small].sum())
        seen = np.append(seen[~small], seen[small].sum())
        if not small.any():
            expect, seen = expect[:-1], seen[:-1]
        stat = ((seen - expect) ** 2 / expect).sum()
        assert chi2.sf(stat, len(expect) - 1) > GOF_ALPHA


class TestEnumerationOracle:
    @pytest.mark.parametrize("n", range(2, 13))
    @pytest.mark.parametrize("psi", [0.1, 0.5, 0.9])
    @pytest.mark.parametrize("omega", [0.25, 1.0, 4.0])
    def test_agrees_with_pmf(self, n, psi, omega):
        p = ModelParams(n, psi, omega)
        np.testing.assert_allclose(
            pmf(p).probs(), enumerate_pmf_oracle(p).probs(), atol=LOG_TOL)

    def test_binomial_case(self):
        got = enumerate_pmf_oracle(ModelParams(6, 0.3, 1.0)).probs()
        np.testing.assert_allclose(got, binom.pmf(np.arange(7), 6, 0.3), atol=LOG_TOL)

    def test_psi_one_point_mass(self):
        got = enumerate_pmf_oracle(ModelParams(5, 1.0, 2.0)).probs()
        assert got[5] == 1.0 and got[:5].sum() == 0.0

    def test_refuses_large_n(self):
        with pytest.raises(ValueError):
            enumerate_pmf_oracle(ModelParams(21, 0.5, 1.0))


@pytest.mark.parametrize("call", [
    lambda p: tau(1, p),
    lambda p: tau(p.n, p),
    lambda p: log_k(p.n, 0, p.psi, p.omega),
    lambda p: log_k(p.n, 2, p.psi, p.omega),
    moments,
    marginal_pi,
    lmbd.d_n,
    lmbd.delta,
    lmbd.theorem2_check,
], ids=["tau1", "tau_n", "log_k0", "log_k2", "moments", "marginal_pi", "d_n", "delta",
        "theorem2_check"])
@pytest.mark.parametrize("params", [ModelParams(7, 0.3, 1.5), ModelParams(64, 0.8, 0.9)])
def test_one_kernel_pass_per_call(call, params, monkeypatch):
    calls = _calls_to(monkeypatch, "_kernel")
    blocks = _calls_to(monkeypatch, "_log_weights")
    # factorization's names for the kernels count too
    monkeypatch.setattr(lmbd.factorization, "_kernel", lmbd.core._kernel)
    monkeypatch.setattr(lmbd.factorization, "_log_weights", lmbd.core._log_weights)
    call(params)
    # d_n and delta read Delta's own tables, not K_n's terms
    assert len(calls) == (0 if call in (lmbd.d_n, lmbd.delta) else 1)
    assert blocks == []


def test_public_names_are_the_submodules_lists():
    # each public name is declared once, in its submodule's __all__, and
    # the package holds the very objects its submodules hold
    modules = (lmbd.core, lmbd.asymptotics, lmbd.gauss, lmbd.factorization, lmbd.ensemble)
    assert len(set(lmbd.__all__)) == len(lmbd.__all__)
    assert lmbd.__all__ == ["__version__"] + [name for m in modules for name in m.__all__]
    for module in modules:
        for name in module.__all__:
            assert getattr(lmbd, name) is getattr(module, name)


def _private_definitions(tree: ast.Module):
    """(name, statement) for each module-level private function, class
    or assignment target: a name with one leading underscore."""
    for stmt in tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
            names = [stmt.name]
        elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
            targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
            names = [node.id for target in targets for node in ast.walk(target)
                     if isinstance(node, ast.Name)]
        else:
            names = []
        for name in names:
            if name.startswith("_") and not name.startswith("__"):
                yield name, stmt


def _reads(stmt: ast.stmt, modules: set[str]) -> set[str]:
    """The names a statement loads, bare or as ``module._name`` of a
    package module."""
    loads = [node for node in ast.walk(stmt) if isinstance(getattr(node, "ctx", None), ast.Load)]
    return ({node.id for node in loads if isinstance(node, ast.Name)}
            | {node.attr for node in loads if isinstance(node, ast.Attribute)
               and isinstance(node.value, ast.Name) and node.value.id in modules})


def test_every_private_name_is_read_by_the_package():
    # code only the tests need belongs in tests/: a module-level private
    # name that no statement of src/lmbd reads, its own definition
    # aside, is dead
    paths = sorted(Path(lmbd.__file__).parent.glob("*.py"))
    modules = {path.stem for path in paths}
    trees = [ast.parse(path.read_text()) for path in paths]
    statements = [(stmt, _reads(stmt, modules)) for tree in trees for stmt in tree.body]
    definitions = [d for tree in trees for d in _private_definitions(tree)]
    assert len(definitions) > 50
    dead = [name for name, home in definitions
            if not any(name in reads for stmt, reads in statements if stmt is not home)]
    assert dead == []


def test_no_long_double_in_the_package():
    # the oracle bounds must hold where np.longdouble is a plain double
    # (MSVC, arm64 macOS): no name, attribute or dtype string of src/lmbd
    # may ask for an extended type
    wide = {"longdouble", "clongdouble", "float96", "float128", "complex192", "complex256"}
    paths = sorted(Path(lmbd.__file__).parent.glob("*.py"))
    assert len(paths) > 5
    found = []
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text())):
            word = (node.id if isinstance(node, ast.Name)
                    else node.attr if isinstance(node, ast.Attribute)
                    else node.value if isinstance(node, ast.Constant) and isinstance(node.value, str)
                    else None)
            if word in wide:
                found.append(f"{path.name}:{node.lineno}: {word}")
    assert found == []


def test_no_blas_or_lapack_call_in_the_package():
    # a BLAS reduction splits its sum across the BLAS threads, so its bits
    # depend on their count, and a LAPACK call pages in about 1 MB of the
    # library.  src/lmbd sums in numpy's own loops: pairwise .sum(), or
    # einsum without ``optimize``, with which einsum may call BLAS
    banned = {"linalg", "dot", "vdot", "inner", "tensordot", "matmul", "vecdot", "matvec",
              "vecmat"}
    paths = sorted(Path(lmbd.__file__).parent.glob("*.py"))
    assert len(paths) > 5
    found = []
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text())):
            word = (node.id if isinstance(node, ast.Name)
                    else node.attr if isinstance(node, ast.Attribute) else None)
            if word in banned:
                found.append(f"{path.name}:{node.lineno}: {word}")
            elif isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
                found.append(f"{path.name}:{node.lineno}: @")
            elif (isinstance(node, ast.Call) and "einsum" in ast.unparse(node.func)
                  and any(k.arg == "optimize" for k in node.keywords)):
                found.append(f"{path.name}:{node.lineno}: einsum(optimize=...)")
    assert found == []


def test_no_overflow_tolerant_fit_trial():
    # the trust radius keeps every fit trial inside the double range, so
    # neither the ascent nor an objective silences an overflow, whose NaN
    # a trial's test would reject, and no halving budget comes back
    tree = ast.parse(Path(lmbd.ensemble.__file__).read_text())
    found = [f"{node.name}:{sub.lineno}: errstate" for node in ast.walk(tree)
             if isinstance(node, ast.FunctionDef)
             and node.name in ("fit_mle", "_beta_binomial_log_lik", "_newton_ascent")
             for sub in ast.walk(node) if isinstance(sub, ast.Attribute) and sub.attr == "errstate"]
    found += [f"{node.lineno}: _MAX_HALVINGS" for node in ast.walk(tree)
              if isinstance(node, ast.Name) and node.id == "_MAX_HALVINGS"]
    assert found == []
