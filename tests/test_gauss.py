import math

import numpy as np
import pytest
from scipy.stats import binom, norm

import lmbd
from lmbd import ModelParams, clt_scan, moments, standardized_ks_distance


class TestStandardizedKsDistance:
    def test_binomial_clt_scale(self):
        assert standardized_ks_distance(ModelParams(100, 0.5, 1.0)) <= 0.05

    def test_shrinks_with_n(self):
        small = standardized_ks_distance(ModelParams(10, 0.5, 1.2))
        large = standardized_ks_distance(ModelParams(100, 0.5, 1.2))
        assert large < small

    def test_near_degenerate_two_point_law_is_far_from_normal(self):
        # extreme dependence: the law concentrates on two adjacent points
        # and the standardized cdf stays far from the Gaussian
        assert standardized_ks_distance(ModelParams(5, 0.5, 1e6)) > 0.25

    def test_matches_independent_binomial_computation(self):
        # independently coded binomial-vs-normal KS at omega = 1
        for n, p in [(20, 0.3), (50, 0.5), (80, 0.7)]:
            y = np.arange(n + 1)
            f = binom.cdf(y, n, p)
            z = (y - n * p) / np.sqrt(n * p * (1 - p))
            expect = float(np.max(np.abs(f - norm.cdf(z))))
            got = standardized_ks_distance(ModelParams(n, p, 1.0))
            assert got == pytest.approx(expect, abs=1e-12)

    def test_degenerate_variance_rejected(self):
        with pytest.raises(ValueError):
            standardized_ks_distance(ModelParams(5, 0.0, 1.0))

    @pytest.mark.parametrize("n,psi,omega", [(10, 0.5, 1.0), (160, 0.3, 1.5), (64, 0.7, 0.9)])
    def test_one_pmf_table_per_distance(self, n, psi, omega, monkeypatch):
        # the table is the kernel row less its log-sum, off one kernel pass
        calls = []
        kernel = lmbd.gauss._kernel

        def counted(*args):
            calls.append(args)
            return kernel(*args)

        monkeypatch.setattr(lmbd.gauss, "_kernel", counted)
        standardized_ks_distance(ModelParams(n, psi, omega))
        assert len(calls) == 1

    @pytest.mark.parametrize("n,psi,omega", [(10, 0.5, 1.0), (160, 0.3, 1.5), (64, 0.7, 0.9)])
    def test_no_log_k_sum_beside_the_table(self, n, psi, omega, monkeypatch):
        calls = []
        log_k = lmbd.core.log_k

        def counted(*args):
            calls.append(args)
            return log_k(*args)

        monkeypatch.setattr(lmbd.core, "log_k", counted)
        standardized_ks_distance(ModelParams(n, psi, omega))
        assert calls == []

    @pytest.mark.parametrize("n,psi,omega", [(10, 0.5, 1.0), (160, 0.3, 1.5), (64, 0.7, 0.9)])
    def test_standardizes_with_the_mean_and_variance_of_moments(self, n, psi, omega):
        # the mean and variance are moments' own, read off the same table,
        # the kernel row's exponentials e over their total T
        p = ModelParams(n, psi, omega)
        ms = moments(p)
        _, row, e, total = lmbd.core._kernel(*lmbd.core._natural(p))
        mean, variance = lmbd.core._table_moments(e, row, total)
        assert (mean, variance) == (ms.mean, ms.variance)
        z = (np.arange(n + 1) - mean) / math.sqrt(variance)
        cdf_vals = np.minimum(1.0, np.cumsum(e) / total)
        expect = float(np.max(np.abs(cdf_vals - lmbd.gauss._std_normal_cdf(z))))
        assert standardized_ks_distance(p) == expect

    def test_bounded(self):
        for omega in (0.5, 1.0, 2.0, 100.0):
            d = standardized_ks_distance(ModelParams(12, 0.4, omega))
            assert 0.0 <= d <= 1.0


class TestCltScan:
    @pytest.mark.parametrize("psi,omega", [
        (0.5, 1.0), (0.3, 1.0), (0.3, 1.5), (0.5, 1.5),
    ])
    def test_decreasing_along_quadrupling_n(self, psi, omega):
        rows = clt_scan([10, 40, 160], psi, omega)
        assert [r.n for r in rows] == [10, 40, 160]
        assert rows[1].ks_distance < rows[0].ks_distance
        assert rows[2].ks_distance < rows[1].ks_distance

    @pytest.mark.parametrize("psi", [0.3, 0.5])
    def test_independence_reaches_gaussian_scale(self, psi):
        rows = clt_scan([10, 40, 160], psi, 1.0)
        assert rows[2].ks_distance < 0.1

    @pytest.mark.parametrize("psi", [0.3, 0.5])
    def test_fixed_positive_association_degenerates(self, psi):
        # with omega < 1 held fixed, growing n strengthens the total
        # association (the interaction exponent is (n-y) y) and the law
        # collapses onto {0, n}: the normal approximation breaks down
        # instead of improving
        rows = clt_scan([10, 40, 160], psi, 0.8)
        assert rows[2].ks_distance > 0.3

    def test_fixed_negative_association_plateaus(self):
        # with omega > 1 fixed the variance saturates near 1 while the
        # support lattice stays unit-spaced, so the sup distance levels
        # off well above the independent-case scale
        rows = clt_scan([10, 40, 160, 640], 0.5, 1.5)
        assert 0.15 < rows[3].ks_distance < 0.25

    def test_rows_carry_parameters(self):
        rows = clt_scan([10, 20], 0.4, 1.1)
        assert rows[0].psi == 0.4 and rows[0].omega == 1.1

    def test_non_increasing_ns_rejected(self):
        with pytest.raises(ValueError):
            clt_scan([10, 10, 40], 0.5, 1.0)
        with pytest.raises(ValueError):
            clt_scan([40, 10], 0.5, 1.0)
