import math

import numpy as np
import pytest

from lmbd import (
    LimitRegime,
    ModelParams,
    convergence_report,
    limit_distribution,
    limit_moments,
    pmf,
    tau,
    tau_limit,
    total_variation,
)


def to_zero(n):
    return LimitRegime("to-zero", n)


def to_infinity(n):
    return LimitRegime("to-infinity", n)


class TestTauLimitOmegaZero:
    def test_closed_form_hand_value(self):
        # psi^(n-j) / (psi^n + (1-psi)^n) at j=1, n=4, psi=0.5:
        # 0.5^3 / (2 * 0.5^4) = 1
        assert tau_limit(1, to_zero(4), 0.5) == pytest.approx(1.0, abs=1e-14)

    @pytest.mark.parametrize("j,n,psi", [(1, 4, 0.5), (2, 6, 0.3), (1, 7, 0.8)])
    def test_exact_tau_converges(self, j, n, psi):
        got = tau(j, ModelParams(n, psi, 1e-8))
        assert got == pytest.approx(tau_limit(j, to_zero(n), psi), rel=1e-4)

    @pytest.mark.parametrize("n,psi", [(3, 0.2), (5, 0.5), (8, 0.9)])
    def test_j_equals_n(self, n, psi):
        expect = 1.0 / (psi ** n + (1 - psi) ** n)
        assert tau_limit(n, to_zero(n), psi) == pytest.approx(expect, rel=1e-12)
        assert expect >= 1.0

    def test_degenerate_psi_rejected(self):
        with pytest.raises(ValueError):
            tau_limit(1, to_zero(4), 0.0)
        with pytest.raises(ValueError):
            tau_limit(1, to_zero(4), 1.0)

    def test_j_beyond_n_rejected(self):
        with pytest.raises(ValueError):
            tau_limit(5, to_zero(4), 0.5)
        with pytest.raises(ValueError):
            tau_limit(0, to_zero(4), 0.5)

    @pytest.mark.parametrize("psi_edge", ["to-zero", "to-one"])
    def test_psi_edge_regime_rejected(self, psi_edge):
        for omega_edge in ("to-zero", "to-infinity"):
            with pytest.raises(ValueError):
                tau_limit(1, LimitRegime(omega_edge, 4, psi_edge), 0.5)


class TestTauLimitOmegaInfEven:
    def test_j1_gives_half_mean(self):
        # (1/psi) C(3,1)/C(4,2) = 2 * 3/6 = 1, so lim E = n psi tau1 = n/2
        assert tau_limit(1, to_infinity(4), 0.5) == pytest.approx(1.0, abs=1e-14)

    def test_j2_matches_proof_line(self):
        got = tau_limit(2, to_infinity(4), 0.5)
        assert got == pytest.approx(4 / 6, rel=1e-14)
        # alternative closed form (n-2) / (4 (n-1) psi^2)
        assert got == pytest.approx(2 / (12 * 0.25), rel=1e-14)

    @pytest.mark.parametrize("j,n,psi", [(1, 4, 0.3), (2, 6, 0.5), (3, 8, 0.7)])
    def test_exact_tau_converges(self, j, n, psi):
        got = tau(j, ModelParams(n, psi, 1e6))
        assert got == pytest.approx(tau_limit(j, to_infinity(n), psi), rel=1e-3)

    def test_j_beyond_half_is_zero(self):
        # the limit law sits on y = 2 alone, so E[(Y)_j] = 0 for j = 3, 4;
        # exact tau_3 at omega = 1e8 reads about 4 / (3 omega)
        for j in (3, 4):
            assert tau_limit(j, to_infinity(4), 0.5) == 0.0
            assert tau(j, ModelParams(4, 0.5, 1e8)) == pytest.approx(0.0, abs=2e-8)


class TestTauLimitOmegaInfOdd:
    def test_j1_closed_form(self):
        assert tau_limit(1, to_infinity(5), 0.3) == pytest.approx(
            (2 + 0.3) / (5 * 0.3), rel=1e-12)

    def test_j2_closed_form(self):
        assert tau_limit(2, to_infinity(5), 0.5) == pytest.approx(0.8, rel=1e-12)

    @pytest.mark.parametrize("n", [3, 5, 7, 9, 11])
    @pytest.mark.parametrize("psi", [0.2, 0.5, 0.8])
    def test_dominant_term_reproduces_j1_j2(self, n, psi):
        # the generic dominant-term computation must match the proof's
        # explicit j=1 and j=2 expressions
        assert tau_limit(1, to_infinity(n), psi) == pytest.approx(
            ((n - 1) / 2 + psi) / (n * psi), rel=1e-12)
        if (n - 1) // 2 >= 2:
            assert tau_limit(2, to_infinity(n), psi) == pytest.approx(
                ((n - 3) / 4 + psi) / (n * psi ** 2), rel=1e-12)

    @pytest.mark.parametrize("j,n,psi", [(1, 5, 0.3), (2, 7, 0.6), (3, 9, 0.4)])
    def test_exact_tau_converges(self, j, n, psi):
        got = tau(j, ModelParams(n, psi, 1e6))
        assert got == pytest.approx(tau_limit(j, to_infinity(n), psi), rel=1e-3)

    def test_j_beyond_half_reads_the_upper_point(self):
        # only y = 3 reaches j = 3, with mass psi: psi 3! / ((5)_3 psi^3)
        # = 1 / (10 psi^2), 0.4 at psi = 1/2; nothing reaches j = 4 or 5
        for psi in (0.2, 0.5, 0.8):
            expect = 1 / (10 * psi ** 2)
            assert tau_limit(3, to_infinity(5), psi) == pytest.approx(expect, rel=1e-14)
            assert tau(3, ModelParams(5, psi, 1e8)) == pytest.approx(expect, rel=1e-7)
            assert tau_limit(4, to_infinity(5), psi) == 0.0
            assert tau_limit(5, to_infinity(5), psi) == 0.0


class TestTauLimitRange:
    @pytest.mark.parametrize("edge", ["to-zero", "to-infinity"])
    @pytest.mark.parametrize("psi", [1e-4, 0.3, 0.5, 1 - 1e-4])
    def test_n1_gives_one(self, edge, psi):
        # K_0 / K_1 = 1 / (psi + 1 - psi) at every omega
        assert tau_limit(1, LimitRegime(edge, 1), psi) == pytest.approx(1.0, rel=1e-15)

    @pytest.mark.parametrize("edge", ["to-zero", "to-infinity"])
    @pytest.mark.parametrize("n", [1, 4, 5])
    def test_j_beyond_n_rejected(self, edge, n):
        with pytest.raises(ValueError, match=rf"j must lie in \[1, {n}\], got {n + 1}"):
            tau_limit(n + 1, LimitRegime(edge, n), 0.5)

    @pytest.mark.parametrize("edge", ["to-zero", "to-infinity"])
    @pytest.mark.parametrize("n", [6, 7])
    def test_every_j_matches_exact_tau_near_the_edge(self, edge, n):
        omega = 1e-8 if edge == "to-zero" else 1e8
        for j in range(1, n + 1):
            expect = tau_limit(j, LimitRegime(edge, n), 0.4)
            assert tau(j, ModelParams(n, 0.4, omega)) == pytest.approx(expect, rel=1e-5,
                                                                      abs=1e-6), j


class TestLimitMoments:
    def test_omega_zero_hand_value(self):
        mean, var = limit_moments(LimitRegime("to-zero", n=3), 0.5)
        assert mean == pytest.approx(1.5, abs=1e-12)
        assert var == pytest.approx(2.25, abs=1e-12)

    def test_omega_inf_even(self):
        for psi in (0.2, 0.5, 0.8):
            assert limit_moments(LimitRegime("to-infinity", n=4), psi) == (2.0, 0.0)

    def test_omega_inf_odd_psi_edge(self):
        mean, var = limit_moments(
            LimitRegime("to-infinity", n=5, psi_edge="to-zero"), 0.0)
        assert (mean, var) == (2.0, 0.0)
        mean, var = limit_moments(
            LimitRegime("to-infinity", n=5, psi_edge="to-one"), 1.0)
        assert (mean, var) == (3.0, 0.0)

    def test_omega_inf_odd_interior(self):
        mean, var = limit_moments(LimitRegime("to-infinity", n=5), 0.3)
        assert mean == pytest.approx(2.3, abs=1e-12)
        assert var == pytest.approx(0.21, abs=1e-12)

    def test_interior_psi_required_for_none(self):
        with pytest.raises(ValueError):
            limit_moments(LimitRegime("to-zero", n=4), 0.0)


class TestLimitDistribution:
    def test_omega_zero_psi_to_one_is_dirac_n(self):
        assert limit_distribution(
            LimitRegime("to-zero", n=6, psi_edge="to-one"), 1.0) == {6: 1.0}

    def test_omega_inf_odd_two_point(self):
        dist = limit_distribution(LimitRegime("to-infinity", n=5), 0.3)
        assert dist == pytest.approx({2: 0.7, 3: 0.3})
        mean = sum(k * v for k, v in dist.items())
        var = sum(k * k * v for k, v in dist.items()) - mean ** 2
        assert mean == pytest.approx(2.3, abs=1e-12)
        assert var == pytest.approx(0.21, abs=1e-12)

    def test_extreme_omega_concentrates_even(self):
        # off-center mass decays as 1/omega: ~1.6e-6 at omega=1e6,
        # ~1.6e-8 at omega=1e8
        probs = pmf(ModelParams(6, 0.4, 1e6)).probs()
        assert probs[3] >= 1.0 - 2e-6
        probs = pmf(ModelParams(6, 0.4, 1e8)).probs()
        assert probs[3] >= 1.0 - 1e-6

    @pytest.mark.parametrize("edge,psi_edge,psi", [
        ("to-zero", "none", 0.3),
        ("to-zero", "to-zero", 0.0),
        ("to-infinity", "none", 0.7),
        ("to-infinity", "to-one", 1.0),
    ])
    @pytest.mark.parametrize("n", [4, 5])
    def test_masses_sum_to_one_and_match_moments(self, edge, psi_edge, psi, n):
        regime = LimitRegime(edge, n=n, psi_edge=psi_edge)
        dist = limit_distribution(regime, psi)
        assert sum(dist.values()) == pytest.approx(1.0, abs=1e-12)
        mean, var = limit_moments(regime, psi)
        d_mean = sum(k * v for k, v in dist.items())
        d_var = sum(k * k * v for k, v in dist.items()) - d_mean ** 2
        assert d_mean == pytest.approx(mean, abs=1e-12)
        assert d_var == pytest.approx(var, abs=1e-12)
        assert var >= 0.0


class TestConvergenceReport:
    def test_omega_zero_tv_decreases(self):
        regime = LimitRegime("to-zero", n=4)
        report = convergence_report(regime, 0.5, [10.0 ** -k for k in range(1, 9)])
        tvs = [tv for _, tv in report.numeric_evidence]
        assert all(b <= a for a, b in zip(tvs, tvs[1:]))
        assert tvs[-1] < 1e-6

    def test_omega_inf_odd_tv(self):
        regime = LimitRegime("to-infinity", n=7)
        report = convergence_report(regime, 0.2, [10.0 ** k for k in range(1, 9)])
        assert report.limit_distribution == pytest.approx({3: 0.8, 4: 0.2})
        tvs = [tv for _, tv in report.numeric_evidence]
        assert all(b <= a for a, b in zip(tvs, tvs[1:]))
        assert tvs[-1] < 1e-6

    def test_n2_even_decay(self):
        regime = LimitRegime("to-infinity", n=2)
        report = convergence_report(regime, 0.5, [10.0 ** k for k in range(1, 9)])
        assert report.limit_distribution == {1: 1.0}
        # closed form at psi = 1/2: weights (1/4, omega/2, 1/4), so
        # TV = off-center mass = 1 / (1 + omega), decaying as 1/omega
        w, tv = report.numeric_evidence[0]
        assert tv == pytest.approx(1.0 / (1.0 + w), rel=1e-10)

    @pytest.mark.parametrize("edge", ["to-zero", "to-infinity"])
    @pytest.mark.parametrize("n", [5, 8, 11, 20])
    def test_batched_evidence_equals_per_probe_pmf(self, edge, n):
        regime = LimitRegime(edge, n=n)
        probes = [10.0 ** (-k if edge == "to-zero" else k) for k in range(1, 9)]
        report = convergence_report(regime, 0.37, probes)
        limit = limit_distribution(regime, 0.37)
        assert [w for w, _ in report.numeric_evidence] == probes
        for w, tv in report.numeric_evidence:
            expect = total_variation(pmf(ModelParams(n, 0.37, w)).probs(), limit)
            assert tv == pytest.approx(expect, rel=0, abs=1e-15), w

    def test_non_positive_probe_rejected(self):
        with pytest.raises(ValueError):
            convergence_report(LimitRegime("to-zero", n=4), 0.5, [0.1, 0.0])
        with pytest.raises(ValueError):
            convergence_report(LimitRegime("to-infinity", n=4), 0.5, [-1.0, 10.0])

    def test_non_monotone_probes_rejected(self):
        regime = LimitRegime("to-zero", n=4)
        with pytest.raises(ValueError, match="non-empty"):
            convergence_report(regime, 0.5, [])
        with pytest.raises(ValueError):
            convergence_report(regime, 0.5, [0.1, 0.2, 0.01])
        with pytest.raises(ValueError):
            convergence_report(LimitRegime("to-infinity", n=4), 0.5, [100.0, 10.0])

    @pytest.mark.parametrize("psi_edge", ["to-zero", "to-one"])
    def test_psi_edge_regime_rejected(self, psi_edge):
        # no omega sequence at a fixed psi approaches the psi-edge limit:
        # at psi = 0.9 the TV to the to-zero limit would settle near 0.9
        for omega_edge, probes in (("to-zero", [1e-2, 1e-4, 1e-8]),
                                   ("to-infinity", [1e2, 1e4, 1e8])):
            with pytest.raises(ValueError, match=f"psi_edge='{psi_edge}'"):
                convergence_report(LimitRegime(omega_edge, 5, psi_edge), 0.9, probes)

    def test_empirical_slope_logged_not_asserted(self):
        # order-of-approach sanity only: geometric probes give roughly
        # geometric TV decay in the even omega->inf regime
        regime = LimitRegime("to-infinity", n=4)
        report = convergence_report(regime, 0.5, [1e2, 1e3, 1e4])
        tvs = [tv for _, tv in report.numeric_evidence]
        assert tvs[0] / tvs[1] > 5 and tvs[1] / tvs[2] > 5


class TestTotalVariation:
    def test_identical_laws(self):
        p = pmf(ModelParams(5, 0.4, 1.3)).probs()
        dist = {k: float(v) for k, v in enumerate(p)}
        assert total_variation(p, dist) == pytest.approx(0.0, abs=1e-15)

    def test_disjoint_laws(self):
        probs = np.array([1.0, 0.0, 0.0])
        assert total_variation(probs, {2: 1.0}) == pytest.approx(1.0)

    @pytest.mark.parametrize("point", [-1, 3])
    def test_a_point_off_the_table_raises(self, point):
        with pytest.raises(ValueError, match=r"limit point must lie in \[0, 2\]"):
            total_variation(np.array([0.5, 0.0, 0.5]), {point: 1.0})


class TestRegimeValidation:
    def test_bad_edges(self):
        with pytest.raises(ValueError):
            LimitRegime("sideways", n=4)
        with pytest.raises(ValueError):
            LimitRegime("to-zero", n=4, psi_edge="to-two")
        with pytest.raises(ValueError):
            LimitRegime("to-zero", n=0)
