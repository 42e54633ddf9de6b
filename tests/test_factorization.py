import math

import numpy as np
import pytest

from lmbd import (
    GridSpec,
    ModelParams,
    d_n,
    delta,
    delta_grid,
    is_singular,
    log_k,
    marginal_pi,
    tau,
    tau1_region_grid,
    theorem2_check,
)


def hand_d2(psi, omega):
    # exact n=2 factorization: D_2 = (psi-1)(2 psi-1)(omega-1)
    return (psi - 1.0) * (2.0 * psi - 1.0) * (omega - 1.0)


class TestDn:
    def test_independence_gives_zero(self):
        assert d_n(ModelParams(5, 0.3, 1.0)) == pytest.approx(0.0, abs=1e-12)

    def test_psi_half_gives_zero(self):
        # absolute rounding in D_n scales with K_n itself
        for n in (2, 5, 9):
            scale = math.exp(log_k(n, 0, 0.5, 1.7))
            assert d_n(ModelParams(n, 0.5, 1.7)) == pytest.approx(
                0.0, abs=1e-12 * max(1.0, scale))

    def test_hand_value_n2(self):
        assert d_n(ModelParams(2, 0.3, 1.5)) == pytest.approx(0.14, rel=1e-12)

    @pytest.mark.parametrize("psi", [0.1, 0.3, 0.7, 0.9])
    @pytest.mark.parametrize("omega", [0.2, 0.8, 1.3, 2.0])
    def test_n2_closed_form(self, psi, omega):
        got = d_n(ModelParams(2, psi, omega))
        assert got == pytest.approx(hand_d2(psi, omega), rel=1e-11, abs=1e-15)

    def test_sign_decides_tau1(self):
        for n, psi, omega in [(4, 0.2, 0.5), (4, 0.8, 1.6), (7, 0.3, 1.8),
                              (6, 0.7, 0.4), (9, 0.6, 1.2)]:
            p = ModelParams(n, psi, omega)
            t1 = tau(1, p)
            d = d_n(p)
            assert (t1 <= 1.0) == (d <= 0.0)


class TestBeyondTheDoubleRange:
    # K_n overflows at all three points; mpmath gives D_500 = +6.0e10985
    # at psi = 0.3, -2.6e10985 at psi = 0.7 and Delta_64 = +5.5e314
    def test_d_n_is_a_signed_infinity(self):
        assert d_n(ModelParams(500, 0.3, 1.5)) == math.inf
        assert d_n(ModelParams(500, 0.7, 1.5)) == -math.inf

    def test_delta_is_a_signed_infinity(self):
        assert delta(ModelParams(64, 0.50513, 2.0313)) == math.inf

    def test_delta_matches_delta_grid(self):
        # the cells straddle log K_n = 709.78, where the grid's omega
        # factor omega^floor(n^2 / 4) leaves the double range (omega = 2
        # at n = 64, 1.073 at n = 200); the row one ulp below psi = 1/2,
        # where tau_1 - 1 is below its own rounding error and neither
        # value has a correct digit, is left out.  At n = 200 the bound
        # is twice the worst gap, 1.56e-12 at (0.55, 1.01): it is the
        # scalar path's error, 1.6e-12 against 50-digit mpmath there,
        # where the grid's is 5e-14
        for spec, rel in ((GridSpec.linspace(64, 19, 13, 0.05, 0.95, 1.9, 2.2), 1e-12),
                          (GridSpec.linspace(64, 19, 13, 0.05, 0.95, 1.9, 4.0), 1e-12),
                          (GridSpec.linspace(200, 19, 13, 0.05, 0.95, 1.01, 1.61), 3.2e-12)):
            grid = delta_grid(spec)
            infinite = 0
            for i, psi in enumerate(spec.psi_values):
                if abs(psi - 0.5) < 1e-9:
                    continue
                for j, omega in enumerate(spec.omega_values):
                    got, expect = delta(ModelParams(spec.n, psi, omega)), grid.values[i, j]
                    where = (spec.n, psi, omega)
                    if math.isinf(got) or math.isinf(expect):
                        assert got == expect, where
                        infinite += 1
                    else:
                        assert got == pytest.approx(expect, rel=rel, abs=0), where
            assert infinite > 0, spec.n


class TestDelta:
    def test_n2_is_one_everywhere_defined(self):
        for psi in (0.1, 0.3, 0.7, 0.9):
            for omega in (0.2, 0.9, 1.4, 2.0):
                assert delta(ModelParams(2, psi, omega)) == pytest.approx(
                    1.0, rel=1e-10)

    @pytest.mark.parametrize("n", [4, 5, 9, 12])
    def test_positive_on_spec_example_grid(self, n):
        psis = [p for p in np.arange(0.1, 0.95, 0.2) if abs(p - 0.5) > 1e-9]
        omegas = [w for w in np.arange(0.2, 1.85, 0.4) if abs(w - 1.0) > 1e-9]
        for psi in psis:
            for omega in omegas:
                assert delta(ModelParams(n, psi, omega)) > 0.0

    def test_singular_marker(self):
        assert math.isnan(delta(ModelParams(4, 0.5, 1.3)))
        assert math.isnan(delta(ModelParams(4, 1.0, 1.3)))
        assert math.isnan(delta(ModelParams(4, 0.3, 1.0)))

    def test_is_singular_predicate(self):
        assert is_singular(ModelParams(3, 0.5, 2.0))
        assert is_singular(ModelParams(3, 1.0, 2.0))
        assert is_singular(ModelParams(3, 0.2, 1.0))
        assert not is_singular(ModelParams(3, 0.2, 2.0))

    @pytest.mark.parametrize("n", range(2, 13))
    def test_factorization_reconstructs_dn(self, n):
        for psi in (0.1, 0.35, 0.65, 0.9):
            for omega in (0.3, 0.8, 1.4, 2.0):
                p = ModelParams(n, psi, omega)
                factors = (psi - 1.0) * (2.0 * psi - 1.0) * (omega - 1.0)
                if n % 2 == 1:
                    factors *= omega + 1.0
                assert delta(p) * factors == pytest.approx(
                    d_n(p), rel=1e-10, abs=1e-300)


class TestDeltaGrid:
    def test_n2_grid_all_ones(self):
        grid = delta_grid(GridSpec.linspace(n=2, psi_steps=21, omega_steps=21))
        defined = grid.values[grid.flags]
        np.testing.assert_allclose(defined, 1.0, rtol=1e-10)

    def test_n4_positive(self):
        grid = delta_grid(GridSpec.linspace(n=4))
        assert grid.values[grid.flags].min() > 0.0

    def test_singular_cells_flagged(self):
        spec = GridSpec(psi_values=(0.3, 0.5, 0.7),
                        omega_values=(0.5, 1.0, 1.5), n=4)
        grid = delta_grid(spec)
        assert not grid.flags[1, :].any()  # psi = 1/2 row
        assert not grid.flags[:, 1].any()  # omega = 1 column
        assert np.isnan(grid.values[~grid.flags]).all()
        assert grid.flags[0, 0] and grid.flags[2, 2]


class TestTau1RegionGrid:
    def test_omega_one_column_is_boundary(self):
        spec = GridSpec(psi_values=(0.2, 0.5, 0.8), omega_values=(1.0,), n=5)
        grid = tau1_region_grid(spec)
        np.testing.assert_allclose(grid.values[:, 0], 1.0, atol=1e-12)
        assert grid.flags.all()  # ties flagged as <=

    @pytest.mark.parametrize("n", [4, 5, 9, 12])
    def test_upper_right_cell(self, n):
        grid = tau1_region_grid(
            GridSpec(psi_values=(0.8,), omega_values=(1.6,), n=n))
        assert grid.flags[0, 0]

    def test_lower_left_off_region(self):
        grid = tau1_region_grid(
            GridSpec(psi_values=(0.8,), omega_values=(0.4,), n=6))
        assert not grid.flags[0, 0]
        assert grid.values[0, 0] > 1.0

    @pytest.mark.parametrize("n", [3, 4, 7, 10])
    def test_region_matches_quadrant_rule(self, n):
        spec = GridSpec.linspace(n=n, psi_steps=25, omega_steps=25)
        grid = tau1_region_grid(spec)
        for i, psi in enumerate(spec.psi_values):
            for j, omega in enumerate(spec.omega_values):
                expect = (psi <= 0.5 and omega <= 1.0) or (
                    psi >= 0.5 and omega >= 1.0)
                assert grid.flags[i, j] == expect, (psi, omega)

    def test_region_equals_dn_sign(self):
        # tau_1 <= 1 and D_n <= 0 are the same statement; cells on the
        # singular lines are ties for both and skipped
        spec = GridSpec.linspace(n=6, psi_steps=15, omega_steps=15)
        grid = tau1_region_grid(spec)
        for i, psi in enumerate(spec.psi_values):
            for j, omega in enumerate(spec.omega_values):
                if abs(psi - 0.5) < 1e-9 or abs(omega - 1.0) < 1e-9:
                    continue
                d = d_n(ModelParams(6, psi, omega))
                assert grid.flags[i, j] == (d <= 0.0), (psi, omega, d)


class TestTheorem2Check:
    def test_negative_association_branch(self):
        report = theorem2_check(ModelParams(7, 0.6, 1.4))
        assert report.theorem_applies
        assert report.relation == ">"

    def test_independence_equality(self):
        report = theorem2_check(ModelParams(5, 0.3, 1.0))
        assert report.relation == "="
        assert report.pi == pytest.approx(0.3, abs=1e-12)

    def test_lower_left_region_also_orders(self):
        report = theorem2_check(ModelParams(6, 0.3, 0.5))
        assert not report.theorem_applies
        assert report.relation == ">"

    def test_strict_where_tau1_is_one_ulp_below_one(self):
        # log tau_1 = -1.1e-16 here: exp(log psi + log tau_1) rounds up
        # to psi, while psi tau_1 stays below it
        p = ModelParams(8, 0.5717103227531857, 1.0000000000000038)
        assert tau(1, p) < 1.0
        assert marginal_pi(p) < p.psi
        assert theorem2_check(p).relation == ">"

    def test_psi_half_is_tie(self):
        assert theorem2_check(ModelParams(6, 0.5, 1.5)).relation == "="

    def test_ordering_matches_tau1_on_grid(self):
        for n in (4, 7):
            for psi in (0.1, 0.3, 0.7, 0.9):
                for omega in (0.4, 1.5):
                    p = ModelParams(n, psi, omega)
                    t1 = tau(1, p)
                    pi = marginal_pi(p)
                    if t1 < 1.0:
                        assert psi > pi
                    elif t1 > 1.0:
                        assert psi < pi


class TestGridSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            GridSpec(psi_values=(), omega_values=(1.0,), n=3)
        with pytest.raises(ValueError):
            GridSpec(psi_values=(0.5, 0.2), omega_values=(1.0,), n=3)
        with pytest.raises(ValueError):
            GridSpec(psi_values=(0.2,), omega_values=(0.0, 1.0), n=3)
        with pytest.raises(ValueError):
            GridSpec(psi_values=(0.2, 1.5), omega_values=(1.0,), n=3)

    def test_linspace_defaults(self):
        spec = GridSpec.linspace(n=4)
        assert len(spec.psi_values) == 101
        assert spec.psi_values[0] == 0.01 and spec.psi_values[-1] == 0.99
        assert spec.omega_values[0] == 0.05 and spec.omega_values[-1] == 2.0
