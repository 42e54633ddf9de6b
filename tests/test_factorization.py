import math
import sys
import warnings

import mpmath as mp
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
from test_grid_oracle import DPS, _exact, _rel


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

    def test_psi_zero_is_a_signed_infinity(self):
        # D_n = omega^(n-1) - 1 at psi = 0: 2^1999 - 1 is beyond the double
        # range, 2^-1999 - 1 rounds to -1
        assert d_n(ModelParams(2000, 0.0, 2.0)) == math.inf
        assert delta(ModelParams(2000, 0.0, 2.0)) == math.inf
        assert d_n(ModelParams(2000, 0.0, 0.5)) == -1.0
        cells = delta_grid(GridSpec((0.0,), (0.5, 2.0), 2000)).values[0]
        assert cells[0] == 2.0 and cells[1] == math.inf

    # the odd-n column factor (omega - 1)(omega + 1) overflows above
    # omega ~ 1.3e154.  50-digit mpmath gives Delta = 1.0 at
    # (3, 0.3, 1e160) and +8.4e799 at (5, 0.3, 1e200).  The bounds are
    # twice the measured errors of delta (1.03e-48: 1.0 is the rounded
    # value) and of the grid cell (1.11e-15)
    @pytest.mark.parametrize("n,omega,bound,cell_bound", [
        (3, 1e160, 2.1e-48, 2.3e-15),
        (5, 1e200, 0.0, 0.0),
    ])
    def test_odd_n_column_factor_beyond_the_double_range(self, n, omega, bound, cell_bound):
        exact = _exact(n, 0.3, omega)[1]
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            got = delta(ModelParams(n, 0.3, omega))
            cell = delta_grid(GridSpec((0.3,), (omega,), n)).values[0, 0]
        assert _rel(got, exact) <= bound
        assert _rel(cell, exact) <= cell_bound

    def test_delta_matches_delta_grid(self):
        # the cells straddle log K_n = 709.78, where the grid's omega
        # factor omega^floor(n^2 / 4) leaves the double range (omega = 2
        # at n = 64, 1.073 at n = 200); the row one ulp below psi = 1/2,
        # where tau_1 - 1 is below its own rounding error and the grid
        # has no correct digit, is left out.  Each bound is twice the
        # worst gap between the two: 1.39e-13 at (64, 0.7, 1.95),
        # 1.14e-13 at (64, 0.95, 2.075) and 1.12e-13 at (200, 0.85, 1.06)
        for spec, rel in ((GridSpec.linspace(64, 19, 13, 0.05, 0.95, 1.9, 2.2), 2.8e-13),
                          (GridSpec.linspace(64, 19, 13, 0.05, 0.95, 1.9, 4.0), 2.3e-13),
                          (GridSpec.linspace(200, 19, 13, 0.05, 0.95, 1.01, 1.61), 2.3e-13)):
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


def _exact_d_n(n, psi, omega):
    """(Delta, D_n) at 50 digits."""
    exact_delta = _exact(n, psi, omega)[1]
    with mp.workdps(DPS):
        p, w = mp.mpf(psi), mp.mpf(omega)
        return exact_delta, exact_delta * (p - 1) * (2 * p - 1) * (w - 1) * ((w + 1) if n % 2 else 1)


class TestScalarOracle:
    # relative error bound of both delta and d_n against 50-digit mpmath:
    # twice the worse of the two measured errors, 5.45e-14, 4.14e-14,
    # 5.45e-14, 9.43e-13, 2.28e-8 and 2.83e-8.  Near omega = 1 and
    # psi = 1/2 the sum of (y - n psi) w_y cancels down to D_n, and the
    # last two points are that cancellation
    @pytest.mark.parametrize("n,psi,omega,bound", [
        (200, 0.55, 1.01, 1.1e-13),
        (200, 0.45, 1.01, 8.3e-14),
        (500, 0.7, 1.001, 1.1e-13),
        (2000, 0.3, 1.0005, 1.9e-12),
        (64, 0.3, 1 + 1e-9, 4.6e-8),
        (12, 0.5 + 1e-9, 1.5, 5.7e-8),
    ])
    def test_matches_mpmath(self, n, psi, omega, bound):
        params = ModelParams(n, psi, omega)
        exact_delta, exact_d_n = _exact_d_n(n, psi, omega)
        assert _rel(delta(params), exact_delta) <= bound
        assert _rel(d_n(params), exact_d_n) <= bound

    # K_{n-1}'s terms are O(psi) of K_n's largest here, so a sum shifted
    # by K_n's largest term alone would flush them; the guarded grid cell
    # takes the same path.  Bounds are twice the worst measured error of
    # the three, 5.29e-14, 4.41e-14, 9.24e-15 and 1.56e-16
    @pytest.mark.parametrize("n,psi,omega,bound", [
        (5, 1e-200, 2.0, 1.1e-13),
        (64, 1e-300, 1.1, 8.9e-14),
        (5, 1e-320, 3.0, 1.9e-14),
        (20, 1e-250, 0.3, 3.2e-16),
    ])
    def test_tiny_psi_matches_mpmath(self, n, psi, omega, bound):
        params = ModelParams(n, psi, omega)
        exact_delta, exact_d_n = _exact_d_n(n, psi, omega)
        cell = delta_grid(GridSpec((psi,), (omega,), n)).values[0, 0]
        assert _rel(delta(params), exact_delta) <= bound
        assert _rel(d_n(params), exact_d_n) <= bound
        assert _rel(cell, exact_delta) <= bound

    @pytest.mark.parametrize("omega", [1.9, 2.05, 2.2])
    def test_sign_one_ulp_below_psi_half(self, omega):
        # 2 psi - 1 = -2^-53 exactly and 1 - psi rounds to 1/2; mpmath
        # gives Delta = +1.26e285, +6.4e318 and +1.4e350, so D_n > 0 too
        params = ModelParams(64, 0.49999999999999994, omega)
        exact = _exact(64, params.psi, omega)[1]
        assert exact > 0
        if exact > sys.float_info.max:
            assert delta(params) == math.inf
        else:
            assert 0.0 < delta(params) < math.inf
        assert d_n(params) > 0.0


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

    @pytest.mark.parametrize("top", [math.inf, math.nan])
    def test_omega_values_must_be_finite(self, top):
        with pytest.raises(ValueError, match="omega_values"):
            GridSpec(psi_values=(0.2,), omega_values=(1.0, top), n=3)
        with pytest.raises(ValueError, match="omega_values"):
            GridSpec.linspace(3, omega_max=top)

    def test_linspace_rejects_an_infinite_psi_end(self):
        # before numpy spreads it, which would warn
        with pytest.raises(ValueError, match="psi_values"):
            GridSpec.linspace(3, psi_max=math.inf)

    def test_linspace_defaults(self):
        spec = GridSpec.linspace(n=4)
        assert len(spec.psi_values) == 101
        assert spec.psi_values[0] == 0.01 and spec.psi_values[-1] == 0.99
        assert spec.omega_values[0] == 0.05 and spec.omega_values[-1] == 2.0
