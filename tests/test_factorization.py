import math
import sys
import warnings

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lmbd import (
    GridSpec,
    ModelParams,
    d_n,
    delta,
    delta_grid,
    factorization,
    marginal_pi,
    tau,
    tau1_region_grid,
    theorem2_check,
)
from test_grid_oracle import DPS, _exact, _rel


def hand_d2(psi, omega):
    # exact n=2 factorization: D_2 = (psi-1)(2 psi-1)(omega-1)
    return (psi - 1.0) * (2.0 * psi - 1.0) * (omega - 1.0)


def _is_plus_zero(x: float) -> bool:
    return x == 0.0 and math.copysign(1.0, x) == 1.0


class TestDn:
    def test_independence_gives_zero(self):
        assert _is_plus_zero(d_n(ModelParams(5, 0.3, 1.0)))

    def test_psi_half_gives_zero(self):
        for n in (2, 5, 9):
            assert _is_plus_zero(d_n(ModelParams(n, 0.5, 1.7)))

    @pytest.mark.parametrize("n", [1, 2, 5, 64])
    def test_exactly_plus_zero_on_the_lines(self, n):
        # psi - 1 < 0 elsewhere on each line, so a product of signs
        # would give -0.0; at n = 1, D_1 = K_0 - K_1 = 0 everywhere
        cells = [(0.5, 0.3), (0.5, 1.7), (1.0, 0.3), (1.0, 1.7), (0.3, 1.0), (0.8, 1.0),
                 (0.0, 1.0), (0.5, 1.0), (1.0, 1.0)]
        if n == 1:
            cells += [(0.3, 1.7), (0.8, 0.3), (0.0, 2.0)]
        for psi, omega in cells:
            assert _is_plus_zero(d_n(ModelParams(n, psi, omega))), (psi, omega)

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
    # value) and of the grid cell; the n = 3 cell's 2.3e-15 is a ceiling
    # kept from the earlier path, as the cell now reads 1.0 too
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
        # at n = 64, 1.073 at n = 200); the first three carry the row one
        # ulp below psi = 1/2, the default axes at n = 65 the row on it.
        # Each bound is twice the worst gap between the two: 1.14e-13 at
        # (64, 0.95, 2.025), 7.9e-14 at (64, 0.55, 1.9), 6.2e-14 at
        # (200, 0.35, 1.06) and 1.14e-13 at (65, 0.0296, 1.98)
        for spec, rel in ((GridSpec.linspace(64, 19, 13, 0.05, 0.95, 1.9, 2.2), 2.3e-13),
                          (GridSpec.linspace(64, 19, 13, 0.05, 0.95, 1.9, 4.0), 1.6e-13),
                          (GridSpec.linspace(200, 19, 13, 0.05, 0.95, 1.01, 1.61), 1.3e-13),
                          (GridSpec.linspace(65), 2.3e-13)):
            grid = delta_grid(spec)
            infinite = 0
            for i, psi in enumerate(spec.psi_values):
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
    """(Delta, D_n) at 50 digits; D_n = 0 on the lines."""
    exact_delta = _exact(n, psi, omega)[1]
    with mp.workdps(DPS):
        p, w = mp.mpf(psi), mp.mpf(omega)
        return exact_delta, exact_delta * (p - 1) * (2 * p - 1) * (w - 1) * ((w + 1) if n % 2 else 1)


HALF_ULP_BELOW = 0.49999999999999994
NEAR_LINE_CELLS = [
    (psi, omega)
    for psi in (0.0, 0.3, HALF_ULP_BELOW, 0.5 - 1e-12, 0.5, 0.5 + 1e-12, 1 - 1e-12, 1.0)
    for omega in (0.5, 1 - 1e-12, 1.0, 1 + 1e-12, 1.3)]


class TestScalarOracle:
    # ceilings on the relative error of delta and d_n, kept as they were
    # when D_n was divided by the linear factors (they name the tests).
    # Both now read within 1.82e-14, 3.17e-14, 9.49e-15, 7.88e-13,
    # 1.22e-14 and 3.89e-15: the last two lie 1e-9 from omega = 1 and
    # psi = 1/2, where no term of Delta's sum cancels.
    # ``test_matches_mpmath_on_and_near_the_lines`` holds each n to twice
    # its measured worst error
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

    # the lines psi in {1/2, 1} and omega = 1, their corners, psi = 0,
    # one ulp below 1/2, and 1e-12 from each line.  Each bound is twice
    # the worst relative error of delta and d_n over these points, where
    # the oracle's D_n is not 0 (d_n must then be +0.0).  From n = 200 on
    # the error is that of log C(n - 1, j) and of j (n - j) log omega,
    # whose size the log-domain sum carries into every digit of Delta
    @pytest.mark.parametrize("n,bound", [
        (2, 1.7e-14), (3, 1.6e-14), (4, 2.0e-14), (5, 1.2e-14), (12, 9.9e-15), (13, 2.3e-14),
        (64, 1.3e-13), (65, 1.1e-13), (200, 6.2e-13), (201, 1.1e-12), (999, 2.1e-12),
        (1000, 9.8e-13),
    ])
    def test_matches_mpmath_on_and_near_the_lines(self, n, bound):
        # n = 999 and 1000 take every third cell, as the oracle's K sums
        # cost some 75 ms a cell there
        for psi, omega in NEAR_LINE_CELLS[::1 if n < 999 else 3]:
            params = ModelParams(n, psi, omega)
            exact_delta, exact_d_n = _exact_d_n(n, psi, omega)
            assert _rel(delta(params), exact_delta) <= bound, (psi, omega)
            if exact_d_n == 0:
                assert _is_plus_zero(d_n(params)), (psi, omega)
            else:
                assert _rel(d_n(params), exact_d_n) <= bound, (psi, omega)

    # every term past j = 0 carries (psi q)^j, so these weigh terms as
    # small as psi^j against the first.  The bounds are ceilings kept
    # from the earlier path (they name the tests): delta, d_n and the cell
    # now read within 4.74e-16, 6.08e-16, 3.55e-16 and 1.04e-16
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
        params = ModelParams(64, HALF_ULP_BELOW, omega)
        exact = _exact(64, params.psi, omega)[1]
        assert exact > 0
        if exact > sys.float_info.max:
            assert delta(params) == math.inf
        else:
            assert 0.0 < delta(params) < math.inf
        assert d_n(params) > 0.0


def _line_delta(n: int, psi: float, omega: float) -> mp.mpf:
    """Delta on the lines, from the K sums by L'Hopital's rule: in omega
    at omega = 1, in psi at psi = 1/2 and at psi = 1 (where only the
    y = n and y = n - 1 terms of K_n move)."""
    with mp.workdps(DPS):
        if omega == 1.0:
            return mp.mpf(n - 1) / (1 + n % 2)
        w = mp.mpf(omega)
        col = (w - 1) * ((w + 1) if n % 2 else 1)
        if psi == 1.0:
            return (w ** (n - 1) - 1) / col
        assert psi == 0.5
        return 2 * mp.fsum(mp.binomial(n, y) * (n - (2 * y - n) ** 2) * w ** (y * (n - y))
                           for y in range(n + 1)) / (2 ** n * n * col)


class TestDelta:
    def test_n2_is_one_everywhere_defined(self):
        for psi in (0.0, 0.1, 0.3, 0.5, 0.7, 0.9, 1.0):
            for omega in (0.2, 0.9, 1.0, 1.4, 2.0):
                assert delta(ModelParams(2, psi, omega)) == pytest.approx(
                    1.0, rel=1e-10)

    @pytest.mark.parametrize("n", [4, 5, 9, 12])
    def test_positive_on_spec_example_grid(self, n):
        for psi in np.arange(0.1, 0.95, 0.2):
            for omega in np.arange(0.2, 1.85, 0.4):
                assert delta(ModelParams(n, psi, omega)) > 0.0

    # each bound is twice the worst relative error over the cells
    @pytest.mark.parametrize("n,bound", [
        (4, 1.1e-15), (5, 2.2e-15), (12, 5.8e-15), (13, 4.9e-15), (64, 7.0e-14),
    ])
    def test_lines_read_closed_forms(self, n, bound):
        # at omega = 1, Delta = 3 for n = 4 and 2 for n = 5, at every psi
        cells = ([(psi, 1.0) for psi in (0.0, 0.3, 0.5, 0.8, 1.0)]
                 + [(psi, omega) for psi in (0.5, 1.0) for omega in (0.3, 1.7)])
        for psi, omega in cells:
            got = delta(ModelParams(n, psi, omega))
            assert _rel(got, _line_delta(n, psi, omega)) <= bound, (psi, omega)

    @settings(max_examples=300, deadline=None)
    @given(n=st.integers(2, 300), psi=st.floats(0.0, 1.0), omega=st.floats(1e-3, 1e3))
    def test_positive_and_d_n_has_the_sign_of_the_factors(self, n, psi, omega):
        # Delta >= 2^-298 for n <= 300 (its j = 0 term alone), so neither
        # Delta nor D_n underflows; the kernel's tau_1 decides the sign
        # independently wherever it is clear of 1
        params = ModelParams(n, psi, omega)
        assert delta(params) > 0.0
        sign = np.sign(psi - 1.0) * np.sign(2.0 * psi - 1.0) * np.sign(omega - 1.0)
        got = d_n(params)
        if sign == 0.0:
            assert _is_plus_zero(got)
        else:
            assert got != 0.0 and math.copysign(1.0, got) == sign
        t1 = tau(1, params)
        if abs(t1 - 1.0) > 1e-9:
            assert (t1 > 1.0) == (sign > 0.0)

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
        # the cells where the linear factors vanish hold Delta's closed
        # forms and are flagged Delta > 0 like every other; at n = 1,
        # Delta = 0 and no cell is flagged.  The bound is twice the worst
        # relative error, 4.4e-16
        spec = GridSpec(psi_values=(0.3, 0.5, 0.7, 1.0),
                        omega_values=(0.5, 1.0, 1.5), n=4)
        grid = delta_grid(spec)
        assert grid.flags.all()
        for i, psi in enumerate(spec.psi_values):
            for j, omega in enumerate(spec.omega_values):
                if psi in (0.5, 1.0) or omega == 1.0:
                    assert _rel(grid.values[i, j], _line_delta(4, psi, omega)) <= 8.9e-16
        np.testing.assert_allclose(grid.values[:, 1], 3.0, rtol=8.9e-16)
        # Delta(1/2, omega) = (3/4)(1 + omega + omega^2 + omega^3) at n = 4
        np.testing.assert_allclose(grid.values[1], [1.40625, 3.0, 6.09375], rtol=8.9e-16)
        np.testing.assert_allclose(delta_grid(GridSpec((0.3, 0.5), (1.0,), 5)).values, 2.0,
                                   rtol=8.9e-16)
        at_one = delta_grid(GridSpec(spec.psi_values, spec.omega_values, 1))
        assert (at_one.values == 0.0).all() and not at_one.flags.any()


class TestTau1RegionGrid:
    def test_omega_one_column_is_boundary(self):
        spec = GridSpec(psi_values=(0.2, 0.5, 0.8), omega_values=(1.0,), n=5)
        grid = tau1_region_grid(spec)
        np.testing.assert_allclose(grid.values[:, 0], 1.0, atol=1e-12)
        assert grid.flags.all()  # ties flagged as <=

    def test_psi_one_row_and_n_one_are_flagged(self):
        # D_n = 0 there: tau_1 = 1, and at n = 1 exactly, as
        # tau_1 = K_0 / K_1 = 1 at every (psi, omega), psi = 0 and 1 included
        spec = GridSpec(psi_values=(0.2, 0.8, 1.0), omega_values=(0.5, 1.5), n=5)
        assert tau1_region_grid(spec).flags[2].all()
        rng = np.random.default_rng(1)
        seeded = [GridSpec(tuple(np.unique(rng.random(k)).tolist()) + (1.0,),
                           tuple(np.unique(np.exp(rng.normal(0.0, 2.0, k))).tolist()), 1)
                  for k in (7, 40, 101)]
        for at_one in (GridSpec(spec.psi_values, spec.omega_values, 1), GridSpec.linspace(1),
                       GridSpec.linspace(1, 101, 101, 0.0, 1.0, 0.05, 4.0), *seeded):
            grid = tau1_region_grid(at_one)
            assert grid.flags.all()
            assert (grid.values == 1.0).all()

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

    def test_edges_read_the_sign(self):
        # psi tau_1 - psi for a subnormal psi can round to 0; its sign
        # cannot.  D_1 = 0, and psi = 1 is a tie
        assert theorem2_check(ModelParams(5, 5e-324, 2.0)).relation == "<"
        assert theorem2_check(ModelParams(5, 5e-324, 0.5)).relation == ">"
        assert theorem2_check(ModelParams(1, 0.3, 2.0)).relation == "="
        assert theorem2_check(ModelParams(5, 1.0, 2.0)).relation == "="

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

    def test_linspace_axes_are_python_floats(self):
        spec = GridSpec.linspace(5, 11, 7, 0.05, 0.95, 0.5, 2.5)
        for axis, expect in ((spec.psi_values, np.linspace(0.05, 0.95, 11)),
                             (spec.omega_values, np.linspace(0.5, 2.5, 7))):
            assert type(axis) is tuple and {type(v) for v in axis} == {float}
            assert np.array(axis).tobytes() == expect.tobytes()

    @pytest.mark.parametrize("steps", [1, 2, 3, 101, 1001])
    @pytest.mark.parametrize("ends", [(0.05, 0.95, 0.5, 2.5), (0.01, 0.99, 0.05, 2.0),
                                      (0.0, 1.0, 1e-3, 40.0),
                                      (0.5, 0.5 + 1e-9, 1.0, 1.0 + 1e-9)],
                             ids=["mid", "default", "wide", "narrow"])
    def test_linspace_axes_are_numpy_linspace_bits(self, steps, ends):
        psi_min, psi_max, omega_min, omega_max = ends
        spec = GridSpec.linspace(5, steps, steps + 1, *ends)
        for axis, expect in ((spec.psi_values, np.linspace(psi_min, psi_max, steps)),
                             (spec.omega_values, np.linspace(omega_min, omega_max, steps + 1))):
            assert type(axis) is tuple and {type(v) for v in axis} == {float}
            assert np.array(axis).tobytes() == expect.tobytes()

    def test_linspace_one_step_with_equal_ends(self):
        spec = GridSpec.linspace(5, 1, 1, 0.3, 0.3, 2.0, 2.0)
        assert spec.psi_values == (0.3,) and spec.omega_values == (2.0,)

    @pytest.mark.parametrize("start, stop, steps", [(0.0, 5e-324, 3), (0.0, 1e-323, 5),
                                                    (5e-324, 1.5e-323, 5)])
    def test_linspace_step_that_rounds_to_zero(self, start, stop, steps):
        # np.linspace divides arange(steps) by steps - 1 first where the step
        # (stop - start) / (steps - 1) rounds to 0; the nodes repeat, which
        # GridSpec rejects with the first repeated pair
        nodes = factorization._linspace(start, stop, steps)
        assert nodes.tobytes() == np.linspace(start, stop, steps).tobytes()
        with pytest.raises(ValueError, match=r"^psi_values must be strictly increasing, "
                                             r"got 0\.0 after 0\.0$"):
            GridSpec.linspace(3, steps, 1, 0.0, stop - start)
        with pytest.raises(ValueError, match=r"^omega_values must be strictly increasing, "
                                             r"got 5e-324 after 5e-324$"):
            GridSpec.linspace(3, 1, steps, 0.1, 0.2, 5e-324, 5e-324 + (stop - start))

    def test_linspace_defaults(self):
        spec = GridSpec.linspace(n=4)
        assert len(spec.psi_values) == 101
        assert spec.psi_values[0] == 0.01 and spec.psi_values[-1] == 0.99
        assert spec.omega_values[0] == 0.05 and spec.omega_values[-1] == 2.0
