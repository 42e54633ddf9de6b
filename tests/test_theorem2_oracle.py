"""Theorem 2 with its strength: the Delta identity behind it as a
polynomial identity (sympy), the sign of pi's slope in log omega at 50
digits (mpmath), and that slope's sign on ``tau1_region_grid``.

``factorization``'s docstring proves that pi = E[Y] / n is strictly
monotone in omega for n >= 2, increasing for psi < 1/2 and decreasing
for psi > 1/2, as dE[Y]/dlog omega = Cov(Y, Y(n-Y)) has the sign of
1 - 2 psi.
"""

from __future__ import annotations

import mpmath as mp
import numpy as np
import pytest
import sympy as sp

from lmbd import GridSpec, tau1_region_grid

import mp_oracle

DPS = 50
# a grid's psi tau_1 may step against the proven direction by rounding
# alone: at most 3.0 ulp of the larger neighbour (n = 20 and 64), where
# the true step is at most 0.62 ulp
REVERSAL_ULPS = 3


@pytest.mark.parametrize("n", range(2, 11))
def test_delta_identity_holds_as_polynomials(n):
    # K_{n-1} - K_n = (psi - 1)(2 psi - 1)(omega - 1) times
    # sum_j C(n-1, j) (psi q)^j S_{d_j} omega^(j (n-j)) [d_j]_omega, with
    # the library's exponent (n-a-i)(i+a) in K_{n-a}; for odd n the sum
    # is (omega + 1) Delta
    psi, omega = sp.symbols("psi omega")
    q = 1 - psi

    def k(a):
        m = n - a
        return sum(sp.binomial(m, i) * psi**i * q**(m - i) * omega**((m - i) * (i + a))
                   for i in range(m + 1))

    total = 0
    for j in range(n // 2):
        d = n - 2 * j - 1
        s_d = sum(psi**i * q**(d - 1 - i) for i in range(d))
        q_integer = sum(omega**i for i in range(d))
        total += sp.binomial(n - 1, j) * (psi * q)**j * s_d * omega**(j * (n - j)) * q_integer
    factors = (psi - 1) * (2 * psi - 1) * (omega - 1)
    assert sp.expand(k(1) - k(0) - total * factors) == 0
    if n % 2:
        assert sp.rem(sp.expand(total), omega + 1, omega) == 0


def _mean_and_cov(n: int, psi: float, log_omega) -> tuple[mp.mpf, mp.mpf]:
    """(E[Y], Cov(Y, Y(n-Y))) at mpmath's working precision, from K_n's
    terms; the law's log omega enters as given, so ``mp.diff`` can vary
    it."""
    lf = mp_oracle.log_factorials(n)
    lp, lq = mp.log(psi), mp.log1p(-mp.mpf(psi))
    logs = [lf[n] - lf[y] - lf[n - y] + y * lp + (n - y) * lq + y * (n - y) * log_omega
            for y in range(n + 1)]
    top = max(logs)
    w = [mp.exp(v - top) for v in logs]
    total = mp.fsum(w)
    ey = mp.fsum(y * v for y, v in enumerate(w)) / total
    eg = mp.fsum(y * (n - y) * v for y, v in enumerate(w)) / total
    eyg = mp.fsum(y * y * (n - y) * v for y, v in enumerate(w)) / total
    return ey, eyg - ey * eg


@pytest.mark.parametrize("n", (2, 5, 64, 65))
def test_pi_slope_in_log_omega_has_the_sign_of_one_minus_two_psi(n):
    # along rays toward both omega edges, out to |log omega| = 8 for
    # small n and 64 / n above: Cov(Y, Y(n-Y)) is E[Y]'s slope in
    # log omega, strictly of the sign of 1 - 2 psi, and 0 at psi = 1/2
    reach = 8.0 if n <= 8 else 64.0 / n
    with mp.workdps(DPS):
        for psi in (0.01, 0.3, 0.5, 0.7, 0.99):
            for log_omega in (s * reach * 4.0 ** -k for s in (-1, 1) for k in range(4)):
                cov = _mean_and_cov(n, psi, mp.mpf(log_omega))[1]
                slope = mp.diff(lambda x: _mean_and_cov(n, psi, x)[0], log_omega)
                if psi == 0.5:
                    assert abs(cov) < 1e-45 and abs(slope) < 1e-45, (log_omega, cov, slope)
                else:
                    # cov is a difference of terms up to n^3, 30 digits
                    # above the smallest cov here
                    assert mp.sign(cov) == mp.sign(1 - 2 * psi), (psi, log_omega, cov)
                    assert abs(slope - cov) <= 1e-15 * abs(cov), (psi, log_omega, cov, slope)


@pytest.mark.parametrize("n", (2, 3, 5, 20, 64, 65, 400, 1000, 2000))
def test_grid_pi_is_monotone_in_omega(n):
    # each psi row of psi tau_1 moves with omega in the direction of the
    # sign of 1 - 2 psi, up to REVERSAL_ULPS of the larger neighbour, and
    # the psi = 1/2 row stays within as many ulps of 1/2.  The default
    # axes send cells through the guard from n = 400 on
    spec = GridSpec.linspace(n)
    psis = np.asarray(spec.psi_values)[:, None]
    pi = psis * tau1_region_grid(spec).values
    before, after = pi[:, :-1], pi[:, 1:]
    step = (after - before) * np.sign(1.0 - 2.0 * psis)
    assert (step >= -REVERSAL_ULPS * np.spacing(np.maximum(before, after))).all()
    half = pi[spec.psi_values.index(0.5)]
    assert (np.abs(half - 0.5) <= REVERSAL_ULPS * np.spacing(0.5)).all()
