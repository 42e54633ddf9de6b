"""``delta_grid`` and ``tau1_region_grid`` against a 50-digit mpmath
oracle, against a per-psi-row reference, and within a memory budget.

The oracle sums K_{n-a} = sum_i C(m, i) psi^i (1-psi)^(m-i)
omega^((m-i)(i+a)), m = n - a, exactly at 50 digits on sampled cells.
n = 1 is left out: there D_1 = K_0 - K_1 is identically 0, so Delta and
tau_1 - 1 are rounding noise in any double evaluation.

The row reference is the grid loop as it was written before the grids
were batched: one psi row at a time through scipy's ``logsumexp``.  The
grids must flag exactly the cells it flags.
"""

from __future__ import annotations

import math
import sys
import tracemalloc

import mpmath as mp
import numpy as np
import pytest
from scipy.special import gammaln, logsumexp, xlogy

from lmbd import GridSpec, delta_grid, tau1_region_grid
from lmbd.factorization import TAU1_TIE_TOL

DPS = 50
NS = (2, 5, 20, 64)
CELLS_PER_GRID = 40
# Delta is compared only away from the singular lines, where its
# division by (2 psi - 1)(omega - 1) does not amplify rounding
DELTA_MARGIN = 0.05


def _seeded_spec(n: int, seed: int) -> GridSpec:
    """101 x 101 axes drawn like the benchmark's seeded grids, with the
    nodes psi = 1/2 and omega = 1 added."""
    u = np.random.default_rng(seed).random(4)
    psis = np.linspace(0.005 + 0.045 * u[0], 0.95 + 0.045 * u[1], 101)
    omegas = np.linspace(0.02 + 0.18 * u[2], 1.5 + 2.5 * u[3], 101)
    return GridSpec(psi_values=tuple(np.union1d(psis, [0.5])),
                    omega_values=tuple(np.union1d(omegas, [1.0])), n=n)


def _specs(n: int) -> list[GridSpec]:
    return [GridSpec.linspace(n), _seeded_spec(n, seed=n)]


def _exact_log_k(n: int, a: int, psi: float, omega: float) -> mp.mpf:
    m = n - a
    p, w = mp.mpf(psi), mp.mpf(omega)
    return mp.log(mp.fsum(
        math.comb(m, i) * p ** i * (1 - p) ** (m - i) * w ** ((m - i) * (i + a))
        for i in range(m + 1)
    ))


def _exact(n: int, psi: float, omega: float) -> tuple[mp.mpf, mp.mpf]:
    """(tau_1, Delta) at one cell off the singular lines."""
    with mp.workdps(DPS):
        la, lb = _exact_log_k(n, 1, psi, omega), _exact_log_k(n, 0, psi, omega)
        p, w = mp.mpf(psi), mp.mpf(omega)
        factors = (p - 1) * (2 * p - 1) * (w - 1) * ((w + 1) if n % 2 else 1)
        return mp.exp(la - lb), (mp.exp(la) - mp.exp(lb)) / factors


def _rel(got: float, exact: mp.mpf) -> float:
    """Relative error; 0 for an infinity of the right sign where the
    exact value lies beyond the double range."""
    if abs(exact) > sys.float_info.max and got == math.copysign(math.inf, exact):
        return 0.0
    return float(abs((mp.mpf(got) - exact) / exact))


@pytest.mark.parametrize("n", NS)
def test_sampled_cells_match_mpmath(n):
    rng = np.random.default_rng(1000 + n)
    for spec in _specs(n):
        tau1, dgrid = tau1_region_grid(spec), delta_grid(spec)
        rows = rng.integers(len(spec.psi_values), size=CELLS_PER_GRID)
        cols = rng.integers(len(spec.omega_values), size=CELLS_PER_GRID)
        for i, j in zip(rows, cols):
            psi, omega = spec.psi_values[i], spec.omega_values[j]
            if psi == 0.5 or omega == 1.0:
                # tau_1 = 1 exactly on the singular lines
                t1, d = mp.mpf(1), None
            else:
                t1, d = _exact(n, psi, omega)
            assert _rel(tau1.values[i, j], t1) <= 1e-12, (n, psi, omega)
            if abs(psi - 0.5) >= DELTA_MARGIN and abs(omega - 1.0) >= DELTA_MARGIN:
                assert _rel(dgrid.values[i, j], d) <= 1e-11, (n, psi, omega)


def _row_reference(spec: GridSpec) -> tuple[np.ndarray, np.ndarray]:
    """(delta flags, tau_1 flags), one psi row at a time."""
    n = spec.n
    omegas = np.asarray(spec.omega_values)
    log_omegas = np.log(omegas)

    def log_k_over_omegas(a, psi):
        m = n - a
        i = np.arange(m + 1)
        coeff = (gammaln(m + 1) - gammaln(i + 1) - gammaln(m - i + 1)
                 + xlogy(i, psi) + xlogy(m - i, 1.0 - psi))
        return logsumexp(coeff[None, :] + np.outer(log_omegas, (m - i) * (i + a)), axis=1)

    delta_flags = np.empty((len(spec.psi_values), len(omegas)), dtype=bool)
    tau1_flags = np.empty_like(delta_flags)
    for row, psi in enumerate(spec.psi_values):
        t1 = np.exp(log_k_over_omegas(1, psi) - log_k_over_omegas(0, psi))
        tau1_flags[row] = t1 <= 1.0 + TAU1_TIE_TOL
        delta_flags[row] = ~((psi == 0.5) | (psi == 1.0) | (omegas == 1.0))
    return delta_flags, tau1_flags


@pytest.mark.parametrize("n", NS)
def test_flags_match_row_reference(n):
    for spec in _specs(n):
        delta_flags, tau1_flags = _row_reference(spec)
        np.testing.assert_array_equal(delta_grid(spec).flags, delta_flags)
        np.testing.assert_array_equal(tau1_region_grid(spec).flags, tau1_flags)
    # the seeded axes carry both singular lines
    assert not delta_flags[list(spec.psi_values).index(0.5)].any()
    assert not delta_flags[:, list(spec.omega_values).index(1.0)].any()


def test_delta_grid_peak_memory():
    # psi rows go through the kernel in blocks; the unblocked
    # 101 x 101 x 65 array alone would be 5.1 MiB
    spec = GridSpec.linspace(64)
    delta_grid(spec)
    tracemalloc.start()
    try:
        base, _ = tracemalloc.get_traced_memory()
        delta_grid(spec)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak - base <= 2 ** 20
