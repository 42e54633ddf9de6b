"""``delta_grid`` and ``tau1_region_grid`` against a 50-digit mpmath
oracle, against closed forms on the psi = 0 and psi = 1 rows, against a
per-psi-row reference, within a memory budget, and bit for bit across
BLAS thread counts.

The oracle sums K_{n-a} = sum_i C(m, i) psi^i (1-psi)^(m-i)
omega^((m-i)(i+a)), m = n - a, exactly at 50 digits on sampled cells.
n = 1 is left out: there D_1 = K_0 - K_1 is identically 0, so Delta and
tau_1 - 1 are rounding noise in any double evaluation.  From n = 200 on
some cells leave the grid's sum of products for its guard, which reads
them off their own kernel rows; cells are sampled from both paths.

The row reference is the grid loop as it was written before the grids
were batched: one psi row at a time through scipy's ``logsumexp``.  The
grids must flag exactly the cells it flags.
"""

from __future__ import annotations

import math
import os
import subprocess
import sys
import tracemalloc

import mpmath as mp
import numpy as np
import pytest
from scipy.special import gammaln, logsumexp, xlogy

from lmbd import GridSpec, delta_grid, factorization, tau1_region_grid
from lmbd.core import _log_kn_tau, _log_weights
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
    p_pow, q_pow = [mp.mpf(1)], [mp.mpf(1)]
    for _ in range(m):
        p_pow.append(p_pow[-1] * p)
        q_pow.append(q_pow[-1] * (1 - p))
    # omega^((m-i)(i+a)) gains the factor omega^(m-1-a-2i) from i to i+1
    w_pow, w_step, w_down = w ** (m * a), w ** (m - 1 - a), w ** -2
    terms = []
    for i in range(m + 1):
        terms.append(math.comb(m, i) * p_pow[i] * q_pow[m - i] * w_pow)
        w_pow *= w_step
        w_step *= w_down
    return mp.log(mp.fsum(terms))


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


def _guard_mask(spec: GridSpec, monkeypatch) -> np.ndarray:
    """The cells both grids send through their guard: ``_log_k_cells``
    for tau_1, ``_divided_d_n`` for Delta."""
    psis = np.asarray(spec.psi_values)
    log_omegas = np.log(np.asarray(spec.omega_values))
    masks = []

    def recording(reader):
        mask = np.zeros((len(psis), len(log_omegas)), dtype=bool)
        masks.append(mask)

        def recorded(n, cell_psis, cell_log_omegas, *rest):
            mask[np.searchsorted(psis, cell_psis),
                 np.searchsorted(log_omegas, cell_log_omegas)] = True
            return reader(n, cell_psis, cell_log_omegas, *rest)
        return recorded

    with monkeypatch.context() as m:
        m.setattr(factorization, "_log_k_cells", recording(factorization._log_k_cells))
        m.setattr(factorization, "_divided_d_n", recording(factorization._divided_d_n))
        tau1_region_grid(spec)
        delta_grid(spec)
    np.testing.assert_array_equal(masks[0], masks[1])
    return masks[0]


def _log_sum_exp_cells(n: int, psis: np.ndarray, log_omegas: np.ndarray):
    """(log K_n, tau_1) at the cells (psis[k], log_omegas[k]) by a
    log-sum-exp over each cell's kernel row (``core._log_kn_tau``): the
    numerics of the tau_1 guard, with log K_n kept."""
    parts = [_log_kn_tau(1, _log_weights(n, p[:, None], w[:, None]), p, w)
             for p, w in factorization._cell_blocks(n, psis, log_omegas)]
    log_kn, log_tau1 = map(np.concatenate, zip(*parts))
    with np.errstate(over="ignore"):
        return log_kn, np.exp(log_tau1)


def _rel_normal(got: float, exact: mp.mpf) -> float:
    """``_rel``, with an exact value below the normal double range
    compared to the smallest normal double instead."""
    if abs(exact) < sys.float_info.min:
        return float(abs(mp.mpf(got) - exact) / sys.float_info.min)
    return _rel(got, exact)


LARGE_NS = (200, 400, 1000)
CELLS_PER_PATH = 4
# (tau_1, Delta) bounds per n and path (guarded or not): twice the worst
# relative error, on these same cells, of two log-sum-exp passes over
# every cell, one for K_{n-1} and one for K_n
LARGE_N_BOUNDS = {
    200: {False: (1.4e-12, 2.4e-14), True: (2.4e-13, 2.5e-14)},
    400: {False: (5.9e-12, 1.1e-13), True: (2.5e-12, 8.8e-14)},
    1000: {False: (3.2e-11, 1.1e-13), True: (1.6e-11, 2.0e-13)},
}


def _large_n_cells(spec: GridSpec, monkeypatch, rng) -> list[tuple[int, int, bool]]:
    """(row, column, guarded) of CELLS_PER_PATH cells from each path,
    off the singular lines."""
    guard = _guard_mask(spec, monkeypatch)
    psis = np.asarray(spec.psi_values)
    omegas = np.asarray(spec.omega_values)
    off = (psis[:, None] != 0.5) & (omegas != 1.0)
    cells = []
    for path in (True, False):
        cand = np.argwhere(off & (guard == path))
        assert len(cand) >= CELLS_PER_PATH, (spec.n, path)
        pick = cand[rng.choice(len(cand), size=CELLS_PER_PATH, replace=False)]
        cells += [(i, j, path) for i, j in pick]
    return cells


@pytest.mark.parametrize("n", LARGE_NS)
def test_large_n_cells_match_mpmath_on_both_paths(n, monkeypatch):
    rng = np.random.default_rng(2000 + n)
    for spec in _specs(n):
        tau1, dgrid = tau1_region_grid(spec), delta_grid(spec)
        for i, j, guarded in _large_n_cells(spec, monkeypatch, rng):
            psi, omega = spec.psi_values[i], spec.omega_values[j]
            t1, d = _exact(n, psi, omega)
            where = (n, psi, omega, guarded)
            tau1_bound, delta_bound = LARGE_N_BOUNDS[n][guarded]
            assert _rel_normal(tau1.values[i, j], t1) <= tau1_bound, where
            if abs(psi - 0.5) >= DELTA_MARGIN and abs(omega - 1.0) >= DELTA_MARGIN:
                assert _rel_normal(dgrid.values[i, j], d) <= delta_bound, where


@pytest.mark.parametrize("n", (200, 400))
def test_every_cell_agrees_with_the_log_sum_exp_path(n):
    # the sampled cells above miss most of a grid; here every cell of the
    # sums of products is held to a log-sum-exp over its kernel row, whose
    # own error at n = 400 reaches some 5e-12 of tau_1
    spec = _seeded_spec(n, seed=n)
    psis = np.asarray(spec.psi_values)
    log_omegas = np.log(np.asarray(spec.omega_values))
    s0, s1, a_top, b_top = factorization._grid_sums(n, psis, log_omegas)
    summed = np.ones(s0.shape, dtype=bool)
    summed[factorization._guarded(s0, s1)] = False
    rows, cols = np.nonzero(summed)
    log_kn = a_top[rows] + b_top[cols] + np.log(s0[rows, cols])
    tau1 = s1[rows, cols] / (n * psis[rows] * s0[rows, cols])
    ref_log_kn, ref_tau1 = _log_sum_exp_cells(n, psis[rows], log_omegas[cols])
    np.testing.assert_allclose(tau1, ref_tau1, rtol=1e-10, atol=0)
    np.testing.assert_allclose(log_kn, ref_log_kn, rtol=1e-13, atol=1e-13)


# (tau_1, Delta) bounds per n: twice the worst error over every cell of
# the seeded axes that is neither singular nor guarded, measured against
# ``_log_sum_exp_cells`` + ``_divided_excess``.  tau_1's error is relative.
# Delta's is its error in D_n over K_{n-1} + K_n, since Delta's own
# relative error near the singular lines is the cancellation in
# tau_1 - 1 that both paths share (1e-10 at psi = 0.4996 in the
# reference), and at n = 1 the exact Delta is 0.
SUMS_BOUNDS = {
    1: (6.7e-16, 3.4e-16),
    2: (2.9e-15, 1.4e-15),
    3: (4.5e-15, 2.8e-15),
    5: (7.0e-15, 3.8e-15),
    20: (2.5e-14, 3.7e-14),
    64: (1.4e-13, 2.2e-13),
    200: (2.9e-13, 2.9e-13),
}


@pytest.mark.parametrize("n", SUMS_BOUNDS)
def test_summed_cells_match_the_log_domain_path(n):
    # the fold over i <-> n-i and Delta read off the product sums, on
    # odd and even n and the one-term fold at n = 1; at n = 64 and 200
    # the axes reach omega columns whose factor leaves the double range
    spec = _seeded_spec(n, seed=n)
    psis = np.asarray(spec.psi_values)
    omegas = np.asarray(spec.omega_values)
    log_omegas = np.log(omegas)
    s0, s1, _, _ = factorization._grid_sums(n, psis, log_omegas)
    dgrid = delta_grid(spec)
    summed = dgrid.flags.copy()
    summed[factorization._guarded(s0, s1)] = False
    rows, cols = np.nonzero(summed)
    log_kn, tau1 = _log_sum_exp_cells(n, psis[rows], log_omegas[cols])
    row, col_sign, log_col = factorization._factors(n, psis[rows], omegas[cols])
    ref = factorization._divided_excess(log_kn, tau1 - 1.0, row, col_sign, log_col)
    got = dgrid.values[rows, cols]
    tau1_bound, delta_bound = SUMS_BOUNDS[n]
    rel = np.abs(tau1_region_grid(spec).values[rows, cols] - tau1) / tau1
    assert rel.max() <= tau1_bound
    infinite = np.isinf(ref)
    np.testing.assert_array_equal(got[infinite], ref[infinite])
    with np.errstate(divide="ignore", invalid="ignore"):
        err = np.exp(np.log(np.abs(got - ref)) + np.log(np.abs(row)) + log_col
                     - log_kn - np.log1p(tau1))
    assert err[~infinite].max() <= delta_bound


@pytest.mark.parametrize("n", (5, 20, 64, 100))
def test_default_axes_need_no_log_sum_exp(n, monkeypatch):
    # no cell of either grid takes its guard's per-cell kernel row; at
    # n = 100 the default axes reach omega columns whose factor
    # omega^floor(n^2 / 4) leaves the double range, and they stay on the
    # sums
    spec = GridSpec.linspace(n)
    assert not _guard_mask(spec, monkeypatch).any()


@pytest.mark.parametrize("n", (2, 5, 20, 64, 200))
def test_psi_edge_rows_match_closed_forms(n):
    # K_n = 1 and tau_1 = omega^(n-1) at psi = 0, so Delta there is
    # (omega^(n-1) - 1) / ((omega - 1)(omega + 1 if n odd)); tau_1 = 1 at
    # psi = 1
    base = GridSpec.linspace(n)
    spec = GridSpec(psi_values=(0.0,) + base.psi_values + (1.0,),
                    omega_values=base.omega_values, n=n)
    tau1, dgrid = tau1_region_grid(spec), delta_grid(spec)
    assert (tau1.values[-1] == 1.0).all()
    with mp.workdps(DPS):
        for j, omega in enumerate(spec.omega_values):
            w = mp.mpf(omega)
            assert _rel(tau1.values[0, j], w ** (n - 1)) <= 1e-12, (n, omega)
            if abs(omega - 1.0) >= DELTA_MARGIN:
                d = (w ** (n - 1) - 1) / ((w - 1) * ((w + 1) if n % 2 else 1))
                assert _rel(dgrid.values[0, j], d) <= 1e-12, (n, omega)


_GRID_DIGEST = """
import hashlib
from lmbd import GridSpec, delta_grid, tau1_region_grid
spec = GridSpec.linspace(400)
digest = hashlib.sha256()
for grid in (tau1_region_grid(spec), delta_grid(spec)):
    digest.update(grid.values.tobytes())
print(digest.hexdigest())
"""


def test_grid_bits_do_not_depend_on_blas_threads():
    digests = set()
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.path.dirname(os.path.dirname(factorization.__file__)))
        out = subprocess.run([sys.executable, "-c", _GRID_DIGEST], env=env,
                             capture_output=True, text=True, check=True)
        digests.add(out.stdout.strip())
    assert len(digests) == 1, digests


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
