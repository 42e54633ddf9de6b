"""``delta_grid`` and ``tau1_region_grid`` against a 50-digit mpmath
oracle, against closed forms on the psi = 0 and psi = 1 rows, against a
per-psi-row reference, within a memory budget, and bit for bit across
BLAS thread counts.

The oracle sums K_{n-a} = sum_i C(m, i) psi^i (1-psi)^(m-i)
omega^((m-i)(i+a)), m = n - a, exactly at 50 digits on sampled cells,
and takes Delta's limit onto the lines psi in {1/2, 1} and omega = 1.
n = 1 is left out of it: there D_1 = K_0 - K_1 is identically 0, and
so is Delta.  From n = 200 on some cells leave a grid's sum of products
for its guard's log-sum-exp; cells are sampled from both paths.

The row reference is the tau_1 grid loop as it was written before the
grids were batched: one psi row at a time through scipy's
``logsumexp``.  The grid must flag every cell where its tau_1 is clear
of 1 as it does.
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
from lmbd.core import _log_sum, _log_tau, _log_weights, _logit

import mp_oracle


DPS = 50
LIMIT_STEP = mp.mpf("1e-40")
LIMIT_DPS = 120
NS = (2, 5, 20, 64)
CELLS_PER_GRID = 40
# twice the worst relative error of a sampled Delta cell, 9.6e-14 at
# (64, 0.5012, 1.957); the cells include the lines psi = 1/2 and omega = 1
SAMPLED_DELTA_BOUND = 1.9e-13


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


def _exact(n: int, psi: float, omega: float) -> tuple[mp.mpf, mp.mpf]:
    """(tau_1, Delta) at one cell, from the two K sums.  On the lines
    psi in {1/2, 1} and omega = 1, where Delta is 0/0, both are taken at
    a point a step inside, at LIMIT_DPS digits or more: Delta is a
    polynomial, so that moves it by O(LIMIT_STEP) of itself."""
    on_line = psi in (0.5, 1.0) or omega == 1.0
    # a step h below psi = 1 adds terms of order (n h omega^n)^j to
    # Delta, so the step shrinks by n omega^n there, and the digits grow
    scale = math.log10(n) + n * math.log10(max(omega, 1.0)) if psi == 1.0 else 0.0
    with mp.workdps(LIMIT_DPS + int(2 * scale) if on_line else DPS):
        p, w = mp.mpf(psi), mp.mpf(omega)
        if psi in (0.5, 1.0):
            p -= LIMIT_STEP / mp.mpf(10) ** scale
        if omega == 1.0:
            w += LIMIT_STEP
        la, lb = mp_oracle.log_k(n, 1, p, w), mp_oracle.log_k(n, 0, p, w)
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
            t1, d = _exact(n, psi, omega)
            assert _rel(tau1.values[i, j], t1) <= 1e-12, (n, psi, omega)
            if abs(t1 - 1) > 1e-12:
                assert tau1.flags[i, j] == (t1 <= 1), (n, psi, omega)
            assert _rel(dgrid.values[i, j], d) <= SAMPLED_DELTA_BOUND, (n, psi, omega)


def _guard_masks(spec: GridSpec, monkeypatch) -> tuple[np.ndarray, np.ndarray]:
    """The cells each grid sends through its guard's log-sum-exp:
    (``_log_k_cells`` of tau1_region_grid, ``_log_delta_cells`` of
    delta_grid)."""
    psis = np.asarray(spec.psi_values)
    log_omegas = np.log(np.asarray(spec.omega_values))
    tau1_mask = np.zeros((len(psis), len(log_omegas)), dtype=bool)
    delta_mask = np.zeros_like(tau1_mask)
    log_k_cells, log_delta_cells = factorization._log_k_cells, factorization._log_delta_cells

    def tau1_cells(n, cell_psis, cell_log_omegas):
        tau1_mask[np.searchsorted(psis, cell_psis),
                  np.searchsorted(log_omegas, cell_log_omegas)] = True
        return log_k_cells(n, cell_psis, cell_log_omegas)

    def delta_cells(table_a, table_b, rows, cols):
        delta_mask[rows, cols] = True
        return log_delta_cells(table_a, table_b, rows, cols)

    with monkeypatch.context() as m:
        m.setattr(factorization, "_log_k_cells", tau1_cells)
        m.setattr(factorization, "_log_delta_cells", delta_cells)
        tau1_region_grid(spec)
        delta_grid(spec)
    return tau1_mask, delta_mask


def _log_sum_exp_cells(n: int, psis: np.ndarray, log_omegas: np.ndarray) -> np.ndarray:
    """tau_1 at the cells (psis[k], log_omegas[k]) by a log-sum-exp over
    each cell's kernel row (``core._log_tau``): the numerics of the
    tau_1 guard."""
    log_tau1 = []
    for p, w in factorization._blocks(n + 1, psis, log_omegas):
        row = _log_weights(n, _logit(p)[:, None], w[:, None])[1]
        log_tau1.append(_log_tau(1, row, _log_sum(row), p, w))
    log_tau1 = np.concatenate(log_tau1)
    with np.errstate(over="ignore"):
        return np.exp(log_tau1)


def _rel_normal(got: float, exact: mp.mpf) -> float:
    """``_rel``, with an exact value below the normal double range
    compared to the smallest normal double instead."""
    if abs(exact) < sys.float_info.min:
        return float(abs(mp.mpf(got) - exact) / sys.float_info.min)
    return _rel(got, exact)


LARGE_NS = (200, 400, 1000)
CELLS_PER_PATH = 4
# (tau_1, Delta) bounds per n and path (guarded or not), each twice its
# own worst relative error on its cells: tau_1 summed 2.0e-14, 1.9e-14
# and 2.4e-16 and guarded 5.8e-14, 3.4e-14 and 4.8e-14 at n = 200, 400
# and 1000, with tau's falling-factorial row summed in an 80-bit
# np.longdouble (in double the guarded worst at n = 1000 reads 3.9e-14,
# the rest unmeasured).  At n = 200 Delta's guarded cells all lie beyond the double
# range; at n = 1000 its unguarded bound would be 1.7e-13 and the
# earlier 1.1e-13 holds
LARGE_N_BOUNDS = {
    200: {False: (4.1e-14, 2.4e-14), True: (1.2e-13, 0.0)},
    400: {False: (3.9e-14, 7.6e-15), True: (7.0e-14, 2.1e-14)},
    1000: {False: (4.8e-16, 1.1e-13), True: (9.6e-14, 5.2e-14)},
}


def _pick(mask: np.ndarray, rng) -> np.ndarray:
    """Up to CELLS_PER_PATH (row, column) pairs of ``mask``'s cells."""
    cand = np.argwhere(mask)
    return cand[rng.choice(len(cand), size=min(CELLS_PER_PATH, len(cand)), replace=False)]


@pytest.mark.parametrize("n", LARGE_NS)
def test_large_n_cells_match_mpmath_on_both_paths(n, monkeypatch):
    rng = np.random.default_rng(2000 + n)
    delta_guarded = 0
    for spec in _specs(n):
        tau1, dgrid = tau1_region_grid(spec), delta_grid(spec)
        tau1_mask, delta_mask = _guard_masks(spec, monkeypatch)
        for path in (True, False):
            # tau_1 takes both paths on every grid here; Delta's guard
            # is rarer
            tau1_cells = _pick(tau1_mask == path, rng)
            assert len(tau1_cells) == CELLS_PER_PATH, (n, path)
            delta_cells = _pick(delta_mask == path, rng)
            delta_guarded += path * len(delta_cells)
            tau1_bound, delta_bound = LARGE_N_BOUNDS[n][path]
            for (i, j), grid, bound, part in ([(c, tau1, tau1_bound, 0) for c in tau1_cells]
                                              + [(c, dgrid, delta_bound, 1) for c in delta_cells]):
                psi, omega = spec.psi_values[i], spec.omega_values[j]
                exact = _exact(n, psi, omega)[part]
                assert _rel_normal(grid.values[i, j], exact) <= bound, (n, psi, omega, path)
    assert delta_guarded > 0


@pytest.mark.parametrize("n", (200, 400))
def test_every_cell_agrees_with_the_log_sum_exp_path(n):
    # the sampled cells above miss most of a grid; here every cell of the
    # sums of products is held to a log-sum-exp over its kernel row, at
    # twice their worst gap: 6.5e-14 at n = 200 and 6.9e-14 at n = 400
    spec = _seeded_spec(n, seed=n)
    psis = np.asarray(spec.psi_values)
    log_omegas = np.log(np.asarray(spec.omega_values))
    s0, s1 = factorization._grid_sums(n, psis, log_omegas)
    summed = np.ones(s0.shape, dtype=bool)
    summed[factorization._guarded(s0, s1)] = False
    rows, cols = np.nonzero(summed)
    tau1 = s1[rows, cols] / (n * psis[rows] * s0[rows, cols])
    ref_tau1 = _log_sum_exp_cells(n, psis[rows], log_omegas[cols])
    np.testing.assert_allclose(tau1, ref_tau1, rtol=1.4e-13, atol=0)


# (tau_1, Delta) bounds per n: twice the worst relative error over every
# cell of the seeded axes that neither grid guards, tau_1 against
# ``_log_sum_exp_cells`` and Delta against a log-sum-exp over each
# cell's terms in the same two tables, taken in np.longdouble: a double
# log of Delta near 600 is only good to ulp(600) = 1.1e-13, which would
# hide the grid's own error.  At n = 64 and 200 the worst cells lie in
# the columns scaled in the log domain, whose exponent near 709 rounds
# to ulp(709) / 2.  Delta = 0 at n = 1 and 1 at n = 2, 3, exactly.
SUMS_BOUNDS = {
    1: (6.7e-16, 0.0),
    2: (2.9e-15, 0.0),
    3: (4.5e-15, 0.0),
    5: (7.0e-15, 7.9e-16),
    20: (2.5e-14, 2.9e-15),
    64: (1.4e-13, 1.3e-13),
    200: (2.9e-13, 1.2e-13),
}


@pytest.mark.parametrize("n", SUMS_BOUNDS)
def test_summed_cells_match_the_log_domain_path(n, monkeypatch):
    # the fold over i <-> n-i, odd and even n, the one-term fold at n = 1
    # and Delta's sums of products; at n = 64 and 200 the axes reach
    # omega columns whose factor leaves the double range
    spec = _seeded_spec(n, seed=n)
    psis = np.asarray(spec.psi_values)
    omegas = np.asarray(spec.omega_values)
    dgrid = delta_grid(spec)
    tau1_mask, delta_mask = _guard_masks(spec, monkeypatch)
    rows, cols = np.nonzero(~(tau1_mask | delta_mask))
    tau1_bound, delta_bound = SUMS_BOUNDS[n]
    if n < 4:
        assert (dgrid.values == float(n > 1)).all() and (dgrid.flags == (n > 1)).all()
    else:
        tables = factorization._delta_tables(n, psis, omegas)
        log_ref = factorization._log_delta_cells(*(t.astype(np.longdouble) for t in tables),
                                                 rows, cols)
        got = dgrid.values[rows, cols]
        finite = np.isfinite(got)
        np.testing.assert_array_equal(got[~finite], np.inf)
        assert (log_ref[~finite] > math.log(sys.float_info.max)).all()
        err = np.abs(np.expm1(np.log(got[finite].astype(np.longdouble)) - log_ref[finite]))
        assert err.max() <= delta_bound
    tau1 = _log_sum_exp_cells(n, psis[rows], np.log(omegas[cols]))
    rel = np.abs(tau1_region_grid(spec).values[rows, cols] - tau1) / tau1
    assert rel.max() <= tau1_bound


@pytest.mark.parametrize("n", (5, 20, 64, 100))
def test_default_axes_need_no_log_sum_exp(n, monkeypatch):
    # no cell of either grid takes its guard's log-sum-exp; at n = 100
    # the default axes reach omega columns whose factor
    # omega^floor(n^2 / 4) leaves the double range, and they stay on the
    # sums
    tau1_mask, delta_mask = _guard_masks(GridSpec.linspace(n), monkeypatch)
    assert not tau1_mask.any() and not delta_mask.any()


@pytest.mark.parametrize("n", (2, 5, 20, 64, 200))
def test_psi_edge_rows_match_closed_forms(n):
    # K_n = 1 and tau_1 = omega^(n-1) at psi = 0, so Delta there is
    # (omega^(n-1) - 1) / ((omega - 1)(omega + 1 if n odd)), and
    # (n - 1) / (1 + [n odd]) at omega = 1; tau_1 = 1 at psi = 1, and
    # Delta's derivative there gives it the same closed form
    base = GridSpec.linspace(n)
    spec = GridSpec(psi_values=(0.0,) + base.psi_values + (1.0,),
                    omega_values=tuple(sorted(base.omega_values + (1.0,))), n=n)
    tau1, dgrid = tau1_region_grid(spec), delta_grid(spec)
    assert (tau1.values[-1] == 1.0).all()
    with mp.workdps(DPS):
        for j, omega in enumerate(spec.omega_values):
            w = mp.mpf(omega)
            assert _rel(tau1.values[0, j], w ** (n - 1)) <= 1e-12, (n, omega)
            if omega == 1.0:
                d = mp.mpf(n - 1) / (1 + n % 2)
            else:
                d = (w ** (n - 1) - 1) / ((w - 1) * ((w + 1) if n % 2 else 1))
            assert _rel(dgrid.values[0, j], d) <= 1e-12, (n, omega)
            assert _rel(dgrid.values[-1, j], d) <= 1e-12, (n, omega)


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


def _row_reference(spec: GridSpec) -> np.ndarray:
    """tau_1 over the grid, one psi row at a time."""
    n = spec.n
    log_omegas = np.log(np.asarray(spec.omega_values))

    def log_k_over_omegas(a, psi):
        m = n - a
        i = np.arange(m + 1)
        coeff = (gammaln(m + 1) - gammaln(i + 1) - gammaln(m - i + 1)
                 + xlogy(i, psi) + xlogy(m - i, 1.0 - psi))
        return logsumexp(coeff[None, :] + np.outer(log_omegas, (m - i) * (i + a)), axis=1)

    return np.array([np.exp(log_k_over_omegas(1, psi) - log_k_over_omegas(0, psi))
                     for psi in spec.psi_values])


@pytest.mark.parametrize("n", NS)
def test_flags_match_row_reference(n):
    # the reference's tau_1 decides wherever it is clear of 1; on the
    # lines psi = 1/2 and omega = 1, tau_1 = 1 and the cells are flagged
    for spec in _specs(n):
        t1 = _row_reference(spec)
        psis = np.asarray(spec.psi_values)[:, None]
        omegas = np.asarray(spec.omega_values)
        clear = np.abs(t1 - 1.0) > 1e-12
        lines = (psis == 0.5) | (omegas == 1.0)
        assert not (clear & lines).any()
        flags = tau1_region_grid(spec).flags
        np.testing.assert_array_equal(flags[clear], (t1 <= 1.0)[clear])
        assert flags[lines].all()
        assert delta_grid(spec).flags.all()
    # the seeded axes carry both lines
    assert lines[list(spec.psi_values).index(0.5)].all()
    assert lines[:, list(spec.omega_values).index(1.0)].all()


def _traced_peak(grid_of, spec: GridSpec) -> int:
    """The bytes ``grid_of(spec)`` holds at its peak over those held
    before it, on a second call: the first fills the row caches."""
    grid_of(spec)
    tracemalloc.start()
    try:
        base, _ = tracemalloc.get_traced_memory()
        grid_of(spec)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak - base


# the default axes at n = 400 send cells of both grids through their
# guards, which take their log-sum-exps in blocks of about
# _BLOCK_DOUBLES doubles.  Blocked, the peaks read 0.85 MiB (delta_grid)
# and 1.00 MiB (tau1_region_grid); in one block, 2.77 and 17.95 MiB.
# Each bound is about twice the blocked peak
MEMORY_SPEC = GridSpec.linspace(400)


def test_delta_grid_peak_memory(monkeypatch):
    assert _guard_masks(MEMORY_SPEC, monkeypatch)[1].any()
    assert _traced_peak(delta_grid, MEMORY_SPEC) <= 1.7 * 2 ** 20


def test_tau1_region_grid_peak_memory(monkeypatch):
    assert _guard_masks(MEMORY_SPEC, monkeypatch)[0].any()
    assert _traced_peak(tau1_region_grid, MEMORY_SPEC) <= 2 * 2 ** 20
