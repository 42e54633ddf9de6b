"""The log-weight kernel's parts, and what is read off its K_n row,
against a 50-digit mpmath oracle (``mp_oracle``).

``core._kernel_row`` caches one read-only row per n, with log C(n, y) a
mirrored cumulative sum of log((n-k)/(k+1)).  ``core._kernel`` (one row)
and ``core._log_weights`` (a block) centre K_n's terms at their global
mode in the natural parameters (logit psi, log omega), so an entry
rounds in proportion to its own size rather than to theta_2 n^2 / 4.
``core._logsumexp`` floors its shifted terms before ``exp``.  The pmf
bounds are twice the worst errors of that kernel on the cells below,
which reach omega = 1e8 and the critical Curie-Weiss coupling
omega = e^(-2/n); the kernel before it, with log C(n, y) off an
``lgamma`` table and the uncentred product theta_2 y (n-y), was off by
up to 3.9e-9 at n = 2000 on those cells.
``tau`` and ``log_k`` read tau_r off the same row as a falling-factorial
moment (``core._tau``), weighted above r = 2 by log[(y)_r / (n)_r] off
``core._log_factorials``, one cached read-only pair of rows per n; the
oracle sums each K_{n-r} by its own definition instead.
"""

from __future__ import annotations

import math
import sys

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lmbd
from lmbd import EnsembleSpec, ModelParams, cdf, ensemble_accuracy, log_k, marginal_pi, pmf, tau
from lmbd.core import (_floored_exp, _kernel, _kernel_row, _log_factorials, _log_falling,
                       _log_sum, _log_weights, _logit, _logsumexp)
from lmbd.factorization import _xlogy

import mp_oracle

DPS = 50
EPS = np.finfo(float).eps
BINOM_MS = (*range(70), 127, 128, 500, 511, 512, 1000, 1023, 1024, 1999, 2000)
# omega = None is the critical Curie-Weiss coupling e^(-2/n) at each n
PMF_CELLS = ((0.3, 1.5), (0.5, 0.95), (0.7, 1.01), (0.02, 1e-3), (0.9, 2.0),
             *((psi, omega) for psi in (1e-6, 0.01, 0.3, 1 - 1e-6) for omega in (1e3, 1e8)),
             (0.5, None), (0.55, None))
# twice the worst relative error on these cells: 1.84e-13 at n = 500
# (psi = 0.9, omega = 2) and 2.47e-13 at n = 2000 (psi = 1/2,
# omega = e^(-2/n)), with log C(n, .) summed by ``core._split_cumsum``;
# with it and tau's row summed by a plain ``np.cumsum`` instead, the
# worst reads 1.59e-12 at n = 2000 (psi = 0.55, omega = e^(-2/n))
PMF_BOUND = {500: 3.7e-13, 2000: 5.0e-13}


def _omega(n: int, omega):
    return math.exp(-2.0 / n) if omega is None else omega


@pytest.mark.parametrize("m", BINOM_MS)
def test_log_binom_matches_mpmath(m):
    # three table entries, each within about an ulp of log m!
    got = _kernel_row(m)[2]
    with mp.workdps(DPS):
        scale = max(1.0, float(mp.log(mp.factorial(m))))
        errs = [abs(float(mp.mpf(g) - mp.log(math.comb(m, i))))
                for i, g in enumerate(got)]
    assert max(errs) <= 4 * EPS * scale
    assert got[0] == got[m] == 0.0


@pytest.mark.parametrize("m", [0, 1, 7, 300])
def test_kernel_rows_are_read_only(m):
    i, cross, log_binom = _kernel_row(m)
    assert list(i) == list(range(m + 1))
    assert list(cross) == [y * (m - y) for y in range(m + 1)]
    # mirrored: C(m, y) = C(m, m-y) bit for bit
    assert list(log_binom[::-1]) == list(log_binom)
    for row in (i, cross, log_binom, *_log_factorials(m)):
        assert not row.flags.writeable
        with pytest.raises(ValueError):
            row[0] = 1
    assert _kernel_row(m) is _kernel_row(m)
    assert _log_factorials(m) is _log_factorials(m)


# about twice the worst absolute error of log[(y)_r / (n)_r] over these
# n and r, 2.36e-13 at n = 5000, r = 1666, which is half an ulp of the
# values near -1700 there; the reverse sum of log1p(r / (j - r)) that
# it replaced read 2.28e-13 on the same cell.  n = 5000 lies above the
# row cache's cap, on its one-entry path
FALLING_BOUND = 5e-13


@pytest.mark.parametrize("n", [3, 64, 500, 2000, 5000])
def test_log_falling_ratio_matches_mpmath(n):
    lf = mp_oracle.log_factorials(n)
    for r in sorted({3, 7, n // 3, n // 2, n - 1, n} & set(range(1, n + 1))):
        got = _log_falling(n, r)
        assert len(got) == n - r + 1 and got[-1] == 0.0
        with mp.workdps(DPS):
            errs = [abs(float(mp.mpf(g) - (lf[y] - lf[y - r] - lf[n] + lf[n - r])))
                    for y, g in zip(range(r, n + 1), got)]
        assert max(errs) <= FALLING_BOUND, r


def test_xlogy_takes_zero_log_zero_as_zero():
    k = np.arange(4)
    p = np.array([[[0.0]], [[0.5]]])
    with np.errstate(divide="ignore"):
        got = _xlogy(k, np.log(p))
    assert got.shape == (2, 1, 4)
    assert list(got[0, 0]) == [0.0, -np.inf, -np.inf, -np.inf]
    assert list(got[1, 0]) == list(k * np.log(0.5))


def test_kernel_puts_the_psi_edges_on_one_term():
    # psi = 0 puts all weight on y = 0, psi = 1 on y = n
    m0, w0 = _kernel(6, _logit(0.0), math.log(1.5))[:2]
    m1, w1 = _kernel(6, _logit(1.0), math.log(1.5))[:2]
    assert m0 == 0 and w0[0] == 0.0 and np.isneginf(w0[1:]).all()
    assert m1 == 6 and w1[-1] == 0.0 and np.isneginf(w1[:-1]).all()


@pytest.mark.parametrize("n", [1, 2, 7, 64, 301])
def test_batches_match_scalar_rows_bit_for_bit(n):
    # the block kernel's (P, 1) blocks, as the grids and convergence
    # reports build them, against the one-row kernel at the same theta:
    # psi edges, two wells (omega < 1) and omega = 1 among them
    psis = (0.0, 1e-300, 0.3, 0.5, 0.55, 1 - 1e-16, 1.0)
    log_omegas = (-18.4, -2.0 / n, -1e-3, 0.0, 0.7, 18.4)
    cells = [(_logit(p), w) for p in psis for w in log_omegas]
    theta1, theta2 = (np.array(column)[:, None] for column in zip(*cells))
    kernels = [_kernel(n, t1, t2) for t1, t2 in cells]
    for _, row, e, total in kernels:  # e and T are the row's floored exponentials
        assert np.array_equal(e, _floored_exp(row)) and total == float(np.add.reduce(e))
    m, block = _log_weights(n, theta1, theta2)
    assert np.array_equal(block, [k[1] for k in kernels])
    assert m[:, 0].tolist() == [k[0] for k in kernels]
    per_psi = theta1[::len(log_omegas)]
    for t2 in log_omegas:  # one theta_2 for the block, as the grids pass
        block = _log_weights(n, per_psi, t2)[1]
        assert np.array_equal(block, [_kernel(n, t1, t2)[1] for t1 in per_psi[:, 0]])
    for t1 in per_psi[:, 0]:  # one theta_1, as the reports pass
        block = _log_weights(n, t1, theta2[:len(log_omegas)])[1]
        assert np.array_equal(block, [_kernel(n, t1, t2)[1] for t2 in log_omegas])


@pytest.mark.parametrize("n", [1, 2, 5, 64, 65, 2000])
def test_mode_is_the_first_argmax_at_and_next_to_omega_one(n):
    # at omega = 1 the mode's search leaves out theta_2 y (n-y) = 0.0;
    # theta_1 = log((k+1)/(n-k)) ties the weights of k and k+1 where the
    # binomial mode steps, so rounding alone picks the first argmax there
    y, cross, log_binom = _kernel_row(n)
    ks = {k for k in (0, 1, n // 2 - 1, n // 2, n - 2, n - 1) if 0 <= k < n}
    theta1s = [_logit(0.5)] + [math.log((k + 1) / (n - k)) for k in sorted(ks)]
    for theta2 in (0.0, math.log1p(1e-12), math.log1p(-1e-12)):
        first = [int(np.argmax(log_binom + y * t1 + theta2 * cross)) for t1 in theta1s]
        assert [_kernel(n, t1, theta2)[0] for t1 in theta1s] == first
        m = _log_weights(n, np.array(theta1s)[:, None], theta2)[0]
        assert m.shape == (len(theta1s), 1) and m[:, 0].tolist() == first


def _unfloored_logsumexp(terms):
    top = terms.max()
    if not np.isfinite(top):
        return float(top)
    return float(top + np.log(np.exp(terms - top).sum()))


def _falling_moment_terms(row: np.ndarray, r: int) -> np.ndarray:
    """The terms whose log-sum-exp ``core._tau`` takes for E[(Y)_r]:
    the kernel row plus log[(y)_r / (n)_r] for y = r..n."""
    return row[r:] + _log_falling(len(row) - 1, r)


def test_logsumexp_floor_leaves_bits_unchanged():
    # terms far below the maximum, where exp underflows and the floor acts
    rows = [_kernel(n, _logit(psi), math.log(omega))[1]
            for n in (5, 64, 500, 2000)
            for psi in (1e-9, 0.3, 0.5, 0.99)
            for omega in (1e-8, 0.5, 1.0, 1.5, 1e8)]
    arrays = rows + [_falling_moment_terms(w, 1) for w in rows]
    arrays += [t - _logsumexp(t) for t in arrays]
    arrays.append(np.array([0.0, -800.0, -np.inf, -1e300]))
    assert [_logsumexp(t) for t in arrays] == [_unfloored_logsumexp(t) for t in arrays]
    # a kernel row's largest entry is exactly 0, so its sum needs no shift
    assert [float(_log_sum(w)) for w in rows] == [_unfloored_logsumexp(w) for w in rows]


def test_logsumexp_passes_inf_and_nan_through():
    assert _logsumexp(np.array([-np.inf, -np.inf])) == -np.inf
    assert _logsumexp(np.array([1.0, np.inf])) == np.inf
    assert math.isnan(_logsumexp(np.array([1.0, np.nan])))


def _pmf_rel_errs(n: int, psi: float, omega: float) -> np.ndarray:
    """``pmf``'s relative error per entry, 0 where the exact value is not
    a normal double; those entries must come out below 1e-300."""
    exact = mp_oracle.probs(n, psi, omega)
    got = pmf(ModelParams(n, psi, omega)).probs()
    normal = exact > np.finfo(float).tiny
    # entries below the double range come out as (sub)normal noise or 0
    assert np.all(got[~normal] <= 1e-300)
    return np.where(normal, np.abs(got - exact) / np.where(normal, exact, 1.0), 0.0)


@pytest.mark.parametrize("n", sorted(PMF_BOUND))
@pytest.mark.parametrize("psi,omega", PMF_CELLS)
def test_pmf_matches_mpmath(n, psi, omega):
    assert _pmf_rel_errs(n, psi, _omega(n, omega)).max() <= PMF_BOUND[n]


# the property test's n stay below 300, and its bound is PMF_BOUND's at
# n = 500, widened where an entry's log is made of large parts that
# cancel: (y - m) theta_1 and theta_2 (y - m)(n - y - m) each carry the
# rounding of theta itself, eps |theta|, and round at their own size
EDGE_PSIS = (0.0, 1e-300, 1 - 1e-16, 1.0)


@st.composite
def _kernel_cases(draw):
    """(n, psi, omega): log omega uniform on [-18.4, 18.4], or the
    Curie-Weiss coupling omega = e^(-2 beta / n), beta in [0, 3], whose
    two wells merge at the critical beta = 1."""
    n = draw(st.integers(1, 300))
    psi = draw(st.sampled_from(EDGE_PSIS) | st.floats(0.0, 1.0, exclude_min=True,
                                                       exclude_max=True))
    if draw(st.booleans()):
        log_omega = draw(st.floats(-18.4, 18.4))
    else:
        log_omega = -2.0 * draw(st.floats(0.0, 3.0)) / n
    return n, psi, math.exp(log_omega)


@settings(max_examples=120, deadline=None)
@given(_kernel_cases())
def test_kernel_property_oracle(case):
    n, psi, omega = case
    theta1, theta2 = _logit(psi), math.log(omega)
    m = _kernel(n, theta1, theta2)[0]
    exact = mp_oracle.log_weights(n, psi, omega)
    if math.isinf(theta1):
        assert m == (n if theta1 > 0 else 0)
        assert _pmf_rel_errs(n, psi, omega).max() == 0.0
    else:
        d = np.arange(n + 1) - m
        parts = np.abs(d * theta1) + np.abs(theta2 * (d * (n - m - np.arange(n + 1))))
        assert (_pmf_rel_errs(n, psi, omega) <= np.maximum(PMF_BOUND[500], 4 * EPS * parts)).all()
        # the centre is an argmax of the exact weights, up to the
        # rounding of the uncentred log-weights it is chosen by
        tol = 8 * EPS * (n * abs(theta1) + n * n * abs(theta2) + n)
        with mp.workdps(DPS):
            assert exact[m] >= max(exact) - tol, (m, exact.index(max(exact)))
    # at psi = 1/2 the law is symmetric, and so is its table, bit for bit
    log_prob = pmf(ModelParams(n, 0.5, omega)).log_prob
    assert np.array_equal(log_prob, log_prob[::-1])


# twice the worst error on these cells, at r in {1, 2, n/2, n}: tau_r
# relative, against log K_{n-r} - log K_n taken at DPS digits (n = 500:
# 1.14e-13 at psi = 0.7, omega = 1.01, r = n; n = 2000: 2.6e-13 at
# psi = 0.3, omega = 1e8, r = n/2; with both rows summed by a plain
# ``np.cumsum`` rather than ``core._split_cumsum`` it reads 1.02e-12
# at psi = 1/2, omega = e^(-2/n), r = n/2); log K_{n-r}
# absolute over max(1, |log K_{n-r}|), a few ulp of log K_{n-r} (3.6e-16
# at n = 500, psi = 0.55, omega = e^(-2/n)).  tau_n = 1 / K_n, and
# log K_0 = 0 exactly
TAU_BOUND = {64: 3.7e-14, 500: 1.6e-13, 2000: 5.1e-13}
LOG_K_BOUND = {64: 5.2e-16, 500: 7.2e-16, 2000: 4.6e-16}


def _tau_rel_err(got: float, exact_log: mp.mpf) -> float:
    """|got - tau| / |tau|, with tau floored at the smallest normal double;
    0 for +inf where tau lies beyond the double range."""
    with mp.workdps(DPS):
        exact = mp.exp(exact_log)
        if exact > sys.float_info.max:
            return 0.0 if got == math.inf else math.inf
        return float(abs(mp.mpf(got) - exact) / max(exact, sys.float_info.min))


@pytest.mark.parametrize("n", sorted(TAU_BOUND))
@pytest.mark.parametrize("psi,omega", PMF_CELLS)
def test_tau_and_log_k_match_mpmath(n, psi, omega):
    omega = _omega(n, omega)
    with mp.workdps(DPS):
        exact_kn = mp_oracle.log_k(n, 0, mp.mpf(psi), mp.mpf(omega))
    for r in (1, 2, n // 2, n):
        with mp.workdps(DPS):
            exact_kr = mp_oracle.log_k(n, r, mp.mpf(psi), mp.mpf(omega))
            exact_tau = exact_kr - exact_kn
        assert _tau_rel_err(tau(r, ModelParams(n, psi, omega)), exact_tau) <= TAU_BOUND[n], r
        with mp.workdps(DPS):
            err = abs(mp.mpf(log_k(n, r, psi, omega)) - exact_kr) / max(1, abs(exact_kr))
        assert float(err) <= LOG_K_BOUND[n], r


# single-point sums on both sides of core._SUM_FLOOR = e^-600 (a share of
# the kernel row's exponential total T against e^-600 T), as
# (reader, (n, psi, omega), y or r, whether the sum lies below it):
# above it they are summed as they stand, below it read by
# ``core._logsumexp``.  The values below it are normal doubles, e^-645
# (tau_1, tau_2, pi), e^-679 (the tail) and e^-684 (the cdf), and one
# subnormal, e^-713 (the cdf at 0)
FLOOR_CASES = [
    ("cdf", (2000, 0.3, 1.0), 600, False),
    ("cdf", (2000, 0.3, 1.0), 5, True),
    ("cdf", (2000, 0.3, 1.0), 0, True),
    ("ensemble_accuracy", (2000, 0.45, 1.0), None, False),
    ("ensemble_accuracy", (2000, 0.15, 1.0), None, True),
    ("tau", (2000, 0.3, 1.5), 1, False),
    ("tau", (2000, 0.42, 1e-8), 1, True),
    ("tau", (2000, 0.42, 1e-8), 2, True),
    ("marginal_pi", (2000, 0.3, 1.5), None, False),
    ("marginal_pi", (2000, 0.42, 1e-8), None, True),
    ("theorem2_check", (2000, 0.3, 1.5), None, False),
    ("theorem2_check", (2000, 0.42, 1e-8), None, True),
]


@pytest.mark.parametrize("reader,cell,arg,below", FLOOR_CASES)
def test_single_point_sums_match_mpmath_across_the_floor(reader, cell, arg, below, monkeypatch):
    n, psi, omega = cell
    p = ModelParams(n, psi, omega)
    calls = []
    real = lmbd.core._logsumexp
    monkeypatch.setattr(lmbd.core, "_logsumexp", lambda terms: calls.append(terms) or real(terms))
    got = {"cdf": lambda: cdf(p, arg), "ensemble_accuracy": lambda: ensemble_accuracy(EnsembleSpec(n, p)),
           "tau": lambda: tau(arg, p), "marginal_pi": lambda: marginal_pi(p),
           "theorem2_check": lambda: lmbd.theorem2_check(p).pi}[reader]()
    assert len(calls) == below
    with mp.workdps(DPS):
        if reader in ("cdf", "ensemble_accuracy"):
            # a sum of pmf entries, at the pmf's own bound
            w = [mp.exp(v) for v in mp_oracle.log_weights(n, psi, omega)]
            exact = mp.fsum(w[:arg + 1] if reader == "cdf" else w[n // 2 + 1:]) / mp.fsum(w)
            bound = PMF_BOUND[n]
        else:
            # pi = psi tau_1 = E[Y] / n, held to tau_1's bound
            args = (mp.mpf(psi), mp.mpf(omega))
            exact = mp.exp(mp_oracle.log_k(n, arg or 1, *args) - mp_oracle.log_k(n, 0, *args))
            if reader != "tau":
                exact *= args[0]
            bound = TAU_BOUND[n]
        assert float(abs(mp.mpf(got) - exact) / max(exact, sys.float_info.min)) <= bound
