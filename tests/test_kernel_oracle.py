"""The log-weight kernel's parts, and what is read off its K_n row,
against a 50-digit mpmath oracle.

``core._kernel_row`` caches one read-only row per n, with log C(n, y)
read off a table of ``math.lgamma`` values, and ``core._logsumexp``
floors its shifted terms before ``exp``.  The pmf
bounds are twice the worst errors of the scipy-based kernel that came
before the table (7.2e-12 at n = 500, 1.3e-10 at n = 2000, the
omega = 2 cell both times): they grow like n^2 eps through the
omega-exponent (n - y) y.  ``tau`` and ``log_k`` read tau_r off the same
row as a falling-factorial moment (``core._log_kn_tau``); the oracle sums
each K_{n-r} by its own definition instead.
"""

from __future__ import annotations

import functools
import math
import sys

import mpmath as mp
import numpy as np
import pytest

from lmbd import ModelParams, log_k, pmf, tau
from lmbd.core import _kernel_row, _log_factorials, _log_weights, _logsumexp, _xlogy

DPS = 50
EPS = np.finfo(float).eps
BINOM_MS = (*range(70), 127, 128, 500, 511, 512, 1000, 1023, 1024, 1999, 2000)
PMF_CELLS = ((0.3, 1.5), (0.5, 0.95), (0.7, 1.01), (0.02, 1e-3), (0.9, 2.0))
PMF_BOUND = {500: 1.44e-11, 2000: 2.6e-10}


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
    i, rest, log_binom = _kernel_row(m)
    assert list(i) == list(range(m + 1))
    assert list(rest) == list(range(m, -1, -1))
    for part in (i, rest, log_binom):
        assert not part.flags.writeable
        with pytest.raises(ValueError):
            part[0] = 1
    assert _kernel_row(m) is _kernel_row(m)
    assert not _log_factorials(1 << m.bit_length()).flags.writeable


def test_xlogy_takes_zero_log_zero_as_zero():
    k = np.arange(4)
    assert list(_xlogy(k, 0.0)) == [0.0, -np.inf, -np.inf, -np.inf]
    assert list(_xlogy(k, 1.0)) == [0.0, 0.0, 0.0, 0.0]
    assert _xlogy(0, 0.0) == 0.0
    p = np.array([[[0.0]], [[0.5]]])
    got = _xlogy(k, p)
    assert got.shape == (2, 1, 4)
    assert list(got[0, 0]) == [0.0, -np.inf, -np.inf, -np.inf]
    assert list(got[1, 0]) == list(k * np.log(0.5))


def test_kernel_puts_the_psi_edges_on_one_term():
    # psi = 0 puts all weight on y = 0, psi = 1 on y = n
    w0 = _log_weights(6, 0.0, math.log(1.5))
    w1 = _log_weights(6, 1.0, math.log(1.5))
    assert w0[0] == 0.0 and np.isneginf(w0[1:]).all()
    assert w1[-1] == 0.0 and np.isneginf(w1[:-1]).all()


def _unfloored_logsumexp(terms):
    top = terms.max()
    if not np.isfinite(top):
        return float(top)
    return float(top + np.log(np.exp(terms - top).sum()))


def _falling_moment_terms(logw: np.ndarray, r: int) -> np.ndarray:
    """The terms whose log-sum-exp ``core._log_kn_tau`` takes for E[(Y)_r]:
    the row shifted by its maximum, plus log (y)_r for y = r..n."""
    n = len(logw) - 1
    lf = _log_factorials(1 << n.bit_length())
    return (logw - logw.max())[r:] + lf[r:n + 1] - lf[:n + 1 - r]


def test_logsumexp_floor_leaves_bits_unchanged():
    # terms far below the maximum, where exp underflows and the floor acts
    rows = [_log_weights(n, psi, math.log(omega))
            for n in (5, 64, 500, 2000)
            for psi in (1e-9, 0.3, 0.5, 0.99)
            for omega in (1e-8, 0.5, 1.0, 1.5, 1e8)]
    arrays = rows + [_falling_moment_terms(w, 1) for w in rows]
    arrays += [t - _logsumexp(t) for t in arrays]
    arrays.append(np.array([0.0, -800.0, -np.inf, -1e300]))
    assert [_logsumexp(t) for t in arrays] == [_unfloored_logsumexp(t) for t in arrays]


def test_logsumexp_passes_inf_and_nan_through():
    assert _logsumexp(np.array([-np.inf, -np.inf])) == -np.inf
    assert _logsumexp(np.array([1.0, np.inf])) == np.inf
    assert math.isnan(_logsumexp(np.array([1.0, np.nan])))


@functools.lru_cache(maxsize=None)
def _exact_log_factorials(n: int) -> tuple:
    with mp.workdps(DPS):
        out = [mp.mpf(0)]
        for k in range(1, n + 1):
            out.append(out[-1] + mp.log(k))
    return tuple(out)


def _exact_probs(n: int, psi: float, omega: float) -> np.ndarray:
    lf = _exact_log_factorials(n)
    with mp.workdps(DPS):
        lp, lq = mp.log(mp.mpf(psi)), mp.log(1 - mp.mpf(psi))
        lw = mp.log(mp.mpf(omega))
        logw = [lf[n] - lf[y] - lf[n - y] + y * lp + (n - y) * lq + (n - y) * y * lw
                for y in range(n + 1)]
        top = max(logw)
        w = [mp.exp(v - top) for v in logw]
        total = mp.fsum(w)
        return np.array([float(v / total) for v in w])


@pytest.mark.parametrize("n", sorted(PMF_BOUND))
@pytest.mark.parametrize("psi,omega", PMF_CELLS)
def test_pmf_matches_mpmath(n, psi, omega):
    exact = _exact_probs(n, psi, omega)
    got = pmf(ModelParams(n, psi, omega)).probs()
    normal = exact > np.finfo(float).tiny
    rel = np.abs(got[normal] - exact[normal]) / exact[normal]
    assert rel.max() <= PMF_BOUND[n]
    # entries below the double range come out as (sub)normal noise or 0
    assert np.all(got[~normal] <= 1e-300)


# twice the worst error on these cells, at r in {1, 2, n/2, n}: tau_r
# relative (n = 2000: 2.7e-11 at psi = 0.3, omega = 1.5, r = 1000);
# log K_{n-r} absolute over max(1, |log K_{n-r}|), which at r = n is
# the rounding of log K_n + log tau_n, two values near 9791 at
# n = 2000, psi = 0.7, omega = 1.01 (1.8e-12)
TAU_BOUND = {64: 9.3e-14, 500: 1.03e-11, 2000: 5.5e-11}
LOG_K_BOUND = {64: 4.3e-14, 500: 2.3e-13, 2000: 3.7e-12}


@functools.lru_cache(maxsize=None)
def _exact_log_k(n: int, r: int, psi: float, omega: float) -> mp.mpf:
    """log K_{n-r}, summed over its own terms
    C(n-r, i) psi^i (1-psi)^(n-r-i) omega^((n-r-i)(i+r))."""
    lf = _exact_log_factorials(n)
    m = n - r
    with mp.workdps(DPS):
        lp, lq = mp.log(mp.mpf(psi)), mp.log(1 - mp.mpf(psi))
        lw = mp.log(mp.mpf(omega))
        terms = [lf[m] - lf[i] - lf[m - i] + i * lp + (m - i) * lq + (m - i) * (i + r) * lw
                 for i in range(m + 1)]
        top = max(terms)
        return top + mp.log(mp.fsum(mp.exp(t - top) for t in terms))


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
    for r in (1, 2, n // 2, n):
        exact_kr, exact_kn = _exact_log_k(n, r, psi, omega), _exact_log_k(n, 0, psi, omega)
        assert _tau_rel_err(tau(r, ModelParams(n, psi, omega)),
                            exact_kr - exact_kn) <= TAU_BOUND[n], r
        with mp.workdps(DPS):
            err = abs(mp.mpf(log_k(n, r, psi, omega)) - exact_kr) / max(1, abs(exact_kr))
        assert float(err) <= LOG_K_BOUND[n], r
