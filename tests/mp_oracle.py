"""The 50-digit mpmath oracle of K_n and the pmf: ground truth for the
log-weight kernel that shares no code path with it."""

from __future__ import annotations

import functools

import mpmath as mp
import numpy as np

DPS = 50


@functools.lru_cache(maxsize=None)
def log_factorials(n: int) -> tuple:
    """log k! for k = 0..n at DPS digits."""
    with mp.workdps(DPS):
        out = [mp.mpf(0)]
        for k in range(1, n + 1):
            out.append(out[-1] + mp.log(k))
    return tuple(out)


def log_weights(n: int, psi: float, omega: float) -> list:
    """K_n's terms log[C(n, y) psi^y (1-psi)^(n-y) omega^((n-y) y)] for
    y = 0..n at DPS digits, with 0 log 0 = 0 at psi in {0, 1}."""
    lf = log_factorials(n)
    with mp.workdps(DPS):
        lp, lq = mp.log(mp.mpf(psi)), mp.log(1 - mp.mpf(psi))
        lw = mp.log(mp.mpf(omega))
        return [lf[n] - lf[y] - lf[n - y] + (y * lp if y else 0)
                + ((n - y) * lq if y < n else 0) + (n - y) * y * lw
                for y in range(n + 1)]


def probs(n: int, psi: float, omega: float) -> np.ndarray:
    """The pmf over y = 0..n, each entry rounded once to a double."""
    logw = log_weights(n, psi, omega)
    with mp.workdps(DPS):
        top = max(logw)
        w = [mp.exp(v - top) for v in logw]
        total = mp.fsum(w)
        return np.array([float(v / total) for v in w])


def log_k(n: int, a: int, p: mp.mpf, w: mp.mpf) -> mp.mpf:
    """log K_{n-a} = log sum_i C(m, i) p^i (1-p)^(m-i) w^((m-i)(i+a)),
    m = n - a, summed over its own terms at mpmath's working precision.
    Each term is the last times (m-i) / (i+1) p / (1-p) w^(m-1-a-2i)."""
    m = n - a
    if p == 1:
        return mp.mpf(0)  # the one term i = m
    ratio = p / (1 - p)
    term = (1 - p) ** m * w ** (m * a)
    w_step, w_down = w ** (m - 1 - a), w ** -2
    terms = [term]
    for i in range(m):
        term = term * ratio * w_step * (m - i) / (i + 1)
        w_step *= w_down
        terms.append(term)
    return mp.log(mp.fsum(terms))
