"""High-precision reference values for the multiplicative binomial law.

Everything is evaluated with mpmath at ``DPS`` decimal digits from the
defining sum

    K_{n-a} = sum_i C(n-a, i) psi^i (1-psi)^(n-a-i) omega^((n-a-i)(i+a)),

with the float inputs converted exactly, so the only error left in a
value is the working precision.  This module shares no code with
``lmbd``: it is the yardstick the benchmark checks the library against.
"""

from __future__ import annotations

import math

import mpmath as mp
import numpy as np

DPS = 50
# Delta is a polynomial in (psi, omega); on its singular set the quotient
# D_n / factors is 0/0, so the oracle takes its limit by evaluating at a
# point displaced by _LIMIT_STEP with enough extra digits to absorb the
# cancellation.  The displacement changes the value by O(_LIMIT_STEP).
_LIMIT_STEP = mp.mpf("1e-40")
_LIMIT_DPS = 120


def _terms(n: int, a: int, psi, omega) -> list:
    """The n-a+1 summands of K_{n-a}, as mpf."""
    psi, omega = mp.mpf(psi), mp.mpf(omega)
    q = 1 - psi
    m = n - a
    out = []
    c = mp.mpf(1)
    for i in range(m + 1):
        out.append(c * psi ** i * q ** (m - i) * omega ** ((m - i) * (i + a)))
        c = c * (m - i) / (i + 1)
    return out


def k_sum(n: int, a: int, psi, omega):
    """K_{n-a}(psi, omega)."""
    with mp.workdps(DPS):
        return mp.fsum(_terms(n, a, psi, omega))


def log_k_magnitude(n: int, a: int, psi: float, omega: float) -> float:
    """log K_{n-a} in double precision, by log-sum-exp over the summands'
    logs.  Good to about 1e-12 relative: enough to tell whether K_{n-a}
    lies inside the double range, where ``k_sum`` at n = 2000 costs a
    third of a second."""
    m = n - a
    i = np.arange(m + 1)
    log_binom = np.concatenate(([0.0], np.cumsum(np.log((m - i[:-1]) / (i[:-1] + 1.0)))))
    logs = (log_binom + i * math.log(psi) + (m - i) * math.log1p(-psi)
            + (m - i) * (i + a) * math.log(omega))
    top = logs.max()
    return float(top + math.log(np.exp(logs - top).sum()))


def log_pmf(n: int, psi: float, omega: float) -> list:
    """log P(Y = y) for y = 0..n (-inf where the probability is 0)."""
    with mp.workdps(DPS):
        t = _terms(n, 0, psi, omega)
        log_k = mp.log(mp.fsum(t))
        return [mp.log(v) - log_k if v > 0 else mp.ninf for v in t]


def probs(n: int, psi: float, omega: float) -> list:
    """P(Y = y) for y = 0..n as mpf."""
    with mp.workdps(DPS):
        t = _terms(n, 0, psi, omega)
        k = mp.fsum(t)
        return [v / k for v in t]


def tau(n: int, r: int, psi: float, omega: float):
    """tau_r = K_{n-r} / K_n."""
    with mp.workdps(DPS):
        return k_sum(n, r, psi, omega) / k_sum(n, 0, psi, omega)


def d_n(n: int, psi, omega):
    """D_n = K_{n-1} - K_n."""
    with mp.workdps(DPS):
        return k_sum(n, 1, psi, omega) - k_sum(n, 0, psi, omega)


def delta(n: int, psi: float, omega: float):
    """Delta = D_n / [(psi-1)(2 psi-1)(omega-1)(omega+1 if n odd)],
    continued by its limit onto psi = 1/2 and omega = 1."""
    psi, omega = mp.mpf(psi), mp.mpf(omega)
    dps = DPS
    if psi == mp.mpf(0.5) or omega == 1:
        dps = _LIMIT_DPS
    with mp.workdps(dps):
        if psi == mp.mpf(0.5):
            psi = psi + _LIMIT_STEP
        if omega == 1:
            omega = omega + _LIMIT_STEP
        num = mp.fsum(_terms(n, 1, psi, omega)) - mp.fsum(_terms(n, 0, psi, omega))
        den = (psi - 1) * (2 * psi - 1) * (omega - 1)
        if n % 2 == 1:
            den *= omega + 1
        return num / den


def sufficient_stats(n: int, psi: float, omega: float) -> tuple:
    """E[Y] and E[Y (n - Y)], the model means of the sufficient statistics."""
    with mp.workdps(DPS):
        p = probs(n, psi, omega)
        e_y = mp.fsum(y * v for y, v in enumerate(p))
        e_cross = mp.fsum(y * (n - y) * v for y, v in enumerate(p))
        return e_y, e_cross


def mean_variance(n: int, psi: float, omega: float) -> tuple:
    """(E[Y], Var[Y]).  The variance is summed about the mean, not taken
    as E[Y^2] - E[Y]^2: at concentrated parameters it is many orders of
    magnitude below E[Y]^2 and the difference would cancel every digit."""
    with mp.workdps(DPS):
        p = probs(n, psi, omega)
        mean = mp.fsum(y * v for y, v in enumerate(p))
        return mean, mp.fsum((y - mean) ** 2 * v for y, v in enumerate(p))


def ks_distance(n: int, psi: float, omega: float):
    """sup_y |F(y) - Phi((y - mean) / sd)| over the support points."""
    with mp.workdps(DPS):
        p = probs(n, psi, omega)
        mean, var = mean_variance(n, psi, omega)
        sd = mp.sqrt(var)
        acc = mp.mpf(0)
        worst = mp.mpf(0)
        for y, v in enumerate(p):
            acc += v
            phi = mp.erfc(-(y - mean) / (sd * mp.sqrt(2))) / 2
            worst = max(worst, abs(acc - phi))
        return worst


def limit_law(omega_edge: str, n: int, psi: float) -> dict:
    """Weak limit at an omega edge for interior psi, as {y: mass}."""
    with mp.workdps(DPS):
        psi = mp.mpf(psi)
        if omega_edge == "to-zero":
            p_n = psi ** n / (psi ** n + (1 - psi) ** n)
            return {0: 1 - p_n, n: p_n}
        if n % 2 == 0:
            return {n // 2: mp.mpf(1)}
        return {(n - 1) // 2: 1 - psi, (n + 1) // 2: psi}


def total_variation(n: int, psi: float, omega: float, law: dict):
    with mp.workdps(DPS):
        p = probs(n, psi, omega)
        return mp.fsum(abs(v - law.get(y, 0)) for y, v in enumerate(p)) / 2
