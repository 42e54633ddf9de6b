"""Gaussian-approximation diagnostic: sup-distance between the
standardized success-count law and the standard normal as n grows.

This is a numeric convergence witness only; no finite-n mixing condition
is checked and no rate is asserted.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .core import ModelParams, _integer, _kernel, _natural, _ordered, _table_moments

__all__ = ["CltScanRow", "standardized_ks_distance", "clt_scan"]


class CltScanRow(NamedTuple):
    n: int
    psi: float
    omega: float
    ks_distance: float


def _std_normal_cdf(z: np.ndarray) -> np.ndarray:
    # Phi(z) via the complementary error function, accurate to ~1e-16
    t = -z / math.sqrt(2.0)
    return 0.5 * np.fromiter(map(math.erfc, t.tolist()), float, len(t))


def standardized_ks_distance(params: ModelParams) -> float:
    """sup_y | F(y) - Phi((y - mean) / sd) |, evaluated at the discrete
    cdf's right-continuous points.  The cdf, the mean and the variance
    are read off one kernel row's exponentials e and their total T, with
    no log K_n: F(y) = sum_{k <= y} e_k / T, and the mean and the
    variance are ``moments``' own (``_table_moments``)."""
    _, row, e, total = _kernel(*_natural(params))
    mean, variance = _table_moments(e, row, total)
    if variance <= 0.0:
        raise ValueError("degenerate variance; standardization undefined")
    cdf_vals = np.minimum(1.0, np.cumsum(e) / total)
    z = (np.arange(params.n + 1) - mean) / math.sqrt(variance)
    return float(np.max(np.abs(cdf_vals - _std_normal_cdf(z))))


def clt_scan(ns, psi: float, omega: float) -> list[CltScanRow]:
    """One diagnostic row per trial count, in input order."""
    return [CltScanRow(n, psi, omega, standardized_ks_distance(ModelParams(n, psi, omega)))
            for n in _ordered("ns", [_integer("ns", n, 1) for n in ns])]
