"""The 2^n brute-force enumeration oracle: ground truth for the pmf that
shares no code path with the log-weight kernel."""

import math

import numpy as np
from scipy.special import logsumexp, xlogy

from lmbd import ModelParams, PmfTable

# hard cap for the 2**n brute-force enumeration oracle
ENUMERATION_MAX_N = 20


def enumerate_pmf_oracle(params: ModelParams) -> PmfTable:
    """Brute-force pmf by summing the unnormalized joint weight over all
    2^n binary vectors, grouped by y and normalized at the end.

    Test-only ground truth; refuses n > 20.
    """
    n, psi, omega = params.n, params.psi, params.omega
    if n > ENUMERATION_MAX_N:
        raise ValueError(f"enumeration oracle capped at n <= {ENUMERATION_MAX_N}")
    codes = np.arange(2 ** n, dtype=np.uint32)
    bits = (codes[:, None] >> np.arange(n)) & 1
    y = bits.sum(axis=1)
    logw = (
        xlogy(y, psi)
        + xlogy(n - y, 1.0 - psi)
        + (n - y) * y * math.log(omega)
    )
    grouped = np.array(
        [logsumexp(logw[y == k]) for k in range(n + 1)]
    )
    log_norm = float(logsumexp(grouped))
    logp = grouped - log_norm
    logp = logp - logsumexp(logp)
    return PmfTable(params=params, log_prob=logp, log_normalizer=log_norm)
