"""Output checks against the mpmath oracle, run after the timed loop.

``check_op`` returns ``(failure, errors)``: the kind of failure of an
operation (``None`` if it passed) and the relative errors of its checked
finite outputs, which feed ``max_rel_err``.  An operation fails if it
raised, if any output is non-finite where the exact value is a finite
double, or if a checked output is off by more than ``FAIL_REL_ERR``.

The failure kinds the library shows at the time the benchmark was
written are each scoped to where they were observed and bounded by what
their cause can explain, so the same function failing elsewhere, or by
more, is a kind of its own:

- ``overflow``: the call raised OverflowError, or returned inf or NaN,
  where a K sum the library exponentiates (or the exact value itself)
  lies beyond the double range;
- ``near-one-cancellation``: ``d_n`` or ``delta`` in the near-one
  category, off by no more than ``cancellation_limit`` allows for the
  subtraction K_{n-1} - K_n;
- ``variance-cancellation``: for n above the exact-moments cut-off, the
  variance (and so the ``clt_scan`` KS distance built on it) off by no
  more than ``cancellation_limit`` allows for E[Y^2] - E[Y]^2, with every
  other output within tolerance.

``KNOWN_DEFECTS`` lists the (function, kind) pairs seen at the time.
They count as failures like any other; the list only lets the harness
tell them apart from new kinds, which make a run report
``correct: false``.  ``defect_site`` tells, from the inputs and the
oracle alone, whether an operation lies where one of these defects can
show; the harness runs such operations in its untimed census.
"""

from __future__ import annotations

import math
import sys

import mpmath as mp
import numpy as np

import oracle

DBL_MAX = sys.float_info.max
DBL_MIN = sys.float_info.min
LOG_DBL_MAX = math.log(DBL_MAX)
EPS = sys.float_info.epsilon
# an output this far from the oracle is wrong, not merely inaccurate;
# finer errors are reported through max_rel_err
FAIL_REL_ERR = 1e-6
GRID_CELLS_CHECKED = 12
# (psi_min, psi_max, omega_min, omega_max) of GridSpec.linspace
DEFAULT_GRID_AXES = (0.01, 0.99, 0.05, 2.0)
# lmbd.moments is exact (Fraction arithmetic) up to this n, float above
EXACT_MOMENTS_MAX_N = 64
# the log-domain sums behind K_n carry an absolute error of about
# eps * (n + |log K_n|); a subtraction with condition number c turns it
# into a relative error of about c times that.  The largest ratio of
# observed error to that estimate, over query seeds 201-210 (every
# near-one d_n and delta, every moments call with n > 64), was about 5;
# the slack leaves room for unseen parameters without admitting a wrong
# formula.
CANCELLATION_SLACK = 64

_OVERFLOW = ("K_n, D_n and tau_r are exponentiated out of the log domain, so "
             "math.exp raises, or a product overflows, where the value or a K "
             "sum exceeds the double range")
_NEAR_ONE = ("D_n = K_{n-1} - K_n cancels near omega = 1 (and near psi = 1/2 "
             "inside that category)")
_VARIANCE = ("for n > 64 the variance is the float difference n psi (tau_1 - "
             "psi (n tau_1^2 - (n-1) tau_2)), which cancels at concentrated "
             "parameters")
KNOWN_DEFECTS = {
    ("delta", "nonfinite-on-singular-set"):
        "NaN on psi = 1/2 or omega = 1, where Delta has a finite limit",
    ("d_n", "overflow"): _OVERFLOW,
    ("delta", "overflow"): _OVERFLOW,
    ("tau", "overflow"): _OVERFLOW,
    ("delta_grid", "overflow"): _OVERFLOW,
    ("d_n", "near-one-cancellation"): _NEAR_ONE,
    ("delta", "near-one-cancellation"): _NEAR_ONE,
    ("moments", "variance-cancellation"): _VARIANCE,
    ("cli", "unserializable-converged"):
        "when Nelder-Mead stops without success, FitResult.converged is a "
        "numpy bool, which the fit subcommand cannot write as JSON",
    ("clt_scan", "variance-cancellation"):
        "standardizes with the moments variance above",
}


def rel_err(lib: float, exact) -> float:
    """|lib - exact| / |exact|, with |exact| floored at the smallest
    normal double; inf if ``lib`` is not the double nearest an exact
    value that overflows, or is NaN."""
    if abs(exact) > DBL_MAX:
        return 0.0 if lib == math.copysign(math.inf, exact) else math.inf
    if not math.isfinite(lib):
        return math.inf
    with mp.workdps(oracle.DPS):
        return float(abs(mp.mpf(lib) - exact) / max(abs(exact), DBL_MIN))


def _singular(psi: float, omega: float) -> bool:
    return psi == 0.5 or omega == 1.0


def _accuracy(n: int, p: list):
    return mp.fsum(p[n // 2 + 1:])


def _query_errors(fn: str, args: tuple, out) -> list[float]:
    n, psi, omega = args[:3]
    if fn == "pmf":
        ref = oracle.log_pmf(n, psi, omega)
        errs = []
        for lib, exact in zip(out, ref):
            if exact == mp.ninf or lib == -math.inf:
                errs.append(0.0 if exact == mp.ninf and lib == -math.inf else math.inf)
            else:
                errs.append(abs(math.expm1(float(mp.mpf(lib) - exact))))
        return errs
    if fn == "cdf":
        return [rel_err(out, mp.fsum(oracle.probs(n, psi, omega)[: args[3] + 1]))]
    if fn == "moments":
        tau1, tau2, _, mean, variance, pi = out
        t1 = oracle.tau(n, 1, psi, omega)
        m, v = oracle.mean_variance(n, psi, omega)
        return [rel_err(tau1, t1), rel_err(tau2, oracle.tau(n, 2, psi, omega)),
                rel_err(mean, m), rel_err(variance, v), rel_err(pi, psi * t1)]
    if fn == "tau":
        return [rel_err(out, oracle.tau(n, args[3], psi, omega))]
    if fn == "marginal_pi":
        return [rel_err(out, psi * oracle.tau(n, 1, psi, omega))]
    if fn == "sample":
        return [_sample_error(n, psi, omega, out)]
    if fn == "conditional_cpr":
        return [rel_err(out, 1 / mp.mpf(omega) ** 2)]
    if fn == "ensemble_accuracy":
        return [rel_err(out, _accuracy(n, oracle.probs(n, psi, omega)))]
    if fn == "d_n":
        if _singular(psi, omega):
            # D_n vanishes exactly here: the error is measured against
            # the size of the two sums that cancel
            return [float(abs(out) / oracle.k_sum(n, 1, psi, omega))]
        return [rel_err(out, oracle.d_n(n, psi, omega))]
    if fn == "delta":
        return [rel_err(out, oracle.delta(n, psi, omega))]
    if fn == "theorem2_check":
        tau1, pi, relation = out
        t1 = oracle.tau(n, 1, psi, omega)
        # the relation is judged only where tau_1 is resolved: a tau_1
        # within the value tolerance of 1 may round to either side
        if abs(t1 - 1) <= FAIL_REL_ERR:
            ok = relation == "=" or not _singular(psi, omega)
        else:
            ok = relation == (">" if t1 < 1 else "<")
        return [rel_err(tau1, t1), rel_err(pi, psi * t1), 0.0 if ok else math.inf]
    raise ValueError(f"no check for {fn}")


def _sample_error(n: int, psi: float, omega: float, draws) -> float:
    """0 if every draw is in the support and the sample mean is within
    six standard errors of E[Y]; inf otherwise."""
    draws = np.asarray(draws)
    if draws.min() < 0 or draws.max() > n:
        return math.inf
    mean, var = oracle.mean_variance(n, psi, omega)
    slack = 6 * mp.sqrt(var / len(draws)) + 1e-9 * n
    return 0.0 if abs(float(draws.mean()) - mean) <= slack else math.inf


def _scan_errors(fn: str, args: tuple, out, rng: np.random.Generator) -> list[float]:
    if fn in ("delta_grid", "tau1_region_grid"):
        values, flags, psis, omegas = out
        n = args[0]
        # cells the grid itself flags as singular hold NaN by contract
        # and are left out; every other cell is a candidate
        cand = np.argwhere(flags) if fn == "delta_grid" else np.argwhere(np.ones_like(flags))
        pick = cand[rng.choice(len(cand), size=min(GRID_CELLS_CHECKED, len(cand)),
                               replace=False)]
        errs = []
        for i, j in pick:
            psi, omega = psis[i], omegas[j]
            if fn == "delta_grid":
                errs.append(rel_err(values[i, j], oracle.delta(n, psi, omega)))
            else:
                t1 = oracle.tau(n, 1, psi, omega)
                errs.append(rel_err(values[i, j], t1))
                if abs(t1 - 1) > FAIL_REL_ERR and bool(flags[i, j]) != (t1 <= 1):
                    errs.append(math.inf)
        return errs
    if fn == "clt_scan":
        _, psi, omega = args
        # a KS distance is a difference of O(1) probabilities: its error
        # is taken relative to 1
        return [abs(ks - float(oracle.ks_distance(n, psi, omega))) for n, ks in out]
    edge, n, psi, probes = args
    mean, var, law, evidence = out
    exact_law = oracle.limit_law(edge, n, psi)
    m = mp.fsum(y * p for y, p in exact_law.items())
    v = mp.fsum(y * y * p for y, p in exact_law.items()) - m * m
    errs = [rel_err(mean, m), abs(var - float(v))]
    errs += [abs(law.get(y, 0.0) - float(p)) for y, p in exact_law.items()]
    errs += [abs(tv - float(oracle.total_variation(n, psi, w, exact_law)))
             for w, tv in evidence]
    return errs


def _log_magnitude(fn: str, n: int, psi: float, omega: float, r: int = 1):
    """(sign, log |value|) of the exact d_n, delta or tau_r, from the
    double-precision log K sums: enough to place it against the double
    range."""
    log_k = oracle.log_k_magnitude
    if fn == "tau":
        return 1.0, log_k(n, r, psi, omega) - log_k(n, 0, psi, omega)
    la, lb = log_k(n, 1, psi, omega), log_k(n, 0, psi, omega)
    if la == lb:
        return 0.0, -math.inf
    sign = 1.0 if la > lb else -1.0
    log_abs = max(la, lb) + math.log(-math.expm1(-abs(la - lb)))
    if fn != "d_n":
        factors = (psi - 1.0) * (2.0 * psi - 1.0) * (omega - 1.0)
        if n % 2 == 1:
            factors *= omega + 1.0
        sign = math.copysign(sign, factors)
        log_abs -= math.log(abs(factors))
    return sign, log_abs


def _nonfinite_verdict(fn: str, value, n: int, psi: float, omega: float,
                       r: int = 1) -> str | None:
    """For a non-finite (or raised, ``value`` None) d_n, delta or tau_r:
    None if ``value`` is the infinity the exact value rounds to;
    ``overflow`` if the exact value, or a K sum the library
    exponentiates, lies beyond the double range; else ``nonfinite``."""
    sign, log_abs = _log_magnitude(fn, n, psi, omega, r)
    if log_abs > LOG_DBL_MAX:
        return None if value == sign * math.inf else "overflow"
    if fn != "tau":
        # exp(log K_n) * expm1(log K_{n-1} - log K_n)
        log_k = oracle.log_k_magnitude
        if max(log_k(n, 0, psi, omega), log_k(n, 1, psi, omega)) > LOG_DBL_MAX:
            return "overflow"
    return "nonfinite"


def _nonfinite_kind(fn: str, args: tuple, payload) -> str | None:
    """Kind of failure of an operation with a non-finite output, None if
    every non-finite output is the infinity its exact value rounds to.
    On a grid every non-finite cell outside the grid's own singular
    flags is looked at."""
    if fn in ("d_n", "delta", "tau"):
        return _nonfinite_verdict(fn, payload, *args)
    if fn == "delta_grid":
        values, flags, psis, omegas = payload
        verdicts = {_nonfinite_verdict(fn, values[i, j], args[0], psis[i], omegas[j])
                    for i, j in np.argwhere(flags & ~np.isfinite(values))}
        return "nonfinite" if "nonfinite" in verdicts else max(verdicts - {None}, default=None)
    return "nonfinite"


def cancellation_limit(n: int, psi: float, omega: float, cond) -> float:
    """The largest relative error a float subtraction with condition
    number ``cond`` explains, at these parameters."""
    size = n + abs(oracle.log_k_magnitude(n, 0, psi, omega))
    return float(CANCELLATION_SLACK * EPS * size * cond)


def _variance_limit(n: int, psi: float, omega: float) -> float:
    mean, var = oracle.mean_variance(n, psi, omega)
    return cancellation_limit(n, psi, omega, (var + mean * mean) / var)


def _variance_site(n: int, psi: float, omega: float) -> bool:
    """True where the float variance of ``moments`` may cancel past
    FAIL_REL_ERR."""
    if n <= EXACT_MOMENTS_MAX_N:
        return False
    mean, var = oracle.mean_variance(n, psi, omega)
    return var == 0 or _variance_limit(n, psi, omega) > FAIL_REL_ERR


def defect_site(op: tuple) -> str | None:
    """The known defect kind whose site ``op`` lies on, or None.

    Judged from the inputs and the oracle alone, never from the library:
    the site is where the defect's cause (a value or K sum beyond the
    double range, a cancellation whose limit exceeds FAIL_REL_ERR, the
    singular set) is present, whether or not the library shows it.  The
    harness runs these operations in the untimed census, so that the
    timed loop has no operation that fails at the seed."""
    fn, cat, args = op
    if fn in ("d_n", "delta", "tau"):
        n, psi, omega = args[:3]
        if fn == "delta" and _singular(psi, omega):
            return "nonfinite-on-singular-set"
        if fn == "tau":
            return "overflow" if _log_magnitude(fn, *args)[1] > LOG_DBL_MAX else None
        log_k = oracle.log_k_magnitude
        la, lb = log_k(n, 1, psi, omega), log_k(n, 0, psi, omega)
        if max(la, lb) > LOG_DBL_MAX:
            return "overflow"
        if cat == "near-one" and (la == lb or cancellation_limit(
                n, psi, omega, 1 / abs(math.expm1(lb - la))) > FAIL_REL_ERR):
            return "near-one-cancellation"
    elif fn == "moments" and _variance_site(*args):
        return "variance-cancellation"
    elif fn == "clt_scan" and any(_variance_site(n, *args[1:]) for n in args[0]):
        return "variance-cancellation"
    elif fn == "delta_grid":
        # K grows with omega above 1 and stays at most 1 below it, so the
        # largest omega of the axis decides; K <= omega^(n^2/4) bounds it
        n, axes = args
        psi_min, psi_max, _, omega_max = axes or DEFAULT_GRID_AXES
        if n * n / 4 * math.log(omega_max) > LOG_DBL_MAX:
            for psi in np.linspace(psi_min, psi_max, 101):
                if max(oracle.log_k_magnitude(n, a, psi, omega_max) for a in (0, 1)) > LOG_DBL_MAX:
                    return "overflow"
    return None


def _inaccurate_kind(op: tuple, payload, errs: list[float]) -> str:
    """``inaccurate``, unless every error over FAIL_REL_ERR is one a
    known cancellation explains (see the module docstring)."""
    fn, cat, args = op
    if fn in ("d_n", "delta") and cat == "near-one":
        n, psi, omega = args
        d = oracle.d_n(n, psi, omega)
        if d != 0 and errs[0] <= cancellation_limit(
                n, psi, omega, abs(oracle.k_sum(n, 1, psi, omega) / d)):
            return "near-one-cancellation"
    if fn == "moments" and args[0] > EXACT_MOMENTS_MAX_N:
        # errs: tau1, tau2, mean, variance, pi
        if (max(errs[:3] + errs[4:]) <= FAIL_REL_ERR
                and errs[3] <= _variance_limit(*args)):
            return "variance-cancellation"
    if fn == "clt_scan":
        _, psi, omega = args
        # standardizing with a variance off by a relative d moves the KS
        # distance by at most max_z |z phi(z)| d / 2 < d / 4
        if all(n > EXACT_MOMENTS_MAX_N and e <= _variance_limit(n, psi, omega) / 4
               for (n, _), e in zip(payload, errs) if e > FAIL_REL_ERR):
            return "variance-cancellation"
    return "inaccurate"


def check_op(op: tuple, error: str | None, finite: bool, payload, checked: bool,
             rng: np.random.Generator) -> tuple[str | None, list[float]]:
    """Classify one operation's outcome; see the module docstring."""
    fn, _, args = op
    if error is not None:
        if (error == "OverflowError" and fn in ("d_n", "delta", "tau")
                and _nonfinite_verdict(fn, None, *args) == "overflow"):
            return "overflow", []
        if (error == "ValueError" and fn == "clt_scan"
                and any(n > EXACT_MOMENTS_MAX_N and _variance_limit(n, *args[1:]) >= 1
                        for n in args[0])):
            # no digit of the float variance is left there: it rounds to
            # 0, which clt_scan rejects as degenerate
            return "variance-cancellation", []
        return f"raised-{error}", []
    if not finite:
        if fn == "delta" and _singular(*args[1:3]):
            return "nonfinite-on-singular-set", []
        kind = _nonfinite_kind(fn, args, payload)
        if kind:
            return kind, []
    if not checked:
        return None, []
    if fn in ("delta_grid", "tau1_region_grid", "clt_scan", "convergence_report"):
        errs = _scan_errors(fn, args, payload, rng)
    else:
        errs = _query_errors(fn, args, payload)
    if any(math.isinf(e) or math.isnan(e) for e in errs):
        return "wrong-value", errs
    if errs and max(errs) > FAIL_REL_ERR:
        return _inaccurate_kind(op, payload, errs), errs
    return None, errs
