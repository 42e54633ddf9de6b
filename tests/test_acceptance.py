"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (visible with ``pytest -s`` or in captured output).

Criterion 8 (normal-approximation scan) checks the large-n behaviour
the law has in each of three regimes.  At omega = 1 the law is Binomial
and the standardized count is asymptotically Gaussian.  With omega held
fixed away from 1 the interaction exponent y (n - y) grows like n^2, so
there is no Gaussian limit: for omega < 1 the law collapses onto
{0, n}, and for omega > 1 it tends to a discrete Gaussian on the unit
lattice around n/2.  Those cells are checked against their non-Gaussian
limits and every distance against a 50-digit mpmath evaluation; see the
criterion 8 entry in CHANGES.md.
"""

import math
import time

import mpmath as mp
import numpy as np
import pytest
from scipy.stats import binom

from lmbd import (
    CountSample,
    EnsembleSpec,
    GridSpec,
    LimitRegime,
    ModelParams,
    clt_scan,
    conditional_cpr,
    d_n,
    delta,
    delta_grid,
    fit_mle,
    limit_distribution,
    limit_moments,
    marginal_pi,
    moments,
    pmf,
    sample,
    tau1_region_grid,
)
from lmbd.cli import main as cli_main

from enumeration_oracle import enumerate_pmf_oracle


def report(num: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[criterion {num:2d}] {status} - {name}{suffix}")
    assert ok, f"criterion {num} failed: {name}{suffix}"


def test_criterion_01_binomial_reduction():
    """omega=1 reduces the pmf to the closed-form Binomial, 1e-12/point."""
    t0 = time.time()
    worst = 0.0
    for n in range(1, 51):
        y = np.arange(n + 1)
        for psi in np.arange(0.1, 0.95, 0.1):
            got = pmf(ModelParams(n, float(psi), 1.0)).probs()
            worst = max(worst, float(np.abs(got - binom.pmf(y, n, psi)).max()))
    elapsed = time.time() - t0
    report(1, "binomial reduction", worst < 1e-12 and elapsed < 1.0,
           f"max err {worst:.2e}, {elapsed:.2f}s")


def test_criterion_02_oracle_equivalence():
    """pmf equals the 2^n enumeration oracle, 1e-12/entry, n <= 14."""
    t0 = time.time()
    worst = 0.0
    for n in range(2, 15):
        for psi in (0.1, 0.5, 0.9):
            for omega in (0.25, 1.0, 4.0):
                p = ModelParams(n, psi, omega)
                err = float(np.abs(
                    pmf(p).probs() - enumerate_pmf_oracle(p).probs()).max())
                worst = max(worst, err)
    elapsed = time.time() - t0
    report(2, "enumeration-oracle equivalence",
           worst < 1e-12 and elapsed < 30.0,
           f"max err {worst:.2e}, {elapsed:.1f}s")


def test_criterion_03_moment_formula_consistency():
    """mean = n psi tau1 and variance = n psi eta vs raw pmf moments."""
    worst = 0.0
    for n in range(2, 15):
        for psi in (0.1, 0.5, 0.9):
            for omega in (0.25, 1.0, 4.0):
                p = ModelParams(n, psi, omega)
                probs = pmf(p).probs()
                y = np.arange(n + 1)
                mean = float((y * probs).sum())
                var = float(((y - mean) ** 2 * probs).sum())
                ms = moments(p)
                worst = max(worst,
                            abs(ms.mean - mean) / mean,
                            abs(ms.variance - var) / max(var, 1e-300))
    report(3, "moment-formula consistency", worst < 1e-10,
           f"max rel err {worst:.2e}")


def test_criterion_04_limit_convergence():
    """TV to the closed-form limit < 1e-6 at omega = 1e-8 and 1e8;
    limiting moments match the closed forms within 1e-6."""
    t0 = time.time()
    worst_tv = 0.0
    worst_mom = 0.0
    for n in range(2, 16):
        for psi in (0.1, 0.5, 0.9):
            for edge, omega in (("to-zero", 1e-8), ("to-infinity", 1e8)):
                regime = LimitRegime(edge, n=n)
                limit = np.zeros(n + 1)
                for y, mass in limit_distribution(regime, psi).items():
                    limit[y] = mass
                probs = pmf(ModelParams(n, psi, omega)).probs()
                worst_tv = max(worst_tv, 0.5 * float(np.abs(probs - limit).sum()))
            mean, var = limit_moments(LimitRegime("to-infinity", n=n), psi)
            if n % 2 == 0:
                worst_mom = max(worst_mom, abs(mean - n / 2), abs(var))
            else:
                worst_mom = max(worst_mom,
                                abs(mean - ((n - 1) / 2 + psi)),
                                abs(var - psi * (1 - psi)))
    elapsed = time.time() - t0
    report(4, "limit-theorem convergence",
           worst_tv < 1e-6 and worst_mom < 1e-6 and elapsed < 10.0,
           f"max TV {worst_tv:.2e}, max moment err {worst_mom:.2e}, {elapsed:.1f}s")


def test_criterion_05_factorization():
    """D_n reconstruction within 1e-10 relative; Delta > 0 on 101x101
    grids for n in {2..12}; n=2 Delta = 1 within 1e-10."""
    t0 = time.time()
    worst_rec = 0.0
    for n in range(2, 13):
        for psi in (0.1, 0.35, 0.65, 0.9):
            for omega in (0.3, 0.8, 1.4, 2.0):
                p = ModelParams(n, psi, omega)
                factors = (psi - 1.0) * (2.0 * psi - 1.0) * (omega - 1.0)
                if n % 2 == 1:
                    factors *= omega + 1.0
                d = d_n(p)
                worst_rec = max(worst_rec,
                                abs(delta(p) * factors - d) / abs(d))
    min_delta = math.inf
    for n in (4, 5, 9, 12, 2, 3, 6, 7, 8, 10, 11):
        grid = delta_grid(GridSpec.linspace(n=n))
        min_delta = min(min_delta, float(grid.values[grid.flags].min()))
    grid2 = delta_grid(GridSpec.linspace(n=2))
    n2_err = float(np.abs(grid2.values[grid2.flags] - 1.0).max())
    elapsed = time.time() - t0
    report(5, "K-difference factorization",
           worst_rec < 1e-10 and min_delta > 0.0 and n2_err < 1e-10
           and elapsed < 30.0,
           f"rec {worst_rec:.2e}, min Delta {min_delta:.2e}, "
           f"n=2 err {n2_err:.2e}, {elapsed:.1f}s")


def test_criterion_06_region_reproduction():
    """tau1 <= 1 region equals the quadrant rule; psi > pi strictly on
    psi in [0.55, 0.95], omega in [1.05, 2]."""
    region_ok = True
    for n in (4, 5, 9, 12):
        spec = GridSpec.linspace(n=n)
        grid = tau1_region_grid(spec)
        for i, psi in enumerate(spec.psi_values):
            for j, omega in enumerate(spec.omega_values):
                expect = (psi <= 0.5 and omega <= 1.0) or (
                    psi >= 0.5 and omega >= 1.0)
                if grid.flags[i, j] != expect:
                    region_ok = False
    ordering_ok = True
    for n in (4, 5, 9, 12):
        for psi in np.linspace(0.55, 0.95, 9):
            for omega in np.linspace(1.05, 2.0, 9):
                if not float(psi) > marginal_pi(ModelParams(n, float(psi), float(omega))):
                    ordering_ok = False
    report(6, "tau1 region + psi > pi ordering", region_ok and ordering_ok,
           f"region {region_ok}, ordering {ordering_ok}")


def test_criterion_07_cpr_identity():
    """1 / sqrt(CPR) recovers omega within 1e-10 for n in {2..10}."""
    worst = 0.0
    for n in range(2, 11):
        for psi in (0.2, 0.5, 0.8):
            for omega in (0.4, 1.0, 2.5):
                got = 1.0 / math.sqrt(conditional_cpr(ModelParams(n, psi, omega)))
                worst = max(worst, abs(got - omega) / omega)
    report(7, "conditional cross-product-ratio identity", worst < 1e-10,
           f"max rel err {worst:.2e}")


def _ks_reference(weights) -> float:
    """50-digit KS distance between the standardized law with unnormalized
    ``weights`` on consecutive unit-spaced points and the standard normal.

    Like ``standardized_ks_distance`` it is taken at the support points,
    where the cdf is right-continuous; the left limits are not compared.
    """
    with mp.workdps(50):
        total = mp.fsum(weights)
        probs = [w / total for w in weights]
        mean = mp.fsum(y * p for y, p in enumerate(probs))
        sd = mp.sqrt(mp.fsum((y - mean) ** 2 * p for y, p in enumerate(probs)))
        cdf = mp.mpf(0)
        worst = mp.mpf(0)
        for y, p in enumerate(probs):
            cdf += p
            worst = max(worst, abs(cdf - mp.ncdf((y - mean) / sd)))
        return float(worst)


def _law_weights(n: int, psi: float, omega: float) -> list:
    """C(n, y) psi^y (1 - psi)^(n - y) omega^(y (n - y)), y = 0..n, in
    mpmath from the exact values of the float inputs."""
    psi, omega = mp.mpf(psi), mp.mpf(omega)
    return [mp.binomial(n, y) * psi ** y * (1 - psi) ** (n - y)
            * omega ** (y * (n - y)) for y in range(n + 1)]


def _collapse_limit_ks(psi: float) -> float:
    """n -> infinity limit of the KS distance at fixed omega < 1.

    The law collapses onto {0, n} with P(n) / P(0) -> (psi / (1 - psi))^n.
    At psi = 1/2 the two points carry 1/2 each and standardize to -1 and
    +1, so the distance is 1/2 - Phi(-1) = Phi(1) - 1/2.  Otherwise one
    point takes all the mass; it standardizes to z -> 0, where the cdf
    jumps to 1 and Phi(0) = 1/2, so the distance tends to 1/2.
    """
    if psi == 0.5:
        with mp.workdps(50):
            return float(mp.ncdf(1) - mp.mpf(1) / 2)
    return 0.5


def _lattice_limit_weights(psi: float, omega: float, k_max: int = 40) -> list:
    """Unnormalized n -> infinity limit, n even, at fixed omega > 1.

    With y = n/2 + k the exponent y (n - y) is n^2/4 - k^2 and
    C(n, n/2 + k) / C(n, n/2) -> 1, so P(n/2 + k) is proportional to
    rho^k omega^(-k^2) with rho = psi / (1 - psi): a discrete Gaussian
    on the unit lattice.  |k| <= 40 leaves out mass below omega^(-1600).
    """
    psi, omega = mp.mpf(psi), mp.mpf(omega)
    rho = psi / (1 - psi)
    return [rho ** k * omega ** (-k * k) for k in range(-k_max, k_max + 1)]


def test_criterion_08_normal_approximation_scan():
    """KS distance along n in {10, 40, 160} for psi in {0.3, 0.5},
    omega in {0.8, 1, 1.5}, each cell checked against its regime's limit.

    omega = 1 (Binomial, CLT holds): decreasing along n and < 0.1 at
    n = 160.  omega < 1 fixed: the interaction exponent (n - y) y grows
    like n^2 and the law collapses onto {0, n}, so the distance rises
    above its n = 10 value and is within 1e-6 of the two-point limit at
    n = 160.  omega > 1 fixed: the law tends to a discrete Gaussian on the
    unit lattice, so the distance decreases toward that law's distance L,
    stays above L > 0.1, and each quadrupling of n at least halves
    KS - L (the approach is O(1/n)).  Every distance is within 1e-12 of a
    50-digit mpmath evaluation.  Only the clt_scan calls are timed.
    See the criterion 8 entry in CHANGES.md.
    """
    ns = [10, 40, 160]
    cells = [(psi, omega) for psi in (0.3, 0.5) for omega in (0.8, 1.0, 1.5)]
    t0 = time.time()
    scans = {cell: [r.ks_distance for r in clt_scan(ns, *cell)]
             for cell in cells}
    elapsed = time.time() - t0
    failures = []
    worst_gap = 0.0
    for (psi, omega), ks in scans.items():
        ref = [_ks_reference(_law_weights(n, psi, omega)) for n in ns]
        worst_gap = max(worst_gap, *(abs(a - b) for a, b in zip(ks, ref)))
        if omega == 1.0:
            ok = ks[0] > ks[1] > ks[2] and ks[2] < 0.1
        elif omega < 1.0:
            ok = (ks[0] < ks[1] and ks[0] < ks[2]
                  and abs(ks[2] - _collapse_limit_ks(psi)) <= 1e-6)
        else:
            limit = _ks_reference(_lattice_limit_weights(psi, omega))
            gaps = [k - limit for k in ks]
            ok = (ks[0] > ks[1] > ks[2] > limit > 0.1
                  and gaps[1] <= gaps[0] / 2 and gaps[2] <= gaps[1] / 2)
        if not ok:
            failures.append((psi, omega, [round(k, 4) for k in ks]))
    report(8, "normal-approximation scan",
           not failures and worst_gap <= 1e-12 and elapsed < 5.0,
           f"failing cells {failures}, oracle gap {worst_gap:.1e}, "
           f"{elapsed:.1f}s")


def test_criterion_09_fit_recovery():
    """Noiseless fits recover (psi, omega) within 1e-3; sampled fits
    within 3 standard errors; binomial data gives omega ~ 1."""
    ok = True
    details = []
    for n, psi, omega in [(7, 0.45, 1.5), (9, 0.6, 0.8), (5, 0.3, 1.0)]:
        counts = np.round(pmf(ModelParams(n, psi, omega)).probs() * 10 ** 6)
        fit = fit_mle(CountSample(n=n, counts=tuple(int(c) for c in counts)))
        if abs(fit.psi_hat - psi) > 1e-3 or abs(fit.omega_hat - omega) > 1e-3:
            ok = False
            details.append(f"noiseless ({n},{psi},{omega})")
    truth = ModelParams(9, 0.6, 0.8)
    draws = sample(truth, 10 ** 5, seed=31415)
    fit = fit_mle(CountSample(
        n=9, counts=tuple(int(c) for c in np.bincount(draws, minlength=10))))
    se_psi, se_omega = fit.standard_errors
    if abs(fit.psi_hat - 0.6) > 3 * se_psi or abs(fit.omega_hat - 0.8) > 3 * se_omega:
        ok = False
        details.append("sampled recovery")
    draws = sample(ModelParams(5, 0.3, 1.0), 10 ** 5, seed=777)
    fit = fit_mle(CountSample(
        n=5, counts=tuple(int(c) for c in np.bincount(draws, minlength=6))))
    if abs(fit.omega_hat - 1.0) > 3 * fit.standard_errors[1]:
        ok = False
        details.append("binomial omega")
    report(9, "maximum-likelihood recovery", ok, "; ".join(details))


def test_criterion_10_stability_at_scale():
    """pmf finite and normalized at n=500 with omega in {0.5, 2}."""
    ok = True
    for omega in (0.5, 2.0):
        table = pmf(ModelParams(500, 0.5, omega))
        if not (np.isfinite(table.log_normalizer)
                and abs(table.probs().sum() - 1.0) < 1e-12):
            ok = False
    report(10, "log-domain stability at n=500", ok)


def test_criterion_11_cli_determinism(tmp_path, capsys):
    """Every subcommand byte-reproduces its artifact under an identical
    manifest."""
    draws = sample(ModelParams(5, 0.4, 0.9), 2000, seed=4)
    data = tmp_path / "sample.csv"
    data.write_text("y,count\n" + "".join(
        f"{y},{c}\n" for y, c in enumerate(np.bincount(draws, minlength=6))))
    cases = {
        "pmf": ["pmf", "--n", "6", "--psi", "0.4", "--omega", "1.3"],
        "cdf": ["cdf", "--n", "6", "--psi", "0.4", "--omega", "1.3", "--y", "3"],
        "moments": ["moments", "--n", "6", "--psi", "0.4", "--omega", "1.3"],
        "tau": ["tau", "--n", "6", "--psi", "0.4", "--omega", "1.3", "--r", "2"],
        "dn": ["dn", "--n", "6", "--psi", "0.4", "--omega", "1.3"],
        "limits": ["limits", "--regime", "omega-inf", "--n", "5", "--psi", "0.3"],
        "clt": ["clt", "--ns", "10,20,40", "--psi", "0.5", "--omega", "1.1"],
        "delta-grid": ["delta-grid", "--n", "5", "--psi-steps", "21",
                       "--omega-steps", "21"],
        "tau1-grid": ["tau1-grid", "--n", "5", "--psi-steps", "21",
                      "--omega-steps", "21"],
        "accuracy": ["accuracy", "--n", "9", "--psi", "0.55", "--omega", "0.8"],
        "sample": ["sample", "--n", "5", "--psi", "0.4", "--omega", "1.2",
                   "--count", "100", "--seed", "9"],
        "fit": ["fit", "--input", str(data)],
        "compare": ["compare", "--input", str(data)],
    }
    mismatched = []
    for name, argv in cases.items():
        out = tmp_path / f"{name}.out"
        assert cli_main(argv + ["--out", str(out)]) == 0
        first = out.read_bytes()
        assert cli_main(argv + ["--out", str(out)]) == 0
        if out.read_bytes() != first:
            mismatched.append(name)
    capsys.readouterr()
    report(11, "CLI determinism", not mismatched,
           f"mismatched: {mismatched}" if mismatched else "13 subcommands")
