"""Seeded input decks for the three benchmark workloads.

Inputs depend on ``--seed``, numpy and the oracle only (directly, or
through ``checks.defect_site``), never on ``lmbd``: a change to the
library's sampler or kernel cannot change what it is asked.  An
operation is a tuple ``(fn, category, args)``.

Every workload runs whole *decks*.  A deck has a fixed composition
(which functions, which sizes, which parameter categories) and only the
parameter values inside each category change with the seed; they are
drawn stratified, one per equal slice of the range.  So the share of
each kind of input is the same on every seed, and a run that makes more
passes does not change the mix.  The harness then moves the operations
that lie on a known defect's site to an untimed census (see run.py), so
those shares move a little with the seed; only for the slow CLT scan is
the moved operation replaced by a fresh draw.
"""

from __future__ import annotations

import math

import numpy as np

import checks
import oracle

WORKLOADS = ("query", "scan", "cli")

# query: single-point calls over (category, function, n); n spans 2..2000
# and straddles the n <= 64 exact-moments path (64 and 65 are both in)
QUERY_FUNCS = ("pmf", "cdf", "moments", "tau", "marginal_pi", "sample",
               "conditional_cpr", "ensemble_accuracy", "d_n", "delta",
               "theorem2_check")
QUERY_NS = (2, 5, 16, 40, 64, 65, 128, 500, 2000)
QUERY_CATEGORIES = ("interior", "edge", "near-one", "singular")
# calls per (category, function, n) in a deck, except moments, which gets
# one: at n <= 64 it takes the exact Fraction path (0.1-0.25 s a call at
# n = 40, 1-3 s at n = 64), so one per cell already makes it most of the
# pass time.  A pass of three decks has 9 slow calls at n = 64 (the
# singular-set ones are cheap), fewer than the 10 samples beyond the
# tail, so the tail (a pass's 11th-largest latency) falls near the top of
# its 12 calls at n = 40, among the interior and near-one ones, which
# cost about the same on every seed.
QUERY_DRAWS = 10
QUERY_DECKS = 3
SAMPLE_COUNT = 100

# scan: 101 x 101 grids at a few n, one CLT scan crossing n = 64, and the
# two omega-edge convergence reports
GRID_NS = (5, 20, 64)
CLT_NS = (8, 16, 32, 64, 128, 256)
LIMIT_NS = (5, 8, 11, 20)
# the grid size at which exp(log K_n) leaves the double range inside the
# seeded omega range
OVERFLOW_GRID_N = 64
SCAN_DECKS = 12


def _rng(seed: int, workload: str) -> np.random.Generator:
    return np.random.default_rng([seed, WORKLOADS.index(workload)])


def _strata(rng: np.random.Generator, k: int) -> np.ndarray:
    """k uniforms on [0, 1), one in each slice [i/k, (i+1)/k), shuffled."""
    return rng.permutation((np.arange(k) + rng.random(k)) / k)


def _query_params(cat: str, slot: int, u1: float, u2: float) -> tuple[float, float]:
    if cat == "interior":
        return 0.02 + 0.96 * u1, math.exp(math.log(0.2) + math.log(25.0) * u2)
    if cat == "edge":
        d = 10.0 ** (-6.0 + 4.0 * u1)
        psi = d if slot % 2 == 0 else 1.0 - d
        omega = 10.0 ** (-8.0 + 5.0 * u2) if slot % 4 < 2 else 10.0 ** (3.0 + 5.0 * u2)
        return psi, omega
    if cat == "near-one":
        step = 10.0 ** (-10.0 + 6.0 * u2)
        return 0.02 + 0.96 * u1, 1.0 + step if slot % 2 == 0 else 1.0 - step
    # singular: psi = 1/2, omega = 1, or both
    interior_psi = 0.02 + 0.96 * u1
    interior_omega = math.exp(math.log(0.2) + math.log(25.0) * u2)
    return ((0.5, interior_omega), (interior_psi, 1.0), (0.5, 1.0))[slot % 3]


def query_deck(rng: np.random.Generator, moments_u: dict) -> list:
    """One deck; ``moments_u[cat, n]`` gives the (u1, u2) of its one
    ``moments`` call in that cell."""
    ops = []
    for cat in QUERY_CATEGORIES:
        cells = [(fn, n) for fn in QUERY_FUNCS for n in QUERY_NS
                 for _ in range(1 if fn == "moments" else QUERY_DRAWS)]
        u = _strata(rng, len(cells)), _strata(rng, len(cells)), rng.random(len(cells))
        for slot, (fn, n) in enumerate(cells):
            u1, u2 = moments_u[cat, n] if fn == "moments" else (u[0][slot], u[1][slot])
            psi, omega = _query_params(cat, slot, u1, u2)
            extra = ()
            if fn == "cdf":
                extra = (int(u[2][slot] * (n + 1)),)
            elif fn == "tau":
                extra = (1 + int(u[2][slot] * n),)
            elif fn == "sample":
                extra = (SAMPLE_COUNT, int(u[2][slot] * 2 ** 31))
            ops.append((fn, cat, (n, psi, omega) + extra))
    # shuffled, so that the cheap calls are spread over the whole pass
    # between the slow exact-moments ones
    return [ops[i] for i in rng.permutation(len(ops))]


def _model_counts(rng, n: int, psi: float, omega: float, total: int) -> np.ndarray:
    p = np.array([float(v) for v in oracle.probs(n, psi, omega)])
    return rng.multinomial(total, p / p.sum())


def scan_deck(rng: np.random.Generator, clt_u: tuple[float, float]) -> list:
    """One deck; ``clt_u`` gives the (psi, omega) of its CLT scan."""
    ops = []
    for fn in ("delta_grid", "tau1_region_grid"):
        # the CLI's default axes (psi = 1/2 is a node) and seeded axes
        for n in GRID_NS:
            ops.append((fn, "default", (n, None)))
            u = rng.random(5)
            psi_omega_min = (0.005 + 0.045 * u[0], 0.95 + 0.045 * u[1], 0.02 + 0.18 * u[2])
            if fn == "delta_grid" and n == OVERFLOW_GRID_N:
                # Delta is finite on the whole axis, but above omega = 2
                # exp(log K_n) overflows: the timed grid stays below it,
                # and a grid reaching past it goes to the census
                ops.append((fn, "seeded", (n, psi_omega_min + (1.5 + 0.45 * u[3],))))
                ops.append((fn, "overflow", (n, psi_omega_min + (2.5 + 1.5 * u[4],))))
            else:
                ops.append((fn, "seeded", (n, psi_omega_min + (1.5 + 2.5 * u[3],))))
    # a CLT scan on a variance-cancellation site stays in the deck, for
    # the harness to move to the census (checks.defect_site), and is
    # followed by a fresh draw, so that every deck times one scan off it
    u = clt_u
    while True:
        op = ("clt_scan", "growing-n", (CLT_NS, 0.2 + 0.6 * u[0], math.exp((u[1] - 0.5) * 0.2)))
        ops.append(op)
        if not checks.defect_site(op):
            break
        u = rng.random(2)
    for edge in ("to-zero", "to-infinity"):
        u = rng.random(2)
        n = LIMIT_NS[int(u[0] * len(LIMIT_NS))]
        probes = tuple(10.0 ** (-k if edge == "to-zero" else k) for k in range(1, 9))
        ops.append(("convergence_report", edge, (edge, n, 0.1 + 0.8 * u[1], probes)))
    return ops


def _csv(counts) -> str:
    return "y,count\n" + "".join(f"{y},{c}\n" for y, c in enumerate(counts))


def cli_deck(rng: np.random.Generator, workdir: str) -> tuple[list, dict]:
    """The 13 subcommands at small sizes, and the CSV files that ``fit``
    and ``compare`` read (returned as {path: text} for the caller to
    write)."""
    u = rng.random(16)
    n = 5 + int(u[0] * 16)
    psi = f"{0.1 + 0.8 * u[1]:.6f}"
    omega = f"{math.exp((u[2] - 0.5) * 2.0):.6f}"
    base = ["--n", str(n), "--psi", psi, "--omega", omega]
    fit_n = (5, 9)[int(u[3] * 2)]
    counts = _model_counts(rng, fit_n, 0.3 + 0.4 * u[4],
                           math.exp((u[5] - 0.5) * 3.0 / fit_n), 2000)
    files = {f"{workdir}/fit.csv": _csv(counts)}
    counts = _model_counts(rng, fit_n, 0.3 + 0.4 * u[6],
                           math.exp((u[7] - 0.5) * 3.0 / fit_n), 2000)
    files[f"{workdir}/compare.csv"] = _csv(counts)
    grid = ["--n", str(3 + int(u[8] * 8)), "--psi-steps", "21", "--omega-steps", "21"]
    ops = [
        ["pmf", *base, "--format", "json" if u[9] < 0.5 else "csv"],
        ["cdf", *base, "--y", str(int(u[10] * (n + 1)))],
        ["moments", *base],
        ["tau", *base, "--r", str(1 + int(u[11] * n))],
        ["dn", *base],
        ["limits", "--regime", "omega-zero" if u[12] < 0.5 else "omega-inf",
         "--n", str(n), "--psi", psi],
        ["clt", "--ns", "5,10,20", "--psi", psi, "--omega", omega],
        ["delta-grid", *grid],
        ["tau1-grid", *grid],
        ["accuracy", *base],
        ["fit", "--input", f"{workdir}/fit.csv", "--n", str(fit_n)],
        ["compare", "--input", f"{workdir}/compare.csv", "--n", str(fit_n)],
        ["sample", *base, "--count", "200", "--seed", str(int(u[13] * 2 ** 31))],
    ]
    order = rng.permutation(len(ops))
    return [("cli", ops[i][0], tuple(ops[i])) for i in order], files


def make_decks(workload: str, seed: int, workdir: str = "") -> tuple[list, dict]:
    """(decks, files): one pass of decks, which a run repeats whole, plus
    the input files the operations read.  With the library as it was when
    the benchmark was written, one pass takes longer than the run length,
    so every run makes exactly one pass and sees exactly the same mix.  The cli pass is its deck twice, so every
    call has a twin with the same arguments to be byte-compared with."""
    rng = _rng(seed, workload)
    if workload == "cli":
        deck, files = cli_deck(rng, workdir)
        return [deck, deck], files
    if workload == "query":
        # the exact moments calls are most of a pass's time, and their
        # cost moves with psi and omega, so each cell's calls are drawn
        # stratified over the pass, one per deck
        strata = {(cat, n): (_strata(rng, QUERY_DECKS), _strata(rng, QUERY_DECKS))
                  for cat in QUERY_CATEGORIES for n in QUERY_NS}
        return [query_deck(rng, {cell: (u1[d], u2[d]) for cell, (u1, u2) in strata.items()})
                for d in range(QUERY_DECKS)], {}
    # the CLT scans are the slowest operations of a pass, and their cost
    # moves with psi and omega, so they are drawn stratified over the pass
    clt_u = _strata(rng, SCAN_DECKS), _strata(rng, SCAN_DECKS)
    return [scan_deck(rng, (clt_u[0][d], clt_u[1][d])) for d in range(SCAN_DECKS)], {}
