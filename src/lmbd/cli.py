"""Command-line surface.

Every subcommand maps one-to-one onto a library operation and adds no
numerics of its own.  Grids and tables are emitted as CSV with a
``# manifest: {...}`` comment header; single-result reports are JSON
with the manifest embedded under a ``manifest`` key.  Identical
arguments (and seed) byte-reproduce every output.

Exit codes: 0 success, 1 numeric/domain error, 2 usage error.
"""

from __future__ import annotations

import argparse
import io
import json
import sys
from dataclasses import asdict

import numpy as np

from . import __version__
from .asymptotics import LimitRegime, convergence_report
from .core import ModelParams, cdf, moments, pmf, sample, tau
from .ensemble import (
    CountSample,
    EnsembleSpec,
    ensemble_accuracy,
    fit_mle,
    model_comparison,
)
from .factorization import GridSpec, d_n, delta_grid, tau1_region_grid
from .gauss import clt_scan

__all__ = ["main"]


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _manifest(command: str, args: argparse.Namespace) -> dict:
    params = {
        k: v
        for k, v in sorted(vars(args).items())
        if k not in ("func", "out") and v is not None
    }
    return {
        "command": command,
        "version": __version__,
        "params": params,
        "seed": getattr(args, "seed", None),
        "out": getattr(args, "out", None),
    }


def _csv_artifact(manifest: dict, header: list[str], rows) -> str:
    buf = io.StringIO()
    buf.write("# manifest: " + json.dumps(manifest, sort_keys=True) + "\n")
    buf.write(",".join(header) + "\n")
    for row in rows:
        buf.write(",".join(str(c) if isinstance(c, (str, int)) else _fmt(c) for c in row))
        buf.write("\n")
    return buf.getvalue()


def _finite_or_none(x: float) -> float | None:
    """x, or JSON null where it is not finite (NaN or inf)."""
    return x if np.isfinite(x) else None


def _json_artifact(manifest: dict, result: dict) -> str:
    return json.dumps({"manifest": manifest, "result": result}, sort_keys=True) + "\n"


def _emit(artifact: str, summary: str, out: str | None) -> None:
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(artifact)
        print(summary)
    else:
        sys.stdout.write(artifact)
        print(summary, file=sys.stderr)


def _params(args: argparse.Namespace) -> ModelParams:
    return ModelParams(n=args.n, psi=args.psi, omega=args.omega)


def _cmd_pmf(args):
    table = pmf(_params(args))
    man = _manifest("pmf", args)
    if args.format == "json":
        artifact = _json_artifact(man, {
            "y": list(range(args.n + 1)),
            "prob": [float(p) for p in table.probs()],
            "log_prob": [float(v) for v in table.log_prob],
            "log_normalizer": table.log_normalizer,
        })
    else:
        artifact = _csv_artifact(
            man,
            ["y", "prob", "log_prob"],
            [(y, p, lp) for y, (p, lp) in
             enumerate(zip(table.probs(), table.log_prob))],
        )
    return artifact, f"pmf n={args.n} psi={args.psi} omega={args.omega} rows={args.n + 1}"


def _cmd_cdf(args):
    value = cdf(_params(args), args.y)
    man = _manifest("cdf", args)
    return (_json_artifact(man, {"y": args.y, "cdf": value}),
            f"cdf(y={args.y}) = {_fmt(value)}")


def _cmd_moments(args):
    ms = moments(_params(args))
    man = _manifest("moments", args)
    result = {k: _finite_or_none(v) for k, v in asdict(ms).items()}
    return (_json_artifact(man, result),
            f"mean={_fmt(ms.mean)} variance={_fmt(ms.variance)}")


def _cmd_tau(args):
    value = tau(args.r, _params(args))
    man = _manifest("tau", args)
    return (_json_artifact(man, {"r": args.r, "tau": _finite_or_none(value)}),
            f"tau_{args.r} = {_fmt(value)}")


def _cmd_dn(args):
    value = d_n(_params(args))
    man = _manifest("dn", args)
    return (_json_artifact(man, {"d_n": _finite_or_none(value)}), f"D_n = {_fmt(value)}")


def _cmd_limits(args):
    edge = "to-zero" if args.regime == "omega-zero" else "to-infinity"
    psi_edge = {"none": "none", "zero": "to-zero", "one": "to-one"}[args.psi_edge]
    regime = LimitRegime(omega_edge=edge, n=args.n, psi_edge=psi_edge)
    if args.probes:
        probes = [float(p) for p in args.probes.split(",")]
    else:
        probes = [10.0 ** (-k if edge == "to-zero" else k) for k in range(1, 9)]
    report = convergence_report(regime, args.psi, probes)
    man = _manifest("limits", args)
    result = {
        "omega_edge": edge,
        "psi_edge": psi_edge,
        "n": args.n,
        "limit_mean": report.limit_mean,
        "limit_variance": report.limit_variance,
        "limit_distribution": {str(k): v for k, v in
                               sorted(report.limit_distribution.items())},
        "evidence": [{"omega": w, "tv": tv} for w, tv in report.numeric_evidence],
    }
    final_tv = report.numeric_evidence[-1][1]
    return (_json_artifact(man, result),
            f"limit mean={_fmt(report.limit_mean)} final TV={_fmt(final_tv)}")


def _cmd_clt(args):
    ns = [int(v) for v in args.ns.split(",")]
    rows = clt_scan(ns, args.psi, args.omega)
    man = _manifest("clt", args)
    artifact = _csv_artifact(
        man,
        ["n", "psi", "omega", "ks_distance"],
        [(r.n, r.psi, r.omega, r.ks_distance) for r in rows],
    )
    return artifact, f"clt scan over {len(rows)} n values, final ks={_fmt(rows[-1].ks_distance)}"


def _grid_spec(args) -> GridSpec:
    return GridSpec.linspace(
        n=args.n,
        psi_steps=args.psi_steps,
        omega_steps=args.omega_steps,
        psi_min=args.psi_min,
        psi_max=args.psi_max,
        omega_min=args.omega_min,
        omega_max=args.omega_max,
    )


def _grid_rows(grid):
    for i, psi in enumerate(grid.spec.psi_values):
        for j, omega in enumerate(grid.spec.omega_values):
            v = grid.values[i, j]
            yield (psi, omega, "nan" if np.isnan(v) else _fmt(v),
                   int(grid.flags[i, j]))


def _cmd_delta_grid(args):
    grid = delta_grid(_grid_spec(args))
    man = _manifest("delta-grid", args)
    artifact = _csv_artifact(man, ["psi", "omega", "value", "flag"], _grid_rows(grid))
    defined = grid.values[grid.flags]
    return artifact, (f"delta grid n={args.n}: {defined.size} defined cells, "
                      f"min={_fmt(defined.min())}")


def _cmd_tau1_grid(args):
    grid = tau1_region_grid(_grid_spec(args))
    man = _manifest("tau1-grid", args)
    artifact = _csv_artifact(man, ["psi", "omega", "value", "flag"], _grid_rows(grid))
    return artifact, (f"tau1 grid n={args.n}: "
                      f"{int(grid.flags.sum())} cells with tau1 <= 1")


def _cmd_accuracy(args):
    params = _params(args)
    value = ensemble_accuracy(EnsembleSpec(n=args.n, params=params))
    man = _manifest("accuracy", args)
    return (_json_artifact(man, {"accuracy": value}),
            f"majority-vote accuracy = {_fmt(value)}")


def _read_sample(args) -> tuple[CountSample, bool]:
    """The y,count CSV at ``args.input`` over the support {0..n}, and
    whether n was inferred: without ``--n`` it is the largest observed
    y, which truncates the support whenever the top counts went unseen."""
    pairs = []
    with open(args.input, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#") or line.lower().startswith("y,"):
                continue
            y, c = line.split(",")
            pairs.append((int(y), int(c)))
    if not pairs:
        raise ValueError(f"no observations found in {args.input}")
    inferred = args.n is None
    n = max(y for y, _ in pairs) if inferred else args.n
    return CountSample.from_pairs(n, pairs), inferred


def _cmd_fit(args):
    sample_, inferred = _read_sample(args)
    fit = fit_mle(sample_)
    man = _manifest("fit", args)
    result = dict(asdict(fit), n=sample_.n, n_inferred=inferred,
                  omega_hat=_finite_or_none(fit.omega_hat))
    return (_json_artifact(man, result),
            f"fit psi={_fmt(fit.psi_hat)} omega={fit.omega_hat} converged={fit.converged}")


def _cmd_compare(args):
    sample_, inferred = _read_sample(args)
    report = model_comparison(sample_)
    man = _manifest("compare", args)
    result = {
        "n": sample_.n,
        "n_inferred": inferred,
        "sample_total": report.sample_total,
        "empirical_accuracy": report.empirical_accuracy,
        "best_aic": report.best_aic,
        "models": [dict(asdict(m), parameters={
            k: _finite_or_none(v) for k, v in m.parameters.items()}) for m in report.models],
    }
    return (_json_artifact(man, result), f"best model by AIC: {report.best_aic}")


def _cmd_sample(args):
    draws = sample(_params(args), args.count, args.seed)
    man = _manifest("sample", args)
    artifact = _csv_artifact(man, ["y"], [(int(v),) for v in draws])
    return artifact, f"{args.count} draws, seed={args.seed}, mean={_fmt(draws.mean())}"


def _add_params(p: argparse.ArgumentParser) -> None:
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--psi", type=float, required=True)
    p.add_argument("--omega", type=float, required=True)


def _add_out(p: argparse.ArgumentParser) -> None:
    p.add_argument("--out", type=str, default=None)


_N_HELP = ("support bound (default: the largest observed y, "
           "flagged n_inferred in the artifact)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lmbd",
        description="Multiplicative binomial model for sums of exchangeable "
                    "dependent Bernoulli variables.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("pmf", help="full probability table")
    _add_params(p)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    _add_out(p)
    p.set_defaults(func=_cmd_pmf)

    p = sub.add_parser("cdf", help="P(Y <= y)")
    _add_params(p)
    p.add_argument("--y", type=int, required=True)
    _add_out(p)
    p.set_defaults(func=_cmd_cdf)

    p = sub.add_parser("moments", help="tau ratios, mean, variance, marginal pi")
    _add_params(p)
    _add_out(p)
    p.set_defaults(func=_cmd_moments)

    p = sub.add_parser("tau", help="the ratio tau_r")
    _add_params(p)
    p.add_argument("--r", type=int, required=True)
    _add_out(p)
    p.set_defaults(func=_cmd_tau)

    p = sub.add_parser("dn", help="the difference K_{n-1} - K_n")
    _add_params(p)
    _add_out(p)
    p.set_defaults(func=_cmd_dn)

    p = sub.add_parser("limits", help="limit-regime convergence report")
    p.add_argument("--regime", choices=("omega-zero", "omega-inf"), required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--psi", type=float, required=True)
    p.add_argument("--psi-edge", dest="psi_edge",
                   choices=("none", "zero", "one"), default="none")
    p.add_argument("--probes", type=str, default=None,
                   help="comma-separated omega probe values")
    _add_out(p)
    p.set_defaults(func=_cmd_limits)

    p = sub.add_parser("clt", help="Gaussian-approximation distance scan")
    p.add_argument("--ns", type=str, required=True,
                   help="comma-separated increasing trial counts")
    p.add_argument("--psi", type=float, required=True)
    p.add_argument("--omega", type=float, required=True)
    _add_out(p)
    p.set_defaults(func=_cmd_clt)

    for name, func, help_ in (
        ("delta-grid", _cmd_delta_grid, "Delta positivity scan"),
        ("tau1-grid", _cmd_tau1_grid, "tau1 region classification"),
    ):
        p = sub.add_parser(name, help=help_)
        p.add_argument("--n", type=int, required=True)
        p.add_argument("--psi-steps", dest="psi_steps", type=int, default=101)
        p.add_argument("--omega-steps", dest="omega_steps", type=int, default=101)
        p.add_argument("--psi-min", dest="psi_min", type=float, default=0.01)
        p.add_argument("--psi-max", dest="psi_max", type=float, default=0.99)
        p.add_argument("--omega-min", dest="omega_min", type=float, default=0.05)
        p.add_argument("--omega-max", dest="omega_max", type=float, default=2.0)
        _add_out(p)
        p.set_defaults(func=func)

    p = sub.add_parser("accuracy", help="majority-vote ensemble accuracy")
    _add_params(p)
    _add_out(p)
    p.set_defaults(func=_cmd_accuracy)

    p = sub.add_parser("fit", help="maximum-likelihood fit from y,count CSV")
    p.add_argument("--input", type=str, required=True)
    p.add_argument("--n", type=int, default=None, help=_N_HELP)
    _add_out(p)
    p.set_defaults(func=_cmd_fit)

    p = sub.add_parser("compare", help="LMBD vs Binomial vs Beta-Binomial")
    p.add_argument("--input", type=str, required=True)
    p.add_argument("--n", type=int, default=None, help=_N_HELP)
    _add_out(p)
    p.set_defaults(func=_cmd_compare)

    p = sub.add_parser("sample", help="seeded inverse-cdf draws")
    _add_params(p)
    p.add_argument("--count", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    _add_out(p)
    p.set_defaults(func=_cmd_sample)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        artifact, summary = args.func(args)
    except (ValueError, IndexError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    _emit(artifact, summary, args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
