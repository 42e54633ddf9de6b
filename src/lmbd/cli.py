"""Command-line surface.

The CLI is one command table, ``COMMANDS``: each entry names a
subcommand, its help string, its handler and its argument specs, and
``build_parser`` walks the table.  Every subcommand maps one-to-one onto
a library operation and adds no numerics of its own.  A handler returns
only ``(result, summary)``, the result as raw records and values, and
``_artifact`` alone renders every value: a ``(header, rows)`` result as
CSV under a ``# manifest: {...}`` comment line, any other as JSON with
the run manifest under a ``manifest`` key, and a non-finite value as
JSON ``null`` or an empty CSV field.  Identical arguments (and seed)
byte-reproduce every output.

Exit codes: 0 success, 1 numeric/domain error, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from typing import Callable, NamedTuple

from . import __version__, asymptotics, core, ensemble, factorization, gauss

__all__ = ["main"]


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _params(args: argparse.Namespace) -> core.ModelParams:
    return core.ModelParams(n=args.n, psi=args.psi, omega=args.omega)


def _list(flag: str, text: str, type_: type) -> list:
    """The comma-separated values of ``flag`` as ``type_``; a token that
    does not parse raises one ValueError that names the flag, and the
    parser's own message quotes the token."""
    try:
        return [type_(token) for token in text.split(",")]
    except ValueError as exc:
        raise ValueError(f"{flag}: {exc}") from None


def _cmd_pmf(args):
    table = core.pmf(_params(args))
    summary = f"pmf n={args.n} psi={args.psi} omega={args.omega} rows={args.n + 1}"
    y, prob, log_prob = range(args.n + 1), table.probs().tolist(), table.log_prob.tolist()
    if args.format == "json":
        return {"y": list(y), "prob": prob, "log_prob": log_prob,
                "log_normalizer": table.log_normalizer}, summary
    return (["y", "prob", "log_prob"], list(zip(y, prob, log_prob))), summary


def _cmd_cdf(args):
    value = core.cdf(_params(args), args.y)
    return {"y": args.y, "cdf": value}, f"cdf(y={args.y}) = {_fmt(value)}"


def _cmd_moments(args):
    ms = core.moments(_params(args))
    return ms, f"mean={_fmt(ms.mean)} variance={_fmt(ms.variance)}"


def _cmd_tau(args):
    value = core.tau(args.r, _params(args))
    return {"r": args.r, "tau": value}, f"tau_{args.r} = {_fmt(value)}"


def _cmd_dn(args):
    value = factorization.d_n(_params(args))
    return {"d_n": value}, f"D_n = {_fmt(value)}"


def _cmd_limits(args):
    edge = "to-zero" if args.regime == "omega-zero" else "to-infinity"
    probes = (_list("--probes", args.probes, float) if args.probes
              else [10.0 ** (-k if edge == "to-zero" else k) for k in range(1, 9)])
    regime = asymptotics.LimitRegime(edge, args.n)
    report = asymptotics.convergence_report(regime, args.psi, probes)
    result = {
        "omega_edge": edge,
        "n": args.n,
        "limit_mean": report.limit_mean,
        "limit_variance": report.limit_variance,
        "limit_distribution": {str(k): v for k, v in report.limit_distribution.items()},
        "evidence": [{"omega": w, "tv": tv} for w, tv in report.numeric_evidence],
    }
    final_tv = report.numeric_evidence[-1][1]
    return result, f"limit mean={_fmt(report.limit_mean)} final TV={_fmt(final_tv)}"


def _cmd_clt(args):
    rows = gauss.clt_scan(_list("--ns", args.ns, int), args.psi, args.omega)
    return ((gauss.CltScanRow._fields, rows),
            f"clt scan over {len(rows)} n values, final ks={_fmt(rows[-1].ks_distance)}")


def _grid(grid_of, args):
    """``grid_of`` over the arguments' axes, and its CSV table: one row
    per (psi, omega) cell."""
    grid = grid_of(factorization.GridSpec.linspace(
        args.n, args.psi_steps, args.omega_steps, args.psi_min, args.psi_max,
        args.omega_min, args.omega_max))
    rows = [(psi, omega, v, int(flag))
            for psi, values, flags in zip(grid.spec.psi_values, grid.values.tolist(), grid.flags)
            for omega, v, flag in zip(grid.spec.omega_values, values, flags)]
    return grid, (["psi", "omega", "value", "flag"], rows)


def _cmd_delta_grid(args):
    grid, table = _grid(factorization.delta_grid, args)
    return table, (f"delta grid n={args.n}: {int(grid.flags.sum())} positive cells, "
                   f"min={_fmt(grid.values.min())}")


def _cmd_tau1_grid(args):
    grid, table = _grid(factorization.tau1_region_grid, args)
    return table, f"tau1 grid n={args.n}: {int(grid.flags.sum())} cells with tau1 <= 1"


def _cmd_accuracy(args):
    value = ensemble.ensemble_accuracy(ensemble.EnsembleSpec(n=args.n, params=_params(args)))
    return {"accuracy": value}, f"majority-vote accuracy = {_fmt(value)}"


def _read_sample(args) -> tuple[ensemble.CountSample, bool]:
    """The y,count CSV at ``args.input`` over the support {0..n}, and
    whether n was inferred: without ``--n`` it is the largest observed
    y, which truncates the support whenever the top counts went unseen."""
    pairs = []
    with open(args.input, "r", encoding="utf-8") as fh:
        for number, line in enumerate(fh, 1):
            line = line.strip()
            if not line or line.startswith("#") or line.lower().startswith("y,"):
                continue
            try:
                y, c = map(int, line.split(","))
            except ValueError:
                raise ValueError(f"{args.input}, line {number}: row {line!r} is not "
                                 "two integers y,count") from None
            pairs.append((y, c))
    if not pairs:
        raise ValueError(f"no observations found in {args.input}")
    inferred = args.n is None
    n = max(y for y, _ in pairs) if inferred else args.n
    return ensemble.CountSample.from_pairs(n, pairs), inferred


def _cmd_fit(args):
    sample, inferred = _read_sample(args)
    fit = ensemble.fit_mle(sample)
    result = dict(fit._asdict(), n=sample.n, n_inferred=inferred)
    return result, f"fit psi={_fmt(fit.psi_hat)} omega={fit.omega_hat} converged={fit.converged}"


def _cmd_compare(args):
    sample, inferred = _read_sample(args)
    report = ensemble.model_comparison(sample)
    result = dict(report._asdict(), n=sample.n, n_inferred=inferred)
    return result, f"best model by AIC: {report.best_aic}"


def _cmd_sample(args):
    draws = core.sample(_params(args), args.count, args.seed)
    return ((["y"], [(v,) for v in draws.tolist()]),
            f"{args.count} draws, seed={args.seed}, mean={_fmt(draws.mean())}")


def _required(flag: str, type_: type) -> tuple[str, dict]:
    return flag, {"type": type_, "required": True}


def _default(flag: str, value) -> tuple[str, dict]:
    return flag, {"type": type(value), "default": value}


_MODEL = (_required("--n", int), _required("--psi", float), _required("--omega", float))
_GRID = (_required("--n", int), _default("--psi-steps", 101), _default("--omega-steps", 101),
         _default("--psi-min", 0.01), _default("--psi-max", 0.99),
         _default("--omega-min", 0.05), _default("--omega-max", 2.0))
_SAMPLE_FILE = (
    _required("--input", str),
    ("--n", {"type": int, "help": "support bound (default: the largest observed y, "
                                  "flagged n_inferred in the artifact)"}),
)


class Command(NamedTuple):
    """One subcommand: ``add_argument``'s (flag, keywords) per argument,
    in help order; every command also takes ``--out``."""

    name: str
    help: str
    handler: Callable
    arguments: tuple


COMMANDS = (
    Command("pmf", "full probability table", _cmd_pmf,
            _MODEL + (("--format", {"choices": ("csv", "json"), "default": "csv"}),)),
    Command("cdf", "P(Y <= y)", _cmd_cdf, _MODEL + (_required("--y", int),)),
    Command("moments", "tau ratios, mean, variance, marginal pi", _cmd_moments, _MODEL),
    Command("tau", "the ratio tau_r", _cmd_tau, _MODEL + (_required("--r", int),)),
    Command("dn", "the difference K_{n-1} - K_n", _cmd_dn, _MODEL),
    Command("limits", "limit-regime convergence report", _cmd_limits, (
        ("--regime", {"choices": ("omega-zero", "omega-inf"), "required": True}),
        _required("--n", int),
        _required("--psi", float),
        ("--probes", {"type": str, "help": "comma-separated omega probe values"}),
    )),
    Command("clt", "Gaussian-approximation distance scan", _cmd_clt, (
        ("--ns", {"type": str, "required": True,
                  "help": "comma-separated increasing trial counts"}),
        _required("--psi", float),
        _required("--omega", float),
    )),
    Command("delta-grid", "Delta positivity scan", _cmd_delta_grid, _GRID),
    Command("tau1-grid", "tau1 region classification", _cmd_tau1_grid, _GRID),
    Command("accuracy", "majority-vote ensemble accuracy", _cmd_accuracy, _MODEL),
    Command("fit", "maximum-likelihood fit from y,count CSV", _cmd_fit, _SAMPLE_FILE),
    Command("compare", "LMBD vs Binomial vs Beta-Binomial", _cmd_compare, _SAMPLE_FILE),
    Command("sample", "seeded inverse-cdf draws", _cmd_sample,
            _MODEL + (_required("--count", int), _required("--seed", int))),
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lmbd",
        description="Multiplicative binomial model for sums of exchangeable "
                    "dependent Bernoulli variables.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for command in COMMANDS:
        p = sub.add_parser(command.name, help=command.help)
        for flag, spec in command.arguments:
            p.add_argument(flag, **spec)
        p.add_argument("--out")
        p.set_defaults(func=command.handler)
    return parser


# each library argument that the CLI fills from flags of another name
_FLAGS = {"probe_points": ("--probes",), "psi_values": ("--psi-min", "--psi-max"),
          "omega_values": ("--omega-min", "--omega-max"), "psi_steps": ("--psi-steps",),
          "omega_steps": ("--omega-steps",)}


def _flagged(args: argparse.Namespace, message: str) -> str:
    """``message`` with the library argument it opens with replaced by
    the flag the user typed: of two flags, the one whose value the
    message ends by quoting, else both."""
    name, _, rest = message.partition(" ")
    flags = _FLAGS.get(name, ())
    quoted = [f for f in flags if rest.endswith(f"got {getattr(args, f[2:].replace('-', '_'))}")]
    return f"{'/'.join(quoted[:1] or flags)} {rest}" if flags else message


def _plain(x):
    """``x`` for JSON: records as dicts of their fields, tuples as lists,
    and None (``null``) for every non-finite float."""
    if isinstance(x, float):
        return x if math.isfinite(x) else None
    x = x._asdict() if hasattr(x, "_asdict") else x
    if isinstance(x, dict):
        return {k: _plain(v) for k, v in x.items()}
    return [_plain(v) for v in x] if isinstance(x, (list, tuple)) else x


def _json(x) -> str:
    return json.dumps(_plain(x), sort_keys=True, allow_nan=False)


def _artifact(args: argparse.Namespace, result) -> str:
    """The run manifest with ``result``: a (header, rows) pair as CSV
    under a ``# manifest:`` comment line, with floats to 17 significant
    digits and a non-finite one as an empty field; anything else as one
    JSON document.  ``versions`` names the Python and numpy that ran,
    numpy's read off the module every handler has loaded."""
    manifest = {
        "command": args.command,
        "version": __version__,
        "versions": {"numpy": core.np.__version__,
                     "python": ".".join(map(str, sys.version_info[:3]))},
        "params": {k: v for k, v in sorted(vars(args).items())
                   if k not in ("func", "out") and v is not None},
        "seed": getattr(args, "seed", None),
        "out": args.out,
    }
    if type(result) is not tuple:
        return _json({"manifest": manifest, "result": result}) + "\n"
    header, rows = result
    lines = ["# manifest: " + _json(manifest), ",".join(header)]
    lines += [",".join("" if v is None else _fmt(v) if isinstance(v, float) else str(v)
                       for v in map(_plain, row)) for row in rows]
    return "\n".join(lines) + "\n"


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        result, summary = args.func(args)
        artifact = _artifact(args, result)
        if args.out:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(artifact)
    except (ValueError, OSError) as exc:
        print(f"error: {_flagged(args, str(exc))}", file=sys.stderr)
        return 1
    if args.out:
        print(summary)
    else:
        sys.stdout.write(artifact)
        print(summary, file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
