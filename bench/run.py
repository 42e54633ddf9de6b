"""The lmbd benchmark: one closed-loop workload per run, checked against
an mpmath oracle.

    python3 bench/run.py --workload {query,scan,cli} --seed N \
        --seconds S --trace {0,1}

Run from the repository root; the library is imported from ``src/``.
Operations whose inputs lie on the site of a known defect of the library
(checks.defect_site) are set aside from the timed loop into an untimed
census, run and checked once after it, so that no timed operation fails
at the seed while every defect still shows in the report.
Every line but the last is a human-readable report; the last line is
one JSON object ``{"correct", "attempted", "failed", "metrics"}``.  With
``--trace 0`` the metrics are the end-to-end ones, from untraced runs.
With ``--trace 1`` the same untraced loop runs first, then a traced one,
and the metrics are the per-layer ones (see tracer.py).  NOTES.md says
why each workload and metric was chosen.
"""

from __future__ import annotations

import argparse
import json
import os
import pickle
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import checks
import speed
import tracer
import workloads

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
SETUP_RUNS = 5
IMPORTTIME_RUNS = 3
# oracle-checked operations per (function, category)
CHECKS_PER_KIND = 2

END_TO_END = {
    "ops_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
# printed in the report; the JSON line carries them as attempted/failed
# and as the "correct" flag
REPORTED_ONLY = {"failed_frac": "1", "max_rel_err": "1"}
PER_LAYER = {
    "core.pmf.calls": "count",
    "core.pmf.p50_us": "us",
    "core.pmf.self_s": "s",
    "core.tau.p50_us": "us",
    "core.cdf.p50_us": "us",
    "core.sample.p50_us": "us",
    "core.moments.calls": "count",
    "core.moments.p50_us": "us",
    "core.moments.max_ms": "ms",
    "core.moments.self_s": "s",
    "ensemble.fit_mle.calls": "count",
    "ensemble.fit_mle.p50_ms": "ms",
    "ensemble.fit_mle.self_s": "s",
    "ensemble.fit_mle.pmf_calls_per_fit": "count",
    "ensemble.fit_mle.iterations_p50": "count",
    "ensemble.model_comparison.p50_ms": "ms",
    "ensemble.model_comparison.self_s": "s",
    "ensemble.ensemble_accuracy.p50_us": "us",
    "factorization.delta_grid.p50_ms": "ms",
    "factorization.tau1_region_grid.p50_ms": "ms",
    "factorization.delta.p50_us": "us",
    "factorization.d_n.p50_us": "us",
    "gauss.clt_scan.p50_ms": "ms",
    "gauss.clt_scan.self_s": "s",
    "asymptotics.convergence_report.p50_ms": "ms",
    "cli.import_s": "s",
    "cli.import.numpy_s": "s",
    "cli.import.scipy_s": "s",
    "cli.main_ms": "ms",
    "trace.overhead_frac": "frac",
}


def _env() -> dict:
    path = str(ROOT / "src")
    if os.environ.get("PYTHONPATH"):
        path += os.pathsep + os.environ["PYTHONPATH"]
    return dict(os.environ, PYTHONPATH=path)


# --- set-up and import probes -------------------------------------------

def setup_seconds(workload: str) -> tuple[float, float]:
    """Median over SETUP_RUNS fresh processes of spawn -> import lmbd ->
    one warm-up call, scaled to nominal machine speed (speed.py), and
    the raw median."""
    meter = speed.Meter(speed.PROCESS)
    starts, samples = [], []
    for _ in range(SETUP_RUNS):
        t0 = time.perf_counter()
        with subprocess.Popen([sys.executable, str(BENCH / "probe.py"), workload],
                              stdout=subprocess.PIPE, env=_env(), cwd=ROOT) as p:
            line = p.stdout.readline()
            t1 = time.perf_counter()
            p.stdout.read()
        if p.returncode != 0 or line.strip() != b"ready":
            raise RuntimeError(f"set-up probe failed with code {p.returncode}")
        meter.follow(t1 - t0)
        starts.append(t0)
        samples.append(t1 - t0)
    scaled = speed.speeds(speed.PROCESS, starts, samples, meter.ends, meter.durations) * samples
    return statistics.median(scaled), statistics.median(samples)


_IMPORTTIME = re.compile(r"import time:\s+(\d+)\s+\|\s+(\d+)\s+\|( *)(\S+)")


def import_times() -> dict:
    """cli.import_s and the numpy / scipy shares of it, from
    ``python -X importtime -c 'import lmbd.cli'`` (median of runs).
    numpy submodules that scipy pulls in count as scipy's."""
    runs = []
    for _ in range(IMPORTTIME_RUNS):
        err = subprocess.run([sys.executable, "-X", "importtime", "-c", "import lmbd.cli"],
                             capture_output=True, env=_env(), cwd=ROOT, check=True).stderr
        rows = [(int(m[2]), len(m[3]) // 2, m[4].split(".")[0])
                for m in _IMPORTTIME.finditer(err.decode())]
        # rows come out in post-order: a row's parent is the next row
        # printed at a smaller depth
        ancestors = []
        for i, (_, depth, _) in enumerate(rows):
            above, d = set(), depth
            for cum, dj, top in rows[i + 1:]:
                if dj < d:
                    above.add(top)
                    d = dj
            ancestors.append(above)

        def roots(package, outside=()):
            return sum(cum for (cum, _, top), above in zip(rows, ancestors)
                       if top == package and not above & {package, *outside}) / 1e6

        runs.append({"cli.import_s": roots("lmbd"),
                     "cli.import.numpy_s": roots("numpy", ("scipy",)),
                     "cli.import.scipy_s": roots("scipy")})
    return {k: statistics.median(r[k] for r in runs) for k in runs[0]}


# --- the closed loops ---------------------------------------------------

def run_worker(workload: str, decks: list, seconds: float, keep: set, trace: bool,
               workdir: Path, census: list, census_keep: set) -> dict:
    """The closed loop, then the census pass, in their own client process
    (worker.py)."""
    job = {"workload": workload, "decks": decks, "seconds": seconds, "keep": keep,
           "trace": trace, "workdir": str(workdir), "census": census,
           "census_keep": census_keep}
    proc = subprocess.run([sys.executable, str(BENCH / "worker.py")],
                          input=pickle.dumps(job), capture_output=True,
                          env=_env(), cwd=ROOT)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr.decode())
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return pickle.loads(proc.stdout)


# --- checks -------------------------------------------------------------

def split_census(decks: list) -> tuple[list, list, dict]:
    """(timed decks, census decks, census sites by kind).  Operations on
    the site of a known defect (checks.defect_site) leave the timed
    decks for the one-deck census, so that no timed operation fails at
    the seed while every defect still shows, at its share, in the
    census.  The split reads only the inputs and the oracle."""
    timed, census, sites = [], [], {}
    for deck in decks:
        kept = []
        for op in deck:
            site = checks.defect_site(op)
            if site:
                census.append(op)
                sites[(op[0], site)] = sites.get((op[0], site), 0) + 1
            else:
                kept.append(op)
        if kept:
            timed.append(kept)
    return timed, ([census] if census else []), sites


def choose_checked(decks: list, rng: np.random.Generator) -> set:
    """Seeded subset of the first pass: CHECKS_PER_KIND operations per
    (function, category)."""
    kinds: dict = {}
    for di, deck in enumerate(decks):
        for si, (fn, cat, _) in enumerate(deck):
            kinds.setdefault((fn, cat), []).append((di, si))
    keep = set()
    for slots in kinds.values():
        for i in rng.choice(len(slots), size=min(CHECKS_PER_KIND, len(slots)), replace=False):
            keep.add(slots[i])
    return keep


def check_cli(decks: list, records: list) -> list:
    """Per record: None, or why it failed (non-zero exit, unparsable
    artifact, or bytes differing from an earlier call with the same
    arguments in this run).  A ``fit`` that dies writing a numpy bool to
    JSON gets a kind of its own (see checks.KNOWN_DEFECTS)."""
    first: dict = {}
    out = []
    for di, si, _, error, _, payload, _ in records:
        argv = decks[di][si][2]
        if error is not None:
            out.append(f"raised-{error}")
            continue
        code, data, err = payload
        if code != 0:
            unserializable = err == "TypeError: Object of type bool is not JSON serializable"
            out.append("unserializable-converged" if argv[0] == "fit" and unserializable
                       else f"exit-{code}")
            continue
        try:
            text = data.decode("utf-8")
            if text.startswith("# manifest: "):
                header, _, body = text.partition("\n")
                json.loads(header[len("# manifest: "):])
                rows = [line.split(",") for line in body.splitlines()]
                if len(rows) < 2 or len({len(r) for r in rows}) != 1:
                    raise ValueError("ragged CSV")
            else:
                json.loads(text)["result"]
        except (ValueError, KeyError, TypeError):
            out.append("unparsable")
            continue
        if first.setdefault(argv, data) != data:
            out.append("not-byte-identical")
            continue
        out.append(None)
    return out


def check_records(workload: str, decks: list, records: list, keep: set, seed: int) -> dict:
    """Failures, their kinds, and the largest relative error."""
    rng = np.random.default_rng([seed, 99])
    if workload == "cli":
        reasons = check_cli(decks, records)
        errs: list = []
        kinds = [("cli", r) for r in reasons if r]
    else:
        reasons, errs, kinds = [], [], []
        seen = set()
        for di, si, _, error, finite, payload, _ in records:
            op = decks[di][si]
            checked = (di, si) in keep and (di, si) not in seen
            seen.add((di, si))
            reason, op_errs = checks.check_op(op, error, finite, payload, checked, rng)
            reasons.append(reason)
            errs += [e for e in op_errs if e == e and e != float("inf")]
            if reason:
                kinds.append((op[0], reason))
    failed = sum(1 for r in reasons if r)
    counts: dict = {}
    for k in kinds:
        counts[k] = counts.get(k, 0) + 1
    return {
        "failed": failed,
        "kinds": counts,
        "unexpected": {k: v for k, v in counts.items() if k not in checks.KNOWN_DEFECTS},
        "max_rel_err": max(errs) if errs else None,
        "checked_values": len(errs),
    }


# --- metrics ------------------------------------------------------------

def latency_metrics(loop: dict, pass_ops: int, reference: speed.Reference) -> dict:
    """Throughput over the loop's wall time, and per-operation latency
    stats, all scaled to nominal machine speed (speed.py); the raw
    throughput and median come along for the report.  Throughput counts
    the loop's wall time without its reference units.  The tail is the
    highest percentile of a pass with 10 samples beyond it (the pass's
    11th largest latency), and its median over the passes: over the
    whole run, the same percentile would move from one class of
    operations to a slower one whenever a faster machine or library
    makes one more pass."""
    raw = [r[2] for r in loop["records"]]
    ends, durations = loop["reference"]
    lat = list(speed.speeds(reference, [r[6] for r in loop["records"]], raw, ends, durations)
               * raw)
    n = len(lat)
    tail_index = max(0, pass_ops - 11)
    tails = [sorted(lat[k:k + pass_ops])[tail_index] for k in range(0, n, pass_ops)]
    wall = loop["wall_s"] - sum(durations)
    return {
        "ops_per_s": n / (wall * speed.run_speed(reference, durations)),
        "latency_p50_ms": statistics.median(lat) * 1e3,
        "latency_tail_ms": statistics.median(tails) * 1e3,
        "raw_ops_per_s": n / wall,
        "raw_p50_ms": statistics.median(raw) * 1e3,
        "speed": speed.run_speed(reference, durations),
        "tail_percentile": 100.0 * (tail_index + 1) / pass_ops,
        "samples": n,
        "pass_ops": pass_ops,
        "passes": len(tails),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "lmbd" / "__init__.py").is_file():
        print(f"error: no lmbd sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    workdir = BENCH / "out" / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    decks, files = workloads.make_decks(args.workload, args.seed,
                                        str(workdir.relative_to(ROOT)))
    for path, text in files.items():
        (ROOT / path).write_text(text)
    generated = sum(len(deck) for deck in decks)
    decks, census, sites = split_census(decks)
    pass_ops = sum(len(deck) for deck in decks)
    keep = choose_checked(decks, np.random.default_rng([args.seed, 7]))
    census_keep = choose_checked(census, np.random.default_rng([args.seed, 8]))

    def loop(trace: bool) -> dict:
        return run_worker(args.workload, decks, args.seconds, keep, trace, workdir,
                          [] if trace else census, census_keep)

    setup, raw_setup = (None, None) if args.trace else setup_seconds(args.workload)
    plain = loop(False)
    verdict = check_records(args.workload, decks, plain["records"], keep, args.seed)
    in_census = check_records(args.workload, census, plain["census"], census_keep, args.seed)
    reference = speed.reference_for(args.workload)
    lat = latency_metrics(plain, pass_ops, reference)
    attempted = len(plain["records"])
    report = {
        "ops_per_s": lat["ops_per_s"],
        "latency_p50_ms": lat["latency_p50_ms"],
        "latency_tail_ms": lat["latency_tail_ms"],
        "setup_s": setup,
        "peak_rss_mb": plain["peak_rss_mb"],
        "failed_frac": verdict["failed"] / attempted,
        "max_rel_err": verdict["max_rel_err"],
    }
    units = {**END_TO_END, **REPORTED_ONLY}
    print(f"workload {args.workload} seed {args.seed}: closed loop, 1 client, "
          f"{attempted} ops in {plain['wall_s']:.2f} s; times scaled to nominal speed, "
          f"machine at {lat['speed']:.3f} of it")
    for name, value in report.items():
        if value is None:
            continue
        note = ""
        if name == "latency_tail_ms":
            note = (f"  (p{lat['tail_percentile']:.2f} of the {lat['pass_ops']} samples of a"
                    f" pass, 10 beyond; median of {lat['passes']} passes)")
        elif name == "latency_p50_ms":
            note = f"  ({lat['samples']} samples; raw {lat['raw_p50_ms']:.6g} ms)"
        elif name == "ops_per_s":
            note = f"  (raw {lat['raw_ops_per_s']:.6g} 1/s)"
        elif name == "setup_s":
            note = f"  (median of {SETUP_RUNS} fresh processes; raw {raw_setup:.6g} s)"
        elif name == "max_rel_err":
            note = f"  (over {verdict['checked_values']} oracle-checked values)"
        print(f"  {name:<18} {value:.6g} {units[name]}{note}")
    for (fn, reason), count in sorted(verdict["kinds"].items()):
        known = "known defect" if (fn, reason) in checks.KNOWN_DEFECTS else "UNEXPECTED"
        print(f"  failed: {count} x {fn} {reason} ({known})")
    if census:
        n_census = len(census[0])
        print(f"census, untimed: {n_census} of {generated} generated operations "
              f"({n_census / generated:.2%}) lie on a known defect's site; "
              f"{in_census['failed']} failed ({in_census['failed'] / generated:.2%} "
              f"of the generated operations)")
        for (fn, site), count in sorted(sites.items()):
            print(f"  site: {count} x {fn} {site}")
        for (fn, reason), count in sorted(in_census["kinds"].items()):
            known = "known defect" if (fn, reason) in checks.KNOWN_DEFECTS else "UNEXPECTED"
            print(f"  failed: {count} x {fn} {reason} ({known})")

    if args.trace:
        traced = loop(True)
        spans = traced["spans"]
        with open(workdir / "spans.jsonl", "w", encoding="utf-8") as fh:
            for s in spans:
                fh.write(json.dumps(s) + "\n")
        metrics = {name: tracer.layer_metric(spans, name) for name in PER_LAYER
                   if not name.startswith(("cli.", "trace."))}
        metrics["cli.main_ms"] = tracer.layer_metric(spans, "cli.main.p50_ms")
        metrics.update(import_times())
        traced_rate = latency_metrics(traced, pass_ops, reference)["ops_per_s"]
        metrics["trace.overhead_frac"] = 1.0 - traced_rate / lat["ops_per_s"]
        units = PER_LAYER
        print(f"traced loop: {len(traced['records'])} ops in {traced['wall_s']:.2f} s, "
              f"{len(spans)} spans written to {(workdir / 'spans.jsonl').relative_to(ROOT)}")
        for name in PER_LAYER:
            print(f"  {name:<40} {metrics[name]:.6g} {units[name]}")
    else:
        metrics = {k: report[k] for k in END_TO_END}
        units = END_TO_END

    result = {
        "correct": not verdict["unexpected"] and not in_census["unexpected"],
        "attempted": attempted,
        "failed": verdict["failed"],
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
