"""Closed-loop client of every workload.

Run as a child of ``run.py``: it reads a pickled job on stdin, runs one
operation at a time until at least ``seconds`` have passed at the end of
a pass over its decks, and writes a pickled result on stdout.  For
query and scan it imports ``lmbd`` and calls it in process; being
its own process, its peak RSS is the workload's alone.  For cli each
operation is one fresh ``python -m lmbd.cli`` process, and the peak RSS
is that of the largest of them.

After the timed loop it makes one pass over the census, the operations
the harness set aside because they lie where a known defect of the
library is (see checks.defect_site).

Per operation it records the latency, its start, the exception (if
any), whether the output is finite, and, for the slots the harness
picked for the oracle check (every slot on cli), the output itself.  All checking
happens later in the harness, outside every timing.
"""

from __future__ import annotations

import functools
import json
import pickle
import resource
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import speed

BENCH = Path(__file__).resolve().parent


def _call(lmbd, fn: str, args: tuple):
    if fn in ("delta_grid", "tau1_region_grid"):
        n, axes = args
        if axes is None:
            spec = lmbd.GridSpec.linspace(n)
        else:
            spec = lmbd.GridSpec.linspace(n, 101, 101, *axes)
        return getattr(lmbd, fn)(spec)
    if fn == "clt_scan":
        return lmbd.clt_scan(*args)
    if fn == "convergence_report":
        edge, n, psi, probes = args
        return lmbd.convergence_report(lmbd.LimitRegime(omega_edge=edge, n=n), psi, probes)
    params = lmbd.ModelParams(*args[:3])
    extra = args[3:]
    if fn == "ensemble_accuracy":
        return lmbd.ensemble_accuracy(lmbd.EnsembleSpec(n=params.n, params=params))
    if fn == "cdf":
        return lmbd.cdf(params, *extra)
    if fn == "tau":
        return lmbd.tau(extra[0], params)
    if fn == "sample":
        return lmbd.sample(params, *extra)
    return getattr(lmbd, fn)(params)


def _cli_call(spans, workdir: Path, fn: str, argv: tuple):
    """Run one CLI process to its end: (exit code, stdout bytes, last line
    of stderr).  With ``spans`` a list, the process runs traced and its spans, renumbered,
    are appended to it."""
    if spans is None:
        cmd = [sys.executable, "-m", "lmbd.cli"]
    else:
        spans_path = workdir / "spans.json"
        cmd = [sys.executable, str(BENCH / "cliboot.py"), str(spans_path)]
    proc = subprocess.run(cmd + list(argv), capture_output=True)
    if spans is not None:
        offset = 1 + max((s[0] for s in spans), default=-1)
        spans += [(i + offset, (j + offset) if j >= 0 else -1, *rest)
                  for i, j, *rest in json.loads(spans_path.read_text())]
    return proc.returncode, proc.stdout, (proc.stderr.decode(errors="replace")
                                          .strip().rpartition("\n")[2])


def _finite(x) -> bool:
    return bool(np.isfinite(np.asarray(x, dtype=float)).all())


def _extract(fn: str, r) -> tuple[bool, object]:
    """(finite, payload): the plain-data form of a result."""
    if fn == "pmf":
        return _finite(r.log_prob), r.log_prob.copy()
    if fn == "moments":
        v = (r.tau1, r.tau2, r.eta, r.mean, r.variance, r.pi)
        return _finite(v), v
    if fn == "sample":
        return True, r.copy()
    if fn == "cli":
        return True, r
    if fn == "theorem2_check":
        return _finite([r.tau1, r.pi]), (r.tau1, r.pi, r.relation)
    if fn in ("delta_grid", "tau1_region_grid"):
        cells = r.values[r.flags] if fn == "delta_grid" else r.values
        return _finite(cells), (r.values.copy(), r.flags.copy(),
                                r.spec.psi_values, r.spec.omega_values)
    if fn == "clt_scan":
        v = tuple((row.n, row.ks_distance) for row in r)
        return _finite([ks for _, ks in v]), v
    if fn == "convergence_report":
        v = (r.limit_mean, r.limit_variance, dict(r.limit_distribution),
             tuple(r.numeric_evidence))
        return _finite([v[0], v[1], *(tv for _, tv in v[3])]), v
    return _finite(r), float(r)


def run_loop(decks: list, seconds: float, keep: set, call, reference) -> dict:
    """Closed loop, one client: whole passes over ``decks`` until
    ``seconds`` have passed, each operation run by ``call(fn, args)`` and
    followed by its share of ``reference`` units (speed.Meter; none if
    ``reference`` is None).  Returns per-operation records, the reference
    units, and the loop's wall time, reference units included."""
    records = []
    meter = speed.Meter(reference) if reference else None
    start = time.perf_counter()
    cycle = 0
    while True:
        for di, deck in enumerate(decks):
            for si, (fn, _, args) in enumerate(deck):
                error = None
                t0 = time.perf_counter()
                try:
                    result = call(fn, args)
                except Exception as exc:  # a raising operation is a failed one
                    t1 = time.perf_counter()
                    error = type(exc).__name__
                else:
                    t1 = time.perf_counter()
                finite, payload = (False, None) if error else _extract(fn, result)
                checked = cycle == 0 and (di, si) in keep
                kept = checked or not finite or fn == "cli"
                records.append((di, si, t1 - t0, error, finite, payload if kept else None, t0))
                if meter:
                    meter.follow(t1 - t0)
        cycle += 1
        wall = time.perf_counter() - start
        if wall >= seconds:
            return {"records": records, "wall_s": wall,
                    "reference": (meter.ends, meter.durations) if meter else None}


def main() -> None:
    job = pickle.load(sys.stdin.buffer)
    spans = [] if job["trace"] else None
    if job["workload"] == "cli":
        call = functools.partial(_cli_call, spans, Path(job["workdir"]))
        rusage = resource.RUSAGE_CHILDREN
    else:
        import lmbd

        if job["trace"]:
            import tracer

            t = tracer.Tracer()
            t.install()
            spans = t.spans
        call = functools.partial(_call, lmbd)
        rusage = resource.RUSAGE_SELF
    reference = speed.reference_for(job["workload"])
    out = run_loop(job["decks"], job["seconds"], job["keep"], call, reference)
    out["peak_rss_mb"] = resource.getrusage(rusage).ru_maxrss / 1024.0
    out["spans"] = spans or []
    # the census: one untimed pass over the operations on known defect
    # sites, after the timed loop and its peak RSS
    census = job["census"]
    out["census"] = run_loop(census, 0, job["census_keep"], call, None)["records"] if census else []
    pickle.dump(out, sys.stdout.buffer, protocol=pickle.HIGHEST_PROTOCOL)


if __name__ == "__main__":
    main()
