"""Smoke check of the harness at a tiny size.

    python3 bench/selfcheck.py

For every workload it runs the harness untraced and traced on decks cut
down to their first three operations (about a minute in all), and
asserts that the last line is the result object with exactly the
expected keys, that it carries every metric BENCHMARK.json names, with
its unit, that the report lines print each of them with the same unit,
and that the library's outputs were judged correct.  It then copies
BENCHMARK.json and bench/ into an empty directory and asserts that the
harness fails there without printing a result.  Exits non-zero on the
first failed assertion.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import run
import workloads

ROOT = Path(__file__).resolve().parent.parent
TINY_OPS = 3


def tiny_decks(make_decks):
    def make(workload, seed, workdir=""):
        decks, files = make_decks(workload, seed, workdir)
        return [deck[:TINY_OPS] for deck in decks[:2]], files
    return make


def check_output(stdout: str, expected: list) -> None:
    *report, last = stdout.strip().splitlines()
    result = json.loads(last)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
    assert result["correct"] is True, report
    assert result["attempted"] >= 1 and 0 <= result["failed"] <= result["attempted"]
    assert set(result["metrics"]) == {m["name"] for m in expected}, result["metrics"].keys()
    for m in expected:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"], (m["name"], got)
        assert isinstance(got["value"], (int, float)), (m["name"], got)
        assert any(line.split()[:3:2] == [m["name"], m["unit"]] for line in report), \
            f"{m['name']} not printed with {m['unit']}"


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads.make_decks = tiny_decks(workloads.make_decks)
    for w in spec["workloads"]:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = run.main(["--workload", w["name"], "--seed", "1",
                                 "--seconds", "1", "--trace", str(trace)])
            assert code == 0, out.getvalue()
            check_output(out.getvalue(), spec[key])
            print(f"ok  {w['name']} --trace {trace}")
    (ROOT / "bench" / "out").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=ROOT / "bench" / "out") as tmp:
        bare = Path(tmp)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(ROOT / "bench", bare / "bench", ignore=shutil.ignore_patterns("out"))
        proc = subprocess.run(
            [sys.executable, "bench/run.py", "--workload", spec["workloads"][0]["name"],
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180)
        assert proc.returncode != 0, "harness succeeded without the library"
        assert "{" not in proc.stdout, proc.stdout
    print("ok  fails without the library")
    return 0


if __name__ == "__main__":
    sys.exit(main())
