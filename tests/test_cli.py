import argparse
import json
import math
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.stats import binom

import lmbd
from lmbd import (
    CountSample,
    EnsembleSpec,
    GridSpec,
    ModelParams,
    MomentSummary,
    cdf,
    d_n,
    delta_grid,
    ensemble_accuracy,
    fit_mle,
    pmf,
    sample,
)
from lmbd import cli
from lmbd.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _reject_constant(token):
    raise ValueError(f"non-standard JSON token {token}")


def load_json(path):
    """Parse an artifact as strict JSON: NaN and Infinity are errors."""
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh, parse_constant=_reject_constant)


class TestPmfCommand:
    def test_csv_matches_binomial(self, capsys, tmp_path):
        out = tmp_path / "pmf.csv"
        code, stdout, _ = run(capsys, "pmf", "--n", "3", "--psi", "0.6",
                              "--omega", "1", "--format", "csv", "--out", str(out))
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0].startswith("# manifest: ")
        assert lines[1] == "y,prob,log_prob"
        rows = [line.split(",") for line in lines[2:]]
        assert len(rows) == 4
        probs = [float(r[1]) for r in rows]
        np.testing.assert_allclose(probs, binom.pmf(range(4), 3, 0.6), atol=1e-12)

    def test_json_format(self, capsys, tmp_path):
        out = tmp_path / "pmf.json"
        code, _, _ = run(capsys, "pmf", "--n", "2", "--psi", "0.5",
                         "--omega", "2", "--format", "json", "--out", str(out))
        assert code == 0
        doc = load_json(out)
        assert doc["manifest"]["command"] == "pmf"
        np.testing.assert_allclose(doc["result"]["prob"], [1 / 6, 2 / 3, 1 / 6],
                                   atol=1e-12)

    @pytest.mark.parametrize("psi, mass_at", [("0", 0), ("1", 3)])
    def test_json_point_mass_is_strict(self, capsys, tmp_path, psi, mass_at):
        # log 0 off the point mass is written as null, not -Infinity
        out = tmp_path / "pmf.json"
        code, _, _ = run(capsys, "pmf", "--n", "3", "--psi", psi, "--omega", "1.5",
                         "--format", "json", "--out", str(out))
        assert code == 0
        res = load_json(out)["result"]
        assert res["prob"] == [float(y == mass_at) for y in range(4)]
        assert res["log_prob"] == [0.0 if y == mass_at else None for y in range(4)]

    @pytest.mark.parametrize("psi", ["0", "1"])
    def test_point_mass_csv_matches_json(self, capsys, psi):
        # log 0 is an empty CSV field where the JSON form writes null
        argv = ["pmf", "--n", "3", "--psi", psi, "--omega", "1.5", "--format"]
        code, stdout, _ = run(capsys, *argv, "json")
        assert code == 0
        res = parse_artifact(stdout)[1]
        code, stdout, _ = run(capsys, *argv, "csv")
        assert code == 0
        header, *rows = parse_artifact(stdout)[1]
        assert header == ["y", "prob", "log_prob"]
        assert rows == [[str(y), cli._fmt(p), "" if lp is None else cli._fmt(lp)]
                        for y, p, lp in zip(res["y"], res["prob"], res["log_prob"])]
        assert [r[2] for r in rows].count("") == 3

    def test_stdout_without_out(self, capsys):
        code, stdout, err = run(capsys, "pmf", "--n", "2", "--psi", "0.5",
                                "--omega", "1")
        assert code == 0
        assert stdout.startswith("# manifest: ")


class TestSingleValueCommands:
    def test_cdf(self, capsys, tmp_path):
        out = tmp_path / "cdf.json"
        code, _, _ = run(capsys, "cdf", "--n", "2", "--psi", "0.5",
                         "--omega", "2", "--y", "1", "--out", str(out))
        assert code == 0
        assert load_json(out)["result"]["cdf"] == pytest.approx(5 / 6, abs=1e-12)

    def test_moments(self, capsys, tmp_path):
        out = tmp_path / "m.json"
        code, _, _ = run(capsys, "moments", "--n", "8", "--psi", "0.3",
                         "--omega", "1", "--out", str(out))
        assert code == 0
        res = load_json(out)["result"]
        assert res["mean"] == pytest.approx(2.4, rel=1e-10)
        assert res["variance"] == pytest.approx(8 * 0.3 * 0.7, rel=1e-10)

    def test_tau(self, capsys, tmp_path):
        out = tmp_path / "t.json"
        code, _, _ = run(capsys, "tau", "--n", "2", "--psi", "0.5",
                         "--omega", "2", "--r", "1", "--out", str(out))
        assert code == 0
        assert load_json(out)["result"]["tau"] == pytest.approx(1.0, abs=1e-12)

    def test_dn(self, capsys, tmp_path):
        out = tmp_path / "d.json"
        code, _, _ = run(capsys, "dn", "--n", "2", "--psi", "0.3",
                         "--omega", "1.5", "--out", str(out))
        assert code == 0
        assert load_json(out)["result"]["d_n"] == pytest.approx(
            d_n(ModelParams(2, 0.3, 1.5)), abs=1e-15)

    @pytest.mark.parametrize("argv,key", [
        (("dn", "--n", "500", "--psi", "0.3", "--omega", "1.5"), "d_n"),
        (("tau", "--n", "2000", "--psi", "0.5", "--omega", "0.2", "--r", "2000"), "tau"),
        (("moments", "--n", "64", "--psi", "0", "--omega", "1e8"), "tau1"),
    ])
    def test_value_beyond_the_double_range_is_null(self, capsys, tmp_path, argv, key):
        out = tmp_path / "v.json"
        code, _, _ = run(capsys, *argv, "--out", str(out))
        assert code == 0
        assert load_json(out)["result"][key] is None

    def test_accuracy_matches_library(self, capsys, tmp_path):
        out = tmp_path / "a.json"
        code, _, _ = run(capsys, "accuracy", "--n", "9", "--psi", "0.55",
                         "--omega", "0.8", "--out", str(out))
        assert code == 0
        expect = ensemble_accuracy(EnsembleSpec(9, ModelParams(9, 0.55, 0.8)))
        assert load_json(out)["result"]["accuracy"] == pytest.approx(expect, abs=1e-15)
        assert expect == pytest.approx(1.0 - cdf(ModelParams(9, 0.55, 0.8), 4),
                                       abs=1e-12)


class TestLimitsCommand:
    def test_omega_inf_report(self, capsys, tmp_path):
        out = tmp_path / "lim.json"
        code, _, _ = run(capsys, "limits", "--regime", "omega-inf", "--n", "7",
                         "--psi", "0.2", "--out", str(out))
        assert code == 0
        res = load_json(out)["result"]
        assert res["limit_distribution"] == pytest.approx({"3": 0.8, "4": 0.2})
        assert res["evidence"][-1]["tv"] < 1e-6

    def test_explicit_probes(self, capsys, tmp_path):
        out = tmp_path / "lim.json"
        code, _, _ = run(capsys, "limits", "--regime", "omega-zero", "--n", "4",
                         "--psi", "0.5", "--probes", "0.1,0.01,0.001",
                         "--out", str(out))
        assert code == 0
        assert len(load_json(out)["result"]["evidence"]) == 3


class TestGridCommands:
    def test_delta_grid_positive(self, capsys, tmp_path):
        out = tmp_path / "grid.csv"
        code, stdout, _ = run(capsys, "delta-grid", "--n", "4",
                              "--psi-steps", "21", "--omega-steps", "21",
                              "--out", str(out))
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[1] == "psi,omega,value,flag"
        values = [float(line.split(",")[2]) for line in lines[2:]
                  if line.split(",")[3] == "1"]
        assert len(values) > 0 and min(values) > 0.0

    def test_delta_grid_beyond_the_double_range_is_empty(self, capsys):
        # at n = 600 Delta overflows a double in most cells: each is an
        # empty field, and its flag still marks Delta > 0
        code, stdout, _ = run(capsys, "delta-grid", "--n", "600", "--psi-steps", "3",
                              "--omega-steps", "3", "--omega-max", "3")
        assert code == 0
        _, rows = parse_artifact(stdout)
        grid = delta_grid(GridSpec.linspace(600, 3, 3, omega_max=3.0))
        assert np.isposinf(grid.values).sum() == 6 and not np.isnan(grid.values).any()
        assert [r[2] for r in rows[1:]] == [
            "" if math.isinf(v) else cli._fmt(v) for v in grid.values.ravel().tolist()]
        assert all(r[3] == "1" for r in rows[1:]) and grid.flags.all()

    @pytest.mark.parametrize("command, name", [("delta-grid", "delta_grid"),
                                               ("tau1-grid", "tau1_region_grid")])
    def test_grid_function_is_looked_up_at_call_time(self, capsys, monkeypatch, command, name):
        # a tracer wraps the grid functions by replacing cli's attributes
        calls = []
        grid_of = getattr(cli, name)

        def counted(spec):
            calls.append(spec)
            return grid_of(spec)

        monkeypatch.setattr(cli, name, counted)
        code, _, _ = run(capsys, command, "--n", "3", "--psi-steps", "3", "--omega-steps", "3")
        assert code == 0
        assert len(calls) == 1

    def test_tau1_grid(self, capsys, tmp_path):
        out = tmp_path / "t1.csv"
        code, _, _ = run(capsys, "tau1-grid", "--n", "5",
                         "--psi-steps", "11", "--omega-steps", "11",
                         "--out", str(out))
        assert code == 0
        rows = [line.split(",") for line in out.read_text().splitlines()[2:]]
        for psi_s, omega_s, value_s, flag_s in rows:
            psi, omega = float(psi_s), float(omega_s)
            expect = (psi <= 0.5 and omega <= 1.0) or (psi >= 0.5 and omega >= 1.0)
            assert (flag_s == "1") == expect


class TestCltCommand:
    def test_scan_csv(self, capsys, tmp_path):
        out = tmp_path / "clt.csv"
        code, _, _ = run(capsys, "clt", "--ns", "10,40,160", "--psi", "0.5",
                         "--omega", "1", "--out", str(out))
        assert code == 0
        rows = [line.split(",") for line in out.read_text().splitlines()[2:]]
        ks = [float(r[3]) for r in rows]
        assert ks[2] < ks[1] < ks[0]


class TestSampleFitCompare:
    def write_sample_csv(self, path, params, count, seed):
        draws = sample(params, count, seed)
        counts = np.bincount(draws, minlength=params.n + 1)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("y,count\n")
            for y, c in enumerate(counts):
                fh.write(f"{y},{c}\n")

    def test_sample_command(self, capsys, tmp_path):
        out = tmp_path / "draws.csv"
        code, _, _ = run(capsys, "sample", "--n", "5", "--psi", "0.4",
                         "--omega", "1.2", "--count", "100", "--seed", "7",
                         "--out", str(out))
        assert code == 0
        rows = out.read_text().splitlines()[2:]
        assert len(rows) == 100
        assert all(0 <= int(v) <= 5 for v in rows)

    def test_fit_roundtrip(self, capsys, tmp_path):
        data = tmp_path / "sample.csv"
        self.write_sample_csv(data, ModelParams(7, 0.45, 1.5), 50000, seed=13)
        out = tmp_path / "fit.json"
        code, _, _ = run(capsys, "fit", "--input", str(data), "--out", str(out))
        assert code == 0
        res = load_json(out)["result"]
        assert res["converged"]
        assert res["psi_hat"] == pytest.approx(0.45, abs=0.05)
        assert res["omega_hat"] == pytest.approx(1.5, abs=0.3)

    def test_compare(self, capsys, tmp_path):
        data = tmp_path / "sample.csv"
        self.write_sample_csv(data, ModelParams(9, 0.55, 1.6), 50000, seed=99)
        out = tmp_path / "cmp.json"
        code, _, _ = run(capsys, "compare", "--input", str(data), "--out", str(out))
        assert code == 0
        res = load_json(out)["result"]
        assert res["best_aic"] == "lmbd"
        assert {m["name"] for m in res["models"]} == {
            "lmbd", "binomial", "beta-binomial"}


class TestFitConvergedFlag:
    """converged is a JSON bool, false exactly where no finite MLE exists:
    the sample mean of (y, y (n-y)) on a face of the convex hull of those
    points (one observed value, a neighbouring pair, or {0, n})."""

    FACES = {
        "n5-ends": (5, {0: 3, 5: 4}),
        "n5-pair": (5, {2: 5, 3: 7}),
        "n6-pair": (6, {3: 5, 4: 7}),
        "n1": (1, {0: 3, 1: 4}),
        "n4-single-0": (4, {0: 120}),
        "n4-single-4": (4, {4: 7}),
        "n5-single-2": (5, {2: 10}),
    }

    def fit_artifact(self, capsys, tmp_path, n, pairs):
        data = tmp_path / "sample.csv"
        data.write_text("y,count\n" + "".join(f"{y},{c}\n" for y, c in pairs.items()))
        out = tmp_path / "fit.json"
        assert main(["fit", "--input", str(data), "--n", str(n), "--out", str(out)]) == 0
        capsys.readouterr()
        return load_json(out)["result"]

    @pytest.mark.parametrize("n, pairs", FACES.values(), ids=FACES.keys())
    def test_hull_face_writes_json_false(self, capsys, tmp_path, n, pairs):
        fit = fit_mle(CountSample.from_pairs(n, pairs.items()))
        assert type(fit.converged) is bool
        assert fit.converged is False
        assert math.isnan(fit.omega_hat)
        assert fit.standard_errors is None
        total = sum(pairs.values())
        # the supremum, reached by the limit laws on the face
        assert fit.log_likelihood == pytest.approx(
            sum(c * math.log(c / total) for c in pairs.values()), abs=1e-12)
        res = self.fit_artifact(capsys, tmp_path, n, pairs)
        assert res["converged"] is False
        assert res["omega_hat"] is None
        assert res["standard_errors"] is None

    def test_interior_pair_converges(self, capsys, tmp_path):
        # {0, 2} at n = 4 is a chord inside the hull: a finite MLE exists
        pairs = {0: 3, 2: 4}
        fit = fit_mle(CountSample.from_pairs(4, pairs.items()))
        assert fit.converged is True
        assert math.isfinite(fit.omega_hat) and fit.standard_errors is not None
        res = self.fit_artifact(capsys, tmp_path, 4, pairs)
        assert res["converged"] is True
        assert res["omega_hat"] == fit.omega_hat


def test_compare_single_value_sample(capsys, tmp_path):
    """No model but the Binomial has a finite MLE on one observed value:
    compare still exits 0, and the limit reports say so."""
    data = tmp_path / "sample.csv"
    data.write_text("y,count\n2,10\n")
    out = tmp_path / "cmp.json"
    code, _, _ = run(capsys, "compare", "--input", str(data), "--n", "5",
                     "--out", str(out))
    assert code == 0
    res = load_json(out)["result"]
    models = {m["name"]: m for m in res["models"]}
    assert [models[k]["converged"] for k in ("lmbd", "binomial", "beta-binomial")] == [
        False, True, False]
    assert models["lmbd"]["log_likelihood"] == 0.0
    assert models["lmbd"]["parameters"]["omega"] is None
    assert models["lmbd"]["predicted_accuracy"] == res["empirical_accuracy"]
    assert models["beta-binomial"]["parameters"] == {"alpha": None, "beta": None}
    assert models["beta-binomial"]["log_likelihood"] == models["binomial"]["log_likelihood"]


class TestNInference:
    """Without --n, fit and compare take n as the largest observed y and
    say so in the artifact."""

    @pytest.fixture
    def data(self, tmp_path):
        # a support of 0..6 with y = 6 unseen: the inferred n is 5
        path = tmp_path / "sample.csv"
        path.write_text("y,count\n0,3\n1,40\n2,90\n3,80\n4,30\n5,6\n")
        return path

    @pytest.mark.parametrize("cmd", ["fit", "compare"])
    def test_inferred_n_is_flagged(self, capsys, tmp_path, data, cmd):
        out = tmp_path / f"{cmd}.json"
        code, _, _ = run(capsys, cmd, "--input", str(data), "--out", str(out))
        assert code == 0
        res = load_json(out)["result"]
        assert res["n_inferred"] is True
        assert res["n"] == 5
        assert "n" not in load_json(out)["manifest"]["params"]

    @pytest.mark.parametrize("cmd", ["fit", "compare"])
    def test_explicit_n_is_not_flagged(self, capsys, tmp_path, data, cmd):
        out = tmp_path / f"{cmd}.json"
        code, _, _ = run(capsys, cmd, "--input", str(data), "--n", "6",
                         "--out", str(out))
        assert code == 0
        res = load_json(out)["result"]
        assert res["n_inferred"] is False
        assert res["n"] == 6

    def test_explicit_n_below_observed_is_an_error(self, capsys, data):
        code, _, err = run(capsys, "fit", "--input", str(data), "--n", "4")
        assert code == 1
        assert "observed y must lie in [0, 4], got 5" in err


def _fresh_json(code: str):
    """Run ``code`` in a fresh python process that imports this ``lmbd``
    and parse the JSON of its last stdout line."""
    src = os.path.dirname(os.path.dirname(lmbd.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                          capture_output=True, text=True)
    return json.loads(proc.stdout.splitlines()[-1])


def test_cli_loads_no_scipy(tmp_path):
    """In a fresh process: ``import lmbd``, ``import lmbd.cli`` and the
    pmf, clt, delta-grid, fit and compare subcommands load no scipy
    module at all."""
    data = tmp_path / "sample.csv"
    data.write_text("y,count\n0,30\n1,90\n2,120\n3,70\n4,10\n")
    code = f"""
import json, sys
def scipy_modules():
    return sorted(m for m in sys.modules if m.partition(".")[0] == "scipy")
seen = {{}}
import lmbd
seen["import lmbd"] = scipy_modules()
import lmbd.cli
seen["import lmbd.cli"] = scipy_modules()
for argv in (["pmf", "--n", "10", "--psi", "0.3", "--omega", "1.5"],
             ["clt", "--ns", "10,20", "--psi", "0.5", "--omega", "1.1"],
             ["delta-grid", "--n", "5", "--psi-steps", "11", "--omega-steps", "11"],
             ["fit", "--input", {str(data)!r}],
             ["compare", "--input", {str(data)!r}]):
    out = {str(tmp_path)!r} + "/" + argv[0] + ".out"
    assert lmbd.cli.main(argv + ["--out", out]) == 0
    seen[argv[0]] = scipy_modules()
print(json.dumps(seen))
"""
    seen = _fresh_json(code)
    assert seen == {"import lmbd": [], "import lmbd.cli": [], "pmf": [],
                    "clt": [], "delta-grid": [], "fit": [], "compare": []}
    assert load_json(tmp_path / "fit.out")["result"]["converged"] is True


def test_import_lmbd_loads_every_submodule():
    """In a fresh process, ``import lmbd`` alone loads every library
    submodule.  The benchmark's tracer (bench/tracer.py) times the
    functions it finds on them, so a submodule loaded lazily would read
    zero in its per-layer figures instead of failing."""
    loaded = set(_fresh_json("import json, sys, lmbd; print(json.dumps(sorted(sys.modules)))"))
    expect = {f"lmbd.{m}" for m in ("core", "asymptotics", "gauss", "factorization", "ensemble")}
    assert expect <= loaded


class TestExitCodes:
    def test_unknown_subcommand_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    def test_missing_flag_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["pmf", "--n", "3"])
        assert exc.value.code == 2

    def test_domain_error_is_one(self, capsys):
        code, _, err = run(capsys, "pmf", "--n", "3", "--psi", "1.5",
                           "--omega", "1")
        assert code == 1
        assert "psi" in err

    def test_missing_input_file_is_one(self, capsys, tmp_path):
        code, _, err = run(capsys, "fit", "--input", str(tmp_path / "nope.csv"))
        assert code == 1

    def test_unwritable_out_is_one_line(self, capsys, tmp_path):
        code, out, err = run(capsys, "dn", "--n", "3", "--psi", "0.3", "--omega", "2",
                             "--out", str(tmp_path / "no" / "such" / "a.json"))
        assert code == 1
        assert out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error:")


_INVALID_INPUT = {"zeros.csv": "y,count\n0,5\n", "header.csv": "y,count\n# none seen\n"}
_BASE = ["--n", "6", "--psi", "0.4", "--omega", "1.3"]
# (argv, the one stderr line): an invalid argument is a domain error,
# never a traceback; without --n a sample seen only at y = 0 infers n = 0
INVALID_ARGV = {
    "fit-all-zero-sample": (["fit", "--input", "zeros.csv"], "n must be >= 1, got 0"),
    "compare-all-zero-sample": (["compare", "--input", "zeros.csv"], "n must be >= 1, got 0"),
    "fit-no-observations": (["fit", "--input", "header.csv"],
                            "no observations found in header.csv"),
    "pmf-n-0": (["pmf", "--n", "0", "--psi", "0.4", "--omega", "1.3"], "n must be >= 1, got 0"),
    "sample-seed": (["sample", *_BASE, "--count", "5", "--seed", "-1"],
                    "seed must be >= 0, got -1"),
    "delta-grid-psi-steps": (["delta-grid", "--n", "5", "--psi-steps", "-2"],
                             "psi_steps must be >= 1, got -2"),
    "cdf-y-above": (["cdf", *_BASE, "--y", "7"], "y must lie in [0, 6], got 7"),
    "cdf-y-below": (["cdf", *_BASE, "--y", "-1"], "y must lie in [0, 6], got -1"),
    "tau-r-0": (["tau", *_BASE, "--r", "0"], "r must lie in [1, 6], got 0"),
}


@pytest.mark.parametrize("argv, line", INVALID_ARGV.values(), ids=INVALID_ARGV)
def test_invalid_input_is_one_error_line(capsys, tmp_path, monkeypatch, argv, line):
    for name, text in _INVALID_INPUT.items():
        (tmp_path / name).write_text(text)
    monkeypatch.chdir(tmp_path)
    assert run(capsys, *argv) == (1, "", f"error: {line}\n")


class TestDeterminism:
    CASES = {
        "pmf": ["pmf", "--n", "6", "--psi", "0.4", "--omega", "1.3"],
        "pmf-json": ["pmf", "--n", "6", "--psi", "0.4", "--omega", "1.3", "--format", "json"],
        "cdf": ["cdf", "--n", "6", "--psi", "0.4", "--omega", "1.3", "--y", "3"],
        "moments": ["moments", "--n", "6", "--psi", "0.4", "--omega", "1.3"],
        "tau": ["tau", "--n", "6", "--psi", "0.4", "--omega", "1.3", "--r", "2"],
        "dn": ["dn", "--n", "6", "--psi", "0.4", "--omega", "1.3"],
        "limits": ["limits", "--regime", "omega-zero", "--n", "4", "--psi", "0.5"],
        "limits-probes": ["limits", "--regime", "omega-zero", "--n", "5", "--psi", "0.9",
                          "--probes", "0.1,0.01,0.001"],
        "clt": ["clt", "--ns", "10,20", "--psi", "0.5", "--omega", "1.1"],
        "delta-grid": ["delta-grid", "--n", "4", "--psi-steps", "11", "--omega-steps", "11"],
        "delta-grid-axes": ["delta-grid", "--n", "7", "--psi-steps", "9", "--omega-steps", "7",
                            "--psi-min", "0.05", "--psi-max", "0.95", "--omega-min", "0.3",
                            "--omega-max", "3.5"],
        "tau1-grid": ["tau1-grid", "--n", "4", "--psi-steps", "11", "--omega-steps", "11"],
        "accuracy": ["accuracy", "--n", "9", "--psi", "0.55", "--omega", "0.8"],
        "sample": ["sample", "--n", "5", "--psi", "0.4", "--omega", "1.2",
                   "--count", "50", "--seed", "123"],
    }

    @pytest.mark.parametrize("argv", CASES.values(), ids=CASES.keys())
    def test_rerun_byte_identical(self, capsys, tmp_path, argv):
        # identical manifest (same argv incl. output path) must
        # byte-reproduce the artifact
        out = tmp_path / "a.out"
        assert main(argv + ["--out", str(out)]) == 0
        first = out.read_bytes()
        assert main(argv + ["--out", str(out)]) == 0
        capsys.readouterr()
        assert out.read_bytes() == first

    def test_fit_and_compare_rerun(self, capsys, tmp_path):
        data = tmp_path / "sample.csv"
        draws = sample(ModelParams(5, 0.4, 0.9), 5000, seed=4)
        counts = np.bincount(draws, minlength=6)
        data.write_text("y,count\n" + "".join(
            f"{y},{c}\n" for y, c in enumerate(counts)))
        for cmd in ("fit", "compare"):
            out = tmp_path / f"{cmd}.json"
            assert main([cmd, "--input", str(data), "--out", str(out)]) == 0
            first = out.read_bytes()
            assert main([cmd, "--input", str(data), "--out", str(out)]) == 0
            capsys.readouterr()
            assert out.read_bytes() == first
            load_json(out)


COUNTS_CSV = "y,count\n0,30\n1,90\n2,120\n3,70\n4,10\n"

# one argv per entry of the command table; fit and compare read
# counts.csv in the working directory
TABLE_ARGV = {
    "pmf": ["pmf", "--n", "6", "--psi", "0.4", "--omega", "1.3", "--format", "json"],
    "cdf": ["cdf", "--n", "6", "--psi", "0.4", "--omega", "1.3", "--y", "3"],
    "moments": ["moments", "--n", "6", "--psi", "0.4", "--omega", "1.3"],
    "tau": ["tau", "--n", "6", "--psi", "0.4", "--omega", "1.3", "--r", "2"],
    "dn": ["dn", "--n", "6", "--psi", "0.4", "--omega", "1.3"],
    "limits": ["limits", "--regime", "omega-inf", "--n", "7", "--psi", "0.2",
               "--probes", "10,100,1000"],
    "clt": ["clt", "--ns", "10,20", "--psi", "0.5", "--omega", "1.1"],
    "delta-grid": ["delta-grid", "--n", "5", "--psi-steps", "5", "--omega-min", "0.5"],
    "tau1-grid": ["tau1-grid", "--n", "4", "--omega-steps", "7", "--psi-max", "0.9"],
    "accuracy": ["accuracy", "--n", "9", "--psi", "0.55", "--omega", "0.8"],
    "fit": ["fit", "--input", "counts.csv"],
    "compare": ["compare", "--input", "counts.csv", "--n", "5"],
    "sample": ["sample", "--n", "5", "--psi", "0.4", "--omega", "1.2",
               "--count", "20", "--seed", "3"],
}


@pytest.fixture
def counts_dir(tmp_path, monkeypatch):
    """A working directory holding the y,count sample counts.csv."""
    (tmp_path / "counts.csv").write_text(COUNTS_CSV)
    monkeypatch.chdir(tmp_path)
    return tmp_path


def parse_artifact(text):
    """(manifest, body) of an artifact, parsed strictly: JSON without NaN
    or Infinity tokens, CSV with a header and rows of its width, and no
    inf, -inf or nan cell."""
    if text.startswith("# manifest: "):
        first, _, body = text.partition("\n")
        manifest = json.loads(first[len("# manifest: "):], parse_constant=_reject_constant)
        rows = [line.split(",") for line in body.splitlines()]
        assert len(rows) >= 2 and {len(r) for r in rows} == {len(rows[0])}
        assert not {"inf", "-inf", "nan"} & {cell.lower() for row in rows for cell in row}
        return manifest, rows
    doc = json.loads(text, parse_constant=_reject_constant)
    assert set(doc) == {"manifest", "result"}
    return doc["manifest"], doc["result"]


def test_table_argv_covers_the_table():
    assert list(TABLE_ARGV) == [c.name for c in cli.COMMANDS]


@pytest.mark.parametrize("command", cli.COMMANDS, ids=lambda c: c.name)
def test_every_command_writes_one_artifact(capsys, counts_dir, command):
    argv = TABLE_ARGV[command.name]
    code, stdout, stderr = run(capsys, *argv)
    assert code == 0
    summary = stderr
    code, printed, _ = run(capsys, *argv, "--out", "a.out")
    assert code == 0 and printed == summary
    written = (counts_dir / "a.out").read_text()
    # the artifact is the same either way but for the manifest's "out"
    assert written.replace('"out": "a.out"', '"out": null', 1) == stdout
    manifest, _ = parse_artifact(written)
    assert manifest["command"] == command.name
    assert manifest["out"] == "a.out"
    # params echo every dest given on argv, and the defaults of the rest
    given = {flag[2:].replace("-", "_"): value for flag, value in zip(argv[1::2], argv[2::2])}
    defaults = {flag[2:].replace("-", "_") for flag, spec in command.arguments
                if spec.get("default") is not None}
    params = manifest["params"]
    assert set(params) == {"command"} | set(given) | defaults
    assert params["command"] == command.name
    for dest, value in given.items():
        assert params[dest] == type(params[dest])(value), dest
    assert manifest["seed"] == params.get("seed")


def _with(argv, flag, value):
    """argv with ``flag`` set to ``value``, replaced or appended."""
    if flag in argv:
        i = argv.index(flag) + 1
        return argv[:i] + [value] + argv[i + 1:]
    return argv + [flag, value]


# every omega-valued flag in the table, set to a non-finite value
NON_FINITE_OMEGA = [
    (command.name, flag, value)
    for command in cli.COMMANDS
    for flag, _ in command.arguments
    for value in {"--probes": ("10,100,inf", "10,nan")}.get(flag, ("inf", "nan"))
    if flag in ("--omega", "--omega-min", "--omega-max", "--probes")
]


def test_non_finite_omega_cases_cover_the_table():
    flagged = {name for name, _, _ in NON_FINITE_OMEGA}
    assert flagged == {"pmf", "cdf", "moments", "tau", "dn", "limits", "clt", "delta-grid",
                       "tau1-grid", "accuracy", "sample"}


@pytest.mark.parametrize("name, flag, value", NON_FINITE_OMEGA,
                         ids=[f"{n}{f}={v}" for n, f, v in NON_FINITE_OMEGA])
def test_non_finite_omega_is_an_error(capsys, counts_dir, name, flag, value):
    argv = _with(TABLE_ARGV[name], flag, value)
    code, stdout, stderr = run(capsys, *argv)
    assert code == 1 and stdout == ""
    assert len(stderr.splitlines()) == 1 and stderr.startswith("error:")
    code, stdout, _ = run(capsys, *argv, "--out", "a.out")
    assert code == 1 and stdout == ""
    assert not (counts_dir / "a.out").exists()


def test_help_lists_the_table(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    listed = re.search(r"\{([^}]*)\}", capsys.readouterr().out).group(1).split(",")
    assert listed == [c.name for c in cli.COMMANDS]
    assert len(listed) == 13


@pytest.mark.parametrize("axes, values", [
    (["--psi-steps", "1", "--psi-min", "0.5", "--psi-max", "0.5"],
     [0.75 * (1 + w + w * w + w ** 3) for w in np.linspace(0.05, 2.0, 101)]),
    (["--omega-steps", "1", "--omega-min", "1", "--omega-max", "1"], [3.0] * 101),
], ids=["psi-half", "omega-one"])
def test_all_singular_delta_grid(capsys, tmp_path, axes, values):
    """Every cell on a line where the linear factors vanish: Delta is
    (3/4)(1 + omega + omega^2 + omega^3) at psi = 1/2 and 3 at
    omega = 1 (n = 4), and every cell is flagged positive."""
    out = tmp_path / "grid.csv"
    code, printed, _ = run(capsys, "delta-grid", "--n", "4", *axes, "--out", str(out))
    assert code == 0
    head, low = printed.split(", min=")
    assert head == "delta grid n=4: 101 positive cells" and low == cli._fmt(float(low)) + "\n"
    assert float(low) == pytest.approx(min(values), rel=8.9e-16, abs=0)
    _, rows = parse_artifact(out.read_text())
    assert rows[0] == ["psi", "omega", "value", "flag"]
    assert len(rows) == 102 and all(r[3] == "1" for r in rows[1:])
    cells = [float(r[2]) for r in rows[1:]]
    np.testing.assert_allclose(cells, values, rtol=8.9e-16)
    assert float(low) == min(cells)


def test_artifact_writes_every_non_finite_value_as_null():
    args = argparse.Namespace(command="moments", out=None, func=None)
    record = MomentSummary(math.inf, math.nan, 0.5, -math.inf, 2.0, 0.25)
    result = {"record": record, "list": [math.inf, (-math.inf, math.nan), 1.5], "x": math.nan}
    doc = json.loads(cli._artifact(args, result), parse_constant=_reject_constant)
    assert doc["result"] == {
        "record": {"tau1": None, "tau2": None, "eta": 0.5, "mean": None, "variance": 2.0,
                   "pi": 0.25},
        "list": [None, [None, None], 1.5],
        "x": None,
    }


def test_artifact_writes_every_non_finite_cell_empty():
    args = argparse.Namespace(command="clt", out=None, func=None)
    table = (["a", "b", "c"], [(1, math.inf, 0.5), (2, -math.inf, math.nan)])
    _, rows = parse_artifact(cli._artifact(args, table))
    assert rows == [["a", "b", "c"], ["1", "", "0.5"], ["2", "", ""]]


def readme_cli_lines():
    """The ``lmbd ...`` lines of README's CLI section, as argv lists."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = text.split("\n## CLI\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    return [shlex.split(line)[1:] for line in block.splitlines() if line.startswith("lmbd ")]


def test_readme_examples_cover_the_table():
    assert sorted(argv[0] for argv in readme_cli_lines()) == sorted(
        c.name for c in cli.COMMANDS)


@pytest.mark.parametrize("argv", readme_cli_lines(), ids=lambda a: a[0])
def test_readme_example_runs(capsys, counts_dir, argv):
    assert main(argv) == 0
    capsys.readouterr()
