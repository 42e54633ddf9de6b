"""The public records are named tuples: their field order, that they
hold no per-instance state, and that the five validated inputs check
their values on every way a record can be built; that every integer
argument of a public call rejects a float; and that every range and
order rule gives one exact message."""

import copy
import dataclasses
import math
import pickle
import sys

import numpy as np
import pytest

import lmbd
from lmbd import (CountSample, EnsembleSpec, GridSpec, LimitRegime, ModelParams,
                  beta_binomial_accuracy, binomial_accuracy, cdf, clt_scan, conditional_cpr,
                  convergence_report, limit_distribution, log_k, majority_threshold, sample,
                  tau, tau_limit)

# positional construction and unpacking follow this order, which is the
# field order the records had as dataclasses
FIELDS = {
    "ModelParams": ("n", "psi", "omega"),
    "PmfTable": ("params", "log_prob", "log_normalizer"),
    "MomentSummary": ("tau1", "tau2", "eta", "mean", "variance", "pi"),
    "LimitRegime": ("omega_edge", "n", "psi_edge"),
    "LimitReport": ("regime", "limit_mean", "limit_variance", "limit_distribution",
                    "numeric_evidence"),
    "CltScanRow": ("n", "psi", "omega", "ks_distance"),
    "GridSpec": ("psi_values", "omega_values", "n"),
    "RegionGrid": ("spec", "values", "flags"),
    "Theorem2Report": ("params", "tau1", "pi", "theorem_applies", "relation"),
    "EnsembleSpec": ("n", "params"),
    "CountSample": ("n", "counts"),
    "FitResult": ("psi_hat", "omega_hat", "log_likelihood", "converged", "iterations",
                  "standard_errors", "theta_hat"),
    "ModelReport": ("name", "n_params", "log_likelihood", "aic", "predicted_accuracy",
                    "parameters", "converged"),
    "ComparisonReport": ("sample_total", "empirical_accuracy", "models", "best_aic"),
}
RECORDS = [getattr(lmbd, name) for name in FIELDS]

VALID = {
    ModelParams: (5, 0.3, 1.2),
    GridSpec: ((0.1, 0.2), (1.0, 2.0), 3),
    LimitRegime: ("to-zero", 4, "to-one"),
    EnsembleSpec: (3, ModelParams(3, 0.6, 1.0)),
    CountSample: (2, (1, 0, 1)),
}

# (record, field, invalid value, message)
INVALID = [
    (ModelParams, "n", 2.5, "must be an integer"),
    (ModelParams, "n", "5", "must be an integer"),
    (ModelParams, "n", 0, ">= 1"),
    (ModelParams, "psi", 1.5, "psi"),
    (ModelParams, "omega", 0.0, "omega"),
    (ModelParams, "omega", math.inf, "omega"),
    (GridSpec, "n", 2.5, "must be an integer"),
    (GridSpec, "n", 0, ">= 1"),
    (GridSpec, "psi_values", (0.2, 0.1), "psi_values"),
    (GridSpec, "omega_values", (), "omega_values"),
    (LimitRegime, "n", 2.5, "must be an integer"),
    (LimitRegime, "n", 0, ">= 1"),
    (LimitRegime, "omega_edge", "sideways", "omega_edge"),
    (LimitRegime, "psi_edge", "to-half", "psi_edge"),
    (EnsembleSpec, "n", 3.0, "must be an integer"),
    (EnsembleSpec, "n", 4, "match params.n"),
    (EnsembleSpec, "n", 0, ">= 1"),
    (CountSample, "n", 2.0, "must be an integer"),
    (CountSample, "counts", (1, 1), "length"),
    (CountSample, "n", 0, ">= 1"),
    (CountSample, "counts", (1, -1, 1), "count must be >= 0"),
    (CountSample, "counts", (0, 0, 0), "at least one"),
]


def _unchecked(cls, values):
    """A record built round ``__new__``, as only ``tuple.__new__`` can."""
    return tuple.__new__(cls, values)


PATHS = {
    "positional": lambda cls, kw: cls(*kw.values()),
    "keyword": lambda cls, kw: cls(**kw),
    "_replace": lambda cls, kw: cls(*VALID[cls])._replace(**kw),
    "_make": lambda cls, kw: cls._make(kw.values()),
    "copy": lambda cls, kw: copy.copy(_unchecked(cls, kw.values())),
    "deepcopy": lambda cls, kw: copy.deepcopy(_unchecked(cls, kw.values())),
    "pickle": lambda cls, kw: pickle.loads(pickle.dumps(_unchecked(cls, kw.values()))),
}


def test_field_order_is_pinned():
    public = {name: obj for name in lmbd.__all__
              if isinstance(obj := getattr(lmbd, name), type) and issubclass(obj, tuple)}
    assert {name: cls._fields for name, cls in public.items()} == FIELDS
    assert {name: cls._field_defaults for name, cls in public.items()
            if cls._field_defaults} == {"LimitRegime": {"psi_edge": "none"}}


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_every_record_is_a_tuple_without_instance_state(cls):
    assert issubclass(cls, tuple) and not dataclasses.is_dataclass(cls)
    assert all(klass.__dict__.get("__slots__") == () for klass in cls.__mro__[:-2])
    record = cls(*VALID[cls]) if cls in VALID else cls._make(range(len(cls._fields)))
    assert not hasattr(record, "__dict__")
    with pytest.raises(AttributeError):
        setattr(record, cls._fields[0], record[0])


def test_no_module_binds_dataclass():
    for name, module in list(sys.modules.items()):
        if name == "lmbd" or name.startswith("lmbd."):
            for attr, value in vars(module).items():
                assert "dataclass" not in attr, (name, attr)
                assert getattr(value, "__module__", None) != "dataclasses", (name, attr)
                assert value is not dataclasses, (name, attr)


@pytest.mark.parametrize("path", PATHS)
@pytest.mark.parametrize("cls", VALID, ids=lambda cls: cls.__name__)
def test_every_path_builds_the_same_record(cls, path):
    expect = tuple.__new__(cls, VALID[cls])
    record = PATHS[path](cls, dict(zip(cls._fields, VALID[cls])))
    assert type(record) is cls and record == expect


@pytest.mark.parametrize("path", PATHS)
@pytest.mark.parametrize("cls, field, bad, match", INVALID,
                         ids=[f"{c.__name__}-{f}-{b!r}" for c, f, b, _ in INVALID])
def test_every_path_validates(cls, field, bad, match, path):
    kw = dict(zip(cls._fields, VALID[cls]), **{field: bad})
    if path == "_replace":
        kw = {field: bad}
    with pytest.raises(ValueError, match=match):
        PATHS[path](cls, kw)


@pytest.mark.parametrize("cls", VALID, ids=lambda cls: cls.__name__)
def test_a_numpy_integer_n_is_stored_as_an_int(cls):
    kw = dict(zip(cls._fields, VALID[cls]))
    kw["n"] = np.int64(kw["n"])
    record = cls(**kw)
    assert type(record.n) is int and record == cls(*VALID[cls])


P = ModelParams(10, 0.3, 1.2)
# every integer argument of a public call other than a record's n, each
# given a float: all read it with ``core._integer``
NON_INTEGER_CALLS = {
    "cdf-y": lambda: cdf(P, 2.5),
    "tau-r": lambda: tau(1.5, P),
    "log_k-a": lambda: log_k(10, 1.5, 0.3, 1.2),
    "sample-count": lambda: sample(P, 2.5, 1),
    "sample-seed": lambda: sample(P, 2, 1.5),
    "beta_binomial_accuracy-n": lambda: beta_binomial_accuracy(2.5, 1.0, 1.0),
    "binomial_accuracy-n": lambda: binomial_accuracy(2.5, 0.3),
    "majority_threshold-n": lambda: majority_threshold(2.5),
    "clt_scan-ns": lambda: clt_scan([8.5, 16], 0.3, 1.2),
    "tau_limit-j": lambda: tau_limit(1.5, LimitRegime("to-zero", 4), 0.3),
    "linspace-psi_steps": lambda: GridSpec.linspace(5, 2.5),
    "linspace-omega_steps": lambda: GridSpec.linspace(5, 11, 7.0),
    "from_pairs-y": lambda: CountSample.from_pairs(5, [(2.5, 1)]),
    "from_pairs-count": lambda: CountSample.from_pairs(5, [(2, 1.5)]),
}


@pytest.mark.parametrize("call", NON_INTEGER_CALLS.values(), ids=NON_INTEGER_CALLS)
def test_every_integer_argument_rejects_a_float(call):
    with pytest.raises(ValueError, match="must be an integer"):
        call()


# every integer argument of a public call other than a record's n, each
# given a value out of its range, and the one message ``core._integer``
# gives for it, which names the argument
OUT_OF_RANGE_CALLS = {
    "cdf-y": (lambda: cdf(P, 11), "y must lie in [0, 10], got 11"),
    "tau-r": (lambda: tau(0, P), "r must lie in [1, 10], got 0"),
    "log_k-n": (lambda: log_k(0, 0, 0.3, 1.2), "n must be >= 1, got 0"),
    "log_k-a": (lambda: log_k(10, 11, 0.3, 1.2), "a must lie in [0, 10], got 11"),
    "sample-count": (lambda: sample(P, 0, 1), "count must be >= 1, got 0"),
    "sample-seed": (lambda: sample(P, 2, -1), "seed must be >= 0, got -1"),
    "beta_binomial_accuracy-n": (lambda: beta_binomial_accuracy(-1, 1.0, 1.0),
                                 "n must be >= 1, got -1"),
    "binomial_accuracy-n": (lambda: binomial_accuracy(0, 0.3), "n must be >= 1, got 0"),
    "majority_threshold-n": (lambda: majority_threshold(0), "n must be >= 1, got 0"),
    "clt_scan-ns": (lambda: clt_scan([0, 16], 0.3, 1.2), "ns must be >= 1, got 0"),
    "clt_scan-ns-empty": (lambda: clt_scan([], 5.0, -1.0), "ns must be non-empty"),
    "tau_limit-j-to-zero": (lambda: tau_limit(5, LimitRegime("to-zero", 4), 0.3),
                            "j must lie in [1, 4], got 5"),
    "tau_limit-j-to-infinity": (lambda: tau_limit(5, LimitRegime("to-infinity", 4), 0.3),
                                "j must lie in [1, 4], got 5"),
    "linspace-psi_steps": (lambda: GridSpec.linspace(5, -2), "psi_steps must be >= 1, got -2"),
    "linspace-omega_steps": (lambda: GridSpec.linspace(5, 11, 0),
                             "omega_steps must be >= 1, got 0"),
    "from_pairs-n": (lambda: CountSample.from_pairs(0, [(0, 5)]), "n must be >= 1, got 0"),
    "from_pairs-y": (lambda: CountSample.from_pairs(5, [(6, 1)]),
                     "observed y must lie in [0, 5], got 6"),
    "from_pairs-count": (lambda: CountSample.from_pairs(5, [(2, 3), (2, -1)]),
                         "count must be >= 0, got -1"),
    "conditional_cpr-n": (lambda: conditional_cpr(ModelParams(1, 0.5, 1.0)),
                          "n must be >= 2, got 1"),
}


@pytest.mark.parametrize("call, message", OUT_OF_RANGE_CALLS.values(), ids=OUT_OF_RANGE_CALLS)
def test_every_integer_argument_rejects_a_value_out_of_range(call, message):
    with pytest.raises(ValueError) as info:
        call()
    assert str(info.value) == message


TO_ZERO, TO_INFINITY = LimitRegime("to-zero", 4), LimitRegime("to-infinity", 4)
# every argument that must be a probability in [0, 1] or in (0, 1), a
# positive finite number, or a non-empty strictly ordered sequence, each
# given a value that breaks its rule, and the one message
# ``core._probability``, ``core._interior``, ``core._positive`` or
# ``core._ordered`` gives for it, which names the argument and the value
RULE_CALLS = {
    "ModelParams-psi": (lambda: ModelParams(5, 1.5, 1.2), "psi must lie in [0, 1], got 1.5"),
    "ModelParams-psi-nan": (lambda: ModelParams(5, math.nan, 1.2),
                            "psi must lie in [0, 1], got nan"),
    "ModelParams-omega": (lambda: ModelParams(5, 0.3, 0.0),
                          "omega must be positive and finite, got 0.0"),
    "ModelParams-omega-inf": (lambda: ModelParams(5, 0.3, math.inf),
                              "omega must be positive and finite, got inf"),
    "GridSpec-empty": (lambda: GridSpec((), (1.0,), 3), "psi_values must be non-empty"),
    "GridSpec-unordered": (lambda: GridSpec((0.5, 0.2), (1.0,), 3),
                           "psi_values must be strictly increasing, got 0.2 after 0.5"),
    "GridSpec-nan": (lambda: GridSpec((0.2,), (0.5, math.nan, 2.0), 3),
                     "omega_values must be strictly increasing, got nan after 0.5"),
    "GridSpec-psi-end": (lambda: GridSpec((0.2, 1.5), (1.0,), 3),
                         "psi_values must lie in [0, 1], got 1.5"),
    "GridSpec-omega-end": (lambda: GridSpec((0.2,), (1.0, math.inf), 3),
                           "omega_values must be positive and finite, got inf"),
    "linspace-psi_min": (lambda: GridSpec.linspace(3, psi_min=-0.1),
                         "psi_values must lie in [0, 1], got -0.1"),
    "linspace-psi_max": (lambda: GridSpec.linspace(3, psi_max=math.inf),
                         "psi_values must lie in [0, 1], got inf"),
    "linspace-omega_min": (lambda: GridSpec.linspace(3, omega_min=0.0),
                           "omega_values must be positive and finite, got 0.0"),
    "linspace-omega_max": (lambda: GridSpec.linspace(3, omega_max=math.nan),
                           "omega_values must be positive and finite, got nan"),
    "clt_scan-unordered": (lambda: clt_scan([16, 8], 0.3, 1.2),
                           "ns must be strictly increasing, got 8 after 16"),
    "convergence_report-empty": (lambda: convergence_report(TO_ZERO, 0.5, []),
                                 "probe_points must be non-empty"),
    "convergence_report-to-zero-rising": (
        lambda: convergence_report(TO_ZERO, 0.5, [0.1, 0.2, 0.01]),
        "probe_points must be strictly decreasing, got 0.2 after 0.1"),
    "convergence_report-to-infinity-falling": (
        lambda: convergence_report(TO_INFINITY, 0.5, [100.0, 10.0]),
        "probe_points must be strictly increasing, got 10.0 after 100.0"),
    "convergence_report-to-zero-end": (lambda: convergence_report(TO_ZERO, 0.5, [0.1, 0.0]),
                                       "probe_points must be positive and finite, got 0.0"),
    "convergence_report-to-infinity-end": (
        lambda: convergence_report(TO_INFINITY, 0.5, [-1.0, 10.0]),
        "probe_points must be positive and finite, got -1.0"),
    "conditional_cpr-psi": (lambda: conditional_cpr(ModelParams(5, 0.0, 1.2)),
                            "psi must lie in (0, 1), got 0.0"),
    "limit_distribution-psi": (lambda: limit_distribution(TO_ZERO, 1.5),
                               "psi must lie in (0, 1), got 1.5"),
    "convergence_report-psi": (lambda: convergence_report(TO_INFINITY, 1.0, [10.0]),
                               "psi must lie in (0, 1), got 1.0"),
    "binomial_accuracy-pi": (lambda: binomial_accuracy(5, -0.1),
                             "pi must lie in [0, 1], got -0.1"),
    "beta_binomial_accuracy-alpha": (lambda: beta_binomial_accuracy(5, 0.0, 1.0),
                                     "alpha must be positive and finite, got 0.0"),
    "beta_binomial_accuracy-beta": (lambda: beta_binomial_accuracy(5, 1.0, math.inf),
                                    "beta must be positive and finite, got inf"),
}


@pytest.mark.parametrize("call, message", RULE_CALLS.values(), ids=RULE_CALLS)
def test_every_range_and_order_rule_names_its_argument_and_value(call, message):
    with pytest.raises(ValueError) as info:
        call()
    assert str(info.value) == message


@pytest.mark.parametrize("counts", [(1, 0, True), (np.int64(1), 0, 1)])
def test_counts_are_stored_as_ints(counts):
    sample_ = CountSample(2, counts)
    assert sample_.counts == (1, 0, 1) and {type(c) for c in sample_.counts} == {int}
    assert type(sample_.total) is int


@pytest.mark.parametrize("omega", [1.0, 1.5, pytest.param(np.float64(1.5), id="np.float64(1.5)")])
@pytest.mark.parametrize("psi", [0.3, 0.0, 1.0, pytest.param(np.float64(0.3), id="np.float64(0.3)")])
def test_scalar_readers_return_python_floats(psi, omega):
    # numpy scalars would leak numpy's types and printing into callers;
    # the interior point and the psi edges take different kernel paths
    n = 7
    p = ModelParams(n, psi, omega)
    values = {
        "tau": tau(1, p), "tau_n": tau(n, p), "cdf": cdf(p, 3),
        "marginal_pi": lmbd.marginal_pi(p), "log_k": log_k(n, 0, psi, omega),
        "log_k2": log_k(n, 2, psi, omega), "delta": lmbd.delta(p), "d_n": lmbd.d_n(p),
        "ensemble_accuracy": lmbd.ensemble_accuracy(EnsembleSpec(n, p)),
        "binomial_accuracy": binomial_accuracy(n, psi),
        "joint_log_prob": lmbd.joint_log_prob(p, [1, 1, 1, 0, 0, 0, 0]),
        "log_normalizer": lmbd.pmf(p).log_normalizer,
    }
    if 0.0 < psi < 1.0:
        values["conditional_cpr"] = conditional_cpr(p)
    values.update((f"moments.{k}", v) for k, v in lmbd.moments(p)._asdict().items())
    report = lmbd.theorem2_check(p)
    values.update({"theorem2.tau1": report.tau1, "theorem2.pi": report.pi})
    assert {k: type(v) for k, v in values.items() if type(v) is not float} == {}
