import contextlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import nlogis.cli as cli
from nlogis import build_grid, problem_spec, solve_dirichlet
from nlogis.cli import (
    ConfigError,
    ResultRow,
    csv_text,
    main,
    parse_config,
    report_summary,
    run,
)


def test_minimal_config_gets_defaults():
    cfg = parse_config(json.dumps({"experiment": "eigen"}))
    assert cfg.params["h"] == 2.0**-9
    assert cfg.params["s_values"] == [0.25, 0.5, 0.75]
    cfg = parse_config(json.dumps({"experiment": "congruence"}))
    assert cfg.params["solver_tol"] == 1e-10


def test_wide_experiments_get_coarser_default_spacing():
    # defaults keep the largest grids inside the dense desk-scale budget
    assert parse_config(json.dumps({"experiment": "ext-crossing"})).params["h"] \
        == 2.0**-6
    assert parse_config(json.dumps({"experiment": "strategic"})).params["h"] \
        == 1.0 / 16.0


def test_misspelled_key_is_named():
    with pytest.raises(ConfigError, match="sgima"):
        parse_config(json.dumps({"experiment": "solve", "sgima": 1.0}))


def test_negative_tau_cites_constraint():
    with pytest.raises(ConfigError, match="tau >= 0"):
        parse_config(json.dumps({"experiment": "solve", "sigma": 1.0,
                                 "tau": -0.5}))


def test_unknown_experiment():
    with pytest.raises(ConfigError, match="unknown experiment"):
        parse_config(json.dumps({"experiment": "frobnicate"}))


def test_nonpositive_tolerance_rejected():
    with pytest.raises(ConfigError, match="positive"):
        parse_config(json.dumps({"experiment": "congruence",
                                 "solver_tol": 0.0}))


def test_malformed_geometry_rejected():
    with pytest.raises(ConfigError, match="intervals"):
        parse_config(json.dumps({"experiment": "eigen", "intervals": [[1, 0]]}))


def test_invalid_json_rejected(tmp_path, capsys):
    for text in ("{nope", "[" * 100_000):
        with pytest.raises(ConfigError, match="invalid JSON"):
            parse_config(text)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(text)
        assert main(["eigen", "--config", str(cfg_path)]) == 64
        err = capsys.readouterr().err
        assert "invalid JSON" in err and "Traceback" not in err


def test_huge_node_count_gets_a_short_message(tmp_path, capsys):
    # r = 1e300 asks for about 3e301 nodes: the message writes that count
    # in exponent form, not as 300 digits
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"experiment": "eigen", "h": 2.0**-5,
                                    "s_values": [0.5], "radii": [1e300]}))
    assert main(["eigen", "--config", str(cfg_path)]) == 64
    err = capsys.readouterr().err
    assert "3.2e+301 nodes" in err and "MAX_NODES" in err
    assert len(err) < 160 and "Traceback" not in err


def test_coefficient_object_validation():
    with pytest.raises(ConfigError, match="unknown coefficient kind"):
        parse_config(json.dumps({"experiment": "solve",
                                 "sigma": {"kind": "mystery"}}))
    with pytest.raises(ConfigError, match="required for kind"):
        parse_config(json.dumps({"experiment": "solve",
                                 "sigma": {"kind": "dip", "level": 1.0}}))


# every experiment's minimal-config params, pinned as literals so that no
# default can drift unnoticed
_GOLDEN_DEFAULTS = {
    "eigen": {"h": 0.001953125, "intervals": [(0.0, 1.0)],
              "s_values": [0.25, 0.5, 0.75], "radii": [1.0, 2.0, 3.0],
              "tolerance": 0.01},
    "solve": {"h": 0.001953125, "solver_tol": 1e-10, "triviality_tol": None,
              "intervals": [(0.0, 1.0)], "s": 0.5,
              "sigma": {"kind": "constant", "value": 1.0},
              "mu": {"kind": "constant", "value": 1.0}, "tau": 0.0,
              "kernel": None, "expect": None},
    "threshold-radius": {"h": 0.001953125, "interval": (0.0, 1.0),
                         "s_values": [0.5, 0.75], "tolerance": 0.05},
    "ext-crossing": {"h": 0.015625, "interval": (0.0, 1.0), "s": 0.25,
                     "S": 1.0, "r_min": 0.05, "r_max": 20.0, "r_count": 25},
    "congruence": {"h": 0.001953125, "solver_tol": 1e-10, "length": 1.0,
                   "separation": 1.0, "s": 0.5, "classical_control": True},
    "abundance": {"h": 0.001953125, "solver_tol": 1e-10,
                  "interval": (-1.0, 1.0), "ball_resource": (-0.5, 0.5),
                  "ball_check": (-0.25, 0.25), "s": 0.5, "m_start": 5.0,
                  "sweep_factors": [1.0, 2.0, 4.0], "variation_tol": 0.25},
    "beat": {"h": 0.001953125, "solver_tol": 1e-10, "interval": (-1.0, 1.0),
             "s": 0.5, "level": 30.0, "dip_center": 0.7, "dip_width": 0.2,
             "m_values": [0.01, 0.05, 0.2, 0.5, 1.0]},
    "periodic": {"solver_tol": 1e-10, "n": 128, "s": 0.5,
                 "sigma": {"kind": "constant", "value": 2.0},
                 "mu": {"kind": "constant", "value": 1.0}, "tau": 0.5,
                 "kernel": {"shape": "uniform", "rho": 0.25},
                 "tolerance": 1e-08},
    "transmission": {"h": 0.001953125, "solver_tol": 1e-10,
                     "interval_local": (0.0, 1.0),
                     "interval_nonlocal": (1.5, 2.5), "s": 0.5, "s1": 0.4,
                     "s2": 0.6, "nu1": 1.0, "nu2": 1.0, "margin": 0.2},
    "strategic": {"h": 0.0625, "solver_tol": 1e-10, "s": 0.5, "eps": 0.1,
                  "r_schedule": [4.0, 6.0, 8.0],
                  "sigma": {"kind": "constant", "value": 1.0},
                  "mu": {"kind": "constant", "value": 1.0}, "tau": 0.0,
                  "kernel": None},
}


@pytest.mark.parametrize("experiment", cli.EXPERIMENTS)
def test_golden_defaults(experiment):
    raw = {"experiment": experiment}
    if experiment == "solve":
        raw["sigma"] = 1.0
    cfg = parse_config(json.dumps(raw))
    # repr pins key order and int/float/tuple types, which == would not
    assert repr(cfg.params) == repr(_GOLDEN_DEFAULTS[experiment])
    assert (cfg.out, cfg.jobs) == (None, 1)


_JSON_KEYS = ["kind", "shape", "rho", "samples", "value", "ball", "inside",
              "outside", "mean", "amplitude", "frequency", "level", "center",
              "width", "factor"]
_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats()
    | st.text(max_size=3)
    | st.sampled_from(["uniform", "sampled", "constant", "indicator", "dip",
                       "cosine", "eigenvalue-multiple", "trivial"]),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(
        st.sampled_from(_JSON_KEYS) | st.text(max_size=3), inner, max_size=4),
    max_leaves=10,
)


@pytest.mark.parametrize("experiment", cli.EXPERIMENTS)
@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(data=st.data())
def test_parse_config_returns_or_raises_config_error(experiment, data):
    keys = sorted({**cli._COMMON, **cli._EXPERIMENTS[experiment].keys})
    values = data.draw(st.dictionaries(st.sampled_from(keys), _JSON_VALUES,
                                       max_size=4))
    try:
        parse_config(json.dumps({"experiment": experiment, **values}))
    except ConfigError:
        pass


def _eigen_config(**extra):
    # generous tolerance: these tests exercise plumbing at a coarse grid,
    # the acceptance suite pins the 1% accuracy at h = 2^-9
    base = {"experiment": "eigen", "h": 2.0**-5, "s_values": [0.5],
            "radii": [1.0, 2.0], "tolerance": 0.05}
    base.update(extra)
    return base


def test_eigen_run_and_csv_determinism(tmp_path):
    cfg = parse_config(json.dumps(_eigen_config()))
    rows1 = run(cfg)
    rows2 = run(cfg)
    text1 = csv_text(rows1, "eigen")
    text2 = csv_text(rows2, "eigen")
    assert text1 == text2
    assert text1.splitlines()[0] == ",".join(
        cli._EXPERIMENTS["eigen"].columns)
    assert all(r.passed for r in rows1)
    assert "\r" not in text1


_RETAINED_HEAP = """
import sys
import numpy as np
import nlogis.cli as cli

def resident():
    with open("/proc/self/statm") as f:
        return int(f.read().split()[1]) * 4096

# freeing a 32 MB matrix raises glibc's mmap threshold to its size, so the
# 26 MB one after it is carved from the heap, whose freed top is then kept
np.ones((2000, 2000))
np.ones((1800, 1800))
kept = resident()
cli.run(cli.parse_config(sys.argv[1]))
print(kept - resident())
"""


@pytest.mark.skipif(
    not (hasattr(cli._LIBC, "mallinfo2")
         and Path("/proc/self/statm").exists()),
    reason="needs glibc >= 2.33 and /proc")
def test_run_returns_freed_heap_to_the_system():
    # glibc's allocator at its defaults, whatever the environment sets
    env = {k: v for k, v in os.environ.items()
           if not k.startswith(("MALLOC_", "GLIBC_TUNABLES"))}
    env["PYTHONPATH"] = str(Path(cli.__file__).parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", _RETAINED_HEAP, json.dumps(_eigen_config())],
        capture_output=True, text=True, timeout=120, check=True, env=env)
    released = int(proc.stdout.split()[-1])
    assert released > 2**24, released


def test_csv_written_to_out(tmp_path):
    out = tmp_path / "eigen.csv"
    cfg = parse_config(json.dumps(_eigen_config(out=str(out))))
    run(cfg)
    data = out.read_bytes()
    assert data.startswith(b"experiment,s,r,lambda")
    assert b"\r\n" not in data


def test_golden_column_sets():
    columns = {e: cli._EXPERIMENTS[e].columns for e in cli.EXPERIMENTS}
    assert columns["threshold-radius"] == [
        "experiment", "s", "r_star", "predicted", "rel_gap", "tolerance",
        "pass",
    ]
    assert columns["periodic"][:5] == ["experiment", "case", "n", "s", "tau"]
    assert columns["strategic"] == [
        "experiment", "s", "eps", "r_used", "approx_error",
        "harmonic_residual", "el_residual", "sigma_gap",
        "lower_bound_margin", "pass",
    ]
    for names in columns.values():
        assert names[-1] == "pass"
        assert names[0] == "experiment"


def test_report_summary_ten_claims():
    rows = []
    for experiment in ("solve", "threshold-radius", "ext-crossing",
                       "congruence", "abundance", "beat", "periodic",
                       "transmission", "strategic"):
        rows.append(ResultRow(experiment, {}, passed=True))
    rows[0].values["max_principle_ok"] = True
    text = report_summary(rows)
    lines = text.splitlines()
    assert len(lines) == 10
    assert all(line.startswith("PASS") for line in lines)
    claims = {line.split()[-1] for line in lines}
    assert "extinction-survival" in claims
    assert "resource-max-principle" in claims
    assert "strategic-plan" in claims


def test_report_summary_flags_failures():
    rows = [ResultRow("periodic", {}, passed=False)]
    assert report_summary(rows).startswith("FAIL")
    with pytest.raises(ValueError, match="no result rows"):
        report_summary([])


def test_main_eigen_roundtrip(tmp_path, capsys):
    cfg_path = tmp_path / "eigen.json"
    out_path = tmp_path / "eigen.csv"
    cfg_path.write_text(json.dumps(_eigen_config()))
    code = main(["eigen", "--config", str(cfg_path), "--out", str(out_path)])
    assert code == 0
    assert "PASS" in capsys.readouterr().out
    assert out_path.exists()


def test_main_byte_identical_reruns(tmp_path, capsys):
    cfg_path = tmp_path / "eigen.json"
    cfg_path.write_text(json.dumps(_eigen_config()))
    out1 = tmp_path / "run1.csv"
    out2 = tmp_path / "run2.csv"
    assert main(["eigen", "--config", str(cfg_path), "--out", str(out1)]) == 0
    assert main(["eigen", "--config", str(cfg_path), "--out", str(out2)]) == 0
    capsys.readouterr()
    assert out1.read_bytes() == out2.read_bytes()


def test_main_exit_codes(tmp_path, capsys):
    # invariant failure: an absurd tolerance no eigenvalue ratio can meet
    cfg_path = tmp_path / "bad.json"
    cfg_path.write_text(json.dumps(_eigen_config(tolerance=1e-15)))
    assert main(["eigen", "--config", str(cfg_path)]) == 3
    capsys.readouterr()
    # invariant failure: a grid too coarse to resolve the threshold radius
    cfg_path.write_text(json.dumps({"experiment": "threshold-radius",
                                    "h": 0.0625}))
    assert main(["threshold-radius", "--config", str(cfg_path)]) == 3
    capsys.readouterr()
    # malformed config
    cfg_path.write_text(json.dumps({"experiment": "eigen", "sgima": 2}))
    assert main(["eigen", "--config", str(cfg_path)]) == 64
    capsys.readouterr()
    # missing config file
    assert main(["eigen", "--config", str(tmp_path / "absent.json")]) == 64
    capsys.readouterr()
    # config file that is not UTF-8
    cfg_path.write_bytes(b"\xff\xfe{}")
    assert main(["eigen", "--config", str(cfg_path)]) == 64
    capsys.readouterr()
    # subcommand / config mismatch
    cfg_path.write_text(json.dumps(_eigen_config()))
    assert main(["solve", "--config", str(cfg_path)]) == 64
    capsys.readouterr()


def test_main_nonconvergence_exit_code(tmp_path, capsys):
    # a residual target below the floating-point floor cannot be met
    cfg_path = tmp_path / "stall.json"
    cfg_path.write_text(json.dumps({
        "experiment": "solve", "h": 2.0**-4, "s": 0.5,
        "sigma": {"kind": "eigenvalue-multiple", "factor": 1.5},
        "solver_tol": 1e-30,
    }))
    assert main(["solve", "--config", str(cfg_path)]) == 2
    capsys.readouterr()


def test_negative_final_iterate_exits_2_without_traceback(tmp_path, capsys,
                                                          monkeypatch):
    # a descent whose final iterate is negative somewhere breaks the u >= 0
    # postcondition; the report builder raises ConvergenceError for it
    from nlogis import logistic
    descend = logistic._minimize_model

    def negated(*args):
        u, *rest = descend(*args)
        return (-u, *rest)
    monkeypatch.setattr(logistic, "_minimize_model", negated)
    cfg_path = tmp_path / "solve.json"
    cfg_path.write_text(json.dumps({
        "experiment": "solve", "h": 2.0**-4, "s": 0.5,
        "sigma": {"kind": "eigenvalue-multiple", "factor": 1.5},
    }))
    assert main(["solve", "--config", str(cfg_path)]) == 2
    err = capsys.readouterr().err
    assert "final iterate has min" in err
    assert "Traceback" not in err


def test_main_io_failure_exit_code(tmp_path, capsys):
    cfg_path = tmp_path / "eigen.json"
    cfg_path.write_text(json.dumps(_eigen_config()))
    bad_out = tmp_path / "no-such-dir" / "out.csv"
    assert main(["eigen", "--config", str(cfg_path),
                 "--out", str(bad_out)]) == 4
    capsys.readouterr()


def test_main_h_override(tmp_path, capsys):
    cfg_path = tmp_path / "eigen.json"
    cfg_path.write_text(json.dumps(_eigen_config()))
    code = main(["eigen", "--config", str(cfg_path), "--h", str(2.0**-6)])
    assert code == 0
    capsys.readouterr()


def test_jobs_env_fallback(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("NLOGIS_JOBS", "2")
    cfg_path = tmp_path / "eigen.json"
    cfg_path.write_text(json.dumps(_eigen_config()))
    assert main(["eigen", "--config", str(cfg_path)]) == 0
    capsys.readouterr()


_H = 1.0 / 16.0
_EIGEN = {"experiment": "eigen", "h": _H, "s_values": [0.5],
          "radii": [1.0, 2.0], "tolerance": 0.05}
_SOLVE = {"experiment": "solve", "h": _H, "sigma": 2.0}
_THRESHOLD = {"experiment": "threshold-radius", "h": _H}
_STRATEGIC = {"experiment": "strategic", "h": _H}
_PERIODIC = {"experiment": "periodic", "n": 16}

# id: (config, flags, NLOGIS_JOBS or None, text the error must contain)
_MALFORMED = {
    "jobs-flag-zero": (_EIGEN, ["--jobs", "0"], None, "--jobs"),
    "jobs-env-zero": (_EIGEN, [], "0", "NLOGIS_JOBS"),
    "jobs-env-text": (_EIGEN, [], "x", "NLOGIS_JOBS"),
    "h-flag-negative": (_EIGEN, ["--h", "-1"], None, "--h"),
    "h-flag-nan": (_EIGEN, ["--h", "nan"], None, "--h"),
    "h-flag-too-fine": (_EIGEN, ["--h", "1e-5"], None, "99999 nodes"),
    "s-flag-out-of-range": (_SOLVE, ["--s", "5"], None, "--s"),
    "s-flag-eigen": (_EIGEN, ["--s", "0.5"], None, "--s"),
    "s-flag-threshold": (_THRESHOLD, ["--s", "0.5"], None, "--s"),
    "kernel-rho-text": (
        {**_SOLVE, "tau": 0.5, "kernel": {"shape": "uniform", "rho": "x"}},
        [], None, "config.kernel.rho"),
    "margin-above-one": (
        {"experiment": "transmission", "h": _H, "margin": 1.5},
        [], None, "config.margin"),
    # uncoupled, lambda_star is 0 up to roundoff and sigma below it negative
    "transmission-uncoupled": (
        {"experiment": "transmission", "h": _H, "nu1": 0.0, "nu2": 0.0},
        [], None, "config.nu1/nu2"),
    "eigenvalue-multiple-outside-solve-sigma": (
        {**_STRATEGIC, "sigma": {"kind": "eigenvalue-multiple",
                                 "factor": 1.2}},
        [], None, "config.sigma.kind"),
    "coefficient-field-text": (
        {**_SOLVE, "sigma": {"kind": "dip", "level": "a", "center": 0.5,
                             "width": 0.1}},
        [], None, "config.sigma.level"),
    "coefficient-ball-not-a-pair": (
        {**_SOLVE, "sigma": {"kind": "indicator", "ball": [0.5],
                             "inside": 1.0, "outside": 0.0}},
        [], None, "config.sigma.ball"),
    "tau-infinite": ({**_SOLVE, "tau": math.inf}, [], None, "config.tau"),
    "tolerance-nan": ({**_EIGEN, "tolerance": math.nan}, [], None,
                      "config.tolerance"),
    "radius-negative": ({**_EIGEN, "radii": [-1.0]}, [], None,
                        "config.radii[0]"),
    "radius-off-lattice": ({**_EIGEN, "radii": [1.01]}, [], None,
                           "not a multiple of h"),
    "r-schedule-inside-harmonic-ball": (
        {**_STRATEGIC, "r_schedule": [1.0]}, [], None, "support radius"),
    # a later radius inside the ball is rejected before R = 4 is fitted
    "r-schedule-ends-inside-harmonic-ball": (
        {**_STRATEGIC, "r_schedule": [4.0, 1.5]}, [], None, "support radius"),
    "s-values-bool": ({**_EIGEN, "s_values": [True]}, [], None,
                      "config.s_values[0]"),
    "interval-bools": ({**_THRESHOLD, "interval": [False, True]}, [], None,
                       "config.interval[0]"),
    "intervals-text": ({**_EIGEN, "intervals": [[0, "1"]]}, [], None,
                       "config.intervals[0][1]"),
    "tau-without-kernel": ({**_SOLVE, "tau": 0.5}, [], None,
                           "requires a convolution kernel"),
    "sampled-kernel-without-samples": (
        {**_SOLVE, "tau": 0.5, "kernel": {"shape": "sampled"}},
        [], None, "requires samples"),
    # a kernel key its shape does not read is rejected, not ignored
    "uniform-kernel-with-samples": (
        {**_SOLVE, "tau": 0.5,
         "kernel": {"shape": "uniform", "rho": 0.25, "samples": [1, 2, 1]}},
        [], None, "config.kernel.samples: unknown key"),
    "sampled-kernel-with-rho": (
        {**_SOLVE, "tau": 0.5,
         "kernel": {"shape": "sampled", "rho": 7.0, "samples": [1, 2, 1]}},
        [], None, "config.kernel.rho: unknown key"),
    "periodic-mu-zero": ({**_PERIODIC, "mu": 0}, [], None, "config.mu"),
    "periodic-all-zero": ({**_PERIODIC, "sigma": 0, "mu": 0, "tau": 0}, [],
                          None, "config.sigma"),
    "periodic-sigma-below-one": ({**_PERIODIC, "sigma": 0.5}, [], None,
                                 "config.sigma"),
    # keys an experiment does not read are rejected, not ignored
    "triviality-tol-on-congruence": (
        {"experiment": "congruence", "h": _H, "triviality_tol": 1e-6},
        [], None, "config.triviality_tol: unknown key"),
    "h-on-periodic": ({**_PERIODIC, "h": _H}, [], None,
                      "config.h: unknown key"),
    "h-flag-on-periodic": (_PERIODIC, ["--h", "0.0625"], None,
                           "--h: unknown key"),
    "solver-tol-on-eigen": ({**_EIGEN, "solver_tol": 1e-10}, [], None,
                            "config.solver_tol: unknown key"),
    "solver-tol-on-threshold-radius": (
        {**_THRESHOLD, "solver_tol": 1e-10}, [], None,
        "config.solver_tol: unknown key"),
    "solver-tol-on-ext-crossing": (
        {"experiment": "ext-crossing", "solver_tol": 1e-10}, [], None,
        "config.solver_tol: unknown key"),
    # inputs that size an allocation are bounded before it is made
    "ext-crossing-r-count-too-large": (
        {"experiment": "ext-crossing", "r_count": 10**9}, [], None,
        "config.r_count"),
    "kernel-rho-too-large": (
        {**_SOLVE, "tau": 0.5, "kernel": {"shape": "uniform", "rho": 1e9}},
        [], None, "rho=1000000000.0"),
}


@pytest.mark.parametrize("config, flags, jobs_env, cited",
                         _MALFORMED.values(), ids=_MALFORMED.keys())
def test_malformed_input_exits_64_without_traceback(
        tmp_path, capsys, monkeypatch, config, flags, jobs_env, cited):
    if jobs_env is None:
        monkeypatch.delenv("NLOGIS_JOBS", raising=False)
    else:
        monkeypatch.setenv("NLOGIS_JOBS", jobs_env)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(config))
    assert main([config["experiment"], "--config", str(cfg_path),
                 *flags]) == 64
    err = capsys.readouterr().err
    assert err.startswith("error: ") and cited in err
    assert "Traceback" not in err


# id: (subcommand, whether --config is given, further flags, text the
# error must contain)
_USAGE_ERRORS = {
    "jobs-not-an-integer": ("eigen", True, ["--jobs", "abc"], "--jobs"),
    "h-not-a-number": ("eigen", True, ["--h", "x"], "--h"),
    "config-missing": ("eigen", False, [], "--config"),
    "unknown-subcommand": ("bogus", True, [], "'bogus'"),
}


@pytest.mark.parametrize("experiment, with_config, flags, cited",
                         _USAGE_ERRORS.values(), ids=_USAGE_ERRORS.keys())
def test_usage_error_exits_64_without_traceback(
        tmp_path, capsys, experiment, with_config, flags, cited):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(_EIGEN))
    config = ["--config", str(cfg_path)] if with_config else []
    assert main([experiment, *config, *flags]) == 64
    err = capsys.readouterr().err
    assert err.startswith("error: ") and cited in err
    assert "usage: nlogis" in err and "Traceback" not in err


def test_help_exits_0(capsys):
    assert main(["eigen", "--help"]) == 0
    assert "--config" in capsys.readouterr().out


class _RecordingPool:
    """Stands in for ProcessPoolExecutor: records its size, maps in-process."""

    sizes: list[int] = []

    def __init__(self, max_workers):
        _RecordingPool.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, *iterables):
        return map(fn, *iterables)


@pytest.mark.parametrize("jobs, cpus, n_items, expected", [
    (10**6, 4, 3, 3),     # capped by the number of points
    (10**6, 4, 100, 4),   # capped by the processors
    (2, 4, 100, 2),       # the request itself
    (10**6, None, 100, None),  # cpu_count unknown: one worker, no pool
    (10**6, 4, 1, None),  # a single point runs in-process
])
def test_pmap_caps_workers(monkeypatch, jobs, cpus, n_items, expected):
    _RecordingPool.sizes = []
    monkeypatch.setattr(cli, "ProcessPoolExecutor", _RecordingPool)
    monkeypatch.setattr(cli.os, "cpu_count", lambda: cpus)
    items = [(x,) for x in range(n_items)]
    assert cli._pmap(lambda x: x * x, items, jobs) == [x * x for x, in items]
    assert _RecordingPool.sizes == ([] if expected is None else [expected])


def test_solve_experiment_with_eigenvalue_multiple(tmp_path):
    cfg = parse_config(json.dumps({
        "experiment": "solve",
        "h": 2.0**-5,
        "s": 0.5,
        "sigma": {"kind": "eigenvalue-multiple", "factor": 1.2},
        "expect": "nontrivial",
    }))
    rows = run(cfg)
    assert len(rows) == 1
    assert rows[0].passed
    assert rows[0].values["classification"] == "nontrivial"


@pytest.mark.parametrize("sigma, profile", [
    ({"kind": "indicator", "ball": [-0.5, 0.5], "inside": 20.0,
      "outside": 0.0}, lambda x: 20.0 if -0.5 <= x <= 0.5 else 0.0),
    ({"kind": "cosine", "mean": 3.0, "amplitude": 1.0, "frequency": 2},
     lambda x: 3.0 + 1.0 * math.cos(2.0 * math.pi * 2.0 * x)),
], ids=["indicator", "cosine"])
def test_solve_resource_profile_is_the_one_problem_spec_samples(
        sigma, profile, monkeypatch):
    specs = []

    def recorded(spec):
        specs.append(spec)
        return solve_dirichlet(spec)
    monkeypatch.setattr(cli, "solve_dirichlet", recorded)
    (row,) = run(parse_config(json.dumps({
        "experiment": "solve", "h": 2.0**-4, "intervals": [[-1.0, 1.0]],
        "s": 0.5, "sigma": sigma,
    })))
    ref = problem_spec(build_grid([(-1.0, 1.0)], 2.0**-4), 0.5, profile, 1.0)
    (spec,) = specs
    assert np.array_equal(spec.sigma.values, ref.sigma.values)
    assert np.array_equal(spec.mu.values, ref.mu.values)
    assert np.ptp(ref.sigma.values) > 1.0
    rep = solve_dirichlet(ref)
    assert row.passed and row.values["classification"] == "nontrivial"
    assert (row.values["energy"], row.values["el_residual"],
            row.values["max_u"]) == (rep.energy, rep.el_residual, rep.u.max())


def test_abundance_solves_its_anchor_once(monkeypatch):
    # the doubling loop solves 5, 10 and 20, where the ratio passes 0.8;
    # the sweep 20, 40, 80 reuses the anchor's solve and makes two more
    reports = {}

    def recorded(spec):
        rep = solve_dirichlet(spec)
        reports.setdefault(float(spec.sigma.max()), []).append(rep)
        return rep
    monkeypatch.setattr(cli, "solve_dirichlet", recorded)
    rows = run(parse_config(json.dumps({"experiment": "abundance",
                                        "jobs": 1})))
    assert sorted(reports) == [5.0, 10.0, 20.0, 40.0, 80.0]
    assert all(len(reps) == 1 for reps in reports.values())
    assert [r.values["m_level"] for r in rows] == [20.0, 40.0, 80.0]
    for row in rows:
        (rep,) = reports[row.values["m_level"]]
        assert row.values["max_u"] == rep.u.max()
    assert rows[0].values["ratio"] >= 0.8
    assert all(r.passed for r in rows)


def test_periodic_experiment_rows(tmp_path):
    cfg = parse_config(json.dumps({
        "experiment": "periodic", "n": 32, "s": 0.5,
        "sigma": 2.0, "mu": 1.0, "tau": 0.5,
    }))
    rows = run(cfg)
    assert [r.values["case"] for r in rows] == ["constant", "oscillatory"]
    assert rows[0].values["max_deviation"] <= 1e-8
    assert all(r.passed for r in rows)


def test_congruence_experiment_row_shape():
    cfg = parse_config(json.dumps({"experiment": "congruence", "h": 2.0**-5}))
    rows = run(cfg)
    domains = [r.values["domain"] for r in rows]
    assert domains == ["gap-fractional", "habitat-1", "habitat-2", "union",
                       "gap-classical"]
    classes = {r.values["domain"]: r.values.get("classification")
               for r in rows}
    assert classes["habitat-1"] == "trivial"
    assert classes["habitat-2"] == "trivial"
    assert classes["union"] == "nontrivial"


def test_transmission_positivity_cells():
    cfg = parse_config(json.dumps({"experiment": "transmission", "h": 2.0**-5}))
    rows = {r.values["case"]: r.values for r in run(cfg)}
    assert rows.keys() == {"below", "above"}
    for case, positive in (("below", False), ("above", True)):
        assert rows[case]["positive_local"] is positive
        assert rows[case]["positive_nonlocal"] is positive
        assert rows[case]["mixed_pattern"] is False


# Fuzzing through main: each experiment starts from a small config (sizes
# cut so that one run stays well under a second at h >= 1/16) whose keys
# are left out, scaled, negated or replaced by arbitrary JSON.  Whatever
# the input, main must exit with a contract code and never raise.
_FUZZ_BASE = {
    "eigen": {"radii": [1.0, 2.0]},
    "solve": {"sigma": {"kind": "eigenvalue-multiple", "factor": 1.2}},
    "threshold-radius": {"s_values": [0.5]},
    "ext-crossing": {"r_max": 4.0, "r_count": 8},
    "periodic": {"n": 16},
    "strategic": {"r_schedule": [4.0, 6.0]},
}
# values for the keys whose default is None, which scaling cannot produce
_FUZZ_OPTIONAL = {
    "kernel": st.sampled_from([{"shape": "uniform", "rho": 0.25},
                               {"shape": "triangular", "rho": 0.5},
                               {"shape": "sampled", "samples": [1, 2, 1]}]),
    "sigma": st.sampled_from([
        {"kind": "eigenvalue-multiple", "factor": 0.8},
        {"kind": "constant", "value": 40.0},
        {"kind": "dip", "level": 30.0, "center": 0.5, "width": 0.25},
        {"kind": "cosine", "mean": 20.0, "amplitude": 15.0, "frequency": 2.0},
        {"kind": "indicator", "ball": [0.25, 0.75], "inside": 40.0,
         "outside": 0.0}]),
    "triviality_tol": st.sampled_from([1e-6, 1e-3]),
    "expect": st.sampled_from(["trivial", "nontrivial"]),
}
# out and jobs would write files or start worker processes; h is drawn
# from spacings coarse enough to keep every grid small
_FUZZ_FIXED = {"out", "jobs", "h"}


def _scaled(value, factor):
    """value with every number in it multiplied by factor."""
    if isinstance(value, list):
        return [_scaled(v, factor) for v in value]
    if isinstance(value, dict):
        return {k: _scaled(v, factor) for k, v in value.items()}
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return value
    return int(round(value * factor)) if isinstance(value, int) else value * factor


@st.composite
def _fuzzed_config(draw, experiment):
    """The base config with each key left out or scaled, and at most one
    key negated or replaced by arbitrary JSON."""
    table = {**cli._COMMON, **cli._EXPERIMENTS[experiment].keys}
    base = _FUZZ_BASE.get(experiment, {})
    keys = sorted(set(table) - _FUZZ_FIXED)
    config = {"experiment": experiment}
    if "h" in table:
        config["h"] = draw(st.sampled_from([0.25, 0.125, 0.0625]))
    for key in keys:
        default = base.get(key, table[key][1])
        if default is None and key in _FUZZ_OPTIONAL:
            if draw(st.booleans()):
                config[key] = draw(_FUZZ_OPTIONAL[key])
        elif key in base or draw(st.booleans()):
            factor = draw(st.sampled_from([0.5, 1.0, 1.0, 1.5, 2.0]))
            config[key] = _scaled(default, factor)
    if draw(st.integers(0, 2)) == 0:
        broken = draw(st.sampled_from(keys))
        config[broken] = draw(
            _JSON_VALUES | st.just(_scaled(config.get(broken, 1.0), -1.0)))
    return config


@pytest.mark.parametrize("experiment", cli.EXPERIMENTS)
@settings(derandomize=True, database=None, max_examples=10, deadline=None)
@given(data=st.data())
def test_main_exits_with_a_contract_code_on_fuzzed_configs(experiment, data):
    config = data.draw(_fuzzed_config(experiment))
    stderr = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "config.json"
        path.write_text(json.dumps(config))
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(stderr):
            code = main([experiment, "--config", str(path)])
    assert code in (0, 2, 3, 4, 64), (config, stderr.getvalue())
    assert "Traceback" not in stderr.getvalue()


@pytest.mark.parametrize("experiment", cli.EXPERIMENTS)
def test_rows_fill_only_their_columns(experiment):
    # a cell left out is written empty, so a misspelt key would drop out of
    # the CSV silently; experiment and pass come from csv_text alone
    entry = cli._EXPERIMENTS[experiment]
    config = {"experiment": experiment, **_FUZZ_BASE.get(experiment, {})}
    if "h" in entry.keys:
        config["h"] = 1.0 / 16.0
    cells = set(entry.columns) - {"experiment", "pass"}
    rows = run(parse_config(json.dumps(config)))
    assert rows
    for row in rows:
        assert row.experiment == experiment
        assert set(row.values) <= cells, set(row.values) - cells
