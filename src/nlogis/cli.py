"""Config-driven experiment harness with deterministic CSV output.

One subcommand per experiment; each takes a strict JSON config, runs the
corresponding library experiment, writes one CSV (LF line endings, floats
as %.12e, fixed column sets), prints a pass/fail summary keyed by the
claim the experiment checks, and exits 0 on all-pass, 2 on solver
non-convergence, 3 on any failed check, 4 on an output I/O failure, and
64 on a malformed command line or config or a value the library rejects
(a grid finer than grids.MAX_NODES nodes included).

_SCHEMA gives each experiment's keys as (validator, default) pairs.  The
--h, --s, --out and --jobs flags and NLOGIS_JOBS replace the config keys
h, s, out and jobs before validation, so they are checked the same way;
--s is an error for an experiment without a scalar s.  Coefficients are
numbers or objects of kind constant, indicator, cosine, dip or (solve's
sigma only) eigenvalue-multiple; README lists their fields.
"""

from __future__ import annotations

import argparse
import csv
import ctypes
import io
import json
import math
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import (
    ConvergenceError,
    beat_experiment,
    build_grid,
    build_kernel,
    build_periodic_grid,
    build_strategic,
    check_fitting_bounds,
    congruence_experiment,
    critical_radius,
    eigen_scaling,
    ext_crossing,
    first_eigenpair,
    lambda_star,
    minimize_transmission,
    mp_check,
    problem_spec,
    sample_function,
    solve_dirichlet,
    solve_periodic,
    transmission_spec,
)
from .operators import assemble
from .spectral import union_eigen_study

__all__ = ["ExperimentConfig", "ResultRow", "parse_config", "run",
           "report_summary", "write_csv", "csv_text", "main"]

EXPERIMENTS = (
    "eigen",
    "solve",
    "threshold-radius",
    "ext-crossing",
    "congruence",
    "abundance",
    "beat",
    "periodic",
    "transmission",
    "strategic",
)

# claim checked by each experiment; the generic solve checks the
# extinction/survival expectation, and every solving experiment also feeds
# the aggregated population-bound claim below
CLAIMS = {
    "eigen": "eigenvalue-scaling",
    "solve": "extinction-survival",
    "threshold-radius": "critical-radius",
    "ext-crossing": "exponent-crossing",
    "congruence": "congruent-domains",
    "abundance": "abundance-response",
    "beat": "resource-beating",
    "periodic": "periodic-constant",
    "transmission": "transmission-threshold",
    "strategic": "strategic-plan",
}
MAX_PRINCIPLE_CLAIM = "resource-max-principle"

# versioned column sets; golden-file tests pin these
COLUMNS = {
    "eigen": ["experiment", "s", "r", "lambda", "ratio", "target_ratio",
              "ratio_error", "pass"],
    "solve": ["experiment", "s", "sigma_max", "tau", "classification",
              "energy", "el_residual", "max_u", "min_u", "bound_easy",
              "max_principle_ok", "expected", "pass"],
    "threshold-radius": ["experiment", "s", "r_star", "predicted",
                         "rel_gap", "tolerance", "pass"],
    "ext-crossing": ["experiment", "phase", "r", "lambda_fast", "lambda_slow",
                     "sign", "exponent", "sigma", "tau", "classification",
                     "expected", "pass"],
    "congruence": ["experiment", "domain", "s", "lambda_or_gap", "sigma",
                   "classification", "expected", "positive_everywhere",
                   "pass"],
    "abundance": ["experiment", "m_level", "inf_ball", "ratio", "max_u",
                  "bound_easy", "max_principle_ok", "ratio_variation",
                  "pass"],
    "beat": ["experiment", "case", "m", "beat_count", "max_excess",
             "max_principle_ok", "expected_nonempty", "pass"],
    "periodic": ["experiment", "case", "n", "s", "tau", "max_deviation",
                 "mean_level", "balance_residual", "value_range", "pass"],
    "transmission": ["experiment", "case", "sigma", "lambda_star",
                     "classification", "expected", "positive_local",
                     "positive_nonlocal", "mixed_pattern", "pass"],
    "strategic": ["experiment", "s", "eps", "r_used", "approx_error",
                  "harmonic_residual", "el_residual", "sigma_gap",
                  "lower_bound_margin", "pass"],
}


class ConfigError(ValueError):
    """A config failed validation; the message names the offending key."""


@dataclass
class ExperimentConfig:
    experiment: str
    params: dict
    out: str | None = None
    jobs: int = 1


@dataclass
class ResultRow:
    experiment: str
    values: dict
    passed: bool | None = None


# ---------------------------------------------------------------------------
# config schema
# ---------------------------------------------------------------------------
#
# A validator takes where a value came from (for its messages) and the raw
# JSON value, and returns the normalized value or raises ConfigError.
# Numbers must be finite, and a bool is never a number.

def _expect(cond: bool, message: str) -> None:
    if not cond:
        raise ConfigError(message)


def _number(where, val):
    # the comparisons also reject nan, and ints too large for a float
    _expect(isinstance(val, (int, float)) and not isinstance(val, bool)
            and -sys.float_info.max <= val <= sys.float_info.max,
            f"{where}: expected a finite number, got {val!r}")
    return float(val)


def _bounded(test, rule):
    """A finite number passing test; in rule, {} stands for the key."""
    def check(where, val):
        val = _number(where, val)
        _expect(test(val), f"{where}: "
                f"{rule.format(where.removeprefix('config.'))}, got {val}")
        return val
    return check


_positive = _bounded(lambda v: v > 0, "must be positive")
_nonnegative = _bounded(lambda v: v >= 0, "violates the constraint {} >= 0")
_exponent = _bounded(lambda v: 0 < v <= 1, "must lie in (0, 1]")
_fraction = _bounded(lambda v: 0 < v < 1, "must lie in (0, 1)")


def _integer(least):
    def check(where, val):
        _expect(isinstance(val, int) and not isinstance(val, bool)
                and val >= least,
                f"{where}: expected an integer >= {least}, got {val!r}")
        return val
    return check


def _typed(cls, what):
    def check(where, val):
        _expect(isinstance(val, cls), f"{where}: expected {what}, got {val!r}")
        return val
    return check


def _one_of(*choices):
    def check(where, val):
        _expect(val in choices, f"{where}: expected one of "
                f"{', '.join(map(repr, choices))}, got {val!r}")
        return val
    return check


def _optional(check):
    return lambda where, val: None if val is None else check(where, val)


def _list_of(item, least=1):
    def check(where, val):
        _expect(isinstance(val, list) and len(val) >= least,
                f"{where}: expected a list of at least {least} item(s)")
        return [item(f"{where}[{i}]", v) for i, v in enumerate(val)]
    return check


def _pair(where, val):
    _expect(isinstance(val, list) and len(val) == 2,
            f"{where}: expected a [left, right] pair")
    left, right = (_number(f"{where}[{i}]", v) for i, v in enumerate(val))
    _expect(left < right, f"{where}: left endpoint must be below right")
    return (left, right)


_COEFF_FIELDS = {
    "constant": {"value": _number},
    "indicator": {"ball": _pair, "inside": _number, "outside": _number},
    "cosine": {"mean": _number, "amplitude": _number, "frequency": _number},
    "dip": {"level": _number, "center": _number, "width": _positive},
    "eigenvalue-multiple": {"factor": _number},
}
_PROFILES = ("constant", "indicator", "cosine", "dip")


def _coefficient(*kinds):
    """A number (a constant) or a {"kind": ...} object of one of kinds."""
    def check(where, val):
        if not isinstance(val, dict):
            return {"kind": "constant", "value": _number(where, val)}
        kind = val.get("kind")
        _expect(kind in kinds, f"{where}.kind: unknown coefficient kind "
                f"{kind!r} (this key takes {', '.join(kinds)})")
        fields = _COEFF_FIELDS[kind]
        for key in val:
            _expect(key == "kind" or key in fields,
                    f"{where}.{key}: unknown key for kind {kind!r}")
        for key, field in fields.items():
            _expect(key in val, f"{where}.{key}: required for kind {kind!r}")
            field(f"{where}.{key}", val[key])
        return val
    return check


_KERNEL_FIELDS = {"shape": _one_of("uniform", "triangular", "sampled"),
                  "rho": _positive, "samples": _list_of(_number)}


def _kernel_spec(where, val):
    _expect(isinstance(val, dict), f"{where}: expected an object, got {val!r}")
    _expect("shape" in val, f"{where}.shape: required")
    for key in val:
        _expect(key in _KERNEL_FIELDS, f"{where}.{key}: unknown key")
        _KERNEL_FIELDS[key](f"{where}.{key}", val[key])
    return dict(val)


# key -> (validator, default).  Defaults pass through their validator too,
# params keep the table's key order, and out and jobs are run settings that
# every experiment takes but that are not params.
_COMMON = {"h": (_positive, 2.0**-9), "solver_tol": (_positive, 1e-10),
           "triviality_tol": (_optional(_positive), None),
           "out": (_optional(_typed(str, "a path")), None),
           "jobs": (_integer(1), 1)}
_ANY = _coefficient(*_PROFILES)
_SCHEMA = {
    "eigen": {
        "intervals": (_list_of(_pair), [[0.0, 1.0]]),
        "s_values": (_list_of(_exponent), [0.25, 0.5, 0.75]),
        "radii": (_list_of(_positive), [1.0, 2.0, 3.0]),
        "tolerance": (_positive, 0.01)},
    "solve": {
        "intervals": (_list_of(_pair), [[0.0, 1.0]]), "s": (_exponent, 0.5),
        "sigma": (_coefficient(*_PROFILES, "eigenvalue-multiple"), None),
        "mu": (_ANY, 1.0), "tau": (_nonnegative, 0.0),
        "kernel": (_optional(_kernel_spec), None),
        "expect": (_optional(_one_of("trivial", "nontrivial")), None)},
    "threshold-radius": {
        "interval": (_pair, [0.0, 1.0]),
        "s_values": (_list_of(_fraction), [0.5, 0.75]),
        "tolerance": (_positive, 0.05)},
    # wider default spacings keep the dense matrices desk-scale: ext-crossing
    # spans dilations up to r_max and strategic spans (-R, R)
    "ext-crossing": {
        "h": (_positive, 2.0**-6), "interval": (_pair, [0.0, 1.0]),
        "s": (_exponent, 0.25), "S": (_exponent, 1.0),
        "r_min": (_positive, 0.05), "r_max": (_positive, 20.0),
        "r_count": (_integer(4), 25)},
    "congruence": {
        "length": (_positive, 1.0), "separation": (_positive, 1.0),
        "s": (_fraction, 0.5),
        "classical_control": (_typed(bool, "a bool"), True)},
    "abundance": {
        "interval": (_pair, [-1.0, 1.0]),
        "ball_resource": (_pair, [-0.5, 0.5]),
        "ball_check": (_pair, [-0.25, 0.25]),
        "s": (_exponent, 0.5), "m_start": (_positive, 5.0),
        "sweep_factors": (_list_of(_positive, least=2), [1.0, 2.0, 4.0]),
        "variation_tol": (_positive, 0.25)},
    "beat": {
        "interval": (_pair, [-1.0, 1.0]), "s": (_exponent, 0.5),
        "level": (_positive, 30.0),
        "dip_center": (_number, 0.7), "dip_width": (_positive, 0.2),
        "m_values": (_list_of(_number), [0.01, 0.05, 0.2, 0.5, 1.0])},
    "periodic": {
        "n": (_integer(4), 128), "s": (_fraction, 0.5),
        # the experiment checks the constant-coefficient state
        "sigma": (_coefficient("constant"), 2.0),
        "mu": (_coefficient("constant"), 1.0), "tau": (_nonnegative, 0.5),
        "kernel": (_kernel_spec, {"shape": "uniform", "rho": 0.25}),
        "image_cutoff": (_integer(2), 16), "tolerance": (_positive, 1e-8)},
    "transmission": {
        "interval_local": (_pair, [0.0, 1.0]),
        "interval_nonlocal": (_pair, [1.5, 2.5]),
        "s": (_fraction, 0.5), "s1": (_fraction, 0.4), "s2": (_fraction, 0.6),
        "nu1": (_nonnegative, 1.0), "nu2": (_nonnegative, 1.0),
        "margin": (_fraction, 0.2)},
    "strategic": {
        "h": (_positive, 1.0 / 16.0), "s": (_fraction, 0.5),
        "eps": (_positive, 0.1),
        "r_schedule": (_list_of(_positive), [4.0, 6.0, 8.0]),
        "sigma": (_ANY, 1.0), "mu": (_ANY, 1.0), "tau": (_nonnegative, 0.0),
        "kernel": (_optional(_kernel_spec), None)},
}


def _load(text: str) -> dict:
    try:
        cfg = json.loads(text)
    except ValueError as exc:  # also integers too long to convert
        raise ConfigError(f"config: invalid JSON ({exc})") from None
    _expect(isinstance(cfg, dict), "config: expected a JSON object")
    return cfg


def _validate(cfg: dict, names: dict[str, str]) -> ExperimentConfig:
    """Check a loaded config against its experiment's table; names says how
    messages cite a key whose value came from a flag or the environment."""
    experiment = cfg.get("experiment")
    _expect(experiment in EXPERIMENTS,
            f"config.experiment: unknown experiment {experiment!r}")
    table = {**_COMMON, **_SCHEMA[experiment]}
    for key in cfg:
        _expect(key == "experiment" or key in table,
                f"{names.get(key, 'config.' + key)}: unknown key for the "
                f"{experiment} experiment")
    params = {k: check(names.get(k, "config." + k), cfg.get(k, default))
              for k, (check, default) in table.items()}
    if experiment == "ext-crossing":
        _expect(params["s"] < params["S"],
                "config.s/S: must satisfy 0 < s < S <= 1")
    out, jobs = params.pop("out"), params.pop("jobs")
    return ExperimentConfig(experiment, params, out, jobs)


def parse_config(text: str) -> ExperimentConfig:
    """Validate a JSON experiment config; unknown keys are rejected."""
    return _validate(_load(text), {})


def _coefficient_fn(spec_dict, lam=None):
    kind = spec_dict["kind"]
    if kind == "constant":
        return float(spec_dict["value"])
    if kind == "indicator":
        lo, hi = spec_dict["ball"]
        inside, outside = float(spec_dict["inside"]), float(spec_dict["outside"])
        return lambda x: inside if lo <= x <= hi else outside
    if kind == "cosine":
        m, a, f = (float(spec_dict[k]) for k in ("mean", "amplitude", "frequency"))
        return lambda x: m + a * math.cos(2.0 * math.pi * f * x)
    if kind == "dip":
        lvl = float(spec_dict["level"])
        c, w = float(spec_dict["center"]), float(spec_dict["width"])
        return lambda x: (
            lvl if abs(x - c) >= w
            else lvl * 0.5 * (1.0 - math.cos(math.pi * (x - c) / w))
        )
    # eigenvalue-multiple, which the schema admits only where lam is known
    return float(spec_dict["factor"]) * lam


# ---------------------------------------------------------------------------
# experiment runners
# ---------------------------------------------------------------------------

def _pmap(fn, items, jobs):
    # the pool starts every worker up front, so never more than can run
    workers = min(jobs, os.cpu_count() or 1, len(items))
    if workers <= 1:
        return [fn(item) for item in items]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items))


def _kernel(p, h):
    k = p["kernel"]
    if k is None:
        return None
    return build_kernel(k["shape"], k.get("rho"), h, samples=k.get("samples"))


def _eigen_point(args):
    intervals, h, s, r = args
    study = eigen_scaling(intervals, r, s, h)
    return study.lambda_scaled, study.ratio, study.target


def _run_eigen(p, jobs):
    points = [(tuple(p["intervals"]), p["h"], s, r)
              for s in p["s_values"] for r in p["radii"]]
    results = _pmap(_eigen_point, points, jobs)
    rows = []
    for (_, _, s, r), (lam, ratio, target) in zip(points, results):
        err = abs(ratio / target - 1.0)
        rows.append(ResultRow("eigen", {
            "experiment": "eigen", "s": s, "r": r, "lambda": lam,
            "ratio": ratio, "target_ratio": target, "ratio_error": err,
        }, passed=bool(err <= p["tolerance"])))
    return rows


def _run_solve(p, jobs):
    grid = build_grid(p["intervals"], p["h"])
    kern = _kernel(p, p["h"])
    if p["sigma"]["kind"] == "eigenvalue-multiple":
        lam = first_eigenpair(assemble(grid, p["s"])).lambda_
        sigma = _coefficient_fn(p["sigma"], lam=lam)
    else:
        sigma = _coefficient_fn(p["sigma"])
    spec = problem_spec(grid, p["s"], sigma, _coefficient_fn(p["mu"]),
                        tau=p["tau"], kernel=kern,
                        solver_tol=p["solver_tol"],
                        triviality_tol=p["triviality_tol"])
    rep = solve_dirichlet(spec)
    diag = check_fitting_bounds(rep, spec)
    expected = p["expect"] or rep.classification
    ok = diag["ok_easy"] and rep.dichotomy_ok and rep.classification == expected
    return [ResultRow("solve", {
        "experiment": "solve", "s": p["s"], "sigma_max": spec.sigma.max(),
        "tau": p["tau"], "classification": rep.classification,
        "energy": rep.energy, "el_residual": rep.el_residual,
        "max_u": rep.u.max(), "min_u": rep.u.min(),
        "bound_easy": diag["bound_easy"],
        "max_principle_ok": diag["ok_easy"],
        "expected": expected,
    }, passed=bool(ok))]


def _threshold_point(args):
    interval, s, h, tol = args
    res = critical_radius(interval, s, h, solver_tol=tol)
    return res.r_star, res.predicted, res.rel_gap


def _run_threshold(p, jobs):
    points = [(tuple(p["interval"]), s, p["h"], p["solver_tol"])
              for s in p["s_values"]]
    results = _pmap(_threshold_point, points, jobs)
    rows = []
    for (_, s, _, _), (r_star, predicted, gap) in zip(points, results):
        rows.append(ResultRow("threshold-radius", {
            "experiment": "threshold-radius", "s": s, "r_star": r_star,
            "predicted": predicted, "rel_gap": gap,
            "tolerance": p["tolerance"],
        }, passed=bool(gap <= p["tolerance"])))
    return rows


def _run_ext(p, jobs):
    rs = np.geomspace(p["r_min"], p["r_max"], p["r_count"])
    res = ext_crossing(p["interval"], p["s"], p["S"], rs, p["h"],
                       solver_tol=p["solver_tol"])
    rows = []
    one_change = res.n_sign_changes == 1
    for r, ls, lb in zip(res.r_values, res.lambda_small_s, res.lambda_big_s):
        rows.append(ResultRow("ext-crossing", {
            "experiment": "ext-crossing", "phase": "curve", "r": r,
            "lambda_fast": ls, "lambda_slow": lb,
            "sign": int(np.sign(lb - ls)), "exponent": "", "sigma": "",
            "tau": "", "classification": "", "expected": "",
        }, passed=one_change))
    for regime in ("small", "large"):
        info = res.classifications[regime]
        for which, exponent in (("fast", p["s"]), ("slow", p["S"])):
            rows.append(ResultRow("ext-crossing", {
                "experiment": "ext-crossing", "phase": f"solve-{regime}",
                "r": info["r"], "lambda_fast": "", "lambda_slow": "",
                "sign": "", "exponent": exponent, "sigma": info["sigma"],
                "tau": info["tau"], "classification": info[which],
                "expected": info[f"expected_{which}"],
            }, passed=bool(info[which] == info[f"expected_{which}"])))
    return rows


def _run_congruence(p, jobs):
    sep = p["separation"]
    length = p["length"]
    int1 = (0.0, length)
    int2 = (length + sep, 2.0 * length + sep)
    res = congruence_experiment(int1, int2, p["s"], p["h"],
                                solver_tol=p["solver_tol"])
    rows = []
    if not res.admissible:
        rows.append(ResultRow("congruence", {
            "experiment": "congruence", "domain": "window", "s": p["s"],
            "lambda_or_gap": res.gap, "sigma": "", "classification": "",
            "expected": "", "positive_everywhere": "",
        }, passed=False))
        return rows
    rows.append(ResultRow("congruence", {
        "experiment": "congruence", "domain": "gap-fractional", "s": p["s"],
        "lambda_or_gap": res.gap, "sigma": res.sigma, "classification": "",
        "expected": "", "positive_everywhere": "",
    }, passed=bool(res.gap > 0.0)))
    for name, rep, expected in (("habitat-1", res.report_1, "trivial"),
                                ("habitat-2", res.report_2, "trivial"),
                                ("union", res.report_union, "nontrivial")):
        rows.append(ResultRow("congruence", {
            "experiment": "congruence", "domain": name, "s": p["s"],
            "lambda_or_gap": res.lambda_union if name == "union"
            else res.lambda_single,
            "sigma": res.sigma, "classification": rep.classification,
            "expected": expected,
            "positive_everywhere": res.union_positive_everywhere
            if name == "union" else "",
        }, passed=bool(rep.classification == expected
                       and (name != "union" or res.union_positive_everywhere))))
    if p["classical_control"]:
        classical = union_eigen_study(int1, int2, 1.0, p["h"])
        rel = abs(classical.gap) / classical.lambda_single
        rows.append(ResultRow("congruence", {
            "experiment": "congruence", "domain": "gap-classical", "s": 1.0,
            "lambda_or_gap": classical.gap, "sigma": "", "classification": "",
            "expected": "", "positive_everywhere": "",
        }, passed=bool(rel <= 1e-8)))
    return rows


def _abundance_point(args):
    interval, ball_r, ball_c, s, h, m, tol = args
    grid = build_grid([interval], h)
    lo, hi = ball_r
    sig = sample_function(grid, lambda x: m if lo <= x <= hi else 0.0)
    spec = problem_spec(grid, s, sig, 1.0, solver_tol=tol)
    rep = solve_dirichlet(spec)
    return check_fitting_bounds(rep, spec, ball=ball_c, m_level=m)


def _run_abundance(p, jobs):
    # double the resource level until the response in the check ball is a
    # solid fraction of it; that level anchors the linearity sweep
    m0 = p["m_start"]
    base = (tuple(p["interval"]), tuple(p["ball_resource"]),
            tuple(p["ball_check"]), p["s"], p["h"])
    for _ in range(12):
        diag = _abundance_point(base + (m0, p["solver_tol"]))
        if diag["ratio"] >= 0.8:
            break
        m0 *= 2.0
    levels = [f * m0 for f in p["sweep_factors"]]
    diags = _pmap(_abundance_point,
                  [base + (m, p["solver_tol"]) for m in levels], jobs)
    ratios = [d["ratio"] for d in diags]
    variation = (max(ratios) - min(ratios)) / max(ratios) if max(ratios) else 1.0
    ok_var = variation <= p["variation_tol"] and min(ratios) > 0.1
    rows = []
    for m, d in zip(levels, diags):
        rows.append(ResultRow("abundance", {
            "experiment": "abundance", "m_level": m, "inf_ball": d["inf_ball"],
            "ratio": d["ratio"], "max_u": d["max_u"],
            "bound_easy": d["bound_easy"], "max_principle_ok": d["ok_easy"],
            "ratio_variation": variation,
        }, passed=bool(ok_var and d["ok_easy"])))
    return rows


def _run_beat(p, jobs):
    grid = build_grid([p["interval"]], p["h"])
    level = p["level"]
    dipped = _coefficient_fn({"kind": "dip", "level": level,
                              "center": p["dip_center"],
                              "width": p["dip_width"]})
    rows = []
    for case, profile, expect_nonempty in (
        ("dipped", dipped, True),
        ("constant-control", lambda x: level, False),
    ):
        sig0 = sample_function(grid, profile)
        scan = beat_experiment(sig0, p["s"], p["m_values"],
                               solver_tol=p["solver_tol"])
        found = scan.first_m is not None
        for m, count, excess, bound_ok in zip(
            scan.m_values, scan.beat_counts, scan.max_excess,
            scan.max_principle_ok,
        ):
            rows.append(ResultRow("beat", {
                "experiment": "beat", "case": case, "m": m,
                "beat_count": int(count), "max_excess": excess,
                "max_principle_ok": bool(bound_ok),
                "expected_nonempty": expect_nonempty,
            }, passed=bool(found == expect_nonempty)))
    return rows


def _run_periodic(p, jobs):
    pgrid = build_periodic_grid(p["n"], image_cutoff=p["image_cutoff"])
    kern = _kernel(p, pgrid.h)
    rows = []
    # constant-coefficient run: the solution must sit at (sigma + tau) / mu
    sigma_const = p["sigma"]["value"]
    mu_const = p["mu"]["value"]
    spec = problem_spec(pgrid, p["s"], sigma_const, mu_const, tau=p["tau"],
                        kernel=kern, solver_tol=p["solver_tol"])
    rep = solve_periodic(spec)
    target = (sigma_const + p["tau"]) / mu_const
    dev = float(np.max(np.abs(rep.u.values - target)))
    mean = float(pgrid.h * np.sum(rep.u.values))
    v = rep.u.values - mean
    balance = abs(mu_const * pgrid.h * np.sum(v**2)
                  - mean * (sigma_const + p["tau"] - mu_const * mean))
    rows.append(ResultRow("periodic", {
        "experiment": "periodic", "case": "constant", "n": p["n"],
        "s": p["s"], "tau": p["tau"], "max_deviation": dev,
        "mean_level": mean, "balance_residual": balance,
        "value_range": float(np.ptp(rep.u.values)),
    }, passed=bool(dev <= p["tolerance"] and balance <= 100 * p["tolerance"])))
    # oscillatory-resource run: the solution must respond nonuniformly
    spec2 = problem_spec(pgrid, p["s"],
                         lambda x: sigma_const + math.cos(2 * math.pi * x),
                         mu_const, tau=0.0, solver_tol=p["solver_tol"])
    rep2 = solve_periodic(spec2)
    rng = float(np.ptp(rep2.u.values))
    rows.append(ResultRow("periodic", {
        "experiment": "periodic", "case": "oscillatory", "n": p["n"],
        "s": p["s"], "tau": 0.0,
        "max_deviation": "", "mean_level": float(pgrid.h * np.sum(rep2.u.values)),
        "balance_residual": "", "value_range": rng,
    }, passed=bool(rep2.classification == "nontrivial" and rng > 0.05)))
    return rows


def _run_transmission(p, jobs):
    def make(sigma):
        return transmission_spec(
            p["interval_local"], p["interval_nonlocal"], p["h"],
            s=p["s"], s1=p["s1"], s2=p["s2"], nu1=p["nu1"], nu2=p["nu2"],
            sigma=sigma, mu=1.0, solver_tol=p["solver_tol"],
        )

    lam = lambda_star(make(0.0)).lambda_
    rows = []
    for case, sigma, expected in (
        ("below", (1.0 - p["margin"]) * lam, "trivial"),
        ("above", (1.0 + p["margin"]) * lam, "nontrivial"),
    ):
        ts = make(sigma)
        rep = minimize_transmission(ts)
        mixed = mp_check(rep.u, ts) == "violation"
        ok = rep.classification == expected and not mixed
        rows.append(ResultRow("transmission", {
            "experiment": "transmission", "case": case, "sigma": sigma,
            "lambda_star": lam, "classification": rep.classification,
            "expected": expected, "positive_local": rep.positive_on_local,
            "positive_nonlocal": rep.positive_on_nonlocal,
            "mixed_pattern": mixed,
        }, passed=bool(ok)))
    return rows


def _run_strategic(p, jobs):
    kern = _kernel(p, p["h"])
    sig_fn = _coefficient_fn(p["sigma"])
    mu_fn = _coefficient_fn(p["mu"])

    def as_array(f):
        if isinstance(f, float):
            return lambda x: np.full_like(np.asarray(x, dtype=float), f)
        return lambda x: np.asarray([f(v) for v in np.atleast_1d(x)])

    res = build_strategic(as_array(sig_fn), as_array(mu_fn), p["tau"], kern,
                          p["s"], p["eps"], p["h"],
                          r_schedule=p["r_schedule"],
                          solver_tol=p["solver_tol"])
    scale = max(1.0, float(np.max(np.abs(res.u.values)))) ** 2
    ok = (res.el_residual <= 100 * p["solver_tol"] * scale
          and res.sigma_gap <= p["eps"]
          and res.lower_bound_margin >= -p["solver_tol"]
          and res.achieved)
    return [ResultRow("strategic", {
        "experiment": "strategic", "s": p["s"], "eps": p["eps"],
        "r_used": res.r_used, "approx_error": res.approx_error,
        "harmonic_residual": res.harmonic_residual,
        "el_residual": res.el_residual, "sigma_gap": res.sigma_gap,
        "lower_bound_margin": res.lower_bound_margin,
    }, passed=bool(ok))]


_RUNNERS = {
    "eigen": _run_eigen,
    "solve": _run_solve,
    "threshold-radius": _run_threshold,
    "ext-crossing": _run_ext,
    "congruence": _run_congruence,
    "abundance": _run_abundance,
    "beat": _run_beat,
    "periodic": _run_periodic,
    "transmission": _run_transmission,
    "strategic": _run_strategic,
}


class _MallInfo2(ctypes.Structure):  # glibc's; fordblks is the free heap
    _fields_ = [(name, ctypes.c_size_t) for name in "arena ordblks smblks "
                "hblks hblkhd usmblks fsmblks uordblks fordblks keepcost".split()]


_LIBC = ctypes.CDLL(None) if sys.platform.startswith("linux") else None
if hasattr(_LIBC, "mallinfo2"):  # glibc >= 2.33
    _LIBC.mallinfo2.restype = _MallInfo2


def run(config: ExperimentConfig) -> list[ResultRow]:
    """Execute the configured experiment and return its result rows."""
    rows = _RUNNERS[config.experiment](config.params, config.jobs)
    # glibc keeps freed heap, up to twice the largest matrix under 32 MiB,
    # and later peaks would include it: free heap past 16 MiB is returned
    if hasattr(_LIBC, "mallinfo2") and _LIBC.mallinfo2().fordblks > 2**24:
        _LIBC.malloc_trim(ctypes.c_size_t(0))
    if config.out is not None:
        write_csv(rows, config.experiment, config.out)
    return rows


# ---------------------------------------------------------------------------
# output
# ---------------------------------------------------------------------------

def _format_cell(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (float, np.floating)):
        return "%.12e" % value
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return str(value)


def csv_text(rows: list[ResultRow], experiment: str) -> str:
    columns = COLUMNS[experiment]
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    for row in rows:
        record = dict(row.values)
        record["pass"] = row.passed
        writer.writerow([_format_cell(record.get(c, "")) for c in columns])
    return buf.getvalue()


def write_csv(rows: list[ResultRow], experiment: str, path: str) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(csv_text(rows, experiment))


def report_summary(rows: list[ResultRow]) -> str:
    """Pass/fail table keyed by the claim each experiment checks."""
    if not rows:
        raise ValueError("no result rows to summarize")
    verdicts: dict[str, bool] = {}
    for row in rows:
        claim = CLAIMS[row.experiment]
        if row.passed is not None:
            verdicts[claim] = verdicts.get(claim, True) and row.passed
        bound_ok = row.values.get("max_principle_ok")
        if bound_ok != "" and bound_ok is not None:
            verdicts[MAX_PRINCIPLE_CLAIM] = (
                verdicts.get(MAX_PRINCIPLE_CLAIM, True) and bool(bound_ok)
            )
    lines = []
    for claim in sorted(verdicts):
        lines.append(f"{'PASS' if verdicts[claim] else 'FAIL'}  {claim}")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    """Ends a malformed command line with exit 64, not argparse's 2, which
    this CLI reserves for solver non-convergence."""

    def error(self, message):
        print(f"error: {message}", file=sys.stderr)
        self.print_usage(sys.stderr)
        self.exit(64)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="nlogis",
        description="Nonlocal logistic steady-state experiments",
    )
    sub = parser.add_subparsers(dest="experiment", required=True)
    for name in EXPERIMENTS:
        cmd = sub.add_parser(name, help=f"run the {name} experiment")
        cmd.add_argument("--config", required=True,
                         help="path to the JSON experiment config")
        cmd.add_argument("--out", help="CSV output path (overrides config)")
        cmd.add_argument("--h", type=float, help="grid spacing override")
        cmd.add_argument("--s", type=float,
                         help="fractional exponent override (scalar s only)")
        cmd.add_argument("--jobs", type=int,
                         help="worker pool size (default: NLOGIS_JOBS or 1)")
    return parser


def _overrides(args) -> dict[str, tuple[str, object]]:
    """Config keys the command line or the environment replaces, each with
    the name its messages cite; the merged config is validated as a whole."""
    found = {key: (f"--{key}", getattr(args, key))
             for key in ("h", "s", "out", "jobs")}
    env = os.environ.get("NLOGIS_JOBS")
    if args.jobs is None and env:
        # a value int() cannot read is left for the jobs validator to reject
        found["jobs"] = ("NLOGIS_JOBS",
                         int(env) if env.strip().isdecimal() else env)
    return {key: item for key, item in found.items() if item[1] is not None}


def main(argv: list[str] | None = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:  # --help (0) or a usage error (64)
        return exc.code
    try:
        with open(args.config, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return 64
    try:
        cfg = _load(text)
        _expect(cfg.get("experiment") == args.experiment,
                f"config.experiment: {cfg.get('experiment')!r} does not match "
                f"the {args.experiment!r} subcommand")
        overrides = _overrides(args)
        cfg.update({key: value for key, (_, value) in overrides.items()})
        rows = run(_validate(cfg, {key: name for key, (name, _) in
                                   overrides.items()}))
    except ConvergenceError as exc:
        print(f"error: solver did not converge: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: output failed: {exc}", file=sys.stderr)
        return 4
    except ValueError as exc:  # a ConfigError, or a value the library rejects
        print(f"error: {exc}", file=sys.stderr)
        return 64
    print(report_summary(rows))
    failed = [r for r in rows if r.passed is False]
    if failed:
        print(f"{len(failed)} of {len(rows)} rows failed", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
