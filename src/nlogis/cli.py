"""Config-driven experiment harness with deterministic CSV output.

One subcommand per experiment; each takes a strict JSON config, runs the
corresponding library experiment, writes one CSV (LF line endings, floats
as %.12e, fixed column sets), prints a pass/fail summary keyed by the
claim the experiment checks, and exits 0 on all-pass, 2 on solver
non-convergence, 3 on any failed check, 4 on an output I/O failure, and
64 on a malformed config or usage error.

Coefficient values in configs are either numbers (constants) or objects:

    {"kind": "constant", "value": 2.0}
    {"kind": "indicator", "ball": [-0.5, 0.5], "inside": 20.0, "outside": 0.0}
    {"kind": "cosine", "mean": 2.0, "amplitude": 1.0, "frequency": 1}
    {"kind": "dip", "level": 30.0, "center": 0.7, "width": 0.2}
    {"kind": "eigenvalue-multiple", "factor": 1.2}

The last form resolves to factor times the first eigenvalue of the
configured operator, which is how threshold experiments place the resource
rate relative to the survival level.  Kernels are {"shape": ..., "rho": ...}
with optional "samples" for the sampled shape.
"""

from __future__ import annotations

import argparse
import csv
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
                  "lower_bound_margin", "support_ok", "pass"],
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
# config parsing
# ---------------------------------------------------------------------------

def _expect(cond: bool, message: str) -> None:
    if not cond:
        raise ConfigError(message)


def _check_number(cfg, key, default=None, positive=False, nonnegative=False):
    val = cfg.get(key, default)
    if val is None:
        return None
    _expect(isinstance(val, (int, float)) and not isinstance(val, bool),
            f"config.{key}: expected a number, got {val!r}")
    if positive:
        _expect(val > 0, f"config.{key}: must be positive, got {val}")
    if nonnegative:
        _expect(val >= 0, f"config.{key}: violates the constraint {key} >= 0")
    return float(val)


def _check_pair(cfg, key, default):
    raw = cfg.get(key, list(default))
    _expect(
        isinstance(raw, list) and len(raw) == 2
        and all(isinstance(v, (int, float)) for v in raw) and raw[0] < raw[1],
        f"config.{key}: expected a [left, right] pair",
    )
    return (float(raw[0]), float(raw[1]))


def _check_intervals(cfg, key="intervals", default=((0.0, 1.0),)):
    raw = cfg.get(key, [list(p) for p in default])
    _expect(isinstance(raw, list) and raw, f"config.{key}: expected a nonempty list")
    out = []
    for i, pair in enumerate(raw):
        _expect(
            isinstance(pair, list) and len(pair) == 2
            and all(isinstance(v, (int, float)) for v in pair),
            f"config.{key}[{i}]: expected a [left, right] pair",
        )
        _expect(pair[0] < pair[1],
                f"config.{key}[{i}]: left endpoint must be below right")
        out.append((float(pair[0]), float(pair[1])))
    return out


_COEFF_KINDS = {"constant", "indicator", "cosine", "dip", "eigenvalue-multiple"}


def _check_coefficient(cfg, key, default=None):
    val = cfg.get(key, default)
    _expect(val is not None, f"config.{key}: required")
    if isinstance(val, (int, float)) and not isinstance(val, bool):
        return {"kind": "constant", "value": float(val)}
    _expect(isinstance(val, dict), f"config.{key}: expected a number or object")
    kind = val.get("kind")
    _expect(kind in _COEFF_KINDS,
            f"config.{key}.kind: unknown coefficient kind {kind!r}")
    fields = {
        "constant": {"value"},
        "indicator": {"ball", "inside", "outside"},
        "cosine": {"mean", "amplitude", "frequency"},
        "dip": {"level", "center", "width"},
        "eigenvalue-multiple": {"factor"},
    }[kind]
    for k in val:
        _expect(k == "kind" or k in fields,
                f"config.{key}.{k}: unknown key for kind {kind!r}")
    for k in fields:
        _expect(k in val, f"config.{key}.{k}: required for kind {kind!r}")
    return val


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
    if lam is None:
        raise ConfigError(
            "config: eigenvalue-multiple coefficient needs an operator context"
        )
    return float(spec_dict["factor"]) * lam


def _check_kernel(cfg, key="kernel"):
    val = cfg.get(key)
    if val is None:
        return None
    _expect(isinstance(val, dict), f"config.{key}: expected an object")
    for k in val:
        _expect(k in {"shape", "rho", "samples"},
                f"config.{key}.{k}: unknown key")
    _expect(val.get("shape") in {"uniform", "triangular", "sampled"},
            f"config.{key}.shape: unknown kernel shape {val.get('shape')!r}")
    return val


_COMMON_KEYS = {"experiment", "h", "solver_tol", "triviality_tol", "out", "jobs"}

_SCHEMA = {
    "eigen": {"intervals", "s_values", "radii", "tolerance"},
    "solve": {"intervals", "s", "sigma", "mu", "tau", "kernel", "expect"},
    "threshold-radius": {"interval", "s_values", "tolerance"},
    "ext-crossing": {"interval", "s", "S", "r_min", "r_max", "r_count"},
    "congruence": {"length", "separation", "s", "classical_control"},
    "abundance": {"interval", "ball_resource", "ball_check", "s", "m_start",
                  "sweep_factors", "variation_tol"},
    "beat": {"interval", "s", "level", "dip_center", "dip_width", "m_values"},
    "periodic": {"n", "s", "sigma", "mu", "tau", "kernel", "image_cutoff",
                 "tolerance"},
    "transmission": {"interval_local", "interval_nonlocal", "s", "s1", "s2",
                     "nu1", "nu2", "margin"},
    "strategic": {"s", "eps", "r_schedule", "sigma", "mu", "tau", "kernel"},
}


def parse_config(text: str) -> ExperimentConfig:
    """Validate a JSON experiment config; unknown keys are rejected."""
    try:
        cfg = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config: invalid JSON ({exc})") from None
    _expect(isinstance(cfg, dict), "config: expected a JSON object")
    experiment = cfg.get("experiment")
    _expect(experiment in EXPERIMENTS,
            f"config.experiment: unknown experiment {experiment!r}")
    allowed = _COMMON_KEYS | _SCHEMA[experiment]
    for key in cfg:
        _expect(key in allowed, f"config.{key}: unknown key")
    # per-experiment spacing defaults keep the dense matrices at desk scale:
    # ext-crossing spans dilations up to r_max and strategic spans (-R, R)
    h_default = {"ext-crossing": 2.0**-6, "strategic": 1.0 / 16.0}.get(
        experiment, 2.0**-9
    )
    params = {
        "h": _check_number(cfg, "h", default=h_default, positive=True),
        "solver_tol": _check_number(cfg, "solver_tol", default=1e-10,
                                    positive=True),
        "triviality_tol": _check_number(cfg, "triviality_tol", default=None,
                                        positive=True),
    }
    out = cfg.get("out")
    _expect(out is None or isinstance(out, str), "config.out: expected a path")
    jobs = cfg.get("jobs", 1)
    _expect(isinstance(jobs, int) and jobs >= 1,
            "config.jobs: expected a positive integer")

    if experiment == "eigen":
        params["intervals"] = _check_intervals(cfg)
        svals = cfg.get("s_values", [0.25, 0.5, 0.75])
        _expect(isinstance(svals, list) and svals,
                "config.s_values: expected a nonempty list")
        for s in svals:
            _expect(isinstance(s, (int, float)) and 0 < s <= 1,
                    f"config.s_values: s={s} must lie in (0, 1]")
        params["s_values"] = [float(s) for s in svals]
        radii = cfg.get("radii", [1.0, 2.0, 3.0])
        _expect(isinstance(radii, list) and radii,
                "config.radii: expected a nonempty list")
        params["radii"] = [float(r) for r in radii]
        params["tolerance"] = _check_number(cfg, "tolerance", default=0.01,
                                            positive=True)
    elif experiment == "solve":
        params["intervals"] = _check_intervals(cfg)
        params["s"] = _check_number(cfg, "s", default=0.5, positive=True)
        _expect(params["s"] <= 1.0, "config.s: must lie in (0, 1]")
        params["sigma"] = _check_coefficient(cfg, "sigma")
        params["mu"] = _check_coefficient(cfg, "mu", default=1.0)
        params["tau"] = _check_number(cfg, "tau", default=0.0, nonnegative=True)
        params["kernel"] = _check_kernel(cfg)
        expect = cfg.get("expect")
        _expect(expect in (None, "trivial", "nontrivial"),
                "config.expect: must be 'trivial' or 'nontrivial'")
        params["expect"] = expect
    elif experiment == "threshold-radius":
        params["interval"] = _check_pair(cfg, "interval", (0.0, 1.0))
        svals = cfg.get("s_values", [0.5, 0.75])
        _expect(isinstance(svals, list) and svals,
                "config.s_values: expected a nonempty list")
        for s in svals:
            _expect(isinstance(s, (int, float)) and 0 < s < 1,
                    f"config.s_values: s={s} must lie in (0, 1)")
        params["s_values"] = [float(s) for s in svals]
        params["tolerance"] = _check_number(cfg, "tolerance", default=0.05,
                                            positive=True)
    elif experiment == "ext-crossing":
        params["interval"] = _check_pair(cfg, "interval", (0.0, 1.0))
        params["s"] = _check_number(cfg, "s", default=0.25, positive=True)
        params["S"] = _check_number(cfg, "S", default=1.0, positive=True)
        _expect(params["s"] < params["S"] <= 1.0,
                "config.s/S: must satisfy 0 < s < S <= 1")
        params["r_min"] = _check_number(cfg, "r_min", default=0.05, positive=True)
        params["r_max"] = _check_number(cfg, "r_max", default=20.0, positive=True)
        count = cfg.get("r_count", 25)
        _expect(isinstance(count, int) and count >= 4,
                "config.r_count: expected an integer >= 4")
        params["r_count"] = count
    elif experiment == "congruence":
        params["length"] = _check_number(cfg, "length", default=1.0, positive=True)
        params["separation"] = _check_number(cfg, "separation", default=1.0,
                                             positive=True)
        params["s"] = _check_number(cfg, "s", default=0.5, positive=True)
        _expect(params["s"] < 1.0, "config.s: must lie in (0, 1)")
        ctrl = cfg.get("classical_control", True)
        _expect(isinstance(ctrl, bool), "config.classical_control: expected a bool")
        params["classical_control"] = ctrl
    elif experiment == "abundance":
        params["interval"] = _check_pair(cfg, "interval", (-1.0, 1.0))
        params["ball_resource"] = _check_pair(cfg, "ball_resource", (-0.5, 0.5))
        params["ball_check"] = _check_pair(cfg, "ball_check", (-0.25, 0.25))
        params["s"] = _check_number(cfg, "s", default=0.5, positive=True)
        params["m_start"] = _check_number(cfg, "m_start", default=5.0,
                                          positive=True)
        factors = cfg.get("sweep_factors", [1.0, 2.0, 4.0])
        _expect(isinstance(factors, list) and len(factors) >= 2,
                "config.sweep_factors: expected a list of at least 2 factors")
        params["sweep_factors"] = [float(f) for f in factors]
        params["variation_tol"] = _check_number(cfg, "variation_tol",
                                                default=0.25, positive=True)
    elif experiment == "beat":
        params["interval"] = _check_pair(cfg, "interval", (-1.0, 1.0))
        params["s"] = _check_number(cfg, "s", default=0.5, positive=True)
        params["level"] = _check_number(cfg, "level", default=30.0, positive=True)
        params["dip_center"] = _check_number(cfg, "dip_center", default=0.7)
        params["dip_width"] = _check_number(cfg, "dip_width", default=0.2,
                                            positive=True)
        ms = cfg.get("m_values", [0.01, 0.05, 0.2, 0.5, 1.0])
        _expect(isinstance(ms, list) and ms,
                "config.m_values: expected a nonempty list")
        params["m_values"] = [float(m) for m in ms]
    elif experiment == "periodic":
        n = cfg.get("n", 128)
        _expect(isinstance(n, int) and n >= 4, "config.n: expected an integer >= 4")
        params["n"] = n
        params["s"] = _check_number(cfg, "s", default=0.5, positive=True)
        _expect(params["s"] < 1.0, "config.s: must lie in (0, 1)")
        params["sigma"] = _check_coefficient(cfg, "sigma", default=2.0)
        params["mu"] = _check_coefficient(cfg, "mu", default=1.0)
        for key in ("sigma", "mu"):
            _expect(params[key]["kind"] == "constant",
                    f"config.{key}: the periodic experiment checks the "
                    "constant-coefficient state; give a number")
        params["tau"] = _check_number(cfg, "tau", default=0.5, nonnegative=True)
        params["kernel"] = _check_kernel(cfg) or {"shape": "uniform", "rho": 0.25}
        cut = cfg.get("image_cutoff", 16)
        _expect(isinstance(cut, int) and cut >= 2,
                "config.image_cutoff: expected an integer >= 2")
        params["image_cutoff"] = cut
        params["tolerance"] = _check_number(cfg, "tolerance", default=1e-8,
                                            positive=True)
    elif experiment == "transmission":
        params["interval_local"] = _check_pair(cfg, "interval_local", (0.0, 1.0))
        params["interval_nonlocal"] = _check_pair(cfg, "interval_nonlocal",
                                                  (1.5, 2.5))
        for key, default in (("s", 0.5), ("s1", 0.4), ("s2", 0.6)):
            params[key] = _check_number(cfg, key, default=default, positive=True)
            _expect(params[key] < 1.0, f"config.{key}: must lie in (0, 1)")
        params["nu1"] = _check_number(cfg, "nu1", default=1.0, nonnegative=True)
        params["nu2"] = _check_number(cfg, "nu2", default=1.0, nonnegative=True)
        params["margin"] = _check_number(cfg, "margin", default=0.2, positive=True)
    elif experiment == "strategic":
        params["s"] = _check_number(cfg, "s", default=0.5, positive=True)
        _expect(params["s"] < 1.0, "config.s: must lie in (0, 1)")
        params["eps"] = _check_number(cfg, "eps", default=0.1, positive=True)
        schedule = cfg.get("r_schedule", [4.0, 6.0, 8.0])
        _expect(isinstance(schedule, list) and schedule,
                "config.r_schedule: expected a nonempty list")
        params["r_schedule"] = [float(r) for r in schedule]
        params["sigma"] = _check_coefficient(cfg, "sigma", default=1.0)
        params["mu"] = _check_coefficient(cfg, "mu", default=1.0)
        params["tau"] = _check_number(cfg, "tau", default=0.0, nonnegative=True)
        params["kernel"] = _check_kernel(cfg)

    return ExperimentConfig(experiment=experiment, params=params, out=out,
                            jobs=jobs)


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
        rep = minimize_transmission(make(sigma))
        mixed = rep.classification == "nontrivial" and not (
            rep.positive_on_local and rep.positive_on_nonlocal
        )
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
        "lower_bound_margin": res.lower_bound_margin, "support_ok": True,
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


def run(config: ExperimentConfig) -> list[ResultRow]:
    """Execute the configured experiment and return its result rows."""
    rows = _RUNNERS[config.experiment](config.params, config.jobs)
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

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nlogis",
        description="Nonlocal logistic steady-state experiments",
    )
    sub = parser.add_subparsers(dest="experiment", required=True)
    for name in EXPERIMENTS:
        cmd = sub.add_parser(name, help=f"run the {name} experiment")
        cmd.add_argument("--config", required=True,
                         help="path to the JSON experiment config")
        cmd.add_argument("--out", default=None,
                         help="CSV output path (overrides config)")
        cmd.add_argument("--h", type=float, default=None,
                         help="grid spacing override")
        cmd.add_argument("--s", type=float, default=None,
                         help="fractional exponent override")
        cmd.add_argument("--jobs", type=int, default=None,
                         help="worker pool size (default: NLOGIS_JOBS or 1)")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        with open(args.config, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return 64
    try:
        config = parse_config(text)
        if config.experiment != args.experiment:
            raise ConfigError(
                f"config.experiment: {config.experiment!r} does not match "
                f"the {args.experiment!r} subcommand"
            )
        if args.h is not None:
            config.params["h"] = args.h
        if args.s is not None and "s" in config.params:
            config.params["s"] = args.s
        if args.out is not None:
            config.out = args.out
        if args.jobs is not None:
            config.jobs = args.jobs
        elif os.environ.get("NLOGIS_JOBS"):
            config.jobs = max(1, int(os.environ["NLOGIS_JOBS"]))
    except (ConfigError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 64
    try:
        rows = run(config)
    except ConvergenceError as exc:
        print(f"error: solver did not converge: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: output failed: {exc}", file=sys.stderr)
        return 4
    print(report_summary(rows))
    failed = [r for r in rows if r.passed is False]
    if failed:
        print(f"{len(failed)} of {len(rows)} rows failed", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
