"""Postconditions every benchmark op must meet, checked from the CLI's rows.

An op passes when this returns no problems.  The checks are stricter than
the CLI's own pass column in one place on purpose: the Euler-Lagrange
residual is held to the contract the README states (solver_tol times
max(1, (max sigma + tau)^2)), not to the 10x slack the descent core
accepts internally.
"""

from __future__ import annotations

import math

# Kulczycki, Kwasnicki, Malecki and Stos (2010): lambda_1 = 1.1577738836977
# for s = 1/2 on (-1, 1); this code normalizes the kernel by 2s(1-s), so the
# same eigenvalue reads pi/2 times larger.
LAMBDA_REF = 1.1577738836977 * math.pi / 2.0
LAMBDA_REF_RTOL = 2e-3


def residual_bound(solver_tol: float, sigma_max: float, tau: float) -> float:
    """The README's residual contract for a Dirichlet solve."""
    return solver_tol * max(1.0, (sigma_max + tau) ** 2)


def verify(experiment: str, params: dict, expect: dict,
           rows: list) -> list[str]:
    """Problems found in one op's result rows; empty means verified.

    params are the parsed config parameters (defaults filled in), expect
    holds what the generator knew in advance, rows are cli.ResultRow.
    """
    if not rows:
        return ["no result rows"]
    problems = [f"row {i}: CLI check failed" for i, r in enumerate(rows)
                if r.passed is not True]
    for i, row in enumerate(rows):
        for key, val in row.values.items():
            if isinstance(val, float) and not math.isfinite(val):
                problems.append(f"row {i}: {key} is not finite")
    check = _CHECKS.get(experiment)
    if check is not None:
        problems += check(params, expect, rows)
    return problems


def _check_solve(params, expect, rows):
    out = []
    v = rows[0].values
    if v["min_u"] < 0.0:
        out.append(f"min_u = {v['min_u']:.3e} < 0")
    bound = residual_bound(params["solver_tol"], v["sigma_max"], v["tau"])
    if v["el_residual"] > bound:
        out.append(f"el_residual {v['el_residual']:.3e} exceeds {bound:.3e}")
    predicted = expect.get("classification")
    if predicted is not None and v["classification"] != predicted:
        out.append(f"classified {v['classification']}, sigma vs lambda_1 "
                   f"predicts {predicted}")
    return out


def _check_threshold(params, expect, rows):
    return [f"rel_gap {r.values['rel_gap']:.3e} exceeds {params['tolerance']}"
            for r in rows if not r.values["rel_gap"] <= params["tolerance"]]


def _check_eigen(params, expect, rows):
    out = [f"ratio_error {r.values['ratio_error']:.3e} exceeds "
           f"{params['tolerance']}"
           for r in rows if not r.values["ratio_error"] <= params["tolerance"]]
    if expect.get("lambda_ref"):
        lam = rows[0].values["lambda"]
        if abs(lam / LAMBDA_REF - 1.0) > LAMBDA_REF_RTOL:
            out.append(f"reference lambda {lam:.6f} is not within "
                       f"{LAMBDA_REF_RTOL} of {LAMBDA_REF:.6f}")
    return out


def _check_periodic(params, expect, rows):
    dev = rows[0].values["max_deviation"]
    if not dev <= params["tolerance"]:
        return [f"constant state deviates by {dev:.3e}"]
    return []


_CHECKS = {
    "solve": _check_solve,
    "threshold-radius": _check_threshold,
    "eigen": _check_eigen,
    "periodic": _check_periodic,
}
