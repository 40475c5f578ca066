"""Acceptance suite: every headline claim at its stated tolerance.

Each criterion is one test that prints a PASS/FAIL line (visible with
pytest -s or in the captured output); the population-bound criterion
aggregates over every converged nontrivial solve the suite performs and
runs last.
"""

import numpy as np
import pytest

from nlogis import (
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
from nlogis.logistic import _EnergyModel, _problem
from nlogis.operators import assemble, assemble_dirichlet, assemble_transmission

BOUND_CHECKS: list[tuple[str, bool]] = []
HISTORIES: list[list[float]] = []


def _report(name: str, ok: bool, detail: str = "") -> None:
    print(f"{'PASS' if ok else 'FAIL'}  {name}  {detail}")


def _track(context: str, spec, rep) -> None:
    HISTORIES.append(rep.history)
    if rep.classification == "nontrivial":
        diag = check_fitting_bounds(rep, spec)
        BOUND_CHECKS.append((context, diag["ok_easy"]))


def test_criterion_01_scaling_law():
    h = 2.0**-9
    worst = 0.0
    for s in (0.25, 0.5, 0.75):
        for study in eigen_scaling([(0.0, 1.0)], [2.0, 3.0], s, h):
            err = abs(study.ratio / study.target - 1.0)
            worst = max(worst, err)
    ok = worst <= 0.01
    _report("scaling-law", ok, f"worst relative error {worst:.2e} (tol 1e-2)")
    assert ok


def test_criterion_02_threshold_sharpness():
    h = 2.0**-9
    worst = 0.0
    for s in (0.5, 0.75):
        res = critical_radius((0.0, 1.0), s, h)
        worst = max(worst, res.rel_gap)
    ok = worst <= 0.05
    _report("threshold-sharpness", ok, f"worst radius gap {worst:.2e} (tol 5e-2)")
    assert ok


def test_criterion_03_extinction_survival_matrix():
    h = 2.0**-7
    grid = build_grid([(0.0, 1.0)], h)
    results = []
    for s in (0.25, 0.5, 0.75):
        lam = first_eigenpair(assemble(grid, s)).lambda_
        for side, expected in ((-0.2, "trivial"), (0.2, "nontrivial")):
            spec = problem_spec(grid, s, (1.0 + side) * lam, 1.0)
            rep = solve_dirichlet(spec)
            _track(f"cop s={s} side={side}", spec, rep)
            good = rep.classification == expected
            if expected == "nontrivial":
                good = good and rep.u.values.min() > 0.0
            results.append(good)
    ok = all(results)
    _report("extinction-survival", ok,
            f"{sum(results)}/6 matrix cases matched")
    assert ok


def test_criterion_04_congruent_domains():
    h = 2.0**-7
    res = congruence_experiment((0.0, 1.0), (2.0, 3.0), 0.5, h)
    frac_ok = (res.admissible and res.gap > 0.0
               and res.report_1.classification == "trivial"
               and res.report_2.classification == "trivial"
               and res.report_union.classification == "nontrivial"
               and res.union_positive_everywhere)
    classical = congruence_experiment((0.0, 1.0), (2.0, 3.0), 1.0, h)
    classical_ok = (not classical.admissible
                    and abs(classical.gap) <= 1e-8 * classical.lambda_single)
    ok = frac_ok and classical_ok
    _report("congruent-domains", ok,
            f"fractional gap {res.gap:.3e}, classical gap {classical.gap:.1e}")
    assert ok


def test_criterion_06_periodic_constant_solution():
    pg = build_periodic_grid(128)
    kernel = build_kernel("uniform", 0.25, pg.h)
    spec = problem_spec(pg, 0.5, 2.0, 1.0, tau=0.5, kernel=kernel)
    rep = solve_periodic(spec)
    HISTORIES.append(rep.history)
    dev = float(np.max(np.abs(rep.u.values - 2.5)))
    ok = dev <= 1e-8
    _report("periodic-constant", ok, f"max deviation {dev:.2e} (tol 1e-8)")
    assert ok


def test_criterion_07_exponent_crossing():
    h = 2.0**-6
    rs = np.geomspace(0.05, 20.0, 25)
    res = ext_crossing((0.0, 1.0), 0.25, 1.0, rs, h)
    ok = res.n_sign_changes == 1 and res.pattern_ok
    _report("exponent-crossing", ok,
            f"{res.n_sign_changes} sign change(s), "
            f"classification pattern {'matched' if res.pattern_ok else 'broken'}")
    assert ok


def test_criterion_08_abundance_linearity():
    h = 2.0**-7
    grid = build_grid([(-1.0, 1.0)], h)
    s = 0.5

    def response(m):
        sig = sample_function(grid, lambda x: m if abs(x) <= 0.5 else 0.0)
        spec = problem_spec(grid, s, sig, 1.0)
        rep = solve_dirichlet(spec)
        _track(f"abundance m={m}", spec, rep)
        return check_fitting_bounds(rep, spec, ball=(-0.25, 0.25), m_level=m)

    m0 = 5.0
    for _ in range(12):
        if response(m0)["ratio"] >= 0.8:
            break
        m0 *= 2.0
    ratios = [response(f * m0)["ratio"] for f in (1.0, 2.0, 4.0)]
    variation = (max(ratios) - min(ratios)) / max(ratios)
    ok = variation <= 0.25 and min(ratios) > 0.1
    _report("abundance-linearity", ok,
            f"m0={m0}, ratios {[round(r, 3) for r in ratios]}, "
            f"variation {variation:.1%} (tol 25%)")
    assert ok


def test_criterion_09_resource_beating():
    h = 2.0**-7
    grid = build_grid([(-1.0, 1.0)], h)
    level, center, width = 30.0, 0.7, 0.2

    def dipped(x):
        if abs(x - center) >= width:
            return level
        return level * 0.5 * (1.0 - np.cos(np.pi * (x - center) / width))

    scan = beat_experiment(sample_function(grid, dipped), 0.5,
                           [0.01, 0.05, 0.2, 0.5])
    control = beat_experiment(sample_function(grid, level), 0.5,
                              [0.01, 0.2])
    ok = scan.first_m is not None and control.first_m is None
    _report("resource-beating", ok,
            f"dipped first m={scan.first_m}, constant control "
            f"{'clean' if control.first_m is None else 'overshoots'}")
    assert ok


def test_criterion_10_strategic_construction():
    h = 1.0 / 16.0
    sigma = lambda x: 1.0 + np.asarray(x, dtype=float) ** 2 / 8.0
    mu = lambda x: np.ones_like(np.asarray(x, dtype=float))
    res = build_strategic(sigma, mu, 0.0, None, 0.5, 0.1, h,
                          r_schedule=[4.0, 6.0, 8.0])
    scale = max(1.0, float(np.max(np.abs(res.u.values)))) ** 2
    el_ok = res.el_residual <= 1e-10 * scale * 100
    ok = (res.achieved and res.sigma_gap <= 0.1
          and el_ok and res.lower_bound_margin >= -1e-10)
    _report("strategic-construction", ok,
            f"R={res.r_used}, resource gap {res.sigma_gap:.2e}, "
            f"equation residual {res.el_residual:.2e}, "
            f"lower-bound margin {res.lower_bound_margin:.2e}")
    assert ok


def test_criterion_11_transmission_thresholds():
    h = 2.0**-6

    def make(sigma):
        return transmission_spec((0.0, 1.0), (1.5, 2.5), h, s=0.5, s1=0.4,
                                 s2=0.6, nu1=1.0, nu2=1.0, sigma=sigma, mu=1.0)

    lam = lambda_star(make(0.0)).lambda_
    below = minimize_transmission(make(0.8 * lam))
    spec = make(1.2 * lam)
    above = minimize_transmission(spec)
    HISTORIES.extend([below.history, above.history])
    # positive on both components
    positive = bool(np.all(above.u.values > spec.triviality_tol))
    mixed = above.classification == "nontrivial" and not positive
    ok = (below.classification == "trivial"
          and above.classification == "nontrivial"
          and positive and not mixed)
    _report("transmission-thresholds", ok,
            f"lambda*={lam:.4f}: below -> {below.classification}, "
            f"above -> {above.classification}, positivity on both "
            f"{'holds' if not mixed else 'violated'}")
    assert ok


def test_criterion_12_numerical_hygiene():
    rng = np.random.default_rng(2024)
    h = 2.0**-4
    checks = []

    def fd_check(model, u, h_grid):
        g = model.gradient(u)
        g_fd = np.zeros_like(u)
        step = 1e-6
        for i in range(u.size):
            up, um = u.copy(), u.copy()
            up[i] += step
            um[i] -= step
            g_fd[i] = (model.energy(up) - model.energy(um)) / (2 * step) / h_grid
        return np.max(np.abs(g - g_fd)) <= 1e-6 * max(1.0, np.max(np.abs(g)))

    # bounded-habitat energy with resource reach
    grid = build_grid([(0.0, 1.0)], h)
    kernel = build_kernel("triangular", 0.25, h)
    spec = problem_spec(grid, 0.5, 2.0, 1.0, tau=0.4, kernel=kernel)
    _, model = _problem(spec)
    checks.append(fd_check(model, rng.uniform(0.5, 1.5, grid.n), h))

    # periodic energy
    pg = build_periodic_grid(16)
    kp = build_kernel("uniform", 0.25, pg.h)
    pspec = problem_spec(pg, 0.5, 2.0, 1.0, tau=0.3, kernel=kp)
    _, pmodel = _problem(pspec)
    checks.append(fd_check(pmodel, rng.uniform(0.5, 1.5, pg.n), pg.h))

    # transmission energy
    ts = transmission_spec((0.0, 1.0), (1.5, 2.5), h, s=0.5, s1=0.4, s2=0.6,
                           nu1=1.0, nu2=1.0, sigma=2.0, mu=1.0)
    tmodel = _EnergyModel(assemble_transmission(ts).a, ts.grid.h, ts.mu.values,
                          -ts.sigma.values)
    checks.append(fd_check(tmodel, rng.uniform(0.5, 1.5, ts.grid.n), h))

    # forced energy of the strategic correction
    op = assemble_dirichlet(grid, 0.5)
    n = grid.n
    gmodel = _EnergyModel(a_eff=op.a, h=h, mu=np.ones(n), lin=np.ones(n),
                          src=rng.uniform(0.0, 1.0, n))
    checks.append(fd_check(gmodel, rng.uniform(0.5, 1.5, n), h))

    gradients_ok = all(checks)

    # sign-mixed fields never gain energy from taking the absolute value
    abs_ok = True
    for _ in range(100):
        u = rng.standard_normal(grid.n)
        e_signed = model.energy(u)
        if model.energy(np.abs(u)) > e_signed + 1e-12 * max(1.0, abs(e_signed)):
            abs_ok = False
            break

    histories_ok = all(
        all(b <= a + 1e-15 for a, b in zip(hist, hist[1:])) for hist in HISTORIES
    )
    ok = gradients_ok and abs_ok and histories_ok
    _report("numerical-hygiene", ok,
            f"gradient checks {sum(checks)}/4, absolute-value descent "
            f"{'holds' if abs_ok else 'violated'}, {len(HISTORIES)} histories "
            f"{'monotone' if histories_ok else 'non-monotone'}")
    assert ok


def test_criterion_05_population_bound_suite_wide():
    # runs last: every converged nontrivial solve recorded above must respect
    # max u <= max sigma + tau with the stated margin
    assert BOUND_CHECKS, "no nontrivial runs were recorded by the suite"
    bad = [ctx for ctx, ok in BOUND_CHECKS if not ok]
    ok = not bad
    _report("population-bound", ok,
            f"{len(BOUND_CHECKS)} nontrivial runs, {len(bad)} violations")
    assert ok
