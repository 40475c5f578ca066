import tracemalloc

import numpy as np
import pytest
from scipy.linalg.lapack import dpotrf

import oracles
from nlogis import (
    ConvergenceError,
    Field,
    assemble_classical,
    assemble_dirichlet,
    beat_experiment,
    build_grid,
    build_kernel,
    build_periodic_grid,
    check_fitting_bounds,
    congruence_experiment,
    critical_radius,
    energy,
    energy_gradient,
    ext_crossing,
    first_eigenpair,
    minimize,
    minimize_transmission,
    problem_spec,
    sample_function,
    solve_dirichlet,
    solve_periodic,
    transmission_spec,
)
from nlogis import grids, logistic, operators, spectral, transmission
from nlogis.logistic import (
    _EnergyModel,
    _minimize_model,
    _problem,
    _residual_scale,
    _zero_is_minimizer,
)
from nlogis.operators import assemble, assemble_transmission


def fd_gradient(fn, u, step=1e-6):
    g = np.zeros_like(u)
    for i in range(u.size):
        up = u.copy()
        um = u.copy()
        up[i] += step
        um[i] -= step
        g[i] = (fn(up) - fn(um)) / (2.0 * step)
    return g


@pytest.fixture(scope="module")
def unit_problem():
    grid = build_grid([(0.0, 1.0)], 2.0**-6)
    op = assemble_dirichlet(grid, 0.5)
    lam = first_eigenpair(op).lambda_
    return grid, op, lam


def test_energy_of_zero_is_zero(unit_problem):
    grid, _, _ = unit_problem
    spec = problem_spec(grid, 0.5, 1.0, 1.0)
    assert energy(sample_function(grid, 0.0), spec) == 0.0


def test_energy_never_increases_under_absolute_value(unit_problem):
    grid, _, _ = unit_problem
    k = build_kernel("uniform", 0.25, grid.h)
    spec = problem_spec(grid, 0.5, 2.0, 1.0, tau=0.4, kernel=k)
    rng = np.random.default_rng(23)
    for _ in range(100):
        u = rng.standard_normal(grid.n)
        e_signed = energy(Field(grid=grid, values=u), spec)
        e_abs = energy(Field(grid=grid, values=np.abs(u)), spec)
        assert e_abs <= e_signed + 1e-12 * max(1.0, abs(e_signed))


def test_descent_continues_from_the_absolute_value():
    # from sin(pi x), odd on (-1, 1), the first descent converges to an odd
    # critical point; only the descent from its absolute value reaches the
    # positive steady state
    grid = build_grid([(-1.0, 1.0)], 2.0**-5)
    lam = first_eigenpair(assemble(grid, 0.5)).lambda_
    spec = problem_spec(grid, 0.5, 4.0 * lam, 1.0)
    rep = minimize(spec, sample_function(grid, lambda x: np.sin(np.pi * x)))
    assert rep.classification == "nontrivial"
    assert np.all(rep.u.values > 0.0)
    assert rep.el_residual <= spec.solver_tol * _residual_scale(spec)


def test_small_eigenvector_slip_has_negative_energy(unit_problem):
    grid, op, lam = unit_problem
    spec = problem_spec(grid, 0.5, lam + 1.0, 1.0)
    e = first_eigenpair(op).vector
    for eps in (1e-2, 1e-3):
        slip = Field(grid=grid, values=eps * e.values)
        assert energy(slip, spec) < 0.0


def test_gradient_zero_at_origin(unit_problem):
    grid, _, _ = unit_problem
    spec = problem_spec(grid, 0.5, 1.0, 1.0)
    g = energy_gradient(sample_function(grid, 0.0), spec)
    assert np.all(g.values == 0.0)


@pytest.mark.parametrize("tau", [0.0, 0.5])
def test_gradient_matches_finite_differences(tau):
    grid = build_grid([(0.0, 1.0)], 2.0**-4)
    kernel = build_kernel("triangular", 0.25, grid.h) if tau else None
    spec = problem_spec(grid, 0.5, 2.0, 1.0, tau=tau, kernel=kernel)
    _, model = _problem(spec)
    rng = np.random.default_rng(31)
    for _ in range(20):
        u = rng.uniform(0.5, 1.5, grid.n)  # away from the |u| kink
        g = model.gradient(u)
        g_fd = fd_gradient(model.energy, u) / grid.h
        assert np.max(np.abs(g - g_fd)) <= 1e-6 * max(1.0, np.max(np.abs(g)))


def test_gradient_vanishes_at_periodic_constant():
    pg = build_periodic_grid(32)
    k = build_kernel("uniform", 0.25, pg.h)
    spec = problem_spec(pg, 0.5, 2.0, 1.0, tau=0.5, kernel=k)
    level = (2.0 + 0.5) / 1.0
    g = energy_gradient(sample_function(pg, level), spec)
    assert np.max(np.abs(g.values)) <= 1e-10


def test_minimize_trivial_without_resources(unit_problem):
    grid, _, _ = unit_problem
    spec = problem_spec(grid, 0.5, 0.0, 1.0)
    rep = minimize(spec, sample_function(grid, 0.01))
    assert rep.classification == "trivial"
    assert rep.energy == 0.0
    assert rep.el_residual == 0.0


def test_minimize_dichotomy_around_eigenvalue(unit_problem):
    grid, op, lam = unit_problem
    below = solve_dirichlet(problem_spec(grid, 0.5, lam - 0.1, 1.0))
    assert below.classification == "trivial"
    above = solve_dirichlet(problem_spec(grid, 0.5, lam + 0.5, 1.0))
    assert above.classification == "nontrivial"
    assert above.u.values.min() > 0.0
    assert above.energy < 0.0
    # residual tolerance scales with the natural size of the equation
    assert above.el_residual <= 1e-10 * max(1.0, (lam + 0.5) ** 2)


def test_histories_non_increasing(unit_problem):
    grid, op, lam = unit_problem
    for sigma in (lam - 0.2, lam + 0.7):
        rep = solve_dirichlet(problem_spec(grid, 0.5, sigma, 1.0))
        hist = np.array(rep.history)
        assert np.all(np.diff(hist) <= 0.0)


def _dipped(x, level=30.0, c=0.7, w=0.2):
    """A resource at level with a cosine dip to zero at c, of half-width w."""
    if abs(x - c) >= w:
        return level
    return level * 0.5 * (1.0 - np.cos(np.pi * (x - c) / w))


def _dirichlet_report(case):
    grid = build_grid([(-1.0, 1.0)], 2.0**-6)
    lam = first_eigenpair(assemble_dirichlet(grid, 0.5)).lambda_
    if case == "dipped":
        spec = problem_spec(grid, 0.5, sample_function(grid, _dipped).values + 0.01,
                            1.0)
    elif case == "reach":
        spec = problem_spec(grid, 0.5, lam + 1.0, 1.0, tau=0.5,
                            kernel=build_kernel("uniform", 0.25, grid.h))
    else:
        spec = problem_spec(grid, 0.5, {"below": 0.5, "above": 2.0}[case] * lam,
                            1.0)
    rep = solve_dirichlet(spec)
    return rep.u.values, rep.history, rep.el_residual, \
        spec.solver_tol * _residual_scale(spec)


def _periodic_report(case):
    pg = build_periodic_grid(64)
    sigma = 2.0 if case == "constant" else (lambda x: 2.0 + np.cos(2.0 * np.pi * x))
    spec = problem_spec(pg, 0.5, sigma, 1.0)
    rep = solve_periodic(spec)
    return rep.u.values, rep.history, rep.el_residual, \
        spec.solver_tol * _residual_scale(spec)


def _transmission_report(case):
    ts = transmission_spec((0.0, 1.0), (1.5, 2.5), 2.0**-5, s=0.5, s1=0.4,
                           s2=0.6, nu1=1.0, nu2=1.0, mu=1.0,
                           sigma={"below": 0.5, "above": 8.0}[case])
    rep = minimize_transmission(ts)
    return rep.u.values, rep.history, rep.el_residual, \
        ts.solver_tol * _residual_scale(ts)


@pytest.mark.parametrize("solver, case", [
    (_dirichlet_report, "below"), (_dirichlet_report, "above"),
    (_dirichlet_report, "reach"), (_dirichlet_report, "dipped"),
    (_periodic_report, "constant"), (_periodic_report, "oscillatory"),
    (_transmission_report, "below"), (_transmission_report, "above"),
])
def test_reports_meet_postconditions(solver, case):
    u, history, residual, tol = solver(case)
    assert np.min(u) >= 0.0
    assert residual <= tol
    assert np.all(np.diff(history) <= 0.0)


def test_large_dilation_classical_solve_converges_in_few_steps():
    # ext_crossing's large-dilation classical species (S = 1, L = 20,
    # h = 2^-6, n = 1279): its residual used to sit just above the
    # tolerance while line searches accepted roundoff ties for all 800
    # iterations; a full Newton step reaches the tolerance at once
    h = 2.0**-6
    grid = build_grid([(0.0, 20.0)], h)
    lam_fast = first_eigenpair(assemble_dirichlet(grid, 0.25)).lambda_
    lam_slow = first_eigenpair(assemble_classical(grid)).lambda_
    gap = lam_fast - lam_slow
    spec = problem_spec(grid, 1.0, lam_slow + gap / 3.0, 1.0, tau=gap / 3.0,
                        kernel=build_kernel("uniform", 2.5, h))
    rep = solve_dirichlet(spec)
    assert rep.classification == "nontrivial"
    assert rep.iterations <= 10
    assert rep.el_residual <= spec.solver_tol * _residual_scale(spec)


def test_stiff_classical_solve_reaches_tolerance():
    # s = 1 at h = 2^-8: the energy (-0.109) is summed from terms
    # h a_ii u_i^2 totalling 1.1e5, so it is computed to about 1e-11, not
    # to 1e-12 relative; the Newton step that halves the residual must
    # still be accepted although its computed energy rises by 1.3e-11
    grid = build_grid([(-1.0, 1.0)], 2.0**-8)
    spec = problem_spec(grid, 1.0, 3.0, 1.0, tau=0.25,
                        kernel=build_kernel("uniform", 0.25, grid.h))
    rep = solve_dirichlet(spec)
    assert rep.classification == "nontrivial"
    assert rep.iterations <= 10
    assert rep.el_residual <= spec.solver_tol * _residual_scale(spec)


def test_descent_does_not_depend_on_the_energy_scale_h():
    # h only scales the energy, so the descent must take the same steps at
    # every h; a sufficient-decrease test on the 1/h-scaled gradient
    # without a factor h rejected every step t <= 1 at h = 1e-4 and left
    # this 50-node model at residual 0.39 after 34 steps
    n = 50
    a = 2.0 * np.eye(n) - np.eye(n, k=1) - np.eye(n, k=-1)
    runs = []
    for h in (1e-2, 1e-4):
        model = _EnergyModel(a_eff=a, h=h, mu=np.ones(n), lin=np.full(n, -1.0))
        _, history, iters, _, ok = _minimize_model(
            model, np.full(n, 0.1), 1e-10, 200)
        assert ok
        runs.append((iters, history[-1] / h))
    assert runs[0][0] == runs[1][0] <= 10
    assert runs[1][1] == pytest.approx(runs[0][1], rel=1e-12)


def test_mixed_sign_init_agrees(unit_problem):
    grid, op, lam = unit_problem
    spec = problem_spec(grid, 0.5, lam + 0.5, 1.0)
    rng = np.random.default_rng(41)
    mixed = Field(grid=grid, values=0.3 * rng.standard_normal(grid.n))
    rep_mixed = minimize(spec, mixed)
    rep = solve_dirichlet(spec)
    assert rep_mixed.classification == rep.classification
    assert np.all(rep_mixed.u.values >= 0.0)


def test_solve_respects_population_bound(unit_problem):
    grid, op, lam = unit_problem
    k = build_kernel("uniform", 0.25, grid.h)
    spec = problem_spec(grid, 0.5, 3.0 + lam, 1.0, tau=0.5, kernel=k)
    rep = solve_dirichlet(spec)
    assert rep.classification == "nontrivial"
    diag = check_fitting_bounds(rep, spec)
    assert diag["ok_easy"]
    assert rep.u.max() <= spec.sigma.max() + spec.tau + 1e-8


def test_population_never_exceeds_constant_resource():
    grid = build_grid([(-1.0, 1.0)], 2.0**-6)
    spec = problem_spec(grid, 0.5, 3.0, 1.0)
    rep = solve_dirichlet(spec)
    assert rep.classification == "nontrivial"
    assert rep.u.max() <= 3.0 + 1e-8


def test_taus_below_threshold_trivial(unit_problem):
    grid, op, lam = unit_problem
    k = build_kernel("uniform", 0.25, grid.h)
    spec = problem_spec(grid, 0.5, 0.6 * lam, 1.0, tau=0.3 * lam, kernel=k)
    assert solve_dirichlet(spec).classification == "trivial"


def test_dichotomy_flag_everywhere(unit_problem):
    grid, op, lam = unit_problem
    for sigma in (0.5 * lam, 1.5 * lam, 3.0 * lam):
        rep = solve_dirichlet(problem_spec(grid, 0.5, sigma, 1.0))
        assert rep.dichotomy_ok
    # the transmission solve reports the same flag across both habitats
    lam_t = first_eigenpair(assemble_transmission(_tspec(1.0))).lambda_
    reports = [minimize_transmission(_tspec(f * lam_t)) for f in (0.8, 1.2)]
    assert [rep.classification for rep in reports] == ["trivial", "nontrivial"]
    for rep in reports:
        assert rep.dichotomy_ok


def test_report_flags_a_mixed_field():
    # zero at one node and positive elsewhere breaks the dichotomy, on a
    # bounded habitat and across both habitats of a transmission problem
    for spec in (problem_spec(build_grid([(0.0, 1.0)], 2.0**-5), 0.5, 2.0, 1.0),
                 _tspec(2.0)):
        n = spec.grid.n
        model = _EnergyModel(np.eye(n), spec.grid.h, spec.mu.values,
                             -spec.sigma.values)
        for u, ok in ((np.ones(n), True), (np.zeros(n), True),
                      (np.where(np.arange(n) == 0, 0.0, 1.0), False)):
            rep = logistic._report(spec, model, u, [0.0], 0, 0.0)
            assert rep.dichotomy_ok is ok
            assert rep.u.grid is spec.grid


def test_report_rejects_a_negative_iterate():
    spec = problem_spec(build_grid([(0.0, 1.0)], 2.0**-5), 0.5, 2.0, 1.0)
    n = spec.grid.n
    model = _EnergyModel(np.eye(n), spec.grid.h, spec.mu.values,
                         -spec.sigma.values)
    u = np.where(np.arange(n) == 3, -0.25, 1.0)
    with pytest.raises(ConvergenceError, match="min -2.500e-01 < 0"):
        logistic._report(spec, model, u, [0.0], 0, 0.0)


def test_nonconvergence_raises():
    grid = build_grid([(0.0, 1.0)], 2.0**-5)
    spec = problem_spec(grid, 0.5, 10.0, 1.0)
    with pytest.raises(ConvergenceError) as err:
        minimize(spec, sample_function(grid, 5.0), max_iter=2)
    assert err.value.report is not None
    assert err.value.report.converged is False


def test_periodic_constant_solution():
    pg = build_periodic_grid(128)
    k = build_kernel("uniform", 0.25, pg.h)
    spec = problem_spec(pg, 0.5, 2.0, 1.0, tau=0.5, kernel=k)
    rep = solve_periodic(spec)
    assert np.max(np.abs(rep.u.values - 2.5)) <= 1e-8


@pytest.mark.parametrize("n", [32, 1024])
def test_periodic_without_resources_trivial(n, monkeypatch):
    pg = build_periodic_grid(n)
    spec = problem_spec(pg, 0.5, 0.0, 1.0)
    factorizations = _counting(monkeypatch, "dpotrf")
    rep = solve_periodic(spec)
    assert rep.classification == "trivial"
    # E >= 0 = E(0) on the positive semidefinite periodic operator, so zero
    # is returned with no certificate and no descent
    assert np.array_equal(rep.u.values, np.zeros(pg.n))
    assert rep.history == [0.0, 0.0] and rep.iterations == 0
    assert len(factorizations) == 0


def test_periodic_oscillatory_resource():
    pg = build_periodic_grid(64)
    spec = problem_spec(pg, 0.5, lambda x: 2.0 + np.cos(2.0 * np.pi * x), 1.0)
    rep = solve_periodic(spec)
    assert rep.classification == "nontrivial"
    assert np.ptp(rep.u.values) > 0.05  # genuinely nonconstant
    assert rep.u.values.min() > 0.0
    # cell-mean balance of the constant-coefficient control run
    spec_c = problem_spec(pg, 0.5, 2.0, 1.0)
    rep_c = solve_periodic(spec_c)
    m = pg.h * np.sum(rep_c.u.values)
    v = rep_c.u.values - m
    assert abs(pg.h * np.sum(v**2) - m * (2.0 - m)) <= 1e-8


def test_fitting_bounds_trivial_report(unit_problem):
    grid, op, lam = unit_problem
    spec = problem_spec(grid, 0.5, 0.5 * lam, 1.0)
    rep = solve_dirichlet(spec)
    diag = check_fitting_bounds(rep, spec, ball=(0.25, 0.75), m_level=1.0)
    assert diag["max_u"] == 0.0 and diag["inf_ball"] == 0.0
    assert diag["ok_easy"]


def test_fitting_bounds_ball_outside_domain(unit_problem):
    grid, op, lam = unit_problem
    rep = solve_dirichlet(problem_spec(grid, 0.5, lam + 0.5, 1.0))
    with pytest.raises(ValueError, match="not contained"):
        check_fitting_bounds(rep, problem_spec(grid, 0.5, lam + 0.5, 1.0),
                             ball=(0.5, 1.5))
    # a ball inside the domain but between two neighbouring nodes
    lo, hi = grid.nodes[0] + 0.25 * grid.h, grid.nodes[0] + 0.75 * grid.h
    with pytest.raises(ValueError, match="holds no grid node"):
        check_fitting_bounds(rep, problem_spec(grid, 0.5, lam + 0.5, 1.0),
                             ball=(lo, hi))


def test_abundance_linear_response():
    grid = build_grid([(-1.0, 1.0)], 2.0**-6)
    ratios = []
    for m in (20.0, 40.0, 80.0):
        sig = sample_function(grid, lambda x: m if abs(x) <= 0.5 else 0.0)
        spec = problem_spec(grid, 0.5, sig, 1.0)
        rep = solve_dirichlet(spec)
        diag = check_fitting_bounds(rep, spec, ball=(-0.25, 0.25), m_level=m)
        assert diag["ok_easy"]
        ratios.append(diag["ratio"])
    assert min(ratios) > 0.5
    assert (max(ratios) - min(ratios)) / max(ratios) <= 0.25


def test_beat_found_for_dipped_resource_only():
    grid = build_grid([(-1.0, 1.0)], 2.0**-6)
    level = 30.0
    scan = beat_experiment(sample_function(grid, _dipped), 0.5,
                           [0.01, 0.1, 0.5])
    assert scan.first_m == 0.01
    assert np.all(scan.beat_counts > 0)
    assert scan.max_principle_ok.dtype == bool
    assert np.all(scan.max_principle_ok)
    control = beat_experiment(sample_function(grid, level), 0.5, [0.01, 0.5])
    assert control.first_m is None
    assert np.all(control.beat_counts == 0)
    assert np.all(control.max_principle_ok)


def test_beat_requires_nontrivial():
    grid = build_grid([(-1.0, 1.0)], 2.0**-4)
    tiny = sample_function(grid, 0.01)  # resources below the survival level
    with pytest.raises(ValueError, match="nontrivial"):
        beat_experiment(tiny, 0.5, [0.0])


def test_critical_radius_against_prediction():
    res = critical_radius((0.0, 1.0), 0.5, 2.0**-7)
    assert res.rel_gap <= 0.05


@pytest.mark.parametrize("interval, s, h", [
    ((0.0, 1.0), 0.3, 2.0**-7),
    ((0.0, 1.0), 0.5, 2.0**-7),
    ((0.0, 1.0), 0.75, 2.0**-7),
    ((0.0, 1.0), 1.0, 2.0**-7),
    ((0.5, 1.5), 0.5, 2.0**-6),
    ((0.0, 1.0), 0.2, 2.0**-6),
    ((0.0, 1.0), 0.9, 2.0**-6),
    ((-1.0, 1.0), 0.4, 2.0**-6),
    ((0.25, 1.0), 0.6, 2.0**-6),
])
def test_critical_radius_equals_the_full_solve_bisection(interval, s, h):
    assert critical_radius(interval, s, h) == \
        oracles.ref_critical_radius(interval, s, h)


def _eigenvalue_grids(monkeypatch, factor=1.0):
    """The grid of every logistic._first_eigenvalue call; an eigenvalue on
    any grid but the first is scaled by factor, or raises for None."""
    first_eigenvalue = logistic._first_eigenvalue
    grids_seen = []

    def recorded(grid, s):
        grids_seen.append(grid)
        lam = first_eigenvalue(grid, s)
        if grid == grids_seen[0]:
            return lam
        if factor is None:
            raise ConvergenceError("no eigenpair at the predicted cell")
        return factor * lam
    monkeypatch.setattr(logistic, "_first_eigenvalue", recorded)
    return grids_seen


def test_critical_radius_certifies_only_at_the_threshold(monkeypatch):
    # the eigenvalue of the base habitat and the eigenvalue of the
    # predicted cell (the scaling law's guess), both on their even halves
    # with no eigenpair of an n x n matrix; one certificate at r* and one
    # at the cell below, and no steady state solved for
    eigenpairs = _counting(monkeypatch, "first_eigenpair")
    eigenvalues = _eigenvalue_grids(monkeypatch)
    solves = _counting(monkeypatch, "solve_dirichlet")
    steady_states = _counting(monkeypatch, "_steady_state")
    certificates = _counting(monkeypatch, "_zero_is_minimizer")
    critical_radius((0.0, 1.0), 0.5, 2.0**-7)
    base = build_grid([(0.0, 1.0)], 2.0**-7)
    guesses = [grid for grid in eigenvalues if grid != base]
    assert (len(eigenpairs), len(eigenvalues) - len(guesses), len(guesses),
            len(solves), len(certificates)) == (0, 1, 1, 0, 2)
    assert steady_states == []


@pytest.mark.parametrize("factor, direction", [
    (0.9, "up"), (0.97, "up"), (1.03, "down"), (1.1, "down"), (None, "up"),
])
def test_critical_radius_walks_to_the_threshold_when_the_guess_misses(
        factor, direction, monkeypatch):
    # the predicted cell's eigenvalue (the guess) scaled by factor, or
    # raising for None, which leaves the predicted cell as the guess: a
    # guess below r* walks up to it through extinct cells, one above it
    # walks down through surviving ones.  The base eigenvalue, on the base
    # grid, is not skewed: only the guess is.
    expected = oracles.ref_critical_radius((0.0, 1.0), 0.5, 2.0**-6)
    eigenvalues = _eigenvalue_grids(monkeypatch, factor)
    survives = logistic._survives
    outcomes = []

    def recorded(spec):
        outcomes.append(survives(spec))
        return outcomes[-1]
    monkeypatch.setattr(logistic, "_survives", recorded)
    assert critical_radius((0.0, 1.0), 0.5, 2.0**-6) == expected
    assert eigenvalues[0] == build_grid([(0.0, 1.0)], 2.0**-6)
    assert len(eigenvalues) == 2 and eigenvalues[1] != eigenvalues[0]
    assert len(outcomes) > 2
    if direction == "up":
        assert outcomes.count(True) == 1
    else:
        assert outcomes[0] and outcomes.count(False) == 1


def test_critical_radius_never_builds_an_upper_end_it_does_not_reach(
        monkeypatch):
    # the bracket's upper end (734 cells) is past the cap, the threshold
    # (464 cells) is not
    monkeypatch.setattr(grids, "MAX_NODES", 600)
    with pytest.raises(ValueError, match="MAX_NODES"):
        oracles.ref_critical_radius((0.0, 1.0), 0.5, 2.0**-7)
    assert critical_radius((0.0, 1.0), 0.5, 2.0**-7).r_star == 464 * 2.0**-7


@pytest.mark.parametrize("classification", ["trivial", "nontrivial"])
def test_critical_radius_rejects_a_bracket_without_a_switch(classification,
                                                           monkeypatch):
    # survival everywhere walks down to the lower end; survival nowhere
    # walks up past the upper end
    monkeypatch.setattr(logistic, "_survives",
                        lambda spec: classification == "nontrivial")
    with pytest.raises(ValueError, match="does not straddle the threshold"):
        critical_radius((0.0, 1.0), 0.5, 2.0**-5)


@pytest.mark.parametrize("tau", [0.0, 0.5])
@pytest.mark.parametrize("s", [0.3, 0.75, 1.0])
@pytest.mark.parametrize("intervals", [[(0.0, 1.0)], [(0.0, 1.0), (2.0, 3.0)]],
                         ids=["interval", "union"])
def test_survival_certificate_agrees_with_the_solve(intervals, s, tau):
    """_survives reads as the solve's classification at sigma = f lambda_1
    on both sides of the threshold, lambda_1 the first eigenvalue of
    A - tau B (tau a multiple of A's, under the uniform kernel).

    The two can differ only where zero is unstable but the surviving
    state's sup norm is below triviality_tol, which the solve reports as
    trivial; no case here comes near that band.
    """
    grid = build_grid(intervals, 2.0**-5)
    lam_a = first_eigenpair(assemble(grid, s)).lambda_
    reach = (dict(tau=tau * lam_a, kernel=build_kernel("uniform", 0.25, grid.h))
             if tau else {})
    a_eff = _problem(problem_spec(grid, s, 0.0, 1.0, **reach))[1].a_eff
    lam = np.linalg.eigvalsh(a_eff)[0]
    for f in (0.9, 0.99, 1.01, 1.1):
        spec = problem_spec(grid, s, f * lam, 1.0, **reach)
        solved = solve_dirichlet(spec).classification == "nontrivial"
        assert logistic._survives(spec) == solved == (f > 1.0), f
        # the solver's model (the direct half on one interval) reads as the
        # full Hessian's Cholesky
        _, info = dpotrf(_problem(spec)[1].hessian(np.zeros(grid.n)).T,
                         lower=True)
        assert logistic._survives(spec) == (info != 0), f


@pytest.mark.parametrize("tau", [0.0, 0.5])
@pytest.mark.parametrize("s", [0.3, 1.0])
@pytest.mark.parametrize("n", [7, 8])
def test_half_model_is_the_dense_models_fold(n, s, tau):
    grid = build_grid([(-1.0, 1.0)], 2.0 / (n + 1))
    reach = (dict(tau=tau, kernel=build_kernel("uniform", 0.5, grid.h))
             if tau else {})
    even = 1.0 + (np.arange(n) - (n - 1) / 2) ** 2  # equal to its reverse
    spec = problem_spec(grid, s, 2.0 * even, even, **reach)
    op, half = logistic._half_model(spec)
    full = _problem(spec)[1]
    m = (n + 1) // 2
    assert op is None and half.even.mirrored
    assert half.a_eff.shape == (m, m)
    dense = oracles.ref_fold(full.a_eff)
    scale = np.max(np.abs(np.diag(dense)))
    assert np.max(np.abs(half.a_eff - dense)) <= 1e-14 * scale
    root_w = np.sqrt(np.diag(oracles.ref_mirror(n)[1]))
    np.testing.assert_array_equal(half.mu, full.mu[:m] / root_w)
    np.testing.assert_array_equal(half.lin, full.lin[:m])
    np.testing.assert_array_equal(half.probe[0], root_w * full.probe[0][:m])
    np.testing.assert_allclose(half.probe[1], dense @ half.probe[0], rtol=0.0,
                               atol=1e-14 * scale * np.max(half.probe[0]))


def test_critical_radius_assembles_no_dense_matrix(monkeypatch):
    # every grid of the search, the base one included, is assembled as its
    # even half.  The peak is the guess's eigenpair: the half matrix of its
    # cell, the Cholesky factor's copy of it and the Lanczos basis, within
    # 2.25 half matrices of the largest cell; the certificates factor
    # their models in place
    assemble_dirichlet = operators.assemble_dirichlet
    assembled = []

    def counted(grid, s):
        assembled.append(grid.n)
        return assemble_dirichlet(grid, s)
    monkeypatch.setattr(operators, "assemble_dirichlet", counted)
    build = logistic.build_grid
    built = []

    def recorded(*args):
        grid = build(*args)
        built.append(grid.n)
        return grid
    monkeypatch.setattr(logistic, "build_grid", recorded)
    tracemalloc.start()
    try:
        critical_radius((0.0, 1.0), 0.4, 2.0**-8)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert assembled == []
    m = (max(built) + 1) // 2
    assert peak < 2.25 * 8 * m**2


def test_survival_certificate_factors_its_model_in_place(monkeypatch):
    # sigma below lambda_1: the profile does not settle the certificate, one
    # Cholesky does, of the half model's own matrix, so the peak stays
    # within one half matrix and the O(n) vectors beside it
    grid = build_grid([(0.0, 1.0)], 2.0**-9)
    spec = problem_spec(grid, 0.4, 1.0, 1.0)
    factorizations = _counting(monkeypatch, "dpotrf")
    tracemalloc.start()
    try:
        survives = logistic._survives(spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert not survives and len(factorizations) == 1
    m = (grid.n + 1) // 2
    assert peak < 1.25 * 8 * m**2


def test_ext_crossing_pattern(monkeypatch):
    # survival is certified, no steady state solved for
    steady_states = _counting(monkeypatch, "_steady_state")
    rs = np.geomspace(0.1, 10.0, 9)
    res = ext_crossing((0.0, 1.0), 0.25, 1.0, rs, 2.0**-6)
    assert steady_states == []
    assert res.n_sign_changes == 1
    assert res.pattern_ok
    assert 0.1 < res.crossing_estimate < 10.0


def test_ext_crossing_needs_bracketing():
    with pytest.raises(ValueError, match="sign change"):
        ext_crossing((0.0, 1.0), 0.25, 1.0, [8.0, 12.0, 16.0], 2.0**-5)


def test_ext_crossing_between_two_fractional_exponents():
    rs = np.geomspace(0.2, 8.0, 7)
    res = ext_crossing((0.0, 1.0), 0.25, 0.75, rs, 2.0**-6)
    assert res.n_sign_changes == 1
    assert res.pattern_ok


def test_minimize_checks_init_grid(unit_problem):
    grid, op, lam = unit_problem
    spec = problem_spec(grid, 0.5, lam + 0.5, 1.0)
    other = build_grid([(0.0, 1.0)], 2.0**-4)
    with pytest.raises(ValueError, match="different grids"):
        minimize(spec, sample_function(other, 0.1))


def test_congruence_effect_and_classical_control():
    res = congruence_experiment((0.0, 1.0), (2.0, 3.0), 0.5, 2.0**-6)
    assert res.admissible
    assert res.report_1.classification == "trivial"
    assert res.report_2.classification == "trivial"
    assert res.report_union.classification == "nontrivial"
    assert res.union_positive_everywhere
    classical = congruence_experiment((0.0, 1.0), (2.0, 3.0), 1.0, 2.0**-6)
    assert not classical.admissible


def test_congruence_window_narrows_with_separation():
    near = congruence_experiment((0.0, 1.0), (2.0, 3.0), 0.5, 2.0**-6)
    far = congruence_experiment((0.0, 1.0), (17.0, 18.0), 0.5, 2.0**-6)
    assert far.gap < near.gap


# ---------------------------------------------------------------------------
# the extinction certificate and the Rayleigh skip
# ---------------------------------------------------------------------------

def _certificate_spec(s, case):
    grid = build_grid([(0.0, 1.0)], 2.0**-5)
    lam = first_eigenpair(assemble(grid, s)).lambda_
    if case == "dip":
        sigma = sample_function(grid, lambda x: _dipped(x, 2.0 * lam, 0.5, 0.3))
        return problem_spec(grid, s, sigma, 1.0)
    if case == "reach":
        return problem_spec(grid, s, 0.5 * lam, 1.0, tau=0.7 * lam,
                            kernel=build_kernel("uniform", 0.25, grid.h))
    return problem_spec(grid, s, float(case) * lam, 1.0)


def _counting(monkeypatch, name):
    """Replace <name> in logistic, and in transmission when it holds it, by
    a wrapper that counts the calls of both."""
    calls = []
    for module in (logistic, transmission):
        original = getattr(module, name, None)
        if original is None:
            continue

        def counted(*args, _original=original, **kwargs):
            calls.append(1)
            return _original(*args, **kwargs)
        monkeypatch.setattr(module, name, counted)
    return calls


@pytest.mark.parametrize("case", ["0.9", "1.1", "dip", "reach"])
@pytest.mark.parametrize("s", [0.3, 0.5, 1.0])
def test_trivial_exactly_when_hessian_at_zero_is_positive_definite(
        s, case, monkeypatch):
    spec = _certificate_spec(s, case)
    h0 = _problem(spec)[1].hessian(np.zeros(spec.grid.n))
    definite = bool(np.linalg.eigvalsh(h0)[0] > 0.0)
    rep = solve_dirichlet(spec)
    assert (rep.classification == "trivial") == definite
    if definite:
        # the certified report is the one the two-start descent reaches
        monkeypatch.setattr(logistic, "_zero_is_minimizer", lambda model: False)
        descended = solve_dirichlet(spec)
        assert descended.classification == "trivial"
        assert np.array_equal(descended.u.values, rep.u.values)
        assert (descended.energy, descended.el_residual) == \
            (rep.energy, rep.el_residual)


def test_certificate_cases_cover_both_outcomes():
    classes = {solve_dirichlet(_certificate_spec(0.5, case)).classification
               for case in ("0.9", "1.1", "dip", "reach")}
    assert classes == {"trivial", "nontrivial"}


def _tspec(sigma):
    return transmission_spec((0.0, 1.0), (1.5, 2.5), 2.0**-5, s=0.5, s1=0.4,
                             s2=0.6, nu1=1.0, nu2=1.0, mu=1.0, sigma=sigma)


def _extinct_transmission():
    return _tspec(0.8 * first_eigenpair(assemble_transmission(_tspec(1.0))).lambda_)


@pytest.mark.parametrize("solve, make", [
    (solve_dirichlet, lambda: _certificate_spec(0.5, "0.9")),
    (minimize_transmission, _extinct_transmission),
], ids=["dirichlet", "transmission"])
def test_extinct_solve_factors_once_without_an_eigenpair(solve, make,
                                                         monkeypatch):
    spec = make()
    eigenpairs = _counting(monkeypatch, "first_eigenpair")
    factorizations = _counting(monkeypatch, "dpotrf")
    rep = solve(spec)
    assert rep.classification == "trivial"
    assert (len(eigenpairs), len(factorizations)) == (0, 1)
    assert rep.history == [0.0, 0.0] and rep.iterations == 0


def _certificate_verdicts(monkeypatch):
    """A list that records (verdict, dpotrf calls) of every certificate
    logistic runs from now on."""
    factorizations = _counting(monkeypatch, "dpotrf")
    verdicts = []
    certify = logistic._zero_is_minimizer

    def recorded(model):
        before = len(factorizations)
        verdicts.append((certify(model), len(factorizations) - before))
        return verdicts[-1][0]
    monkeypatch.setattr(logistic, "_zero_is_minimizer", recorded)
    return verdicts


def test_periodic_solve_settles_its_certificate_with_the_constant_probe(
        monkeypatch):
    # -sum sigma - tau n < 0 along the constant field, so the certificate
    # needs no factorization
    pg = build_periodic_grid(64)
    spec = problem_spec(pg, 0.5, lambda x: 2.0 + np.cos(2.0 * np.pi * x), 1.0,
                        tau=0.5, kernel=build_kernel("uniform", 0.25, pg.h))
    verdicts = _certificate_verdicts(monkeypatch)
    assert solve_periodic(spec).classification == "nontrivial"
    assert verdicts == [(False, 0)]


@pytest.mark.parametrize("s", [0.5, 1.0])
def test_dirichlet_certificate_settled_by_the_boundary_profile(s, monkeypatch):
    # at sigma = 1.1 lambda_1 the constant field still has positive
    # curvature at zero (the boundary rows of A weigh it), the profile
    # ((x - a)(b - x))^s does not
    spec = _certificate_spec(s, "1.1")
    _, model = _problem(spec)
    zeros = np.zeros(spec.grid.n)
    ones = np.ones(spec.grid.n)
    assert not model.indefinite_along(zeros, ones, model.a_eff @ ones)
    _, info = dpotrf(model.hessian(zeros).T, lower=True)
    cholesky = "trivial" if info == 0 else "nontrivial"
    verdicts = _certificate_verdicts(monkeypatch)
    assert solve_dirichlet(spec).classification == cholesky
    assert verdicts == [(False, 0)]


@pytest.mark.parametrize(
    "sigma", [2.0, lambda x: 2.0 + np.cos(2.0 * np.pi * x)],
    ids=["constant", "oscillatory"])
def test_periodic_solve_with_an_unstable_zero_makes_no_failing_cholesky(
        sigma, monkeypatch):
    # the constant probe shows every indefinite Hessian before dpotrf would
    infos = []
    factor = logistic.dpotrf

    def recorded(*args, **kwargs):
        out = factor(*args, **kwargs)
        infos.append(out[1])
        return out
    monkeypatch.setattr(logistic, "dpotrf", recorded)
    spec = problem_spec(build_periodic_grid(64), 0.5, sigma, 1.0)
    assert solve_periodic(spec).classification == "nontrivial"
    assert all(info == 0 for info in infos)


def test_bounded_solve_without_resources_is_trivial_without_factoring(
        monkeypatch):
    # sigma = 0, tau = 0: E >= 0 = E(0) since A is positive semidefinite
    spec = problem_spec(build_grid([(0.0, 1.0)], 2.0**-5), 0.5, 0.0, 1.0)
    factorizations = _counting(monkeypatch, "dpotrf")
    rep = solve_dirichlet(spec)
    assert rep.classification == "trivial"
    assert not factorizations
    assert rep.history == [0.0, 0.0] and rep.iterations == 0


def _directions_with_and_without_probe(model, e, u, monkeypatch):
    """Newton directions at u with e as the probe and with none, and the
    dpotrf calls each made."""
    factorizations = _counting(monkeypatch, "dpotrf")
    g = model.gradient(u)
    out = []
    for probe in (e, None):
        model.probe = None
        if probe is not None:
            model.set_probe(probe)
        before = len(factorizations)
        out.append((model.newton_direction(u, g),
                    len(factorizations) - before))
    return out


def test_rayleigh_skip_keeps_the_newton_direction(monkeypatch):
    spec = _certificate_spec(0.5, "1.1")
    op, model = _problem(spec)
    e = first_eigenpair(op).vector.values
    u = np.full(spec.grid.n, 0.1 * spec.triviality_tol)
    (skipped, calls_skipped), (tried, calls_tried) = \
        _directions_with_and_without_probe(model, e, u, monkeypatch)
    assert (calls_skipped, calls_tried) == (0, 1)
    assert np.array_equal(skipped, tried)


@pytest.mark.parametrize("factor, expected", [(0.8, "trivial"),
                                              (1.2, "nontrivial")])
def test_transmission_rayleigh_skip_on_each_side_of_lambda_star(
        factor, expected, monkeypatch):
    op = assemble_transmission(_tspec(1.0))
    pair = first_eigenpair(op)
    ts = _tspec(factor * pair.lambda_)
    model = _EnergyModel(op.a, ts.grid.h, ts.mu.values, -ts.sigma.values)
    u = np.full(ts.grid.n, 0.1 * ts.triviality_tol)
    (probed, calls_probed), (tried, calls_tried) = \
        _directions_with_and_without_probe(model, pair.vector.values, u,
                                           monkeypatch)
    assert calls_tried == 1
    assert calls_probed == (0 if expected == "nontrivial" else 1)
    assert np.array_equal(probed, tried)
    assert minimize_transmission(ts).classification == expected


# ---------------------------------------------------------------------------
# the steady state of a mirrored problem, solved on its even half
# ---------------------------------------------------------------------------

@pytest.fixture
def factored_orders(monkeypatch):
    """The order of every matrix logistic hands to dpotrf or solve."""
    orders = []
    for name in ("dpotrf", "solve"):
        original = getattr(logistic, name)

        def recorded(a, *args, _original=original, **kwargs):
            orders.append(a.shape[0])
            return _original(a, *args, **kwargs)
        monkeypatch.setattr(logistic, name, recorded)
    return orders


def _full_path(spec):
    """(classification, u, energy) of the steady state on all n nodes: the
    model of _problem(spec), certified by _zero_is_minimizer and descended
    by _minimize_model from the two starts of solve_dirichlet."""
    op, model = _problem(spec)
    n = spec.grid.n
    if _zero_is_minimizer(model):
        return "trivial", np.zeros(n), 0.0
    tol = spec.solver_tol * _residual_scale(spec)
    starts = ((logistic._eigen_start(spec, op, model), 800),
              (np.full(n, 0.1 * spec.triviality_tol), 300))
    outcomes = []
    for u0, budget in starts:
        u, _, _, _, ok = _minimize_model(model, u0, tol, budget)
        assert ok
        outcomes.append((model.energy(u), float(np.max(np.abs(u))), u))
    e, sup, u = min(outcomes, key=lambda o: o[:2])
    if sup <= spec.triviality_tol:
        return "trivial", np.zeros(n), 0.0
    return "nontrivial", u, e


def _mirrored_spec(case, factor):
    """A problem that mirrors, sigma = factor times the first eigenvalue of
    its operator (of A - tau B for the reach case)."""
    grids_at = {
        "interval": ([(0.0, 1.0)], 2.0**-5, 0.5),         # n = 31
        "pair": ([(0.0, 1.0), (1.5, 2.5)], 2.0**-5, 0.5),  # n = 62
        "reach": ([(-1.0, 1.0)], 2.0**-5, 0.5),
        "uncoupled": ([(0.0, 1.0), (2.0, 3.0)], 2.0**-5, 1.0),
        "n=1": ([(0.0, 0.5)], 0.25, 0.5),
        "n=2": ([(0.0, 0.75)], 0.25, 0.5),
        "n=3": ([(0.0, 1.0)], 0.25, 0.5),
    }
    intervals, h, s = grids_at[case]
    grid = build_grid(intervals, h)
    if case == "reach":
        kernel = build_kernel("uniform", 0.25, h)
        spec = problem_spec(grid, s, 1.0, 1.0, tau=0.5, kernel=kernel)
        a_eff = _problem(spec)[1].a_eff
        lam = np.linalg.eigvalsh(a_eff)[0]
        return problem_spec(grid, s, factor * lam, 1.0, tau=0.5, kernel=kernel)
    lam = first_eigenpair(assemble(grid, s)).lambda_
    return problem_spec(grid, s, factor * lam, 1.0)


MIRRORED = ["interval", "pair", "reach", "uncoupled", "n=1", "n=2", "n=3"]


@pytest.mark.parametrize("case", MIRRORED)
def test_folded_model_is_the_full_model_on_even_fields(case):
    spec = _mirrored_spec(case, 1.5)
    model = _problem(spec)[1]
    half = logistic._half_model(spec)[1]
    assert half.even.mirrored
    n = spec.grid.n
    m = (n + 1) // 2
    v = np.random.default_rng(5).uniform(-1.5, 1.5, m)
    u = np.concatenate((v, v[::-1][n % 2:]))
    y = half.even.fold(u)
    np.testing.assert_allclose(half.even.unfold(y), u, rtol=1e-15)
    assert half.sup_norm(y) == pytest.approx(np.max(np.abs(u)), rel=1e-15)
    assert half.energy(y) == pytest.approx(model.energy(u), rel=1e-12)
    g = model.gradient(u)
    scale = np.max(np.abs(g))
    np.testing.assert_allclose(half.gradient(y), half.even.fold(g), rtol=0.0,
                               atol=1e-12 * scale)
    assert half.sup_norm(half.gradient(y)) == pytest.approx(scale, rel=1e-12)
    np.testing.assert_allclose(half.hessian(y),
                               oracles.ref_fold(model.hessian(u)), rtol=0.0,
                               atol=1e-13 * np.max(np.abs(model.a_eff)))


@pytest.mark.parametrize("factor", [0.5, 1.5, 4.0])
@pytest.mark.parametrize("case", MIRRORED)
def test_mirrored_solve_runs_on_the_even_half(case, factor, factored_orders,
                                              monkeypatch):
    spec = _mirrored_spec(case, factor)
    n = spec.grid.n
    expected, u_full, e_full = _full_path(spec)
    descend = logistic._minimize_model
    descents = []  # (unfolded state, residual, energy) of each start

    def recorded(model, *args):
        outcome = descend(model, *args)
        descents.append((model.even.unfold(outcome[0]), outcome[3],
                         model.energy(outcome[0])))
        return outcome
    monkeypatch.setattr(logistic, "_minimize_model", recorded)
    factored_orders.clear()
    rep = solve_dirichlet(spec)
    assert factored_orders and set(factored_orders) == {(n + 1) // 2}
    assert rep.classification == expected
    u = rep.u.values
    assert abs(rep.energy - e_full) <= 1e-10 * abs(e_full)
    assert np.max(np.abs(u - u_full)) <= 1e-8 * np.max(np.abs(u_full))
    # the unfolded state is even, and its residual and energy are the ones
    # read on the half at the state its descent reached
    np.testing.assert_array_equal(u, u[::-1])
    assert rep.el_residual <= spec.solver_tol * _residual_scale(spec)
    if expected == "nontrivial":
        assert (rep.el_residual, rep.energy) in [
            (res, e) for state, res, e in descents if np.array_equal(state, u)]


@pytest.mark.parametrize("factor", [1.0 - 1e-3, 1.0 + 1e-3])
@pytest.mark.parametrize("case", MIRRORED)
def test_folded_certificate_is_the_full_cholesky(case, factor):
    spec = _mirrored_spec(case, factor)
    n = spec.grid.n
    model = _problem(spec)[1]
    half = logistic._half_model(spec)[1]
    assert half.a_eff.shape == ((n + 1) // 2,) * 2
    _, info = dpotrf(model.hessian(np.zeros(n)).T, lower=True)
    assert _zero_is_minimizer(half) == (info == 0) == (factor < 1.0)


def _unmirrored_spec(case):
    if case == "dip":
        grid = build_grid([(0.0, 1.0)], 2.0**-5)
        return problem_spec(grid, 0.5, sample_function(grid, _dipped), 1.0)
    if case == "union":
        grid = build_grid([(0.0, 1.0), (1.5, 2.25)], 2.0**-5)
        return problem_spec(grid, 0.5, 8.0, 1.0)
    return _tspec(8.0)


@pytest.mark.parametrize("case", ["dip", "union", "transmission"])
def test_unmirrored_solve_factors_at_full_order(case, factored_orders,
                                                monkeypatch):
    # the model is the full one, and the eigen start reuses the operator it
    # was built from
    spec = _unmirrored_spec(case)
    op, model = logistic._half_model(spec)
    assert op is not None and not model.even.mirrored
    assert model.a_eff.shape == (spec.grid.n,) * 2
    dirichlet = _counting(monkeypatch, "assemble")
    transmission = _counting(monkeypatch, "assemble_transmission")
    rep = solve_dirichlet(spec)
    assert rep.classification == "nontrivial"
    assert factored_orders and set(factored_orders) == {spec.grid.n}
    assert len(dirichlet) + len(transmission) == 1


_H = 2.0**-5
_RULE_CASES = {  # intervals, tau, (rule, dense scan)
    "interval": ([(0.0, 1.0)], 0.0, (True, True)),
    "gap 1 cell": ([(0.0, 1.0), (1.0 + _H, 2.0 + _H)], 0.0, (True, True)),
    "gap 2.5 cells": ([(0.0, 1.0), (1.0 + 2.5 * _H, 2.0 + 2.5 * _H)], 0.0,
                      (True, True)),
    "lopsided pair": ([(0.0, 1.0), (1.5, 2.25)], 0.0, (False, False)),
    "transmission": (None, 0.0, (False, False)),
    # mirrored, but solved whole by design: the half convolution takes one
    # interval, the half operator one interval or two
    "pair, tau > 0": ([(0.0, 1.0), (1.5, 2.5)], 0.5, (False, True)),
    "three intervals": ([(0.0, 1.0), (1.5, 2.5), (3.0, 4.0)], 0.0,
                        (False, True)),
}


@pytest.mark.parametrize("case", list(_RULE_CASES))
def test_mirror_rule_agrees_with_the_dense_scan(case):
    intervals, tau, expected = _RULE_CASES[case]
    if intervals is None:
        spec = _tspec(8.0)
    else:
        reach = (dict(tau=tau, kernel=build_kernel("uniform", 0.25, _H))
                 if tau else {})
        spec = problem_spec(build_grid(intervals, _H), 0.5, 8.0, 1.0, **reach)
    op, model = logistic._half_model(spec)
    scan = spectral._EvenHalf.of(_problem(spec)[1].a_eff).mirrored
    assert (model.even.mirrored, scan) == expected
    assert (op is None) == model.even.mirrored


def test_mirror_rule_needs_resources_equal_to_their_reverses():
    grid = build_grid([(0.0, 1.0)], _H)
    even = 2.0 + np.abs(np.arange(grid.n) - grid.n // 2)
    assert logistic._half_model(problem_spec(grid, 0.5, even, 1.0))[0] is None
    ulp = even.copy()
    ulp[0] = np.nextafter(ulp[0], np.inf)
    for sigma, mu in ((ulp, 1.0), (even, ulp)):
        op, model = logistic._half_model(problem_spec(grid, 0.5, sigma, mu))
        assert op is not None and not model.even.mirrored


@pytest.mark.parametrize("factor, dense", [(0.5, 0), (1.5, 1)],
                         ids=["extinct", "nontrivial"])
@pytest.mark.parametrize("case", ["interval", "pair", "reach"])
def test_mirrored_solve_assembles_only_for_its_eigenvector(case, factor,
                                                           dense, monkeypatch):
    # an extinct solve forms no n x n matrix; a nontrivial one assembles
    # the operator once, for the eigen start's eigenvector, and never B
    spec = _mirrored_spec(case, factor)
    built = []
    for module, name in ((operators, "assemble_dirichlet"),
                         (operators, "convolution_matrix"),
                         (logistic, "convolution_matrix")):
        original = getattr(module, name)

        def recorded(*args, _name=name, _original=original):
            built.append(_name)
            return _original(*args)
        monkeypatch.setattr(module, name, recorded)
    rep = solve_dirichlet(spec)
    assert rep.classification == ("trivial" if dense == 0 else "nontrivial")
    assert built == ["assemble_dirichlet"] * dense


def _even_cosine(n):
    """2 + cos(2 pi (i - (n - 1)/2) / n) at node i: equal to its reverse
    exactly, where 2 + cos 2 pi x sampled on the nodes is shifted by one."""
    return 2.0 + np.cos(2.0 * np.pi * (np.arange(n) - (n - 1) / 2) / n)


@pytest.mark.parametrize("even", [True, False])
def test_periodic_cell_is_solved_without_factoring(even, factored_orders):
    pg = build_periodic_grid(64)
    n = pg.n
    sigma = (_even_cosine(n) if even
             else lambda x: 2.0 + np.cos(2.0 * np.pi * x))
    spec = problem_spec(pg, 0.5, sigma, 1.0, tau=0.5,
                        kernel=build_kernel("uniform", 0.25, pg.h))
    values = spec.sigma.values
    assert np.ptp(values) > 1.0
    assert np.array_equal(values, values[::-1]) == even
    # the full path: the dense model descended from the level start and
    # from a tiny one; by convexity the solve's one start, the level, finds
    # the lower of the two
    model = oracles.ref_periodic_model(spec)
    h = pg.h
    level = (h * np.sum(values) + spec.tau) / (h * np.sum(spec.mu.values))
    tol = spec.solver_tol * _residual_scale(spec)
    outcomes = []
    for u0, budget in ((np.full(n, level), 800),
                       (np.full(n, 0.1 * spec.triviality_tol), 300)):
        u, _, _, _, ok = _minimize_model(model, u0, tol, budget)
        assert ok
        outcomes.append((model.energy(u), u))
    e_full, u_full = min(outcomes, key=lambda o: o[0])
    factored_orders.clear()
    rep = solve_periodic(spec)
    assert factored_orders == []
    assert rep.classification == "nontrivial"
    assert np.ptp(rep.u.values) > 0.05
    assert abs(rep.energy - e_full) <= 1e-10 * abs(e_full)
    assert np.max(np.abs(rep.u.values - u_full)) <= 1e-8 * np.max(u_full)


@pytest.mark.parametrize("s", [0.3, 0.7])
def test_folded_critical_radius_equals_the_full_one(s, factored_orders,
                                                    monkeypatch):
    # the half assembled directly against the dense model on all n nodes
    folded = critical_radius((0.0, 1.0), s, 2.0**-6)
    half_orders = list(factored_orders)
    factored_orders.clear()
    monkeypatch.setattr(logistic, "_survives", lambda spec: not
                        _zero_is_minimizer(_problem(spec)[1]))
    assert critical_radius((0.0, 1.0), s, 2.0**-6) == folded
    assert max(half_orders) == (max(factored_orders) + 1) // 2


# ---------------------------------------------------------------------------
# the periodic cell's circulant model, against the dense one
# ---------------------------------------------------------------------------

def _cosine_cell(n, s, tau):
    pg = build_periodic_grid(n)
    kernel = build_kernel("uniform", 0.25, pg.h) if tau else None
    return problem_spec(pg, s, lambda x: 2.0 + np.cos(2.0 * np.pi * x), 1.0,
                        tau=tau, kernel=kernel)


@pytest.mark.parametrize("tau", [0.0, 1.0])
@pytest.mark.parametrize("s", [0.1, 0.5, 0.9])
@pytest.mark.parametrize("n", [4, 5, 64, 1024])
def test_circulant_model_is_the_dense_model(n, s, tau):
    spec = _cosine_cell(n, s, tau)
    model = _problem(spec)[1]
    dense = oracles.ref_periodic_model(spec)
    # a product with A_eff is rounded relative to ||A_eff||_inf
    norm_a = np.sum(np.abs(model.col))
    x = spec.grid.nodes
    states = {
        "definite": (spec.sigma.values + tau) * (1.0 + 0.1 * np.sin(6.0 * np.pi * x)),
        "tiny": np.full(n, 0.1 * spec.triviality_tol),
    }
    for name, u in states.items():
        # 1e-12 relative, or 16 ulps of the quadratic part's terms where
        # that is larger (the rounding _EnergyModel.resolution allows)
        e = dense.energy(u)
        terms = spec.grid.h * float(dense.abs_diag @ (u * u))
        bound = max(1e-12 * abs(e), 16.0 * np.finfo(float).eps * terms)
        assert abs(model.energy(u) - e) <= bound
        g = dense.gradient(u)
        scale = max(np.max(np.abs(g)), norm_a * np.max(np.abs(u)))
        assert np.max(np.abs(model.gradient(u) - g)) <= 1e-12 * scale
        eig = np.linalg.eigvalsh(dense.hessian(u))
        assert (eig[0] > 0.0) == (name == "definite")
        d = dense.newton_direction(u, g)
        # no double-precision solve resolves d better than cond(H) eps,
        # which exceeds 1e-12 only at n = 1024, s = 0.9 (cond about 5e5)
        cond = np.max(np.abs(eig)) / np.min(np.abs(eig))
        rel = max(1e-12, np.finfo(float).eps * cond)
        assert (np.max(np.abs(model.newton_direction(u, g) - d))
                <= rel * np.max(np.abs(d)))


def test_unconverged_minres_gives_no_direction(monkeypatch):
    spec = _cosine_cell(64, 0.5, 0.0)
    model = _problem(spec)[1]
    u = np.full(spec.grid.n, 0.1 * spec.triviality_tol)
    g = model.gradient(u)
    assert model.newton_direction(u, g) is not None
    minres = logistic.minres
    monkeypatch.setattr(logistic, "minres",
                        lambda *args, **kwargs: minres(*args, **{**kwargs, "maxiter": 1}))
    assert model.newton_direction(u, g) is None


def _forbid_dense(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("a dense matrix was built or factored")
    for name in ("assemble", "convolution_matrix", "dpotrf", "solve"):
        monkeypatch.setattr(logistic, name, forbidden)


def test_periodic_solve_builds_no_dense_matrix(monkeypatch):
    # the certificate needs no matrix and every product with A_eff is an
    # FFT: no dense builder or factorization is called, and the solve's
    # peak memory stays below a quarter of one n x n matrix
    _forbid_dense(monkeypatch)
    spec = problem_spec(build_periodic_grid(1024), 0.5,
                        lambda x: 2.0 + np.cos(2.0 * np.pi * x), 1.0, tau=0.5,
                        kernel=build_kernel("uniform", 0.25, 2.0**-10))
    tracemalloc.start()
    try:
        rep = solve_periodic(spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.classification == "nontrivial"
    assert peak < 2 * spec.grid.n**2


@pytest.mark.parametrize("s", [0.3, 0.9])
def test_periodic_certificate_needs_no_matrix_at_a_vanishing_resource(
        s, monkeypatch):
    # sigma = 1e-300 at one node: e^T H(0) e = -sum sigma < 0 along the
    # constant, far below the rounding of a product with A, yet H(0) is
    # still not positive definite; the state it grows is below
    # triviality_tol, so the solve reads trivial, with no dense matrix
    _forbid_dense(monkeypatch)
    pg = build_periodic_grid(64)
    sigma = np.zeros(pg.n)
    sigma[0] = 1e-300
    verdicts = _certificate_verdicts(monkeypatch)
    assert solve_periodic(problem_spec(pg, s, sigma, 1.0)).classification \
        == "trivial"
    assert verdicts == [(False, 0)]


def test_fine_grid_solve_meets_its_tolerance():
    # on (0, 3) at s = 0.9, h = 2^-9 the eigenpair of the eigen start and
    # the steady state's residual are read on the even half, within their
    # contracts
    spec = problem_spec(build_grid([(0.0, 3.0)], 2.0**-9), 0.9, 50.0, 1.0)
    rep = solve_dirichlet(spec)
    assert rep.classification == "nontrivial"
    assert rep.el_residual <= spec.solver_tol * _residual_scale(spec)


# ---------------------------------------------------------------------------
# the solver's failure exits
# ---------------------------------------------------------------------------

def test_singular_newton_system_gives_no_direction():
    zeros = np.zeros(2)
    model = _EnergyModel(np.zeros((2, 2)), 1.0, zeros, zeros)
    assert model.newton_direction(zeros, np.ones(2)) is None


def test_exhausted_gradient_line_search_stops_unconverged():
    # at tolerance 0, no step from the converged state lowers the energy
    grid = build_grid([(0.0, 1.0)], 2.0**-5)
    lam = first_eigenpair(assemble_dirichlet(grid, 0.5)).lambda_
    spec = problem_spec(grid, 0.5, 1.5 * lam, 1.0)
    u = solve_dirichlet(spec).u.values
    _, history, iters, converged = logistic._descend_loop(
        _problem(spec)[1], u, 0.0, 50)
    # an unconverged stop within the budget is the exhausted line search's
    assert iters < 50 and not converged
    assert np.all(np.diff(history) <= 0.0)


def test_unconverged_start_below_the_converged_one_raises():
    # with one iteration the eigen start stalls below zero's energy while
    # the tiny start converges onto the unstable zero, above it
    grid = build_grid([(0.0, 1.0)], 2.0**-5)
    lam = first_eigenpair(assemble(grid, 0.5)).lambda_
    spec = problem_spec(grid, 0.5, 2.0 * lam, 1.0, solver_tol=1e-3)
    with pytest.raises(ConvergenceError,
                       match="undercut the certified minimum "
                             r"\(energy .*, sup norm .*\)"):
        solve_dirichlet(spec, max_iter=1)


def test_stalled_periodic_descent_raises():
    # at solver_tol 1e-30 the level start stalls at the steady state; it is
    # the cell's one start, so nothing converged
    spec = problem_spec(build_periodic_grid(64), 0.5,
                        lambda x: 2.0 + np.cos(2.0 * np.pi * x), 1.0,
                        solver_tol=1e-30)
    with pytest.raises(ConvergenceError, match="no start converged"):
        solve_periodic(spec)


def test_periodic_solve_is_one_descent(monkeypatch):
    # E(sqrt v) is convex on the periodic cell, so the level start is the
    # only one
    descents = _counting(monkeypatch, "_minimize_model")
    spec = problem_spec(build_periodic_grid(64), 0.5,
                        lambda x: 2.0 + np.cos(2.0 * np.pi * x), 1.0)
    assert solve_periodic(spec).classification == "nontrivial"
    assert len(descents) == 1


def test_no_converged_start_raises(monkeypatch):
    descend = logistic._minimize_model

    def stalled(*args):
        *outcome, _ = descend(*args)
        return (*outcome, False)
    monkeypatch.setattr(logistic, "_minimize_model", stalled)
    with pytest.raises(ConvergenceError, match="no start converged"):
        solve_dirichlet(_certificate_spec(0.5, "1.1"))
