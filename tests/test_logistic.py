import numpy as np
import pytest

from nlogis import (
    ConvergenceError,
    Field,
    assemble_dirichlet,
    assemble_periodic,
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
    problem_spec,
    sample_function,
    solve_dirichlet,
    solve_periodic,
)
from nlogis.logistic import _spec_model


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
    grid, op, _ = unit_problem
    spec = problem_spec(grid, 0.5, 1.0, 1.0)
    assert energy(sample_function(grid, 0.0), spec, op) == 0.0


def test_energy_never_increases_under_absolute_value(unit_problem):
    grid, op, _ = unit_problem
    k = build_kernel("uniform", 0.25, grid.h)
    spec = problem_spec(grid, 0.5, 2.0, 1.0, tau=0.4, kernel=k)
    rng = np.random.default_rng(23)
    for _ in range(100):
        u = rng.standard_normal(grid.n)
        e_signed = energy(Field(grid=grid, values=u), spec, op)
        e_abs = energy(Field(grid=grid, values=np.abs(u)), spec, op)
        assert e_abs <= e_signed + 1e-12 * max(1.0, abs(e_signed))


def test_small_eigenvector_slip_has_negative_energy(unit_problem):
    grid, op, lam = unit_problem
    spec = problem_spec(grid, 0.5, lam + 1.0, 1.0)
    e = first_eigenpair(op).vector
    for eps in (1e-2, 1e-3):
        slip = Field(grid=grid, values=eps * e.values)
        assert energy(slip, spec, op) < 0.0


def test_gradient_zero_at_origin(unit_problem):
    grid, op, _ = unit_problem
    spec = problem_spec(grid, 0.5, 1.0, 1.0)
    g = energy_gradient(sample_function(grid, 0.0), spec, op)
    assert np.all(g.values == 0.0)


@pytest.mark.parametrize("tau", [0.0, 0.5])
def test_gradient_matches_finite_differences(tau):
    grid = build_grid([(0.0, 1.0)], 2.0**-4)
    op = assemble_dirichlet(grid, 0.5)
    kernel = build_kernel("triangular", 0.25, grid.h) if tau else None
    spec = problem_spec(grid, 0.5, 2.0, 1.0, tau=tau, kernel=kernel)
    model = _spec_model(spec, op)
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
    op = assemble_periodic(pg, 0.5)
    level = (2.0 + 0.5) / 1.0
    g = energy_gradient(sample_function(pg, level), spec, op)
    assert np.max(np.abs(g.values)) <= 1e-10


def test_minimize_trivial_without_resources(unit_problem):
    grid, op, _ = unit_problem
    spec = problem_spec(grid, 0.5, 0.0, 1.0)
    rep = minimize(spec, op, sample_function(grid, 0.01))
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


def test_mixed_sign_init_agrees(unit_problem):
    grid, op, lam = unit_problem
    spec = problem_spec(grid, 0.5, lam + 0.5, 1.0)
    rng = np.random.default_rng(41)
    mixed = Field(grid=grid, values=0.3 * rng.standard_normal(grid.n))
    rep_mixed = minimize(spec, op, mixed)
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


def test_nonconvergence_raises():
    grid = build_grid([(0.0, 1.0)], 2.0**-5)
    op = assemble_dirichlet(grid, 0.5)
    spec = problem_spec(grid, 0.5, 10.0, 1.0)
    with pytest.raises(ConvergenceError) as err:
        minimize(spec, op, sample_function(grid, 5.0), max_iter=2)
    assert err.value.report is not None
    assert err.value.report.converged is False


def test_periodic_constant_solution():
    pg = build_periodic_grid(128)
    k = build_kernel("uniform", 0.25, pg.h)
    spec = problem_spec(pg, 0.5, 2.0, 1.0, tau=0.5, kernel=k)
    rep = solve_periodic(spec)
    assert np.max(np.abs(rep.u.values - 2.5)) <= 1e-8


def test_periodic_without_resources_trivial():
    pg = build_periodic_grid(32)
    spec = problem_spec(pg, 0.5, 0.0, 1.0)
    rep = solve_periodic(spec)
    assert rep.classification == "trivial"


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
    level, c, w = 30.0, 0.7, 0.2

    def dipped(x):
        if abs(x - c) >= w:
            return level
        return level * 0.5 * (1.0 - np.cos(np.pi * (x - c) / w))

    scan = beat_experiment(sample_function(grid, dipped), 0.5,
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


def test_ext_crossing_pattern():
    rs = np.geomspace(0.1, 10.0, 9)
    res = ext_crossing((0.0, 1.0), 0.25, 1.0, rs, 2.0**-6)
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
        minimize(spec, op, sample_function(other, 0.1))


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
