import numpy as np
import pytest
from scipy.linalg.lapack import dpotrf

import oracles
from nlogis import (
    ConvergenceError,
    Field,
    assemble_classical,
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
    minimize_transmission,
    problem_spec,
    sample_function,
    solve_dirichlet,
    solve_periodic,
    transmission_spec,
)
from nlogis import grids, logistic, transmission
from nlogis.logistic import (
    _EnergyModel,
    _minimize_model,
    _newton_direction,
    _residual_scale,
    _spec_model,
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
    return rep.u.values, rep.history, rep.el_residual, ts.solver_tol


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
])
def test_critical_radius_equals_the_full_solve_bisection(interval, s, h):
    assert critical_radius(interval, s, h) == \
        oracles.ref_critical_radius(interval, s, h)


def test_critical_radius_solves_only_at_the_threshold(monkeypatch):
    # one trivial solve at the bracket's lower end, certificates inside it,
    # and one nontrivial solve at r*: eigenpairs of the base habitat and of
    # that solve only
    eigenpairs = _counting(monkeypatch, "first_eigenpair")
    solves = _counting(monkeypatch, "solve_dirichlet")
    critical_radius((0.0, 1.0), 0.5, 2.0**-7)
    assert (len(eigenpairs), len(solves)) == (2, 2)


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
    # survival everywhere fails at the lower end; survival nowhere walks
    # from the first uncertified cell past the upper end
    solve = logistic.solve_dirichlet

    def fixed(spec):
        rep = solve(spec)
        rep.classification = classification
        return rep
    monkeypatch.setattr(logistic, "solve_dirichlet", fixed)
    with pytest.raises(ValueError, match="does not straddle the threshold"):
        critical_radius((0.0, 1.0), 0.5, 2.0**-5)


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
    h0 = _spec_model(spec, assemble(spec.grid, s)).hessian(np.zeros(spec.grid.n))
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
    _, model = logistic._dirichlet_model(spec)
    zeros = np.zeros(spec.grid.n)
    ones = np.ones(spec.grid.n)
    assert not model.indefinite_along(zeros, ones, model.a_eff @ ones)
    _, info = dpotrf(model.hessian(zeros).T, lower=True)
    cholesky = "trivial" if info == 0 else "nontrivial"
    verdicts = _certificate_verdicts(monkeypatch)
    assert solve_dirichlet(spec).classification == cholesky
    assert verdicts == [(False, 0)]


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
        out.append((_newton_direction(model, u, g),
                    len(factorizations) - before))
    return out


def test_rayleigh_skip_keeps_the_newton_direction(monkeypatch):
    spec = _certificate_spec(0.5, "1.1")
    op = assemble(spec.grid, spec.s)
    model = _spec_model(spec, op)
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
