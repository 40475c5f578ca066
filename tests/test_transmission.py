import numpy as np
import pytest

from nlogis import (
    Field,
    assemble_transmission,
    build_grid,
    energy,
    energy_gradient,
    lambda_star,
    minimize_transmission,
    sample_function,
    solve_dirichlet,
    transmission_spec,
)
from nlogis.logistic import _EnergyModel


def make_spec(sigma=1.0, nu1=1.0, nu2=1.0, h=2.0**-5,
              interval_nonlocal=(1.5, 2.5), s=0.5, s1=0.4, s2=0.6):
    return transmission_spec(
        (0.0, 1.0), interval_nonlocal, h,
        s=s, s1=s1, s2=s2, nu1=nu1, nu2=nu2, sigma=sigma, mu=1.0,
    )


def test_lambda_star_monotone_in_coupling():
    lams = []
    for nu in (0.25, 0.5, 1.0, 2.0, 4.0):
        lams.append(lambda_star(make_spec(nu1=nu, nu2=nu)).lambda_)
    assert all(a < b for a, b in zip(lams, lams[1:]))


def test_lambda_star_decouples_for_weak_far_coupling():
    # with the second habitat far away and couplings nearly off, the
    # eigenvalue approaches that of the decoupled block operator
    ts = make_spec(nu1=1e-6, nu2=1e-6, interval_nonlocal=(9.0, 10.0))
    lam = lambda_star(ts).lambda_
    a = assemble_transmission(ts).a
    blocks = a.copy()
    one = ts.grid.interval_nodes(0)
    two = ts.grid.interval_nodes(1)
    blocks[np.ix_(one, two)] = 0.0
    blocks[np.ix_(two, one)] = 0.0
    lam_block = np.linalg.eigvalsh(blocks)[0]
    assert abs(lam / lam_block - 1.0) <= 0.05


def test_eigenvector_positive_on_both_components():
    ts = make_spec()
    pair = lambda_star(ts)
    one = ts.grid.interval_nodes(0)
    two = ts.grid.interval_nodes(1)
    assert pair.vector.values[one].min() > 0.0
    assert pair.vector.values[two].min() > 0.0


def test_trivial_without_resources():
    rep = minimize_transmission(make_spec(sigma=0.0))
    assert rep.classification == "trivial"
    assert rep.energy == 0.0


def test_without_resources_mu_may_vanish():
    # with sigma = 0 the Hessian at zero is the positive definite form, so
    # zero is the only minimizer whatever mu is
    ts = transmission_spec((0.0, 1.0), (1.5, 2.5), 2.0**-5, s=0.5, s1=0.4,
                           s2=0.6, nu1=1.0, nu2=1.0, sigma=0.0, mu=0.0)
    rep = minimize_transmission(ts)
    assert rep.classification == "trivial"
    assert rep.energy == 0.0 and rep.dichotomy_ok


def test_threshold_dichotomy():
    lam = lambda_star(make_spec()).lambda_
    below = minimize_transmission(make_spec(sigma=0.8 * lam))
    assert below.classification == "trivial"
    above = minimize_transmission(make_spec(sigma=1.2 * lam))
    assert above.classification == "nontrivial"
    assert above.dichotomy_ok and np.all(above.u.values > 0.0)
    assert above.energy < 0.0


def test_energy_never_increases_under_absolute_value():
    ts = make_spec(sigma=2.0)
    op = assemble_transmission(ts)
    model = _EnergyModel(op.a, ts.grid.h, ts.mu.values, -ts.sigma.values)
    rng = np.random.default_rng(13)
    for _ in range(50):
        u = rng.standard_normal(ts.grid.n)
        assert model.energy(np.abs(u)) <= model.energy(u) + 1e-12


def _el_residual(u, ts):
    """Sup norm of the coupled nodal equations A u + mu |u| u - sigma u."""
    return float(np.max(np.abs(energy_gradient(u, ts).values)))


def test_el_residual_levels():
    ts = make_spec(sigma=2.0)
    lam = lambda_star(ts).lambda_
    ts_hot = make_spec(sigma=1.3 * lam)
    rep = minimize_transmission(ts_hot)
    assert rep.classification == "nontrivial"
    scale = max(1.0, ts_hot.sigma.max() ** 2)
    assert _el_residual(rep.u, ts_hot) <= 10 * ts_hot.solver_tol * scale
    zero = sample_function(ts_hot.grid, 0.0)
    assert _el_residual(zero, ts_hot) == 0.0
    rng = np.random.default_rng(19)
    noise = Field(grid=ts_hot.grid, values=np.abs(rng.standard_normal(ts_hot.grid.n)))
    assert _el_residual(noise, ts_hot) > 10 * ts_hot.solver_tol


@pytest.mark.parametrize("factor", [1.2, 2.0, 4.0])
def test_nontrivial_report_meets_the_documented_residual_bound(factor):
    # the bound of every bounded and periodic solve,
    # solver_tol * max(1, (max sigma + tau)^2), with tau = 0
    ts = make_spec(sigma=factor * lambda_star(make_spec()).lambda_)
    rep = minimize_transmission(ts)
    assert rep.classification == "nontrivial" and rep.converged
    assert rep.el_residual == _el_residual(rep.u, ts)
    assert rep.el_residual <= ts.solver_tol * max(1.0, ts.sigma.max() ** 2)


def test_el_residual_rejects_a_field_from_another_grid():
    ts = make_spec(sigma=2.0)
    other = build_grid([(0.0, 1.0), (4.0, 5.0)], ts.grid.h)
    assert other.n == ts.grid.n
    field = sample_function(other, 1.0)
    for evaluate in (energy, energy_gradient):
        with pytest.raises(ValueError,
                           match="field and problem live on different grids"):
            evaluate(field, ts)


def test_energy_and_gradient_use_the_transmission_form():
    ts = make_spec(sigma=2.0)
    model = _EnergyModel(assemble_transmission(ts).a, ts.grid.h, ts.mu.values,
                         -ts.sigma.values)
    u = np.abs(np.random.default_rng(7).standard_normal(ts.grid.n))
    field = Field(grid=ts.grid, values=u)
    assert energy(field, ts) == model.energy(u)
    assert np.array_equal(energy_gradient(field, ts).values, model.gradient(u))


@pytest.mark.parametrize("factor, expected", [(0.8, "trivial"),
                                              (1.2, "nontrivial")])
def test_solve_dirichlet_solves_a_transmission_problem(factor, expected):
    ts = make_spec(sigma=factor * lambda_star(make_spec()).lambda_)
    direct = solve_dirichlet(ts)
    delegated = minimize_transmission(ts)
    assert direct.classification == delegated.classification == expected
    assert direct.energy == delegated.energy
    assert np.array_equal(direct.u.values, delegated.u.values)


def test_history_non_increasing():
    ts = make_spec(sigma=4.0)
    rep = minimize_transmission(ts)
    hist = np.array(rep.history)
    assert np.all(np.diff(hist) <= 0.0)
