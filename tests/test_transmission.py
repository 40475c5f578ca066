import numpy as np

from nlogis import (
    Field,
    assemble_transmission,
    lambda_star,
    minimize_transmission,
    mp_check,
    sample_function,
    transmission_el_residual,
    transmission_spec,
)


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


def test_threshold_dichotomy():
    lam = lambda_star(make_spec()).lambda_
    below = minimize_transmission(make_spec(sigma=0.8 * lam))
    assert below.classification == "trivial"
    above = minimize_transmission(make_spec(sigma=1.2 * lam))
    assert above.classification == "nontrivial"
    assert above.positive_on_local and above.positive_on_nonlocal
    assert above.energy < 0.0


def test_energy_never_increases_under_absolute_value():
    from nlogis.logistic import _EnergyModel

    ts = make_spec(sigma=2.0)
    op = assemble_transmission(ts)
    model = _EnergyModel(op.a, ts.grid.h, ts.mu.values, -ts.sigma.values)
    rng = np.random.default_rng(13)
    for _ in range(50):
        u = rng.standard_normal(ts.grid.n)
        assert model.energy(np.abs(u)) <= model.energy(u) + 1e-12


def test_el_residual_levels():
    ts = make_spec(sigma=2.0)
    lam = lambda_star(ts).lambda_
    ts_hot = make_spec(sigma=1.3 * lam)
    rep = minimize_transmission(ts_hot)
    assert rep.classification == "nontrivial"
    scale = max(1.0, ts_hot.sigma.max() ** 2)
    assert transmission_el_residual(rep.u, ts_hot) <= 10 * ts_hot.solver_tol * scale
    zero = sample_function(ts_hot.grid, 0.0)
    assert transmission_el_residual(zero, ts_hot) == 0.0
    rng = np.random.default_rng(19)
    noise = Field(grid=ts_hot.grid, values=np.abs(rng.standard_normal(ts_hot.grid.n)))
    assert transmission_el_residual(noise, ts_hot) > 10 * ts_hot.solver_tol


def test_mp_check_verdicts():
    ts = make_spec(sigma=2.0)
    lam = lambda_star(ts).lambda_
    rep = minimize_transmission(make_spec(sigma=1.5 * lam))
    assert mp_check(rep.u, ts) == "positive-everywhere"
    assert mp_check(sample_function(ts.grid, 0.0), ts) == "identically-zero"
    broken = np.ones(ts.grid.n)
    broken[0] = 0.0
    assert mp_check(Field(grid=ts.grid, values=broken), ts) == "violation"


def test_history_non_increasing():
    ts = make_spec(sigma=4.0)
    rep = minimize_transmission(ts)
    hist = np.array(rep.history)
    assert np.all(np.diff(hist) <= 0.0)
