import numpy as np
import pytest

from nlogis import (
    approximate_s_harmonic,
    assemble_dirichlet,
    build_grid,
    build_kernel,
    build_strategic,
    minimize_with_source,
)
from nlogis.logistic import _EnergyModel


H = 1.0 / 16.0


def test_constant_target():
    # constants are harmonic up to the truncation tail, which the exterior
    # data has to work against; the residual quantifies that tail
    res = approximate_s_harmonic(1.0, 0.5, 1e-3, [4.0], H)
    assert res.approx_error <= 1e-3
    assert res.harmonic_residual <= 1e-10


def test_monotone_target_error_non_increasing():
    res = approximate_s_harmonic(lambda x: x, 0.5, 1e-12, [4.0, 6.0, 8.0], H)
    errs = [e for _, e in res.history]
    assert all(a >= b - 1e-12 for a, b in zip(errs, errs[1:]))


def test_quadratic_target_achieves_tolerance():
    res = approximate_s_harmonic(lambda x: x**2, 0.5, 0.1, [4.0, 6.0], H)
    assert res.achieved
    assert res.harmonic_residual <= 1e-6 * np.max(np.abs(res.w.values))


def test_harmonicity_enforced_on_inner_region():
    res = approximate_s_harmonic(lambda x: 1.0 + x, 0.5, 0.5, [4.0], H)
    grid = res.w.grid
    op = assemble_dirichlet(grid, 0.5)
    inner = np.abs(grid.nodes) < 2.0 - 1e-12
    action = op.a @ res.w.values
    assert np.max(np.abs(action[inner])) <= 1e-6 * np.max(np.abs(res.w.values))


def test_support_radius_must_exceed_inner():
    with pytest.raises(ValueError, match="must exceed"):
        approximate_s_harmonic(1.0, 0.5, 0.1, [1.5], H)


def test_field_target_accepted():
    from nlogis import sample_function

    inner = build_grid([(-2.0, 2.0)], H)
    target = sample_function(inner, lambda x: 1.0 + 0.1 * x)
    res = approximate_s_harmonic(target, 0.5, 0.05, [4.0], H)
    assert res.approx_error <= 0.05


def _inner_setup():
    grid = build_grid([(-4.0, 4.0)], H)
    op = assemble_dirichlet(grid, 0.5)
    b1 = np.abs(grid.nodes) < 1.0 - 1e-12
    a_inner = op.a[np.ix_(b1, b1)]
    return grid, b1, a_inner


def test_zero_source_gives_zero():
    grid, b1, a_inner = _inner_setup()
    n1 = int(b1.sum())
    v, energy, residual = minimize_with_source(
        np.zeros(n1), np.ones(n1), np.ones(n1), a_inner, H,
    )
    assert np.max(np.abs(v)) <= 1e-12
    assert energy == pytest.approx(0.0, abs=1e-20)


def test_source_minimizer_nonnegative():
    grid, b1, a_inner = _inner_setup()
    n1 = int(b1.sum())
    rng = np.random.default_rng(29)
    for _ in range(20):
        f = rng.uniform(0.0, 2.0, n1)
        v, _, residual = minimize_with_source(
            f, np.ones(n1), np.ones(n1), a_inner, H,
        )
        assert np.all(v >= 0.0)
        assert residual <= 1e-9


def test_source_rejects_negative_forcing():
    grid, b1, a_inner = _inner_setup()
    n1 = int(b1.sum())
    f = np.zeros(n1)
    f[0] = -1.0
    with pytest.raises(ValueError, match="nonnegative"):
        minimize_with_source(f, np.ones(n1), np.ones(n1), a_inner, H)


def test_source_gradient_matches_finite_differences():
    grid, b1, a_inner = _inner_setup()
    n1 = int(b1.sum())
    rng = np.random.default_rng(37)
    f = rng.uniform(0.5, 1.5, n1)
    model = _EnergyModel(a_eff=a_inner, h=H, mu=np.ones(n1),
                         lin=np.ones(n1), src=f)
    u = rng.uniform(0.5, 1.5, n1)
    g = model.gradient(u)
    step = 1e-6
    g_fd = np.zeros(n1)
    for i in range(n1):
        up, um = u.copy(), u.copy()
        up[i] += step
        um[i] -= step
        g_fd[i] = (model.energy(up) - model.energy(um)) / (2 * step) / H
    assert np.max(np.abs(g - g_fd)) <= 1e-6 * max(1.0, np.max(np.abs(g)))


def constant_profile(x):
    return np.ones_like(np.asarray(x, dtype=float))


def test_build_strategic_constant_case():
    res = build_strategic(constant_profile, constant_profile, 0.0, None,
                          0.5, 0.1, H, r_schedule=[4.0])
    assert res.achieved
    assert res.sigma_gap <= 0.1
    assert res.lower_bound_margin >= -1e-10
    assert res.el_residual <= 1e-8
    b1_grid = res.sigma_eps.grid
    assert np.max(np.abs(res.sigma_eps.values - 1.0)) <= 0.1
    assert np.all(res.f_eps.values >= 0.0)
    assert b1_grid.intervals == ((-1.0, 1.0),)


def test_build_strategic_curved_resource():
    sigma = lambda x: 1.0 + np.asarray(x, dtype=float) ** 2 / 8.0
    res = build_strategic(sigma, constant_profile, 0.0, None,
                          0.5, 0.1, H, r_schedule=[4.0, 6.0])
    assert res.achieved
    assert res.sigma_gap <= 0.1
    assert res.el_residual <= 1e-8
    assert res.lower_bound_margin >= -1e-10
    # population field vanishes outside the declared support by construction
    assert res.u.grid.intervals == ((-res.r_used, res.r_used),)


def test_build_strategic_with_resource_reach():
    kernel = build_kernel("uniform", 0.25, H)
    res = build_strategic(constant_profile, constant_profile, 0.5, kernel,
                          0.5, 0.1, H, r_schedule=[4.0])
    assert res.achieved
    assert np.all(res.f_eps.values >= 0.0)
    assert res.el_residual <= 1e-8
    assert res.lower_bound_margin >= -1e-10


def test_build_strategic_needs_positive_data():
    with pytest.raises(ValueError, match="positive on the closed inner"):
        build_strategic(lambda x: np.zeros_like(np.asarray(x, float)),
                        constant_profile, 0.0, None, 0.5, 0.1, H)


def test_exterior_data_is_the_tikhonov_solution():
    # against the augmented least-squares form of
    # min ||m g - y||^2 + alpha ||g||^2; the filtered singular value
    # expansion agrees to 1e-12, normal equations only to 8e-9
    from nlogis.strategic import ALPHA_SCALE, _region_masks

    target = lambda x: 1.0 + 0.3 * x**2
    res = approximate_s_harmonic(target, 0.5, 1e-12, [4.0], H)
    grid = res.w.grid
    a = assemble_dirichlet(grid, 0.5).a
    inner, fit, ext = _region_masks(grid)
    wmap = -np.linalg.solve(a[np.ix_(inner, inner)], a[np.ix_(inner, ext)])
    m = wmap[fit[inner], :]
    alpha = ALPHA_SCALE * np.linalg.norm(m, 2) ** 2
    stacked = np.vstack([m, np.sqrt(alpha) * np.eye(m.shape[1])])
    rhs = np.concatenate([target(grid.nodes[fit]), np.zeros(m.shape[1])])
    g = np.linalg.lstsq(stacked, rhs, rcond=None)[0]
    assert np.max(np.abs(res.w.values[ext] - g)) <= 1e-10 * np.max(np.abs(g))
