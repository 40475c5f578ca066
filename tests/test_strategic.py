import numpy as np
import pytest

import oracles
from nlogis import (
    ConvergenceError,
    approximate_s_harmonic,
    assemble_dirichlet,
    build_grid,
    build_kernel,
    build_strategic,
    minimize_with_source,
)
from nlogis import strategic
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



def test_even_target_error_non_increasing():
    # the even twin of the test above: x^2 mirrors, so each radius fits on
    # its even half and the zero-padded carry-forward runs there
    res = approximate_s_harmonic(lambda x: x**2, 0.5, 1e-12, [4.0, 6.0, 8.0], H)
    errs = [e for _, e in res.history]
    assert all(a >= b - 1e-12 for a, b in zip(errs, errs[1:]))

def test_previous_radius_data_carried_forward():
    # at R = 6 the Tikhonov fit of its own has error 6.42e-4, the R = 4
    # data zero-padded 5.52e-4: the padded data must be kept
    res = approximate_s_harmonic(lambda x: x, 0.9, 1e-14, [4.0, 6.0, 8.0], H)
    (_, err4), (_, err6), _ = res.history
    assert err6 < 6.0e-4 < err4


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


def test_support_radius_must_exceed_inner(monkeypatch):
    # the whole schedule is checked before the first grid is built: [4.0,
    # 1.5] would otherwise return at R = 4 without reaching 1.5
    def no_grid(*args):
        raise AssertionError("a grid was built before the check")

    monkeypatch.setattr(strategic, "build_grid", no_grid)
    for schedule in ([1.5], [4.0, 1.5], []):
        with pytest.raises(ValueError, match="must exceed"):
            approximate_s_harmonic(1.0, 0.5, 0.1, schedule, H)


def test_tabulated_target_through_a_callable():
    from nlogis import sample_function

    inner = build_grid([(-2.0, 2.0)], H)
    target = sample_function(inner, lambda x: 1.0 + 0.1 * x)
    res = approximate_s_harmonic(
        lambda x: np.asarray([target.evaluate(v) for v in x]), 0.5, 0.05, [4.0], H)
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


def test_source_minimization_stall_raises():
    grid, b1, a_inner = _inner_setup()
    n1 = int(b1.sum())
    with pytest.raises(ConvergenceError, match="forced minimization stalled"):
        minimize_with_source(np.ones(n1), np.ones(n1), np.ones(n1), a_inner,
                             H, solver_tol=1e-30)


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


@pytest.mark.parametrize("s", [0.3, 0.7])
@pytest.mark.parametrize("tau", [0.0, 0.5])
def test_build_strategic_matches_whole_grid_reference(s, tau):
    # the construction reads only the inner ball's rows of A - tau B; the
    # formulas with whole-grid products A W, B W, A u and B u agree with it
    # to within 1.1 eps of the rounding scale on every case
    h = 2.0**-6
    sigma = lambda x: 1.0 + np.asarray(x, dtype=float) ** 2 / 8.0
    kernel = build_kernel("uniform", 0.5, h) if tau > 0.0 else None
    res = build_strategic(sigma, constant_profile, tau, kernel, s, 0.1, h)
    f_eps, u, el_residual, scale = oracles.ref_strategic(
        res.w, constant_profile, tau, kernel, s)
    tol = 16.0 * np.finfo(float).eps * scale
    assert np.max(np.abs(res.f_eps.values - f_eps)) <= tol
    assert np.max(np.abs(res.u.values - u)) <= tol
    assert abs(res.el_residual - el_residual) <= tol


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


def test_scalar_callable_target_matches_float_target():
    # a callable returning one number stands for that number at every node
    by_float = approximate_s_harmonic(1.0, 0.5, 1e-3, [4.0], H)
    by_callable = approximate_s_harmonic(lambda x: 1.0, 0.5, 1e-3, [4.0], H)
    assert np.array_equal(by_callable.w.values, by_float.w.values)
    assert by_callable.approx_error == by_float.approx_error


EVEN_TARGETS = {"one": lambda x: np.ones_like(x),
                "quadratic": lambda x: 1.0 + 0.3 * x**2}


@pytest.mark.parametrize("target", sorted(EVEN_TARGETS))
@pytest.mark.parametrize("h", [2.0**-4, 2.0**-6, 8.0 / 9.0])
@pytest.mark.parametrize("s", [0.3, 0.5, 0.7])
def test_even_target_fit_matches_dense_oracle(monkeypatch, s, h, target):
    # an even target is fitted on the even half (h = 8/9 puts n = 8 nodes on
    # (-4, 4)); the fit map there has the dense map's largest singular value,
    # so the Tikhonov weight is the same, and so are w and the misfit.  At
    # n = 8 the misfit is about 1e-8, a difference of numbers of order 1, so
    # it is held to 1e-9 relative or to the rounding of the target
    f = EVEN_TARGETS[target]
    top, svd = [], strategic.svd

    def recorded_svd(*args, **kwargs):
        out = svd(*args, **kwargs)
        top.append(out[1][0])
        return out

    monkeypatch.setattr(strategic, "svd", recorded_svd)
    res = approximate_s_harmonic(f, s, 1e-14, [4.0], h)
    monkeypatch.undo()
    w, approx_error, norm_m = oracles.ref_harmonic_fit(f, s, 4.0, h)
    rounding = 8.0 * np.finfo(float).eps * f(1.0)  # the largest target value
    assert np.max(np.abs(res.w.values - w)) <= 1e-10 * np.max(np.abs(w))
    assert (abs(res.approx_error - approx_error)
            <= max(1e-9 * approx_error, rounding))
    assert top and abs(top[0] - norm_m) <= 1e-12 * norm_m


@pytest.mark.parametrize("h", [H, 8.0 / 9.0])
def test_even_target_assembles_no_full_matrix(monkeypatch, h):
    def no_full_matrix(*args):
        raise AssertionError("an n x n operator was assembled")

    monkeypatch.setattr(strategic, "assemble_dirichlet", no_full_matrix)
    res = approximate_s_harmonic(1.0, 0.5, 1e-3, [4.0, 6.0], h)
    assert res.w.grid.n == build_grid([(-res.r_used, res.r_used)], h).n
    assert res.approx_error <= 1e-3
    # x^2 sampled is even, as the nodes of (-R, R) mirror exactly
    res = approximate_s_harmonic(lambda x: x**2, 0.5, 0.1, [4.0, 6.0], h)
    assert res.achieved


def test_even_target_off_binary_spacing_takes_the_half_route(monkeypatch):
    # at h = 0.1 the nodes of (-4, 4) mirror exactly, so the sampled
    # 1 + 0.3 x^2 equals its reverse and the fit is folded
    def no_full_matrix(*args):
        raise AssertionError("an n x n operator was assembled")

    monkeypatch.setattr(strategic, "assemble_dirichlet", no_full_matrix)
    res = approximate_s_harmonic(lambda x: 1.0 + 0.3 * x**2, 0.5, 1e-3,
                                 [4.0], 0.1)
    assert res.w.grid.n == 79
    np.testing.assert_array_equal(res.w.values, res.w.values[::-1])


def test_target_that_does_not_mirror_takes_the_dense_route(monkeypatch):
    f = lambda x: 1.0 + x / 4.0
    assembled = []

    def counted(grid, s):
        assembled.append(grid.n)
        return assemble_dirichlet(grid, s)

    def no_half(*args):
        raise AssertionError("a target that does not mirror was folded")

    monkeypatch.setattr(strategic, "assemble_dirichlet", counted)
    monkeypatch.setattr(strategic, "_half_dirichlet", no_half)
    res = approximate_s_harmonic(f, 0.5, 1e-14, [4.0], H)
    monkeypatch.undo()
    w, approx_error, _ = oracles.ref_harmonic_fit(f, 0.5, 4.0, H)
    assert assembled == [res.w.grid.n]
    assert np.max(np.abs(res.w.values - w)) <= 1e-10 * np.max(np.abs(w))
    assert abs(res.approx_error - approx_error) <= 1e-9 * approx_error
