import json
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy.linalg import LinAlgError, eigh
from scipy.sparse.linalg import ArpackNoConvergence

import nlogis.cli as cli
import oracles
from nlogis import operators, spectral
from nlogis import (
    ConvergenceError,
    assemble,
    assemble_classical,
    assemble_dirichlet,
    assemble_periodic,
    build_grid,
    assemble_transmission,
    build_periodic_grid,
    eigen_scaling,
    first_eigenpair,
    l2_norm,
    sample_function,
    transmission_spec,
    union_eigen_study,
)
from nlogis.operators import NonlocalMatrix, _half_operator


def test_classical_eigenvalue_approaches_pi_squared():
    grid = build_grid([(0.0, 1.0)], 2.0**-10)
    pair = first_eigenpair(assemble_classical(grid))
    assert abs(pair.lambda_ / np.pi**2 - 1.0) <= 5e-3


def test_fractional_eigenvalue_matches_dense_solver():
    # dense-eigendecomposition oracle; h capped at 2^-10 on (-1, 1) to stay
    # within the desk-scale matrix budget
    grid = build_grid([(-1.0, 1.0)], 2.0**-10)
    op = assemble_dirichlet(grid, 0.5)
    pair = first_eigenpair(op)
    lam_oracle = eigh(op.a, subset_by_index=[0, 0], driver="evr")[0][0]
    assert abs(pair.lambda_ / lam_oracle - 1.0) <= 1e-2
    assert abs(pair.lambda_ - lam_oracle) <= 1e-8 * lam_oracle


@pytest.mark.parametrize("s", [0.25, 0.5, 0.75])
@pytest.mark.parametrize("intervals", [
    [(0.0, 1.0)],
    [(0.0, 1.0), (2.0, 3.0)],
])
def test_eigenvector_positive_and_normalized(s, intervals):
    grid = build_grid(intervals, 2.0**-5)
    pair = first_eigenpair(assemble_dirichlet(grid, s))
    assert pair.vector.values.min() > 0.0
    assert l2_norm(pair.vector) == pytest.approx(1.0, abs=1e-12)


def test_eigen_residual_contract():
    grid = build_grid([(0.0, 1.0)], 2.0**-7)
    op = assemble_dirichlet(grid, 0.5)
    pair = first_eigenpair(op)
    e = pair.vector.values
    assert np.linalg.norm(op.a @ e - pair.lambda_ * e) <= 1e-10 * max(
        1.0, pair.lambda_
    ) * np.linalg.norm(e) * 10


def _rayleigh(op, u):
    """u.Au / u.u, an upper bound for the first eigenvalue."""
    return (u @ (op.a @ u)) / (u @ u)


def test_rayleigh_is_upper_bound():
    grid = build_grid([(0.0, 1.0)], 2.0**-6)
    op = assemble_dirichlet(grid, 0.5)
    pair = first_eigenpair(op)
    assert _rayleigh(op, pair.vector.values) == pytest.approx(pair.lambda_,
                                                              rel=1e-9)
    rng = np.random.default_rng(17)
    for _ in range(1000):
        u = rng.standard_normal(grid.n)
        assert _rayleigh(op, u) >= pair.lambda_ - 1e-10


def test_rayleigh_of_hat_strictly_larger():
    grid = build_grid([(0.0, 1.0)], 2.0**-6)
    op = assemble_dirichlet(grid, 0.5)
    pair = first_eigenpair(op)
    hat = sample_function(grid, lambda y: max(0.0, 1.0 - abs(2.0 * y - 1.0)))
    assert _rayleigh(op, hat.values) > pair.lambda_


def test_scaling_identity_at_unit_ratio():
    [study] = eigen_scaling([(0.0, 1.0)], [1.0], 0.5, 2.0**-6)
    assert study.ratio == 1.0


@pytest.mark.parametrize("s,r", [(0.5, 2.0), (0.25, 3.0)])
def test_scaling_law(s, r):
    [study] = eigen_scaling([(0.0, 1.0)], [r], s, 2.0**-8)
    assert abs(study.ratio / study.target - 1.0) <= 1e-2


def test_scaling_incommensurate_rejected():
    with pytest.raises(ValueError, match="multiple"):
        eigen_scaling([(0.0, 1.0)], [1.0 / 3.0], 0.5, 0.25)
    with pytest.raises(ValueError, match="must be positive"):
        eigen_scaling([(0.0, 1.0)], [2.0, 0.0], 0.5, 0.25)


def test_scaling_computes_the_base_eigenpair_once(monkeypatch):
    calls = []
    original = spectral._first_eigenvalue

    def counted(grid, *args, **kwargs):
        calls.append(grid.n)
        return original(grid, *args, **kwargs)
    monkeypatch.setattr(spectral, "_first_eigenvalue", counted)
    h = 2.0**-5
    studies = eigen_scaling([(0.0, 1.0)], [1.0, 2.0, 3.0], 0.5, h)
    # one base eigenvalue (31 nodes), reused at r = 1, and one per dilation
    assert calls == [31, 63, 95]
    for r, study in zip((1.0, 2.0, 3.0), studies):
        [alone] = eigen_scaling([(0.0, 1.0)], [r], 0.5, h)
        assert study == alone


@pytest.mark.parametrize("s", [0.25, 0.5, 0.75])
def test_union_strict_drop_fractional(s):
    study = union_eigen_study((0.0, 1.0), (2.0, 3.0), s, 2.0**-6)
    assert study.gap > 0.0


def test_union_no_drop_classical():
    study = union_eigen_study((0.0, 1.0), (2.0, 3.0), 1.0, 2.0**-6)
    assert abs(study.gap) <= 1e-8 * study.lambda_single


def test_union_gap_decays_with_separation():
    gaps = []
    for sep in (1.0, 2.0, 4.0, 8.0):
        study = union_eigen_study((0.0, 1.0), (1.0 + sep, 2.0 + sep), 0.5,
                                  2.0**-6)
        gaps.append(study.gap)
    assert all(a > b > 0.0 for a, b in zip(gaps, gaps[1:]))


def test_union_congruence_required():
    with pytest.raises(ValueError, match="congruent"):
        union_eigen_study((0.0, 1.0), (2.0, 3.5), 0.5, 0.25)


def test_domain_monotonicity():
    lam_small = first_eigenpair(
        assemble_dirichlet(build_grid([(0.0, 1.0)], 2.0**-6), 0.5)
    ).lambda_
    lam_large = first_eigenpair(
        assemble_dirichlet(build_grid([(-0.5, 1.5)], 2.0**-6), 0.5)
    ).lambda_
    assert lam_small >= lam_large


def test_semidefinite_periodic_matrix_handled():
    pg = build_periodic_grid(32)
    pair = first_eigenpair(assemble_periodic(pg, 0.5))
    assert abs(pair.lambda_) <= 1e-8
    assert np.ptp(pair.vector.values) <= 1e-6  # the constant mode


# Kulczycki, Kwasnicki, Malecki and Stos (2010): the first eigenvalue of the
# half Laplacian on (-1, 1) is 1.1577738836977; this code's 2s(1-s)
# normalization multiplies it by pi / 2.
KKMS_LAMBDA = 1.1577738836977 * np.pi / 2.0


@pytest.fixture(scope="module")
def half_laplacian_errors():
    """lambda_1(h) - KKMS_LAMBDA on (-1, 1) at h = 2^-8, 2^-9, 2^-10."""
    return {k: first_eigenpair(assemble_dirichlet(
        build_grid([(-1.0, 1.0)], 2.0**-k), 0.5)).lambda_ - KKMS_LAMBDA
        for k in (8, 9, 10)}


def test_half_laplacian_eigenvalue_converges_at_first_order(
        half_laplacian_errors):
    err = half_laplacian_errors
    # measured errors; the discrete eigenvalue approaches from below
    for k, measured in ((8, -6.81e-3), (9, -3.35e-3), (10, -1.65e-3)):
        assert err[k] == pytest.approx(measured, rel=0.05)
    for k in (8, 9):
        assert np.log2(err[k] / err[k + 1]) == pytest.approx(1.02, abs=0.1)


def test_extrapolated_half_laplacian_eigenvalue_matches_closed_form(
        half_laplacian_errors):
    err = half_laplacian_errors
    # 2 lambda(h) - lambda(2h) cancels the first-order term
    assert abs(2.0 * err[10] - err[9]) <= 1e-4


def _roundoff_floor(op):
    """4 eps ||C||_inf of the even half C of op's matrix."""
    c = spectral._EvenHalf.of(op.a).matrix(op.a)
    return 4.0 * np.finfo(float).eps * np.max(np.sum(np.abs(c), axis=1))


def test_eigen_iteration_stops_at_the_roundoff_floor():
    # ||C||_inf = 3.3e5 on the even half here, so C y is computed to about
    # 7e-11, and the 1.07e-10 tolerance lies below the floor
    # 4 eps ||C||_inf = 2.9e-10: the pair is returned within the floor, and
    # so is the full residual of its unfolded vector (1.3e-10)
    op = assemble_dirichlet(build_grid([(0.0, 3.0)], 2.0**-9), 0.9)
    floor = _roundoff_floor(op)
    pair = first_eigenpair(op)
    assert 1e-10 * max(1.0, pair.lambda_) < floor
    assert pair.residual <= floor
    e = pair.vector.values / np.linalg.norm(pair.vector.values)
    assert np.linalg.norm(op.a @ e - pair.lambda_ * e) <= floor


def test_eigen_residual_above_its_tolerance_is_accepted_on_the_floor():
    # on (0, 1) at s = 0.9, h = 2^-11 the half's residual 1.0e-9 exceeds
    # 1e-10 lambda = 7.7e-10, but not the floor 4 eps ||C||_inf = 3.5e-9
    op = assemble_dirichlet(build_grid([(0.0, 1.0)], 2.0**-11), 0.9)
    pair = first_eigenpair(op)
    assert 1e-10 * pair.lambda_ < pair.residual <= _roundoff_floor(op)


def test_eigen_residual_above_the_roundoff_floor_raises(monkeypatch):
    # on the same grid a Lanczos vector that is not an eigenvector is
    # still rejected: the floor bounds rounding, not a wrong vector
    op = assemble_dirichlet(build_grid([(0.0, 3.0)], 2.0**-9), 0.9)
    monkeypatch.setattr(spectral, "_inverse_lanczos",
                        lambda c: (np.ones(c.shape[0]), 1))
    with pytest.raises(ConvergenceError, match="eigenpair residual"):
        first_eigenpair(op)


def test_eigen_iteration_near_the_floor_still_converges():
    # on (0, 1) the same operator scale gives the same floor, but
    # lambda = 7.5 lifts the target above it
    grid = build_grid([(0.0, 1.0)], 2.0**-9)
    pair = first_eigenpair(assemble_dirichlet(grid, 0.9))
    assert pair.residual <= 1e-10 * pair.lambda_


def test_one_cholesky_factorization_per_dirichlet_eigenpair(monkeypatch):
    calls = []
    original = spectral.cho_factor

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)
    monkeypatch.setattr(spectral, "cho_factor", counted)
    for s in (0.3, 1.0):
        pair = first_eigenpair(assemble(build_grid([(0.0, 1.0)], 2.0**-7), s))
        assert pair.iterations >= 2
    assert len(calls) == 2


def test_lanczos_nonconvergence_is_a_convergence_error(monkeypatch, tmp_path,
                                                       capsys):
    def no_convergence(*args, **kwargs):
        raise ArpackNoConvergence("ARPACK error -1: No convergence", [], [])
    monkeypatch.setattr(spectral, "eigsh", no_convergence)
    op = assemble_dirichlet(build_grid([(0.0, 1.0)], 2.0**-5), 0.5)
    with pytest.raises(ConvergenceError, match="Lanczos"):
        first_eigenpair(op)
    cfg_path = tmp_path / "eigen.json"
    cfg_path.write_text(json.dumps({"experiment": "eigen", "h": 2.0**-5,
                                    "s_values": [0.5], "radii": [1.0, 2.0]}))
    assert cli.main(["eigen", "--config", str(cfg_path)]) == 2
    err = capsys.readouterr().err
    assert "did not converge" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("s", [0.3, 1.0])
@pytest.mark.parametrize("n", [1, 2, 7, 8, 255])
def test_half_eigenvalue_is_the_first_eigenpairs(n, s):
    # from the directly assembled even half of one interval
    grid = build_grid([(0.0, 1.0)], 1.0 / (n + 1))
    lam = first_eigenpair(assemble(grid, s)).lambda_
    half = _half_operator(grid, s)
    assert spectral._half_pair(half)[0] == pytest.approx(lam, rel=1e-12)


def _counting_assembly(monkeypatch):
    """The node counts of the grids operators.assemble_dirichlet builds
    from now on."""
    calls = []
    original = operators.assemble_dirichlet

    def counted(grid, s):
        calls.append(grid.n)
        return original(grid, s)
    monkeypatch.setattr(operators, "assemble_dirichlet", counted)
    return calls


@pytest.mark.parametrize("s", [0.2, 0.5, 0.9, 1.0])
@pytest.mark.parametrize("intervals, h", [
    ([(0.0, 1.0)], 2.0**-7),
    ([(-1.0, 1.0)], 2.0**-8),
    ([(0.0, 0.75)], 0.25),
    ([(0.0, 0.5), (0.625, 1.125)], 2.0**-8),
    ([(0.0, 1.0), (1.0 + 2.0**-7, 2.0 + 2.0**-7)], 2.0**-7),
    ([(-2.0, -1.0), (0.3, 1.3)], 2.0**-6),
], ids=["unit", "wide", "one-node", "pair", "pair-one-cell",
        "pair-off-lattice"])
def test_first_eigenvalue_of_a_mirrored_grid_takes_the_direct_half(
        intervals, h, s, monkeypatch):
    grid = build_grid(intervals, h)
    lam = first_eigenpair(assemble(grid, s)).lambda_
    assembled = _counting_assembly(monkeypatch)
    assert spectral._first_eigenvalue(grid, s) == pytest.approx(lam, rel=1e-11)
    assert assembled == []


@pytest.mark.parametrize("s", [0.3, 0.8])
@pytest.mark.parametrize("intervals", [
    [(0.0, 1.0), (1.5, 2.25)],
    [(0.0, 0.5), (1.0, 1.5), (2.0, 2.5)],
], ids=["lopsided-pair", "three"])
def test_first_eigenvalue_of_any_other_grid_is_first_eigenpairs(
        intervals, s, monkeypatch):
    grid = build_grid(intervals, 2.0**-6)
    lam = first_eigenpair(assemble(grid, s)).lambda_
    assembled = _counting_assembly(monkeypatch)
    assert spectral._first_eigenvalue(grid, s) == lam
    assert assembled == [grid.n]


def test_half_eigenvalue_rejects_an_unconverged_vector(monkeypatch):
    # a Lanczos vector that is not an eigenvector fails the half's residual
    half = _half_operator(build_grid([(0.0, 1.0)], 2.0**-4), 0.3)
    monkeypatch.setattr(spectral, "_inverse_lanczos",
                        lambda c: (np.ones(c.shape[0]), 1))
    with pytest.raises(ConvergenceError, match="eigenpair residual"):
        spectral._half_pair(half)


def test_one_node_grid_eigenpair_is_its_entry():
    grid = build_grid([(0.0, 0.5)], 0.25)
    op = assemble_dirichlet(grid, 0.5)
    assert grid.n == 1
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        pair = first_eigenpair(op)
    assert pair.lambda_ == op.a[0, 0]
    assert pair.residual == 0.0
    assert l2_norm(pair.vector) == pytest.approx(1.0, abs=1e-15)


@pytest.fixture
def factored_sizes(monkeypatch):
    """The order of every matrix first_eigenpair hands to cho_factor."""
    sizes = []
    original = spectral.cho_factor

    def recorded(a, *args, **kwargs):
        sizes.append(a.shape[0])
        return original(a, *args, **kwargs)
    monkeypatch.setattr(spectral, "cho_factor", recorded)
    return sizes


def _dense_pair(op):
    """The smallest eigenpair by a dense eigendecomposition, the vector
    unit-length with a positive sum."""
    [lam], v = eigh(op.a, subset_by_index=[0, 0])
    v = v[:, 0]
    return lam, v * np.sign(v.sum())


def _unit(pair):
    x = pair.vector.values
    return x / np.linalg.norm(x)


def _persymmetric(n, seed):
    """A random symmetric matrix that equals its reversal J a J exactly."""
    b = np.random.default_rng(seed).standard_normal((n, n))
    a = b + b.T
    return a + a[::-1, ::-1]


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_even_half_is_the_dense_fold(n):
    a = _persymmetric(n, n)
    even = spectral._EvenHalf.of(a)
    assert even.mirrored and even.m == (n + 1) // 2
    p, w = oracles.ref_mirror(n)
    dense = oracles.ref_fold(a)
    # relative to the entries summed, as a folded entry may cancel
    assert np.max(np.abs(even.matrix(a) - dense)) <= 1e-15 * np.max(np.abs(a))
    y = np.random.default_rng(n + 10).uniform(-1.0, 1.0, even.m)
    u = p @ y  # an even field
    np.testing.assert_array_equal(even.mirror(y), u)
    np.testing.assert_allclose(even.unfold(y), p @ (y / np.sqrt(np.diag(w))),
                               rtol=1e-15)
    np.testing.assert_allclose(even.fold(u), np.sqrt(np.diag(w)) * y,
                               rtol=1e-15)
    np.testing.assert_allclose(even.unfold(even.fold(u)), u, rtol=1e-15)
    np.testing.assert_allclose(even.fold(even.unfold(y)), y, rtol=1e-15)


@pytest.mark.parametrize("n", [1, 2, 5, 6])
def test_even_half_identity_returns_its_input(n):
    rng = np.random.default_rng(n)
    a = rng.standard_normal((n, n))
    u = rng.standard_normal(n)
    even = spectral._EvenHalf(n)
    assert not even.mirrored and even.m == n
    assert np.array_equal(even.matrix(a), a)
    for fn in (even.fold, even.unfold, even.mirror):
        assert np.array_equal(fn(u), u)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_even_half_decision_is_exact(n):
    # the scan allows 64 eps max|diag a|: a persymmetric matrix folds, one
    # moved by 1e-8 of it does not
    a = _persymmetric(n, n)
    assert spectral._EvenHalf.of(a).mirrored
    moved = a.copy()
    moved[0, 0] += 1e-8 * np.max(np.abs(np.diag(a)))
    assert not spectral._EvenHalf.of(moved).mirrored


@pytest.mark.parametrize("intervals,h,n", [
    ([(0.0, 1.0)], 2.0**-5, 31),                  # one interval, odd n
    ([(0.0, 1.0), (1.5, 2.5)], 2.0**-5, 62),      # mirrored pair, even n
    ([(0.0, 0.5)], 0.25, 1),
    ([(0.0, 0.75)], 0.25, 2),
    ([(0.0, 1.0)], 0.25, 3),
])
def test_mirrored_eigenpair_is_computed_on_the_even_half(intervals, h, n,
                                                         factored_sizes):
    op = assemble_dirichlet(build_grid(intervals, h), 0.5)
    assert op.a.shape[0] == n
    given = op.a.copy()
    pair = first_eigenpair(op)
    # a solve's model may share op.a: only its fold is factored
    np.testing.assert_array_equal(op.a, given)
    lam, v = _dense_pair(op)
    assert abs(pair.lambda_ - lam) <= 1e-12 * lam
    assert np.max(np.abs(_unit(pair) - v)) <= 1e-12 * np.max(np.abs(v))
    # eigsh needs two nodes, so a fold to one node is never factored
    assert factored_sizes == ([(n + 1) // 2] if n > 2 else [])


def test_reducible_mirrored_pair_gets_an_even_positive_vector(
        factored_sizes):
    # at s = 1 the two intervals do not interact: lambda is double, and
    # eigh may return any vector of its eigenspace
    op = assemble_classical(build_grid([(0.0, 1.0), (2.0, 3.0)], 2.0**-5))
    pair = first_eigenpair(op)
    lam = eigh(op.a, subset_by_index=[0, 1], eigvals_only=True)
    assert lam[1] - lam[0] <= 1e-12 * lam[0]
    assert abs(pair.lambda_ - lam[0]) <= 1e-12 * lam[0]
    x = pair.vector.values
    assert x.min() > 0.0
    np.testing.assert_array_equal(x, x[::-1])
    assert factored_sizes == [31]


def test_folded_periodic_eigenpair_survives_a_jittered_retry(monkeypatch):
    # the semidefinite periodic matrix may or may not factor without
    # jitter; failing the first attempt makes the retry certain, and it
    # must refactor the intact folded matrix
    sizes = []
    original = spectral.cho_factor

    def fail_first(a, *args, **kwargs):
        sizes.append(a.shape[0])
        if len(sizes) == 1:
            raise LinAlgError("not positive definite")
        return original(a, *args, **kwargs)
    monkeypatch.setattr(spectral, "cho_factor", fail_first)
    op = assemble_periodic(build_periodic_grid(48), 0.5)
    given = op.a.copy()
    pair = first_eigenpair(op)
    np.testing.assert_array_equal(op.a, given)
    lam, v = _dense_pair(op)
    assert abs(pair.lambda_ - lam) <= 1e-12 * np.max(np.abs(op.a))
    assert np.max(np.abs(_unit(pair) - v)) <= 1e-12 * np.max(np.abs(v))
    assert sizes == [24, 24]


def _perturbed_dirichlet():
    """The Dirichlet matrix on (0, 1) with one entry and its transpose
    moved by 1e-10 max|A|, so that it no longer mirrors."""
    op = assemble_dirichlet(build_grid([(0.0, 1.0)], 2.0**-5), 0.5)
    a = op.a.copy()
    a[0, 1] += 1e-10 * np.max(np.abs(a))
    a[1, 0] = a[0, 1]
    return NonlocalMatrix(grid=op.grid, a=a)


@pytest.mark.parametrize("make_op", [
    lambda: assemble_transmission(transmission_spec(
        (0.0, 1.0), (1.5, 2.5), 2.0**-5, s=0.5, s1=0.4, s2=0.6, nu1=1.0,
        nu2=1.0, sigma=1.0, mu=1.0)),
    lambda: assemble_dirichlet(build_grid([(0.0, 1.0), (1.5, 2.25)],
                                          2.0**-4), 0.5),
    _perturbed_dirichlet,
], ids=["transmission", "asymmetric-union", "perturbed-entry"])
def test_operators_that_do_not_mirror_are_factored_whole(make_op,
                                                         factored_sizes):
    op = make_op()
    given = op.a.copy()
    pair = first_eigenpair(op)
    # factored from a copy, as a solve's model may share op.a
    np.testing.assert_array_equal(op.a, given)
    lam, v = _dense_pair(op)
    assert abs(pair.lambda_ - lam) <= 1e-12 * lam
    assert np.max(np.abs(_unit(pair) - v)) <= 1e-12 * np.max(np.abs(v))
    assert factored_sizes == [op.a.shape[0]]


def _counting_solves(monkeypatch):
    """The order of the factor of every cho_solve spectral makes from now
    on."""
    orders = []
    original = spectral.cho_solve

    def counted(factor, *args, **kwargs):
        orders.append(factor[0].shape[0])
        return original(factor, *args, **kwargs)
    monkeypatch.setattr(spectral, "cho_solve", counted)
    return orders


@pytest.mark.parametrize("s", [0.3, 0.6, 0.9])
def test_first_eigenvalue_takes_a_few_solves_and_keeps_lambda(s,
                                                               monkeypatch):
    # the half of (0, 4) at h = 2^-9 has order 1024; ARPACK's default 20
    # Lanczos vectors took 22 solves here, 8 vectors stopped at 1e-12 take
    # 14, 10 and 10
    grid = build_grid([(0.0, 4.0)], 2.0**-9)
    half = _half_operator(grid, s)
    solves = _counting_solves(monkeypatch)
    lam = spectral._first_eigenvalue(grid, s)
    few = len(solves)
    assert few <= 16 and set(solves) == {1024}
    # dense eigh is accurate to about eps ||C||, which is 7e-11 at s = 0.9
    dense = eigh(half, subset_by_index=[0, 0], eigvals_only=True)[0]
    assert abs(lam - dense) <= 1e-12 * np.max(np.abs(np.diag(half)))
    # and lambda is the one a full 20-vector Krylov space run to ARPACK's
    # machine precision finds
    monkeypatch.setattr(spectral, "_KRYLOV_VECTORS", 20)
    monkeypatch.setattr(spectral, "_LANCZOS_TOL", 0.0)
    assert lam == pytest.approx(spectral._half_pair(half)[0], rel=1e-12)
    assert len(solves) - few == 22


def test_first_eigenvalue_holds_one_half_matrix():
    # the half is factored in place and rebuilt: no second m x m matrix
    grid = build_grid([(0.0, 4.0)], 2.0**-9)
    m = (grid.n + 1) // 2
    tracemalloc.start()
    try:
        spectral._first_eigenvalue(grid, 0.6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.25 * 8 * m**2


@pytest.mark.parametrize("m", [1, 2, 64, 65, 130])
def test_symmetrize_copies_the_lower_triangle_up(m):
    a = np.random.default_rng(m).standard_normal((m, m))
    c = a.copy()
    spectral._symmetrize(c)
    np.testing.assert_array_equal(np.tril(c), np.tril(a))
    np.testing.assert_array_equal(c, c.T)
    diag = np.arange(m, dtype=float)
    spectral._symmetrize(c, diag)
    np.testing.assert_array_equal(np.diag(c), diag)
    np.testing.assert_array_equal(np.tril(c, -1), np.tril(a, -1))


@pytest.mark.parametrize("fail_first", [False, True], ids=["once", "retry"])
def test_half_pair_rebuilds_the_matrix_it_factors(fail_first, monkeypatch):
    # an exactly symmetric c comes back bit for bit, from a factor in place
    # and from a failed one followed by a jittered retry
    c = _half_operator(build_grid([(0.0, 1.0)], 2.0**-7), 0.5)
    given = c.copy()
    calls = []
    original = spectral.cho_factor

    def factor(a, *args, **kwargs):
        calls.append(kwargs["overwrite_a"])
        if fail_first and len(calls) == 1:
            original(a, *args, **kwargs)  # overwrite it as a failure would
            raise LinAlgError("not positive definite")
        return original(a, *args, **kwargs)
    monkeypatch.setattr(spectral, "cho_factor", factor)
    lam, y, res, _ = spectral._half_pair(c)
    np.testing.assert_array_equal(c, given)
    assert calls == [True] * (1 + fail_first)
    assert res == np.linalg.norm(given @ y - lam * y)


@pytest.mark.parametrize("s", [0.3, 1.0])
@pytest.mark.parametrize("intervals, h", [
    ([(0.0, 1.0)], 2.0**-5),
    ([(0.0, 1.0)], 1.0 / 33),
    ([(0.0, 1.0), (1.5, 2.5)], 2.0**-5),
], ids=["one-odd", "one-even", "pair"])
def test_half_operator_is_exactly_symmetric(intervals, h, s):
    half = _half_operator(build_grid(intervals, h), s)
    assert np.array_equal(half, half.T)


def test_fold_symmetric_to_rounding_gives_the_dense_eigenvalue():
    # the fold of (0.2, 0.9) at h = 0.07 is symmetric only to rounding; its
    # lower triangle, the one eigh reads, is the matrix factored and read
    op = assemble(build_grid([(0.2, 0.9)], 0.07), 0.5)
    c = spectral._EvenHalf.of(op.a).matrix(op.a)
    assert not np.array_equal(c, c.T)
    lam = eigh(c, subset_by_index=[0, 0], eigvals_only=True)[0]
    assert abs(first_eigenpair(op).lambda_ - lam) <= 1e-12 * lam
