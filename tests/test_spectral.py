import json
import warnings

import numpy as np
import pytest
from scipy.linalg import eigh
from scipy.sparse.linalg import ArpackNoConvergence

import nlogis.cli as cli
from nlogis import spectral
from nlogis import (
    ConvergenceError,
    Field,
    assemble,
    assemble_classical,
    assemble_dirichlet,
    assemble_periodic,
    build_grid,
    build_periodic_grid,
    eigen_scaling,
    first_eigenpair,
    l2_norm,
    rayleigh,
    sample_function,
    union_eigen_study,
)


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
    pair = first_eigenpair(op, tol=1e-10)
    e = pair.vector.values
    assert np.linalg.norm(op.a @ e - pair.lambda_ * e) <= 1e-10 * max(
        1.0, pair.lambda_
    ) * np.linalg.norm(e) * 10


def test_rayleigh_is_upper_bound():
    grid = build_grid([(0.0, 1.0)], 2.0**-6)
    op = assemble_dirichlet(grid, 0.5)
    pair = first_eigenpair(op)
    assert rayleigh(op, pair.vector) == pytest.approx(pair.lambda_, rel=1e-9)
    rng = np.random.default_rng(17)
    for _ in range(1000):
        u = Field(grid=grid, values=rng.standard_normal(grid.n))
        assert rayleigh(op, u) >= pair.lambda_ - 1e-10


def test_rayleigh_of_hat_strictly_larger():
    grid = build_grid([(0.0, 1.0)], 2.0**-6)
    op = assemble_dirichlet(grid, 0.5)
    pair = first_eigenpair(op)
    hat = sample_function(grid, lambda y: max(0.0, 1.0 - abs(2.0 * y - 1.0)))
    assert rayleigh(op, hat) > pair.lambda_


def test_rayleigh_zero_field_rejected():
    grid = build_grid([(0.0, 1.0)], 0.25)
    op = assemble_dirichlet(grid, 0.5)
    with pytest.raises(ValueError, match="zero field"):
        rayleigh(op, sample_function(grid, 0.0))


def test_scaling_identity_at_unit_ratio():
    study = eigen_scaling([(0.0, 1.0)], 1.0, 0.5, 2.0**-6)
    assert study.ratio == 1.0


@pytest.mark.parametrize("s,r", [(0.5, 2.0), (0.25, 3.0)])
def test_scaling_law(s, r):
    study = eigen_scaling([(0.0, 1.0)], r, s, 2.0**-8)
    assert abs(study.ratio / study.target - 1.0) <= 1e-2


def test_scaling_incommensurate_rejected():
    with pytest.raises(ValueError, match="multiple"):
        eigen_scaling([(0.0, 1.0)], 1.0 / 3.0, 0.5, 0.25)


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


def test_eigen_iteration_stops_at_the_roundoff_floor():
    # ||A||_inf = 3.0e5 here, so A y is computed to about 6.7e-11, and
    # the residual sits at 1.34e-10 above the 1.07e-10 tolerance
    grid = build_grid([(0.0, 3.0)], 2.0**-9)
    op = assemble_dirichlet(grid, 0.9)
    with pytest.raises(ConvergenceError, match="roundoff floor"):
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
