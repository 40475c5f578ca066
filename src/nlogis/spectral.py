"""First Dirichlet eigenpairs and the eigenvalue comparisons behind every
survival threshold.

The eigenvalue solved for is the smallest lambda with A e = lambda e, which
equals the minimum of quadratic_form(A, u) / l2_norm(u)^2 over nonzero
fields: the h in the form and the h in the norm cancel, so the survival
threshold compares directly with the resource rate sigma.  It is found by
ARPACK's Lanczos iteration (scipy eigsh) on A^-1, applied through one
Cholesky factorization of A.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy.linalg import cho_factor, cho_solve, LinAlgError, norm
from scipy.sparse.linalg import ArpackNoConvergence, LinearOperator, eigsh

from .errors import ConvergenceError
from .grids import Field, build_grid, l2_norm
from .operators import NonlocalMatrix, assemble, quadratic_form

__all__ = [
    "EigenPair",
    "first_eigenpair",
    "rayleigh",
    "eigen_scaling",
    "union_eigen_study",
    "UnionStudy",
    "ScalingStudy",
]


@dataclass(frozen=True)
class EigenPair:
    """Smallest eigenvalue with its positive, L2-normalized eigenvector."""

    lambda_: float
    vector: Field
    residual: float
    iterations: int


def _inverse_lanczos(a: np.ndarray) -> tuple[np.ndarray, int]:
    """Lanczos vector for the largest eigenvalue of (a + jitter I)^-1, after
    one more solve, and the number of solves with the factor."""
    n = a.shape[0]
    diag = np.diag_indices(n)
    scale = float(np.max(np.abs(a[diag])))
    jitter = 0.0
    factor = None
    while factor is None:
        # a + jitter I in Fortran order, factored in its own storage
        work = np.array(a, order="F")
        work[diag] += jitter
        try:
            factor = cho_factor(work, lower=True, overwrite_a=True,
                                check_finite=False)
        except LinAlgError:
            jitter = max(1e-14 * scale, 4.0 * jitter)
            if jitter > 1e-6 * scale:
                raise
    solves = 0

    def solve(x):
        nonlocal solves
        solves += 1
        return cho_solve(factor, x, check_finite=False)

    inverse = LinearOperator((n, n), matvec=solve, dtype=float)
    try:
        _, ritz = eigsh(inverse, k=1, which="LM", v0=np.ones(n), tol=0)
    except ArpackNoConvergence as exc:
        raise ConvergenceError(
            f"Lanczos iteration for the first eigenpair did not converge: {exc}"
        ) from exc
    return solve(ritz[:, 0]), solves


def first_eigenpair(op: NonlocalMatrix, tol: float = 1e-10) -> EigenPair:
    """Smallest eigenpair by shift-invert Lanczos on one Cholesky factor.

    A is factored once; ARPACK's Lanczos iteration (eigsh) runs on its
    inverse, started from the all-ones vector, so the result is
    deterministic.  A tiny diagonal jitter handles positive semidefinite
    matrices whose smallest eigenvalue is zero (periodic variant).  One
    more solve with the factor polishes the Ritz vector; iterations counts
    every solve.

    The residual ||A e - lambda e|| must be within tol max(1, |lambda|),
    else ConvergenceError is raised.  A y is computed to about
    eps ||A||_inf, which bounds how small the residual can get; the error
    names that floor when the residual is within 4 eps ||A||_inf of zero.
    """
    a = op.a
    if a.shape[0] == 1:  # eigsh needs more nodes than eigenpairs
        x, solves = np.ones(1), 0
    else:
        x, solves = _inverse_lanczos(a)
    x /= np.linalg.norm(x)
    ax = a @ x
    lam = float(x @ ax)
    res = float(np.linalg.norm(ax - lam * x))
    target = tol * max(1.0, abs(lam))
    if res > target:
        message = (f"eigenpair residual {res:.3e} after {solves} solves "
                   f"exceeds tolerance {target:.3e}")
        floor = 4.0 * np.finfo(float).eps * norm(a, np.inf, check_finite=False)
        if res <= floor:
            message += (f"; it is within its roundoff floor 4 eps ||A||_inf "
                        f"= {floor:.3e}, so the tolerance is out of reach")
        raise ConvergenceError(message)
    if np.sum(x) < 0.0:
        x = -x
    e = Field(grid=op.grid, values=x)
    e = Field(grid=op.grid, values=x / l2_norm(e))
    return EigenPair(lambda_=lam, vector=e, residual=res, iterations=solves)


def rayleigh(op: NonlocalMatrix, u: Field) -> float:
    """quadratic_form(A, u) / ||u||^2, an upper bound for the first eigenvalue."""
    nrm = l2_norm(u)
    if nrm == 0.0:
        raise ValueError("Rayleigh quotient of the zero field")
    return quadratic_form(op, u) / nrm**2


@dataclass(frozen=True)
class ScalingStudy:
    lambda_scaled: float
    ratio: float
    target: float


def eigen_scaling(
    intervals: Sequence[tuple[float, float]],
    r: float,
    s: float,
    h: float,
) -> ScalingStudy:
    """Eigenvalues of a domain and its r-dilation on equal-resolution grids.

    The dilation law predicts ratio = r^(-2s); both grids share the same
    spacing h, so the scaled interval lengths must stay commensurate.
    """
    if r <= 0.0:
        raise ValueError("scaling factor r must be positive")
    base = build_grid(intervals, h)
    scaled = build_grid([(r * a, r * b) for a, b in intervals], h)
    lam0 = first_eigenpair(assemble(base, s)).lambda_
    lam1 = first_eigenpair(assemble(scaled, s)).lambda_
    return ScalingStudy(
        lambda_scaled=lam1,
        ratio=lam1 / lam0,
        target=r ** (-2.0 * s) if s < 1.0 else r**-2.0,
    )


@dataclass(frozen=True)
class UnionStudy:
    lambda_union: float
    lambda_single: float
    gap: float


def union_eigen_study(
    interval_1: tuple[float, float],
    interval_2: tuple[float, float],
    s: float,
    h: float,
) -> UnionStudy:
    """Compare the eigenvalue of one habitat with that of two congruent ones.

    For s in (0, 1) the cross interactions of the union strictly lower the
    eigenvalue; in the classical limit s = 1 the union sees no coupling and
    the gap vanishes.
    """
    len1 = interval_1[1] - interval_1[0]
    len2 = interval_2[1] - interval_2[0]
    if abs(len1 - len2) > 1e-12 * max(len1, len2):
        raise ValueError("intervals must be congruent")
    single = build_grid([interval_1], h)
    union = build_grid([interval_1, interval_2], h)
    lam_single = first_eigenpair(assemble(single, s)).lambda_
    lam_union = first_eigenpair(assemble(union, s)).lambda_
    return UnionStudy(
        lambda_union=lam_union,
        lambda_single=lam_single,
        gap=lam_single - lam_union,
    )
