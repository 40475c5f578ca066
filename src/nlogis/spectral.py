"""First Dirichlet eigenpairs and the eigenvalue comparisons behind every
survival threshold.

The eigenvalue solved for is the smallest lambda with A e = lambda e, which
equals the minimum of quadratic_form(A, u) / l2_norm(u)^2 over nonzero
fields: the h in the form and the h in the norm cancel, so the survival
threshold compares directly with the resource rate sigma.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy.linalg import cho_factor, cho_solve, LinAlgError, norm

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


def first_eigenpair(
    op: NonlocalMatrix, tol: float = 1e-10, max_iter: int = 400
) -> EigenPair:
    """Smallest eigenpair by inverse power iteration with one Rayleigh shift.

    Deterministic: the start vector is all ones, the shift is a function of
    the iterates only.  A tiny diagonal jitter handles positive
    semidefinite matrices whose smallest eigenvalue is zero (periodic
    variant).  Once the residual is within 1e-2 of the eigenvalue the
    matrix is refactored once, shifted just below the Rayleigh quotient;
    a Dirichlet eigenpair thus takes two Cholesky factorizations.

    A y is computed to about eps ||A||_inf, which bounds how small the
    residual can get.  When the residual fails to halve three times in a
    row within 4 eps ||A||_inf of zero it has reached that floor, and a
    ConvergenceError naming it is raised instead of iterating on.
    """
    a = op.a
    n = a.shape[0]
    diag = np.diag_indices(n)
    scale = float(np.max(np.abs(a[diag])))

    def shifted_factor(c: float):
        # a + c I in Fortran order, factored in its own storage
        work = np.array(a, order="F")
        work[diag] += c
        return cho_factor(work, lower=True, overwrite_a=True, check_finite=False)

    jitter = 0.0
    factor = None
    while factor is None:
        try:
            factor = shifted_factor(jitter)
        except LinAlgError:
            jitter = max(1e-14 * scale, 4.0 * jitter)
            if jitter > 1e-6 * scale:
                raise
    shifted = False
    x = np.ones(n) / np.sqrt(n)
    lam = float(x @ (a @ x))
    res = np.inf
    floor = None
    stalls = 0
    it = 0
    for it in range(1, max_iter + 1):
        y = cho_solve(factor, x, check_finite=False)
        y /= np.linalg.norm(y)
        ay = a @ y
        lam = float(y @ ay)
        prev, res = res, float(np.linalg.norm(ay - lam * y))
        x = y
        if res <= tol * max(1.0, abs(lam)):
            break
        if res > 0.5 * prev:
            if floor is None:
                floor = 4.0 * np.finfo(float).eps * norm(a, np.inf, check_finite=False)
            stalls = stalls + 1 if res <= floor else 0
            if stalls == 3:
                raise ConvergenceError(
                    f"eigenvalue iteration stalled at residual {res:.3e} after "
                    f"{it} steps, within its roundoff floor 4 eps ||A||_inf = "
                    f"{floor:.3e}; tolerance {tol * max(1.0, abs(lam)):.3e} is "
                    "out of reach"
                )
        else:
            stalls = 0
        # once roughly converged, refactor once at a shift just below the
        # Rayleigh quotient for the endgame; while the shifted matrix is
        # not positive definite, keep the current factor and retry later
        if not shifted and res <= 1e-2 * max(1.0, abs(lam)):
            trial = lam - 2.0 * res - jitter
            if trial > 0.0:
                try:
                    factor = shifted_factor(jitter - trial)
                    shifted = True
                except LinAlgError:
                    pass
    else:
        raise ConvergenceError(
            f"eigenvalue iteration did not reach tolerance {tol} in {max_iter} steps "
            f"(residual {res:.3e})"
        )
    if np.sum(x) < 0.0:
        x = -x
    e = Field(grid=op.grid, values=x)
    e = Field(grid=op.grid, values=x / l2_norm(e))
    return EigenPair(lambda_=lam, vector=e, residual=res, iterations=it)


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
