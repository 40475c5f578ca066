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
from scipy.linalg import cho_factor, cho_solve, LinAlgError

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
    """Smallest eigenpair by inverse power iteration with Rayleigh shifts.

    Deterministic: the start vector is all ones, the shift schedule is a
    function of the iterates only.  A tiny diagonal jitter handles positive
    semidefinite matrices whose smallest eigenvalue is zero (periodic
    variant).
    """
    a = op.a
    n = a.shape[0]
    scale = float(np.max(np.abs(np.diag(a))))
    jitter = 0.0
    shift = 0.0
    factor = None
    while factor is None:
        try:
            factor = cho_factor(a + (jitter - shift) * np.eye(n), lower=True)
        except LinAlgError:
            jitter = max(1e-14 * scale, 4.0 * jitter)
            if jitter > 1e-6 * scale:
                raise
    x = np.ones(n) / np.sqrt(n)
    lam = float(x @ (a @ x))
    res = np.inf
    it = 0
    for it in range(1, max_iter + 1):
        y = cho_solve(factor, x)
        y /= np.linalg.norm(y)
        lam = float(y @ (a @ y))
        res = float(np.linalg.norm(a @ y - lam * y))
        x = y
        if res <= tol * max(1.0, abs(lam)):
            break
        # once roughly converged, move to Rayleigh-shifted iteration for the
        # endgame; retreat when the shifted matrix loses definiteness
        if res <= 1e-2 * max(1.0, abs(lam)):
            trial = lam - 2.0 * res - jitter
            if trial > shift:
                try:
                    factor = cho_factor(a + (jitter - trial) * np.eye(n), lower=True)
                    shift = trial
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
    lambda_base: float
    lambda_scaled: float
    ratio: float
    target: float


def eigen_scaling(
    intervals: Sequence[tuple[float, float]],
    r: float,
    s: float,
    h: float,
    tol: float = 1e-10,
) -> ScalingStudy:
    """Eigenvalues of a domain and its r-dilation on equal-resolution grids.

    The dilation law predicts ratio = r^(-2s); both grids share the same
    spacing h, so the scaled interval lengths must stay commensurate.
    """
    if r <= 0.0:
        raise ValueError("scaling factor r must be positive")
    base = build_grid(intervals, h)
    scaled = build_grid([(r * a, r * b) for a, b in intervals], h)
    lam0 = first_eigenpair(assemble(base, s), tol=tol).lambda_
    lam1 = first_eigenpair(assemble(scaled, s), tol=tol).lambda_
    return ScalingStudy(
        lambda_base=lam0,
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
    tol: float = 1e-10,
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
    lam_single = first_eigenpair(assemble(single, s), tol=tol).lambda_
    lam_union = first_eigenpair(assemble(union, s), tol=tol).lambda_
    return UnionStudy(
        lambda_union=lam_union,
        lambda_single=lam_single,
        gap=lam_single - lam_union,
    )
