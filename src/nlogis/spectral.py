"""First Dirichlet eigenpairs and the eigenvalue comparisons behind every
survival threshold.

The eigenvalue solved for is the smallest lambda with A e = lambda e, which
equals the minimum of the form h u^T A u over l2_norm(u)^2 = h u^T u for
nonzero fields u: the h in the form and in the norm cancel, so the survival
threshold compares directly with the resource rate sigma.  It is found by
ARPACK's Lanczos iteration (scipy eigsh, 8 Lanczos vectors, stopped at a
relative Ritz estimate of 1e-12) on A^-1, applied through one Cholesky
factorization of A, or of A folded onto its even half when the habitat
mirrors onto itself.  One core, _half_pair, factors its matrix in place,
rebuilds it from the triangle LAPACK leaves untouched and reads lambda
and the residual on it, under one residual contract; so the matrix must
be exactly symmetric, and only one matrix of the factored order is held.

The callers that need lambda alone, eigen_scaling, union_eigen_study and
in logistic ext_crossing and critical_radius, take the even half of a grid
that mirrors (operators._mirrors) straight from the O(n) distance tables
(_first_eigenvalue, operators._half_operator) and form no n x n matrix;
so does the steady-state solve's model (logistic._half_model).
first_eigenpair, which also returns the eigenvector, is given a bare
matrix, which it scans for the mirror and folds (_EvenHalf): the solve's
eigenvector start, cli's lambda_1 and any other grid take that route.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy.linalg import cho_factor, cho_solve, LinAlgError, norm
from scipy.sparse.linalg import ArpackNoConvergence, LinearOperator, eigsh

from .errors import ConvergenceError
from .grids import Field, Grid, build_grid, l2_norm
from .operators import (NonlocalMatrix, _half_operator, _mirrors,
                        _weigh_middle, assemble)

__all__ = [
    "EigenPair",
    "first_eigenpair",
    "eigen_scaling",
    "union_eigen_study",
    "UnionStudy",
    "ScalingStudy",
]


@dataclass(frozen=True)
class EigenPair:
    """Smallest eigenvalue with its positive, L2-normalized eigenvector.

    residual is ||A e - lambda e|| for e of unit Euclidean norm, read on the
    matrix the pair was computed on: the even half C when A mirrors, where
    ||C y - lambda y|| equals it in exact arithmetic (see _half_pair).
    """

    lambda_: float
    vector: Field
    residual: float
    iterations: int


# ARPACK's default of 20 Lanczos vectors costs 22 solves per eigenpair, 8
# cost 10 to 18 on the benchmark's eigenpairs (6 saved 3% more, 10 cost 5%)
_KRYLOV_VECTORS = 8
# the relative Ritz estimate to stop at: at the residual contract's own
# 1e-10 the vector on a mirrored pair drifted 5.8e-13 from a dense eigh
_LANCZOS_TOL = 1e-12


def _symmetrize(c: np.ndarray, diag: np.ndarray | None = None) -> None:
    """Copy the strict lower triangle of c over its strict upper one, one
    panel of 64 rows at a time, so that no m x m temporary is made; then
    set the diagonal to diag when given.

    This is the triangle cho_factor(c.T, lower=True) leaves untouched, so
    after a factorization in place it rebuilds c, bit for bit when c was
    exactly symmetric and its diagonal is diag.  A panel is copied in 64 x
    64 tiles: a transposed tile then stays in cache, where a whole panel
    took twice as long at order 1024.
    """
    m = c.shape[0]
    for r in range(0, m, 64):
        e = min(r + 64, m)
        block = c[r:e, r:e]
        upper = np.triu_indices(e - r, 1)
        block[upper] = block.T[upper]
        for q in range(e, m, 64):
            c[r:e, q:q + 64] = c[q:q + 64, r:e].T
    if diag is not None:
        c[np.diag_indices(m)] = diag


def _inverse_lanczos(c: np.ndarray) -> tuple[np.ndarray, int]:
    """Lanczos vector for the largest eigenvalue of (c + jitter I)^-1, after
    one more solve, and the number of solves with the factor.

    c, symmetric and C-ordered, is factored in place: LAPACK factors its
    transpose, the same symmetric matrix in Fortran order, and overwrites
    the upper triangle of c and its diagonal.  _symmetrize rebuilds c
    from its strict lower triangle and the saved diagonal before a
    jittered retry and once the last solve is made, so c is returned as
    it was given when it is exactly symmetric.  eigsh runs _KRYLOV_VECTORS
    Lanczos vectors from the all-ones start and stops at _LANCZOS_TOL.
    """
    n = c.shape[0]
    diag = np.diag_indices(n)
    saved = c[diag]
    scale = float(np.max(np.abs(saved)))
    jitter = 0.0
    factor = None
    while factor is None:
        c[diag] += jitter
        try:
            factor = cho_factor(c.T, lower=True, overwrite_a=True,
                                check_finite=False)
        except LinAlgError:
            _symmetrize(c, saved)
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
        _, ritz = eigsh(inverse, k=1, which="LM", v0=np.ones(n),
                        ncv=min(n, _KRYLOV_VECTORS), tol=_LANCZOS_TOL)
        return solve(ritz[:, 0]), solves
    except ArpackNoConvergence as exc:
        raise ConvergenceError(
            f"Lanczos iteration for the first eigenpair did not converge: {exc}"
        ) from exc
    finally:
        _symmetrize(c, saved)


class _EvenHalf:
    """The even half of the fields on n nodes when they mirror, else the
    identity: m = n, root_w = 1, and every map returns its input.

    On the even half a field y on the first m = ceil(n/2) nodes stands for
    the even field P W^-1/2 y (unfold), where P y = (y, reversed y), the
    middle entry of an odd n counted once, W = P^T P = diag(2, ..., 2[, 1])
    and root_w = sqrt w.  An even u has the coordinates W^1/2 u[:m] (fold),
    and a matrix a the folded W^-1/2 P^T a P W^-1/2 (matrix).

    The fold is exact for the matrices it is used on.  An operator less
    tau B, plus a diagonal, is a symmetric Z-matrix, which commutes with the
    reversal J when it mirrors.  By Perron-Frobenius the lowest eigenvector
    of each irreducible block is positive and simple, hence even when J
    maps the block onto itself, and e + J e is even when J swaps two
    blocks: the smallest eigenvalue is reached on even vectors, so the
    first eigenpair is found on the half, and a folded Cholesky
    factorization succeeds exactly when the full one does.  A descent from
    an even start stays even, and for mu > 0 the positive steady state is
    unique (Brezis-Oswald), hence even.  As P W^-1/2 has orthonormal
    columns, a residual read on the half is the unfolded field's full one
    in exact arithmetic, so eigenpairs and steady states are checked on the
    half and only unfolded to be reported.
    """

    def __init__(self, n: int, mirrored: bool = False):
        self.n, self.mirrored = n, mirrored
        self.m = (n + 1) // 2 if mirrored else n
        # w is 2, but 1 at the middle node of an odd n
        self.root_w = (np.sqrt(np.where(np.arange(self.m) < n // 2, 2.0, 1.0))
                       if mirrored else 1.0)

    @classmethod
    def of(cls, a: np.ndarray) -> "_EvenHalf":
        """The even half when a is persymmetric, a = J a J, within 64 eps
        max|diag a|; else the identity.  a is compared 32 rows at a time, so
        that no n x n temporary is made, and the scan stops at the first
        rows that differ."""
        n = a.shape[0]
        tol = 64.0 * np.finfo(float).eps * float(np.max(np.abs(np.diag(a))))
        flipped = a[::-1, ::-1]
        return cls(n, all(np.max(np.abs(a[r:r + 32] - flipped[r:r + 32])) <= tol
                          for r in range(0, (n + 1) // 2, 32)))

    def matrix(self, a: np.ndarray) -> np.ndarray:
        """W^-1/2 P^T a P W^-1/2: c_ij = a_ij + a_{i,n-1-j} on the first m
        nodes, the middle row and column of an odd n scaled by 1/sqrt 2
        (operators._weigh_middle).  One node folds onto itself: a is
        returned, where the weighing would leave it an ulp off."""
        if not self.mirrored or self.n == 1:
            return a
        return _weigh_middle(a[:self.m, :self.m] + a[:self.m, ::-1][:, :self.m],
                             self.n)

    def fold(self, u: np.ndarray) -> np.ndarray:
        """The coordinates W^1/2 u[:m] of an even field u."""
        return self.root_w * u[:self.m] if self.mirrored else u

    def mirror(self, y: np.ndarray) -> np.ndarray:
        """P y."""
        return np.concatenate((y, y[::-1][self.n % 2:])) if self.mirrored else y

    def unfold(self, y: np.ndarray) -> np.ndarray:
        """The even field P W^-1/2 y."""
        return self.mirror(y / self.root_w)


def _half_pair(c: np.ndarray) -> tuple[float, np.ndarray, float, int]:
    """(lambda, y, residual, solves): the smallest eigenvalue of the
    symmetric c with its unit eigenvector y, by _inverse_lanczos and the
    Rayleigh quotient, and the residual ||c y - lambda y||.

    c is the caller's to give up: _inverse_lanczos factors it in place and
    rebuilds it from its strict lower triangle, so lambda and the residual
    are read on the matrix that was factored only when c is exactly
    symmetric (_half_operator's halves are; first_eigenpair makes its
    matrix so).

    The residual must be within 1e-10 max(1, |lambda|), or within the
    roundoff floor 4 eps ||c||_inf where that is larger (a normwise backward
    error, as c y is computed only to about eps ||c||_inf), else
    ConvergenceError is raised.  A 1 x 1 c is its own pair.
    """
    if c.shape[0] == 1:  # eigsh needs more nodes than eigenpairs
        return float(c[0, 0]), np.ones(1), 0.0, 0
    y, solves = _inverse_lanczos(c)
    y /= np.linalg.norm(y)
    cy = c @ y
    lam = float(y @ cy)
    res = float(np.linalg.norm(cy - lam * y))
    target = 1e-10 * max(1.0, abs(lam))
    if res > target:
        target = max(target, 4.0 * np.finfo(float).eps
                     * norm(c, np.inf, check_finite=False))
        if res > target:
            raise ConvergenceError(f"eigenpair residual {res:.3e} after "
                                   f"{solves} solves exceeds {target:.3e}")
    return lam, y, res, solves


def first_eigenpair(op: NonlocalMatrix) -> EigenPair:
    """Smallest eigenpair by shift-invert Lanczos on one Cholesky factor.

    A is factored once; ARPACK's Lanczos iteration (eigsh) runs on its
    inverse with 8 Lanczos vectors, started from the all-ones vector, so
    the result is deterministic, until its Ritz estimate is within 1e-12
    of the eigenvalue.  A tiny diagonal jitter handles positive
    semidefinite matrices whose smallest eigenvalue is zero (periodic
    variant).  One more solve with the factor polishes the Ritz vector;
    iterations counts every solve, 10 to 18 on the benchmark's inputs.

    A habitat that mirrors onto itself gives a persymmetric A, and then the
    pair is computed, exactly, on the even half (see _EvenHalf): the
    Lanczos iteration, its factor, lambda and the residual all run on the
    ceil(n/2)-square folded matrix, and the vector is unfolded.  An A that
    is not persymmetric (a transmission form, a union whose nodes do not
    mirror) is factored whole, from a copy: op.a is never written, as a
    solve's model may share it.  The fold, or the copy, is symmetric only
    to rounding; its lower triangle is copied over its upper one
    (_symmetrize) before it is factored in place, so that the factor and
    the residual read one symmetric matrix.  The residual contract is
    _half_pair's.
    """
    even = _EvenHalf.of(op.a)
    c = even.matrix(op.a)
    if c is op.a:
        c = np.array(op.a, order="C")
    _symmetrize(c)
    lam, y, res, solves = _half_pair(c)
    x = even.unfold(y)
    if np.sum(x) < 0.0:
        x = -x
    e = Field(grid=op.grid, values=x)
    e = Field(grid=op.grid, values=x / l2_norm(e))
    return EigenPair(lambda_=lam, vector=e, residual=res, iterations=solves)


def _first_eigenvalue(grid: Grid, s: float) -> float:
    """lambda_1 of assemble(grid, s), under first_eigenpair's residual
    contract.

    A grid that mirrors (operators._mirrors) is known to before any
    assembly: its even half is built straight from O(n) tables
    (operators._half_operator) and _half_pair reads lambda on it, with no
    n x n matrix.  Any other grid is assembled and goes through
    first_eigenpair.
    """
    if _mirrors(grid):
        return _half_pair(_half_operator(grid, s))[0]
    return first_eigenpair(assemble(grid, s)).lambda_


@dataclass(frozen=True)
class ScalingStudy:
    lambda_scaled: float
    ratio: float
    target: float


def eigen_scaling(
    intervals: Sequence[tuple[float, float]],
    radii: Sequence[float],
    s: float,
    h: float,
) -> list[ScalingStudy]:
    """Eigenvalues of a domain and of its r-dilation for each r in radii,
    on equal-resolution grids.

    The dilation law predicts ratio = r^(-2s); both grids share the same
    spacing h, so the scaled interval lengths must stay commensurate.  The
    base eigenvalue is computed once, and reused for a dilated grid equal
    to the base grid.
    """
    if any(r <= 0.0 for r in radii):
        raise ValueError("scaling factor r must be positive")
    base = build_grid(intervals, h)
    scaled = [build_grid([(r * a, r * b) for a, b in intervals], h) for r in radii]
    lam0 = _first_eigenvalue(base, s)
    studies = []
    for r, grid in zip(radii, scaled):
        lam1 = lam0 if grid == base else _first_eigenvalue(grid, s)
        studies.append(ScalingStudy(lambda_scaled=lam1, ratio=lam1 / lam0,
                                    target=r ** (-2.0 * s)))
    return studies


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
    lam_single = _first_eigenvalue(single, s)
    lam_union = _first_eigenvalue(union, s)
    return UnionStudy(
        lambda_union=lam_union,
        lambda_single=lam_single,
        gap=lam_single - lam_union,
    )
