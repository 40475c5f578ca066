"""Discrete steady-state logistic energies, their minimization, and the
threshold experiments on bounded and periodic habitats.

The Dirichlet energy of a field u vanishing outside the habitat is

    E(u) = 1/2 h u^T A u
           + h sum_i [ mu_i |u_i|^3 / 3 - sigma_i u_i^2 / 2
                       - tau u_i (J*u)_i / 2 ]

whose nodal gradient (scaled by 1/h) is the steady logistic equation

    A u + mu |u| u - sigma u - tau (J*u) = 0.

A problem builds its own operator and energy model (_problem); a bounded
one's probe is the habitat's first-eigenvector estimate.  solve_dirichlet
solves every bounded habitat, Dirichlet or transmission, from two
starts, and solve_periodic the periodic cell from one; each names its
starts to one core, _steady_state, with one report, SolveReport.  Without
resources, or when the Hessian at zero is positive definite (mu >= 0
makes the cubic term convex), zero is the only minimizer and the core
returns the trivial state without descending.  A bounded problem known
from its spec to mirror onto itself (_half_model) is built, certified and
descended on its even half, ceil(n/2) nodes, from O(n) tables, where its
residual and energy are read too; only the reported state is unfolded
(spectral._EvenHalf says why that is exact).  The periodic cell's model
is a circulant applied by FFT (_CirculantModel), which keeps no n x n
matrix and is not folded.

Minimization is monotone: every line-searched step strictly decreases the
computed energy, so no step is accepted on a roundoff tie.  A Newton step
on the nodal system is tried first, the model's own: on a bounded habitat
its Hessian is factored by Cholesky, and by a symmetric-indefinite solve
only when it is not positive definite (known without factoring when the
curvature along the probe is negative); on the periodic cell it is solved
by MINRES with a circulant preconditioner.  Where no Newton step is
accepted and the model's probe e (the first eigenvector once it is
computed, else the boundary profile) shows negative curvature (near the
unstable zero, where each symmetric-indefinite Newton direction can point
uphill), a curvature step goes along +-e, downhill, first to the
minimizer of the cubic model of E along e, then backtracking (More and
Sorensen 1979; Gould, Lucidi, Roma and Toint 2000).  A backtracking
Barzilai-Borwein gradient step is the fallback.  A Newton step whose
predicted decrease lies below what the energy resolves goes to an endgame
that accepts it on a halved residual.  The final iterate is replaced by
its absolute value, which can only lower the energy, and descended from
once more.  A report is converged only when the residual is within the
tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy.linalg import LinAlgError, solve
from scipy.linalg.lapack import dpotrf, dpotrs
from scipy.sparse.linalg import LinearOperator, minres

from .errors import ConvergenceError
from .grids import (
    Field,
    Grid,
    PeriodicGrid,
    ProblemSpec,
    build_grid,
    build_kernel,
    problem_spec,
)
from .operators import (NonlocalMatrix, TransmissionSpec, _half_convolution,
                        _half_operator, _mirrors, _periodic_column,
                        _periodic_stencil, assemble, assemble_transmission,
                        convolution_matrix)
from .spectral import (_EvenHalf, _first_eigenvalue, first_eigenpair,
                       union_eigen_study)

__all__ = [
    "SolveReport",
    "energy",
    "energy_gradient",
    "minimize",
    "solve_dirichlet",
    "solve_periodic",
    "check_fitting_bounds",
    "critical_radius",
    "CriticalRadius",
    "ext_crossing",
    "ExtCrossing",
    "congruence_experiment",
    "CongruenceResult",
    "beat_experiment",
    "BeatScan",
]


@dataclass
class SolveReport:
    """Outcome of one energy minimization; iterations counts the descent
    steps of the start whose state is reported, not those of every start."""

    u: Field
    energy: float
    el_residual: float
    iterations: int
    classification: str  # "trivial" or "nontrivial"
    history: list[float]
    converged: bool = True
    dichotomy_ok: bool = True


# ---------------------------------------------------------------------------
# descent engine, shared by the Dirichlet, periodic, transmission and
# forced (strategic) energies
# ---------------------------------------------------------------------------

class _EnergyModel:
    """E(u) = 1/2 h u^T A_eff u + h sum(mu |u|^3/3 + lin u^2/2 - src u).

    probe is (e, A_eff e) for a field e along which the Hessian is expected
    to have negative curvature; every bounded problem's model has one, and
    its descent steps along e where that curvature is negative.  even
    maps the full fields to the model's coordinates: the identity, except
    on a model built on its even half (_half_model).
    """

    def __init__(self, a_eff: np.ndarray, h: float, mu: np.ndarray,
                 lin: np.ndarray, src: np.ndarray | float = 0.0):
        self.a_eff = a_eff
        self.h = h
        self.mu = mu
        self.lin = lin
        self.src = src
        self.abs_diag = np.abs(np.diagonal(a_eff))
        self.probe = None
        self.even = _EvenHalf(lin.size)

    def apply(self, u: np.ndarray) -> np.ndarray:
        """A_eff u."""
        return self.a_eff @ u

    def set_probe(self, e: np.ndarray) -> np.ndarray:
        """Carry (e, A_eff e) as the probe; returns A_eff e."""
        ae = self.apply(e)
        self.probe = (e, ae)
        return ae

    def negative_curvature(self, u: np.ndarray, e: np.ndarray,
                           ae: np.ndarray) -> float:
        """e^T H(u) e when it is negative, which proves H(u) not positive
        definite; else 0.

        The O(n) quadratic form must be negative by more than its rounding
        error (as many ulps of the sum of its terms' magnitudes as the model
        has nodes), so a Cholesky factorization this skips could not have
        succeeded.
        """
        bulk = 2.0 * self.mu * np.abs(u) + self.lin
        e2 = e * e
        curvature = float(e @ ae) + float(bulk @ e2)
        magnitude = float(self.abs_diag @ e2) + float(np.abs(bulk) @ e2)
        if curvature < -e.size * np.finfo(float).eps * magnitude:
            return curvature
        return 0.0

    def sup_norm(self, v: np.ndarray) -> float:
        """Sup norm of the full field whose coordinates are v, a field of
        this model or its gradient: v / sqrt w is its first half."""
        return float(np.max(np.abs(v / self.even.root_w)))

    def resolution(self, u: np.ndarray, e: float) -> float:
        """Smallest energy change the computed energy e = E(u) resolves.

        This is 1e-12 relative to e, or 16 ulps of the sum of the quadratic
        part's terms h a_ii u_i^2 when that is larger: for a stiff operator
        (s = 1 on a fine grid) these terms cancel to an energy many orders
        of magnitude smaller than their sum, but their rounding errors do
        not cancel.
        """
        terms = self.h * float(self.abs_diag @ (u * u))
        return max(1e-12 * (1.0 + abs(e)), 16.0 * np.finfo(float).eps * terms)

    def energy(self, u: np.ndarray) -> float:
        bulk = self.mu * np.abs(u) ** 3 / 3.0 + self.lin * u**2 / 2.0 - self.src * u
        return float(0.5 * self.h * (u @ self.apply(u)) + self.h * bulk.sum())

    def gradient(self, u: np.ndarray) -> np.ndarray:
        return self.apply(u) + self.mu * np.abs(u) * u + self.lin * u - self.src

    def hessian(self, u: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """The Hessian (scaled by 1/h) in C order, written into out if given."""
        hess = np.empty(self.a_eff.shape) if out is None else out
        np.copyto(hess, self.a_eff)
        hess[np.diag_indices_from(hess)] += 2.0 * self.mu * np.abs(u) + self.lin
        return hess

    def newton_direction(self, u: np.ndarray, g: np.ndarray):
        """Solution d of H d = -g, or None when H is singular.

        H is built in C order, so H.T is the Fortran-ordered matrix LAPACK
        works on, and Cholesky factors it in its own storage (H is
        symmetric and only its upper triangle is read).  Only when H is not
        positive definite is it rebuilt in place for the symmetric-indefinite
        solve, so one n x n Hessian is alive at a time.  Cholesky is not
        tried when the model's probe already shows negative curvature.
        """
        hess = self.hessian(u)
        if self.probe is None or not self.negative_curvature(u, *self.probe):
            factor, info = dpotrf(hess.T, lower=True, overwrite_a=True,
                                  clean=False)
            if info == 0:
                d, info = dpotrs(factor, -g, lower=True)
                return d if info == 0 else None
            self.hessian(u, out=hess)
        try:
            return solve(hess.T, -g, assume_a="sym", lower=True,
                         overwrite_a=True)
        except LinAlgError:
            return None


class _CirculantModel(_EnergyModel):
    """The model of the periodic cell, where A_eff is the circulant whose
    first column is col: rfft diagonalizes it, and its eigenvalues are the
    real symbol rfft(col).  A_eff is applied by FFT, so energy and gradient
    cost O(n log n) and no n x n matrix is kept.

    A Newton system (A_eff + diag d) x = -g is solved by MINRES, which
    serves positive definite and indefinite Hessians alike, preconditioned
    by the circulant A_eff + mean(d) I (T. Chan 1988; R. Chan and Strang
    1989) with its symbol taken in absolute value, so that the
    preconditioner is positive definite, and floored away from zero.
    The model is not folded: on its even half A_eff would no longer be a
    circulant.
    """

    def __init__(self, col: np.ndarray, h: float, mu: np.ndarray,
                 lin: np.ndarray):
        self.col = col
        self.symbol = np.fft.rfft(col).real
        self.h, self.mu, self.lin, self.src = h, mu, lin, 0.0
        self.abs_diag = np.full(col.size, abs(col[0]))
        self.probe = None
        self.even = _EvenHalf(col.size)

    def _circulant(self, symbol: np.ndarray, u: np.ndarray) -> np.ndarray:
        return np.fft.irfft(np.fft.rfft(u) * symbol, self.col.size)

    def apply(self, u: np.ndarray) -> np.ndarray:
        return self._circulant(self.symbol, u)

    def newton_direction(self, u: np.ndarray, g: np.ndarray):
        """Solution d of H d = -g by preconditioned MINRES, or None when
        MINRES does not converge within its iteration limit."""
        n = self.col.size
        diag = 2.0 * self.mu * np.abs(u) + self.lin
        shifted = np.abs(self.symbol + diag.mean())
        inverse = 1.0 / np.maximum(shifted, 1e-12 * np.max(shifted))
        hess = LinearOperator((n, n), dtype=float,
                              matvec=lambda x: self.apply(x) + diag * x)
        precond = LinearOperator((n, n), dtype=float,
                                 matvec=lambda r: self._circulant(inverse, r))
        # minres stops on a backward error, ||r|| / (||H|| ||d||); at 1e-12
        # the step was up to 2e-11 off the dense solve even where H is
        # well conditioned, at 1e-14 it is within 2e-13, for about one
        # iteration more
        d, info = minres(hess, -g, rtol=1e-14, maxiter=200, M=precond)
        return d if info == 0 else None


def _backtrack(model: _EnergyModel, u: np.ndarray, e: float, d: np.ndarray,
               slope: float, t: float, tries: int):
    """(u + t d, its energy, t) for the first of the lengths t, t/2, ...
    (tries of them) whose step strictly lowers the energy e = E(u) and by
    at least 1e-4 t h slope, slope = g.d being the rate along d of E / h;
    None when none does."""
    for _ in range(tries):
        trial = u + t * d
        e_trial = model.energy(trial)
        if e_trial < e and e_trial <= e + 1e-4 * t * model.h * slope:
            return trial, e_trial, t
        t *= 0.5
    return None


def _descend_loop(model: _EnergyModel, u: np.ndarray, tol: float, max_iter: int,
                  e: float | None = None):
    """Descend from u, whose energy is e (computed when not given)."""
    e = model.energy(u) if e is None else e
    history = [e]
    grad_step = 1.0
    prev_u = None
    prev_g = None
    newton_failures = 0
    newton_skip = 0
    it = 0
    converged = False
    for it in range(1, max_iter + 1):
        g = model.gradient(u)
        if model.sup_norm(g) <= tol:
            converged = True
            break
        accepted = False
        # Newton step on the nodal system; skipped with exponential backoff
        # while the Hessian is indefinite (early, near the unstable zero)
        if newton_skip == 0:
            d = model.newton_direction(u, g)
            if d is not None and np.all(np.isfinite(d)):
                # g is the gradient scaled by 1/h: E changes at rate h slope
                slope = float(g @ d)
                # a step whose predicted decrease -h slope / 2 is below what
                # the energy resolves would only find roundoff ties
                resolution = model.resolution(u, e)
                if slope < 0.0 and -0.5 * model.h * slope > resolution:
                    step = _backtrack(model, u, e, d, slope, 1.0, 30)
                    if step is not None:
                        (u, e, _), accepted = step, True
                if not accepted:
                    # endgame: the Newton correction may move the energy by
                    # less than roundoff resolves; accept on a solid residual
                    # drop as long as the energy stays flat to its resolution
                    trial = u + d
                    g_trial = model.gradient(trial)
                    e_trial = model.energy(trial)
                    if (model.sup_norm(g_trial) <= 0.5 * model.sup_norm(g)
                            and e_trial <= e + resolution):
                        u, e, accepted = trial, min(e_trial, e), True
            if accepted:
                newton_failures = 0
            else:
                newton_failures += 1
                newton_skip = min(2 ** newton_failures, 64)
        else:
            newton_skip -= 1
        if not accepted and model.probe is not None:
            # negative curvature along the probe e (near the unstable zero):
            # step along +-e downhill, first to the minimizer of the cubic
            # model g.d t + c t^2/2 + b t^3/3 of E / h, then backtracking
            probe, probe_ae = model.probe
            c = model.negative_curvature(u, probe, probe_ae)
            b = float(model.mu @ np.abs(probe) ** 3)
            if c < 0.0 and b > 0.0:
                d = -probe if float(g @ probe) > 0.0 else probe
                slope = float(g @ d)
                t = (-c + np.sqrt(c * c - 4.0 * b * slope)) / (2.0 * b)
                step = _backtrack(model, u, e, d, slope, t, 60)
                if step is not None:
                    (u, e, _), accepted = step, True
        if not accepted:
            # safeguarded gradient step, Barzilai-Borwein initial size
            t = grad_step
            if prev_g is not None:
                du = u - prev_u
                dg = g - prev_g
                curv = float(du @ dg)
                if curv > 0.0:
                    t = float(du @ du) / curv
            t = min(max(t, 1e-12), 1e8)
            prev_u, prev_g = u, g
            step = _backtrack(model, u, e, -g, -float(g @ g), t, 60)
            if step is None:
                # line search exhausted: numerically stationary
                converged = model.sup_norm(model.gradient(u)) <= tol
                break
            u, e, t = step
            grad_step = 2.0 * t
        history.append(e)
    return u, history, it, converged


def _zero_is_minimizer(model: _EnergyModel,
                       out: np.ndarray | None = None) -> bool:
    """True when the Hessian at zero is positive definite.

    With src = 0 and mu >= 0 the energy is then strictly convex and zero is
    its only minimizer.  Negative curvature at zero along the model's probe
    (the habitat's first-eigenvector estimate, see _problem) settles the
    question without factoring; else one Cholesky factorization does, of
    the Hessian written into out when given (see _EnergyModel.hessian).  On
    the periodic cell H(0) is never positive definite, so no matrix is
    built: A's rows sum to zero, and sigma >= 0, so along the constant e
    e^T H(0) e = -tau e^T B e - sum sigma <= 0.
    """
    if isinstance(model, _CirculantModel):
        return False
    zeros = np.zeros(model.lin.size)
    if model.negative_curvature(zeros, *model.probe):
        return False
    _, info = dpotrf(model.hessian(zeros, out=out).T, lower=True,
                     overwrite_a=True, clean=False)
    return info == 0


def _survives(spec: ProblemSpec) -> bool:
    """True when zero is unstable, A - tau B - diag sigma not positive
    definite: then, and only then, the steady state is positive (Brezis
    and Oswald 1986).  The certificate runs on the solver's model
    (_half_model), the even half when the problem mirrors, built for it
    alone, so the Hessian is formed and factored in the model's own A_eff,
    with no second matrix."""
    model = _half_model(spec)[1]
    return not _zero_is_minimizer(model, out=model.a_eff)


def _minimize_model(model: _EnergyModel, init: np.ndarray, tol: float,
                    max_iter: int):
    u, history, it1, _ = _descend_loop(model, init.astype(float), tol, max_iter)
    ua = np.abs(u)
    if not np.array_equal(ua, u):
        # E(|u|) <= E(u) holds exactly (A and -tau J have no positive
        # off-diagonal entries), so |u| is taken unless E(|u|) is above E(u)
        # by more than roundoff; its energy is recorded as at most E(u)
        e_abs = model.energy(ua)
        if e_abs <= history[-1] + model.resolution(u, history[-1]):
            u = ua
            e_abs = min(e_abs, history[-1])
            history.append(e_abs)
            u, hist2, it2, _ = _descend_loop(model, u, tol, max(50, max_iter // 4),
                                             e_abs)
            history.extend(hist2[1:])
            it1 += it2
    residual = model.sup_norm(model.gradient(u))
    return u, history, it1, residual, residual <= tol


def _boundary_profile(grid: Grid, s: float) -> np.ndarray:
    """((x - a)(b - x))^s on each interval (a, b) of the grid: the d^s
    boundary behaviour of the first eigenvector, and nearer to it than the
    constant field."""
    ends = np.array(grid.intervals)[grid.interval_id]
    return ((grid.nodes - ends[:, 0]) * (ends[:, 1] - grid.nodes)) ** s


def _problem(spec: ProblemSpec) -> tuple[NonlocalMatrix | None, _EnergyModel]:
    """(op, model) of a problem, A_eff being its operator less tau B.

    On a bounded grid op is the transmission form of a TransmissionSpec and
    the habitat's operator otherwise, and the probe is the boundary
    profile, the first-eigenvector estimate.  On the periodic cell op is
    None: the model is a _CirculantModel built from the first columns of
    the operator and of B, with no probe, as its certificate needs none
    (see _zero_is_minimizer).
    """
    if isinstance(spec.grid, PeriodicGrid):
        col = _periodic_column(spec.grid, spec.s)
        if spec.tau > 0.0:
            col = col - spec.tau * _periodic_stencil(spec.kernel, spec.grid)
        return None, _CirculantModel(col, spec.grid.h, spec.mu.values,
                                     -spec.sigma.values)
    op = (assemble_transmission(spec) if isinstance(spec, TransmissionSpec)
          else assemble(spec.grid, spec.s))
    a_eff = op.a
    if spec.tau > 0.0:
        a_eff = a_eff - spec.tau * convolution_matrix(spec.kernel, spec.grid)
    model = _EnergyModel(a_eff=a_eff, h=spec.grid.h, mu=spec.mu.values,
                         lin=-spec.sigma.values)
    model.set_probe(_boundary_profile(spec.grid, spec.s))
    return op, model


def _half_model(spec: ProblemSpec) -> tuple[NonlocalMatrix | None,
                                             _EnergyModel]:
    """(op, model) the solver runs on: _problem(spec), unless the problem
    mirrors onto itself, known before any assembly.

    It does when its grid does (operators._mirrors; a pair only at tau = 0,
    as _half_convolution takes one interval), sigma and mu equal their
    reverses exactly, and it is neither a transmission form nor periodic.
    Its model is then built on the even half from O(n) tables, op None:
    A_eff is operators._half_operator less tau _half_convolution, mu /
    sqrt w and lin on the first m nodes, and the boundary profile folded.
    At an even u with coordinates y (spectral._EvenHalf) E(u) is its energy
    at y, its gradient the full one folded, its Hessian the full one's fold.
    """
    grid = spec.grid
    sigma, mu = spec.sigma.values, spec.mu.values
    if (isinstance(spec, TransmissionSpec) or not isinstance(grid, Grid)
            or not _mirrors(grid)
            or (spec.tau > 0.0 and len(grid.intervals) > 1)
            or not np.array_equal(sigma, sigma[::-1])
            or not np.array_equal(mu, mu[::-1])):
        return _problem(spec)
    even = _EvenHalf(grid.n, mirrored=True)
    c = _half_operator(grid, spec.s)
    if spec.tau > 0.0:
        c -= spec.tau * _half_convolution(spec.kernel, grid)
    model = _EnergyModel(c, grid.h, mu[:even.m] / even.root_w, -sigma[:even.m])
    model.even = even
    model.set_probe(even.fold(_boundary_profile(grid, spec.s)))
    return None, model


def _residual_scale(spec: ProblemSpec) -> float:
    """Natural size of the nodal equation, (sigma - mu u) u ~ (max sigma + tau)^2."""
    return max(1.0, (spec.sigma.max() + spec.tau) ** 2)


def _report(spec: ProblemSpec, model: _EnergyModel | None, y: np.ndarray,
            history: list[float], iterations: int, residual: float,
            converged: bool = True) -> SolveReport:
    """SolveReport of a final iterate y in model's coordinates, which must
    be nonnegative: its energy is the model's at y, and its state y
    unfolded (model.even).

    An iterate no larger than triviality_tol in sup norm is the trivial
    state: it is set to zero, with zero energy and residual, and a zero is
    appended to a nonnegative energy history so that it ends at the
    reported energy.  model may be None only for the trivial state.
    """
    u = y if model is None else model.even.unfold(y)
    if float(np.max(np.abs(u))) <= spec.triviality_tol:
        if history and history[-1] >= 0.0:
            history = history + [0.0]
        u, e, residual, classification = np.zeros_like(u), 0.0, 0.0, "trivial"
    else:
        if not np.all(u >= 0.0):
            raise ConvergenceError(f"final iterate has min {np.min(u):.3e} < 0")
        e, classification = model.energy(y), "nontrivial"
    positive = u > spec.triviality_tol
    return SolveReport(
        u=Field(grid=spec.grid, values=u),
        energy=e,
        el_residual=residual,
        iterations=iterations,
        classification=classification,
        history=history,
        converged=converged,
        dichotomy_ok=bool(np.all(positive) or not np.any(positive)),
    )


def _extinct(spec: ProblemSpec) -> SolveReport:
    """The certified trivial state, reached with no descent."""
    return _report(spec, None, np.zeros(spec.grid.n), [0.0], 0, 0.0)


def _steady_state(spec: ProblemSpec, model: _EnergyModel,
                  starts) -> SolveReport:
    """Report of the steady state: zero when certified, else the lowest
    converged energy, to the residual solver_tol * _residual_scale(spec).

    Without resources (sigma = 0, tau = 0) zero is returned at once, as A
    is positive semidefinite on every habitat and so E >= 0 = E(0).  The
    certificate and the descents run on model as given, on its even half
    when it was built there (_half_model), which is exact (see
    spectral._EvenHalf).  starts are the solve's (start, budget) pairs:
    only when zero is not certified is each start called with model, in
    turn, for a field in its coordinates (it may set the probe), descended
    from for at most budget iterations.  An unconverged start is tolerated
    only while its stalled energy stays above the best converged one, else
    the minimum is uncertain and ConvergenceError is raised.  Ties break
    toward the smaller iterate (the trivial state).  The winner's residual
    and energy are the ones read in model's coordinates (on a half, the
    full model's in exact arithmetic); only its state is unfolded (_report).
    """
    if spec.tau == 0.0 and not np.any(spec.sigma.values):
        return _extinct(spec)
    if _zero_is_minimizer(model):
        return _extinct(spec)
    tol = spec.solver_tol * _residual_scale(spec)
    outcomes = []
    for start, budget in starts:
        u, history, iters, residual, ok = _minimize_model(
            model, start(model), tol, budget)
        outcomes.append((model.energy(u), model.sup_norm(u), ok, u, history,
                         iters, residual))
    converged = [o for o in outcomes if o[2]]
    if not converged:
        best_res = min(o[6] for o in outcomes)
        raise ConvergenceError(f"no start converged (best residual {best_res:.3e})")
    converged.sort(key=lambda o: (o[0], o[1]))
    best = converged[0]
    slack = 1e-9 * max(1.0, abs(best[0]))
    for o in outcomes:
        if not o[2] and o[0] < best[0] - slack:
            raise ConvergenceError(
                f"an unconverged start (residual {o[6]:.3e}, tolerance "
                f"{tol:.3e}) undercut the certified minimum (energy "
                f"{best[0]:.3e}, sup norm {best[1]:.3e})")
    u, history, iters, residual = best[3:7]
    return _report(spec, model, u, history, iters, residual)


# ---------------------------------------------------------------------------
# public energy interface
# ---------------------------------------------------------------------------

def _model_at(u: Field, spec: ProblemSpec) -> _EnergyModel:
    """The problem's model, for a field on the problem's grid."""
    if u.grid != spec.grid:
        raise ValueError("field and problem live on different grids")
    return _problem(spec)[1]


def energy(u: Field, spec: ProblemSpec) -> float:
    """Value of the discrete steady-state energy at u."""
    return _model_at(u, spec).energy(u.values)


def energy_gradient(u: Field, spec: ProblemSpec) -> Field:
    """Nodal gradient scaled by 1/h: A u + mu |u| u - sigma u - tau (J*u)."""
    return Field(grid=spec.grid, values=_model_at(u, spec).gradient(u.values))


def minimize(spec: ProblemSpec, init: Field, max_iter: int = 800) -> SolveReport:
    """Monotone line-searched descent from init; final iterate is |u|."""
    if not np.all(np.isfinite(init.values)):
        raise ValueError("initial field must be finite")
    model = _model_at(init, spec)
    u, history, iters, residual, ok = _minimize_model(
        model, init.values, spec.solver_tol * _residual_scale(spec), max_iter
    )
    report = _report(spec, model, u, history, iters, residual, ok)
    if not ok:
        raise ConvergenceError(
            f"descent stalled at residual {residual:.3e} after {iters} iterations",
            report=report,
        )
    return report


def _eigen_start(spec: ProblemSpec, op: NonlocalMatrix | None,
                 model: _EnergyModel) -> np.ndarray:
    """A start along the first eigenvector e of op, assembled here when
    None, in the model's coordinates (model.even.fold) and set as its
    probe, at the amplitude from the small-amplitude expansion of the
    energy.

    E(eps e) = eps^2/2 [form - int sigma e^2] + eps^3/3 int mu e^3, where
    form = h e^T A_eff e is the quadratic part at e (tau's convolution
    included) and sigma is read back from the model as -lin; descend to its
    minimizer when the quadratic coefficient is negative, otherwise start
    at amplitude 1e-8 max(1, max sigma + tau).  Each sum reads the same
    in a folded model's coordinates.
    """
    if op is None:
        op = assemble(spec.grid, spec.s)
    e = model.even.fold(first_eigenpair(op).vector.values)
    h = model.h
    form = h * float(e @ model.set_probe(e))
    c1 = 0.5 * (h * np.sum(-model.lin * e**2) - form)
    c2 = h * np.sum(model.mu * np.abs(e) ** 3) / 3.0
    floor = 1e-8 * max(1.0, spec.sigma.max() + spec.tau)
    eps = 2.0 * c1 / (3.0 * c2) if (c1 > 0.0 and c2 > 0.0) else floor
    return eps * e


def solve_dirichlet(spec: ProblemSpec, max_iter: int = 800) -> SolveReport:
    """Solve a bounded habitat, Dirichlet or transmission: build its model;
    certify extinction or minimize from two starts (see _steady_state).

    The certificate probes the boundary profile before it factors.  The
    first start rides the first eigenvector, computed only when zero is not
    certified, at the amplitude of the small-amplitude expansion
    (_eigen_start), budget max_iter; the eigenvector then replaces the
    profile as the probe of the Newton steps and of the curvature steps.
    The second is a microscopic constant perturbation of zero, budget
    min(max_iter, 300), which leaves zero by curvature steps along the
    eigenvector, as its Newton directions there point uphill.  A problem
    whose habitat, sigma and mu mirror onto themselves (one interval, two
    congruent intervals; constant or even resources) is built, certified
    and descended on its even half, m = ceil(n/2) nodes (_half_model), and
    its operator assembled whole only for the eigenvector; any other is
    solved on all n nodes, its operator assembled once.
    """
    if isinstance(spec.grid, PeriodicGrid):
        raise ValueError("use solve_periodic for periodic problems")
    op, model = _half_model(spec)
    tiny = np.full(spec.grid.n, 0.1 * spec.triviality_tol)
    return _steady_state(spec, model, [
        (lambda model: _eigen_start(spec, op, model), max_iter),
        (lambda model: model.even.fold(tiny), min(max_iter, 300))])


def solve_periodic(spec: ProblemSpec, max_iter: int = 800) -> SolveReport:
    """Minimize the periodic energy over one cell by one descent (see
    _steady_state), from the cell-average level (mean sigma + tau) /
    mean mu, for constant coefficients the exact solution.

    The model is a _CirculantModel: energy, gradient and Newton steps apply
    the circulant A - tau B by FFT and no n x n matrix is built.  Zero is
    never certified here (see _zero_is_minimizer), so only the no-resource
    exit returns the trivial state without descending.  One start suffices:
    A - tau B has no positive off-diagonal entry and is irreducible, so
    E(sqrt v) is convex in v = u^2 (Brezis and Oswald 1986) and a converged
    positive state is the minimizer.  A stalled descent raises.
    """
    if not isinstance(spec.grid, PeriodicGrid):
        raise ValueError("solve_periodic needs a PeriodicGrid problem")
    h = spec.grid.h
    level = (h * np.sum(spec.sigma.values) + spec.tau) / (h * np.sum(spec.mu.values))
    return _steady_state(spec, _problem(spec)[1], [
        (lambda model: np.full(spec.grid.n, level), max_iter)])


# ---------------------------------------------------------------------------
# fitting bounds and experiments
# ---------------------------------------------------------------------------

def check_fitting_bounds(
    report: SolveReport,
    spec: ProblemSpec,
    ball: tuple[float, float] | None = None,
    m_level: float | None = None,
) -> dict:
    """Resource-fitting diagnostics of a converged solution.

    Always checks the a priori bound max u <= max sigma + tau; when a
    sub-interval is given, also reports the infimum of u there and its
    ratio against the resource level m_level.
    """
    u = report.u.values
    bound = spec.sigma.max() + spec.tau
    out = {
        "max_u": float(np.max(u)),
        "bound_easy": bound,
        "ok_easy": bool(
            np.max(u) <= bound + 10.0 * spec.solver_tol * max(1.0, bound)
        ),
        "inf_ball": 0.0,
        "ratio": 0.0,
    }
    if ball is not None:
        lo, hi = ball
        if not any(a <= lo and hi <= b for a, b in spec.grid.intervals):
            raise ValueError(f"ball ({lo}, {hi}) is not contained in any interval")
        mask = (spec.grid.nodes >= lo) & (spec.grid.nodes <= hi)
        if not np.any(mask):
            raise ValueError(f"ball ({lo}, {hi}) holds no grid node")
        out["inf_ball"] = float(np.min(u[mask]))
        if m_level:
            out["ratio"] = out["inf_ball"] / m_level
    return out


@dataclass(frozen=True)
class CriticalRadius:
    r_star: float
    predicted: float
    rel_gap: float


def critical_radius(
    interval: tuple[float, float],
    s: float,
    h: float,
) -> CriticalRadius:
    """Locate the dilation factor at which survival switches on.

    The habitat (a, b) is dilated to (r a, r b) under sigma = mu = 1,
    tau = 0; the survival threshold is predicted by
    lambda_s(Omega)^(1/(2s)).  Radii are snapped to the grid lattice, so
    the answer is resolved to one spacing, the first cell m
    (r = m h / (b - a)) that survives, as the extinction certificate
    (_survives) decides: no steady state is solved for.

    The cell is guessed from the scaling law lambda_s(r Omega) =
    r^(-2s) lambda_s(Omega): with sigma = mu = 1 a cell survives exactly
    when its first eigenvalue is below 1, so one eigenvalue at the
    predicted cell m0 (spectral._first_eigenvalue, on its even half and
    under first_eigenpair's residual contract) gives the guess
    ceil(m0 lambda(m0)^(1/(2s))), clamped into the bracket (lo, hi] =
    [0.55, 1.6] x predicted cells; when that eigenvalue does not converge
    the guess is m0 itself.  Certificates then walk down from the guess
    while the cell below it survives (reaching lo means the bracket has no
    switch) and up from it to the first surviving cell.  Usually the guess
    is that cell, and two certificates settle the search: one just below
    it, one Cholesky, and one at it, which the boundary profile or one
    Cholesky settles.  The prediction's eigenvalue (spectral.
    _first_eigenvalue), the guess and the certificates all run on the even
    half of the mirrored habitat, and every grid is assembled only as such
    a ceil(n/2)-square matrix, straight from the O(n) distance table
    (operators._half_operator): the search forms no n x n matrix.
    Wherever survival is monotone along the bracket this is the cell a
    bisection on full solves finds.
    """
    lam = _first_eigenvalue(build_grid([interval], h), s)
    predicted = lam ** (1.0 / (2.0 * s))
    length = interval[1] - interval[0]

    def grid_at(m_cells: int) -> Grid:
        r = m_cells * h / length
        return build_grid([(r * interval[0], r * interval[1])], h)

    def survives(m_cells: int) -> bool:
        return _survives(problem_spec(grid_at(m_cells), s, 1.0, 1.0))

    lo = int(np.floor(0.55 * predicted * length / h))
    hi = int(np.ceil(1.6 * predicted * length / h))
    lo = max(lo, 2)
    m_star = max(int(round(predicted * length / h)), lo + 1)
    try:
        lam0 = _first_eigenvalue(grid_at(m_star), s)
        m_star = int(np.ceil(m_star * lam0 ** (1.0 / (2.0 * s))))
    except ConvergenceError:
        pass
    m_star = max(min(m_star, hi), lo + 1)
    while survives(m_star - 1):
        m_star -= 1
        if m_star == lo:
            raise ValueError("the bracket does not straddle the threshold")
    while not survives(m_star):
        m_star += 1
        if m_star > hi:
            raise ValueError("the bracket does not straddle the threshold")
    r_star = m_star * h / length
    return CriticalRadius(
        r_star=r_star,
        predicted=predicted,
        rel_gap=abs(r_star - predicted) / predicted,
    )


@dataclass(frozen=True)
class ExtCrossing:
    r_values: np.ndarray
    lambda_small_s: np.ndarray
    lambda_big_s: np.ndarray
    n_sign_changes: int
    crossing_estimate: float
    classifications: dict
    pattern_ok: bool


def ext_crossing(
    interval: tuple[float, float],
    s: float,
    big_s: float,
    r_values: Sequence[float],
    h: float,
) -> ExtCrossing:
    """Survival comparison of a fast and a slow diffuser across dilations.

    Tabulates both eigenvalue curves over the dilation grid, locates the
    single sign change of their difference, and in each regime classifies
    by the extinction certificate (_survives, no steady state solved) the
    two problems with resource and reach rates placed strictly between the
    eigenvalues (thirds of the gap), so exactly one species survives.
    """
    if not 0.0 < s < big_s <= 1.0:
        raise ValueError("exponents must satisfy 0 < s < S <= 1")
    length = interval[1] - interval[0]

    def snapped(r: float) -> float:
        return max(2, int(round(r * length / h))) * h / length

    rs = np.array(sorted({snapped(r) for r in r_values}))
    lam_s = np.empty(rs.size)
    lam_big = np.empty(rs.size)
    grids = []
    for i, r in enumerate(rs):
        grid = build_grid([(r * interval[0], r * interval[1])], h)
        grids.append(grid)
        lam_s[i] = _first_eigenvalue(grid, s)
        lam_big[i] = _first_eigenvalue(grid, big_s)
    diff = lam_big - lam_s
    signs = np.sign(diff)
    changes = np.nonzero(signs[:-1] * signs[1:] < 0)[0]
    if changes.size == 0:
        raise ValueError("dilation grid does not bracket a sign change")
    # analytic crossing of the two dilation power laws
    crossing = (lam_big[0] / lam_s[0] * rs[0] ** (2 * (big_s - s))) ** (
        1.0 / (2.0 * (big_s - s))
    )
    classifications = {}
    pattern_ok = True
    for regime, idx in (("small", 0), ("large", rs.size - 1)):
        grid = grids[idx]
        lo, hi = sorted((lam_s[idx], lam_big[idx]))
        gap = hi - lo
        sigma_r = lo + gap / 3.0
        tau_r = gap / 3.0
        rho = max(2 * h, int(round(rs[idx] * length / (8 * h))) * h)
        kernel = build_kernel("uniform", rho, h)
        fast, slow = ("nontrivial" if _survives(problem_spec(
            grid, e, sigma_r, 1.0, tau=tau_r, kernel=kernel)) else "trivial"
            for e in (s, big_s))
        # in each regime only the species with the smaller eigenvalue survives
        expect_s = "nontrivial" if lam_s[idx] < lam_big[idx] else "trivial"
        expect_big = "trivial" if lam_s[idx] < lam_big[idx] else "nontrivial"
        classifications[regime] = {
            "r": float(rs[idx]),
            "sigma": sigma_r,
            "tau": tau_r,
            "fast": fast,
            "slow": slow,
            "expected_fast": expect_s,
            "expected_slow": expect_big,
        }
        pattern_ok = pattern_ok and (fast, slow) == (expect_s, expect_big)
    return ExtCrossing(
        r_values=rs,
        lambda_small_s=lam_s,
        lambda_big_s=lam_big,
        n_sign_changes=int(changes.size),
        crossing_estimate=float(crossing),
        classifications=classifications,
        pattern_ok=bool(pattern_ok),
    )


@dataclass(frozen=True)
class CongruenceResult:
    lambda_single: float
    lambda_union: float
    gap: float
    admissible: bool
    sigma: float
    report_1: SolveReport | None
    report_2: SolveReport | None
    report_union: SolveReport | None
    union_positive_everywhere: bool


def congruence_experiment(
    interval_1: tuple[float, float],
    interval_2: tuple[float, float],
    s: float,
    h: float,
    solver_tol: float = 1e-10,
) -> CongruenceResult:
    """Sparse-resource effect on two congruent, disjoint habitats.

    Picks the resource rate at the midpoint of the eigenvalue window of the
    union versus a single habitat; each habitat alone then goes extinct
    while the union supports a positive population.  With s = 1 the window
    is empty and the experiment reports no admissible rate.
    """
    study = union_eigen_study(interval_1, interval_2, s, h)
    gap = study.gap
    if gap <= 1e-8 * study.lambda_single:
        return CongruenceResult(
            lambda_single=study.lambda_single,
            lambda_union=study.lambda_union,
            gap=gap,
            admissible=False,
            sigma=float("nan"),
            report_1=None,
            report_2=None,
            report_union=None,
            union_positive_everywhere=False,
        )
    sigma = study.lambda_union + 0.5 * gap
    reports = []
    union_spec = None
    for intervals in ([interval_1], [interval_2], [interval_1, interval_2]):
        grid = build_grid(intervals, h)
        union_spec = problem_spec(grid, s, sigma, 1.0, solver_tol=solver_tol)
        reports.append(solve_dirichlet(union_spec))
    rep_union = reports[2]
    positive = bool(np.all(rep_union.u.values > union_spec.triviality_tol))
    return CongruenceResult(
        lambda_single=study.lambda_single,
        lambda_union=study.lambda_union,
        gap=gap,
        admissible=True,
        sigma=sigma,
        report_1=reports[0],
        report_2=reports[1],
        report_union=rep_union,
        union_positive_everywhere=positive,
    )


@dataclass(frozen=True)
class BeatScan:
    m_values: np.ndarray
    beat_counts: np.ndarray
    max_excess: np.ndarray
    first_m: float | None
    max_principle_ok: np.ndarray  # per m: max u <= max sigma


def beat_experiment(
    sigma_0: Field,
    s: float,
    m_values: Sequence[float],
    solver_tol: float = 1e-10,
) -> BeatScan:
    """Scan uplifts m of a dipped resource for population overshoot.

    For each m solves the problem with sigma_0 + m, mu = 1, tau = 0, and
    reports the nodes where u exceeds the local resource; returns the
    smallest m in the scan with a nonempty overshoot set, and per m
    whether the solution obeys the a priori bound max u <= max sigma.
    """
    grid = sigma_0.grid
    if not isinstance(grid, Grid):
        raise ValueError("the resource profile must live on a bounded grid")
    ms = np.asarray(sorted(m_values), dtype=float)
    counts = np.zeros(ms.size, dtype=int)
    excess = np.zeros(ms.size)
    bound_ok = np.zeros(ms.size, dtype=bool)
    any_nontrivial = False
    for i, m in enumerate(ms):
        spec = problem_spec(grid, s, sigma_0.values + m, 1.0, solver_tol=solver_tol)
        rep = solve_dirichlet(spec)
        bound_ok[i] = check_fitting_bounds(rep, spec)["ok_easy"]
        if rep.classification == "nontrivial":
            any_nontrivial = True
            over = rep.u.values - (sigma_0.values + m)
            beating = over > 10.0 * solver_tol
            counts[i] = int(np.sum(beating))
            excess[i] = float(np.max(over))
    if not any_nontrivial:
        raise ValueError("no uplift in the scan produced a nontrivial solution")
    nonempty = np.nonzero(counts > 0)[0]
    first_m = float(ms[nonempty[0]]) if nonempty.size else None
    return BeatScan(
        m_values=ms, beat_counts=counts, max_excess=excess, first_m=first_m,
        max_principle_ok=bound_ok,
    )
