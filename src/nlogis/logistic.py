"""Discrete steady-state logistic energies, their minimization, and the
threshold experiments on bounded and periodic habitats.

The Dirichlet energy of a field u vanishing outside the habitat is

    E(u) = 1/2 h u^T A u
           + h sum_i [ mu_i |u_i|^3 / 3 - sigma_i u_i^2 / 2
                       - tau u_i (J*u)_i / 2 ]

whose nodal gradient (scaled by 1/h) is the steady logistic equation

    A u + mu |u| u - sigma u - tau (J*u) = 0.

The Dirichlet, periodic and transmission solves share one core,
_steady_state.  When the Hessian at zero is positive definite the energy is
strictly convex (mu >= 0 makes the cubic term convex), zero is its only
minimizer and the core returns the trivial state without descending; only
when zero is unstable does it descend from two starts.

Minimization is monotone: every line-searched step strictly decreases the
computed energy, so no step is accepted on a roundoff tie.  A Newton step
on the nodal system is tried first, its Hessian factored by Cholesky and
by a symmetric-indefinite solve only when it is not positive definite
(known without factoring when the curvature along the first eigenvector
is negative); a backtracking gradient step is the fallback.  A Newton
step whose predicted decrease lies below what the energy resolves goes to
an endgame that accepts it on a halved residual.  The final iterate is
replaced by its absolute value, which can only lower the energy.  A report
is converged only when the residual is within the tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy.linalg import LinAlgError, solve
from scipy.linalg.lapack import dpotrf, dpotrs

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
from .operators import NonlocalMatrix, assemble, convolution_matrix
from .spectral import first_eigenpair, union_eigen_study

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
    """Outcome of one energy minimization."""

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

    probe, when set, is (e, A_eff e) for a field e along which the Hessian
    is expected to have negative curvature: the first eigenvector.
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

    def set_probe(self, e: np.ndarray) -> np.ndarray:
        """Carry (e, A_eff e) as the probe; returns A_eff e."""
        ae = self.a_eff @ e
        self.probe = (e, ae)
        return ae

    def indefinite_along(self, u: np.ndarray, e: np.ndarray,
                         ae: np.ndarray) -> bool:
        """True when e^T H(u) e < 0, which proves H(u) not positive definite.

        The O(n) quadratic form must be negative by more than its rounding
        error (n ulps of the sum of its terms' magnitudes), so a Cholesky
        factorization this skips could not have succeeded.
        """
        bulk = 2.0 * self.mu * np.abs(u) + self.lin
        e2 = e * e
        curvature = float(e @ ae) + float(bulk @ e2)
        magnitude = float(self.abs_diag @ e2) + float(np.abs(bulk) @ e2)
        return curvature < -e.size * np.finfo(float).eps * magnitude

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
        return float(0.5 * self.h * (u @ (self.a_eff @ u)) + self.h * bulk.sum())

    def gradient(self, u: np.ndarray) -> np.ndarray:
        return self.a_eff @ u + self.mu * np.abs(u) * u + self.lin * u - self.src

    def hessian(self, u: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """The Hessian (scaled by 1/h) in C order, written into out if given."""
        hess = np.empty(self.a_eff.shape) if out is None else out
        np.copyto(hess, self.a_eff)
        hess[np.diag_indices_from(hess)] += 2.0 * self.mu * np.abs(u) + self.lin
        return hess


def _newton_direction(model: _EnergyModel, u: np.ndarray, g: np.ndarray):
    """Solution d of H d = -g, or None when H is singular.

    H is built in C order, so H.T is the Fortran-ordered matrix LAPACK
    works on, and Cholesky factors it in its own storage (H is symmetric
    and only its upper triangle is read).  Only when H is not positive
    definite is it rebuilt in place for the symmetric-indefinite solve, so
    one n x n Hessian is alive at a time.  Cholesky is not tried when the
    model's probe already shows negative curvature.
    """
    hess = model.hessian(u)
    if model.probe is None or not model.indefinite_along(u, *model.probe):
        factor, info = dpotrf(hess.T, lower=True, overwrite_a=True, clean=False)
        if info == 0:
            d, info = dpotrs(factor, -g, lower=True)
            return d if info == 0 else None
        model.hessian(u, out=hess)
    try:
        return solve(hess.T, -g, assume_a="sym", lower=True, overwrite_a=True)
    except LinAlgError:
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
        if np.max(np.abs(g)) <= tol:
            converged = True
            break
        accepted = False
        # Newton step on the nodal system; skipped with exponential backoff
        # while the Hessian is indefinite (early, near the unstable zero)
        if newton_skip == 0:
            d = _newton_direction(model, u, g)
            if d is not None and np.all(np.isfinite(d)):
                # g is the gradient scaled by 1/h: E changes at rate h slope
                slope = float(g @ d)
                # a step whose predicted decrease -h slope / 2 is below what
                # the energy resolves would only find roundoff ties
                resolution = model.resolution(u, e)
                if slope < 0.0 and -0.5 * model.h * slope > resolution:
                    t = 1.0
                    for _ in range(30):
                        trial = u + t * d
                        e_trial = model.energy(trial)
                        if e_trial < e and e_trial <= e + 1e-4 * t * model.h * slope:
                            u, e, accepted = trial, e_trial, True
                            break
                        t *= 0.5
                if not accepted:
                    # endgame: the Newton correction may move the energy by
                    # less than roundoff resolves; accept on a solid residual
                    # drop as long as the energy stays flat to its resolution
                    trial = u + d
                    g_trial = model.gradient(trial)
                    e_trial = model.energy(trial)
                    if (np.max(np.abs(g_trial)) <= 0.5 * np.max(np.abs(g))
                            and e_trial <= e + resolution):
                        u, e, accepted = trial, min(e_trial, e), True
            if accepted:
                newton_failures = 0
            else:
                newton_failures += 1
                newton_skip = min(2 ** newton_failures, 64)
        else:
            newton_skip -= 1
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
            gnorm2 = float(g @ g)
            for _ in range(60):
                trial = u - t * g
                e_trial = model.energy(trial)
                if e_trial < e and e_trial <= e - 1e-4 * t * model.h * gnorm2:
                    u, e, accepted = trial, e_trial, True
                    grad_step = 2.0 * t
                    break
                t *= 0.5
            if not accepted:
                # line search exhausted: numerically stationary
                converged = np.max(np.abs(model.gradient(u))) <= tol
                break
        history.append(e)
    return u, history, it, converged


def _zero_is_minimizer(model: _EnergyModel) -> bool:
    """True when the Hessian at zero is positive definite.

    With src = 0 and mu >= 0 the energy is then strictly convex and zero is
    its only minimizer.  Negative curvature at zero along the constant
    field, or else along the model's probe when one is set, settles the
    question without factoring; else one Cholesky factorization does.
    """
    zeros = np.zeros(model.lin.size)
    ones = np.ones(model.lin.size)
    if model.indefinite_along(zeros, ones, model.a_eff @ ones):
        return False
    if model.probe is not None and model.indefinite_along(zeros, *model.probe):
        return False
    _, info = dpotrf(model.hessian(zeros).T, lower=True, overwrite_a=True,
                     clean=False)
    return info == 0


def _minimize_model(model: _EnergyModel, init: np.ndarray, tol: float,
                    max_iter: int):
    u, history, it1, conv1 = _descend_loop(model, init.astype(float), tol, max_iter)
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
            u, hist2, it2, conv1 = _descend_loop(model, u, tol, max(50, max_iter // 4),
                                                 e_abs)
            history.extend(hist2[1:])
            it1 += it2
    residual = float(np.max(np.abs(model.gradient(u))))
    return u, history, it1, residual, residual <= tol


def _spec_model(spec: ProblemSpec, op: NonlocalMatrix) -> _EnergyModel:
    if spec.tau > 0.0:
        b = convolution_matrix(spec.kernel, spec.grid)
        a_eff = op.a - spec.tau * b
    else:
        a_eff = op.a
    return _EnergyModel(
        a_eff=a_eff,
        h=spec.grid.h,
        mu=spec.mu.values,
        lin=-spec.sigma.values,
    )


def _residual_scale(spec: ProblemSpec) -> float:
    """Natural size of the nodal equation, (sigma - mu u) u ~ (max sigma + tau)^2."""
    return max(1.0, (spec.sigma.max() + spec.tau) ** 2)


def _zero_trivial(model: _EnergyModel, u, history, iterations, residual,
                  tol: float):
    """(u, energy, history, iterations, residual, classification) of a
    final iterate, which must be nonnegative.

    An iterate no larger than tol in sup norm is the trivial state: it is
    set to zero, with zero energy and residual, and a zero is appended to
    a nonnegative energy history so that it ends at the reported energy.
    """
    if float(np.max(np.abs(u))) <= tol:
        if history and history[-1] >= 0.0:
            history = history + [0.0]
        return np.zeros_like(u), 0.0, history, iterations, 0.0, "trivial"
    assert np.all(u >= 0.0), f"final iterate has min {np.min(u):.3e} < 0"
    return u, model.energy(u), history, iterations, residual, "nontrivial"


def _extinct(n: int):
    """The certified trivial state of n nodes, reached with no descent."""
    return np.zeros(n), 0.0, [0.0, 0.0], 0, 0.0, "trivial"


def _steady_state(model: _EnergyModel, first_start, tol: float,
                  triviality_tol: float, max_iter: int):
    """(u, energy, history, iterations, residual, classification) of the
    steady state: zero when certified, else the lowest converged energy.

    first_start() is called only when zero is not certified; the descent
    runs from it (budget max_iter) and from a microscopic constant
    perturbation of zero (budget min(max_iter, 300)).  An unconverged start
    is tolerated only while its stalled energy stays above the best
    converged one, otherwise the minimum is uncertain and a
    ConvergenceError is raised.  Ties break toward the smaller iterate (the
    trivial state).
    """
    n = model.lin.size
    if _zero_is_minimizer(model):
        return _extinct(n)
    starts = [(first_start(), max_iter),
              (np.full(n, 0.1 * triviality_tol), min(max_iter, 300))]
    outcomes = []
    for u0, budget in starts:
        u, history, iters, residual, ok = _minimize_model(model, u0, tol, budget)
        outcomes.append(
            (model.energy(u), float(np.max(np.abs(u))), ok, u, history, iters, residual)
        )
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
                f"an unconverged start (residual {o[6]:.3e}) undercut the "
                "certified minimum"
            )
    return _zero_trivial(model, *best[3:], triviality_tol)


def _report(spec: ProblemSpec, state, converged: bool = True) -> SolveReport:
    """SolveReport of a final state (u, energy, history, iterations,
    residual, classification)."""
    u, e, history, iterations, residual, classification = state
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


# ---------------------------------------------------------------------------
# public energy interface
# ---------------------------------------------------------------------------

def energy(u: Field, spec: ProblemSpec, op: NonlocalMatrix) -> float:
    """Value of the discrete steady-state energy at u."""
    if u.grid != spec.grid:
        raise ValueError("field and problem live on different grids")
    return _spec_model(spec, op).energy(u.values)


def energy_gradient(u: Field, spec: ProblemSpec, op: NonlocalMatrix) -> Field:
    """Nodal gradient scaled by 1/h: A u + mu |u| u - sigma u - tau (J*u)."""
    if u.grid != spec.grid:
        raise ValueError("field and problem live on different grids")
    return Field(grid=spec.grid, values=_spec_model(spec, op).gradient(u.values))


def minimize(
    spec: ProblemSpec,
    op: NonlocalMatrix,
    init: Field,
    max_iter: int = 800,
) -> SolveReport:
    """Monotone line-searched descent from init; final iterate is |u|."""
    if init.grid != spec.grid:
        raise ValueError("initial field and problem live on different grids")
    if not np.all(np.isfinite(init.values)):
        raise ValueError("initial field must be finite")
    model = _spec_model(spec, op)
    u, history, iters, residual, ok = _minimize_model(
        model, init.values, spec.solver_tol * _residual_scale(spec), max_iter
    )
    report = _report(
        spec, _zero_trivial(model, u, history, iters, residual, spec.triviality_tol),
        ok,
    )
    if not ok:
        raise ConvergenceError(
            f"descent stalled at residual {residual:.3e} after {iters} iterations",
            report=report,
        )
    return report


def _eigen_start(model: _EnergyModel, op: NonlocalMatrix, solver_tol: float,
                 floor: float) -> np.ndarray:
    """A start along the first eigenvector e of op, set as the model's
    probe, at the amplitude from the small-amplitude expansion of the energy.

    E(eps e) = eps^2/2 [form - int sigma e^2] + eps^3/3 int mu e^3, where
    form = h e^T A_eff e is the quadratic part at e (tau's convolution
    included) and sigma is read back from the model as -lin; descend to its
    minimizer when the quadratic coefficient is negative, otherwise start
    at amplitude floor.
    """
    e = first_eigenpair(op, tol=min(1e-10, solver_tol * 100)).vector.values
    h = model.h
    form = h * float(e @ model.set_probe(e))
    c1 = 0.5 * (h * np.sum(-model.lin * e**2) - form)
    c2 = h * np.sum(model.mu * np.abs(e) ** 3) / 3.0
    eps = 2.0 * c1 / (3.0 * c2) if (c1 > 0.0 and c2 > 0.0) else floor
    return eps * e


def _boundary_profile(grid: Grid, s: float) -> np.ndarray:
    """((x - a)(b - x))^s on each interval (a, b) of the grid: the d^s
    boundary behaviour of the first eigenvector, and nearer to it than the
    constant field."""
    ends = np.array(grid.intervals)[grid.interval_id]
    return ((grid.nodes - ends[:, 0]) * (ends[:, 1] - grid.nodes)) ** s


def _dirichlet_model(spec: ProblemSpec) -> tuple[NonlocalMatrix, _EnergyModel]:
    """(op, model) of a Dirichlet problem, the model's probe set to the
    boundary profile for the extinction certificate."""
    op = assemble(spec.grid, spec.s)
    model = _spec_model(spec, op)
    model.set_probe(_boundary_profile(spec.grid, spec.s))
    return op, model


def solve_dirichlet(spec: ProblemSpec, max_iter: int = 800) -> SolveReport:
    """Assemble; certify extinction or minimize from two starts.

    The certificate probes the boundary profile before it factors.  The
    first start rides the first eigenvector, computed only when zero is not
    certified, with the amplitude suggested by the small-amplitude
    expansion (see _steady_state); the eigenvector then replaces the
    profile as the probe of the Newton steps.
    """
    if isinstance(spec.grid, PeriodicGrid):
        raise ValueError("use solve_periodic for periodic problems")
    op, model = _dirichlet_model(spec)
    floor = 1e-8 * max(1.0, spec.sigma.max() + spec.tau)
    return _report(spec, _steady_state(
        model, lambda: _eigen_start(model, op, spec.solver_tol, floor),
        spec.solver_tol * _residual_scale(spec), spec.triviality_tol, max_iter,
    ))


def solve_periodic(spec: ProblemSpec, max_iter: int = 800) -> SolveReport:
    """Minimize the periodic energy over one cell.

    Without resources (sigma = 0, tau = 0) the energy is nonnegative, as
    the periodic operator is positive semidefinite, so zero is returned
    without a certificate.  Otherwise the certificate's constant probe has
    curvature -sum sigma - tau n < 0 at zero, so the unstable zero costs it
    one matrix-vector product.  The first start is the constant suggested
    by the cell averages, which for constant coefficients is already the
    exact solution (mean sigma + tau) / mean mu.
    """
    if not isinstance(spec.grid, PeriodicGrid):
        raise ValueError("solve_periodic needs a PeriodicGrid problem")
    op = assemble(spec.grid, spec.s)
    if spec.tau == 0.0 and not np.any(spec.sigma.values):
        return _report(spec, _extinct(spec.grid.n))
    model = _spec_model(spec, op)
    h = spec.grid.h
    level = (h * np.sum(spec.sigma.values) + spec.tau) / (h * np.sum(spec.mu.values))
    return _report(spec, _steady_state(
        model, lambda: np.full(spec.grid.n, level),
        spec.solver_tol * _residual_scale(spec), spec.triviality_tol, max_iter,
    ))


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
    solver_tol: float = 1e-10,
) -> CriticalRadius:
    """Locate the dilation factor at which survival switches on.

    The habitat (a, b) is dilated to (r a, r b) and the unit-resource
    problem sigma = mu = 1, tau = 0 is solved; the survival threshold is
    predicted by lambda_s(Omega)^(1/(2s)).  Radii are snapped to the grid
    lattice, so the answer is resolved to one spacing.

    The radius is located on the extinction certificate and confirmed by
    the full solve.  A full solve at the bracket's lower end must be
    trivial.  Bisection over the rest of the bracket then finds the first
    cell whose zero state the certificate (the solve's own first step:
    probes, then at most one Cholesky at zero) does not prove extinct; a
    certified cell cannot survive, so full solves walk up from there to the
    first nontrivial one.
    Wherever survival is monotone along the bracket this is the cell a
    bisection on full solves finds, and the upper end is assembled only
    when the walk reaches it.
    """
    base = build_grid([interval], h)
    lam = first_eigenpair(assemble(base, s)).lambda_
    predicted = lam ** (1.0 / (2.0 * s))
    length = interval[1] - interval[0]

    def spec_at(m_cells: int) -> ProblemSpec:
        r = m_cells * h / length
        grid = build_grid([(r * interval[0], r * interval[1])], h)
        return problem_spec(grid, s, 1.0, 1.0, solver_tol=solver_tol)

    def survives(m_cells: int) -> bool:
        return solve_dirichlet(spec_at(m_cells)).classification == "nontrivial"

    def certified(m_cells: int) -> bool:
        return _zero_is_minimizer(_dirichlet_model(spec_at(m_cells))[1])

    lo = int(np.floor(0.55 * predicted * length / h))
    hi = int(np.ceil(1.6 * predicted * length / h))
    lo = max(lo, 2)
    if survives(lo):
        raise ValueError("bisection bracket does not straddle the threshold")
    m_star = hi
    while m_star - lo > 1:
        mid = (lo + m_star) // 2
        if certified(mid):
            lo = mid
        else:
            m_star = mid
    while not survives(m_star):
        m_star += 1
        if m_star > hi:
            raise ValueError("bisection bracket does not straddle the threshold")
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
    solver_tol: float = 1e-10,
) -> ExtCrossing:
    """Survival comparison of a fast and a slow diffuser across dilations.

    Tabulates both eigenvalue curves over the dilation grid, locates the
    single sign change of their difference, and in each regime solves the
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
        lam_s[i] = first_eigenpair(assemble(grid, s)).lambda_
        lam_big[i] = first_eigenpair(assemble(grid, big_s)).lambda_
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
        spec_kwargs = dict(tau=tau_r, kernel=build_kernel("uniform", rho, h),
                           solver_tol=solver_tol)
        rep_s = solve_dirichlet(problem_spec(grid, s, sigma_r, 1.0, **spec_kwargs))
        rep_big = solve_dirichlet(
            problem_spec(grid, big_s, sigma_r, 1.0, **spec_kwargs)
        )
        # in each regime only the species with the smaller eigenvalue survives
        expect_s = "nontrivial" if lam_s[idx] < lam_big[idx] else "trivial"
        expect_big = "trivial" if lam_s[idx] < lam_big[idx] else "nontrivial"
        classifications[regime] = {
            "r": float(rs[idx]),
            "sigma": sigma_r,
            "tau": tau_r,
            "fast": rep_s.classification,
            "slow": rep_big.classification,
            "expected_fast": expect_s,
            "expected_slow": expect_big,
        }
        pattern_ok = pattern_ok and rep_s.classification == expect_s
        pattern_ok = pattern_ok and rep_big.classification == expect_big
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
