"""Strategic-plan construction: an s-harmonic field matching a target on an
inner region, extended by controlled exterior data, then corrected by a
forced minimization so the combined population solves the logistic equation
on the inner ball while exceeding the local carrying level.

Geometry is one-dimensional: the inner ball is (-1, 1), the harmonicity
region (-2, 2), and the support (-R, R) for R taken from a schedule.  The
exterior-control problem is severely ill-posed, so the exterior data is the
Tikhonov-regularized least-squares solution, computed as a filtered
singular value expansion of the control map (Hansen 1998): each singular
component s is weighted by s / (s^2 + alpha), with alpha 1e-8 times the
squared largest singular value.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np
from scipy.linalg import cho_factor, cho_solve, svd

from .errors import ConvergenceError
from .grids import Field, Grid, Kernel, build_grid
from .logistic import _EnergyModel, _minimize_model
from .operators import assemble_dirichlet, convolution_matrix

__all__ = [
    "HarmonicApproximation",
    "StrategicResult",
    "approximate_s_harmonic",
    "minimize_with_source",
    "build_strategic",
]


@dataclass(frozen=True)
class HarmonicApproximation:
    """An approximately target-matching field, harmonic on the inner region."""

    w: Field
    approx_error: float
    harmonic_residual: float
    r_used: float
    achieved: bool
    history: tuple[tuple[float, float], ...]  # (R, sup error) along the schedule


INNER_RADIUS = 2.0   # the harmonicity region (-2, 2)
FIT_RADIUS = 1.0     # the inner ball (-1, 1), where the target is matched
ALPHA_SCALE = 1e-8   # Tikhonov weight per squared largest singular value


def _region_masks(grid: Grid):
    x = grid.nodes
    inner = np.abs(x) < INNER_RADIUS - 1e-12
    fit = np.abs(x) < FIT_RADIUS - 1e-12
    return inner, fit, ~inner


def approximate_s_harmonic(
    f: Callable[[np.ndarray], np.ndarray] | float,
    s: float,
    eps: float,
    r_schedule: Sequence[float],
    h: float,
) -> HarmonicApproximation:
    """Approximate f on (-1, 1) by a field s-harmonic on (-2, 2).

    For each support radius R in the schedule the unknowns are the nodal
    values on (-R, R) minus (-2, 2); the inner values solve the discrete
    harmonicity system exactly, and the exterior data minimizes the misfit
    on the (-1, 1) nodes plus a Tikhonov penalty.  Stops at the first R
    meeting eps in sup norm, else returns the best attempt; the best
    previous exterior data is carried forward so the error never increases
    along the schedule.
    """
    if isinstance(f, Field):
        field = f
        f = lambda x: np.asarray([field.evaluate(v) for v in np.atleast_1d(x)])
    elif not callable(f):
        const = float(f)
        f = lambda x: np.full_like(np.asarray(x, dtype=float), const)
    best = None
    prev_g: dict[int, float] = {}
    history = []
    for r_support in r_schedule:
        if r_support <= INNER_RADIUS:
            raise ValueError("support radius must exceed the harmonicity radius")
        grid = build_grid([(-r_support, r_support)], h)
        op = assemble_dirichlet(grid, s)
        inner, fit, ext = _region_masks(grid)
        a_ii = op.a[np.ix_(inner, inner)]
        a_ix = op.a[np.ix_(inner, ext)]
        chol_ii = cho_factor(a_ii)
        wmap = -cho_solve(chol_ii, a_ix)  # inner values as a map of exterior data
        m = wmap[fit[inner], :]
        y = np.asarray(f(grid.nodes[fit]), dtype=float)
        u_m, sv, vt_m = svd(m, full_matrices=False, check_finite=False)
        alpha = ALPHA_SCALE * sv[0] ** 2
        g = vt_m.T @ (sv / (sv**2 + alpha) * (u_m.T @ y))
        err = float(np.max(np.abs(m @ g - y)))
        # monotone fallback: reuse the previous radius's data, zero-padded
        if prev_g:
            g_pad = np.array(
                [prev_g.get(round(x / h), 0.0) for x in grid.nodes[ext]]
            )
            err_pad = float(np.max(np.abs(m @ g_pad - y)))
            if err_pad < err:
                g, err = g_pad, err_pad
        prev_g = {round(x / h): gv for x, gv in zip(grid.nodes[ext], g)}
        values = np.zeros(grid.n)
        values[ext] = g
        values[inner] = wmap @ g
        w = Field(grid=grid, values=values)
        hres = float(np.max(np.abs((op.a @ values)[inner])))
        history.append((float(r_support), err))
        candidate = HarmonicApproximation(
            w=w,
            approx_error=err,
            harmonic_residual=hres,
            r_used=float(r_support),
            achieved=err <= eps,
            history=tuple(history),
        )
        if best is None or candidate.approx_error <= best.approx_error:
            best = candidate
        if candidate.achieved:
            return candidate
    return replace(best, history=tuple(history))


def minimize_with_source(
    f_src: np.ndarray,
    sigma_eps: np.ndarray,
    mu: np.ndarray,
    a_inner: np.ndarray,
    h: float,
    solver_tol: float = 1e-10,
) -> tuple[np.ndarray, float, float]:
    """Minimize the forced energy over fields supported on the inner nodes.

    a_inner is the inner block of A - tau B, with B the convolution matrix
    (tau = 0 leaves A alone).  E(v) = 1/2 h v^T a_inner v
    + h sum(mu |v|^3/3 + sigma_eps v^2/2 - f_src v); the Euler-Lagrange
    system is A v + mu |v| v + sigma_eps v - f_src - tau (J*v) = 0.
    Returns (v, energy, residual); v is nonnegative because the source is.
    """
    if np.min(f_src) < -solver_tol:
        raise ValueError("the forcing must be nonnegative")
    model = _EnergyModel(
        a_eff=a_inner,
        h=h,
        mu=np.asarray(mu, dtype=float),
        lin=np.asarray(sigma_eps, dtype=float),
        src=np.asarray(f_src, dtype=float),
    )
    v0 = np.zeros(f_src.size)
    v, history, iters, residual, ok = _minimize_model(model, v0, solver_tol, 600)
    if not ok:
        raise ConvergenceError(
            f"forced minimization stalled at residual {residual:.3e}"
        )
    return v, model.energy(v), residual


@dataclass(frozen=True)
class StrategicResult:
    """Everything the strategic construction produces and verifies."""

    w: Field
    u: Field
    sigma_eps: Field
    f_eps: Field
    approx_error: float
    harmonic_residual: float
    r_used: float
    el_residual: float
    sigma_gap: float          # sup |sigma_eps - sigma| on the inner ball
    lower_bound_margin: float  # min of u - sigma_eps / mu on the inner ball
    achieved: bool


def build_strategic(
    sigma: Callable[[np.ndarray], np.ndarray],
    mu: Callable[[np.ndarray], np.ndarray],
    tau: float,
    kernel: Kernel | None,
    s: float,
    eps: float,
    h: float,
    r_schedule: Sequence[float] = (4.0, 6.0, 8.0),
    solver_tol: float = 1e-10,
) -> StrategicResult:
    """Run the full construction and verify its three conclusions.

    The target of the harmonic approximation is sigma / mu; its positive
    part is the planned distribution W, the effective resource is mu * w,
    the slack f_eps = tau (J*W) - A W is nonnegative on the inner ball by
    the sign structure of the operator, and the forced minimizer v added on
    top makes W + v solve the logistic equation there exactly (to solver
    tolerance) while never dropping below sigma_eps / mu.
    """
    if tau < 0.0:
        raise ValueError("tau must be nonnegative")
    if tau > 0.0 and kernel is None:
        raise ValueError("tau > 0 requires a kernel")
    probe = np.linspace(-2.0, 2.0, 257)
    if np.min(mu(probe)) <= 0.0 or np.min(sigma(probe)) <= 0.0:
        raise ValueError("sigma and mu must be positive on the closed inner region")

    mu_cap = float(np.max(np.abs(mu(np.linspace(-1.0, 1.0, 129)))))
    fit_eps = eps / max(1.0, mu_cap)
    target = lambda x: sigma(x) / mu(x)
    approx = approximate_s_harmonic(target, s, fit_eps, r_schedule, h)

    grid = approx.w.grid
    x = grid.nodes
    op = assemble_dirichlet(grid, s)
    _, b1, _ = _region_masks(grid)
    w_vals = approx.w.values
    if np.min(w_vals[b1]) <= 0.0:
        raise ValueError(
            "approximant is not positive on the inner ball; refine eps"
        )
    w_cap = np.abs(w_vals)  # the planned distribution W = |w|
    mu_nodes = mu(x)
    sigma_eps_vals = mu_nodes[b1] * w_vals[b1]

    if tau > 0.0:
        conv = convolution_matrix(kernel, grid)
        jw = conv @ w_cap
    else:
        jw = np.zeros(grid.n)
    f_eps_vals = (tau * jw - op.a @ w_cap)[b1]
    if np.min(f_eps_vals) < -solver_tol:
        raise ValueError(
            "slack term went negative on the inner ball; refine eps"
        )
    f_eps_vals = np.maximum(f_eps_vals, 0.0)

    a_inner = op.a[np.ix_(b1, b1)]
    if tau > 0.0:
        a_inner = a_inner - tau * conv[np.ix_(b1, b1)]
    v, _, _ = minimize_with_source(
        f_eps_vals, sigma_eps_vals, mu_nodes[b1], a_inner, grid.h,
        solver_tol=solver_tol,
    )
    u_vals = w_cap.copy()
    u_vals[b1] += v

    if tau > 0.0:
        ju = conv @ u_vals
    else:
        ju = np.zeros(grid.n)
    logistic_rhs = np.zeros(grid.n)
    logistic_rhs[b1] = (sigma_eps_vals - mu_nodes[b1] * u_vals[b1]) * u_vals[b1]
    logistic_rhs += tau * ju
    el_residual = float(np.max(np.abs((op.a @ u_vals - logistic_rhs)[b1])))

    b1_grid = build_grid([(-1.0, 1.0)], h)
    sigma_gap = float(np.max(np.abs(sigma_eps_vals - sigma(x[b1]))))
    lower_margin = float(np.min(u_vals[b1] - sigma_eps_vals / mu_nodes[b1]))

    return StrategicResult(
        w=approx.w,
        u=Field(grid=grid, values=u_vals),
        sigma_eps=Field(grid=b1_grid, values=sigma_eps_vals),
        f_eps=Field(grid=b1_grid, values=f_eps_vals),
        approx_error=approx.approx_error,
        harmonic_residual=approx.harmonic_residual,
        r_used=approx.r_used,
        el_residual=el_residual,
        sigma_gap=sigma_gap,
        lower_bound_margin=lower_margin,
        achieved=approx.achieved and sigma_gap <= eps,
    )
