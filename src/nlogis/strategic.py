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

When the target sampled at the fit nodes equals its reverse, the fit runs
on the even half of (-R, R) (spectral._EvenHalf), its operator folded
straight from O(n) tables (operators._half_dirichlet), and no n x n matrix
is formed.  That is exact.  A_ii is an M-matrix, so A_ii^-1 >= 0, and
A_ix <= 0, so the fit map m = -(A_ii^-1 A_ix)[fit] is nonnegative and
commutes with the reversal.  Its top singular vector is then a Perron
vector, positive and hence even, so the folded map has the same largest
singular value and alpha; and the Tikhonov solution of an even target is
even, so it is the even field that the half's solution unfolds to.  A
target that does not mirror is fitted on all n nodes, _EvenHalf being the
identity.  The forced step keeps all n nodes.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np
from scipy.linalg import cho_factor, cho_solve, svd

from .errors import ConvergenceError
from .grids import Field, Grid, Kernel, build_grid
from .logistic import _EnergyModel, _minimize_model
from .operators import _half_dirichlet, assemble_dirichlet, convolution_matrix
from .spectral import _EvenHalf

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
    along the schedule.  The whole schedule is checked before any work.
    """
    if not r_schedule or min(r_schedule) <= INNER_RADIUS:
        raise ValueError("the schedule needs a support radius, and each "
                         "must exceed the harmonicity radius")
    if not callable(f):
        const = float(f)
        f = lambda x: const
    best = None
    prev_g: dict[int, float] = {}
    history = []
    for r_support in r_schedule:
        grid = build_grid([(-r_support, r_support)], h)
        inner, fit, ext = _region_masks(grid)
        x_fit, x_ext = grid.nodes[fit], grid.nodes[ext]
        y = np.broadcast_to(np.asarray(f(x_fit), dtype=float), x_fit.shape)
        # (-R, R) mirrors onto itself, so the fit does when its target does
        half = _EvenHalf(grid.n, all(np.array_equal(v, v[::-1])
                                     for v in (y, inner, fit)))
        c = (_half_dirichlet(grid, s) if half.mirrored
             else assemble_dirichlet(grid, s).a)
        in_h, fit_h, ext_h = inner[:half.m], fit[:half.m], ext[:half.m]
        root_w = np.broadcast_to(half.root_w, (half.m,))
        y = root_w[fit_h] * y[:int(fit_h.sum())]  # the folded target
        chol_ii = cho_factor(c[np.ix_(in_h, in_h)].T, overwrite_a=True)
        # folded inner values as a map of folded exterior data
        wmap = -cho_solve(chol_ii, c[np.ix_(in_h, ext_h)])
        m = wmap[fit_h[in_h], :]
        u_m, sv, vt_m = svd(m, full_matrices=False, check_finite=False)
        alpha = ALPHA_SCALE * sv[0] ** 2
        g = vt_m.T @ (sv / (sv**2 + alpha) * (u_m.T @ y))
        err = float(np.max(np.abs(m @ g - y) / root_w[fit_h]))
        # monotone fallback: reuse the previous radius's data, zero-padded
        if prev_g:
            g_pad = root_w[ext_h] * np.array(
                [prev_g.get(round(x / h), 0.0) for x in x_ext[:ext_h.sum()]]
            )
            err_pad = float(np.max(np.abs(m @ g_pad - y) / root_w[fit_h]))
            if err_pad < err:
                g, err = g_pad, err_pad
        folded = np.zeros(half.m)
        folded[ext_h] = g
        folded[in_h] = wmap @ g
        values = half.unfold(folded)
        prev_g = {round(x / h): v for x, v in zip(x_ext, values[ext])}
        w = Field(grid=grid, values=values)
        hres = float(np.max(np.abs((c @ folded)[in_h] / root_w[in_h])))
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
    the slack f_eps = -(A - tau B) W on the inner ball, with B the
    convolution matrix, is nonnegative there by the sign structure of the
    operator, and the forced minimizer v added on top makes W + v solve the
    logistic equation there exactly (to solver tolerance) while never
    dropping below sigma_eps / mu.
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
    _, b1, _ = _region_masks(grid)
    w_vals = approx.w.values
    if np.min(w_vals[b1]) <= 0.0:
        raise ValueError(
            "approximant is not positive on the inner ball; refine eps"
        )
    w_cap = np.abs(w_vals)  # the planned distribution W = |w|
    mu_b1 = mu(x)[b1]
    sigma_eps_vals = mu_b1 * w_vals[b1]

    # the inner ball's rows of A - tau B: all the construction reads of them
    rows = assemble_dirichlet(grid, s).a[b1]
    if tau > 0.0:
        rows -= tau * convolution_matrix(kernel, grid)[b1]
    f_eps_vals = -(rows @ w_cap)
    if np.min(f_eps_vals) < -solver_tol:
        raise ValueError(
            "slack term went negative on the inner ball; refine eps"
        )
    f_eps_vals = np.maximum(f_eps_vals, 0.0)

    v, _, _ = minimize_with_source(
        f_eps_vals, sigma_eps_vals, mu_b1, rows[:, b1], grid.h,
        solver_tol=solver_tol,
    )
    u_vals = w_cap.copy()
    u_vals[b1] += v
    u_b1 = u_vals[b1]
    el_residual = float(np.max(np.abs(
        rows @ u_vals - (sigma_eps_vals - mu_b1 * u_b1) * u_b1)))

    b1_grid = build_grid([(-1.0, 1.0)], h)
    sigma_gap = float(np.max(np.abs(sigma_eps_vals - sigma(x[b1]))))
    lower_margin = float(np.min(u_b1 - sigma_eps_vals / mu_b1))

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
