"""Independent numerical oracles used by the test suite.

The quadrature oracles recompute quantities the library obtains in closed
form, using scipy's adaptive quadrature instead, so the two paths share no
arithmetic beyond the kernel definition itself.  The ref_* functions at the
end are the other kind: the library's own closed forms, assembled entry by
entry, as references for the tabulated assembly, the even half's maps
as dense matrices, the critical radius found by bisecting on full
solves, as the reference for the search on the extinction certificate,
and the periodic cell's energy model on dense matrices, as the reference
for the circulant model applied by FFT, and the strategic construction
from whole-grid products, as the reference for the one that reads only
the inner ball's rows of A - tau B.
"""

from __future__ import annotations

import numpy as np
from scipy.integrate import quad

from nlogis import (
    CriticalRadius,
    build_grid,
    minimize_with_source,
    problem_spec,
    solve_dirichlet,
)
from nlogis.logistic import _EnergyModel
from nlogis.operators import (
    assemble_dirichlet,
    assemble_periodic,
    convolution_matrix,
)
from nlogis.spectral import _first_eigenvalue
from nlogis.strategic import ALPHA_SCALE, _region_masks


def kernel(t, s):
    return np.abs(t) ** (-1.0 - 2.0 * s)


def quad_hat_weight(r, h, s):
    """Kernel integrated against the unit hat centered at distance r > h."""
    val, _ = quad(lambda t: (1.0 - abs(t) / h) * kernel(r - t, s), -h, h,
                  points=[0.0], limit=200, epsabs=1e-13, epsrel=1e-13)
    return val


def quad_singular_weight(h, s):
    """Quadratic second-difference model over the singular cell."""
    val, _ = quad(lambda t: (t / h) ** 2 * kernel(t, s), 0.0, h,
                  limit=200, epsabs=1e-13, epsrel=1e-13)
    return val


def quad_half_weight(h, s):
    val, _ = quad(lambda t: (1.0 - t / h) * kernel(h + t, s), 0.0, h,
                  limit=200, epsabs=1e-13, epsrel=1e-13)
    return val


def quad_ramp_in(q, h, s):
    val, _ = quad(lambda t: (t / h) * kernel(q + t, s), 0.0, h,
                  limit=200, epsabs=1e-13, epsrel=1e-13)
    return val


def quad_ramp_out(q, h, s):
    val, _ = quad(lambda t: (1.0 - t / h) * kernel(q + t, s), 0.0, h,
                  limit=200, epsabs=1e-13, epsrel=1e-13)
    return val


def quad_tail(d, s):
    val, _ = quad(lambda t: kernel(t, s), d, np.inf,
                  limit=200, epsabs=1e-13, epsrel=1e-13)
    return val


def quad_segment(near, far, s):
    val, _ = quad(lambda t: kernel(t, s), near, far,
                  limit=200, epsabs=1e-13, epsrel=1e-13)
    return val


def quad_pair_weights(grid, s):
    """Mirror of the assembly's interaction weights, quadrature throughout."""
    x = grid.nodes
    h = grid.h
    n = x.size
    w = np.zeros((n, n))
    cache: dict[float, float] = {}

    def hat(r):
        if r not in cache:
            cache[r] = quad_hat_weight(r, h, s)
        return cache[r]

    neighbor = quad_singular_weight(h, s) + quad_half_weight(h, s)
    for i in range(n):
        for j in range(i + 1, n):
            d = abs(x[i] - x[j])
            same = grid.interval_id[i] == grid.interval_id[j]
            if same and j == i + 1:
                w[i, j] = w[j, i] = neighbor
            else:
                w[i, j] = w[j, i] = hat(round(d, 14))
    for k, (a, b) in enumerate(grid.intervals):
        idx = grid.interval_nodes(k)
        for endpoint, p in ((a, idx[0]), (b, idx[-1])):
            xp = x[p]
            for i in range(n):
                if i == p:
                    continue
                if np.sign(x[i] - endpoint) == np.sign(xp - endpoint):
                    f = quad_ramp_in(abs(x[i] - xp), h, s)
                else:
                    f = quad_ramp_out(abs(x[i] - endpoint), h, s)
                w[i, p] += f
                w[p, i] += f
    return w


def quad_exterior_tail(grid, s):
    x = grid.nodes
    lo = grid.intervals[0][0]
    hi = grid.intervals[-1][1]
    t = np.array([quad_tail(xx - lo, s) + quad_tail(hi - xx, s) for xx in x])
    for (_, b0), (a1, _) in zip(grid.intervals, grid.intervals[1:]):
        for i, xx in enumerate(x):
            if xx < b0:
                t[i] += quad_segment(b0 - xx, a1 - xx, s)
            else:
                t[i] += quad_segment(xx - a1, xx - b0, s)
    return t


def quad_dirichlet_matrix(grid, s):
    """Full quadrature-based reassembly of the Dirichlet operator."""
    w = quad_pair_weights(grid, s)
    t = quad_exterior_tail(grid, s)
    a = -w
    np.fill_diagonal(a, w.sum(axis=1) + t)
    return 2.0 * s * (1.0 - s) * a


def pv_fractional(u, x0, s, support, far=50.0):
    """Principal-value integral of the kernel against u(x0) - u(y).

    u must vanish outside the support interval; the symmetric pairing
    2 u(x0) - u(x0+t) - u(x0-t) implements the principal value.  Breakpoints
    of u should fall on the quadrature panels, so u is assumed piecewise
    smooth with kinks only at the support endpoints and at supplied points.
    """
    lo, hi = support
    ux = u(x0)

    def paired(t):
        return (2.0 * ux - u(x0 + t) - u(x0 - t)) * t ** (-1.0 - 2.0 * s)

    breakpoints = sorted({abs(p - x0) for p in (lo, hi, (lo + hi) / 2)} | {far})
    total = 0.0
    prev = 1e-13
    for b in breakpoints:
        if b <= prev:
            continue
        val, _ = quad(paired, prev, b, limit=400, epsabs=1e-10, epsrel=1e-10)
        total += val
        prev = b
    total += 2.0 * ux * quad_tail(far, s)
    return 2.0 * s * (1.0 - s) * total


# ---------------------------------------------------------------------------
# per-entry assembly loops, the references for the tabulated assembly
# ---------------------------------------------------------------------------
#
# These evaluate the library's closed-form weights once per matrix entry
# (or, for the periodic cell, in a Python loop over offsets), as the
# assembly did before it tabulated them by lattice distance.  On grids whose
# nodes are exact binary fractions every node distance is an exact multiple
# of h, so the tabulated assembly must reproduce them bit for bit.

def ref_far_block(x_rows, x_cols, h, s):
    """Hat weights of every (row, column) node pair farther apart than 1.5 h,
    zero for nearer pairs, one kernel evaluation per entry."""
    from nlogis.operators import _far_weight

    diff = np.abs(x_rows[:, None] - x_cols[None, :])
    w = np.zeros(diff.shape)
    mask = diff > 1.5 * h
    w[mask] = _far_weight(diff[mask], h, s)
    return w


def ref_pair_weights(grid, s):
    """Symmetric interaction weights w_ij, one kernel evaluation per entry."""
    from nlogis.operators import (_half_weight, _ramp_in, _ramp_out,
                                  _singular_weight)

    x = grid.nodes
    h = grid.h
    w = ref_far_block(x, x, h, s)
    neighbor = _singular_weight(h, s) + _half_weight(h, s)
    for k in range(len(grid.intervals)):
        idx = grid.interval_nodes(k)
        w[idx[:-1], idx[1:]] = neighbor
        w[idx[1:], idx[:-1]] = neighbor
    for k, (a, b) in enumerate(grid.intervals):
        idx = grid.interval_nodes(k)
        for endpoint, p in ((a, idx[0]), (b, idx[-1])):
            xp = x[p]
            same_side = np.sign(x - endpoint) == np.sign(xp - endpoint)
            q_in = np.abs(x - xp)
            q_in[p] = h
            fold = np.where(
                same_side,
                _ramp_in(q_in, h, s),
                _ramp_out(np.abs(x - endpoint), h, s),
            )
            fold[p] = 0.0
            w[:, p] += fold
            w[p, :] += fold
    return w


def ref_periodic_pair_weights(pgrid, s):
    """omega[d] for d = 0..n-1, accumulated offset by offset."""
    from scipy.special import zeta

    from nlogis import operators
    from nlogis.operators import _far_weight, _half_weight, _singular_weight

    n = pgrid.n
    h = pgrid.h
    cutoff = operators.IMAGE_CUTOFF
    neighbor = _singular_weight(h, s) + _half_weight(h, s)
    m = np.arange(cutoff)
    omega = np.zeros(n)
    for d in range(1, n):
        total = 0.0
        for fam in (d, n - d):
            q = fam + m * n
            far_mask = q >= 2
            total += neighbor * np.sum(q == 1)
            total += np.sum(_far_weight(q[far_mask] * h, h, s))
            astart = cutoff + fam / n
            c2 = (1 + 2 * s) * (2 + 2 * s)
            c4 = c2 * (3 + 2 * s) * (4 + 2 * s)
            total += h * zeta(1 + 2 * s, astart)
            total += h**3 * c2 / 12.0 * zeta(3 + 2 * s, astart)
            total += h**5 * c4 / 360.0 * zeta(5 + 2 * s, astart)
        omega[d] = total
    return omega


def ref_periodic_convolution(kernel, pgrid):
    """Periodic convolution matrix, its first column summed offset by offset."""
    n = pgrid.n
    h = pgrid.h
    wrap = int(np.ceil(kernel.rho)) + 1
    b_off = np.zeros(n)
    for d in range(n):
        q = d + np.arange(-wrap, wrap + 1) * n
        sel = np.abs(q) <= kernel.k_max
        b_off[d] = h * kernel.weights[kernel.k_max + q[sel]].sum()
    d = (np.arange(n)[:, None] - np.arange(n)[None, :]) % n
    return b_off[d]


def ref_convolution_matrix(kernel, grid):
    """Convolution matrix on a bounded grid, one stencil or profile lookup
    per entry: the stencil weight for on-lattice pairs within k_max, the
    renormalized profile for every other pair."""
    h = grid.h
    x = grid.nodes
    diff = x[:, None] - x[None, :]
    k = np.rint(diff / h).astype(int)
    on_lattice = np.abs(diff - k * h) <= 1e-9 * h
    in_range = np.abs(k) <= kernel.k_max
    b = np.where(
        on_lattice & in_range,
        kernel.weights[np.clip(kernel.k_max + k, 0, kernel.weights.size - 1)],
        kernel.profile(diff),
    )
    return h * b


def ref_mirror(n):
    """Dense P (n x m, m = ceil(n/2)) with P y = (y, reversed y), the middle
    entry of an odd n counted once, and W = P^T P."""
    m = (n + 1) // 2
    p = np.zeros((n, m))
    p[np.arange(m), np.arange(m)] = 1.0
    p[n - 1 - np.arange(m), np.arange(m)] = 1.0
    return p, p.T @ p


def ref_fold(a):
    """W^-1/2 P^T a P W^-1/2 by dense products."""
    p, w = ref_mirror(a.shape[0])
    r = np.diag(1.0 / np.sqrt(np.diag(w)))
    return r @ p.T @ a @ p @ r


def ref_critical_radius(interval, s, h, solver_tol=1e-10):
    """critical_radius with a full solve at both bracket ends and at every
    bisection point.  The prediction, which sets the bracket, takes the
    base eigenvalue by the same route (spectral._first_eigenvalue), so
    that the two searches bracket alike."""
    lam = _first_eigenvalue(build_grid([interval], h), s)
    predicted = lam ** (1.0 / (2.0 * s))
    length = interval[1] - interval[0]

    def survives(m_cells):
        r = m_cells * h / length
        grid = build_grid([(r * interval[0], r * interval[1])], h)
        spec = problem_spec(grid, s, 1.0, 1.0, solver_tol=solver_tol)
        return solve_dirichlet(spec).classification == "nontrivial"

    lo = int(np.floor(0.55 * predicted * length / h))
    hi = int(np.ceil(1.6 * predicted * length / h))
    lo = max(lo, 2)
    if survives(lo) or not survives(hi):
        raise ValueError("bisection bracket does not straddle the threshold")
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if survives(mid):
            hi = mid
        else:
            lo = mid
    r_star = hi * h / length
    return CriticalRadius(
        r_star=r_star,
        predicted=predicted,
        rel_gap=abs(r_star - predicted) / predicted,
    )


def ref_periodic_model(spec):
    """The periodic problem's energy model on the dense circulants of the
    public builders, A_eff = A - tau B, with the constant as its probe."""
    a_eff = assemble_periodic(spec.grid, spec.s).a
    if spec.tau > 0.0:
        a_eff = a_eff - spec.tau * convolution_matrix(spec.kernel, spec.grid)
    model = _EnergyModel(a_eff, spec.grid.h, spec.mu.values, -spec.sigma.values)
    model.set_probe(np.ones(spec.grid.n))
    return model


def ref_strategic(w, mu, tau, kernel, s, solver_tol=1e-10):
    """build_strategic's construction on top of the harmonic fit w, from
    whole-grid products with A and B = convolution_matrix: the slack
    f_eps = (tau B W - A W) on the inner ball (-1, 1), W = |w|, the forced
    minimizer v on the inner block of A - tau B, the population u = W + v
    and the residual sup |A u - (sigma_eps - mu u) u - tau B u| on the inner
    ball, sigma_eps = mu w.  Returns (f_eps, u, residual, scale), scale the
    rounding scale ||A - tau B||_inf ||u||_inf of the products."""
    grid = w.grid
    b1 = np.abs(grid.nodes) < 1.0 - 1e-12
    a = assemble_dirichlet(grid, s).a
    conv = (convolution_matrix(kernel, grid) if tau > 0.0
            else np.zeros_like(a))
    w_cap = np.abs(w.values)
    mu_b1 = mu(grid.nodes)[b1]
    sigma_eps = mu_b1 * w.values[b1]
    f_eps = np.maximum((tau * conv @ w_cap - a @ w_cap)[b1], 0.0)
    a_eff = a - tau * conv
    v, _, _ = minimize_with_source(f_eps, sigma_eps, mu_b1,
                                   a_eff[np.ix_(b1, b1)], grid.h, solver_tol)
    u = w_cap.copy()
    u[b1] += v
    rhs = (sigma_eps - mu_b1 * u[b1]) * u[b1] + tau * (conv @ u)[b1]
    residual = float(np.max(np.abs((a @ u)[b1] - rhs)))
    scale = np.max(np.sum(np.abs(a_eff), axis=1)) * np.max(np.abs(u))
    return f_eps, u, residual, scale


def ref_harmonic_fit(f, s, r_support, h):
    """approximate_s_harmonic's fit at the one support radius r_support, on
    all n nodes of (-R, R): the whole map A_ii^-1 A_ix, its fit rows m, the
    Tikhonov weight alpha = ALPHA_SCALE ||m||_2^2 and the filtered thin SVD
    of m.  Returns (w, approx_error, ||m||_2), w the field's nodal values."""
    grid = build_grid([(-r_support, r_support)], h)
    a = assemble_dirichlet(grid, s).a
    inner, fit, ext = _region_masks(grid)
    wmap = -np.linalg.solve(a[np.ix_(inner, inner)], a[np.ix_(inner, ext)])
    m = wmap[fit[inner], :]
    y = np.asarray(f(grid.nodes[fit]), dtype=float)
    norm_m = np.linalg.norm(m, 2)
    alpha = ALPHA_SCALE * norm_m**2
    u_m, sv, vt_m = np.linalg.svd(m, full_matrices=False)
    g = vt_m.T @ (sv / (sv**2 + alpha) * (u_m.T @ y))
    w = np.zeros(grid.n)
    w[ext] = g
    w[inner] = wmap @ g
    return w, float(np.max(np.abs(m @ g - y))), norm_m
