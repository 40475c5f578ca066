"""Discrete nonlocal operators: fractional Dirichlet, classical, periodic,
convolution, and the mixed local/nonlocal transmission form.

The fractional operator with exponent s acts as

    (A u)_i = 2 s (1-s) * [ sum_j w_ij (u_i - u_j) + T_i u_i ]

where w_ij >= 0 are quadrature weights of the singular kernel |x-y|^(-1-2s)
between interior nodes and T_i is the exact integral of the kernel over the
complement of the domain (closed-form 1D tails).  All weights come from
antiderivatives of the kernel, so assembly is quadrature-free:

  * pairs at distance > h integrate the kernel against the hat function of
    the far node (a second difference of the second antiderivative);
  * adjacent pairs get the exact integral of the quadratic second-difference
    model over the singular cell |x-y| <= h plus the outer half hat, which
    is the even-part treatment that cancels the first singular moment;
  * the half cell between an interval endpoint and its nearest node, not
    covered by any interior hat, is folded symmetrically onto that nearest
    node, so globally constant node vectors are annihilated exactly up to
    the exterior tail.

The resulting matrix is symmetric, strictly diagonally dominant with
nonpositive off-diagonal entries (an M-matrix), and A @ ones == 2s(1-s) T.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import zeta

from .grids import Field, Grid, Kernel, PeriodicGrid, build_grid, sample_function

__all__ = [
    "CLASSICAL_LIMIT_CONSTANT",
    "NonlocalMatrix",
    "TransmissionSpec",
    "assemble",
    "assemble_dirichlet",
    "assemble_classical",
    "assemble_periodic",
    "assemble_transmission",
    "transmission_spec",
    "convolution_matrix",
    "convolve",
    "quadratic_form",
    "apply_operator",
]

# Multiple of the second derivative recovered from the 2s(1-s)-normalized
# singular integral as s -> 1 in one dimension.  Pinned by the derivation
# test against direct quadrature at s = 0.999 (tests/test_operators.py).
CLASSICAL_LIMIT_CONSTANT = 1.0


# ---------------------------------------------------------------------------
# closed-form kernel antiderivatives, K(r) = r^(-1-2s)
# ---------------------------------------------------------------------------

def _anti1(r, s):
    """First antiderivative of K."""
    return -(r ** (-2.0 * s)) / (2.0 * s)


def _anti2(r, s):
    """Second antiderivative of K."""
    if abs(s - 0.5) < 1e-14:
        return -np.log(r)
    return r ** (1.0 - 2.0 * s) / (2.0 * s * (2.0 * s - 1.0))


def _far_weight(r, h, s):
    """Integral of K against the unit hat centered at distance r > h."""
    return (_anti2(r - h, s) - 2.0 * _anti2(r, s) + _anti2(r + h, s)) / h


def _half_weight(h, s):
    """Outer half of the neighbor hat: int_0^h (1 - t/h) K(h + t) dt."""
    return -_anti1(h, s) + (_anti2(2.0 * h, s) - _anti2(h, s)) / h


def _singular_weight(h, s):
    """Exact integral of (t/h)^2 K(t) over the singular cell (0, h).

    The quadratic model of the even second difference is exact to second
    order and integrable for every s in (0, 1).
    """
    return h ** (-2.0 * s) / (2.0 - 2.0 * s)


def _ramp_in(q, h, s):
    """int_0^h (t/h) K(q + t) dt, the boundary half-cell seen from inside."""
    return _anti1(q + h, s) - (_anti2(q + h, s) - _anti2(q, s)) / h


def _ramp_out(q, h, s):
    """int_0^h (1 - t/h) K(q + t) dt, the boundary half-cell seen from beyond."""
    return -_anti1(q, s) + (_anti2(q + h, s) - _anti2(q, s)) / h


def _tail_halfline(d, s):
    """Integral of K over [d, infinity)."""
    return d ** (-2.0 * s) / (2.0 * s)


def _tail_segment(near, far, s):
    """Integral of K over a segment at distances [near, far]."""
    return (near ** (-2.0 * s) - far ** (-2.0 * s)) / (2.0 * s)


# ---------------------------------------------------------------------------
# assembly
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class NonlocalMatrix:
    """Dense symmetric discrete operator bound to its grid."""

    grid: Grid | PeriodicGrid
    a: np.ndarray
    s: float
    variant: str

    @property
    def n(self) -> int:
        return self.a.shape[0]


def _pair_weights(grid: Grid, s: float) -> np.ndarray:
    """Symmetric interaction weights w_ij for the kernel with exponent s."""
    x = grid.nodes
    n = x.size
    h = grid.h
    diff = np.abs(x[:, None] - x[None, :])
    w = np.zeros((n, n))
    mask = diff > 1.5 * h
    w[mask] = _far_weight(diff[mask], h, s)
    neighbor = _singular_weight(h, s) + _half_weight(h, s)
    for k in range(len(grid.intervals)):
        idx = grid.interval_nodes(k)
        w[idx[:-1], idx[1:]] = neighbor
        w[idx[1:], idx[:-1]] = neighbor
    # fold the two uncovered boundary half cells of every interval onto the
    # nearest interior node; constants stay annihilated
    for k, (a, b) in enumerate(grid.intervals):
        idx = grid.interval_nodes(k)
        for endpoint, p in ((a, idx[0]), (b, idx[-1])):
            xp = x[p]
            same_side = np.sign(x - endpoint) == np.sign(xp - endpoint)
            q_in = np.abs(x - xp)
            q_in[p] = h  # dummy to keep the antiderivatives finite; masked below
            fold = np.where(
                same_side,
                _ramp_in(q_in, h, s),
                _ramp_out(np.abs(x - endpoint), h, s),
            )
            fold[p] = 0.0
            w[:, p] += fold
            w[p, :] += fold
    return w


def _exterior_tail(grid: Grid, s: float) -> np.ndarray:
    """T_i: exact kernel integral over the complement of the domain."""
    x = grid.nodes
    lo = grid.intervals[0][0]
    hi = grid.intervals[-1][1]
    t = _tail_halfline(x - lo, s) + _tail_halfline(hi - x, s)
    for (_, b0), (a1, _) in zip(grid.intervals, grid.intervals[1:]):
        left = x < b0 + 0.5 * grid.h  # nodes left of this gap
        t[left] += _tail_segment(b0 - x[left], a1 - x[left], s)
        t[~left] += _tail_segment(x[~left] - a1, x[~left] - b0, s)
    return t


def assemble_dirichlet(grid: Grid, s: float) -> NonlocalMatrix:
    """Discrete fractional operator with zero exterior condition."""
    if not 0.0 < s < 1.0:
        raise ValueError(f"fractional exponent s={s} must lie in (0, 1)")
    w = _pair_weights(grid, s)
    t = _exterior_tail(grid, s)
    a = -w
    np.fill_diagonal(a, w.sum(axis=1) + t)
    a *= 2.0 * s * (1.0 - s)
    return NonlocalMatrix(grid=grid, a=a, s=s, variant="dirichlet-fractional")


def assemble_classical(grid: Grid) -> NonlocalMatrix:
    """Second-difference operator, the s -> 1 limit of the fractional one."""
    n = grid.n
    h = grid.h
    a = np.zeros((n, n))
    c = CLASSICAL_LIMIT_CONSTANT / h**2
    for k in range(len(grid.intervals)):
        idx = grid.interval_nodes(k)
        a[idx, idx] = 2.0 * c
        a[idx[:-1], idx[1:]] = -c
        a[idx[1:], idx[:-1]] = -c
    return NonlocalMatrix(grid=grid, a=a, s=1.0, variant="classical")


def _periodic_pair_weights(pgrid: PeriodicGrid, s: float) -> np.ndarray:
    """omega[d]: summed image weights for cell offset d = 0..n-1."""
    n = pgrid.n
    h = pgrid.h
    cutoff = pgrid.image_cutoff
    neighbor = _singular_weight(h, s) + _half_weight(h, s)
    m = np.arange(cutoff)
    omega = np.zeros(n)
    for d in range(1, n):
        total = 0.0
        for fam in (d, n - d):
            q = fam + m * n  # lattice distances in units of h
            far_mask = q >= 2
            total += neighbor * np.sum(q == 1)
            total += np.sum(_far_weight(q[far_mask] * h, h, s))
            # analytic remainder of the image series from m = cutoff on; the
            # hat-kernel convolution expands as h K + h^3 K''/12 + h^5 K''''/360
            # and the image distances are m + fam/n in length units
            astart = cutoff + fam / n
            c2 = (1 + 2 * s) * (2 + 2 * s)
            c4 = c2 * (3 + 2 * s) * (4 + 2 * s)
            total += h * zeta(1 + 2 * s, astart)
            total += h**3 * c2 / 12.0 * zeta(3 + 2 * s, astart)
            total += h**5 * c4 / 360.0 * zeta(5 + 2 * s, astart)
        omega[d] = total
    return omega


def assemble_periodic(pgrid: PeriodicGrid, s: float) -> NonlocalMatrix:
    """Fractional operator on the unit cell with periodized kernel.

    Rows sum to zero exactly: the periodic extension of a constant is
    annihilated, there is no exterior to lose mass to.
    """
    if not 0.0 < s < 1.0:
        raise ValueError(f"fractional exponent s={s} must lie in (0, 1)")
    omega = _periodic_pair_weights(pgrid, s)
    n = pgrid.n
    d = (np.arange(n)[:, None] - np.arange(n)[None, :]) % n
    a = -omega[d]
    np.fill_diagonal(a, omega[1:].sum())
    a *= 2.0 * s * (1.0 - s)
    return NonlocalMatrix(grid=pgrid, a=a, s=s, variant="periodic")


def assemble(grid: Grid | PeriodicGrid, s: float) -> NonlocalMatrix:
    """The operator of a habitat: periodic on a PeriodicGrid, the classical
    second difference at s = 1, the fractional Dirichlet one otherwise."""
    if isinstance(grid, PeriodicGrid):
        return assemble_periodic(grid, s)
    if s == 1.0:
        return assemble_classical(grid)
    return assemble_dirichlet(grid, s)


# ---------------------------------------------------------------------------
# convolution
# ---------------------------------------------------------------------------

def convolution_matrix(kernel: Kernel, grid: Grid | PeriodicGrid) -> np.ndarray:
    """Matrix B with (J*u)_i = (B u)_i = h sum_j J(x_i - x_j) u_j.

    Lattice-aligned pairs use the renormalized stencil weights so that the
    discrete unit-mass identity is inherited exactly; pairs across
    non-aligned intervals fall back to the renormalized profile.
    """
    h = grid.h
    if abs(kernel.h - h) > 1e-12 * h:
        raise ValueError("kernel lattice spacing differs from grid spacing")
    if isinstance(grid, PeriodicGrid):
        if kernel.rho >= grid.image_cutoff - 1:
            raise ValueError(
                f"kernel radius {kernel.rho} exceeds periodic image cutoff "
                f"{grid.image_cutoff} - 1"
            )
        n = grid.n
        wrap = int(np.ceil(kernel.rho)) + 1
        b_off = np.zeros(n)
        for d in range(n):
            q = d + np.arange(-wrap, wrap + 1) * n
            sel = np.abs(q) <= kernel.k_max
            b_off[d] = h * kernel.weights[kernel.k_max + q[sel]].sum()
        d = (np.arange(n)[:, None] - np.arange(n)[None, :]) % n
        return b_off[d]
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


def convolve(kernel: Kernel, field: Field) -> Field:
    """Discrete convolution with zero extension or periodic wrap."""
    b = convolution_matrix(kernel, field.grid)
    return Field(grid=field.grid, values=b @ field.values)


# ---------------------------------------------------------------------------
# quadratic form
# ---------------------------------------------------------------------------

def _check_grid(op: NonlocalMatrix, u: Field) -> None:
    if op.grid is not u.grid and op.grid != u.grid:
        raise ValueError("field and operator live on different grids")


def apply_operator(op: NonlocalMatrix, u: Field) -> Field:
    _check_grid(op, u)
    return Field(grid=u.grid, values=op.a @ u.values)


def quadratic_form(op: NonlocalMatrix, u: Field) -> float:
    """h * u^T A u, the discrete Dirichlet energy form of the operator.

    The accumulation matches l2_inner exactly, so the form and the inner
    product against the applied operator agree bit for bit.
    """
    _check_grid(op, u)
    return float(u.grid.h * np.sum(u.values * (op.a @ u.values)))


# ---------------------------------------------------------------------------
# transmission
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TransmissionSpec:
    """Two disjoint habitats: local diffusion on one, fractional on the other,
    coupled to their complements with weights nu_i and exponents s_i."""

    grid: Grid
    local_id: int
    s: float
    s1: float
    s2: float
    nu1: float
    nu2: float
    sigma: Field
    mu: Field
    solver_tol: float = 1e-10
    triviality_tol: float = 0.0

    @property
    def nonlocal_id(self) -> int:
        return 1 - self.local_id


def transmission_spec(
    interval_local: tuple[float, float],
    interval_nonlocal: tuple[float, float],
    h: float,
    s: float,
    s1: float,
    s2: float,
    nu1: float,
    nu2: float,
    sigma,
    mu,
    solver_tol: float = 1e-10,
    triviality_tol: float | None = None,
) -> TransmissionSpec:
    for name, val in (("s", s), ("s1", s1), ("s2", s2)):
        if not 0.0 < val < 1.0:
            raise ValueError(f"{name}={val} must lie in (0, 1)")
    if nu1 < 0.0 or nu2 < 0.0:
        raise ValueError("coupling weights nu_i must be nonnegative")
    grid = build_grid([interval_local, interval_nonlocal], h)
    local_id = 0 if grid.intervals[0] == tuple(map(float, interval_local)) else 1
    sigma_f = sigma if isinstance(sigma, Field) else sample_function(grid, sigma)
    mu_f = mu if isinstance(mu, Field) else sample_function(grid, mu)
    if mu_f.min() <= 0.0:
        raise ValueError("mu must be bounded away from zero")
    if np.any(sigma_f.values < 0.0):
        raise ValueError("sigma must be nonnegative")
    if triviality_tol is None:
        triviality_tol = max(1e-6 * sigma_f.max(), 1e-12)
    return TransmissionSpec(
        grid=grid,
        local_id=local_id,
        s=float(s),
        s1=float(s1),
        s2=float(s2),
        nu1=float(nu1),
        nu2=float(nu2),
        sigma=sigma_f,
        mu=mu_f,
        solver_tol=float(solver_tol),
        triviality_tol=float(triviality_tol),
    )


def _cross_coupling(
    a: np.ndarray,
    grid: Grid,
    own_id: int,
    coeff: float,
    s_i: float,
) -> None:
    """Add coeff * (form of component own_id against its complement).

    Diagonal on the component is the exact complement tail; the other
    component couples through hat weights plus its folded boundary cells,
    with its exact nodal cross mass on the diagonal, which keeps the block
    weakly diagonally dominant.
    """
    x = grid.nodes
    h = grid.h
    own = grid.interval_nodes(own_id)
    other = grid.interval_nodes(1 - own_id)
    a_own, b_own = grid.intervals[own_id]
    a_oth, b_oth = grid.intervals[1 - own_id]
    # u(x)^2 against the whole complement of the own interval
    t_full = _tail_halfline(x[own] - a_own, s_i) + _tail_halfline(b_own - x[own], s_i)
    a[own, own] += coeff * t_full
    # u(y)^2 on the other component: exact nodal mass of the own interval
    near = np.minimum(np.abs(x[other] - a_own), np.abs(x[other] - b_own))
    far = np.maximum(np.abs(x[other] - a_own), np.abs(x[other] - b_own))
    a[other, other] += coeff * _tail_segment(near, far, s_i)
    # -2 u(x) u(y): hat weights, plus the other component's boundary half
    # cells folded onto its outermost nodes
    w = _far_weight(np.abs(x[own][:, None] - x[other][None, :]), h, s_i)
    for endpoint, p_local in ((a_oth, 0), (b_oth, other.size - 1)):
        xp = x[other[p_local]]
        same_side = np.sign(x[own] - endpoint) == np.sign(xp - endpoint)
        fold = np.where(
            same_side,
            _ramp_in(np.abs(x[own] - xp), h, s_i),
            _ramp_out(np.abs(x[own] - endpoint), h, s_i),
        )
        w[:, p_local] += fold
    a[np.ix_(own, other)] -= coeff * w
    a[np.ix_(other, own)] -= coeff * w.T


def assemble_transmission(tspec: TransmissionSpec) -> NonlocalMatrix:
    """Matrix of the undoubled transmission form: h u^T A u discretizes

        int_{O1} |u'|^2 + s(1-s) iint_{O2 x O2} |u(x)-u(y)|^2 K_s
        + sum_i nu_i s_i (1-s_i) iint_{O_i x complement(O_i)} |u(x)-u(y)|^2 K_{s_i}.
    """
    grid = tspec.grid
    n = grid.n
    h = grid.h
    a = np.zeros((n, n))
    # local block: exact P1 Dirichlet form of int |u'|^2
    loc = grid.interval_nodes(tspec.local_id)
    c = 1.0 / h**2
    a[loc, loc] += 2.0 * c
    a[loc[:-1], loc[1:]] -= c
    a[loc[1:], loc[:-1]] -= c
    # fractional block on the nonlocal component, interactions within it only
    non = grid.interval_nodes(tspec.nonlocal_id)
    sub = build_grid([grid.intervals[tspec.nonlocal_id]], h)
    w2 = _pair_weights(sub, tspec.s)
    block = -w2
    np.fill_diagonal(block, w2.sum(axis=1))
    a[np.ix_(non, non)] += 2.0 * tspec.s * (1.0 - tspec.s) * block
    # cross couplings of each component with its complement
    _cross_coupling(
        a, grid, tspec.local_id, tspec.nu1 * tspec.s1 * (1.0 - tspec.s1), tspec.s1
    )
    _cross_coupling(
        a, grid, tspec.nonlocal_id, tspec.nu2 * tspec.s2 * (1.0 - tspec.s2), tspec.s2
    )
    return NonlocalMatrix(grid=grid, a=a, s=tspec.s, variant="transmission")
