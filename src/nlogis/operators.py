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

Every weight depends only on the lattice distance between two nodes, so
the weights are tabulated once per distance, O(n) kernel evaluations, and
spread over the dense n x n matrix: Toeplitz blocks between the intervals
of a grid, a circulant on the periodic cell.  The periodic circulants'
first columns (_periodic_column, _periodic_stencil) are all the periodic
energy model keeps.  On one interval the even half of each operator
(_half_operator, _half_convolution) is folded straight from those tables
into a ceil(n/2)-square matrix, with no n x n one; so is the even half of
the Dirichlet and classical operators on two congruent intervals
(_half_operator), from the intervals' own table and the Hankel table of
the weights across the gap.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy.linalg import circulant, toeplitz
from scipy.special import zeta

from .grids import Grid, Kernel, PeriodicGrid, ProblemSpec, build_grid, problem_spec

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


def _span(idx: np.ndarray) -> slice:
    """The node indices of one interval, a contiguous run, as a slice."""
    return slice(int(idx[0]), int(idx[-1]) + 1)


def _interval_blocks(grid: Grid, block) -> np.ndarray:
    """n x n matrix filled with block(rows, cols) for every pair of the
    grid's intervals, each given by the slice of its node indices."""
    spans = [_span(grid.interval_nodes(k)) for k in range(len(grid.intervals))]
    out = np.empty((grid.n, grid.n))
    for rows in spans:
        for cols in spans:
            out[rows, cols] = block(rows, cols)
    return out


def _fold(x, endpoint, xp, h, s):
    """Kernel mass at the nodes x of the half cell between an interval
    endpoint and its nearest node xp, zero at xp itself."""
    same_side = np.sign(x - endpoint) == np.sign(xp - endpoint)
    q_in = np.abs(x - xp)
    at_p = q_in == 0.0
    q_in[at_p] = h  # dummy to keep the antiderivatives finite; masked below
    fold = np.where(
        same_side,
        _ramp_in(q_in, h, s),
        _ramp_out(np.abs(x - endpoint), h, s),
    )
    fold[at_p] = 0.0
    return fold


def _distance_weights(r, h, s):
    """Hat weights at node distances r, zero at r <= 1.5 h: a node and its
    neighbors get their weights elsewhere."""
    w = np.zeros(r.size)
    far = r > 1.5 * h
    w[far] = _far_weight(r[far], h, s)
    return w


def _far_block(x_rows, x_cols, h, s):
    """Hat weights between the nodes of two intervals of spacing h.

    The distance of two nodes, and with it their weight, depends only on
    the difference of their indices, so the block is Toeplitz: the kernel
    is evaluated on its first column and first row only.
    """
    return toeplitz(
        _distance_weights(np.abs(x_rows - x_cols[0]), h, s),
        _distance_weights(np.abs(x_rows[0] - x_cols), h, s),
    )


def _pair_weights(grid: Grid, s: float) -> np.ndarray:
    """Symmetric interaction weights w_ij for the kernel with exponent s."""
    x = grid.nodes
    h = grid.h
    w = _interval_blocks(
        grid, lambda rows, cols: _far_block(x[rows], x[cols], h, s))
    neighbor = _singular_weight(h, s) + _half_weight(h, s)
    blocks = [grid.interval_nodes(k) for k in range(len(grid.intervals))]
    for idx in blocks:
        w[idx[:-1], idx[1:]] = neighbor
        w[idx[1:], idx[:-1]] = neighbor
    # fold the two uncovered boundary half cells of every interval onto the
    # nearest interior node; constants stay annihilated
    for (a, b), idx in zip(grid.intervals, blocks):
        for endpoint, p in ((a, idx[0]), (b, idx[-1])):
            fold = _fold(x, endpoint, x[p], h, s)
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


def _fractional(grid: Grid, s: float, tail) -> np.ndarray:
    """2s(1-s) [-w + diag(row sums of w + tail)] for the weights w of the
    kernel with exponent s within the grid."""
    w = _pair_weights(grid, s)
    a = -w
    np.fill_diagonal(a, w.sum(axis=1) + tail)
    a *= 2.0 * s * (1.0 - s)
    return a


def _second_difference(a: np.ndarray, idx: np.ndarray, c: float) -> None:
    """Add c times the second difference on the nodes idx of one interval."""
    a[idx, idx] += 2.0 * c
    a[idx[:-1], idx[1:]] -= c
    a[idx[1:], idx[:-1]] -= c


def assemble_dirichlet(grid: Grid, s: float) -> NonlocalMatrix:
    """Discrete fractional operator with zero exterior condition."""
    if not 0.0 < s < 1.0:
        raise ValueError(f"fractional exponent s={s} must lie in (0, 1)")
    return NonlocalMatrix(grid=grid, a=_fractional(grid, s, _exterior_tail(grid, s)))


def assemble_classical(grid: Grid) -> NonlocalMatrix:
    """Second-difference operator, the s -> 1 limit of the fractional one."""
    a = np.zeros((grid.n, grid.n))
    for k in range(len(grid.intervals)):
        _second_difference(a, grid.interval_nodes(k),
                           CLASSICAL_LIMIT_CONSTANT / grid.h**2)
    return NonlocalMatrix(grid=grid, a=a)


# Periodic images summed directly; with the zeta remainder of the series
# the operators at 16 and 64 images differ by 8.3e-11 of their largest
# entry at most (6.1e-9 at 2 images), for s = 0.02 ... 0.98, n = 4 ... 1024.
IMAGE_CUTOFF = 16


def _periodic_pair_weights(pgrid: PeriodicGrid, s: float) -> np.ndarray:
    """omega[d]: summed image weights for cell offset d = 0..n-1.

    Offset d gathers two image families, at lattice distances d + m n and
    (n - d) + m n for m >= 0.  The terms of each family f = 1..n-1 are
    tabulated once; omega[d] adds those of family d, then those of family
    n - d, always in the same order.
    """
    n = pgrid.n
    h = pgrid.h
    cutoff = IMAGE_CUTOFF
    neighbor = _singular_weight(h, s) + _half_weight(h, s)
    fam = np.arange(1, n)
    q = fam[:, None] + np.arange(cutoff) * n  # lattice distances in units of h
    far = np.empty(n - 1)
    # q = 1, the only neighbor, is the first image of family 1
    far[0] = np.sum(_far_weight(q[0, 1:] * h, h, s))
    far[1:] = _far_weight(q[1:] * h, h, s).sum(axis=1)
    # analytic remainder of the image series from m = cutoff on; the
    # hat-kernel convolution expands as h K + h^3 K''/12 + h^5 K''''/360
    # and the image distances are m + fam/n in length units
    astart = cutoff + fam / n
    c2 = (1 + 2 * s) * (2 + 2 * s)
    c4 = c2 * (3 + 2 * s) * (4 + 2 * s)
    terms = (
        np.where(fam == 1, neighbor, 0.0),
        far,
        h * zeta(1 + 2 * s, astart),
        h**3 * c2 / 12.0 * zeta(3 + 2 * s, astart),
        h**5 * c4 / 360.0 * zeta(5 + 2 * s, astart),
    )
    omega = np.zeros(n)
    for f in (fam, n - fam):
        for term in terms:
            omega[1:] += term[f - 1]
    return omega


def _periodic_column(pgrid: PeriodicGrid, s: float) -> np.ndarray:
    """First column of the periodic operator, a circulant: 2s(1-s) times
    -omega, with the row sum of omega on the diagonal."""
    if not 0.0 < s < 1.0:
        raise ValueError(f"fractional exponent s={s} must lie in (0, 1)")
    omega = _periodic_pair_weights(pgrid, s)
    col = -omega
    col[0] = omega[1:].sum()
    col *= 2.0 * s * (1.0 - s)
    return col


def assemble_periodic(pgrid: PeriodicGrid, s: float) -> NonlocalMatrix:
    """Fractional operator on the unit cell with periodized kernel.

    Rows sum to zero exactly: the periodic extension of a constant is
    annihilated, there is no exterior to lose mass to.
    """
    return NonlocalMatrix(grid=pgrid, a=circulant(_periodic_column(pgrid, s)))


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

def _check_spacing(kernel: Kernel, h: float) -> None:
    if abs(kernel.h - h) > 1e-12 * h:
        raise ValueError("kernel lattice spacing differs from grid spacing")


def _periodic_stencil(kernel: Kernel, pgrid: PeriodicGrid) -> np.ndarray:
    """b_off[d]: the convolution weight h J at cell offset d = 0..n-1,
    the stencil summed over the periodic images; the first column of the
    periodic convolution matrix, a circulant."""
    _check_spacing(kernel, pgrid.h)
    if kernel.rho >= IMAGE_CUTOFF - 1:
        raise ValueError(
            f"kernel radius {kernel.rho} exceeds periodic image cutoff "
            f"{IMAGE_CUTOFF} - 1"
        )
    n = pgrid.n
    wrap = int(np.ceil(kernel.rho)) + 1
    q = np.arange(n)[:, None] + np.arange(-wrap, wrap + 1) * n
    sel = np.abs(q) <= kernel.k_max
    # the stencil offsets of one cell offset are a contiguous run of
    # images; summing the runs of one length as the rows of one array
    # adds each in offset order, the same sums at any kernel radius
    count = sel.sum(axis=1)
    first = sel.argmax(axis=1)
    b_off = np.zeros(n)
    for c in np.unique(count[count > 0]):
        rows = np.nonzero(count == c)[0]
        run = q[rows[:, None], first[rows, None] + np.arange(c)]
        b_off[rows] = pgrid.h * kernel.weights[kernel.k_max + run].sum(axis=1)
    return b_off


def _stencil(kernel: Kernel, h: float, k: np.ndarray) -> np.ndarray:
    """The convolution weights h J at lattice offsets k, zero beyond k_max."""
    index = np.clip(kernel.k_max + k, 0, kernel.weights.size - 1)
    return np.where(np.abs(k) <= kernel.k_max, h * kernel.weights[index], 0.0)


def convolution_matrix(kernel: Kernel, grid: Grid | PeriodicGrid) -> np.ndarray:
    """Matrix B with (J*u)_i = (B u)_i = h sum_j J(x_i - x_j) u_j.

    On a bounded grid B is built one block per pair of intervals.  When the
    first nodes of the two intervals are a whole number k0 of spacings
    apart (to 1e-9 h), every pair of their nodes lies on one lattice and
    the block is the Toeplitz spread of the renormalized stencil weights,
    zero beyond k_max, so the discrete unit-mass identity is inherited
    exactly; otherwise the block takes the renormalized profile at every
    pair.  On the periodic cell B is the circulant of the stencil summed
    over the images.
    """
    if isinstance(grid, PeriodicGrid):
        return circulant(_periodic_stencil(kernel, grid))
    h = grid.h
    _check_spacing(kernel, h)
    x = grid.nodes

    def block(rows, cols):
        x_rows, x_cols = x[rows], x[cols]
        offset = x_rows[0] - x_cols[0]
        k0 = int(np.rint(offset / h))
        if abs(offset - k0 * h) > 1e-9 * h:
            return h * kernel.profile(x_rows[:, None] - x_cols[None, :])
        return toeplitz(_stencil(kernel, h, k0 + np.arange(x_rows.size)),
                        _stencil(kernel, h, k0 - np.arange(x_cols.size)))

    return _interval_blocks(grid, block)


# ---------------------------------------------------------------------------
# the even half of one interval or of a congruent pair, assembled without
# the n x n matrix
# ---------------------------------------------------------------------------

def _fold_toeplitz(col: np.ndarray, hankel: np.ndarray) -> np.ndarray:
    """c_ij = col[|i-j|] + hankel[i+j] on the first m = (hankel.size + 1) // 2
    nodes: the symmetric Toeplitz block whose first column is col (at least
    m entries) plus the Hankel block whose entries hankel[:2m-1] run along
    its antidiagonals.

    Both blocks are read from strided views into one m x m array (a copy,
    then an add in place: a single np.add of the two views took twice as
    long).  On one interval of n nodes hankel is col reversed,
    t_{i,n-1-j} = col[n-1-i-j], and the sum is P^T t P on the first m =
    ceil(n/2) nodes, for the symmetric Toeplitz t of first column col;
    _weigh_middle then makes it the even half W^-1/2 P^T t P W^-1/2
    (spectral._EvenHalf.matrix).
    """
    m = (hankel.size + 1) // 2
    both_ways = np.concatenate((col[m - 1:0:-1], col[:m]))  # col[|k|], |k| < m
    out = np.array(sliding_window_view(both_ways, m)[::-1])
    out += sliding_window_view(hankel[:2 * m - 1], m)
    return out


def _mirrors(grid: Grid) -> bool:
    """True when grid is one interval, or two with equal node counts, which
    are congruent and mirror about the centre of their hull: the grids the
    half builders take."""
    return len(grid.intervals) == 1 or (
        len(grid.intervals) == 2
        and 2 * np.count_nonzero(grid.interval_id == 0) == grid.n)


def _mirror_tables(grid: Grid, weights) -> tuple[np.ndarray, np.ndarray]:
    """(col, hankel) of _fold_toeplitz for the weight weights(r) at node
    distance r, on one interval or on two congruent ones.

    col holds the weights from the first node of an interval to its nodes.
    hankel holds them, by i + j, from node i of the even half to the mirror
    image of node j.  On one interval hankel is col reversed, a view, so
    that setting an entry of col sets it in hankel too.  On a pair the
    mirror image of node j is node n-1-j of the second interval, at
    distance (lo + hi) - x_i - x_j: hankel is the far block's first row
    reversed, then its first column (_far_block), and col the mean of the
    two intervals' tables, which are mirror images only to rounding (the
    far weights cancel: with the first interval's table alone the half was
    up to 47 eps max|diag A| off the dense fold at 128 nodes each,
    s = 0.1).
    """
    x = grid.nodes
    if len(grid.intervals) == 1:
        col = weights(np.abs(x - x[0]))
        return col, col[::-1]
    m = grid.n // 2
    col = 0.5 * (weights(np.abs(x[:m] - x[0]))
                 + weights(np.abs(x[m:] - x[m])))
    return col, np.concatenate((weights(np.abs(x[0] - x[:m - 1:-1])),
                                weights(np.abs(x[1:m] - x[m]))))


def _weigh_middle(c: np.ndarray, n: int) -> np.ndarray:
    """The fold c of n nodes weighed by W^-1/2 on both sides, in place: for
    odd n the middle row and column scaled by 1/sqrt 2."""
    if n % 2:
        c[-1] *= np.sqrt(0.5)
        c[:, -1] *= np.sqrt(0.5)
    return c


def _even_part(v: np.ndarray) -> np.ndarray:
    """(v + reversed v) / 2."""
    return 0.5 * (v + v[::-1])


def _half_dirichlet(grid: Grid, s: float) -> np.ndarray:
    """The even half of assemble_dirichlet(grid, s).a, from O(n) tables;
    grid must be one interval or two congruent ones (see _mirror_tables).

    The weights are the Toeplitz table of an interval (_distance_weights,
    its entry 1 the neighbour weight) and, on a pair, the Hankel table of
    the far block between the intervals, plus the two boundary folds of
    every interval on the row and column of its node.
    -c times the tables folds by _fold_toeplitz.  Each boundary fold plus
    its mirror image lands on the column of the fold's node or of its
    mirror node, whichever lies in the half, and on that row: the first
    row and column of one interval (its two ends mirror each other), the
    first and last of a pair's half.  The diagonal c (row sum of the
    weights + exterior tail, the gap segment included) takes the
    Toeplitz and Hankel row sums from that fold: a row of it holds a whole
    row of the weights, and for odd n its Hankel middle column once more.
    The middle node of an odd n is its own mirror image, so its diagonal
    counts twice before the weighing.

    The computed folds and the tail of mirror nodes are mirror images only
    to rounding (the ramps cancel: 47 eps max|diag A| apart at n = 256,
    s = 0.1), so this is the half of the persymmetric part (A + J A J) / 2,
    the folds, the tail and a pair's two tables averaged with their mirror
    images.
    """
    if not 0.0 < s < 1.0:
        raise ValueError(f"fractional exponent s={s} must lie in (0, 1)")
    x, h, n = grid.nodes, grid.h, grid.n
    m = (n + 1) // 2
    c = 2.0 * s * (1.0 - s)
    t, t_mirror = _mirror_tables(grid, lambda r: _distance_weights(r, h, s))
    t[1:2] = _singular_weight(h, s) + _half_weight(h, s)
    col = -c * t
    half = _fold_toeplitz(col, -c * t_mirror)
    # the boundary folds by the half node whose row and column they land on,
    # and the kernel mass each such node holds
    on_node, mass = {}, {}
    for k, (a, b) in enumerate(grid.intervals):
        idx = grid.interval_nodes(k)
        for endpoint, p in ((a, idx[0]), (b, idx[-1])):
            fold = _fold(x, endpoint, x[p], h, s)
            q = min(p, n - 1 - p)
            on_node[q] = on_node.get(q, 0.0) + fold
            mass[q] = mass.get(q, 0.0) + fold.sum()
    folds = {q: _even_part(f) for q, f in on_node.items()}
    tail = _even_part(_exterior_tail(grid, s))
    diag = c * (sum(folds.values()) + tail)[:m] - half.sum(axis=1)
    for q, total in mass.items():
        diag[q] += 0.5 * c * total
    if n % 2:
        diag += col[m - 1::-1]
        diag[-1] *= 2.0
    half[np.diag_indices(m)] += diag
    for q, fold in folds.items():
        half[q] -= c * fold[:m]
        half[:, q] -= c * fold[:m]
    return _weigh_middle(half, n)


def _half_classical(grid: Grid) -> np.ndarray:
    """The even half of assemble_classical(grid).a; grid must be one
    interval or two congruent ones, which do not couple: a pair's half is
    its first interval's second difference."""
    c = CLASSICAL_LIMIT_CONSTANT / grid.h**2
    col, hankel = _mirror_tables(grid, np.zeros_like)
    col[0] = 2.0 * c
    col[1:2] = -c
    return _weigh_middle(_fold_toeplitz(col, hankel), grid.n)


def _half_operator(grid: Grid, s: float) -> np.ndarray:
    """The even half of assemble(grid, s).a, for a grid that _mirrors."""
    return _half_classical(grid) if s == 1.0 else _half_dirichlet(grid, s)


def _half_convolution(kernel: Kernel, grid: Grid) -> np.ndarray:
    """The even half of convolution_matrix(kernel, grid); grid must be one
    interval."""
    _check_spacing(kernel, grid.h)
    col = _stencil(kernel, grid.h, np.arange(grid.n))
    return _weigh_middle(_fold_toeplitz(col, col[::-1]), grid.n)


# ---------------------------------------------------------------------------
# transmission
# ---------------------------------------------------------------------------

@dataclass(frozen=True, kw_only=True)
class TransmissionSpec(ProblemSpec):
    """Two disjoint habitats: local diffusion on one, fractional (exponent s)
    on the other, coupled to their complements (nu_i, s_i); no convolution."""

    local_id: int
    s1: float
    s2: float
    nu1: float
    nu2: float

    def __post_init__(self):
        if self.tau != 0.0 or self.kernel is not None:
            raise ValueError("a transmission problem takes no convolution (tau, kernel)")

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
) -> TransmissionSpec:
    """Validate the habitat and couplings; sigma, mu and solver_tol are
    sampled and validated by grids.problem_spec."""
    for name, val in (("s", s), ("s1", s1), ("s2", s2)):
        if not 0.0 < val < 1.0:
            raise ValueError(f"{name}={val} must lie in (0, 1)")
    if nu1 < 0.0 or nu2 < 0.0:
        raise ValueError("coupling weights nu_i must be nonnegative")
    grid = build_grid([interval_local, interval_nonlocal], h)
    local_id = 0 if grid.intervals[0] == tuple(map(float, interval_local)) else 1
    spec = problem_spec(grid, s, sigma, mu, solver_tol=solver_tol)
    return TransmissionSpec(**vars(spec), local_id=local_id, s1=float(s1),
                            s2=float(s2), nu1=float(nu1), nu2=float(nu2))


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
    w = _far_block(x[own], x[other], h, s_i)
    for endpoint, p_local in ((a_oth, 0), (b_oth, other.size - 1)):
        w[:, p_local] += _fold(x[own], endpoint, x[other[p_local]], h, s_i)
    a[_span(own), _span(other)] -= coeff * w
    a[_span(other), _span(own)] -= coeff * w.T


def assemble_transmission(tspec: TransmissionSpec) -> NonlocalMatrix:
    """Matrix of the undoubled transmission form: h u^T A u discretizes

        int_{O1} |u'|^2 + s(1-s) iint_{O2 x O2} |u(x)-u(y)|^2 K_s
        + sum_i nu_i s_i (1-s_i) iint_{O_i x complement(O_i)} |u(x)-u(y)|^2 K_{s_i}.
    """
    grid = tspec.grid
    h = grid.h
    a = np.zeros((grid.n, grid.n))
    # local block: exact P1 Dirichlet form of int |u'|^2
    _second_difference(a, grid.interval_nodes(tspec.local_id), 1.0 / h**2)
    # fractional block on the nonlocal component, interactions within it only
    non = _span(grid.interval_nodes(tspec.nonlocal_id))
    sub = build_grid([grid.intervals[tspec.nonlocal_id]], h)
    a[non, non] += _fractional(sub, tspec.s, 0.0)
    # cross couplings of each component with its complement
    _cross_coupling(
        a, grid, tspec.local_id, tspec.nu1 * tspec.s1 * (1.0 - tspec.s1), tspec.s1
    )
    _cross_coupling(
        a, grid, tspec.nonlocal_id, tspec.nu2 * tspec.s2 * (1.0 - tspec.s2), tspec.s2
    )
    return NonlocalMatrix(grid=grid, a=a)
