"""Grids, fields, convolution kernels and problem data.

The computational domain is a union of disjoint open intervals whose lengths
are commensurate with a single spacing h.  Unknowns live at the interior
lattice nodes only; a field is implicitly extended by zero outside the
domain, which is exactly how the hostile-exterior (Dirichlet) condition is
imposed.  Kernels are even, nonnegative and renormalized so that the discrete
stencil has unit mass, h * sum(weights) == 1, which makes the convolution of
a constant on a periodic lattice exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

__all__ = [
    "MAX_NODES",
    "Grid",
    "PeriodicGrid",
    "Field",
    "Kernel",
    "ProblemSpec",
    "build_grid",
    "build_periodic_grid",
    "build_kernel",
    "sample_function",
    "problem_spec",
    "l2_norm",
]

_REL_TOL = 1e-12

# Largest node count of a grid.  The operators are dense: one n x n float64
# matrix takes 8 n^2 bytes, 512 MiB at this cap.  The heaviest path is a
# solve with a kernel and tau > 0 (operator, convolution matrix and the
# solver's matrices held together): its peak memory above the import
# (tracemalloc) was 3.1 matrices at n = 1023, 2047 and 4095, so about
# 1.6 GiB here.  The strategic construction peaks at 2.7 matrices in its
# harmonic fit and reads only the inner ball's rows of A - tau B after it;
# the transmission form peaks at 2.1 matrices, and eigen at 2.0 on a union
# it assembles, but at 0.53 on one interval or two congruent ones, which
# it builds as their half-order even half (n = 1022 ... 4095).  The
# periodic solve applies its circulant by FFT and holds no matrix (3.5 MiB
# above the import at n = 4096), but the periodic cell keeps the cap: its
# public builders, assemble_periodic and convolution_matrix, are dense.
# Twice the cap would need about 6.3 GiB, nearly all of a 7 GB machine.
MAX_NODES = 8192

# Cap on the other input that sizes an allocation, set from measured peak
# memory to at most one operator matrix at MAX_NODES: a uniform or
# triangular kernel's stencil of 2 floor(rho / h) + 1 points at 32 bytes a
# point (512 MiB at its cap).
MAX_STENCIL = 2**24


def _check_node_count(count: float, what: str) -> None:
    # a count computed from interval lengths is an integer only to within
    # rounding; an infinite one (h underflowing the length) is rejected too
    if count > MAX_NODES + 0.5:
        raise ValueError(
            f"{what} has {count:g} nodes, more than the {MAX_NODES} "
            "(MAX_NODES) a dense operator is built for"
        )


@dataclass(frozen=True)
class Grid:
    """Union of disjoint uniform-spacing intervals with interior nodes."""

    intervals: tuple[tuple[float, float], ...]
    h: float
    nodes: np.ndarray
    interval_id: np.ndarray

    @property
    def n(self) -> int:
        return self.nodes.size

    def interval_nodes(self, k: int) -> np.ndarray:
        """Indices of the nodes belonging to interval k."""
        return np.nonzero(self.interval_id == k)[0]

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Grid)
            and self.intervals == other.intervals
            and self.h == other.h
        )

    def __hash__(self) -> int:
        return hash((self.intervals, self.h))


@dataclass(frozen=True)
class PeriodicGrid:
    """Uniform lattice on the unit cell (-1/2, 1/2] with periodic wrap."""

    n: int

    def __post_init__(self):
        if self.n < 4:
            raise ValueError(f"periodic grid needs at least 4 nodes, got {self.n}")
        _check_node_count(self.n, "periodic grid")

    @property
    def h(self) -> float:
        return 1.0 / self.n

    @property
    def nodes(self) -> np.ndarray:
        return (np.arange(1, self.n + 1)) / self.n - 0.5


@dataclass(frozen=True)
class Field:
    """Nodal values of a function vanishing outside the grid's intervals."""

    grid: Grid | PeriodicGrid
    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", vals)
        n = self.grid.n
        if vals.shape != (n,):
            raise ValueError(
                f"field has {vals.shape} values for a grid with {n} nodes"
            )

    def evaluate(self, x: float) -> float:
        """Piecewise-linear evaluation; exactly 0 outside every interval."""
        if isinstance(self.grid, PeriodicGrid):
            x = x - np.floor(x + 0.5)  # wrap into (-1/2, 1/2]
            nodes = self.grid.nodes
            vals = np.concatenate(([self.values[-1]], self.values))
            xs = np.concatenate(([nodes[0] - self.grid.h], nodes))
            return float(np.interp(x, xs, vals))
        for k, (a, b) in enumerate(self.grid.intervals):
            if a < x < b:
                idx = self.grid.interval_nodes(k)
                xs = np.concatenate(([a], self.grid.nodes[idx], [b]))
                vs = np.concatenate(([0.0], self.values[idx], [0.0]))
                return float(np.interp(x, xs, vs))
        return 0.0

    def max(self) -> float:
        return float(np.max(self.values))

    def min(self) -> float:
        return float(np.min(self.values))


def build_grid(intervals: Sequence[tuple[float, float]], h: float) -> Grid:
    """Construct the interior-node grid for a union of intervals.

    Every interval length must be an integer multiple of h (to 1e-12
    relative), the closed intervals pairwise disjoint with strictly
    positive gaps.  Nodes are a + k h up to the middle, b - k h past it.
    """
    if h <= 0.0:
        raise ValueError(f"spacing must be positive, got h={h}")
    if not intervals:
        raise ValueError("at least one interval is required")
    ivals = sorted((float(a), float(b)) for a, b in intervals)
    _check_node_count(sum((b - a) / h - 1.0 for a, b in ivals),
                      f"a grid with h={h}")
    for a, b in ivals:
        if not b > a:
            raise ValueError(f"degenerate interval ({a}, {b})")
        m = (b - a) / h
        if abs(m - round(m)) > _REL_TOL * max(1.0, m):
            raise ValueError(
                f"interval ({a}, {b}) length {b - a} is not a multiple of h={h}"
            )
        if round(m) < 2:
            raise ValueError(
                f"interval ({a}, {b}) is too short for h={h}: no interior nodes"
            )
    for (_, b0), (a1, _) in zip(ivals, ivals[1:]):
        if a1 <= b0:
            raise ValueError(
                f"intervals overlap or touch near x={a1}; gaps must be positive"
            )
    nodes = []
    ids = []
    for k, (a, b) in enumerate(ivals):
        m = int(round((b - a) / h))
        # the right half from b: the nodes of (-R, R) mirror exactly at any h
        nodes.append(np.concatenate((a + np.arange(1, m // 2 + 1) * h,
                                     b - np.arange((m - 1) // 2, 0, -1) * h)))
        ids.append(np.full(m - 1, k, dtype=int))
    return Grid(
        intervals=tuple(ivals),
        h=float(h),
        nodes=np.concatenate(nodes),
        interval_id=np.concatenate(ids),
    )


def build_periodic_grid(n: int) -> PeriodicGrid:
    return PeriodicGrid(n=int(n))


@dataclass(frozen=True)
class Kernel:
    """Even, nonnegative convolution kernel with unit discrete mass.

    weights are the lattice stencil values J(k*h) for offsets -k_max..k_max
    after renormalization; h * weights.sum() == 1 exactly.  profile() extends
    the renormalized kernel to arbitrary offsets (needed when intervals of a
    grid are not mutually lattice-aligned).
    """

    shape: str
    rho: float
    h: float
    weights: np.ndarray
    scale: float

    @property
    def k_max(self) -> int:
        return (self.weights.size - 1) // 2

    def profile(self, x) -> np.ndarray:
        """Renormalized kernel value at arbitrary offset(s)."""
        r = np.abs(np.asarray(x, dtype=float))
        if self.shape == "uniform":
            out = np.where(r <= self.rho, self.scale / (2.0 * self.rho), 0.0)
        elif self.shape == "triangular":
            out = self.scale * np.maximum(0.0, 1.0 - r / self.rho) / self.rho
        else:  # sampled: linear interpolation of the renormalized samples
            xs = np.arange(self.k_max + 1) * self.h
            half = self.weights[self.k_max:]
            out = np.interp(r, xs, half, right=0.0)
        return out


def build_kernel(
    shape: str,
    rho: float | None,
    h: float,
    samples: Sequence[float] | None = None,
) -> Kernel:
    """Sample a kernel shape on the lattice and renormalize to unit mass."""
    if h <= 0.0:
        raise ValueError("kernel lattice spacing must be positive")
    if shape == "sampled":
        if samples is None:
            raise ValueError("shape 'sampled' requires samples")
        raw = np.asarray(samples, dtype=float)
        if raw.ndim != 1 or raw.size % 2 == 0:
            raise ValueError("samples must be a 1d list of odd length")
        if not np.array_equal(raw, raw[::-1]):
            raise ValueError("samples must be even: J(-x) = J(x) exactly")
        if np.any(raw < 0.0):
            raise ValueError("kernel samples must be nonnegative")
        rho = (raw.size - 1) // 2 * h
        if rho < h:
            raise ValueError("sampled kernel needs at least 3 samples")
    elif shape in ("uniform", "triangular"):
        if rho is None or rho < h:
            raise ValueError(
                f"kernel radius rho={rho} is unresolvable on the grid (rho >= h required)"
            )
        reach = np.floor(rho / h + 1e-9)  # may be inf, so checked as a float
        if 2.0 * reach + 1.0 > MAX_STENCIL:
            raise ValueError(f"kernel radius rho={rho} needs more than "
                             f"{MAX_STENCIL} (MAX_STENCIL) stencil points at h={h}")
        k_max = int(reach)
        offsets = np.arange(-k_max, k_max + 1) * h
        if shape == "uniform":
            raw = np.where(np.abs(offsets) <= rho + 1e-15, 1.0 / (2.0 * rho), 0.0)
        else:
            raw = np.maximum(0.0, 1.0 - np.abs(offsets) / rho) / rho
    else:
        raise ValueError(f"unknown kernel shape {shape!r}")

    mass = h * float(raw.sum())
    if mass <= 0.0:
        raise ValueError("kernel has zero discrete mass on this lattice")
    weights = raw / mass
    center = weights.size // 2
    best = weights.copy()
    best_delta = abs(1.0 - h * float(weights.sum()))
    for _ in range(6):  # drive h * sum(weights) to 1.0 within rounding
        delta = 1.0 - h * float(weights.sum())
        if delta == 0.0:
            best, best_delta = weights, 0.0
            break
        weights = weights.copy()
        weights[center] += delta / h
        err = abs(1.0 - h * float(weights.sum()))
        if err < best_delta:
            best, best_delta = weights, err
    weights = best
    return Kernel(
        shape=shape,
        rho=float(rho),
        h=float(h),
        weights=weights,
        scale=1.0 / mass,
    )


def sample_function(grid: Grid | PeriodicGrid, f) -> Field:
    """Build a Field from a scalar, a callable, or tabulated values."""
    nodes = grid.nodes
    if np.isscalar(f):
        values = np.full(nodes.size, float(f))
    elif callable(f):
        values = np.asarray([float(f(x)) for x in nodes])
    else:
        values = np.asarray(f, dtype=float)
        if values.shape != nodes.shape:
            raise ValueError(
                f"tabulated values have length {values.size}, grid has {nodes.size} nodes"
            )
    return Field(grid=grid, values=values)


@dataclass(frozen=True)
class ProblemSpec:
    """Full data of one steady logistic problem."""

    grid: Grid | PeriodicGrid
    s: float
    sigma: Field
    mu: Field
    tau: float = 0.0
    kernel: Kernel | None = None
    solver_tol: float = 1e-10
    triviality_tol: float = 0.0


def problem_spec(
    grid: Grid | PeriodicGrid,
    s: float,
    sigma,
    mu,
    tau: float = 0.0,
    kernel: Kernel | None = None,
    solver_tol: float = 1e-10,
    triviality_tol: float | None = None,
) -> ProblemSpec:
    """Validate and broadcast problem data; scalars become Fields here."""
    if not 0.0 < s <= 1.0:
        raise ValueError(f"s={s} must lie in (0, 1]")
    if tau < 0.0:
        raise ValueError(f"tau={tau} violates the constraint tau >= 0")
    if tau > 0.0 and kernel is None:
        raise ValueError("tau > 0 requires a convolution kernel")
    sigma_f = _coefficient(grid, "sigma", sigma)
    mu_f = _coefficient(grid, "mu", mu)
    if np.any(sigma_f.values < 0.0):
        raise ValueError("sigma must be nonnegative")
    if np.any(mu_f.values < 0.0):
        raise ValueError("mu must be nonnegative")
    if (sigma_f.max() > 0.0 or tau > 0.0) and mu_f.min() <= 0.0:
        # without saturation the cubic term cannot control the growth terms
        raise ValueError("mu must be positive everywhere when sigma or tau is active")
    if solver_tol <= 0.0:
        raise ValueError("solver_tol must be positive")
    if triviality_tol is None:
        triviality_tol = max(1e-6 * (sigma_f.max() + tau), 1e-12)
    elif triviality_tol <= 0.0:
        raise ValueError("triviality_tol must be positive")
    return ProblemSpec(
        grid=grid,
        s=float(s),
        sigma=sigma_f,
        mu=mu_f,
        tau=float(tau),
        kernel=kernel,
        solver_tol=float(solver_tol),
        triviality_tol=float(triviality_tol),
    )


def _coefficient(grid: Grid | PeriodicGrid, name: str, f) -> Field:
    """f sampled on grid, or f itself when it is a Field on grid."""
    if not isinstance(f, Field):
        return sample_function(grid, f)
    if f.grid is not grid and f.grid != grid:
        raise ValueError(f"{name} lives on a different grid")
    return f


def l2_norm(u: Field) -> float:
    """Discrete L2 norm sqrt(h * sum u_i^2)."""
    return float(np.sqrt(u.grid.h * np.sum(u.values**2)))

