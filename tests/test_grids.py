import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nlogis import (
    Field,
    build_grid,
    build_kernel,
    build_periodic_grid,
    l2_norm,
    problem_spec,
    sample_function,
)
from nlogis.grids import MAX_NODES


def test_unit_interval_nodes():
    g = build_grid([(0.0, 1.0)], 0.25)
    assert np.array_equal(g.nodes, np.array([0.25, 0.5, 0.75]))
    assert np.array_equal(g.interval_id, np.array([0, 0, 0]))


def test_two_disjoint_intervals():
    g = build_grid([(0.0, 1.0), (2.0, 3.0)], 0.5)
    assert g.n == 2
    assert np.array_equal(g.nodes, np.array([0.5, 2.5]))
    assert np.array_equal(g.interval_id, np.array([0, 1]))


def test_overlapping_intervals_rejected():
    with pytest.raises(ValueError, match="overlap"):
        build_grid([(0.0, 1.0), (0.5, 2.0)], 0.1)


def test_touching_intervals_rejected():
    with pytest.raises(ValueError, match="overlap|positive"):
        build_grid([(0.0, 1.0), (1.0, 2.0)], 0.25)


def test_noncommensurate_length_rejected():
    with pytest.raises(ValueError, match="multiple"):
        build_grid([(0.0, 1.05)], 0.25)


def test_nonpositive_spacing_rejected():
    with pytest.raises(ValueError, match="positive"):
        build_grid([(0.0, 1.0)], 0.0)


def test_node_cap_checked_before_allocation():
    assert build_grid([(0.0, 1.0)], 1.0 / (MAX_NODES + 1)).n == MAX_NODES
    with pytest.raises(ValueError, match="MAX_NODES"):
        build_grid([(0.0, 1.0), (2.0, 3.0)], 1.0 / (MAX_NODES // 2 + 2))
    with pytest.raises(ValueError, match="MAX_NODES"):
        build_grid([(0.0, 1.0)], 5e-324)  # the length over h overflows
    assert build_periodic_grid(MAX_NODES).n == MAX_NODES
    with pytest.raises(ValueError, match="MAX_NODES"):
        build_periodic_grid(MAX_NODES + 1)


def test_node_construction_is_deterministic():
    a = build_grid([(0.0, 1.0), (2.5, 4.0)], 2.0**-7)
    b = build_grid([(0.0, 1.0), (2.5, 4.0)], 2.0**-7)
    assert np.array_equal(a.nodes, b.nodes)
    k = int(round(1.0 / a.h))
    assert a.nodes[0] == 0.0 + 1 * a.h  # bit-for-bit formula
    assert a.nodes[k - 1] == 2.5 + 1 * a.h


@pytest.mark.parametrize("h", [8.0 / 9.0, 0.1])
def test_nodes_of_a_symmetric_interval_mirror_exactly(h):
    # a + k h alone mirrors only to rounding at these h
    nodes = build_grid([(-4.0, 4.0)], h).nodes
    assert np.array_equal(nodes, -nodes[::-1])


@pytest.mark.parametrize("intervals, h", [
    ([(0.0, 1.0)], 2.0**-7),
    ([(-4.0, 4.0)], 2.0**-6),
    ([(0.25, 1.0)], 2.0**-6),
    ([(0.0, 0.75)], 0.25),
    ([(0.0, 1.0), (2.5, 4.0)], 2.0**-7),
])
def test_dyadic_nodes_are_the_lattice_bit_for_bit(intervals, h):
    grid = build_grid(intervals, h)
    lattice = [a + np.arange(1, round((b - a) / h)) * h for a, b in intervals]
    assert np.array_equal(grid.nodes, np.concatenate(lattice))


def test_field_zero_extension():
    g = build_grid([(0.0, 1.0), (2.0, 3.0)], 0.25)
    u = sample_function(g, 1.0)
    assert u.evaluate(1.5) == 0.0
    assert u.evaluate(-3.0) == 0.0
    assert u.evaluate(5.0) == 0.0
    assert u.evaluate(0.5) == 1.0
    # linear decay toward the endpoints of each interval
    assert u.evaluate(0.125) == pytest.approx(0.5)


def test_field_length_mismatch():
    g = build_grid([(0.0, 1.0)], 0.25)
    with pytest.raises(ValueError, match="3 nodes"):
        sample_function(g, [1.0, 2.0])


def test_sample_scalar_and_callable():
    g = build_grid([(0.0, 1.0)], 0.25)
    assert np.array_equal(sample_function(g, 3).values, np.full(3, 3.0))
    sq = sample_function(g, lambda x: x**2)
    assert np.array_equal(sq.values, g.nodes**2)


def test_uniform_kernel_stencil():
    k = build_kernel("uniform", 0.5, 0.25)
    assert k.weights.size == 5
    assert 0.25 * k.weights.sum() == 1.0
    assert np.array_equal(k.weights, k.weights[::-1])
    assert np.all(k.weights >= 0.0)


def test_triangular_kernel_stencil():
    k = build_kernel("triangular", 0.3, 0.1)
    assert k.weights[k.k_max] == k.weights.max()  # peak at zero offset
    assert np.array_equal(k.weights, k.weights[::-1])
    assert 0.1 * k.weights.sum() == 1.0


def test_sampled_kernel_asymmetric_rejected():
    with pytest.raises(ValueError, match="even"):
        build_kernel("sampled", None, 0.1, samples=[0.1, 1.0, 0.2])


def test_sampled_kernel_roundtrip():
    k = build_kernel("sampled", None, 0.1, samples=[0.5, 1.0, 2.0, 1.0, 0.5])
    assert 0.1 * k.weights.sum() == 1.0
    assert k.rho == pytest.approx(0.2)


def test_unresolvable_kernel_rejected():
    with pytest.raises(ValueError, match="unresolvable"):
        build_kernel("uniform", 0.05, 0.1)


@settings(max_examples=40, deadline=None)
@given(
    rho=st.floats(min_value=0.05, max_value=2.0),
    cells=st.integers(min_value=1, max_value=64),
    shape=st.sampled_from(["uniform", "triangular"]),
)
def test_kernel_mass_everywhere(rho, cells, shape):
    h = rho / cells
    k = build_kernel(shape, rho, h)
    assert abs(h * k.weights.sum() - 1.0) <= 5e-16  # machine precision
    assert np.array_equal(k.weights, k.weights[::-1])
    assert np.all(k.weights >= 0.0)


def test_l2_norm_constant():
    g = build_grid([(0.0, 1.0)], 0.25)
    one = sample_function(g, 1.0)
    assert l2_norm(one) == pytest.approx(np.sqrt(0.75))
    zero = sample_function(g, 0.0)
    assert l2_norm(zero) == 0.0


def test_periodic_grid_basics():
    pg = build_periodic_grid(8)
    assert pg.h == 0.125
    assert pg.nodes[-1] == 0.5
    assert pg.nodes[0] > -0.5
    with pytest.raises(ValueError, match="at least 4"):
        build_periodic_grid(3)


def test_periodic_field_wraps():
    pg = build_periodic_grid(8)
    u = Field(grid=pg, values=np.arange(8.0))
    assert u.evaluate(0.5) == pytest.approx(7.0, abs=1e-9)
    assert u.evaluate(-0.5 + 1e-12) == pytest.approx(7.0, abs=1e-9)


def test_problem_spec_validation():
    g = build_grid([(0.0, 1.0)], 0.25)
    with pytest.raises(ValueError, match="tau"):
        problem_spec(g, 0.5, 1.0, 1.0, tau=-0.1)
    with pytest.raises(ValueError, match=r"s=1.5"):
        problem_spec(g, 1.5, 1.0, 1.0)
    with pytest.raises(ValueError, match="mu must be positive"):
        problem_spec(g, 0.5, 1.0, 0.0)
    spec = problem_spec(g, 0.5, 3.0, 1.0)
    assert np.array_equal(spec.sigma.values, np.full(3, 3.0))
    assert spec.triviality_tol == pytest.approx(3e-6)


def test_problem_spec_rejects_coefficients_from_another_grid():
    g = build_grid([(0.0, 1.0)], 0.25)
    # as many nodes: the other habitat's values were taken silently
    moved = sample_function(build_grid([(5.0, 6.0)], 0.25), 2.0)
    with pytest.raises(ValueError, match="sigma lives on a different grid"):
        problem_spec(g, 0.5, moved, 1.0)
    # more nodes: the solve failed inside numpy's matmul
    finer = sample_function(build_grid([(0.0, 1.0)], 0.125), 1.0)
    with pytest.raises(ValueError, match="mu lives on a different grid"):
        problem_spec(g, 0.5, 2.0, finer)
    # an equal grid built separately is the same grid
    same = sample_function(build_grid([(0.0, 1.0)], 0.25), 2.0)
    assert problem_spec(g, 0.5, same, 1.0).sigma is same


def test_problem_spec_requires_kernel_with_tau():
    g = build_grid([(0.0, 1.0)], 0.25)
    with pytest.raises(ValueError, match="kernel"):
        problem_spec(g, 0.5, 1.0, 1.0, tau=0.5)
