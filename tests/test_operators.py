import numpy as np
import pytest

import oracles
from nlogis import (
    CLASSICAL_LIMIT_CONSTANT,
    Field,
    assemble,
    assemble_classical,
    assemble_dirichlet,
    assemble_periodic,
    assemble_transmission,
    build_grid,
    build_kernel,
    build_periodic_grid,
    convolution_matrix,
    convolve,
    l2_norm,
    quadratic_form,
    sample_function,
    transmission_spec,
)
from nlogis import operators
from nlogis.operators import _exterior_tail


# ---------------------------------------------------------------------------
# Dirichlet fractional operator
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("s", [0.1, 0.25, 0.5, 0.75, 0.9])
def test_constant_extension_identity(s):
    grid = build_grid([(0.0, 1.0), (1.5, 2.0)], 2.0**-6)
    op = assemble_dirichlet(grid, s)
    tails = 2.0 * s * (1.0 - s) * _exterior_tail(grid, s)
    action = op.a @ np.ones(grid.n)
    assert np.max(np.abs(action - tails) / tails) <= 1e-10


@pytest.mark.parametrize("s", [0.25, 0.5, 0.75])
def test_exact_symmetry_and_sign_pattern(s):
    grid = build_grid([(0.0, 1.0), (2.0, 3.0)], 2.0**-5)
    op = assemble_dirichlet(grid, s)
    assert np.max(np.abs(op.a - op.a.T)) == 0.0
    off = op.a - np.diag(np.diag(op.a))
    assert np.all(off <= 0.0)
    assert np.all(np.diag(op.a) > 0.0)


@pytest.mark.parametrize("s", [0.25, 0.5, 0.75])
def test_positive_definiteness(s):
    grid = build_grid([(0.0, 1.0)], 2.0**-5)
    op = assemble_dirichlet(grid, s)
    rng = np.random.default_rng(7)
    for _ in range(100):
        u = Field(grid=grid, values=rng.standard_normal(grid.n))
        assert quadratic_form(op, u) > 0.0


def test_action_matches_pv_quadrature_on_kinked_field():
    # the tent peaks at the midpoint, where its singular integral diverges
    # for s >= 1/2; consistency is checked on the flank instead, where the
    # field is locally smooth
    s, h = 0.5, 2.0**-10
    grid = build_grid([(0.0, 1.0)], h)
    tent = lambda y: np.maximum(0.0, 1.0 - np.abs(2.0 * y - 1.0))
    u = sample_function(grid, lambda y: float(tent(y)))
    action = assemble_dirichlet(grid, s).a @ u.values
    for x0 in (0.25, 0.375):
        i = int(round(x0 / h)) - 1
        oracle = oracles.pv_fractional(
            lambda y: float(tent(y)) if 0.0 < y < 1.0 else 0.0,
            x0, s, (0.0, 1.0),
        )
        assert abs(action[i] / oracle - 1.0) <= 1e-2


def test_quadratic_form_matches_double_sum_oracle():
    s, h = 0.5, 2.0**-8
    grid = build_grid([(0.0, 1.0)], h)
    op = assemble_dirichlet(grid, s)
    hat = sample_function(grid, lambda y: max(0.0, 1.0 - abs(2.0 * y - 1.0)))
    reference = oracles.quad_dirichlet_matrix(grid, s)
    form = quadratic_form(op, hat)
    form_oracle = h * hat.values @ (reference @ hat.values)
    assert abs(form / form_oracle - 1.0) <= 1e-6
    assert form == pytest.approx(
        l2_norm(Field(grid=grid, values=op.a @ hat.values)) * 0.0
        + h * hat.values @ (op.a @ hat.values)
    )


def test_entries_continuous_in_s():
    grid = build_grid([(0.0, 1.0)], 2.0**-5)
    a0 = assemble_dirichlet(grid, 0.5).a
    a1 = assemble_dirichlet(grid, 0.5 + 1e-7).a
    assert np.max(np.abs(a1 - a0)) <= 1e-4 * np.max(np.abs(a0))


def test_zero_field_form_is_zero():
    grid = build_grid([(0.0, 1.0)], 0.125)
    op = assemble_dirichlet(grid, 0.5)
    assert quadratic_form(op, sample_function(grid, 0.0)) == 0.0


def test_form_equals_inner_product_exactly():
    from nlogis import apply_operator, l2_inner

    grid = build_grid([(0.0, 1.0)], 2.0**-5)
    op = assemble_dirichlet(grid, 0.5)
    rng = np.random.default_rng(2)
    for _ in range(20):
        u = Field(grid=grid, values=rng.standard_normal(grid.n))
        assert l2_inner(u, apply_operator(op, u)) == quadratic_form(op, u)


def test_periodic_form_nonnegative():
    pg = build_periodic_grid(32)
    op = assemble_periodic(pg, 0.5)
    rng = np.random.default_rng(6)
    for _ in range(100):
        u = Field(grid=pg, values=rng.standard_normal(32))
        assert quadratic_form(op, u) >= -1e-12


def test_form_grid_mismatch():
    op = assemble_dirichlet(build_grid([(0.0, 1.0)], 0.125), 0.5)
    other = sample_function(build_grid([(0.0, 1.0)], 0.25), 1.0)
    with pytest.raises(ValueError, match="different grids"):
        quadratic_form(op, other)


def test_invalid_exponent():
    grid = build_grid([(0.0, 1.0)], 0.25)
    with pytest.raises(ValueError, match="lie in"):
        assemble_dirichlet(grid, 1.0)
    with pytest.raises(ValueError, match="lie in"):
        assemble_dirichlet(grid, 0.0)


def test_assemble_dispatches_on_grid_and_exponent():
    grid = build_grid([(0.0, 1.0), (1.5, 2.0)], 2.0**-4)
    pgrid = build_periodic_grid(16)
    for habitat, s, expected in (
        (grid, 0.5, assemble_dirichlet(grid, 0.5)),
        (grid, 1.0, assemble_classical(grid)),
        (pgrid, 0.5, assemble_periodic(pgrid, 0.5)),
    ):
        op = assemble(habitat, s)
        assert op.variant == expected.variant
        assert np.array_equal(op.a, expected.a)
    with pytest.raises(ValueError, match="lie in"):
        assemble(pgrid, 1.0)


# Dyda (2012): (-Delta)^s (1 - x^2)_+^s is constant on (-1, 1); in this
# code's 2s(1-s) normalization the constant is 2 (1 - s) pi s / sin(pi s).
# The target behaves like d^s at the boundary, so only the nodes with
# |x| <= 1/2 are checked.
def _dyda_error(s, h):
    grid = build_grid([(-1.0, 1.0)], h)
    x = grid.nodes
    action = assemble_dirichlet(grid, s).a @ (1.0 - x**2) ** s
    target = 2.0 * (1.0 - s) * np.pi * s / np.sin(np.pi * s)
    return float(np.max(np.abs(action - target)[np.abs(x) <= 0.5]))


# measured max errors at h = 2^-10 and observed orders from h = 2^-9
@pytest.mark.parametrize("s, error, order", [
    (0.25, 4.3e-5, 1.23), (0.5, 9.4e-5, 0.81), (0.75, 2.3e-3, 0.49),
])
def test_dyda_identity_error_and_order(s, error, order):
    coarse, fine = _dyda_error(s, 2.0**-9), _dyda_error(s, 2.0**-10)
    assert fine == pytest.approx(error, rel=0.1)
    assert np.log2(coarse / fine) == pytest.approx(order, abs=0.1)


# ---------------------------------------------------------------------------
# classical operator and the s -> 1 limit
# ---------------------------------------------------------------------------

def test_classical_exact_on_quadratic():
    grid = build_grid([(0.0, 1.0)], 2.0**-6)
    op = assemble_classical(grid)
    u = grid.nodes * (1.0 - grid.nodes)
    action = op.a @ u
    assert np.max(np.abs(action - 2.0 * CLASSICAL_LIMIT_CONSTANT)) <= 1e-9


def test_classical_is_tridiagonal():
    grid = build_grid([(0.0, 1.0)], 0.125)
    a = assemble_classical(grid).a
    assert np.count_nonzero(a[0]) == 2  # boundary row: diagonal + one neighbor
    assert np.count_nonzero(a[3]) == 3


def test_classical_blocks_do_not_couple():
    grid = build_grid([(0.0, 1.0), (2.0, 3.0)], 0.25)
    a = assemble_classical(grid).a
    one = grid.interval_nodes(0)
    two = grid.interval_nodes(1)
    assert np.all(a[np.ix_(one, two)] == 0.0)


@pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
def test_classical_limit_constant_derivation():
    # the normalized singular integral of the zero-extended parabola at the
    # domain midpoint approaches -2 * c_star as s -> 1; the quadrature is
    # noisy near the singular endpoint but far inside the 2% tolerance
    s = 0.999
    u = lambda y: y**2 if 0.0 < y < 1.0 else 0.0
    value = oracles.pv_fractional(u, 0.5, s, (0.0, 1.0))
    assert abs(value - (-2.0 * CLASSICAL_LIMIT_CONSTANT)) <= 0.02 * 2.0


def test_fractional_action_near_s_one_matches_classical():
    grid = build_grid([(0.0, 1.0)], 2.0**-8)
    x = grid.nodes
    bump = np.exp(-1.0 / np.maximum(1e-12, 0.25 - (x - 0.5) ** 2))
    bump[np.abs(x - 0.5) >= 0.5] = 0.0
    frac = assemble_dirichlet(grid, 0.999).a @ bump
    clas = assemble_classical(grid).a @ bump
    assert np.max(np.abs(frac - clas)) <= 0.05 * np.max(np.abs(clas))


# ---------------------------------------------------------------------------
# periodic operator
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("s", [0.25, 0.5, 0.75])
def test_periodic_annihilates_constants(s):
    pg = build_periodic_grid(64)
    a = assemble_periodic(pg, s).a
    assert np.max(np.abs(a @ np.ones(64))) <= 1e-10
    assert np.max(np.abs(a - a.T)) <= 1e-12 * np.max(np.abs(a))


def test_periodic_mean_of_action_vanishes():
    pg = build_periodic_grid(64)
    a = assemble_periodic(pg, 0.5).a
    rng = np.random.default_rng(3)
    for _ in range(20):
        u = rng.standard_normal(64)
        assert abs(np.sum(a @ u)) <= 1e-9 * np.linalg.norm(u)


def test_periodic_cosine_is_eigenvector():
    pg = build_periodic_grid(256)
    a = assemble_periodic(pg, 0.5).a
    v = np.cos(2.0 * np.pi * pg.nodes)
    av = a @ v
    lam = (v @ av) / (v @ v)
    assert np.linalg.norm(av - lam * v) / np.linalg.norm(av) <= 1e-6
    # the multiplier approaches the symbol of the normalized operator, which
    # at s = 1/2 and frequency one equals pi^2
    assert lam == pytest.approx(np.pi**2, rel=5e-3)


def test_periodic_image_cutoff_converged():
    for s in (0.25, 0.75):
        a16 = assemble_periodic(build_periodic_grid(64, image_cutoff=16), s).a
        a48 = assemble_periodic(build_periodic_grid(64, image_cutoff=48), s).a
        assert np.max(np.abs(a16 - a48)) < 1e-10


# ---------------------------------------------------------------------------
# convolution
# ---------------------------------------------------------------------------

def test_convolve_constant_on_periodic_grid():
    pg = build_periodic_grid(64)
    k = build_kernel("triangular", 0.2, pg.h)
    u = Field(grid=pg, values=np.full(64, 3.7))
    out = convolve(k, u)
    assert np.max(np.abs(out.values - 3.7)) <= 1e-13


def test_convolve_point_mass_recovers_profile():
    h = 0.125
    grid = build_grid([(0.0, 2.0)], h)
    k = build_kernel("triangular", 0.5, h)
    values = np.zeros(grid.n)
    i0 = 7
    values[i0] = 1.0 / h
    out = convolve(k, Field(grid=grid, values=values))
    for j in range(grid.n):
        offset = j - i0
        expect = k.weights[k.k_max + offset] if abs(offset) <= k.k_max else 0.0
        assert out.values[j] == pytest.approx(expect, abs=1e-14)


@pytest.mark.parametrize("make_grid", [
    lambda: build_grid([(0.0, 1.0)], 2.0**-6),
    lambda: build_periodic_grid(64),
])
def test_young_bound(make_grid):
    grid = make_grid()
    k = build_kernel("uniform", 0.25, grid.h)
    rng = np.random.default_rng(11)
    for _ in range(100):
        u = Field(grid=grid, values=rng.standard_normal(grid.n))
        assert l2_norm(convolve(k, u)) <= l2_norm(u) * (1.0 + 1e-12)


def test_convolution_matrix_symmetric():
    grid = build_grid([(0.0, 1.0), (1.25, 2.25)], 2.0**-5)
    k = build_kernel("triangular", 0.5, grid.h)
    b = convolution_matrix(k, grid)
    assert np.max(np.abs(b - b.T)) == 0.0


_KERNELS = [("uniform", 0.25, None), ("triangular", 0.3, None),
            ("sampled", None, [1.0, 2.0, 3.0, 5.0, 3.0, 2.0, 1.0])]


# one spacing off binary fractions, aligned unions, a kernel wider than a
# gap, and a union whose second interval is off the first one's lattice
# (every cross pair then takes the profile)
@pytest.mark.parametrize("shape, rho, samples", _KERNELS)
@pytest.mark.parametrize("intervals, h", [
    ([(0.0, 1.0)], 2.0**-6),
    ([(0.0, 1.0)], 0.1),
    ([(-3.0, -1.0), (2.0, 2.5)], 2.0**-4),
    ([(0.0, 0.5), (0.6, 1.1)], 1.0 / 48.0),
    ([(0.0, 0.5), (0.5625, 1.0), (1.25, 2.0)], 2.0**-5),
    ([(0.0, 1.0), (1.03, 2.03)], 2.0**-5),
])
def test_convolution_matrix_matches_per_entry_reference(intervals, h, shape,
                                                        rho, samples):
    grid = build_grid(intervals, h)
    k = build_kernel(shape, rho, h, samples=samples)
    assert np.array_equal(convolution_matrix(k, grid),
                          oracles.ref_convolution_matrix(k, grid))


def test_kernel_radius_vs_image_cutoff():
    pg = build_periodic_grid(16, image_cutoff=3)
    k = build_kernel("uniform", 2.5, pg.h)
    with pytest.raises(ValueError, match="image cutoff"):
        convolution_matrix(k, pg)


# ---------------------------------------------------------------------------
# transmission form
# ---------------------------------------------------------------------------

def _tspec(sigma=1.0, nu1=1.0, nu2=1.0, h=2.0**-5, s=0.5, s1=0.4, s2=0.6):
    return transmission_spec(
        (0.0, 1.0), (1.5, 2.5), h,
        s=s, s1=s1, s2=s2, nu1=nu1, nu2=nu2, sigma=sigma, mu=1.0,
    )


def test_transmission_symmetric_and_psd():
    op = assemble_transmission(_tspec())
    assert np.max(np.abs(op.a - op.a.T)) == 0.0
    assert np.linalg.eigvalsh(op.a)[0] > 0.0


def test_transmission_zero_coupling_decouples():
    ts = _tspec(nu1=0.0, nu2=0.0)
    a = assemble_transmission(ts).a
    one = ts.grid.interval_nodes(0)
    two = ts.grid.interval_nodes(1)
    assert np.all(a[np.ix_(one, two)] == 0.0)
    assert np.all(a[np.ix_(two, one)] == 0.0)


def test_transmission_reduces_to_dirichlet_form():
    # with the local habitat silenced and doubled nonlocal coupling, fields
    # supported on the nonlocal habitat see exactly the Dirichlet form
    s = 0.5
    ts = _tspec(nu1=0.0, nu2=2.0, s=s, s2=s)
    a = assemble_transmission(ts).a
    sub = build_grid([(1.5, 2.5)], ts.grid.h)
    op2 = assemble_dirichlet(sub, s)
    two = ts.grid.interval_nodes(1)
    rng = np.random.default_rng(5)
    for _ in range(10):
        v = rng.standard_normal(two.size)
        full = np.zeros(ts.grid.n)
        full[two] = v
        f1 = ts.grid.h * full @ (a @ full)
        f2 = sub.h * v @ (op2.a @ v)
        assert abs(f1 - f2) <= 1e-8 * max(1.0, abs(f2))


def test_transmission_form_matches_quadrature_oracle():
    ts = _tspec(h=2.0**-4)
    a = assemble_transmission(ts).a
    grid = ts.grid
    h = grid.h
    x = grid.nodes
    loc = grid.interval_nodes(ts.local_id)
    non = grid.interval_nodes(ts.nonlocal_id)
    n = grid.n
    ref = np.zeros((n, n))
    c = 1.0 / h**2
    ref[loc, loc] += 2.0 * c
    ref[loc[:-1], loc[1:]] -= c
    ref[loc[1:], loc[:-1]] -= c
    sub = build_grid([grid.intervals[ts.nonlocal_id]], h)
    w2 = oracles.quad_pair_weights(sub, ts.s)
    block = -w2
    np.fill_diagonal(block, w2.sum(axis=1))
    ref[np.ix_(non, non)] += 2.0 * ts.s * (1.0 - ts.s) * block
    for own_id, nu, si in ((ts.local_id, ts.nu1, ts.s1),
                           (ts.nonlocal_id, ts.nu2, ts.s2)):
        coeff = nu * si * (1.0 - si)
        own = grid.interval_nodes(own_id)
        other = grid.interval_nodes(1 - own_id)
        a_own, b_own = grid.intervals[own_id]
        a_oth, b_oth = grid.intervals[1 - own_id]
        tfull = np.array(
            [oracles.quad_tail(xx - a_own, si) + oracles.quad_tail(b_own - xx, si)
             for xx in x[own]]
        )
        ref[own, own] += coeff * tfull
        gmass = np.array(
            [oracles.quad_segment(min(abs(xx - a_own), abs(xx - b_own)),
                                  max(abs(xx - a_own), abs(xx - b_own)), si)
             for xx in x[other]]
        )
        ref[other, other] += coeff * gmass
        w = np.zeros((own.size, other.size))
        for i, xi in enumerate(x[own]):
            for j, xj in enumerate(x[other]):
                w[i, j] = oracles.quad_hat_weight(abs(xi - xj), h, si)
        for endpoint, p_local in ((a_oth, 0), (b_oth, other.size - 1)):
            xp = x[other[p_local]]
            for i, xi in enumerate(x[own]):
                if np.sign(xi - endpoint) == np.sign(xp - endpoint):
                    w[i, p_local] += oracles.quad_ramp_in(abs(xi - xp), h, si)
                else:
                    w[i, p_local] += oracles.quad_ramp_out(abs(xi - endpoint), h, si)
        ref[np.ix_(own, other)] -= coeff * w
        ref[np.ix_(other, own)] -= coeff * w.T
    rng = np.random.default_rng(9)
    hat = sample_function(grid, lambda y: max(0.0, 1.0 - abs(2.0 * y - 4.0)))
    for v in [hat.values] + [rng.standard_normal(n) for _ in range(5)]:
        f1 = h * v @ (a @ v)
        f2 = h * v @ (ref @ v)
        assert abs(f1 - f2) <= 1e-8 * max(1.0, abs(f2))


def test_transmission_validation():
    with pytest.raises(ValueError, match="must lie in"):
        transmission_spec((0, 1), (2, 3), 0.25, s=1.0, s1=0.5, s2=0.5,
                          nu1=1.0, nu2=1.0, sigma=1.0, mu=1.0)
    with pytest.raises(ValueError, match="overlap"):
        transmission_spec((0, 1), (0.5, 1.5), 0.25, s=0.5, s1=0.5, s2=0.5,
                          nu1=1.0, nu2=1.0, sigma=1.0, mu=1.0)
    with pytest.raises(ValueError, match="bounded away"):
        transmission_spec((0, 1), (2, 3), 0.25, s=0.5, s1=0.5, s2=0.5,
                          nu1=1.0, nu2=1.0, sigma=1.0, mu=0.0)


# ---------------------------------------------------------------------------
# tabulated assembly against the per-entry references
# ---------------------------------------------------------------------------

_S_SWEEP = [round(0.05 * k, 2) for k in range(1, 20)]

# nodes at exact binary fractions: every node distance is an exact multiple
# of h, so tabulating the weights by distance must change no bit
_DYADIC_GRIDS = {
    "unit": ([(0.0, 1.0)], 2.0**-6),
    "symmetric": ([(-1.0, 1.0)], 2.0**-5),
    "aligned-union": ([(0.0, 1.0), (1.5, 2.25)], 2.0**-6),
    "three-intervals": ([(-3.0, -1.0), (0.5, 1.0), (2.0, 4.0)], 2.0**-4),
}


@pytest.mark.parametrize("s", _S_SWEEP)
@pytest.mark.parametrize("intervals, h", _DYADIC_GRIDS.values(),
                         ids=_DYADIC_GRIDS.keys())
def test_pair_weights_match_per_entry_reference(intervals, h, s):
    grid = build_grid(intervals, h)
    assert np.array_equal(operators._pair_weights(grid, s),
                          oracles.ref_pair_weights(grid, s))


@pytest.mark.parametrize("s", [0.05, 0.25, 0.5, 0.75, 0.95])
def test_transmission_matches_per_entry_reference(s, monkeypatch):
    ts = _tspec(s=s, s1=1.0 - s, s2=0.5 * s)
    a = assemble_transmission(ts).a
    monkeypatch.setattr(operators, "_far_block", oracles.ref_far_block)
    assert np.array_equal(a, assemble_transmission(ts).a)


@pytest.mark.parametrize("s", _S_SWEEP)
@pytest.mark.parametrize("n, cutoff", [(4, 16), (5, 16), (128, 16),
                                       (1024, 16), (64, 3), (64, 48)])
def test_periodic_weights_match_loop_reference(n, cutoff, s):
    pg = build_periodic_grid(n, image_cutoff=cutoff)
    assert np.array_equal(operators._periodic_pair_weights(pg, s),
                          oracles.ref_periodic_pair_weights(pg, s))


# kernels wider than the cell sum several stencil entries per offset; at
# rho = 2.7 and 6 a zero-padded row sum would add them in another order
@pytest.mark.parametrize("n, shape, rho, samples", [
    (128, "uniform", 0.25, None),
    (128, "triangular", 0.3, None),
    (16, "uniform", 4.0, None),
    (20, "triangular", 2.7, None),
    (32, "triangular", 6.0, None),
    (5, "triangular", 1.5, None),
    (64, "sampled", None, [1.0, 2.0, 3.0, 5.0, 3.0, 2.0, 1.0]),
    (4, "sampled", None, [1.0, 2.0, 4.0, 7.0, 4.0, 2.0, 1.0]),
])
def test_periodic_convolution_matches_loop_reference(n, shape, rho, samples):
    pg = build_periodic_grid(n)
    k = build_kernel(shape, rho, pg.h, samples=samples)
    assert np.array_equal(convolution_matrix(k, pg),
                          oracles.ref_periodic_convolution(k, pg))


# off binary fractions node distances round differently along a diagonal,
# so the tabulated and per-entry far weights are evaluated at distances a
# few ulps apart
_UNION_1_48 = ([(0.0, 0.5), (0.6, 1.1)], 1.0 / 48.0)
_OFF_BINARY_GRIDS = [([(0.0, 1.0)], 0.1), ([(0.0, 1.0)], 1.0 / 12.0),
                     _UNION_1_48]
# on the union the 1e-14 bound fails at these s: 1.0e-14 and 1.4e-14
_UNION_SMALL_S = [0.05, 0.1]


def _dirichlet_pair(grid, s, monkeypatch):
    """The Dirichlet operator, tabulated and with per-entry weights."""
    a = assemble_dirichlet(grid, s).a
    monkeypatch.setattr(operators, "_pair_weights", oracles.ref_pair_weights)
    return a, assemble_dirichlet(grid, s).a


@pytest.mark.parametrize("intervals, h, s", [
    pytest.param(intervals, h, s, id=f"{k}-{s}")
    for k, (intervals, h) in enumerate(_OFF_BINARY_GRIDS) for s in _S_SWEEP
    if not ((intervals, h) == _UNION_1_48 and s in _UNION_SMALL_S)
])
def test_tabulated_assembly_close_off_binary_fractions(intervals, h, s,
                                                       monkeypatch):
    a, ref = _dirichlet_pair(build_grid(intervals, h), s, monkeypatch)
    assert np.max(np.abs(a - ref)) <= 1e-14 * np.max(np.abs(ref))


# A far weight is (A(r - h) - 2 A(r) + A(r + h)) / h with A = _anti2, so
# each evaluation carries a rounding error of about (1 + 2 + 1) ulps of
# max |A| over its arguments, divided by h, and two evaluations at nearby
# distances differ by at most twice that.  For s < 1/2, |A| grows like
# r^(1 - 2s) / (2s (1 - 2s)), so this bound, and with it the difference,
# grows as s -> 0 on wide grids; it holds with a margin of 3 to 30 on the
# union at these s (measured 1.0e-14, 1.4e-14 and 9.4e-15).
@pytest.mark.parametrize("s", _UNION_SMALL_S + [0.15])
def test_tabulated_assembly_within_cancellation_bound(s, monkeypatch):
    grid = build_grid(*_UNION_1_48)
    a, ref = _dirichlet_pair(grid, s, monkeypatch)
    h = grid.h
    args = np.array([h, grid.nodes[-1] - grid.nodes[0] + h])
    bound = (8.0 * np.finfo(float).eps
             * np.max(np.abs(operators._anti2(args, s))) / h)
    assert np.max(np.abs(a - ref)) <= bound
