"""Free energies, local equilibria, twisted Fisher information, and transport metrics."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from vfplab import (MASK, GaussianState, GridConfig, ModelParams, builtin_kernel, bures_w2,
                    classical_free_energy, coupling_constants, entropy,
                    fisher_information, free_energy_quadratic, gaussian_grid,
                    grid_from_density, kernel_sum, l1_distance, local_equilibrium,
                    quadratic_free_energy, relative_entropy, sample_from_grid,
                    stationary_fixed_point, w2_empirical, w2_grid, x_marginal)
from vfplab.functionals import _serial_matmul

CFG = GridConfig(Lx=8.0, Lv=8.0, nx=128, nv=128, dt=1e-3)


def quad_params(lam=0.5, a=1.0, b=1.0, gamma=1.0):
    return ModelParams(gamma=gamma, lam=lam,
                       kernel=builtin_kernel({"type": "quadratic_linear", "a": a, "b": b}))


def random_gaussian_grids(count, seed):
    rng = np.random.default_rng(seed)
    for _ in range(count):
        mean = rng.normal(scale=0.8, size=2)
        L = rng.normal(size=(2, 2)) * 0.3
        cov = L @ L.T + np.diag([0.6, 0.6])
        yield gaussian_grid(CFG, mean, cov), GaussianState(mean=mean, cov=cov)


# ------------------------------------------------------------- entropies ----

def test_entropy_of_the_standard_gaussian():
    grid = gaussian_grid(CFG, [0.0, 0.0], np.eye(2))
    assert abs(entropy(grid) - (-(1.0 + np.log(2.0 * np.pi)))) < 1e-10


def test_entropy_of_the_uniform_box():
    grid = grid_from_density(CFG, lambda x, v: x * 0.0 + v * 0.0 + 1.0)
    area = (2.0 * CFG.Lx) * (2.0 * CFG.Lv)
    assert abs(entropy(grid) - (-np.log(area))) < 1e-12


def test_classical_free_energy_without_interaction():
    grid = gaussian_grid(CFG, [0.0, 0.0], np.eye(2))
    params = ModelParams(gamma=1.0, lam=0.0, kernel=builtin_kernel("zero"))
    expected = -(1.0 + np.log(2.0 * np.pi)) + 1.0
    assert abs(classical_free_energy(grid, params) - expected) < 1e-10


def test_interaction_energy_sees_only_the_even_part():
    # the double integral of the odd part cancels pairwise
    lam = 0.7
    full = quad_params(lam=lam, a=0.9, b=1.7)
    even = quad_params(lam=lam, a=0.9, b=0.0)
    sym = ModelParams(gamma=1.0, lam=lam, kernel=builtin_kernel(
        {"type": "symmetrized", "inner": {"type": "quadratic_linear", "a": 0.9, "b": 1.7}}))
    for grid, _ in random_gaussian_grids(5, seed=10):
        e_full = classical_free_energy(grid, full)
        assert abs(e_full - classical_free_energy(grid, even)) < 1e-10
        assert abs(e_full - classical_free_energy(grid, sym)) < 1e-10


def test_free_energy_gap_is_the_linear_term():
    # F - E = lam * b * mean(x): nonconstant along flows precisely when b != 0
    params = quad_params(lam=0.5, a=1.0, b=1.7)
    for grid, state in random_gaussian_grids(5, seed=11):
        gap = quadratic_free_energy(grid, params) - classical_free_energy(grid, params)
        assert abs(gap - 0.5 * 1.7 * state.mean[0]) < 1e-6


def test_grid_free_energy_matches_the_gaussian_closed_form():
    params = quad_params(lam=0.5, a=1.0, b=1.0)
    for grid, state in random_gaussian_grids(4, seed=12):
        grid_value = quadratic_free_energy(grid, params)
        exact = free_energy_quadratic(state, params)
        assert abs(grid_value - exact) < 1e-8


# ------------------------------------------------------- local equilibrium --

def test_local_equilibrium_factorizes():
    params = ModelParams(gamma=1.0, lam=0.125,
                         kernel=builtin_kernel({"type": "sine", "amplitude": 1.0}))
    grid = gaussian_grid(CFG, [0.5, -0.3], np.eye(2))
    d = np.exp(np.add.outer(*local_equilibrium(grid, params)))
    assert abs(d.sum() * grid.cell_area() - 1.0) < 1e-12
    # rank-one in (x, v): cross ratios cancel
    i, k, j, l = 10, 90, 30, 100
    lhs = d[i, j] * d[k, l]
    rhs = d[i, l] * d[k, j]
    assert abs(lhs - rhs) < 1e-16 + 1e-12 * abs(lhs)
    # velocity factor is the Maxwellian for every position slice
    vc = grid.v_centers
    expected = np.exp(-(vc[j] ** 2 - vc[l] ** 2) / 2.0)
    assert abs(d[i, j] / d[i, l] - expected) < 1e-10


def test_local_equilibrium_without_interaction_is_maxwellian():
    params = ModelParams(gamma=1.0, lam=0.0, kernel=builtin_kernel("zero"))
    grid = gaussian_grid(CFG, [1.0, 1.0], 0.5 * np.eye(2))
    attached = np.exp(np.add.outer(*local_equilibrium(grid, params)))
    ref = gaussian_grid(CFG, [0.0, 0.0], np.eye(2))
    assert np.abs(attached - ref.data).max() < 1e-12


# ------------------------------------------------------------------ fisher --

def test_fisher_information_of_shifted_gaussians():
    # K = 0: log(f/fhat) is linear, so the twisted information is the
    # quadratic form of the inverse coupling matrix at the shift
    for gamma in (1.0, 2.0):
        c = coupling_constants(gamma)
        params = ModelParams(gamma=gamma, lam=0.0, kernel=builtin_kernel("zero"))
        minv = np.linalg.inv(c.M)
        fx = gaussian_grid(CFG, [1.0, 0.0], np.eye(2))
        fv = gaussian_grid(CFG, [0.0, 1.0], np.eye(2))
        assert abs(fisher_information(fx, params, c.A) - minv[0, 0]) < 1e-10
        assert abs(fisher_information(fv, params, c.A) - minv[1, 1]) < 1e-10
        assert abs(fisher_information(fx, params, np.eye(2)) - 1.0) < 1e-10
        assert abs(fisher_information(fv, params, np.eye(2)) - 1.0) < 1e-10


def test_fisher_vanishes_exactly_at_the_self_consistent_state():
    params = ModelParams(gamma=1.0, lam=0.125,
                         kernel=builtin_kernel({"type": "sine", "amplitude": 1.0}))
    fstar = stationary_fixed_point(params, CFG)
    c = coupling_constants(1.0)
    assert fisher_information(fstar, params, c.A) < 1e-12
    assert fisher_information(fstar, params, np.eye(2)) < 1e-12


def test_fisher_matrix_sandwich():
    c = coupling_constants(1.3)
    params = ModelParams(gamma=1.3, lam=0.0, kernel=builtin_kernel("zero"))
    evals = np.linalg.eigvalsh(np.linalg.inv(c.M))
    for grid, _ in random_gaussian_grids(5, seed=13):
        i_a = fisher_information(grid, params, c.A)
        i_i = fisher_information(grid, params, np.eye(2))
        assert evals[0] * i_i <= i_a * (1.0 + 1e-10) + 1e-12
        assert i_a <= evals[1] * i_i * (1.0 + 1e-10) + 1e-12


# ------------------------------------------- full-size reference formulas --

def reference_local_equilibrium(grid, params):
    """The local Gibbs state and its log as nx x nv arrays, normalised by the grid sum."""
    xc, vc = grid.x_centers, grid.v_centers
    _, w = x_marginal(grid)
    conv = kernel_sum(params.kernel, xc, xc, w)
    log_unnorm = (-0.5 * xc * xc - params.lam * conv)[:, None] - 0.5 * (vc * vc)[None, :]
    z = float(np.exp(log_unnorm).sum() * grid.cell_area())
    return np.exp(log_unnorm) / z, log_unnorm - math.log(z)


def reference_fisher_information(grid, params, A):
    """Centered differences of r = ln f - ln f_hat, with r = 0 on masked cells."""
    f = grid.data
    valid = f >= MASK
    r = np.zeros_like(f)
    r[valid] = np.log(f[valid]) - reference_local_equilibrium(grid, params)[1][valid]
    ok = (valid[1:-1, 1:-1] & valid[2:, 1:-1] & valid[:-2, 1:-1]
          & valid[1:-1, 2:] & valid[1:-1, :-2])
    gx = (r[2:, 1:-1] - r[:-2, 1:-1]) / (2.0 * grid.dx)
    gv = (r[1:-1, 2:] - r[1:-1, :-2]) / (2.0 * grid.dv)
    g1 = A[0, 0] * gx + A[0, 1] * gv
    g2 = A[1, 0] * gx + A[1, 1] * gv
    weight = np.where(ok, f[1:-1, 1:-1], 0.0)
    return float(np.sum((g1 * g1 + g2 * g2) * weight) * grid.cell_area())


def reference_classical_free_energy(grid, params):
    """The confinement energy from the full-size array (x^2 + v^2) / 2."""
    xc, vc = grid.x_centers, grid.v_centers
    quad = 0.5 * (xc[:, None] ** 2 + vc[None, :] ** 2)
    conf = float(np.sum(quad * grid.data) * grid.cell_area())
    _, w = x_marginal(grid)
    interaction = 0.5 * params.lam * float(w @ kernel_sum(params.kernel, xc, xc, w))
    return entropy(grid) + conf + interaction


unit = st.floats(-1.0, 1.0)
kernels = st.one_of(
    st.just("zero"),
    st.fixed_dictionaries({"type": st.just("quadratic_linear"), "a": unit, "b": unit}),
    st.fixed_dictionaries({"type": st.just("sine"), "amplitude": unit}),
    st.fixed_dictionaries({"type": st.just("gaussian_bump"), "height": unit,
                           "width": st.floats(0.2, 3.0)}),
    st.fixed_dictionaries({"type": st.just("symmetrized"), "inner": st.fixed_dictionaries(
        {"type": st.just("quadratic_linear"), "a": unit, "b": unit})}))


@settings(max_examples=60, deadline=None)
@given(Lx=st.floats(2.0, 12.0), Lv=st.floats(2.0, 12.0), nx=st.integers(8, 64),
       nv=st.integers(8, 64), spec=kernels, lam=st.floats(0.0, 1.0),
       shape=st.lists(st.floats(-0.5, 0.5), min_size=5, max_size=5))
def test_profile_functionals_match_the_full_size_formulas(Lx, Lv, nx, nv, spec, lam, shape):
    # ``shape`` places a Gaussian: mean within the middle half of the box, standard deviations
    # of 1/8 to 1/2 of the box, correlation within 0.8
    params = ModelParams(gamma=1.0, lam=lam, kernel=builtin_kernel(spec))
    cfg = GridConfig(Lx=Lx, Lv=Lv, nx=nx, nv=nv, dt=1e-3)
    sx, sv = Lx * 2.0 ** (2.0 * shape[2] - 2.0), Lv * 2.0 ** (2.0 * shape[3] - 2.0)
    cov = [[sx * sx, 1.6 * shape[4] * sx * sv], [1.6 * shape[4] * sx * sv, sv * sv]]
    grid = gaussian_grid(cfg, [Lx * shape[0], Lv * shape[1]], cov)

    def close(value, ref):
        assert abs(value - ref) <= 1e-12 * (1.0 + abs(ref))

    hat, _ = reference_local_equilibrium(grid, params)
    assert np.abs(np.exp(np.add.outer(*local_equilibrium(grid, params))) - hat).max() <= 1e-14
    for A in (coupling_constants(1.0).A, np.eye(2)):
        close(fisher_information(grid, params, A), reference_fisher_information(grid, params, A))
    ref = reference_classical_free_energy(grid, params)
    close(classical_free_energy(grid, params), ref)
    if params.kernel.kind == "quadratic_linear":
        _, w = x_marginal(grid)
        ref += lam * params.kernel.coeffs[1] * float(grid.x_centers @ w)
        close(quadratic_free_energy(grid, params), ref)


# ------------------------------------------------------- relative entropy ---

def test_relative_entropy_cases():
    g = gaussian_grid(CFG, [0.0, 0.0], np.eye(2))
    f = gaussian_grid(CFG, [0.5, 0.0], np.eye(2))
    assert relative_entropy(g, g) == 0.0
    assert abs(relative_entropy(f, g) - 0.125) < 1e-12
    narrow = gaussian_grid(CFG, [0.0, 0.0], 0.0025 * np.eye(2))
    with pytest.raises(ValueError):
        relative_entropy(g, narrow)


def test_pinsker_inequality_on_random_pairs():
    grids = [grid for grid, _ in random_gaussian_grids(6, seed=14)]
    for a in grids[:3]:
        for b in grids[3:]:
            assert relative_entropy(a, b) >= 0.5 * l1_distance(a, b) ** 2 - 1e-12


def test_l1_distance_cases():
    g = gaussian_grid(CFG, [0.0, 0.0], np.eye(2))
    assert l1_distance(g, g) == 0.0
    far = gaussian_grid(CFG, [5.0, 0.0], 0.25 * np.eye(2))
    d = l1_distance(g, far)
    assert 1.9 < d <= 2.0 + 1e-12


# ------------------------------------------------------------ wasserstein ---

def test_w2_empirical_exact_cases():
    rng = np.random.default_rng(15)
    cloud = rng.normal(size=(256, 2))
    assert w2_empirical(cloud, cloud) == 0.0
    shift = np.array([0.7, -0.4])
    moved = cloud + shift
    assert abs(w2_empirical(cloud, moved) - np.linalg.norm(shift)) < 1e-12
    other = rng.normal(size=(256, 2)) + 1.0
    assert abs(w2_empirical(cloud, other) - w2_empirical(other, cloud)) < 1e-12


def test_w2_empirical_triangle_inequality():
    rng = np.random.default_rng(16)
    a = rng.normal(size=(128, 2))
    b = rng.normal(size=(128, 2)) + np.array([2.0, 0.0])
    c = rng.normal(size=(128, 2)) * 1.5
    assert w2_empirical(a, c) <= w2_empirical(a, b) + w2_empirical(b, c) + 1e-9


def test_w2_empirical_input_validation():
    with pytest.raises(ValueError):
        w2_empirical(np.zeros((4, 2)), np.zeros((5, 2)))
    with pytest.raises(ValueError):
        w2_empirical(np.zeros((4, 3)), np.zeros((4, 3)))
    with pytest.raises(ValueError):
        w2_empirical(np.zeros((5000, 2)), np.zeros((5000, 2)))


def test_w2_empirical_approximates_bures_on_gaussian_clouds():
    rng = np.random.default_rng(17)
    n = 512
    g1 = GaussianState(mean=[0.0, 0.0], cov=np.eye(2))
    g2 = GaussianState(mean=[3.0, 0.0], cov=np.diag([0.5, 2.0]))
    a = rng.multivariate_normal(g1.mean, g1.cov, size=n)
    b = rng.multivariate_normal(g2.mean, g2.cov, size=n)
    exact = bures_w2(g1, g2)
    assert abs(w2_empirical(a, b) - exact) < 5.0 * n ** -0.25


def test_sample_from_grid_statistics_and_determinism():
    grid = gaussian_grid(CFG, [1.0, -0.5], np.eye(2))
    s1 = sample_from_grid(grid, 4096, seed=3)
    s2 = sample_from_grid(grid, 4096, seed=3)
    assert np.array_equal(s1, s2)
    assert s1.shape == (4096, 2)
    assert np.abs(s1[:, 0]).max() <= CFG.Lx
    assert np.abs(s1[:, 1]).max() <= CFG.Lv
    assert abs(s1[:, 0].mean() - 1.0) < 3.0 / np.sqrt(4096) + 0.01
    assert abs(s1[:, 1].mean() + 0.5) < 3.0 / np.sqrt(4096) + 0.01
    assert not np.array_equal(s1, sample_from_grid(grid, 4096, seed=4))


@pytest.mark.parametrize("m, k, n", [(128, 128, 128), (37, 200, 90), (5, 3000, 7), (3, 4, 5)])
def test_serial_matmul_is_the_product_in_blocks_of_rows(m, k, n):
    rng = np.random.default_rng(m)
    a, b = rng.random((m, k)), rng.random((k, n))
    np.testing.assert_allclose(_serial_matmul(a, b), a @ b, rtol=1e-13, atol=0)


def test_w2_grid_levels():
    # deterministic: no samples, so the distance to itself is 0 up to the solver's tolerance
    g = gaussian_grid(CFG, [0.0, 0.0], np.eye(2))
    assert w2_grid(g, g) <= 1e-4
    far = gaussian_grid(CFG, [2.0, 0.0], np.eye(2))
    assert abs(w2_grid(g, far) - 2.0) < 1e-6


def test_w2_grid_matches_bures_on_gaussian_grids():
    cfg = GridConfig(Lx=6.0, Lv=6.0, nx=128, nv=128, dt=1e-3)
    rng = np.random.default_rng(18)
    for _ in range(6):
        pair = []
        for _ in range(2):
            rot, _ = np.linalg.qr(rng.normal(size=(2, 2)))
            cov = rot @ np.diag(rng.uniform(0.5, 2.0, size=2)) @ rot.T
            mean = rng.uniform(-1.0, 1.0, size=2)
            pair.append((gaussian_grid(cfg, mean, cov), GaussianState(mean=mean, cov=cov)))
        (f, gf), (g, gg) = pair
        assert abs(w2_grid(f, g) - bures_w2(gf, gg)) <= 5e-3


@settings(max_examples=60, deadline=None)
@given(Lx=st.floats(1.0, 40.0), Lv=st.floats(1.0, 40.0), nx=st.integers(4, 48),
       nv=st.integers(4, 48), shape=st.lists(st.floats(-0.5, 0.5), min_size=10, max_size=10))
@example(Lx=30.0, Lv=30.0, nx=64, nv=64, shape=[0.0] * 5 + [1.0 / 15.0, 0.0, 0.0, 0.0, 0.0])
@example(Lx=1.0, Lv=36.0, nx=4, nv=4, shape=[0.0, 0.5, 0.0, -0.5] + [0.0] * 6)
def test_w2_grid_is_a_finite_symmetric_divergence(Lx, Lv, nx, nv, shape):
    # ``shape`` places two Gaussians: means within the middle half of the box, standard
    # deviations of 1/4 to 4 units or cells, whichever is larger, correlations within 0.8.
    # The first example is N(0, I) against N((2, 0), I) on a box where e = 0.5 would underflow;
    # the second, on 18-unit cells, took Sinkhorn over 100_000 steps with a blur below a cell.
    cfg = GridConfig(Lx=Lx, Lv=Lv, nx=nx, nv=nv, dt=1e-3)
    grids = []
    for mx, mv, sx, sv, rho in (shape[:5], shape[5:]):
        sx = 4.0 ** (2.0 * sx) * max(1.0, 2.0 * Lx / nx)
        sv = 4.0 ** (2.0 * sv) * max(1.0, 2.0 * Lv / nv)
        cov = [[sx * sx, 1.6 * rho * sx * sv], [1.6 * rho * sx * sv, sv * sv]]
        grids.append(gaussian_grid(cfg, [mx * Lx, mv * Lv], cov))
    f, g = grids
    w = w2_grid(f, g)
    assert np.isfinite(w) and w >= 0.0
    assert abs(w - w2_grid(g, f)) <= 1e-6 * (1.0 + w)
    assert w2_grid(f, f) <= 1e-4


@pytest.mark.parametrize("distance", [l1_distance, relative_entropy, w2_grid])
def test_grid_distances_reject_grids_on_different_boxes(distance):
    # equal shapes are not enough: cell (i, j) sits elsewhere on another box
    g = gaussian_grid(CFG, [0.0, 0.0], np.eye(2))
    for box in ({"Lx": 6.0}, {"Lv": 6.0}):
        other = gaussian_grid(GridConfig(**{"Lx": 8.0, "Lv": 8.0, **box}, nx=128, nv=128,
                                         dt=1e-3), [0.0, 0.0], np.eye(2))
        with pytest.raises(ValueError, match="geometry"):
            distance(g, other)
    with pytest.raises(ValueError, match="geometry"):
        distance(g, gaussian_grid(GridConfig(Lx=8.0, Lv=8.0, nx=64, nv=256, dt=1e-3),
                                  [0.0, 0.0], np.eye(2)))
