"""Kernels, coupling geometry, smallness predicate, and the mean-field force."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vfplab import (ConfigurationError, GridConfig, ModelParams, builtin_kernel,
                    classical_free_energy, coupling_constants, fisher_information,
                    gaussian_grid, kernel_sum, local_equilibrium, mean_field_force,
                    norm_equivalence_ratio, pairwise_force, quadratic_free_energy,
                    smallness_holds, smallness_threshold, stationary_fixed_point, vfp_step,
                    x_marginal)
from vfplab.model import step_count

GAMMA_GRID = np.logspace(np.log10(1.0 / 16.0), np.log10(16.0), 33)

KERNEL_SPECS = [
    {"type": "quadratic_linear", "a": 0.7, "b": -1.3},
    {"type": "sine", "amplitude": 1.4},
    {"type": "gaussian_bump", "height": -2.0, "width": 0.6},
    {"type": "gaussian_bump", "height": 1.0, "width": 2.5},
    {"type": "symmetrized", "inner": {"type": "sine", "amplitude": 0.9}},
]


@pytest.mark.parametrize("spec", KERNEL_SPECS, ids=lambda s: s["type"])
def test_kernel_derivatives_match_finite_differences(spec):
    kernel = builtin_kernel(spec)
    x = np.linspace(-4.0, 4.0, 41)
    h = 1e-5
    fd1 = (kernel.evaluate(x + h) - kernel.evaluate(x - h)) / (2.0 * h)
    fd2 = (kernel.d1(x + h) - kernel.d1(x - h)) / (2.0 * h)
    assert np.abs(fd1 - kernel.d1(x)).max() < 1e-8
    assert np.abs(fd2 - kernel.d2(x)).max() < 1e-8


@pytest.mark.parametrize("spec", KERNEL_SPECS, ids=lambda s: s["type"])
def test_d2_sup_dominates_curvature(spec):
    kernel = builtin_kernel(spec)
    x = np.linspace(-30.0, 30.0, 200001)
    observed = np.abs(kernel.d2(x)).max()
    assert observed <= kernel.d2_sup + 1e-12
    if spec["type"] != "symmetrized":
        # the certificate is tight for the closed forms; the symmetrized
        # wrapper inherits the inner bound, which may be loose (an odd inner
        # kernel symmetrizes to zero)
        assert observed >= kernel.d2_sup - 1e-3


def test_zero_kernel_is_the_trivial_quadratic():
    kernel = builtin_kernel("zero")
    x = np.linspace(-2.0, 2.0, 7)
    assert np.all(kernel.evaluate(x) == 0.0)
    assert np.all(kernel.d1(x) == 0.0)
    assert kernel.d2_sup == 0.0
    assert kernel.is_even
    assert kernel.kind == "quadratic_linear"
    assert kernel.coeffs == (0.0, 0.0)
    assert np.all(kernel_sum(kernel, x, x, derivative=True) == 0.0)


def test_symmetrized_kernel_is_even():
    kernel = builtin_kernel({"type": "symmetrized",
                             "inner": {"type": "quadratic_linear", "a": 1.0, "b": 3.0}})
    x = np.linspace(-3.0, 3.0, 13)
    assert np.abs(kernel.evaluate(x) - kernel.evaluate(-x)).max() < 1e-14
    assert np.abs(kernel.d1(x) + kernel.d1(-x)).max() < 1e-14
    assert kernel.is_even
    # symmetrizing x^2 + 3x leaves x^2
    assert np.abs(kernel.evaluate(x) - x ** 2).max() < 1e-12


def test_kernel_evenness_flags():
    assert builtin_kernel({"type": "quadratic_linear", "a": 1.0, "b": 0.0}).is_even
    assert not builtin_kernel({"type": "quadratic_linear", "a": 1.0, "b": 0.1}).is_even
    assert not builtin_kernel({"type": "sine", "amplitude": 1.0}).is_even
    assert builtin_kernel({"type": "gaussian_bump", "height": 1.0, "width": 1.0}).is_even


@pytest.mark.parametrize("bad", [
    {"type": "does_not_exist"},
    {"type": "sine"},
    {"type": "sine", "amplitude": 1.0, "phase": 0.2},
    {"type": "quadratic_linear", "a": 1.0},
    {"type": "gaussian_bump", "height": 1.0, "width": 0.0},
    {"type": "zero", "scale": 2.0},
    {"no_type": True},
    42,
    {"type": "gaussian_bump", "height": 1.0, "width": 1e-200},   # its square underflows to 0
])
def test_kernel_descriptor_validation(bad):
    with pytest.raises(ConfigurationError):
        builtin_kernel(bad)


def test_step_count_rounds_to_at_least_one_step_and_rejects_what_no_run_can_take():
    assert step_count(0.1, 0.03, "horizon") == 3
    assert step_count(1e-9, 1.0, "horizon") == 1
    for span, dt in ((0.0, 1.0), (-1.0, 1.0), (float("nan"), 1.0), (1e10, 1e-300), (1.0, 1e-19)):
        with pytest.raises(ConfigurationError, match="horizon"):
            step_count(span, dt, "horizon")


def test_kernel_passthrough():
    kernel = builtin_kernel({"type": "sine", "amplitude": 2.0})
    assert builtin_kernel(kernel) is kernel


def test_model_params_validation():
    kernel = builtin_kernel("zero")
    with pytest.raises(ConfigurationError):
        ModelParams(gamma=0.0, lam=0.0, kernel=kernel)
    with pytest.raises(ConfigurationError):
        ModelParams(gamma=-1.0, lam=0.0, kernel=kernel)
    with pytest.raises(ConfigurationError):
        ModelParams(gamma=1.0, lam=-0.1, kernel=kernel)
    with pytest.raises(ConfigurationError):
        ModelParams(gamma=math.nan, lam=0.0, kernel=kernel)


def test_coupling_constants_unit_friction():
    c = coupling_constants(1.0)
    assert c.a == 0.5
    assert c.b == 0.75
    assert np.allclose(c.M, [[1.0, -0.5], [-0.5, 1.0]], atol=1e-15)
    assert abs(np.linalg.det(c.M) - c.b) < 1e-15
    assert c.contraction_rate == 0.125


def test_coupling_constants_friction_two():
    c = coupling_constants(2.0)
    assert c.a == 0.25
    assert c.b == 0.5625
    assert np.allclose(c.M, [[1.0, -0.25], [-0.25, 0.625]], atol=1e-15)
    assert abs(np.linalg.det(c.M) - 0.5625) < 1e-15


@pytest.mark.parametrize("gamma", GAMMA_GRID)
def test_coupling_identities_across_frictions(gamma):
    c = coupling_constants(gamma)
    assert 0.5 <= c.b <= 1.25
    assert abs(np.linalg.det(c.M) - c.b) < 1e-12
    assert abs(norm_equivalence_ratio(c) - 4.0) < 1e-12
    # A is the symmetric PSD square root of M^{-1}
    assert np.abs(c.A - c.A.T).max() < 1e-13
    assert np.linalg.eigvalsh(c.A).min() > 0.0
    assert np.abs(c.A @ c.A @ c.M - np.eye(2)).max() < 1e-12


def test_closed_form_a_matches_the_eigendecomposition_root():
    # numpy.linalg is the tests' reference only: vfplab builds A in closed form
    for gamma in GAMMA_GRID:
        c = coupling_constants(gamma)
        evals, evecs = np.linalg.eigh(c.M)
        assert np.abs(c.A - (evecs / np.sqrt(evals)) @ evecs.T).max() < 1e-15


def test_coupling_constants_reject_bad_friction():
    with pytest.raises(ConfigurationError):
        coupling_constants(0.0)
    with pytest.raises(ConfigurationError):
        coupling_constants(math.inf)


def test_smallness_threshold_and_predicate():
    assert smallness_threshold(1.0) == 0.125
    assert smallness_threshold(4.0) == 1.0 / 32.0
    assert smallness_threshold(0.25) == 1.0 / 32.0
    sine = builtin_kernel({"type": "sine", "amplitude": 1.0})
    assert smallness_holds(ModelParams(gamma=1.0, lam=0.125, kernel=sine))
    assert not smallness_holds(ModelParams(gamma=1.0, lam=0.1250001, kernel=sine))
    # monotone in lam
    flags = [smallness_holds(ModelParams(gamma=0.5, lam=lam, kernel=sine))
             for lam in np.linspace(0.0, 0.2, 21)]
    assert flags == sorted(flags, reverse=True)


def test_mean_field_force_quadratic_closed_form():
    kernel = builtin_kernel({"type": "quadratic_linear", "a": 0.8, "b": -0.3})
    params = ModelParams(gamma=1.0, lam=0.6, kernel=kernel)
    rng = np.random.default_rng(2)
    points = rng.normal(size=50)
    weights = rng.random(50)
    weights /= weights.sum()
    m = points @ weights
    x = np.linspace(-2.0, 2.0, 9)
    expected = -0.6 * (2.0 * 0.8 * (x - m) - 0.3)
    got = mean_field_force(params, x, (points, weights))
    assert np.abs(got - expected).max() < 1e-12


def test_mean_field_force_scalar_and_zero_kernel():
    params = ModelParams(gamma=1.0, lam=2.0, kernel=builtin_kernel("zero"))
    points = np.array([0.0, 1.0])
    weights = np.array([0.5, 0.5])
    out = mean_field_force(params, 0.3, (points, weights))
    assert isinstance(out, float) and out == 0.0


def test_mean_field_force_rejects_bad_marginals():
    params = ModelParams(gamma=1.0, lam=1.0, kernel=builtin_kernel("zero"))
    with pytest.raises(ValueError):
        mean_field_force(params, 0.0, (np.zeros(3), np.full(3, 0.5)))
    with pytest.raises(ValueError):
        mean_field_force(params, 0.0, (np.zeros(3), np.full(2, 0.5)))


# ------------------------------------------------------------- kernel sums --

coefficient = st.floats(-2.0, 2.0)
kernel_specs = st.one_of(
    st.just("zero"),
    st.builds(lambda a, b: {"type": "quadratic_linear", "a": a, "b": b}, coefficient, coefficient),
    st.builds(lambda c: {"type": "sine", "amplitude": c}, coefficient),
    st.builds(lambda h, w: {"type": "gaussian_bump", "height": h, "width": w},
              coefficient, st.floats(0.3, 3.0)),
    st.builds(lambda c: {"type": "symmetrized", "inner": {"type": "sine", "amplitude": c}},
              coefficient),
)


def term_scale(spec, x, y, derivative):
    """Per-pair size that bounds the rounding of either summation order: the
    moment forms cancel terms as large as |a|(|x| + |y|)^2 or |amplitude|."""
    r = np.abs(x[..., :, None]) + np.abs(y[..., None, :])
    kind = spec if isinstance(spec, str) else spec["type"]
    if kind == "quadratic_linear":
        a, b = abs(spec["a"]), abs(spec["b"])
        return 2.0 * a * r + b if derivative else a * r * r + b * r
    if kind == "sine":
        return np.full(r.shape, abs(spec["amplitude"]))
    kernel = builtin_kernel(spec)
    fn = kernel.d1 if derivative else kernel.evaluate
    return np.abs(fn(x[..., :, None] - y[..., None, :]))


@settings(max_examples=150, deadline=None)
@given(spec=kernel_specs, derivative=st.booleans(), weighted=st.booleans(),
       batched=st.booleans(), self_sum=st.booleans(),
       sizes=st.tuples(st.integers(1, 3), st.integers(1, 12), st.integers(1, 12)),
       seed=st.integers(0, 2 ** 32 - 1))
def test_kernel_sum_matches_dense_summation(spec, derivative, weighted, batched, self_sum,
                                            sizes, seed):
    rng = np.random.default_rng(seed)
    replicas, n, m = sizes
    lead = (replicas, 2) if batched else ()
    x = rng.uniform(-3.0, 3.0, lead + (n,))
    y = x if self_sum else rng.uniform(-3.0, 3.0, lead + (m,))
    w = rng.uniform(0.1, 2.0, y.shape[-1]) if weighted else None
    unit_or_w = np.ones(y.shape[-1]) if w is None else w
    kernel = builtin_kernel(spec)
    fn = kernel.d1 if derivative else kernel.evaluate
    dense = fn(x[..., :, None] - y[..., None, :]) @ unit_or_w
    got = kernel_sum(kernel, x, y, w, derivative=derivative)
    assert got.shape == x.shape
    # the 1e-300 floor admits subnormal results, which carry no relative precision
    bound = 1e-12 * (np.abs(dense) + term_scale(spec, x, y, derivative) @ unit_or_w) + 1e-300
    assert np.all(np.abs(got - dense) <= bound)


@pytest.mark.parametrize("derivative", [False, True])
def test_weighted_direct_sum_over_many_blocks_matches_dense_summation(derivative):
    # 300 targets against 300 points: 54 targets per 2^14-pair block, six blocks
    spec = {"type": "gaussian_bump", "height": 1.3, "width": 0.6}
    rng = np.random.default_rng(4)
    x, y, w = rng.uniform(-3.0, 3.0, 300), rng.uniform(-3.0, 3.0, 300), rng.uniform(0.1, 2.0, 300)
    kernel = builtin_kernel(spec)
    fn = kernel.d1 if derivative else kernel.evaluate
    dense = fn(x[:, None] - y[None, :]) @ w
    got = kernel_sum(kernel, x, y, w, derivative=derivative)
    bound = 1e-12 * (np.abs(dense) + term_scale(spec, x, y, derivative) @ w) + 1e-300
    assert got.shape == x.shape and np.all(np.abs(got - dense) <= bound)


def flat_only(fn):
    """``fn`` that refuses pair matrices: any input of two or more dimensions."""
    def guarded(z):
        if np.ndim(z) >= 2:
            raise AssertionError(f"kernel evaluated on a {np.shape(z)} pair block")
        return fn(z)
    return guarded


@pytest.mark.parametrize("spec", [{"type": "quadratic_linear", "a": 1.0, "b": 0.5},
                                  {"type": "sine", "amplitude": 1.0}], ids=lambda s: s["type"])
def test_reduction_kernels_never_build_a_pair_matrix(spec):
    kernel = builtin_kernel(spec)
    kernel = dataclasses.replace(kernel, evaluate=flat_only(kernel.evaluate), d1=flat_only(kernel.d1))
    params = ModelParams(gamma=1.0, lam=0.05, kernel=kernel)
    cfg = GridConfig(Lx=6.0, Lv=6.0, nx=16, nv=16, dt=1e-3)
    grid = gaussian_grid(cfg, [0.5, 0.0], np.eye(2))
    mean_field_force(params, grid.x_centers, x_marginal(grid))
    vfp_step(grid, params, cfg)
    local_equilibrium(grid, params)
    fisher_information(grid, params, np.eye(2))
    classical_free_energy(grid, params)
    if spec["type"] == "quadratic_linear":
        quadratic_free_energy(grid, params)
    stationary_fixed_point(params, cfg)
    pairwise_force(params, np.random.default_rng(0).normal(size=(3, 2, 8)))
