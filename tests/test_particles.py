"""Particle system: forces, integrators, noise draws, coupled contraction."""

import functools
import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from vfplab import (ConfigurationError, CoupledPair, DivergenceError, InteractionKernel,
                    ModelParams, ParticleState, SimConfig, builtin_kernel, contraction_experiment,
                    coupled_step, coupling_constants, direct_pairwise_force,
                    euclidean_norm_sq, modified_norm_sq, noise_for_step,
                    pairwise_force, simulate, smallness_threshold, step)
from vfplab import particles
from vfplab.particles import INTEGRATORS, _contraction_replica, force_jacobian_norm_bound_check

SINE = {"type": "sine", "amplitude": 1.0}


def sine_params(gamma=1.0, lam=0.125):
    return ModelParams(gamma=gamma, lam=lam, kernel=builtin_kernel(SINE))


def zero_params(gamma=1.0):
    return ModelParams(gamma=gamma, lam=0.0, kernel=builtin_kernel("zero"))


# ------------------------------------------------------------------ noise ---

def test_noise_is_reproducible_and_prefix_stable():
    a = noise_for_step(7, 3, 64)
    b = noise_for_step(7, 3, 64)
    assert np.array_equal(a, b)
    assert np.array_equal(noise_for_step(7, 3, 16), a[:16])


def test_noise_streams_and_steps_are_distinct():
    a = noise_for_step(7, 0, 4096)
    assert not np.array_equal(a, noise_for_step(7, 1, 4096))
    assert not np.array_equal(a, noise_for_step(8, 0, 4096))
    # consecutive steps draw from disjoint counter blocks: no lagged overlap
    b = noise_for_step(7, 1, 4096)
    assert abs(np.corrcoef(a, b)[0, 1]) < 0.06
    assert not np.isin(np.round(b, 14), np.round(a, 14)).any()


def fresh_noise(seed, step_index, n):
    """The definition of noise_for_step: a Philox generator built for this one draw."""
    key = np.array([seed, 0], dtype=np.uint64)
    counter = np.array([0, step_index, 0, 0], dtype=np.uint64)
    gen = np.random.Generator(np.random.Philox(key=key, counter=counter))
    return gen.standard_normal(n)


_U64 = st.integers(0, 2 ** 64 - 1)
_CALLS = st.lists(st.tuples(st.one_of(st.sampled_from([0, 7, 2 ** 64 - 1]), _U64),
                            st.one_of(st.integers(0, 5), _U64),
                            st.sampled_from([0, 1, 2, 64]) | st.integers(0, 300)),
                  min_size=1, max_size=30)


@settings(max_examples=200, deadline=None)
@given(calls=_CALLS)
def test_noise_matches_a_fresh_generator_in_any_call_order(calls):
    # seeds repeat from a small pool, steps go back and forth and repeat
    for seed, k, n in calls:
        expected = fresh_noise(seed, k, n)
        assert np.array_equal(noise_for_step(seed, k, n), expected)
        buf = np.full(n, np.nan)
        assert noise_for_step(seed, k, n, out=buf) is buf
        assert buf.tobytes() == expected.tobytes()


def test_mutating_a_noise_draw_leaves_the_next_draw_alone():
    a = noise_for_step(3, 1, 8)
    expected = a.copy()
    a[:] = 0.0
    assert np.array_equal(noise_for_step(3, 1, 8), expected)
    assert np.array_equal(noise_for_step(3, 1, 8), fresh_noise(3, 1, 8))


@pytest.mark.parametrize("bad", [-1, 2 ** 64])
def test_out_of_range_noise_arguments_raise_and_recover(bad):
    noise_for_step(4, 0, 4)   # the shared generator now holds key (4, 0), so the bad call rekeys it
    for seed, k in ((bad, 0), (4, bad)):
        with pytest.raises(OverflowError):
            noise_for_step(seed, k, 4)
    assert np.array_equal(noise_for_step(4, 2, 16), fresh_noise(4, 2, 16))
    assert np.array_equal(noise_for_step(4, 0, 4), fresh_noise(4, 0, 4))


def test_noise_moments_are_standard_normal():
    draws = noise_for_step(0, 0, 200_000)
    assert abs(draws.mean()) < 0.01
    assert abs(draws.std() - 1.0) < 0.01


# ------------------------------------------------------------------ forces --

def test_pair_sum_reduction_matches_direct_summation():
    rng = np.random.default_rng(1)
    x = rng.normal(size=97) * 2.0
    for spec in (SINE, {"type": "quadratic_linear", "a": 0.7, "b": -0.4}):
        params = ModelParams(gamma=1.0, lam=1.0, kernel=builtin_kernel(spec))
        fast = pairwise_force(params, x)
        slow = direct_pairwise_force(params, x)
        assert np.abs(fast - slow).max() < 1e-12


def test_direct_force_blocks_are_invisible():
    # 20 x 2 rows of 64 targets against 64 points: 2^14-pair blocks of 256 targets, ten of them
    params = ModelParams(gamma=1.0, lam=1.0,
                         kernel=builtin_kernel({"type": "gaussian_bump",
                                                "height": 1.0, "width": 0.8}))
    x = np.random.default_rng(2).normal(size=(20, 2, 64))
    batched = direct_pairwise_force(params, x)
    for row in np.ndindex(x.shape[:-1]):
        assert np.array_equal(batched[row], direct_pairwise_force(params, x[row]))


def test_sine_force_two_particles():
    params = sine_params()
    force = pairwise_force(params, np.array([0.0, np.pi]))
    assert np.abs(force - np.array([-1.0, -1.0])).max() < 1e-12


def test_quadratic_force_closed_form():
    a, b = 0.5, 1.0
    params = ModelParams(gamma=1.0, lam=1.0,
                         kernel=builtin_kernel({"type": "quadratic_linear", "a": a, "b": b}))
    rng = np.random.default_rng(3)
    x = rng.normal(size=(3, 2, 12))
    n = x.shape[-1]
    # the exact arithmetic of the former closed-form pair sum, minus K'(0) = b
    expected = (2.0 * a * (n * x - x.sum(axis=-1, keepdims=True)) + n * b - b) / (n - 1)
    assert np.array_equal(pairwise_force(params, x), expected)


def test_sine_force_closed_form():
    c = 0.8
    params = ModelParams(gamma=1.0, lam=1.0,
                         kernel=builtin_kernel({"type": "sine", "amplitude": c}))
    rng = np.random.default_rng(5)
    x = rng.normal(size=(3, 2, 12))
    n = x.shape[-1]
    cx, sx = np.cos(x), np.sin(x)
    # the exact arithmetic of the former closed-form pair sum, minus K'(0) = c
    expected = (c * (cx * cx.sum(axis=-1, keepdims=True) + sx * sx.sum(axis=-1, keepdims=True))
                - c) / (n - 1)
    assert np.array_equal(pairwise_force(params, x), expected)


def test_gaussian_bump_falls_back_to_direct_sum():
    params = ModelParams(gamma=1.0, lam=1.0,
                         kernel=builtin_kernel({"type": "gaussian_bump",
                                                "height": 1.0, "width": 0.7}))
    x = np.linspace(-1.0, 1.0, 9)
    assert np.array_equal(pairwise_force(params, x), direct_pairwise_force(params, x))


def test_self_term_belongs_to_each_kernel_object():
    # amplitude 1 and 1/2 differ only in coefficient; the custom kernel borrows the sine's
    # name but has K(z) = z^3/3 + 2z, so K'(0) = 2; each must subtract its own K'(0)
    sine1, sine_half = builtin_kernel(SINE), builtin_kernel({"type": "sine", "amplitude": 0.5})
    custom = InteractionKernel(name=sine1.name, evaluate=lambda z: z ** 3 / 3.0 + 2.0 * z,
                               d1=lambda z: np.asarray(z, dtype=float) ** 2 + 2.0,
                               d2=lambda z: 2.0 * np.asarray(z, dtype=float), d2_sup=np.inf,
                               is_even=False)
    assert (sine1.d1_at_zero, sine_half.d1_at_zero, custom.d1_at_zero) == (1.0, 0.5, 2.0)
    x = np.random.default_rng(3).normal(size=(2, 2, 9))
    off_diagonal = ~np.eye(9, dtype=bool)
    for kernel in (sine1, sine_half, custom, sine1):
        params = ModelParams(gamma=1.0, lam=1.0, kernel=kernel)
        # the j != i sum of a dense pair matrix never evaluates the self term at all
        dense = np.where(off_diagonal, kernel.d1(x[..., :, None] - x[..., None, :]), 0.0)
        assert np.abs(pairwise_force(params, x) - dense.sum(axis=-1) / 8).max() < 1e-12
        assert np.abs(pairwise_force(params, x) - direct_pairwise_force(params, x)).max() < 1e-12
    assert np.array_equal(pairwise_force(ModelParams(1.0, 1.0, custom), x),
                          direct_pairwise_force(ModelParams(1.0, 1.0, custom), x))


def test_force_needs_two_particles():
    with pytest.raises(ValueError):
        pairwise_force(sine_params(), np.array([0.0]))


def test_jacobian_bound_on_random_configurations():
    rng = np.random.default_rng(4)
    params = sine_params(lam=1.0)
    for _ in range(50):
        x = rng.normal(scale=3.0, size=8)
        u = rng.normal(size=8)
        u /= np.linalg.norm(u)
        observed, bound = force_jacobian_norm_bound_check(params, x, u)
        assert observed <= bound + 1e-6
        assert bound == 2.0 * params.kernel.d2_sup


# -------------------------------------------------------------- integrators -

def test_integrators_track_the_matrix_exponential():
    # no interaction, no noise: each particle follows z' = B z exactly
    gamma = 1.3
    params = zero_params(gamma)
    B = np.array([[0.0, 1.0], [-1.0, -gamma]])
    z0 = np.array([1.5, -0.7])
    exact = expm(B) @ z0
    errs = {}
    for integrator in ("euler_maruyama", "kinetic_splitting"):
        for dt in (1e-2, 1e-3):
            cfg = SimConfig(dt=dt, integrator=integrator, seed=0)
            state = ParticleState(x=np.full(2, z0[0]), v=np.full(2, z0[1]))
            for _ in range(round(1.0 / dt)):
                state = step(state, params, cfg, np.zeros(2))
            errs[integrator, dt] = max(abs(state.x[0] - exact[0]),
                                       abs(state.v[0] - exact[1]))
        assert errs[integrator, 1e-3] < 5e-4
        # first-order refinement in dt
        assert errs[integrator, 1e-2] / errs[integrator, 1e-3] > 5.0


def test_step_rejects_wrong_noise_shape():
    state = ParticleState(x=np.zeros(4), v=np.zeros(4))
    with pytest.raises(ValueError):
        step(state, zero_params(), SimConfig(), np.zeros(3))


def test_step_raises_on_divergence():
    state = ParticleState(x=np.full(2, 1e308), v=np.full(2, 1e308))
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(DivergenceError):
            step(state, zero_params(), SimConfig(dt=1.0, integrator="euler_maruyama"),
                 np.zeros(2))


def test_equilibrium_second_moments():
    # zero kernel: the stationary law is a standard Gaussian in (x, v)
    params = zero_params(1.0)
    cfg = SimConfig(dt=2e-3, seed=4)
    rng = np.random.default_rng(11)
    state = ParticleState(x=rng.standard_normal(4096), v=rng.standard_normal(4096))
    late = [s for s in simulate(state, params, cfg, 3000, record_every=10) if s.t >= 2.0]
    assert abs(sum(float(s.x @ s.x) / s.n for s in late) / len(late) - 1.0) < 0.05
    assert abs(sum(float(s.v @ s.v) / s.n for s in late) / len(late) - 1.0) < 0.05


def test_simulate_is_bit_identical_and_cadenced():
    params = sine_params()
    cfg = SimConfig(dt=1e-3, seed=21)
    state = ParticleState(x=np.linspace(-1, 1, 8), v=np.zeros(8))
    first = simulate(state, params, cfg, 10, record_every=3)
    second = simulate(state, params, cfg, 10, record_every=3)
    assert [s.t for s in first] == [s.t for s in second]
    for a, b in zip(first, second):
        assert np.array_equal(a.x, b.x) and np.array_equal(a.v, b.v)
    steps = [round(s.t / cfg.dt) for s in first]
    assert steps == [0, 3, 6, 9, 10]


@pytest.mark.parametrize("integrator", INTEGRATORS)
@pytest.mark.parametrize("record_every", [1, 3])
def test_simulate_records_copies_that_match_single_steps(integrator, record_every):
    # the loop steps one array in place: every snapshot must be a copy taken at its own time
    params, cfg = sine_params(lam=0.5), SimConfig(dt=0.05, integrator=integrator, seed=8)
    x0, v0 = np.linspace(-1.0, 1.0, 8), np.linspace(1.0, -1.0, 8) ** 3
    state = ParticleState(x=x0.copy(), v=v0.copy(), t=0.25)
    snaps = simulate(state, params, cfg, 10, record_every=record_every)
    expected, current = [state], state
    for k in range(10):
        current = step(current, params, cfg, noise_for_step(cfg.seed, k, 8))
        if (k + 1) % record_every == 0 or k == 9:
            expected.append(current)
    assert [s.t for s in snaps] == [e.t for e in expected]
    for snap, ref in zip(snaps, expected, strict=True):
        assert snap.x.tobytes() == ref.x.tobytes() and snap.v.tobytes() == ref.v.tobytes()
    assert len({s.x.tobytes() for s in snaps}) == len(snaps)   # the states do move
    assert np.array_equal(state.x, x0) and np.array_equal(state.v, v0)


# ------------------------------------------------------------- coupling -----

def test_coupled_difference_follows_the_linear_map():
    # zero kernel: the difference dynamics is linear and noise-free
    params = zero_params(0.8)
    cfg = SimConfig(dt=1e-3, integrator="euler_maruyama", seed=0)
    rng = np.random.default_rng(6)
    z = ParticleState(x=rng.normal(size=5), v=rng.normal(size=5))
    zt = ParticleState(x=z.x + rng.normal(size=5), v=z.v + rng.normal(size=5))
    pair = CoupledPair(z=z, z_tilde=zt)
    dx, dv = z.x - zt.x, z.v - zt.v
    for k in range(50):
        pair = coupled_step(pair, params, cfg, noise_for_step(0, k, 5))
        dx, dv = dx + cfg.dt * dv, dv - cfg.dt * (dx + 0.8 * dv)
    assert np.abs((pair.z.x - pair.z_tilde.x) - dx).max() < 1e-10
    assert np.abs((pair.z.v - pair.z_tilde.v) - dv).max() < 1e-10


def test_norms_of_elementary_displacements():
    constants = coupling_constants(1.0)
    unit, zero = np.array([1.0, 0.0]), np.zeros(2)
    assert abs(modified_norm_sq(unit, zero, constants) - 1.0) < 1e-15
    assert abs(euclidean_norm_sq(unit, zero) - 1.0) < 1e-15
    # a^2 + b = 0.25 + 0.75 = 1 at unit friction
    assert abs(modified_norm_sq(zero, unit, constants) - 1.0) < 1e-15


_DIFFS = st.tuples(st.integers(1, 6), st.integers(1, 70), st.integers(0, 2 ** 32),
                   st.floats(1e-3, 1e3))


@settings(max_examples=100, deadline=None)
@given(shape=_DIFFS, gamma=st.floats(0.25, 4.0))
def test_norm_helpers_round_like_per_row_products(shape, gamma):
    replicas, n, seed, scale = shape
    rng = np.random.default_rng(seed)
    dx, dv = scale * rng.standard_normal((2, replicas, n))
    constants = coupling_constants(gamma)
    a, b = constants.a, constants.b
    mods, eucs = modified_norm_sq(dx, dv, constants), euclidean_norm_sq(dx, dv)
    assert mods.shape == eucs.shape == (replicas,)
    for r, (d, e) in enumerate(zip(dx, dv)):
        p = d + a * e
        mod, euc = float(p @ p + b * (e @ e)), float(d @ d + e @ e)
        assert mods[r] == mod and euclidean_norm_sq(d, e) == euc
        assert eucs[r] == euc and modified_norm_sq(d, e, constants) == mod
        assert np.ndim(modified_norm_sq(d, e, constants)) == np.ndim(euclidean_norm_sq(d, e)) == 0


def test_coupled_pair_validation():
    z = ParticleState(x=np.zeros(2), v=np.zeros(2))
    with pytest.raises(ValueError):
        CoupledPair(z=z, z_tilde=ParticleState(x=np.zeros(3), v=np.zeros(3)))
    with pytest.raises(ValueError):
        CoupledPair(z=z, z_tilde=ParticleState(x=np.zeros(2), v=np.zeros(2), t=1.0))


def test_contraction_experiment_respects_envelopes():
    params = sine_params(gamma=1.0, lam=smallness_threshold(1.0))
    cfg = SimConfig(dt=1e-3, seed=5)
    report = contraction_experiment(params, cfg, 16, horizon=3.0, replicas=2,
                                    sample_dt=0.25)
    assert report.smallness and report.envelope_ok
    assert report.warnings == []
    assert report.worst_ratio_modified <= 1.0 + 10.0 * cfg.dt
    assert report.worst_ratio_euclid <= 1.05
    assert report.rate == 0.125
    assert (report.fitted_rates >= report.rate).all()
    assert report.times.shape == (report.modified_norm_sq.shape[1],)
    assert report.modified_norm_sq.shape == report.euclid_sq.shape == (2, report.times.size)
    # squared norms decay strictly over the run
    assert (report.modified_norm_sq[:, -1] < report.modified_norm_sq[:, 0]).all()


def test_contraction_experiment_is_reproducible():
    params = sine_params()
    cfg = SimConfig(dt=2e-3, seed=9)
    r1 = contraction_experiment(params, cfg, 8, horizon=1.0, replicas=3)
    r2 = contraction_experiment(params, cfg, 8, horizon=1.0, replicas=3)
    assert np.array_equal(r1.modified_norm_sq, r2.modified_norm_sq)
    assert np.array_equal(r1.euclid_sq, r2.euclid_sq)
    d = r1.to_dict()
    assert d["envelope_ok"] is True or d["envelope_ok"] is False
    assert len(d["fitted_rate"]) == 3


def test_contraction_fit_holds_at_least_two_samples():
    # horizon 0.05 samples t = 0 and 0.05 only; a window of t >= horizon/4 would hold one point
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = contraction_experiment(sine_params(), SimConfig(dt=0.01, seed=1), 8,
                                        horizon=0.05)
    (m0, m1), (t0, t1) = report.modified_norm_sq[0], report.times
    assert np.isclose(report.fitted_rates[0], -(np.log(m1) - np.log(m0)) / (t1 - t0), rtol=1e-12)


@pytest.mark.parametrize("horizon, replicas, sample_dt", [
    (1.0, 3, None),     # a window of several samples
    (0.05, 1, None),    # the last two samples only
    (2.0, 2, 0.02),     # a window of 76 samples
])
def test_fitted_rates_match_polyfit(horizon, replicas, sample_dt):
    # np.polyfit is the tests' reference only: vfplab takes every replica's slope at once
    report = contraction_experiment(sine_params(), SimConfig(dt=0.01, seed=4), 8, horizon,
                                    replicas=replicas, sample_dt=sample_dt)
    times = report.times
    window = times >= min(horizon / 4.0, times[-2])
    for m, rate in zip(report.modified_norm_sq, report.fitted_rates, strict=True):
        ref = -np.polyfit(times[window], np.log(m[window]), 1)[0]
        assert abs(rate - ref) <= 1e-12 * abs(ref)


def test_contraction_experiment_flags_broken_smallness():
    params = sine_params(lam=1.0)
    report = contraction_experiment(params, SimConfig(dt=1e-3, seed=1), 8, horizon=0.5)
    assert not report.smallness
    assert any("smallness" in w for w in report.warnings)


def reference_advance(x, v, params, cfg, noise):
    """The definition of a step: the allocating formulas that the in-place kernel must round like.
    ``noise`` broadcasts against x."""
    dt, gamma, lam = cfg.dt, params.gamma, params.lam
    if cfg.integrator == "euler_maruyama":
        force = pairwise_force(params, x)
        x_new = x + v * dt
        v_new = v - (x + gamma * v + lam * force) * dt + math.sqrt(2.0 * gamma * dt) * noise
    else:  # kinetic_splitting
        x_half = x + 0.5 * dt * v
        force = pairwise_force(params, x_half)
        damp = math.exp(-gamma * dt)
        kick = math.sqrt(1.0 - math.exp(-2.0 * gamma * dt))
        v_new = damp * v - (x_half + lam * force) * dt + kick * noise
        x_new = x_half + 0.5 * dt * v_new
    return x_new, v_new


def first_divergence(params, cfg, x, v, noise_shape, n_steps):
    """Steps reference_advance with a finiteness check after every step: the (message, t,
    max_velocity) that the first non-finite state raises, or None."""
    t = 0.0
    for k in range(n_steps):
        t += cfg.dt
        noise = noise_for_step(cfg.seed, k, math.prod(noise_shape)).reshape(noise_shape)
        x, v = reference_advance(x, v, params, cfg, noise)
        if not (np.isfinite(x).all() and np.isfinite(v).all()):
            finite_v = v[np.isfinite(v)]
            max_v = float(np.abs(finite_v).max()) if finite_v.size else math.inf
            return f"non-finite particle state at t={t:g}", t, max_v
    return None


# ------------------------------------------- batched vs per-pair stepping ---

_FLOATS = dict(allow_nan=False, allow_infinity=False)
_INNER_KERNELS = st.one_of(
    st.builds(lambda c: {"type": "sine", "amplitude": c}, st.floats(-2.0, 2.0, **_FLOATS)),
    st.builds(lambda a, b: {"type": "quadratic_linear", "a": a, "b": b},
              st.floats(-1.0, 1.0, **_FLOATS), st.floats(-1.0, 1.0, **_FLOATS)),
    st.builds(lambda h, w: {"type": "gaussian_bump", "height": h, "width": w},
              st.floats(-2.0, 2.0, **_FLOATS), st.floats(0.2, 3.0, **_FLOATS)),
)
KERNELS = st.one_of(st.just("zero"), _INNER_KERNELS,
                    st.builds(lambda k: {"type": "symmetrized", "inner": k}, _INNER_KERNELS))
MODELS = st.builds(lambda g, lam, k: ModelParams(gamma=g, lam=lam, kernel=builtin_kernel(k)),
                   st.floats(0.25, 4.0, **_FLOATS), st.floats(0.0, 1.0, **_FLOATS), KERNELS)


@settings(max_examples=60, deadline=None)
@given(params=MODELS, integrator=st.sampled_from(INTEGRATORS), n=st.integers(2, 64),
       replicas=st.none() | st.integers(1, 4), n_steps=st.integers(1, 40),
       seed=st.integers(0, 2 ** 64 - 1))
def test_in_place_step_rounds_like_the_allocating_formulas(params, integrator, n, replicas,
                                                           n_steps, seed):
    # (N,) states with (N,) noise, as step and simulate use, and (R, 2, N) coupled pairs with
    # (R, 1, N) noise, as the contraction experiment uses
    cfg = SimConfig(dt=0.01, integrator=integrator, seed=seed)
    shape, noise_shape = ((n,), (n,)) if replicas is None else ((replicas, 2, n), (replicas, 1, n))
    x, v = 2.0 * np.random.default_rng(seed).standard_normal((2,) + shape)
    z, scratch = np.stack([x, v]), np.empty(shape)
    for k in range(n_steps):
        noise = noise_for_step(seed, k, math.prod(noise_shape)).reshape(noise_shape)
        x, v = reference_advance(x, v, params, cfg, noise)
        particles._advance(z, params, cfg, noise.copy(), scratch)
        assert z[0].tobytes() == x.tobytes() and z[1].tobytes() == v.tobytes()


# Euler-Maruyama at dt = 10 is unstable: states overflow after 240 to 320 steps.  With these seeds
# some particles are still finite then, so max_velocity is a number, and the step falls strictly
# inside a sample interval for every cadence > 1 below.
QUADRATIC = ModelParams(gamma=1.0, lam=1.0,
                        kernel=builtin_kernel({"type": "quadratic_linear", "a": 1.0, "b": 0.0}))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("params, seed", [(zero_params(), 1), (QUADRATIC, 0)])
@pytest.mark.parametrize("record_every", [1, 4, 10])
def test_simulate_divergence_names_the_first_non_finite_step(params, seed, record_every):
    cfg = SimConfig(dt=10.0, integrator="euler_maruyama", seed=seed)
    x0, v0 = np.linspace(0.5, 2.0, 4), np.zeros(4)
    expected = first_divergence(params, cfg, x0, v0, (4,), 500)
    state = ParticleState(x=x0, v=v0)
    with pytest.raises(DivergenceError) as caught:
        simulate(state, params, cfg, 500, record_every=record_every)
    with pytest.raises(DivergenceError) as stepped:
        for k in range(500):
            state = step(state, params, cfg, noise_for_step(cfg.seed, k, 4))
    for exc in (caught.value, stepped.value):
        assert (str(exc), exc.t, exc.max_velocity) == expected
    assert math.isfinite(expected[2])
    assert record_every == 1 or round(expected[1] / cfg.dt) % record_every   # not at a sample


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("params, seed", [(zero_params(), 0), (QUADRATIC, 1)])
@pytest.mark.parametrize("sample_dt", [10.0, 40.0, 100.0])
def test_contraction_divergence_names_the_first_non_finite_step(params, seed, sample_dt):
    cfg = SimConfig(dt=10.0, integrator="euler_maruyama", seed=seed)
    x, v = np.stack([_contraction_replica(cfg, 4, r) for r in range(2)], 1)
    expected = first_divergence(params, cfg, x, v, (2, 1, 4), 500)
    with pytest.raises(DivergenceError) as caught:
        contraction_experiment(params, cfg, 4, horizon=5000.0, replicas=2, sample_dt=sample_dt)
    assert (str(caught.value), caught.value.t, caught.value.max_velocity) == expected
    every = round(sample_dt / cfg.dt)
    assert math.isfinite(expected[2])
    assert every == 1 or round(expected[1] / cfg.dt) % every   # not at a sample


def per_pair_reference(params, cfg, n, horizon, replicas, sample_dt, noise=noise_for_step):
    """Each replica's pair stepped alone by coupled_step, sampled like the experiment; replica
    r's noise is slice r of the step's one draw of replicas * n values."""
    constants = coupling_constants(params.gamma)
    n_steps = max(1, round(horizon / cfg.dt))
    every = max(1, round(sample_dt / cfg.dt))
    mods, eucs = [], []
    for r in range(replicas):
        (x, x_tilde), (v, v_tilde) = _contraction_replica(cfg, n, r)
        pair = CoupledPair(z=ParticleState(x=x, v=v), z_tilde=ParticleState(x=x_tilde, v=v_tilde))
        times = [pair.z.t]
        mods.append([modified_norm_sq(x - x_tilde, v - v_tilde, constants)])
        eucs.append([euclidean_norm_sq(x - x_tilde, v - v_tilde)])
        for k in range(n_steps):
            pair = coupled_step(pair, params, cfg,
                                noise(cfg.seed, k, replicas * n)[r * n:(r + 1) * n])
            if (k + 1) % every == 0 or k + 1 == n_steps:
                times.append(pair.z.t)
                dx, dv = pair.z.x - pair.z_tilde.x, pair.z.v - pair.z_tilde.v
                mods[-1].append(modified_norm_sq(dx, dv, constants))
                eucs[-1].append(euclidean_norm_sq(dx, dv))
    return np.array(times), np.array(mods), np.array(eucs)


@settings(max_examples=40, deadline=None)
@given(params=MODELS, integrator=st.sampled_from(["euler_maruyama", "kinetic_splitting"]),
       n=st.integers(2, 64), replicas=st.integers(1, 4), n_steps=st.integers(8, 40),
       every=st.integers(1, 5), seed=st.integers(0, 2 ** 32))
def test_batched_contraction_matches_per_pair_stepping(params, integrator, n, replicas,
                                                       n_steps, every, seed):
    cfg = SimConfig(dt=0.01, integrator=integrator, seed=seed)
    horizon, sample_dt = n_steps * cfg.dt, every * cfg.dt
    report = contraction_experiment(params, cfg, n, horizon=horizon, replicas=replicas,
                                    sample_dt=sample_dt)
    times, mods, eucs = per_pair_reference(params, cfg, n, horizon, replicas, sample_dt)
    assert np.array_equal(report.times, times)
    assert np.array_equal(report.modified_norm_sq, mods)
    assert np.array_equal(report.euclid_sq, eucs)


def test_contraction_with_more_replicas_than_cached_generators():
    # a step's one draw holds 2060 values, and the reference builds a fresh generator for each
    replicas = 1030
    params, cfg = sine_params(), SimConfig(dt=0.01, seed=12)
    report = contraction_experiment(params, cfg, 2, horizon=0.02, replicas=replicas,
                                    sample_dt=0.01)
    times, mods, eucs = per_pair_reference(params, cfg, 2, 0.02, replicas, 0.01, noise=fresh_noise)
    assert np.array_equal(report.times, times)
    assert np.array_equal(report.modified_norm_sq, mods)
    assert np.array_equal(report.euclid_sq, eucs)


def test_contraction_draws_noise_once_per_step(monkeypatch):
    calls = []

    def recording(*args, **kwargs):
        calls.append((args[1:], kwargs))
        return noise_for_step(*args, **kwargs)

    monkeypatch.setattr(particles, "noise_for_step", recording)
    contraction_experiment(sine_params(), SimConfig(dt=0.01, seed=3), 5, horizon=0.2,
                           replicas=4, sample_dt=0.05)
    assert [args for args, _ in calls] == [(k, 4 * 5) for k in range(20)]
    # every step draws into the same buffer, the only keyword argument
    buffers = [kwargs.pop("out") for _, kwargs in calls]
    assert all(kwargs == {} for _, kwargs in calls)
    assert all(b is buffers[0] for b in buffers) and buffers[0].size == 4 * 5


@settings(max_examples=25, deadline=None)
@given(params=MODELS, integrator=st.sampled_from(["euler_maruyama", "kinetic_splitting"]),
       n=st.integers(2, 64), n_steps=st.integers(1, 40), every=st.integers(1, 5),
       seed=st.integers(0, 2 ** 64 - 1))
def test_replica_zero_matches_a_one_replica_run(params, integrator, n, n_steps, every, seed):
    # replica 0 draws the prefix of every step's draw, so a one-replica run keeps its bits
    cfg = SimConfig(dt=0.01, integrator=integrator, seed=seed)
    run = functools.partial(contraction_experiment, params, cfg, n, horizon=n_steps * cfg.dt,
                            sample_dt=every * cfg.dt)
    one = run(replicas=1)
    for replicas in (2, 3, 4):
        many = run(replicas=replicas)
        assert np.array_equal(many.modified_norm_sq[0], one.modified_norm_sq[0])
        assert np.array_equal(many.euclid_sq[0], one.euclid_sq[0])


@settings(max_examples=40, deadline=None)
@given(params=MODELS, n=st.integers(2, 64), rows=st.integers(1, 8), seed=st.integers(0, 2 ** 32))
def test_batched_force_matches_row_by_row_force(params, n, rows, seed):
    x = 3.0 * np.random.default_rng(seed).standard_normal((rows, 2, n))
    expected = np.array([[pairwise_force(params, pair_row) for pair_row in row] for row in x])
    assert np.array_equal(pairwise_force(params, x), expected)


def test_state_and_config_validation():
    with pytest.raises(ValueError):
        ParticleState(x=np.zeros(1), v=np.zeros(1))
    with pytest.raises(ValueError):
        ParticleState(x=np.zeros(3), v=np.zeros(2))
    with pytest.raises(ConfigurationError):
        SimConfig(dt=0.0)
    with pytest.raises(ConfigurationError):
        SimConfig(integrator="leapfrog")
    for seed in (-1, 1.5, "3", True):
        with pytest.raises(ConfigurationError):
            SimConfig(seed=seed)
    assert type(SimConfig(seed=np.uint64(3)).seed) is int
    numpy_seed = contraction_experiment(sine_params(), SimConfig(seed=np.uint64(3)), 4,
                                        horizon=0.01, replicas=2)
    int_seed = contraction_experiment(sine_params(), SimConfig(seed=3), 4, horizon=0.01, replicas=2)
    assert json.dumps(numpy_seed.to_dict()) == json.dumps(int_seed.to_dict())
    with pytest.raises(ConfigurationError):
        contraction_experiment(sine_params(), SimConfig(), 8, horizon=-1.0)
    with pytest.raises(ConfigurationError):
        contraction_experiment(sine_params(), SimConfig(), 8, horizon=1.0, replicas=0)
    for sample_dt in (0.0, -0.1):
        with pytest.raises(ConfigurationError):
            contraction_experiment(sine_params(), SimConfig(), 8, horizon=1.0, sample_dt=sample_dt)
    state = ParticleState(x=np.zeros(4), v=np.zeros(4))
    for record_every in (0, -1):   # 0 divided by zero, -1 recorded every step
        with pytest.raises(ConfigurationError):
            simulate(state, sine_params(), SimConfig(), 3, record_every=record_every)
