"""Closed-form Gaussian references: moment flow, Bures metric, free energies."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from vfplab import (ConfigurationError, GaussianState, ModelParams, UnconfinedError,
                    builtin_kernel, bures_w2, free_energy_particle_limit,
                    free_energy_quadratic, gaussian_kl, gibbs_measure_N,
                    moment_flow, stationary_gaussian)

QUAD = {"type": "quadratic_linear", "a": 1.0, "b": 1.0}
_FLOATS = dict(allow_nan=False, allow_infinity=False)


def make_params(gamma=1.0, lam=0.5, a=1.0, b=1.0):
    kernel = builtin_kernel({"type": "quadratic_linear", "a": a, "b": b})
    return ModelParams(gamma=gamma, lam=lam, kernel=kernel)


def test_gaussian_state_validation():
    with pytest.raises(ValueError):
        GaussianState(mean=[0.0, 0.0], cov=[[1.0, 0.5], [0.0, 1.0]])
    with pytest.raises(ValueError):
        GaussianState(mean=[0.0, 0.0], cov=[[1.0, 2.0], [2.0, 1.0]])
    with pytest.raises(ValueError):
        GaussianState(mean=[0.0], cov=np.eye(2))
    # non-finite entries anywhere, including the upper off-diagonal no definiteness test reads
    for bad in (np.nan, np.inf, -np.inf):
        for i, j in ((0, 0), (0, 1), (1, 0), (1, 1)):
            cov = np.eye(2)
            cov[i, j] = bad
            with pytest.raises(ValueError, match="finite"):
                GaussianState(mean=[0.0, 0.0], cov=cov)
        for mean in ([bad, 0.0], [0.0, bad]):
            with pytest.raises(ValueError, match="finite"):
                GaussianState(mean=mean, cov=np.eye(2))
    # definiteness is read from the lower triangle, as eigvalsh reads it: the upper entry,
    # within the symmetry tolerance, would make this matrix indefinite
    near_singular = np.array([[1.0, 1.0 + 2e-6], [1.0 - 3e-6, 1.0]])
    assert eigensolver_rule_accepts(near_singular) and accepts(near_singular)


def eigensolver_rule_accepts(cov):
    """The state check written with numpy: np.allclose symmetry, then eigvalsh definiteness."""
    return bool(np.allclose(cov, cov.T, atol=1e-12) and np.linalg.eigvalsh(cov).min() > 0.0)


def accepts(cov):
    try:
        GaussianState(mean=[0.0, 0.0], cov=cov)
    except ValueError:
        return False
    return True


@settings(max_examples=300, deadline=None)
@given(log_scale=st.floats(-3.0, 3.0, **_FLOATS), angle=st.floats(0.0, math.pi, **_FLOATS),
       gaps=st.tuples(*[st.floats(-6.0, 0.0, **_FLOATS)] * 2),
       signs=st.tuples(*[st.sampled_from([-1.0, 1.0])] * 2),
       asymmetry=st.sampled_from([0.0, 0.5, -0.5, 2.0, -2.0]))
def test_state_check_agrees_with_the_eigensolver_rule(log_scale, angle, gaps, signs, asymmetry):
    # eigenvalues sign * 10^(log_scale + gap): definite, indefinite and negative definite
    evals = [sign * 10.0 ** (log_scale + gap) for sign, gap in zip(signs, gaps)]
    rot = np.array([[math.cos(angle), -math.sin(angle)], [math.sin(angle), math.cos(angle)]])
    cov = rot @ np.diag(evals) @ rot.T
    cov[0, 1] = cov[1, 0]
    lower = np.linalg.eigvalsh(cov)
    assume(np.abs(lower).min() >= 1e-6 * np.abs(lower).max())
    # move the upper entry, which the definiteness tests do not read, by a multiple of the
    # symmetry tolerance |s_xv - s_vx| <= 1e-12 + 1e-5 min(|s_xv|, |s_vx|)
    cov[0, 1] += asymmetry * (1e-12 + 1e-5 * abs(cov[1, 0]))
    assert accepts(cov) == eigensolver_rule_accepts(cov)
    if asymmetry in (2.0, -2.0):
        assert not accepts(cov)


def test_moment_flow_matches_matrix_exponential_without_interaction():
    gamma = 1.3
    params = ModelParams(gamma=gamma, lam=0.0, kernel=builtin_kernel("zero"))
    g0 = GaussianState(mean=[1.5, -0.7], cov=[[2.0, 0.3], [0.3, 0.5]])
    times = np.array([0.0, 0.35, 0.7, 1.4])
    flow = moment_flow(g0, params, times)
    B = np.array([[0.0, 1.0], [-1.0, -gamma]])
    sigma_inf = np.eye(2)
    for t, state in zip(times, flow):
        E = expm(B * t)
        mean = E @ g0.mean
        cov = E @ (g0.cov - sigma_inf) @ E.T + sigma_inf
        assert np.abs(state.mean - mean).max() < 1e-12
        assert np.abs(state.cov - cov).max() < 1e-12


def expm_flow(g0, params, t):
    """Reference (mean, cov) at time t, written with scipy's matrix exponential."""
    a, b = params.kernel.coeffs
    k = 1.0 + 2.0 * params.lam * a
    m_star, s_star = np.array([-params.lam * b, 0.0]), np.diag([1.0 / k, 1.0])
    e_mean = expm(np.array([[0.0, 1.0], [-1.0, -params.gamma]]) * t)
    e_cov = expm(np.array([[0.0, 1.0], [-k, -params.gamma]]) * t)
    return m_star + e_mean @ (g0.mean - m_star), s_star + e_cov @ (g0.cov - s_star) @ e_cov.T


@settings(max_examples=200, deadline=None)
@given(damping=st.sampled_from(["any", "critical_mean", "near_critical_mean", "critical_cov"]),
       gamma=st.floats(0.05, 10.0, **_FLOATS), lam=st.floats(0.0, 2.0, **_FLOATS),
       a=st.floats(-1.0, 2.0, **_FLOATS), b=st.floats(-2.0, 2.0, **_FLOATS),
       quarter=st.integers(1, 40), eps=st.floats(-1e-6, 1e-6, **_FLOATS),
       mean=st.tuples(*[st.floats(-3.0, 3.0, **_FLOATS)] * 2),
       s_xx=st.floats(0.05, 5.0, **_FLOATS), s_vv=st.floats(0.05, 5.0, **_FLOATS),
       rho=st.floats(-0.95, 0.95, **_FLOATS),
       times=st.lists(st.floats(0.0, 50.0, **_FLOATS), min_size=1, max_size=6))
def test_moment_flow_matches_the_matrix_exponential(damping, gamma, lam, a, b, quarter, eps,
                                                     mean, s_xx, s_vv, rho, times):
    if damping == "critical_mean":            # gamma^2 = 4: B_1 has a double eigenvalue
        gamma = 2.0
    elif damping == "near_critical_mean":
        gamma = 2.0 * (1.0 + eps)
    elif damping == "critical_cov":           # gamma^2 = 4 (1 + 2 lam a), exactly in floats
        gamma, lam, a = quarter / 4.0, 0.5, quarter * quarter / 64.0 - 1.0
    assume(1.0 + 2.0 * lam * a >= 0.05)
    params = make_params(gamma=gamma, lam=lam, a=a, b=b)
    s_xv = rho * math.sqrt(s_xx * s_vv)
    g0 = GaussianState(mean=mean, cov=[[s_xx, s_xv], [s_xv, s_vv]])
    times = [0.0] + sorted(times)
    flow = moment_flow(g0, params, times)
    assert np.array_equal(flow[0].mean, g0.mean) and np.array_equal(flow[0].cov, g0.cov)
    for t, state in zip(times, flow):
        mean_ref, cov_ref = expm_flow(g0, params, t)
        assert np.array_equal(state.cov, state.cov.T)
        assert np.abs(state.mean - mean_ref).max() < 1e-11
        assert np.abs(state.cov - cov_ref).max() < 1e-11


@pytest.mark.parametrize("gamma", [0.3, 2.0, 5.0])
def test_moment_flow_reaches_the_stationary_state_at_long_times(gamma):
    params = make_params(gamma=gamma, lam=0.5, a=1.0, b=1.0)
    g0 = GaussianState(mean=[2.0, -1.0], cov=[[3.0, 0.4], [0.4, 0.2]])
    late = moment_flow(g0, params, [0.0, 1e4])[-1]
    target = stationary_gaussian(params)
    assert np.isfinite(late.cov).all() and np.isfinite(late.mean).all()
    assert np.abs(late.mean - target.mean).max() < 1e-12
    assert np.abs(late.cov - target.cov).max() < 1e-12


def test_moment_flow_fixes_the_stationary_state():
    params = make_params(gamma=0.7, lam=0.3)
    target = stationary_gaussian(params)
    flow = moment_flow(target, params, [0.0, 5.0])
    assert np.abs(flow[-1].mean - target.mean).max() < 1e-8
    assert np.abs(flow[-1].cov - target.cov).max() < 1e-8


def test_moment_flow_input_validation():
    params = make_params()
    g0 = GaussianState(mean=[0.0, 0.0], cov=np.eye(2))
    with pytest.raises(ConfigurationError):
        moment_flow(g0, params, [0.0, 1.0, 0.5])
    with pytest.raises(ConfigurationError):
        moment_flow(g0, params, [-1.0, 0.0])
    with pytest.raises(ConfigurationError):
        moment_flow(g0, params, [0.0, np.inf])
    sine = ModelParams(gamma=1.0, lam=0.1,
                       kernel=builtin_kernel({"type": "sine", "amplitude": 1.0}))
    with pytest.raises(ConfigurationError):
        moment_flow(g0, sine, [0.0, 1.0])


def test_stationary_gaussian_closed_form():
    params = make_params(gamma=2.0, lam=0.5, a=1.0, b=1.0)
    target = stationary_gaussian(params)
    k = 1.0 + 2.0 * 0.5 * 1.0
    assert np.abs(target.mean - np.array([-0.5, 0.0])).max() < 1e-15
    assert np.abs(target.cov - np.diag([1.0 / k, 1.0])).max() < 1e-15
    free = stationary_gaussian(ModelParams(gamma=1.0, lam=0.0, kernel=builtin_kernel("zero")))
    assert np.abs(free.mean).max() == 0.0
    assert np.abs(free.cov - np.eye(2)).max() == 0.0


def test_unconfined_model_is_rejected():
    params = make_params(lam=0.5, a=-1.0, b=0.0)  # 1 + 2 lam a = 0
    with pytest.raises(UnconfinedError):
        stationary_gaussian(params)
    with pytest.raises(UnconfinedError):
        moment_flow(GaussianState(mean=[0, 0], cov=np.eye(2)), params, [0.0, 1.0])


def test_bures_distance_cases():
    g = GaussianState(mean=[0.0, 0.0], cov=np.eye(2))
    assert bures_w2(g, g) == 0.0
    shifted = GaussianState(mean=[3.0, -4.0], cov=np.eye(2))
    assert abs(bures_w2(g, shifted) - 5.0) < 1e-12
    widened = GaussianState(mean=[0.0, 0.0], cov=np.diag([4.0, 1.0]))
    assert abs(bures_w2(g, widened) - 1.0) < 1e-12
    # diagonal case: squared distance sums (sqrt(s1) - sqrt(s2))^2 per axis
    g1 = GaussianState(mean=[1.0, 2.0], cov=np.diag([2.25, 0.25]))
    g2 = GaussianState(mean=[0.0, 2.0], cov=np.diag([0.25, 1.0]))
    expected = np.sqrt(1.0 + (1.5 - 0.5) ** 2 + (0.5 - 1.0) ** 2)
    assert abs(bures_w2(g1, g2) - expected) < 1e-12


def test_bures_metric_axioms_on_random_instances():
    rng = np.random.default_rng(5)
    def rand_state():
        L = rng.normal(size=(2, 2))
        return GaussianState(mean=rng.normal(size=2), cov=L @ L.T + 0.2 * np.eye(2))
    for _ in range(20):
        ga, gb, gc = rand_state(), rand_state(), rand_state()
        dab, dba = bures_w2(ga, gb), bures_w2(gb, ga)
        assert abs(dab - dba) < 1e-10
        assert dab >= 0.0
        assert bures_w2(ga, gc) <= dab + bures_w2(gb, gc) + 1e-10


def sqrtm_psd(S):
    evals, evecs = np.linalg.eigh(S)
    return (evecs * np.sqrt(np.maximum(evals, 0.0))) @ evecs.T


def bures_sq_reference(g1, g2):
    """W2^2 by the eigendecomposition form of the Bures formula, in any dimension."""
    r2 = sqrtm_psd(g2.cov)
    dm = g1.mean - g2.mean
    return float(dm @ dm + np.trace(g1.cov + g2.cov - 2.0 * sqrtm_psd(r2 @ g1.cov @ r2)))


def random_cov(s_xx, s_vv, rho):
    s_xv = rho * math.sqrt(s_xx * s_vv)
    return [[s_xx, s_xv], [s_xv, s_vv]]


@settings(max_examples=300, deadline=None)
@given(case=st.sampled_from(["independent", "near_identical_cov", "equal_mean"]),
       log_scale=st.floats(-4.0, 4.0, **_FLOATS),
       first=st.tuples(st.floats(0.05, 5.0, **_FLOATS), st.floats(0.05, 5.0, **_FLOATS),
                       st.floats(-0.99, 0.99, **_FLOATS)),
       second=st.tuples(st.floats(0.05, 5.0, **_FLOATS), st.floats(0.05, 5.0, **_FLOATS),
                        st.floats(-0.99, 0.99, **_FLOATS)),
       nudge=st.floats(-1e-8, 1e-8, **_FLOATS),
       means=st.tuples(*[st.floats(-3.0, 3.0, **_FLOATS)] * 4))
def test_bures_closed_form_matches_the_eigendecomposition(case, log_scale, first, second,
                                                         nudge, means):
    scale = 10.0 ** log_scale
    cov1 = scale * np.array(random_cov(*first))
    cov2 = cov1 * (1.0 + nudge) if case == "near_identical_cov" else \
        scale * np.array(random_cov(*second))
    mean1 = math.sqrt(scale) * np.array(means[:2])
    mean2 = mean1 if case == "equal_mean" else math.sqrt(scale) * np.array(means[2:])
    g1, g2 = GaussianState(mean1, cov1), GaussianState(mean2, cov2)
    dm = mean1 - mean2
    bound = 1e-12 * (np.trace(cov1) + np.trace(cov2) + dm @ dm)
    assert abs(bures_w2(g1, g2) ** 2 - max(bures_sq_reference(g1, g2), 0.0)) <= bound


def free_energies_reference(g, params, n):
    """Both free energies written out with a slogdet log-determinant."""
    a, b = params.kernel.coeffs
    a_eff, b_eff = params.lam * a, params.lam * b
    (m_x, m_v), (s_xx, s_vv) = g.mean, np.diag(g.cov)
    _, logdet = np.linalg.slogdet(g.cov)
    quadratic = (-(1.0 + math.log(2.0 * math.pi)) - 0.5 * logdet
                 + 0.5 * (m_x * m_x + s_xx + m_v * m_v + s_vv) + b_eff * m_x + a_eff * s_xx)
    particle = 0.5 * ((1.0 + 2.0 * a_eff) * s_xx + s_vv - 2.0 + (m_x + b_eff) ** 2 + m_v ** 2
                      - (n - 1) / n * math.log1p(2.0 * a_eff * (n / (n - 1))) - logdet)
    return quadratic, particle


@settings(max_examples=200, deadline=None)
@given(lam=st.floats(0.0, 2.0, **_FLOATS), a=st.floats(-0.2, 1.0, **_FLOATS),
       b=st.floats(-2.0, 2.0, **_FLOATS), mean=st.tuples(*[st.floats(-3.0, 3.0, **_FLOATS)] * 2),
       s_xx=st.floats(0.05, 5.0, **_FLOATS), s_vv=st.floats(0.05, 5.0, **_FLOATS),
       rho=st.floats(-0.99, 0.99, **_FLOATS), n=st.integers(2, 10 ** 6))
def test_free_energies_match_the_slogdet_forms(lam, a, b, mean, s_xx, s_vv, rho, n):
    assume(1.0 + 4.0 * lam * a >= 0.2)
    params = make_params(lam=lam, a=a, b=b)
    g = GaussianState(mean=mean, cov=random_cov(s_xx, s_vv, rho))
    quadratic, particle = free_energies_reference(g, params, n)
    assert abs(free_energy_quadratic(g, params) - quadratic) <= 1e-13
    assert abs(free_energy_particle_limit(g, params, n) - particle) <= 1e-13


def test_gaussian_kl_closed_forms():
    eye = np.eye(2)
    zero = np.zeros(2)
    assert gaussian_kl(zero, eye, zero, eye) == 0.0
    delta = np.array([0.7, -0.2])
    assert abs(gaussian_kl(delta, eye, zero, eye) - 0.5 * delta @ delta) < 1e-14
    s2 = 2.5
    expected = 0.5 * (s2 - 1.0 - np.log(s2))
    assert abs(gaussian_kl(zero, np.diag([s2, 1.0]), zero, eye) - expected) < 1e-14


def test_gaussian_kl_nonnegative_random():
    rng = np.random.default_rng(8)
    for _ in range(25):
        L1, L0 = rng.normal(size=(2, 2)), rng.normal(size=(2, 2))
        kl = gaussian_kl(rng.normal(size=2), L1 @ L1.T + 0.1 * np.eye(2),
                         rng.normal(size=2), L0 @ L0.T + 0.1 * np.eye(2))
        assert kl >= -1e-12


def test_free_energy_quadratic_closed_form():
    params = make_params(gamma=1.0, lam=0.5, a=1.0, b=1.0)
    g = GaussianState(mean=[1.0, 0.0], cov=np.eye(2))
    # entropy of a unit Gaussian, confinement of mean and covariance,
    # interaction lam * (b m_x + a var_x)
    expected = -(1.0 + np.log(2.0 * np.pi)) + 0.5 * (1.0 + 1.0 + 0.0 + 1.0) \
        + 0.5 * (1.0 * 1.0 + 1.0 * 1.0)
    assert abs(free_energy_quadratic(g, params) - expected) < 1e-14
    with pytest.raises(ConfigurationError):
        free_energy_quadratic(g, ModelParams(
            gamma=1.0, lam=0.1, kernel=builtin_kernel({"type": "sine", "amplitude": 1.0})))


def test_free_energy_is_minimal_at_the_stationary_state():
    params = make_params(gamma=1.0, lam=0.5)
    target = stationary_gaussian(params)
    f_star = free_energy_quadratic(target, params)
    rng = np.random.default_rng(3)
    for _ in range(25):
        L = rng.normal(size=(2, 2))
        g = GaussianState(mean=rng.normal(size=2), cov=L @ L.T + 0.1 * np.eye(2))
        assert free_energy_quadratic(g, params) >= f_star - 1e-12


def test_gibbs_measure_structure():
    params = make_params(gamma=1.0, lam=0.5, a=1.0, b=1.0)
    n = 6
    gibbs = gibbs_measure_N(params, n)
    prec = gibbs.precision
    assert prec.shape == (2 * n, 2 * n)
    assert np.abs(prec - prec.T).max() == 0.0
    # velocity block is the identity and decouples
    assert np.abs(prec[n:, n:] - np.eye(n)).max() == 0.0
    assert np.abs(prec[:n, n:]).max() == 0.0
    # the all-ones direction keeps unit precision; the rest is stiffened
    pos = prec[:n, :n]
    ones = np.ones(n)
    assert np.abs(pos @ ones - ones).max() < 1e-12
    evals = np.sort(np.linalg.eigvalsh(pos))
    a_tilde = params.lam * 1.0
    bulk = 1.0 + 2.0 * a_tilde * n / (n - 1.0)
    assert abs(evals[0] - 1.0) < 1e-12
    assert np.abs(evals[1:] - bulk).max() < 1e-12
    # mean sits at -lam*b on every position, zero on velocities
    assert np.abs(gibbs.mean[:n] + 0.5).max() < 1e-12
    assert np.abs(gibbs.mean[n:]).max() == 0.0


def test_gibbs_marginal_variance_approaches_mean_field():
    params = make_params(gamma=1.0, lam=0.5, a=1.0, b=1.0)
    a_tilde = 0.5
    target = 1.0 / (1.0 + 2.0 * a_tilde)
    gaps = []
    for n in (4, 16, 64, 256):
        gibbs = gibbs_measure_N(params, n)
        var1 = np.linalg.inv(gibbs.precision[:n, :n])[0, 0]
        gaps.append(abs(var1 - target))
    gaps = np.array(gaps)
    assert gaps[-1] < 2e-3
    # O(1/N): quartering n quarters the gap
    assert np.all(gaps[1:] < gaps[:-1] * 0.3)


def test_gibbs_rejects_unconfined_swarm():
    params = make_params(lam=0.5, a=-1.0, b=0.0)
    g = GaussianState(mean=[0.0, 0.0], cov=np.eye(2))
    with pytest.raises(UnconfinedError):
        gibbs_measure_N(params, 2)
    with pytest.raises(UnconfinedError):
        free_energy_particle_limit(g, params, 2)
    # the particle count is checked before the confinement
    with pytest.raises(ConfigurationError):
        gibbs_measure_N(params, 1)
    with pytest.raises(ConfigurationError):
        free_energy_particle_limit(g, params, 1)


def test_particle_free_energy_identity_without_curvature():
    # for a = 0 the per-particle relative entropy equals the one-particle one
    params = make_params(gamma=1.0, lam=0.5, a=0.0, b=1.0)
    mu1 = stationary_gaussian(params)
    rng = np.random.default_rng(12)
    for n in (2, 3, 17, 128):
        L = rng.normal(size=(2, 2))
        g = GaussianState(mean=rng.normal(size=2), cov=L @ L.T + 0.2 * np.eye(2))
        per_particle = free_energy_particle_limit(g, params, n)
        single = gaussian_kl(g.mean, g.cov, mu1.mean, mu1.cov)
        assert abs(per_particle - single) < 1e-12


def test_particle_free_energy_differences_are_size_stable():
    params = make_params(gamma=1.0, lam=0.5, a=1.0, b=1.0)
    g1 = GaussianState(mean=[1.0, 0.0], cov=np.eye(2))
    g2 = GaussianState(mean=[-0.3, 0.4], cov=[[1.5, 0.2], [0.2, 0.8]])
    limit = free_energy_quadratic(g1, params) - free_energy_quadratic(g2, params)
    for n in (2, 8, 64, 512):
        diff = free_energy_particle_limit(g1, params, n) \
            - free_energy_particle_limit(g2, params, n)
        assert abs(diff - limit) < 1e-10


@settings(max_examples=100, deadline=None)
@given(lam=st.floats(0.0, 2.0, **_FLOATS), a=st.floats(-1.0, 1.0, **_FLOATS),
       b=st.floats(-2.0, 2.0, **_FLOATS), mean=st.tuples(*[st.floats(-3.0, 3.0, **_FLOATS)] * 2),
       s_xx=st.floats(0.1, 5.0, **_FLOATS), s_vv=st.floats(0.1, 5.0, **_FLOATS),
       rho=st.floats(-0.95, 0.95, **_FLOATS), n=st.integers(2, 48))
def test_particle_free_energy_matches_the_dense_gaussian_kl(lam, a, b, mean, s_xx, s_vv, rho, n):
    # confined for every N >= 2: the bulk eigenvalue 1 + 2 lam a N/(N-1) is smallest at N = 2
    assume(1.0 + 4.0 * lam * a >= 0.2)
    params = make_params(lam=lam, a=a, b=b)
    s_xv = rho * math.sqrt(s_xx * s_vv)
    g = GaussianState(mean=mean, cov=[[s_xx, s_xv], [s_xv, s_vv]])
    gibbs = gibbs_measure_N(params, n)
    # g^{tensor N} in the (x_1..x_N, v_1..v_N) ordering of the equilibrium
    dense = gaussian_kl(np.repeat(g.mean, n), np.kron(g.cov, np.eye(n)),
                        gibbs.mean, np.linalg.inv(gibbs.precision)) / n
    assert math.isclose(free_energy_particle_limit(g, params, n), dense,
                        rel_tol=1e-10, abs_tol=1e-12)


def test_particle_free_energy_needs_no_dense_memory_at_huge_n():
    # a dense (2N x 2N) precision at N = 1e7 would take 3.2 PB
    params = make_params(gamma=1.0, lam=0.5, a=1.0, b=1.0)
    g = GaussianState(mean=[-0.3, 0.4], cov=[[1.5, 0.2], [0.2, 0.8]])
    value = free_energy_particle_limit(g, params, 10 ** 7)
    # (1/N) KL to the N-particle equilibrium tends to F(g) - F(stationary state)
    limit = free_energy_quadratic(g, params) \
        - free_energy_quadratic(stationary_gaussian(params), params)
    assert math.isfinite(value)
    assert abs(value - limit) < 1e-6
