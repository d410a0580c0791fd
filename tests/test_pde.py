"""Finite-volume solver: conservation, equilibria, moment tracking, refinement."""

import json
import math
import weakref

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import vfplab.pde
from vfplab import (ConfigurationError, GaussianState, GridConfig, ModelParams,
                    NonConvergenceError, PhaseGrid, SchemeError, builtin_kernel,
                    cfl_bound, gaussian_grid, grid_from_density, grid_to_binary,
                    grid_to_csv, l1_distance, local_equilibrium, mean_field_force,
                    moment_flow, run_vfp, stationary_fixed_point, vfp_step, x_marginal)
from vfplab.pde import _bernoulli, _upwind

SINE_BOUNDARY = ModelParams(gamma=1.0, lam=0.125,
                            kernel=builtin_kernel({"type": "sine", "amplitude": 1.0}))


def quad_params(lam=1.0, a=0.5, b=1.0):
    return ModelParams(gamma=1.0, lam=lam,
                       kernel=builtin_kernel({"type": "quadratic_linear", "a": a, "b": b}))


def default_grid_config(**kw):
    base = dict(Lx=8.0, Lv=8.0, nx=128, nv=128, dt=1e-3, splitting="strang")
    base.update(kw)
    return GridConfig(**base)


# ------------------------------------------------------------ construction --

def test_grid_config_validation():
    with pytest.raises(ConfigurationError):
        default_grid_config(nx=2)
    with pytest.raises(ConfigurationError):
        default_grid_config(dt=0.0)
    with pytest.raises(ConfigurationError):
        default_grid_config(splitting="verlet")
    with pytest.raises(ConfigurationError):
        default_grid_config(cfl_safety=0.0)
    with pytest.raises(ConfigurationError):
        default_grid_config(cfl_safety=1.5)
    with pytest.raises(ConfigurationError):
        default_grid_config(Lx=-1.0)


def test_grid_geometry():
    cfg = default_grid_config()
    grid = gaussian_grid(cfg, [0.0, 0.0], np.eye(2))
    assert grid.dx == 0.125 and grid.dv == 0.125
    assert grid.x_centers[0] == -8.0 + 0.0625
    assert grid.x_centers[-1] == pytest.approx(8.0 - 0.0625)
    assert abs(grid.mass() - 1.0) < 1e-12
    assert grid.cell_area() == pytest.approx(0.125 * 0.125)


def test_phase_grid_rejects_bad_data():
    cfg = default_grid_config(nx=8, nv=8)
    data = np.full((8, 8), 1.0 / 256.0)
    PhaseGrid(Lx=8.0, Lv=8.0, nx=8, nv=8, data=data)  # unit mass, fine
    with pytest.raises(SchemeError):
        PhaseGrid(Lx=8.0, Lv=8.0, nx=8, nv=8, data=-data)
    with pytest.raises(SchemeError):
        PhaseGrid(Lx=8.0, Lv=8.0, nx=8, nv=8, data=data * np.nan)
    with pytest.raises(ValueError):
        PhaseGrid(Lx=8.0, Lv=8.0, nx=8, nv=8, data=2.0 * data)
    with pytest.raises(ValueError):
        PhaseGrid(Lx=8.0, Lv=8.0, nx=8, nv=8, data=np.full((8, 4), 1.0 / 128.0))


def test_gaussian_grid_moments():
    cfg = default_grid_config()
    grid = gaussian_grid(cfg, [1.0, -0.5], [[1.0, 0.2], [0.2, 0.7]])
    w = grid.data * grid.cell_area()
    mx = float(grid.x_centers @ w.sum(axis=1))
    mv = float(grid.v_centers @ w.sum(axis=0))
    assert abs(mx - 1.0) < 1e-6
    assert abs(mv + 0.5) < 1e-6
    sxv = float((grid.x_centers - mx) @ w @ (grid.v_centers - mv))
    assert abs(sxv - 0.2) < 1e-3


def inverse_gaussian_grid(cfg, mean, cov):
    """gaussian_grid's density through numpy.linalg.inv, the tests' reference only."""
    prec = np.linalg.inv(cov)

    def density(x, v):
        cx, cv = x - mean[0], v - mean[1]
        return np.exp(-0.5 * (prec[0, 0] * cx * cx + 2.0 * prec[0, 1] * cx * cv
                              + prec[1, 1] * cv * cv))

    return grid_from_density(cfg, density)


def test_gaussian_grid_matches_the_inverse_covariance_density():
    cfg = default_grid_config(nx=48, nv=40)
    rng = np.random.default_rng(21)
    for _ in range(20):
        a = rng.normal(size=(2, 2))
        cov = a @ a.T + 0.05 * np.eye(2)
        mean = rng.uniform(-2.0, 2.0, 2)
        ref = inverse_gaussian_grid(cfg, mean, cov).data
        assert np.abs(gaussian_grid(cfg, mean, cov).data - ref).max() <= 1e-12 * ref.max()
    # a diagonal covariance's precision is its reciprocal either way, so the bits agree
    for cov in (np.eye(2), np.diag([0.3, 0.7]), np.diag(rng.uniform(0.1, 3.0, 2))):
        assert np.array_equal(gaussian_grid(cfg, [1.0, -0.5], cov).data,
                              inverse_gaussian_grid(cfg, [1.0, -0.5], cov).data)


def test_grid_from_density_normalizes():
    cfg = default_grid_config(nx=32, nv=32)
    grid = grid_from_density(cfg, lambda x, v: np.exp(-np.abs(x) - np.abs(v)))
    assert abs(grid.mass() - 1.0) < 1e-12
    assert grid.data.min() >= 0.0


def test_x_marginal_is_a_probability_vector():
    cfg = default_grid_config(nx=64, nv=48)
    grid = gaussian_grid(cfg, [0.5, 0.0], np.eye(2))
    xc, w = x_marginal(grid)
    assert xc.shape == (64,) and w.shape == (64,)
    assert abs(w.sum() - 1.0) < 1e-12
    assert abs(float(xc @ w) - 0.5) < 1e-6


# ------------------------------------------------------------------ stepping -

def test_mass_conservation_and_positivity():
    cfg = default_grid_config(nx=64, nv=64, dt=2e-3)
    grid = gaussian_grid(cfg, [1.0, 0.0], np.eye(2))
    params = SINE_BOUNDARY
    for _ in range(100):
        new = vfp_step(grid, params, cfg)
        assert abs(new.mass() - grid.mass()) < 1e-12
        assert new.data.min() >= 0.0
        grid = new
    assert abs(grid.mass() - 1.0) < 1e-10


_FLOATS = dict(allow_nan=False, allow_infinity=False)
_COEF = st.floats(-2.0, 2.0, **_FLOATS)
_UNIT_INTERVAL = st.floats(0.0, 1.0, exclude_min=True, **_FLOATS)
STEP_KERNELS = st.one_of(
    st.just("zero"),
    st.builds(lambda a, b: {"type": "quadratic_linear", "a": a, "b": b}, _COEF, _COEF),
    st.builds(lambda c: {"type": "sine", "amplitude": c}, _COEF),
    st.builds(lambda h, w: {"type": "gaussian_bump", "height": h, "width": w},
              _COEF, st.floats(0.2, 3.0, **_FLOATS)),
    st.builds(lambda c: {"type": "symmetrized", "inner": {"type": "sine", "amplitude": c}}, _COEF),
)


@settings(max_examples=150, deadline=None)
@given(kernel=STEP_KERNELS, gamma=st.floats(0.05, 5.0, **_FLOATS),
       lam=st.floats(0.0, 2.0, **_FLOATS), splitting=st.sampled_from(["lie", "strang"]),
       cfl_safety=_UNIT_INTERVAL, dt_fraction=_UNIT_INTERVAL,
       box=st.tuples(st.floats(1.0, 8.0, **_FLOATS), st.floats(1.0, 8.0, **_FLOATS)),
       cells=st.tuples(st.integers(4, 24), st.integers(4, 24)),
       mean=st.tuples(*[st.floats(-0.5, 0.5, **_FLOATS)] * 2),
       spread=st.tuples(*[st.floats(0.05, 0.5, **_FLOATS)] * 2),
       rho=st.floats(-0.9, 0.9, **_FLOATS))
def test_one_step_keeps_positivity_and_mass(kernel, gamma, lam, splitting, cfl_safety,
                                            dt_fraction, box, cells, mean, spread, rho):
    # any dt within the CFL budget, on a Gaussian placed and sized relative to the box
    (lx, lv), (nx, nv) = box, cells
    params = ModelParams(gamma=gamma, lam=lam, kernel=builtin_kernel(kernel))
    sd_x, sd_v = spread[0] * lx, spread[1] * lv
    cov = [[sd_x * sd_x, rho * sd_x * sd_v], [rho * sd_x * sd_v, sd_v * sd_v]]
    geometry = dict(Lx=lx, Lv=lv, nx=nx, nv=nv, cfl_safety=cfl_safety, splitting=splitting)
    grid = gaussian_grid(GridConfig(dt=1.0, **geometry), [mean[0] * lx, mean[1] * lv], cov)
    dt = dt_fraction * cfl_safety * cfl_bound(grid, params)
    assume(dt > 0.0)
    new = vfp_step(grid, params, GridConfig(dt=dt, **geometry))
    assert new.data.min() >= 0.0
    assert abs(new.mass() - grid.mass()) <= 1e-12


def fokker_planck_limit(grid):
    """gamma times the largest dt keeping the Fokker-Planck substep positive: dv^2 over the
    largest cell outflow B(w_j) + B(-w_{j-1})."""
    w = 0.5 * (grid.v_centers[:-1] + grid.v_centers[1:]) * grid.dv
    outflow = np.append(_bernoulli(w), 0.0) + np.append(0.0, _bernoulli(-w))
    return grid.dv * grid.dv / float(outflow.max())


def strided_step(grid, params, cfg):
    """The step as written before the sweeps ran on the flat array: the v sweeps on strided
    (nx, nv - 1) views, fresh temporaries, the Fokker-Planck substep in its own form, m times at
    dt / m.  It is the bit-for-bit reference of ``vfp_step``; returns the new data and whether
    it clamped."""
    def upwind(left, right, lo, hi, c):
        flux = c * (lo * left + hi * right)
        left -= flux
        right += flux

    xc, vc, dx, dv = grid.x_centers, grid.v_centers, grid.dx, grid.dv
    speed = mean_field_force(params, xc, x_marginal(grid)) - xc
    vp, vm = np.where(vc > 0.0, vc, 0.0)[None, :], np.where(vc < 0.0, vc, 0.0)[None, :]
    sp, sm = np.where(speed > 0.0, speed, 0.0)[:, None], np.where(speed < 0.0, speed, 0.0)[:, None]
    w = 0.5 * (vc[:-1] + vc[1:]) * dv
    bp, bm = _bernoulli(w), _bernoulli(-w)
    data = grid.data.copy()
    h = cfg.dt if cfg.splitting == "lie" else 0.5 * cfg.dt
    upwind(data[:-1], data[1:], vp, vm, h / dx)
    upwind(data[:, :-1], data[:, 1:], sp, sm, h / dv)
    limit = fokker_planck_limit(grid)
    m = max(1, math.ceil(cfg.dt * params.gamma / (cfg.cfl_safety * limit * (1.0 + 1e-9))))
    c = cfg.dt / m / dv
    for _ in range(m):
        flux = (params.gamma / dv) * (bm[None, :] * data[:, 1:] - bp[None, :] * data[:, :-1])
        data[:, :-1] += c * flux
        data[:, 1:] -= c * flux
    if cfg.splitting == "strang":
        upwind(data[:, :-1], data[:, 1:], sp, sm, h / dv)
        upwind(data[:-1], data[1:], vp, vm, h / dx)
    clamped = bool(data.min() < 0.0)
    if clamped:
        np.clip(data, 0.0, None, out=data)
        data /= data.sum() * dx * dv
    return data, clamped


def strided_grid(grid, params, cfg):
    """``strided_step`` as a step from grid to grid."""
    data, _ = strided_step(grid, params, cfg)
    return PhaseGrid(Lx=grid.Lx, Lv=grid.Lv, nx=grid.nx, nv=grid.nv, data=data, t=grid.t + cfg.dt)


def chained(step, grid, params, cfg, n_steps):
    """``n_steps`` calls of a single ``step``, each on the grid the last one returned."""
    for _ in range(n_steps):
        grid = step(grid, params, cfg)
    return grid


def outcome(run):
    """What ``run()`` ends with: the grid's data bytes and t, or the error's type and message."""
    try:
        grid = run()
    except (ConfigurationError, SchemeError, ValueError) as exc:
        return type(exc), str(exc)
    return grid.data.tobytes(), grid.t


def unit_mass_grid(data, lx, lv):
    nx, nv = data.shape
    return PhaseGrid(Lx=lx, Lv=lv, nx=nx, nv=nv,
                     data=data / (data.sum() * (2.0 * lx / nx) * (2.0 * lv / nv)))


@settings(max_examples=150, deadline=None)
@given(kernel=STEP_KERNELS, gamma=st.floats(0.05, 5.0, **_FLOATS),
       lam=st.floats(0.0, 2.0, **_FLOATS), splitting=st.sampled_from(["lie", "strang"]),
       cfl_safety=_UNIT_INTERVAL, dt_fraction=_UNIT_INTERVAL,
       box=st.tuples(st.floats(1.0, 8.0, **_FLOATS), st.floats(1.0, 8.0, **_FLOATS)),
       cells=st.tuples(st.integers(4, 24), st.integers(4, 24)).filter(lambda c: c[0] != c[1]),
       seed=st.integers(0, 2 ** 32 - 1), n_steps=st.integers(1, 5))
def test_flat_sweeps_match_the_strided_step_bit_for_bit(kernel, gamma, lam, splitting,
                                                        cfl_safety, dt_fraction, box, cells,
                                                        seed, n_steps):
    # nx != nv, so a flux that leaked across a row end of the flat array would show; n_steps
    # in place end as n chained single steps and n strided steps do, t and any error included
    (lx, lv), (nx, nv) = box, cells
    params = ModelParams(gamma=gamma, lam=lam, kernel=builtin_kernel(kernel))
    grid = unit_mass_grid(np.random.default_rng(seed).random((nx, nv)) + 1e-3, lx, lv)
    geometry = dict(Lx=lx, Lv=lv, nx=nx, nv=nv, cfl_safety=cfl_safety, splitting=splitting)
    dt = dt_fraction * cfl_safety * cfl_bound(grid, params)
    assume(dt > 0.0)
    cfg = GridConfig(dt=dt, **geometry)
    single = outcome(lambda: chained(vfp_step, grid, params, cfg, n_steps))
    assert outcome(lambda: vfp_step(grid, params, cfg, n_steps)) == single
    if n_steps == 1 or isinstance(single[0], bytes):   # one step within the budget never fails
        assert outcome(lambda: chained(strided_grid, grid, params, cfg, n_steps)) == single


@pytest.mark.parametrize("splitting, seed", [("lie", 21), ("strang", 221)])
def test_flat_sweeps_match_the_strided_step_through_the_clamp(splitting, seed):
    # half the cells empty, dt at the Fokker-Planck substep's limit, so one substep (m = 1):
    # a cell ends at -1e-17 and is clamped
    rng = np.random.default_rng(seed)
    grid = unit_mass_grid(rng.random((9, 10)) * (rng.random((9, 10)) < 0.5), 2.0, 2.0)
    params = ModelParams(gamma=1.0, lam=0.0, kernel=builtin_kernel("zero"))
    cfg = GridConfig(Lx=2.0, Lv=2.0, nx=9, nv=10, cfl_safety=1.0, splitting=splitting,
                     dt=fokker_planck_limit(grid) / params.gamma)
    expected, clamped = strided_step(grid, params, cfg)
    assert clamped
    assert vfp_step(grid, params, cfg).data.tobytes() == expected.tobytes()
    five = outcome(lambda: chained(strided_grid, grid, params, cfg, 5))
    assert outcome(lambda: vfp_step(grid, params, cfg, 5)) == five
    assert outcome(lambda: chained(vfp_step, grid, params, cfg, 5)) == five


def test_a_cfl_failure_inside_one_call_matches_the_chained_steps():
    # the bound reads only the geometry, so a dt above it fails before the first step
    params = quad_params(lam=1.0, a=0.5, b=1.0)
    bound = 0.5 * cfl_bound(default_grid_config(nx=64, nv=64), params)
    cfg = default_grid_config(nx=64, nv=64, dt=1.01 * bound)
    grid = gaussian_grid(cfg, [1.0, 0.0], np.eye(2))
    failure = outcome(lambda: chained(vfp_step, grid, params, cfg, 400))
    assert failure == (ConfigurationError,
                       f"dt={cfg.dt:g} violates the CFL bound {bound:g} at t=0")
    assert outcome(lambda: vfp_step(grid, params, cfg, 400)) == failure


@pytest.mark.parametrize("k", [1, 4])
def test_a_nan_force_inside_one_call_matches_the_chained_steps(monkeypatch, k):
    real, calls = vfplab.pde.mean_field_force, []

    def nan_on_call_k(params, x, marginal):
        calls.append(x)
        force = real(params, x, marginal)
        return force * np.nan if len(calls) == k else force

    monkeypatch.setattr(vfplab.pde, "mean_field_force", nan_on_call_k)
    cfg = default_grid_config(nx=24, nv=20, dt=1e-2)
    grid = gaussian_grid(cfg, [0.5, 0.0], np.eye(2))
    failure = outcome(lambda: chained(vfp_step, grid, SINE_BOUNDARY, cfg, 6))
    calls.clear()
    assert outcome(lambda: vfp_step(grid, SINE_BOUNDARY, cfg, 6)) == failure
    assert failure == (ConfigurationError, f"non-finite mean-field force at t={(k - 1) * 0.01:g}")


@pytest.mark.parametrize("n_steps", [0, -1, 2.5, True, "3", None])
def test_n_steps_must_be_a_positive_integer(n_steps):
    cfg = default_grid_config(nx=8, nv=8)
    grid = gaussian_grid(cfg, [0.0, 0.0], np.eye(2))
    with pytest.raises(ConfigurationError, match="n_steps must be an integer >= 1"):
        vfp_step(grid, SINE_BOUNDARY, cfg, n_steps)
    assert vfp_step(grid, SINE_BOUNDARY, cfg, np.int64(2)).t == vfp_step(grid, SINE_BOUNDARY, cfg, 2).t


def test_lie_splitting_also_conserves():
    cfg = default_grid_config(nx=64, nv=64, dt=2e-3, splitting="lie")
    grid = gaussian_grid(cfg, [0.5, 0.0], np.eye(2))
    out = run_vfp(grid, quad_params(lam=0.1), cfg, 0.1)
    assert abs(out[-1].mass() - 1.0) < 1e-12


def test_cfl_violation_is_rejected():
    cfg = default_grid_config(dt=0.5)
    grid = gaussian_grid(cfg, [0.0, 0.0], np.eye(2))
    with pytest.raises(ConfigurationError):
        vfp_step(grid, SINE_BOUNDARY, cfg)


def test_cfl_bound_formula_without_force():
    cfg = default_grid_config(nx=64, nv=64)
    grid = gaussian_grid(cfg, [0.0, 0.0], np.eye(2))
    params = ModelParams(gamma=1.0, lam=0.0, kernel=builtin_kernel("zero"))
    dx = dv = 16.0 / 64.0
    max_speed = np.abs(grid.x_centers).max()  # drift is -x when the force vanishes
    expected = min(dx / 8.0, dv / max_speed)
    assert cfl_bound(grid, params) == pytest.approx(expected)


def test_fokker_planck_substep_keeps_a_wall_spike_nonnegative():
    # a unit mass one cell from v = Lv: at dt = dv^2/2 the explicit substep drove that cell
    # to -0.074; m substeps of dt / m, each within the substep's positivity limit, prevent it
    cfg = default_grid_config(nx=8, nv=128, dt=1.0)
    grid = gaussian_grid(cfg, [0.0, 0.0], np.eye(2))
    params = ModelParams(gamma=1.0, lam=0.0, kernel=builtin_kernel("zero"))
    w = 0.5 * (grid.v_centers[:-1] + grid.v_centers[1:]) * grid.dv
    bp, bm = _bernoulli(w), _bernoulli(-w)

    def after_substeps(dt, m=1):
        data = np.zeros(128)
        data[-2] = 1.0
        for _ in range(m):
            _upwind(data, 1, bp, -bm, [params.gamma / grid.dv, dt / m / grid.dv],
                    *np.empty((2, 127)))
        return data

    assert after_substeps(grid.dv * grid.dv / 2.0).min() < -0.07
    dt = cfl_bound(grid, params)
    kept = after_substeps(dt, math.ceil(dt * params.gamma / fokker_planck_limit(grid)))
    assert kept.min() >= 0.0
    assert abs(kept.sum() - 1.0) < 1e-14


def test_full_safety_step_near_the_velocity_wall_stays_positive():
    # nx=16, nv=64 with the mass concentrated near v = 7 used to raise
    # SchemeError at cfl_safety=1 and dt equal to the CFL bound
    probe = default_grid_config(nx=16, nv=64, dt=1.0, cfl_safety=1.0)
    grid = gaussian_grid(probe, [0.0, 7.0], [[1.0, 0.0], [0.0, 0.01]])
    cfg = default_grid_config(nx=16, nv=64, dt=cfl_bound(grid, SINE_BOUNDARY),
                              cfl_safety=1.0)
    for _ in range(10):
        grid = vfp_step(grid, SINE_BOUNDARY, cfg)
        assert grid.data.min() >= 0.0
        assert abs(grid.mass() - 1.0) < 1e-12


def test_geometry_mismatch_is_rejected():
    cfg_a = default_grid_config(nx=64, nv=64)
    cfg_b = default_grid_config(nx=32, nv=32)
    grid = gaussian_grid(cfg_a, [0.0, 0.0], np.eye(2))
    with pytest.raises(ConfigurationError):
        vfp_step(grid, SINE_BOUNDARY, cfg_b)


def test_velocity_operator_annihilates_the_maxwellian():
    # the drift-diffusion flux is exactly zero on the grid Maxwellian
    nv, Lv = 96, 8.0
    dv = 2.0 * Lv / nv
    vc = -Lv + (np.arange(nv) + 0.5) * dv
    data = np.exp(-vc ** 2 / 2.0)
    v_edges = 0.5 * (vc[:-1] + vc[1:])
    w = v_edges * dv
    before = data.copy()
    _upwind(data, 1, _bernoulli(w), -_bernoulli(-w), [1.0 / dv, 1e-2 / dv], *np.empty((2, nv - 1)))
    assert np.abs(data - before).max() < 1e-15 * before.max()


def test_bernoulli_function_series_and_direct_agree():
    w = np.array([-2.0, -1e-4, -1e-9, 0.0, 1e-9, 1e-4, 2.0])
    out = _bernoulli(w)
    assert out[3] == 1.0
    ref = w[0] / np.expm1(w[0])
    assert abs(out[0] - ref) < 1e-14
    # smooth across the series switch
    fine = _bernoulli(np.linspace(-2e-5, 2e-5, 101))
    assert np.abs(np.diff(fine)).max() < 1e-5


def test_the_sweep_coefficients_of_one_geometry_stay_cached():
    vfplab.pde._weights.cache_clear()
    for n in (16, 24, 32):
        cfg = default_grid_config(nx=n, nv=n, dt=1e-3)
        vfp_step(gaussian_grid(cfg, [0.0, 0.0], np.eye(2)), quad_params(), cfg)
    assert vfplab.pde._weights.cache_info().currsize == 1


def test_run_vfp_takes_each_snapshot_from_one_call_over_its_interval(monkeypatch):
    # 10 steps sampled every 3: intervals of 3, 3, 3 and a short last one of 1
    cfg = default_grid_config(nx=32, nv=24, dt=1e-2)
    grid = gaussian_grid(cfg, [0.5, 0.2], np.eye(2))
    steps = [grid]
    for _ in range(10):
        steps.append(vfp_step(steps[-1], SINE_BOUNDARY, cfg))
    real, calls = vfplab.pde.vfp_step, []

    def counting(grid, params, cfg, n_steps=1):
        calls.append(n_steps)
        return real(grid, params, cfg, n_steps)

    monkeypatch.setattr(vfplab.pde, "vfp_step", counting)
    snaps = run_vfp(grid, SINE_BOUNDARY, cfg, 0.1, sample_dt=0.03)
    assert calls == [3, 3, 3, 1]
    assert ([(s.data.tobytes(), s.t) for s in snaps]
            == [(steps[k].data.tobytes(), steps[k].t) for k in (0, 3, 6, 9, 10)])


def test_run_vfp_returns_one_row_per_snapshot_and_keeps_no_snapshot():
    cfg = default_grid_config(nx=32, nv=32, dt=1e-2)
    grid = gaussian_grid(cfg, [0.5, 0.0], np.eye(2))
    refs = []

    def row(snap):
        refs.append(weakref.ref(snap))
        assert sum(ref() is not None for ref in refs) <= 2   # the caller's initial grid and snap
        return snap.t, snap.data.sum()

    rows = run_vfp(grid, quad_params(lam=0.0), cfg, 0.1, sample_dt=0.03, row=row)
    snaps = run_vfp(grid, quad_params(lam=0.0), cfg, 0.1, sample_dt=0.03)
    assert rows == [(s.t, s.data.sum()) for s in snaps]
    assert [ref() is None for ref in refs] == [False, True, True, True, True]


def test_run_vfp_snapshot_cadence():
    cfg = default_grid_config(nx=32, nv=32, dt=1e-2)
    grid = gaussian_grid(cfg, [0.0, 0.0], np.eye(2))
    snaps = run_vfp(grid, quad_params(lam=0.0), cfg, 0.1, sample_dt=0.03)
    assert [round(s.t / cfg.dt) for s in snaps] == [0, 3, 6, 9, 10]
    for sample_dt in (0.0, -0.03):
        with pytest.raises(ConfigurationError):
            run_vfp(grid, quad_params(lam=0.0), cfg, 0.1, sample_dt=sample_dt)


# ----------------------------------------------------------------- moments --

def test_first_moments_track_the_closed_form_flow():
    params = quad_params(lam=1.0, a=0.5, b=1.0)
    g0 = GaussianState(mean=[1.0, 0.0], cov=np.eye(2))
    cfg = default_grid_config()
    snaps = run_vfp(gaussian_grid(cfg, g0.mean, g0.cov), params, cfg, 1.0,
                    sample_dt=0.25)
    times = np.array([s.t for s in snaps])
    oracle = moment_flow(g0, params, times)
    for snap, ref in zip(snaps, oracle):
        w = snap.data * snap.cell_area()
        mx = float(snap.x_centers @ w.sum(axis=1))
        mv = float(snap.v_centers @ w.sum(axis=0))
        assert abs(mx - ref.mean[0]) < 2e-3
        assert abs(mv - ref.mean[1]) < 2e-3
        # covariances carry the first-order transport error
        sxx = float((snap.x_centers - mx) ** 2 @ w.sum(axis=1))
        svv = float((snap.v_centers - mv) ** 2 @ w.sum(axis=0))
        assert abs(sxx - ref.cov[0, 0]) < 0.3
        assert abs(svv - ref.cov[1, 1]) < 0.3


def grid_moments(snap):
    """A snapshot's time and its mean and covariance entries (x, v, xx, xv, vv)."""
    w = snap.data * snap.cell_area()
    x, v = snap.x_centers[:, None], snap.v_centers[None, :]
    mx, mv = float((w * x).sum()), float((w * v).sum())
    dx, dv = x - mx, v - mv
    return snap.t, [mx, mv, (w * dx * dx).sum(), (w * dx * dv).sum(), (w * dv * dv).sum()]


@settings(max_examples=30, deadline=None)
@given(gamma=st.floats(0.5, 2.0), lam=st.floats(0.0, 1.0), a=st.floats(-0.2, 1.0),
       b=st.floats(-1.0, 1.0), mean=st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)))
def test_the_grid_converges_at_first_order_to_the_exact_gaussian_flow(gamma, lam, a, b, mean):
    # a quadratic_linear kernel keeps a Gaussian start Gaussian, and moment_flow gives its
    # mean and covariance exactly; each halving of the cell must divide the error by 1.8
    params = ModelParams(gamma=gamma, lam=lam, kernel=builtin_kernel(
        {"type": "quadratic_linear", "a": a, "b": b}))
    g0 = GaussianState(mean=list(mean), cov=np.eye(2))
    errors = []
    for n in (24, 48, 96):
        grid = gaussian_grid(GridConfig(Lx=7.0, Lv=7.0, nx=n, nv=n), g0.mean, g0.cov)
        cfg = GridConfig(Lx=7.0, Lv=7.0, nx=n, nv=n, dt=0.9 * 0.5 * cfl_bound(grid, params))
        times, moments = zip(*run_vfp(grid, params, cfg, 1.0, 0.5, grid_moments))
        exact = [[*s.mean, s.cov[0, 0], s.cov[0, 1], s.cov[1, 1]]
                 for s in moment_flow(g0, params, np.array(times))]
        errors.append(np.abs(np.subtract(moments, exact)).max())
    assert errors[0] >= 1.8 * errors[1] and errors[1] >= 1.8 * errors[2], errors


# ------------------------------------------------------------- equilibria ---

def test_stationary_point_without_interaction_is_the_maxwellian():
    params = ModelParams(gamma=1.0, lam=0.0, kernel=builtin_kernel("zero"))
    cfg = default_grid_config(nx=64, nv=64)
    fstar = stationary_fixed_point(params, cfg)
    ref = grid_from_density(cfg, lambda x, v: np.exp(-(x ** 2 + v ** 2) / 2.0))
    assert l1_distance(fstar, ref) < 1e-12


def test_quadratic_stationary_marginal_matches_the_self_consistent_gaussian():
    params = quad_params(lam=0.0625, a=1.0, b=1.0)
    cfg = default_grid_config()
    fstar = stationary_fixed_point(params, cfg)
    xc, w = x_marginal(fstar)
    mean = float(xc @ w)
    var = float((xc - mean) ** 2 @ w)
    # the fixed-point algebra holds exactly in grid quadrature
    assert abs(mean - (-0.0625)) < 1e-8
    assert abs(var - 1.0 / 1.125) < 1e-8


def test_sine_stationary_point_is_its_own_local_equilibrium():
    cfg = default_grid_config()
    fstar = stationary_fixed_point(SINE_BOUNDARY, cfg)
    attached = np.exp(np.add.outer(*local_equilibrium(fstar, SINE_BOUNDARY)))
    err = np.abs(fstar.data - attached).sum() * fstar.cell_area()
    assert err < 1e-9


def test_stationary_solver_reports_non_convergence():
    cfg = default_grid_config()
    with pytest.raises(NonConvergenceError) as info:
        stationary_fixed_point(SINE_BOUNDARY, cfg, max_iter=1)
    assert info.value.residual > 0.0
    assert info.value.iterations == 1
    for tol in (0.0, -1.0):
        with pytest.raises(ConfigurationError):
            stationary_fixed_point(SINE_BOUNDARY, cfg, tol=tol)


def test_stationary_drift_is_grid_limited_and_first_order():
    # evolving the discrete fixed point drifts by O(dx): measured levels with
    # margin, plus the refinement ratio that certifies the order
    drift = {}
    for nx, dt in ((64, 4e-3), (128, 2e-3)):
        cfg = default_grid_config(nx=nx, nv=nx, dt=dt)
        fstar = stationary_fixed_point(SINE_BOUNDARY, cfg)
        snaps = run_vfp(fstar, SINE_BOUNDARY, cfg, 1.0, sample_dt=0.5)
        drift[nx] = max(l1_distance(s, fstar) for s in snaps)
    assert drift[64] < 0.13
    assert drift[128] < 0.065
    assert drift[64] / drift[128] > 1.8


# -------------------------------------------------------------------- io ----

def test_grid_csv_and_binary_round_trip(tmp_path):
    cfg = default_grid_config(nx=16, nv=8, dt=1e-2)
    grid = gaussian_grid(cfg, [0.3, -0.2], np.eye(2), t=1.25)
    csv_path = tmp_path / "state.csv"
    grid_to_csv(grid, str(csv_path))
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "x,v,f"
    assert len(lines) == 1 + 16 * 8

    grid_to_binary(grid, str(tmp_path / "state"))
    header = json.loads((tmp_path / "state.json").read_text())
    assert header["nx"] == 16 and header["nv"] == 8
    assert header["t"] == 1.25
    assert header["dtype"] == "float64" and header["order"] == "C"
    raw = np.fromfile(tmp_path / "state.bin", dtype=np.float64).reshape(16, 8)
    assert np.array_equal(raw, grid.data)
