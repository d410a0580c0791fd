"""Finite-volume solver for the kinetic mean-field equation on a phase-space box.

d_t f + v d_x f + (F_f(x) - x) d_v f = gamma d_v(v f + d_v f),
F_f(x) = -lam * int dK/dx(x - y) f(y, w) dy dw,
on [-Lx, Lx] x [-Lv, Lv] with zero-flux walls.  Transport and force advection use
first-order conservative upwinding; the velocity Fokker-Planck operator uses exponentially
fitted interface weights that annihilate the grid Maxwellian exactly.  The force is frozen
at each step's start; dt is bounded by the geometry and model alone, for every state.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ConfigurationError, NonConvergenceError, SchemeError
from .model import ModelParams, kernel_sum, mean_field_force, smallness_holds, step_count
from .output import write_csv, write_json

Array = np.ndarray

__all__ = [
    "GridConfig",
    "PhaseGrid",
    "gaussian_grid",
    "grid_from_density",
    "x_marginal",
    "cfl_bound",
    "vfp_step",
    "run_vfp",
    "stationary_fixed_point",
    "grid_to_csv",
    "grid_to_binary",
]

SPLITTINGS = ("lie", "strang")


@dataclass(frozen=True)
class GridConfig:
    """Phase-space box, resolution, time step, and splitting order."""

    Lx: float = 8.0
    Lv: float = 8.0
    nx: int = 128
    nv: int = 128
    dt: float = 1e-3
    cfl_safety: float = 0.5
    splitting: str = "strang"

    def __post_init__(self):
        if not (self.Lx > 0 and self.Lv > 0):
            raise ConfigurationError("Lx and Lv must be positive")
        if self.nx < 4 or self.nv < 4:
            raise ConfigurationError("nx and nv must be at least 4")
        if not (self.dt > 0 and math.isfinite(self.dt)):
            raise ConfigurationError(f"dt must be positive and finite, got {self.dt}")
        if not (0 < self.cfl_safety <= 1):
            raise ConfigurationError("cfl_safety must lie in (0, 1]")
        if self.splitting not in SPLITTINGS:
            raise ConfigurationError(f"splitting must be one of {SPLITTINGS}")


@dataclass
class PhaseGrid:
    """Cell-averaged density on a uniform phase-space grid; data[i, j] ~ f(x_i, v_j)."""

    Lx: float
    Lv: float
    nx: int
    nv: int
    data: Array
    t: float = 0.0

    def __post_init__(self):
        self.data = np.asarray(self.data, dtype=float)
        if self.data.shape != (self.nx, self.nv):
            raise ValueError(f"data must have shape ({self.nx}, {self.nv})")
        _check_density(self.data, self.dx, self.dv, self.t, self.data.min())

    @property
    def dx(self) -> float:
        return 2.0 * self.Lx / self.nx

    @property
    def dv(self) -> float:
        return 2.0 * self.Lv / self.nv

    @property
    def x_centers(self) -> Array:
        return -self.Lx + (np.arange(self.nx) + 0.5) * self.dx

    @property
    def v_centers(self) -> Array:
        return -self.Lv + (np.arange(self.nv) + 0.5) * self.dv

    def mass(self) -> float:
        return float(self.data.sum() * self.dx * self.dv)

    def cell_area(self) -> float:
        return self.dx * self.dv


def _check_density(data: Array, dx: float, dv: float, t: float, lowest: float) -> None:
    """PhaseGrid's density check: finite, >= 0 (``lowest`` is the min), unit mass within 1e-10."""
    mass = float(data.sum() * dx * dv)
    if not (lowest >= 0.0 and abs(mass - 1.0) <= 1e-10):
        if not np.isfinite(data).all():
            raise SchemeError(f"non-finite grid density at t={t:g}")
        if lowest < 0.0:
            raise SchemeError(f"negative grid density at t={t:g}")
        raise ValueError(f"grid mass must be 1 within 1e-10, got {mass!r}")


def grid_from_density(cfg: GridConfig, density, t: float = 0.0) -> PhaseGrid:
    """Sample ``density(x, v)`` at cell centers and normalize to unit mass."""
    x = -cfg.Lx + (np.arange(cfg.nx) + 0.5) * (2.0 * cfg.Lx / cfg.nx)
    v = -cfg.Lv + (np.arange(cfg.nv) + 0.5) * (2.0 * cfg.Lv / cfg.nv)
    data = np.asarray(density(x[:, None], v[None, :]), dtype=float)
    data = np.maximum(data, 0.0)
    total = data.sum() * (2.0 * cfg.Lx / cfg.nx) * (2.0 * cfg.Lv / cfg.nv)
    if not total > 0:
        raise ConfigurationError("density must have positive mass on the grid")
    return PhaseGrid(Lx=cfg.Lx, Lv=cfg.Lv, nx=cfg.nx, nv=cfg.nv, data=data / total, t=t)


def gaussian_grid(cfg: GridConfig, mean, cov, t: float = 0.0) -> PhaseGrid:
    """Grid representation of a phase-space Gaussian."""
    mean = np.asarray(mean, dtype=float)
    cov = np.asarray(cov, dtype=float)
    c = cov[0, 1] * cov[1, 0]   # the precision by Schur complements: a diagonal's is 1 / cov
    p00, p11 = 1.0 / (cov[0, 0] - c / cov[1, 1]), 1.0 / (cov[1, 1] - c / cov[0, 0])
    p01 = -cov[0, 1] * p00 / cov[1, 1]

    def density(x, v):
        cx = x - mean[0]
        cv = v - mean[1]
        q = p00 * cx * cx + 2.0 * p01 * cx * cv + p11 * cv * cv
        return np.exp(-0.5 * q)

    return grid_from_density(cfg, density, t=t)


def x_marginal(grid: PhaseGrid) -> tuple[Array, Array]:
    """Position marginal as weighted samples (cell centers, cell masses)."""
    weights = grid.data.sum(axis=1) * grid.dx * grid.dv
    return grid.x_centers, weights


def _bernoulli(w: Array) -> Array:
    """B(w) = w / (e^w - 1), series-expanded near 0."""
    w = np.asarray(w, dtype=float)
    out = np.empty_like(w)
    small = np.abs(w) < 1e-5
    ws = w[small]
    out[small] = 1.0 - 0.5 * ws + ws * ws / 12.0
    wl = w[~small]
    out[~small] = wl / np.expm1(wl)
    return out


@functools.lru_cache(maxsize=1)   # a run steps one geometry
def _weights(Lv: float, nx: int, nv: int) -> tuple[Array, Array, Array, Array, float]:
    """Read-only flat-array coefficients: x speeds >= 0 and <= 0 of the first nx - 1 rows;
    B(w), -B(-w) per cell but the last, 0 at row ends; and gamma times the largest dt keeping
    the Fokker-Planck substep positive, dv^2 / max_j (B(w_j) + B(-w_{j-1}))."""
    dv = 2.0 * Lv / nv
    vc = -Lv + (np.arange(nv) + 0.5) * dv
    w = 0.5 * (vc[:-1] + vc[1:]) * dv
    bp, bm = _bernoulli(w), _bernoulli(-w)
    out = (np.tile(np.where(vc > 0.0, vc, 0.0), nx - 1),
           np.tile(np.where(vc < 0.0, vc, 0.0), nx - 1),
           np.tile(np.append(bp, 0.0), nx)[:-1], np.tile(np.append(-bm, 0.0), nx)[:-1])
    for a in out:
        a.flags.writeable = False
    return (*out, dv * dv / float((np.append(bp, 0.0) + np.append(0.0, bm)).max()))


def _aligned(shape: tuple) -> Array:
    """An uninitialised float64 array on a 64-byte cache line.  numpy starts a large one 16 or 48
    bytes past a line, where a ufunc's vector stores split and run up to twice as slow."""
    buf = np.empty(math.prod(shape) + 8)   # a float64 array starts on an 8-byte boundary
    return buf[-buf.ctypes.data % 64 // 8:][:buf.size - 8].reshape(shape)


def cfl_bound(grid, params: ModelParams) -> float:
    """Largest stable transport dt (before the safety factor) for every density on the geometry
    of ``grid`` (anything with Lx, Lv, nx, nv): min(dx/Lv, dv/S).  S = (Lx - dx/2) + lam max_k
    |K'(k dx)|, k = -(nx-1)..nx-1, bounds each v speed, an x-marginal mean of x_i + lam K'."""
    dx, dv = 2.0 * grid.Lx / grid.nx, 2.0 * grid.Lv / grid.nv
    gaps = np.arange(1 - grid.nx, grid.nx) * dx
    speed = grid.Lx - 0.5 * dx + params.lam * float(np.abs(params.kernel.d1(gaps)).max())
    return min(dv / speed, dx / grid.Lv)   # dv / speed first, so a nan speed stays nan


def _upwind(f: Array, k: int, lo: Array, hi: Array, scales: list, flux: Array, tmp: Array) -> None:
    """Conservative upwind update of the flat array ``f`` between each cell and the one ``k``
    on: the flux (lo left + hi right) times each of ``scales`` in turn leaves left and enters
    right, with lo >= 0 and hi <= 0.  ``flux`` and ``tmp`` are scratch of f.size - 1 or more."""
    left, right = f[:-k], f[k:]
    flux, tmp = flux[:left.size], tmp[:left.size]
    np.multiply(lo, left, out=flux)
    np.multiply(hi, right, out=tmp)
    flux += tmp
    for c in scales:
        flux *= c
    left -= flux
    right += flux


def vfp_step(grid: PhaseGrid, params: ModelParams, cfg: GridConfig,
             n_steps: int = 1) -> PhaseGrid:
    """Advance the density by ``n_steps`` steps of the configured splitting, in place on one
    copy of ``grid.data``: the force is frozen at the start of each step, and the Fokker-Planck
    substep runs m = ceil(dt / (cfl_safety * its positivity limit)) times at dt / m.  Raises a
    configuration error before the first step if dt exceeds cfl_safety * cfl_bound, and at a
    step with a non-finite force; a scheme error if positivity degrades beyond clamping.  An
    error's ``t`` is that of the failing step."""
    if isinstance(n_steps, bool) or not isinstance(n_steps, (int, np.integer)) or n_steps < 1:
        raise ConfigurationError(f"n_steps must be an integer >= 1, got {n_steps!r}")
    if (grid.nx, grid.nv) != (cfg.nx, cfg.nv) or (grid.Lx, grid.Lv) != (cfg.Lx, cfg.Lv):
        raise ConfigurationError("grid geometry does not match the configuration")
    xc, dx, dv, nv = grid.x_centers, grid.dx, grid.dv, grid.nv
    vp, vm, bp, bm, diffusive = _weights(grid.Lv, grid.nx, nv)
    bound, dt = cfg.cfl_safety * cfl_bound(grid, params), cfg.dt
    if not dt <= bound * (1.0 + 1e-9):   # a nan bound fails too
        raise ConfigurationError(f"dt={dt:g} violates the CFL bound {bound:g} at t={grid.t:g}")
    m = max(1, math.ceil(dt * params.gamma / (cfg.cfl_safety * diffusive * (1.0 + 1e-9))))
    h = dt if cfg.splitting == "lie" else 0.5 * dt   # Lie: Strang's first three substeps
    work = _aligned((4, grid.nx, nv))   # v speeds >= 0, <= 0, two flux buffers: one allocation
    work[:2, :, -1] = 0.0   # no v flux across a row end of the flat array
    sp, sm, *scratch = work.reshape(4, -1)[:, :-1]
    # Fokker-Planck m times: (gamma/dv) (B(w) f_j - B(-w) f_j+1), then dt/m/dv (dt/dv at m = 1)
    sweeps = [((nv, vp, vm, [h / dx]), 1), ((1, sp, sm, [h / dv]), 1),
              ((1, bp, bm, [params.gamma / dv, dt / m / dv]), m)]
    sweeps += sweeps[1::-1] if cfg.splitting == "strang" else []   # then v and x again
    data = _aligned((grid.nx, nv))   # the sweeps write into it: aligned like work
    np.copyto(data, grid.data)
    f, t = data.reshape(-1), grid.t
    for step in range(n_steps):
        speed = mean_field_force(params, xc, (xc, data.sum(axis=1) * dx * dv)) - xc
        if not np.isfinite(speed).all():
            raise ConfigurationError(f"non-finite mean-field force at t={t:g}")
        work[:2, :, :-1] = np.where([speed > 0.0, speed < 0.0], speed, 0.0)[:, :, None]
        for sweep, repeats in sweeps:
            for _ in range(repeats):
                _upwind(f, *sweep, *scratch)
        lowest = data.min()
        if lowest < -1e-13:
            raise SchemeError(f"negative cell {lowest:g} beyond clamp tolerance at t={t:g}")
        if lowest < 0.0:
            np.clip(data, 0.0, None, out=data)
            total = data.sum() * dx * dv
            if abs(total - 1.0) > 1e-12:
                raise SchemeError(f"clamping changed the mass by {total - 1.0:g}")
            data /= total
        t = t + dt
        if step + 1 < n_steps:   # PhaseGrid's check; the returned grid checks the last step
            _check_density(data, dx, dv, t, max(lowest, 0.0))   # clamped: 0; nan stays nan
    return PhaseGrid(Lx=grid.Lx, Lv=grid.Lv, nx=grid.nx, nv=nv, data=data, t=t)


def run_vfp(grid: PhaseGrid, params: ModelParams, cfg: GridConfig, horizon: float,
            sample_dt: Optional[float] = None, row=lambda snap: snap) -> list:
    """Step to the horizon in one ``vfp_step`` call per ``sample_dt`` (default 10 dt), returning
    ``row(snapshot)`` for each snapshot, the initial state first; no snapshot outlives its row."""
    n_steps = step_count(horizon, cfg.dt, "horizon")
    every = step_count(10.0 * cfg.dt if sample_dt is None else sample_dt, cfg.dt, "sample_dt")
    rows = [row(grid)]
    for done in range(0, n_steps, every):
        grid = vfp_step(grid, params, cfg, min(every, n_steps - done))
        rows.append(row(grid))
    return rows


def stationary_fixed_point(params: ModelParams, cfg: GridConfig, tol: float = 1e-10,
                           max_iter: int = 10000) -> PhaseGrid:
    """Self-consistent steady state by damped fixed-point iteration.

    Iterates rho <- (rho + Normalize(exp(-x^2/2 - lam K*rho))) / 2
    on the position marginal, then attaches the Maxwellian velocity profile.
    """
    if not smallness_holds(params):
        warnings.warn("smallness condition violated: the fixed point may not be unique",
                      stacklevel=2)
    if not tol > 0:
        raise ConfigurationError("tol must be positive")
    dx = 2.0 * cfg.Lx / cfg.nx
    x = -cfg.Lx + (np.arange(cfg.nx) + 0.5) * dx
    base = -0.5 * x * x

    rho = np.exp(base)
    rho /= rho.sum() * dx
    residual = math.inf
    for _ in range(int(max_iter)):
        conv = kernel_sum(params.kernel, x, x, rho) * dx
        target = np.exp(base - params.lam * conv)
        target /= target.sum() * dx
        new = 0.5 * rho + 0.5 * target
        residual = float(np.abs(new - rho).sum() * dx)
        rho = new
        if residual < tol:
            break
    else:
        raise NonConvergenceError(
            f"fixed point not reached after {max_iter} iterations (residual {residual:g})",
            residual=residual, iterations=int(max_iter))
    return grid_from_density(cfg, lambda _, v: rho[:, None] * np.exp(-0.5 * v * v))


def grid_to_csv(grid: PhaseGrid, path: str) -> None:
    """Write one (x, v, f) row per cell."""
    xc, vc = grid.x_centers, grid.v_centers
    rows = ((float(xc[i]), float(vc[j]), float(grid.data[i, j]))
            for i in range(grid.nx) for j in range(grid.nv))
    write_csv(path, ["x", "v", "f"], rows)


def grid_to_binary(grid: PhaseGrid, prefix: str) -> None:
    """Write raw row-major float64 data plus a JSON header describing it."""
    write_json(prefix + ".json", {
        "Lx": grid.Lx, "Lv": grid.Lv, "nx": grid.nx, "nv": grid.nv,
        "t": grid.t, "dtype": "float64", "order": "C",
    })
    with open(prefix + ".bin", "wb") as fh:
        fh.write(np.ascontiguousarray(grid.data).tobytes())
