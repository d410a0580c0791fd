"""Entropies, free energies, twisted Fisher information, and Wasserstein distances.

All grid quadratures are midpoint sums over cells; logarithms mask cells with
density below 1e-14 so tails cannot poison the integrals.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ConfigurationError, NonConvergenceError
from .model import ModelParams, kernel_sum
from .pde import PhaseGrid, _aligned, x_marginal

Array = np.ndarray

MASK = 1e-14
MAX_ASSIGNMENT = 4096
W2_EPS = 0.5     # w2_grid's blur, raised on large boxes
W2_TOL = 1e-10   # w2_grid's stopping gap of each Sinkhorn dual
# Sizes up to which an OpenBLAS matrix product (multiply-adds) and dot product (terms) stay on
# the calling thread.  w2_grid keeps to them: at 128^2 a second thread saves it no time, a dot
# split over threads rounds by the host's core count, and after each threaded call OpenBLAS's
# idle workers spin for about 0.13 s, burning a core through the grid steps between snapshots.
SERIAL_GEMM, SERIAL_DOT = 2 ** 18, 10_000

__all__ = [
    "MASK",
    "entropy",
    "classical_free_energy",
    "quadratic_free_energy",
    "local_equilibrium",
    "fisher_information",
    "relative_entropy",
    "l1_distance",
    "w2_empirical",
    "sample_from_grid",
    "w2_grid",
]


def entropy(grid: PhaseGrid) -> float:
    """int f ln f over the grid (negative differential entropy)."""
    f = grid.data[grid.data >= MASK]
    return float(np.sum(f * np.log(f)) * grid.cell_area())


def classical_free_energy(grid: PhaseGrid, params: ModelParams) -> float:
    """Entropy + quadratic confinement energy + interaction energy.

    The interaction energy is (lam/2) * the double integral of K(x - y) against the position
    marginal: the 1/2 makes the total non-increasing along the flow for even kernels, and
    the double integral only sees the even part of K either way.
    """
    xc, vc = grid.x_centers, grid.v_centers
    _, w = x_marginal(grid)
    w_v = grid.data.sum(axis=0) * grid.cell_area()
    conf = 0.5 * float((xc * xc) @ w + (vc * vc) @ w_v)
    interaction = 0.5 * params.lam * float(w @ kernel_sum(params.kernel, xc, xc, w))
    return entropy(grid) + conf + interaction


def quadratic_free_energy(grid: PhaseGrid, params: ModelParams) -> float:
    """Mean-field free energy of a grid state for the quadratic kernel a z^2 + b z.

    The classical free energy (whose interaction part is lam*a*var_x) plus lam*b*mean_x:
    the grid analogue of the Gaussian closed form; decays along the flow for any a, b.
    """
    if params.kernel.kind != "quadratic_linear":
        raise ConfigurationError(
            f"quadratic free energy needs the quadratic_linear kernel, got {params.kernel.name}")
    xc, w = x_marginal(grid)
    b = params.kernel.coeffs[1]
    return classical_free_energy(grid, params) + params.lam * b * float(xc @ w)


def local_equilibrium(grid: PhaseGrid, params: ModelParams) -> tuple[Array, Array]:
    """Local Gibbs state exp(-x^2/2 - lam K*f - v^2/2)/Z attached to the current density, as
    its two 1-D log densities of unit mass on their own axes: ln f_hat = log_x[i] + log_v[j]."""
    xc, vc = grid.x_centers, grid.v_centers
    _, w = x_marginal(grid)
    log_x = -0.5 * xc * xc - params.lam * kernel_sum(params.kernel, xc, xc, w)
    log_v = -0.5 * vc * vc
    return (log_x - math.log(float(np.exp(log_x).sum()) * grid.dx),
            log_v - math.log(float(np.exp(log_v).sum()) * grid.dv))


def fisher_information(grid: PhaseGrid, params: ModelParams, A: Array) -> float:
    """int |A grad ln(f / f_hat)|^2 f with centered differences on interior cells.

    Cells participate only when they and their four neighbours carry density
    above the mask, so the log-ratio gradient is always well defined.  ln f_hat
    enters through the 1-D differences of its two profiles.
    """
    A = np.asarray(A, dtype=float)
    if A.shape != (2, 2):
        raise ValueError("A must be a 2x2 matrix")
    f = grid.data
    log_x, log_v = local_equilibrium(grid, params)
    valid = f >= MASK
    log_f = np.log(np.maximum(f, MASK))   # finite on masked cells, which get weight 0 below

    ok = (valid[1:-1, 1:-1] & valid[2:, 1:-1] & valid[:-2, 1:-1]
          & valid[1:-1, 2:] & valid[1:-1, :-2])
    gx = (log_f[2:, 1:-1] - log_f[:-2, 1:-1] - (log_x[2:] - log_x[:-2])[:, None]) / (2.0 * grid.dx)
    gv = (log_f[1:-1, 2:] - log_f[1:-1, :-2] - (log_v[2:] - log_v[:-2])) / (2.0 * grid.dv)
    g1 = A[0, 0] * gx + A[0, 1] * gv
    g2 = A[1, 0] * gx + A[1, 1] * gv
    weight = np.where(ok, f[1:-1, 1:-1], 0.0)
    return float(np.sum((g1 * g1 + g2 * g2) * weight) * grid.cell_area())


def _same_geometry(grid_f: PhaseGrid, grid_g: PhaseGrid) -> None:
    if (grid_f.Lx, grid_f.Lv, grid_f.nx, grid_f.nv) != (grid_g.Lx, grid_g.Lv, grid_g.nx, grid_g.nv):
        raise ValueError("grids must share a common geometry (Lx, Lv, nx, nv)")


def relative_entropy(grid_f: PhaseGrid, grid_g: PhaseGrid) -> float:
    """int f ln(f/g); requires g to be strictly positive on the masked support of f.

    Cells with f below the mask are dropped; g merely small there is fine,
    but g underflowing to zero where f has mass is a genuine support violation.
    """
    _same_geometry(grid_f, grid_g)
    m = grid_f.data >= MASK
    f, g = grid_f.data[m], grid_g.data[m]
    if np.any(g <= 0.0):
        raise ValueError("support violation: g vanishes where f has mass")
    return float(np.sum(f * (np.log(f) - np.log(g))) * grid_f.cell_area())


def l1_distance(grid_f: PhaseGrid, grid_g: PhaseGrid) -> float:
    """L1 distance between two grid densities on the same geometry."""
    _same_geometry(grid_f, grid_g)
    return float(np.abs(grid_f.data - grid_g.data).sum() * grid_f.cell_area())


def w2_empirical(cloud_a: Array, cloud_b: Array) -> float:
    """Quadratic Wasserstein distance between equal-size point clouds.

    Solves the exact assignment problem on the squared-distance matrix;
    capped at 4096 points to keep the dense cost matrix at desk scale.
    """
    from scipy.optimize import linear_sum_assignment   # vfplab's only use of scipy
    from scipy.spatial.distance import cdist
    a = np.asarray(cloud_a, dtype=float)
    b = np.asarray(cloud_b, dtype=float)
    if a.ndim != 2 or a.shape[1] != 2 or a.shape != b.shape:
        raise ValueError("clouds must be (n, 2) arrays of equal shape")
    n = a.shape[0]
    if n == 0 or n > MAX_ASSIGNMENT:
        raise ValueError(f"cloud size must lie in [1, {MAX_ASSIGNMENT}], got {n}")
    # Centring adds |mean_a - mean_b|^2 to every assignment's cost alike, and speeds the solver.
    mean_a, mean_b = a.mean(axis=0), b.mean(axis=0)
    cost = cdist(a - mean_a, b - mean_b, "sqeuclidean")
    rows, cols = linear_sum_assignment(cost)
    return math.sqrt(max(float(cost[rows, cols].mean() + np.sum((mean_a - mean_b) ** 2)), 0.0))


def sample_from_grid(grid: PhaseGrid, n: int, seed: int) -> Array:
    """Inverse-CDF samples from the cell masses with uniform within-cell jitter."""
    rng = np.random.default_rng(seed)
    p = grid.data.reshape(-1) * grid.cell_area()
    cdf = np.cumsum(p)
    cdf /= cdf[-1]
    flat = np.searchsorted(cdf, rng.random(n), side="right")
    i, j = np.unravel_index(np.minimum(flat, grid.nx * grid.nv - 1), (grid.nx, grid.nv))
    x = grid.x_centers[i] + (rng.random(n) - 0.5) * grid.dx
    v = grid.v_centers[j] + (rng.random(n) - 0.5) * grid.dv
    return np.column_stack([x, v])


def _serial_matmul(a: Array, b: Array) -> Array:
    """``a @ b`` in blocks of rows of ``a`` of at most SERIAL_GEMM multiply-adds each (a row
    at least); an entry may round differently from one call, by an ulp or so."""
    rows = max(1, SERIAL_GEMM // (a.shape[1] * b.shape[1]))
    return np.concatenate([a[i:i + rows] @ b for i in range(0, a.shape[0], rows)])


def w2_grid(grid_f: PhaseGrid, grid_g: PhaseGrid) -> float:
    """W2 between grid densities as the root of a debiased Sinkhorn divergence; deterministic.

    S = OT_e(f, g) - OT_e(f, f)/2 - OT_e(g, g)/2 on the cell masses (cells below MASK empty),
    blur e = max(W2_EPS, d^2/700, h^2/4) with d the longer span of cell centres, so no entry of
    the Gibbs kernel Kx (x) Kv underflows (Feydy et al. 2019), and h the wider cell, since a
    blur below the cell width slows Sinkhorn to O(1/steps) on coarse grids.  S has no O(e)
    bias: at e = 0.5 it is within 5e-3 of exact for unit-scale Gaussians at 128^2 on
    [-6, 6]^2; e = 5 on [-30, 30]^2 errs by up to 12%.  Every product stays on one BLAS
    thread (see SERIAL_GEMM).
    """
    _same_geometry(grid_f, grid_g)
    eps = max(W2_EPS, max(2.0 * grid_f.Lx - grid_f.dx, 2.0 * grid_f.Lv - grid_f.dv) ** 2 / 700.0,
              max(grid_f.dx, grid_f.dv) ** 2 / 4.0)
    kx, kv = (np.exp(-np.subtract.outer(c, c) ** 2 / eps)
              for c in (grid_f.x_centers, grid_f.v_centers))
    p, q = (np.where(g.data >= MASK, g.data, 0.0) for g in (grid_f, grid_g))
    p, q = p / p.sum(), q / q.sum()

    def gibbs(m):   # K(m): two small matrix products
        return _serial_matmul(_serial_matmul(kx, m), kv)

    def dual(a, b):   # e (<a, ln u> + <b, ln v>) at the scalings with u K(v) = a, v K(u) = b
        # u, v and the gap's scratch r are written in place, on cache lines (see pde._aligned)
        u, r, floor = np.sqrt(a, out=_aligned(a.shape)), _aligned(a.shape), np.maximum(a, 1e-300)
        v = u if b is a else np.sqrt(b, out=_aligned(b.shape))
        for _ in range(100_000):
            k_v = gibbs(v)
            np.square(np.subtract(np.multiply(u, k_v, out=r), a, out=r), out=r)
            gap = eps * float(np.divide(r, floor, out=r).sum())   # about e KL(a | u K(v))
            if not gap > W2_TOL:
                break
            if b is a:   # one potential: averaged steps
                np.sqrt(np.divide(np.multiply(u, a, out=u), k_v, out=u), out=u)
            else:
                np.divide(a, k_v, out=u)
                del k_v   # freed before gibbs(u), so that r adds nothing to the peak
                np.divide(b, gibbs(u), out=v)
        if not gap <= W2_TOL:   # out of steps, or a scaling overflowed
            raise NonConvergenceError(f"w2_grid: Sinkhorn stopped at a dual gap of {gap:g}", gap)
        del k_v, floor, r   # not held beside the four arrays below: cli.GRID_ARRAYS counts the peak
        terms = [(w[w > 0], np.log(s[w > 0])) for w, s in ((a, u), (b, v))]
        return eps * sum(float(w[i:i + SERIAL_DOT] @ s[i:i + SERIAL_DOT])
                         for w, s in terms for i in range(0, w.size, SERIAL_DOT))

    return math.sqrt(max(dual(p, q) - 0.5 * dual(p, p) - 0.5 * dual(q, q), 0.0))
