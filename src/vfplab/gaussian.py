"""Closed-form Gaussian oracles for the quadratic-kernel model.

With K(x) = a x^2 + b x the flow maps Gaussians to Gaussians along a linear
moment flow (a 2x2 matrix exponential), the stationary law is explicit, and the
N-particle equilibrium is an explicit Gaussian Gibbs measure.  These exact
formulas are the references for grid and particle runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, UnconfinedError
from .model import ModelParams

Array = np.ndarray

LOG_2PI = math.log(2.0 * math.pi)

__all__ = [
    "GaussianState",
    "GibbsN",
    "moment_flow",
    "stationary_gaussian",
    "bures_w2",
    "gaussian_kl",
    "free_energy_quadratic",
    "gibbs_measure_N",
    "free_energy_particle_limit",
]


@dataclass(frozen=True)
class GaussianState:
    """Mean (m_x, m_v) and 2x2 covariance of a phase-space Gaussian."""

    mean: Array
    cov: Array

    def __post_init__(self):
        object.__setattr__(self, "mean", np.asarray(self.mean, dtype=float))
        object.__setattr__(self, "cov", np.asarray(self.cov, dtype=float))
        if self.mean.shape != (2,) or self.cov.shape != (2, 2):
            raise ValueError("mean must have shape (2,), cov shape (2, 2)")
        if not (np.isfinite(self.mean).all() and np.isfinite(self.cov).all()):
            raise ValueError("mean and covariance must be finite")
        (s_xx, s_xv), (s_vx, s_vv) = self.cov.tolist()
        if abs(s_xv - s_vx) > 1e-12 + 1e-5 * min(abs(s_xv), abs(s_vx)):   # isclose both ways
            raise ValueError("covariance must be symmetric")
        if not (s_xx > 0.0 and s_xx * s_vv - s_vx * s_vx > 0.0):   # Sylvester, lower triangle
            raise ValueError("covariance must be positive definite")


@dataclass(frozen=True)
class GibbsN:
    """N-particle Gaussian equilibrium: mean and (2N x 2N) precision.

    Coordinates are ordered (x_1..x_N, v_1..v_N); the velocity block of the
    precision is the identity and positions decouple from velocities.
    """

    n: int
    mean: Array
    precision: Array


def _quadratic_coeffs(params: ModelParams) -> tuple[float, float]:
    """Effective (a, b) with the interaction intensity folded in exactly."""
    if params.kernel.kind != "quadratic_linear":
        raise ConfigurationError(
            "closed-form Gaussian formulas need the quadratic_linear (or zero) kernel, "
            f"got {params.kernel.name}")
    a, b = params.kernel.coeffs
    return params.lam * a, params.lam * b


def _confinement(params: ModelParams) -> float:
    """Effective position stiffness 1 + 2*lam*a; must stay positive."""
    a_eff, _ = _quadratic_coeffs(params)
    k = 1.0 + 2.0 * a_eff
    if k <= 0.0:
        raise UnconfinedError(f"1 + 2*lam*a = {k:g} <= 0: no confined Gaussian state")
    return k


def _oscillator_expm(k: float, gamma: float, t: float) -> Array:
    """e^{Bt} for B = [[0, 1], [-k, -gamma]], k, gamma > 0, t >= 0, by Cayley-Hamilton:
    c I + s (B + gamma/2 I) with c = e^{-gamma t/2} cosh(dt), s = e^{-gamma t/2} sinh(dt)/d,
    d^2 = gamma^2/4 - k (imaginary d when underdamped), both through e^{-kt/(d + gamma/2)}
    (modulus <= 1) and expm1(-2dt): exactly I at t = 0, no overflow, accurate as d -> 0."""
    d = np.sqrt(complex(0.25 * gamma * gamma - k))
    slow = np.exp(-k * t / (d + 0.5 * gamma))
    gap = np.expm1(-2.0 * d * t)
    c = (slow * (1.0 + 0.5 * gap)).real
    s = t * slow.real if d == 0 else (-slow * gap / (2.0 * d)).real   # d = 0: critical damping
    return np.array([[c + 0.5 * gamma * s, s], [-k * s, c - 0.5 * gamma * s]])


def moment_flow(state: GaussianState, params: ModelParams,
                times: Array) -> list[GaussianState]:
    """Exact mean/covariance flow of the quadratic-kernel dynamics.

    m_x' = m_v,  m_v' = -m_x - lam*b - gamma*m_v, and the covariance solves
    S' = B S + S B^T + diag(0, 2 gamma) with B = [[0, 1], [-(1+2 lam a), -gamma]].
    Both relax to stationary_gaussian (m*, S*): m(t) = m_0 + (e^{B_1 t} - I)(m_0 - m*)
    with B_1 = B at a = 0, and S(t) = S_0 + sym(e^{Bt} D e^{Bt}^T - D), D = S_0 - S*.
    """
    k = _confinement(params)
    times = np.asarray(times, dtype=float)
    if (times.ndim != 1 or times.size == 0 or not np.isfinite(times).all() or times[0] < 0
            or np.any(np.diff(times) < 0)):
        raise ConfigurationError("times must be a nondecreasing 1-d array of finite floats >= 0")
    target = stationary_gaussian(params)
    dm, dc = state.mean - target.mean, state.cov - target.cov
    out = []
    for t in times:
        e_cov = _oscillator_expm(k, params.gamma, t)
        jump = e_cov @ dc @ e_cov.T - dc
        shift = (_oscillator_expm(1.0, params.gamma, t) - np.eye(2)) @ dm
        out.append(GaussianState(mean=state.mean + shift, cov=state.cov + 0.5 * (jump + jump.T)))
    return out


def stationary_gaussian(params: ModelParams) -> GaussianState:
    """Fixed point of the moment flow: mean (-lam*b, 0), cov diag(1/(1+2 lam a), 1)."""
    k = _confinement(params)
    _, b_eff = _quadratic_coeffs(params)
    return GaussianState(mean=[-b_eff, 0.0], cov=[[1.0 / k, 0.0], [0.0, 1.0]])


def _det(cov: Array) -> float:
    return cov[0, 0] * cov[1, 1] - cov[0, 1] * cov[1, 0]


def bures_w2(g1: GaussianState, g2: GaussianState) -> float:
    """Quadratic Wasserstein distance between Gaussians (Bures formula), where in 2x2
    tr (S2^1/2 S1 S2^1/2)^1/2 = sqrt(tr S1 S2 + 2 sqrt(det S1 det S2)) by Cayley-Hamilton."""
    dm = g1.mean - g2.mean
    cross = math.sqrt(np.sum(g1.cov * g2.cov.T) + 2.0 * math.sqrt(_det(g1.cov) * _det(g2.cov)))
    val = float(dm @ dm + (np.trace(g1.cov) + np.trace(g2.cov) - 2.0 * cross))
    return math.sqrt(max(val, 0.0))


def gaussian_kl(mean1: Array, cov1: Array, mean0: Array, cov0: Array) -> float:
    """Relative entropy KL(N(mean1, cov1) || N(mean0, cov0)) in any dimension."""
    mean1 = np.asarray(mean1, dtype=float)
    mean0 = np.asarray(mean0, dtype=float)
    d = mean1.size
    prec0 = np.linalg.inv(cov0)
    dm = mean1 - mean0
    _, ld0 = np.linalg.slogdet(cov0)
    _, ld1 = np.linalg.slogdet(cov1)
    return 0.5 * (np.trace(prec0 @ cov1) - d + dm @ prec0 @ dm + ld0 - ld1)


def free_energy_quadratic(g: GaussianState, params: ModelParams) -> float:
    """Mean-field free energy of a Gaussian state, quadratic kernel, C = 0 convention.

    entropy + E[(v^2 + x^2)/2 + lam*b*x] + lam*a*var_x.  The interaction term
    carries the 1/2 in front of the double integral that makes the functional
    non-increasing along the flow and the N-particle limit exact.
    """
    a_eff, b_eff = _quadratic_coeffs(params)
    m_x, m_v = g.mean
    s_xx, s_vv = g.cov[0, 0], g.cov[1, 1]
    neg_entropy = -(1.0 + LOG_2PI) - 0.5 * math.log(_det(g.cov))
    second_moment = 0.5 * (m_x * m_x + s_xx + m_v * m_v + s_vv)
    return float(neg_entropy + second_moment + b_eff * m_x + a_eff * s_xx)


def gibbs_measure_N(params: ModelParams, n: int) -> GibbsN:
    """Explicit N-particle Gaussian equilibrium, as the dense (2N x 2N) test oracle.

    Position precision I + (2 lam a/(N-1)) (N I - ones ones^T), position mean
    -lam*b * ones (the precision fixes the all-ones vector), velocity block
    standard normal.  O(N^2) memory: free_energy_particle_limit is closed form.
    """
    if n < 2:
        raise ConfigurationError("the particle equilibrium needs N >= 2")
    a_eff, b_eff = _quadratic_coeffs(params)
    bulk = 1.0 + 2.0 * a_eff * n / (n - 1)   # eigenvalue on the mean-zero sector
    if bulk <= 0.0:
        raise UnconfinedError(
            f"position precision eigenvalue 1 + 2*lam*a*N/(N-1) = {bulk:g} <= 0")
    c = 2.0 * a_eff / (n - 1)
    precision = np.zeros((2 * n, 2 * n))
    precision[:n, :n] = (1.0 + c * n) * np.eye(n) - c * np.ones((n, n))
    precision[n:, n:] = np.eye(n)
    mean = np.concatenate([-b_eff * np.ones(n), np.zeros(n)])
    return GibbsN(n=n, mean=mean, precision=precision)


def free_energy_particle_limit(g: GaussianState, params: ModelParams, n: int) -> float:
    """(1/N) KL(g^{tensor N} || N-particle equilibrium), in closed form, O(1) in N.

    With bulk = 1 + 2 lam a N/(N-1), the equilibrium's position-precision eigenvalue on
    the mean-zero sector (it is 1 on the all-ones vector, and the velocity block is the
    identity), this is 1/2 [(1 + 2 lam a) S_xx + S_vv - 2 + (m_x + lam b)^2 + m_v^2
    - ((N-1)/N) log(bulk) - log det S] for g = N((m_x, m_v), S).
    """
    if n < 2:
        raise ConfigurationError("the particle equilibrium needs N >= 2")
    a_eff, b_eff = _quadratic_coeffs(params)
    stiffening = 2.0 * a_eff * (n / (n - 1))   # bulk - 1; finite for any int n
    if 1.0 + stiffening <= 0.0:
        raise UnconfinedError(f"bulk eigenvalue 1 + 2*lam*a*N/(N-1) = {1 + stiffening:g} <= 0")
    trace = (1.0 + 2.0 * a_eff) * g.cov[0, 0] + g.cov[1, 1]   # tr(P cov) / N
    quad = (g.mean[0] + b_eff) ** 2 + g.mean[1] ** 2           # only the all-ones direction
    logdet_cov = math.log(_det(g.cov))
    return float(0.5 * (trace - 2.0 + quad - (n - 1) / n * math.log1p(stiffening) - logdet_cov))
