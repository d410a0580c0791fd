"""Interacting particle system and synchronous-coupling experiments.

N particles follow dX_i = V_i dt,
dV_i = -(X_i + gamma V_i + lam F_i(X)) dt + sqrt(2 gamma) dB_i,
with the pairwise mean force F_i(x) = (1/(N-1)) sum_{j != i} dK/dx(x_i - x_j).
A coupled pair shares the same Brownian increments, so the difference process
is deterministic given the two trajectories; its modified norm
|dx + a dv|^2 + b |dv|^2 contracts at rate a/4 under the smallness condition.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .errors import ConfigurationError, DivergenceError
from .model import (CouplingConstants, ModelParams, _direct_sum, coupling_constants, kernel_sum,
                    smallness_holds, step_count)

Array = np.ndarray

__all__ = [
    "ParticleState",
    "CoupledPair",
    "SimConfig",
    "noise_for_step",
    "pairwise_force",
    "direct_pairwise_force",
    "force_jacobian_norm_bound_check",
    "step",
    "coupled_step",
    "modified_norm_sq",
    "euclidean_norm_sq",
    "simulate",
    "ContractionReport",
    "contraction_experiment",
]

INTEGRATORS = ("euler_maruyama", "kinetic_splitting")


@dataclass(frozen=True)
class ParticleState:
    """Positions and velocities of N >= 2 particles at time t."""

    x: Array
    v: Array
    t: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "x", np.asarray(self.x, dtype=float))
        object.__setattr__(self, "v", np.asarray(self.v, dtype=float))
        if self.x.ndim != 1 or self.x.shape != self.v.shape:
            raise ValueError("x and v must be 1-d arrays of equal length")
        if self.x.size < 2:
            raise ValueError(f"need at least 2 particles, got {self.x.size}")

    @property
    def n(self) -> int:
        return self.x.size


@dataclass(frozen=True)
class CoupledPair:
    """Two states advanced with identical noise; times must agree."""

    z: ParticleState
    z_tilde: ParticleState

    def __post_init__(self):
        if self.z.n != self.z_tilde.n:
            raise ValueError("coupled states must have the same particle count")
        if self.z.t != self.z_tilde.t:
            raise ValueError("coupled states must carry the same time")


@dataclass(frozen=True)
class SimConfig:
    """Time step, integrator choice, and the seed that keys every step's noise draw."""

    dt: float = 1e-3
    integrator: str = "kinetic_splitting"
    seed: int = 0

    def __post_init__(self):
        if not (self.dt > 0.0 and math.isfinite(self.dt)):
            raise ConfigurationError(f"dt must be positive and finite, got {self.dt}")
        if self.integrator not in INTEGRATORS:
            raise ConfigurationError(
                f"integrator must be one of {INTEGRATORS}, got {self.integrator!r}")
        if isinstance(self.seed, bool) or not isinstance(self.seed, (int, np.integer)):
            raise ConfigurationError(f"seed must be an integer, got {self.seed!r}")
        if not (0 <= int(self.seed) < 2 ** 64):
            raise ConfigurationError("seed must fit in an unsigned 64-bit integer")
        object.__setattr__(self, "seed", int(self.seed))


@functools.cache
def _philox() -> tuple:   # the Philox, its Generator and a state template: see noise_for_step
    bits = np.random.Philox(0)
    return bits, np.random.Generator(bits), dict(bits.state, buffer=[0] * 4)


def noise_for_step(seed: int, step_index: int, n: int, out: Optional[Array] = None) -> Array:
    """Standard normal draws for one step, from a counter-based generator.

    Draw i is a pure function of (seed, step_index, i), whatever the call order, so a shorter
    draw is a prefix of a longer one.  The step index is the second counter word, so a step can
    use 2^64 counter blocks before reaching the next step's.  One Philox, built at the first call
    so that runs which draw nothing never load numpy.random, is rekeyed to (seed, 0) and its
    counter reset on each call, with an empty buffer (its whole state; lists set faster than
    arrays): not thread-safe (vfplab has no threads).  ``out`` (n C-contiguous float64 values, any
    shape) gets the same draws and is returned; numpy gets no size then, as it checks one slowly.
    """
    bits, gen, state = _philox()
    state["state"] = {"counter": [0, step_index, 0, 0], "key": [seed, 0]}
    bits.state = state
    return gen.standard_normal(None if out is not None and out.size == n else n, out=out)


def _without_self(params: ModelParams, x: Array, sum_all: Callable[[Array], Array]) -> Array:
    """(1/(N-1)) (sum_all(x) - dK/dx(0)), where sum_all sums over every j of the last axis."""
    x = np.asarray(x, dtype=float)
    n = x.shape[-1] if x.ndim else 0
    if n < 2:
        raise ValueError("pairwise force needs at least 2 particles")
    return (sum_all(x) - params.kernel.d1_at_zero) / (n - 1)


def direct_pairwise_force(params: ModelParams, x: Array) -> Array:
    """F_i = (1/(N-1)) sum_{j != i} dK/dx(x_i - x_j) by direct summation, per row of the last axis."""
    return _without_self(params, x, lambda x: _direct_sum(params.kernel.d1, x, x))


def pairwise_force(params: ModelParams, x: Array) -> Array:
    """Pairwise mean force on (..., N) positions, through the kernel's own sum."""
    return _without_self(params, x, lambda x: kernel_sum(params.kernel, x, x, derivative=True))


def force_jacobian_norm_bound_check(params: ModelParams, x: Array, u: Array,
                                    h: float = 1e-5) -> tuple[float, float]:
    """Finite-difference directional derivative norm of F against its certified bound.

    Returns (|dF(x)[u]|, 2 * d2_sup); the first never exceeds the second (up to
    the O(h^2) differencing error) for unit directions u.
    """
    x = np.asarray(x, dtype=float)
    u = np.asarray(u, dtype=float)
    fd = (pairwise_force(params, x + h * u) - pairwise_force(params, x - h * u)) / (2.0 * h)
    return float(np.linalg.norm(fd)), 2.0 * params.kernel.d2_sup


@functools.lru_cache(maxsize=64)
def _factors(gamma: float, dt: float) -> tuple:
    """The step's factors as read-only 0-d arrays, which ufuncs take faster than Python floats."""
    return tuple(np.broadcast_to(float(c), ()) for c in (
        0.5 * dt, dt, gamma, math.exp(-gamma * dt), math.sqrt(2.0 * gamma * dt),
        math.sqrt(1.0 - math.exp(-2.0 * gamma * dt))))


def _advance(z: Array, params: ModelParams, cfg: SimConfig, noise: Array, scratch: Array):
    """One step of z = [x, v] (2, ..., N) in place, each value rounded as in the formulas of the
    comments; ``noise`` broadcasts against x (coupled copies share its rows) and is overwritten,
    as is ``scratch``.  Finiteness is the caller's to check."""
    x, v = z[0], z[1]   # faster than unpacking z
    half_dt, dt, gamma, damp, kick_em, kick = _factors(params.gamma, cfg.dt)
    if cfg.integrator == "euler_maruyama":   # x + v dt;  v - (x + gamma v + lam F) dt + kick noise
        force = pairwise_force(params, x)
        force *= params.lam
        force += np.add(x, np.multiply(v, gamma, out=scratch), out=scratch)
        force *= dt
        x += np.multiply(v, dt, out=scratch)
        v -= force
        v += np.multiply(noise, kick_em, out=noise)
    else:   # x += dt/2 v;  damp v - (x + lam F) dt + kick noise;  x += dt/2 v
        x += np.multiply(v, half_dt, out=scratch)
        force = pairwise_force(params, x)
        force *= params.lam
        force += x
        force *= dt
        v *= damp
        v -= force
        v += np.multiply(noise, kick, out=noise)
        x += np.multiply(v, half_dt, out=scratch)


def _diverged(t: float, v: Array) -> DivergenceError:   # the error for a non-finite state at t
    return DivergenceError(f"non-finite particle state at t={t:g}", t=t,
                           max_velocity=max(np.abs(v[np.isfinite(v)]).tolist(), default=math.inf))


def step(state: ParticleState, params: ModelParams, cfg: SimConfig,
         noise: Array) -> ParticleState:
    """Advance one time step with the configured integrator.

    ``noise`` must hold N standard normal draws; passing it in keeps the stepper pure and lets a
    coupled pair share increments exactly.  The state and the noise are copied, so neither changes.
    """
    noise = np.array(noise, dtype=float)
    if noise.shape != state.x.shape:
        raise ValueError("noise must have one draw per particle")
    z, t_new = np.stack([state.x, state.v]), state.t + cfg.dt
    _advance(z, params, cfg, noise, np.empty_like(noise))
    if not np.isfinite(z).all():
        raise _diverged(t_new, z[1])
    return ParticleState(*z, t=t_new)


def coupled_step(pair: CoupledPair, params: ModelParams, cfg: SimConfig,
                 noise: Array) -> CoupledPair:
    """Advance both states of a synchronous coupling with the same noise."""
    return CoupledPair(z=step(pair.z, params, cfg, noise),
                       z_tilde=step(pair.z_tilde, params, cfg, noise))


def _sum_sq(a: Array) -> Array:
    """a . a over the last axis, rounded exactly like each row's 1-D ``a @ a``."""
    return (a[..., None, :] @ a[..., :, None])[..., 0, 0]


def modified_norm_sq(dx: Array, dv: Array, constants: CouplingConstants) -> Array:
    """|dx + a dv|^2 + b |dv|^2 over the last axis (the particles) of difference arrays."""
    return _sum_sq(dx + constants.a * dv) + constants.b * _sum_sq(dv)


def euclidean_norm_sq(dx: Array, dv: Array) -> Array:
    """|dx|^2 + |dv|^2 over the last axis (the particles) of difference arrays."""
    return _sum_sq(dx) + _sum_sq(dv)


def _trajectory(z: Array, params: ModelParams, cfg: SimConfig, n_steps: int, every: int,
                noise_shape: tuple, t: float = 0.0, k0: int = 0):
    """Step z = [x, v] (2, ..., N) in place from step ``k0``, yielding (t, x, v) at the start, after
    every ``every``-th step and after the last; x and v are views of z, valid until the next step.
    Step k draws prod(noise_shape) values into one buffer, broadcast against x.  Only the yielded
    states are checked, since a non-finite value stays so (a particle's own x and v feed its next
    ones through +, - and positive factors); a failure replays from the last yield step by step."""
    noise, scratch, last = np.empty(noise_shape), np.empty_like(z[0]), (z.copy(), t, k0)
    yield t, z[0], z[1]
    for k in range(k0, n_steps):
        t += cfg.dt
        noise_for_step(cfg.seed, k, noise.size, out=noise)
        _advance(z, params, cfg, noise, scratch)
        if (k + 1) % every == 0 or k + 1 == n_steps:
            if not np.isfinite(z).all():
                if every > 1:   # replay from the last yield, so the error names the exact step
                    list(_trajectory(last[0], params, cfg, k + 1, 1, noise_shape, *last[1:]))
                raise _diverged(t, z[1])
            yield t, z[0], z[1]
            last = z.copy(), t, k + 1


def simulate(state: ParticleState, params: ModelParams, cfg: SimConfig,
             n_steps: int, record_every: int = 1) -> list[ParticleState]:
    """Run ``n_steps`` steps, returning snapshots every ``record_every`` steps.

    The step counter starts at 0 for this call; identical arguments reproduce
    identical trajectories bit for bit.
    """
    if n_steps < 0 or record_every < 1:
        raise ConfigurationError("n_steps must be >= 0 and record_every >= 1")
    return [ParticleState(x=x.copy(), v=v.copy(), t=t) for t, x, v in
            _trajectory(np.stack([state.x, state.v]), params, cfg, n_steps, record_every,
                        state.x.shape, state.t)]


@dataclass
class ContractionReport:
    """Synchronous-coupling decay curves and envelope diagnostics."""

    rate: float                      # guaranteed squared-norm decay rate a/4
    times: Array                     # (S,)
    modified_norm_sq: Array          # (R, S)
    euclid_sq: Array                 # (R, S)
    fitted_rates: Array              # (R,)
    worst_ratio_modified: float
    worst_ratio_euclid: float
    envelope_ok: bool
    smallness: bool
    warnings: list[str] = field(default_factory=list)

    def to_dict(self) -> dict:
        out = {k: v.tolist() if isinstance(v, np.ndarray) else v for k, v in vars(self).items()}
        out["fitted_rate"] = out.pop("fitted_rates")
        return out


def _contraction_replica(cfg: SimConfig, n_particles: int, replica: int) -> Array:
    """Seeded initial state of one coupled replica: [[x, x~], [v, v~]], shape (2, 2, N)."""
    rng = np.random.default_rng([cfg.seed, replica, 2718])
    x = rng.normal(0.0, 1.0, n_particles)
    v = rng.normal(0.0, 1.0, n_particles)
    dx = 2.0 + 0.25 * rng.normal(size=n_particles)
    dv = -1.0 + 0.25 * rng.normal(size=n_particles)
    return np.array([[x, x + dx], [v, v + dv]])


def contraction_experiment(params: ModelParams, cfg: SimConfig, n_particles: int,
                           horizon: float, replicas: int = 1,
                           sample_dt: Optional[float] = None) -> ContractionReport:
    """Run synchronously coupled pairs and compare decay against the envelopes.

    The modified squared norm is checked against exp(-(a/4) t) with slack
    (1 + 10 dt); the Euclidean squared norm against 4 exp(-(a/4) t) with 5%
    integrator slack.  All replicas and both copies of each pair advance as
    one (replicas, 2, N) array per step.  Each step makes one draw of replicas * N
    values; replica r takes slice r of it, shared by its two copies, so results
    match stepping each pair alone with that slice as its noise.
    """
    if n_particles < 2:
        raise ConfigurationError("contraction experiment needs at least 2 particles")
    if replicas < 1:
        raise ConfigurationError("replicas must be >= 1")
    n_steps = step_count(horizon, cfg.dt, "horizon")
    sample_every = step_count(0.1 if sample_dt is None else sample_dt, cfg.dt, "sample_dt")
    constants = coupling_constants(params.gamma)
    rate = constants.contraction_rate
    warnings: list[str] = []
    small = smallness_holds(params)
    if not small:
        warnings.append("smallness condition violated: contraction is not guaranteed")

    z = np.stack([_contraction_replica(cfg, n_particles, r) for r in range(replicas)], 1)
    samples = 1 + -(-n_steps // sample_every)   # t = 0, every sample_every-th step and the last
    times, (mods, eucs) = np.empty(samples), np.empty((2, replicas, samples))
    for s, (t, x, v) in enumerate(_trajectory(z, params, cfg, n_steps, sample_every,
                                              (replicas, 1, n_particles))):
        times[s], dx, dv = t, x[:, 0] - x[:, 1], v[:, 0] - v[:, 1]
        mods[:, s] = modified_norm_sq(dx, dv, constants)
        eucs[:, s] = euclidean_norm_sq(dx, dv)

    window = times >= min(horizon / 4.0, times[-2])   # at least the last two samples
    tw = times[window] - times[window].mean()   # each replica's least-squares slope, as polyfit's
    fitted = -(np.log(np.maximum(mods[:, window], 1e-300)) @ tw) / (tw @ tw)

    env_mod = mods[:, :1] * np.exp(-rate * times)[None, :]
    env_euc = 4.0 * eucs[:, :1] * np.exp(-rate * times)[None, :]
    worst_mod = float((mods / env_mod).max())
    worst_euc = float((eucs / env_euc).max())
    envelope_ok = worst_mod <= 1.0 + 10.0 * cfg.dt and worst_euc <= 1.05
    if small and not envelope_ok:
        warnings.append("envelope violated inside the guaranteed regime")

    return ContractionReport(
        rate=rate, times=times, modified_norm_sq=mods, euclid_sq=eucs, fitted_rates=fitted,
        worst_ratio_modified=worst_mod, worst_ratio_euclid=worst_euc,
        envelope_ok=envelope_ok, smallness=small, warnings=warnings)
