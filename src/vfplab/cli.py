"""Command-line experiments: contraction, lyapunov, fisher, stationary, oracle, simulate.

Every subcommand reads a JSON config, validates it fully before computing,
and writes CSV/JSON artifacts under an output prefix.  Runs with identical
config and seed produce byte-identical files.

Exit codes: 0 success, 1 configuration error, 2 numerical divergence,
3 envelope violation inside the guaranteed regime.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import warnings
from typing import Optional

import numpy as np

from .errors import ConfigurationError, DivergenceError, VfpError
from .functionals import (MAX_ASSIGNMENT, classical_free_energy, entropy, fisher_information,
                          quadratic_free_energy, w2_grid)
from .gaussian import GaussianState, bures_w2, free_energy_particle_limit, \
    free_energy_quadratic, moment_flow, stationary_gaussian
from .model import ModelParams, builtin_kernel, coupling_constants, finite_float, \
    smallness_holds, step_count
from .output import write_csv, write_json
from .particles import ParticleState, SimConfig, contraction_experiment, simulate
from .pde import GridConfig, PhaseGrid, cfl_bound, gaussian_grid, grid_to_binary, \
    grid_to_csv, run_vfp, stationary_fixed_point, vfp_step, x_marginal

FISHER_SLACK = 1.1
MEMORY_BUDGET = 2 ** 31   # 2 GiB: GRID_ARRAYS full-size arrays and 2 (nx^2 + nv^2) cells for W2
GRID_ARRAYS = 20   # a grid run's tracemalloc peak at 128^2 is 17.1-18.2, whatever its snapshots

__all__ = ["main"]


# ---------------------------------------------------------------- config ----

def _require_keys(section: dict, name: str, required: set[str], optional: set[str] = frozenset()):
    if not isinstance(section, dict):
        raise ConfigurationError(f"config section {name!r} must be an object")
    missing = required - set(section)
    unknown = set(section) - required - optional
    if missing:
        raise ConfigurationError(f"config section {name!r} is missing keys {sorted(missing)}")
    if unknown:
        raise ConfigurationError(f"config section {name!r} has unknown keys {sorted(unknown)}")


def _count(value, name: str, minimum: int) -> int:
    """A config count as an int; integral floats such as 2.0 pass, bools and 2.5 do not."""
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not (
            value >= minimum and value % 1 == 0):
        raise ConfigurationError(f"{name} must be an integer >= {minimum}, got {value!r}")
    return int(value)


def _positive(value, name: str) -> float:
    """A config number that must be finite and positive."""
    value = finite_float(value, name)
    if not value > 0:
        raise ConfigurationError(f"{name} must be positive, got {value!r}")
    return value


def _pair(value, name: str, entry=finite_float) -> list:
    """A config list of exactly two entries, each read by ``entry``."""
    if not (isinstance(value, list) and len(value) == 2):
        raise ConfigurationError(f"{name} must be a list of 2 entries, got {value!r}")
    return [entry(v, name) for v in value]


def _flag(value, name: str) -> bool:
    """A config switch: only the JSON literals true and false pass."""
    if not isinstance(value, bool):
        raise ConfigurationError(f"{name} must be true or false, got {value!r}")
    return value


def load_config(path: str) -> dict:
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except OSError as exc:
        raise ConfigurationError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigurationError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigurationError("top-level config must be a JSON object")
    unknown = set(cfg) - {"model", "sim", "grid", "experiment", "output"}
    if unknown:
        raise ConfigurationError(f"config has unknown top-level keys {sorted(unknown)}")
    return cfg


def parse_model(cfg: dict) -> ModelParams:
    section = cfg.get("model")
    if section is None:
        raise ConfigurationError("config needs a 'model' section")
    _require_keys(section, "model", {"gamma", "lambda", "kernel"})
    return ModelParams(gamma=finite_float(section["gamma"], "gamma"),
                       lam=finite_float(section["lambda"], "lambda"),
                       kernel=builtin_kernel(section["kernel"]))


def parse_seed(cfg: dict, seed_override: Optional[int]) -> int:
    """``--seed`` if given, else ``sim.seed`` (default 0), checked as SimConfig checks a seed:
    the only ``sim`` value it reads."""
    section = cfg.get("sim", {})
    _require_keys(section, "sim", set(), {"dt", "integrator", "seed", "n_particles"})
    seed = section.get("seed", 0) if seed_override is None else seed_override
    return SimConfig(seed=_count(seed, "seed", 0)).seed


def parse_sim(cfg: dict, seed_override: Optional[int]) -> tuple[SimConfig, int]:
    seed = parse_seed(cfg, seed_override)
    section = cfg.get("sim", {})
    sim = SimConfig(dt=finite_float(section.get("dt", 1e-3), "dt"),
                    integrator=section.get("integrator", "kinetic_splitting"), seed=seed)
    return sim, _count(section.get("n_particles", 64), "n_particles", 2)


def parse_grid(cfg: dict) -> tuple[dict, Optional[float]]:
    """Grid geometry plus the requested dt (None means choose from the CFL budget)."""
    section = cfg.get("grid", {})
    _require_keys(section, "grid", set(),
                  {"Lx", "Lv", "nx", "nv", "dt", "cfl_safety", "splitting"})
    geometry = {
        "Lx": finite_float(section.get("Lx", 8.0), "Lx"),
        "Lv": finite_float(section.get("Lv", 8.0), "Lv"),
        "nx": _count(section.get("nx", 128), "nx", 1),
        "nv": _count(section.get("nv", 128), "nv", 1),
        "cfl_safety": finite_float(section.get("cfl_safety", 0.5), "cfl_safety"),
        "splitting": section.get("splitting", "strang"),
    }
    nx, nv = geometry["nx"], geometry["nv"]
    if 8 * (GRID_ARRAYS * nx * nv + 2 * (nx * nx + nv * nv)) > MEMORY_BUDGET:
        raise ConfigurationError(f"grids exceed the memory budget of {MEMORY_BUDGET} bytes")
    dt = section.get("dt", "auto")
    if dt == "auto":
        return geometry, None
    return geometry, finite_float(dt, "dt")


def _grid_config(geometry: dict, dt: Optional[float], params: ModelParams,
                 initial: PhaseGrid) -> GridConfig:
    if dt is None:
        dt = 0.9 * geometry["cfl_safety"] * cfl_bound(initial, params)
    return GridConfig(dt=dt, **geometry)


def parse_initial(section, default_mean=(1.0, 0.0)) -> GaussianState:
    if section is None:
        return GaussianState(mean=list(default_mean), cov=[[1.0, 0.0], [0.0, 1.0]])
    _require_keys(section, "initial", set(), {"mean", "cov"})
    mean = _pair(section.get("mean", list(default_mean)), "initial mean")
    cov = _pair(section.get("cov", [[1.0, 0.0], [0.0, 1.0]]), "initial cov", _pair)
    try:
        return GaussianState(mean=mean, cov=cov)
    except ValueError as exc:
        raise ConfigurationError(f"invalid initial Gaussian: {exc}") from exc


def _experiment(cfg: dict, allowed: set[str]) -> dict:
    section = cfg.get("experiment", {})
    _require_keys(section, "experiment", set(), allowed)
    return section


def _run_parameters(params: ModelParams, grid: Optional[GridConfig] = None, **run) -> dict:
    """The run parameters every JSON report carries: the model, the grid geometry, then ``run``."""
    out = {"kernel": params.kernel.name, "gamma": params.gamma, "lambda": params.lam}
    if grid is not None:
        out["grid"] = {"Lx": grid.Lx, "Lv": grid.Lv, "nx": grid.nx, "nv": grid.nv,
                       "splitting": grid.splitting}
    return {**out, **run}


def _out_prefix(cfg: dict, args) -> str:
    prefix = args.out if args.out else cfg.get("output")
    if not prefix or not isinstance(prefix, str):
        raise ConfigurationError("an output prefix is required (--out or config 'output')")
    if not os.path.isdir(os.path.dirname(prefix) or "."):
        raise ConfigurationError(f"the directory of output prefix {prefix!r} does not exist")
    return prefix


# ----------------------------------------------------------- subcommands ----

def cmd_contraction(args) -> int:
    cfg = load_config(args.config)
    params = parse_model(cfg)
    sim, n = parse_sim(cfg, args.seed)
    exp = _experiment(cfg, {"horizon", "replicas", "sample_dt"})
    sample_dt = exp.get("sample_dt")
    horizon = _positive(exp.get("horizon", 20.0), "horizon")
    replicas = _count(exp.get("replicas", 4), "replicas", 1)
    prefix = _out_prefix(cfg, args)
    report = contraction_experiment(
        params, sim, n, horizon=horizon, replicas=replicas,
        sample_dt=None if sample_dt is None else _positive(sample_dt, "sample_dt"))
    write_json(prefix + "_contraction.json", _run_parameters(
        params, dt=sim.dt, horizon=horizon, integrator=sim.integrator, n_particles=n,
        replicas=replicas, seed=sim.seed, **report.to_dict()))
    rows = []
    for r in range(replicas):
        m0, e0 = report.modified_norm_sq[r, 0], report.euclid_sq[r, 0]
        for s, t in enumerate(report.times):
            decay = math.exp(-report.rate * t)
            rows.append((r, float(t), float(report.modified_norm_sq[r, s]),
                         float(report.euclid_sq[r, s]), float(m0 * decay),
                         float(4.0 * e0 * decay)))
    write_csv(prefix + "_contraction.csv",
              ["replica", "t", "modified_norm_sq", "euclid_sq",
               "envelope_modified", "envelope_euclid"], rows)
    for w in report.warnings:
        print(f"warning: {w}", file=sys.stderr)
    if report.smallness and not report.envelope_ok:
        return 3
    return 0


def _probe_slope(grid: PhaseGrid, params: ModelParams, gcfg: GridConfig,
                 n_probe_steps: int) -> float:
    e0 = classical_free_energy(grid, params)
    grid = vfp_step(grid, params, gcfg, n_probe_steps)
    return (classical_free_energy(grid, params) - e0) / (n_probe_steps * gcfg.dt)


def _lyapunov_witness(params: ModelParams, gcfg: GridConfig, baseline: PhaseGrid,
                      n_probe_steps: int = 5):
    """Scan Gaussian initial states for an initially increasing classical free energy.

    The probe slope at the stationary state is pure discretization bias (the
    true slope there is zero), so it calibrates the detection threshold: a
    candidate counts only when it clears twice that bias.
    """
    bias = _probe_slope(baseline, params, gcfg, n_probe_steps)
    threshold = max(1e-4, 2.0 * abs(bias))
    candidates = [(m_x, m_v) for m_v in (-0.5, 0.5, -1.0, 1.0, -0.25, 0.25)
                  for m_x in (0.0, 1.0, -1.0)]
    for m_x, m_v in candidates:
        grid = gaussian_grid(gcfg, [m_x, m_v], [[1.0, 0.0], [0.0, 1.0]])
        slope = _probe_slope(grid, params, gcfg, n_probe_steps)
        if slope - bias > threshold:
            return {"mean": [m_x, m_v], "cov": [[1.0, 0.0], [0.0, 1.0]],
                    "dEdt_estimate": slope, "probe_bias": bias}
    return None


def cmd_lyapunov(args) -> int:
    cfg = load_config(args.config)
    params = parse_model(cfg)
    seed = parse_seed(cfg, args.seed)
    geometry, dt = parse_grid(cfg)
    exp = _experiment(cfg, {"horizon", "sample_dt", "initial", "w2_samples",
                            "witness_search"})
    horizon = _positive(exp.get("horizon", 5.0), "horizon")
    sample_dt = _positive(exp.get("sample_dt", 0.25), "sample_dt")
    witness_search = _flag(exp.get("witness_search", not params.kernel.is_even), "witness_search")
    if "w2_samples" in exp:   # deprecated: still checked, then ignored with a warning
        if _count(exp["w2_samples"], "w2_samples", 1) > MAX_ASSIGNMENT:
            raise ConfigurationError(
                f"w2_samples must be at most {MAX_ASSIGNMENT}, got {exp['w2_samples']!r}")
        print("warning: w2_samples is ignored: w2_grid is deterministic", file=sys.stderr)
    prefix = _out_prefix(cfg, args)
    initial_g = parse_initial(exp.get("initial"))
    probe = GridConfig(dt=1.0, **geometry)
    grid0 = gaussian_grid(probe, initial_g.mean, initial_g.cov)
    gcfg = _grid_config(geometry, dt, params, grid0)

    constants = coupling_constants(params.gamma)
    target = stationary_fixed_point(params, gcfg)

    quadratic = params.kernel.kind == "quadratic_linear"
    rows = run_vfp(grid0, params, gcfg, horizon, sample_dt, lambda snap: (
        float(snap.t), entropy(snap), classical_free_energy(snap, params),
        quadratic_free_energy(snap, params) if quadratic else float("nan"),
        fisher_information(snap, params, np.eye(2)),
        fisher_information(snap, params, constants.A), w2_grid(snap, target), snap.mass()))

    report = _run_parameters(params, gcfg, dt=gcfg.dt, horizon=horizon, seed=seed,
                             smallness=smallness_holds(params), witness=None)
    if quadratic:
        increments = np.diff([row[3] for row in rows])   # F_quadratic
        report["max_F_increase"] = float(increments.max()) if increments.size else 0.0
        report["F_monotone"] = bool(increments.size == 0 or increments.max() <= 1e-6)
    if witness_search:
        report["witness"] = _lyapunov_witness(params, gcfg, target)
    write_csv(prefix + "_lyapunov.csv",   # after the witness probes, which can still fail
              ["t", "entropy", "E_classical", "F_quadratic", "fisher_I", "fisher_A",
               "w2_to_stationary", "mass"], rows)
    write_json(prefix + "_lyapunov.json", report)
    return 0


def cmd_fisher(args) -> int:
    cfg = load_config(args.config)
    params = parse_model(cfg)
    geometry, dt = parse_grid(cfg)
    exp = _experiment(cfg, {"horizon", "sample_dt", "initial", "stationary_start"})
    horizon = _positive(exp.get("horizon", 10.0), "horizon")
    sample_dt = _positive(exp.get("sample_dt", 0.25), "sample_dt")
    prefix = _out_prefix(cfg, args)
    constants = coupling_constants(params.gamma)
    rate = constants.contraction_rate

    probe = GridConfig(dt=1.0, **geometry)
    if _flag(exp.get("stationary_start", False), "stationary_start"):
        if "initial" in exp:
            raise ConfigurationError(
                "experiment 'initial' cannot be set with 'stationary_start': true")
        grid0 = stationary_fixed_point(params, probe)
    else:
        initial_g = parse_initial(exp.get("initial"))
        grid0 = gaussian_grid(probe, initial_g.mean, initial_g.cov)
    gcfg = _grid_config(geometry, dt, params, grid0)

    fisher = run_vfp(grid0, params, gcfg, horizon, sample_dt, lambda snap: (
        float(snap.t), fisher_information(snap, params, constants.A),
        fisher_information(snap, params, np.eye(2))))
    _, i_a0, i_i0 = fisher[0]
    rows = [(t, i_a, i_i, i_a0 * math.exp(-rate * t), 4.0 * i_i0 * math.exp(-rate * t))
            for t, i_a, i_i in fisher]
    violated = any(i_a > env_a * FISHER_SLACK or i_i > env_i * FISHER_SLACK
                   for _, i_a, i_i, env_a, env_i in rows)
    write_csv(prefix + "_fisher.csv",
              ["t", "fisher_A", "fisher_I", "envelope_A", "envelope_I"], rows)
    write_json(prefix + "_fisher.json", _run_parameters(
        params, gcfg, dt=gcfg.dt, horizon=horizon, rate=rate, smallness=smallness_holds(params),
        envelope_ok=not violated, slack=FISHER_SLACK))
    if violated and smallness_holds(params):
        print("warning: fisher envelope violated inside the guaranteed regime",
              file=sys.stderr)
        return 3
    if not smallness_holds(params):
        print("warning: smallness condition violated: decay is not guaranteed",
              file=sys.stderr)
    return 0


def cmd_stationary(args) -> int:
    cfg = load_config(args.config)
    params = parse_model(cfg)
    geometry, _ = parse_grid(cfg)
    probe = GridConfig(dt=1.0, **geometry)   # the fixed point reads only the geometry
    exp = _experiment(cfg, {"tol", "max_iter"})
    tol = _positive(exp.get("tol", 1e-10), "tol")
    max_iter = _count(exp.get("max_iter", 10000), "max_iter", 1)
    prefix = _out_prefix(cfg, args)
    grid = stationary_fixed_point(params, probe, tol=tol, max_iter=max_iter)
    grid_to_csv(grid, prefix + "_stationary.csv")
    grid_to_binary(grid, prefix + "_stationary")
    constants = coupling_constants(params.gamma)
    xc, w = x_marginal(grid)
    write_json(prefix + "_stationary_summary.json", _run_parameters(
        params, probe, mass=grid.mass(), mean_x=float(xc @ w),
        fisher_A=fisher_information(grid, params, constants.A),
        smallness=smallness_holds(params)))
    return 0


def cmd_oracle(args) -> int:
    cfg = load_config(args.config)
    params = parse_model(cfg)
    exp = _experiment(cfg, {"initial", "times", "n_values"})
    initial = parse_initial(exp.get("initial"))
    times = exp.get("times", [0.0, 0.5, 1.0, 2.0, 5.0])
    n_values = exp.get("n_values", [2, 4, 8, 16, 32, 64, 128, 256, 512, 1024])
    if not isinstance(times, list):
        raise ConfigurationError(f"times must be a list of numbers, got {times!r}")
    if not (isinstance(n_values, list) and n_values):
        raise ConfigurationError(f"n_values must be a non-empty list of integers >= 2, got {n_values!r}")
    times = np.array([finite_float(t, "times") for t in times])
    n_values = [_count(n, "n_values", 2) for n in n_values]
    prefix = _out_prefix(cfg, args)

    states = moment_flow(initial, params, times)
    target = stationary_gaussian(params)
    flow = [{"t": float(t), "mean": s.mean.tolist(), "cov": s.cov.tolist(),
             "bures_to_stationary": bures_w2(s, target)}
            for t, s in zip(times, states)]
    limit = free_energy_quadratic(initial, params)
    # For every N the equilibrium's position mean is -lam*b, the stationary one.
    table = [{"n": n, "free_energy": free_energy_particle_limit(initial, params, n),
              "gibbs_mean_x": float(target.mean[0])}
             for n in n_values]
    write_json(prefix + "_oracle.json", _run_parameters(
        params, stationary_gaussian={"mean": target.mean.tolist(), "cov": target.cov.tolist()},
        moment_flow=flow, free_energy_quadratic=limit, free_energy_particle_limit=table))
    return 0


def cmd_simulate(args) -> int:
    cfg = load_config(args.config)
    params = parse_model(cfg)
    sim, n = parse_sim(cfg, args.seed)
    exp = _experiment(cfg, {"horizon", "sample_dt", "initial"})
    horizon = _positive(exp.get("horizon", 1.0), "horizon")
    sample_dt = _positive(exp.get("sample_dt", 0.1), "sample_dt")
    prefix = _out_prefix(cfg, args)
    initial = parse_initial(exp.get("initial"), default_mean=(0.0, 0.0))
    rng = np.random.default_rng([sim.seed, 424242])
    chol = np.linalg.cholesky(initial.cov)
    draws = rng.standard_normal((2, n))
    xv = initial.mean[:, None] + chol @ draws
    state = ParticleState(x=xv[0], v=xv[1])
    n_steps = step_count(horizon, sim.dt, "horizon")
    record_every = step_count(sample_dt, sim.dt, "sample_dt")
    snaps = simulate(state, params, sim, n_steps, record_every=record_every)
    rows = ((float(s.t), i, float(s.x[i]), float(s.v[i]))
            for s in snaps for i in range(s.n))
    write_csv(prefix + "_trajectory.csv", ["t", "i", "x", "v"], rows)
    return 0


# ----------------------------------------------------------------- main -----

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vfplab",
        description="Experiments on the kinetic mean-field model: coupled-pair "
                    "contraction, free-energy decay, twisted Fisher information, "
                    "steady states, Gaussian oracles, and raw simulation.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("contraction", "lyapunov", "fisher", "stationary", "oracle", "simulate"):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="path to a JSON config file")
        p.add_argument("--out", default=None, help="output file prefix")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
    return parser


PARSER = build_parser()   # built once at import, so a first call pays no argparse set-up


def main(argv=None) -> int:
    args = PARSER.parse_args(argv)
    try:
        with warnings.catch_warnings():
            # library warnings get the CLI's one-line format, not a source location
            warnings.showwarning = lambda message, *_: print(f"warning: {message}", file=sys.stderr)
            # by name at call time, so a wrapper or patch set on this module sees the call
            return globals()["cmd_" + args.command](args)
    except ConfigurationError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 1
    except DivergenceError as exc:
        detail = f" (t={exc.t:g}, max |v|={exc.max_velocity:g})" if exc.t is not None else ""
        print(f"divergence: {exc}{detail}", file=sys.stderr)
        return 2
    except VfpError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
