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
from .particles import INTEGRATORS, ParticleState, SimConfig, contraction_experiment, simulate
from .pde import SPLITTINGS, GridConfig, PhaseGrid, cfl_bound, gaussian_grid, grid_to_binary, \
    grid_to_csv, run_vfp, stationary_fixed_point, vfp_step, x_marginal

FISHER_SLACK = 1.1
MEMORY_BUDGET = 2 ** 31   # 2 GiB for what a grid or particle run holds, checked as it is read
GRID_ARRAYS = 20   # a grid run's tracemalloc peak at 128^2 is 17.1-18.2, whatever its snapshots
PARTICLE_WORDS = 32   # a particle run's tracemalloc peak is at most 26.5 words a lane, per
                      # particle the lane steps and per sample it records (see _config)

__all__ = ["main"]


# ---------------------------------------------------------------- config ----
# SCHEMA maps each config key to (reader, default): the reader checks and converts a value, and
# its docstring's first line states its rule; README's key table is rendered from SCHEMA.

SECTIONS = ("model", "sim", "grid", "experiment", "output")
REQUIRED = object()   # the default of a key that must be set; a default of None leaves it unset


def _read(section, name: str, keys: dict, model: Optional[ModelParams] = None) -> dict:
    """Section ``name`` by ``keys``: an unset key reads its default, or when that is a function,
    its value for ``model``."""
    if not isinstance(section, dict):
        raise ConfigurationError(f"config section {name!r} must be an object")
    missing = {key for key, (_, default) in keys.items() if default is REQUIRED} - set(section)
    unknown = set(section) - set(keys)
    if missing:
        raise ConfigurationError(f"config section {name!r} is missing keys {sorted(missing)}")
    if unknown:
        raise ConfigurationError(f"config section {name!r} has unknown keys {sorted(unknown)}")
    label = "" if name in SECTIONS else name + " "   # the keys of a nested section: "initial mean"
    values = {}
    for key, (reader, default) in keys.items():
        if key in section:
            values[key] = reader(section[key], label + key)
        elif default is not None:
            values[key] = reader(default(model) if callable(default) else default, label + key)
    return values


def _rule(text: str, read):
    """``read``, with ``text`` as its docstring: its rule, as README's key table shows it."""
    read.__doc__ = text
    return read


def _count(minimum: int):
    """The reader of a count: an int; integral floats such as 2.0 pass, bools and 2.5 do not."""
    def read(value, name: str) -> int:
        if isinstance(value, bool) or not isinstance(value, (int, float)) or not (
                value >= minimum and value % 1 == 0):
            raise ConfigurationError(f"{name} must be an integer >= {minimum}, got {value!r}")
        return int(value)
    return _rule(f"An integer >= {minimum}.", read)


def _positive(value, name: str) -> float:
    """A finite number > 0."""
    value = finite_float(value, name)
    if not value > 0:
        raise ConfigurationError(f"{name} must be positive, got {value!r}")
    return value


def _pair(value, name: str, entry=finite_float) -> list:
    """A list of 2 finite numbers."""
    if not (isinstance(value, list) and len(value) == 2):
        raise ConfigurationError(f"{name} must be a list of 2 entries, got {value!r}")
    return [entry(v, name) for v in value]


def _flag(value, name: str) -> bool:
    """JSON true or false."""
    if not isinstance(value, bool):
        raise ConfigurationError(f"{name} must be true or false, got {value!r}")
    return value


def _w2_samples(value, name: str) -> None:
    """Deprecated: an integer from 1 to 4096, then ignored with a warning."""
    if _count(1)(value, name) > MAX_ASSIGNMENT:
        raise ConfigurationError(f"w2_samples must be at most {MAX_ASSIGNMENT}, got {value!r}")
    print("warning: w2_samples is ignored: w2_grid is deterministic", file=sys.stderr)


def _times(value, name: str) -> list:
    """A list of finite numbers."""
    if not isinstance(value, list):
        raise ConfigurationError(f"times must be a list of numbers, got {value!r}")
    return [finite_float(t, name) for t in value]


def _n_values(value, name: str) -> list:
    """A non-empty list of integers >= 2."""
    if not (isinstance(value, list) and value):
        raise ConfigurationError(f"n_values must be a non-empty list of integers >= 2, got {value!r}")
    return [_count(2)(n, name) for n in value]


def _gaussian(keys: dict):
    """The reader of an ``initial`` section, whose keys ``keys`` reads."""
    def read(section, name: str) -> GaussianState:
        try:
            return GaussianState(**_read(section, name, keys))
        except ValueError as exc:
            raise ConfigurationError(f"invalid initial Gaussian: {exc}") from exc
    read.keys = keys
    return _rule("A Gaussian: an object of the keys below.", read)


def _as_is(text: str):
    """The reader of a value that a dataclass checks as it is built, or that nothing reads."""
    return _rule(text, lambda value, name: value)


MODEL = {"gamma": (finite_float, REQUIRED), "lambda": (finite_float, REQUIRED),
         "kernel": (_rule("A kernel descriptor (below).",
                          lambda value, name: builtin_kernel(value)), REQUIRED)}
SIM = {"dt": (finite_float, 1e-3),
       "integrator": (_as_is(f"One of {', '.join(INTEGRATORS)}."), "kinetic_splitting"),
       "seed": (_rule("An integer in [0, 2^64).",
                      lambda value, name: SimConfig(seed=_count(0)(value, name)).seed), 0),
       "n_particles": (_count(2), 64)}
GRID = {"Lx": (finite_float, 8.0), "Lv": (finite_float, 8.0),
        "nx": (_count(1), 128), "nv": (_count(1), 128), "cfl_safety": (finite_float, 0.5),
        "dt": (_rule('"auto" or a finite number.', lambda value, name:
                     None if value == "auto" else finite_float(value, name)), "auto"),
        "splitting": (_as_is(f"One of {', '.join(SPLITTINGS)}."), "strang")}
INITIAL = {"mean": (_pair, [1.0, 0.0]),
           "cov": (_rule("A 2x2 list of finite numbers, symmetric and positive definite.",
                         lambda value, name: _pair(value, name, _pair)), [[1.0, 0.0], [0.0, 1.0]])}
_initial = _gaussian(INITIAL)

SCHEMA = {   # the sections each subcommand reads
    "contraction": {"model": MODEL, "sim": SIM, "experiment": {
        "horizon": (_positive, 20.0), "replicas": (_count(1), 4), "sample_dt": (_positive, 0.1)}},
    "lyapunov": {"model": MODEL, "grid": GRID,
                 "sim": {**dict.fromkeys(SIM, (_as_is("Any value: not read."), None)),
                         "seed": SIM["seed"]},
                 "experiment": {
        "horizon": (_positive, 5.0), "sample_dt": (_positive, 0.25), "initial": (_initial, {}),
        "witness_search": (_flag, _rule("true unless the kernel is even",
                                        lambda model: not model.kernel.is_even)),
        "w2_samples": (_w2_samples, None)}},
    "fisher": {"model": MODEL, "grid": GRID, "experiment": {
        "horizon": (_positive, 10.0), "sample_dt": (_positive, 0.25),
        "stationary_start": (_flag, False), "initial": (_initial, {})}},
    "stationary": {"model": MODEL, "grid": GRID, "experiment": {
        "tol": (_positive, 1e-10), "max_iter": (_count(1), 10000)}},
    "oracle": {"model": MODEL, "experiment": {
        "initial": (_initial, {}), "times": (_times, [0.0, 0.5, 1.0, 2.0, 5.0]),
        "n_values": (_n_values, [2, 4, 8, 16, 32, 64, 128, 256, 512, 1024])}},
    "simulate": {"model": MODEL, "sim": SIM, "experiment": {
        "horizon": (_positive, 1.0), "sample_dt": (_positive, 0.1),
        "initial": (_gaussian({**INITIAL, "mean": (_pair, [0.0, 0.0])}), {})}},
}


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
    unknown = set(cfg) - set(SECTIONS)
    if unknown:
        raise ConfigurationError(f"config has unknown top-level keys {sorted(unknown)}")
    return cfg


def parse_model(cfg: dict) -> ModelParams:
    if cfg.get("model") is None:
        raise ConfigurationError("config needs a 'model' section")
    model = _read(cfg["model"], "model", MODEL)
    return ModelParams(gamma=model["gamma"], lam=model["lambda"], kernel=model["kernel"])


def _sim(cfg: dict, seed_override: Optional[int], keys: dict) -> dict:
    """The ``sim`` section read by ``keys``; ``--seed`` replaces ``sim.seed`` unread."""
    section = cfg.get("sim", {})
    if seed_override is not None and isinstance(section, dict):
        section = {**section, "seed": seed_override}
    return _read(section, "sim", keys)


def parse_sim(cfg: dict, seed_override: Optional[int]) -> tuple[SimConfig, int]:
    sim = _sim(cfg, seed_override, SIM)
    sim_config = SimConfig(dt=sim["dt"], integrator=sim["integrator"], seed=sim["seed"])
    return sim_config, sim["n_particles"]


def parse_grid(cfg: dict) -> tuple[dict, float]:
    """Grid geometry plus its dt; "auto" is 0.9 cfl_safety times the geometry's CFL bound."""
    geometry = _read(cfg.get("grid", {}), "grid", GRID)
    nx, nv = geometry["nx"], geometry["nv"]
    if 8 * (GRID_ARRAYS * nx * nv + 2 * (nx * nx + nv * nv)) > MEMORY_BUDGET:
        raise ConfigurationError(f"grids exceed the memory budget of {MEMORY_BUDGET} bytes")
    dt, grid = geometry.pop("dt"), GridConfig(**geometry)   # checks what cfl_bound reads
    return geometry, 0.9 * grid.cfl_safety * cfl_bound(grid, parse_model(cfg)) if dt is None else dt


def parse_initial(section) -> GaussianState:
    """An experiment's ``initial`` Gaussian; None reads every default."""
    return _initial({} if section is None else section, "initial")


def _experiment(cfg: dict, keys: dict, model: ModelParams) -> dict:
    """The ``experiment`` section by ``keys``; ``initial`` excludes ``"stationary_start": true``."""
    section = cfg.get("experiment", {})
    if isinstance(section, dict) and section.get("stationary_start") is True \
            and "initial" in section:
        raise ConfigurationError("experiment 'initial' cannot be set with 'stationary_start': true")
    return _read(section, "experiment", keys, model)


def _out_prefix(cfg: dict, args) -> str:
    prefix = args.out if args.out else cfg.get("output")
    if not prefix or not isinstance(prefix, str):
        raise ConfigurationError("an output prefix is required (--out or config 'output')")
    if not os.path.isdir(os.path.dirname(prefix) or "."):
        raise ConfigurationError(f"the directory of output prefix {prefix!r} does not exist")
    return prefix


def _config(args, command: str) -> argparse.Namespace:
    """Everything ``command`` reads from ``args`` and the sections SCHEMA gives it, all checked,
    with a particle run's memory, before anything is computed."""
    cfg, sections = load_config(args.config), SCHEMA[command]
    run = argparse.Namespace(params=parse_model(cfg))
    if sections.get("sim") is SIM:
        run.sim, run.n = parse_sim(cfg, args.seed)
    elif "sim" in sections:   # lyapunov: only the seed, which its report echoes
        run.seed = _sim(cfg, args.seed, sections["sim"])["seed"]
    if "grid" in sections:
        geometry, dt = parse_grid(cfg)
        run.grid = GridConfig(dt=dt, **geometry)
    vars(run).update(_experiment(cfg, sections["experiment"], run.params))
    if sections.get("sim") is SIM:
        run.n_steps = step_count(run.horizon, run.sim.dt, "horizon")
        run.record_every = step_count(run.sample_dt, run.sim.dt, "sample_dt")
        # each contraction replica steps 2n particles and writes a CSV row a sample; simulate's
        # n particles each step alone and write a row a sample
        lanes, width = (run.replicas, 2 * run.n) if command == "contraction" else (run.n, 1)
        samples = run.n_steps // run.record_every + 2
        if 8 * PARTICLE_WORDS * lanes * (width + samples) > MEMORY_BUDGET:
            raise ConfigurationError(
                f"particle runs exceed the memory budget of {MEMORY_BUDGET} bytes")
    run.prefix = _out_prefix(cfg, args)
    return run


def _run_parameters(params: ModelParams, grid: Optional[GridConfig] = None, **run) -> dict:
    """The run parameters every JSON report carries: the model, the grid geometry, then ``run``."""
    out = {"kernel": params.kernel.name, "gamma": params.gamma, "lambda": params.lam}
    if grid is not None:
        out["grid"] = {"Lx": grid.Lx, "Lv": grid.Lv, "nx": grid.nx, "nv": grid.nv,
                       "splitting": grid.splitting}
    return {**out, **run}


# ----------------------------------------------------------- subcommands ----

def cmd_contraction(args) -> int:
    run = _config(args, "contraction")
    params, sim, n, replicas = run.params, run.sim, run.n, run.replicas
    report = contraction_experiment(params, sim, n, horizon=run.horizon, replicas=replicas,
                                    sample_dt=run.sample_dt)
    write_json(run.prefix + "_contraction.json", _run_parameters(
        params, dt=sim.dt, horizon=run.horizon, integrator=sim.integrator, n_particles=n,
        replicas=replicas, seed=sim.seed, **report.to_dict()))
    mods, eucs, decays = report.modified_norm_sq, report.euclid_sq, [
        math.exp(-report.rate * t) for t in report.times]
    rows = ((r, float(t), float(mods[r, s]), float(eucs[r, s]), float(mods[r, 0] * decay),
             float(4.0 * eucs[r, 0] * decay))   # made one at a time as the CSV is written
            for r in range(replicas) for s, (t, decay) in enumerate(zip(report.times, decays)))
    write_csv(run.prefix + "_contraction.csv",
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
    run = _config(args, "lyapunov")
    params, gcfg = run.params, run.grid
    grid0 = gaussian_grid(gcfg, run.initial.mean, run.initial.cov)

    constants = coupling_constants(params.gamma)
    target = stationary_fixed_point(params, gcfg)

    quadratic = params.kernel.kind == "quadratic_linear"
    rows = run_vfp(grid0, params, gcfg, run.horizon, run.sample_dt, lambda snap: (
        float(snap.t), entropy(snap), classical_free_energy(snap, params),
        quadratic_free_energy(snap, params) if quadratic else float("nan"),
        fisher_information(snap, params, np.eye(2)),
        fisher_information(snap, params, constants.A), w2_grid(snap, target), snap.mass()))

    report = _run_parameters(params, gcfg, dt=gcfg.dt, horizon=run.horizon, seed=run.seed,
                             smallness=smallness_holds(params), witness=None)
    if quadratic:
        increments = np.diff([row[3] for row in rows])   # F_quadratic
        report["max_F_increase"] = float(increments.max()) if increments.size else 0.0
        report["F_monotone"] = bool(increments.size == 0 or increments.max() <= 1e-6)
    if run.witness_search:
        report["witness"] = _lyapunov_witness(params, gcfg, target)
    write_json(run.prefix + "_lyapunov.json", report)   # strict, so before the CSV
    write_csv(run.prefix + "_lyapunov.csv",
              ["t", "entropy", "E_classical", "F_quadratic", "fisher_I", "fisher_A",
               "w2_to_stationary", "mass"], rows)
    return 0


def cmd_fisher(args) -> int:
    run = _config(args, "fisher")
    params, gcfg = run.params, run.grid
    constants = coupling_constants(params.gamma)
    rate = constants.contraction_rate
    grid0 = (stationary_fixed_point(params, gcfg) if run.stationary_start
             else gaussian_grid(gcfg, run.initial.mean, run.initial.cov))

    fisher = run_vfp(grid0, params, gcfg, run.horizon, run.sample_dt, lambda snap: (
        float(snap.t), fisher_information(snap, params, constants.A),
        fisher_information(snap, params, np.eye(2))))
    _, i_a0, i_i0 = fisher[0]
    rows = [(t, i_a, i_i, i_a0 * math.exp(-rate * t), 4.0 * i_i0 * math.exp(-rate * t))
            for t, i_a, i_i in fisher]
    violated = any(i_a > env_a * FISHER_SLACK or i_i > env_i * FISHER_SLACK
                   for _, i_a, i_i, env_a, env_i in rows)
    write_json(run.prefix + "_fisher.json", _run_parameters(   # strict, so before the CSV
        params, gcfg, dt=gcfg.dt, horizon=run.horizon, rate=rate,
        smallness=smallness_holds(params), envelope_ok=not violated, slack=FISHER_SLACK))
    write_csv(run.prefix + "_fisher.csv",
              ["t", "fisher_A", "fisher_I", "envelope_A", "envelope_I"], rows)
    if violated and smallness_holds(params):
        print("warning: fisher envelope violated inside the guaranteed regime",
              file=sys.stderr)
        return 3
    if not smallness_holds(params):
        print("warning: smallness condition violated: decay is not guaranteed",
              file=sys.stderr)
    return 0


def cmd_stationary(args) -> int:
    run = _config(args, "stationary")   # the fixed point reads only the grid geometry
    params = run.params
    grid = stationary_fixed_point(params, run.grid, tol=run.tol, max_iter=run.max_iter)
    xc, w = x_marginal(grid)
    write_json(run.prefix + "_stationary_summary.json", _run_parameters(   # strict, so first
        params, run.grid, mass=grid.mass(), mean_x=float(xc @ w),
        fisher_A=fisher_information(grid, params, coupling_constants(params.gamma).A),
        smallness=smallness_holds(params)))
    grid_to_csv(grid, run.prefix + "_stationary.csv")
    grid_to_binary(grid, run.prefix + "_stationary")
    return 0


def cmd_oracle(args) -> int:
    run = _config(args, "oracle")
    params, initial = run.params, run.initial
    try:
        states = moment_flow(initial, params, run.times)
        target = stationary_gaussian(params)
    except ValueError as exc:   # from GaussianState: the flow left the finite Gaussians
        raise VfpError(f"the Gaussian moment flow cannot be represented: {exc}") from exc
    flow = [{"t": float(t), "mean": s.mean.tolist(), "cov": s.cov.tolist(),
             "bures_to_stationary": bures_w2(s, target)}
            for t, s in zip(run.times, states)]
    limit = free_energy_quadratic(initial, params)
    # For every N the equilibrium's position mean is -lam*b, the stationary one.
    table = [{"n": n, "free_energy": free_energy_particle_limit(initial, params, n),
              "gibbs_mean_x": float(target.mean[0])}
             for n in run.n_values]
    write_json(run.prefix + "_oracle.json", _run_parameters(
        params, stationary_gaussian={"mean": target.mean.tolist(), "cov": target.cov.tolist()},
        moment_flow=flow, free_energy_quadratic=limit, free_energy_particle_limit=table))
    return 0


def cmd_simulate(args) -> int:
    run = _config(args, "simulate")
    rng = np.random.default_rng([run.sim.seed, 424242])
    (c00, _), (c10, c11) = run.initial.cov   # its Cholesky factor, rounded as LAPACK's potrf
    l10 = c10 * (1.0 / math.sqrt(c00))
    chol = np.array([[math.sqrt(c00), 0.0], [l10, math.sqrt(c11 - l10 * l10)]])
    draws = rng.standard_normal((2, run.n))
    xv = run.initial.mean[:, None] + chol @ draws
    state = ParticleState(x=xv[0], v=xv[1])
    snaps = simulate(state, run.params, run.sim, run.n_steps, record_every=run.record_every)
    rows = ((float(s.t), i, float(s.x[i]), float(s.v[i]))
            for s in snaps for i in range(s.n))
    write_csv(run.prefix + "_trajectory.csv", ["t", "i", "x", "v"], rows)
    return 0


# ----------------------------------------------------------------- main -----

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vfplab",
        description="Experiments on the kinetic mean-field model: coupled-pair "
                    "contraction, free-energy decay, twisted Fisher information, "
                    "steady states, Gaussian oracles, and raw simulation.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in SCHEMA:
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
