"""Workload configs generated from a seed, and the checks on their artifacts.

Every workload is one vfplab subcommand run on a config that this module
writes.  The seed picks the inputs (noise seed, initial Gaussian); the sizes
are fixed per scale, so the cost of a run does not depend on the seed.
"""

from __future__ import annotations

import csv
import json
import math
import os
import random

WORKLOADS = ("contraction", "fisher", "lyapunov", "oracle")

SINE = {"gamma": 1.0, "lambda": 0.125, "kernel": {"type": "sine", "amplitude": 1.0}}
QUADRATIC = {"gamma": 1.0, "lambda": 0.5,
             "kernel": {"type": "quadratic_linear", "a": 1.0, "b": 1.0}}

# Sizes per scale.  "full" is what the benchmark measures; "tiny" keeps the
# benchmark's own smoke tests to a second or two per workload.
SIZES = {
    "full": {
        "contraction": {"n_particles": 64, "replicas": 1, "horizon": 6.0},
        "fisher": {"n": 256, "dt": 5e-4, "horizon": 0.15, "sample_dt": 0.05},
        "lyapunov": {"n": 128, "dt": 1e-3, "horizon": 1.0, "sample_dt": 0.5,
                     "w2_samples": 1024},
        "oracle": {"max_n": 2048},
    },
    "tiny": {
        "contraction": {"n_particles": 8, "replicas": 2, "horizon": 0.05},
        "fisher": {"n": 32, "dt": 5e-3, "horizon": 0.05, "sample_dt": 0.025},
        "lyapunov": {"n": 64, "dt": 5e-3, "horizon": 0.5, "sample_dt": 0.5,
                     "w2_samples": 256},
        "oracle": {"max_n": 64},
    },
}

# The lyapunov inputs do not follow the seed.  Its time is mostly the exact
# assignment solver inside w2_grid, whose cost depends on the sampled clouds:
# over 16 sample seeds its CPU time had an interquartile range of 19% of the
# median, more than the bound the benchmark sets on wall_s.  So the workload
# keeps the default initial state (1, 0) and one sample seed.
LYAPUNOV_SEED = 1

# Largest accepted |F_quadratic - free_energy_quadratic(moment_flow)| on the
# lyapunov workload: the grid discretization error is 0.030 at 128^2 and 0.044
# at 64^2; a change that doubles the full-size error fails the run.
FQ_TOL = 0.06


def make_config(workload: str, seed: int, out_prefix: str, scale: str = "full") -> tuple[dict, int]:
    """Return (config, cli_seed) for one workload; both are pure functions of ``seed``."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    rng = random.Random(f"{workload}:{seed}")
    cli_seed = rng.randrange(2 ** 31) if workload != "lyapunov" else LYAPUNOV_SEED
    size = SIZES[scale][workload]
    if workload == "contraction":
        cfg = {"model": SINE,
               "sim": {"dt": 1e-3, "seed": cli_seed, "n_particles": size["n_particles"],
                       "integrator": "kinetic_splitting"},
               "experiment": {"horizon": size["horizon"], "replicas": size["replicas"],
                              "sample_dt": 0.1 * size["horizon"]}}
    elif workload == "fisher":
        cfg = {"model": SINE,
               "grid": {"Lx": 8.0, "Lv": 8.0, "nx": size["n"], "nv": size["n"], "dt": size["dt"]},
               "experiment": {"horizon": size["horizon"], "sample_dt": size["sample_dt"],
                              "initial": {"mean": [rng.uniform(0.5, 1.5), rng.uniform(-0.5, 0.5)],
                                          "cov": [[1.0, 0.0], [0.0, 1.0]]}}}
    elif workload == "lyapunov":
        cfg = {"model": QUADRATIC,
               "grid": {"Lx": 6.0, "Lv": 6.0, "nx": size["n"], "nv": size["n"], "dt": size["dt"]},
               "experiment": {"horizon": size["horizon"], "sample_dt": size["sample_dt"],
                              "w2_samples": size["w2_samples"]}}
    else:
        c = rng.uniform(-0.3, 0.3)
        cfg = {"model": QUADRATIC,
               "experiment": {"initial": {"mean": [rng.uniform(-1, 1), rng.uniform(-1, 1)],
                                          "cov": [[rng.uniform(0.5, 1.5), c],
                                                  [c, rng.uniform(0.5, 1.5)]]},
                              "n_values": [2 ** k for k in range(1, size["max_n"].bit_length())]}}
    cfg["output"] = out_prefix
    return cfg, cli_seed


def artifacts(workload: str, prefix: str) -> list[str]:
    """Files a successful run writes."""
    suffixes = {"contraction": ["_contraction.json", "_contraction.csv"],
                "fisher": ["_fisher.json", "_fisher.csv"],
                "lyapunov": ["_lyapunov.json", "_lyapunov.csv"],
                "oracle": ["_oracle.json"]}[workload]
    return [prefix + s for s in suffixes]


def _rows(path: str) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _json(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)


def lyapunov_errors(cfg: dict, prefix: str) -> dict:
    """Distance of the lyapunov CSV from the exact Gaussian moment flow.

    w2_err: max over snapshots of |w2_to_stationary - bures_w2(moment_flow(t), stationary)|;
    fq_err: max over snapshots of |F_quadratic - free_energy_quadratic(moment_flow(t))|.
    """
    from vfplab import (GaussianState, ModelParams, bures_w2, builtin_kernel,
                        free_energy_quadratic, moment_flow, stationary_gaussian)

    m = cfg["model"]
    params = ModelParams(gamma=m["gamma"], lam=m["lambda"], kernel=builtin_kernel(m["kernel"]))
    rows = _rows(prefix + "_lyapunov.csv")
    times = [float(r["t"]) for r in rows]
    flow = moment_flow(GaussianState(mean=[1.0, 0.0], cov=[[1.0, 0.0], [0.0, 1.0]]), params, times)
    target = stationary_gaussian(params)
    return {
        "w2_err": max(abs(float(r["w2_to_stationary"]) - bures_w2(g, target))
                      for r, g in zip(rows, flow)),
        "fq_err": max(abs(float(r["F_quadratic"]) - free_energy_quadratic(g, params))
                      for r, g in zip(rows, flow)),
    }


def check(workload: str, cfg: dict, prefix: str) -> list[str]:
    """Problems with a finished run's artifacts; an empty list means correct."""
    missing = [p for p in artifacts(workload, prefix) if not os.path.exists(p)]
    if missing:
        return [f"missing artifacts {missing}"]
    problems = []
    exp = cfg["experiment"]
    if workload == "contraction":
        report = _json(prefix + "_contraction.json")
        if not report["envelope_ok"]:
            problems.append("envelope_ok is false")
        if not report["smallness"]:
            problems.append("smallness is false")
        rows = _rows(prefix + "_contraction.csv")
        if len(rows) != exp["replicas"] * len(report["times"]):
            problems.append(f"{len(rows)} CSV rows for {exp['replicas']} replicas "
                            f"x {len(report['times'])} samples")
    elif workload == "fisher":
        if not _json(prefix + "_fisher.json")["envelope_ok"]:
            problems.append("envelope_ok is false")
        if not all(math.isfinite(float(r["fisher_A"])) for r in _rows(prefix + "_fisher.csv")):
            problems.append("fisher_A is not finite")
    elif workload == "lyapunov":
        report = _json(prefix + "_lyapunov.json")
        if not all(abs(float(r["mass"]) - 1.0) <= 1e-10 for r in _rows(prefix + "_lyapunov.csv")):
            problems.append("mass drifted beyond 1e-10")
        if not report.get("F_monotone"):
            problems.append("F_quadratic is not monotone")
        if report.get("witness") is None:
            problems.append("no witness of an increasing classical free energy")
        errs = lyapunov_errors(cfg, prefix)
        # w2_grid promises Monte Carlo accuracy of about n^-1/4.
        if not errs["w2_err"] <= exp["w2_samples"] ** -0.25:
            problems.append(f"w2_err {errs['w2_err']:g} above n^-1/4")
        if not errs["fq_err"] <= FQ_TOL:
            problems.append(f"fq_err {errs['fq_err']:g} above {FQ_TOL}")
    else:
        table = _json(prefix + "_oracle.json")["free_energy_particle_limit"]
        lam_b = cfg["model"]["lambda"] * cfg["model"]["kernel"]["b"]
        if any(row["gibbs_mean_x"] != -lam_b for row in table):
            problems.append("gibbs_mean_x differs from -lambda*b")
        f = [row["free_energy"] for row in table]
        gaps = [a - b for a, b in zip(f, f[1:])]
        # F_N - F_2N = O(1/N): successive gaps halve once N >= 8.
        for row, g, g2 in zip(table, gaps, gaps[1:]):
            if row["n"] >= 8 and not abs(g / g2 - 2.0) <= 0.25:
                problems.append(f"gap ratio {g / g2:g} at N={row['n']} is not about 2")
    return problems
