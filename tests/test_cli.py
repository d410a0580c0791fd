"""CLI subcommands: artifacts, exit codes, reproducibility, validation order."""

import json
import pathlib
import subprocess
import sys
import textwrap
import threading
import tracemalloc

import numpy as np
import pytest

import vfplab.cli
import vfplab.pde
from vfplab import (ConfigurationError, GridConfig, ModelParams, SchemeError, builtin_kernel,
                    cfl_bound, gaussian_grid, run_vfp, stationary_fixed_point, w2_grid)
from vfplab.cli import main
from vfplab.output import fmt_float, write_csv, write_json


def write_config(path, payload):
    path.write_text(json.dumps(payload))
    return str(path)


def read_header(path):
    return path.read_text().splitlines()[0]


# -------------------------------------------------------------- formatting --

def test_fmt_float_round_trips_doubles():
    rng = np.random.default_rng(0)
    for x in rng.normal(scale=1e3, size=200):
        assert float(fmt_float(float(x))) == float(x)
    assert fmt_float(float("nan")) == "nan"
    assert fmt_float(0.1) == "0.10000000000000001"


def test_csv_and_json_writers(tmp_path):
    csv_path = tmp_path / "t.csv"
    write_csv(str(csv_path), ["a", "b"], [(1, 0.5), (2, float("nan"))])
    assert csv_path.read_text() == "a,b\n1,0.5\n2,nan\n"
    json_path = tmp_path / "t.json"
    write_json(str(json_path), {"z": 1, "a": [1.5, 2.5]})
    text = json_path.read_text()
    assert text.index('"a"') < text.index('"z"')
    assert json.loads(text) == {"z": 1, "a": [1.5, 2.5]}


# ------------------------------------------------------------- subcommands --

def assert_run_parameters(report, grid=True, **run):
    """The model keys every report carries, the grid keys of grid reports, and ``run``'s values."""
    assert {"kernel", "gamma", "lambda"} <= set(report)
    if grid:
        assert set(report["grid"]) == {"Lx", "Lv", "nx", "nv", "splitting"}
    else:
        assert "grid" not in report
    for key, value in run.items():
        assert report[key] == value, key


def contraction_config(tmp_path, seed=11):
    return write_config(tmp_path / "c.json", {
        "model": {"gamma": 1.0, "lambda": 0.125,
                  "kernel": {"type": "sine", "amplitude": 1.0}},
        "sim": {"dt": 0.002, "seed": seed, "n_particles": 8},
        "experiment": {"horizon": 0.5, "replicas": 2, "sample_dt": 0.1},
        "output": str(tmp_path / "run"),
    })


def small_config(command, tmp_path):
    """A quick valid config for ``command`` writing under ``tmp_path / "run"``."""
    if command == "contraction":
        return json.loads(open(contraction_config(tmp_path)).read())
    out = str(tmp_path / "run")
    if command == "simulate":
        return {"model": {"gamma": 1.0, "lambda": 0.0, "kernel": "zero"},
                "sim": {"dt": 0.005, "seed": 2, "n_particles": 4},
                "experiment": {"horizon": 0.05, "sample_dt": 0.02}, "output": out}
    quadratic = {"gamma": 1.0, "lambda": 0.0625,
                 "kernel": {"type": "quadratic_linear", "a": 1.0, "b": 1.0}}
    if command == "oracle":
        return {"model": quadratic, "experiment": {"times": [0.0], "n_values": [2]},
                "output": out}
    experiment = {
        "lyapunov": {"horizon": 0.1, "sample_dt": 0.1, "witness_search": False},
        "fisher": {"horizon": 0.1, "sample_dt": 0.1, "stationary_start": False},
        "stationary": {"tol": 1e-10},
    }[command]
    return {"model": quadratic,
            "grid": {"Lx": 6.0, "Lv": 6.0, "nx": 16, "nv": 16, "dt": 0.004},
            "experiment": experiment, "output": out}


@pytest.mark.parametrize("command", ["contraction", "lyapunov", "fisher", "stationary",
                                     "oracle", "simulate"])
def test_small_configs_run(tmp_path, command):
    # the malformed-number cases below break exactly one value of these configs
    config = small_config(command, tmp_path)
    assert main([command, "--config", write_config(tmp_path / "ok.json", config)]) == 0


def test_contraction_subcommand(tmp_path):
    cfg = contraction_config(tmp_path)
    assert main(["contraction", "--config", cfg]) == 0
    csv_path = tmp_path / "run_contraction.csv"
    assert read_header(csv_path) == ("replica,t,modified_norm_sq,euclid_sq,"
                                     "envelope_modified,envelope_euclid")
    report = json.loads((tmp_path / "run_contraction.json").read_text())
    assert report["envelope_ok"] is True
    assert report["smallness"] is True
    assert report["rate"] == 0.125
    assert len(report["fitted_rate"]) == 2
    assert_run_parameters(report, grid=False, kernel="sine(amplitude=1)", gamma=1.0, dt=0.002,
                          horizon=0.5, integrator="kinetic_splitting", n_particles=8,
                          replicas=2, seed=11)
    assert report["lambda"] == 0.125 and "lam" not in report
    # 2 replicas x (6 samples + t=0)
    assert len(csv_path.read_text().splitlines()) == 1 + 2 * 6


def test_contraction_is_byte_identical(tmp_path):
    cfg = contraction_config(tmp_path)
    assert main(["contraction", "--config", cfg]) == 0
    first = (tmp_path / "run_contraction.csv").read_bytes()
    assert main(["contraction", "--config", cfg]) == 0
    assert (tmp_path / "run_contraction.csv").read_bytes() == first


def test_contraction_seed_override_changes_output(tmp_path):
    cfg = contraction_config(tmp_path)
    assert main(["contraction", "--config", cfg]) == 0
    first = (tmp_path / "run_contraction.csv").read_bytes()
    assert main(["contraction", "--config", cfg, "--seed", "99"]) == 0
    assert (tmp_path / "run_contraction.csv").read_bytes() != first


def test_simulate_subcommand(tmp_path):
    cfg = write_config(tmp_path / "s.json", {
        "model": {"gamma": 1.0, "lambda": 0.0, "kernel": "zero"},
        "sim": {"dt": 0.005, "seed": 2, "n_particles": 4},
        "experiment": {"horizon": 0.05, "sample_dt": 0.02,
                       "initial": {"mean": [0.0, 0.0]}},
        "output": str(tmp_path / "run"),
    })
    assert main(["simulate", "--config", cfg]) == 0
    lines = (tmp_path / "run_trajectory.csv").read_text().splitlines()
    assert lines[0] == "t,i,x,v"
    # snapshots at steps 0, 4, 8, 10 with 4 particles each
    assert len(lines) == 1 + 4 * 4


def test_simulate_starts_from_the_cholesky_factor_of_its_covariance(tmp_path):
    # np.linalg.cholesky is the tests' reference only: simulate factors the 2x2 in closed form
    cov = [[1.3, -0.4], [-0.4, 0.6]]
    cfg = write_config(tmp_path / "s.json", {
        "model": {"gamma": 1.0, "lambda": 0.0, "kernel": "zero"},
        "sim": {"dt": 0.005, "seed": 7, "n_particles": 50},
        "experiment": {"horizon": 0.005, "sample_dt": 0.005,
                       "initial": {"mean": [0.5, -1.0], "cov": cov}},
        "output": str(tmp_path / "run")})
    assert main(["simulate", "--config", cfg]) == 0
    rows = np.loadtxt(tmp_path / "run_trajectory.csv", delimiter=",", skiprows=1)
    start = rows[rows[:, 0] == 0.0]
    draws = np.random.default_rng([7, 424242]).standard_normal((2, 50))
    ref = np.array([[0.5], [-1.0]]) + np.linalg.cholesky(cov) @ draws
    assert np.abs(start[:, 2:].T - ref).max() <= 1e-15 * np.abs(ref).max()


def test_lyapunov_subcommand(tmp_path):
    cfg = write_config(tmp_path / "l.json", {
        "model": {"gamma": 1.0, "lambda": 0.0625,
                  "kernel": {"type": "quadratic_linear", "a": 1.0, "b": 1.0}},
        "grid": {"Lx": 6.0, "Lv": 6.0, "nx": 32, "nv": 32, "dt": 0.004},
        "experiment": {"horizon": 0.2, "sample_dt": 0.1, "w2_samples": 128,
                       "witness_search": False,
                       "initial": {"mean": [0.5, 0.0]}},
        "output": str(tmp_path / "run"),
    })
    assert main(["lyapunov", "--config", cfg]) == 0
    header = read_header(tmp_path / "run_lyapunov.csv")
    assert header == ("t,entropy,E_classical,F_quadratic,fisher_I,fisher_A,"
                      "w2_to_stationary,mass")
    report = json.loads((tmp_path / "run_lyapunov.json").read_text())
    assert report["smallness"] is True
    assert "F_monotone" in report and "max_F_increase" in report
    assert report["witness"] is None
    assert_run_parameters(report, dt=0.004, horizon=0.2, seed=0)


def test_lyapunov_report_records_the_auto_dt(tmp_path):
    config = small_config("lyapunov", tmp_path)
    config["grid"]["dt"] = "auto"
    assert main(["lyapunov", "--config", write_config(tmp_path / "a.json", config)]) == 0
    report = json.loads((tmp_path / "run_lyapunov.json").read_text())
    probe = GridConfig(Lx=6.0, Lv=6.0, nx=16, nv=16, dt=1.0)
    params = ModelParams(gamma=1.0, lam=0.0625, kernel=builtin_kernel(config["model"]["kernel"]))
    auto = 0.9 * 0.5 * cfl_bound(gaussian_grid(probe, [1.0, 0.0], np.eye(2)), params)
    assert_run_parameters(report, dt=auto, horizon=0.1, seed=0)


@pytest.mark.parametrize("b, lam", [(4.0, 1.0), (8.0, 0.5), (8.0, 1.0)])
def test_fisher_report_records_the_auto_dt_of_the_fixed_point(tmp_path, b, lam):
    # the CFL budget of the fixed point it steps, tighter here than that of N(0, I)
    config = small_config("fisher", tmp_path)
    config["model"] = {"gamma": 1.0, "lambda": lam,
                       "kernel": {"type": "quadratic_linear", "a": 0.5, "b": b}}
    config["grid"] = {"Lx": 6.0, "Lv": 6.0, "nx": 64, "nv": 32, "dt": "auto"}
    config["experiment"] = {"horizon": 0.05, "stationary_start": True}
    assert main(["fisher", "--config", write_config(tmp_path / "a.json", config)]) == 0
    report = json.loads((tmp_path / "run_fisher.json").read_text())
    probe = GridConfig(Lx=6.0, Lv=6.0, nx=64, nv=32, dt=1.0)
    params = ModelParams(gamma=1.0, lam=lam, kernel=builtin_kernel(config["model"]["kernel"]))
    with pytest.warns(UserWarning, match="smallness"):   # library callers keep Python's warning
        target = stationary_fixed_point(params, probe)
    assert_run_parameters(report, dt=0.9 * 0.5 * cfl_bound(target, params), horizon=0.05)


@pytest.mark.parametrize("n", [12, 16, 24, 64])
def test_fisher_with_an_auto_dt_runs_to_its_horizon(tmp_path, n):
    # the force grows as the mean moves from 1 towards -1: a dt from the CFL bound of the
    # state at t = 0 failed the check of a later step; the geometry's bound holds for all
    config = {"model": {"gamma": 1.0, "lambda": 1.0,
                        "kernel": {"type": "quadratic_linear", "a": 0.5, "b": 1.0}},
              "grid": {"Lx": 8.0, "Lv": 8.0, "nx": n, "nv": n, "dt": "auto"},
              "experiment": {"horizon": 10.0, "initial": {"mean": [1.0, 0.0]}},
              "output": str(tmp_path / "run")}
    assert main(["fisher", "--config", write_config(tmp_path / "a.json", config)]) == 0
    report = json.loads((tmp_path / "run_fisher.json").read_text())
    params = ModelParams(gamma=1.0, lam=1.0, kernel=builtin_kernel(config["model"]["kernel"]))
    geometry = GridConfig(Lx=8.0, Lv=8.0, nx=n, nv=n)
    assert_run_parameters(report, dt=0.9 * 0.5 * cfl_bound(geometry, params), horizon=10.0)


def test_lyapunov_w2_column_equals_direct_solves(tmp_path):
    # each row gets its own snapshot's distance, computed inline as the snapshots arrive
    config = small_config("lyapunov", tmp_path)
    config["experiment"].update(horizon=0.2, sample_dt=0.04)
    assert main(["lyapunov", "--config", write_config(tmp_path / "l.json", config)]) == 0
    lines = (tmp_path / "run_lyapunov.csv").read_text().splitlines()
    column = lines[0].split(",").index("w2_to_stationary")
    got = [float(line.split(",")[column]) for line in lines[1:]]
    cfg = GridConfig(Lx=6.0, Lv=6.0, nx=16, nv=16, dt=0.004)
    params = ModelParams(gamma=1.0, lam=0.0625, kernel=builtin_kernel(config["model"]["kernel"]))
    target = stationary_fixed_point(params, cfg)
    snaps = run_vfp(gaussian_grid(cfg, [1.0, 0.0], np.eye(2)), params, cfg, 0.2, sample_dt=0.04)
    assert len(got) == len(snaps) == 6
    assert got == [w2_grid(snap, target) for snap in snaps]


def test_lyapunov_step_failure_exits_two_and_leaves_no_worker(tmp_path, monkeypatch):
    real_step, steps = vfplab.pde.vfp_step, []

    def failing_step(grid, params, cfg, n_steps=1):
        steps.append(grid.t)
        if len(steps) > 3:
            raise SchemeError(f"negative cell beyond clamp tolerance at t={grid.t:g}")
        return real_step(grid, params, cfg, n_steps)

    monkeypatch.setattr(vfplab.pde, "vfp_step", failing_step)
    config = small_config("lyapunov", tmp_path)
    config["experiment"].update(horizon=0.2, sample_dt=0.004)   # a W2 solve per step
    threads = threading.active_count()
    assert main(["lyapunov", "--config", write_config(tmp_path / "l.json", config)]) == 2
    assert not (tmp_path / "run_lyapunov.csv").exists()
    assert threading.active_count() == threads


def test_lyapunov_w2_failure_keeps_its_exit_code(tmp_path, monkeypatch):
    def failing_w2(*args, **kwargs):
        raise ConfigurationError("w2 solve rejected")

    monkeypatch.setattr(vfplab.cli, "w2_grid", failing_w2)
    config = small_config("lyapunov", tmp_path)
    threads = threading.active_count()
    assert main(["lyapunov", "--config", write_config(tmp_path / "l.json", config)]) == 1
    assert not (tmp_path / "run_lyapunov.csv").exists()
    assert threading.active_count() == threads


def test_lyapunov_witness_failure_writes_nothing(tmp_path, monkeypatch):
    # the witness probes step other states, so they can still fail the CFL check after the run
    def failing_witness(*args, **kwargs):
        raise ConfigurationError("dt=0.004 violates the CFL budget 0.003 at t=0")

    monkeypatch.setattr(vfplab.cli, "_lyapunov_witness", failing_witness)
    config = small_config("lyapunov", tmp_path)
    config["experiment"]["witness_search"] = True
    assert main(["lyapunov", "--config", write_config(tmp_path / "l.json", config)]) == 1
    assert not list(tmp_path.glob("run*"))


def test_lyapunov_reads_only_the_seed_of_sim(tmp_path, capsys):
    config = small_config("lyapunov", tmp_path)
    assert main(["lyapunov", "--config", write_config(tmp_path / "a.json", config)]) == 0
    plain = [(tmp_path / f"run_lyapunov.{ext}").read_bytes() for ext in ("csv", "json")]
    config["sim"] = {"dt": -5, "integrator": "leapfrog", "n_particles": 1}
    assert main(["lyapunov", "--config", write_config(tmp_path / "b.json", config)]) == 0
    assert [(tmp_path / f"run_lyapunov.{ext}").read_bytes() for ext in ("csv", "json")] == plain
    config["sim"]["seed"] = 2.5
    assert main(["lyapunov", "--config", write_config(tmp_path / "c.json", config)]) == 1
    assert "seed" in capsys.readouterr().err


def test_lyapunov_w2_samples_and_seed_change_no_output(tmp_path, capsys):
    # w2_samples is deprecated: still checked, then ignored with one warning line
    config = small_config("lyapunov", tmp_path)
    assert main(["lyapunov", "--config", write_config(tmp_path / "a.json", config)]) == 0
    plain = [(tmp_path / f"run_lyapunov.{ext}").read_bytes() for ext in ("csv", "json")]
    assert capsys.readouterr().err == ""
    config["experiment"]["w2_samples"] = 64
    assert main(["lyapunov", "--config", write_config(tmp_path / "b.json", config)]) == 0
    assert [(tmp_path / f"run_lyapunov.{ext}").read_bytes() for ext in ("csv", "json")] == plain
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("warning: w2_samples is ignored")
    # the seed is only echoed in the report
    assert main(["lyapunov", "--config", str(tmp_path / "a.json"), "--seed", "7"]) == 0
    assert (tmp_path / "run_lyapunov.csv").read_bytes() == plain[0]
    assert json.loads((tmp_path / "run_lyapunov.json").read_text())["seed"] == 7


@pytest.mark.parametrize("command", ["contraction", "lyapunov", "fisher", "stationary",
                                     "oracle", "simulate"])
def test_no_subcommand_loads_scipy(tmp_path, command):
    # nor calls a numpy.linalg function or np.polyfit, which raise in the child; import
    # vfplab.cli leaves numpy.random out, and only the subcommands that draw noise load it
    cfg = write_config(tmp_path / "ok.json", small_config(command, tmp_path))
    code = textwrap.dedent("""
        import json, sys, numpy
        def refuse(*args, **kwargs):
            raise AssertionError("numpy.linalg or np.polyfit called")
        for name in numpy.linalg.__all__:
            if callable(getattr(numpy.linalg, name)) and name != "LinAlgError":
                setattr(numpy.linalg, name, refuse)
        numpy.polyfit = refuse
        random = lambda: sorted({"numpy.random", "_hashlib"} & set(sys.modules))
        import vfplab.cli
        at_import = random()
        code = vfplab.cli.main(sys.argv[1:])
        print(json.dumps([code, at_import, random(),
                          sorted(m for m in sys.modules if m.split(".")[0] == "scipy")]))""")
    out = subprocess.run([sys.executable, "-c", code, command, "--config", cfg],
                         capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    code, at_import, after_run, scipy = json.loads(out.stdout)
    assert code == 0 and at_import == [] and scipy == []
    if command not in ("contraction", "simulate"):
        assert after_run == []


def test_stationary_ignores_the_grid_dt(tmp_path):
    # no output reads the dt, which is still checked as lyapunov and fisher check theirs
    config = small_config("stationary", tmp_path)
    files = ["run_stationary.csv", "run_stationary.bin", "run_stationary.json",
             "run_stationary_summary.json"]
    del config["grid"]["dt"]
    assert main(["stationary", "--config", write_config(tmp_path / "a.json", config)]) == 0
    plain = [(tmp_path / name).read_bytes() for name in files]
    config["grid"]["dt"] = 0.01
    assert main(["stationary", "--config", write_config(tmp_path / "b.json", config)]) == 0
    assert [(tmp_path / name).read_bytes() for name in files] == plain
    config["grid"]["dt"] = -1
    assert main(["stationary", "--config", write_config(tmp_path / "c.json", config)]) == 1


def test_lyapunov_witness_search(tmp_path):
    cfg = write_config(tmp_path / "w.json", {
        "model": {"gamma": 1.0, "lambda": 1.0,
                  "kernel": {"type": "quadratic_linear", "a": 1.0, "b": 1.0}},
        "grid": {"Lx": 6.0, "Lv": 6.0, "nx": 48, "nv": 48, "dt": 0.004},
        "experiment": {"horizon": 0.05, "sample_dt": 0.05, "w2_samples": 64},
        "output": str(tmp_path / "run"),
    })
    assert main(["lyapunov", "--config", cfg]) == 0
    report = json.loads((tmp_path / "run_lyapunov.json").read_text())
    witness = report["witness"]
    assert witness is not None
    assert witness["dEdt_estimate"] > 0.0
    assert witness["mean"] == [0.0, -0.5]


def test_fisher_subcommand(tmp_path):
    cfg = write_config(tmp_path / "f.json", {
        "model": {"gamma": 1.0, "lambda": 0.0, "kernel": "zero"},
        "grid": {"Lx": 6.0, "Lv": 6.0, "nx": 32, "nv": 32, "dt": 0.004},
        "experiment": {"horizon": 0.3, "sample_dt": 0.1,
                       "initial": {"mean": [1.0, 0.0]}},
        "output": str(tmp_path / "run"),
    })
    assert main(["fisher", "--config", cfg]) == 0
    assert read_header(tmp_path / "run_fisher.csv") == \
        "t,fisher_A,fisher_I,envelope_A,envelope_I"
    report = json.loads((tmp_path / "run_fisher.json").read_text())
    assert report["envelope_ok"] is True
    assert report["rate"] == 0.125
    assert_run_parameters(report, dt=0.004, horizon=0.3)


def test_fisher_envelope_violation_exit_code(tmp_path):
    # starting at the discrete steady state, the information sits at the grid
    # floor while the envelope decays from zero: an honest violation
    cfg = write_config(tmp_path / "f3.json", {
        "model": {"gamma": 1.0, "lambda": 0.125,
                  "kernel": {"type": "sine", "amplitude": 1.0}},
        "grid": {"Lx": 8.0, "Lv": 8.0, "nx": 48, "nv": 48, "dt": 0.004},
        "experiment": {"horizon": 1.5, "sample_dt": 0.5, "stationary_start": True},
        "output": str(tmp_path / "run"),
    })
    assert main(["fisher", "--config", cfg]) == 3
    assert json.loads((tmp_path / "run_fisher.json").read_text())["envelope_ok"] is False


def test_stationary_subcommand(tmp_path):
    cfg = write_config(tmp_path / "st.json", {
        "model": {"gamma": 1.0, "lambda": 0.125,
                  "kernel": {"type": "sine", "amplitude": 1.0}},
        "grid": {"Lx": 6.0, "Lv": 6.0, "nx": 32, "nv": 32, "dt": 0.004},
        "output": str(tmp_path / "run"),
    })
    assert main(["stationary", "--config", cfg]) == 0
    assert read_header(tmp_path / "run_stationary.csv") == "x,v,f"
    summary = json.loads((tmp_path / "run_stationary_summary.json").read_text())
    assert abs(summary["mass"] - 1.0) < 1e-10
    assert summary["fisher_A"] < 1e-10
    assert_run_parameters(summary)
    header = json.loads((tmp_path / "run_stationary.json").read_text())
    data = np.fromfile(tmp_path / "run_stationary.bin").reshape(header["nx"], header["nv"])
    assert data.min() >= 0.0


def test_oracle_subcommand(tmp_path):
    cfg = write_config(tmp_path / "o.json", {
        "model": {"gamma": 1.0, "lambda": 0.5,
                  "kernel": {"type": "quadratic_linear", "a": 1.0, "b": 1.0}},
        "experiment": {"initial": {"mean": [1.0, 0.0]},
                       "times": [0.0, 1.0], "n_values": [2, 16]},
        "output": str(tmp_path / "run"),
    })
    assert main(["oracle", "--config", cfg]) == 0
    payload = json.loads((tmp_path / "run_oracle.json").read_text())
    assert payload["stationary_gaussian"]["mean"] == [-0.5, 0.0]
    flow = payload["moment_flow"]
    assert flow[0]["t"] == 0.0
    assert flow[0]["mean"] == [1.0, 0.0]
    assert flow[0]["bures_to_stationary"] > 0.0
    assert [row["n"] for row in payload["free_energy_particle_limit"]] == [2, 16]
    assert (payload["gamma"], payload["lambda"]) == (1.0, 0.5)
    assert payload["kernel"] == "quadratic_linear(a=1, b=1)"


@pytest.mark.parametrize("n_values", [[2.5], [], ["x"], 5, [True, 4], [1]])
def test_oracle_rejects_malformed_n_values(tmp_path, n_values):
    cfg = write_config(tmp_path / "o.json", {
        "model": {"gamma": 1.0, "lambda": 0.5,
                  "kernel": {"type": "quadratic_linear", "a": 1.0, "b": 1.0}},
        "experiment": {"times": [0.0], "n_values": n_values},
        "output": str(tmp_path / "run"),
    })
    assert main(["oracle", "--config", cfg]) == 1
    assert not (tmp_path / "run_oracle.json").exists()


def test_oracle_table_at_a_million_particles(tmp_path):
    # closed form: no (2N x 2N) matrix, which at N = 1e6 would take 32 TB
    cfg = write_config(tmp_path / "o.json", {
        "model": {"gamma": 1.0, "lambda": 0.5,
                  "kernel": {"type": "quadratic_linear", "a": 1.0, "b": 1.0}},
        "experiment": {"times": [0.0], "n_values": [2.0, 1000000]},
        "output": str(tmp_path / "run"),
    })
    assert main(["oracle", "--config", cfg]) == 0
    table = json.loads((tmp_path / "run_oracle.json").read_text())["free_energy_particle_limit"]
    assert [row["n"] for row in table] == [2, 1000000]
    assert all(np.isfinite(row["free_energy"]) and row["gibbs_mean_x"] == -0.5 for row in table)


def test_simulate_divergence_exit_code(tmp_path):
    cfg = write_config(tmp_path / "d.json", {
        "model": {"gamma": 1.0, "lambda": 1.0,
                  "kernel": {"type": "quadratic_linear", "a": 1.0, "b": 0.0}},
        "sim": {"dt": 10.0, "seed": 0, "n_particles": 4,
                "integrator": "euler_maruyama"},
        "experiment": {"horizon": 5000.0, "sample_dt": 100.0,
                       "initial": {"mean": [1.0, 0.0]}},
        "output": str(tmp_path / "run"),
    })
    with np.errstate(over="ignore", invalid="ignore"):
        assert main(["simulate", "--config", cfg]) == 2


def test_grid_scheme_failure_exits_two(tmp_path, monkeypatch):
    def failing_step(grid, params, cfg, n_steps=1):
        raise SchemeError(f"negative cell beyond clamp tolerance at t={grid.t:g}")

    monkeypatch.setattr(vfplab.pde, "vfp_step", failing_step)
    cfg = write_config(tmp_path / "f.json", {
        "model": {"gamma": 1.0, "lambda": 0.0, "kernel": "zero"},
        "grid": {"Lx": 6.0, "Lv": 6.0, "nx": 32, "nv": 32, "dt": 0.004},
        "experiment": {"horizon": 0.1, "sample_dt": 0.1},
        "output": str(tmp_path / "run"),
    })
    assert main(["fisher", "--config", cfg]) == 2
    assert not (tmp_path / "run_fisher.csv").exists()


@pytest.mark.parametrize("breakage", [
    lambda c: c.update(model=None) or c,
    lambda c: c["model"].update(kernel={"type": "nope"}) or c,
    lambda c: c["model"].pop("gamma") and None or c,
    lambda c: c["experiment"].update(mystery=1) or c,
    lambda c: c.update(grid={"nx": 2}) or c,
    lambda c: c.update(experimnet=c.pop("experiment")) or c,
])
def test_configuration_errors_exit_one(tmp_path, breakage):
    config = {
        "model": {"gamma": 1.0, "lambda": 0.0625,
                  "kernel": {"type": "quadratic_linear", "a": 1.0, "b": 1.0}},
        "grid": {"Lx": 6.0, "Lv": 6.0, "nx": 32, "nv": 32, "dt": 0.004},
        "experiment": {"horizon": 0.1, "sample_dt": 0.1, "w2_samples": 64,
                       "witness_search": False},
        "output": str(tmp_path / "run"),
    }
    cfg = write_config(tmp_path / "bad.json", breakage(config))
    assert main(["lyapunov", "--config", cfg]) == 1
    # validation fails before any artifact is written
    assert not (tmp_path / "run_lyapunov.csv").exists()


@pytest.mark.parametrize("command, section, key, value", [
    ("lyapunov", "model", "gamma", "x"),
    ("lyapunov", "grid", "nx", "abc"),
    ("lyapunov", "grid", "dt", "fast"),
    ("contraction", "sim", "dt", "fast"),
    ("lyapunov", "experiment", "horizon", "long"),
    ("contraction", "kernel", "amplitude", "big"),
    ("oracle", "experiment", "times", ["x"]),
    ("contraction", "sim", "n_particles", 2.5),
    ("contraction", "experiment", "replicas", 1.7),
    ("lyapunov", "grid", "nx", 16.7),
    ("lyapunov", "experiment", "w2_samples", 0.5),
    ("lyapunov", "experiment", "w2_samples", 5000),
    ("contraction", "experiment", "sample_dt", -1),
    ("contraction", "experiment", "sample_dt", 0),
    ("lyapunov", "experiment", "sample_dt", -1),
    ("fisher", "experiment", "sample_dt", 0),
    ("simulate", "experiment", "sample_dt", -1),
    ("contraction", "experiment", "horizon", -1),
    ("lyapunov", "experiment", "horizon", -1),
    ("fisher", "experiment", "horizon", 0),
    ("simulate", "experiment", "horizon", -0.5),
    ("stationary", "experiment", "tol", -1),
    ("stationary", "experiment", "tol", 0),
    ("lyapunov", "experiment", "witness_search", "no"),
    ("lyapunov", "experiment", "witness_search", 0),
    ("fisher", "experiment", "stationary_start", "yes"),
    ("fisher", "experiment", "stationary_start", 1),
    *[(command, "experiment", "initial", initial)
      for command in ("fisher", "lyapunov", "oracle", "simulate")
      for initial in ({"mean": ["1.5", 0.0]}, {"mean": [0.0, True]}, {"mean": [float("nan"), 0.0]},
                      {"cov": [["2", 0.0], [0.0, 1.0]]}, {"cov": [[1.0, 0.0], [0.0, float("inf")]]},
                      {"mean": [0.0, 0.0, 0.0]}, {"cov": [1.0, 1.0]})],
    ("stationary", "experiment", "omega", 0.5),
])
def test_malformed_config_numbers_exit_one(tmp_path, capsys, command, section, key, value):
    config = small_config(command, tmp_path)
    target = config["model"]["kernel"] if section == "kernel" else config[section]
    target[key] = value
    cfg = write_config(tmp_path / "bad.json", config)
    assert main([command, "--config", cfg]) == 1
    err = capsys.readouterr().err
    assert "configuration error" in err and "Traceback" not in err and key in err
    # rejected before anything is computed or written
    assert not list(tmp_path.glob("run*"))


@pytest.mark.parametrize("command", ["fisher", "stationary", "oracle"])
def test_subcommands_without_particles_ignore_the_sim_section(tmp_path, command):
    config = small_config(command, tmp_path)
    config["sim"] = {"dt": "garbage", "bogus": 1}
    assert main([command, "--config", write_config(tmp_path / "ok.json", config)]) == 0


def test_library_warnings_print_as_one_cli_line(tmp_path):
    config = small_config("lyapunov", tmp_path)
    config["model"]["lambda"] = 0.5       # outside the smallness regime
    cfg = write_config(tmp_path / "loud.json", config)
    out = subprocess.run([sys.executable, "-m", "vfplab", "lyapunov", "--config", cfg],
                         capture_output=True, text=True)
    assert out.returncode == 0
    assert out.stderr == ("warning: smallness condition violated: "
                          "the fixed point may not be unique\n")


@pytest.mark.parametrize("command, section, value", [
    ("contraction", "sim", 5), ("lyapunov", "sim", [1]), ("stationary", "grid", 5),
    ("fisher", "grid", None), ("stationary", "experiment", [["tol", 1e-10]]),
])
def test_sections_that_are_not_objects_exit_one(tmp_path, capsys, command, section, value):
    config = small_config(command, tmp_path)
    config[section] = value
    assert main([command, "--config", write_config(tmp_path / "bad.json", config)]) == 1
    err = capsys.readouterr().err
    assert f"config section '{section}' must be an object" in err and "Traceback" not in err


def test_misspelled_top_level_section_exits_one(tmp_path, capsys):
    config = small_config("contraction", tmp_path)
    config["experimnet"] = config.pop("experiment")
    assert main(["contraction", "--config", write_config(tmp_path / "bad.json", config)]) == 1
    err = capsys.readouterr().err
    assert "configuration error" in err and "Traceback" not in err and "experimnet" in err
    assert not list(tmp_path.glob("run*"))


def test_fisher_stationary_start_rejects_an_initial_state(tmp_path, capsys):
    config = small_config("fisher", tmp_path)
    config["experiment"].update(stationary_start=True, initial={"mean": "garbage", "covv": 1})
    assert main(["fisher", "--config", write_config(tmp_path / "bad.json", config)]) == 1
    err = capsys.readouterr().err
    assert "configuration error" in err and "Traceback" not in err
    assert "initial" in err and "stationary_start" in err
    assert not list(tmp_path.glob("run*"))


def schema_entries(name, keys):
    """(dotted key, reader, default) for each key of ``keys`` and of the sections nested in it."""
    for key, (reader, default) in keys.items():
        yield f"{name}.{key}", reader, default
        yield from schema_entries(f"{name}.{key}", getattr(reader, "keys", {}))


def render_config_keys() -> str:
    """README's config-key table: one row per key, rule and default, with its subcommands."""
    rows, first = {}, {}
    for section in vfplab.cli.SECTIONS:
        for command, sections in vfplab.cli.SCHEMA.items():
            for key, reader, default in schema_entries(section, sections.get(section, {})):
                if default is vfplab.cli.REQUIRED:
                    shown = "required"
                elif default is None:
                    shown = "unset"
                else:
                    shown = default.__doc__ if callable(default) else f"`{json.dumps(default)}`"
                rule = reader.__doc__.splitlines()[0]
                rows.setdefault((key, rule, shown), []).append(command)
                first.setdefault(key, len(first))
    lines = ["| key | value | default | subcommands |", "| --- | --- | --- | --- |"]
    for key, rule, shown in sorted(rows, key=lambda row: first[row[0]]):
        commands = rows[key, rule, shown]
        used_by = "all" if len(commands) == len(vfplab.cli.SCHEMA) else ", ".join(commands)
        lines.append(f"| `{key}` | {rule} | {shown} | {used_by} |")
    return "\n".join(lines) + "\n"


def test_the_readme_key_table_is_the_rendered_schema():
    readme = (pathlib.Path(__file__).resolve().parents[1] / "README.md").read_text()
    start, end = "<!-- config keys: rendered from vfplab.cli.SCHEMA -->\n", "<!-- end config keys -->"
    table = readme[readme.index(start) + len(start):readme.index(end)]
    assert table == render_config_keys(), "README's key table should read:\n" + render_config_keys()


def refuse_to_run(monkeypatch, *names):
    """Make each of ``names`` in the CLI fail if called, so a test allocates no grid with it."""
    def refuse(*args, **kwargs):
        raise AssertionError("called beyond the memory budget")
    for name in names:
        monkeypatch.setattr(vfplab.cli, name, refuse)


@pytest.mark.parametrize("command", ["lyapunov", "fisher", "stationary"])
def test_a_grid_beyond_the_memory_budget_exits_one_before_any_array(tmp_path, capsys, monkeypatch,
                                                                     command):
    # 100,000^2 cells: 80 GB for the first array
    refuse_to_run(monkeypatch, "gaussian_grid", "stationary_fixed_point", "run_vfp")
    config = small_config(command, tmp_path)
    config["grid"].update(nx=100_000, nv=100_000)
    assert main([command, "--config", write_config(tmp_path / "big.json", config)]) == 1
    err = capsys.readouterr().err
    assert f"memory budget of {vfplab.cli.MEMORY_BUDGET} bytes" in err and "Traceback" not in err
    assert not list(tmp_path.glob("run*"))


def traced_peak(argv) -> int:
    """The tracemalloc peak of one in-process CLI run that exits 0, sweep coefficients included."""
    vfplab.pde._weights.cache_clear()
    import numpy.random  # noqa: F401 -- loaded at a run's first draw: module code, no lane's data
    tracemalloc.start()
    try:
        assert main(argv) == 0
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("command", ["fisher", "lyapunov"])
def test_a_grid_run_holds_the_same_memory_whatever_its_snapshot_count(tmp_path, command):
    # 128^2 and one step a snapshot: 3 snapshots, then 51; each row is made as its grid arrives
    peaks = []
    for horizon in (0.004, 0.1):
        config = small_config(command, tmp_path)
        config["grid"].update(nx=128, nv=128, dt=0.002)
        config["experiment"].update(horizon=horizon, sample_dt=0.002)
        peaks.append(traced_peak([command, "--config", write_config(tmp_path / "m.json", config)]))
    array = 8 * 128 * 128
    assert max(peaks) < vfplab.cli.GRID_ARRAYS * array
    assert abs(peaks[1] - peaks[0]) < array


def test_the_memory_budget_counts_the_w2_kernels_of_a_narrow_grid(tmp_path, capsys, monkeypatch):
    # at 8 x 1024 the two 1024^2 v kernels of w2_grid outweigh every grid-sized array
    config = small_config("lyapunov", tmp_path)
    config["grid"].update(nx=8, nv=1024, dt="auto")
    config["experiment"].update(horizon=0.002, sample_dt=0.002)
    peak = traced_peak(["lyapunov", "--config", write_config(tmp_path / "n.json", config)])
    assert 8 * 1024 ** 2 < peak < 8 * (vfplab.cli.GRID_ARRAYS * 8 * 1024 + 2 * (8 ** 2 + 1024 ** 2))
    # so at 4 x 20,000, a grid of 640 KB, each v kernel would take 3.2 GB
    refuse_to_run(monkeypatch, "gaussian_grid", "stationary_fixed_point", "run_vfp")
    config["grid"].update(nx=4, nv=20_000)
    assert main(["lyapunov", "--config", write_config(tmp_path / "w.json", config)]) == 1
    assert f"memory budget of {vfplab.cli.MEMORY_BUDGET} bytes" in capsys.readouterr().err


@pytest.mark.parametrize("command, section, update", [
    ("contraction", "sim", {"n_particles": 1e12}),           # 7.28 TiB for the coupled states
    ("contraction", "experiment", {"replicas": 1e12}),       # a Python loop before any array
    ("simulate", "sim", {"n_particles": 1e12}),
    ("simulate", "experiment", {"horizon": 1e7, "sample_dt": 1e-3}),   # 2e9 snapshots kept
])
def test_a_particle_run_beyond_the_memory_budget_exits_one_before_any_array(
        tmp_path, capsys, monkeypatch, command, section, update):
    refuse_to_run(monkeypatch, "contraction_experiment", "simulate", "ParticleState")
    config = small_config(command, tmp_path)
    config[section].update(update)
    assert main([command, "--config", write_config(tmp_path / "big.json", config)]) == 1
    err = capsys.readouterr().err
    assert f"memory budget of {vfplab.cli.MEMORY_BUDGET} bytes" in err and "Traceback" not in err
    assert not list(tmp_path.glob("run*"))


@pytest.mark.parametrize("command, n, replicas, samples", [
    ("contraction", 2, 1, 1000),     # one replica: the samples and the JSON report dominate
    ("contraction", 2000, 2, 2),     # the coupled states and the force dominate
    ("simulate", 2, 1, 1000),        # every snapshot is kept until the CSV is written
    ("simulate", 200, 1, 50),
])
def test_a_particle_run_holds_at_most_its_budgeted_words(tmp_path, command, n, replicas, samples):
    # the budget counts PARTICLE_WORDS words a lane (a contraction replica, a simulated particle)
    # for each particle it steps and each sample it records
    config = small_config(command, tmp_path)
    config["sim"].update(n_particles=n, dt=0.01)
    config["experiment"].update(horizon=samples * 0.01, sample_dt=0.01)
    if command == "contraction":
        config["experiment"]["replicas"] = replicas
    peak = traced_peak([command, "--config", write_config(tmp_path / "p.json", config)])
    lanes, width = (replicas, 2 * n) if command == "contraction" else (n, 1)
    assert peak < 8 * vfplab.cli.PARTICLE_WORDS * lanes * (width + samples + 2)


@pytest.mark.parametrize("command", ["contraction", "lyapunov", "simulate"])
@pytest.mark.parametrize("seed", [-7, 2 ** 64])
def test_the_seed_override_obeys_the_rule_of_sim_seed(tmp_path, capsys, command, seed):
    config = small_config(command, tmp_path)
    path = write_config(tmp_path / "a.json", config)
    assert main([command, "--config", path, "--seed", str(seed)]) == 1
    config.setdefault("sim", {})["seed"] = seed
    assert main([command, "--config", write_config(tmp_path / "b.json", config)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 2 and all(line.startswith("configuration error: seed") for line in err)
    assert not list(tmp_path.glob("run*"))


def test_malformed_json_exits_one(tmp_path):
    bad = tmp_path / "broken.json"
    bad.write_text("{not json")
    assert main(["contraction", "--config", str(bad)]) == 1


def test_missing_output_prefix_exits_one(tmp_path):
    cfg = write_config(tmp_path / "no_out.json", {
        "model": {"gamma": 1.0, "lambda": 0.5,
                  "kernel": {"type": "quadratic_linear", "a": 1.0, "b": 1.0}},
        "experiment": {"times": [0.0]},
    })
    assert main(["oracle", "--config", cfg]) == 1


def test_out_flag_overrides_config(tmp_path):
    cfg = write_config(tmp_path / "o2.json", {
        "model": {"gamma": 1.0, "lambda": 0.5,
                  "kernel": {"type": "quadratic_linear", "a": 1.0, "b": 1.0}},
        "experiment": {"times": [0.0], "n_values": [2]},
        "output": str(tmp_path / "ignored"),
    })
    assert main(["oracle", "--config", cfg, "--out", str(tmp_path / "chosen")]) == 0
    assert (tmp_path / "chosen_oracle.json").exists()
    assert not (tmp_path / "ignored_oracle.json").exists()


def test_console_script_help():
    out = subprocess.run([sys.executable, "-m", "vfplab", "--help"],
                         capture_output=True, text=True)
    assert out.returncode == 0
    for name in ("contraction", "lyapunov", "fisher", "stationary", "oracle", "simulate"):
        assert name in out.stdout
