"""The benchmark's worker calls vfplab's config readers and CLI, and its checks read
the reports; every workload must still run and pass its checks at the tiny scale."""

import importlib.util
import json
import pathlib

import pytest

PERFBENCH = pathlib.Path(__file__).resolve().parents[1] / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location("perfbench_" + name, PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


workloads = _load("workloads")
worker = _load("worker")


def run_worker(tmp_path, workload, trace):
    """One tiny repetition of ``workload`` in-process; returns its config, prefix and result."""
    prefix = str(tmp_path / "run")
    cfg, cli_seed = workloads.make_config(workload, 3, prefix, "tiny")
    config_path, spec_path = tmp_path / "config.json", tmp_path / "spec.json"
    config_path.write_text(json.dumps(cfg))
    spec_path.write_text(json.dumps({"command": workload, "config": str(config_path),
                                     "seed": cli_seed}))
    worker.main(str(spec_path), 0.0, trace, str(tmp_path / "result.json"))
    return cfg, prefix, json.loads((tmp_path / "result.json").read_text())


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_worker_runs_every_tiny_workload(tmp_path, workload):
    cfg, prefix, result = run_worker(tmp_path, workload, False)
    assert result["exit"] == 0
    assert workloads.check(workload, cfg, prefix) == []


def test_worker_runs_a_lyapunov_config_with_an_auto_dt(tmp_path):
    # the worker builds GridConfig(dt=dt, **geometry) from parse_grid, so "auto" must resolve
    prefix = str(tmp_path / "run")
    cfg, cli_seed = workloads.make_config("lyapunov", 3, prefix, "tiny")
    cfg["grid"]["dt"] = "auto"
    config_path, spec_path = tmp_path / "config.json", tmp_path / "spec.json"
    config_path.write_text(json.dumps(cfg))
    spec_path.write_text(json.dumps({"command": "lyapunov", "config": str(config_path),
                                     "seed": cli_seed}))
    worker.main(str(spec_path), 0.0, False, str(tmp_path / "result.json"))
    assert json.loads((tmp_path / "result.json").read_text())["exit"] == 0


def test_traced_lyapunov_records_the_w2_worker_spans(tmp_path):
    # the W2 solves run inline on the tracing thread, one span per snapshot, and the
    # self-time cover counts each span's time once
    _, prefix, result = run_worker(tmp_path, "lyapunov", True)
    assert result["exit"] == 0
    snapshots = len(open(prefix + "_lyapunov.csv").read().splitlines()) - 1
    assert snapshots == 2
    assert result["layers"]["functionals.w2_grid.calls"] == snapshots
    assert result["layers"]["functionals.w2_grid.self_s"] > 0.0
    assert result["layers"]["trace.self_cover_frac"] <= 1.0
