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


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_worker_runs_every_tiny_workload(tmp_path, workload):
    prefix = str(tmp_path / "run")
    cfg, cli_seed = workloads.make_config(workload, 3, prefix, "tiny")
    config_path, spec_path = tmp_path / "config.json", tmp_path / "spec.json"
    config_path.write_text(json.dumps(cfg))
    spec_path.write_text(json.dumps({"command": workload, "config": str(config_path),
                                     "seed": cli_seed}))
    worker.main(str(spec_path), 0.0, False, str(tmp_path / "result.json"))
    assert json.loads((tmp_path / "result.json").read_text())["exit"] == 0
    assert workloads.check(workload, cfg, prefix) == []
