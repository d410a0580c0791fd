"""The benchmark's own tests.  Run from the repository root:

    python3 -m pytest -q perfbench/tests
"""

import json
import os
import shutil
import subprocess
import sys
import threading

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def _bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, os.path.join(BENCH, "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
@pytest.mark.parametrize("trace", ["0", "1"])
def test_tiny_smoke_run(workload, trace):
    proc = _bench("--workload", workload, "--seed", "3", "--seconds", "0",
                  "--trace", trace, "--scale", "tiny")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, proc.stderr
    expected = run.END_TO_END if trace == "0" else spans.metric_names()
    assert list(result["metrics"]) == list(expected)
    assert "machine" in json.loads(lines[0])
    if trace == "0":
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_metric_lists_match_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [m["unit"] for m in spec["end_to_end"]] == list(run.END_TO_END.values())
    assert [m["name"] for m in spec["per_layer"]] == spans.metric_names()
    assert [m["unit"] for m in spec["per_layer"]] == [run.layer_unit(n) for n in spans.metric_names()]
    assert {w["name"] for w in spec["workloads"]} <= set(workloads.WORKLOADS)


def test_config_is_a_function_of_the_seed():
    for w in workloads.WORKLOADS:
        assert workloads.make_config(w, 7, "p") == workloads.make_config(w, 7, "p")
        if w != "lyapunov":
            assert workloads.make_config(w, 7, "p") != workloads.make_config(w, 8, "p")


def test_fails_without_the_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = _bench("--workload", "oracle", "--seed", "1", "--seconds", "1", "--trace", "0",
                  cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_self_time_is_total_minus_same_thread_children():
    # (id, name, tid, parent, start, end, count, cpu_s)
    records = [
        (2, "b", 1, 1, 1.0, 3.0, 0, 0.0),
        (3, "c", 1, 1, 4.0, 5.0, 0, 0.0),
        (4, "d", 2, 1, 0.5, 9.0, 0, 0.0),   # another thread: not subtracted from a
        (5, "e", 2, 4, 1.0, 2.5, 0, 0.0),
        (1, "a", 1, 0, 0.0, 10.0, 0, 0.0),
    ]
    selfs = spans.self_times(records)
    assert selfs == {1: 7.0, 2: 2.0, 3: 1.0, 4: 7.0, 5: 1.5}


def test_pool_spans_take_the_tracing_thread_span_as_parent():
    tracer = spans.Tracer()
    inner = tracer.wrap("inner", lambda: None)

    def outer():
        t = threading.Thread(target=inner)
        t.start()
        t.join(timeout=10)
        assert not t.is_alive()

    tracer.wrap("outer", outer)()
    by_name = {r[1]: r for r in tracer.records}
    assert by_name["inner"][3] == by_name["outer"][0]
    assert by_name["inner"][2] != by_name["outer"][2]
    layers = spans.self_times(tracer.records)
    outer_id = by_name["outer"][0]
    assert layers[outer_id] == pytest.approx(by_name["outer"][5] - by_name["outer"][4])


def test_patches_cover_every_name_and_are_restored(tmp_path):
    import vfplab
    import vfplab.cli as cli
    import vfplab.pde as pde

    def snapshot():
        return {(m.__name__, k): v for m in (vfplab, vfplab.cli, vfplab.pde, vfplab.model,
                                             vfplab.functionals, vfplab.gaussian,
                                             vfplab.particles, vfplab.output)
                for k, v in vars(m).items() if callable(v)}

    before = snapshot()
    cfg, seed = workloads.make_config("fisher", 1, str(tmp_path / "run"), "tiny")
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    tracer = spans.Tracer()
    with tracer.patched():
        assert cli.vfp_step is pde.vfp_step is vfplab.vfp_step
        assert cli.vfp_step is not before[("vfplab.pde", "vfp_step")]
        assert pde.mean_field_force is not before[("vfplab.model", "mean_field_force")]
        assert cli.main(["fisher", "--config", str(path), "--seed", str(seed)]) == 0
    assert snapshot() == before
    names = {r[1] for r in tracer.records}
    assert {"cli.cmd", "pde.vfp_step", "model.mean_field_force", "pde.run_vfp"} <= names
    layers = spans.layer_metrics(tracer.records, tracer.main_tid, 1.0)
    assert layers["pde.cell_updates"] == layers["pde.vfp_step.calls"] * 32 * 32


def test_end_to_end_metrics_are_upper_quartiles():
    assert run.upper_quartile([5.0, 1.0, 3.0, 2.0, 4.0]) == 4.0
    assert run.upper_quartile(iter([2.0])) == 2.0
    # A run that spends half its time in each speed state reads the slow one.
    assert run.upper_quartile([1.0] * 4 + [1.5] * 4) == 1.5
