"""vfplab benchmark: one workload, repeated in fresh worker processes for a fixed time.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root; it imports vfplab from ``src/``.  Each
repetition is one ``vfplab.cli.main`` call in a new interpreter (worker.py),
one at a time, on a config generated from the seed (workloads.py).  With
``--trace 0`` the last line of output reports the end-to-end metrics as upper
quartiles over the repetitions (see ``upper_quartile``); with ``--trace 1``
the first half of the time runs untraced repetitions and the second half
traced ones, and the last line reports the per-layer metrics (spans.py).
Every repetition's artifacts are checked (workloads.check) and must be
byte-identical to the first's.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import spans  # noqa: E402
import workloads  # noqa: E402

END_TO_END = {"wall_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
MIN_REPS = 3
REP_TIMEOUT_S = 120.0
STOP_AFTER_S = 150.0    # start no repetition that would end after this


def upper_quartile(values) -> float:
    """The 75th percentile of one run's repetitions; every end-to-end metric reports it.

    The boxes this runs on are shared, and their speed switches between a fast
    and a slow state for seconds to minutes at a time.  A run's median jumps
    between the two states with the share of the run spent in each; the upper
    quartile stays on the slow state unless the fast one covers three quarters
    of the run, so it repeats better from run to run.
    """
    values = list(values)
    return statistics.quantiles(values, n=4, method="inclusive")[2] if len(values) > 1 else values[0]


def layer_unit(name: str) -> str:
    if name.endswith((".calls", "_updates", ".points")):
        return "count"
    if name.endswith(("_bytes", "bytes_written")):
        return "B"
    if name.endswith("_s"):
        return "s"
    return "1"


def machine() -> dict:
    """The box a result was measured on."""
    import numpy
    import scipy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_env": {k: os.environ.get(k) for k in
                     ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
        "loadavg": os.getloadavg(),
    }


def steal_s() -> float:
    """CPU time the host has taken from this box's CPUs since boot, or nan off Linux.

    Printed per run: a run whose share of stolen time is high ran while the
    host was busy, and its times are slow for a reason outside the program.
    """
    try:
        with open("/proc/stat") as fh:
            fields = fh.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return float("nan")


def run_rep(spec_path: str, trace: bool, result_path: str, env: dict) -> dict:
    """One worker process; returns its measurements or an 'error' entry."""
    if os.path.exists(result_path):
        os.remove(result_path)
    t0 = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, os.path.join(HERE, "worker.py"), spec_path, repr(t0),
         "1" if trace else "0", result_path],
        env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
    try:
        _, err = proc.communicate(timeout=REP_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"error": f"timed out after {REP_TIMEOUT_S:g} s"}
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
    if proc.returncode != 0 or not os.path.exists(result_path):
        return {"error": f"worker exited {proc.returncode}: {err.strip()[-500:]}"}
    with open(result_path) as fh:
        return json.load(fh)


def digest(paths: list[str]) -> str:
    h = hashlib.sha256()
    for p in paths:
        with open(p, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=sorted(workloads.SIZES), default="full",
                        help="problem sizes; 'tiny' is for the benchmark's own tests")
    args = parser.parse_args(argv)

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "vfplab", "cli.py")):
        print(f"error: no vfplab sources under {src}; run from the repository root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])))
    # Workers import vfplab from cached bytecode, as an installed package would,
    # whatever the caller's setting.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    # On SIGTERM, unwind so the running worker is killed and the work files go.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    work = os.path.join(root, ".perfbench", f"{args.workload}-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    try:
        return measure(args, work, env, src)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def measure(args, work: str, env: dict, src: str) -> int:
    prefix = os.path.join(work, "run")
    cfg, cli_seed = workloads.make_config(args.workload, args.seed, prefix, args.scale)
    config_path = os.path.join(work, "config.json")
    spec_path = os.path.join(work, "spec.json")
    with open(config_path, "w") as fh:
        json.dump(cfg, fh, indent=2)
    with open(spec_path, "w") as fh:
        json.dump({"command": args.workload, "config": config_path, "seed": cli_seed}, fh)
    print(json.dumps({"machine": machine()}), flush=True)

    # Compile and cache the package's bytecode before the first timed start.
    subprocess.run([sys.executable, "-c", "import vfplab.cli"], env=env, check=True,
                   stdout=subprocess.DEVNULL)

    phases = [(False, args.seconds / 2), (True, args.seconds)] if args.trace \
        else [(False, args.seconds)]
    result_path = os.path.join(work, "result.json")
    start, steal0, reps, digests = time.monotonic(), steal_s(), [], set()
    for traced, until in phases:
        done, last = 0, 0.0
        while done < (1 if traced else MIN_REPS) or time.monotonic() - start < until:
            if done and time.monotonic() - start + last > STOP_AFTER_S:
                break
            t = time.monotonic()
            res = run_rep(spec_path, traced, result_path, env)
            last = time.monotonic() - t
            done += 1
            res["traced"] = traced
            res["problems"] = [res["error"]] if "error" in res else rep_problems(
                res, args.workload, cfg, prefix, src, digests)
            reps.append(res)

    print(json.dumps({"steal_frac": (steal_s() - steal0) / (time.monotonic() - start),
                      "reps": [{k: r.get(k) for k in ("traced", "setup_s", "wall_s", "cpu_s",
                                                      "peak_rss_mb", "problems")}
                               for r in reps]}), flush=True)
    for r in reps:
        if r["problems"]:
            print(f"failed repetition: {r['problems']}", file=sys.stderr)

    plain = [r for r in reps if not r["traced"] and "wall_s" in r]
    traced = [r for r in reps if r["traced"] and "layers" in r]
    metrics = {}
    if not args.trace and plain:
        metrics = {name: {"value": upper_quartile(r[name] for r in plain), "unit": unit}
                   for name, unit in END_TO_END.items()}
    elif args.trace and plain and traced:
        layers = {k: statistics.median(r["layers"][k] for r in traced) for k in traced[0]["layers"]}
        layers["trace.overhead_frac"] = (
            layers["trace.wall_s"] / statistics.median(r["wall_s"] for r in plain) - 1.0)
        errors = (workloads.lyapunov_errors(cfg, prefix) if args.workload == "lyapunov"
                  and not reps[-1]["problems"] else {})
        layers["w2_err"] = errors.get("w2_err", 0.0)
        layers["fq_err"] = errors.get("fq_err", 0.0)
        metrics = {k: {"value": layers[k], "unit": layer_unit(k)} for k in spans.metric_names()}
    failed = sum(1 for r in reps if r["problems"]) or (0 if metrics else 1)
    print(json.dumps({"correct": failed == 0, "attempted": len(reps), "failed": failed,
                      "metrics": metrics}))
    return 0


def rep_problems(res: dict, workload: str, cfg: dict, prefix: str, src: str,
                 digests: set) -> list[str]:
    """What is wrong with one finished repetition; ``digests`` collects artifact hashes."""
    if not os.path.realpath(res["vfplab"]).startswith(os.path.realpath(src) + os.sep):
        return [f"imported vfplab from {res['vfplab']}, not from {src}"]
    if res["exit"] != 0:
        return [f"exit code {res['exit']}"]
    problems = workloads.check(workload, cfg, prefix)
    if not problems:
        digests.add(digest(workloads.artifacts(workload, prefix)))
        if len(digests) > 1:
            problems.append("artifacts differ from an earlier repetition")
    return problems


if __name__ == "__main__":
    sys.exit(main())
