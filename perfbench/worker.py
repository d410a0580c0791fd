"""One benchmark repetition in a fresh interpreter.

    python3 perfbench/worker.py SPEC.json T0 TRACE RESULT.json

SPEC holds the subcommand, the config path and the CLI seed.  T0 is the
parent's ``time.monotonic()`` just before it started this process, so set-up
time counts interpreter start, imports, and loading and validating the
config.  With TRACE=1 the ``vfplab.cli.main`` call runs with every traced
function wrapped (see spans.py).  RESULT receives the measurements.
"""

import json
import os
import resource
import sys
import time


def _cpu_s() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def main(spec_path: str, t0: float, trace: bool, result_path: str) -> None:
    import vfplab.cli as cli
    from vfplab.pde import GridConfig

    with open(spec_path) as fh:
        spec = json.load(fh)
    command = spec["command"]
    cfg = cli.load_config(spec["config"])
    cli.parse_model(cfg)
    if command == "contraction":
        cli.parse_sim(cfg, spec["seed"])
    elif command in ("fisher", "lyapunov"):
        geometry, dt = cli.parse_grid(cfg)
        GridConfig(dt=dt, **geometry)
    else:
        cli.parse_initial(cfg["experiment"].get("initial"))
    setup_s = time.monotonic() - t0

    argv = [command, "--config", spec["config"], "--seed", str(spec["seed"])]
    out = {"setup_s": setup_s, "vfplab": cli.__file__}
    tracer = None
    if trace:
        sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
        import spans
        tracer = spans.Tracer()
        with tracer.patched():
            c0, w0 = _cpu_s(), time.perf_counter()
            code = cli.main(argv)
            w1, c1 = time.perf_counter(), _cpu_s()
    else:
        c0, w0 = _cpu_s(), time.perf_counter()
        code = cli.main(argv)
        w1, c1 = time.perf_counter(), _cpu_s()

    out.update(exit=code, wall_s=w1 - w0, cpu_s=c1 - c0,
               peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    if tracer is not None:
        out["layers"] = spans.layer_metrics(tracer.records, tracer.main_tid, w1 - w0)
    with open(result_path, "w") as fh:
        json.dump(out, fh)


if __name__ == "__main__":
    spec_path, t0, trace, result_path = sys.argv[1:5]
    main(spec_path, float(t0), trace == "1", result_path)
