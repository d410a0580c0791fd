"""Spans around vfplab's public functions, and the per-layer metrics made from them.

``Tracer.patched()`` replaces each traced function at every name through
which a caller can look it up (for example ``vfplab.cli.vfp_step`` and
``vfplab.pde.vfp_step`` are the same function, and both get the wrapper), and
restores the originals on exit.  A span records its name, thread id, parent
span, start and end.  Spans opened in a thread with no open span of its own
(the replica pool in ``contraction_experiment``) take the innermost open span
of the tracing thread as their parent.  Self time is computed per thread: a
span's duration minus the durations of its children in the same thread.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import os
import sys
import threading
import time


def _arg(args, kwargs, index, name):
    return kwargs[name] if name in kwargs else args[index]


# Span name -> the "module.function"s it wraps.  Most spans wrap one function;
# cli.cmd and cli.config group the CLI's glue and its config parsing.
SPANS = {
    "cli.cmd": ["cli.main", "cli.cmd_contraction", "cli.cmd_fisher", "cli.cmd_lyapunov",
                "cli.cmd_oracle"],
    "cli.config": ["cli.load_config", "cli.parse_model", "cli.parse_sim", "cli.parse_grid",
                   "cli.parse_initial", "cli._experiment"],
}
SPANS.update({name: [name] for name in [
    "output.write_csv", "output.write_json",
    "particles.contraction_experiment", "particles._contraction_replica",
    "particles.coupled_step", "particles.step", "particles.noise_for_step",
    "particles.pairwise_force",
    "pde.vfp_step", "pde.cfl_bound", "pde.x_marginal", "pde.run_vfp",
    "pde.stationary_fixed_point", "pde.gaussian_grid", "model.mean_field_force",
    "functionals.entropy", "functionals.classical_free_energy",
    "functionals.quadratic_free_energy", "functionals.fisher_information",
    "functionals.local_equilibrium", "functionals.w2_grid", "functionals.w2_empirical",
    "functionals.sample_from_grid",
    "gaussian.moment_flow", "gaussian.stationary_gaussian", "gaussian.bures_w2",
    "gaussian.free_energy_quadratic", "gaussian.gibbs_measure_N",
    "gaussian.free_energy_particle_limit",
]})

# Span -> the work one call did, computed from its arguments after it returns.
COUNTERS = {
    "particles.step": lambda a, k: _arg(a, k, 0, "state").n,
    "pde.vfp_step": lambda a, k: _arg(a, k, 0, "grid").nx * _arg(a, k, 0, "grid").nv,
    "functionals.w2_empirical": lambda a, k: len(_arg(a, k, 0, "cloud_a")),
    "gaussian.gibbs_measure_N": lambda a, k: (2 * _arg(a, k, 1, "n")) ** 2 * 8,
    "gaussian.free_energy_particle_limit": lambda a, k: (2 * _arg(a, k, 2, "n")) ** 2 * 8,
    "output.write_csv": lambda a, k: os.path.getsize(_arg(a, k, 0, "path")),
    "output.write_json": lambda a, k: os.path.getsize(_arg(a, k, 0, "path")),
}
CPU_SPANS = {"particles._contraction_replica"}   # also record thread CPU time

TOTAL_SPANS = ("particles.contraction_experiment", "pde.run_vfp")
COUNTS = {  # metric name -> span whose computed counts it sums
    "particles.particle_updates": ("particles.step",),
    "pde.cell_updates": ("pde.vfp_step",),
    "functionals.w2_empirical.points": ("functionals.w2_empirical",),
    "gaussian.dense_bytes": ("gaussian.free_energy_particle_limit", "gaussian.gibbs_measure_N"),
    "output.bytes_written": ("output.write_csv", "output.write_json"),
}
SUMMARY = ["particles.pool_busy_frac", "trace.wall_s", "trace.overhead_frac",
           "trace.self_cover_frac", "w2_err", "fq_err"]


def metric_names() -> list[str]:
    """Every per-layer metric, in report order."""
    names = []
    for span in SPANS:
        names += [span + ".calls", span + ".self_s"]
        if span in TOTAL_SPANS:
            names.append(span + ".total_s")
    return names + list(COUNTS) + SUMMARY


class Tracer:
    """Collects spans in memory while its patches are installed."""

    def __init__(self):
        self.records = []   # (id, name, tid, parent, start, end, count, cpu_s)
        self.main_tid = threading.get_ident()
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main_stack: list = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._main_stack if threading.get_ident() == self.main_tid else []
            self._local.stack = stack
        return stack

    def _parent(self, stack: list) -> int:
        if stack:
            return stack[-1]
        try:
            return self._main_stack[-1]
        except IndexError:
            return 0

    def wrap(self, name, fn):
        records, ids, clock = self.records, self._ids, time.perf_counter
        count, cpu = COUNTERS.get(name), name in CPU_SPANS

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            parent = self._parent(stack)
            sid = next(ids)
            stack.append(sid)
            c0 = time.thread_time() if cpu else 0.0
            t0 = clock()
            ok = False
            try:
                result = fn(*args, **kwargs)
                ok = True
            finally:
                t1 = clock()
                cpu_s = time.thread_time() - c0 if cpu else 0.0
                stack.pop()
                n = count(args, kwargs) if (ok and count is not None) else 0
                records.append((sid, name, threading.get_ident(), parent, t0, t1, n, cpu_s))
            return result

        return wrapper

    @contextlib.contextmanager
    def patched(self):
        """Wrap every traced function at every vfplab module-level name that refers to it."""
        modules = [m for k, m in list(sys.modules.items())
                   if m is not None and (k == "vfplab" or k.startswith("vfplab."))]
        saved = []
        try:
            for span, functions in SPANS.items():
                for qualified in functions:
                    mod_name, fn_name = qualified.split(".")
                    original = getattr(sys.modules["vfplab." + mod_name], fn_name)
                    wrapper = self.wrap(span, original)
                    for mod in modules:
                        for attr, value in list(vars(mod).items()):
                            if value is original:
                                saved.append((mod, attr, original))
                                setattr(mod, attr, wrapper)
            yield self
        finally:
            for mod, attr, original in reversed(saved):
                setattr(mod, attr, original)


def self_times(records) -> dict[int, float]:
    """Span id -> duration minus the durations of its children in the same thread."""
    child = {}
    for sid, _, tid, parent, t0, t1, _, _ in records:
        key = (parent, tid)
        child[key] = child.get(key, 0.0) + (t1 - t0)
    return {sid: (t1 - t0) - child.get((sid, tid), 0.0)
            for sid, _, tid, _, t0, t1, _, _ in records}


def layer_metrics(records, main_tid: int, wall_s: float) -> dict[str, float]:
    """Per-layer metrics of one traced run whose traced call took ``wall_s``."""
    selfs = self_times(records)
    out = {}
    for span in SPANS:
        out[span + ".calls"] = 0
        out[span + ".self_s"] = 0.0
        if span in TOTAL_SPANS:
            out[span + ".total_s"] = 0.0
    counts = {}
    main_self = 0.0
    for sid, name, tid, _, t0, t1, n, _ in records:
        out[name + ".calls"] += 1
        out[name + ".self_s"] += selfs[sid]
        if name in TOTAL_SPANS:
            out[name + ".total_s"] += t1 - t0
        counts[name] = counts.get(name, 0) + n
        if tid == main_tid:
            main_self += selfs[sid]
    for metric, spans in COUNTS.items():
        out[metric] = sum(counts.get(s, 0) for s in spans)

    pool = [(tid, t0, t1, cpu) for _, name, tid, _, t0, t1, _, cpu in records
            if name == "particles._contraction_replica" and tid != main_tid]
    if pool:
        loop_wall = max(r[2] for r in pool) - min(r[1] for r in pool)
        threads = len({r[0] for r in pool})
        out["particles.pool_busy_frac"] = sum(r[3] for r in pool) / (loop_wall * threads)
    else:
        out["particles.pool_busy_frac"] = 0.0
    out["trace.wall_s"] = wall_s
    out["trace.self_cover_frac"] = main_self / wall_s
    return out
