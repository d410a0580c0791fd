"""One property over ``cli.main``: any tiny config ends in a documented exit code, never a
traceback, a run that exits 1 or 2 leaves no artifact behind, and every JSON artifact of
another run is strict JSON."""

import json
import os
import tempfile
import warnings

from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.errors import NonInteractiveExampleWarning

from vfplab.cli import SCHEMA, main

EXIT_CODES = {0, 1, 2, 3}   # README: success, configuration, divergence, envelope violation

QUADRATIC = {"gamma": 1.0, "lambda": 0.0625,
             "kernel": {"type": "quadratic_linear", "a": 1.0, "b": 1.0}}
SINE = {"gamma": 1.0, "lambda": 0.125, "kernel": {"type": "sine", "amplitude": 1.0}}
GRID = {"Lx": 6.0, "Lv": 6.0, "nx": 16, "nv": 16, "dt": 0.004}

kernels = st.one_of(
    st.just("zero"),
    st.fixed_dictionaries({"type": st.just("quadratic_linear"), "a": st.floats(0.0, 1.0),
                           "b": st.floats(-2.0, 2.0)}),
    st.fixed_dictionaries({"type": st.just("sine"), "amplitude": st.floats(-2.0, 2.0)}),
    st.fixed_dictionaries({"type": st.just("gaussian_bump"), "height": st.floats(-2.0, 2.0),
                           "width": st.floats(0.2, 3.0)}),
)
models = st.fixed_dictionaries({"gamma": st.floats(0.25, 3.0), "lambda": st.floats(0.0, 1.0),
                                "kernel": kernels})
initials = st.fixed_dictionaries({
    "mean": st.lists(st.floats(-3.0, 3.0), min_size=2, max_size=2),
    "cov": st.tuples(st.floats(0.1, 2.0), st.floats(-0.9, 0.9), st.floats(0.1, 2.0)).map(
        lambda c: [[c[0], c[1] * (c[0] * c[2]) ** 0.5], [c[1] * (c[0] * c[2]) ** 0.5, c[2]]])})
grids = st.fixed_dictionaries({
    "Lx": st.floats(2.0, 8.0), "Lv": st.floats(2.0, 8.0),
    "nx": st.integers(4, 24), "nv": st.integers(4, 24),
    "dt": st.just("auto") | st.floats(1e-3, 0.05),
    "cfl_safety": st.floats(0.1, 1.0), "splitting": st.sampled_from(["lie", "strang"])})
sims = st.fixed_dictionaries({"dt": st.floats(1e-3, 0.05), "seed": st.integers(0, 2 ** 64 - 1),
                              "n_particles": st.integers(2, 8),
                              "integrator": st.sampled_from(["euler_maruyama",
                                                             "kinetic_splitting"])})
horizons, sample_dts = st.floats(0.01, 0.5), st.floats(0.01, 0.5)

CONFIGS = {
    "contraction": st.fixed_dictionaries({"model": models, "sim": sims, "experiment":
        st.fixed_dictionaries({"horizon": horizons, "sample_dt": sample_dts,
                               "replicas": st.integers(1, 4)})}),
    "simulate": st.fixed_dictionaries({"model": models, "sim": sims, "experiment":
        st.fixed_dictionaries({"horizon": horizons, "sample_dt": sample_dts,
                               "initial": initials})}),
    "lyapunov": st.fixed_dictionaries({"model": models, "grid": grids, "experiment":
        st.fixed_dictionaries({"horizon": horizons, "sample_dt": sample_dts,
                               "initial": initials}, optional={
            "witness_search": st.booleans(), "w2_samples": st.integers(0, 5000)})},
        optional={"sim": sims}),
    "fisher": st.fixed_dictionaries({"model": models, "grid": grids, "experiment":
        st.fixed_dictionaries({"horizon": horizons, "sample_dt": sample_dts}, optional={
            "initial": initials, "stationary_start": st.booleans()})}),
    "stationary": st.fixed_dictionaries({"model": models, "grid": grids, "experiment":
        st.fixed_dictionaries({"tol": st.floats(1e-10, 1e-4),
                               "max_iter": st.integers(1, 2000)})}),
    "oracle": st.fixed_dictionaries({"model": models, "experiment": st.fixed_dictionaries({
        "initial": initials, "times": st.lists(st.floats(0.0, 5.0), max_size=4),
        "n_values": st.lists(st.integers(2, 64), min_size=1, max_size=4)})}),
}
cases = st.sampled_from(sorted(CONFIGS)).flatmap(
    lambda command: st.tuples(st.just(command), CONFIGS[command]))


def reject_non_finite(token):
    """A strict reader's answer to NaN, Infinity and -Infinity, which are not JSON."""
    raise ValueError(f"non-standard JSON token {token}")


def tiny_dt(command):
    """A step of 1e-300 over a horizon of 1e10: a step count that overflows an integer."""
    if command in ("contraction", "simulate"):
        return {"model": SINE, "sim": {"dt": 1e-300, "n_particles": 4},
                "experiment": {"horizon": 1e10}}
    return {"model": QUADRATIC, "grid": {**GRID, "dt": 1e-300}, "experiment": {"horizon": 1e10}}


@settings(max_examples=200, deadline=None)
@given(case=cases, seed=st.none() | st.integers(0, 2 ** 64 - 1))
@example(case=("contraction", tiny_dt("contraction")), seed=None)
@example(case=("simulate", tiny_dt("simulate")), seed=None)
@example(case=("fisher", tiny_dt("fisher")), seed=None)
@example(case=("lyapunov", tiny_dt("lyapunov")), seed=None)
@example(case=("fisher", {"model": QUADRATIC, "grid": GRID, "output": "missing/run"}), seed=None)
@example(case=("stationary", {"model": QUADRATIC, "grid": GRID, "output": "missing/run"}),
         seed=None)
@example(case=("fisher", {"model": QUADRATIC, "grid": GRID,
                          "experiment": {"initial": {"mean": [1000, 0]}}}), seed=None)
@example(case=("lyapunov", {"model": QUADRATIC, "grid": GRID,
                            "experiment": {"initial": {"mean": [1000, 0]}}}), seed=None)
@example(case=("oracle", {"model": {"gamma": 1.0, "lambda": 0.1, "kernel": {
    "type": "gaussian_bump", "height": 1.0, "width": 1e-200}}}), seed=None)
# the moment flow of these overflows to a non-finite or indefinite covariance
@example(case=("oracle", {"model": {**QUADRATIC, "gamma": 1e300}}), seed=None)
@example(case=("oracle", {"model": {"gamma": 1.0, "lambda": 1e300, "kernel": {
    "type": "quadratic_linear", "a": 1e300, "b": 1.0}}}), seed=None)
@example(case=("oracle", {"model": QUADRATIC, "experiment": {
    "initial": {"cov": [[1e308, 0], [0, 1e308]]}}}), seed=None)
@example(case=("oracle", {"model": QUADRATIC, "experiment": {"times": [1.7e308]}}), seed=None)
# its free energies overflow to inf, which strict JSON cannot hold
@example(case=("oracle", {"model": QUADRATIC, "experiment": {"initial": {"mean": [1e308, 1e308]}}}),
         seed=None)
def test_main_exits_with_a_documented_code_and_no_artifact_on_failure(case, seed):
    command, config = case
    with tempfile.TemporaryDirectory() as tmp:
        config = {**config, "output": os.path.join(tmp, config.get("output", "run"))}
        path = os.path.join(tmp, "config.json")
        with open(path, "w") as fh:
            json.dump(config, fh)
        argv = [command, "--config", path] + ([] if seed is None else ["--seed", str(seed)])
        code = main(argv)   # an exception escaping here fails the property
        assert code in EXIT_CODES
        if code in (1, 2):
            assert sorted(os.listdir(tmp)) == ["config.json"]
        for name in set(os.listdir(tmp)) - {"config.json"}:
            if name.endswith(".json"):
                with open(os.path.join(tmp, name)) as fh:
                    json.load(fh, parse_constant=reject_non_finite)


def keys_of(config, prefix=""):
    """The dotted name of every key in ``config`` and in the objects nested in it."""
    for key, value in config.items():
        yield prefix + key
        if isinstance(value, dict):
            yield from keys_of(value, f"{prefix}{key}.")


def schema_keys(keys, prefix):
    """The dotted name of every key of a schema section and of the sections nested in it."""
    for key, (reader, _) in keys.items():
        yield prefix + key
        yield from schema_keys(getattr(reader, "keys", {}), f"{prefix}{key}.")


def test_the_strategies_draw_every_key_the_schema_gives_a_subcommand():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", NonInteractiveExampleWarning)
        for command, strategy in CONFIGS.items():
            drawn = set()
            for _ in range(60):
                drawn.update(keys_of(strategy.example()))
            wanted = {key for section, keys in SCHEMA[command].items()
                      for key in schema_keys(keys, section + ".")}
            assert sorted(wanted - drawn) == [], command
