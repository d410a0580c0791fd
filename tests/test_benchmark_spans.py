"""The benchmark's tracer wraps vfplab functions by name; every name must resolve."""

import importlib
import importlib.util
import pathlib

SPANS_PATH = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def test_every_traced_function_exists():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PATH)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    missing = []
    for functions in spans.SPANS.values():
        for qualified in functions:
            mod_name, fn_name = qualified.split(".")
            if not callable(getattr(importlib.import_module("vfplab." + mod_name), fn_name, None)):
                missing.append(qualified)
    assert missing == []
