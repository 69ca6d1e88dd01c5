"""The benchmark's tracer wraps qminlab functions named by module and
attribute; a function that moves or is renamed would fail every traced run."""

import importlib.util
import pathlib

import qminlab

TRACING = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_every_traced_function_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    for module_name, attr, _, _ in tracing.TRACED:
        assert callable(getattr(getattr(qminlab, module_name), attr)), (module_name, attr)
