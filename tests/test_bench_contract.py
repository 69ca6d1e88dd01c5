"""The benchmark reaches qminlab functions by module and attribute: the
tracer wraps them by name, and the worker calls them as ``qm.<module>.<name>``.
A function that moves or is renamed would fail every benchmark run."""

import ast
import importlib.util
import pathlib

import qminlab

PERFBENCH = pathlib.Path(__file__).resolve().parents[1] / "perfbench"


def test_every_traced_function_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", PERFBENCH / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    for module_name, attr, _, _ in tracing.TRACED:
        assert callable(getattr(getattr(qminlab, module_name), attr)), (module_name, attr)


def test_every_worker_call_chain_resolves():
    tree = ast.parse((PERFBENCH / "worker.py").read_text())
    chains = {
        (node.value.attr, node.attr)
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Attribute)
        and isinstance(node.value.value, ast.Name)
        and node.value.value.id == "qm"
    }
    assert ("search", "interlacing_check") in chains
    for module_name, attr in sorted(chains):
        assert hasattr(getattr(qminlab, module_name), attr), (module_name, attr)
