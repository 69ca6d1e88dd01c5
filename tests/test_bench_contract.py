"""The benchmark reaches qminlab functions by module and attribute: the
tracer wraps them by name, and the worker calls them as ``qm.<module>.<name>``.
A function that moves or is renamed would fail every benchmark run.  And the
sweeps' timed loops must not pay for a garbage collection, which falls where
the allocations of ``import qminlab`` put it."""

import ast
import importlib.util
import os
import pathlib
import subprocess
import sys

import qminlab

PERFBENCH = pathlib.Path(__file__).resolve().parents[1] / "perfbench"
GC_PROBE = pathlib.Path(__file__).resolve().parent / "gc_probe.py"


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


def _perfbench_files():
    """Every path under perfbench/ with the bytes of each file."""
    return {path: path.read_bytes() if path.is_file() else None for path in PERFBENCH.rglob("*")}


def test_sweeps_collect_no_garbage_inside_their_timed_loops():
    before = _perfbench_files()
    proc = subprocess.run(
        [sys.executable, str(GC_PROBE), "general-n7", "unicyclic-n8", "--reps", "1"],
        capture_output=True, text=True, timeout=300,
        env={**os.environ, "PYTHONDONTWRITEBYTECODE": "1"},
    )
    assert proc.returncode == 0, proc.stderr
    lines = [line for line in proc.stdout.splitlines() if "collections in loop" in line]
    assert [line.split()[0] for line in lines] == ["general-n7", "unicyclic-n8"], proc.stdout
    for line in lines:
        assert "collections in loop [0, 0, 0]" in line, line
    assert _perfbench_files() == before  # nothing added, removed or rewritten
