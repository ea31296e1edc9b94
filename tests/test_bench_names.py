"""The per-layer names the benchmark reports must name functions its
tracer wraps, so that renaming one breaks a test and not only a traced
benchmark run."""

import ast
import importlib
import importlib.util
from pathlib import Path

import sykteleport

BENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _layer_functions() -> tuple:
    """LAYER_FUNCTIONS of perfbench/run.py, read without importing it
    (importing it pins the BLAS thread counts of this process)."""
    tree = ast.parse((BENCH / "run.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                getattr(target, "id", None) == "LAYER_FUNCTIONS" for target in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/run.py defines no LAYER_FUNCTIONS")


def _tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", BENCH / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_layer_functions_are_traced():
    tracer = _tracer()
    for layer in tracer.LAYERS:
        importlib.import_module(f"sykteleport.{layer}")
    wrapped = {name for name, _, _ in tracer.public_callables(sykteleport)}
    names = _layer_functions()
    assert names and len(set(names)) == len(names)
    assert sorted(set(names) - wrapped) == []
