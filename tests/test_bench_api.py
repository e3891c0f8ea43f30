"""The package API that bench/measure.py relies on.

The benchmark script is checked without importing it: importing it pins
the BLAS thread variables and changes sys.path for the whole session.
"""

import ast
import inspect
from pathlib import Path

import sketchsolve
import sketchsolve.cli

MEASURE = Path(__file__).resolve().parents[1] / "bench" / "measure.py"


def measure_tree():
    return ast.parse(MEASURE.read_text(), filename=str(MEASURE))


def test_bench_imports_exist():
    tree = measure_tree()
    imported = [
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "sketchsolve"
        for alias in node.names
    ]
    assert imported, "bench/measure.py imports nothing from sketchsolve"
    missing = [name for name in imported if not hasattr(sketchsolve, name)]
    assert not missing, f"bench/measure.py imports names sketchsolve lacks: {missing}"
    for name in ("run", "run_sweep", "load_system", "main"):
        assert callable(getattr(sketchsolve.cli, name, None)), f"sketchsolve.cli.{name} is missing"


def test_bench_run_sweep_calls_bind():
    calls = [
        node for node in ast.walk(measure_tree())
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and node.func.attr == "run_sweep"
    ]
    assert calls, "bench/measure.py no longer calls run_sweep"
    signature = inspect.signature(sketchsolve.cli.run_sweep)
    for call in calls:
        assert not any(isinstance(arg, ast.Starred) for arg in call.args)
        assert all(kw.arg is not None for kw in call.keywords)
        signature.bind(*call.args, **{kw.arg: kw.value for kw in call.keywords})
