"""The package API that bench/measure.py relies on.

The benchmark script is checked without importing it: importing it pins
the BLAS thread variables and changes sys.path for the whole session.
"""

import ast
from pathlib import Path

import sketchsolve
import sketchsolve.cli

MEASURE = Path(__file__).resolve().parents[1] / "bench" / "measure.py"


def test_bench_imports_exist():
    tree = ast.parse(MEASURE.read_text(), filename=str(MEASURE))
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
