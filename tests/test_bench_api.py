"""The package API that bench/measure.py relies on.

The benchmark script is checked without importing it: importing it pins
the BLAS thread variables and changes sys.path for the whole session.
"""

import ast
import inspect
from pathlib import Path

import numpy as np

import sketchsolve
import sketchsolve.cli
from sketchsolve import SketchedSystem, TraceRecord

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


def test_bench_solver_config_calls_bind():
    tree = measure_tree()
    calls = [
        node for node in ast.walk(tree)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "SolverConfig"
    ]
    assert calls, "bench/measure.py no longer builds a SolverConfig"
    signature = inspect.signature(sketchsolve.SolverConfig)
    for call in calls:
        assert not any(isinstance(arg, ast.Starred) for arg in call.args)
        assert all(kw.arg is not None for kw in call.keywords)
        signature.bind(*call.args, **{kw.arg: kw.value for kw in call.keywords})
    # dataclasses.replace on a name bound to a SolverConfig(...) call.
    configs = {
        target.id for node in ast.walk(tree)
        if isinstance(node, ast.Assign) and node.value in calls
        for target in node.targets if isinstance(target, ast.Name)
    }
    replaces = [
        node for node in ast.walk(tree)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and node.func.attr == "replace"
        and node.args and isinstance(node.args[0], ast.Name) and node.args[0].id in configs
    ]
    assert replaces, "bench/measure.py no longer replaces SolverConfig fields"
    for call in replaces:
        unknown = [kw.arg for kw in call.keywords if kw.arg not in signature.parameters]
        assert not unknown, f"dataclasses.replace in bench/measure.py names no SolverConfig field: {unknown}"


def attribute_paths(node, names):
    """Every attribute chain read off one of names, as (first, *rest), e.g. ("M", "a") for sketch.M.a."""
    paths = set()
    for sub in ast.walk(node):
        path = []
        while isinstance(sub, ast.Attribute):
            path.append(sub.attr)
            sub = sub.value
        if path and isinstance(sub, ast.Name) and sub.id in names:
            paths.add(tuple(reversed(path)))
    return paths


def test_bench_reads_only_record_fields():
    # Records are named tuples of arrays and numbers: a name that is not a
    # field (or an old wrapper's .a) fails only when the benchmark reaches
    # it, so check every read here.
    tree = measure_tree()
    builders = {"block_sketch", "gaussian_sketch", "sparse_gaussian_sketch"}
    sketches = {
        target.id for node in ast.walk(tree)
        if isinstance(node, ast.Assign) and isinstance(node.value, ast.Call)
        and isinstance(node.value.func, ast.Name) and node.value.func.id in builders
        for target in node.targets if isinstance(target, ast.Name)
    }
    sketch_reads = attribute_paths(tree, sketches)
    assert sketch_reads, "bench/measure.py no longer reads a sketch's fields"
    for field, *rest in sketch_reads:
        assert field in SketchedSystem._fields, field
        assert not rest or hasattr(np.ndarray, rest[0]), (field, *rest)
    # A record is trace.final or the target of a comprehension over trace.records.
    names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    record_reads = {path[1:] for path in attribute_paths(tree, names) if path[0] == "final" and path[1:]}
    for node in ast.walk(tree):
        if isinstance(node, (ast.ListComp, ast.SetComp, ast.GeneratorExp, ast.DictComp)):
            targets = {
                gen.target.id for gen in node.generators
                if isinstance(gen.iter, ast.Attribute) and gen.iter.attr == "records" and isinstance(gen.target, ast.Name)
            }
            record_reads |= attribute_paths(node, targets)
    assert {("iter",), ("error_sq",), ("residual_norm",)} <= record_reads, "bench/measure.py no longer reads these fields"
    assert all(len(path) == 1 and path[0] in TraceRecord._fields for path in record_reads), record_reads
