"""The package's top-level public names and the README's library example."""

import re
from pathlib import Path

import sketchsolve

PUBLIC_NAMES = [
    "CONVERGED", "ConditionStats", "DenseMatrix", "FormatError", "InputError", "LinearSystem",
    "MAX_ITERS", "METHODS", "MODEL_KINDS", "ModelSpec", "NumericalError", "RankDeficientError",
    "RealVector", "RngState", "RunTrace", "SketchProvenance", "SketchedSystem",
    "SketchsolveError", "SolverConfig", "StepProvenance", "TraceRecord", "ZeroRowError",
    "block_sketch", "condition_kappa_tilde", "contraction_summary", "dynamic_range",
    "frobenius_norm_sq", "gaussian_sketch", "generate_system", "load_csv_matrix",
    "load_system", "project_row", "run", "save_system", "select_max_residual",
    "smallest_singular_value", "sparse_gaussian_sketch", "step",
]


def test_public_names_are_listed_once_and_resolve():
    assert sorted(sketchsolve.__all__) == PUBLIC_NAMES
    for name in sketchsolve.__all__:
        assert getattr(sketchsolve, name) is not None, name


def test_readme_python_blocks_run():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    blocks = re.findall(r"```python\n(.*?)```", readme, re.S)
    assert blocks
    for block in blocks:
        exec(compile(block, "README.md", "exec"), {})
