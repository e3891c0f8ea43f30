"""The package's top-level public names, and the README's library example and CLI lines."""

import re
import shlex
from pathlib import Path

import sketchsolve
from sketchsolve.cli import build_parser

README = Path(__file__).resolve().parent.parent / "README.md"

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
    readme = README.read_text()
    blocks = re.findall(r"```python\n(.*?)```", readme, re.S)
    assert blocks
    for block in blocks:
        exec(compile(block, "README.md", "exec"), {})


def test_readme_cli_lines_parse():
    # Every `sketchsolve ...` line of the README's CLI block parses, and together the lines
    # show every subcommand.
    block = re.search(r"^## CLI\n.*?```\n(.*?)```", README.read_text(), re.S | re.M).group(1)
    lines = [shlex.split(line) for line in block.replace("\\\n", " ").splitlines() if line.startswith("sketchsolve ")]
    parser = build_parser()
    commands = parser._subparsers._group_actions[0].choices
    assert sorted({argv[1] for argv in lines}) == sorted(commands)
    for argv in lines:
        parser.parse_args(argv[1:])  # argparse exits 2 on an unknown or abbreviated flag, or a bad value
