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
    "RealVector", "RngState", "RunTrace", "SketchedSystem", "SketchsolveError", "SolverConfig", "Stepper",
    "TraceRecord", "ZeroRowError", "block_sketch", "condition_kappa_tilde", "contraction_summary",
    "dynamic_range", "gaussian_sketch", "generate_system", "load_csv_matrix", "load_system",
    "project_row", "run", "save_system", "select_max_residual", "sparse_gaussian_sketch",
]


def test_public_names_are_listed_once_and_resolve():
    assert sorted(sketchsolve.__all__) == PUBLIC_NAMES
    for name in sketchsolve.__all__:
        assert getattr(sketchsolve, name) is not None, name


def test_removed_names_stay_removed():
    # Every bare identifier in the first column of the README's "Removed
    # names" table (a call's name counts; flags and dotted names do not) is
    # not an attribute of the package.
    table = re.search(r"^## Removed names\n(.*?)^## ", README.read_text(), re.S | re.M).group(1)
    rows = [line.split("|")[1] for line in table.splitlines() if line.startswith("| `")]
    names = {m.group(1) for cell in rows for m in re.finditer(r"`([A-Za-z_]\w*)(?:\(.*?\))?`", cell)}
    assert {"StepProvenance", "SketchProvenance", "frobenius_norm_sq", "smallest_singular_value", "step"} <= names
    assert sorted(name for name in names if hasattr(sketchsolve, name)) == []


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
