"""The package's top-level public names."""

import sketchsolve

PUBLIC_NAMES = [
    "CONVERGED", "ConditionStats", "DenseMatrix", "FormatError", "InputError", "LinearSystem",
    "MAX_ITERS", "METHODS", "MODEL_KINDS", "ModelSpec", "NumericalError", "RankDeficientError",
    "RealVector", "RngState", "RunTrace", "SKETCH_KINDS", "SketchProvenance", "SketchSpec", "SketchedSystem",
    "SketchsolveError", "SolverConfig", "StepProvenance", "TraceRecord", "ZeroRowError",
    "block_sketch", "condition_kappa_tilde", "contraction_summary", "dynamic_range",
    "frobenius_norm_sq", "gaussian_sketch", "generate_system", "kaczmarz_step", "load_csv_matrix",
    "load_system", "motzkin_step", "project_row", "run", "save_system", "select_max_residual",
    "sketched_motzkin_step", "smallest_singular_value", "sparse_gaussian_sketch",
]


def test_public_names_are_listed_once_and_resolve():
    assert sorted(sketchsolve.__all__) == PUBLIC_NAMES
    for name in sketchsolve.__all__:
        assert getattr(sketchsolve, name) is not None, name
