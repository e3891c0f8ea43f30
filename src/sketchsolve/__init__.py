"""Row-projection solvers for consistent overdetermined linear systems.

Five methods behind one projection primitive: randomized Kaczmarz,
max-residual (Motzkin) selection, and three sketched variants that pick
the max-residual row of a compressed system (block, Gaussian, sparse
Gaussian).  Plus seeded problem generators, condition diagnostics, and
a CLI benchmark harness.
"""

from .errors import (
    FormatError,
    InputError,
    RankDeficientError,
    SketchsolveError,
    ZeroRowError,
)
from .linalg import (
    ConditionStats,
    DenseMatrix,
    RealVector,
    condition_kappa_tilde,
    dynamic_range,
    frobenius_norm_sq,
    smallest_singular_value,
)
from .problems import (
    MODEL_KINDS,
    ModelSpec,
    generate_system,
    load_csv_matrix,
    load_system,
    save_system,
)
from .rng import RngState
from .sketch import (
    SKETCH_KINDS,
    SketchProvenance,
    SketchSpec,
    SketchedSystem,
    block_sketch,
    gaussian_sketch,
    sparse_gaussian_sketch,
)
from .solvers import (
    CONVERGED,
    MAX_ITERS,
    METHODS,
    LinearSystem,
    RunTrace,
    SolverConfig,
    StepProvenance,
    TraceRecord,
    contraction_summary,
    kaczmarz_step,
    motzkin_step,
    project_row,
    run,
    select_max_residual,
    sketched_motzkin_step,
)

__version__ = "0.1.0"

__all__ = [
    "SketchsolveError",
    "InputError",
    "FormatError",
    "RankDeficientError",
    "ZeroRowError",
    "DenseMatrix",
    "RealVector",
    "ConditionStats",
    "frobenius_norm_sq",
    "smallest_singular_value",
    "condition_kappa_tilde",
    "dynamic_range",
    "RngState",
    "SKETCH_KINDS",
    "SketchSpec",
    "SketchProvenance",
    "SketchedSystem",
    "block_sketch",
    "gaussian_sketch",
    "sparse_gaussian_sketch",
    "METHODS",
    "CONVERGED",
    "MAX_ITERS",
    "LinearSystem",
    "SolverConfig",
    "TraceRecord",
    "RunTrace",
    "StepProvenance",
    "project_row",
    "select_max_residual",
    "kaczmarz_step",
    "motzkin_step",
    "sketched_motzkin_step",
    "run",
    "contraction_summary",
    "MODEL_KINDS",
    "ModelSpec",
    "generate_system",
    "load_csv_matrix",
    "save_system",
    "load_system",
]
