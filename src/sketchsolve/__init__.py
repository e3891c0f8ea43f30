"""Row-projection solvers for consistent overdetermined linear systems.

Five methods behind one projection primitive: randomized Kaczmarz,
max-residual (Motzkin) selection, and three sketched variants that pick
the max-residual row of a compressed system (block, Gaussian, sparse
Gaussian).  Plus seeded problem generators, condition diagnostics, and
a CLI benchmark harness.

The public names are each module's __all__.
"""

from . import errors, linalg, problems, rng, sketch, solvers
from .errors import *  # noqa: F403
from .linalg import *  # noqa: F403
from .problems import *  # noqa: F403
from .rng import *  # noqa: F403
from .sketch import *  # noqa: F403
from .solvers import *  # noqa: F403

__version__ = "0.1.0"

__all__ = [*errors.__all__, *linalg.__all__, *rng.__all__, *sketch.__all__, *solvers.__all__, *problems.__all__]
