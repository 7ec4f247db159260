"""qmix: unitary mixing of quantum states through finite group algebras.

Linear combinations of permutation unitaries — elements of a group
algebra acting on tensor factors — induce channels that mix two or three
density matrices with complex weights.  The package covers the whole
pipeline: finite groups and their regular representations (``groups``),
irreps / Fourier block analysis / coefficient synthesis (``irreps``),
density-matrix utilities and entropy functionals (``states``), the
binary and ternary combination maps with their parametrizations
(``combine``), the four-bar-linkage picture of the fixed-weight
parameter orbits (``linkage``), and a CLI for batch experiments
(``cli``).
"""

from . import combine, groups, irreps, linkage, states
from .groups import *  # noqa: F401,F403  each module's __all__ is its public API
from .irreps import *  # noqa: F401,F403
from .states import *  # noqa: F401,F403
from .combine import *  # noqa: F401,F403
from .linkage import *  # noqa: F401,F403

__version__ = "0.1.0"

__all__ = [*groups.__all__, *irreps.__all__, *states.__all__, *combine.__all__,
           *linkage.__all__, "__version__"]
