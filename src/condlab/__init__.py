"""condlab: a numerical laboratory for random walks among random conductances.

The package builds periodic conductance fields, runs variable-speed and
simple walks on them, and reduces environment observables to exact spectral
sums on the torus generator.  On top of that sit desk-scale experiments:
variance-decay exponents, resolvent-based effective-diffusivity estimates,
MSD comparisons, a non-contractivity counterexample, and pathwise box
inequalities.
"""

# each module's __all__ declares its public names; the package re-exports them
from .environment import *  # noqa: F401,F403
from .errors import *  # noqa: F401,F403
from .experiments import *  # noqa: F401,F403
from .functionals import *  # noqa: F401,F403
from .operators import *  # noqa: F401,F403
from .spectral import *  # noqa: F401,F403
from .walker import *  # noqa: F401,F403

__version__ = "0.1.0"
