"""Directional measures of marginal change in square ordinal tables.

Given an r x r contingency table whose rows and columns share one ordered
scale (typically before/after states), margshift quantifies how far and in
which direction the two marginal distributions drift apart, by comparing
their discrete-time hazard sequences:

* ``phi`` in [-1, 1]: sign says which margin's hazard dominates, magnitude
  says how strongly; 0 under marginal homogeneity.
* ``psi`` in [0, 1]: a power-divergence family that measures the departure
  without direction.

The package adds delta-method and bootstrap confidence intervals for both
measures, a closed-form link between phi and a constant hazard-odds shift,
multinomial sampling, a Monte Carlo coverage harness, and a CLI
(``margshift estimate|compare|curve|simulate``).

Each public name is declared once, in the ``__all__`` of the module that
defines it; this package re-exports those lists and adds only
``__version__``.
"""

from . import errors, inference, mcor, measures, simulate, tables
from .errors import *  # noqa: F403
from .inference import *  # noqa: F403
from .mcor import *  # noqa: F403
from .measures import *  # noqa: F403
from .simulate import *  # noqa: F403
from .tables import *  # noqa: F403

__version__ = "0.1.0"

__all__ = [
    "__version__",
    *tables.__all__,
    *measures.__all__,
    *mcor.__all__,
    *inference.__all__,
    *simulate.__all__,
    *errors.__all__,
]
