"""Two-spinor Dirac dynamics, its second-order reduction, and the fluid map.

The package evolves the free Dirac equation as a pair of two-spinors, reduces
it to a single damped-wave/Klein-Gordon equation for the first spinor with the
second reconstructed from a running integral, maps spinors pointwise to
relativistic fluid variables through Clebsch potentials, and verifies the
Lagrangian identity chain connecting the two pictures.  Every claim is exposed
as a machine-checkable residual; `diracfluid check` runs the built-in suite.

The top level holds what the README's library example and the CLI use; the
rest of the API lives in the submodules (`lattice`, `dynamics`, `reduction`,
`fluid`, `lagrangian`, ...).
"""

from .checks import CHECK_NAMES, run_checks
from .dynamics import evolve
from .errors import (ConfigError, DiracFluidError, GridError,
                     NumericalInstabilityError, SnapshotIOError)
from .fluid import fluid_state
from .reduction import equivalence_report
from .runner import run
from .scenarios import build_initial, load_scenario
from .version import __version__

__all__ = [
    "__version__", "CHECK_NAMES", "ConfigError", "DiracFluidError", "GridError",
    "NumericalInstabilityError", "SnapshotIOError", "build_initial",
    "equivalence_report", "evolve", "fluid_state", "load_scenario", "run",
    "run_checks",
]
