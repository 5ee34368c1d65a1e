"""Pseudo-spectral solver for the 2D diffusive Oldroyd-B system.

Incompressible Navier-Stokes coupled to a symmetric positive polymeric
stress with spatial diffusion, on the periodic square, with diagnostics
that continuously verify positivity and the energy budget, and checks of
the determinant transport law and of agreement with an independent
mild-solution iterator.
"""

from .diagnostics import (
    BoundLedger,
    DiagnosticsRecord,
    apriori_ledger,
    bound_check,
    determinant_residual,
    energy_ledger,
    positivity_report,
)
from .dynamics import determinant_rhs, rates
from .fields import PhysParams, SimState, norms
from .integrate import (
    MonitorViolation,
    Monitors,
    StepControl,
    run,
    step,
)
from .picard import (
    MildTrajectory,
    PicardConfig,
    PicardDivergenceError,
    PicardHistory,
    contraction_estimate,
    picard_iterate,
)
from .spectral import SpectralGrid, make_grid

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
