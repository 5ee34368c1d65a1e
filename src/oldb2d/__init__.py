"""Pseudo-spectral solver for the 2D diffusive Oldroyd-B system.

Incompressible Navier-Stokes coupled to a symmetric positive polymeric
stress with spatial diffusion, on the periodic square, with diagnostics
that continuously verify positivity, the energy budget, the determinant
transport law, and agreement with an independent mild-solution iterator.
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
from .dynamics import (
    StrainDecomposition,
    determinant_rhs,
    rates,
    strain_decompose,
)
from .fields import (
    PhysParams,
    SimState,
    StressField,
    norms,
    sim_state,
)
from .integrate import (
    MonitorViolation,
    Monitors,
    StepControl,
    Trajectory,
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
from .spectral import (
    Field,
    SpectralGrid,
    ddx,
    dealias,
    divergence,
    heat_semigroup,
    laplacian,
    leray_project,
    make_grid,
    scalar_field,
    vector_field,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
