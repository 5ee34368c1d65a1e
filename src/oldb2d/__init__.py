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
    momentum_rhs,
    recover_pressure,
    rho_rhs,
    strain_decompose,
    stress_rhs,
)
from .fields import (
    NormReport,
    PhysParams,
    SimState,
    StressField,
    gamma_field,
    matrix_from_stress,
    min_eigenvalue,
    norms,
    sim_state,
    stress_from_matrix,
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
    ScalarField,
    SpectralGrid,
    VectorField,
    curl,
    ddx,
    dealias,
    divergence,
    heat_semigroup,
    invert_laplacian,
    laplacian,
    leray_project,
    make_grid,
    scalar_field,
    vector_field,
    velocity_from_vorticity,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
