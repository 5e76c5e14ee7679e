"""spinodalkit: desk-scale spinodal-decomposition simulation and
superconducting transport analysis.

The package covers a 2D Cahn-Hilliard phase-field solver with seeded
deterministic initialization, microstructure statistics (coarsening length,
cluster labeling, percolation, effective sheet resistance), closed-form
transport/kinetic-inductance extraction, and nonlinear least-squares fits
for critical-field and resonator data, all tied together by the
`spinodalkit` command-line tool.
"""

from .fields import (GridSpec, ScalarField2D, field_stats, gaussian_field,
                     read_snapshot_csv, write_snapshot_csv)
from .thermo import (GibbsModel, d2gibbs, dgibbs, free_energy, gibbs,
                     spinodal_interval)
from .solver import SolverParams, StabilityError, run

__version__ = "0.1.0"

__all__ = [
    "GridSpec", "ScalarField2D", "field_stats", "gaussian_field",
    "read_snapshot_csv", "write_snapshot_csv",
    "GibbsModel", "d2gibbs", "dgibbs", "free_energy", "gibbs",
    "spinodal_interval",
    "SolverParams", "StabilityError", "run",
    "__version__",
]
