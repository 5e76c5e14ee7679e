"""spinodalkit: desk-scale spinodal-decomposition simulation and
superconducting transport analysis.

The package covers a 2D Cahn-Hilliard phase-field solver with seeded
deterministic initialization, microstructure statistics (coarsening length,
cluster labeling, percolation, effective sheet resistance), closed-form
transport/kinetic-inductance extraction, and nonlinear least-squares fits
for critical-field and resonator data, all tied together by the
`spinodalkit` command-line tool.
"""

import importlib

__version__ = "0.1.0"

# Re-exported names resolve on first access (PEP 562), so importing the
# package, or only `spinodalkit.cli`, loads none of these modules.
_EXPORTS = {
    "fields": ("GridSpec", "ScalarField2D", "gaussian_field", "read_snapshot_csv",
               "write_snapshot_csv"),
    "thermo": ("d2gibbs", "dgibbs", "free_energy", "gibbs", "spinodal_interval"),
    "solver": ("SolverParams", "StabilityError", "run"),
}
_SOURCE = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = [*_SOURCE, "__version__"]


def __getattr__(name):
    module = _SOURCE.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *_SOURCE})
