"""Flux-tunable two-qubit coupler analysis.

Circuit quantization in the truncated charge basis, dressed-state spectra and
the ZZ interaction by exact diagonalization, a two-mode perturbative
reduction with the zero-coupling shunt condition, and randomized-benchmarking
error budgets for the CZ gate.
"""

from .circuit import (
    CircuitParams,
    JunctionEnergies,
    build_capacitance_matrix,
    charging_matrix,
    derive_junction_energies,
    load_params,
    reference_device,
)
from .design import closed_form_design, search_design
from .hamiltonian import ChargeBasisConfig, assemble_hamiltonian
from .perturbative import (
    PerturbativeResult,
    two_mode_reduction,
    zero_coupling_c34,
)
from .rb import ErrorBudget, RBTrace, assemble_budget, fit_decay, full_budget, synth_trace
from .spectrum import (
    SpectrumResult,
    convergence_study,
    spectrum_at,
    sweep_c34,
    sweep_flux,
    zz_interaction,
)

__version__ = "0.1.0"

__all__ = [
    "CircuitParams",
    "JunctionEnergies",
    "ChargeBasisConfig",
    "SpectrumResult",
    "PerturbativeResult",
    "ErrorBudget",
    "RBTrace",
    "assemble_budget",
    "assemble_hamiltonian",
    "build_capacitance_matrix",
    "charging_matrix",
    "closed_form_design",
    "convergence_study",
    "derive_junction_energies",
    "fit_decay",
    "full_budget",
    "load_params",
    "reference_device",
    "search_design",
    "spectrum_at",
    "sweep_c34",
    "sweep_flux",
    "synth_trace",
    "two_mode_reduction",
    "zero_coupling_c34",
    "zz_interaction",
]
