"""Numerical transversality of separatrix intersections in 2-d.o.f.
classical Hamiltonians, via Riccati slope equations and Melnikov potentials.

The modules every command but melnikov runs on are imported here, and none
of them loads numpy; equilibrium and melnikov, which need it, load on first
use of them or of a name they define."""

from importlib import import_module

from .models import (HamiltonianModel, PerturbationModel, builtin_model,
                     validate_hypotheses)
from .loops import loop_profile
from .riccati import (RiccatiSolution, SolverOptions, riccati_initial,
                      solve_riccati, riccati_to_linear_oracle, BlowUpError)
from .charts import (ChartTransition, StableJet, TransversalityReport,
                     chart_transversality, inversion_transition,
                     jet_transport_stable, stable_from_reversibility,
                     stable_jet_from_unstable, torus_shift_transition,
                     torus_transversality, transversality_verdict)

__version__ = "0.1.0"

# the names of the lazily loaded modules, by module
_LAZY = {
    "equilibrium": ("Linearization", "check_positive_definite", "linearize"),
    "melnikov": ("critical_candidates", "lambda0_threshold",
                 "melnikov_derivatives", "melnikov_potential",
                 "perturbed_loop_verdict", "reduced_melnikov", "xi_max"),
}
_LAZY_NAMES = {name: module for module, names in _LAZY.items()
               for name in names}


def __getattr__(name: str):
    """A lazily loaded module, or a name from one (PEP 562)."""
    if name in _LAZY:
        return import_module("." + name, __name__)
    if name in _LAZY_NAMES:
        return getattr(import_module("." + _LAZY_NAMES[name], __name__), name)
    raise AttributeError("module %r has no attribute %r" % (__name__, name))


__all__ = [
    "HamiltonianModel", "PerturbationModel", "builtin_model",
    "validate_hypotheses",
    "Linearization", "check_positive_definite", "linearize",
    "loop_profile",
    "RiccatiSolution", "SolverOptions", "riccati_initial",
    "solve_riccati", "riccati_to_linear_oracle", "BlowUpError",
    "ChartTransition", "StableJet", "TransversalityReport",
    "chart_transversality", "inversion_transition",
    "jet_transport_stable", "stable_from_reversibility",
    "stable_jet_from_unstable", "torus_shift_transition",
    "torus_transversality", "transversality_verdict",
    "critical_candidates", "lambda0_threshold", "melnikov_derivatives",
    "melnikov_potential", "perturbed_loop_verdict", "reduced_melnikov",
    "xi_max",
]
