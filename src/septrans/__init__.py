"""Numerical transversality of separatrix intersections in 2-d.o.f.
classical Hamiltonians, via Riccati slope equations and Melnikov potentials."""

from .models import (HamiltonianModel, PerturbationModel, builtin_model,
                     validate_hypotheses)
from .equilibrium import Linearization, check_positive_definite, linearize
from .loops import LoopProfile, loop_profile, restriction_residual
from .riccati import (RiccatiSolution, SolverOptions, riccati_initial,
                      riccati_terms, solve_riccati, riccati_to_linear_oracle,
                      BlowUpError)
from .charts import (ChartTransition, StableJet, TransversalityReport,
                     chart_transversality, inversion_transition,
                     jet_transport_stable, stable_from_reversibility,
                     stable_jet_from_unstable, torus_shift_transition,
                     torus_transversality, transversality_verdict)
from .melnikov import (MelnikovResult, lambda0_threshold,
                       melnikov_derivatives, melnikov_potential,
                       perturbed_loop_verdict, reduced_melnikov, xi_max)

__version__ = "0.1.0"

__all__ = [
    "HamiltonianModel", "PerturbationModel", "builtin_model",
    "validate_hypotheses",
    "Linearization", "check_positive_definite", "linearize",
    "LoopProfile", "loop_profile", "restriction_residual",
    "RiccatiSolution", "SolverOptions", "riccati_initial", "riccati_terms",
    "solve_riccati", "riccati_to_linear_oracle", "BlowUpError",
    "ChartTransition", "StableJet", "TransversalityReport",
    "chart_transversality", "inversion_transition",
    "jet_transport_stable", "stable_from_reversibility",
    "stable_jet_from_unstable", "torus_shift_transition",
    "torus_transversality", "transversality_verdict",
    "MelnikovResult", "lambda0_threshold", "melnikov_derivatives",
    "melnikov_potential", "perturbed_loop_verdict", "reduced_melnikov",
    "xi_max",
]
