"""Symmetry shifts and low-rank decompositions for LCU 1-norm reduction.

The package turns a second-quantized electronic Hamiltonian (FCIDUMP in,
FCIDUMP out) into a cheaper-to-block-encode one: it builds shift operators
that vanish on the physical electron-number sector, minimizes the resulting
Pauli or double-factorized 1-norms by linear programming or analytic median
shifts, and certifies the reduction against exact or Lanczos spectral
ranges.
"""

from .cli import (BLISS_METHODS, EXIT_INVALID, EXIT_IO, EXIT_OK, EXIT_SOLVER,
                  METHODS, SPECTRAL_CHOICES, RunConfig, compare, main, run,
                  run_pipeline)
from .fcidump import FcidumpError, parse_fcidump, write_fcidump
from .fermionic import (FERMIONIC_METHODS, CsaFragment, DFFragment,
                        FermionicNormReport, FragmentNorm,
                        IterationLimitError, LrpsCorrection,
                        OneBodySpectrum, assemble_global_bliss,
                        build_fermionic_report, canonical_median,
                        double_factorize, factorize_two_body_tensor,
                        fragment_hamiltonian, lambda_csa, lambda_df,
                        lrbs_shift, lrps_one_body_correction, lrps_shift,
                        one_electron_shift, reconstruct_two_body,
                        to_csa_fragment)
from .hamiltonian import (BlissParams, MolecularHamiltonian, apply_bliss,
                          symmetrize_two_body, two_body_symmetry_deviation)
from .l1min import (L1Problem, L1Solution, L1Status, ReferenceSimplexSolver,
                    ScipyLinprogSolver, SolverOptions, dump_problem,
                    evaluate_objective, l1_minimize, merge_duplicate_rows,
                    weighted_median)
from .lp_bliss import (LpBlissIterationLimit, LpBlissVarMap,
                       build_lp_bliss_problem, lp_bliss, params_from_solution)
from .pauli import PauliNormBreakdown, pauli_one_norm
from .report import (BlissSummary, CompareReport, NormPair, RunReport,
                     strip_volatile, to_json)
from .simplex import LpResult, LpStatus, solve_lp
from .spectral import (CIVector, Determinant, LanczosOptions, LanczosResult,
                       RangeResult, SpectralReport, apply_hamiltonian,
                       build_spectral_report, build_spectral_reports,
                       deviation_metric, one_body_eigenbasis,
                       reference_determinant, sector_determinants,
                       sector_matrix, spectral_range, spectral_ranges,
                       truncated_lanczos)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # hamiltonian
    "MolecularHamiltonian", "BlissParams", "apply_bliss",
    "symmetrize_two_body", "two_body_symmetry_deviation",
    # fcidump
    "FcidumpError", "parse_fcidump", "write_fcidump",
    # pauli
    "PauliNormBreakdown", "pauli_one_norm",
    # simplex / l1min
    "LpResult", "LpStatus", "solve_lp",
    "L1Problem", "L1Solution", "L1Status", "SolverOptions",
    "ReferenceSimplexSolver", "ScipyLinprogSolver",
    "l1_minimize", "evaluate_objective", "merge_duplicate_rows",
    "weighted_median", "dump_problem",
    # lp_bliss
    "LpBlissVarMap", "LpBlissIterationLimit", "build_lp_bliss_problem",
    "params_from_solution", "lp_bliss",
    # fermionic
    "FERMIONIC_METHODS",
    "DFFragment", "CsaFragment", "OneBodySpectrum", "LrpsCorrection",
    "FragmentNorm", "FermionicNormReport", "IterationLimitError",
    "double_factorize", "factorize_two_body_tensor", "reconstruct_two_body",
    "fragment_hamiltonian", "lambda_df", "lambda_csa", "canonical_median",
    "one_electron_shift", "lrps_shift", "lrps_one_body_correction",
    "lrbs_shift", "to_csa_fragment", "build_fermionic_report",
    "assemble_global_bliss",
    # spectral
    "Determinant", "CIVector", "LanczosOptions", "LanczosResult",
    "RangeResult", "SpectralReport", "sector_determinants", "sector_matrix",
    "apply_hamiltonian", "one_body_eigenbasis", "reference_determinant",
    "truncated_lanczos", "spectral_range", "spectral_ranges",
    "deviation_metric", "build_spectral_report", "build_spectral_reports",
    # report
    "NormPair", "BlissSummary", "RunReport", "CompareReport", "to_json",
    "strip_volatile",
    # cli
    "METHODS", "BLISS_METHODS", "SPECTRAL_CHOICES",
    "EXIT_OK", "EXIT_IO", "EXIT_INVALID", "EXIT_SOLVER",
    "RunConfig", "run_pipeline", "run", "compare", "main",
]
