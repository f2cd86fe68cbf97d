"""Symmetry shifts and low-rank decompositions for LCU 1-norm reduction.

The package turns a second-quantized electronic Hamiltonian (FCIDUMP in,
FCIDUMP out) into a cheaper-to-block-encode one: it builds shift operators
that vanish on the physical electron-number sector, minimizes the resulting
Pauli or double-factorized 1-norms by linear programming or analytic median
shifts, and certifies the reduction against exact or Lanczos spectral
ranges.

The namespace is lazy (PEP 562): ``import blisslp`` loads no submodule and
no numpy.  A public name, or a submodule named as an attribute, imports its
submodule on first use.  ``blisslp.lp_bliss`` is the function in every
import order; the module is ``sys.modules["blisslp.lp_bliss"]``.
"""

import importlib
import sys
import types

__version__ = "0.1.0"

# submodule -> the public names it defines; each name is listed once.
_EXPORTS = {
    "hamiltonian": "MolecularHamiltonian BlissParams apply_bliss "
                   "symmetrize_two_body two_body_symmetry_deviation",
    "fcidump": "FcidumpError parse_fcidump write_fcidump",
    "pauli": "PauliNormBreakdown pauli_one_norm",
    "simplex": "LpResult LpStatus solve_lp",
    "l1min": "L1Problem SolverOptions ScipyLinprogSolver l1_minimize "
             "evaluate_objective merge_duplicate_rows weighted_median "
             "dump_problem",
    "lp_bliss": "LpBlissVarMap LpBlissIterationLimit build_lp_bliss_problem "
                "params_from_solution lp_bliss",
    "fermionic": "FERMIONIC_METHODS DFFragment OneBodySpectrum "
                 "LrpsCorrection FragmentNorm FermionicNormReport "
                 "IterationLimitError double_factorize "
                 "factorize_two_body_tensor reconstruct_two_body "
                 "fragment_hamiltonian lambda_df lambda_csa canonical_median "
                 "one_electron_shift lrps_shift lrps_one_body_correction "
                 "lrbs_shift build_fermionic_report assemble_global_bliss",
    "spectral": "CIVector LanczosOptions LanczosResult "
                "RangeResult SpectralReport sector_determinants sector_matrix "
                "apply_hamiltonian truncated_lanczos spectral_range "
                "spectral_ranges deviation_metric build_spectral_report "
                "build_spectral_reports",
    "report": "NormPair BlissSummary RunReport CompareReport to_json "
              "strip_volatile",
    "cli": "METHODS BLISS_METHODS SPECTRAL_CHOICES EXIT_OK EXIT_IO "
           "EXIT_INVALID EXIT_SOLVER RunConfig run_pipeline run compare main",
}
_SOURCE = {name: module for module, names in _EXPORTS.items()
           for name in names.split()}

__all__ = ["__version__", *_SOURCE]


def __getattr__(name: str):
    module = _SOURCE.get(name, name)  # a public name's module, or a module
    if module not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = importlib.import_module(f".{module}", __name__)
    if name in _SOURCE:
        value = globals()[name] = getattr(value, name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_EXPORTS})


class _Package(types.ModuleType):
    """Importing a submodule binds it on the package; a submodule that
    shares its name with an export (``lp_bliss``) must not hide it."""

    def __setattr__(self, name: str, value) -> None:
        if not (name in _SOURCE and isinstance(value, types.ModuleType)):
            super().__setattr__(name, value)


sys.modules[__name__].__class__ = _Package
