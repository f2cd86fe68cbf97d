"""Globally optimal symmetry shifts for the Pauli 1-norm.

The Pauli 1-norm of a shifted Hamiltonian H - K(mu1, mu2, xi) is a sum of
absolute values of terms that are affine in the shift parameters, so its
exact minimum is a weighted L1 problem.  This module builds that problem,
solves it with :mod:`blisslp.l1min`, and returns the optimal parameters
together with the recomputed norm of the shifted Hamiltonian.

The problem is derived by linearity from the code that defines the norm.
The terms of :func:`blisslp.pauli.pauli_terms` are linear in (h, g), and
:func:`blisslp.hamiltonian.apply_bliss` is linear in the shift, so
terms(H - K(x)) = terms(H) + A x, where column v of A holds the terms of
-K(e_v), the zero Hamiltonian shifted by the unit vector e_v.  Rows that
no shift reaches, such as the direct term g_ijkl with i != j and k != l,
are zero in A; the solver folds them into a constant.

Variables are ordered [mu1, mu2, xi_00, xi_01, ..., xi_(N-1)(N-1)] with one
variable per upper-triangle entry of the symmetric xi matrix.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .hamiltonian import BlissParams, MolecularHamiltonian, apply_bliss
from .l1min import (L1Problem, L1Solution, L1Status, SolverOptions,
                    l1_minimize, merge_duplicate_rows)
from .pauli import PauliNormBreakdown, pauli_one_norm, pauli_terms

__all__ = [
    "LpBlissVarMap",
    "LpBlissIterationLimit",
    "build_lp_bliss_problem",
    "params_from_solution",
    "lp_bliss",
]


@dataclass(frozen=True)
class LpBlissVarMap:
    """Bijection between shift parameters and L1 variable indices."""

    n_orb: int

    @property
    def mu1_index(self) -> int:
        return 0

    @property
    def mu2_index(self) -> int:
        return 1

    @property
    def n_vars(self) -> int:
        n = self.n_orb
        return 2 + n * (n + 1) // 2

    def xi_index(self, i: int, j: int) -> int:
        """Variable index of xi_ij; (i, j) and (j, i) share one variable."""
        n = self.n_orb
        if not (0 <= i < n and 0 <= j < n):
            raise ValueError(f"orbital pair ({i}, {j}) out of range for N={n}")
        if i > j:
            i, j = j, i
        return 2 + i * n - i * (i - 1) // 2 + (j - i)

    def var_names(self) -> tuple[str, ...]:
        names = ["mu1", "mu2"]
        for i in range(self.n_orb):
            for j in range(i, self.n_orb):
                names.append(f"xi_{i}_{j}")
        return tuple(names)


class LpBlissIterationLimit(RuntimeError):
    """Solver hit its pivot budget; carries the best shift found so far."""

    def __init__(self, params: BlissParams, norm: PauliNormBreakdown,
                 solution: L1Solution):
        super().__init__(
            f"LP solver stopped at iteration limit after {solution.iterations} "
            f"pivots; best objective {solution.objective:.12g}")
        self.params = params
        self.norm = norm
        self.solution = solution


def build_lp_bliss_problem(
        hamiltonian: MolecularHamiltonian) -> tuple[L1Problem, LpBlissVarMap]:
    """Express the shifted Pauli 1-norm as a weighted L1 problem.

    One row is produced per Pauli-norm term before any merging:
    N^2 one-body rows (weight 1), N^4 direct rows (weight 1/2) and
    (N(N-1)/2)^2 exchange rows (weight 1).  Evaluating the objective at the
    zero vector reproduces ``pauli_one_norm(hamiltonian).lambda_total``.
    """
    vmap = LpBlissVarMap(hamiltonian.n_orb)

    def term_vector(ham: MolecularHamiltonian) -> np.ndarray:
        return np.concatenate([t.ravel() for t in pauli_terms(ham)])

    zero = replace(hamiltonian, h=np.zeros_like(hamiltonian.h),
                   g=np.zeros_like(hamiltonian.g))
    a = np.column_stack([
        term_vector(apply_bliss(zero, params_from_solution(vmap, e_v)))
        for e_v in np.eye(vmap.n_vars)])
    weights = np.concatenate([
        np.full(term.size, w)
        for term, w in zip(pauli_terms(hamiltonian), (1.0, 0.5, 1.0))])
    problem = L1Problem(a, -term_vector(hamiltonian), weights, vmap.var_names())
    return problem, vmap


def params_from_solution(vmap: LpBlissVarMap, x: np.ndarray) -> BlissParams:
    """Unpack an L1 solution vector into :class:`BlissParams`."""
    n = vmap.n_orb
    xi = np.zeros((n, n))
    for i in range(n):
        for j in range(i, n):
            xi[i, j] = xi[j, i] = x[vmap.xi_index(i, j)]
    return BlissParams(float(x[vmap.mu1_index]), float(x[vmap.mu2_index]), xi)


def lp_bliss(hamiltonian: MolecularHamiltonian,
             options: SolverOptions | None = None
             ) -> tuple[BlissParams, PauliNormBreakdown]:
    """Find the shift parameters minimizing the Pauli 1-norm.

    Duplicate rows are merged before solving, which preserves the objective
    exactly.

    Args:
        hamiltonian: input Hamiltonian.
        options: LP solver options; defaults from :class:`SolverOptions`.

    Returns:
        The optimal parameters and the Pauli-norm breakdown of
        ``apply_bliss(hamiltonian, params)``.

    Raises:
        LpBlissIterationLimit: pivot budget exhausted; the exception carries
            the best parameters and their recomputed norm.
    """
    problem, vmap = build_lp_bliss_problem(hamiltonian)
    solution = l1_minimize(merge_duplicate_rows(problem), options)
    params = params_from_solution(vmap, solution.x_opt)
    norm = pauli_one_norm(apply_bliss(hamiltonian, params))
    if solution.status is L1Status.ITERATION_LIMIT:
        raise LpBlissIterationLimit(params, norm, solution)
    return params, norm
