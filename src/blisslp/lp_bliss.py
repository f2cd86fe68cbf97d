"""Globally optimal symmetry shifts for the Pauli 1-norm.

The Pauli 1-norm of a shifted Hamiltonian H - K(mu1, mu2, xi) is a sum of
absolute values of terms that are affine in the shift parameters, so its
exact minimum is a weighted L1 problem.  This module builds that problem,
solves it, and returns the optimal parameters together with the recomputed
norm of the shifted Hamiltonian.

The problem is derived by linearity from the code that defines the norm.
The terms of :func:`blisslp.pauli.pauli_terms` are linear in (h, g), and
:func:`blisslp.hamiltonian.apply_bliss` is linear in the shift, so
terms(H - K(x)) = terms(H) + A x, where column v of A holds the terms of
-K(e_v), the zero Hamiltonian shifted by the unit vector e_v.  Rows that
no shift reaches, such as the direct term g_ijkl with i != j and k != l,
are zero in A.

The problem splits into independent blocks.  The shift enters g_ijkl only
through d_ij and d_kl, and the one-body term only through d_ij and xi_ij,
so every row of A touches either no variable, exactly one off-diagonal
xi_pq (p < q), or only the diagonal variables mu1, mu2, xi_00, ...,
xi_(N-1)(N-1).  The objective is then a constant, plus one term per
off-diagonal xi_pq, each a one-variable problem min sum_r w_r |a_r x - b_r|
solved exactly by the weighted median of b_r / a_r with weights w_r |a_r|,
plus one small L1 problem over the N + 2 diagonal variables, which
:func:`blisslp.l1min.l1_minimize` solves.  The blocks share no variable, so
minimizing each one minimizes the sum: the result is the global optimum of
the whole problem.
:func:`build_lp_bliss_problem` still states the whole problem, for dumps and
as the reference the split is tested against.

Variables are ordered [mu1, mu2, xi_00, xi_01, ..., xi_(N-1)(N-1)] with one
variable per upper-triangle entry of the symmetric xi matrix.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .hamiltonian import BlissParams, MolecularHamiltonian, apply_bliss
from .l1min import (L1Problem, L1Solution, L1Status, SolverOptions,
                    l1_minimize, merge_duplicate_rows, weighted_median)
from .pauli import (PAULI_TERM_WEIGHTS, PauliNormBreakdown, pauli_one_norm,
                    pauli_terms)

__all__ = [
    "LpBlissVarMap",
    "LpBlissIterationLimit",
    "build_lp_bliss_problem",
    "params_from_solution",
    "lp_bliss",
    "lp_bliss_shifted",
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
    """Solver hit its pivot budget; carries the best shift found so far.

    ``solution`` is the diagonal block's solve; ``norm`` is the Pauli norm of
    the Hamiltonian shifted by ``params``.
    """

    def __init__(self, params: BlissParams, norm: PauliNormBreakdown,
                 solution: L1Solution):
        super().__init__(
            f"LP solver stopped at iteration limit after {solution.iterations} "
            f"pivots; best shifted Pauli norm {norm.lambda_total:.12g}")
        self.params = params
        self.norm = norm
        self.solution = solution


def _shift_columns(hamiltonian: MolecularHamiltonian, vmap: LpBlissVarMap):
    """Yield column v of A, the terms of the zero Hamiltonian shifted by e_v,
    in variable order."""
    zero = replace(hamiltonian, h=np.zeros_like(hamiltonian.h),
                   g=np.zeros_like(hamiltonian.g))
    for e_v in np.eye(vmap.n_vars):
        shifted = apply_bliss(zero, params_from_solution(vmap, e_v))
        yield np.concatenate([t.ravel() for t in pauli_terms(shifted)])


def _rhs_and_weights(
        hamiltonian: MolecularHamiltonian) -> tuple[np.ndarray, np.ndarray]:
    """b = -terms(H) and the row weights 1, 1/2, 1 of the three term kinds."""
    terms = pauli_terms(hamiltonian)
    b = -np.concatenate([t.ravel() for t in terms])
    weights = np.concatenate([np.full(t.size, w)
                              for t, w in zip(terms, PAULI_TERM_WEIGHTS)])
    return b, weights


def build_lp_bliss_problem(
        hamiltonian: MolecularHamiltonian) -> tuple[L1Problem, LpBlissVarMap]:
    """Express the shifted Pauli 1-norm as one weighted L1 problem.

    One row is produced per Pauli-norm term before any merging:
    N^2 one-body rows (weight 1), N^4 direct rows (weight 1/2) and
    (N(N-1)/2)^2 exchange rows (weight 1).  Evaluating the objective at the
    zero vector reproduces ``pauli_one_norm(hamiltonian).lambda_total``.
    :func:`lp_bliss` solves the same problem block by block without
    building it.
    """
    vmap = LpBlissVarMap(hamiltonian.n_orb)
    a = np.column_stack(list(_shift_columns(hamiltonian, vmap)))
    problem = L1Problem(a, *_rhs_and_weights(hamiltonian), vmap.var_names())
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
    """:func:`lp_bliss_shifted` without the shifted Hamiltonian: the optimal
    parameters and the Pauli-norm breakdown of the shifted Hamiltonian."""
    params, _, norm = lp_bliss_shifted(hamiltonian, options)
    return params, norm


def lp_bliss_shifted(hamiltonian: MolecularHamiltonian,
                     options: SolverOptions | None = None
                     ) -> tuple[BlissParams, MolecularHamiltonian,
                                PauliNormBreakdown]:
    """Find the shift parameters minimizing the Pauli 1-norm.

    Each off-diagonal xi_pq is set to the lower attained weighted median of
    its rows.  The rows of the diagonal variables have their duplicates
    merged and are solved as one L1 problem; ``options`` applies to that
    solve, including its default pivot budget.

    Args:
        hamiltonian: input Hamiltonian.
        options: LP solver options for the diagonal block; defaults from
            :class:`SolverOptions`.

    Returns:
        The optimal parameters, the shifted Hamiltonian
        ``apply_bliss(hamiltonian, params)`` and its Pauli-norm breakdown.

    Raises:
        LpBlissIterationLimit: pivot budget exhausted; the exception carries
            the best parameters and their recomputed norm.
    """
    vmap = LpBlissVarMap(hamiltonian.n_orb)
    b, weights = _rhs_and_weights(hamiltonian)
    # Ascending, like the columns, so entries[j] belongs to diagonal[j].
    diagonal = [vmap.mu1_index, vmap.mu2_index] + [
        vmap.xi_index(i, i) for i in range(vmap.n_orb)]
    x = np.zeros(vmap.n_vars)
    entries = []
    for v, column in enumerate(_shift_columns(hamiltonian, vmap)):
        rows = np.flatnonzero(column)
        a = column[rows]
        if v in diagonal:
            entries.append((rows, a))
        else:
            x[v] = weighted_median(b[rows] / a, weights[rows] * np.abs(a))

    # A mask rather than np.unique, whose plain form imports numpy.ma.
    in_block = np.zeros(b.size, dtype=bool)
    for rows, _ in entries:
        in_block[rows] = True
    block_rows = np.flatnonzero(in_block)
    a = np.zeros((block_rows.size, len(diagonal)))
    for j, (rows, values) in enumerate(entries):
        a[np.searchsorted(block_rows, rows), j] = values
    names = vmap.var_names()
    block = L1Problem(a, b[block_rows], weights[block_rows],
                      tuple(names[v] for v in diagonal))
    solution = l1_minimize(merge_duplicate_rows(block), options)
    x[diagonal] = solution.x_opt

    params = params_from_solution(vmap, x)
    shifted = apply_bliss(hamiltonian, params)
    norm = pauli_one_norm(shifted)
    if solution.status is L1Status.ITERATION_LIMIT:
        raise LpBlissIterationLimit(params, norm, solution)
    return params, shifted, norm
