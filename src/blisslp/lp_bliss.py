"""Globally optimal symmetry shifts for the Pauli 1-norm.

The Pauli 1-norm of H - K(mu1, xi) sums absolute values of terms affine in
the shift, so its exact minimum is a weighted L1 problem, which this module
builds and solves, returning the optimal shift and the shifted norm.

The problem is derived by linearity from the code that defines the norm:
:func:`blisslp.pauli.pauli_terms` is linear in (h, g) and
:func:`blisslp.hamiltonian.apply_bliss` in the shift, so terms(H - K(x)) =
terms(H) + A x, where A x holds the terms of the zero Hamiltonian shifted
by x.  The shift enters g_ijkl only through d_ij and d_kl, and the one-body
term only through d_ij and xi_ij, so a row of A touches no variable, one
off-diagonal xi_pq (p < q) alone, or only the diagonal variables mu1,
xi_00, ..., xi_(N-1)(N-1).  A is read from that split with N + 3 shifts:
every xi_pq = 1 gives their coefficients, as their rows are disjoint;
xi_pq = v, the variable's index, labels each of those rows with its
variable (a coefficient is a small dyadic number, so the label is exact,
and one that is not an integer is a fault); each diagonal variable is
probed alone.  The blocks share no variable, so minimizing each one gives
the global optimum: each xi_pq is the weighted median of b_r / a_r over its
rows, with weights w_r |a_r|, and the N + 1 diagonal variables form one
small problem for :func:`blisslp.l1min.l1_minimize`.
:func:`build_lp_bliss_problem` states the whole problem, for dumps.

Variables are ordered [mu1, xi_00, xi_01, ..., xi_(N-1)(N-1)], one per
upper-triangle entry of xi in ``np.triu_indices`` order; the problem has
full column rank.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .hamiltonian import (BlissParams, MolecularHamiltonian, _derive,
                          apply_bliss)
from .l1min import (L1Problem, SolverOptions, l1_minimize,
                    merge_duplicate_rows, weighted_median)
from .pauli import (PAULI_TERM_WEIGHTS, PauliNormBreakdown, pauli_one_norm,
                    pauli_terms)
from .simplex import LpResult, LpStatus

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
    def n_vars(self) -> int:
        n = self.n_orb
        return 1 + n * (n + 1) // 2

    def xi_index(self, i: int, j: int) -> int:
        """Variable index of xi_ij; (i, j) and (j, i) share one variable."""
        n = self.n_orb
        if not (0 <= i < n and 0 <= j < n):
            raise ValueError(f"orbital pair ({i}, {j}) out of range for N={n}")
        if i > j:
            i, j = j, i
        return 1 + i * n - i * (i - 1) // 2 + (j - i)

    def var_names(self) -> tuple[str, ...]:
        return ("mu1",) + tuple(
            f"xi_{i}_{j}" for i, j in zip(*np.triu_indices(self.n_orb)))


class LpBlissIterationLimit(RuntimeError):
    """Solver hit its pivot budget; carries the best shift found so far.

    ``solution`` is the diagonal block's solve; ``norm`` is the Pauli norm of
    the Hamiltonian shifted by ``params``.
    """

    def __init__(self, params: BlissParams, norm: PauliNormBreakdown,
                 solution: LpResult):
        super().__init__(
            f"LP solver stopped at iteration limit after {solution.iterations} "
            f"pivots; best shifted Pauli norm {norm.lambda_total:.12g}")
        self.params = params
        self.norm = norm
        self.solution = solution


def _off_diagonal(vmap: LpBlissVarMap) -> np.ndarray:
    i, j = np.triu_indices(vmap.n_orb)
    return np.concatenate([[False], i != j])


def _nonzeros(hamiltonian: MolecularHamiltonian, vmap: LpBlissVarMap
              ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """A's nonzero entries (rows, variables, values), from N + 3 probes."""
    zero = _derive(hamiltonian, h=np.zeros_like(hamiltonian.h),
                   g=np.zeros_like(hamiltonian.g))

    def probe(x, rows=None):
        """Terms of the zero H shifted by x, on rows or their nonzeros only."""
        shifted = apply_bliss(zero, params_from_solution(vmap, x))
        column = np.concatenate([t.ravel() for t in pauli_terms(shifted)])
        rows = np.flatnonzero(column) if rows is None else rows
        return rows, column[rows]

    off = _off_diagonal(vmap)
    rows, unit = probe(off * 1.0)
    labels = probe(off * np.arange(vmap.n_vars), rows)[1] / unit
    variables = labels.astype(np.intp)
    if not np.array_equal(variables, labels):
        raise RuntimeError("an off-diagonal row carries more than one xi_pq")
    parts = [(rows, variables, unit)]
    for v in np.flatnonzero(~off):
        rows, values = probe(np.eye(1, vmap.n_vars, v)[0])
        parts.append((rows, np.full(rows.size, v), values))
    return tuple(np.concatenate(part) for part in zip(*parts))


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
    rows, variables, values = _nonzeros(hamiltonian, vmap)
    b, weights = _rhs_and_weights(hamiltonian)
    a = np.zeros((b.size, vmap.n_vars))
    a[rows, variables] = values
    return L1Problem(a, b, weights, vmap.var_names()), vmap


def params_from_solution(vmap: LpBlissVarMap, x: np.ndarray) -> BlissParams:
    """Unpack an L1 solution vector into :class:`BlissParams`."""
    i, j = np.triu_indices(vmap.n_orb)
    xi = np.zeros((vmap.n_orb, vmap.n_orb))
    xi[i, j] = xi[j, i] = x[1:]
    return BlissParams(float(x[vmap.mu1_index]), xi)


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
    rows, variables, values = _nonzeros(hamiltonian, vmap)
    off = _off_diagonal(vmap)
    x = np.zeros(vmap.n_vars)
    order = np.argsort(variables, kind="stable")  # rows stay ascending
    rows, variables, values = rows[order], variables[order], values[order]
    bounds = np.searchsorted(variables, np.arange(vmap.n_vars + 1))
    for v in np.flatnonzero(off):
        r, a = (part[bounds[v]:bounds[v + 1]] for part in (rows, values))
        x[v] = weighted_median(b[r] / a, weights[r] * np.abs(a))
    # Not plain np.unique, which imports numpy.ma.
    block = ~off[variables]
    block_rows, at = np.unique(rows[block], return_inverse=True)
    diagonal = np.flatnonzero(~off)
    a = np.zeros((block_rows.size, diagonal.size))
    a[at, np.searchsorted(diagonal, variables[block])] = values[block]
    solution = l1_minimize(merge_duplicate_rows(
        L1Problem(a, b[block_rows], weights[block_rows])), options)
    x[diagonal] = solution.x

    params = params_from_solution(vmap, x)
    shifted = apply_bliss(hamiltonian, params)
    norm = pauli_one_norm(shifted)
    if solution.status is LpStatus.ITERATION_LIMIT:
        raise LpBlissIterationLimit(params, norm, solution)
    return params, shifted, norm
