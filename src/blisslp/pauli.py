"""Closed-form qubit-LCU 1-norm of a second-quantized Hamiltonian.

For real 8-fold-symmetric integrals the 1-norm of the non-identity Pauli
coefficients produced by the Jordan-Wigner (or Bravyi-Kitaev) mapping is

    lambda = sum_ij |h_ij + 2 sum_k g_ijkk|
           + (1/2) sum_ijkl |g_ijkl|
           + sum_{i>k, j>l} |g_ijkl - g_ilkj|

independent of the scalar part.  The three sums are reported separately so
that shifted and unshifted Hamiltonians can be compared term by term.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .hamiltonian import MolecularHamiltonian

__all__ = ["PauliNormBreakdown", "PAULI_TERM_WEIGHTS", "pauli_terms",
           "pauli_one_norm"]

# Weight of each of the three sums in lambda, in ``pauli_terms`` order.
PAULI_TERM_WEIGHTS = (1.0, 0.5, 1.0)


@dataclass(frozen=True)
class PauliNormBreakdown:
    """Pauli 1-norm split into its one-body, direct and exchange sums.

    ``lambda_total`` is exactly ``term1 + term2 + term3`` as floats.
    """

    term1: float
    term2: float
    term3: float
    lambda_total: float


def _exchange_mask(n: int) -> np.ndarray:
    idx = np.arange(n)
    gt_ik = idx[:, None, None, None] > idx[None, None, :, None]
    gt_jl = idx[None, :, None, None] > idx[None, None, None, :]
    return gt_ik & gt_jl


def pauli_terms(
        hamiltonian: MolecularHamiltonian) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The three arrays whose absolute values make up the Pauli 1-norm.

    Returns the (N, N) effective one-body term h_ij + 2 sum_k g_ijkk, the
    (N, N, N, N) direct term g, and the exchange differences g_ijkl - g_ilkj
    over i > k, j > l as a flat array in lexicographic (i, j, k, l) order.
    All three are linear in (h, g).
    """
    h, g = hamiltonian.h, hamiltonian.g
    effective_one_body = h + 2.0 * np.einsum("ijkk->ij", g)
    diff = g - g.transpose(0, 3, 2, 1)
    return effective_one_body, g, diff[_exchange_mask(hamiltonian.n_orb)]


def pauli_one_norm(hamiltonian: MolecularHamiltonian) -> PauliNormBreakdown:
    """Evaluate the Pauli-LCU 1-norm of ``hamiltonian`` (scalar part excluded).

    Sums run in lexicographic index order, so repeated evaluation of the same
    tensors reproduces the decomposition bit for bit.
    """
    term1, term2, term3 = (weight * float(np.abs(term).sum()) for weight, term
                           in zip(PAULI_TERM_WEIGHTS, pauli_terms(hamiltonian)))
    return PauliNormBreakdown(term1, term2, term3, term1 + term2 + term3)
