"""Tests for the Pauli-product LCU 1-norm."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from blisslp import MolecularHamiltonian, pauli_one_norm


def make_h1(h00: float, g0000: float) -> MolecularHamiltonian:
    return MolecularHamiltonian(n_orb=1, e_const=0.0, h=np.array([[h00]]),
                                g=np.array([[[[g0000]]]]), n_elec=1)


def test_zero_hamiltonian():
    out = pauli_one_norm(make_h1(0.0, 0.0))
    assert out.term1 == out.term2 == out.term3 == out.lambda_total == 0.0


def test_one_orbital_hand_example():
    """h=-1.25, g=0.25: |h + 2g| = 0.75 plus g/2 = 0.125."""
    out = pauli_one_norm(make_h1(-1.25, 0.25))
    assert out.term1 == pytest.approx(0.75, abs=1e-15)
    assert out.term2 == pytest.approx(0.125, abs=1e-15)
    assert out.term3 == 0.0
    assert out.lambda_total == pytest.approx(0.875, abs=1e-15)


def test_terms_sum_exactly():
    rng = np.random.default_rng(10)
    out = pauli_one_norm(oracles.random_hamiltonian(rng, 3, 3))
    assert out.lambda_total == out.term1 + out.term2 + out.term3
    assert out.term1 >= 0 and out.term2 >= 0 and out.term3 >= 0


def test_constant_term_excluded():
    rng = np.random.default_rng(11)
    H = oracles.random_hamiltonian(rng, 2, 2)
    shifted = MolecularHamiltonian(n_orb=2, e_const=H.e_const + 37.0,
                                   h=H.h, g=H.g, n_elec=2)
    assert pauli_one_norm(H).lambda_total == pauli_one_norm(shifted).lambda_total


@pytest.mark.parametrize("scale", [0.0, 0.5, 3.0])
def test_homogeneity(scale):
    rng = np.random.default_rng(12)
    H = oracles.random_hamiltonian(rng, 2, 2)
    scaled = MolecularHamiltonian(n_orb=2, e_const=scale * H.e_const,
                                  h=scale * H.h, g=scale * H.g, n_elec=2)
    assert pauli_one_norm(scaled).lambda_total == pytest.approx(
        scale * pauli_one_norm(H).lambda_total, abs=1e-12)


def _check_jordan_wigner(H):
    got = pauli_one_norm(H).lambda_total
    want = oracles.jw_pauli_one_norm(H)
    assert got == pytest.approx(want, abs=1e-10)


@pytest.mark.parametrize("n_orb, seed", [(1, 0), (1, 1), (2, 2), (2, 3),
                                         (3, 4), (3, 5)])
def test_jordan_wigner_oracle_equivalence(n_orb, seed):
    """lambda equals the non-identity coefficient 1-norm of the explicit
    qubit operator, on pinned random Hamiltonians."""
    rng = np.random.default_rng(300 + seed)
    _check_jordan_wigner(oracles.random_hamiltonian(rng, n_orb, n_orb))


@settings(max_examples=40, deadline=None)
@given(n_orb=st.integers(1, 3), seed=st.integers(0, 2 ** 32 - 1))
def test_jordan_wigner_oracle_equivalence_drawn(n_orb, seed):
    """The same equivalence for hypothesis-drawn Hamiltonians of N = 1..3."""
    rng = np.random.default_rng(seed)
    _check_jordan_wigner(oracles.random_hamiltonian(rng, n_orb, n_orb))


@pytest.mark.parametrize("seed", range(5))
def test_lower_bounds_half_spectral_range(seed):
    rng = np.random.default_rng(400 + seed)
    n = int(rng.integers(1, 4))
    H = oracles.random_hamiltonian(rng, n, n)
    evals = np.linalg.eigvalsh(oracles.fock_matrix(H))
    half_range = 0.5 * (evals[-1] - evals[0])
    assert pauli_one_norm(H).lambda_total >= half_range - 1e-10
