"""Tests for the integral container and the symmetry-shift fold."""

from dataclasses import replace

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from blisslp import (
    BlissParams,
    MolecularHamiltonian,
    apply_bliss,
    sector_matrix,
    symmetrize_two_body,
    two_body_symmetry_deviation,
)


def test_valid_construction_and_readonly():
    rng = np.random.default_rng(0)
    H = oracles.random_hamiltonian(rng, 3, 2)
    assert H.n_spin_orb == 6
    assert not H.h.flags.writeable
    assert not H.g.flags.writeable
    with pytest.raises(ValueError):
        H.h[0, 0] = 1.0


def test_with_n_elec_copies():
    rng = np.random.default_rng(1)
    H = oracles.random_hamiltonian(rng, 2, 1)
    H2 = H.with_n_elec(3)
    assert H2.n_elec == 3
    assert H.n_elec == 1
    np.testing.assert_array_equal(H.h, H2.h)


def test_with_n_elec_shares_the_tensors():
    """A new sector re-checks only n_elec: no N^4 copy or transpose."""
    n = 20
    H = oracles.random_hamiltonian(np.random.default_rng(15), n, n)
    tracemalloc.start()
    try:
        H2 = H.with_n_elec(n + 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.1 * 8 * n ** 4
    assert (H2.n_elec, H.n_elec) == (n + 1, n)
    assert H2.h is H.h and H2.g is H.g and H2.e_const == H.e_const
    for bad in (-1, 2 * n + 1):
        with pytest.raises(ValueError, match=r"n_elec must lie in \[0, 40\]"):
            H.with_n_elec(bad)


@pytest.mark.parametrize("field, value", [
    ("n_orb", 0),
    ("n_elec", -1),
    ("n_elec", 5),
])
def test_scalar_validation(field, value):
    kwargs = dict(n_orb=2, e_const=0.0, h=np.zeros((2, 2)),
                  g=np.zeros((2, 2, 2, 2)), n_elec=2)
    kwargs[field] = value
    with pytest.raises(ValueError):
        MolecularHamiltonian(**kwargs)


def test_shape_and_symmetry_validation():
    with pytest.raises(ValueError, match="shape"):
        MolecularHamiltonian(n_orb=2, e_const=0.0, h=np.zeros((3, 3)),
                             g=np.zeros((2, 2, 2, 2)), n_elec=2)
    with pytest.raises(ValueError, match="shape"):
        MolecularHamiltonian(n_orb=2, e_const=0.0, h=np.zeros((2, 2)),
                             g=np.zeros((2, 2, 2, 3)), n_elec=2)
    h_bad = np.array([[0.0, 1.0], [0.0, 0.0]])
    with pytest.raises(ValueError, match="symmetric"):
        MolecularHamiltonian(n_orb=2, e_const=0.0, h=h_bad,
                             g=np.zeros((2, 2, 2, 2)), n_elec=2)
    g_bad = np.zeros((2, 2, 2, 2))
    g_bad[0, 1, 0, 0] = 1.0
    with pytest.raises(ValueError, match="symmetry"):
        MolecularHamiltonian(n_orb=2, e_const=0.0, h=np.zeros((2, 2)),
                             g=g_bad, n_elec=2)


@pytest.mark.parametrize("field", ["e_const", "h", "g"])
@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_non_finite_tensors_rejected(field, bad):
    kwargs = dict(n_orb=2, e_const=0.0, h=np.zeros((2, 2)),
                  g=np.zeros((2, 2, 2, 2)), n_elec=2)
    kwargs[field] = np.full(np.shape(kwargs[field]), bad)
    with pytest.raises(ValueError, match=f"{field} has a non-finite value"):
        MolecularHamiltonian(**kwargs)


def test_symmetrize_two_body_helper():
    rng = np.random.default_rng(2)
    g = rng.normal(size=(3, 3, 3, 3))
    gs = symmetrize_two_body(g)
    assert two_body_symmetry_deviation(gs) < 1e-12
    np.testing.assert_allclose(gs, oracles.symmetrize8(g), atol=1e-14)


def test_bliss_params_canonical_symmetry():
    xi = np.array([[1.0, 2.0], [2.0, 3.0]])
    params = BlissParams(0.5, xi)
    assert params.n_orb == 2
    np.testing.assert_array_equal(params.xi, params.xi.T)
    with pytest.raises(ValueError, match="symmetric"):
        BlissParams(0.0, np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(ValueError, match="square"):
        BlissParams(0.0, np.zeros((2, 3)))


def test_bliss_zeros_is_identity_shift():
    rng = np.random.default_rng(3)
    H = oracles.random_hamiltonian(rng, 2, 2)
    H2 = apply_bliss(H, BlissParams.zeros(2))
    np.testing.assert_array_equal(H2.h, H.h)
    np.testing.assert_array_equal(H2.g, H.g)
    assert H2.e_const == H.e_const


def test_apply_bliss_scalar_example():
    """N=1, Ne=1, h=2, mu1=2 zeroes h and moves the constant."""
    H = MolecularHamiltonian(n_orb=1, e_const=0.25, h=np.array([[2.0]]),
                             g=np.zeros((1, 1, 1, 1)), n_elec=1)
    out = apply_bliss(H, BlissParams(2.0, np.zeros((1, 1))))
    assert out.h[0, 0] == 0.0
    assert out.e_const == 0.25 + 2.0


def test_apply_bliss_dimension_mismatch():
    rng = np.random.default_rng(4)
    H = oracles.random_hamiltonian(rng, 2, 2)
    with pytest.raises(ValueError, match="mismatch"):
        apply_bliss(H, BlissParams.zeros(3))


def test_apply_bliss_tensor_formulas():
    """Bit for bit the dense formulas, though g is touched only where
    k = l or i = j."""
    for n_orb, n_elec, seed in ((3, 2, 5), (1, 1, 11), (2, 3, 12), (6, 6, 13)):
        rng = np.random.default_rng(seed)
        H = oracles.random_hamiltonian(rng, n_orb, n_elec)
        K = oracles.random_bliss(rng, n_orb)
        out = apply_bliss(H, K)
        eye = np.eye(n_orb)
        expected_h = H.h - K.mu1 * eye + n_elec * K.xi
        expected_g = H.g - 0.5 * (np.multiply.outer(K.xi, eye)
                                  + np.multiply.outer(eye, K.xi))
        assert out.h.tobytes() == expected_h.tobytes()
        assert out.g.tobytes() == expected_g.tobytes()
        assert out.e_const == H.e_const + K.mu1 * n_elec


def test_apply_bliss_allocates_one_two_body_tensor():
    """The shift's peak is the copy of g plus O(N^3) slabs and the
    finiteness mask, not N^4 outer products."""
    n = 20
    rng = np.random.default_rng(14)
    H = oracles.random_hamiltonian(rng, n, n)
    K = oracles.random_bliss(rng, n)
    tracemalloc.start()
    try:
        out = apply_bliss(H, K)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out.g.nbytes == 8 * n ** 4
    assert peak <= 1.3 * 8 * n ** 4


def test_apply_bliss_preserves_invariants():
    rng = np.random.default_rng(6)
    H = oracles.random_hamiltonian(rng, 3, 3)
    out = apply_bliss(H, oracles.random_bliss(rng, 3))
    np.testing.assert_allclose(out.h, out.h.T, atol=1e-12)
    assert two_body_symmetry_deviation(out.g) < 1e-12


@pytest.mark.parametrize("n_orb, seed", [(1, 7), (3, 8), (5, 9)])
def test_apply_bliss_equals_the_validated_construction(n_orb, seed):
    """The shift skips the symmetry checks but builds, bit for bit, what a
    validated construction from the same tensors builds, read-only."""
    rng = np.random.default_rng(seed)
    H = oracles.random_hamiltonian(rng, n_orb, n_orb)
    out = apply_bliss(H, oracles.random_bliss(rng, n_orb))
    want = replace(H, e_const=out.e_const, h=out.h, g=out.g)
    assert type(out.e_const) is float and out.e_const == want.e_const
    for got, ref in ((out.h, want.h), (out.g, want.g)):
        assert got.dtype == ref.dtype and got.tobytes() == ref.tobytes()
        assert not got.flags.writeable
    assert (out.n_orb, out.n_elec, out.ms2, out.orbsym, out.isym) == (
        H.n_orb, H.n_elec, H.ms2, H.orbsym, H.isym)
    assert not H.h.flags.writeable and out.h is not H.h


def test_apply_bliss_still_checks_finiteness():
    """BlissParams takes a NaN mu1; the shifted constant and h reject it."""
    H = oracles.random_hamiltonian(np.random.default_rng(10), 2, 2)
    with pytest.raises(ValueError, match="e_const has a non-finite value"):
        apply_bliss(H, BlissParams(float("nan"), np.zeros((2, 2))))


@pytest.mark.parametrize("seed", range(4))
def test_sector_invariance_random_shift(seed):
    """Any shift leaves the n_elec-sector spectrum untouched."""
    rng = np.random.default_rng(100 + seed)
    n = int(rng.integers(2, 4))
    n_elec = int(rng.integers(1, 2 * n))
    H = oracles.random_hamiltonian(rng, n, n_elec)
    out = apply_bliss(H, oracles.random_bliss(rng, n))
    mat_a, _ = sector_matrix(H, n_elec)
    mat_b, _ = sector_matrix(out, n_elec)
    ev_a = np.linalg.eigvalsh(mat_a)
    ev_b = np.linalg.eigvalsh(mat_b)
    np.testing.assert_allclose(ev_a, ev_b, atol=1e-9)


def test_sector_invariance_n3_exact_oracle():
    """N=3, Ne=2: all C(6,2)=15 determinant eigenvalues agree to 1e-9."""
    rng = np.random.default_rng(7)
    H = oracles.random_hamiltonian(rng, 3, 2)
    out = apply_bliss(H, oracles.random_bliss(rng, 3))
    ev_a = oracles.sector_eigenvalues(oracles.fock_matrix(H), 6, 2)
    ev_b = oracles.sector_eigenvalues(oracles.fock_matrix(out), 6, 2)
    assert ev_a.size == 15
    np.testing.assert_allclose(ev_a, ev_b, atol=1e-9)


def test_global_fock_space_identity():
    """apply_bliss realizes H - K exactly as a Fock-space operator."""
    rng = np.random.default_rng(8)
    H = oracles.random_hamiltonian(rng, 2, 2)
    K = oracles.random_bliss(rng, 2)
    lhs = oracles.fock_matrix(apply_bliss(H, K))
    rhs = oracles.fock_matrix(H) - oracles.bliss_matrix(K, H.n_elec)
    np.testing.assert_allclose(lhs, rhs, atol=1e-12)


@settings(max_examples=20, deadline=None)
@given(n_orb=st.integers(1, 3), seed=st.integers(0, 2 ** 32 - 1),
       data=st.data())
def test_quadratic_term_folds_into_mu1_and_xi(n_orb, seed, data):
    """mu1 (N - Ne) + mu2 (N^2 - Ne^2) + sum xi F (N - Ne), the three-
    parameter K, is the two-parameter K of (mu1 + mu2 Ne, xi + mu2 I)."""
    n_elec = data.draw(st.integers(0, 2 * n_orb))
    rng = np.random.default_rng(seed)
    mu1, mu2 = rng.normal(size=2)
    xi = rng.normal(size=(n_orb, n_orb))
    xi = 0.5 * (xi + xi.T)
    dim = 1 << (2 * n_orb)
    f = oracles.excitation_matrices(n_orb)
    num = oracles.number_matrix(2 * n_orb)
    shifted = num - n_elec * np.eye(dim)
    xi_op = sum(xi[i, j] * f[i][j] for i in range(n_orb) for j in range(n_orb))
    three = (mu1 * shifted + mu2 * (num @ num - n_elec ** 2 * np.eye(dim))
             + xi_op @ shifted)
    folded = BlissParams(mu1 + mu2 * n_elec, xi + mu2 * np.eye(n_orb))
    np.testing.assert_allclose(oracles.bliss_matrix(folded, n_elec), three,
                               rtol=0, atol=1e-12)
