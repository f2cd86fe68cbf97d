"""Tests for sector vectors, exact ranges and the Lanczos engine."""

import hashlib
from math import comb

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from blisslp import (
    CIVector,
    Determinant,
    LanczosOptions,
    LanczosResult,
    MolecularHamiltonian,
    apply_bliss,
    apply_hamiltonian,
    build_spectral_report,
    deviation_metric,
    one_body_eigenbasis,
    reference_determinant,
    sector_determinants,
    sector_matrix,
    spectral_range,
    truncated_lanczos,
)
from blisslp import spectral
from blisslp.spectral import (_block_table, _check_memory, _sector_operator,
                              sector_dimension)


def sector_civector(rng, n_spin_orb, n_elec) -> CIVector:
    masks = sector_determinants(n_spin_orb, n_elec)
    amps = rng.normal(size=len(masks))
    return CIVector(entries=dict(zip(masks, amps)), n_elec=n_elec,
                    n_spin_orb=n_spin_orb)


def civector_to_dense(vec: CIVector) -> np.ndarray:
    masks = sector_determinants(vec.n_spin_orb, vec.n_elec)
    return np.array([vec.entries.get(m, 0.0) for m in masks])


def test_determinant_validation():
    det = Determinant(occupancy=0b1101, n_elec=3)
    assert det.spin_orbitals() == (0, 2, 3)
    with pytest.raises(ValueError, match="non-negative"):
        Determinant(occupancy=-1, n_elec=0)
    with pytest.raises(ValueError, match="set bits"):
        Determinant(occupancy=0b11, n_elec=1)
    assert Determinant(0b01, 1) < Determinant(0b10, 1)


def test_civector_validation_and_algebra():
    vec = CIVector(entries={0b0011: 3.0, 0b0101: 4.0}, n_elec=2, n_spin_orb=4)
    assert vec.norm() == pytest.approx(5.0)
    other = CIVector(entries={0b0011: 1.0}, n_elec=2, n_spin_orb=4)
    assert vec.dot(other) == pytest.approx(3.0)
    with pytest.raises(TypeError):
        vec.entries[0b0011] = 0.0
    with pytest.raises(ValueError, match="sector"):
        CIVector(entries={0b0111: 1.0}, n_elec=2, n_spin_orb=4)
    with pytest.raises(ValueError, match="spin-orbitals"):
        CIVector(entries={0b10000: 1.0}, n_elec=1, n_spin_orb=4)
    with pytest.raises(ValueError, match="finite"):
        CIVector(entries={0b0011: float("nan")}, n_elec=2, n_spin_orb=4)
    with pytest.raises(ValueError, match="sectors"):
        vec.dot(CIVector(entries={}, n_elec=1, n_spin_orb=4))
    with pytest.raises(ValueError, match="n_elec=5 outside"):
        CIVector(entries={}, n_elec=5, n_spin_orb=4)


def test_sector_enumeration():
    masks = sector_determinants(4, 2)
    assert len(masks) == sector_dimension(4, 2) == 6
    assert masks == tuple(sorted(masks))
    assert all(m.bit_count() == 2 for m in masks)
    assert sector_determinants(4, 0) == (0,)
    with pytest.raises(ValueError):
        sector_determinants(4, 5)


def test_apply_diagonal_hamiltonian():
    """Diagonal h scales a determinant by e_const plus occupied energies."""
    h = np.diag([0.5, -2.0])
    H = MolecularHamiltonian(n_orb=2, e_const=1.0, h=h,
                             g=np.zeros((2,) * 4), n_elec=2)
    vec = CIVector(entries={0b0110: 2.0}, n_elec=2, n_spin_orb=4)
    out = apply_hamiltonian(H, vec)
    # Spin-orbitals 1 (orbital 0) and 2 (orbital 1) are occupied.
    want = (1.0 + 0.5 - 2.0) * 2.0
    assert set(out.entries) == {0b0110}
    assert out.entries[0b0110] == pytest.approx(want, abs=1e-12)


def test_apply_zero_vector():
    rng = np.random.default_rng(61)
    H = oracles.random_hamiltonian(rng, 2, 2)
    out = apply_hamiltonian(H, CIVector(entries={}, n_elec=2, n_spin_orb=4))
    assert dict(out.entries) == {}


@pytest.mark.parametrize("n_elec", [0, 1, 2, 3, 4])
def test_apply_matches_dense_oracle(n_elec):
    rng = np.random.default_rng(1800 + n_elec)
    H = oracles.random_hamiltonian(rng, 2, n_elec)
    vec = sector_civector(rng, 4, n_elec)
    got = civector_to_dense(apply_hamiltonian(H, vec))
    fock = oracles.fock_matrix(H)
    idx = oracles.sector_indices(4, n_elec)
    want = fock[np.ix_(idx, idx)] @ civector_to_dense(vec)
    np.testing.assert_allclose(got, want, atol=1e-10)


def test_apply_sector_mismatch_error():
    rng = np.random.default_rng(62)
    H = oracles.random_hamiltonian(rng, 2, 2)
    with pytest.raises(ValueError, match="differ"):
        apply_hamiltonian(H, CIVector(entries={0b11: 1.0}, n_elec=2,
                                      n_spin_orb=6))


def test_apply_builds_only_the_touched_block(monkeypatch):
    """A determinant of the 3-electron sector of N=3 lies in one of its four
    spin blocks, and only that block's table is built."""
    H = oracles.random_hamiltonian(np.random.default_rng(64), 3, 3)
    built = []

    def counting(n_orb, n_elec, n_alpha):
        built.append(n_alpha)
        return block_table(n_orb, n_elec, n_alpha)

    block_table = spectral._block_table
    monkeypatch.setattr(spectral, "_block_table", counting)
    det = 0b000111  # spin-orbitals 0 and 2 (spin 0), 1 (spin 1)
    out = apply_hamiltonian(H, CIVector({det: 1.0}, 3, 6))
    assert built == [2]
    idx = oracles.sector_indices(6, 3)
    want = oracles.fock_matrix(H)[np.ix_(idx, idx)][:, idx.index(det)]
    np.testing.assert_allclose(civector_to_dense(out), want, atol=1e-10)


def test_apply_linearity_and_hermiticity():
    rng = np.random.default_rng(63)
    H = oracles.random_hamiltonian(rng, 3, 3)
    u = sector_civector(rng, 6, 3)
    v = sector_civector(rng, 6, 3)
    hv = apply_hamiltonian(H, v)
    hu = apply_hamiltonian(H, u)
    assert u.dot(hv) == pytest.approx(hu.dot(v), abs=1e-10)
    combo = CIVector(
        entries={occ: 2.0 * u.entries.get(occ, 0.0) - 3.0 * v.entries.get(occ, 0.0)
                 for occ in set(u.entries) | set(v.entries)},
        n_elec=3, n_spin_orb=6)
    h_combo = apply_hamiltonian(H, combo)
    np.testing.assert_allclose(
        civector_to_dense(h_combo),
        2.0 * civector_to_dense(hu) - 3.0 * civector_to_dense(hv), atol=1e-10)


@pytest.mark.parametrize("n_orb, n_elec",
                         [(2, n) for n in range(5)] + [(3, n) for n in range(7)])
def test_sector_matrix_basis_order(n_orb, n_elec):
    rng = np.random.default_rng(64)
    H = oracles.random_hamiltonian(rng, n_orb, n_elec)
    mat, basis = sector_matrix(H, n_elec)
    assert basis == sector_determinants(2 * n_orb, n_elec)
    np.testing.assert_allclose(mat, mat.T, atol=1e-12)
    idx = oracles.sector_indices(2 * n_orb, n_elec)
    want = oracles.fock_matrix(H)[np.ix_(idx, idx)]
    np.testing.assert_allclose(mat, want, atol=1e-10)


@settings(max_examples=20, deadline=None)
@given(n_orb=st.integers(2, 3), seed=st.integers(0, 2 ** 32 - 1))
def test_block_matrix_matches_oracle(n_orb, seed):
    """Each block of each sector is the Fock-space oracle restricted to the
    block's determinants, and the sector matrix couples no two blocks."""
    H = oracles.random_hamiltonian(np.random.default_rng(seed), n_orb, n_orb)
    fock = oracles.fock_matrix(H)
    spin0 = sum(1 << 2 * p for p in range(n_orb))
    for n_elec in range(2 * n_orb + 1):
        whole, basis = sector_matrix(H, n_elec)
        alphas = np.array([(d & spin0).bit_count() for d in basis])
        for n_alpha in range(max(0, n_elec - n_orb), min(n_elec, n_orb) + 1):
            mat, dets = sector_matrix(H, n_elec, n_alpha)
            assert len(dets) == sector_dimension(2 * n_orb, n_elec, n_alpha)
            assert dets == tuple(np.array(basis)[alphas == n_alpha].tolist())
            np.testing.assert_allclose(mat, fock[np.ix_(dets, dets)],
                                       atol=1e-10)
        assert np.all(whole[alphas[:, None] != alphas] == 0.0)
    with pytest.raises(ValueError, match="n_alpha"):
        sector_matrix(H, 1, 2)


# sha256 of sector_matrix(H, n, a)[0].tobytes() for every block of
# random_hamiltonian(default_rng(0), 5, 5), recorded from the engine that
# enumerated the whole sector and looped over (ann, cre) pairs.
BLOCK_DIGESTS = {
    (0, 0): "4391d6e0c9df016808c0ecb688f70cb0c5943a60bcc4f61c090c429733cc9038",
    (1, 0): "a93e4c36bf71591bb82636aabe8b702d845dbcdb57c45a1a9928c97a9d415acf",
    (1, 1): "a93e4c36bf71591bb82636aabe8b702d845dbcdb57c45a1a9928c97a9d415acf",
    (2, 0): "66770c1f2c3cd14f124ec86141f284ea26c78e90313389723c1f61969b240653",
    (2, 1): "ddf5979c9c83fdb0e66497aa35dd0331851d24362af08f62b8f7661cf19797d0",
    (2, 2): "66770c1f2c3cd14f124ec86141f284ea26c78e90313389723c1f61969b240653",
    (3, 0): "a555868896b333ad0386c6e5a743396176057ef09fbbdd95ddc6263a4c6c7351",
    (3, 1): "36ef267e53d788de71fc578e7b5ffd81574d800f84c98c9701cf1a95e2512c62",
    (3, 2): "74baabebbd10cdd3379cf897354989052dcbca0a24be04954f933e429c92b7d2",
    (3, 3): "a555868896b333ad0386c6e5a743396176057ef09fbbdd95ddc6263a4c6c7351",
    (4, 0): "367af9875af46b1d3fe5a447551edfd1b3b380cda7fc7f46de2db5e413993b6a",
    (4, 1): "1f9b0bf83e0e23671e0a4f5c9d43601983e4cf13a004bcd02d5a9f4acd374143",
    (4, 2): "eefd1743cc6ac4dfc853afb2eb85a3b48847582f7dc48b2997010a72eb9e1052",
    (4, 3): "cc21f4215574be6a3e69e01072b8e387b29685e4d6c8839b0b6923a9905ed888",
    (4, 4): "367af9875af46b1d3fe5a447551edfd1b3b380cda7fc7f46de2db5e413993b6a",
    (5, 0): "a342ed77f13d3de84014644fd1360ce09c5aa8e930821793a5ffd8681a3f035f",
    (5, 1): "ddf8935174727554390c3e83f98628fd3dd9127a0ab8d970725752a1d59ef6bd",
    (5, 2): "837fbd2d700bfc14afb70a251a4619e00e73bd0220e99b88c371440a326111c0",
    (5, 3): "a954f0ae51767c34400df1487f758b513d0b10c52964731c3051e69a766f6a8d",
    (5, 4): "ac53c058e9c0c39d880d77d9e469778d84fc0f8b3211a3c4ccf91a31c8b80843",
    (5, 5): "a342ed77f13d3de84014644fd1360ce09c5aa8e930821793a5ffd8681a3f035f",
    (6, 1): "ef3347ed620c2eff3801285b67e4b7633ce7564f14a473814101b57738a8b067",
    (6, 2): "11421cc99dd5e3ded1eeaaa553a34cd837b909ba076f733dddf7d3542662d445",
    (6, 3): "4b83f9b3a793cb5a43134e0e6966bbb7e01d3702fbe9fff766501c59dc097b06",
    (6, 4): "b3ef96ecb8315ff8703555f8f9c877b00536310aa2e6a9ae66228bc68b075bd2",
    (6, 5): "ef3347ed620c2eff3801285b67e4b7633ce7564f14a473814101b57738a8b067",
    (7, 2): "8a626fd6a401b936237c209b5798b038d3936005ad09997afefaeff8488ffdd0",
    (7, 3): "679ca3106cf983db22b49be8c84aae371241a946bc4e0901485006943d863f7d",
    (7, 4): "305c62529bb9535ba0c28c581cbeb3e6132a30b1020fa660aad5e0f3f77489b1",
    (7, 5): "8a626fd6a401b936237c209b5798b038d3936005ad09997afefaeff8488ffdd0",
    (8, 3): "f32814406ec65047aa99fbb3fc5af1a8a17d3c66c14330caf57cf972797d66f2",
    (8, 4): "d807c658633260d184042d52f19ac2862270d713cb345a6a05a5567dbc52bdfb",
    (8, 5): "f32814406ec65047aa99fbb3fc5af1a8a17d3c66c14330caf57cf972797d66f2",
    (9, 4): "1fbb612d2068b18bb9123fad331a1cd81bcd54766e67a6d7350aa3742611888f",
    (9, 5): "1fbb612d2068b18bb9123fad331a1cd81bcd54766e67a6d7350aa3742611888f",
    (10, 5): "d8e50a1b6648c4535c7d9339491c75b926c9ebf4683313a48215aa5610c609ed",
}


@pytest.mark.parametrize("n_elec", range(11))
def test_block_matrices_are_pinned(n_elec):
    """Every block matrix is bit for bit the recorded one: same entries,
    same summation order."""
    H = oracles.random_hamiltonian(np.random.default_rng(0), 5, 5)
    for (n, n_alpha), digest in BLOCK_DIGESTS.items():
        if n == n_elec:
            mat, _ = sector_matrix(H, n, n_alpha)
            assert hashlib.sha256(mat.tobytes()).hexdigest() == digest


def test_decay_half_filled_block_is_pinned():
    H = oracles.decay_hamiltonian(np.random.default_rng(0), 6)
    mat, _ = sector_matrix(H, 6, 3)
    assert hashlib.sha256(mat.tobytes()).hexdigest() == (
        "00d68a29df6680865d90ec819590814e0678bb687f071608595e145959e55b65")


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_string_table_equals_sector_loop_table(data):
    """The block table built from alpha and beta strings equals, entry for
    entry and in order, the one found by enumerating the sector and looping
    over (annihilated, created) spin-orbital pairs."""
    n_orb = data.draw(st.integers(2, 5))
    n_elec = data.draw(st.integers(0, 2 * n_orb))
    n_alpha = data.draw(st.integers(max(0, n_elec - n_orb), min(n_elec, n_orb)))
    want_basis, want = oracles.excitation_table(n_orb, n_elec, n_alpha)
    basis, got = _block_table(n_orb, n_elec, n_alpha)
    np.testing.assert_array_equal(basis, want_basis)
    for got_column, want_column in zip(got, want):
        np.testing.assert_array_equal(got_column, want_column)


@settings(max_examples=15, deadline=None)
@given(n_orb=st.integers(2, 4), seed=st.integers(0, 2 ** 32 - 1))
def test_folded_operator_matches_oracle(n_orb, seed):
    """The pair-folded matvec is the Fock-space oracle, restricted to the
    block, times a random vector, in every block."""
    rng = np.random.default_rng(seed)
    H = oracles.random_hamiltonian(rng, n_orb, n_orb)
    fock = oracles.fock_matrix(H)
    for n_elec in range(2 * n_orb + 1):
        for n_alpha in range(max(0, n_elec - n_orb), min(n_elec, n_orb) + 1):
            dets, matvec = _sector_operator(H, n_elec, n_alpha)
            v = rng.normal(size=len(dets))
            want = fock[np.ix_(dets, dets)] @ v
            np.testing.assert_allclose(matvec(v), want, rtol=0,
                                       atol=1e-12 * np.abs(want).max())


@settings(max_examples=20, deadline=None)
@given(data=st.data(), seed=st.integers(0, 2 ** 32 - 1))
def test_bliss_leaves_the_electron_sector_blocks_unchanged(data, seed):
    """A BLISS shift vanishes on the n_elec sector, so each of its blocks
    keeps its matrix."""
    n_orb = data.draw(st.integers(2, 4))
    n_elec = data.draw(st.integers(0, 2 * n_orb))
    rng = np.random.default_rng(seed)
    H = oracles.random_hamiltonian(rng, n_orb, n_elec)
    shifted = apply_bliss(H, oracles.random_bliss(rng, n_orb))
    for n_alpha in range(max(0, n_elec - n_orb), min(n_elec, n_orb) + 1):
        mat, _ = sector_matrix(H, n_elec, n_alpha)
        np.testing.assert_allclose(sector_matrix(shifted, n_elec, n_alpha)[0],
                                   mat, rtol=0, atol=1e-10 * np.abs(mat).max())


@pytest.mark.parametrize("n_orb, n_elec", [(2, 2), (3, 3), (4, 3)])
def test_excitation_table_matches_oracle(n_orb, n_elec):
    """Every spin-summed F^k_l element of each block of the sector, listed
    once, with the blocks' entry count equal to the pre-flight memory
    model's."""
    excitations = oracles.excitation_matrices(n_orb)
    bases, n_entries = [], 0
    for n_alpha in range(max(0, n_elec - n_orb), min(n_elec, n_orb) + 1):
        basis, (src, dst, pair, sign) = _block_table(n_orb, n_elec, n_alpha)
        for k in range(n_orb):
            for l in range(n_orb):
                got = np.zeros((len(basis), len(basis)))
                mine = pair == k * n_orb + l
                np.add.at(got, (dst[mine], src[mine]), sign[mine])
                want = excitations[k][l][np.ix_(basis, basis)]
                np.testing.assert_array_equal(got, want)
        bases.extend(basis.tolist())
        n_entries += len(src)
    assert tuple(sorted(bases)) == sector_determinants(2 * n_orb, n_elec)
    assert n_entries == sum(
        comb(n_orb, a) * comb(n_orb, n_elec - a)
        * (a * (n_orb - a + 1) + (n_elec - a) * (n_orb - n_elec + a + 1))
        for a in range(n_elec + 1))


def test_oversize_sector_refused_before_allocation(monkeypatch):
    """N=12 at half filling needs far more than the limit; nothing is
    built, and a full-Fock sweep refuses before its first sector."""
    big = MolecularHamiltonian(n_orb=12, e_const=0.0, h=np.zeros((12, 12)),
                               g=np.zeros((12,) * 4), n_elec=12)

    def no_sector(*args, **kwargs):
        raise AssertionError("a sector was computed")

    monkeypatch.setattr("blisslp.spectral.sector_matrix", no_sector)
    monkeypatch.setattr("blisslp.spectral.truncated_lanczos", no_sector)
    for sector in (None, 12, 11):
        with pytest.raises(ValueError, match="SPECTRAL_MEMORY_LIMIT_BYTES"):
            spectral_range(big, sector, method="lanczos")
    monkeypatch.undo()
    with pytest.raises(ValueError, match="12-electron sector of 24"):
        truncated_lanczos(big, 12)
    with pytest.raises(ValueError, match="SPECTRAL_MEMORY_LIMIT_BYTES"):
        apply_hamiltonian(big, CIVector({(1 << 12) - 1: 1.0}, 12, 24))


def test_memory_model_sizes_the_block():
    """Half-filled N=10 Lanczos and the largest N=8 exact block fit under
    the limit; the prediction counts the block, not the whole sector."""
    _check_memory(10, 10, 5, LanczosOptions().max_iters)
    _check_memory(8, 8, 4, exact=True)
    with pytest.raises(ValueError, match="SPECTRAL_MEMORY_LIMIT_BYTES"):
        _check_memory(8, 8, exact=True)


def test_memory_checked_once_per_allocating_path(monkeypatch):
    """An exact sweep checks each sector up front and once more for its
    plan, however many Hamiltonians it serves; a plan-fed block matrix is
    not checked again, and apply_hamiltonian checks each block it touches."""
    rng = np.random.default_rng(2500)
    hams = [oracles.random_hamiltonian(rng, 2, 2) for _ in range(3)]
    checked = []
    monkeypatch.setattr(spectral, "_check_memory",
                        lambda *args, **kwargs: checked.append(args[1]))
    spectral.spectral_ranges(hams)
    assert sorted(checked) == sorted(2 * list(range(5)))
    checked.clear()
    plan = spectral._block_plan(2, 2, 1)
    sector_matrix(hams[0], 2, 1, plan)
    assert checked == [2]
    checked.clear()
    apply_hamiltonian(hams[0], sector_civector(rng, 4, 2))
    assert checked == [2, 2, 2]


def test_dense_fallback_compares_the_block_dimension(monkeypatch):
    """At N=7, 7 electrons (block 1225) still run Lanczos, while 5 electrons
    (block 735 of a 2002-dimensional sector) are diagonalized densely."""
    H = oracles.random_hamiltonian(np.random.default_rng(2300), 7, 7)
    calls = []

    def recording(hamiltonian, n_elec, extreme="lowest", options=None):
        calls.append(n_elec)
        return LanczosResult(energy=0.0, iterations=1, converged=True,
                             subspace_dim=1)

    monkeypatch.setattr("blisslp.spectral.truncated_lanczos", recording)
    spectral_range(H, sector=7, method="lanczos")
    assert calls == [7, 7]
    spectral_range(H, sector=5, method="lanczos")
    assert calls == [7, 7]


def test_one_body_eigenbasis_preserves_spectrum():
    rng = np.random.default_rng(65)
    H = oracles.random_hamiltonian(rng, 2, 2)
    rotated = one_body_eigenbasis(H)
    np.testing.assert_allclose(rotated.h, np.diag(np.diag(rotated.h)),
                               atol=1e-10)
    assert np.all(np.diff(np.diag(rotated.h)) >= -1e-12)
    ev_a = np.linalg.eigvalsh(oracles.fock_matrix(H))
    ev_b = np.linalg.eigvalsh(oracles.fock_matrix(rotated))
    np.testing.assert_allclose(ev_a, ev_b, atol=1e-10)


def test_reference_determinant_examples():
    H = MolecularHamiltonian(n_orb=2, e_const=0.0, h=np.diag([-1.0, 5.0]),
                             g=np.zeros((2,) * 4), n_elec=2)
    assert reference_determinant(H, 2, "lowest").occupancy == 0b0011
    assert reference_determinant(H, 2, "highest").occupancy == 0b1100
    flat = MolecularHamiltonian(n_orb=2, e_const=0.0, h=0.7 * np.eye(2),
                                g=np.zeros((2,) * 4), n_elec=2)
    assert reference_determinant(flat, 2, "lowest").occupancy == 0b0011
    assert reference_determinant(H, 3, "lowest").occupancy == 0b0111
    with pytest.raises(ValueError, match="extreme"):
        reference_determinant(H, 2, "middle")
    with pytest.raises(ValueError):
        reference_determinant(H, 5)


def test_lanczos_options_validation():
    with pytest.raises(ValueError):
        LanczosOptions(max_iters=0)
    for tol in (0.0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="residual_tol must be positive"):
            LanczosOptions(residual_tol=tol)


def test_lanczos_exact_on_two_dim_sector():
    rng = np.random.default_rng(66)
    H = oracles.random_hamiltonian(rng, 1, 1)
    values = np.linalg.eigvalsh(sector_matrix(H, 1)[0])
    low = truncated_lanczos(H, 1, "lowest")
    high = truncated_lanczos(H, 1, "highest")
    assert low.converged and high.converged
    assert low.energy == pytest.approx(values[0], abs=1e-9)
    assert high.energy == pytest.approx(values[-1], abs=1e-9)


def test_lanczos_converges_immediately_on_eigenvector():
    """Number-diagonal H makes the start determinant an eigenvector."""
    d = np.array([[0.4, 0.1], [0.1, -0.3]])
    g = np.zeros((2,) * 4)
    for i in range(2):
        for k in range(2):
            g[i, i, k, k] = d[i, k]
    H = MolecularHamiltonian(n_orb=2, e_const=0.0, h=np.diag([1.0, 2.0]),
                             g=g, n_elec=2)
    result = truncated_lanczos(H, 2, "lowest")
    assert result.converged
    assert result.iterations == 1
    assert result.subspace_dim == 1


@pytest.mark.parametrize("seed", range(4))
def test_lanczos_variational_and_accurate(seed):
    rng = np.random.default_rng(1900 + seed)
    H = oracles.random_hamiltonian(rng, 3, 3)
    values = np.linalg.eigvalsh(sector_matrix(H, 3)[0])
    spread = values[-1] - values[0]
    low = truncated_lanczos(H, 3, "lowest")
    high = truncated_lanczos(H, 3, "highest")
    assert low.energy >= values[0] - 1e-12
    assert high.energy <= values[-1] + 1e-12
    assert abs(low.energy - values[0]) < 1e-8 * spread
    assert abs(high.energy - values[-1]) < 1e-8 * spread


@pytest.mark.parametrize("seed, extreme", [
    (seed, extreme) for seed in range(4) for extreme in ("highest", "lowest")])
def test_truncated_lanczos_pinned(seed, extreme):
    """On random_hamiltonian(default_rng(seed), 4, 4) both extremes converge
    in fewer iterations than the 36 levels of the sector's M_S = 0 block,
    which holds every level of the sector."""
    H = oracles.random_hamiltonian(np.random.default_rng(seed), 4, 4)
    values = np.linalg.eigvalsh(sector_matrix(H, 4)[0])
    result = truncated_lanczos(H, 4, extreme)
    assert result.converged
    assert result.iterations < 36
    want = values[0] if extreme == "lowest" else values[-1]
    assert result.energy == pytest.approx(want, abs=1e-9)


@settings(max_examples=20, deadline=None)
@given(n_orb=st.integers(2, 3), seed=st.integers(0, 2 ** 32 - 1))
@example(n_orb=2, seed=32)  # the highest 2-electron level is a triplet
def test_lanczos_converges_to_exact_extremes(n_orb, seed):
    """Every sector of dimension >= 2 gives converged extremes equal to the
    exact ones, whatever the total spin of the extreme level."""
    H = oracles.random_hamiltonian(np.random.default_rng(seed), n_orb, n_orb)
    for n_elec in range(1, 2 * n_orb):
        values = np.linalg.eigvalsh(sector_matrix(H, n_elec)[0])
        low = truncated_lanczos(H, n_elec, "lowest")
        high = truncated_lanczos(H, n_elec, "highest")
        assert low.converged and high.converged
        assert low.energy == pytest.approx(values[0], abs=1e-8)
        assert high.energy == pytest.approx(values[-1], abs=1e-8)


def test_block_lanczos_matches_block_eigvalsh():
    """Lanczos runs in the ceil(n/2) spin-0 block; its extremes are that
    block's, in every sector of N=4."""
    H = oracles.random_hamiltonian(np.random.default_rng(2400), 4, 4)
    for n_elec in range(9):
        mat, dets = sector_matrix(H, n_elec, (n_elec + 1) // 2)
        values = np.linalg.eigvalsh(mat)
        for extreme, want in (("lowest", values[0]), ("highest", values[-1])):
            result = truncated_lanczos(H, n_elec, extreme)
            assert result.converged
            assert result.subspace_dim <= len(dets)
            assert result.energy == pytest.approx(want, abs=1e-9)


def test_lanczos_iteration_cap_flags_unconverged():
    rng = np.random.default_rng(67)
    H = oracles.random_hamiltonian(rng, 3, 3)
    result = truncated_lanczos(H, 3, "lowest",
                               LanczosOptions(max_iters=2, residual_tol=1e-12))
    assert not result.converged
    assert result.iterations == 2
    exact_min = np.linalg.eigvalsh(sector_matrix(H, 3)[0])[0]
    assert result.energy >= exact_min - 1e-12


def test_spectral_range_constant_hamiltonian():
    H = MolecularHamiltonian(n_orb=2, e_const=3.0, h=np.zeros((2, 2)),
                             g=np.zeros((2,) * 4), n_elec=2)
    result = spectral_range(H)
    assert result.delta == pytest.approx(0.0, abs=1e-12)
    assert len(result.sector_extremes) == 5


def test_spectral_range_full_vs_sector():
    rng = np.random.default_rng(68)
    H = oracles.random_hamiltonian(rng, 2, 2)
    full = spectral_range(H)
    ens = spectral_range(H, sector=2)
    assert len(ens.sector_extremes) == 1
    assert full.delta >= ens.delta - 1e-12
    evals = np.linalg.eigvalsh(oracles.fock_matrix(H))
    assert full.e_min == pytest.approx(evals[0], abs=1e-10)
    assert full.e_max == pytest.approx(evals[-1], abs=1e-10)


@pytest.mark.parametrize("n_orb", [2, 3, 4])
def test_exact_extremes_from_one_spin_block(n_orb):
    """The exact engine diagonalizes one spin block per sector; its extremes
    are those of the whole sector, before and after a BLISS shift."""
    rng = np.random.default_rng(2000 + n_orb)
    H = oracles.random_hamiltonian(rng, n_orb, n_orb)
    for ham in (H, apply_bliss(H, oracles.random_bliss(rng, n_orb))):
        fock = oracles.fock_matrix(ham)
        for n_elec, low, high in spectral_range(ham).sector_extremes:
            want = oracles.sector_eigenvalues(fock, 2 * n_orb, n_elec)
            assert low == pytest.approx(want[0], abs=1e-9)
            assert high == pytest.approx(want[-1], abs=1e-9)


def test_spectral_range_method_validation():
    rng = np.random.default_rng(69)
    H = oracles.random_hamiltonian(rng, 2, 2)
    with pytest.raises(ValueError, match="method"):
        spectral_range(H, method="dense")
    big = MolecularHamiltonian(n_orb=9, e_const=0.0, h=np.zeros((9, 9)),
                               g=np.zeros((9,) * 4), n_elec=9)
    with pytest.raises(ValueError, match="capped at 16 spin-orbitals"):
        spectral_range(big, method="exact")


def test_exact_range_at_sixteen_spin_orbitals():
    """N=8 is inside the exact cap; a small sector of it runs in a moment."""
    H = oracles.random_hamiltonian(np.random.default_rng(2200), 8, 2)
    values = np.linalg.eigvalsh(sector_matrix(H, 2)[0])
    result = spectral_range(H, sector=2, method="exact")
    assert result.converged
    assert result.e_min == pytest.approx(values[0], abs=1e-10)
    assert result.e_max == pytest.approx(values[-1], abs=1e-10)


def test_lanczos_range_never_exceeds_exact():
    rng = np.random.default_rng(70)
    H = oracles.random_hamiltonian(rng, 3, 3)
    values = np.linalg.eigvalsh(sector_matrix(H, 3)[0])
    low = truncated_lanczos(H, 3, "lowest")
    high = truncated_lanczos(H, 3, "highest")
    assert high.energy - low.energy <= values[-1] - values[0] + 1e-12


@pytest.mark.parametrize("de, de_shifted, de_ens, want", [
    (4.0, 2.0, 2.0, 0.0),
    (4.0, 4.0, 2.0, 1.0),
    (4.0, 3.0, 2.0, 0.5),
])
def test_deviation_metric_values(de, de_shifted, de_ens, want):
    assert deviation_metric(de, de_shifted, de_ens) == pytest.approx(want)


def test_deviation_metric_undefined():
    assert deviation_metric(2.0, 1.5, 2.0) is None
    assert deviation_metric(1.0, 1.0, 3.0) is None


def test_spectral_report_without_shift():
    rng = np.random.default_rng(71)
    H = oracles.random_hamiltonian(rng, 2, 2)
    report = build_spectral_report(H)
    assert report.delta_e_shifted is None
    assert report.deviation is None
    assert report.method == "exact"
    assert report.converged
    assert report.delta_e >= report.delta_e_ens - 1e-12


def test_spectral_report_with_shift_and_sector_invariance():
    rng = np.random.default_rng(72)
    H = oracles.random_hamiltonian(rng, 2, 2)
    shifted = apply_bliss(H, oracles.random_bliss(rng, 2))
    report = build_spectral_report(H, shifted)
    assert report.delta_e_shifted is not None
    want = deviation_metric(report.delta_e, report.delta_e_shifted,
                            report.delta_e_ens)
    assert report.deviation == pytest.approx(want)
    ens_h = spectral_range(H, sector=2)
    ens_s = spectral_range(shifted, sector=2)
    assert ens_h.e_min == pytest.approx(ens_s.e_min, abs=1e-9)
    assert ens_h.e_max == pytest.approx(ens_s.e_max, abs=1e-9)
