"""Independent brute-force oracles used by the test suite.

Everything here is built from first principles on explicit Fock-space
matrices (occupancy bitmasks, ladder-operator matrices, dense Pauli-basis
transforms) so that package results can be checked against slow but
obviously-correct references.  No numerical routine from the package is
reused beyond the plain dataclass containers.
"""

from __future__ import annotations

import numpy as np

from blisslp import BlissParams, MolecularHamiltonian

PAULI = np.array([
    [[1, 0], [0, 1]],
    [[0, 1], [1, 0]],
    [[0, -1j], [1j, 0]],
    [[1, 0], [0, -1]],
], dtype=complex)


def annihilation_matrices(n_spin_orb: int) -> list[np.ndarray]:
    """Ladder operators on the 2^n Fock space, bit s = spin-orbital 2p+spin,
    sign = parity of occupied bits below s."""
    dim = 1 << n_spin_orb
    mats = []
    for s in range(n_spin_orb):
        a = np.zeros((dim, dim))
        for b in range(dim):
            if (b >> s) & 1:
                sign = -1.0 if (b & ((1 << s) - 1)).bit_count() & 1 else 1.0
                a[b & ~(1 << s), b] = sign
        mats.append(a)
    return mats


def excitation_matrices(n_orb: int) -> list[list[np.ndarray]]:
    """Spin-summed F^i_j = sum_s a+_{i s} a_{j s} as dense matrices."""
    ams = annihilation_matrices(2 * n_orb)
    return [[sum(ams[2 * i + s].T @ ams[2 * j + s] for s in (0, 1))
             for j in range(n_orb)] for i in range(n_orb)]


def fock_matrix(hamiltonian: MolecularHamiltonian) -> np.ndarray:
    """Dense e + sum h F + sum g F F over the whole Fock space."""
    n = hamiltonian.n_orb
    f = excitation_matrices(n)
    dim = 1 << (2 * n)
    out = hamiltonian.e_const * np.eye(dim)
    for i in range(n):
        for j in range(n):
            out += hamiltonian.h[i, j] * f[i][j]
            inner = sum(hamiltonian.g[i, j, k, l] * f[k][l]
                        for k in range(n) for l in range(n))
            out += f[i][j] @ inner
    return out


def number_matrix(n_spin_orb: int) -> np.ndarray:
    ams = annihilation_matrices(n_spin_orb)
    return sum(a.T @ a for a in ams)


def bliss_matrix(params: BlissParams, n_elec: int) -> np.ndarray:
    """K = mu1 (N - Ne) + mu2 (N^2 - Ne^2) + sum xi F (N - Ne) as a dense
    Fock-space matrix."""
    n = params.n_orb
    f = excitation_matrices(n)
    dim = 1 << (2 * n)
    num = number_matrix(2 * n)
    shifted = num - n_elec * np.eye(dim)
    xi_op = sum(params.xi[i, j] * f[i][j] for i in range(n) for j in range(n))
    return (params.mu1 * shifted
            + params.mu2 * (num @ num - n_elec ** 2 * np.eye(dim))
            + xi_op @ shifted)


def sector_indices(n_spin_orb: int, n_elec: int) -> list[int]:
    return [b for b in range(1 << n_spin_orb) if b.bit_count() == n_elec]


def sector_eigenvalues(matrix: np.ndarray, n_spin_orb: int,
                       n_elec: int) -> np.ndarray:
    idx = sector_indices(n_spin_orb, n_elec)
    return np.linalg.eigvalsh(matrix[np.ix_(idx, idx)])


def excitation_table(n_orb: int, n_elec: int, n_alpha: int):
    """The sorted bitmasks of the sector's n_alpha spin-0 block and its
    (src, dst, pair, sign) entries of <dst|F^k_l|src>, pair = k*n_orb + l,
    found one (annihilated, created) spin-orbital pair at a time over the
    enumerated sector: ordered by annihilated, then created spin-orbital,
    then src."""
    n_so = 2 * n_orb
    basis = np.array(sector_indices(n_so, n_elec), dtype=np.int64)
    bits = (basis[:, None] >> np.arange(n_so)) & 1
    keep = bits[:, ::2].sum(axis=1) == n_alpha
    basis, bits = basis[keep], bits[keep]
    below = np.cumsum(bits, axis=1) - bits  # occupied bits below each one
    parts = []
    for ann in range(n_so):  # a_ann, then a+_cre of the same spin
        occupied = np.flatnonzero(bits[:, ann])
        for cre in range(ann % 2, n_so, 2):
            src = occupied[bits[occupied, cre] == 0] if cre != ann else occupied
            parity = below[src, ann] + below[src, cre] - (ann < cre)
            dst = np.searchsorted(basis, (basis[src] ^ (1 << ann)) | (1 << cre))
            pair = np.full(len(src), cre // 2 * n_orb + ann // 2)
            parts.append((src, dst, pair, 1.0 - 2.0 * (parity & 1)))
    return basis, tuple(np.concatenate(col) for col in zip(*parts))


def pauli_coefficients(mat: np.ndarray, n_qubits: int) -> np.ndarray:
    """Coefficients c_P = tr(P M) / 2^n over all Pauli products, flattened
    with qubit s as base-4 digit s (identity product at flat index 0)."""
    tensor = mat.astype(complex).reshape([2] * (2 * n_qubits))
    # pm[p, y*2 + x] = PAULI[p, x, y] so pm @ vec contracts tr(sigma_p M)
    # over one qubit's (row, column) axis pair.
    pm = PAULI.transpose(0, 2, 1).reshape(4, 4)
    for s in range(n_qubits):
        # Layout entering step s: (y_{m}..y_0, x_{m}..x_0, done Pauli axes)
        # with m = n-1-s; consume the leading row axis and its column axis.
        t = np.moveaxis(tensor, [0, n_qubits - s], [0, 1])
        rest = t.shape[2:]
        t = pm @ t.reshape(4, -1)
        tensor = np.moveaxis(t.reshape((4,) + rest), 0, -1)
    coeffs = tensor.reshape(-1) / (1 << n_qubits)
    assert np.abs(coeffs.imag).max() < 1e-10
    return coeffs.real


def jw_pauli_one_norm(hamiltonian: MolecularHamiltonian) -> float:
    """Sum of |coefficient| over all non-identity Pauli products of the
    Fock-space matrix, via a dense Pauli-basis transform."""
    coeffs = pauli_coefficients(fock_matrix(hamiltonian),
                                hamiltonian.n_spin_orb)
    return float(np.abs(coeffs).sum()) - abs(float(coeffs[0]))


def symmetrize8(g: np.ndarray) -> np.ndarray:
    perms = [(0, 1, 2, 3), (1, 0, 2, 3), (0, 1, 3, 2), (1, 0, 3, 2),
             (2, 3, 0, 1), (3, 2, 0, 1), (2, 3, 1, 0), (3, 2, 1, 0)]
    return sum(np.transpose(g, p) for p in perms) / 8.0


def random_hamiltonian(rng: np.random.Generator, n_orb: int, n_elec: int,
                       scale: float = 1.0) -> MolecularHamiltonian:
    h = rng.normal(size=(n_orb, n_orb), scale=scale)
    g = symmetrize8(rng.normal(size=(n_orb,) * 4, scale=scale))
    return MolecularHamiltonian(
        n_orb=n_orb, e_const=float(rng.normal(scale=scale)),
        h=0.5 * (h + h.T), g=g, n_elec=n_elec)


def random_bliss(rng: np.random.Generator, n_orb: int,
                 scale: float = 1.0) -> BlissParams:
    xi = rng.normal(size=(n_orb, n_orb), scale=scale)
    return BlissParams(float(rng.normal(scale=scale)),
                       float(rng.normal(scale=scale)), 0.5 * (xi + xi.T))


def decay_hamiltonian(rng: np.random.Generator, n_orb: int,
                      alpha: float = 1.0,
                      beta: float = 0.5) -> MolecularHamiltonian:
    """Synthetic Hamiltonian whose tensor magnitudes decay with index
    distance, with a dominant Coulomb-like diagonal block."""
    idx = np.arange(n_orb)
    h = np.diag(np.linspace(-1.0, 1.0, n_orb) + 0.1 * rng.normal(size=n_orb))
    off = 0.3 * rng.normal(size=(n_orb, n_orb)) * np.exp(
        -alpha * np.abs(idx[:, None] - idx[None, :]))
    off[idx, idx] = 0.0
    h = h + 0.5 * (off + off.T)

    d_ij = np.abs(idx[:, None, None, None] - idx[None, :, None, None])
    d_kl = np.abs(idx[None, None, :, None] - idx[None, None, None, :])
    c_ij = 0.5 * (idx[:, None, None, None] + idx[None, :, None, None])
    c_kl = 0.5 * (idx[None, None, :, None] + idx[None, None, None, :])
    envelope = np.exp(-alpha * d_ij - alpha * d_kl - beta * np.abs(c_ij - c_kl))
    g = symmetrize8(0.25 * rng.normal(size=(n_orb,) * 4) * envelope)
    coulomb = 0.5 / (1.0 + np.abs(idx[:, None] - idx[None, :]))
    for i in range(n_orb):
        for k in range(n_orb):
            g[i, i, k, k] += coulomb[i, k]
    return MolecularHamiltonian(
        n_orb=n_orb, e_const=float(rng.normal(scale=0.1)),
        h=0.5 * (h + h.T), g=symmetrize8(g), n_elec=n_orb)


def weighted_median(values: np.ndarray, weights: np.ndarray) -> float:
    """Any minimizer of sum_i w_i |x - v_i|: smallest v with cumulative
    weight >= half the total."""
    order = np.argsort(values)
    cum = np.cumsum(weights[order])
    return float(values[order][np.searchsorted(cum, 0.5 * cum[-1])])


def l1_objective(rows, b, weights, x) -> float:
    total = 0.0
    for row, b_i, w_i in zip(rows, b, weights):
        total += w_i * abs(sum(c * x[v] for v, c in row) - b_i)
    return total


def coordinate_descent_polish(rows, b, weights, x0, sweeps: int = 60) -> np.ndarray:
    """Exact 1-D weighted-median minimization per coordinate, swept until
    stationary; a local polish oracle for LP solutions."""
    x = np.array(x0, dtype=float)
    n = x.size
    for _ in range(sweeps):
        moved = False
        for var in range(n):
            vals, wts = [], []
            for row, b_i, w_i in zip(rows, b, weights):
                coeff = dict(row).get(var, 0.0)
                if coeff == 0.0:
                    continue
                rest = sum(c * x[v] for v, c in row if v != var)
                vals.append((b_i - rest) / coeff)
                wts.append(w_i * abs(coeff))
            if not vals:
                continue
            best = weighted_median(np.array(vals), np.array(wts))
            if best != x[var]:
                before = l1_objective(rows, b, weights, x)
                old = x[var]
                x[var] = best
                if l1_objective(rows, b, weights, x) < before - 1e-15:
                    moved = True
                else:
                    x[var] = old
        if not moved:
            break
    return x
