"""Hydrogen chain and ring Hamiltonians from STO-3G restricted Hartree-Fock.

Every integral over s-type Gaussians has a closed form (Szabo & Ostlund,
*Modern Quantum Chemistry*, App. A and B): overlap, kinetic energy, nuclear
attraction and electron repulsion, the last two through the Boys function
F0(t) = sqrt(pi/t) erf(sqrt(t)) / 2.  The closed-shell SCF uses symmetric
orthogonalization and DIIS, and the result is returned in the molecular-
orbital basis with the package's Hamiltonian convention, ready to be written
as an FCIDUMP.  Nothing is downloaded.

Run ``python3 bench/hchain.py`` to check H2 at R = 1.4 bohr against the
textbook STO-3G value E_HF = -1.117 Eh.
"""

from __future__ import annotations

import itertools

import numpy as np
from scipy.special import erf

# STO-3G contraction for hydrogen (zeta = 1.24).
STO3G_EXPONENTS = np.array([3.42525091, 0.62391373, 0.16885540])
STO3G_COEFFICIENTS = np.array([0.15432897, 0.53532814, 0.44463454])
# Normalized primitive weights d_p (2 a_p / pi)^(3/4).
_PRIMITIVE_WEIGHTS = STO3G_COEFFICIENTS * (2.0 * STO3G_EXPONENTS / np.pi) ** 0.75

# Bond length of the unjittered geometries, in bohr.
BOND_BOHR = 1.8


def boys0(t: np.ndarray) -> np.ndarray:
    """F0(t), with its Taylor series near t = 0 where erf loses digits."""
    t = np.asarray(t, dtype=float)
    out = 1.0 - t / 3.0 + t * t / 10.0
    big = t > 1e-6
    root = np.sqrt(t[big])
    out[big] = 0.5 * np.sqrt(np.pi) * erf(root) / root
    return out


def _pairs(coords: np.ndarray):
    """Per primitive pair (p, q): exponent sum, product centre and the
    prefactor c_p c_q exp(-a b / (a + b) |A - B|^2), over all atom pairs."""
    r2 = ((coords[:, None, :] - coords[None, :, :]) ** 2).sum(-1)
    for p, q in itertools.product(range(3), repeat=2):
        a, b = STO3G_EXPONENTS[p], STO3G_EXPONENTS[q]
        zeta = a + b
        pref = (_PRIMITIVE_WEIGHTS[p] * _PRIMITIVE_WEIGHTS[q]
                * np.exp(-a * b / zeta * r2))
        centre = (a * coords[:, None, :] + b * coords[None, :, :]) / zeta
        yield zeta, a * b / zeta, r2, pref, centre


def ao_integrals(coords: np.ndarray):
    """Overlap, core Hamiltonian and (mu nu|lam sig) over one s function
    per hydrogen at ``coords`` (bohr)."""
    n = len(coords)
    coords = coords - coords.mean(axis=0)
    s = np.zeros((n, n))
    t = np.zeros((n, n))
    v = np.zeros((n, n))
    pairs = list(_pairs(coords))
    for zeta, red, r2, pref, centre in pairs:
        overlap = pref * (np.pi / zeta) ** 1.5
        s += overlap
        t += overlap * red * (3.0 - 2.0 * red * r2)
        for nucleus in coords:
            dist2 = ((centre - nucleus) ** 2).sum(-1)
            v -= 2.0 * np.pi / zeta * pref * boys0(zeta * dist2)
    # Electron repulsion over the canonical pairs mu <= nu only; the other
    # index orders follow from the 8-fold permutational symmetry.
    upper = np.triu_indices(n)
    n_pair = upper[0].size
    flat = [(zeta, pref[upper], centre[upper], (centre[upper] ** 2).sum(-1))
            for zeta, _, _, pref, centre in pairs]
    packed = np.zeros((n_pair, n_pair))
    for zeta, pref, centre, norm2 in flat:
        for eta, pref2, centre2, norm2_2 in flat:
            dist2 = np.maximum(
                norm2[:, None] + norm2_2[None, :] - 2.0 * centre @ centre2.T,
                0.0)
            rho = zeta * eta / (zeta + eta)
            packed += (2.0 * np.pi ** 2.5 / (zeta * eta * np.sqrt(zeta + eta))
                       * np.outer(pref, pref2) * boys0(rho * dist2))
    packed = 0.5 * (packed + packed.T)
    pair_index = np.zeros((n, n), dtype=int)
    pair_index[upper] = pair_index[upper[1], upper[0]] = np.arange(n_pair)
    eri = packed[np.ix_(pair_index.reshape(-1), pair_index.reshape(-1))]
    return s, t + v, eri.reshape(n, n, n, n)


def nuclear_repulsion(coords: np.ndarray) -> float:
    dist = np.sqrt(((coords[:, None, :] - coords[None, :, :]) ** 2).sum(-1))
    upper = np.triu_indices(len(coords), 1)
    return float((1.0 / dist[upper]).sum())


def rhf(s: np.ndarray, hcore: np.ndarray, eri: np.ndarray, n_occ: int,
        tol: float = 1e-10, max_iters: int = 200):
    """Closed-shell SCF; returns (electronic energy, MO coefficients).

    Raises:
        RuntimeError: if the density does not converge in ``max_iters``.
    """
    n = len(s)
    coulomb = eri.reshape(n * n, n * n)
    exchange = eri.transpose(0, 2, 1, 3).reshape(n * n, n * n)
    vals, vecs = np.linalg.eigh(s)
    x = vecs @ np.diag(vals ** -0.5) @ vecs.T
    fock = hcore
    focks: list[np.ndarray] = []
    errors: list[np.ndarray] = []
    density = np.zeros_like(s)
    for _ in range(max_iters):
        _, c_ortho = np.linalg.eigh(x.T @ fock @ x)
        coeffs = x @ c_ortho
        occ = coeffs[:, :n_occ]
        new_density = 2.0 * occ @ occ.T
        flat_density = new_density.reshape(-1)
        fock = hcore + (coulomb @ flat_density
                        - 0.5 * exchange @ flat_density).reshape(n, n)
        change = float(np.abs(new_density - density).max())
        density = new_density
        if change < tol:
            energy = 0.5 * float((density * (hcore + fock)).sum())
            return energy, coeffs
        focks.append(fock)
        errors.append(x.T @ (fock @ density @ s - s @ density @ fock) @ x)
        focks, errors = focks[-8:], errors[-8:]
        if len(focks) > 1:
            k = len(focks)
            b = -np.ones((k + 1, k + 1))
            b[k, k] = 0.0
            b[:k, :k] = [[float((ei * ej).sum()) for ej in errors]
                         for ei in errors]
            rhs = np.zeros(k + 1)
            rhs[k] = -1.0
            weights = np.linalg.lstsq(b, rhs, rcond=None)[0][:k]
            fock = sum(w * f for w, f in zip(weights, focks))
    raise RuntimeError(f"RHF did not converge in {max_iters} iterations")


def geometry(n_atoms: int, shape: str, rng: np.random.Generator,
             jitter: float = 0.05) -> np.ndarray:
    """A chain along x or a planar ring, bond ``BOND_BOHR``, with every
    coordinate moved by up to ``jitter`` bohr."""
    if shape == "chain":
        coords = np.zeros((n_atoms, 3))
        coords[:, 0] = BOND_BOHR * np.arange(n_atoms)
    elif shape == "ring":
        radius = BOND_BOHR / (2.0 * np.sin(np.pi / n_atoms))
        angle = 2.0 * np.pi * np.arange(n_atoms) / n_atoms
        coords = np.stack([radius * np.cos(angle), radius * np.sin(angle),
                           np.zeros(n_atoms)], axis=1)
    else:
        raise ValueError(f"unknown shape {shape!r}; expected chain or ring")
    return coords + rng.uniform(-jitter, jitter, size=coords.shape)


def hydrogen_hamiltonian(coords: np.ndarray):
    """The MO-basis :class:`blisslp.MolecularHamiltonian` of closed-shell
    H_n at ``coords`` and its RHF total energy."""
    from blisslp import MolecularHamiltonian, symmetrize_two_body

    n = len(coords)
    if n % 2:
        raise ValueError("closed-shell RHF needs an even number of atoms")
    s, hcore, eri = ao_integrals(coords)
    e_nuc = nuclear_repulsion(coords)
    energy, c = rhf(s, hcore, eri, n // 2)
    t_mo = c.T @ hcore @ c
    eri_mo = symmetrize_two_body(
        np.einsum("pi,qj,rk,sl,pqrs->ijkl", c, c, c, c, eri, optimize=True))
    h = t_mo - 0.5 * np.einsum("ikkj->ij", eri_mo)
    hamiltonian = MolecularHamiltonian(
        n_orb=n, e_const=e_nuc, h=0.5 * (h + h.T), g=eri_mo / 2.0, n_elec=n)
    return hamiltonian, energy + e_nuc


def h2_self_test() -> float:
    """RHF total energy of H2 at R = 1.4 bohr; raises if it is not the
    textbook -1.117 Eh."""
    coords = np.array([[0.0, 0.0, 0.0], [1.4, 0.0, 0.0]])
    s, hcore, eri = ao_integrals(coords)
    energy = rhf(s, hcore, eri, 1)[0] + nuclear_repulsion(coords)
    if abs(energy - (-1.117)) > 1e-3:
        raise RuntimeError(f"H2 STO-3G RHF energy {energy:.6f} Eh, "
                           "expected -1.117 Eh")
    return energy


if __name__ == "__main__":
    print(f"H2 R=1.4 bohr STO-3G RHF: {h2_self_test():.6f} Eh (textbook -1.117)")
