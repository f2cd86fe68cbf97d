"""Second-quantized electronic Hamiltonian tensors and number-symmetry shifts.

The operator represented by :class:`MolecularHamiltonian` is

    H = e_const + sum_ij h[i, j] F_ij + sum_ijkl g[i, j, k, l] F_ij F_kl,

where F_ij = sum_sigma a+_{i,sigma} a_{j,sigma} is the spin-summed excitation
operator over spatial orbitals.  All tensors are real; ``g`` carries the full
8-fold permutational symmetry g_ijkl = g_jikl = g_ijlk = g_klij.

A :class:`BlissParams` pair (mu1, xi) encodes the shift operator

    K = mu1 (N - n_elec) + sum_ij xi[i, j] F_ij (N - n_elec),

with N the total number operator.  K annihilates every n_elec-electron state,
so H and H - K have identical spectra on that sector.  :func:`apply_bliss`
returns H - K folded back into (e_const, h, g) form.

The paper's quadratic term mu2 (N^2 - n_elec^2) = sum_i mu2 F_ii (N - n_elec)
+ mu2 n_elec (N - n_elec) is no parameter of its own: (mu1, mu2, xi) and
(mu1 + mu2 n_elec, xi + mu2 I) are one operator.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass

import numpy as np

__all__ = [
    "MolecularHamiltonian",
    "BlissParams",
    "apply_bliss",
    "symmetrize_two_body",
    "two_body_symmetry_deviation",
]

# Relative tolerance for the permutational-symmetry checks run at construction.
SYMMETRY_RTOL = 1e-12

# Generators of the 8-fold permutation group on (i, j, k, l).
_TWO_BODY_PERMS = ((1, 0, 2, 3), (0, 1, 3, 2), (2, 3, 0, 1))


def _readonly(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


def _check_finite(e_const: float, h: np.ndarray, g: np.ndarray) -> None:
    for name, value in (("e_const", e_const), ("h", h), ("g", g)):
        if not np.isfinite(value).all():
            raise ValueError(f"{name} has a non-finite value")


def two_body_symmetry_deviation(g: np.ndarray) -> float:
    """Largest absolute deviation of ``g`` from 8-fold permutational symmetry."""
    return max(float(np.abs(g - g.transpose(p)).max()) for p in _TWO_BODY_PERMS)


def symmetrize_two_body(g: np.ndarray) -> np.ndarray:
    """Average ``g`` over the 8 permutations that a real two-body tensor obeys."""
    acc = g.copy()
    for perm in ((1, 0, 2, 3), (1, 0, 3, 2), (0, 1, 3, 2),
                 (2, 3, 0, 1), (3, 2, 0, 1), (2, 3, 1, 0), (3, 2, 1, 0)):
        acc = acc + g.transpose(perm)
    return acc / 8.0


@dataclass(frozen=True)
class MolecularHamiltonian:
    """Integral container for a spin-free electronic Hamiltonian.

    Attributes:
        n_orb: number of spatial orbitals N.
        e_const: scalar part (nuclear repulsion plus accumulated shifts).
        h: (N, N) symmetric one-electron tensor.
        g: (N, N, N, N) two-electron tensor with 8-fold symmetry, normalized
            so that g_ijkl = (ij|kl) / 2 in chemist notation.
        n_elec: electron count of the sector of interest.
        ms2: twice the spin projection, bookkeeping only.
        orbsym: optional orbital symmetry labels carried through file I/O.
        isym: optional state symmetry label carried through file I/O.
    """

    n_orb: int
    e_const: float
    h: np.ndarray
    g: np.ndarray
    n_elec: int
    ms2: int = 0
    orbsym: tuple[int, ...] | None = None
    isym: int | None = None

    def __post_init__(self) -> None:
        n = self.n_orb
        if n < 1:
            raise ValueError(f"n_orb must be positive, got {n}")
        h = np.array(self.h, dtype=float)
        g = np.array(self.g, dtype=float)
        if h.shape != (n, n):
            raise ValueError(f"h must have shape {(n, n)}, got {h.shape}")
        if g.shape != (n, n, n, n):
            raise ValueError(f"g must have shape {(n,) * 4}, got {g.shape}")
        _check_finite(self.e_const, h, g)
        tol = SYMMETRY_RTOL * max(1.0, float(np.abs(h).max(initial=0.0)))
        if float(np.abs(h - h.T).max()) > tol:
            raise ValueError("one-electron tensor is not symmetric")
        tol = SYMMETRY_RTOL * max(1.0, float(np.abs(g).max(initial=0.0)))
        if two_body_symmetry_deviation(g) > tol:
            raise ValueError("two-electron tensor violates 8-fold symmetry")
        _check_n_elec(n, self.n_elec)
        object.__setattr__(self, "e_const", float(self.e_const))
        object.__setattr__(self, "h", _readonly(h))
        object.__setattr__(self, "g", _readonly(g))
        if self.orbsym is not None:
            object.__setattr__(self, "orbsym", tuple(int(s) for s in self.orbsym))

    @property
    def n_spin_orb(self) -> int:
        return 2 * self.n_orb

    def with_n_elec(self, n_elec: int) -> "MolecularHamiltonian":
        """Copy of this Hamiltonian targeting a different electron sector;
        it shares the read-only tensors, and only ``n_elec`` is checked."""
        _check_n_elec(self.n_orb, n_elec)
        return _derive(self, n_elec=n_elec)


def _check_n_elec(n_orb: int, n_elec: int) -> None:
    if not 0 <= n_elec <= 2 * n_orb:
        raise ValueError(f"n_elec must lie in [0, {2 * n_orb}], got {n_elec}")


def _derive(hamiltonian: MolecularHamiltonian,
            **fields) -> MolecularHamiltonian:
    """``hamiltonian`` with ``fields`` replaced, its other (read-only)
    arrays shared.  ``__post_init__`` does not run, so there are no N^4
    copies or transposes: the caller vouches for the new fields, and new
    arrays are made read-only here."""
    derived = copy.copy(hamiltonian)
    for name, value in fields.items():
        if isinstance(value, np.ndarray):
            value = _readonly(value)
        object.__setattr__(derived, name, value)
    return derived


@dataclass(frozen=True)
class BlissParams:
    """Parameters (mu1, xi) of a number-symmetry shift operator.

    ``xi`` is symmetric; the constructor mirrors the upper triangle so the
    stored matrix satisfies xi[i, j] == xi[j, i] bitwise.
    """

    mu1: float
    xi: np.ndarray

    def __post_init__(self) -> None:
        xi = np.array(self.xi, dtype=float)
        if xi.ndim != 2 or xi.shape[0] != xi.shape[1]:
            raise ValueError(f"xi must be square, got shape {xi.shape}")
        tol = SYMMETRY_RTOL * max(1.0, float(np.abs(xi).max(initial=0.0)))
        if float(np.abs(xi - xi.T).max()) > tol:
            raise ValueError("xi must be symmetric")
        upper = np.triu(xi)
        xi = upper + upper.T - np.diag(np.diag(xi))
        object.__setattr__(self, "mu1", float(self.mu1))
        object.__setattr__(self, "xi", _readonly(xi))

    @property
    def n_orb(self) -> int:
        return self.xi.shape[0]

    @classmethod
    def zeros(cls, n_orb: int) -> "BlissParams":
        return cls(0.0, np.zeros((n_orb, n_orb)))


def apply_bliss(hamiltonian: MolecularHamiltonian,
                params: BlissParams) -> MolecularHamiltonian:
    """Fold a shift operator into the integral tensors, returning H - K.

    The modified tensors are

        h'_ij    = h_ij - mu1 d_ij + n_elec xi_ij
        g'_ijkl  = g_ijkl - (xi_ij d_kl + d_ij xi_kl) / 2
        e_const' = e_const + mu1 n_elec

    which leaves every n_elec-sector matrix element unchanged.  The shift
    keeps the symmetries of H exactly (xi is symmetric bit for bit, and
    IEEE addition commutes), so only finiteness is checked again.  Only
    the O(N^3) entries with k = l or i = j of g's copy are touched.

    Raises:
        ValueError: if the parameter dimension does not match the
            Hamiltonian, or the shifted tensors are not finite.
    """
    n = hamiltonian.n_orb
    if params.n_orb != n:
        raise ValueError(
            f"dimension mismatch: Hamiltonian has {n} orbitals, "
            f"shift has {params.n_orb}")
    n_elec = hamiltonian.n_elec
    xi, eye, d = params.xi, np.eye(n), np.arange(n)
    h_new = hamiltonian.h - params.mu1 * eye + n_elec * xi
    g_new = hamiltonian.g.copy()
    g_new[:, :, d, d] -= 0.5 * (xi[:, :, None] + eye[:, :, None] * np.diag(xi))
    k, l = np.nonzero(eye == 0.0)  # i = j and k != l
    g_new[d[:, None], d[:, None], k, l] -= 0.5 * xi[k, l]
    e_new = hamiltonian.e_const + params.mu1 * n_elec
    _check_finite(e_new, h_new, g_new)
    return _derive(hamiltonian, e_const=float(e_new), h=h_new, g=g_new)
