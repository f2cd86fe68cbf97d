"""Spectral-range estimation on the fermionic Fock space.

Determinants are encoded as occupancy bitmasks over spin-orbitals with the
interleaved convention s = 2*orbital + spin (spin 0 before spin 1).  The
Hamiltonian H = e_const + sum_ij h_ij F^i_j + sum_ijkl g_ijkl F^i_j F^k_l
acts through spin-summed excitations F^i_j = sum_s a+_is a_js, so it
conserves electron number and every estimate can be run sector by sector.

One kernel serves both engines: a per-sector excitation table lists every
nonzero <d|F^k_l|s>, and numpy gathers and scatters through it build dense
sector matrices for exact diagonalization and apply H to the dense vectors
of a fully reorthogonalized Lanczos iteration; the exact engine takes the
one spin block that holds a sector's whole spectrum.  The projected matrix
uses exact H applications, so Lanczos estimates are variational (the lowest
never undershoots the true minimum, the highest never overshoots the
maximum) and the derived spectral range is a lower bound on the exact one.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace
from types import MappingProxyType
from typing import Mapping

import numpy as np

from .hamiltonian import MolecularHamiltonian, symmetrize_two_body

__all__ = [
    "Determinant",
    "CIVector",
    "LanczosOptions",
    "LanczosResult",
    "RangeResult",
    "SpectralReport",
    "sector_determinants",
    "sector_dimension",
    "apply_hamiltonian",
    "sector_matrix",
    "one_body_eigenbasis",
    "reference_determinant",
    "truncated_lanczos",
    "spectral_range",
    "deviation_metric",
    "build_spectral_report",
    "with_shifted_range",
    "EXACT_CAP_SPIN_ORBITALS",
    "EXACT_FALLBACK_DIMENSION",
    "SPECTRAL_MEMORY_LIMIT_BYTES",
]

EXACT_CAP_SPIN_ORBITALS = 14
# Sectors at or below this dimension are diagonalized densely even when the
# caller asked for Lanczos; the iteration buys nothing there.
EXACT_FALLBACK_DIMENSION = 1000
# Predicted peak memory of one sector above which the engine refuses to
# start; Lanczos at 20 spin-orbitals and half filling needs about 0.9 GiB.
SPECTRAL_MEMORY_LIMIT_BYTES = 2 * 1024 ** 3

SPECTRAL_METHODS = ("exact", "lanczos")


@dataclass(frozen=True, order=True)
class Determinant:
    """A Slater determinant as an occupancy bitmask.

    Bit s of ``occupancy`` is the occupation of spin-orbital s = 2p + spin
    for spatial orbital p.
    """

    occupancy: int
    n_elec: int

    def __post_init__(self) -> None:
        if self.occupancy < 0:
            raise ValueError("occupancy bitmask must be non-negative")
        if self.occupancy.bit_count() != self.n_elec:
            raise ValueError(
                f"occupancy {self.occupancy:b} has {self.occupancy.bit_count()} "
                f"set bits, expected n_elec={self.n_elec}")

    def spin_orbitals(self) -> tuple[int, ...]:
        """Occupied spin-orbital indices, ascending."""
        return tuple(s for s in range(self.occupancy.bit_length())
                     if self.occupancy >> s & 1)


@dataclass(frozen=True)
class CIVector:
    """A real vector over one electron-number sector.

    ``entries`` maps occupancy bitmasks to amplitudes; every key must have
    ``n_elec`` set bits inside the first ``n_spin_orb`` positions.
    """

    entries: Mapping[int, float]
    n_elec: int
    n_spin_orb: int

    def __post_init__(self) -> None:
        entries = dict(self.entries)
        for occ, amp in entries.items():
            if occ < 0 or occ >> self.n_spin_orb:
                raise ValueError(f"determinant {occ} outside {self.n_spin_orb} "
                                 "spin-orbitals")
            if occ.bit_count() != self.n_elec:
                raise ValueError(f"determinant {occ:b} not in the "
                                 f"{self.n_elec}-electron sector")
            if not math.isfinite(amp):
                raise ValueError("amplitudes must be finite")
        object.__setattr__(self, "entries", MappingProxyType(entries))

    def norm(self) -> float:
        return math.sqrt(sum(a * a for a in self.entries.values()))

    def dot(self, other: "CIVector") -> float:
        if (self.n_elec, self.n_spin_orb) != (other.n_elec, other.n_spin_orb):
            raise ValueError("vectors live in different sectors")
        small, big = sorted((self.entries, other.entries), key=len)
        return sum(a * big.get(occ, 0.0) for occ, a in small.items())


def sector_dimension(n_spin_orb: int, n_elec: int) -> int:
    return math.comb(n_spin_orb, n_elec)


def sector_determinants(n_spin_orb: int, n_elec: int) -> tuple[int, ...]:
    """All occupancy bitmasks of the sector, sorted ascending."""
    if not 0 <= n_elec <= n_spin_orb:
        raise ValueError(f"n_elec={n_elec} outside [0, {n_spin_orb}]")
    masks = [sum(1 << s for s in bits)
             for bits in itertools.combinations(range(n_spin_orb), n_elec)]
    return tuple(sorted(masks))


def _check_memory(n_orb: int, n_elec: int, max_iters: int = 0) -> None:
    """Refuse a sector predicted to outgrow the memory limit: 32 B per table
    entry (a determinant with a alpha electrons has a(N-a+1) alpha entries;
    beta, by symmetry, adds as many over the sector), two N^2 x dim matvec
    arrays and ``max_iters`` Lanczos vectors."""
    if not 0 <= n_elec <= 2 * n_orb:
        return  # sector_determinants names the bad n_elec
    entries = 2 * sum(math.comb(n_orb, a) * math.comb(n_orb, n_elec - a)
                      * a * (n_orb - a + 1) for a in range(n_elec + 1))
    dim = math.comb(2 * n_orb, n_elec)
    need = 32 * entries + 8 * dim * (2 * n_orb ** 2 + max_iters)
    if need > SPECTRAL_MEMORY_LIMIT_BYTES:
        raise ValueError(
            f"the {n_elec}-electron sector of {2 * n_orb} spin-orbitals needs "
            f"about {need / 2**30:.1f} GiB, above SPECTRAL_MEMORY_LIMIT_BYTES "
            f"({SPECTRAL_MEMORY_LIMIT_BYTES} B)")


def _excitation_table(n_orb: int, n_elec: int):
    """The sector basis (sorted bitmasks) and flat arrays (src, dst, pair,
    sign) listing every nonzero <dst|F^k_l|src> = sign inside the sector,
    with pair = k*n_orb + l; diagonal k == l entries included."""
    _check_memory(n_orb, n_elec)
    n_so = 2 * n_orb
    basis = np.array(sector_determinants(n_so, n_elec), dtype=np.int64)
    bits = (basis[:, None] >> np.arange(n_so)) & 1
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


def _sector_operator(hamiltonian: MolecularHamiltonian, n_elec: int):
    """The sector basis and v -> H v on dense vectors over it."""
    basis, (src, dst, pair, sign) = _excitation_table(hamiltonian.n_orb, n_elec)
    dim, n2 = len(basis), hamiltonian.n_orb ** 2
    h, g = hamiltonian.h.ravel(), hamiltonian.g.reshape(n2, n2)

    def matvec(v: np.ndarray) -> np.ndarray:
        # Row kl of w is F^k_l v; H v = e v + h.w + sum_ij F^i_j (g w)_ij.
        w = np.bincount(pair * dim + dst, sign * v[src],
                        n2 * dim).reshape(n2, dim)
        u = (g @ w).ravel()
        return (hamiltonian.e_const * v + h @ w
                + np.bincount(dst, sign * u[pair * dim + src], dim))

    return basis, matvec


def apply_hamiltonian(hamiltonian: MolecularHamiltonian,
                      vector: CIVector) -> CIVector:
    """H|v> with exact fermionic sign bookkeeping; sector is preserved."""
    if vector.n_spin_orb != hamiltonian.n_spin_orb:
        raise ValueError("vector and Hamiltonian sizes differ")
    basis, matvec = _sector_operator(hamiltonian, vector.n_elec)
    v = np.zeros(len(basis))
    v[np.searchsorted(basis, np.fromiter(vector.entries, np.int64))] = \
        np.fromiter(vector.entries.values(), float)
    entries = {occ: a for occ, a in zip(basis.tolist(), matvec(v).tolist())
               if a != 0.0}
    return CIVector(entries, vector.n_elec, vector.n_spin_orb)


def sector_matrix(hamiltonian: MolecularHamiltonian,
                  n_elec: int) -> tuple[np.ndarray, tuple[int, ...]]:
    """Dense Hamiltonian matrix over one sector and its determinant basis."""
    basis, (src, dst, pair, sign) = _excitation_table(hamiltonian.n_orb, n_elec)
    dim, n2 = len(basis), hamiltonian.n_orb ** 2
    g = hamiltonian.g.reshape(n2, n2)
    mat = hamiltonian.e_const * np.eye(dim)
    np.add.at(mat, (dst, src), hamiltonian.h.ravel()[pair] * sign)
    # g_ijkl F^i_j F^k_l passes through an intermediate c: pair the entries
    # into c (F^k_l, from s) with those out of c (F^i_j, to d).
    into, out_of = np.argsort(dst, kind="stable"), np.argsort(src, kind="stable")
    into_at = np.searchsorted(dst[into], np.arange(dim + 1))
    out_at = np.searchsorted(src[out_of], np.arange(dim + 1))
    for c in range(dim):
        i, o = into[into_at[c]:into_at[c + 1]], out_of[out_at[c]:out_at[c + 1]]
        block = sign[o, None] * g[pair[o, None], pair[i]] * sign[i]
        np.add.at(mat, (dst[o, None], src[i]), block)
    return mat, tuple(basis.tolist())


def one_body_eigenbasis(hamiltonian: MolecularHamiltonian) -> MolecularHamiltonian:
    """Rotate all orbitals so the one-body tensor is diagonal.

    The rotation is a one-particle basis change, so every sector spectrum is
    preserved (up to arithmetic roundoff in the transformed tensors).
    """
    _, vecs = np.linalg.eigh(hamiltonian.h)
    h_rot = vecs.T @ hamiltonian.h @ vecs
    h_rot = 0.5 * (h_rot + h_rot.T)
    g_rot = np.einsum("pi,qj,rk,sl,pqrs->ijkl", vecs, vecs, vecs, vecs,
                      hamiltonian.g, optimize=True)
    return MolecularHamiltonian(
        n_orb=hamiltonian.n_orb, e_const=hamiltonian.e_const, h=h_rot,
        g=symmetrize_two_body(g_rot), n_elec=hamiltonian.n_elec,
        ms2=hamiltonian.ms2)


def reference_determinant(hamiltonian: MolecularHamiltonian, n_elec: int,
                          extreme: str = "lowest") -> Determinant:
    """Extreme-filling start vector in a frame where h is diagonal.

    Spatial orbitals are ranked by their diagonal h value (ascending for
    "lowest", descending for "highest", ties broken by orbital index) and
    filled spin 0 then spin 1.
    """
    if extreme not in ("lowest", "highest"):
        raise ValueError(f"extreme must be 'lowest' or 'highest', got {extreme!r}")
    if not 0 <= n_elec <= hamiltonian.n_spin_orb:
        raise ValueError(f"n_elec={n_elec} exceeds {hamiltonian.n_spin_orb} "
                         "spin-orbitals")
    energies = np.diag(hamiltonian.h) * (1.0 if extreme == "lowest" else -1.0)
    order = sorted(range(hamiltonian.n_orb), key=lambda p: (energies[p], p))
    fill = [2 * p + spin for p in order for spin in (0, 1)]
    occupancy = sum(1 << s for s in fill[:n_elec])
    return Determinant(occupancy=occupancy, n_elec=n_elec)


@dataclass(frozen=True)
class LanczosOptions:
    """Knobs of the Lanczos iteration: it stops after ``max_iters`` H
    applications, or once the Ritz residual of the extreme pair drops below
    ``residual_tol``."""

    max_iters: int = 200
    residual_tol: float = 1e-5

    def __post_init__(self) -> None:
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")
        if self.residual_tol <= 0.0:
            raise ValueError("residual_tol must be positive")


@dataclass(frozen=True)
class LanczosResult:
    """Extreme Ritz value of the Krylov subspace.

    ``converged`` is False only when the iteration cap was hit before the
    Ritz residual dropped below tolerance or the sector was exhausted; the
    energy is still the best variational estimate found.
    """

    energy: float
    iterations: int
    converged: bool
    subspace_dim: int


def truncated_lanczos(hamiltonian: MolecularHamiltonian, n_elec: int,
                      extreme: str = "lowest",
                      options: LanczosOptions | None = None) -> LanczosResult:
    """Variational extreme-eigenvalue estimate by fully reorthogonalized
    Lanczos; the name is kept for the API, nothing is truncated.

    The start vector is the extreme-filling determinant in the one-body
    eigenbasis plus, unless that determinant is already an eigenvector, a
    fixed random vector of norm 0.1: the determinant alone has one total
    spin, and so would its whole Krylov space.  The run stops when the Ritz
    residual |beta_k s_k| of the extreme pair (Parlett, The Symmetric
    Eigenvalue Problem) falls below ``residual_tol``, or when the basis
    spans the sector.
    """
    opts = options or LanczosOptions()
    _check_memory(hamiltonian.n_orb, n_elec, opts.max_iters)
    rotated = one_body_eigenbasis(hamiltonian)
    dets, matvec = _sector_operator(rotated, n_elec)
    ref = reference_determinant(rotated, n_elec, extreme)
    size = min(opts.max_iters, len(dets))
    basis, projected = np.zeros((size, len(dets))), np.zeros((size, size))
    start = basis[0]
    start[np.searchsorted(dets, ref.occupancy)] = 1.0
    h_start = matvec(start)
    if np.linalg.norm(h_start - (start @ h_start) * start) >= opts.residual_tol:
        mix = np.random.default_rng(0).normal(size=len(dets))
        start += 0.1 / np.linalg.norm(mix) * mix
        start /= np.linalg.norm(start)
    pick = 0 if extreme == "lowest" else -1
    for k in range(1, size + 1):
        w = matvec(basis[k - 1])
        projected[k - 1, :k] = projected[:k, k - 1] = basis[:k] @ w
        values, vectors = np.linalg.eigh(projected[:k, :k])
        for _ in range(2):
            w -= (basis[:k] @ w) @ basis[:k]
        beta = math.sqrt(w @ w)
        converged = bool(beta * abs(vectors[-1, pick]) < opts.residual_tol
                         or k == len(dets))
        if converged or k == size:
            break
        basis[k] = w / beta
    return LanczosResult(energy=float(values[pick]), iterations=k,
                         converged=converged, subspace_dim=k)


@dataclass(frozen=True)
class RangeResult:
    """Extreme eigenvalues over a sector or the whole Fock space.

    ``sector_extremes`` lists (n_elec, e_min, e_max) for every sector
    scanned; a single-sector scope has exactly one row.
    """

    e_min: float
    e_max: float
    method: str
    converged: bool
    sector_extremes: tuple[tuple[int, float, float], ...]

    @property
    def delta(self) -> float:
        return self.e_max - self.e_min


def _sector_range(hamiltonian: MolecularHamiltonian, n_elec: int, method: str,
                  options: LanczosOptions | None) -> tuple[float, float, bool]:
    if method == "exact" or (sector_dimension(hamiltonian.n_spin_orb, n_elec)
                             <= EXACT_FALLBACK_DIMENSION):
        # H is spin-free, so every level has a member with M_S = 0 or 1/2:
        # the block with ceil(n/2) spin-0 electrons holds the whole spectrum.
        mat, basis = sector_matrix(hamiltonian, n_elec)
        spin0 = (np.array(basis)[:, None]
                 >> np.arange(0, hamiltonian.n_spin_orb, 2)) & 1
        block = np.flatnonzero(spin0.sum(axis=1) == (n_elec + 1) // 2)
        values = np.linalg.eigvalsh(mat[np.ix_(block, block)])
        return float(values[0]), float(values[-1]), True
    low = truncated_lanczos(hamiltonian, n_elec, "lowest", options)
    high = truncated_lanczos(hamiltonian, n_elec, "highest", options)
    return low.energy, high.energy, low.converged and high.converged


def spectral_range(hamiltonian: MolecularHamiltonian,
                   sector: int | None = None, method: str = "exact",
                   options: LanczosOptions | None = None) -> RangeResult:
    """E_max - E_min over a fixed sector (``sector=n_elec``) or, with
    ``sector=None``, over the full Fock space via an electron-number sweep.

    Raises:
        ValueError: for an unknown method, when ``method="exact"`` is
            asked for more than ``EXACT_CAP_SPIN_ORBITALS`` spin-orbitals,
            or when the largest Lanczos sector would need more than
            ``SPECTRAL_MEMORY_LIMIT_BYTES``.
    """
    if method not in SPECTRAL_METHODS:
        raise ValueError(f"unknown method {method!r}; expected one of "
                         f"{SPECTRAL_METHODS}")
    if method == "exact" and hamiltonian.n_spin_orb > EXACT_CAP_SPIN_ORBITALS:
        raise ValueError(f"exact diagonalization capped at "
                         f"{EXACT_CAP_SPIN_ORBITALS} spin-orbitals; got "
                         f"{hamiltonian.n_spin_orb} (use method='lanczos')")
    sectors = (range(hamiltonian.n_spin_orb + 1) if sector is None
               else (sector,))
    if method == "lanczos":  # the half-filled sector is the largest
        _check_memory(hamiltonian.n_orb, hamiltonian.n_orb if sector is None
                      else sector, (options or LanczosOptions()).max_iters)
    rows = [(n, *_sector_range(hamiltonian, n, method, options))
            for n in sectors]
    return RangeResult(
        e_min=min(row[1] for row in rows), e_max=max(row[2] for row in rows),
        method=method, converged=all(row[3] for row in rows),
        sector_extremes=tuple(row[:3] for row in rows))


def deviation_metric(de: float, de_shifted: float,
                     de_ens: float) -> float | None:
    """Normalized position of a shifted range between the sector range
    (0.0) and the original full range (1.0); None when the original range
    does not exceed the sector range and the metric is undefined."""
    denom = de - de_ens
    if denom <= 0.0:
        return None
    return (de_shifted - de_ens) / denom


@dataclass(frozen=True)
class SpectralReport:
    """Full-range/sector-range summary with the optional shifted overlay."""

    delta_e: float
    delta_e_ens: float
    delta_e_shifted: float | None
    deviation: float | None
    method: str
    converged: bool
    sector_extremes: tuple[tuple[int, float, float], ...]


def build_spectral_report(hamiltonian: MolecularHamiltonian,
                          shifted: MolecularHamiltonian | None = None,
                          method: str = "exact",
                          options: LanczosOptions | None = None) -> SpectralReport:
    """Assemble ranges of H (full Fock and its n_elec sector) and, when a
    shifted Hamiltonian is given, the shifted full range and deviation."""
    full = spectral_range(hamiltonian, None, method, options)
    # Sectors are swept in order 0..n_spin_orb, so row n_elec is the sector.
    _, lo, hi = full.sector_extremes[hamiltonian.n_elec]
    report = SpectralReport(
        delta_e=full.delta, delta_e_ens=hi - lo, delta_e_shifted=None,
        deviation=None, method=method, converged=full.converged,
        sector_extremes=full.sector_extremes)
    if shifted is None:
        return report
    return with_shifted_range(report, shifted, options)


def with_shifted_range(report: SpectralReport, shifted: MolecularHamiltonian,
                       options: LanczosOptions | None = None) -> SpectralReport:
    """``report`` of the unshifted H, completed with the full range of
    ``shifted`` and the deviation it gives."""
    full = spectral_range(shifted, None, report.method, options)
    return replace(report, delta_e_shifted=full.delta,
                   deviation=deviation_metric(report.delta_e, full.delta,
                                              report.delta_e_ens),
                   converged=report.converged and full.converged)
