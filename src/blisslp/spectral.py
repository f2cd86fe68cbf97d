"""Spectral-range estimation on the fermionic Fock space.

Determinants are encoded as occupancy bitmasks over spin-orbitals with the
interleaved convention s = 2*orbital + spin (spin 0 before spin 1).  The
Hamiltonian H = e_const + sum_ij h_ij F^i_j + sum_ijkl g_ijkl F^i_j F^k_l
acts through spin-summed excitations F^i_j = sum_s a+_is a_js, so it
conserves electron number and every estimate can be run sector by sector.

Two engines are provided: dense diagonalization of a sector matrix for
small systems, and a truncated Lanczos iteration that caps the support of
each Krylov vector.  Because every retained vector stays inside the sector
and the projected matrix uses exact Hamiltonian applications, the truncated
estimates are variational: the lowest estimate never undershoots the true
minimum and the highest never overshoots the true maximum, so the derived
spectral range is a lower bound on the exact one.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace
from functools import lru_cache
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
]

EXACT_CAP_SPIN_ORBITALS = 14
# Sectors at or below this dimension are diagonalized densely even when the
# caller asked for Lanczos; the iteration buys nothing there.
EXACT_FALLBACK_DIMENSION = 1000

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
        occ, out, s = self.occupancy, [], 0
        while occ:
            if occ & 1:
                out.append(s)
            occ >>= 1
            s += 1
        return tuple(out)


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


@lru_cache(maxsize=None)
def _single_excitations(occ: int, n_orb: int) -> tuple[tuple[int, int, int, int], ...]:
    """All (k, l, new_occ, sign) with F^k_l|occ> ∋ sign|new_occ>, spin-summed."""
    out = []
    for l in range(n_orb):
        for spin in (0, 1):
            s_ann = 2 * l + spin
            if not (occ >> s_ann) & 1:
                continue
            occ2 = occ & ~(1 << s_ann)
            par_l = (occ & ((1 << s_ann) - 1)).bit_count()
            for k in range(n_orb):
                s_cre = 2 * k + spin
                if (occ2 >> s_cre) & 1:
                    continue
                par = par_l + (occ2 & ((1 << s_cre) - 1)).bit_count()
                out.append((k, l, occ2 | (1 << s_cre), -1 if par & 1 else 1))
    return tuple(out)


def _apply(e_const: float, h: list, g_klij: list, n_orb: int,
           vec: dict) -> dict:
    """Raw-dict core of apply_hamiltonian; g_klij is g transposed to
    [k][l][i][j] so the inner loop reads one (i, j) block per excitation."""
    out: dict[int, float] = {}
    for occ, amp in vec.items():
        if e_const != 0.0:
            out[occ] = out.get(occ, 0.0) + e_const * amp
        for k, l, occ2, s2 in _single_excitations(occ, n_orb):
            c = amp * s2
            hv = h[k][l]
            if hv != 0.0:
                out[occ2] = out.get(occ2, 0.0) + c * hv
            block = g_klij[k][l]
            for i, j, occ3, s3 in _single_excitations(occ2, n_orb):
                gv = block[i][j]
                if gv != 0.0:
                    out[occ3] = out.get(occ3, 0.0) + c * s3 * gv
    return {occ: a for occ, a in out.items() if a != 0.0}


def _hamiltonian_lists(hamiltonian: MolecularHamiltonian) -> tuple[float, list, list]:
    return (hamiltonian.e_const, hamiltonian.h.tolist(),
            np.transpose(hamiltonian.g, (2, 3, 0, 1)).tolist())


def apply_hamiltonian(hamiltonian: MolecularHamiltonian,
                      vector: CIVector) -> CIVector:
    """H|v> with exact fermionic sign bookkeeping; sector is preserved."""
    if vector.n_spin_orb != hamiltonian.n_spin_orb:
        raise ValueError("vector and Hamiltonian sizes differ")
    e_const, h, g_klij = _hamiltonian_lists(hamiltonian)
    out = _apply(e_const, h, g_klij, hamiltonian.n_orb, dict(vector.entries))
    return CIVector(out, vector.n_elec, vector.n_spin_orb)


def sector_matrix(hamiltonian: MolecularHamiltonian,
                  n_elec: int) -> tuple[np.ndarray, tuple[int, ...]]:
    """Dense Hamiltonian matrix over one sector and its determinant basis."""
    basis = sector_determinants(hamiltonian.n_spin_orb, n_elec)
    index = {occ: i for i, occ in enumerate(basis)}
    e_const, h, g_klij = _hamiltonian_lists(hamiltonian)
    mat = np.zeros((len(basis), len(basis)))
    for col, occ in enumerate(basis):
        for occ2, amp in _apply(e_const, h, g_klij, hamiltonian.n_orb,
                                {occ: 1.0}).items():
            mat[index[occ2], col] = amp
    return mat, basis


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
    energies = np.diag(hamiltonian.h)
    key = (lambda p: (energies[p], p)) if extreme == "lowest" else \
        (lambda p: (-energies[p], p))
    order = sorted(range(hamiltonian.n_orb), key=key)
    fill = [2 * p + spin for p in order for spin in (0, 1)]
    occupancy = sum(1 << s for s in fill[:n_elec])
    return Determinant(occupancy=occupancy, n_elec=n_elec)


@dataclass(frozen=True)
class LanczosOptions:
    """Knobs of the truncated iteration.

    At iteration k the new Krylov vector keeps only the
    ``truncation_multiplier * k`` largest-amplitude determinants before it
    is orthogonalized; the run stops once the orthogonalized residual
    2-norm drops below ``residual_tol``.
    """

    max_iters: int = 200
    truncation_multiplier: int = 5
    residual_tol: float = 1e-5

    def __post_init__(self) -> None:
        if self.max_iters < 1 or self.truncation_multiplier < 1:
            raise ValueError("max_iters and truncation_multiplier must be >= 1")
        if self.residual_tol <= 0.0:
            raise ValueError("residual_tol must be positive")


@dataclass(frozen=True)
class LanczosResult:
    """Extreme Rayleigh value of the retained Krylov subspace.

    ``converged`` is False only when the iteration cap was hit before the
    residual dropped below tolerance or the sector was exhausted; the
    energy is still the best variational estimate found.
    """

    energy: float
    iterations: int
    converged: bool
    subspace_dim: int


def _dict_dot(a: dict, b: dict) -> float:
    if len(b) < len(a):
        a, b = b, a
    return sum(v * b.get(occ, 0.0) for occ, v in a.items())


def _truncate(vec: dict, keep: int) -> dict:
    if len(vec) <= keep:
        return dict(vec)
    items = sorted(vec.items(), key=lambda kv: (-abs(kv[1]), kv[0]))
    return dict(items[:keep])


def truncated_lanczos(hamiltonian: MolecularHamiltonian, n_elec: int,
                      extreme: str = "lowest",
                      options: LanczosOptions | None = None) -> LanczosResult:
    """Variational extreme-eigenvalue estimate with capped vector support.

    The Hamiltonian is first rotated to its one-body eigenbasis and the
    iteration starts from the extreme-filling determinant there.  Each new
    vector is truncated, then orthogonalized twice against the whole basis;
    the projected matrix is built from untruncated Hamiltonian
    applications, so Rayleigh-Ritz bounds hold regardless of truncation.
    """
    opts = options or LanczosOptions()
    rotated = one_body_eigenbasis(hamiltonian)
    e_const, h, g_klij = _hamiltonian_lists(rotated)
    n_orb = rotated.n_orb
    ref = reference_determinant(rotated, n_elec, extreme)
    dim = sector_dimension(rotated.n_spin_orb, n_elec)

    basis: list[dict] = [{ref.occupancy: 1.0}]
    h_basis: list[dict] = []
    converged = False
    iterations = 0
    for k in range(1, opts.max_iters + 1):
        iterations = k
        h_basis.append(_apply(e_const, h, g_klij, n_orb, basis[-1]))
        w = _truncate(h_basis[-1], opts.truncation_multiplier * k)
        for _ in range(2):
            for vb in basis:
                c = _dict_dot(w, vb)
                if c != 0.0:
                    for occ, a in vb.items():
                        w[occ] = w.get(occ, 0.0) - c * a
        beta = math.sqrt(sum(a * a for a in w.values()))
        if beta < opts.residual_tol or len(basis) >= dim:
            converged = True
            break
        basis.append({occ: a / beta for occ, a in w.items() if a != 0.0})

    while len(h_basis) < len(basis):
        h_basis.append(_apply(e_const, h, g_klij, n_orb, basis[len(h_basis)]))
    t = np.array([[_dict_dot(vi, hvj) for hvj in h_basis] for vi in basis])
    values = np.linalg.eigvalsh(0.5 * (t + t.T))
    energy = float(values[0] if extreme == "lowest" else values[-1])
    return LanczosResult(energy=energy, iterations=iterations,
                         converged=converged, subspace_dim=len(basis))


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
        values = np.linalg.eigvalsh(sector_matrix(hamiltonian, n_elec)[0])
        return float(values[0]), float(values[-1]), True
    low = truncated_lanczos(hamiltonian, n_elec, "lowest", options)
    high = truncated_lanczos(hamiltonian, n_elec, "highest", options)
    return low.energy, high.energy, low.converged and high.converged


def spectral_range(hamiltonian: MolecularHamiltonian,
                   sector: int | None = None, method: str = "exact",
                   exact_cap: int = EXACT_CAP_SPIN_ORBITALS,
                   options: LanczosOptions | None = None) -> RangeResult:
    """E_max - E_min over a fixed sector (``sector=n_elec``) or, with
    ``sector=None``, over the full Fock space via an electron-number sweep.

    Raises:
        ValueError: for an unknown method, or when ``method="exact"`` is
            asked for more than ``exact_cap`` spin-orbitals.
    """
    if method not in SPECTRAL_METHODS:
        raise ValueError(f"unknown method {method!r}; expected one of "
                         f"{SPECTRAL_METHODS}")
    if method == "exact" and hamiltonian.n_spin_orb > exact_cap:
        raise ValueError(
            f"exact diagonalization capped at {exact_cap} spin-orbitals; "
            f"got {hamiltonian.n_spin_orb} (use method='lanczos')")
    sectors = (range(hamiltonian.n_spin_orb + 1) if sector is None
               else (sector,))
    extremes = []
    converged = True
    for n_elec in sectors:
        lo, hi, ok = _sector_range(hamiltonian, n_elec, method, options)
        extremes.append((n_elec, lo, hi))
        converged = converged and ok
    return RangeResult(
        e_min=min(lo for _, lo, _ in extremes),
        e_max=max(hi for _, _, hi in extremes),
        method=method, converged=converged,
        sector_extremes=tuple(extremes))


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
                          exact_cap: int = EXACT_CAP_SPIN_ORBITALS,
                          options: LanczosOptions | None = None) -> SpectralReport:
    """Assemble ranges of H (full Fock and its n_elec sector) and, when a
    shifted Hamiltonian is given, the shifted full range and deviation."""
    full = spectral_range(hamiltonian, None, method, exact_cap, options)
    # Sectors are swept in order 0..n_spin_orb, so row n_elec is the sector.
    _, lo, hi = full.sector_extremes[hamiltonian.n_elec]
    report = SpectralReport(
        delta_e=full.delta, delta_e_ens=hi - lo, delta_e_shifted=None,
        deviation=None, method=method, converged=full.converged,
        sector_extremes=full.sector_extremes)
    if shifted is None:
        return report
    return with_shifted_range(report, shifted, exact_cap, options)


def with_shifted_range(report: SpectralReport, shifted: MolecularHamiltonian,
                       exact_cap: int = EXACT_CAP_SPIN_ORBITALS,
                       options: LanczosOptions | None = None) -> SpectralReport:
    """``report`` of the unshifted H, completed with the full range of
    ``shifted`` and the deviation it gives."""
    full = spectral_range(shifted, None, report.method, exact_cap, options)
    return replace(report, delta_e_shifted=full.delta,
                   deviation=deviation_metric(report.delta_e, full.delta,
                                              report.delta_e_ens),
                   converged=report.converged and full.converged)
