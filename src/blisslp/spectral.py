"""Spectral-range estimation on the fermionic Fock space.

Determinants are encoded as occupancy bitmasks over spin-orbitals with the
interleaved convention s = 2*orbital + spin (spin 0 before spin 1).  The
Hamiltonian H = e_const + sum_ij h_ij F^i_j + sum_ijkl g_ijkl F^i_j F^k_l
acts through spin-summed excitations F^i_j = sum_s a+_is a_js, so it
conserves electron number and every estimate can be run sector by sector.

H is also spin-free, so it conserves the spin counts n_alpha and n_beta:
each sector is the direct sum of its M_S blocks, and the block with
ceil(n/2) spin-0 electrons holds every level of the sector.  Both engines
work on that block.

One kernel serves both engines: a per-block excitation table lists every
nonzero <d|F^k_l|s>.  It is built from the block's alpha and beta strings
(Knowles and Handy, Chem. Phys. Lett. 111, 315 (1984)): one a+_k a_l table
per string space, broadcast to the block with the parity of the crossed
electrons of the other spin.  A block plan turns the table into the
scatter of one ``bincount`` that builds the dense block matrix of any H,
for exact diagonalization; a sweep over several Hamiltonians builds each
sector's plan once and drops it before the next sector.  The Lanczos
operator folds F^k_l and F^l_k into one row and applies H to the dense
vectors of a fully reorthogonalized iteration.  The projected matrix uses
exact H applications, so Lanczos estimates are variational (the lowest
never undershoots the true minimum, the highest never overshoots the
maximum) and the derived spectral range is a lower bound on the exact one.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace
from types import MappingProxyType
from typing import Mapping, Sequence

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
    "spectral_ranges",
    "deviation_metric",
    "build_spectral_report",
    "build_spectral_reports",
    "EXACT_CAP_SPIN_ORBITALS",
    "EXACT_FALLBACK_DIMENSION",
    "SPECTRAL_MEMORY_LIMIT_BYTES",
]

EXACT_CAP_SPIN_ORBITALS = 16
# Blocks at or below this dimension are diagonalized densely even when the
# caller asked for Lanczos; the iteration buys nothing there.
EXACT_FALLBACK_DIMENSION = 1000
# Predicted peak memory of one spin block above which the engine refuses to
# start; half-filled Lanczos needs about 0.3 GiB at 20 spin-orbitals and
# 1.2 GiB at 22, and the largest exact block at 16 about 0.6 GiB.
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


def sector_dimension(n_spin_orb: int, n_elec: int,
                     n_alpha: int | None = None) -> int:
    """Determinants of the sector or, given ``n_alpha``, of its block with
    n_alpha spin-0 electrons."""
    if n_alpha is None:
        return math.comb(n_spin_orb, n_elec)
    if not 0 <= n_alpha <= n_elec:
        return 0
    n_orb = n_spin_orb // 2
    return math.comb(n_orb, n_alpha) * math.comb(n_orb, n_elec - n_alpha)


def sector_determinants(n_spin_orb: int, n_elec: int) -> tuple[int, ...]:
    """All occupancy bitmasks of the sector, sorted ascending."""
    if not 0 <= n_elec <= n_spin_orb:
        raise ValueError(f"n_elec={n_elec} outside [0, {n_spin_orb}]")
    masks = [sum(1 << s for s in bits)
             for bits in itertools.combinations(range(n_spin_orb), n_elec)]
    return tuple(sorted(masks))


def _spin_blocks(n_orb: int, n_elec: int) -> range:
    """The n_alpha values of the sector's nonempty blocks."""
    return range(max(0, n_elec - n_orb), min(n_elec, n_orb) + 1)


def _check_memory(n_orb: int, n_elec: int, n_alpha: int | None = None,
                  max_iters: int = 0, exact: bool = False) -> None:
    """Refuse a sector, or its block with ``n_alpha`` spin-0 electrons,
    predicted to outgrow the memory limit.

    A block with a spin-0 and b spin-1 electrons has C(N,a) C(N,b)
    determinants, each with deg = a(N-a+1) + b(N-b+1) table entries out of
    it and as many into it.  Counted are 32 B per table entry, two
    N^2 x dim matvec arrays and ``max_iters`` Lanczos vectors (the folded
    operator keeps 24 B per entry and two N(N+1)/2 x dim arrays); with
    ``exact``, also 16 B per element of the dense matrix (it and the copy
    ``eigvalsh`` works on) and 32 B per (c, out, in) triple of the largest
    block's two-body build, dim deg^2 of them: its plan holds 13 B of
    indices and signs per triple, and a matrix build 8 B of weights.
    """
    if not 0 <= n_elec <= 2 * n_orb:
        return  # _excitation_table names the bad n_elec
    blocks = _spin_blocks(n_orb, n_elec)
    if n_alpha is not None:
        if n_alpha not in blocks:
            return  # _excitation_table names the bad n_alpha
        blocks = (n_alpha,)
    sizes = [(sector_dimension(2 * n_orb, n_elec, a),
              a * (n_orb - a + 1) + (n_elec - a) * (n_orb - n_elec + a + 1))
             for a in blocks]
    dim = sum(d for d, _ in sizes)
    need = (32 * sum(d * deg for d, deg in sizes)
            + 8 * dim * (2 * n_orb ** 2 + max_iters))
    if exact:
        need += 16 * dim ** 2 + 32 * max(d * deg ** 2 for d, deg in sizes)
    if need > SPECTRAL_MEMORY_LIMIT_BYTES:
        block = "" if n_alpha is None else f" ({n_alpha} spin-0 electrons)"
        raise ValueError(
            f"the {n_elec}-electron sector of {2 * n_orb} spin-orbitals{block} "
            f"needs about {need / 2**30:.1f} GiB, above "
            f"SPECTRAL_MEMORY_LIMIT_BYTES ({SPECTRAL_MEMORY_LIMIT_BYTES} B)")


def _strings(n_orb: int, n_elec: int):
    """The C(N, n) strings of n same-spin electrons in N orbitals: bitmasks
    (ascending), occupations (m, N) and prefix counts (m, N + 1), whose
    column p counts the occupied orbitals below p."""
    masks = np.sort([sum(1 << p for p in occupied) for occupied
                     in itertools.combinations(range(n_orb), n_elec)])
    occupied = (masks[:, None] >> np.arange(n_orb)) & 1
    below = np.zeros((len(masks), n_orb + 1), dtype=np.int8)
    np.cumsum(occupied, axis=1, out=below[:, 1:])
    return masks, occupied, below


def _string_excitations(masks: np.ndarray, occupied: np.ndarray,
                        below: np.ndarray):
    """Every nonzero a+_k a_l on every string, as (m, deg) arrays listed l
    first, then k: the target string, l, k and the parity of the string's
    electrons that the pair crosses; deg = n(N-n+1), diagonal k == l
    included."""
    n_orb = occupied.shape[1]
    allowed = (occupied[:, :, None] == 1) & (
        (occupied[:, None, :] == 0) | np.eye(n_orb, dtype=bool))
    string, l, k = np.nonzero(allowed)
    target = np.searchsorted(masks, (masks[string] ^ (1 << l)) | (1 << k))
    parity = below[string, l] + below[string, k] - (l < k)
    return tuple(x.reshape(len(masks), -1) for x in (target, l, k, parity))


def _block_table(n_orb: int, n_elec: int, n_alpha: int):
    """The sorted basis of one block and its (src, dst, key, sign) table,
    key = ann * N + cre // 2 for the annihilated and created spin-orbitals,
    from the block's alpha and beta strings (Knowles and Handy, Chem. Phys.
    Lett. 111, 315 (1984)).  Entries are ordered by key, then src."""
    n = n_orb
    (masks_a, occ_a, below_a), (masks_b, occ_b, below_b) = (
        _strings(n, n_alpha), _strings(n, n_elec - n_alpha))
    n_a, n_b = len(masks_a), len(masks_b)
    spread = 1 << 2 * np.arange(n)  # orbital p -> spin-orbital 2p
    dets = ((occ_a @ spread)[:, None] | ((occ_b @ spread) << 1)).ravel()
    by_mask = np.argsort(dets)
    position = np.empty_like(by_mask)
    position[by_mask] = np.arange(len(by_mask))
    t_a, l_a, k_a, p_a = _string_excitations(masks_a, occ_a, below_a)
    t_b, l_b, k_b, p_b = _string_excitations(masks_b, occ_b, below_b)
    deg_a = t_a.shape[1]
    deg = deg_a + t_b.shape[1]
    # With spin-orbital s = 2p + spin, an alpha pair (l, k) crosses the
    # beta electrons below l and below k, a beta pair the alpha electrons
    # at or below them: crossings indexed by l*N + k.
    cross_a = (below_a[:, 1:, None] + below_a[:, None, 1:]).reshape(n_a, -1)
    cross_b = (below_b[:, :-1, None] + below_b[:, None, :-1]).reshape(n_b, -1)
    # Row i*n_b + j lists the alpha, then the beta excitations of the
    # determinant of strings i and j.
    target = np.empty((n_a, n_b, deg), dtype=np.int64)
    target[:, :, :deg_a] = t_a[:, None] * n_b + np.arange(n_b)[:, None]
    target[:, :, deg_a:] = np.arange(n_a)[:, None, None] * n_b + t_b
    parity = np.empty((n_a, n_b, deg), dtype=np.int8)
    parity[:, :, :deg_a] = (p_a[:, None]
                            + cross_b[:, l_a * n + k_a].transpose(1, 0, 2))
    parity[:, :, deg_a:] = p_b + cross_a[:, l_b * n + k_b]
    key = np.empty((n_a, n_b, deg), dtype=np.min_scalar_type(2 * n * n))
    key[:, :, :deg_a] = (2 * l_a * n + k_a)[:, None]
    key[:, :, deg_a:] = (2 * l_b + 1) * n + k_b
    # Rows in basis order ascend by source, so a stable sort by key (radix,
    # for 8 or 16 bits) orders the entries by key, then src.
    order = np.argsort(key.reshape(len(dets), deg)[by_mask].ravel(),
                       kind="stable")
    key = np.repeat(np.arange(2 * n * n, dtype=key.dtype),
                    np.bincount(key.ravel(), minlength=2 * n * n))
    target = target.reshape(len(dets), deg)[by_mask].ravel()
    dst = position[target[order]]
    del target
    parity = parity.reshape(len(dets), deg)[by_mask].ravel()[order]
    sign = (1 - 2 * (parity & 1)).astype(np.int8)
    return dets[by_mask], (order // max(deg, 1), dst, key, sign)


def _excitation_table(n_orb: int, n_elec: int, n_alpha: int | None = None):
    """The basis (sorted bitmasks) of the sector or, given ``n_alpha``, of
    its block with n_alpha spin-0 electrons, and flat arrays (src, dst,
    pair, sign) listing every nonzero <dst|F^k_l|src> = sign inside it, with
    pair = k*n_orb + l; diagonal k == l entries included.  Entries are
    ordered by annihilated spin-orbital, then created spin-orbital, then
    src.  F^k_l keeps both spin counts, so a block is closed under it."""
    _check_memory(n_orb, n_elec, n_alpha)
    if not 0 <= n_elec <= 2 * n_orb:
        raise ValueError(f"n_elec={n_elec} outside [0, {2 * n_orb}]")
    blocks = _spin_blocks(n_orb, n_elec)
    if n_alpha is not None:
        if n_alpha not in blocks:
            raise ValueError(f"n_alpha={n_alpha} outside the blocks {blocks} "
                             f"of the {n_elec}-electron sector")
        basis, (src, dst, key, sign) = _block_table(n_orb, n_elec, n_alpha)
    else:  # the direct sum of the blocks, in one sorted basis
        parts = [_block_table(n_orb, n_elec, a) for a in blocks]
        basis = np.sort(np.concatenate([dets for dets, _ in parts]))
        columns = []
        for dets, (src, dst, key, sign) in parts:
            at = np.searchsorted(basis, dets)
            columns.append((at[src], at[dst], key, sign))
        src, dst, key, sign = (np.concatenate(c) for c in zip(*columns))
        order = np.lexsort((src, key))
        src, dst, key, sign = (x[order] for x in (src, dst, key, sign))
    # Entries run in key order: each key's pair repeats over its run.
    ann, cre = np.divmod(np.arange(2 * n_orb ** 2), n_orb)
    pair = np.repeat(cre * n_orb + ann // 2,
                     np.bincount(key, minlength=2 * n_orb ** 2))
    return basis, (src, dst, pair, sign)


def _sector_operator(hamiltonian: MolecularHamiltonian, n_elec: int,
                     n_alpha: int | None = None):
    """The basis of the sector (or of its ``n_alpha`` block) and v -> H v on
    dense vectors over it.

    h and g are symmetric in each index pair, so F^k_l and F^l_k share one
    row of the intermediate w: the N(N+1)/2 pairs k <= l.  Every entry
    <d|F^k_l|s> has its mirror <s|F^l_k|d> of the same sign in the same row,
    so the second scatter can run through the entries reversed."""
    basis, (src, dst, pair, sign) = _excitation_table(hamiltonian.n_orb, n_elec,
                                                      n_alpha)
    n, dim = hamiltonian.n_orb, len(basis)
    k, l = np.triu_indices(n)
    rows = np.empty((n, n), dtype=np.int64)
    rows[k, l] = rows[l, k] = np.arange(len(k))
    into = rows.ravel()[pair] * dim + dst
    del dst, pair
    weight = sign.astype(float)
    upper = k * n + l
    h = hamiltonian.h.ravel()[upper]
    g = hamiltonian.g.reshape(n * n, n * n)[np.ix_(upper, upper)]
    size = len(upper) * dim

    def matvec(v: np.ndarray) -> np.ndarray:
        # Row kl of w is (F^k_l + F^l_k) v, or F^k_k v;
        # H v = e v + h.w + sum_{i<=j} (F^i_j + F^j_i) (g w)_ij.
        w = np.bincount(into, weight * v[src], size).reshape(-1, dim)
        u = (g @ w).ravel()
        return (hamiltonian.e_const * v + h @ w
                + np.bincount(src, weight * u[into], dim))

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


@dataclass(frozen=True, eq=False)
class _BlockPlan:
    """What the dense matrix of one block takes from its table, for any H:
    ``index`` scatters into the dim x dim matrix the diagonal, the table
    entries (h.ravel()[pair] * sign) and the (c, out, in) triples
    (g.ravel()[coupling] * coupling_sign), in that order."""

    block: tuple[int, int, int]  # (n_orb, n_elec, n_alpha)
    basis: np.ndarray
    pair: np.ndarray
    sign: np.ndarray
    index: np.ndarray
    coupling: np.ndarray
    coupling_sign: np.ndarray


def _block_plan(n_orb: int, n_elec: int, n_alpha: int) -> _BlockPlan:
    """The plan of one block's dense matrix."""
    _check_memory(n_orb, n_elec, n_alpha, exact=True)
    basis, (src, dst, pair, sign) = _excitation_table(n_orb, n_elec, n_alpha)
    dim, n_one = len(basis), len(src)
    # g_ijkl F^i_j F^k_l passes through an intermediate c: every entry out of
    # c (F^i_j, to d) meets every entry into c (F^k_l, from s).  All members
    # of a block have the same number of entries out and in, so grouping
    # the entries by c gives (dim, deg) tables.
    out_of = np.argsort(src, kind="stable").reshape(dim, -1)[:, :, None]
    into = np.argsort(dst, kind="stable").reshape(dim, -1)[:, None, :]
    deg = out_of.shape[1]
    index = np.empty(dim + n_one + dim * deg * deg, dtype=np.int64)
    index[:dim] = np.arange(dim) * (dim + 1)
    np.add(dst * dim, src, out=index[dim:dim + n_one])
    np.add(dst[out_of] * dim, src[into],
           out=index[dim + n_one:].reshape(dim, deg, deg))
    pair32 = pair.astype(np.int32)
    coupling = (pair32[out_of] * np.int32(n_orb ** 2) + pair32[into]).ravel()
    coupling_sign = (sign[out_of] * sign[into]).ravel()
    return _BlockPlan((n_orb, n_elec, n_alpha), basis, pair, sign, index,
                      coupling, coupling_sign)


def _block_matrix(hamiltonian: MolecularHamiltonian,
                  plan: _BlockPlan) -> np.ndarray:
    """Dense matrix of one block, from one ``bincount`` through its plan."""
    dim, n_one = len(plan.basis), len(plan.pair)
    weight = np.empty(len(plan.index))
    weight[:dim] = hamiltonian.e_const
    np.multiply(hamiltonian.h.ravel()[plan.pair], plan.sign,
                out=weight[dim:dim + n_one])
    np.multiply(hamiltonian.g.ravel()[plan.coupling], plan.coupling_sign,
                out=weight[dim + n_one:])
    return np.bincount(plan.index, weight, dim * dim).reshape(dim, dim)


def sector_matrix(hamiltonian: MolecularHamiltonian, n_elec: int,
                  n_alpha: int | None = None, plan: _BlockPlan | None = None
                  ) -> tuple[np.ndarray, tuple[int, ...]]:
    """Dense Hamiltonian matrix over one sector, or over its block with
    ``n_alpha`` spin-0 electrons, and its determinant basis (ascending).
    The sector matrix is the direct sum of its blocks.  ``plan``, from
    ``_block_plan`` for the same block, saves building the block's table."""
    n_orb = hamiltonian.n_orb
    _check_memory(n_orb, n_elec, n_alpha, exact=True)
    if n_alpha is not None:
        if plan is None:
            plan = _block_plan(n_orb, n_elec, n_alpha)
        elif plan.block != (n_orb, n_elec, n_alpha):
            raise ValueError(f"plan of block {plan.block} used for block "
                             f"{(n_orb, n_elec, n_alpha)}")
        return _block_matrix(hamiltonian, plan), tuple(plan.basis.tolist())
    if plan is not None:
        raise ValueError("a plan serves one block; give its n_alpha")
    blocks = []
    for a in _spin_blocks(n_orb, n_elec):
        plan = _block_plan(n_orb, n_elec, a)
        blocks.append((_block_matrix(hamiltonian, plan), plan.basis))
        del plan
    basis = np.sort(np.concatenate([dets for _, dets in blocks]))
    mat = np.zeros((len(basis), len(basis)))
    for block, dets in blocks:
        at = np.searchsorted(basis, dets)
        mat[np.ix_(at, at)] = block
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
    spans the block.  It runs in the block with ceil(n/2) spin-0 electrons,
    which holds every level of the sector and the start determinant.
    """
    opts = options or LanczosOptions()
    n_alpha = (n_elec + 1) // 2
    _check_memory(hamiltonian.n_orb, n_elec, n_alpha, opts.max_iters)
    rotated = one_body_eigenbasis(hamiltonian)
    dets, matvec = _sector_operator(rotated, n_elec, n_alpha)
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


def _sector_rows(hamiltonians: Sequence[MolecularHamiltonian], n_elec: int,
                 method: str, options: LanczosOptions | None
                 ) -> list[tuple[float, float, bool]]:
    """(e_min, e_max, converged) of each Hamiltonian in one sector.  A dense
    sector builds one plan, which serves every Hamiltonian and is dropped
    before the last one is diagonalized."""
    # H is spin-free, so every level has a member with M_S = 0 or 1/2: the
    # block with ceil(n/2) spin-0 electrons holds the whole spectrum.
    n_orb, n_alpha = hamiltonians[0].n_orb, (n_elec + 1) // 2
    if method == "exact" or (sector_dimension(2 * n_orb, n_elec, n_alpha)
                             <= EXACT_FALLBACK_DIMENSION):
        plan = _block_plan(n_orb, n_elec, n_alpha)
        rows = []
        for i, hamiltonian in enumerate(hamiltonians):
            matrix = sector_matrix(hamiltonian, n_elec, n_alpha, plan)[0]
            if i == len(hamiltonians) - 1:
                del plan  # the last eigvalsh gets the plan's room
            values = np.linalg.eigvalsh(matrix)
            del matrix  # before the next Hamiltonian's block is built
            rows.append((float(values[0]), float(values[-1]), True))
        return rows
    rows = []
    for hamiltonian in hamiltonians:
        low = truncated_lanczos(hamiltonian, n_elec, "lowest", options)
        high = truncated_lanczos(hamiltonian, n_elec, "highest", options)
        rows.append((low.energy, high.energy, low.converged and high.converged))
    return rows


def spectral_ranges(hamiltonians: Sequence[MolecularHamiltonian],
                    sector: int | None = None, method: str = "exact",
                    options: LanczosOptions | None = None
                    ) -> tuple[RangeResult, ...]:
    """The ``spectral_range`` of each Hamiltonian, from one sweep over the
    sectors: each sector is computed for every Hamiltonian before the next.

    Raises:
        ValueError: for an unknown method, for Hamiltonians of different
            sizes, when ``method="exact"`` is asked for more than
            ``EXACT_CAP_SPIN_ORBITALS`` spin-orbitals, or when a sector's
            block would need more than ``SPECTRAL_MEMORY_LIMIT_BYTES``; all
            before any sector is computed.
    """
    if method not in SPECTRAL_METHODS:
        raise ValueError(f"unknown method {method!r}; expected one of "
                         f"{SPECTRAL_METHODS}")
    n_orb = hamiltonians[0].n_orb
    if any(hamiltonian.n_orb != n_orb for hamiltonian in hamiltonians):
        raise ValueError("the Hamiltonians of one sweep must share n_orb")
    if method == "exact" and 2 * n_orb > EXACT_CAP_SPIN_ORBITALS:
        raise ValueError(f"exact diagonalization capped at "
                         f"{EXACT_CAP_SPIN_ORBITALS} spin-orbitals; got "
                         f"{2 * n_orb} (use method='lanczos')")
    sectors = range(2 * n_orb + 1) if sector is None else (sector,)
    max_iters = (options or LanczosOptions()).max_iters
    for n in sorted(sectors, key=lambda n: abs(n - n_orb)):
        # The half-filled sector, the largest, is checked first.
        _check_memory(n_orb, n, (n + 1) // 2,
                      max_iters if method == "lanczos" else 0,
                      exact=method == "exact")
    table = [_sector_rows(hamiltonians, n, method, options) for n in sectors]
    return tuple(RangeResult(
        e_min=min(row[0] for row in rows), e_max=max(row[1] for row in rows),
        method=method, converged=all(row[2] for row in rows),
        sector_extremes=tuple((n, *row[:2]) for n, row in zip(sectors, rows)))
        for rows in zip(*table))


def spectral_range(hamiltonian: MolecularHamiltonian,
                   sector: int | None = None, method: str = "exact",
                   options: LanczosOptions | None = None) -> RangeResult:
    """E_max - E_min over a fixed sector (``sector=n_elec``) or, with
    ``sector=None``, over the full Fock space via an electron-number sweep.

    Raises:
        ValueError: for an unknown method, when ``method="exact"`` is
            asked for more than ``EXACT_CAP_SPIN_ORBITALS`` spin-orbitals,
            or when a sector's block would need more than
            ``SPECTRAL_MEMORY_LIMIT_BYTES``; both before any sector is
            computed.
    """
    return spectral_ranges((hamiltonian,), sector, method, options)[0]


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


def build_spectral_reports(hamiltonian: MolecularHamiltonian,
                           shifted: Sequence[MolecularHamiltonian] = (),
                           method: str = "exact",
                           options: LanczosOptions | None = None
                           ) -> tuple[SpectralReport, ...]:
    """The ranges of H (full Fock and its n_elec sector) and, after it, one
    report per shifted Hamiltonian completed with its full range and
    deviation; one sector sweep computes them all."""
    full, *others = spectral_ranges((hamiltonian, *shifted), None, method,
                                    options)
    # Sectors are swept in order 0..n_spin_orb, so row n_elec is the sector.
    _, lo, hi = full.sector_extremes[hamiltonian.n_elec]
    report = SpectralReport(
        delta_e=full.delta, delta_e_ens=hi - lo, delta_e_shifted=None,
        deviation=None, method=method, converged=full.converged,
        sector_extremes=full.sector_extremes)
    return (report, *(
        replace(report, delta_e_shifted=other.delta,
                deviation=deviation_metric(report.delta_e, other.delta,
                                           report.delta_e_ens),
                converged=report.converged and other.converged)
        for other in others))


def build_spectral_report(hamiltonian: MolecularHamiltonian,
                          shifted: MolecularHamiltonian | None = None,
                          method: str = "exact",
                          options: LanczosOptions | None = None) -> SpectralReport:
    """Assemble ranges of H (full Fock and its n_elec sector) and, when a
    shifted Hamiltonian is given, the shifted full range and deviation."""
    return build_spectral_reports(
        hamiltonian, () if shifted is None else (shifted,), method,
        options)[-1]
