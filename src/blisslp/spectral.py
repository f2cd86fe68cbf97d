"""Spectral-range estimation on the fermionic Fock space.

Determinants are occupancy bitmasks over spin-orbitals s = 2*orbital + spin
(spin 0 before spin 1).  H = e_const + sum_ij h_ij F^i_j + sum_ijkl g_ijkl
F^i_j F^k_l acts through spin-summed excitations F^i_j = sum_s a+_is a_js,
so it conserves electron number and, being spin-free, n_alpha and n_beta:
each sector is the direct sum of its M_S blocks, and the block with
ceil(n/2) spin-0 electrons holds every level of the sector.  Both engines
work on that block.

One kernel serves both: a per-block table lists every nonzero <d|F^k_l|s>,
built from the block's alpha and beta strings (Knowles and Handy, Chem.
Phys. Lett. 111, 315 (1984)).  The spin flip commutes with H and splits an
even sector's M_S = 0 block into halves of dimension (d +- C(N, n/2))/2
(Olsen et al., J. Chem. Phys. 89, 2185 (1988)).  For exact diagonalization
one plan groups the table by intermediate determinant c, O(dim deg) in all
and one c per flip pair, and a build scatters straight into both halves, a
chunk at a time: each c with itself (e_const and the one-body terms), then
its (c, out, in) two-body triples.  A plan that does not flip takes every
determinant as its own image, so its first half is the whole block.

A sweep takes H and BLISS shifts p = (mu1, xi) of it.  In sector n,
apply_bliss(H, p) is H plus the one-body term -(n - eta)(mu1 + xi.E), for
eta = H's n_elec and E the matrix of F^k_l (Loaiza and Izmaylov, J. Chem.
Theory Comput. 19, 8201 (2023)), and at n = eta it is H.  So each sector
builds its plan and H's block once, and a shift adds only its one-body
pass to that block; every shift's row at eta is H's.  The plan is dropped
before the next sector.  Lanczos runs once per sector and Hamiltonian (a
shift's on H with the shifted e_const and h, sharing g), from a fixed sine
vector, and both extremes come from that one Krylov space; its operator
folds F^k_l and F^l_k into one row.  The projected matrix uses exact H
applications, so the lowest Ritz value never undershoots the true minimum,
the highest never overshoots the maximum, and the range is a lower bound
on the exact one.  No table spans a sector: ``apply_hamiltonian`` applies
H block by block.  Memory is predicted once on each path that allocates
(``_check_memory``).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace
from types import MappingProxyType
from typing import Mapping, Sequence

import numpy as np

from .hamiltonian import BlissParams, MolecularHamiltonian, _derive

__all__ = [
    "CIVector",
    "LanczosOptions",
    "LanczosResult",
    "RangeResult",
    "SpectralReport",
    "sector_determinants",
    "sector_dimension",
    "apply_hamiltonian",
    "sector_matrix",
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
# 1.2 GiB at 22.  At 16 the exact sweep needs at most 0.24 GiB (7 and 9
# electrons); the 8-electron halves need 0.16 GiB (0.38 GiB built whole).
SPECTRAL_MEMORY_LIMIT_BYTES = 2 * 1024 ** 3

SPECTRAL_METHODS = ("exact", "lanczos")
GOLDEN_ANGLE = math.pi * (3.0 - math.sqrt(5.0))
# Triples a matrix build expands at once: 64 KiB per 8-B chunk array, small
# enough for the allocator to serve from freed heap rather than map afresh.
GATHER_TRIPLES = 1 << 13


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
        if not 0 <= self.n_elec <= self.n_spin_orb:
            raise ValueError(f"n_elec={self.n_elec} outside "
                             f"[0, {self.n_spin_orb}]")
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
    if not 0 <= n_elec <= n_spin_orb:
        raise ValueError(f"n_elec={n_elec} outside [0, {n_spin_orb}]")
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
                  max_iters: int = 0, exact: bool = False,
                  halves: bool = False, shifted: bool = False) -> None:
    """Refuse a sector, or its block with ``n_alpha`` spin-0 electrons,
    predicted to outgrow the memory limit.  Called once per allocating
    path: by ``_plan``, ``truncated_lanczos``,
    ``apply_hamiltonian`` per block, ``sector_matrix`` for a whole sector,
    and a sweep up front.

    A block with a spin-0 and b spin-1 electrons has C(N,a) C(N,b)
    determinants, each with deg = a(N-a+1) + b(N-b+1) table entries out of
    it and as many into it.  Counted are 32 B per table entry, two
    N^2 x dim matvec arrays and ``max_iters`` Lanczos vectors (the folded
    operator keeps 17 B per entry and two N(N+1)/2 x dim arrays).  With
    ``exact`` also 48 B per entry for the plan (34 B) and the one-body
    pass, 32 B per triple of one ``GATHER_TRIPLES`` chunk, and 8 B per
    element of both halves and of the larger one's ``eigvalsh`` copy: with
    ``halves`` the spin-flip halves of one block (``_plan``), otherwise the
    dense matrix, a tau half of dimension dim.  With ``shifted``, for a
    BLISS shift's one-body pass, also 8 B per element of the extra halves
    that carry it, or for a dense matrix, which takes it in place, 16 B
    per entry for the entries it touches and their indices.
    """
    if not 0 <= n_elec <= 2 * n_orb:
        return  # _block_table names the bad n_elec
    blocks = _spin_blocks(n_orb, n_elec)
    if n_alpha is not None:
        if n_alpha not in blocks:
            return  # _block_table names the bad n_alpha
        blocks = (n_alpha,)
    sizes = [(sector_dimension(2 * n_orb, n_elec, a),
              a * (n_orb - a + 1) + (n_elec - a) * (n_orb - n_elec + a + 1))
             for a in blocks]
    dim, entries = sum(d for d, _ in sizes), sum(d * deg for d, deg in sizes)
    need = 32 * entries + 8 * dim * (2 * n_orb ** 2 + max_iters)
    if exact:
        need += 48 * entries + 32 * max(
            GATHER_TRIPLES, (max(deg for _, deg in sizes) + 1) ** 2)
        # With halves, of one block, so dim is its dimension.
        upper = (dim + math.comb(n_orb, n_elec // 2)) // 2 if halves else dim
        need += 8 * (2 * upper ** 2 + (dim - upper) ** 2)
        if shifted:
            need += (8 * (upper ** 2 + (dim - upper) ** 2) if halves
                     else 16 * (entries + dim))
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
    """The sorted basis of the block with n_alpha spin-0 electrons and its
    (src, dst, pair, sign) table of every nonzero <dst|F^k_l|src> = sign,
    pair = k*n_orb + l, diagonal included, ordered by annihilated
    spin-orbital, then created spin-orbital, then src."""
    if not 0 <= n_elec <= 2 * n_orb:
        raise ValueError(f"n_elec={n_elec} outside [0, {2 * n_orb}]")
    blocks = _spin_blocks(n_orb, n_elec)
    if n_alpha not in blocks:
        raise ValueError(f"n_alpha={n_alpha} outside the blocks {blocks} "
                         f"of the {n_elec}-electron sector")
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
    # Sorted by key = ann * N + cre // 2, each key's run is one pair k*N + l.
    ann, cre = np.divmod(np.arange(2 * n * n), n)
    pair = np.repeat((cre * n + ann // 2).astype(key.dtype),
                     np.bincount(key.ravel(), minlength=2 * n * n))
    target = target.reshape(len(dets), deg)[by_mask].ravel()
    dst = position[target[order]]
    del target
    parity = parity.reshape(len(dets), deg)[by_mask].ravel()[order]
    sign = (1 - 2 * (parity & 1)).astype(np.int8)
    return dets[by_mask], (order // max(deg, 1), dst, pair, sign)


def _sector_operator(hamiltonian: MolecularHamiltonian, n_elec: int,
                     n_alpha: int):
    """The basis of the sector's ``n_alpha`` block and v -> H v on dense
    vectors over it.

    h and g are symmetric in each index pair, so F^k_l and F^l_k share one
    row of the intermediate w: the N(N+1)/2 pairs k <= l.  Every entry
    <d|F^k_l|s> has its mirror <s|F^l_k|d> of the same sign in the same row,
    so the second scatter can run through the entries reversed."""
    basis, (src, dst, pair, sign) = _block_table(hamiltonian.n_orb, n_elec,
                                                 n_alpha)
    n, dim = hamiltonian.n_orb, len(basis)
    k, l = np.triu_indices(n)
    rows = np.empty((n, n), dtype=np.int64)
    rows[k, l] = rows[l, k] = np.arange(len(k))
    into = rows.ravel()[pair] * dim + dst
    del dst, pair
    upper = k * n + l
    h = hamiltonian.h.ravel()[upper]
    g = hamiltonian.g.reshape(n * n, n * n)[np.ix_(upper, upper)]
    size = len(upper) * dim
    buf = np.empty(len(src))  # "clip" (in range) takes into it unbuffered

    def matvec(v: np.ndarray) -> np.ndarray:
        # Row kl of w is (F^k_l + F^l_k) v, or F^k_k v;
        # H v = e v + h.w + sum_{i<=j} (F^i_j + F^j_i) (g w)_ij.
        np.multiply(np.take(v, src, out=buf, mode="clip"), sign, out=buf)
        w = np.bincount(into, buf, size).reshape(-1, dim)
        u = (g @ w).ravel()
        np.multiply(np.take(u, into, out=buf, mode="clip"), sign, out=buf)
        return hamiltonian.e_const * v + h @ w + np.bincount(src, buf, dim)

    return basis, matvec


def apply_hamiltonian(hamiltonian: MolecularHamiltonian,
                      vector: CIVector) -> CIVector:
    """H|v> with exact fermionic sign bookkeeping; sector is preserved.
    H keeps both spin counts, so only the blocks v touches are built."""
    if vector.n_spin_orb != hamiltonian.n_spin_orb:
        raise ValueError("vector and Hamiltonian sizes differ")
    n_orb, n_elec = hamiltonian.n_orb, vector.n_elec
    occupancy = np.fromiter(vector.entries, np.int64, len(vector.entries))
    alphas = ((occupancy[:, None] >> 2 * np.arange(n_orb)) & 1).sum(axis=1)
    amplitude = np.fromiter(vector.entries.values(), float, len(alphas))
    entries = {}
    for n_alpha in np.unique(alphas).tolist():
        _check_memory(n_orb, n_elec, n_alpha)
        basis, matvec = _sector_operator(hamiltonian, n_elec, n_alpha)
        v = np.zeros(len(basis))
        mine = alphas == n_alpha
        v[np.searchsorted(basis, occupancy[mine])] = amplitude[mine]
        entries.update((occ, a) for occ, a
                       in zip(basis.tolist(), matvec(v).tolist()) if a != 0.0)
    return CIVector(dict(sorted(entries.items())), n_elec, vector.n_spin_orb)


def _by_intermediate(table, dim: int, rows: np.ndarray, n_orb: int):
    """For the intermediates ``rows``, the (other end, pair, sign) of c
    itself (pair N^2, sign 1) and of its deg entries out, then the same of
    c and its deg entries in, each in table order."""
    src, dst, pair, sign = table
    groups = []
    for end, key in ((dst, src), (src, dst)):
        at = np.argsort(key, kind="stable").reshape(dim, -1)[rows]
        group = tuple(np.empty((len(rows), at.shape[1] + 1), dtype)
                      for dtype in (end.dtype, np.intp, np.int8))
        for column, values, itself in zip(group, (end, pair, sign),
                                          (rows, n_orb ** 2, 1)):
            column[:, 0] = itself
            column[:, 1:] = values[at]
        groups.append(group)
    return groups


def _add_triples(flat: np.ndarray, coupling: np.ndarray, out, into,
                 place) -> None:
    """Add to ``flat`` every (c, out, in) triple of a plan's ``out`` and
    ``into`` tables, coupling[out pair, in pair] times both signs, at
    ``place(weight, out end, in end)``, which may scale the weights.  The
    triples are expanded ``GATHER_TRIPLES`` at a time and added in order."""
    (x, out_pair, out_sign), (y, in_pair, in_sign) = out, into
    step = max(1, GATHER_TRIPLES // max(1, x.shape[1] * y.shape[1]))
    for c in range(0, len(x), step):
        c = slice(c, c + step)
        weight = coupling.take(out_pair[c, :, None] * len(coupling)
                               + in_pair[c, None, :])
        weight *= out_sign[c, :, None] * in_sign[c, None, :]
        index = place(weight, x[c, :, None], y[c, None, :])
        np.add.at(flat, index.ravel(), weight.ravel())
        del weight, index  # before the next chunk's are built


@dataclass(frozen=True, eq=False)
class _Plan:
    """What the dense matrix of one block, or the spin-flip halves of an
    M_S = 0 block, take from its table, for any H, in O(dim deg) room.  For
    each kept intermediate c, ``out`` and ``into`` hold the (end, pair,
    sign) of c itself (pair N^2), then of its deg entries out and in; the
    out signs carry the weight 2 of a flip pair.  A triple weighs both
    signs times G[out pair, in pair], G = [[g, h], [0, e_const]], and the
    flip signs factor[kind[y], x] * factor[kind[x], y]; it lands at
    base[kind[y], x] + slot[y] for out end x and in end y, the tau half
    first; ``maps`` = (kind, slot, base, factor)."""

    block: tuple[int, int, int]  # (n_orb, n_elec, n_alpha)
    basis: np.ndarray
    n_pairs: int
    maps: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]
    out: tuple[np.ndarray, np.ndarray, np.ndarray]
    into: tuple[np.ndarray, np.ndarray, np.ndarray]


def _plan(n_orb: int, n_elec: int, n_alpha: int, flip: bool) -> _Plan:
    """The plan of one block's dense matrix or, with ``flip``, of the
    spin-flip halves of an even sector's M_S = 0 block.

    The spin flip S swaps spin-orbitals 2p and 2p + 1; on a determinant,
    an ascending product of creators, S|x> = (-1)^D |x'> for D doubly
    occupied orbitals, and a spin-free H commutes with it.  Each pair
    x < x' gives (|x> +- S|x>) / sqrt(2) to the S = +-1 halves, and each
    self-flipped x (S|x> = tau |x>, tau = (-1)^(n/2)) gives |x> to the tau
    half: dimensions (d +- C(N, n/2))/2.  Both halves list the m pairs
    first, the tau half then the self-flipped determinants.  Without
    ``flip`` every determinant is its own image: the tau half is the whole
    block in basis order, the other half 0 x 0.

    A triple and its flip image add the same signed amount to the same
    half positions, so only the intermediates c <= c' are kept, those with
    c < c' at weight 2.  On pair rows and columns the scatter sums E, the
    triples whose two ends are both kept or both flipped, into the tau
    half and O, the others, into the other half: the halves' pair blocks
    are (E + tau O)/2 and (E - tau O)/2, and ``_halves`` forms them in
    place."""
    _check_memory(n_orb, n_elec, n_alpha, exact=True, halves=flip)
    basis, table = _block_table(n_orb, n_elec, n_alpha)
    dim, at = len(basis), np.arange(len(basis))
    spin0 = sum(1 << 2 * p for p in range(n_orb))
    image = (np.searchsorted(basis, (basis & spin0) << 1 | basis >> 1 & spin0)
             if flip else at)
    kind = (at > image) + 2 * (at == image)  # kept, flipped or self-flipped
    m, tau = int(np.count_nonzero(kind == 0)), 1 - 2 * (n_alpha & 1)
    upper = dim - m  # the tau half: m pairs and the self-flipped
    slot = np.empty(dim, dtype=np.int64)
    slot[kind == 0], slot[kind == 2] = np.arange(m), np.arange(m, upper)
    slot[kind == 1] = slot[image[kind == 1]]
    # Entry x <- y lands in row base[kind[y], x], column slot[y], with the
    # sign factor[kind[y], x] * factor[kind[x], y]: the flip sign of each
    # flipped end, and tau for a flipped end facing a self-flipped one.
    other_kind = np.arange(3)[:, None]
    base = np.where(kind + other_kind == 1, upper ** 2 + slot * m,
                    slot * upper)
    doubles = basis & basis >> 1 & spin0
    odd_doubles = ((doubles[:, None] >> 2 * np.arange(n_orb)) & 1).sum(
        axis=1) % 2 == 1
    factor = np.where((kind == 1) & odd_doubles, -1, 1) * np.where(
        (kind == 1) & (other_kind == 2), tau, 1)
    # c itself stands for the one-body term of each entry out of c, and
    # with itself for e_const.
    kept = kind != 1
    (x, out_pair, out_sign), into = _by_intermediate(table, dim, at[kept],
                                                     n_orb)
    out_sign *= (2 - kind[kept] // 2).astype(np.int8)[:, None]
    return _Plan((n_orb, n_elec, n_alpha), basis, m,
                 (kind, slot, base, factor.astype(np.int8)),
                 (x, out_pair, out_sign), into)


def _scatter(flat: np.ndarray, plan: _Plan, coupling: np.ndarray,
             two_body: bool = True) -> None:
    """Add to ``flat``, the plan's halves before ``_mix``, the triples of
    G = ``coupling`` (``_Plan``) in two passes over the intermediates c:
    first each entry out of c, c itself first, with c itself (e_const and
    the one-body terms), then, with ``two_body``, the deg x deg two-body
    triples, each pass in its plan's order."""
    m, (kind, slot, base, factor) = plan.n_pairs, plan.maps
    upper = len(plan.basis) - m

    def place(weight, x, y):
        if not m:  # every determinant is its own image
            return x * upper + y
        weight *= factor.take(kind[x] * len(kind) + y)
        at = kind[y] * len(kind) + x  # (kind[y], x) in the maps
        weight *= factor.take(at)
        index = base.take(at)
        index += slot[y]
        return index

    _add_triples(flat, coupling, plan.out,
                 [column[:, :1] for column in plan.into], place)
    if two_body:
        _add_triples(flat, coupling, *([column[:, 1:] for column in table]
                                       for table in (plan.out, plan.into)),
                     place)


def _mix(flat: np.ndarray, plan: _Plan) -> tuple[np.ndarray, np.ndarray]:
    """The tau half and the other half, views of ``flat`` as ``_scatter``
    left it, formed in place; a no-op for a plan without pairs."""
    m = plan.n_pairs
    upper = len(plan.basis) - m
    tau_half = flat[:upper ** 2].reshape(upper, upper)
    other, pairs = flat[upper ** 2:].reshape(m, m), tau_half[:m, :m]
    # pairs holds E and other O: make them (E + tau O)/2, (E - tau O)/2.
    if plan.block[1] % 4:  # tau = -1
        pairs -= other
        other *= 2
    else:
        pairs += other
        other *= -2
    other += pairs
    pairs *= 0.5
    other *= 0.5
    tau_half[:m, m:] *= math.sqrt(0.5)
    tau_half[m:, :m] *= math.sqrt(0.5)
    return tau_half, other


def _halves(hamiltonian: MolecularHamiltonian,
            plan: _Plan) -> tuple[np.ndarray, np.ndarray]:
    """The tau half and the other half of H's block (``_plan``), from both
    passes of ``_scatter``."""
    n, m = hamiltonian.n_orb, plan.n_pairs
    coupling = np.block([[hamiltonian.g.reshape(n * n, n * n),
                          hamiltonian.h.reshape(-1, 1)],
                         [np.zeros((1, n * n)), hamiltonian.e_const]])
    flat = np.zeros((len(plan.basis) - m) ** 2 + m * m)
    _scatter(flat, plan, coupling)
    return _mix(flat, plan)


def _shifted_extremes(halves: Sequence[np.ndarray], plan: _Plan,
                      e_const: float, h: np.ndarray
                      ) -> tuple[float, float, bool]:
    """The extremes of ``halves``, the block or halves that ``plan`` built,
    plus e_const + sum_kl h_kl F^k_l; ``halves`` end as they began.  A
    block without pairs takes the one-body pass in place and gets back the
    entries it touched; flip halves take it as extra mixed halves, which
    then hold the sum."""
    n = len(h)
    coupling = np.zeros((n * n + 1, n * n + 1))
    coupling[:-1, -1], coupling[-1, -1] = h.ravel(), e_const
    if plan.n_pairs:
        extra = np.zeros(sum(half.size for half in halves))
        _scatter(extra, plan, coupling, two_body=False)
        extra = _mix(extra, plan)
        for half, more in zip(halves, extra):
            more += half
        return _extremes(extra)
    flat = halves[0].ravel()
    # The pass lands at (x, c) for every entry out of c, c itself included.
    touched = plan.out[0] * len(plan.basis) + plan.into[0][:, :1]
    kept = flat[touched]
    _scatter(flat, plan, coupling, two_body=False)
    try:
        return _extremes(halves)
    finally:
        flat[touched] = kept


def sector_matrix(hamiltonian: MolecularHamiltonian, n_elec: int,
                  n_alpha: int | None = None, plan: _Plan | None = None
                  ) -> tuple[np.ndarray, tuple[int, ...]]:
    """Dense Hamiltonian matrix over one sector, or over its block with
    ``n_alpha`` spin-0 electrons, and its determinant basis (ascending).
    The sector matrix is the direct sum of its blocks.  ``plan``, from
    ``_plan`` for the same block without flip, saves building the block's
    table."""
    n_orb = hamiltonian.n_orb
    if n_alpha is not None:
        if plan is None:
            plan = _plan(n_orb, n_elec, n_alpha, False)
        elif plan.block != (n_orb, n_elec, n_alpha) or plan.n_pairs:
            raise ValueError(f"plan of block {plan.block}"
                             f"{' halves' if plan.n_pairs else ''} used for "
                             f"block {(n_orb, n_elec, n_alpha)}")
        return _halves(hamiltonian, plan)[0], tuple(plan.basis.tolist())
    if plan is not None:
        raise ValueError("a plan serves one block; give its n_alpha")
    if not 0 <= n_elec <= 2 * n_orb:
        raise ValueError(f"n_elec={n_elec} outside [0, {2 * n_orb}]")
    _check_memory(n_orb, n_elec, exact=True)
    blocks = []
    for a in _spin_blocks(n_orb, n_elec):
        plan = _plan(n_orb, n_elec, a, False)
        blocks.append((_halves(hamiltonian, plan)[0], plan.basis))
        del plan
    basis = np.sort(np.concatenate([dets for _, dets in blocks]))
    mat = np.zeros((len(basis), len(basis)))
    for block, dets in blocks:
        at = np.searchsorted(basis, dets)
        mat[np.ix_(at, at)] = block
    return mat, tuple(basis.tolist())


@dataclass(frozen=True)
class LanczosOptions:
    """Knobs of the Lanczos iteration: its one run, which serves both
    extremes, stops after ``max_iters`` H applications, or once the Ritz
    residuals of both extreme pairs drop below ``residual_tol``."""

    max_iters: int = 200
    residual_tol: float = 1e-5

    def __post_init__(self) -> None:
        if (isinstance(self.max_iters, bool)
                or not isinstance(self.max_iters, int) or self.max_iters < 1):
            raise ValueError(f"max_iters must be a positive int, got "
                             f"{self.max_iters!r}")
        if not 0.0 < self.residual_tol < math.inf:
            raise ValueError("residual_tol must be positive and finite")


@dataclass(frozen=True)
class LanczosResult:
    """Extreme Ritz values of one Krylov subspace: ``e_min`` never
    undershoots the sector minimum, ``e_max`` never overshoots its maximum.

    ``converged`` is False only when the iteration cap was hit before both
    Ritz residuals dropped below tolerance or the block was exhausted; the
    values are still the best variational estimates found.
    """

    e_min: float
    e_max: float
    iterations: int
    converged: bool


def truncated_lanczos(hamiltonian: MolecularHamiltonian, n_elec: int,
                      options: LanczosOptions | None = None) -> LanczosResult:
    """Both extreme eigenvalues of a sector, estimated variationally by one
    fully reorthogonalized Lanczos run; the name is kept for the API,
    nothing is truncated.

    The start vector is fixed and generic, sin(k * golden angle) for
    k = 1..d, normalized, built without ``numpy.random``.  The run stops
    when the Ritz residuals |beta_k s_k| of both extreme pairs (Parlett, The
    Symmetric Eigenvalue Problem) fall below ``residual_tol``, or when the
    basis spans the block.  It runs in the block with ceil(n/2) spin-0
    electrons, which holds every level of the sector.
    """
    opts = options or LanczosOptions()
    n_alpha = (n_elec + 1) // 2
    _check_memory(hamiltonian.n_orb, n_elec, n_alpha, opts.max_iters)
    dets, matvec = _sector_operator(hamiltonian, n_elec, n_alpha)
    size = min(opts.max_iters, len(dets))
    basis, projected = np.zeros((size, len(dets))), np.zeros((size, size))
    # Generic and fixed, from numpy core: sines of multiples of the golden
    # angle, so Lanczos imports no numpy.random of its own.
    start = np.sin(np.arange(1, len(dets) + 1) * GOLDEN_ANGLE)
    basis[0] = start / np.linalg.norm(start)
    for k in range(1, size + 1):
        w = matvec(basis[k - 1])
        projected[k - 1, :k] = projected[:k, k - 1] = basis[:k] @ w
        values, vectors = np.linalg.eigh(projected[:k, :k])
        for _ in range(2):
            w -= (basis[:k] @ w) @ basis[:k]
        beta = math.sqrt(w @ w)
        residual = beta * max(abs(vectors[-1, 0]), abs(vectors[-1, -1]))
        converged = bool(residual < opts.residual_tol or k == len(dets))
        if converged or k == size:
            break
        basis[k] = w / beta
    return LanczosResult(e_min=float(values[0]), e_max=float(values[-1]),
                         iterations=k, converged=converged)


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


def _extremes(halves: Sequence[np.ndarray]) -> tuple[float, float, bool]:
    """The lowest and highest eigenvalue over the nonempty ``halves``."""
    values = [np.linalg.eigvalsh(m) for m in halves if len(m)]
    return (min(float(v[0]) for v in values),
            max(float(v[-1]) for v in values), True)


def _sector_rows(hamiltonian: MolecularHamiltonian,
                 shifts: Sequence[BlissParams], n_elec: int, method: str,
                 options: LanczosOptions | None
                 ) -> list[tuple[float, float, bool]]:
    """(e_min, e_max, converged) of H in one sector, then of each
    ``apply_bliss(H, p)``.

    In sector n the shift is the one-body term -(n - eta)(mu1 + xi.E), for
    eta = H's n_elec: its two-body part acts as n xi.E there.  So a
    shift's row at n = eta is H's, and elsewhere the shifted operator is H
    with e_const - (n - eta) mu1 and h - (n - eta) xi, and H's g.  A dense
    sector builds one plan and H's block, an odd one through
    ``sector_matrix`` (the exact build that bench/spans.py times), an even
    one as its spin-flip halves; each shift then adds its term's one-body
    pass (``_shifted_extremes``), so its row is what H's block plus that
    pass gives alone, whatever other shifts the sweep holds.  Without a
    shift to add, the plan is dropped before ``eigvalsh``.  A Lanczos
    sector runs once per Hamiltonian, a shift on H with the shifted
    e_const and h, sharing H's g."""
    # H is spin-free, so every level has a member with M_S = 0 or 1/2: the
    # block with ceil(n/2) spin-0 electrons holds the whole spectrum.
    n_orb, n_alpha = hamiltonian.n_orb, (n_elec + 1) // 2
    scale = hamiltonian.n_elec - n_elec  # -(n - eta)
    moved = shifts if scale else ()
    if method == "exact" or (sector_dimension(2 * n_orb, n_elec, n_alpha)
                             <= EXACT_FALLBACK_DIMENSION):
        plan = _plan(n_orb, n_elec, n_alpha, n_elec % 2 == 0)
        halves = (sector_matrix(hamiltonian, n_elec, n_alpha, plan)[:1]
                  if n_elec % 2 else _halves(hamiltonian, plan))
        if not moved:
            del plan  # eigvalsh gets the plan's room
            return [_extremes(halves)] * (1 + len(shifts))
        return [_extremes(halves), *(
            _shifted_extremes(halves, plan, scale * params.mu1,
                              scale * params.xi) for params in moved)]
    results = [truncated_lanczos(hamiltonian, n_elec, options)]
    results += [truncated_lanczos(_derive(
        hamiltonian, e_const=hamiltonian.e_const + scale * params.mu1,
        h=hamiltonian.h + scale * params.xi), n_elec, options)
        for params in moved]
    rows = [(r.e_min, r.e_max, r.converged) for r in results]
    return rows if moved else rows * (1 + len(shifts))


def spectral_ranges(hamiltonian: MolecularHamiltonian,
                    shifts: Sequence[BlissParams] = (),
                    sector: int | None = None, method: str = "exact",
                    options: LanczosOptions | None = None
                    ) -> tuple[RangeResult, ...]:
    """The ``spectral_range`` of H, then of ``apply_bliss(H, p)`` for each
    shift p, from one sweep over the sectors.  Each sector builds H's block
    once; a shift adds its one-body term -(n - eta)(mu1 + xi.E) to it, and
    its row at n = eta, H's n_elec, is H's (``_sector_rows``).

    Raises:
        ValueError: for an unknown method, for a shift of another size
            or with a non-finite value, when ``method="exact"`` is asked for more than
            ``EXACT_CAP_SPIN_ORBITALS`` spin-orbitals, or when a sector's
            block would need more than ``SPECTRAL_MEMORY_LIMIT_BYTES``; all
            before any sector is computed.
    """
    if method not in SPECTRAL_METHODS:
        raise ValueError(f"unknown method {method!r}; expected one of "
                         f"{SPECTRAL_METHODS}")
    n_orb, eta = hamiltonian.n_orb, hamiltonian.n_elec
    for params in shifts:
        if params.n_orb != n_orb:
            raise ValueError(
                f"dimension mismatch: Hamiltonian has {n_orb} orbitals, "
                f"shift has {params.n_orb}")
        if not (math.isfinite(params.mu1) and np.isfinite(params.xi).all()):
            raise ValueError("a shift has a non-finite value")
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
                      exact=method == "exact", halves=n % 2 == 0,
                      shifted=bool(shifts) and n != eta)
    table = [_sector_rows(hamiltonian, shifts, n, method, options)
             for n in sectors]
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
    return spectral_ranges(hamiltonian, (), sector, method, options)[0]


def deviation_metric(de: float, de_shifted: float,
                     de_ens: float) -> float | None:
    """Normalized position of a shifted range between the sector range
    (0.0) and the original full range (1.0); None when the original range
    does not exceed the sector range and the metric is undefined.  A shifted
    range at most 8 ulps of ``de`` below the sector range, rounding of the
    same range, reads 0.0; a larger shortfall stays negative."""
    denom = de - de_ens
    if denom <= 0.0:
        return None
    if de_ens - 8 * math.ulp(de) <= de_shifted < de_ens:
        return 0.0
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
                           shifts: Sequence[BlissParams] = (),
                           method: str = "exact",
                           options: LanczosOptions | None = None
                           ) -> tuple[SpectralReport, ...]:
    """The ranges of H (full Fock and its n_elec sector) and, after it, one
    report per shift completed with the full range of ``apply_bliss(H, p)``
    and its deviation; one sector sweep (``spectral_ranges``) computes them
    all, each shift from H's own sector blocks."""
    full, *others = spectral_ranges(hamiltonian, shifts, None, method,
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
                          shift: BlissParams | None = None,
                          method: str = "exact",
                          options: LanczosOptions | None = None) -> SpectralReport:
    """Assemble ranges of H (full Fock and its n_elec sector) and, when a
    shift is given, the full range of ``apply_bliss(H, shift)`` and its
    deviation."""
    return build_spectral_reports(
        hamiltonian, () if shift is None else (shift,), method,
        options)[-1]
