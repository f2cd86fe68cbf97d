"""Fermionic LCU decompositions and their symmetry shifts.

Double factorization writes the two-electron tensor as a sum of low-rank
fragments g = sum_a sign_a L_a (x) L_a with L_a = U_a^T diag(eps_a) U_a, so
each fragment is a rotated perfect square sign * U+ (sum_is eps_i n_is)^2 U.
The qubitization 1-norm of such a fragment is

    lambda_DF = (1/2) (sum_i |eps_i - phi|)^2

for an optional scalar shift phi; the unshifted fragment has phi = None.
Full-rank fragments carry a symmetric coefficient matrix lambda and cost

    lambda_CSA = sum_{i != j} |l_ij - (th_i + th_j)/2|
               + (1/2) sum_i |l_ii - th_i|.

Two fragment-shift strategies are provided: the analytic median shift that
preserves the perfect-square structure (:func:`lrps_shift`) and a small LP
over theta (a uniform shift of every l_ij is one of every th_i) that trades
the structure for a lower bound-free optimum (:func:`lrbs_shift`).  The LP
and :func:`lambda_csa` take the matrix lambda itself; a DF fragment enters
them as lambda = sign eps eps^T, in the frame of its rotation u.
:func:`build_fermionic_report` runs one family of shifts over given DF
fragments, so one factorization serves every family, and sums the
per-fragment symmetry shifts, from which :func:`global_bliss` assembles one
global parameter pair (mu1, xi).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .hamiltonian import BlissParams, MolecularHamiltonian, apply_bliss
from .l1min import L1Problem, SolverOptions, l1_minimize, weighted_median
from .pauli import pauli_terms
from .simplex import LpStatus

__all__ = [
    "DFFragment",
    "OneBodySpectrum",
    "LrpsCorrection",
    "FragmentNorm",
    "FermionicNormReport",
    "IterationLimitError",
    "double_factorize",
    "factorize_two_body_tensor",
    "reconstruct_two_body",
    "fragment_hamiltonian",
    "lambda_df",
    "lambda_csa",
    "canonical_median",
    "one_electron_shift",
    "lrps_shift",
    "lrps_one_body_correction",
    "lrbs_shift",
    "build_fermionic_report",
    "global_bliss",
    "assemble_global_bliss",
    "FERMIONIC_METHODS",
]

# Largest asymmetry of a two-body tensor under i <-> j or k <-> l, relative
# to max(1, its largest entry), that factorization accepts.
PAIR_SYMMETRY_RTOL = 1e-8


class IterationLimitError(RuntimeError):
    """An inner LP stopped on its pivot budget instead of at optimality."""


@dataclass(frozen=True)
class DFFragment:
    """One perfect-square fragment of a double factorization.

    Attributes:
        u: (N, N) orthogonal matrix; row i is the i-th eigenbasis vector.
        eps: fragment coefficients in the rotated basis.
        sign: +1 or -1, the sign of the source eigenvalue.
        phi: optional scalar shift; None for an unshifted fragment.
    """

    u: np.ndarray
    eps: np.ndarray
    sign: int
    phi: float | None = None

    def __post_init__(self) -> None:
        u = np.array(self.u, dtype=float)
        eps = np.array(self.eps, dtype=float)
        if u.ndim != 2 or u.shape[0] != u.shape[1]:
            raise ValueError(f"u must be square, got shape {u.shape}")
        if eps.shape != (u.shape[0],):
            raise ValueError("eps length must match the rotation dimension")
        if np.abs(u @ u.T - np.eye(u.shape[0])).max() > 1e-10:
            raise ValueError("u must be orthogonal")
        if self.sign not in (-1, 1):
            raise ValueError(f"sign must be +1 or -1, got {self.sign}")
        u.setflags(write=False)
        eps.setflags(write=False)
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "eps", eps)
        object.__setattr__(self, "sign", int(self.sign))
        if self.phi is not None:
            object.__setattr__(self, "phi", float(self.phi))

    @property
    def n_orb(self) -> int:
        return self.u.shape[0]

    def shifted_eps(self) -> np.ndarray:
        return self.eps - self.phi if self.phi is not None else self.eps

    def coefficient_matrix(self, shifted: bool = False) -> np.ndarray:
        """U^T diag(eps) U, optionally with the phi shift applied."""
        eps = self.shifted_eps() if shifted else self.eps
        return self.u.T @ np.diag(eps) @ self.u


@dataclass(frozen=True)
class OneBodySpectrum:
    """Eigen-decomposition of a one-body tensor with its median shift.

    ``gamma`` is ascending, ``v`` holds eigenvectors as rows (so the tensor
    is v.T @ diag(gamma) @ v), ``mu1`` is the canonical median of gamma and
    ``lambda_1e = sum_i |gamma_i - mu1|``.
    """

    gamma: np.ndarray
    v: np.ndarray
    mu1: float
    lambda_1e: float


@dataclass(frozen=True)
class LrpsCorrection:
    """Exact remainder of a median-shifted perfect-square fragment.

    The fragment identity reads

        H_frag = H_frag(phi) + S_1e - constant - K(mu1, xi)

    where ``one_body`` is the tensor of S_1e = sign * 2 phi n_elec * L(eps),
    ``constant`` = sign * phi^2 * n_elec^2, and (mu1, xi) parametrize the
    number-symmetry operator K with mu1 = sign * phi^2 * n_elec and
    xi = sign * phi * (phi I - 2 L(eps)).
    """

    one_body: np.ndarray
    constant: float
    mu1: float
    xi: np.ndarray


def factorize_two_body_tensor(g: np.ndarray, tol: float = 1e-8) -> list[DFFragment]:
    """Eigendecompose a two-body tensor into perfect-square fragments.

    Fragments are emitted in descending |eigenvalue| order; eigenvalues with
    magnitude at or below ``tol`` are dropped.

    Raises:
        ValueError: if g is not symmetric under i <-> j or k <-> l, so its
            eigenvectors need not reshape into symmetric matrices.
    """
    n = g.shape[0]
    asym = max(float(np.abs(g - g.transpose(p)).max(initial=0.0))
               for p in ((1, 0, 2, 3), (0, 1, 3, 2)))
    if asym > PAIR_SYMMETRY_RTOL * max(1.0, float(np.abs(g).max(initial=0.0))):
        raise ValueError(f"two-body tensor symmetry is broken: pair "
                         f"asymmetry {asym:.3g}")
    w, vecs = np.linalg.eigh(g.reshape(n * n, n * n))
    order = sorted(range(w.size), key=lambda idx: (-abs(w[idx]), idx))
    fragments: list[DFFragment] = []
    for idx in order:
        if abs(w[idx]) <= tol:
            continue
        mat = vecs[:, idx].reshape(n, n)
        # Rounding leaves a symmetric eigenvector slightly asymmetric.
        mat = 0.5 * (mat + mat.T)
        d, p = np.linalg.eigh(mat)
        fragments.append(DFFragment(
            u=p.T, eps=np.sqrt(abs(w[idx])) * d, sign=1 if w[idx] >= 0 else -1))
    return fragments


def double_factorize(hamiltonian: MolecularHamiltonian,
                     tol: float = 1e-8) -> list[DFFragment]:
    """Double-factorize the two-electron tensor of ``hamiltonian``."""
    return factorize_two_body_tensor(hamiltonian.g, tol)


def reconstruct_two_body(fragments: list[DFFragment], n_orb: int,
                         shifted: bool = False) -> np.ndarray:
    """Sum of sign * L (x) L over fragments; inverse of the factorization."""
    g = np.zeros((n_orb,) * 4)
    for frag in fragments:
        mat = frag.coefficient_matrix(shifted=shifted)
        g += frag.sign * np.multiply.outer(mat, mat)
    return g


def fragment_hamiltonian(fragment: DFFragment, n_elec: int = 0,
                         traceless: bool = False) -> MolecularHamiltonian:
    """Integral form of one fragment, for exact-spectrum checks.

    With ``traceless=False`` this is the raw square sign * U+ l(eps')^2 U
    (eps' includes phi when present).  With ``traceless=True`` the square is
    re-centered, sign * U+ (l(eps') - sum_i eps'_i)^2 U, the operator whose
    full Fock-space spectral range equals 2 * :func:`lambda_df`.
    """
    eps = fragment.shifted_eps()
    mat = fragment.u.T @ np.diag(eps) @ fragment.u
    g = fragment.sign * np.multiply.outer(mat, mat)
    n = fragment.n_orb
    if traceless:
        center = float(eps.sum())
        h = -2.0 * center * fragment.sign * mat
        e_const = fragment.sign * center ** 2
    else:
        h = np.zeros((n, n))
        e_const = 0.0
    return MolecularHamiltonian(n_orb=n, e_const=e_const, h=h, g=g,
                                n_elec=n_elec)


def lambda_df(fragment: DFFragment) -> float:
    """Qubitization 1-norm (1/2)(sum_i |eps_i - phi|)^2 of one fragment."""
    return 0.5 * float(np.abs(fragment.shifted_eps()).sum()) ** 2


def _square_matrix(lam: np.ndarray) -> np.ndarray:
    lam = np.asarray(lam, dtype=float)
    if lam.ndim != 2 or lam.shape[0] != lam.shape[1]:
        raise ValueError(f"lam must be a square matrix, got shape {lam.shape}")
    return lam


def lambda_csa(lam: np.ndarray, theta: np.ndarray | None = None) -> float:
    """Reflection-LCU 1-norm of the full-rank fragment with coefficient
    matrix ``lam``, shifted by ``theta`` if one is given.

    Raises:
        ValueError: if ``lam`` is not square, or ``theta`` is not of shape
            (n,) for an n x n ``lam``.
    """
    lam = _square_matrix(lam)
    if theta is not None:
        theta = np.asarray(theta, dtype=float)
        if theta.shape != lam.shape[:1]:
            raise ValueError(f"theta must have shape {lam.shape[:1]}, "
                             f"got {theta.shape}")
        lam = lam - 0.5 * (theta[:, None] + theta[None, :])
    off = float(np.abs(lam).sum()) - float(np.abs(np.diag(lam)).sum())
    return off + 0.5 * float(np.abs(np.diag(lam)).sum())


def canonical_median(values: np.ndarray) -> float:
    """Median that is always an attained element: the lower of the two
    middle values for even counts, the middle value otherwise.  It is
    :func:`blisslp.l1min.weighted_median` with unit weights."""
    values = np.asarray(values, dtype=float)
    return weighted_median(values, np.ones_like(values))


def one_electron_shift(h_eff: np.ndarray) -> OneBodySpectrum:
    """Diagonalize a one-body tensor and apply the optimal scalar shift.

    The 1-norm sum_i |gamma_i - mu1| is minimized over mu1 exactly by any
    median of the eigenvalues; the canonical attained median is used.
    """
    h_eff = np.asarray(h_eff, dtype=float)
    gamma, vecs = np.linalg.eigh(h_eff)
    mu1 = canonical_median(gamma)
    return OneBodySpectrum(gamma=gamma, v=vecs.T, mu1=mu1,
                           lambda_1e=float(np.abs(gamma - mu1).sum()))


def lrps_shift(fragment: DFFragment) -> DFFragment:
    """Attach the optimal square-preserving shift phi = median(eps).

    The median minimizes (1/2)(sum_i |eps_i - phi|)^2 and, being attained,
    zeroes at least one shifted coefficient.

    Raises:
        ValueError: if the fragment is already shifted.
    """
    if fragment.phi is not None:
        raise ValueError("fragment already carries a shift")
    return replace(fragment, phi=canonical_median(fragment.eps))


def lrps_one_body_correction(fragment: DFFragment,
                             n_elec: int) -> LrpsCorrection:
    """Exact one-body, scalar and symmetry-shift remainders of a phi shift.

    Raises:
        ValueError: if the fragment has no phi.
    """
    if fragment.phi is None:
        raise ValueError("fragment has no shift; run lrps_shift first")
    mat = fragment.coefficient_matrix(shifted=False)
    phi, sign = fragment.phi, fragment.sign
    return LrpsCorrection(
        one_body=sign * 2.0 * phi * n_elec * mat,
        constant=sign * phi ** 2 * n_elec ** 2,
        mu1=sign * phi ** 2 * n_elec,
        xi=sign * phi * (phi * np.eye(mat.shape[0]) - 2.0 * mat))


def lrbs_shift(lam: np.ndarray,
               options: SolverOptions | None = None) -> np.ndarray:
    """The theta minimizing ``lambda_csa(lam, theta)``, by linear
    programming.  ``lam`` is mirrored from its upper triangle.

    Raises:
        ValueError: if ``lam`` is not square, or not symmetric to 1e-12
            relative to max(1, max |lam_ij|).
        IterationLimitError: if the LP exhausts its pivot budget.
    """
    lam = _square_matrix(lam)
    if float(np.abs(lam - lam.T).max(initial=0.0)) > 1e-12 * max(
            1.0, float(np.abs(lam).max(initial=0.0))):
        raise ValueError("lam must be symmetric")
    eye = np.eye(lam.shape[0])
    i, j = np.triu_indices(lam.shape[0])
    # Row (i, j), i <= j, is the residual lam_ij - (theta_i + theta_j) / 2;
    # off the diagonal it stands for (i, j) and (j, i), so it weighs 2.
    solution = l1_minimize(L1Problem(0.5 * (eye[i] + eye[j]), lam[i, j],
                                     np.where(i == j, 0.5, 2.0)), options)
    if solution.status is LpStatus.ITERATION_LIMIT:
        raise IterationLimitError(
            f"fragment shift LP stopped after {solution.iterations} pivots")
    return solution.x


@dataclass(frozen=True)
class FragmentNorm:
    """Per-fragment entry of a fermionic norm report."""

    index: int
    one_norm: float
    kind: str
    phi: float | None = None
    theta_max_abs: float | None = None


@dataclass(frozen=True)
class FermionicNormReport:
    """1-norm accounting of a fermionic LCU.

    ``lambda_total = lambda_one_body + lambda_fragments``.  For methods
    built from perfect squares, ``fragment_bound_sum`` equals the sum of
    per-fragment spectral lower bounds dE/2, which coincide with lambda_df;
    it is None when fragments are full rank.  ``fragment_shift`` is
    K(mu1, xi) summed over the fragment shifts; see :func:`global_bliss`.
    """

    method: str
    lambda_total: float
    lambda_one_body: float
    lambda_fragments: float
    mu1: float
    gamma: np.ndarray
    fragments: tuple[FragmentNorm, ...]
    fragment_bound_sum: float | None
    fragment_shift: BlissParams
    metadata: tuple[tuple[str, str], ...] = ()


def _reflection_correction(fragment: DFFragment, shifted: bool) -> np.ndarray:
    """Tensor of 2 tr(L) sign L, the one-body remainder of writing one
    occupation-number square over reflections."""
    mat = fragment.coefficient_matrix(shifted=shifted)
    return 2.0 * fragment.sign * np.trace(mat) * mat


# A step maps (index, DF fragment, n_elec, LP options) to the fragment's norm
# row, its one-body remainder (shift term plus reflection correction) and
# the (mu1, xi) of the number-symmetry operator K that H - K subtracts.
def _df_step(index, fragment, n_elec, lp_options):
    return (FragmentNorm(index, lambda_df(fragment), "df"),
            _reflection_correction(fragment, False), (0.0, 0.0))


def _lrps_step(index, fragment, n_elec, lp_options):
    # H_frag = H_frag(phi) + S_1e - const - K_frag has -K_frag on the side
    # of H, so H - K takes the negated correction.
    shifted = lrps_shift(fragment)
    corr = lrps_one_body_correction(shifted, n_elec)
    return (FragmentNorm(index, lambda_df(shifted), "df", phi=shifted.phi),
            corr.one_body + _reflection_correction(shifted, True),
            (-corr.mu1, -corr.xi))


def _lrbs_step(index, fragment, n_elec, lp_options):
    # The LP shift subtracts K_frag directly.  A phi shift has no
    # counterpart in the full-rank form lam = sign eps eps^T.
    if fragment.phi is not None:
        raise ValueError("fragment already carries a shift")
    u, lam = fragment.u, fragment.sign * np.outer(fragment.eps, fragment.eps)
    theta = lrbs_shift(lam, lp_options)
    shifted = lam - 0.5 * (theta[:, None] + theta[None, :])
    reflection = u.T @ np.diag(2.0 * shifted.sum(axis=1)) @ u
    row = FragmentNorm(index, lambda_csa(lam, theta), "csa",
                       theta_max_abs=float(np.abs(theta).max(initial=0.0)))
    xi = u.T @ np.diag(theta) @ u
    return row, n_elec * xi + reflection, (0.0, xi)


# method -> (step, median mu1, perfect squares).  A shifted family centres
# the one-body eigenvalues on their median mu1; perfect squares have
# lambda_df as spectral bounds.
_FAMILIES = {"df": (_df_step, False, True),
             "df-lrps": (_lrps_step, True, True),
             "df-lrbs": (_lrbs_step, True, False)}
FERMIONIC_METHODS = tuple(_FAMILIES)
_FLAVORS = {"flr": "df-lrps", "ffr": "df-lrbs"}


def build_fermionic_report(hamiltonian: MolecularHamiltonian, method: str,
                           fragments: list[DFFragment] | None = None,
                           lp_options: SolverOptions | None = None
                           ) -> FermionicNormReport:
    """Compute the fermionic LCU 1-norm for one of ``FERMIONIC_METHODS``.

    "df" is the unshifted baseline: fragments cost lambda_df(eps) and the
    one-body part, with the reflection corrections folded in, costs
    sum_i |gamma_i| so that the total upper-bounds half the spectral range
    of the input Hamiltonian.  "df-lrps" applies the median shift to every
    fragment and the scalar median shift to the corrected one-body part;
    "df-lrbs" does the same with the LP fragment shift.  ``fragments``
    defaults to :func:`double_factorize` of ``hamiltonian`` at its default
    tolerance.
    """
    if method not in _FAMILIES:
        raise ValueError(f"unknown method {method!r}; expected one of "
                         f"{FERMIONIC_METHODS}")
    step, median_mu1, perfect_squares = _FAMILIES[method]
    if fragments is None:
        fragments = double_factorize(hamiltonian)
    rows, shift_mu1 = [], 0.0
    one_body, xi = np.zeros_like(hamiltonian.h), np.zeros_like(hamiltonian.h)
    for index, fragment in enumerate(fragments):
        row, frag_one_body, (frag_mu1, frag_xi) = step(
            index, fragment, hamiltonian.n_elec, lp_options)
        rows.append(row)
        one_body += frag_one_body
        shift_mu1 += frag_mu1
        xi += frag_xi

    gamma = np.linalg.eigh(hamiltonian.h + one_body)[0]
    gamma.setflags(write=False)
    mu1 = canonical_median(gamma) if median_mu1 else 0.0
    lambda_1e = float(np.abs(gamma - mu1).sum())
    lambda_frag = float(sum(row.one_norm for row in rows))
    return FermionicNormReport(
        method=method,
        lambda_total=lambda_1e + lambda_frag,
        lambda_one_body=lambda_1e,
        lambda_fragments=lambda_frag,
        mu1=mu1,
        gamma=gamma,
        fragments=tuple(rows),
        fragment_bound_sum=lambda_frag if perfect_squares else None,
        fragment_shift=BlissParams(shift_mu1, 0.5 * (xi + xi.T)),
        metadata=(("one_body_convention",
                   "reflection corrections folded before diagonalization"),))


def global_bliss(hamiltonian: MolecularHamiltonian,
                 report: FermionicNormReport) -> BlissParams:
    """The global parameter pair of a family report on ``hamiltonian``:
    the xi of its ``fragment_shift`` with mu1 the canonical median of the
    eigenvalues of the Pauli effective one-body term h_ij + 2 sum_k g_ijkk
    of H shifted by (0, xi) alone, since xi moves the one-body eigenvalues
    whose spread mu1 centres (a mu1 only translates them)."""
    xi = report.fragment_shift.xi
    without_mu1 = apply_bliss(hamiltonian, BlissParams(0.0, xi))
    mu1 = canonical_median(np.linalg.eigvalsh(pauli_terms(without_mu1)[0]))
    return BlissParams(mu1, xi)


def assemble_global_bliss(hamiltonian: MolecularHamiltonian, flavor: str,
                          fragments: list[DFFragment] | None = None,
                          lp_options: SolverOptions | None = None
                          ) -> BlissParams:
    """Aggregate per-fragment shifts into one global parameter pair, the
    :func:`global_bliss` of the report of its family.

    ``flavor="flr"`` sums the square-preserving median shifts of "df-lrps",
    so H - K keeps every fragment a perfect square; ``flavor="ffr"`` sums
    the LP fragment shifts of "df-lrbs".
    """
    if flavor not in _FLAVORS:
        raise ValueError(f"unknown flavor {flavor!r}; expected one of "
                         f"{tuple(_FLAVORS)}")
    return global_bliss(hamiltonian, build_fermionic_report(
        hamiltonian, _FLAVORS[flavor], fragments, lp_options))
