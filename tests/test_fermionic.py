"""Tests for double factorization, fermionic norms and fragment shifts."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from blisslp import (
    BlissParams,
    DFFragment,
    FERMIONIC_METHODS,
    IterationLimitError,
    L1Problem,
    MolecularHamiltonian,
    ScipyLinprogSolver,
    SolverOptions,
    apply_bliss,
    assemble_global_bliss,
    build_fermionic_report,
    build_spectral_report,
    canonical_median,
    double_factorize,
    factorize_two_body_tensor,
    fragment_hamiltonian,
    l1_minimize,
    lambda_csa,
    lambda_df,
    lrbs_shift,
    lrps_one_body_correction,
    lrps_shift,
    merge_duplicate_rows,
    one_electron_shift,
    reconstruct_two_body,
)


def random_orthogonal(rng, n):
    return np.linalg.qr(rng.normal(size=(n, n)))[0]


def random_fragment(rng, n, sign=1, phi=None) -> DFFragment:
    return DFFragment(u=random_orthogonal(rng, n), eps=rng.normal(size=n),
                      sign=sign, phi=phi)


def full_rank_form(fragment: DFFragment) -> np.ndarray:
    """The matrix lam = sign eps eps^T that df-lrbs shifts."""
    return fragment.sign * np.outer(fragment.eps, fragment.eps)


def test_fragment_validation():
    rng = np.random.default_rng(40)
    with pytest.raises(ValueError, match="orthogonal"):
        DFFragment(u=np.array([[1.0, 0.0], [1.0, 1.0]]),
                   eps=np.zeros(2), sign=1)
    with pytest.raises(ValueError, match="sign"):
        DFFragment(u=np.eye(2), eps=np.zeros(2), sign=2)
    with pytest.raises(ValueError, match="length"):
        DFFragment(u=np.eye(2), eps=np.zeros(3), sign=1)
    frag = random_fragment(rng, 3)
    np.testing.assert_allclose(frag.u @ frag.u.T, np.eye(3), atol=1e-10)


def test_csa_fragment_validation():
    with pytest.raises(ValueError, match="symmetric"):
        lrbs_shift(np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(ValueError, match="square"):
        lrbs_shift(np.ones((2, 3)))
    assert lambda_csa(np.eye(2)) == lambda_csa(np.eye(2), np.zeros(2))


@pytest.mark.parametrize("lam, theta", [
    (np.ones((2, 3)), None),
    (np.ones(3), None),
    (np.eye(3), [1.0]),
    (np.eye(3), np.ones((3, 1))),
    (np.eye(3), np.ones(4)),
])
def test_lambda_csa_rejects_malformed_input(lam, theta):
    """A lam that is not square, or a theta that is not one shift per
    orbital, raises instead of broadcasting to a norm."""
    with pytest.raises(ValueError, match="square|theta must have shape"):
        lambda_csa(lam, theta)


def test_factorize_rank_one_tensor():
    rng = np.random.default_rng(41)
    w = rng.normal(size=(3, 3))
    w = 0.5 * (w + w.T)
    g = np.multiply.outer(w, w)
    fragments = factorize_two_body_tensor(g, tol=1e-10)
    assert len(fragments) == 1
    np.testing.assert_allclose(reconstruct_two_body(fragments, 3), g,
                               atol=1e-12)
    assert fragments[0].sign == 1


def test_factorize_zero_tensor():
    assert factorize_two_body_tensor(np.zeros((2, 2, 2, 2)), tol=0.0) == []


@pytest.mark.parametrize("n_orb, seed", [(2, 0), (3, 1), (4, 2), (5, 3)])
def test_factorize_reconstruction(n_orb, seed):
    rng = np.random.default_rng(1100 + seed)
    g = oracles.symmetrize8(rng.normal(size=(n_orb,) * 4))
    fragments = factorize_two_body_tensor(g, tol=0.0)
    assert len(fragments) <= n_orb ** 2
    np.testing.assert_allclose(reconstruct_two_body(fragments, n_orb), g,
                               atol=1e-10)


def test_factorize_orders_by_descending_weight():
    rng = np.random.default_rng(42)
    g = oracles.symmetrize8(rng.normal(size=(3, 3, 3, 3)))
    fragments = factorize_two_body_tensor(g, tol=0.0)
    weights = [np.abs(f.eps).max() ** 0 * np.sum(f.eps ** 2) for f in fragments]
    assert all(a >= b - 1e-12 for a, b in zip(weights, weights[1:]))


def test_factorize_matches_eigencomponents():
    """Each fragment reproduces its source eigenpair of the reshaped g."""
    rng = np.random.default_rng(43)
    n = 3
    tol = 1e-8
    g = oracles.symmetrize8(rng.normal(size=(n,) * 4))
    flat = g.reshape(n * n, n * n)
    w, vecs = np.linalg.eigh(flat)
    # The antisymmetric kernel is degenerate at zero; match only the
    # eigenpairs carrying weight, which this seed keeps well separated.
    order = [i for i in sorted(range(w.size), key=lambda i: (-abs(w[i]), i))
             if abs(w[i]) > tol]
    retained = np.sort(np.abs(w[order]))
    assert np.diff(retained).min() > 1e-8
    fragments = factorize_two_body_tensor(g, tol=tol)
    assert len(fragments) == len(order)
    for frag, idx in zip(fragments, order):
        mat = frag.coefficient_matrix()
        component = frag.sign * np.outer(mat.reshape(-1), mat.reshape(-1))
        want = w[idx] * np.outer(vecs[:, idx], vecs[:, idx])
        np.testing.assert_allclose(component, want, atol=1e-10)


def test_factorize_rejects_broken_symmetry():
    """An antisymmetric rank-1 kernel with real weight must be refused."""
    a = np.array([[0.0, 1.0], [-1.0, 0.0]])
    g = np.multiply.outer(a, a)
    with pytest.raises(ValueError, match="symmetry"):
        factorize_two_body_tensor(g, tol=0.0)


def test_factorize_accepts_symmetric_tensor_with_tiny_eigenvalue():
    """An exactly 8-fold-symmetric tensor whose smallest retained eigenvalue
    is near 1e-7: rounding makes that eigenvector slightly asymmetric, which
    says nothing about the tensor."""
    rng = np.random.default_rng(185)
    mats = []
    for _ in range(3):
        a = rng.normal(size=(4, 4))
        mats.append(a + a.T)
    g = oracles.symmetrize8(sum(c * np.multiply.outer(m, m)
                                for c, m in zip((1.0, -0.7, 6e-8), mats)))
    fragments = factorize_two_body_tensor(g)
    assert len(fragments) == 3
    np.testing.assert_allclose(reconstruct_two_body(fragments, 4), g,
                               atol=1e-10)


def test_factorize_truncation_threshold():
    rng = np.random.default_rng(44)
    g = oracles.symmetrize8(rng.normal(size=(2,) * 4))
    full = factorize_two_body_tensor(g, tol=0.0)
    weights = sorted((np.sum(f.eps ** 2) for f in full), reverse=True)
    cut = 0.5 * (weights[0] + weights[1])
    truncated = factorize_two_body_tensor(g, tol=cut)
    assert len(truncated) == 1


def test_double_factorize_uses_hamiltonian_tensor():
    rng = np.random.default_rng(45)
    H = oracles.random_hamiltonian(rng, 3, 3)
    a = factorize_two_body_tensor(H.g, tol=0.0)
    b = double_factorize(H, tol=0.0)
    assert len(a) == len(b)
    for fa, fb in zip(a, b):
        np.testing.assert_array_equal(fa.eps, fb.eps)


@pytest.mark.parametrize("eps, phi, want", [
    ((1.0, -1.0), None, 2.0),
    ((1.0, 2.0, 10.0), None, 84.5),
    ((1.0, 2.0, 10.0), 2.0, 40.5),
    ((0.0, 0.0), None, 0.0),
])
def test_lambda_df_values(eps, phi, want):
    frag = DFFragment(u=np.eye(len(eps)), eps=np.array(eps), sign=1, phi=phi)
    assert lambda_df(frag) == pytest.approx(want, abs=1e-12)


def test_lambda_df_grid_scan_minimum():
    """phi=2 is the global minimum of the shifted norm for eps=(1,2,10)."""
    eps = np.array([1.0, 2.0, 10.0])
    values = [0.5 * np.abs(eps - phi).sum() ** 2
              for phi in np.arange(-20.0, 20.0, 1e-3)]
    frag = lrps_shift(DFFragment(u=np.eye(3), eps=eps, sign=1))
    assert frag.phi == 2.0
    assert lambda_df(frag) <= min(values) + 1e-9


def test_lambda_csa_values():
    assert lambda_csa(np.eye(2)) == pytest.approx(1.0)
    lam = 0.7 * np.ones((3, 3))
    assert lambda_csa(lam, np.full(3, 0.7)) == pytest.approx(0.0, abs=1e-15)


def test_canonical_median():
    assert canonical_median(np.array([3.0, 1.0, 2.0])) == 2.0
    assert canonical_median(np.array([4.0, 1.0, 3.0, 2.0])) == 2.0
    assert canonical_median(np.array([5.0])) == 5.0
    with pytest.raises(ValueError):
        canonical_median(np.array([]))
    with pytest.raises(ValueError, match="1-D"):
        canonical_median(np.ones((2, 2)))


def test_one_electron_shift_example():
    spectrum = one_electron_shift(np.diag([1.0, 2.0, 10.0]))
    assert spectrum.mu1 == 2.0
    assert spectrum.lambda_1e == pytest.approx(9.0)
    np.testing.assert_allclose(spectrum.gamma, [1.0, 2.0, 10.0])


def test_one_electron_shift_constant_spectrum():
    spectrum = one_electron_shift(0.6 * np.eye(4))
    assert spectrum.mu1 == pytest.approx(0.6)
    assert spectrum.lambda_1e == pytest.approx(0.0, abs=1e-14)


def test_one_electron_shift_reconstruction():
    rng = np.random.default_rng(46)
    h = rng.normal(size=(4, 4))
    h = 0.5 * (h + h.T)
    spectrum = one_electron_shift(h)
    np.testing.assert_allclose(
        spectrum.v.T @ np.diag(spectrum.gamma) @ spectrum.v, h, atol=1e-12)
    assert np.all(np.diff(spectrum.gamma) >= 0)


@pytest.mark.parametrize("seed", range(5))
def test_median_shift_beats_random_shifts(seed):
    rng = np.random.default_rng(1200 + seed)
    h = rng.normal(size=(5, 5))
    spectrum = one_electron_shift(0.5 * (h + h.T))
    for t in rng.normal(scale=3.0, size=1000):
        assert spectrum.lambda_1e <= np.abs(spectrum.gamma - t).sum() + 1e-12


@pytest.mark.parametrize("eps, want_phi", [
    ((1.0, 2.0, 10.0), 2.0),
    ((5.0,), 5.0),
    ((3.0, 3.0), 3.0),
])
def test_lrps_shift_examples(eps, want_phi):
    frag = lrps_shift(DFFragment(u=np.eye(len(eps)), eps=np.array(eps), sign=1))
    assert frag.phi == want_phi
    assert frag.phi in frag.eps
    if len(eps) <= 2:
        assert lambda_df(frag) == pytest.approx(0.0, abs=1e-14)


def test_lrps_shift_rejects_shifted_fragment():
    frag = DFFragment(u=np.eye(2), eps=np.array([1.0, 2.0]), sign=1, phi=1.0)
    with pytest.raises(ValueError, match="shift"):
        lrps_shift(frag)


@pytest.mark.parametrize("seed", range(5))
def test_lrps_shift_beats_random_shifts(seed):
    rng = np.random.default_rng(1300 + seed)
    frag = lrps_shift(random_fragment(rng, 4))
    best = lambda_df(frag)
    base = frag.eps
    for phi in rng.normal(scale=2.0, size=1000):
        assert best <= 0.5 * np.abs(base - phi).sum() ** 2 + 1e-12


def test_lrps_correction_zero_phi():
    frag = DFFragment(u=np.eye(2), eps=np.array([1.0, -2.0]), sign=1, phi=0.0)
    corr = lrps_one_body_correction(frag, n_elec=2)
    assert corr.constant == 0.0
    assert corr.mu1 == 0.0
    assert np.all(corr.one_body == 0.0)
    assert np.all(corr.xi == 0.0)


def test_lrps_correction_requires_phi():
    rng = np.random.default_rng(47)
    with pytest.raises(ValueError, match="shift"):
        lrps_one_body_correction(random_fragment(rng, 2), n_elec=2)


@pytest.mark.parametrize("seed, sign", [(0, 1), (1, -1), (2, 1), (3, -1)])
def test_lrps_fragment_identity_on_fock_space(seed, sign):
    """H_frag = H_frag(phi) + S_1e - const - K as 16x16 matrices."""
    rng = np.random.default_rng(1400 + seed)
    n_elec = 2
    frag = random_fragment(rng, 2, sign=sign)
    shifted = lrps_shift(frag)
    corr = lrps_one_body_correction(shifted, n_elec)

    lhs = oracles.fock_matrix(fragment_hamiltonian(frag, n_elec))
    rhs = oracles.fock_matrix(fragment_hamiltonian(shifted, n_elec))
    f_ops = oracles.excitation_matrices(2)
    for i in range(2):
        for j in range(2):
            rhs += corr.one_body[i, j] * f_ops[i][j]
    rhs -= corr.constant * np.eye(16)
    rhs -= oracles.bliss_matrix(BlissParams(corr.mu1, corr.xi), n_elec)
    np.testing.assert_allclose(lhs, rhs, atol=1e-10)


def test_lrps_degenerate_fragment_vanishes():
    """eps=(a,a) shifts to the zero operator; the remainder is pure
    correction."""
    rng = np.random.default_rng(48)
    u = random_orthogonal(rng, 2)
    frag = lrps_shift(DFFragment(u=u, eps=np.array([1.5, 1.5]), sign=1))
    assert frag.phi == 1.5
    assert lambda_df(frag) == 0.0
    shifted_op = oracles.fock_matrix(fragment_hamiltonian(frag, 2))
    np.testing.assert_allclose(shifted_op, np.zeros((16, 16)), atol=1e-12)


def test_lrbs_shift_constant_matrix_is_exact():
    lam = 0.8 * np.ones((3, 3))
    assert lambda_csa(lam, lrbs_shift(lam)) == pytest.approx(0.0, abs=1e-9)


def test_lrbs_shift_diagonal_bound():
    d = np.array([1.0, -2.0, 3.0])
    best = lambda_csa(np.diag(d), lrbs_shift(np.diag(d)))
    assert best <= 0.5 * np.abs(d).sum() + 1e-9
    assert best <= lambda_csa(np.diag(d))


@pytest.mark.parametrize("seed", range(3))
def test_lrbs_shift_beats_sampling(seed):
    rng = np.random.default_rng(1500 + seed)
    lam = rng.normal(size=(3, 3))
    lam = 0.5 * (lam + lam.T)
    best = lambda_csa(lam, lrbs_shift(lam))
    assert best <= lambda_csa(lam) + 1e-9
    for _ in range(10_000):
        trial = float(rng.normal()) + rng.normal(size=3)
        assert best <= lambda_csa(lam, trial) + 1e-8


def test_lrbs_problem_matches_row_by_row_definition(monkeypatch):
    """Row (i, j) reads lam_ij - (theta_i + theta_j) / 2, weight 1/2 on
    the diagonal and 1 off it, in row-major (i, j) order; the problem solved
    is that one with its mirrored rows merged, and no theta direction leaves
    every row unchanged."""
    from blisslp import fermionic

    rng = np.random.default_rng(1510)
    seen = []

    def minimize(problem, options=None):
        seen.append(problem)
        return l1_minimize(problem, options)

    monkeypatch.setattr(fermionic, "l1_minimize", minimize)
    for n in range(2, 7):
        lam = rng.normal(size=(n, n))
        lam = 0.5 * (lam + lam.T)
        lrbs_shift(lam)
        a = np.zeros((n * n, n))
        b, weights = [], []
        for i in range(n):
            for j in range(n):
                a[i * n + j, i] += 0.5
                a[i * n + j, j] += 0.5
                b.append(lam[i, j])
                weights.append(0.5 if i == j else 1.0)
        want = merge_duplicate_rows(L1Problem(a, b, weights))
        problem = seen.pop()
        assert problem.a.tobytes() == want.a.tobytes()
        assert problem.b.tobytes() == want.b.tobytes()
        assert problem.weights.tobytes() == want.weights.tobytes()
        assert np.linalg.matrix_rank(problem.a) == n


def test_lrbs_shift_rejects_shifted_and_limits():
    """df-lrbs refuses a phi-shifted DF fragment, which has no full-rank
    form; a spent pivot budget raises."""
    H = oracles.decay_hamiltonian(np.random.default_rng(50), 3)
    shifted = [lrps_shift(f) for f in double_factorize(H)]
    with pytest.raises(ValueError, match="shift"):
        build_fermionic_report(H, "df-lrbs", shifted)
    rng = np.random.default_rng(49)
    lam = rng.normal(size=(4, 4))
    with pytest.raises(IterationLimitError):
        lrbs_shift(0.5 * (lam + lam.T), SolverOptions(max_iters=1))


# A few values, so drawn matrices repeat entries and merge rows.
CSA_VALUES = st.sampled_from([0.0, 0.5, -1.0, 1.5, -2.0, 0.1, -0.7, 3.0])


@st.composite
def csa_matrices(draw, max_n=5):
    """Symmetric matrices up to ``max_n`` x ``max_n`` at a scale 10^k, k in
    [-8, 2]; half of them rank one, sign eps eps^T, as df-lrbs shifts."""
    n = draw(st.integers(1, max_n))
    values = st.lists(CSA_VALUES, min_size=n, max_size=n)
    if draw(st.booleans()):
        eps = np.array(draw(values))
        lam = draw(st.sampled_from([-1.0, 1.0])) * np.outer(eps, eps)
    else:
        upper = np.triu(np.array(draw(st.lists(values, min_size=n,
                                               max_size=n))))
        lam = upper + np.triu(upper, 1).T
    return lam * 10.0 ** draw(st.integers(-8, 2))


@settings(max_examples=60, deadline=None)
@given(lam=csa_matrices())
def test_lrbs_shift_reaches_the_lp_minimum(lam):
    """lambda_csa at the returned theta is the objective l1_minimize reports
    on the merged problem it solved, and HiGHS finds no lower point."""
    from blisslp import fermionic

    solves = []

    def minimize(problem, options=None):
        solves.append((problem, l1_minimize(problem, options)))
        return solves[-1][1]

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(fermionic, "l1_minimize", minimize)
        theta = lrbs_shift(lam)
    [(problem, solution)] = solves
    np.testing.assert_array_equal(theta, solution.x)
    top = float(np.abs(lam).max(initial=0.0))
    norm = lambda_csa(lam, theta)
    assert norm == pytest.approx(solution.objective, rel=1e-12, abs=1e-14 * top)
    highs = l1_minimize(problem, SolverOptions(solver=ScipyLinprogSolver()))
    assert abs(norm - highs.objective) <= 1e-9 * max(top, highs.objective)


@pytest.mark.parametrize("seed, n, sign", [(0, 2, 1), (1, 2, -1), (2, 3, 1)])
def test_fragment_spectral_range_equals_twice_lambda_df(seed, n, sign):
    """The traceless square's Fock-space range is exactly 2 lambda_df."""
    rng = np.random.default_rng(1600 + seed)
    frag = random_fragment(rng, n, sign=sign)
    H_frag = fragment_hamiltonian(frag, traceless=True)
    evals = np.linalg.eigvalsh(oracles.fock_matrix(H_frag))
    assert evals[-1] - evals[0] == pytest.approx(2.0 * lambda_df(frag),
                                                 abs=1e-8)


def test_fragment_hamiltonian_raw_square():
    """Raw form is sign * (sum_i eps_i n_i)^2 in the rotated frame."""
    rng = np.random.default_rng(51)
    frag = random_fragment(rng, 2, sign=-1)
    got = oracles.fock_matrix(fragment_hamiltonian(frag, 0))
    f_ops = oracles.excitation_matrices(2)
    mat = frag.coefficient_matrix()
    ell = sum(mat[i, j] * f_ops[i][j] for i in range(2) for j in range(2))
    np.testing.assert_allclose(got, -ell @ ell, atol=1e-10)


def test_rotated_number_operator_identity():
    """xi = U^T diag(theta) U realizes the rotated-frame number shift."""
    rng = np.random.default_rng(52)
    n, n_elec = 2, 2
    u = random_orthogonal(rng, n)
    theta = rng.normal(size=n)
    f_ops = oracles.excitation_matrices(n)
    rotated = [sum(u[i, p] * u[i, q] * f_ops[p][q]
                   for p in range(n) for q in range(n)) for i in range(n)]
    num = oracles.number_matrix(2 * n)
    shifted = num - n_elec * np.eye(1 << (2 * n))
    lhs = sum(theta[i] * rotated[i] for i in range(n)) @ shifted
    xi = u.T @ np.diag(theta) @ u
    rhs = sum(xi[p, q] * f_ops[p][q] for p in range(n) for q in range(n)) @ shifted
    np.testing.assert_allclose(lhs, rhs, atol=1e-10)


def test_number_operators_rotation_invariant():
    """N and N^2 commute with any orbital rotation of the excitations."""
    rng = np.random.default_rng(53)
    n = 2
    u = random_orthogonal(rng, n)
    f_ops = oracles.excitation_matrices(n)
    rotated_total = sum(u[i, p] * u[i, q] * f_ops[p][q] for i in range(n)
                        for p in range(n) for q in range(n))
    num = oracles.number_matrix(2 * n)
    np.testing.assert_allclose(rotated_total, num, atol=1e-10)
    np.testing.assert_allclose(rotated_total @ rotated_total, num @ num,
                               atol=1e-10)


@pytest.mark.parametrize("method", FERMIONIC_METHODS)
def test_report_pure_one_body(method):
    """g = 0 leaves only the one-electron norm."""
    h = np.diag([1.0, 2.0, 10.0])
    H = MolecularHamiltonian(n_orb=3, e_const=0.0, h=h,
                             g=np.zeros((3,) * 4), n_elec=2)
    report = build_fermionic_report(H, method)
    assert report.fragments == ()
    assert report.lambda_fragments == 0.0
    assert report.lambda_total == report.lambda_one_body
    if method == "df":
        assert report.mu1 == 0.0
        assert report.lambda_total == pytest.approx(13.0)
    else:
        assert report.mu1 == pytest.approx(2.0)
        assert report.lambda_total == pytest.approx(9.0)


def test_report_method_validation():
    rng = np.random.default_rng(54)
    H = oracles.random_hamiltonian(rng, 2, 2)
    with pytest.raises(ValueError, match="method"):
        build_fermionic_report(H, "lp-bliss")


def test_report_accounting_fields():
    rng = np.random.default_rng(55)
    H = oracles.random_hamiltonian(rng, 3, 3)
    for method in FERMIONIC_METHODS:
        report = build_fermionic_report(H, method, double_factorize(H, 0.0))
        assert report.method == method
        assert report.lambda_total == pytest.approx(
            report.lambda_one_body + report.lambda_fragments, abs=1e-12)
        assert report.lambda_fragments == pytest.approx(
            sum(f.one_norm for f in report.fragments), abs=1e-12)
        if method == "df-lrbs":
            assert report.fragment_bound_sum is None
            assert all(f.kind == "csa" for f in report.fragments)
        else:
            assert report.fragment_bound_sum == pytest.approx(
                report.lambda_fragments)
            assert all(f.kind == "df" for f in report.fragments)
        if method == "df-lrps":
            assert all(f.phi is not None for f in report.fragments)
        assert dict(report.metadata)


def test_report_lrps_reduces_fragment_norms():
    rng = np.random.default_rng(56)
    H = oracles.random_hamiltonian(rng, 3, 3)
    fragments = double_factorize(H, 0.0)
    before = build_fermionic_report(H, "df", fragments)
    after = build_fermionic_report(H, "df-lrps", fragments)
    assert after.lambda_fragments <= before.lambda_fragments + 1e-12
    for f_after, f_before in zip(after.fragments, before.fragments):
        assert f_after.one_norm <= f_before.one_norm + 1e-12


@pytest.mark.parametrize("seed", range(3))
def test_report_df_upper_bounds_half_spectral_range(seed):
    rng = np.random.default_rng(1700 + seed)
    n = int(rng.integers(2, 4))
    H = oracles.random_hamiltonian(rng, n, n)
    report = build_fermionic_report(H, "df", double_factorize(H, 0.0))
    evals = np.linalg.eigvalsh(oracles.fock_matrix(H))
    assert report.lambda_total >= 0.5 * (evals[-1] - evals[0]) - 1e-10


def test_assemble_global_bliss_pure_one_body():
    h = np.diag([1.0, 2.0, 10.0])
    H = MolecularHamiltonian(n_orb=3, e_const=0.0, h=h,
                             g=np.zeros((3,) * 4), n_elec=2)
    for flavor in ("flr", "ffr"):
        params = assemble_global_bliss(H, flavor)
        assert params.mu1 == pytest.approx(2.0)
        np.testing.assert_array_equal(params.xi, np.zeros((3, 3)))


def test_assemble_flr_zeroes_scalar_square():
    """N=1, g = n^2: the median shift must cancel the two-body part."""
    H = MolecularHamiltonian(n_orb=1, e_const=0.0, h=np.zeros((1, 1)),
                             g=np.ones((1, 1, 1, 1)), n_elec=1)
    params = assemble_global_bliss(H, "flr")
    shifted = apply_bliss(H, params)
    np.testing.assert_allclose(shifted.g, np.zeros((1,) * 4), atol=1e-12)


@pytest.mark.parametrize("seed", range(6))
def test_assembled_shift_lowers_df_norm(seed):
    """Both flavours bring the DF norm of H - K down to near the per-fragment
    shift they are assembled from, and the shifted range below the original."""
    H = oracles.decay_hamiltonian(np.random.default_rng(seed), 4)
    before = build_fermionic_report(H, "df").lambda_total
    for flavor, fragments in (("flr", "df-lrps"), ("ffr", "df-lrbs")):
        params = assemble_global_bliss(H, flavor)
        after = build_fermionic_report(apply_bliss(H, params),
                                       "df").lambda_total
        assert after < before
        assert after < 1.25 * build_fermionic_report(H, fragments).lambda_total
        assert build_spectral_report(H, params).deviation < 1.0


def test_assemble_global_bliss_invalid_flavor():
    rng = np.random.default_rng(57)
    H = oracles.random_hamiltonian(rng, 2, 2)
    with pytest.raises(ValueError, match="flavor"):
        assemble_global_bliss(H, "lp")


@pytest.mark.parametrize("flavor", ["flr", "ffr"])
def test_assembled_shift_preserves_sector(flavor):
    rng = np.random.default_rng(58)
    H = oracles.random_hamiltonian(rng, 2, 2)
    params = assemble_global_bliss(H, flavor, double_factorize(H, 0.0))
    shifted = apply_bliss(H, params)
    ev_a = oracles.sector_eigenvalues(oracles.fock_matrix(H), 4, 2)
    ev_b = oracles.sector_eigenvalues(oracles.fock_matrix(shifted), 4, 2)
    np.testing.assert_allclose(ev_a, ev_b, atol=1e-9)


@pytest.mark.parametrize("flavor", ["flr", "ffr"])
def test_assembled_shift_fock_operator_identity(flavor):
    """apply_bliss with assembled parameters equals H - K as operators."""
    rng = np.random.default_rng(59)
    H = oracles.random_hamiltonian(rng, 2, 2)
    params = assemble_global_bliss(H, flavor, double_factorize(H, 0.0))
    lhs = oracles.fock_matrix(apply_bliss(H, params))
    rhs = oracles.fock_matrix(H) - oracles.bliss_matrix(params, H.n_elec)
    np.testing.assert_allclose(lhs, rhs, atol=1e-9)


def test_ffr_matches_per_fragment_shifts():
    """Global FFR parameters reproduce the per-fragment shifted tensors."""
    rng = np.random.default_rng(60)
    H = oracles.random_hamiltonian(rng, 2, 2)
    params = assemble_global_bliss(H, "ffr", double_factorize(H, 0.0))
    xi = sum(f.u.T @ np.diag(lrbs_shift(full_rank_form(f))) @ f.u
             for f in double_factorize(H, tol=0.0))
    np.testing.assert_allclose(params.xi, 0.5 * (xi + xi.T), atol=1e-12)


def test_lrps_report_sums_the_fragment_operators():
    """A df-lrps report's fragment_shift is the sum of the K(mu1, xi) that
    H - K subtracts, one negated median-shift correction per fragment."""
    H = oracles.decay_hamiltonian(np.random.default_rng(61), 4)
    fragments = double_factorize(H)
    shift = build_fermionic_report(H, "df-lrps", fragments).fragment_shift
    corrs = [lrps_one_body_correction(lrps_shift(f), H.n_elec)
             for f in fragments]
    assert shift.mu1 == pytest.approx(-sum(c.mu1 for c in corrs), abs=1e-12)
    np.testing.assert_allclose(shift.xi, -sum(c.xi for c in corrs),
                               atol=1e-12)


# lambda_csa of each df-lrbs fragment of decay_hamiltonian(default_rng(0), 8),
# recorded with the reference simplex when the LP also had a uniform shift
# variable: that variable is a uniform shift of theta, so the minima agree.
PINNED_LRBS_DECAY8 = (
    0.5248425690106673, 3.8433211188849032, 2.585592435963333,
    1.8832895488708874, 0.8182657580067205, 0.8884532721335937,
    0.8521498171310756, 0.43109790424386674, 0.37646576225370393,
    0.20191370508548434, 0.19995828596394874, 0.20173523420590858,
    0.12999689595542283, 0.10707676639829926, 0.0837984684043815,
    0.05774663788755262, 0.049725236034284366, 0.0367614901202876,
    0.026611101104098794, 0.020998945951286006, 0.015498748275362873,
    0.011274711915798659, 0.006658657591208797, 0.005125727664343882,
    0.002300785347590152, 0.002354707352991307, 0.0012782046195417432,
    0.0008267829159022259, 0.0005852519186759519, 0.0005109752521784304,
    0.0002664488262055327, 3.838453700694738e-05, 5.127758407327266e-05,
    1.3656665202812068e-05, 2.880322257829046e-06, 2.9282363173863598e-06)


# The same for decay_hamiltonian(default_rng(0), 12), recorded with the
# earlier two-phase simplex, except the last two (norms near 7e-8): there it
# stopped 2.6e-12 and 1.9e-12 above the minimum, so those pins are the
# minima that HiGHS reaches on the problem scaled to max |b| = 1.
PINNED_LRBS_DECAY12 = (
    0.7682462580696114, 7.078476764591375, 5.178186152017758,
    2.993831115748969, 3.1199467608482583, 3.349762994754581,
    1.1861563624767093, 1.299600627478963, 1.1508771928851649,
    0.7924767761615155, 0.7470198182585226, 0.6070275176201556,
    0.5813595592237748, 0.46282867756662427, 0.3777747193096217,
    0.40779966926402805, 0.2700980480648402, 0.32931333183828226,
    0.22190486546884758, 0.1358715579211548, 0.11605906353067161,
    0.09359509376326224, 0.12246882311589194, 0.10626356463746155,
    0.08392945212703495, 0.07246872619462637, 0.04296651660857787,
    0.037080085394320866, 0.03469842942467601, 0.03091561346171607,
    0.028577389632233937, 0.01946488335985242, 0.019886554912337935,
    0.01644221310263243, 0.012535643472334414, 0.006802531849916331,
    0.0076298485725248355, 0.005428425965018687, 0.005196624444149478,
    0.0041187761947657515, 0.003376194411560459, 0.0033042837775479395,
    0.003219023915693845, 0.002127375317342233, 0.001529466845545271,
    0.0014862312877854489, 0.0011500146426112765, 0.0008983302179119182,
    0.0005910115282494031, 0.0003945265863798638, 0.0004244416078074642,
    0.0003152624858377452, 0.00018460352622857174, 0.00019598781360865945,
    0.00010199885962469968, 8.104274445740443e-05, 7.722383157886622e-05,
    5.509338881623844e-05, 4.951850406541413e-05, 3.6906911620972316e-05,
    2.397663140216785e-05, 2.9560126594813413e-05, 1.5315011607264003e-05,
    1.6009623744135937e-05, 8.102894276523999e-06, 3.25386566235314e-06,
    1.2147862644737482e-06, 1.1372692523105468e-06, 1.0614489025241546e-06,
    4.0458017461362347e-07, 2.32144181625085e-07, 1.9080653747973062e-07,
    7.480773702078816e-08, 6.434405774450538e-08)


def assert_lrbs_norms_pinned(n_orb, pins):
    H = oracles.decay_hamiltonian(np.random.default_rng(0), n_orb)
    rows = build_fermionic_report(H, "df-lrbs").fragments
    assert len(rows) == len(pins)
    for row, pinned in zip(rows, pins):
        assert row.one_norm == pytest.approx(
            pinned, rel=1e-9, abs=1e-12 if pinned < 1e-3 else 0.0)


def test_lrbs_fragment_norms_are_pinned():
    assert_lrbs_norms_pinned(8, PINNED_LRBS_DECAY8)


def test_lrbs_fragment_norms_are_pinned_decay12():
    assert_lrbs_norms_pinned(12, PINNED_LRBS_DECAY12)


@pytest.mark.parametrize("index", [71, 73])
def test_scipy_backend_reaches_pinned_small_fragment_minima(index):
    """HiGHS solves for b scaled to max |b| = 1, so its default tolerances
    hold on fragments whose norms are near 1e-7."""
    H = oracles.decay_hamiltonian(np.random.default_rng(0), 12)
    lam = full_rank_form(double_factorize(H)[index])
    theta = lrbs_shift(lam, SolverOptions(solver=ScipyLinprogSolver()))
    assert lambda_csa(lam, theta) == pytest.approx(
        PINNED_LRBS_DECAY12[index], rel=1e-9, abs=1e-12)
