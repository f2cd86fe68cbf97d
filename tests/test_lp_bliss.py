"""Tests for the global shift-parameter linear program."""

import hashlib
import importlib
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from blisslp import (
    BlissParams,
    LpBlissIterationLimit,
    LpBlissVarMap,
    LpResult,
    ScipyLinprogSolver,
    SolverOptions,
    apply_bliss,
    build_lp_bliss_problem,
    dump_problem,
    evaluate_objective,
    l1_minimize,
    lp_bliss,
    merge_duplicate_rows,
    params_from_solution,
    pauli_one_norm,
    solve_lp,
)
from blisslp.pauli import pauli_terms


def seeded_hamiltonian(kind, n_orb, n_elec, seed=0):
    rng = np.random.default_rng(seed)
    if kind == "decay":
        return replace(oracles.decay_hamiltonian(rng, n_orb), n_elec=n_elec)
    return oracles.random_hamiltonian(rng, n_orb, n_elec)


@st.composite
def small_hamiltonians(draw, min_orb=2, max_orb=3):
    """Seeded random or decay oracle Hamiltonians with any electron count."""
    n = draw(st.integers(min_orb, max_orb))
    n_elec = draw(st.integers(0, 2 * n))
    kind = draw(st.sampled_from(["random", "decay"]))
    return seeded_hamiltonian(kind, n, n_elec, draw(st.integers(0, 2 ** 32 - 1)))


def sample_params(vmap: LpBlissVarMap, rng) -> np.ndarray:
    return rng.normal(size=vmap.n_vars)


@pytest.mark.parametrize("n_orb", [1, 2, 3, 4])
def test_var_map_bijection(n_orb):
    vmap = LpBlissVarMap(n_orb)
    assert vmap.n_vars == 1 + n_orb * (n_orb + 1) // 2
    indices = {vmap.mu1_index}
    for i in range(n_orb):
        for j in range(i, n_orb):
            assert vmap.xi_index(i, j) == vmap.xi_index(j, i)
            indices.add(vmap.xi_index(i, j))
    assert indices == set(range(vmap.n_vars))
    assert len(vmap.var_names()) == vmap.n_vars
    with pytest.raises(ValueError):
        vmap.xi_index(0, n_orb)


@pytest.mark.parametrize("n_orb", [1, 2, 3])
def test_row_counts_before_merge(n_orb):
    rng = np.random.default_rng(30 + n_orb)
    H = oracles.random_hamiltonian(rng, n_orb, n_orb)
    problem, vmap = build_lp_bliss_problem(H)
    pairs = n_orb * (n_orb - 1) // 2
    assert problem.n_rows == n_orb ** 2 + n_orb ** 4 + pairs ** 2
    assert problem.n_vars == vmap.n_vars


def test_one_orbital_has_no_exchange_rows():
    rng = np.random.default_rng(31)
    H = oracles.random_hamiltonian(rng, 1, 1)
    problem, vmap = build_lp_bliss_problem(H)
    assert vmap.n_vars == 2
    assert problem.n_rows == 1 + 1 + 0


@pytest.mark.parametrize("seed", range(4))
def test_objective_at_zero_equals_pauli_norm(seed):
    rng = np.random.default_rng(800 + seed)
    n = int(rng.integers(1, 4))
    H = oracles.random_hamiltonian(rng, n, int(rng.integers(0, 2 * n + 1)))
    problem, vmap = build_lp_bliss_problem(H)
    assert evaluate_objective(problem, np.zeros(vmap.n_vars)) == pytest.approx(
        pauli_one_norm(H).lambda_total, abs=1e-12)


@pytest.mark.parametrize("seed", range(6))
def test_objective_matches_cross_module_oracle(seed):
    """Objective at any x equals the Pauli norm of the shifted integrals."""
    rng = np.random.default_rng(900 + seed)
    n = int(rng.integers(1, 5))
    H = oracles.random_hamiltonian(rng, n, int(rng.integers(0, 2 * n + 1)))
    problem, vmap = build_lp_bliss_problem(H)
    for _ in range(5):
        x = sample_params(vmap, rng)
        want = pauli_one_norm(apply_bliss(H, params_from_solution(vmap, x)))
        assert evaluate_objective(problem, x) == pytest.approx(
            want.lambda_total, abs=1e-10)


def test_params_roundtrip_through_solution_vector():
    rng = np.random.default_rng(32)
    vmap = LpBlissVarMap(3)
    x = sample_params(vmap, rng)
    params = params_from_solution(vmap, x)
    assert params.mu1 == x[vmap.mu1_index]
    for i in range(3):
        for j in range(3):
            assert params.xi[i, j] == x[vmap.xi_index(i, j)]


@pytest.mark.parametrize("seed", range(4))
def test_monotone_improvement(seed):
    rng = np.random.default_rng(1000 + seed)
    n = int(rng.integers(2, 4))
    H = oracles.random_hamiltonian(rng, n, n)
    params, norm = lp_bliss(H)
    assert norm.lambda_total <= pauli_one_norm(H).lambda_total + 1e-8
    recomputed = pauli_one_norm(apply_bliss(H, params))
    assert norm.lambda_total == pytest.approx(
        recomputed.lambda_total, abs=1e-12)


def test_translation_invariance_of_optimum():
    rng = np.random.default_rng(33)
    H = oracles.random_hamiltonian(rng, 2, 2)
    K0 = oracles.random_bliss(rng, 2)
    _, norm_a = lp_bliss(H)
    _, norm_b = lp_bliss(apply_bliss(H, K0))
    assert norm_a.lambda_total == pytest.approx(norm_b.lambda_total, abs=1e-8)


def test_bliss_optimal_fixed_point():
    """Re-optimizing an already optimally shifted H changes nothing."""
    rng = np.random.default_rng(34)
    H = oracles.random_hamiltonian(rng, 2, 2)
    params, norm = lp_bliss(H)
    shifted = apply_bliss(H, params)
    _, norm2 = lp_bliss(shifted)
    assert norm2.lambda_total == pytest.approx(norm.lambda_total, abs=1e-8)
    assert norm2.lambda_total == pytest.approx(
        pauli_one_norm(shifted).lambda_total, abs=1e-8)


def test_beats_random_sampling():
    rng = np.random.default_rng(35)
    H = oracles.random_hamiltonian(rng, 2, 2)
    problem, vmap = build_lp_bliss_problem(H)
    _, norm = lp_bliss(H)
    best = min(evaluate_objective(problem, sample_params(vmap, rng))
               for _ in range(2000))
    assert norm.lambda_total <= best + 1e-8


def test_sector_invariance_of_optimal_shift():
    rng = np.random.default_rng(37)
    H = oracles.random_hamiltonian(rng, 2, 2)
    params, _ = lp_bliss(H)
    ev_a = oracles.sector_eigenvalues(oracles.fock_matrix(H), 4, 2)
    ev_b = oracles.sector_eigenvalues(
        oracles.fock_matrix(apply_bliss(H, params)), 4, 2)
    np.testing.assert_allclose(ev_a, ev_b, atol=1e-9)


def test_iteration_limit_carries_best_incumbent():
    rng = np.random.default_rng(38)
    H = oracles.random_hamiltonian(rng, 3, 3)
    with pytest.raises(LpBlissIterationLimit) as err:
        lp_bliss(H, SolverOptions(max_iters=2))
    assert err.value.params.n_orb == 3
    assert err.value.norm.lambda_total == pytest.approx(
        pauli_one_norm(apply_bliss(H, err.value.params)).lambda_total,
        abs=1e-12)
    assert isinstance(err.value.solution, LpResult)
    assert err.value.solution.iterations == 2


@pytest.mark.parametrize("n_orb, n_elec, seed, digest", [
    (2, 1, 41, "602c840b17a33f7c9645f3d87b985a321da49981a9dcb79a1665cbf4392b5325"),
    (3, 3, 42, "29adc4991bc359411805c81559e9aa00bc40e737b3b90774adc5fc227f243462"),
])
def test_merged_problem_dump_is_pinned(n_orb, n_elec, seed, digest):
    """Coefficients, row order and merged weights match the recorded LP."""
    H = oracles.random_hamiltonian(np.random.default_rng(seed), n_orb, n_elec)
    text = dump_problem(merge_duplicate_rows(build_lp_bliss_problem(H)[0]))
    assert hashlib.sha256(text.encode()).hexdigest() == digest


@pytest.mark.parametrize("n_orb", [2, 3, 4, 5])
def test_problem_has_full_column_rank(n_orb):
    """No shift direction leaves every term unchanged: each parameter
    vector is its own operator."""
    H = oracles.random_hamiltonian(np.random.default_rng(n_orb), n_orb, n_orb)
    problem, vmap = build_lp_bliss_problem(H)
    assert np.linalg.matrix_rank(problem.a) == vmap.n_vars


# lp_bliss's shifted Pauli norm, recorded with the reference simplex on the
# three-parameter problem: the minimum, unlike the shift, is unique.
PINNED_LP_BLISS = {
    ("random", 2): 10.149008323848417,
    ("random", 3): 35.401043355634215,
    ("random", 4): 81.92372342346826,
    ("random", 5): 191.66883855952275,
    ("random", 6): 350.7501137264009,
    ("random", 7): 685.6936947429145,
    ("random", 8): 1141.209959383721,
    ("random", 10): 2533.930131634144,
    ("random", 12): 5365.7520189393,
    ("random", 16): 16460.92033685936,
    ("random", 20): 40374.454654668065,
    ("decay", 6): 10.512217685209677,
    ("decay", 8): 18.80714560845214,
    ("decay", 20): 61.04524971577604,
}


@pytest.mark.parametrize("kind, n_orb", PINNED_LP_BLISS)
def test_optimum_is_pinned(kind, n_orb):
    """random_hamiltonian(default_rng(N), N, N) and decay_hamiltonian(
    default_rng(0), N)."""
    rng = np.random.default_rng(n_orb if kind == "random" else 0)
    H = (oracles.random_hamiltonian(rng, n_orb, n_orb) if kind == "random"
         else oracles.decay_hamiltonian(rng, n_orb))
    assert lp_bliss(H)[1].lambda_total == pytest.approx(
        PINNED_LP_BLISS[kind, n_orb], rel=1e-9)


@settings(max_examples=25, deadline=None)
@given(H=small_hamiltonians(), x_seed=st.integers(0, 2 ** 32 - 1))
def test_merge_keeps_objective_and_leaves_no_duplicates(H, x_seed):
    problem, vmap = build_lp_bliss_problem(H)
    merged = merge_duplicate_rows(problem)
    keys = np.column_stack([merged.a, merged.b]) + 0.0
    assert np.unique(keys, axis=0).shape[0] == merged.n_rows
    rng = np.random.default_rng(x_seed)
    for x in rng.normal(size=(5, vmap.n_vars)):
        assert evaluate_objective(merged, x) == pytest.approx(
            evaluate_objective(problem, x), rel=1e-12, abs=1e-12)


@settings(max_examples=30, deadline=None)
@given(H=small_hamiltonians(min_orb=1, max_orb=4))
@example(H=seeded_hamiltonian("random", 1, 2))
@example(H=seeded_hamiltonian("decay", 4, 4))
def test_optimum_bounded_by_zero_shift_and_equals_shifted_norm(H):
    """The whole merged LP, solved at once, bounds and equals lp_bliss's
    block solve.  N=1 has no off-diagonal xi; at n_elec = N the one-body
    coefficient n_elec - N of every off-diagonal xi vanishes."""
    problem, vmap = build_lp_bliss_problem(H)
    solution = l1_minimize(merge_duplicate_rows(problem))
    shifted = pauli_one_norm(
        apply_bliss(H, params_from_solution(vmap, solution.x)))
    assert solution.objective <= evaluate_objective(
        problem, np.zeros(vmap.n_vars)) + 1e-9
    assert solution.objective == pytest.approx(
        shifted.lambda_total, rel=1e-9, abs=1e-9)
    _, norm = lp_bliss(H)
    assert norm.lambda_total <= pauli_one_norm(H).lambda_total + 1e-9
    assert norm.lambda_total == pytest.approx(
        solution.objective, rel=1e-9, abs=1e-12)


def reference_a(H):
    """A one column at a time: column v holds the terms of the zero
    Hamiltonian shifted by the unit vector e_v."""
    vmap = LpBlissVarMap(H.n_orb)
    zero = replace(H, h=np.zeros_like(H.h), g=np.zeros_like(H.g))
    units = [BlissParams(1.0, np.zeros((H.n_orb, H.n_orb)))]
    for i in range(H.n_orb):
        for j in range(i, H.n_orb):
            xi = np.zeros((H.n_orb, H.n_orb))
            xi[i, j] = xi[j, i] = 1.0
            assert vmap.xi_index(i, j) == len(units)
            units.append(BlissParams(0.0, xi))
    return np.column_stack([
        np.concatenate([t.ravel() for t in pauli_terms(apply_bliss(zero, p))])
        for p in units])


@pytest.mark.parametrize("kind", ["random", "decay"])
@pytest.mark.parametrize("n_orb", range(1, 7))
@pytest.mark.parametrize("extra_elec", [-1, 0, 1])
def test_no_row_couples_two_blocks(kind, n_orb, extra_elec):
    """The split lp_bliss relies on, checked on A built one variable at a
    time: a row carries no variable, one off-diagonal xi_pq alone, or
    diagonal variables only.  The problem built from that split is the same
    A bit for bit."""
    H = seeded_hamiltonian(kind, n_orb, n_orb + extra_elec, seed=1400 + n_orb)
    a = reference_a(H)
    vmap = LpBlissVarMap(n_orb)
    diagonal = np.zeros(vmap.n_vars, dtype=bool)
    diagonal[vmap.mu1_index] = True
    diagonal[[vmap.xi_index(i, i) for i in range(n_orb)]] = True
    nonzero = a != 0.0
    off_count = nonzero[:, ~diagonal].sum(axis=1)
    assert off_count.max(initial=0) <= 1
    assert not np.any((off_count > 0) & nonzero[:, diagonal].any(axis=1))
    assert off_count.sum() > 0 or n_orb == 1
    assert build_lp_bliss_problem(H)[0].a.tobytes() == a.tobytes()


@pytest.mark.parametrize("n_orb", [1, 3, 6])
def test_lp_bliss_probes_n_plus_three_shifts(n_orb, monkeypatch):
    """N + 3 probes read A, and one more apply_bliss shifts H."""
    module = importlib.import_module("blisslp.lp_bliss")
    calls = []

    def counting(hamiltonian, params):
        calls.append(params)
        return apply_bliss(hamiltonian, params)

    monkeypatch.setattr(module, "apply_bliss", counting)
    H = seeded_hamiltonian("random", n_orb, n_orb, seed=n_orb)
    lp_bliss(H)
    assert len(calls) == n_orb + 4


def test_row_labels_that_mix_variables_fail_as_a_solver_fault(monkeypatch):
    """Were xi_ii read in the off-diagonal probe, rows would mix variables
    and the labels would not be integers: a RuntimeError, not the
    ValueError of bad input."""
    module = importlib.import_module("blisslp.lp_bliss")
    monkeypatch.setattr(module, "_off_diagonal",
                        lambda vmap: np.arange(vmap.n_vars) > 0)
    H = seeded_hamiltonian("random", 3, 3, seed=3)
    with pytest.raises(RuntimeError, match="more than one"):
        lp_bliss(H)


# lp_bliss's shift, (mu1, sha256 of xi's bytes), for seeded_hamiltonian(kind,
# N, n_elec, seed=2500 + N): a moved vertex fails here even where the
# optimum, pinned above, holds.
PINNED_SHIFTS = [
    ("decay", 4, 3, 1.040693233051672,
     "e27ccc611a1c0ba84eedc2ee9aebf7d06d5f58e295418464ab77520c51877cae"),
    ("decay", 4, 4, 1.2023377401340662,
     "55f8a58612348cd2d52dc86cbed8ade5074962446f65a3be096de2fa8c4afa76"),
    ("decay", 4, 5, 1.3909821418497834,
     "a12e3eb5975446d022aa595be7a941047d506b027420fa79c37730d8c00206cb"),
    ("decay", 7, 6, 1.7020716685597985,
     "370ed5ba79907080179153cf1246b673026dc041662f597d504f89282a8dbcd7"),
    ("decay", 7, 7, 1.8275050546829608,
     "0066423298d86235f3b1fd7b07b736a9f33192ce70cf7e94138a659613d1700c"),
    ("decay", 7, 8, 2.1784830348759807,
     "5357afd84ca4caab15c7d0961198cd34757fbfe239f9765090fdda2d42a597c2"),
    ("decay", 10, 9, 2.161099560062336,
     "e3c402751bb673afd3ac10b68aa668a4ff793c73d02450d697308e56dadb040d"),
    ("decay", 10, 10, 2.2834914215799955,
     "6ba106263d71bbc99ac293457e20a8f167b1bfb06593dfbdcaca85e30aa4a96f"),
    ("decay", 10, 11, 2.420370687138413,
     "2003b74eb67132e73944b1655d5e3253185be61d0afbd4873ab74c88ee1b69ce"),
    ("random", 4, 3, -0.016916797214736677,
     "b2511be876bfda5339e0932fb1bf678ad5ccd331a3869a37edbf653f27661018"),
    ("random", 4, 4, -0.3311686258730284,
     "fa0294828c91e3b611dde0f60f3fd8c26b5ac47e3678a918919fdaf0a5d25172"),
    ("random", 4, 5, -0.08695200365249584,
     "e3f5cec9a140d230e12001eaafc7088289f12932c1e1f6bf96579d09e666d75d"),
    ("random", 7, 6, -1.5882416625061284,
     "df3985c362a4089aca03ffa620bdaef30cd08f335c9311ac8cae2a3c6735842f"),
    ("random", 7, 7, -0.6825209512297247,
     "e134da588750451ef8aa92b287231abb9e97935ce82418354cc9298513018483"),
    ("random", 7, 8, -0.6902638645023877,
     "69aa26de0f2f1bfefa994aaaaaadd180a5ebe070d409a31456e5b68c58d24250"),
    ("random", 10, 9, 1.1547473531886447,
     "56c58a08e08d352264ae4771b8d98012c8e4938c2b0ccbbaf527fa894d9c88eb"),
    ("random", 10, 10, 0.0,
     "c01d8a9c7a19d1d30b7d9f8bc7732dc150b28470411163e65fa36327c4b1a05b"),
    ("random", 10, 11, 0.0,
     "66d1e78c97f874172c6e9cc045dc2430fc5fdd9c132129258b71e8c5466ec6a1"),
]


@pytest.mark.parametrize("kind, n_orb, n_elec, mu1, xi_digest", PINNED_SHIFTS,
                         ids=[f"{k}-{n}-{e}" for k, n, e, *_ in PINNED_SHIFTS])
def test_shift_is_pinned(kind, n_orb, n_elec, mu1, xi_digest):
    params, _ = lp_bliss(seeded_hamiltonian(kind, n_orb, n_elec,
                                            seed=2500 + n_orb))
    assert params.mu1 == mu1
    assert hashlib.sha256(params.xi.tobytes()).hexdigest() == xi_digest


@pytest.mark.parametrize("n_orb, n_elec", [(7, 5), (8, 8)])
def test_block_solve_matches_highs_on_whole_problem(n_orb, n_elec):
    H = seeded_hamiltonian("random", n_orb, n_elec, seed=n_orb)
    problem, _ = build_lp_bliss_problem(H)
    highs = l1_minimize(merge_duplicate_rows(problem),
                        SolverOptions(solver=ScipyLinprogSolver()))
    _, norm = lp_bliss(H)
    assert norm.lambda_total == pytest.approx(highs.objective, rel=1e-9)


def test_solver_options_apply_to_diagonal_block():
    """One backend solve over the N + 1 diagonal variables, with the default
    budget 50 (n_vars + n_rows) of that block; an exhausted budget quotes
    the shifted norm."""
    H = oracles.random_hamiltonian(np.random.default_rng(38), 3, 3)
    seen = []

    class Recording:
        def solve(self, weights, a, b, max_iters):
            seen.append((a.shape, max_iters))
            return solve_lp(weights, a, b, max_iters)

    lp_bliss(H, SolverOptions(solver=Recording()))
    [((m, columns), budget)] = seen
    assert columns == 4
    assert budget == 50 * (4 + m)
    with pytest.raises(LpBlissIterationLimit) as err:
        lp_bliss(H, SolverOptions(max_iters=2))
    assert f"{err.value.norm.lambda_total:.12g}" in str(err.value)
