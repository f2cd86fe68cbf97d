"""Tests for the weighted L1 minimizer and its problem container."""

import numpy as np
import pytest

import oracles
from blisslp import (
    L1Problem,
    LpResult,
    LpStatus,
    ScipyLinprogSolver,
    SolverOptions,
    canonical_median,
    dump_problem,
    evaluate_objective,
    l1_minimize,
    merge_duplicate_rows,
    weighted_median,
)


def column_of_ones(b, weights=None) -> L1Problem:
    b = np.asarray(b, dtype=float)
    w = np.ones(b.size) if weights is None else np.asarray(weights, float)
    return L1Problem(np.ones((b.size, 1)), b, w)


def random_problem(rng, n_vars, n_rows, density=0.7) -> L1Problem:
    a = np.zeros((n_rows, n_vars))
    for row in a:
        support = rng.random(n_vars) < density
        if not support.any():
            support[rng.integers(n_vars)] = True
        for v in np.nonzero(support)[0]:
            row[v] = rng.normal()
    return L1Problem(a, rng.normal(size=n_rows),
                     rng.uniform(0.2, 2.0, size=n_rows))


def test_problem_validation():
    with pytest.raises(ValueError, match="equal length"):
        L1Problem(np.ones((1, 1)), np.zeros(2), np.ones(1))
    with pytest.raises(ValueError, match="2-d"):
        L1Problem(np.ones(1), np.zeros(1), np.ones(1))
    with pytest.raises(ValueError, match="positive"):
        L1Problem(np.ones((1, 1)), np.zeros(1), np.zeros(1))
    with pytest.raises(ValueError, match="var_names"):
        L1Problem(np.ones((1, 2)), np.zeros(1), np.ones(1), ("x",))


@pytest.mark.parametrize("a, b, weights", [
    ([[np.nan]], [0.0], [1.0]),
    ([[np.inf]], [0.0], [1.0]),
    ([[1.0]], [np.nan], [1.0]),
    ([[1.0]], [-np.inf], [1.0]),
    ([[1.0]], [0.0], [np.nan]),
    ([[1.0]], [0.0], [np.inf]),
])
def test_problem_rejects_non_finite(a, b, weights):
    with pytest.raises(ValueError, match="finite"):
        L1Problem(np.array(a), np.array(b), np.array(weights))


def test_identity_system_zero_residual():
    problem = L1Problem(np.eye(3), np.array([1.0, -2.0, 0.0]), np.ones(3))
    sol = l1_minimize(problem)
    assert isinstance(sol, LpResult)
    assert not sol.x.flags.writeable
    assert sol.status is LpStatus.OPTIMAL
    np.testing.assert_allclose(sol.x, [1.0, -2.0, 0.0], atol=1e-9)
    assert sol.objective == pytest.approx(0.0, abs=1e-9)


def test_median_example():
    """Unweighted column of ones picks the median, objective 9."""
    sol = l1_minimize(column_of_ones([1.0, 2.0, 10.0]))
    assert sol.status is LpStatus.OPTIMAL
    assert sol.x[0] == pytest.approx(2.0, abs=1e-9)
    assert sol.objective == pytest.approx(9.0, abs=1e-9)


def test_weighted_median_example():
    """Weights (3, 1) on b = (0, 1) pull the optimum to 0 with objective 1."""
    sol = l1_minimize(column_of_ones([0.0, 1.0], weights=[3.0, 1.0]))
    assert sol.x[0] == pytest.approx(0.0, abs=1e-9)
    assert sol.objective == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize("size", [1, 2, 5, 6])
def test_weighted_median_unit_weights_is_canonical_median(size):
    values = np.random.default_rng(size).normal(size=size)
    want = float(np.sort(values)[(size - 1) // 2])
    assert weighted_median(values, np.ones(size)) == want
    assert canonical_median(values) == want


def test_weighted_median_flat_interval_returns_lower_end():
    """Every x in [2, 5] is optimal for the first, every x in [0, 4] for the
    second; the lower end is returned."""
    assert weighted_median(np.array([5.0, 1.0, 2.0]),
                           np.array([2.0, 1.0, 1.0])) == 2.0
    assert weighted_median(np.array([4.0, 0.0]), np.array([0.5, 0.5])) == 0.0


def test_weighted_median_rejects_bad_input():
    with pytest.raises(ValueError, match="empty"):
        weighted_median(np.array([]), np.array([]))
    with pytest.raises(ValueError, match="shape"):
        weighted_median(np.ones(2), np.ones(3))
    for shape in ((2, 3), (1, 1), ()):
        with pytest.raises(ValueError, match="1-D"):
            weighted_median(np.ones(shape), np.ones(shape))
    values = np.array([1.0, 2.0, 3.0])
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="finite"):
            weighted_median(values, np.array([1.0, bad, 1.0]))
        with pytest.raises(ValueError, match="finite"):
            weighted_median(np.array([1.0, bad, 3.0]), np.ones(3))
    for weights in ([-1.0, -1.0, 5.0], [1.0, -0.5, 1.0], [0.0, 0.0, 0.0]):
        with pytest.raises(ValueError, match="non-negative with a positive"):
            weighted_median(values, np.array(weights))
    assert weighted_median(values, np.array([0.0, 0.0, 1.0])) == 3.0


@pytest.mark.parametrize("seed", range(20))
def test_weighted_median_is_lowest_brute_force_minimizer(seed):
    """Integer data make every objective exact: the median attains the
    minimum over the candidate points, and no smaller candidate does."""
    rng = np.random.default_rng(1300 + seed)
    size = int(rng.integers(1, 12))
    values = rng.integers(-5, 6, size=size).astype(float)
    weights = rng.integers(1, 5, size=size).astype(float)

    def objective(x):
        return float(weights @ np.abs(x - values))

    best = min(objective(c) for c in values)
    median = weighted_median(values, weights)
    assert objective(median) == best
    assert median == min(c for c in values if objective(c) == best)


@pytest.mark.parametrize("seed", range(5))
def test_zero_point_upper_bound(seed):
    rng = np.random.default_rng(600 + seed)
    problem = random_problem(rng, 4, 12)
    sol = l1_minimize(problem)
    assert sol.objective <= float(np.sum(problem.weights * np.abs(problem.b))) + 1e-8


def test_empty_problem():
    sol = l1_minimize(L1Problem(np.zeros((0, 2)), np.zeros(0), np.zeros(0)))
    assert sol.status is LpStatus.OPTIMAL
    assert sol.objective == 0.0


def test_variable_free_rows_fold_into_a_constant(monkeypatch):
    """Rows with no variable reach no solver and add w |b| to the objective.
    The default solve goes through ``l1min.solve_lp``, looked up at call
    time, where a benchmark span wraps it."""
    from blisslp import l1min

    shapes, solve_lp = [], l1min.solve_lp

    def recording(weights, a, b, max_iters):
        shapes.append(a.shape)
        return solve_lp(weights, a, b, max_iters)

    monkeypatch.setattr(l1min, "solve_lp", recording)
    a = np.array([[1.0], [0.0], [1.0], [0.0]])
    problem = L1Problem(a, np.array([1.0, 2.0, 3.0, -4.0]),
                        np.array([1.0, 0.5, 1.0, 2.0]))
    sol = l1_minimize(problem)
    assert shapes == [(2, 1)]
    assert sol.status is LpStatus.OPTIMAL
    assert sol.objective == pytest.approx(2.0 + 0.5 * 2.0 + 2.0 * 4.0, abs=1e-12)

    constant = L1Problem(np.zeros((2, 3)), np.array([1.5, -2.0]),
                         np.array([2.0, 0.25]))
    shapes.clear()
    sol = l1_minimize(constant)
    assert shapes == []
    assert sol.status is LpStatus.OPTIMAL
    np.testing.assert_array_equal(sol.x, np.zeros(3))
    assert sol.objective == 3.5


@pytest.mark.parametrize("seed", range(6))
def test_global_optimality_vs_sampling_and_polish(seed):
    """Solution beats 10^4 random points and coordinate-descent polish."""
    rng = np.random.default_rng(700 + seed)
    n_vars = int(rng.integers(2, 7))
    problem = random_problem(rng, n_vars, int(rng.integers(6, 41)))
    sol = l1_minimize(problem)
    assert sol.status is LpStatus.OPTIMAL

    samples = rng.normal(scale=2.0, size=(10_000, n_vars))
    sampled = min(evaluate_objective(problem, x) for x in samples)
    assert sol.objective <= sampled + 1e-8

    polished = oracles.coordinate_descent_polish(
        problem.rows, problem.b, problem.weights, sol.x)
    assert sol.objective <= oracles.l1_objective(
        problem.rows, problem.b, problem.weights, polished) + 1e-8


def test_objective_recomputation_invariant():
    rng = np.random.default_rng(22)
    problem = random_problem(rng, 3, 15)
    sol = l1_minimize(problem)
    assert sol.objective == pytest.approx(
        evaluate_objective(problem, sol.x), rel=1e-8)


def test_convexity_sanity():
    rng = np.random.default_rng(23)
    problem = random_problem(rng, 4, 20)
    sol = l1_minimize(problem)
    for _ in range(20):
        midpoint = 0.5 * sol.x + 0.5 * rng.normal(size=4)
        assert sol.objective <= evaluate_objective(problem, midpoint) + 1e-8


def test_bitwise_determinism():
    rng = np.random.default_rng(24)
    problem = random_problem(rng, 5, 25)
    first = l1_minimize(problem)
    second = l1_minimize(problem)
    np.testing.assert_array_equal(first.x, second.x)
    assert first.objective == second.objective


def test_iteration_limit_status():
    rng = np.random.default_rng(25)
    problem = random_problem(rng, 6, 40)
    sol = l1_minimize(problem, SolverOptions(max_iters=1))
    assert sol.status is LpStatus.ITERATION_LIMIT
    assert np.all(np.isfinite(sol.x))
    assert sol.objective == pytest.approx(
        evaluate_objective(problem, sol.x), rel=1e-8)


def test_scipy_backend_agrees():
    rng = np.random.default_rng(26)
    problem = random_problem(rng, 4, 18)
    ours = l1_minimize(problem)
    theirs = l1_minimize(problem, SolverOptions(solver=ScipyLinprogSolver()))
    assert ours.objective == pytest.approx(theirs.objective, abs=1e-7)


@pytest.mark.parametrize("code", [2, 3, 4])
def test_scipy_backend_numerical_difficulties_raise(monkeypatch, code):
    """HiGHS statuses 2 (infeasible), 3 (unbounded) and 4 (numerical
    difficulties) cannot be right answers to an L1 problem, and none may
    read as optimal or as an iteration limit."""
    import types

    import scipy.optimize

    def linprog(*args, **kwargs):
        return types.SimpleNamespace(status=code, message="linprog message",
                                     x=None, fun=None, nit=7)

    monkeypatch.setattr(scipy.optimize, "linprog", linprog)
    options = SolverOptions(solver=ScipyLinprogSolver())
    with pytest.raises(RuntimeError,
                       match=f"status {code}: linprog message"):
        l1_minimize(column_of_ones([1.0, 2.0, 4.0]), options)


def test_merge_identical_rows_sums_weights():
    problem = L1Problem(np.ones((2, 1)), np.array([2.0, 2.0]),
                        np.array([0.5, 0.5]))
    merged = merge_duplicate_rows(problem)
    assert merged.n_rows == 1
    assert merged.weights[0] == pytest.approx(1.0)


def test_merge_no_duplicates_unchanged():
    rng = np.random.default_rng(27)
    problem = random_problem(rng, 3, 8)
    merged = merge_duplicate_rows(problem)
    assert merged.n_rows == problem.n_rows
    assert merged.rows == problem.rows


def test_merge_preserves_objective_everywhere():
    rng = np.random.default_rng(28)
    base = random_problem(rng, 4, 10)
    # Plant duplicates by repeating rows with split weights.
    a = np.vstack([base.a, base.a[:5]])
    b = np.concatenate([base.b, base.b[:5]])
    weights = np.concatenate([base.weights, rng.uniform(0.1, 1.0, size=5)])
    problem = L1Problem(a, b, weights)
    merged = merge_duplicate_rows(problem)
    assert merged.n_rows == base.n_rows
    for _ in range(100):
        x = rng.normal(size=4)
        assert evaluate_objective(problem, x) == pytest.approx(
            evaluate_objective(merged, x), abs=1e-12)


def test_merge_takes_any_memory_order():
    """A Fortran-ordered a, or a column selection, merges as its C-ordered
    copy does."""
    rng = np.random.default_rng(29)
    base = random_problem(rng, 4, 10)
    a = np.vstack([base.a, base.a[:5]])
    b = np.concatenate([base.b, base.b[:5]])
    weights = rng.uniform(0.1, 1.0, size=15)
    keep = [0, 2, 3]
    for a_c, a_other in ((a, np.asfortranarray(a)),
                         (np.ascontiguousarray(a[:, keep]), a[:, keep])):
        want = merge_duplicate_rows(L1Problem(a_c, b, weights))
        got = merge_duplicate_rows(L1Problem(a_other, b, weights))
        assert want.n_rows == 10
        for name in ("a", "b", "weights"):
            np.testing.assert_array_equal(getattr(got, name),
                                          getattr(want, name))


def test_dump_problem_format():
    problem = L1Problem(np.array([[1.0, -2.0], [0.0, 0.5]]),
                        np.array([1.0, -3.0]), np.array([1.0, 0.5]),
                        var_names=("alpha", "beta"))
    text = dump_problem(problem)
    lines = text.splitlines()
    assert lines[0] == "l1problem 1"
    assert lines[1] == "vars 2"
    assert lines[2] == "rows 2"
    assert "name 0 alpha" in lines
    assert "name 1 beta" in lines
    assert any(ln.startswith("row 0 1 ") for ln in lines)
    assert "a 0 1 -2" in lines
    assert text.endswith("\n")


def test_dump_problem_is_lossless():
    rng = np.random.default_rng(29)
    problem = random_problem(rng, 3, 6)
    text = dump_problem(problem)
    for r, row in enumerate(problem.rows):
        for var, coef in row:
            assert f"a {r} {var} {coef:.17g}" in text
    for r, (b_i, w_i) in enumerate(zip(problem.b, problem.weights)):
        assert f"row {r} {w_i:.17g} {b_i:.17g}" in text
