"""Tests for the condensed L1 simplex backend."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blisslp import (L1Problem, LpStatus, ScipyLinprogSolver,
                     evaluate_objective, solve_lp)

# Coefficients and offsets with exact zeros among them, so drawn problems
# have zero entries and rows that the point x0 fits exactly.
VALUES = st.sampled_from([0.0, 0.0, 0.5, -1.0, 1.5, -2.0, 0.1, -0.7, 3.0])


@st.composite
def l1_problems(draw, max_vars=6, max_rows=30):
    """Weighted L1 problems b = 10^k (a x0 + sparse noise), k in [-9, 6],
    with up to ``max_vars`` variables and ``max_rows`` rows: an optional
    all-zero column, and up to six rows repeated with their right-hand
    side."""
    n = draw(st.integers(1, max_vars))
    m = draw(st.integers(1, max_rows - 6))
    a = np.array(draw(st.lists(st.lists(VALUES, min_size=n, max_size=n),
                               min_size=m, max_size=m)))
    zero_column = draw(st.integers(-1, n - 1))
    if zero_column >= 0:
        a[:, zero_column] = 0.0
    x0 = np.array(draw(st.lists(VALUES, min_size=n, max_size=n)))
    noise = np.array(draw(st.lists(VALUES, min_size=m, max_size=m)))
    b = (a @ x0 + noise) * 10.0 ** draw(st.integers(-9, 6))
    repeat = draw(st.lists(st.integers(0, m - 1), max_size=6))
    a, b = np.vstack([a, a[repeat]]), np.concatenate([b, b[repeat]])
    weights = draw(st.lists(st.sampled_from([0.3, 0.5, 1.0, 2.0]),
                            min_size=b.size, max_size=b.size))
    return L1Problem(a, b, weights)


def solve(problem, max_iters=10_000):
    return solve_lp(problem.weights, problem.a, problem.b, max_iters)


@settings(max_examples=60, deadline=None)
@given(problem=l1_problems())
def test_objective_matches_highs(problem):
    """The minimum agrees with HiGHS to 1e-9 relative to max(max|b|, the
    minimum), as the minimum scales with b, and the objective is the one of
    the returned point.  Where x0 fits every row, the minimum is 0 and both
    solvers stop at rounding level, relative to sum w|b|."""
    ours = solve(problem)
    theirs = ScipyLinprogSolver().solve(problem.weights, problem.a,
                                        problem.b, 10_000)
    assert ours.status is LpStatus.OPTIMAL
    assert theirs.status is LpStatus.OPTIMAL
    total = float(problem.weights @ np.abs(problem.b))
    exact_fit = theirs.objective <= 1e-12 * total
    top = float(np.abs(problem.b).max())
    tol = 1e-12 * total if exact_fit else 1e-9 * max(top, theirs.objective)
    assert abs(ours.objective - theirs.objective) <= tol
    assert evaluate_objective(problem, ours.x) == ours.objective


@pytest.mark.parametrize("seed", range(5))
def test_matches_scipy_on_random_feasible_problems(seed):
    """Dense Gaussian problems, larger than the drawn ones: 8 variables and
    60 rows.  Every L1 problem is feasible."""
    rng = np.random.default_rng(500 + seed)
    problem = L1Problem(rng.normal(size=(60, 8)), rng.normal(size=60),
                        rng.uniform(0.2, 2.0, size=60))
    ours = solve(problem)
    theirs = ScipyLinprogSolver().solve(problem.weights, problem.a,
                                        problem.b, 10_000)
    assert ours.status is LpStatus.OPTIMAL
    assert ours.objective == pytest.approx(theirs.objective, rel=1e-9)


def test_simple_bounded_minimum():
    """|x - 1| + |y - 1| + |x + y - 2| vanishes only at (1, 1)."""
    problem = L1Problem(np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]),
                        np.array([1.0, 1.0, 2.0]), np.ones(3))
    res = solve(problem)
    assert res.status is LpStatus.OPTIMAL
    np.testing.assert_allclose(res.x, [1.0, 1.0], atol=1e-12)
    assert res.objective == pytest.approx(0.0, abs=1e-12)


def test_free_variables_negative_optimum():
    """Weights (1, 3) on b = (0, -3) pull x to the negative value -3."""
    res = solve(L1Problem(np.ones((2, 1)), np.array([0.0, -3.0]),
                          np.array([1.0, 3.0])))
    assert res.status is LpStatus.OPTIMAL
    assert res.x[0] == pytest.approx(-3.0, abs=1e-12)
    assert res.objective == pytest.approx(3.0, abs=1e-12)


def test_degenerate_problem_terminates():
    """Every row fits x = 0 exactly, some twice and some scaled, so every
    step from the start basis has length 0; the stored signs must keep the
    solve from stalling."""
    a = np.array([[1.0, 1.0], [2.0, 2.0], [1.0, 1.0], [1.0, 0.0],
                  [-1.0, 0.0], [0.0, -1.0], [1.0, -1.0]])
    res = solve(L1Problem(a, np.zeros(7), np.array(
        [1.0, 0.5, 1.0, 2.0, 2.0, 1.0, 0.3])), max_iters=1000)
    assert res.status is LpStatus.OPTIMAL
    assert res.objective == 0.0
    assert res.iterations < 1000


def test_iteration_limit_reported():
    """A spent budget stops at a basic point: finite, and never worse than
    the start x = 0."""
    rng = np.random.default_rng(20)
    problem = L1Problem(rng.normal(size=(12, 6)), rng.normal(size=12),
                        rng.uniform(0.5, 2.0, size=12))
    for budget in (1, 2, 3):
        res = solve(problem, max_iters=budget)
        assert res.status is LpStatus.ITERATION_LIMIT
        assert res.iterations == budget
        assert np.all(np.isfinite(res.x))
        assert res.objective == evaluate_objective(problem, res.x)
        assert res.objective <= float(problem.weights @ np.abs(problem.b))
    assert solve(problem).iterations > 3


@pytest.mark.parametrize("scale", [1e-9, 1.0, 1e6])
def test_minimizer_scales_with_the_data(scale):
    """min w|a x - s b| is s times min w|a x - b|, at s times the point."""
    rng = np.random.default_rng(21)
    problem = L1Problem(rng.normal(size=(15, 3)), rng.normal(size=15),
                        rng.uniform(0.5, 2.0, size=15))
    base = solve(problem)
    scaled = solve(L1Problem(problem.a, scale * problem.b, problem.weights))
    assert scaled.objective == pytest.approx(scale * base.objective,
                                             rel=1e-12)
    np.testing.assert_allclose(scaled.x, scale * base.x, rtol=1e-12)


@pytest.mark.parametrize("scale", [1e-12, 1e-9, 1e6])
def test_stop_test_is_free_of_the_weights_scale(scale):
    """min sum s w_i |(a x - b)_i| is s times min sum w_i |(a x - b)_i|, at
    the same point: tiny weights must not end the solve early."""
    rng = np.random.default_rng(0)
    a, b = rng.normal(size=(40, 4)), rng.normal(size=40)
    weights = rng.uniform(0.5, 2.0, size=40)
    base = solve_lp(weights, a, b, 10_000)
    scaled = solve_lp(scale * weights, a, b, 10_000)
    assert scaled.status is LpStatus.OPTIMAL
    assert scaled.iterations == base.iterations
    assert scaled.objective / scale == pytest.approx(base.objective,
                                                     rel=1e-12)
    np.testing.assert_allclose(scaled.x, base.x, rtol=1e-12, atol=1e-15)


def test_bitwise_determinism():
    rng = np.random.default_rng(22)
    problem = L1Problem(rng.normal(size=(20, 4)), rng.normal(size=20),
                        rng.uniform(0.5, 2.0, size=20))
    first, second = solve(problem), solve(problem)
    np.testing.assert_array_equal(first.x, second.x)
    assert first.objective == second.objective
    assert first.iterations == second.iterations


def test_working_memory_is_the_problem_matrix():
    """The condensed tableau is m x n: on 1500 rows and 8 variables the
    solve peaks well below the 36 MB of an m x (2n + 2m + 1) tableau."""
    rng = np.random.default_rng(23)
    weights, a, b = (rng.uniform(0.5, 2.0, size=1500),
                     rng.normal(size=(1500, 8)), rng.normal(size=1500))
    tracemalloc.start()
    try:
        res = solve_lp(weights, a, b, 50 * (8 + 1500))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.status is LpStatus.OPTIMAL
    assert peak < 1 << 20
