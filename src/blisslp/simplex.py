"""Self-contained dense simplex solver for weighted L1 problems.

Minimizes ``sum_i w_i |(a x - b)_i|`` in the standard form

    a x+ - a x- + u - v = b,    x+, x-, u, v >= 0,    cost [0, 0, w, w].

At x = 0 every residual is basic: u_i = b_i, or v_i = -b_i on a row negated
because b_i < 0.  That basis is feasible (Barrodale and Roberts, SIAM J.
Numer. Anal. 10, 839 (1973)), so one phase of a tableau simplex on m rows
and 2n + 2m columns solves the problem.  Pivots follow Bland's rule (lowest
eligible index entering, lowest basis index leaving on ratio ties), which
guarantees termination and makes the returned vertex deterministic.

Only dense problems of modest size are targeted; the solver exists as a
dependency-free reference against which external LP backends can be checked.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

__all__ = ["LpStatus", "LpResult", "solve_lp", "PIVOT_TOL"]

# Reduced costs above -PIVOT_TOL are treated as optimal; pivot elements
# below PIVOT_TOL are treated as zero in the ratio test.
PIVOT_TOL = 1e-9


class LpStatus(enum.Enum):
    OPTIMAL = "Optimal"
    INFEASIBLE = "Infeasible"
    UNBOUNDED = "Unbounded"
    ITERATION_LIMIT = "IterationLimit"


@dataclass(frozen=True)
class LpResult:
    """Outcome of an L1 solve: the point x, its objective, status, pivots."""

    x: np.ndarray
    objective: float
    status: LpStatus
    iterations: int


def _pivot(tableau: np.ndarray, row: int, col: int) -> None:
    tableau[row] /= tableau[row, col]
    column = tableau[:, col].copy()
    column[row] = 0.0
    tableau -= np.outer(column, tableau[row])


def _run_simplex(tableau: np.ndarray, basis: list[int], cost: np.ndarray,
                 max_iters: int) -> tuple[LpStatus, int]:
    """Iterate Bland-rule pivots until optimality or a resource limit."""
    iters = 0
    while True:
        reduced = cost - tableau[:, :-1].T @ cost[basis]
        entering_candidates = np.nonzero(reduced < -PIVOT_TOL)[0]
        if entering_candidates.size == 0:
            return LpStatus.OPTIMAL, iters
        if iters >= max_iters:
            return LpStatus.ITERATION_LIMIT, iters
        enter = int(entering_candidates[0])
        column = tableau[:, enter]
        rows = np.nonzero(column > PIVOT_TOL)[0]
        if rows.size == 0:
            return LpStatus.UNBOUNDED, iters
        ratios = tableau[rows, -1] / column[rows]
        best = ratios.min()
        ties = rows[ratios <= best + 1e-12 * max(1.0, abs(best))]
        leave = int(min(ties, key=lambda r: basis[r]))
        _pivot(tableau, leave, enter)
        basis[leave] = enter
        iters += 1


def solve_lp(weights: np.ndarray, a: np.ndarray, b: np.ndarray,
             max_iters: int) -> LpResult:
    """Minimize ``sum_i weights[i] |(a @ x - b)_i|`` over x with at most
    ``max_iters`` pivots.

    On ITERATION_LIMIT the point is the last basic solution reached, which
    is no worse than x = 0.
    """
    weights, a, b = (np.asarray(v, dtype=float) for v in (weights, a, b))
    m, n = a.shape
    # The minimizer scales with b, so solving for b / max|b| makes the
    # ratio-test tolerance relative to the data (fragments reach 1e-8).
    scale = float(np.abs(b).max(initial=0.0)) or 1.0
    # Columns x+, x-, u, v and the right-hand side; rows with b_i < 0 are
    # negated, so that v_i is their unit column.
    eye = np.eye(m)
    tableau = np.where(b < 0, -1.0, 1.0)[:, None] * np.hstack(
        [a, -a, eye, -eye, b[:, None] / scale])
    basis = [2 * n + r + (m if b[r] < 0 else 0) for r in range(m)]
    status, iters = _run_simplex(tableau, basis, np.concatenate(
        [np.zeros(2 * n), weights, weights]), max_iters)

    point = np.zeros(2 * n + 2 * m)
    point[basis] = tableau[:, -1]
    x = scale * (point[:n] - point[n:2 * n])
    return LpResult(x, float(weights @ np.abs(a @ x - b)), status, iters)
