"""Self-contained L1 simplex on the condensed tableau.

Minimizes ``sum_i w_i |(a x - b)_i|`` by the method of Barrodale and Roberts
(SIAM J. Numer. Anal. 10, 839 (1973); Comm. ACM 17, 319 (1974)) on an m x n
array T, starting as a copy of ``a``.  Each row holds a basic variable: a
residual (b - a x)_i with a stored sign, or an x_j.  Each column holds a
nonbasic variable at 0: a free x_j, or a residual.  At x = 0 every row holds
its residual.  A step enters the column and direction of steepest descent
and line-searches along it.  It ends at the breakpoint where the slope
reaches 0, a weighted median that may pass several vertices; the rows passed
over flip sign.  Each step is one O(mn) pivot.

An L1 problem is feasible at x = 0 and bounded below by 0, so a descent
direction always meets a breakpoint, and a solve ends optimal or at its
pivot budget.  The stored signs make zero-length steps legal.  No
anti-cycling rule is used: the pivot budget is the backstop against a stall.
Ties go to the lowest index, so the returned vertex is deterministic.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

__all__ = ["LpStatus", "LpResult", "solve_lp", "PIVOT_TOL"]

# Slopes above -PIVOT_TOL are treated as optimal.
PIVOT_TOL = 1e-9


class LpStatus(enum.Enum):
    OPTIMAL = "Optimal"
    ITERATION_LIMIT = "IterationLimit"


@dataclass(frozen=True)
class LpResult:
    """Outcome of an L1 solve: the point x, its objective, status, pivots."""

    x: np.ndarray
    objective: float
    status: LpStatus
    iterations: int


def solve_lp(weights: np.ndarray, a: np.ndarray, b: np.ndarray,
             max_iters: int) -> LpResult:
    """Minimize ``sum_i weights[i] |(a @ x - b)_i|`` over x with at most
    ``max_iters`` pivots, one per line-search step.

    On ITERATION_LIMIT the point is the last basic solution reached, which
    is no worse than x = 0.
    """
    weights, a, b = (np.asarray(v, dtype=float) for v in (weights, a, b))
    m, n = a.shape
    # The minimizer scales with b and not with the weights, so beta = b /
    # max|b| and w / max w stay O(1) whatever the scale of the data (fragments
    # reach 1e-8): the stop test on the slopes is scale-free, x scales back.
    scale = float(np.abs(b).max(initial=0.0)) or 1.0
    table, beta = a.copy(), b / scale
    sign = np.where(b < 0, -1.0, 1.0)
    # Labels: x_j is j, residual i is n + i; only a residual has a weight.
    rows, cols = n + np.arange(m), np.arange(n)
    row_w, col_w = weights / (weights.max(initial=0.0) or 1.0), np.zeros(n)
    status, iters = LpStatus.OPTIMAL, 0
    while True:
        g = -(row_w * sign) @ table
        slopes = np.concatenate([col_w + g, col_w - g])
        k = int(np.argmin(slopes))
        if slopes[k] >= -PIVOT_TOL:
            break
        if iters >= max_iters:
            status = LpStatus.ITERATION_LIMIT
            break
        j, s = k % n, (1.0 if k < n else -1.0)
        step = s * table[:, j]
        hits = np.flatnonzero((rows >= n) & (sign * step > 0))
        hits = hits[np.argsort(beta[hits] / step[hits], kind="stable")]
        climb = np.cumsum(2.0 * row_w[hits] * np.abs(step[hits]))
        # Past the last hit the slope is col_w[j] + sum w|T| over residual
        # rows, >= -slopes[k] > 0; min() only guards against rounding.
        stop = min(int(np.searchsorted(climb, -slopes[k])), hits.size - 1)
        sign[hits[:stop]] *= -1.0
        r = hits[stop]
        column, pivot = table[:, j].copy(), table[r, j]
        column[r] = 0.0
        table[r], beta[r] = table[r] / pivot, beta[r] / pivot
        table -= np.outer(column, table[r])
        beta -= column * beta[r]
        table[:, j] = -column / pivot
        table[r, j] = 1.0 / pivot
        rows[r], cols[j] = cols[j], rows[r]
        row_w[r], col_w[j] = col_w[j], row_w[r]
        sign[r] = s
        iters += 1

    x = np.zeros(n)
    x[rows[rows < n]] = scale * beta[rows < n]
    return LpResult(x, float(weights @ np.abs(a @ x - b)), status, iters)
