"""Weighted L1 minimization by linear programming.

Problems are stated as

    minimize_x  sum_i w_i | (A x - b)_i |

with a dense float matrix A.  A row of A with no nonzero entry adds the
constant w_i |b_i| whatever x is, so :func:`l1_minimize` folds such rows
into the objective and hands only the rows that carry a variable to the
condensed L1 simplex of :mod:`blisslp.simplex`, which pivots on the m x n
matrix A itself.  It returns that simplex's
:class:`blisslp.simplex.LpResult`, with the objective taken over the whole
problem.  :class:`ScipyLinprogSolver` solves the same problems with HiGHS
(scipy required); :class:`SolverOptions` can name it in the simplex's place
to cross-check a solve.

The point x = 0 is always feasible and the objective is bounded below by 0,
so a solve ends optimal or at its pivot budget, and never reports worse than
``sum_i w_i |b_i|``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .simplex import LpResult, LpStatus, solve_lp

__all__ = [
    "L1Problem",
    "SolverOptions",
    "ScipyLinprogSolver",
    "l1_minimize",
    "merge_duplicate_rows",
    "evaluate_objective",
    "weighted_median",
    "dump_problem",
]

class ScipyLinprogSolver:
    """``scipy.optimize.linprog`` behind the signature of
    :func:`blisslp.simplex.solve_lp`, as a ``solve`` method (requires scipy).

    It solves for b / max|b| and scales x back, since linprog's default
    tolerances are absolute and fragments reach 1e-8.
    """

    def __init__(self, method: str = "highs"):
        self.method = method

    def solve(self, weights, a, b, max_iters):
        from scipy.optimize import linprog

        # min w.y over (x, y) s.t. a x - y <= b and -a x - y <= -b.
        m, n = a.shape
        scale = float(np.abs(b).max(initial=0.0)) or 1.0
        eye = np.eye(m)
        G = np.block([[a, -eye], [-a, -eye]])
        h = np.concatenate([b, -b]) / scale
        c = np.concatenate([np.zeros(n), weights])
        res = linprog(c, A_ub=G, b_ub=h, bounds=(None, None),
                      method=self.method, options={"maxiter": max_iters})
        # 2 (infeasible) and 3 (unbounded) cannot hold for an L1 problem;
        # 4 is numerical difficulties.
        status = {0: LpStatus.OPTIMAL,
                  1: LpStatus.ITERATION_LIMIT}.get(res.status)
        if status is None:
            raise RuntimeError(f"linprog method={self.method!r} stopped with "
                               f"status {res.status}: {res.message}")
        x = (scale * np.asarray(res.x[:n], dtype=float) if res.x is not None
             else np.zeros(n))
        return LpResult(x, scale * float(res.fun) if res.fun is not None
                        else float("nan"), status, int(getattr(res, "nit", 0)))


@dataclass(frozen=True)
class L1Problem:
    """Weighted L1 objective ``sum_i weights[i] |(a @ x - b)_i|``.

    Attributes:
        a: (n_rows, n_vars) finite coefficient matrix.
        b: finite right-hand sides, one per row.
        weights: finite, strictly positive row weights.
        var_names: optional variable labels for dumps and debugging.
    """

    a: np.ndarray
    b: np.ndarray
    weights: np.ndarray
    var_names: tuple[str, ...] | None = None

    def __post_init__(self) -> None:
        a = np.array(self.a, dtype=float)
        b = np.array(self.b, dtype=float)
        w = np.array(self.weights, dtype=float)
        if a.ndim != 2:
            raise ValueError(f"a must be a 2-d matrix, got shape {a.shape}")
        if a.shape[0] != b.size or b.size != w.size:
            raise ValueError("rows of a, b and weights must have equal length")
        if not (np.isfinite(a).all() and np.isfinite(b).all()):
            raise ValueError("a and b must be finite")
        if not np.all((w > 0) & np.isfinite(w)):
            raise ValueError("weights must be finite and strictly positive")
        if self.var_names is not None and len(self.var_names) != a.shape[1]:
            raise ValueError("var_names length must equal n_vars")
        for arr in (a, b, w):
            arr.setflags(write=False)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "weights", w)

    @property
    def n_vars(self) -> int:
        return self.a.shape[1]

    @property
    def n_rows(self) -> int:
        return self.a.shape[0]

    @property
    def rows(self) -> tuple[tuple[tuple[int, float], ...], ...]:
        """Sparse view of ``a``: per row, the (var index, value) nonzeros."""
        return tuple(tuple((int(v), float(row[v])) for v in np.flatnonzero(row))
                     for row in self.a)


@dataclass(frozen=True)
class SolverOptions:
    """Knobs for :func:`l1_minimize`.

    ``max_iters=None`` means the default pivot budget 50 * (n_vars + n_rows).
    ``solver``, when set, solves in place of the package's simplex: any
    object whose ``solve(weights, a, b, max_iters)`` returns an
    :class:`LpResult`, such as :class:`ScipyLinprogSolver`.
    """

    max_iters: int | None = None
    solver: object | None = None

    def __post_init__(self) -> None:
        if self.max_iters is not None and (
                isinstance(self.max_iters, bool)
                or not isinstance(self.max_iters, int) or self.max_iters < 1):
            raise ValueError(f"max_iters must be a positive int, got "
                             f"{self.max_iters!r}")


def evaluate_objective(problem: L1Problem, x: np.ndarray) -> float:
    """Objective ``sum_i w_i |(A x - b)_i|`` at the point ``x``."""
    residual = problem.a @ np.asarray(x, dtype=float) - problem.b
    return float(problem.weights @ np.abs(residual))


def weighted_median(values: np.ndarray, weights: np.ndarray) -> float:
    """Lower attained weighted median of ``values``.

    Returns the smallest value whose cumulative weight, in sorted order,
    reaches half the total.  It minimizes ``sum_i weights[i] |x - values[i]|``
    over x exactly, the one-variable case of weighted L1 minimization; where
    the minimizers form an interval, it is the interval's lower end.

    Raises:
        ValueError: if ``values`` is not 1-D or empty, its shape differs
            from ``weights``, a value or weight is not finite, a weight is
            negative or the weights sum to zero.
    """
    values = np.asarray(values, dtype=float)
    weights = np.asarray(weights, dtype=float)
    if values.ndim != 1:
        raise ValueError(f"values must be 1-D, got shape {values.shape}")
    if values.size == 0:
        raise ValueError("median of an empty vector")
    if values.shape != weights.shape:
        raise ValueError("values and weights must have the same shape")
    if not (np.isfinite(values).all() and np.isfinite(weights).all()):
        raise ValueError("values and weights must be finite")
    order = np.argsort(values, kind="stable")
    cumulative = np.cumsum(weights[order])
    if (weights < 0).any() or cumulative[-1] == 0.0:
        raise ValueError("weights must be non-negative with a positive sum")
    return float(values[order[np.searchsorted(cumulative, 0.5 * cumulative[-1])]])


def merge_duplicate_rows(problem: L1Problem) -> L1Problem:
    """Combine rows with identical coefficients and right-hand side.

    Weights of merged rows are summed, which leaves the objective value of
    every point unchanged exactly.  Row order follows first occurrence.
    """
    # Each row (a_i, b_i) is compared as one opaque byte string: np.unique
    # with axis=0 compares field by field and is about ten times slower on
    # LP-BLISS problems.  Bytes match exactly when the finite floats do, once
    # adding 0.0 has turned -0.0 into 0.0, and the view needs C order.
    keys = np.ascontiguousarray(np.column_stack([problem.a, problem.b]) + 0.0)
    keys = keys.view(np.dtype((np.void, keys.itemsize * keys.shape[1]))).ravel()
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    order = np.argsort(first)
    weights = np.bincount(inverse, weights=problem.weights, minlength=first.size)
    keep = first[order]
    return L1Problem(problem.a[keep], problem.b[keep], weights[order],
                     problem.var_names)


def l1_minimize(problem: L1Problem,
                options: SolverOptions | None = None) -> LpResult:
    """Globally minimize a weighted L1 objective.

    Only the rows of ``a`` with a nonzero entry reach the solver.  The
    result's x is read-only and its objective is evaluated on the whole
    problem, folded rows included.  A reported ITERATION_LIMIT carries the
    best point reached rather than raising.
    """
    options = options or SolverOptions()
    n = problem.n_vars
    max_iters = (options.max_iters if options.max_iters is not None
                 else 50 * (n + problem.n_rows))
    # solve_lp is looked up at call time, so a wrapper installed on this
    # module sees every default solve.
    solve = options.solver.solve if options.solver is not None else solve_lp

    active = np.flatnonzero(problem.a.any(axis=1))
    x, status, iterations = np.zeros(n), LpStatus.OPTIMAL, 0
    if active.size:
        result = solve(problem.weights[active], problem.a[active],
                       problem.b[active], max_iters)
        x = np.array(result.x, dtype=float)
        status, iterations = result.status, result.iterations
        # A solver stopped on its budget may hold no finite point; x = 0 is
        # always feasible.
        if status is LpStatus.ITERATION_LIMIT and not np.all(np.isfinite(x)):
            x = np.zeros(n)
    x.setflags(write=False)
    return LpResult(x, evaluate_objective(problem, x), status, iterations)


def dump_problem(problem: L1Problem) -> str:
    """Serialize a problem in a plain-text sparse triplet format.

    Layout::

        l1problem 1
        vars <n_vars>
        rows <n_rows>
        name <var index> <label>      (optional, one per named variable)
        row <row index> <weight> <b>
        a <row index> <var index> <coefficient>

    Floats are printed with 17 significant digits so the dump is lossless.
    """
    out = ["l1problem 1",
           f"vars {problem.n_vars}",
           f"rows {problem.n_rows}"]
    if problem.var_names is not None:
        out.extend(f"name {i} {label}" for i, label in enumerate(problem.var_names))
    for r, (b_i, w_i) in enumerate(zip(problem.b, problem.weights)):
        out.append(f"row {r} {w_i:.17g} {b_i:.17g}")
    for r, row in enumerate(problem.rows):
        out.extend(f"a {r} {var} {coef:.17g}" for var, coef in row)
    return "\n".join(out) + "\n"
