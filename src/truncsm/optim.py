"""Deterministic quasi-Newton minimizer with Armijo backtracking.

BFGS on the inverse Hessian; the first search direction is the normalized
steepest descent step, tried first at length step0 (the problem's length
scale in x), and the initial inverse Hessian is rescaled from the first
accepted step.  These choices make the iterate sequence invariant to a
positive rescaling of the objective, and equivariant to a positive rescaling
of x when step0 (and tol, inversely) scales with it: minimizing f(x / s) from
s x0 with step0 s visits s times the iterates of f from x0 with step0 1
(exactly so for power-of-two factors).

A run ends `converged` when the gradient norm reaches tol, `line_search_failure`
when none of MAX_BACKTRACKS step lengths satisfies the Armijo condition,
`stalled` when the accepted step rounds away so x + alpha p == x (every later
iteration would repeat it), and `max_iterations` otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

CONVERGED = "converged"
MAX_ITERATIONS = "max_iterations"
LINE_SEARCH_FAILURE = "line_search_failure"
STALLED = "stalled"

ARMIJO = 1e-4        # sufficient-decrease constant
BACKTRACK = 0.5      # step-length factor per backtrack
MAX_BACKTRACKS = 60  # step lengths tried per line search


@dataclass
class MinimizeResult:
    x: np.ndarray
    fun: float
    status: str
    trace: list = field(default_factory=list)  # (iteration, f, ||grad||)
    n_evals: int = 0


def minimize_qn(fg, x0, tol: float = 1e-6, max_iters: int = 500,
                step0: float = 1.0) -> MinimizeResult:
    """Minimize f given fg(x) -> (f, grad); step0 is the first trial step length
    along a normalized steepest-descent direction (the first iteration and any
    curvature reset), while BFGS steps try alpha = 1 first."""
    x = np.asarray(x0, dtype=float).copy()
    n_evals = 0

    def eval_fg(z):
        nonlocal n_evals
        n_evals += 1
        f, g = fg(z)
        return float(f), np.asarray(g, dtype=float)

    f, g = eval_fg(x)
    trace = [(0, f, float(np.linalg.norm(g)))]
    H = None
    status = MAX_ITERATIONS
    for it in range(1, max_iters + 1):
        gnorm = np.linalg.norm(g)
        if gnorm <= tol:
            status = CONVERGED
            break
        if H is None:
            p = -g / gnorm
        else:
            p = -H @ g
            if p @ g >= 0.0:  # not a descent direction: reset curvature model
                H = None
                p = -g / gnorm
        slope = float(p @ g)

        alpha = step0 if H is None else 1.0
        f_new = None
        for _ in range(MAX_BACKTRACKS):
            x_try = x + alpha * p
            f_try, g_try = eval_fg(x_try)
            if np.isfinite(f_try) and f_try <= f + ARMIJO * alpha * slope:
                f_new = f_try
                break
            alpha *= BACKTRACK
        if f_new is None:
            status = LINE_SEARCH_FAILURE
            break
        if np.array_equal(x_try, x):
            status = STALLED
            break

        s = alpha * p
        y = g_try - g
        sy = float(s @ y)
        if H is None and sy > 0.0:
            H = (sy / float(y @ y)) * np.eye(len(x))
        if H is not None and sy > 1e-14 * np.linalg.norm(s) * np.linalg.norm(y):
            rho = 1.0 / sy
            Hy = H @ y
            H = H - rho * (np.outer(s, Hy) + np.outer(Hy, s)) \
                + rho * (rho * float(y @ Hy) + 1.0) * np.outer(s, s)
        x, f, g = x_try, f_new, g_try
        trace.append((it, f, float(np.linalg.norm(g))))

    if status == MAX_ITERATIONS and np.linalg.norm(g) <= tol:
        status = CONVERGED
    return MinimizeResult(x=x, fun=f, status=status, trace=trace, n_evals=n_evals)
