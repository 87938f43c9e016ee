import numpy as np
import pytest

from truncsm.optim import STALLED, minimize_qn


def quad(A, b):
    def fg(x):
        return 0.5 * x @ A @ x - b @ x, A @ x - b
    return fg


def test_quadratic_converges():
    A = np.diag([1.0, 10.0, 100.0])
    b = np.array([1.0, 2.0, 3.0])
    res = minimize_qn(quad(A, b), np.zeros(3), tol=1e-8)
    assert res.status == "converged"
    assert np.allclose(res.x, np.linalg.solve(A, b), atol=1e-6)


def rosenbrock(z):
    x, y = z
    f = (1 - x) ** 2 + 100 * (y - x * x) ** 2
    g = np.array([-2 * (1 - x) - 400 * x * (y - x * x),
                  200 * (y - x * x)])
    return f, g


def test_rosenbrock_converges():
    res = minimize_qn(rosenbrock, np.array([-1.2, 1.0]), tol=1e-8, max_iters=500)
    assert res.status == "converged"
    assert np.allclose(res.x, [1.0, 1.0], atol=1e-5)


def test_trace_monotone_and_counts():
    A = np.diag([1.0, 50.0])
    res = minimize_qn(quad(A, np.ones(2)), np.array([5.0, -5.0]))
    vals = [f for _, f, _ in res.trace]
    assert all(b <= a for a, b in zip(vals, vals[1:]))
    assert res.n_evals >= len(res.trace)


def test_max_iterations_status():
    A = np.diag([1.0, 1000.0])
    res = minimize_qn(quad(A, np.ones(2)), np.array([5.0, -5.0]),
                      tol=1e-14, max_iters=2)
    assert res.status in ("max_iterations", "converged")
    assert len(res.trace) <= 3


def test_line_search_failure_on_nan():
    def fg(x):
        if np.any(np.abs(x) > 0.0):
            return np.nan, np.full_like(x, np.nan)
        return 1.0, np.ones_like(x)

    res = minimize_qn(fg, np.zeros(2))
    assert res.status == "line_search_failure"


def test_step_that_rounds_away_stalls():
    # f is flat, so the line search halves the step until the Armijo decrease
    # rounds to 0; by then x + alpha p rounds to x = 1e8, and the run stops
    # after that one line search instead of repeating it until max_iters
    res = minimize_qn(lambda x: (1.0, np.full_like(x, 1e-3)), np.array([1e8]))
    assert res.status == STALLED
    assert np.array_equal(res.x, [1e8]) and res.fun == 1.0
    assert res.n_evals <= 61 and len(res.trace) == 1


def test_scale_invariance_power_of_two():
    A = np.array([[3.0, 1.0], [1.0, 2.0]])
    b = np.array([1.0, -1.0])
    base = minimize_qn(quad(A, b), np.zeros(2), tol=1e-9)
    for alpha in (0.5, 2.0, 8.0):
        def fg(x, a=alpha):
            f, g = quad(A, b)(x)
            return a * f, a * g
        res = minimize_qn(fg, np.zeros(2), tol=alpha * 1e-9)
        assert np.array_equal(res.x, base.x)


@pytest.mark.parametrize("problem", ["quadratic", "rosenbrock"])
def test_joint_scale_equivariance_power_of_two(problem):
    """Minimizing f(x / s) from s x0 with step0 = s and tol / s visits exactly
    s times the iterates of f from x0 with step0 = 1, in as many evaluations."""
    if problem == "quadratic":
        fg0 = quad(np.array([[3.0, 1.0], [1.0, 2.0]]), np.array([1.0, -1.0]))
        x0, tol = np.array([4.0, -3.0]), 1e-9
    else:
        fg0, x0, tol = rosenbrock, np.array([-1.2, 1.0]), 1e-8
    base = minimize_qn(fg0, x0, tol=tol)
    assert base.status == "converged"
    for s in (1 / 8, 1 / 2, 4.0):
        def fg(x, s=s):
            f, g = fg0(x / s)
            return f, g / s
        res = minimize_qn(fg, s * x0, tol=tol / s, step0=s)
        assert np.array_equal(res.x, s * base.x)
        assert res.n_evals == base.n_evals and res.status == base.status
