"""Reference routes the tests compare the library's fast paths against:
pointwise basis evaluation and grid quadrature of the L2 risk."""

import numpy as np

from twolevel.basis import FunctionSeries, series_eval


def fourier_eval(k: int, t):
    """Evaluate the k-th Fourier basis function at points ``t`` in [0, 1]."""
    if k < 1:
        raise ValueError(f"basis index must be >= 1, got {k}")
    t = np.asarray(t, dtype=float)
    if k == 1:
        out = np.ones_like(t)
    elif k % 2 == 0:
        out = np.sqrt(2.0) * np.cos(2.0 * np.pi * (k // 2) * t)
    else:
        out = np.sqrt(2.0) * np.sin(2.0 * np.pi * (k // 2) * t)
    return out if out.ndim else float(out)


def default_eval_grid_g(points: int = 10000) -> np.ndarray:
    """Midpoint grid t_i = (i - 0.5)/points, i = 1..points."""
    return (np.arange(1, points + 1) - 0.5) / points


def default_eval_grid_f(N: int = 20000, points: int = 1000) -> np.ndarray:
    """Held-out grid {(20 i + 1)/N : i = 0..points-1}."""
    return (20.0 * np.arange(points) + 1.0) / N


def empirical_mise(estimate: FunctionSeries, truth_values, grid) -> float:
    """Mean squared difference between the series and truth values on a grid."""
    grid = np.asarray(grid, dtype=float)
    if grid.size == 0:
        raise ValueError("evaluation grid must be nonempty")
    diff = series_eval(estimate, grid) - np.asarray(truth_values, dtype=float)
    return float(np.mean(diff**2))
