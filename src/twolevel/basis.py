"""Fourier eigenbasis, polynomial eigenvalue laws, and coefficient-series arithmetic.

Functions on [0, 1] are represented by their coefficients against the
orthonormal Fourier basis

    psi_1(t) = 1,
    psi_{2r}(t) = sqrt(2) * cos(2*pi*r*t),
    psi_{2r+1}(t) = sqrt(2) * sin(2*pi*r*t).

Covariance operators are diagonal in this basis with polynomially decaying
eigenvalues ``scale * k**(-1 - 2*decay)``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "Spectrum",
    "FunctionSeries",
    "SobolevBall",
    "fourier_matrix",
    "series_eval",
    "sobolev_norm_sq",
    "tail_energy",
]


@dataclass(frozen=True)
class Spectrum:
    """Eigenvalue decay law ``lambda_k = scale * k**(-1 - 2*decay)``.

    Parameters
    ----------
    decay : float
        Regularity exponent; must be positive.  Larger values give smoother
        process realizations.
    scale : float
        Multiplier on every eigenvalue; must be positive.
    """

    decay: float
    scale: float = 1.0

    def __post_init__(self):
        if not self.decay > 0:
            raise ValueError(f"decay must be positive, got {self.decay}")
        if not self.scale > 0:
            raise ValueError(f"scale must be positive, got {self.scale}")

    def eigenvalue(self, k: int) -> float:
        """Return ``scale * k**(-1 - 2*decay)`` for integer ``k >= 1``."""
        if k < 1:
            raise ValueError(f"eigenvalue index must be >= 1, got {k}")
        return self.scale * float(k) ** (-1.0 - 2.0 * self.decay)

    def eigenvalues(self, count: int) -> np.ndarray:
        """Vector of the first ``count`` eigenvalues."""
        k = np.arange(1, count + 1, dtype=float)
        return self.scale * k ** (-1.0 - 2.0 * self.decay)

    def tail_sum(self, after: int) -> float:
        """Upper bound for ``sum_{k > after} eigenvalue(k)``.

        Uses the integral comparison ``sum_{k>K} k^{-1-2a} <= K^{-2a}/(2a)``
        for ``K >= 1``; for ``after == 0`` the ``k = 1`` term is added
        explicitly.
        """
        if after < 1:
            return self.eigenvalue(1) + self.tail_sum(1)
        return self.scale * float(after) ** (-2.0 * self.decay) / (2.0 * self.decay)


def fourier_matrix(grid, width: int) -> np.ndarray:
    """Design matrix with entry (i, k-1) = psi_k(grid[i]) for k = 1..width."""
    grid = np.asarray(grid, dtype=float)
    out = np.empty((grid.size, width))
    if width >= 1:
        out[:, 0] = 1.0
    r = np.arange(1, width // 2 + 1, dtype=float)
    angles = 2.0 * np.pi * grid[:, None] * r[None, :]
    cos_part = np.sqrt(2.0) * np.cos(angles)
    sin_part = np.sqrt(2.0) * np.sin(angles)
    out[:, 1::2] = cos_part[:, : (width - 1 + 1) // 2]
    out[:, 2::2] = sin_part[:, : (width - 2 + 1) // 2]
    return out


@dataclass(frozen=True)
class FunctionSeries:
    """A function on [0, 1] stored as Fourier coefficients (index k = 1..K).

    ``K = 0`` (an empty coefficient vector) is the zero function.  The squared
    L2 norm of the function equals the sum of squared coefficients.
    """

    coeffs: np.ndarray

    def __post_init__(self):
        c = np.atleast_1d(np.asarray(self.coeffs, dtype=float))
        if c.ndim != 1:
            raise ValueError("coeffs must be one-dimensional")
        if not np.all(np.isfinite(c)):
            raise ValueError("coeffs must be finite")
        c = c.copy()
        c.setflags(write=False)
        object.__setattr__(self, "coeffs", c)

    def __len__(self) -> int:
        return self.coeffs.size

    @classmethod
    def zero(cls) -> "FunctionSeries":
        return cls(np.zeros(0))

    def __call__(self, t):
        return series_eval(self, t)

    def padded(self, width: int) -> np.ndarray:
        """Coefficient vector zero-extended to ``width`` entries."""
        out = np.zeros(width)
        out[: min(len(self), width)] = self.coeffs[:width]
        return out

    def to_csv(self) -> str:
        """Serialize as ``k,coeff`` lines, one per nonzero index."""
        lines = ["k,coeff"]
        for i, c in enumerate(self.coeffs, start=1):
            if c != 0.0:
                lines.append(f"{i},{float(c)!r}")
        return "\n".join(lines) + "\n"

    @classmethod
    def from_csv(cls, text: str) -> "FunctionSeries":
        rows = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
        if not rows or rows[0] != "k,coeff":
            raise ValueError("expected header 'k,coeff'")
        pairs = []
        for ln in rows[1:]:
            k_str, c_str = ln.split(",")
            pairs.append((int(k_str), float(c_str)))
        width = max((k for k, _ in pairs), default=0)
        out = np.zeros(width)
        for k, c in pairs:
            if k < 1:
                raise ValueError(f"coefficient index must be >= 1, got {k}")
            out[k - 1] = c
        return cls(out)


def series_eval(f: FunctionSeries, t):
    """Evaluate ``sum_k coeffs_k * psi_k(t)``."""
    scalar = np.isscalar(t) or np.ndim(t) == 0
    t = np.atleast_1d(np.asarray(t, dtype=float))
    if len(f) == 0:
        out = np.zeros(t.size)
    else:
        out = fourier_matrix(t, len(f)) @ f.coeffs
    return float(out[0]) if scalar else out


def sobolev_norm_sq(f: FunctionSeries, smoothness: float) -> float:
    """Return ``sum_k coeffs_k**2 * k**(2*smoothness)``."""
    if len(f) == 0:
        return 0.0
    k = np.arange(1, len(f) + 1, dtype=float)
    return float(np.sum(f.coeffs**2 * k ** (2.0 * smoothness)))


def tail_energy(f: FunctionSeries, after: int) -> float:
    """Return ``sum_{k > after} coeffs_k**2``."""
    if after < 0:
        after = 0
    return float(np.sum(f.coeffs[after:] ** 2))


@dataclass(frozen=True)
class SobolevBall:
    """Coefficient ellipsoid ``sum_k coeffs_k^2 k^(2*smoothness) <= radius^2``."""

    smoothness: float
    radius: float

    def __post_init__(self):
        if not self.smoothness > 0:
            raise ValueError("smoothness must be positive")
        if not self.radius > 0:
            raise ValueError("radius must be positive")

    def contains(self, f: FunctionSeries) -> bool:
        return sobolev_norm_sq(f, self.smoothness) <= self.radius**2
