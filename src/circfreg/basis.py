"""Trigonometric basis on [0, 1] and weighted coefficient-space geometry.

Functions live in coefficient space throughout the package: a function f is
identified with its coefficients c_1..c_J in the orthonormal basis

    phi_1(t) = 1,  phi_2k(t) = sqrt(2) cos(2 pi k t),
    phi_2k+1(t) = sqrt(2) sin(2 pi k t).

Pointwise evaluation exists only for plotting and diagnostics; all norms and
inner products are coefficient sums, so no quadrature error enters any
estimation pipeline.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "CoefVector",
    "design_matrix",
    "function_eval",
    "weighted_norm_sq",
    "weighted_inner",
]

_SQRT2 = np.sqrt(2.0)


def _validated_array(values, name: str) -> np.ndarray:
    arr = np.array(values, dtype=float)
    if arr.ndim != 1 or arr.size < 1:
        raise ValueError(f"{name} must be a non-empty one-dimensional sequence")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} must contain only finite values")
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True, eq=False)
class CoefVector:
    """Finite coefficient vector c_1..c_J in the trigonometric basis."""

    coefs: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "coefs", _validated_array(self.coefs, "coefs"))

    def __len__(self) -> int:
        return int(self.coefs.size)


def _coef_array(f) -> np.ndarray:
    if isinstance(f, CoefVector):
        return f.coefs
    return np.asarray(f, dtype=float)


def _check_unit_interval(t: np.ndarray):
    if np.any((t < 0.0) | (t > 1.0)):
        raise ValueError("evaluation points must lie in [0, 1]")


def _phi(j: int, t: np.ndarray) -> np.ndarray:
    """phi_j(t) for t already checked to lie in [0, 1]."""
    if j == 1:
        return np.ones_like(t)
    trig = np.cos if j % 2 == 0 else np.sin
    return _SQRT2 * trig(2.0 * np.pi * (t * (j // 2)))


def design_matrix(n_basis: int, t) -> np.ndarray:
    """Matrix of basis values phi_j(t_i), shape (len(t), n_basis)."""
    if n_basis < 1:
        raise ValueError(f"n_basis must be >= 1, got {n_basis}")
    t_arr = np.atleast_1d(np.asarray(t, dtype=float))
    _check_unit_interval(t_arr)
    return np.stack([_phi(j, t_arr) for j in range(1, n_basis + 1)], axis=1)


def function_eval(f, t):
    """Evaluate sum_j c_j phi_j at t (scalar or array) in [0, 1]."""
    coefs = _coef_array(f)
    t_arr = np.asarray(t, dtype=float)
    values = design_matrix(coefs.size, t_arr) @ coefs
    return float(values[0]) if t_arr.ndim == 0 else values


def _weighted(weights: np.ndarray, d: np.ndarray) -> np.ndarray:
    """weights * d, with 0 where d == 0 even if the weight is inf (EP weights
    overflow where the slope is 0); a finite weight gives that 0 anyway."""
    return np.multiply(weights, d, out=np.zeros(d.shape), where=d != 0.0)


def weighted_norm_sq(f, w) -> float:
    """Weighted squared norm sum_j w_j c_j^2.

    Length mismatches are resolved by conceptually zero-padding the shorter
    vector, so only the common support contributes.
    """
    return weighted_inner(f, f, w)


def weighted_inner(f, g, w) -> float:
    """Weighted inner product sum_j w_j f_j g_j (zero-padding semantics)."""
    fc = _coef_array(f)
    gc = _coef_array(g)
    weights = np.asarray(w, dtype=float)
    m = min(fc.size, gc.size, weights.size)
    return float(np.sum(_weighted(weights[:m], fc[:m] * gc[:m])))
