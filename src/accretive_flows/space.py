"""Euclidean model of the ambient state space.

Everything downstream is dimension-free: all certified bounds are derived
from norms and pairings only.  The desk-scale model is R^d with the Euclidean
norm, where the normalized duality pairing reduces to the ordinary inner
product.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ResourceLimitError

__all__ = ["Point", "as_point", "norm", "ceil_norm", "eta_hilbert"]

# State vectors are plain 1-d float arrays.
Point = np.ndarray


def as_point(coords) -> Point:
    """Coerce coordinates to a state vector: 1-d, nonempty, all finite."""
    x = np.asarray(coords, dtype=float)
    if x.ndim == 0:
        x = x.reshape(1)
    if x.ndim != 1 or x.size == 0:
        raise ValueError("a point must be a nonempty 1-d coordinate sequence")
    if not np.all(np.isfinite(x)):
        raise ValueError("point coordinates must be finite")
    return x


def norm(x) -> float:
    """Euclidean norm of a point; inf when it overflows a float."""
    with np.errstate(over="ignore"):
        return float(np.linalg.norm(np.asarray(x, dtype=float)))


def ceil_norm(value: float, what: str) -> int:
    """ceil(value), the integer bound on the norm ``what`` = ``value``; a
    norm that overflowed a float raises ResourceLimitError."""
    if not math.isfinite(value):
        raise ResourceLimitError(f"{what} = {value} overflows a float")
    return math.ceil(value)


def eta_hilbert(eps: float) -> float:
    """Modulus of uniform convexity of Hilbert space: 1 - sqrt(1 - eps^2/4).

    Defined for eps in (0, 2], nondecreasing, with values in (0, 1].
    """
    if not 0.0 < eps <= 2.0:
        raise ValueError(f"eps must lie in (0, 2], got {eps}")
    return 1.0 - math.sqrt(1.0 - eps * eps / 4.0)
