"""Accretive operator instances: resolvents, zero projections, graph sampling.

An operator ``A`` here is accretive on R^d: ``<u - v, x - y> >= 0`` for all
graph pairs ``(x, u), (y, v)``.  Its resolvent ``(Id + gamma A)^{-1}`` is one
implicit-Euler step of the flow ``u' = -Au``; it is single-valued and
nonexpansive precisely for accretive operators, and its fixed points are the
zeros of ``A``.  Each instance implements, on ``(n, d)`` row batches:

* ``zero_projection_many(X)``   -- nearest points of the zero set,
* ``value_many(X)``             -- ``Ax`` where ``A`` is single-valued,
* ``exact_flow_many(x, ts)``    -- closed-form flow at many times, where one
  exists,

plus ``resolvent(gamma, x, n=1)`` and ``zero_witness()`` (some ``p`` with
``0 in Ap``).  ``resolvent`` returns ``(Id + gamma A)^{-n} x``, the whole
chain of ``n`` implicit-Euler steps of size ``gamma``: the linear operators
apply it in closed form, the quartic well takes a closed-form cubic root
``n`` times.  Its arguments are checked once per chain, not once per step.
The base class supplies the one-point forms ``zero_projection(x)``,
``value(x)`` and ``exact_flow(x, t)`` as row 0 of the batch.
``sample_graph_pairs`` draws graph pairs as ``(X, Y)`` arrays.

The closed-form flows double as independent oracles for the verification
harness.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from .errors import ResourceLimitError
from .space import as_point

#: smallest normal double
_FLOAT_MIN_NORMAL = 2.0 ** -1022

__all__ = [
    "AccretiveOperator",
    "ScaledIdentity",
    "SPDLinear",
    "QuarticWell",
    "make_scaled_identity",
    "make_spd_linear",
    "make_quartic_well",
    "dirichlet_laplacian_1d",
    "sample_graph_pairs",
]


class AccretiveOperator:
    """Base interface; instances are immutable and all methods are pure.

    Subclasses implement the row-batched methods; the one-point forms here
    are row 0 of a one-row batch.

    ``monotone_flow`` opts a class in to the verifiers' end-read of 1-d
    segments (``harness._suffix_extents``); ``AlmostOrbit.limit`` reads the
    flag and decides which curve gets the end-read.  On R every orbit of an
    accretive operator is monotone: S(t) fixes each zero and is
    nonexpansive, so the orbit moves towards Px, the nearest zero of its
    start x, and never crosses a zero.  A class may set the flag only if
    its 1-d ``exact_flow_many`` keeps three promises:

    - at every time where its value is a normal float, it is within 1e-12
      relative of a formula that is monotone in t (products, powers and
      same-signed sums of a few accurately rounded terms are);
    - (a) no computed value passes Px: the sign of x * exp(...), and
      1 + w with w >= 0 for the quartic, keep each value on x's side;
    - (b) once a computed value equals Px, every later one does: np.exp
      returns +0.0 from its underflow edge on, and its argument
      log|x| - alpha t rounds monotonically in t; the quartic's 1 + w
      stays 1.0 once w is too small to round it up.

    If (b) ever failed, a row that the end-read skips would differ from
    Px by a rounding error, far below every target 1/(k+1).
    """

    name: str = "abstract"
    dim: int = 0
    monotone_flow: bool = False

    def resolvent(self, gamma: float, x, n: int = 1) -> np.ndarray:
        """(Id + gamma A)^{-n} x: ``n`` implicit-Euler steps of size
        ``gamma`` from ``x``."""
        raise NotImplementedError

    def zero_projection(self, x) -> np.ndarray:
        return self.zero_projection_many(self._check_dim(x)[None])[0]

    def zero_projection_many(self, X) -> np.ndarray:
        raise NotImplementedError

    def value(self, x) -> np.ndarray:
        return self.value_many(self._check_dim(x)[None])[0]

    def value_many(self, X) -> np.ndarray:
        """Ax row by row where A is single-valued; optional capability."""
        raise NotImplementedError(f"{self.name} has no single-valued evaluation")

    def zero_witness(self) -> np.ndarray:
        raise NotImplementedError

    def exact_flow(self, x, t: float) -> np.ndarray:
        """Closed-form flow value at one time."""
        return self.exact_flow_many(x, [t])[0]

    def exact_flow_many(self, x, ts: np.ndarray) -> np.ndarray:
        """Closed-form flow at many times; rows follow ``ts``.  Optional
        capability."""
        raise NotImplementedError(f"{self.name} has no closed-form flow")

    def graph_norm_bound(self, radius: float) -> int:
        """Integer G with max(||x||, ||value(x)||) <= G whenever
        ||x - zero_witness()|| <= radius."""
        raise NotImplementedError

    def _check_dim(self, x) -> np.ndarray:
        x = as_point(x)
        if x.shape[0] != self.dim:
            raise ValueError(f"{self.name} acts on R^{self.dim}, got {x.shape[0]}-d point")
        return x

    def _check_chain(self, gamma, x, n) -> tuple[np.ndarray, int]:
        """Validated ``(x, n)`` for ``resolvent(gamma, x, n)``."""
        x = self._check_dim(x)
        if not 0 < gamma < math.inf:  # NaN fails too
            raise ValueError(f"gamma must be positive and finite, got {gamma!r}")
        if not isinstance(n, (int, np.integer)) or n < 1:
            raise ValueError(f"n must be an integer >= 1, got {n!r}")
        return x, int(n)


def _decay_times(exponent: np.ndarray, coeff: np.ndarray) -> np.ndarray:
    """exp(exponent) * coeff for ``exponent`` of shape (m, 1) or (m, len(coeff)).

    Where exp(exponent) is below the smallest normal float it has lost
    precision or underflowed to 0, although the product may still be a
    normal float; those entries are copysign(exp(log|coeff| + exponent),
    coeff) instead.  Every other entry is the plain product."""
    decay = np.exp(exponent)
    out = decay * coeff
    low = decay < _FLOAT_MIN_NORMAL
    if low.any():
        with np.errstate(divide="ignore"):  # log 0 = -inf keeps a signed 0
            log_coeff = np.log(np.abs(coeff))
        np.copyto(out, np.copysign(np.exp(log_coeff + exponent), coeff), where=low)
    return out


class ScaledIdentity(AccretiveOperator):
    """Ax = alpha * x with alpha > 0; strongly accretive, zero set {0}.

    Closed forms: resolvent(gamma, x, n) = x / (1 + gamma*alpha)^n and
    flow S(t)x = exp(-alpha t) x.
    """

    monotone_flow = True

    def __init__(self, alpha: float, dim: int):
        if alpha <= 0:
            raise ValueError("alpha must be positive")
        if dim < 1:
            raise ValueError("dimension must be >= 1")
        self.alpha = float(alpha)
        self.dim = int(dim)
        self.name = f"scaled-identity(alpha={self.alpha:g}, d={self.dim})"

    def resolvent(self, gamma, x, n=1):
        """x / (1 + gamma*alpha)^n; a power past the float range divides
        to 0, as the step-by-step chain underflows."""
        x, n = self._check_chain(gamma, x, n)
        with np.errstate(over="ignore"):
            return x / np.float64(1.0 + gamma * self.alpha) ** n

    def zero_projection_many(self, X):
        return np.zeros_like(np.asarray(X, dtype=float))

    def value_many(self, X):
        return self.alpha * np.asarray(X, dtype=float)

    def zero_witness(self):
        return np.zeros(self.dim)

    def exact_flow_many(self, x, ts):
        x = self._check_dim(x)
        ts = np.asarray(ts, dtype=float)
        return _decay_times((-self.alpha * ts)[:, None], x)

    def graph_norm_bound(self, radius):
        # exact: the float product alpha * radius may round below the true one
        return math.ceil(max(1, Fraction(self.alpha)) * Fraction(radius))


class SPDLinear(AccretiveOperator):
    """Ax = Mx for a symmetric positive-definite matrix M.

    Strongly accretive with constant lambda_min(M); zero set {0}.  Both the
    resolvent chain (Id + gamma M)^{-n} x = V diag((1 + gamma lambda)^{-n})
    V^T x and the flow exp(-tM) x are evaluated through the
    eigendecomposition M = V diag(lambda) V^T.
    """

    monotone_flow = True

    def __init__(self, M):
        M = np.asarray(M, dtype=float)
        if M.ndim != 2 or M.shape[0] != M.shape[1]:
            raise ValueError("M must be a square matrix")
        if not np.array_equal(M, M.T):
            raise ValueError("M must be symmetric")
        try:
            np.linalg.cholesky(M)
        except np.linalg.LinAlgError as exc:
            raise ValueError("M must be positive definite") from exc
        self.M = M
        self.dim = M.shape[0]
        self.eigenvalues, self.eigenvectors = np.linalg.eigh(M)
        self.name = f"spd-linear(d={self.dim})"

    def resolvent(self, gamma, x, n=1):
        """The exact n-chain V diag((1 + gamma lambda)^{-n}) V^T x."""
        x, n = self._check_chain(gamma, x, n)
        V = self.eigenvectors
        return V @ ((1.0 + gamma * self.eigenvalues) ** -n * (V.T @ x))

    def zero_projection_many(self, X):
        return np.zeros_like(np.asarray(X, dtype=float))

    def value_many(self, X):
        return np.asarray(X, dtype=float) @ self.M.T

    def zero_witness(self):
        return np.zeros(self.dim)

    def exact_flow_many(self, x, ts):
        x = self._check_dim(x)
        ts = np.asarray(ts, dtype=float)
        V = self.eigenvectors
        coeff = V.T @ x
        return _decay_times(-np.outer(ts, self.eigenvalues), coeff) @ V.T

    def graph_norm_bound(self, radius):
        # ||M||_2 <= the largest absolute row sum, summed exactly: an
        # eigvalsh estimate of lambda_max may lie below the true value
        row_sum = max(sum(abs(Fraction(v)) for v in row) for row in self.M.tolist())
        return math.ceil(max(1, row_sum) * Fraction(radius))


class QuarticWell(AccretiveOperator):
    """Scalar gradient of the two-sided quartic well, flat on [-1, 1].

    A = f' with f(x) = (x-1)^4 on [1, inf), 0 on [-1, 1], (x+1)^4 on
    (-inf, -1].  The zero set is the whole interval [-1, 1] (so the zero is
    not unique), and the nearest-point projection is the clamp to [-1, 1].
    A resolvent step fixes [-1, 1] and maps |x| > 1 to z = sign(x)(1 + w),
    where w is the one real root of the cubic 4 gamma w^3 + w = |x| - 1:
    w = (2/r) sinh(asinh(1.5 (|x| - 1) r) / 3) with r = sqrt(12 gamma)
    (Nickalls, Math. Gazette 1993).  A chain takes that root n times.
    """

    monotone_flow = True

    def __init__(self):
        self.dim = 1
        self.name = "quartic-well"

    def resolvent(self, gamma, x, n=1):
        x, n = self._check_chain(gamma, x, n)
        r = math.sqrt(12.0 * gamma)
        k, scale = 1.5 * r, 2.0 / r
        z = float(x[0])
        for _ in range(n):
            c = abs(z) - 1.0
            if c <= 0.0:  # the flat zone is fixed by every later step
                break
            y = k * c
            if not math.isfinite(y):
                raise ResourceLimitError(f"quartic resolvent step at x={z} overflows")
            z = math.copysign(1.0 + scale * math.sinh(math.asinh(y) / 3.0), z)
        return np.array([z])

    def zero_projection_many(self, X):
        return np.clip(np.asarray(X, dtype=float), -1.0, 1.0)

    def value_many(self, X):
        X = np.asarray(X, dtype=float)
        out = np.zeros_like(X)
        hi = X > 1.0
        lo = X < -1.0
        # a cube beyond the float range is inf; ceil_norm refuses it
        with np.errstate(over="ignore"):
            out[hi] = 4.0 * (X[hi] - 1.0) ** 3
            out[lo] = 4.0 * (X[lo] + 1.0) ** 3
        return out

    def zero_witness(self):
        return np.zeros(1)

    def exact_flow_many(self, x, ts):
        x = self._check_dim(x)
        ts = np.asarray(ts, dtype=float)
        x0 = float(x[0])
        # separable ODE u' = -4(u -/+ 1)^3 away from the flat zone; points
        # inside [-1, 1] are stationary
        if -1.0 <= x0 <= 1.0:
            return np.full((ts.shape[0], 1), x0)
        # w = 1 + ((|x0| - 1)^-2 + 8t)^-0.5, in place; -(1 + w) is -1 - w exactly
        w = 8.0 * ts
        w += (abs(x0) - 1.0) ** -2
        np.power(w, -0.5, out=w)
        w += 1.0
        if x0 < -1.0:
            np.negative(w, out=w)
        return w[:, None]

    def graph_norm_bound(self, radius):
        slope = 4.0 * max(0.0, radius - 1.0) ** 3
        return int(math.ceil(max(radius, slope)))


def make_scaled_identity(alpha: float, dim: int) -> ScaledIdentity:
    return ScaledIdentity(alpha, dim)


def make_spd_linear(M) -> SPDLinear:
    return SPDLinear(M)


def make_quartic_well() -> QuarticWell:
    return QuarticWell()


def dirichlet_laplacian_1d(n: int) -> np.ndarray:
    """Tridiagonal (-1, 2, -1) matrix of size n: the 1-d discrete Dirichlet
    Laplacian (unscaled).  Eigenvalues are 2 - 2 cos(j pi / (n+1))."""
    if n < 1:
        raise ValueError("size must be >= 1")
    return (
        2.0 * np.eye(n)
        - np.diag(np.ones(n - 1), 1)
        - np.diag(np.ones(n - 1), -1)
    )


def sample_graph_pairs(
    op: AccretiveOperator, seed: int, bound: float, count: int
) -> tuple[np.ndarray, np.ndarray]:
    """Draw ``count`` graph pairs with ||x||, ||y|| <= bound as rows of (X, Y).

    x is uniform in the ball of radius ``bound``; y = value(x); pairs with
    ||y|| > bound are rejected and redrawn.
    """
    if bound <= 0:
        raise ValueError("bound must be positive")
    rng = np.random.default_rng(seed)
    X = np.empty((0, op.dim))
    rounds = 0
    while len(X) < count:
        rounds += 1
        if rounds > 1000:
            raise ResourceLimitError(
                f"graph sampling for {op.name} rejected too many draws at bound {bound}"
            )
        m = max(count - len(X), 16)
        direction = rng.normal(size=(m, op.dim))
        direction /= np.maximum(np.linalg.norm(direction, axis=1), 1e-300)[:, None]
        radii = bound * rng.random(m) ** (1.0 / op.dim)
        draws = direction * radii[:, None]
        keep = np.linalg.norm(op.value_many(draws), axis=1) <= bound
        X = np.concatenate([X, draws[keep]])
    X = X[:count]
    return X, op.value_many(X)
