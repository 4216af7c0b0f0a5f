"""Rate-function calculus and quantitative zero-gap moduli.

Throughout, error levels are harmonic: level k means the threshold 1/(k+1).
For a sequence (a_n) of nonnegative reals,

* a *rate of convergence* phi satisfies      a_n <= 1/(k+1) for all n >= phi(k);
* a *liminf rate* phi(k, m) satisfies        a_n <= 1/(k+1) for some n in [m, phi(k,m)];
* a *rate of approximate zeros* phi(k) gives a_n <= 1/(k+1) for some n <= phi(k).

The moduli below quantify the zero-gap property of an accretive operator A
with zero-set projection P: small pairing <y, x - Px> forces a small gap
||x - Px||.  Three strengths are used:

* full modulus  Omega_f(K, k):  for ||x||, ||y|| <= K,
      |<y, x - Px>| <= 1/(Omega_f(K,k)+1)   implies   ||x - Px|| <= 1/(k+1);
* simple modulus Omega(K, phi): maps a rate of convergence phi for
      |<y_n, x_n - Px_n>| into a liminf rate for ||x_n - Px_n||;
* weak modulus  Omega_w(K, phi): maps the same premise into a rate of
      approximate zeros for ||x_n - Px_n||.

A full modulus always chains downward:

    Omega(K, phi)(k, m) = max(m, phi(Omega_f(K, k))),
    Omega_w(K, phi)(k)  = Omega(K, phi)(k, 0).

Dyadic variant: a dyadic zero-gap witness Theta (thresholds 2^-k instead of
1/(k+1)) converts via Omega_f(K, k) = 2^(Theta(K+Z, k)) where Z bounds the
norm of a zero; since 2^-k <= 1/(k+1), the dyadic index k serves the harmonic
index k directly.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .errors import ResourceLimitError
from .operators import AccretiveOperator, sample_graph_pairs

__all__ = [
    "RateFn",
    "LiminfRateFn",
    "FullModulus",
    "SimpleModulus",
    "WeakModulus",
    "ThetaModulus",
    "RateExpr",
    "rate_from_spec",
    "identity_rate",
    "rate_label",
    "full_modulus_strongly_accretive",
    "full_modulus_min_eigenvalue",
    "full_modulus_quartic_well",
    "full_modulus_from_dyadic",
    "full_modulus_linear",
    "theta_scaled_identity",
    "simple_from_full",
    "weak_from_simple",
    "weak_from_full",
    "FullModulusReport",
    "check_full_modulus",
]

RateFn = Callable[[int], int]
LiminfRateFn = Callable[[int, int], int]
FullModulus = Callable[[int, int], int]
ThetaModulus = Callable[[int, int], int]
SimpleModulus = Callable[[int, RateFn], LiminfRateFn]
WeakModulus = Callable[[int, RateFn], RateFn]

#: cap on 2**Theta in the dyadic conversion
DYADIC_EXPONENT_CAP = 62


@dataclass(frozen=True)
class RateExpr:
    """A total rate function N -> N with a serializable description.

    Grammar (used by CLI configs):
        "id" | {"const": c} | {"affine": [a, b]} | {"pow": p} | {"table": [v0, v1, ...]}
    Table lookups clamp to the last entry.
    """

    spec: object
    label: str
    fn: Callable[[int], int] = field(repr=False, compare=False)

    def __call__(self, n: int) -> int:
        v = self.fn(int(n))
        return int(v)


def checked_number(value, integer: bool = False, least=None, above=None):
    """``value`` as an int (``integer``) or a float, with ``least <= value``
    and ``above < value`` where given.  Bools, non-numbers, non-finite
    numbers and, for ``integer``, fractions raise ValueError; ``2.0`` reads
    as 2."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"must be a number, got {value!r}")
    try:
        number = int(value) if integer else float(value)
    except (OverflowError, ValueError):  # int() of inf or NaN, float() of a huge int
        number = math.nan
    if number != number or abs(number) == math.inf:
        raise ValueError(f"must be finite, got {value!r}")
    if integer and number != value:
        raise ValueError(f"must be an integer, got {value!r}")
    if least is not None and number < least:
        raise ValueError(f"must be >= {least}, got {number}")
    if above is not None and number <= above:
        raise ValueError(f"must be > {above}, got {number}")
    return number


def rate_from_spec(spec) -> RateExpr:
    """The rate expression ``spec``; its numbers are integers >= 0 under
    ``checked_number``."""
    if spec == "id":
        return RateExpr("id", "id", lambda n: n)
    ((kind, arg),) = spec.items() if isinstance(spec, dict) and len(spec) == 1 else (("", None),)
    try:
        if kind in ("const", "pow"):
            v = checked_number(arg, integer=True, least=0)
            return RateExpr({kind: v}, f"{kind}:{v}",
                            (lambda n: v) if kind == "const" else (lambda n: n**v))
        vs = ([checked_number(v, integer=True, least=0) for v in arg]
              if isinstance(arg, list) else [])
        if kind == "table" and vs:
            return RateExpr({"table": vs}, f"table:{vs}", lambda n: vs[min(n, len(vs) - 1)])
        if kind == "affine" and len(vs) == 2:
            a, b = vs
            return RateExpr({"affine": vs}, f"affine:{a}n+{b}", lambda n: a * n + b)
    except ValueError as exc:
        raise ValueError(f"rate expression {spec!r}: {exc}") from None
    raise ValueError(f"unrecognized rate expression: {spec!r}")


identity_rate = rate_from_spec("id")


def rate_label(fn) -> str:
    return getattr(fn, "label", getattr(fn, "__name__", repr(fn)))


def _labeled(fn, label: str):
    fn.label = label
    return fn


# ----------------------------------------------------------------- instances

def _quadratic_full_modulus(kind: str, name: str, a: int) -> FullModulus:
    """Full modulus a(k+1)^2 - 1 labelled ``kind(name=a)``, for an integer a >= 1."""
    a = int(a)
    if a < 1:
        raise ValueError(f"{name} must be a positive integer")
    return _labeled(lambda K, k: a * (k + 1) ** 2 - 1, f"{kind}({name}={a})")


def full_modulus_strongly_accretive(a: int) -> FullModulus:
    """Full modulus a(k+1)^2 - 1 for operators with
    <u - v, x - y> >= alpha ||x - y||^2 and alpha >= 1/a."""
    return _quadratic_full_modulus("strongly-accretive", "a", a)


def full_modulus_min_eigenvalue(lam: int) -> FullModulus:
    """Full modulus Lambda(k+1)^2 - 1 for SPD linear operators whose
    eigenvalues are bounded below by 1/Lambda (e.g. discrete Laplacians)."""
    return _quadratic_full_modulus("min-eigenvalue", "Lambda", lam)


def full_modulus_quartic_well() -> FullModulus:
    """Full modulus (k+1)^4 - 1 for the two-sided quartic well: its potential
    satisfies <y, x - Px> >= f(x), and f(x) <= eps pins x within eps^(1/4) of
    the flat zone."""
    return _labeled(lambda K, k: (k + 1) ** 4 - 1, "quartic-well")


def full_modulus_from_dyadic(theta: ThetaModulus, Z: int) -> FullModulus:
    """Convert a dyadic zero-gap witness Theta into a full modulus
    2^(Theta(K+Z, k)), where Z >= norm of a zero of the operator."""
    Z = int(Z)
    if Z < 0:
        raise ValueError("Z must be nonnegative")

    def full(K: int, k: int) -> int:
        e = int(theta(K + Z, k))
        if e > DYADIC_EXPONENT_CAP:
            raise ResourceLimitError(
                f"dyadic conversion exponent {e} exceeds 2^{DYADIC_EXPONENT_CAP}"
            )
        return 2**e

    return _labeled(full, f"from-dyadic(Z={Z})")


def full_modulus_linear() -> FullModulus:
    """The modulus (K, k) -> k.  Far too weak for any of the shipped
    operators; kept in the registry as a counterexample generator."""
    return _labeled(lambda K, k: k, "linear-k")


def theta_scaled_identity(alpha: float) -> ThetaModulus:
    """Dyadic zero-gap witness for Ax = alpha x: whenever
    ||x - 0|| in [2^-k, K], <Ax, x - 0> = alpha ||x||^2 >= 2^-Theta_K(k)
    with Theta_K(k) = 2k + max(0, ceil(log2(1/alpha)))."""
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    shift = max(0, math.ceil(-math.log2(alpha)))
    return _labeled(lambda K, k: 2 * k + shift, f"dyadic-scaled-identity(alpha={alpha:g})")


# --------------------------------------------------------------- conversions

def simple_from_full(full: FullModulus) -> SimpleModulus:
    """Simple modulus Omega(K, phi)(k, m) = max(m, phi(full(K, k)))."""

    label = f"simple({rate_label(full)})"

    def simple(K: int, phi: RateFn) -> LiminfRateFn:
        return _labeled(lambda k, m: max(int(m), int(phi(full(K, k)))), label)

    return _labeled(simple, label)


def weak_from_simple(simple: SimpleModulus) -> WeakModulus:
    """Weak modulus Omega_w(K, phi)(k) = Omega(K, phi)(k, 0)."""

    label = f"weak({rate_label(simple)})"

    def weak(K: int, phi: RateFn) -> RateFn:
        liminf = simple(K, phi)
        return _labeled(lambda k: liminf(k, 0), label)

    return _labeled(weak, label)


def weak_from_full(full: FullModulus) -> WeakModulus:
    return weak_from_simple(simple_from_full(full))


# -------------------------------------------------------------------- checks

@dataclass
class FullModulusReport:
    """Scan of the full-modulus implication over graph samples.

    A violation is a pair that satisfies the pairing premise (with +tol
    slack) yet exceeds the zero-gap conclusion by more than tol.
    """

    operator: str
    modulus: str
    K: int
    k_max: int
    n_pairs: int
    tol: float
    per_k: list[dict] = field(default_factory=list)
    violations: list[dict] = field(default_factory=list)


def _pairs_from_points(op: AccretiveOperator, points, K: float):
    X = np.asarray(points, dtype=float)
    if X.ndim == 1:
        X = X[:, None]
    Y = op.value_many(X)
    keep = (np.linalg.norm(X, axis=1) <= K) & (np.linalg.norm(Y, axis=1) <= K)
    return X[keep], Y[keep]


def _pairings_and_gaps(op: AccretiveOperator, X, Y):
    """|<y, x - Px>| and ||x - Px|| for every row of the graph sample (X, Y)."""
    PX = op.zero_projection_many(X)
    return np.abs(np.einsum("ij,ij->i", Y, X - PX)), np.linalg.norm(X - PX, axis=1)


def check_full_modulus(
    op: AccretiveOperator,
    full: FullModulus,
    K: int,
    k_max: int,
    tol: float,
    n_samples: int | None = None,
    points: Sequence | None = None,
    seed: int = 0,
    max_reported: int = 200,
) -> FullModulusReport:
    """Test the implication |<y, x-Px>| <= 1/(full(K,k)+1)  =>  ||x-Px|| <= 1/(k+1)
    on sampled (or grid-given) graph pairs with ||x||, ||y|| <= K, for k <= k_max.

    Both sides carry additive slack tol.
    """
    if (n_samples is None) == (points is None):
        raise ValueError("provide exactly one of n_samples or points")
    if points is not None:
        X, Y = _pairs_from_points(op, points, K)
    else:
        X, Y = sample_graph_pairs(op, seed, K, n_samples)

    report = FullModulusReport(
        operator=op.name, modulus=rate_label(full), K=int(K), k_max=int(k_max),
        n_pairs=len(X), tol=tol,
    )
    if not len(X):
        return report

    pairings, gaps = _pairings_and_gaps(op, X, Y)

    for k in range(k_max + 1):
        premise_thr = 1.0 / (int(full(K, k)) + 1)
        conclusion_thr = 1.0 / (k + 1)
        premise = pairings <= premise_thr + tol
        bad = premise & (gaps > conclusion_thr + tol)
        n_bad = int(np.count_nonzero(bad))
        worst = float(np.max(gaps[premise])) if np.any(premise) else 0.0
        report.per_k.append(
            {"k": k, "premise_threshold": premise_thr, "n_premise": int(np.count_nonzero(premise)),
             "worst_gap_under_premise": worst, "n_violations": n_bad}
        )
        idx = np.flatnonzero(bad)[:max_reported]
        report.violations += [{"k": k, "x": x, "pairing": p, "gap": g} for x, p, g in
                              zip(X[idx].tolist(), pairings[idx].tolist(), gaps[idx].tolist())]
        if n_bad > max_reported:
            report.violations.append({"k": k, "truncated": n_bad - max_reported})
    return report
