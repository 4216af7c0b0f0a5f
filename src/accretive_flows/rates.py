"""Certified rate calculators for flows and almost-orbits.

All calculators are pure integer computations assembled from a weak zero-gap
modulus ``Omega_w`` plus audited norm bounds.  Integer outputs are read as
times in the flow's time unit.

Core building blocks
--------------------
* ``pairing_dip_rate(b)``: the rate k |-> ceil(b^2/2 + 1) * (k+1).  Along a
  flow started within zero-gap b, the integral of the pairing <v, j> is at
  most b^2/2, so on every window [n, ceil(b^2/2+1)(k+1)+n] the pairing dips
  below 1/(k+1).
* ``orbit_cauchy_threshold``: for a flow from x with ||x - Px|| <= b and
  norm bound K, all times s, s' >= chi(Omega_w(K, id)(2k+1)) satisfy
  ||S(s)x - S(s')x|| <= 1/(k+1), where chi = pairing_dip_rate(b).
* ``closure_cauchy_threshold``: the same certificate for a start point only
  reachable through graph approximants bounded by a nondecreasing f:
  threshold(k) = chi_{b_k}(Omega_w(K_k, id)(6k+5)) with
  b_k = dist_bound + norm_bound + f(3k+2) and K_k = f(3k+2) + 2 p_norm.
* ``zero_gap_threshold`` (Omega): time after which the flow started at any
  u(s) has zero gap <= 1/(k+1):
  chi(Omega_w(K, id)(3k+2)) with chi = pairing_dip_rate(B+1) and
  K = max(G, B+1+p_norm), where G bounds the graph pair at every u(s).
* ``zero_gap_metastability_bound`` (Gamma'), ``orbit_metastability_bound``
  (Gamma): metastability bounds for ||u - Pu|| and for the orbit itself,
  assembled from the combinators

      g(m)    = Omega(3k+2) + f(m + Omega(3k+2)),
      h_N(n)  = f(max(N, n)) + max(N, n) - n,
      j(n)    = max(n, Phi(8k+7, h_n)) - n,
      Gamma'(k, f) = Omega(3k+2) + Phi(omega(B, 3k+2), g),
      Gamma(k, f)  = max{ Gamma'(8k+7, j),
                          Phi(8k+7, h_N) : N <= Gamma'(8k+7, j) },

  where Phi(k, f) bounds some n <= Phi(k, f) with
  ||S(t)u(n) - u(t+n)|| <= 1/(k+1) for all t in [0, f(n)].  Xu's general
  Gamma' adds the max of Omega_m over m <= Phi(omega(B, 3k+2), g), where
  Omega_m may depend on m through a graph bound f_m; with the one bound G
  that max is Omega.  The max over N in Gamma is Phi(8k+7, f) when Phi
  ignores its counterfunction.
* ``almost_orbit_cauchy_threshold``: when the defect rate is a plain rate
  Phi, all t, t' >= max(Phi(8k+7), s* + Omega(3k+2)) with
  s* = Phi(omega(B, 3k+2)) satisfy ||u(t) - u(t')|| <= 1/(k+1).

Note: ``Omega(3k+2)`` always means the *function* Omega applied to the
argument 3k+2 (whose definition then applies its own 3*+2 internally).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

from .errors import ResourceLimitError
from .moduli import RateFn, WeakModulus, identity_rate, rate_label
from .operators import AccretiveOperator
from .semigroup import AlmostOrbit
from .space import as_point, ceil_norm, eta_hilbert, norm

__all__ = [
    "INDEX_CAP",
    "CertifiedThreshold",
    "NRInputs",
    "XuInputs",
    "FromRateFunctional",
    "pairing_dip_rate",
    "orbit_cauchy_threshold",
    "closure_cauchy_threshold",
    "projection_modulus_from_convexity",
    "projection_modulus_identity",
    "zero_gap_threshold",
    "zero_gap_metastability_bound",
    "orbit_metastability_bound",
    "almost_orbit_cauchy_threshold",
]

#: search-loop indices beyond this are treated as pathological
INDEX_CAP = 2**32
#: reported threshold values beyond this are treated as pathological
THRESHOLD_CAP = 2**62


def _chi_mult(b: int) -> int:
    # ceil(b^2/2 + 1) in exact integer arithmetic
    b = int(b)
    return 1 + (b * b + 1) // 2


def pairing_dip_rate(b: int) -> RateFn:
    """Rate k |-> ceil(b^2/2 + 1) * (k+1); window-end scale under which the
    flow pairing <v, j> must dip below 1/(k+1), given initial zero gap <= b."""
    if b < 0:
        raise ValueError("b must be nonnegative")
    mult = _chi_mult(b)

    def rate(k: int) -> int:
        return mult * (k + 1)

    rate.label = f"pairing-dip(b={int(b)})"
    return rate


@dataclass(frozen=True)
class CertifiedThreshold:
    """Map k -> time threshold, plus the provenance of every constant used."""

    fn: Callable[[int], int] = field(repr=False)
    provenance: dict = field(default_factory=dict)

    def __call__(self, k: int) -> int:
        v = int(self.fn(int(k)))
        if v > THRESHOLD_CAP:
            raise ResourceLimitError(f"threshold {v} exceeds cap {THRESHOLD_CAP}")
        return v


@dataclass(frozen=True)
class NRInputs:
    """Audited inputs for the flow Cauchy certificate.

    K bounds max(||v||, ||x - p|| + ||p||) and b bounds ||x - Px||; the
    provenance records which inequality each integer certifies.
    """

    weak_modulus: WeakModulus
    K: int
    b: int
    provenance: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.K < 0 or self.b < 0:
            raise ValueError("K and b must be nonnegative")

    @classmethod
    def from_point(cls, op: AccretiveOperator, x, weak_modulus: WeakModulus) -> "NRInputs":
        x = as_point(x)
        p = op.zero_witness()
        gap = norm(x - op.zero_projection(x))
        b = ceil_norm(gap, "||x - Px||")
        speed = norm(op.value(x))
        reach = norm(x - p) + norm(p)
        K = ceil_norm(max(speed, reach), "max(||v||, ||x - p|| + ||p||)")
        return cls(
            weak_modulus=weak_modulus, K=K, b=b,
            provenance={
                "b": {"value": b, "certifies": "||x - Px|| <= b", "witness": gap},
                "K": {"value": K,
                      "certifies": "max(||v||, ||x - p|| + ||p||) <= K",
                      "witness": max(speed, reach)},
                "v": [float(c) for c in op.value(x)],
                "p": [float(c) for c in p],
                "operator": op.name,
                "weak_modulus": rate_label(weak_modulus),
            },
        )


def orbit_cauchy_threshold(inp: NRInputs) -> CertifiedThreshold:
    """Threshold T(k) = chi(Omega_w(K, id)(2k+1)) with chi = pairing_dip_rate(b):
    beyond it the flow is within 1/(k+1) of itself at all later times."""
    mult = _chi_mult(inp.b)
    omega_w = inp.weak_modulus(inp.K, identity_rate)

    def fn(k: int) -> int:
        return mult * (int(omega_w(2 * k + 1)) + 1)

    prov = dict(inp.provenance)
    prov["chi_multiplier"] = mult
    return CertifiedThreshold(fn=fn, provenance=prov)


def closure_cauchy_threshold(
    weak_modulus: WeakModulus,
    f: RateFn,
    p_norm: int,
    x_norm_bound: int,
    x_dist_bound: int,
) -> CertifiedThreshold:
    """Cauchy threshold for a start point given only through graph approximants.

    f must be nondecreasing with, for every n, some graph pair (u, v) of
    norms <= f(n) and ||u - x|| <= 1/(n+1); p_norm bounds ||p||,
    x_norm_bound bounds ||x||, x_dist_bound bounds ||x - Px||.
    """
    p_norm, x_norm_bound, x_dist_bound = int(p_norm), int(x_norm_bound), int(x_dist_bound)
    if min(p_norm, x_norm_bound, x_dist_bound) < 0:
        raise ValueError("bounds must be nonnegative")

    def fn(k: int) -> int:
        fk = int(f(3 * k + 2))
        b_k = x_dist_bound + x_norm_bound + fk
        K_k = fk + 2 * p_norm
        omega_w = weak_modulus(K_k, identity_rate)
        return _chi_mult(b_k) * (int(omega_w(6 * k + 5)) + 1)

    return CertifiedThreshold(
        fn=fn,
        provenance={
            "f": rate_label(f),
            "p_norm": p_norm,
            "x_norm_bound": x_norm_bound,
            "x_dist_bound": x_dist_bound,
            "b_k": "x_dist_bound + x_norm_bound + f(3k+2)",
            "K_k": "f(3k+2) + 2*p_norm",
            "weak_modulus": rate_label(weak_modulus),
        },
    )


# -------------------------------------------------- projection continuity

def projection_modulus_from_convexity(eta: Callable[[float], float] = eta_hilbert):
    """Uniform-continuity modulus for the zero-set projection derived from a
    modulus of uniform convexity eta.

    With alpha(eps) = min(1, eps/4, eps*eta(eps)/(4(1-eta(eps)))), points
    within (1/2) alpha(eps/(1+r)) of each other (and within distance r of the
    zero set) project within eps.  omega(r, k) is the smallest integer with
    1/(omega+1) below that radius at eps = 1/(k+1), lifted to >= k.
    """

    def alpha(eps: float) -> float:
        e = eta(eps)
        terms = [1.0, eps / 4.0]
        if e < 1.0:
            terms.append(eps * e / (4.0 * (1.0 - e)))
        return min(terms)

    def omega(r: int, k: int) -> int:
        eps = (1.0 / (k + 1)) / (1.0 + r)
        thr = 0.5 * alpha(eps)
        w = max(0, math.ceil(1.0 / thr) - 1)
        return max(w, k)

    omega.label = "from-convexity"
    return omega


def projection_modulus_identity():
    """omega(r, k) = k: exact for nonexpansive projections (the Euclidean
    nearest-point projection onto a convex set is nonexpansive)."""

    def omega(r: int, k: int) -> int:
        return k

    omega.label = "identity"
    return omega


# ------------------------------------------------------- almost-orbit rates

@dataclass(frozen=True)
class FromRateFunctional:
    """Metastability functional Phi(k, f) = rate(k), ignoring f."""

    rate: RateFn
    counterfunction_free = True

    def __call__(self, k: int, f: RateFn) -> int:
        return int(self.rate(k))


@dataclass(frozen=True)
class XuInputs:
    """Audited inputs for the almost-orbit certificates.

    phi is the metastability functional (k, f) -> N of the almost-orbit
    condition; phi_rate additionally holds a plain defect rate when one
    exists.  omega is the projection-continuity modulus (max-lifted so that
    omega(r, k) >= k always holds); B >= 1 bounds ||u(t) - p||; G bounds
    the norms of the graph pair at every u(s); p_norm bounds ||p||.
    """

    weak_modulus: WeakModulus
    phi: Callable[[int, RateFn], int]
    omega: Callable[[int, int], int]
    B: int
    G: int
    p_norm: int
    phi_rate: RateFn | None = None
    provenance: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.B < 1:
            raise ValueError("B must be a positive integer")
        if self.p_norm < 0:
            raise ValueError("p_norm must be nonnegative")
        raw = self.omega

        def lifted(r: int, k: int) -> int:
            return max(int(raw(r, k)), k)

        lifted.label = rate_label(raw)
        object.__setattr__(self, "omega", lifted)

    @classmethod
    def from_orbit(
        cls,
        u: AlmostOrbit,
        weak_modulus: WeakModulus,
        omega: Callable[[int, int], int] | None = None,
        functional: Callable[[int, RateFn], int] | None = None,
    ) -> "XuInputs":
        """Assemble inputs from a perturbed orbit.

        The defect rate of the orbit supplies Phi (unless a custom functional
        is given); constants B, p_norm, and the graph bound G are derived
        from the orbit's radius bound around the operator's zero witness.
        """
        B = int(u.bound_B)
        p_norm = ceil_norm(norm(u.operator.zero_witness()), "||p||")
        G = u.operator.graph_norm_bound(B + p_norm)
        phi = functional if functional is not None else FromRateFunctional(u.rate_phi)
        phi_rate = u.rate_phi if functional is None else None
        return cls(
            weak_modulus=weak_modulus,
            phi=phi,
            omega=omega if omega is not None else projection_modulus_identity(),
            B=B,
            G=G,
            p_norm=p_norm,
            phi_rate=phi_rate,
            provenance={
                "B": {"value": B, "certifies": "||u(t) - p|| <= B for all t"},
                "p_norm": {"value": p_norm, "certifies": "||p|| <= p_norm"},
                "f_s": {"value": G,
                        "certifies": "graph pair at u(s) itself has norms <= f_s(n)"},
                "operator": u.operator.name,
                "weak_modulus": rate_label(weak_modulus),
            },
        )


def zero_gap_threshold(inp: XuInputs, k: int) -> int:
    """Omega(k): time after which the flow from any u(s) has zero gap <= 1/(k+1).

    chi(Omega_w(K, id)(3k+2)) with chi = pairing_dip_rate(B+1) and
    K = max(G, B + 1 + p_norm).
    """
    j = 3 * k + 2
    omega_w = inp.weak_modulus(max(inp.G, inp.B + 1 + inp.p_norm), identity_rate)
    return _chi_mult(inp.B + 1) * (int(omega_w(j)) + 1)


def zero_gap_metastability_bound(inp: XuInputs, k: int, f: RateFn) -> int:
    """Gamma'(k, f) = Omega + Phi(omega(B, 3k+2), m -> Omega + f(m + Omega))
    with Omega = Omega(3k+2): bound on an n with ||u(t) - Pu(t)|| <= 1/(k+1)
    throughout [n, n + f(n)]."""
    j = 3 * k + 2
    om = zero_gap_threshold(inp, j)

    def g(m: int) -> int:
        return om + int(f(m + om))

    first = int(inp.phi(inp.omega(inp.B, j), g))
    if first < 0:
        raise ValueError(f"metastability functional output {first} is negative")
    if first > INDEX_CAP:
        raise ResourceLimitError(f"metastability functional output {first} exceeds cap")
    return first + om


def orbit_metastability_bound(inp: XuInputs, k: int, f: RateFn) -> int:
    """Gamma(k, f): bound on an n such that ||u(t) - u(t')|| <= 1/(k+1) for
    all t, t' in [n, n + f(n)]."""
    k8 = 8 * k + 7

    def h(N: int) -> RateFn:
        return lambda n: int(f(max(N, n))) + max(N, n) - n

    def j_fn(n: int) -> int:
        return max(n, int(inp.phi(k8, h(n)))) - n

    gp = zero_gap_metastability_bound(inp, k8, j_fn)
    if gp > INDEX_CAP:
        raise ResourceLimitError(f"metastability bound {gp} exceeds cap")
    if getattr(inp.phi, "counterfunction_free", False):
        # Phi ignores its counterfunction, so the max over N collapses
        return max(gp, int(inp.phi(k8, f)))
    best = gp
    for N in range(gp + 1):
        best = max(best, int(inp.phi(k8, h(N))))
    return best


def almost_orbit_cauchy_threshold(inp: XuInputs, k: int) -> int:
    """Cauchy threshold for an almost-orbit with a plain defect rate Phi:
    max(Phi(8k+7), s* + Omega(3k+2)) with s* = Phi(omega(B, 3k+2))."""
    if inp.phi_rate is None:
        raise ValueError("almost_orbit_cauchy_threshold needs a plain defect rate")
    rate = inp.phi_rate
    j = 3 * k + 2
    s_star = int(rate(inp.omega(inp.B, j)))
    return max(int(rate(8 * k + 7)), s_star + zero_gap_threshold(inp, j))
