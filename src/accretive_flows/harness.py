"""Empirical verification of certified rates against independent oracles.

Every ``verify_*`` function probes a certificate on a finite time grid and
returns a Report whose rows carry the certified bound, the worst observed
deviation, and a status:

* PASS            -- observed deviation within the certified target,
* PASS-WITH-SLACK -- within target + tolerance,
* FAIL            -- beyond target + tolerance.

Continuous quantifiers are necessarily sampled; the report records grid step
and horizon so failures can be refined.  Flow values are taken from the
operators' closed forms (exact oracles) so that observed deviations measure
the certificates, not the evaluator.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, fields, asdict
from typing import Callable, Sequence

import numpy as np

from .errors import ConfigurationError, ResourceLimitError
from .moduli import (
    FullModulus,
    RateFn,
    check_full_modulus,
    checked_number,
    full_modulus_from_dyadic,
    full_modulus_linear,
    full_modulus_min_eigenvalue,
    full_modulus_quartic_well,
    full_modulus_strongly_accretive,
    rate_from_spec,
    rate_label,
    theta_scaled_identity,
    weak_from_full,
)
from .operators import (
    AccretiveOperator,
    dirichlet_laplacian_1d,
    make_quartic_well,
    make_scaled_identity,
    make_spd_linear,
)
from .rates import (
    CertifiedThreshold,
    ConstantFunctional,
    FromRateFunctional,
    NRInputs,
    XuInputs,
    almost_orbit_cauchy_threshold,
    orbit_cauchy_threshold,
    closure_cauchy_threshold,
    orbit_metastability_bound,
    pairing_dip_rate,
    projection_modulus_from_convexity,
    projection_modulus_identity,
)
from .semigroup import AlmostOrbit, evaluate_oracle_many, make_almost_orbit
from .space import as_point, norm

__all__ = [
    "PASS",
    "PASS_WITH_SLACK",
    "FAIL",
    "ReportRow",
    "Report",
    "verify_integrable_dip",
    "verify_flow_pairing_dip",
    "verify_cauchy_rate",
    "verify_orbit_cauchy",
    "verify_metastability",
    "CertifiedSequence",
    "empirical_rate_of_convergence",
    "certified_graph_sequence",
    "registered_pairs",
    "build_operator",
    "build_full_modulus",
    "ExperimentConfig",
    "run_experiment",
    "instance_listing",
]

PASS = "PASS"
PASS_WITH_SLACK = "PASS-WITH-SLACK"
FAIL = "FAIL"

#: pairwise verifiers and modulus-check sampling refuse grids beyond this
MAX_GRID_POINTS = 10**6
#: verify_metastability refuses to evaluate more points than this per cell
MAX_WINDOW_EVALS = 10**7
#: d > 1 point sets beyond this many rows are refused by the diameter
EXACT_DIAMETER_ROWS = 4096
#: configs may not ask for an operator on more dimensions than this
MAX_OPERATOR_DIM = 1024
#: rows per block of the pairwise diameter scan; small blocks stay in cache
_DIAMETER_BLOCK = 32


def _status(observed: float, target: float, slack: float) -> str:
    if observed <= target:
        return PASS
    if observed <= target + slack:
        return PASS_WITH_SLACK
    return FAIL


def _plain(obj):
    """Recursively convert to JSON-serializable python primitives."""
    if isinstance(obj, dict):
        return {str(k): _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_plain(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating, float)):
        return float(obj)
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    if obj is None or isinstance(obj, (str, bool)):
        return obj
    return str(obj)


@dataclass
class ReportRow:
    k: int
    counterfunction: str
    certified_bound: float
    worst_observed: float
    target: float
    slack: float
    status: str
    witness: int | None = None
    detail: dict = field(default_factory=dict)


@dataclass
class Report:
    """Outcome of one verification scenario.

    ``runtime_seconds`` is set by ``run_experiment`` and excluded from
    serialization so that identical runs produce byte-identical reports.
    """

    scenario: str
    rows: list[ReportRow] = field(default_factory=list)
    violations: list[dict] = field(default_factory=list)
    provenance: dict = field(default_factory=dict)
    grid: dict = field(default_factory=dict)
    seed: int | None = None
    config: dict | None = None
    runtime_seconds: float = 0.0

    @property
    def passed(self) -> bool:
        return not self.violations and all(r.status != FAIL for r in self.rows)

    def to_dict(self) -> dict:
        rows = [_plain(asdict(r)) for r in self.rows]
        n_slack = sum(1 for r in self.rows if r.status == PASS_WITH_SLACK)
        n_fail = sum(1 for r in self.rows if r.status == FAIL)
        return {
            "scenario": self.scenario,
            "passed": self.passed,
            "seed": self.seed,
            "grid": _plain(self.grid),
            "provenance": _plain(self.provenance),
            "rows": rows,
            "violations": _plain(self.violations),
            "summary": {"rows": len(rows), "failures": n_fail, "pass_with_slack": n_slack},
            "config": _plain(self.config) if self.config is not None else None,
        }


def _suffix_diameters(points: np.ndarray, starts: Sequence[int]) -> list[float]:
    """Largest pairwise distance among the rows of ``points[s:]`` for every
    ``s`` in ``starts``.

    All suffixes come from one pass.  1-d data is exact through a reversed
    running max and min.  For d > 1, each row's largest squared distance to
    a later row is computed block by block; a reversed running max of those
    gives every suffix exactly.  A d > 1 suffix longer than
    ``EXACT_DIAMETER_ROWS`` raises ResourceLimitError.
    """
    n, d = points.shape
    cuts = sorted({s for s in starts if s < n - 1})
    exact = {}
    if cuts and d == 1:
        col = points[:, 0]
        spread = _suffix_reduce(np.maximum, col, cuts) - _suffix_reduce(np.minimum, col, cuts)
        exact = dict(zip(cuts, spread.tolist()))
    elif cuts:
        m = cuts[0]
        if n - m > EXACT_DIAMETER_ROWS:
            raise ResourceLimitError(f"diameter of {n - m} points in R^{d} exceeds "
                                     f"{EXACT_DIAMETER_ROWS} rows")
        sq = _suffix_reduce(np.maximum, _later_row_maxima(points[m:]), [c - m for c in cuts])
        exact = dict(zip(cuts, np.sqrt(sq).tolist()))
    return [exact.get(s, 0.0) for s in starts]


def _suffix_reduce(ufunc: np.ufunc, values: np.ndarray, cuts: list[int]) -> np.ndarray:
    """``ufunc.reduce(values[c:])`` for each of the sorted ``cuts``."""
    return ufunc.accumulate(ufunc.reduceat(values, cuts)[::-1])[::-1]


def _later_row_maxima(points: np.ndarray) -> np.ndarray:
    """Row i: the largest squared distance from row i to a later row (0 for
    the last row)."""
    n, d = points.shape
    out = np.zeros(n)
    earlier = np.tri(_DIAMETER_BLOCK, dtype=bool)  # pairs j <= i inside a block
    coords = np.ascontiguousarray(points.T)
    sq_buf, diff_buf = np.empty((2, _DIAMETER_BLOCK * n))
    for i0 in range(0, n, _DIAMETER_BLOCK):
        b, width = min(_DIAMETER_BLOCK, n - i0), n - i0
        sq = sq_buf[:b * width].reshape(b, width)
        if d < 8:
            # coordinate by coordinate, in order: the same bits numpy's sum
            # gives for fewer than 8 terms, without a (b, width, d) temporary
            diff = diff_buf[:b * width].reshape(b, width)
            sq.fill(0.0)
            for col in coords[:, i0:]:
                np.subtract(col[:b, None], col[None, :], out=diff)
                diff *= diff
                sq += diff
        else:
            # numpy's pairwise summation regroups 8 or more terms
            ((points[i0:i0 + b, None, :] - points[None, i0:, :]) ** 2).sum(-1, out=sq)
        sq[:, :b][earlier[:b, :b]] = 0.0
        sq.max(axis=1, out=out[i0:i0 + b])
    return out


def _diameter(points: np.ndarray) -> float:
    """Largest pairwise distance among row vectors; the one-suffix case of
    ``_suffix_diameters``."""
    return _suffix_diameters(points, [0])[0]


def _capped_grid(lo: float, hi: float, step: float) -> np.ndarray:
    """``np.arange(lo, hi + step / 2, step)``, refused before it is allocated
    when it would hold more than ``MAX_GRID_POINTS`` points."""
    # np.arange's own length formula
    n_points = math.ceil((hi + step / 2 - lo) / step)
    if n_points > MAX_GRID_POINTS:
        raise ResourceLimitError(
            f"grid from {lo} to {hi} at step {step} needs {n_points} grid points"
        )
    return np.arange(lo, hi + step / 2, step)


def _window_grid(lo: float, hi: float, step: float) -> np.ndarray:
    ts = np.arange(lo, hi + step / 2, step)
    if ts.size == 0 or ts[-1] < hi - 1e-12:
        ts = np.append(ts, hi)
    return ts


# ------------------------------------------------------------ dip verifiers

def _dip_windows(
    report: Report,
    width: Callable[[int], int],
    best_in: Callable[[np.ndarray], float],
    k_max: int,
    n_max: int,
    grid_step: float,
    tol: float,
) -> Report:
    """For every k <= k_max and n <= n_max, the smallest value ``best_in``
    finds on the grid of the window [n, width(k) + n] must be at most
    1/(k+1) + tol; one row per k, one violation per failing window."""
    for k in range(k_max + 1):
        target = 1.0 / (k + 1)
        worst = 0.0
        for n in range(n_max + 1):
            best = best_in(_window_grid(n, width(k) + n, grid_step))
            worst = max(worst, best)
            if best > target + tol:
                report.violations.append({"k": k, "n": n, "best": best})
        report.rows.append(ReportRow(
            k=k, counterfunction="-", certified_bound=float(width(k)),
            worst_observed=worst, target=target, slack=tol,
            status=_status(worst, target, tol),
        ))
    return report


def verify_integrable_dip(
    f: Callable[[float], float],
    L: float,
    k_max: int,
    n_max: int,
    grid_step: float = 0.25,
    tol: float = 1e-9,
) -> Report:
    """For f >= 0 with integral <= L: every window [n, ceil(L+1)(k+1)+n]
    must contain a grid point where f <= 1/(k+1) + tol."""
    width_mult = math.ceil(L + 1)
    report = Report(
        scenario="integrable-dip",
        provenance={"L": L, "window": "ceil(L+1)*(k+1)+n"},
        grid={"grid_step": grid_step, "k_max": k_max, "n_max": n_max},
    )
    return _dip_windows(report, lambda k: width_mult * (k + 1),
                        lambda ts: float(min(map(f, ts.tolist()))),
                        k_max, n_max, grid_step, tol)


def verify_flow_pairing_dip(
    op: AccretiveOperator,
    x,
    b: int,
    k_max: int,
    n_max: int = 10,
    grid_step: float = 0.25,
    tol: float = 1e-9,
) -> Report:
    """Along the flow from x with ||x - Px|| <= b, every window
    [n, ceil(b^2/2+1)(k+1)+n] must contain a grid point where the pairing
    <A w(t), w(t) - Pw(t)> <= 1/(k+1) + tol."""
    x = as_point(x)
    report = Report(
        scenario="flow-pairing-dip",
        provenance={"operator": op.name, "b": int(b), "window": "ceil(b^2/2+1)*(k+1)+n"},
        grid={"grid_step": grid_step, "k_max": k_max, "n_max": n_max},
    )

    def least_pairing(ts: np.ndarray) -> float:
        W = evaluate_oracle_many(op, x, ts)
        V = op.value_many(W)
        J = W - op.zero_projection_many(W)
        return float(np.einsum("ij,ij->i", V, J).min())

    return _dip_windows(report, pairing_dip_rate(b), least_pairing, k_max, n_max, grid_step, tol)


# --------------------------------------------------------- Cauchy verifiers

def _verify_pairwise(
    scenario: str,
    curve_many: Callable[[np.ndarray], np.ndarray],
    threshold: Callable[[int], int],
    k_range: Sequence[int],
    grid_step: float,
    horizon_pad: float,
    tol: float,
    provenance: dict | None = None,
) -> Report:
    ks = sorted(int(k) for k in k_range)
    thresholds = {k: int(threshold(k)) for k in ks}
    t_lo = min(thresholds.values())
    horizon = max(thresholds.values()) + horizon_pad
    grid = _capped_grid(t_lo, horizon, grid_step)
    points = curve_many(grid)
    report = Report(
        scenario=scenario,
        provenance=dict(provenance or {}),
        # flow values come from exact oracles, so no evaluator error widens the slack
        grid={"grid_step": grid_step, "horizon": float(horizon), "points": int(grid.size),
              "err_bound": 0.0},
    )
    starts = [int(np.searchsorted(grid, thresholds[k] - 1e-9)) for k in ks]
    for k, extent in zip(ks, _suffix_diameters(points, starts)):
        target = 1.0 / (k + 1)
        status = _status(extent, target, tol)
        report.rows.append(ReportRow(
            k=k, counterfunction="-", certified_bound=float(thresholds[k]),
            worst_observed=extent, target=target, slack=tol, status=status,
            detail={"pairs": "exact"},
        ))
        if status == FAIL:
            report.violations.append({"k": k, "threshold": thresholds[k], "extent": extent})
    return report


def verify_cauchy_rate(
    op: AccretiveOperator,
    x,
    threshold: CertifiedThreshold,
    k_range: Sequence[int],
    grid_step: float = 0.25,
    horizon_pad: float = 10.0,
    tol: float = 1e-9,
) -> Report:
    """Check ||S(s)x - S(s')x|| <= 1/(k+1) for all grid pairs s, s' beyond
    threshold(k), against the operator's exact flow."""
    x = as_point(x)
    return _verify_pairwise(
        scenario="cauchy-rate",
        curve_many=lambda ts: evaluate_oracle_many(op, x, ts),
        threshold=threshold,
        k_range=k_range,
        grid_step=grid_step,
        horizon_pad=horizon_pad,
        tol=tol,
        provenance={"operator": op.name, **getattr(threshold, "provenance", {})},
    )


def verify_orbit_cauchy(
    u: AlmostOrbit,
    threshold: Callable[[int], int],
    k_range: Sequence[int],
    grid_step: float = 0.25,
    horizon_pad: float = 10.0,
    tol: float = 1e-9,
    provenance: dict | None = None,
) -> Report:
    """Check ||u(t) - u(t')|| <= 1/(k+1) for all grid pairs beyond threshold(k)."""
    return _verify_pairwise(
        scenario="orbit-cauchy",
        curve_many=u.evaluate_many,
        threshold=threshold,
        k_range=k_range,
        grid_step=grid_step,
        horizon_pad=horizon_pad,
        tol=tol,
        provenance=provenance or {},
    )


# ---------------------------------------------------- metastability verifier

def verify_metastability(
    u: AlmostOrbit,
    gamma_bound: Callable[[int, RateFn], int],
    k_range: Sequence[int],
    counterfunctions: Sequence[RateFn],
    grid_step: float = 0.25,
    tol: float = 1e-9,
) -> Report:
    """For each k and counterfunction f, search n <= gamma_bound(k, f) for a
    window [n, n + f(n)] on which the orbit moves at most 1/(k+1) + tol;
    report the witnessing n."""
    report = Report(
        scenario="metastability",
        grid={"grid_step": grid_step},
        provenance={"operator": u.operator.name, "B": u.bound_B},
    )
    for k in sorted(int(k) for k in k_range):
        target = 1.0 / (k + 1)
        for f in counterfunctions:
            bound = int(gamma_bound(k, f))
            budget = MAX_WINDOW_EVALS
            witness = None
            observed = math.inf
            for n in range(bound + 1):
                ts = _window_grid(n, n + int(f(n)), grid_step)
                budget -= ts.size
                if budget < 0:
                    raise ResourceLimitError(
                        f"metastability search at k={k} exceeded the evaluation budget"
                    )
                extent = _diameter(u.evaluate_many(ts))
                observed = min(observed, extent)
                if extent <= target + tol:
                    witness = n
                    observed = extent
                    break
            status = _status(observed, target, tol) if witness is not None else FAIL
            report.rows.append(ReportRow(
                k=k, counterfunction=rate_label(f), certified_bound=float(bound),
                worst_observed=float(observed), target=target, slack=tol,
                status=status, witness=witness,
            ))
            if witness is None:
                report.violations.append(
                    {"k": k, "counterfunction": rate_label(f), "bound": bound}
                )
    return report


# ------------------------------------------------------ certified sequences

@dataclass(frozen=True)
class CertifiedSequence:
    """A graph sequence, rows of (X, Y), with an empirically certified
    pairing rate."""

    X: np.ndarray
    Y: np.ndarray
    phi: RateFn
    K: int


def empirical_rate_of_convergence(values: Sequence[float]) -> RateFn:
    """Rate derived from suffix maxima of observed values.

    phi(k) is the first index from which every later observed value stays
    below 1/(k+1).  Thresholds never reached in the data map to len(values),
    so downstream window checks fail loudly ("sequence too short") instead
    of trusting an uncertified level.
    """
    arr = np.asarray(list(values), dtype=float)
    suffix = np.maximum.accumulate(arr[::-1])[::-1]

    def phi(k: int) -> int:
        thr = 1.0 / (k + 1)
        idx = np.searchsorted(-suffix, -thr)  # suffix is nonincreasing
        return int(min(idx, len(suffix)))

    phi.label = "empirical"
    return phi


def certified_graph_sequence(
    op: AccretiveOperator, x0, count: int = 64, spacing: float = 1.0
) -> CertifiedSequence:
    """Graph pairs sampled along the exact flow from x0 at unit-ish spacing,
    with the pairing rate certified from the data itself."""
    x0 = as_point(x0)
    ts = np.arange(count, dtype=float) * spacing
    X = evaluate_oracle_many(op, x0, ts)
    Y = op.value_many(X)
    PX = op.zero_projection_many(X)
    pairings = np.abs(np.einsum("ij,ij->i", Y, X - PX))
    K = int(math.ceil(max(
        float(np.linalg.norm(X, axis=1).max()),
        float(np.linalg.norm(Y, axis=1).max()),
    )))
    return CertifiedSequence(X=X, Y=Y, phi=empirical_rate_of_convergence(pairings), K=max(K, 1))


# ---------------------------------------------------------------- registry

def _named(field_name: str, convert, *args):
    """``convert(*args)``; a ValueError or TypeError it raises becomes a
    ConfigurationError that names ``field_name``, unless it names a field."""
    try:
        return convert(*args)
    except ConfigurationError:
        raise
    except (TypeError, ValueError) as exc:
        raise ConfigurationError(field_name, str(exc)) from exc


def _checked(value, field_name: str, integer: bool = False, least=None, above=None):
    """``checked_number`` of one config value; errors name ``field_name``."""
    return _named(field_name, checked_number, value, integer, least, above)


class _Fields:
    """Checked reads of config object ``spec``; errors name ``<prefix>.<key>``.
    An absent or null key reads as ``default`` (refused when None), and
    ``done`` refuses the keys that nothing read."""

    def __init__(self, spec, prefix: str):
        if spec is not None and not isinstance(spec, dict):
            raise ConfigurationError(prefix, "must be an object")
        self.spec, self.prefix, self.read = spec or {}, prefix, set()

    def name(self, key: str) -> str:
        return f"{self.prefix}.{key}"

    def get(self, key: str, default=None):
        self.read.add(key)
        value = self.spec.get(key)
        if value is None and default is None:
            raise ConfigurationError(self.name(key), "missing required key")
        return default if value is None else value

    def int(self, key: str, least=None, cap=None, default=None) -> int:
        number = _checked(self.get(key, default), self.name(key), True, least)
        if cap is not None and number > cap:
            raise ResourceLimitError(f"{self.name(key)} {number} exceeds the cap {cap}")
        return number

    def real(self, key: str, least=None, above=None, default=None) -> float:
        return _checked(self.get(key, default), self.name(key), False, least, above)

    def choice(self, key: str, options, default=None) -> str:
        value = self.get(key, default)
        if not isinstance(value, str) or value not in options:
            raise ConfigurationError(self.name(key), f"must be one of {', '.join(options)}")
        return value

    def rate(self, key: str) -> RateFn:
        return _named(self.name(key), rate_from_spec, self.get(key))

    def done(self) -> None:
        for key in self.spec:
            if key not in self.read:
                raise ConfigurationError(self.name(key), "unknown field")


# Each table maps a config ``kind`` to (its parameters, as list-instances
# shows them for operators and moduli; its builder from the config object's
# ``_Fields``).

_OPERATORS = {
    "scaled-identity": ("alpha (>0), dim (>=1)", lambda s: make_scaled_identity(
        s.real("alpha", above=0, default=1.0),
        s.int("dim", least=1, cap=MAX_OPERATOR_DIM, default=1))),
    "spd": ("matrix (symmetric positive definite)", lambda s: make_spd_linear(
        np.asarray(s.get("matrix"), dtype=float))),
    "spd-laplacian-1d": ("size (tridiagonal -1,2,-1)", lambda s: make_spd_linear(
        dirichlet_laplacian_1d(s.int("size", least=1, cap=MAX_OPERATOR_DIM)))),
    "quartic-well": ("none (scalar, zero set [-1,1])", lambda s: make_quartic_well()),
}

_MODULI = {
    "strongly-accretive": ("a (integer >= ceil(1/alpha))", lambda s:
        full_modulus_strongly_accretive(s.int("a", least=1))),
    "laplacian": ("Lambda (integer >= 1/lambda_min)", lambda s: full_modulus_min_eigenvalue(
        s.int("Lambda", least=1))),
    "quartic-well": ("none", lambda s: full_modulus_quartic_well()),
    "linear-k": ("none (deliberately weak; counterexamples)", lambda s: full_modulus_linear()),
    "dyadic-scaled-identity": ("alpha, Z", lambda s: full_modulus_from_dyadic(
        theta_scaled_identity(s.real("alpha", above=0, default=1.0)),
        s.int("Z", least=0, default=0))),
}

_OMEGAS = {
    "identity": ("none", lambda s: projection_modulus_identity()),
    "from-convexity": ("none", lambda s: projection_modulus_from_convexity()),
}

#: metastability functionals; None stands for the orbit's own rate
_FUNCTIONALS = {
    "orbit-rate": ("none", lambda s: None),
    "from-rate": ("rate (rate expression)", lambda s: FromRateFunctional(s.rate("rate"))),
    "constant": ("value (integer >= 0)", lambda s: ConstantFunctional(s.int("value", least=0))),
}


def _build(table: dict, spec, field_name: str):
    """Build the ``table`` kind that config object ``spec`` names; errors
    name ``field_name`` or one of its keys."""
    fields_ = _Fields(spec, field_name)
    built = _named(field_name, table[fields_.choice("kind", table)][1], fields_)
    fields_.done()
    return built


def build_operator(spec: dict) -> AccretiveOperator:
    return _build(_OPERATORS, spec, "operator")


def build_full_modulus(spec: dict) -> FullModulus:
    return _build(_MODULI, spec, "modulus")


def registered_pairs() -> list[tuple[str, AccretiveOperator, FullModulus]]:
    """The canonical operator/modulus zoo used by conversion-chain checks."""
    return [(name, build_operator(op), build_full_modulus(full)) for name, op, full in (
        ("scaled-identity+strongly-accretive", {"kind": "scaled-identity", "alpha": 1.0, "dim": 1},
         {"kind": "strongly-accretive", "a": 1}),
        ("spd-laplacian-1d+laplacian",
         {"kind": "spd-laplacian-1d", "size": 4}, {"kind": "laplacian", "Lambda": 3}),
        ("quartic-well+quartic-well", {"kind": "quartic-well"}, {"kind": "quartic-well"}),
        ("scaled-identity+dyadic-chain", {"kind": "scaled-identity", "alpha": 1.0, "dim": 2},
         {"kind": "dyadic-scaled-identity", "alpha": 1.0, "Z": 0}),
    )]


def instance_listing() -> str:
    lines = []
    for title, table in (("operators", _OPERATORS), ("moduli", _MODULI)):
        lines.append(f"{title}:")
        lines += [f"  {kind:<20} params: {text}" for kind, (text, _) in table.items()]
    lines.append("registered operator+modulus pairs:")
    for name, op, full in registered_pairs():
        lines.append(f"  {name}  ({op.name} with {rate_label(full)})")
    return "\n".join(lines)


# ------------------------------------------------------------- experiments

_INTEGRANDS = {
    "inv-square": lambda t: 1.0 / (1.0 + t) ** 2,
    "zero": lambda t: 0.0,
}


def _norm_bound(spec: _Fields, key: str, what: str, value: float) -> int:
    """The integer bound ``spec``'s ``key`` on the norm ``what`` = ``value``;
    it defaults to ceil(value) and is refused below ``value``."""
    bound = spec.int(key, least=0, default=math.ceil(value))
    if bound < value:
        raise ConfigurationError(spec.name(key), f"must be >= {what} = {value:g}, got {bound}")
    return bound


@dataclass
class ExperimentConfig:
    """Declarative description of one verification experiment."""

    scenario: str
    operator: dict | None = None
    initial_point: list | None = None
    modulus: dict | None = None
    k_range: tuple[int, int] = (0, 3)
    counterfunctions: list = field(default_factory=list)
    grid_step: float = 0.25
    horizon_pad: float = 10.0
    tolerance: float = 1e-9
    seed: int | None = None
    bound_K: int | None = None
    samples: dict | None = None
    almost_orbit: dict | None = None
    omega: dict | None = None
    phi: dict | None = None
    closure: dict | None = None
    liminf: dict | None = None

    @classmethod
    def from_dict(cls, raw: dict) -> "ExperimentConfig":
        if not isinstance(raw, dict):
            raise ConfigurationError("<root>", "config must be a JSON object")
        for key in raw:
            if key not in cls._KNOWN:
                raise ConfigurationError(key, "unknown config field")
        scenario = raw.get("scenario")
        if not isinstance(scenario, str) or scenario not in _SCENARIOS:
            raise ConfigurationError(
                "scenario", f"must be one of {', '.join(_SCENARIOS)}; got {scenario!r}"
            )
        cfg = cls(scenario=scenario)
        for f in fields(cls)[1:]:
            value = raw.get(f.name)
            if value is None:
                continue
            if f.type == "dict | None" and not isinstance(value, dict):
                raise ConfigurationError(f.name, "must be an object")
            setattr(cfg, f.name, value)
        if not isinstance(cfg.k_range, (list, tuple)) or len(cfg.k_range) != 2:
            raise ConfigurationError("k_range", "must be a [lo, hi] integer pair")
        lo, hi = (_checked(v, "k_range", integer=True, least=0) for v in cfg.k_range)
        if hi < lo:
            raise ConfigurationError("k_range", f"invalid range [{lo}, {hi}]")
        cfg.k_range = (lo, hi)
        cfg.grid_step = _checked(cfg.grid_step, "grid_step", above=0)
        cfg.horizon_pad = _checked(cfg.horizon_pad, "horizon_pad", least=0)
        cfg.tolerance = _checked(cfg.tolerance, "tolerance", above=0)
        if cfg.seed is not None:
            cfg.seed = _checked(cfg.seed, "seed", integer=True)
        return cfg

    def to_dict(self) -> dict:
        return {key: _plain(val) for key in self._KNOWN
                if (val := getattr(self, key)) is not None and (key != "counterfunctions" or val)}


ExperimentConfig._KNOWN = tuple(f.name for f in fields(ExperimentConfig))


def _cfg_point(cfg: ExperimentConfig, op: AccretiveOperator):
    if cfg.initial_point is None:
        raise ConfigurationError("initial_point", "required for this scenario")
    return _named("initial_point", op._check_dim, cfg.initial_point)


def _cfg_orbit(cfg: ExperimentConfig, op: AccretiveOperator) -> AlmostOrbit:
    x = _cfg_point(cfg, op)
    spec = _Fields(cfg.almost_orbit, "almost_orbit")
    c = spec.real("c", least=0, default=0.0)
    direction = spec.get("direction", default=np.eye(1, op.dim)[0])
    spec.done()
    return _named(spec.name("direction"), make_almost_orbit, op, x, c, direction)


def _cfg_omega(cfg: ExperimentConfig):
    return _build(_OMEGAS, cfg.omega or {"kind": "identity"}, "omega")


def _cfg_functional(cfg: ExperimentConfig):
    """Metastability functional from config; None means the orbit's own rate."""
    return None if cfg.phi is None else _build(_FUNCTIONALS, cfg.phi, "phi")


def _audit(cfg: ExperimentConfig, subject):
    """The operator, then ``subject(cfg, op)`` (its point or orbit), then the
    weak modulus, built and audited in that order."""
    op = build_operator(cfg.operator)
    audited = subject(cfg, op)
    return op, audited, weak_from_full(build_full_modulus(cfg.modulus))


def _ks(cfg: ExperimentConfig) -> range:
    lo, hi = cfg.k_range
    return range(lo, hi + 1)


def _cauchy(cfg: ExperimentConfig, op: AccretiveOperator, x, threshold) -> Report:
    return verify_cauchy_rate(op, x, threshold, _ks(cfg), grid_step=cfg.grid_step,
                              horizon_pad=cfg.horizon_pad, tol=cfg.tolerance)


def _nr(cfg: ExperimentConfig) -> Report:
    op, x, weak = _audit(cfg, _cfg_point)
    return _cauchy(cfg, op, x, orbit_cauchy_threshold(NRInputs.from_point(op, x, weak)))


def _nr_closure(cfg: ExperimentConfig) -> Report:
    op, x, weak = _audit(cfg, _cfg_point)
    spec = _Fields(cfg.closure, "closure")
    f = spec.rate("f")
    p_norm = spec.int("p_norm", least=0, default=math.ceil(norm(op.zero_witness())))
    x_norm = _norm_bound(spec, "x_norm_bound", "||x||", norm(x))
    x_dist = _norm_bound(spec, "x_dist_bound", "||x - Px||", norm(x - op.zero_projection(x)))
    spec.done()
    return _cauchy(cfg, op, x, closure_cauchy_threshold(weak, f, p_norm, x_norm, x_dist))


def _xu_meta(cfg: ExperimentConfig) -> Report:
    _, orbit, weak = _audit(cfg, _cfg_orbit)
    inputs = XuInputs.from_orbit(orbit, weak, omega=_cfg_omega(cfg),
                                 functional=_cfg_functional(cfg))
    counterfunctions = _named("counterfunctions", lambda specs: [rate_from_spec(s) for s in specs],
                              cfg.counterfunctions or ["id"])
    report = verify_metastability(orbit, lambda k, f: orbit_metastability_bound(inputs, k, f),
                                  _ks(cfg), counterfunctions, grid_step=cfg.grid_step,
                                  tol=cfg.tolerance)
    report.provenance.update(inputs.provenance)
    return report


def _xu_roc(cfg: ExperimentConfig) -> Report:
    _, orbit, weak = _audit(cfg, _cfg_orbit)
    if _cfg_functional(cfg) is not None:
        raise ConfigurationError("phi", "xu-roc uses the orbit's own defect rate")
    inputs = XuInputs.from_orbit(orbit, weak, omega=_cfg_omega(cfg))
    return verify_orbit_cauchy(orbit, lambda k: almost_orbit_cauchy_threshold(inputs, k),
                               _ks(cfg), grid_step=cfg.grid_step, horizon_pad=cfg.horizon_pad,
                               tol=cfg.tolerance, provenance=inputs.provenance)


def _modulus_check(cfg: ExperimentConfig) -> Report:
    op = build_operator(cfg.operator)
    full = build_full_modulus(cfg.modulus)
    K = _checked(cfg.bound_K, "bound_K", integer=True, least=1)
    samples = cfg.samples or {"kind": "seeded", "count": 1000}
    spec = _Fields(samples, "samples")
    if spec.choice("kind", ("seeded", "grid")) == "seeded":
        sampling = {"n_samples": spec.int("count", least=1, cap=MAX_GRID_POINTS, default=1000),
                    "seed": _checked(cfg.seed or 0, "seed", integer=True, least=0)}
    else:
        lo = spec.real("lo")
        sampling = {"points": _capped_grid(lo, spec.real("hi", least=lo),
                                           spec.real("step", above=0))}
    spec.done()
    inner = check_full_modulus(op, full, K, cfg.k_range[1], cfg.tolerance, **sampling)
    if not inner.n_pairs:
        raise ConfigurationError("samples", f"no graph pair within bound_K = {K}")

    report = Report(
        scenario="modulus-check",
        violations=inner.violations,
        provenance={"operator": op.name, "modulus": inner.modulus, "K": K,
                    "n_pairs": inner.n_pairs},
        grid={"k_range": list(cfg.k_range), "sampling": samples},
    )
    for entry in inner.per_k:
        k = entry["k"]
        target = 1.0 / (k + 1)
        status = FAIL if entry["n_violations"] else _status(
            entry["worst_gap_under_premise"], target, cfg.tolerance)
        report.rows.append(ReportRow(
            k=k, counterfunction="-", certified_bound=entry["premise_threshold"],
            worst_observed=entry["worst_gap_under_premise"], target=target,
            slack=cfg.tolerance, status=status,
            detail={"n_premise": entry["n_premise"], "n_violations": entry["n_violations"]},
        ))
    return report


def _liminf_check(cfg: ExperimentConfig) -> Report:
    spec = _Fields(cfg.liminf, "liminf")
    form = spec.choice("form", ("integral", "flow-pairing"))
    hi = cfg.k_range[1]
    n_max = spec.int("n_max", least=0, default=10)
    if form == "integral":
        f = _INTEGRANDS[spec.choice("integrand", _INTEGRANDS, default="inv-square")]
        L = spec.real("bound_L", least=0)
        spec.done()
        return verify_integrable_dip(f, L, hi, n_max, grid_step=cfg.grid_step, tol=cfg.tolerance)
    op = build_operator(cfg.operator)
    x = _cfg_point(cfg, op)
    b = _norm_bound(spec, "b", "||x - Px||", norm(x - op.zero_projection(x)))
    spec.done()
    return verify_flow_pairing_dip(op, x, b, hi, n_max, grid_step=cfg.grid_step, tol=cfg.tolerance)


#: scenario -> (step returning the verifier's report, whether the report is
#: renamed after the scenario; liminf-check keeps the dip verifier's name)
_SCENARIOS = {
    "nr": (_nr, True),
    "nr-closure": (_nr_closure, True),
    "xu-meta": (_xu_meta, True),
    "xu-roc": (_xu_roc, True),
    "modulus-check": (_modulus_check, True),
    "liminf-check": (_liminf_check, False),
}


def run_experiment(cfg: ExperimentConfig) -> Report:
    """Run a configured scenario (build the operator, audit the inputs,
    build the threshold, verify) and return its Report, keeping the rows
    with k >= k_range[0]."""
    start = time.perf_counter()
    step, renamed = _SCENARIOS[cfg.scenario]
    report = step(cfg)
    if renamed:
        report.scenario = cfg.scenario
    report.rows = [r for r in report.rows if r.k >= cfg.k_range[0]]
    report.seed = cfg.seed
    report.config = cfg.to_dict()
    report.runtime_seconds = time.perf_counter() - start
    return report
