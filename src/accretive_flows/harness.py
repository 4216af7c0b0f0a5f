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
from bisect import bisect_left
from dataclasses import dataclass, field, fields
from json.encoder import encode_basestring_ascii as _json_string
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
    _FLOAT_MIN_NORMAL,
    AccretiveOperator,
    dirichlet_laplacian_1d,
    make_quartic_well,
    make_scaled_identity,
    make_spd_linear,
)
from .rates import (
    THRESHOLD_CAP,
    CertifiedThreshold,
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
from .semigroup import AlmostOrbit, make_almost_orbit
from .space import ceil_norm, norm

__all__ = [
    "PASS",
    "PASS_WITH_SLACK",
    "FAIL",
    "ReportRow",
    "Report",
    "verify_integrable_dip",
    "verify_flow_pairing_dip",
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
#: verify_metastability refuses to evaluate more points than this per cell,
#: and the dip verifiers more than this in all
MAX_WINDOW_EVALS = 10**7
#: d > 1 point sets beyond this many rows are refused by the diameter
EXACT_DIAMETER_ROWS = 4096
#: configs may not ask for an operator on more dimensions than this
MAX_OPERATOR_DIM = 1024
#: configs may not ask for a k_range that ends above this
MAX_K = 10_000
#: rows per block of the pairwise diameter scan; small blocks stay in cache
_DIAMETER_BLOCK = 32
#: 1-d points per slice of a suffix spread; a Cauchy grid is evaluated a
#: slice at a time, so no array of the grid's length is allocated
_SLICE_ROWS = 16_384
#: rows read at each end of a monotone 1-d segment before its interior
_END_ROWS = 64
#: monotone 1-d segments of fewer rows are folded whole: reading the ends
#: first costs two more curve calls, as much as folding 2,000-3,000 rows
_END_READ_MIN = 2048
#: relative margin of the diameter scan's pruning bound, far above rounding
_PRUNE_MARGIN = 1e-9
#: smallest positive double
_SUBNORMAL_MIN = 2.0 ** -1074


def _status(observed: float, target: float, slack: float) -> str:
    if observed <= target:
        return PASS
    if observed <= target + slack:
        return PASS_WITH_SLACK
    return FAIL


def _json_float(number: float) -> str:
    if math.isfinite(number):
        return float.__repr__(number)
    return "NaN" if number != number else "Infinity" if number > 0 else "-Infinity"


#: writers of the exact types of JSON leaves
_JSON_LEAVES = {str: _json_string, float: _json_float, int: int.__repr__,
                bool: lambda b: "true" if b else "false", type(None): lambda _: "null"}


def _json_text(obj, pad: str, out: list) -> None:
    """Append the JSON value ``obj`` to ``out`` as ``json.dumps(obj,
    sort_keys=True, indent=2)`` writes it at the nesting whose line break and
    indent is ``pad``.  A JSON value is a dict with str keys, a list, a tuple,
    a str, int, float, bool or None; a numpy scalar writes as its ``.item()``
    and anything else raises TypeError."""
    leaf = _JSON_LEAVES.get(type(obj))
    if leaf is not None:
        out.append(leaf(obj))
    elif isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        inner = pad + "  "
        sep = "{" + inner
        for key, value in sorted(obj.items()):
            if type(key) is not str:
                raise TypeError(f"report key {key!r} is not a str")
            out += (sep, _json_string(key), ": ")
            _json_text(value, inner, out)
            sep = "," + inner
        out.append(pad + "}")
    elif isinstance(obj, (list, tuple)):
        if not obj:
            out.append("[]")
            return
        inner = pad + "  "
        sep = "[" + inner
        for value in obj:
            out.append(sep)
            _json_text(value, inner, out)
            sep = "," + inner
        out.append(pad + "]")
    elif isinstance(obj, np.generic):
        _json_text(obj.item(), pad, out)
    else:
        raise TypeError(f"{type(obj).__name__} is not a JSON report value")


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


def _row(k: int, bound: float, observed: float, tol: float, failed: bool = False,
         counterfunction: str = "-", **extra) -> ReportRow:
    """Row of level k: target 1/(k+1), slack ``tol``; FAIL if ``failed``, else ``_status``."""
    target = 1.0 / (k + 1)
    return ReportRow(k=k, counterfunction=counterfunction, certified_bound=float(bound),
                     worst_observed=float(observed), target=target, slack=tol,
                     status=FAIL if failed else _status(observed, target, tol), **extra)


@dataclass
class Report:
    """Outcome of one verification scenario.  Its fields and its rows' hold
    JSON values (see ``_json_text``), so identical runs give identical bytes."""

    scenario: str
    rows: list[ReportRow] = field(default_factory=list)
    violations: list[dict] = field(default_factory=list)
    provenance: dict = field(default_factory=dict)
    grid: dict = field(default_factory=dict)
    seed: int | None = None
    config: dict | None = None

    @property
    def passed(self) -> bool:
        return not self.violations and all(r.status != FAIL for r in self.rows)

    def to_dict(self) -> dict:
        """The report's data in the layout its JSON writes; nested containers are its own."""
        return {
            "scenario": self.scenario,
            "passed": self.passed,
            "seed": self.seed,
            "grid": self.grid,
            "provenance": self.provenance,
            "rows": [vars(r) for r in self.rows],
            "violations": self.violations,
            "summary": {
                "failures": sum(r.status == FAIL for r in self.rows),
                "pass_with_slack": sum(r.status == PASS_WITH_SLACK for r in self.rows),
                "rows": len(self.rows),
            },
            "config": self.config,
        }

    def to_json(self) -> str:
        """``json.dumps(self.to_dict(), sort_keys=True, indent=2) + "\\n"``."""
        out = []
        _json_text(self.to_dict(), "\n", out)
        out.append("\n")
        return "".join(out)


def _suffix_extents(rows: Callable[[int, int], np.ndarray], n: int, d: int,
                    starts: Sequence[int], limit: float | None = None) -> list[float]:
    """Largest pairwise distance among the points s to n - 1 for every ``s``
    in ``starts``, where ``rows(i0, i1)`` gives points i0 to i1 - 1 as an
    ``(i1 - i0, d)`` array.  No point before the first start is read.

    All suffixes come from one pass.  1-d points are folded in slices of
    ``_SLICE_ROWS``; each slice folds into the max and min of its segments
    between the starts and the slice edges, and a reversed running max and
    min of the segments gives every suffix spread.  Max and min are exact and
    carry NaN, so the spread is the float that max - min of the whole suffix
    gives.  For d > 1, ``_suffix_square_maxima`` scans each start's first
    row against every later row, then only the pairs a triangle-inequality
    bound cannot rule out; it returns the same floats as a scan of every
    pair, NaN and infinite squares included.  A d > 1 suffix longer than
    ``EXACT_DIAMETER_ROWS`` raises ResourceLimitError before any point is
    read.

    A float ``limit`` promises 1-d points that move monotonically in the
    row index towards ``limit`` and never pass it, that equal ``limit`` at
    every row after the first that does, and that are within 1e-12 relative
    of exact monotone values wherever they are normal floats
    (``AlmostOrbit.limit`` gives such a limit, Px).  Then a segment
    between starts of at least ``_END_READ_MIN`` rows is read at its first
    and last ``_END_ROWS`` rows first, and its interior is skipped when both
    of its sides are bounded.  Let v_p and v_q be the two innermost values
    read; the upper side is that of max(v_p, v_q) and the lower side that
    of min(v_p, v_q).  A side is bounded when its value v equals ``limit``:
    no point passes the limit, and a curve that reaches it stays there.  A
    side is also bounded when v is a finite normal float and, with h = 4 *
    _PRUNE_MARGIN * |v|, v + h is at most the largest value read (upper
    side) or v - h at least the smallest (lower side).  Every interior exact
    value lies between the exact values at p and q, and rounding moves a
    normal value by about 1e-12 relative and a subnormal one by a few
    2**-1074, both far below h; so the interior holds neither extreme of
    the segment, and each spread is still the same float.  Otherwise (flat
    ends away from the limit, subnormal ends, or a NaN or infinite end,
    which fails every bound) the interior joins the fold, so every row is
    read once.
    """
    cuts = sorted({s for s in starts if s < n - 1})
    exact = {}
    if cuts and d == 1:
        highs, lows, firsts = [], [], []

        def fold(a: int, b: int) -> None:
            for i0 in range(a, b, _SLICE_ROWS):
                i1 = min(i0 + _SLICE_ROWS, b)
                seg = [i0] + [c for c in cuts if i0 < c < i1]
                col, at = rows(i0, i1)[:, 0], [s - i0 for s in seg]
                highs.append(np.maximum.reduceat(col, at))
                lows.append(np.minimum.reduceat(col, at))
                firsts.extend(seg)

        segments = zip(cuts, cuts[1:] + [n]) if limit is not None else ()
        done = cuts[0]  # rows before this one are read or skipped
        for a, b in segments:
            if b - a < _END_READ_MIN:
                continue
            fold(done, a)
            done = b
            ends = np.concatenate([rows(a, a + _END_ROWS), rows(b - _END_ROWS, b)])[:, 0]
            hi, lo = ends.max(), ends.min()  # NaN if any end is NaN
            highs.append(np.array([hi]))
            lows.append(np.array([lo]))
            firsts.append(a)
            p, q = ends[_END_ROWS - 1], ends[_END_ROWS]
            if not (_bounded(max(p, q), limit, 1.0, hi) and _bounded(min(p, q), limit, -1.0, lo)):
                fold(a + _END_ROWS, b - _END_ROWS)
        fold(done, n)
        high = np.maximum.accumulate(np.concatenate(highs)[::-1])[::-1]
        low = np.minimum.accumulate(np.concatenate(lows)[::-1])[::-1]
        at = np.searchsorted(firsts, cuts)
        exact = dict(zip(cuts, (high[at] - low[at]).tolist()))
    elif cuts:
        m = cuts[0]
        if n - m > EXACT_DIAMETER_ROWS:
            raise ResourceLimitError(f"diameter of {n - m} points in R^{d} exceeds "
                                     f"{EXACT_DIAMETER_ROWS} rows")
        sq = _suffix_square_maxima(rows(m, n), [c - m for c in cuts])
        exact = dict(zip(cuts, np.sqrt(sq).tolist()))
    return [exact.get(s, 0.0) for s in starts]


def _bounded(v: float, limit: float, side: float, extreme: float) -> bool:
    """Whether no value past ``v`` on ``side`` (+1 above, -1 below) can
    hide in a skipped interior: ``v`` is the limit, or ``v`` plus its own
    margin stays inside the ``extreme`` read on that side."""
    if v == limit:
        return True
    if not _FLOAT_MIN_NORMAL <= abs(v) < math.inf:
        return False
    h = 4.0 * _PRUNE_MARGIN * abs(v)
    return v + h <= extreme if side > 0 else v - h >= extreme


def _suffix_square_maxima(points: np.ndarray, cuts: list[int]) -> np.ndarray:
    """Largest squared distance among the rows of ``points[c:]`` for each of
    the sorted ``cuts``, the first of which is 0.

    The cut segments [c, e) are scanned from the last to the first, carrying
    ``best``, the largest square found so far.  Each segment scans or rules
    out every pair (i, j) with c <= i < e and i < j, so ``best`` after it is
    its cut's value.  Row c goes first, against every later row (never
    itself, where an infinite coordinate gives inf - inf = NaN): on a
    converging flow it is the row farthest from the limit, so its squares
    set ``best`` near its final value at once.

    The rest is pruned by the triangle inequality through the last row (the
    pivot).  With sqD_i the squared distance from row i to the pivot, e_i =
    (sqrt(sqD_i) + sqrt(d * 2**-1074)) * (1 + 1e-9) bounds that distance
    despite rounding and squares that underflow to subnormals or zero.  Let
    limit = sqrt(best) * (1 - 1e-9) / (1 + 1e-9).  A row i in (c, e) is
    dropped when e_i + max e over (c, n) <= limit, and a column j in (c, n)
    when e_j + max e over the kept rows <= limit.  The margins outweigh the
    rounding of every computed pair, so a dropped pair's square is below
    ``best``.  The kept rows are scanned in chunks of ``_DIAMETER_BLOCK``
    against the kept columns after them.  Every kept square comes from
    ``_pair_squares`` and folds into ``best`` by max, which keeps NaN, so
    each result is the same float a scan of every pair gives.  Nothing is
    dropped while ``best`` is below the smallest normal float, where
    relative margins fail, or infinite, where two rows with the same
    infinite coordinate give a NaN square that their infinite e cannot rule
    out.  A NaN row has a NaN e, which no test drops; its square with row c
    is NaN, so ``best`` is NaN before any pruning.
    """
    n, d = points.shape
    coords = np.ascontiguousarray(points.T)
    reach = np.sqrt(np.square(points - points[-1]).sum(axis=1))  # e_i
    reach += math.sqrt(d * _SUBNORMAL_MIN)
    reach *= 1.0 + _PRUNE_MARGIN
    best, out = 0.0, []
    for c, e in reversed(list(zip(cuts, cuts[1:] + [n]))):
        later = np.arange(c + 1, n)
        best = float(_pair_squares(points, coords, [c], later).max(initial=best))
        limit = -math.inf  # drops nothing
        if _FLOAT_MIN_NORMAL <= best < math.inf:
            limit = math.sqrt(best) * (1.0 - _PRUNE_MARGIN) / (1.0 + _PRUNE_MARGIN)
        rows = later[:e - c - 1][~(reach[c + 1:e] + reach[c + 1:].max() <= limit)]
        cols = later[~(reach[c + 1:] + reach[rows].max(initial=0.0) <= limit)]
        for k in range(0, rows.size, _DIAMETER_BLOCK):
            chunk = rows[k:k + _DIAMETER_BLOCK]
            right = cols[np.searchsorted(cols, chunk[0], "right"):]
            sq = _pair_squares(points, coords, chunk, right)
            sq[right <= chunk[:, None]] = 0.0
            best = float(sq.max(initial=best))  # a NaN square stays NaN
        out.append(best)
    return np.array(out[::-1])


def _pair_squares(points: np.ndarray, coords: np.ndarray, rows, cols) -> np.ndarray:
    """Squared distances from the rows ``rows`` of ``points`` to the rows
    ``cols``, as a ``(len(rows), len(cols))`` array; ``coords`` is
    ``points.T``, contiguous."""
    if points.shape[1] >= 8:
        # numpy's pairwise summation regroups 8 or more terms
        return ((points[rows][:, None, :] - points[cols][None, :, :]) ** 2).sum(-1)
    # coordinate by coordinate, in order: the same bits numpy's sum gives for
    # fewer than 8 terms, without a (rows, cols, d) temporary
    return sum(np.subtract.outer(col[rows], col[cols]) ** 2 for col in coords)


def _grid_length(lo: float, hi: float, step: float) -> int | float:
    """Length of ``np.arange(lo, hi + step / 2, step)``, by np.arange's own
    formula; ``math.inf`` when the length overflows a float, which every
    cap refuses."""
    try:
        return math.ceil((hi + step / 2 - lo) / step)
    except OverflowError:
        return math.inf


def _capped_length(lo: float, hi: float, step: float) -> int:
    """``_grid_length(lo, hi, step)``, refused when it is more than
    ``MAX_GRID_POINTS``."""
    n_points = _grid_length(lo, hi, step)
    if n_points > MAX_GRID_POINTS:
        raise ResourceLimitError(
            f"grid from {lo} to {hi} at step {step} needs {n_points} grid points"
        )
    return n_points


def _capped_grid(lo: float, hi: float, step: float) -> np.ndarray:
    """``np.arange(lo, hi + step / 2, step)``, refused before it is allocated
    when it would hold more than ``MAX_GRID_POINTS`` points."""
    _capped_length(lo, hi, step)
    return np.arange(lo, hi + step / 2, step)


def _grid_point(lo: float, step: float, i: int) -> float:
    """Point ``i`` of ``np.arange(lo, stop, step)``: np.arange fills row 0
    with lo, row 1 with lo + step and row i with lo + i * ((lo + step) - lo)."""
    lo = float(lo)
    if i < 2:
        return lo + step if i else lo
    return lo + i * ((lo + step) - lo)


def _grid_index(lo: float, step: float, n: int, value: float) -> int:
    """``np.searchsorted(grid, value)`` for the first ``n`` points ``grid``
    of ``np.arange(lo, stop, step)``, by a binary search over
    ``_grid_point``."""
    return bisect_left(range(n), value, key=lambda i: _grid_point(lo, step, i))


def _grid_rows(lo: float, step: float, i0: int, i1: int) -> np.ndarray:
    """Points ``i0`` to ``i1 - 1`` of ``np.arange(lo, stop, step)``, bit for
    bit, by the formula of ``_grid_point``; the grid is never built whole."""
    lo = float(lo)
    ts = np.arange(i0, i1, dtype=float)
    ts *= (lo + step) - lo
    ts += lo
    for i in range(i0, min(i1, 2)):
        ts[i - i0] = _grid_point(lo, step, i)
    return ts


def _window_grid(lo: float, hi: float, step: float) -> np.ndarray:
    ts = np.arange(lo, hi + step / 2, step)
    if ts.size == 0 or ts[-1] < hi - 1e-12:
        ts = np.append(ts, hi)
    return ts


# ------------------------------------------------------------ dip verifiers

def _dip_windows(
    report: Report,
    width: Callable[[int], int],
    curve: Callable[[np.ndarray], np.ndarray],
    k_max: int,
    n_max: int,
    grid_step: float,
    tol: float,
) -> Report:
    """For every k <= k_max and n <= n_max, the smallest value of ``curve``
    on the grid of the window [n, width(k) + n] must be at most
    1/(k+1) + tol; one row per k, one violation per failing window.

    A window's grid is ``np.arange(n, width(k) + n + step/2, step)`` plus
    its end point when the last grid point falls short of it.  np.arange
    fills n + i*delta, with delta taken from n and the step alone, so for a
    fixed n every window's arange grid is bit for bit a prefix of the widest
    window's, of the length np.arange's formula gives.  So ``curve`` runs
    once per n, on the widest grid plus the missed end points, and a running
    minimum read at each window's length gives its smallest value.  Before
    any grid is built, n_max + 1 times the widest grid plus every end point
    is charged against ``MAX_WINDOW_EVALS``.
    """
    ks = range(k_max + 1)
    widths = [width(k) for k in ks]
    limits = np.array([1.0 / (k + 1) + tol for k in ks])
    widest = max(widths)
    # every window may add its end point to the widest grid
    evals = (n_max + 1) * (_grid_length(0, widest, grid_step) + k_max + 1)
    if evals > MAX_WINDOW_EVALS:
        raise ResourceLimitError(
            f"dip windows up to n = {n_max} need {evals} curve evaluations, "
            f"beyond the budget {MAX_WINDOW_EVALS}"
        )
    worst = np.zeros(k_max + 1)
    failing = [[] for _ in ks]
    for n in range(n_max + 1):
        grid = _capped_grid(n, n + widest, grid_step)
        ends = [n + w for w in widths]
        last = [_grid_length(n, end, grid_step) - 1 for end in ends]
        missed = [k for k in ks if grid[last[k]] < ends[k] - 1e-12]
        values = curve(np.concatenate([grid, [ends[k] for k in missed]]))
        best = np.minimum.accumulate(values[:grid.size])[last]
        best[missed] = np.minimum(best[missed], values[grid.size:])
        np.maximum(worst, best, out=worst)
        for k in np.flatnonzero(best > limits).tolist():
            failing[k].append({"k": k, "n": n, "best": float(best[k])})
    for k, observed in zip(ks, worst.tolist()):
        report.violations += failing[k]
        report.rows.append(_row(k, widths[k], observed, tol))
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
                        lambda ts: np.fromiter(map(f, ts.tolist()), float, ts.size),
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
    w = make_almost_orbit(op, x)
    report = Report(
        scenario="flow-pairing-dip",
        provenance={"operator": op.name, "b": int(b), "window": "ceil(b^2/2+1)*(k+1)+n"},
        grid={"grid_step": grid_step, "k_max": k_max, "n_max": n_max},
    )

    def pairing(ts: np.ndarray) -> np.ndarray:
        W = w.evaluate_many(ts)
        return np.einsum("ij,ij->i", op.value_many(W), W - op.zero_projection_many(W))

    return _dip_windows(report, pairing_dip_rate(b), pairing, k_max, n_max, grid_step, tol)


# --------------------------------------------------------- Cauchy verifiers

def verify_orbit_cauchy(
    u: AlmostOrbit,
    threshold: Callable[[int], int],
    k_range: Sequence[int],
    grid_step: float = 0.25,
    horizon_pad: float = 10.0,
    tol: float = 1e-9,
) -> Report:
    """Check ||u(t) - u(t')|| <= 1/(k+1) for all grid pairs t, t' beyond
    threshold(k): for every k, the largest distance between values of the
    curve ``u`` at points of the grid ``np.arange(t_lo, horizon + grid_step
    / 2, grid_step)`` from threshold(k) on must be at most 1/(k+1) + tol;
    t_lo is the smallest threshold and horizon the largest plus
    ``horizon_pad``.  A flow orbit is the almost-orbit with c = 0.  The
    report's provenance names the operator and adds the threshold's own
    ``provenance``, if it has one.

    The grid is never built whole.  Its length comes from np.arange's
    formula and is capped by ``MAX_GRID_POINTS``, and each threshold's
    first grid index comes from ``_grid_index``.  ``_suffix_extents``
    then evaluates ``u`` from the first threshold on, on the grid rows of
    ``_grid_rows``: in slices of ``_SLICE_ROWS`` in R^1, and in one call,
    refused beforehand beyond ``EXACT_DIAMETER_ROWS``, in R^d for d > 1.
    Grid rows are non-decreasing in t, so ``u.limit`` is the ``limit``
    promise of ``_suffix_extents``, which then reads only the ends of each
    long segment between thresholds whose interior cannot hold an extreme.
    Every spread is the same float as from a full read.
    """
    ks = sorted(int(k) for k in k_range)
    thresholds = {k: int(threshold(k)) for k in ks}
    top = max(thresholds.values())
    if top > THRESHOLD_CAP:
        raise ResourceLimitError(f"threshold {top} exceeds cap {THRESHOLD_CAP}")
    t_lo = min(thresholds.values())
    horizon = top + horizon_pad
    n_points = _capped_length(t_lo, horizon, grid_step)
    report = Report(
        scenario="orbit-cauchy",
        provenance={"operator": u.operator.name, **getattr(threshold, "provenance", {})},
        # flow values come from exact oracles, so no evaluator error widens the slack
        grid={"grid_step": grid_step, "horizon": float(horizon), "points": n_points,
              "err_bound": 0.0},
    )
    starts = [_grid_index(t_lo, grid_step, n_points, thresholds[k] - 1e-9) for k in ks]
    extents = _suffix_extents(lambda i0, i1: u.evaluate_many(_grid_rows(t_lo, grid_step, i0, i1)),
                              n_points, u.operator.dim, starts, u.limit)
    for k, extent in zip(ks, extents):
        row = _row(k, thresholds[k], extent, tol, detail={"pairs": "exact"})
        report.rows.append(row)
        if row.status == FAIL:
            report.violations.append({"k": k, "threshold": thresholds[k], "extent": extent})
    return report


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
    report the witnessing n.

    A window's extent is the one-suffix case of ``_suffix_extents`` on its
    grid ``_window_grid``, with the ``u.limit`` promise: a 1-d window is
    read in slices and, when long and monotone, at its ends only, and a
    d > 1 window beyond ``EXACT_DIAMETER_ROWS`` is refused before ``u`` is
    evaluated on it."""
    report = Report(
        scenario="metastability",
        grid={"grid_step": grid_step},
        provenance={"operator": u.operator.name, "B": u.bound_B},
    )
    limit = u.limit
    for k in sorted(int(k) for k in k_range):
        target = 1.0 / (k + 1)
        for f in counterfunctions:
            bound = int(gamma_bound(k, f))
            budget = MAX_WINDOW_EVALS
            witness = None
            observed = math.inf
            for n in range(bound + 1):
                end = n + int(f(n))
                # the arange length bounds the window from below, so an
                # over-budget window is refused before it is built
                if (_grid_length(n, end, grid_step) > budget
                        or (ts := _window_grid(n, end, grid_step)).size > budget):
                    raise ResourceLimitError(
                        f"metastability search at k={k} exceeded the evaluation budget"
                    )
                budget -= ts.size
                extent = _suffix_extents(lambda i0, i1: u.evaluate_many(ts[i0:i1]), ts.size,
                                         u.operator.dim, [0], limit)[0]
                observed = min(observed, extent)
                if extent <= target + tol:
                    witness = n
                    observed = extent
                    break
            report.rows.append(_row(k, bound, observed, tol, failed=witness is None,
                                    counterfunction=rate_label(f), witness=witness))
            if witness is None:
                report.violations.append({"k": k, "counterfunction": rate_label(f), "bound": bound})
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
    ts = np.arange(count, dtype=float) * spacing
    X = op.exact_flow_many(x0, ts)
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


def _checked_numbers(value, field_name: str):
    """A config number, or nested lists of them, each entry read by
    ``checked_number``; errors name the entry, e.g. ``operator.matrix[1][0]``."""
    if isinstance(value, list):
        return [_checked_numbers(v, f"{field_name}[{i}]") for i, v in enumerate(value)]
    return _checked(value, field_name)


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
    "spd": ("matrix (symmetric positive definite)", lambda s: _named(
        s.name("matrix"), make_spd_linear, _checked_numbers(s.get("matrix"), s.name("matrix")))),
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
    bound = spec.int(key, least=0, default=ceil_norm(value, what))
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
        if hi > MAX_K:
            raise ResourceLimitError(f"k_range ends above the cap {MAX_K}")
        cfg.k_range = (lo, hi)
        cfg.grid_step = _checked(cfg.grid_step, "grid_step", above=0)
        cfg.horizon_pad = _checked(cfg.horizon_pad, "horizon_pad", least=0)
        cfg.tolerance = _checked(cfg.tolerance, "tolerance", above=0)
        if cfg.seed is not None:
            cfg.seed = _checked(cfg.seed, "seed", integer=True)
        return cfg

    def to_dict(self) -> dict:
        return {key: list(val) if key == "k_range" else val for key in self._KNOWN
                if (val := getattr(self, key)) is not None and (key != "counterfunctions" or val)}


ExperimentConfig._KNOWN = tuple(f.name for f in fields(ExperimentConfig))


def _cfg_point(cfg: ExperimentConfig, op: AccretiveOperator):
    if cfg.initial_point is None:
        raise ConfigurationError("initial_point", "required for this scenario")
    return _named("initial_point", op._check_dim,
                  _checked_numbers(cfg.initial_point, "initial_point"))


def _cfg_orbit(cfg: ExperimentConfig, op: AccretiveOperator) -> AlmostOrbit:
    x = _cfg_point(cfg, op)
    spec = _Fields(cfg.almost_orbit, "almost_orbit")
    c = spec.real("c", least=0, default=0.0)
    direction = _checked_numbers(spec.get("direction", default=[1.0] + [0.0] * (op.dim - 1)),
                                 spec.name("direction"))
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


def _cauchy(cfg: ExperimentConfig, u: AlmostOrbit, threshold) -> Report:
    return verify_orbit_cauchy(u=u, threshold=threshold, k_range=_ks(cfg),
                               grid_step=cfg.grid_step, horizon_pad=cfg.horizon_pad,
                               tol=cfg.tolerance)


def _nr(cfg: ExperimentConfig) -> Report:
    op, x, weak = _audit(cfg, _cfg_point)
    threshold = orbit_cauchy_threshold(NRInputs.from_point(op, x, weak))
    return _cauchy(cfg, make_almost_orbit(op, x), threshold)


def _nr_closure(cfg: ExperimentConfig) -> Report:
    op, x, weak = _audit(cfg, _cfg_point)
    spec = _Fields(cfg.closure, "closure")
    f = spec.rate("f")
    p_norm = spec.int("p_norm", least=0, default=ceil_norm(norm(op.zero_witness()), "||p||"))
    x_norm = _norm_bound(spec, "x_norm_bound", "||x||", norm(x))
    x_dist = _norm_bound(spec, "x_dist_bound", "||x - Px||", norm(x - op.zero_projection(x)))
    spec.done()
    threshold = closure_cauchy_threshold(weak, f, p_norm, x_norm, x_dist)
    return _cauchy(cfg, make_almost_orbit(op, x), threshold)


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
    threshold = CertifiedThreshold(lambda k: almost_orbit_cauchy_threshold(inputs, k),
                                   inputs.provenance)
    return _cauchy(cfg, orbit, threshold)


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
        report.rows.append(_row(
            entry["k"], entry["premise_threshold"], entry["worst_gap_under_premise"],
            cfg.tolerance, failed=entry["n_violations"] > 0,
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
    build the threshold, verify) and return its Report, keeping the rows and
    violations with k >= k_range[0]."""
    step, renamed = _SCENARIOS[cfg.scenario]
    report = step(cfg)
    if renamed:
        report.scenario = cfg.scenario
    report.rows = [r for r in report.rows if r.k >= cfg.k_range[0]]
    report.violations = [v for v in report.violations if v["k"] >= cfg.k_range[0]]
    report.seed = cfg.seed
    report.config = cfg.to_dict()
    return report
