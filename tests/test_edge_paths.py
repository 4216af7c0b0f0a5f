import json
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from accretive_flows import (
    ExperimentConfig,
    ResourceLimitError,
    check_full_modulus,
    evaluate_semigroup,
    full_modulus_linear,
    make_almost_orbit,
    make_quartic_well,
    make_scaled_identity,
    make_spd_linear,
    norm,
    run_experiment,
    sample_graph_pairs,
    dirichlet_laplacian_1d,
    rate_from_spec,
    verify_metastability,
    verify_orbit_cauchy,
)
from accretive_flows import harness
from accretive_flows.cli import parse_and_run, render_report
from accretive_flows.harness import (
    EXACT_DIAMETER_ROWS,
    _END_READ_MIN,
    _END_ROWS,
    _SLICE_ROWS,
    _grid_index,
    _grid_length,
    _grid_point,
    _grid_rows,
    _suffix_extents,
)
from accretive_flows.operators import AccretiveOperator, QuarticWell, ScaledIdentity, SPDLinear

from accretivity import check_accretive

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


# ----------------------------------------------------------- diameter helper

def _suffix_diameters(points, starts):
    # _suffix_extents of rows held in memory
    return _suffix_extents(lambda i0, i1: points[i0:i1], *points.shape, starts)


def _brute_diameter(points):
    best = 0.0
    for i in range(len(points)):
        for j in range(i + 1, len(points)):
            best = max(best, float(np.linalg.norm(points[i] - points[j])))
    return best


def test_diameter_exact_matches_brute_force(rng):
    for d in (1, 2, 3):
        pts = rng.normal(size=(60, d))
        assert _suffix_diameters(pts, [0]) == [pytest.approx(_brute_diameter(pts), abs=1e-12)]


def test_diameter_refuses_d_above_one_beyond_exact_limit(rng):
    with pytest.raises(ResourceLimitError, match=r"5000 points in R\^2 exceeds 4096 rows"):
        _suffix_diameters(rng.normal(size=(5000, 2)), [0])
    col = rng.normal(size=(5000, 1))
    # 1-d stays exact at any length
    assert _suffix_diameters(col, [0]) == [float(col.max() - col.min())]


def test_diameter_degenerate_cases():
    assert _suffix_diameters(np.zeros((1, 3)), [0]) == [0.0]
    assert _suffix_diameters(np.zeros((0, 2)), [0]) == [0.0]
    assert _suffix_diameters(np.zeros((0, 1)), [0]) == [0.0]


def _diameter_reference(points):
    # the per-suffix formula _suffix_extents replaced, kept as the oracle
    n, d = points.shape
    if n <= 1:
        return 0.0
    if d == 1:
        col = points[:, 0]
        return float(col.max() - col.min())
    best = 0.0
    for i in range(0, n, 512):
        diff = points[i:i + 512, None, :] - points[None, :, :]
        best = float(np.maximum(best, np.sqrt((diff ** 2).sum(-1)).max()))
    return best


@pytest.mark.parametrize("d", [1, 2, 3, 7, 8, 16])
def test_suffix_diameters_match_reference_bit_for_bit(rng, d):
    n = 1100  # many row blocks, the last one partial
    pts = rng.normal(size=(n, d)) * rng.uniform(0.5, 3.0, size=d)
    # unsorted, with a repeat: thresholds of different k may coincide
    starts = [1000, 0, 1, 17, 31, 32, 33, 511, 512, 512, 513, n - 2, n - 1, n]
    got = _suffix_diameters(pts, starts)
    assert got == [_diameter_reference(pts[s:]) for s in starts]


@pytest.mark.parametrize("d", [1, 2, 3])
def test_suffix_diameters_refuse_beyond_exact_limit(rng, d):
    assert EXACT_DIAMETER_ROWS == 4096
    n = 4100
    pts = rng.normal(size=(n, d))
    # suffix lengths 4096 (the limit), 4095, then the short end: exact
    at_limit = [4, 5, n - 1, n]
    assert _suffix_diameters(pts, at_limit) == [_diameter_reference(pts[s:]) for s in at_limit]
    # one suffix of 4097 rows: refused for d > 1, exact for d = 1
    beyond = [3, 4, 5]
    if d > 1:
        with pytest.raises(ResourceLimitError, match="4097 points"):
            _suffix_diameters(pts, beyond)
    else:
        assert _suffix_diameters(pts, beyond) == [_diameter_reference(pts[s:]) for s in beyond]


def _point_family(name, n, d, rng):
    t = 0.25 * np.arange(n)
    if name == "random":
        return rng.normal(size=(n, d)) * rng.uniform(0.5, 3.0, size=d)
    if name == "decaying":  # a diagonal linear flow: squares go subnormal, then zero
        return rng.normal(size=d) * np.exp(-np.outer(t, rng.uniform(0.5, 3.0, size=d)))
    if name == "spiral":  # converges like 1/t while it turns
        return (np.stack([np.cos(t), np.sin(t)] + [np.cos(t * k) for k in range(2, d)], axis=1)
                / (1.0 + t)[:, None])
    if name in ("receding", "unwinding"):  # the distance from the limit grows along the curve
        return _point_family({"receding": "decaying", "unwinding": "spiral"}[name], n, d, rng)[::-1]
    if name == "pinned":  # the first rows of cuts 0 and 200 sit exactly on the last row
        pts = _point_family("spiral", n, d, rng)
        pts[[0, 200]] = pts[-1]
        return pts
    if name == "sphere":
        x = rng.normal(size=(n, d))
        return x / np.linalg.norm(x, axis=1)[:, None]
    if name == "circle":  # a closed curve in a random 2-plane, in order
        plane = np.linalg.qr(rng.normal(size=(d, 2)))[0]
        s = np.linspace(0.0, 2 * np.pi, n, endpoint=False)
        return np.stack([np.cos(s), np.sin(s)], axis=1) @ plane.T + rng.normal(size=d)
    scale = {"tiny": 1e-160, "huge": 1e160}[name]  # squares subnormal / overflow to inf
    return rng.normal(size=(n, d)) * scale


#: cuts at block edges and just off them, repeated, unsorted and past the end
_CUTS = [255, 0, 1, 31, 32, 33, 64, 64, 200, 256, 416, 448, 450 - 2, 450 - 1, 450, 457]


@pytest.mark.parametrize("d", [2, 3, 7, 8, 16])
@pytest.mark.parametrize("family", ["random", "decaying", "spiral", "sphere", "circle",
                                    "tiny", "huge", "receding", "unwinding", "pinned"])
def test_pruned_suffix_diameters_equal_brute_force(rng, family, d):
    pts = _point_family(family, 450, d, rng)
    with np.errstate(over="ignore"):  # the "huge" squares overflow in both
        got = _suffix_diameters(pts, _CUTS)
        want = [_diameter_reference(pts[s:]) for s in _CUTS]
    assert got == want
    if family in ("unwinding", "pinned"):  # some cut's first row misses its diameter
        assert any(np.linalg.norm(pts[s + 1:] - pts[s], axis=1).max() < w
                   for s, w in zip(_CUTS, want) if s < 449)


def _scan_reference(points, starts):
    # every pair at once in one matrix, NaN-propagating like the scan without
    # pruning
    n = len(points)
    sq = ((points[:, None, :] - points[None, :, :]) ** 2).sum(-1)
    sq[np.tril_indices(n)] = 0.0
    suffix = np.sqrt(np.maximum.accumulate(sq.max(axis=1)[::-1])[::-1])
    return [float(suffix[s]) if s < n - 1 else 0.0 for s in starts]


@pytest.mark.parametrize("row", [0, 100, 298, 299])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_suffix_diameters_with_a_non_finite_row_match_brute_force(rng, row, value):
    pts = rng.normal(size=(300, 3))
    pts[row, 1] = value
    starts = [0, 50, 100, 101, 150, 298]
    with np.errstate(invalid="ignore"):  # inf - inf on the masked diagonal, in both
        got = _suffix_diameters(pts, starts)
        want = _scan_reference(pts, starts)
        if row == 0 and math.isnan(value):  # the chunked oracle keeps the NaN too
            np.testing.assert_array_equal(got, [_diameter_reference(pts[s:]) for s in starts])
    np.testing.assert_array_equal(got, want)


def test_suffix_diameters_keep_the_nan_of_two_rows_with_one_infinite_coordinate(rng):
    # inf - inf is NaN, but the pruning bound of both rows is inf: the scan
    # must not skip them once an earlier block has found an infinite square
    pts = rng.normal(size=(300, 3))
    pts[[40, 200], 0] = math.inf
    starts = [0, 40, 41, 150, 201]
    with np.errstate(invalid="ignore"):
        got = _suffix_diameters(pts, starts)
        want = _scan_reference(pts, starts)
    assert [math.isnan(v) for v in want] == [True, True, False, False, False]
    np.testing.assert_array_equal(got, want)


def test_pruned_suffix_diameters_at_the_row_limit(rng):
    pts = _point_family("spiral", EXACT_DIAMETER_ROWS, 3, rng)
    starts = [0, 2048, 4000]
    assert _suffix_diameters(pts, starts) == [_diameter_reference(pts[s:]) for s in starts]


def _count_pairs(monkeypatch):
    """Wrap the diameter's pair kernel; the returned list gets the number of
    pairs each call evaluates, the size of its output."""
    counts, kernel = [], harness._pair_squares

    def counted(*args):
        sq = kernel(*args)
        counts.append(sq.size)
        return sq

    monkeypatch.setattr(harness, "_pair_squares", counted)
    return counts


def _full_scan_pairs(n):
    # what a scan of every pair evaluates on n rows, in blocks against every row from their start
    block = harness._DIAMETER_BLOCK
    return sum(min(block, n - i) * (n - i) for i in range(0, n, block))


#: the bench's start points for spd-laplacian-1d(3)
_LAPLACIAN3_POINTS = [
    [-0.424, -1.95, -1.141], [-0.109, -1.429, -1.646], [1.391, 1.48, 1.64],
    [0.749, 1.611, 1.273], [-1.226, -1.862, -1.652], [-1.803, -1.637, -0.965],
    [-0.637, -1.875, -1.635], [-0.502, -1.694, -2.127],
]


@pytest.mark.parametrize("x", _LAPLACIAN3_POINTS)
def test_pruning_skips_most_pairs_of_a_converging_flow(x, monkeypatch):
    counts = _count_pairs(monkeypatch)
    raw = {"scenario": "nr", "operator": {"kind": "spd-laplacian-1d", "size": 3},
           "initial_point": x, "modulus": {"kind": "laplacian", "Lambda": 2},
           "k_range": [0, 3], "grid_step": 0.25, "horizon_pad": 10.0, "tolerance": 1e-9}
    report = run_experiment(ExperimentConfig.from_dict(raw))
    assert report.passed
    n = report.grid["points"]
    assert n == 2921 and _full_scan_pairs(n) > 4.26e6
    assert 0 < sum(counts) < 0.01 * _full_scan_pairs(n)


def test_pruning_costs_no_pairs_on_a_sphere(rng, monkeypatch):
    counts = _count_pairs(monkeypatch)
    pts = _point_family("sphere", EXACT_DIAMETER_ROWS, 3, rng)
    _suffix_diameters(pts, [0, 1024, 2048])
    assert sum(counts) <= _full_scan_pairs(EXACT_DIAMETER_ROWS)


# --------------------------------------------- streamed grids and 1-d folds

def _bits(values):
    return np.asarray(values, dtype=float).view(np.int64)


#: grid starts and steps: integer thresholds as the verifiers use, and any
#: float; np.arange writes a start of -0.0 as it is, which lo + 0 * delta is not
_LOS = st.one_of(st.just(-0.0), st.integers(0, 10**6).map(float),
                 st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False))
_STEPS = st.floats(1e-3, 10.0)


@given(_LOS, _STEPS, st.integers(1, 400), st.data())
@settings(max_examples=300)
def test_grid_rows_equal_arange_bit_for_bit(lo, step, length, data):
    hi = lo + (length - 1) * step
    grid = np.arange(lo, hi + step / 2, step)
    n = _grid_length(lo, hi, step)
    assert n == grid.size
    i0 = data.draw(st.integers(0, n))
    i1 = data.draw(st.integers(i0, n))
    np.testing.assert_array_equal(_bits(_grid_rows(lo, step, i0, i1)), _bits(grid[i0:i1]))
    # rows 0 and 1 are written apart from the fill formula
    np.testing.assert_array_equal(_bits(_grid_rows(lo, step, 0, min(n, 2))), _bits(grid[:2]))
    np.testing.assert_array_equal(_bits([_grid_point(lo, step, i) for i in range(n)]),
                                  _bits(grid))


@given(_LOS, _STEPS, st.integers(1, 400), st.data())
@settings(max_examples=300)
def test_grid_index_equals_searchsorted(lo, step, length, data):
    hi = lo + (length - 1) * step
    grid = np.arange(lo, hi + step / 2, step)
    j = data.draw(st.integers(0, grid.size - 1))
    # on a grid point, just below one as the verifiers ask, and anywhere
    values = [grid[j], grid[j] - 1e-9, np.nextafter(grid[j], -np.inf),
              data.draw(st.floats(lo - 2 * step, hi + 2 * step))]
    for value in values:
        assert _grid_index(lo, step, grid.size, value) == np.searchsorted(grid, value)


def _fold_cases(n):
    edges = [_SLICE_ROWS * j + o for j in range(1, n // _SLICE_ROWS + 1) for o in (-1, 0, 1)]
    # unsorted, repeated, at slice edges, at n - 2, n - 1 and past the end
    return [0, 0, 1, 5, 300] + [e for e in edges if e <= n] + [n - 2, n - 1, n - 1, n, 3]


@pytest.mark.parametrize("n", [_SLICE_ROWS - 1, _SLICE_ROWS, _SLICE_ROWS + 1])
def test_suffix_spreads_at_slice_size_match_reference(rng, n):
    assert _SLICE_ROWS == 16_384
    pts = rng.normal(size=(n, 1))
    for row in range(_SLICE_ROWS - 2, min(n, _SLICE_ROWS + 2)):  # extremes at the slice edge
        pts[row, 0] = (-1) ** row * (row - _SLICE_ROWS + 10)
    starts = _fold_cases(n)
    assert _suffix_diameters(pts, starts) == [_diameter_reference(pts[s:]) for s in starts]


@pytest.mark.parametrize("where", ["first", "middle", "last"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_suffix_spreads_with_a_non_finite_row_match_reference(rng, where, value):
    n = 3 * _SLICE_ROWS + 77
    pts = rng.normal(size=(n, 1))
    row = {"first": 7, "middle": _SLICE_ROWS + 11, "last": n - 3}[where]
    pts[row, 0] = value
    starts = _fold_cases(n) + [row, row + 1]
    got = _suffix_diameters(pts, starts)
    want = [_diameter_reference(pts[s:]) for s in starts]
    np.testing.assert_array_equal(got, want)
    assert [math.isnan(v) or math.isinf(v) for v in got] == [s <= row for s in starts[:-2]] + [
        True, False]


def test_streamed_cauchy_check_equals_the_full_grid(orbit_c1):
    # 20,001 grid points: two slices, the second partial; threshold 4099 cuts
    # at row 16,384, the edge between them
    thresholds = {0: 3, 1: 10, 2: 4099, 3: 4100}
    report = verify_orbit_cauchy(orbit_c1, thresholds.get, range(4), grid_step=0.25,
                                 horizon_pad=903.0)
    grid = np.arange(3, 4100 + 903.0 + 0.125, 0.25)
    assert report.grid["points"] == grid.size == 20_001 > _SLICE_ROWS
    points = orbit_c1.evaluate_many(grid)
    want = [_diameter_reference(points[np.searchsorted(grid, thresholds[k] - 1e-9):])
            for k in range(4)]
    assert [row.worst_observed for row in report.rows] == want


#: segment lengths: a cut inside an end chunk or near it, the end-read's
#: edge, and long segments
_GAPS = st.one_of(st.integers(0, 3 * _END_ROWS),
                  st.sampled_from([_END_READ_MIN + o for o in (-1, 0, 1)]),
                  st.integers(0, 6000))


def _monotone_rows(data, n):
    """``(rows, limit)`` for the end-read's promise: either no limit and
    sorted values (so exactly monotone, with ties) of one scale, steep at
    one end and flat at the other for a large power, with optional +-inf
    and NaN rows sorted to the ends; or ``_rows_reaching_limit``.  Either
    gets an optional relative jitter of 1e-12, which the pruning margin
    must absorb."""
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    jitter = data.draw(st.sampled_from([False, True, True]))
    if data.draw(st.booleans()):
        return _rows_reaching_limit(data, rng, n, jitter)
    spread = data.draw(st.sampled_from([0.0, 1e-12, 1e-9, 1e-6, 1.0, 1e10]))
    scale = data.draw(st.sampled_from([1.0, -1.0, 1e-300, 1e-310, 0.0, -1e290]))
    power = data.draw(st.sampled_from([1, 16, 256]))
    vals = scale * (1.0 + spread * rng.random(n) ** power)
    for value in (math.inf, -math.inf, math.nan):
        vals[rng.integers(0, n, data.draw(st.sampled_from([0, 0, 1, 100])))] = value
    vals = np.sort(vals)
    if data.draw(st.booleans()):
        vals = vals[::-1]
    if jitter:
        vals *= 1.0 + 1e-12 * rng.uniform(-1.0, 1.0, n)
    return vals[:, None], None


def _rows_reaching_limit(data, rng, n, jitter):
    """A curve that moves towards ``limit`` (0, or +-1 as the quartic's)
    from one side, by gaps that shrink (an exp tail through the subnormals,
    sorted draws of one scale, or a flat gap) and are 0 from a drawn row on:
    never, the first, the last, or any.  A 0 gap below the limit 0 is -0.0,
    as x * 0.0 is for x < 0.  A jitter that would pass the limit is clamped
    to it, rows after the first one at the limit stay there, and the far
    end may start at infinity."""
    limit = data.draw(st.sampled_from([0.0, 1.0, -1.0]))
    side = data.draw(st.sampled_from([1.0, -1.0]))
    shape = data.draw(st.sampled_from(["exp", "sorted", "flat"]))
    g0 = data.draw(st.sampled_from([1.0, 1e10, 1e-6, 1e-300, 1e-310]))
    if shape == "exp":
        rate = data.draw(st.sampled_from([1e-6, 0.01, 0.5, 3.0]))
        gaps = np.exp(math.log(g0) - rate * np.arange(n))
    elif shape == "sorted":
        power = data.draw(st.sampled_from([1, 16, 256]))
        gaps = np.sort(g0 * (1.0 + rng.random(n) ** power))[::-1]
    else:
        gaps = np.full(n, g0)
    gaps[data.draw(st.one_of(st.sampled_from([0, n - 1, n]), st.integers(0, n))):] = 0.0
    vals = side * gaps if limit == 0.0 else limit + side * gaps
    if jitter:  # a jittered value never passes the limit
        vals *= 1.0 + 1e-12 * rng.uniform(-1.0, 1.0, n)
        vals[side * (vals - limit) < 0] = limit
    settled = np.flatnonzero(vals == limit)
    if settled.size:
        vals[settled[0]:] = vals[settled[0]]
    vals[:data.draw(st.sampled_from([0, 0, 1, 100]))] = side * math.inf
    return vals[:, None], limit


@given(st.lists(_GAPS, min_size=1, max_size=8),
       st.one_of(st.integers(1, 300), st.integers(_END_READ_MIN, 6000)), st.data())
@settings(max_examples=300, deadline=None)
def test_end_read_suffix_spreads_equal_the_full_read(gaps, tail, data):
    cuts = np.cumsum(gaps).tolist()
    n = cuts[-1] + tail
    pts, limit = _monotone_rows(data, n)
    read = []

    def rows(i0, i1):
        read.extend(range(i0, i1))
        return pts[i0:i1]

    starts = cuts + [n - 1, n]
    with np.errstate(invalid="ignore"):  # inf - inf
        got = _suffix_extents(rows, n, 1, starts, limit)
        want = [_diameter_reference(pts[s:]) for s in starts]
    np.testing.assert_array_equal(_bits(got), _bits(want))
    assert len(read) == len(set(read))  # no row is read twice
    read = np.array(read, dtype=int)
    assert (read >= min(cuts + [n - 1])).all()  # no row before the first start is read
    segments = sorted({c for c in cuts if c < n - 1})
    for a, b in zip(segments, segments[1:] + [n]):
        seg = pts[a:b, 0]
        count = np.count_nonzero((read >= a) & (read < b))
        if (seg == seg[0]).all() and (limit is None or seg[0] != limit):
            assert count == b - a  # a flat segment away from the limit is read in full
        if limit is not None and b - a >= _END_READ_MIN and (seg == limit).all():
            assert count == 2 * _END_ROWS  # a settled segment is read at its ends only


@pytest.mark.parametrize("flat_end", ["head", "tail"])
@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_end_read_keeps_the_interior_next_to_a_flat_end(flat_end, sign):
    # flat up to a 1e-12 jitter, then rising over the last 100 rows: the
    # jittered interior passes the flat end's extreme, so it must be read
    n = 3000
    rise = 1e-6 * np.maximum(np.arange(n) - (n - 100), 0)
    vals = sign * (1.0 + rise) * (1.0 + 1e-12 * np.random.default_rng(5).uniform(-1, 1, n))
    pts = (vals if flat_end == "head" else vals[::-1])[:, None]
    flat_extreme = np.argmin(pts) if sign > 0 else np.argmax(pts)  # the flat part is low if > 0
    assert _END_ROWS <= flat_extreme < n - _END_ROWS
    limit = 2.0 * sign if flat_end == "head" else 0.0  # beyond the far end, never reached
    got = _suffix_extents(lambda i0, i1: pts[i0:i1], n, 1, [0, 1], limit)
    assert _bits(got).tolist() == _bits([_diameter_reference(pts[s:]) for s in (0, 1)]).tolist()


def _flow_curve(data):
    """``(u, many)``: a curve on an opted-in 1-d operator and an evaluation
    of it on a batch of times.  u is the flow orbit from a start x, whose
    ``limit`` is Px and which ``many`` evaluates by the operator's own
    ``exact_flow_many``, or an almost-orbit on it with e = +-1, whose
    ``limit`` is Px only when it moves with the flow."""
    kind = data.draw(st.sampled_from(["scaled-identity", "spd-1x1", "quartic"]))
    if kind == "quartic":
        op = make_quartic_well()
        x = data.draw(st.one_of(st.floats(-1.0, 1.0), st.floats(-8.0, 8.0)))
    else:
        rate = data.draw(st.floats(1e-3, 2.0))
        op = make_scaled_identity(rate, 1) if kind == "scaled-identity" else make_spd_linear([[rate]])
        x = data.draw(st.one_of(st.floats(-1e3, 1e3), st.floats(-1e150, 1e150)))
    assert op.monotone_flow
    c = data.draw(st.one_of(st.just(0.0), st.floats(0.0, 4.0)))
    e = data.draw(st.sampled_from([1.0, -1.0, None]))
    p = float(op.zero_projection([x])[0])
    if e is None:
        u = make_almost_orbit(op, [x])
        assert u.limit == p
        return u, lambda ts: op.exact_flow_many([x], ts)
    u = make_almost_orbit(op, [x], c, [e])
    assert u.limit == (p if c == 0 or (p * e >= 0 and (x - p) * e >= 0) else None)
    return u, u.evaluate_many


#: thresholds up to 1,000: at a rate above 0.75 a grid reaches the exp
#: underflow tail of the flow, alpha t > 745, where rows settle at Px = 0
@given(st.dictionaries(st.integers(0, 7), st.one_of(st.integers(0, 300), st.integers(300, 1000)),
                       min_size=1, max_size=6),
       st.floats(0.02, 0.5), st.floats(0.0, 40.0), st.data())
@settings(max_examples=150, deadline=None)
def test_monotone_cauchy_checks_equal_the_full_grid(thresholds, step, pad, data):
    curve, many = _flow_curve(data)
    report = verify_orbit_cauchy(curve, thresholds.get, thresholds, step, pad)
    grid = np.arange(min(thresholds.values()), max(thresholds.values()) + pad + step / 2, step)
    points = many(grid)
    want = [_diameter_reference(points[np.searchsorted(grid, thresholds[k] - 1e-9):])
            for k in sorted(thresholds)]
    np.testing.assert_array_equal(_bits([row.worst_observed for row in report.rows]), _bits(want))


def _count_flow_rows(monkeypatch, cls):
    rows = [0]
    flow = cls.exact_flow_many

    def counted(self, x, ts):
        rows[0] += len(ts)
        return flow(self, x, ts)

    monkeypatch.setattr(cls, "exact_flow_many", counted)
    return rows


@pytest.mark.parametrize("name, k_range, cls", [
    ("nr_quartic.json", [0, 7], QuarticWell),
    ("xu_roc_scaled_identity.json", [0, 5], ScaledIdentity),
    # 2e^-t is 0.0 from t = 745 on: the segments past it are settled at Px = 0
    ("nr_closure_scaled_identity.json", [0, 3], ScaledIdentity),
])
def test_long_monotone_cauchy_grids_read_only_segment_ends(monkeypatch, name, k_range, cls):
    raw = json.loads((CONFIG_DIR / name).read_text(encoding="utf-8"))
    rows = _count_flow_rows(monkeypatch, cls)
    report = run_experiment(ExperimentConfig.from_dict({**raw, "k_range": k_range}))
    assert report.passed and report.grid["points"] > 100_000
    assert rows[0] <= 2048


class _UnmarkedQuartic(AccretiveOperator):
    """The quartic well's flow on an operator that does not opt in."""

    name, dim = "unmarked-quartic", 1
    exact_flow_many = QuarticWell.exact_flow_many
    zero_witness = QuarticWell.zero_witness


def test_cauchy_check_without_the_opt_in_reads_every_row(monkeypatch):
    assert not _UnmarkedQuartic.monotone_flow
    unmarked = make_almost_orbit(_UnmarkedQuartic(), [3.0])
    assert unmarked.limit is None
    rows = _count_flow_rows(monkeypatch, _UnmarkedQuartic)
    thresholds = {0: 48, 1: 768, 2: 3888}
    plain = verify_orbit_cauchy(unmarked, thresholds.get, range(3))
    assert rows[0] == plain.grid["points"] == 15_401
    marked = verify_orbit_cauchy(make_almost_orbit(make_quartic_well(), [3.0]), thresholds.get,
                                 range(3))
    assert marked.to_dict()["rows"] == plain.to_dict()["rows"]


def test_multi_d_cauchy_suffix_is_refused_before_any_row_is_evaluated():
    # 100,001 rows in R^16: 12.8 MB for each flow temporary
    op = make_spd_linear(dirichlet_laplacian_1d(16))
    tracemalloc.start()
    try:
        with pytest.raises(ResourceLimitError, match=r"100001 points in R\^16 exceeds 4096"):
            verify_orbit_cauchy(make_almost_orbit(op, [1.0] * 16), lambda k: 0, [0],
                                horizon_pad=25000.0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_multi_d_metastability_window_is_refused_before_any_row_is_evaluated(monkeypatch):
    # an 80,001-point window in R^16: 10.2 MB for each flow temporary
    u = make_almost_orbit(make_spd_linear(dirichlet_laplacian_1d(16)), [1.0] * 16)
    assert u.limit is None
    rows = _count_flow_rows(monkeypatch, SPDLinear)
    tracemalloc.start()
    try:
        with pytest.raises(ResourceLimitError, match=r"80001 points in R\^16 exceeds 4096"):
            verify_metastability(u, lambda k, f: 0, [0], [rate_from_spec({"const": 20000})])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert rows[0] == 0
    assert peak < 1 << 20


def _full_read_extents(rows, n, d, starts, limit=None):
    # every row, in one call, through the reference diameter
    points = rows(0, n)
    return [_diameter_reference(points[s:]) for s in starts]


@pytest.mark.parametrize("width", [600, 5000])  # windows of 2,401 and 20,001 grid points
@pytest.mark.parametrize("c, e, limit", [
    (0.0, 1.0, 0.0),  # the flow orbit 2e^-t: monotone, settles at Px = 0
    (1.0, -1.0, None),  # 2e^-t - 1/(1+t): turns below 0, so read in full
])
def test_long_metastability_windows_equal_the_full_read(width, c, e, limit, monkeypatch):
    u = make_almost_orbit(make_scaled_identity(1.0, 1), [2.0], c, [e])
    assert u.limit == limit
    args = (u, lambda k, f: 12, range(4), [rate_from_spec({"const": width})])
    rows = _count_flow_rows(monkeypatch, ScaledIdentity)
    got = verify_metastability(*args)
    read = rows[0]
    monkeypatch.setattr(harness, "_suffix_extents", _full_read_extents)
    want = verify_metastability(*args)
    assert None not in [r.witness for r in got.rows]
    assert _bits([r.worst_observed for r in got.rows]).tolist() == _bits(
        [r.worst_observed for r in want.rows]).tolist()
    assert got.to_dict() == want.to_dict()
    full = rows[0] - read
    assert full > _SLICE_ROWS if width == 5000 else full > _END_READ_MIN
    # the monotone windows are read at their ends, the others in full
    windows = sum(r.witness + 1 for r in got.rows)
    assert read == (full if limit is None else 2 * _END_ROWS * windows)


@pytest.mark.parametrize("name, k_range, points", [
    ("nr_quartic.json", [0, 7], 786_281),
    ("xu_roc_scaled_identity.json", [0, 5], 102_221),
])
def test_long_cauchy_grids_are_checked_in_bounded_memory(name, k_range, points):
    # one float64 array of grid length is 6.3 MB on the quartic grid, 0.8 MB on xu-roc's
    raw = json.loads((CONFIG_DIR / name).read_text(encoding="utf-8"))
    cfg = ExperimentConfig.from_dict({**raw, "k_range": k_range})
    tracemalloc.start()
    try:
        report = run_experiment(cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.passed and report.grid["points"] == points
    assert peak < 2 << 20


# ------------------------------------------------- flow evaluation, multi-d

def test_evaluate_semigroup_spd_matches_oracle():
    op = make_spd_linear(np.array([[2.0, -1.0], [-1.0, 2.0]]))
    x = np.array([1.0, -1.0])
    pt, err = evaluate_semigroup(op, x, 1.5, 0.05)
    assert err <= 0.05
    assert norm(pt - op.exact_flow(x, 1.5)) <= err


def test_trajectory_quartic_matches_oracle_within_bounds():
    # each point steps from the previous one; by nonexpansiveness the step
    # certificates add up
    op = make_quartic_well()
    pt, err, prev = [3.0], 0.0, 0.0
    for t in (0.5, 1.0, 2.0):
        pt, step_err = evaluate_semigroup(op, pt, t - prev, 0.1)
        err, prev = err + step_err, t
        assert norm(pt - op.exact_flow([3.0], t)) <= err


def test_grid_cap_refuses_before_allocating_the_grid():
    # 450 / 1e-4 is 4.5 M points: about 36 MB as a float64 grid
    op = make_scaled_identity(1.0, 1)
    tracemalloc.start()
    try:
        with pytest.raises(ResourceLimitError, match="needs 4500001 grid points"):
            verify_orbit_cauchy(make_almost_orbit(op, [1.0]), lambda k: 0, [0], grid_step=1e-4,
                                horizon_pad=450.0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


@pytest.mark.parametrize("samples, message", [
    # 12 / 1e-5 is 1.2 M points: about 10 MB as a float64 grid
    ({"kind": "grid", "lo": -6.0, "hi": 6.0, "step": 1e-5}, "needs 1200001 grid points"),
    ({"kind": "seeded", "count": 2 * 10**6}, "samples.count 2000000 exceeds"),
])
def test_modulus_check_sampling_cap_refuses_before_allocating(samples, message):
    cfg = ExperimentConfig.from_dict({
        "scenario": "modulus-check", "operator": {"kind": "quartic-well"},
        "modulus": {"kind": "quartic-well"}, "bound_K": 501, "k_range": [0, 5],
        "samples": samples,
    })
    tracemalloc.start()
    try:
        with pytest.raises(ResourceLimitError, match=message):
            run_experiment(cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


@pytest.mark.parametrize("name, overrides, message", [
    # 42 / 1e-6 is 42 M points per window start: about 336 MB as a float64 grid
    ("liminf_integral.json", {"grid_step": 1e-6}, "need 882000462 curve evaluations"),
    ("liminf_integral.json", {"liminf": {"form": "integral", "bound_L": 1.0, "n_max": 10**9}},
     "need 190000000190 curve evaluations"),
    ("liminf_flow_quartic.json", {"liminf": {"form": "flow-pairing", "b": 2, "n_max": 10**9}},
     "need 144000000144 curve evaluations"),
    # within the evaluation budget, but one grid beyond MAX_GRID_POINTS
    ("liminf_integral.json",
     {"grid_step": 1e-5, "liminf": {"form": "integral", "bound_L": 1.0, "n_max": 0}},
     "needs 4200001 grid points"),
    # a grid length that overflows a float is over every cap
    ("liminf_integral.json", {"grid_step": 1e-320}, "need inf curve evaluations"),
    ("nr_scaled_identity.json", {"grid_step": 1e-320}, "needs inf grid points"),
    # a metastability window of 4e13 points, and one whose end overflows a float
    ("xu_meta_scaled_identity.json", {"counterfunctions": [{"const": 10**13}]},
     "exceeded the evaluation budget"),
    ("xu_meta_scaled_identity.json", {"counterfunctions": [{"const": 10**400}]},
     "exceeded the evaluation budget"),
])
def test_dip_window_caps_refuse_before_allocating(name, overrides, message):
    raw = json.loads((CONFIG_DIR / name).read_text(encoding="utf-8"))
    cfg = ExperimentConfig.from_dict({**raw, **overrides})
    tracemalloc.start()
    try:
        with pytest.raises(ResourceLimitError, match=message):
            run_experiment(cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


# ------------------------------------------------------------- sampling edge

def test_sampling_survives_heavy_rejection():
    # at bound 40 the slope cap confines x to |x| <= 1 + 10^(1/3): most draws
    # are rejected, the sampler keeps drawing
    op = make_quartic_well()
    X, Y = sample_graph_pairs(op, seed=5, bound=40.0, count=100)
    assert len(X) == len(Y) == 100
    cap = 1.0 + (40.0 / 4.0) ** (1.0 / 3.0)
    for x, y in zip(X, Y):
        assert abs(x[0]) <= cap + 1e-9
        assert abs(y[0]) <= 40.0 + 1e-12


def test_accretivity_report_truncates():
    class Anti:
        name = "anti"
        dim = 1

        def value_many(self, X):
            return -np.asarray(X, dtype=float)

    report = check_accretive(Anti(), n_samples=60, bound=2.0, tol=1e-9, seed=0,
                             max_reported=5)
    assert not report.passed
    assert len(report.violations) == 6  # 5 entries + truncation marker
    assert "truncated" in report.violations[-1]


def test_full_modulus_report_truncates():
    op = make_quartic_well()
    points = np.arange(-6.0, 6.0 + 5e-4, 1e-3)
    report = check_full_modulus(
        op, full_modulus_linear(), K=501, k_max=5, tol=1e-9, points=points,
        max_reported=3,
    )
    assert report.violations
    markers = [v for v in report.violations if "truncated" in v]
    assert markers  # the grid produces far more than 3 violations per level


# ------------------------------------------------------------ config/report

def test_config_to_dict_round_trips_reports():
    raw = {
        "scenario": "nr",
        "operator": {"kind": "scaled-identity", "alpha": 1.0, "dim": 1},
        "initial_point": [2.0],
        "modulus": {"kind": "strongly-accretive", "a": 1},
        "k_range": [0, 2],
        "seed": 3,
    }
    cfg = ExperimentConfig.from_dict(raw)
    again = ExperimentConfig.from_dict(cfg.to_dict())
    a = render_report(run_experiment(cfg), "json")
    b = render_report(run_experiment(again), "json")
    assert a == b


def test_csv_for_metastability_rows(tmp_path):
    cfg = tmp_path / "meta.json"
    cfg.write_text(json.dumps({
        "scenario": "xu-meta",
        "operator": {"kind": "scaled-identity", "alpha": 1.0, "dim": 1},
        "initial_point": [2.0],
        "modulus": {"kind": "strongly-accretive", "a": 1},
        "almost_orbit": {"c": 1.0, "direction": [1.0]},
        "k_range": [0, 1],
        "counterfunctions": ["id", {"pow": 2}],
    }), encoding="utf-8")
    out = tmp_path / "meta.csv"
    assert parse_and_run(["certify-xu-meta", "--config", str(cfg),
                          "--format", "csv", "--out", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    assert len(lines) == 5  # header + 2 levels x 2 counterfunctions
    assert lines[1].split(",")[1] == "id"
    assert lines[2].split(",")[1] == "pow:2"


def test_unwritable_output_exits_two(tmp_path, capsys):
    cfg = tmp_path / "nr.json"
    cfg.write_text(json.dumps({
        "scenario": "nr",
        "operator": {"kind": "scaled-identity", "alpha": 1.0, "dim": 1},
        "initial_point": [2.0],
        "modulus": {"kind": "strongly-accretive", "a": 1},
        "k_range": [0, 1],
    }), encoding="utf-8")
    code = parse_and_run(["certify-nr", "--config", str(cfg),
                          "--out", str(tmp_path / "missing-dir" / "r.json")])
    assert code == 2
    assert "cannot write report" in capsys.readouterr().err


def test_scaled_identity_alpha_not_one_full_chain():
    # a = ceil(1/alpha) = 4 certifies alpha = 0.3
    from accretive_flows import (
        NRInputs, full_modulus_strongly_accretive, make_scaled_identity,
        orbit_cauchy_threshold, verify_orbit_cauchy, weak_from_full,
    )

    op = make_scaled_identity(0.3, 2)
    weak = weak_from_full(full_modulus_strongly_accretive(4))
    report = check_full_modulus(
        op, full_modulus_strongly_accretive(4), K=6, k_max=6, tol=1e-9,
        n_samples=2000, seed=9,
    )
    assert not report.violations
    x = [1.5, -0.5]
    inp = NRInputs.from_point(op, x, weak)
    cauchy = verify_orbit_cauchy(make_almost_orbit(op, x), orbit_cauchy_threshold(inp),
                                 k_range=range(3))
    assert cauchy.passed
