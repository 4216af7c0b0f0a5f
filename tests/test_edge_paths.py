import json
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from accretive_flows import (
    ExperimentConfig,
    ResourceLimitError,
    check_full_modulus,
    evaluate_semigroup,
    full_modulus_linear,
    make_quartic_well,
    make_scaled_identity,
    make_spd_linear,
    norm,
    run_experiment,
    sample_graph_pairs,
    verify_cauchy_rate,
)
from accretive_flows import harness
from accretive_flows.cli import parse_and_run, render_report
from accretive_flows.harness import EXACT_DIAMETER_ROWS, _diameter, _suffix_diameters

from accretivity import check_accretive

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


# ----------------------------------------------------------- diameter helper

def _brute_diameter(points):
    best = 0.0
    for i in range(len(points)):
        for j in range(i + 1, len(points)):
            best = max(best, float(np.linalg.norm(points[i] - points[j])))
    return best


def test_diameter_exact_matches_brute_force(rng):
    for d in (1, 2, 3):
        pts = rng.normal(size=(60, d))
        assert _diameter(pts) == pytest.approx(_brute_diameter(pts), abs=1e-12)


def test_diameter_refuses_d_above_one_beyond_exact_limit(rng):
    with pytest.raises(ResourceLimitError, match=r"5000 points in R\^2 exceeds 4096 rows"):
        _diameter(rng.normal(size=(5000, 2)))
    col = rng.normal(size=(5000, 1))
    assert _diameter(col) == float(col.max() - col.min())  # 1-d stays exact at any length


def test_diameter_degenerate_cases():
    assert _diameter(np.zeros((1, 3))) == 0.0
    assert _diameter(np.zeros((0, 2))) == 0.0
    assert _diameter(np.zeros((0, 1))) == 0.0


def _diameter_reference(points):
    # the per-suffix formula _suffix_diameters replaced, kept as the oracle
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
                                    "tiny", "huge"])
def test_pruned_suffix_diameters_equal_brute_force(rng, family, d):
    pts = _point_family(family, 450, d, rng)
    with np.errstate(over="ignore"):  # the "huge" squares overflow in both
        got = _suffix_diameters(pts, _CUTS)
        want = [_diameter_reference(pts[s:]) for s in _CUTS]
    assert got == want


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
    # what the scan without pruning evaluates on n rows
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
    assert 0 < sum(counts) < 0.1 * _full_scan_pairs(n)


def test_pruning_costs_no_pairs_on_a_sphere(rng, monkeypatch):
    counts = _count_pairs(monkeypatch)
    pts = _point_family("sphere", EXACT_DIAMETER_ROWS, 3, rng)
    _suffix_diameters(pts, [0, 1024, 2048])
    assert sum(counts) <= _full_scan_pairs(EXACT_DIAMETER_ROWS)


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
            verify_cauchy_rate(op, [1.0], lambda k: 0, [0], grid_step=1e-4, horizon_pad=450.0)
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
    assert not report.passed
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
        orbit_cauchy_threshold, verify_cauchy_rate, weak_from_full,
    )

    op = make_scaled_identity(0.3, 2)
    weak = weak_from_full(full_modulus_strongly_accretive(4))
    report = check_full_modulus(
        op, full_modulus_strongly_accretive(4), K=6, k_max=6, tol=1e-9,
        n_samples=2000, seed=9,
    )
    assert report.passed
    x = [1.5, -0.5]
    inp = NRInputs.from_point(op, x, weak)
    cauchy = verify_cauchy_rate(op, x, orbit_cauchy_threshold(inp), k_range=range(3))
    assert cauchy.passed
