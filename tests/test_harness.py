import json
import math
from pathlib import Path

import numpy as np
import pytest

from accretive_flows import (
    ConfigurationError,
    ExperimentConfig,
    NRInputs,
    QuarticWell,
    XuInputs,
    almost_orbit_cauchy_threshold,
    certified_graph_sequence,
    check_simple_modulus,
    check_weak_modulus,
    dirichlet_laplacian_1d,
    empirical_rate_of_convergence,
    full_modulus_strongly_accretive,
    identity_rate,
    make_almost_orbit,
    make_quartic_well,
    make_scaled_identity,
    make_spd_linear,
    orbit_cauchy_threshold,
    orbit_metastability_bound,
    rate_from_spec,
    registered_pairs,
    run_experiment,
    simple_from_full,
    verify_cauchy_rate,
    verify_flow_pairing_dip,
    verify_integrable_dip,
    verify_metastability,
    verify_orbit_cauchy,
    weak_from_full,
)
from accretive_flows import harness
from accretive_flows.harness import FAIL, PASS, PASS_WITH_SLACK, Report, ReportRow, _status

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def _weak_sacc():
    return weak_from_full(full_modulus_strongly_accretive(1))


# ------------------------------------------------------------------ statuses

def test_status_slack_accounting():
    assert _status(0.5, 1.0, 0.1) == PASS
    assert _status(1.05, 1.0, 0.1) == PASS_WITH_SLACK
    assert _status(1.2, 1.0, 0.1) == FAIL


# -------------------------------------------------------------- dip verifiers

def test_integrable_dip_inverse_square():
    report = verify_integrable_dip(lambda t: 1.0 / (1.0 + t) ** 2, L=1.0, k_max=5, n_max=5)
    assert report.passed
    # k=0, n=0: the window [0, 2] already dips at t=0 where f = 1
    assert report.rows[0].worst_observed <= 1.0


def test_integrable_dip_zero_function():
    report = verify_integrable_dip(lambda t: 0.0, L=5.0, k_max=3, n_max=3)
    assert report.passed
    assert all(r.worst_observed == 0.0 for r in report.rows)


def test_integrable_dip_flags_non_integrable_premise():
    # f == 1 has no dip below 1/2 anywhere: rows beyond k=0 must fail
    report = verify_integrable_dip(lambda t: 1.0, L=1.0, k_max=2, n_max=1)
    assert not report.passed


def test_flow_pairing_dip_scaled_identity(scaled_identity):
    report = verify_flow_pairing_dip(scaled_identity, [2.0], b=2, k_max=10, n_max=10)
    assert report.passed
    # window scale is ceil(b^2/2+1)(k+1) = 3(k+1)
    assert report.rows[0].certified_bound == 3.0


def test_flow_pairing_dip_quartic(quartic):
    report = verify_flow_pairing_dip(quartic, [3.0], b=2, k_max=10, n_max=10)
    assert report.passed


def test_flow_pairing_dip_spd(spd_tridiag4):
    x = [2.0, 0.0, -1.0, 0.5]
    b = math.ceil(math.sqrt(sum(v * v for v in x)))
    report = verify_flow_pairing_dip(spd_tridiag4, x, b=b, k_max=6, n_max=6)
    assert report.passed


def test_flow_pairing_dip_from_zero(scaled_identity):
    report = verify_flow_pairing_dip(scaled_identity, [0.0], b=0, k_max=3, n_max=3)
    assert report.passed
    assert all(r.worst_observed == 0.0 for r in report.rows)


def _dip_windows_reference(width, best_in, k_max, n_max, grid_step, tol):
    # the per-window loop _dip_windows replaced, kept as the oracle
    rows, violations = [], []
    for k in range(k_max + 1):
        target = 1.0 / (k + 1)
        worst = 0.0
        for n in range(n_max + 1):
            hi = width(k) + n
            ts = np.arange(n, hi + grid_step / 2, grid_step)
            if ts.size == 0 or ts[-1] < hi - 1e-12:
                ts = np.append(ts, hi)
            best = best_in(ts)
            worst = max(worst, best)
            if best > target + tol:
                violations.append({"k": k, "n": n, "best": best})
        rows.append(ReportRow(
            k=k, counterfunction="-", certified_bound=float(width(k)),
            worst_observed=worst, target=target, slack=tol,
            status=_status(worst, target, tol),
        ))
    return rows, violations


def _inv_square(t):
    return 1.0 / (1.0 + t) ** 2


def _integrand_curve(ts):
    return np.array([_inv_square(t) for t in ts.tolist()])


def _least_integrand(ts):
    return float(min(map(_inv_square, ts.tolist())))


def _pairing_curve(op, x):
    def curve(ts):
        W = op.exact_flow_many(x, ts)
        return np.einsum("ij,ij->i", op.value_many(W), W - op.zero_projection_many(W))
    return curve


#: the shipped step, then steps whose windows miss their end points
DIP_STEPS = [0.25, 0.1, 0.3, 1 / 3, 0.7]

DIP_FLOWS = {
    "scaled-identity": (lambda: make_scaled_identity(1.5, 2), [1.5, -1.0]),
    "spd-laplacian-1d": (lambda: make_spd_linear(dirichlet_laplacian_1d(3)), [1.0, -0.5, 0.25]),
    "quartic-well": (make_quartic_well, [3.0]),
}


@pytest.mark.parametrize("step", DIP_STEPS)
@pytest.mark.parametrize("L", [1.0, 1.5, 0.3])
def test_integrable_dip_matches_per_window_reference(L, step):
    report = verify_integrable_dip(_inv_square, L, k_max=6, n_max=5, grid_step=step)
    rows, violations = _dip_windows_reference(
        lambda k: math.ceil(L + 1) * (k + 1), _least_integrand, 6, 5, step, 1e-9)
    assert report.rows == rows
    assert report.violations == violations


@pytest.mark.parametrize("step", DIP_STEPS)
@pytest.mark.parametrize("b", [2, 3, 5])
@pytest.mark.parametrize("flow", list(DIP_FLOWS))
def test_flow_pairing_dip_matches_per_window_reference(flow, b, step):
    make, x = DIP_FLOWS[flow]
    op = make()
    curve = _pairing_curve(op, np.asarray(x))
    report = verify_flow_pairing_dip(op, x, b, k_max=6, n_max=5, grid_step=step)
    rows, violations = _dip_windows_reference(
        lambda k: math.ceil(b * b / 2 + 1) * (k + 1), lambda ts: float(curve(ts).min()),
        6, 5, step, 1e-9)
    assert report.rows == rows
    assert report.violations == violations


@pytest.mark.parametrize("step", DIP_STEPS)
@pytest.mark.parametrize("n_max", [0, 4])
@pytest.mark.parametrize("flow", ["integrand", *DIP_FLOWS])
def test_dip_windows_of_width_zero_match_reference(flow, n_max, step):
    # a zero-width window is one point, so most windows fail
    if flow == "integrand":
        curve = _integrand_curve
    else:
        make, x = DIP_FLOWS[flow]
        curve = _pairing_curve(make(), np.asarray(x))
    report = harness._dip_windows(Report(scenario="dip"), lambda k: 0, curve, 6, n_max, step, 1e-9)
    rows, violations = _dip_windows_reference(
        lambda k: 0, lambda ts: float(curve(ts).min()), 6, n_max, step, 1e-9)
    assert report.rows == rows
    assert report.violations == violations
    assert violations


@pytest.mark.parametrize("name, n_max", [
    ("liminf_integral.json", 20), ("liminf_flow_quartic.json", 10),
])
def test_dip_verifiers_evaluate_the_curve_once_per_window_start(name, n_max, monkeypatch):
    curve_calls, oracle_calls = [], []
    windows, oracle = harness._dip_windows, QuarticWell.exact_flow_many

    def counted_windows(report, width, curve, *rest):
        return windows(report, width, lambda ts: curve_calls.append(ts.size) or curve(ts), *rest)

    def counted_oracle(op, x, ts):
        oracle_calls.append(len(ts))
        return oracle(op, x, ts)

    monkeypatch.setattr(harness, "_dip_windows", counted_windows)
    monkeypatch.setattr(QuarticWell, "exact_flow_many", counted_oracle)
    raw = json.loads((CONFIG_DIR / name).read_text(encoding="utf-8"))
    assert raw["liminf"]["n_max"] == n_max
    assert run_experiment(ExperimentConfig.from_dict(raw)).passed
    assert len(curve_calls) == n_max + 1
    # the pairing form evaluates the quartic flow once per start
    assert oracle_calls == (curve_calls if "flow" in name else [])


# ------------------------------------------------------------ Cauchy verifiers

def test_cauchy_rate_scaled_identity(scaled_identity):
    inp = NRInputs.from_point(scaled_identity, [2.0], _weak_sacc())
    report = verify_cauchy_rate(scaled_identity, [2.0], orbit_cauchy_threshold(inp),
                                k_range=range(3))
    assert report.passed
    # at k=0 the flow beyond t=12 is within 2e^{-12} of its limit
    assert report.rows[0].worst_observed <= 2.0 * math.exp(-12.0) + 1e-12
    assert report.rows[0].certified_bound == 12.0


def test_cauchy_rate_stationary_start(scaled_identity):
    inp = NRInputs.from_point(scaled_identity, [0.0], _weak_sacc())
    report = verify_cauchy_rate(scaled_identity, [0.0], orbit_cauchy_threshold(inp),
                                k_range=range(3))
    assert report.passed
    assert all(r.worst_observed == 0.0 for r in report.rows)


def test_cauchy_rate_refuses_oversized_grids(scaled_identity):
    from accretive_flows import ResourceLimitError

    inp = NRInputs.from_point(scaled_identity, [2.0], _weak_sacc())
    with pytest.raises(ResourceLimitError):
        verify_cauchy_rate(scaled_identity, [2.0], orbit_cauchy_threshold(inp),
                           k_range=range(6), grid_step=1e-5)


def test_orbit_cauchy_small(orbit_c1):
    inp = XuInputs.from_orbit(orbit_c1, _weak_sacc())
    report = verify_orbit_cauchy(
        orbit_c1, lambda k: almost_orbit_cauchy_threshold(inp, k), k_range=range(2),
    )
    assert report.passed


# --------------------------------------------------------------- metastability

def test_metastability_exact_orbit(scaled_identity):
    u = make_almost_orbit(scaled_identity, [2.0], 0.0, [1.0])
    inp = XuInputs.from_orbit(u, _weak_sacc())
    report = verify_metastability(
        u, lambda k, f: orbit_metastability_bound(inp, k, f),
        k_range=[0], counterfunctions=[identity_rate],
    )
    assert report.passed
    assert report.rows[0].witness is not None
    assert report.rows[0].witness <= report.rows[0].certified_bound


def test_metastability_nontrivial_window(orbit_c1):
    # constant counterfunction f == 10: the window [n, n+10] only stabilizes
    # below 1 once the orbit has decayed: witness lands at n = 2
    inp = XuInputs.from_orbit(orbit_c1, _weak_sacc())
    f10 = rate_from_spec({"const": 10})
    report = verify_metastability(
        u=orbit_c1, gamma_bound=lambda k, f: orbit_metastability_bound(inp, k, f),
        k_range=[0], counterfunctions=[f10],
    )
    assert report.passed
    assert report.rows[0].witness == 2


def test_metastability_failure_reported(orbit_c1):
    # a dishonest bound (always 0) cannot cover the f == 10 window at k = 0
    f10 = rate_from_spec({"const": 10})
    report = verify_metastability(
        u=orbit_c1, gamma_bound=lambda k, f: 0,
        k_range=[0], counterfunctions=[f10],
    )
    assert not report.passed
    assert report.violations


def test_registry_laplacian_bound_matches_eigenvalue():
    name, op, full = registered_pairs()[1]
    assert name == "spd-laplacian-1d+laplacian"
    assert math.ceil(1.0 / op.eigenvalues[0]) == 3
    assert full(0, 3) == 3 * 16 - 1


# ------------------------------------------------------- certified sequences

def test_empirical_rate_basics():
    phi = empirical_rate_of_convergence([2.0, 0.9, 0.3, 0.05, 0.01])
    assert phi(0) == 1   # first index with tail below 1
    assert phi(2) == 2
    assert phi(1000) == 5  # beyond the data: clamps to the length


def test_conversion_chain_on_registered_zoo(rng):
    # chained simple and weak moduli hold on certified flow sequences
    for name, op, full in registered_pairs():
        simple = simple_from_full(full)
        weak = weak_from_full(full)
        for i in range(5):
            x0 = rng.uniform(-3, 3, size=op.dim)
            seq = certified_graph_sequence(op, x0, count=64)
            rep_s = check_simple_modulus(
                op, simple, seq.X, seq.Y, seq.phi, seq.K, k_max=3, m_max=3, tol=1e-9,
            )
            assert rep_s.passed, f"{name} sequence {i} (simple)"
            rep_w = check_weak_modulus(
                op, weak, seq.X, seq.Y, seq.phi, seq.K, k_max=3, tol=1e-9,
            )
            assert rep_w.passed, f"{name} sequence {i} (weak)"


# ------------------------------------------------------------- run_experiment

def _nr_config():
    return {
        "scenario": "nr",
        "operator": {"kind": "scaled-identity", "alpha": 1.0, "dim": 1},
        "initial_point": [2.0],
        "modulus": {"kind": "strongly-accretive", "a": 1},
        "k_range": [0, 2],
        "tolerance": 1e-9,
        "seed": 0,
    }


def test_run_experiment_nr():
    report = run_experiment(ExperimentConfig.from_dict(_nr_config()))
    assert report.scenario == "nr"
    assert report.passed
    assert [r.certified_bound for r in report.rows] == [12.0, 48.0, 108.0]


def test_run_experiment_modulus_check_grid():
    cfg = ExperimentConfig.from_dict({
        "scenario": "modulus-check",
        "operator": {"kind": "quartic-well"},
        "modulus": {"kind": "quartic-well"},
        "bound_K": 501,
        "k_range": [0, 3],
        "samples": {"kind": "grid", "lo": -6.0, "hi": 6.0, "step": 0.01},
        "tolerance": 1e-9,
    })
    report = run_experiment(cfg)
    assert report.passed


def test_run_experiment_modulus_check_seeded_deterministic():
    cfg_dict = {
        "scenario": "modulus-check",
        "operator": {"kind": "scaled-identity", "alpha": 1.0, "dim": 4},
        "modulus": {"kind": "strongly-accretive", "a": 1},
        "bound_K": 10,
        "k_range": [0, 5],
        "samples": {"kind": "seeded", "count": 500},
        "tolerance": 1e-9,
        "seed": 42,
    }
    a = run_experiment(ExperimentConfig.from_dict(cfg_dict))
    b = run_experiment(ExperimentConfig.from_dict(cfg_dict))
    assert a.passed
    assert json.dumps(a.to_dict(), sort_keys=True) == json.dumps(b.to_dict(), sort_keys=True)


def test_run_experiment_xu_meta_small():
    cfg = ExperimentConfig.from_dict({
        "scenario": "xu-meta",
        "operator": {"kind": "scaled-identity", "alpha": 1.0, "dim": 1},
        "initial_point": [2.0],
        "modulus": {"kind": "strongly-accretive", "a": 1},
        "almost_orbit": {"c": 1.0, "direction": [1.0]},
        "k_range": [0, 1],
        "counterfunctions": ["id"],
        "tolerance": 1e-9,
    })
    report = run_experiment(cfg)
    assert report.passed
    assert report.provenance["B"]["value"] == 3


def test_run_experiment_liminf_flow_default_b():
    cfg = ExperimentConfig.from_dict({
        "scenario": "liminf-check",
        "operator": {"kind": "quartic-well"},
        "initial_point": [3.0],
        "liminf": {"form": "flow-pairing", "n_max": 3},
        "k_range": [0, 3],
    })
    report = run_experiment(cfg)
    assert report.passed
    assert report.provenance["b"] == 2  # ceil(||x - Px||) = ceil(|3 - 1|)


def test_run_experiment_drops_violations_below_k_range():
    # modulus-check computes from k = 0, and the linear-k modulus fails from k = 1
    raw = json.loads((CONFIG_DIR / "modulus_quartic_wrong.json").read_text(encoding="utf-8"))
    report = run_experiment(ExperimentConfig.from_dict({**raw, "k_range": [3, 4]}))
    assert [r.k for r in report.rows] == [3, 4]
    assert {v["k"] for v in report.violations} == {3, 4}


def test_run_experiment_liminf_integral():
    cfg = ExperimentConfig.from_dict({
        "scenario": "liminf-check",
        "liminf": {"form": "integral", "integrand": "inv-square", "bound_L": 1.0, "n_max": 5},
        "k_range": [0, 5],
    })
    assert run_experiment(cfg).passed


@pytest.mark.parametrize("mutate, field", [
    (lambda d: d.update(scenario="bogus"), "scenario"),
    (lambda d: d.update(k_range=[3, 1]), "k_range"),
    (lambda d: d.update(grid_step=0.0), "grid_step"),
    (lambda d: d.update(tolerance=-1.0), "tolerance"),
    (lambda d: d.update(unknown_field=1), "unknown_field"),
    (lambda d: d.update(operator={"kind": "warp-drive"}), "operator.kind"),
    (lambda d: d.update(modulus={"kind": "strongly-accretive"}), "modulus.a"),
    (lambda d: d.update(operator={"kind": "spd-laplacian-1d"}), "operator.size"),
    (lambda d: d.update(operator={"kind": "spd"}), "operator.matrix"),
])
def test_config_errors_name_the_field(mutate, field):
    raw = _nr_config()
    mutate(raw)
    with pytest.raises(ConfigurationError) as err:
        run_experiment(ExperimentConfig.from_dict(raw))
    assert err.value.field == field


def test_modulus_check_requires_bound_K():
    raw = {
        "scenario": "modulus-check",
        "operator": {"kind": "quartic-well"},
        "modulus": {"kind": "quartic-well"},
        "k_range": [0, 1],
        "samples": {"kind": "grid", "lo": -2.0, "hi": 2.0, "step": 0.1},
    }
    with pytest.raises(ConfigurationError) as err:
        run_experiment(ExperimentConfig.from_dict(raw))
    assert err.value.field == "bound_K"
