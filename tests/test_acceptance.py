"""Acceptance suite: one test per criterion, each printing a pass line and
enforcing its runtime budget.

Expected integer values were computed with an independent evaluation script
(direct transliteration of the rate formulas, plus mpmath/numpy oracles) and
frozen here.
"""

import json
import time

import numpy as np

from accretive_flows import (
    ExperimentConfig,
    NRInputs,
    XuInputs,
    almost_orbit_cauchy_threshold,
    certified_graph_sequence,
    check_full_modulus,
    check_simple_modulus,
    check_weak_modulus,
    cl_error_bound,
    dirichlet_laplacian_1d,
    full_modulus_linear,
    full_modulus_quartic_well,
    full_modulus_strongly_accretive,
    identity_rate,
    make_almost_orbit,
    make_quartic_well,
    make_scaled_identity,
    make_spd_linear,
    norm,
    orbit_cauchy_threshold,
    orbit_metastability_bound,
    rate_from_spec,
    registered_pairs,
    resolvent_power,
    run_experiment,
    simple_from_full,
    verify_cauchy_rate,
    verify_flow_pairing_dip,
    verify_integrable_dip,
    verify_metastability,
    verify_orbit_cauchy,
    weak_from_full,
)
from accretive_flows.cli import render_report

GAMMA_TABLE = [46703, 186719, 420047, 746687]   # Gamma(k, f), f-independent here
ROC_THRESHOLDS = [734, 2927, 6578, 11687]


def _timed(budget_seconds):
    start = time.perf_counter()

    def check(label):
        elapsed = time.perf_counter() - start
        assert elapsed < budget_seconds, f"{label}: {elapsed:.2f}s over budget {budget_seconds}s"
        print(f"\nACCEPTANCE {label}: PASS ({elapsed:.2f}s)")

    return check


def test_criterion_01_full_modulus_strongly_accretive():
    done = _timed(2.0)
    op = make_scaled_identity(1.0, 4)
    report = check_full_modulus(
        op, full_modulus_strongly_accretive(1), K=10, k_max=10, tol=1e-9,
        n_samples=10_000, seed=0,
    )
    assert report.n_pairs == 10_000
    assert not report.violations, report.violations[:3]
    done("1 full-modulus soundness (strongly accretive)")


def test_criterion_02_full_modulus_quartic_and_counterexample():
    done = _timed(2.0)
    op = make_quartic_well()
    points = np.arange(-6.0, 6.0 + 5e-4, 1e-3)
    good = check_full_modulus(
        op, full_modulus_quartic_well(), K=501, k_max=5, tol=1e-9, points=points,
    )
    assert not good.violations, good.violations[:3]
    wrong = check_full_modulus(
        op, full_modulus_linear(), K=501, k_max=5, tol=1e-9, points=points,
    )
    assert wrong.violations
    assert any("x" in v for v in wrong.violations)
    done("2 full-modulus soundness (quartic) + counterexample")


def test_criterion_03_cauchy_certificate_scaled_identity():
    done = _timed(5.0)
    op = make_scaled_identity(1.0, 1)
    weak = weak_from_full(full_modulus_strongly_accretive(1))
    inp = NRInputs.from_point(op, [2.0], weak)
    threshold = orbit_cauchy_threshold(inp)
    assert [threshold(k) for k in range(6)] == [12 * (k + 1) ** 2 for k in range(6)]
    report = verify_cauchy_rate(
        op, [2.0], threshold, k_range=range(6), grid_step=0.25,
        horizon_pad=10.0, tol=1e-9,
    )
    assert report.passed, report.violations
    done("3 Cauchy certificate (scaled identity), thresholds 12(k+1)^2")


def test_criterion_04_cauchy_certificate_quartic():
    done = _timed(5.0)
    op = make_quartic_well()
    weak = weak_from_full(full_modulus_quartic_well())
    inp = NRInputs.from_point(op, [3.0], weak)
    assert (inp.b, inp.K) == (2, 32)
    threshold = orbit_cauchy_threshold(inp)
    report = verify_cauchy_rate(
        op, [3.0], threshold, k_range=range(6), grid_step=0.25,
        horizon_pad=10.0, tol=1e-9,
    )
    assert report.passed, report.violations
    done("4 Cauchy certificate (quartic well)")


def test_criterion_05_euler_chain_certificate():
    done = _timed(5.0)
    ops = [make_scaled_identity(1.0, 1), make_spd_linear(dirichlet_laplacian_1d(4))]
    for op in ops:
        x = np.full(op.dim, 2.0)
        speed = norm(op.value(x))
        for t in (0.5, 1.0, 2.0):
            exact = op.exact_flow(x, t)
            for n in (4, 16, 64, 256, 1024):
                err = norm(resolvent_power(op, x, t, n) - exact)
                assert err <= cl_error_bound(t, speed, n), (op.name, t, n, err)
    done("5 implicit-Euler chain certificate 2t||v||/sqrt(n)")


def test_criterion_06_dip_windows():
    done = _timed(5.0)
    integral = verify_integrable_dip(
        lambda t: 1.0 / (1.0 + t) ** 2, L=1.0, k_max=20, n_max=20,
        grid_step=0.25, tol=1e-9,
    )
    assert integral.passed, integral.violations[:3]
    scaled = verify_flow_pairing_dip(
        make_scaled_identity(1.0, 1), [2.0], b=2, k_max=10, n_max=10,
        grid_step=0.25, tol=1e-9,
    )
    assert scaled.passed, scaled.violations[:3]
    quartic = verify_flow_pairing_dip(
        make_quartic_well(), [3.0], b=2, k_max=10, n_max=10,
        grid_step=0.25, tol=1e-9,
    )
    assert quartic.passed, quartic.violations[:3]
    done("6 integral and flow-pairing dip windows")


def test_criterion_07_metastability_certificate():
    done = _timed(60.0)
    op = make_scaled_identity(1.0, 1)
    orbit = make_almost_orbit(op, [2.0], 1.0, [1.0])
    assert orbit.bound_B == 3  # audited radius bound
    inputs = XuInputs.from_orbit(orbit, weak_from_full(full_modulus_strongly_accretive(1)))
    # spot-check against the independent evaluation script
    assert orbit_metastability_bound(inputs, 0, identity_rate) == GAMMA_TABLE[0]
    counterfunctions = [identity_rate, rate_from_spec({"affine": [2, 0]}),
                        rate_from_spec({"pow": 2})]
    for f in counterfunctions:
        got = [orbit_metastability_bound(inputs, k, f) for k in range(4)]
        assert got == GAMMA_TABLE
    report = verify_metastability(
        orbit, lambda k, f: orbit_metastability_bound(inputs, k, f),
        k_range=range(4), counterfunctions=counterfunctions,
        grid_step=0.25, tol=1e-9,
    )
    assert report.passed, report.violations
    assert all(row.witness is not None and row.witness <= row.certified_bound
               for row in report.rows)
    done("7 metastability certificate, Gamma spot-checked")


def test_criterion_08_rate_of_convergence_certificate():
    done = _timed(30.0)
    op = make_scaled_identity(1.0, 1)
    orbit = make_almost_orbit(op, [2.0], 1.0, [1.0])
    # plain defect rate ceil(2c(k+1) - 1)
    assert [orbit.rate_phi(k) for k in range(8)] == [2 * k + 1 for k in range(8)]
    inputs = XuInputs.from_orbit(orbit, weak_from_full(full_modulus_strongly_accretive(1)))
    thresholds = [almost_orbit_cauchy_threshold(inputs, k) for k in range(4)]
    assert thresholds == ROC_THRESHOLDS
    report = verify_orbit_cauchy(
        orbit, lambda k: almost_orbit_cauchy_threshold(inputs, k),
        k_range=range(4), grid_step=0.25, horizon_pad=10.0, tol=1e-9,
    )
    assert report.passed, report.violations
    done("8 almost-orbit Cauchy certificate")


def test_criterion_09_conversion_chain():
    done = _timed(10.0)
    rng = np.random.default_rng(2024)
    for name, op, full in registered_pairs():
        simple = simple_from_full(full)
        weak = weak_from_full(full)
        for i in range(5):
            x0 = rng.uniform(-3.0, 3.0, size=op.dim)
            seq = certified_graph_sequence(op, x0, count=64)
            rep_s = check_simple_modulus(
                op, simple, seq.X, seq.Y, seq.phi, seq.K, k_max=3, m_max=3, tol=1e-9,
            )
            assert rep_s.passed, (name, i, rep_s.violations[:2])
            rep_w = check_weak_modulus(
                op, weak, seq.X, seq.Y, seq.phi, seq.K, k_max=3, tol=1e-9,
            )
            assert rep_w.passed, (name, i, rep_w.violations[:2])
    done("9 conversion chain on the registered zoo")


def test_criterion_10_deterministic_reports():
    done = _timed(30.0)
    configs = [
        {
            "scenario": "modulus-check",
            "operator": {"kind": "scaled-identity", "alpha": 1.0, "dim": 4},
            "modulus": {"kind": "strongly-accretive", "a": 1},
            "bound_K": 10,
            "k_range": [0, 10],
            "samples": {"kind": "seeded", "count": 10000},
            "tolerance": 1e-9,
            "seed": 0,
        },
        {
            "scenario": "nr",
            "operator": {"kind": "scaled-identity", "alpha": 1.0, "dim": 1},
            "initial_point": [2.0],
            "modulus": {"kind": "strongly-accretive", "a": 1},
            "k_range": [0, 5],
            "tolerance": 1e-9,
            "seed": 0,
        },
        {
            "scenario": "xu-meta",
            "operator": {"kind": "scaled-identity", "alpha": 1.0, "dim": 1},
            "initial_point": [2.0],
            "modulus": {"kind": "strongly-accretive", "a": 1},
            "almost_orbit": {"c": 1.0, "direction": [1.0]},
            "k_range": [0, 3],
            "counterfunctions": ["id", {"affine": [2, 0]}, {"pow": 2}],
            "tolerance": 1e-9,
            "seed": 0,
        },
    ]
    for raw in configs:
        first = render_report(run_experiment(ExperimentConfig.from_dict(dict(raw))), "json")
        second = render_report(run_experiment(ExperimentConfig.from_dict(dict(raw))), "json")
        assert first.encode() == second.encode(), raw["scenario"]
        assert json.loads(first)["passed"] is True
    done("10 byte-identical reports under a fixed seed")
