import json
from pathlib import Path

import pytest

import accretive_flows.harness as harness_mod
import accretive_flows.rates as rates_mod
from accretive_flows import (
    ExperimentConfig,
    FromRateFunctional,
    NRInputs,
    XuInputs,
    almost_orbit_cauchy_threshold,
    closure_cauchy_threshold,
    full_modulus_quartic_well,
    full_modulus_strongly_accretive,
    identity_rate,
    make_almost_orbit,
    orbit_cauchy_threshold,
    orbit_metastability_bound,
    pairing_dip_rate,
    projection_modulus_from_convexity,
    projection_modulus_identity,
    rate_from_spec,
    run_experiment,
    weak_from_full,
    zero_gap_metastability_bound,
    zero_gap_threshold,
)

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"

# frozen from the independent evaluation script
OMEGA_ETA_ROW_R0 = [51, 487, 1691, 4047, 7939, 13751]
OMEGA_ETA_COL_K1 = [487, 4047, 13751, 32671, 63879, 110447]
GAMMA_ACCEPTANCE = [46703, 186719, 420047, 746687]
ROC_ACCEPTANCE = [734, 2927, 6578, 11687]
CLOSURE_K0 = 684


def _weak_sacc(a=1):
    return weak_from_full(full_modulus_strongly_accretive(a))


def _const_phi(value):
    """The functional Phi(k, f) = value."""
    return FromRateFunctional(rate_from_spec({"const": value}))


# -------------------------------------------------------------- dip rate chi

def test_pairing_dip_rate_values():
    assert pairing_dip_rate(0)(0) == 1
    assert pairing_dip_rate(2)(5) == 18
    assert pairing_dip_rate(3)(0) == 6
    with pytest.raises(ValueError):
        pairing_dip_rate(-1)


# --------------------------------------------------------- Cauchy thresholds

def test_nr_inputs_from_point_scaled_identity(scaled_identity):
    inp = NRInputs.from_point(scaled_identity, [2.0], _weak_sacc())
    assert (inp.b, inp.K) == (2, 2)
    assert inp.provenance["b"]["value"] == 2
    assert "||x - Px||" in inp.provenance["b"]["certifies"]


def test_nr_inputs_from_point_quartic(quartic):
    inp = NRInputs.from_point(quartic, [3.0], weak_from_full(full_modulus_quartic_well()))
    assert (inp.b, inp.K) == (2, 32)


def test_orbit_cauchy_threshold_scaled_identity(scaled_identity):
    inp = NRInputs.from_point(scaled_identity, [2.0], _weak_sacc())
    thr = orbit_cauchy_threshold(inp)
    assert [thr(k) for k in range(6)] == [12 * (k + 1) ** 2 for k in range(6)]


def test_orbit_cauchy_threshold_quartic(quartic):
    inp = NRInputs.from_point(quartic, [3.0], weak_from_full(full_modulus_quartic_well()))
    thr = orbit_cauchy_threshold(inp)
    assert [thr(k) for k in range(6)] == [3 * (2 * k + 2) ** 4 for k in range(6)]


def test_threshold_from_stationary_start(scaled_identity):
    inp = NRInputs.from_point(scaled_identity, [0.0], _weak_sacc())
    assert inp.b == 0
    thr = orbit_cauchy_threshold(inp)
    rate = _weak_sacc()(inp.K, identity_rate)
    assert all(thr(k) == rate(2 * k + 1) + 1 for k in range(6))


def test_closure_threshold_example_value():
    thr = closure_cauchy_threshold(
        _weak_sacc(), identity_rate, p_norm=0, x_norm_bound=2, x_dist_bound=2,
    )
    assert thr(0) == CLOSURE_K0
    vals = [thr(k) for k in range(11)]
    assert all(b >= a for a, b in zip(vals, vals[1:]))


def test_closure_threshold_monotone_for_quartic_chain(quartic):
    thr = closure_cauchy_threshold(
        weak_from_full(full_modulus_quartic_well()), identity_rate,
        p_norm=0, x_norm_bound=3, x_dist_bound=2,
    )
    vals = [thr(k) for k in range(11)]
    assert all(b >= a for a, b in zip(vals, vals[1:]))


def test_closure_threshold_dominates_direct_one(scaled_identity):
    # constant approximants matching the direct inputs: closure bound is
    # pointwise weaker (larger)
    inp = NRInputs.from_point(scaled_identity, [2.0], _weak_sacc())
    direct = orbit_cauchy_threshold(inp)
    const2 = rate_from_spec({"const": 2})
    thr = closure_cauchy_threshold(_weak_sacc(), const2, 0, 2, 2)
    assert all(thr(k) >= direct(k) for k in range(11))


# ----------------------------------------------------- projection continuity

def test_projection_modulus_identity_values():
    omega = projection_modulus_identity()
    assert omega(5, 3) == 3
    assert all(omega(r, k) >= k for r in range(21) for k in range(21))


def test_projection_modulus_identity_claim_on_samples(quartic, rng):
    # the nearest-point projection is nonexpansive, so level k transfers as is
    for _ in range(1000):
        x, y = rng.uniform(-5, 5, size=2)
        px = quartic.zero_projection([x])[0]
        py = quartic.zero_projection([y])[0]
        assert abs(px - py) <= abs(x - y) + 1e-12


def test_projection_modulus_from_convexity_frozen_values():
    omega = projection_modulus_from_convexity()
    assert [omega(0, k) for k in range(6)] == OMEGA_ETA_ROW_R0
    assert [omega(r, 1) for r in range(6)] == OMEGA_ETA_COL_K1
    assert all(omega(r, k) >= k for r in range(21) for k in range(21))


def test_projection_modulus_from_convexity_monotone_in_radius():
    omega = projection_modulus_from_convexity()
    for k in range(6):
        vals = [omega(r, k) for r in range(21)]
        assert all(b >= a for a, b in zip(vals, vals[1:]))


# ------------------------------------------------------------- almost orbits

def _xu_inputs_stub(B=1, G=0, phi=None):
    return XuInputs(
        weak_modulus=_weak_sacc(),
        phi=phi if phi is not None else _const_phi(0),
        omega=projection_modulus_identity(),
        B=B,
        G=G,
        p_norm=0,
    )


def test_xu_inputs_validation():
    with pytest.raises(ValueError):
        _xu_inputs_stub(B=0)


def test_xu_inputs_lifts_omega():
    inp = XuInputs(
        weak_modulus=_weak_sacc(), phi=_const_phi(0),
        omega=lambda r, k: 0, B=1, G=0, p_norm=0,
    )
    assert inp.omega(3, 7) == 7


def test_xu_inputs_from_orbit(orbit_c1):
    inp = XuInputs.from_orbit(orbit_c1, _weak_sacc())
    assert inp.B == 3
    assert inp.p_norm == 0
    assert inp.G == 3  # graph pair at u(s) itself
    assert inp.phi_rate is orbit_c1.rate_phi
    assert inp.provenance["B"]["value"] == 3


def test_zero_gap_threshold_stub_value():
    inp = _xu_inputs_stub(B=1, G=0)
    assert zero_gap_threshold(inp, 0) == 27


def test_zero_gap_threshold_monotone_in_k(orbit_c1):
    inp = XuInputs.from_orbit(orbit_c1, _weak_sacc())
    vals = [zero_gap_threshold(inp, k) for k in range(11)]
    assert all(b >= a for a, b in zip(vals, vals[1:]))


def test_gamma_prime_stub_constant_phi_zero(monkeypatch):
    # Phi == 0 with Omega == c gives Gamma' = c
    inp = _xu_inputs_stub(phi=_const_phi(0))
    monkeypatch.setattr(rates_mod, "zero_gap_threshold", lambda inp_, k: 3)
    assert zero_gap_metastability_bound(inp, 5, identity_rate) == 3


def test_gamma_prime_stub_hand_value(monkeypatch):
    # Phi == 1 with Omega == 2 and f = id gives 1 + 2 = 3
    inp = _xu_inputs_stub(phi=_const_phi(1))
    monkeypatch.setattr(rates_mod, "zero_gap_threshold", lambda inp_, k: 2)
    assert zero_gap_metastability_bound(inp, 5, identity_rate) == 3


def test_gamma_prime_monotone_in_phi(monkeypatch):
    monkeypatch.setattr(rates_mod, "zero_gap_threshold", lambda inp_, k: 4)
    lo = zero_gap_metastability_bound(_xu_inputs_stub(phi=_const_phi(0)), 2, identity_rate)
    hi = zero_gap_metastability_bound(_xu_inputs_stub(phi=_const_phi(5)), 2, identity_rate)
    assert lo <= hi


def test_gamma_degenerate_phi_equals_gamma_prime():
    inp = _xu_inputs_stub(phi=_const_phi(0))
    for k in range(3):
        expected = zero_gap_metastability_bound(inp, 8 * k + 7, lambda n: 0)
        assert orbit_metastability_bound(inp, k, identity_rate) == expected


def test_gamma_constant_phi_ignores_counterfunction():
    inp = _xu_inputs_stub(phi=_const_phi(4))
    f1 = identity_rate
    f2 = rate_from_spec({"pow": 2})
    for k in range(3):
        assert orbit_metastability_bound(inp, k, f1) == orbit_metastability_bound(inp, k, f2)


class OpaqueFunctional:
    """Same values as the wrapped functional, but not marked
    counterfunction-free: forces the generic search path."""

    def __init__(self, inner):
        self.inner = inner

    def __call__(self, k, f):
        return self.inner(k, f)


def test_gamma_acceptance_scenario_frozen(orbit_c1):
    inp = XuInputs.from_orbit(orbit_c1, _weak_sacc())
    got = [orbit_metastability_bound(inp, k, identity_rate) for k in range(4)]
    assert got == GAMMA_ACCEPTANCE
    # counterfunction independence for a defect-rate functional
    sq = rate_from_spec({"pow": 2})
    assert [orbit_metastability_bound(inp, k, sq) for k in range(4)] == GAMMA_ACCEPTANCE


def test_gamma_generic_path_agrees_with_shortcut(orbit_c1):
    inp = XuInputs.from_orbit(orbit_c1, _weak_sacc())
    opaque = XuInputs(
        weak_modulus=inp.weak_modulus, phi=OpaqueFunctional(inp.phi),
        omega=projection_modulus_identity(), B=inp.B, G=inp.G, p_norm=inp.p_norm,
    )
    assert orbit_metastability_bound(opaque, 0, identity_rate) == GAMMA_ACCEPTANCE[0]


def test_roc_threshold_exact_orbit(scaled_identity):
    u = make_almost_orbit(scaled_identity, [2.0], 0.0, [1.0])
    inp = XuInputs.from_orbit(u, _weak_sacc())
    for k in range(4):
        expected = zero_gap_threshold(inp, 3 * k + 2)
        assert almost_orbit_cauchy_threshold(inp, k) == expected


def test_roc_threshold_acceptance_frozen(orbit_c1):
    inp = XuInputs.from_orbit(orbit_c1, _weak_sacc())
    got = [almost_orbit_cauchy_threshold(inp, k) for k in range(4)]
    assert got == ROC_ACCEPTANCE
    assert all(b >= a for a, b in zip(got, got[1:]))


def test_roc_threshold_requires_plain_rate(orbit_c1):
    inp = XuInputs.from_orbit(orbit_c1, _weak_sacc(), functional=_const_phi(3))
    with pytest.raises(ValueError, match="plain defect rate"):
        almost_orbit_cauchy_threshold(inp, 0)


def test_pathological_functional_hits_resource_cap():
    from accretive_flows import ResourceLimitError

    inp = _xu_inputs_stub(phi=_const_phi(2**33))
    with pytest.raises(ResourceLimitError):
        zero_gap_metastability_bound(inp, 0, identity_rate)


def test_negative_functional_output_is_refused():
    # Omega + Phi would otherwise return a bound below Omega silently
    inp = _xu_inputs_stub(phi=lambda k, f: -1)
    with pytest.raises(ValueError, match="negative"):
        zero_gap_metastability_bound(inp, 0, identity_rate)


def test_thresholds_are_pure(orbit_c1):
    inp = XuInputs.from_orbit(orbit_c1, _weak_sacc())
    a = [orbit_metastability_bound(inp, 1, identity_rate) for _ in range(3)]
    assert len(set(a)) == 1
    b = [almost_orbit_cauchy_threshold(inp, 1) for _ in range(3)]
    assert len(set(b)) == 1


# --------------------------------------- Gamma' and Gamma against Xu's general form

def _reference_omega(inp, graph_bound, s, k):
    """Omega_s(k) with an s-indexed graph bound: chi(Omega_w(K_s, id)(3k+2))
    with K_s = max(graph_bound(s)(omega(B+1, 3k+2)), B+1+p_norm)."""
    j = 3 * k + 2
    K_s = max(graph_bound(s)(inp.omega(inp.B + 1, j)), inp.B + 1 + inp.p_norm)
    chi = pairing_dip_rate(inp.B + 1)
    return chi(inp.weak_modulus(K_s, identity_rate)(j))


def _reference_gamma_prime(inp, graph_bound, k, f):
    """Gamma'(k, f) = Phi(omega(B, 3k+2), g) + max{Omega_m(3k+2) : m <= Phi(...)},
    g(m) = Omega_m(3k+2) + f(m + Omega_m(3k+2)), taken term by term."""
    j = 3 * k + 2

    def g(m):
        om = _reference_omega(inp, graph_bound, m, j)
        return om + f(m + om)

    first = inp.phi(inp.omega(inp.B, j), g)
    return first + max(_reference_omega(inp, graph_bound, m, j) for m in range(first + 1))


def _reference_gamma(inp, graph_bound, k, f):
    """Gamma(k, f) = max{Gamma'(8k+7, j), Phi(8k+7, h_N) : N <= Gamma'(8k+7, j)}.
    The max over N is Phi(8k+7, f) for a functional that ignores its
    counterfunction; ``test_gamma_generic_path_agrees_with_shortcut`` checks
    that collapse on its own."""
    k8 = 8 * k + 7

    def h(N):
        return lambda n: f(max(N, n)) + max(N, n) - n

    gp = _reference_gamma_prime(inp, graph_bound, k8, lambda n: max(n, inp.phi(k8, h(n))) - n)
    assert inp.phi.counterfunction_free
    return max(gp, inp.phi(k8, f))


def _probing_functional(k, f):
    """Evaluates its counterfunction, so Gamma' evaluates g."""
    f(0)
    f(7)
    return 2


def _xu_meta_configs():
    """Every shipped xu-meta config, then the k_range [0, 8] +-x variants
    with each metastability functional: the orbit's rate, a from-rate one and
    one that reads its counterfunction."""
    shipped = sorted(p.name for p in CONFIG_DIR.glob("*.json")
                     if json.loads(p.read_text(encoding="utf-8"))["scenario"] == "xu-meta")
    out = [pytest.param(name, {}, None, id=name) for name in shipped]
    for sign in (1.0, -1.0):
        variant = {"k_range": [0, 8], "initial_point": [2.0 * sign],
                   "almost_orbit": {"c": 1.0, "direction": [sign]}}
        tag = "+" if sign > 0 else "-"
        for phi in ({"kind": "orbit-rate"}, {"kind": "from-rate", "rate": {"affine": [2, 3]}}):
            out.append(pytest.param("xu_meta_scaled_identity.json", {**variant, "phi": phi},
                                    None, id=f"{tag}x-{phi['kind']}"))
        out.append(pytest.param("xu_meta_scaled_identity.json", variant, _probing_functional,
                                id=f"{tag}x-probing"))
    return out


def _config_inputs(name, overrides, functional=None):
    raw = json.loads((CONFIG_DIR / name).read_text(encoding="utf-8"))
    cfg = ExperimentConfig.from_dict({**raw, **overrides})
    _, orbit, weak = harness_mod._audit(cfg, harness_mod._cfg_orbit)
    inp = XuInputs.from_orbit(orbit, weak, omega=harness_mod._cfg_omega(cfg),
                              functional=functional or harness_mod._cfg_functional(cfg))
    counterfunctions = [rate_from_spec(c) for c in cfg.counterfunctions or ["id"]]
    return cfg, inp, counterfunctions


@pytest.mark.parametrize("name, overrides, functional", _xu_meta_configs())
def test_gamma_equals_the_general_form_with_the_graph_bound_fixed(name, overrides, functional):
    cfg, inp, counterfunctions = _config_inputs(name, overrides, functional)
    graph_bound = lambda s: rate_from_spec({"const": inp.G})  # noqa: E731
    lo, hi = cfg.k_range
    for k in range(lo, hi + 1):
        for f in counterfunctions:
            assert (zero_gap_metastability_bound(inp, k, f)
                    == _reference_gamma_prime(inp, graph_bound, k, f))
            if functional is None:
                # a probing functional's Gamma walks N up to Gamma'(8k+7), ~10^6 here
                assert (orbit_metastability_bound(inp, k, f)
                        == _reference_gamma(inp, graph_bound, k, f))


class _CountingThreshold:
    """Delegates to the real zero_gap_threshold and counts the calls."""

    def __init__(self):
        self.calls = 0

    def __call__(self, inp, k):
        self.calls += 1
        return _ZERO_GAP_THRESHOLD(inp, k)


_ZERO_GAP_THRESHOLD = rates_mod.zero_gap_threshold


@pytest.mark.parametrize("functional", [None, _const_phi(4), _probing_functional])
def test_gamma_prime_computes_omega_once(orbit_c1, functional, monkeypatch):
    inp = XuInputs.from_orbit(orbit_c1, _weak_sacc(), functional=functional)
    for k in range(4):
        counter = _CountingThreshold()
        monkeypatch.setattr(rates_mod, "zero_gap_threshold", counter)
        zero_gap_metastability_bound(inp, k, identity_rate)
        assert counter.calls == 1


def test_from_convexity_xu_meta_completes(monkeypatch):
    # Gamma is about 1.1e8 at k = 0, so a max over m taken term by term
    # would call zero_gap_threshold that many times per row
    raw = json.loads((CONFIG_DIR / "xu_meta_scaled_identity.json").read_text(encoding="utf-8"))
    cfg = ExperimentConfig.from_dict(
        {**raw, "omega": {"kind": "from-convexity"}, "k_range": [0, 1]})
    counter = _CountingThreshold()
    monkeypatch.setattr(rates_mod, "zero_gap_threshold", counter)
    report = run_experiment(cfg)
    assert report.passed
    assert all(row.status == "PASS" for row in report.rows)
    assert report.rows[0].certified_bound > 10**8
    # one Gamma' per (k, counterfunction) row, one Omega per Gamma'
    assert counter.calls == len(report.rows) == 2 * len(cfg.counterfunctions)
