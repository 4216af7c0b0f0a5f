import json
import math
from pathlib import Path

import pytest

from accretive_flows.cli import CSV_HEADER, parse_and_run, render_report
from accretive_flows.harness import MAX_OPERATOR_DIM, ExperimentConfig, run_experiment

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"
NAN, INF = math.nan, math.inf


def _write(tmp_path: Path, name: str, payload: dict) -> Path:
    path = tmp_path / name
    path.write_text(json.dumps(payload), encoding="utf-8")
    return path


def _nr_config(**overrides):
    cfg = {
        "scenario": "nr",
        "operator": {"kind": "scaled-identity", "alpha": 1.0, "dim": 1},
        "initial_point": [2.0],
        "modulus": {"kind": "strongly-accretive", "a": 1},
        "k_range": [0, 2],
        "tolerance": 1e-9,
        "seed": 0,
    }
    cfg.update(overrides)
    return cfg


LISTING = """\
operators:
  scaled-identity      params: alpha (>0), dim (>=1)
  spd                  params: matrix (symmetric positive definite)
  spd-laplacian-1d     params: size (tridiagonal -1,2,-1)
  quartic-well         params: none (scalar, zero set [-1,1])
moduli:
  strongly-accretive   params: a (integer >= ceil(1/alpha))
  laplacian            params: Lambda (integer >= 1/lambda_min)
  quartic-well         params: none
  linear-k             params: none (deliberately weak; counterexamples)
  dyadic-scaled-identity params: alpha, Z
registered operator+modulus pairs:
  scaled-identity+strongly-accretive  (scaled-identity(alpha=1, d=1) with strongly-accretive(a=1))
  spd-laplacian-1d+laplacian  (spd-linear(d=4) with min-eigenvalue(Lambda=3))
  quartic-well+quartic-well  (quartic-well with quartic-well)
  scaled-identity+dyadic-chain  (scaled-identity(alpha=1, d=2) with from-dyadic(Z=0))
"""


def test_list_instances(capsys):
    assert parse_and_run(["list-instances"]) == 0
    assert capsys.readouterr().out == LISTING


def test_certify_nr_passes_and_writes_report(tmp_path):
    cfg = _write(tmp_path, "nr.json", _nr_config())
    out = tmp_path / "report.json"
    code = parse_and_run(["certify-nr", "--config", str(cfg), "--out", str(out)])
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["passed"] is True
    assert payload["scenario"] == "nr"
    assert [row["certified_bound"] for row in payload["rows"]] == [12.0, 48.0, 108.0]


def test_reports_are_byte_identical(tmp_path):
    cfg = _write(tmp_path, "mod.json", {
        "scenario": "modulus-check",
        "operator": {"kind": "scaled-identity", "alpha": 1.0, "dim": 3},
        "modulus": {"kind": "strongly-accretive", "a": 1},
        "bound_K": 8,
        "k_range": [0, 4],
        "samples": {"kind": "seeded", "count": 400},
        "seed": 7,
    })
    out1 = tmp_path / "r1.json"
    out2 = tmp_path / "r2.json"
    assert parse_and_run(["verify-modulus", "--config", str(cfg), "--out", str(out1)]) == 0
    assert parse_and_run(["verify-modulus", "--config", str(cfg), "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_wrong_modulus_exits_one(tmp_path):
    cfg = _write(tmp_path, "wrong.json", {
        "scenario": "modulus-check",
        "operator": {"kind": "quartic-well"},
        "modulus": {"kind": "linear-k"},
        "bound_K": 501,
        "k_range": [0, 5],
        "samples": {"kind": "grid", "lo": -6.0, "hi": 6.0, "step": 0.01},
    })
    assert parse_and_run(["verify-modulus", "--config", str(cfg)]) == 1


def test_missing_config_exits_two(tmp_path, capsys):
    code = parse_and_run(["certify-nr", "--config", str(tmp_path / "nope.json")])
    assert code == 2
    assert "configuration error" in capsys.readouterr().err


def test_invalid_json_exits_two(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    assert parse_and_run(["certify-nr", "--config", str(bad)]) == 2


def test_unknown_field_exits_two_and_names_it(tmp_path, capsys):
    cfg = _write(tmp_path, "extra.json", _nr_config(surprise=1))
    assert parse_and_run(["certify-nr", "--config", str(cfg)]) == 2
    assert "surprise" in capsys.readouterr().err


def _quartic_grid(**samples):
    return {"samples": {"kind": "grid", "lo": -6.0, "hi": 6.0, "step": 0.001, **samples}}


@pytest.mark.parametrize("name, command, overrides, field", [
    ("xu_meta_scaled_identity.json", "certify-xu-meta", {"omega": "identity"}, "omega"),
    ("xu_meta_scaled_identity.json", "certify-xu-meta", {"phi": "orbit-rate"}, "phi"),
    ("xu_roc_scaled_identity.json", "certify-xu-roc", {"almost_orbit": 1.0}, "almost_orbit"),
    ("liminf_integral.json", "liminf-check", {"liminf": ["integral"]}, "liminf"),
    ("modulus_scaled_identity.json", "verify-modulus", {"samples": "seeded"}, "samples"),
    ("nr_closure_scaled_identity.json", "certify-nr-closure", {"closure": "id"}, "closure"),
    ("nr_scaled_identity.json", "certify-nr", {"seed": "zero"}, "seed"),
    ("nr_scaled_identity.json", "certify-nr", {"grid_step": "fine"}, "grid_step"),
    ("nr_scaled_identity.json", "certify-nr", {"horizon_pad": "long"}, "horizon_pad"),
    ("nr_scaled_identity.json", "certify-nr", {"tolerance": "tiny"}, "tolerance"),
    ("modulus_scaled_identity.json", "verify-modulus", {"bound_K": "ten"}, "bound_K"),
    ("modulus_scaled_identity.json", "verify-modulus",
     {"samples": {"kind": "seeded", "count": "many"}}, "samples.count"),
    ("liminf_integral.json", "liminf-check",
     {"liminf": {"form": "integral", "bound_L": 1.0, "n_max": "ten"}}, "liminf.n_max"),
    ("nr_scaled_identity.json", "certify-nr", {"initial_point": [2.0, 1.0]}, "initial_point"),
    ("nr_scaled_identity.json", "certify-nr", {"grid_step": NAN}, "grid_step"),
    ("nr_scaled_identity.json", "certify-nr", {"grid_step": INF}, "grid_step"),
    ("nr_scaled_identity.json", "certify-nr", {"horizon_pad": NAN}, "horizon_pad"),
    ("nr_scaled_identity.json", "certify-nr", {"horizon_pad": INF}, "horizon_pad"),
    ("nr_scaled_identity.json", "certify-nr", {"tolerance": NAN}, "tolerance"),
    ("nr_scaled_identity.json", "certify-nr", {"tolerance": INF}, "tolerance"),
    ("nr_scaled_identity.json", "certify-nr", {"seed": INF}, "seed"),
    ("nr_scaled_identity.json", "certify-nr", {"k_range": [0, INF]}, "k_range"),
    ("modulus_scaled_identity.json", "verify-modulus", {"bound_K": INF}, "bound_K"),
    ("modulus_quartic.json", "verify-modulus", _quartic_grid(step=-1), "samples.step"),
    ("modulus_quartic.json", "verify-modulus", _quartic_grid(step=0), "samples.step"),
    ("modulus_quartic.json", "verify-modulus", _quartic_grid(lo=6.0, hi=-6.0), "samples.hi"),
    ("modulus_quartic.json", "verify-modulus", _quartic_grid(lo=600.0, hi=700.0), "samples"),
    ("modulus_quartic.json", "verify-modulus",
     {"samples": {"kind": "seeded", "count": 0}}, "samples.count"),
    ("modulus_quartic.json", "verify-modulus",
     {"samples": {"kind": "seeded", "count": -3}}, "samples.count"),
    ("xu_meta_scaled_identity.json", "certify-xu-meta",
     {"phi": {"kind": "constant", "value": -1}}, "phi.value"),
    ("modulus_scaled_identity.json", "verify-modulus",
     {"seed": -1, "samples": {"kind": "seeded", "count": 10}}, "seed"),
    ("modulus_scaled_identity.json", "verify-modulus",
     {"bound_K": 0, "samples": {"kind": "seeded", "count": 10}}, "bound_K"),
    ("modulus_scaled_identity.json", "verify-modulus",
     {"bound_K": -3, "samples": {"kind": "seeded", "count": 10}}, "bound_K"),
    ("liminf_integral.json", "liminf-check",
     {"liminf": {"form": "integral", "bound_L": 1.0, "n_max": -1}}, "liminf.n_max"),
    ("liminf_flow_quartic.json", "liminf-check",
     {"liminf": {"form": "flow-pairing", "b": 2, "n_max": -5}}, "liminf.n_max"),
    ("liminf_integral.json", "liminf-check",
     {"liminf": {"form": "integral", "bound_L": -5, "n_max": 20}}, "liminf.bound_L"),
    ("liminf_flow_quartic.json", "liminf-check",
     {"liminf": {"form": "flow-pairing", "b": -1, "n_max": 10}}, "liminf.b"),
    # a bound below the norm it stands for: ||x - Px|| = 39, ||x|| = 2, ||x - Px|| = 2
    ("liminf_flow_quartic.json", "liminf-check",
     {"initial_point": [40.0], "liminf": {"form": "flow-pairing", "b": 0, "n_max": 10}},
     "liminf.b"),
    ("nr_closure_scaled_identity.json", "certify-nr-closure",
     {"closure": {"f": "id", "p_norm": 0, "x_norm_bound": 0, "x_dist_bound": 2}},
     "closure.x_norm_bound"),
    ("nr_closure_scaled_identity.json", "certify-nr-closure",
     {"closure": {"f": "id", "p_norm": 0, "x_norm_bound": 2, "x_dist_bound": 0}},
     "closure.x_dist_bound"),
    ("nr_closure_scaled_identity.json", "certify-nr-closure",
     {"closure": {"f": "id", "p_norm": -1, "x_norm_bound": 2, "x_dist_bound": 2}},
     "closure.p_norm"),
    # fractional values of integer fields
    ("liminf_flow_quartic.json", "liminf-check",
     {"liminf": {"form": "flow-pairing", "b": 2.5, "n_max": 10}}, "liminf.b"),
    ("liminf_flow_quartic.json", "liminf-check",
     {"liminf": {"form": "flow-pairing", "b": 2, "n_max": 10.5}}, "liminf.n_max"),
    ("modulus_scaled_identity.json", "verify-modulus",
     {"bound_K": 10.5, "samples": {"kind": "seeded", "count": 10}}, "bound_K"),
    ("modulus_scaled_identity.json", "verify-modulus",
     {"samples": {"kind": "seeded", "count": 10.5}}, "samples.count"),
    ("nr_scaled_identity.json", "certify-nr", {"seed": 0.5}, "seed"),
    ("nr_closure_scaled_identity.json", "certify-nr-closure",
     {"closure": {"f": "id", "p_norm": 0, "x_norm_bound": 2.5, "x_dist_bound": 2}},
     "closure.x_norm_bound"),
    ("nr_scaled_identity.json", "certify-nr", {"k_range": [0, 2.5]}, "k_range"),
    ("nr_scaled_identity.json", "certify-nr",
     {"modulus": {"kind": "strongly-accretive", "a": 1.9}}, "modulus.a"),
    # bools are not numbers
    ("nr_scaled_identity.json", "certify-nr",
     {"modulus": {"kind": "strongly-accretive", "a": True}}, "modulus.a"),
    ("nr_scaled_identity.json", "certify-nr",
     {"operator": {"kind": "scaled-identity", "alpha": 1.0, "dim": 1.5}}, "operator.dim"),
    ("nr_scaled_identity.json", "certify-nr",
     {"operator": {"kind": "scaled-identity", "alpha": NAN, "dim": 1}}, "operator.alpha"),
    ("xu_roc_scaled_identity.json", "certify-xu-roc",
     {"almost_orbit": {"c": INF, "direction": [1.0]}}, "almost_orbit.c"),
    # fractional numbers inside rate expressions
    ("nr_closure_scaled_identity.json", "certify-nr-closure",
     {"closure": {"f": {"affine": [1.5, 0]}, "p_norm": 0, "x_norm_bound": 2, "x_dist_bound": 2}},
     "closure.f"),
    ("xu_meta_scaled_identity.json", "certify-xu-meta",
     {"counterfunctions": [{"pow": 1.5}]}, "counterfunctions"),
    # a nested key that nothing reads
    ("nr_scaled_identity.json", "certify-nr",
     {"operator": {"kind": "scaled-identity", "alpah": 4.0, "dim": 1}}, "operator.alpah"),
])
def test_malformed_config_exits_two_and_names_the_field(
    name, command, overrides, field, tmp_path, capsys
):
    raw = json.loads((CONFIG_DIR / name).read_text(encoding="utf-8"))
    cfg = _write(tmp_path, "bad.json", {**raw, **overrides})
    assert parse_and_run([command, "--config", str(cfg)]) == 2
    assert f"config field '{field}'" in capsys.readouterr().err


def test_resource_limit_exits_three(tmp_path, capsys):
    # thresholds up to 108 at step 1e-4 need more than MAX_GRID_POINTS points
    cfg = _write(tmp_path, "huge.json", _nr_config(grid_step=1e-4))
    assert parse_and_run(["certify-nr", "--config", str(cfg)]) == 3
    err = capsys.readouterr().err
    assert "resource limit" in err
    assert "grid points" in err


@pytest.mark.parametrize("operator", [
    {"kind": "spd-laplacian-1d", "size": 10**6},
    {"kind": "spd-laplacian-1d", "size": MAX_OPERATOR_DIM + 1},
    {"kind": "scaled-identity", "alpha": 1.0, "dim": 10**6},
])
def test_operator_size_cap_exits_three(operator, tmp_path, capsys):
    # refused before the operator is built, so nothing is allocated
    cfg = _write(tmp_path, "big.json", _nr_config(operator=operator))
    assert parse_and_run(["certify-nr", "--config", str(cfg)]) == 3
    assert f"exceeds the cap {MAX_OPERATOR_DIM}" in capsys.readouterr().err


def test_scenario_subcommand_mismatch(tmp_path, capsys):
    cfg = _write(tmp_path, "nr.json", _nr_config())
    assert parse_and_run(["certify-xu-meta", "--config", str(cfg)]) == 2
    assert "scenario" in capsys.readouterr().err


def test_bad_usage_exits_two(capsys):
    assert parse_and_run(["no-such-command"]) == 2
    capsys.readouterr()


def test_csv_output(tmp_path):
    cfg = _write(tmp_path, "nr.json", _nr_config())
    out = tmp_path / "report.csv"
    code = parse_and_run(["certify-nr", "--config", str(cfg),
                          "--format", "csv", "--out", str(out)])
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == ",".join(CSV_HEADER)
    assert len(lines) == 4  # header + one row per k
    assert all(line.endswith("PASS") for line in lines[1:])


def test_json_round_trip():
    report = run_experiment(ExperimentConfig.from_dict(_nr_config()))
    text = render_report(report, "json")
    assert json.loads(text) == report.to_dict()


def test_seed_override_and_env_fallback(tmp_path, monkeypatch):
    raw = {
        "scenario": "modulus-check",
        "operator": {"kind": "scaled-identity", "alpha": 1.0, "dim": 2},
        "modulus": {"kind": "strongly-accretive", "a": 1},
        "bound_K": 5,
        "k_range": [0, 2],
        "samples": {"kind": "seeded", "count": 100},
    }
    cfg = _write(tmp_path, "mod.json", raw)
    out = tmp_path / "r.json"
    assert parse_and_run(["verify-modulus", "--config", str(cfg),
                          "--seed", "99", "--out", str(out)]) == 0
    assert json.loads(out.read_text())["seed"] == 99
    monkeypatch.setenv("ACCRETIVE_FLOWS_SEED", "123")
    assert parse_and_run(["verify-modulus", "--config", str(cfg), "--out", str(out)]) == 0
    assert json.loads(out.read_text())["seed"] == 123


@pytest.mark.parametrize("name, command", [
    ("nr_scaled_identity.json", "certify-nr"),
    ("nr_quartic.json", "certify-nr"),
    ("nr_closure_scaled_identity.json", "certify-nr-closure"),
    ("modulus_scaled_identity.json", "verify-modulus"),
    ("modulus_quartic.json", "verify-modulus"),
    ("xu_meta_scaled_identity.json", "certify-xu-meta"),
    ("xu_roc_scaled_identity.json", "certify-xu-roc"),
    ("liminf_integral.json", "liminf-check"),
    ("liminf_flow_quartic.json", "liminf-check"),
])
def test_shipped_configs_run(name, command, tmp_path):
    out = tmp_path / "report.json"
    code = parse_and_run([command, "--config", str(CONFIG_DIR / name), "--out", str(out)])
    assert code == 0
    assert json.loads(out.read_text())["passed"] is True
