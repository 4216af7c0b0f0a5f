import json
import math
import re
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from accretive_flows.cli import COMMAND_SCENARIOS, CSV_HEADER, parse_and_run, render_report
from accretive_flows.errors import ResourceLimitError
from accretive_flows.harness import (
    MAX_K,
    MAX_OPERATOR_DIM,
    ExperimentConfig,
    Report,
    ReportRow,
    run_experiment,
)

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"
NAN, INF = math.nan, math.inf


#: stands in for an integer literal too long for json.dumps to write
HUGE_INT = "<5000-digit integer>"


def _write(tmp_path: Path, name: str, payload: dict) -> Path:
    path = tmp_path / name
    text = json.dumps(payload).replace(json.dumps(HUGE_INT), "9" * 5000)
    path.write_text(text, encoding="utf-8")
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
     {"phi": {"kind": "from-rate", "rate": {"const": -1}}}, "phi.rate"),
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
    # vector fields: every entry is a number, and errors name the entry
    ("nr_scaled_identity.json", "certify-nr", {"initial_point": [True]}, "initial_point[0]"),
    ("nr_scaled_identity.json", "certify-nr", {"initial_point": [NAN]}, "initial_point[0]"),
    ("nr_scaled_identity.json", "certify-nr", {"initial_point": ["2.0"]}, "initial_point[0]"),
    ("xu_roc_scaled_identity.json", "certify-xu-roc",
     {"almost_orbit": {"c": 1.0, "direction": [True]}}, "almost_orbit.direction[0]"),
    ("nr_scaled_identity.json", "certify-nr",
     {"operator": {"kind": "spd", "matrix": [[2.0, 0.0], [True, 2.0]]},
      "initial_point": [1.0, 0.0]}, "operator.matrix[1][0]"),
    ("nr_scaled_identity.json", "certify-nr",
     {"operator": {"kind": "spd", "matrix": [[2.0, INF], [0.0, 2.0]]},
      "initial_point": [1.0, 0.0]}, "operator.matrix[0][1]"),
    # a malformed matrix names the matrix, not the operator
    ("nr_scaled_identity.json", "certify-nr",
     {"operator": {"kind": "spd", "matrix": [[2.0, 0.0], [0.0]]},
      "initial_point": [1.0, 0.0]}, "operator.matrix"),
    ("nr_scaled_identity.json", "certify-nr",
     {"operator": {"kind": "spd", "matrix": [[2.0, 1.0], [0.0, 2.0]]},
      "initial_point": [1.0, 0.0]}, "operator.matrix"),
    # json.load refuses integers of more than 4,300 digits with a ValueError
    ("nr_scaled_identity.json", "certify-nr", {"bound_K": HUGE_INT}, "config"),
    # symmetric only up to a relative 1e-5
    ("nr_scaled_identity.json", "certify-nr",
     {"operator": {"kind": "spd", "matrix": [[2.0, -1.0], [-1.00001, 2.0]]},
      "initial_point": [1.0, 0.0]}, "operator.matrix"),
    # a phi kind that is not registered
    ("xu_meta_scaled_identity.json", "certify-xu-meta",
     {"phi": {"kind": "constant", "value": 5}}, "phi.kind"),
    # an omega kind and an integrand that are not registered
    ("xu_meta_scaled_identity.json", "certify-xu-meta",
     {"omega": {"kind": "from-convexity"}}, "omega.kind"),
    ("liminf_integral.json", "liminf-check",
     {"liminf": {"form": "integral", "integrand": "zero", "bound_L": 1.0, "n_max": 20}},
     "liminf.integrand"),
])
def test_malformed_config_exits_two_and_names_the_field(
    name, command, overrides, field, tmp_path, capsys
):
    raw = json.loads((CONFIG_DIR / name).read_text(encoding="utf-8"))
    cfg = _write(tmp_path, "bad.json", {**raw, **overrides})
    assert parse_and_run([command, "--config", str(cfg)]) == 2
    assert f"config field '{field}'" in capsys.readouterr().err


@pytest.mark.parametrize("hi", [10**400, MAX_K + 1])
def test_k_range_cap_exits_three(hi, tmp_path, capsys):
    # refused while the config is read, before anything iterates over k
    cfg = _write(tmp_path, "big.json", _nr_config(k_range=[0, hi]))
    assert parse_and_run(["certify-nr", "--config", str(cfg)]) == 3
    assert f"k_range ends above the cap {MAX_K}" in capsys.readouterr().err


def test_k_range_cap_is_inclusive():
    assert ExperimentConfig.from_dict(_nr_config(k_range=[0, MAX_K])).k_range == (0, MAX_K)
    with pytest.raises(ResourceLimitError):
        ExperimentConfig.from_dict(_nr_config(k_range=[MAX_K + 1, MAX_K + 1]))


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


#: start points whose norm overflows a float once squared
HUGE_POINTS = [[1e160], [1e200], [1e300], [-1e300]]


@pytest.mark.parametrize("name, field, values", [
    ("nr_scaled_identity.json", "initial_point", HUGE_POINTS),
    ("nr_closure_scaled_identity.json", "initial_point", HUGE_POINTS),
    # the quartic slope 4(|x| - 1)^3 overflows long before ||x - Px|| does
    ("nr_quartic.json", "initial_point", HUGE_POINTS + [[1e120], [-1e120]]),
    *((name, "initial_point", HUGE_POINTS) for name in (
        "liminf_flow_quartic.json", "xu_meta_scaled_identity.json", "xu_roc_scaled_identity.json",
    )),
    ("nr_scaled_identity.json", "operator.alpha", [1e160, 1e200, 1e300]),
    # an orbit radius that overflows no float, but a threshold above THRESHOLD_CAP
    ("xu_roc_scaled_identity.json", "almost_orbit.c", [1e160, 1e200, 1e300]),
])
def test_values_that_overflow_a_float_exit_three(name, field, values, tmp_path, capsys):
    raw = json.loads((CONFIG_DIR / name).read_text(encoding="utf-8"))
    command = {scenario: cmd for cmd, scenario in COMMAND_SCENARIOS.items()}[raw["scenario"]]
    *parent, key = field.split(".")
    spec = raw[parent[0]] if parent else raw
    for value in values:
        spec[key] = value
        cfg = _write(tmp_path, "huge.json", raw)
        assert parse_and_run([command, "--config", str(cfg)]) == 3, value
        assert "resource limit" in capsys.readouterr().err


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


CONFIG_NAMES = sorted(p.name for p in CONFIG_DIR.glob("*.json"))


@pytest.mark.parametrize("name", CONFIG_NAMES)
def test_json_round_trip(name):
    raw = json.loads((CONFIG_DIR / name).read_text(encoding="utf-8"))
    report = run_experiment(ExperimentConfig.from_dict(raw))
    text = render_report(report, "json")
    assert json.loads(text) == report.to_dict()


def _dumped(report):
    return json.dumps(report.to_dict(), sort_keys=True, indent=2) + "\n"


@pytest.mark.parametrize("name", CONFIG_NAMES)
def test_json_report_is_the_json_dumps_layout(name):
    raw = json.loads((CONFIG_DIR / name).read_text(encoding="utf-8"))
    report = run_experiment(ExperimentConfig.from_dict(raw))
    assert render_report(report, "json") == _dumped(report)


def _synthetic_report(number=float, single=float, integer=int, flag=bool):
    """A report of every kind of JSON value; ``number`` and ``single`` build
    its floats (``single`` those a float32 holds), ``integer`` its ints and
    ``flag`` its bools."""
    row = ReportRow(
        k=integer(3), counterfunction='say "hi" \\ to caf\u00e9 \u2713\n',
        certified_bound=number(2.5), worst_observed=number(NAN), target=number(INF),
        slack=number(-INF), status="PASS",
        detail={
            "flag": flag(True), "off": flag(False), "none": None, "pair": (integer(1), number(2.0)),
            "small": single(0.1), "signs": [number(-0.0), number(1e300), integer(-7)],
            "empty": [], "empty_tuple": (), "empty_dict": {}, "1": "digits key",
            "nested": {"b": [{"z": None, "a": integer(-1)}], "a": "\x00\t\u00ff"},
        },
    )
    return Report(scenario="synthetic",
                  rows=[row, ReportRow(0, "-", 1.0, 0.5, 1.0, 0.0, "FAIL")],
                  violations=[{"k": integer(1), "x": [single(-1.25)]}],
                  provenance={"operator": "\"quoted\""}, grid={}, seed=7,
                  config={"k_range": (0, 3)})


def test_json_report_converts_values_as_the_dict_view():
    report = _synthetic_report()
    assert render_report(report, "json") == _dumped(report)
    empty = Report(scenario="empty")
    assert render_report(empty, "json") == _dumped(empty)


def test_json_report_writes_numpy_scalars_as_their_items():
    # json.dumps refuses np.int64 and np.bool_, so the reference is the
    # same report built from the scalars' .item() values
    kinds = (np.float64, np.float32, np.int64, np.bool_)
    numpy_report = _synthetic_report(*kinds)
    plain_report = _synthetic_report(*(lambda v, kind=kind: kind(v).item() for kind in kinds))
    assert render_report(numpy_report, "json") == render_report(plain_report, "json")


@pytest.mark.parametrize("value", [
    np.array([1.5, 2.0]), Fraction(1, 3), {1.0, 2.0}, {7: "int key"},
])
def test_json_report_refuses_non_json_values(value):
    report = Report(scenario="synthetic", provenance={"value": value})
    with pytest.raises(TypeError):
        render_report(report, "json")


def test_verbose_prints_the_runtime_and_the_report_has_none(tmp_path, capsys):
    cfg = _write(tmp_path, "nr.json", _nr_config())
    out = tmp_path / "report.json"
    assert parse_and_run(["certify-nr", "--config", str(cfg), "--out", str(out), "-v"]) == 0
    assert re.fullmatch(r"nr: 3 rows, 0 failures, \d+\.\d\ds\n", capsys.readouterr().err)
    assert "runtime" not in out.read_text(encoding="utf-8")


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
