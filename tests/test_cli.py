import json
from pathlib import Path

import pytest

from accretive_flows.cli import CSV_HEADER, parse_and_run, render_report
from accretive_flows.harness import ExperimentConfig, run_experiment

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


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


def test_list_instances(capsys):
    assert parse_and_run(["list-instances"]) == 0
    out = capsys.readouterr().out
    assert "scaled-identity" in out
    assert "quartic-well" in out


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


def test_resource_limit_exits_three(tmp_path, capsys):
    # thresholds up to 108 at step 1e-4 need more than MAX_GRID_POINTS points
    cfg = _write(tmp_path, "huge.json", _nr_config(grid_step=1e-4))
    assert parse_and_run(["certify-nr", "--config", str(cfg)]) == 3
    err = capsys.readouterr().err
    assert "resource limit" in err
    assert "grid points" in err


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
