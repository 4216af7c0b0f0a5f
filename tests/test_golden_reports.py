"""Byte-level gate on the reports of every shipped config.

``golden_reports.json`` holds the SHA-256 of the JSON and CSV rendering of
each ``configs/*.json`` report, rendered as the CLI renders it.  Any change
to a report's bytes fails this test.  To re-capture after a deliberate change
of the report format (only on a commit whose reports are known good):

    PYTHONPATH=src python tests/test_golden_reports.py
"""

import hashlib
import json
from pathlib import Path

import pytest

from accretive_flows.cli import render_report
from accretive_flows.harness import ExperimentConfig, run_experiment

ROOT = Path(__file__).resolve().parent.parent
CONFIG_DIR = ROOT / "configs"
GOLDEN_PATH = Path(__file__).resolve().parent / "golden_reports.json"
FORMATS = ("json", "csv")


def _digests(config: Path) -> dict:
    raw = json.loads(config.read_text(encoding="utf-8"))
    report = run_experiment(ExperimentConfig.from_dict(raw))
    return {
        fmt: hashlib.sha256(render_report(report, fmt).encode("utf-8")).hexdigest()
        for fmt in FORMATS
    }


def _configs() -> list[Path]:
    return sorted(CONFIG_DIR.glob("*.json"))


def _golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))


def test_every_shipped_config_has_a_golden_digest():
    assert sorted(_golden()) == [p.name for p in _configs()]


@pytest.mark.parametrize("config", _configs(), ids=lambda p: p.name)
def test_report_bytes_match_golden(config):
    assert _digests(config) == _golden()[config.name]


if __name__ == "__main__":
    doc = {p.name: _digests(p) for p in _configs()}
    GOLDEN_PATH.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(doc)} configs to {GOLDEN_PATH.name}")
