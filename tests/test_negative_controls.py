"""Negative controls: every verifier must FAIL a certificate that is too small.

Each case runs a shipped config through ``run_experiment`` twice: as shipped,
where it PASSes, and with its certificate replaced by a trivially wrong one
(a Cauchy threshold of 0, a dip window of width 0, a metastability bound
Gamma of 0), where it must FAIL.  A verifier that PASSes both runs shows
nothing about the certificate.
"""

import json
from pathlib import Path

import pytest

from accretive_flows import harness
from accretive_flows.harness import FAIL, ExperimentConfig, run_experiment

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def _zero_threshold(verify):
    return lambda **kwargs: verify(**{**kwargs, "threshold": lambda k: 0})


def _zero_width(windows):
    return lambda report, width, *rest: windows(report, lambda k: 0, *rest)


def _zero_gamma(verify):
    return lambda u, gamma_bound, *rest, **kwargs: verify(u, lambda k, f: 0, *rest, **kwargs)


CONTROLS = [
    ("nr_scaled_identity.json", {}, "verify_orbit_cauchy", _zero_threshold),
    ("nr_quartic.json", {}, "verify_orbit_cauchy", _zero_threshold),
    ("nr_closure_scaled_identity.json", {}, "verify_orbit_cauchy", _zero_threshold),
    ("xu_roc_scaled_identity.json", {}, "verify_orbit_cauchy", _zero_threshold),
    ("liminf_integral.json", {}, "_dip_windows", _zero_width),
    ("liminf_flow_quartic.json", {}, "_dip_windows", _zero_width),
    # every shipped counterfunction has f(0) = 0, so the n = 0 window is a
    # single point and the shipped config PASSes even at Gamma = 0;
    # f(n) = n + 4 gives that window a width
    ("xu_meta_scaled_identity.json", {"counterfunctions": [{"affine": [1, 4]}]},
     "verify_metastability", _zero_gamma),
]


def _run(name: str, overrides: dict):
    raw = json.loads((CONFIG_DIR / name).read_text(encoding="utf-8"))
    return run_experiment(ExperimentConfig.from_dict({**raw, **overrides}))


@pytest.mark.parametrize("name, overrides, target, mutate", CONTROLS,
                         ids=[f"{c[0]}-{c[3].__name__}" for c in CONTROLS])
def test_mutated_certificate_fails(name, overrides, target, mutate, monkeypatch):
    assert _run(name, overrides).passed
    monkeypatch.setattr(harness, target, mutate(getattr(harness, target)))
    report = _run(name, overrides)
    assert not report.passed
    assert any(row.status == FAIL for row in report.rows)
