"""Byte-level gate on every report variant of the benchmark.

Each ``bench/workloads.py`` report variant is rendered as the benchmark
renders it and compared with its SHA-256 in ``bench/digests.json``, so a
change to any of those reports' bytes fails tier-1 and not only the
benchmark run.  This test only reads ``bench/``.
"""

import json
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent.parent / "bench"
sys.path.insert(0, str(BENCH_DIR))

import workloads  # noqa: E402

DIGESTS = workloads.load_digests()
VARIANTS = [(case, variant) for cases in workloads.WORKLOADS.values() for case in cases
            if isinstance(case, workloads.ReportCase) for variant in range(len(case.variants))]


def test_every_digest_has_a_report_variant():
    assert sorted(workloads.digest_key(c.name, v) for c, v in VARIANTS) == sorted(DIGESTS)


@pytest.mark.parametrize("case, variant", VARIANTS,
                         ids=[workloads.digest_key(c.name, v) for c, v in VARIANTS])
def test_bench_report_bytes_match_digest(case, variant):
    op = workloads.ReportOp(case, variant, json.dumps(case.config(variant), sort_keys=True))
    text, passed, points = outcome = op()
    assert op.check(outcome, DIGESTS), f"{len(text)} bytes, passed={passed}, {points} points"
