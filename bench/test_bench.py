"""Tests of the benchmark itself.

    python3 -m pytest bench/ -q

They check that the output checks can fail (a corrupted digest, a wrong
expected outcome and a perturbed flow point each count as a failure), that
traced work counts repeat exactly across seeds, that tracing leaves the
library as it found it, that BENCHMARK.json matches what ``run.py`` reports,
and that the benchmark refuses to run without the library source.
"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from accretive_flows import semigroup  # noqa: E402

#: work counts that must not depend on the workload seed
SEED_FREE = ("harness.grid_points", "semigroup.resolvent_steps", "moduli.pairs_checked",
             "harness.window_evals", "harness.centroid_rows")


def _spec():
    with open(ROOT / "BENCHMARK.json", "r", encoding="utf-8") as fh:
        return json.load(fh)


def _traced_pass(workload, seed):
    tally = run.Tally(workloads.load_digests())
    ops = workloads.build(workload, seed)
    tracer = tracing.Tracer()
    tally.run_pass(ops, tracing.instrument(tracer))
    return tally, run.layer_values(tracer)


def test_benchmark_json_names_every_reported_metric():
    spec = _spec()
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    reported = {name: unit for name, (unit, _) in run.PER_LAYER.items()}
    reported.update({"semigroup.cert_tightness": "ratio", "trace.overhead_ratio": "ratio",
                     "failed_ratio": "ratio"})
    assert per_layer == reported


def test_benchmark_json_within_contract_limits():
    spec = _spec()
    name = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
    unit = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
    metrics = spec["end_to_end"] + spec["per_layer"]
    names = [m["name"] for m in spec["workloads"] + metrics]
    assert len(names) == len(set(names)) and all(name.match(n) for n in names)
    assert all(unit.match(m["unit"]) and m["better"] in ("lower", "higher") for m in metrics)
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in spec["workloads"])
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])
    assert spec["paths"] == ["bench"] and spec["command"][1].startswith("bench/")


def test_every_report_variant_has_a_digest():
    digests = workloads.load_digests()
    keys = {workloads.digest_key(c.name, v)
            for cases in workloads.WORKLOADS.values() for c in cases
            if isinstance(c, workloads.ReportCase) for v in range(len(c.variants))}
    assert keys == set(digests)
    assert [k for k, d in digests.items() if not d["passed"]] == ["modulus-quartic-wrong/0"]


def test_window_scan_outputs_check_and_corruption_counts_as_failure():
    ops = workloads.build("window-scan", 0)
    outcomes = [op() for op in ops]
    digests = workloads.load_digests()
    assert all(op.check(out, digests) for op, out in zip(ops, outcomes))

    corrupted = json.loads(json.dumps(digests))
    victim = next(op for op in ops if op.case.name == "xu-meta")
    entry = corrupted[workloads.digest_key("xu-meta", victim.variant)]
    entry["sha256"] = entry["sha256"][::-1]
    tally = run.Tally(corrupted)
    tally.run_pass(ops)
    assert (tally.attempted, tally.failed) == (len(ops), 1)


def test_negative_control_must_fail():
    case = next(c for c in workloads.WINDOW_SCAN if c.name == "modulus-quartic-wrong")
    op = workloads.ReportOp(case, 0, json.dumps(case.config(0)))
    text, passed, points = op()
    digests = workloads.load_digests()
    assert not passed and op.check((text, passed, points), digests)
    # a run that suddenly passes the negative control is a failure
    assert not op.check((text, True, points), digests)


def test_flow_points_have_fixed_chain_lengths_and_fail_outside_their_bound():
    ops = workloads.build("euler-chain", 0)
    assert len(ops) == 6
    for op in ops:
        speed = float(np.linalg.norm(op.operator.value(op.x)))
        assert semigroup.steps_for_tolerance(op.case.t, speed, op.case.tol) == op.case.steps
        point, bound = op()
        assert op.check((point, bound), {})
        assert not op.check((point + 2.0 * bound, bound), {})


def test_seed_changes_values_not_sizes():
    a, b = workloads.build("window-scan", 1), workloads.build("window-scan", 2)
    assert [op.case.name for op in a] == [op.case.name for op in b]
    assert any(x.text != y.text for x, y in zip(a, b))
    e1, e2 = workloads.build("euler-chain", 1), workloads.build("euler-chain", 2)
    assert any(abs(x.x - y.x).max() > 0 for x, y in zip(e1, e2))


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_traced_counts_repeat_across_seeds(workload):
    tally1, first = _traced_pass(workload, 1)
    tally2, second = _traced_pass(workload, 2)
    assert tally1.failed == tally2.failed == 0
    # report sizes follow the digits of the values, so only counts must repeat
    counts = [n for n, (unit, _) in run.PER_LAYER.items() if unit == "count"]
    assert {n: first[n] for n in counts} == {n: second[n] for n in counts}
    assert any(first[n] for n in SEED_FREE)


def test_instrument_restores_the_library():
    targets = [(owner, attr) for owner, attr, _, _ in tracing._targets()]
    before = [vars(owner)[attr] for owner, attr in targets]
    parse = vars(tracing.harness.ExperimentConfig)["from_dict"]
    with tracing.instrument(tracing.Tracer()):
        assert all(vars(owner)[attr] is not orig for (owner, attr), orig in zip(targets, before))
    assert [vars(owner)[attr] for owner, attr in targets] == before
    assert vars(tracing.harness.ExperimentConfig)["from_dict"] is parse


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "window-scan", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert "{" not in proc.stdout
