"""Capture the reference digests of every report variant into digests.json.

    python3 bench/capture_digests.py

Runs each (case, variant) of the report workloads once, renders its JSON
report as the CLI does and records the SHA-256 of the text together with the
PASS/FAIL outcome.  Refuses to write when an outcome differs from the case's
declared expectation (``modulus-quartic-wrong`` must FAIL, all others PASS)
or a grid length differs from the declared one.  Run it only on a commit
whose reports are known good; the benchmark counts every later mismatch as a
failed operation.
"""

import hashlib
import json
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR.parent / "src"))
sys.path.insert(0, str(BENCH_DIR))

import workloads  # noqa: E402


def capture() -> dict:
    reports = {}
    for name, cases in workloads.WORKLOADS.items():
        for case in cases:
            if not isinstance(case, workloads.ReportCase):
                continue
            for variant in range(len(case.variants)):
                op = workloads.ReportOp(case, variant, json.dumps(case.config(variant), sort_keys=True))
                text, passed, points = op()
                if passed != case.expect_pass:
                    raise SystemExit(f"{case.name}/{variant}: passed={passed}, "
                                     f"expected {case.expect_pass}")
                if case.grid_points is not None and points != case.grid_points:
                    raise SystemExit(f"{case.name}/{variant}: {points} grid points, "
                                     f"expected {case.grid_points}")
                reports[workloads.digest_key(case.name, variant)] = {
                    "sha256": hashlib.sha256(text.encode("utf-8")).hexdigest(),
                    "passed": passed,
                    "bytes": len(text),
                }
                print(f"{name:12s} {case.name}/{variant}: passed={passed} bytes={len(text)}")
    return reports


def main() -> None:
    doc = {"reports": capture()}
    with open(workloads.DIGESTS_PATH, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
