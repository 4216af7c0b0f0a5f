"""Benchmark entry point.

    python3 bench/run.py --workload cauchy-grid --seed 1 --seconds 30 --trace 0

Run from the root of a checkout.  Imports the library from ``src/``, builds
the workload's operations from ``--seed``, measures setup in fresh processes,
does one untimed warm-up pass, then runs closed-loop passes in this process
for ``--seconds`` and checks every output.  The last line of stdout is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics`` -- the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1`` (then untraced and traced passes alternate, and the spans of
the last traced pass go to ``.bench_out/``).  Lines before it,
prefixed ``#``, give the machine, versions and every metric with its unit.
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = ROOT / ".bench_out"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
#: fresh processes timed for setup_s; the median is reported
SETUP_PROBES = 7

END_TO_END = {
    "setup_s": "s", "ops_per_s": "1/s", "pass_s_p50": "s", "pass_s_tail": "s",
    "peak_rss_mb": "MB",
}


def _verify_total(layers, field):
    return sum(v[field] for k, v in layers.items() if k.startswith("harness.verify"))


def _span(name, field):
    return lambda p: p["layers"].get(name, {}).get(field, 0)


#: per-layer metric -> (unit, reader of one traced pass)
PER_LAYER = {
    "semigroup.evaluate_many.calls": ("count", _span("semigroup.evaluate_many", "calls")),
    "semigroup.evaluate_many.rows": ("count", _span("semigroup.evaluate_many", "size")),
    "semigroup.evaluate_many.self_s": ("s", _span("semigroup.evaluate_many", "self_s")),
    "operators.exact_flow_many.calls": ("count", _span("operators.exact_flow_many", "calls")),
    "operators.exact_flow_many.rows": ("count", _span("operators.exact_flow_many", "size")),
    "operators.exact_flow_many.self_s": ("s", _span("operators.exact_flow_many", "self_s")),
    "operators.value_many.self_s": ("s", _span("operators.value_many", "self_s")),
    "operators.resolvent.calls": ("count", _span("operators.resolvent", "calls")),
    "operators.resolvent.self_s": ("s", _span("operators.resolvent", "self_s")),
    "harness.verify.calls": ("count", lambda p: _verify_total(p["layers"], "calls")),
    "harness.verify.self_s": ("s", lambda p: _verify_total(p["layers"], "self_s")),
    "harness.grid_points": ("count", lambda p: _verify_total(p["layers"], "size")),
    "harness.centroid_rows": ("count", lambda p: p["counts"].get("harness.centroid_rows", 0)),
    "harness.window_evals": ("count", lambda p: p["window_evals"]),
    "harness.run_experiment.self_s": ("s", _span("harness.run_experiment", "self_s")),
    "rates.threshold.calls": ("count", _span("rates.threshold", "calls")),
    "rates.threshold.self_s": ("s", _span("rates.threshold", "self_s")),
    "moduli.check_full_modulus.self_s": ("s", _span("moduli.check_full_modulus", "self_s")),
    "moduli.pairs_checked": ("count", _span("moduli.check_full_modulus", "size")),
    "cli.config_parse.self_s": ("s", _span("cli.config_parse", "self_s")),
    "cli.render_report.self_s": ("s", _span("cli.render_report", "self_s")),
    "cli.report_bytes": ("bytes", _span("cli.render_report", "size")),
    "semigroup.evaluate_semigroup.calls": ("count", _span("semigroup.evaluate_semigroup", "calls")),
    "semigroup.evaluate_semigroup.self_s": ("s", _span("semigroup.evaluate_semigroup", "self_s")),
    "semigroup.resolvent_power.self_s": ("s", _span("semigroup.resolvent_power", "self_s")),
    "semigroup.resolvent_steps": ("count", _span("semigroup.resolvent_power", "size")),
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description="accretive-flows benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="import and build inputs, print the elapsed seconds, exit")
    return parser.parse_args(argv)


def import_library():
    """Put the checkout's ``src/`` first on the path and import the workloads."""
    if not (ROOT / "src" / "accretive_flows" / "__init__.py").is_file():
        raise SystemExit(f"benchmark: no library source at {ROOT / 'src' / 'accretive_flows'}")
    if not (ROOT / "configs").is_dir():
        raise SystemExit(f"benchmark: no shipped configs at {ROOT / 'configs'}")
    sys.path.insert(0, str(ROOT / "src"))
    if str(BENCH_DIR) not in sys.path:
        sys.path.insert(0, str(BENCH_DIR))
    import workloads
    return workloads


def environment() -> dict:
    import numpy
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", "r", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": sys.version.split()[0], "numpy": numpy.__version__,
        "nproc": os.cpu_count(), "cpu": cpu, "commit": git_commit(),
        "threads": {v: os.environ[v] for v in THREAD_VARS},
    }


def git_commit() -> str:
    """HEAD commit read from ``.git`` without running git; a plain checkout
    has none."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def measure_setup(args) -> float:
    """Median seconds a fresh process takes to import the library and build
    this workload's inputs."""
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed)]
    samples = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise SystemExit(f"benchmark: setup probe failed:\n{proc.stderr}")
        samples.append(float(proc.stdout.strip().splitlines()[-1]))
    return statistics.median(samples)


class Tally:
    """Operations attempted and failed, plus flow-point tightness."""

    def __init__(self, digests):
        self.digests = digests
        self.attempted = 0
        self.failed = 0
        self.tightness = []

    def run_pass(self, ops, context=None):
        """One pass over ``ops`` inside ``context`` (e.g. tracing); returns
        library time in seconds.  Outputs are checked after the clock stops."""
        outcomes = []
        clock = time.perf_counter
        with context or nullcontext():
            t0 = clock()
            for op in ops:
                outcomes.append(_attempt(op))
            elapsed = clock() - t0
        tight = []
        for op, outcome in zip(ops, outcomes):
            self.attempted += 1
            if outcome is None or not op.check(outcome, self.digests):
                self.failed += 1
                print(f"# FAILED {type(op).__name__} {op.case.name}", file=sys.stderr)
            elif hasattr(op, "error") and outcome[1] > 0:
                tight.append(op.error(outcome) / outcome[1])
        self.tightness = tight or self.tightness
        return elapsed


def _attempt(op):
    try:
        return op()
    except Exception:  # an operation that raises counts as failed; keep measuring
        traceback.print_exc()
        return None


def run_for(seconds, tally, ops, traced=False):
    """Passes until the next one would end past ``seconds``; at least one.
    When ``traced``, untraced and traced passes alternate, so drift in the
    machine's speed cancels out of their ratio.  Returns the untraced pass
    times, the traced pass times and the traced passes' tracers."""
    from tracing import Tracer, instrument
    plain, traced_times, tracers = [], [], []
    start = time.perf_counter()
    while True:
        plain.append(tally.run_pass(ops))
        if traced:
            tracers.append(Tracer())
            traced_times.append(tally.run_pass(ops, instrument(tracers[-1])))
        spent = time.perf_counter() - start
        if spent + statistics.median(plain + traced_times) * (1 + traced) > seconds:
            return plain, traced_times, tracers


def tail(times):
    """Highest order statistic with at least ten passes above it, and its
    percentile; the maximum when there are too few passes."""
    s = sorted(times)
    n = len(s)
    if n < 11:
        return s[-1], 100.0
    return s[n - 11], 100.0 * (n - 10) / n


def end_to_end(times, ops, setup_s):
    value, pct = tail(times)
    return {
        "setup_s": setup_s,
        "ops_per_s": len(ops) / statistics.median(times),
        "pass_s_p50": statistics.median(times),
        "pass_s_tail": value,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }, f"pass_s_tail is p{pct:.1f} of {len(times)} passes"


def layer_values(tracer) -> dict:
    """PER_LAYER metric values of one traced pass."""
    p = {"layers": tracer.layers(), "counts": tracer.counts, "window_evals": tracer.window_evals()}
    return {name: read(p) for name, (_, read) in PER_LAYER.items()}


def per_layer(tracers, plain_times, traced_times, tally):
    passes = [layer_values(tr) for tr in tracers]
    out = {name: (unit, statistics.median_low(p[name] for p in passes))
           for name, (unit, _) in PER_LAYER.items()}
    out["semigroup.cert_tightness"] = (
        "ratio", statistics.median(tally.tightness) if tally.tightness else 0.0)
    out["trace.overhead_ratio"] = (
        "ratio", statistics.median(traced_times) / statistics.median(plain_times))
    out["failed_ratio"] = ("ratio", tally.failed / tally.attempted)
    return out


def main(argv=None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    for var in THREAD_VARS:
        os.environ[var] = "1"
    workloads = import_library()
    try:
        ops = workloads.build(args.workload, args.seed)
    except KeyError:
        raise SystemExit(f"benchmark: unknown workload {args.workload!r}; "
                         f"choose from {', '.join(workloads.WORKLOADS)}")
    if args.setup_probe:
        print(f"{time.perf_counter() - _T0:.9f}")
        return 0

    tally = Tally(workloads.load_digests())
    env = environment()
    print("# env " + json.dumps(env, sort_keys=True))

    setup_s = measure_setup(args) if args.trace == 0 else None
    tally.run_pass(ops)  # warm-up, untimed

    if args.trace == 0:
        times, _, _ = run_for(args.seconds, tally, ops)
        values, note = end_to_end(times, ops, setup_s)
        metrics = {k: (END_TO_END[k], v) for k, v in values.items()}
        print(f"# {note}")
        print(f"# failed_ratio = {tally.failed}/{tally.attempted} = "
              f"{tally.failed / tally.attempted:.6g} ratio")
    else:
        plain, traced, tracers = run_for(args.seconds, tally, ops, traced=True)
        metrics = per_layer(tracers, plain, traced, tally)
        OUT_DIR.mkdir(exist_ok=True)
        path = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.json"
        tracers[-1].dump(path, {"workload": args.workload, "seed": args.seed, "env": env})
        print(f"# spans of the last traced pass: {path.relative_to(ROOT)}")

    for name, (unit, value) in metrics.items():
        print(f"# {name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (unit, value) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
