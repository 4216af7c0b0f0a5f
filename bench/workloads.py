"""Workload definitions for the benchmark: cases, seeded variants, output checks.

A workload is a fixed list of operations that one pass runs in order, closed
loop, in a single process:

* ``cauchy-grid``  -- a few long-horizon pairwise Cauchy checks (huge grids);
* ``window-scan``  -- many small threshold / window / modulus checks;
* ``euler-chain``  -- certified flow points by iterated resolvents.

The workload seed picks values only -- signs, start points, directions and
sampling seeds -- from fixed variant tables, never sizes, so grid lengths,
window counts and chain lengths are the same on every seed.  Every report
variant has a SHA-256 digest of its JSON rendering in ``digests.json``,
captured by ``capture_digests.py``; every flow point is compared against an
independent closed form.

The library is imported from the checkout's ``src/``; the caller puts it on
``sys.path`` first (see ``run.py``).
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from accretive_flows import cli, harness, operators, semigroup

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
CONFIG_DIR = ROOT / "configs"
DIGESTS_PATH = BENCH_DIR / "digests.json"


# ------------------------------------------------------------ report cases

@dataclass(frozen=True)
class ReportCase:
    """One experiment config, with seed-selectable value variants.

    The config is a shipped ``configs/*.json`` file (``shipped``) or an inline
    template, then ``overrides``, then one entry of ``variants``.  Variants
    change values only; ``grid_points``, when given, is the grid length every
    variant must report.
    """

    name: str
    shipped: str | None = None
    template: dict | None = None
    overrides: dict = field(default_factory=dict)
    variants: tuple = ({},)
    expect_pass: bool = True
    grid_points: int | None = None

    def config(self, variant: int) -> dict:
        if self.shipped is not None:
            with open(CONFIG_DIR / self.shipped, "r", encoding="utf-8") as fh:
                raw = json.load(fh)
        else:
            raw = json.loads(json.dumps(self.template))
        raw.update(self.overrides)
        raw.update(self.variants[variant])
        return raw


def _signed_scalar(magnitudes, with_direction=False):
    """Variants x = s*m for s = +-1; the orbit direction, if any, follows s."""
    out = []
    for s in (1.0, -1.0):
        for m in magnitudes:
            v = {"initial_point": [s * m]}
            if with_direction:
                v["almost_orbit"] = {"c": 1.0, "direction": [s]}
            out.append(v)
    return tuple(out)


#: start points in R^3 with ceil(||x||) = 3 and ceil(||Lx||) <= 3 for the
#: Dirichlet Laplacian L of size 3, so every variant audits K = b = 3
_LAPLACIAN3_POINTS = (
    [-0.424, -1.95, -1.141], [-0.109, -1.429, -1.646], [1.391, 1.48, 1.64],
    [0.749, 1.611, 1.273], [-1.226, -1.862, -1.652], [-1.803, -1.637, -0.965],
    [-0.637, -1.875, -1.635], [-0.502, -1.694, -2.127],
)

CAUCHY_GRID = (
    # u(0) = m + 1 in (2, 3] keeps the orbit radius bound B = 3
    ReportCase("xu-roc", shipped="xu_roc_scaled_identity.json",
               overrides={"k_range": [0, 5]},
               variants=_signed_scalar((2.0, 1.875, 1.75, 1.625), with_direction=True),
               grid_points=102221),
    # |x| in (2.9787, 3] keeps K = ceil(4(|x|-1)^3) = 32 and b = 2
    ReportCase("nr-quartic", shipped="nr_quartic.json", overrides={"k_range": [0, 7]},
               variants=_signed_scalar((3.0, 2.995, 2.99, 2.985)),
               grid_points=786281),
    ReportCase("nr-closure", shipped="nr_closure_scaled_identity.json",
               grid_points=259961),
    ReportCase("nr-laplacian3", template={
        "scenario": "nr", "operator": {"kind": "spd-laplacian-1d", "size": 3},
        "modulus": {"kind": "laplacian", "Lambda": 2}, "k_range": [0, 3],
        "grid_step": 0.25, "horizon_pad": 10.0, "tolerance": 1e-9, "seed": 0},
        variants=tuple({"initial_point": p} for p in _LAPLACIAN3_POINTS),
        grid_points=2921),
)

WINDOW_SCAN = (
    # the witness search depends on |x|, so only the sign varies
    ReportCase("xu-meta", shipped="xu_meta_scaled_identity.json",
               overrides={"k_range": [0, 8]},
               variants=_signed_scalar((2.0,), with_direction=True)),
    # |x| <= 3 keeps the configured zero-gap bound b = 2 valid
    ReportCase("liminf-flow", shipped="liminf_flow_quartic.json",
               variants=_signed_scalar((3.0, 2.9, 2.8, 2.7))),
    ReportCase("liminf-integral", shipped="liminf_integral.json"),
    ReportCase("modulus-quartic", shipped="modulus_quartic.json"),
    # negative control: the linear-k modulus is too weak and must FAIL
    ReportCase("modulus-quartic-wrong", shipped="modulus_quartic_wrong.json",
               expect_pass=False),
    ReportCase("modulus-scaled-identity", shipped="modulus_scaled_identity.json",
               variants=tuple({"seed": s} for s in range(8))),
    # |x| in (1, 2] keeps K = b = 2
    ReportCase("nr-scaled-identity", shipped="nr_scaled_identity.json",
               variants=_signed_scalar((2.0, 1.875, 1.75, 1.5)),
               grid_points=1721),
)


def digest_key(case: str, variant: int) -> str:
    return f"{case}/{variant}"


def load_digests() -> dict:
    with open(DIGESTS_PATH, "r", encoding="utf-8") as fh:
        return json.load(fh)["reports"]


@dataclass
class ReportOp:
    """One config run the way the CLI runs it: parse, run, render JSON."""

    case: ReportCase
    variant: int
    text: str

    def __call__(self):
        cfg = harness.ExperimentConfig.from_dict(json.loads(self.text))
        report = harness.run_experiment(cfg)
        return cli.render_report(report, "json"), report.passed, report.grid.get("points")

    def check(self, outcome, digests: dict) -> bool:
        """Byte-identical report and the expected PASS/FAIL (an expected FAIL
        counts as correct)."""
        text, passed, points = outcome
        want = digests.get(digest_key(self.case.name, self.variant))
        if want is None or passed != self.case.expect_pass or want["passed"] != passed:
            return False
        if self.case.grid_points is not None and points != self.case.grid_points:
            return False
        return hashlib.sha256(text.encode("utf-8")).hexdigest() == want["sha256"]


# ------------------------------------------------------------- flow points

def _laplacian_flow(n: int, x: np.ndarray, t: float) -> np.ndarray:
    # analytic eigenpairs of tridiag(-1, 2, -1): lambda_j = 2 - 2cos(j pi/(n+1)),
    # v_j(i) = sqrt(2/(n+1)) sin(i j pi/(n+1))
    j = np.arange(1, n + 1)
    lam = 2.0 - 2.0 * np.cos(j * math.pi / (n + 1))
    V = math.sqrt(2.0 / (n + 1)) * np.sin(np.outer(j, j) * math.pi / (n + 1))
    return V @ (np.exp(-t * lam) * (V.T @ x))


def _quartic_flow(x: np.ndarray, t: float) -> np.ndarray:
    x0 = float(x[0])
    w = ((abs(x0) - 1.0) ** -2 + 8.0 * t) ** -0.5
    return np.array([math.copysign(1.0 + w, x0)])


@dataclass(frozen=True)
class FlowCase:
    """Flow points S(t)x with ||Ax|| = speed fixed, so the chain length
    n = steps_for_tolerance(t, speed, tol) is the same for every start
    direction; ``2 t speed / tol`` sits well inside (sqrt(n/2), sqrt(n)]."""

    name: str
    kind: str
    dim: int
    t: float
    speed: float
    tol: float
    steps: int
    count: int


EULER_CHAIN = (
    FlowCase("quartic-well", "quartic-well", 1, t=1.0, speed=32.0, tol=0.8, steps=8192, count=2),
    FlowCase("spd-laplacian-1d-16", "spd-laplacian-1d", 16, t=1.0, speed=4.0, tol=8.0 / 55.0,
             steps=4096, count=2),
    FlowCase("scaled-identity-4", "scaled-identity", 4, t=1.0, speed=2.0, tol=0.05,
             steps=8192, count=2),
)


@dataclass
class FlowOp:
    """One certified flow point by iterated resolvents."""

    case: FlowCase
    operator: operators.AccretiveOperator
    x: np.ndarray
    exact: np.ndarray

    def __call__(self):
        return semigroup.evaluate_semigroup(self.operator, self.x, self.case.t, self.case.tol)

    def error(self, outcome) -> float:
        return float(np.linalg.norm(outcome[0] - self.exact))

    def check(self, outcome, digests: dict) -> bool:
        """Chain within its certified bound of the closed form, bound within tol."""
        _, bound = outcome
        return bound <= self.case.tol and self.error(outcome) <= bound * (1.0 + 1e-9) + 1e-12


def _flow_op(case: FlowCase, rng: random.Random) -> FlowOp:
    if case.kind == "quartic-well":
        op = operators.make_quartic_well()
        # 4(|x| - 1)^3 = speed
        x = np.array([rng.choice((1.0, -1.0)) * (1.0 + (case.speed / 4.0) ** (1.0 / 3.0))])
        return FlowOp(case, op, x, _quartic_flow(x, case.t))
    v = np.array([rng.gauss(0.0, 1.0) for _ in range(case.dim)])
    if case.kind == "spd-laplacian-1d":
        op = operators.make_spd_linear(operators.dirichlet_laplacian_1d(case.dim))
        x = v * (case.speed / float(np.linalg.norm(op.M @ v)))
        return FlowOp(case, op, x, _laplacian_flow(case.dim, x, case.t))
    op = operators.make_scaled_identity(1.0, case.dim)
    x = v * (case.speed / float(np.linalg.norm(v)))
    return FlowOp(case, op, x, math.exp(-case.t) * x)


# --------------------------------------------------------------- workloads

WORKLOADS = {
    "cauchy-grid": CAUCHY_GRID,
    "window-scan": WINDOW_SCAN,
    "euler-chain": EULER_CHAIN,
}


def build(workload: str, seed: int) -> list:
    """The ordered operations of one pass; the seed picks values only."""
    if workload not in WORKLOADS:
        raise KeyError(workload)
    rng = random.Random(f"{workload}:{seed}")
    ops = []
    for case in WORKLOADS[workload]:
        if isinstance(case, FlowCase):
            ops.extend(_flow_op(case, rng) for _ in range(case.count))
        else:
            variant = rng.randrange(len(case.variants))
            ops.append(ReportOp(case, variant, json.dumps(case.config(variant), sort_keys=True)))
    return ops
