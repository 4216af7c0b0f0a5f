"""Reachability gate: every function in ``src/`` runs under a shipped config,
or the allow-list below names why it does not.

The gate records calls with ``sys.settrace`` while it runs every
``configs/*.json`` through the CLI in JSON and CSV, ``list-instances``, and
every report variant of the benchmark's ``cauchy-grid`` and ``window-scan``
workloads.  A ``def`` in ``src/accretive_flows/*.py`` that none of these
reach fails the gate unless it is allow-listed; an allow-listed one that
they reach, or that no longer exists, fails it too, so the list only holds
what it must.  Lambdas, comprehensions and class bodies are not counted as
``def``s, but the lambdas that build a config kind (the entries of the kind
tables in ``harness``) and the function of each ``rate_from_spec`` form are
gated by code object, without line numbers.

To allow-list a function, add its ``<module>.<qualified name>`` (nested
functions without ``<locals>``, as ``rates.orbit_metastability_bound.h``),
a kind builder as ``harness.<table>[<kind>]`` or a rate form as
``moduli.rate_from_spec[<form>]``, with the open ROADMAP item that will run
or delete it, or with the reason it stays unreached.
"""

import contextlib
import inspect
import io
import json
import sys
import types
from pathlib import Path

import pytest

from accretive_flows import cli, harness, moduli

ROOT = Path(__file__).resolve().parent.parent
SRC_DIR = Path(cli.__file__).resolve().parent
BENCH_DIR = ROOT / "bench"
sys.path.insert(0, str(BENCH_DIR))

import workloads  # noqa: E402

_CHAIN = "item 1: the Euler chain, which only the euler-chain bench workload runs"
_SEQUENCE_CHECKS = "item 8: simple and weak modulus checks on a graph sequence"
_XU_OPERATORS = "item 10: xu scenarios on the SPD and quartic operators"
_COUNTERFUNCTION = "item 11: a functional that reads its counterfunction"
_CONVEXITY = "item 13: the from-convexity omega of l^p spaces"
_STUB = "abstract base-class method; every operator overrides it"
_RATE_FORM = ("item 7: a counterfunction with f(0) > 0 in a shipped config; "
              "README documents the form")

ALLOWED = {
    "semigroup.cl_error_bound": _CHAIN,
    "semigroup.steps_for_tolerance": _CHAIN,
    "semigroup.resolvent_power": _CHAIN,
    "semigroup.evaluate_semigroup": _CHAIN,
    "operators.AccretiveOperator.resolvent": _CHAIN,
    "operators.AccretiveOperator._check_chain": _CHAIN,
    "operators.ScaledIdentity.resolvent": _CHAIN,
    "operators.SPDLinear.resolvent": _CHAIN,
    "operators.QuarticWell.resolvent": _CHAIN,
    "moduli.SequenceModulusReport.passed": _SEQUENCE_CHECKS,
    "moduli._certify_premise": _SEQUENCE_CHECKS,
    "moduli._check_windows": _SEQUENCE_CHECKS,
    "moduli.check_simple_modulus": _SEQUENCE_CHECKS,
    "moduli.check_weak_modulus": _SEQUENCE_CHECKS,
    "harness.certified_graph_sequence": _SEQUENCE_CHECKS,
    "harness.empirical_rate_of_convergence": _SEQUENCE_CHECKS,
    "harness.empirical_rate_of_convergence.phi": _SEQUENCE_CHECKS,
    "operators.SPDLinear.graph_norm_bound": _XU_OPERATORS,
    "operators.QuarticWell.graph_norm_bound": _XU_OPERATORS,
    "rates.zero_gap_metastability_bound.g": _COUNTERFUNCTION,
    "rates.orbit_metastability_bound.h": _COUNTERFUNCTION,
    "rates.orbit_metastability_bound.j_fn": _COUNTERFUNCTION,
    "rates.projection_modulus_from_convexity": _CONVEXITY,
    "rates.projection_modulus_from_convexity.alpha": _CONVEXITY,
    "rates.projection_modulus_from_convexity.omega": _CONVEXITY,
    "space.eta_hilbert": _CONVEXITY,
    "operators.AccretiveOperator.zero_projection_many": _STUB,
    "operators.AccretiveOperator.value_many": _STUB,
    "operators.AccretiveOperator.zero_witness": _STUB,
    "operators.AccretiveOperator.exact_flow_many": _STUB,
    "operators.AccretiveOperator.graph_norm_bound": _STUB,
    "operators.AccretiveOperator.exact_flow": "the one-time form of exact_flow_many, for "
                                              "library users; reports evaluate time grids",
    "cli.main": "the console entry point; the gate calls parse_and_run",
    "errors.ConfigurationError.__init__": "raised only on invalid configs",
    "moduli.full_modulus_from_dyadic.full": "the paper's 2^Theta conversion; registered_pairs "
                                            "builds it, no report evaluates it",
    "harness._OPERATORS[spd]": "a config-given SPD matrix; README documents the kind, "
                               "shipped configs use spd-laplacian-1d",
    "harness._OMEGAS[from-convexity]": _CONVEXITY,
    "harness._FUNCTIONALS[from-rate]": "item 11: the first shipped xu-meta config whose phi "
                                       "is not the orbit's own rate",
    "harness._INTEGRANDS[zero]": "the integrand f = 0, which every dip window passes; "
                                 "no shipped config asks for it",
    "moduli.rate_from_spec[const]": _RATE_FORM,
    "moduli.rate_from_spec[table]": _RATE_FORM,
}

#: kind tables of ``harness`` whose entries are (parameters, builder) or a builder
KIND_TABLES = ("_OPERATORS", "_MODULI", "_OMEGAS", "_FUNCTIONALS", "_INTEGRANDS")
#: one spec of every ``rate_from_spec`` form
RATE_FORMS = {"id": "id", "const": {"const": 1}, "pow": {"pow": 2},
              "table": {"table": [1]}, "affine": {"affine": [1, 1]}}


def _key(code: types.CodeType) -> tuple[str, int]:
    """(allow-list name, first line): two defs of one name stay apart."""
    name = code.co_qualname.replace("<locals>.", "")
    return f"{Path(code.co_filename).stem}.{name}", code.co_firstlineno


def _defs() -> set[tuple[str, int]]:
    """Every function in the package: code objects with CO_OPTIMIZED (no
    class or module bodies) whose name is not <lambda>, <listcomp>, ..."""
    out = set()
    for path in sorted(SRC_DIR.glob("*.py")):
        todo = [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
        while todo:
            code = todo.pop()
            todo += [c for c in code.co_consts if isinstance(c, types.CodeType)]
            if code.co_flags & inspect.CO_OPTIMIZED and not code.co_name.startswith("<"):
                out.add(_key(code))
    return out


def _builders() -> dict[str, types.CodeType]:
    """The code object of every kind builder and every rate form, by its
    allow-list name."""
    out = {}
    for table in KIND_TABLES:
        for kind, entry in getattr(harness, table).items():
            build = entry[1] if isinstance(entry, tuple) else entry
            out[f"harness.{table}[{kind}]"] = build.__code__
    for form, spec in RATE_FORMS.items():
        out[f"moduli.rate_from_spec[{form}]"] = moduli.rate_from_spec(spec).fn.__code__
    return out


def _run_everything(out_dir: Path) -> None:
    scenario_command = {v: k for k, v in cli.COMMAND_SCENARIOS.items()}
    for config in sorted((ROOT / "configs").glob("*.json")):
        command = scenario_command[json.loads(config.read_text(encoding="utf-8"))["scenario"]]
        for fmt in ("json", "csv"):
            code = cli.parse_and_run([command, "--config", str(config), "--format", fmt,
                                      "--out", str(out_dir / f"{config.stem}.{fmt}")])
            assert code in (0, 1), (config.name, fmt, code)
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.parse_and_run(["list-instances"]) == 0
    for name in ("cauchy-grid", "window-scan"):
        for case in workloads.WORKLOADS[name]:
            for variant in range(len(case.variants)):
                text = json.dumps(case.config(variant), sort_keys=True)
                workloads.ReportOp(case, variant, text)()


@pytest.fixture(scope="module")
def reached(tmp_path_factory) -> dict[int, types.CodeType]:
    """The package's code objects that ran, by ``id``: two lambdas on one
    line stay apart."""
    codes = set()

    def record(frame, event, arg):
        codes.add(frame.f_code)

    previous = sys.gettrace()
    sys.settrace(record)
    try:
        _run_everything(tmp_path_factory.mktemp("reports"))
    finally:
        sys.settrace(previous)
    return {id(c): c for c in codes if Path(c.co_filename).resolve().parent == SRC_DIR}


def test_every_function_is_reached_or_allow_listed(reached):
    keys = {_key(c) for c in reached.values()}
    unreached = [f"{name}:{line}" for name, line in _defs() - keys if name not in ALLOWED]
    unreached += [name for name, code in _builders().items()
                  if id(code) not in reached and name not in ALLOWED]
    assert sorted(unreached) == []


def test_no_allow_listed_function_is_reached(reached):
    names = ({_key(c)[0] for c in reached.values()}
             | {name for name, code in _builders().items() if id(code) in reached})
    assert sorted(set(ALLOWED) & names) == []


def test_every_allow_listed_function_exists():
    known = {name for name, _ in _defs()} | set(_builders())
    assert sorted(set(ALLOWED) - known) == []


def test_every_rate_form_is_gated():
    lambdas = {id(c) for c in moduli.rate_from_spec.__code__.co_consts
               if isinstance(c, types.CodeType) and c.co_name == "<lambda>"}
    forms = {id(code) for name, code in _builders().items() if name.startswith("moduli.")}
    assert lambdas == forms
