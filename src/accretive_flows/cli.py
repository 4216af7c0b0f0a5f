"""Command-line front end: config ingestion, experiment execution, report emission.

Exit codes: 0 = all certificates PASS, 1 = at least one FAIL,
2 = configuration error, 3 = resource limit (a grid, evaluation budget,
operator size, threshold or iteration count beyond its hard cap).  Identical invocations
(same config and seed) produce byte-identical JSON reports.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys

from .errors import ConfigurationError, ResourceLimitError
from .harness import ExperimentConfig, Report, instance_listing, run_experiment

__all__ = ["COMMAND_SCENARIOS", "CSV_HEADER", "build_parser", "emit_report", "parse_and_run", "main"]

COMMAND_SCENARIOS = {
    "verify-modulus": "modulus-check",
    "certify-nr": "nr",
    "certify-nr-closure": "nr-closure",
    "certify-xu-meta": "xu-meta",
    "certify-xu-roc": "xu-roc",
    "liminf-check": "liminf-check",
}

CSV_HEADER = ["k", "counterfunction", "certified_bound", "worst_observed", "slack", "status"]

SEED_ENV_VAR = "ACCRETIVE_FLOWS_SEED"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="accretive-flows",
        description="Certify and empirically verify convergence/metastability "
                    "rates for accretive gradient flows.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command in COMMAND_SCENARIOS:
        p = sub.add_parser(command, help=f"run the '{COMMAND_SCENARIOS[command]}' scenario")
        p.add_argument("--config", required=True, help="path to the JSON experiment config")
        p.add_argument("--out", default=None, help="report output path (default: stdout)")
        p.add_argument("--format", choices=("json", "csv"), default="json")
        p.add_argument("--seed", type=int, default=None,
                       help=f"seed override (falls back to config, then ${SEED_ENV_VAR})")
        p.add_argument("-v", "--verbose", action="store_true")
    sub.add_parser("list-instances", help="print the operator/modulus registry")
    return parser


def render_report(report: Report, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(report.to_dict(), sort_keys=True, indent=2) + "\n"
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_HEADER)
    for row in report.rows:
        writer.writerow([
            row.k, row.counterfunction, row.certified_bound,
            row.worst_observed, row.slack, row.status,
        ])
    return buf.getvalue()


def emit_report(report: Report, fmt: str, path: str | None) -> None:
    text = render_report(report, fmt)
    if path is None:
        sys.stdout.write(text)
        return
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise ConfigurationError("out", f"cannot write report: {exc}") from exc


def _load_config(path: str, seed_override: int | None) -> ExperimentConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigurationError("config", f"cannot read '{path}': {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigurationError("config", f"'{path}' is not valid JSON: {exc}") from exc
    cfg = ExperimentConfig.from_dict(raw)
    if seed_override is not None:
        cfg.seed = seed_override
    elif cfg.seed is None and os.environ.get(SEED_ENV_VAR):
        try:
            cfg.seed = int(os.environ[SEED_ENV_VAR])
        except ValueError as exc:
            raise ConfigurationError("seed", f"${SEED_ENV_VAR} is not an integer") from exc
    return cfg


def parse_and_run(argv) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(list(argv))
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2

    if args.command == "list-instances":
        print(instance_listing())
        return 0

    try:
        cfg = _load_config(args.config, args.seed)
        expected = COMMAND_SCENARIOS[args.command]
        if cfg.scenario != expected:
            raise ConfigurationError(
                "scenario",
                f"config declares '{cfg.scenario}' but subcommand '{args.command}' "
                f"runs '{expected}'",
            )
        report = run_experiment(cfg)
        emit_report(report, args.format, args.out)
    except ConfigurationError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except ResourceLimitError as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        return 3

    if args.verbose:
        n_fail = sum(1 for r in report.rows if r.status == "FAIL")
        print(
            f"{report.scenario}: {len(report.rows)} rows, {n_fail} failures, "
            f"{report.runtime_seconds:.2f}s",
            file=sys.stderr,
        )
    return 0 if report.passed else 1


def main() -> None:
    sys.exit(parse_and_run(sys.argv[1:]))


if __name__ == "__main__":
    main()
