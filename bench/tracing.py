"""Span tracing of the library from outside the package.

``instrument(tracer)`` wraps public callables in the namespaces their callers
look them up in -- module globals for functions that ``harness`` or
``semigroup`` call by name, class attributes for operator methods and
``AlmostOrbit.evaluate_many`` -- and restores the originals on exit.  Each
call becomes one span (name, start, end, parent, size), kept in memory;
``Tracer.dump`` writes them out once.  A span's self time is its duration
minus the durations of its child spans.  ``size`` is the work a call did,
read from its arguments or result (rows evaluated, chain steps, pairs
checked, report bytes, grid points).
"""

from __future__ import annotations

import functools
import json
import time
from contextlib import contextmanager

import numpy as np

from accretive_flows import cli, harness, operators, rates, semigroup

#: spans of these names evaluate a curve at ``size`` times
EVALUATORS = ("semigroup.evaluate_many", "semigroup.evaluate_oracle_many")
#: verifiers that search windows rather than one grid
WINDOW_VERIFIERS = ("harness.verify_metastability", "harness.verify_flow_pairing_dip")


class Tracer:
    """In-memory span recorder; one instance per traced pass."""

    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.sizes: list[int] = []
        self.counts: dict[str, int] = {}
        self._stack: list[int] = []

    def count(self, name: str, n: int) -> None:
        self.counts[name] = self.counts.get(name, 0) + int(n)

    def wrap(self, name: str, fn, size=None):
        """``fn`` recording one span per call; ``size(tracer, args, kwargs,
        result)`` gives the span's work count."""
        names, starts, ends = self.names, self.starts, self.ends
        parents, sizes, stack = self.parents, self.sizes, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(names)
            names.append(name)
            parents.append(stack[-1] if stack else -1)
            starts.append(0.0)
            ends.append(0.0)
            sizes.append(0)
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                starts[idx] = t0
                stack.pop()
            if size is not None:
                sizes[idx] = int(size(self, args, kwargs, result))
            return result

        return traced

    def layers(self) -> dict[str, dict]:
        """Per span name: calls, summed size and summed self time (s)."""
        if not self.names:
            return {}
        dur = np.asarray(self.ends) - np.asarray(self.starts)
        parents = np.asarray(self.parents)
        child = np.zeros_like(dur)
        nested = parents >= 0
        np.add.at(child, parents[nested], dur[nested])
        self_time = dur - child
        out: dict[str, dict] = {}
        for name, own, size in zip(self.names, self_time.tolist(), self.sizes):
            entry = out.setdefault(name, {"calls": 0, "size": 0, "self_s": 0.0})
            entry["calls"] += 1
            entry["size"] += size
            entry["self_s"] += own
        return out

    def window_evals(self) -> int:
        """Curve rows evaluated inside window verifiers: evaluator spans whose
        nearest evaluator-or-verifier ancestor is a window verifier."""
        total = 0
        for idx, name in enumerate(self.names):
            if name not in EVALUATORS:
                continue
            p = self.parents[idx]
            while p >= 0 and self.names[p] not in EVALUATORS and not self.names[p].startswith("harness.verify"):
                p = self.parents[p]
            if p >= 0 and self.names[p] in WINDOW_VERIFIERS:
                total += self.sizes[idx]
        return total

    def dump(self, path, meta: dict) -> None:
        """Write the spans (times relative to the first span) and ``meta``."""
        table = sorted(set(self.names))
        index = {n: i for i, n in enumerate(table)}
        t0 = self.starts[0] if self.starts else 0.0
        doc = {
            "meta": meta,
            "span_names": table,
            "spans": {
                "name": [index[n] for n in self.names],
                "start": [round(t - t0, 9) for t in self.starts],
                "end": [round(t - t0, 9) for t in self.ends],
                "parent": self.parents,
                "size": self.sizes,
            },
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)


# ------------------------------------------------------------ size readers

def _rows(tracer, args, kwargs, result):
    return len(result)


def _chain_steps(tracer, args, kwargs, result):
    # resolvent_power(op, x, t, n)
    return kwargs["n"] if "n" in kwargs else args[3]


def _pairs(tracer, args, kwargs, result):
    return result.n_pairs


def _text_bytes(tracer, args, kwargs, result):
    return len(result.encode("utf-8"))


def _verify(tracer, args, kwargs, result):
    """Grid points of a pairwise verifier; also counts the rows whose
    diameter took the centroid upper-bound path."""
    grid = result.grid
    points = int(grid.get("points", 0))
    if points:
        t_lo = min((r.certified_bound for r in result.rows), default=0.0)
        for row in result.rows:
            if row.detail.get("pairs") == "centroid-upper-bound":
                before = max(0, int(np.ceil((row.certified_bound - 1e-9 - t_lo) / grid["grid_step"])))
                tracer.count("harness.centroid_rows", points - min(before, points))
    return points


def _targets() -> list[tuple[object, str, str, object]]:
    """(owner, attribute, span name, size reader) for every wrapped callable.

    A function that another module imports by name is wrapped in both
    namespaces.  Missing attributes are skipped, so the benchmark keeps
    running when a callable is renamed or removed.
    """
    out = []
    for cls in vars(operators).values():
        if isinstance(cls, type) and issubclass(cls, operators.AccretiveOperator):
            for meth, size in (("exact_flow_many", _rows), ("value_many", _rows), ("resolvent", None)):
                if meth in vars(cls):
                    out.append((cls, meth, f"operators.{meth}", size))
    out += [
        (semigroup.AlmostOrbit, "evaluate_many", "semigroup.evaluate_many", _rows),
        (semigroup, "evaluate_semigroup", "semigroup.evaluate_semigroup", None),
        (semigroup, "resolvent_power", "semigroup.resolvent_power", _chain_steps),
        (semigroup, "evaluate_oracle_many", "semigroup.evaluate_oracle_many", _rows),
        (harness, "evaluate_oracle_many", "semigroup.evaluate_oracle_many", _rows),
        (rates.CertifiedThreshold, "__call__", "rates.threshold", None),
        (harness, "check_full_modulus", "moduli.check_full_modulus", _pairs),
        (harness, "run_experiment", "harness.run_experiment", None),
        (cli, "render_report", "cli.render_report", _text_bytes),
    ]
    for name in ("orbit_cauchy_threshold", "closure_cauchy_threshold",
                 "orbit_metastability_bound", "almost_orbit_cauchy_threshold",
                 "zero_gap_threshold", "zero_gap_metastability_bound"):
        out += [(rates, name, "rates.threshold", None), (harness, name, "rates.threshold", None)]
    for name in ("verify_cauchy_rate", "verify_orbit_cauchy", "verify_metastability",
                 "verify_almost_orbit_rate", "verify_integrable_dip", "verify_flow_pairing_dip"):
        out.append((harness, name, f"harness.{name}", _verify))
    return [t for t in out if t[1] in vars(t[0])]


@contextmanager
def instrument(tracer: Tracer):
    """Route the library's public callables through ``tracer`` while active.

    ``ExperimentConfig.from_dict`` is traced as ``cli.config_parse``: it is
    the config ingestion the CLI runs.
    """
    saved = []
    try:
        for owner, attr, name, size in _targets():
            original = vars(owner)[attr]
            saved.append((owner, attr, original))
            setattr(owner, attr, tracer.wrap(name, original, size))
        cfg_cls = harness.ExperimentConfig
        parse = vars(cfg_cls)["from_dict"]
        saved.append((cfg_cls, "from_dict", parse))
        cfg_cls.from_dict = classmethod(tracer.wrap("cli.config_parse", parse.__func__))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
