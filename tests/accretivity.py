"""Brute-force accretivity scan over sampled graph pairs, used by the tests
to check that the shipped operators are accretive."""

from dataclasses import dataclass, field

import numpy as np

from accretive_flows import AccretiveOperator, sample_graph_pairs


@dataclass
class AccretivityReport:
    """Result of scanning sampled graph pairs for accretivity violations."""

    operator: str
    n_samples: int
    n_pairs_checked: int
    tol: float
    violations: list[dict] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.violations


def check_accretive(
    op: AccretiveOperator,
    n_samples: int,
    bound: float,
    tol: float,
    seed: int = 0,
    max_reported: int = 50,
) -> AccretivityReport:
    """Check <u - v, x - y> >= -tol over all pairs of sampled graph elements."""
    X, Y = sample_graph_pairs(op, seed, bound, n_samples)
    s = np.einsum("ij,ij->i", Y, X)
    C = Y @ X.T
    # P[i, j] = <y_i - y_j, x_i - x_j>
    P = s[:, None] + s[None, :] - C - C.T
    bad_i, bad_j = np.where(np.triu(P < -tol, k=1))
    report = AccretivityReport(
        operator=op.name, n_samples=n_samples, n_pairs_checked=n_samples * (n_samples - 1) // 2,
        tol=tol,
    )
    for i, j in list(zip(bad_i.tolist(), bad_j.tolist()))[:max_reported]:
        report.violations.append(
            {"i": i, "j": j, "pairing": float(P[i, j]),
             "x_i": X[i].tolist(), "x_j": X[j].tolist()}
        )
    n_bad = int(len(bad_i))
    if n_bad > len(report.violations):
        report.violations.append({"truncated": n_bad - max_reported})
    return report
