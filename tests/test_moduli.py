import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from accretive_flows import (
    ResourceLimitError,
    check_full_modulus,
    check_simple_modulus,
    check_weak_modulus,
    full_modulus_from_dyadic,
    full_modulus_linear,
    full_modulus_min_eigenvalue,
    full_modulus_quartic_well,
    full_modulus_strongly_accretive,
    identity_rate,
    make_quartic_well,
    make_scaled_identity,
    rate_from_spec,
    rate_label,
    simple_from_full,
    theta_scaled_identity,
    weak_from_full,
    weak_from_simple,
)


# ------------------------------------------------------------ rate expressions

def test_rate_expression_grammar():
    assert rate_from_spec("id")(7) == 7
    assert rate_from_spec({"const": 5})(123) == 5
    assert rate_from_spec({"affine": [2, 1]})(10) == 21
    assert rate_from_spec({"pow": 2})(9) == 81
    table = rate_from_spec({"table": [3, 1, 4]})
    assert [table(n) for n in (0, 1, 2, 3, 99)] == [3, 1, 4, 4, 4]


@pytest.mark.parametrize("bad", ["identity", {"const": -1}, {"pow": -2}, {"table": []}, {"x": 1}, 7])
def test_rate_expression_rejects(bad):
    with pytest.raises(ValueError):
        rate_from_spec(bad)


def test_rate_labels():
    assert rate_from_spec("id").label == "id"
    assert rate_from_spec({"pow": 2}).label == "pow:2"


# ----------------------------------------------------------- modulus formulas

def test_strongly_accretive_modulus_values():
    m1 = full_modulus_strongly_accretive(1)
    assert m1(10, 0) == 0
    assert m1(10, 1) == 3
    assert full_modulus_strongly_accretive(3)(10, 2) == 26
    assert rate_label(full_modulus_strongly_accretive(3)) == "strongly-accretive(a=3)"


def test_min_eigenvalue_modulus_values():
    assert full_modulus_min_eigenvalue(1)(10, 0) == 0
    assert full_modulus_min_eigenvalue(2)(10, 3) == 31
    assert rate_label(full_modulus_min_eigenvalue(2)) == "min-eigenvalue(Lambda=2)"


def test_quartic_modulus_values():
    m = full_modulus_quartic_well()
    assert m(10, 0) == 0
    assert m(10, 1) == 15
    assert m(10, 2) == 80


def test_modulus_constructors_validate():
    with pytest.raises(ValueError, match="^a must be a positive integer$"):
        full_modulus_strongly_accretive(0)
    with pytest.raises(ValueError, match="^Lambda must be a positive integer$"):
        full_modulus_min_eigenvalue(0)


@given(st.integers(1, 50), st.integers(0, 1000), st.integers(0, 100))
@settings(max_examples=200)
def test_truncated_subtraction_never_negative(a, K, k):
    assert full_modulus_strongly_accretive(a)(K, k) >= 0
    assert full_modulus_min_eigenvalue(a)(K, k) >= 0
    assert full_modulus_quartic_well()(K, k) >= 0


def test_dyadic_conversion_values():
    flat = full_modulus_from_dyadic(lambda K, k: 0, Z=0)
    assert flat(5, 3) == 1
    lin = full_modulus_from_dyadic(lambda K, k: k, Z=0)
    assert lin(5, 3) == 8
    mixed = full_modulus_from_dyadic(lambda K, k: K + k, Z=1)
    assert mixed(2, 1) == 16  # 2^(2+1+1)


def test_dyadic_conversion_overflow():
    big = full_modulus_from_dyadic(lambda K, k: 63, Z=0)
    with pytest.raises(ResourceLimitError):
        big(1, 1)


def test_theta_scaled_identity():
    assert [theta_scaled_identity(1.0)(5, k) for k in range(3)] == [0, 2, 4]
    assert theta_scaled_identity(0.3)(5, 1) == 4  # 2k + ceil(log2(1/0.3)) = 2 + 2


# ------------------------------------------------------------ conversion chain

def test_simple_from_full_values():
    zero = simple_from_full(lambda K, k: 0)
    assert zero(3, identity_rate)(5, 7) == 7
    quart = simple_from_full(full_modulus_quartic_well())
    assert quart(3, identity_rate)(1, 0) == 15
    sacc = simple_from_full(full_modulus_strongly_accretive(1))
    double = rate_from_spec({"affine": [2, 0]})
    assert sacc(3, double)(1, 1) == 6


def test_weak_from_simple_values():
    zero = weak_from_simple(simple_from_full(lambda K, k: 0))
    assert zero(3, identity_rate)(4) == 0
    quart = weak_from_full(full_modulus_quartic_well())
    assert quart(3, identity_rate)(1) == 15
    sacc = weak_from_full(full_modulus_strongly_accretive(1))
    rate = sacc(3, identity_rate)
    assert [rate(k) for k in range(11)] == [(k + 1) ** 2 - 1 for k in range(11)]


@given(st.integers(0, 20), st.integers(0, 50), st.integers(0, 30), st.integers(1, 9))
@settings(max_examples=200)
def test_liminf_rate_window_starts_at_m(k, m, K, a):
    simple = simple_from_full(full_modulus_strongly_accretive(a))
    assert simple(K, identity_rate)(k, m) >= m


# ----------------------------------------------------- full modulus scanning

def test_full_modulus_scan_scaled_identity():
    op = make_scaled_identity(1.0, 2)
    report = check_full_modulus(
        op, full_modulus_strongly_accretive(1), K=10, k_max=10, tol=1e-9,
        n_samples=2000, seed=11,
    )
    assert not report.violations
    assert report.n_pairs == 2000


def test_full_modulus_scan_quartic_grid():
    op = make_quartic_well()
    points = np.arange(-6.0, 6.0 + 5e-3, 1e-2)
    report = check_full_modulus(
        op, full_modulus_quartic_well(), K=501, k_max=5, tol=1e-9, points=points,
    )
    assert not report.violations
    assert report.n_pairs == len(points)


def test_wrong_modulus_is_caught_on_quartic_grid():
    op = make_quartic_well()
    points = np.arange(-6.0, 6.0 + 5e-4, 1e-3)
    report = check_full_modulus(
        op, full_modulus_linear(), K=501, k_max=5, tol=1e-9, points=points,
    )
    assert report.violations
    # the counterexamples sit just past the flat zone, at gap > 1/(k+1)
    genuine = [v for v in report.violations if "x" in v]
    assert genuine
    assert any(
        abs(v["x"][0]) > 1.0 and v["gap"] > 1.0 / (v["k"] + 1) for v in genuine
    )


def test_full_modulus_scan_needs_exactly_one_source(quartic):
    with pytest.raises(ValueError):
        check_full_modulus(quartic, full_modulus_quartic_well(), 5, 2, 1e-9)
    with pytest.raises(ValueError):
        check_full_modulus(
            quartic, full_modulus_quartic_well(), 5, 2, 1e-9,
            n_samples=10, points=[1.0],
        )


# -------------------------------------------------- sequence window checking

def _constant_zero_sequence(op, length=20):
    X = np.tile(op.zero_witness(), (length, 1))
    return X, np.zeros_like(X)


def test_sequence_at_zero_passes_trivially(scaled_identity):
    X, Y = _constant_zero_sequence(scaled_identity)
    simple = simple_from_full(full_modulus_strongly_accretive(1))
    report = check_simple_modulus(
        scaled_identity, simple, X, Y, identity_rate, K=1, k_max=3, m_max=3, tol=1e-9,
    )
    assert report.passed
    weak = weak_from_full(full_modulus_strongly_accretive(1))
    report_w = check_weak_modulus(
        scaled_identity, weak, X, Y, identity_rate, K=1, k_max=3, tol=1e-9,
    )
    assert report_w.passed


def test_flow_samples_with_identity_rate(scaled_identity):
    # from x = 1 the pairing is e^{-2n} <= 1/(n+1), so the identity is a
    # genuine rate of convergence
    ts = np.arange(40.0)
    X = np.exp(-ts)[:, None]
    simple = simple_from_full(full_modulus_strongly_accretive(1))
    report = check_simple_modulus(
        scaled_identity, simple, X, X.copy(), identity_rate, K=1, k_max=3, m_max=3, tol=1e-9,
    )
    assert report.premise_certified
    assert report.passed


def test_stalled_sequence_marks_premise(scaled_identity):
    X = np.full((30, 1), 2.0)
    simple = simple_from_full(full_modulus_strongly_accretive(1))
    report = check_simple_modulus(
        scaled_identity, simple, X, X.copy(), identity_rate, K=2, k_max=1, m_max=1, tol=1e-9,
    )
    assert not report.premise_certified
    assert any(f["reason"] == "rate-violated" for f in report.premise_failures)
    assert not report.passed


def test_sequence_too_short_raises(scaled_identity):
    X, Y = _constant_zero_sequence(scaled_identity, length=3)
    simple = simple_from_full(full_modulus_quartic_well())
    with pytest.raises(ValueError, match="too short"):
        check_simple_modulus(
            scaled_identity, simple, X, Y, identity_rate, K=1, k_max=3, m_max=3, tol=1e-9,
        )
