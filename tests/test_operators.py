import math
import warnings
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from accretive_flows import (
    AccretiveOperator,
    QuarticWell,
    ResourceLimitError,
    ScaledIdentity,
    SPDLinear,
    dirichlet_laplacian_1d,
    make_quartic_well,
    make_scaled_identity,
    make_spd_linear,
    norm,
    sample_graph_pairs,
)

from accretivity import check_accretive

# independently computed eigenvalue of tridiag(-1,2,-1) size 4: 2 - 2cos(pi/5)
TRIDIAG4_LAMBDA_MIN = 0.3819660112501051
# independently computed root of z + 4(z-1)^3 = 3
QUARTIC_RESOLVENT_AT_3 = 1.6893983500647754


class AntiMonotone(AccretiveOperator):
    """value(x) = -x: deliberately not accretive (test double)."""

    name = "anti-monotone"

    def __init__(self, dim=1):
        self.dim = dim

    def value(self, x):
        return -np.asarray(x, dtype=float)

    def value_many(self, X):
        return -np.asarray(X, dtype=float)


def all_ops():
    return [
        make_scaled_identity(1.0, 1),
        make_scaled_identity(2.5, 3),
        make_spd_linear(dirichlet_laplacian_1d(4)),
        make_quartic_well(),
    ]


# ------------------------------------------------------------ scaled identity

def test_scaled_identity_examples():
    op = make_scaled_identity(1.0, 1)
    assert op.resolvent(1.0, [2.0]) == pytest.approx([1.0])
    op2 = make_scaled_identity(1.0, 2)
    assert op2.zero_projection([5.0, -3.0]) == pytest.approx([0.0, 0.0])
    op3 = make_scaled_identity(2.0, 2)
    assert op3.value([1.0, 2.0]) == pytest.approx([2.0, 4.0])


def test_scaled_identity_validation():
    with pytest.raises(ValueError):
        make_scaled_identity(0.0, 1)
    with pytest.raises(ValueError):
        make_scaled_identity(1.0, 0)
    op = make_scaled_identity(1.0, 2)
    with pytest.raises(ValueError):
        op.resolvent(1.0, [1.0, 2.0, 3.0])


def test_scaled_identity_graph_bound_is_the_exact_ceiling():
    # alpha * 5 = 39.0000000000000036 exactly, which the float product rounds to 39
    alpha = 7.800000000000001
    assert alpha * 5 == 39.0
    assert make_scaled_identity(alpha, 1).graph_norm_bound(5) == 40
    assert make_scaled_identity(0.5, 1).graph_norm_bound(2.5) == 3  # max(1, alpha) = 1
    assert make_scaled_identity(2.0, 3).graph_norm_bound(3) == 6


# ----------------------------------------------------------------- SPD linear

def test_spd_scalar_case():
    op = make_spd_linear(2.0 * np.eye(3))
    x = np.array([1.0, -2.0, 3.0])
    assert op.resolvent(0.5, x) == pytest.approx(x / 2.0)


def test_spd_identity_value():
    op = make_spd_linear(np.eye(2))
    assert op.value([1.5, -0.5]) == pytest.approx([1.5, -0.5])


def test_tridiagonal_laplacian_min_eigenvalue():
    op = make_spd_linear(dirichlet_laplacian_1d(4))
    assert op.lambda_min == pytest.approx(TRIDIAG4_LAMBDA_MIN, abs=1e-12)
    assert op.lambda_min == pytest.approx(2.0 - 2.0 * math.cos(math.pi / 5.0), abs=1e-12)


def test_spd_rejects_bad_matrices():
    with pytest.raises(ValueError, match="symmetric"):
        make_spd_linear(np.array([[1.0, 2.0], [0.0, 1.0]]))
    with pytest.raises(ValueError, match="positive definite"):
        make_spd_linear(np.array([[1.0, 0.0], [0.0, -1.0]]))
    with pytest.raises(ValueError):
        make_spd_linear(np.zeros((2, 3)))


# -------------------------------------------------------------- quartic well

def test_quartic_value_piecewise():
    op = make_quartic_well()
    assert op.value([2.0]) == pytest.approx([4.0])  # 4(x-1)^3 at x=2
    assert op.value([-2.0]) == pytest.approx([-4.0])
    assert op.value([0.5]) == pytest.approx([0.0])
    assert op.value([1.0]) == pytest.approx([0.0])
    assert op.value([-1.0]) == pytest.approx([0.0])


def test_quartic_zero_projection_is_clamp():
    op = make_quartic_well()
    assert op.zero_projection([0.5]) == pytest.approx([0.5])
    assert op.zero_projection([3.0]) == pytest.approx([1.0])
    assert op.zero_projection([-7.0]) == pytest.approx([-1.0])


def _quartic_flow_reference(x0, ts):
    # the out-of-place closed form exact_flow_many replaced, kept as the oracle
    if -1.0 <= x0 <= 1.0:
        return np.full((ts.shape[0], 1), x0)
    if x0 > 1.0:
        w = ((x0 - 1.0) ** -2 + 8.0 * ts) ** -0.5
        return (1.0 + w)[:, None]
    w = ((-x0 - 1.0) ** -2 + 8.0 * ts) ** -0.5
    return (-1.0 - w)[:, None]


@pytest.mark.parametrize("x0", [3.0, -2.995, 1 + 1e-7, 1e10, 0.5])
def test_quartic_exact_flow_bits_match_reference(x0):
    ts = np.concatenate([np.arange(0.0, 200.0, 0.25), [1e-300, 1e6, 1e300]])
    got = make_quartic_well().exact_flow_many([x0], ts)
    want = _quartic_flow_reference(x0, ts)
    assert got.shape == want.shape == (ts.size, 1)
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


def test_quartic_resolvent_flat_zone():
    op = make_quartic_well()
    assert op.resolvent(1.0, [0.5]) == pytest.approx([0.5])


def test_quartic_resolvent_reference_root():
    op = make_quartic_well()
    z = op.resolvent(1.0, [3.0])
    assert z[0] == pytest.approx(QUARTIC_RESOLVENT_AT_3, abs=1e-10)


@pytest.mark.parametrize("gamma", [0.01, 0.1, 1.0, 10.0])
def test_quartic_resolvent_residual(gamma):
    op = make_quartic_well()
    for x in np.linspace(-8.0, 8.0, 33):
        z = float(op.resolvent(gamma, [x])[0])
        residual = z + gamma * float(op.value([z])[0]) - x
        assert abs(residual) <= 1e-12


@given(st.floats(min_value=-50, max_value=50), st.floats(min_value=1e-3, max_value=50))
@settings(max_examples=200)
def test_quartic_resolvent_residual_property(x, gamma):
    op = make_quartic_well()
    z = float(op.resolvent(gamma, [x])[0])
    assert abs(z + gamma * float(op.value([z])[0]) - x) <= 1e-11


def _quartic_root_reference(gamma, x):
    """(Id + gamma A)^{-1} x to 60 digits: Newton in decimal on the cubic
    4 gamma w^3 + w = |x| - 1 for w = |z| - 1, from above the root."""
    with localcontext() as ctx:
        ctx.prec = 60
        g, x = Decimal(gamma), Decimal(x)
        c = abs(x) - 1
        if c <= 0:
            return x
        w = min(c, (c / (4 * g)) ** (Decimal(1) / 3))  # both bound the root
        for _ in range(200):
            step = (4 * g * w ** 3 + w - c) / (12 * g * w ** 2 + 1)
            w -= step
            if abs(step) <= w * Decimal("1e-55"):
                break
        return (1 + w).copy_sign(x)


def _ulps_from(z, ref):
    return abs(Decimal(z) - ref) / Decimal(math.ulp(float(ref)))


def test_quartic_resolvent_matches_decimal_root_over_many_scales():
    op = make_quartic_well()
    for gamma in 10.0 ** np.arange(-9, 10):
        for c in 10.0 ** np.arange(-12, 13):
            for x in (1.0 + c, -1.0 - c):
                z = float(op.resolvent(float(gamma), [x])[0])
                assert _ulps_from(z, _quartic_root_reference(gamma, x)) <= 64, (gamma, x)


# The step rounds u = asinh(1.5 (|x| - 1) sqrt(12 gamma)) / 3 to a double, and
# sinh(u) carries that rounding: near |x| = 1e300, u is about 231, and its half
# ulp alone is 64 to 128 ulps of the root.  Hence the wider bound on the last two.
@pytest.mark.parametrize("gamma,x,ulps", [(1e-6, 1e6, 64), (1e6, 1e6, 64), (1e12, 3.0, 64),
                                          (1e-12, 1.5, 64), (1.0, 1e200, 512),
                                          (1.0, -1e300, 512)])
def test_quartic_resolvent_far_from_the_flat_zone_is_the_root(gamma, x, ulps):
    z = float(make_quartic_well().resolvent(gamma, [x])[0])
    assert math.isfinite(z)
    assert _ulps_from(z, _quartic_root_reference(gamma, x)) <= ulps


@pytest.mark.parametrize("gamma,x", [(1e9, 1.7e308), (1e9, -1.7e308), (1e308, 3.0)])
def test_quartic_resolvent_past_the_float_range_refuses_or_is_the_root(gamma, x):
    # 1.5 (|x| - 1) sqrt(12 gamma) overflows; a step may refuse, never return inf or NaN
    try:
        z = float(make_quartic_well().resolvent(gamma, [x])[0])
    except ResourceLimitError:
        return
    assert math.isfinite(z)
    assert _ulps_from(z, _quartic_root_reference(gamma, x)) <= 64


# ------------------------------------------------------------ shared contracts

@pytest.mark.parametrize("op", all_ops(), ids=lambda o: o.name)
def test_resolvent_fixes_zero_witness(op):
    p = op.zero_witness()
    for gamma in (0.1, 1.0, 10.0):
        assert norm(op.resolvent(gamma, p) - p) <= 1e-12


@pytest.mark.parametrize("op", all_ops(), ids=lambda o: o.name)
def test_resolvent_nonexpansive_and_firm(op, rng):
    for _ in range(1000):
        x = rng.uniform(-5, 5, size=op.dim)
        y = rng.uniform(-5, 5, size=op.dim)
        gamma = float(rng.uniform(0.05, 5.0))
        jx = op.resolvent(gamma, x)
        jy = op.resolvent(gamma, y)
        assert norm(jx - jy) <= norm(x - y) + 1e-10
        # firm nonexpansiveness in the Euclidean model
        assert norm(jx - jy) ** 2 <= np.dot(jx - jy, x - y) + 1e-10


def _one_step(op, gamma, z):
    """One resolvent step by a per-step reference formula: a division, a
    dense solve, or the quartic well's scalar solve."""
    if isinstance(op, ScaledIdentity):
        return z / (1.0 + gamma * op.alpha)
    if isinstance(op, SPDLinear):
        return np.linalg.solve(np.eye(op.dim) + gamma * op.M, z)
    return op.resolvent(gamma, z)


@pytest.mark.parametrize("n", [1, 7, 2000])
@pytest.mark.parametrize("op", all_ops(), ids=lambda o: o.name)
def test_resolvent_chain_equals_n_single_steps(op, n, rng):
    for t in (1.0, 3.0):
        gamma = t / n
        x = rng.uniform(-5, 5, size=op.dim)
        z = x
        for _ in range(n):
            z = _one_step(op, gamma, z)
        chain = op.resolvent(gamma, x, n)
        if isinstance(op, QuarticWell) or (isinstance(op, ScaledIdentity) and n == 1):
            assert np.array_equal(chain, z)
        else:
            assert norm(chain - z) <= 1e-12 * norm(z)


def test_scaled_identity_long_chain_matches_single_steps():
    op = make_scaled_identity(2.5, 3)
    x = np.array([1.0, -4.0, 2.5])
    gamma = 1.0 / 8192
    z = x
    for _ in range(8192):
        z = z / (1.0 + gamma * op.alpha)
    assert norm(op.resolvent(gamma, x, 8192) - z) <= 1e-12 * norm(z)


def test_scaled_identity_chain_past_float_range_is_zero():
    # (1 + 0.5 * 2.5)^2000 overflows; the step-by-step chain underflows to 0
    op = make_scaled_identity(2.5, 3)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert np.array_equal(op.resolvent(0.5, [1.0, -4.0, 2.5], 2000), np.zeros(3))


@pytest.mark.parametrize("op", all_ops(), ids=lambda o: o.name)
def test_resolvent_rejects_bad_chain_arguments(op):
    x = np.ones(op.dim)
    with pytest.raises(ValueError):
        op.resolvent(0.5, np.ones(op.dim + 1), 3)
    for gamma in (0.0, -0.5):
        with pytest.raises(ValueError):
            op.resolvent(gamma, x, 3)
    for n in (0, -3, 2.5):
        with pytest.raises(ValueError):
            op.resolvent(0.5, x, n)


@pytest.mark.parametrize("op", all_ops(), ids=lambda o: o.name)
def test_zero_projection_nonexpansive(op, rng):
    for _ in range(1000):
        x = rng.uniform(-5, 5, size=op.dim)
        y = rng.uniform(-5, 5, size=op.dim)
        assert norm(op.zero_projection(x) - op.zero_projection(y)) <= norm(x - y) + 1e-12


@pytest.mark.parametrize("op", all_ops(), ids=lambda o: o.name)
def test_zero_projection_is_nearest_among_witnesses(op):
    x = np.full(op.dim, 2.5)
    px = op.zero_projection(x)
    p = op.zero_witness()
    assert norm(x - px) <= norm(x - p) + 1e-12


# --------------------------------------------------------------- graph access

@pytest.mark.parametrize("op", all_ops(), ids=lambda o: o.name)
def test_sample_graph_respects_bound(op):
    X, Y = sample_graph_pairs(op, seed=7, bound=3.0, count=200)
    assert len(X) == len(Y) == 200
    for x, y in zip(X[:20], Y[:20]):
        assert norm(x) <= 3.0 + 1e-12
        assert norm(y) <= 3.0 + 1e-12
        assert norm(y - op.value(x)) <= 1e-9


def test_sample_graph_deterministic(quartic):
    Xa, _ = sample_graph_pairs(quartic, seed=3, bound=5.0, count=50)
    Xb, _ = sample_graph_pairs(quartic, seed=3, bound=5.0, count=50)
    assert np.array_equal(Xa, Xb)


@pytest.mark.parametrize("op", all_ops(), ids=lambda o: o.name)
def test_one_point_forms_are_row_zero_of_the_batch(op, rng):
    X = rng.uniform(-6.0, 6.0, size=(50, op.dim))
    for i in range(len(X)):
        assert np.array_equal(op.value(X[i]), op.value_many(X[i:i + 1])[0])
        assert np.array_equal(op.zero_projection(X[i]), op.zero_projection_many(X[i:i + 1])[0])
    with pytest.raises(ValueError):
        op.value(np.zeros(op.dim + 1))
    with pytest.raises(ValueError):
        op.zero_projection(np.zeros(op.dim + 1))


# ----------------------------------------------------------- accretivity scan

def test_check_accretive_scaled_identity(scaled_identity):
    report = check_accretive(scaled_identity, n_samples=1000, bound=10.0, tol=1e-12, seed=0)
    assert report.passed
    assert report.n_pairs_checked == 1000 * 999 // 2


def test_check_accretive_quartic_brute_force(quartic):
    # brute-force pair scan; valid because the slope is nondecreasing
    report = check_accretive(quartic, n_samples=1000, bound=6.0, tol=1e-12, seed=1)
    assert report.passed


def test_check_accretive_flags_anti_monotone():
    report = check_accretive(AntiMonotone(), n_samples=100, bound=2.0, tol=1e-9, seed=0)
    assert not report.passed
    assert report.violations


@given(st.floats(-10, 10), st.floats(-10, 10))
@settings(max_examples=300)
def test_quartic_slope_monotone(a, b):
    op = make_quartic_well()
    fa = float(op.value([a])[0])
    fb = float(op.value([b])[0])
    assert (fa - fb) * (a - b) >= 0.0


def test_dirichlet_laplacian_shape():
    M = dirichlet_laplacian_1d(3)
    assert M == pytest.approx(np.array([[2, -1, 0], [-1, 2, -1], [0, -1, 2]], dtype=float))
    with pytest.raises(ValueError):
        dirichlet_laplacian_1d(0)
