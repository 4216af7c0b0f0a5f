import math

import numpy as np
import pytest

from accretive_flows import (
    ResourceLimitError,
    cl_error_bound,
    dirichlet_laplacian_1d,
    evaluate_semigroup,
    make_almost_orbit,
    make_quartic_well,
    make_scaled_identity,
    make_spd_linear,
    norm,
    resolvent_power,
    steps_for_tolerance,
)
from accretive_flows.operators import AccretiveOperator

QUARTIC_FLOW_X3_T1 = 1.0 + (0.25 + 8.0) ** -0.5  # 1 + ((3-1)^-2 + 8*1)^-1/2


def closed_form_ops():
    return [
        make_scaled_identity(1.0, 1),
        make_spd_linear(np.array([[2.0, -1.0], [-1.0, 2.0]])),
        make_quartic_well(),
    ]


# ------------------------------------------------------------ point evaluation

def test_time_zero_is_exact(scaled_identity):
    pt, err = evaluate_semigroup(scaled_identity, [2.0], 0.0, 1e-3)
    assert pt == pytest.approx([2.0])
    assert err == 0.0


def test_scaled_identity_converges_to_exponential(scaled_identity):
    pt, err = evaluate_semigroup(scaled_identity, [2.0], 1.0, 0.05)
    assert err <= 0.05
    assert abs(pt[0] - 2.0 * math.exp(-1.0)) <= err


def test_zero_set_points_are_stationary(quartic):
    pt, err = evaluate_semigroup(quartic, [0.5], 7.0, 1e-6)
    assert pt == pytest.approx([0.5])
    assert err == 0.0


def test_quartic_flow_matches_separable_ode_solution(quartic):
    pt, err = evaluate_semigroup(quartic, [3.0], 1.0, 0.5)
    assert err <= 0.5
    assert abs(pt[0] - QUARTIC_FLOW_X3_T1) <= err


def test_quartic_oracle_against_fine_euler_chain(quartic):
    # independent cross-check: long implicit-Euler chain approaches the
    # closed form at O(1/n)
    approx = resolvent_power(quartic, [3.0], 1.0, 2000)
    assert abs(approx[0] - QUARTIC_FLOW_X3_T1) <= 1e-3


#: step of the RK4 oracle, and the largest difference from exact_flow_many
#: that the test accepts; measured worst difference at this step is 8e-10
#: (quartic well from 3.0), and 6e-12 at a step of 2**-10
RK4_STEP = 2.0 ** -8
RK4_TOL = 1e-8


def _rk4_flow(op, x, t_end: float, every: int) -> np.ndarray:
    """Classical fixed-step RK4 for x' = -Ax from x, with step ``RK4_STEP``,
    up to ``t_end``; the rows are the states after every ``every`` steps.
    It reads A only through ``value_many``, never a flow formula."""
    def field(y):
        return -op.value_many(y[None])[0]

    y, out = np.asarray(x, dtype=float), []
    h = RK4_STEP
    for i in range(1, round(t_end / h) + 1):
        k1 = field(y)
        k2 = field(y + (h / 2) * k1)
        k3 = field(y + (h / 2) * k2)
        k4 = field(y + h * k3)
        y = y + (h / 6) * (k1 + 2 * k2 + 2 * k3 + k4)
        if i % every == 0:
            out.append(y)
    return np.array(out)


@pytest.mark.parametrize("op,x", [
    (make_scaled_identity(0.75, 3), [1.0, -2.0, 0.5]),
    (make_spd_linear(dirichlet_laplacian_1d(3)), [1.0, -0.5, 2.0]),
    (make_quartic_well(), [0.5]),
    (make_quartic_well(), [3.0]),
    (make_quartic_well(), [-2.5]),
], ids=lambda v: getattr(v, "name", None))
def test_exact_flow_matches_an_rk4_integration(op, x):
    # an oracle for the closed forms that shares no formula with them
    every = 64  # compare every quarter time unit up to t = 8
    ts = np.arange(1, 33) * (every * RK4_STEP)
    got = op.exact_flow_many(x, ts)
    assert np.abs(got - _rk4_flow(op, x, 8.0, every)).max() <= RK4_TOL


def test_scaled_identity_chain_of_two_to_the_24_steps():
    op = make_scaled_identity(1.0, 1)
    assert steps_for_tolerance(1.0, 2.0, 1e-3) == 2**24
    pt, err = evaluate_semigroup(op, [2.0], 1.0, 1e-3)
    assert err <= 1e-3
    assert abs(pt[0] - 2.0 * math.exp(-1.0)) <= err


def test_laplacian_chain_of_two_to_the_20_steps():
    d = 16
    op = make_spd_linear(dirichlet_laplacian_1d(d))
    x = np.linspace(-1.0, 2.0, d)
    speed = norm(op.value(x))
    tol = 2.0 * speed / 1000.0  # needs sqrt(n) >= 1000
    assert steps_for_tolerance(1.0, speed, tol) == 2**20
    # analytic eigenpairs of tridiag(-1, 2, -1), independent of eigh
    j = np.arange(1, d + 1)
    lam = 2.0 - 2.0 * np.cos(j * math.pi / (d + 1))
    V = math.sqrt(2.0 / (d + 1)) * np.sin(np.outer(j, j) * math.pi / (d + 1))
    exact = V @ (np.exp(-lam) * (V.T @ x))
    pt, err = evaluate_semigroup(op, x, 1.0, tol)
    assert err <= tol
    assert norm(pt - exact) <= err


def test_steps_for_tolerance_doubles_from_four():
    assert steps_for_tolerance(1.0, 1.0, 2.0) == 4
    n = steps_for_tolerance(1.0, 2.0, 0.05)
    assert n >= (2.0 * 2.0 / 0.05) ** 2 / 2
    assert cl_error_bound(1.0, 2.0, n) <= 0.05


def test_steps_cap_raises():
    with pytest.raises(ResourceLimitError):
        steps_for_tolerance(1e6, 1.0, 1e-6)


def test_evaluate_semigroup_validation(scaled_identity):
    with pytest.raises(ValueError):
        evaluate_semigroup(scaled_identity, [1.0], -1.0, 0.1)
    with pytest.raises(ValueError):
        evaluate_semigroup(scaled_identity, [1.0], 1.0, 0.0)


def test_scaled_identity_chain_refuses_a_nan_step():
    with pytest.raises(ValueError, match="gamma must be positive and finite, got nan"):
        make_scaled_identity(1.0, 2).resolvent(math.nan, [1.0, 2.0], 3)


def test_spd_chain_refuses_an_infinite_step():
    with pytest.raises(ValueError, match="gamma must be positive and finite, got inf"):
        make_spd_linear(dirichlet_laplacian_1d(2)).resolvent(math.inf, [1.0, 2.0], 2)


def test_quartic_chain_refuses_a_nan_step():
    # not the overflow refusal that a NaN step used to reach
    with pytest.raises(ValueError, match="gamma must be positive and finite, got nan"):
        make_quartic_well().resolvent(math.nan, [3.0])


def test_evaluate_semigroup_refuses_a_nan_time(scaled_identity):
    with pytest.raises(ValueError, match="t must be nonnegative and finite, got nan"):
        evaluate_semigroup(scaled_identity, [1.0], math.nan, 0.1)


def test_evaluate_semigroup_refuses_a_nan_tolerance(scaled_identity):
    with pytest.raises(ValueError, match="tol must be positive, got nan"):
        evaluate_semigroup(scaled_identity, [1.0], 1.0, math.nan)


# ------------------------------------------------------------------- oracles

def test_oracle_values():
    q = make_quartic_well()
    assert q.exact_flow([0.3], 17.0) == pytest.approx([0.3])
    assert q.exact_flow([2.0], 1.0) == pytest.approx([4.0 / 3.0], abs=1e-12)
    assert q.exact_flow([-2.0], 1.0) == pytest.approx([-4.0 / 3.0], abs=1e-12)
    spd = make_spd_linear(np.eye(2))
    x = np.array([1.0, -2.0])
    assert spd.exact_flow(x, 0.7) == pytest.approx(math.exp(-0.7) * x)


def test_oracle_many_matches_scalar():
    for op in closed_form_ops():
        x = np.full(op.dim, 2.0)
        ts = np.array([0.0, 0.3, 1.7, 9.0])
        many = op.exact_flow_many(x, ts)
        for i, t in enumerate(ts):
            assert many[i] == pytest.approx(op.exact_flow(x, float(t)), abs=1e-12)


def test_oracle_unsupported_operator():
    class Opaque(AccretiveOperator):
        name = "opaque"
        dim = 1

    with pytest.raises(NotImplementedError, match="opaque has no closed-form flow"):
        Opaque().exact_flow_many([1.0], [1.0])


# -------------------------------------------------------- certificate checks

@pytest.mark.parametrize("op", closed_form_ops(), ids=lambda o: o.name)
def test_euler_chain_certificate_sound(op):
    x = np.full(op.dim, 2.0)
    v = norm(op.value(x))
    for t in (0.5, 1.0, 2.0):
        exact = op.exact_flow(x, t)
        for n in (4, 16, 64, 256, 1024):
            approx = resolvent_power(op, x, t, n)
            assert norm(approx - exact) <= cl_error_bound(t, v, n)


# ------------------------------------------------------- semigroup properties

@pytest.mark.parametrize("op", closed_form_ops(), ids=lambda o: o.name)
def test_semigroup_law_on_oracles(op):
    x = np.full(op.dim, 3.0)
    for t in (0.25, 0.5, 1.0, 2.0, 4.0):
        for s in (0.25, 0.5, 1.0, 2.0, 4.0):
            lhs = op.exact_flow(x, t + s)
            rhs = op.exact_flow(op.exact_flow(x, s), t)
            assert norm(lhs - rhs) <= 1e-9


@pytest.mark.parametrize("op", closed_form_ops(), ids=lambda o: o.name)
def test_flow_nonexpansive(op, rng):
    for _ in range(100):
        x = rng.uniform(-4, 4, size=op.dim)
        y = rng.uniform(-4, 4, size=op.dim)
        t = float(rng.uniform(0, 5))
        fx = op.exact_flow(x, t)
        fy = op.exact_flow(y, t)
        assert norm(fx - fy) <= norm(x - y) + 1e-12


@pytest.mark.parametrize("op", closed_form_ops(), ids=lambda o: o.name)
def test_zero_gap_nonincreasing_along_flow(op):
    x = np.full(op.dim, 3.0)
    ts = np.linspace(0.0, 6.0, 25)
    pts = op.exact_flow_many(x, ts)
    gaps = np.linalg.norm(pts - op.zero_projection_many(pts), axis=1)
    assert all(b <= a + 1e-12 for a, b in zip(gaps, gaps[1:]))


def test_zero_gap_nonincreasing_along_euler_trajectory(quartic):
    # each point steps from the previous one, with additive certificates
    pt, err, prev, gaps, errs = [3.0], 0.0, 0.0, [], []
    for t in (0.5, 1.0, 1.5, 2.0, 3.0):
        pt, step_err = evaluate_semigroup(quartic, pt, t - prev, 0.05)
        err, prev = err + step_err, t
        gaps.append(norm(pt - quartic.zero_projection(pt)))
        errs.append(err)
    for i in range(len(gaps) - 1):
        assert gaps[i + 1] <= gaps[i] + 2 * (errs[i] + errs[i + 1])


# -------------------------------------------------------------- almost orbits

def test_exact_orbit_is_almost_orbit(scaled_identity):
    u = make_almost_orbit(scaled_identity, [2.0], 0.0, [1.0])
    assert all(u.rate_phi(k) == 0 for k in range(6))
    for t in (0.0, 1.0, 3.5):
        assert u.evaluate_many([t])[0] == pytest.approx(scaled_identity.exact_flow([2.0], t))


ORBIT_CASES = [
    (make_scaled_identity(1.0, 1), [2.0], [-1.0]),
    (make_scaled_identity(0.5, 3), [1.0, -2.0, 0.5], [0.6, 0.0, -0.8]),
    (make_spd_linear(dirichlet_laplacian_1d(4)), [1.0, -0.5, 2.0, 0.25], [0.5, 0.5, 0.5, -0.5]),
    (make_quartic_well(), [-2.5], [1.0]),
]


@pytest.mark.parametrize("op,x,e", ORBIT_CASES, ids=lambda v: getattr(v, "name", None))
def test_orbit_evaluate_many_is_flow_plus_decay(op, x, e):
    c = 1.5
    u = make_almost_orbit(op, x, c, e)
    ts = np.array([0.0, 0.1, 1.0, 2.75, 10.0, 250.0])
    want = np.stack([
        op.exact_flow(x, float(t)) + (c / (1.0 + t)) * np.asarray(e) for t in ts
    ])
    np.testing.assert_allclose(u.evaluate_many(ts), want, rtol=1e-13, atol=1e-15)


@pytest.mark.parametrize("op,x,e", ORBIT_CASES, ids=lambda v: getattr(v, "name", None))
def test_unperturbed_orbit_has_zero_rate(op, x, e):
    u = make_almost_orbit(op, x, 0.0, e)
    assert all(u.rate_phi(k) == 0 for k in range(50))


@pytest.mark.parametrize("op,x", [(op, x) for op, x, _ in ORBIT_CASES] + [
    (make_scaled_identity(1.0, 1), [-2.0]),  # exp(-800) * -2 is -0.0
    (make_quartic_well(), [0.5]),
    (make_quartic_well(), [3.0]),
], ids=lambda v: getattr(v, "name", None))
def test_default_orbit_is_the_flow_bit_for_bit(op, x):
    # c = 0 and e = e_1 by default; the orbit is exact_flow_many's array,
    # so -0.0 keeps its sign bit (flow + 0.0 * e would turn it into +0.0)
    u = make_almost_orbit(op, x)
    assert (u.c, u.direction.tolist()) == (0.0, [1.0] + [0.0] * (op.dim - 1))
    ts = np.array([0.0, 0.3, 1.7, 9.0, 250.0, 800.0])
    got, want = u.evaluate_many(ts), op.exact_flow_many(x, ts)
    assert got.view(np.uint64).tolist() == want.view(np.uint64).tolist()
    if x == [-2.0]:
        assert got[-1, 0] == 0.0 and got.view(np.uint64)[-1, 0] == 1 << 63


def test_perturbed_orbit_rate(orbit_c1):
    assert orbit_c1.rate_phi(0) == 1
    assert [orbit_c1.rate_phi(k) for k in range(5)] == [1, 3, 5, 7, 9]


def test_perturbed_orbit_rate_is_the_exact_ceiling(scaled_identity):
    # 2c(k+1) - 1 = 7.0000000002, ... lies just above an integer; a float
    # guard below the ceiling gave 7, 15, 23, 31
    u = make_almost_orbit(scaled_identity, [2.0], 4.0000000001, [1.0])
    assert [u.rate_phi(k) for k in range(4)] == [8, 16, 24, 32]
    assert make_almost_orbit(scaled_identity, [2.0], 0.25, [1.0]).rate_phi(0) == 0


def test_orbit_direction_validation(scaled_identity):
    with pytest.raises(ValueError, match="unit"):
        make_almost_orbit(scaled_identity, [2.0], 1.0, [2.0])
    with pytest.raises(ValueError):
        make_almost_orbit(scaled_identity, [2.0], -1.0, [1.0])


def _defect(u, s, t):
    """||u(t+s) - S(t)u(s)||, the defect of u against the exact flow."""
    return norm(u.evaluate_many([t + s])[0] - u.operator.exact_flow(u.evaluate_many([s])[0], t))


def test_orbit_defect_triangle_bound(orbit_c1):
    # defect is at most the sum of the two perturbation tails: 2c/(1+s); at
    # s = rate_phi(k) in {1, 3, 5, 7, 9} (k <= 4) that is the target 1/(k+1)
    for s in (0.0, 1.0, 2.0, 3.0, 5.0, 7.0, 9.0):
        for t in np.arange(0.0, 40.5, 0.5):
            assert _defect(orbit_c1, s, float(t)) <= 2.0 / (1.0 + s) + 1e-9


def test_orbit_defect_matches_hand_formula(orbit_c1):
    # u(t) = 2e^{-t} + 1/(1+t) gives |u(t+s) - e^{-t} u(s)|
    #      = |1/(1+t+s) - e^{-t}/(1+s)|
    for s in (0.5, 1.0, 3.0):
        for t in (0.0, 0.7, 2.0, 10.0):
            expect = abs(1.0 / (1.0 + t + s) - math.exp(-t) / (1.0 + s))
            assert _defect(orbit_c1, s, t) == pytest.approx(expect, abs=1e-12)


def test_orbit_bound_examples(scaled_identity, orbit_c1):
    grid = np.arange(0.0, 10.01, 0.1)
    # exact orbit from x with ||x - p|| = 2: B = 2 covers every sample
    u0 = make_almost_orbit(scaled_identity, [2.0], 0.0, [1.0])
    assert u0.bound_B == 2
    samples = np.linalg.norm(u0.evaluate_many(grid), axis=1)
    assert samples.max() <= u0.bound_B + 1e-12
    # perturbed orbit c=1 from x=2: B = ||x|| + c = 3
    assert orbit_c1.bound_B == 3
    samples1 = np.linalg.norm(orbit_c1.evaluate_many(grid), axis=1)
    assert samples1.max() <= orbit_c1.bound_B + 1e-12


def test_orbit_bound_is_at_least_one(scaled_identity):
    # the orbit of the zero itself has radius 0, and B stays a positive integer
    assert make_almost_orbit(scaled_identity, [0.0], 0.0, [1.0]).bound_B == 1


@pytest.mark.parametrize("c", [0.0, 0.75, 1.5])
@pytest.mark.parametrize("op,x,e", ORBIT_CASES, ids=lambda v: getattr(v, "name", None))
def test_orbit_bound_is_the_closed_form_and_covers_the_orbit(op, x, e, c):
    u = make_almost_orbit(op, x, c, e)
    p = op.zero_witness()
    assert u.bound_B == max(1, math.ceil(norm(np.asarray(x) - p) + c))
    ts = np.linspace(0.0, 200.0, 200_001)
    radius = np.linalg.norm(u.evaluate_many(ts) - p[None, :], axis=1)
    assert radius.max() <= u.bound_B
