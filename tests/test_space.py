import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from accretive_flows import as_point, eta_hilbert, norm

# independently computed: 1 - sqrt(1 - 0.1^2/4) at 25 digits
ETA_AT_0_1 = 0.001250782228091054210980884


def test_norm_examples():
    assert norm([0.0, 0.0, 0.0]) == 0.0
    assert norm([3.0, 4.0]) == 5.0
    assert norm([1.0, 1.0, 1.0, 1.0]) == 2.0


def test_as_point_rejects_non_finite():
    with pytest.raises(ValueError):
        as_point([1.0, float("nan")])
    with pytest.raises(ValueError):
        as_point([float("inf")])
    with pytest.raises(ValueError):
        as_point([])


def test_as_point_accepts_scalar():
    assert as_point(2.0).shape == (1,)


def test_eta_hilbert_values():
    assert eta_hilbert(2.0) == 1.0
    assert abs(eta_hilbert(0.1) - ETA_AT_0_1) < 1e-15
    assert eta_hilbert(1.0) < eta_hilbert(2.0)


@pytest.mark.parametrize("eps", [0.0, -0.5, 2.0001, 3.0])
def test_eta_hilbert_domain(eps):
    with pytest.raises(ValueError):
        eta_hilbert(eps)


def test_eta_hilbert_monotone_on_grid():
    grid = np.linspace(0.02, 2.0, 100)
    vals = [eta_hilbert(float(e)) for e in grid]
    assert all(0.0 < v <= 1.0 for v in vals)
    assert all(b >= a for a, b in zip(vals, vals[1:]))


@given(st.lists(st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
                min_size=1, max_size=8))
@settings(max_examples=200)
def test_norm_squared_is_the_inner_product(coords):
    x = np.array(coords)
    assert norm(x) ** 2 == pytest.approx(np.dot(x, x), rel=1e-12, abs=1e-12)
