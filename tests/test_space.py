import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from accretive_flows import as_point, norm


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


@given(st.lists(st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
                min_size=1, max_size=8))
@settings(max_examples=200)
def test_norm_squared_is_the_inner_product(coords):
    x = np.array(coords)
    assert norm(x) ** 2 == pytest.approx(np.dot(x, x), rel=1e-12, abs=1e-12)
