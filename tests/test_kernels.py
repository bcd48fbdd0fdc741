import numpy as np
import pytest

from fsml import kernels


def test_softmax_handles_extreme_values():
    out = kernels.softmax_rows(np.array([[1e4, 0.0, -1e30]]))
    assert np.isfinite(out).all()
    assert out[0, 0] == pytest.approx(1.0)
