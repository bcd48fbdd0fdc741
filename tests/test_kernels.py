import numpy as np
import pytest

from fsml import kernels


def test_softmax_handles_extreme_values():
    out = kernels.softmax_rows(np.array([[1e4, 0.0, -1e30]]))
    assert np.isfinite(out).all()
    assert out[0, 0] == pytest.approx(1.0)


@pytest.mark.parametrize("shape", [(5,), (3, 7), (2, 4, 16)])
def test_layer_norm_rows_hands_back_the_row_variance_without_changing_its_result(shape):
    x = np.random.default_rng(1).standard_normal(shape) * 4.0 + 2.0
    var = np.empty(shape[:-1] + (1,))
    out = kernels.layer_norm_rows(x, 1e-5, var)
    assert out.tobytes() == kernels.layer_norm_rows(x, 1e-5).tobytes()
    centered = x - x.mean(axis=-1, keepdims=True)
    assert var.tobytes() == np.mean(centered * centered, axis=-1, keepdims=True).tobytes()


def test_gelu_hands_back_its_tanh_without_changing_its_result():
    x = np.random.default_rng(2).standard_normal((3, 5)) * 3.0
    tanh = np.empty_like(x)
    out = kernels.gelu(x, tanh)
    assert out.tobytes() == kernels.gelu(x).tobytes()
    inner = kernels.SQRT_2_OVER_PI * (x + kernels.GELU_CUBIC * x * x * x)
    assert tanh.tobytes() == np.tanh(inner).tobytes()
