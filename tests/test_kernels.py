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


# The kernels before they were rewritten in place, verbatim: each rewrite keeps
# their float ops in the same order, so every output keeps its bits.
SQRT_2_OVER_PI, GELU_CUBIC = kernels.SQRT_2_OVER_PI, kernels.GELU_CUBIC


def old_gelu(x, tanh=None):
    x = np.asarray(x, dtype=np.float64)
    inner = SQRT_2_OVER_PI * (x + GELU_CUBIC * x * x * x)
    return 0.5 * x * (1.0 + np.tanh(inner, out=tanh))


def old_softmax_rows(x):
    arr = np.ascontiguousarray(x, dtype=np.float64)
    rows = arr.reshape(-1, arr.shape[-1])
    e = np.exp(rows - rows.max(axis=1, keepdims=True))
    return (e / e.sum(axis=1, keepdims=True)).reshape(arr.shape)


def old_layer_norm_rows(x, eps, var=None):
    arr = np.ascontiguousarray(x, dtype=np.float64)
    rows = arr.reshape(-1, arr.shape[-1])
    centered = rows - rows.mean(axis=1, keepdims=True)
    out = None if var is None else var.reshape(-1, 1)
    row_var = np.mean(centered * centered, axis=1, keepdims=True, out=out)
    return (centered / np.sqrt(row_var + eps)).reshape(arr.shape)


# a 1-wide row, the MAE and fine-tune activations, and a wide hidden layer
ROW_SHAPES = [(9, 1), (640, 16), (3750, 16), (2000, 32)]


def shape_id(shape):
    return "x".join(map(str, shape)) if isinstance(shape, tuple) else shape


def _rows(shape, seed):
    return np.random.default_rng(seed).standard_normal(shape) * 3.0 + 0.5


def _masked_scores(seed=4):
    """Stacked [B, heads, Tq, Tk] attention scores, some keys masked to -1e30."""
    rng = np.random.default_rng(seed)
    scores = rng.standard_normal((6, 2, 9, 11)) * 4.0
    live = rng.random((6, 11)) < 0.7
    live[:, 0] = True
    return np.where(~live[:, None, None, :], -1e30, scores)


@pytest.mark.parametrize("given", [False, True], ids=["no_tanh", "tanh"])
@pytest.mark.parametrize("shape", ROW_SHAPES, ids=shape_id)
def test_gelu_bits_equal_the_expression_it_replaces(shape, given):
    x = _rows(shape, 1)
    before = x.copy()
    tanh, old_tanh = (np.empty(shape), np.empty(shape)) if given else (None, None)
    assert kernels.gelu(x, tanh).tobytes() == old_gelu(x, old_tanh).tobytes()
    if given:
        assert tanh.tobytes() == old_tanh.tobytes()
    assert x.tobytes() == before.tobytes()


@pytest.mark.parametrize("shape", ROW_SHAPES + ["masked_scores"], ids=shape_id)
def test_softmax_rows_bits_equal_the_expression_they_replace(shape):
    x = _masked_scores() if shape == "masked_scores" else _rows(shape, 2)
    before = x.copy()
    assert kernels.softmax_rows(x).tobytes() == old_softmax_rows(x).tobytes()
    assert x.tobytes() == before.tobytes()


@pytest.mark.parametrize("given", [False, True], ids=["no_var", "var"])
@pytest.mark.parametrize("shape", ROW_SHAPES + [(4, 3, 16)], ids=shape_id)
def test_layer_norm_rows_bits_equal_the_expression_they_replace(shape, given):
    x = _rows(shape, 3)
    before = x.copy()
    var, old_var = ((np.empty(shape[:-1] + (1,)), np.empty(shape[:-1] + (1,))) if given
                    else (None, None))
    assert (kernels.layer_norm_rows(x, 1e-5, var).tobytes()
            == old_layer_norm_rows(x, 1e-5, old_var).tobytes())
    if given:
        assert var.tobytes() == old_var.tobytes()
    assert x.tobytes() == before.tobytes()
