"""Hot numeric forward kernels: gelu, softmax and layer norm over f64 arrays.

The tape engine funnels its fused rowwise/elementwise forward evaluations
through this module; matrix products stay on NumPy/BLAS.  ``fsml.tensor``
calls these functions through the module attribute, so a profiler can
rebind them in one place.
"""

from __future__ import annotations

import math

import numpy as np

SQRT_2_OVER_PI = math.sqrt(2.0 / math.pi)
GELU_CUBIC = 0.044715


def backend():
    """Name of the kernel implementation."""
    return "numpy"


def gelu(x, tanh=None):
    """Elementwise tanh-approximation GELU over an arbitrary-shape f64 array.

    ``tanh``, when given (an array shaped like ``x``), receives
    ``tanh(inner)``, from which the derivative follows.
    """
    x = np.asarray(x, dtype=np.float64)
    # inner = sqrt(2/pi) * (x + ((c * x) * x) * x), then 1 + tanh(inner)
    buf = np.multiply(x, GELU_CUBIC, out=np.empty_like(x))
    buf *= x
    buf *= x
    buf += x
    buf *= SQRT_2_OVER_PI
    np.add(np.tanh(buf, out=buf if tanh is None else tanh), 1.0, out=buf)
    out = np.multiply(x, 0.5, out=np.empty_like(x))
    out *= buf
    return out


def softmax_rows(x):
    """Max-stabilized softmax over the last axis of an f64 array."""
    arr = np.ascontiguousarray(x, dtype=np.float64)
    rows = arr.reshape(-1, arr.shape[-1])
    e = rows - np.maximum.reduce(rows, axis=1, keepdims=True)
    np.exp(e, out=e)
    e /= np.add.reduce(e, axis=1, keepdims=True)
    return e.reshape(arr.shape)


def layer_norm_rows(x, eps, var=None):
    """Zero-mean unit-variance normalization over the last axis.

    ``var``, when given (a contiguous array shaped ``x.shape[:-1] + (1,)``),
    receives each row's variance ``mean(centered * centered)``.
    """
    arr = np.ascontiguousarray(x, dtype=np.float64)
    n = arr.shape[-1]
    rows = arr.reshape(-1, n)
    centered = rows - np.add.reduce(rows, axis=1, keepdims=True) / n
    out = None if var is None else var.reshape(-1, 1)
    row_var = np.add.reduce(centered * centered, axis=1, keepdims=True, out=out)
    row_var /= n
    centered /= np.sqrt(row_var + eps)
    return centered.reshape(arr.shape)
