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


def gelu(x):
    """Elementwise tanh-approximation GELU over an arbitrary-shape f64 array."""
    x = np.asarray(x, dtype=np.float64)
    inner = SQRT_2_OVER_PI * (x + GELU_CUBIC * x * x * x)
    return 0.5 * x * (1.0 + np.tanh(inner))


def softmax_rows(x):
    """Max-stabilized softmax over the last axis of an f64 array."""
    arr = np.ascontiguousarray(x, dtype=np.float64)
    rows = arr.reshape(-1, arr.shape[-1])
    e = np.exp(rows - rows.max(axis=1, keepdims=True))
    return (e / e.sum(axis=1, keepdims=True)).reshape(arr.shape)


def layer_norm_rows(x, eps):
    """Zero-mean unit-variance normalization over the last axis."""
    arr = np.ascontiguousarray(x, dtype=np.float64)
    rows = arr.reshape(-1, arr.shape[-1])
    mu = rows.mean(axis=1, keepdims=True)
    var = np.mean((rows - mu) ** 2, axis=1, keepdims=True)
    return ((rows - mu) / np.sqrt(var + eps)).reshape(arr.shape)
