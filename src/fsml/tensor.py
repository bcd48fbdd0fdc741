"""Reverse-mode automatic differentiation over dense float64 arrays.

A :class:`Tape` records every primitive evaluated while it is active (explicit
enter/exit scoping, confined to one thread).  :func:`grad` replays the
recorded adjoint rules in reverse.  Every adjoint rule is itself composed of
the same primitives, so gradients computed with ``create_graph=True`` are
tape-recorded and can be differentiated again, which is what makes full
second-order meta-gradients possible.

The primitive set is fixed: add, sub, mul, div, matmul, transpose, reshape,
concat, slice_axis, reduce_sum, reduce_mean, exp, log, sqrt, power, softmax
(last axis), relu, gelu, layer_norm, embedding_lookup, masked_fill.
"""

from __future__ import annotations

import threading
import warnings
from contextlib import contextmanager, nullcontext

import numpy as np

from . import kernels
from .kernels import GELU_CUBIC, SQRT_2_OVER_PI
from .errors import ContractError, DomainError, ShapeError

_STATE = threading.local()


def _tape_stack():
    if not hasattr(_STATE, "tapes"):
        _STATE.tapes = []
        _STATE.pause_depth = 0
    return _STATE.tapes


def _active_tape():
    stack = _tape_stack()
    if not stack or _STATE.pause_depth:
        return None
    return stack[-1]


@contextmanager
def paused():
    """Suspend tape recording on this thread for the duration of the block."""
    _tape_stack()
    _STATE.pause_depth += 1
    try:
        yield
    finally:
        _STATE.pause_depth -= 1


class Tape:
    """Ordered record of primitive operations; topological by construction."""

    __slots__ = ("nodes",)

    def __init__(self):
        self.nodes = []

    def __enter__(self):
        _tape_stack().append(self)
        return self

    def __exit__(self, exc_type, exc, tb):
        popped = _tape_stack().pop()
        if popped is not self:
            raise RuntimeError("tape scopes exited out of order")
        return False


class _Node:
    __slots__ = ("out", "inputs", "vjp", "tape", "idx")

    def __init__(self, out, inputs, vjp, tape, idx):
        self.out = out
        self.inputs = inputs
        self.vjp = vjp
        self.tape = tape
        self.idx = idx


class Tensor:
    """Dense float64 array, optionally attached to the active tape."""

    __slots__ = ("values", "node")

    def __init__(self, values):
        self.values = np.asarray(values, dtype=np.float64)
        self.node = None

    @property
    def shape(self):
        return self.values.shape

    @property
    def ndim(self):
        return self.values.ndim

    @property
    def size(self):
        return self.values.size

    def item(self):
        return float(self.values)

    def detach(self):
        """A tape-free view of the same values; never contributes gradients."""
        return Tensor(self.values)

    def __repr__(self):
        return f"Tensor(shape={self.shape}, on_tape={self.node is not None})"

    # Arithmetic sugar; scalars and arrays are lifted to constant tensors.
    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(other, self)

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return div(self, other)

    def __rtruediv__(self, other):
        return div(other, self)

    def __neg__(self):
        return mul(self, -1.0)

    def __pow__(self, exponent):
        return power(self, exponent)

    def __matmul__(self, other):
        return matmul(self, other)

    def sum(self, axis=None, keepdims=False):
        return reduce_sum(self, axis=axis, keepdims=keepdims)

    def mean(self, axis=None, keepdims=False):
        return reduce_mean(self, axis=axis, keepdims=keepdims)

    def reshape(self, shape):
        return reshape(self, shape)

    def transpose(self, axes=None):
        return transpose(self, axes)


def as_tensor(x):
    return x if isinstance(x, Tensor) else Tensor(x)


_lift = as_tensor


def _record(out, inputs, vjp):
    tape = _active_tape()
    if tape is not None:
        node = _Node(out, inputs, vjp, tape, len(tape.nodes))
        tape.nodes.append(node)
        out.node = node
    return out


def _broadcast_check(name, a, b):
    try:
        return np.broadcast_shapes(a.shape, b.shape)
    except ValueError:
        raise ShapeError(
            f"{name}: shapes {a.shape} and {b.shape} are not broadcast-compatible"
        ) from None


def _unbroadcast(g, shape):
    """Reduce a broadcast gradient back to the operand's shape (via primitives)."""
    shape = tuple(shape)
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra > 0:
        g = reduce_sum(g, axis=tuple(range(extra)))
    axes = tuple(
        i for i, (gd, td) in enumerate(zip(g.shape, shape)) if td == 1 and gd != 1
    )
    if axes:
        g = reduce_sum(g, axis=axes, keepdims=True)
    if g.shape != shape:
        g = reshape(g, shape)
    return g


def _reduce_leading(g, shape):
    extra = g.ndim - len(shape)
    if extra > 0:
        g = reduce_sum(g, axis=tuple(range(extra)))
    return g


# ---------------------------------------------------------------------------
# primitives
# ---------------------------------------------------------------------------


def add(a, b):
    a, b = _lift(a), _lift(b)
    _broadcast_check("add", a, b)
    out = Tensor(a.values + b.values)

    def vjp(g):
        return _unbroadcast(g, a.shape), _unbroadcast(g, b.shape)

    return _record(out, (a, b), vjp)


def sub(a, b):
    a, b = _lift(a), _lift(b)
    _broadcast_check("sub", a, b)
    out = Tensor(a.values - b.values)

    def vjp(g):
        return _unbroadcast(g, a.shape), _unbroadcast(mul(g, -1.0), b.shape)

    return _record(out, (a, b), vjp)


def mul(a, b):
    a, b = _lift(a), _lift(b)
    _broadcast_check("mul", a, b)
    out = Tensor(a.values * b.values)

    def vjp(g):
        return _unbroadcast(mul(g, b), a.shape), _unbroadcast(mul(g, a), b.shape)

    return _record(out, (a, b), vjp)


def div(a, b):
    a, b = _lift(a), _lift(b)
    _broadcast_check("div", a, b)
    out = Tensor(a.values / b.values)

    def vjp(g):
        ga = _unbroadcast(div(g, b), a.shape)
        gb = _unbroadcast(mul(div(mul(g, a), mul(b, b)), -1.0), b.shape)
        return ga, gb

    return _record(out, (a, b), vjp)


def matmul(a, b):
    a, b = _lift(a), _lift(b)
    if a.ndim < 2 or b.ndim < 2:
        raise ShapeError(
            f"matmul: operands must have ndim >= 2, got shapes {a.shape} and {b.shape}"
        )
    if a.shape[-1] != b.shape[-2]:
        raise ShapeError(
            f"matmul: inner dimensions do not match for shapes {a.shape} and {b.shape}"
        )
    if a.ndim > 2 and b.ndim > 2 and a.shape[:-2] != b.shape[:-2]:
        raise ShapeError(
            f"matmul: batch dimensions differ for shapes {a.shape} and {b.shape}"
        )
    out = Tensor(a.values @ b.values)

    def vjp(g):
        ga = _reduce_leading(matmul(g, transpose(b)), a.shape)
        gb = _reduce_leading(matmul(transpose(a), g), b.shape)
        return ga, gb

    return _record(out, (a, b), vjp)


def transpose(a, axes=None):
    a = _lift(a)
    if a.ndim < 2:
        return a
    if axes is None:
        axes = tuple(range(a.ndim - 2)) + (a.ndim - 1, a.ndim - 2)
    axes = tuple(int(ax) for ax in axes)
    if sorted(axes) != list(range(a.ndim)):
        raise ShapeError(f"transpose: {axes} is not a permutation for shape {a.shape}")
    out = Tensor(np.transpose(a.values, axes))
    inverse = tuple(np.argsort(axes))

    def vjp(g):
        return (transpose(g, inverse),)

    return _record(out, (a,), vjp)


def reshape(a, shape):
    a = _lift(a)
    shape = tuple(int(s) for s in shape)
    try:
        out_vals = a.values.reshape(shape)
    except ValueError:
        raise ShapeError(f"reshape: cannot view shape {a.shape} as {shape}") from None
    out = Tensor(out_vals)
    original = a.shape

    def vjp(g):
        return (reshape(g, original),)

    return _record(out, (a,), vjp)


def concat(tensors, axis=0):
    tensors = [_lift(t) for t in tensors]
    if not tensors:
        raise ContractError("concat: need at least one tensor")
    ndim = tensors[0].ndim
    axis = axis % ndim if ndim else 0
    for t in tensors[1:]:
        if t.ndim != ndim or any(
            i != axis and t.shape[i] != tensors[0].shape[i] for i in range(ndim)
        ):
            raise ShapeError(
                f"concat: shapes {tensors[0].shape} and {t.shape} do not align off axis {axis}"
            )
    out = Tensor(np.concatenate([t.values for t in tensors], axis=axis))
    sizes = [t.shape[axis] for t in tensors]

    def vjp(g):
        grads, offset = [], 0
        for size in sizes:
            grads.append(slice_axis(g, axis, offset, offset + size))
            offset += size
        return tuple(grads)

    return _record(out, tuple(tensors), vjp)


def slice_axis(a, axis, start, stop):
    a = _lift(a)
    axis = axis % a.ndim
    dim = a.shape[axis]
    if not (0 <= start < stop <= dim):
        raise ContractError(
            f"slice_axis: [{start}:{stop}] out of range for axis {axis} of shape {a.shape}"
        )
    index = tuple(
        slice(start, stop) if i == axis else slice(None) for i in range(a.ndim)
    )
    out = Tensor(a.values[index])

    def vjp(g):
        parts = []
        if start > 0:
            before = list(a.shape)
            before[axis] = start
            parts.append(Tensor(np.zeros(before)))
        parts.append(g)
        if stop < dim:
            after = list(a.shape)
            after[axis] = dim - stop
            parts.append(Tensor(np.zeros(after)))
        return (concat(parts, axis) if len(parts) > 1 else g,)

    return _record(out, (a,), vjp)


def _normalize_axis(axis, ndim):
    if axis is None:
        return None
    if isinstance(axis, int):
        axis = (axis,)
    return tuple(sorted(ax % ndim for ax in axis))


def reduce_sum(a, axis=None, keepdims=False):
    a = _lift(a)
    axes = _normalize_axis(axis, a.ndim)
    out = Tensor(a.values.sum(axis=axes, keepdims=keepdims))
    original = a.shape

    def vjp(g):
        gg = g
        if axes is None:
            gg = reshape(g, (1,) * len(original)) if original else g
        elif not keepdims:
            kept = list(original)
            for ax in axes:
                kept[ax] = 1
            gg = reshape(g, kept)
        return (mul(gg, Tensor(np.ones(original))),)

    return _record(out, (a,), vjp)


def reduce_mean(a, axis=None, keepdims=False):
    a = _lift(a)
    axes = _normalize_axis(axis, a.ndim)
    if axes is None:
        count = a.size
    else:
        count = int(np.prod([a.shape[ax] for ax in axes]))
    out = Tensor(a.values.mean(axis=axes, keepdims=keepdims))
    original = a.shape

    def vjp(g):
        gg = g
        if axes is None:
            gg = reshape(g, (1,) * len(original)) if original else g
        elif not keepdims:
            kept = list(original)
            for ax in axes:
                kept[ax] = 1
            gg = reshape(g, kept)
        return (mul(gg, Tensor(np.full(original, 1.0 / count))),)

    return _record(out, (a,), vjp)


def exp(a):
    a = _lift(a)
    out = Tensor(np.exp(a.values))

    def vjp(g):
        return (mul(g, out),)

    return _record(out, (a,), vjp)


def log(a):
    a = _lift(a)
    if np.any(a.values < 0):
        raise DomainError("log of negative input")
    out = Tensor(np.log(a.values))

    def vjp(g):
        return (div(g, a),)

    return _record(out, (a,), vjp)


def sqrt(a):
    a = _lift(a)
    if np.any(a.values < 0):
        raise DomainError("sqrt of negative input")
    out = Tensor(np.sqrt(a.values))

    def vjp(g):
        return (div(g, mul(out, 2.0)),)

    return _record(out, (a,), vjp)


def power(a, exponent):
    a = _lift(a)
    exponent = float(exponent)
    if np.any(a.values < 0) and exponent != int(exponent):
        raise DomainError(f"power: negative base with fractional exponent {exponent}")
    out = Tensor(a.values**exponent)

    def vjp(g):
        if exponent == 0.0:
            return (mul(g, 0.0),)
        return (mul(mul(g, exponent), power(a, exponent - 1.0)),)

    return _record(out, (a,), vjp)


def softmax(a):
    """Softmax over the last axis, stabilized by (constant) max subtraction."""
    a = _lift(a)
    if a.ndim < 1 or a.shape[-1] < 1:
        raise ContractError(f"softmax: need a non-empty last axis, got shape {a.shape}")
    out = Tensor(kernels.softmax_rows(a.values))

    def vjp(g):
        weighted = reduce_sum(mul(g, out), axis=-1, keepdims=True)
        return (mul(out, sub(g, weighted)),)

    return _record(out, (a,), vjp)


def relu(a):
    a = _lift(a)
    out = Tensor(np.maximum(a.values, 0.0))
    gate = Tensor((a.values > 0).astype(np.float64))

    def vjp(g):
        return (mul(g, gate),)

    return _record(out, (a,), vjp)


def _tanh_expr(x):
    # tanh(z) = 1 - 2 / (exp(2z) + 1), built from primitives only
    return sub(1.0, div(2.0, add(exp(mul(x, 2.0)), 1.0)))


def gelu(a):
    """GELU with the tanh approximation (recorded design decision)."""
    a = _lift(a)
    out = Tensor(kernels.gelu(a.values))

    def vjp(g):
        x2 = mul(a, a)
        inner = mul(add(a, mul(mul(x2, a), GELU_CUBIC)), SQRT_2_OVER_PI)
        t = _tanh_expr(inner)
        sech2 = sub(1.0, mul(t, t))
        dinner = mul(add(mul(x2, 3.0 * GELU_CUBIC), 1.0), SQRT_2_OVER_PI)
        slope = add(
            mul(add(t, 1.0), 0.5),
            mul(mul(mul(a, 0.5), sech2), dinner),
        )
        return (mul(g, slope),)

    return _record(out, (a,), vjp)


def layer_norm(a, eps=1e-5):
    """Normalize the last axis to zero mean / unit variance (no affine part)."""
    a = _lift(a)
    if a.ndim < 1 or a.shape[-1] < 1:
        raise ContractError(f"layer_norm: need a non-empty last axis, got {a.shape}")
    out = Tensor(kernels.layer_norm_rows(a.values, eps))

    def vjp(g):
        mu = reduce_mean(a, axis=-1, keepdims=True)
        centered = sub(a, mu)
        var = reduce_mean(mul(centered, centered), axis=-1, keepdims=True)
        inv = power(add(var, eps), -0.5)
        g_mean = reduce_mean(g, axis=-1, keepdims=True)
        gy_mean = reduce_mean(mul(g, out), axis=-1, keepdims=True)
        return (mul(inv, sub(sub(g, g_mean), mul(out, gy_mean))),)

    return _record(out, (a,), vjp)


def embedding_lookup(table, indices):
    """Row gather; equivalent to one-hot(indices) @ table and differentiated as such."""
    table = _lift(table)
    if table.ndim != 2:
        raise ShapeError(f"embedding_lookup: table must be 2-D, got {table.shape}")
    idx = np.asarray(indices, dtype=np.intp)
    if idx.size and (idx.min() < 0 or idx.max() >= table.shape[0]):
        raise ContractError(
            f"embedding_lookup: index out of range for table with {table.shape[0]} rows"
        )
    out = Tensor(table.values[idx])
    rows, dim = table.shape

    def vjp(g):
        flat_idx = idx.reshape(-1)
        onehot = np.zeros((flat_idx.size, rows))
        onehot[np.arange(flat_idx.size), flat_idx] = 1.0
        g2 = reshape(g, (flat_idx.size, dim))
        return (matmul(transpose(Tensor(onehot)), g2),)

    return _record(out, (table,), vjp)


def masked_fill(a, mask, value):
    """Replace entries where ``mask`` is True by ``value`` (mask is constant)."""
    a = _lift(a)
    mask = np.asarray(mask, dtype=bool)
    try:
        np.broadcast_shapes(a.shape, mask.shape)
    except ValueError:
        raise ShapeError(
            f"masked_fill: mask shape {mask.shape} does not broadcast to {a.shape}"
        ) from None
    out = Tensor(np.where(mask, float(value), a.values))
    keep = Tensor((~mask).astype(np.float64))

    def vjp(g):
        return (_unbroadcast(mul(g, keep), a.shape),)

    return _record(out, (a,), vjp)


# ---------------------------------------------------------------------------
# gradients
# ---------------------------------------------------------------------------


def grad(output, wrt, create_graph=False):
    """Gradients of a scalar ``output`` with respect to ``wrt`` tensors.

    With ``create_graph=True`` the adjoint computations are recorded on the
    (still active) tape, so the returned gradients can be differentiated
    again.  Tensors not reachable from ``output`` receive a zero gradient and
    an "unreached leaf" warning.
    """
    single = isinstance(wrt, Tensor)
    targets = [wrt] if single else list(wrt)
    output = _lift(output)
    if output.size != 1:
        raise ContractError(f"grad: output must be scalar, got shape {output.shape}")

    node = output.node
    adjoints = {}
    if node is not None:
        tape = node.tape
        if create_graph and _active_tape() is not tape:
            raise ContractError(
                "grad: create_graph requires the output's tape to be active"
            )
        target_ids = {id(t) for t in targets}
        # Forward pass over the tape prefix: mark nodes influenced by any target.
        reachable = set(target_ids)
        needed = []
        for n in tape.nodes[: node.idx + 1]:
            if any(id(inp) in reachable for inp in n.inputs):
                reachable.add(id(n.out))
                needed.append(True)
            else:
                needed.append(False)
        scope = nullcontext() if create_graph else paused()
        with scope:
            adjoints[id(output)] = Tensor(np.ones(output.shape))
            for i in range(node.idx, -1, -1):
                if not needed[i]:
                    continue
                n = tape.nodes[i]
                g_out = adjoints.get(id(n.out))
                if g_out is None:
                    continue
                contributions = n.vjp(g_out)
                for inp, contrib in zip(n.inputs, contributions):
                    if contrib is None or id(inp) not in reachable:
                        continue
                    held = adjoints.get(id(inp))
                    adjoints[id(inp)] = contrib if held is None else add(held, contrib)

    results = []
    for t in targets:
        if t is output:
            results.append(Tensor(np.ones(t.shape)))
            continue
        g = adjoints.get(id(t))
        if g is None:
            warnings.warn(
                f"grad: unreached leaf of shape {t.shape}; returning zero gradient",
                stacklevel=2,
            )
            g = Tensor(np.zeros(t.shape))
        results.append(g)
    return results[0] if single else results
