"""Reverse-mode automatic differentiation over dense float64 arrays.

A :class:`Tape` records every primitive evaluated while it is active (explicit
enter/exit scoping).  :func:`grad` replays the recorded adjoint rules in
reverse.  Every adjoint rule is itself composed of the same primitives, so
gradients computed with ``create_graph=True`` are tape-recorded and can be
differentiated again, which is what makes full second-order meta-gradients
possible.  The record ends with the scope: on exit the tape releases its
nodes, and gradients of the tensors it recorded can no longer be taken.

Recording state is per process: ``Tape`` scopes and :func:`paused` keep one
module-level "recording tape or ``None``" up to date, so a primitive asks one
global whether to record.  fsml runs parallel seeds in worker processes,
never threads, so tapes must not be entered from more than one thread.

Every primitive computes its values first.  When nothing records (no open
tape, or inside :func:`paused`, as in the replay of
``grad(create_graph=False)``), it returns them at once, before it builds its
adjoint closure; each adjoint rule is written once, after that check.

Memory.  A tape keeps only what some adjoint rule reads.  A node names its
inputs by their nodes, never holds its own output, and shape-only rules
(add, reshape, transpose, slicing, reductions, ...) keep shapes, so an
intermediate array is freed with its last reader.  A number or array passed
to a primitive in place of a Tensor is a constant: it takes no gradient, and
no rule computes or keeps anything for it.  ``grad`` frees each adjoint as
soon as its node's rule has consumed it, unless a target asks for it.

What a node keeps for its adjoint ops.  A node may also keep a statistic
of its forward that its adjoint ops read instead of recomputing it, when it
is computed with the same float ops as the recomputation, so that every
result keeps its bits.  A ``layer_norm`` node computes each row's
``1 / sqrt(var + eps)`` at its first replay and keeps it (one ``[..., 1]``
array); its adjoint op and that op's own adjoint read it, and only a
recording replay of the latter rebuilds it from primitives, as a function
of the input.  A ``gelu`` node keeps the slope
that a recording replay built, and later replays multiply by it; a slope
built while paused is not kept, so a first-order tape holds no more than
before.  The slope op keeps its forward's ``tanh``, which a paused replay
of its adjoint reads.

Fan-in.  Without ``create_graph``, ``grad`` sums the contributions to one
adjoint in place, but only in an array it allocated itself for that sum:
``add`` and ``reshape`` pass their ``g`` (or a view of it) straight
through, so an array a rule returned may be another node's adjoint or a
gradient already handed back.

The primitive set is fixed: add, sub, mul, div, matmul, transpose, reshape,
concat, slice_axis, reduce_sum, reduce_mean, exp, log, sqrt, power, softmax
(last axis), relu, gelu, layer_norm, embedding_lookup, masked_fill.
``matmul`` takes a flag per operand that swaps its last two axes, so its
adjoint records one matmul per operand and no transpose.  Two adjoints
record one op of their own, whose adjoint is again built from primitives:
gelu's records its slope, and layer_norm's its whole input gradient.  A
:class:`Tensor` has no arithmetic operators or methods: every computation
calls these functions by name.
"""

from __future__ import annotations

import warnings
from contextlib import contextmanager, nullcontext

import numpy as np

from . import kernels
from .kernels import GELU_CUBIC, SQRT_2_OVER_PI
from .errors import ContractError, DomainError, ShapeError

_tapes = []  # open Tape scopes, innermost last
_pause_depth = 0
_recording = None  # the tape primitives record on, or None


def _sync_recording():
    global _recording
    _recording = _tapes[-1] if _tapes and not _pause_depth else None


@contextmanager
def paused():
    """Suspend tape recording for the duration of the block."""
    global _pause_depth
    _pause_depth += 1
    _sync_recording()
    try:
        yield
    finally:
        _pause_depth -= 1
        _sync_recording()


class Tape:
    """Ordered record of primitive operations; topological by construction."""

    __slots__ = ("nodes",)

    def __init__(self):
        self.nodes = []

    def __enter__(self):
        _tapes.append(self)
        _sync_recording()
        return self

    def __exit__(self, exc_type, exc, tb):
        popped = _tapes.pop()
        _sync_recording()
        if popped is not self:
            raise RuntimeError("tape scopes exited out of order")
        # A recorded tensor refers to its node, whose adjoint closure may refer
        # back to the tensor; cut the links so the graph is freed now, not
        # whenever the cyclic collector runs.  Tensors keep a stub node.
        for node in self.nodes:
            node.inputs = node.vjp = None
        self.nodes.clear()
        return False


class _Node:
    # ``inputs`` names each recorded input by its node and each other input by
    # its tensor; a node never holds its own output, so an intermediate's
    # array lives only as long as a caller or an adjoint rule reads it.
    __slots__ = ("inputs", "vjp", "tape", "idx")

    def __init__(self, inputs, vjp, tape, idx):
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
        if self.values.size != 1:
            raise ContractError(f"item: need a size-1 tensor, got shape {self.shape}")
        return self.values.item()

    def detach(self):
        """A tape-free view of the same values; never contributes gradients."""
        return Tensor(self.values)

    def __repr__(self):
        return f"Tensor(shape={self.shape}, on_tape={self.node is not None})"


def _lift(x):
    return x if isinstance(x, Tensor) else Tensor(x)


def _key(t):
    """How a node's ``inputs`` names tensor ``t``: by its node once recorded,
    else by ``t`` itself; ``None`` stands for a constant."""
    return t if t is None or t.node is None else t.node


def _record(out, inputs, vjp):
    """Append ``out``'s node to the recording tape (callers check it is set)."""
    tape = _recording
    node = _Node(tuple(map(_key, inputs)), vjp, tape, len(tape.nodes))
    tape.nodes.append(node)
    out.node = node
    return out


def _broadcast_error(name, a, b):
    return ShapeError(
        f"{name}: shapes {a.shape} and {b.shape} are not broadcast-compatible"
    )


def _check_axis(name, axis, shape):
    """``axis`` as an index into ``shape``; negative axes count from the end."""
    ndim = len(shape)
    if not -ndim <= axis < ndim:
        raise ShapeError(f"{name}: axis {axis} is out of range for shape {shape}")
    return axis % ndim


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


# ---------------------------------------------------------------------------
# primitives: each returns before building its adjoint when nothing records
# ---------------------------------------------------------------------------


def _operands(a, b):
    """Both operands as tensors, then whether each one can take a gradient.

    A number or array passed in place of a Tensor is a constant: no caller
    holds it, so no ``grad`` can ask for its gradient, and an adjoint rule
    neither computes nor keeps anything for it.
    """
    return _lift(a), _lift(b), isinstance(a, Tensor), isinstance(b, Tensor)


def add(a, b):
    a, b, da, db = _operands(a, b)
    try:
        out = Tensor(a.values + b.values)
    except ValueError:
        raise _broadcast_error("add", a, b) from None
    if _recording is None:
        return out
    shape_a, shape_b = a.shape, b.shape

    def vjp(g):
        return (
            _unbroadcast(g, shape_a) if da else None,
            _unbroadcast(g, shape_b) if db else None,
        )

    return _record(out, (a if da else None, b if db else None), vjp)


def sub(a, b):
    a, b, da, db = _operands(a, b)
    try:
        out = Tensor(a.values - b.values)
    except ValueError:
        raise _broadcast_error("sub", a, b) from None
    if _recording is None:
        return out
    shape_a, shape_b = a.shape, b.shape

    def vjp(g):
        return (
            _unbroadcast(g, shape_a) if da else None,
            _unbroadcast(mul(g, -1.0), shape_b) if db else None,
        )

    return _record(out, (a if da else None, b if db else None), vjp)


def mul(a, b):
    a, b, da, db = _operands(a, b)
    try:
        out = Tensor(a.values * b.values)
    except ValueError:
        raise _broadcast_error("mul", a, b) from None
    if _recording is None:
        return out
    shape_a, shape_b = a.shape, b.shape
    # each operand's gradient reads the other one
    for_a, for_b = (b if da else None), (a if db else None)

    def vjp(g):
        return (
            _unbroadcast(mul(g, for_a), shape_a) if da else None,
            _unbroadcast(mul(g, for_b), shape_b) if db else None,
        )

    return _record(out, (a if da else None, b if db else None), vjp)


def div(a, b):
    a, b, da, db = _operands(a, b)
    try:
        out = Tensor(a.values / b.values)
    except ValueError:
        raise _broadcast_error("div", a, b) from None
    if _recording is None:
        return out
    shape_a, shape_b = a.shape, b.shape
    num = a if db else None  # only b's gradient reads a

    def vjp(g):
        ga = _unbroadcast(div(g, b), shape_a) if da else None
        gb = None
        if db:
            gb = _unbroadcast(mul(div(mul(g, num), mul(b, b)), -1.0), shape_b)
        return ga, gb

    return _record(out, (a if da else None, b if db else None), vjp)


def matmul(a, b, transpose_a=False, transpose_b=False):
    """``a @ b`` over the last two axes; a flag swaps its operand's last two
    axes first, so a product with a transposed operand records one node."""
    a, b, da, db = _operands(a, b)
    if a.ndim < 2 or b.ndim < 2:
        raise ShapeError(
            f"matmul: operands must have ndim >= 2, got shapes {a.shape} and {b.shape}"
        )
    left = a.values.swapaxes(-1, -2) if transpose_a else a.values
    right = b.values.swapaxes(-1, -2) if transpose_b else b.values
    if left.shape[-1] != right.shape[-2]:
        raise ShapeError(
            f"matmul: inner dimensions do not match for shapes {left.shape} and {right.shape}"
        )
    if a.ndim > 2 and b.ndim > 2 and a.shape[:-2] != b.shape[:-2]:
        raise ShapeError(
            f"matmul: batch dimensions differ for shapes {a.shape} and {b.shape}"
        )
    out = Tensor(left @ right)
    if _recording is None:
        return out
    shape_a, shape_b = a.shape, b.shape
    # each operand's gradient reads the other one
    for_a, for_b = (b if da else None), (a if db else None)

    def vjp(g):
        # d(left) = g @ right^T and d(right) = left^T @ g, each transposed
        # back when its operand entered transposed
        ga = gb = None
        if da:
            if transpose_a:
                ga = matmul(for_a, g, transpose_a=transpose_b, transpose_b=True)
            else:
                ga = matmul(g, for_a, transpose_b=not transpose_b)
            ga = _unbroadcast(ga, shape_a)
        if db:
            if transpose_b:
                gb = matmul(g, for_b, transpose_a=True, transpose_b=transpose_a)
            else:
                gb = matmul(for_b, g, transpose_a=not transpose_a)
            gb = _unbroadcast(gb, shape_b)
        return ga, gb

    return _record(out, (a if da else None, b if db else None), vjp)


def transpose(a, axes=None):
    """Permute axes; by default swap the last two (its own inverse)."""
    a = _lift(a)
    if axes is not None:
        axes = tuple(int(ax) for ax in axes)
        try:
            permuted = np.transpose(a.values, axes)
        except ValueError:
            raise ShapeError(
                f"transpose: {axes} is not a permutation for shape {a.shape}"
            ) from None
    if a.ndim < 2:
        return a  # every permutation of fewer than two axes is the identity
    out = Tensor(a.values.swapaxes(-1, -2) if axes is None else permuted)
    if _recording is None:
        return out
    inverse = None if axes is None else tuple(np.argsort([ax % a.ndim for ax in axes]))

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
    if _recording is None:
        return out
    original = a.shape

    def vjp(g):
        return (reshape(g, original),)

    return _record(out, (a,), vjp)


def concat(tensors, axis=0):
    given = [isinstance(t, Tensor) for t in tensors]  # see _operands
    tensors = [_lift(t) for t in tensors]
    if not tensors:
        raise ContractError("concat: need at least one tensor")
    ndim = tensors[0].ndim
    axis = _check_axis("concat", axis, tensors[0].shape)
    for t in tensors[1:]:
        if t.ndim != ndim or any(
            i != axis and t.shape[i] != tensors[0].shape[i] for i in range(ndim)
        ):
            raise ShapeError(
                f"concat: shapes {tensors[0].shape} and {t.shape} do not align off axis {axis}"
            )
    out = Tensor(np.concatenate([t.values for t in tensors], axis=axis))
    if _recording is None:
        return out
    sizes = [t.shape[axis] for t in tensors]

    def vjp(g):
        grads, offset = [], 0
        for size, differentiable in zip(sizes, given):
            grads.append(slice_axis(g, axis, offset, offset + size) if differentiable else None)
            offset += size
        return tuple(grads)

    return _record(out, tuple(t if d else None for t, d in zip(tensors, given)), vjp)


def slice_axis(a, axis, start, stop):
    a = _lift(a)
    axis = _check_axis("slice_axis", axis, a.shape)
    dim = a.shape[axis]
    if not (0 <= start < stop <= dim):
        raise ContractError(
            f"slice_axis: [{start}:{stop}] out of range for axis {axis} of shape {a.shape}"
        )
    index = tuple(
        slice(start, stop) if i == axis else slice(None) for i in range(a.ndim)
    )
    out = Tensor(a.values[index])
    if _recording is None:
        return out
    shape = a.shape

    def vjp(g):
        parts = []
        if start > 0:
            before = list(shape)
            before[axis] = start
            parts.append(np.zeros(before))
        parts.append(g)
        if stop < dim:
            after = list(shape)
            after[axis] = dim - stop
            parts.append(np.zeros(after))
        return (concat(parts, axis) if len(parts) > 1 else g,)

    return _record(out, (a,), vjp)


def _normalize_axis(name, axis, shape):
    """Sorted non-negative reduction axes; out-of-range or repeated axes raise."""
    if axis is None:
        return None
    axes = (axis,) if isinstance(axis, int) else tuple(axis)
    normalized = tuple(sorted({_check_axis(name, ax, shape) for ax in axes}))
    if len(normalized) != len(axes):
        raise ShapeError(f"{name}: axis {axis} repeats an axis of shape {shape}")
    return normalized


def _spread_reduced(g, original, axes, keepdims, scale):
    """A reduction's input gradient: ``g`` with each reduced axis kept at size
    1, broadcast back to the input's shape ``original`` and times ``scale``."""
    if axes is None:
        g = reshape(g, (1,) * len(original)) if original else g
    elif not keepdims:
        kept = list(original)
        for ax in axes:
            kept[ax] = 1
        g = reshape(g, kept)
    return mul(g, np.broadcast_to(scale, original))


def reduce_sum(a, axis=None, keepdims=False):
    a = _lift(a)
    axes = _normalize_axis("reduce_sum", axis, a.shape)
    out = Tensor(a.values.sum(axis=axes, keepdims=keepdims))
    if _recording is None:
        return out
    original = a.shape

    def vjp(g):
        return (_spread_reduced(g, original, axes, keepdims, 1.0),)

    return _record(out, (a,), vjp)


def reduce_mean(a, axis=None, keepdims=False):
    a = _lift(a)
    axes = _normalize_axis("reduce_mean", axis, a.shape)
    out = Tensor(a.values.mean(axis=axes, keepdims=keepdims))
    if _recording is None:
        return out
    original = a.shape
    if axes is None:
        count = a.size
    else:
        count = int(np.prod([original[ax] for ax in axes]))

    def vjp(g):
        return (_spread_reduced(g, original, axes, keepdims, 1.0 / count),)

    return _record(out, (a,), vjp)


def exp(a):
    a = _lift(a)
    out = Tensor(np.exp(a.values))
    if _recording is None:
        return out

    def vjp(g):
        return (mul(g, out),)

    return _record(out, (a,), vjp)


def log(a):
    a = _lift(a)
    if np.any(a.values < 0):
        raise DomainError("log of negative input")
    out = Tensor(np.log(a.values))
    if _recording is None:
        return out

    def vjp(g):
        return (div(g, a),)

    return _record(out, (a,), vjp)


def sqrt(a):
    a = _lift(a)
    if np.any(a.values < 0):
        raise DomainError("sqrt of negative input")
    out = Tensor(np.sqrt(a.values))
    if _recording is None:
        return out

    def vjp(g):
        return (div(g, mul(out, 2.0)),)

    return _record(out, (a,), vjp)


def power(a, exponent):
    a = _lift(a)
    exponent = float(exponent)
    if np.any(a.values < 0) and exponent != int(exponent):
        raise DomainError(f"power: negative base with fractional exponent {exponent}")
    out = Tensor(a.values**exponent)
    if _recording is None:
        return out

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
    if _recording is None:
        return out

    def vjp(g):
        weighted = reduce_sum(mul(g, out), axis=-1, keepdims=True)
        return (mul(out, sub(g, weighted)),)

    return _record(out, (a,), vjp)


def relu(a):
    a = _lift(a)
    out = Tensor(np.maximum(a.values, 0.0))
    if _recording is None:
        return out
    gate = (a.values > 0).astype(np.float64)

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
    if _recording is None:
        return out
    slope = None  # the recorded slope, once a replay has built one

    def vjp(g):
        nonlocal slope
        if slope is not None:
            return (mul(g, slope),)
        built = _gelu_slope(a)
        # a slope built while paused is not kept: a later recording replay
        # must record one that carries its own derivative
        if _recording is not None:
            slope = built
        return (mul(g, built),)

    return _record(out, (a,), vjp)


def _gelu_slope(a):
    """d gelu / da, recorded as one op whose adjoint is built from primitives.

    A second-order tape thus holds one slope array per gelu instead of the
    dozen intermediates of a slope composed of primitives.
    """
    x = a.values
    x2 = x * x
    inner = (x + x2 * x * GELU_CUBIC) * SQRT_2_OVER_PI
    t = 1.0 - 2.0 / (np.exp(inner * 2.0) + 1.0)  # tanh(inner)
    dinner = (x2 * (3.0 * GELU_CUBIC) + 1.0) * SQRT_2_OVER_PI
    out = Tensor((t + 1.0) * 0.5 + x * 0.5 * (1.0 - t * t) * dinner)
    if _recording is None:
        return out

    def vjp(g):
        # slope' = sech^2 * (u' + a/2 * (u'' - 2 tanh(u) u'^2)), u = inner
        x2 = mul(a, a)
        if _recording is None:
            tanh = t  # the forward's tanh(inner): the chain below, same float ops
        else:
            tanh = _tanh_expr(mul(add(a, mul(mul(x2, a), GELU_CUBIC)), SQRT_2_OVER_PI))
        du = mul(add(mul(x2, 3.0 * GELU_CUBIC), 1.0), SQRT_2_OVER_PI)
        ddu = mul(a, 6.0 * GELU_CUBIC * SQRT_2_OVER_PI)
        bend = sub(ddu, mul(mul(tanh, 2.0), mul(du, du)))
        curvature = mul(sub(1.0, mul(tanh, tanh)), add(du, mul(mul(a, 0.5), bend)))
        return (mul(g, curvature),)

    return _record(out, (a,), vjp)


def layer_norm(a, eps=1e-5):
    """Normalize the last axis to zero mean / unit variance (no affine part)."""
    a = _lift(a)
    if a.ndim < 1 or a.shape[-1] < 1:
        raise ContractError(f"layer_norm: need a non-empty last axis, got {a.shape}")
    out = Tensor(kernels.layer_norm_rows(a.values, eps))
    if _recording is None:
        return out
    inv = None  # 1 / sqrt(var + eps) per row, once a replay has computed it

    def vjp(g):
        nonlocal inv
        if inv is None:
            # the float ops of the primitive chain in _layer_norm_grad's
            # adjoint, so either source gives the same bits
            x = a.values
            centered = x - x.mean(axis=-1, keepdims=True)
            inv = (np.mean(centered * centered, axis=-1, keepdims=True) + eps) ** -0.5
        return (_layer_norm_grad(g, a, out, eps, inv),)

    return _record(out, (a,), vjp)


def _layer_norm_grad(g, a, out, eps, inv):
    """d layer_norm(a) / da applied to ``g``: inv * (g - mean(g) - out * mean(g * out)).

    ``inv`` is the layer_norm node's 1 / sqrt(var + eps) per row.  Recorded
    as one op whose adjoint is built from primitives, so a second-order tape
    holds one node per layer norm instead of a dozen.
    """
    gv, y = g.values, out.values
    gy_mean = (gv * y).mean(axis=-1, keepdims=True)
    result = Tensor(inv * ((gv - gv.mean(axis=-1, keepdims=True)) - y * gy_mean))
    if _recording is None:
        return result

    def vjp(h):
        # The Jacobian in g is a symmetric projection, so g takes the same op
        # of h.  out enters bilinearly with g; a enters only through inv,
        # whose derivative is -inv^2 * out / n.  Only a recording replay
        # needs inv as a function of a.
        n = a.shape[-1]
        inv_t = inv
        if _recording is not None:
            mu = reduce_mean(a, axis=-1, keepdims=True)
            c = sub(a, mu)
            inv_t = power(add(reduce_mean(mul(c, c), axis=-1, keepdims=True), eps), -0.5)
        gy = reduce_mean(mul(g, out), axis=-1, keepdims=True)
        hy = reduce_mean(mul(h, out), axis=-1, keepdims=True)
        g_out = mul(mul(inv_t, -1.0), add(mul(h, gy), mul(g, hy)))
        h_dx = reduce_sum(mul(h, result), axis=-1, keepdims=True)
        g_a = mul(mul(out, div(inv_t, -n)), h_dx)
        return (_layer_norm_grad(h, a, out, eps, inv), g_a, g_out)

    return _record(result, (g, a, out), vjp)


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
    if _recording is None:
        return out
    rows, dim = table.shape

    def vjp(g):
        flat_idx = idx.reshape(-1)
        onehot = np.zeros((flat_idx.size, rows))
        onehot[np.arange(flat_idx.size), flat_idx] = 1.0
        g2 = reshape(g, (flat_idx.size, dim))
        return (matmul(onehot.T, g2),)

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
    if _recording is None:
        return out
    keep = (~mask).astype(np.float64)
    shape = a.shape

    def vjp(g):
        return (_unbroadcast(mul(g, keep), shape),)

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
        if create_graph and _recording is not tape:
            raise ContractError(
                "grad: create_graph requires the output's tape to be active"
            )
        if node.vjp is None:
            raise ContractError("grad: the output's tape has been closed")
        # No node before the earliest target can depend on a target, so the
        # scan may start there when every target was recorded on this tape.
        start = 0
        if all(getattr(t, "node", None) is not None and t.node.tape is tape for t in targets):
            start = min((t.node.idx for t in targets), default=0)
        # Forward pass over the tape prefix: keep nodes influenced by any target.
        wanted = set(map(_key, targets))
        reachable = set(wanted)
        needed = []
        for n in tape.nodes[start : node.idx + 1]:
            for inp in n.inputs:
                if inp in reachable:
                    reachable.add(n)
                    needed.append(n)
                    break
        # Nodes are topological, so once a node's VJP has read its adjoint no
        # later step adds to it: drop it then, unless a target asks for it.
        scope = nullcontext() if create_graph else paused()
        owned = set()  # inputs whose adjoint array grad allocated for a fan-in sum
        with scope:
            adjoints[node] = Tensor(np.ones(output.shape))
            for n in reversed(needed):
                g_out = adjoints.get(n) if n in wanted else adjoints.pop(n, None)
                if g_out is None:
                    continue
                contributions = n.vjp(g_out)
                for inp, contrib in zip(n.inputs, contributions):
                    if contrib is None or inp not in reachable:
                        continue
                    held = adjoints.get(inp)
                    if held is None:
                        adjoints[inp] = contrib
                    elif create_graph:
                        adjoints[inp] = add(held, contrib)
                    elif inp in owned:
                        np.add(held.values, contrib.values, out=held.values)
                    else:
                        # a VJP may return its own g or a view of it (add,
                        # reshape), so sum into an array allocated here
                        adjoints[inp] = Tensor(held.values + contrib.values)
                        owned.add(inp)

    results = []
    for t in targets:
        if t is output:
            results.append(Tensor(np.ones(t.shape)))
            continue
        g = adjoints.get(_key(t))
        if g is None:
            warnings.warn(
                f"grad: unreached leaf of shape {t.shape}; returning zero gradient",
                stacklevel=2,
            )
            g = Tensor(np.zeros(t.shape))
        results.append(g)
    return results[0] if single else results
