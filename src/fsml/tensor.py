"""Reverse-mode automatic differentiation over dense float64 arrays.

A :class:`Tape` records every primitive evaluated while it is active (explicit
enter/exit scoping).  :func:`grad` replays the recorded adjoint rules in
reverse.  Every adjoint rule is itself composed of the same primitives, so
gradients computed with ``create_graph=True`` are tape-recorded and can be
differentiated again, which is what makes full second-order meta-gradients
possible.  Second order is the ceiling: differentiating such a gradient
once more through ``gelu`` or ``layer_norm`` raises ContractError (see the
adjoint ops below).  The record ends with the scope: on exit the tape
releases its nodes, and gradients of the tensors it recorded can no longer
be taken.

Recording state is per process: ``Tape`` scopes keep one module-level
"innermost open tape or ``None``" up to date, so a primitive asks one global
whether to record.  fsml runs parallel seeds in worker processes,
never threads, so tapes must not be entered from more than one thread.

Every primitive computes its values first, with its NumPy call in
:class:`_ArrayOps` once its checks pass.  When no tape is open, it returns
them at once, before it builds its adjoint closure.  Each adjoint rule is
written once and picks its ops from the kind of its adjoint (:func:`_ops`).
A Tensor adjoint gets the primitives, read as module attributes at each
call, so a recording replay (``grad(create_graph=True)``) records them.  An
array replay (``grad(create_graph=False)``) carries plain arrays: an array
adjoint gets :class:`_ArrayOps` itself, the same NumPy calls in the same
order without the primitives' checks, so every rule hands back arrays with
the bits a primitive replay gives, and only the gradients ``grad`` returns
are wrapped in a Tensor.  Nothing else marks an array replay: no primitive
sees a Tensor in it, so it records nothing on a tape that is still open.

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
result keeps its bits.  A ``layer_norm`` node keeps each row's
``1 / sqrt(var + eps)`` (one ``[..., 1]`` array), taken from the variance
its forward computed; its adjoint op and that op's own adjoint read it.  A
``gelu`` node keeps its forward's ``tanh`` (one array shaped like its
input), which the slope op and its adjoint read, and the slope that a
recording replay built, which later replays multiply by; a slope built by
an array replay is not kept, so a first-order tape holds no more than the
``tanh``.  An ``attention`` node keeps its softmax weights (one
``[batch, heads, Tq, Tk]`` array) and its three inputs, as the matmuls of
the chain it replaces did, but never the scores; a recording replay records
the kept weights as one op of ``q`` and ``k`` instead of recomputing them.
Likewise a recording replay records a ``layer_norm`` node's normalized rows
as one op of the input.  A ``log_softmax_pick`` node keeps its shifted
exps, and a recording replay records them as one op.

Fan-in.  Without ``create_graph``, ``grad`` seeds an array and sums the
array contributions to one adjoint in place, but only in an array it
allocated itself for that sum: ``add`` and ``reshape`` pass their ``g`` (or
a view of it) straight through, so an array a rule returned may be another
node's adjoint or a gradient already handed back.  Likewise a kernel, a
primitive's forward or an array replay's rule writes only into arrays it
allocated itself, never into an input, a kept array or a ``g`` it was
handed, and it keeps the float ops of the plain expression in their order.
NumPy returns a product of 0-d arrays as a scalar; the array ops and the
fan-in sum ask for a 0-d array instead (``out=...``, new in NumPy 2.3).

The primitive set is fixed: add, sub, mul, div, matmul, linear, transpose,
reshape, concat, slice_axis, reduce_sum, reduce_mean, gelu, layer_norm,
attention, log_softmax_pick.  ``matmul`` takes a flag per operand that swaps
its last two axes, so its adjoint records one matmul per operand and no
transpose; ``transpose`` takes its permutation explicitly.
A row gather from a table is a matmul with a constant one-hot operand.
``linear`` is a linear layer's ``x @ w + b`` and ``layer_norm`` takes an
optional affine ``gain`` and ``bias``, each one node.  ``attention`` is the
multi-head core between the projections (head split, scores, scale, key
mask, softmax, context, head merge) and ``log_softmax_pick`` a
cross-entropy's log-softmax at each row's label, each one node.  An array
replay of a fused op's adjoint runs the float ops of the primitive chain it
replaces, so first-order gradients keep their bits.

Adjoint ops: _gelu_slope, _layer_norm_grad, _normalized, _attention_weights,
_shifted_exp.  An adjoint rule records each as one op of its own: gelu's
records its slope, layer_norm's its kept normalized rows and their whole
input gradient, attention's its kept softmax weights as a function of ``q``
and ``k``, and log_softmax_pick's its kept exps.  The adjoints of the rows,
the weights and the exps record in turn, like any rule.  The adjoints of the
slope and of the layer_norm gradient read the kept ``tanh`` and ``inv`` as
constants, so they take an array adjoint only: a Tensor adjoint, which a
third derivative through gelu or layer_norm needs, raises ContractError.
Each adjoint op hands its value (a kept array, or the array it computes) and
its rule to :func:`_adjoint_op`, the one place that picks the kind: for an
array first input it records nothing and returns the value itself.
A :class:`Tensor` has no arithmetic operators or methods: every computation
calls these functions by name.
"""

from __future__ import annotations

import math
import operator
import sys
import warnings

import numpy as np

from . import kernels
from .kernels import GELU_CUBIC, SQRT_2_OVER_PI
from .errors import ContractError, ShapeError

_tapes = []  # open Tape scopes, innermost last
_recording = None  # the tape primitives record on, or None


def _sync_recording():
    global _recording
    _recording = _tapes[-1] if _tapes else None


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


def _adjoint_op(value, inputs, rule):
    """An adjoint op's result in the kind of its first input: ``value``
    itself for an array; for a Tensor, ``Tensor(value)``, recorded as one op
    of ``inputs`` whose adjoint is ``rule(h, v)``, with ``v`` the op's value
    in ``h``'s kind (see :func:`_ops`)."""
    if not isinstance(inputs[0], Tensor):
        return value
    out = Tensor(value)
    if _recording is None:
        return out

    def vjp(h):
        return rule(h, _ops(h)._arg(out))

    vjp.__qualname__ = rule.__qualname__  # the node names its op
    return _record(out, inputs, vjp)


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
    """Reduce a broadcast gradient back to the operand's shape, with the ops
    of ``g``'s kind (see :func:`_ops`)."""
    shape = tuple(shape)
    if g.shape == shape:
        return g
    ops = _ops(g)
    extra = g.ndim - len(shape)
    if extra > 0:
        g = ops.reduce_sum(g, axis=tuple(range(extra)))
    axes = tuple(
        i for i, (gd, td) in enumerate(zip(g.shape, shape)) if td == 1 and gd != 1
    )
    if axes:
        g = ops.reduce_sum(g, axis=axes, keepdims=True)
    if g.shape != shape:
        g = ops.reshape(g, shape)
    return g


def _add_into(buf, b):
    """``buf + b``, written into ``buf`` (an array the caller allocated and
    nothing keeps) unless the broadcast grows it; ValueError if it fails."""
    try:
        return np.add(buf, b, out=buf)
    except ValueError:
        return buf + b


def _mean_rows(x):
    """``x.mean(axis=-1, keepdims=True)`` with the same float ops."""
    return np.add.reduce(x, axis=-1, keepdims=True) / x.shape[-1]


# ---------------------------------------------------------------------------
# the NumPy calls of the primitives, and the ops of an adjoint rule by the
# kind of its adjoint
# ---------------------------------------------------------------------------

# A Tensor adjoint's rule calls the primitives as attributes of this module,
# read at each call, so that a rebinding of their names (a profiler's, a
# test's spy) applies to it as to any other caller.
_PRIMITIVES = sys.modules[__name__]


def _arg(t):
    """A tensor a rule kept, as the primitives take it: the tensor itself."""
    return t


class _ArrayOps:
    """The NumPy call of each module-level op, under its name.  A primitive
    computes its values with it once its checks pass, and a rule replayed on
    an array adjoint calls it directly, without the checks and with no tape,
    so both replays make the same calls in the same order.  A rule reads a
    kept tensor by its array (``_arg``).  Arithmetic and sums pass
    ``out=...`` (NumPy 2.3 or later), so a result of 0-d operands is a 0-d
    array, not a NumPy scalar."""

    _arg = staticmethod(operator.attrgetter("values"))

    @staticmethod
    def add(a, b):
        return np.add(a, b, out=...)

    @staticmethod
    def sub(a, b):
        return np.subtract(a, b, out=...)

    @staticmethod
    def mul(a, b):
        return np.multiply(a, b, out=...)

    @staticmethod
    def div(a, b):
        return np.true_divide(a, b, out=...)

    @staticmethod
    def reduce_sum(a, axis, keepdims=False):
        return np.add.reduce(a, axis=axis, keepdims=keepdims, out=...)

    reshape = np.ndarray.reshape
    transpose = np.ndarray.transpose
    concat = np.concatenate

    @staticmethod
    def slice_axis(a, axis, start, stop):
        return a[(slice(None),) * axis + (slice(start, stop),)]

    @staticmethod
    def matmul(a, b, transpose_a=False, transpose_b=False):
        left = a.swapaxes(-1, -2) if transpose_a else a
        return left @ (b.swapaxes(-1, -2) if transpose_b else b)

    @staticmethod
    def _scaled_to(g, original, scale):
        return np.multiply(g, scale, out=np.empty(original))


def _ops(g):
    """The ops a rule applies to the adjoint ``g``: the primitives for a
    Tensor, :class:`_ArrayOps` for an array (an array replay's)."""
    return _PRIMITIVES if isinstance(g, Tensor) else _ArrayOps


def _heads(x, batch, num_heads):
    """Rows of ``batch`` sequences as [batch, heads, T, dim / heads], with
    the ops of ``x``'s kind: a view of an array, recorded for a Tensor."""
    ops = _ops(x)
    return ops.transpose(ops.reshape(x, (batch, -1, num_heads, x.shape[-1] // num_heads)),
                         (0, 2, 1, 3))


def _merge_heads(x, shape):
    ops = _ops(x)
    return ops.reshape(ops.transpose(x, (0, 2, 1, 3)), shape)


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
        out = Tensor(_ArrayOps.add(a.values, b.values))
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
        out = Tensor(_ArrayOps.sub(a.values, b.values))
    except ValueError:
        raise _broadcast_error("sub", a, b) from None
    if _recording is None:
        return out
    shape_a, shape_b = a.shape, b.shape

    def vjp(g):
        return (
            _unbroadcast(g, shape_a) if da else None,
            _unbroadcast(_ops(g).mul(g, -1.0), shape_b) if db else None,
        )

    return _record(out, (a if da else None, b if db else None), vjp)


def mul(a, b):
    a, b, da, db = _operands(a, b)
    try:
        out = Tensor(_ArrayOps.mul(a.values, b.values))
    except ValueError:
        raise _broadcast_error("mul", a, b) from None
    if _recording is None:
        return out
    shape_a, shape_b = a.shape, b.shape
    # each operand's gradient reads the other one
    for_a, for_b = (b if da else None), (a if db else None)

    def vjp(g):
        ops = _ops(g)
        return (
            _unbroadcast(ops.mul(g, ops._arg(for_a)), shape_a) if da else None,
            _unbroadcast(ops.mul(g, ops._arg(for_b)), shape_b) if db else None,
        )

    return _record(out, (a if da else None, b if db else None), vjp)


def div(a, b):
    a, b, da, db = _operands(a, b)
    try:
        out = Tensor(_ArrayOps.div(a.values, b.values))
    except ValueError:
        raise _broadcast_error("div", a, b) from None
    if _recording is None:
        return out
    shape_a, shape_b = a.shape, b.shape
    num = a if db else None  # only b's gradient reads a

    def vjp(g):
        ops = _ops(g)
        den = ops._arg(b)
        ga = _unbroadcast(ops.div(g, den), shape_a) if da else None
        gb = None
        if db:
            gb = ops.mul(ops.div(ops.mul(g, ops._arg(num)), ops.mul(den, den)), -1.0)
            gb = _unbroadcast(gb, shape_b)
        return ga, gb

    return _record(out, (a if da else None, b if db else None), vjp)


def _product(name, a, b, transpose_a=False, transpose_b=False):
    """The array ``a @ b`` of two tensors, each transposed first when flagged."""
    if a.ndim < 2 or b.ndim < 2:
        raise ShapeError(
            f"{name}: operands must have ndim >= 2, got shapes {a.shape} and {b.shape}"
        )
    left, right = a.shape, b.shape
    if transpose_a:
        left = left[:-2] + (left[-1], left[-2])
    if transpose_b:
        right = right[:-2] + (right[-1], right[-2])
    if left[-1] != right[-2]:
        raise ShapeError(
            f"{name}: inner dimensions do not match for shapes {left} and {right}"
        )
    if a.ndim > 2 and b.ndim > 2 and a.shape[:-2] != b.shape[:-2]:
        raise ShapeError(
            f"{name}: batch dimensions differ for shapes {a.shape} and {b.shape}"
        )
    return _ArrayOps.matmul(a.values, b.values, transpose_a, transpose_b)


def matmul(a, b, transpose_a=False, transpose_b=False):
    """``a @ b`` over the last two axes; a flag swaps its operand's last two
    axes first, so a product with a transposed operand records one node."""
    a, b, da, db = _operands(a, b)
    out = Tensor(_product("matmul", a, b, transpose_a, transpose_b))
    if _recording is None:
        return out
    shape_a, shape_b = a.shape, b.shape
    # each operand's gradient reads the other one
    for_a, for_b = (b if da else None), (a if db else None)

    def vjp(g):
        # d(left) = g @ right^T and d(right) = left^T @ g, each transposed
        # back when its operand entered transposed
        ops = _ops(g)
        ga = gb = None
        if da:
            other = ops._arg(for_a)
            if transpose_a:
                ga = ops.matmul(other, g, transpose_a=transpose_b, transpose_b=True)
            else:
                ga = ops.matmul(g, other, transpose_b=not transpose_b)
            ga = _unbroadcast(ga, shape_a)
        if db:
            other = ops._arg(for_b)
            if transpose_b:
                gb = ops.matmul(g, other, transpose_a=True, transpose_b=transpose_a)
            else:
                gb = ops.matmul(other, g, transpose_a=not transpose_a)
            gb = _unbroadcast(gb, shape_b)
        return ga, gb

    return _record(out, (a if da else None, b if db else None), vjp)


def linear(x, w, b):
    """A linear layer ``x @ w + b`` over the last two axes, one node.

    ``w`` is [in, out] or stacked [n, in, out], and ``b`` broadcasts against
    the product ([out] or [n, 1, out]).  Its adjoint is matmul's and add's.
    """
    x, w, dx, dw = _operands(x, w)
    b, db = _lift(b), isinstance(b, Tensor)
    product = _product("linear", x, w)
    try:
        out = Tensor(_add_into(product, b.values))
    except ValueError:
        raise ShapeError(
            f"linear: bias {b.shape} does not broadcast to the product {product.shape}"
        ) from None
    if _recording is None:
        return out
    shape_x, shape_w, shape_b, shape_p = x.shape, w.shape, b.shape, product.shape
    # each of x's and w's gradients reads the other one
    for_x, for_w = (w if dx else None), (x if dw else None)

    def vjp(g):
        ops = _ops(g)
        gp = _unbroadcast(g, shape_p)
        gx = gw = None
        if dx:
            gx = _unbroadcast(ops.matmul(gp, ops._arg(for_x), transpose_b=True), shape_x)
        if dw:
            gw = _unbroadcast(ops.matmul(ops._arg(for_w), gp, transpose_a=True), shape_w)
        return gx, gw, (_unbroadcast(g, shape_b) if db else None)

    return _record(out, (x if dx else None, w if dw else None, b if db else None), vjp)


def transpose(a, axes):
    """Permute axes by ``axes``, a permutation of ``range(a.ndim)``."""
    a = _lift(a)
    axes = tuple(int(ax) for ax in axes)
    try:
        permuted = _ArrayOps.transpose(a.values, axes)
    except ValueError:
        raise ShapeError(
            f"transpose: {axes} is not a permutation for shape {a.shape}"
        ) from None
    if a.ndim < 2:
        return a  # every permutation of fewer than two axes is the identity
    out = Tensor(permuted)
    if _recording is None:
        return out
    inverse = tuple(int(ax) for ax in np.argsort([ax % a.ndim for ax in axes]))

    def vjp(g):
        return (_ops(g).transpose(g, inverse),)

    return _record(out, (a,), vjp)


def reshape(a, shape):
    a = _lift(a)
    shape = tuple(int(s) for s in shape)
    try:
        out_vals = _ArrayOps.reshape(a.values, shape)
    except ValueError:
        raise ShapeError(f"reshape: cannot view shape {a.shape} as {shape}") from None
    out = Tensor(out_vals)
    if _recording is None:
        return out
    original = a.shape

    def vjp(g):
        return (_ops(g).reshape(g, original),)

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
    out = Tensor(_ArrayOps.concat([t.values for t in tensors], axis))
    if _recording is None:
        return out
    sizes = [t.shape[axis] for t in tensors]

    def vjp(g):
        ops = _ops(g)
        grads, offset = [], 0
        for size, differentiable in zip(sizes, given):
            grads.append(ops.slice_axis(g, axis, offset, offset + size) if differentiable else None)
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
    out = Tensor(_ArrayOps.slice_axis(a.values, axis, start, stop))
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
        return (_ops(g).concat(parts, axis) if len(parts) > 1 else g,)

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
    1, broadcast back to the input's shape ``original`` and times ``scale``,
    with the ops of ``g``'s kind."""
    ops = _ops(g)
    if axes is None:
        g = ops.reshape(g, (1,) * len(original)) if original else g
    elif not keepdims:
        kept = list(original)
        for ax in axes:
            kept[ax] = 1
        g = ops.reshape(g, kept)
    return ops._scaled_to(g, original, scale)


def _scaled_to(g, original, scale):
    """``g`` times ``scale``, broadcast to the shape ``original``."""
    return mul(g, np.broadcast_to(scale, original))


def reduce_sum(a, axis=None, keepdims=False):
    a = _lift(a)
    axes = _normalize_axis("reduce_sum", axis, a.shape)
    out = Tensor(_ArrayOps.reduce_sum(a.values, axes, keepdims))
    if _recording is None:
        return out
    original = a.shape

    def vjp(g):
        return (_spread_reduced(g, original, axes, keepdims, 1.0),)

    return _record(out, (a,), vjp)


def reduce_mean(a, axis=None, keepdims=False):
    a = _lift(a)
    axes = _normalize_axis("reduce_mean", axis, a.shape)
    original = a.shape
    count = a.size if axes is None else math.prod(original[ax] for ax in axes)
    # the float ops of ndarray.mean: a sum, then one true divide by the count
    out = Tensor(_ArrayOps.div(_ArrayOps.reduce_sum(a.values, axes, keepdims), count))
    if _recording is None:
        return out

    def vjp(g):
        return (_spread_reduced(g, original, axes, keepdims, 1.0 / count),)

    return _record(out, (a,), vjp)


def gelu(a):
    """GELU with the tanh approximation (recorded design decision)."""
    a = _lift(a)
    if _recording is None:
        return Tensor(kernels.gelu(a.values))
    t = np.empty(a.shape)  # the forward's tanh(inner), which the slope reads
    out = Tensor(kernels.gelu(a.values, t))
    slope = None  # the recorded slope, once a replay has built one

    def vjp(g):
        nonlocal slope
        ops = _ops(g)
        if slope is not None:
            return (ops.mul(g, ops._arg(slope)),)
        built = _gelu_slope(ops._arg(a), t)
        # an array replay's slope is not kept: a later recording replay
        # must record one that carries its own derivative
        if isinstance(g, Tensor):
            slope = built
        return (ops.mul(g, built),)

    return _record(out, (a,), vjp)


def _gelu_slope(a, t):
    """d gelu / da from the forward's ``t = tanh(inner)``, an adjoint op of
    ``a`` whose adjoint, NumPy with the float ops of the primitive chain it
    replaces, takes an array adjoint only: it runs in array replays.

    A second-order tape thus holds one slope array per gelu instead of the
    dozen intermediates of a slope composed of primitives.
    """
    x = a.values if isinstance(a, Tensor) else a
    # (t + 1) * 0.5 + ((x * 0.5) * (1 - t * t)) * dinner, on two buffers
    slope = np.multiply(x, 0.5, out=np.empty_like(x))
    buf = np.multiply(t, t, out=np.empty_like(x))
    slope *= np.subtract(1.0, buf, out=buf)
    np.multiply(x, x, out=buf)
    buf *= 3.0 * GELU_CUBIC
    buf += 1.0
    buf *= SQRT_2_OVER_PI  # dinner
    slope *= buf
    np.add(t, 1.0, out=buf)
    buf *= 0.5
    slope += buf

    def vjp(g, _):
        # slope' = sech^2 * (u' + a/2 * (u'' - 2 tanh(u) u'^2)), u = inner,
        # with the forward's tanh as a constant
        if isinstance(g, Tensor):
            raise ContractError("grad: a third derivative through gelu is not supported")
        du = (x * x * (3.0 * GELU_CUBIC) + 1.0) * SQRT_2_OVER_PI
        bend = x * (6.0 * GELU_CUBIC * SQRT_2_OVER_PI) - t * 2.0 * (du * du)
        curvature = (1.0 - t * t) * (du + x * 0.5 * bend)
        return (_ArrayOps.mul(g, curvature),)

    return _adjoint_op(slope, (a,), vjp)


def layer_norm(a, eps=1e-5, gain=None, bias=None):
    """Normalize the last axis to zero mean / unit variance, then apply the
    affine part: times ``gain``, plus ``bias``, each when given.  One node."""
    given = [isinstance(t, Tensor) for t in (a, gain, bias)]  # see _operands
    a = _lift(a)
    if a.ndim < 1 or a.shape[-1] < 1:
        raise ContractError(f"layer_norm: need a non-empty last axis, got {a.shape}")
    var = None if _recording is None else np.empty(a.shape[:-1] + (1,))
    normed = kernels.layer_norm_rows(a.values, eps, var)
    gain = None if gain is None else _lift(gain)
    bias = None if bias is None else _lift(bias)
    try:
        scaled = normed if gain is None else normed * gain.values
        if bias is None:
            out = Tensor(scaled)
        else:  # never into the kept normed
            out = Tensor(scaled + bias.values if gain is None else _add_into(scaled, bias.values))
    except ValueError:
        raise ShapeError(
            f"layer_norm: gain and bias do not broadcast to the rows {a.shape}"
        ) from None
    if _recording is None:
        return out
    # the forward's variance, so no replay recomputes it; the same bits as
    # (mean((a - mean(a))^2) + eps) ** -0.5 recomputed from the input
    inv = (var + eps) ** -0.5
    da, dgain, dbias = given
    shape_a, shape_scaled = a.shape, scaled.shape

    def vjp(g):
        # a recording replay reads the normalized rows through an op of a,
        # so that the gain's gradient and _layer_norm_grad's inputs carry
        # their derivatives in a
        ops = _ops(g)
        rows = _normalized(ops._arg(a), normed, inv)
        g_scaled = _unbroadcast(g, shape_scaled)
        g_rows = g_scaled
        if gain is not None:
            g_rows = _unbroadcast(ops.mul(g_scaled, ops._arg(gain)), shape_a)
        return (
            _layer_norm_grad(g_rows, a, rows, inv) if da else None,
            _unbroadcast(ops.mul(g_scaled, rows), gain.shape) if dgain else None,
            _unbroadcast(g, bias.shape) if dbias else None,
        )

    return _record(out, (a if da else None, gain if dgain else None, bias if dbias else None), vjp)


def _normalized(a, y, inv):
    """A layer_norm node's normalized rows ``y`` as an adjoint op of ``a``
    whose adjoint is :func:`_layer_norm_grad`."""
    return _adjoint_op(y, (a,), lambda h, rows: (_layer_norm_grad(h, a, rows, inv),))


def _layer_norm_grad(g, a, out, inv):
    """d layer_norm(a) / da applied to ``g``: inv * (g - mean(g) - out * mean(g * out)).

    ``out`` is the normalized rows, a Tensor or an array like ``g``, and
    ``inv`` the layer_norm node's 1 / sqrt(var + eps) per row.  NumPy on
    either kind, and an adjoint op of ``g``, ``a`` and ``out``, so a
    second-order tape holds one node per layer norm instead of a dozen.  Its
    adjoint is NumPy too and takes an array adjoint only: it runs in array
    replays.
    """
    gv, y = (g.values, out.values) if isinstance(g, Tensor) else (g, out)
    buf = np.multiply(gv, y)
    gy_mean = _mean_rows(buf)
    value = gv - _mean_rows(gv)
    value -= np.multiply(y, gy_mean, out=buf)
    value *= inv

    def vjp(h, _):
        # The Jacobian in g is a symmetric projection, so g takes the same op
        # of h.  out enters bilinearly with g; a enters only through inv,
        # whose derivative is -inv^2 * out / n.
        if isinstance(h, Tensor):
            raise ContractError("grad: a third derivative through layer_norm is not supported")
        n = a.shape[-1]
        buf = np.multiply(h, y)
        hy = _mean_rows(buf)
        g_out = np.multiply(h, gy_mean)
        g_out += np.multiply(gv, hy, out=buf)
        g_out *= inv * -1.0
        h_dx = np.add.reduce(np.multiply(h, value, out=buf), axis=-1, keepdims=True)
        g_a = np.multiply(y, inv / -n)
        g_a *= h_dx
        return _layer_norm_grad(h, a, y, inv), g_a, g_out

    return _adjoint_op(value, (g, a, out), vjp)


def attention(q, k, v, key_mask, num_heads, scale):
    """Multi-head attention core on projected rows: per head,
    ``softmax(q k^T * scale) v``, heads merged back into rows.

    ``q`` is [B, Tq, E] (or stacked [n, B*Tq, E]), ``k`` and ``v`` are
    [B, Tk, E] (or [n, B*Tk, E]), and ``key_mask`` (bool [B, Tk] or
    [n, B, Tk]) marks attendable keys.  A masked key's score is -1e30 before
    the softmax, so it takes exactly zero weight.  The result has ``q``'s
    shape.  One node, which keeps the softmax weights; the scores are freed
    inside the call.
    """
    q, k, v = _lift(q), _lift(k), _lift(v)
    mask = np.asarray(key_mask, dtype=bool)
    mask = mask.reshape(-1, mask.shape[-1])
    batch, width = mask.shape[0], q.shape[-1]
    if (k.shape != v.shape or k.shape[-1] != width or width % num_heads
            or q.size % (batch * width) or k.size != mask.size * width):
        raise ShapeError(
            f"attention: queries {q.shape}, keys {k.shape} and values {v.shape} do not fit "
            f"a key mask of {mask.shape} with {num_heads} heads"
        )
    qh, kh, vh = (_heads(t.values, batch, num_heads) for t in (q, k, v))
    scores = _ArrayOps.matmul(qh, kh, transpose_b=True)
    scores *= scale
    rows, keys = np.nonzero(~mask)  # each masked key's column, in every head and query
    scores[rows, :, :, keys] = -1e30
    w = kernels.softmax_rows(scores)
    out = Tensor(_merge_heads(_ArrayOps.matmul(w, vh), q.shape))
    if _recording is None:
        return out
    keep = mask[:, None, None, :].astype(np.float64)

    def vjp(g):
        ops = _ops(g)
        weights = _attention_weights(ops._arg(q), ops._arg(k), w, keep, scale, batch, num_heads)
        gc = _heads(g, batch, num_heads)
        gw = ops.matmul(gc, _heads(ops._arg(v), batch, num_heads), transpose_b=True)
        gv = _merge_heads(ops.matmul(weights, gc, transpose_a=True), v.shape)
        return (*_scores_vjp(gw, weights, q, k, keep, scale, batch, num_heads), gv)

    return _record(out, (q, k, v), vjp)


def _scores_vjp(gw, weights, q, k, keep, scale, batch, num_heads):
    """The gradients of ``q`` and ``k`` from the gradient ``gw`` of the
    softmax ``weights`` (of ``gw``'s kind), through the softmax, key mask,
    scale and ``q k^T``, with the ops of ``gw``'s kind."""
    ops = _ops(gw)
    weighted = ops.reduce_sum(ops.mul(gw, weights), axis=-1, keepdims=True)
    gs = ops.mul(ops.mul(ops.mul(weights, ops.sub(gw, weighted)), keep), scale)
    gq = ops.matmul(gs, _heads(ops._arg(k), batch, num_heads))
    gk = ops.matmul(gs, _heads(ops._arg(q), batch, num_heads), transpose_a=True)
    return _merge_heads(gq, q.shape), _merge_heads(gk, k.shape)


def _attention_weights(q, k, w, keep, scale, batch, num_heads):
    """An attention node's kept softmax weights ``w`` as an adjoint op of
    ``q`` and ``k`` whose adjoint is :func:`_scores_vjp`."""
    return _adjoint_op(w, (q, k), lambda h, weights: _scores_vjp(
        h, weights, q, k, keep, scale, batch, num_heads))


def log_softmax_pick(logits, labels, weights=None):
    """Each row's log-softmax at its label, times its ``weights`` entry when given.

    ``logits`` is [..., classes]; ``labels`` (integer) and the constant
    ``weights`` are shaped like its rows.  The softmax is stabilized by a
    constant shift (the row max).  One node, which keeps the shifted exps.
    """
    logits = _lift(logits)
    labels = np.asarray(labels, dtype=np.intp)
    x = logits.values
    if x.ndim < 1 or labels.shape != x.shape[:-1]:
        raise ShapeError(f"log_softmax_pick: labels {labels.shape} do not match logits {x.shape}")
    classes = x.shape[-1]
    if labels.size and (labels.min() < 0 or labels.max() >= classes):
        raise ContractError(f"log_softmax_pick: a label is out of range for {classes} classes")
    onehot = np.eye(classes)[labels]
    z = x - np.maximum.reduce(x, axis=-1, keepdims=True)
    e = np.exp(z)
    z -= np.log(np.add.reduce(e, axis=-1, keepdims=True))
    z *= onehot
    picked = np.add.reduce(z, axis=-1)
    out = Tensor(picked if weights is None else picked * weights)
    if _recording is None:
        return out

    def vjp(g):
        # d/dz of (z - log sum exp z) . onehot: the log-probs' gradient, and
        # minus its row sum spread by exp(z) / sum; the shift is constant
        ops = _ops(g)
        gp = g if weights is None else ops.mul(g, weights)
        g_lp = ops.mul(ops.reshape(gp, gp.shape + (1,)), onehot)
        g_norm = ops.reduce_sum(ops.mul(g_lp, -1.0), axis=-1, keepdims=True)
        exps = _shifted_exp(ops._arg(logits), e)
        sums = ops.reduce_sum(exps, axis=-1, keepdims=True)
        return (ops.add(g_lp, ops.mul(ops.div(g_norm, sums), exps)),)

    return _record(out, (logits,), vjp)


def _shifted_exp(a, e):
    """``exp(a - shift)`` with its constant shift, whose values ``e`` its
    caller kept, as an adjoint op of ``a``."""
    return _adjoint_op(e, (a,), lambda g, exps: (_ops(g).mul(g, exps),))


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
        # Without create_graph the seed is an array, so each rule runs on
        # NumPy calls and records nothing.
        owned = set()  # inputs whose adjoint array grad allocated for a fan-in sum
        seed = np.ones(output.shape)
        adjoints[node] = Tensor(seed) if create_graph else seed
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
                    np.add(held, contrib, out=held)
                else:
                    # a VJP may return its own g or a view of it (add,
                    # reshape), so sum into an array allocated here
                    adjoints[inp] = np.add(held, contrib, out=...)
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
            g = np.zeros(t.shape)
        results.append(g if isinstance(g, Tensor) else Tensor(g))
    return results[0] if single else results
