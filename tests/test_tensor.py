import ast
import contextlib
import gc
import inspect
import re
from pathlib import Path

import numpy as np
import pytest

from conftest import finite_diff, rel_error
from fsml import kernels, nn
from fsml import tensor as T
from fsml.errors import ContractError, ShapeError
from fsml.kernels import GELU_CUBIC, SQRT_2_OVER_PI
from fsml.tensor import Tape, Tensor, grad


def test_matmul_hand_example():
    out = T.matmul(Tensor([[1.0, 2.0], [3.0, 4.0]]), Tensor([[1.0], [1.0]]))
    assert out.values.tolist() == [[3.0], [7.0]]


def test_softmax_symmetry():
    out = kernels.softmax_rows(np.array([0.0, 0.0]))
    np.testing.assert_allclose(out, [0.5, 0.5], rtol=0, atol=0)


def test_layer_norm_direct_evaluation():
    x = np.array([2.0, 4.0])
    eps = 1e-5
    expected = (x - x.mean()) / np.sqrt(x.var() + eps)
    out = T.layer_norm(Tensor(x), eps=eps)
    assert np.max(np.abs(out.values - expected)) < 1e-4
    np.testing.assert_allclose(out.values, [-1.0, 1.0], atol=1e-4)


def test_first_derivative_quadratic():
    with Tape():
        x = Tensor(3.0)
        g = grad(T.mul(x, x), x)
    assert g.values == 6.0


def test_second_derivative_cubic():
    with Tape():
        x = Tensor(2.0)
        y = T.mul(T.mul(x, x), x)
        g1 = grad(y, x, create_graph=True)
        g2 = grad(g1, x)
    assert abs(g2.values - 12.0) < 1e-12


# --- per-primitive gradient checks against central finite differences ------


def _gradcheck(build, arrays, tol=1e-6, h=1e-5):
    """build(tensors) -> scalar Tensor; checked against finite differences."""

    def numeric(arrs):
        return build([Tensor(a) for a in arrs]).item()

    with Tape():
        tensors = [Tensor(a) for a in arrays]
        out = build(tensors)
        grads = grad(out, tensors)
    fd = finite_diff(numeric, [a.copy() for a in arrays], h=h)
    for analytic, numeric_g in zip(grads, fd):
        assert rel_error(analytic.values, numeric_g) < tol


def _weighted(w):
    def wrap(expr):
        return T.reduce_sum(T.mul(expr, Tensor(w)))

    return wrap


PRIMITIVE_CASES = []


def _case(name, make):
    PRIMITIVE_CASES.append(pytest.param(make, id=name))


_case("add", lambda r: (lambda w: (lambda ts: _weighted(w)(T.add(ts[0], ts[1]))))(r.standard_normal((3, 4))))
_case("add_broadcast", lambda r: (lambda w: (lambda ts: _weighted(w)(T.add(ts[0], ts[1]))))(r.standard_normal((2, 3, 4))))
_case("sub", lambda r: (lambda w: (lambda ts: _weighted(w)(T.sub(ts[0], ts[1]))))(r.standard_normal((3, 4))))
_case("mul", lambda r: (lambda w: (lambda ts: _weighted(w)(T.mul(ts[0], ts[1]))))(r.standard_normal((3, 4))))
_case("div", lambda r: (lambda w: (lambda ts: _weighted(w)(T.div(ts[0], ts[1]))))(r.standard_normal((3, 4))))
_case("matmul", lambda r: (lambda w: (lambda ts: _weighted(w)(T.matmul(ts[0], ts[1]))))(r.standard_normal((3, 5))))
_case("transpose", lambda r: (lambda w: (lambda ts: _weighted(w)(T.transpose(ts[0], (1, 0)))))(r.standard_normal((4, 3))))
_case("reshape", lambda r: (lambda w: (lambda ts: _weighted(w)(T.reshape(ts[0], (4, 3)))))(r.standard_normal((4, 3))))
_case("concat", lambda r: (lambda w: (lambda ts: _weighted(w)(T.concat([ts[0], ts[1]], axis=1))))(r.standard_normal((3, 7))))
_case("slice", lambda r: (lambda w: (lambda ts: _weighted(w)(T.slice_axis(ts[0], 1, 1, 3))))(r.standard_normal((3, 2))))
_case("sum", lambda r: (lambda w: (lambda ts: _weighted(w)(T.reduce_sum(ts[0], axis=1))))(r.standard_normal((3,))))
_case("mean", lambda r: (lambda w: (lambda ts: _weighted(w)(T.reduce_mean(ts[0], axis=0, keepdims=True))))(r.standard_normal((1, 4))))
_case("gelu", lambda r: (lambda w: (lambda ts: _weighted(w)(T.gelu(ts[0]))))(r.standard_normal((3, 4))))
_case("layer_norm", lambda r: (lambda w: (lambda ts: _weighted(w)(T.layer_norm(ts[0]))))(r.standard_normal((3, 4))))

# matmul with each transpose flag: (flags, left shape, right shape, output shape)
MATMUL_CASES = {
    "matmul_ta": ({"transpose_a": True}, (4, 3), (4, 5), (3, 5)),
    "matmul_tb": ({"transpose_b": True}, (3, 4), (5, 4), (3, 5)),
    "matmul_ta_tb": ({"transpose_a": True, "transpose_b": True}, (4, 3), (5, 4), (3, 5)),
    "matmul_batched_4d_tb": ({"transpose_b": True}, (2, 2, 3, 4), (2, 2, 5, 4), (2, 2, 3, 5)),
    "matmul_batched_4d_ta": ({"transpose_a": True}, (2, 2, 4, 3), (2, 2, 4, 5), (2, 2, 3, 5)),
    "matmul_broadcast_4d_2d": ({}, (2, 2, 3, 4), (4, 5), (2, 2, 3, 5)),
    "matmul_broadcast_4d_2d_tb": ({"transpose_b": True}, (2, 2, 3, 4), (5, 4), (2, 2, 3, 5)),
}


def _matmul_case(name, flags, out_shape):
    def make(r):
        w = r.standard_normal(out_shape)
        return lambda ts: _weighted(w)(T.matmul(ts[0], ts[1], **flags))

    _case(name, make)


for _name, (_flags, _, _, _out) in MATMUL_CASES.items():
    _matmul_case(_name, _flags, _out)


def _inputs_for(case_id, r):
    if case_id in MATMUL_CASES:
        _, left, right, _ = MATMUL_CASES[case_id]
        return [r.standard_normal(left), r.standard_normal(right)]
    if case_id == "add_broadcast":
        return [r.standard_normal((2, 3, 4)), r.standard_normal((1, 4))]
    if case_id == "matmul":
        return [r.standard_normal((3, 4)), r.standard_normal((4, 5))]
    if case_id == "concat":
        return [r.standard_normal((3, 3)), r.standard_normal((3, 4))]
    if case_id == "slice":
        return [r.standard_normal((3, 5))]
    if case_id == "div":
        return [r.standard_normal((3, 4)), r.random((3, 4)) + 0.5]
    if case_id == "sum":
        return [r.standard_normal((3, 4))]
    if case_id == "mean":
        return [r.standard_normal((5, 4))]
    if case_id in ("add", "sub", "mul"):
        return [r.standard_normal((3, 4)), r.standard_normal((3, 4))]
    return [r.standard_normal((3, 4))]


@pytest.mark.parametrize("make", PRIMITIVE_CASES)
def test_primitive_gradients_match_finite_differences(make, request):
    case_id = request.node.callspec.id
    for point in range(20):
        r = np.random.default_rng(1000 + point)
        build = make(r)
        _gradcheck(build, _inputs_for(case_id, r))


def test_batched_matmul_gradients():
    r = np.random.default_rng(9)
    a = r.standard_normal((2, 3, 4))
    b2 = r.standard_normal((4, 5))
    b3 = r.standard_normal((2, 4, 5))
    w = r.standard_normal((2, 3, 5))

    def build(ts):
        return T.reduce_sum(T.mul(T.matmul(ts[0], ts[1]), Tensor(w)))

    _gradcheck(build, [a, b2])
    _gradcheck(build, [a, b3])


def _mlp_loss(tensors, x, target):
    w1, b1, w2, b2 = tensors
    h = T.gelu(T.add(T.matmul(Tensor(x), w1), b1))
    out = T.add(T.matmul(h, w2), b2)
    diff = T.sub(out, Tensor(target))
    return T.reduce_mean(T.mul(diff, diff))


def test_mlp_gradient_matches_finite_differences():
    r = np.random.default_rng(7)
    x = r.standard_normal((3, 5))
    target = r.standard_normal((3, 1))
    params = [
        r.standard_normal((5, 7)) * 0.5,
        r.standard_normal(7) * 0.1,
        r.standard_normal((7, 1)) * 0.5,
        r.standard_normal(1) * 0.1,
    ]

    def numeric(arrs):
        return _mlp_loss([Tensor(a) for a in arrs], x, target).item()

    with Tape():
        tensors = [Tensor(p) for p in params]
        grads = grad(_mlp_loss(tensors, x, target), tensors)
    fd = finite_diff(numeric, [p.copy() for p in params])
    for analytic, numeric_g in zip(grads, fd):
        assert rel_error(analytic.values, numeric_g) < 1e-6


def test_second_order_mlp_matches_finite_differences_of_gradient():
    # 50 parameters total: 5*7 + 7 + 7*1 + 1
    r = np.random.default_rng(21)
    x = r.standard_normal((3, 5))
    target = r.standard_normal((3, 1))
    shapes = [(5, 7), (7,), (7, 1), (1,)]
    params = [r.standard_normal(s) * 0.4 for s in shapes]
    direction = [r.standard_normal(s) for s in shapes]
    assert sum(p.size for p in params) == 50

    def gradient_at(arrs):
        with Tape():
            tensors = [Tensor(a) for a in arrs]
            gs = grad(_mlp_loss(tensors, x, target), tensors)
        return np.concatenate([g.values.reshape(-1) for g in gs])

    with Tape():
        tensors = [Tensor(p) for p in params]
        gs = grad(_mlp_loss(tensors, x, target), tensors, create_graph=True)
        directional = None
        for g, d in zip(gs, direction):
            term = T.reduce_sum(T.mul(g, Tensor(d)))
            directional = term if directional is None else T.add(directional, term)
        hvp = grad(directional, tensors)
    analytic = np.concatenate([h.values.reshape(-1) for h in hvp])

    h = 1e-5
    plus = [p + h * d for p, d in zip(params, direction)]
    minus = [p - h * d for p, d in zip(params, direction)]
    fd = (gradient_at(plus) - gradient_at(minus)) / (2 * h)
    assert rel_error(analytic, fd) < 1e-4


def _check_hvp(loss, shapes, seed, tol=1e-4):
    """The Hessian-vector product of ``loss(tensors)`` taken through a
    create_graph gradient, against central differences of the gradient."""
    r = np.random.default_rng(seed)
    params = [r.standard_normal(s) * 0.5 for s in shapes]
    direction = [r.standard_normal(s) for s in shapes]

    def gradient_at(arrs):
        with Tape():
            tensors = [Tensor(a) for a in arrs]
            gs = grad(loss(tensors), tensors)
        return np.concatenate([g.values.reshape(-1) for g in gs])

    with Tape():
        tensors = [Tensor(p) for p in params]
        gs = grad(loss(tensors), tensors, create_graph=True)
        directional = T.reduce_sum(T.mul(gs[0], Tensor(direction[0])))
        for g, d in zip(gs[1:], direction[1:]):
            directional = T.add(directional, T.reduce_sum(T.mul(g, Tensor(d))))
        hvp = grad(directional, tensors)
    analytic = np.concatenate([v.values.reshape(-1) for v in hvp])
    h = 1e-5
    plus = [p + h * d for p, d in zip(params, direction)]
    minus = [p - h * d for p, d in zip(params, direction)]
    fd = (gradient_at(plus) - gradient_at(minus)) / (2 * h)
    assert rel_error(analytic, fd) < tol


def test_second_order_through_layer_norm_matches_finite_differences_of_gradient():
    # the HVP reaches layer_norm's adjoint op through all three of its inputs:
    # the upstream gradient (via w2), the normalized input and the output (via w1)
    r = np.random.default_rng(31)
    x = r.standard_normal((4, 5))
    target = r.standard_normal((4, 2))

    def loss(ts):
        w1, w2 = ts
        h = T.gelu(T.layer_norm(T.matmul(Tensor(x), w1)))
        diff = T.sub(T.matmul(h, w2), Tensor(target))
        return T.reduce_mean(T.mul(diff, diff))

    _check_hvp(loss, [(5, 6), (6, 2)], seed=32)


def test_second_order_through_transposed_matmul_matches_finite_differences_of_gradient():
    # attention-shaped: scores = q @ k^T, then the weights enter transposed
    r = np.random.default_rng(33)
    x = r.standard_normal((2, 3, 5))
    c = r.standard_normal((2, 3, 4))

    def loss(ts):
        wq, wk = ts
        q, k = T.matmul(Tensor(x), wq), T.matmul(Tensor(x), wk)
        weights = T.gelu(T.matmul(q, k, transpose_b=True))
        context = T.matmul(weights, k, transpose_a=True)
        return T.reduce_mean(T.mul(T.mul(context, context), Tensor(c)))

    _check_hvp(loss, [(5, 4), (5, 4)], seed=34)


def test_gradient_linearity():
    r = np.random.default_rng(3)
    x0 = r.standard_normal((4, 4))
    a, b = 2.7, -1.3

    def f(t):
        return T.reduce_sum(T.mul(T.gelu(t), t))

    def g(t):
        u = T.mul(t, 0.3)
        return T.reduce_mean(T.mul(T.mul(u, u), u))

    with Tape():
        t = Tensor(x0)
        combined = grad(T.add(T.mul(f(t), a), T.mul(g(t), b)), t)
    with Tape():
        t = Tensor(x0)
        gf = grad(f(t), t)
    with Tape():
        t = Tensor(x0)
        gg = grad(g(t), t)
    expected = a * gf.values + b * gg.values
    assert rel_error(combined.values, expected) < 1e-12


def test_closed_tape_releases_its_graph():
    def record():
        with Tape() as tape:
            x = Tensor(np.array([1.0, 2.0]))
            y = T.reduce_sum(T.mul(x, x))
            g = grad(y, x, create_graph=True)
        return tape, x, y, g

    tape, x, y, g = record()
    np.testing.assert_array_equal(g.values, [2.0, 4.0])
    assert tape.nodes == []
    with pytest.raises(ContractError, match="closed"):
        grad(y, x)
    gc.collect()
    gc.disable()
    try:
        record()
        assert gc.collect() == 0  # nothing was left for the cyclic collector
    finally:
        gc.enable()


def test_detached_tensor_receives_zero_gradient():
    with Tape():
        x = Tensor([1.0, 2.0])
        y = T.reduce_sum(T.mul(x.detach(), Tensor([3.0, 4.0])))
        with pytest.warns(UserWarning, match="unreached leaf"):
            g = grad(y, x)
    assert np.all(g.values == 0.0)


def test_shape_mismatch_names_both_shapes():
    with pytest.raises(ShapeError) as err:
        T.matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((4, 2))))
    assert "(2, 3)" in str(err.value) and "(4, 2)" in str(err.value)
    with pytest.raises(ShapeError) as err:
        T.add(Tensor(np.zeros((2, 3))), Tensor(np.zeros((4,))))
    assert "(2, 3)" in str(err.value) and "(4,)" in str(err.value)
    for op in (T.add, T.sub, T.mul, T.div):
        for recording in (False, True):
            with Tape() if recording else contextlib.nullcontext():
                with pytest.raises(ShapeError) as err:
                    op(Tensor(np.ones((2, 3))), Tensor(np.ones((4,))))
            message = str(err.value)
            assert op.__name__ in message
            assert "(2, 3)" in message and "(4,)" in message


def test_grad_requires_scalar_output():
    with Tape():
        x = Tensor([1.0, 2.0])
        y = T.mul(x, 2.0)
        with pytest.raises(ContractError, match="scalar"):
            grad(y, x)


def test_create_graph_requires_active_tape():
    with Tape():
        x = Tensor(1.0)
        y = T.mul(x, x)
    with pytest.raises(ContractError):
        grad(y, x, create_graph=True)


def test_tensor_invariant_shape_matches_values():
    t = Tensor(np.arange(6.0).reshape(2, 3))
    assert int(np.prod(t.shape)) == t.size


@pytest.mark.parametrize(
    "call, named",
    [
        pytest.param(lambda x: T.reduce_sum(x, axis=5), "axis 5", id="sum-axis-5"),
        pytest.param(lambda x: T.reduce_sum(x, axis=-3), "axis -3", id="sum-axis-neg3"),
        pytest.param(lambda x: T.reduce_mean(x, axis=2), "axis 2", id="mean-axis-2"),
        pytest.param(lambda x: T.reduce_sum(x, axis=(0, 0)), "(0, 0)", id="sum-repeated"),
        pytest.param(lambda x: T.reduce_mean(x, axis=(1, -1)), "(1, -1)", id="mean-repeated"),
        pytest.param(lambda x: T.slice_axis(x, 3, 0, 2), "axis 3", id="slice-axis-3"),
        pytest.param(lambda x: T.slice_axis(x, -3, 0, 1), "axis -3", id="slice-axis-neg3"),
        pytest.param(lambda x: T.concat([x, x], axis=7), "axis 7", id="concat-axis-7"),
        pytest.param(lambda x: T.concat([x, x], axis=-3), "axis -3", id="concat-axis-neg3"),
        pytest.param(lambda x: T.transpose(x, (0, 0)), "(0, 0)", id="transpose-repeated"),
        pytest.param(lambda x: T.transpose(x, (0, 2)), "(0, 2)", id="transpose-axis-2"),
    ],
)
def test_bad_axis_is_a_shape_error_naming_axis_and_shape(call, named):
    x = Tensor(np.zeros((2, 3)))
    with pytest.raises(ShapeError) as err:
        call(x)
    assert named in str(err.value) and "(2, 3)" in str(err.value)


def test_negative_axes_in_range_still_work():
    x = np.arange(6.0).reshape(2, 3)
    t = Tensor(x)
    np.testing.assert_array_equal(T.reduce_sum(t, axis=-1).values, x.sum(axis=1))
    np.testing.assert_array_equal(T.reduce_mean(t, axis=(-2, -1)).values, x.mean())
    np.testing.assert_array_equal(T.slice_axis(t, -2, 1, 2).values, x[1:2])
    np.testing.assert_array_equal(T.concat([t, t], axis=-2).values, np.vstack([x, x]))
    np.testing.assert_array_equal(T.transpose(t, (-1, 0)).values, x.T)


def test_item_returns_the_value_of_any_size_one_tensor():
    for values in (2.0, [2.0], [[2.0]]):
        value = Tensor(values).item()
        assert value == 2.0 and type(value) is float
    for values in ([1.0, 2.0], np.zeros((0,)), np.zeros((2, 1))):
        with pytest.raises(ContractError, match="size-1"):
            Tensor(values).item()


def _one_of_each_primitive(x, y):
    """One call of every primitive on (3, 4) operands; ``x`` is positive."""
    mask = np.array([[True, False, False, True]] * 3)
    return [
        T.add(x, y), T.sub(x, y), T.mul(x, y), T.div(y, x),
        T.matmul(x, T.transpose(y, (1, 0))), T.matmul(x, y, transpose_a=True),
        T.matmul(y, x, transpose_b=True), T.transpose(x, (1, 0)),
        T.reshape(x, (4, 3)), T.concat([x, y], axis=1), T.slice_axis(y, 1, 1, 3),
        T.reduce_sum(y, axis=0), T.reduce_mean(y), T.gelu(y), T.layer_norm(y),
        T.layer_norm(y, 1e-3, T.slice_axis(x, 0, 0, 1), y.values[1]),
        T.linear(x, T.transpose(y, (1, 0)), y.values[:, 0]),
        T.linear(x.values, T.transpose(y, (1, 0)), T.slice_axis(x, 1, 0, 3)),
        T.attention(T.reshape(x, (1, 3, 4)), T.reshape(y, (1, 3, 4)), T.reshape(x, (1, 3, 4)),
                    mask[:1, :3], 2, 0.5),
        T.log_softmax_pick(y, [0, 3, 1]), T.log_softmax_pick(y, [2, 2, 0], [0.5, 0.0, 0.5]),
    ]


def test_paused_primitives_record_nothing_and_return_equal_bits():
    r = np.random.default_rng(5)
    x = Tensor(r.random((3, 4)) + 0.5)
    y = Tensor(r.standard_normal((3, 4)))
    with Tape() as tape:
        recorded = _one_of_each_primitive(x, y)
        count = len(tape.nodes)
    # the closed tape has released its nodes and gains none
    quiet = _one_of_each_primitive(x, y)
    assert count > 0 and len(tape.nodes) == 0
    assert all(t.node is not None for t in recorded)
    assert all(t.node is None for t in quiet)
    for a, b in zip(recorded, quiet):
        assert a.shape == b.shape and a.values.tobytes() == b.values.tobytes()


def test_recording_resumes_after_nested_pause_and_after_an_exception():
    x = Tensor([1.0, 2.0])
    with Tape() as tape:
        with pytest.raises(ShapeError):
            T.add(x, Tensor([1.0, 2.0, 3.0]))
        assert T.mul(x, x).node.tape is tape
        with pytest.raises(RuntimeError):
            with Tape() as inner:
                assert T.mul(x, x).node.tape is inner
                raise RuntimeError("inside an inner tape")
        y = T.reduce_sum(T.mul(x, x))
        assert y.node is not None and y.node.tape is tape
        np.testing.assert_array_equal(grad(y, x).values, [2.0, 4.0])
        assert T.mul(x, x).node.tape is tape  # recording goes on around grad
    assert T.mul(x, x).node is None  # no tape is open


def _full_prefix_grad(output, targets, create_graph=False):
    """grad's replay with the reachability scan started at node 0 and every
    adjoint kept until the end (the reference): a recording replay of a
    Tensor seed, or an array replay whose results are wrapped at the end."""
    node = output.node
    reachable = {T._key(t) for t in targets}
    needed = []
    for n in node.tape.nodes[: node.idx + 1]:
        if any(inp in reachable for inp in n.inputs):
            reachable.add(n)
            needed.append(n)
    seed = np.ones(output.shape)
    adjoints = {node: Tensor(seed) if create_graph else seed}
    for n in reversed(needed):
        g_out = adjoints.get(n)
        if g_out is None:
            continue
        for inp, contrib in zip(n.inputs, n.vjp(g_out)):
            if contrib is None or inp not in reachable:
                continue
            held = adjoints.get(inp)
            if held is not None:
                contrib = T.add(held, contrib) if create_graph else held + contrib
            adjoints[inp] = contrib
    grads = [adjoints[T._key(t)] for t in targets]
    return grads if create_graph else [Tensor(g) for g in grads]


def _small_net(r):
    w = Tensor(r.standard_normal((4, 3)))
    x = Tensor(r.standard_normal((5, 4)))
    h0 = T.gelu(T.matmul(x, w))
    h1 = T.layer_norm(T.add(h0, 1.0))
    h2 = T.gelu(T.mul(h1, h0))
    return w, x, h0, h1, h2, T.reduce_mean(T.mul(h2, h1))


def _bits(tensors):
    return [t.values.tobytes() for t in tensors]


def test_grad_of_mid_tape_targets_equals_full_prefix_scan():
    # also the adjoint release: h1 and h0 are read by other targets' nodes,
    # and the output itself may be a target
    with Tape():
        w, x, h0, h1, h2, loss = _small_net(np.random.default_rng(11))
        assert 0 < h0.node.idx < h1.node.idx < h2.node.idx
        for targets in ([h1], [h2, h1], [h1, h0], [w, h1], [h1, x, w], [h0, h2], [h1, loss, w]):
            assert _bits(grad(loss, targets)) == _bits(_full_prefix_grad(loss, targets))


@pytest.mark.parametrize("shape", [(3, 4), (2, 3, 4), (2, 2, 3, 5)])
def test_swapping_the_last_two_axes_and_its_vjp_equal_swapaxes(shape):
    r = np.random.default_rng(4)
    a = r.standard_normal(shape)
    w = r.standard_normal(shape[:-2] + (shape[-1], shape[-2]))
    ndim = len(shape)
    with Tape():
        t = Tensor(a)
        out = T.transpose(t, tuple(range(ndim - 2)) + (ndim - 1, ndim - 2))
        g = grad(T.reduce_sum(T.mul(out, Tensor(w))), t)
    assert out.values.tobytes() == a.swapaxes(-1, -2).tobytes()
    assert g.shape == shape and g.values.tobytes() == w.swapaxes(-1, -2).tobytes()


def test_adjoint_release_keeps_recorded_intermediate_targets():
    # as in inner step 2 or later: the targets are outputs of earlier steps
    r = np.random.default_rng(21)
    with Tape():
        w = Tensor(r.standard_normal((4, 3)))
        x = Tensor(r.standard_normal((5, 4)))
        w1 = T.sub(w, T.mul(grad(T.reduce_sum(T.gelu(T.matmul(x, w))), w, create_graph=True), 0.1))
        w2 = T.sub(w1, T.mul(grad(T.reduce_sum(T.gelu(T.matmul(x, w1))), w1, create_graph=True), 0.1))
        loss = T.reduce_mean(T.gelu(T.matmul(x, w2)))
        assert w1.node is not None and w2.node is not None
        for targets in ([w2], [w1, w2], [w2, w1, w]):
            assert _bits(grad(loss, targets)) == _bits(_full_prefix_grad(loss, targets))


def test_adjoint_release_under_create_graph_then_a_second_grad():
    results = []
    for reference in (False, True):
        with Tape():
            w, x, h0, h1, h2, loss = _small_net(np.random.default_rng(24))
            if reference:
                gw, gh = _full_prefix_grad(loss, [w, h0], create_graph=True)
            else:
                gw, gh = grad(loss, [w, h0], create_graph=True)
            second = grad(T.add(T.reduce_sum(T.mul(gw, gw)), T.reduce_sum(gh)), [w, x])
        results.append(_bits([gw, gh] + second))
    assert results[0] == results[1]


@pytest.mark.parametrize(
    "values, axes",
    [([1.0, 2.0], (3,)), ([1.0, 2.0], (0, 0)), ([1.0, 2.0], (0, 1)), (3.0, (0, 1, 2)), (3.0, (0,))],
    ids=["1d-axis-3", "1d-repeated", "1d-two-axes", "0d-three-axes", "0d-one-axis"],
)
def test_transpose_below_2d_rejects_bad_axes(values, axes):
    with pytest.raises(ShapeError, match="not a permutation"):
        T.transpose(Tensor(values), axes)


@pytest.mark.parametrize(
    "values, axes",
    [([1.0, 2.0], [0]), ([1.0, 2.0], (0,)), ([1.0, 2.0], (-1,)), (3.0, []), (3.0, ())],
)
def test_transpose_below_2d_identity_axes_return_the_input(values, axes):
    t = Tensor(values)
    assert T.transpose(t, axes) is t


def _gelu_layer_norm_loss(r):
    x = Tensor(r.standard_normal((5, 4)))
    c = Tensor(r.standard_normal((5, 3)))

    def loss(w):
        return T.reduce_mean(T.mul(T.layer_norm(T.gelu(T.matmul(x, w))), c))

    return loss


def test_paused_grad_then_second_order_grad_equals_a_fresh_tape():
    # a slope built by an array replay is not kept: the create_graph grad
    # that follows records its own, so the second derivative keeps gelu's
    # curvature; an array replay after it reuses the recorded slope
    results = []
    for paused_first in (False, True):
        r = np.random.default_rng(35)
        loss_of = _gelu_layer_norm_loss(r)
        with Tape():
            w = Tensor(r.standard_normal((4, 3)))
            loss = loss_of(w)
            first = [grad(loss, w)] if paused_first else []
            gw = grad(loss, w, create_graph=True)
            again = grad(loss, w)
            second = grad(T.reduce_sum(T.mul(gw, gw)), w)
        if paused_first:
            assert _bits(first) == _bits([again])
        results.append(_bits([gw, again, second]))
    assert results[0] == results[1]


@pytest.mark.parametrize("name", ["gelu", "layer_norm"])
def test_a_third_derivative_through_gelu_or_layer_norm_is_a_contract_error(name):
    # a second-order gradient replays the recorded slope or layer_norm
    # gradient on arrays; differentiating it once more would replay them recording
    r = np.random.default_rng(36)
    x, c = Tensor(r.standard_normal((5, 4))), Tensor(r.standard_normal((5, 3)))
    with Tape():
        w = Tensor(r.standard_normal((4, 3)))
        g = grad(T.reduce_mean(T.mul(getattr(T, name)(T.matmul(x, w)), c)), w, create_graph=True)
        norm = T.reduce_sum(T.mul(g, g))
        assert np.all(np.isfinite(grad(norm, w).values))
        with pytest.raises(ContractError, match=f"third derivative through {name}"):
            grad(norm, w, create_graph=True)


def test_fan_in_sums_equal_full_prefix_scan_and_spare_returned_adjoints():
    # x and h each take three contributions.  h's first one is a view of v's
    # summed adjoint (reshape) and x's first one is h's adjoint itself (add),
    # so a sum into either would change a gradient already returned.
    r = np.random.default_rng(41)
    with Tape():
        x = Tensor(r.standard_normal((3, 4)))
        e = T.gelu(x)
        m = T.mul(x, 2.0)
        h = T.add(x, 1.0)
        j = T.sub(h, 0.5)
        k = T.mul(h, 3.0)
        v = T.reshape(h, (4, 3))
        rest = T.reshape(T.mul(T.add(j, k), T.add(e, m)), (4, 3))
        loss = T.reduce_sum(T.add(T.mul(v, v), rest))
        for targets in ([v, h, x], [x, h], [h, v], [x], [loss, v, x]):
            assert _bits(grad(loss, targets)) == _bits(_full_prefix_grad(loss, targets))


# --- the fused attention and cross-entropy ops ------------------------------


def _heads_np(x, batch, num_heads):
    return x.reshape(batch, -1, num_heads, x.shape[-1] // num_heads).transpose(0, 2, 1, 3)


def _merge_heads_np(x, shape):
    return x.transpose(0, 2, 1, 3).reshape(shape)


def _attention_reference(q, k, v, key_mask, g, num_heads, scale):
    """``T.attention``'s output and the gradients of sum(out * g) in q, k and v,
    in NumPy with the float ops of the primitive chain it replaces: head
    split, q k^T, scale, a -1e30 fill of masked keys, softmax, context."""
    mask = key_mask.reshape(-1, key_mask.shape[-1])
    qh, kh, vh, gc = (_heads_np(a, mask.shape[0], num_heads) for a in (q, k, v, g))
    keep = mask[:, None, None, :]
    w = kernels.softmax_rows(np.where(keep, (qh @ kh.swapaxes(-1, -2)) * scale, -1e30))
    gw = gc @ vh.swapaxes(-1, -2)
    gs = w * (gw - (gw * w).sum(axis=-1, keepdims=True)) * keep.astype(np.float64) * scale
    return [_merge_heads_np(w @ vh, q.shape), _merge_heads_np(gs @ kh, q.shape),
            _merge_heads_np(gs.swapaxes(-1, -2) @ qh, k.shape),
            _merge_heads_np(w.swapaxes(-1, -2) @ gc, v.shape)]


def _log_softmax_pick_reference(x, labels, weights, g):
    """``T.log_softmax_pick``'s output and the gradient of sum(out * g), in
    NumPy with the float ops of the primitive chain it replaces: shift by the
    row max, exp, row sum, log, subtract, pick the label, weight."""
    onehot = np.eye(x.shape[-1])[labels]
    z = x - x.max(axis=-1, keepdims=True)
    e = np.exp(z)
    sums = e.sum(axis=-1, keepdims=True)
    picked = ((z - np.log(sums)) * onehot).sum(axis=-1)
    g_lp = (g if weights is None else g * weights)[..., None] * onehot
    g_norm = (g_lp * -1.0).sum(axis=-1, keepdims=True)
    return [picked if weights is None else picked * weights, g_lp + g_norm / sums * e]


# (query rows shape, key rows shape, key mask): self-attention with a masked
# key, cross-attention with Tq != Tk, and stacked [n, B*T, E] rows
_ATTENTION_CASES = {
    "masked_key": ((2, 3, 4), (2, 3, 4), np.array([[True, True, False], [True, True, True]])),
    "cross": ((2, 2, 4), (2, 4, 4), np.array([[True, False, True, True], [True, True, True, True]])),
    "stacked": ((2, 6, 4), (2, 6, 4), np.array([[[True, True, True], [True, False, True]],
                                                [[True, True, False], [True, True, True]]])),
}


def _attention_loss(case, plain=False):
    """A loss through layer norm, projections, attention, pooling, gelu and
    cross-entropy of tensors [x, wq, wk, wv, wc], then the keys' rows when
    they are not the normed x.  ``plain`` leaves out the layer norm and the
    gelu, whose adjoint ops take no third derivative."""
    q_shape, k_shape, mask = _ATTENTION_CASES[case]
    shapes = [q_shape, (4, 4), (4, 4), (4, 4), (4, 3)] + ([k_shape] if case == "cross" else [])
    r = np.random.default_rng(sum(map(ord, case)))
    stacked = mask.ndim == 3
    labels = r.integers(0, 3, size=mask.shape[:2] if stacked else q_shape[:1])
    live = np.array([[True, True], [True, False]]) if stacked else None

    def loss(ts):
        x, wq, wk, wv, wc = ts[:5]
        h = x if plain else T.layer_norm(x)
        kv = ts[5] if case == "cross" else h
        out = T.attention(T.matmul(h, wq), T.matmul(kv, wk), T.matmul(kv, wv), mask, 2, 0.7)
        if stacked:
            out = T.reshape(out, mask.shape + (4,))
        pooled = T.reduce_mean(out, axis=-2)
        logits = T.matmul(pooled if plain else T.gelu(pooled), wc)
        losses = nn.cross_entropy(logits, labels, live)
        return losses if live is None else T.reduce_sum(losses)

    return loss, shapes


def _fused_op_case(case, r):
    """Input arrays, an upstream gradient, the fused op as a function of
    tensors of the arrays, and its NumPy reference."""
    if case in _ATTENTION_CASES:
        q_shape, k_shape, mask = _ATTENTION_CASES[case]
        arrays = [r.standard_normal(s) for s in (q_shape, k_shape, k_shape)]
        g = r.standard_normal(q_shape)
        return (arrays, g, lambda ts: T.attention(*ts, mask, 2, 0.7),
                _attention_reference(*arrays, mask, g, 2, 0.7))
    x, labels, g = r.standard_normal((2, 3, 5)), r.integers(0, 5, size=(2, 3)), r.standard_normal((2, 3))
    weights = None if case == "log_softmax_pick" else np.array([[0.5, 0.0, 0.5], [0.25, 0.5, 0.25]])
    return ([x], g, lambda ts: T.log_softmax_pick(ts[0], labels, weights),
            _log_softmax_pick_reference(x, labels, weights, g))


@pytest.mark.parametrize("case", [*sorted(_ATTENTION_CASES), "log_softmax_pick",
                                  "log_softmax_pick_weighted"])
@pytest.mark.parametrize("create_graph", [False, True])
def test_fused_attention_and_cross_entropy_gradients_equal_the_primitive_chain_bits(case, create_graph):
    # both replays of each fused op: an array one runs its NumPy adjoint, a
    # recording one its primitives; each must keep the chain's float ops
    arrays, g, fused, expected = _fused_op_case(case, np.random.default_rng(7))
    with Tape():
        ts = [Tensor(a) for a in arrays]
        out = fused(ts)
        got = [out] + grad(T.reduce_sum(T.mul(out, g)), ts, create_graph=create_graph)
        assert _bits(got) == [a.tobytes() for a in expected]


@pytest.mark.parametrize("case", sorted(_ATTENTION_CASES))
def test_second_order_through_fused_attention_and_cross_entropy_matches_finite_differences(case):
    loss, shapes = _attention_loss(case)
    _check_hvp(loss, shapes, seed=51)


@pytest.mark.parametrize("case", ["masked_key", "stacked"])
def test_third_order_through_fused_attention_and_cross_entropy_matches_finite_differences(case):
    # the HVP of a squared gradient norm replays the recorded weights and
    # shifted-exp ops while recording
    inner, shapes = _attention_loss(case, plain=True)

    def loss(ts):
        gs = grad(inner(ts), ts, create_graph=True)
        total = T.reduce_sum(T.mul(gs[0], gs[0]))
        for g in gs[1:]:
            total = T.add(total, T.reduce_sum(T.mul(g, g)))
        return total

    _check_hvp(loss, shapes, seed=52)


@pytest.mark.parametrize("live", [None, np.array([[True, True, False], [True, True, True]])])
def test_cross_entropy_op_second_and_third_order_match_finite_differences(live):
    labels = np.array([[2, 0, 1], [1, 1, 3]])

    def inner(ts):
        loss = nn.cross_entropy(T.matmul(ts[0], ts[1]), labels, live)
        return loss if live is None else T.reduce_sum(loss)

    def third(ts):
        gs = grad(inner(ts), ts, create_graph=True)
        return T.add(T.reduce_sum(T.mul(gs[0], gs[0])), T.reduce_sum(T.mul(gs[1], gs[1])))

    _check_hvp(inner, [(2, 3, 5), (5, 4)], seed=53)
    _check_hvp(third, [(2, 3, 5), (5, 4)], seed=54)


def _linear_cube_loss(ts):
    h = T.linear(*ts)
    return T.reduce_mean(T.mul(T.mul(h, h), h))


def test_paused_and_recording_replays_of_a_second_order_tape_give_equal_bits():
    # an array replay runs the NumPy adjoint of each fused op (attention,
    # log_softmax_pick, linear, and the outer gelu and layer_norm)
    # and adjoint op (attention's weights, the shifted exps); a recording
    # replay runs their primitive chains.  The inner losses leave out gelu
    # and layer_norm, whose adjoint ops take array adjoints only.
    stacked = _LINEAR_NORM_CASES["stacked"]
    for inner, shapes in (_attention_loss("stacked", plain=True),
                          (_linear_cube_loss, [stacked[name] for name in ("x", "w1", "b1")])):
        r = np.random.default_rng(55)
        with Tape():
            ts = [Tensor(r.standard_normal(s)) for s in shapes]
            gs = grad(inner(ts), ts, create_graph=True)
            g0 = T.layer_norm(gs[1])
            total = T.reduce_sum(T.mul(g0, T.gelu(gs[2])))
            for g in [gs[0], *gs[3:]]:
                total = T.add(total, T.reduce_sum(T.mul(g, g)))
            assert _bits(grad(total, ts)) == _bits(grad(total, ts, create_graph=True))


def test_fused_ops_reject_shapes_that_do_not_fit():
    q = Tensor(np.zeros((2, 3, 4)))
    with pytest.raises(ShapeError, match="attention"):
        T.attention(q, q, Tensor(np.zeros((2, 3, 2))), np.ones((2, 3), bool), 2, 1.0)
    with pytest.raises(ShapeError, match="attention"):
        T.attention(q, q, q, np.ones((2, 4), bool), 2, 1.0)
    with pytest.raises(ShapeError, match="attention"):
        T.attention(q, q, q, np.ones((2, 3), bool), 3, 1.0)
    with pytest.raises(ShapeError, match="linear: inner dimensions"):
        T.linear(q, Tensor(np.zeros((3, 4))), np.zeros(4))
    with pytest.raises(ShapeError, match="linear: bias"):
        T.linear(q, Tensor(np.zeros((4, 5))), np.zeros(4))
    with pytest.raises(ShapeError, match="layer_norm: gain and bias"):
        T.layer_norm(q, gain=np.ones(3))
    with pytest.raises(ShapeError, match="layer_norm: gain and bias"):
        T.layer_norm(q, gain=np.ones(4), bias=np.zeros((2, 2, 4)))
    logits = Tensor(np.zeros((3, 4)))
    with pytest.raises(ShapeError, match="log_softmax_pick"):
        T.log_softmax_pick(logits, [0, 1])
    with pytest.raises(ContractError, match="out of range"):
        T.log_softmax_pick(logits, [0, 4, 1])
    with pytest.raises(ContractError, match="out of range"):
        T.log_softmax_pick(logits, [0, -1, 1])


# --- the fused linear and affine layer_norm ops ------------------------------


def _affine_norm_chain(a, gain, bias):
    """The primitive chain that an affine ``T.layer_norm`` replaces (the reference)."""
    return T.add(T.mul(T.layer_norm(a), gain), bias)


def _fused_affine_norm(a, gain, bias):
    return T.layer_norm(a, gain=gain, bias=bias)


def _linear_chain(x, w, b):
    """The primitive chain that ``T.linear`` replaces (the reference)."""
    return T.add(T.matmul(x, w), b)


# input shapes: rows against plain weights, and stacked tasks with task-axis
# weights [n, in, out] and vectors [n, 1, d]
_LINEAR_NORM_CASES = {
    "rows": {"x": (2, 3, 4), "w1": (4, 5), "b1": (5,), "gain": (5,), "bias": (5,),
             "w2": (5, 3), "b2": (3,)},
    "stacked": {"x": (2, 6, 4), "w1": (2, 4, 5), "b1": (2, 1, 5), "gain": (2, 1, 5),
                "bias": (2, 1, 5), "w2": (2, 5, 3), "b2": (2, 1, 3)},
}


def _linear_norm_loss(case, constants=(), linear=T.linear, affine_norm=_fused_affine_norm):
    """A loss through linear, affine layer norm, gelu and linear of the
    tensors named in the case, in order; the names in ``constants`` enter as
    fixed arrays instead (no gradient).  Returns (loss, tensor shapes)."""
    shapes = _LINEAR_NORM_CASES[case]
    r = np.random.default_rng(sum(map(ord, case)))
    # a constant gain is centred on 1, like the trained ones
    fixed = {name: r.standard_normal(shapes[name]) + (name == "gain") for name in constants}
    names = [name for name in shapes if name not in fixed]
    target = r.standard_normal(shapes["x"][:-1] + shapes["w2"][-1:])

    def loss(ts):
        p = {**fixed, **dict(zip(names, ts))}
        h = T.gelu(affine_norm(linear(p["x"], p["w1"], p["b1"]), p["gain"], p["bias"]))
        diff = T.sub(linear(h, p["w2"], p["b2"]), target)
        return T.reduce_mean(T.mul(diff, diff))

    return loss, [shapes[name] for name in names]


_LINEAR_NORM_VARIANTS = [("rows", ()), ("stacked", ()), ("rows", ("x", "gain")),
                         ("stacked", ("x", "bias", "b2"))]


@pytest.mark.parametrize("case, constants", _LINEAR_NORM_VARIANTS)
@pytest.mark.parametrize("create_graph", [False, True])
def test_fused_linear_and_affine_layer_norm_first_order_bits_equal_the_primitive_chain(
        case, constants, create_graph):
    fused, shapes = _linear_norm_loss(case, constants)
    chain, _ = _linear_norm_loss(case, constants, _linear_chain, _affine_norm_chain)
    r = np.random.default_rng(8)
    arrays = [r.standard_normal(s) for s in shapes]
    results, forward_nodes = [], []
    for loss in (fused, chain):
        with Tape() as tape:
            ts = [Tensor(a) for a in arrays]
            value = loss(ts)
            forward_nodes.append(len(tape.nodes))
            results.append(_bits([value] + grad(value, ts, create_graph=create_graph)))
    assert results[0] == results[1]
    # two linear nodes and one affine norm node replace two matmul/add pairs
    # and a layer_norm/mul/add chain
    assert forward_nodes[1] - forward_nodes[0] == 4


@pytest.mark.parametrize("case, constants", _LINEAR_NORM_VARIANTS)
def test_linear_and_affine_layer_norm_gradients_match_finite_differences(case, constants):
    loss, shapes = _linear_norm_loss(case, constants)
    r = np.random.default_rng(61)
    _gradcheck(loss, [r.standard_normal(s) for s in shapes])


@pytest.mark.parametrize("case, constants", _LINEAR_NORM_VARIANTS)
def test_second_order_through_linear_and_affine_layer_norm_matches_finite_differences(
        case, constants):
    # the gain's gradient reads the normalized rows, which depend on the
    # norm's input: a recording replay must read them through an op of it
    loss, shapes = _linear_norm_loss(case, constants)
    _check_hvp(loss, shapes, seed=62)


def _squared_gradient_norm(inner):
    def loss(ts):
        gs = grad(inner(ts), ts, create_graph=True)
        total = T.reduce_sum(T.mul(gs[0], gs[0]))
        for g in gs[1:]:
            total = T.add(total, T.reduce_sum(T.mul(g, g)))
        return total

    return loss


@pytest.mark.parametrize("case", sorted(_LINEAR_NORM_CASES))
def test_third_order_through_linear_matches_finite_differences(case):
    # the HVP of a squared gradient norm replays the recorded linear adjoint
    # while recording
    shapes = [_LINEAR_NORM_CASES[case][name] for name in ("x", "w1", "b1")]
    _check_hvp(_squared_gradient_norm(_linear_cube_loss), shapes, seed=63)


@pytest.mark.parametrize("case", sorted(_LINEAR_NORM_CASES))
def test_a_third_derivative_through_linear_and_affine_layer_norm_is_a_contract_error(case):
    # the affine norm's gradient replays _normalized and _layer_norm_grad,
    # whose adjoints take array adjoints only
    inner, shapes = _linear_norm_loss(case)
    r = np.random.default_rng(63)
    with Tape():
        ts = [Tensor(r.standard_normal(s)) for s in shapes]
        norm = _squared_gradient_norm(inner)(ts)
        assert all(np.all(np.isfinite(g.values)) for g in grad(norm, ts))
        with pytest.raises(ContractError, match="third derivative through (gelu|layer_norm)"):
            grad(norm, ts, create_graph=True)


@pytest.mark.parametrize("shape", [(3, 4), (2, 5, 16), (2, 6, 32), (1, 7)])
def test_layer_norm_keeps_the_inv_its_first_replay_used_to_recompute(shape, monkeypatch):
    # the node takes 1 / sqrt(var + eps) from its forward's variance; it must
    # have the bits that a replay recomputed from the input before
    r = np.random.default_rng(sum(shape))
    x = r.standard_normal(shape) * 3.0 + 1e3 * r.standard_normal(shape[-1:])
    kept = []
    adjoint = T._layer_norm_grad

    def spy(g, a, out, inv):
        kept.append(inv)
        return adjoint(g, a, out, inv)

    monkeypatch.setattr(T, "_layer_norm_grad", spy)
    for eps in (1e-5, 1e-2):
        with Tape():
            a = Tensor(x)
            grad(T.reduce_sum(T.layer_norm(a, eps, gain=np.full(shape[-1], 2.0))), a)
        centered = x - x.mean(axis=-1, keepdims=True)
        recomputed = (np.mean(centered * centered, axis=-1, keepdims=True) + eps) ** -0.5
        assert kept.pop().tobytes() == recomputed.tobytes()


def test_gelu_slope_reads_the_forward_tanh():
    r = np.random.default_rng(64)
    x = r.standard_normal((4, 6)) * 3.0
    inner = T.SQRT_2_OVER_PI * (x + T.GELU_CUBIC * x * x * x)
    with Tape():
        a = Tensor(x)
        g = grad(T.reduce_sum(T.gelu(a)), a)
    t = np.tanh(inner)
    dinner = (x * x * (3.0 * T.GELU_CUBIC) + 1.0) * T.SQRT_2_OVER_PI
    expected = (t + 1.0) * 0.5 + x * 0.5 * (1.0 - t * t) * dinner
    assert g.values.tobytes() == expected.tobytes()


def _documented(label):
    """The comma-separated names after ``label`` in the module docstring."""
    doc = " ".join(T.__doc__.split())
    listed = re.search(re.escape(label) + r" ([^.]*)\.", doc).group(1)
    return {name.strip() for name in listed.split(",")}


def test_every_recording_function_is_named_in_the_module_docstring():
    # a fused op or adjoint op left out of the docstring's lists is one that
    # tools counting the documented set (perfbench's tracer) cannot see; an
    # adjoint op records through _adjoint_op
    recorders = set()
    for node in ast.parse(inspect.getsource(T)).body:
        if isinstance(node, ast.FunctionDef) and node.name not in {"_record", "_adjoint_op"}:
            calls = {c.func.id for c in ast.walk(node)
                     if isinstance(c, ast.Call) and isinstance(c.func, ast.Name)}
            if calls & {"_record", "_adjoint_op"}:
                recorders.add(node.name)
    primitives = _documented("The primitive set is fixed:")
    adjoint_ops = _documented("Adjoint ops:")
    assert recorders == primitives | adjoint_ops
    assert all(not name.startswith("_") for name in primitives)
    assert all(name.startswith("_") for name in adjoint_ops)


def test_every_documented_primitive_is_called_outside_its_own_definition():
    # a primitive that no pipeline module calls as T.<name> and no other
    # function of fsml.tensor calls (by name, or as ops.<name> in an adjoint
    # rule) is dead code that its tests keep alive
    def attribute_calls(tree, owner):
        return {c.func.attr for c in ast.walk(tree) if isinstance(c, ast.Call)
                and isinstance(c.func, ast.Attribute)
                and isinstance(c.func.value, ast.Name) and c.func.value.id == owner}

    called = set()
    for path in Path(T.__file__).parent.glob("*.py"):
        tree = ast.parse(path.read_text())
        if path.name != "tensor.py":
            called |= attribute_calls(tree, "T")
            continue
        for node in tree.body:
            if isinstance(node, ast.FunctionDef):
                names = attribute_calls(node, "ops") | {
                    c.func.id for c in ast.walk(node)
                    if isinstance(c, ast.Call) and isinstance(c.func, ast.Name)}
                called |= names - {node.name}
    assert sorted(_documented("The primitive set is fixed:") - called) == []


# --- in-place NumPy: each rewrite keeps the float ops of the expression it ---
# --- replaced, which the references below keep verbatim --------------------

# a 1-wide row, the MAE and fine-tune activations, and a wide hidden layer
_ROW_SHAPES = [(9, 1), (640, 16), (3750, 16), (2000, 32)]


def _shape_id(shape):
    return "x".join(map(str, shape))


def _unchanged(arrays):
    """Copies of ``arrays``, compared by ``_bits`` after a call: no rewrite may
    write into an input, a kept array or a gradient it was handed."""
    return [a.copy() for a in arrays]


def _array_bits(arrays):
    return [np.asarray(a).tobytes() for a in arrays]


def _slope_reference(x, t):
    dinner = (x * x * (3.0 * GELU_CUBIC) + 1.0) * SQRT_2_OVER_PI
    return (t + 1.0) * 0.5 + x * 0.5 * (1.0 - t * t) * dinner


def _layer_norm_grad_reference(gv, y, hv, inv, n):
    """_layer_norm_grad's value and its array adjoint's g_a and g_out."""
    gy_mean = (gv * y).mean(axis=-1, keepdims=True)
    result = inv * ((gv - gv.mean(axis=-1, keepdims=True)) - y * gy_mean)
    hy = (hv * y).mean(axis=-1, keepdims=True)
    g_out = (inv * -1.0) * (hv * gy_mean + gv * hy)
    g_a = (y * (inv / -n)) * (hv * result).sum(axis=-1, keepdims=True)
    return result, g_a, g_out


@pytest.mark.parametrize("shape", _ROW_SHAPES, ids=_shape_id)
def test_gelu_slope_bits_equal_the_expression_it_replaces(shape):
    r = np.random.default_rng(71)
    x = r.standard_normal(shape) * 3.0
    t = np.empty(shape)
    kernels.gelu(x, t)
    kept = _unchanged([x, t])
    assert T._gelu_slope(Tensor(x), t).values.tobytes() == _slope_reference(x, t).tobytes()
    assert _array_bits([x, t]) == _array_bits(kept)


@pytest.mark.parametrize("shape", _ROW_SHAPES + [(4, 3, 16)], ids=_shape_id)
def test_layer_norm_grad_and_its_paused_adjoint_bits_equal_the_expressions_they_replace(shape):
    r = np.random.default_rng(72)
    x, gv, hv = (r.standard_normal(shape) * 2.0 for _ in range(3))
    var = np.empty(shape[:-1] + (1,))
    y = kernels.layer_norm_rows(x, 1e-5, var)
    inv = (var + 1e-5) ** -0.5
    kept = _unchanged([x, gv, hv, y, inv])
    with Tape():
        result = T._layer_norm_grad(Tensor(gv), Tensor(x), Tensor(y), inv)
        _, g_a, g_out = result.node.vjp(hv)
    expected = _layer_norm_grad_reference(gv, y, hv, inv, shape[-1])
    assert _bits([result]) + _array_bits([g_a, g_out]) == _array_bits(expected)
    assert _array_bits([x, gv, hv, y, inv]) == _array_bits(kept)


@pytest.mark.parametrize("shape", _ROW_SHAPES, ids=_shape_id)
def test_linear_and_affine_layer_norm_forward_bits_equal_the_expressions_they_replace(shape):
    r = np.random.default_rng(73)
    n = shape[-1]
    x, w, b = r.standard_normal(shape), r.standard_normal((n, n)), r.standard_normal(n)
    gain, bias = r.standard_normal(n) + 1.0, r.standard_normal(n)
    kept = _unchanged([x, w, b, gain, bias])
    assert T.linear(x, w, b).values.tobytes() == (x @ w + b).tobytes()
    with Tape():
        a, g = Tensor(x), Tensor(gain)
        out = T.layer_norm(a, 1e-5, g, bias)
        # the gain's gradient reads the kept normed rows, which the bias
        # must not have been added into
        d_gain = grad(T.reduce_sum(out), g)
    normed = kernels.layer_norm_rows(x, 1e-5)
    assert out.values.tobytes() == (normed * gain + bias).tobytes()
    assert d_gain.values.tobytes() == normed.sum(axis=0).tobytes()
    assert _array_bits([x, w, b, gain, bias]) == _array_bits(kept)


def test_linear_keeps_a_bias_that_grows_the_product_out_of_place():
    r = np.random.default_rng(74)
    x, w, b = r.standard_normal((4, 8)), r.standard_normal((8, 3)), r.standard_normal((2, 1, 3))
    with Tape():
        tx, tb = Tensor(x), Tensor(b)
        out = T.linear(tx, w, tb)
        gx, gb = grad(T.reduce_sum(out), [tx, tb])
    assert out.values.tobytes() == (x @ w + b).tobytes()
    assert gx.shape == x.shape and gb.values.tobytes() == np.full(b.shape, 4.0).tobytes()


def _attention_forward_and_array_adjoint_reference(q, k, v, key_mask, num_heads, scale, g):
    mask = key_mask.reshape(-1, key_mask.shape[-1])
    batch = mask.shape[0]
    qh, kh, vh = (_heads_np(t, batch, num_heads) for t in (q, k, v))
    blocked = ~mask[:, None, None, :]
    scores = np.where(blocked, -1e30, (qh @ kh.swapaxes(-1, -2)) * scale)
    w = kernels.softmax_rows(scores)
    out = _merge_heads_np(w @ vh, q.shape)
    keep = mask[:, None, None, :].astype(np.float64)
    gc = _heads_np(g, batch, num_heads)
    gw = gc @ vh.swapaxes(-1, -2)
    gv = _merge_heads_np(w.swapaxes(-1, -2) @ gc, v.shape)
    gs = w * (gw - (gw * w).sum(axis=-1, keepdims=True)) * keep * scale
    gq = _merge_heads_np(gs @ kh, q.shape)
    gk = _merge_heads_np(gs.swapaxes(-1, -2) @ qh, k.shape)
    return out, gq, gk, gv


@pytest.mark.parametrize("stacked", [False, True], ids=["rows", "stacked"])
def test_attention_and_its_paused_adjoint_bits_equal_the_expressions_they_replace(stacked):
    # [B, heads, Tq, Tk] = [6, 2, 9, 11] scores, about a third of the keys
    # masked to -1e30; stacked rows are [n, B*T, E] with a [n, B, Tk] mask
    r = np.random.default_rng(75)
    live = r.random((6, 11)) < 0.7
    live[:, 0] = True
    q, g = r.standard_normal((6, 9, 16)), r.standard_normal((6, 9, 16))
    k, v = r.standard_normal((6, 11, 16)), r.standard_normal((6, 11, 16))
    if stacked:
        q, g, k, v = (a.reshape(2, -1, 16) for a in (q, g, k, v))
        live = live.reshape(2, 3, 11)
    kept = _unchanged([q, k, v, g])
    with Tape():
        out = T.attention(Tensor(q), Tensor(k), Tensor(v), live, 2, 0.25)
        grads = out.node.vjp(g)
    expected = _attention_forward_and_array_adjoint_reference(q, k, v, live, 2, 0.25, g)
    assert _bits([out]) + _array_bits(grads) == _array_bits(expected)
    assert _array_bits([q, k, v, g]) == _array_bits(kept)


@pytest.mark.parametrize("weighted", [False, True])
@pytest.mark.parametrize("shape", [(640, 1), (640, 16), (3750, 16)], ids=_shape_id)
def test_log_softmax_pick_bits_equal_the_expression_it_replaces(shape, weighted):
    r = np.random.default_rng(76)
    x = r.standard_normal(shape) * 4.0
    labels = r.integers(0, shape[-1], size=shape[:-1])
    weights = r.random(shape[:-1]) if weighted else None
    onehot = np.eye(shape[-1])[labels]
    z = x - x.max(axis=-1, keepdims=True)
    e = np.exp(z)
    sums = e.sum(axis=-1, keepdims=True)
    picked = ((z - np.log(sums)) * onehot).sum(axis=-1)
    expected = picked if weights is None else picked * weights
    kept = _unchanged([x])
    assert T.log_softmax_pick(x, labels, weights).values.tobytes() == expected.tobytes()
    assert _array_bits([x]) == _array_bits(kept)


# --- shape glue: an array replay runs it on arrays, a recording one -------
# --- through primitives, with the same NumPy calls in the same order ------


def _glue_both_ways(monkeypatch, glue, g):
    """``glue(g)`` recording on a tape, then ``glue`` of g's array on the same
    open tape, with the primitives it would call replaced by ones that fail:
    the two results' shapes and bits."""
    with Tape() as tape:
        recorded = glue(g)
        assert tape.nodes and recorded.node is not None
        with monkeypatch.context() as patch:
            for name in ("reduce_sum", "reshape", "mul"):
                patch.setattr(T, name, lambda *args, **kwargs: pytest.fail("a primitive ran"))
            quiet = glue(g.values)
        assert type(quiet) is np.ndarray
    return (recorded.shape, recorded.values.tobytes()), (quiet.shape, quiet.tobytes())


@pytest.mark.parametrize("g_shape, shape", [
    ((2, 3, 4, 5), (4, 5)),  # leading extra axes
    ((2, 3, 4, 5), (1, 5)),  # extra axes, then a size-1 axis
    ((3, 4, 5), (3, 1, 5)),  # size-1 axes only
    ((3, 1, 5), (1, 1, 5)),
    ((4, 6), ()),
], ids=lambda v: "x".join(map(str, v)) or "scalar")
def test_paused_unbroadcast_equals_the_primitive_chain_bits(monkeypatch, g_shape, shape):
    g = Tensor(np.random.default_rng(3).standard_normal(g_shape))
    recorded, quiet = _glue_both_ways(monkeypatch, lambda g: T._unbroadcast(g, shape), g)
    assert recorded == quiet and quiet[0] == shape


@pytest.mark.parametrize("original, axes, keepdims, scale", [
    ((3, 4), None, False, 1.0),
    ((3, 4), None, True, 1.0),
    ((2, 3, 4), (1,), False, 1.0),
    ((2, 3, 4), (0, 2), True, 1.0),
    ((2, 3, 4), (0, 2), False, 1.0 / 8),  # reduce_mean's scale
    ((5, 1, 3), (1,), False, 1.0),  # a size-1 axis
], ids=["none", "none-keepdims", "middle", "keepdims", "mean", "size-1"])
def test_paused_spread_reduced_equals_the_primitive_chain_bits(monkeypatch, original, axes, keepdims, scale):
    reduced = np.zeros(original).sum(axis=axes, keepdims=keepdims).shape
    g = Tensor(np.random.default_rng(4).standard_normal(reduced))
    recorded, quiet = _glue_both_ways(
        monkeypatch, lambda g: T._spread_reduced(g, original, axes, keepdims, scale), g)
    assert recorded == quiet and quiet[0] == original


@pytest.mark.parametrize("reduce", [T.reduce_sum, T.reduce_mean], ids=["sum", "mean"])
def test_paused_and_recording_replays_of_broadcasts_and_reductions_give_equal_bits(reduce):
    r = np.random.default_rng(6)
    x, w, b = (Tensor(r.standard_normal(s)) for s in ((2, 3, 4), (3, 1), (4,)))

    def gradients(create_graph):
        with Tape():
            y = T.mul(T.add(x, b), w)  # both broadcast into [2, 3, 4]
            loss = T.reduce_sum(T.mul(reduce(y, axis=(0, 2)), reduce(y, axis=None)))
            return [g.values.tobytes() for g in grad(loss, [x, w, b], create_graph=create_graph)]

    assert gradients(False) == gradients(True)


# --- one way to reduce: np.add.reduce in place of the ndarray methods, ----
# --- with the same bits (kernels.softmax_rows: tests/test_kernels.py) -------


@pytest.mark.parametrize("axis", [None, 0, -1, (0, 2), (-1, 0), (1, -1), ()],
                         ids=["none", "0", "-1", "0,2", "-1,0", "1,-1", "empty"])
@pytest.mark.parametrize("keepdims", [False, True])
def test_reductions_bits_equal_the_ndarray_methods_they_replace(axis, keepdims):
    x = np.random.default_rng(77).standard_normal((3, 40, 17)) * 1e3
    total = T.reduce_sum(x, axis, keepdims)
    mean = T.reduce_mean(x, axis, keepdims)
    expected_total = np.asarray(x.sum(axis=axis, keepdims=keepdims))
    expected_mean = np.asarray(x.mean(axis=axis, keepdims=keepdims))
    assert total.shape == expected_total.shape and mean.shape == expected_mean.shape
    assert total.values.tobytes() == expected_total.tobytes()
    assert mean.values.tobytes() == expected_mean.tobytes()


# --- an array replay carries arrays: every rule gives the bits of its -----
# --- primitive replay, and hands back arrays --------------------------------


def _every_op_loss(r):
    """Tensors and a scalar loss through every primitive: 0-d operands,
    broadcasts, and stacked [n, B, T, C] rows with task-axis weights."""
    leaves = {
        "s": np.array(0.7), "t": np.array(1.3), "v": r.standard_normal(5),
        "x": r.standard_normal((2, 3, 4, 8)), "w": r.standard_normal((2, 8, 8)),
        "b": r.standard_normal((2, 1, 8)), "gain": r.standard_normal((2, 1, 1, 8)) + 1.0,
        "row": r.standard_normal(8), "col": r.standard_normal((1, 3, 1, 1)),
        "m": r.standard_normal((8, 8)),
    }
    ts = {name: Tensor(a) for name, a in leaves.items()}
    s, t, v, x = ts["s"], ts["t"], ts["v"], ts["x"]
    mask = np.ones((2, 3, 4), bool)
    mask[0, 1, 3] = mask[1, 2, 0] = False
    labels = r.integers(0, 8, size=(2, 3))

    zero_d = T.add(T.sub(T.mul(s, t), T.div(s, t)), T.gelu(T.mul(s, s)))
    spread = T.add(s, v)  # a 0-d operand broadcast into a vector
    normed = T.layer_norm(T.add(x, ts["row"]), 1e-5, ts["gain"], ts["row"])
    flat = T.reshape(T.mul(normed, ts["col"]), (2, 12, 8))
    h = T.gelu(T.linear(flat, ts["w"], ts["b"]))
    att = T.attention(h, flat, h, mask, 2, 0.5)
    stacked = T.reshape(att, (2, 3, 4, 8))
    swapped = T.transpose(stacked, (0, 2, 1, 3))
    product = T.matmul(swapped, swapped, transpose_a=True)
    product = T.matmul(T.matmul(product, ts["m"]), T.layer_norm(swapped), transpose_b=True)
    product = T.matmul(ts["m"], product, transpose_a=True)
    joined = T.concat([T.slice_axis(stacked, -1, 2, 6), x, T.layer_norm(stacked)], axis=-1)
    pooled = T.reduce_mean(joined, axis=(2, -1), keepdims=True)
    logits = T.reduce_sum(T.mul(T.slice_axis(joined, -1, 0, 8), stacked), axis=2)
    picked = T.log_softmax_pick(logits, labels, np.full((2, 3), 0.5))
    terms = [zero_d, T.reduce_sum(spread), T.reduce_sum(product), T.reduce_sum(pooled),
             T.reduce_mean(picked), T.reduce_mean(T.mul(T.log_softmax_pick(h, np.zeros((2, 12), int)), 2.0))]
    loss = terms[0]
    for term in terms[1:]:
        loss = T.add(loss, term)
    return ts, loss


# the adjoint ops whose adjoints read kept constants: they take arrays only
_ARRAY_ONLY = ("_gelu_slope", "_layer_norm_grad")


def _replays_agree(outs, r):
    """Each recorded node's vjp of its array, then of a Tensor, recording on a
    throwaway tape: the array replay hands back arrays with the Tensor
    replay's shapes and bits, and neither writes into the adjoint it was
    handed.  An array-only adjoint op refuses the Tensor replay."""
    recorded = len(outs)
    with Tape():
        for out, node in outs[:recorded]:
            g = np.array(r.standard_normal(out.shape))
            kept = g.copy()
            from_array = node.vjp(g)
            assert all(b is None or type(b) is np.ndarray for b in from_array)
            if node.vjp.__qualname__.split(".")[0] in _ARRAY_ONLY:
                with pytest.raises(ContractError, match="third derivative"):
                    node.vjp(Tensor(g))
                assert g.tobytes() == kept.tobytes()
                continue
            from_tensor = node.vjp(Tensor(g))
            assert g.tobytes() == kept.tobytes()
            assert len(from_tensor) == len(from_array)
            for a, b in zip(from_tensor, from_array):
                assert (a is None) == (b is None)
                if a is not None:
                    assert isinstance(a, Tensor)
                    assert a.shape == b.shape and a.values.tobytes() == b.tobytes()
    del outs[recorded:]  # the throwaway tape's nodes


def test_array_and_tensor_replays_of_every_op_give_equal_bits(monkeypatch):
    outs, record = [], T._record

    def spy(out, inputs, vjp):
        recorded = record(out, inputs, vjp)
        outs.append((recorded, recorded.node))
        return recorded

    monkeypatch.setattr(T, "_record", spy)
    # no gelu node has kept a slope before a recording replay; a Tensor
    # replay keeps one, so this graph is not replayed again
    r = np.random.default_rng(79)
    with Tape():
        _every_op_loss(r)
        _replays_agree(outs, r)
    outs.clear()
    r = np.random.default_rng(79)
    with Tape():
        ts, loss = _every_op_loss(r)
        forward = len(outs)
        # the recording replay adds every adjoint op and a kept gelu slope
        grad(loss, list(ts.values()), create_graph=True)
        names = {node.vjp.__qualname__.split(".")[0] for _, node in outs[forward:]}
        assert {*_ARRAY_ONLY, "_normalized", "_attention_weights", "_shifted_exp"} <= names
        _replays_agree(outs, r)


def test_an_array_replay_records_nothing_on_the_open_tape():
    # the adjoint's kind is the only mark of a first-order replay: its rules
    # take arrays and call no primitive, so the open tape gains no node
    with Tape() as tape:
        ts, loss = _every_op_loss(np.random.default_rng(79))
        forward = len(tape.nodes)
        grads = grad(loss, list(ts.values()))
        first_order = len(tape.nodes)
        grad(loss, list(ts.values()), create_graph=True)
        assert (forward, first_order, len(tape.nodes)) == (41, 41, 168)
    assert all(g.node is None for g in grads)
