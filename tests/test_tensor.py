import contextlib
import gc

import numpy as np
import pytest

from conftest import finite_diff, rel_error
from fsml import tensor as T
from fsml.errors import ContractError, DomainError, ShapeError
from fsml.tensor import Tape, Tensor, grad


def test_matmul_hand_example():
    out = T.matmul(Tensor([[1.0, 2.0], [3.0, 4.0]]), Tensor([[1.0], [1.0]]))
    assert out.values.tolist() == [[3.0], [7.0]]


def test_softmax_symmetry():
    out = T.softmax(Tensor([0.0, 0.0]))
    np.testing.assert_allclose(out.values, [0.5, 0.5], rtol=0, atol=0)


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
_case("transpose", lambda r: (lambda w: (lambda ts: _weighted(w)(T.transpose(ts[0]))))(r.standard_normal((4, 3))))
_case("reshape", lambda r: (lambda w: (lambda ts: _weighted(w)(T.reshape(ts[0], (4, 3)))))(r.standard_normal((4, 3))))
_case("concat", lambda r: (lambda w: (lambda ts: _weighted(w)(T.concat([ts[0], ts[1]], axis=1))))(r.standard_normal((3, 7))))
_case("slice", lambda r: (lambda w: (lambda ts: _weighted(w)(T.slice_axis(ts[0], 1, 1, 3))))(r.standard_normal((3, 2))))
_case("sum", lambda r: (lambda w: (lambda ts: _weighted(w)(T.reduce_sum(ts[0], axis=1))))(r.standard_normal((3,))))
_case("mean", lambda r: (lambda w: (lambda ts: _weighted(w)(T.reduce_mean(ts[0], axis=0, keepdims=True))))(r.standard_normal((1, 4))))
_case("exp", lambda r: (lambda w: (lambda ts: _weighted(w)(T.exp(ts[0]))))(r.standard_normal((3, 4))))
_case("log", lambda r: (lambda w: (lambda ts: _weighted(w)(T.log(ts[0]))))(r.standard_normal((3, 4))))
_case("sqrt", lambda r: (lambda w: (lambda ts: _weighted(w)(T.sqrt(ts[0]))))(r.standard_normal((3, 4))))
_case("power", lambda r: (lambda w: (lambda ts: _weighted(w)(T.power(ts[0], 2.5))))(r.standard_normal((3, 4))))
_case("softmax", lambda r: (lambda w: (lambda ts: _weighted(w)(T.softmax(ts[0]))))(r.standard_normal((3, 4))))
_case("relu", lambda r: (lambda w: (lambda ts: _weighted(w)(T.relu(ts[0]))))(r.standard_normal((3, 4))))
_case("gelu", lambda r: (lambda w: (lambda ts: _weighted(w)(T.gelu(ts[0]))))(r.standard_normal((3, 4))))
_case("layer_norm", lambda r: (lambda w: (lambda ts: _weighted(w)(T.layer_norm(ts[0]))))(r.standard_normal((3, 4))))
_case("masked_fill", lambda r: (lambda w: (lambda m: (lambda ts: _weighted(w)(T.masked_fill(ts[0], m, 0.5))))(r.random((3, 4)) < 0.4))(r.standard_normal((3, 4))))
_case("embedding", lambda r: (lambda w: (lambda idx: (lambda ts: _weighted(w)(T.embedding_lookup(ts[0], idx))))(r.integers(0, 5, size=6)))(r.standard_normal((6, 4))))

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
    if case_id in ("log", "sqrt", "power"):
        return [r.random((3, 4)) + 0.5]
    if case_id == "div":
        return [r.standard_normal((3, 4)), r.random((3, 4)) + 0.5]
    if case_id == "relu":
        x = r.standard_normal((3, 4))
        x[np.abs(x) < 0.1] += 0.2
        return [x]
    if case_id == "sum":
        return [r.standard_normal((3, 4))]
    if case_id == "mean":
        return [r.standard_normal((5, 4))]
    if case_id == "embedding":
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
        weights = T.softmax(T.matmul(q, k, transpose_b=True))
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
        return T.reduce_mean(T.exp(T.mul(t, 0.3)))

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
            with Tape() if recording else T.paused():
                with pytest.raises(ShapeError) as err:
                    op(Tensor(np.ones((2, 3))), Tensor(np.ones((4,))))
            message = str(err.value)
            assert op.__name__ in message
            assert "(2, 3)" in message and "(4,)" in message


def test_domain_errors():
    with pytest.raises(DomainError):
        T.log(Tensor([-1.0]))
    with pytest.raises(DomainError):
        T.sqrt(Tensor([-0.5]))


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
        T.matmul(x, T.transpose(y)), T.matmul(x, y, transpose_a=True),
        T.matmul(y, x, transpose_b=True), T.transpose(x), T.transpose(x, (1, 0)),
        T.reshape(x, (4, 3)), T.concat([x, y], axis=1), T.slice_axis(y, 1, 1, 3),
        T.reduce_sum(y, axis=0), T.reduce_mean(y), T.exp(y), T.log(x), T.sqrt(x),
        T.power(x, 1.5), T.softmax(y), T.relu(y), T.gelu(y), T.layer_norm(y),
        T.embedding_lookup(y, [2, 0]), T.masked_fill(y, mask, 0.5),
    ]


def test_paused_primitives_record_nothing_and_return_equal_bits():
    r = np.random.default_rng(5)
    x = Tensor(r.random((3, 4)) + 0.5)
    y = Tensor(r.standard_normal((3, 4)))
    with Tape() as tape:
        recorded = _one_of_each_primitive(x, y)
        count = len(tape.nodes)
        with T.paused():
            quiet = _one_of_each_primitive(x, y)
        assert len(tape.nodes) == count
    assert all(t.node is not None for t in recorded)
    assert all(t.node is None for t in quiet)
    for a, b in zip(recorded, quiet):
        assert a.shape == b.shape and a.values.tobytes() == b.values.tobytes()


def test_recording_resumes_after_nested_pause_and_after_an_exception():
    x = Tensor([1.0, 2.0])
    with Tape() as tape:
        with T.paused():
            with T.paused():
                assert T.mul(x, x).node is None
            assert T.mul(x, x).node is None
        assert T.mul(x, x).node is not None
        with pytest.raises(ShapeError):
            with T.paused():
                T.add(x, Tensor([1.0, 2.0, 3.0]))
        with pytest.raises(RuntimeError):
            with T.paused():
                raise RuntimeError("inside a pause")
        y = T.reduce_sum(T.mul(x, x))
        assert y.node is not None and y.node.tape is tape
        np.testing.assert_array_equal(grad(y, x).values, [2.0, 4.0])
        assert T.mul(x, x).node is not None  # grad's own pause ended too
    assert T.mul(x, x).node is None  # no tape is open


def _full_prefix_grad(output, targets, create_graph=False):
    """grad's replay with the reachability scan started at node 0 and every
    adjoint kept until the end (the reference)."""
    node = output.node
    reachable = {T._key(t) for t in targets}
    needed = []
    for n in node.tape.nodes[: node.idx + 1]:
        if any(inp in reachable for inp in n.inputs):
            reachable.add(n)
            needed.append(n)
    adjoints = {node: Tensor(np.ones(output.shape))}
    with contextlib.nullcontext() if create_graph else T.paused():
        for n in reversed(needed):
            g_out = adjoints.get(n)
            if g_out is None:
                continue
            for inp, contrib in zip(n.inputs, n.vjp(g_out)):
                if contrib is None or inp not in reachable:
                    continue
                held = adjoints.get(inp)
                adjoints[inp] = contrib if held is None else T.add(held, contrib)
    return [adjoints[T._key(t)] for t in targets]


def _small_net(r):
    w = Tensor(r.standard_normal((4, 3)))
    x = Tensor(r.standard_normal((5, 4)))
    h0 = T.gelu(T.matmul(x, w))
    h1 = T.layer_norm(T.add(h0, 1.0))
    h2 = T.softmax(T.mul(h1, h0))
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
def test_default_transpose_and_its_vjp_equal_explicit_axes(shape):
    r = np.random.default_rng(4)
    a = r.standard_normal(shape)
    w = r.standard_normal(shape[:-2] + (shape[-1], shape[-2]))
    ndim = len(shape)
    explicit = tuple(range(ndim - 2)) + (ndim - 1, ndim - 2)
    results = []
    for axes in (None, explicit):
        with Tape():
            t = Tensor(a)
            out = T.transpose(t, axes)
            g = grad(T.reduce_sum(T.mul(out, Tensor(w))), t)
        results.append((out.shape, out.values.tobytes(), g.shape, g.values.tobytes()))
    assert results[0] == results[1]


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
    [([1.0, 2.0], None), ([1.0, 2.0], (0,)), ([1.0, 2.0], (-1,)), (3.0, None), (3.0, ())],
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
    # a slope built by a paused replay is not kept: the create_graph grad
    # that follows records its own, so the second derivative keeps gelu's
    # curvature; a paused replay after it reuses the recorded slope
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


def test_third_order_through_gelu_and_layer_norm_matches_finite_differences():
    # the HVP of a squared gradient norm replays the recorded gelu slope and
    # layer_norm adjoint ops while recording, so they rebuild from primitives
    # what they read of their input
    loss_of = _gelu_layer_norm_loss(np.random.default_rng(36))

    def loss(ts):
        (w,) = ts
        g = grad(loss_of(w), w, create_graph=True)
        return T.reduce_sum(T.mul(g, g))

    _check_hvp(loss, [(4, 3)], seed=37)


def test_fan_in_sums_equal_full_prefix_scan_and_spare_returned_adjoints():
    # x and h each take three contributions.  h's first one is a view of v's
    # summed adjoint (reshape) and x's first one is h's adjoint itself (add),
    # so a sum into either would change a gradient already returned.
    r = np.random.default_rng(41)
    with Tape():
        x = Tensor(r.standard_normal((3, 4)))
        e = T.exp(x)
        m = T.mul(x, 2.0)
        h = T.add(x, 1.0)
        j = T.sub(h, 0.5)
        k = T.mul(h, 3.0)
        v = T.reshape(h, (4, 3))
        rest = T.reshape(T.mul(T.add(j, k), T.add(e, m)), (4, 3))
        loss = T.reduce_sum(T.add(T.mul(v, v), rest))
        for targets in ([v, h, x], [x, h], [h, v], [x], [loss, v, x]):
            assert _bits(grad(loss, targets)) == _bits(_full_prefix_grad(loss, targets))
