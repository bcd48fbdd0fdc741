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
        g = grad(x * x, x)
    assert g.values == 6.0


def test_second_derivative_cubic():
    with Tape():
        x = Tensor(2.0)
        y = x * x * x
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


def _inputs_for(case_id, r):
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
        y = x * x
    with pytest.raises(ContractError):
        grad(y, x, create_graph=True)


def test_tensor_invariant_shape_matches_values():
    t = Tensor(np.arange(6.0).reshape(2, 3))
    assert int(np.prod(t.shape)) == t.size
