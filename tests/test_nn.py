import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import array_digest, assert_grads_close, finite_diff, pad_batch, parcel
from fsml import kernels, nn
from fsml import tensor as T
from fsml.errors import ContractError, DegenerateInputError, FsmlError, ParseError, SequenceLengthError
from fsml.nn import (
    RawSeriesModel,
    TransformerConfig,
    classify,
    cross_entropy,
    encode,
    load_checkpoint,
    pool_sequence,
    save_checkpoint,
    sinusoidal_encoding,
    sinusoidal_table,
)
from fsml.tensor import Tape, Tensor, grad


CFG = nn.small_config(embed_dim=8, num_heads=2, hidden_dim=16, max_seq_len=16)


def tiny_params(rng, config=CFG):
    return nn.encoder_params(rng, config)


def test_presets_match_published_architectures():
    assert nn.SUPERVISED == TransformerConfig(128, 4, 256, 1, 0, 366)
    assert nn.PRESTO == TransformerConfig(128, 8, 512, 2, 2, 24)


def test_config_rejects_indivisible_heads():
    with pytest.raises(ContractError, match="divisible"):
        TransformerConfig(10, 3, 16, 1, 0, 8)


def test_sinusoidal_encoding_values():
    np.testing.assert_allclose(sinusoidal_encoding(0, 4), [0.0, 1.0, 0.0, 1.0])
    enc = sinusoidal_encoding(1, 2)
    np.testing.assert_allclose(enc, [np.sin(1.0), np.cos(1.0)], atol=1e-12)


def test_sinusoidal_pairs_have_unit_norm():
    for pos in (0, 3, 17, 120, 365):
        enc = sinusoidal_encoding(pos, 12)
        pairs = enc.reshape(-1, 2)
        np.testing.assert_allclose(np.linalg.norm(pairs, axis=1), 1.0, atol=1e-12)


def test_sinusoidal_rejects_odd_dim():
    with pytest.raises(ContractError, match="even"):
        sinusoidal_encoding(2, 5)


@pytest.mark.parametrize("n, dim", [(366, 16), (366, 128), (366, 8), (12, 4), (400, 32), (1, 2)])
def test_sinusoidal_table_equals_stacked_rows(n, dim):
    rows = np.stack([sinusoidal_encoding(p, dim) for p in range(n)])
    assert np.array_equal(sinusoidal_table(n, dim), rows)


def test_positional_table_is_cached_read_only(monkeypatch):
    monkeypatch.setattr(nn, "_POSITIONAL_TABLES", {})
    table = nn.positional_table(30, 8)
    assert nn.positional_table(30, 8) is table
    assert np.array_equal(table, sinusoidal_table(30, 8))
    with pytest.raises(ValueError):
        table[0, 0] = 1.0


def _raw_batch(rng, lengths, channels):
    t_max = max(lengths)
    values = np.zeros((len(lengths), t_max, channels))
    days = np.ones((len(lengths), t_max), dtype=np.intp)
    mask = np.zeros((len(lengths), t_max), dtype=bool)
    for i, n in enumerate(lengths):
        values[i, :n] = rng.standard_normal((n, channels))
        days[i, :n] = np.sort(rng.choice(np.arange(1, CFG.max_seq_len + 1), size=n, replace=False))
        mask[i, :n] = True
    return values, days, mask


def _batch_logits(model, params, batch):
    """The raw model's logits of an already packed (values, days, mask) batch."""
    backbone, head = nn.split_params(params)
    return classify(head, model.embeddings(backbone, batch))


def test_raw_model_builds_positional_table_once(rng, monkeypatch):
    builds = []

    def counting_table(max_len, dim):
        builds.append((max_len, dim))
        return sinusoidal_table(max_len, dim)

    monkeypatch.setattr(nn, "_POSITIONAL_TABLES", {})
    monkeypatch.setattr(nn, "sinusoidal_table", counting_table)
    model = RawSeriesModel(CFG, 3)
    params = nn.init_params(model, rng, 2)
    batch = _raw_batch(rng, [4, 2], 3)
    first = _batch_logits(model, params, batch).values
    second = _batch_logits(model, params, batch).values
    assert builds == [(CFG.max_seq_len, CFG.embed_dim)]
    np.testing.assert_array_equal(first, second)


def test_raw_model_logits_ignore_padding(rng):
    model = RawSeriesModel(CFG, 3)
    params = nn.init_params(model, rng, 4)
    batch = _raw_batch(rng, [5, 1, 3], 3)
    padded = pad_batch(batch, CFG.max_seq_len)
    plain = _batch_logits(model, params, batch).values
    full = _batch_logits(model, params, padded).values
    np.testing.assert_allclose(full, plain, rtol=0, atol=1e-12)


def test_encode_permutation_equivariance(rng):
    params = tiny_params(rng)
    x = rng.standard_normal((5, CFG.embed_dim))
    mask = np.ones(5, dtype=bool)
    out = encode(params, CFG, Tensor(x), mask).values
    perm = np.array([3, 1, 2, 0, 4])
    out_perm = encode(params, CFG, Tensor(x[perm]), mask).values
    np.testing.assert_allclose(out_perm, out[perm], atol=1e-12)


def test_masked_token_cannot_influence_unmasked_outputs(rng):
    params = tiny_params(rng)
    x = rng.standard_normal((6, CFG.embed_dim))
    mask = np.ones(6, dtype=bool)
    mask[2] = False
    base = encode(params, CFG, Tensor(x), mask).values
    x2 = x.copy()
    x2[2] = rng.standard_normal(CFG.embed_dim) * 10
    changed = encode(params, CFG, Tensor(x2), mask).values
    keep = mask.nonzero()[0]
    np.testing.assert_allclose(changed[keep], base[keep], atol=1e-12)


def test_zero_weights_single_token_reduces_to_final_layer_norm(rng):
    params = tiny_params(rng)
    for name, t in params.items():
        if "/attn/" in name or "/mlp/" in name:
            params[name] = Tensor(np.zeros_like(t.values))
    x = rng.standard_normal((1, CFG.embed_dim))
    out = encode(params, CFG, Tensor(x), np.ones(1, dtype=bool)).values
    expected = T.layer_norm(Tensor(x)).values
    np.testing.assert_allclose(out, expected, atol=1e-12)


def test_attention_weights_sum_to_one_over_unmasked_keys(rng):
    """Seen through outputs: when every unmasked key row is the same row r,
    each query's output is r's value projection, whatever the masked rows
    hold.  So weights sum to one over unmasked keys and masked keys get none."""
    params = tiny_params(rng)
    for name, t in params.items():  # nonzero biases, so each one shows
        if name.endswith("/b"):
            params[name] = Tensor(rng.standard_normal(t.shape))
    queries = rng.standard_normal((2, 7, CFG.embed_dim))
    mask = np.ones((2, 7), dtype=bool)
    mask[0, 4:] = False
    row = rng.standard_normal(CFG.embed_dim)
    keys_values = np.tile(row, (2, 7, 1))
    keys_values[0, 4:] = 1e3 * rng.standard_normal((3, CFG.embed_dim))
    out = nn.attention(params, "enc0/attn", CFG, Tensor(queries), Tensor(keys_values), mask)
    p = {k: v.values for k, v in params.items()}
    value = (row @ p["enc0/attn/v/w"] + p["enc0/attn/v/b"]) @ p["enc0/attn/out/w"]
    expected = np.broadcast_to(value + p["enc0/attn/out/b"], out.shape)
    np.testing.assert_allclose(out.values, expected, rtol=0, atol=1e-12)


def test_attention_records_five_nodes_and_cross_entropy_three(rng):
    # the q, v and out projections are one linear node each, the bias-free
    # k projection one matmul, and the core between them one node
    params = tiny_params(rng)
    x = Tensor(rng.standard_normal((2, 5, CFG.embed_dim)))
    mask = np.array([[True] * 5, [True, True, True, False, False]])
    with Tape() as tape:
        nn.attention(params, "enc0/attn", CFG, x, x, mask)
        assert len(tape.nodes) == 5
    logits = Tensor(rng.standard_normal((2, 3, 4)))
    labels = np.array([[0, 1, 2], [3, 0, 1]])
    for args in ((logits, labels, mask[:, :3]), (T.reshape(logits, (6, 4)), labels.reshape(-1))):
        with Tape() as tape:
            cross_entropy(*args)
            assert len(tape.nodes) <= 3


def test_classify_examples():
    head = {"w": Tensor(np.zeros((4, 3))), "b": Tensor(np.zeros(3))}
    logits = classify(head, Tensor(np.ones((1, 4))))
    assert np.all(logits.values == 0.0)
    np.testing.assert_allclose(kernels.softmax_rows(logits.values), np.full((1, 3), 1 / 3))

    head = {"w": Tensor(np.eye(4)), "b": Tensor(np.zeros(4))}
    emb = np.array([[0.3, -1.0, 2.0, 0.1]])
    np.testing.assert_allclose(classify(head, Tensor(emb)).values, emb)

    head = {"w": Tensor(np.eye(2)), "b": Tensor(np.zeros(2))}
    logits = classify(head, Tensor([[2.0, 1.0]]))
    np.testing.assert_allclose(logits.values, [[2.0, 1.0]])
    np.testing.assert_allclose(
        kernels.softmax_rows(logits.values), [[0.7311, 0.2689]], atol=1e-4
    )


def test_classify_dimension_mismatch():
    head = {"w": Tensor(np.zeros((4, 3))), "b": Tensor(np.zeros(3))}
    with pytest.raises(ContractError, match="dim"):
        classify(head, Tensor(np.ones((1, 5))))


def test_pool_sequence_examples():
    rows = np.array([[1.0, 3.0], [3.0, 5.0]])
    np.testing.assert_allclose(
        pool_sequence(Tensor(rows), np.array([True, True])).values, [2.0, 4.0]
    )
    np.testing.assert_allclose(
        pool_sequence(Tensor(rows), np.array([True, False])).values, [1.0, 3.0]
    )
    same = np.array([[7.0, 2.0], [7.0, 2.0]])
    np.testing.assert_allclose(
        pool_sequence(Tensor(same), np.array([True, True])).values, [7.0, 2.0]
    )
    with pytest.raises(DegenerateInputError):
        pool_sequence(Tensor(rows), np.array([False, False]))


def test_sequence_overflow_cites_limit(rng):
    params = tiny_params(rng)
    x = rng.standard_normal((CFG.max_seq_len + 1, CFG.embed_dim))
    with pytest.raises(SequenceLengthError, match=str(CFG.max_seq_len)):
        encode(params, CFG, Tensor(x), np.ones(CFG.max_seq_len + 1, dtype=bool))


def test_cross_entropy_gradient_matches_finite_differences(rng):
    config = nn.small_config(embed_dim=8, num_heads=2, hidden_dim=12, max_seq_len=8)
    model = RawSeriesModel(config, in_channels=3)
    params = nn.init_params(model, rng, n_classes=3)
    values = rng.standard_normal((2, 3, 3))
    days = np.array([[1, 4, 7], [2, 3, 6]])
    mask = np.ones((2, 3), dtype=bool)
    labels = np.array([0, 2])
    names = sorted(params)

    def loss_from(arrays):
        tensors = {k: Tensor(a) for k, a in zip(names, arrays)}
        logits = _batch_logits(model, tensors, (values, days, mask))
        return cross_entropy(logits, labels).item()

    arrays = [params[k].values.copy() for k in names]
    with Tape():
        tensors = {k: Tensor(a) for k, a in zip(names, arrays)}
        logits = _batch_logits(model, tensors, (values, days, mask))
        grads = grad(cross_entropy(logits, labels), list(tensors.values()))
    fd = finite_diff(loss_from, arrays)
    for g, f in zip(grads, fd):
        assert_grads_close(g.values, f, 1e-4)


def test_second_order_through_encoder_matches_finite_differences(rng):
    # Hessian-vector product of the encode+classify loss against central
    # finite differences of the gradient; exercises the softmax, layer_norm
    # and attention adjoints under create_graph.
    config = nn.small_config(embed_dim=8, num_heads=2, hidden_dim=12, max_seq_len=8)
    model = RawSeriesModel(config, in_channels=2)
    params = nn.init_params(model, rng, n_classes=3)
    values = rng.standard_normal((2, 3, 2))
    days = np.array([[1, 4, 7], [2, 3, 6]])
    mask = np.ones((2, 3), dtype=bool)
    labels = np.array([0, 2])
    names = sorted(params)
    direction = {k: rng.standard_normal(params[k].shape) for k in names}

    def loss_of(tensors):
        return cross_entropy(_batch_logits(model, tensors, (values, days, mask)), labels)

    def gradient_at(arrays):
        with Tape():
            tensors = {k: Tensor(a) for k, a in arrays.items()}
            gs = grad(loss_of(tensors), [tensors[k] for k in names])
        return np.concatenate([g.values.reshape(-1) for g in gs])

    base = {k: params[k].values.copy() for k in names}
    with Tape():
        tensors = {k: Tensor(v.copy()) for k, v in base.items()}
        gs = grad(loss_of(tensors), [tensors[k] for k in names], create_graph=True)
        directional = None
        for k, g in zip(names, gs):
            term = T.reduce_sum(T.mul(g, Tensor(direction[k])))
            directional = term if directional is None else T.add(directional, term)
        hvp = grad(directional, [tensors[k] for k in names])
    analytic = np.concatenate([h.values.reshape(-1) for h in hvp])

    h = 1e-5
    plus = {k: base[k] + h * direction[k] for k in names}
    minus = {k: base[k] - h * direction[k] for k in names}
    fd = (gradient_at(plus) - gradient_at(minus)) / (2 * h)
    assert_grads_close(analytic, fd, 1e-4)


def test_reset_head_changes_logits_not_encoder_outputs(rng):
    config = nn.small_config(embed_dim=8, num_heads=2, hidden_dim=12)
    model = RawSeriesModel(config, in_channels=2)
    backbone, head = nn.split_params(nn.init_params(model, rng, n_classes=4))
    values = rng.standard_normal((1, 4, 2))
    days = np.array([[10, 50, 90, 200]])
    mask = np.ones((1, 4), dtype=bool)
    emb_before = model.embeddings(backbone, (values, days, mask)).values
    logits_before = classify(head, Tensor(emb_before)).values
    head = nn.new_head(rng, config.embed_dim, 4)
    emb_after = model.embeddings(backbone, (values, days, mask)).values
    logits_after = classify(head, Tensor(emb_after)).values
    np.testing.assert_allclose(emb_after, emb_before)
    assert not np.allclose(logits_after, logits_before)
    assert set(head) == {"w", "b"}


@pytest.mark.parametrize("days, named", [([[0, 5, 9]], "0"), ([[3, -5, 0]], "-5")])
def test_day_below_one_is_a_contract_error(rng, days, named):
    model = RawSeriesModel(CFG, in_channels=2)
    with pytest.raises(ContractError, match=f"day index {named} is below 1"):
        model._positions(days)
    params = nn.init_params(model, rng, n_classes=2)
    batch = (rng.standard_normal((1, 3, 2)), np.array(days), np.ones((1, 3), dtype=bool))
    with pytest.raises(ContractError):
        _batch_logits(model, params, batch)


def test_split_params_inverts_join_params(rng):
    backbone = {"in/w": Tensor(rng.standard_normal((3, 4))), "enc0/ln1/g": Tensor(np.ones(4))}
    head = nn.new_head(rng, 4, 2)
    flat = nn.join_params(backbone, head)
    assert sorted(flat) == ["backbone/enc0/ln1/g", "backbone/in/w", "head/b", "head/w"]
    again_backbone, again_head = nn.split_params({**flat, "norm/s2/mean": np.zeros(2)})
    assert again_backbone == backbone and again_head == head
    for key in backbone:
        assert again_backbone[key] is backbone[key]


def test_init_params_draws_the_backbone_then_the_head(rng):
    model = RawSeriesModel(CFG, 3)
    flat = nn.init_params(model, np.random.default_rng(4), n_classes=5)
    draws = np.random.default_rng(4)
    expected = nn.join_params(model.init_backbone(draws), nn.new_head(draws, CFG.embed_dim, 5))
    assert flat.keys() == expected.keys()
    for key, value in expected.items():
        np.testing.assert_array_equal(flat[key].values, value.values)


def test_raw_model_logits_pack_their_own_samples(rng):
    model = RawSeriesModel(CFG, 3, ("s1", "s2"))
    samples = [
        parcel([2, 9, 14], {"s1": rng.standard_normal((3, 1)), "s2": rng.standard_normal((3, 2))}),
        parcel([5], {"s1": rng.standard_normal((1, 1)), "s2": rng.standard_normal((1, 2))}),
    ]
    params = nn.init_params(model, rng, n_classes=2)
    packed = _batch_logits(model, params, nn.pack_batch(samples, ["s1", "s2"])).values
    np.testing.assert_array_equal(model.logits(*nn.split_params(params), samples).values, packed)


@pytest.mark.parametrize("task_information", [None, "timl_enc", "timl_noenc"])
def test_a_batch_taken_from_a_series_pack_equals_packing_it_alone(task_information):
    """A split packed once, then taken in ragged batches, gives what packing
    each batch alone gives, bit for bit: values, days, mask and task-information rows,
    also for a batch whose longest series is shorter than the split's and a
    one-parcel batch."""
    rng = np.random.default_rng(29)
    split = [
        parcel(np.sort(rng.choice(np.arange(1, 17), n, replace=False)),
               {"s1": rng.normal(size=(n, 1)), "s2": rng.normal(size=(n, 2))}, f"p{i}",
               lon=rng.uniform(-np.pi, np.pi), lat=rng.uniform(-np.pi / 2, np.pi / 2))
        for i, n in enumerate([4, 11, 1, 7, 11, 3, 9, 2])
    ]
    channels = 6 if task_information == "timl_noenc" else 3
    model = RawSeriesModel(CFG, channels, ("s2", "s1"), task_information)
    pack = model.pack(split)
    batches = [rng.permutation(len(split))[: int(rng.integers(2, len(split)))] for _ in range(6)]
    batches += [np.array([3, 0, 5]), np.array([2])]
    assert max(len(split[i].days) for i in batches[-2]) < 11  # shorter than the split's longest
    for idx in batches:
        taken, alone = pack.take(idx), model.pack([split[i] for i in idx]).take()
        assert array_digest(*taken.batch) == array_digest(*alone.batch)
        if task_information is None:
            assert taken.cart is None and alone.cart is None
        else:
            assert array_digest(taken.cart) == array_digest(alone.cart)


def test_checkpoint_roundtrip_byte_identical(tmp_path, rng):
    arrays = {
        "backbone/in/w": rng.standard_normal((3, 4)),
        "backbone/enc0/ln1/g": np.ones(4),
        "head/w": rng.standard_normal((4, 2)),
        "scalar": np.array(3.14),
    }
    first = tmp_path / "a.fsml"
    save_checkpoint(first, arrays, meta={"config_hash": "abc123", "seed": "42"})
    loaded, meta = load_checkpoint(first)
    assert meta == {"config_hash": "abc123", "seed": "42"}
    for k, v in arrays.items():
        np.testing.assert_array_equal(loaded[k], v)
    second = tmp_path / "b.fsml"
    save_checkpoint(second, loaded, meta=meta)
    assert first.read_bytes() == second.read_bytes()
    assert first.read_bytes()[:4] == b"FSML"


def _small_checkpoint(path):
    arrays = {"head/w": np.arange(6.0).reshape(2, 3), "scalar": np.array(2.5)}
    save_checkpoint(path, arrays, meta={"seed": "7"})
    return path.read_bytes()


def test_every_truncated_checkpoint_raises_parse_error(tmp_path):
    blob = _small_checkpoint(tmp_path / "full.fsml")
    cut = tmp_path / "cut.fsml"
    for size in range(len(blob)):
        cut.write_bytes(blob[:size])
        with pytest.raises(ParseError):
            load_checkpoint(cut)


@settings(max_examples=200, deadline=None, database=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_corrupt_checkpoint_loads_or_raises_fsml_error(tmp_path, data):
    blob = _small_checkpoint(tmp_path / "full.fsml")
    at = data.draw(st.integers(0, len(blob) - 1), label="offset")
    byte = data.draw(st.integers(0, 255).filter(lambda b: b != blob[at]), label="byte")
    flipped = tmp_path / "flipped.fsml"
    flipped.write_bytes(blob[:at] + bytes([byte]) + blob[at + 1:])
    try:
        load_checkpoint(flipped)
    except FsmlError:
        pass


def test_pack_batch_shapes():
    samples = [
        parcel([3, 9], {"s2": [[0.1, 0.2], [0.3, 0.4]]}, "a"),
        parcel([5], {"s2": [[0.5, 0.6]]}, "b"),
    ]
    values, days, mask = nn.pack_batch(samples, ["s2"])
    assert values.shape == (2, 2, 2)
    assert days.tolist() == [[3, 9], [5, 1]]
    assert mask.tolist() == [[True, True], [True, False]]
    assert np.all(values[1, 1] == 0.0)


def test_pack_batch_bytes_are_pinned():
    """Values, days and mask of a ragged two-group batch, packed in an order
    other than the parcels' own, recorded before ``pack_batch`` packed one
    group at a time."""
    rng = np.random.default_rng(41)
    samples = [
        parcel(np.sort(rng.choice(np.arange(1, 367), n, replace=False)),
               {"s1": rng.normal(size=(n, 2)), "s2": rng.normal(size=(n, 3))}, f"p{i}")
        for i, n in enumerate([4, 1, 7, 3])
    ]
    assert array_digest(*nn.pack_batch(samples, ["s2", "s1"])) == "1d23271b2bf63b7834dd011c1f22ea04f69fe08b5a701c0430dab4ded6df30c1"
