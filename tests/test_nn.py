import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import assert_grads_close, finite_diff, pad_batch, parcel
from fsml import nn
from fsml import tensor as T
from fsml.errors import ContractError, DegenerateInputError, FsmlError, ParseError, SequenceLengthError
from fsml.nn import (
    ModelParams,
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


def test_raw_model_builds_positional_table_once(rng, monkeypatch):
    builds = []

    def counting_table(max_len, dim):
        builds.append((max_len, dim))
        return sinusoidal_table(max_len, dim)

    monkeypatch.setattr(nn, "_POSITIONAL_TABLES", {})
    monkeypatch.setattr(nn, "sinusoidal_table", counting_table)
    model = RawSeriesModel(CFG, 3)
    params = model.init_params(rng, 2)
    batch = _raw_batch(rng, [4, 2], 3)
    first = model.logits(params.backbone, params.head, batch).values
    second = model.logits(params.backbone, params.head, batch).values
    assert builds == [(CFG.max_seq_len, CFG.embed_dim)]
    np.testing.assert_array_equal(first, second)


def test_raw_model_logits_ignore_padding(rng):
    model = RawSeriesModel(CFG, 3)
    params = model.init_params(rng, 4)
    batch = _raw_batch(rng, [5, 1, 3], 3)
    padded = pad_batch(batch, CFG.max_seq_len)
    plain = model.logits(params.backbone, params.head, batch).values
    full = model.logits(params.backbone, params.head, padded).values
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


def test_classify_examples():
    head = {"w": Tensor(np.zeros((4, 3))), "b": Tensor(np.zeros(3))}
    logits = classify(head, Tensor(np.ones((1, 4))))
    assert np.all(logits.values == 0.0)
    np.testing.assert_allclose(T.softmax(logits).values, np.full((1, 3), 1 / 3))

    head = {"w": Tensor(np.eye(4)), "b": Tensor(np.zeros(4))}
    emb = np.array([[0.3, -1.0, 2.0, 0.1]])
    np.testing.assert_allclose(classify(head, Tensor(emb)).values, emb)

    head = {"w": Tensor(np.eye(2)), "b": Tensor(np.zeros(2))}
    logits = classify(head, Tensor([[2.0, 1.0]]))
    np.testing.assert_allclose(logits.values, [[2.0, 1.0]])
    np.testing.assert_allclose(
        T.softmax(logits).values, [[0.7311, 0.2689]], atol=1e-4
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
    params = model.init_params(rng, n_classes=3)
    values = rng.standard_normal((2, 3, 3))
    days = np.array([[1, 4, 7], [2, 3, 6]])
    mask = np.ones((2, 3), dtype=bool)
    labels = np.array([0, 2])
    names = sorted(params.named())

    def loss_from(arrays):
        p = ModelParams(
            backbone={
                k.split("/", 1)[1]: Tensor(a)
                for k, a in zip(names, arrays)
                if k.startswith("backbone/")
            },
            head={
                k.split("/", 1)[1]: Tensor(a)
                for k, a in zip(names, arrays)
                if k.startswith("head/")
            },
        )
        logits = model.logits(p.backbone, p.head, (values, days, mask))
        return cross_entropy(logits, labels).item()

    arrays = [params.named()[k].values.copy() for k in names]
    with Tape():
        tensors = {k: Tensor(a) for k, a in zip(names, arrays)}
        p = ModelParams(
            backbone={k.split("/", 1)[1]: t for k, t in tensors.items() if k.startswith("backbone/")},
            head={k.split("/", 1)[1]: t for k, t in tensors.items() if k.startswith("head/")},
        )
        logits = model.logits(p.backbone, p.head, (values, days, mask))
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
    params = model.init_params(rng, n_classes=3)
    values = rng.standard_normal((2, 3, 2))
    days = np.array([[1, 4, 7], [2, 3, 6]])
    mask = np.ones((2, 3), dtype=bool)
    labels = np.array([0, 2])
    names = sorted(params.named())
    direction = {k: rng.standard_normal(params.named()[k].shape) for k in names}

    def loss_of(tensors):
        backbone = {k.split("/", 1)[1]: v for k, v in tensors.items() if k.startswith("backbone/")}
        head = {k.split("/", 1)[1]: v for k, v in tensors.items() if k.startswith("head/")}
        return cross_entropy(model.logits(backbone, head, (values, days, mask)), labels)

    def gradient_at(arrays):
        with Tape():
            tensors = {k: Tensor(a) for k, a in arrays.items()}
            gs = grad(loss_of(tensors), [tensors[k] for k in names])
        return np.concatenate([g.values.reshape(-1) for g in gs])

    base = {k: params.named()[k].values.copy() for k in names}
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
    params = model.init_params(rng, n_classes=4)
    values = rng.standard_normal((1, 4, 2))
    days = np.array([[10, 50, 90, 200]])
    mask = np.ones((1, 4), dtype=bool)
    emb_before = model.embeddings(params.backbone, (values, days, mask)).values
    logits_before = classify(params.head, Tensor(emb_before)).values
    params.head = nn.new_head(rng, config.embed_dim, 4)
    emb_after = model.embeddings(params.backbone, (values, days, mask)).values
    logits_after = classify(params.head, Tensor(emb_after)).values
    np.testing.assert_allclose(emb_after, emb_before)
    assert not np.allclose(logits_after, logits_before)
    assert set(params.head) == {"w", "b"}


@pytest.mark.parametrize("days, named", [([[0, 5, 9]], "0"), ([[3, -5, 0]], "-5")])
def test_day_below_one_is_a_contract_error(rng, days, named):
    model = RawSeriesModel(CFG, in_channels=2)
    with pytest.raises(ContractError, match=f"day index {named} is below 1"):
        model._positions(days)
    params = model.init_params(rng, n_classes=2)
    batch = (rng.standard_normal((1, 3, 2)), np.array(days), np.ones((1, 3), dtype=bool))
    with pytest.raises(ContractError):
        model.logits(params.backbone, params.head, batch)


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
