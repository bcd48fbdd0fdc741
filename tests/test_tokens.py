import numpy as np
import pytest

from fsml.data import GroupSpec, Observation, ParcelSample
from fsml.errors import ContractError, DegenerateInputError, SequenceLengthError
from fsml.nn import sinusoidal_encoding
from fsml.seeding import rng_from
from fsml.tokens import (
    compute_ndvi,
    encode_tokens,
    group_spec,
    month_of,
    presto_regime,
    temporal_encoding,
    token_params,
    xts_regime,
)


def sample_with(days, groups, rng, static=None):
    observations = [
        Observation(
            day=int(d),
            channels={g.name: rng.random(g.channels) for g in groups if g.kind == "dynamic"},
        )
        for d in days
    ]
    return ParcelSample("p0", observations, 0.1, 0.2, "R1", "101010", "train")


def test_month_of_examples():
    assert month_of(1) == 1
    assert month_of(31) == 1
    assert month_of(32) == 2
    assert month_of(366) == 12
    assert month_of(60) == 2  # leap-year Feb 29
    assert month_of(61) == 3
    with pytest.raises(ContractError):
        month_of(0)
    with pytest.raises(ContractError):
        month_of(367)


def test_ndvi_examples():
    assert compute_ndvi(0.3, 0.3) == 0.0
    assert compute_ndvi(0.0, 0.4) == 1.0
    assert compute_ndvi(0.2, 0.6) == pytest.approx(0.5)
    with pytest.raises(DegenerateInputError):
        compute_ndvi(0.0, 0.0)


def test_regime_slice_widths():
    for d_emb in (64, 128, 256):
        presto = presto_regime(d_emb)
        assert presto.d_sin == d_emb // 2
        assert presto.d_month == d_emb // 4
        assert presto.d_channel == d_emb // 4
        assert presto.d_sin + presto.d_month + presto.d_channel == d_emb
        xts = xts_regime(d_emb)
        assert xts.d_month == 0
        assert xts.d_sin == 3 * d_emb // 4
        assert xts.d_channel == d_emb // 4
        assert xts.d_sin + xts.d_channel == d_emb
        for regime in (presto, xts):
            ch, sin, month = regime.slices()
            covered = set(range(d_emb))
            seen = set(range(*ch.indices(d_emb))) | set(range(*sin.indices(d_emb))) | set(range(*month.indices(d_emb)))
            assert seen == covered


def test_token_count_formula():
    spec = group_spec(
        ("location", 3, "static"), ("s1", 2, "dynamic"),
        ("s2", 4, "dynamic"), ("era5", 2, "dynamic"),
    )
    assert spec.token_count(12) == 37


def test_token_count_random_specs():
    rng = np.random.default_rng(0)
    for _ in range(50):
        n_static = int(rng.integers(0, 3))
        n_dynamic = int(rng.integers(1, 5))
        t = int(rng.integers(1, 20))
        groups = [(f"st{i}", int(rng.integers(1, 5)), "static") for i in range(n_static)]
        groups += [(f"dy{i}", int(rng.integers(1, 5)), "dynamic") for i in range(n_dynamic)]
        spec = group_spec(*groups)
        regime = xts_regime(16)
        params = token_params(rng_from(1, 0), spec, regime)
        sample = sample_with(
            np.sort(rng.choice(np.arange(1, 367), size=t, replace=False)),
            spec.groups, np.random.default_rng(3),
        )
        static_values = {f"st{i}": np.zeros(spec.groups[i].channels) for i in range(n_static)}
        seq = encode_tokens(sample, spec, regime, params, static_values)
        assert seq.tokens.shape == (n_static + n_dynamic * t, 16)


def test_zero_projection_token_equals_context():
    spec = group_spec(("s2", 3, "dynamic"))
    regime = presto_regime(16)
    rng = rng_from(0, 1)
    params = token_params(rng, spec, regime)
    params["proj/s2/w"].values[:] = 0.0  # bias already zero
    sample = sample_with([40, 70], spec.groups, np.random.default_rng(1))
    seq = encode_tokens(sample, spec, regime, params)
    temporal = temporal_encoding(regime, [40, 70])
    expected = np.concatenate(
        [np.tile(params["ctx/s2"].values, (2, 1)), temporal], axis=1
    )
    np.testing.assert_allclose(seq.tokens.values, expected, atol=0)


def test_identical_values_differ_only_in_sin_slice():
    spec = group_spec(("s2", 3, "dynamic"))
    regime = presto_regime(32)
    params = token_params(rng_from(0, 2), spec, regime)
    rng = np.random.default_rng(5)
    fixed = rng.random(3)
    # two days in the same calendar month: identical p_month rows
    sample = ParcelSample(
        "p0",
        [Observation(92, {"s2": fixed}), Observation(105, {"s2": fixed})],
        0.0, 0.0, "R1", "x", "train",
    )
    seq = encode_tokens(sample, spec, regime, params)
    delta = seq.tokens.values[0] - seq.tokens.values[1]
    ch, sin, month = regime.slices()
    assert np.any(delta[sin] != 0.0)
    assert np.all(delta[ch] == 0.0)
    assert np.all(delta[month] == 0.0)


def test_group_permutation_equivariance():
    groups = [("a", 2, "dynamic"), ("b", 3, "dynamic"), ("c", 1, "dynamic")]
    spec = group_spec(*groups)
    spec_perm = group_spec(groups[2], groups[0], groups[1])
    regime = xts_regime(16)
    params = token_params(rng_from(7, 0), spec, regime)
    rng = np.random.default_rng(2)
    sample = sample_with([10, 20, 30], spec.groups, rng)
    seq = encode_tokens(sample, spec, regime, params)
    seq_perm = encode_tokens(sample, spec_perm, regime, params)
    t = 3
    blocks = {name: seq.tokens.values[i * t : (i + 1) * t] for i, name in enumerate("abc")}
    blocks_perm = {
        name: seq_perm.tokens.values[i * t : (i + 1) * t]
        for i, name in enumerate("cab")
    }
    for name in "abc":
        np.testing.assert_allclose(blocks_perm[name], blocks[name], atol=0)


def test_sin_positions_unique_over_year():
    regime = xts_regime(64)
    table = np.stack([sinusoidal_encoding(p, regime.d_sin) for p in range(366)])
    assert len(np.unique(table.round(12), axis=0)) == 366


@pytest.mark.parametrize("regime", [presto_regime(16), presto_regime(128), xts_regime(16), xts_regime(128)],
                         ids=["presto16", "presto128", "xts16", "xts128"])
def test_temporal_encoding_equals_row_formula(regime):
    days = [1, 31, 32, 60, 61, 200, 335, 366][: regime.max_timesteps]
    if regime.position_source == "ordinal":
        positions = range(len(days))
    else:
        positions = [d - 1 for d in days]
    rows = [sinusoidal_encoding(p, regime.d_sin) for p in positions]
    if regime.d_month:
        months = [sinusoidal_encoding(month_of(d) - 1, regime.d_month) for d in days]
        rows = [np.concatenate(pair) for pair in zip(rows, months)]
    assert np.array_equal(temporal_encoding(regime, days), np.stack(rows))


@pytest.mark.parametrize("regime", [presto_regime(16), xts_regime(16)], ids=["presto", "xts"])
def test_temporal_encoding_rejects_day_zero(regime):
    with pytest.raises(ContractError, match="day_of_year 0"):
        temporal_encoding(regime, [0, 10])


def test_channel_count_mismatch_rejected():
    spec = group_spec(("s2", 4, "dynamic"))
    regime = xts_regime(16)
    params = token_params(rng_from(0, 3), spec, regime)
    bad = ParcelSample(
        "p0", [Observation(10, {"s2": np.zeros(3)})], 0.0, 0.0, "R1", "x", "train"
    )
    with pytest.raises(ContractError, match="channels"):
        encode_tokens(bad, spec, regime, params)


def test_timestep_overflow_rejected():
    spec = group_spec(("s2", 2, "dynamic"))
    regime = presto_regime(16, max_timesteps=4)
    params = token_params(rng_from(0, 4), spec, regime)
    sample = sample_with([1, 2, 3, 4, 5], spec.groups, np.random.default_rng(0))
    with pytest.raises(SequenceLengthError):
        encode_tokens(sample, spec, regime, params)


def test_categorical_group_is_embedding_lookup():
    g = GroupSpec("landcover", 5, "dynamic", categorical=True)
    spec = group_spec(g)
    regime = xts_regime(16)
    params = token_params(rng_from(0, 5), spec, regime)
    sample = ParcelSample(
        "p0",
        [Observation(10, {"landcover": np.array([3])}),
         Observation(40, {"landcover": np.array([0])})],
        0.0, 0.0, "R1", "x", "train",
    )
    seq = encode_tokens(sample, spec, regime, params)
    # one-hot x matrix == direct row lookup
    onehot = np.zeros((2, 5))
    onehot[0, 3] = onehot[1, 0] = 1.0
    expected = onehot @ params["proj/landcover/w"].values
    ctx_block = np.concatenate(
        [np.tile(params["ctx/landcover"].values, (2, 1)), temporal_encoding(regime, [10, 40])],
        axis=1,
    )
    np.testing.assert_allclose(seq.tokens.values, expected + ctx_block, atol=1e-15)


def test_static_group_has_zero_temporal_encoding():
    spec = group_spec(("location", 3, "static"), ("s2", 2, "dynamic"))
    regime = presto_regime(16)
    params = token_params(rng_from(0, 6), spec, regime)
    sample = sample_with([15, 75], spec.groups, np.random.default_rng(4))
    seq = encode_tokens(
        sample, spec, regime, params, static_values={"location": np.array([1.0, 0.0, 0.0])}
    )
    assert seq.time_index[0] == -1
    static_token = seq.tokens.values[0]
    raw = np.array([1.0, 0.0, 0.0])
    projected = raw @ params["proj/location/w"].values + params["proj/location/b"].values
    ch, sin, month = regime.slices()
    np.testing.assert_allclose(
        static_token[ch], projected[ch] + params["ctx/location"].values
    )
    np.testing.assert_allclose(static_token[sin], projected[sin])
    np.testing.assert_allclose(static_token[month], projected[month])
