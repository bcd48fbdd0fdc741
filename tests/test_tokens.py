import numpy as np
import pytest

from conftest import parcel
from fsml.errors import ContractError, SequenceLengthError
from fsml.nn import sinusoidal_encoding
from fsml.seeding import rng_from
from fsml.tokens import (
    encode_tokens,
    group_spec,
    month_of,
    presto_regime,
    temporal_encoding,
    token_layout,
    token_params,
    xts_regime,
)


def sample_with(days, groups, rng, static=None):
    dynamic = [g for g in groups if g.kind == "dynamic"]
    rows = [{g.name: rng.random(g.channels) for g in dynamic} for _ in days]
    channels = {g.name: [r[g.name] for r in rows] for g in dynamic}
    return parcel(days, channels, lon=0.1, lat=0.2, label="101010")


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
        n_static = int(rng.integers(0, 2))
        n_dynamic = int(rng.integers(1, 5))
        t = int(rng.integers(1, 20))
        groups = [("location", 3, "static")] * n_static
        groups += [(f"dy{i}", int(rng.integers(1, 5)), "dynamic") for i in range(n_dynamic)]
        spec = group_spec(*groups)
        regime = xts_regime(16)
        params = token_params(rng_from(1, 0), spec, regime)
        sample = sample_with(
            np.sort(rng.choice(np.arange(1, 367), size=t, replace=False)),
            spec.groups, np.random.default_rng(3),
        )
        tokens, context, cells = encode_tokens([sample], spec, regime, params)
        assert tokens.shape == context.shape == (1, n_static + n_dynamic * t, 16)
        assert cells.shape == (1, spec.token_count(t), max(g.channels for g in spec.groups))


def test_token_layout_order_and_padding():
    spec = group_spec(("a", 2, "dynamic"), ("location", 3, "static"), ("b", 1, "dynamic"))
    order, group_index, time_index, pad = token_layout(spec, [2, 3])
    assert order == [1, 0, 2]
    assert group_index.tolist() == [1, 0, 0, 0, 2, 2, 2]
    assert time_index.tolist() == [-1, 0, 1, 2, 0, 1, 2]
    assert pad.tolist() == [
        [False, False, False, True, False, False, True],
        [False] * 7,
    ]


def test_batched_tokens_equal_row_formula():
    """Every live token is its group's projection plus [p_channel; temporal];
    rows past a sample's length are zero."""
    spec = group_spec(("location", 3, "static"), ("s1", 2, "dynamic"), ("s2", 3, "dynamic"))
    regime = presto_regime(16)
    params = token_params(rng_from(0, 7), spec, regime)
    rng = np.random.default_rng(8)
    samples = [sample_with(days, spec.groups, rng) for days in ([5, 40], [3, 90, 200, 300], [17])]
    for s in samples:
        s.lon = s.lat = 0.0  # the centroid's Cartesian vector is [1, 0, 0]
    tokens, context, cells = encode_tokens(samples, spec, regime, params)
    _, group_index, time_index, pad = token_layout(spec, [2, 4, 1])
    for b, sample in enumerate(samples):
        temporal = temporal_encoding(regime, sample.days)
        for n, (gi, t) in enumerate(zip(group_index, time_index)):
            g = spec.groups[gi]
            if pad[b, n]:
                assert not tokens.values[b, n].any() and not context.values[b, n].any()
                assert not cells[b, n].any()
                continue
            raw = np.array([1.0, 0.0, 0.0]) if t < 0 else sample.channels[g.name][t]
            ctx = np.concatenate([params[f"ctx/{g.name}"].values,
                                  np.zeros(12) if t < 0 else temporal[t]])
            projected = raw @ params[f"proj/{g.name}/w"].values + params[f"proj/{g.name}/b"].values
            np.testing.assert_array_equal(context.values[b, n], ctx)
            np.testing.assert_allclose(tokens.values[b, n], projected + ctx, rtol=0, atol=1e-15)
            np.testing.assert_array_equal(cells[b, n, : g.channels], raw)


def test_zero_projection_token_equals_context():
    spec = group_spec(("s2", 3, "dynamic"))
    regime = presto_regime(16)
    rng = rng_from(0, 1)
    params = token_params(rng, spec, regime)
    params["proj/s2/w"].values[:] = 0.0  # bias already zero
    sample = sample_with([40, 70], spec.groups, np.random.default_rng(1))
    tokens, context, _ = encode_tokens([sample], spec, regime, params)
    temporal = temporal_encoding(regime, [40, 70])
    expected = np.concatenate(
        [np.tile(params["ctx/s2"].values, (2, 1)), temporal], axis=1
    )
    np.testing.assert_allclose(tokens.values[0], expected, atol=0)
    np.testing.assert_array_equal(context.values[0], expected)


def test_identical_values_differ_only_in_sin_slice():
    spec = group_spec(("s2", 3, "dynamic"))
    regime = presto_regime(32)
    params = token_params(rng_from(0, 2), spec, regime)
    rng = np.random.default_rng(5)
    fixed = rng.random(3)
    # two days in the same calendar month: identical p_month rows
    sample = parcel([92, 105], {"s2": [fixed, fixed]})
    tokens, _, _ = encode_tokens([sample], spec, regime, params)
    delta = tokens.values[0, 0] - tokens.values[0, 1]
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
    samples = [sample_with([10, 20, 30], spec.groups, rng), sample_with([5, 50], spec.groups, rng)]
    tokens = encode_tokens(samples, spec, regime, params)[0].values
    tokens_perm = encode_tokens(samples, spec_perm, regime, params)[0].values
    t = 3
    blocks = {name: tokens[:, i * t : (i + 1) * t] for i, name in enumerate("abc")}
    blocks_perm = {name: tokens_perm[:, i * t : (i + 1) * t] for i, name in enumerate("cab")}
    for name in "abc":
        np.testing.assert_allclose(blocks_perm[name], blocks[name], atol=0)


def test_sin_positions_unique_over_year():
    regime = xts_regime(64)
    table = np.stack([sinusoidal_encoding(p, regime.d_sin) for p in range(366)])
    assert len(np.unique(table.round(12), axis=0)) == 366


@pytest.mark.parametrize("regime", [presto_regime(16), presto_regime(128), xts_regime(16), xts_regime(128)],
                         ids=["presto16", "presto128", "xts16", "xts128"])
def test_temporal_encoding_equals_row_formula(regime):
    def rows_for(days):
        if regime.position_source == "ordinal":
            positions = range(len(days))
        else:
            positions = [d - 1 for d in days]
        rows = [sinusoidal_encoding(p, regime.d_sin) for p in positions]
        if regime.d_month:
            months = [sinusoidal_encoding(month_of(d) - 1, regime.d_month) for d in days]
            rows = [np.concatenate(pair) for pair in zip(rows, months)]
        return np.stack(rows)

    days = [1, 31, 32, 60, 61, 200, 335, 366][: regime.max_timesteps]
    assert np.array_equal(temporal_encoding(regime, days), rows_for(days))
    batched = temporal_encoding(regime, [days, days[::-1]])
    assert np.array_equal(batched, np.stack([rows_for(days), rows_for(days[::-1])]))


@pytest.mark.parametrize("regime", [presto_regime(16), xts_regime(16)], ids=["presto", "xts"])
def test_temporal_encoding_rejects_day_zero(regime):
    with pytest.raises(ContractError, match="day_of_year 0"):
        temporal_encoding(regime, [0, 10])


def test_channel_count_mismatch_rejected():
    spec = group_spec(("s2", 4, "dynamic"))
    regime = xts_regime(16)
    params = token_params(rng_from(0, 3), spec, regime)
    good = sample_with([10], spec.groups, np.random.default_rng(0))
    bad = parcel([10], {"s2": np.zeros((1, 3))})
    with pytest.raises(ContractError, match="channels"):
        encode_tokens([good, bad], spec, regime, params)


def test_missing_dynamic_group_rejected():
    spec = group_spec(("s1", 2, "dynamic"), ("s2", 4, "dynamic"))
    params = token_params(rng_from(0, 3), spec, xts_regime(16))
    bad = parcel([10], {"s1": np.zeros((1, 2))})
    with pytest.raises(ContractError, match="s2 missing"):
        encode_tokens([bad], spec, xts_regime(16), params)


def test_timestep_overflow_rejected():
    spec = group_spec(("s2", 2, "dynamic"))
    regime = presto_regime(16, max_timesteps=4)
    params = token_params(rng_from(0, 4), spec, regime)
    rng = np.random.default_rng(0)
    samples = [sample_with([1, 2], spec.groups, rng), sample_with([1, 2, 3, 4, 5], spec.groups, rng)]
    with pytest.raises(SequenceLengthError):
        encode_tokens(samples, spec, regime, params)


def test_static_group_has_zero_temporal_encoding():
    spec = group_spec(("location", 3, "static"), ("s2", 2, "dynamic"))
    regime = presto_regime(16)
    params = token_params(rng_from(0, 6), spec, regime)
    sample = sample_with([15, 75], spec.groups, np.random.default_rng(4))
    sample.lon = sample.lat = 0.0  # the centroid's Cartesian vector is [1, 0, 0]
    tokens, _, cells = encode_tokens([sample], spec, regime, params)
    _, _, time_index, _ = token_layout(spec, [2])
    assert time_index[0] == -1
    static_token = tokens.values[0, 0]
    raw = np.array([1.0, 0.0, 0.0])
    np.testing.assert_array_equal(cells[0, 0], raw)
    projected = raw @ params["proj/location/w"].values + params["proj/location/b"].values
    ch, sin, month = regime.slices()
    np.testing.assert_allclose(
        static_token[ch], projected[ch] + params["ctx/location"].values
    )
    np.testing.assert_allclose(static_token[sin], projected[sin])
    np.testing.assert_allclose(static_token[month], projected[month])


def test_unknown_static_group_rejected():
    spec = group_spec(("elevation", 1, "static"), ("s2", 2, "dynamic"))
    params = token_params(rng_from(0, 6), spec, xts_regime(16))
    sample = sample_with([15], spec.groups, np.random.default_rng(4))
    with pytest.raises(ContractError, match="no provider for static group 'elevation'"):
        encode_tokens([sample], spec, xts_regime(16), params)
