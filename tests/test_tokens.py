import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import fsml
from conftest import array_digest, parcel
from fsml.errors import ContractError, SequenceLengthError
from fsml.nn import sinusoidal_encoding
from fsml.seeding import rng_from
from fsml.ssl import encode_token_batch
from fsml.tokens import (
    embed_tokens,
    group_spec,
    month_of,
    pack_tokens,
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
        batch = encode_token_batch([sample], spec, regime, params)
        assert batch.tokens.shape == batch.context.shape == (1, n_static + n_dynamic * t, 16)
        assert batch.targets.shape == (1, spec.token_count(t), max(g.channels for g in spec.groups))


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
    batch = encode_token_batch(samples, spec, regime, params)
    tokens, context, cells = batch.tokens, batch.context, batch.targets
    group_index, time_index, pad = batch.group_index, batch.time_index, batch.pad
    for got, expected in zip((group_index, time_index, pad), token_layout(spec, [2, 4, 1])[1:]):
        np.testing.assert_array_equal(got, expected)
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


@pytest.mark.parametrize("regime, with_stats, digest", [
    (presto_regime(16), False, "61a56ec024ba4d04cfcfb0f8f2e3e4a8d73d5bc1879384ea3395e504ae8c5a20"),
    (presto_regime(16), True, "971a9a1f220ad9d013534e73a38e96ed4dae14d168251e42877026f45aac8175"),
    (xts_regime(16), False, "06fc702a6dcd5d076f2bbe28ca878ae7bd539d2992c635039339ccaa402861ad"),
    (xts_regime(16), True, "609585a1c15dec13b6d96f2f613fa0923ed18b4f0ef5ca2f4a50bddf7c27cc53"),
], ids=["presto", "presto-stats", "xts", "xts-stats"])
def test_encoded_tokens_are_pinned(regime, with_stats, digest):
    """Tokens, contexts and cells of a ragged batch with a location token,
    recorded before the encoder packed through ``nn.pack_batch``.  The bits
    depend on the NumPy and BLAS build; re-record them on another."""
    spec = group_spec(("location", 3, "static"), ("s1", 2, "dynamic"), ("s2", 3, "dynamic"))
    params = token_params(rng_from(5, 0), spec, regime)
    rng = np.random.default_rng(17)
    samples = []
    for n in (3, 9, 1, 6):
        sample = sample_with(np.sort(rng.choice(np.arange(1, 367), n, replace=False)),
                             spec.groups, rng)
        sample.lon, sample.lat = rng.uniform(-np.pi, np.pi), rng.uniform(-np.pi / 2, np.pi / 2)
        samples.append(sample)
    stats = None
    if with_stats:
        stats = {g.name: (rng.normal(size=g.channels), rng.uniform(0.5, 2.0, g.channels))
                 for g in spec.dynamic_groups}
    batch = encode_token_batch(samples, spec, regime, params, stats)
    assert array_digest(batch.tokens.values, batch.context.values, batch.targets) == digest


def _ragged_split(spec, rng, lengths):
    samples = []
    for n in lengths:
        sample = sample_with(np.sort(rng.choice(np.arange(1, 367), n, replace=False)), spec.groups, rng)
        sample.lon, sample.lat = rng.uniform(-np.pi, np.pi), rng.uniform(-np.pi / 2, np.pi / 2)
        samples.append(sample)
    return samples


@pytest.mark.parametrize("regime", [presto_regime(16), xts_regime(16)], ids=["presto", "xts"])
@pytest.mark.parametrize("with_stats", [False, True], ids=["raw", "stats"])
def test_a_batch_taken_from_a_pack_equals_encoding_it_alone(regime, with_stats):
    """A split packed once, then taken in ragged batches, gives the tokens,
    contexts, cells and layout of ``encode_token_batch`` on each batch's own
    sample list, bit for bit; so do a batch whose longest series is shorter
    than the split's, a one-parcel batch and the whole split in order."""
    spec = group_spec(("location", 3, "static"), ("s1", 2, "dynamic"), ("s2", 3, "dynamic"))
    params = token_params(rng_from(5, 1), spec, regime)
    rng = np.random.default_rng(23)
    split = _ragged_split(spec, rng, [5, 12, 1, 7, 12, 3, 9, 2, 6, 4])
    stats = None
    if with_stats:
        stats = {g.name: (rng.normal(size=g.channels), rng.uniform(0.5, 2.0, g.channels))
                 for g in spec.dynamic_groups}
    pack = pack_tokens(split, spec, regime, stats)
    batches = [rng.permutation(len(split))[: int(rng.integers(2, len(split)))] for _ in range(6)]
    batches += [np.array([3, 0, 7]), np.array([2]), np.arange(len(split))]
    assert max(len(split[i].days) for i in batches[-3]) < 12  # shorter than the split's longest
    for idx in batches:
        inputs = pack.take(idx)
        tokens, context = embed_tokens(inputs, spec, regime, params)
        alone = encode_token_batch([split[i] for i in idx], spec, regime, params, stats)
        assert array_digest(tokens.values, context.values, inputs.cells, *inputs.layout[1:]) == \
            array_digest(alone.tokens.values, alone.context.values, alone.targets,
                         alone.group_index, alone.time_index, alone.pad)
        assert inputs.layout[0] == token_layout(spec, [len(split[i].days) for i in idx])[0]


def test_zero_projection_token_equals_context():
    spec = group_spec(("s2", 3, "dynamic"))
    regime = presto_regime(16)
    rng = rng_from(0, 1)
    params = token_params(rng, spec, regime)
    params["proj/s2/w"].values[:] = 0.0  # bias already zero
    sample = sample_with([40, 70], spec.groups, np.random.default_rng(1))
    batch = encode_token_batch([sample], spec, regime, params)
    tokens, context = batch.tokens, batch.context
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
    tokens = encode_token_batch([sample], spec, regime, params).tokens
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
    tokens = encode_token_batch(samples, spec, regime, params).tokens.values
    tokens_perm = encode_token_batch(samples, spec_perm, regime, params).tokens.values
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
        encode_token_batch([good, bad], spec, regime, params)


def test_missing_dynamic_group_rejected():
    spec = group_spec(("s1", 2, "dynamic"), ("s2", 4, "dynamic"))
    params = token_params(rng_from(0, 3), spec, xts_regime(16))
    bad = parcel([10], {"s1": np.zeros((1, 2))})
    with pytest.raises(ContractError, match="s2 missing"):
        encode_token_batch([bad], spec, xts_regime(16), params)


def test_timestep_overflow_rejected():
    spec = group_spec(("s2", 2, "dynamic"))
    regime = presto_regime(16, max_timesteps=4)
    params = token_params(rng_from(0, 4), spec, regime)
    rng = np.random.default_rng(0)
    samples = [sample_with([1, 2], spec.groups, rng), sample_with([1, 2, 3, 4, 5], spec.groups, rng)]
    with pytest.raises(SequenceLengthError):
        encode_token_batch(samples, spec, regime, params)


def test_static_group_has_zero_temporal_encoding():
    spec = group_spec(("location", 3, "static"), ("s2", 2, "dynamic"))
    regime = presto_regime(16)
    params = token_params(rng_from(0, 6), spec, regime)
    sample = sample_with([15, 75], spec.groups, np.random.default_rng(4))
    sample.lon = sample.lat = 0.0  # the centroid's Cartesian vector is [1, 0, 0]
    batch = encode_token_batch([sample], spec, regime, params)
    cells = batch.targets
    assert batch.time_index[0] == -1
    static_token = batch.tokens.values[0, 0]
    raw = np.array([1.0, 0.0, 0.0])
    np.testing.assert_array_equal(cells[0, 0], raw)
    projected = raw @ params["proj/location/w"].values + params["proj/location/b"].values
    ch, sin, month = regime.slices()
    np.testing.assert_allclose(
        static_token[ch], projected[ch] + params["ctx/location"].values
    )
    np.testing.assert_allclose(static_token[sin], projected[sin])
    np.testing.assert_allclose(static_token[month], projected[month])


@pytest.mark.parametrize("channels", [1, 2, 4])
def test_location_group_of_another_width_rejected(channels):
    with pytest.raises(ContractError, match=f"static group location: declares {channels} channels, needs 3"):
        group_spec(("location", channels, "static"), ("s2", 2, "dynamic"))
    group_spec(("location", channels, "dynamic"))  # a dynamic group of that name is a data source


def test_unknown_static_group_rejected():
    spec = group_spec(("elevation", 1, "static"), ("s2", 2, "dynamic"))
    params = token_params(rng_from(0, 6), spec, xts_regime(16))
    sample = sample_with([15], spec.groups, np.random.default_rng(4))
    with pytest.raises(ContractError, match="no provider for static group 'elevation'"):
        encode_token_batch([sample], spec, xts_regime(16), params)


def test_token_encoding_does_not_load_meta_learning():
    src = str(Path(fsml.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    code = "import sys, fsml.ssl, fsml.tokens; print(sorted(sys.modules))"
    loaded = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": path},
                            capture_output=True, text=True, check=True).stdout
    assert "'fsml.tokens'" in loaded
    assert "'fsml.meta'" not in loaded and "'fsml.episodes'" not in loaded
