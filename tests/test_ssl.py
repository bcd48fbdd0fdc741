import numpy as np
import pytest

from conftest import parcel
from fsml import nn, ssl
from fsml.data import (
    GroupSpec,
    SynthConfig,
    generate_synthetic,
)
from fsml.errors import ContractError, DegenerateInputError
from fsml.seeding import STREAM_INIT, rng_from
from fsml.ssl import (
    MaskPlan,
    MaskedAutoencoder,
    SSLConfig,
    TokenClassifier,
    base_plan,
    build_mask,
    encode_token_batch,
    encoder_backbone,
    mae_step,
    normalization_stats,
    pretrain_ssl,
    reconstruction_loss,
    xts_plan,
)
from fsml.tensor import Tape, Tensor, grad
from fsml.tokens import group_spec, token_layout, xts_regime


SPEC1 = group_spec(("s2", 3, "dynamic"))
SPEC2 = group_spec(("s1", 2, "dynamic"), ("s2", 3, "dynamic"))


def test_mask_plan_validation():
    with pytest.raises(ContractError):
        MaskPlan("diagonal", 0.5, False)
    with pytest.raises(ContractError):
        MaskPlan("random", 1.0, False)
    assert base_plan().target_ratio == 0.75 and not base_plan().strict
    assert xts_plan().target_ratio == 0.70 and xts_plan().strict


def test_base_mixed_masks_exact_fraction_for_all_sizes():
    spec = group_spec(("only", 1, "dynamic"))
    plan = base_plan("mixed")
    for n in range(8, 513):
        rng = rng_from(0, n)
        mask = build_mask(plan, spec, n, rng)
        assert mask.sum() == int(np.floor(0.75 * n)), f"N={n}"


def test_base_mixed_masks_exact_fraction_multi_group():
    spec = group_spec(("location", 3, "static"), ("s1", 2, "dynamic"), ("s2", 4, "dynamic"))
    plan = base_plan("mixed")
    for t in range(4, 40):
        n = spec.token_count(t)
        mask = build_mask(plan, spec, t, rng_from(1, t))
        assert mask.sum() == int(np.floor(0.75 * n))


def test_xts_strict_never_tops_up():
    plan = xts_plan("channel_groups")
    # four equal dynamic groups: structured mask covers exactly two of them
    spec = group_spec(*[(f"g{i}", 2, "dynamic") for i in range(4)])
    for trial in range(30):
        mask = build_mask(plan, spec, 10, rng_from(2, trial))
        assert mask.sum() == 20  # 50% of 40 tokens, untouched by top-up
    for strategy in ("random", "contiguous_timesteps", "random_timesteps", "channel_groups"):
        for trial in range(20):
            mask = build_mask(xts_plan(strategy), SPEC2, 12, rng_from(3, trial))
            assert mask.sum() <= int(np.ceil(0.70 * SPEC2.token_count(12)))


def test_channel_groups_strategy_masks_whole_groups():
    plan = MaskPlan("channel_groups", 0.5, strict=True)
    spec = SPEC2
    t = 8
    mask = build_mask(plan, spec, t, rng_from(4, 0))
    _, group_index, _, _ = token_layout(spec, [t])
    for gi in np.unique(group_index):
        cells = mask[group_index == gi]
        assert cells.all() or not cells.any()


def test_contiguous_strategy_masks_one_window():
    plan = MaskPlan("contiguous_timesteps", 0.5, strict=True)
    t = 12
    mask = build_mask(plan, SPEC2, t, rng_from(5, 1))
    _, _, time_index, _ = token_layout(SPEC2, [t])
    masked_steps = sorted({int(ti) for ti, m in zip(time_index, mask) if m})
    assert masked_steps == list(range(masked_steps[0], masked_steps[-1] + 1))
    for step in masked_steps:  # all dynamic groups masked at each chosen step
        assert mask[time_index == step].all()


def test_padding_tokens_never_masked():
    plan = base_plan("random")
    pad = np.zeros(SPEC1.token_count(10), dtype=bool)
    pad[7:] = True
    mask = build_mask(plan, SPEC1, 10, rng_from(6, 0), padding=pad)
    assert not mask[pad].any()
    assert mask.sum() == int(np.floor(0.75 * 7))


@pytest.mark.parametrize("strategy", ssl.PLAN_STRATEGIES)
def test_batch_masks_equal_per_sample_masks(strategy):
    # the batch's token layout, built once, gives each sample's own mask
    spec = group_spec(("location", 3, "static"), ("s1", 2, "dynamic"), ("s2", 3, "dynamic"))
    samples = _samples(6, np.random.default_rng(12), spec=spec, t=(3, 11))
    lengths = [len(s.days) for s in samples]
    assert len(set(lengths)) > 1
    pad = token_layout(spec, lengths)[3]
    for plan in (base_plan(strategy), xts_plan(strategy)):
        for trial in range(5):
            batch = ssl._batch_masks(plan, spec, samples, rng_from(13, trial))
            rng = rng_from(13, trial)
            drawn = ssl.resolve_strategy(plan, rng)
            alone = [build_mask(plan, spec, max(lengths), rng, padding=row, strategy=drawn)
                     for row in pad]
            np.testing.assert_array_equal(batch, np.stack(alone))


def _tiny_model(variant="self_attention", spec=SPEC1, regime=None):
    config = nn.TransformerConfig(16, 2, 32, 1, 1, 64)
    regime = regime or xts_regime(16, max_timesteps=64)
    return MaskedAutoencoder(config, spec, regime, variant)


def _samples(n, rng, spec=SPEC1, t=(5, 9)):
    out = []
    for i in range(n):
        count = int(rng.integers(t[0], t[1] + 1))
        days = np.sort(rng.choice(np.arange(1, 60), size=count, replace=False))
        rows = [{g.name: rng.random(g.channels) for g in spec.dynamic_groups} for _ in days]
        channels = {g.name: [r[g.name] for r in rows] for g in spec.dynamic_groups}
        out.append(parcel(days, channels, f"s{i}", 0.1, 0.2, label="101010"))
    return out


@pytest.mark.parametrize("variant", ["self_attention", "cross_attention"])
def test_loss_ignores_unmasked_reconstruction_cells(variant):
    model = _tiny_model(variant)
    rng = np.random.default_rng(0)
    samples = _samples(3, rng)
    params = model.init_params(rng_from(0, 1))
    batch = encode_token_batch(samples, model.spec, model.regime, params)
    t_max = max(len(s.days) for s in samples)
    masks = np.stack([
        build_mask(base_plan("random"), model.spec, t_max, rng_from(1, i), padding=batch.pad[i])
        for i in range(3)
    ])
    recon = model.reconstruct(params, batch, masks)
    base = reconstruction_loss(recon, batch, masks).item()
    perturbed = Tensor(recon.values.copy())
    unmasked = ~masks & ~batch.pad
    perturbed.values[unmasked] += 123.0
    shifted = reconstruction_loss(perturbed, batch, masks).item()
    assert shifted == pytest.approx(base, abs=1e-12)


def test_loss_invariant_to_masked_input_values():
    model = _tiny_model("cross_attention")
    rng = np.random.default_rng(1)
    samples = _samples(2, rng, t=(6, 6))
    params = model.init_params(rng_from(2, 1))
    batch = encode_token_batch(samples, model.spec, model.regime, params)
    masks = np.stack([
        build_mask(base_plan("random"), model.spec, 6, rng_from(3, i), padding=batch.pad[i])
        for i in range(2)
    ])
    recon_a = model.reconstruct(params, batch, masks).values
    # poison the network inputs at masked cells, keep targets fixed
    poisoned = Tensor(batch.tokens.values.copy())
    poisoned.values[masks] = 1e6
    batch_poisoned = ssl.TokenBatch(
        tokens=poisoned, context=batch.context, group_index=batch.group_index,
        time_index=batch.time_index, pad=batch.pad, targets=batch.targets,
        target_width=batch.target_width,
    )
    recon_b = model.reconstruct(params, batch_poisoned, masks).values
    np.testing.assert_allclose(recon_b, recon_a, atol=1e-12)
    loss_a = reconstruction_loss(model.reconstruct(params, batch, masks), batch, masks).item()
    loss_b = reconstruction_loss(
        model.reconstruct(params, batch_poisoned, masks), batch_poisoned, masks
    ).item()
    assert loss_a == pytest.approx(loss_b, abs=1e-12)


def test_single_masked_scalar_cell_loss():
    spec = group_spec(("v", 1, "dynamic"))
    model = _tiny_model("self_attention", spec=spec)
    rng = np.random.default_rng(2)
    samples = _samples(1, rng, spec=spec, t=(4, 4))
    params = model.init_params(rng_from(4, 1))
    batch = encode_token_batch(samples, spec, model.regime, params)
    masks = np.zeros((1, 4), dtype=bool)
    masks[0, 2] = True
    recon = model.reconstruct(params, batch, masks)
    r = recon.values[0, 2, 0]
    t = batch.targets[0, 2, 0]
    assert reconstruction_loss(recon, batch, masks).item() == pytest.approx((r - t) ** 2)


def test_zero_masked_cells_warns_and_returns_zero():
    model = _tiny_model()
    rng = np.random.default_rng(3)
    samples = _samples(2, rng)
    params = model.init_params(rng_from(5, 1))
    batch = encode_token_batch(samples, model.spec, model.regime, params)
    masks = np.zeros_like(batch.pad)
    recon = model.reconstruct(params, batch, masks)
    with pytest.warns(UserWarning, match="degenerate"):
        loss = reconstruction_loss(recon, batch, masks)
    assert loss.item() == 0.0


def test_all_tokens_masked_raises():
    model = _tiny_model()
    rng = np.random.default_rng(4)
    samples = _samples(1, rng, t=(5, 5))
    params = model.init_params(rng_from(6, 1))
    batch = encode_token_batch(samples, model.spec, model.regime, params)
    masks = np.ones_like(batch.pad)
    with pytest.raises(DegenerateInputError):
        model.reconstruct(params, batch, masks)


def test_cross_attention_masked_queries_independent():
    model = _tiny_model("cross_attention")
    rng = np.random.default_rng(5)
    samples = _samples(1, rng, t=(8, 8))
    params = model.init_params(rng_from(7, 1))
    batch = encode_token_batch(samples, model.spec, model.regime, params)
    masks = np.zeros((1, 8), dtype=bool)
    masks[0, [1, 4, 6]] = True
    recon = model.reconstruct(params, batch, masks).values
    # zero one masked token's query input (its contextual encoding)
    ctx = Tensor(batch.context.values.copy())
    ctx.values[0, 4, :] = -params["dec/mask_token"].values  # cancels the query
    batch_zeroed = ssl.TokenBatch(
        tokens=batch.tokens, context=ctx, group_index=batch.group_index,
        time_index=batch.time_index, pad=batch.pad, targets=batch.targets,
        target_width=batch.target_width,
    )
    recon_zeroed = model.reconstruct(params, batch_zeroed, masks).values
    np.testing.assert_allclose(recon_zeroed[0, 1], recon[0, 1], atol=1e-12)
    np.testing.assert_allclose(recon_zeroed[0, 6], recon[0, 6], atol=1e-12)
    assert not np.allclose(recon_zeroed[0, 4], recon[0, 4])


def test_encoder_output_shape_is_visible_tokens():
    model = _tiny_model()
    rng = np.random.default_rng(6)
    samples = _samples(1, rng, t=(7, 7))
    params = model.init_params(rng_from(8, 1))
    batch = encode_token_batch(samples, model.spec, model.regime, params)
    out = model.encode(params, batch, ~batch.pad)
    assert out.shape == (1, SPEC1.token_count(7), 16)


SPEC_LOC = group_spec(("location", 3, "static"), ("s1", 2, "dynamic"), ("s2", 3, "dynamic"))


def _mixed_batch(rng):
    return _samples(5, rng, spec=SPEC_LOC, t=(2, 9))


def test_parcel_alone_matches_mixed_batch():
    model = _tiny_model(spec=SPEC_LOC)
    rng = np.random.default_rng(11)
    samples = _mixed_batch(rng)
    params = model.init_params(rng_from(11, 1))
    stats = normalization_stats(samples, SPEC_LOC)
    batch = encode_token_batch(samples, SPEC_LOC, model.regime, params, stats)
    assert len({len(s.days) for s in samples}) > 1
    for i, sample in enumerate(samples):
        alone = encode_token_batch([sample], SPEC_LOC, model.regime, params, stats)
        assert not alone.pad.any()
        live = ~batch.pad[i]
        assert live.sum() == alone.pad.shape[1]
        np.testing.assert_allclose(batch.tokens.values[i, live], alone.tokens.values[0], rtol=0, atol=1e-12)
        np.testing.assert_allclose(batch.context.values[i, live], alone.context.values[0], rtol=0, atol=1e-12)
        np.testing.assert_array_equal(batch.targets[i, live], alone.targets[0])
        np.testing.assert_array_equal(batch.group_index[live], alone.group_index)
        np.testing.assert_array_equal(batch.time_index[live], alone.time_index)


def test_pad_rows_are_exactly_zero():
    model = _tiny_model(spec=SPEC_LOC)
    samples = _mixed_batch(np.random.default_rng(12))
    params = model.init_params(rng_from(12, 1))
    batch = encode_token_batch(samples, SPEC_LOC, model.regime, params)
    assert batch.pad.any()
    assert np.all(batch.tokens.values[batch.pad] == 0.0)
    assert np.all(batch.context.values[batch.pad] == 0.0)
    assert np.all(batch.targets[batch.pad] == 0.0)


def test_token_batch_tape_nodes_do_not_grow_with_batch():
    model = _tiny_model(spec=SPEC_LOC)
    rng = np.random.default_rng(13)
    samples = _samples(32, rng, spec=SPEC_LOC, t=(2, 9))
    params = model.init_params(rng_from(13, 1))
    counts = []
    for chunk in (samples[:2], samples):
        with Tape() as tape:
            encode_token_batch(chunk, SPEC_LOC, model.regime, params)
        counts.append(len(tape.nodes))
    assert counts[0] == counts[1]


def test_token_classifier_logits_ignore_batch_partners():
    spec = SPEC_LOC
    samples = _mixed_batch(np.random.default_rng(14))
    clf = TokenClassifier(
        nn.TransformerConfig(16, 2, 32, 1, 0, 64), spec, xts_regime(16, max_timesteps=16),
        stats=normalization_stats(samples, spec),
    )
    params = clf.init_params(rng_from(14, 1), n_classes=3)
    together = clf.logits(params.backbone, params.head, samples).values
    for i, sample in enumerate(samples):
        alone = clf.logits(params.backbone, params.head, [sample]).values
        np.testing.assert_allclose(together[i], alone[0], rtol=0, atol=1e-12)


def test_mae_step_produces_gradients_for_all_params():
    model = _tiny_model("cross_attention")
    rng = np.random.default_rng(7)
    samples = _samples(4, rng)
    params = model.init_params(rng_from(9, 1))
    loss, grads = mae_step(params, model, samples, base_plan("mixed"), rng_from(9, 2))
    assert np.isfinite(loss)
    assert set(grads) == set(params)
    assert any(np.abs(g).max() > 0 for g in grads.values())


def _assert_every_parameter_learns(grads):
    """Each parameter's max |grad| is above 1e-12 times the largest one."""
    top = {k: float(np.abs(g).max()) for k, g in grads.items()}
    largest = max(top.values())
    dead = [k for k, v in top.items() if v <= 1e-12 * largest]
    assert not dead, f"no gradient reaches {dead}"


def test_every_parameter_gets_a_gradient():
    """One batch through the raw-series model (transfer), the token
    classifier and the masked autoencoder with each decoder reaches every
    parameter.  The masking strategy is fixed: under channel_groups a batch
    can mask the whole location group, whose projection then gets none."""
    samples = _ssl_corpus().pretrain_pool()[:16]
    labels = np.arange(len(samples)) % 4
    config = nn.TransformerConfig(16, 2, 32, 1, 1, 366)
    spec = group_spec(("location", 3, "static"), ("s1", 2, "dynamic"), ("s2", 3, "dynamic"))
    regime = xts_regime(16, max_timesteps=16)
    stats = normalization_stats(samples, spec)
    raw = nn.RawSeriesModel(config, 5, ("s1", "s2"))
    for model in (raw, TokenClassifier(config, spec, regime, stats)):
        params = model.init_params(rng_from(3, 1), n_classes=4)
        named = params.named()
        with Tape():
            logits = model.logits(params.backbone, params.head, model.prepare(samples))
            grads = grad(nn.cross_entropy(logits, labels), list(named.values()))
        _assert_every_parameter_learns({k: g.values for k, g in zip(named, grads)})
    for variant in ("self_attention", "cross_attention"):
        model = MaskedAutoencoder(config, spec, regime, variant)
        params = model.init_params(rng_from(3, 2))
        _, grads = mae_step(params, model, samples, base_plan("random_timesteps"), rng_from(3, 3), stats)
        _assert_every_parameter_learns(grads)


def _ssl_corpus(seed=0):
    cfg = SynthConfig(
        regions=["R1", "R2"],
        finetune_region="T1",
        n_classes=4,
        n_level4=4,
        samples_per_class=30,
        finetune_samples_per_class=20,
        groups=[GroupSpec("s1", 2, "dynamic"), GroupSpec("s2", 3, "dynamic")],
        obs_count=(6, 10),
        noise_sigma=0.08,
        separability=1.0,
        k_max=5,
    )
    return generate_synthetic(cfg, seed=seed)


def test_pretrain_ssl_improves_and_is_deterministic():
    corpus = _ssl_corpus()
    model = MaskedAutoencoder(
        nn.TransformerConfig(16, 2, 32, 1, 1, 64),
        group_spec(("s1", 2, "dynamic"), ("s2", 3, "dynamic")),
        xts_regime(16, max_timesteps=16),
        "cross_attention",
    )
    config = SSLConfig(
        variant="cross_attention", plan=xts_plan("mixed"), learning_rate=3e-3,
        batch_size=16, validate_every=2, patience=15, max_batches=12,
    )
    params_a, stats_a, info_a = pretrain_ssl(corpus, model, config, seed=1)
    params_b, stats_b, info_b = pretrain_ssl(corpus, model, config, seed=1)
    assert info_a["trace"] == info_b["trace"]
    assert len(info_a["trace"]) >= 5
    losses = [row["val_loss"] for row in info_a["trace"]]
    assert min(losses) <= losses[0]
    assert all(np.isfinite(row["train_loss"]) for row in info_a["trace"])
    for k in params_a:
        np.testing.assert_array_equal(params_a[k].values, params_b[k].values)


def _cross_attention_run(max_batches):
    model = MaskedAutoencoder(
        nn.TransformerConfig(16, 2, 32, 1, 1, 64),
        group_spec(("s1", 2, "dynamic"), ("s2", 3, "dynamic")),
        xts_regime(16, max_timesteps=16),
        "cross_attention",
    )
    config = SSLConfig(
        variant="cross_attention", plan=xts_plan("mixed"), learning_rate=3e-3,
        batch_size=16, validate_every=2, max_batches=max_batches,
    )
    params, _, info = pretrain_ssl(_ssl_corpus(), model, config, seed=1)
    return model, params, info


@pytest.mark.parametrize("max_batches, validated", [(3, [2, 3]), (1, [1])])
def test_cut_pass_validates_after_its_last_batch(max_batches, validated):
    _, _, info = _cross_attention_run(max_batches)
    assert [row["batches_seen"] for row in info["trace"]] == validated
    assert info["best_at"] in validated


def test_pretrain_ssl_zero_batches_returns_initialization():
    model, params, info = _cross_attention_run(max_batches=0)
    init = model.init_params(rng_from(1, STREAM_INIT))
    assert sorted(params) == sorted(init)
    for k, v in params.items():
        np.testing.assert_array_equal(v.values, init[k].values)
    assert info["best_at"] == 0 and info["trace"] == []


def test_encoder_backbone_drops_decoder():
    model = _tiny_model()
    params = model.init_params(rng_from(10, 1))
    backbone = encoder_backbone(params)
    assert not any(k.startswith("dec") or k.startswith("recon/") for k in backbone)
    assert any(k.startswith("enc0/") for k in backbone)
    assert any(k.startswith("proj/") for k in backbone)


def test_token_classifier_forward_shapes():
    corpus = _ssl_corpus()
    spec = group_spec(("s1", 2, "dynamic"), ("s2", 3, "dynamic"))
    clf = TokenClassifier(
        nn.TransformerConfig(16, 2, 32, 1, 0, 64), spec, xts_regime(16, max_timesteps=16),
        stats=normalization_stats(corpus.pretrain_pool(), spec),
    )
    params = clf.init_params(rng_from(11, 1), n_classes=4)
    chunk = corpus.finetune_pool()[:5]
    logits = clf.logits(params.backbone, params.head, chunk)
    assert logits.shape == (5, 4)


@pytest.mark.parametrize("name", ["batch_size", "validate_every", "patience"])
def test_zero_batch_size_or_validation_interval_is_a_contract_error(name):
    with pytest.raises(ContractError, match=f"{name}: must be an integer >= 1"):
        SSLConfig(**{name: 0})
    assert SSLConfig(max_batches=0).max_batches == 0
