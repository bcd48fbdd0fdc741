import math

import numpy as np
import pytest

from fsml import nn, tokens, train
from fsml.data import GroupSpec, SynthConfig, generate_synthetic, subset_by_split
from fsml.episodes import episode_pool, sample_episode
from fsml.errors import ContractError, DivergedError
from fsml.meta import MetaConfig, MetaLearner
from fsml.nn import RawSeriesModel
from fsml.seeding import rng_from
from fsml.ssl import MaskedAutoencoder, TokenClassifier, mae_step, normalization_stats, xts_plan
from fsml.tensor import Tensor
from fsml.tokens import group_spec, xts_regime
from fsml.train import (
    Adam,
    FineTuneRegime,
    TransferConfig,
    _fit,
    cosine_annealing,
    finetune,
    head_only,
    kshot_subset,
    pretrain_transfer,
    random_search,
    same_lr,
    split_lr,
)


def test_adam_zero_gradient_keeps_params():
    params = {"w": Tensor(np.array([1.0, -2.0]))}
    opt = Adam(0.1)
    opt.step(params, {"w": np.zeros(2)})
    np.testing.assert_array_equal(params["w"].values, [1.0, -2.0])
    assert opt.step_count == 1


def test_adam_first_step_hand_value():
    params = {"w": Tensor(np.array([0.0]))}
    opt = Adam(0.001)
    opt.step(params, {"w": np.array([2.0])})
    # bias-corrected first step: -lr * g / (|g| + eps)
    expected = -0.001 * 2.0 / (2.0 + 1e-8)
    assert params["w"].values[0] == pytest.approx(expected, abs=1e-12)
    assert abs(params["w"].values[0] + 0.001) < 1e-9


def test_adam_two_steps_match_scalar_reimplementation():
    g = 0.7
    lr = 0.01
    params = {"w": Tensor(np.array([0.5]))}
    opt = Adam(lr)
    opt.step(params, {"w": np.array([g])})
    first = params["w"].values[0]
    opt.step(params, {"w": np.array([g])})
    second_delta = params["w"].values[0] - first

    # independent scalar re-implementation
    b1, b2, eps = 0.9, 0.999, 1e-8
    m = v = 0.0
    w = 0.5
    deltas = []
    for t in (1, 2):
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        m_hat = m / (1 - b1**t)
        v_hat = v / (1 - b2**t)
        delta = -lr * m_hat / (math.sqrt(v_hat) + eps)
        deltas.append(delta)
        w += delta
    assert abs(second_delta - deltas[1]) < 1e-12
    assert abs(params["w"].values[0] - w) < 1e-12


def test_adam_rejects_nan_gradient():
    opt = Adam(0.1)
    with pytest.raises(DivergedError):
        opt.step({"w": Tensor(np.zeros(1))}, {"w": np.array([float("nan")])})


def _adam_per_name(lr, steps):
    """Reference Adam: one moment pair per parameter, updated name by name."""
    b1, b2, eps = 0.9, 0.999, 1e-8
    params = {k: v.copy() for k, v in steps[0][0].items()}
    m = {k: np.zeros_like(v) for k, v in params.items()}
    v2 = {k: np.zeros_like(v) for k, v in params.items()}
    for t, (_, grads) in enumerate(steps, start=1):
        for k, g in grads.items():
            m[k] = b1 * m[k] + (1 - b1) * g
            v2[k] = b2 * v2[k] + (1 - b2) * g * g
            params[k] -= lr * (m[k] / (1 - b1**t)) / (np.sqrt(v2[k] / (1 - b2**t)) + eps)
    return params, m, v2


def test_adam_flat_buffer_equals_per_parameter_updates_bit_for_bit():
    r = np.random.default_rng(3)
    shapes = {"b": (3,), "a": (2, 4), "c": ()}
    start = {k: r.standard_normal(s) for k, s in shapes.items()}
    steps = [(start, {k: r.standard_normal(s) for k, s in shapes.items()}) for _ in range(3)]
    params = {k: Tensor(v.copy()) for k, v in start.items()}
    opt = Adam(0.01)
    for _, grads in steps:
        opt.step(params, dict(reversed(grads.items())) if opt.step_count else grads)
    expected, m, v = _adam_per_name(0.01, steps)
    for k in shapes:
        assert params[k].values.tobytes() == expected[k].tobytes()
        assert opt.m[k].shape == shapes[k] and opt.m[k].tobytes() == m[k].tobytes()
        assert opt.v[k].tobytes() == v[k].tobytes()


def test_adam_names_the_first_non_finite_gradient_and_rejects_new_names():
    params = {k: Tensor(np.zeros(2)) for k in ("a", "b", "c")}
    opt = Adam(0.1)
    opt.step(params, {k: np.ones(2) for k in params})
    bad = {"a": np.ones(2), "b": np.array([1.0, np.inf]), "c": np.array([np.nan, 0.0])}
    with pytest.raises(DivergedError, match="non-finite gradient for b"):
        opt.step(params, bad)
    assert opt.step_count == 1
    with pytest.raises(ContractError, match="moments for"):
        opt.step(params, {"a": np.ones(2), "b": np.ones(2)})


def test_cosine_annealing_examples():
    assert cosine_annealing(0.5, 0, 17, 100) == 0.5
    assert cosine_annealing(1.0, 1, 0, 10) == 1.0
    final = cosine_annealing(1.0, 1, 9, 10)
    assert final == pytest.approx(0.5 * (1 + math.cos(math.pi * 9 / 10)))
    assert cosine_annealing(1.0, 2, 5, 10) == 1.0  # cycle restart
    with pytest.raises(ContractError):
        cosine_annealing(1.0, 1, 10, 10)


def _fit_on(losses, patience=math.inf, scores=None, every=1):
    """``_fit`` over units 0..n-1 whose validation returns ``scores[unit]``
    (minus the loss by default) and ``losses[unit]``; each step writes its
    unit into a one-tensor map.  Returns (validated units, best unit)."""
    scores = [-loss for loss in losses] if scores is None else scores
    params = {"unit": Tensor(np.array(-1.0))}

    def step(unit):
        params["unit"].values[...] = unit
        return {"unit": unit}

    def validate():
        unit = int(params["unit"].values)
        return scores[unit], losses[unit], {}

    best, best_unit, trace = _fit(range(len(losses)), every, step, validate, params, patience)
    assert best["unit"].values == best_unit
    return [row["unit"] for row in trace], best_unit


def test_fit_stops_after_patience_validations_without_improvement():
    validated, best = _fit_on([1.0, 0.9] + [0.9] * 20, patience=15)
    assert best == 1  # the second epoch (0-indexed)
    assert validated[-1] == 16  # 15 non-improving epochs after epoch 1


def test_fit_stops_at_last_improvement_plus_patience():
    rng = np.random.default_rng(5)
    for _ in range(30):
        losses = rng.random(40).tolist()
        patience = int(rng.integers(2, 8))
        validated, best_unit = _fit_on(losses, patience)
        expected, best, improved_at = len(losses) - 1, math.inf, None
        for epoch, loss in enumerate(losses):
            if loss < best - train.IMPROVEMENT_EPS:
                best, improved_at = loss, epoch
            elif epoch - improved_at >= patience:
                expected = epoch
                break
        assert validated[-1] == expected
        assert best_unit == improved_at


def test_fit_keeps_the_first_best_score_and_never_a_nan():
    nan = float("nan")
    assert _fit_on([1.0] * 5, scores=[0.5, 0.7, 0.7, nan, 0.6]) == ([0, 1, 2, 3, 4], 1)
    assert _fit_on([1.0] * 3, scores=[0.5, nan, 0.4]) == ([0, 1, 2], 0)


def test_fit_raises_at_a_non_finite_validation_loss():
    for bad in (float("nan"), math.inf):
        with pytest.raises(DivergedError, match=r"non-finite validation loss \(step 2\)"):
            _fit_on([1.0, 0.9, bad, 0.8])


def test_fit_validates_every_kth_unit_and_the_last():
    assert _fit_on([1.0] * 8, every=3)[0] == [0, 3, 6, 7]
    assert _fit_on([1.0] * 7, every=3)[0] == [0, 3, 6]
    initial = {"w": Tensor(np.array([1.5, -2.0]))}
    best, best_unit, trace = _fit(range(0), 1, None, None, initial)
    assert (best_unit, trace) == (0, [])
    np.testing.assert_array_equal(best["w"].values, [1.5, -2.0])


def test_fit_returns_copies_a_later_step_does_not_change():
    params = {"w": Tensor(np.array([1.0, 2.0]))}

    def step(unit):
        params["w"].values += 10.0
        return {"unit": unit}

    def validate():  # the first validation scores best
        return -params["w"].values[0], 0.0, {}

    best, best_unit, _ = _fit(range(3), 1, step, validate, params)
    assert best_unit == 0 and best["w"] is not params["w"]
    np.testing.assert_array_equal(best["w"].values, [11.0, 12.0])
    step(3)  # an in-place step after the run
    np.testing.assert_array_equal(best["w"].values, [11.0, 12.0])
    fallback, _, _ = _fit(range(0), 1, step, validate, params)
    step(4)
    np.testing.assert_array_equal(fallback["w"].values, [41.0, 42.0])
    np.testing.assert_array_equal(params["w"].values, [51.0, 52.0])


def test_regime_invariants():
    with pytest.raises(ContractError):
        FineTuneRegime("head_only", 1e-3, 1e-4)
    with pytest.raises(ContractError):
        FineTuneRegime("same_lr", 1e-3, 1e-4)
    assert head_only(1e-3).lr_backbone == 0.0
    assert same_lr(1e-3).lr_head == same_lr(1e-3).lr_backbone
    assert split_lr(1e-3, 1e-4).mode == "split_lr"


def _corpus(seed=0, separability=1.2, noise=0.05):
    cfg = SynthConfig(
        regions=["R1", "R2"],
        finetune_region="T1",
        n_classes=4,
        n_level4=4,
        samples_per_class=30,
        finetune_samples_per_class=50,
        groups=[GroupSpec("s2", 3, "dynamic")],
        obs_count=(8, 12),
        noise_sigma=noise,
        separability=separability,
        k_max=10,
    )
    return generate_synthetic(cfg, seed=seed)


TINY = nn.small_config(embed_dim=16, num_heads=2, hidden_dim=32)


def _model(corpus):
    groups = tuple(corpus.manifest.group_order())
    channels = sum(g.channels for g in corpus.manifest.groups if g.kind == "dynamic")
    return RawSeriesModel(TINY, channels, groups)


def test_pretrain_transfer_reaches_bar_and_is_deterministic():
    corpus = _corpus()
    model = _model(corpus)
    config = TransferConfig(learning_rate=3e-3, batch_size=64, max_epochs=40, patience=15)
    params_a, info_a = pretrain_transfer(corpus, model, config, seed=0)
    assert max(row["val_accuracy"] for row in info_a["trace"]) >= 0.9
    params_b, info_b = pretrain_transfer(corpus, model, config, seed=0)
    assert info_a["trace"] == info_b["trace"]
    for k, v in params_a.items():
        np.testing.assert_array_equal(v.values, params_b[k].values)


def test_pretrain_transfer_resamples_majority():
    corpus = _corpus()
    # majority boost creates an over-represented first class
    cfg = SynthConfig(
        regions=["R1"], finetune_region="T1", n_classes=4, n_level4=4,
        samples_per_class=24, finetune_samples_per_class=20,
        groups=[GroupSpec("s2", 3, "dynamic")], majority_boost=4.0, k_max=5,
    )
    boosted = generate_synthetic(cfg, seed=1)
    model = _model(boosted)
    config = TransferConfig(learning_rate=3e-3, batch_size=64, max_epochs=1, patience=2)
    _, info = pretrain_transfer(boosted, model, config, seed=0)
    assert info["trace"]  # smoke: resampling path executes


def test_kshot_subset_counts_and_no_leakage():
    corpus = _corpus()
    pool = corpus.finetune_pool()
    train_split = subset_by_split(pool, "train")
    subset = kshot_subset(train_split, k=5, seed=3)
    counts = {}
    for s in subset:
        counts[s.label] = counts.get(s.label, 0) + 1
    for label, n in counts.items():
        available = sum(1 for s in train_split if s.label == label)
        assert n == min(5, available)
    train_ids = {s.parcel_id for s in train_split}
    assert all(s.parcel_id in train_ids for s in subset)

    with pytest.warns(UserWarning, match="requested shots available"):
        big = kshot_subset(train_split, k=10**6, seed=3)
    assert len(big) == len(train_split)


def test_finetune_head_only_freezes_backbone():
    corpus = _corpus()
    model = _model(corpus)
    init = model.init_backbone(np.random.default_rng(7))
    before = {k: v.values.copy() for k, v in init.items()}
    params, report, info = finetune(
        corpus, model, init, head_only(1e-2), k=3, seed=0, max_epochs=3,
    )
    backbone = nn.split_params(params)[0]
    for k in before:
        np.testing.assert_array_equal(backbone[k].values, before[k])
    assert 0.0 <= report.overall_accuracy <= 1.0


def test_split_lr_with_a_zero_backbone_rate_equals_head_only(monkeypatch):
    # no backbone optimizer runs, so no backbone gradient is taken either
    corpus = _corpus()
    model = _model(corpus)
    init = model.init_backbone(np.random.default_rng(7))
    requested = []
    original = train._loss_and_grads

    def counting(*args):
        loss, grads = original(*args)
        requested.append(len(grads))
        return loss, grads

    monkeypatch.setattr(train, "_loss_and_grads", counting)
    a = finetune(corpus, model, init, split_lr(1e-2, 0.0), k=3, seed=5, max_epochs=3)
    b = finetune(corpus, model, init, head_only(1e-2), k=3, seed=5, max_epochs=3)
    assert set(requested) == {2}  # the head's weight and bias
    assert a[1].metric_map() == b[1].metric_map()
    assert a[2]["trace"] == b[2]["trace"]
    assert a[0].keys() == b[0].keys()
    for k, v in a[0].items():
        assert v.values.tobytes() == b[0][k].values.tobytes()


def test_finetune_is_reproducible():
    corpus = _corpus()
    model = _model(corpus)
    init = model.init_backbone(np.random.default_rng(7))
    a = finetune(corpus, model, init, same_lr(1e-3), k=3, seed=5, max_epochs=4)
    b = finetune(corpus, model, init, same_lr(1e-3), k=3, seed=5, max_epochs=4)
    assert a[1].metric_map() == b[1].metric_map()
    assert a[2]["trace"] == b[2]["trace"]
    for k, v in a[0].items():
        np.testing.assert_array_equal(v.values, b[0][k].values)


@pytest.mark.parametrize("family", ["raw", "tokens"])
def test_each_split_is_packed_once(monkeypatch, family):
    # every training batch and every validation pass is taken from its
    # split's pack: finetune packs train, validation and test, transfer
    # pre-training train and validation
    corpus = _corpus()
    model = _model(corpus)
    if family == "tokens":
        spec = group_spec(("location", 3, "static"), ("s2", 3, "dynamic"))
        model = TokenClassifier(nn.TransformerConfig(16, 2, 32, 1, 0, 64), spec, xts_regime(16, 16))
    packed, original = [], nn.pack_batch

    def counting(samples, *args):
        packed.append(len(samples))
        return original(samples, *args)

    monkeypatch.setattr(nn, "pack_batch", counting)
    monkeypatch.setattr(tokens, "pack_batch", counting)
    init = model.init_backbone(np.random.default_rng(7))
    _, _, info = finetune(corpus, model, init, same_lr(1e-3), k=3, seed=5, max_epochs=3,
                          batch_size=4)
    assert len(info["trace"]) == 3 and len(packed) == 3
    assert packed[0] == 12 and packed[2] == len(subset_by_split(corpus.finetune_pool(), "test"))
    packed.clear()
    _, info = pretrain_transfer(corpus, model, TransferConfig(batch_size=16, max_epochs=2), seed=0)
    assert len(info["trace"]) == 2 and len(packed) == 2


@pytest.mark.parametrize("name", ["max_epochs", "batch_size"])
def test_zero_epoch_or_batch_budget_is_a_contract_error(name):
    corpus = _corpus()
    model = _model(corpus)
    with pytest.raises(ContractError, match=f"{name}: must be an integer >= 1"):
        finetune(corpus, model, model.init_backbone(np.random.default_rng(7)), same_lr(1e-3),
                 k=3, seed=0, **{name: 0})
    with pytest.raises(ContractError, match=f"{name}: must be an integer >= 1"):
        TransferConfig(**{name: 0})


def test_random_search_single_trial_and_determinism():
    space = {"lr": (1e-5, 1e-1)}
    best, score, log = random_search(space, trials=1, seed=0, objective=lambda c: -c["lr"])
    assert len(log) == 1 and log[0]["config"] == best
    again, _, log2 = random_search(space, trials=1, seed=0, objective=lambda c: -c["lr"])
    assert best == again
    assert [row["config"] for row in log] == [row["config"] for row in log2]


def test_random_search_bowl_objective_within_one_octave():
    optimum = 1e-3

    def bowl(config):
        return -((math.log10(config["lr"]) - math.log10(optimum)) ** 2)

    best, _, log = random_search({"lr": (1e-6, 1.0)}, trials=32, seed=7, objective=bowl)
    assert len(log) == 32
    assert optimum / 2 <= best["lr"] <= optimum * 2
    # grid-scan oracle: the returned config beats every other trial's score
    assert all(
        row["score"] <= bowl(best) + 1e-15 for row in log if row["score"] is not None
    )


def test_random_search_survives_failures():
    calls = {"n": 0}

    def flaky(config):
        calls["n"] += 1
        if calls["n"] % 2 == 0:
            raise DivergedError("non-finite training loss", step=calls["n"])
        return config["lr"]

    best, _, log = random_search({"lr": (0.1, 1.0)}, trials=6, seed=1, objective=flaky)
    assert sum(1 for row in log if row["status"] != "ok") == 3
    assert log[1]["status"] == "failed: non-finite training loss (step 2)"
    assert best["lr"] > 0


def test_random_search_propagates_an_error_that_is_no_divergence():
    def broken(config):
        raise RuntimeError("boom")

    with pytest.raises(RuntimeError, match="boom"):
        random_search({"lr": (0.1, 1.0)}, trials=3, seed=1, objective=broken)


def test_random_search_where_every_trial_diverges_carries_the_last_reason():
    calls = {"n": 0}

    def diverging(config):
        calls["n"] += 1
        raise DivergedError("non-finite training loss", step=calls["n"])

    with pytest.raises(DivergedError, match=r"all 3 trials diverged.*\(step 3\)"):
        random_search({"lr": (0.1, 1.0)}, trials=3, seed=1, objective=diverging)


def test_random_search_draws_are_pinned():
    """The published ranges, 4 trials at seed 0, bit for bit: a valid tune
    config keeps its draws, its tuning log and its best config."""
    space = {"lr_head": train.LR_RANGE_HEAD, "lr_backbone": train.LR_RANGE_BACKBONE}
    _, _, log = random_search(space, trials=4, seed=0, objective=lambda c: -c["lr_head"])
    assert [row["config"] for row in log] == [
        {"lr_backbone": 1.3079260396823857e-06, "lr_head": 0.0012838370615067506},
        {"lr_backbone": 0.0002497512896088007, "lr_head": 8.054289757600837e-05},
        {"lr_backbone": 0.0003334077100711792, "lr_head": 0.006214937806586223},
        {"lr_backbone": 2.353360650335302e-06, "lr_head": 0.0001377268605297907},
    ]


def test_fixed_validation_default_is_1000_points():
    from fsml.data import FIXED_VALIDATION_POINTS

    assert FIXED_VALIDATION_POINTS == 1000


def test_few_shot_grid_constant():
    assert train.FEW_SHOT_GRID == (1, 5, 10, 20, 100, 200, 500)
    assert train.LR_RANGE_HEAD == (1e-6, 1e-2)
    assert train.LR_RANGE_BACKBONE == (1e-6, 1e-3)
    assert train.FINETUNE_BATCH_SIZE == 16
    assert train.PRETRAIN_BATCH_SIZE == 128
    assert train.FINETUNE_PATIENCE == 5
    assert train.PRETRAIN_PATIENCE == 15


def _gradients_of_three_steps(read_only):
    """The gradients of one MAE step, one token-classifier step and one
    4-task maml meta-gradient, each built fresh; with ``read_only`` every
    parameter and input array is made read-only first."""
    corpus = generate_synthetic(
        SynthConfig(
            regions=["R1", "R2"], finetune_region="T1", n_classes=4, n_level4=4,
            samples_per_class=30, finetune_samples_per_class=20,
            groups=[GroupSpec("s1", 2, "dynamic"), GroupSpec("s2", 3, "dynamic")],
            obs_count=(6, 10), noise_sigma=0.08, separability=1.0, k_max=5,
        ),
        seed=0,
    )
    samples = corpus.pretrain_pool()[:16]
    spec = group_spec(("location", 3, "static"), ("s1", 2, "dynamic"), ("s2", 3, "dynamic"))
    regime = xts_regime(16, max_timesteps=16)
    stats = normalization_stats(samples, spec)
    mae = MaskedAutoencoder(nn.TransformerConfig(16, 2, 32, 1, 1, 64), spec, regime,
                            "cross_attention")
    mae_params = mae.init_params(rng_from(3, 2))
    clf = TokenClassifier(nn.TransformerConfig(16, 2, 32, 1, 0, 64), spec, regime, stats)
    clf_params = nn.init_params(clf, rng_from(3, 1), n_classes=4)
    labels = np.arange(len(samples)) % 4
    config = MetaConfig(algorithm="maml", inner_lr=0.5, inner_steps=2, n_way=4, k_support=1,
                        k_query=2, tasks_per_batch=4)
    model = RawSeriesModel(nn.small_config(embed_dim=16, num_heads=2, hidden_dim=32),
                           corpus.manifest.dynamic_channels())
    learner = MetaLearner(config, model, corpus.manifest.group_order())
    meta_params = learner.init_meta_params(rng_from(1, 1))
    pool = episode_pool(corpus, "train")
    tasks = [(i, sample_episode(pool, config.episode_config(1), i)) for i in range(4)]
    if read_only:
        arrays = [labels, *(a for pair in stats.values() for a in pair)]
        arrays += [p.values for ps in (mae_params, clf_params, meta_params) for p in ps.values()]
        for sample in corpus.samples:
            arrays += [sample.days, *sample.channels.values()]
        for array in arrays:
            array.flags.writeable = False
    _, mae_grads = mae_step(mae_params, mae, samples, xts_plan("mixed"), rng_from(3, 3), stats)
    _, clf_grads = train._loss_and_grads(clf, clf_params, clf.pack(samples).take(), labels)
    meta_grads, _ = learner.meta_gradient(meta_params, tasks, seed=1)
    return [{k: np.asarray(g).tobytes() for k, g in grads.items()}
            for grads in (mae_grads, clf_grads, meta_grads)]


def test_gradients_neither_write_into_nor_depend_on_writable_parameters_and_inputs():
    # a kernel or an array replay's rule writes only into arrays it allocated: with
    # every parameter and input read-only, each step runs and gives the bits
    # of a writable run
    assert _gradients_of_three_steps(read_only=True) == _gradients_of_three_steps(read_only=False)
