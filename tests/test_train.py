import math

import numpy as np
import pytest

from fsml import nn, train
from fsml.data import GroupSpec, SynthConfig, generate_synthetic, subset_by_split
from fsml.errors import ContractError, DivergedError
from fsml.nn import RawSeriesModel
from fsml.tensor import Tensor
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
    (minus the loss by default) and ``losses[unit]``; the snapshot is the unit.
    Returns (validated units, best unit)."""
    scores = [-loss for loss in losses] if scores is None else scores
    seen = []

    def step(unit):
        seen.append(unit)
        return {"unit": unit}

    def validate():
        return scores[seen[-1]], losses[seen[-1]], {}

    best, best_unit, trace = _fit(
        range(len(losses)), every, step, validate, lambda: seen[-1], patience
    )
    assert best == best_unit
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


def test_fit_validates_every_kth_unit_and_the_last():
    assert _fit_on([1.0] * 8, every=3)[0] == [0, 3, 6, 7]
    assert _fit_on([1.0] * 7, every=3)[0] == [0, 3, 6]
    best, best_unit, trace = _fit(range(0), 1, None, None, lambda: "initial")
    assert (best, best_unit, trace) == ("initial", 0, [])


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
    for k, v in params_a.named().items():
        np.testing.assert_array_equal(v.values, params_b.named()[k].values)


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
    for k in before:
        np.testing.assert_array_equal(params.backbone[k].values, before[k])
    assert 0.0 <= report.overall_accuracy <= 1.0


def test_finetune_is_reproducible():
    corpus = _corpus()
    model = _model(corpus)
    init = model.init_backbone(np.random.default_rng(7))
    a = finetune(corpus, model, init, same_lr(1e-3), k=3, seed=5, max_epochs=4)
    b = finetune(corpus, model, init, same_lr(1e-3), k=3, seed=5, max_epochs=4)
    assert a[1].metric_map() == b[1].metric_map()
    assert a[2]["trace"] == b[2]["trace"]
    for k, v in a[0].named().items():
        np.testing.assert_array_equal(v.values, b[0].named()[k].values)


@pytest.mark.parametrize("name", ["max_epochs", "batch_size"])
def test_zero_epoch_or_batch_budget_is_a_contract_error(name):
    corpus = _corpus()
    model = _model(corpus)
    with pytest.raises(ContractError, match=f"{name}: must be an integer >= 1"):
        finetune(corpus, model, model.init_backbone(np.random.default_rng(7)), same_lr(1e-3),
                 k=3, seed=0, **{name: 0})
    with pytest.raises(ContractError, match=f"{name}: must be an integer >= 1"):
        TransferConfig(**{name: 0})


@pytest.mark.parametrize("limit", [0, -1])
def test_validation_limit_below_one_is_a_contract_error(limit):
    corpus = _corpus()
    model = _model(corpus)
    with pytest.raises(ContractError, match="validation_limit: must be an integer >= 1"):
        finetune(corpus, model, model.init_backbone(np.random.default_rng(7)), same_lr(1e-3),
                 k=3, seed=0, validation_limit=limit)


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
            raise RuntimeError("boom")
        return config["lr"]

    best, _, log = random_search({"lr": (0.1, 1.0)}, trials=6, seed=1, objective=flaky)
    assert sum(1 for row in log if row["status"] != "ok") == 3
    assert best["lr"] > 0


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
