import math
import sys
import tracemalloc

import numpy as np
import pytest

from conftest import assert_grads_close, pad_batch, parcel
from fsml import meta, nn
from fsml import tensor as T
from fsml.data import (
    Corpus,
    CorpusManifest,
    GroupSpec,
    SynthConfig,
    build_hierarchy_codes,
    generate_synthetic,
    polar_to_cartesian,
    task_info,
)
from fsml.episodes import EpisodeTask, episode_pool, sample_episode
from fsml.errors import ContractError, DivergedError
from fsml.meta import MetaConfig, MetaLearner, adapt_by_gradient_descent, meta_train
from fsml.nn import RawSeriesModel, film_modulation
from fsml.seeding import STREAM_HEAD_RESET, rng_from
from fsml.tensor import Tape, Tensor, grad


def test_polar_to_cartesian_examples():
    np.testing.assert_allclose(polar_to_cartesian(0.0, 0.0), [1, 0, 0], atol=1e-15)
    np.testing.assert_allclose(polar_to_cartesian(0.0, math.pi / 2), [0, 0, 1], atol=1e-15)
    np.testing.assert_allclose(polar_to_cartesian(math.pi / 2, 0.0), [0, 1, 0], atol=1e-15)


def test_polar_to_cartesian_unit_norm_and_domain():
    rng = np.random.default_rng(0)
    for _ in range(100):
        lon = rng.uniform(-math.pi, math.pi)
        lat = rng.uniform(-math.pi / 2, math.pi / 2)
        assert abs(np.linalg.norm(polar_to_cartesian(lon, lat)) - 1.0) < 1e-9
    with pytest.raises(ContractError):
        polar_to_cartesian(4.0, 0.0)
    with pytest.raises(ContractError):
        polar_to_cartesian(0.0, 2.0)
    with pytest.raises(ContractError):
        polar_to_cartesian(float("nan"), 0.0)


def quadratic_loss(p):
    return T.mul(T.mul(p["w"], p["w"]), 0.5)


def test_inner_adapt_quadratic_steps():
    with Tape():
        params = {"w": Tensor(1.0)}
        adapted = adapt_by_gradient_descent(quadratic_loss, params, 0.1, 1, True)
        assert abs(adapted["w"].item() - 0.9) < 1e-15
    with Tape():
        params = {"w": Tensor(1.0)}
        adapted = adapt_by_gradient_descent(quadratic_loss, params, 0.1, 2, True)
        assert abs(adapted["w"].item() - 0.81) < 1e-15


def test_quadratic_meta_gradient_oracle():
    # L(theta) = theta^2/2, alpha=0.1, s=1: theta' = 0.9
    # maml meta-grad = (1 - alpha) * theta' = 0.81; fomaml = theta' = 0.9
    with Tape():
        theta = Tensor(1.0)
        adapted = adapt_by_gradient_descent(quadratic_loss, {"w": theta}, 0.1, 1, True)
        maml_grad = grad(quadratic_loss(adapted), theta)
    assert abs(maml_grad.item() - 0.81) < 1e-12

    with Tape():
        theta = Tensor(1.0)
        adapted = adapt_by_gradient_descent(quadratic_loss, {"w": theta}, 0.1, 1, False)
        fomaml_grad = grad(quadratic_loss(adapted), theta)
    assert abs(fomaml_grad.item() - 0.9) < 1e-12


def test_first_order_equivalence_on_linear_inner_loss():
    # inner loss linear in theta => zero Hessian => maml == fomaml exactly
    c = np.array([0.7, -1.3, 2.1])

    def inner(p):
        return T.reduce_sum(T.mul(p["w"], Tensor(c)))

    def query(p):
        return T.reduce_sum(T.mul(p["w"], p["w"]))

    grads = {}
    for label, second_order in (("maml", True), ("fomaml", False)):
        with Tape():
            theta = Tensor(np.array([0.5, -0.2, 1.0]))
            adapted = adapt_by_gradient_descent(inner, {"w": theta}, 0.05, 3, second_order)
            grads[label] = grad(query(adapted), theta).values
    np.testing.assert_allclose(grads["maml"], grads["fomaml"], rtol=0, atol=1e-12)


def _mlp_params(rng):
    shapes = [(5, 7), (7,), (7, 1), (1,)]
    return {f"p{i}": rng.standard_normal(s) * 0.4 for i, s in enumerate(shapes)}


def _mlp_loss(p, x, y):
    h = T.gelu(T.add(T.matmul(Tensor(x), p["p0"]), p["p1"]))
    out = T.add(T.matmul(h, p["p2"]), p["p3"])
    diff = T.sub(out, Tensor(y))
    return T.reduce_mean(T.mul(diff, diff))


def test_mlp_meta_gradient_matches_finite_differences():
    rng = np.random.default_rng(77)
    arrays = _mlp_params(rng)
    assert sum(a.size for a in arrays.values()) == 50
    xs, ys = rng.standard_normal((4, 5)), rng.standard_normal((4, 1))
    xq, yq = rng.standard_normal((6, 5)), rng.standard_normal((6, 1))
    alpha, steps = 0.05, 2

    def meta_objective(values):
        with Tape():
            params = {k: Tensor(v) for k, v in values.items()}
            adapted = adapt_by_gradient_descent(
                lambda p: _mlp_loss(p, xs, ys), params, alpha, steps, True
            )
            return _mlp_loss(adapted, xq, yq).item()

    with Tape():
        params = {k: Tensor(v.copy()) for k, v in arrays.items()}
        adapted = adapt_by_gradient_descent(
            lambda p: _mlp_loss(p, xs, ys), params, alpha, steps, True
        )
        meta_grads = grad(_mlp_loss(adapted, xq, yq), [params[k] for k in sorted(params)])

    h = 1e-5
    for key, analytic in zip(sorted(arrays), meta_grads):
        fd = np.zeros_like(arrays[key])
        flat, fd_flat = arrays[key].reshape(-1), fd.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            up = meta_objective(arrays)
            flat[i] = orig - h
            down = meta_objective(arrays)
            flat[i] = orig
            fd_flat[i] = (up - down) / (2 * h)
        assert_grads_close(analytic.values, fd, 1e-4)


# --- corpus-level fixtures --------------------------------------------------


def bump_corpus(n_classes=4, per_class=24, seed=0, channels=1, lengths=None):
    """Amplitude-banded seasonal bumps: class = thresholded latent amplitude.

    Every series has 10 days, or a length drawn from ``lengths`` (lo, hi).
    """
    rng = np.random.default_rng(seed)
    codes, hierarchy = build_hierarchy_codes(2, 4, n_classes)
    samples = []
    counter = 0
    for region, phase in (("R1", 0.0), ("R2", 10.0)):
        for ci, code in enumerate(codes):
            for _ in range(per_class):
                amplitude = 0.6 + 0.55 * ci + rng.uniform(-0.18, 0.18)
                size = 10 if lengths is None else int(rng.integers(lengths[0], lengths[1] + 1))
                days = np.sort(rng.choice(np.arange(1, 367), size=size, replace=False))
                curve = np.sin(np.pi * np.clip((days - 60 - phase) / 180.0, 0, 1))
                rows = [amplitude * c + rng.normal(0, 0.05, size=channels) for c in curve]
                samples.append(
                    parcel(
                        days,
                        {"s1": rows},
                        f"b{counter:05d}",
                        float(rng.uniform(-0.5, 0.5)),
                        float(rng.uniform(-0.5, 0.5)),
                        region,
                        code,
                        "train" if rng.random() < 0.8 else "validation",
                    )
                )
                counter += 1
    manifest = CorpusManifest(
        majority_class=codes[0],
        hierarchy_levels=dict(hierarchy.level_prefix_lengths),
        groups=[GroupSpec("s1", channels, "dynamic")],
        pretrain_regions=["R1", "R2"],
        finetune_region="",
    )
    return Corpus(samples, manifest)


TINY = nn.small_config(embed_dim=8, num_heads=2, hidden_dim=16, max_seq_len=366)


def _learner(algorithm, corpus, **overrides):
    config_kwargs = dict(
        algorithm=algorithm, inner_lr=0.5, outer_lr=0.01,
        inner_steps=2, n_way=2, k_support=2, k_query=2,
    )
    config_kwargs.update(overrides)
    config = MetaConfig(**config_kwargs)
    in_channels = 1 + (3 if algorithm == "timl_noenc" else 0)
    model = RawSeriesModel(TINY, in_channels)
    return MetaLearner(config, model, corpus.manifest.group_order()), config


def _one_task(corpus, config, ordinal=0):
    pool = episode_pool(corpus, "train")
    return sample_episode(pool, config.episode_config(0), ordinal)


def test_anil_backbone_bit_identical_through_inner_loop():
    corpus = bump_corpus()
    learner, config = _learner("anil", corpus)
    meta_params = learner.init_meta_params(rng_from(0, 1))
    task = _one_task(corpus, config)
    with Tape():
        flat = dict(meta_params)
        flat.update(learner.fresh_head(rng_from(0, 3)))
        before = {k: v.values.copy() for k, v in flat.items() if k.startswith("backbone/")}
        adapted = learner.inner_adapt(flat, task)
        for k in before:
            assert adapted[k] is flat[k]
            np.testing.assert_array_equal(adapted[k].values, before[k])
        head_keys = [k for k in flat if k.startswith("head/")]
        assert any(
            not np.array_equal(adapted[k].values, flat[k].values) for k in head_keys
        )
    grads, _ = learner.meta_gradient(meta_params, [(0, task)], seed=0)
    assert any(np.abs(v).max() > 0 for k, v in grads.items())


def test_batch_meta_gradient_is_mean_of_per_task_gradients():
    corpus = bump_corpus()
    learner, config = _learner("maml", corpus, inner_steps=1)
    meta_params = learner.init_meta_params(rng_from(0, 1))
    tasks = [(i, _one_task(corpus, config, i)) for i in range(3)]
    batch_grads, _ = learner.meta_gradient(meta_params, tasks, seed=5)
    singles = [learner.meta_gradient(meta_params, [t], seed=5)[0] for t in tasks]
    for key in batch_grads:
        mean = (singles[0][key] + singles[1][key] + singles[2][key]) / 3
        np.testing.assert_allclose(batch_grads[key], mean, atol=1e-12)


def _uneven_tasks(corpus, config, count=3):
    """(ordinal, task) pairs of unequal series lengths; task 1 has a fallback
    support set, one sample short of n_way * k_support."""
    tasks = [_one_task(corpus, config, i) for i in range(count)]
    short = tasks[1]
    tasks[1] = EpisodeTask(
        support=short.support[1:], query=short.query,
        class_roster=short.class_roster, region=short.region,
    )
    return list(enumerate(tasks))


def _per_task_reference(learner, meta_params, task, head_rng, want_grads=True):
    """One task on its own tape with unstacked parameters: the query
    (loss, accuracy) after adaptation and, optionally, the meta-gradient."""
    with Tape():
        flat = {**meta_params, **learner.fresh_head(head_rng)}
        adapted = learner.inner_adapt(flat, task, second_order=None if want_grads else False)
        q_samples, q_labels = task.query_sets()
        logits = learner.logits(adapted, q_samples)
        loss = nn.cross_entropy(logits, q_labels)
        stats = (loss.item(), nn.accuracy(logits.values, q_labels))
        if not want_grads:
            return None, stats
        names = sorted(meta_params)
        grads = grad(loss, [meta_params[k] for k in names])
    return {k: g.values for k, g in zip(names, grads)}, stats


@pytest.mark.parametrize("algorithm", meta.ALGORITHMS)
def test_stacked_meta_gradient_equals_per_task_gradients(algorithm):
    corpus = bump_corpus(lengths=(5, 12))
    learner, config = _learner(algorithm, corpus)
    meta_params = learner.init_meta_params(rng_from(0, 1))
    tasks = _uneven_tasks(corpus, config)
    assert len(tasks[1][1].support) < config.n_way * config.k_support
    lengths = {len(s.days) for _, t in tasks for s, _ in t.support + t.query}
    assert len(lengths) > 1

    batch_grads, batch_stats = learner.meta_gradient(meta_params, tasks, seed=5)
    singles = [learner.meta_gradient(meta_params, [t], seed=5) for t in tasks]
    references = [
        _per_task_reference(learner, meta_params, task, rng_from(5, STREAM_HEAD_RESET, i))
        for i, task in tasks
    ]
    assert batch_grads.keys() == singles[0][0].keys() == references[0][0].keys()
    for key in batch_grads:
        single_mean = sum(g[key] for g, _ in singles) / len(tasks)
        reference_mean = sum(g[key] for g, _ in references) / len(tasks)
        np.testing.assert_allclose(batch_grads[key], single_mean, rtol=0, atol=1e-12)
        np.testing.assert_allclose(batch_grads[key], reference_mean, rtol=0, atol=1e-12)
    assert batch_stats["accuracy"] == sum(st["accuracy"] for _, st in singles) / len(tasks)
    assert batch_stats["accuracy"] == sum(acc for _, (_, acc) in references) / len(tasks)
    assert math.isclose(
        batch_stats["loss"], sum(loss for _, (loss, _) in references) / len(tasks),
        rel_tol=0, abs_tol=1e-12,
    )


@pytest.mark.parametrize("algorithm", meta.ALGORITHMS)
def test_evaluate_tasks_in_stacked_chunks_equals_per_task_evaluation(algorithm):
    corpus = bump_corpus(lengths=(5, 12))
    learner, config = _learner(algorithm, corpus, tasks_per_batch=3)
    meta_params = learner.init_meta_params(rng_from(0, 1))
    tasks = [t for _, t in _uneven_tasks(corpus, config, count=7)]  # chunks of 3, 3, 1
    acc, loss = learner.evaluate_tasks(meta_params, tasks, seed=4)
    stats = [
        _per_task_reference(
            learner, meta_params, task,
            rng_from(4, STREAM_HEAD_RESET, meta._VALIDATION_ORDINAL_BASE + i), want_grads=False,
        )[1]
        for i, task in enumerate(tasks)
    ]
    assert acc == float(np.mean([a for _, a in stats]))
    assert math.isclose(loss, float(np.mean([q for q, _ in stats])), rel_tol=0, abs_tol=1e-12)


def _benchmark_batch(algorithm):
    """The meta-maml benchmark's corpus and batch: 4-way, 1 support, 2
    queries, 4 inner steps, 4 tasks; returns (learner, meta_params, tasks)."""
    corpus = generate_synthetic(
        SynthConfig(
            regions=["R1", "R2"], finetune_region="T1", n_classes=6, n_level4=4, n_level3=2,
            samples_per_class=40, finetune_samples_per_class=60,
            groups=[GroupSpec("s2", 4, "dynamic")], obs_count=(8, 12),
            noise_sigma=0.15, separability=0.8, k_max=10,
        ),
        seed=1,
    )
    config = MetaConfig(
        algorithm=algorithm, inner_lr=0.5, inner_steps=4, n_way=4, k_support=1, k_query=2,
        tasks_per_batch=4,
    )
    model = RawSeriesModel(nn.small_config(embed_dim=16, num_heads=2, hidden_dim=32), 4)
    learner = MetaLearner(config, model, corpus.manifest.group_order())
    meta_params = learner.init_meta_params(rng_from(1, 1))
    pool = episode_pool(corpus, "train")
    tasks = [(i, sample_episode(pool, config.episode_config(1), i)) for i in range(4)]
    return learner, meta_params, tasks


def _meta_gradient_peak(algorithm):
    """tracemalloc peak of one meta-gradient of the benchmark batch, after a warm-up."""
    learner, meta_params, tasks = _benchmark_batch(algorithm)
    learner.meta_gradient(meta_params, tasks, seed=1)
    tracemalloc.start()
    try:
        learner.meta_gradient(meta_params, tasks, seed=1)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _closed_tapes(monkeypatch):
    """Every Tape closed from now on, with its node count at the close."""
    closed, exit_ = [], Tape.__exit__

    def counting_exit(tape, *exc):
        closed.append(len(tape.nodes))
        return exit_(tape, *exc)

    monkeypatch.setattr(Tape, "__exit__", counting_exit)
    return closed


def test_stacked_maml_meta_gradient_peak_memory():
    # one task's own tape used to peak at 9.5 MB
    peak = _meta_gradient_peak("maml")
    assert peak <= 9.5e6, f"one 4-task maml meta-gradient peaked at {peak / 1e6:.2f} MB"


def test_fomaml_meta_gradient_peak_memory():
    # each inner gradient runs on its own tape, so no inner forward graph
    # stays on the outer tape (4.6 MB when they did)
    peak = _meta_gradient_peak("fomaml")
    assert peak <= 3.0e6, f"one 4-task fomaml meta-gradient peaked at {peak / 1e6:.2f} MB"


def test_stacked_maml_meta_gradient_tape_size(monkeypatch):
    # one node per layer-norm adjoint, no transposes in matmul adjoints and
    # one scaling mul per inner step (1,011 nodes without these); one node
    # per linear layer and per affine norm (639 with matmul/add pairs and
    # layer_norm/mul/add chains)
    learner, meta_params, tasks = _benchmark_batch("maml")
    closed = _closed_tapes(monkeypatch)
    learner.meta_gradient(meta_params, tasks, seed=1)
    assert closed == [586]


def test_paused_outer_grad_builds_one_tensor_per_returned_gradient(monkeypatch):
    # the outer grad replays the second-order tape on arrays: only the
    # gradients it hands back are wrapped; the inner steps still record
    learner, meta_params, tasks = _benchmark_batch("maml")
    closed = _closed_tapes(monkeypatch)
    built, outer, init = [], [], Tensor.__init__

    def counting_init(self, values):
        built.append(1)
        init(self, values)

    def counted_grad(output, wrt, create_graph=False):
        if create_graph:
            return grad(output, wrt, create_graph=True)
        before = len(built)
        monkeypatch.setattr(Tensor, "__init__", counting_init)
        try:
            result = grad(output, wrt)
        finally:
            monkeypatch.setattr(Tensor, "__init__", init)
        outer.append((len(built) - before, len(result)))
        return result

    monkeypatch.setattr(meta, "grad", counted_grad)
    learner.meta_gradient(meta_params, tasks, seed=1)
    assert outer == [(len(meta_params), len(meta_params))]
    assert closed == [586]


def test_stacked_maml_meta_gradient_reuses_forward_statistics(monkeypatch):
    # each gelu node builds its slope once (the inner step's recorded one is
    # replayed by the outer pass), and the outer pass sums fan-ins in place
    learner, meta_params, tasks = _benchmark_batch("maml")
    calls = {"gelu": 0, "_gelu_slope": 0, "fan-in add": 0}

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            if name != "add":
                calls[name] += 1
            elif (sys._getframe(1).f_code is T.grad.__code__
                  and not sys._getframe(1).f_locals["create_graph"]):
                calls["fan-in add"] += 1  # an add primitive in a first-order grad
            return fn(*args, **kwargs)
        return wrapper

    for name in ("gelu", "_gelu_slope", "add"):
        monkeypatch.setattr(T, name, counting(name, getattr(T, name)))
    learner.meta_gradient(meta_params, tasks, seed=1)
    # one gelu per forward: four inner steps and the query
    assert calls == {"gelu": 5, "_gelu_slope": 5, "fan-in add": 0}


def test_second_order_inner_step_is_p_minus_the_gradient_of_lr_times_loss():
    # the step adds grad(-lr * loss); negation is exact, so it has the bits
    # of p - grad(lr * loss)
    r = np.random.default_rng(8)
    x, c = r.standard_normal((5, 4)), r.standard_normal((5, 3))
    start = {"b": r.standard_normal(3), "w": r.standard_normal((4, 3))}

    def loss(p):
        h = T.layer_norm(T.gelu(T.add(T.matmul(x, p["w"]), p["b"])))
        return T.reduce_mean(T.mul(h, c))

    with Tape():
        params = {k: Tensor(v) for k, v in start.items()}
        steps = grad(T.mul(loss(params), 0.3), [params[k] for k in start])
    with Tape():
        params = {k: Tensor(v) for k, v in start.items()}
        adapted = adapt_by_gradient_descent(loss, params, 0.3, 1, True)
        assert all(adapted[k].node is not None for k in params)
    for (k, v), step in zip(start.items(), steps):
        assert adapted[k].values.tobytes() == (v - step.values).tobytes()


@pytest.mark.parametrize("algorithm", ["maml", "fomaml"])
def test_evaluate_tasks_records_only_the_inner_step_tapes(monkeypatch, algorithm):
    learner, meta_params, tasks = _benchmark_batch(algorithm)
    closed = _closed_tapes(monkeypatch)
    learner.evaluate_tasks(meta_params, [t for _, t in tasks] * 2, seed=1)
    # two chunks of four tasks, one short-lived tape per inner step
    assert len(closed) == 2 * learner.config.inner_steps
    assert T._tapes == [] and T._recording is None


def test_timl_encoder_identity_init_matches_plain_maml():
    corpus = bump_corpus()
    enc_learner, config = _learner("timl_enc", corpus)
    maml_learner, _ = _learner("maml", corpus)
    meta_params = enc_learner.init_meta_params(rng_from(3, 1))
    plain = {k: v for k, v in meta_params.items() if not k.startswith("backbone/film/")}
    task = _one_task(corpus, config)
    samples, _ = task.support_sets()
    head = enc_learner.fresh_head(rng_from(3, 9))
    logits_enc = enc_learner.logits({**meta_params, **head}, samples).values
    logits_plain = maml_learner.logits({**plain, **head}, samples).values
    np.testing.assert_allclose(logits_enc, logits_plain, atol=1e-9)


def test_timl_noenc_zero_extra_channels_match_plain():
    corpus = bump_corpus()
    noenc_learner, config = _learner("timl_noenc", corpus)
    maml_model = RawSeriesModel(TINY, 1)
    maml_learner = MetaLearner(
        MetaConfig(algorithm="maml", n_way=2, k_support=2, k_query=2),
        maml_model, corpus.manifest.group_order(),
    )
    plain_params = maml_learner.init_meta_params(rng_from(5, 1))
    noenc_params = {k: Tensor(v.values.copy()) for k, v in plain_params.items()}
    w = plain_params["backbone/in/w"].values  # [1, embed]
    noenc_params["backbone/in/w"] = Tensor(
        np.concatenate([w, np.zeros((3, w.shape[1]))], axis=0)
    )
    task = _one_task(corpus, config)
    samples, _ = task.query_sets()
    head = maml_learner.fresh_head(rng_from(5, 7))
    a = noenc_learner.logits({**noenc_params, **head}, samples).values
    b = maml_learner.logits({**plain_params, **head}, samples).values
    np.testing.assert_allclose(a, b, atol=1e-12)


def test_timl_enc_meta_gradient_ignores_padding(monkeypatch):
    corpus = bump_corpus()
    learner, config = _learner("timl_enc", corpus, inner_steps=1)
    meta_params = learner.init_meta_params(rng_from(0, 1))
    tasks = [(0, _one_task(corpus, config))]
    plain, _ = learner.meta_gradient(meta_params, tasks, seed=0)
    pack, padded_lengths = nn.pack_batch, []

    def pack_padded(samples, groups):
        batch = pad_batch(pack(samples, groups), TINY.max_seq_len)
        padded_lengths.append(batch[0].shape[1])
        return batch

    monkeypatch.setattr(nn, "pack_batch", pack_padded)
    padded, _ = learner.meta_gradient(meta_params, tasks, seed=0)
    assert padded_lengths and set(padded_lengths) == {TINY.max_seq_len}
    assert plain.keys() == padded.keys()
    for key in plain:
        np.testing.assert_allclose(padded[key], plain[key], rtol=0, atol=1e-12)


def test_timl_encoder_distinguishes_centroids():
    corpus = bump_corpus()
    learner, config = _learner("timl_enc", corpus)
    meta_params = learner.init_meta_params(rng_from(7, 1))
    rng = np.random.default_rng(11)
    meta_params["backbone/film/w2"] = Tensor(rng.standard_normal((nn.FILM_HIDDEN, 2 * TINY.embed_dim)) * 0.3)
    task = _one_task(corpus, config)
    samples, _ = task.support_sets()
    sample = samples[0]
    twin = parcel(
        sample.days, sample.channels, sample.parcel_id + "_moved", sample.lon + 0.3,
        sample.lat - 0.2, sample.region, sample.label, sample.split,
    )
    head = learner.fresh_head(rng_from(7, 2))
    flat = {**meta_params, **head}
    backbone = nn.split_params(flat)[0]
    film_a = film_modulation(backbone, task_info([sample]), TINY.embed_dim)
    film_b = film_modulation(backbone, task_info([twin]), TINY.embed_dim)
    assert not np.allclose(film_a[0].values, film_b[0].values)
    emb_a = learner.logits(flat, [sample]).values
    emb_b = learner.logits(flat, [twin]).values
    assert not np.allclose(emb_a, emb_b)


def test_fresh_head_roster_permutation_symmetry():
    corpus = bump_corpus()
    learner, config = _learner("maml", corpus, n_way=3, inner_steps=1, k_support=1, k_query=2)
    meta_params = learner.init_meta_params(rng_from(9, 1))
    task = _one_task(corpus, config)

    perm = [2, 0, 1]  # new index i holds old class perm[i]
    from fsml.episodes import EpisodeTask

    inverse = np.argsort(perm)
    permuted = EpisodeTask(
        support=[(s, int(inverse[c])) for s, c in task.support],
        query=[(s, int(inverse[c])) for s, c in task.query],
        class_roster=[task.class_roster[p] for p in perm],
        region=task.region,
    )

    head = learner.fresh_head(rng_from(9, 4))
    head_perm = {
        "head/w": Tensor(head["head/w"].values[:, perm]),
        "head/b": Tensor(head["head/b"].values[perm]),
    }
    with Tape():
        flat = {**meta_params, **head}
        adapted = learner.inner_adapt(flat, task)
        q_samples, q_labels = task.query_sets()
        logits = learner.logits(adapted, q_samples)
        loss = nn.cross_entropy(logits, q_labels)
    with Tape():
        flat_p = {**meta_params, **head_perm}
        adapted_p = learner.inner_adapt(flat_p, permuted)
        qp_samples, qp_labels = permuted.query_sets()
        logits_p = learner.logits(adapted_p, qp_samples)
        loss_p = nn.cross_entropy(logits_p, qp_labels)
    np.testing.assert_allclose(logits_p.values, logits.values[:, perm], atol=1e-9)
    assert abs(loss.item() - loss_p.item()) < 1e-9


def test_meta_train_zero_tasks_returns_initialization():
    corpus = bump_corpus()
    config = MetaConfig(algorithm="maml", n_way=2, k_support=1, k_query=1, total_tasks=0)
    backbone, info = meta_train(corpus, config, seed=3, model_config=TINY)
    model = RawSeriesModel(TINY, 1)
    learner = MetaLearner(config, model, corpus.manifest.group_order())
    init = learner.init_meta_params(rng_from(3, 1))
    for k, v in backbone.items():
        np.testing.assert_array_equal(v.values, init[f"backbone/{k}"].values)
    assert info["trace"] == []


def test_meta_train_deterministic_trace():
    corpus = bump_corpus()
    config = MetaConfig(
        algorithm="fomaml", inner_lr=0.5, outer_lr=0.01, inner_steps=1,
        n_way=2, k_support=2, k_query=2, tasks_per_batch=4,
        total_tasks=24, validate_every=12, validation_tasks=10,
    )
    _, info_a = meta_train(corpus, config, seed=11, model_config=TINY)
    _, info_b = meta_train(corpus, config, seed=11, model_config=TINY)
    assert info_a["trace"] == info_b["trace"]
    assert len(info_a["trace"]) == 2


def test_meta_training_improves_adaptation_on_held_out_tasks():
    corpus = bump_corpus(per_class=30, seed=4)
    config = MetaConfig(
        algorithm="maml", inner_lr=0.5, outer_lr=0.01, inner_steps=1,
        n_way=2, k_support=2, k_query=2, tasks_per_batch=4,
        total_tasks=160, validate_every=80, validation_tasks=20,
    )
    backbone, info = meta_train(corpus, config, seed=2, model_config=TINY)
    learner = info["learner"]
    init = learner.init_meta_params(rng_from(2, 1))
    trained = {f"backbone/{k}": v for k, v in backbone.items()}

    held_out_pool = episode_pool(corpus, "validation")
    tasks = [sample_episode(held_out_pool, config.episode_config(999), i) for i in range(30)]
    acc_trained, _ = learner.evaluate_tasks(trained, tasks, seed=2)
    acc_init, _ = learner.evaluate_tasks(init, tasks, seed=2)
    assert acc_trained - acc_init >= 0.10


@pytest.mark.parametrize("algorithm", ["maml", "fomaml", "anil", "timl_enc", "timl_noenc"])
def test_meta_train_smoke_every_algorithm(algorithm):
    corpus = bump_corpus()
    config = MetaConfig(
        algorithm=algorithm, inner_lr=0.3, outer_lr=0.01, encoder_lr=0.02,
        inner_steps=1, n_way=2, k_support=1, k_query=1,
        tasks_per_batch=2, total_tasks=4, validate_every=4, validation_tasks=3,
    )
    backbone, info = meta_train(corpus, config, seed=6, model_config=TINY)
    assert len(info["trace"]) == 1
    assert np.isfinite(info["trace"][0]["mean_query_loss"])
    if algorithm == "timl_enc":
        learner = info["learner"]
        init = learner.init_meta_params(rng_from(6, 1))
        assert any(k.startswith("film/") for k in backbone)
        # encoder weights are meta-learned with their own optimizer
        assert not np.array_equal(
            backbone["film/w2"].values, init["backbone/film/w2"].values
        )
    else:
        assert not any(k.startswith("film/") for k in backbone)


@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_diverged_inner_loop_carries_step_index():
    def explode(p):
        return T.mul(T.mul(p["w"], 1e300), 1e300)

    with Tape():
        with pytest.raises(DivergedError, match="step"):
            adapt_by_gradient_descent(explode, {"w": Tensor(30.0)}, 1.0, 3, False)


def test_meta_config_constants_match_protocol():
    assert meta.INNER_LR_RANGE == (0.01, 10.0)
    assert meta.OUTER_LR_RANGE == (0.0001, 0.1)
    assert meta.ENCODER_LR_RANGE == (0.0001, 0.1)
    assert meta.INNER_STEP_GRID == {4: (1, 4, 10), 10: (1,)}
    config = MetaConfig(algorithm="maml")
    assert config.tasks_per_batch == 4
    assert config.total_tasks == 100_000
    assert config.validate_every == 100
    with pytest.raises(ContractError):
        MetaConfig(algorithm="reptile")


def test_zero_validation_interval_is_a_contract_error():
    with pytest.raises(ContractError, match="validate_every: must be an integer >= 1"):
        MetaConfig(algorithm="maml", validate_every=0)
    assert MetaConfig(algorithm="maml", total_tasks=0).total_tasks == 0
