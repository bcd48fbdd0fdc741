"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as the
criteria complete.  Tolerances and runtime budgets are asserted inline.
"""

import time
from contextlib import contextmanager
import numpy as np
import pytest
from scipy import stats as scipy_stats

from conftest import assert_grads_close, finite_diff, parcel
from fsml import cli, nn, ssl as ssl_mod
from fsml import tensor as T
from fsml.data import (
    Corpus,
    GroupSpec,
    SynthConfig,
    build_hierarchy_codes,
    generate_synthetic,
    load_corpus,
    save_corpus,
    subset_by_split,
)
from fsml.episodes import EpisodeConfig, build_meta_validation, sample_region, sample_task
from fsml.meta import MetaConfig, adapt_by_gradient_descent, meta_train
from fsml.metrics import (
    ConfusionTable,
    cohens_kappa,
    overall_accuracy,
    parent_level_accuracy,
    subset_accuracy,
)
from fsml.nn import RawSeriesModel, cross_entropy, load_checkpoint, save_checkpoint
from fsml.seeding import STREAM_INIT, rng_from
from fsml.ssl import (
    MaskedAutoencoder,
    SSLConfig,
    TokenClassifier,
    base_plan,
    build_mask,
    encode_token_batch,
    encoder_backbone,
    pretrain_ssl,
    reconstruction_loss,
    xts_plan,
)
from fsml.tensor import Tape, Tensor, grad
from fsml.tokens import group_spec, presto_regime, xts_regime
from fsml.train import finetune, same_lr, split_lr

import test_tensor

SEEDS = [0, 1, 42, 123, 1234]


@contextmanager
def criterion(number, title):
    start = time.time()
    try:
        yield
    except Exception:
        print(f"[FAIL] criterion {number:02d}: {title} ({time.time() - start:.1f}s)")
        raise
    print(f"[PASS] criterion {number:02d}: {title} ({time.time() - start:.1f}s)")


def test_criterion_01_autodiff_soundness():
    with criterion(1, "autodiff soundness (finite differences)"):
        start = time.time()
        # every primitive, 20 random points each, rel error < 1e-6
        for case in test_tensor.PRIMITIVE_CASES:
            make = case.values[0]
            case_id = case.id
            for point in range(20):
                r = np.random.default_rng(1000 + point)
                build = make(r)
                test_tensor._gradcheck(build, test_tensor._inputs_for(case_id, r), tol=1e-6)
        # full encode+classify cross-entropy loss, rel error < 1e-4
        rng = np.random.default_rng(12345)
        config = nn.small_config(embed_dim=8, num_heads=2, hidden_dim=12, max_seq_len=8)
        model = RawSeriesModel(config, in_channels=3)
        params = model.init_params(rng, n_classes=3)
        values = rng.standard_normal((2, 3, 3))
        days = np.array([[1, 4, 7], [2, 3, 6]])
        mask = np.ones((2, 3), dtype=bool)
        labels = np.array([0, 2])
        names = sorted(params.named())

        def loss_from(arrays):
            tensors = {k: Tensor(a) for k, a in zip(names, arrays)}
            backbone = {k.split("/", 1)[1]: v for k, v in tensors.items() if k.startswith("backbone/")}
            head = {k.split("/", 1)[1]: v for k, v in tensors.items() if k.startswith("head/")}
            logits = model.logits(backbone, head, (values, days, mask))
            return cross_entropy(logits, labels).item()

        arrays = [params.named()[k].values.copy() for k in names]
        with Tape():
            tensors = {k: Tensor(a) for k, a in zip(names, arrays)}
            backbone = {k.split("/", 1)[1]: v for k, v in tensors.items() if k.startswith("backbone/")}
            head = {k.split("/", 1)[1]: v for k, v in tensors.items() if k.startswith("head/")}
            logits = model.logits(backbone, head, (values, days, mask))
            grads = grad(cross_entropy(logits, labels), list(tensors.values()))
        fd = finite_diff(loss_from, arrays)
        for g, f in zip(grads, fd):
            assert_grads_close(g.values, f, 1e-4)
        elapsed = time.time() - start
        assert elapsed < 60, f"criterion 1 runtime {elapsed:.1f}s exceeds 60s"


def _quadratic(p):
    return T.mul(T.mul(p["w"], p["w"]), 0.5)


def test_criterion_02_second_order_meta_gradient_oracle():
    with criterion(2, "second-order meta-gradient oracle"):
        start = time.time()
        with Tape():
            theta = Tensor(1.0)
            adapted = adapt_by_gradient_descent(_quadratic, {"w": theta}, 0.1, 1, True)
            maml = grad(_quadratic(adapted), theta)
        assert abs(maml.item() - 0.81) < 1e-12
        with Tape():
            theta = Tensor(1.0)
            adapted = adapt_by_gradient_descent(_quadratic, {"w": theta}, 0.1, 1, False)
            fomaml = grad(_quadratic(adapted), theta)
        assert abs(fomaml.item() - 0.9) < 1e-12

        # 50-parameter MLP: meta-gradient vs finite differences of the meta-objective
        rng = np.random.default_rng(77)
        shapes = {"p0": (5, 7), "p1": (7,), "p2": (7, 1), "p3": (1,)}
        arrays = {k: rng.standard_normal(s) * 0.4 for k, s in shapes.items()}
        assert sum(a.size for a in arrays.values()) == 50
        xs, ys = rng.standard_normal((4, 5)), rng.standard_normal((4, 1))
        xq, yq = rng.standard_normal((6, 5)), rng.standard_normal((6, 1))

        def mlp_loss(p, x, y):
            h = T.gelu(T.add(T.matmul(Tensor(x), p["p0"]), p["p1"]))
            out = T.add(T.matmul(h, p["p2"]), p["p3"])
            diff = T.sub(out, Tensor(y))
            return T.reduce_mean(T.mul(diff, diff))

        def meta_objective(values):
            with Tape():
                params = {k: Tensor(v) for k, v in values.items()}
                adapted = adapt_by_gradient_descent(
                    lambda p: mlp_loss(p, xs, ys), params, 0.05, 2, True
                )
                return mlp_loss(adapted, xq, yq).item()

        with Tape():
            params = {k: Tensor(v.copy()) for k, v in arrays.items()}
            adapted = adapt_by_gradient_descent(
                lambda p: mlp_loss(p, xs, ys), params, 0.05, 2, True
            )
            meta_grads = grad(mlp_loss(adapted, xq, yq), [params[k] for k in sorted(params)])
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
        elapsed = time.time() - start
        assert elapsed < 120, f"criterion 2 runtime {elapsed:.1f}s exceeds 120s"


def test_criterion_03_first_order_equivalence_and_anil():
    with criterion(3, "first-order equivalence and frozen-backbone contract"):
        c = np.array([0.7, -1.3, 2.1])

        def inner(p):
            return T.reduce_sum(T.mul(p["w"], Tensor(c)))

        def query(p):
            return T.reduce_sum(T.mul(p["w"], p["w"]))

        results = {}
        for label, second_order in (("maml", True), ("fomaml", False)):
            with Tape():
                theta = Tensor(np.array([0.5, -0.2, 1.0]))
                adapted = adapt_by_gradient_descent(inner, {"w": theta}, 0.05, 3, second_order)
                results[label] = grad(query(adapted), theta).values
        assert np.max(np.abs(results["maml"] - results["fomaml"])) < 1e-12

        # anil: backbone tensors bit-identical through every inner step
        from test_meta import TINY, _learner, _one_task, bump_corpus

        corpus = bump_corpus()
        learner, config = _learner("anil", corpus, inner_steps=3)
        meta_params = learner.init_meta_params(rng_from(0, 1))
        task = _one_task(corpus, config)
        with Tape():
            flat = dict(meta_params)
            flat.update(learner.fresh_head(rng_from(0, 3)))
            before = {k: v.values.copy() for k, v in flat.items() if k.startswith("backbone/")}
            adapted = learner.inner_adapt(flat, task)
        for k, v in before.items():
            assert adapted[k] is flat[k]
            assert np.array_equal(adapted[k].values, v)


def test_criterion_04_masking_laws():
    with criterion(4, "masking laws and loss support"):
        start = time.time()
        single = group_spec(("only", 1, "dynamic"))
        for n in range(8, 513):
            mask = build_mask(base_plan("mixed"), single, n, rng_from(0, n))
            assert mask.sum() == int(np.floor(0.75 * n))
        multi = group_spec(*[(f"g{i}", 2, "dynamic") for i in range(4)])
        for trial in range(50):
            mask = build_mask(xts_plan("mixed"), multi, 12, rng_from(1, trial))
            assert mask.sum() <= int(np.ceil(0.70 * multi.token_count(12)))

        # loss support: invariant to unmasked reconstruction cells and to
        # masked input-cell values
        model = MaskedAutoencoder(
            nn.TransformerConfig(16, 2, 32, 1, 1, 64),
            group_spec(("s2", 3, "dynamic")),
            xts_regime(16, max_timesteps=16),
            "cross_attention",
        )
        rng = np.random.default_rng(0)
        samples = []
        for i in range(3):
            days = np.sort(rng.choice(np.arange(1, 50), size=6, replace=False))
            rows = [rng.random(3) for _ in days]
            samples.append(parcel(days, {"s2": rows}, f"s{i}", lon=0.1, lat=0.2))
        params = model.init_params(rng_from(2, 1))
        batch = encode_token_batch(samples, model.spec, model.regime, params)
        masks = np.stack([
            build_mask(base_plan("random"), model.spec, 6, rng_from(3, i), padding=batch.pad[i])
            for i in range(3)
        ])
        recon = model.reconstruct(params, batch, masks)
        base_loss = reconstruction_loss(recon, batch, masks).item()
        perturbed = Tensor(recon.values.copy())
        perturbed.values[~masks & ~batch.pad] += 7.5
        assert reconstruction_loss(perturbed, batch, masks).item() == pytest.approx(base_loss, abs=1e-12)
        poisoned_tokens = Tensor(batch.tokens.values.copy())
        poisoned_tokens.values[masks] = 1e6
        poisoned = ssl_mod.TokenBatch(
            tokens=poisoned_tokens, context=batch.context, group_index=batch.group_index,
            time_index=batch.time_index, pad=batch.pad, targets=batch.targets,
            target_width=batch.target_width,
        )
        loss_poisoned = reconstruction_loss(
            model.reconstruct(params, poisoned, masks), poisoned, masks
        ).item()
        assert loss_poisoned == pytest.approx(base_loss, abs=1e-12)
        elapsed = time.time() - start
        assert elapsed < 30, f"criterion 4 runtime {elapsed:.1f}s exceeds 30s"


def test_criterion_05_token_geometry():
    with criterion(5, "token geometry and regime dimension equations"):
        rng = np.random.default_rng(0)
        for _ in range(50):
            n_static = int(rng.integers(0, 3))
            n_dynamic = int(rng.integers(1, 5))
            t = int(rng.integers(1, 25))
            groups = [(f"st{i}", int(rng.integers(1, 5)), "static") for i in range(n_static)]
            groups += [(f"dy{i}", int(rng.integers(1, 6)), "dynamic") for i in range(n_dynamic)]
            spec = group_spec(*groups)
            assert spec.token_count(t) == n_static + n_dynamic * t
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


def test_criterion_06_episode_sampler_statistics():
    with criterion(6, "episode sampler statistics"):
        from test_episodes import flat_pool

        config = EpisodeConfig(n_way=2, k_support=1, k_query=1)
        pool = flat_pool({"R1": {"a": 50, "b": 50}, "R2": {"a": 150, "b": 150}})
        draws = [sample_region(pool, config, rng_from(7, i)) for i in range(10_000)]
        observed = np.array([draws.count("R1"), draws.count("R2")])
        _, p = scipy_stats.chisquare(observed, f_exp=[2500, 7500])
        assert p > 0.001

        class_pool = flat_pool({"R1": {"a": 40, "b": 40, "c": 40, "d": 40}})
        counts = {"a": 0, "b": 0, "c": 0, "d": 0}
        for i in range(10_000):
            task = sample_task(class_pool, "R1", config, rng_from(3, i))
            for label in task.class_roster:
                counts[label] += 1
        _, p = scipy_stats.chisquare(np.array([counts[k] for k in "abcd"]))
        assert p > 0.001

        # scarcity fallback: support size equals the remaining count
        scarce = flat_pool({"R1": {"a": 4, "b": 30}})
        fallback_config = EpisodeConfig(n_way=2, k_support=10, k_query=3)
        task = sample_task(scarce, "R1", fallback_config, rng_from(2, 0))
        support_a = [s for s, c in task.support if task.class_roster[c] == "a"]
        assert len(support_a) == 1  # 4 samples - 3 query = 1 remaining

        # meta-validation: exactly 100 tasks, stable under the seed
        corpus = generate_synthetic(
            SynthConfig(
                regions=["R1", "R2"], finetune_region="T1", n_classes=5, n_level4=5,
                samples_per_class=24, finetune_samples_per_class=20,
                obs_count=(5, 8), k_max=5,
            ),
            seed=42,
        )
        episode_config = EpisodeConfig(n_way=4, k_support=1, k_query=1, seed=3)
        a = build_meta_validation(corpus, episode_config, count=100)
        b = build_meta_validation(corpus, episode_config, count=100)
        assert len(a) == len(b) == 100
        for ta, tb in zip(a, b):
            assert [s.parcel_id for s, _ in ta.query] == [s.parcel_id for s, _ in tb.query]
            assert [s.parcel_id for s, _ in ta.support] == [s.parcel_id for s, _ in tb.support]


def test_criterion_07_metric_oracles():
    with criterion(7, "metric oracles"):
        table = ConfusionTable(labels=["a", "b"], counts=np.array([[20, 5], [10, 15]]))
        assert abs(cohens_kappa(table) - 0.4) < 1e-12

        codes, hierarchy = build_hierarchy_codes(3, 9, 30)
        rng = np.random.default_rng(5)
        for _ in range(10_000):
            size = int(rng.integers(5, 40))
            preds = [codes[i] for i in rng.integers(0, 30, size=size)]
            labels = [codes[i] for i in rng.integers(0, 30, size=size)]
            a3 = parent_level_accuracy(preds, labels, 3, hierarchy)
            a4 = parent_level_accuracy(preds, labels, 4, hierarchy)
            a6 = parent_level_accuracy(preds, labels, 6, hierarchy)
            assert a3 >= a4 >= a6

        preds = rng.integers(0, 6, size=500).tolist()
        labels = rng.integers(0, 6, size=500).tolist()
        parts = [{0, 1}, {2, 3}, {4, 5}]
        combined = sum(
            (sum(1 for t in labels if t in part) / len(labels))
            * subset_accuracy(preds, labels, part)
            for part in parts
        )
        assert abs(combined - overall_accuracy(preds, labels)) < 1e-12


# --- criterion 8: end-to-end synthetic reproduction -------------------------


def _corpus_separable():
    return generate_synthetic(
        SynthConfig(
            regions=["R1", "R2"], finetune_region="T1",
            n_classes=6, n_level4=4, n_level3=2,
            samples_per_class=30, finetune_samples_per_class=80,
            groups=[GroupSpec("s2", 4, "dynamic")],
            obs_count=(8, 12), noise_sigma=0.05, separability=1.2, k_max=10,
        ),
        seed=0,
    )


def _corpus_meta():
    return generate_synthetic(
        SynthConfig(
            regions=["R1", "R2"], finetune_region="T1",
            n_classes=6, n_level4=4, n_level3=2,
            samples_per_class=40, finetune_samples_per_class=60,
            groups=[GroupSpec("s2", 4, "dynamic")],
            obs_count=(8, 12), noise_sigma=0.15, separability=0.8, k_max=10,
        ),
        seed=0,
    )


def _corpus_ssl():
    return generate_synthetic(
        SynthConfig(
            regions=["R1", "R2"], finetune_region="T1",
            n_classes=6, n_level4=4, n_level3=2,
            samples_per_class=250, finetune_samples_per_class=100,
            majority_boost=2.5,
            groups=[GroupSpec("s1", 2, "dynamic"), GroupSpec("s2", 3, "dynamic")],
            obs_count=(8, 12), noise_sigma=0.22, separability=0.7, k_max=10,
        ),
        seed=0,
    )


TINY = nn.small_config(embed_dim=16, num_heads=2, hidden_dim=32)


def _scratch_bar(corpus):
    train_split = subset_by_split(corpus.finetune_pool(), "train")
    k_full = max(
        sum(1 for s in train_split if s.label == c) for c in {s.label for s in train_split}
    )
    model = RawSeriesModel(TINY, 4, tuple(corpus.manifest.group_order()))
    accs = []
    for seed in SEEDS:
        init = model.init_backbone(rng_from(seed, STREAM_INIT))
        _, report, _ = finetune(corpus, model, init, same_lr(3e-3), k=k_full, seed=seed, max_epochs=150)
        accs.append(report.overall_accuracy)
    return accs


def _meta_vs_scratch(corpus):
    model = RawSeriesModel(TINY, 4, tuple(corpus.manifest.group_order()))
    meta_config = MetaConfig(
        algorithm="maml", inner_lr=0.5, outer_lr=0.01, inner_steps=4,
        n_way=4, k_support=1, k_query=2, tasks_per_batch=4,
        total_tasks=400, validate_every=100, validation_tasks=30,
    )
    meta_acc, scratch_acc = [], []
    for seed in SEEDS:
        backbone, _ = meta_train(corpus, meta_config, seed=seed, model_config=TINY)
        _, rep_meta, _ = finetune(corpus, model, backbone, same_lr(1e-3), k=20, seed=seed)
        scratch = model.init_backbone(rng_from(seed, STREAM_INIT))
        _, rep_scratch, _ = finetune(corpus, model, scratch, same_lr(1e-3), k=20, seed=seed)
        meta_acc.append(rep_meta.overall_accuracy)
        scratch_acc.append(rep_scratch.overall_accuracy)
    return meta_acc, scratch_acc


def _ssl_vs_scratch(corpus):
    spec = group_spec(("location", 3, "static"), ("s1", 2, "dynamic"), ("s2", 3, "dynamic"))
    regime = xts_regime(16, max_timesteps=16)
    autoencoder = MaskedAutoencoder(
        nn.TransformerConfig(16, 2, 32, 1, 1, 64), spec, regime, "cross_attention"
    )
    ssl_config = SSLConfig(
        variant="cross_attention", plan=xts_plan("mixed"), learning_rate=3e-3,
        batch_size=32, validate_every=20, patience=15, max_batches=150,
    )
    regime_ft = split_lr(3e-3, 1e-4)
    clf_config = nn.TransformerConfig(16, 2, 32, 1, 0, 64)
    ssl_mca, scratch_mca = [], []
    for seed in SEEDS:
        params, stats, _ = pretrain_ssl(corpus, autoencoder, ssl_config, seed)
        clf = TokenClassifier(clf_config, spec, regime, stats)
        _, rep_ssl, _ = finetune(
            corpus, clf, encoder_backbone(params), regime_ft, k=20, seed=seed, max_epochs=60
        )
        scratch = clf.init_backbone(rng_from(seed, STREAM_INIT))
        _, rep_scratch, _ = finetune(
            corpus, clf, scratch, regime_ft, k=20, seed=seed, max_epochs=60
        )
        ssl_mca.append(rep_ssl.minority_accuracy)
        scratch_mca.append(rep_scratch.minority_accuracy)
    return ssl_mca, scratch_mca


@pytest.mark.filterwarnings("ignore:class .* requested shots available")
def test_criterion_08_end_to_end_synthetic_reproduction():
    with criterion(8, "end-to-end synthetic reproduction"):
        start = time.time()

        scratch_bar = _scratch_bar(_corpus_separable())
        print(f"  (a) from-scratch full-split a_OA per seed: {[round(a, 3) for a in scratch_bar]}")
        assert float(np.mean(scratch_bar)) >= 0.9
        assert min(scratch_bar) >= 0.9

        meta_acc, scratch_acc = _meta_vs_scratch(_corpus_meta())
        print(f"  (b) 20-shot a_OA meta={[round(a, 3) for a in meta_acc]} "
              f"scratch={[round(a, 3) for a in scratch_acc]}")
        assert float(np.mean(meta_acc)) > float(np.mean(scratch_acc))

        ssl_mca, scratch_mca = _ssl_vs_scratch(_corpus_ssl())
        print(f"  (c) 20-shot a_MCA ssl={[round(a, 3) for a in ssl_mca]} "
              f"scratch={[round(a, 3) for a in scratch_mca]}")
        assert float(np.mean(ssl_mca)) > float(np.mean(scratch_mca))

        elapsed = time.time() - start
        assert elapsed < 1800, f"criterion 8 runtime {elapsed:.0f}s exceeds 30 minutes"


def test_criterion_09_determinism(tmp_path):
    with criterion(9, "byte-identical reruns"):
        dataset = tmp_path / "corpus.jsonl"
        out = tmp_path / "runs"
        synth = {
            "schema_version": 1, "mode": "synth-data", "dataset": str(dataset),
            "out": str(out), "seeds": [0],
            "synth": {
                "regions": ["R1", "R2"], "finetune_region": "T1", "n_classes": 4,
                "n_level4": 4, "samples_per_class": 24, "finetune_samples_per_class": 30,
                "groups": [{"name": "s2", "channels": 3, "kind": "dynamic"}],
                "obs_count": [6, 9], "noise_sigma": 0.06, "separability": 1.2, "k_max": 5,
            },
        }
        cli.run(synth)
        finetune_config = {
            "schema_version": 1, "mode": "finetune", "dataset": str(dataset),
            "out": str(out), "seeds": [0],
            "model": {"embed_dim": 16, "num_heads": 2, "hidden_dim": 32},
            "finetune": {"source": "scratch", "kshots": [2], "max_epochs": 2,
                         "regime": "same_lr", "lr_head": 1e-3, "lr_backbone": 1e-3},
        }
        meta_config = {
            "schema_version": 1, "mode": "pretrain-meta", "dataset": str(dataset),
            "out": str(out), "seeds": [0],
            "model": {"embed_dim": 16, "num_heads": 2, "hidden_dim": 32},
            "meta": {"algorithm": "fomaml", "inner_lr": 0.5, "outer_lr": 0.01,
                     "inner_steps": 1, "n_way": 2, "k_support": 1, "k_query": 1,
                     "tasks_per_batch": 4, "total_tasks": 8, "validate_every": 8,
                     "validation_tasks": 5},
        }

        def snapshot():
            cli.run(finetune_config)
            cli.run(meta_config)
            return {
                str(p.relative_to(out)): p.read_bytes()
                for p in sorted(out.rglob("*"))
                if p.is_file()
            }

        first = snapshot()
        second = snapshot()
        assert first.keys() == second.keys()
        for name, blob in first.items():
            assert second[name] == blob, f"artifact {name} differs across reruns"
        assert any(name.endswith("results.csv") for name in first)
        assert any(name.endswith(".fsml") for name in first)
        assert any(name.endswith(".csv") and "traces" in name for name in first)


def test_criterion_10_format_roundtrips(tmp_path):
    with criterion(10, "format round-trips"):
        corpus = generate_synthetic(
            SynthConfig(
                regions=["R1", "R2"], finetune_region="T1", n_classes=4, n_level4=4,
                samples_per_class=20, finetune_samples_per_class=20,
                obs_count=(6, 9), k_max=5,
            ),
            seed=7,
        )
        sub = Corpus(corpus.samples[:100], corpus.manifest)
        assert len(sub.samples) == 100
        first = tmp_path / "one.jsonl"
        save_corpus(sub, first)
        second = tmp_path / "two.jsonl"
        save_corpus(load_corpus(first), second)
        assert first.read_bytes() == second.read_bytes()

        rng = np.random.default_rng(3)
        arrays = {
            "backbone/in/w": rng.standard_normal((4, 16)),
            "backbone/enc0/ln1/g": np.ones(16),
            "head/w": rng.standard_normal((16, 4)),
        }
        ck1 = tmp_path / "a.fsml"
        save_checkpoint(ck1, arrays, meta={"config_hash": "h", "seed": "0"})
        loaded, meta_info = load_checkpoint(ck1)
        ck2 = tmp_path / "b.fsml"
        save_checkpoint(ck2, loaded, meta=meta_info)
        assert ck1.read_bytes() == ck2.read_bytes()
