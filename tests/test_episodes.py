import numpy as np
import pytest
from scipy import stats

from conftest import parcel
from fsml.data import SynthConfig, generate_synthetic
from fsml.episodes import (
    EpisodeConfig,
    EpisodePool,
    build_meta_validation,
    episode_pool,
    sample_episode,
    sample_region,
    sample_task,
)
from fsml.errors import ContractError, EpisodeError
from fsml.seeding import rng_from


def flat_pool(region_class_counts):
    samples = []
    i = 0
    for region, class_counts in region_class_counts.items():
        for label, n in class_counts.items():
            for _ in range(n):
                samples.append(
                    parcel([5], {"s2": np.zeros((1, 2))}, f"p{i}", region=region, label=label)
                )
                i += 1
    return samples


def test_config_validation():
    with pytest.raises(ContractError):
        EpisodeConfig(n_way=1, k_support=1, k_query=1)
    with pytest.raises(ContractError):
        EpisodeConfig(n_way=4, k_support=0, k_query=1)


def test_region_ratio_trivial():
    config = EpisodeConfig(n_way=2, k_support=1, k_query=1)
    pool = flat_pool({"R1": {"a": 50, "b": 50}})
    assert sample_region(pool, config, rng_from(0, 0)) == "R1"


def test_region_probabilities_match_counts():
    config = EpisodeConfig(n_way=2, k_support=1, k_query=1)
    pool = flat_pool({"R1": {"a": 50, "b": 50}, "R2": {"a": 150, "b": 150}})
    draws = [sample_region(pool, config, rng_from(7, i)) for i in range(10_000)]
    observed = np.array([draws.count("R1"), draws.count("R2")])
    _, p = stats.chisquare(observed, f_exp=[2500, 7500])
    assert p > 0.001


def test_within_region_class_marginal_uniform():
    config = EpisodeConfig(n_way=2, k_support=1, k_query=1)
    pool = flat_pool({"R1": {"a": 40, "b": 40, "c": 40, "d": 40}})
    counts = {"a": 0, "b": 0, "c": 0, "d": 0}
    for i in range(10_000):
        task = sample_task(pool, "R1", config, rng_from(3, i))
        for label in task.class_roster:
            counts[label] += 1
    observed = np.array([counts[c] for c in "abcd"])
    _, p = stats.chisquare(observed)  # uniform expected
    assert p > 0.001


def test_no_eligible_region_raises():
    config = EpisodeConfig(n_way=3, k_support=1, k_query=5)
    pool = flat_pool({"R1": {"a": 6, "b": 6, "c": 3}})  # c has < k_query+1
    with pytest.raises(EpisodeError):
        sample_region(pool, config, rng_from(0, 0))


def test_full_support_when_plentiful():
    config = EpisodeConfig(n_way=2, k_support=3, k_query=2)
    pool = flat_pool({"R1": {"a": 10, "b": 10}})
    task = sample_task(pool, "R1", config, rng_from(1, 1))
    assert len(task.query) == config.n_way * config.k_query
    assert len(task.support) == config.n_way * config.k_support


def test_fallback_support_size_when_scarce():
    # class with exactly k_query+1 samples and k_support=10 -> support of 1
    config = EpisodeConfig(n_way=2, k_support=10, k_query=3)
    pool = flat_pool({"R1": {"a": 4, "b": 30}})
    task = sample_task(pool, "R1", config, rng_from(2, 0))
    by_class = {}
    for sample, idx in task.support:
        by_class.setdefault(task.class_roster[idx], []).append(sample)
    assert len(by_class[task.class_roster[task.class_roster.index("a")]]) == 1
    assert len(by_class["b"]) == 10
    assert len(task.query) == 6


def test_support_query_disjoint():
    config = EpisodeConfig(n_way=3, k_support=4, k_query=2)
    pool = flat_pool({"R1": {"a": 9, "b": 9, "c": 9}})
    for i in range(50):
        task = sample_task(pool, "R1", config, rng_from(11, i))
        support_ids = {s.parcel_id for s, _ in task.support}
        query_ids = {s.parcel_id for s, _ in task.query}
        assert not support_ids & query_ids


def test_labels_consistent_with_roster():
    config = EpisodeConfig(n_way=3, k_support=2, k_query=2)
    pool = flat_pool({"R1": {"a": 8, "b": 8, "c": 8, "d": 8}})
    task = sample_task(pool, "R1", config, rng_from(4, 2))
    assert len(set(task.class_roster)) == len(task.class_roster)
    for sample, idx in task.support + task.query:
        assert sample.label == task.class_roster[idx]


def _task_ids(task):
    return (
        [(s.parcel_id, c) for s, c in task.support],
        [(s.parcel_id, c) for s, c in task.query],
        task.class_roster,
        task.region,
    )


def test_indexed_pool_draws_the_tasks_of_a_plain_list():
    # R1's class a has k_query + 1 samples (a fallback support set), R3 has
    # too few eligible classes, and the regions' and classes' samples interleave
    config = EpisodeConfig(n_way=3, k_support=4, k_query=2, seed=5)
    samples = flat_pool({
        "R1": {"a": 3, "b": 9, "c": 7, "d": 2},
        "R2": {"a": 8, "b": 6, "c": 12},
        "R3": {"a": 9, "b": 9, "c": 2},
    })
    samples = [samples[i] for i in np.random.default_rng(0).permutation(len(samples))]
    indexed = EpisodePool.of(samples)
    assert list(indexed) == samples and len(indexed) == len(samples)
    assert EpisodePool.of(indexed) is indexed
    drawn = [_task_ids(sample_episode(indexed, config, ordinal)) for ordinal in range(200)]
    assert drawn == [_task_ids(sample_episode(samples, config, ordinal)) for ordinal in range(200)]
    assert {region for *_, region in drawn} == {"R1", "R2"}
    assert any(len(support) < config.n_way * config.k_support for support, *_ in drawn)
    for pool in (indexed, samples):
        with pytest.raises(EpisodeError, match="region R3 has only 2 eligible classes"):
            sample_task(pool, "R3", config, rng_from(0, 0))


def _synthetic_corpus():
    cfg = SynthConfig(
        regions=["R1", "R2"],
        finetune_region="T1",
        n_classes=5,
        n_level4=5,
        samples_per_class=24,
        finetune_samples_per_class=20,
        obs_count=(5, 8),
        k_max=5,
    )
    return generate_synthetic(cfg, seed=42)


def test_meta_validation_fixed_and_seed_stable():
    corpus = _synthetic_corpus()
    config = EpisodeConfig(n_way=4, k_support=1, k_query=1, seed=3)
    tasks_a = build_meta_validation(corpus, config, count=100)
    tasks_b = build_meta_validation(corpus, config, count=100)
    assert len(tasks_a) == 100
    validation_ids = {s.parcel_id for s in episode_pool(corpus, "validation")}
    for ta, tb in zip(tasks_a, tasks_b):
        assert [s.parcel_id for s, _ in ta.support] == [s.parcel_id for s, _ in tb.support]
        assert [s.parcel_id for s, _ in ta.query] == [s.parcel_id for s, _ in tb.query]
        for s, _ in ta.support + ta.query:
            assert s.parcel_id in validation_ids
        assert len(ta.query) == 4
        assert len(ta.support) <= 4


def test_meta_validation_different_seed_differs():
    corpus = _synthetic_corpus()
    a = build_meta_validation(corpus, EpisodeConfig(4, 1, 1, seed=3), count=20)
    b = build_meta_validation(corpus, EpisodeConfig(4, 1, 1, seed=4), count=20)
    sig = lambda ts: [[s.parcel_id for s, _ in t.query] for t in ts]
    assert sig(a) != sig(b)

