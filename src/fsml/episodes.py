"""n-way k-shot episode construction over region-tagged sample pools.

Episode protocol: first a region is drawn with probability proportional to
its data-point count, then n distinct classes are drawn uniformly among the
region's eligible classes; per class the query samples are drawn first and
the support set comes from the remainder (falling back to "all of them" when
fewer than k_support remain).

Construction is deterministic given (seed, task ordinal): every task uses a
generator derived from the pair, so task streams can be built concurrently.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ContractError, EpisodeError
from .seeding import STREAM_EPISODES, rng_from

META_VALIDATION_TASKS = 100


@dataclass(frozen=True)
class EpisodeConfig:
    n_way: int
    k_support: int
    k_query: int
    seed: int = 0

    def __post_init__(self):
        if self.n_way < 2:
            raise ContractError(f"n_way must be >= 2, got {self.n_way}")
        if self.k_support < 1 or self.k_query < 1:
            raise ContractError("k_support and k_query must be >= 1")


@dataclass
class EpisodeTask:
    support: list  # (sample, class index) pairs
    query: list
    class_roster: list  # class codes, index position = class index
    region: str

    def support_sets(self):
        return [s for s, _ in self.support], np.array([c for _, c in self.support])

    def query_sets(self):
        return [s for s, _ in self.query], np.array([c for _, c in self.query])


def episode_pool(corpus, split):
    """Pre-training-region samples of one split, the episode sampling pool."""
    return [s for s in corpus.pretrain_pool() if s.split == split]


def _eligible_classes(pool, config):
    counts = {}
    for s in pool:
        counts[s.label] = counts.get(s.label, 0) + 1
    # a class needs k_query + 1 samples so the fallback support is non-empty
    return sorted(label for label, c in counts.items() if c >= config.k_query + 1)


def sample_region(samples, config, rng):
    """Draw a region with probability proportional to its data-point count."""
    pools = {}
    for s in samples:
        pools.setdefault(s.region, []).append(s)
    eligible = {
        region: pool
        for region, pool in pools.items()
        if len(_eligible_classes(pool, config)) >= config.n_way
    }
    if not eligible:
        raise EpisodeError(
            f"no region has {config.n_way} classes with >= {config.k_query + 1} samples"
        )
    regions = sorted(eligible)
    counts = np.array([len(eligible[r]) for r in regions], dtype=np.float64)
    probabilities = counts / counts.sum()
    return regions[int(rng.choice(len(regions), p=probabilities))]


def sample_task(samples, region, config, rng):
    """Draw one n-way k-shot task from a region's pool (query first)."""
    pool = [s for s in samples if s.region == region]
    by_class = {}
    for s in pool:
        by_class.setdefault(s.label, []).append(s)
    eligible = _eligible_classes(pool, config)
    if len(eligible) < config.n_way:
        raise EpisodeError(
            f"region {region} has only {len(eligible)} eligible classes, "
            f"need {config.n_way}"
        )
    roster_idx = rng.choice(len(eligible), size=config.n_way, replace=False)
    roster = [eligible[int(i)] for i in roster_idx]

    support, query = [], []
    for class_idx, label in enumerate(roster):
        members = by_class[label]
        order = rng.permutation(len(members))
        query_pick = order[: config.k_query]
        remainder = order[config.k_query :]
        support_pick = remainder[: min(config.k_support, len(remainder))]
        query.extend((members[int(i)], class_idx) for i in query_pick)
        support.extend((members[int(i)], class_idx) for i in support_pick)
    return EpisodeTask(support=support, query=query, class_roster=roster, region=region)


def sample_episode(samples, config, ordinal, seed=None):
    """Deterministic task for (seed, ordinal): region draw then task draw."""
    rng = rng_from(config.seed if seed is None else seed, STREAM_EPISODES, ordinal)
    region = sample_region(samples, config, rng)
    return sample_task(samples, region, config, rng)


def build_meta_validation(corpus, config, count=META_VALIDATION_TASKS, seed=None):
    """Fixed validation tasks, drawn only from the pre-training validation split."""
    pool = episode_pool(corpus, "validation")
    if not pool:
        raise EpisodeError("pre-training validation split is empty")
    base = config.seed if seed is None else seed
    return [
        sample_episode(pool, config, ordinal, seed=base + 1_000_000_007)
        for ordinal in range(count)
    ]
