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

from .errors import EpisodeError, require_counts
from .seeding import STREAM_EPISODES, rng_from

META_VALIDATION_TASKS = 100


@dataclass(frozen=True)
class EpisodeConfig:
    n_way: int
    k_support: int
    k_query: int
    seed: int = 0

    def __post_init__(self):
        require_counts(2, n_way=self.n_way)
        require_counts(k_support=self.k_support, k_query=self.k_query)


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


@dataclass(frozen=True)
class RegionIndex:
    """One region's samples, grouped by class once for every task drawn from it."""

    samples: tuple
    members: dict  # class label -> its samples, in pool order
    labels: tuple  # sorted class labels

    @classmethod
    def of(cls, samples):
        members = {}
        for s in samples:
            members.setdefault(s.label, []).append(s)
        return cls(tuple(samples), {k: tuple(v) for k, v in members.items()}, tuple(sorted(members)))

    def eligible_classes(self, config):
        """Sorted classes with k_query + 1 samples, so the fallback support is non-empty."""
        need = config.k_query + 1
        return [label for label in self.labels if len(self.members[label]) >= need]


@dataclass(frozen=True)
class EpisodePool:
    """A sample pool indexed by region and class, built once.

    ``sample_region``, ``sample_task`` and ``sample_episode`` read the index
    instead of regrouping the pool for every task; a plain list of samples
    passed to them is indexed on the spot.
    """

    samples: tuple
    regions: dict  # region -> RegionIndex

    @classmethod
    def of(cls, samples):
        if isinstance(samples, cls):
            return samples
        samples = tuple(samples)
        by_region = {}
        for s in samples:
            by_region.setdefault(s.region, []).append(s)
        return cls(samples, {r: RegionIndex.of(pool) for r, pool in by_region.items()})

    def __iter__(self):
        return iter(self.samples)

    def __len__(self):
        return len(self.samples)


def episode_pool(corpus, split):
    """Pre-training-region samples of one split, indexed for episode sampling."""
    return EpisodePool.of(s for s in corpus.pretrain_pool() if s.split == split)


def sample_region(samples, config, rng):
    """Draw a region with probability proportional to its data-point count."""
    index = EpisodePool.of(samples)
    regions = sorted(
        region for region, pool in index.regions.items()
        if len(pool.eligible_classes(config)) >= config.n_way
    )
    if not regions:
        raise EpisodeError(
            f"no region has {config.n_way} classes with >= {config.k_query + 1} samples"
        )
    counts = np.array([len(index.regions[r].samples) for r in regions], dtype=np.float64)
    probabilities = counts / counts.sum()
    return regions[int(rng.choice(len(regions), p=probabilities))]


def sample_task(samples, region, config, rng):
    """Draw one n-way k-shot task from a region's pool (query first)."""
    pool = EpisodePool.of(samples).regions.get(region)
    eligible = [] if pool is None else pool.eligible_classes(config)
    if len(eligible) < config.n_way:
        raise EpisodeError(
            f"region {region} has only {len(eligible)} eligible classes, "
            f"need {config.n_way}"
        )
    roster_idx = rng.choice(len(eligible), size=config.n_way, replace=False)
    roster = [eligible[int(i)] for i in roster_idx]

    support, query = [], []
    for class_idx, label in enumerate(roster):
        members = pool.members[label]
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
    pool = EpisodePool.of(samples)
    region = sample_region(pool, config, rng)
    return sample_task(pool, region, config, rng)


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
