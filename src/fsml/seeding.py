"""Deterministic random-stream derivation.

Every stochastic component derives its generator from the run seed plus a
stable integer path, so independent streams never alias and per-ordinal
streams can be constructed concurrently.
"""

import numpy as np

# Fixed stream tags; renumbering changes every derived stream.
STREAM_INIT = 1
STREAM_EPISODES = 2
STREAM_HEAD_RESET = 3
STREAM_MASKING = 4
STREAM_BATCHING = 5
STREAM_SUBSET = 6
STREAM_SEARCH = 7
STREAM_VALIDATION_SUBSET = 8  # data.fixed_validation_subset, always at seed 0


def rng_from(seed, *path):
    """A PCG64 generator for (seed, *path); identical inputs, identical stream."""
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence([int(seed), *map(int, path)])))
