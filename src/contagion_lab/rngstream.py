"""Seed-stream derivation.

All randomness in the package flows from one root seed.  Independent
components derive their own generator with `stream(seed, tag, ...)`, where the
tag path is a fixed tuple of small integers.  The rule is
``PCG64(SeedSequence([seed, *path]))``, so any (seed, path) pair names the
same stream on every platform and in every process, which is what makes
parallel realizations reproducible.
"""

from __future__ import annotations

import numpy as np

from .errors import DataError

# component tags (first path element)
REALIZATION = 1
PARAM_ASSIGNMENT = 2
GRAPH_GEN = 3
ADOPTION_GEN = 4
TRAIN_SPLIT = 5
PLACEBO = 6


def stream(seed: int, *path: int) -> np.random.Generator:
    """Derive an independent generator for (seed, path)."""
    if int(seed) < 0:
        raise DataError(f"seed must be a non-negative integer, got {seed}")
    seq = np.random.SeedSequence([int(seed), *(int(p) for p in path)])
    return np.random.Generator(np.random.PCG64(seq))
