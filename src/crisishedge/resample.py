"""Moving-block resampling for the bootstrap loops.

Bootstrap replicates are independent: each draws its rows from its own
``SeedSequence`` child (``block_resamples``), so a replicate's rows, and
everything a caller computes from them, do not depend on how many replicates
there are or on which of them are processed together.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DataError


def default_block_length(n: int) -> int:
    """Cube-root block-length rule for moving-block schemes."""
    return max(1, math.ceil(n ** (1.0 / 3.0)))


def moving_block_indices(
    n: int, block_length: int, rng: np.random.Generator
) -> np.ndarray:
    """Index vector of length n assembled from random contiguous blocks."""
    if not 1 <= block_length <= n:
        raise DataError(f"block length {block_length} invalid for sample of {n}")
    k = math.ceil(n / block_length)
    starts = rng.integers(0, n - block_length + 1, size=k)
    idx = (starts[:, None] + np.arange(block_length)[None, :]).ravel()
    return idx[:n]


def block_resamples(
    n: int, *, replications: int, block_length: int | None = None, seed: int
) -> np.ndarray:
    """(replications, n) row indices of moving-block resamples.

    Replicate ``r`` draws its rows (blocks of ``block_length``, default the
    cube-root rule) from the ``r``-th child of ``SeedSequence(seed)``, so its
    rows depend only on its own seed, not on ``replications``.
    """
    length = default_block_length(n) if block_length is None else int(block_length)
    if length > n:
        raise DataError(f"block length {length} exceeds sample size {n}")
    if length < 1:
        raise DataError("block length must be >= 1")
    children = np.random.SeedSequence(seed).spawn(replications)
    return np.array(
        [moving_block_indices(n, length, np.random.default_rng(c)) for c in children],
        dtype=np.intp,
    ).reshape(replications, n)
