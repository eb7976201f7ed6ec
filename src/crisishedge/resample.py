"""Moving-block resampling for the bootstrap loops.

One generator per bootstrap draws every replicate's block starts in a single
call (``block_resamples``).  numpy fills the start matrix row by row, so a
replicate's rows, and everything a caller computes from them, do not depend
on how many replicates there are or on which of them are processed together.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DataError


def default_block_length(n: int) -> int:
    """Cube-root block-length rule for moving-block schemes."""
    return max(1, math.ceil(n ** (1.0 / 3.0)))


def block_resamples(
    n: int, *, replications: int, block_length: int | None = None, seed: int
) -> np.ndarray:
    """(replications, n) row indices of moving-block resamples.

    Row ``r`` is replicate ``r``: ``ceil(n / L)`` runs of ``L`` consecutive
    indices (``L = block_length``, default the cube-root rule) starting in
    ``[0, n - L]``, the last run cut to ``n``.  All starts come from one
    ``default_rng(seed)`` draw of shape ``(replications, ceil(n / L))``,
    filled row by row, so row ``r`` does not depend on ``replications``.
    """
    length = default_block_length(n) if block_length is None else int(block_length)
    if length > n:
        raise DataError(f"block length {length} exceeds sample size {n}")
    if length < 1:
        raise DataError("block length must be >= 1")
    k = math.ceil(n / length)
    starts = np.random.default_rng(seed).integers(
        0, n - length + 1, size=(replications, k), dtype=np.intp
    )
    runs = starts[:, :, None] + np.arange(length, dtype=np.intp)
    return runs.reshape(replications, k * length)[:, :n]
