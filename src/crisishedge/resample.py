"""Moving-block resampling and the replicate chunks of the bootstrap loops.

One generator per bootstrap leg draws every replicate's block starts in a
single call (``block_resamples``).  numpy fills the start matrix row by row,
so a replicate's rows, and everything a caller computes from them, do not
depend on how many replicates there are or on which of them are processed
together.  ``stacked_resamples`` lays several legs' draws one after another
in one row array, and ``chunks`` is the one rule that splits a stack of
replicates into the batches the copula bootstrap, the stability bootstrap
and the check-loss solver process together.
"""

from __future__ import annotations

import math
from typing import Iterator, Sequence

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


def stacked_resamples(
    n: int, *, seeds: Sequence[int], replications: int, block_length: int | None = None
) -> np.ndarray:
    """(legs * replications, n) int32 rows of one moving-block draw per seed.

    Leg ``k`` takes rows ``k * replications`` on: its ``block_resamples``
    draw from ``seeds[k]``, offset by ``k * n``, so the rows index a table
    that holds the legs' samples side by side.  The draw is made at its own
    dtype and cast afterwards, as the generator's stream depends on the dtype.
    """
    out = np.empty((len(seeds) * replications, n), dtype=np.int32)
    for k, seed in enumerate(seeds):
        rows = block_resamples(n, replications=replications, block_length=block_length, seed=seed)
        np.add(rows, k * n, out=out[k * replications: (k + 1) * replications], casting="unsafe")
    return out


def chunks(count: int, n: int, budget: int) -> Iterator[slice]:
    """Consecutive slices over ``count`` replicates of ``n`` rows each.

    A slice holds ``budget // n`` replicates, at least one, so a chunk spans
    about ``budget`` rows; the last slice takes what is left.
    """
    per = max(1, budget // n)
    for start in range(0, count, per):
        yield slice(start, min(start + per, count))
