"""Exact Shapley attribution for linear-plus-interaction quantile models.

The value function replaces off-coalition features by their training-window
means (marginal baseline, features independent); for this model class the
Shapley values have a closed form, computed by one kernel over a stack of
feature blocks.  The subset-enumeration certificates of that kernel, and of
the pairwise interaction indices, live in ``tests/oracles.py``.  Importance is
the window mean of absolute attributions, and ranking stability under a
moving-block bootstrap is summarized by mean pairwise Kendall tau.
"""

from __future__ import annotations

import functools
import logging
import math
from dataclasses import dataclass
from itertools import compress
from typing import Mapping, Sequence

import numpy as np

from .errors import DataError, DegenerateSampleError, NumericalError
from .qreg import (
    CHUNK_ROWS,
    DesignMatrix,
    FitCertificates,
    MIN_FIT_ROWS,
    QuantileModel,
    _with_intercept,
    require_design,
    require_varying,
    restandardized_values,
    solve_check_loss,
)
from .resample import chunks, stacked_resamples

logger = logging.getLogger(__name__)

_ZERO_ATTRIBUTIONS = "all attributions are zero; shares undefined"


@dataclass(frozen=True)
class WindowAttribution:
    """Shapley values of every row of a design window, as the kernel returns them.

    ``phi`` is (M columns x n months); ``phi0 + phi[:, r].sum()`` reproduces
    the prediction for ``months[r]``.
    """

    months: tuple[str, ...]
    columns: tuple[str, ...]
    phi0: float
    phi: np.ndarray


@dataclass(frozen=True)
class ImportanceSummary:
    """Window-level feature importance as percentage shares of mean |phi|."""

    ranking: tuple[str, ...]
    shares: Mapping[str, float]
    stability_kendall_tau: float | None = None

    def __post_init__(self) -> None:
        total = float(sum(self.shares.values()))
        if not math.isclose(total, 100.0, abs_tol=1e-9):
            raise ValueError(f"shares must sum to 100, got {total}")
        expected = tuple(sorted(self.shares, key=lambda c: (-self.shares[c], c)))
        if self.ranking != expected:
            raise ValueError("ranking inconsistent with shares")
        if self.stability_kendall_tau is not None and not (
            -1.0 <= self.stability_kendall_tau <= 1.0
        ):
            raise ValueError("stability must lie in [-1, 1]")


@dataclass(frozen=True)
class StabilityResult:
    """Bootstrap ranking stability, how many replicates it had to skip, and
    the certificates of the replicates' quantile fits."""

    kendall_tau: float
    skipped: int
    replications: int
    certificates: FitCertificates = FitCertificates()


def _pair_positions(
    columns: Sequence[str], pairs: Sequence[tuple[str, str]]
) -> list[tuple[int, int]]:
    positions = {c: j for j, c in enumerate(columns)}
    out = []
    for a, b in pairs:
        if a not in positions or b not in positions:
            raise DataError(f"interaction ({a!r}, {b!r}) references unknown columns")
        out.append((positions[a], positions[b]))
    return out


def _shapley_batch(
    coef: np.ndarray,
    linear: np.ndarray,
    mu: np.ndarray,
    pairs: Sequence[tuple[int, int]],
) -> tuple[np.ndarray, np.ndarray]:
    """phi0 (B,) and the (B x M x n) closed-form Shapley values of B (n x M) blocks.

    ``coef`` is (B, 1 + M + P): the intercept, M linear coefficients and one
    interaction coefficient per entry of ``pairs``, the column positions of
    the P product terms; ``mu`` (B x M) holds each block's baseline means.
    Linear terms contribute beta_j * (x_j - mu_j); a pairwise product term
    gamma * x_a * x_b splits evenly between its two parents, each taking
    gamma * (x_own - mu_own) * (x_other + mu_other) / 2.  Every block is
    computed as it would be alone.  The exact efficiency identity is asserted
    on every row as a cheap certificate.
    """
    m = linear.shape[-1]
    intercept, beta, gamma = coef[:, 0], coef[:, 1: 1 + m], coef[:, 1 + m:]
    centred = linear - mu[:, None, :]
    phi = np.ascontiguousarray(np.swapaxes(beta[:, None, :] * centred, 1, 2))
    phi0 = intercept + (beta[:, None, :] @ mu[:, :, None])[:, 0, 0]
    full = intercept[:, None] + (linear @ beta[:, :, None])[:, :, 0]
    for k, (i, j) in enumerate(pairs):
        g = gamma[:, k, None]
        phi[:, i] += g * centred[:, :, i] * (linear[:, :, j] + mu[:, j, None]) / 2.0
        phi[:, j] += g * centred[:, :, j] * (linear[:, :, i] + mu[:, i, None]) / 2.0
        phi0 += gamma[:, k] * mu[:, i] * mu[:, j]
        full += g * linear[:, :, i] * linear[:, :, j]
    gap = np.abs(phi0[:, None] + phi.sum(axis=1) - full)
    broken = np.any(gap > 1e-9 * (1.0 + np.abs(full)), axis=1)
    if broken.any():
        worst = gap[np.argmax(broken)].max()
        raise NumericalError(f"attribution efficiency violated by {worst:g}")
    return phi0, phi


def attribute_window(model: QuantileModel, X: DesignMatrix) -> WindowAttribution:
    """Attribute every row of a design matrix against its own column means."""
    require_design(model, X)
    linear = X.values[:, : X.n_linear]
    mu = np.mean(linear, axis=0)
    pairs = _pair_positions(model.columns, model.interaction_pairs)
    phi0, phi = _shapley_batch(model.coef[None], linear[None], mu[None], pairs)
    return WindowAttribution(X.months, model.columns, float(phi0[0]), phi[0])


def importance_summary(
    columns: Sequence[str],
    phi: np.ndarray,
    *,
    stability: float | None = None,
) -> ImportanceSummary:
    """Percentage shares of mean |phi| per column; ``phi`` is (M columns x n rows).

    A stack of one for ``_shares``.
    """
    if phi.ndim != 2 or phi.shape[0] != len(columns):
        raise DataError("attribution matrix rows do not match the column set")
    if phi.shape[1] == 0:
        raise DataError("no attribution results to summarize")
    shares, order, zero = _shares(columns, np.ascontiguousarray(phi)[None])
    if zero[0]:
        raise DegenerateSampleError(_ZERO_ATTRIBUTIONS)
    return ImportanceSummary(
        ranking=tuple(columns[k] for k in order[0]),
        shares=dict(zip(columns, shares[0].tolist())),
        stability_kendall_tau=stability,
    )


def _sum_left_to_right(a: np.ndarray) -> np.ndarray:
    """Sum over the last axis term by term in index order."""
    total = np.zeros(a.shape[:-1])
    for j in range(a.shape[-1]):
        total += a[..., j]
    return total


def _shares(
    columns: Sequence[str], phi: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Shares, ranking order (both B x M) and all-zero flags (B,) of B (M x n) blocks.

    Each block's share of column j is 100 * mean|phi_j| / sum_k mean|phi_k|,
    with the column totals summed left to right; the float residue of the
    shares' sum is pushed into the largest share, ties broken by the larger
    name, and columns rank by share descending, ties by name.  A block whose
    attributions are all zero is flagged: its shares are undefined.
    """
    means = np.mean(np.abs(phi), axis=2)
    total = _sum_left_to_right(means)
    zero = total == 0.0
    shares = 100.0 * means / np.where(zero, 1.0, total)[:, None]
    drift = 100.0 - _sum_left_to_right(shares)
    name_rank = np.empty(len(columns), dtype=int)
    name_rank[sorted(range(len(columns)), key=columns.__getitem__)] = np.arange(len(columns))
    tied_top = shares == shares.max(axis=1, keepdims=True)
    top = np.argmax(np.where(tied_top, name_rank, -1), axis=1)
    shares[np.arange(len(shares)), top] += drift
    order = np.lexsort((np.broadcast_to(name_rank, shares.shape), -shares), axis=1)
    return shares, order, zero


def stability_kendall(orders: np.ndarray) -> float:
    """Mean pairwise Kendall tau over bootstrap importance rankings.

    ``orders`` is (R, M): row ``r`` lists the column indices of ranking
    ``r``, best first.  One comparison of the rankings' positions counts, for
    every column pair, how many rankings order it each way; the pair's
    concordant minus discordant ranking pairs follow from those two counts,
    and the sum is exact in integers.  O(R * M^2) instead of O(R^2 * M^2).
    """
    if orders.ndim != 2 or len(orders) < 2:
        raise DataError("need at least 2 rankings")
    r_count, m = orders.shape
    if m < 2:
        raise DataError("need at least 2 ranked items")
    if not (np.sort(orders, axis=1) == np.arange(m)).all():
        raise DataError("rankings cover different column sets")
    positions = np.argsort(orders, axis=1)  # the inverse permutations
    before = np.count_nonzero(positions[:, :, None] < positions[:, None, :], axis=0)
    c = before[np.triu_indices(m, 1)].astype(np.int64)
    d = r_count - c
    net = int(np.sum(c * (c - 1) // 2 + d * (d - 1) // 2 - c * d))
    return net / ((r_count * (r_count - 1) // 2) * (m * (m - 1) // 2))


ChunkRankings = tuple[np.ndarray, list[str | None], FitCertificates]


def _chunk_rankings(
    X: DesignMatrix, tau: float, rows: np.ndarray, pairs: Sequence[tuple[int, int]]
) -> ChunkRankings:
    """Rank features for each of a chunk of bootstrap row sets, fitted as one batch.

    Returns the (B, M) orders of ``_shares`` and, per replicate, the reason
    it was skipped or None; a skipped replicate's order row is meaningless.
    """
    values = restandardized_values(X, rows, rows)
    targets = X.target[rows]
    reasons: list[str | None] = []
    for target in targets:
        try:
            require_varying(target)
            reasons.append(None)
        except DegenerateSampleError as exc:
            reasons.append(str(exc))
    fitted = [b for b, reason in enumerate(reasons) if reason is None]
    values = values[fitted]
    coefs, fits = solve_check_loss(_with_intercept(values), targets[fitted], (tau,))
    linear = values[:, :, : X.n_linear]
    _, phi = _shapley_batch(coefs[0], linear, np.mean(linear, axis=1), pairs)
    _, order, zero = _shares(X.linear_column_names, phi)
    orders = np.zeros((len(rows), order.shape[1]), dtype=order.dtype)
    orders[fitted] = order
    for b in compress(fitted, zero):
        reasons[b] = _ZERO_ATTRIBUTIONS
    return orders, reasons, fits


class StabilityPlan:
    """A checked stability bootstrap, cut into ``resample.chunks`` of replicates.

    Any chunk may be solved alone, in any order and process; ``rows``, the
    one draw, is made where it is first needed.
    """

    def __init__(
        self, X: DesignMatrix, tau: float, *, replications: int = 1000,
        block_length: int | None = None, seed: int,
    ) -> None:
        if replications < 2:
            raise ValueError("need at least 2 replications")
        n = len(X)
        if n < MIN_FIT_ROWS:
            raise DataError(f"need at least {MIN_FIT_ROWS} rows to fit, got {n}")
        self.X, self.tau, self.replications = X, tau, replications
        self.block_length, self.seed = block_length, seed
        self.pairs = _pair_positions(X.linear_column_names, X.interaction_pairs)
        self.parts = tuple(chunks(replications, n, CHUNK_ROWS))

    @functools.cached_property
    def rows(self) -> np.ndarray:
        return stacked_resamples(
            len(self.X), seeds=(self.seed,), replications=self.replications,
            block_length=self.block_length,
        )


def solve_stability_chunk(plan: StabilityPlan, index: int) -> ChunkRankings:
    """``_chunk_rankings`` of chunk ``index``, each replicate's rows sorted."""
    rows = np.sort(plan.rows[plan.parts[index]], axis=1)
    return _chunk_rankings(plan.X, plan.tau, rows, plan.pairs)


def finish_stability(plan: StabilityPlan, solved: Sequence[ChunkRankings]) -> StabilityResult:
    """The result from every chunk's rankings in chunk order; skips are logged and counted."""
    orders, chunk_reasons, fits = zip(*solved)
    reasons = [reason for chunk in chunk_reasons for reason in chunk]
    skipped = [reason for reason in reasons if reason is not None]
    for reason in skipped:
        logger.warning("stability replicate skipped: %s", reason)
    kept = np.concatenate(orders)[[reason is None for reason in reasons]]
    if len(kept) < 2:
        raise DegenerateSampleError("too few usable replicates for stability")
    return StabilityResult(
        stability_kendall(kept), len(skipped), plan.replications, sum(fits, FitCertificates())
    )


def bootstrap_stability(
    X: DesignMatrix,
    tau: float,
    *,
    replications: int = 1000,
    block_length: int | None = None,
    seed: int,
) -> StabilityResult:
    """Moving-block bootstrap of the importance ranking's Kendall stability.

    Each replicate resamples design rows in blocks, re-standardizes from its
    own rows, refits the quantile model, and re-ranks features by mean |phi|.
    The rows are drawn once (``resample.stacked_resamples`` of one leg) and
    handled a ``resample.chunks`` slice of about ``CHUNK_ROWS`` design rows at
    a time: one batched fit, one (B x M x n) stack of Shapley values, one
    batched ranking that equals ``importance_summary`` on each replicate's
    own values, kept as a row of integer orders for ``stability_kendall``.
    Row sets filled replicate by replicate and a batch-independent solver
    keep every replicate's ranking independent of the chunking.  Columns that
    degenerate inside a replicate simply attract zero attributions, so
    rankings stay comparable; a replicate with a constant target
    (``require_varying``) or all-zero attributions is skipped, logged in
    replicate order and counted.

    It is a ``StabilityPlan``, ``solve_stability_chunk`` on each chunk in
    order and ``finish_stability``; the pipeline's workers solve the chunks
    in any order and finish on them merged by index.
    """
    plan = StabilityPlan(
        X, tau, replications=replications, block_length=block_length, seed=seed
    )
    return finish_stability(
        plan, [solve_stability_chunk(plan, index) for index in range(len(plan.parts))]
    )
