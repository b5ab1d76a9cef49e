"""Exact k-nearest-neighbor queries on standardized features.

Every neighbor search in the package (the oversamplers and the
nearest-neighbor editing passes) runs through one engine, ``_knn_block``.
Its answer is defined by naive arithmetic: the squared distance between
two rows is the sum of their squared coordinate differences, and neighbors
rank by (that distance, row index), so ties break toward the lower index.
The engine reaches that answer without a naive scan of every pair: a BLAS
product of the expanded form |q|^2 - 2 q.s + |s|^2 narrows each query to
the rows that a rounding bound cannot rule out, and only those are
re-ranked with the naive formula. Distances are Euclidean in z-scored
space by default; a raw-space view is available for comparison.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataset import Dataset
from .errors import ParameterError

STD_FLOOR = 1e-12


@dataclass(frozen=True)
class StandardizedView:
    """A dataset together with its z-scored copy."""

    source: Dataset
    means: np.ndarray
    stds: np.ndarray  # floored; constant columns keep scale 1
    scaled: np.ndarray

    def scope_indices(self, scope: str) -> np.ndarray:
        if scope == "all":
            return np.arange(self.source.n)
        if scope == "minority":
            return np.flatnonzero(self.source.labels == 1)
        raise ParameterError(f"unknown scope {scope!r}")


@dataclass(frozen=True)
class NeighborQuery:
    """k nearest Euclidean neighbors within a scope of rows."""

    k: int
    scope: str = "all"  # "all" | "minority"

    def __post_init__(self):
        if self.k < 1:
            raise ParameterError("k must be at least 1")
        if self.scope not in ("all", "minority"):
            raise ParameterError(f"unknown scope {self.scope!r}")


def zscore(features: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(means, stds, scaled) of a matrix under population statistics.

    Columns whose standard deviation falls below ``STD_FLOOR`` are treated
    as constant and scaled by 1, so they map to all zeros.
    """
    means = features.mean(axis=0)
    stds = features.std(axis=0)
    stds = np.where(stds <= STD_FLOOR, 1.0, stds)
    return means, stds, (features - means) / stds


def standardize(dataset: Dataset, raw: bool = False) -> StandardizedView:
    """Z-score a dataset with population statistics (see :func:`zscore`).

    With ``raw`` the view keeps the original coordinates (identity
    scaling).
    """
    if dataset.n < 2:
        raise ParameterError("standardize needs at least 2 rows")
    if raw:
        means = np.zeros(dataset.d)
        stds = np.ones(dataset.d)
        return StandardizedView(dataset, means, stds, dataset.features)
    return StandardizedView(dataset, *zscore(dataset.features))


# float64 elements of one query chunk's (chunk, scope) distance block
BLOCK_ELEMENTS = 1 << 17


def _knn_block(
    scaled: np.ndarray,
    query_rows: np.ndarray,
    scope_idx: np.ndarray,
    k: int,
    exclude: np.ndarray | None = None,
) -> np.ndarray:
    """k nearest scope rows for each query point, ranked by (d2, index).

    ``d2`` is the naive squared distance, ``sum((q - s) ** 2)`` over the
    features, and ties break toward the lower row index. Per query chunk:

    1. BLAS computes the expanded form ``|q|^2 - 2 q.s + |s|^2`` against
       every scope row.
    2. Every scope row with ``approx <= kth_approx + 2 * tol`` becomes a
       candidate, where ``kth_approx`` is the query's k-th smallest
       expanded distance and ``tol = 2 (d + 4) eps (|q| + max|s|)^2``.
    3. The candidates' naive distances are computed and ranked.

    Both forms are within ``(d + 2) eps (|q| + |s|)^2 / 2`` of the exact
    distance (Higham's bound for dot products and sums of d terms), so
    ``tol`` bounds their gap with a factor of two to spare. The k rows
    with the smallest expanded distances have naive distances at most
    ``kth_approx + tol``, hence so does every true top-k row, whose
    expanded distance is then at most ``kth_approx + 2 * tol``. No true
    neighbor is filtered out, and the result equals a full naive scan bit
    for bit, exact ties included. Features must be finite.

    ``exclude`` holds, per query, one global row index to mask (normally
    the query itself). ``scope_idx`` must be ascending. Returns global row
    indices, shape (m, k).
    """
    scope_pts = scaled[scope_idx]
    m = query_rows.shape[0]
    n_scope, d = scope_pts.shape
    out = np.empty((m, k), dtype=np.int64)
    sq_scope = np.einsum("ij,ij->i", scope_pts, scope_pts)
    sq_query = np.einsum("ij,ij->i", query_rows, query_rows)
    reach = np.sqrt(sq_query) + np.sqrt(sq_scope.max())
    slack = 4.0 * (d + 4) * np.finfo(np.float64).eps * reach * reach  # 2 * tol
    if exclude is not None:
        col = np.minimum(np.searchsorted(scope_idx, exclude), n_scope - 1)
        own = scope_idx[col] == exclude  # the excluded row is in scope
    chunk = max(1, BLOCK_ELEMENTS // n_scope)
    block = np.empty((min(chunk, m), n_scope))
    rank = np.arange(k)
    for start in range(0, m, chunk):
        stop = min(start + chunk, m)
        q = query_rows[start:stop]
        approx = block[: stop - start]
        np.matmul(q, scope_pts.T, out=approx)
        approx *= -2.0
        approx += sq_scope
        approx += sq_query[start:stop, None]
        if exclude is not None:
            rows = np.flatnonzero(own[start:stop])
            cols = col[start:stop][rows]
            approx[rows, cols] = np.inf
        kth = np.partition(approx, k - 1, axis=1)[:, k - 1]
        # "not above" keeps NaN entries: when magnitudes overflow, the
        # slack is inf and every row goes to the naive re-rank
        far = np.greater(approx, (kth + slack[start:stop])[:, None])
        if exclude is not None:
            far[rows, cols] = True
        qi, si = np.divmod(np.flatnonzero(~far), n_scope)
        diff = q[qi] - scope_pts[si]
        d2 = (diff * diff).sum(axis=1)
        order = np.lexsort((si, d2, qi))
        first = np.searchsorted(qi, np.arange(stop - start))
        out[start:stop] = scope_idx[si[order[first[:, None] + rank]]]
    return out


def knn(view: StandardizedView, query_index: int, query: NeighborQuery) -> np.ndarray:
    """The k nearest neighbors of one row, excluding the row itself.

    Returns global row indices ordered by ascending distance, ties broken
    by ascending index.

    Raises:
        ParameterError: query outside the scope, or k >= scope size.
    """
    scope_idx = view.scope_indices(query.scope)
    if query_index not in scope_idx:
        raise ParameterError(f"query row {query_index} is outside scope {query.scope!r}")
    if query.k >= scope_idx.size:
        raise ParameterError(
            f"k={query.k} must be smaller than the scope size {scope_idx.size}"
        )
    q = view.scaled[query_index][None, :]
    return _knn_block(view.scaled, q, scope_idx, query.k,
                      exclude=np.array([query_index]))[0]


def knn_table(view: StandardizedView, query_indices: np.ndarray, k: int, scope: str) -> np.ndarray:
    """Neighbor lists for many query rows at once (one row per query)."""
    scope_idx = view.scope_indices(scope)
    if k >= scope_idx.size:
        raise ParameterError(f"k={k} must be smaller than the scope size {scope_idx.size}")
    query_indices = np.asarray(query_indices, dtype=np.int64)
    return _knn_block(view.scaled, view.scaled[query_indices], scope_idx, k,
                      exclude=query_indices)

