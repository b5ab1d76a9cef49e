"""Statistical minority-class augmentation.

Five methods are implemented on top of the shared neighbor machinery:

* plain interpolation oversampling (synthetic rows on the segment between
  a minority row and one of its k minority neighbors),
* a borderline variant that only grows points whose all-class
  neighborhood is majority-heavy,
* two hybrid variants that follow interpolation with a cleaning pass
  (nearest-neighbor vote editing, and mutual-nearest-neighbor cross-class
  link removal),
* adaptive interpolation that allocates the synthetic quota per minority
  row in proportion to the majority density around it.

Every method maps (dataset, config, seed) to an :class:`AugmentedSet`
deterministically and records full per-row provenance (parent, neighbor,
interpolation coefficient), which the test suite uses as an oracle.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .dataset import ClassPartition, Dataset, partition, save_csv
from .errors import (
    DegenerateDensityError,
    DegenerateEditError,
    InsufficientMinorityError,
    NoBorderlineError,
    ParameterError,
)
from .neighbors import StandardizedView, _knn_block, knn_table, zscore

ORIGIN_MAJORITY = 0
ORIGIN_MINORITY = 1
ORIGIN_SYNTHETIC = 2
ORIGIN_NAMES = {
    ORIGIN_MAJORITY: "majority", ORIGIN_MINORITY: "minority", ORIGIN_SYNTHETIC: "synthetic",
}


@dataclass(frozen=True)
class OversampleConfig:
    """Knobs shared by the augmentation methods.

    ``target`` is the desired total minority count (original plus
    synthetic) and defaults to the majority count, i.e. balance. The
    danger band bounds the fraction of majority neighbors that marks a
    minority point as borderline; ``beta`` scales the adaptive method's
    total quota. ``enn_mode`` selects between standard vote editing
    (remove only the misclassified row) and the literal variant that also
    removes the row's neighbors; ``tomek_mode`` selects which side of a
    cross-class link is dropped.
    """

    k: int = 5
    target: int | None = None
    beta: float = 1.0
    danger_band: tuple[float, float] = (0.5, 1.0)
    enn_mode: str = "standard"  # or "paper-literal"
    tomek_mode: str = "remove-majority"  # or "remove-both"
    standardized_distances: bool = True

    def __post_init__(self):
        if self.k < 1:
            raise ParameterError("k must be at least 1")
        if self.enn_mode not in ("standard", "paper-literal"):
            raise ParameterError(f"unknown enn_mode {self.enn_mode!r}")
        if self.tomek_mode not in ("remove-majority", "remove-both"):
            raise ParameterError(f"unknown tomek_mode {self.tomek_mode!r}")
        if not (0 <= self.danger_band[0] < self.danger_band[1] <= 1):
            raise ParameterError("danger_band must satisfy 0 <= lo < hi <= 1")
        if self.beta <= 0:
            raise ParameterError("beta must be positive")


def stack_synthetic(
    features: np.ndarray, labels: np.ndarray, synthetic: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(features, labels, origin) of real rows followed by synthetic minority rows.

    Real rows are tagged ``ORIGIN_MINORITY`` or ``ORIGIN_MAJORITY`` by
    label, synthetic rows ``ORIGIN_SYNTHETIC`` with label 1.
    """
    n = synthetic.shape[0]
    origin = np.where(labels == 1, ORIGIN_MINORITY, ORIGIN_MAJORITY)
    return (
        np.vstack([features, synthetic]),
        np.concatenate([labels, np.ones(n, dtype=np.int64)]),
        np.concatenate([origin, np.full(n, ORIGIN_SYNTHETIC)]).astype(np.int64),
    )


@dataclass(frozen=True)
class AugmentedSet:
    """Original rows plus synthetic minority rows, with provenance.

    ``synthetic`` holds every generated row; the kept masks record which
    base and synthetic rows survive post-filtering (pure oversamplers keep
    everything). ``parent_idx`` and ``neighbor_idx`` reference minority
    rows of ``base`` and ``delta`` is the interpolation coefficient, so
    row ``j`` is ``base[parent] + (base[neighbor] - base[parent]) * delta``.
    ``features``, ``labels`` and ``origin`` are the three parts of ``stacked``.
    """

    base: Dataset
    synthetic: np.ndarray
    parent_idx: np.ndarray
    neighbor_idx: np.ndarray
    delta: np.ndarray
    base_kept: np.ndarray
    synthetic_kept: np.ndarray

    @cached_property
    def stacked(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(features, labels, origin) of the retained rows, base first."""
        return stack_synthetic(
            self.base.features[self.base_kept],
            self.base.labels[self.base_kept],
            self.synthetic[self.synthetic_kept],
        )

    @property
    def features(self) -> np.ndarray:
        return self.stacked[0]

    @property
    def labels(self) -> np.ndarray:
        return self.stacked[1]

    @property
    def origin(self) -> np.ndarray:
        return self.stacked[2]

    def to_dataset(self) -> Dataset:
        return Dataset(self.features, self.labels, self.base.feature_names)

    def to_csv(self, path) -> None:
        """Export retained rows with an origin column in {0, 1, 2}."""
        save_csv(self.to_dataset(), path, origin=self.origin)


def _resolve_target(cfg: OversampleConfig, n_min: int, n_maj: int) -> int:
    target = cfg.target if cfg.target is not None else n_maj
    if target <= n_min:
        raise ParameterError(
            f"target minority count {target} must exceed the current count {n_min}"
        )
    return target


def _distance_space(feats: np.ndarray, cfg: OversampleConfig) -> np.ndarray:
    """Coordinates for neighbor search: z-scored unless ``standardized_distances`` is off."""
    return zscore(feats) if cfg.standardized_distances else feats


def _check_minority(n_min: int, k: int) -> None:
    if n_min < k + 1:
        raise InsufficientMinorityError(
            f"need at least k+1={k + 1} minority rows, got {n_min}"
        )


def _interpolate(
    data: Dataset,
    parent_rows: np.ndarray,
    neighbor_lists: np.ndarray,
    m: int,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Draw m synthetic rows: pick a parent uniformly from ``parent_rows``,
    one of its listed neighbors uniformly, and a single scalar coefficient
    in [0, 1) applied to every coordinate."""
    pick = rng.integers(0, parent_rows.size, size=m)
    parents = parent_rows[pick]
    slot = rng.integers(0, neighbor_lists.shape[1], size=m)
    neighbors = neighbor_lists[pick, slot]
    delta = rng.random(m)
    x_parent = data.features[parents]
    x_neighbor = data.features[neighbors]
    synthetic = x_parent + (x_neighbor - x_parent) * delta[:, None]
    return synthetic, parents, neighbors, delta


def _fresh_masks(data: Dataset, m: int) -> tuple[np.ndarray, np.ndarray]:
    return np.ones(data.n, dtype=bool), np.ones(m, dtype=bool)


def smote(data: Dataset, cfg: OversampleConfig, seed: int) -> AugmentedSet:
    """Interpolation oversampling within the minority class.

    Each synthetic row is ``x + (x_hat - x) * delta`` for a uniformly
    chosen minority parent ``x``, one of its k nearest minority neighbors
    ``x_hat``, and a scalar ``delta ~ U[0, 1)`` shared by all coordinates.
    """
    part = partition(data)
    _check_minority(part.n_minority, cfg.k)
    target = _resolve_target(cfg, part.n_minority, part.n_majority)
    m = target - part.n_minority
    rng = np.random.default_rng(seed)
    view = StandardizedView(data, _distance_space(data.features, cfg))
    neighbor_lists = knn_table(view, part.minority_idx, cfg.k, scope="minority")
    synthetic, parents, neighbors, delta = _interpolate(
        data, part.minority_idx, neighbor_lists, m, rng
    )
    base_kept, synth_kept = _fresh_masks(data, m)
    return AugmentedSet(data, synthetic, parents, neighbors, delta, base_kept, synth_kept)


def danger_set(data: Dataset, cfg: OversampleConfig) -> np.ndarray:
    """Minority rows whose all-class neighborhood is majority-heavy.

    With m' majority rows among the k all-rows neighbors, a minority point
    is DANGER when ``lo * k <= m' < hi * k`` (defaults: at least half but
    not all) and NOISE when m' = k. Returns global row indices.
    """
    part = partition(data)
    view = StandardizedView(data, _distance_space(data.features, cfg))
    return _danger_rows(data, cfg, part, view)


def _danger_rows(
    data: Dataset, cfg: OversampleConfig, part: ClassPartition, view: StandardizedView
) -> np.ndarray:
    if cfg.k >= data.n:
        raise ParameterError(f"k={cfg.k} must be smaller than the row count {data.n}")
    neigh = knn_table(view, part.minority_idx, cfg.k, scope="all")
    maj_counts = np.sum(data.labels[neigh] == 0, axis=1)
    lo = cfg.danger_band[0] * cfg.k
    hi = cfg.danger_band[1] * cfg.k
    in_band = (maj_counts >= lo) & (maj_counts < hi)
    return part.minority_idx[in_band]


def borderline_smote(data: Dataset, cfg: OversampleConfig, seed: int) -> AugmentedSet:
    """Interpolation oversampling restricted to borderline parents.

    Parents are drawn only from the DANGER set; interpolation still runs
    toward nearest minority-scope neighbors, so synthetic mass concentrates
    near the class boundary without crossing it.

    Raises:
        NoBorderlineError: if the DANGER set is empty.
    """
    part = partition(data)
    _check_minority(part.n_minority, cfg.k)
    target = _resolve_target(cfg, part.n_minority, part.n_majority)
    m = target - part.n_minority
    view = StandardizedView(data, _distance_space(data.features, cfg))
    danger = _danger_rows(data, cfg, part, view)
    if danger.size == 0:
        raise NoBorderlineError("no minority point falls in the danger band")
    rng = np.random.default_rng(seed)
    neighbor_lists = knn_table(view, danger, cfg.k, scope="minority")
    synthetic, parents, neighbors, delta = _interpolate(
        data, danger, neighbor_lists, m, rng
    )
    base_kept, synth_kept = _fresh_masks(data, m)
    return AugmentedSet(data, synthetic, parents, neighbors, delta, base_kept, synth_kept)


def enn_misclassified(
    scaled: np.ndarray, labels: np.ndarray, k: int
) -> tuple[np.ndarray, np.ndarray]:
    """Rows whose class loses the majority vote of their k neighbors.

    Returns (misclassified row mask, neighbor table). Vote ties keep the
    row.
    """
    idx = np.arange(scaled.shape[0])
    neigh = _knn_block(scaled, scaled, idx, k, exclude=idx)
    opp = np.sum(labels[neigh] != labels[:, None], axis=1)
    removed = opp * 2 > k
    return removed, neigh


def smote_enn(data: Dataset, cfg: OversampleConfig, seed: int) -> AugmentedSet:
    """Interpolation oversampling followed by neighbor-vote editing.

    After oversampling, every row of the combined set (original rows of
    both classes and synthetic rows) is checked against the majority vote
    of its k nearest neighbors in the pre-edit set; rows that lose the
    vote are removed in one simultaneous pass. ``paper-literal`` mode also
    removes the voters around each misclassified row.

    Raises:
        DegenerateEditError: if editing empties a class.
    """
    aug = smote(data, cfg, seed)
    feats, labels, _ = stack_synthetic(aug.base.features, aug.base.labels, aug.synthetic)
    scaled = _distance_space(feats, cfg)
    removed, neigh = enn_misclassified(scaled, labels, cfg.k)
    if cfg.enn_mode == "paper-literal":
        extra = np.zeros_like(removed)
        extra[neigh[removed].ravel()] = True
        removed = removed | extra
    kept = ~removed
    kept_labels = labels[kept]
    if not np.any(kept_labels == 1) or not np.any(kept_labels == 0):
        raise DegenerateEditError("neighbor editing removed an entire class")
    return replace(aug, base_kept=kept[:data.n], synthetic_kept=kept[data.n:])


def tomek_links(
    scaled: np.ndarray,
    labels: np.ndarray,
    alive: np.ndarray,
    nearest: np.ndarray,
) -> np.ndarray:
    """Cross-class mutual nearest-neighbor pairs among alive rows.

    ``nearest`` carries every row's nearest alive neighbor from one call to
    the next (-1 where not yet searched) and is updated in place. Only
    alive rows whose recorded neighbor is unknown or no longer alive are
    searched again: a neighbor that survived is still the nearest, lowest
    index on ties, in the smaller alive set.

    Returns an array of (i, j) global index pairs with i < j.
    """
    alive_idx = np.flatnonzero(alive)
    if alive_idx.size < 2:
        return np.empty((0, 2), dtype=np.int64)
    nn = nearest[alive_idx]
    stale = alive_idx[(nn < 0) | ~alive[nn]]
    if stale.size:
        nearest[stale] = _knn_block(scaled, scaled[stale], alive_idx, 1, exclude=stale)[:, 0]
    j = nearest[alive_idx]
    link = (alive_idx < j) & (nearest[j] == alive_idx) & (labels[alive_idx] != labels[j])
    return np.column_stack([alive_idx[link], j[link]])


def smote_tomek(data: Dataset, cfg: OversampleConfig, seed: int) -> AugmentedSet:
    """Interpolation oversampling followed by cross-class link removal.

    A link is a pair of mutual nearest neighbors from different classes.
    By default only the majority member is dropped; ``remove-both`` drops
    the pair. Removal repeats until no link remains among retained rows
    (dropping a member can expose a new mutual pair), with distances fixed
    in the pre-edit standardized space. The first round searches every
    row's nearest neighbor; later rounds search again only for rows whose
    nearest neighbor was just removed (see :func:`tomek_links`).
    """
    aug = smote(data, cfg, seed)
    feats, labels, _ = stack_synthetic(aug.base.features, aug.base.labels, aug.synthetic)
    scaled = _distance_space(feats, cfg)
    alive = np.ones(feats.shape[0], dtype=bool)
    nearest = np.full(feats.shape[0], -1, dtype=np.int64)
    while True:
        pairs = tomek_links(scaled, labels, alive, nearest)
        if pairs.size == 0:
            break
        # mutual nearest-neighbor pairs are disjoint, so one pass suffices
        i, j = pairs.T
        if cfg.tomek_mode == "remove-both":
            alive[i] = alive[j] = False
        else:
            alive[np.where(labels[i] == 0, i, j)] = False
    return replace(aug, base_kept=alive[:data.n], synthetic_kept=alive[data.n:])


def adaptive_quotas(r_hat: np.ndarray, total: int) -> np.ndarray:
    """Integer quotas proportional to normalized weights, summing exactly.

    Largest-remainder rounding: floor every share, then hand the leftover
    units to the rows with the largest fractional parts (ties favor the
    larger weight, then the lower index).
    """
    shares = r_hat * total
    base = np.floor(shares).astype(np.int64)
    leftover = total - int(base.sum())
    if leftover > 0:
        frac = shares - base
        order = np.lexsort((np.arange(r_hat.size), -r_hat, -frac))
        base[order[:leftover]] += 1
    return base


def adasyn(data: Dataset, cfg: OversampleConfig, seed: int) -> AugmentedSet:
    """Adaptive interpolation oversampling.

    Per minority row, the density weight is the fraction of majority rows
    among its k all-rows neighbors. Normalized weights split a total quota
    of ``round(beta * (n_majority - n_minority))`` synthetic rows, so
    generation concentrates where the minority class is thinnest.
    Interpolation itself stays within minority scope.

    Raises:
        DegenerateDensityError: if every weight is zero (all minority
        neighborhoods are pure).
    """
    part = partition(data)
    _check_minority(part.n_minority, cfg.k)
    if cfg.k >= data.n:
        raise ParameterError(f"k={cfg.k} must be smaller than the row count {data.n}")
    rng = np.random.default_rng(seed)
    view = StandardizedView(data, _distance_space(data.features, cfg))
    all_neigh = knn_table(view, part.minority_idx, cfg.k, scope="all")
    delta_counts = np.sum(data.labels[all_neigh] == 0, axis=1)
    if delta_counts.sum() == 0:
        raise DegenerateDensityError("all minority neighborhoods are pure minority")
    r = delta_counts / cfg.k
    r_hat = r / r.sum()
    total = int(round(cfg.beta * (part.n_majority - part.n_minority)))
    if total <= 0:
        raise ParameterError("quota is empty; the classes are already balanced")
    quotas = adaptive_quotas(r_hat, total)

    minority_lists = knn_table(view, part.minority_idx, cfg.k, scope="minority")
    parent_slots = np.repeat(np.arange(part.n_minority), quotas)
    parents = part.minority_idx[parent_slots]
    slot = rng.integers(0, cfg.k, size=total)
    neighbors = minority_lists[parent_slots, slot]
    delta = rng.random(total)
    x_parent = data.features[parents]
    synthetic = x_parent + (data.features[neighbors] - x_parent) * delta[:, None]
    base_kept, synth_kept = _fresh_masks(data, total)
    return AugmentedSet(data, synthetic, parents, neighbors, delta, base_kept, synth_kept)


METHODS = {
    "smote": smote,
    "borderline": borderline_smote,
    "smote_enn": smote_enn,
    "smote_tomek": smote_tomek,
    "adasyn": adasyn,
}


def oversample(method: str, data: Dataset, cfg: OversampleConfig, seed: int) -> AugmentedSet:
    """Dispatch an augmentation method by name."""
    try:
        fn = METHODS[method]
    except KeyError:
        raise ParameterError(f"unknown oversampling method {method!r}") from None
    return fn(data, cfg, seed)
