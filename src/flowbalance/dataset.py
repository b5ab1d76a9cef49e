"""Data model, CSV ingestion, class partitioning, stratified sampling
schemes, and a synthetic flow-record generator.

The universal currency of the pipeline is :class:`Dataset`: a row-major
numeric feature matrix with binary labels (1 = slow transfer, the minority
class; 0 = normal). Flow records carry eight throughput-related features
per connection, including attributes of the previous connection between
the same host pair.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import (
    EmptyDatasetError,
    InsufficientRowsError,
    ParameterError,
    ParseError,
    SchemaError,
    UndefinedImbalanceError,
)
from .schema import check_fields

FLOW_FEATURES: tuple[str, ...] = (
    "size",
    "durat",
    "tput",
    "prev_tput",
    "prev_size",
    "prev_durat",
    "prev_rtt_max",
    "size_ratio",
)

LABEL_COLUMN = "label"
ORIGIN_COLUMN = "origin"


def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a)
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class Dataset:
    """Immutable feature matrix plus binary labels.

    Attributes:
        features: (n, d) matrix of finite floats.
        labels: length-n vector of {0, 1}.
        feature_names: d unique column names.
    """

    features: np.ndarray
    labels: np.ndarray
    feature_names: tuple[str, ...]

    def __post_init__(self):
        feats = np.asarray(self.features, dtype=float)
        labels = np.asarray(self.labels, dtype=np.int64)
        if feats.ndim != 2 or feats.shape[0] < 1 or feats.shape[1] < 1:
            raise ParameterError("features must be a non-empty 2-D matrix")
        if not np.all(np.isfinite(feats)):
            raise ParameterError("features must be finite (no NaN or inf)")
        if labels.shape != (feats.shape[0],):
            raise ParameterError("labels must be a vector matching the row count")
        if not np.all((labels == 0) | (labels == 1)):
            raise ParameterError("labels must be binary")
        names = tuple(self.feature_names)
        if len(names) != feats.shape[1]:
            raise SchemaError("feature_names length must equal the column count")
        if len(set(names)) != len(names):
            raise SchemaError("feature_names must be unique")
        object.__setattr__(self, "features", _readonly(feats))
        object.__setattr__(self, "labels", _readonly(labels))
        object.__setattr__(self, "feature_names", names)

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def d(self) -> int:
        return self.features.shape[1]

    def column(self, name: str) -> np.ndarray:
        try:
            j = self.feature_names.index(name)
        except ValueError:
            raise SchemaError(f"no feature named {name!r}") from None
        return self.features[:, j]

    def subset(self, idx: np.ndarray | Sequence[int]) -> "Dataset":
        idx = np.asarray(idx, dtype=np.int64)
        return Dataset(self.features[idx], self.labels[idx], self.feature_names)


@dataclass(frozen=True)
class ClassPartition:
    """Index sets of the two classes of a dataset."""

    minority_idx: np.ndarray  # rows with label 1 (slow)
    majority_idx: np.ndarray  # rows with label 0 (normal)

    def __post_init__(self):
        object.__setattr__(self, "minority_idx", _readonly(np.asarray(self.minority_idx, dtype=np.int64)))
        object.__setattr__(self, "majority_idx", _readonly(np.asarray(self.majority_idx, dtype=np.int64)))

    @property
    def n_minority(self) -> int:
        return self.minority_idx.size

    @property
    def n_majority(self) -> int:
        return self.majority_idx.size

    @property
    def ir(self) -> float:
        """Imbalance ratio: minority count over majority count."""
        if self.n_majority == 0:
            raise UndefinedImbalanceError("majority class is empty; IR undefined")
        return self.n_minority / self.n_majority


def partition(dataset: Dataset) -> ClassPartition:
    """Split row indices into minority (slow, label 1) and majority sets.

    Raises:
        UndefinedImbalanceError: if there are no majority rows.
    """
    minority = np.flatnonzero(dataset.labels == 1)
    majority = np.flatnonzero(dataset.labels == 0)
    if majority.size == 0:
        raise UndefinedImbalanceError("majority class is empty; IR undefined")
    return ClassPartition(minority, majority)


@dataclass(frozen=True)
class Rule:
    """Per-class sampling rule: keep everything, keep a fraction, or draw
    an exact count (always without replacement)."""

    kind: str  # "all" | "fraction" | "count"
    value: float | None = None

    def __post_init__(self):
        if self.kind not in ("all", "fraction", "count"):
            raise ParameterError(f"unknown rule kind {self.kind!r}")
        if self.kind == "fraction" and not (self.value is not None and 0 < self.value <= 1):
            raise ParameterError("fraction rule needs a value in (0, 1]")
        if self.kind == "count" and not (self.value is not None and self.value >= 1):
            raise ParameterError("count rule needs a positive value")

    def resolve(self, available: int) -> int:
        if self.kind == "all":
            return available
        if self.kind == "fraction":
            return int(round(self.value * available))
        return int(self.value)


@dataclass(frozen=True)
class SamplingScheme:
    """A stratified-sampling recipe with its target imbalance ratio."""

    name: str
    minority_rule: Rule
    majority_rule: Rule
    target_ir: float


def standard_schemes(part: ClassPartition) -> dict[str, SamplingScheme]:
    """Build the benchmark's named sampling schemes for a given source.

    ``train2`` keeps every slow transfer and samples an equal number of
    normal ones; ``train3`` keeps half the slow transfers with twice as
    many normal ones; ``train4`` keeps all slow transfers with twice as
    many normal ones; ``train5`` draws a fixed 1000:10000 split when the
    source is large enough; ``train1`` is plain random sampling at the
    source's natural ratio, and ``test2`` mirrors ``train2`` for held-out
    evaluation.
    """
    n_min, n_maj = part.n_minority, part.n_majority
    half_min = int(round(0.5 * n_min))
    schemes = {
        "train1": SamplingScheme("train1", Rule("all"), Rule("all"),
                                 n_min / n_maj if n_maj else float("nan")),
        "train2": SamplingScheme("train2", Rule("all"), Rule("count", n_min), 1.0),
        "train3": SamplingScheme("train3", Rule("fraction", 0.5),
                                 Rule("count", 2 * half_min), 0.5),
        "train4": SamplingScheme("train4", Rule("all"), Rule("count", 2 * n_min), 0.5),
        "test2": SamplingScheme("test2", Rule("all"), Rule("count", n_min), 1.0),
    }
    if n_min >= 1000 and n_maj >= 10000:
        schemes["train5"] = SamplingScheme("train5", Rule("count", 1000),
                                           Rule("count", 10000), 0.1)
    return schemes


def apply_scheme(dataset: Dataset, scheme: SamplingScheme, seed: int) -> Dataset:
    """Sample a dataset according to a scheme, without replacement.

    The output's class counts equal the resolved rule counts exactly, and
    the draw is deterministic for a fixed seed.

    Raises:
        InsufficientRowsError: if a rule requests more rows than exist.
    """
    part = partition(dataset)
    rng = np.random.default_rng(seed)
    picked = []
    for rule, idx, side in (
        (scheme.minority_rule, part.minority_idx, "minority"),
        (scheme.majority_rule, part.majority_idx, "majority"),
    ):
        want = rule.resolve(idx.size)
        if want > idx.size:
            raise InsufficientRowsError(
                f"scheme {scheme.name!r} requests {want} {side} rows, only {idx.size} available"
            )
        if want == idx.size:
            chosen = idx
        else:
            chosen = rng.choice(idx, size=want, replace=False)
        picked.append(np.sort(chosen))
    keep = np.concatenate(picked)
    return dataset.subset(keep)


@dataclass(frozen=True)
class FlowProfile:
    """Distribution profile for the synthetic flow generator.

    Transfer sizes follow a two-mode log-normal mixture so that per-feature
    histograms are multimodal; durations are derived from size and a
    regime-dependent throughput draw, which keeps ``tput == size / durat``
    exact. ``separation`` scales the gap between the slow and normal
    throughput regimes in units of the regime spread, which controls how
    much the classes overlap.
    """

    # log10 size mixture: (mean, std, weight) per mode
    size_modes: tuple[tuple[float, float, float], ...] = (
        (5.0, 0.55, 0.55),
        (8.2, 0.65, 0.45),
    )
    # log10 throughput per regime
    slow_tput_mean: float = 4.8
    normal_tput_mean: float = 6.1
    tput_std: float = 0.55
    separation: float = 1.0
    # log10 max RTT of the previous connection per regime
    slow_rtt_mean: float = 2.2
    normal_rtt_mean: float = 1.5
    rtt_std: float = 0.45
    # multiplicative log10 noise tying prev_* features to the current flow
    prev_noise: float = 0.22

    def __post_init__(self):
        check_fields(self)
        # the bounds generate_flows' draws need, checked here so a bad
        # profile fails when it is built, not mid-run
        stds = [self.tput_std, self.rtt_std, *(std for _, std, _ in self.size_modes)]
        if not all(std > 0 for std in stds):
            raise ParameterError(f"tput_std, rtt_std and size-mode stds must be > 0, got {stds}")
        if not self.prev_noise >= 0:
            raise ParameterError(f"prev_noise must be at least 0, got {self.prev_noise}")
        weights = [weight for _, _, weight in self.size_modes]
        if not (all(w >= 0 for w in weights) and sum(weights) > 0):
            raise ParameterError(f"size-mode weights must be >= 0 and sum above 0, got {weights}")

    @property
    def unimodal_features(self) -> tuple[str, ...]:
        """Features whose within-class marginals have a single mode."""
        return ("tput", "prev_tput", "prev_rtt_max", "size_ratio")

    def tput_means(self) -> tuple[float, float]:
        mid = 0.5 * (self.slow_tput_mean + self.normal_tput_mean)
        half = 0.5 * (self.normal_tput_mean - self.slow_tput_mean) * self.separation
        return mid - half, mid + half


DEFAULT_PROFILE = FlowProfile()


def _sample_log_size(rng: np.random.Generator, n: int, profile: FlowProfile) -> np.ndarray:
    weights = np.array([m[2] for m in profile.size_modes])
    weights = weights / weights.sum()
    comp = rng.choice(len(profile.size_modes), size=n, p=weights)
    means = np.array([m[0] for m in profile.size_modes])[comp]
    stds = np.array([m[1] for m in profile.size_modes])[comp]
    return rng.normal(means, stds)


def generate_flows(
    n_total: int,
    ir: float,
    seed: int,
    profile: FlowProfile = DEFAULT_PROFILE,
) -> Dataset:
    """Generate a synthetic flow dataset with a controlled imbalance ratio.

    Slow rows are drawn from a low-throughput regime and normal rows from
    a high-throughput one; previous-connection features are the current
    features perturbed by multiplicative noise. The minority row count is
    ``round(n_total * ir / (1 + ir))`` and the output row order is a
    seeded shuffle.

    Raises:
        ParameterError: if ``ir`` is outside (0, 1] or ``n_total < 10``.
    """
    if not (0 < ir <= 1):
        raise ParameterError(f"ir must be in (0, 1], got {ir}")
    if n_total < 10:
        raise ParameterError(f"n_total must be at least 10, got {n_total}")
    rng = np.random.default_rng(seed)
    n_min = int(round(n_total * ir / (1 + ir)))
    n_maj = n_total - n_min

    slow_mean, normal_mean = profile.tput_means()
    blocks = []
    labels = []
    for label, count, tput_mean, rtt_mean in (
        (1, n_min, slow_mean, profile.slow_rtt_mean),
        (0, n_maj, normal_mean, profile.normal_rtt_mean),
    ):
        if count == 0:
            continue
        log_size = _sample_log_size(rng, count, profile)
        log_tput = rng.normal(tput_mean, profile.tput_std, size=count)
        size = 10.0 ** log_size
        durat = size / (10.0 ** log_tput)
        tput = size / durat
        prev_size = size * 10.0 ** rng.normal(0.0, profile.prev_noise, size=count)
        prev_durat = durat * 10.0 ** rng.normal(0.0, profile.prev_noise, size=count)
        prev_tput = prev_size / prev_durat
        prev_rtt_max = 10.0 ** rng.normal(rtt_mean, profile.rtt_std, size=count)
        size_ratio = size / prev_size
        blocks.append(np.column_stack(
            [size, durat, tput, prev_tput, prev_size, prev_durat, prev_rtt_max, size_ratio]
        ))
        labels.append(np.full(count, label, dtype=np.int64))

    features = np.vstack(blocks)
    label_vec = np.concatenate(labels)
    order = rng.permutation(features.shape[0])
    return Dataset(features[order], label_vec[order], FLOW_FEATURES)


def _format_float(x: float) -> str:
    # repr round-trips float64 exactly, which keeps save/load bit-identical
    return repr(float(x))


def save_csv(dataset: Dataset, path: str | Path, origin: np.ndarray | None = None) -> None:
    """Write a dataset as CSV with a header row and a trailing label column.

    When ``origin`` is given an extra origin column is appended, coding
    0 = majority, 1 = minority, 2 = synthetic minority.
    """
    path = Path(path)
    header = list(dataset.feature_names) + [LABEL_COLUMN]
    if origin is not None:
        if len(origin) != dataset.n:
            raise ParameterError("origin length must equal the row count")
        header.append(ORIGIN_COLUMN)
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for i in range(dataset.n):
            row = [_format_float(v) for v in dataset.features[i]]
            row.append(str(int(dataset.labels[i])))
            if origin is not None:
                row.append(str(int(origin[i])))
            writer.writerow(row)


def load_csv(
    path: str | Path,
    label_column: str = LABEL_COLUMN,
    slow_threshold: float | None = None,
) -> Dataset:
    """Load a flow CSV with a header row into a Dataset.

    All non-label columns must parse as finite reals and become features
    in file order. With ``slow_threshold`` set, labels are derived from the
    ``tput`` column (tput below the threshold means slow, label 1) and any
    label column present is ignored; otherwise ``label_column`` must
    exist and hold 0/1 values.

    Raises:
        SchemaError: required column missing.
        ParseError: a cell failed to parse or is not finite (includes row
            and column).
        EmptyDatasetError: the file has no data rows.
    """
    path = Path(path)
    with path.open(newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise EmptyDatasetError(f"{path} is empty") from None
        rows = list(reader)
    if not rows:
        raise EmptyDatasetError(f"{path} has a header but no data rows")

    columns = {name: j for j, name in enumerate(header)}
    drop = set()
    if label_column in columns:
        drop.add(label_column)
    elif slow_threshold is None:
        raise SchemaError(f"label column {label_column!r} not found in {path}")
    if ORIGIN_COLUMN in columns:
        drop.add(ORIGIN_COLUMN)
    feature_names = tuple(name for name in header if name not in drop)
    if not feature_names:
        raise SchemaError(f"{path} has no feature columns")
    if slow_threshold is not None and "tput" not in columns:
        raise SchemaError("slow_threshold given but no 'tput' column present")

    n, d = len(rows), len(feature_names)
    features = np.empty((n, d), dtype=float)
    labels = np.empty(n, dtype=np.int64)
    feature_cols = [columns[name] for name in feature_names]
    for i, row in enumerate(rows):
        if len(row) != len(header):
            raise ParseError("row has wrong field count", i, header[min(len(row), len(header) - 1)])
        for jj, col in enumerate(feature_cols):
            try:
                value = float(row[col])
            except ValueError:
                raise ParseError(f"cannot parse {row[col]!r} as a real", i, header[col]) from None
            if not math.isfinite(value):
                raise ParseError(f"{row[col]!r} is not a finite real", i, header[col])
            features[i, jj] = value
        if slow_threshold is None:
            cell = row[columns[label_column]]
            try:
                value = int(float(cell))
            except ValueError:
                raise ParseError(f"cannot parse {cell!r} as a label", i, label_column) from None
            if value not in (0, 1):
                raise ParseError(f"label must be 0/1, got {cell!r}", i, label_column)
            labels[i] = value
    if slow_threshold is not None:
        tput = features[:, feature_names.index("tput")]
        labels = (tput < slow_threshold).astype(np.int64)
    return Dataset(features, labels, feature_names)
