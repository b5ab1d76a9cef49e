"""Exception types shared across the package."""


class FlowBalanceError(Exception):
    """Base class for all errors raised by this package."""


class SchemaError(FlowBalanceError):
    """A config has an unknown key or a value of the wrong type, a required
    column is missing, or feature schemas disagree."""


class ParseError(FlowBalanceError):
    """A CSV cell failed to parse; carries the offending row and column."""

    def __init__(self, message: str, row: int, column: str):
        super().__init__(f"{message} (row {row}, column {column!r})")
        self.row = row
        self.column = column


class EmptyDatasetError(FlowBalanceError):
    """An operation received a dataset with no rows."""


class UndefinedImbalanceError(FlowBalanceError):
    """Imbalance ratio is undefined because the majority class is empty."""


class InsufficientRowsError(FlowBalanceError):
    """A sampling rule requested more rows than are available."""


class ParameterError(FlowBalanceError):
    """An argument is outside its documented range."""


class InsufficientMinorityError(FlowBalanceError):
    """Too few minority rows to run a neighbor-based oversampler."""


class NoBorderlineError(FlowBalanceError):
    """No minority point falls in the borderline danger band."""


class DegenerateEditError(FlowBalanceError):
    """Neighborhood editing removed an entire class."""


class DegenerateDensityError(FlowBalanceError):
    """Every minority row has a purely-minority neighborhood, so the
    adaptive density weights are all zero."""


class ShapeError(FlowBalanceError):
    """Matrix dimensions do not match a network layer."""


class StaleCacheError(FlowBalanceError):
    """A backward pass was requested against a cache recorded before the
    most recent parameter update."""


class TrainingDivergedError(FlowBalanceError):
    """Adversarial training produced a non-finite loss."""

    def __init__(self, message: str, epoch: int):
        super().__init__(f"{message} (epoch {epoch})")
        self.epoch = epoch


class EncodingError(FlowBalanceError):
    """A mode-encoded vector is malformed (for example, a mode-indicator
    block that is not one-hot)."""


class SingularComponentError(FlowBalanceError):
    """EM produced a singular mixture component even after refitting with
    a variance floor."""


class StratificationError(FlowBalanceError):
    """Stratified folds cannot be formed (a class is smaller than the fold
    count, or a fold lost all minority rows)."""


class EmbeddingError(FlowBalanceError):
    """Perplexity calibration failed even after jittering duplicates."""
