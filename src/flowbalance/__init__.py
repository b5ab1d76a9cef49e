"""Class-imbalance mitigation for slow network transfer prediction.

Submodules: ``dataset`` (the Dataset type, CSV I/O, sampling schemes, a
synthetic generator), ``neighbors`` (exact standardized kNN), ``oversample``
(interpolation-based minority augmentation), ``mixtures``/``gan``/``nets``
(mode encodings and adversarial generators with manual backprop),
``trees`` (CART, forest, boosting), ``evaluate`` (F1, KS, t-SNE), and
``harness`` (the experiment matrix plus its artifacts).
"""

__version__ = "0.1.0"

from .dataset import (
    Dataset,
    FlowProfile,
    FLOW_FEATURES,
    apply_scheme,
    generate_flows,
    load_csv,
    partition,
    save_csv,
    standard_schemes,
)
from .evaluate import ConfusionCounts, f1_score, ks_two_sample, stratified_kfold, tsne
from .gan import GanConfig, GeneratorModel, train_ctgan, train_gan
from .harness import ExperimentConfig, ExperimentReport, run_experiment
from .mixtures import MinMaxNormalizer, Mixture1D, ModeNormalizer, select_mixture
from .oversample import (
    AugmentedSet,
    OversampleConfig,
    adasyn,
    borderline_smote,
    oversample,
    smote,
    smote_enn,
    smote_tomek,
)
from .trees import fit_boost, fit_forest, fit_model, fit_tree

__all__ = [
    "__version__",
    "Dataset",
    "FlowProfile",
    "FLOW_FEATURES",
    "apply_scheme",
    "generate_flows",
    "load_csv",
    "partition",
    "save_csv",
    "standard_schemes",
    "ConfusionCounts",
    "f1_score",
    "ks_two_sample",
    "stratified_kfold",
    "tsne",
    "GanConfig",
    "GeneratorModel",
    "train_ctgan",
    "train_gan",
    "ExperimentConfig",
    "ExperimentReport",
    "run_experiment",
    "MinMaxNormalizer",
    "Mixture1D",
    "ModeNormalizer",
    "select_mixture",
    "AugmentedSet",
    "OversampleConfig",
    "adasyn",
    "borderline_smote",
    "oversample",
    "smote",
    "smote_enn",
    "smote_tomek",
    "fit_boost",
    "fit_forest",
    "fit_model",
    "fit_tree",
]
