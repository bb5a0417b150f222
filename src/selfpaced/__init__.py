"""Hardness-harmonized under-sampling ensembles for imbalanced binary classification.

The package trains ensembles on a heavily skewed binary dataset by repeatedly
under-sampling the majority class. The flagship trainer, `spe_fit`, measures
how hard each majority sample currently is for the ensemble, bins the
hardness distribution, and draws every training subset so that bin-level
contributions follow a self-paced schedule: early iterations keep the easy
bulk of the data, later ones concentrate on the hard boundary. Classic
baselines (random under/over-sampling, independent balanced bags, and a
confidence cascade), a small metric toolbox built around the area under the
precision-recall curve, a synthetic checkerboard benchmark, and a CLI round
out the package.
"""

from .bench import (
    CHECKERBOARD_METRICS,
    MISSING_RATIOS,
    OVERLAP_COVS,
    SUITES,
    BenchConfig,
    ResultRow,
    run_suite,
    write_results,
)
from .core import (
    Dataset,
    EnsembleModel,
    MeanScorer,
    RandomSource,
    derive_seed,
    partial_ensemble,
)
from .data import (
    CheckerboardSpec,
    LoadedCsv,
    corrupt_missing,
    generate_checkerboard,
    load_csv,
    load_features,
    save_csv,
)
from .ensembles import (
    METHODS,
    IterationLog,
    SpeConfig,
    cascade_fit,
    easy_fit,
    fit_method,
    load_model,
    model_from_doc,
    model_to_doc,
    save_model,
    spe_fit,
)
from .hardness import (
    HARDNESS_FUNCTIONS,
    absolute_error,
    cross_entropy,
    resolve_hardness,
    squared_error,
)
from .learners import (
    LEARNER_REGISTRY,
    AdaBoostClassifier,
    DecisionTreeClassifier,
    LearnerSpec,
    learner_from_doc,
    learner_to_doc,
)
from .metrics import (
    ConfusionMatrix,
    ConfusionScores,
    aucprc,
    confusion,
    confusion_scores,
    metric_report,
    stratified_split,
)
from .sampling import (
    BinPartition,
    ResamplingWarning,
    bin_sampling_weights,
    draw_undersample,
    largest_remainder_shares,
    partition_bins,
    random_oversample,
    random_undersample,
    self_paced_alpha,
    self_paced_undersample,
)

__version__ = "0.1.0"
