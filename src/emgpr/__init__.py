"""emgpr: two-channel surface-EMG movement recognition toolkit.

Pipeline pieces, usable separately or through `emgpr.evaluate.crossvalidate`
(whose feature table, `build_table` with the settings of one `TableSpec`, can
be shared by several feature sets, as `sweep` does, and whose folds each fit
ULDA and the classifier as `fit_pipeline` does, on a split, class coding and
min-max scaling the table makes once):
recordings (load/synthesize/mix noise) -> causal bandpass+notch -> disjoint
windows -> time-domain features (incl. the log-compressed LMAV/NSV pair) ->
min-max scaling -> uncorrelated LDA -> QDA / RBF-SVM / KNN -> trial-wise
leave-one-out scores.
"""

from .dataset import (
    MOVEMENTS,
    NO_MIX,
    DatasetManifest,
    Recording,
    SyntheticSpec,
    estimate_snr,
    generate_synthetic,
    load_dataset,
    mix_awgn,
    save_dataset,
    save_recording,
    separable_gain_grid,
    separable_spec,
    separable_tilt_matrix,
)
from .preprocess import (
    FilterSpec,
    MinMax,
    apply_filters,
    normalize_features,
    segment,
    window_grid,
)
from .features import (
    CATALOG,
    FeatureSetSpec,
    FeatureVector,
    Thresholds,
    extract,
    extract_matrix,
    feature_set,
    with_lmav_nsv,
)
from .reduce import (
    UldaProjection,
    fit_ulda,
    project,
    res_index,
    res_index_general,
    scatter_export,
)
from .classify import ModelSpec, predict, train
from .evaluate import (
    ConfusionMatrix,
    EvalReport,
    FeatureTable,
    Metrics,
    Pipeline,
    TableSpec,
    build_table,
    compare_groups,
    crossvalidate,
    fit_pipeline,
    metrics,
    sweep,
)
from .selection import SelectionConfig, SelectionTrace, forward_select
from .seeding import derive_seed

__version__ = "0.1.0"
