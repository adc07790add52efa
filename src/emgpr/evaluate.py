"""Trial-wise cross-validation, confusion metrics, sweeps and ANOVA.

crossvalidate runs in two stages: build_table mixes noise, filters, segments
and extracts every recording once into a FeatureTable, and the fold loop
fits on a column slice of that table, so several feature sets can be scored
against one table; sweep builds one such table per grid value and scores
every set on it.  Each fold holds one trial of every movement out and
fits one Pipeline (min-max bounds, the ULDA projection and the classifier)
on the training folds only, so no test information leaks into the fitted
chain.  The part of a fold that no set changes (its rows, the
missing-movement check, the class codes, and the min-max fit over every
table column, which works column by column) is computed once per table, at
the first set scored on it, and sliced for each set; fit_scaled fits the
rest, as fit_pipeline does after its own scaling.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy import special

from .classify import ModelSpec, train
from .dataset import MOVEMENTS, NO_MIX, mix_awgn
from .errors import DegenerateClasses, EmgprError, EmptyMatrix, InsufficientGroups
from .features import FeatureSetSpec, Thresholds, ar_fit_order, ar_lag, extract_matrix
from .preprocess import (
    FilterSpec,
    MinMax,
    apply_filters,
    normalize_features,
    segment,
    window_grid,
)
from .reduce import UldaProjection, class_codes, fit_ulda, project
from .seeding import derive_seed

#: The five one-vs-rest scores as (report name, per-class field, macro
#: field) of Metrics; the macro field is the per-class field's mean.  Reports
#: list each macro mean under its report name, except accuracy's, which is
#: `ovr_accuracy` there, because `accuracy` names the multiclass hit rate.
_SCORES = (
    ("accuracy", "per_class_accuracy", "ovr_accuracy"),
    ("sensitivity", "sensitivity", "macro_sensitivity"),
    ("specificity", "specificity", "macro_specificity"),
    ("precision", "precision", "macro_precision"),
    ("f1", "f1", "macro_f1"),
)
#: Metrics field of each score name a report summarizes
_SCALAR_FIELDS = {"accuracy": "accuracy", "ovr_accuracy": "ovr_accuracy",
                  **{name: macro for name, _, macro in _SCORES[1:]}}
METRIC_NAMES = tuple(_SCALAR_FIELDS)

#: Analysis window length in ms wherever a caller does not name one.
DEFAULT_WINDOW_MS = 250.0


@dataclass(frozen=True)
class ConfusionMatrix:
    """K x K counts; rows are true classes, columns predicted."""

    counts: np.ndarray
    labels: tuple

    def __post_init__(self):
        counts = np.asarray(self.counts, dtype=int)
        k = len(self.labels)
        if counts.shape != (k, k):
            raise ValueError("counts must be (K, K) matching labels")
        if (counts < 0).any():
            raise ValueError("counts must be non-negative")
        object.__setattr__(self, "counts", counts)

    @classmethod
    def from_predictions(cls, y_true, y_pred, labels) -> "ConfusionMatrix":
        """Counts of (true, predicted) label pairs; ValueError when the two
        differ in length or hold a label outside `labels`."""
        labels = tuple(labels)
        if len(y_true) != len(y_pred):
            raise ValueError(
                f"y_true has {len(y_true)} labels but y_pred has {len(y_pred)}"
            )
        index = {label: i for i, label in enumerate(labels)}

        def codes(values):
            present, inverse = np.unique(np.asarray(values), return_inverse=True)
            try:
                return np.array([index[v] for v in present.tolist()], dtype=np.intp)[inverse]
            except KeyError as unknown:
                raise ValueError(
                    f"label {unknown.args[0]!r} is not one of {labels!r}"
                ) from None

        k = len(labels)
        pairs = codes(y_true) * k + codes(y_pred)
        counts = np.bincount(pairs, minlength=k * k).reshape(k, k)
        return cls(counts=counts, labels=labels)

    @property
    def total(self) -> int:
        return int(self.counts.sum())

    def ovr(self, k: int):
        """One-vs-rest (TP, TN, FP, FN) for class index k."""
        tp = int(self.counts[k, k])
        fn = int(self.counts[k].sum()) - tp
        fp = int(self.counts[:, k].sum()) - tp
        tn = self.total - tp - fn - fp
        return tp, tn, fp, fn


@dataclass(frozen=True)
class Metrics:
    """Per-class one-vs-rest scores plus their unweighted macro averages.

    `accuracy` is the plain multiclass hit rate (trace/total); the one-vs-rest
    average of per-class accuracies is reported separately as `ovr_accuracy`
    since the two conventions differ a lot on many-class problems.  0/0 cells
    are defined as 0 and listed in `undefined` as (metric, class_index) pairs.
    The macro averages are computed once, at construction.
    """

    accuracy: float
    per_class_accuracy: np.ndarray
    sensitivity: np.ndarray
    specificity: np.ndarray
    precision: np.ndarray
    f1: np.ndarray
    undefined: tuple = ()
    ovr_accuracy: float = field(init=False)
    macro_sensitivity: float = field(init=False)
    macro_specificity: float = field(init=False)
    macro_precision: float = field(init=False)
    macro_f1: float = field(init=False)

    def __post_init__(self):
        per_class = np.stack([getattr(self, attr) for _, attr, _ in _SCORES])
        # each row's mean equals the 1-D per_class.mean() bit for bit
        for (_, _, macro), mean in zip(_SCORES, per_class.mean(axis=1).tolist()):
            object.__setattr__(self, macro, mean)

    def scalar(self, name: str) -> float:
        """The score reported under a METRIC_NAMES name."""
        return getattr(self, _SCALAR_FIELDS[name])


def _ratios(num: np.ndarray, den: np.ndarray):
    """num / den per class, with 0 where den == 0, and that mask."""
    zero = den == 0
    return np.divide(num, den, out=np.zeros(len(num)), where=~zero), zero


def metrics(cm: ConfusionMatrix) -> Metrics:
    """Reduce a confusion matrix to the five scores, per class and macro."""
    if cm.total == 0:
        raise EmptyMatrix("confusion matrix has no observations")
    counts, total = cm.counts, cm.total
    tp = np.diagonal(counts)
    fn = counts.sum(axis=1) - tp
    fp = counts.sum(axis=0) - tp
    tn = total - tp - fn - fp
    sens, no_sens = _ratios(tp, tp + fn)
    spec, no_spec = _ratios(tn, tn + fp)
    prec, no_prec = _ratios(tp, tp + fp)
    f1, no_f1 = _ratios(2.0 * prec * sens, prec + sens)
    # per class, in the order of the ratio rows of _SCORES
    flagged = np.stack([no_sens, no_spec, no_prec, no_f1], axis=1)
    return Metrics(
        accuracy=float(np.trace(counts)) / total,
        per_class_accuracy=(tp + tn) / total,
        sensitivity=sens,
        specificity=spec,
        precision=prec,
        f1=f1,
        undefined=tuple((_SCORES[1 + j][0], int(i)) for i, j in zip(*np.nonzero(flagged))),
    )


# ---------------------------------------------------------------------------
# fitted chain


@dataclass(frozen=True)
class Pipeline:
    """The chain fitted on training rows: min-max bounds, then the ULDA
    projection, then the classifier (a QDA, SVM or KNN model)."""

    bounds: MinMax
    projection: UldaProjection
    model: object

    def predict(self, rows: np.ndarray) -> np.ndarray:
        """Labels of a (rows, features) matrix, or the label of one feature
        vector, scaled, clipped and projected with the training fit."""
        norm, _ = normalize_features(rows, self.bounds)
        return self.model.predict(project(self.projection, norm))


def fit_pipeline(X: np.ndarray, y, model_spec: ModelSpec) -> Pipeline:
    """Fit min-max bounds, ULDA and the classifier on training rows only.

    The labels are encoded once, for both fits."""
    norm, bounds = normalize_features(X)
    return fit_scaled(norm, y, bounds, model_spec, class_codes(y))


def fit_scaled(norm: np.ndarray, y, bounds: MinMax, model_spec: ModelSpec,
               encoded) -> Pipeline:
    """The chain after min-max scaling: fit ULDA and the classifier on
    training rows `norm`, already scaled with `bounds`, whose labels `y` are
    encoded as `encoded` (`class_codes(y)`)."""
    projection = fit_ulda(norm, y, _encoded=encoded)
    model = train(model_spec, project(projection, norm), y, _encoded=encoded)
    return Pipeline(bounds=bounds, projection=projection, model=model)


# ---------------------------------------------------------------------------
# cross-validation


@dataclass(frozen=True)
class FoldEval:
    subject: str
    fold_trial: int
    confusion: ConfusionMatrix
    scores: Metrics


@dataclass(frozen=True)
class FoldFailure:
    subject: str
    fold_trial: int
    error: str


@dataclass(frozen=True)
class EvalReport:
    feature_set: str
    classifier: str
    window_ms: float
    overlap_ms: float
    snr_db: float
    seed: int
    config: dict
    folds: tuple
    failures: tuple = ()

    @property
    def ok(self) -> bool:
        return not self.failures

    def summary(self) -> dict:
        """metric -> (mean, std) across every (subject, fold) cell."""
        if not self.folds:
            return {name: (math.nan, math.nan) for name in METRIC_NAMES}
        out = {}
        for name in METRIC_NAMES:
            vals = np.asarray([f.scores.scalar(name) for f in self.folds])
            out[name] = (float(vals.mean()), float(vals.std()))
        return out

    def per_subject_means(self, metric: str) -> dict:
        """subject -> mean of a macro metric over its folds."""
        by_subject = {}
        for f in self.folds:
            by_subject.setdefault(f.subject, []).append(f.scores.scalar(metric))
        return {s: float(np.mean(v)) for s, v in sorted(by_subject.items())}

    def to_dict(self) -> dict:
        return {
            "feature_set": self.feature_set,
            "classifier": self.classifier,
            "window_ms": self.window_ms,
            "overlap_ms": self.overlap_ms,
            "snr_db": self.snr_db,
            "seed": self.seed,
            "config": self.config,
            "summary": {
                k: [None if math.isnan(u) else u for u in v]
                for k, v in self.summary().items()
            },
            "per_subject": {
                name: self.per_subject_means(name) for name in METRIC_NAMES
            },
            "folds": [
                {
                    "subject": f.subject,
                    "fold_trial": f.fold_trial,
                    "labels": list(f.confusion.labels),
                    "confusion": f.confusion.counts.tolist(),
                    "metrics": {
                        name: f.scores.scalar(name) for name in METRIC_NAMES
                    },
                    "per_class": {
                        name: getattr(f.scores, attr).tolist()
                        for name, attr, _ in _SCORES
                    },
                }
                for f in self.folds
            ],
            "failures": [
                {"subject": f.subject, "fold_trial": f.fold_trial, "error": f.error}
                for f in self.failures
            ],
        }

    def csv_rows(self) -> list:
        """Long-format rows: subject,fold,classifier,feature_set,window_ms,
        snr_db,metric,class,value."""
        snr = "" if self.snr_db is None else repr(float(self.snr_db))
        rows = []
        for f in self.folds:
            base = (
                f"{f.subject},{f.fold_trial},{self.classifier},"
                f"{self.feature_set},{self.window_ms!r},{snr}"
            )
            for name in METRIC_NAMES[:2]:  # the two accuracies have no per-class rows
                rows.append(f"{base},{name},all,{f.scores.scalar(name)!r}")
            for name, attr, macro in _SCORES[1:]:
                for label, v in zip(f.confusion.labels, getattr(f.scores, attr).tolist()):
                    rows.append(f"{base},{name},{label},{v!r}")
                rows.append(f"{base},{name},macro,{getattr(f.scores, macro)!r}")
        return rows


CSV_HEADER = "subject,fold,classifier,feature_set,window_ms,snr_db,metric,class,value"


def _movement_order(recordings) -> tuple:
    present = {rec.movement for rec in recordings}
    return tuple(m for m in MOVEMENTS if m in present)


def _mixing_snr(snr_db):
    """The no-mix sentinel (inf) and None both mean: mix no noise."""
    if snr_db is None or snr_db == NO_MIX:
        return None
    return float(snr_db)


# ---------------------------------------------------------------------------
# feature table


def _set_columns(features) -> tuple:
    """The (feature id, AR fit order) column key of each feature of a set, in
    set order; the order is None for a feature that is not an AR lag."""
    order = ar_fit_order(features)
    return tuple((fid, order if ar_lag(fid) else None) for fid in features)


def _extraction_groups(columns) -> list:
    """(spec, column positions) per AR fit order, one `extract_matrix` each.

    Plain features ride with the largest order, so a single set is extracted
    in one pass.
    """
    orders = sorted({order for _, order in columns if order is not None})
    top = orders[-1] if orders else None
    groups = []
    for group in orders or [None]:
        positions = [
            i for i, (_, order) in enumerate(columns)
            if order == group or (order is None and group == top)
        ]
        spec = FeatureSetSpec("CUSTOM", tuple(columns[i][0] for i in positions))
        groups.append((spec, positions))
    return groups


def _describe(exc: EmgprError) -> str:
    """A fold failure as a report records it."""
    return f"{type(exc).__name__}: {exc}"


@dataclass(frozen=True, eq=False)
class TableFold:
    """The part of one subject's fold that no feature set changes.

    `test` masks the rows of the held-out trial.  When the training trials
    lack a movement, `error` is the DegenerateClasses failure that every set
    records and the other fields are None.  Otherwise the fold holds the
    training labels, their `class_codes`, min-max bounds fitted on the
    training rows of every table column, and those rows scaled with them,
    channel-major as `FeatureTable.matrix` lays them out.
    """

    held_out: int
    test: np.ndarray
    error: str = None
    y_train: np.ndarray = None
    encoded: tuple = None
    bounds: MinMax = None
    scaled: np.ndarray = None


@dataclass(frozen=True, eq=False)
class FeatureTable:
    """Per-window features of a dataset, computed once and sliced per set.

    For each subject, `values[subject]` is a (windows, channels, columns)
    block whose last axis is keyed by `columns`, with `labels[subject]` and
    `trials[subject]` per window.  `movements` is the class order over all
    subjects; the remaining fields are the settings the table was built with.
    `folds` splits a subject once and keeps the split for every set.
    """

    values: dict
    labels: dict
    trials: dict
    movements: tuple
    columns: tuple
    thresholds: Thresholds
    window_ms: float
    overlap_ms: float
    snr_db: float  # None when no noise was mixed
    filter_spec: FilterSpec
    seed: int
    _folds: dict = field(default_factory=dict, init=False, repr=False)

    @property
    def subjects(self) -> tuple:
        return tuple(sorted(self.values))

    def positions(self, features) -> list:
        """Column positions a feature list reads; ValueError if one is absent."""
        index = {key: i for i, key in enumerate(self.columns)}
        keys = _set_columns(features)
        for key in keys:
            if key not in index:
                raise ValueError(f"feature table has no column {key!r}")
        return [index[key] for key in keys]

    def flat_positions(self, subject, features) -> np.ndarray:
        """Where a feature list's channel-major columns sit in one subject's
        (windows, channels * columns) rows: channel * len(columns) + position."""
        n_channels = self.values[subject].shape[1]
        return (np.arange(n_channels)[:, None] * len(self.columns)
                + self.positions(features)).ravel()

    def matrix(self, subject, features) -> np.ndarray:
        """Channel-major (windows, channels * features) matrix of one subject."""
        block = self.values[subject]
        return np.take(block.reshape(len(block), -1),
                       self.flat_positions(subject, features), axis=1)

    def folds(self, subject) -> tuple:
        """One TableFold per held-out trial of a subject, in trial order.

        The split is made at the first call and kept, so every set scored on
        this table shares it; it holds one scaled copy of the subject's
        training rows per fold.
        """
        if subject not in self._folds:
            self._folds[subject] = tuple(self._split(subject))
        return self._folds[subject]

    def _split(self, subject):
        block = self.values[subject]
        rows = block.reshape(len(block), -1)
        y, trial_ids = self.labels[subject], self.trials[subject]
        trials_of = {m: set(trial_ids[y == m].tolist()) for m in self.movements}
        for held_out in sorted(set(trial_ids.tolist())):
            test = trial_ids == held_out
            try:
                missing = [m for m in self.movements if trials_of[m] <= {held_out}]
                if missing:
                    raise DegenerateClasses(f"declared classes with no samples: {missing}")
                y_train = y[~test]
                encoded = class_codes(y_train)
            except EmgprError as exc:
                yield TableFold(int(held_out), test, error=_describe(exc))
                continue
            scaled, bounds = normalize_features(rows[~test])
            yield TableFold(int(held_out), test, y_train=y_train, encoded=encoded,
                            bounds=bounds, scaled=scaled)


def build_table(
    recordings,
    feature_sets,
    thresholds: Thresholds = Thresholds(),
    window_ms: float = DEFAULT_WINDOW_MS,
    overlap_ms: float = 0.0,
    snr_db: float = None,
    filter_spec: FilterSpec = FilterSpec(),
    seed: int = 0,
) -> FeatureTable:
    """Mix noise, filter, segment and extract every recording once.

    `feature_sets` are the feature-id lists the table must serve; each list
    reads its AR lags off one fit at its largest lag, as `extract` does, so
    the table holds one extraction per AR fit order.  When snr_db is given
    and not inf, calibrated white noise is mixed into the raw recordings
    (seeded per subject/movement/trial) before filtering.

    A subject's windows are segmented into one array and each AR fit order
    is one `extract_matrix` call over it, so one subject's filtered windows
    are held in memory at a time.  Rows run in recording order, then window
    order.  Every recording of a subject must give the first one's channel
    count and window length in samples; ValueError names the one that does
    not, before any recording is mixed or filtered.
    """
    if any(isinstance(features, str) for features in feature_sets):
        raise ValueError("feature_sets must hold feature-id lists, e.g. [spec.features]")
    snr_db = _mixing_snr(snr_db)
    columns = tuple(dict.fromkeys(
        key for features in feature_sets for key in _set_columns(features)
    ))
    groups = _extraction_groups(columns)

    by_subject = {}
    for rec in recordings:
        by_subject.setdefault(rec.subject_id, []).append(rec)

    values, labels, trials = {}, {}, {}
    for subject in sorted(by_subject):
        recs = by_subject[subject]
        grids = [window_grid(rec.n_samples, rec.sample_rate_hz, window_ms, overlap_ms)
                 for rec in recs]
        first, shape = recs[0], (recs[0].n_channels, grids[0][1])
        for rec, (_, n, _) in zip(recs, grids):
            if (rec.n_channels, n) != shape:
                raise ValueError(
                    f"recording {subject}/{rec.movement}/trial {rec.trial} gives "
                    f"(channels, window samples) {(rec.n_channels, n)}, but "
                    f"{subject}/{first.movement}/trial {first.trial} gives {shape}")
        counts = [count for count, _, _ in grids]
        # preallocated, not joined from per-recording arrays, which would
        # hold the subject's windows twice
        windows, row = np.empty((sum(counts),) + shape), 0
        for rec, count in zip(recs, counts):
            if snr_db is not None:
                rec = mix_awgn(
                    rec,
                    snr_db,
                    derive_seed(seed, "awgn", subject, rec.movement,
                                rec.trial, snr_db),
                )
            rec = apply_filters(rec, filter_spec)
            segment(rec, window_ms, overlap_ms, out=windows[row : row + count])
            row += count

        block = np.empty(windows.shape[:2] + (len(columns),))
        for spec, positions in groups:
            block[:, :, positions] = extract_matrix(spec, windows, thresholds).reshape(
                windows.shape[:2] + (len(positions),)
            )
        values[subject] = block
        labels[subject] = np.repeat([rec.movement for rec in recs], counts)
        trials[subject] = np.repeat([rec.trial for rec in recs], counts)

    return FeatureTable(
        values=values,
        labels=labels,
        trials=trials,
        movements=_movement_order(recordings),
        columns=columns,
        thresholds=thresholds,
        window_ms=float(window_ms),
        overlap_ms=float(overlap_ms),
        snr_db=snr_db,
        filter_spec=filter_spec,
        seed=seed,
    )


def crossvalidate(
    recordings,
    feature_set: FeatureSetSpec,
    model_spec: ModelSpec,
    **settings,
) -> EvalReport:
    """Leave-one-trial-out evaluation over every subject in the dataset.

    `recordings` is either the recordings, from which a table of this set's
    columns is built with `settings` (`build_table`'s keywords), or a
    `FeatureTable`, which brings its own settings: any setting passed with a
    table raises TypeError, and a table lacking a column the set reads raises
    ValueError.  The no-mix sentinel (inf) is normalized to None so the
    emitted report is identical to a plain run.

    Only this loop knows the table's movement order: a fold whose training
    trials lack a movement fails with DegenerateClasses, and every fold is
    scored in movement order, whatever the fitted model's class order.  Each
    fold's split, class codes and min-max fit come from `FeatureTable.folds`,
    sliced to the set's columns, so a table computes them once for every set.
    """
    if isinstance(recordings, FeatureTable):
        if settings:
            raise TypeError("a feature table brings its own settings; got "
                            + ", ".join(sorted(settings)))
        table = recordings
        table.positions(feature_set.features)  # fail before the first fold
    else:
        table = build_table(recordings, [feature_set.features], **settings)
    labels = table.movements

    folds, failures = [], []
    for subject in table.subjects:
        columns = table.flat_positions(subject, feature_set.features)
        X, y = table.matrix(subject, feature_set.features), table.labels[subject]
        for fold in table.folds(subject):
            error = fold.error
            if error is None:
                try:
                    bounds = MinMax(mins=fold.bounds.mins[columns],
                                    maxs=fold.bounds.maxs[columns])
                    # take, not [:, columns], gives the C order fit_pipeline's
                    # rows have, so ULDA sums in the same order
                    pipeline = fit_scaled(np.take(fold.scaled, columns, axis=1),
                                          fold.y_train, bounds, model_spec, fold.encoded)
                    predicted = pipeline.predict(X[fold.test])
                    cm = ConfusionMatrix.from_predictions(y[fold.test], predicted, labels)
                    folds.append(FoldEval(subject=subject, fold_trial=fold.held_out,
                                          confusion=cm, scores=metrics(cm)))
                except EmgprError as exc:
                    error = _describe(exc)
            if error is not None:
                failures.append(FoldFailure(subject=subject, fold_trial=fold.held_out,
                                            error=error))

    scalars = {name: getattr(table, name)
               for name in ("window_ms", "overlap_ms", "snr_db", "seed")}
    return EvalReport(
        feature_set=feature_set.name,
        classifier=model_spec.kind,
        **scalars,
        config={
            "feature_set": {**feature_set.to_dict(),
                            "thresholds": table.thresholds.to_dict()},
            "model": model_spec.to_dict(),
            "filter": table.filter_spec.to_dict(),
            **scalars,
        },
        folds=tuple(folds),
        failures=tuple(failures),
    )


#: The paper's grids: window lengths in ms and mixing SNRs in dB.
DEFAULT_WINDOW_SIZES = tuple(range(50, 351, 50))
DEFAULT_SNR_GRID = tuple(range(0, 21))


def sweep(recordings, feature_sets, model_spec: ModelSpec, setting: str, values,
          **settings) -> list:
    """One report per (value, set), value by value: at each value of the
    `build_table` keyword `setting` ("window_ms", "snr_db", ...), one table
    built with `settings` serves every set, each scored by `crossvalidate`."""
    reports = []
    for value in values:
        table = build_table(recordings, [s.features for s in feature_sets],
                            **settings, **{setting: value})
        reports += [crossvalidate(table, s, model_spec) for s in feature_sets]
    return reports


# ---------------------------------------------------------------------------
# statistical comparison


def compare_groups(groups, n_comparisons: int = 1) -> dict:
    """One-way ANOVA across score groups with a Bonferroni-corrected p.

    Returns f_stat, p_value and bonferroni_p (p times the declared number of
    comparisons, capped at 1).
    """
    groups = [np.asarray(g, dtype=float) for g in groups]
    if len(groups) < 2:
        raise InsufficientGroups("need at least two groups")
    if any(len(g) == 0 for g in groups):
        raise InsufficientGroups("groups must be non-empty")
    if n_comparisons < 1:
        raise ValueError("n_comparisons must be >= 1")
    sizes = np.asarray([len(g) for g in groups])
    total_n = int(sizes.sum())
    k = len(groups)
    df_between = k - 1
    df_within = total_n - k
    if df_within < 1:
        raise InsufficientGroups("need more than one observation per group")
    grand = float(np.concatenate(groups).mean())
    group_means = np.asarray([float(g.mean()) for g in groups])
    ss_between = float(np.sum(sizes * (group_means - grand) ** 2))
    ss_within = float(sum(np.sum((g - m) ** 2) for g, m in zip(groups, group_means)))
    if ss_within == 0.0:
        f_stat = 0.0 if ss_between <= 1e-300 else math.inf
    else:
        f_stat = (ss_between / df_between) / (ss_within / df_within)
    if math.isinf(f_stat):
        p_value = 0.0
    else:
        p_value = float(special.fdtrc(df_between, df_within, f_stat))
    return {
        "f_stat": f_stat,
        "p_value": p_value,
        "bonferroni_p": min(1.0, p_value * n_comparisons),
        "df_between": df_between,
        "df_within": df_within,
    }
