"""Trial-wise cross-validation, confusion metrics, sweeps and ANOVA.

crossvalidate runs in two stages: build_table mixes noise, filters, segments
and extracts every recording once into a FeatureTable, one extract_matrix
result per AR fit order side by side, and the fold loop fits on a column
slice of that table, so several feature sets can be scored against one
table; sweep builds one such table per grid value and scores every set on
it.  A table's settings (thresholds, window, overlap, SNR, filter and seed)
are one frozen TableSpec, which build_table builds from its keywords, the
table keeps and every report reads.  Each fold holds one trial of every
movement out and fits the chain fit_pipeline fits (min-max bounds, the ULDA
projection and the classifier) on the training folds only, so no test
information leaks into it.  The part of a fold that no set changes (the
missing-movement check, the class codes and their grouping, the training
and held-out rows min-max scaled over every table column, which works column
by column, and the held-out labels as movement indices) is computed once per
table, at the first set scored on it.  Each set slices its columns of the scaled rows and
fits ULDA and the classifier on them with the fold's class codes as labels,
the two calls fit_pipeline makes after its own scaling.  Each fold is counted
in movement indices: the model's predictions are mapped back to them and
counted in one bincount, the counting ConfusionMatrix.from_predictions does
after encoding its labels.  After the loop, the counts of every scored fold
are scored together, in one pass over their (folds, K, K) stack; `metrics`
is the one-fold case of that pass.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy import special

from .classify import ModelSpec, train
from .dataset import MOVEMENTS, NO_MIX, mix_awgn
from .errors import (DegenerateClasses, EmgprError, EmptyMatrix, InsufficientGroups,
                     check_number)
from .features import FeatureSetSpec, Thresholds, ar_fit_order, ar_lag, extract_matrix
from .preprocess import (
    FilterSpec,
    MinMax,
    apply_filters,
    normalize_features,
    segment,
    window_grid,
)
from .reduce import ClassCodes, UldaProjection, class_codes, fit_ulda, project
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


def _label_codes(values, labels) -> np.ndarray:
    """Each value's index into `labels`; ValueError naming a value that is
    not one of them."""
    index = {label: i for i, label in enumerate(labels)}
    present, inverse = np.unique(np.asarray(values), return_inverse=True)
    try:
        return np.array([index[v] for v in present.tolist()], dtype=np.intp)[inverse]
    except KeyError as unknown:
        raise ValueError(
            f"label {unknown.args[0]!r} is not one of {tuple(labels)!r}"
        ) from None


def _pair_counts(true_codes, pred_codes, k: int) -> np.ndarray:
    """(k, k) counts of (true, predicted) code pairs, codes in [0, k), from
    one bincount."""
    return np.bincount(true_codes * k + pred_codes, minlength=k * k).reshape(k, k)


@dataclass(frozen=True)
class ConfusionMatrix:
    """K x K counts; rows are true classes, columns predicted.

    ValueError when a label repeats, the shape is not (K, K), or a count is
    negative or not a whole number (a float count is never truncated).
    """

    counts: np.ndarray
    labels: tuple

    def __post_init__(self):
        for i, label in enumerate(self.labels):
            if label in self.labels[:i]:
                raise ValueError(f"label {label!r} is repeated in {self.labels!r}")
        counts = np.asarray(self.counts)
        k = len(self.labels)
        if counts.shape != (k, k):
            raise ValueError("counts must be (K, K) matching labels")
        if counts.dtype.kind not in "biu":
            whole = np.isfinite(counts) & (counts == np.trunc(counts))
            if not whole.all():
                i, j = np.argwhere(~whole)[0].tolist()
                raise ValueError(
                    f"counts[{i}, {j}] is {counts[i, j].item()!r}, not a whole number")
        counts = counts.astype(int, copy=False)
        if (counts < 0).any():
            raise ValueError("counts must be non-negative")
        object.__setattr__(self, "counts", counts)

    @classmethod
    def from_predictions(cls, y_true, y_pred, labels) -> "ConfusionMatrix":
        """Counts of (true, predicted) label pairs; ValueError when the two
        differ in length, hold a label outside `labels` or `labels` repeats
        one."""
        labels = tuple(labels)
        if len(y_true) != len(y_pred):
            raise ValueError(
                f"y_true has {len(y_true)} labels but y_pred has {len(y_pred)}"
            )
        counts = _pair_counts(_label_codes(y_true, labels), _label_codes(y_pred, labels),
                              len(labels))
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
    `metrics` computes the macro averages with the per-class scores.
    """

    accuracy: float
    per_class_accuracy: np.ndarray
    sensitivity: np.ndarray
    specificity: np.ndarray
    precision: np.ndarray
    f1: np.ndarray
    ovr_accuracy: float
    macro_sensitivity: float
    macro_specificity: float
    macro_precision: float
    macro_f1: float
    undefined: tuple = ()

    def scalar(self, name: str) -> float:
        """The score reported under a METRIC_NAMES name."""
        return getattr(self, _SCALAR_FIELDS[name])


def _ratios(num: np.ndarray, den: np.ndarray):
    """num / den, with 0 where den == 0, and that mask."""
    zero = den == 0
    return np.divide(num, den, out=np.zeros(num.shape), where=~zero), zero


def _score(counts: np.ndarray) -> list:
    """The Metrics of each (K, K) matrix of a (folds, K, K) stack of counts,
    in one pass over the stack; EmptyMatrix when one has no observation."""
    total = counts.sum(axis=(1, 2))
    if not total.all():
        raise EmptyMatrix("confusion matrix has no observations")
    tp = np.diagonal(counts, axis1=1, axis2=2)
    fn = counts.sum(axis=2) - tp
    fp = counts.sum(axis=1) - tp
    tn = total[:, None] - tp - fn - fp
    sens, no_sens = _ratios(tp, tp + fn)
    spec, no_spec = _ratios(tn, tn + fp)
    prec, no_prec = _ratios(tp, tp + fp)
    f1, no_f1 = _ratios(2.0 * prec * sens, prec + sens)
    # (folds, score, class) in the order of _SCORES; each row's mean equals
    # the 1-D mean of that score bit for bit
    per_class = np.stack([(tp + tn) / total[:, None], sens, spec, prec, f1], axis=1)
    # per fold, then class, in the order of the ratio rows of _SCORES
    flagged = np.stack([no_sens, no_spec, no_prec, no_f1], axis=2)
    undefined = [[] for _ in counts]
    for fold, i, j in zip(*(axis.tolist() for axis in np.nonzero(flagged))):
        undefined[fold].append((_SCORES[1 + j][0], i))
    hit_rates = tp.sum(axis=1) / total
    return [
        # Metrics lists its per-class fields, then its macro ones, in the
        # order of _SCORES
        Metrics(accuracy, *scores, *means, undefined=tuple(flags))
        for accuracy, scores, means, flags in zip(
            hit_rates.tolist(), per_class, per_class.mean(axis=2).tolist(), undefined)
    ]


def metrics(cm: ConfusionMatrix) -> Metrics:
    """Reduce a confusion matrix to the five scores, per class and macro: the
    one-fold case of the pass that scores a report's folds together."""
    return _score(cm.counts[None])[0]


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

    The labels are encoded once, and both fits take that encoding as their
    labels."""
    norm, bounds = normalize_features(X)
    encoded = class_codes(y)
    projection = fit_ulda(norm, encoded)
    model = train(model_spec, project(projection, norm), encoded)
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

    def _values(self, name: str) -> np.ndarray:
        return np.asarray([f.scores.scalar(name) for f in self.folds])

    def mean(self, name: str) -> float:
        """Mean of a METRIC_NAMES score across every (subject, fold) cell;
        NaN when no fold was scored."""
        return float(self._values(name).mean()) if self.folds else math.nan

    def summary(self) -> dict:
        """metric -> (mean, std) across every (subject, fold) cell."""
        if not self.folds:
            return {name: (math.nan, math.nan) for name in METRIC_NAMES}
        return {name: (self.mean(name), float(self._values(name).std()))
                for name in METRIC_NAMES}

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


# ---------------------------------------------------------------------------
# feature table


def _set_columns(features) -> tuple:
    """The (feature id, AR fit order) column key of each feature of a set, in
    set order; the order is None for a feature that is not an AR lag."""
    order = ar_fit_order(features)
    return tuple((fid, order if ar_lag(fid) else None) for fid in features)


def _extraction_plan(feature_sets) -> list:
    """One FeatureSetSpec per AR fit order of these feature-id lists, lowest
    first, each with the distinct columns of that order as the lists first
    name them.  Plain features ride with the largest order, so a single list
    is extracted in one pass.  A spec's own fit order is its group's, so its
    `_set_columns` are its columns of the table.
    """
    keys = dict.fromkeys(key for features in feature_sets for key in _set_columns(features))
    orders = sorted({order for _, order in keys if order is not None}) or [None]
    top = orders[-1]
    return [
        FeatureSetSpec("CUSTOM", tuple(fid for fid, order in keys
                                       if order == group or (order is None and group == top)))
        for group in orders
    ]


def _describe(exc: EmgprError) -> str:
    """A fold failure as a report records it."""
    return f"{type(exc).__name__}: {exc}"


@dataclass(frozen=True, eq=False)
class TableFold:
    """The part of one subject's fold that no feature set changes.

    When the training trials lack a movement, `error` is the
    DegenerateClasses failure that every set records and the other fields
    are None.  Otherwise the fold holds the training labels' `class_codes`
    (the encoding and its class grouping, which ULDA and the classifier take
    as their labels) and the training rows min-max scaled over every table
    column; and the held-out trial's labels as indices into the table's
    movements (`test_codes`) and its rows scaled and clipped with the
    training rows' bounds (`test_scaled`).  Min-max scaling works column by
    column, so a set's columns of these rows are its own scaling.  Rows are
    channel-major, as `FeatureTable.matrix` lays them out.
    """

    held_out: int
    error: str = None
    encoded: ClassCodes = None
    scaled: np.ndarray = None
    test_codes: np.ndarray = None
    test_scaled: np.ndarray = None


@dataclass(frozen=True)
class TableSpec:
    """The settings a feature table is built with, each declared here once.

    `window_ms` and `overlap_ms` are stored as floats; `snr_db` is None when
    no noise is mixed, which both None and the no-mix sentinel (inf) ask for,
    and a float otherwise.  `seed` is the master seed of the noise draws.
    ValueError names a window or overlap that is not a finite number of its
    range, or a seed that is not an integer.
    """

    thresholds: Thresholds = Thresholds()
    window_ms: float = 250.0
    overlap_ms: float = 0.0
    snr_db: float = None
    filter_spec: FilterSpec = FilterSpec()
    seed: int = 0

    def __post_init__(self):
        check_number("window_ms", self.window_ms, 0, open_low=True)
        check_number("overlap_ms", self.overlap_ms, 0)
        check_number("seed", self.seed, integer=True)
        snr_db = None if self.snr_db is None or self.snr_db == NO_MIX else float(self.snr_db)
        object.__setattr__(self, "window_ms", float(self.window_ms))
        object.__setattr__(self, "overlap_ms", float(self.overlap_ms))
        object.__setattr__(self, "snr_db", snr_db)


@dataclass(frozen=True, eq=False)
class FeatureTable:
    """Per-window features of a dataset, computed once and sliced per set.

    For each subject, `values[subject]` is a (windows, channels, columns)
    block whose last axis is keyed by `columns`, with `labels[subject]` and
    `trials[subject]` per window.  `movements` is the class order over all
    subjects, and `spec` the settings the table was built with.  `folds`
    splits a subject once and keeps the split for every set.
    """

    values: dict
    labels: dict
    trials: dict
    movements: tuple
    columns: tuple
    spec: TableSpec
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
        this table shares it; it holds one scaled copy of the subject's rows
        per fold, training and held-out.
        """
        if subject not in self._folds:
            self._folds[subject] = tuple(self._split(subject))
        return self._folds[subject]

    def _split(self, subject):
        block = self.values[subject]
        rows = block.reshape(len(block), -1)
        y, trial_ids = self.labels[subject], self.trials[subject]
        codes = _label_codes(y, self.movements)
        trials_of = {m: set(trial_ids[y == m].tolist()) for m in self.movements}
        for held_out in sorted(set(trial_ids.tolist())):
            test = trial_ids == held_out
            try:
                missing = [m for m in self.movements if trials_of[m] <= {held_out}]
                if missing:
                    raise DegenerateClasses(f"declared classes with no samples: {missing}")
                encoded = class_codes(y[~test])
            except EmgprError as exc:
                yield TableFold(int(held_out), error=_describe(exc))
                continue
            scaled, bounds = normalize_features(rows[~test])
            test_scaled, _ = normalize_features(rows[test], bounds)
            yield TableFold(int(held_out), encoded=encoded, scaled=scaled,
                            test_codes=codes[test], test_scaled=test_scaled)


def build_table(recordings, feature_sets, **settings) -> FeatureTable:
    """Mix noise, filter, segment and extract every recording once.

    `settings` are `TableSpec`'s fields, checked as one `TableSpec` before
    anything else, so an unknown one is a TypeError.  `feature_sets` are the
    feature-id lists the table must serve; each list reads its AR lags off
    one fit at its largest lag, as `extract` does.  The table is laid out as
    its `_extraction_plan`, one spec per AR fit order, lowest first:
    `columns` are the specs' column keys side by side, and sets slice them by
    key.  When the spec's snr_db is not None, calibrated white noise is mixed
    into the raw recordings (seeded per subject/movement/trial) before
    filtering.

    A subject's windows are segmented into one array and its block joins one
    `extract_matrix` result per spec, so one subject's filtered windows are
    held in memory at a time.  Rows run in recording order, then window
    order.  Every recording of a subject must give the first one's channel
    count and window length in samples; ValueError names the one that does
    not, before any recording is mixed or filtered.
    """
    spec = TableSpec(**settings)
    if any(isinstance(features, str) for features in feature_sets):
        raise ValueError("feature_sets must hold feature-id lists, e.g. [spec.features]")
    plan = _extraction_plan(feature_sets)

    by_subject = {}
    for rec in recordings:
        by_subject.setdefault(rec.subject_id, []).append(rec)

    values, labels, trials = {}, {}, {}
    for subject in sorted(by_subject):
        recs = by_subject[subject]
        grids = [window_grid(rec.n_samples, rec.sample_rate_hz, spec.window_ms,
                             spec.overlap_ms) for rec in recs]
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
            if spec.snr_db is not None:
                rec = mix_awgn(
                    rec,
                    spec.snr_db,
                    derive_seed(spec.seed, "awgn", subject, rec.movement,
                                rec.trial, spec.snr_db),
                )
            rec = apply_filters(rec, spec.filter_spec)
            segment(rec, spec.window_ms, spec.overlap_ms, out=windows[row : row + count])
            row += count

        values[subject] = np.concatenate([
            extract_matrix(group, windows, spec.thresholds).reshape(
                windows.shape[:2] + (len(group),))
            for group in plan
        ], axis=2)
        labels[subject] = np.repeat([rec.movement for rec in recs], counts)
        trials[subject] = np.repeat([rec.trial for rec in recs], counts)

    return FeatureTable(
        values=values,
        labels=labels,
        trials=trials,
        movements=_movement_order(recordings),
        columns=tuple(key for group in plan for key in _set_columns(group.features)),
        spec=spec,
    )


def crossvalidate(
    recordings,
    feature_set: FeatureSetSpec,
    model_spec: ModelSpec,
    **settings,
) -> EvalReport:
    """Leave-one-trial-out evaluation over every subject in the dataset.

    `recordings` is either the recordings, from which a table of this set's
    columns is built with `settings` (`TableSpec`'s fields, as `build_table`
    takes them), or a `FeatureTable`, which brings its own `spec`: any
    setting passed with a table raises TypeError, and a table lacking a
    column the set reads raises ValueError.  ValueError too when there is no
    subject to cross-validate.  The report's window, overlap, SNR and seed,
    and its config's thresholds and filter, are the table spec's, whose SNR
    is None for the no-mix sentinel (inf), so a report equals a plain run's.

    Only this loop knows the table's movement order: a fold whose training
    trials lack a movement fails with DegenerateClasses, and every fold is
    scored in movement order, whatever the fitted model's class order.  Each
    fold's split, class codes and grouping, and scaled training and held-out
    rows come from `FeatureTable.folds`, sliced to the set's columns, so a
    table computes them once for every set.  A fold's predictions are mapped
    to movement indices and counted against the held-out codes in one
    bincount, as `ConfusionMatrix.from_predictions` counts labels; the
    counts of all scored folds are scored in one stacked pass after the loop.
    """
    if isinstance(recordings, FeatureTable):
        if settings:
            raise TypeError("a feature table brings its own settings; got "
                            + ", ".join(sorted(settings)))
        table = recordings
        table.positions(feature_set.features)  # fail before the first fold
    else:
        table = build_table(recordings, [feature_set.features], **settings)
    if not table.subjects:
        raise ValueError("there is no subject to cross-validate")
    labels = table.movements
    # every movement trains in a fold that is scored, so a fitted model's
    # classes are the movements sorted: class i is movement movement_of[i]
    movement_of = np.argsort(np.asarray(labels))

    scored, failures = [], []  # scored: (subject, held-out trial, counts)
    for subject in table.subjects:
        columns = table.flat_positions(subject, feature_set.features)
        for fold in table.folds(subject):
            error = fold.error
            if error is None:
                try:
                    # fit_pipeline after its scaling; take, not [:, columns],
                    # gives the C order its rows have, so ULDA sums in the
                    # same order
                    scaled = np.take(fold.scaled, columns, axis=1)
                    projection = fit_ulda(scaled, fold.encoded)
                    model = train(model_spec, project(projection, scaled), fold.encoded)
                    # Pipeline.predict after its scaling, on rows the fold scaled
                    predicted = model.predict(project(
                        projection, np.take(fold.test_scaled, columns, axis=1)))
                    scored.append((subject, fold.held_out, _pair_counts(
                        fold.test_codes,
                        movement_of[np.searchsorted(model.classes, predicted)],
                        len(labels))))
                except EmgprError as exc:
                    error = _describe(exc)
            if error is not None:
                failures.append(FoldFailure(subject=subject, fold_trial=fold.held_out,
                                            error=error))
    scores = _score(np.stack([counts for _, _, counts in scored])) if scored else []
    folds = tuple(
        FoldEval(subject=subject, fold_trial=held_out,
                 confusion=ConfusionMatrix(counts=counts, labels=labels), scores=fold_scores)
        for (subject, held_out, counts), fold_scores in zip(scored, scores)
    )

    spec = table.spec
    scalars = {name: getattr(spec, name)
               for name in ("window_ms", "overlap_ms", "snr_db", "seed")}
    return EvalReport(
        feature_set=feature_set.name,
        classifier=model_spec.kind,
        **scalars,
        config={
            "feature_set": {**feature_set.to_dict(),
                            "thresholds": spec.thresholds.to_dict()},
            "model": model_spec.to_dict(),
            "filter": spec.filter_spec.to_dict(),
            **scalars,
        },
        folds=folds,
        failures=tuple(failures),
    )


#: The paper's grids: window lengths in ms and mixing SNRs in dB.
DEFAULT_WINDOW_SIZES = tuple(range(50, 351, 50))
DEFAULT_SNR_GRID = tuple(range(0, 21))


def sweep(recordings, feature_sets, model_spec: ModelSpec, setting: str, values,
          **settings) -> list:
    """One report per (value, set), value by value: at each value of the
    `TableSpec` field `setting` ("window_ms", "snr_db", ...), one table built
    with `settings` serves every set, each scored by `crossvalidate`."""
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
    comparisons, capped at 1).  ValueError names the group and index of a
    score that is not a finite number.
    """
    groups = [np.asarray(g, dtype=float) for g in groups]
    if len(groups) < 2:
        raise InsufficientGroups("need at least two groups")
    if any(len(g) == 0 for g in groups):
        raise InsufficientGroups("groups must be non-empty")
    for i, g in enumerate(groups):
        if not np.isfinite(g).all():
            j = int(np.argmin(np.isfinite(g)))
            raise ValueError(f"group {i} score {j} is {g[j].item()!r}, not a finite number")
    check_number("n_comparisons", n_comparisons, 1, integer=True)
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
    p_value = float(special.fdtrc(df_between, df_within, f_stat))  # 0.0 at inf
    return {
        "f_stat": f_stat,
        "p_value": p_value,
        "bonferroni_p": min(1.0, p_value * n_comparisons),
        "df_between": df_between,
        "df_within": df_within,
    }
