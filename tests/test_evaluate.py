import functools
import json
import math
from dataclasses import asdict, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from emgpr import (
    FilterSpec,
    ModelSpec,
    SyntheticSpec,
    Thresholds,
    apply_filters,
    build_table,
    crossvalidate,
    derive_seed,
    extract_matrix,
    feature_set,
    generate_synthetic,
    metrics,
    mix_awgn,
    segment,
    separable_gain_grid,
    sweep,
    with_lmav_nsv,
)
from emgpr.dataset import NO_MIX
from emgpr.errors import DimensionMismatch, EmptyMatrix, InsufficientGroups
from emgpr import evaluate as evaluate_module
from emgpr.evaluate import (
    CSV_HEADER,
    ConfusionMatrix,
    compare_groups,
    fit_pipeline,
    fit_scaled,
)


def binary_cm(tp, fn, fp, tn):
    return ConfusionMatrix(
        counts=np.array([[tp, fn], [fp, tn]]), labels=("pos", "neg")
    )


class TestMetrics:
    def test_hand_case(self):
        m = metrics(binary_cm(8, 2, 3, 7))
        assert m.accuracy == pytest.approx(0.75, abs=1e-12)
        assert m.sensitivity[0] == pytest.approx(0.8, abs=1e-12)
        assert m.specificity[0] == pytest.approx(0.7, abs=1e-12)
        assert m.precision[0] == pytest.approx(8.0 / 11.0, abs=1e-12)
        assert m.f1[0] == pytest.approx(0.761905, abs=1e-6)

    def test_perfect_matrix_all_ones(self):
        cm = ConfusionMatrix(np.eye(10, dtype=int) * 12, tuple(range(10)))
        m = metrics(cm)
        assert m.accuracy == 1.0
        for arr in (m.per_class_accuracy, m.sensitivity, m.specificity,
                    m.precision, m.f1):
            assert np.all(arr == 1.0)

    def test_constant_classifier_balanced(self):
        counts = np.zeros((10, 10), dtype=int)
        counts[:, 0] = 5
        m = metrics(ConfusionMatrix(counts, tuple(range(10))))
        assert m.accuracy == pytest.approx(0.1, abs=1e-12)
        assert m.macro_sensitivity == pytest.approx(0.1, abs=1e-12)

    def test_f1_identity(self):
        rng = np.random.default_rng(0)
        counts = rng.integers(0, 30, size=(4, 4))
        counts[np.diag_indices(4)] += 5
        m = metrics(ConfusionMatrix(counts, tuple("abcd")))
        for k in range(4):
            p, s = m.precision[k], m.sensitivity[k]
            expect = 0.0 if p + s == 0 else 2 * p * s / (p + s)
            assert m.f1[k] == pytest.approx(expect, abs=1e-12)
        assert m.accuracy == pytest.approx(
            np.trace(counts) / counts.sum(), abs=1e-12
        )

    def test_zero_over_zero_flagged(self):
        counts = np.array([[5, 0], [0, 0]])
        m = metrics(ConfusionMatrix(counts, ("a", "b")))
        assert m.sensitivity[1] == 0.0
        assert ("sensitivity", 1) in m.undefined

    def test_empty_matrix(self):
        with pytest.raises(EmptyMatrix):
            metrics(ConfusionMatrix(np.zeros((2, 2), dtype=int), ("a", "b")))

    def test_ovr_consistency(self):
        cm = binary_cm(8, 2, 3, 7)
        assert cm.ovr(0) == (8, 7, 3, 2)
        assert cm.ovr(1) == (7, 8, 2, 3)

    def test_undefined_listed_per_class_in_metric_order(self):
        # class 1 is never true nor predicted; class 2 is never predicted
        counts = np.array([[5, 0, 0], [0, 0, 0], [3, 0, 0]])
        m = metrics(ConfusionMatrix(counts, ("a", "b", "c")))
        assert m.undefined == (("sensitivity", 1), ("precision", 1), ("f1", 1),
                               ("precision", 2), ("f1", 2))
        assert all(type(i) is int for _, i in m.undefined)

    def test_equals_per_class_loop(self):
        # the one-vs-rest counts and 0/0 rule of a scalar loop, bit for bit
        rng = np.random.default_rng(8)
        for k in (2, 5, 10, 11):
            counts = rng.integers(0, 4, size=(k, k)) * (rng.random((k, k)) < 0.4)
            counts[0, 0] += 1
            cm = ConfusionMatrix(counts, tuple(range(k)))
            m = metrics(cm)
            undefined = []

            def ratio(num, den, name, i):
                if den == 0:
                    undefined.append((name, i))
                    return 0.0
                return num / den

            for i in range(k):
                tp, tn, fp, fn = cm.ovr(i)
                assert m.per_class_accuracy[i] == (tp + tn) / cm.total
                sens = ratio(tp, tp + fn, "sensitivity", i)
                spec = ratio(tn, tn + fp, "specificity", i)
                prec = ratio(tp, tp + fp, "precision", i)
                f1 = ratio(2.0 * prec * sens, prec + sens, "f1", i)
                assert (m.sensitivity[i], m.specificity[i], m.precision[i],
                        m.f1[i]) == (sens, spec, prec, f1)
            assert m.undefined == tuple(undefined)
            for name, values in (("ovr_accuracy", m.per_class_accuracy),
                                 ("sensitivity", m.sensitivity),
                                 ("specificity", m.specificity),
                                 ("precision", m.precision), ("f1", m.f1)):
                assert m.scalar(name) == float(values.mean())
            assert m.scalar("accuracy") == m.accuracy
            assert m.scalar("f1") == m.macro_f1


class TestConfusionMatrix:
    def test_counts_in_label_order(self):
        cm = ConfusionMatrix.from_predictions(
            ["b", "a", "b", "c", "b"], ["b", "b", "a", "c", "b"], ("c", "b", "a"))
        assert cm.labels == ("c", "b", "a")
        assert cm.counts.tolist() == [[1, 0, 0], [0, 2, 1], [0, 1, 0]]

    def test_counts_equal_pair_loop(self):
        rng = np.random.default_rng(9)
        labels = ("m3", "m1", "m2", "m0")
        y_true, y_pred = rng.choice(labels, 300), rng.choice(labels, 300)
        cm = ConfusionMatrix.from_predictions(y_true, y_pred, labels)
        expected = np.zeros((4, 4), dtype=int)
        for t, p in zip(y_true, y_pred):
            expected[labels.index(t), labels.index(p)] += 1
        assert np.array_equal(cm.counts, expected)
        empty = ConfusionMatrix.from_predictions([], [], labels)
        assert empty.total == 0 and empty.counts.shape == (4, 4)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="2 labels but y_pred has 1"):
            ConfusionMatrix.from_predictions(["a", "b"], ["a"], ["a", "b"])

    def test_unknown_label_rejected(self):
        with pytest.raises(ValueError, match="label 'c' is not one of"):
            ConfusionMatrix.from_predictions(["a", "c"], ["a", "a"], ["a", "b"])
        with pytest.raises(ValueError, match="label 'd' is not one of"):
            ConfusionMatrix.from_predictions(["a", "b"], ["d", "a"], ["a", "b"])


class TestAnova:
    def test_hand_case_exact_f(self):
        groups = [[1, 2, 3], [2, 3, 4], [10, 11, 12]]
        # independent hand computation of the one-way decomposition
        flat = [v for g in groups for v in g]
        grand = sum(flat) / len(flat)
        means = [sum(g) / len(g) for g in groups]
        ss_between = sum(len(g) * (m - grand) ** 2 for g, m in zip(groups, means))
        ss_within = sum(
            (v - m) ** 2 for g, m in zip(groups, means) for v in g
        )
        f_oracle = (ss_between / 2) / (ss_within / 6)
        assert ss_between == pytest.approx(146.0, abs=1e-9)
        assert ss_within == pytest.approx(6.0, abs=1e-12)
        assert f_oracle == pytest.approx(73.0, abs=1e-9)

        result = compare_groups(groups)
        assert result["f_stat"] == pytest.approx(f_oracle, abs=1e-9)

    def test_p_value_against_incomplete_beta(self):
        mp = pytest.importorskip("mpmath")
        result = compare_groups([[1, 2, 3], [2, 3, 4], [10, 11, 12]])
        d1, d2, f = result["df_between"], result["df_within"], result["f_stat"]
        x = d2 / (d2 + d1 * f)
        p_ref = float(mp.betainc(d2 / 2.0, d1 / 2.0, 0, x, regularized=True))
        # agreement to 2 significant figures and far better
        assert result["p_value"] == pytest.approx(p_ref, rel=1e-8)
        assert f"{result['p_value']:.1e}" == f"{p_ref:.1e}"

    def test_identical_groups(self):
        result = compare_groups([[1.0, 2.0, 3.0]] * 3)
        assert result["f_stat"] == 0.0
        assert result["p_value"] == 1.0
        assert result["bonferroni_p"] == 1.0

    def test_bonferroni_caps_at_one(self):
        result = compare_groups([[1, 2, 3], [2, 3, 4]], n_comparisons=50)
        assert result["bonferroni_p"] <= 1.0
        small = compare_groups([[1, 2, 3], [10, 11, 12]], n_comparisons=3)
        assert small["bonferroni_p"] == pytest.approx(
            min(1.0, small["p_value"] * 3), abs=1e-15
        )

    def test_single_group_rejected(self):
        with pytest.raises(InsufficientGroups):
            compare_groups([[1, 2, 3]])

    def test_constant_but_different_groups(self):
        result = compare_groups([[1.0, 1.0], [2.0, 2.0]])
        assert math.isinf(result["f_stat"])
        assert result["p_value"] == 0.0


def quick_dataset(seed=9, n_movements=5, n_trials=3, duration_s=2.0):
    spec = SyntheticSpec(
        n_subjects=1, n_channels=2, n_movements=n_movements, n_trials=n_trials,
        duration_s=duration_s, sample_rate_hz=2000.0,
        class_gain_matrix=separable_gain_grid(n_movements, 2, 2.0), seed=seed,
    )
    return generate_synthetic(spec)


class TestCrossvalidate:
    def test_fold_structure_full_protocol(self, separable_recordings):
        report = crossvalidate(
            separable_recordings, feature_set("FS2"), ModelSpec(kind="qda")
        )
        assert len(report.folds) == 6
        assert {f.fold_trial for f in report.folds} == set(range(1, 7))
        for fold in report.folds:
            assert fold.confusion.total == 200  # 1 trial x 10 movements x 20

    def test_two_trial_dataset_two_folds(self):
        recs = quick_dataset(n_trials=2)
        report = crossvalidate(recs, feature_set("FS2"), ModelSpec(kind="qda"))
        assert len(report.folds) == 2
        assert {f.fold_trial for f in report.folds} == {1, 2}

    def test_synthetic_separable_high_f1(self):
        recs = quick_dataset()
        report = crossvalidate(recs, feature_set("PROPOSED"), ModelSpec(kind="qda"))
        assert report.summary()["f1"][0] >= 0.99

    def test_deterministic_reports(self):
        recs = quick_dataset()
        a = crossvalidate(recs, feature_set("FS2"), ModelSpec(kind="qda"), seed=3)
        b = crossvalidate(recs, feature_set("FS2"), ModelSpec(kind="qda"), seed=3)
        assert json.dumps(a.to_dict(), sort_keys=True) == json.dumps(
            b.to_dict(), sort_keys=True
        )

    def test_no_mix_sentinel_equals_plain_run(self):
        recs = quick_dataset()
        plain = crossvalidate(recs, feature_set("FS2"), ModelSpec(kind="qda"), seed=5)
        sentinel = crossvalidate(
            recs, feature_set("FS2"), ModelSpec(kind="qda"), snr_db=NO_MIX, seed=5
        )
        assert json.dumps(plain.to_dict(), sort_keys=True) == json.dumps(
            sentinel.to_dict(), sort_keys=True
        )

    @pytest.mark.parametrize("snr_db", [math.nan, -math.inf])
    def test_non_finite_snr_rejected(self, snr_db):
        recs = quick_dataset(n_movements=2, n_trials=2, duration_s=0.5)
        args = (feature_set("FS2"), ModelSpec(kind="qda"))
        for call in (
            lambda: mix_awgn(recs[0], snr_db, seed=0),
            lambda: crossvalidate(recs, *args, snr_db=snr_db),
            lambda: sweep(recs, [args[0]], args[1], "snr_db", (snr_db,)),
        ):
            with pytest.raises(ValueError, match="snr_db"):
                call()

    def test_leak_freedom_fitted_params_ignore_test_trial(self, monkeypatch):
        recs = quick_dataset()
        poisoned = [
            rec.with_channels(rec.channels * 1000.0) if rec.trial == 2 else rec
            for rec in recs
        ]
        spec, model_spec = feature_set("FS2"), ModelSpec(kind="qda")

        def fitted_chains(recordings):
            """The report and the Pipeline of each fold, in fold order: the
            fold loop fits each chain with fit_scaled, on rows it scaled."""
            chains = []

            def recording_fit(*args, **kwargs):
                chains.append(fit_scaled(*args, **kwargs))
                return chains[-1]

            monkeypatch.setattr(evaluate_module, "fit_scaled", recording_fit)
            report = crossvalidate(recordings, spec, model_spec)
            monkeypatch.undo()
            assert not report.failures and len(chains) == len(report.folds)
            return report, dict(zip((f.fold_trial for f in report.folds), chains))

        def same_chain(a, b):
            return all(
                np.array_equal(u, v)
                for u, v in (
                    (a.bounds.mins, b.bounds.mins),
                    (a.bounds.maxs, b.bounds.maxs),
                    (a.projection.mean, b.projection.mean),
                    (a.projection.matrix, b.projection.matrix),
                )
            )

        report, dirty = fitted_chains(poisoned)
        # each fold's chain and scores come from its training rows alone
        table = build_table(poisoned, [spec.features])
        X = table.matrix("S1", spec.features)
        y, trials = table.labels["S1"], table.trials["S1"]
        for fold in report.folds:
            train_rows = trials != fold.fold_trial
            alone = fit_pipeline(X[train_rows], y[train_rows], model_spec)
            assert same_chain(dirty[fold.fold_trial], alone)
            cm = ConfusionMatrix.from_predictions(
                y[~train_rows], alone.predict(X[~train_rows]), table.movements
            )
            assert np.array_equal(fold.confusion.counts, cm.counts)
        # the poisoned trial reaches exactly the chains fitted on it
        _, clean = fitted_chains(recs)
        assert same_chain(clean[2], dirty[2])
        assert not same_chain(clean[1], dirty[1])
        assert not same_chain(clean[3], dirty[3])

    @pytest.mark.parametrize("kind", ["qda", "svm", "knn"])
    def test_pipeline_encodes_the_labels_once(self, kind, monkeypatch):
        # fit_pipeline hands its one class encoding to fit_ulda and train;
        # the chain equals the one their own encodings give
        from emgpr import classify, reduce

        spec = feature_set("FS2")
        table = build_table(quick_dataset(), [spec.features])
        X, y = table.matrix("S1", spec.features), table.labels["S1"]
        plain = fit_pipeline(X, y, ModelSpec(kind=kind))
        calls, encode = [], reduce.class_codes
        monkeypatch.setattr(evaluate_module, "class_codes",
                            lambda y: calls.append(1) or encode(y))

        def refuse(y):
            raise AssertionError("labels encoded again")

        monkeypatch.setattr(reduce, "class_codes", refuse)
        monkeypatch.setattr(classify, "class_codes", refuse)
        seamed = fit_pipeline(X, y, ModelSpec(kind=kind))
        assert calls == [1]
        assert np.array_equal(seamed.projection.matrix, plain.projection.matrix)
        assert np.array_equal(seamed.model.classes, plain.model.classes)
        assert np.array_equal(seamed.predict(X), plain.predict(X))

    @pytest.mark.parametrize("kind", ["qda", "svm", "knn"])
    def test_pipeline_predicts_one_vector(self, kind):
        spec = feature_set("FS2")
        table = build_table(quick_dataset(), [spec.features])
        X, y = table.matrix("S1", spec.features), table.labels["S1"]
        pipeline = fit_pipeline(X, y, ModelSpec(kind=kind))
        for i in (0, len(X) // 2, len(X) - 1):
            assert pipeline.predict(X[i]) == pipeline.predict(X[i : i + 1])[0]

    def test_pipeline_refuses_a_row_of_another_width(self):
        # a one-value row must not broadcast across all 12 columns
        spec = feature_set("FS2")
        table = build_table(quick_dataset(), [spec.features])
        X, y = table.matrix("S1", spec.features), table.labels["S1"]
        pipeline = fit_pipeline(X, y, ModelSpec(kind="qda"))
        for rows, width in ((np.array([[0.5]]), 1), (X[:2, :5], 5)):
            with pytest.raises(DimensionMismatch, match=f"fitted on 12 features, got rows of {width}$"):
                pipeline.predict(rows)

    def test_csv_rows_shape(self):
        recs = quick_dataset()
        report = crossvalidate(recs, feature_set("FS2"), ModelSpec(kind="qda"))
        rows = report.csv_rows()
        n_classes = 5
        per_fold = 2 + 4 * (n_classes + 1)
        assert len(rows) == len(report.folds) * per_fold
        assert CSV_HEADER.count(",") == rows[0].count(",")

    def test_csv_rows_equal_the_report_values(self):
        report = crossvalidate(quick_dataset(), feature_set("FS2"), ModelSpec(kind="qda"))
        folds = {(f["subject"], f["fold_trial"]): f for f in report.to_dict()["folds"]}
        per_class_rows = 0
        for row in report.csv_rows():
            subject, fold, *_, metric, label, value = row.split(",")
            record = folds[subject, int(fold)]
            if label in ("all", "macro"):
                expected = record["metrics"][metric]
            else:
                expected = record["per_class"][metric][record["labels"].index(label)]
                per_class_rows += 1
            assert value == repr(expected)
        assert per_class_rows == len(folds) * 4 * 5

    def test_per_subject_means(self):
        spec = SyntheticSpec(
            n_subjects=2, n_channels=2, n_movements=4, n_trials=2,
            duration_s=1.0, sample_rate_hz=2000.0,
            class_gain_matrix=separable_gain_grid(4, 2, 2.0), seed=3,
        )
        report = crossvalidate(
            generate_synthetic(spec), feature_set("FS2"), ModelSpec(kind="qda")
        )
        means = report.per_subject_means("f1")
        assert sorted(means) == ["S1", "S2"]
        for subject, value in means.items():
            fold_vals = [
                f.scores.macro_f1 for f in report.folds if f.subject == subject
            ]
            assert value == pytest.approx(np.mean(fold_vals), abs=1e-12)


#: 2 subjects x 4 movements x 3 trials
N_SHUFFLED = 24


@functools.lru_cache(maxsize=None)
def shuffle_recordings() -> tuple:
    spec = SyntheticSpec(
        n_subjects=2, n_channels=2, n_movements=4, n_trials=3,
        duration_s=1.0, sample_rate_hz=2000.0,
        class_gain_matrix=separable_gain_grid(4, 2, 2.0), seed=4,
    )
    recordings = tuple(generate_synthetic(spec))
    assert len(recordings) == N_SHUFFLED
    return recordings


def qda_report_json(recordings) -> str:
    report = crossvalidate(recordings, feature_set("FS2"), ModelSpec(kind="qda"),
                           seed=2)
    return json.dumps(report.to_dict(), sort_keys=True)


@functools.lru_cache(maxsize=None)
def sorted_report_json() -> str:
    return qda_report_json(sorted(shuffle_recordings(),
                                  key=lambda r: (r.subject_id, r.movement, r.trial)))


class TestCrossvalidateProperties:
    @settings(derandomize=True, deadline=None, max_examples=12)
    @given(order=st.permutations(range(N_SHUFFLED)))
    def test_recording_order_does_not_matter(self, order):
        recordings = shuffle_recordings()
        shuffled = [recordings[i] for i in order]
        assert qda_report_json(shuffled) == sorted_report_json()


class TestSweeps:
    def test_window_sweep_emits_one_report_per_size(self):
        recs = quick_dataset(duration_s=1.5)
        reports = sweep(
            recs, [feature_set("FS2")], ModelSpec(kind="qda"),
            "window_ms", (100.0, 250.0, 350.0),
        )
        assert [r.window_ms for r in reports] == [100.0, 250.0, 350.0]

    def test_350ms_window_count_on_5s_trials(self, separable_recordings):
        report = crossvalidate(
            separable_recordings, feature_set("FS2"), ModelSpec(kind="qda"),
            window_ms=350.0,
        )
        assert report.folds[0].confusion.total == 14 * 10  # 14 windows per trial

    def test_longer_windows_stabilize_fold_scores(self):
        # at 350 ms every fold sits at ceiling, so the fold-score spread
        # collapses relative to the noisier 50 ms features
        from emgpr import separable_tilt_matrix

        spec = SyntheticSpec(
            n_subjects=1, n_channels=2, n_movements=10, n_trials=6,
            duration_s=5.0, sample_rate_hz=2000.0,
            class_gain_matrix=separable_gain_grid(10, 2, 1.5),
            class_tilt_matrix=separable_tilt_matrix(10, 2),
            seed=5,
        )
        recs = generate_synthetic(spec)
        reports = sweep(
            recs, [feature_set("FS2")], ModelSpec(kind="knn"), "window_ms", (50.0, 350.0)
        )
        (mean_short, std_short), (mean_long, std_long) = (
            r.summary()["f1"] for r in reports
        )
        assert std_long <= std_short
        assert mean_long >= mean_short

    def test_fold_failure_recorded_not_raised(self):
        # movement L exists only in trial 1: holding trial 1 out leaves no
        # training samples for it, so that fold fails and is recorded
        recs = quick_dataset(n_movements=4, n_trials=2, duration_s=1.0)
        extra = SyntheticSpec(
            n_subjects=1, n_channels=2, n_movements=5, n_trials=1,
            duration_s=1.0, sample_rate_hz=2000.0,
            class_gain_matrix=separable_gain_grid(5, 2, 2.0), seed=4,
        )
        lone = [r for r in generate_synthetic(extra) if r.movement == "L"]
        report = crossvalidate(
            recs + lone, feature_set("FS2"), ModelSpec(kind="qda")
        )
        assert not report.ok
        assert [f.fold_trial for f in report.failures] == [1]
        assert report.failures[0].error == \
            "DegenerateClasses: declared classes with no samples: ['L']"
        assert {f.fold_trial for f in report.folds} == {2}

    def test_subject_lacking_a_movement_fails_every_fold(self, two_subject_recordings):
        # S2 never recorded movement I, which S1 has: every S2 fold fails
        # with the table's missing movement named, every S1 fold is scored
        recs = [r for r in two_subject_recordings
                if (r.subject_id, r.movement) != ("S2", "I")]
        report = crossvalidate(recs, feature_set("FS2"), ModelSpec(kind="qda"))
        assert [(f.subject, f.fold_trial) for f in report.folds] == \
            [("S1", t) for t in (1, 2, 3)]
        assert all(f.confusion.labels[1] == "I" for f in report.folds)
        assert [(f.subject, f.fold_trial, f.error) for f in report.failures] == [
            ("S2", t, "DegenerateClasses: declared classes with no samples: ['I']")
            for t in (1, 2, 3)
        ]

    def test_snr_sweep_grid_and_seeding(self):
        recs = quick_dataset(duration_s=1.0, n_movements=3)
        reports = sweep(
            recs, [feature_set("FS2")], ModelSpec(kind="qda"),
            "snr_db", (0.0, 10.0), seed=7,
        )
        assert [r.snr_db for r in reports] == [0.0, 10.0]
        again = sweep(
            recs, [feature_set("FS2")], ModelSpec(kind="qda"),
            "snr_db", (0.0, 10.0), seed=7,
        )
        assert json.dumps([r.to_dict() for r in reports], sort_keys=True) == \
            json.dumps([r.to_dict() for r in again], sort_keys=True)

    @pytest.mark.parametrize("setting, values", [
        ("window_ms", (100.0, 250.0)),
        ("snr_db", (0.0, 10.0)),
    ])
    def test_sets_share_one_table_per_value(
        self, two_subject_recordings, monkeypatch, setting, values
    ):
        # FS1 reads its AR lags at order 6 and PROPOSED at order 4, so each
        # subject's table is two extract_matrix calls, whatever the set count
        sets = [feature_set("FS1"), feature_set("PROPOSED"), with_lmav_nsv(feature_set("FS2"))]
        model = ModelSpec(kind="qda")
        calls = []

        def counted(spec, windows, thresholds):
            calls.append(spec.features)
            return extract_matrix(spec, windows, thresholds)

        monkeypatch.setattr(evaluate_module, "extract_matrix", counted)
        reports = sweep(two_subject_recordings, sets, model, setting, values, seed=4)
        assert len(calls) == len(values) * 2 * 2  # values x subjects x AR orders
        monkeypatch.undo()

        grid = [(value, spec) for value in values for spec in sets]
        assert [(getattr(r, setting), r.feature_set) for r in reports] == [
            (value, spec.name) for value, spec in grid
        ]
        for report, (value, spec) in zip(reports, grid):
            plain = crossvalidate(two_subject_recordings, spec, model,
                                  seed=4, **{setting: value})
            assert json.dumps(report.to_dict()) == json.dumps(plain.to_dict())

    def test_swept_setting_fixed_as_well_is_rejected(self):
        recs = quick_dataset(n_movements=2, n_trials=2, duration_s=0.5)
        with pytest.raises(TypeError, match="window_ms"):
            sweep(recs, [feature_set("FS2")], ModelSpec(kind="qda"),
                  "window_ms", (100.0,), window_ms=250.0)


@pytest.fixture(scope="module")
def two_subject_recordings():
    return generate_synthetic(SyntheticSpec(
        n_subjects=2, n_channels=2, n_movements=4, n_trials=3, duration_s=1.5,
        sample_rate_hz=2000.0, class_gain_matrix=separable_gain_grid(4, 2, 1.5),
        seed=11,
    ))


REGISTRY_SETS = ("FS1", "FS2", "FS3", "FS4", "PROPOSED")


class TestFeatureTable:
    def test_slice_equals_direct_extraction(self, two_subject_recordings):
        spec = feature_set("PROPOSED")
        table = build_table(two_subject_recordings, [spec.features])
        assert table.subjects == ("S1", "S2")
        for subject in table.subjects:
            recs = [r for r in two_subject_recordings if r.subject_id == subject]
            direct = np.vstack([
                extract_matrix(spec, segment(apply_filters(r), 250.0)) for r in recs
            ])
            sliced = table.matrix(subject, spec.features)
            assert sliced.tobytes() == direct.tobytes()
            assert sliced.shape == direct.shape

    @pytest.mark.parametrize("case", ["unequal_lengths", "overlap", "snr",
                                      "rates_rounding_alike"])
    def test_subject_block_equals_per_recording_extraction(
        self, two_subject_recordings, case
    ):
        # each subject's windows are extracted in one call per AR fit order
        # (6 for FS1, 4 for PROPOSED); the rows equal extracting each
        # recording alone, in recording order
        recs = list(two_subject_recordings)
        settings = {"window_ms": 250.0, "overlap_ms": 0.0, "snr_db": None, "seed": 5}
        if case == "unequal_lengths":
            recs = [r.with_channels(r.channels[:, : 3000 - 173 * (i % 7)])
                    for i, r in enumerate(recs)]
        elif case == "overlap":
            settings["overlap_ms"] = 100.0
        elif case == "snr":
            settings["snr_db"] = 10.0
        elif case == "rates_rounding_alike":
            # 2001 Hz gives the 500-sample windows of 2000 Hz, so both rates
            # share the subject's one window array
            recs = [replace(r, sample_rate_hz=2001.0) if i % 2 else r
                    for i, r in enumerate(recs)]
        sets = [feature_set("FS1"), feature_set("PROPOSED")]  # AR orders 6 and 4
        table = build_table(recs, [s.features for s in sets], **settings)

        def windows(rec):
            if settings["snr_db"] is not None:
                rec = mix_awgn(rec, settings["snr_db"], derive_seed(
                    settings["seed"], "awgn", rec.subject_id, rec.movement,
                    rec.trial, settings["snr_db"]))
            return segment(apply_filters(rec), settings["window_ms"], settings["overlap_ms"])

        read = set()
        for spec in sets:
            read.update(table.positions(spec.features))
            for subject in table.subjects:
                direct = np.concatenate([
                    extract_matrix(spec, windows(r)) for r in recs if r.subject_id == subject
                ])
                assert np.array_equal(table.matrix(subject, spec.features), direct)
        assert read == set(range(len(table.columns)))  # every column checked
        for subject in table.subjects:
            mine = [r for r in recs if r.subject_id == subject]
            counts = [len(windows(r)) for r in mine]
            assert len(table.values[subject]) == sum(counts)
            assert table.labels[subject].tolist() == [
                r.movement for r, c in zip(mine, counts) for _ in range(c)]
            assert table.trials[subject].tolist() == [
                r.trial for r, c in zip(mine, counts) for _ in range(c)]

    @pytest.mark.parametrize("odd, shape", [
        (lambda r: replace(r, sample_rate_hz=4000.0), (2, 1000)),
        (lambda r: r.with_channels(np.vstack([r.channels, r.channels[:1]])), (3, 500)),
    ], ids=["window_length", "channel_count"])
    def test_subject_of_two_window_shapes_is_refused_before_any_work(
        self, two_subject_recordings, monkeypatch, odd, shape
    ):
        # S1/I/trial 2 is the fifth recording of the first subject: the
        # check names it and the first recording, and runs before any
        # recording is mixed or filtered
        calls = []
        for name in ("mix_awgn", "apply_filters"):
            real = getattr(evaluate_module, name)
            monkeypatch.setattr(evaluate_module, name,
                                lambda *a, real=real, **k: calls.append(1) or real(*a, **k))
        recs = list(two_subject_recordings)
        assert (recs[4].subject_id, recs[4].movement, recs[4].trial) == ("S1", "I", 2)
        recs[4] = odd(recs[4])
        with pytest.raises(ValueError) as err:
            build_table(recs, [feature_set("PROPOSED").features], snr_db=10.0)
        assert str(err.value) == (
            f"recording S1/I/trial 2 gives (channels, window samples) {shape}, "
            "but S1/T/trial 1 gives (2, 500)")
        assert calls == []

    @pytest.mark.parametrize("th", [Thresholds(), Thresholds(zc=0.05, ssc=0.01, wamp=0.2)],
                             ids=["default", "other"])
    def test_shared_table_gives_the_per_set_reports(self, two_subject_recordings, th):
        # one table serves every registry set at 10 dB, FS1 reading its AR
        # lags at order 6 and PROPOSED at order 4; the table's thresholds
        # are the ones each report records
        sets = [feature_set(name) for name in REGISTRY_SETS]
        table = build_table(two_subject_recordings, [s.features for s in sets],
                            thresholds=th, snr_db=10.0, seed=4)
        model = ModelSpec(kind="qda")
        for spec in sets:
            shared = crossvalidate(table, spec, model)
            plain = crossvalidate(two_subject_recordings, spec, model,
                                  thresholds=th, snr_db=10.0, seed=4)
            assert shared.to_dict() == plain.to_dict(), spec.name
            assert json.dumps(shared.to_dict()) == json.dumps(plain.to_dict())
            assert shared.config["feature_set"]["thresholds"] == asdict(th)

    def test_columns_serve_each_set_at_its_fit_order(
        self, two_subject_recordings, monkeypatch
    ):
        calls = []

        def counted(spec, windows, thresholds):
            calls.append(spec.features)
            return extract_matrix(spec, windows, thresholds)

        monkeypatch.setattr(evaluate_module, "extract_matrix", counted)
        fs1, proposed = feature_set("FS1"), feature_set("PROPOSED")
        table = build_table(two_subject_recordings, [fs1.features, proposed.features])
        plain = [fid for fid in fs1.features + proposed.features if not fid.startswith("AR")]
        assert sorted(table.columns, key=repr) == sorted(
            [(fid, None) for fid in plain]
            + [(f"AR{lag}", 6) for lag in range(1, 7)]
            + [(f"AR{lag}", 4) for lag in range(1, 5)],
            key=repr,
        )
        # one extraction per AR fit order (6 and 4) and subject, not one per
        # lag or per recording
        assert len(calls) == 2 * len(table.subjects)

    def test_flat_feature_list_rejected(self, amplitude_recordings):
        # one set is [features], not the ids themselves
        with pytest.raises(ValueError, match="feature-id lists"):
            build_table(amplitude_recordings, ("RMS", "WL"))

    @pytest.mark.parametrize("call, message", [
        ({"window_ms": 200.0}, "window_ms"),
        ({"overlap_ms": 50.0}, "overlap_ms"),
        ({"snr_db": 10.0}, "snr_db"),
        ({"snr_db": None}, "snr_db"),
        ({"filter_spec": FilterSpec()}, "filter_spec"),
        ({"seed": 0}, "seed"),
        ({"thresholds": Thresholds(wamp=0.05)}, "thresholds"),
        ({"features": ("RMS", "MAV")}, "no column"),
        # AR1 next to AR2 is read at order 2; the table only has order 1
        ({"features": ("AR1", "AR2")}, "no column"),
    ])
    def test_mismatched_table_rejected(self, amplitude_recordings, call, message):
        # the table brings its own settings, thresholds included, so passing
        # one with it is a TypeError even at the table's own value; the set
        # brings only its columns, and a missing one is a ValueError
        table = build_table(amplitude_recordings, [("RMS", "WL", "AR1")], snr_db=10.0)
        call = {"features": ("RMS", "AR1"), **call}
        spec = feature_set("CUSTOM", call.pop("features"))
        with pytest.raises(TypeError if call else ValueError, match=message):
            crossvalidate(table, spec, ModelSpec(kind="qda"), **call)

    def test_matching_table_accepted(self, amplitude_recordings):
        table = build_table(amplitude_recordings, [("RMS", "WL", "AR1")], snr_db=NO_MIX)
        report = crossvalidate(table, feature_set("CUSTOM", ["RMS", "AR1"]),
                               ModelSpec(kind="qda"))
        assert report.ok and report.snr_db is None


#: CUSTOM sets scored on one table; DEAD reads only WAMP, which DEAD_TH gates
#: to a constant 0, so every fold of it fails with RankZero
SHARED_SETS = (("RMS", "WL"), ("MAV", "ZC", "SKW"), ("LMAV", "NSV", "WL", "WAMP"))
DEAD = ("WAMP",)
DEAD_TH = Thresholds(wamp=1e9)


class TestSharedFolds:
    """A table splits, encodes and scales each fold once; every set slices it
    and gets the report a table of its own columns gives."""

    @staticmethod
    def plain(recordings, features, **settings):
        return crossvalidate(recordings, feature_set("CUSTOM", features),
                             ModelSpec(kind="qda"), **settings).to_dict()

    @pytest.mark.parametrize("order", [
        SHARED_SETS,
        SHARED_SETS[::-1],
        (DEAD, SHARED_SETS[0], DEAD, SHARED_SETS[1], DEAD, SHARED_SETS[2]),
    ], ids=["forward", "reverse", "interleaved_with_failing_set"])
    def test_each_set_gets_its_plain_report(self, two_subject_recordings, order):
        table = build_table(two_subject_recordings, [*SHARED_SETS, DEAD],
                            thresholds=DEAD_TH)
        for features in order:
            shared = crossvalidate(table, feature_set("CUSTOM", features),
                                   ModelSpec(kind="qda")).to_dict()
            assert shared == self.plain(two_subject_recordings, features,
                                        thresholds=DEAD_TH), features
            failures = {f["error"].split(":")[0] for f in shared["failures"]}
            assert failures == ({"RankZero"} if features == DEAD else set())

    def test_fold_lacking_a_movement_fails_for_every_set(self):
        # movement I is recorded in trial 2 only, so fold 2 cannot train on it
        recs = [r for r in quick_dataset() if r.movement != "I" or r.trial == 2]
        table = build_table(recs, [*SHARED_SETS, DEAD], thresholds=DEAD_TH)
        missing = {"subject": "S1", "fold_trial": 2,
                   "error": "DegenerateClasses: declared classes with no samples: ['I']"}
        for features in (*SHARED_SETS, DEAD):
            shared = crossvalidate(table, feature_set("CUSTOM", features),
                                   ModelSpec(kind="qda")).to_dict()
            assert shared == self.plain(recs, features, thresholds=DEAD_TH)
            assert missing in shared["failures"]
            assert [f["fold_trial"] for f in shared["folds"]] == (
                [] if features == DEAD else [1, 3])

    def test_tables_scored_alternately_keep_their_own_folds(self):
        a, b = quick_dataset(seed=9), quick_dataset(seed=10)
        tables = {id(a): build_table(a, SHARED_SETS), id(b): build_table(b, SHARED_SETS)}
        for features in SHARED_SETS:
            for recs in (a, b):
                shared = crossvalidate(tables[id(recs)], feature_set("CUSTOM", features),
                                       ModelSpec(kind="qda")).to_dict()
                assert shared == self.plain(recs, features)
        first, second = (t.folds("S1") for t in tables.values())
        assert not any(np.array_equal(u.scaled, v.scaled) for u, v in zip(first, second))

    def test_each_fold_is_split_once_per_table(self, monkeypatch):
        # the set-independent part runs at the first set only: one class
        # encoding and one min-max fit per fold, however many sets follow
        calls = {"class_codes": 0, "fit": 0}
        encode, scale = evaluate_module.class_codes, evaluate_module.normalize_features

        def counted_codes(y):
            calls["class_codes"] += 1
            return encode(y)

        def counted_scale(rows, fitted=None):
            calls["fit"] += fitted is None
            return scale(rows, fitted)

        monkeypatch.setattr(evaluate_module, "class_codes", counted_codes)
        monkeypatch.setattr(evaluate_module, "normalize_features", counted_scale)
        table = build_table(quick_dataset(), SHARED_SETS)
        for features in SHARED_SETS:
            crossvalidate(table, feature_set("CUSTOM", features), ModelSpec(kind="qda"))
        assert calls == {"class_codes": 3, "fit": 3}
        assert table.folds("S1") is table.folds("S1")
