import numpy as np
import pytest

from emgpr.classify import ModelSpec, SvmModel, predict, rbf_kernel, train
from emgpr.errors import DegenerateClasses, DimensionMismatch, SingularCovariance
from emgpr.evaluate import build_table, fit_pipeline
from emgpr.features import feature_set
from emgpr.preprocess import normalize_features
from emgpr.reduce import project

from reference_knn import ref_predict_knn
from reference_qda import ref_decision_values, ref_train_qda
from reference_svm import ref_predict_svm, ref_train_svm


def blobs(rng, centers, sigma=0.2, n=60):
    X = np.vstack([rng.normal(c, sigma, (n, len(c))) for c in centers])
    y = np.repeat([f"c{i}" for i in range(len(centers))], n)
    return X, y


CENTERS3 = [(0.0, 0.0), (4.0, 0.0), (0.0, 4.0)]


class TestTrainPredict:
    @pytest.mark.parametrize("kind", ["qda", "svm", "knn"])
    def test_separable_blobs_perfect_holdout(self, kind):
        rng = np.random.default_rng(1)
        X, y = blobs(rng, CENTERS3)
        Xt, yt = blobs(rng, CENTERS3, n=25)
        model = train(ModelSpec(kind=kind), X, y)
        assert np.mean(predict(model, Xt) == yt) == 1.0

    @pytest.mark.parametrize("kind", ["qda", "svm", "knn"])
    def test_single_vector_prediction(self, kind):
        rng = np.random.default_rng(2)
        X, y = blobs(rng, CENTERS3)
        model = train(ModelSpec(kind=kind), X, y)
        query = np.array([4.0, 0.1])
        label = predict(model, query)
        assert np.ndim(label) == 0
        assert label == predict(model, query[None, :])[0] == "c1"

    @pytest.mark.parametrize("kind", ["qda", "svm", "knn"])
    def test_dimension_mismatch(self, kind):
        rng = np.random.default_rng(3)
        X, y = blobs(rng, CENTERS3)
        model = train(ModelSpec(kind=kind), X, y)
        with pytest.raises(DimensionMismatch):
            predict(model, np.ones((2, 5)))

    @pytest.mark.parametrize("kind", ["qda", "svm", "knn"])
    def test_classes_are_the_sorted_labels(self, kind):
        rng = np.random.default_rng(4)
        X = np.vstack([rng.normal(c, 0.2, (5, 2)) for c in CENTERS3])
        y = np.repeat(["z", "x", "y"], 5)
        model = train(ModelSpec(kind=kind), X, y)
        assert np.array_equal(model.classes, np.unique(y))
        assert list(predict(model, np.array(CENTERS3))) == ["z", "x", "y"]

    def test_single_class_rejected(self):
        with pytest.raises(DegenerateClasses):
            train(ModelSpec(kind="knn"), np.ones((5, 2)), ["a"] * 5)

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            ModelSpec(kind="tree")
        with pytest.raises(ValueError, match="kind 3"):
            ModelSpec(kind=3)
        with pytest.raises(ValueError):
            ModelSpec(knn_k=4)
        with pytest.raises(ValueError):
            ModelSpec(qda_shrinkage=1.5)
        with pytest.raises(ValueError):
            ModelSpec(svm_sigma=0.0)
        assert ModelSpec(kind="SVM_RBF").kind == "svm"

    @pytest.mark.parametrize("setting, value", [
        ("qda_shrinkage", -0.1), ("qda_shrinkage", float("nan")), ("qda_shrinkage", "0"),
        ("svm_sigma", float("nan")), ("svm_sigma", float("inf")), ("svm_sigma", "1"),
        ("svm_c", float("nan")), ("svm_c", float("inf")), ("svm_c", -1.0), ("svm_c", True),
        ("knn_k", 3.0), ("knn_k", True), ("knn_k", -1), ("knn_k", 0), ("knn_k", "3"),
    ])
    def test_bad_number_named(self, setting, value):
        with pytest.raises(ValueError, match=setting):
            ModelSpec(**{setting: value})

    def test_integer_like_settings_accepted(self):
        spec = ModelSpec(qda_shrinkage=1, svm_sigma=np.float64(0.5), knn_k=np.int64(5))
        assert (spec.qda_shrinkage, spec.svm_sigma, spec.knn_k) == (1, 0.5, 5)

    def test_one_row_class_rejected_before_qda_division(self):
        # each class scatter is divided by its row count - 1
        X = np.random.default_rng(3).standard_normal((7, 2))
        with pytest.raises(DegenerateClasses, match="^class 'c' has fewer than two samples$"):
            train(ModelSpec(kind="qda"), X, list("aaaabbc"))


class TestQda:
    def test_query_at_class_mean(self):
        rng = np.random.default_rng(5)
        X, y = blobs(rng, CENTERS3, sigma=0.5)
        model = train(ModelSpec(kind="qda"), X, y)
        for i, center in enumerate(CENTERS3):
            mean = X[y == f"c{i}"].mean(axis=0)
            assert predict(model, mean) == f"c{i}"

    def test_shift_invariant_decision_values(self):
        rng = np.random.default_rng(6)
        X, y = blobs(rng, CENTERS3)
        Xt, _ = blobs(rng, CENTERS3, n=10)
        shift = np.array([37.5, -12.25])
        m0 = train(ModelSpec(kind="qda"), X, y)
        m1 = train(ModelSpec(kind="qda"), X + shift, y)
        d0 = m0.decision_values(Xt)
        d1 = m1.decision_values(Xt + shift)
        gaps0 = d0 - d0[:, :1]
        gaps1 = d1 - d1[:, :1]
        assert np.allclose(gaps0, gaps1, atol=1e-9)

    def test_singular_covariance_without_shrinkage(self):
        # duplicated feature column makes the class covariance singular
        rng = np.random.default_rng(7)
        base = rng.normal(0, 1, (30, 1))
        X = np.hstack([base, base])
        y = np.repeat(["a", "b"], 15)
        with pytest.raises(SingularCovariance):
            train(ModelSpec(kind="qda", qda_shrinkage=0.0), X, y)
        train(ModelSpec(kind="qda", qda_shrinkage=1e-3), X, y)  # shrinkage saves it

        # the error names the first singular class in sorted order, also
        # when the batched factorization fails on a later class: b and c
        # each have one constant column, a has full rank
        zeros = np.zeros((15, 1))
        X = np.vstack([rng.normal(0, 1, (15, 2)), np.hstack([base[:15], zeros]),
                       np.hstack([zeros, base[15:]])])
        y = np.repeat(["a", "b", "c"], 15)
        spec = ModelSpec(kind="qda", qda_shrinkage=0.0)
        with pytest.raises(SingularCovariance, match=r"class 'b'"):
            train(spec, X, y)


def assert_qda_like_reference(model, X, y, spec, queries):
    """Means, Cholesky factors and log-determinants equal the per-class
    reference bit for bit; decision values agree to 1e-12 relative, with
    the same labels."""
    priors, means, chols, logdets = ref_train_qda(X, y, model.classes,
                                                  spec.qda_shrinkage)
    assert np.array_equal(model.priors, priors)
    assert np.array_equal(model.means, means)
    assert np.array_equal(model.chols, np.stack(chols))
    assert np.array_equal(model.logdets, np.asarray(logdets))
    expected = ref_decision_values(priors, means, chols, logdets, queries)
    got = model.decision_values(queries)
    np.testing.assert_allclose(got, expected, rtol=1e-12, atol=0.0)
    labels = model.classes[np.argmax(expected, axis=1)]
    predicted = model.predict(queries)
    assert np.array_equal(np.atleast_1d(predicted), labels)


class TestQdaMatchesReference:
    def test_random_blobs(self):
        rng = np.random.default_rng(40)
        centers = [rng.normal(0.0, 2.0, 4) for _ in range(6)]
        X, y = blobs(rng, centers, sigma=0.7, n=50)
        order = rng.permutation(len(X))  # classes interleaved in row order
        X, y = X[order], y[order]
        spec = ModelSpec(kind="qda")
        model = train(spec, X, y)
        assert_qda_like_reference(model, X, y, spec, rng.normal(0.0, 3.0, (300, 4)))

    def test_unequal_class_sizes(self):
        rng = np.random.default_rng(41)
        sizes = [40, 5, 120, 9, 25]  # every class has full-rank scatter in d = 3
        X = np.vstack([rng.normal(i, 0.5 + 0.2 * i, (n, 3)) for i, n in enumerate(sizes)])
        y = np.repeat(["a", "b", "c", "d", "e"], sizes)
        order = rng.permutation(len(X))
        X, y = X[order], y[order]
        for shrinkage in (0.0, 1e-3, 0.5):
            spec = ModelSpec(kind="qda", qda_shrinkage=shrinkage)
            model = train(spec, X, y)
            assert_qda_like_reference(model, X, y, spec, rng.normal(2.0, 2.0, (200, 3)))

    def test_one_dimensional_query(self):
        rng = np.random.default_rng(43)
        X, y = blobs(rng, CENTERS3, sigma=0.5)
        spec = ModelSpec(kind="qda")
        model = train(spec, X, y)
        query = np.array([1.0, 2.5])
        assert np.ndim(model.predict(query)) == 0
        assert model.decision_values(query).shape == (1, 3)
        assert_qda_like_reference(model, X, y, spec, query)

    @pytest.mark.parametrize("set_name", ["FS2", "PROPOSED"])
    def test_every_fold_of_the_sanity_data(self, separable_recordings, set_name):
        fs = feature_set(set_name)
        table = build_table(separable_recordings, [fs.features])
        spec = ModelSpec(kind="qda")
        for subject in table.subjects:
            X = table.matrix(subject, fs.features)
            y = table.labels[subject]
            trials = table.trials[subject]
            for held_out in sorted(set(trials.tolist())):
                train_rows = trials != held_out
                pipeline = fit_pipeline(X[train_rows], y[train_rows], spec)
                reduced = project(pipeline.projection,
                                  normalize_features(X[train_rows])[0])
                test = project(pipeline.projection,
                               normalize_features(X[~train_rows], pipeline.bounds)[0])
                assert_qda_like_reference(pipeline.model, reduced, y[train_rows],
                                          spec, test)


class TestSvm:
    def test_xor_pattern(self):
        rng = np.random.default_rng(9)
        quadrants = [(0, 0), (3, 3), (0, 3), (3, 0)]
        X = np.vstack([rng.normal(q, 0.3, (80, 2)) for q in quadrants])
        y = np.array(["p"] * 160 + ["q"] * 160)
        Xt = np.vstack([rng.normal(q, 0.3, (20, 2)) for q in quadrants])
        yt = np.array(["p"] * 40 + ["q"] * 40)
        model = train(ModelSpec(kind="svm"), X, y)
        assert model.converged
        assert np.mean(predict(model, Xt) == yt) >= 0.95

    def test_training_points_classified_consistently(self):
        rng = np.random.default_rng(10)
        X, y = blobs(rng, [(0.0, 0.0), (5.0, 5.0)], sigma=0.3)
        model = train(ModelSpec(kind="svm"), X, y)
        assert np.mean(predict(model, X) == y) == 1.0

    def test_kkt_conditions_within_tol(self):
        from emgpr.classify import _smo

        rng = np.random.default_rng(11)
        X = np.vstack([rng.normal([0, 0], 0.4, (80, 2)),
                       rng.normal([2.5, 0], 0.4, (80, 2))])
        y = np.where(np.arange(160) < 80, 1.0, -1.0)
        K = rbf_kernel(X, X, 1.0)
        tol, c = 1e-3, 1.0
        [(alpha, b, converged)] = _smo(K, [np.arange(160)], [y], c, tol, max_passes=10)
        assert converged
        f = (alpha * y) @ K + b
        margin = y * f
        slack = 1e-9
        assert np.all(margin[alpha < c - slack] >= 1.0 - tol - slack)
        assert np.all(margin[alpha > slack] <= 1.0 + tol + slack)
        assert np.all(alpha >= 0.0) and np.all(alpha <= c)

    def test_deterministic_training(self):
        rng = np.random.default_rng(12)
        X, y = blobs(rng, CENTERS3)
        m1 = train(ModelSpec(kind="svm"), X, y)
        m2 = train(ModelSpec(kind="svm"), X, y)
        for key in m1.machines:
            sv1, coef1, b1 = m1.machines[key]
            sv2, coef2, b2 = m2.machines[key]
            assert np.array_equal(sv1, sv2)
            assert np.array_equal(coef1, coef2)
            assert b1 == b2

    def test_dual_coefficients_within_box(self):
        rng = np.random.default_rng(13)
        X, y = blobs(rng, CENTERS3, sigma=0.8)
        spec = ModelSpec(kind="svm", svm_c=0.7)
        model = train(spec, X, y)
        for sv, coef, b in model.machines.values():
            assert np.all(np.abs(coef) <= 0.7 + 1e-12)


def assert_trains_like_reference(model, X, y, spec):
    """machines (support vectors, coefficients, bias) and converged equal
    the per-pair scalar trainer's, bit for bit."""
    machines, converged = ref_train_svm(X, y, model.classes, spec.svm_sigma, spec.svm_c)
    assert model.converged == converged
    assert list(model.machines) == list(machines)
    for pair, (sv, coef, b) in machines.items():
        got_sv, got_coef, got_b = model.machines[pair]
        assert np.array_equal(got_sv, sv), pair
        assert np.array_equal(got_coef, coef), pair
        assert got_b == b, pair


class TestSvmMatchesReference:
    def test_two_classes_one_machine(self):
        rng = np.random.default_rng(20)
        X, y = blobs(rng, [(0.0, 0.0), (1.0, 0.5)], sigma=0.6, n=40)
        spec = ModelSpec(kind="svm")
        model = train(spec, X, y)
        assert list(model.machines) == [(0, 1)]
        assert_trains_like_reference(model, X, y, spec)

    def test_unequal_class_sizes(self):
        # pairs of 35 to 100 points share one padded state
        rng = np.random.default_rng(21)
        sizes = [40, 25, 60, 10]
        centers = [(0.0, 0.0), (1.5, 0.0), (0.0, 1.5), (1.5, 1.5)]
        X = np.vstack([rng.normal(c, 0.6, (n, 2)) for c, n in zip(centers, sizes)])
        y = np.repeat(["a", "b", "c", "d"], sizes)
        spec = ModelSpec(kind="svm", svm_sigma=0.7)
        model = train(spec, X, y)
        assert model.converged
        assert_trains_like_reference(model, X, y, spec)

    def test_pair_at_the_iteration_cap(self):
        # a and b overlap and stop at the cap; the pairs with c converge
        rng = np.random.default_rng(1)
        X = np.vstack([rng.normal(0.0, 1.0, (30, 2)), rng.normal(0.2, 1.0, (25, 2)),
                       rng.normal(6.0, 0.3, (12, 2))])
        y = np.repeat(["a", "b", "c"], [30, 25, 12])
        spec = ModelSpec(kind="svm", svm_sigma=0.3, svm_c=100.0)
        model = train(spec, X, y)
        assert not model.converged
        assert_trains_like_reference(model, X, y, spec)

    @pytest.mark.parametrize("set_name", ["FS2", "PROPOSED"])
    def test_every_fold_of_the_sanity_data(self, separable_recordings, set_name):
        fs = feature_set(set_name)
        table = build_table(separable_recordings, [fs.features])
        spec = ModelSpec(kind="svm")
        for subject in table.subjects:
            X = table.matrix(subject, fs.features)
            y = table.labels[subject]
            trials = table.trials[subject]
            for held_out in sorted(set(trials.tolist())):
                train_rows = trials != held_out
                pipeline = fit_pipeline(X[train_rows], y[train_rows], spec)
                reduced = project(pipeline.projection,
                                  normalize_features(X[train_rows])[0])
                assert_trains_like_reference(pipeline.model, reduced, y[train_rows], spec)
                model = pipeline.model
                test = project(pipeline.projection,
                               normalize_features(X[~train_rows], pipeline.bounds)[0])
                assert np.array_equal(
                    model.predict(test),
                    ref_predict_svm(model.machines, model.classes, model.sigma, test))


def hand_model(names, biases):
    """A model over the classes in `names` whose decision values are its
    biases: every machine has one support vector with a zero coefficient."""
    classes = np.array(list(names))
    pairs = [(i, j) for i in range(len(names)) for j in range(i + 1, len(names))]
    machines = {pair: (np.zeros((1, 2)), np.zeros(1), b) for pair, b in zip(pairs, biases)}
    return SvmModel(classes, 1.0, machines, True, 2)


class TestSvmUnionPredict:
    @pytest.mark.parametrize("data", ["random", "blobs"])
    def test_labels_equal_per_machine_predict(self, data):
        rng = np.random.default_rng(30)
        if data == "random":
            X = rng.uniform(0.0, 1.0, (150, 3))
            y = rng.choice(["p", "q", "r", "s", "t"], 150)
            queries = rng.uniform(-0.2, 1.2, (400, 3))
        else:
            X, y = blobs(rng, CENTERS3, sigma=0.8)
            queries = rng.uniform(-2.0, 6.0, (400, 2))
        model = train(ModelSpec(kind="svm", svm_sigma=0.3), X, y)
        expected = ref_predict_svm(model.machines, model.classes, model.sigma, queries)
        assert np.array_equal(model.predict(queries), expected)

    def test_three_way_vote_tie(self):
        # a beats b, c beats a, b beats c: one vote each
        model = hand_model("abc", [0.5, -0.2, 0.1])  # sums a 0.3, b -0.4, c 0.1
        assert model.predict(np.zeros(2)) == "a"
        model = hand_model("abc", [0.1, -0.5, 0.1])  # sums a -0.4, b 0.0, c 0.4
        assert model.predict(np.zeros(2)) == "c"

    def test_tie_only_among_leaders(self):
        # votes a 2, b 2, c 1, d 1; d has the largest sum but is no leader
        biases = [0.1, -0.1, 0.1, 0.1, 0.2, -5.0]  # ab ac ad bc bd cd
        model = hand_model("abcd", biases)
        rows = np.zeros((3, 2))
        assert list(model.predict(rows)) == ["b"] * 3
        assert list(ref_predict_svm(model.machines, model.classes, 1.0, rows)) == ["b"] * 3

    def test_one_vector_one_label(self):
        model = hand_model("abc", [0.5, -0.2, 0.1])
        label = model.predict(np.array([0.3, -0.1]))
        assert np.ndim(label) == 0
        assert label == model.predict(np.array([[0.3, -0.1]]))[0] == "a"
        assert model.decision_values(np.array([0.3, -0.1])).shape == (1, 3)


class TestKnn:
    def test_hand_case_cityblock(self):
        X = np.array([[0.0, 0.0], [0.0, 0.1], [5.0, 5.0]])
        y = np.array(["A", "A", "B"])
        model = train(ModelSpec(kind="knn"), X, y)
        assert predict(model, np.array([0.2, 0.0])) == "A"

    def test_row_order_invariance(self):
        rng = np.random.default_rng(14)
        X, y = blobs(rng, CENTERS3)
        Xt, _ = blobs(rng, CENTERS3, n=30)
        model = train(ModelSpec(kind="knn"), X, y)
        order = rng.permutation(len(X))
        shuffled = train(ModelSpec(kind="knn"), X[order], y[order])
        assert np.array_equal(predict(model, Xt), predict(shuffled, Xt))

    def test_vote_tie_falls_back_to_nearest(self):
        X = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
        y = np.array(["a", "b", "c"])
        model = train(ModelSpec(kind="knn"), X, y)
        assert predict(model, np.array([0.4, 0.0])) == "a"

    @pytest.mark.parametrize("k", [1, 3, 5])
    def test_matches_reference(self, k):
        # integer features on a 4 x 4 grid: distance ties at the k-th
        # neighbor and vote ties both occur
        rng = np.random.default_rng(15)
        X = rng.integers(0, 4, (40, 2)).astype(float)
        y = np.array(["d", "b", "a", "c"])[rng.integers(0, 4, 40)]
        queries = rng.integers(0, 4, (120, 2)).astype(float)
        expected, tied = ref_predict_knn(X, y, k, queries)
        if k > 1:
            assert tied.any()
        model = train(ModelSpec(kind="knn", knn_k=k), X, y)
        assert np.array_equal(predict(model, queries), expected)
