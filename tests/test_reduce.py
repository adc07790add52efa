import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from emgpr.errors import (
    DegenerateClasses,
    DimensionMismatch,
    RankZero,
    ZeroDispersion,
)
from emgpr.preprocess import normalize_features
from emgpr.reduce import (
    _class_stats,
    class_codes,
    fit_ulda,
    project,
    res_index,
    res_index_general,
    scatter_export,
)


def two_blobs(rng, sep=10.0, sigma=0.1, n=50):
    X = np.vstack([
        rng.normal([0.0, 0.0], sigma, (n, 2)),
        rng.normal([sep, sep], sigma, (n, 2)),
    ])
    y = np.array(["a"] * n + ["b"] * n)
    return X, y


def ten_class_data(rng, n_per=40, d=12):
    means = rng.normal(0.0, 4.0, size=(10, d))
    X = np.vstack([rng.normal(means[k], 1.0, (n_per, d)) for k in range(10)])
    y = np.repeat(np.arange(10), n_per)
    return X, y


class TestFitUlda:
    def test_two_blobs_single_direction_and_separation(self):
        rng = np.random.default_rng(0)
        X, y = two_blobs(rng)
        p = fit_ulda(X, y)
        assert p.d_out == 1
        Z = project(p, X)
        means = [Z[y == c].mean() for c in ("a", "b")]
        within = np.concatenate([Z[y == "a"] - means[0], Z[y == "b"] - means[1]])
        assert abs(means[0] - means[1]) > 50.0 * within.std()

    def test_ten_classes_at_most_nine_dims(self):
        rng = np.random.default_rng(1)
        X, y = ten_class_data(rng)
        p = fit_ulda(X, y)
        assert p.d_out <= 9
        assert p.d_out == 9  # full-rank class means here

    def test_projected_total_scatter_is_identity(self):
        rng = np.random.default_rng(2)
        X, y = ten_class_data(rng)
        Z = project(fit_ulda(X, y), X)
        Zc = Z - Z.mean(axis=0)
        scatter = Zc.T @ Zc / len(Z)
        assert np.allclose(scatter, np.eye(Z.shape[1]), atol=1e-6)
        assert np.allclose(np.var(Z, axis=0), 1.0, atol=1e-6)

    @settings(derandomize=True, deadline=None, max_examples=40)
    @given(seed=st.integers(0, 2**32 - 1), k=st.integers(2, 8),
           d=st.integers(1, 10), per_class=st.integers(2, 40))
    def test_total_scatter_is_identity_on_random_inputs(self, seed, k, d, per_class):
        # full-rank Gaussian rows, unequal class sizes, labels interleaved
        rng = np.random.default_rng(seed)
        sizes = rng.integers(2, per_class + 1, size=k)
        if sizes.sum() <= d:
            sizes[0] += d
        centers = rng.normal(0.0, 3.0, size=(k, d))
        scales = rng.uniform(0.1, 10.0, size=d)
        X = np.vstack([rng.normal(c, 1.0, (n, d)) for c, n in zip(centers, sizes)])
        X = X * scales
        y = np.repeat([f"c{i}" for i in range(k)], sizes)
        order = rng.permutation(len(X))
        X, y = X[order], y[order]
        Z = project(fit_ulda(X, y), X)
        Zc = Z - Z.mean(axis=0)
        scatter = Zc.T @ Zc / len(Z)
        assert np.allclose(scatter, np.eye(Z.shape[1]), rtol=0.0, atol=1e-8)

    def test_duplicated_column_tolerated(self):
        rng = np.random.default_rng(3)
        X, y = two_blobs(rng)
        Xdup = np.hstack([X, X[:, :1]])
        assert fit_ulda(Xdup, y).d_out == fit_ulda(X, y).d_out

    def test_projection_reproduces_class_means(self):
        rng = np.random.default_rng(4)
        X, y = two_blobs(rng)
        p = fit_ulda(X, y)
        mean_rows = np.vstack([X[y == c].mean(axis=0) for c in ("a", "b")])
        Z = project(p, X)
        expect = np.vstack([Z[y == c].mean(axis=0) for c in ("a", "b")])
        assert np.allclose(project(p, mean_rows), expect, atol=1e-9)

    def test_deterministic_sign_convention(self):
        rng = np.random.default_rng(5)
        X, y = ten_class_data(rng)
        p1, p2 = fit_ulda(X, y), fit_ulda(X, y)
        assert np.array_equal(p1.matrix, p2.matrix)
        for col in p1.matrix.T:
            assert col[np.argmax(np.abs(col))] > 0

    def test_degenerate_classes(self):
        with pytest.raises(DegenerateClasses):
            fit_ulda(np.ones((4, 2)), ["a", "a", "a", "a"])
        # class b has one sample; the message names the label, not its numpy type
        with pytest.raises(DegenerateClasses, match="^class 'b' has fewer than two samples$"):
            fit_ulda(np.eye(3), ["a", "a", "b"])

    @pytest.mark.parametrize("n_rows, n_labels", [(10, 8), (8, 10)])
    def test_labels_must_match_rows(self, n_rows, n_labels):
        # fewer labels than rows once fitted on the rows they missed, and
        # more ended in an IndexError; codes count one label per row too
        X = np.random.default_rng(7).standard_normal((n_rows, 4))
        y = np.arange(n_labels) % 4
        for labels in (y, class_codes(y)):
            with pytest.raises(ValueError, match=f"^{n_rows} rows but {n_labels} labels$"):
                fit_ulda(X, labels)

    def test_rank_zero(self):
        with pytest.raises(RankZero):
            fit_ulda(np.ones((6, 3)), ["a", "a", "a", "b", "b", "b"])

    def test_dimension_mismatch(self):
        rng = np.random.default_rng(6)
        X, y = two_blobs(rng)
        p = fit_ulda(X, y)
        with pytest.raises(DimensionMismatch):
            project(p, np.ones((3, 5)))


class TestClassCodes:
    def test_codes_pass_through_and_count_rows(self):
        y = ["b", "a", "b", "c", "a"]
        encoded = class_codes(y)
        assert class_codes(encoded) is encoded
        assert len(encoded) == 5
        assert encoded.classes.tolist() == ["a", "b", "c"]
        assert encoded.codes.tolist() == [1, 0, 1, 2, 0]


class TestResIndex:
    def _cloud(self, mean, spread):
        # three points per class: per-feature mean is `mean`, std (ddof=1) `spread`
        m = np.asarray(mean, dtype=float)
        return np.stack([m - spread, m, m + spread])

    def test_two_class_hand_case(self):
        pts = np.vstack([self._cloud((0, 0), 1.0), self._cloud((3, 4), 1.0)])
        y = np.repeat(["p", "q"], 3)
        assert res_index(pts, y) == pytest.approx(5.0, abs=1e-9)

    def test_three_class_hand_case(self):
        pts = np.vstack([
            self._cloud((0, 0), 0.5),
            self._cloud((1, 0), 0.5),
            self._cloud((0, 1), 0.5),
        ])
        y = np.repeat(["a", "b", "c"], 3)
        expect = ((2.0 + math.sqrt(2.0)) / 3.0) / 0.5
        assert res_index(pts, y) == pytest.approx(expect, abs=1e-9)
        assert res_index(pts, y) == pytest.approx(2.27614, abs=1e-5)

    def test_identical_means_give_zero(self):
        pts = np.vstack([self._cloud((1, 1), 0.5), self._cloud((1, 1), 0.25)])
        y = np.repeat(["a", "b"], 3)
        assert res_index(pts, y) == pytest.approx(0.0, abs=1e-12)

    def test_translation_invariance(self):
        rng = np.random.default_rng(8)
        pts = rng.normal(0, 1, (30, 2))
        y = np.repeat(np.arange(3), 10)
        shifted = pts + np.array([123.4, -56.7])
        assert res_index(shifted, y) == pytest.approx(res_index(pts, y), rel=1e-9)

    def test_rotation_preserves_mean_distances(self):
        rng = np.random.default_rng(9)
        pts = rng.normal(0, 1, (30, 2))
        y = np.repeat(np.arange(3), 10)
        theta = 0.7
        rot = np.array([[math.cos(theta), -math.sin(theta)],
                        [math.sin(theta), math.cos(theta)]])
        # mean pairwise centroid distance is rotation-invariant
        def ed_bar(p):
            means = np.stack([p[y == c].mean(axis=0) for c in range(3)])
            dists = [np.linalg.norm(means[a] - means[b])
                     for a in range(3) for b in range(a + 1, 3)]
            return 2.0 / (3 * 2) * sum(dists)

        assert ed_bar(pts @ rot.T) == pytest.approx(ed_bar(pts), rel=1e-12)

    def test_scaling_means_away_increases_res(self):
        rng = np.random.default_rng(10)
        base = rng.normal(0, 1, (3, 2)) * 2.0
        spread = 0.4
        y = np.repeat(["a", "b", "c"], 3)

        def build(scale):
            centroid = base.mean(axis=0)
            moved = centroid + scale * (base - centroid)
            return np.vstack([self._cloud(m, spread) for m in moved])

        assert res_index(build(1.7), y) > res_index(build(1.0), y)

    def test_requires_two_columns(self):
        with pytest.raises(ValueError):
            res_index(np.ones((6, 3)), ["a"] * 3 + ["b"] * 3)
        # the general variant takes any dimension count
        pts = np.vstack([np.eye(3), np.eye(3) + 5.0])
        val = res_index_general(pts, ["a"] * 3 + ["b"] * 3)
        assert val > 0

    def test_class_stats_equal_per_class_masks(self):
        rng = np.random.default_rng(12)
        for _ in range(20):
            n, d, k = rng.integers(2, 60), rng.integers(1, 4), rng.integers(1, 6)
            pts = rng.normal(0, rng.uniform(0.1, 50), (n, d))
            y = np.array([f"c{j}" for j in range(k)])[rng.integers(0, k, n)]
            classes, means, stds = _class_stats(pts, y)
            assert list(classes) == sorted(set(y))
            for c, mean, std in zip(classes, means, stds):
                rows = pts[y == c]
                assert np.array_equal(mean, rows.mean(axis=0))
                expect = rows.std(axis=0, ddof=1) if len(rows) > 1 else np.zeros(d)
                assert np.array_equal(std, expect)

    def test_label_count_must_match_rows(self):
        with pytest.raises(ValueError):
            res_index(np.ones((6, 2)), ["a"] * 3 + ["b"] * 2)

    def test_zero_dispersion(self):
        pts = np.array([[0.0, 0.0], [0.0, 0.0], [1.0, 1.0], [1.0, 1.0]])
        with pytest.raises(ZeroDispersion):
            res_index(pts, ["a", "a", "b", "b"])


class TestScatterExport:
    def test_rows_and_normalization(self, tmp_path):
        rng = np.random.default_rng(11)
        pts = rng.normal(0, 5, (300, 2))
        y = np.repeat([f"m{i}" for i in range(10)], 30)
        path = tmp_path / "scatter.csv"
        scatter_export(pts, y, path)
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "label,f1,f2"
        assert len(lines) == 301
        data = np.array([[float(v) for v in line.split(",")[1:]] for line in lines[1:]])
        assert np.allclose(data.min(axis=0), [0.0, 0.0], atol=1e-12)
        assert np.allclose(data.max(axis=0), [1.0, 1.0], atol=1e-12)

    def test_rows_are_the_fitted_min_max_scaling(self, tmp_path):
        # the second column is constant, so it reads 0.0 in every row
        rng = np.random.default_rng(12)
        pts = np.column_stack([rng.normal(0, 3, 40), np.full(40, 2.5)])
        y = np.repeat(["a", "b"], 20)
        path = tmp_path / "scatter.csv"
        scatter_export(pts, y, path)
        rows = [line.split(",") for line in path.read_text().splitlines()[1:]]
        assert [r[0] for r in rows] == list(y)
        norm, _ = normalize_features(pts)
        assert np.array_equal([[float(v) for v in r[1:]] for r in rows], norm)
        assert {r[2] for r in rows} == {"0.0"}

    def test_empty_input_header_only(self, tmp_path):
        path = tmp_path / "scatter.csv"
        scatter_export(np.empty((0, 2)), [], path)
        assert path.read_text() == "label,f1,f2\n"


class TestTwoColumnContract:
    """res_index and scatter_export take one label per row of a matrix of
    exactly two columns, and name the shape they got otherwise; scatter
    writes no file then."""

    @staticmethod
    def call(name, pts, y, tmp_path):
        if name == "res_index":
            return res_index(pts, y)
        return scatter_export(pts, y, tmp_path / "scatter.csv")

    @pytest.mark.parametrize("name", ["res_index", "scatter_export"])
    @pytest.mark.parametrize("shape", [(16, 1), (6, 3), (12,), (2, 2, 2)])
    def test_other_widths_are_refused(self, name, shape, tmp_path):
        # a (16, 1) projection was once read as 8 rows of two
        pts = np.arange(float(np.prod(shape))).reshape(shape)
        y = np.repeat(["a", "b"], len(pts) // 2)
        with pytest.raises(ValueError, match=rf"^expected exactly two feature columns, "
                                             rf"got shape {re.escape(str(shape))}$"):
            self.call(name, pts, y, tmp_path)
        assert not (tmp_path / "scatter.csv").exists()

    @pytest.mark.parametrize("name", ["res_index", "scatter_export"])
    @pytest.mark.parametrize("labels", [5, 7])
    def test_one_label_per_row(self, name, labels, tmp_path):
        pts = np.random.default_rng(3).normal(size=(6, 2))
        y = ["a", "b"] * 3 + ["c"]
        with pytest.raises(ValueError, match=f"^6 rows but {labels} labels$"):
            self.call(name, pts, y[:labels], tmp_path)
        assert not (tmp_path / "scatter.csv").exists()
