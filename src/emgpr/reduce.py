"""Uncorrelated LDA projection, RES separability index, scatter export.

The projection is built by two SVD stages: whiten the total scatter, then
diagonalize the between-class scatter in the whitened space.  Projected
training features come out mutually uncorrelated with unit variance, and the
output dimension is at most n_classes - 1.  The labels are encoded in sorted
order and grouped by class with one stable sort (`class_codes`), and the
class means come from one pass over that grouping (`group_rows`).  `fit_ulda`
and classifier training take either the labels or their `class_codes` as y,
so a cross-validation fold that encodes its training labels once sorts them
once for both fits.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DegenerateClasses, DimensionMismatch, RankZero, ZeroDispersion
from .preprocess import normalize_features

RANK_TOL = 1e-10


@dataclass(frozen=True, eq=False)
class ClassCodes:
    """Labels encoded in sorted order and grouped by class once.

    `classes` are the sorted labels (at least two from `class_codes`) and
    `codes` each row's index into them.  `order` is the stable argsort of
    `codes`, `counts` the rows of each class and `bounds` the k + 1 offsets
    into `order`: class i is rows order[bounds[i]:bounds[i + 1]], in row
    order.  Its length is the number of codes, one per row.
    """

    classes: np.ndarray
    codes: np.ndarray
    order: np.ndarray
    counts: np.ndarray
    bounds: list

    def __len__(self) -> int:
        return len(self.codes)


def class_codes(y) -> ClassCodes:
    """Encode and group labels y; DegenerateClasses when they hold fewer than
    two classes.  A ClassCodes is returned as it is."""
    if isinstance(y, ClassCodes):
        return y
    classes, codes = np.unique(y, return_inverse=True)
    if len(classes) < 2:
        raise DegenerateClasses("need at least two classes")
    return _grouped(classes, codes)


def _grouped(classes: np.ndarray, codes: np.ndarray) -> ClassCodes:
    """The ClassCodes of an encoding, grouped with one stable sort."""
    counts = np.bincount(codes, minlength=len(classes))
    return ClassCodes(classes=classes, codes=codes,
                      order=np.argsort(codes, kind="stable"), counts=counts,
                      bounds=[0] + np.cumsum(counts).tolist())


def group_rows(X: np.ndarray, encoded: ClassCodes):
    """Rows of X grouped by class, as `encoded` (`class_codes` of their
    labels) orders them.

    Returns (rows, means): class i is rows[bounds[i]:bounds[i + 1]] of
    `encoded.bounds`, which holds the rows of X[codes == i] in the same
    order, and means[i] is that slice's mean, equal to
    X[codes == i].mean(axis=0) bit for bit.
    """
    rows, bounds = X[encoded.order], encoded.bounds
    # add.reduce of each slice is the sum ndarray.mean takes, in its order
    sums = np.array([np.add.reduce(rows[a:b], axis=0)
                     for a, b in zip(bounds[:-1], bounds[1:])])
    return rows, sums / encoded.counts[:, None]


def check_class_sizes(classes: np.ndarray, counts: np.ndarray) -> None:
    """DegenerateClasses naming the first class with fewer than two rows."""
    if counts.min() < 2:
        small = classes.tolist()[counts.argmin()]
        raise DegenerateClasses(f"class {small!r} has fewer than two samples")


@dataclass(frozen=True)
class UldaProjection:
    mean: np.ndarray  # (d_in,)
    matrix: np.ndarray  # (d_in, d_out)
    d_out: int


def fit_ulda(X: np.ndarray, y) -> UldaProjection:
    """Fit the two-stage SVD reduction on a labeled feature matrix.

    y is one label per row of X, or their `class_codes`; the class means are
    read off that grouping.  ValueError when X is not 2-D or y does not give
    one label per row.  Deterministic up to column sign; signs are fixed by
    making the largest-magnitude entry of every column positive.
    """
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[1] < 1:
        raise ValueError("X must be (n_samples, d_in)")
    encoded = class_codes(y)
    if len(encoded) != len(X):
        raise ValueError(f"{len(X)} rows but {len(encoded)} labels")
    classes, counts = encoded.classes, encoded.counts
    check_class_sizes(classes, counts)

    n = X.shape[0]
    mean = np.add.reduce(X, 0) / n  # what X.mean(axis=0) computes
    Xc = X - mean

    # whiten the total scatter St = Xc'Xc / n
    _, svals, Vt = np.linalg.svd(Xc / math.sqrt(n), full_matrices=False)
    keep = svals > RANK_TOL * svals[0] if svals[0] > 0 else np.zeros_like(svals, bool)
    if not keep.any():
        raise RankZero("all features are constant")
    whiten = Vt[keep].T / svals[keep]  # (d_in, r)

    # between-class scatter factor: columns sqrt(n_k/n) * (mu_k - mu), in
    # sorted-label order
    _, means = group_rows(X, encoded)
    Hb = np.ascontiguousarray((np.sqrt(counts / n)[:, None] * (means - mean)).T)
    P, sb, _ = np.linalg.svd(whiten.T @ Hb, full_matrices=False)
    keep_b = sb > RANK_TOL * sb[0] if sb[0] > 0 else np.zeros_like(sb, bool)
    d_out = min(int(keep_b.sum()), len(classes) - 1)
    if d_out == 0:
        raise DegenerateClasses("class means coincide; nothing to discriminate")

    matrix = whiten @ P[:, :d_out]
    largest = matrix[np.argmax(np.abs(matrix), axis=0), np.arange(d_out)]
    np.negative(matrix, out=matrix, where=largest < 0)
    return UldaProjection(mean=mean, matrix=matrix, d_out=d_out)


def project(p: UldaProjection, X: np.ndarray) -> np.ndarray:
    X = np.asarray(X, dtype=float)
    one_dim = X.ndim == 1
    if one_dim:
        X = X[None, :]
    if X.shape[1] != p.matrix.shape[0]:
        raise DimensionMismatch(
            f"expected {p.matrix.shape[0]} features, got {X.shape[1]}"
        )
    out = (X - p.mean) @ p.matrix
    return out[0] if one_dim else out


# ---------------------------------------------------------------------------
# RES index


def _class_stats(reduced: np.ndarray, y):
    y = np.asarray(y)
    if len(y) != len(reduced):
        raise ValueError(f"{len(reduced)} rows but {len(y)} labels")
    encoded = _grouped(*np.unique(y, return_inverse=True))
    rows, means = group_rows(reduced, encoded)
    bounds = encoded.bounds
    stds = np.stack(
        [
            rows[a:b].std(axis=0, ddof=1) if b - a > 1 else np.zeros(reduced.shape[1])
            for a, b in zip(bounds[:-1], bounds[1:])
        ]
    )
    return encoded.classes, means, stds


def res_index_general(reduced: np.ndarray, y) -> float:
    """Mean pairwise centroid distance over mean within-class dispersion."""
    reduced = np.asarray(reduced, dtype=float)
    if reduced.ndim != 2:
        raise ValueError("reduced must be 2-D")
    classes, means, stds = _class_stats(reduced, y)
    k = len(classes)
    if k < 2:
        raise DegenerateClasses("need at least two classes")
    pair_sum = sum(
        float(np.linalg.norm(means[p] - means[q]))
        for p, q in itertools.combinations(range(k), 2)
    )
    ed_bar = 2.0 / (k * (k - 1)) * pair_sum
    sigma = float(stds.mean())
    if sigma <= 0.0:
        raise ZeroDispersion("all within-class dispersions are zero")
    return ed_bar / sigma


def _two_columns(reduced2, y) -> np.ndarray:
    """`reduced2` as a float matrix; ValueError naming its shape unless it
    has exactly two columns, or unless `y` gives one label per row."""
    reduced2 = np.asarray(reduced2, dtype=float)
    if reduced2.ndim != 2 or reduced2.shape[1] != 2:
        raise ValueError(f"expected exactly two feature columns, got shape {reduced2.shape}")
    if len(y) != len(reduced2):
        raise ValueError(f"{len(reduced2)} rows but {len(y)} labels")
    return reduced2


def res_index(reduced2: np.ndarray, y) -> float:
    """RES index on exactly the first two reduced dimensions."""
    return res_index_general(_two_columns(reduced2, y), y)


def scatter_export(reduced2: np.ndarray, y, path) -> None:
    """Write a `label,f1,f2` row per row of a two-column matrix, both columns
    min-max scaled to [0, 1] by `normalize_features` (a constant one reads 0)."""
    reduced2 = _two_columns(reduced2, y)
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    lines = ["label,f1,f2"]
    if len(reduced2):  # normalize_features rejects an empty matrix
        norm, _ = normalize_features(reduced2)
        for label, (f1, f2) in zip(y, norm):
            lines.append(f"{label},{float(f1)!r},{float(f2)!r}")
    path.write_text("\n".join(lines) + "\n")
