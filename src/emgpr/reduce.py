"""Uncorrelated LDA projection, RES separability index, scatter export.

The projection is built by two SVD stages: whiten the total scatter, then
diagonalize the between-class scatter in the whitened space.  Projected
training features come out mutually uncorrelated with unit variance, and the
output dimension is at most n_classes - 1.  The labels are encoded in sorted
order (`class_codes`) and the class means come from one grouped pass
(`group_rows`); classifier training shares both.
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


def class_codes(y):
    """(classes, codes): the sorted labels, at least two, and each row's index into them."""
    classes, codes = np.unique(y, return_inverse=True)
    if len(classes) < 2:
        raise DegenerateClasses("need at least two classes")
    return classes, codes


def group_rows(X: np.ndarray, codes: np.ndarray, k: int):
    """Rows of X grouped by integer class code with one stable sort.

    Returns (rows, bounds, means): class i is rows[bounds[i]:bounds[i + 1]],
    which holds the rows of X[codes == i] in the same order, and means[i] is
    that slice's mean, equal to X[codes == i].mean(axis=0) bit for bit.
    `bounds` is a list of k + 1 ints.  Every code lies in [0, k).
    """
    rows = X[np.argsort(codes, kind="stable")]
    counts = np.bincount(codes, minlength=k)
    bounds = [0] + np.cumsum(counts).tolist()
    # add.reduce of each slice is the sum ndarray.mean takes, in its order
    sums = np.array([np.add.reduce(rows[a:b], axis=0)
                     for a, b in zip(bounds[:-1], bounds[1:])])
    return rows, bounds, sums / counts[:, None]


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

    Deterministic up to column sign; signs are fixed by making the
    largest-magnitude entry of every column positive.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y)
    if X.ndim != 2 or X.shape[1] < 1:
        raise ValueError("X must be (n_samples, d_in)")
    classes, codes = class_codes(y)
    counts = np.bincount(codes)
    check_class_sizes(classes, counts)

    n = X.shape[0]
    mean = X.mean(axis=0)
    Xc = X - mean

    # whiten the total scatter St = Xc'Xc / n
    _, svals, Vt = np.linalg.svd(Xc / math.sqrt(n), full_matrices=False)
    keep = svals > RANK_TOL * svals[0] if svals[0] > 0 else np.zeros_like(svals, bool)
    if not keep.any():
        raise RankZero("all features are constant")
    whiten = Vt[keep].T / svals[keep]  # (d_in, r)

    # between-class scatter factor: columns sqrt(n_k/n) * (mu_k - mu), in
    # sorted-label order
    _, _, means = group_rows(X, codes, len(classes))
    Hb = np.ascontiguousarray((np.sqrt(counts / n)[:, None] * (means - mean)).T)
    P, sb, _ = np.linalg.svd(whiten.T @ Hb, full_matrices=False)
    keep_b = sb > RANK_TOL * sb[0] if sb[0] > 0 else np.zeros_like(sb, bool)
    d_out = min(int(keep_b.sum()), len(classes) - 1)
    if d_out == 0:
        raise DegenerateClasses("class means coincide; nothing to discriminate")

    matrix = whiten @ P[:, :d_out]
    for j in range(d_out):
        col = matrix[:, j]
        if col[np.argmax(np.abs(col))] < 0:
            matrix[:, j] = -col
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
    classes, codes = np.unique(y, return_inverse=True)
    rows, bounds, means = group_rows(reduced, codes, len(classes))
    stds = np.stack(
        [
            rows[a:b].std(axis=0, ddof=1) if b - a > 1 else np.zeros(reduced.shape[1])
            for a, b in zip(bounds[:-1], bounds[1:])
        ]
    )
    return classes, means, stds


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


def res_index(reduced2: np.ndarray, y) -> float:
    """RES index on exactly the first two reduced dimensions."""
    reduced2 = np.asarray(reduced2, dtype=float)
    if reduced2.ndim != 2 or reduced2.shape[1] != 2:
        raise ValueError("res_index expects exactly two feature columns")
    return res_index_general(reduced2, y)


def scatter_export(reduced2: np.ndarray, y, path) -> None:
    """Write `label,f1,f2` rows with both columns min-max scaled to [0, 1]
    by `normalize_features`, so a constant column reads 0."""
    reduced2 = np.asarray(reduced2, dtype=float).reshape(-1, 2)
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    lines = ["label,f1,f2"]
    if len(reduced2):  # normalize_features rejects an empty matrix
        norm, _ = normalize_features(reduced2)
        for label, (f1, f2) in zip(y, norm):
            lines.append(f"{label},{float(f1)!r},{float(f2)!r}")
    path.write_text("\n".join(lines) + "\n")
