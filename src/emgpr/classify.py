"""Three classifiers behind one train/predict interface.

QDA fits class-conditional Gaussians with a shrinkage-regularized covariance,
the SVM trains one-vs-one RBF machines with a deterministic SMO solver, and
KNN memorizes the training set and votes over cityblock neighbors.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np
from scipy.linalg import solve_triangular

from .errors import DegenerateClasses, DimensionMismatch, SingularCovariance

#: SMO stopping rule: KKT tolerance, and the work cap in sweeps of n pair updates.
SVM_TOL = 1e-3
SVM_MAX_PASSES = 10

_KIND_ALIASES = {"qda": "qda", "svm": "svm", "svm_rbf": "svm", "knn": "knn"}


@dataclass(frozen=True)
class ModelSpec:
    kind: str = "qda"
    qda_shrinkage: float = 1e-3
    svm_sigma: float = 1.0
    svm_c: float = 1.0
    knn_k: int = 3

    def __post_init__(self):
        kind = _KIND_ALIASES.get(self.kind.lower())
        if kind is None:
            raise ValueError(f"unknown classifier kind {self.kind!r}")
        object.__setattr__(self, "kind", kind)
        if not 0.0 <= self.qda_shrinkage <= 1.0:
            raise ValueError("qda_shrinkage must lie in [0, 1]")
        if self.svm_sigma <= 0 or self.svm_c <= 0:
            raise ValueError("svm_sigma and svm_c must be positive")
        if self.knn_k < 1 or self.knn_k % 2 == 0:
            raise ValueError("knn_k must be a positive odd integer")

    def to_dict(self) -> dict:
        return asdict(self)


def _check_classes(y, declared):
    y = np.asarray(y)
    present = np.unique(y)
    if declared is not None:
        declared = list(declared)
        missing = [c for c in declared if c not in present]
        if missing:
            raise DegenerateClasses(f"declared classes with no samples: {missing}")
        classes = np.asarray(declared)
    else:
        classes = present
    if len(classes) < 2:
        raise DegenerateClasses("need at least two classes")
    return classes


def _query_rows(X, d_in: int):
    """The predict input contract: X as float rows of width d_in, plus
    whether X was a single vector whose one label is returned unwrapped."""
    X = np.asarray(X, dtype=float)
    rows = np.atleast_2d(X)
    if rows.shape[1] != d_in:
        raise DimensionMismatch(f"expected {d_in} features, got {rows.shape[1]}")
    return rows, X.ndim == 1


# ---------------------------------------------------------------------------
# QDA


class QdaModel:
    def __init__(self, classes, priors, means, chols, logdets):
        self.classes = classes
        self.priors = priors
        self.means = means
        self.chols = chols  # lower Cholesky factor per class
        self.logdets = logdets

    @property
    def d_in(self) -> int:
        return self.means.shape[1]

    def decision_values(self, X: np.ndarray) -> np.ndarray:
        """Per-class log-density scores ln pi_k - logdet/2 - maha/2."""
        X = np.atleast_2d(np.asarray(X, dtype=float))
        scores = np.empty((X.shape[0], len(self.classes)))
        for k in range(len(self.classes)):
            diff = X - self.means[k]
            z = solve_triangular(self.chols[k], diff.T, lower=True)
            maha = np.sum(z * z, axis=0)
            scores[:, k] = (
                math.log(self.priors[k]) - 0.5 * self.logdets[k] - 0.5 * maha
            )
        return scores

    def predict(self, X: np.ndarray):
        X, one = _query_rows(X, self.d_in)
        labels = self.classes[np.argmax(self.decision_values(X), axis=1)]
        return labels[0] if one else labels


def _shrink(cov: np.ndarray, gamma: float) -> np.ndarray:
    d = cov.shape[0]
    return (1.0 - gamma) * cov + gamma * (np.trace(cov) / d) * np.eye(d)


def _train_qda(spec: ModelSpec, X, y, classes) -> QdaModel:
    means, priors, chols, logdets = [], [], [], []
    for c in classes:
        Xk = X[y == c]
        means.append(Xk.mean(axis=0))
        priors.append(len(Xk) / len(X))
        cov = np.atleast_2d(np.cov(Xk, rowvar=False, ddof=1))
        cov = _shrink(cov, spec.qda_shrinkage)
        try:
            chol = np.linalg.cholesky(cov)
        except np.linalg.LinAlgError:
            raise SingularCovariance(
                f"covariance of class {c!r} is singular; "
                "enable qda_shrinkage to regularize"
            ) from None
        chols.append(chol)
        logdets.append(2.0 * float(np.sum(np.log(np.diag(chol)))))
    return QdaModel(
        classes=classes,
        priors=np.asarray(priors),
        means=np.asarray(means),
        chols=chols,
        logdets=logdets,
    )


# ---------------------------------------------------------------------------
# SVM (one-vs-one, SMO)


def rbf_kernel(A: np.ndarray, B: np.ndarray, sigma: float) -> np.ndarray:
    sq = (
        np.sum(A * A, axis=1)[:, None]
        + np.sum(B * B, axis=1)[None, :]
        - 2.0 * A @ B.T
    )
    return np.exp(-np.maximum(sq, 0.0) / (2.0 * sigma * sigma))


def _smo(K: np.ndarray, y: np.ndarray, c: float, tol: float, max_passes: int):
    """SMO on a precomputed kernel matrix, maximal-violating-pair selection.

    Each iteration updates the pair that violates the KKT conditions the
    most, which is deterministic (numpy argmax tie-breaks on the first
    index) and converges monotonically.  Work is capped at max_passes
    sweeps' worth of pair updates (max_passes * n); hitting the cap returns
    the best-so-far state with converged=False.  On exit the duality gap is
    at most tol, so every training point satisfies KKT within tol.
    """
    n = len(y)
    alpha = np.zeros(n)
    f = np.zeros(n)  # sum_j alpha_j y_j K(x_t, x_j), bias excluded
    pos = y > 0
    max_iter = max(max_passes * n, 100)
    converged = False
    m = top = 1.0
    bottom = -1.0

    for _ in range(max_iter):
        grad = y - f
        in_up = (pos & (alpha < c)) | (~pos & (alpha > 0.0))
        in_low = (pos & (alpha > 0.0)) | (~pos & (alpha < c))
        up_vals = np.where(in_up, grad, -np.inf)
        low_vals = np.where(in_low, grad, np.inf)
        i = int(np.argmax(up_vals))
        j = int(np.argmin(low_vals))
        top, bottom = up_vals[i], low_vals[j]
        if top - bottom <= tol:
            converged = True
            break
        quad = max(K[i, i] + K[j, j] - 2.0 * K[i, j], 1e-12)
        step = (top - bottom) / quad
        step = min(step, c - alpha[i] if pos[i] else alpha[i])
        step = min(step, alpha[j] if pos[j] else c - alpha[j])
        alpha[i] += step if pos[i] else -step
        alpha[j] -= step if pos[j] else -step
        np.clip(alpha, 0.0, c, out=alpha)
        f += step * (K[:, i] - K[:, j])

    free = (alpha > 1e-9 * c) & (alpha < c * (1.0 - 1e-9))
    if free.any():
        b = float(np.mean((y - f)[free]))
    else:
        b = 0.5 * (float(top) + float(bottom))
    return alpha, b, converged


class SvmModel:
    def __init__(self, classes, sigma, machines, converged, d_in):
        self.classes = classes
        self.sigma = sigma
        self.machines = machines  # {(i, j): (sv, coef, b)} with +1 = class i
        self.converged = converged
        self.d_in = d_in

    def predict(self, X: np.ndarray):
        X, one = _query_rows(X, self.d_in)
        k = len(self.classes)
        votes = np.zeros((X.shape[0], k), dtype=int)
        scores = np.zeros((X.shape[0], k))
        for (i, j), (sv, coef, b) in self.machines.items():
            f = rbf_kernel(X, sv, self.sigma) @ coef + b
            winner_i = f > 0
            votes[:, i] += winner_i
            votes[:, j] += ~winner_i
            scores[:, i] += f
            scores[:, j] -= f
        labels = np.empty(X.shape[0], dtype=self.classes.dtype)
        for row in range(X.shape[0]):
            leaders = np.flatnonzero(votes[row] == votes[row].max())
            if len(leaders) > 1:
                # vote tie: decide by the summed decision values
                leaders = leaders[[np.argmax(scores[row, leaders])]]
            labels[row] = self.classes[leaders[0]]
        return labels[0] if one else labels


def _train_svm(spec: ModelSpec, X, y, classes) -> SvmModel:
    machines = {}
    converged = True
    for i in range(len(classes)):
        for j in range(i + 1, len(classes)):
            mask = (y == classes[i]) | (y == classes[j])
            Xp = X[mask]
            yp = np.where(y[mask] == classes[i], 1.0, -1.0)
            K = rbf_kernel(Xp, Xp, spec.svm_sigma)
            alpha, b, ok = _smo(K, yp, spec.svm_c, SVM_TOL, SVM_MAX_PASSES)
            converged = converged and ok
            keep = alpha > 1e-12
            machines[(i, j)] = (Xp[keep], alpha[keep] * yp[keep], b)
    return SvmModel(
        classes=classes,
        sigma=spec.svm_sigma,
        machines=machines,
        converged=converged,
        d_in=X.shape[1],
    )


# ---------------------------------------------------------------------------
# KNN


class KnnModel:
    def __init__(self, X, y, k):
        self.X = X
        self.y = y
        self.k = k

    @property
    def d_in(self) -> int:
        return self.X.shape[1]

    def predict(self, X: np.ndarray):
        X, one = _query_rows(X, self.d_in)
        labels = np.empty(X.shape[0], dtype=self.y.dtype)
        for row, x in enumerate(X):
            dists = np.sum(np.abs(self.X - x), axis=1)
            order = np.argsort(dists, kind="stable")[: self.k]
            nearest_labels = self.y[order]
            uniq, counts = np.unique(nearest_labels, return_counts=True)
            top = counts.max()
            leaders = uniq[counts == top]
            # vote tie: fall back to the single nearest neighbor
            labels[row] = leaders[0] if len(leaders) == 1 else nearest_labels[0]
        return labels[0] if one else labels


def _train_knn(spec: ModelSpec, X, y, classes) -> KnnModel:
    return KnnModel(X=X.copy(), y=y.copy(), k=spec.knn_k)


# ---------------------------------------------------------------------------
# public interface

#: kind -> trainer
_KINDS = {"qda": _train_qda, "svm": _train_svm, "knn": _train_knn}


def train(spec: ModelSpec, X: np.ndarray, y, classes=None):
    """Train the classifier named by spec.kind on reduced features."""
    X = np.asarray(X, dtype=float)
    y = np.asarray(y)
    if X.ndim != 2 or len(X) != len(y):
        raise ValueError("X must be (n_samples, d) aligned with y")
    return _KINDS[spec.kind](spec, X, y, _check_classes(y, classes))


def predict(model, x):
    """Predict label(s) for one vector or a matrix of samples."""
    return model.predict(x)
