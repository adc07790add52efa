"""Three classifiers behind one train/predict interface.

QDA fits class-conditional Gaussians with a shrinkage-regularized covariance,
the SVM trains one-vs-one RBF machines with a deterministic SMO solver, and
KNN memorizes the training set and votes over cityblock neighbors.

Training encodes the labels once, in sorted order as ULDA does
(`reduce.class_codes`), or takes the encoding a caller passes as its labels.
QDA groups the rows by class with the encoding's stable sort, so a caller
that fitted ULDA on the same encoding sorts once, then shrinks and factors
every class covariance in one batched step; it predicts all classes'
Mahalanobis terms from one stacked product with the inverse Cholesky
factors.

The SVM computes one kernel matrix over all training rows and runs the SMO
problems of all class pairs in lockstep, one padded row of state per pair;
each pair's result is bit-identical to solving it alone on its own kernel.
The training rows any machine uses form one support set with a (support
vectors, machines) coefficient matrix; prediction takes one kernel against
it and one product, then counts the pairwise votes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, SingularCovariance, check_number, field_values
from .reduce import ClassCodes, check_class_sizes, class_codes, group_rows

#: SMO stopping rule: KKT tolerance, and the work cap in sweeps of n pair updates.
SVM_TOL = 1e-3
SVM_MAX_PASSES = 10

#: every classifier name ModelSpec accepts -> its kind
KIND_NAMES = {"qda": "qda", "svm": "svm", "svm_rbf": "svm", "knn": "knn"}


@dataclass(frozen=True)
class ModelSpec:
    kind: str = "qda"
    qda_shrinkage: float = 1e-3
    svm_sigma: float = 1.0
    svm_c: float = 1.0
    knn_k: int = 3

    def __post_init__(self):
        kind = KIND_NAMES.get(self.kind.lower()) if isinstance(self.kind, str) else None
        if kind is None:
            raise ValueError(f"unknown classifier kind {self.kind!r}")
        object.__setattr__(self, "kind", kind)
        check_number("qda_shrinkage", self.qda_shrinkage, 0, 1)
        check_number("svm_sigma", self.svm_sigma, 0, open_low=True)
        check_number("svm_c", self.svm_c, 0, open_low=True)
        check_number("knn_k", self.knn_k, 1, integer=True)
        if self.knn_k % 2 == 0:
            raise ValueError(f"knn_k must be odd, got {self.knn_k!r}")

    def to_dict(self) -> dict:
        return field_values(self)


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
    """Per-class Gaussians: `means` (k, d), lower Cholesky factors `chols`
    (k, d, d) of the shrunk covariances and their `logdets` (k,)."""

    def __init__(self, classes, priors, means, chols, logdets):
        self.classes = classes
        self.priors = priors
        self.means = means
        self.chols = chols
        self.logdets = logdets
        # transposed inverse factors: (x - mu_k) @ inv_t[k] whitens class k
        self.inv_t = np.linalg.inv(chols).transpose(0, 2, 1).copy()
        self.offsets = (np.array([math.log(p) for p in priors])
                        - 0.5 * np.asarray(logdets))

    @property
    def d_in(self) -> int:
        return self.means.shape[1]

    def decision_values(self, X: np.ndarray) -> np.ndarray:
        """Per-class log-density scores ln pi_k - logdet/2 - maha/2."""
        X = np.atleast_2d(np.asarray(X, dtype=float))
        z = (X - self.means[:, None, :]) @ self.inv_t  # (k, rows, d)
        return self.offsets - 0.5 * np.einsum("knd,knd->nk", z, z)

    def predict(self, X: np.ndarray):
        X, one = _query_rows(X, self.d_in)
        labels = self.classes[np.argmax(self.decision_values(X), axis=1)]
        return labels[0] if one else labels


def _cholesky(covs: np.ndarray, classes) -> np.ndarray:
    """Lower Cholesky factors of a (k, d, d) stack, or SingularCovariance
    naming the first class, in classes order, that has none."""
    try:
        return np.linalg.cholesky(covs)
    except np.linalg.LinAlgError:
        for c, cov in zip(classes.tolist(), covs):
            try:
                np.linalg.cholesky(cov)
            except np.linalg.LinAlgError:
                raise SingularCovariance(
                    f"covariance of class {c!r} is singular; "
                    "enable qda_shrinkage to regularize"
                ) from None
        raise


def _train_qda(spec: ModelSpec, X, encoded: ClassCodes) -> QdaModel:
    classes, counts, bounds = encoded.classes, encoded.counts, encoded.bounds
    d = X.shape[1]
    rows, means = group_rows(X, encoded)
    check_class_sizes(classes, counts)  # each scatter is divided by n - 1
    # np.cov's arithmetic per class: centre, Gram product, times 1/(n - 1)
    centred = rows - np.repeat(means, counts, axis=0)
    covs = np.array([centred[a:b].T @ centred[a:b]
                     for a, b in zip(bounds[:-1], bounds[1:])])
    covs *= (1.0 / (counts - 1))[:, None, None]
    # shrink toward the scaled identity: (1 - g) cov + g tr(cov)/d I
    g = spec.qda_shrinkage
    scale = g * (np.trace(covs, axis1=1, axis2=2) / d)
    covs = (1.0 - g) * covs + scale[:, None, None] * np.eye(d)
    chols = _cholesky(covs, classes)
    logdets = 2.0 * np.sum(np.log(np.diagonal(chols, axis1=1, axis2=2)), axis=1)
    return QdaModel(
        classes=classes,
        priors=counts / len(X),
        means=means,
        chols=chols,
        logdets=logdets,
    )


# ---------------------------------------------------------------------------
# SVM (one-vs-one, SMO)


def _sq_norms(A: np.ndarray) -> np.ndarray:
    return np.sum(A * A, axis=1)


def _rbf(A: np.ndarray, a_sq: np.ndarray, B: np.ndarray, b_sq: np.ndarray,
         sigma: float) -> np.ndarray:
    """The RBF kernel of the rows of A and B from their squared norms, as
    (|a|^2 + |b|^2) - (2A)B^T.  It holds two (len(A), len(B)) buffers: the
    outer sum, which becomes the kernel in place, and the Gram product."""
    sq = a_sq[:, None] + b_sq[None, :]
    sq -= 2.0 * A @ B.T
    np.maximum(sq, 0.0, out=sq)
    # -d / (2 s^2) as d / -(2 s^2): negation is exact, so the bits are equal
    sq /= -(2.0 * sigma * sigma)
    return np.exp(sq, out=sq)


def rbf_kernel(A: np.ndarray, B: np.ndarray, sigma: float) -> np.ndarray:
    """exp(-|a - b|^2 / (2 sigma^2)) for every row a of A and b of B."""
    return _rbf(A, _sq_norms(A), B, _sq_norms(B), sigma)


def _smo(K: np.ndarray, rows, ys, c: float, tol: float, max_passes: int):
    """SMO with maximal-violating-pair selection, for several binary
    problems in lockstep.

    Problem p trains on the points rows[p] (indices into the symmetric
    kernel matrix K) with labels ys[p] in {+1, -1}; one (alpha, b,
    converged) is returned per problem.  Each iteration updates, in every
    problem still running, the pair that violates the KKT conditions the
    most, which is deterministic (argmax tie-breaks on the first index) and
    converges monotonically.  A problem stops once its duality gap is at
    most tol, so every point satisfies KKT within tol, or after
    max(max_passes * n, 100) pair updates with converged=False and the
    best-so-far state.  The problems share no arithmetic: each result is
    the one the problem would reach alone on the kernel K[rows, rows].
    """
    sizes = np.array([len(r) for r in rows])
    n_prob, width = len(rows), int(sizes.max())
    valid = np.arange(width) < sizes[:, None]  # False on padding
    idx = np.zeros((n_prob, width), dtype=np.intp)
    idx[valid] = np.concatenate(rows)
    y = np.zeros((n_prob, width))
    y[valid] = np.concatenate(ys)
    pos = y > 0
    cap = np.maximum(max_passes * sizes, 100)
    alpha, f = np.zeros((n_prob, width)), np.zeros((n_prob, width))
    top, bottom = np.ones(n_prob), -np.ones(n_prob)
    converged = np.zeros(n_prob, dtype=bool)
    # a problem's kernel column at point k is the contiguous run K[k, rows]
    flat, stride = np.ascontiguousarray(K).ravel(), K.shape[1]

    def working_sets(a, p):
        """The sets a pair is chosen from, at alpha a and y > 0 p, as masks
        to add to the gradient: 0 in the set, -inf (up) or +inf (low) out."""
        below, above = a < c, a > 0.0
        return (np.where(np.where(p, below, above), 0.0, -np.inf),
                np.where(np.where(p, above, below), 0.0, np.inf))

    up_mask, low_mask = working_sets(alpha, pos)
    low_mask[~valid] = np.inf  # padding is in neither set

    # One row per problem still running: its number, alpha, f (sum_j
    # alpha_j y_j K(x_t, x_j), bias excluded), y, y > 0, kernel indices and
    # working-set masks.  A problem leaves when it stops, and its alpha and
    # f are written back.
    state = [np.arange(n_prob), alpha.copy(), f.copy(), y, pos, idx, up_mask, low_mask]

    def leave(stopped):
        live, a, g = state[:3]
        alpha[live[stopped]], f[live[stopped]] = a[stopped], g[stopped]
        return [v[~stopped] for v in state]

    it = 0
    while len(state[0]):
        live, a, g, yl, pl, il, up_mask, low_mask = state
        # y - f is never -0.0, so adding a mask selects what np.where would
        grad = yl - g
        up_vals, low_vals = grad + up_mask, grad + low_mask
        r = np.arange(len(live))
        i, j = np.argmax(up_vals, axis=1), np.argmin(low_vals, axis=1)
        hi, lo = up_vals[r, i], low_vals[r, j]
        top[live], bottom[live] = hi, lo
        done = hi - lo <= tol
        if done.any():
            converged[live[done]] = True
            state = leave(done)
            live, a, g, yl, pl, il, up_mask, low_mask = state
            run = ~done
            r, i, j, hi, lo = r[: len(live)], i[run], j[run], hi[run], lo[run]

        ki, kj = il[r, i], il[r, j]
        quad = np.maximum(K[ki, ki] + K[kj, kj] - 2.0 * K[ki, kj], 1e-12)
        step = (hi - lo) / quad
        ai, aj, pi, pj = a[r, i], a[r, j], pl[r, i], pl[r, j]
        step = np.minimum(step, np.where(pi, c - ai, ai))
        step = np.minimum(step, np.where(pj, aj, c - aj))
        # np.clip(alpha, 0, c) after both updates, on the two that moved
        a[r, i] = ai = np.minimum(np.maximum(ai + np.where(pi, step, -step), 0.0), c)
        a[r, j] = aj = np.minimum(np.maximum(aj - np.where(pj, step, -step), 0.0), c)
        up_mask[r, i], low_mask[r, i] = working_sets(ai, pi)
        up_mask[r, j], low_mask[r, j] = working_sets(aj, pj)
        g += step[:, None] * (
            flat.take(ki[:, None] * stride + il) - flat.take(kj[:, None] * stride + il))

        it += 1
        capped = cap[live] <= it
        if capped.any():
            state = leave(capped)

    solutions = []
    for p, n in enumerate(sizes):
        ap, fp, yp = alpha[p, :n], f[p, :n], y[p, :n]
        free = (ap > 1e-9 * c) & (ap < c * (1.0 - 1e-9))
        if free.any():
            b = float(np.mean((yp - fp)[free]))
        else:
            b = 0.5 * (float(top[p]) + float(bottom[p]))
        solutions.append((ap, b, bool(converged[p])))
    return solutions


class SvmModel:
    """One-vs-one RBF machines over one support set: `support` holds each
    training row that some machine uses once, in training-row order, and
    `coef` one column of alpha * y per class pair (i, j), i < j, in pair
    order (+1 meaning class i, 0 where the machine does not use the row),
    with the biases in `bias`."""

    def __init__(self, classes, sigma, support, coef, bias, converged):
        self.classes = classes
        self.sigma = sigma
        self.support = support
        self.coef = coef
        self.bias = np.asarray(bias, dtype=float)
        self.converged = converged
        self.d_in = support.shape[1]
        self._first, self._second = np.triu_indices(len(classes), 1)
        self._support_sq = _sq_norms(support)  # reused by every predict
        # votes = (f > 0) @ ballot + second_votes: each machine votes for its
        # first class where f > 0 and for its second class otherwise
        onehot = np.eye(len(classes), dtype=np.intp)
        self._ballot = onehot[self._first] - onehot[self._second]
        self._second_votes = onehot[self._second].sum(axis=0)

    @property
    def machines(self) -> dict:
        """(i, j) -> (sv, coef, b): the support rows with a nonzero
        coefficient in pair (i, j)'s column, those coefficients, its bias."""
        machines = {}
        for m, pair in enumerate(zip(self._first.tolist(), self._second.tolist())):
            used = self.coef[:, m] != 0.0
            machines[pair] = (self.support[used], self.coef[used, m], float(self.bias[m]))
        return machines

    def decision_values(self, X: np.ndarray) -> np.ndarray:
        """(rows, machines) decision values; > 0 votes for the pair's first class."""
        return self._decisions(np.atleast_2d(np.asarray(X, dtype=float)))

    def _decisions(self, rows: np.ndarray) -> np.ndarray:
        """`decision_values` of float rows that are already 2-D."""
        K = _rbf(rows, _sq_norms(rows), self.support, self._support_sq, self.sigma)
        return K @ self.coef + self.bias

    def predict(self, X: np.ndarray):
        X, one = _query_rows(X, self.d_in)
        f = self._decisions(X)
        votes = (f > 0) @ self._ballot + self._second_votes
        leaders = votes == votes.max(axis=1, keepdims=True)
        best = np.argmax(votes, axis=1)
        tied = np.flatnonzero(leaders.sum(axis=1) > 1)
        if len(tied):
            # vote tie: decide by the decision values summed in machine order
            scores = np.zeros((len(tied), len(self.classes)))
            for m, (i, j) in enumerate(zip(self._first, self._second)):
                scores[:, i] += f[tied, m]
                scores[:, j] -= f[tied, m]
            best[tied] = np.argmax(np.where(leaders[tied], scores, -np.inf), axis=1)
        labels = self.classes[best]
        return labels[0] if one else labels


def _train_svm(spec: ModelSpec, X, encoded: ClassCodes) -> SvmModel:
    classes, codes = encoded.classes, encoded.codes
    pairs = [(i, j) for i in range(len(classes)) for j in range(i + 1, len(classes))]
    rows = [np.flatnonzero((codes == i) | (codes == j)) for i, j in pairs]
    ys = [np.where(codes[r] == i, 1.0, -1.0) for r, (i, _) in zip(rows, pairs)]
    K = rbf_kernel(X, X, spec.svm_sigma)  # each pair's kernel is a gather of it
    solutions = _smo(K, rows, ys, spec.svm_c, SVM_TOL, SVM_MAX_PASSES)
    # one column of alpha * y per machine over all training rows; a row
    # supports some machine exactly where its coefficient row is nonzero
    coef = np.zeros((len(X), len(pairs)))
    for m, (r, yp, (alpha, _, _)) in enumerate(zip(rows, ys, solutions)):
        keep = alpha > 1e-12
        coef[r[keep], m] = alpha[keep] * yp[keep]
    used = np.flatnonzero(coef.any(axis=1))
    return SvmModel(classes, spec.svm_sigma, X[used], coef[used],
                    [b for _, b, _ in solutions], all(ok for _, _, ok in solutions))


# ---------------------------------------------------------------------------
# KNN


#: Bytes of the (query rows, training rows, d) differences KNN holds at once,
#: small enough to stay in cache
KNN_BLOCK_BYTES = 1 << 18


class KnnModel:
    """The training rows `X` with their class `codes` into `classes`."""

    def __init__(self, X, classes, codes, k):
        self.X = X
        self.classes = classes
        self.codes = codes
        self.k = k

    @property
    def d_in(self) -> int:
        return self.X.shape[1]

    def predict(self, X: np.ndarray):
        X, one = _query_rows(X, self.d_in)
        # cityblock distances of a block of query rows at once; each row's
        # sum is the one np.sum(np.abs(self.X - x), axis=1) gives it
        step = max(1, KNN_BLOCK_BYTES // (8 * self.X.size))
        order = np.empty((len(X), min(self.k, len(self.X))), dtype=np.intp)
        for start in range(0, len(X), step):
            diffs = X[start:start + step, None] - self.X
            dists = np.add.reduce(np.abs(diffs, out=diffs), axis=2)
            order[start:start + step] = np.argsort(dists, axis=1, kind="stable")[:, :self.k]
        nearest = self.codes[order]  # (rows, neighbors), nearest first
        rows, n_classes = nearest.shape[0], len(self.classes)
        votes = np.bincount((np.arange(rows)[:, None] * n_classes + nearest).ravel(),
                            minlength=rows * n_classes).reshape(rows, n_classes)
        tied = (votes == votes.max(axis=1, keepdims=True)).sum(axis=1) > 1
        # vote tie: fall back to the single nearest neighbor
        best = np.where(tied, nearest[:, 0], np.argmax(votes, axis=1))
        labels = self.classes[best]
        return labels[0] if one else labels


def _train_knn(spec: ModelSpec, X, encoded: ClassCodes) -> KnnModel:
    return KnnModel(X=X.copy(), classes=encoded.classes, codes=encoded.codes,
                    k=spec.knn_k)


# ---------------------------------------------------------------------------
# public interface

#: kind -> trainer
_KINDS = {"qda": _train_qda, "svm": _train_svm, "knn": _train_knn}


def train(spec: ModelSpec, X: np.ndarray, y):
    """Train the classifier named by spec.kind on reduced features; y is one
    label per row of X, or their `class_codes`, and the model's `classes` are
    the sorted labels."""
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or len(X) != len(y):
        raise ValueError("X must be (n_samples, d) aligned with y")
    return _KINDS[spec.kind](spec, X, class_codes(y))


def predict(model, x):
    """Predict label(s) for one vector or a matrix of samples."""
    return model.predict(x)
