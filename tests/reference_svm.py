"""Scalar reference for the one-vs-one RBF SVM.

One SMO problem per class pair, solved one pair at a time on that pair's
own kernel matrix, and predicted one machine at a time.  The package trains
every pair in lockstep over one shared kernel and predicts against one
support set; the machines it derives must equal these bit for bit.
"""

import numpy as np

from emgpr.classify import SVM_MAX_PASSES, SVM_TOL


def rbf_kernel(A, B, sigma):
    sq = (
        np.sum(A * A, axis=1)[:, None]
        + np.sum(B * B, axis=1)[None, :]
        - 2.0 * A @ B.T
    )
    return np.exp(-np.maximum(sq, 0.0) / (2.0 * sigma * sigma))


def ref_smo(K, y, c, tol, max_passes):
    """Maximal-violating-pair SMO on one precomputed kernel matrix."""
    n = len(y)
    alpha = np.zeros(n)
    f = np.zeros(n)  # sum_j alpha_j y_j K(x_t, x_j), bias excluded
    pos = y > 0
    max_iter = max(max_passes * n, 100)
    converged = False
    top = 1.0
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


def ref_pair_solutions(X, y, classes, sigma=1.0, c=1.0, max_passes=SVM_MAX_PASSES):
    """Per class pair (i, j), in pair order: (i, j, the pair's training-row
    indices, its labels in {+1, -1}, alpha, b, converged)."""
    X = np.asarray(X, dtype=float)
    y = np.asarray(y)
    for i in range(len(classes)):
        for j in range(i + 1, len(classes)):
            rows = np.flatnonzero((y == classes[i]) | (y == classes[j]))
            yp = np.where(y[rows] == classes[i], 1.0, -1.0)
            K = rbf_kernel(X[rows], X[rows], sigma)
            alpha, b, ok = ref_smo(K, yp, c, SVM_TOL, max_passes)
            yield i, j, rows, yp, alpha, b, ok


def ref_train_svm(X, y, classes, sigma=1.0, c=1.0, max_passes=SVM_MAX_PASSES):
    """Per-pair training: ({(i, j): (sv, coef, b)}, converged)."""
    X = np.asarray(X, dtype=float)
    machines = {}
    converged = True
    for i, j, rows, yp, alpha, b, ok in ref_pair_solutions(X, y, classes, sigma, c,
                                                            max_passes):
        converged = converged and ok
        keep = alpha > 1e-12
        machines[(i, j)] = (X[rows[keep]], alpha[keep] * yp[keep], b)
    return machines, converged


def ref_support_rows(X, y, classes, sigma=1.0, c=1.0):
    """The sorted training-row indices that at least one machine keeps."""
    kept = [rows[alpha > 1e-12]
            for _, _, rows, _, alpha, _, _ in ref_pair_solutions(X, y, classes, sigma, c)]
    return np.unique(np.concatenate(kept))


def ref_predict_svm(machines, classes, sigma, X):
    """Per-machine decision values, votes, and summed-value tie-break."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    k = len(classes)
    votes = np.zeros((X.shape[0], k), dtype=int)
    scores = np.zeros((X.shape[0], k))
    for (i, j), (sv, coef, b) in machines.items():
        f = rbf_kernel(X, sv, sigma) @ coef + b
        winner_i = f > 0
        votes[:, i] += winner_i
        votes[:, j] += ~winner_i
        scores[:, i] += f
        scores[:, j] -= f
    labels = np.empty(X.shape[0], dtype=np.asarray(classes).dtype)
    for row in range(X.shape[0]):
        leaders = np.flatnonzero(votes[row] == votes[row].max())
        if len(leaders) > 1:
            leaders = leaders[[np.argmax(scores[row, leaders])]]
        labels[row] = classes[leaders[0]]
    return labels
