"""Per-class reference for shrinkage QDA.

One class at a time: mask the rows, take the mean and np.cov, shrink,
factor, and score a query with one triangular solve per class.  The package
groups the rows with one sort, factors every class covariance in one batched
call and scores all classes from one stacked product; its means, Cholesky
factors and log-determinants must equal these bit for bit, and its decision
values must agree to rounding.
"""

import math

import numpy as np
from scipy.linalg import solve_triangular


def _shrink(cov, gamma):
    d = cov.shape[0]
    return (1.0 - gamma) * cov + gamma * (np.trace(cov) / d) * np.eye(d)


def ref_train_qda(X, y, classes, shrinkage):
    """(priors, means, chols, logdets) in the order of `classes`."""
    X, y = np.asarray(X, dtype=float), np.asarray(y)
    means, priors, chols, logdets = [], [], [], []
    for c in classes:
        Xk = X[y == c]
        means.append(Xk.mean(axis=0))
        priors.append(len(Xk) / len(X))
        cov = np.atleast_2d(np.cov(Xk, rowvar=False, ddof=1))
        chol = np.linalg.cholesky(_shrink(cov, shrinkage))
        chols.append(chol)
        logdets.append(2.0 * float(np.sum(np.log(np.diag(chol)))))
    return np.asarray(priors), np.asarray(means), chols, logdets


def ref_decision_values(priors, means, chols, logdets, X):
    """Per-class log-density scores ln pi_k - logdet/2 - maha/2."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    scores = np.empty((X.shape[0], len(priors)))
    for k in range(len(priors)):
        diff = X - means[k]
        z = solve_triangular(chols[k], diff.T, lower=True)
        maha = np.sum(z * z, axis=0)
        scores[:, k] = math.log(priors[k]) - 0.5 * logdets[k] - 0.5 * maha
    return scores
