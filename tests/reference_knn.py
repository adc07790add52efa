"""Scalar reference for cityblock KNN.

One query row at a time, on the string labels: sum the absolute differences
to every training row, sort the rows by distance with Python's stable sort
(equal distances keep training order), count the labels of the k nearest,
and on a vote tie take the nearest neighbor's label.  The package votes on
integer class codes; its predictions must equal these.
"""

from collections import Counter

import numpy as np


def ref_predict_knn(X_train, y_train, k, X):
    """(labels, tied): each query row's label, and whether its vote tied."""
    X_train, X = np.asarray(X_train, dtype=float), np.atleast_2d(np.asarray(X, dtype=float))
    labels, tied = [], []
    for x in X:
        dists = [float(np.sum(np.abs(row - x))) for row in X_train]
        nearest = [y_train[i] for i in sorted(range(len(X_train)), key=dists.__getitem__)[:k]]
        counts = Counter(nearest)
        top = max(counts.values())
        leaders = [label for label, n in counts.items() if n == top]
        tied.append(len(leaders) > 1)
        labels.append(leaders[0] if len(leaders) == 1 else nearest[0])
    return np.asarray(labels), np.asarray(tied)
