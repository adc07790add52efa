#!/usr/bin/env python3
"""Rank feature sets by cluster separability before any classifier runs.

One feature table holds every window of one subject for all named feature
sets; each set slices its columns from it, as `emgpr res` does, is reduced
with the uncorrelated projection, and its first two reduced dimensions are
scored with the RES index (mean centroid distance over mean within-class
spread).  Higher RES means cleaner clusters.  Also exports the normalized
2-D scatter of the winning set as CSV for plotting.
"""

from pathlib import Path

from emgpr import (
    build_table,
    feature_set,
    fit_ulda,
    generate_synthetic,
    normalize_features,
    project,
    res_index,
    scatter_export,
    separable_spec,
)

SETS = ("FS1", "FS2", "FS3", "FS4", "PROPOSED")

recordings = generate_synthetic(separable_spec(seed=42))  # one subject
table = build_table(recordings, [feature_set(name).features for name in SETS],
                    window_ms=250.0)
(subject,) = table.subjects
labels = table.labels[subject]
print(f"{len(labels)} windows from {len(set(labels))} movements\n")

scores = {}
reduced_two = {}
for name in SETS:
    X = table.matrix(subject, feature_set(name).features)
    norm, _ = normalize_features(X)
    reduced = project(fit_ulda(norm, labels), norm)
    scores[name] = res_index(reduced[:, :2], labels)
    reduced_two[name] = reduced[:, :2]

print(f"{'feature set':<12} {'RES index':>10}")
for name, value in sorted(scores.items(), key=lambda kv: -kv[1]):
    print(f"{name:<12} {value:>10.3f}")

best = max(scores, key=scores.get)
out = Path(__file__).parent / "output"
path = out / f"scatter_{best}.csv"
scatter_export(reduced_two[best], labels, path)
print(f"\nwrote normalized 2-D scatter of {best} ({len(labels)} rows) to {path}")
