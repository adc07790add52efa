#!/usr/bin/env python3
"""Walk one movement-recognition fold through every pipeline stage.

Synthesizes a 10-class two-channel dataset, then shows the shapes and
numbers at each step: filtering, disjoint windowing, feature extraction,
min-max scaling, the uncorrelated projection, and the classifier verdicts.
Ends with the full leave-one-trial-out evaluation for all three classifiers.
"""

import numpy as np

from emgpr import (
    ModelSpec,
    apply_filters,
    crossvalidate,
    extract_matrix,
    feature_set,
    fit_ulda,
    generate_synthetic,
    normalize_features,
    project,
    segment,
    separable_spec,
    train,
)

recordings = generate_synthetic(separable_spec(seed=42))
print(f"dataset: {len(recordings)} recordings "
      f"({recordings[0].n_channels} channels, "
      f"{recordings[0].duration_s:.0f} s at {recordings[0].sample_rate_hz:.0f} Hz)")

# stage 1: causal bandpass + notch, one SOS cascade in one pass
filtered = [apply_filters(rec) for rec in recordings]
print(f"filtered: length preserved "
      f"({recordings[0].n_samples} -> {filtered[0].n_samples} samples)")

# stage 2: 250 ms disjoint windows
windows, labels, trials = [], [], []
for rec in filtered:
    for w in segment(rec, window_ms=250.0):
        windows.append(w)
        labels.append(rec.movement)
        trials.append(rec.trial)
labels = np.asarray(labels)
trials = np.asarray(trials)
print(f"windows: {len(windows)} of {windows[0].shape[1]} samples "
      f"(20 per 5 s trial)")

# stage 3: the 13-feature combined set on both channels
spec = feature_set("PROPOSED")
X = extract_matrix(spec, windows)
print(f"features: {X.shape[1]} per window "
      f"({len(spec.features)} x {windows[0].shape[0]} channels)")

# stage 4+5: scale on the training trials only, then reduce
held_out = 6
train_mask = trials != held_out
norm_train, bounds = normalize_features(X[train_mask])
norm_test, _ = normalize_features(X[~train_mask], bounds)
projection = fit_ulda(norm_train, labels[train_mask])
z_train = project(projection, norm_train)
z_test = project(projection, norm_test)
print(f"reduced: {X.shape[1]} -> {projection.d_out} dimensions; "
      f"projected training variance per dim = "
      f"{np.var(z_train, axis=0).round(6)[:3]}...")

# stage 6: one fold, all three classifiers
print(f"\nfold with trial {held_out} held out "
      f"({train_mask.sum()} train / {(~train_mask).sum()} test windows):")
for kind in ("qda", "svm", "knn"):
    model = train(ModelSpec(kind=kind), z_train, labels[train_mask])
    acc = float(np.mean(model.predict(z_test) == labels[~train_mask]))
    print(f"  {kind}: fold accuracy {acc:.3f}")

# the full protocol: every trial serves once as the test fold
print("\nleave-one-trial-out, all folds:")
for kind in ("qda", "svm", "knn"):
    report = crossvalidate(recordings, spec, ModelSpec(kind=kind))
    mean, std = report.summary()["f1"]
    print(f"  {kind}: macro F1 = {mean:.4f} +/- {std:.4f}")
