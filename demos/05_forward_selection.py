#!/usr/bin/env python3
"""Build a feature set greedily and audit every step of the search.

On a dataset where channel amplitude is the only class cue, the first
feature picked must be an amplitude measure; later additions are accepted
only when they raise the cross-validated objective by at least 0.25
percentage points.  The printed trace shows each candidate, the score it
was compared against, and whether it was kept.
"""

from emgpr import (
    ModelSpec,
    SelectionConfig,
    SyntheticSpec,
    forward_select,
    generate_synthetic,
    separable_gain_grid,
)

spec = SyntheticSpec(
    n_subjects=1, n_channels=2, n_movements=5, n_trials=3,
    duration_s=2.0, sample_rate_hz=2000.0,
    class_gain_matrix=separable_gain_grid(5, 2, 2.0), seed=9,
)
recordings = generate_synthetic(spec)

pool = ("ZC", "SSC", "SKW", "MOB", "COM", "RMS", "LMAV", "NSV", "WL", "AR1")
cfg = SelectionConfig(
    pool=pool,
    improvement_threshold=0.25,
    objective="f1",
    model_spec=ModelSpec(kind="qda"),
)
print(f"pool: {', '.join(pool)}")
print(f"objective: macro F1 (percent), accept at >= {cfg.improvement_threshold} "
      "point improvement\n")

trace = forward_select(recordings, cfg)
print(trace.table())
print("\namplitude carries the classes here, so the search seeds with an "
      "amplitude feature and stops once the remaining candidates add nothing.")
