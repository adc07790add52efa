#!/usr/bin/env python3
"""Window-length and noise-level sweeps on a moderately hard dataset.

Uses amplitude-only classes at low contrast so the scores move visibly.
The window sweep covers 50..350 ms in 50 ms steps; the noise sweep mixes
calibrated white noise into the raw signal from 0 to 20 dB before the
filters.  Each grid is one `sweep` call over both feature sets, so the two
sets read one feature table at each grid point.  Both emit a tidy table;
the evaluation harness writes the same numbers as long-format CSV via the
command-line interface.
"""

from emgpr import (
    ModelSpec,
    SyntheticSpec,
    feature_set,
    generate_synthetic,
    separable_gain_grid,
    sweep,
    with_lmav_nsv,
)
from emgpr.evaluate import DEFAULT_WINDOW_SIZES

spec = SyntheticSpec(
    n_subjects=1, n_channels=2, n_movements=10, n_trials=6,
    duration_s=5.0, sample_rate_hz=2000.0,
    class_gain_matrix=separable_gain_grid(10, 2, 1.6), seed=5,
)
recordings = generate_synthetic(spec)
model = ModelSpec(kind="knn")
base_set = feature_set("FS2")
sets = [base_set, with_lmav_nsv(base_set)]

print("window sweep (knn, FS2 vs FS2+LMAV+NSV, macro F1):")
print(f"{'window':>8} {'FS2':>16} {'FS2+LMAV+NSV':>16}")
reports = sweep(recordings, sets, model, "window_ms", DEFAULT_WINDOW_SIZES)
# one report per set at each grid value, in set order
for rb, rp in zip(reports[::2], reports[1::2]):
    mb, sb = rb.summary()["f1"]
    mp, sp = rp.summary()["f1"]
    print(f"{rb.window_ms:>6.0f}ms {mb:>8.4f}±{sb:.4f} {mp:>8.4f}±{sp:.4f}")

print("\nnoise sweep at 250 ms (knn, macro F1), 0..20 dB in 4 dB steps:")
print(f"{'SNR':>6} {'FS2':>16} {'FS2+LMAV+NSV':>16}")
snrs = tuple(float(v) for v in range(0, 21, 4))
reports = sweep(recordings, sets, model, "snr_db", snrs, seed=3)
for rb, rp in zip(reports[::2], reports[1::2]):
    mb, sb = rb.summary()["f1"]
    mp, sp = rp.summary()["f1"]
    print(f"{rb.snr_db:>4.0f}dB {mb:>8.4f}±{sb:.4f} {mp:>8.4f}±{sp:.4f}")
