"""Per-channel reference of the synthetic generator.

Draws, filters and normalises one channel at a time through a scalar
unit-RMS step, the way `generate_synthetic` was first written, so the
vectorised generator can be checked against it byte for byte.  Returns
plain (subject, movement, trial, sample_rate_hz, channels) tuples and uses
no package code but the movement labels and the seed derivation.
"""

import math

import numpy as np
from scipy import signal

from emgpr.dataset import MOVEMENTS
from emgpr.seeding import derive_seed


def ref_generate(spec) -> list:
    low, high = spec.band
    nyq = spec.sample_rate_hz / 2.0
    sos_band = signal.butter(4, [low / nyq, high / nyq], btype="bandpass",
                             output="sos")
    sos_pairs = None
    if spec.class_tilt_matrix is not None:
        sos_pairs = [
            (
                signal.butter(4, [low / nyq, split / nyq], btype="bandpass",
                              output="sos"),
                signal.butter(4, [split / nyq, high / nyq], btype="bandpass",
                              output="sos"),
            )
            for split in spec.tilt_splits_hz
        ]

    def unit_rms(x):
        rms = math.sqrt(float(np.mean(x * x)))
        return x / rms if rms > 0 else x

    n = int(round(spec.duration_s * spec.sample_rate_hz))
    out = []
    for s in range(spec.n_subjects):
        subject = f"S{s + 1}"
        for m in range(spec.n_movements):
            movement = MOVEMENTS[m]
            gains = spec.class_gain_matrix[m]
            for t in range(1, spec.n_trials + 1):
                rng = np.random.default_rng(
                    derive_seed(spec.seed, "synth", subject, movement, t)
                )
                channels = np.empty((spec.n_channels, n))
                for c in range(spec.n_channels):
                    white = rng.standard_normal(n)
                    if sos_pairs is None:
                        x = unit_rms(signal.sosfilt(sos_band, white))
                    else:
                        sos_low, sos_high = sos_pairs[c]
                        tilt = spec.class_tilt_matrix[m][c]
                        x = unit_rms(
                            tilt * unit_rms(signal.sosfilt(sos_low, white))
                            + (1.0 - tilt)
                            * unit_rms(signal.sosfilt(sos_high, white))
                        )
                    channels[c] = gains[c] * x
                out.append((subject, movement, t, spec.sample_rate_hz, channels))
    return out
