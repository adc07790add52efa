"""Single-channel feature values read through `extract`, the package's one
per-window call: a channel `x` is the one-channel window `x[None]`."""

import numpy as np

from emgpr.features import FeatureSetSpec, Thresholds, extract


def channel_values(features, x, thresholds=Thresholds()) -> np.ndarray:
    """Values of a feature list on one window channel, in list order."""
    spec = FeatureSetSpec("CUSTOM", tuple(features))
    return extract(spec, np.asarray(x, dtype=float)[None], thresholds).values


def channel_feature(fid, x, thresholds=Thresholds()) -> float:
    """One catalog feature of one window channel."""
    return float(channel_values((fid,), x, thresholds)[0])


def ar_fit(x, order) -> np.ndarray:
    """AR coefficients a_1..a_order of one channel from one fit of that order."""
    return channel_values([f"AR{lag}" for lag in range(1, order + 1)], x)
