#!/usr/bin/env python3
"""Why log-compressed amplitude features separate weak signals better.

Two linear-amplitude windows at gains g and 2g always differ by the same
ratio, but their absolute MAV gap shrinks as g drops, while the LMAV gap is
ln(sqrt(2)) at every level.  The script prints both gaps across amplitude
decades, demonstrates the exact scale identity, and shows NSV reacting to
waveform shape where MAV cannot.
"""

import math
from functools import partial

import numpy as np

from emgpr import extract, feature_set


def channel_feature(fid, x):
    """One feature of one window channel: `extract` of the window x[None]."""
    return extract(feature_set("CUSTOM", [fid]), x[None]).values[0]


lmav = partial(channel_feature, "LMAV")
nsv = partial(channel_feature, "NSV")

rng = np.random.default_rng(0)
base = rng.standard_normal(500)
base /= np.mean(np.abs(base))  # MAV exactly 1

print("adjacent-class gaps when the class gain halves each row")
print(f"{'gain':>10} {'MAV gap':>12} {'LMAV gap':>12}")
for level in range(6):
    g = 2.0 ** -level
    weak, strong = g * base, 2.0 * g * base
    mav_gap = np.mean(np.abs(strong)) - np.mean(np.abs(weak))
    lmav_gap = lmav(strong) - lmav(weak)
    print(f"{g:>10.4f} {mav_gap:>12.5f} {lmav_gap:>12.5f}")
print("-> the linear gap collapses with the signal level; the log gap is flat\n")

a = 0.125
print("scale identity: lmav(a*x) - lmav(x) == ln(sqrt(a))")
print(f"  a = {a}: {lmav(a * base) - lmav(base):+.12f} "
      f"vs ln(sqrt(a)) = {math.log(math.sqrt(a)):+.12f}\n")

# NSV measures the spread between a window's mean amplitude and the cube
# roots of its samples, so two windows with identical MAV but different
# amplitude distributions get different NSV values.
spiky = np.zeros(500)
spiky[::10] = 10.0  # sparse bursts, MAV = 1
flat = np.ones(500)  # constant amplitude, MAV = 1
print("same MAV, different shapes:")
print(f"  {'window':<14} {'MAV':>6} {'NSV':>10}")
for name, x in (("sparse bursts", spiky), ("constant", flat)):
    print(f"  {name:<14} {np.mean(np.abs(x)):>6.3f} {nsv(x):>10.4f}")
