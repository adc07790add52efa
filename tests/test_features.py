import math
from functools import partial

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from emgpr.errors import UnknownFeature, WindowTooShort
from emgpr.features import (
    CATALOG,
    FEATURE_SET_NAMES,
    Thresholds,
    extract,
    extract_matrix,
    feature_set,
    with_lmav_nsv,
)

from channel_features import ar_fit, channel_feature
from reference_features import ref_ar, ref_feature

E2 = math.e ** 2

lmav = partial(channel_feature, "LMAV")
nsv = partial(channel_feature, "NSV")


def make_window(samples):
    return np.asarray(samples, dtype=float)


def random_windows(n, rng):
    """Mixed lengths and amplitude scales, occasional weak signals."""
    for _ in range(n):
        length = int(rng.integers(50, 200))
        scale = 10.0 ** rng.uniform(-3, 1)
        yield scale * rng.standard_normal(length)


class TestClosedForms:
    def test_lmav_all_ones(self):
        assert lmav(np.array([1.0, 1.0, 1.0, 1.0])) == 0.0

    def test_lmav_e_squared(self):
        assert lmav(np.array([E2, E2, -E2, -E2])) == pytest.approx(1.0, abs=1e-12)

    def test_lmav_zero_window_clamps(self):
        assert lmav(np.zeros(4)) == pytest.approx(math.log(1e-6), abs=1e-9)

    def test_lmav_scale_identity_exact(self):
        # powers of two keep MAV arithmetic exact, so the identity is bit-exact
        x = np.array([1.0, 1.0, 1.0, 1.0])
        assert lmav(0.25 * x) - lmav(x) == math.log(math.sqrt(0.25))

    def test_lmav_scale_identity_random(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            x = rng.standard_normal(64) * 10.0 ** rng.uniform(-2, 2)
            a = float(rng.uniform(0.05, 0.95))
            got = lmav(a * x) - lmav(x)
            assert got == pytest.approx(math.log(math.sqrt(a)), abs=1e-12)

    def test_lmav_monotone_in_mav(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            x = rng.standard_normal(32)
            y = rng.standard_normal(32)
            mav_x, mav_y = np.mean(np.abs(x)), np.mean(np.abs(y))
            if mav_x < mav_y:
                assert lmav(x) < lmav(y)
            elif mav_y < mav_x:
                assert lmav(y) < lmav(x)

    def test_nsv_eights(self):
        assert nsv(np.array([8.0, 8.0, 8.0, 8.0])) == pytest.approx(
            math.log(6.0), abs=1e-12
        )

    def test_nsv_zero_deviation_clamps(self):
        # unit samples: MAV equals every cube root, deviation collapses
        assert nsv(np.ones(4)) == pytest.approx(math.log(1e-6), abs=1e-9)

    def test_nsv_zero_one(self):
        assert nsv(np.array([0.0, 1.0])) == pytest.approx(math.log(0.5), abs=1e-12)

    def test_lmav_nsv_permutation_invariant(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal(50)
        shuffled = rng.permutation(x)
        assert lmav(shuffled) == pytest.approx(lmav(x), rel=1e-12)
        assert nsv(shuffled) == pytest.approx(nsv(x), rel=1e-12)


class TestCatalogOracle:
    def test_every_feature_matches_bruteforce(self):
        th = Thresholds()
        rng = np.random.default_rng(12345)
        windows = list(random_windows(1000, rng))
        for fid in CATALOG:
            for x in windows:
                got = channel_feature(fid, x, th)
                want = ref_feature(fid, x.tolist(), th)
                assert got == pytest.approx(want, rel=1e-9, abs=1e-12), fid

    def test_hand_checks(self):
        th = Thresholds(zc=0.0)
        assert channel_feature("ZC", np.array([1.0, -1, 1, -1, 1]), th) == 4
        assert channel_feature("SKW", np.array([-2.0, -1, 0, 1, 2])) == 0.0

    def test_ar1_consistency_on_simulated_process(self):
        rng = np.random.default_rng(7)
        x = np.zeros(4000)
        for t in range(1, 4000):
            x[t] = 0.9 * x[t - 1] + rng.standard_normal()
        assert channel_feature("AR1", x) == pytest.approx(0.9, abs=0.05)

    def test_tdpsd_scale_sensitivity(self):
        rng = np.random.default_rng(8)
        x = rng.standard_normal(500)
        th = Thresholds()
        for a in (0.1, 0.37, 3.0):
            for fid in ("IRREGULARITY_FACTOR", "WL_RATIO"):
                assert channel_feature(fid, a * x, th) == pytest.approx(
                    channel_feature(fid, x, th), abs=1e-9
                )

    def test_tdpsd_zero_window_finite(self):
        th = Thresholds()
        values = [
            channel_feature(fid, np.zeros(16), th)
            for fid in ("M0", "M2", "M4", "SPARSENESS", "IRREGULARITY_FACTOR",
                        "WL_RATIO")
        ]
        assert all(np.isfinite(values))
        assert len(set(values)) == 1

    def test_window_too_short(self):
        with pytest.raises(WindowTooShort):
            channel_feature("AR6", np.ones(10))
        with pytest.raises(WindowTooShort):
            channel_feature("SSC", np.ones(2))

    def test_unknown_feature(self):
        with pytest.raises(UnknownFeature):
            channel_feature("MNF", np.ones(8))


class TestFeatureSets:
    def test_registry_contents(self):
        assert feature_set("FS1").features == (
            "RMS", "AR1", "AR2", "AR3", "AR4", "AR5", "AR6")
        assert feature_set("FS2").features == (
            "IEMG", "WL", "WAMP", "ZC", "SSC", "VAR")
        assert feature_set("FS3").features == (
            "M0", "M2", "M4", "SPARSENESS", "IRREGULARITY_FACTOR", "WL_RATIO")
        assert feature_set("FS4").features == (
            "M0", "M2", "M4", "IRREGULARITY_FACTOR", "SPARSENESS", "COV", "TKEO")
        assert feature_set("PROPOSED").features == (
            "LMAV", "NSV", "WL", "WAMP", "SSC", "ZC", "MOB", "COM", "SKW",
            "AR1", "AR2", "AR3", "AR4")

    @pytest.mark.parametrize("name", ["FS9", 3, None])
    def test_unknown_set_name_rejected(self, name):
        with pytest.raises(UnknownFeature, match="unknown feature set"):
            feature_set(name)

    def test_catalog_size(self):
        assert len(CATALOG) == 32

    def test_catalog_order(self):
        # forward selection breaks ties by catalog order
        assert CATALOG == (
            "MAV", "IEMG", "WL", "WAMP", "ZC", "SSC", "VAR", "RMS", "LOG",
            "DAMV", "DASDV", "MYOP", "SKW", "MOB", "COM", "MFL",
            "AR1", "AR2", "AR3", "AR4", "AR5", "AR6",
            "M0", "M2", "M4", "IRREGULARITY_FACTOR", "SPARSENESS", "WL_RATIO",
            "COV", "TKEO", "LMAV", "NSV",
        )

    @pytest.mark.parametrize("level", ["x", None, True, -1, -1e-9, math.nan, math.inf])
    def test_bad_threshold_level_rejected(self, level):
        with pytest.raises(ValueError, match="wamp"):
            Thresholds(wamp=level)

    @pytest.mark.parametrize("name,per_channel", [
        ("FS1", 7), ("FS2", 6), ("FS3", 6), ("FS4", 7), ("PROPOSED", 13),
    ])
    def test_extract_lengths_two_channels(self, name, per_channel):
        rng = np.random.default_rng(0)
        window = make_window(rng.standard_normal((2, 500)))
        vec = extract(feature_set(name), window)
        assert len(vec.values) == per_channel * 2
        assert np.all(np.isfinite(vec.values))

    def test_extract_channel_major_order(self):
        rng = np.random.default_rng(1)
        samples = rng.standard_normal((2, 300))
        spec = feature_set("CUSTOM", ["MAV", "RMS"])
        vec = extract(spec, make_window(samples))
        th = spec.thresholds
        assert vec.values[0] == channel_feature("MAV", samples[0], th)
        assert vec.values[1] == channel_feature("RMS", samples[0], th)
        assert vec.values[2] == channel_feature("MAV", samples[1], th)
        assert vec.values[3] == channel_feature("RMS", samples[1], th)

    def test_grouped_ar_shares_one_model_fit(self):
        # a set asking for AR1..AR4 reads all lags off a single 4th-order fit
        rng = np.random.default_rng(2)
        samples = rng.standard_normal((1, 400))
        spec = feature_set("CUSTOM", ["AR1", "AR2", "AR3", "AR4"])
        vec = extract(spec, make_window(samples))
        assert np.allclose(vec.values, ref_ar(samples[0].tolist(), 4))

    def test_with_lmav_nsv_extends_any_base(self):
        rng = np.random.default_rng(6)
        window = make_window(rng.standard_normal((2, 200)))
        for name in ("FS1", "FS2", "FS3", "FS4"):
            base = feature_set(name)
            bigger = with_lmav_nsv(base)
            assert bigger.features == base.features + ("LMAV", "NSV")
            assert bigger.name == "CUSTOM"
            # vectors grow by exactly two values per channel
            assert len(extract(bigger, window).values) == \
                len(extract(base, window).values) + 2 * 2

    def test_custom_requires_features(self):
        with pytest.raises(ValueError):
            feature_set("CUSTOM")


def branch_windows(count, n=256):
    """Random windows of mixed scale with the kernels' branch cases at
    positions 1-3: all zeros, a constant (var < EPS, so SKW, MOB and COM give
    0) and, on channel 1, a slow ramp whose Levinson recursion stops after its
    first step, next to a random channel 2."""
    rng = np.random.default_rng(11)
    ramp = 1e-6 * np.linspace(1.0, 2.0, n)
    special = {
        1: np.zeros((2, n)),
        2: np.full((2, n), 0.5),
        3: np.vstack([ramp, rng.standard_normal(n)]),
    }
    windows = []
    for i in range(count):
        samples = special.get(i)
        if samples is None:
            samples = 10.0 ** rng.uniform(-3, 1) * rng.standard_normal((2, n))
        windows.append(make_window(samples))
    return windows


class TestBlockIndependence:
    """A row of `extract_matrix` depends on its window only: never on the
    other windows of its block, the block size or the row's position."""

    SETS = [feature_set(name) for name in FEATURE_SET_NAMES if name != "CUSTOM"] + [
        feature_set("CUSTOM", [fid]) for fid in CATALOG
    ]

    def test_branch_cases_are_reached(self):
        windows = branch_windows(4)
        coefficients = ar_fit(windows[3][0], 4)
        assert coefficients[0] != 0.0 and not coefficients[1:].any()
        for fid in ("SKW", "MOB", "COM"):
            assert channel_feature(fid, windows[2][0]) == 0.0

    @pytest.mark.parametrize("count", [1, 7, 300])
    def test_rows_equal_single_window_and_cell_calls(self, count):
        windows = branch_windows(count)
        for spec in self.SETS:
            th = spec.thresholds
            order = max((int(f[2:]) for f in spec.features if f.startswith("AR")), default=0)
            matrix = extract_matrix(spec, windows)
            assert matrix.shape == (count, 2 * len(spec))
            # a stacked (count, 2, n) array, as `segment` returns, gives the same rows
            assert np.array_equal(extract_matrix(spec, np.stack(windows)), matrix)
            for row, window in zip(matrix, windows):
                assert np.array_equal(row, extract(spec, window).values), spec.features
                cells = row.reshape(2, len(spec))
                for ch, x in enumerate(window):
                    for value, fid in zip(cells[ch], spec.features):
                        # a set reads its AR lags off one fit at its largest lag
                        want = (ar_fit(x, order)[int(fid[2:]) - 1]
                                if fid.startswith("AR") else channel_feature(fid, x, th))
                        assert value == want, (spec.features, fid)


#: Window channels of 8-64 samples.  Magnitudes below 1e-100 are set to 0,
#: so no product of two scaled samples or differences underflows.
channels = arrays(
    np.float64,
    st.integers(8, 64),
    elements=st.floats(-1e3, 1e3, allow_subnormal=False).map(
        lambda v: v if abs(v) > 1e-100 else 0.0
    ),
)
#: Powers of two: scaling by one is exact in floating point.
power_of_two = st.integers(-20, 20).map(lambda k: 2.0 ** k)
gate = st.floats(1e-6, 10.0)


class TestProperties:
    @settings(derandomize=True, deadline=None)
    @given(x=channels, c=st.floats(1e-3, 1e3))
    def test_lmav_shifts_by_half_log_of_scale(self, x, c):
        mav = float(np.mean(np.abs(x)))
        assume(mav >= 1e-3 and c * mav >= 1e-3)  # far above the EPS clamp
        assert lmav(c * x) - lmav(x) == pytest.approx(0.5 * math.log(c), abs=1e-12)

    @settings(derandomize=True, deadline=None)
    @given(x=channels, c=power_of_two, zc=gate, ssc=gate, wamp=gate, myop=gate)
    def test_counts_unchanged_when_window_and_thresholds_scale(
        self, x, c, zc, ssc, wamp, myop
    ):
        th = Thresholds(zc=zc, ssc=ssc, wamp=wamp, myop=myop)
        # SSC gates a product of two differences, so its level is in squared units
        scaled = Thresholds(zc=c * zc, ssc=c * c * ssc, wamp=c * wamp, myop=c * myop)
        for fid in ("ZC", "SSC", "WAMP", "MYOP"):
            assert channel_feature(fid, c * x, scaled) == channel_feature(fid, x, th), fid

