import math
import re
from functools import partial

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from emgpr import features
from emgpr.errors import UnknownFeature, WindowTooShort
from emgpr.features import (
    CATALOG,
    EPS,
    FEATURE_SET_NAMES,
    FeatureSetSpec,
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

    @pytest.mark.parametrize("make", [
        lambda: FeatureSetSpec("X", "MAV"),
        lambda: feature_set("CUSTOM", "RMS"),
    ], ids=["spec", "custom"])
    def test_a_string_of_ids_is_refused(self, make):
        # a string is iterable, and would read as one id per letter
        with pytest.raises(ValueError, match="^features must be a list of feature ids, got '"):
            make()
        assert feature_set("CUSTOM", ["RMS"]) == FeatureSetSpec("CUSTOM", ("RMS",))

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
        th = Thresholds()
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


def branch_windows(count, n=256, channels=2):
    """Random windows of mixed scale with the kernels' branch cases at
    positions 1-3: all zeros, a constant (var < EPS, so SKW, MOB and COM give
    0) and, on channel 1, a slow ramp whose Levinson recursion stops after its
    first step, next to random channels."""
    rng = np.random.default_rng(11)
    ramp = 1e-6 * np.linspace(1.0, 2.0, n)
    special = {
        1: np.zeros((channels, n)),
        2: np.full((channels, n), 0.5),
        3: np.vstack([ramp, rng.standard_normal((channels - 1, n))]),
    }
    windows = []
    for i in range(count):
        samples = special.get(i)
        if samples is None:
            samples = 10.0 ** rng.uniform(-3, 1) * rng.standard_normal((channels, n))
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

    # A window is a block of one row per channel, and `extract_matrix` blocks
    # hold count x channels rows: these straddle `_levinson`'s switch from the
    # per-row to the vectorised recursion, which the cells, each a one-row
    # block, are compared against.
    @pytest.mark.parametrize("count, channels, n", [
        pytest.param(1, 2, 256, id="1"),
        pytest.param(7, 2, 256, id="7"),
        pytest.param(300, 2, 256, id="300"),
        pytest.param(2, 2, 255, id="2x2ch-255"),
        pytest.param(4, 2, 256, id="4x2ch-256"),
        pytest.param(4, 3, 255, id="4x3ch-255"),
        pytest.param(4, 4, 256, id="4x4ch-256"),
        pytest.param(4, 5, 255, id="4x5ch-255"),
        pytest.param(4, 8, 256, id="4x8ch-256"),
    ])
    def test_rows_equal_single_window_and_cell_calls(self, count, channels, n):
        windows = branch_windows(count, n, channels)
        for spec in self.SETS:
            th = Thresholds()
            order = max((int(f[2:]) for f in spec.features if f.startswith("AR")), default=0)
            matrix = extract_matrix(spec, windows)
            assert matrix.shape == (count, channels * len(spec))
            # a stacked (count, channels, n) array, as `segment` returns, gives the same rows
            assert np.array_equal(extract_matrix(spec, np.stack(windows)), matrix)
            for row, window in zip(matrix, windows):
                assert np.array_equal(row, extract(spec, window).values), spec.features
                cells = row.reshape(channels, len(spec))
                for ch, x in enumerate(window):
                    for value, fid in zip(cells[ch], spec.features):
                        # a set reads its AR lags off one fit at its largest lag
                        want = (ar_fit(x, order)[int(fid[2:]) - 1]
                                if fid.startswith("AR") else channel_feature(fid, x, th))
                        assert value == want, (spec.features, fid)

    @pytest.mark.parametrize("count, channels, n", [
        (3, 0, 500), (0, 2, 500), (0, 0, 500), (3, 0, 4), (0, 2, 4), (3, 2, 0), (0, 0, 0),
    ])
    def test_stack_without_windows_channels_or_samples(self, count, channels, n):
        # once a ZeroDivisionError (no channel or sample) or a failed
        # concatenate (no window): the matrix has a row per window and a
        # column per channel and feature, and a window too short for the set
        # raises what `extract` of one raises
        for spec in self.SETS:
            try:
                row = extract(spec, np.zeros((channels, n))).values
            except WindowTooShort as exc:
                with pytest.raises(WindowTooShort, match=f"^{re.escape(str(exc))}$"):
                    extract_matrix(spec, np.zeros((count, channels, n)))
            else:
                matrix = extract_matrix(spec, np.zeros((count, channels, n)))
                assert matrix.shape == (count, len(row)) == (count, channels * len(spec))

    @pytest.mark.parametrize("windows, shape", [
        ([], (0,)),  # an empty list cannot say its channels or length
        (np.zeros((2, 500)), (2, 500)),  # one window, not a stack of them
        (np.zeros((1, 3, 2, 500)), (1, 3, 2, 500)),
    ])
    def test_input_that_is_not_3d_names_its_shape(self, windows, shape):
        message = (r"^windows must be a \(windows, channels, n\) array, got shape "
                   + re.escape(str(shape)) + "$")
        with pytest.raises(ValueError, match=message):
            extract_matrix(feature_set("FS2"), windows)


def levinson_exit(x, order):
    """The step at which the Levinson-Durbin recursion of one channel stops,
    in plain floats: 0 when r_0 <= EPS, k when the prediction error falls to
    EPS after k steps (so the fit keeps k coefficients), order otherwise."""
    n = len(x)
    r = [sum(x[i] * x[i + lag] for i in range(n - lag)) / n for lag in range(order + 1)]
    if r[0] <= EPS:
        return 0
    a, err = [], r[0]
    for k in range(order):
        kappa = (r[k + 1] - sum(a[j] * r[k - j] for j in range(k))) / err
        a = [a[j] - kappa * a[k - 1 - j] for j in range(k)] + [kappa]
        err *= 1.0 - kappa * kappa
        if err <= EPS:
            return k + 1
    return order


def early_exit_channels(n=256):
    """Channels whose prediction error collapses after one to five steps,
    each at power-of-two scales (exact in floating point), so that between
    them they leave the recursion at every step; plus an all-zero channel."""
    t = np.arange(n)
    bases = [
        np.linspace(1.0, 2.0, n),
        np.sin(0.3 * t),
        np.sin(0.3 * t) + np.sin(1.1 * t),
        np.sin(0.2 * t) + np.sin(0.9 * t) + (t / n) ** 2,
        np.sin(0.5 * t) + 0.5 * np.sin(1.7 * t) + t / n,
        np.sin(0.3 * t) + np.sin(1.1 * t) + np.sin(2.3 * t),
    ]
    return np.array([2.0 ** m * b for b in bases for m in range(-24, -10)] + [np.zeros(n)])


class TestLevinsonEarlyExit:
    """Rows that leave the AR recursion early, at every step, in blocks of
    every size: each row equals its channel extracted alone, bit for bit,
    and holds zeros after its exit step."""

    @staticmethod
    def ar_set(order):
        return feature_set("CUSTOM", [f"AR{lag}" for lag in range(1, order + 1)])

    def check_rows(self, spec, order, xs, values):
        for x, row in zip(xs, values):
            alone = extract(spec, x[None]).values
            assert row.tobytes() == alone.tobytes()
            step = levinson_exit(x.tolist(), order)
            assert not row[step:].any(), (step, row)
            assert step == 0 or row[step - 1] != 0.0

    @pytest.mark.parametrize("order", [4, 6])
    def test_exit_at_every_step_in_one_block(self, order):
        spec, xs = self.ar_set(order), early_exit_channels()
        assert xs.size <= features._CHUNK_SAMPLES  # one block
        steps = {levinson_exit(x.tolist(), order) for x in xs}
        assert set(range(order)) <= steps
        matrix = extract_matrix(spec, xs[:, None, :])
        self.check_rows(spec, order, xs, matrix)

    @pytest.mark.parametrize("order", [4, 6])
    def test_block_where_every_row_leaves_early(self, order):
        spec, xs = self.ar_set(order), early_exit_channels()
        early = np.array([x for x in xs if levinson_exit(x.tolist(), order) < order])
        assert len(early) > 2
        self.check_rows(spec, order, early, extract_matrix(spec, early[:, None, :]))
        # and a block with no rows at all: a window without channels
        assert extract(spec, early[:0]).values.shape == (0,)

    @pytest.mark.parametrize("rows, n", [(2, 256), (3, 255), (4, 256), (5, 255), (8, 256)])
    def test_blocks_of_few_rows(self, rows, n):
        order = 6
        spec, xs = self.ar_set(order), early_exit_channels(n)
        # a window of c channels is a block of c rows, on either side of
        # `_levinson`'s switch to the vectorised recursion: put each channel
        # first in a window with the channels after it and with its mirror
        # and the channels before that
        after = np.arange(rows)
        for i in range(len(xs)):
            self.check_rows(spec, order, xs[i : i + 1], [extract(spec, xs[i][None]).values])
            mirror = len(xs) - 1 - i - after[:-1]
            for picked in ((i + after) % len(xs), np.r_[i, mirror % len(xs)]):
                block = extract(spec, xs[picked]).values.reshape(rows, order)
                self.check_rows(spec, order, xs[picked], block)


class TestPlanCache:
    """A feature list's plan is resolved once and reused; it must not go stale."""

    @pytest.mark.parametrize("ids, n, named", [
        (feature_set("PROPOSED").features, 8, "AR4"),
        (("MAV", "COM", "AR2"), 4, "AR2"),
        (("MAV", "SSC", "COM"), 3, "COM"),
        (("MAV", "SSC", "COM"), 2, "SSC"),
        (("SSC", "AR1"), 2, "AR1"),  # the fit order is checked before the list
        (("M0", "ZC"), 4, "M0"),
        (("MAV", "RMS"), 0, "MAV"),
    ])
    def test_short_window_still_rejected_after_a_long_one(self, ids, n, named):
        spec = feature_set("CUSTOM", ids)
        rng = np.random.default_rng(7)
        for _ in range(2):  # the second pass finds the plan already made
            long_window = rng.standard_normal((2, 400))
            assert extract(spec, long_window).values.shape == (2 * len(spec),)
            with pytest.raises(WindowTooShort) as caught:
                extract(spec, rng.standard_normal((2, n)))
            assert caught.value.feature_id == named

    @pytest.mark.parametrize("name", ["PROPOSED", "FS1", "FS4"])
    def test_reordered_ids_give_permuted_columns(self, name):
        ids = feature_set(name).features
        perm = np.random.default_rng(len(ids)).permutation(len(ids))
        windows = np.stack(branch_windows(40))
        base = extract_matrix(feature_set(name), windows).reshape(40, 2, len(ids))
        for order in (perm, perm[::-1]):
            spec = feature_set("CUSTOM", [ids[i] for i in order])
            moved = extract_matrix(spec, windows).reshape(40, 2, len(ids))
            assert moved.tobytes() == np.ascontiguousarray(base[:, :, order]).tobytes()


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



#: How each catalog feature moves when a window is scaled by c and the
#: counting thresholds with it (ZC, WAMP and MYOP by c, SSC by c²).
SCALE_INVARIANT = (
    "WAMP", "ZC", "SSC", "MYOP", "SKW", "MOB", "COM",
    "AR1", "AR2", "AR3", "AR4", "AR5", "AR6",
    "IRREGULARITY_FACTOR", "SPARSENESS", "WL_RATIO",
)
#: f(c x) = c**degree f(x)
HOMOGENEOUS = {"MAV": 1, "IEMG": 1, "WL": 1, "VAR": 2, "RMS": 1, "LOG": 1,
               "DAMV": 1, "DASDV": 1, "TKEO": 2}
#: f(c x) = f(x) + k ln c, the same k for every window
LOG_SHIFT = {"MFL": 1 / math.log(10), "M0": 0.1, "M2": 0.1, "M4": 0.1, "LMAV": 0.5}


class TestScalingClasses:
    @pytest.fixture(scope="class")
    def windows(self):
        from emgpr import generate_synthetic, separable_spec
        from emgpr.preprocess import segment

        recs = generate_synthetic(separable_spec(n_movements=4, n_trials=1,
                                                 duration_s=1.0, seed=3))
        return np.concatenate([segment(r, 250.0) for r in recs])  # (16, 2, 500)

    @staticmethod
    def table(windows, c):
        th = Thresholds()
        scaled = Thresholds(zc=c * th.zc, ssc=c * c * th.ssc, wamp=c * th.wamp,
                            myop=c * th.myop)
        values = extract_matrix(feature_set("CUSTOM", CATALOG), c * windows, scaled)
        return {fid: values.reshape(windows.shape[:2] + (-1,))[..., i]
                for i, fid in enumerate(CATALOG)}

    @pytest.mark.parametrize("c", [1e-3, 10.0])
    def test_every_feature_has_its_class(self, windows, c):
        classes = [*SCALE_INVARIANT, *HOMOGENEOUS, *LOG_SHIFT, "COV", "NSV"]
        assert sorted(classes) == sorted(CATALOG)
        base, moved = self.table(windows, 1.0), self.table(windows, c)
        for fid in SCALE_INVARIANT:
            np.testing.assert_allclose(moved[fid], base[fid], rtol=1e-8, atol=0, err_msg=fid)
        for fid, degree in HOMOGENEOUS.items():
            np.testing.assert_allclose(moved[fid], c ** degree * base[fid], rtol=1e-7,
                                       atol=0, err_msg=fid)
        for fid, k in LOG_SHIFT.items():
            np.testing.assert_allclose(moved[fid] - base[fid], k * math.log(c), rtol=0,
                                       atol=1e-8, err_msg=fid)
        # COV = std / (|mean| + EPS), so scaling moves only the guard:
        # COV(c x) (|mean| + EPS / c) = COV(x) (|mean| + EPS)
        mean = np.abs(windows.mean(axis=2))
        np.testing.assert_allclose(moved["COV"] * (mean + EPS / c),
                                   base["COV"] * (mean + EPS), rtol=1e-12, atol=0)

    def test_nsv_is_in_no_class(self):
        # NSV subtracts sample cube roots (units^(1/3)) from the window MAV
        # (units), so two windows scaled alike move apart: the shifts differ
        # (not invariant, not a constant log shift) and so do the ratios (not
        # homogeneous of any degree)
        c = 1e-3
        a, b = np.array([1.0, 8.0]), np.array([1.0, 27.0])
        assert nsv(a) == pytest.approx(0.5 * math.log(9.25), rel=1e-12)  # dev 3.5, 2.5
        shift = [nsv(c * w) - nsv(w) for w in (a, b)]
        ratio = [nsv(c * w) / nsv(w) for w in (a, b)]
        assert shift == pytest.approx([-2.984, -4.043], abs=1e-3)
        assert ratio == pytest.approx([-1.683, -0.625], abs=1e-3)
