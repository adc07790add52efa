import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import signal as sps

from emgpr.dataset import Recording, sosfilt_rows
from emgpr.errors import DimensionMismatch, NyquistViolation, WindowLongerThanTrial
from emgpr.preprocess import (
    FilterSpec,
    MinMax,
    apply_filters,
    design_filters,
    normalize_features,
    segment,
    window_grid,
)


def tone_recording(freq_hz, fs=2000.0, duration_s=10.0, amplitude=1.0):
    t = np.arange(int(duration_s * fs)) / fs
    x = amplitude * np.sin(2 * math.pi * freq_hz * t)
    return Recording("S1", "T", 1, fs, x[None, :])


def steady_rms(x, fs, discard_s=2.0):
    tail = x[int(discard_s * fs):]
    return float(np.sqrt(np.mean(tail**2)))


class TestFilters:
    def test_notch_kills_mains_tone(self):
        rec = tone_recording(50.0)
        out = apply_filters(rec)
        assert steady_rms(out.channels[0], 2000.0) <= 0.03 * steady_rms(
            rec.channels[0], 2000.0
        )

    def test_midband_tone_passes(self):
        rec = tone_recording(150.0)
        out = apply_filters(rec)
        assert steady_rms(out.channels[0], 2000.0) >= 0.7 * steady_rms(
            rec.channels[0], 2000.0
        )

    def test_dc_is_rejected(self):
        rec = Recording("S1", "T", 1, 2000.0, np.full((1, 20000), 0.75))
        out = apply_filters(rec)
        assert steady_rms(out.channels[0], 2000.0) <= 0.01 * 0.75

    def test_frequency_response_bounds(self):
        sos = design_filters(FilterSpec(), 2000.0)
        for freq, low_db, high_db in [
            (0.01, None, -40.0),   # DC region: at least 40 dB down
            (50.0, None, -30.0),   # notch: at least 30 dB down
            (150.0, -3.0, None),   # mid-band: less than 3 dB loss
        ]:
            _, h = sps.sosfreqz(sos, worN=[freq], fs=2000.0)
            mag_db = 20 * math.log10(abs(h[0]) + 1e-300)
            if high_db is not None:
                assert mag_db <= high_db, freq
            if low_db is not None:
                assert mag_db >= low_db, freq

    def test_designs_are_memoised_and_read_only(self):
        spec = FilterSpec()
        sos = design_filters(spec, 2000.0)
        assert design_filters(spec, 2000.0) is sos
        assert sos.shape == (spec.order + 1, 6)
        with pytest.raises(ValueError):
            sos[0, 0] = 0.0

    @pytest.mark.parametrize("n_channels", [1, 2, 3])
    @pytest.mark.parametrize("n_samples", [8, 1000, 20000])
    def test_compiled_kernel_equals_sosfilt(self, n_channels, n_samples):
        # apply_filters calls scipy's private sosfilt kernel; its output must
        # stay what the public signal.sosfilt gives, bit for bit
        fs, spec = 4000.0, FilterSpec()
        x = np.random.default_rng(n_samples + n_channels).standard_normal((n_channels, n_samples))
        rec = Recording("S1", "T", 1, fs, x)
        expected = sps.sosfilt(design_filters(spec, fs).copy(), x, axis=-1)
        got = apply_filters(rec, spec).channels
        assert got.dtype == expected.dtype and got.flags.c_contiguous
        assert np.array_equal(got.view(np.int64), expected.view(np.int64))
        assert np.array_equal(rec.channels, x)  # the input is not filtered in place

    @pytest.mark.parametrize("layout", ["strided", "fortran", "transposed"])
    def test_compiled_kernel_on_channels_that_are_not_c_contiguous(self, layout):
        fs = 2000.0
        base = np.random.default_rng(6).standard_normal((2, 2000))
        x = {"strided": base[:, ::2], "fortran": np.asfortranarray(base),
             "transposed": base.T.copy().T}[layout]
        rec = Recording("S1", "T", 1, fs, x)
        assert not rec.channels.flags.c_contiguous
        expected = sps.sosfilt(design_filters(FilterSpec(), fs).copy(), x, axis=-1)
        assert np.array_equal(apply_filters(rec).channels.view(np.int64),
                              expected.view(np.int64))

    @pytest.mark.parametrize("n_rows", [1, 6, 12])
    @pytest.mark.parametrize("band", [(20.0, 250.0), (250.0, 500.0)])
    def test_kernel_helper_equals_sosfilt_on_batched_rows(self, n_rows, band):
        # the generator filters a movement's trials as rows of one block
        # through 4-section Butterworth sub-band cascades
        fs, n = 4000.0, 1001
        sos = sps.butter(4, [edge / (fs / 2) for edge in band], btype="bandpass", output="sos")
        assert sos.shape == (4, 6)
        x = np.random.default_rng(n_rows).standard_normal((n_rows, n))
        expected = sps.sosfilt(sos, x, axis=-1)
        rows = x.copy()
        assert sosfilt_rows(sos, rows) is rows
        assert np.array_equal(rows.view(np.int64), expected.view(np.int64))

    @pytest.mark.parametrize("layout", ["strided", "fortran"])
    def test_kernel_helper_refuses_rows_that_are_not_c_contiguous(self, layout):
        # filtering a copy in place would silently leave the caller's rows as they were
        base = np.random.default_rng(5).standard_normal((3, 200))
        x = {"strided": base[:, ::2], "fortran": np.asfortranarray(base)}[layout]
        with pytest.raises(ValueError, match="C-contiguous"):
            sosfilt_rows(design_filters(FilterSpec(), 2000.0), x)

    def test_memoised_cascade_unchanged_by_filtering(self):
        spec = FilterSpec()
        sos = design_filters(spec, 3000.0)
        before = sos.copy()
        apply_filters(Recording("S1", "T", 1, 3000.0,
                                np.random.default_rng(7).standard_normal((2, 500))), spec)
        assert design_filters(spec, 3000.0) is sos
        assert not sos.flags.writeable
        assert np.array_equal(sos.view(np.int64), before.view(np.int64))

    def test_channels_filtered_together_equal_per_channel_loop(self):
        rng = np.random.default_rng(4)
        rec = Recording("S1", "T", 1, 2000.0, rng.standard_normal((3, 3000)))
        sos = design_filters(FilterSpec(), 2000.0).copy()
        loop = np.array([sps.sosfilt(sos, ch) for ch in rec.channels])
        assert np.array_equal(apply_filters(rec).channels, loop)

    @pytest.mark.parametrize("fs", [1000.0, 2000.0, 4000.0])
    def test_one_cascade_matches_bandpass_then_notch(self, fs):
        # the cascade is the bandpass followed by the notch, to rounding
        spec = FilterSpec(band_high_hz=min(500.0, 0.45 * fs))
        x = np.random.default_rng(int(fs)).standard_normal((3, 3000))
        nyq = fs / 2.0
        bandpass = sps.butter(spec.order, [spec.band_low_hz / nyq, spec.band_high_hz / nyq],
                              btype="bandpass", output="sos")
        b, a = sps.iirnotch(spec.notch_hz, spec.notch_q, fs=fs)
        chained = sps.lfilter(b, a, sps.sosfilt(bandpass, x, axis=-1), axis=-1)
        y = apply_filters(Recording("S1", "T", 1, fs, x), spec).channels
        assert np.max(np.abs(y - chained)) <= 1e-12 * np.max(np.abs(y))

    @pytest.mark.parametrize("chunk", [1, 7, None])
    def test_chunked_with_carried_state_equals_one_pass(self, chunk):
        # what a streaming decoder needs: one sosfilt state carried across chunks
        fs = 2000.0
        x = np.random.default_rng(5).standard_normal((2, 600))
        sos = design_filters(FilterSpec(), fs).copy()
        chunk = chunk or x.shape[1]
        zi = np.zeros((sos.shape[0], x.shape[0], 2))
        parts = []
        for start in range(0, x.shape[1], chunk):
            part, zi = sps.sosfilt(sos, x[:, start : start + chunk], axis=-1, zi=zi)
            parts.append(part)
        whole = apply_filters(Recording("S1", "T", 1, fs, x)).channels
        assert np.array_equal(np.concatenate(parts, axis=1), whole)

    def test_length_preserved_and_linear(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal(4000)
        rec = Recording("S1", "T", 1, 2000.0, x[None, :])
        out1 = apply_filters(rec)
        out3 = apply_filters(rec.with_channels(3.0 * rec.channels))
        assert out1.channels.shape == rec.channels.shape
        assert np.allclose(3.0 * out1.channels, out3.channels, rtol=1e-9)

    def test_nyquist_violation(self):
        rec = tone_recording(100.0, fs=800.0, duration_s=1.0)
        with pytest.raises(NyquistViolation):
            apply_filters(rec, FilterSpec())

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            FilterSpec(band_low_hz=500.0, band_high_hz=20.0)
        with pytest.raises(ValueError):
            FilterSpec(notch_hz=5.0)


class TestSegment:
    def _rec(self, duration_s, fs=4000.0):
        n = int(round(duration_s * fs))
        return Recording("S2", "I", 3, fs, np.arange(2 * n, dtype=float).reshape(2, n))

    def test_reference_window_counts(self):
        assert segment(self._rec(5.0, 4000.0), 250.0).shape == (20, 2, 1000)
        assert len(segment(self._rec(5.0, 4000.0), 50.0)) == 100
        assert len(segment(self._rec(5.1, 4000.0), 250.0)) == 20

    def test_disjoint_windows_tile_the_signal(self):
        rec = self._rec(1.0)
        wins = segment(rec, 250.0)
        assert np.array_equal(np.concatenate(wins, axis=1), rec.channels)
        # one C-contiguous array that owns its samples
        assert wins.flags.c_contiguous and wins.flags.owndata
        before = rec.channels.copy()
        wins[:] = -1.0
        assert np.array_equal(rec.channels, before)

    def test_count_formula_property(self):
        rng = np.random.default_rng(1)
        fs = 1000.0
        for _ in range(200):
            n = int(rng.integers(64, 3000))
            rec = Recording("S1", "T", 1, fs, rng.standard_normal((1, n)))
            window_ms = float(rng.integers(10, 500))
            overlap_ms = float(rng.integers(0, int(window_ms)))
            nwin = int(round(window_ms * fs / 1000.0))
            step = nwin - int(round(overlap_ms * fs / 1000.0))
            if nwin < 8 or step < 1 or nwin > n:
                continue
            wins = segment(rec, window_ms, overlap_ms)
            assert wins.shape == ((n - nwin) // step + 1, 1, nwin)
            for i, window in enumerate(wins):
                assert np.array_equal(window, rec.channels[:, i * step : i * step + nwin])

    @settings(max_examples=300, deadline=None)
    @given(
        n_samples=st.integers(1, 3000),
        fs=st.floats(100.0, 8000.0),
        window_ms=st.floats(0.5, 400.0),
        overlap_share=st.floats(0.0, 1.2),
    )
    def test_window_grid_is_what_segment_cuts(self, n_samples, fs, window_ms, overlap_share):
        overlap_ms = overlap_share * window_ms
        rec = Recording("S1", "T", 1, fs, np.arange(n_samples, dtype=float)[None])
        n = int(round(window_ms * fs / 1000.0))
        n_overlap = int(round(overlap_ms * fs / 1000.0))
        if overlap_ms >= window_ms:
            expected = (ValueError, "need overlap_ms < window_ms")
        elif n_overlap >= n:
            expected = (ValueError, "the overlap must be shorter than the window")
        elif n > n_samples:
            expected = (WindowLongerThanTrial, "exceeds trial length")
        elif n < 8:
            expected = (ValueError, ">= 8 samples")
        else:
            count, n_grid, step = window_grid(n_samples, fs, window_ms, overlap_ms)
            assert (n_grid, step) == (n, n - n_overlap)
            assert segment(rec, window_ms, overlap_ms).shape == (count, 1, n)
            assert count == (n_samples - n) // step + 1
            return
        for call in (lambda: segment(rec, window_ms, overlap_ms),
                     lambda: window_grid(n_samples, fs, window_ms, overlap_ms)):
            with pytest.raises(expected[0], match=expected[1]) as raised:
                call()
            assert raised.type is expected[0]

    def test_segment_into_out(self):
        rec = self._rec(1.0)
        out = np.full((5, 2, 1000), np.nan)
        written = segment(rec, 250.0, out=out[1:])
        assert np.shares_memory(written, out)
        assert np.array_equal(out[1:], segment(rec, 250.0))
        assert np.isnan(out[0]).all()

    @pytest.mark.parametrize("window_ms, overlap_ms", [(250.0, 0.0), (250.0, 100.0),
                                                       (10.0, 7.5), (2.0, 0.0)])
    @pytest.mark.parametrize("into", [False, True])
    def test_segment_equals_stacked_slices(self, window_ms, overlap_ms, into):
        rec = Recording("S1", "T", 1, 4000.0,
                        np.random.default_rng(8).standard_normal((2, 1000)))
        count, n, step = window_grid(rec.n_samples, rec.sample_rate_hz, window_ms, overlap_ms)
        expected = np.stack([rec.channels[:, s : s + n]
                             for s in range(0, count * step, step)])
        out = np.full((count, 2, n), np.nan) if into else None
        got = segment(rec, window_ms, overlap_ms, out=out)
        assert got.flags.c_contiguous and got.dtype == expected.dtype
        assert np.array_equal(got.view(np.int64), expected.view(np.int64))
        if into:
            assert got is out

    def test_segment_out_of_another_shape_rejected(self):
        # one channel would broadcast into a two-channel out without a check
        rec = Recording("S1", "T", 1, 4000.0, np.ones((1, 1000)))
        for shape in [(4, 2, 250), (3, 1, 250), (4, 1, 200)]:
            with pytest.raises(ValueError, match=r"out has shape .*need \(4, 1, 250\)"):
                segment(rec, 62.5, out=np.zeros(shape))

    def test_window_below_min_samples(self):
        rec = self._rec(1.0, fs=1000.0)
        assert segment(rec, 8.0).shape == (125, 2, 8)
        with pytest.raises(ValueError, match=">= 8 samples, got 7"):
            segment(rec, 7.0)

    def test_window_longer_than_trial(self):
        with pytest.raises(WindowLongerThanTrial):
            segment(self._rec(0.1), 250.0)

    def test_invalid_overlap(self):
        with pytest.raises(ValueError):
            segment(self._rec(1.0), 100.0, 100.0)

    @pytest.mark.parametrize("window_ms, overlap_ms, named", [
        (math.inf, 0.0, "window_ms"), (math.nan, 0.0, "window_ms"), (0.0, 0.0, "window_ms"),
        ("250", 0.0, "window_ms"), (250.0, math.nan, "overlap_ms"),
        (250.0, -1.0, "overlap_ms"), (250.0, math.inf, "overlap_ms"),
    ])
    def test_non_finite_or_out_of_range_length_named(self, window_ms, overlap_ms, named):
        with pytest.raises(ValueError, match=named):
            segment(self._rec(1.0), window_ms, overlap_ms)

    def test_overlap_rounding_to_the_window_length(self):
        # 250.1 ms and 250.0 ms are both 250 samples at 1 kHz: the step is 0
        with pytest.raises(ValueError, match="round to 250 and 250 samples"):
            segment(self._rec(1.0, fs=1000.0), 250.1, 250.0)


class TestNormalize:
    def test_endpoint_examples(self):
        out, _ = normalize_features(np.array([[0.0], [5.0], [10.0]]))
        assert np.allclose(out.ravel(), [0.0, 0.5, 1.0])
        out, _ = normalize_features(np.array([[-2.0], [0.0], [2.0]]))
        assert np.allclose(out.ravel(), [0.0, 0.5, 1.0])

    def test_degenerate_column_maps_to_zero(self):
        out, _ = normalize_features(np.array([[7.0], [7.0], [7.0]]))
        assert np.all(out == 0.0)

    def test_fit_bounds_reused_and_clipped(self):
        train = np.array([[0.0, 10.0], [10.0, 20.0]])
        _, bounds = normalize_features(train)
        out, _ = normalize_features(np.array([[-5.0, 15.0], [20.0, 25.0]]), bounds)
        assert np.allclose(out, [[0.0, 0.5], [1.0, 1.0]])
        # a 1-D vector is one row, with bounds given or fitted on it
        out, _ = normalize_features(np.array([-5.0, 15.0]), bounds)
        assert out.shape == (2,) and np.allclose(out, [0.0, 0.5])
        out, alone = normalize_features(np.array([-5.0, 15.0]))
        assert np.array_equal(out, [0.0, 0.0])
        assert np.array_equal(alone.mins, [-5.0, 15.0]) and np.array_equal(alone.maxs, [-5.0, 15.0])

    def test_fit_output_in_unit_interval_and_idempotent(self):
        rng = np.random.default_rng(2)
        X = rng.normal(3.0, 10.0, size=(50, 6))
        out, bounds = normalize_features(X)
        assert out.min() >= 0.0 and out.max() <= 1.0
        again, _ = normalize_features(out)
        assert np.allclose(again, out, atol=1e-12)

    @pytest.mark.parametrize("rows, width", [
        (np.array([[0.5]]), 1),
        (np.arange(10.0).reshape(2, 5), 5),
        (np.array([0.5, 1.5, 2.5]), 3),
    ], ids=["one-column", "five-columns", "1-d"])
    def test_rows_of_another_width_than_the_fit_rejected(self, rows, width):
        # a fit on 2 columns; a 1-column row would broadcast across both
        _, bounds = normalize_features(np.array([[0.0, 10.0], [10.0, 20.0]]))
        with pytest.raises(DimensionMismatch, match=f"fitted on 2 features, got rows of {width}$"):
            normalize_features(rows, bounds)

    def test_empty_matrix_rejected(self):
        with pytest.raises(ValueError):
            normalize_features(np.empty((0, 3)))

    @pytest.mark.parametrize("rows", ["matrix", "one row"])
    def test_fitted_scaling_equals_the_span_formula(self, rows):
        # the reference: span and safe divisor from the bounds, the degenerate
        # column zeroed, then np.clip
        rng = np.random.default_rng(9)
        train = rng.normal(2.0, 3.0, size=(40, 6))
        train[:, 0] = np.abs(train[:, 0])
        train[0, 0] = 0.0  # so a -0.0 feature scales to -0.0 before the clip
        train[:, 2] = 4.0  # degenerate: max == min
        _, bounds = normalize_features(train)
        X = rng.normal(2.0, 6.0, size=(25, 6))  # wider, so values clip at both ends
        X[0, :] = [-0.0, np.inf, 4.0, bounds.mins[3], bounds.maxs[4], -np.inf]
        if rows == "one row":
            X = X[0]
        span = bounds.maxs - bounds.mins
        safe = np.where(span > 0, span, 1.0)
        expected = (X - bounds.mins) / safe
        expected[..., span <= 0] = 0.0
        expected = np.clip(expected, 0.0, 1.0)
        got, same = normalize_features(X, bounds)
        assert same is bounds and got.shape == X.shape
        assert np.array_equal(got.view(np.int64), expected.view(np.int64))
        assert ((got == 0.0) | (got == 1.0)).sum() > 2  # clipped values are covered
        assert not got[..., 2].any()

    def test_minmax_divisor_fitted_once(self):
        bounds = MinMax(mins=np.array([0.0, 5.0, 1.0]), maxs=np.array([2.0, 5.0, 0.0]))
        assert np.array_equal(bounds._divisor, [2.0, 1.0, 1.0])
        assert np.array_equal(bounds._degenerate, [1, 2])
        out, _ = normalize_features(np.array([[1.0, 9.0, 9.0]]), bounds)
        assert np.array_equal(out, [[0.5, 0.0, 0.0]])

    def test_minmax_is_plain_arrays(self):
        _, bounds = normalize_features(np.array([[1.0, 2.0], [3.0, 4.0]]))
        assert isinstance(bounds, MinMax)
        assert np.allclose(bounds.mins, [1.0, 2.0])
        assert np.allclose(bounds.maxs, [3.0, 4.0])
