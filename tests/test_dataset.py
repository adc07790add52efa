import json
import math
import re

import numpy as np
import pytest

from emgpr.dataset import (
    MOVEMENTS,
    NO_MIX,
    DatasetManifest,
    Recording,
    SyntheticSpec,
    estimate_snr,
    generate_synthetic,
    load_dataset,
    mix_awgn,
    save_dataset,
    separable_gain_grid,
    separable_spec,
    separable_tilt_matrix,
)
from emgpr.errors import (
    ChannelCountMismatch,
    InvalidBand,
    MalformedRow,
    MissingFile,
    SignalBelowNoise,
    ZeroPowerChannel,
)
from reference_synth import ref_generate


def small_spec(**overrides):
    defaults = dict(
        n_subjects=1, n_channels=2, n_movements=3, n_trials=2,
        duration_s=0.5, sample_rate_hz=2000.0, seed=1,
    )
    defaults.update(overrides)
    return SyntheticSpec(**defaults)


class TestEstimateSnr:
    def test_hand_value(self):
        assert estimate_snr(5.0, 3.0) == pytest.approx(
            20.0 * math.log10(4.0 / 3.0), abs=1e-9
        )
        assert estimate_snr(5.0, 3.0) == pytest.approx(2.4988, abs=5e-4)

    def test_equal_powers_give_zero_db(self):
        assert estimate_snr(math.sqrt(2.0), 1.0) == pytest.approx(0.0, abs=1e-12)

    def test_signal_below_noise(self):
        with pytest.raises(SignalBelowNoise):
            estimate_snr(2.0, 3.0)
        with pytest.raises(SignalBelowNoise):
            estimate_snr(3.0, 0.0)

    @pytest.mark.parametrize("name, args", [
        ("active_rms", (math.nan, 1.0)), ("active_rms", (math.inf, 1.0)),
        ("noise_rms", (5.0, math.nan)), ("noise_rms", (5.0, -math.inf)),
        ("active_rms", (True, 1.0)), ("noise_rms", (5.0, "1")),
    ])
    def test_rms_values_must_be_finite_numbers(self, name, args):
        # a NaN or infinite RMS once came back as a NaN or infinite SNR
        bad = args[0] if name == "active_rms" else args[1]
        with pytest.raises(ValueError, match=rf"^{name} must be a finite number, "
                                             rf"got {re.escape(repr(bad))}$"):
            estimate_snr(*args)


class TestMixAwgn:
    def _rec(self, n=10000, fs=2000.0):
        t = np.arange(n) / fs
        tone = math.sqrt(2.0) * np.sin(2 * math.pi * 97.0 * t)  # unit power
        return Recording("S1", "T", 1, fs, np.stack([tone, 0.5 * tone]))

    def test_zero_db_noise_power_matches_signal(self):
        rec = self._rec()
        mixed = mix_awgn(rec, 0.0, seed=3)
        for ch in range(2):
            noise = mixed.channels[ch] - rec.channels[ch]
            ratio_db = 10 * math.log10(
                np.mean(rec.channels[ch] ** 2) / np.mean(noise ** 2)
            )
            assert abs(ratio_db) < 0.2

    def test_twenty_db_on_unit_power_tone(self):
        mixed = mix_awgn(self._rec(), 20.0, seed=4)
        noise = mixed.channels[0] - self._rec().channels[0]
        assert np.var(noise) == pytest.approx(0.01, rel=0.05)

    def test_no_mix_sentinel_is_identity(self):
        rec = self._rec()
        assert mix_awgn(rec, NO_MIX, seed=5) is rec

    def test_requested_vs_measured_within_tolerance(self):
        # recover the SNR the way the estimator is meant to be used: RMS of
        # the noisy recording plus the RMS of the rest-state noise floor
        rng = np.random.default_rng(6)
        x = rng.standard_normal(12000)
        rec = Recording("S1", "T", 1, 2000.0, x[None, :])
        for snr in (0.0, 5.0, 10.0, 15.0, 20.0):
            mixed = mix_awgn(rec, snr, seed=int(snr))
            noise = mixed.channels[0] - x
            mixed_rms = float(np.sqrt(np.mean(mixed.channels[0] ** 2)))
            noise_rms = float(np.sqrt(np.mean(noise**2)))
            est = estimate_snr(mixed_rms, noise_rms)
            assert abs(est - snr) < 0.3

    def test_zero_power_channel(self):
        rec = Recording("S1", "T", 1, 2000.0, np.zeros((1, 100)))
        with pytest.raises(ZeroPowerChannel):
            mix_awgn(rec, 10.0, seed=0)

    def test_names_the_first_zero_power_channel(self):
        tone = self._rec().channels[0]
        rec = Recording("S1", "T", 1, 2000.0, np.stack([tone, 0 * tone, 0 * tone]))
        # 1-based, as Recording names a sample that is not finite
        with pytest.raises(ZeroPowerChannel,
                           match="^recording S1/T/trial 1: channel 2 has zero power$"):
            mix_awgn(rec, 10.0, seed=0)

    def test_equals_one_draw_per_channel(self):
        def per_channel(rec, snr_db, seed):
            rng = np.random.default_rng(seed)
            out = np.empty_like(rec.channels)
            for ch, x in enumerate(rec.channels):
                noise_power = float(np.mean(x * x)) / 10.0 ** (snr_db / 10.0)
                out[ch] = x + rng.normal(0.0, math.sqrt(noise_power), x.shape)
            return out

        spec = separable_spec(n_movements=10, n_trials=2, duration_s=0.5,
                              sample_rate_hz=4000.0, seed=9)
        for i, rec in enumerate(generate_synthetic(spec)):
            mixed = mix_awgn(rec, 10.0, seed=100 + i)
            assert np.array_equal(mixed.channels, per_channel(rec, 10.0, 100 + i))

    def test_in_place_mixing_equals_the_summed_formula(self):
        # the noise is scaled and the signal added in place; IEEE addition
        # commutes, so every sample equals x + noise * scale
        spec = separable_spec(n_movements=10, n_trials=6, duration_s=0.25,
                              sample_rate_hz=2000.0, seed=3)
        for i, rec in enumerate(generate_synthetic(spec)):
            x = rec.channels.copy()
            scale = np.sqrt(np.mean(x * x, axis=1) / 10.0 ** (7.5 / 10.0))
            noise = np.random.default_rng(i).standard_normal(x.shape)
            mixed = mix_awgn(rec, 7.5, seed=i)
            assert np.array_equal(mixed.channels, x + noise * scale[:, None])
            assert np.array_equal(rec.channels, x)

    def test_seeded_and_length_preserving(self):
        rec = self._rec()
        a = mix_awgn(rec, 5.0, seed=11)
        b = mix_awgn(rec, 5.0, seed=11)
        assert np.array_equal(a.channels, b.channels)
        assert a.channels.shape == rec.channels.shape


class TestSynthetic:
    @pytest.mark.parametrize("spec", [
        separable_spec(n_subjects=4, n_trials=2, duration_s=0.5,
                       sample_rate_hz=4000.0, seed=7),
        separable_spec(amplitude_only=True, n_movements=4, n_trials=2,
                       duration_s=0.5, seed=3),
        separable_spec(n_channels=3, n_movements=4, n_trials=2,
                       duration_s=0.2505, seed=5),
        SyntheticSpec(n_channels=1, n_movements=3, n_trials=2, duration_s=0.5, seed=2),
        small_spec(class_gain_matrix=((1.0, 0.0), (1.0, 1.0), (2.0, 1.0))),
    ], ids=["tilt-4khz-4-subjects", "amplitude-only", "3-channels-odd-length",
            "1-channel", "zero-gain-row"])
    def test_equals_the_per_channel_generator_byte_for_byte(self, spec):
        recordings = generate_synthetic(spec)
        reference = ref_generate(spec)
        assert len(recordings) == len(reference)
        for rec, (subject, movement, trial, rate, channels) in zip(recordings, reference):
            assert (rec.subject_id, rec.movement, rec.trial) == (subject, movement, trial)
            assert rec.sample_rate_hz == rate
            assert rec.channels.dtype == np.float64
            assert rec.channels.flags.c_contiguous
            assert rec.channels.tobytes() == channels.tobytes()

    def test_deterministic(self):
        spec = small_spec()
        a = generate_synthetic(spec)
        b = generate_synthetic(spec)
        assert len(a) == len(b) == 6
        for ra, rb in zip(a, b):
            assert np.array_equal(ra.channels, rb.channels)

    def test_zero_gain_row_gives_silent_movement(self):
        spec = small_spec(class_gain_matrix=((0.0, 0.0), (1.0, 1.0), (2.0, 1.0)))
        recs = generate_synthetic(spec)
        silent = [r for r in recs if r.movement == MOVEMENTS[0]]
        assert all(np.all(r.channels == 0.0) for r in silent)

    def test_channel_mean_near_zero(self):
        for rec in generate_synthetic(small_spec(duration_s=2.0)):
            for ch in rec.channels:
                n = len(ch)
                assert abs(ch.mean()) < 3.0 * ch.std() / math.sqrt(n)

    def test_invalid_band(self):
        with pytest.raises(InvalidBand):
            small_spec(band=(500.0, 20.0))
        with pytest.raises(InvalidBand):
            small_spec(band=(20.0, 1500.0))

    def test_duplicate_gain_rows_rejected(self):
        with pytest.raises(ValueError):
            small_spec(class_gain_matrix=((1.0, 1.0), (1.0, 1.0), (2.0, 1.0)))

    @pytest.mark.parametrize("matrix, rows", [
        ("class_gain_matrix", ((1.0, 1.0), (2.0, 1.0), (4.0, 1.0))),
        ("class_tilt_matrix", ((0.5, 0.5),) * 3)])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_entry_that_is_not_finite_is_named(self, matrix, rows, value):
        rows = rows[:1] + ((rows[1][0], value),) + rows[2:]
        message = f"^{matrix}\\[1\\]\\[1\\] must be a finite number, got {value!r}$"
        with pytest.raises(ValueError, match=message):
            small_spec(**{matrix: rows})

    @pytest.mark.parametrize("rows, message", [
        (((1.0, 1.0), (-1.0, 1.0), (2.0, 1.0)), r"class_gain_matrix\[1\]\[0\] .* -1\.0$"),
        (((1.0, 1.0), (2.0, 1.0), (4.0, -0.5)), r"class_gain_matrix\[2\]\[1\] .* -0\.5$")])
    def test_negative_gain_is_named(self, rows, message):
        # a channel scaled by -g has the distribution of one scaled by g, so
        # the first case codes two movements no feature can tell apart
        with pytest.raises(ValueError, match=f"^{message}"):
            small_spec(class_gain_matrix=rows)

    def test_zero_gain_is_accepted(self):
        spec = small_spec(class_gain_matrix=((0.0, -0.0), (1.0, 1.0), (2.0, 1.0)))
        assert spec.class_gain_matrix[0] == (0.0, 0.0)

    def test_tilt_validation(self):
        with pytest.raises(ValueError):
            small_spec(class_tilt_matrix=((0.5, 1.5), (0.1, 0.2), (0.3, 0.4)))
        # channel c splits at 150 + 100 c Hz, capped at 0.8 of Nyquist, and
        # every split must lie strictly inside the band
        tilt = ((0.1, 0.2), (0.3, 0.4), (0.5, 0.6))
        assert small_spec(class_tilt_matrix=tilt).tilt_splits_hz == (150.0, 250.0)
        assert small_spec(class_tilt_matrix=tilt, sample_rate_hz=400.0,
                          band=(20.0, 190.0)).tilt_splits_hz == (150.0, 160.0)
        with pytest.raises(InvalidBand):
            small_spec(class_tilt_matrix=tilt, band=(20.0, 150.0))
        small_spec(band=(20.0, 150.0))  # no tilt, no splits to check

    def test_gain_grid_rows_distinct_and_separated(self):
        grid = separable_gain_grid(10, 2, 2.0)
        assert len(set(grid)) == 10
        for i in range(10):
            for j in range(i + 1, 10):
                ratios = [
                    max(a, b) / min(a, b) for a, b in zip(grid[i], grid[j])
                ]
                assert max(ratios) >= 2.0

    def test_separable_spec_takes_a_band(self):
        # the default 20-500 Hz band reaches Nyquist at 800 Hz
        with pytest.raises(InvalidBand):
            separable_spec(n_movements=3, sample_rate_hz=800.0)
        spec = separable_spec(n_movements=3, n_trials=1, duration_s=0.5,
                              sample_rate_hz=800.0, band=(20.0, 300.0))
        assert spec.band == (20.0, 300.0)
        recordings = generate_synthetic(spec)
        assert len(recordings) == 3
        assert all(np.all(np.isfinite(r.channels)) for r in recordings)
        assert separable_spec().band == SyntheticSpec().band
        # a list band, as the CLI gives it, records the same spec
        assert separable_spec(band=[30, 400]) == separable_spec(band=(30, 400))
        assert small_spec(band=[30.0, 400.0]).band == (30.0, 400.0)

    @pytest.mark.parametrize("matrix", ["class_gain_matrix", "class_tilt_matrix"])
    def test_separable_spec_sets_both_class_matrices(self, matrix):
        with pytest.raises(TypeError, match=matrix):
            separable_spec(**{matrix: ((1.0, 1.0),) * 10})

    @pytest.mark.parametrize("field, value", [
        ("n_subjects", 0), ("n_subjects", 2.0), ("n_channels", 0), ("n_channels", True),
        ("n_trials", 0), ("n_trials", "3"), ("n_movements", 0), ("n_movements", 11),
        ("duration_s", 0.0), ("duration_s", -1.0), ("duration_s", math.nan),
        ("duration_s", 0.0001),  # > 0, but rounds to no sample at 2 kHz
        ("sample_rate_hz", math.inf), ("sample_rate_hz", "2000"),
    ])
    def test_counts_and_lengths_are_checked(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} must be "):
            small_spec(**{field: value})

    @pytest.mark.parametrize("seed", [1.5, 2.0, True, "1", None])
    def test_seed_must_be_an_integer(self, seed):
        # a fractional seed would derive the truncated seed's streams while
        # the spec records the value given
        message = f"^seed must be an integer, got {re.escape(repr(seed))}$"
        with pytest.raises(ValueError, match=message):
            small_spec(seed=seed)
        assert small_spec(seed=np.int64(3)).seed == 3
        assert small_spec(seed=-1).seed == -1

    def test_separable_spec_defaults_are_the_dataclass_defaults(self):
        assert separable_spec() == SyntheticSpec(
            class_tilt_matrix=separable_tilt_matrix(10, 2)
        )


class TestCsvIo:
    def _manifest(self, tmp_path, subjects=("S1",), movements=("T", "I"),
                  trials=2):
        return DatasetManifest(
            root_path=str(tmp_path),
            layout="two_channel_csv",
            subjects=list(subjects),
            movements=list(movements),
            trials_per_movement=trials,
            sample_rate_hz=2000.0,
            filename_template="{subject}_{movement}_t{trial}.csv",
        )

    def test_save_load_roundtrip_bit_exact(self, tmp_path):
        spec = small_spec(n_movements=2)
        recs = generate_synthetic(spec)
        manifest = self._manifest(tmp_path)
        save_dataset(recs, manifest)
        loaded = load_dataset(manifest)
        assert len(loaded) == len(recs)
        by_key = {(r.movement, r.trial): r for r in recs}
        for r in loaded:
            assert np.array_equal(
                r.channels, by_key[(r.movement, r.trial)].channels
            )

    def test_expected_count_for_full_protocol(self, tmp_path):
        spec = SyntheticSpec(
            n_subjects=1, n_channels=2, n_movements=10, n_trials=6,
            duration_s=0.1, sample_rate_hz=2000.0, seed=2,
        )
        recs = generate_synthetic(spec)
        manifest = self._manifest(tmp_path, movements=list(MOVEMENTS), trials=6)
        save_dataset(recs, manifest)
        assert len(load_dataset(manifest)) == 60

    def test_empty_subjects_gives_empty_list(self, tmp_path):
        manifest = self._manifest(tmp_path, subjects=())
        assert load_dataset(manifest) == []

    def test_missing_file(self, tmp_path):
        manifest = self._manifest(tmp_path)
        with pytest.raises(MissingFile) as err:
            load_dataset(manifest)
        assert "S1_T_t1.csv" in str(err.value)

    def test_malformed_row_names_file_and_line(self, tmp_path):
        path = tmp_path / "S1_T_t1.csv"
        path.write_text("0.1,0.2\n0.3,oops\n")
        manifest = self._manifest(tmp_path, movements=("T",), trials=2)
        (tmp_path / "S1_T_t2.csv").write_text("0.1,0.2\n")
        with pytest.raises(MalformedRow) as err:
            load_dataset(manifest)
        assert err.value.line_no == 2
        assert "oops" in str(err.value)

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
    def test_non_finite_cell_names_file_and_line(self, tmp_path, cell):
        # float() parses these spellings; they must not reach the features
        (tmp_path / "S1_T_t1.csv").write_text(f"0.1,0.2\n\n0.3,0.4\n0.5,{cell}\n")
        (tmp_path / "S1_T_t2.csv").write_text("0.1,0.2\n")
        manifest = self._manifest(tmp_path, movements=("T",), trials=2)
        with pytest.raises(MalformedRow) as err:
            load_dataset(manifest)
        assert err.value.line_no == 4  # blank lines still count
        assert err.value.cell == cell
        assert "S1_T_t1.csv" in err.value.path

    def test_channel_count_mismatch(self, tmp_path):
        (tmp_path / "S1_T_t1.csv").write_text("0.1,0.2\n0.3\n")
        (tmp_path / "S1_T_t2.csv").write_text("0.1,0.2\n")
        manifest = self._manifest(tmp_path, movements=("T",), trials=2)
        with pytest.raises(ChannelCountMismatch):
            load_dataset(manifest)

    def test_file_with_other_column_count_is_named(self, tmp_path):
        # each file is consistent alone; the second has one column more
        # than the first file of the dataset
        (tmp_path / "S1_T_t1.csv").write_text("0.1,0.2\n0.3,0.4\n")
        (tmp_path / "S1_T_t2.csv").write_text("\n0.1,0.2,0.3\n0.4,0.5,0.6\n")
        manifest = self._manifest(tmp_path, movements=("T",), trials=2)
        with pytest.raises(ChannelCountMismatch) as err:
            load_dataset(manifest)
        assert str(err.value) == f"{tmp_path / 'S1_T_t2.csv'}:2: expected 2 columns, got 3"

    def test_whitespace_and_comma_tolerant(self, tmp_path):
        (tmp_path / "S1_T_t1.csv").write_text("0.1 0.2\n0.3,\t0.4\n")
        (tmp_path / "S1_T_t2.csv").write_text("1 2\n")
        manifest = self._manifest(tmp_path, movements=("T",), trials=2)
        recs = load_dataset(manifest)
        assert recs[0].channels.shape == (2, 2)
        assert recs[0].channels[1, 1] == 0.4

    def test_subject_subdirectories_without_placeholder(self, tmp_path):
        manifest = DatasetManifest(
            root_path=str(tmp_path),
            layout="two_channel_csv",
            subjects=["S1", "S2"],
            movements=["T"],
            trials_per_movement=2,
            sample_rate_hz=2000.0,
            filename_template="{movement}{trial}.csv",
        )
        for s in ("S1", "S2"):
            for t in (1, 2):
                p = tmp_path / s / f"T{t}.csv"
                p.parent.mkdir(exist_ok=True)
                p.write_text("0.5,0.25\n")
        assert len(load_dataset(manifest)) == 4

    def test_manifest_json_roundtrip(self, tmp_path):
        manifest = self._manifest(tmp_path)
        manifest.save(tmp_path / "manifest.json")
        again = DatasetManifest.load(tmp_path / "manifest.json")
        assert again == manifest

    def test_manifest_with_a_path_root_saves_and_loads(self, tmp_path):
        recs = generate_synthetic(small_spec(n_movements=2))
        manifest = DatasetManifest(
            root_path=tmp_path, layout="two_channel_csv", subjects=["S1"],
            movements=["T", "I"], trials_per_movement=2, sample_rate_hz=2000.0,
            filename_template="{subject}_{movement}_t{trial}.csv",
        )
        assert manifest.root_path == str(tmp_path)
        save_dataset(recs, manifest)
        manifest.save(tmp_path / "manifest.json")
        again = DatasetManifest.load(tmp_path / "manifest.json")
        assert again == manifest == self._manifest(tmp_path)
        assert len(load_dataset(again)) == len(recs)

    @pytest.mark.parametrize("trials", ["3", 2.5, 1, True])
    def test_trials_per_movement_must_be_an_integer_from_two(self, tmp_path, trials):
        with pytest.raises(ValueError, match="^trials_per_movement must be an integer >= 2"):
            self._manifest(tmp_path, trials=trials)

    @pytest.mark.parametrize("edit, message", [
        (lambda saved: saved.pop("layout"), "has no 'layout' key"),
        (lambda saved: saved.update(trials=2), "has unknown key 'trials'"),
    ])
    def test_load_names_a_missing_or_unknown_key_and_the_file(self, tmp_path, edit, message):
        path = tmp_path / "manifest.json"
        saved = self._manifest(tmp_path).to_dict()
        edit(saved)
        path.write_text(json.dumps(saved))
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))} {message}$"):
            DatasetManifest.load(path)

    def test_load_refuses_a_file_that_is_not_an_object(self, tmp_path):
        path = tmp_path / "manifest.json"
        path.write_text("[]")
        with pytest.raises(ValueError, match="must hold a JSON object"):
            DatasetManifest.load(path)

    def test_synthetic_layout_not_loadable(self, tmp_path):
        with pytest.raises(ValueError):
            DatasetManifest(
                root_path=str(tmp_path), layout="synthetic", subjects=["S1"],
                movements=["T"], trials_per_movement=2, sample_rate_hz=2000.0,
                filename_template="{movement}{trial}.csv",
            )

    @pytest.mark.parametrize("subjects", ["S1", ("S1",), ["S1", 1], None])
    def test_subjects_must_be_a_list_of_strings(self, tmp_path, subjects):
        # a string would read as one subject per letter
        with pytest.raises(ValueError, match="^subjects must be a list of strings, got "):
            DatasetManifest(
                root_path=str(tmp_path), layout="two_channel_csv", subjects=subjects,
                movements=["T"], trials_per_movement=2, sample_rate_hz=2000.0,
                filename_template="{subject}_{movement}_t{trial}.csv",
            )

    @pytest.mark.parametrize("movements", ["TI", ("T", "I"), ["T", None], {"T": 1}])
    def test_movements_must_be_a_list_of_strings(self, tmp_path, movements):
        # "TI" is one combined movement, not T and I
        with pytest.raises(ValueError, match="^movements must be a list of strings, got "):
            DatasetManifest(
                root_path=str(tmp_path), layout="two_channel_csv", subjects=["S1"],
                movements=movements, trials_per_movement=2, sample_rate_hz=2000.0,
                filename_template="{subject}_{movement}_t{trial}.csv",
            )

    @pytest.mark.parametrize("key, names", [
        ("movements", ["T", "I", "M", "T"]),
        ("subjects", ["S1", "S2", "S2"]),
    ])
    def test_a_repeated_name_is_refused(self, tmp_path, key, names):
        # a repeated name would load its recordings, and count them, twice
        given = {"subjects": ["S1"], "movements": ["T"], key: names}
        with pytest.raises(ValueError, match=f"^{key} lists '{names[-1]}' more than once$"):
            DatasetManifest(
                root_path=str(tmp_path), layout="two_channel_csv", trials_per_movement=2,
                sample_rate_hz=2000.0, filename_template="{subject}_{movement}_t{trial}.csv",
                **given,
            )

    @pytest.mark.parametrize("rate", [math.nan, math.inf, 0.0, -5.0, True])
    def test_sample_rate_must_be_finite_and_positive(self, tmp_path, rate):
        with pytest.raises(ValueError, match="sample_rate_hz"):
            DatasetManifest(
                root_path=str(tmp_path), layout="two_channel_csv", subjects=["S1"],
                movements=["T"], trials_per_movement=2, sample_rate_hz=rate,
                filename_template="{movement}{trial}.csv",
            )


class TestRecording:
    @pytest.mark.parametrize("rate", [math.nan, math.inf, 0.0, -5.0, True])
    def test_sample_rate_must_be_finite_and_positive(self, rate):
        with pytest.raises(ValueError, match="sample_rate_hz"):
            Recording("S1", "T", 1, rate, np.zeros((1, 10)))

    def test_validation(self):
        with pytest.raises(ValueError):
            Recording("S1", "XX", 1, 2000.0, np.zeros((1, 10)))
        with pytest.raises(ValueError):
            Recording("S1", "T", 0, 2000.0, np.zeros((1, 10)))
        with pytest.raises(ValueError):
            Recording("S1", "T", 1, -1.0, np.zeros((1, 10)))
        with pytest.raises(ValueError):
            Recording("S1", "T", 1, 2000.0, np.zeros(10))

    @pytest.mark.parametrize("trial", [1.5, 2.0, True, "1", 0, -1])
    def test_trial_must_be_an_integer_from_one(self, trial):
        # a fractional trial would be a leave-one-trial-out fold of its own
        message = f"^trial must be an integer >= 1, got {re.escape(repr(trial))}$"
        with pytest.raises(ValueError, match=message):
            Recording("S1", "T", trial, 2000.0, np.zeros((1, 10)))
        assert Recording("S1", "T", np.int64(3), 2000.0, np.zeros((1, 10))).trial == 3

    def test_with_channels_keeps_labels_and_checks_channels(self):
        rec = Recording("S2", "TM", 3, 1000.0, np.ones((2, 30)))
        new = rec.with_channels(np.arange(40).reshape(2, 20))
        assert (new.subject_id, new.movement, new.trial, new.sample_rate_hz) == \
            ("S2", "TM", 3, 1000.0)
        assert new.channels.dtype == float and new.channels.shape == (2, 20)
        assert rec.channels.shape == (2, 30)  # the source recording is unchanged
        for bad in (np.zeros(10), np.zeros((2, 0)), np.zeros((1, 2, 3))):
            with pytest.raises(ValueError, match="channels must be"):
                rec.with_channels(bad)

    @pytest.mark.parametrize("shape", [(0, 2000), (0, 0), (2, 0), (2000,), (1, 2, 3)])
    def test_shape_without_a_channel_or_sample_is_located(self, shape):
        # a channel-less recording once reached extraction and died there
        # with a ZeroDivisionError
        message = (r"^recording S1/T/trial 1: channels must be a \(n_channels, n_samples\) "
                   rf"matrix with at least one of each, got shape {re.escape(str(shape))}$")
        with pytest.raises(ValueError, match=message):
            Recording("S1", "T", 1, 2000.0, np.zeros(shape))
        rec = Recording("S1", "T", 1, 2000.0, np.zeros((2, 10)))
        with pytest.raises(ValueError, match=message):
            rec.with_channels(np.zeros(shape))

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_sample_is_located(self, value):
        channels = np.zeros((2, 50))
        channels[1, 7] = value
        channels[1, 9] = value
        with pytest.raises(ValueError, match=r"S3/I/trial 2: channel 2, sample index 7 is"):
            Recording("S3", "I", 2, 2000.0, channels)
        # the check also guards every derived recording
        rec = Recording("S3", "I", 2, 2000.0, np.zeros((2, 50)))
        with pytest.raises(ValueError, match="sample index 7"):
            rec.with_channels(channels)
