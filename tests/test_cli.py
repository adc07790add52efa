import argparse
import json
import math
import shutil
from pathlib import Path

import pytest

import emgpr.evaluate
from emgpr.cli import build_parser, main
from emgpr.dataset import DatasetManifest, load_dataset
from emgpr.features import Thresholds, extract_matrix, feature_set
from emgpr.preprocess import FilterSpec, apply_filters, segment


def run_cli(*argv):
    return main([str(a) for a in argv])


def read_bytes_map(root: Path) -> dict:
    return {
        p.relative_to(root).as_posix(): p.read_bytes()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


@pytest.fixture(scope="module")
def small_dataset(tmp_path_factory):
    """3 movements x 3 trials x 1 s at 2 kHz, written via the synth command."""
    out = tmp_path_factory.mktemp("synth")
    code = run_cli(
        "synth", "--out-dir", out, "--n-movements", 3, "--n-trials", 3,
        "--duration-s", 1.0, "--seed", 21,
    )
    assert code == 0
    return out / "dataset" / "manifest.json"


class TestSynth:
    def test_outputs_exist(self, small_dataset):
        root = small_dataset.parent
        manifest = json.loads(small_dataset.read_text())
        assert manifest["trials_per_movement"] == 3
        assert len(list(root.glob("*.csv"))) == 9
        assert (root.parent / "run.json").is_file()

    def test_amplitude_only_flag(self, tmp_path):
        code = run_cli(
            "synth", "--out-dir", tmp_path, "--n-movements", 2, "--n-trials", 2,
            "--duration-s", 0.5, "--amplitude-only",
        )
        assert code == 0
        run = json.loads((tmp_path / "run.json").read_text())
        assert run["config"]["amplitude_only"] is True

    @pytest.mark.parametrize("flags, config, named", [
        ([], {"n_subjects": 2.0}, "n_subjects"),
        ([], {"n_trials": "3"}, "n_trials"),
        (["--n-subjects", 0], {}, "n_subjects"),
        (["--duration-s", -1], {}, "duration_s"),
        (["--n-channels", 0], {}, "n_channels"),
        (["--duration-s", 0.0001], {}, "duration_s"),
    ], ids=["float-subjects", "text-trials", "no-subjects", "negative-duration",
            "no-channels", "duration-below-one-sample"])
    def test_bad_count_or_length_exits_2(self, flags, config, named, tmp_path, capsys):
        path = tmp_path / "c.json"
        path.write_text(json.dumps(config))
        code = run_cli("synth", "--config", path, "--out-dir", tmp_path / "out", *flags)
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith(f"error: {named} must be ") and "Traceback" not in err

    def test_relative_out_dir_loads_from_any_directory(
        self, tmp_path, monkeypatch, small_dataset
    ):
        # an absolute --out-dir is written as typed
        root = json.loads(small_dataset.read_text())["root_path"]
        assert root == str(small_dataset.parent)
        (tmp_path / "c").mkdir()
        monkeypatch.chdir(tmp_path / "c")
        assert run_cli(
            "synth", "--out-dir", "d1", "--n-movements", 3, "--n-trials", 3,
            "--duration-s", 1.0,
        ) == 0
        monkeypatch.chdir(tmp_path)
        manifest = Path("c") / "d1" / "dataset" / "manifest.json"
        assert json.loads(manifest.read_text())["root_path"] == str(
            tmp_path / "c" / "d1" / "dataset"
        )
        assert run_cli(
            "evaluate", "--manifest", manifest, "--out-dir", "ev",
            "--feature-set", "FS2",
        ) == 0


class TestExtract:
    def test_feature_csv_shape(self, small_dataset, tmp_path):
        code = run_cli(
            "extract", "--manifest", small_dataset, "--out-dir", tmp_path,
            "--feature-set", "PROPOSED",
        )
        assert code == 0
        lines = (tmp_path / "features.csv").read_text().strip().split("\n")
        header = lines[0].split(",")
        assert header[:4] == ["subject", "movement", "trial", "window"]
        assert len(header) == 4 + 26  # 13 features x 2 channels
        assert len(lines) - 1 == 9 * 4  # 9 trials x 4 windows of 250 ms in 1 s

    def test_rows_equal_per_recording_extraction(self, small_dataset, tmp_path):
        code = run_cli(
            "extract", "--manifest", small_dataset, "--out-dir", tmp_path,
            "--feature-set", "PROPOSED", "--overlap-ms", 50,
        )
        assert code == 0
        rows = [
            line.split(",")
            for line in (tmp_path / "features.csv").read_text().splitlines()[1:]
        ]
        spec = feature_set("PROPOSED")
        expected = []
        for rec in load_dataset(DatasetManifest.load(small_dataset)):
            windows = segment(apply_filters(rec, FilterSpec()), 250, 50)
            for index, values in enumerate(extract_matrix(spec, windows)):
                meta = [rec.subject_id, rec.movement, str(rec.trial), str(index)]
                expected.append(meta + [repr(float(v)) for v in values])
        assert len(rows) == len(expected) == 9 * 4
        assert [r[:4] for r in rows] == [e[:4] for e in expected]
        assert rows == expected

    def test_empty_manifest_header_only(self, tmp_path):
        manifest = {
            "root_path": str(tmp_path),
            "layout": "two_channel_csv",
            "subjects": [],
            "movements": ["T"],
            "trials_per_movement": 2,
            "sample_rate_hz": 2000.0,
            "filename_template": "{subject}_{movement}_t{trial}.csv",
        }
        mpath = tmp_path / "manifest.json"
        mpath.write_text(json.dumps(manifest))
        out = tmp_path / "out"
        assert run_cli("extract", "--manifest", mpath, "--out-dir", out) == 0
        assert (out / "features.csv").read_text() == "subject,movement,trial,window\n"


class TestEvaluate:
    def test_report_files(self, small_dataset, tmp_path):
        code = run_cli(
            "evaluate", "--manifest", small_dataset, "--out-dir", tmp_path,
            "--feature-set", "FS2", "--classifier", "qda",
        )
        assert code == 0
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["classifier"] == "qda"
        assert report["feature_set"] == "FS2"
        assert len(report["folds"]) == 3
        csv = (tmp_path / "report.csv").read_text().strip().split("\n")
        assert csv[0].startswith("subject,fold,classifier")
        assert len(csv) > 3

    def test_replay_reproduces_bit_identically(self, small_dataset, tmp_path):
        first = tmp_path / "first"
        code = run_cli(
            "evaluate", "--manifest", small_dataset, "--out-dir", first,
            "--feature-set", "PROPOSED", "--classifier", "knn", "--seed", 77,
        )
        assert code == 0
        second = tmp_path / "second"
        code = run_cli("replay", first / "run.json", "--out-dir", second)
        assert code == 0
        a = read_bytes_map(first)
        b = read_bytes_map(second)
        del a["run.json"], b["run.json"]  # differ in recorded out_dir only
        assert a == b

    def test_fold_failures_give_nonzero_exit(self, tmp_path):
        # all-zero recordings stay zero through the filters, every feature
        # column is the clamp constant, and ULDA raises per fold
        manifest = {
            "root_path": str(tmp_path),
            "layout": "two_channel_csv",
            "subjects": ["S1"],
            "movements": ["T", "I"],
            "trials_per_movement": 2,
            "sample_rate_hz": 2000.0,
            "filename_template": "{subject}_{movement}_t{trial}.csv",
        }
        mpath = tmp_path / "manifest.json"
        mpath.write_text(json.dumps(manifest))
        row = "0.0,0.0\n"
        for movement in ("T", "I"):
            for trial in (1, 2):
                (tmp_path / f"S1_{movement}_t{trial}.csv").write_text(row * 600)
        out = tmp_path / "out"
        code = run_cli(
            "evaluate", "--manifest", mpath, "--out-dir", out,
            "--feature-set", "FS2", "--window-ms", 100,
        )
        assert code == 1
        report = json.loads((out / "report.json").read_text())
        assert report["failures"]

    @pytest.mark.parametrize(
        "flags",
        [("--snr-db", "nan"), ("--classifier", "knn", "--knn-k", 4)],
        ids=["snr-nan", "even-knn-k"],
    )
    def test_library_value_error_exits_2(self, small_dataset, tmp_path, capsys, flags):
        code = run_cli(
            "evaluate", "--manifest", small_dataset, "--out-dir", tmp_path / "out",
            *flags,
        )
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: ") and "Traceback" not in err

        # a recorded run.json holding the same value fails the same way
        config = {"manifest": str(small_dataset), "out_dir": str(tmp_path / "again")}
        config.update(
            {"snr_db": math.nan}
            if flags[0] == "--snr-db"
            else {"classifier": "knn", "knn_k": 4}
        )
        recorded = tmp_path / "run.json"
        recorded.write_text(json.dumps({"subcommand": "evaluate", "config": config}))
        assert run_cli("replay", recorded) == 2
        assert capsys.readouterr().err == err

    @pytest.mark.parametrize("subcommand, flags, config, named", [
        ("evaluate", ["--classifier", "svm", "--svm-sigma", "nan"], {}, "svm_sigma"),
        ("evaluate", ["--classifier", "svm", "--svm-c", "nan"], {}, "svm_c"),
        ("evaluate", ["--classifier", "svm", "--svm-c", "inf"], {}, "svm_c"),
        ("evaluate", ["--classifier", "knn"], {"knn_k": 3.0}, "knn_k"),
        ("evaluate", ["--classifier", "svm"], {"svm_sigma": "1"}, "svm_sigma"),
        ("evaluate", ["--window-ms", "inf"], {}, "window_ms"),
        ("sweep-window", ["--sizes", "250", "inf"], {}, "window_ms"),
        ("select", ["--threshold", "nan", "--pool", "MAV", "WL"], {},
         "improvement_threshold"),
        ("evaluate", ["--notch-q", "nan"], {}, "notch_q"),
        ("evaluate", ["--notch-q", "0"], {}, "notch_q"),
        ("evaluate", ["--notch-q", "-5"], {}, "notch_q"),
        ("evaluate", ["--notch", "inf"], {}, "notch_hz"),
        ("evaluate", ["--band", "nan", "500"], {}, "band_low_hz"),
        ("evaluate", ["--band", "20", "inf"], {}, "band_high_hz"),
        ("evaluate", [], {"filter_order": True}, "order"),
        ("evaluate", ["--filter-order", "0"], {}, "order"),
    ])
    def test_bad_number_exits_2(self, subcommand, flags, config, named,
                                small_dataset, tmp_path, capsys):
        path = tmp_path / "c.json"
        path.write_text(json.dumps(config))
        code = run_cli(subcommand, "--manifest", small_dataset, "--config", path,
                       "--out-dir", tmp_path / "out", *flags)
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith(f"error: {named} must be ") and "Traceback" not in err

    @pytest.mark.parametrize("config, named", [({"classifier": 3}, "classifier kind 3"),
                                               ({"feature_set": 3}, "feature set 3")])
    def test_non_string_name_exits_2(self, config, named, small_dataset, tmp_path, capsys):
        path = tmp_path / "c.json"
        path.write_text(json.dumps(config))
        code = run_cli("evaluate", "--manifest", small_dataset, "--config", path,
                       "--out-dir", tmp_path / "out")
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: ") and named in err and "Traceback" not in err

    @pytest.mark.parametrize("rate", [math.nan, math.inf, -5.0])
    def test_bad_manifest_sample_rate_exits_2(self, rate, small_dataset, tmp_path, capsys):
        manifest = json.loads(small_dataset.read_text())
        manifest["sample_rate_hz"] = rate
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps(manifest))
        code = run_cli("evaluate", "--manifest", path, "--out-dir", tmp_path / "out")
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: sample_rate_hz must be ") and "Traceback" not in err

    def test_overlap_rounding_to_the_window_exits_2(self, small_dataset, tmp_path, capsys):
        # at 2 kHz both lengths round to 500 samples
        code = run_cli(
            "evaluate", "--manifest", small_dataset, "--out-dir", tmp_path / "out",
            "--window-ms", 250.1, "--overlap-ms", 250.0,
        )
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: ") and "500 and 500 samples" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("subcommand", ["evaluate", "extract"])
    def test_file_with_an_extra_column_exits_2_naming_it(
        self, subcommand, small_dataset, tmp_path, capsys
    ):
        dataset = tmp_path / "dataset"
        shutil.copytree(small_dataset.parent, dataset)
        manifest = json.loads(small_dataset.read_text())
        manifest["root_path"] = str(dataset)
        (dataset / "manifest.json").write_text(json.dumps(manifest))
        odd = dataset / "S1_I_t2.csv"
        odd.write_text("".join(f"{line},0.0\n" for line in odd.read_text().splitlines()))
        code = run_cli(subcommand, "--manifest", dataset / "manifest.json",
                       "--out-dir", tmp_path / "out")
        err = capsys.readouterr().err
        assert code == 2
        assert err == f"error: {odd}:1: expected 2 columns, got 3\n"

    def test_config_file_with_flag_override(self, small_dataset, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"feature_set": "FS1", "classifier": "knn"}))
        out = tmp_path / "out"
        code = run_cli(
            "evaluate", "--manifest", small_dataset, "--config", cfg,
            "--out-dir", out, "--classifier", "qda",
        )
        assert code == 0
        run = json.loads((out / "run.json").read_text())
        assert run["config"]["feature_set"] == "FS1"  # from the config file
        assert run["config"]["classifier"] == "qda"  # flag wins

    def test_names_are_matched_in_any_case(self, small_dataset, tmp_path):
        # each flag applies the library's case rule, so every spelling a
        # --config file accepts is a flag value too
        runs = {"typed": ("proposed", "QDA"), "canonical": ("PROPOSED", "qda")}
        for name, (feature_set_name, classifier) in runs.items():
            assert run_cli("evaluate", "--manifest", small_dataset, "--out-dir",
                           tmp_path / name, "--feature-set", feature_set_name,
                           "--classifier", classifier) == 0
        typed, canonical = (read_bytes_map(tmp_path / name) for name in runs)
        config = json.loads(typed.pop("run.json"))["config"]
        assert (config["feature_set"], config["classifier"]) == ("PROPOSED", "qda")
        del canonical["run.json"]
        assert typed == canonical


class TestSweeps:
    def test_window_sweep_report_count(self, small_dataset, tmp_path):
        code = run_cli(
            "sweep-window", "--manifest", small_dataset, "--out-dir", tmp_path,
            "--feature-set", "FS2", "--sizes", 100, 250,
        )
        assert code == 0
        reports = json.loads((tmp_path / "sweep_window.json").read_text())
        assert [r["window_ms"] for r in reports] == [100.0, 250.0]

    def test_snr_sweep_default_emits_21(self, small_dataset, tmp_path):
        code = run_cli(
            "sweep-snr", "--manifest", small_dataset, "--out-dir", tmp_path,
            "--feature-set", "FS2",
        )
        assert code == 0
        reports = json.loads((tmp_path / "sweep_snr.json").read_text())
        assert len(reports) == 21
        assert [r["snr_db"] for r in reports] == [float(v) for v in range(21)]


    def test_failed_folds_of_a_sweep_are_named(self, tmp_path, capsys):
        # a 1 s trial holds one 1000 ms window, so with two trials each
        # training fold has one window per class and fails in ULDA
        assert run_cli("synth", "--out-dir", tmp_path, "--n-movements", 3,
                       "--n-trials", 2, "--duration-s", 1.0) == 0
        capsys.readouterr()
        code = run_cli("sweep-window", "--manifest", tmp_path / "dataset" / "manifest.json",
                       "--out-dir", tmp_path / "sweep", "--sizes", 250, 1000)
        assert code == 1
        reports = json.loads((tmp_path / "sweep" / "sweep_window.json").read_text())
        assert [len(r["failures"]) for r in reports] == [0, 2]
        failures = reports[1]["failures"]
        assert capsys.readouterr().err.splitlines() == [
            f"fold failed: [PROPOSED/qda window=1000ms] "
            f"{f['subject']}/trial{f['fold_trial']}: {f['error']}"
            for f in failures
        ]
        assert failures[0]["error"] == (
            "DegenerateClasses: class 'I' has fewer than two samples"
        )


class TestRecordedRuns:
    def test_sweep_recorded_with_jobs_still_runs(self, small_dataset, tmp_path):
        fresh = tmp_path / "fresh"
        code = run_cli(
            "sweep-snr", "--manifest", small_dataset, "--out-dir", fresh,
            "--feature-set", "FS2", "--snrs", 5, 15,
        )
        assert code == 0
        expected = (fresh / "sweep_snr.json").read_bytes()
        run = json.loads((fresh / "run.json").read_text())
        assert "jobs" not in run["config"]
        run["config"]["jobs"] = 2  # as runs recorded with the old --jobs flag
        recorded = tmp_path / "recorded.json"
        recorded.write_text(json.dumps(run))

        assert run_cli("replay", recorded, "--out-dir", tmp_path / "replayed") == 0
        assert (tmp_path / "replayed" / "sweep_snr.json").read_bytes() == expected

        configured = tmp_path / "configured"
        assert run_cli("sweep-snr", "--config", recorded, "--out-dir", configured) == 0
        assert (configured / "sweep_snr.json").read_bytes() == expected
        assert "jobs" not in json.loads((configured / "run.json").read_text())["config"]

    def test_replay_fills_a_missing_key_with_its_default(self, tmp_path):
        report = tmp_path / "report.json"
        report.write_text(json.dumps({"per_subject": {"f1": {"S1": 0.9, "S2": 0.7}}}))
        fresh = tmp_path / "fresh"
        assert run_cli("compare", "--out-dir", fresh,
                       "--group", report, "--group", report) == 0
        run = json.loads((fresh / "run.json").read_text())
        del run["config"]["comparisons"]
        recorded = tmp_path / "recorded.json"
        recorded.write_text(json.dumps(run))

        replayed = tmp_path / "replayed"
        assert run_cli("replay", recorded, "--out-dir", replayed) == 0
        assert (replayed / "compare.json").read_bytes() == (fresh / "compare.json").read_bytes()
        again = json.loads((replayed / "run.json").read_text())
        assert again["config"] == {**run["config"], "comparisons": 1,
                                   "out_dir": str(replayed)}

    def test_unknown_config_key_is_named_on_stderr(self, small_dataset, tmp_path, capsys):
        config = tmp_path / "typo.json"
        config.write_text(json.dumps({"clasifier": "svm", "feature_set": "FS2"}))
        out = tmp_path / "out"
        assert run_cli("evaluate", "--config", config, "--manifest", small_dataset,
                       "--out-dir", out) == 0
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("warning: ")
        assert "clasifier" in err and "'evaluate'" in err
        # the run goes on with the defaults, and records only known keys
        run = json.loads((out / "run.json").read_text())
        assert run["config"]["classifier"] == "qda"
        assert "clasifier" not in run["config"]

        run["config"]["clasifier"] = "svm"
        recorded = tmp_path / "recorded.json"
        recorded.write_text(json.dumps(run))
        assert run_cli("replay", recorded, "--out-dir", tmp_path / "replayed") == 0
        assert "clasifier" in capsys.readouterr().err
        assert ((tmp_path / "replayed" / "report.json").read_bytes()
                == (out / "report.json").read_bytes())

    @pytest.mark.parametrize("thresholds, named", [({"wampp": 0.02}, "wampp"),
                                                    ([0.02], "wamp")])
    def test_unknown_thresholds_key_exits_2(
        self, thresholds, named, small_dataset, tmp_path, capsys
    ):
        config = tmp_path / "c.json"
        config.write_text(json.dumps({"thresholds": thresholds}))
        assert run_cli("extract", "--config", config, "--manifest", small_dataset,
                       "--out-dir", tmp_path / "out") == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and named in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("level", ["x", None, -1])
    def test_bad_thresholds_level_exits_2(self, level, small_dataset, tmp_path, capsys):
        config = tmp_path / "c.json"
        config.write_text(json.dumps({"thresholds": {"wamp": level}}))
        assert run_cli("extract", "--config", config, "--manifest", small_dataset,
                       "--out-dir", tmp_path / "out") == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "wamp" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("subcommand, config", [
        ("sweep-window", {"sizes": 250}),
        ("evaluate", {"band": 20}),
        ("synth", {"class_gain_matrix": 3}),
        ("compare", {"groups": "ev/report.json"}),
        ("evaluate", {"features": "MAV"}),
        ("select", {"pool": "MAV"}),
        # a list of another count or element type than its flag gives
        pytest.param("evaluate", {"band": [20]}, id="evaluate-band-one"),
        pytest.param("evaluate", {"band": [20, 300, 400]}, id="evaluate-band-three"),
        pytest.param("sweep-window", {"sizes": []}, id="sweep-window-sizes-empty"),
        pytest.param("sweep-window", {"sizes": [True]}, id="sweep-window-sizes-bool"),
        pytest.param("sweep-snr", {"snrs": []}, id="sweep-snr-snrs-empty"),
        pytest.param("sweep-snr", {"snrs": [None]}, id="sweep-snr-snrs-null"),
        pytest.param("evaluate", {"features": [], "feature_set": "FS2"},
                     id="evaluate-features-empty"),
        pytest.param("select", {"pool": [3]}, id="select-pool-number"),
        pytest.param("synth", {"class_gain_matrix": [3]}, id="synth-class_gain_matrix-row"),
    ], ids=lambda value: next(iter(value)) if isinstance(value, dict) else value)
    def test_scalar_for_a_list_key_exits_2(
        self, subcommand, config, small_dataset, tmp_path, capsys
    ):
        # the first key is the rejected one
        path = tmp_path / "c.json"
        path.write_text(json.dumps(config))
        given = () if subcommand in ("synth", "compare") else ("--manifest", small_dataset)
        assert run_cli(subcommand, "--config", path, "--out-dir", tmp_path / "out",
                       *given) == 2
        key, value = next(iter(config.items()))
        err = capsys.readouterr().err
        assert err.startswith(f"error: {key} must be a list")
        assert err.endswith(f", got {value!r}\n") and err.count("\n") == 1

    @pytest.mark.parametrize("argv", [
        ("evaluate", "--config", "missing.json"),
        ("replay", "missing.json"),
        ("evaluate", "--manifest", "missing.json"),
        ("evaluate", "--manifest", "."),
        ("compare", "--group", "missing.json", "--group", "missing.json"),
        ("evaluate", "--config", "list.json"),
        ("replay", "list.json"),
    ], ids=lambda argv: "-".join(argv[:3]))
    def test_unreadable_file_exits_2(self, argv, tmp_path, monkeypatch, capsys):
        # a file that is missing, a directory, or not a JSON object of options
        monkeypatch.chdir(tmp_path)
        Path("list.json").write_text("[1, 2]")
        assert run_cli(*argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert argv[-1] in err

    def test_known_thresholds_keys_are_used(self, small_dataset, tmp_path):
        config = tmp_path / "c.json"
        config.write_text(json.dumps({"thresholds": {"wamp": 0.5}}))
        out = tmp_path / "out"
        assert run_cli("extract", "--config", config, "--manifest", small_dataset,
                       "--feature-set", "FS2", "--out-dir", out) == 0
        default = tmp_path / "default"
        assert run_cli("extract", "--manifest", small_dataset, "--feature-set", "FS2",
                       "--out-dir", default) == 0
        assert ((out / "features.csv").read_bytes()
                != (default / "features.csv").read_bytes())

    @pytest.mark.parametrize("subcommand", ["extract", "evaluate", "sweep-window",
                                            "sweep-snr", "select", "res", "scatter"])
    def test_config_thresholds_reach_every_extraction(
        self, subcommand, small_dataset, tmp_path, monkeypatch
    ):
        seen = []

        def spy(spec, windows, thresholds):
            seen.append(thresholds)
            return extract_matrix(spec, windows, thresholds)

        monkeypatch.setattr(emgpr.evaluate, "extract_matrix", spy)
        config = tmp_path / "c.json"
        config.write_text(json.dumps({"thresholds": {"wamp": 0.5}}))
        assert run_cli(subcommand, "--config", config, "--manifest", small_dataset,
                       "--out-dir", tmp_path / "out", *TestFrame.FLAGS[subcommand]) == 0
        assert seen and set(seen) == {Thresholds(wamp=0.5)}

    @pytest.mark.parametrize("argv, message, recorded", [
        (("evaluate",), "--manifest is required", True),
        (("compare", "--group", "a.json"), "compare needs at least two --group", True),
        (("evaluate", "--config", "synth.json"), "--config was recorded by 'synth'", False),
    ], ids=["no-manifest", "one-group", "config-of-synth"])
    def test_rejected_input_exits_2_and_records_why(
        self, argv, message, recorded, tmp_path, monkeypatch, capsys
    ):
        # a handler's failure is recorded in the directory main created; a
        # config that fails to resolve creates no directory
        monkeypatch.chdir(tmp_path)
        write_report(Path("a.json"), {"S1": 0.9})
        Path("synth.json").write_text(json.dumps({"subcommand": "synth", "config": {}}))
        assert run_cli(*argv, "--out-dir", "x") == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {message}") and err.count("\n") == 1
        if not recorded:
            assert not Path("x").exists()
            return
        run = json.loads(Path("x/run.json").read_text())
        assert run["subcommand"] == argv[0] and run["config"]["out_dir"] == "x"
        assert run["error"] == err[len("error: "):-1]
        assert sorted(p.name for p in Path("x").iterdir()) == ["run.json"]

    def test_replay_of_a_failed_run_fails_alike(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert run_cli("evaluate", "--out-dir", "x", "--seed", 3) == 2
        err = capsys.readouterr().err
        assert run_cli("replay", "x/run.json", "--out-dir", "y") == 2
        assert capsys.readouterr().err == err
        first, again = (json.loads(Path(d, "run.json").read_text()) for d in "xy")
        again["config"]["out_dir"] = "x"
        assert again == first and first["config"]["seed"] == 3

    def test_replay_of_unknown_subcommand_exits_2(self, tmp_path, capsys):
        recorded = tmp_path / "run.json"
        recorded.write_text(json.dumps({"subcommand": "evalaute", "config": {}}))
        assert run_cli("replay", recorded) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "'evalaute'" in err
        assert "Traceback" not in err


def write_report(path, per_subject_f1):
    path.write_text(json.dumps({"per_subject": {"f1": per_subject_f1}}))


def subcommand_parser(subcommand):
    parser = build_parser()
    (choices,) = [a.choices for a in parser._actions
                  if isinstance(a, argparse._SubParsersAction)]
    return choices[subcommand]


class TestFrame:
    """What `main` does around every subcommand: resolve, run, record."""

    FLAGS = {
        "synth": ("--n-movements", 2, "--n-trials", 2, "--duration-s", 0.5, "--seed", 5),
        "extract": ("--feature-set", "FS2", "--overlap-ms", 50),
        "evaluate": ("--classifier", "knn", "--seed", 77, "--snr-db", 10),
        "sweep-window": ("--feature-set", "FS2", "--sizes", 100, 250),
        "sweep-snr": ("--feature-set", "FS2", "--snrs", 5, 15),
        "select": ("--pool", "RMS", "WL", "ZC"),
        "res": ("--feature-set", "FS2"),
        "scatter": ("--feature-set", "FS2"),
        "compare": ("--comparisons", 3),
    }

    @staticmethod
    def inputs(subcommand, small_dataset, tmp_path):
        """The input flags a run of the subcommand cannot go without."""
        if subcommand == "synth":
            return ()
        if subcommand == "compare":
            a, b = tmp_path / "a.json", tmp_path / "b.json"
            write_report(a, {"S1": 0.9, "S2": 0.8})
            write_report(b, {"S1": 0.7, "S2": 0.75})
            return ("--group", a, "--group", b)
        return ("--manifest", small_dataset)

    @pytest.mark.parametrize("subcommand", list(FLAGS))
    def test_replay_rewrites_every_file_bit_identically(
        self, subcommand, small_dataset, tmp_path, capsys
    ):
        out = tmp_path / "out"
        given = self.inputs(subcommand, small_dataset, tmp_path)
        assert run_cli(subcommand, "--out-dir", out, *given, *self.FLAGS[subcommand]) == 0
        fresh = read_bytes_map(out)
        assert "run.json" in fresh and len(fresh) > 1
        recorded = tmp_path / "recorded.json"
        shutil.copy(out / "run.json", recorded)
        shutil.rmtree(out)
        # into the recorded out_dir, so the run.json and a manifest's
        # absolute root_path must come out equal too
        capsys.readouterr()
        assert run_cli("replay", recorded) == 0
        assert read_bytes_map(out) == fresh
        # a freshly recorded run.json holds no key the replay ignores
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("subcommand", list(FLAGS))
    def test_help_shows_the_recorded_default(
        self, subcommand, small_dataset, tmp_path, monkeypatch
    ):
        given = self.inputs(subcommand, small_dataset, tmp_path)
        monkeypatch.chdir(tmp_path)
        assert run_cli(subcommand, *given) == 0
        recorded = json.loads((tmp_path / "out" / "run.json").read_text())["config"]

        def shown(value):
            values = value if isinstance(value, list) else [value]
            return " ".join("none" if v is None else f"{v:g}" if isinstance(v, float)
                            else str(v) for v in values)

        checked = 0
        for action in subcommand_parser(subcommand)._actions:
            if action.dest not in recorded or action.option_strings[0] in given:
                continue
            flag = action.option_strings[0]
            assert action.help.endswith(f"(default {shown(recorded[action.dest])})"), flag
            checked += 1
        assert checked >= 3


class TestSelect:
    def test_selection_trace_written(self, small_dataset, tmp_path):
        code = run_cli(
            "select", "--manifest", small_dataset, "--out-dir", tmp_path,
            "--pool", "RMS", "WL", "ZC", "--threshold", 0.25,
        )
        assert code == 0
        trace = json.loads((tmp_path / "selection.json").read_text())
        assert trace["selected"]
        assert trace["steps"][0]["accepted"] is True

    def test_every_objective_the_library_accepts_is_a_flag_value(self, small_dataset, tmp_path):
        code = run_cli(
            "select", "--manifest", small_dataset, "--out-dir", tmp_path,
            "--pool", "RMS", "WL", "--objective", "accuracy",
        )
        assert code == 0
        assert json.loads((tmp_path / "selection.json").read_text())["objective"] == "accuracy"

    def test_no_scorable_candidate_exits_2(self, tmp_path, capsys):
        # a 1 s trial holds one 1000 ms window, so with two trials each
        # training fold has one window per class and every candidate fails
        assert run_cli("synth", "--out-dir", tmp_path, "--n-movements", 3,
                       "--n-trials", 2, "--duration-s", 1.0) == 0
        capsys.readouterr()
        code = run_cli("select", "--manifest", tmp_path / "dataset" / "manifest.json",
                       "--out-dir", tmp_path / "sel", "--window-ms", 1000,
                       "--pool", "RMS", "WL")
        err = capsys.readouterr().err
        assert code == 2 and err.count("\n") == 1 and "Traceback" not in err
        assert err.startswith("error: no candidate in the pool can be scored: WL: fold S1/")
        assert not (tmp_path / "sel" / "selection.json").exists()

    def test_choice_lists_are_the_library_constants(self):
        from emgpr.classify import KIND_NAMES
        from emgpr.features import FEATURE_SET_NAMES
        from emgpr.selection import OBJECTIVES

        def choices(subcommand, dest):
            (action,) = [a for a in subcommand_parser(subcommand)._actions if a.dest == dest]
            return action.choices

        assert choices("select", "objective") == list(OBJECTIVES)
        assert choices("evaluate", "feature_set") == sorted(FEATURE_SET_NAMES)
        for subcommand in ("evaluate", "sweep-window", "sweep-snr", "select"):
            assert choices(subcommand, "classifier") == list(KIND_NAMES)


class TestResAndScatter:
    def test_res_values(self, small_dataset, tmp_path):
        code = run_cli(
            "res", "--manifest", small_dataset, "--out-dir", tmp_path,
            "--feature-set", "PROPOSED",
        )
        assert code == 0
        values = json.loads((tmp_path / "res.json").read_text())
        assert set(values) == {"S1"}
        assert values["S1"] > 0

    def test_scatter_rows(self, small_dataset, tmp_path):
        code = run_cli(
            "scatter", "--manifest", small_dataset, "--out-dir", tmp_path,
            "--feature-set", "FS2",
        )
        assert code == 0
        lines = (tmp_path / "scatter_S1.csv").read_text().strip().split("\n")
        assert lines[0] == "label,f1,f2"
        assert len(lines) - 1 == 9 * 4  # windows per subject


class TestCompare:
    def test_identical_groups_give_p_one(self, tmp_path, capsys):
        a = tmp_path / "a.json"
        write_report(a, {"S1": 0.9, "S2": 0.8})
        out = tmp_path / "out"
        code = run_cli(
            "compare", "--out-dir", out, "--group", a, "--group", a,
        )
        assert code == 0
        result = json.loads((out / "compare.json").read_text())
        assert result["p_value"] == 1.0
        assert "p=1" in capsys.readouterr().out

    def test_group_concatenation(self, tmp_path):
        a1, a2 = tmp_path / "a1.json", tmp_path / "a2.json"
        b1, b2 = tmp_path / "b1.json", tmp_path / "b2.json"
        write_report(a1, {"S1": 0.90, "S2": 0.91})
        write_report(a2, {"S1": 0.92})
        write_report(b1, {"S1": 0.70, "S2": 0.71})
        write_report(b2, {"S1": 0.72})
        out = tmp_path / "out"
        code = run_cli(
            "compare", "--out-dir", out,
            "--group", f"{a1},{a2}", "--group", f"{b1},{b2}",
            "--comparisons", 5,
        )
        assert code == 0
        result = json.loads((out / "compare.json").read_text())
        assert result["df_between"] == 1
        assert result["df_within"] == 4
        assert result["p_value"] < 0.01
        assert result["bonferroni_p"] == pytest.approx(
            min(1.0, result["p_value"] * 5), abs=1e-15
        )

    def test_unknown_metric_exits_2(self, tmp_path, capsys):
        a = tmp_path / "a.json"
        write_report(a, {"S1": 0.9, "S2": 0.8})
        groups = ("--group", a, "--group", a)
        with pytest.raises(SystemExit) as exc:
            run_cli("compare", "--out-dir", tmp_path / "flag", "--metric", "f2", *groups)
        assert exc.value.code == 2
        assert "invalid choice: 'f2'" in capsys.readouterr().err
        # a --config (or a replayed run.json) skips argparse's choices
        config = tmp_path / "c.json"
        config.write_text(json.dumps({"metric": "f2"}))
        assert run_cli("compare", "--config", config, "--out-dir", tmp_path / "cfg",
                       *groups) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "'f2'" in err and "ovr_accuracy" in err
        assert "Traceback" not in err
        assert "ovr_accuracy" in subcommand_parser("compare").format_help()
