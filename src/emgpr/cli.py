"""Command-line front end emitting reproducible experiment artifacts.

Every run resolves its full configuration (defaults < --config file < flags),
writes it to run.json in the output directory, and derives all randomness
from the master seed, so `emgpr replay run.json` reproduces every output file
bit for bit.
"""

from __future__ import annotations

import argparse
import json
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

from .classify import ModelSpec
from .dataset import (
    DatasetManifest,
    SyntheticSpec,
    generate_synthetic,
    load_dataset,
    save_dataset,
    separable_gain_grid,
    separable_tilt_matrix,
)
from .errors import EmgprError
from .evaluate import (
    CSV_HEADER,
    build_table,
    compare_groups,
    crossvalidate,
    set_columns,
    sweep_snr,
    sweep_window,
)
from .features import (
    CATALOG,
    FEATURE_SET_NAMES,
    FeatureSetSpec,
    Thresholds,
    extract,
    feature_column_names,
    feature_set,
)
from .preprocess import FilterSpec, apply_filters, normalize_features, segment
from .reduce import fit_ulda, project, res_index, scatter_export
from .selection import SelectionConfig, forward_select

_COMMON_DEFAULTS = {
    "seed": 0,
    "jobs": 1,
    "out_dir": "out",
}

_PIPELINE_DEFAULTS = {
    "window_ms": 250.0,
    "overlap_ms": 0.0,
    "band": [20.0, 500.0],
    "notch_hz": 50.0,
    "notch_q": 30.0,
    "filter_order": 4,
    "feature_set": "PROPOSED",
    "features": None,
    "thresholds": None,
    "classifier": "qda",
    "qda_shrinkage": 1e-3,
    "svm_sigma": 1.0,
    "svm_c": 1.0,
    "knn_k": 3,
}

_DEFAULTS = {
    "synth": {
        **_COMMON_DEFAULTS,
        "n_subjects": 1,
        "n_channels": 2,
        "n_movements": 10,
        "n_trials": 6,
        "duration_s": 5.0,
        "sample_rate_hz": 2000.0,
        "band": [20.0, 500.0],
        "gain_ratio": 2.0,
        "class_gain_matrix": None,
        "amplitude_only": False,
    },
    "extract": {**_COMMON_DEFAULTS, **_PIPELINE_DEFAULTS, "manifest": None},
    "evaluate": {
        **_COMMON_DEFAULTS,
        **_PIPELINE_DEFAULTS,
        "manifest": None,
        "snr_db": None,
    },
    "sweep-window": {
        **_COMMON_DEFAULTS,
        **_PIPELINE_DEFAULTS,
        "manifest": None,
        "sizes": [50.0, 100.0, 150.0, 200.0, 250.0, 300.0, 350.0],
    },
    "sweep-snr": {
        **_COMMON_DEFAULTS,
        **_PIPELINE_DEFAULTS,
        "manifest": None,
        "snrs": [float(v) for v in range(21)],
    },
    "select": {
        **_COMMON_DEFAULTS,
        **_PIPELINE_DEFAULTS,
        "manifest": None,
        "pool": list(CATALOG),
        "threshold": 0.25,
        "objective": "f1",
    },
    "res": {**_COMMON_DEFAULTS, **_PIPELINE_DEFAULTS, "manifest": None},
    "scatter": {**_COMMON_DEFAULTS, **_PIPELINE_DEFAULTS, "manifest": None},
    "compare": {
        **_COMMON_DEFAULTS,
        "groups": None,
        "metric": "f1",
        "comparisons": 1,
    },
}


def _add_common(sp):
    sp.add_argument("--config", help="JSON file of saved options (a run.json works)")
    sp.add_argument("--seed", type=int, help="master seed; every random stage derives from it (default 0)")
    sp.add_argument("--jobs", type=int, help="parallel workers for independent sweep points (default 1)")
    sp.add_argument("--out-dir", dest="out_dir", help="directory for all output files (default ./out)")


def _add_pipeline(sp, with_manifest=True):
    if with_manifest:
        sp.add_argument("--manifest", help="path to a dataset manifest.json")
    sp.add_argument("--window-ms", dest="window_ms", type=float,
                    help="analysis window length in ms (default 250)")
    sp.add_argument("--overlap-ms", dest="overlap_ms", type=float,
                    help="window overlap in ms; 0 gives disjoint windows (default 0)")
    sp.add_argument("--band", type=float, nargs=2, metavar=("LOW", "HIGH"),
                    help="bandpass edges in Hz (default 20 500)")
    sp.add_argument("--notch", dest="notch_hz", type=float,
                    help="mains notch frequency in Hz (default 50)")
    sp.add_argument("--notch-q", dest="notch_q", type=float,
                    help="notch quality factor (default 30)")
    sp.add_argument("--filter-order", dest="filter_order", type=int,
                    help="bandpass Butterworth order (default 4)")
    sp.add_argument("--feature-set", dest="feature_set",
                    choices=sorted(FEATURE_SET_NAMES),
                    help="named feature set; use CUSTOM with --features")
    sp.add_argument("--features", nargs="+", metavar="ID",
                    help="explicit feature ids for a CUSTOM set")


def _add_classifier(sp):
    sp.add_argument("--classifier", choices=["qda", "svm", "knn"],
                    help="classifier kind (default qda)")
    sp.add_argument("--qda-shrinkage", dest="qda_shrinkage", type=float,
                    help="covariance shrinkage in [0,1] (default 1e-3)")
    sp.add_argument("--svm-sigma", dest="svm_sigma", type=float,
                    help="RBF kernel width (default 1)")
    sp.add_argument("--svm-c", dest="svm_c", type=float,
                    help="SVM box constraint (default 1)")
    sp.add_argument("--knn-k", dest="knn_k", type=int,
                    help="neighbor count, odd (default 3)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="emgpr",
        description="EMG movement-recognition experiments with reproducible outputs",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    sp = sub.add_parser("synth", help="generate a seeded synthetic dataset as CSV + manifest")
    _add_common(sp)
    sp.add_argument("--n-subjects", dest="n_subjects", type=int, help="subjects to generate (default 1)")
    sp.add_argument("--n-channels", dest="n_channels", type=int, help="channels per recording (default 2)")
    sp.add_argument("--n-movements", dest="n_movements", type=int, help="movement classes, up to 10 (default 10)")
    sp.add_argument("--n-trials", dest="n_trials", type=int, help="trials per movement (default 6)")
    sp.add_argument("--duration-s", dest="duration_s", type=float, help="trial length in seconds (default 5)")
    sp.add_argument("--sample-rate", dest="sample_rate_hz", type=float, help="sampling rate in Hz (default 2000)")
    sp.add_argument("--band", type=float, nargs=2, metavar=("LOW", "HIGH"), help="noise band in Hz (default 20 500)")
    sp.add_argument("--gain-ratio", dest="gain_ratio", type=float,
                    help="amplitude ratio between adjacent class gains (default 2)")
    sp.add_argument("--amplitude-only", dest="amplitude_only", action="store_const",
                    const=True,
                    help="make channel amplitude the only class cue "
                         "(default: classes also differ in spectral tilt)")

    sp = sub.add_parser("extract", help="write the per-window feature matrix as CSV")
    _add_common(sp)
    _add_pipeline(sp)

    sp = sub.add_parser("evaluate", help="leave-one-trial-out evaluation report")
    _add_common(sp)
    _add_pipeline(sp)
    _add_classifier(sp)
    sp.add_argument("--snr-db", dest="snr_db", type=float,
                    help="mix calibrated white noise into the raw signal at this SNR")

    sp = sub.add_parser("sweep-window", help="evaluate across window lengths")
    _add_common(sp)
    _add_pipeline(sp)
    _add_classifier(sp)
    sp.add_argument("--sizes", type=float, nargs="+",
                    help="window lengths in ms (default 50..350 step 50)")

    sp = sub.add_parser("sweep-snr", help="evaluate across noise levels")
    _add_common(sp)
    _add_pipeline(sp)
    _add_classifier(sp)
    sp.add_argument("--snrs", type=float, nargs="+",
                    help="SNR grid in dB (default 0..20 step 1)")

    sp = sub.add_parser("select", help="greedy forward feature selection with audit trace")
    _add_common(sp)
    _add_pipeline(sp)
    _add_classifier(sp)
    sp.add_argument("--pool", nargs="+", metavar="ID",
                    help="candidate feature ids (default: full catalog)")
    sp.add_argument("--threshold", type=float,
                    help="minimum gain in percentage points to accept a feature (default 0.25)")
    sp.add_argument("--objective", choices=["f1", "macro_f1", "ovr_accuracy"],
                    help="selection objective (default f1 = macro F1)")

    sp = sub.add_parser("res", help="per-subject cluster separability index")
    _add_common(sp)
    _add_pipeline(sp)

    sp = sub.add_parser("scatter", help="per-subject 2-D reduced-feature scatter CSV")
    _add_common(sp)
    _add_pipeline(sp)

    sp = sub.add_parser("compare", help="one-way ANOVA across report groups")
    _add_common(sp)
    sp.add_argument("--group", dest="groups", action="append", metavar="REPORTS",
                    help="comma-separated report.json paths forming one group; repeat per group")
    sp.add_argument("--metric", help="summary metric to compare (default f1)")
    sp.add_argument("--comparisons", type=int,
                    help="comparison count for the Bonferroni correction (default 1)")

    sp = sub.add_parser("replay", help="re-run a recorded run.json bit-identically")
    sp.add_argument("run_json", help="path to a run.json written by a previous run")
    sp.add_argument("--out-dir", dest="out_dir", help="override the recorded output directory")

    return parser


# ---------------------------------------------------------------------------
# config plumbing


def _resolve(subcommand: str, args: argparse.Namespace) -> dict:
    cfg = dict(_DEFAULTS[subcommand])
    config_path = getattr(args, "config", None)
    if config_path:
        loaded = json.loads(Path(config_path).read_text())
        if "subcommand" in loaded:  # a run.json
            if loaded["subcommand"] != subcommand:
                raise SystemExit(
                    f"--config was recorded by '{loaded['subcommand']}', "
                    f"not '{subcommand}'"
                )
            loaded = loaded["config"]
        for key, value in loaded.items():
            if key in cfg:
                cfg[key] = value
    for key in cfg:
        value = getattr(args, key, None)
        if value is not None:
            cfg[key] = value
    return cfg


def _out_dir(cfg: dict) -> Path:
    out = Path(cfg["out_dir"])
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write_json(path: Path, obj) -> None:
    path.write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n")


def _write_run(out: Path, subcommand: str, cfg: dict) -> None:
    _write_json(out / "run.json", {"subcommand": subcommand, "config": cfg})


def _filter_spec(cfg: dict) -> FilterSpec:
    return FilterSpec(
        band_low_hz=cfg["band"][0],
        band_high_hz=cfg["band"][1],
        notch_hz=cfg["notch_hz"],
        notch_q=cfg["notch_q"],
        order=cfg["filter_order"],
    )


def _feature_spec(cfg: dict) -> FeatureSetSpec:
    thresholds = (
        Thresholds.from_dict(cfg["thresholds"]) if cfg["thresholds"] else Thresholds()
    )
    if cfg["features"]:
        return feature_set("CUSTOM", cfg["features"], thresholds)
    return feature_set(cfg["feature_set"], thresholds=thresholds)


def _model_spec(cfg: dict) -> ModelSpec:
    return ModelSpec(
        kind=cfg["classifier"],
        qda_shrinkage=cfg["qda_shrinkage"],
        svm_sigma=cfg["svm_sigma"],
        svm_c=cfg["svm_c"],
        knn_k=cfg["knn_k"],
    )


def _load_recordings(cfg: dict):
    if not cfg["manifest"]:
        raise SystemExit("--manifest is required (run `emgpr synth` to create one)")
    return load_dataset(DatasetManifest.load(cfg["manifest"]))


def _reports_csv(reports) -> str:
    lines = [CSV_HEADER]
    for report in reports:
        lines.extend(report.csv_rows())
    return "\n".join(lines) + "\n"


def _print_summary(report) -> None:
    parts = [f"{k}={v[0]:.4f}±{v[1]:.4f}" for k, v in report.summary().items()]
    tag = f"window={report.window_ms:g}ms"
    if report.snr_db is not None:
        tag += f" snr={report.snr_db:g}dB"
    print(f"[{report.feature_set}/{report.classifier} {tag}] " + " ".join(parts))


# ---------------------------------------------------------------------------
# subcommands


def _cmd_synth(cfg: dict) -> int:
    out = _out_dir(cfg)
    if cfg["class_gain_matrix"] is not None:
        gains = tuple(tuple(r) for r in cfg["class_gain_matrix"])
    else:
        gains = separable_gain_grid(
            cfg["n_movements"], cfg["n_channels"], cfg["gain_ratio"]
        )
    tilt = (
        None
        if cfg["amplitude_only"]
        else separable_tilt_matrix(cfg["n_movements"], cfg["n_channels"])
    )
    spec = SyntheticSpec(
        n_subjects=cfg["n_subjects"],
        n_channels=cfg["n_channels"],
        n_movements=cfg["n_movements"],
        n_trials=cfg["n_trials"],
        duration_s=cfg["duration_s"],
        sample_rate_hz=cfg["sample_rate_hz"],
        band=tuple(cfg["band"]),
        seed=cfg["seed"],
        class_gain_matrix=gains,
        class_tilt_matrix=tilt,
        tilt_split_hz=(
            None
            if tilt is None
            else tuple(
                min(150.0 + 100.0 * c, 0.8 * cfg["sample_rate_hz"] / 2.0)
                for c in range(cfg["n_channels"])
            )
        ),
    )
    recordings = generate_synthetic(spec)
    manifest = DatasetManifest(
        root_path=str(out / "dataset"),
        layout="two_channel_csv",
        subjects=sorted({r.subject_id for r in recordings}),
        movements=[m for m in dict.fromkeys(r.movement for r in recordings)],
        trials_per_movement=spec.n_trials,
        sample_rate_hz=spec.sample_rate_hz,
        filename_template="{subject}_{movement}_t{trial}.csv",
    )
    save_dataset(recordings, manifest)
    manifest.save(out / "dataset" / "manifest.json")
    cfg["class_gain_matrix"] = [list(r) for r in spec.class_gain_matrix]
    _write_run(out, "synth", cfg)
    print(f"wrote {len(recordings)} recordings under {out / 'dataset'}")
    return 0


def _pipeline_windows(cfg: dict, recordings):
    fspec = _filter_spec(cfg)
    for rec in recordings:
        filtered = apply_filters(rec, fspec)
        yield from segment(filtered, cfg["window_ms"], cfg["overlap_ms"])


def _cmd_extract(cfg: dict) -> int:
    out = _out_dir(cfg)
    recordings = _load_recordings(cfg)
    spec = _feature_spec(cfg)
    meta_header = "subject,movement,trial,window"
    rows = []
    n_channels = None
    for window in _pipeline_windows(cfg, recordings):
        vec = extract(spec, window)
        n_channels = window.n_channels
        subject, movement, trial, idx = vec.meta
        values = ",".join(repr(float(v)) for v in vec.values)
        rows.append(f"{subject},{movement},{trial},{idx},{values}")
    if n_channels is None:
        lines = [meta_header]
    else:
        cols = ",".join(feature_column_names(spec, n_channels))
        lines = [f"{meta_header},{cols}"]
    lines.extend(rows)
    (out / "features.csv").write_text("\n".join(lines) + "\n")
    _write_run(out, "extract", cfg)
    print(f"wrote {len(rows)} feature rows to {out / 'features.csv'}")
    return 0


def _cmd_evaluate(cfg: dict) -> int:
    out = _out_dir(cfg)
    report = crossvalidate(
        _load_recordings(cfg),
        _feature_spec(cfg),
        _model_spec(cfg),
        window_ms=cfg["window_ms"],
        overlap_ms=cfg["overlap_ms"],
        snr_db=cfg["snr_db"],
        filter_spec=_filter_spec(cfg),
        seed=cfg["seed"],
    )
    _write_json(out / "report.json", report.to_dict())
    (out / "report.csv").write_text(_reports_csv([report]))
    _write_run(out, "evaluate", cfg)
    _print_summary(report)
    if not report.ok:
        for failure in report.failures:
            print(f"fold failed: {failure.subject}/trial{failure.fold_trial}: "
                  f"{failure.error}", file=sys.stderr)
        return 1
    return 0


def _run_parallel(jobs, fn, items):
    if jobs <= 1:
        return [fn(item) for item in items]
    with ThreadPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(fn, items))


def _cmd_sweep_window(cfg: dict) -> int:
    out = _out_dir(cfg)
    recordings = _load_recordings(cfg)
    spec, model, fspec = _feature_spec(cfg), _model_spec(cfg), _filter_spec(cfg)

    def run(size):
        return crossvalidate(
            recordings, spec, model, window_ms=float(size),
            overlap_ms=cfg["overlap_ms"], filter_spec=fspec, seed=cfg["seed"],
        )

    reports = _run_parallel(cfg["jobs"], run, cfg["sizes"])
    _write_json(out / "sweep_window.json", [r.to_dict() for r in reports])
    (out / "sweep_window.csv").write_text(_reports_csv(reports))
    _write_run(out, "sweep-window", cfg)
    for report in reports:
        _print_summary(report)
    return 0 if all(r.ok for r in reports) else 1


def _cmd_sweep_snr(cfg: dict) -> int:
    out = _out_dir(cfg)
    recordings = _load_recordings(cfg)
    spec, model, fspec = _feature_spec(cfg), _model_spec(cfg), _filter_spec(cfg)

    def run(snr):
        return crossvalidate(
            recordings, spec, model, window_ms=cfg["window_ms"],
            overlap_ms=cfg["overlap_ms"], snr_db=float(snr),
            filter_spec=fspec, seed=cfg["seed"],
        )

    reports = _run_parallel(cfg["jobs"], run, cfg["snrs"])
    _write_json(out / "sweep_snr.json", [r.to_dict() for r in reports])
    (out / "sweep_snr.csv").write_text(_reports_csv(reports))
    _write_run(out, "sweep-snr", cfg)
    for report in reports:
        _print_summary(report)
    return 0 if all(r.ok for r in reports) else 1


def _cmd_select(cfg: dict) -> int:
    out = _out_dir(cfg)
    recordings = _load_recordings(cfg)
    thresholds = (
        Thresholds.from_dict(cfg["thresholds"]) if cfg["thresholds"] else Thresholds()
    )
    sel_cfg = SelectionConfig(
        pool=tuple(cfg["pool"]),
        improvement_threshold=cfg["threshold"],
        objective=cfg["objective"],
        model_spec=_model_spec(cfg),
        window_ms=cfg["window_ms"],
        overlap_ms=cfg["overlap_ms"],
        thresholds=thresholds,
        filter_spec=_filter_spec(cfg),
        seed=cfg["seed"],
    )
    trace = forward_select(recordings, sel_cfg)
    _write_json(out / "selection.json", trace.to_dict())
    _write_run(out, "select", cfg)
    print(trace.table())
    return 0


def _subject_matrices(cfg: dict):
    """(subject, X, y) per subject, sliced from one feature table."""
    spec = _feature_spec(cfg)
    table = build_table(
        _load_recordings(cfg),
        set_columns(spec.features),
        thresholds=spec.thresholds,
        window_ms=cfg["window_ms"],
        overlap_ms=cfg["overlap_ms"],
        filter_spec=_filter_spec(cfg),
        seed=cfg["seed"],
    )
    for subject in table.subjects:
        yield subject, table.matrix(subject, spec.features), table.labels[subject]


def _reduced_two_dims(X, y):
    norm, _ = normalize_features(X)
    return project(fit_ulda(norm, y), norm)[:, :2]


def _cmd_res(cfg: dict) -> int:
    out = _out_dir(cfg)
    values = {}
    for subject, X, y in _subject_matrices(cfg):
        values[subject] = res_index(_reduced_two_dims(X, y), y)
        print(f"{subject}: RES = {values[subject]:.4f}")
    _write_json(out / "res.json", values)
    _write_run(out, "res", cfg)
    return 0


def _cmd_scatter(cfg: dict) -> int:
    out = _out_dir(cfg)
    for subject, X, y in _subject_matrices(cfg):
        path = out / f"scatter_{subject}.csv"
        scatter_export(_reduced_two_dims(X, y), y, path)
        print(f"wrote {len(y)} points to {path}")
    _write_run(out, "scatter", cfg)
    return 0


def _cmd_compare(cfg: dict) -> int:
    out = _out_dir(cfg)
    if not cfg["groups"] or len(cfg["groups"]) < 2:
        raise SystemExit("compare needs at least two --group arguments")
    groups = []
    for group in cfg["groups"]:
        scores = []
        for path in str(group).split(","):
            report = json.loads(Path(path).read_text())
            per_subject = report["per_subject"][cfg["metric"]]
            scores.extend(per_subject[s] for s in sorted(per_subject))
        groups.append(scores)
    result = compare_groups(groups, n_comparisons=cfg["comparisons"])
    _write_json(out / "compare.json", result)
    _write_run(out, "compare", cfg)
    print(
        f"F={result['f_stat']:.6g} p={result['p_value']:.6g} "
        f"bonferroni_p={result['bonferroni_p']:.6g}"
    )
    return 0


_HANDLERS = {
    "synth": _cmd_synth,
    "extract": _cmd_extract,
    "evaluate": _cmd_evaluate,
    "sweep-window": _cmd_sweep_window,
    "sweep-snr": _cmd_sweep_snr,
    "select": _cmd_select,
    "res": _cmd_res,
    "scatter": _cmd_scatter,
    "compare": _cmd_compare,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.subcommand == "replay":
        run = json.loads(Path(args.run_json).read_text())
        cfg = run["config"]
        if args.out_dir is not None:
            cfg["out_dir"] = args.out_dir
        try:
            return _HANDLERS[run["subcommand"]](cfg)
        except EmgprError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    cfg = _resolve(args.subcommand, args)
    try:
        return _HANDLERS[args.subcommand](cfg)
    except EmgprError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
