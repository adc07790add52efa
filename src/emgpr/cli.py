"""Command-line front end emitting reproducible experiment artifacts.

Every run resolves its full configuration (defaults < --config file < flags),
writes it to run.json in the output directory, and derives all randomness
from the master seed, so `emgpr replay run.json` reproduces every output file
bit for bit.  Each subcommand is a thin shell over one library entry point
(`extract`/`res`/`scatter` slice one `build_table`, the sweeps call
`sweep_window`/`sweep_snr`); option defaults come from the library's dataclasses.
"""

from __future__ import annotations

import argparse
import inspect
import json
import sys
from dataclasses import replace
from pathlib import Path

from .classify import ModelSpec
from .dataset import (
    DatasetManifest,
    SyntheticSpec,
    generate_synthetic,
    load_dataset,
    save_dataset,
    separable_spec,
)
from .errors import EmgprError
from .evaluate import (
    CSV_HEADER,
    DEFAULT_SNR_GRID,
    DEFAULT_WINDOW_SIZES,
    build_table,
    compare_groups,
    crossvalidate,
    set_columns,
    sweep_snr,
    sweep_window,
)
from .features import (
    FEATURE_SET_NAMES,
    FeatureSetSpec,
    Thresholds,
    feature_column_names,
    feature_set,
)
from .preprocess import FilterSpec, normalize_features
from .reduce import fit_ulda, project, res_index, scatter_export
from .selection import SelectionConfig, forward_select

_COMMON_DEFAULTS = {
    "seed": 0,
    "out_dir": "out",
}

_PIPELINE_DEFAULTS = {
    "window_ms": SelectionConfig.window_ms,
    "overlap_ms": SelectionConfig.overlap_ms,
    "band": [FilterSpec.band_low_hz, FilterSpec.band_high_hz],
    "notch_hz": FilterSpec.notch_hz,
    "notch_q": FilterSpec.notch_q,
    "filter_order": FilterSpec.order,
    "feature_set": "PROPOSED",
    "features": None,
    "thresholds": None,
    "classifier": ModelSpec.kind,
    "qda_shrinkage": ModelSpec.qda_shrinkage,
    "svm_sigma": ModelSpec.svm_sigma,
    "svm_c": ModelSpec.svm_c,
    "knn_k": ModelSpec.knn_k,
}

_DEFAULTS = {
    "synth": {
        **_COMMON_DEFAULTS,
        "n_subjects": SyntheticSpec.n_subjects,
        "n_channels": SyntheticSpec.n_channels,
        "n_movements": SyntheticSpec.n_movements,
        "n_trials": SyntheticSpec.n_trials,
        "duration_s": SyntheticSpec.duration_s,
        "sample_rate_hz": SyntheticSpec.sample_rate_hz,
        "band": list(SyntheticSpec.band),
        "gain_ratio": inspect.signature(separable_spec).parameters["gain_ratio"].default,
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
        "sizes": [float(v) for v in DEFAULT_WINDOW_SIZES],
    },
    "sweep-snr": {
        **_COMMON_DEFAULTS,
        **_PIPELINE_DEFAULTS,
        "manifest": None,
        "snrs": [float(v) for v in DEFAULT_SNR_GRID],
    },
    "select": {
        **_COMMON_DEFAULTS,
        **_PIPELINE_DEFAULTS,
        "manifest": None,
        "pool": list(SelectionConfig.pool),
        "threshold": SelectionConfig.improvement_threshold,
        "objective": SelectionConfig.objective,
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


def _help(text: str, default) -> str:
    """Help text ending in a default as typed: 0.001, 250, 20 500."""
    values = default if isinstance(default, list) else [default]
    shown = " ".join(f"{v:g}" if isinstance(v, float) else str(v) for v in values)
    return f"{text} (default {shown})"


def _add_common(sp):
    sp.add_argument("--config", help="JSON file of saved options (a run.json works)")
    sp.add_argument("--seed", type=int, help="master seed; every random stage derives from it (default 0)")
    sp.add_argument("--out-dir", dest="out_dir", help="directory for all output files (default ./out)")


def _add_pipeline(sp):
    d = _PIPELINE_DEFAULTS
    sp.add_argument("--manifest", help="path to a dataset manifest.json")
    sp.add_argument("--window-ms", dest="window_ms", type=float,
                    help=_help("analysis window length in ms", d["window_ms"]))
    sp.add_argument("--overlap-ms", dest="overlap_ms", type=float,
                    help=_help("window overlap in ms; 0 gives disjoint windows", d["overlap_ms"]))
    sp.add_argument("--band", type=float, nargs=2, metavar=("LOW", "HIGH"), help=_help("bandpass edges in Hz", d["band"]))
    sp.add_argument("--notch", dest="notch_hz", type=float,
                    help=_help("mains notch frequency in Hz", d["notch_hz"]))
    sp.add_argument("--notch-q", dest="notch_q", type=float,
                    help=_help("notch quality factor", d["notch_q"]))
    sp.add_argument("--filter-order", dest="filter_order", type=int,
                    help=_help("bandpass Butterworth order", d["filter_order"]))
    sp.add_argument("--feature-set", dest="feature_set",
                    choices=sorted(FEATURE_SET_NAMES),
                    help="named feature set; use CUSTOM with --features")
    sp.add_argument("--features", nargs="+", metavar="ID",
                    help="explicit feature ids for a CUSTOM set")


def _add_classifier(sp):
    d = _PIPELINE_DEFAULTS
    sp.add_argument("--classifier", choices=["qda", "svm", "knn"],
                    help=_help("classifier kind", d["classifier"]))
    sp.add_argument("--qda-shrinkage", dest="qda_shrinkage", type=float,
                    help=_help("covariance shrinkage in [0,1]", d["qda_shrinkage"]))
    sp.add_argument("--svm-sigma", dest="svm_sigma", type=float,
                    help=_help("RBF kernel width", d["svm_sigma"]))
    sp.add_argument("--svm-c", dest="svm_c", type=float,
                    help=_help("SVM box constraint", d["svm_c"]))
    sp.add_argument("--knn-k", dest="knn_k", type=int,
                    help=_help("neighbor count, odd", d["knn_k"]))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="emgpr",
        description="EMG movement-recognition experiments with reproducible outputs",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    d = _DEFAULTS["synth"]
    sp = sub.add_parser("synth", help="generate a seeded synthetic dataset as CSV + manifest")
    _add_common(sp)
    sp.add_argument("--n-subjects", dest="n_subjects", type=int, help=_help("subjects to generate", d["n_subjects"]))
    sp.add_argument("--n-channels", dest="n_channels", type=int, help=_help("channels per recording", d["n_channels"]))
    sp.add_argument("--n-movements", dest="n_movements", type=int, help=_help("movement classes, up to 10", d["n_movements"]))
    sp.add_argument("--n-trials", dest="n_trials", type=int, help=_help("trials per movement", d["n_trials"]))
    sp.add_argument("--duration-s", dest="duration_s", type=float, help=_help("trial length in seconds", d["duration_s"]))
    sp.add_argument("--sample-rate", dest="sample_rate_hz", type=float, help=_help("sampling rate in Hz", d["sample_rate_hz"]))
    sp.add_argument("--band", type=float, nargs=2, metavar=("LOW", "HIGH"), help=_help("noise band in Hz", d["band"]))
    sp.add_argument("--gain-ratio", dest="gain_ratio", type=float,
                    help=_help("amplitude ratio between adjacent class gains", d["gain_ratio"]))
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
                    help=_help("window lengths in ms", _DEFAULTS["sweep-window"]["sizes"]))

    sp = sub.add_parser("sweep-snr", help="evaluate across noise levels")
    _add_common(sp)
    _add_pipeline(sp)
    _add_classifier(sp)
    sp.add_argument("--snrs", type=float, nargs="+",
                    help=_help("SNR grid in dB", _DEFAULTS["sweep-snr"]["snrs"]))

    d = _DEFAULTS["select"]
    sp = sub.add_parser("select", help="greedy forward feature selection with audit trace")
    _add_common(sp)
    _add_pipeline(sp)
    _add_classifier(sp)
    sp.add_argument("--pool", nargs="+", metavar="ID",
                    help="candidate feature ids (default: full catalog)")
    sp.add_argument("--threshold", type=float,
                    help=_help("minimum gain in percentage points to accept a feature",
                               d["threshold"]))
    sp.add_argument("--objective", choices=["f1", "macro_f1", "ovr_accuracy"],
                    help=_help("selection objective; f1 is macro F1", d["objective"]))

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


def _merge(subcommand: str, saved: dict) -> dict:
    """The subcommand's defaults overlaid with the known keys of a saved config."""
    cfg = dict(_DEFAULTS[subcommand])
    cfg.update((key, value) for key, value in saved.items() if key in cfg)
    return cfg


def _resolve(subcommand: str, args: argparse.Namespace) -> dict:
    loaded = {}
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
    cfg = _merge(subcommand, loaded)
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


def _thresholds(cfg: dict) -> Thresholds:
    return Thresholds.from_dict(cfg["thresholds"]) if cfg["thresholds"] else Thresholds()


def _feature_spec(cfg: dict) -> FeatureSetSpec:
    if cfg["features"]:
        return feature_set("CUSTOM", cfg["features"], _thresholds(cfg))
    return feature_set(cfg["feature_set"], thresholds=_thresholds(cfg))


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
    spec = separable_spec(
        n_subjects=cfg["n_subjects"],
        n_channels=cfg["n_channels"],
        n_movements=cfg["n_movements"],
        n_trials=cfg["n_trials"],
        duration_s=cfg["duration_s"],
        sample_rate_hz=cfg["sample_rate_hz"],
        gain_ratio=cfg["gain_ratio"],
        seed=cfg["seed"],
        band=cfg["band"],
        amplitude_only=cfg["amplitude_only"],
    )
    if cfg["class_gain_matrix"] is not None:
        spec = replace(spec, class_gain_matrix=tuple(map(tuple, cfg["class_gain_matrix"])))
    recordings = generate_synthetic(spec)
    manifest = DatasetManifest(
        root_path=str((out / "dataset").absolute()),
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


def _cmd_extract(cfg: dict) -> int:
    out = _out_dir(cfg)
    spec = _feature_spec(cfg)
    meta = "subject,movement,trial,window"
    header, rows = meta, []
    for subject, X, y, trials in _subject_matrices(cfg):
        names = feature_column_names(spec, X.shape[1] // len(spec))
        header = ",".join([meta] + names)
        index = 0
        for i in range(len(X)):
            # a recording's windows are consecutive rows of its subject
            same = i > 0 and (y[i], trials[i]) == (y[i - 1], trials[i - 1])
            index = index + 1 if same else 0
            values = ",".join(repr(float(v)) for v in X[i])
            rows.append(f"{subject},{y[i]},{trials[i]},{index},{values}")
    (out / "features.csv").write_text("\n".join([header] + rows) + "\n")
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


def _write_sweep(out: Path, subcommand: str, cfg: dict, reports) -> int:
    """sweep_<kind>.json/.csv, run.json and one summary line per report."""
    stem = subcommand.replace("-", "_")
    _write_json(out / f"{stem}.json", [r.to_dict() for r in reports])
    (out / f"{stem}.csv").write_text(_reports_csv(reports))
    _write_run(out, subcommand, cfg)
    for report in reports:
        _print_summary(report)
    return 0 if all(r.ok for r in reports) else 1


def _cmd_sweep_window(cfg: dict) -> int:
    out = _out_dir(cfg)
    reports = sweep_window(
        _load_recordings(cfg), _feature_spec(cfg), _model_spec(cfg),
        sizes=cfg["sizes"], overlap_ms=cfg["overlap_ms"],
        filter_spec=_filter_spec(cfg), seed=cfg["seed"],
    )
    return _write_sweep(out, "sweep-window", cfg, reports)


def _cmd_sweep_snr(cfg: dict) -> int:
    out = _out_dir(cfg)
    reports = sweep_snr(
        _load_recordings(cfg), _feature_spec(cfg), _model_spec(cfg),
        snrs=cfg["snrs"], window_ms=cfg["window_ms"], overlap_ms=cfg["overlap_ms"],
        filter_spec=_filter_spec(cfg), seed=cfg["seed"],
    )
    return _write_sweep(out, "sweep-snr", cfg, reports)


def _cmd_select(cfg: dict) -> int:
    out = _out_dir(cfg)
    recordings = _load_recordings(cfg)
    sel_cfg = SelectionConfig(
        pool=tuple(cfg["pool"]),
        improvement_threshold=cfg["threshold"],
        objective=cfg["objective"],
        model_spec=_model_spec(cfg),
        window_ms=cfg["window_ms"],
        overlap_ms=cfg["overlap_ms"],
        thresholds=_thresholds(cfg),
        filter_spec=_filter_spec(cfg),
        seed=cfg["seed"],
    )
    trace = forward_select(recordings, sel_cfg)
    _write_json(out / "selection.json", trace.to_dict())
    _write_run(out, "select", cfg)
    print(trace.table())
    return 0


def _subject_matrices(cfg: dict):
    """(subject, X, y, trials) per subject, sliced from one feature table."""
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
        yield (subject, table.matrix(subject, spec.features),
               table.labels[subject], table.trials[subject])


def _reduced_two_dims(X, y):
    norm, _ = normalize_features(X)
    return project(fit_ulda(norm, y), norm)[:, :2]


def _cmd_res(cfg: dict) -> int:
    out = _out_dir(cfg)
    values = {}
    for subject, X, y, _ in _subject_matrices(cfg):
        values[subject] = res_index(_reduced_two_dims(X, y), y)
        print(f"{subject}: RES = {values[subject]:.4f}")
    _write_json(out / "res.json", values)
    _write_run(out, "res", cfg)
    return 0


def _cmd_scatter(cfg: dict) -> int:
    out = _out_dir(cfg)
    for subject, X, y, _ in _subject_matrices(cfg):
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
        subcommand = run.get("subcommand")
        if subcommand not in _HANDLERS:
            print(f"error: unknown subcommand {subcommand!r} in {args.run_json}",
                  file=sys.stderr)
            return 2
        cfg = _merge(subcommand, run["config"])
        if args.out_dir is not None:
            cfg["out_dir"] = args.out_dir
    else:
        subcommand = args.subcommand
        cfg = _resolve(subcommand, args)
    try:
        return _HANDLERS[subcommand](cfg)
    except (EmgprError, ValueError) as exc:
        # a library error, or a library validation of a configured value
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
