"""Command-line front end emitting reproducible experiment artifacts.

Every run resolves its full configuration (defaults < --config file < flags),
writes it to run.json in the output directory, and derives all randomness
from the master seed, so `emgpr replay run.json` reproduces every output file
bit for bit.  Each subcommand is a thin shell over one library entry point
(`extract`/`res`/`scatter` slice one `build_table`; `sweep-window` and
`sweep-snr` share one handler that calls `sweep` over window_ms or snr_db).
Every option is declared once, in a table of flag, default and help; the
parser and the defaults are both read from those tables, and `main` alone
creates the output directory and records run.json, with the "error" printed
when the subcommand fails.
"""

from __future__ import annotations

import argparse
import inspect
import json
import sys
from dataclasses import fields, replace
from functools import partial
from pathlib import Path
from typing import NamedTuple

from .classify import KIND_NAMES, ModelSpec
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
    METRIC_NAMES,
    build_table,
    compare_groups,
    crossvalidate,
    sweep,
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
from .selection import OBJECTIVES, SelectionConfig, forward_select


class _Option(NamedTuple):
    flag: str | None  # None: set only through --config
    default: object
    text: str | None
    keywords: dict  # for argparse's add_argument


def _opt(flag, default, text=None, **keywords) -> _Option:
    return _Option(flag, default, text, keywords)


#: dest -> option, one table per group of options; each subcommand lists
#: the groups whose options it reads, and no other
_OUT = {"out_dir": _opt("--out-dir", "out", "directory for all output files")}

_SEED = {"seed": _opt("--seed", 0, "master seed; every random stage derives from it",
                      type=int)}

_PIPELINE = {
    "manifest": _opt("--manifest", None, "path to a dataset manifest.json"),
    "overlap_ms": _opt("--overlap-ms", SelectionConfig.overlap_ms,
                       "window overlap in ms; 0 gives disjoint windows", type=float),
    "band": _opt("--band", [FilterSpec.band_low_hz, FilterSpec.band_high_hz],
                 "bandpass edges in Hz", type=float, nargs=2, metavar=("LOW", "HIGH")),
    "notch_hz": _opt("--notch", FilterSpec.notch_hz, "mains notch frequency in Hz", type=float),
    "notch_q": _opt("--notch-q", FilterSpec.notch_q, "notch quality factor", type=float),
    "filter_order": _opt("--filter-order", FilterSpec.order,
                         "bandpass Butterworth order", type=int),
    "thresholds": _opt(None, None),
}

_WINDOW = {"window_ms": _opt("--window-ms", SelectionConfig.window_ms,
                             "analysis window length in ms", type=float)}

_SET = {
    "feature_set": _opt("--feature-set", "PROPOSED",
                        "named feature set; use CUSTOM with --features",
                        type=str.upper, choices=sorted(FEATURE_SET_NAMES)),
    "features": _opt("--features", None, "explicit feature ids for a CUSTOM set",
                     nargs="+", metavar="ID"),
}

_CLASSIFIER = {
    "classifier": _opt("--classifier", ModelSpec.kind, "classifier kind",
                       type=str.lower, choices=list(KIND_NAMES)),
    "qda_shrinkage": _opt("--qda-shrinkage", ModelSpec.qda_shrinkage,
                          "covariance shrinkage in [0,1]", type=float),
    "svm_sigma": _opt("--svm-sigma", ModelSpec.svm_sigma, "RBF kernel width", type=float),
    "svm_c": _opt("--svm-c", ModelSpec.svm_c, "SVM box constraint", type=float),
    "knn_k": _opt("--knn-k", ModelSpec.knn_k, "neighbor count, odd", type=int),
}

_SYNTH = {
    "n_subjects": _opt("--n-subjects", SyntheticSpec.n_subjects, "subjects to generate", type=int),
    "n_channels": _opt("--n-channels", SyntheticSpec.n_channels,
                       "channels per recording", type=int),
    "n_movements": _opt("--n-movements", SyntheticSpec.n_movements,
                        "movement classes, up to 10", type=int),
    "n_trials": _opt("--n-trials", SyntheticSpec.n_trials, "trials per movement", type=int),
    "duration_s": _opt("--duration-s", SyntheticSpec.duration_s,
                       "trial length in seconds", type=float),
    "sample_rate_hz": _opt("--sample-rate", SyntheticSpec.sample_rate_hz,
                           "sampling rate in Hz", type=float),
    "band": _opt("--band", list(SyntheticSpec.band), "noise band in Hz",
                 type=float, nargs=2, metavar=("LOW", "HIGH")),
    "gain_ratio": _opt("--gain-ratio",
                       inspect.signature(separable_spec).parameters["gain_ratio"].default,
                       "amplitude ratio between adjacent class gains", type=float),
    "class_gain_matrix": _opt(None, None),
    "amplitude_only": _opt("--amplitude-only", False,
                           "make channel amplitude the only class cue; "
                           "otherwise classes also differ in spectral tilt",
                           action="store_const", const=True),
}


def _help(text: str, default) -> str:
    """Help text ending in its default as typed: 0.001, 250, 20 500, none."""
    values = default if isinstance(default, list) else [default]
    shown = " ".join("none" if v is None else f"{v:g}" if isinstance(v, float) else str(v)
                     for v in values)
    return f"{text} (default {shown})"


def _options(subcommand: str) -> dict:
    """dest -> option for every option of a subcommand."""
    return {dest: opt for group in _SUBCOMMANDS[subcommand][2] for dest, opt in group.items()}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="emgpr",
        description="EMG movement-recognition experiments with reproducible outputs",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for subcommand, (_, text, _) in _SUBCOMMANDS.items():
        sp = sub.add_parser(subcommand, help=text)
        sp.add_argument("--config", help="JSON file of saved options (a run.json works)")
        for dest, opt in _options(subcommand).items():
            if opt.flag is not None:
                sp.add_argument(opt.flag, dest=dest, help=_help(opt.text, opt.default),
                                **opt.keywords)

    sp = sub.add_parser("replay", help="re-run a recorded run.json bit-identically")
    sp.add_argument("run_json", help="path to a run.json written by a previous run")
    sp.add_argument("--out-dir", dest="out_dir", help="override the recorded output directory")

    return parser


# ---------------------------------------------------------------------------
# config plumbing


def _check_list(key: str, opt: _Option, value) -> None:
    """ValueError unless `value` is a list its flag would give: 2 values for
    nargs=2 and 1 or more for nargs="+", each a number that is not a bool
    (type=float) or a string; class_gain_matrix is a list of lists of numbers."""
    def number(v):
        return isinstance(v, (int, float)) and not isinstance(v, bool)

    nargs = opt.keywords.get("nargs")
    if key == "class_gain_matrix":
        kind, ok = "lists of numbers", lambda v: isinstance(v, list) and all(map(number, v))
    elif opt.keywords.get("type") is float:
        kind, ok = "numbers", number
    else:
        kind, ok = "strings", lambda v: isinstance(v, str)
    if not (isinstance(value, list) and all(map(ok, value))
            and {2: len(value) == 2, "+": len(value) > 0}.get(nargs, True)):
        count = {2: "2 ", "+": "1 or more "}.get(nargs, "")
        raise ValueError(f"{key} must be a list of {count}{kind}, got {value!r}")


def _merge(subcommand: str, saved: dict) -> dict:
    """The subcommand's defaults overlaid with the known keys of a saved config.

    Unknown keys are named on stderr and dropped, so a typo shows while a
    run.json that records an option since removed still replays.  A key whose
    flag takes several values, and `class_gain_matrix`, must hold a list its
    flag would give (see `_check_list`), or null where that is its default;
    anything else is a ValueError naming the key.
    """
    options = _options(subcommand)
    cfg = {dest: opt.default for dest, opt in options.items()}
    unknown = sorted(set(saved) - set(cfg))
    if unknown:
        print(f"warning: ignoring config keys unknown to '{subcommand}': "
              + ", ".join(unknown), file=sys.stderr)
    cfg.update((key, value) for key, value in saved.items() if key in cfg)
    for key, opt in options.items():
        listed = "nargs" in opt.keywords or opt.keywords.get("action") == "append"
        if (listed or key == "class_gain_matrix") and not (
                cfg[key] is None and opt.default is None):
            _check_list(key, opt, cfg[key])
    return cfg


def _read_config(path) -> tuple:
    """(recording subcommand, options) of a --config file: a run.json holds
    its options under "config" and names its subcommand; any other file is
    the options alone, with the subcommand None."""
    loaded = json.loads(Path(path).read_text())
    recorded = None
    if isinstance(loaded, dict) and "subcommand" in loaded:  # a run.json
        recorded, loaded = loaded["subcommand"], loaded.get("config")
    if not isinstance(loaded, dict):
        raise ValueError(f"{path} must hold a JSON object of options")
    return recorded, loaded


def _resolve(subcommand: str, args: argparse.Namespace) -> dict:
    loaded = {}
    if args.config:
        recorded, loaded = _read_config(args.config)
        if recorded not in (None, subcommand):
            raise ValueError(f"--config was recorded by '{recorded}', not '{subcommand}'")
    cfg = _merge(subcommand, loaded)
    for key in cfg:
        value = getattr(args, key, None)
        if value is not None:
            cfg[key] = value
    return cfg


def _write_json(path: Path, obj) -> None:
    path.write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n")


def _filter_spec(cfg: dict) -> FilterSpec:
    return FilterSpec(
        band_low_hz=cfg["band"][0],
        band_high_hz=cfg["band"][1],
        notch_hz=cfg["notch_hz"],
        notch_q=cfg["notch_q"],
        order=cfg["filter_order"],
    )


def _thresholds(cfg: dict) -> Thresholds:
    given = cfg["thresholds"] or {}
    known = [f.name for f in fields(Thresholds)]
    if not isinstance(given, dict):
        raise ValueError(f"thresholds must map {', '.join(known)} to levels")
    unknown = sorted(set(given) - set(known))
    if unknown:
        raise ValueError(f"unknown thresholds keys {', '.join(unknown)}; "
                         f"known: {', '.join(known)}")
    return Thresholds(**given)


def _feature_spec(cfg: dict) -> FeatureSetSpec:
    if cfg["features"]:
        return feature_set("CUSTOM", cfg["features"])
    return feature_set(cfg["feature_set"])


def _table_settings(cfg: dict) -> dict:
    """`build_table`'s keywords: the run's thresholds and filter, and whichever
    of window, overlap, SNR and seed the subcommand's options hold."""
    held = {key: cfg[key] for key in ("window_ms", "overlap_ms", "snr_db", "seed")
            if key in cfg}
    return {"thresholds": _thresholds(cfg), "filter_spec": _filter_spec(cfg), **held}


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
        raise ValueError("--manifest is required (run `emgpr synth` to create one)")
    return load_dataset(DatasetManifest.load(cfg["manifest"]))


def _write_reports(out: Path, stem: str, reports, record) -> int:
    """Write `record` as <stem>.json and every report's rows as <stem>.csv,
    then print one summary line per report and one `fold failed:` line on
    stderr per failed fold, both tagged with the report; exit 1 on a failure."""
    _write_json(out / f"{stem}.json", record)
    rows = [row for report in reports for row in report.csv_rows()]
    (out / f"{stem}.csv").write_text("\n".join([CSV_HEADER] + rows) + "\n")
    for report in reports:
        parts = [f"{k}={v[0]:.4f}±{v[1]:.4f}" for k, v in report.summary().items()]
        tag = f"[{report.feature_set}/{report.classifier} window={report.window_ms:g}ms"
        if report.snr_db is not None:
            tag += f" snr={report.snr_db:g}dB"
        print(f"{tag}] " + " ".join(parts))
        for failure in report.failures:
            print(f"fold failed: {tag}] {failure.subject}/trial{failure.fold_trial}: "
                  f"{failure.error}", file=sys.stderr)
    return 0 if all(r.ok for r in reports) else 1


# ---------------------------------------------------------------------------
# subcommands


def _cmd_synth(cfg: dict, out: Path) -> int:
    # each flagged synth option is the separable_spec parameter of its name
    given = {dest: cfg[dest] for dest, opt in _SYNTH.items() if opt.flag is not None}
    spec = separable_spec(seed=cfg["seed"], **given)
    if cfg["class_gain_matrix"] is not None:
        spec = replace(spec, class_gain_matrix=tuple(map(tuple, cfg["class_gain_matrix"])))
    recordings = generate_synthetic(spec)
    manifest = DatasetManifest(
        root_path=(out / "dataset").absolute(),
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
    print(f"wrote {len(recordings)} recordings under {out / 'dataset'}")
    return 0


def _cmd_extract(cfg: dict, out: Path) -> int:
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
    print(f"wrote {len(rows)} feature rows to {out / 'features.csv'}")
    return 0


def _cmd_evaluate(cfg: dict, out: Path) -> int:
    report = crossvalidate(_load_recordings(cfg), _feature_spec(cfg), _model_spec(cfg),
                           **_table_settings(cfg))
    return _write_reports(out, "report", [report], report.to_dict())


def _cmd_sweep(setting: str, grid: str, stem: str, cfg: dict, out: Path) -> int:
    """`sweep` over the values of the option `grid`, into <stem>.json/.csv."""
    # a --config file may give the grid as integers; the flag gives floats
    values = [float(v) for v in cfg[grid]]
    reports = sweep(_load_recordings(cfg), [_feature_spec(cfg)], _model_spec(cfg),
                    setting, values, **_table_settings(cfg))
    return _write_reports(out, stem, reports, [r.to_dict() for r in reports])


def _cmd_select(cfg: dict, out: Path) -> int:
    recordings = _load_recordings(cfg)
    sel_cfg = SelectionConfig(
        pool=tuple(cfg["pool"]),
        improvement_threshold=cfg["threshold"],
        objective=cfg["objective"],
        model_spec=_model_spec(cfg),
        **_table_settings(cfg),
    )
    trace = forward_select(recordings, sel_cfg)
    _write_json(out / "selection.json", trace.to_dict())
    print(trace.table())
    return 0


def _subject_matrices(cfg: dict):
    """(subject, X, y, trials) per subject, sliced from one feature table."""
    spec = _feature_spec(cfg)
    table = build_table(_load_recordings(cfg), [spec.features], **_table_settings(cfg))
    for subject in table.subjects:
        yield (subject, table.matrix(subject, spec.features),
               table.labels[subject], table.trials[subject])


def _reduced_two_dims(X, y):
    norm, _ = normalize_features(X)
    return project(fit_ulda(norm, y), norm)[:, :2]


def _cmd_res(cfg: dict, out: Path) -> int:
    values = {}
    for subject, X, y, _ in _subject_matrices(cfg):
        values[subject] = res_index(_reduced_two_dims(X, y), y)
        print(f"{subject}: RES = {values[subject]:.4f}")
    _write_json(out / "res.json", values)
    return 0


def _cmd_scatter(cfg: dict, out: Path) -> int:
    for subject, X, y, _ in _subject_matrices(cfg):
        path = out / f"scatter_{subject}.csv"
        scatter_export(_reduced_two_dims(X, y), y, path)
        print(f"wrote {len(y)} points to {path}")
    return 0


def _cmd_compare(cfg: dict, out: Path) -> int:
    if not cfg["groups"] or len(cfg["groups"]) < 2:
        raise ValueError("compare needs at least two --group arguments")
    if cfg["metric"] not in METRIC_NAMES:
        raise ValueError(f"unknown metric {cfg['metric']!r}; "
                         f"known: {', '.join(METRIC_NAMES)}")
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
    print(
        f"F={result['f_stat']:.6g} p={result['p_value']:.6g} "
        f"bonferroni_p={result['bonferroni_p']:.6g}"
    )
    return 0


#: the option groups of a run that slices one feature table of one set
_TABLE = [_OUT, _PIPELINE, _WINDOW, _SET]

#: subcommand -> (handler, help, option groups); each handler writes its
#: outputs into the created output directory and returns the exit code
_SUBCOMMANDS = {
    "synth": (_cmd_synth, "generate a seeded synthetic dataset as CSV + manifest",
              [_OUT, _SEED, _SYNTH]),
    "extract": (_cmd_extract, "write the per-window feature matrix as CSV", _TABLE),
    "evaluate": (_cmd_evaluate, "leave-one-trial-out evaluation report", [
        *_TABLE, _SEED, _CLASSIFIER,
        {"snr_db": _opt("--snr-db", None,
                        "mix calibrated white noise into the raw signal at this SNR in dB",
                        type=float)},
    ]),
    "sweep-window": (partial(_cmd_sweep, "window_ms", "sizes", "sweep_window"),
                     "evaluate across window lengths", [
        _OUT, _PIPELINE, _SET, _SEED, _CLASSIFIER,
        {"sizes": _opt("--sizes", [float(v) for v in DEFAULT_WINDOW_SIZES],
                       "window lengths in ms", type=float, nargs="+")},
    ]),
    "sweep-snr": (partial(_cmd_sweep, "snr_db", "snrs", "sweep_snr"),
                  "evaluate across noise levels", [
        *_TABLE, _SEED, _CLASSIFIER,
        {"snrs": _opt("--snrs", [float(v) for v in DEFAULT_SNR_GRID],
                      "SNR grid in dB", type=float, nargs="+")},
    ]),
    "select": (_cmd_select, "greedy forward feature selection with audit trace", [
        _OUT, _PIPELINE, _WINDOW, _CLASSIFIER,
        {
            "pool": _opt("--pool", list(SelectionConfig.pool), "candidate feature ids",
                         nargs="+", metavar="ID"),
            "threshold": _opt("--threshold", SelectionConfig.improvement_threshold,
                              "minimum gain in percentage points to accept a feature",
                              type=float),
            "objective": _opt("--objective", SelectionConfig.objective,
                              "selection objective; f1 is macro F1",
                              choices=list(OBJECTIVES)),
        },
    ]),
    "res": (_cmd_res, "per-subject cluster separability index", _TABLE),
    "scatter": (_cmd_scatter, "per-subject 2-D reduced-feature scatter CSV", _TABLE),
    "compare": (_cmd_compare, "one-way ANOVA across report groups", [
        _OUT,
        {
            "groups": _opt("--group", None, "comma-separated report.json paths forming "
                           "one group; repeat per group", action="append", metavar="REPORTS"),
            "metric": _opt("--metric", "f1", "summary metric to compare",
                           choices=list(METRIC_NAMES)),
            "comparisons": _opt("--comparisons", 1,
                                "comparison count for the Bonferroni correction", type=int),
        },
    ]),
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    subcommand = args.subcommand
    record = None
    try:
        if subcommand == "replay":
            subcommand, _ = _read_config(args.run_json)
            if subcommand not in _SUBCOMMANDS:
                raise ValueError(f"unknown subcommand {subcommand!r} in {args.run_json}")
            args = argparse.Namespace(config=args.run_json, out_dir=args.out_dir)
        cfg = _resolve(subcommand, args)
        out = Path(cfg["out_dir"])
        out.mkdir(parents=True, exist_ok=True)
        record = {"subcommand": subcommand, "config": cfg}
        code = _SUBCOMMANDS[subcommand][0](cfg, out)
    except (EmgprError, ValueError, OSError) as exc:
        # a library error, a validation of a configured value, or a file
        # that cannot be read (OSError names its path)
        print(f"error: {exc}", file=sys.stderr)
        if record is None:  # no output directory was created
            return 2
        record["error"], code = str(exc), 2
    _write_json(out / "run.json", record)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
