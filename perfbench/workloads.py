"""The four benchmark workloads: seeded inputs, one timed repetition, checks.

Every workload is built from `--seed` alone.  `setup(seed)` generates the
recordings (and, for the online loop, fits the pipeline); `rep(state, meter)`
is one timed repetition and returns a `Rep`.  It calls `meter.probe()` (see
speed.py) before, between and after its requests, and runs requests longer
than a few milliseconds under `meter.ticking()`. `summary(state, rep)` reduces a
repetition's output to the JSON-able form stored in `references.json`, and
`check(state, rep, ref)` counts wrong outputs against it.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass, replace

import numpy as np

import emgpr
from emgpr import (
    ConfusionMatrix,
    FilterSpec,
    ModelSpec,
    Recording,
    SelectionConfig,
    apply_filters,
    crossvalidate,
    extract,
    extract_matrix,
    feature_set,
    fit_ulda,
    forward_select,
    generate_synthetic,
    metrics,
    normalize_features,
    predict,
    project,
    segment,
    separable_spec,
    train,
)
from emgpr.seeding import derive_seed

WINDOW_MS = 250.0
SNR_DB = 10.0
F1_FLOOR = 0.9
#: Outputs may differ from the recorded reference by this share of decisions
#: (at least one), so a last-digit change in floating-point order that moves
#: a borderline window is not read as a wrong program.
MOVED_TOLERANCE = 0.001
SCORE_TOLERANCE_PP = 0.5


@dataclass
class Rep:
    output: object
    requests: list  # (start, end) perf_counter times, one pair per request
    decisions: int  # test-window labels produced
    wall: float = 0.0  # raw seconds, set by the caller that timed it


def _confusion_digest(reports) -> str:
    h = hashlib.sha256()
    for report in reports:
        for fold in report.folds:
            h.update(f"{fold.subject}/{fold.fold_trial}:".encode())
            h.update(fold.confusion.counts.astype(np.int64).tobytes())
    return h.hexdigest()


def _moved(a, b) -> int:
    """Decisions that changed cell between two confusion matrices."""
    return int(np.abs(np.asarray(a) - np.asarray(b)).sum()) // 2


def _allowed(decisions: int) -> int:
    return max(1, int(MOVED_TOLERANCE * decisions))


# ---------------------------------------------------------------------------
# leave-one-trial-out cross-validation


class Loto:
    """`crossvalidate` with 10 dB noise, one call per subject.

    A request is one subject's leave-one-trial-out evaluation, so the
    latency percentiles have a sample per subject and repetition; the folds
    are the ones a single call over all subjects would produce.
    """

    required_layers = ("dataset", "preprocess", "features", "reduce", "classify",
                       "evaluate")

    def __init__(self, name, why, n_subjects, set_name, kind):
        self.name, self.why = name, why
        self.n_subjects, self.set_name, self.kind = n_subjects, set_name, kind

    def spec(self, seed):
        return separable_spec(n_subjects=self.n_subjects, sample_rate_hz=4000.0,
                              seed=seed)

    def setup(self, seed):
        by_subject = {}
        for rec in generate_synthetic(self.spec(seed)):
            by_subject.setdefault(rec.subject_id, []).append(rec)
        return {"seed": seed, "by_subject": by_subject,
                "set": feature_set(self.set_name), "model": ModelSpec(kind=self.kind)}

    def recordings(self, state):
        return [r for rs in state["by_subject"].values() for r in rs]

    def describe(self, state):
        recs = self.recordings(state)
        n = int(round(WINDOW_MS * recs[0].sample_rate_hz / 1000.0))
        return {"spec": self.spec(state["seed"]).to_dict(), "feature_set": self.set_name,
                "classifier": self.kind, "snr_db": SNR_DB, "window_ms": WINDOW_MS,
                "recordings": len(recs), "samples_per_window": n,
                "windows": sum(r.n_samples // n for r in recs)}

    def rep(self, state, meter):
        reports, requests = [], []
        meter.probe()
        for subject in sorted(state["by_subject"]):
            with meter.ticking():
                t0 = time.perf_counter()
                reports.append(crossvalidate(state["by_subject"][subject], state["set"],
                                             state["model"], window_ms=WINDOW_MS,
                                             snr_db=SNR_DB, seed=state["seed"]))
                requests.append((t0, time.perf_counter()))
            meter.probe()
        decisions = sum(f.confusion.total for r in reports for f in r.folds)
        return Rep(reports, requests, decisions)

    def summary(self, state, rep):
        return {
            "digest": _confusion_digest(rep.output),
            "confusion": {
                r.folds[0].subject: sum(f.confusion.counts for f in r.folds).tolist()
                for r in rep.output if r.folds
            },
        }

    def macro_f1(self, state, rep):
        return float(np.mean([f.scores.macro_f1 for r in rep.output for f in r.folds]))

    def check(self, state, rep, ref):
        """(attempted, failed, notes): one unit per fold."""
        folds = [f for r in rep.output for f in r.folds]
        failures = [f for r in rep.output for f in r.failures]
        attempted = len(folds) + len(failures)
        notes = [f"fold failed: {f.subject}/{f.fold_trial}: {f.error}" for f in failures]
        failed = len(failures)
        f1 = self.macro_f1(state, rep)
        if f1 < F1_FLOOR:
            notes.append(f"macro F1 {f1:.4f} below {F1_FLOOR}")
            return attempted, attempted, notes
        if ref is not None and ref["digest"] != _confusion_digest(rep.output):
            got = self.summary(state, rep)["confusion"]
            moved = sum(_moved(got.get(s, 0), cm) for s, cm in ref["confusion"].items())
            if moved > _allowed(rep.decisions):
                notes.append(f"{moved} decisions differ from the reference")
                return attempted, attempted, notes
        return attempted, failed, notes


# ---------------------------------------------------------------------------
# forward selection


SELECT_POOL = ("MAV", "WL", "WAMP", "ZC", "SSC", "VAR", "MOB", "COM", "SKW", "LMAV")


class SelectForward:
    name = "select_forward"
    why = ("forward selection re-filters and re-extracts the same 60 recordings "
           "in each of 27 crossvalidate calls: repeated work dominates")
    required_layers = ("preprocess", "features", "reduce", "classify",
                       "evaluate", "selection")

    def spec(self, seed):
        # Weak class coding (gain ratio 1.1, spectral tilt pulled toward 0.5)
        # so that no single feature scores F1 = 1 and a second one is taken.
        base = separable_spec(n_subjects=1, sample_rate_hz=2000.0, gain_ratio=1.1,
                              seed=seed)
        tilt = tuple(tuple(0.5 + 0.3 * (v - 0.5) for v in row)
                     for row in base.class_tilt_matrix)
        return replace(base, class_tilt_matrix=tilt)

    def config(self):
        # A 2-point threshold accepts the second feature (about +7 points)
        # and rejects the third (under +1), so every seed runs three steps.
        return SelectionConfig(pool=SELECT_POOL, improvement_threshold=2.0)

    def setup(self, seed):
        recs = generate_synthetic(self.spec(seed))
        n = int(round(WINDOW_MS * recs[0].sample_rate_hz / 1000.0))
        return {"seed": seed, "recordings": recs, "config": self.config(),
                "samples_per_window": n,
                "windows": sum(r.n_samples // n for r in recs)}

    def recordings(self, state):
        return state["recordings"]

    def describe(self, state):
        return {"spec": self.spec(state["seed"]).to_dict(),
                "selection": self.config().to_dict(), "window_ms": WINDOW_MS,
                "recordings": len(state["recordings"]),
                "samples_per_window": state["samples_per_window"],
                "windows": state["windows"]}

    def rep(self, state, meter):
        """One request: a whole selection.  Decisions are windows x sets scored."""
        meter.probe()
        with meter.ticking():
            t0 = time.perf_counter()
            trace = forward_select(state["recordings"], state["config"])
            requests = [(t0, time.perf_counter())]
        meter.probe()
        pool = len(state["config"].pool)
        scored = sum(pool - i for i in range(len(trace.steps)))
        return Rep(trace, requests, state["windows"] * scored)

    def summary(self, state, rep):
        return rep.output.to_dict()

    def macro_f1(self, state, rep):
        accepted = [s.score_after for s in rep.output.steps if s.accepted]
        return accepted[-1] / 100.0

    def check(self, state, rep, ref):
        """(attempted, failed, notes): one unit per selection run."""
        trace = rep.output
        notes = []
        if sum(s.accepted for s in trace.steps) < 2:
            notes.append(f"selection accepted fewer than 2 features: {trace.selected}")
        if self.macro_f1(state, rep) < F1_FLOOR:
            notes.append(f"final objective {self.macro_f1(state, rep):.4f} below {F1_FLOOR}")
        if ref is not None:
            got = trace.to_dict()
            same_path = (got["selected"] == ref["selected"] and
                         [(s["candidate"], s["accepted"]) for s in got["steps"]] ==
                         [(s["candidate"], s["accepted"]) for s in ref["steps"]])
            close = same_path and all(
                abs(a[k] - b[k]) <= SCORE_TOLERANCE_PP
                for a, b in zip(got["steps"], ref["steps"])
                for k in ("score_before", "score_after"))
            if not close:
                notes.append(f"selection trace differs from the reference: {got}")
        return 1, int(bool(notes)), notes


# ---------------------------------------------------------------------------
# online single-window decisions


ONLINE_STREAM_S = 30.0
#: Windows between two speed probes: about 40 ms of requests per 3 ms probe.
ONLINE_PROBE_EVERY = 10


class OnlineWindow:
    name = "online_window"
    why = ("closed loop, one client: each 250 ms chunk is filtered, windowed, "
           "extracted, scaled, projected and classified alone, one row per call")
    required_layers = ("dataset", "preprocess", "features", "reduce", "classify")

    def spec(self, seed):
        return separable_spec(n_subjects=1, sample_rate_hz=4000.0, seed=seed)

    def stream_spec(self, seed):
        # The held-out trial, long enough for 1200 distinct chunks.
        return replace(self.spec(seed), n_trials=1, duration_s=ONLINE_STREAM_S,
                       seed=derive_seed(seed, "online-stream"))

    def setup(self, seed):
        fspec = FilterSpec()
        fset = feature_set("PROPOSED")
        recs = [r for r in generate_synthetic(self.spec(seed)) if r.trial <= 5]
        stream = generate_synthetic(self.stream_spec(seed))
        blocks, ys = [], []
        for rec in recs:
            windows = segment(apply_filters(rec, fspec), WINDOW_MS)
            blocks.append(extract_matrix(fset, windows))
            ys.extend([rec.movement] * len(windows))
        norm, bounds = normalize_features(np.vstack(blocks))
        projection = fit_ulda(norm, np.asarray(ys))
        model = train(ModelSpec(kind="svm"), project(projection, norm), np.asarray(ys))

        chunks = []
        for rec in stream:
            n = int(round(WINDOW_MS * rec.sample_rate_hz / 1000.0))
            for i in range(rec.n_samples // n):
                chunks.append(Recording(rec.subject_id, rec.movement, 6,
                                        rec.sample_rate_hz,
                                        rec.channels[:, i * n:(i + 1) * n].copy()))
        return {"seed": seed, "filter": fspec, "set": fset, "bounds": bounds,
                "projection": projection, "model": model, "chunks": chunks,
                "recordings": len(recs) + len(stream), "train_windows": len(ys)}

    def recordings(self, state):
        return state["chunks"]

    def describe(self, state):
        chunk = state["chunks"][0]
        return {"spec": self.spec(state["seed"]).to_dict(),
                "stream_spec": self.stream_spec(state["seed"]).to_dict(),
                "feature_set": "PROPOSED", "classifier": "svm",
                "window_ms": WINDOW_MS, "recordings": state["recordings"],
                "train_windows": state["train_windows"],
                "windows": len(state["chunks"]), "samples_per_window": chunk.n_samples}

    def rep(self, state, meter):
        fspec, fset, bounds = state["filter"], state["set"], state["bounds"]
        projection, model = state["projection"], state["model"]
        labels, requests = [], []
        clock = time.perf_counter
        meter.probe()
        for i, chunk in enumerate(state["chunks"], 1):
            t0 = clock()
            # The public API keeps no filter state, so each chunk is
            # filtered from rest.
            window = segment(apply_filters(chunk, fspec), WINDOW_MS)[0]
            row, _ = normalize_features(extract(fset, window).values[None, :], bounds)
            labels.append(predict(model, project(projection, row))[0])
            requests.append((t0, clock()))
            if i % ONLINE_PROBE_EVERY == 0 or i == len(state["chunks"]):
                meter.probe()
        return Rep(labels, requests, len(labels))

    def batched_labels(self, state):
        """The same fitted pipeline on the same windows, in one batched call."""
        windows = [segment(apply_filters(c, state["filter"]), WINDOW_MS)[0]
                   for c in state["chunks"]]
        rows, _ = normalize_features(extract_matrix(state["set"], windows),
                                     state["bounds"])
        return list(predict(state["model"], project(state["projection"], rows)))

    def summary(self, state, rep):
        """Labels as one digit per window (the index into MOVEMENTS)."""
        return {"labels": "".join(str(emgpr.MOVEMENTS.index(str(v))) for v in rep.output)}

    def macro_f1(self, state, rep):
        truth = [c.movement for c in state["chunks"]]
        cm = ConfusionMatrix.from_predictions(truth, [str(v) for v in rep.output],
                                              emgpr.MOVEMENTS)
        return metrics(cm).macro_f1

    def check(self, state, rep, ref):
        """(attempted, failed, notes): one unit per window."""
        if "batched" not in state:
            state["batched"] = [str(v) for v in self.batched_labels(state)]
        got = [str(v) for v in rep.output]
        wrong = sum(a != b for a, b in zip(got, state["batched"]))
        notes = [f"{wrong} online labels differ from the batched call"] if wrong else []
        f1 = self.macro_f1(state, rep)
        if f1 < F1_FLOOR:
            notes.append(f"macro F1 {f1:.4f} below {F1_FLOOR}")
            return len(got), len(got), notes
        if ref is not None:
            moved = sum(a != b for a, b in
                        zip(self.summary(state, rep)["labels"], ref["labels"]))
            if moved > _allowed(len(got)):
                notes.append(f"{moved} labels differ from the reference")
                return len(got), len(got), notes
        return len(got), wrong, notes


WORKLOADS = {
    w.name: w
    for w in (
        Loto("loto_proposed_qda",
             "the paper's main experiment, PROPOSED + QDA on 4 subjects at 4 kHz "
             "with 10 dB noise: feature extraction dominates",
             4, "PROPOSED", "qda"),
        Loto("loto_fs2_svm",
             "FS2 + SVM on 2 subjects: SMO training dominates and features are "
             "cheap, the contrast case for a feature optimisation",
             2, "FS2", "svm"),
        SelectForward(),
        OnlineWindow(),
    )
}
