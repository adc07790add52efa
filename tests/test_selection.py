from dataclasses import replace

import numpy as np
import pytest

import emgpr.evaluate
import emgpr.selection
from emgpr import (
    ModelSpec,
    SelectionConfig,
    TableSpec,
    crossvalidate,
    feature_set,
    forward_select,
    generate_synthetic,
    separable_spec,
)
from emgpr.dataset import Recording
from emgpr.errors import EmgprError
from emgpr.evaluate import FoldFailure
from emgpr.selection import SelectionStep, SelectionTrace

AMPLITUDE_FEATURES = {"MAV", "RMS", "IEMG", "LMAV"}


def config(pool, threshold=0.25, **overrides):
    defaults = dict(
        pool=tuple(pool),
        improvement_threshold=threshold,
        model_spec=ModelSpec(kind="qda"),
        table=TableSpec(window_ms=250.0),
    )
    defaults.update(overrides)
    return SelectionConfig(**defaults)


class TestForwardSelect:
    def test_first_pick_is_an_amplitude_feature(self, amplitude_recordings):
        # channel gain is the only class cue in this dataset, so the best
        # single feature must be an amplitude measure
        pool = ("ZC", "SSC", "SKW", "MOB", "RMS", "LMAV", "AR1")
        trace = forward_select(amplitude_recordings, config(pool))
        assert trace.steps[0].candidate in AMPLITUDE_FEATURES
        assert trace.steps[0].accepted

    def test_single_feature_pool_terminates_immediately(self, amplitude_recordings):
        trace = forward_select(amplitude_recordings, config(("RMS",)))
        assert trace.selected == ("RMS",)
        assert len(trace.steps) == 1

    def test_huge_threshold_selects_exactly_one(self, amplitude_recordings):
        pool = ("RMS", "WL", "ZC", "MAV")
        trace = forward_select(amplitude_recordings, config(pool, threshold=100.0))
        assert len(trace.selected) == 1
        assert sum(s.accepted for s in trace.steps) == 1

    def test_accepted_steps_improve_by_threshold(self, amplitude_recordings):
        pool = ("ZC", "RMS", "WL", "MOB")
        cfg = config(pool, threshold=0.25)
        trace = forward_select(amplitude_recordings, cfg)
        scores = []
        for step in trace.steps:
            if step.accepted:
                assert step.score_after - step.score_before >= 0.25 - 1e-9
                scores.append(step.score_after)
        assert scores == sorted(scores)

    def test_deterministic(self, amplitude_recordings):
        pool = ("ZC", "RMS", "WL", "MOB")
        t1 = forward_select(amplitude_recordings, config(pool))
        t2 = forward_select(amplitude_recordings, config(pool))
        assert t1 == t2

    def test_duplicate_of_selected_feature_never_accepted(self, amplitude_recordings):
        pool = ("RMS", "RMS", "WL", "ZC")
        trace = forward_select(amplitude_recordings, config(pool))
        assert list(trace.selected).count("RMS") <= 1

    def test_repeated_pool_id_is_scored_once(self, amplitude_recordings, monkeypatch):
        # the repeat is cross-validated once per pass, as if the pool held
        # it once; the config keeps the pool as given
        def counted_select(pool):
            calls = []

            def counting(*args):
                calls.append(args[1].features)
                return crossvalidate(*args)

            monkeypatch.setattr(emgpr.selection, "crossvalidate", counting)
            return forward_select(amplitude_recordings, config(pool)), calls

        repeated, repeated_calls = counted_select(("RMS", "RMS", "WL"))
        unique, unique_calls = counted_select(("RMS", "WL"))
        assert repeated == unique and repeated_calls == unique_calls
        assert len(unique_calls) == 3
        assert config(("RMS", "RMS", "WL")).to_dict()["pool"] == ["RMS", "RMS", "WL"]

    def test_trace_serialization_and_table(self, amplitude_recordings):
        trace = forward_select(amplitude_recordings, config(("RMS", "ZC")))
        d = trace.to_dict()
        assert d["selected"] == list(trace.selected)
        assert all(
            set(step) == {"candidate", "score_before", "score_after", "accepted"}
            for step in d["steps"]
        )
        table = trace.table()
        assert "selected:" in table and "RMS" in table

    def test_no_scorable_first_candidate_is_a_located_error(self):
        # movement T only in trial 1 and I only in trial 2: every fold's
        # training trials lack a movement, so every candidate fails every fold
        rng = np.random.default_rng(0)
        recordings = [Recording("S1", movement, trial, 2000.0, rng.standard_normal((2, 2000)))
                      for movement, trial in (("T", 1), ("I", 2))]
        with pytest.raises(EmgprError, match=r"no candidate in the pool can be scored: "
                           r"ZC: fold S1/trial1 failed with DegenerateClasses"):
            forward_select(recordings, config(("RMS", "ZC")))

    @staticmethod
    def fail_every_fold(monkeypatch, fails):
        """Candidate sets for which `fails` holds score NaN: every fold fails."""
        def crossvalidate_failing(table, spec, model_spec):
            report = crossvalidate(table, spec, model_spec)
            if not fails(spec.features):
                return report
            failure = FoldFailure("S1", 1, "RankZero: no fold")
            return replace(report, folds=(), failures=(failure,))

        monkeypatch.setattr(emgpr.selection, "crossvalidate", crossvalidate_failing)

    def test_unscorable_candidate_is_never_taken(self, amplitude_recordings, monkeypatch):
        # RMS ties MAV at the top and comes first, so it is picked when it scores
        assert forward_select(amplitude_recordings,
                              config(("RMS", "MAV", "WL"))).selected == ("RMS",)
        expected = forward_select(amplitude_recordings, config(("MAV", "WL")))
        self.fail_every_fold(monkeypatch, lambda features: "RMS" in features)
        trace = forward_select(amplitude_recordings, config(("RMS", "MAV", "WL")))
        assert trace == expected

    def test_no_scorable_later_candidate_ends_the_search(self, amplitude_recordings,
                                                         monkeypatch):
        full = forward_select(amplitude_recordings, config(("RMS", "MAV", "WL")))
        self.fail_every_fold(monkeypatch, lambda features: len(features) > 1)
        trace = forward_select(amplitude_recordings, config(("RMS", "MAV", "WL")))
        assert len(full.steps) > 1 and trace.steps == full.steps[:1]
        assert trace.selected == (full.steps[0].candidate,)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SelectionConfig(pool=())
        for threshold in (0.0, float("nan"), float("inf"), "1", True):
            with pytest.raises(ValueError, match="improvement_threshold"):
                SelectionConfig(improvement_threshold=threshold)
        with pytest.raises(ValueError):
            SelectionConfig(objective="recall")
        assert SelectionConfig(objective="macro_f1").objective == "f1"

    @pytest.mark.parametrize("table", [TableSpec(snr_db=10.0), TableSpec(seed=1)])
    def test_a_table_that_mixes_noise_is_refused(self, table):
        # selection mixes no noise: an SNR or a seed would only be recorded
        with pytest.raises(ValueError, match="^selection mixes no noise"):
            SelectionConfig(table=table)
        assert SelectionConfig(table=TableSpec(snr_db=float("inf"))).table == TableSpec()

    def test_to_dict_keeps_the_table_settings_flat(self):
        table = TableSpec(window_ms=200, overlap_ms=50.0)
        d = SelectionConfig(table=table).to_dict()
        assert (d["window_ms"], d["overlap_ms"]) == (200.0, 50.0)
        assert d["thresholds"] == table.thresholds.to_dict()
        assert d["filter"] == table.filter_spec.to_dict()
        assert set(d) == {"pool", "improvement_threshold", "objective", "model",
                          "window_ms", "overlap_ms", "thresholds", "filter"}

    def test_no_subject_is_refused(self):
        with pytest.raises(ValueError, match="^there is no subject to cross-validate$"):
            forward_select([], config(("RMS", "WL")))

    def test_a_string_pool_is_refused(self):
        # a string is iterable, and would read as one id per letter
        with pytest.raises(ValueError, match="^pool must be a list of feature ids, got 'MAV'$"):
            SelectionConfig(pool="MAV")
        assert SelectionConfig(pool=["MAV", "WL"]).pool == ("MAV", "WL")


class TestDuplicateColumnScores:
    def test_duplicated_feature_does_not_change_cv_score(self, amplitude_recordings):
        # reduction tolerates exactly duplicated columns, so the duplicate
        # adds zero marginal information
        from emgpr import crossvalidate, feature_set

        base = crossvalidate(
            amplitude_recordings,
            feature_set("CUSTOM", ["RMS", "WL"]),
            ModelSpec(kind="qda"),
        )
        dup = crossvalidate(
            amplitude_recordings,
            feature_set("CUSTOM", ["RMS", "WL", "RMS"]),
            ModelSpec(kind="qda"),
        )
        assert base.summary()["f1"] == pytest.approx(dup.summary()["f1"], abs=1e-12)


#: AR lags read at several fit orders, a spectral-moment member and plain
#: features; on `tilt_recordings` the greedy loop accepts AR1, M0, ZC and then
#: AR2, so AR1 is scored both from its own fit and from order-2 and order-4 fits.
MIXED_POOL = ("AR1", "AR2", "AR4", "M0", "ZC", "SKW")


@pytest.fixture(scope="module")
def tilt_recordings():
    """Five weakly coded classes: small gain steps, spectral tilt pulled in."""
    base = separable_spec(n_subjects=1, sample_rate_hz=2000.0, gain_ratio=1.1, seed=1)
    tilt = tuple(
        tuple(0.5 + 0.3 * (v - 0.5) for v in row)
        for row in base.class_tilt_matrix[:5]
    )
    return generate_synthetic(replace(
        base, n_movements=5, n_trials=3, duration_s=2.0,
        class_gain_matrix=base.class_gain_matrix[:5], class_tilt_matrix=tilt,
    ))


def reference_select(recordings, cfg):
    """The greedy loop with every candidate cross-validated from the recordings."""

    def score(feature_ids):
        report = crossvalidate(
            recordings,
            feature_set("CUSTOM", feature_ids),
            cfg.model_spec,
            window_ms=cfg.table.window_ms,
            overlap_ms=cfg.table.overlap_ms,
            thresholds=cfg.table.thresholds,
            filter_spec=cfg.table.filter_spec,
        )
        return 100.0 * report.summary()[cfg.objective][0]

    selected, steps, current = [], [], 0.0
    while len(selected) < len(set(cfg.pool)):
        scores = [(score(selected + [f]), -i, f)
                  for i, f in enumerate(cfg.pool) if f not in selected]
        best, _, fid = max(scores)
        accepted = not selected or best - current >= cfg.improvement_threshold
        steps.append(SelectionStep(fid, current, best, accepted))
        if not accepted:
            break
        selected.append(fid)
        current = best
    return SelectionTrace(tuple(steps), tuple(selected), cfg.objective)


class TestSharedTable:
    def test_trace_equals_per_candidate_crossvalidation(self, tilt_recordings):
        cfg = config(MIXED_POOL, threshold=0.01)
        trace = forward_select(tilt_recordings, cfg)
        assert {"AR1", "AR2", "M0"} <= set(trace.selected)
        assert trace == reference_select(tilt_recordings, cfg)

    def test_each_recording_filtered_once_and_extracted_once_per_order(
        self, tilt_recordings, monkeypatch
    ):
        calls = {"apply_filters": 0, "extract_matrix": 0}

        def counted(name):
            original = getattr(emgpr.evaluate, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)

            monkeypatch.setattr(emgpr.evaluate, name, wrapper)

        counted("apply_filters")
        counted("extract_matrix")
        trace = forward_select(tilt_recordings, config(MIXED_POOL, threshold=0.01))
        assert len(trace.steps) > 2
        n = len(tilt_recordings)
        subjects = len({rec.subject_id for rec in tilt_recordings})
        # one extraction per subject and AR order (1, 2 and 4)
        assert calls == {"apply_filters": n, "extract_matrix": 3 * subjects}
