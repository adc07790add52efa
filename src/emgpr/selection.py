"""Greedy forward feature selection over the catalog.

The pool's features are extracted once into a feature table, with every AR
lag at every pool fit order, so each candidate set reads its AR lags off a
fit at its own largest lag, as a plain run would.  Each step cross-validates
every candidate on a column slice of that table, keeps the best-scoring
addition, and accepts it only when it improves the objective by at least the
configured number of percentage points.  Ties go to the earlier pool
position, so a run is deterministic given dataset and config: selection
mixes no noise and draws no random number, so its table spec has no SNR and
seed 0.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

from .classify import ModelSpec
from .errors import EmgprError, check_number, field_values
from .evaluate import TableSpec, build_table, crossvalidate
from .features import CATALOG, FeatureSetSpec, ar_lag


#: every objective SelectionConfig accepts; macro_f1 is another name for f1
OBJECTIVES = ("f1", "macro_f1", "ovr_accuracy", "accuracy")


@dataclass(frozen=True)
class SelectionConfig:
    pool: tuple = CATALOG
    improvement_threshold: float = 0.25  # percentage points of the objective
    objective: str = "f1"  # macro F1; one of OBJECTIVES
    model_spec: ModelSpec = ModelSpec()
    table: TableSpec = TableSpec()  # snr_db None and seed 0

    def __post_init__(self):
        # a string is iterable too, and would read as one id per letter
        if isinstance(self.pool, str):
            raise ValueError(f"pool must be a list of feature ids, got {self.pool!r}")
        object.__setattr__(self, "pool", tuple(self.pool))
        if not self.pool:
            raise ValueError("candidate pool must be non-empty")
        check_number("improvement_threshold", self.improvement_threshold, 0, open_low=True)
        if self.objective not in OBJECTIVES:
            raise ValueError(f"unsupported objective {self.objective!r}")
        objective = {"macro_f1": "f1"}.get(self.objective, self.objective)
        object.__setattr__(self, "objective", objective)
        if self.table.snr_db is not None or self.table.seed != 0:
            raise ValueError("selection mixes no noise, so its table must have snr_db "
                             f"None and seed 0, got snr_db={self.table.snr_db!r}, "
                             f"seed={self.table.seed!r}")

    def to_dict(self) -> dict:
        return {
            "pool": list(self.pool),
            "improvement_threshold": self.improvement_threshold,
            "objective": self.objective,
            "model": self.model_spec.to_dict(),
            "window_ms": self.table.window_ms,
            "overlap_ms": self.table.overlap_ms,
            "thresholds": self.table.thresholds.to_dict(),
            "filter": self.table.filter_spec.to_dict(),
        }


@dataclass(frozen=True)
class SelectionStep:
    candidate: str
    score_before: float
    score_after: float
    accepted: bool


@dataclass(frozen=True)
class SelectionTrace:
    steps: tuple
    selected: tuple
    objective: str

    def to_dict(self) -> dict:
        return {
            "objective": self.objective,
            "selected": list(self.selected),
            "steps": [asdict(s) for s in self.steps],
        }

    def table(self) -> str:
        lines = [f"{'step':>4}  {'candidate':<22} {'before':>8} {'after':>8}  accepted"]
        for i, s in enumerate(self.steps, start=1):
            lines.append(
                f"{i:>4}  {s.candidate:<22} {s.score_before:8.3f} "
                f"{s.score_after:8.3f}  {'yes' if s.accepted else 'no'}"
            )
        lines.append("selected: " + ", ".join(self.selected))
        return "\n".join(lines)


def forward_select(recordings, cfg: SelectionConfig) -> SelectionTrace:
    """Run the greedy loop and return the audit trace.

    Each pass scores every pool feature not yet selected, a repeated id once,
    and takes the best; a candidate whose folds all fail scores NaN and is
    never taken.  The first pick is always accepted; the search ends at a
    pick below the threshold or when no candidate is left or can be scored.
    EmgprError when none can be scored at the first pass, naming one and its
    first fold failure.
    """
    # a repeated id is scored once, at its first position, which wins its ties
    pool = tuple(dict.fromkeys(cfg.pool))
    # every prefix of the pool's AR lags, in lag order: a candidate reads its
    # lags off a fit at its largest one, which ends one of these prefixes
    ar = sorted({fid for fid in pool if ar_lag(fid)}, key=ar_lag)
    serves = [pool] + [ar[: i + 1] for i in range(len(ar))]
    table = build_table(recordings, serves, **field_values(cfg.table))

    steps, selected, current = [], [], 0.0
    while True:
        scored = []
        for i, fid in enumerate(pool):
            if fid in selected:
                continue
            spec = FeatureSetSpec("CUSTOM", (*selected, fid))
            report = crossvalidate(table, spec, cfg.model_spec)
            score = 100.0 * report.mean(cfg.objective)
            if not math.isnan(score):
                scored.append((score, -i, fid))
        if not scored:  # no candidate is left, or none can be scored
            if selected:
                break
            why = (f"fold {f.subject}/trial{f.fold_trial} failed with {f.error}"
                   for f in report.failures)
            raise EmgprError(f"no candidate in the pool can be scored: {fid}: "
                             + next(why, "no fold was scored"))
        score, _, fid = max(scored)
        accepted = not selected or score - current >= cfg.improvement_threshold
        steps.append(SelectionStep(fid, current, score, accepted))
        if not accepted:
            break
        selected.append(fid)
        current = score
    return SelectionTrace(tuple(steps), tuple(selected), cfg.objective)
