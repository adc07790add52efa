"""Greedy forward feature selection over the catalog.

The pool's features are extracted once into a feature table, with every AR
lag at every pool fit order, so each candidate set reads its AR lags off a
fit at its own largest lag, as a plain run would.  Each step cross-validates
every candidate on a column slice of that table, keeps the best-scoring
addition, and accepts it only when it improves the objective by at least the
configured number of percentage points.  Ties go to the earlier pool
position, so a run is deterministic given dataset and config: selection
mixes no noise and draws no random number.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .classify import ModelSpec
from .errors import check_number
from .evaluate import DEFAULT_WINDOW_MS, build_table, crossvalidate
from .features import CATALOG, FeatureSetSpec, Thresholds
from .preprocess import FilterSpec


@dataclass(frozen=True)
class SelectionConfig:
    pool: tuple = CATALOG
    improvement_threshold: float = 0.25  # percentage points of the objective
    objective: str = "f1"  # macro F1; "ovr_accuracy" also supported
    model_spec: ModelSpec = field(default_factory=ModelSpec)
    window_ms: float = DEFAULT_WINDOW_MS
    overlap_ms: float = 0.0
    thresholds: Thresholds = field(default_factory=Thresholds)
    filter_spec: FilterSpec = field(default_factory=FilterSpec)

    def __post_init__(self):
        if not self.pool:
            raise ValueError("candidate pool must be non-empty")
        check_number("improvement_threshold", self.improvement_threshold, 0, open_low=True)
        objective = {"macro_f1": "f1"}.get(self.objective, self.objective)
        if objective not in ("f1", "ovr_accuracy", "accuracy"):
            raise ValueError(f"unsupported objective {self.objective!r}")
        object.__setattr__(self, "objective", objective)

    def to_dict(self) -> dict:
        return {
            "pool": list(self.pool),
            "improvement_threshold": self.improvement_threshold,
            "objective": self.objective,
            "model": self.model_spec.to_dict(),
            "window_ms": self.window_ms,
            "overlap_ms": self.overlap_ms,
            "thresholds": self.thresholds.to_dict(),
            "filter": self.filter_spec.to_dict(),
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
            "steps": [
                {
                    "candidate": s.candidate,
                    "score_before": s.score_before,
                    "score_after": s.score_after,
                    "accepted": s.accepted,
                }
                for s in self.steps
            ],
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
    """Run the greedy loop and return the audit trace."""
    lags = sorted({int(fid[2:]) for fid in cfg.pool if fid.startswith("AR")})
    serves = [cfg.pool] + [[f"AR{lag}" for lag in lags if lag <= p] for p in lags]
    table = build_table(recordings, serves, thresholds=cfg.thresholds,
                        window_ms=cfg.window_ms, overlap_ms=cfg.overlap_ms,
                        filter_spec=cfg.filter_spec)

    def score(feature_ids) -> float:
        spec = FeatureSetSpec("CUSTOM", tuple(feature_ids))
        report = crossvalidate(table, spec, cfg.model_spec)
        return 100.0 * report.summary()[cfg.objective][0]

    def best_candidate(current):
        best_fid, best_score = None, -float("inf")
        for fid in cfg.pool:
            if fid in current:
                continue
            s = score(list(current) + [fid])
            if s > best_score:
                best_fid, best_score = fid, s
        return best_fid, best_score

    steps = []
    seed_fid, seed_score = best_candidate(())
    selected = [seed_fid]
    current_score = seed_score
    steps.append(SelectionStep(seed_fid, 0.0, seed_score, True))

    while len(selected) < len(set(cfg.pool)):
        fid, new_score = best_candidate(selected)
        if fid is None:
            break
        accepted = new_score - current_score >= cfg.improvement_threshold
        steps.append(SelectionStep(fid, current_score, new_score, accepted))
        if not accepted:
            break
        selected.append(fid)
        current_score = new_score

    return SelectionTrace(
        steps=tuple(steps), selected=tuple(selected), objective=cfg.objective
    )
