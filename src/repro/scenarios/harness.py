"""Per-scenario evaluation harness: framework vs. baselines.

For each generated :class:`~repro.scenarios.generators.ScenarioData`
the harness fits every requested detector on the scenario's clean
train/dev split, scores the faulty test period, calibrates each
detector's alarm threshold on its own development scores, folds the
flagged windows into sample-clock episodes, and measures event-level
precision/recall against the scenario's ground truth with
:func:`repro.detection.evaluate_events`.  Because matching happens on
the shared sample clock, detectors with different window sizes and
strides (Algorithm 2, per-sensor Markov chains, the multivariate
Hawkes process) are directly comparable.

Results serialise as ``repro-scenarios-v1`` records; one record per
``(scenario, tier, seed)`` is kept in ``BENCH_scenarios.json`` (an
append-or-replace log), so detection quality per fault shape is
tracked across PRs.  Records embed the scenario's frame digest, which
doubles as the determinism check: regenerating from the same
``(params, seed)`` must reproduce it bit-identically.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from ..baselines.hawkes import HawkesAnomalyDetector
from ..baselines.markov import MarkovAnomalyDetector
from ..detection.evaluation import (
    EventLevelEvaluation,
    evaluate_events,
    intervals_from_scores,
)
from ..graph.ranges import ScoreRange
from ..lang.corpus import LanguageConfig
from ..lang.events import MultivariateEventLog
from ..obs import MetricsRegistry, Stopwatch, atomic_write_text, get_logger
from ..pipeline.config import FrameworkConfig
from ..pipeline.framework import AnalyticsFramework
from .generators import ScenarioData, ScenarioParams, TIERS, generate_scenario, scenario_names

__all__ = [
    "DEFAULT_DETECTORS",
    "DetectorOutcome",
    "SCENARIO_SCHEMA",
    "ScenarioReport",
    "append_bench_record",
    "harness_framework_config",
    "harness_language_config",
    "load_bench",
    "run_scenario",
    "run_suite",
]

logger = get_logger(__name__)

SCENARIO_SCHEMA = "repro-scenarios-v1"

#: Detectors every scenario is scored with by default: the framework
#: (Algorithm 2) plus two baselines from :mod:`repro.baselines`.
DEFAULT_DETECTORS: tuple[str, ...] = ("framework", "markov", "hawkes")

#: Alarm-threshold slack above the development-period peak score.
CALIBRATION_SLACK = 0.05


def harness_language_config() -> LanguageConfig:
    """Windowing small enough for tiny-tier scenario logs."""
    return LanguageConfig(word_size=4, word_stride=1, sentence_length=5, sentence_stride=5)


def harness_framework_config(prescreen: str = "off") -> FrameworkConfig:
    """Framework settings used for scenario evaluation.

    The n-gram engine with a wide validity range: scenario logs are
    small, so a narrow BLEU band would leave too few valid pairs for a
    stable ``a_t`` denominator.  ``prescreen`` forwards to
    :class:`~repro.pipeline.config.FrameworkConfig` so regression
    suites can run the same scenarios with pair pruning enabled.
    """
    return FrameworkConfig(
        language=harness_language_config(),
        engine="ngram",
        detection_range=ScoreRange(60.0, 100.0, inclusive_high=True),
        popular_threshold=10,
        prescreen=prescreen,
    )


def _calibrated_threshold(dev_scores: np.ndarray) -> float:
    """Lowest threshold guaranteed quiet on the development period."""
    peak = float(dev_scores.max()) if dev_scores.size else 0.0
    return peak + CALIBRATION_SLACK


@dataclass(frozen=True)
class _WindowedScores:
    """One detector's test scores on its own window grid."""

    dev_scores: np.ndarray
    test_scores: np.ndarray
    stride: int
    span: int


def _run_framework(
    train: MultivariateEventLog,
    dev: MultivariateEventLog,
    test: MultivariateEventLog,
    metrics: MetricsRegistry | None,
    config: FrameworkConfig | None = None,
) -> _WindowedScores:
    config = config or harness_framework_config()
    framework = AnalyticsFramework(config).fit(train, dev)
    dev_scores = framework.detect(dev).anomaly_scores
    test_scores = framework.detect(test).anomaly_scores
    if metrics is not None:
        metrics.merge(framework.metrics)
    language = config.language
    return _WindowedScores(
        dev_scores=dev_scores,
        test_scores=test_scores,
        stride=language.effective_sentence_stride * language.word_stride,
        span=language.samples_per_sentence(),
    )


def _run_markov(
    train: MultivariateEventLog,
    dev: MultivariateEventLog,
    test: MultivariateEventLog,
    metrics: MetricsRegistry | None,
) -> _WindowedScores:
    language = harness_language_config()
    span = language.samples_per_sentence()
    stride = language.effective_sentence_stride * language.word_stride
    detector = MarkovAnomalyDetector(
        order=2, window_size=span, window_stride=stride, calibration_quantile=0.99
    )
    detector.fit(train, dev)
    return _WindowedScores(
        dev_scores=detector.detect(dev).anomaly_scores,
        test_scores=detector.detect(test).anomaly_scores,
        stride=stride,
        span=span,
    )


def _run_hawkes(
    train: MultivariateEventLog,
    dev: MultivariateEventLog,
    test: MultivariateEventLog,
    metrics: MetricsRegistry | None,
) -> _WindowedScores:
    span = 2 * harness_language_config().samples_per_sentence()
    stride = span // 2
    detector = HawkesAnomalyDetector(
        window_size=span, window_stride=stride, calibration_quantile=0.99
    )
    detector.fit(train, dev)
    return _WindowedScores(
        dev_scores=detector.detect(dev).anomaly_scores,
        test_scores=detector.detect(test).anomaly_scores,
        stride=stride,
        span=span,
    )


_DETECTOR_RUNNERS: dict[str, Callable[..., _WindowedScores]] = {
    "framework": _run_framework,
    "markov": _run_markov,
    "hawkes": _run_hawkes,
}


@dataclass(frozen=True)
class DetectorOutcome:
    """One detector's event-level score on one scenario."""

    detector: str
    threshold: float
    num_windows: int
    window_span: int
    window_stride: int
    evaluation: EventLevelEvaluation
    seconds: float

    def to_dict(self) -> dict:
        payload = {
            "detector": self.detector,
            "threshold": self.threshold,
            "num_windows": self.num_windows,
            "window_span": self.window_span,
            "window_stride": self.window_stride,
            "seconds": self.seconds,
        }
        payload.update(self.evaluation.to_dict())
        return payload


@dataclass(frozen=True)
class ScenarioReport:
    """All detector outcomes for one generated scenario."""

    scenario: str
    tier: str | None
    seed: int
    params: ScenarioParams
    frame_digest: str
    truth_events: tuple[tuple[int, int], ...]
    affected_sensors: tuple[str, ...]
    kinds: tuple[str, ...]
    outcomes: tuple[DetectorOutcome, ...]

    def outcome(self, detector: str) -> DetectorOutcome:
        """The named detector's outcome."""
        for outcome in self.outcomes:
            if outcome.detector == detector:
                return outcome
        raise KeyError(f"no outcome for detector {detector!r}")

    def to_dict(self) -> dict:
        return {
            "schema": SCENARIO_SCHEMA,
            "scenario": self.scenario,
            "tier": self.tier,
            "seed": self.seed,
            "params": self.params.to_dict(),
            "frame_digest": self.frame_digest,
            "truth": {
                "events": [list(event) for event in self.truth_events],
                "affected_sensors": list(self.affected_sensors),
                "kinds": list(self.kinds),
            },
            "detectors": {o.detector: o.to_dict() for o in self.outcomes},
        }


def run_scenario(
    data: ScenarioData,
    detectors: Sequence[str] = DEFAULT_DETECTORS,
    tier: str | None = None,
    metrics: MetricsRegistry | None = None,
    framework_config: FrameworkConfig | None = None,
) -> ScenarioReport:
    """Fit + detect every requested detector on one scenario.

    Each detector is fitted on the scenario's clean train/dev days,
    its alarm threshold calibrated just above its development-period
    peak score, and its flagged test windows merged into sample-clock
    episodes scored event-level against the ground truth.
    ``framework_config`` overrides :func:`harness_framework_config`
    for the ``"framework"`` detector only (e.g. to evaluate the same
    scenarios with the pair prescreen enabled); other detectors ignore
    it.
    """
    unknown = [name for name in detectors if name not in _DETECTOR_RUNNERS]
    if unknown:
        raise KeyError(
            f"unknown detectors {unknown}; choose from {sorted(_DETECTOR_RUNNERS)}"
        )
    train, dev, test, test_truth = data.split()
    truth_events = tuple(tuple(event) for event in test_truth.intervals())

    outcomes: list[DetectorOutcome] = []
    for name in detectors:
        watch = Stopwatch()
        if name == "framework" and framework_config is not None:
            scored = _run_framework(train, dev, test, metrics, config=framework_config)
        else:
            scored = _DETECTOR_RUNNERS[name](train, dev, test, metrics)
        threshold = _calibrated_threshold(scored.dev_scores)
        predicted = intervals_from_scores(
            scored.test_scores,
            threshold,
            stride=scored.stride,
            span=scored.span,
            merge_gap=scored.span,
        )
        evaluation = evaluate_events(predicted, truth_events)
        seconds = watch.elapsed
        outcomes.append(
            DetectorOutcome(
                detector=name,
                threshold=threshold,
                num_windows=int(scored.test_scores.shape[0]),
                window_span=scored.span,
                window_stride=scored.stride,
                evaluation=evaluation,
                seconds=seconds,
            )
        )
        if metrics is not None:
            metrics.counter("scenarios.detector_runs").inc()
            metrics.histogram("scenarios.detector_seconds").observe(seconds)
        logger.info(
            "scenario %s / %s: precision=%.2f recall=%.2f (%d episodes, %d events)",
            data.name, name, evaluation.precision, evaluation.recall,
            len(evaluation.predicted_episodes), len(evaluation.true_events),
        )
    if metrics is not None:
        metrics.counter("scenarios.runs").inc()
    return ScenarioReport(
        scenario=data.name,
        tier=tier,
        seed=data.seed,
        params=data.params,
        frame_digest=data.digest,
        truth_events=truth_events,
        affected_sensors=test_truth.affected_sensors,
        kinds=test_truth.kinds,
        outcomes=tuple(outcomes),
    )


# ----------------------------------------------------------------------
# Benchmark log (BENCH_scenarios.json)
# ----------------------------------------------------------------------
def load_bench(path: str | Path) -> dict:
    """Read a scenario benchmark file, or an empty shell when missing."""
    path = Path(path)
    if not path.exists():
        return {"schema": SCENARIO_SCHEMA, "records": []}
    payload = json.loads(path.read_text())
    if payload.get("schema") != SCENARIO_SCHEMA:
        raise ValueError(
            f"{path} carries schema {payload.get('schema')!r}, "
            f"expected {SCENARIO_SCHEMA!r}"
        )
    return payload


def append_bench_record(record: dict, path: str | Path) -> dict:
    """Append-or-replace one record keyed by ``(scenario, tier, seed)``.

    The write is atomic (temp file + rename), so a crashed run never
    leaves a half-written benchmark log.
    """
    path = Path(path)
    payload = load_bench(path)
    key = (record["scenario"], record.get("tier"), record["seed"])
    payload["records"] = [
        existing
        for existing in payload["records"]
        if (existing["scenario"], existing.get("tier"), existing["seed"]) != key
    ] + [record]
    atomic_write_text(path, json.dumps(payload, indent=2) + "\n")
    return payload


def run_suite(
    names: Sequence[str] | None = None,
    tier: str = "tiny",
    seed: int = 11,
    detectors: Sequence[str] = DEFAULT_DETECTORS,
    bench_path: str | Path | None = None,
    params: ScenarioParams | None = None,
    metrics: MetricsRegistry | None = None,
) -> list[ScenarioReport]:
    """Generate and evaluate a set of scenarios, logging bench records.

    ``names=None`` runs every registered scenario.  With
    ``bench_path``, each report is appended (or replaced, keyed on
    ``(scenario, tier, seed)``) to the benchmark log as it completes.
    """
    if params is None and tier not in TIERS:
        raise KeyError(f"unknown tier {tier!r}; choose from {sorted(TIERS)}")
    reports: list[ScenarioReport] = []
    for name in names if names is not None else scenario_names():
        data = generate_scenario(name, params=params, seed=seed, tier=tier)
        report = run_scenario(
            data, detectors=detectors, tier=None if params else tier, metrics=metrics
        )
        reports.append(report)
        if bench_path is not None:
            append_bench_record(report.to_dict(), bench_path)
    return reports
