"""Anomaly detection, fault diagnosis and disk-failure evaluation."""

from .anomaly import AnomalyDetector, DetectionResult
from .attribution import SensorBlame, attribute_anomaly
from .diagnosis import ClusterDiagnosis, FaultDiagnosis, diagnose
from .drift import DriftReport, PairDrift, assess_drift
from .evaluation import (
    DayLevelEvaluation,
    EventLevelEvaluation,
    evaluate_days,
    evaluate_events,
    intervals_from_scores,
    merge_intervals,
    threshold_sweep,
)
from .online import OnlineAnomalyDetector, WindowScore
from .validity import valid_detection_pairs
from .disk import (
    DEFAULT_JUMP,
    DiskEvaluation,
    DriveOutcome,
    detects_failure,
    evaluate_drives,
    sharp_increases,
)

__all__ = [
    "AnomalyDetector",
    "ClusterDiagnosis",
    "DEFAULT_JUMP",
    "DayLevelEvaluation",
    "DetectionResult",
    "DiskEvaluation",
    "DriftReport",
    "DriveOutcome",
    "EventLevelEvaluation",
    "FaultDiagnosis",
    "OnlineAnomalyDetector",
    "PairDrift",
    "SensorBlame",
    "WindowScore",
    "assess_drift",
    "attribute_anomaly",
    "detects_failure",
    "diagnose",
    "evaluate_days",
    "evaluate_drives",
    "evaluate_events",
    "intervals_from_scores",
    "merge_intervals",
    "sharp_increases",
    "threshold_sweep",
    "valid_detection_pairs",
]
