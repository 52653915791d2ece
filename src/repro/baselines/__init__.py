"""Baseline models (Section IV-B): Random Forest and OC-SVM, plus Markov and Hawkes event models."""

from .forest import RandomForest, balance_classes
from .hawkes import (
    HawkesAnomalyDetector,
    HawkesDetectionResult,
    MultivariateHawkes,
    state_change_times,
)
from .markov import MarkovAnomalyDetector, MarkovChainModel, MarkovDetectionResult
from .metrics import ConfusionMatrix, confusion_matrix, f1_score, precision, recall
from .ocsvm import OneClassSVM, project_capped_simplex, rbf_kernel
from .tree import DecisionTree

__all__ = [
    "ConfusionMatrix",
    "DecisionTree",
    "HawkesAnomalyDetector",
    "HawkesDetectionResult",
    "MarkovAnomalyDetector",
    "MarkovChainModel",
    "MarkovDetectionResult",
    "MultivariateHawkes",
    "OneClassSVM",
    "RandomForest",
    "balance_classes",
    "confusion_matrix",
    "f1_score",
    "precision",
    "project_capped_simplex",
    "rbf_kernel",
    "recall",
    "state_change_times",
]
