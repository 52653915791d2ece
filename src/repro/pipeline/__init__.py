"""End-to-end framework: configuration, stage-graph pipeline, persistence."""

from .artifacts import ArtifactKey, ArtifactStore
from .config import FrameworkConfig
from .executor import BuildReport, PairExecutor, PairTask, SkippedPair
from .framework import AnalyticsFramework
from .hdd import HDDCaseStudy, HDDSplit
from .persistence import load_framework, save_framework
from .plant import DayScore, PlantCaseStudy, window_start_sample
from .reporting import generate_report, write_report
from .stages import StageContext, StageGraph

__all__ = [
    "AnalyticsFramework",
    "ArtifactKey",
    "ArtifactStore",
    "BuildReport",
    "DayScore",
    "FrameworkConfig",
    "HDDCaseStudy",
    "HDDSplit",
    "PairExecutor",
    "PairTask",
    "PlantCaseStudy",
    "SkippedPair",
    "StageContext",
    "StageGraph",
    "generate_report",
    "load_framework",
    "save_framework",
    "window_start_sample",
    "write_report",
]
