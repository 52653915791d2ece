"""Saving/loading fitted frameworks.

Pickle is appropriate here: the object graph is plain Python plus numpy
arrays, produced and consumed by the same library version.  A format
tag guards against loading foreign pickles by accident.  An interrupted
build resumes from the artifact cache instead (see
:class:`~repro.pipeline.stages.PairTrainStage`).
"""

from __future__ import annotations

import pickle
from pathlib import Path

from .framework import AnalyticsFramework

__all__ = ["save_framework", "load_framework"]

_FORMAT_TAG = "repro-analytics-framework-v1"


def save_framework(framework: AnalyticsFramework, path: str | Path) -> Path:
    """Serialise a (fitted or unfitted) framework to ``path``."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("wb") as handle:
        pickle.dump({"format": _FORMAT_TAG, "framework": framework}, handle)
    return path


def load_framework(path: str | Path) -> AnalyticsFramework:
    """Load a framework saved by :func:`save_framework`."""
    with Path(path).open("rb") as handle:
        payload = pickle.load(handle)
    if not isinstance(payload, dict) or payload.get("format") != _FORMAT_TAG:
        raise ValueError(f"{path} is not a saved analytics framework")
    framework = payload["framework"]
    if not isinstance(framework, AnalyticsFramework):
        raise ValueError(f"{path} does not contain an AnalyticsFramework")
    return framework
