"""repro — reproduction of "Mining Multivariate Discrete Event Sequences
for Knowledge Discovery and Anomaly Detection" (Nie et al., DSN 2020).

The public API mirrors the paper's pipeline:

- :mod:`repro.lang` — sensor encryption and language generation;
- :mod:`repro.translation` — directional translation models and BLEU;
- :mod:`repro.graph` — the multivariate relationship graph (Algorithm 1),
  global/local subgraphs and community detection;
- :mod:`repro.detection` — anomaly detection (Algorithm 2), fault
  diagnosis and disk-failure evaluation;
- :mod:`repro.pipeline` — the end-to-end :class:`AnalyticsFramework`;
- :mod:`repro.datasets` — plant and Backblaze-style data generators;
- :mod:`repro.baselines` — Random Forest and OC-SVM (Table II), plus
  Markov and Hawkes event models;
- :mod:`repro.nn` — the from-scratch autograd/LSTM substrate.
"""

from .detection import AnomalyDetector, DetectionResult
from .graph import (
    DEFAULT_RANGES,
    DETECTION_RANGE,
    MultivariateRelationshipGraph,
    ScoreRange,
)
from .lang import EventSequence, LanguageConfig, MultivariateEventLog
from .pipeline import AnalyticsFramework, FrameworkConfig, load_framework, save_framework
from .translation import NMTConfig, corpus_bleu, sentence_bleu

__version__ = "1.0.0"

__all__ = [
    "AnalyticsFramework",
    "AnomalyDetector",
    "DEFAULT_RANGES",
    "DETECTION_RANGE",
    "DetectionResult",
    "EventSequence",
    "FrameworkConfig",
    "LanguageConfig",
    "MultivariateEventLog",
    "MultivariateRelationshipGraph",
    "NMTConfig",
    "ScoreRange",
    "corpus_bleu",
    "load_framework",
    "save_framework",
    "sentence_bleu",
    "__version__",
]
