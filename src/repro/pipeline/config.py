"""Top-level configuration of the analytics framework."""

from __future__ import annotations

from dataclasses import dataclass, field

from ..graph.prescreen import PRESCREEN_METHODS
from ..graph.ranges import DEFAULT_RANGES, DETECTION_RANGE, ScoreRange
from ..graph.subgraphs import POPULAR_IN_DEGREE
from ..lang.corpus import REPRESENTATIONS, LanguageConfig
from ..translation.seq2seq import NMTConfig
from .executor import BACKENDS as EXECUTOR_BACKENDS

__all__ = ["FrameworkConfig", "TRAIN_ENGINES"]

#: Pair-training engines: ``"looped"`` trains each pair model on its
#: own; ``"batched"`` advances shape-compatible cohorts in lockstep
#: inside one tensor program (seq2seq only; see
#: :class:`~repro.translation.BatchedPairTrainer`).
TRAIN_ENGINES = ("looped", "batched")


@dataclass(frozen=True)
class FrameworkConfig:
    """Everything needed to train and run the framework.

    Defaults are the paper's plant settings with the fast n-gram
    engine; pass ``engine="seq2seq"`` (and optionally a small
    :class:`NMTConfig`) for the faithful neural pipeline.
    ``representation`` picks the sentence encoding: ``"codes"``
    (default; packed integer word keys over the columnar event core)
    or ``"strings"`` (legacy encrypted characters) — scores are
    bit-identical either way.
    ``n_jobs``/``executor_backend`` parallelise the Algorithm 1 pair
    loop (see :class:`~repro.pipeline.executor.PairExecutor`); results
    are bit-identical to the serial build.  ``train_engine`` selects
    the pair-training engine: ``"looped"`` (default) trains one model
    at a time, ``"batched"`` (seq2seq only) advances cohorts of up to
    ``train_cohort_size`` shape-compatible pair models in lockstep
    inside one tensor program — same valid-pair set and scores (see
    :class:`~repro.translation.BatchedPairTrainer` for the exact
    equivalence contract).  ``cache_dir`` names a
    content-addressed artifact store (see
    :class:`~repro.pipeline.artifacts.ArtifactStore`): fits through a
    cache restore unchanged pairs instead of retraining them, including
    the pairs an interrupted fit saved before it stopped.
    ``prescreen`` enables the pair-affinity prescreen (``"bleu"``; see
    :mod:`repro.graph.prescreen` and ``docs/prescreen.md``), pruning hopeless pairs before any model
    trains; the default ``"off"`` is bit-identical to builds without
    the prescreen.  ``prescreen_floor`` overrides the method's
    calibrated affinity floor.
    """

    language: LanguageConfig = field(default_factory=LanguageConfig)
    representation: str = "codes"
    engine: str = "ngram"
    nmt: NMTConfig | None = None
    detection_range: ScoreRange = DETECTION_RANGE
    score_ranges: tuple[ScoreRange, ...] = DEFAULT_RANGES
    popular_threshold: int = POPULAR_IN_DEGREE
    margin: float = 0.0
    threshold_strategy: str = "dev-quantile"
    threshold_quantile: float = 0.05
    n_jobs: int | str = 1
    executor_backend: str = "auto"
    train_engine: str = "looped"
    train_cohort_size: int | None = None
    cache_dir: str | None = None
    prescreen: str = "off"
    prescreen_floor: float | None = None

    def __post_init__(self) -> None:
        if self.prescreen not in ("off", *PRESCREEN_METHODS):
            raise ValueError(
                f"unknown prescreen method {self.prescreen!r}; "
                f"choose from {('off', *PRESCREEN_METHODS)}"
            )
        if self.prescreen_floor is not None and not 0.0 <= self.prescreen_floor <= 100.0:
            raise ValueError("prescreen_floor must lie in [0, 100]")
        if self.representation not in REPRESENTATIONS:
            raise ValueError(
                f"unknown representation {self.representation!r}; "
                f"choose from {REPRESENTATIONS}"
            )
        if self.margin < 0:
            raise ValueError("margin must be non-negative")
        if self.popular_threshold < 1:
            raise ValueError("popular_threshold must be >= 1")
        if self.threshold_strategy not in ("train", "dev-min", "dev-quantile"):
            raise ValueError(f"unknown threshold strategy {self.threshold_strategy!r}")
        if self.n_jobs != "auto" and (
            not isinstance(self.n_jobs, int) or self.n_jobs < 1
        ):
            raise ValueError(
                f"n_jobs must be a positive integer or 'auto', got {self.n_jobs!r}"
            )
        if self.executor_backend not in EXECUTOR_BACKENDS:
            raise ValueError(
                f"unknown executor backend {self.executor_backend!r}; "
                f"choose from {EXECUTOR_BACKENDS}"
            )
        if self.train_engine not in TRAIN_ENGINES:
            raise ValueError(
                f"unknown train engine {self.train_engine!r}; "
                f"choose from {TRAIN_ENGINES}"
            )
        if self.train_engine == "batched" and self.engine != "seq2seq":
            raise ValueError(
                "train_engine='batched' requires engine='seq2seq' "
                f"(got engine={self.engine!r})"
            )
        if self.train_cohort_size is not None and self.train_cohort_size < 1:
            raise ValueError("train_cohort_size must be >= 1")

    @classmethod
    def plant(cls, engine: str = "ngram", popular_threshold: int = POPULAR_IN_DEGREE) -> "FrameworkConfig":
        """Paper plant settings (word 10/1, sentence 20/20)."""
        return cls(language=LanguageConfig.plant(), engine=engine, popular_threshold=popular_threshold)

    @classmethod
    def backblaze(cls, engine: str = "ngram", popular_threshold: int = 10) -> "FrameworkConfig":
        """Paper HDD settings (word 5/1, sentence 7/1).

        With only 16 nodes the in-degree ≥ 100 rule cannot apply; the
        paper's Figure 11a instead labels the 5 most-connected features,
        so the popular threshold is scaled down.
        """
        return cls(language=LanguageConfig.backblaze(), engine=engine, popular_threshold=popular_threshold)
