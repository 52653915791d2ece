"""The traced pass: one run of the pipeline with every layer in a span.

The fit is driven stage by stage, through ``Stage.run`` on a
``StageContext`` seeded exactly as ``MultivariateRelationshipGraph.build``
seeds it, against a :class:`TimingStore`.  The pair-train, detect and
online layers are then split into fit, translate and BLEU by replaying
their public per-pair calls (see :mod:`perf.checks`); every replay must
reproduce the real outputs bit for bit.  An untraced cold fit runs first:
it is the baseline of ``trace.overhead_frac`` and the graph the traced
stages must reproduce.
"""

from __future__ import annotations

import tempfile
import time
from pathlib import Path

from perf import checks, workloads
from repro.pipeline.artifacts import ArtifactStore

_MISS = object()


class TimingStore(ArtifactStore):
    """An :class:`ArtifactStore` that puts every read and write in a span."""

    def __init__(self, root, tracer) -> None:
        super().__init__(root)
        self.tracer = tracer
        self.gets = self.hits = self.saves = self.bytes_written = 0

    def get(self, key, default=None):
        with self.tracer.span("store.get"):
            payload = super().get(key, _MISS)
        self.gets += 1
        if payload is _MISS:
            return default
        self.hits += 1
        return payload

    def save(self, key, payload):
        with self.tracer.span("store.save"):
            path = super().save(key, payload)
        self.saves += 1
        self.bytes_written += path.stat().st_size
        return path


def _build_seeds(train, dev, config) -> dict:
    """The context seeds ``AnalyticsFramework.fit`` hands the stage graph."""
    from repro.graph.prescreen import PrescreenConfig

    if config.prescreen == "off":
        prescreen = None
    elif config.prescreen_floor is None:
        prescreen = PrescreenConfig(method=config.prescreen)
    else:
        prescreen = PrescreenConfig(method=config.prescreen, floor=config.prescreen_floor)
    batched = config.train_engine == "batched"
    return {
        "training_log": train,
        "development_log": dev,
        "language_config": config.language,
        "representation": config.representation,
        "factory_spec": ("engine", config.engine, config.nmt),
        "pairs": None,
        "prescreen_config": prescreen,
        "executor_options": {
            "n_jobs": config.n_jobs,
            "backend": "batched" if batched else config.executor_backend,
            "cohort_size": config.train_cohort_size,
            "retries": 1,
            "progress": None,
            "checkpoint": None,
        },
    }


def traced_fit(tracer, train, dev, config, store):
    """Algorithm 1 stage by stage, one span per stage; returns the context."""
    from repro.pipeline.stages import (
        CorpusStage,
        EncryptStage,
        GraphAssembleStage,
        PairTrainStage,
        PrescreenStage,
        StageContext,
    )

    context = StageContext(_build_seeds(train, dev, config), store=store)
    stages = (EncryptStage(), CorpusStage(), PrescreenStage(), PairTrainStage(), GraphAssembleStage())
    with tracer.span("fit"):
        for stage in stages:
            with tracer.span("stage." + stage.name.replace("-", "_")):
                stage.run(context)
    return context


def _online_stream(tracer, graph, config, band, test, windows: int) -> list:
    """Stream the test log's first ``windows`` windows, one sample per push."""
    from repro.detection import OnlineAnomalyDetector

    detector = OnlineAnomalyDetector(
        graph,
        score_range=band,
        threshold=config.threshold_strategy,
        quantile=config.threshold_quantile,
        margin=config.margin,
    )
    language = config.language
    stride = language.effective_sentence_stride * language.word_stride
    count = language.samples_per_sentence() + (windows - 1) * stride
    columns = {name: test[name].events for name in test.sensors}
    chunks = [{name: [column[i]] for name, column in columns.items()} for i in range(count)]
    emitted = []
    with tracer.span("online"):
        for chunk in chunks:
            emitted.extend(detector.push_chunk(chunk))
    return emitted


def run(tracer, workload: str, scale: str, logs, workdir: Path) -> dict:
    """The traced pass; returns per-layer values and replay mismatches."""
    from repro import AnalyticsFramework
    from repro.service import warm_start_graph

    train, dev, test = logs
    config = workloads.framework_config(workload, scale, train)
    with tempfile.TemporaryDirectory(dir=workdir) as reference_cache:
        start = time.perf_counter()
        reference = AnalyticsFramework(config).fit(
            train, dev, cache_dir=ArtifactStore(reference_cache)
        )
        untraced_fit_s = time.perf_counter() - start
    cache = tempfile.mkdtemp(dir=workdir)
    store = TimingStore(cache, tracer)
    context = traced_fit(tracer, train, dev, config, store)
    graph = context["graph"]
    mismatches = []
    if checks.graph_digest(graph).digest() != checks.graph_digest(reference.graph).digest():
        mismatches.append("traced fit differs from the untraced fit")

    pairs = list(graph.relationships)
    with tracer.span("replay.pair_train"):
        pair_train = checks.replay_pair_train(
            tracer, graph, context["dev_sentences"], config, pairs
        )
    band = workloads.detection_band(graph, workload, scale)
    with tracer.span("detect"):
        result = checks.detector_for(graph, config, band).detect(test)
    with tracer.span("replay.detect"):
        detect = checks.replay_detect(
            tracer, graph, test, result, list(range(len(result.valid_pairs)))
        )
    windows = min(workloads.ONLINE_WINDOWS[scale], result.num_windows)
    emitted = _online_stream(tracer, graph, config, band, test, windows)
    with tracer.span("replay.online"):
        online = checks.replay_online(
            tracer, graph, config, detect["sentences"], result, emitted
        )
    if workload == "serve":
        with tracer.span("warm_start"):
            warm = warm_start_graph(config, train, dev, store)
        if checks.graph_digest(warm).digest() != checks.graph_digest(graph).digest():
            mismatches.append("warm-started graph differs from the cold fit")
    for replay in (pair_train, detect, online):
        mismatches.extend(replay["mismatches"])

    seconds = tracer.seconds
    own = tracer.self_seconds()
    replayed = seconds("pair_train.translate") + seconds("pair_train.bleu")
    if config.engine == "ngram":
        model_fit_s = seconds("pair_train.fit")
    else:
        # Seq2seq training is not replayed: it is the pair-train stage's
        # own time (store calls excluded) minus the replayed scoring.
        model_fit_s = own["stage.pair_train"] - replayed
    stage_names = ("encrypt", "corpus", "prescreen", "pair_train", "graph_assemble")
    explained = (
        sum(seconds(f"stage.{name}") for name in stage_names if name != "pair_train")
        + seconds("stage.pair_train") - own["stage.pair_train"]
        + model_fit_s + replayed
        + seconds("detect.sentences") + seconds("detect.translate") + seconds("detect.bleu")
    )
    report = graph.build_report
    screened = graph.prescreen
    scored = 0 if screened is None else len(screened.kept_pairs) + len(screened.pruned_pairs)
    kept_ratio = 1.0 if not scored else len(screened.kept_pairs) / scored
    layers = {
        **{f"stage.{name}.s": seconds(f"stage.{name}") for name in stage_names},
        "prescreen.pairs_scored": scored,
        "prescreen.kept_ratio": kept_ratio,
        "pair_train.pairs": len(report.completed),
        "pair_train.fit_s": model_fit_s,
        "pair_train.translate_s": seconds("pair_train.translate"),
        "pair_train.bleu_s": seconds("pair_train.bleu"),
        "pair_train.bleu_calls": pair_train["bleu_calls"],
        "pair_train.cohorts": report.cohorts,
        "store.get_s": seconds("store.get"),
        "store.gets": store.gets,
        "store.hit_ratio": store.hits / store.gets if store.gets else 0.0,
        "store.save_s": seconds("store.save"),
        "store.saves": store.saves,
        "store.bytes_written": store.bytes_written,
        "detect.sentences_s": seconds("detect.sentences"),
        "detect.translate_s": seconds("detect.translate"),
        "detect.bleu_s": seconds("detect.bleu"),
        "detect.bleu_calls": detect["bleu_calls"],
        "detect.windows": result.num_windows,
        "detect.pairs": len(result.valid_pairs),
        "online.ms_per_window": 1000.0 * seconds("online") / max(1, len(emitted)),
        "online.translate_s": seconds("online.translate"),
        "online.bleu_s": seconds("online.bleu"),
        "online.windows": len(emitted),
        "trace.overhead_frac": seconds("fit") / untraced_fit_s - 1.0,
        "trace.explained_frac": explained / (seconds("fit") + seconds("detect")),
    }
    if len(emitted) != windows:
        mismatches.append(f"online stream emitted {len(emitted)} of {windows} windows")
    return {
        "layers": layers,
        "mismatches": mismatches,
        "attempted": len(pairs) + result.num_windows + windows,
        "failed": len(report.skipped) + windows - len(emitted),
        "untraced_fit_s": untraced_fit_s,
    }
