"""Tests for the stage-graph pipeline and incremental pair rebuilds.

The headline acceptance criteria of the stage-graph refactor: a refit
with unchanged logs and config trains zero pairs, and perturbing one
sensor's events retrains exactly the ``2(N-1)`` pairs that involve it.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from repro.graph import MultivariateRelationshipGraph
from repro.lang import MultivariateEventLog
from repro.pipeline import ArtifactStore
from repro.pipeline.artifacts import fingerprint_obj, fingerprint_sequence
from repro.pipeline.stages import (
    CorpusStage,
    EncryptStage,
    PairTrainStage,
    Stage,
    StageContext,
    StageGraph,
    spec_fingerprint,
)
from repro.translation.ngram import NGramTranslator

from .test_executor import CachedCountingFactory, build_graph


def perturb_sensor(log: MultivariateEventLog, sensor: str) -> MultivariateEventLog:
    """Flip one event in one sensor, leaving every other sensor intact."""
    events = {seq.sensor: list(seq.events) for seq in log}
    events[sensor][0] = events[sensor][0] + "_PERTURBED"
    return MultivariateEventLog.from_mapping(events)


class TestIncrementalRebuild:
    def test_unchanged_refit_trains_zero_pairs(
        self, executor_log, executor_language_config, tmp_path
    ):
        store = ArtifactStore(tmp_path / "cache")
        first_factory = CachedCountingFactory()
        first = build_graph(
            executor_log,
            executor_language_config,
            model_factory=first_factory,
            store=store,
        )
        n = len(first.sensors)
        assert first_factory.calls == n * (n - 1)
        assert not first.build_report.cached

        second_factory = CachedCountingFactory()
        second = build_graph(
            executor_log,
            executor_language_config,
            model_factory=second_factory,
            store=store,
        )
        assert second_factory.calls == 0
        assert sorted(second.build_report.cached) == sorted(first.relationships)
        assert not second.build_report.completed

    def test_perturbing_one_sensor_retrains_2n_minus_2_pairs(
        self, executor_log, executor_language_config, tmp_path
    ):
        store = ArtifactStore(tmp_path / "cache")
        build_graph(
            executor_log,
            executor_language_config,
            model_factory=CachedCountingFactory(),
            store=store,
        )
        perturbed = perturb_sensor(executor_log, "sC")
        factory = CachedCountingFactory()
        graph = build_graph(
            perturbed, executor_language_config, model_factory=factory, store=store
        )
        n = len(graph.sensors)
        assert factory.calls == 2 * (n - 1)
        retrained = set(graph.build_report.completed)
        assert retrained == {pair for pair in graph.relationships if "sC" in pair}

    def test_cached_build_bit_identical_to_fresh(
        self, executor_log, executor_language_config, tmp_path
    ):
        log = executor_log.select(["sA", "sB", "sC"])
        store = ArtifactStore(tmp_path / "cache")
        kwargs = dict(engine="ngram", store=store)
        first = build_graph(log, executor_language_config, **kwargs)
        cached = build_graph(log, executor_language_config, **kwargs)
        fresh = build_graph(log, executor_language_config, engine="ngram")
        assert pickle.dumps(cached.scores()) == pickle.dumps(fresh.scores())
        assert pickle.dumps(cached.scores()) == pickle.dumps(first.scores())
        assert list(cached.relationships) == list(fresh.relationships)
        for pair in fresh.relationships:
            np.testing.assert_array_equal(
                cached[pair].dev_sentence_scores, fresh[pair].dev_sentence_scores
            )

    def test_cached_build_streams_progress_for_every_pair(
        self, executor_log, executor_language_config, tmp_path
    ):
        log = executor_log.select(["sA", "sB", "sC"])
        store = ArtifactStore(tmp_path / "cache")
        build_graph(log, executor_language_config, store=store)
        seen: list[tuple[str, str, float]] = []
        graph = build_graph(
            log,
            executor_language_config,
            store=store,
            progress=lambda s, t, score: seen.append((s, t, score)),
        )
        assert {(s, t) for s, t, _ in seen} == set(graph.relationships)
        assert all(score == graph.score(s, t) for s, t, score in seen)

    def test_store_accepts_bare_path(
        self, executor_log, executor_language_config, tmp_path
    ):
        log = executor_log.select(["sA", "sB"])
        build_graph(
            log,
            executor_language_config,
            model_factory=CachedCountingFactory(),
            store=tmp_path / "cache",
        )
        factory = CachedCountingFactory()
        build_graph(
            log, executor_language_config, model_factory=factory, store=tmp_path / "cache"
        )
        assert factory.calls == 0

    def test_opaque_factory_is_never_cached(
        self, executor_log, executor_language_config, tmp_path
    ):
        from .test_executor import CountingFactory

        log = executor_log.select(["sA", "sB"])
        store = ArtifactStore(tmp_path / "cache")
        build_graph(
            log, executor_language_config, model_factory=CountingFactory(), store=store
        )
        factory = CountingFactory()
        graph = build_graph(
            log, executor_language_config, model_factory=factory, store=store
        )
        assert factory.calls == 2
        assert not graph.build_report.cached

    def test_config_change_invalidates_every_pair(
        self, executor_log, executor_language_config, tmp_path
    ):
        from repro.lang import LanguageConfig

        log = executor_log.select(["sA", "sB", "sC"])
        store = ArtifactStore(tmp_path / "cache")
        build_graph(
            log, executor_language_config, model_factory=CachedCountingFactory(), store=store
        )
        other_config = LanguageConfig(
            word_size=3, word_stride=1, sentence_length=5, sentence_stride=5
        )
        factory = CachedCountingFactory()
        graph = build_graph(log, other_config, model_factory=factory, store=store)
        n = len(graph.sensors)
        assert factory.calls == n * (n - 1)

    def test_build_report_to_dict_counts(
        self, executor_log, executor_language_config, tmp_path
    ):
        log = executor_log.select(["sA", "sB", "sC"])
        store = ArtifactStore(tmp_path / "cache")
        build_graph(log, executor_language_config, store=store)
        graph = build_graph(log, executor_language_config, store=store)
        payload = graph.build_report.to_dict()
        assert payload["trained"] == 0
        assert payload["cached"] == 6
        assert payload["skipped"] == 0
        assert sorted(tuple(p) for p in payload["cached_pairs"]) == sorted(
            graph.relationships
        )


class TestSpecFingerprint:
    def test_engine_specs_cacheable(self):
        assert spec_fingerprint(("engine", "ngram", None)) is not None
        assert spec_fingerprint(("engine", "ngram", None)) != spec_fingerprint(
            ("engine", "seq2seq", None)
        )

    def test_factory_requires_cache_token(self):
        assert spec_fingerprint(("factory", CachedCountingFactory())) is not None
        assert spec_fingerprint(("factory", lambda: NGramTranslator())) is None


class TestPairKey:
    """Golden pair artifact key: a change here silently cold-starts every cache."""

    PINNED = "07e9bfabab3ace4436851e05ae9f42dd75fa59c89c0dd0fbfab768a4b4647f26"

    def test_pair_key_is_pinned(self, executor_log, executor_language_config):
        train = executor_log.slice(0, 360)
        dev = executor_log.slice(360, 480)
        key = PairTrainStage().pair_key(
            spec_fingerprint(("engine", "ngram", None)),
            fingerprint_obj([executor_language_config, "codes"]),
            fingerprint_sequence(train["sA"]),
            fingerprint_sequence(train["sB"]),
            fingerprint_sequence(dev["sA"]),
            fingerprint_sequence(dev["sB"]),
        )
        assert str(key) == f"pair/{self.PINNED}"

    def test_build_stores_the_pinned_key(
        self, executor_log, executor_language_config, tmp_path
    ):
        store = ArtifactStore(tmp_path / "cache")
        build_graph(
            executor_log, executor_language_config, store=store, pairs=[("sA", "sB")]
        )
        assert [key.digest for key in store.keys("pair")] == [self.PINNED]


class TestStageGraphValidation:
    class Producer(Stage):
        name = "producer"
        inputs = ("seed",)
        outputs = ("value",)

        def compute(self, context):
            return {"value": context["seed"] + 1}

    class Consumer(Stage):
        name = "consumer"
        inputs = ("value",)
        outputs = ("result",)

        def compute(self, context):
            return {"result": context["value"] * 2}

    def test_runs_in_order(self):
        graph = StageGraph([self.Producer(), self.Consumer()], seeds=("seed",))
        context = graph.run(StageContext({"seed": 1}))
        assert context["result"] == 4
        assert [r.stage for r in context.results] == ["producer", "consumer"]

    def test_unsatisfied_input_rejected_at_construction(self):
        with pytest.raises(ValueError, match="consumes"):
            StageGraph([self.Consumer()], seeds=("seed",))

    def test_duplicate_stage_name_rejected(self):
        with pytest.raises(ValueError, match="duplicate stage name"):
            StageGraph([self.Producer(), self.Producer()], seeds=("seed",))

    def test_duplicate_output_producer_rejected(self):
        class Rival(self.Producer):
            name = "rival"

        with pytest.raises(ValueError, match="produced by both"):
            StageGraph([self.Producer(), Rival()], seeds=("seed",))

    def test_missing_seed_value_rejected_at_run(self):
        graph = StageGraph([self.Producer()], seeds=("seed",))
        with pytest.raises(KeyError, match="seed values"):
            graph.run(StageContext({}))

    def test_declared_outputs_enforced(self):
        class Liar(Stage):
            name = "liar"
            outputs = ("promised",)

            def compute(self, context):
                return {"delivered": 1}

        with pytest.raises(RuntimeError, match="declares outputs"):
            Liar().run(StageContext({}))

    def test_missing_input_raises_at_run(self):
        with pytest.raises(KeyError, match="missing inputs"):
            self.Producer().run(StageContext({}))


class TestWholeStageCaching:
    def test_encrypt_and_corpus_stages_cache_hit_on_rerun(
        self, executor_log, executor_language_config, tmp_path
    ):
        store = ArtifactStore(tmp_path / "cache")
        log = executor_log.select(["sA", "sB"])
        seeds = {
            "training_log": log.slice(0, 360),
            "development_log": log.slice(360, 480),
            "language_config": executor_language_config,
        }

        def run_once():
            context = StageContext(dict(seeds), store=store)
            StageGraph(
                [EncryptStage(), CorpusStage()], seeds=tuple(seeds)
            ).run(context)
            return context

        first = run_once()
        second = run_once()
        assert [r.cache_hit for r in first.results] == [False, False]
        assert [r.cache_hit for r in second.results] == [True, True]
        assert (
            second["corpus"].sensors == first["corpus"].sensors
        )
        assert second["corpus"]["sA"].sentences == first["corpus"]["sA"].sentences

    def test_corrupt_whole_stage_artifact_recomputed(
        self, executor_log, executor_language_config, tmp_path
    ):
        store = ArtifactStore(tmp_path / "cache")
        log = executor_log.select(["sA", "sB"])
        seeds = {"training_log": log.slice(0, 360)}
        stage = EncryptStage()
        context = StageContext(dict(seeds), store=store)
        result = stage.run(context)
        store.path_for(result.key).write_bytes(b"garbage")
        rerun = stage.run(StageContext(dict(seeds), store=store))
        assert not rerun.cache_hit

    def test_serial_parallel_and_cached_builds_identical(
        self, executor_log, executor_language_config, tmp_path
    ):
        log = executor_log.select(["sA", "sB", "sC"])
        serial = build_graph(log, executor_language_config, n_jobs=1)
        store = ArtifactStore(tmp_path / "cache")
        parallel = build_graph(
            log, executor_language_config, n_jobs=4, backend="thread", store=store
        )
        cached = build_graph(log, executor_language_config, n_jobs=1, store=store)
        assert pickle.dumps(serial.scores()) == pickle.dumps(parallel.scores())
        assert pickle.dumps(serial.scores()) == pickle.dumps(cached.scores())


class TestGraphAssembly:
    def test_build_through_stage_graph_matches_direct_api(
        self, executor_log, executor_language_config
    ):
        log = executor_log.select(["sA", "sB"])
        graph = build_graph(log, executor_language_config)
        assert isinstance(graph, MultivariateRelationshipGraph)
        assert graph.build_report is not None
        assert sorted(graph.relationships) == [("sA", "sB"), ("sB", "sA")]
