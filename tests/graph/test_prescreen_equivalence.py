"""The equivalence wall around the pair prescreen.

Two guarantees gate the prescreen into the pipeline:

- ``prescreen="off"`` is bit-identical to a pipeline without the
  PrescreenStage at all — same edge weights, same per-sentence dev
  scores, same content-addressed pair artifact digests;
- every pair the calibrated ``"bleu"`` prescreen prunes would, if
  trained anyway, score strictly below the lowest dev-BLEU admitted to
  any informative global-subgraph range — pruning can only ever remove
  edges the graph would not use.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.datasets import PlantConfig, generate_plant_dataset
from repro.graph.ranges import DEFAULT_RANGES
from repro.lang import LanguageConfig
from repro.graph.mvrg import MultivariateRelationshipGraph
from repro.pipeline import FrameworkConfig
from repro.pipeline.artifacts import ArtifactStore
from repro.pipeline.executor import PairTask, train_pair
from repro.pipeline.stages import (
    CorpusStage,
    EncryptStage,
    GraphAssembleStage,
    PairTrainStage,
    StageContext,
    StageGraph,
)

#: The lowest low-bound of any informative default range: an edge below
#: this score is never admitted to a global subgraph whose range can
#: carry structure (the [0, 60) catch-all is not informative).
LOWEST_INFORMATIVE_BOUND = min(r.low for r in DEFAULT_RANGES if r.low > 0)

LANGUAGE = LanguageConfig(
    word_size=6, word_stride=1, sentence_length=8, sentence_stride=8
)


@pytest.fixture(scope="module")
def noisy_plant_split():
    """A noisy plant log where a majority of pairs are genuinely weak.

    The elevated noise rate thins out the relationship graph the same
    way a real, loosely coupled fleet does; it is the regime the
    prescreen exists for (the default low-noise plant is near-fully
    connected and prunes nothing).
    """
    config = PlantConfig(
        num_sensors=12,
        days=14,
        samples_per_day=96,
        num_components=4,
        noise_rate=0.10,
        seed=7,
        anomaly_days=(13,),
        precursor_days=(12,),
    )
    data = generate_plant_dataset(config)
    train, dev, _ = data.split(7, 3)
    return train, dev


def _build(train, dev, prescreen, store=None):
    config = FrameworkConfig(language=LANGUAGE, engine="ngram", prescreen=prescreen)
    return MultivariateRelationshipGraph.build(train, dev, config, store=store)


def _legacy_build(train, dev, store):
    """The pre-prescreen pipeline: no PrescreenStage in the graph."""
    seeds = {
        "training_log": train,
        "development_log": dev,
        "language_config": LANGUAGE,
        "representation": "codes",
        "factory_spec": ("engine", "ngram", None),
        "pairs": None,
        "executor_options": {},
    }
    pipeline = StageGraph(
        [EncryptStage(), CorpusStage(), PairTrainStage(), GraphAssembleStage()],
        seeds=tuple(seeds),
    )
    context = pipeline.run(StageContext(seeds, store=store))
    return context["graph"]


class TestOffBitIdentical:
    def test_scores_and_artifacts_match_prescreenless_pipeline(
        self, noisy_plant_split, tmp_path
    ):
        train, dev = noisy_plant_split
        legacy_store = ArtifactStore(tmp_path / "legacy")
        off_store = ArtifactStore(tmp_path / "off")
        legacy = _legacy_build(train, dev, legacy_store)
        off = _build(train, dev, prescreen="off", store=off_store)

        assert off.prescreen is None
        assert set(off.relationships) == set(legacy.relationships)
        for pair, rel in legacy.relationships.items():
            other = off.relationships[pair]
            assert other.score == rel.score
            np.testing.assert_array_equal(
                other.dev_sentence_scores, rel.dev_sentence_scores
            )

        legacy_keys = {key.digest for key in legacy_store.keys(kind="pair")}
        off_keys = {key.digest for key in off_store.keys(kind="pair")}
        assert off_keys == legacy_keys
        # Off stores nothing of its own: no prescreen artifact exists.
        assert list(off_store.keys(kind="prescreen")) == []

    def test_none_is_off(self, noisy_plant_split):
        # A config that sets no prescreen builds with it off.
        train, dev = noisy_plant_split
        graph = MultivariateRelationshipGraph.build(
            train, dev, FrameworkConfig(language=LANGUAGE)
        )
        assert graph.prescreen is None
        assert graph.build_report.pruned == []


class TestPrunedPairsBelowAdmission:
    def test_every_pruned_pair_scores_below_lowest_admitted(self, noisy_plant_split):
        train, dev = noisy_plant_split
        graph = _build(train, dev, prescreen="bleu")
        result = graph.prescreen
        assert result is not None
        # The regime check: this dataset must actually exercise pruning.
        assert len(result.pruned_pairs) >= 10

        kept_scores = [rel.score for rel in graph]
        admitted = [s for s in kept_scores if s >= LOWEST_INFORMATIVE_BOUND]
        bound = min([LOWEST_INFORMATIVE_BOUND, *admitted])

        corpus = graph.corpus
        dev_sentences = {
            name: corpus[name].sentences_for(dev[name]) for name in corpus.sensors
        }
        spec = ("engine", "ngram", None)
        for source, target in result.pruned_pairs:
            task = PairTask(
                source=source,
                target=target,
                corpus=corpus.parallel(source, target),
                dev_source=dev_sentences[source],
                dev_target=dev_sentences[target],
            )
            trained = train_pair(task, spec)
            assert trained.score < bound, (
                f"prescreen pruned ({source!r}, {target!r}) with affinity "
                f"{result.affinity(source, target):.2f} below floor "
                f"{result.floor:g}, but its trained dev-BLEU "
                f"{trained.score:.2f} would have been admitted (bound {bound:.2f})"
            )

    def test_pruned_accounting_consistent(self, noisy_plant_split):
        train, dev = noisy_plant_split
        graph = _build(train, dev, prescreen="bleu")
        report = graph.build_report
        sensors = len(graph.sensors)
        assert sorted(report.pruned) == sorted(graph.prescreen.pruned_pairs)
        assert (
            len(report.completed)
            + len(report.cached)
            + len(report.pruned)
            + len(report.skipped)
            == sensors * (sensors - 1)
        )
        # Pruned pairs never became edges; kept pairs all did.
        assert not set(report.pruned) & set(graph.relationships)
        assert set(graph.prescreen.kept_pairs) == set(graph.relationships)

    def test_cached_rebuild_accounting_still_sums(self, noisy_plant_split, tmp_path):
        train, dev = noisy_plant_split
        store = ArtifactStore(tmp_path / "cache")
        _build(train, dev, prescreen="bleu", store=store)
        second = _build(train, dev, prescreen="bleu", store=store)
        report = second.build_report
        sensors = len(second.sensors)
        # Everything kept was restored from the store; pruned pairs are
        # still accounted for, so the buckets partition the full grid.
        assert report.completed == []
        assert (
            len(report.cached) + len(report.pruned) + len(report.skipped)
            == sensors * (sensors - 1)
        )
        assert report.to_dict()["pruned"] == len(report.pruned)
        # The prescreen pass itself was restored from its own artifact.
        assert list(store.keys(kind="prescreen")) != []

    def test_kept_edges_identical_to_full_build(self, noisy_plant_split):
        train, dev = noisy_plant_split
        full = _build(train, dev, prescreen="off")
        pruned = _build(train, dev, prescreen="bleu")
        for pair, rel in pruned.relationships.items():
            assert rel.score == full.relationships[pair].score
