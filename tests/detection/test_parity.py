"""Batch/online detection agreement.

The streaming :class:`OnlineAnomalyDetector` scores through the batch
:class:`AnomalyDetector`'s block scorer, so the two must agree on valid
pairs, window indices, broken-pair sets and scores however the stream
is chunked.  These tests pin that contract, including the historical
divergence — the online path used to count dev-BLEU-0.0 pairs the batch
path excluded, silently diluting ``a_t`` — and the stream fingerprint
that snapshots already on disk carry.
"""

from __future__ import annotations

import copy
import dataclasses
import hashlib
import json

import numpy as np
import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from repro.detection import AnomalyDetector, OnlineAnomalyDetector, valid_detection_pairs
from repro.graph import MultivariateRelationshipGraph, ScoreRange
from repro.lang import LanguageConfig


#: Accepts every trained pair, so the dev-BLEU-0.0 exclusion is the
#: only filter in play (the range alone would admit a 0.0 score).
FULL_RANGE = ScoreRange(0.0, 100.0, inclusive_high=True)


@pytest.fixture(scope="module")
def parity_setup(fitted_plant_framework, plant_dataset):
    graph = fitted_plant_framework.graph
    _, _, test = plant_dataset.split(10, 3)
    return graph, test


def _zeroed_graph(graph: MultivariateRelationshipGraph):
    """A copy of ``graph`` with one relationship's dev BLEU forced to 0.0."""
    zeroed_pair = next(iter(graph.relationships))
    relationships = dict(graph.relationships)
    relationships[zeroed_pair] = dataclasses.replace(
        relationships[zeroed_pair], score=0.0
    )
    return MultivariateRelationshipGraph(graph.corpus, relationships), zeroed_pair


def _stream(detector: OnlineAnomalyDetector, test, limit: int):
    emitted = []
    for t in range(limit):
        sample = {name: test[name].events[t] for name in test.sensors}
        emitted.extend(detector.push(sample))
    return emitted


class TestValidPairParity:
    def test_batch_and_online_agree_on_valid_pairs(self, parity_setup):
        graph, _ = parity_setup
        batch = AnomalyDetector(graph, FULL_RANGE)
        online = OnlineAnomalyDetector(graph, FULL_RANGE)
        assert online.valid_pairs() == batch.valid_pairs()

    def test_zero_score_pair_excluded_on_both_paths(self, parity_setup):
        graph, _ = parity_setup
        zeroed, zeroed_pair = _zeroed_graph(graph)
        shared = valid_detection_pairs(zeroed, FULL_RANGE)
        assert zeroed_pair not in shared
        assert AnomalyDetector(zeroed, FULL_RANGE).valid_pairs() == shared
        assert OnlineAnomalyDetector(zeroed, FULL_RANGE).valid_pairs() == shared

    def test_zero_score_pair_excluded_even_from_zero_based_range(self, parity_setup):
        """``contains(0.0)`` being true must not resurrect the pair."""
        graph, _ = parity_setup
        zeroed, zeroed_pair = _zeroed_graph(graph)
        assert FULL_RANGE.contains(0.0)
        assert zeroed_pair not in valid_detection_pairs(zeroed, FULL_RANGE)

    def test_sensor_restriction_preserves_graph_order(self, parity_setup):
        graph, _ = parity_setup
        all_pairs = valid_detection_pairs(graph, FULL_RANGE)
        kept_sensors = {s for pair in all_pairs[: len(all_pairs) // 2] for s in pair}
        restricted = valid_detection_pairs(graph, FULL_RANGE, kept_sensors)
        assert restricted == [
            pair
            for pair in all_pairs
            if pair[0] in kept_sensors and pair[1] in kept_sensors
        ]


class TestScoreParity:
    def test_sample_by_sample_matches_batch(self, parity_setup):
        graph, test = parity_setup
        batch = AnomalyDetector(graph, FULL_RANGE).detect(test)
        online = OnlineAnomalyDetector(graph, FULL_RANGE)
        limit = online.window_span + 12 * online.window_stride
        emitted = _stream(online, test, limit)

        assert len(emitted) >= 10
        assert [w.window_index for w in emitted] == list(range(len(emitted)))
        for window in emitted:
            row = window.window_index
            assert np.array_equal(window.anomaly_score, batch.anomaly_scores[row])
            assert list(window.broken_pairs) == batch.broken_pairs(row)


class TestSentenceCacheValidation:
    def test_cache_stamped_with_log_fingerprint(self, parity_setup):
        from repro.detection.anomaly import SENTENCE_CACHE_KEY

        graph, test = parity_setup
        cache: dict[str, list] = {}
        AnomalyDetector(graph, FULL_RANGE).detect(test, sentence_cache=cache)
        assert SENTENCE_CACHE_KEY in cache

    def test_cache_reuse_for_same_log_allowed(self, parity_setup):
        graph, test = parity_setup
        detector = AnomalyDetector(graph, FULL_RANGE)
        cache: dict[str, list] = {}
        first = detector.detect(test, sentence_cache=cache)
        second = detector.detect(test, sentence_cache=cache)
        np.testing.assert_array_equal(first.anomaly_scores, second.anomaly_scores)

    def test_cache_from_different_log_rejected(self, parity_setup, plant_dataset):
        graph, test = parity_setup
        detector = AnomalyDetector(graph, FULL_RANGE)
        cache: dict[str, list] = {}
        detector.detect(test, sentence_cache=cache)
        other = test.slice(0, len(test[test.sensors[0]].events) // 2)
        with pytest.raises(ValueError, match="different test log"):
            detector.detect(other, sentence_cache=cache)


@pytest.fixture(scope="module")
def scenario_graph():
    """Graph and test log of the tiny-tier cascade fault scenario."""
    from repro.pipeline.framework import AnalyticsFramework
    from repro.scenarios import generate_scenario, harness_framework_config

    data = generate_scenario("cascade", tier="tiny", seed=11)
    train, dev, test, _ = data.split()
    framework = AnalyticsFramework(harness_framework_config()).fit(train, dev)
    return framework.graph, test


@pytest.fixture(scope="module", params=["trained", "zero-pair"])
def scenario_streams(request, scenario_graph):
    """Batch detection and the per-sample ``push`` stream of one graph.

    The ``zero-pair`` variant carries a never-breakable 0.0 pair, which
    must not dilute the online ``a_t`` relative to batch.
    """
    graph, test = scenario_graph
    if request.param == "zero-pair":
        graph, _ = _zeroed_graph(graph)
    batch = AnomalyDetector(graph, FULL_RANGE).detect(test)
    per_sample = _stream(OnlineAnomalyDetector(graph, FULL_RANGE), test, test.num_samples)
    return graph, test, batch, per_sample


class TestScenarioParity:
    """Batch/online agreement on a generated fault scenario.

    The plant-fixture tests above stream *normal* data; this pins
    parity on a log with injected anomalies, where broken-pair churn
    actually exercises the incremental bookkeeping.
    """

    def test_online_matches_batch_on_faulty_scenario(self, scenario_graph):
        graph, test = scenario_graph
        batch = AnomalyDetector(graph, FULL_RANGE).detect(test)
        online = OnlineAnomalyDetector(graph, FULL_RANGE)
        emitted = _stream(online, test, test.num_samples)

        assert len(emitted) == len(batch.anomaly_scores)
        # The injected cascade must actually break pairs somewhere.
        assert any(window.broken_pairs for window in emitted)
        for window in emitted:
            row = window.window_index
            assert np.array_equal(window.anomaly_score, batch.anomaly_scores[row])
            assert list(window.broken_pairs) == batch.broken_pairs(row)


class TestChunkBoundaries:
    """Chunk boundaries must not matter: any split of the stream into
    ``push_chunk`` blocks emits the per-sample ``push`` windows, and
    every window equals its batch row."""

    # No shrink phase: each example streams the whole log, and shrinking
    # a failure would replay it thousands of times.
    @settings(
        max_examples=10,
        deadline=None,
        phases=(Phase.explicit, Phase.reuse, Phase.generate),
    )
    @given(data=st.data())
    def test_chunks_match_push_and_batch(self, scenario_streams, data):
        graph, test, batch, per_sample = scenario_streams
        detector = OnlineAnomalyDetector(graph, FULL_RANGE)
        sizes = st.integers(1, 3 * detector.window_stride)
        emitted, start = [], 0
        while start < test.num_samples:
            stop = start + data.draw(sizes)
            chunk = {name: test[name].events[start:stop] for name in test.sensors}
            emitted.extend(detector.push_chunk(chunk))
            start = stop

        assert emitted == per_sample
        assert [w.window_index for w in emitted] == list(range(batch.num_windows))
        # The injected cascade must actually break pairs somewhere.
        assert any(window.broken_pairs for window in emitted)
        for window in emitted:
            row = window.window_index
            assert np.array_equal(window.anomaly_score, batch.anomaly_scores[row])
            assert list(window.broken_pairs) == batch.broken_pairs(row)


class TestStreamFingerprint:
    def test_payload_is_pinned(self, scenario_graph):
        """A snapshot restores only onto a detector with the same
        fingerprint, so its payload and digest must not drift."""
        graph, _ = scenario_graph
        detector = OnlineAnomalyDetector(
            graph, FULL_RANGE, margin=0.5, threshold="dev-min"
        )
        pairs = detector.valid_pairs()
        payload = {
            "sensors": sorted({sensor for pair in pairs for sensor in pair}),
            "window_span": detector.window_span,
            "window_stride": detector.window_stride,
            "pairs": [list(pair) for pair in pairs],
            "thresholds": [graph[pair].threshold("dev-min") - 0.5 for pair in pairs],
        }
        blob = json.dumps(payload, sort_keys=True).encode("utf-8")
        assert detector.stream_fingerprint() == hashlib.sha256(blob).hexdigest()
        assert detector.stream_fingerprint() == (
            "20ce01da1e90c982ceb84ab9059004c84a24005e77296095fa35da36f2e38932"
        )
        assert OnlineAnomalyDetector(graph, FULL_RANGE).stream_fingerprint() == (
            "ce735fcdc317aac8fc0da314db42df26634c098108cb545bed1f5b6c1c0113fb"
        )


class TestOnlineConfigValidation:
    def test_divergent_sensor_configs_rejected_at_construction(self, parity_setup):
        graph, _ = parity_setup
        monitored = sorted(
            {s for pair in valid_detection_pairs(graph, FULL_RANGE) for s in pair}
        )
        victim = monitored[-1]
        languages = dict(graph.corpus.languages)
        divergent_language = copy.copy(languages[victim])
        divergent_language.config = LanguageConfig(
            word_size=3, word_stride=1, sentence_length=4, sentence_stride=4
        )
        languages[victim] = divergent_language
        corpus = copy.copy(graph.corpus)
        corpus.languages = languages
        broken_graph = MultivariateRelationshipGraph(corpus, graph.relationships)
        with pytest.raises(ValueError, match="divergent language configs"):
            OnlineAnomalyDetector(broken_graph, FULL_RANGE)
