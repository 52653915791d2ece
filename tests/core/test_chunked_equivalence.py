"""Chunked ingest must be bit-identical to the in-memory build.

The streaming refactor's core contract: for any log and any chunk
size, folding chunks through :class:`~repro.core.EventFrameBuilder`
produces exactly the frame a one-shot build would — same code matrix,
same state tables, same digests — and therefore the same corpus
fingerprints, cache keys, MVRG edge weights and anomaly scores.
Hypothesis searches for logs that break the frame-level identity;
deterministic end-to-end cases pin the pipeline-level consequences.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import EventFrameBuilder, StateTable
from repro.detection.online import OnlineAnomalyDetector
from repro.lang.events import MultivariateEventLog
from repro.pipeline.artifacts import (
    combine_fingerprints,
    fingerprint_log,
    fingerprint_sequence,
)
from repro.pipeline.framework import AnalyticsFramework
from repro.pipeline.stages.corpus import CorpusStage
from repro.pipeline.stages.encrypt import EncryptStage
from repro.scenarios.harness import harness_framework_config

SETTINGS = settings(max_examples=50, deadline=None)

#: The issue's chunk-size grid; ``None`` is the whole-log fast case.
CHUNK_SIZES = (1, 7, 64, None)

# States deliberately unsorted relative to arrival order so later
# chunks routinely surface alphabetically-earlier states (the case
# where growable interning must recode at finalisation).
STATE_POOL = ("ON", "OFF", "status 3", "a", "Z", "0")


@st.composite
def logs(draw):
    """Random ``{sensor: [state, ...]}`` mappings, including empties."""
    num_sensors = draw(st.integers(1, 4))
    num_samples = draw(st.integers(0, 60))
    column = st.lists(
        st.sampled_from(STATE_POOL), min_size=num_samples, max_size=num_samples
    )
    return {f"s{index}": draw(column) for index in range(num_sensors)}


def iter_chunks(mapping: dict, size: int | None):
    """Split a column mapping into successive row blocks of ``size``."""
    length = len(next(iter(mapping.values()))) if mapping else 0
    if size is None or length == 0:
        yield mapping
        return
    for start in range(0, length, size):
        yield {name: column[start : start + size] for name, column in mapping.items()}


def build_chunked(mapping: dict, size: int | None):
    builder = EventFrameBuilder()
    for chunk in iter_chunks(mapping, size):
        builder.append(chunk)
    return builder.finalize()


class TestFrameEquivalence:
    @SETTINGS
    @given(mapping=logs(), size=st.sampled_from(CHUNK_SIZES))
    def test_chunked_frame_matches_one_shot(self, mapping, size):
        one_shot = MultivariateEventLog.from_mapping(mapping).frame
        chunked = build_chunked(mapping, size)
        assert chunked.sensors == one_shot.sensors
        assert np.array_equal(chunked.codes, one_shot.codes)
        assert chunked.tables == one_shot.tables
        assert chunked.digest() == one_shot.digest()

    @SETTINGS
    @given(mapping=logs(), size=st.sampled_from(CHUNK_SIZES))
    def test_rolling_digests_preseeded_and_correct(self, mapping, size):
        chunked = build_chunked(mapping, size)
        rolling = dict(chunked._row_digests)
        assert set(rolling) == set(chunked.sensors)
        for sensor in chunked.sensors:
            fresh = MultivariateEventLog.from_mapping(mapping).frame
            assert rolling[sensor] == fresh.row_digest(sensor)

    @SETTINGS
    @given(mapping=logs(), size=st.sampled_from(CHUNK_SIZES))
    def test_log_from_chunks_matches_from_mapping(self, mapping, size):
        via_chunks = MultivariateEventLog.from_chunks(iter_chunks(mapping, size))
        direct = MultivariateEventLog.from_mapping(mapping)
        assert via_chunks.sensors == direct.sensors
        assert via_chunks.num_samples == direct.num_samples
        for name in direct.sensors:
            assert via_chunks[name].events == direct[name].events

    def test_builder_rejects_divergent_sensors(self):
        builder = EventFrameBuilder()
        builder.append({"a": ["x"], "b": ["y"]})
        with pytest.raises(ValueError, match="diverge"):
            builder.append({"a": ["x"], "c": ["y"]})

    def test_builder_rejects_ragged_chunk(self):
        builder = EventFrameBuilder()
        with pytest.raises(ValueError, match="not aligned"):
            builder.append({"a": ["x", "y"], "b": ["y"]})

    def test_builder_single_use(self):
        builder = EventFrameBuilder()
        builder.append({"a": ["x"]})
        builder.finalize()
        with pytest.raises(RuntimeError, match="finalized"):
            builder.append({"a": ["y"]})
        with pytest.raises(RuntimeError, match="finalized"):
            builder.finalize()

    def test_empty_chunk_still_fixes_sensors(self):
        builder = EventFrameBuilder()
        builder.append({"a": [], "b": []})
        frame = builder.finalize()
        assert frame.sensors == ("a", "b")
        assert frame.num_samples == 0


class TestStateTableGrowth:
    @SETTINGS
    @given(
        chunks=st.lists(
            st.lists(st.sampled_from(STATE_POOL), max_size=10), min_size=1, max_size=5
        )
    )
    def test_extend_keeps_existing_codes_stable(self, chunks):
        table = StateTable.from_events("s", chunks[0])
        for chunk in chunks[1:]:
            grown = table.extend(chunk)
            for state in table.states:
                assert grown.code_of(state) == table.code_of(state)
            table = grown

    @SETTINGS
    @given(
        chunks=st.lists(
            st.lists(st.sampled_from(STATE_POOL), max_size=10), min_size=1, max_size=5
        )
    )
    def test_canonical_matches_one_shot_fit(self, chunks):
        table = StateTable.from_events("s", chunks[0])
        for chunk in chunks[1:]:
            table = table.extend(chunk)
        canonical, recode = table.canonical()
        union = [state for chunk in chunks for state in chunk]
        assert canonical == StateTable.from_events("s", union)
        if recode is None:
            assert table.states == canonical.states
        else:
            for state in table.states:
                assert recode[table.code_of(state)] == canonical.code_of(state)
            assert recode[table.unknown_code] == canonical.unknown_code

    def test_extend_with_nothing_new_returns_self(self):
        table = StateTable.from_events("s", ["a", "b"])
        assert table.extend(["b", "a", "a"]) is table


class TestFingerprintEquivalence:
    @SETTINGS
    @given(mapping=logs(), size=st.sampled_from(CHUNK_SIZES))
    def test_fingerprint_log_matches_sequence_combination(self, mapping, size):
        # fingerprint_log delegates to the frame digest; the historical
        # definition (combining per-sequence fingerprints) must keep
        # producing the same bytes or every cache key changes.
        log = MultivariateEventLog.from_chunks(iter_chunks(mapping, size))
        assert fingerprint_log(log) == combine_fingerprints(
            *(fingerprint_sequence(seq) for seq in log)
        )
        assert fingerprint_log(log) == log.frame.digest()

    @SETTINGS
    @given(mapping=logs(), size=st.sampled_from((1, 7, 64)))
    def test_stage_fingerprints_identical_chunked_vs_resident(self, mapping, size):
        chunked = MultivariateEventLog.from_chunks(iter_chunks(mapping, size))
        resident = MultivariateEventLog.from_mapping(mapping)
        context = {"training_log": chunked}
        baseline = {"training_log": resident}
        assert EncryptStage().fingerprint(context) == EncryptStage().fingerprint(
            baseline
        )


@pytest.fixture(scope="module")
def paired_csvs(tmp_path_factory):
    """Train/dev/test CSVs of a 3-sensor log with real dependencies."""
    rng = np.random.default_rng(42)
    total = 400
    driver = rng.integers(0, 3, size=total)
    # b relabels a sample-for-sample with sparse noise, so the a<->b
    # translations score high-but-imperfect BLEU (inside the harness
    # detection range) and some test windows actually break.
    follower = (driver + (rng.random(total) < 0.05)) % 3
    noise = rng.integers(0, 2, size=total)
    log = MultivariateEventLog.from_mapping(
        {
            "a": [f"v{int(v)}" for v in driver],
            "b": [f"v{int(v)}" for v in follower],
            "c": [f"n{int(v)}" for v in noise],
        }
    )
    directory = tmp_path_factory.mktemp("chunked-equivalence")
    paths = {}
    for name, part in (
        ("train", log.slice(0, 240)),
        ("dev", log.slice(240, 320)),
        ("test", log.slice(320, 400)),
    ):
        paths[name] = part.to_csv(directory / f"{name}.csv")
    return paths


def _fit(train, dev, cache_dir=None):
    framework = AnalyticsFramework(harness_framework_config())
    framework.fit(train, dev, cache_dir=cache_dir)
    return framework


class TestPipelineEquivalence:
    @pytest.mark.parametrize("chunk_size", [1, 7, 64])
    def test_mvrg_and_scores_identical(self, paired_csvs, chunk_size):
        resident = {
            name: MultivariateEventLog.from_csv(path)
            for name, path in paired_csvs.items()
        }
        chunked = {
            name: MultivariateEventLog.from_csv(path, chunk_size=chunk_size)
            for name, path in paired_csvs.items()
        }
        baseline = _fit(resident["train"], resident["dev"])
        streamed = _fit(chunked["train"], chunked["dev"])

        assert streamed.graph.scores() == baseline.graph.scores()

        expected = baseline.detect(resident["test"]).anomaly_scores
        actual = streamed.detect(chunked["test"]).anomaly_scores
        assert np.array_equal(actual, expected)

    def test_cold_then_warm_cache_across_ingest_paths(self, paired_csvs, tmp_path):
        cache = tmp_path / "cache"
        chunked_train = MultivariateEventLog.from_csv(
            paired_csvs["train"], chunk_size=7
        )
        chunked_dev = MultivariateEventLog.from_csv(paired_csvs["dev"], chunk_size=7)
        cold = _fit(chunked_train, chunked_dev, cache_dir=cache)
        assert cold.build_report.num_trained > 0
        assert not cold.build_report.cached

        resident_train = MultivariateEventLog.from_csv(paired_csvs["train"])
        resident_dev = MultivariateEventLog.from_csv(paired_csvs["dev"])
        warm = _fit(resident_train, resident_dev, cache_dir=cache)
        # Chunked and in-memory ingest hash to the same cache keys, so
        # the warm build restores every pair and trains nothing.
        assert warm.build_report.num_trained == 0
        assert len(warm.build_report.cached) == cold.build_report.num_trained
        assert warm.graph.scores() == cold.graph.scores()


class TestOnlineStreamingEquivalence:
    @pytest.mark.parametrize("chunk_size", [1, 7, 64])
    def test_stream_from_reader_matches_per_sample_push(
        self, paired_csvs, chunk_size
    ):
        logs = {
            name: MultivariateEventLog.from_csv(path)
            for name, path in paired_csvs.items()
        }
        framework = _fit(logs["train"], logs["dev"])
        score_range = framework.config.detection_range
        test = logs["test"]

        per_sample = OnlineAnomalyDetector(framework.graph, score_range=score_range)
        pushed = []
        for t in range(test.num_samples):
            sample = {name: test[name].events[t] for name in test.sensors}
            pushed.extend(per_sample.push(sample))

        from repro.datasets.io import iter_event_chunks

        streamed_detector = OnlineAnomalyDetector(
            framework.graph, score_range=score_range
        )
        streamed = list(
            streamed_detector.stream_from_reader(
                iter_event_chunks(paired_csvs["test"], chunk_size)
            )
        )
        assert pushed, "test period must emit at least one window"
        assert streamed == pushed


class TestChunkedIngestMemory:
    def test_chunked_ingest_peaks_below_resident(self, tmp_path):
        # A small-tier plant log (12 sensors x 10 days x 96 samples):
        # streaming it in 128-row chunks must build the same frame
        # while holding less of the decoded CSV in memory at once.
        import tracemalloc

        from repro.datasets.plant import PlantConfig, generate_plant_dataset

        config = PlantConfig(
            num_sensors=12,
            days=10,
            samples_per_day=96,
            anomaly_days=(10,),
            precursor_days=(9,),
            num_components=4,
            seed=7,
        )
        csv_path = tmp_path / "events-small.csv"
        generate_plant_dataset(config).log.to_csv(csv_path)

        def ingest(chunk_size):
            tracemalloc.start()
            try:
                log = MultivariateEventLog.from_csv(csv_path, chunk_size=chunk_size)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            return log.frame.digest(), peak

        resident_digest, resident_peak = ingest(None)
        chunked_digest, chunked_peak = ingest(128)
        assert chunked_digest == resident_digest
        assert chunked_peak < resident_peak
