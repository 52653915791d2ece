"""Online-detector lifecycle regressions: atomicity, parity, residuals.

Pins the three contracts the streaming service depends on:

- a scoring failure mid-ingest rolls the detector back to its pre-call
  state, so a retried ``push_chunk`` reproduces the uninterrupted run
  exactly (no double-scored window, no desynchronised window clock);
- ``push`` and ``push_chunk`` intern unseen states through the same
  :class:`~repro.core.StateTable` mapping, so both ingest paths emit
  identical :class:`WindowScore`\\ s on never-seen data;
- trailing samples that cannot complete a window are visible via
  ``pending_samples`` and only discarded by an explicit ``flush()``.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.detection import OnlineAnomalyDetector
from repro.graph import MultivariateRelationshipGraph, ScoreRange

FULL_RANGE = ScoreRange(0.0, 100.0, inclusive_high=True)


@pytest.fixture(scope="module")
def lifecycle_setup(fitted_plant_framework, plant_dataset):
    graph = fitted_plant_framework.graph
    _, _, test = plant_dataset.split(10, 3)
    return graph, test


def _chunk(test, start: int, stop: int):
    return {name: test[name].events[start:stop] for name in test.sensors}


class _FlakyModel:
    """Translation model that fails on the Nth translate call."""

    def __init__(self, inner, fail_on_call: int):
        self._inner = inner
        self._fail_on_call = fail_on_call
        self.calls = 0

    def translate(self, sentences):
        self.calls += 1
        if self.calls == self._fail_on_call:
            raise RuntimeError("injected translate fault")
        return self._inner.translate(sentences)


def _flaky_graph(graph: MultivariateRelationshipGraph, fail_on_call: int, pair=None):
    """A graph copy whose ``pair`` model (default: the first) fails once."""
    pair = pair or next(iter(graph.relationships))
    relationships = dict(graph.relationships)
    flaky = _FlakyModel(relationships[pair].model, fail_on_call)
    relationships[pair] = dataclasses.replace(relationships[pair], model=flaky)
    return MultivariateRelationshipGraph(graph.corpus, relationships), flaky


class TestFailureAtomicity:
    def test_failed_ingest_rolls_back_completely(self, lifecycle_setup):
        graph, test = lifecycle_setup
        # Fail in the last pair's translate of a multi-window chunk:
        # every earlier pair has already scored the whole block, so the
        # rollback must undo a block that was all but scored.
        last_pair = OnlineAnomalyDetector(graph, FULL_RANGE).valid_pairs()[-1]
        flaky_graph, _ = _flaky_graph(graph, fail_on_call=1, pair=last_pair)
        detector = OnlineAnomalyDetector(flaky_graph, FULL_RANGE)
        span, stride = detector.window_span, detector.window_stride
        chunk = _chunk(test, 0, span + 2 * stride)

        with pytest.raises(RuntimeError, match="injected translate fault"):
            detector.push_chunk(chunk)

        assert detector.samples_seen == 0
        assert detector.windows_emitted == 0
        assert detector.pending_samples == 0
        assert all(not buffer for buffer in detector._buffers.values())
        assert detector.metrics.value("online.samples_ingested") == 0
        assert detector.metrics.value("online.windows_scored") == 0

    def test_retry_after_fault_matches_uninterrupted_run(self, lifecycle_setup):
        graph, test = lifecycle_setup
        span = OnlineAnomalyDetector(graph, FULL_RANGE).window_span
        stride = OnlineAnomalyDetector(graph, FULL_RANGE).window_stride
        boundaries = [0, span + stride, span + 3 * stride, span + 6 * stride]
        chunks = [
            _chunk(test, start, stop)
            for start, stop in zip(boundaries, boundaries[1:])
        ]

        clean = OnlineAnomalyDetector(graph, FULL_RANGE)
        expected = [w for chunk in chunks for w in clean.push_chunk(chunk)]
        assert expected, "the workload must emit windows"

        flaky_graph, flaky = _flaky_graph(graph, fail_on_call=3)
        detector = OnlineAnomalyDetector(flaky_graph, FULL_RANGE)
        emitted = []
        for chunk in chunks:
            try:
                emitted.extend(detector.push_chunk(chunk))
            except RuntimeError:
                # The fault consumed its one failure; the same call
                # retried must pick up exactly where the stream was.
                emitted.extend(detector.push_chunk(chunk))
        assert flaky.calls > 3, "the injected fault must have fired"

        assert [w.window_index for w in emitted] == [
            w.window_index for w in expected
        ]
        for ours, theirs in zip(emitted, expected):
            assert ours.start_sample == theirs.start_sample
            np.testing.assert_allclose(
                ours.anomaly_score, theirs.anomaly_score, atol=1e-12
            )
            assert ours.broken_pairs == theirs.broken_pairs
        assert detector.windows_emitted == clean.windows_emitted
        assert detector.samples_seen == clean.samples_seen

    def test_failed_push_does_not_desync_the_window_clock(self, lifecycle_setup):
        """Sample-wise variant: one poisoned push retried mid-window."""
        graph, test = lifecycle_setup
        clean = OnlineAnomalyDetector(graph, FULL_RANGE)
        limit = clean.window_span + 2 * clean.window_stride
        expected = []
        for t in range(limit):
            sample = {name: test[name].events[t] for name in test.sensors}
            expected.extend(clean.push(sample))

        flaky_graph, _ = _flaky_graph(graph, fail_on_call=1)
        detector = OnlineAnomalyDetector(flaky_graph, FULL_RANGE)
        emitted = []
        for t in range(limit):
            sample = {name: test[name].events[t] for name in test.sensors}
            try:
                emitted.extend(detector.push(sample))
            except RuntimeError:
                emitted.extend(detector.push(sample))
        assert [(w.window_index, w.start_sample) for w in emitted] == [
            (w.window_index, w.start_sample) for w in expected
        ]


class TestUnseenStateParity:
    def test_push_and_push_chunk_agree_on_unseen_states(self, lifecycle_setup):
        """Both ingest paths must intern never-seen states identically."""
        graph, test = lifecycle_setup
        sample_wise = OnlineAnomalyDetector(graph, FULL_RANGE)
        chunk_wise = OnlineAnomalyDetector(graph, FULL_RANGE)
        limit = sample_wise.window_span + 2 * sample_wise.window_stride

        # Poison a stretch of one monitored sensor with a state no
        # training log contains; both paths must map it to the same
        # unknown code and therefore score identical windows.
        victim = sample_wise._sensors[0]
        columns = {
            name: list(test[name].events[:limit]) for name in test.sensors
        }
        for t in range(5, limit, 7):
            columns[victim][t] = "NEVER-SEEN-STATE"

        from_push = []
        for t in range(limit):
            sample = {name: columns[name][t] for name in columns}
            from_push.extend(sample_wise.push(sample))
        from_chunks = chunk_wise.push_chunk(columns)

        assert from_push, "the workload must emit windows"
        assert from_push == from_chunks
        unknown = graph.corpus[victim].encoder.table.unknown_code
        assert unknown in sample_wise._buffers[victim] or any(
            w.broken_pairs for w in from_push
        )

    def test_unseen_state_lands_on_the_unknown_code(self, lifecycle_setup):
        graph, test = lifecycle_setup
        detector = OnlineAnomalyDetector(graph, FULL_RANGE)
        victim = detector._sensors[0]
        sample = {name: test[name].events[0] for name in test.sensors}
        sample[victim] = "NEVER-SEEN-STATE"
        detector.push(sample)
        table = graph.corpus[victim].encoder.table
        assert detector._buffers[victim][-1] == table.unknown_code


class TestResidualSamples:
    """The plant fixture's windows overlap (span 13, stride 8), so the
    pending tail is every sample at or past the next window's start —
    including the overlap a future window still needs."""

    def test_pending_samples_tracks_the_tail(self, lifecycle_setup):
        graph, test = lifecycle_setup
        detector = OnlineAnomalyDetector(graph, FULL_RANGE)
        span, stride = detector.window_span, detector.window_stride
        total = span + 3  # 3 samples short of completing window 1
        detector.push_chunk(_chunk(test, 0, total))
        assert detector.windows_emitted == 1
        expected_tail = total - stride
        assert detector.pending_samples == expected_tail
        assert detector.metrics.value("online.pending_samples") == expected_tail

    def test_stream_from_reader_leaves_tail_visible(self, lifecycle_setup):
        """The regression: trailing samples must not vanish silently."""
        graph, test = lifecycle_setup
        detector = OnlineAnomalyDetector(graph, FULL_RANGE)
        span, stride = detector.window_span, detector.window_stride
        total = span + stride + 3  # ends mid-way through window 2
        chunks = [
            _chunk(test, start, min(start + 10, total))
            for start in range(0, total, 10)
        ]
        windows = list(detector.stream_from_reader(chunks))
        assert len(windows) == 2
        assert detector.pending_samples == total - 2 * stride

    def test_flush_discards_tail_and_keeps_clock_consistent(self, lifecycle_setup):
        graph, test = lifecycle_setup
        detector = OnlineAnomalyDetector(graph, FULL_RANGE)
        span, stride = detector.window_span, detector.window_stride
        total = span + 3
        detector.push_chunk(_chunk(test, 0, total))
        tail = detector.pending_samples
        assert tail == total - stride
        assert detector.flush() == tail
        assert detector.pending_samples == 0
        assert detector.samples_seen == stride
        assert detector.metrics.value("online.samples_flushed") == tail

        # Continue the stream: after a flush the clock behaves as if
        # the discarded samples never arrived — the next full span of
        # samples completes window 1.
        more = detector.push_chunk(_chunk(test, total, total + span))
        assert [w.window_index for w in more] == [1]

    def test_flush_is_idempotent(self, lifecycle_setup):
        graph, test = lifecycle_setup
        detector = OnlineAnomalyDetector(graph, FULL_RANGE)
        assert detector.flush() == 0  # nothing buffered yet
        detector.push_chunk(_chunk(test, 0, detector.window_span + 3))
        assert detector.flush() > 0
        assert detector.flush() == 0
        assert detector.windows_emitted == 1


class TestSnapshotRestore:
    def test_state_roundtrip_resumes_exactly(self, lifecycle_setup):
        graph, test = lifecycle_setup
        reference = OnlineAnomalyDetector(graph, FULL_RANGE)
        span, stride = reference.window_span, reference.window_stride
        cut = span + stride + 2
        total = span + 4 * stride
        expected = reference.push_chunk(_chunk(test, 0, total))

        first = OnlineAnomalyDetector(graph, FULL_RANGE)
        before = first.push_chunk(_chunk(test, 0, cut))
        state = first.state_dict()

        second = OnlineAnomalyDetector(graph, FULL_RANGE)
        second.load_state_dict(state)
        after = second.push_chunk(_chunk(test, cut, total))

        assert before + after == expected

    def test_state_dict_is_json_serialisable(self, lifecycle_setup):
        import json

        graph, test = lifecycle_setup
        detector = OnlineAnomalyDetector(graph, FULL_RANGE)
        detector.push_chunk(_chunk(test, 0, detector.window_span + 1))
        state = json.loads(json.dumps(detector.state_dict()))
        fresh = OnlineAnomalyDetector(graph, FULL_RANGE)
        fresh.load_state_dict(state)
        assert fresh.samples_seen == detector.samples_seen
        assert fresh.windows_emitted == detector.windows_emitted

    def test_fingerprint_mismatch_rejected(self, lifecycle_setup):
        graph, test = lifecycle_setup
        detector = OnlineAnomalyDetector(graph, FULL_RANGE)
        state = detector.state_dict()
        other = OnlineAnomalyDetector(graph, FULL_RANGE, margin=0.1)
        with pytest.raises(ValueError, match="fingerprint mismatch"):
            other.load_state_dict(state)

    def test_inconsistent_buffer_lengths_rejected(self, lifecycle_setup):
        graph, test = lifecycle_setup
        detector = OnlineAnomalyDetector(graph, FULL_RANGE)
        detector.push_chunk(_chunk(test, 0, 5))
        state = detector.state_dict()
        state["samples_seen"] = 99
        fresh = OnlineAnomalyDetector(graph, FULL_RANGE)
        with pytest.raises(ValueError, match="clocks imply"):
            fresh.load_state_dict(state)
