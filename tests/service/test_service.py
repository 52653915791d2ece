"""Tests for the sharded streaming detection service.

The load-bearing guarantee: every tenant's subsequence of the merged
fleet feed equals the batch :class:`AnomalyDetector` scores on that
tenant's log, window-for-window — sharding and threading are pure
execution detail.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.detection import AnomalyDetector
from repro.graph import ScoreRange
from repro.service import StreamingDetectionService

FULL_RANGE = ScoreRange(0.0, 100.0, inclusive_high=True)

TENANTS = ["line-a", "line-b", "line-c"]


@pytest.fixture(scope="module")
def service_setup(fitted_plant_framework, plant_dataset):
    graph = fitted_plant_framework.graph
    _, _, test = plant_dataset.split(10, 3)
    return graph, test


def _chunks(test, chunk_size: int, limit: int | None = None):
    total = test.num_samples if limit is None else limit
    return [
        {
            name: test[name].events[start : min(start + chunk_size, total)]
            for name in test.sensors
        }
        for start in range(0, total, chunk_size)
    ]


def _drive(service, blocks, tenants=TENANTS):
    for block in blocks:
        for tenant in tenants:
            service.submit(tenant, block)


class TestServiceConstruction:
    def test_duplicate_tenants_rejected(self, service_setup):
        graph, _ = service_setup
        with pytest.raises(ValueError, match="duplicate tenant"):
            StreamingDetectionService(
                graph, ["a", "a"], score_range=FULL_RANGE, autostart=False
            )

    def test_no_tenants_rejected(self, service_setup):
        graph, _ = service_setup
        with pytest.raises(ValueError, match="at least one tenant"):
            StreamingDetectionService(graph, [], score_range=FULL_RANGE)

    def test_per_shard_graphs_must_cover_every_shard(self, service_setup):
        graph, _ = service_setup
        with pytest.raises(ValueError, match="one graph per shard"):
            StreamingDetectionService(
                [graph], TENANTS, num_shards=2, score_range=FULL_RANGE
            )

    def test_unknown_backpressure_rejected(self, service_setup):
        graph, _ = service_setup
        with pytest.raises(ValueError, match="backpressure"):
            StreamingDetectionService(
                graph, TENANTS, backpressure="drop-newest", score_range=FULL_RANGE
            )

    def test_every_tenant_lands_on_exactly_one_shard(self, service_setup):
        graph, _ = service_setup
        service = StreamingDetectionService(
            graph, TENANTS, num_shards=3, score_range=FULL_RANGE, autostart=False
        )
        placed = [t for keys in service.placement.values() for t in keys]
        assert sorted(placed) == sorted(TENANTS)
        service.close()


class TestMergedFeedParity:
    def test_merged_feed_matches_batch_per_tenant(self, service_setup):
        """Satellite acceptance: service feed == batch scores."""
        graph, test = service_setup
        batch = AnomalyDetector(graph, FULL_RANGE).detect(test)
        with StreamingDetectionService(
            graph, TENANTS, num_shards=2, score_range=FULL_RANGE
        ) as service:
            _drive(service, _chunks(test, 37))
            feed = service.merged_feed()

        expected = len(batch.anomaly_scores)
        assert len(feed) == expected * len(TENANTS)
        for tenant in TENANTS:
            windows = [fw.window for fw in feed if fw.tenant == tenant]
            assert [w.window_index for w in windows] == list(range(expected))
            for window in windows:
                np.testing.assert_allclose(
                    window.anomaly_score,
                    batch.anomaly_scores[window.window_index],
                    atol=1e-12,
                )
                assert set(window.broken_pairs) == set(
                    batch.broken_pairs(window.window_index)
                )

    def test_merged_feed_order_is_canonical(self, service_setup):
        graph, test = service_setup
        with StreamingDetectionService(
            graph, TENANTS, num_shards=3, score_range=FULL_RANGE
        ) as service:
            _drive(service, _chunks(test, 64, limit=256))
            feed = service.merged_feed()
        keys = [
            (fw.window.start_sample, fw.window.window_index, fw.shard_id, fw.tenant)
            for fw in feed
        ]
        assert keys == sorted(keys)

    def test_feed_carries_identity_and_latency(self, service_setup):
        graph, test = service_setup
        with StreamingDetectionService(
            graph, TENANTS, num_shards=2, score_range=FULL_RANGE
        ) as service:
            _drive(service, _chunks(test, 64, limit=128))
            feed = service.merged_feed()
        assert feed
        for fleet_window in feed:
            assert fleet_window.tenant in TENANTS
            assert fleet_window.shard_id in service.shards
            assert fleet_window.latency_seconds >= 0.0

    def test_poll_eventually_drains_everything(self, service_setup):
        graph, test = service_setup
        with StreamingDetectionService(
            graph, TENANTS, score_range=FULL_RANGE
        ) as service:
            _drive(service, _chunks(test, 64, limit=128))
            service.join()
            live = service.poll()
            assert service.poll() == []  # drained
            assert len(service.merged_feed()) == len(live)


class TestBackpressure:
    def test_block_policy_is_lossless(self, service_setup):
        graph, test = service_setup
        metrics_blocks = _chunks(test, 8, limit=256)
        with StreamingDetectionService(
            graph,
            TENANTS,
            queue_depth=2,
            backpressure="block",
            score_range=FULL_RANGE,
        ) as service:
            accepted = [
                service.submit(tenant, block)
                for block in metrics_blocks
                for tenant in TENANTS
            ]
            service.join()
            assert all(accepted)
            assert service.metrics.value("service.dropped") == 0
            assert service.metrics.value("service.errors") == 0

    def test_reject_policy_drops_and_counts(self, service_setup):
        graph, test = service_setup
        blocks = _chunks(test, 4, limit=512)
        service = StreamingDetectionService(
            graph,
            TENANTS[:1],
            queue_depth=1,
            backpressure="reject",
            score_range=FULL_RANGE,
            autostart=False,  # no consumer: the queue must overflow
        )
        accepted = [service.submit(TENANTS[0], block) for block in blocks]
        assert accepted[0] is True
        assert not all(accepted)
        dropped = accepted.count(False)
        assert service.metrics.value("service.dropped") == dropped
        # Drain what was accepted so close() does not hang on queue.join.
        service.start()
        service.close()

    def test_queue_depth_gauge_is_recorded(self, service_setup):
        graph, test = service_setup
        with StreamingDetectionService(
            graph, TENANTS[:1], score_range=FULL_RANGE
        ) as service:
            _drive(service, _chunks(test, 64, limit=64), tenants=TENANTS[:1])
            service.join()
            assert service.metrics.value("service.queue_depth") is not None


class TestQuarantine:
    def test_poisoned_tenant_does_not_stop_the_others(self, service_setup):
        graph, test = service_setup
        batch = AnomalyDetector(graph, FULL_RANGE).detect(test)
        blocks = _chunks(test, 37)
        victim, survivor = "line-a", "line-b"
        bad_block = {
            name: column[: len(column) // 2] if name == test.sensors[0] else column
            for name, column in blocks[1].items()
        }  # misaligned columns: scoring raises inside the worker
        with StreamingDetectionService(
            graph, [victim, survivor], num_shards=1, score_range=FULL_RANGE
        ) as service:
            for index, block in enumerate(blocks):
                service.submit(victim, bad_block if index == 1 else block)
                service.submit(survivor, block)
            feed = service.merged_feed()
            errors = service.errors

        assert victim in errors and survivor not in errors
        assert "not aligned" in str(errors[victim])
        assert service.metrics.value("service.errors") == 1
        # Every later victim chunk was quarantined, not scored.
        assert service.metrics.value("service.quarantined_chunks") == len(blocks) - 2
        # The survivor's stream is complete and correct.
        survivor_windows = [fw.window for fw in feed if fw.tenant == survivor]
        assert len(survivor_windows) == len(batch.anomaly_scores)
        # The victim froze at its pre-fault position: only windows the
        # first block completed.
        victim_windows = [fw.window for fw in feed if fw.tenant == victim]
        assert len(victim_windows) < len(survivor_windows)
        for window in victim_windows:
            np.testing.assert_allclose(
                window.anomaly_score,
                batch.anomaly_scores[window.window_index],
                atol=1e-12,
            )

    def test_submit_for_unknown_tenant_raises(self, service_setup):
        graph, _ = service_setup
        with StreamingDetectionService(
            graph, TENANTS, score_range=FULL_RANGE
        ) as service:
            with pytest.raises(KeyError, match="unknown tenant"):
                service.shards[
                    service.router.shard_of("ghost")
                ].submit("ghost", {})


class TestFlushAndPending:
    def test_fleet_pending_and_flush(self, service_setup):
        graph, test = service_setup
        with StreamingDetectionService(
            graph, TENANTS, num_shards=2, score_range=FULL_RANGE
        ) as service:
            _drive(service, _chunks(test, 37))
            service.join()
            pending = service.pending_samples()
            assert set(pending) == set(TENANTS)
            assert len(set(pending.values())) == 1  # identical streams
            dropped = service.flush()
            assert dropped == {t: pending[t] for t in TENANTS if pending[t]}
            assert all(v == 0 for v in service.pending_samples().values())
