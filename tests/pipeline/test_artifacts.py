"""Tests for the content-addressed artifact store and its fingerprints."""

from __future__ import annotations

import pytest

from repro.lang import LanguageConfig, MultivariateEventLog
from repro.pipeline import ArtifactKey, ArtifactStore
from repro.pipeline.artifacts import (
    combine_fingerprints,
    fingerprint_bytes,
    fingerprint_log,
    fingerprint_obj,
    fingerprint_sequence,
)


@pytest.fixture
def tiny_log():
    return MultivariateEventLog.from_mapping(
        {"sA": ["ON", "OFF", "ON", "ON"], "sB": ["1", "2", "1", "2"]}
    )


class TestFingerprints:
    def test_bytes_deterministic(self):
        assert fingerprint_bytes(b"abc") == fingerprint_bytes(b"abc")
        assert fingerprint_bytes(b"abc") != fingerprint_bytes(b"abd")

    def test_obj_canonical_key_order(self):
        assert fingerprint_obj({"a": 1, "b": 2}) == fingerprint_obj({"b": 2, "a": 1})

    def test_obj_dataclass_and_set(self):
        config = LanguageConfig(word_size=4, sentence_length=5)
        assert fingerprint_obj(config) == fingerprint_obj(
            LanguageConfig(word_size=4, sentence_length=5)
        )
        assert fingerprint_obj(config) != fingerprint_obj(
            LanguageConfig(word_size=5, sentence_length=5)
        )
        assert fingerprint_obj({"a", "b"}) == fingerprint_obj({"b", "a"})

    def test_obj_rejects_opaque_values(self):
        with pytest.raises(TypeError, match="cannot fingerprint"):
            fingerprint_obj(object())

    def test_sequence_covers_name_and_events(self, tiny_log):
        base = fingerprint_sequence(tiny_log["sA"])
        renamed = MultivariateEventLog.from_mapping({"sX": ["ON", "OFF", "ON", "ON"]})
        perturbed = MultivariateEventLog.from_mapping({"sA": ["ON", "OFF", "ON", "OFF"]})
        assert fingerprint_sequence(renamed["sX"]) != base
        assert fingerprint_sequence(perturbed["sA"]) != base
        assert fingerprint_sequence(tiny_log["sA"]) == base

    def test_sequence_event_boundaries_matter(self):
        joined = MultivariateEventLog.from_mapping({"s": ["AB", "C"]})
        split = MultivariateEventLog.from_mapping({"s": ["A", "BC"]})
        assert fingerprint_sequence(joined["s"]) != fingerprint_sequence(split["s"])

    def test_log_sensitive_to_any_sensor(self, tiny_log):
        base = fingerprint_log(tiny_log)
        other = MultivariateEventLog.from_mapping(
            {"sA": ["ON", "OFF", "ON", "ON"], "sB": ["1", "2", "1", "1"]}
        )
        assert fingerprint_log(other) != base

    def test_combine_order_and_boundaries(self):
        assert combine_fingerprints("a", "b") != combine_fingerprints("b", "a")
        assert combine_fingerprints("ab", "c") != combine_fingerprints("a", "bc")


class TestArtifactKey:
    def test_str(self):
        key = ArtifactKey("pair", "ab" * 16)
        assert str(key) == f"pair/{'ab' * 16}"

    @pytest.mark.parametrize("kind", ["", "Pair", "pair model", "-pair", "pair/x"])
    def test_bad_kind_rejected(self, kind):
        with pytest.raises(ValueError, match="kind"):
            ArtifactKey(kind, "ab" * 16)

    @pytest.mark.parametrize("digest", ["", "xyz", "ABCDEF" * 4, "ab" * 4])
    def test_bad_digest_rejected(self, digest):
        with pytest.raises(ValueError, match="digest"):
            ArtifactKey("pair", digest)


class TestArtifactStore:
    def key(self, kind="pair", token="x"):
        return ArtifactKey(kind, fingerprint_bytes(token.encode()))

    def test_save_load_roundtrip(self, tmp_path):
        store = ArtifactStore(tmp_path)
        key = self.key()
        store.save(key, {"score": 42.0})
        assert key in store
        assert store.load(key) == {"score": 42.0}

    def test_missing_key_raises_keyerror(self, tmp_path):
        store = ArtifactStore(tmp_path)
        with pytest.raises(KeyError):
            store.load(self.key())
        assert store.get(self.key(), "fallback") == "fallback"

    def test_corrupt_artifact_raises_and_get_misses(self, tmp_path):
        store = ArtifactStore(tmp_path)
        key = self.key()
        path = store.save(key, "payload")
        path.write_bytes(b"not a pickle")
        with pytest.raises(ValueError, match="corrupt artifact"):
            store.load(key)
        assert store.get(key) is None

    def test_record_moved_between_keys_rejected(self, tmp_path):
        store = ArtifactStore(tmp_path)
        source = self.key(token="x")
        target = self.key(token="y")
        data = store.save(source, "payload").read_bytes()
        path = store.path_for(target)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(data)
        with pytest.raises(ValueError, match="not the artifact"):
            store.load(target)

    def test_delete(self, tmp_path):
        store = ArtifactStore(tmp_path)
        key = self.key()
        store.save(key, 1)
        assert store.delete(key)
        assert key not in store
        assert not store.delete(key)

    def test_keys_and_stats(self, tmp_path):
        store = ArtifactStore(tmp_path)
        pair_keys = [self.key("pair", t) for t in "abc"]
        for key in pair_keys:
            store.save(key, "p")
        store.save(self.key("encrypt", "z"), "e")
        assert set(store.keys("pair")) == set(pair_keys)
        assert len(list(store.keys())) == 4
        stats = store.stats()
        assert stats.num_artifacts == 4
        assert stats.total_bytes > 0
        assert {row["kind"]: row["artifacts"] for row in stats.as_rows()} == {
            "pair": 3,
            "encrypt": 1,
        }

    def test_empty_store_stats(self, tmp_path):
        stats = ArtifactStore(tmp_path / "absent").stats()
        assert stats.num_artifacts == 0 and stats.total_bytes == 0

    def test_gc_by_age(self, tmp_path):
        import os

        store = ArtifactStore(tmp_path)
        old, fresh = self.key(token="old"), self.key(token="fresh")
        old_path = store.save(old, 1)
        store.save(fresh, 2)
        past = old_path.stat().st_mtime - 10_000
        os.utime(old_path, (past, past))
        now = store.path_for(fresh).stat().st_mtime
        assert store.gc(max_age_seconds=5_000, now=now) == 1
        assert old not in store and fresh in store
        with pytest.raises(ValueError, match="non-negative"):
            store.gc(max_age_seconds=-1)

    def test_gc_and_purge_reclaim_interrupted_writes(self, tmp_path):
        import os

        store = ArtifactStore(tmp_path)
        kept = store.save(self.key(token="kept"), 1)
        # What a writer killed between mkstemp and os.replace leaves.
        stale = kept.parent / "tmpstale.tmp"
        fresh = store.path_for(self.key("encrypt", "z")).parent / "tmpfresh.tmp"
        for path in (stale, fresh):
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_bytes(b"partial pickle")
        now = kept.stat().st_mtime
        os.utime(stale, (now - 10_000, now - 10_000))
        assert list(store.keys()) == [self.key(token="kept")]

        assert store.gc(max_age_seconds=5_000, now=now) == 1
        assert not stale.exists() and fresh.exists() and kept.exists()
        assert store.purge() == 2
        assert not fresh.exists() and not kept.exists()

    def test_purge(self, tmp_path):
        store = ArtifactStore(tmp_path)
        for token in "abc":
            store.save(self.key(token=token), token)
        assert store.purge() == 3
        assert store.stats().num_artifacts == 0
