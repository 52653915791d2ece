"""Content-addressed artifact store backing the stage-graph pipeline.

Every cacheable stage output is stored under an :class:`ArtifactKey`
``(kind, digest)`` where the digest is a SHA-256 fingerprint of the
stage's inputs: the event data consumed, the configuration that shapes
the computation, and the stage version.  Because the key is derived
from *content* rather than file names or timestamps, incremental
rebuilds fall out structurally: rerunning a build with unchanged logs
and config resolves every key to an existing artifact and trains
nothing, while perturbing one sensor's events changes only the keys
whose fingerprint covers that sensor.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import pickle
import re
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Iterator, TYPE_CHECKING

from ..obs import get_logger

if TYPE_CHECKING:  # pragma: no cover - typing only, no runtime import
    from ..lang.events import EventSequence, MultivariateEventLog
    from ..obs import MetricsRegistry

logger = get_logger(__name__)

__all__ = [
    "ArtifactKey",
    "ArtifactStore",
    "StoreStats",
    "combine_fingerprints",
    "fingerprint_bytes",
    "fingerprint_log",
    "fingerprint_obj",
    "fingerprint_sequence",
]

_FORMAT_TAG = "repro-artifact-v1"
_KIND_RE = re.compile(r"^[a-z0-9][a-z0-9-]*$")
_DIGEST_RE = re.compile(r"^[0-9a-f]{16,64}$")


# ----------------------------------------------------------------------
# Fingerprints
# ----------------------------------------------------------------------
def fingerprint_bytes(data: bytes) -> str:
    """SHA-256 hex digest of raw bytes."""
    return hashlib.sha256(data).hexdigest()


def _jsonify(obj: Any) -> Any:
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {"__dataclass__": type(obj).__name__, **dataclasses.asdict(obj)}
    if isinstance(obj, (set, frozenset)):
        return sorted(obj)
    raise TypeError(f"cannot fingerprint object of type {type(obj).__name__}")


def fingerprint_obj(obj: Any) -> str:
    """Fingerprint a JSON-representable object (incl. dataclasses).

    The rendering is canonical — sorted keys, no whitespace — so two
    equal configurations always fingerprint identically regardless of
    construction order.
    """
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"), default=_jsonify)
    return fingerprint_bytes(text.encode("utf-8"))


def fingerprint_sequence(sequence: "EventSequence") -> str:
    """Fingerprint one sensor's event data (name, states and codes).

    Hashes the interned columnar representation — the sorted state
    table plus the raw ``uint16`` code bytes — in the exact layout of
    :meth:`repro.core.EventFrame.row_digest`, so a sequence and the
    frame row it views produce the same digest in one pass over packed
    memory instead of re-rendering every event string.
    """
    import numpy as np

    hasher = hashlib.sha256()
    hasher.update(sequence.sensor.encode("utf-8"))
    hasher.update(b"\x00")
    for state in sequence.table.states:
        hasher.update(state.encode("utf-8"))
        hasher.update(b"\x1f")
    hasher.update(b"\x00")
    hasher.update(np.ascontiguousarray(sequence.codes, dtype="<u2").tobytes())
    return hasher.hexdigest()


def fingerprint_log(log: "MultivariateEventLog") -> str:
    """Fingerprint a whole event log (sensor order is significant).

    Delegates to :meth:`repro.core.EventFrame.digest`, which folds the
    per-row digests with the same separator
    :func:`combine_fingerprints` uses — the value is identical to
    combining :func:`fingerprint_sequence` over the log's sequences,
    but reuses the frame's digest cache (pre-seeded by the chunked
    ingest builder) instead of rescanning the code matrix.
    """
    return log.frame.digest()


def combine_fingerprints(*parts: str) -> str:
    """Fold any number of fingerprints/tokens into one digest."""
    hasher = hashlib.sha256()
    for part in parts:
        hasher.update(part.encode("utf-8"))
        hasher.update(b"\x1e")
    return hasher.hexdigest()


# ----------------------------------------------------------------------
# Artifact store
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ArtifactKey:
    """Address of one stored artifact: an artifact kind plus a digest."""

    kind: str
    digest: str

    def __post_init__(self) -> None:
        if not _KIND_RE.match(self.kind):
            raise ValueError(f"invalid artifact kind {self.kind!r}")
        if not _DIGEST_RE.match(self.digest):
            raise ValueError(f"invalid artifact digest {self.digest!r}")

    def __str__(self) -> str:
        return f"{self.kind}/{self.digest}"


@dataclass(frozen=True)
class StoreStats:
    """Aggregate view of a store: per-kind artifact counts and bytes."""

    kinds: dict[str, tuple[int, int]]

    @property
    def num_artifacts(self) -> int:
        return sum(count for count, _ in self.kinds.values())

    @property
    def total_bytes(self) -> int:
        return sum(size for _, size in self.kinds.values())

    def as_rows(self) -> list[dict[str, object]]:
        return [
            {"kind": kind, "artifacts": count, "bytes": size}
            for kind, (count, size) in sorted(self.kinds.items())
        ]


class ArtifactStore:
    """Content-addressed on-disk cache of pipeline artifacts.

    Layout: ``root/objects/<kind>/<digest[:2]>/<digest>.pkl``; each
    file is a pickled record tagged with the format version and its own
    key, so a hash collision with a foreign file or a record moved
    between kinds is detected on load.  Writes go through a temp file
    and ``os.replace`` so a crashed writer can never leave a truncated
    artifact behind (only a ``*.tmp`` file, which :meth:`gc` and
    :meth:`purge` reclaim).

    When :attr:`metrics` is set (the pipeline points a store at its
    run's registry automatically), :meth:`get` counts ``store.hits``,
    ``store.misses`` and ``store.stale`` (present but corrupt/foreign —
    also logged as a warning) and :meth:`save` counts ``store.writes``.
    """

    def __init__(
        self, root: str | Path, metrics: "MetricsRegistry | None" = None
    ) -> None:
        self.root = Path(root)
        self.metrics = metrics

    def _count(self, name: str) -> None:
        if self.metrics is not None:
            self.metrics.counter(name).inc()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ArtifactStore({str(self.root)!r})"

    # ------------------------------------------------------------------
    def path_for(self, key: ArtifactKey) -> Path:
        return self.root / "objects" / key.kind / key.digest[:2] / f"{key.digest}.pkl"

    def contains(self, key: ArtifactKey) -> bool:
        return self.path_for(key).exists()

    __contains__ = contains

    def save(self, key: ArtifactKey, payload: Any) -> Path:
        """Store ``payload`` under ``key`` atomically; returns the path."""
        path = self.path_for(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        record = {
            "format": _FORMAT_TAG,
            "kind": key.kind,
            "digest": key.digest,
            "payload": payload,
        }
        fd, tmp_name = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as handle:
                pickle.dump(record, handle)
            os.replace(tmp_name, path)
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise
        self._count("store.writes")
        return path

    def load(self, key: ArtifactKey) -> Any:
        """Load the payload stored under ``key``.

        Raises ``KeyError`` when absent and ``ValueError`` when the
        file exists but is not an artifact written for this key.
        """
        path = self.path_for(key)
        if not path.exists():
            raise KeyError(str(key))
        try:
            with path.open("rb") as handle:
                record = pickle.load(handle)
        except (pickle.UnpicklingError, EOFError, AttributeError, ValueError) as error:
            raise ValueError(f"corrupt artifact at {path}: {error}") from None
        if (
            not isinstance(record, dict)
            or record.get("format") != _FORMAT_TAG
            or record.get("kind") != key.kind
            or record.get("digest") != key.digest
        ):
            raise ValueError(f"{path} is not the artifact for {key}")
        return record["payload"]

    def get(self, key: ArtifactKey, default: Any = None) -> Any:
        """Like :meth:`load` but treats missing/corrupt artifacts as a miss."""
        try:
            payload = self.load(key)
        except KeyError:
            self._count("store.misses")
            return default
        except ValueError as error:
            # Present but unreadable or written for another key: a
            # *stale* entry, distinct from a plain miss.
            self._count("store.stale")
            logger.warning("stale artifact for %s: %s", key, error)
            return default
        self._count("store.hits")
        return payload

    def delete(self, key: ArtifactKey) -> bool:
        path = self.path_for(key)
        if not path.exists():
            return False
        path.unlink()
        return True

    # ------------------------------------------------------------------
    def keys(self, kind: str | None = None) -> Iterator[ArtifactKey]:
        """Iterate stored keys, optionally restricted to one kind."""
        objects = self.root / "objects"
        if not objects.exists():
            return
        kinds = [kind] if kind is not None else sorted(
            p.name for p in objects.iterdir() if p.is_dir()
        )
        for name in kinds:
            for path in sorted((objects / name).glob("*/*.pkl")):
                yield ArtifactKey(name, path.stem)

    def stats(self) -> StoreStats:
        """Per-kind artifact counts and byte totals."""
        kinds: dict[str, tuple[int, int]] = {}
        for key in self.keys():
            count, size = kinds.get(key.kind, (0, 0))
            kinds[key.kind] = (count + 1, size + self.path_for(key).stat().st_size)
        return StoreStats(kinds)

    def _files(self) -> list[Path]:
        """Every artifact file plus the temp files of interrupted saves.

        A writer killed between :meth:`save`'s temp-file write and its
        ``os.replace`` leaves a ``*.tmp`` file that :meth:`keys` never
        lists; :meth:`gc` and :meth:`purge` reclaim those too.
        """
        paths = [self.path_for(key) for key in self.keys()]
        objects = self.root / "objects"
        if objects.exists():
            paths.extend(sorted(objects.rglob("*.tmp")))
        return paths

    def gc(self, max_age_seconds: float, now: float | None = None) -> int:
        """Delete artifacts and leftover temp files last touched more
        than ``max_age_seconds`` ago; returns how many were removed."""
        if max_age_seconds < 0:
            raise ValueError("max_age_seconds must be non-negative")
        cutoff = (time.time() if now is None else now) - max_age_seconds
        removed = 0
        for path in self._files():
            try:
                if path.stat().st_mtime < cutoff:
                    path.unlink()
                    removed += 1
            except FileNotFoundError:  # pragma: no cover - concurrent gc
                continue
        return removed

    def purge(self) -> int:
        """Delete every artifact and leftover temp file in the store."""
        removed = 0
        for path in self._files():
            try:
                path.unlink()
                removed += 1
            except FileNotFoundError:  # pragma: no cover - concurrent purge
                continue
        return removed
