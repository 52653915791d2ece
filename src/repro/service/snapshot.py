"""Service snapshot files (``repro-service-snapshot-v1``).

A snapshot directory holds one JSON file per shard (the per-tenant
detector state dicts) plus a ``manifest.json`` naming the schema, the
router, the tenant → shard placement, each tenant's stream fingerprint
and the shard files.  Every file is written atomically (temp file +
rename) and the manifest is written *last*, so a crash mid-snapshot
leaves either the previous complete snapshot or none — never a torn
one: :func:`read_snapshot` trusts only what the manifest names.

The format is deliberately plain JSON: detector state is integer code
buffers and three clocks (see
:meth:`repro.detection.OnlineAnomalyDetector.state_dict`), so snapshots
stay inspectable with a text editor and diffable in version control.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Mapping

from ..obs import atomic_write_text

__all__ = [
    "MANIFEST_NAME",
    "SERVICE_SNAPSHOT_SCHEMA",
    "has_snapshot",
    "read_snapshot",
    "write_snapshot",
]

#: Format tag embedded in the manifest and every shard file.
SERVICE_SNAPSHOT_SCHEMA = "repro-service-snapshot-v1"

#: The snapshot's commit point; written last, read first.
MANIFEST_NAME = "manifest.json"


def _atomic_write_json(path: Path, payload: dict) -> None:
    atomic_write_text(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")


def has_snapshot(directory: "str | Path") -> bool:
    """Whether ``directory`` holds a committed service snapshot."""
    return (Path(directory) / MANIFEST_NAME).is_file()


def write_snapshot(
    directory: "str | Path",
    manifest: Mapping,
    shard_states: Mapping[int, Mapping],
) -> Path:
    """Write shard states then commit the manifest; returns the directory.

    ``manifest`` carries service-level fields (router, tenants,
    fingerprints); the schema tag and the shard-file index are added
    here.  Shard files land first so the manifest — the commit point —
    never names a file that does not exist.
    """
    directory = Path(directory)
    shard_files: dict[str, str] = {}
    for shard_id, state in sorted(shard_states.items()):
        name = f"shard-{int(shard_id):04d}.json"
        _atomic_write_json(
            directory / name,
            {"schema": SERVICE_SNAPSHOT_SCHEMA, **dict(state)},
        )
        shard_files[str(int(shard_id))] = name
    payload = {
        "schema": SERVICE_SNAPSHOT_SCHEMA,
        **dict(manifest),
        "shard_files": shard_files,
    }
    _atomic_write_json(directory / MANIFEST_NAME, payload)
    return directory


def read_snapshot(directory: "str | Path") -> tuple[dict, dict[int, dict]]:
    """Load ``(manifest, {shard_id: state})`` from a snapshot directory.

    Raises ``FileNotFoundError`` when no manifest is committed and
    ``ValueError`` on schema mismatches or missing shard files.
    """
    directory = Path(directory)
    manifest_path = directory / MANIFEST_NAME
    if not manifest_path.is_file():
        raise FileNotFoundError(f"no service snapshot committed in {directory}")
    manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    if manifest.get("schema") != SERVICE_SNAPSHOT_SCHEMA:
        raise ValueError(
            f"{manifest_path} carries schema {manifest.get('schema')!r}, "
            f"expected {SERVICE_SNAPSHOT_SCHEMA!r}"
        )
    shard_states: dict[int, dict] = {}
    for shard_id, name in dict(manifest.get("shard_files", {})).items():
        shard_path = directory / name
        if not shard_path.is_file():
            raise ValueError(
                f"snapshot manifest names missing shard file {name!r}"
            )
        state = json.loads(shard_path.read_text(encoding="utf-8"))
        if state.get("schema") != SERVICE_SNAPSHOT_SCHEMA:
            raise ValueError(
                f"{shard_path} carries schema {state.get('schema')!r}, "
                f"expected {SERVICE_SNAPSHOT_SCHEMA!r}"
            )
        shard_states[int(shard_id)] = state
    return manifest, shard_states
