"""Run manifests: canonical JSON records that make runs replayable.

A manifest captures the command, every configuration value, the tool
version and a content hash of the input series. Re-running a command from
its manifest reproduces the outputs byte for byte. Manifests contain no
timestamps for exactly that reason.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

from .errors import ConfigError

TOOL_VERSION = "0.1.0"


def canonical_json(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True, indent=2, ensure_ascii=True) + "\n"


def manifest_digest(payload: dict) -> str:
    """Hash over the manifest body, itself excluded from hashing."""
    body = {k: v for k, v in payload.items() if k != "manifest_sha256"}
    compact = json.dumps(body, sort_keys=True, separators=(",", ":"), ensure_ascii=True)
    return hashlib.sha256(compact.encode()).hexdigest()


def write_manifest(payload: dict, path) -> dict:
    payload = dict(payload)
    payload["manifest_sha256"] = manifest_digest(payload)
    Path(path).write_text(canonical_json(payload), encoding="utf-8")
    return payload


def load_manifest(path) -> dict:
    """The JSON object in a manifest file; ConfigError if it holds anything else."""
    try:
        payload = json.loads(Path(path).read_bytes())
    except (ValueError, RecursionError) as exc:  # not JSON or UTF-8, or nested too deep
        raise ConfigError(f"manifest {path} is not JSON: {exc}") from None
    if not isinstance(payload, dict):
        raise ConfigError(f"manifest {path} does not hold a JSON object")
    return payload
