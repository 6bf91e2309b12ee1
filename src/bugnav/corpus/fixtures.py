"""On-disk request fixtures for offline, reproducible runs.

Layout: one file per recorded request, `payloads/<key>.json`, named by
the request's `canonical_key`. It holds the request (`endpoint`,
`params`) and its answer (`status`, `payload`), so no index is needed:
a lookup opens the file its key names, and an absent file is a request
never recorded. Recording the same request again overwrites its file;
replay readers never mutate anything. No file name comes from recorded
data. A file is read by ``errors.read_json``, which holds the decode
rules of every JSON file bugnav reads.
"""

from __future__ import annotations

import hashlib
import json
import os
from typing import Dict, Optional, Tuple

from ..errors import TransportError, read_json


def canonical_key(endpoint: str, params: Dict[str, str]) -> str:
    """Stable content hash of a request, independent of dict order."""
    blob = json.dumps(
        {"endpoint": endpoint, "params": dict(params)},
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


class FixtureStore:
    """Paths are plain strings: a ``pathlib`` path built per lookup
    interns its parts, which grows the process with every request."""

    def __init__(self, root):
        self.root = os.fspath(root)

    def _path(self, endpoint: str, params: Dict[str, str]) -> str:
        return os.path.join(self.root, "payloads", canonical_key(endpoint, params) + ".json")

    def lookup(self, endpoint: str, params: Dict[str, str]) -> Optional[Tuple[int, object]]:
        """The recorded (status, payload); None when never recorded."""
        path = self._path(endpoint, params)
        try:
            record = read_json(path, "fixture", TransportError)
        except TransportError as exc:
            if isinstance(exc.__cause__, FileNotFoundError):
                return None
            raise
        if not (isinstance(record, dict) and type(record.get("status")) is int
                and "payload" in record):
            raise TransportError(f"fixture {path}: expected an integer status and a payload")
        return record["status"], record["payload"]

    def record(self, endpoint: str, params: Dict[str, str], status: int, payload) -> None:
        path = self._path(endpoint, params)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        record = dict(endpoint=endpoint, params=dict(params), status=status, payload=payload)
        with open(path, "w") as out:
            out.write(json.dumps(record, indent=2, sort_keys=True) + "\n")
