"""On-disk request fixtures for offline, reproducible runs.

Layout: `index.jsonl` maps a canonical request key to a payload file
under `payloads/`; a payload path that is absolute or holds a `..`
segment is refused when it is looked up. Recording appends, so the
newest line for a key wins on reload; replay readers never mutate
anything. The index is read by ``errors.read_json_lines`` and a
payload by ``errors.read_json``, which hold the decode rules of every
JSON file bugnav reads.
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
from typing import Dict, Optional, Tuple

from ..errors import TransportError, read_json, read_json_lines

_INDEX_NAME = "index.jsonl"
_PAYLOAD_DIR = "payloads"


def canonical_key(endpoint: str, params: Dict[str, str]) -> str:
    """Stable content hash of a request, independent of dict order."""
    blob = json.dumps(
        {"endpoint": endpoint, "params": dict(params)},
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def _index_row(row) -> dict:
    """An index row with what lookup reads: a string key and payload path,
    and an integer status, which JSON true is not; ValueError otherwise."""
    if not (
        isinstance(row, dict)
        and isinstance(row.get("key"), str)
        and isinstance(row.get("payload"), str)
        and type(row.get("status")) is int
    ):
        raise ValueError(f"expected a key, a payload path and an integer status, not {row!r:.80}")
    return row


class FixtureStore:
    """Paths are plain strings: a ``pathlib`` path built per lookup
    interns its parts, which grows the process with every request."""

    def __init__(self, root):
        self.root = os.fspath(root)
        self._rows: Dict[str, dict] = {}
        self._lock = threading.Lock()
        index = os.path.join(self.root, _INDEX_NAME)
        if os.path.isfile(index):
            for row in read_json_lines(index, "fixture index", _index_row, TransportError):
                self._rows[row["key"]] = row

    def lookup(self, endpoint: str, params: Dict[str, str]) -> Optional[Tuple[int, object]]:
        row = self._rows.get(canonical_key(endpoint, params))
        if row is None:
            return None
        relative = row["payload"]
        # a payload lies under the root: no absolute path, no ".." segment;
        # checked per lookup, since a check at load would cost every row
        if os.path.isabs(relative) or ".." in relative.replace(os.sep, "/").split("/"):
            raise TransportError(
                f"fixture index entry for {endpoint} names a payload outside "
                f"{self.root}: {relative!r}"
            )
        path = os.path.join(self.root, relative)
        return row["status"], read_json(path, "fixture payload", TransportError)

    def record(self, endpoint: str, params: Dict[str, str], status: int, payload) -> str:
        key = canonical_key(endpoint, params)
        relative = f"{_PAYLOAD_DIR}/{key}.json"
        row = {
            "key": key,
            "endpoint": endpoint,
            "params": dict(params),
            "status": status,
            "payload": relative,
        }
        with self._lock:
            payload_path = os.path.join(self.root, relative)
            os.makedirs(os.path.dirname(payload_path), exist_ok=True)
            with open(payload_path, "w") as out:
                out.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")
            with open(os.path.join(self.root, _INDEX_NAME), "a") as handle:
                handle.write(json.dumps(row, sort_keys=True) + "\n")
            self._rows[key] = row
        return key
