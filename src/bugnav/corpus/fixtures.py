"""On-disk request fixtures for offline, reproducible runs.

Layout: `index.jsonl` maps a canonical request key to a payload file
under `payloads/`. Recording appends, so the newest line for a key
wins on reload; replay readers never mutate anything.
"""

from __future__ import annotations

import hashlib
import json
import threading
from pathlib import Path
from typing import Dict, Optional, Tuple

from ..errors import TransportError

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


class FixtureStore:
    def __init__(self, root):
        self.root = Path(root)
        self._rows: Dict[str, dict] = {}
        self._lock = threading.Lock()
        index = self.root / _INDEX_NAME
        if index.is_file():
            for line in index.read_text().splitlines():
                if line.strip():
                    row = json.loads(line)
                    self._rows[row["key"]] = row

    def lookup(self, endpoint: str, params: Dict[str, str]) -> Optional[Tuple[int, object]]:
        row = self._rows.get(canonical_key(endpoint, params))
        if row is None:
            return None
        path = self.root / row["payload"]
        try:
            payload = json.loads(path.read_text())
        except (OSError, ValueError) as exc:
            raise TransportError(f"fixture payload {path} is unreadable: {exc}") from exc
        return row["status"], payload

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
            payload_path = self.root / relative
            payload_path.parent.mkdir(parents=True, exist_ok=True)
            payload_path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
            with open(self.root / _INDEX_NAME, "a") as handle:
                handle.write(json.dumps(row, sort_keys=True) + "\n")
            self._rows[key] = row
        return key

    def __len__(self):
        return len(self._rows)
