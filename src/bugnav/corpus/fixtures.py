"""On-disk request fixtures for offline, reproducible runs.

Layout: `index.jsonl` maps a canonical request key to a payload file
under `payloads/`; a payload path that is absolute or holds a `..`
segment is refused when it is looked up. Recording appends, so the
newest line for a key wins on reload; replay readers never mutate
anything. Both are read as UTF-8 whatever the locale: the index is
decoded once, as a whole, and a payload's bytes go to ``json.loads``,
which decodes them (RFC 8259).
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
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
    """Paths are plain strings: a ``pathlib`` path built per lookup
    interns its parts, which grows the process with every request."""

    def __init__(self, root):
        self.root = os.fspath(root)
        self._rows: Dict[str, dict] = {}
        self._lock = threading.Lock()
        index = os.path.join(self.root, _INDEX_NAME)
        if os.path.isfile(index):
            try:
                # rows end at "\n" only: a string may hold a raw U+2028, and
                # a CRLF row's "\r" is JSON whitespace
                with open(index, encoding="utf-8", newline="") as fh:
                    lines = fh.read().split("\n")
            except (OSError, ValueError) as exc:
                raise TransportError(f"fixture index {index} is unreadable: {exc}") from exc
            for number, line in enumerate(lines, start=1):
                if not line.strip():
                    continue
                try:
                    row = json.loads(line)
                    # what lookup returns: a payload path and a status code
                    if not (isinstance(row["payload"], str) and isinstance(row["status"], int)):
                        raise TypeError("payload must be a string and status an integer")
                    self._rows[row["key"]] = row
                # RecursionError: nesting deeper than the decoder's stack
                except (ValueError, KeyError, TypeError, RecursionError) as exc:
                    raise TransportError(
                        f"fixture index {index} line {number} is corrupt: {exc!r}"
                    ) from exc

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
        try:
            with open(path, "rb") as fh:
                payload = json.loads(fh.read())
        except (OSError, ValueError, RecursionError) as exc:
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
            payload_path = os.path.join(self.root, relative)
            os.makedirs(os.path.dirname(payload_path), exist_ok=True)
            with open(payload_path, "w") as out:
                out.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")
            with open(os.path.join(self.root, _INDEX_NAME), "a") as handle:
                handle.write(json.dumps(row, sort_keys=True) + "\n")
            self._rows[key] = row
        return key
