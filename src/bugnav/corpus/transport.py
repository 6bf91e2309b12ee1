"""The request protocol and fixture replay.

A transport exposes one method, ``fetch_raw(endpoint, params) ->
(status, payload)``; ``perform`` wraps it and maps error statuses to
typed exceptions so callers never branch on numbers. Endpoint names
are symbolic and double as the fixture key (see ``FixtureStore``),
which keeps recorded corpora independent of URL details.

The live transport is in ``live.py``, the only module that imports
``requests``; nothing here loads the HTTP stack, so a replayed run,
``tune`` and ``evaluate`` never do.
"""

from __future__ import annotations

from typing import Dict, Tuple

from ..errors import NotFoundError, RateLimitError, ReplayMissError, RequestFailedError
from .fixtures import FixtureStore


def _payload_message(payload) -> str:
    if isinstance(payload, dict):
        return str(payload.get("message", ""))
    return ""


def perform(transport, endpoint: str, params: Dict[str, str]):
    """Run one request and return the payload, or raise the typed error
    the recorded/live status maps to."""
    status, payload = transport.fetch_raw(endpoint, params)
    if 200 <= status < 300:
        return payload
    if status == 404:
        raise NotFoundError(f"{endpoint} {params}: not found")
    message = _payload_message(payload)
    if status == 429 or (status == 403 and "rate limit" in message.lower()):
        raise RateLimitError(message or f"{endpoint}: rate limited")
    raise RequestFailedError(f"{endpoint} failed with status {status}: {message}")


class ReplayTransport:
    """Serves recorded fixtures only; a request without a recording is
    an error, never a network call."""

    def __init__(self, store: FixtureStore):
        self._store = store

    def fetch_raw(self, endpoint: str, params: Dict[str, str]) -> Tuple[int, object]:
        found = self._store.lookup(endpoint, params)
        if found is None:
            raise ReplayMissError(f"no fixture recorded for {endpoint} {dict(params)}")
        return found
