"""The live transport: ``fetch_raw`` (see ``transport.py``) over HTTP.

The only module that imports ``requests``. ``pipeline.build_client``
loads it for a live run alone, so ``recommend --fixture-dir``, ``tune``
and ``evaluate`` never load the HTTP stack.
"""

from __future__ import annotations

import email.utils
import itertools
import math
import string
import threading
import time
import urllib.parse
from datetime import datetime, timezone
from typing import Dict, Optional, Tuple

import requests

from ..errors import RateLimitError, RequestFailedError, TransportError
from .transport import _payload_message

API_BASE = "https://api.github.com"

# Path placeholders are consumed from params; the rest travel as the
# query string.
_ENDPOINTS = {
    "search_issues": "/search/issues",
    "get_issue": "/repos/{owner}/{repo}/issues/{number}",
    "list_comments": "/repos/{owner}/{repo}/issues/{number}/comments",
    "get_pull": "/repos/{owner}/{repo}/pulls/{number}",
    "get_pull_files": "/repos/{owner}/{repo}/pulls/{number}/files",
    "get_commit": "/repos/{owner}/{repo}/commits/{sha}",
    "get_repo": "/repos/{owner}/{repo}",
    "get_tree": "/repos/{owner}/{repo}/git/trees/{ref}",
    "get_file_content": "/repos/{owner}/{repo}/contents/{path}",
}

_RETRYABLE = {500, 502, 503, 504}

# documented budgets: ~30 searches/minute, 5000 core calls/hour
SEARCH_QUOTA = (30, 60.0)
CORE_QUOTA = (5000, 3600.0)


class TokenBucket:
    """Continuously refilling token bucket; acquire() blocks until a
    token is available, via the injected sleeper."""

    def __init__(self, capacity, interval, *, clock=time.monotonic, sleeper=time.sleep):
        self.capacity = float(capacity)
        self.rate = float(capacity) / float(interval)
        self._tokens = float(capacity)
        self._clock = clock
        self._sleep = sleeper
        self._stamp = clock()
        self._lock = threading.Lock()

    def acquire(self) -> None:
        while True:
            with self._lock:
                now = self._clock()
                self._tokens = min(self.capacity, self._tokens + (now - self._stamp) * self.rate)
                self._stamp = now
                if self._tokens >= 1.0:
                    self._tokens -= 1.0
                    return
                wait = (1.0 - self._tokens) / self.rate
            self._sleep(wait)


class LiveTransport:
    """Real HTTP against the platform API with client-side rate
    limiting and bounded retries for transient failures."""

    def __init__(
        self,
        *,
        token: Optional[str] = None,
        base_url: str = API_BASE,
        session=None,
        search_bucket: Optional[TokenBucket] = None,
        core_bucket: Optional[TokenBucket] = None,
        max_retries: int = 3,
        sleeper=time.sleep,
        timeout: float = 30.0,
    ):
        self._token = token
        self._base_url = base_url.rstrip("/")
        self._session = session if session is not None else requests.Session()
        self._search_bucket = search_bucket or TokenBucket(*SEARCH_QUOTA)
        self._core_bucket = core_bucket or TokenBucket(*CORE_QUOTA)
        self._max_retries = max_retries
        self._sleep = sleeper
        self._timeout = timeout

    def fetch_raw(self, endpoint: str, params: Dict[str, str]) -> Tuple[int, object]:
        template = _ENDPOINTS[endpoint]
        path_fields = {
            name for _, name, _, _ in string.Formatter().parse(template) if name
        }
        # "/" stays so a content path keeps its directories
        quoted = {k: urllib.parse.quote(params[k], safe="/") for k in path_fields}
        url = self._base_url + template.format(**quoted)
        query = {k: v for k, v in params.items() if k not in path_fields}
        headers = {"Accept": "application/vnd.github+json"}
        if self._token:
            headers["Authorization"] = f"Bearer {self._token}"
        bucket = self._search_bucket if endpoint == "search_issues" else self._core_bucket

        for attempt in itertools.count():
            bucket.acquire()
            try:
                response = self._session.get(
                    url, params=query, headers=headers, timeout=self._timeout
                )
            except requests.RequestException as exc:
                failure, cause = f"{endpoint}: {exc}", exc
            else:
                status = response.status_code
                if status not in _RETRYABLE:
                    break
                failure, cause = f"{endpoint} failed with status {status}", None
            if attempt >= self._max_retries:
                raise RequestFailedError(failure) from cause
            self._sleep(2.0 ** attempt)
        try:
            payload = response.json()
        except (ValueError, RecursionError) as exc:
            if 200 <= status < 300:
                raise TransportError(
                    f"{endpoint} {params}: reply is not valid JSON: {exc}"
                ) from exc
            payload = {}  # an error status's body only supplies the message
        if status in (403, 429):
            retry_after = response.headers.get("Retry-After")
            message = _payload_message(payload)
            if status == 429 or retry_after is not None or "rate limit" in message.lower():
                raise RateLimitError(
                    message or f"{endpoint}: rate limited",
                    retry_after=_retry_after_seconds(retry_after),
                )
        return status, payload


def _retry_after_seconds(value: Optional[str]) -> Optional[float]:
    """A ``Retry-After`` header as seconds from now. RFC 9110 allows
    delay-seconds (ASCII digits only) or an HTTP-date; anything else,
    say "nan", "-5" or "1e3", is no hint (None)."""
    if not value:
        return None
    if value.isascii() and value.isdigit():
        seconds = float(value)
        return seconds if math.isfinite(seconds) else None
    try:
        when = email.utils.parsedate_to_datetime(value)
    except (TypeError, ValueError):
        return None
    if when.tzinfo is None:  # "-0000": UTC, source zone unknown
        when = when.replace(tzinfo=timezone.utc)
    return max(0.0, (when - datetime.now(timezone.utc)).total_seconds())
