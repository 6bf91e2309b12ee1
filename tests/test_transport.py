"""Fixture store, record/replay, rate limiting, and the live transport."""

import email.utils
import json
import os
import tempfile
from datetime import datetime, timedelta, timezone

import pytest
import requests
from hypothesis import given, settings
from hypothesis import strategies as st

from bugnav.corpus.fixtures import FixtureStore, canonical_key
from bugnav.corpus.live import _ENDPOINTS, LiveTransport, TokenBucket
from bugnav.corpus.transport import ReplayTransport, perform
from bugnav.errors import (
    NotFoundError,
    RateLimitError,
    ReplayMissError,
    RequestFailedError,
    TransportError,
)

# any JSON value: the floats are finite, since NaN never equals itself
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text(),
    lambda children: st.lists(children) | st.dictionaries(st.text(), children),
    max_leaves=20,
)


class TestCanonicalKey:
    def test_stable_across_param_order(self):
        a = canonical_key("get_issue", {"owner": "o", "repo": "r", "number": "5"})
        b = canonical_key("get_issue", {"number": "5", "repo": "r", "owner": "o"})
        assert a == b
        assert len(a) == 64 and all(c in "0123456789abcdef" for c in a)

    def test_distinct_requests_distinct_keys(self):
        a = canonical_key("get_issue", {"owner": "o", "repo": "r", "number": "5"})
        b = canonical_key("get_issue", {"owner": "o", "repo": "r", "number": "6"})
        c = canonical_key("get_pull", {"owner": "o", "repo": "r", "number": "5"})
        assert len({a, b, c}) == 3


class TestFixtureStore:
    def test_record_lookup_round_trip(self, tmp_path):
        store = FixtureStore(tmp_path)
        payload = {"items": [1, 2, 3]}
        store.record("search_issues", {"q": "x", "page": "1"}, 200, payload)
        assert store.lookup("search_issues", {"page": "1", "q": "x"}) == (200, payload)

    def test_lookup_miss_returns_none(self, tmp_path):
        store = FixtureStore(tmp_path)
        assert store.lookup("get_issue", {"owner": "o", "repo": "r", "number": "1"}) is None

    def test_persists_across_instances(self, tmp_path):
        FixtureStore(tmp_path).record("get_repo", {"owner": "o", "repo": "r"}, 200, {"id": 1})
        reopened = FixtureStore(tmp_path)
        assert reopened.lookup("get_repo", {"owner": "o", "repo": "r"}) == (200, {"id": 1})

    def test_layout_is_one_file_per_request(self, tmp_path):
        store = FixtureStore(tmp_path)
        store.record("get_repo", {"owner": "o", "repo": "r"}, 200, {"id": 1})
        store.record("get_issue", {"owner": "o", "repo": "r", "number": "2"}, 404, None)
        key = canonical_key("get_repo", {"owner": "o", "repo": "r"})
        other = canonical_key("get_issue", {"owner": "o", "repo": "r", "number": "2"})
        files = {p.relative_to(tmp_path).as_posix() for p in tmp_path.rglob("*") if p.is_file()}
        assert files == {f"payloads/{key}.json", f"payloads/{other}.json"}
        record = json.loads((tmp_path / "payloads" / f"{key}.json").read_text())
        assert record == {
            "endpoint": "get_repo", "params": {"owner": "o", "repo": "r"},
            "status": 200, "payload": {"id": 1},
        }

    def test_rerecording_last_write_wins(self, tmp_path):
        store = FixtureStore(tmp_path)
        store.record("get_repo", {"owner": "o", "repo": "r"}, 200, {"v": 1})
        store.record("get_repo", {"owner": "o", "repo": "r"}, 200, {"v": 2})
        assert store.lookup("get_repo", {"owner": "o", "repo": "r"}) == (200, {"v": 2})
        assert FixtureStore(tmp_path).lookup("get_repo", {"owner": "o", "repo": "r"}) == (
            200,
            {"v": 2},
        )

    @settings(max_examples=150, deadline=None)
    @given(
        endpoint=st.sampled_from(sorted(_ENDPOINTS)),
        params=st.dictionaries(
            st.text(max_size=8),
            st.one_of(st.sampled_from(["/", "..", "../x", "/etc/passwd", "é/ü", "页"]),
                      st.text(max_size=12)),
            max_size=4,
        ),
        status=st.integers(100, 599),
        payloads=st.lists(_JSON, min_size=2, max_size=2),
    )
    def test_round_trip(self, endpoint, params, status, payloads):
        """Any recorded request reads back, in the same store and in a
        reopened one, from the one file its key names; recording it again
        overwrites that file."""
        with tempfile.TemporaryDirectory() as root:
            store = FixtureStore(root)
            for payload in payloads:
                store.record(endpoint, params, status, payload)
                assert store.lookup(endpoint, params) == (status, payload)
                assert FixtureStore(root).lookup(endpoint, params) == (status, payload)
            key = canonical_key(endpoint, params)
            assert [
                os.path.relpath(os.path.join(d, f), root)
                for d, _, names in os.walk(root) for f in names
            ] == [os.path.join("payloads", f"{key}.json")]


class TestReplayTransport:
    def test_replays_recorded_payload(self, tmp_path):
        store = FixtureStore(tmp_path)
        store.record("get_issue", {"owner": "o", "repo": "r", "number": "3"}, 200, {"title": "t"})
        transport = ReplayTransport(store)
        assert perform(transport, "get_issue", {"owner": "o", "repo": "r", "number": "3"}) == {
            "title": "t"
        }

    def test_miss_raises_replay_miss(self, tmp_path):
        transport = ReplayTransport(FixtureStore(tmp_path))
        with pytest.raises(ReplayMissError) as exc:
            perform(transport, "get_issue", {"owner": "o", "repo": "r", "number": "9"})
        assert "get_issue" in str(exc.value)

    def test_recorded_404_replays_as_not_found(self, tmp_path):
        store = FixtureStore(tmp_path)
        store.record("get_commit", {"owner": "o", "repo": "r", "sha": "a" * 7}, 404, {"message": "Not Found"})
        with pytest.raises(NotFoundError):
            perform(ReplayTransport(store), "get_commit", {"owner": "o", "repo": "r", "sha": "a" * 7})

    def test_recorded_rate_limit_maps(self, tmp_path):
        store = FixtureStore(tmp_path)
        store.record(
            "search_issues", {"q": "x", "page": "1", "per_page": "100"},
            403, {"message": "API rate limit exceeded for ..."},
        )
        with pytest.raises(RateLimitError):
            perform(
                ReplayTransport(store),
                "search_issues",
                {"q": "x", "page": "1", "per_page": "100"},
            )


class FakeClock:
    def __init__(self):
        self.now = 0.0
        self.sleeps = []

    def monotonic(self):
        return self.now

    def sleep(self, seconds):
        self.sleeps.append(seconds)
        self.now += seconds


class TestTokenBucket:
    def test_burst_within_capacity_never_sleeps(self):
        clock = FakeClock()
        bucket = TokenBucket(capacity=2, interval=60.0, clock=clock.monotonic, sleeper=clock.sleep)
        bucket.acquire()
        bucket.acquire()
        assert clock.sleeps == []

    def test_exhausted_bucket_waits_for_refill(self):
        clock = FakeClock()
        bucket = TokenBucket(capacity=2, interval=60.0, clock=clock.monotonic, sleeper=clock.sleep)
        bucket.acquire()
        bucket.acquire()
        bucket.acquire()
        assert clock.sleeps == [pytest.approx(30.0)]

    def test_elapsed_time_refills(self):
        clock = FakeClock()
        bucket = TokenBucket(capacity=1, interval=10.0, clock=clock.monotonic, sleeper=clock.sleep)
        bucket.acquire()
        clock.now += 10.0
        bucket.acquire()
        assert clock.sleeps == []


class FakeResponse:
    def __init__(self, status_code, payload=None, headers=None):
        self.status_code = status_code
        self._payload = payload if payload is not None else {}
        self.headers = headers or {}

    def json(self):
        return self._payload


class FakeSession:
    def __init__(self, responses):
        self.responses = list(responses)
        self.calls = []

    def get(self, url, params=None, headers=None, timeout=None):
        self.calls.append({"url": url, "params": dict(params or {}), "headers": dict(headers or {})})
        if not self.responses:
            raise AssertionError("no scripted response left")
        response = self.responses.pop(0)
        if isinstance(response, Exception):
            raise response
        return response


def _raw(status, body, headers=None):
    """A response holding ``body`` as received, so that requests decodes it."""
    response = requests.Response()
    response.status_code = status
    response._content = body
    response.headers.update(headers or {})
    return response


def _live(responses, **kwargs):
    clock = FakeClock()
    session = FakeSession(responses)
    transport = LiveTransport(
        session=session,
        sleeper=clock.sleep,
        search_bucket=TokenBucket(1000, 60.0, clock=clock.monotonic, sleeper=clock.sleep),
        core_bucket=TokenBucket(1000, 60.0, clock=clock.monotonic, sleeper=clock.sleep),
        **kwargs,
    )
    return transport, session, clock


class TestLiveTransport:
    def test_url_and_params(self):
        transport, session, _ = _live([FakeResponse(200, {"id": 7})], token="tok123")
        status, payload = transport.fetch_raw(
            "get_issue", {"owner": "octo", "repo": "demo", "number": "42"}
        )
        assert (status, payload) == (200, {"id": 7})
        call = session.calls[0]
        assert call["url"] == "https://api.github.com/repos/octo/demo/issues/42"
        assert call["params"] == {}
        assert call["headers"]["Authorization"] == "Bearer tok123"

    def test_query_params_forwarded(self):
        transport, session, _ = _live([FakeResponse(200, {"items": []})])
        transport.fetch_raw("search_issues", {"q": "crash", "page": "2", "per_page": "100"})
        call = session.calls[0]
        assert call["url"] == "https://api.github.com/search/issues"
        assert call["params"] == {"q": "crash", "page": "2", "per_page": "100"}
        assert "Authorization" not in call["headers"]

    @pytest.mark.parametrize(
        "path, sent",
        [
            ("res/layout/a#b.xml", "res/layout/a%23b.xml"),
            ("src/My Class?.java", "src/My%20Class%3F.java"),
            ("src/main/java/A.java", "src/main/java/A.java"),
        ],
        ids=["hash", "space-and-question-mark", "plain"],
    )
    def test_path_fields_are_quoted(self, path, sent):
        transport, session, _ = _live([FakeResponse(200, {})])
        transport.fetch_raw("get_file_content", {"owner": "o", "repo": "r", "path": path, "ref": "v1"})
        call = session.calls[0]
        prepared = requests.Request("GET", call["url"], params=call["params"]).prepare()
        assert prepared.url == f"https://api.github.com/repos/o/r/contents/{sent}?ref=v1"

    def test_retries_server_errors_with_backoff(self):
        transport, session, clock = _live(
            [FakeResponse(503), FakeResponse(502), FakeResponse(200, {"ok": True})]
        )
        status, payload = transport.fetch_raw("get_repo", {"owner": "o", "repo": "r"})
        assert payload == {"ok": True}
        assert len(session.calls) == 3
        assert clock.sleeps == [pytest.approx(1.0), pytest.approx(2.0)]

    def test_gives_up_after_three_retries(self):
        transport, session, _ = _live([FakeResponse(500)] * 4)
        with pytest.raises(TransportError):
            transport.fetch_raw("get_repo", {"owner": "o", "repo": "r"})
        assert len(session.calls) == 4

    def test_network_errors_retry_then_fail(self):
        transport, session, clock = _live([requests.ConnectionError("refused")] * 4)
        with pytest.raises(RequestFailedError) as exc:
            transport.fetch_raw("get_repo", {"owner": "o", "repo": "r"})
        assert "get_repo" in str(exc.value) and "refused" in str(exc.value)
        assert isinstance(exc.value.__cause__, requests.ConnectionError)
        assert len(session.calls) == 4
        assert clock.sleeps == [pytest.approx(1.0), pytest.approx(2.0), pytest.approx(4.0)]

    def test_network_error_then_success_returns_the_retry(self):
        transport, session, clock = _live(
            [requests.ConnectionError("reset"), FakeResponse(200, {"ok": True})]
        )
        assert transport.fetch_raw("get_repo", {"owner": "o", "repo": "r"}) == (200, {"ok": True})
        assert len(session.calls) == 2
        assert clock.sleeps == [pytest.approx(1.0)]

    def test_rate_limit_header_raises_with_wait(self):
        transport, _, _ = _live(
            [FakeResponse(403, {"message": "API rate limit exceeded"}, {"Retry-After": "7"})]
        )
        with pytest.raises(RateLimitError) as exc:
            transport.fetch_raw("search_issues", {"q": "x", "page": "1", "per_page": "100"})
        assert exc.value.retry_after == 7.0

    def test_http_date_retry_after_is_seconds_from_now(self):
        when = datetime.now(timezone.utc) + timedelta(hours=1)
        header = email.utils.format_datetime(when, usegmt=True)
        transport, _, _ = _live([FakeResponse(429, {}, {"Retry-After": header})])
        with pytest.raises(RateLimitError) as exc:
            transport.fetch_raw("search_issues", {"q": "x", "page": "1", "per_page": "100"})
        assert 3540 < exc.value.retry_after <= 3600

    @pytest.mark.parametrize(
        "header, wait", [
            ("Wed, 21 Oct 2015 07:28:00 GMT", 0.0), ("soon", None),
            # RFC 9110 delay-seconds is ASCII digits; float() reads all of these
            *((value, None) for value in
              ("nan", "inf", "-5", "1e3", "1_0", "7.5", "+5", " 7", "\u0663")),
            pytest.param("9" * 400, None, id="400-digits"), ("0120", 120.0),
        ]
    )
    def test_past_or_unreadable_retry_after(self, header, wait):
        transport, _, _ = _live([FakeResponse(429, {}, {"Retry-After": header})])
        with pytest.raises(RateLimitError) as exc:
            transport.fetch_raw("get_repo", {"owner": "o", "repo": "r"})
        assert exc.value.retry_after == wait

    @pytest.mark.parametrize("body", [b"<html>Bad gateway</html>", b"", b"[" * 100_000,
                                      b"[" * 100_000 + b"]" * 100_000],
                             ids=["html", "empty", "deep-unterminated", "deep"])
    @pytest.mark.parametrize("endpoint, params", [
        ("search_issues", {"q": "x", "page": "1", "per_page": "100"}),
        ("get_issue", {"owner": "o", "repo": "r", "number": "1"}),
    ])
    def test_2xx_reply_that_is_not_json_is_a_transport_error(self, endpoint, params, body):
        transport, _, _ = _live([_raw(200, body)])
        with pytest.raises(TransportError, match=f"{endpoint} .*not valid JSON"):
            transport.fetch_raw(endpoint, params)

    def test_error_status_body_that_is_not_json_only_loses_the_message(self):
        transport, _, _ = _live([_raw(404, b"<html>gone</html>")])
        assert transport.fetch_raw("get_repo", {"owner": "o", "repo": "r"}) == (404, {})
        transport, _, _ = _live([_raw(403, b"<html>slow down</html>", {"Retry-After": "7"})])
        with pytest.raises(RateLimitError) as exc:
            transport.fetch_raw("get_repo", {"owner": "o", "repo": "r"})
        assert exc.value.retry_after == 7.0

    def test_404_passes_through_for_perform_to_map(self):
        transport, _, _ = _live([FakeResponse(404, {"message": "Not Found"})])
        status, _ = transport.fetch_raw("get_repo", {"owner": "o", "repo": "gone"})
        assert status == 404
        transport2, _, _ = _live([FakeResponse(404, {"message": "Not Found"})])
        with pytest.raises(NotFoundError):
            perform(transport2, "get_repo", {"owner": "o", "repo": "gone"})

    def test_unknown_endpoint_rejected(self):
        transport, _, _ = _live([])
        with pytest.raises(KeyError):
            transport.fetch_raw("no_such_endpoint", {})
