"""Platform client operations and the similar-pair miner, all offline."""

import base64
import json
import logging
import sys
import threading
import time

import pytest

from hypothesis import example, given, settings
from hypothesis import strategies as st

from bugnav.corpus.client import PlatformClient
from bugnav.corpus.miner import mine_similar_pairs
from bugnav.corpus.fixtures import canonical_key
from bugnav.corpus.models import (
    FILE_KINDS,
    IssueHit,
    IssueRef,
    PatchRef,
    file_kind,
    find_patch_refs,
)
from bugnav.errors import NotFoundError, TransportError, ValidationError
from bugnav.extract import CONTEXT_KINDS, build_repo_context
from bugnav.querygen import SearchQuery
from oracles import file_kinds_reference, find_patch_refs_reference
from stubs import StubTransport, blob_sha, put_issue, put_pull, put_repo_tree, put_search


def _b64(text):
    return base64.b64encode(text.encode()).decode()


def _item(owner, repo, number, title, pull=False):
    item = {
        "number": number,
        "title": title,
        "repository_url": f"https://api.github.com/repos/{owner}/{repo}",
    }
    if pull:
        item["pull_request"] = {"url": "..."}
    return item


def _query(text="encoder crash"):
    return SearchQuery(text=text, qualifiers=("in:body,comments",), strategy="stack_trace")


class TestSearchIssues:
    def test_query_filters_and_ranks(self):
        transport = StubTransport()
        q = _query()
        transport.put(
            "search_issues",
            {"q": q.full() + " language:java state:closed", "page": "1", "per_page": "100"},
            {
                "total_count": 2,
                "items": [
                    _item("geotools", "geotools", 1723, "UTF fix", pull=True),
                    _item("octo", "demo", 4, "crash"),
                ],
            },
        )
        hits = PlatformClient(transport).search_issues(q, language="java", state="closed")
        assert [h.search_rank for h in hits] == [1, 2]
        assert hits[0].ref == IssueRef("geotools", "geotools", 1723)
        assert hits[1].ref == IssueRef("octo", "demo", 4)

    def test_no_filters_means_bare_query(self):
        transport = StubTransport()
        q = _query()
        transport.put(
            "search_issues",
            {"q": q.full(), "page": "1", "per_page": "100"},
            {"total_count": 0, "items": []},
        )
        assert PlatformClient(transport).search_issues(q, state=None) == []

    def test_paginates_until_max_results(self):
        transport = StubTransport()
        q = _query()
        base = q.full() + " state:closed"
        page1 = [_item("o", "r", n, f"i{n}") for n in range(1, 101)]
        page2 = [_item("o", "r", n, f"i{n}") for n in range(101, 201)]
        transport.put(
            "search_issues", {"q": base, "page": "1", "per_page": "100"},
            {"total_count": 250, "items": page1},
        )
        transport.put(
            "search_issues", {"q": base, "page": "2", "per_page": "100"},
            {"total_count": 250, "items": page2},
        )
        hits = PlatformClient(transport).search_issues(q, max_results=150)
        assert len(hits) == 150
        assert [h.search_rank for h in hits] == list(range(1, 151))
        assert hits[-1].ref.number == 150

    def test_short_page_stops_pagination(self):
        transport = StubTransport()
        q = _query()
        transport.put(
            "search_issues", {"q": q.full() + " state:closed", "page": "1", "per_page": "100"},
            {"total_count": 3, "items": [_item("o", "r", n, "t") for n in (1, 2, 3)]},
        )
        hits = PlatformClient(transport).search_issues(q, max_results=500)
        assert len(hits) == 3
        assert len(transport.calls) == 1

    def test_full_page_at_max_results_is_the_last_request(self):
        transport = StubTransport()
        q = _query()
        transport.put(
            "search_issues", {"q": q.full() + " state:closed", "page": "1", "per_page": "100"},
            {"total_count": 500, "items": [_item("o", "r", n, "t") for n in range(1, 101)]},
        )
        hits = PlatformClient(transport).search_issues(q, max_results=100)
        assert [h.search_rank for h in hits] == list(range(1, 101))
        assert transport.calls == [
            ("search_issues", {"q": q.full() + " state:closed", "page": "1", "per_page": "100"})
        ]

    def test_empty_query_rejected(self):
        with pytest.raises(ValidationError):
            PlatformClient(StubTransport()).search_issues(_query(""))

    def test_overlong_query_rejected(self):
        with pytest.raises(ValidationError):
            PlatformClient(StubTransport()).search_issues(_query("x" * 300))

    def test_max_results_capped_at_1000(self):
        with pytest.raises(ValidationError):
            PlatformClient(StubTransport()).search_issues(_query(), max_results=1001)


def _put_issue(transport, owner, repo, number, *, title="t", body="", state="closed",
               comments=(), labels=()):
    transport.put(
        "get_issue",
        {"owner": owner, "repo": repo, "number": str(number)},
        {
            "number": number,
            "title": title,
            "body": body,
            "state": state,
            "comments": len(comments),
            "labels": [{"name": l} for l in labels],
        },
    )
    transport.put(
        "list_comments",
        {"owner": owner, "repo": repo, "number": str(number), "page": "1", "per_page": "100"},
        [{"body": c} for c in comments],
    )


@pytest.mark.parametrize(
    "text, refs",
    [
        ("https://github.com/o/r/issues/5#issuecomment-1234567890", []),
        ("https://github.com/o/r/pull/5#pullrequestreview-987654321", [("pull", "o", "r", "5")]),
        ("https://github.com/o/r/issues/5 then fixed in a1b2c3d.", [("commit", "h", "home", "a1b2c3d")]),
        ("see https://github.com/x/y/commit/a1b2c3d", [("commit", "x", "y", "a1b2c3d")]),
        ("fixed in a1b2c3d, see the log", [("commit", "h", "home", "a1b2c3d")]),
        ("https://github.com/a.deadbeef1.b/r/issues/3", []),
    ],
)
def test_find_patch_refs_skips_ids_inside_urls(text, refs):
    assert find_patch_refs("h", "home", [text]) == [PatchRef(*ref) for ref in refs]


@pytest.mark.parametrize("url", [
    "https://github.com/../x/pull/5", "https://github.com/x/../pull/5",
    "https://github.com/./x/pull/5", "https://github.com/x/./pull/5",
    "https://github.com/../x/commit/a1b2c3d", "https://github.com/x/../commit/a1b2c3d",
    "https://github.com/./x/commit/a1b2c3d", "https://github.com/x/./commit/a1b2c3d",
])
def test_patch_url_whose_owner_or_repo_no_request_can_name_is_skipped(url):
    """The owner and repo of a pull or commit URL follow the rule of
    ``parse_repo_name``: a ".." would be dropped from the request path,
    so such a link is no ref, and the next one is read."""
    refs = find_patch_refs("h", "home", [f"see {url} then https://github.com/o/r/pull/6"])
    assert refs == [PatchRef("pull", "o", "r", "6")]
    # "..x" and "x.." are names like any other
    assert find_patch_refs("h", "home", ["https://github.com/..x/x../pull/5"]) == [
        PatchRef("pull", "..x", "x..", "5")
    ]


# URL openings, pull and commit paths, hex digits, slashes and spaces:
# ids inside, after and between URLs, and URLs that end at a space
_REF_PIECES = st.sampled_from([
    "http://", "https://", "https://github.com/o/r/commit/", "https://github.com/o/r/pull/",
    "https://github.com/../r/pull/", "https://github.com/o/./commit/",
    "github.com/", "#", ".", "-", "x", "/", "/", " ", " ", " ", "\n",
    "0", "1", "9", "a", "b", "e", "f", "abcdef1", "deadbeef", "a1b2c3d",
])
_ref_text = st.lists(_REF_PIECES, max_size=40).map("".join)


@settings(max_examples=1000, deadline=None)
@given(st.lists(_ref_text, max_size=3))
@example(["http://x abcdef1 https://y/abcdef1 abcdef1"])
@example(["see https://github.com/o/r/pull/5#deadbeef1 then abcdef1", "abcdef1 a1b2c3d"])
@example(["abcdef1http://x abcdef1", "http://x\nabcdef1/ deadbeef"])
def test_find_patch_refs_equals_reference(texts):
    assert find_patch_refs("h", "home", texts) == find_patch_refs_reference("h", "home", texts)


def test_many_urls_and_ids_are_scanned_fast():
    # each id used to scan every URL before it: about a second here
    body = ("http://x abcdef1 " * 4000)[:65536]
    start = time.process_time()
    refs = find_patch_refs("h", "home", [body])
    assert time.process_time() - start < 0.25
    assert refs == [PatchRef("commit", "h", "home", "abcdef1")]


class TestFetchIssue:
    def test_full_document(self):
        transport = StubTransport()
        _put_issue(
            transport, "octo", "demo", 5,
            title="NPE on resume", body="it crashes, fixed in a1b2c3d",
            comments=["me too", "see https://github.com/octo/demo/pull/9"],
            labels=["bug"],
        )
        doc = PlatformClient(transport).fetch_issue(IssueRef("octo", "demo", 5))
        assert doc.title == "NPE on resume"
        assert doc.num_comments == 2
        kinds = [(r.kind, r.ref) for r in doc.patch_refs]
        assert ("commit", "a1b2c3d") in kinds
        assert ("pull", "9") in kinds

    def test_zero_comments(self):
        transport = StubTransport()
        _put_issue(transport, "octo", "demo", 6)
        doc = PlatformClient(transport).fetch_issue(IssueRef("octo", "demo", 6))
        assert doc.comments == [] and doc.num_comments == 0
        assert doc.patch_refs == []

    def test_full_comment_page_asks_for_the_next(self):
        transport = StubTransport()
        comments = [f"comment {n}" for n in range(100)]
        _put_issue(transport, "octo", "demo", 8, comments=comments)
        transport.put(
            "list_comments",
            {"owner": "octo", "repo": "demo", "number": "8", "page": "2", "per_page": "100"},
            [],
        )
        doc = PlatformClient(transport).fetch_issue(IssueRef("octo", "demo", 8))
        assert doc.comments == comments
        pages = [params["page"] for endpoint, params in transport.calls
                 if endpoint == "list_comments"]
        assert pages == ["1", "2"]

    def test_missing_issue_raises(self):
        transport = StubTransport()
        transport.put(
            "get_issue", {"owner": "octo", "repo": "demo", "number": "404"},
            {"message": "Not Found"}, status=404,
        )
        with pytest.raises(NotFoundError):
            PlatformClient(transport).fetch_issue(IssueRef("octo", "demo", 404))

    def test_null_body_becomes_empty_string(self):
        transport = StubTransport()
        transport.put(
            "get_issue", {"owner": "o", "repo": "r", "number": "1"},
            {"number": 1, "title": "t", "body": None, "state": "open", "comments": 0, "labels": []},
        )
        transport.put(
            "list_comments",
            {"owner": "o", "repo": "r", "number": "1", "page": "1", "per_page": "100"},
            [],
        )
        doc = PlatformClient(transport).fetch_issue(IssueRef("o", "r", 1))
        assert doc.body == ""


class TestMalformedPayloads:
    @pytest.mark.parametrize(
        "item",
        [
            {"number": 3, "title": "no repository url"},
            {"repository_url": "https://api.github.com/repos/o/r", "title": "no number"},
            {"repository_url": "https://example.com/o/r", "number": 3},
            {"repository_url": "https://api.github.com/repos/o/r", "number": "three"},
            # an issue number is a JSON integer of at least 1
            *(
                {"repository_url": "https://api.github.com/repos/o/r", "number": number}
                for number in (True, "12", 2.9, -3, 0)
            ),
            # owner and repo read as IssueRef.parse reads them
            {"repository_url": ["https://api.github.com/repos/a/b"], "number": 3},
            {"repository_url": "https://api.github.com/repos/../x", "number": 3},
            {"repository_url": "https://api.github.com/repos/a b/c d", "number": 3},
        ],
    )
    def test_search_item_without_a_ref(self, item):
        transport = StubTransport()
        put_search(transport, _query().full() + " state:closed", [item])
        with pytest.raises(TransportError, match="malformed search result item"):
            PlatformClient(transport).search_issues(_query())

    @pytest.mark.parametrize("count", ["many", None, -3, True, "12", 2.9])
    def test_non_numeric_comment_count(self, count):
        transport = StubTransport()
        put_issue(transport, "o", "r", 1)
        transport.put(
            "get_issue", {"owner": "o", "repo": "r", "number": "1"},
            {"number": 1, "title": "t", "body": "", "comments": count},
        )
        with pytest.raises(TransportError, match="comment count"):
            PlatformClient(transport).fetch_issue(IssueRef("o", "r", 1))


    def test_search_items_not_an_array(self):
        transport = StubTransport()
        transport.put(
            "search_issues",
            {"q": _query().full() + " state:closed", "page": "1", "per_page": "100"},
            {"items": 5},
        )
        with pytest.raises(TransportError, match="search_issues"):
            PlatformClient(transport).search_issues(_query())

    def test_unread_issue_fields_of_any_type_are_not_read(self):
        # no factor reads an issue's state or labels, nor a search hit's title
        transport = StubTransport()
        put_issue(transport, "o", "r", 1)
        client = PlatformClient(transport)
        for unread in ({"labels": 3}, {"labels": [{"name": 3}], "state": 7}, {"labels": [5]}):
            transport.put(
                "get_issue", {"owner": "o", "repo": "r", "number": "1"},
                {"number": 1, "title": "t", "body": "b", "comments": 0, **unread},
            )
            assert client.fetch_issue(IssueRef("o", "r", 1)).body == "b"
        put_search(transport, _query().full() + " state:closed", [_item("o", "r", 1, 5)])
        assert client.search_issues(_query()) == [IssueHit(IssueRef("o", "r", 1), 1)]

    def test_pull_head_not_an_object(self):
        transport = StubTransport()
        _put_issue(transport, "o", "r", 1, body="fixed by https://github.com/o/r/pull/9")
        put_pull(transport, "o", "r", 9, [("src/Fix.java", "modified")])
        transport.put("get_pull", {"owner": "o", "repo": "r", "number": "9"}, {"head": "abc"})
        client = PlatformClient(transport)
        with pytest.raises(TransportError, match="get_pull"):
            client.fetch_patch(client.fetch_issue(IssueRef("o", "r", 1)))

    def test_commit_files_not_an_array(self):
        transport = StubTransport()
        _put_issue(transport, "o", "r", 1, body="fixed in a1b2c3d")
        transport.put(
            "get_commit", {"owner": "o", "repo": "r", "sha": "a1b2c3d"},
            {"sha": "a1b2c3d" + "0" * 33, "files": 7},
        )
        client = PlatformClient(transport)
        with pytest.raises(TransportError, match="get_commit"):
            client.fetch_patch(client.fetch_issue(IssueRef("o", "r", 1)))

    def test_patch_text_of_any_type_is_not_read(self):
        transport = StubTransport()
        _put_issue(transport, "o", "r", 1, body="fixed in a1b2c3d")
        transport.put(
            "get_commit", {"owner": "o", "repo": "r", "sha": "a1b2c3d"},
            {"sha": "a1b2c3d" + "0" * 33, "files": [{"filename": "docs/a.md", "patch": 5}]},
        )
        client = PlatformClient(transport)
        patch = client.fetch_patch(client.fetch_issue(IssueRef("o", "r", 1)))
        assert [f.path for f in patch.files] == ["docs/a.md"]

    def test_tree_blob_without_a_path(self):
        transport = StubTransport()
        _put_repo_tree(transport, "o", "r", {})
        transport.put(
            "get_tree", {"owner": "o", "repo": "r", "ref": "main", "recursive": "1"},
            {"sha": "c" * 40, "tree": [{"type": "blob"}]},
        )
        with pytest.raises(TransportError, match="get_tree"):
            PlatformClient(transport).fetch_repo_snapshot("o", "r")


JAVA_FIX = "int n = readUTF(buf); if (n > 65535) { throw tooLong(n); }"


class TestFetchPatch:
    def test_pull_request_patch_with_contents(self):
        transport = StubTransport()
        _put_issue(
            transport, "octo", "demo", 7,
            body="fixed by https://github.com/octo/demo/pull/9",
        )
        put_pull(
            transport, "octo", "demo", 9,
            [("src/Fix.java", "modified"), ("docs/notes.md", "modified")],
        )
        transport.put(
            "get_file_content",
            {"owner": "octo", "repo": "demo", "path": "src/Fix.java", "ref": "f" * 40},
            {"content": _b64(JAVA_FIX), "encoding": "base64"},
        )
        client = PlatformClient(transport)
        patch = client.fetch_patch(client.fetch_issue(IssueRef("octo", "demo", 7)))
        assert patch is not None
        assert patch.ref.kind == "pull"
        assert [f.path for f in patch.files] == ["src/Fix.java", "docs/notes.md"]
        assert patch.files[0].new_content == JAVA_FIX
        assert patch.files[1].new_content is None  # only code files are fetched

    @pytest.mark.parametrize("kind", ["pull", "commit"])
    def test_patch_file_with_a_sha_is_served_from_the_store(self, tmp_path, kind):
        """A pull's or commit's file entry names its blob as a tree entry
        does, so a second fetch of it reads the blob store."""
        transport = StubTransport()
        head = "f" * 40 if kind == "pull" else "a1b2c3d" + "0" * 33
        entry = {"filename": "src/Fix.java", "status": "modified", "sha": blob_sha(JAVA_FIX)}
        if kind == "pull":
            _put_issue(transport, "octo", "demo", 7, body="see https://github.com/octo/demo/pull/9")
            put_pull(transport, "octo", "demo", 9, [])
            transport.put(
                "get_pull_files",
                {"owner": "octo", "repo": "demo", "number": "9", "page": "1", "per_page": "100"},
                [entry],
            )
        else:
            _put_issue(transport, "octo", "demo", 7, body="fixed in a1b2c3d")
            transport.put("get_commit", {"owner": "octo", "repo": "demo", "sha": "a1b2c3d"},
                          {"sha": head, "files": [entry]})
        transport.put(
            "get_file_content",
            {"owner": "octo", "repo": "demo", "path": "src/Fix.java", "ref": head},
            {"content": _b64(JAVA_FIX), "encoding": "base64"},
        )
        contents = []
        for _ in range(2):
            transport.calls.clear()
            client = PlatformClient(transport, cache_dir=tmp_path)
            patch = client.fetch_patch(client.fetch_issue(IssueRef("octo", "demo", 7)))
            assert patch.ref.kind == kind
            assert patch.files[0].new_content == JAVA_FIX
            contents.append(len(_requested(transport)))
        assert contents == [1, 0]
        assert [p.name for p in (tmp_path / "blobs").iterdir()] == [blob_sha(JAVA_FIX)]

    def test_pull_from_a_fork_reads_the_fork_at_its_head(self):
        transport = StubTransport()
        _put_issue(
            transport, "octo", "demo", 7, body="fixed by https://github.com/octo/demo/pull/9"
        )
        put_pull(
            transport, "octo", "demo", 9,
            [("src/Fix.java", "modified"), ("src/Old.java", "removed")],
            head="e" * 40, head_repo="forker/demo-fork",
        )
        fork_content = {
            "owner": "forker", "repo": "demo-fork", "path": "src/Fix.java", "ref": "e" * 40,
        }
        transport.put(
            "get_file_content", fork_content, {"content": _b64(JAVA_FIX), "encoding": "base64"}
        )
        client = PlatformClient(transport)
        patch = client.fetch_patch(client.fetch_issue(IssueRef("octo", "demo", 7)))
        assert [(f.path, f.new_content) for f in patch.files] == [
            ("src/Fix.java", JAVA_FIX),
            ("src/Old.java", None),
        ]
        # the removed file asks for no content at all
        assert [p for e, p in transport.calls if e == "get_file_content"] == [fork_content]

    @pytest.mark.parametrize("head_repo", ["../x", "a", "a/b/c", "o/..", "./r", "a b/c"])
    def test_pull_whose_head_repository_is_no_name_is_skipped(self, caplog, head_repo):
        transport = StubTransport()
        _put_issue(
            transport, "octo", "demo", 7,
            body="fixed by https://github.com/octo/demo/pull/9 and in cafe123",
        )
        put_pull(transport, "octo", "demo", 9, [("src/Fix.java", "modified")], head_repo=head_repo)
        transport.put(
            "get_commit", {"owner": "octo", "repo": "demo", "sha": "cafe123"},
            {
                "sha": "cafe123" + "0" * 33,
                "files": [{"filename": "src/Fix.java", "status": "modified", "patch": "@@"}],
            },
        )
        transport.put(
            "get_file_content",
            {"owner": "octo", "repo": "demo", "path": "src/Fix.java", "ref": "cafe123" + "0" * 33},
            {"content": _b64(JAVA_FIX), "encoding": "base64"},
        )
        client = PlatformClient(transport)
        issue = client.fetch_issue(IssueRef("octo", "demo", 7))
        with caplog.at_level(logging.WARNING, logger="bugnav.corpus.client"):
            patch = client.fetch_patch(issue)
        # the refused pull is skipped like one that is not found
        assert (patch.ref.kind, patch.ref.ref) == ("commit", "cafe123")
        assert patch.files[0].new_content == JAVA_FIX
        contents = [p for e, p in transport.calls if e == "get_file_content"]
        assert [(p["owner"], p["repo"]) for p in contents] == [("octo", "demo")]
        assert not any(e == "get_pull_files" for e, _ in transport.calls)
        assert any(repr(head_repo) in r.getMessage() for r in caplog.records)

    def test_pull_files_over_two_pages_keep_their_order(self):
        transport = StubTransport()
        _put_issue(transport, "octo", "demo", 7, body="fix: https://github.com/octo/demo/pull/9")
        paths = [f"docs/note{n:03}.md" for n in range(150)]
        put_pull(transport, "octo", "demo", 9, [(p, "modified") for p in paths[:100]])
        transport.put(
            "get_pull_files",
            {"owner": "octo", "repo": "demo", "number": "9", "page": "2", "per_page": "100"},
            [{"filename": p, "status": "modified"} for p in paths[100:]],
        )
        client = PlatformClient(transport)
        patch = client.fetch_patch(client.fetch_issue(IssueRef("octo", "demo", 7)))
        assert [f.path for f in patch.files] == paths

    def test_pull_type_issue_is_its_own_patch(self):
        transport = StubTransport()
        transport.put(
            "get_issue", {"owner": "octo", "repo": "demo", "number": "9"},
            {"number": 9, "title": "Fix overflow", "body": "This PR caps the size.",
             "state": "closed", "comments": 0, "labels": [], "pull_request": {"url": "..."}},
        )
        transport.put(
            "list_comments",
            {"owner": "octo", "repo": "demo", "number": "9", "page": "1", "per_page": "100"},
            [],
        )
        put_pull(transport, "octo", "demo", 9, [("src/Fix.java", "modified")])
        transport.put(
            "get_file_content",
            {"owner": "octo", "repo": "demo", "path": "src/Fix.java", "ref": "f" * 40},
            {"content": _b64(JAVA_FIX), "encoding": "base64"},
        )
        client = PlatformClient(transport)
        doc = client.fetch_issue(IssueRef("octo", "demo", 9))
        assert doc.is_pull
        assert doc.patch_refs == []  # nothing linked in the text
        patch = client.fetch_patch(doc)
        assert patch is not None
        assert (patch.ref.kind, patch.ref.ref) == ("pull", "9")
        assert patch.files[0].new_content == JAVA_FIX

    def test_pull_type_issue_self_link_fetched_once(self):
        transport = StubTransport()
        transport.put(
            "get_issue", {"owner": "octo", "repo": "demo", "number": "9"},
            {"number": 9, "title": "Fix overflow",
             "body": "Supersedes https://github.com/octo/demo/pull/9 discussion.",
             "state": "closed", "comments": 0, "labels": [], "pull_request": {"url": "..."}},
        )
        transport.put(
            "list_comments",
            {"owner": "octo", "repo": "demo", "number": "9", "page": "1", "per_page": "100"},
            [],
        )
        put_pull(transport, "octo", "demo", 9, [("src/Fix.java", "modified")])
        transport.put(
            "get_file_content",
            {"owner": "octo", "repo": "demo", "path": "src/Fix.java", "ref": "f" * 40},
            {"content": _b64(JAVA_FIX), "encoding": "base64"},
        )
        client = PlatformClient(transport)
        patch = client.fetch_patch(client.fetch_issue(IssueRef("octo", "demo", 9)))
        assert patch is not None
        assert sum(1 for e, _ in transport.calls if e == "get_pull") == 1

    def test_pull_tried_before_commit(self):
        transport = StubTransport()
        _put_issue(
            transport, "octo", "demo", 8,
            body="see commit a1b2c3d and https://github.com/octo/demo/pull/9",
        )
        put_pull(transport, "octo", "demo", 9, [("src/Fix.java", "modified")])
        transport.put(
            "get_file_content",
            {"owner": "octo", "repo": "demo", "path": "src/Fix.java", "ref": "f" * 40},
            {"content": _b64(JAVA_FIX), "encoding": "base64"},
        )
        client = PlatformClient(transport)
        patch = client.fetch_patch(client.fetch_issue(IssueRef("octo", "demo", 8)))
        assert patch.ref.kind == "pull"
        assert not any(e == "get_commit" for e, _ in transport.calls)

    def test_commit_patch(self):
        transport = StubTransport()
        _put_issue(transport, "octo", "demo", 10, body="fixed in a1b2c3d")
        transport.put(
            "get_commit",
            {"owner": "octo", "repo": "demo", "sha": "a1b2c3d"},
            {
                "sha": "a1b2c3d" + "0" * 33,
                "files": [{"filename": "src/Fix.java", "status": "modified", "patch": "@@"}],
            },
        )
        transport.put(
            "get_file_content",
            {
                "owner": "octo", "repo": "demo", "path": "src/Fix.java",
                "ref": "a1b2c3d" + "0" * 33,
            },
            {"content": _b64(JAVA_FIX), "encoding": "base64"},
        )
        client = PlatformClient(transport)
        patch = client.fetch_patch(client.fetch_issue(IssueRef("octo", "demo", 10)))
        assert patch.ref.kind == "commit"
        assert patch.files[0].new_content == JAVA_FIX

    def test_unresolvable_ref_skipped_with_warning(self, caplog):
        transport = StubTransport()
        _put_issue(transport, "octo", "demo", 11, body="fixed in deadbee then in cafe123")
        transport.put(
            "get_commit", {"owner": "octo", "repo": "demo", "sha": "deadbee"},
            {"message": "Not Found"}, status=404,
        )
        transport.put(
            "get_commit", {"owner": "octo", "repo": "demo", "sha": "cafe123"},
            {
                "sha": "cafe123" + "0" * 33,
                "files": [{"filename": "src/Fix.java", "status": "modified", "patch": "@@"}],
            },
        )
        transport.put(
            "get_file_content",
            {"owner": "octo", "repo": "demo", "path": "src/Fix.java", "ref": "cafe123" + "0" * 33},
            {"content": _b64(JAVA_FIX), "encoding": "base64"},
        )
        client = PlatformClient(transport)
        issue = client.fetch_issue(IssueRef("octo", "demo", 11))
        with caplog.at_level(logging.WARNING):
            patch = client.fetch_patch(issue)
        assert patch.ref.ref == "cafe123"
        assert any("deadbee" in r.getMessage() for r in caplog.records)

    def test_nothing_resolves_returns_none(self, caplog):
        transport = StubTransport()
        _put_issue(transport, "octo", "demo", 12, body="fixed in deadbee")
        transport.put(
            "get_commit", {"owner": "octo", "repo": "demo", "sha": "deadbee"},
            {"message": "Not Found"}, status=404,
        )
        client = PlatformClient(transport)
        issue = client.fetch_issue(IssueRef("octo", "demo", 12))
        with caplog.at_level(logging.WARNING):
            assert client.fetch_patch(issue) is None

    def test_no_refs_returns_none_without_requests(self):
        transport = StubTransport()
        _put_issue(transport, "octo", "demo", 13, body="no pointers here")
        client = PlatformClient(transport)
        issue = client.fetch_issue(IssueRef("octo", "demo", 13))
        before = len(transport.calls)
        assert client.fetch_patch(issue) is None
        assert len(transport.calls) == before

    def test_empty_file_list_tries_next_ref(self):
        transport = StubTransport()
        _put_issue(transport, "octo", "demo", 14, body="see deadbee and cafe123")
        transport.put(
            "get_commit", {"owner": "octo", "repo": "demo", "sha": "deadbee"},
            {"sha": "deadbee" + "0" * 33, "files": []},
        )
        transport.put(
            "get_commit", {"owner": "octo", "repo": "demo", "sha": "cafe123"},
            {
                "sha": "cafe123" + "0" * 33,
                "files": [{"filename": "src/Fix.java", "status": "modified", "patch": "@@"}],
            },
        )
        transport.put(
            "get_file_content",
            {"owner": "octo", "repo": "demo", "path": "src/Fix.java", "ref": "cafe123" + "0" * 33},
            {"content": _b64(JAVA_FIX), "encoding": "base64"},
        )
        client = PlatformClient(transport)
        patch = client.fetch_patch(client.fetch_issue(IssueRef("octo", "demo", 14)))
        assert patch.ref.ref == "cafe123"


class TestMatchGlob:
    """The cases of the path globs the snapshot used to be fetched by.
    ``file_kind`` gives each path the kind its glob stood for, or None
    where the glob did not match. The one verdict that flips on purpose
    is a layout nested below ``res/layout/``, which no extractor read."""

    GLOB_KINDS = {
        "**/*.java": "java",
        "**/pom.xml": "pom",
        "**/build.gradle*": "gradle",
        "**/AndroidManifest.xml": "manifest",
        "**/res/layout/**/*.xml": "layout",
    }
    CASES = [
        ("src/main/A.java", "**/*.java", True),
        ("A.java", "**/*.java", True),
        ("pom.xml", "**/pom.xml", True),
        ("modules/core/pom.xml", "**/pom.xml", True),
        ("build.gradle", "**/build.gradle*", True),
        ("app/build.gradle.kts", "**/build.gradle*", True),
        ("AndroidManifest.xml", "**/AndroidManifest.xml", True),
        ("res/layout/main.xml", "**/res/layout/**/*.xml", True),
        ("app/src/main/res/layout/sub/row.xml", "**/res/layout/**/*.xml", False),
        ("res/values/strings.xml", "**/res/layout/**/*.xml", False),
        ("src/Ajava", "**/*.java", False),
        ("src/A.kt", "**/*.java", False),
    ]

    @pytest.mark.parametrize("path,pattern,want", CASES)
    def test_cases(self, path, pattern, want):
        assert file_kind(path) == (self.GLOB_KINDS[pattern] if want else None)


_KIND_ORDER = ("java", "pom", "gradle", "manifest", "layout")
_DIRS = ["res", "src", "app", "", "res-x"]
_PARENTS = ["layout", "layout-land", "layouts", "values", "res", "sub"]
_NAMES = [
    "main.xml", "x.XML", "pom.xml", "build.gradle", "build.gradle.kts", "build.gradle.bak",
    "AndroidManifest.xml", "A.java", ".java", "A.kt", "Ajava",
]


class TestFileKind:
    @pytest.mark.parametrize("path,kind", [
        ("res/layout-land/main.xml", "layout"),
        ("app/src/main/res/layout-sw600dp/main.xml", "layout"),
        ("res/layout/sub/row.xml", None),
        ("layout/main.xml", None),
        ("res/layout/main.txt", None),
        ("build.gradle.bak", None),
        ("app/build.gradle.kts", "gradle"),
        ("res/layout/pom.xml", "pom"),
        ("res/layout/AndroidManifest.xml", "manifest"),
        ("README.md", None),
    ])
    def test_cases(self, path, kind):
        assert file_kind(path) == kind

    @settings(max_examples=500, deadline=None)
    @given(
        st.lists(st.sampled_from(_DIRS), max_size=3),
        st.lists(st.sampled_from(_PARENTS), max_size=2),
        st.sampled_from(_NAMES),
    )
    def test_agrees_with_the_extractors_predicates(self, dirs, parents, name):
        """A path gets a kind exactly when some extractor read it, and that
        kind; a name kind wins over a layout directory."""
        path = "/".join(dirs + parents + [name])
        kinds = file_kinds_reference(path)
        assert file_kind(path) == next((k for k in _KIND_ORDER if k in kinds), None)


def _put_repo_tree(transport, owner, repo, files, head="c" * 40, branch="main", shas=None):
    """Repo metadata and a tree of ``files`` ({path: text}) beside a
    directory entry; each blob entry carries ``shas[path]`` when given,
    else the blob sha of its text (a None value leaves it out)."""
    shas = dict({path: blob_sha(text) for path, text in files.items()}, **(shas or {}))
    transport.put("get_repo", {"owner": owner, "repo": repo}, {"default_branch": branch})
    blobs = [{"path": p, "type": "blob", "sha": shas[p]} for p in files]
    transport.put(
        "get_tree",
        {"owner": owner, "repo": repo, "ref": branch, "recursive": "1"},
        {"sha": head,
         "tree": [{k: v for k, v in e.items() if v is not None} for e in blobs]
         + [{"path": "src", "type": "tree"}]},
    )


def _requested(transport):
    """The paths of the content requests made so far, in order."""
    return [params["path"] for endpoint, params in transport.calls
            if endpoint == "get_file_content"]


def test_blob_sha_is_the_name_git_gives(tmp_path):
    """The store keeps a file under the name ``git hash-object`` gives it."""
    hello = "ce013625030ba8dba906f756967f9e9ca394464a"
    assert blob_sha("hello\n") == hello
    assert blob_sha("") == "e69de29bb2d1d6434b8b29ae775ad8c2e48c5391"
    transport = StubTransport()
    _put_repo_tree(transport, "o", "r", {"A.java": "hello\n"})
    transport.put(
        "get_file_content", {"owner": "o", "repo": "r", "path": "A.java", "ref": "c" * 40},
        {"content": _b64("hello\n"), "encoding": "base64"},
    )
    PlatformClient(transport, cache_dir=tmp_path).fetch_repo_snapshot("o", "r")
    assert (tmp_path / "blobs" / hello).read_bytes() == b"hello\n"


class TestFetchRepoSnapshot:
    FILES = {
        "src/A.java": "class A {}",
        "src/B.java": "class B {}",
        "util/C.java": "class C {}",
        "pom.xml": "<project/>",
        "README.md": "# readme",
    }

    def _script(self, transport, head="c" * 40, files=None, shas=None):
        files = dict(self.FILES, **(files or {}))
        _put_repo_tree(transport, "octo", "demo", files, head=head, shas=shas)
        for p, content in files.items():
            transport.put(
                "get_file_content",
                {"owner": "octo", "repo": "demo", "path": p, "ref": head},
                {"content": _b64(content), "encoding": "base64"},
            )
        return files

    def test_default_globs_select_code_and_manifests(self):
        transport = StubTransport()
        self._script(transport)
        snap = PlatformClient(transport).fetch_repo_snapshot("octo", "demo")
        assert sorted(snap.files) == ["pom.xml", "src/A.java", "src/B.java", "util/C.java"]
        assert snap.files["pom.xml"] == "<project/>"
        # contents are read at the tree's sha, not at the branch name
        refs = {params["ref"] for endpoint, params in transport.calls
                if endpoint == "get_file_content"}
        assert refs == {"c" * 40}

    def test_only_files_with_a_kind_are_requested(self):
        transport = StubTransport()
        layout = (
            '<LinearLayout xmlns:android="http://schemas.android.com/apk/res/android">'
            '<Button android:id="@+id/land_btn"/></LinearLayout>'
        )
        put_repo_tree(transport, "octo", "demo", {
            "app/src/main/res/layout-land/main.xml": layout,
            "app/src/main/res/layout/sub/row.xml": layout.replace("land", "row"),
            "app/build.gradle.bak": "implementation 'a:b:1'",
        })
        snap = PlatformClient(transport).fetch_repo_snapshot("octo", "demo")
        assert list(snap.files) == ["app/src/main/res/layout-land/main.xml"]
        assert "land_btn" in build_repo_context(snap).ui_elements
        assert _requested(transport) == ["app/src/main/res/layout-land/main.xml"]

    def test_kinds_select_the_files_requested(self):
        transport = StubTransport()
        self._script(transport)
        snap = PlatformClient(transport).fetch_repo_snapshot("octo", "demo", CONTEXT_KINDS)
        assert list(snap.files) == ["pom.xml"]
        assert _requested(transport) == ["pom.xml"]

    @pytest.mark.parametrize(
        "first, then",
        [(CONTEXT_KINDS, FILE_KINDS), (FILE_KINDS, CONTEXT_KINDS)],
        ids=["candidate-then-driver", "driver-then-candidate"],
    )
    def test_one_store_serves_snapshots_of_any_kinds(self, tmp_path, first, then):
        """A blob is the same blob whatever kinds a snapshot asks for: a
        candidate's snapshot leaves the driver's only its Java to fetch."""
        transport = StubTransport()
        paths = self._script(transport)
        PlatformClient(transport, cache_dir=tmp_path).fetch_repo_snapshot("octo", "demo", first)
        expected = sorted(path for path in paths if file_kind(path) in then)
        for again in (False, True):
            transport.calls.clear()
            client = PlatformClient(transport, cache_dir=tmp_path)
            snap = client.fetch_repo_snapshot("octo", "demo", then)
            assert sorted(snap.files) == expected
            missing = [path for path in expected if file_kind(path) not in first]
            assert sorted(_requested(transport)) == ([] if again else missing)
        if first == CONTEXT_KINDS:
            assert missing == ["src/A.java", "src/B.java", "util/C.java"]
        assert sorted(p.name for p in (tmp_path / "blobs").iterdir()) == sorted(
            blob_sha(paths[path]) for path in paths if file_kind(path)
        )

    def test_moved_head_refetches_only_the_changed_file(self, tmp_path):
        transport = StubTransport()
        self._script(transport, head="c" * 40)
        first = PlatformClient(transport, cache_dir=tmp_path).fetch_repo_snapshot("octo", "demo")
        self._script(transport, head="d" * 40, files={"src/B.java": "class B { int b; }"})
        transport.calls.clear()
        second = PlatformClient(transport, cache_dir=tmp_path).fetch_repo_snapshot("octo", "demo")
        assert _requested(transport) == ["src/B.java"]
        assert second.files == dict(first.files, **{"src/B.java": "class B { int b; }"})

    @pytest.mark.parametrize("entry_sha", [True, False], ids=["blob-sha", "no-blob-sha"])
    def test_moved_branch_of_a_tree_without_sha_is_read_anew(self, tmp_path, entry_sha):
        """A tree reply without its own sha names no head; the second run
        on one cache still sees the text the branch now holds."""
        texts, requested = [], []
        for text in ("<project>v1</project>", "<project>v2</project>"):
            transport = StubTransport()
            files = {"pom.xml": text}
            _put_repo_tree(transport, "octo", "demo", files,
                           shas=None if entry_sha else {"pom.xml": None})
            tree_key = next(key for key in transport.responses if key[0] == "get_tree")
            del transport.responses[tree_key][1]["sha"]
            transport.put(
                "get_file_content",
                {"owner": "octo", "repo": "demo", "path": "pom.xml", "ref": "main"},
                {"content": _b64(text), "encoding": "base64"},
            )
            client = PlatformClient(transport, cache_dir=tmp_path)
            texts.append(client.fetch_repo_snapshot("octo", "demo").files["pom.xml"])
            requested += _requested(transport)
        assert texts == ["<project>v1</project>", "<project>v2</project>"]
        assert requested == ["pom.xml", "pom.xml"]

    def test_cache_file_of_an_earlier_version_is_a_miss(self, tmp_path):
        """Whole-snapshot files of earlier versions are never read, nor
        removed: every file is fetched and stored as a blob."""
        transport = StubTransport()
        files = self._script(transport)
        stale = {}
        for key in (
            {"owner": "octo", "repo": "demo", "head": "c" * 40},
            {"owner": "octo", "repo": "demo", "head": "c" * 40,
             "kinds": ",".join(sorted(FILE_KINDS))},
        ):
            path = tmp_path / f"{canonical_key('snapshot', key)}.json"
            path.write_text(json.dumps({"pom.xml": "old", "files": {"pom.xml": "old"}}))
            stale[path] = path.read_text()
        snap = PlatformClient(transport, cache_dir=tmp_path).fetch_repo_snapshot("octo", "demo")
        assert snap.files["pom.xml"] == "<project/>"
        assert sorted(_requested(transport)) == sorted(snap.files)
        assert {path: path.read_text() for path in stale} == stale
        assert len(list((tmp_path / "blobs").iterdir())) == len(snap.files)
        assert snap.files == {p: t for p, t in files.items() if file_kind(p)}

    def test_second_fetch_served_from_cache(self, tmp_path):
        transport = StubTransport()
        self._script(transport)
        client = PlatformClient(transport, cache_dir=tmp_path)
        first = client.fetch_repo_snapshot("octo", "demo")
        # one file per blob, named by its sha and holding its bytes
        assert sorted(tmp_path.iterdir()) == [tmp_path / "blobs"]
        stored = {p.name: p.read_bytes() for p in (tmp_path / "blobs").iterdir()}
        assert stored == {blob_sha(text): text.encode() for text in first.files.values()}
        calls_after_first = len(transport.calls)
        second = client.fetch_repo_snapshot("octo", "demo")
        assert second == first
        # only the head lookup (repo + tree) repeats; contents come from disk
        assert len(transport.calls) == calls_after_first + 2

    @pytest.mark.parametrize(
        "sha",
        ["x/../../../escaped", "c" * 300, None, 5, "C" * 40, "c" * 39, "c" * 40 + "\n", "../x"],
        ids=["dots", "long", "missing", "number", "upper", "short", "newline", "parent"],
    )
    def test_cache_file_stays_in_the_cache_dir(self, tmp_path, caplog, sha):
        """An entry whose sha is no blob name is fetched uncached, on every
        fetch: no file is looked up by it, not even one planted under that
        name, and nothing is written anywhere."""
        transport = StubTransport()
        self._script(transport, shas={"src/A.java": sha})
        # deep enough that a "../" in the name stays inside tmp_path
        cache = tmp_path / "a" / "b" / "cache"
        (cache / "blobs").mkdir(parents=True)
        planted = []
        if isinstance(sha, str):
            try:
                (cache / "blobs" / sha).write_text("class A { planted }")
                planted.append(
                    (cache / "blobs" / sha).resolve().relative_to(tmp_path.resolve()).as_posix()
                )
            except OSError:
                pass  # too long, or under a directory that does not exist
        client = PlatformClient(transport, cache_dir=cache)
        with caplog.at_level(logging.WARNING, logger="bugnav.corpus.client"):
            first = client.fetch_repo_snapshot("octo", "demo")
            transport.calls.clear()
            assert client.fetch_repo_snapshot("octo", "demo") == first
        assert first.files["src/A.java"] == "class A {}"
        assert _requested(transport) == ["src/A.java"]
        assert caplog.records == []
        written = sorted(p.relative_to(tmp_path).as_posix()
                         for p in tmp_path.rglob("*") if p.is_file())
        assert written == sorted(planted + [
            f"a/b/cache/blobs/{blob_sha(text)}"
            for path, text in first.files.items() if path != "src/A.java"
        ])

    def _damage_a_blob(self, tmp_path, transport, damage, caplog):
        """Fetch, write ``damage`` over src/A.java's blob, fetch again; the
        second fetch's requests and warnings, and the blob's bytes after."""
        client = PlatformClient(transport, cache_dir=tmp_path)
        first = client.fetch_repo_snapshot("octo", "demo")
        blob = tmp_path / "blobs" / blob_sha("class A {}")
        blob.write_bytes(damage(blob.read_bytes()))
        transport.calls.clear()
        with caplog.at_level(logging.WARNING, logger="bugnav.corpus.client"):
            assert client.fetch_repo_snapshot("octo", "demo") == first
        warned = [r.getMessage() for r in caplog.records if "file cache" in r.getMessage()]
        return _requested(transport), warned, blob.read_bytes()

    def test_truncated_cache_file_is_refetched(self, tmp_path, caplog):
        transport = StubTransport()
        self._script(transport)
        requested, warned, after = self._damage_a_blob(
            tmp_path, transport, lambda data: data[: len(data) // 2], caplog
        )
        assert requested == ["src/A.java"]
        assert len(warned) == 1 and blob_sha("class A {}") in warned[0]
        assert after == b"class A {}"

    @pytest.mark.parametrize("damage", [
        lambda data: data.replace(b"A", b"Z"),
        lambda data: json.dumps({"src/A.java": data.decode()}).encode(),
        lambda data: b"class A { int moved; }",
        lambda data: b"[]",
        lambda data: b"[" * 100_000,
    ], ids=["content", "files", "head", "array", "deep"])
    def test_malformed_cache_file_is_refetched(self, tmp_path, caplog, damage):
        """A blob whose bytes are not its name's: one byte changed, the old
        snapshot JSON, the file's text at another head, JSON of any shape."""
        transport = StubTransport()
        self._script(transport)
        requested, warned, after = self._damage_a_blob(tmp_path, transport, damage, caplog)
        assert requested == ["src/A.java"]
        assert len(warned) == 1 and "damaged" in warned[0]
        assert after == b"class A {}"

    def test_bytes_that_are_not_the_blob_are_returned_not_stored(self, tmp_path):
        transport = StubTransport()
        self._script(transport, shas={"src/A.java": blob_sha("class A { other }")})
        for again in (False, True):
            transport.calls.clear()
            snap = PlatformClient(transport, cache_dir=tmp_path).fetch_repo_snapshot("octo", "demo")
            assert snap.files["src/A.java"] == "class A {}"
            assert _requested(transport) == (["src/A.java"] if again else sorted(snap.files))
        assert not (tmp_path / "blobs" / blob_sha("class A { other }")).exists()
        assert not (tmp_path / "blobs" / blob_sha("class A {}")).exists()

    @pytest.mark.parametrize("reply", [
        {"content": "", "encoding": "none"},
        {"content": "class A \ud800 {}"},
        {"content": "class A {}"},
    ], ids=["over-a-megabyte", "lone-surrogate", "plain-text"])
    def test_content_that_is_not_base64_is_returned_not_stored(self, tmp_path, reply):
        """The platform answers a file over 1 MB with no bytes; text that is
        not base64 is passed on as it is."""
        transport = StubTransport()
        self._script(transport)
        transport.put(
            "get_file_content",
            {"owner": "octo", "repo": "demo", "path": "src/A.java", "ref": "c" * 40}, reply,
        )
        for again in (False, True):
            transport.calls.clear()
            snap = PlatformClient(transport, cache_dir=tmp_path).fetch_repo_snapshot("octo", "demo")
            assert snap.files["src/A.java"] == reply["content"]
            assert _requested(transport) == (["src/A.java"] if again else sorted(snap.files))
        assert not (tmp_path / "blobs" / blob_sha("class A {}")).exists()

    @pytest.mark.parametrize("name", ["a-file", "nul\x00byte"])
    def test_unwritable_cache_dir_warns_and_fetches(self, tmp_path, caplog, name):
        transport = StubTransport()
        self._script(transport)
        (tmp_path / "a-file").write_text("")
        expected = PlatformClient(transport).fetch_repo_snapshot("octo", "demo")
        client = PlatformClient(transport, cache_dir=tmp_path / name)
        with caplog.at_level(logging.WARNING, logger="bugnav.corpus.client"):
            assert client.fetch_repo_snapshot("octo", "demo") == expected
        assert any("cannot write file cache" in r.getMessage() for r in caplog.records)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["a-file"]

    def test_concurrent_fetches_share_cache_safely(self, tmp_path):
        transport = StubTransport()
        self._script(transport)
        expected = PlatformClient(transport).fetch_repo_snapshot("octo", "demo")
        n_threads, rounds = 8, 25
        barrier = threading.Barrier(n_threads, timeout=30)
        results, errors = [], []

        def fetch():
            # each round starts on an empty cache, so threads write the
            # same files while others read them
            try:
                for k in range(rounds):
                    client = PlatformClient(transport, cache_dir=tmp_path / str(k))
                    barrier.wait()
                    results.append(client.fetch_repo_snapshot("octo", "demo"))
                    results.append(client.fetch_repo_snapshot("octo", "demo"))
            except Exception as exc:  # reported by the assertions below
                errors.append(exc)
                barrier.abort()

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=fetch) for _ in range(n_threads)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert errors == []
        assert len(results) == 2 * n_threads * rounds
        assert all(r == expected for r in results)
        # every round's store holds each blob once, and no temp file
        blobs = sorted(blob_sha(text) for text in expected.files.values())
        for d in tmp_path.iterdir():
            assert sorted(p.relative_to(d).as_posix() for p in d.rglob("*") if p.is_file()) == [
                f"blobs/{sha}" for sha in blobs
            ]

    # only a JSON true says the tree is truncated
    @pytest.mark.parametrize("truncated", [True, False, "no", "false", 1])
    def test_truncated_tree_warns_once(self, caplog, truncated):
        transport = StubTransport()
        self._script(transport)
        transport.put(
            "get_tree", {"owner": "octo", "repo": "demo", "ref": "main", "recursive": "1"},
            {"sha": "c" * 40, "truncated": truncated,
             "tree": [{"path": "src/A.java", "type": "blob"}]},
        )
        with caplog.at_level(logging.WARNING, logger="bugnav.corpus.client"):
            snap = PlatformClient(transport).fetch_repo_snapshot("octo", "demo")
        assert list(snap.files) == ["src/A.java"]
        warned = [r for r in caplog.records if "truncated" in r.getMessage()]
        assert len(warned) == (1 if truncated is True else 0)
        assert all("octo/demo" in r.getMessage() for r in warned)

    def test_missing_repo_raises(self):
        transport = StubTransport()
        transport.put("get_repo", {"owner": "octo", "repo": "gone"}, {"message": "Not Found"}, status=404)
        with pytest.raises(NotFoundError):
            PlatformClient(transport).fetch_repo_snapshot("octo", "gone")


def _put_phrase_search(transport, phrase, items):
    transport.put(
        "search_issues",
        {"q": f'"{phrase}" in:body,comments', "page": "1", "per_page": "100"},
        {"total_count": len(items), "items": items},
    )


class TestMineSimilarPairs:
    def test_cross_repo_pairs_mined(self):
        transport = StubTransport()
        _put_phrase_search(
            transport, "similar bug",
            [_item("alpha", "one", 1, "a"), _item("beta", "two", 2, "b")],
        )
        _put_phrase_search(transport, "similar problem", [_item("alpha", "one", 1, "a")])
        _put_issue(
            transport, "alpha", "one", 1,
            body="similar bug to https://github.com/gamma/three/issues/30",
        )
        _put_issue(
            transport, "beta", "two", 2,
            body="similar bug here",
            comments=["dup of https://github.com/beta/two/issues/5"],
        )
        pairs = mine_similar_pairs(PlatformClient(transport))
        # beta/two only links its own repo; alpha/one appears under both
        # phrases but yields one pair
        assert pairs == [(IssueRef("alpha", "one", 1), IssueRef("gamma", "three", 30))]

    def test_same_n_different_d_kept(self):
        transport = StubTransport()
        _put_phrase_search(
            transport, "similar bug",
            [_item("alpha", "one", 1, "a"), _item("delta", "four", 4, "d")],
        )
        _put_phrase_search(transport, "similar problem", [])
        target = "https://github.com/gamma/three/issues/30"
        _put_issue(transport, "alpha", "one", 1, body=f"similar bug: {target}")
        _put_issue(transport, "delta", "four", 4, body=f"similar bug: {target}")
        pairs = mine_similar_pairs(PlatformClient(transport))
        assert len(pairs) == 2
        assert {str(d) for d, _ in pairs} == {"alpha/one#1", "delta/four#4"}

    def test_per_keyword_cap_limits_fetches(self):
        transport = StubTransport()
        _put_phrase_search(
            transport, "similar bug",
            [_item("alpha", "one", 1, "a"), _item("beta", "two", 2, "b")],
        )
        _put_phrase_search(transport, "similar problem", [])
        _put_issue(
            transport, "alpha", "one", 1,
            body="similar bug to https://github.com/gamma/three/issues/30",
        )
        pairs = mine_similar_pairs(PlatformClient(transport), per_keyword_cap=1)
        assert pairs == [(IssueRef("alpha", "one", 1), IssueRef("gamma", "three", 30))]
        assert not any(
            e == "get_issue" and p.get("owner") == "beta" for e, p in transport.calls
        )

    def test_cap_validated(self):
        with pytest.raises(ValidationError):
            mine_similar_pairs(PlatformClient(StubTransport()), per_keyword_cap=1001)

    def test_no_same_project_pair_ever(self):
        transport = StubTransport()
        _put_phrase_search(transport, "similar bug", [_item("o", "r", n, "t") for n in (1, 2)])
        _put_phrase_search(transport, "similar problem", [])
        _put_issue(transport, "o", "r", 1, body="see https://github.com/o/r/issues/2")
        _put_issue(transport, "o", "r", 2, body="see https://github.com/o/R/pull/3")
        pairs = mine_similar_pairs(PlatformClient(transport))
        assert pairs == []

    def test_links_that_are_no_issue_reference_are_skipped(self):
        transport = StubTransport()
        _put_phrase_search(transport, "similar bug", [_item("o", "r", n, "t") for n in (1, 2)])
        _put_phrase_search(transport, "similar problem", [])
        _put_issue(transport, "o", "r", 1, body=(
            "similar bug: https://github.com/x/y/issues/007, https://github.com/x/y/issues/0,"
            " https://github.com/../y/issues/4, then https://github.com/x/y/issues/7"
        ))
        _put_issue(transport, "o", "r", 2, body="similar bug: https://github.com/x/y/issues/00")
        pairs = mine_similar_pairs(PlatformClient(transport))
        assert pairs == [(IssueRef("o", "r", 1), IssueRef("x", "y", 7))]
