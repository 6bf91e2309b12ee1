"""Scripted transports and payload builders shared by the offline tests."""

import base64
import hashlib
import json


class StubTransport:
    """Dict-backed transport; every request must have been scripted."""

    def __init__(self):
        self.responses = {}
        self.calls = []

    def put(self, endpoint, params, payload, status=200):
        self.responses[(endpoint, json.dumps(params, sort_keys=True))] = (status, payload)

    def fetch_raw(self, endpoint, params):
        self.calls.append((endpoint, dict(params)))
        key = (endpoint, json.dumps(params, sort_keys=True))
        if key not in self.responses:
            raise AssertionError(f"unscripted request: {endpoint} {params}")
        return self.responses[key]


class FixtureScripter:
    """Same put() surface, but writing into a FixtureStore for replay."""

    def __init__(self, store):
        self.store = store

    def put(self, endpoint, params, payload, status=200):
        self.store.record(endpoint, params, status, payload)


def b64(text):
    return base64.b64encode(text.encode()).decode()


def blob_sha(data):
    """The name git gives a file of these bytes (or this UTF-8 text)."""
    if isinstance(data, str):
        data = data.encode()
    return hashlib.sha1(b"blob %d\0" % len(data) + data).hexdigest()


def item(owner, repo, number, title, pull=False):
    entry = {
        "number": number,
        "title": title,
        "repository_url": f"https://api.github.com/repos/{owner}/{repo}",
    }
    if pull:
        entry["pull_request"] = {"url": "..."}
    return entry


def put_search(target, q, items):
    pages = [items[i : i + 100] for i in range(0, len(items), 100)] or [[]]
    for page_no, page in enumerate(pages, start=1):
        target.put(
            "search_issues",
            {"q": q, "page": str(page_no), "per_page": "100"},
            {"total_count": len(items), "items": page},
        )


def put_issue(target, owner, repo, number, *, title="t", body="", state="closed",
              comments=(), labels=(), pull=False):
    payload = {
        "number": number,
        "title": title,
        "body": body,
        "state": state,
        "comments": len(comments),
        "labels": [{"name": name} for name in labels],
    }
    if pull:
        payload["pull_request"] = {"url": "..."}
    target.put(
        "get_issue",
        {"owner": owner, "repo": repo, "number": str(number)},
        payload,
    )
    target.put(
        "list_comments",
        {"owner": owner, "repo": repo, "number": str(number), "page": "1", "per_page": "100"},
        [{"body": c} for c in comments],
    )


def put_pull(target, owner, repo, number, files, head="f" * 40, head_repo=None):
    head_repo = head_repo or f"{owner}/{repo}"
    target.put(
        "get_pull",
        {"owner": owner, "repo": repo, "number": str(number)},
        {"number": number, "head": {"sha": head, "repo": {"full_name": head_repo}}},
    )
    target.put(
        "get_pull_files",
        {"owner": owner, "repo": repo, "number": str(number), "page": "1", "per_page": "100"},
        [{"filename": p, "status": s, "patch": "@@ -1 +1 @@"} for p, s in files],
    )


def put_file(target, owner, repo, path, ref, content):
    target.put(
        "get_file_content",
        {"owner": owner, "repo": repo, "path": path, "ref": ref},
        {"content": b64(content), "encoding": "base64"},
    )


def put_repo_tree(target, owner, repo, files, head="c" * 40, branch="main"):
    """Script repo metadata, tree, and file contents in one go; each tree
    entry carries its blob sha, as the platform's do."""
    target.put("get_repo", {"owner": owner, "repo": repo}, {"default_branch": branch})
    target.put(
        "get_tree",
        {"owner": owner, "repo": repo, "ref": branch, "recursive": "1"},
        {
            "sha": head,
            "tree": [{"path": p, "type": "blob", "sha": blob_sha(text)}
                     for p, text in files.items()],
        },
    )
    for path, content in files.items():
        put_file(target, owner, repo, path, head, content)


TRACE_BODY = """\
Serialization fails once the values pass a certain size:

java.io.UTFDataFormatException: encoded string too long: 93067 bytes
    at java.io.DataOutputStream.writeUTF(DataOutputStream.java:364)
"""

_JAVA = """\
public class Main {
    public int size(byte[] data) {
        if (data == null) {
            return 0;
        }
        return data.length;
    }
}
"""

_POM = (
    "<project><dependencies><dependency><groupId>com.typesafe</groupId>"
    "<artifactId>config</artifactId></dependency></dependencies></project>"
)

SHARED_QUERY = (
    "UTFDataFormatException encoded string too long in:body,comments"
    " language:java state:closed"
)

# in platform order; acme/gone has no snapshot, octo/driver is the driver's own
SHARED_CANDIDATES = [
    ("acme", "alpha", 11), ("acme", "beta", 21), ("acme", "gone", 31), ("acme", "alpha", 12),
    ("octo", "driver", 8), ("acme", "beta", 22), ("acme", "gone", 32),
]


def put_shared_repos(target):
    """Driver octo/driver#7 and seven candidates from four repositories.

    Java sits in the driver's repository, in acme/alpha and in the patch
    of acme/alpha#11, which is the same code as the driver's."""
    put_issue(target, "octo", "driver", 7, title="UTFDataFormatException on large objects",
              body=TRACE_BODY, state="open")
    put_repo_tree(target, "octo", "driver", {"pom.xml": _POM, "src/Main.java": _JAVA})
    put_search(target, SHARED_QUERY, [item(o, r, n, f"{r} bug") for o, r, n in SHARED_CANDIDATES])
    for owner, repo, number in SHARED_CANDIDATES:
        comments = ["Fixed by https://github.com/acme/alpha/pull/9"] if number == 11 else []
        put_issue(target, owner, repo, number, title=f"{repo} bug",
                  body="Steps to reproduce the error are below.", comments=comments)
    put_repo_tree(target, "acme", "alpha", {"pom.xml": _POM, "src/A.java": _JAVA})
    put_repo_tree(target, "acme", "beta",
                  {"build.gradle": "implementation 'com.typesafe:config:1.3.0'\n"})
    target.put("get_repo", {"owner": "acme", "repo": "gone"}, {"message": "Not Found"}, status=404)
    put_pull(target, "acme", "alpha", 9, [("src/Fix.java", "modified")])
    put_file(target, "acme", "alpha", "src/Fix.java", "f" * 40, _JAVA)
