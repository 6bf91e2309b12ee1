"""High-level platform operations over any transport.

Everything here is transport-agnostic: point it at a live transport
for real runs, at a replay transport for tests and demos.
"""

from __future__ import annotations

import base64
import functools
import hashlib
import json
import logging
import os
import re
import tempfile
from pathlib import Path
from typing import Dict, List, Optional, Sequence

from ..errors import NotFoundError, TransportError, ValidationError
from .models import (
    MAX_QUERY_LEN,
    IssueDocument,
    IssueHit,
    IssueRef,
    ModifiedFile,
    Patch,
    PatchRef,
    RepoSnapshot,
    SearchQuery,
    find_patch_refs,
)
from .transport import perform

log = logging.getLogger(__name__)

DEFAULT_SNAPSHOT_GLOBS = (
    "**/*.java",
    "**/pom.xml",
    "**/build.gradle*",
    "**/AndroidManifest.xml",
    "**/res/layout/**/*.xml",
)

SEARCH_RESULT_LIMIT = 1000
_PAGE_SIZE = 100
# the paged endpoints whose payload is an array of objects; every other
# endpoint answers with one object
_ARRAY_ENDPOINTS = frozenset({"list_comments", "get_pull_files"})
_REQUIRED = object()


def _objects(value, where: str) -> list:
    """``value`` if it is an array of objects, as every array in a reply is."""
    if not (isinstance(value, list) and all(isinstance(e, dict) for e in value)):
        raise TransportError(f"{where}: expected an array of objects, not {value!r:.80}")
    return value


def _field(payload: dict, key: str, expected: type, where: str, default=_REQUIRED):
    """``payload[key]``, or ``default`` when it is absent or null. A value of
    another type, or a required one that is missing, is a malformed reply."""
    value = payload.get(key)
    if value is None:
        if default is _REQUIRED:
            raise TransportError(f"{where}: {key!r} is missing")
        return default
    if expected is list:
        return _objects(value, f"{where} {key!r}")
    if not isinstance(value, expected):
        raise TransportError(
            f"{where}: {key!r} should be a {expected.__name__}, not {type(value).__name__}"
        )
    return value


@functools.lru_cache(maxsize=256)
def _glob_regex(pattern: str):
    """Compile a path glob where `**` spans zero or more whole segments
    and `*` never crosses a slash."""
    pieces = []
    for segment in pattern.split("/"):
        if segment == "**":
            pieces.append("**")
        else:
            pieces.append(
                "".join(
                    "[^/]*" if ch == "*" else "[^/]" if ch == "?" else re.escape(ch)
                    for ch in segment
                )
            )
    regex = ""
    for i, piece in enumerate(pieces):
        last = i == len(pieces) - 1
        if piece == "**":
            regex += ".*" if last else "(?:[^/]+/)*"
        else:
            regex += piece + ("" if last else "/")
    return re.compile(regex)


def match_glob(path: str, pattern: str) -> bool:
    return _glob_regex(pattern).fullmatch(path) is not None


class PlatformClient:
    def __init__(self, transport, *, cache_dir=None):
        self._transport = transport
        self._cache_dir = Path(cache_dir) if cache_dir else None

    def _call(self, endpoint: str, **params: str):
        payload = perform(self._transport, endpoint, params)
        if endpoint in _ARRAY_ENDPOINTS:
            return _objects(payload, f"{endpoint} {params}")
        if not isinstance(payload, dict):
            raise TransportError(
                f"{endpoint} {params}: unexpected payload of type {type(payload).__name__}"
            )
        return payload

    # -- search ---------------------------------------------------------

    def search_issues(
        self,
        query: SearchQuery,
        *,
        language: Optional[str] = None,
        state: Optional[str] = "closed",
        max_results: int = 100,
    ) -> List[IssueHit]:
        """First-phase retrieval: hits in platform order, ranked 1..k."""
        if not query.text.strip():
            raise ValidationError("search query text is empty")
        if len(query.full()) > MAX_QUERY_LEN:
            raise ValidationError(
                f"search query exceeds {MAX_QUERY_LEN} characters: {len(query.full())}"
            )
        if not 1 <= max_results <= SEARCH_RESULT_LIMIT:
            raise ValidationError(f"max_results must be in 1..{SEARCH_RESULT_LIMIT}")
        q = query.full()
        if language:
            q += f" language:{language}"
        if state:
            q += f" state:{state}"

        hits: List[IssueHit] = []
        page = 1
        while len(hits) < max_results:
            payload = self._call(
                "search_issues", q=q, page=str(page), per_page=str(_PAGE_SIZE)
            )
            items = _field(payload, "items", list, "search_issues", [])
            for item in items:
                if len(hits) >= max_results:
                    break
                hits.append(
                    IssueHit(
                        ref=_item_ref(item),
                        title=_field(item, "title", str, "search_issues", ""),
                        search_rank=len(hits) + 1,
                        is_pull="pull_request" in item,
                    )
                )
            if len(items) < _PAGE_SIZE:
                break
            page += 1
        return hits

    # -- issues ----------------------------------------------------------

    def fetch_issue(self, ref: IssueRef) -> IssueDocument:
        payload = self._call(
            "get_issue", owner=ref.owner, repo=ref.repo, number=str(ref.number)
        )
        comments = self._list_comments(ref)
        try:
            num_comments = int(payload.get("comments", len(comments)))
        except (TypeError, ValueError, OverflowError) as exc:
            raise TransportError(
                f"issue {ref} has a non-numeric comment count: {payload.get('comments')!r}"
            ) from exc
        where = f"get_issue {ref}"
        body = _field(payload, "body", str, where, "")
        labels = [
            _field(entry, "name", str, where, "")
            for entry in _field(payload, "labels", list, where, [])
        ]
        return IssueDocument(
            ref=ref,
            title=_field(payload, "title", str, where, ""),
            body=body,
            comments=comments,
            state=_field(payload, "state", str, where, "open"),
            labels=labels,
            num_comments=num_comments,
            is_pull="pull_request" in payload,
            patch_refs=find_patch_refs(ref.owner, ref.repo, [body] + comments),
        )

    def _list_comments(self, ref: IssueRef) -> List[str]:
        comments: List[str] = []
        page = 1
        while True:
            payload = self._call(
                "list_comments",
                owner=ref.owner,
                repo=ref.repo,
                number=str(ref.number),
                page=str(page),
                per_page=str(_PAGE_SIZE),
            )
            comments.extend(_field(entry, "body", str, "list_comments", "") for entry in payload)
            if len(payload) < _PAGE_SIZE:
                break
            page += 1
        return comments

    # -- patches ---------------------------------------------------------

    def fetch_patch(self, issue: IssueDocument) -> Optional[Patch]:
        """First resolvable patch the thread points at: pull requests
        first, then commit ids, each in document order. A document that
        is itself a pull request carries its own patch, so it goes to
        the front of the line."""
        ordered = [r for r in issue.patch_refs if r.kind == "pull"] + [
            r for r in issue.patch_refs if r.kind == "commit"
        ]
        if issue.is_pull:
            own = PatchRef(
                kind="pull",
                owner=issue.ref.owner,
                repo=issue.ref.repo,
                ref=str(issue.ref.number),
            )
            ordered = [own] + [r for r in ordered if r != own]
        for ref in ordered:
            try:
                patch = self._resolve_patch(ref)
            except NotFoundError:
                log.warning("patch ref %s does not resolve, skipping", ref)
                continue
            if patch.files:
                return patch
        return None

    def _resolve_patch(self, ref: PatchRef) -> Patch:
        if ref.kind == "pull":
            pull = self._call(
                "get_pull", owner=ref.owner, repo=ref.repo, number=ref.ref
            )
            head = _field(pull, "head", dict, "get_pull", {})
            sha = _field(head, "sha", str, "get_pull", "")
            head_repo = _field(head, "repo", dict, "get_pull", {})
            full_name = _field(head_repo, "full_name", str, "get_pull", "")
            head_owner, _, head_name = (full_name or f"{ref.owner}/{ref.repo}").partition("/")
            entries = self._list_pull_files(ref)
            files = [
                self._modified_file(e, head_owner, head_name, sha, "get_pull_files")
                for e in entries
            ]
            return Patch(ref=ref, files=files)
        commit = self._call("get_commit", owner=ref.owner, repo=ref.repo, sha=ref.ref)
        sha = _field(commit, "sha", str, "get_commit", "") or ref.ref
        files = [
            self._modified_file(e, ref.owner, ref.repo, sha, "get_commit")
            for e in _field(commit, "files", list, "get_commit", [])
        ]
        return Patch(ref=ref, files=files)

    def _list_pull_files(self, ref: PatchRef) -> List[dict]:
        entries: List[dict] = []
        page = 1
        while True:
            payload = self._call(
                "get_pull_files",
                owner=ref.owner,
                repo=ref.repo,
                number=ref.ref,
                page=str(page),
                per_page=str(_PAGE_SIZE),
            )
            entries.extend(payload)
            if len(payload) < _PAGE_SIZE:
                break
            page += 1
        return entries

    def _modified_file(
        self, entry: dict, owner: str, repo: str, sha: str, endpoint: str
    ) -> ModifiedFile:
        path = _field(entry, "filename", str, endpoint, "")
        status = _field(entry, "status", str, endpoint, "modified")
        content = None
        # only source files feed the code comparison, so only they are
        # worth a content request
        if path.endswith(".java") and status != "removed" and sha:
            try:
                content = self._file_content(owner, repo, path, sha)
            except NotFoundError:
                log.warning("no content for %s at %s", path, sha[:12])
        return ModifiedFile(
            path=path,
            status=status,
            new_content=content,
            diff=_field(entry, "patch", str, endpoint, None),
        )

    def _file_content(self, owner: str, repo: str, path: str, ref: str) -> str:
        payload = self._call(
            "get_file_content", owner=owner, repo=repo, path=path, ref=ref
        )
        data = _field(payload, "content", str, "get_file_content", "")
        if payload.get("encoding") == "base64":
            try:
                return base64.b64decode(data).decode("utf-8", errors="replace")
            except ValueError as exc:
                raise TransportError(
                    f"get_file_content {owner}/{repo} {path}: content is not base64: {exc}"
                ) from exc
        return data

    # -- repository snapshots ---------------------------------------------

    def fetch_repo_snapshot(
        self,
        owner: str,
        repo: str,
        include_globs: Sequence[str] = DEFAULT_SNAPSHOT_GLOBS,
    ) -> RepoSnapshot:
        """Contents of every file matching the globs at the current head
        of the default branch. Cached on disk per (repo, head, globs)."""
        globs = list(include_globs)
        if not globs:
            raise ValidationError("include_globs must not be empty")
        meta = self._call("get_repo", owner=owner, repo=repo)
        branch = _field(meta, "default_branch", str, "get_repo", "") or "main"
        tree = self._call(
            "get_tree", owner=owner, repo=repo, ref=branch, recursive="1"
        )
        if tree.get("truncated"):
            log.warning(
                "the tree of %s/%s is truncated; its snapshot holds only the files listed",
                owner, repo,
            )
        head = _field(tree, "sha", str, "get_tree", "") or branch
        cached = self._cached_snapshot(owner, repo, head, globs)
        if cached is not None:
            return cached

        blobs = [
            _field(entry, "path", str, "get_tree")
            for entry in _field(tree, "tree", list, "get_tree", [])
            if entry.get("type") == "blob"
        ]
        paths = sorted(path for path in blobs if any(match_glob(path, g) for g in globs))
        files: Dict[str, str] = {}
        for path in paths:
            try:
                files[path] = self._file_content(owner, repo, path, head)
            except NotFoundError:
                log.warning("tree lists %s but content fetch failed, skipping", path)
        snapshot = RepoSnapshot(owner=owner, repo=repo, head=head, files=files)
        self._store_snapshot(snapshot, globs)
        return snapshot

    def _snapshot_cache_path(self, owner, repo, head, globs) -> Optional[Path]:
        if self._cache_dir is None:
            return None
        glob_hash = hashlib.sha256(json.dumps(sorted(globs)).encode()).hexdigest()[:16]
        return self._cache_dir / f"{owner}__{repo}__{head}__{glob_hash}.json"

    def _cached_snapshot(self, owner, repo, head, globs) -> Optional[RepoSnapshot]:
        """The cached snapshot, or None on a miss; a cache file that cannot
        be read or parsed (say, cut short by a crash) is a miss too."""
        path = self._snapshot_cache_path(owner, repo, head, globs)
        if path is None or not path.is_file():
            return None
        try:
            data = json.loads(path.read_text())
            return RepoSnapshot(
                owner=data["owner"], repo=data["repo"], head=data["head"], files=data["files"]
            )
        except (OSError, ValueError, KeyError, TypeError) as exc:
            log.warning("unreadable snapshot cache %s (%s), refetching", path, exc)
            return None

    def _store_snapshot(self, snapshot: RepoSnapshot, globs) -> None:
        """Write through a temp file in the cache directory and rename it
        into place, so concurrent readers and writers never see a partial
        file."""
        path = self._snapshot_cache_path(snapshot.owner, snapshot.repo, snapshot.head, globs)
        if path is None:
            return
        path.parent.mkdir(parents=True, exist_ok=True)
        text = json.dumps(
            {
                "owner": snapshot.owner,
                "repo": snapshot.repo,
                "head": snapshot.head,
                "files": snapshot.files,
            },
            sort_keys=True,
        )
        fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".", suffix=".tmp")
        try:
            with os.fdopen(fd, "w") as out:
                out.write(text)
            os.replace(tmp, path)
        finally:
            if os.path.exists(tmp):
                os.unlink(tmp)


def _item_ref(item: dict) -> IssueRef:
    try:
        repo_url = str(item["repository_url"])
        owner, repo = repo_url.rsplit("/repos/", 1)[1].split("/")[:2]
        return IssueRef(owner, repo, int(item["number"]))
    except (KeyError, IndexError, TypeError, ValueError, OverflowError) as exc:
        raise TransportError(f"malformed search result item {item!r}: {exc!r}") from exc
