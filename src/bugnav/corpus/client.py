"""High-level platform operations over any transport.

Everything here is transport-agnostic: point it at a live transport
for real runs, at a replay transport for tests and demos.
"""

from __future__ import annotations

import base64
import functools
import itertools
import json
import logging
import os
import tempfile
from pathlib import Path
from typing import AbstractSet, Dict, Iterator, List, Optional

from ..errors import (
    NotFoundError,
    TransportError,
    ValidationError,
    checked_field,
    checked_list,
    read_json,
)
from .fixtures import canonical_key
from .models import (
    FILE_KINDS,
    MAX_QUERY_LEN,
    IssueDocument,
    IssueHit,
    IssueRef,
    ModifiedFile,
    Patch,
    PatchRef,
    RepoSnapshot,
    SearchQuery,
    file_kind,
    find_patch_refs,
)
from .transport import perform

log = logging.getLogger(__name__)

SEARCH_RESULT_LIMIT = 1000
_PAGE_SIZE = 100
# every reply field is read through this: a wrongly shaped reply is a
# transport failure, not bad input
_field = functools.partial(checked_field, error=TransportError)


class PlatformClient:
    def __init__(self, transport, *, cache_dir=None):
        self._transport = transport
        self._cache_dir = Path(cache_dir) if cache_dir else None

    def _call(self, endpoint: str, **params: str) -> dict:
        payload = perform(self._transport, endpoint, params)
        if not isinstance(payload, dict):
            raise TransportError(
                f"{endpoint} {params}: unexpected payload of type {type(payload).__name__}"
            )
        return payload

    def _pages(self, endpoint: str, items: Optional[str] = None, **params: str) -> Iterator[dict]:
        """The objects of a paged endpoint, requesting each page only when
        the one before is used up and was full. A page is an array of
        objects, or an object holding that array under ``items``."""
        for page in itertools.count(1):
            paged = dict(params, page=str(page), per_page=str(_PAGE_SIZE))
            if items is None:
                payload = perform(self._transport, endpoint, paged)
                entries = checked_list(payload, dict, f"{endpoint} {paged}", TransportError)
            else:
                entries = _field(self._call(endpoint, **paged), items, list, endpoint, [])
            yield from entries
            if len(entries) < _PAGE_SIZE:
                return

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

        items = self._pages("search_issues", "items", q=q)
        return [
            IssueHit(ref=_item_ref(item), search_rank=rank)
            for rank, item in enumerate(itertools.islice(items, max_results), start=1)
        ]

    # -- issues ----------------------------------------------------------

    def fetch_issue(self, ref: IssueRef) -> IssueDocument:
        payload = self._call(
            "get_issue", owner=ref.owner, repo=ref.repo, number=str(ref.number)
        )
        comments = [
            _field(entry, "body", str, "list_comments", "")
            for entry in self._pages(
                "list_comments", owner=ref.owner, repo=ref.repo, number=str(ref.number)
            )
        ]
        num_comments = payload.get("comments", len(comments))
        # a JSON integer only: int() would read true, "12" and 2.9
        if type(num_comments) is not int:
            raise TransportError(f"issue {ref} has a non-integer comment count: {num_comments!r}")
        if num_comments < 0:
            raise TransportError(f"issue {ref} has a negative comment count: {num_comments}")
        where = f"get_issue {ref}"
        body = _field(payload, "body", str, where, "")
        return IssueDocument(
            ref=ref,
            title=_field(payload, "title", str, where, ""),
            body=body,
            comments=comments,
            num_comments=num_comments,
            is_pull="pull_request" in payload,
            patch_refs=find_patch_refs(ref.owner, ref.repo, [body] + comments),
        )

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
        """A pull's or commit's files. Each branch picks only the entries, the
        repository and sha to read (a pull's head, maybe a fork) and the endpoint."""
        if ref.kind == "pull":
            endpoint = "get_pull_files"
            pull = self._call("get_pull", owner=ref.owner, repo=ref.repo, number=ref.ref)
            head = _field(pull, "head", dict, "get_pull", {})
            sha = _field(head, "sha", str, "get_pull", "")
            head_repo = _field(head, "repo", dict, "get_pull", {})
            full_name = _field(head_repo, "full_name", str, "get_pull", "")
            owner, _, repo = (full_name or f"{ref.owner}/{ref.repo}").partition("/")
            entries = self._pages(endpoint, owner=ref.owner, repo=ref.repo, number=ref.ref)
        else:
            endpoint = "get_commit"
            commit = self._call(endpoint, owner=ref.owner, repo=ref.repo, sha=ref.ref)
            sha = _field(commit, "sha", str, endpoint, "") or ref.ref
            owner, repo = ref.owner, ref.repo
            entries = _field(commit, "files", list, endpoint, [])
        # pull entries are paged lazily, so contents are requested between pages
        files = [self._modified_file(e, owner, repo, sha, endpoint) for e in entries]
        return Patch(ref=ref, files=files)

    def _modified_file(
        self, entry: dict, owner: str, repo: str, sha: str, endpoint: str
    ) -> ModifiedFile:
        path = _field(entry, "filename", str, endpoint, "")
        status = _field(entry, "status", str, endpoint, "modified")
        content = None
        # only source files feed the code comparison, so only they are
        # worth a content request; a removed file has none
        if file_kind(path) == "java" and status != "removed" and sha:
            try:
                content = self._file_content(owner, repo, path, sha)
            except NotFoundError:
                log.warning("no content for %s at %s", path, sha[:12])
        return ModifiedFile(path=path, new_content=content)

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
        self, owner: str, repo: str, kinds: AbstractSet[str] = FILE_KINDS
    ) -> RepoSnapshot:
        """Contents of every file whose :func:`file_kind` is in ``kinds``, at
        the current head of the default branch. Cached on disk per (repo,
        head, kinds), so a snapshot of fewer kinds never stands in for one
        of more."""
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
        cache_path = self._snapshot_cache_path(owner, repo, head, kinds)
        cached = self._cached_snapshot(cache_path)
        if cached is not None:
            return cached

        blobs = [
            _field(entry, "path", str, "get_tree")
            for entry in _field(tree, "tree", list, "get_tree", [])
            if entry.get("type") == "blob"
        ]
        paths = sorted(path for path in blobs if file_kind(path) in kinds)
        files: Dict[str, str] = {}
        for path in paths:
            try:
                files[path] = self._file_content(owner, repo, path, head)
            except NotFoundError:
                log.warning("tree lists %s but content fetch failed, skipping", path)
        self._store_snapshot(cache_path, files)
        return RepoSnapshot(files)

    def _snapshot_cache_path(self, owner, repo, head, kinds) -> Optional[Path]:
        if self._cache_dir is None:
            return None
        # reply values name the file only through a hash, so none can
        # reach outside the cache directory or overrun a name's length
        key = canonical_key(
            "snapshot",
            {"owner": owner, "repo": repo, "head": head, "kinds": ",".join(sorted(kinds))},
        )
        return self._cache_dir / f"{key}.json"

    @staticmethod
    def _cached_snapshot(path: Optional[Path]) -> Optional[RepoSnapshot]:
        """The snapshot cached at ``path``, or None on a miss; a cache file
        that cannot be read or parsed (say, cut short by a crash), or that
        holds anything but the path-to-text object, is a miss too."""
        if path is None or not path.is_file():
            return None
        try:
            data = read_json(path, "snapshot cache", ValueError)
            if not _is_snapshot(data):
                raise ValueError(f"snapshot cache {path} holds no path-to-text object")
        except ValueError as exc:
            log.warning("unreadable snapshot cache (%s), refetching", exc)
            return None
        return RepoSnapshot(data)

    @staticmethod
    def _store_snapshot(path: Optional[Path], files: Dict[str, str]) -> None:
        """Write ``files`` alone, since the file's name already hashes the
        repository, head and kinds. Write through a temp file in the cache
        directory and rename it into place, so concurrent readers and
        writers never see a partial file."""
        if path is None:
            return
        text = json.dumps(files, sort_keys=True)
        fd = tmp = None
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".", suffix=".tmp")
            out = os.fdopen(fd, "w")
            fd = None  # the file object owns the descriptor now
            with out:
                out.write(text)
            os.replace(tmp, path)
        except (OSError, ValueError) as exc:
            # a cache that cannot be written to, or is full, costs only refetches
            log.warning("cannot write snapshot cache in %s (%s)", path.parent, exc)
        finally:
            if fd is not None:
                os.close(fd)
            if tmp is not None and os.path.exists(tmp):
                os.unlink(tmp)


def _is_snapshot(data) -> bool:
    """Whether ``data`` has the shape :meth:`PlatformClient._store_snapshot`
    writes: an object mapping paths to text."""
    return isinstance(data, dict) and all(isinstance(text, str) for text in data.values())


def _item_ref(item: dict) -> IssueRef:
    """The issue a search hit names, read by :meth:`IssueRef.parse` from the
    repository URL's "owner/repo" and the number, a JSON integer."""
    try:
        repo_url, number = item["repository_url"], item["number"]
        if type(repo_url) is not str or type(number) is not int:
            raise TypeError("repository_url must be a string and number an integer")
        return IssueRef.parse(f"{repo_url.rsplit('/repos/', 1)[1]}#{number}")
    except (KeyError, IndexError, TypeError, ValueError) as exc:
        raise TransportError(f"malformed search result item {item!r}: {exc!r}") from exc
