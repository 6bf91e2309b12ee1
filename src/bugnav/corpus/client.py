"""High-level platform operations over any transport.

Everything here is transport-agnostic: point it at a live transport
for real runs, at a replay transport for tests and demos.
"""

from __future__ import annotations

import base64
import functools
import hashlib
import itertools
import logging
import os
import re
import tempfile
from pathlib import Path
from typing import AbstractSet, Dict, Iterator, List, Optional

from ..errors import (
    NotFoundError,
    TransportError,
    ValidationError,
    checked_field,
    checked_list,
)
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
    parse_repo_name,
)
from .transport import perform

log = logging.getLogger(__name__)

SEARCH_RESULT_LIMIT = 1000
_PAGE_SIZE = 100
# every reply field is read through this: a wrongly shaped reply is a
# transport failure, not bad input
_field = functools.partial(checked_field, error=TransportError)
# a git blob's name: the sha1 of its header and bytes
_BLOB_SHA = re.compile(r"[0-9a-f]{40}")


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
            except NotFoundError as exc:
                log.warning("patch ref %s does not resolve, skipping: %s", ref, exc)
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
            try:
                owner, repo = parse_repo_name(full_name) if full_name else (ref.owner, ref.repo)
            except ValueError as exc:
                # no request can name that repository
                raise NotFoundError(f"get_pull {ref}: head repository: {exc}") from exc
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
        self, entry: dict, owner: str, repo: str, ref: str, endpoint: str
    ) -> ModifiedFile:
        path = _field(entry, "filename", str, endpoint, "")
        status = _field(entry, "status", str, endpoint, "modified")
        content = None
        # only source files feed the code comparison, so only they are
        # worth a content request; a removed file has none
        if file_kind(path) == "java" and status != "removed" and ref:
            try:
                content = self._file_content(owner, repo, path, ref, entry.get("sha"))
            except NotFoundError:
                log.warning("no content for %s at %s", path, ref[:12])
        return ModifiedFile(path=path, new_content=content)

    def _file_content(self, owner: str, repo: str, path: str, ref: str, sha: object) -> str:
        """The text of ``path`` at ``ref``. With a cache directory and a blob
        ``sha`` of 40 lowercase hex digits, the file's bytes are read from,
        and stored to, ``blobs/<sha>`` there; any other ``sha`` (a reply
        value) is fetched uncached."""
        blob = None
        if self._cache_dir is not None and isinstance(sha, str) and _BLOB_SHA.fullmatch(sha):
            blob = self._cache_dir / "blobs" / sha
            data = _read_blob(blob, sha)
            if data is not None:
                return data.decode("utf-8", errors="replace")
        payload = self._call(
            "get_file_content", owner=owner, repo=repo, path=path, ref=ref
        )
        text = _field(payload, "content", str, "get_file_content", "")
        if payload.get("encoding") != "base64":
            return text
        try:
            data = base64.b64decode(text)
        except ValueError as exc:
            raise TransportError(
                f"get_file_content {owner}/{repo} {path}: content is not base64: {exc}"
            ) from exc
        # only bytes that are the blob the entry names are worth keeping
        if blob is not None and _git_blob_sha(data) == sha:
            _store_blob(blob, data)
        return data.decode("utf-8", errors="replace")

    # -- repository snapshots ---------------------------------------------

    def fetch_repo_snapshot(
        self, owner: str, repo: str, kinds: AbstractSet[str] = FILE_KINDS
    ) -> RepoSnapshot:
        """Contents of every file whose :func:`file_kind` is in ``kinds``, at
        the current head of the default branch. The tree is requested on
        every call; each file's content comes from the blob store when its
        tree entry's ``sha`` is cached there (see :meth:`_file_content`), so
        a moved head refetches only the files that changed, and a snapshot
        of other kinds shares the files it has in common."""
        meta = self._call("get_repo", owner=owner, repo=repo)
        branch = _field(meta, "default_branch", str, "get_repo", "") or "main"
        tree = self._call(
            "get_tree", owner=owner, repo=repo, ref=branch, recursive="1"
        )
        if tree.get("truncated") is True:
            log.warning(
                "the tree of %s/%s is truncated; its snapshot holds only the files listed",
                owner, repo,
            )
        head = _field(tree, "sha", str, "get_tree", "") or branch
        blobs = {
            _field(entry, "path", str, "get_tree"): entry.get("sha")
            for entry in _field(tree, "tree", list, "get_tree", [])
            if entry.get("type") == "blob"
        }
        files: Dict[str, str] = {}
        for path in sorted(path for path in blobs if file_kind(path) in kinds):
            try:
                files[path] = self._file_content(owner, repo, path, head, blobs[path])
            except NotFoundError:
                log.warning("tree lists %s but content fetch failed, skipping", path)
        return RepoSnapshot(files)


def _git_blob_sha(data: bytes) -> str:
    """The name git gives a file of these bytes."""
    return hashlib.sha1(b"blob %d\0" % len(data) + data).hexdigest()


def _read_blob(path: Path, sha: str) -> Optional[bytes]:
    """The bytes stored at ``path``, or None on a miss. A file whose bytes do
    not hash to ``sha`` (say, cut short by a crash) is a miss too."""
    try:
        data = path.read_bytes()
    except FileNotFoundError:
        return None
    except (OSError, ValueError) as exc:
        log.warning("unreadable file cache entry %s (%s), refetching", path, exc)
        return None
    if _git_blob_sha(data) != sha:
        log.warning("damaged file cache entry %s, refetching", path)
        return None
    return data


def _store_blob(path: Path, data: bytes) -> None:
    """Write through a temp file in the blob directory and rename it into
    place, so concurrent readers and writers never see a partial file."""
    fd = tmp = None
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".", suffix=".tmp")
        out = os.fdopen(fd, "wb")
        fd = None  # the file object owns the descriptor now
        with out:
            out.write(data)
        os.replace(tmp, path)
    except (OSError, ValueError) as exc:
        # a cache that cannot be written to, or is full, costs only refetches
        log.warning("cannot write file cache in %s (%s)", path.parent, exc)
    finally:
        if fd is not None:
            os.close(fd)
        if tmp is not None and os.path.exists(tmp):
            os.unlink(tmp)


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
