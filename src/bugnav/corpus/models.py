"""Data types for issues, patches, and repository snapshots.

Also home to the reference-scanning helpers that pull patch pointers
and cross-repository issue links out of issue text, since both the
client and the miner need them, and to :func:`file_kind`, which both
the client and the extractors need.
"""

from __future__ import annotations

import bisect
import re
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

_ISSUE_URL_RE = re.compile(
    r"https?://github\.com/([\w.-]+)/([\w.-]+)/(?:issues|pull)/(\d+)"
)
_PULL_URL_RE = re.compile(r"https?://github\.com/([\w.-]+)/([\w.-]+)/pull/(\d+)")
_COMMIT_URL_RE = re.compile(
    r"https?://github\.com/([\w.-]+)/([\w.-]+)/commit/([0-9a-f]{7,40})"
)
# an abbreviated or full commit id mentioned in prose: 7-40 lowercase hex
# digits bounded by non-word characters (and not inside a URL path)
_BARE_SHA_RE = re.compile(r"(?<![\w/])([0-9a-f]{7,40})(?![\w/])")
# a bare id inside any URL, say a comment anchor, is not one
_ANY_URL_RE = re.compile(r"https?://\S+")

# files recognised by their name alone, wherever they sit
_KIND_BY_NAME = {
    "pom.xml": "pom",
    "build.gradle": "gradle",
    "build.gradle.kts": "gradle",
    "AndroidManifest.xml": "manifest",
}

# The platform rejects search queries longer than this (text plus
# qualifiers; language/state filters ride outside the budget).
MAX_QUERY_LEN = 256


# every kind :func:`file_kind` gives
FILE_KINDS = frozenset({"java", "pom", "gradle", "manifest", "layout"})


def file_kind(path: str) -> Optional[str]:
    """What a repository file tells the comparison, by its path: "java"
    source, a "pom" or "gradle" build file, the Android "manifest", or a
    "layout" (XML directly inside a ``layout*`` directory below ``res``).
    None for every other file; those are never fetched."""
    if path.endswith(".java"):
        return "java"
    parts = path.split("/")
    if parts[-1] in _KIND_BY_NAME:
        return _KIND_BY_NAME[parts[-1]]
    if path.endswith(".xml") and len(parts) >= 2:
        if parts[-2].startswith("layout") and "res" in parts[:-1]:
            return "layout"
    return None


@dataclass
class SearchQuery:
    """One search request: free text plus in:-style qualifiers.

    `strategy` records which generation rung produced the query; callers
    that build queries by hand may use any label.
    """

    text: str
    qualifiers: List[str] = field(default_factory=list)
    strategy: str = "summary_unscoped"

    def full(self) -> str:
        if not self.qualifiers:
            return self.text
        return self.text + " " + " ".join(self.qualifiers)


# "owner/repo": an owner or repo of "." or ".." is refused (the
# lookaheads), since each becomes a segment of a request path
_REPO_NAME = r"(?!\.\.?/)([\w.-]+)/(?!\.\.?(?:#|\Z))([\w.-]+)"
_ISSUE_REF = _REPO_NAME + "#([1-9][0-9]*)"


def parse_repo_name(text: str) -> Tuple[str, str]:
    """The owner and repo of an "owner/repo" name, by the rule
    :meth:`IssueRef.parse` reads them with."""
    m = re.fullmatch(_REPO_NAME, text)
    if not m:
        raise ValueError(f"not a repository name: {text!r}")
    return m.group(1), m.group(2)


@dataclass(frozen=True)
class IssueRef:
    owner: str
    repo: str
    number: int

    @classmethod
    def parse(cls, text: str) -> "IssueRef":
        """Accept the short "owner/repo#123" form, the owner and repo as
        :func:`parse_repo_name` reads them. The number is written as it
        prints: no issue has number 0, and "#007" is refused, not read as
        "#7"."""
        m = re.fullmatch(_ISSUE_REF, text.strip())
        if not m:
            raise ValueError(f"not an issue reference: {text!r}")
        return cls(m.group(1), m.group(2), int(m.group(3)))

    def __str__(self):
        return f"{self.owner}/{self.repo}#{self.number}"


@dataclass(frozen=True)
class PatchRef:
    """Pointer to something that might resolve to a patch."""

    kind: str  # "pull" or "commit"
    owner: str
    repo: str
    ref: str  # PR number as a string, or a commit id

    def __str__(self):
        sep = "#" if self.kind == "pull" else "@"
        return f"{self.owner}/{self.repo}{sep}{self.ref}"


@dataclass
class IssueHit:
    """One row of a search result page, in platform order."""

    ref: IssueRef
    search_rank: int  # 1-based


@dataclass
class IssueDocument:
    """A fully fetched issue: body, comment thread, and patch pointers."""

    ref: IssueRef
    title: str
    body: str
    comments: List[str] = field(default_factory=list)
    num_comments: int = 0
    is_pull: bool = False
    patch_refs: List[PatchRef] = field(default_factory=list)

    def thread_texts(self) -> List[str]:
        """Title, body, then comments, in document order."""
        return [self.title, self.body or ""] + list(self.comments)


@dataclass
class ModifiedFile:
    path: str
    new_content: Optional[str] = None


@dataclass
class Patch:
    ref: PatchRef
    files: List[ModifiedFile] = field(default_factory=list)


@dataclass
class RepoSnapshot:
    """A repository's files of the kinds asked for, path to text."""

    files: Dict[str, str] = field(default_factory=dict)


def find_patch_refs(owner: str, repo: str, texts: List[str]) -> List[PatchRef]:
    """Scan issue texts for patch pointers, in document order.

    Pull request and commit URLs carry their own repository, and one
    that :func:`parse_repo_name` refuses (an owner or repo of "..", say)
    is skipped; a bare commit id is taken to belong to the issue's home
    repository. Duplicates keep their first position.
    """
    found: List[PatchRef] = []
    seen = set()

    def add(ref: PatchRef):
        if ref not in seen:
            seen.add(ref)
            found.append(ref)

    for text in texts:
        if not text:
            continue
        events = [
            (m.start(), PatchRef(kind, *m.groups()))
            for kind, url_re in (("pull", _PULL_URL_RE), ("commit", _COMMIT_URL_RE))
            for m in url_re.finditer(text)
            if re.fullmatch(_REPO_NAME, f"{m.group(1)}/{m.group(2)}")
        ]
        url_spans = [m.span() for m in _ANY_URL_RE.finditer(text)]
        url_starts = [start for start, _ in url_spans]
        for m in _BARE_SHA_RE.finditer(text):
            # the spans are sorted and disjoint, so only the last URL to
            # start at or before the id can hold it
            last = bisect.bisect_right(url_starts, m.start(1)) - 1
            if last < 0 or url_spans[last][1] <= m.start(1):
                events.append((m.start(), PatchRef("commit", owner, repo, m.group(1))))
        events.sort(key=lambda pair: pair[0])
        for _, ref in events:
            add(ref)
    return found


def find_cross_repo_issue_ref(owner: str, repo: str, texts: List[str]) -> Optional[IssueRef]:
    """First issue or PR URL in the thread that points at another repository
    and reads as :meth:`IssueRef.parse` reads a reference; a link it refuses,
    say ".../issues/007", is skipped."""
    home = (owner.lower(), repo.lower())
    for text in texts:
        if not text:
            continue
        for m in _ISSUE_URL_RE.finditer(text):
            target = (m.group(1).lower(), m.group(2).lower())
            if target == home:
                continue
            try:
                return IssueRef.parse(f"{m.group(1)}/{m.group(2)}#{m.group(3)}")
            except ValueError:
                pass
    return None
