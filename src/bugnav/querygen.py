"""Turn an open bug report into a platform search query.

A ladder of strategies, strongest evidence first:

1. the body holds a stack trace  -> root exception name + message
2. the title states a condition  -> the text after if/when/while
3. otherwise                     -> the stopword-stripped title

Each rung only runs when the previous one produced fewer results than
the threshold, except the condition rung, which is terminal once taken.
Emitted query text keeps the reporter's surface forms; stemming never
touches it.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Tuple

from bugnav.corpus.models import MAX_QUERY_LEN, IssueDocument, IssueHit, SearchQuery
from bugnav.errors import QueryConstructionError
from bugnav.textprep import STOPWORDS, split_words

STRATEGY_STACK_TRACE = "stack_trace"
STRATEGY_CONDITION = "condition"
STRATEGY_SUMMARY_SCOPED = "summary_title_scoped"
STRATEGY_SUMMARY_UNSCOPED = "summary_unscoped"  # SearchQuery's default label

DEFAULT_N_THRESHOLD = 5

# An exception name lies in one maximal [\w.$] run: it starts at an ASCII
# letter after no \w character and ends at the run's last "Exception" or
# "Error" that ends a word.
_RUN_RE = re.compile(r"[\w.$]+")
_KEYWORD_RE = re.compile(r"(?:Exception|Error)\b")
_NAME_START_RE = re.compile(r"(?<!\w)[A-Za-z]")
_CAUSED_RE = re.compile(r"^\s*Caused by:\s*(.*)$")
_COND_KEYWORD_RE = re.compile(r"\b(if|when|while)\b", re.IGNORECASE)
# A numeric tail (": 93067 bytes") read backwards from the end of a stripped
# message: an optional word, a number, then an optional ':' or '=', each
# with the spaces around it. Matched at the one place it can start, it runs
# in linear time; searched forwards to a `$`, its spaces around ':' would
# split a run of spaces in every way at every start, in cubic time.
_NUM_TAIL_REVERSED_RE = re.compile(r"(?:[A-Za-z]+\s+)?[\d.,]*\d\s*[:=]?\s*")
_JUNK_RE = re.compile(r"['\"`()\[\]{}<>:;,!?.$]")


@dataclass
class StackTraceInfo:
    top_exception: str
    top_message: str
    root_exception: str
    root_message: str
    complete: bool = True


@dataclass
class QueryOutcome:
    query: SearchQuery
    hits: List[IssueHit]
    attempts: List[Tuple[SearchQuery, int]] = field(default_factory=list)


def _parse_exception_text(text: str) -> Optional[Tuple[str, str]]:
    r"""Pick "name: message" out of one line of text.

    The name is in the first [\w.$] run where a name may start at or
    before the start of the run's last keyword. Each run is read once for
    its keywords and at most once for a name start: linear in text."""
    for run in _RUN_RE.finditer(text):
        keyword = None
        for keyword in _KEYWORD_RE.finditer(text, run.start(), run.end()):
            pass
        if keyword is None:
            continue
        start = _NAME_START_RE.search(text, run.start(), keyword.start() + 1)
        if start:
            name = text[start.start():keyword.end()].strip(".")
            rest = text[keyword.end():]
            message = rest[1:].strip() if rest.startswith(":") else ""
            return name, message
    return None


def parse_stack_trace(body: str) -> Optional[StackTraceInfo]:
    """Locate the stack trace in an issue body and find its root cause.

    The root cause is the exception of the last "Caused by:" block.
    When a "Caused by:" line exists but nothing after it parses (the
    reporter pasted a partial trace), fall back to the first exception
    line and mark the result incomplete.
    """
    top = None
    caused: List[Optional[Tuple[str, str]]] = []
    for line in body.splitlines():
        if top is None:
            top = _parse_exception_text(line)
        cm = _CAUSED_RE.match(line)
        if cm:
            caused.append(_parse_exception_text(cm.group(1)))
    if top is None:
        return None
    root = caused[-1] if caused and caused[-1] else top
    return StackTraceInfo(
        top_exception=top[0],
        top_message=top[1],
        root_exception=root[0],
        root_message=root[1],
        complete=not caused or caused[-1] is not None,
    )


def _normalize_message(message: str) -> str:
    """Shape an exception message for use as query text.

    Numeric tails (": 93067 bytes") carry no reusable signal and are cut;
    quote, bracket, dot and dollar characters become spaces so identifiers
    split apart cleanly.
    Only the leading character is lowercased; interior casing is the
    reporter's and stays.
    """
    msg = message.strip()
    tail = _NUM_TAIL_REVERSED_RE.match(msg[::-1])
    if tail:
        msg = msg[: len(msg) - tail.end()]
    msg = _JUNK_RE.sub(" ", msg)
    msg = re.sub(r"\s+", " ", msg).strip()
    if msg:
        msg = msg[0].lower() + msg[1:]
    return msg


def exception_query_text(trace: StackTraceInfo) -> str:
    """Root exception simple name plus its normalized message."""
    simple = re.split(r"[.$]", trace.root_exception)[-1]
    msg = _normalize_message(trace.root_message)
    return f"{simple} {msg}".strip()


def extract_condition(title: str) -> Optional[str]:
    """Text after the first whole-word if/when/while in the title."""
    m = _COND_KEYWORD_RE.search(title)
    if not m:
        return None
    words = split_words(title[m.end():])
    return " ".join(words) or None


def summarize_title(title: str, project_tokens: set) -> str:
    """Strip symbols, stopwords, and project-name tokens from a title."""
    lowered = {t.lower() for t in project_tokens}
    kept = [
        w
        for w in split_words(title)
        if w.lower() not in STOPWORDS and w.lower() not in lowered
    ]
    if not kept:
        raise QueryConstructionError(f"title is all stopwords: {title!r}")
    return " ".join(kept)


def _fit_budget(text: str, qualifiers: List[str]) -> str:
    """Trim query text so text + qualifiers stay inside the length cap."""
    budget = MAX_QUERY_LEN
    if qualifiers:
        budget -= len(" ".join(qualifiers)) + 1
    if len(text) <= budget:
        return text
    cut = text.rfind(" ", 0, budget + 1)
    if cut <= 0:
        return text[:budget]
    return text[:cut].rstrip()


def build_query(
    issue: IssueDocument,
    search: Callable[[SearchQuery], List[IssueHit]],
    *,
    n_threshold: int = DEFAULT_N_THRESHOLD,
    scope: str = "body,comments",
) -> QueryOutcome:
    """Walk the strategy ladder and return the last executed query.

    `search` is called with each candidate SearchQuery and must return
    the platform hits in platform order. Raises QueryConstructionError
    when no strategy can produce any query text at all.
    """
    attempts: List[Tuple[SearchQuery, int]] = []

    def run(text: str, qualifiers: List[str], strategy: str):
        fitted = _fit_budget(text, qualifiers)
        query = SearchQuery(text=fitted, qualifiers=list(qualifiers), strategy=strategy)
        hits = search(query)
        attempts.append((query, len(hits)))
        return query, hits

    last: Optional[Tuple[SearchQuery, List[IssueHit]]] = None

    trace = parse_stack_trace(issue.body or "")
    if trace is not None:
        text = exception_query_text(trace)
        if text:
            query, hits = run(text, [f"in:{scope}"], STRATEGY_STACK_TRACE)
            if len(hits) >= n_threshold:
                return QueryOutcome(query, hits, attempts)
            last = (query, hits)

    condition = extract_condition(issue.title or "")
    if condition:
        query, hits = run(condition, ["in:title"], STRATEGY_CONDITION)
        return QueryOutcome(query, hits, attempts)

    project_tokens = {issue.ref.owner, issue.ref.repo}
    try:
        summary = summarize_title(issue.title or "", project_tokens)
    except QueryConstructionError:
        if last is not None:
            return QueryOutcome(last[0], last[1], attempts)
        raise QueryConstructionError(
            f"no usable query for {issue.ref}: body has no stack trace and "
            f"the title reduces to nothing"
        )

    query, hits = run(summary, ["in:title"], STRATEGY_SUMMARY_SCOPED)
    if len(hits) >= n_threshold:
        return QueryOutcome(query, hits, attempts)
    query, hits = run(summary, [], STRATEGY_SUMMARY_UNSCOPED)
    return QueryOutcome(query, hits, attempts)
