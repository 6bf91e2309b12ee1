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

# An exception name. Only ever matched from a start _exception_match has
# found: a search would scan each word start of a long [\w.$] run to the
# run's end, in time quadratic in the run.
_EXC_RE = re.compile(r"\b(?:[A-Za-z][\w.$]*)?(?:Exception|Error)\b")
_EXC_WORD_RE = re.compile(r"(?:Exception|Error)\b")
_CAUSED_RE = re.compile(r"^\s*Caused by:\s*(.*)$")
_COND_KEYWORD_RE = re.compile(r"\b(if|when|while)\b", re.IGNORECASE)
# A numeric tail (": 93067 bytes") read backwards from the end of a stripped
# message: an optional word, a number, then an optional ':' or '=', each
# with the spaces around it. Matched at the one place it can start, it runs
# in linear time; searched forwards to a `$`, its spaces around ':' would
# split a run of spaces in every way at every start, in cubic time.
_NUM_TAIL_REVERSED_RE = re.compile(r"(?:[A-Za-z]+\s+)?[\d.,]*\d\s*[:=]?\s*")
_JUNK_RE = re.compile(r"['\"`()\[\]{}<>:;,!?]")


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


def _is_word(char: str) -> bool:
    r"""Whether char is a regex \w character."""
    return char.isalnum() or char == "_"


def _exception_match(text: str) -> Optional[re.Match]:
    r"""_EXC_RE's leftmost match in text, in time linear in text.

    From each "Exception" or "Error" that ends a word, a walk goes left
    over [\w.$]. The leftmost place on it where a name may begin, an ASCII
    letter after no \w character, is where the leftmost match starts. A
    walk stops where the previous one began, since no match starts before."""
    checked = 0  # no match starts in text[:checked]
    for word in _EXC_WORD_RE.finditer(text):
        start, i = None, word.start()
        while True:
            before = text[i - 1] if i else " "
            if text[i].isascii() and text[i].isalpha() and not _is_word(before):
                start = i
            if i == checked or not (_is_word(before) or before in ".$"):
                break
            i -= 1
        if start is not None:
            return _EXC_RE.match(text, start)
        checked = word.start() + 1
    return None


def _parse_exception_text(text: str) -> Optional[Tuple[str, str]]:
    """Pick "name: message" out of one line of text."""
    m = _exception_match(text)
    if not m:
        return None
    name = m.group().strip(".")
    rest = text[m.end():]
    message = rest[1:].strip() if rest.startswith(":") else ""
    return name, message


def parse_stack_trace(body: str) -> Optional[StackTraceInfo]:
    """Locate the stack trace in an issue body and find its root cause.

    The root cause is the exception of the last "Caused by:" block.
    When a "Caused by:" line exists but nothing after it parses (the
    reporter pasted a partial trace), fall back to the first exception
    line and mark the result incomplete.
    """
    lines = body.splitlines()
    top = None
    for line in lines:
        parsed = _parse_exception_text(line)
        if parsed:
            top = parsed
            break
    if top is None:
        return None

    caused: List[Optional[Tuple[str, str]]] = []
    for line in lines:
        cm = _CAUSED_RE.match(line)
        if cm:
            caused.append(_parse_exception_text(cm.group(1)))

    complete = True
    root = top
    if caused:
        if caused[-1] is not None:
            root = caused[-1]
        else:
            complete = False

    return StackTraceInfo(
        top_exception=top[0],
        top_message=top[1],
        root_exception=root[0],
        root_message=root[1],
        complete=complete,
    )


def _normalize_message(message: str) -> str:
    """Shape an exception message for use as query text.

    Numeric tails (": 93067 bytes") carry no reusable signal and are cut;
    quote and bracket characters become spaces so identifiers split apart
    cleanly; dots and dollar signs become spaces for the same reason.
    Only the leading character is lowercased; interior casing is the
    reporter's and stays.
    """
    msg = message.strip()
    tail = _NUM_TAIL_REVERSED_RE.match(msg[::-1])
    if tail:
        msg = msg[: len(msg) - tail.end()]
    msg = re.sub(r"[.$]", " ", msg)
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
